"""Config parsing, exit codes, file formats, and determinism of the CLI."""

import ast
import dataclasses
import importlib.util
import json
import math
import os
import random
import re
import stat
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

import quenchstage
from quenchstage.cli import (
    ConfigError,
    DIRECT_KEYS,
    EXIT_INTERNAL,
    STAGEWISE_KEYS,
    STAGEWISE_OPTIONAL,
    main,
    parse_config,
)
from quenchstage import cli, stepper, verify
from quenchstage.drivers import DirectConfig, StagewiseConfig, config_key
from quenchstage.stepper import BUTTERFLY_MIN_N, SEED_ORDER

STAGE_BASE = {
    "lambda": 20.0,
    "u0_amplitude": 0.4,
    "A0": 0.6,
    "k": 2,
    "N0": 9,
    "ds": 1e-3,
    "max_stages": 1,
}

DIRECT_BASE = {
    "lambda": 15.0,
    "N": 15,
    "dt": 5e-4,
    "T": 0.08,
    "u0_amplitude": 0.45,
}

FLOAT_CELL = re.compile(r"^-?\d\.\d{12}e[+-]\d{2,3}$")


def write_cfg(path, mapping, extra_lines=()):
    lines = [f"{key} = {value}" for key, value in mapping.items()]
    lines.extend(extra_lines)
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestParseConfig:
    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text(
            "# run parameters\n\nlambda = 15.0  # coupling\nN = 15\n"
            "dt = 5e-4\nT = 0.08\nu0_amplitude = 0.45\n"
        )
        values = parse_config(str(path), DIRECT_KEYS)
        assert values["lambda"] == 15.0
        assert values["N"] == 15
        assert isinstance(values["N"], int)

    def test_duplicate_key(self, tmp_path):
        cfg = write_cfg(tmp_path / "a.cfg", DIRECT_BASE, ["N = 16"])
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(cfg, DIRECT_KEYS)

    def test_unknown_key_names_line(self, tmp_path):
        cfg = write_cfg(tmp_path / "a.cfg", DIRECT_BASE, ["mystery = 1"])
        with pytest.raises(ConfigError, match=r":6: unknown key 'mystery'"):
            parse_config(cfg, DIRECT_KEYS)

    def test_missing_key_named(self, tmp_path):
        partial = {k: v for k, v in DIRECT_BASE.items() if k != "dt"}
        cfg = write_cfg(tmp_path / "a.cfg", partial)
        with pytest.raises(ConfigError, match="missing key 'dt'"):
            parse_config(cfg, DIRECT_KEYS)

    def test_bad_value(self, tmp_path):
        bad = dict(DIRECT_BASE)
        bad["N"] = "fifteen"
        cfg = write_cfg(tmp_path / "a.cfg", bad)
        with pytest.raises(ConfigError, match="bad value"):
            parse_config(cfg, DIRECT_KEYS)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(str(tmp_path / "nope.cfg"), DIRECT_KEYS)

    def test_byte_order_mark_skipped(self, tmp_path):
        # a BOM is valid UTF-8 and some editors write one; the first key
        # is read without it
        cfg = write_cfg(tmp_path / "a.cfg", DIRECT_BASE)
        bom = tmp_path / "bom.cfg"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(cfg).read_bytes())
        assert parse_config(str(bom), DIRECT_KEYS) == parse_config(cfg, DIRECT_KEYS)

    def test_line_without_equals(self, tmp_path):
        cfg = write_cfg(tmp_path / "a.cfg", DIRECT_BASE, ["just words"])
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config(cfg, DIRECT_KEYS)

    @pytest.mark.parametrize(
        "config, keys",
        [
            (StagewiseConfig, {**STAGEWISE_KEYS, **STAGEWISE_OPTIONAL}),
            (DirectConfig, DIRECT_KEYS),
        ],
        ids=["stagewise", "direct"],
    )
    def test_keys_are_the_config_fields(self, config, keys):
        # the config keys are the run config's fields, `lam` spelled `lambda`
        hints = typing.get_type_hints(config)
        fields = [f.name for f in dataclasses.fields(config)]
        assert [("lam" if key == "lambda" else key) for key in keys] == fields
        assert list(keys.values()) == [hints[name] for name in fields]
        assert set(keys.values()) <= {int, float}

    def test_optional_key_accepted(self, tmp_path):
        full = dict(STAGE_BASE)
        full["step_cap"] = 500
        cfg = write_cfg(tmp_path / "a.cfg", full)
        values = parse_config(cfg, STAGEWISE_KEYS, STAGEWISE_OPTIONAL)
        assert values["step_cap"] == 500


@pytest.fixture
def outdir(tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setenv("QUENCHSTAGE_OUT", str(out))
    return out


class TestStagewiseCommand:
    def test_writes_all_files(self, tmp_path, outdir):
        cfg = write_cfg(tmp_path / "s.cfg", STAGE_BASE)
        assert main(["stagewise", "--config", cfg]) == 0
        for name in (
            "stages.csv",
            "feedback.csv",
            "transitions.csv",
            "ledger.json",
            "manifest.json",
        ):
            assert (outdir / name).exists()

    def test_stage0_row_and_digits(self, tmp_path, outdir):
        cfg = write_cfg(tmp_path / "s.cfg", STAGE_BASE)
        main(["stagewise", "--config", cfg])
        lines = (outdir / "stages.csv").read_text().splitlines()
        assert lines[0] == (
            "stage_m,a_m,n_m,h_m,a_m2h_m2,scaled_time,min_w_m,"
            "accumulated_time,e_start,e_end"
        )
        row = lines[1].split(",")
        assert row[0] == "0"
        assert row[2] == "9"
        assert float(row[1]) == pytest.approx(0.6)
        assert float(row[3]) == pytest.approx(2.39073046e-1, abs=1e-9)
        assert float(row[5]) == pytest.approx(0.139155092, rel=1e-6)
        assert float(row[8]) == pytest.approx(10.3614604375, rel=1e-6)
        assert float(row[9]) == pytest.approx(9.9453726799, rel=1e-6)
        # every float cell is printed with 13 significant digits
        for cell in row[1:2] + row[3:]:
            assert FLOAT_CELL.match(cell), cell

    def test_ledger_payload(self, tmp_path, outdir):
        cfg = write_cfg(tmp_path / "s.cfg", STAGE_BASE)
        main(["stagewise", "--config", cfg])
        data = json.loads((outdir / "ledger.json").read_text())
        assert data["e0"] == pytest.approx(10.3614604375, rel=1e-6)
        assert data["d_star"] == 0.0
        assert data["rows"] == []  # single stage, no transitions
        assert len(data["stages"]) == 1
        assert data["continuation"]["full_domain"] is True
        assert data["manifest"] == "manifest.json"

    def test_ledger_reports_energy_increases(self, tmp_path, outdir):
        cfg = write_cfg(tmp_path / "s.cfg", STAGE_BASE)
        main(["stagewise", "--config", cfg])
        data = json.loads((outdir / "ledger.json").read_text())
        assert [r["energy_increases"] for r in data["stages"]] == [0]

    def test_manifest_hashes(self, tmp_path, outdir):
        import hashlib

        cfg = write_cfg(tmp_path / "s.cfg", STAGE_BASE)
        main(["stagewise", "--config", cfg])
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["command"] == "stagewise"
        assert manifest["config"]["N0"] == 9
        seed = manifest["conventions"]["picard_seed"]
        assert f"last {SEED_ORDER + 1} accepted sources" in seed
        for name, digest in manifest["outputs"].items():
            actual = hashlib.sha256((outdir / name).read_bytes()).hexdigest()
            assert digest == actual

    def test_manifest_records_linear_algebra(self, tmp_path, outdir, monkeypatch):
        # from BUTTERFLY_MIN_N on, a stage's last bits follow the butterfly's
        # product order, so the manifest names it, numpy, its BLAS and the
        # thread variables
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        cfg = write_cfg(tmp_path / "s.cfg", STAGE_BASE)
        main(["stagewise", "--config", cfg])
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert f"N >= {BUTTERFLY_MIN_N}" in manifest["conventions"]["linear_solve"]
        record = manifest["linear_algebra"]
        assert record["numpy"] == np.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert record["blas"] == {"name": blas["name"], "version": blas["version"]}
        assert record["threads"]["OPENBLAS_NUM_THREADS"] == "1"
        assert record["threads"]["MKL_NUM_THREADS"] is None
        assert "OMP_NUM_THREADS" in record["threads"]

    def test_byte_identical_reruns(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path / "s.cfg", STAGE_BASE)
        blobs = []
        for run in ("one", "two"):
            out = tmp_path / run
            monkeypatch.setenv("QUENCHSTAGE_OUT", str(out))
            assert main(["stagewise", "--config", cfg]) == 0
            blobs.append(
                {
                    name: (out / name).read_bytes()
                    for name in (
                        "stages.csv",
                        "feedback.csv",
                        "transitions.csv",
                        "ledger.json",
                    )
                }
            )
        assert blobs[0] == blobs[1]

    def test_missing_key_exit_code(self, tmp_path, outdir):
        partial = {k: v for k, v in STAGE_BASE.items() if k != "ds"}
        cfg = write_cfg(tmp_path / "s.cfg", partial)
        assert main(["stagewise", "--config", cfg]) == 2

    def test_unknown_key_exit_code(self, tmp_path, outdir, capsys):
        # the geometry fixes the profile centre at (1/2, 1/2): no centre keys
        for line in ("omega = 3", "center_x = 0.3"):
            cfg = write_cfg(tmp_path / "s.cfg", STAGE_BASE, [line])
            assert main(["stagewise", "--config", cfg]) == 2
            key = line.split(" = ")[0]
            assert f"unknown key '{key}'" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path, outdir):
        assert main(["stagewise", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_invalid_parameter_exit_code(self, tmp_path, outdir):
        bad = dict(STAGE_BASE)
        bad["A0"] = -0.6
        cfg = write_cfg(tmp_path / "s.cfg", bad)
        assert main(["stagewise", "--config", cfg]) == 2

    def test_numerical_failure_exit_code(self, tmp_path, outdir, capsys):
        # source-free stage never triggers; the step cap aborts the run, and
        # the message is what names the runaway
        runaway = dict(STAGE_BASE)
        runaway["lambda"] = 0.0
        runaway["step_cap"] = 50
        cfg = write_cfg(tmp_path / "s.cfg", runaway)
        assert main(["stagewise", "--config", cfg]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: stage 0: no trigger within 50 steps: "
            "min W = 1.14288 at step 50 > k^(-2/3) = 0.629961\n"
        )


class TestDirectCommand:
    def test_reference_values(self, tmp_path, outdir):
        cfg = write_cfg(tmp_path / "d.cfg", DIRECT_BASE)
        assert main(["direct", "--config", cfg]) == 0
        data = json.loads((outdir / "direct.json").read_text())
        assert data["e_start"] == pytest.approx(7.545273587988, rel=1e-6)
        assert data["e_end"] == pytest.approx(7.456582304139, rel=1e-6)
        assert data["min_v"] == pytest.approx(0.362574574560, rel=1e-6)
        assert data["max_u"] == pytest.approx(1.0 - data["min_v"], rel=1e-14)

    def test_scored_steps(self, outdir):
        # the four reference keys, then the sums of the 160 scored steps;
        # (e_start - e_end) / dissipation_sum is 2.0021 here
        cfg = Path(__file__).resolve().parents[1] / "configs" / "direct.cfg"
        assert main(["direct", "--config", str(cfg)]) == 0
        data = json.loads((outdir / "direct.json").read_text())
        assert list(data) == [
            "e_start", "e_end", "min_v", "max_u",
            "steps", "picard_sweeps", "dissipation_sum", "energy_increases",
        ]
        assert (data["steps"], data["picard_sweeps"]) == (160, 190)
        assert data["dissipation_sum"] == pytest.approx(0.04429996752928, rel=1e-6)
        assert data["energy_increases"] == 0

    def test_zero_horizon(self, tmp_path, outdir):
        zero = dict(DIRECT_BASE)
        zero["T"] = 0.0
        cfg = write_cfg(tmp_path / "d.cfg", zero)
        assert main(["direct", "--config", cfg]) == 0
        data = json.loads((outdir / "direct.json").read_text())
        assert data["e_end"] == data["e_start"]

    def test_source_free_decay(self, tmp_path, outdir):
        free = dict(DIRECT_BASE)
        free["lambda"] = 0.0
        free["N"] = 8
        free["T"] = 0.02
        free["dt"] = 1e-3
        cfg = write_cfg(tmp_path / "d.cfg", free)
        assert main(["direct", "--config", cfg]) == 0
        data = json.loads((outdir / "direct.json").read_text())
        assert data["e_end"] < data["e_start"]

    def test_fractional_horizon_rejected(self, tmp_path, outdir):
        bad = dict(DIRECT_BASE)
        bad["T"] = 0.0801
        cfg = write_cfg(tmp_path / "d.cfg", bad)
        assert main(["direct", "--config", cfg]) == 2


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("stagewise", "lambda", "nan"),
        ("stagewise", "ds", "inf"),
        ("stagewise", "A0", "inf"),
        ("direct", "dt", "nan"),
    ],
)
def test_non_finite_value_exit_code(tmp_path, outdir, capsys, command, key, value):
    bad = dict(STAGE_BASE if command == "stagewise" else DIRECT_BASE)
    bad[key] = value
    cfg = write_cfg(tmp_path / "c.cfg", bad)
    assert main([command, "--config", cfg]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["stagewise", "direct"])
@pytest.mark.parametrize("under", [False, True])
def test_unusable_outdir_exit_code(tmp_path, monkeypatch, capsys, command, under):
    # QUENCHSTAGE_OUT names a regular file, or a path below one: rejected
    # as a config error before any stepping
    blocker = tmp_path / "blocker"
    blocker.write_text("keep\n")
    out = blocker / "out" if under else blocker
    monkeypatch.setenv("QUENCHSTAGE_OUT", str(out))

    def no_run(cfg):
        raise AssertionError("the run started before the output check")

    monkeypatch.setattr(f"quenchstage.cli.run_{command}", no_run)
    base = STAGE_BASE if command == "stagewise" else DIRECT_BASE
    cfg = write_cfg(tmp_path / "c.cfg", base)
    assert main([command, "--config", cfg]) == 2
    assert "config error: cannot use output directory" in capsys.readouterr().err
    assert blocker.read_text() == "keep\n"


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_output_file_modes_follow_umask(tmp_path, outdir, monkeypatch, umask):
    # the two commands write into two directories, since neither writes
    # into a directory that holds the other's data files
    stage_cfg = write_cfg(tmp_path / "s.cfg", STAGE_BASE)
    direct_cfg = write_cfg(tmp_path / "d.cfg", DIRECT_BASE)
    direct_dir = tmp_path / "direct"
    old = os.umask(umask)
    try:
        assert main(["stagewise", "--config", stage_cfg]) == 0
        monkeypatch.setenv("QUENCHSTAGE_OUT", str(direct_dir))
        assert main(["direct", "--config", direct_cfg]) == 0
    finally:
        os.umask(old)
    written = sorted(outdir.iterdir())
    assert [f.name for f in written] == [
        "feedback.csv", "ledger.json", "manifest.json", "stages.csv",
        "transitions.csv",
    ]
    direct = sorted(direct_dir.iterdir())
    assert [f.name for f in direct] == ["direct.json", "manifest.json"]
    for f in written + direct:
        assert stat.S_IMODE(f.stat().st_mode) == 0o666 & ~umask, f.name


@pytest.mark.parametrize(
    "first, second", [("stagewise", "direct"), ("direct", "stagewise")]
)
def test_other_commands_data_file_stops_the_run(
    tmp_path, outdir, monkeypatch, capsys, first, second
):
    # a run into the directory of the other command would replace the
    # manifest that holds that run's digests: it stops before it starts,
    # with a config error naming the directory and the file, and leaves
    # the directory as it was
    bases = {"stagewise": STAGE_BASE, "direct": DIRECT_BASE}
    assert main([first, "--config", write_cfg(tmp_path / "a.cfg", bases[first])]) == 0
    before = {f.name: f.read_bytes() for f in outdir.iterdir()}
    capsys.readouterr()
    runs = []
    for name in ("run_stagewise", "run_direct"):
        monkeypatch.setattr(f"quenchstage.cli.{name}", lambda cfg: runs.append(cfg))
    cfg = write_cfg(tmp_path / "b.cfg", bases[second])
    assert main([second, "--config", cfg]) == 2
    assert runs == []
    found = {"stagewise": "stages.csv", "direct": "direct.json"}[first]
    assert capsys.readouterr().err == (
        f"config error: output directory {outdir} holds {found}, a data file "
        "of another command; its manifest.json would be replaced\n"
    )
    assert {f.name: f.read_bytes() for f in outdir.iterdir()} == before


@pytest.mark.parametrize("command, base", [
    ("stagewise", STAGE_BASE | {"max_stages": 2}), ("direct", DIRECT_BASE),
])
def test_run_texts_equal_their_asdict_forms(
    tmp_path, monkeypatch, command, base
):
    # a run record's vars is the field-order dict that dataclasses.asdict
    # builds, without its recursive copy: every data file of a real run is
    # the same bytes with asdict in place of vars
    cfg = write_cfg(tmp_path / "run.cfg", base)
    texts = []
    for record_dict in (vars, dataclasses.asdict):
        monkeypatch.setattr(cli, "vars", record_dict, raising=False)
        out = tmp_path / record_dict.__name__
        monkeypatch.setenv("QUENCHSTAGE_OUT", str(out))
        assert main([command, "--config", cfg]) == 0
        texts.append({p.name: p.read_bytes() for p in sorted(out.iterdir())
                      if p.name != "manifest.json"})
    files = cli.STAGEWISE_FILES if command == "stagewise" else cli.DIRECT_FILES
    assert sorted(texts[0]) == sorted(files)
    assert texts[0] == texts[1]


def test_verify_text_keeps_the_asdict_order(capsys):
    # the checks of a real report are their asdict forms, keys in field
    # order; vars would put passed, which CheckResult sets last, at the end
    assert main(["verify", "all"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    want = [dataclasses.asdict(c) for c in verify.run_suite("all")]
    assert checks == want
    assert [list(c) for c in checks] == [list(c) for c in want]
    assert list(vars(verify.CheckResult("edge", 0.0, 1.0)))[-1] == "passed"


class TestVerifyCommand:
    def test_green_suite_report(self, capsys):
        assert main(["verify", "green"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["suite"] == "green"
        assert data["passed"] is True
        names = [c["name"] for c in data["checks"]]
        assert "green_identity" in names
        for check in data["checks"]:
            assert check["measured"] <= check["tolerance"]

    def test_unisolvence_suite(self, capsys):
        assert main(["verify", "unisolvence"]) == 0
        data = json.loads(capsys.readouterr().out)
        round_trip = next(c for c in data["checks"] if c["name"] == "round_trip")
        assert round_trip["measured"] <= 1e-11

    def test_oracle_suite(self, capsys):
        assert main(["verify", "oracle"]) == 0
        data = json.loads(capsys.readouterr().out)
        gap = next(c for c in data["checks"] if c["name"] == "picard_vs_mm")
        assert gap["measured"] <= 1e-6

    def test_oracle_precondition_fails_the_check(self, monkeypatch, capsys):
        # lam = 500 puts ds = 1e-3 above eta^3/(16 lam): the convexity check
        # must fail in the report, not stop the suite
        case = verify._oracle_case
        monkeypatch.setattr(
            verify, "_oracle_case", lambda rng: (*case(rng)[:2], 500.0)
        )
        assert main(["verify", "oracle"]) == 1
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        convexity = checks["uniqueness_convexity"]
        assert convexity["passed"] is False
        assert convexity["measured"] > convexity["tolerance"] == 1.0
        assert checks["two_seed_uniqueness"]["passed"] is True

    def test_oracle_nonconvergence_exit_code(self, monkeypatch, capsys):
        # two sweeps certify none of the oracle cases; the suite stops rather
        # than compare unconverged Picard states
        monkeypatch.setattr(stepper, "PICARD_MAX", 2)
        assert main(["verify", "oracle"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "numerical failure: verify oracle: "
            "Picard did not converge within 2 sweeps: "
            "last certified bound 2.570e-08 against the stop 1.924e-11\n"
        )

    def test_oracle_stagnation_exit_code(self, monkeypatch, capsys):
        # one descent step reaches no residual target: a numerical failure
        # that names the suite, not an internal error
        monkeypatch.setattr(stepper, "ORACLE_MAX_ITERS", 1)
        assert main(["verify", "dissipation"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "numerical failure: verify dissipation: "
            "descent did not reach the residual target\n"
        )

    def test_nonconvergence_in_all_names_the_suite(self, monkeypatch, capsys):
        monkeypatch.setattr(stepper, "PICARD_MAX", 2)
        assert main(["verify", "all"]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: verify oracle: "
            "Picard did not converge within 2 sweeps: "
            "last certified bound 2.570e-08 against the stop 1.924e-11\n"
        )

    def test_all_reports_the_checks_before_a_numerical_failure(
        self, monkeypatch, capsys
    ):
        # the suites before oracle completed: their checks are reported, and
        # the run as failed, before the failure exits 3
        monkeypatch.setattr(stepper, "PICARD_MAX", 2)
        assert main(["verify", "all"]) == 3
        out, err = capsys.readouterr()
        data = json.loads(out)
        assert data["suite"] == "all"
        assert data["passed"] is False
        # the checks of green, unisolvence, edge, laplace and dissipation
        assert [c["name"] for c in data["checks"]] == [
            "green_identity",
            "round_trip",
            "degree3_reproduction",
            "reference_matrix_condition",
            "interface_continuity",
            "interface_continuity_constant",
            "local_laplace_identity",
            "patch_laplacian_vs_fd",
            "mm_dissipation_inequality",
        ]
        assert all(c["passed"] for c in data["checks"])
        assert err.startswith("numerical failure: verify oracle: ")

    def test_all_suites_take_the_folded_solve(self, monkeypatch, capsys):
        # verify draws its states on the quarter, as every run builds them,
        # so the solver it builds takes the solve the runs take; the oracle
        # suite's cases share one grid and ds, and one solver steps them all
        built = []
        init = stepper.DirichletSolver.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self.path)

        monkeypatch.setattr(stepper.DirichletSolver, "__init__", recording)
        assert main(["verify", "all"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True
        assert built == ["mirror-folded"]

    def test_unknown_suite_exit_code(self, capsys):
        # argparse rejects the name as a usage error
        with pytest.raises(SystemExit) as exc:
            main(["verify", "spectral"])
        assert exc.value.code == 2
        assert "invalid choice: 'spectral'" in capsys.readouterr().err

    def test_key_error_in_a_suite_is_internal(self, monkeypatch, capsys):
        def broken():
            raise KeyError("missing")

        monkeypatch.setitem(verify.SUITES, "green", broken)
        assert main(["verify", "green"]) == EXIT_INTERNAL
        assert capsys.readouterr().err.startswith("internal error: KeyError")

    def test_pass_rule_is_the_reported_bound(self):
        # every check passes exactly when its measured value is at most its
        # reported tolerance
        checks = verify.run_suite("all")
        assert len(checks) == 16
        for c in checks:
            assert c.passed == (c.measured <= c.tolerance), c.name
        assert verify.CheckResult("edge", 1e-12, 1e-12).passed
        above = math.nextafter(1e-12, 1.0)
        assert not verify.CheckResult("edge", above, 1e-12).passed
        assert list(dataclasses.asdict(verify.CheckResult("edge", 0.0, 1.0))) == [
            "name", "passed", "measured", "tolerance", "detail",
        ]


class TestUniformDraws:
    """verify._uniform, the suites' fixed-seed data: the values of
    random.Random(seed).random() mapped onto [low, high)."""

    def test_same_seed_same_values(self):
        first = verify._uniform(random.Random(7), -0.3, 0.3, (4, 5))
        again = verify._uniform(random.Random(7), -0.3, 0.3, (4, 5))
        other = verify._uniform(random.Random(8), -0.3, 0.3, (4, 5))
        assert np.array_equal(first, again)
        assert not np.array_equal(first, other)

    def test_values_lie_in_the_interval(self):
        x = verify._uniform(random.Random(1), -2.0, 3.0, (100, 100))
        assert -2.0 <= x.min() and x.max() < 3.0
        # and cover it: each fifth of the interval holds about 2000 draws
        counts = np.histogram(x, bins=5, range=(-2.0, 3.0))[0]
        assert counts.min() > 1800

    def test_shapes_and_the_scalar_case(self):
        rng = random.Random(3)
        assert verify._uniform(rng, 0.0, 1.0, (2, 3, 4)).shape == (2, 3, 4)
        assert verify._uniform(rng, 0.0, 1.0, (6,)).shape == (6,)
        scalar = verify._uniform(rng, 0.3, 1.5)
        assert type(scalar) is float and 0.3 <= scalar < 1.5

    def test_draws_are_the_stream_in_c_order(self):
        # one random() per value, in C order, so the scalar and the array
        # draws of a suite read one stream; CPython keeps that stream for a
        # seed across versions
        stream = random.Random(20260101)
        u = [stream.random() for _ in range(7)]
        assert u[:2] == [0.044717192733188416, 0.297835610487425]
        rng = random.Random(20260101)
        assert verify._uniform(rng, 1.0, 3.0) == 1.0 + 2.0 * u[0]
        got = verify._uniform(rng, 1.0, 3.0, (2, 3))
        assert np.array_equal(got, 1.0 + 2.0 * np.array(u[1:]).reshape(2, 3))


# the directory holding the quenchstage package, for fresh interpreters
PACKAGE_ROOT = Path(quenchstage.__file__).resolve().parents[1]
PROJECT_ROOT = Path(__file__).resolve().parents[1]


def run_python(*args, **environ):
    env = dict(os.environ, **environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE_ROOT), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env
    )


def test_console_script_installed():
    import tomllib  # Python >= 3.11

    pyproject = tomllib.loads((PROJECT_ROOT / "pyproject.toml").read_text())
    assert pyproject["project"]["scripts"]["quenchstage"] == "quenchstage.cli:main"
    proc = run_python("-m", "quenchstage", "verify", "green")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["passed"] is True


def test_cli_import_does_not_load_scipy():
    proc = run_python(
        "-c",
        "import json, sys, quenchstage.cli; "
        "print(json.dumps([m for m in sys.modules if m.startswith('scipy')]))",
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


# without CPython's own SHA-256 module the cli imports hashlib, and with it
# OpenSSL, whatever the command
needs_builtin_sha256 = pytest.mark.skipif(
    not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
    reason="no built-in SHA-256 module (_sha2 or _sha256): the manifest "
    "hashes through hashlib, which loads OpenSSL",
)


@needs_builtin_sha256
def test_run_does_not_load_openssl(outdir):
    # hashlib's sha256 loads OpenSSL's libcrypto (_hashlib), about 3.4 MiB
    # of a run's peak RSS; the manifest hashes with CPython's own module
    cfg = PROJECT_ROOT / "configs" / "direct.cfg"
    proc = run_python(
        "-c",
        "import json, sys; from quenchstage.cli import main; "
        f"code = main(['direct', '--config', {str(cfg)!r}]); "
        "print(json.dumps([code, '_hashlib' in sys.modules]))",
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, False]
    assert (outdir / "manifest.json").exists()


@needs_builtin_sha256
def test_verify_loads_neither_numpy_random_nor_openssl():
    # numpy.random's extensions and the secrets -> hmac -> _hashlib chain
    # it imports are about 5.7 MiB of peak RSS; verify draws its data from
    # the standard library's generator instead
    proc = run_python(
        "-c",
        "import json, sys; from quenchstage.cli import main; "
        "code = main(['verify', 'all']); "
        "print(json.dumps([code, '_hashlib' in sys.modules, "
        "[m for m in sys.modules if m.startswith('numpy.random')]]))",
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, False, []]


def _cells(outdir: Path) -> dict:
    """Every cell of a stagewise run's data files, keyed by file and place:
    CSV fields as floats, the ledger's JSON leaves as they parse."""
    cells = {}

    def leaves(value, key):
        if isinstance(value, (dict, list)):
            items = value.items() if isinstance(value, dict) else enumerate(value)
            for name, item in items:
                leaves(item, (*key, name))
        else:
            cells[key] = value

    for name in quenchstage.cli.STAGEWISE_FILES:
        text = (outdir / name).read_text()
        if name.endswith(".json"):
            leaves(json.loads(text), (name,))
            continue
        header, *rows = (line.split(",") for line in text.splitlines())
        for i, row in enumerate(rows):
            for column, cell in zip(header, row):
                cells[name, i, column] = float(cell)
    return cells


def test_reference_run_agrees_across_blas_kernels(tmp_path):
    # data files are byte-identical per BLAS kernel only; across kernels
    # every numeric cell agrees to 1e-11 relative (1.8e-13 seen on Haswell
    # against SkylakeX), and trigger_gap, round-off by construction, to
    # 1e-15 absolute
    cfg = str(PROJECT_ROOT / "configs" / "stagewise.cfg")
    runs = []
    for core in ("Haswell", "SkylakeX"):
        out = tmp_path / core
        proc = run_python(
            "-m", "quenchstage", "stagewise", "--config", cfg,
            QUENCHSTAGE_OUT=str(out), OPENBLAS_CORETYPE=core,
            OPENBLAS_VERBOSE="2",
        )
        if f"Core: {core}" not in proc.stderr:
            pytest.skip(f"OPENBLAS_CORETYPE={core} did not take effect: "
                        f"OPENBLAS_VERBOSE=2 printed no 'Core: {core}'")
        assert proc.returncode == 0, proc.stderr
        runs.append(_cells(out))
    first, second = runs
    assert first.keys() == second.keys()
    for key, a in first.items():
        b = second[key]
        if key[-1] == "trigger_gap":
            assert abs(a - b) <= 1e-15, key
        elif isinstance(a, (int, float)) and not isinstance(a, bool):
            assert abs(a - b) <= 1e-11 * max(abs(a), abs(b)), (key, a, b)
        else:
            assert a == b, key


@pytest.mark.parametrize("key, value", [("lambda", 2000.0), ("u0_amplitude", 0.999)])
def test_direct_quench_exit_code(tmp_path, outdir, key, value):
    # the first step leaves the positive cone; the run must stop there
    quench = dict(DIRECT_BASE)
    quench[key] = value
    cfg = write_cfg(tmp_path / "d.cfg", quench)
    proc = run_python("-m", "quenchstage", "direct", "--config", cfg)
    assert proc.returncode == 3, proc.stderr
    assert "numerical failure" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_direct_invalid_value_names_the_key(tmp_path, outdir, capsys):
    # a rejected value is a config error that names its key
    cfg = write_cfg(tmp_path / "d.cfg", dict(DIRECT_BASE, dt=0.0))
    assert main(["direct", "--config", cfg]) == 2
    assert capsys.readouterr().err == "config error: dt must be positive\n"


@pytest.mark.parametrize("command", ["stagewise", "direct"])
def test_negative_lambda_names_the_config_key(tmp_path, outdir, capsys, command):
    # the run configs call the field lam; the message names the key the
    # config file has
    base = STAGE_BASE if command == "stagewise" else DIRECT_BASE
    cfg = write_cfg(tmp_path / "c.cfg", dict(base, **{"lambda": -1.0}))
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err == "config error: lambda must be nonnegative\n"


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("stagewise", "A0", -0.6),
        ("stagewise", "N0", 1),
        ("stagewise", "u0_amplitude", 1.5),
        ("direct", "u0_amplitude", 1.5),
        ("stagewise", "max_stages", 0),
        ("stagewise", "step_cap", 0),
    ],
)
def test_rejected_value_names_its_key(
    tmp_path, outdir, capsys, command, key, value
):
    # each message names the one key the user wrote, as the config has it
    base = STAGE_BASE if command == "stagewise" else DIRECT_BASE
    cfg = write_cfg(tmp_path / "c.cfg", dict(base, **{key: value}))
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key} must ")


def declared_bounds():
    """One case per finite end of a declared bound of the run configs'
    fields: the config, the field, the bound (the closed range
    [low, high] and its message) and the value of the field's type just
    outside that end."""
    cases = []
    for config in (StagewiseConfig, DirectConfig):
        hints = typing.get_type_hints(config)
        for field in dataclasses.fields(config):
            whole = hints[field.name] is int
            for bound in field.metadata["bounds"]:
                low, high, _ = bound
                outside = []
                if math.isfinite(low):
                    outside.append(("below", math.ceil(low) - 1 if whole
                                    else math.nextafter(low, -math.inf)))
                if math.isfinite(high):
                    outside.append(("above", math.floor(high) + 1 if whole
                                    else math.nextafter(high, math.inf)))
                cases.extend(
                    pytest.param(config, field, bound, value,
                                 id=f"{config.__name__}-{field.name}-{side}")
                    for side, value in outside
                )
    return cases


@pytest.mark.parametrize("config, field, bound, value", declared_bounds())
def test_each_declared_bound_has_one_message(
    tmp_path, outdir, capsys, config, field, bound, value
):
    # a value just outside one declared bound, every other value the base
    # config's: the run config raises the bound's message through the API,
    # and a config file with that value exits 2 with the same message
    key = config_key(field)
    base = STAGE_BASE if config is StagewiseConfig else DIRECT_BASE
    values = dict(base, **{key: value})
    message = bound[2].format(key=key, value=value)
    with pytest.raises(ValueError) as api:
        config(**{f.name: values[config_key(f)]
                  for f in dataclasses.fields(config) if config_key(f) in values})
    assert str(api.value) == message
    command = "stagewise" if config is StagewiseConfig else "direct"
    cfg = write_cfg(tmp_path / "c.cfg", values)
    assert main([command, "--config", cfg]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def benchmark_setup_child():
    """perfbench's set-up snippet, SETUP_CHILD, read from run.py's source."""
    tree = ast.parse((PROJECT_ROOT / "perfbench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "SETUP_CHILD" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError("perfbench/run.py assigns no SETUP_CHILD")


@pytest.mark.parametrize(
    "argv",
    [
        ["stagewise", "--config", "configs/stagewise.cfg"],
        ["direct", "--config", "configs/direct.cfg"],
        ["verify", "all"],
    ],
    ids=["stagewise", "direct", "verify"],
)
def test_benchmark_setup_child_runs(argv):
    # perfbench's setup_s times this snippet in a fresh interpreter: it
    # imports the CLI and parses the arguments and the config through
    # parse_config and the key tables; a set-up that fails voids the run
    proc = subprocess.run(
        [sys.executable, "-c", benchmark_setup_child(), str(PACKAGE_ROOT), *argv],
        cwd=PROJECT_ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("dt, T", [(5e-324, 1.0), (1e-300, 1e10)])
def test_non_finite_step_count_exit_code(tmp_path, outdir, capsys, dt, T):
    # every value is finite, but T/dt overflows to inf
    cfg = write_cfg(tmp_path / "d.cfg", dict(DIRECT_BASE, dt=dt, T=T))
    assert main(["direct", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: T/dt = inf is not a finite step count")
    assert "Traceback" not in err


def test_direct_step_cap_exit_code(tmp_path, outdir, monkeypatch, capsys):
    # admission control: 10^20 steps are rejected before any stepping
    def no_run(cfg):
        raise AssertionError("the run started")

    monkeypatch.setattr("quenchstage.cli.run_direct", no_run)
    cfg = write_cfg(tmp_path / "d.cfg", dict(DIRECT_BASE, dt=1e-300, T=1e-280))
    assert main(["direct", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: T/dt = 100000000000000000000 steps")
    assert "MAX_STEPS = 1000000" in err


def test_stagewise_step_cap_exit_code(tmp_path, outdir, monkeypatch, capsys):
    # admission control: a stage step cap above MAX_STEPS is rejected before
    # any stepping
    def no_run(cfg):
        raise AssertionError("the run started")

    monkeypatch.setattr("quenchstage.cli.run_stagewise", no_run)
    cfg = write_cfg(tmp_path / "s.cfg", dict(STAGE_BASE, step_cap=10 ** 12))
    assert main(["stagewise", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err == (
        "config error: step_cap = 1000000000000, above MAX_STEPS = 1000000\n"
    )


def test_overflowed_stage_record_exit_code(tmp_path, outdir):
    # the crossing step's penalty overflows before it is scaled by tau;
    # a subprocess, since the overflow warning is an error under pytest
    huge = dict(STAGE_BASE, **{"lambda": 1e300})
    cfg = write_cfg(tmp_path / "s.cfg", huge)
    proc = run_python("-m", "quenchstage", "stagewise", "--config", cfg)
    assert proc.returncode == 3, proc.stderr
    assert "numerical failure: stage 0: non-finite dissipation_sum" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (outdir / "ledger.json").exists()


def test_start_below_threshold_exit_code(tmp_path, outdir):
    # the stage-0 profile must start above k^(-2/3) for a trigger to exist
    low = dict(STAGE_BASE)
    low["u0_amplitude"] = 0.8
    cfg = write_cfg(tmp_path / "s.cfg", low)
    proc = run_python("-m", "quenchstage", "stagewise", "--config", cfg)
    assert proc.returncode == 2, proc.stderr
    assert "config error" in proc.stderr
    assert "min W = 0.373538" in proc.stderr
    assert "0.629961" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("A0", ["1e-300", "1e-250", "1e-150"])
def test_unrepresentable_amplitude_exit_code(
    tmp_path, outdir, monkeypatch, capsys, A0
):
    # A0^(3/2) underflows to 0 or h^2 overflows: no float grid exists
    def no_run(cfg):
        raise AssertionError("the run started")

    monkeypatch.setattr("quenchstage.cli.run_stagewise", no_run)
    tiny = dict(STAGE_BASE, A0=A0, N0=4)
    cfg = write_cfg(tmp_path / "s.cfg", tiny)
    assert main(["stagewise", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: A0 = ")
    assert "no representable grid" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, key, value, named",
    [
        ("stagewise", "max_stages", 9, "N = N0*k^8 = 2304"),
        ("direct", "N", 1153, "N = 1153"),
    ],
)
def test_grid_above_cap_exit_code(
    tmp_path, outdir, monkeypatch, capsys, command, key, value, named
):
    # admission control: the grid is rejected before any stepping
    def no_run(cfg):
        raise AssertionError("the run started")

    monkeypatch.setattr(f"quenchstage.cli.run_{command}", no_run)
    big = dict(STAGE_BASE if command == "stagewise" else DIRECT_BASE)
    big[key] = value
    cfg = write_cfg(tmp_path / "c.cfg", big)
    assert main([command, "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert named in err and "MAX_N = 1152" in err
    assert "Traceback" not in err


def test_transfer_below_threshold_exit_code(tmp_path, outdir):
    # stage 0 triggers, but the prolonged state starts below k^(-2/3)
    low = dict(STAGE_BASE)
    low.update({"lambda": 200.0, "u0_amplitude": 0.05, "N0": 3, "ds": 0.1})
    low["max_stages"] = 2
    cfg = write_cfg(tmp_path / "s.cfg", low)
    proc = run_python("-m", "quenchstage", "stagewise", "--config", cfg)
    assert proc.returncode == 3, proc.stderr
    assert "numerical failure" in proc.stderr
    assert "stage 1 starts at or below the trigger threshold" in proc.stderr
    assert "min W = 0.588583" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_transfer_undershoot_exit_code(tmp_path, outdir, capsys):
    # a small A0 and a strong coupling: the prolonged stage-1 state dips
    # below zero, far under k^(-2/3)
    cfg = write_cfg(
        tmp_path / "s.cfg",
        {"lambda": 400.0, "u0_amplitude": 0.01, "A0": 0.05, "k": 2, "N0": 3,
         "ds": 0.02, "max_stages": 2},
    )
    assert main(["stagewise", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith(
        "numerical failure: stage 1 starts at or below the trigger threshold: "
        "min W = -6.68701"
    )
    assert "Traceback" not in err


def test_undecodable_config_exit_code(tmp_path, outdir):
    path = tmp_path / "s.cfg"
    write_cfg(path, STAGE_BASE)
    path.write_bytes(path.read_bytes() + b"# \xff\n")
    proc = run_python("-m", "quenchstage", "stagewise", "--config", str(path))
    assert proc.returncode == 2, proc.stderr
    assert "config error" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "command, blocked", [("direct", "direct.json"), ("stagewise", "stages.csv")]
)
def test_unwritable_output_file_exit_code(tmp_path, outdir, command, blocked):
    # the run finishes, but a directory sits where its output file goes
    (outdir / blocked).mkdir(parents=True)
    base = STAGE_BASE if command == "stagewise" else DIRECT_BASE
    cfg = write_cfg(tmp_path / "c.cfg", base)
    proc = run_python("-m", "quenchstage", command, "--config", cfg)
    assert proc.returncode == 2, proc.stderr
    assert "config error: cannot write output file" in proc.stderr
    assert blocked in proc.stderr
    assert "Traceback" not in proc.stderr
    assert list(outdir.glob("*.tmp")) == []


def test_stale_temporary_file_exit_code(tmp_path, outdir, capsys):
    # the hidden sibling is created exclusively: one left by a killed run
    # stops the write, is named, and is left as it was
    stale = outdir / ".stages.csv.tmp"
    outdir.mkdir()
    stale.write_text("keep\n")
    cfg = write_cfg(tmp_path / "s.cfg", STAGE_BASE)
    assert main(["stagewise", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write output file")
    assert ".stages.csv.tmp" in err
    assert stale.read_text() == "keep\n"
    assert not (outdir / "stages.csv").exists()


def test_k_beyond_float_range_exit_code(tmp_path, outdir, capsys):
    cfg = write_cfg(tmp_path / "s.cfg", {**STAGE_BASE, "k": 10 ** 400})
    assert main(["stagewise", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: k is larger than the largest float")
    assert "Traceback" not in err


def test_internal_error_exit_code(tmp_path, outdir, monkeypatch, capsys):
    def broken(config_path):
        raise RuntimeError("injected fault")

    monkeypatch.setattr("quenchstage.cli.cmd_direct", broken)
    cfg = write_cfg(tmp_path / "d.cfg", DIRECT_BASE)
    assert main(["direct", "--config", cfg]) == EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError('injected fault')")
    assert "Traceback (most recent call last)" in err
    assert err.rstrip().endswith("RuntimeError: injected fault")


@pytest.mark.parametrize(
    "command, stale",
    [("stagewise", "stages.csv"), ("stagewise", "ledger.json"),
     ("stagewise", "manifest.json"), ("direct", "direct.json"),
     ("direct", "manifest.json")],
)
def test_stale_sibling_stops_the_run_before_it_starts(
    tmp_path, outdir, monkeypatch, capsys, command, stale
):
    # the sibling of any file the command writes is found before the run:
    # no stage or step runs, and the message and exit code are those of the
    # write that the sibling would stop
    runs = []
    for name in ("run_stagewise", "run_direct"):
        monkeypatch.setattr(f"quenchstage.cli.{name}", lambda cfg: runs.append(cfg))
    outdir.mkdir()
    sibling = outdir / f".{stale}.tmp"
    sibling.write_text("keep\n")
    base = STAGE_BASE if command == "stagewise" else DIRECT_BASE
    cfg = write_cfg(tmp_path / "c.cfg", base)
    assert main([command, "--config", cfg]) == 2
    assert runs == []
    with pytest.raises(ConfigError) as write:
        quenchstage.cli._write_atomic(outdir / stale, "text\n")
    assert capsys.readouterr().err == f"config error: {write.value}\n"
    assert str(write.value) == (
        f"cannot write output file {outdir / stale}: "
        f"[Errno 17] File exists: '{sibling}'"
    )
    assert sibling.read_text() == "keep\n"
    assert sorted(p.name for p in outdir.iterdir()) == [sibling.name]


@pytest.mark.parametrize("command", ["stagewise", "direct"])
def test_checked_siblings_are_the_written_files(tmp_path, outdir, command):
    # the names checked before the run are the files the run writes, in order
    base = STAGE_BASE if command == "stagewise" else DIRECT_BASE
    cfg = write_cfg(tmp_path / "c.cfg", base)
    assert main([command, "--config", cfg]) == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    names = {"stagewise": quenchstage.cli.STAGEWISE_FILES,
             "direct": quenchstage.cli.DIRECT_FILES}[command]
    assert tuple(manifest["outputs"]) == names
