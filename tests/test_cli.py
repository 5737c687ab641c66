"""Config parsing, exit codes, file formats, and determinism of the CLI."""

import json
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import quenchstage
from quenchstage.cli import (
    ConfigError,
    DIRECT_KEYS,
    STAGEWISE_KEYS,
    STAGEWISE_OPTIONAL,
    main,
    parse_config,
)

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

    def test_line_without_equals(self, tmp_path):
        cfg = write_cfg(tmp_path / "a.cfg", DIRECT_BASE, ["just words"])
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config(cfg, DIRECT_KEYS)

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

    def test_manifest_hashes(self, tmp_path, outdir):
        import hashlib

        cfg = write_cfg(tmp_path / "s.cfg", STAGE_BASE)
        main(["stagewise", "--config", cfg])
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["command"] == "stagewise"
        assert manifest["config"]["N0"] == 9
        assert "picard_seed" in manifest["conventions"]
        for name, digest in manifest["outputs"].items():
            actual = hashlib.sha256((outdir / name).read_bytes()).hexdigest()
            assert digest == actual

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

    def test_numerical_failure_exit_code(self, tmp_path, outdir):
        # source-free stage never triggers; the step cap aborts the run
        runaway = dict(STAGE_BASE)
        runaway["lambda"] = 0.0
        runaway["step_cap"] = 50
        cfg = write_cfg(tmp_path / "s.cfg", runaway)
        assert main(["stagewise", "--config", cfg]) == 3


class TestDirectCommand:
    def test_reference_values(self, tmp_path, outdir):
        cfg = write_cfg(tmp_path / "d.cfg", DIRECT_BASE)
        assert main(["direct", "--config", cfg]) == 0
        data = json.loads((outdir / "direct.json").read_text())
        assert data["e_start"] == pytest.approx(7.545273587988, rel=1e-6)
        assert data["e_end"] == pytest.approx(7.456582304139, rel=1e-6)
        assert data["min_v"] == pytest.approx(0.362574574560, rel=1e-6)
        assert data["max_u"] == pytest.approx(1.0 - data["min_v"], rel=1e-14)

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
def test_output_file_modes_follow_umask(tmp_path, outdir, umask):
    stage_cfg = write_cfg(tmp_path / "s.cfg", STAGE_BASE)
    direct_cfg = write_cfg(tmp_path / "d.cfg", DIRECT_BASE)
    old = os.umask(umask)
    try:
        assert main(["stagewise", "--config", stage_cfg]) == 0
        assert main(["direct", "--config", direct_cfg]) == 0
    finally:
        os.umask(old)
    written = sorted(outdir.iterdir())
    assert [f.name for f in written] == [
        "direct.json", "feedback.csv", "ledger.json", "manifest.json",
        "stages.csv", "transitions.csv",
    ]
    for f in written:
        assert stat.S_IMODE(f.stat().st_mode) == 0o666 & ~umask, f.name


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

    def test_unknown_suite_exit_code(self, capsys):
        assert main(["verify", "spectral"]) == 2


# the directory holding the quenchstage package, for fresh interpreters
PACKAGE_ROOT = Path(quenchstage.__file__).resolve().parents[1]
PROJECT_ROOT = Path(__file__).resolve().parents[1]


def run_python(*args):
    env = dict(os.environ)
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
