"""Command-line interface and deterministic file emission.

Three subcommands:

  quenchstage stagewise --config <path>   full stagewise run; writes
      stages.csv, feedback.csv, transitions.csv, ledger.json, manifest.json
  quenchstage direct --config <path>      fixed-domain run; writes
      direct.json, manifest.json
  quenchstage verify <suite>              property suites; JSON report on
      stdout

Configs are flat key = value text files carrying exactly the documented
keys; an unreadable or non-UTF-8 file, unknown or missing keys, non-finite
numbers and values the run configs reject (among them an A0 without a
representable float grid and a grid above MAX_N intervals) are configuration
errors (exit 2).  Numerical failures, a stage that starts at or below its
trigger threshold after a transfer among them, exit 3; failed verify suites
exit 1.  An unknown suite name is an argparse usage error, so main raises
SystemExit(2), as for any other bad argument.  Any other exception is an
internal error: main prints "internal error:" and the traceback to stderr and
exits 4.

Output goes to the directory named by QUENCHSTAGE_OUT (default: current
directory), created before the run starts; a path that cannot be a
directory, or an output file that cannot be written, is a configuration
error.  Every numeric cell is printed with 13 significant digits and files
are written atomically (temp file + rename) with the mode the umask allows,
so re-running a command with the same config produces byte-identical data
files.  The manifest carries the timestamp and the convention flags; data
files carry neither.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import sys
import tempfile
import traceback
from collections.abc import Iterable
from dataclasses import asdict, fields
from pathlib import Path
from typing import get_type_hints

from . import __version__
from .drivers import (
    DirectConfig,
    NumericalError,
    RunReport,
    StagewiseConfig,
    run_direct,
    run_stagewise,
)
from .stepper import PICARD_TOL, SEED_ORDER, STOP_MARGIN
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INTERNAL = 4


def _config_keys(config: type) -> dict[str, type]:
    """Config keys and value types of a run config, in field order: its
    fields and annotations, with the `lam` field spelled `lambda`."""
    hints = get_type_hints(config)
    return {
        ("lambda" if f.name == "lam" else f.name): hints[f.name]
        for f in fields(config)
    }


STAGEWISE_KEYS = _config_keys(StagewiseConfig)
STAGEWISE_OPTIONAL = {"step_cap": STAGEWISE_KEYS.pop("step_cap")}
DIRECT_KEYS = _config_keys(DirectConfig)

CONVENTIONS = {
    "picard_seed": f"degree-{SEED_ORDER} extrapolation through the last "
    f"{SEED_ORDER + 1} accepted states of the stage or direct run (lower "
    "degree while fewer exist)",
    "nonlocal_term": "recomputed from the full iterate each Picard sweep",
    "picard_stop": "once ds * max|f(Y) - f(Y_prev)|, a bound on the next "
    "sweep's move by the maximum principle (||L^-1|| <= ds), is below "
    f"{STOP_MARGIN:g} * {PICARD_TOL:g} * max(1, max|Y|)",
    "event_energies": "evaluated at the linearly interpolated trigger state",
    "scaled_duration": "completed steps plus trigger fraction, times ds",
    "transfer_boundary": "fine boundary ring pinned to 1/A_to",
    "stencil_fill": "out-of-domain stencil entries take 1/A_from",
}


class ConfigError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def _lower_keys(record: dict) -> dict:
    """Output keys are the record's field names in lower case, in order."""
    return {key.lower(): value for key, value in record.items()}


def _fields(values: dict) -> dict:
    """Config values keyed by run-config field: the `lambda` key is `lam`."""
    return {("lam" if key == "lambda" else key): v for key, v in values.items()}


def parse_config(
    path: str, required: dict[str, type], optional: dict[str, type] | None = None
) -> dict:
    optional = optional or {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
        if key in required:
            typ = required[key]
        elif key in optional:
            typ = optional[key]
        else:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        try:
            values[key] = typ(val)
        except ValueError as exc:
            raise ConfigError(
                f"{path}:{lineno}: bad value for '{key}': {val!r}"
            ) from exc
        if typ is float and not math.isfinite(values[key]):
            raise ConfigError(
                f"{path}:{lineno}: non-finite value for '{key}': {val!r}"
            )
    for key in required:
        if key not in values:
            raise ConfigError(f"{path}: missing key '{key}'")
    return values


def _outdir() -> Path:
    out = Path(os.environ.get("QUENCHSTAGE_OUT", "."))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {out}: {exc}") from exc
    return out


def _write_atomic(path: Path, text: str) -> None:
    try:
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            # mkstemp creates the file 0600; give it what open() would have.
            # os.umask can only be read by setting it; the CLI runs one thread.
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write output file {path}: {exc}") from exc


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(outdir: Path, command: str, config: dict, files: list[Path]) -> None:
    manifest = {
        "command": command,
        "config": config,
        "version": __version__,
        "conventions": CONVENTIONS,
        "outputs": {f.name: _sha256(f) for f in files},
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    _write_atomic(outdir / "manifest.json", json.dumps(manifest, indent=2) + "\n")


def _write_csv(path: Path, header: str, rows: Iterable[tuple]) -> None:
    """Header line, then one line per row: ints as-is, floats through _fmt."""
    lines = [header]
    for row in rows:
        lines.append(
            ",".join(str(x) if isinstance(x, int) else _fmt(x) for x in row)
        )
    _write_atomic(path, "\n".join(lines) + "\n")


def _stagewise_files(report: RunReport, outdir: Path) -> list[Path]:
    stages = outdir / "stages.csv"
    _write_csv(
        stages,
        "stage_m,a_m,n_m,h_m,a_m2h_m2,scaled_time,min_w_m,"
        "accumulated_time,e_start,e_end",
        (
            (r.m, r.A, r.N, r.h, r.A2h2, r.scaled_time, r.min_W,
             r.accumulated_time, r.E_start, r.E_end)
            for r in report.records
        ),
    )
    fb = outdir / "feedback.csv"
    _write_csv(
        fb,
        "stage_m,k_start,k_end,lambda_k_start_inv2,lambda_k_end_inv2",
        (
            (r.m, r.K_start, r.K_end, r.coeff_start, r.coeff_end)
            for r in report.records
        ),
    )
    tr = outdir / "transitions.csv"
    _write_csv(
        tr,
        "m_from,m_to,e_end,e_id,e_start,delta_sw,eps_sw",
        (
            (t.m_from, t.m_to, t.E_end, t.E_id, t.E_start, t.delta_sw, t.eps_sw)
            for t in report.transitions
        ),
    )

    ledger = outdir / "ledger.json"
    payload = {
        "e0": report.E0,
        "d_star": report.ledger.D_star,
        "rows": [asdict(r) for r in report.ledger.rows],
        "stages": [asdict(r) for r in report.records],
        "areas": report.areas,
        "continuation": _lower_keys(asdict(report.continuation)),
        "manifest": "manifest.json",
    }
    _write_atomic(ledger, json.dumps(payload, indent=2) + "\n")
    return [stages, fb, tr, ledger]


def cmd_stagewise(config_path: str) -> int:
    values = parse_config(config_path, STAGEWISE_KEYS, STAGEWISE_OPTIONAL)
    try:
        cfg = StagewiseConfig(**_fields(values))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    outdir = _outdir()
    report = run_stagewise(cfg)
    files = _stagewise_files(report, outdir)
    _write_manifest(outdir, "stagewise", values, files)
    print(f"wrote {', '.join(f.name for f in files)} to {outdir}")
    return EXIT_OK


def cmd_direct(config_path: str) -> int:
    values = parse_config(config_path, DIRECT_KEYS)
    try:
        cfg = DirectConfig(**_fields(values))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    outdir = _outdir()
    report = run_direct(cfg)
    payload = _lower_keys(asdict(report))
    path = outdir / "direct.json"
    _write_atomic(path, json.dumps(payload, indent=2) + "\n")
    _write_manifest(outdir, "direct", values, [path])
    print(f"wrote {path.name} to {outdir}")
    return EXIT_OK


def cmd_verify(suite: str) -> int:
    checks = run_suite(suite)
    all_passed = all(c.passed for c in checks)
    payload = {
        "suite": suite,
        "passed": all_passed,
        "checks": [asdict(c) for c in checks],
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK if all_passed else EXIT_VERIFY_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quenchstage",
        description="stagewise-rescaled solver and diagnostics for the "
        "2D nonlocal MEMS deficit equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_stage = sub.add_parser("stagewise", help="run the full stagewise evolution")
    p_stage.add_argument("--config", required=True, help="key = value config file")
    p_direct = sub.add_parser("direct", help="run the fixed-domain check")
    p_direct.add_argument("--config", required=True, help="key = value config file")
    p_verify = sub.add_parser("verify", help="run a property suite")
    p_verify.add_argument("suite", choices=[*SUITES, "all"], help="suite to run")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "stagewise":
            return cmd_stagewise(args.config)
        if args.command == "direct":
            return cmd_direct(args.config)
        return cmd_verify(args.suite)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
