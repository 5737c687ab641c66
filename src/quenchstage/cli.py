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
exit 1.  A numerical failure inside `verify all` first prints the report of
the suites that completed, marked failed.  An unknown suite name is an
argparse usage error, so main raises SystemExit(2), as for any other bad
argument.  Any other exception is an internal error: main prints "internal
error:" and the traceback to stderr and exits 4.

Both run commands take one path: _load parses the config and builds the run
config from it, the output directory named by QUENCHSTAGE_OUT (default:
current directory) is created, the run runs, and _emit takes the run's
{file name: text}.  It writes each data file in order through a hidden
sibling .<name>.tmp, created exclusively and renamed over the file, hashes
the bytes it wrote, writes manifest.json with those sha256 digests and prints
"wrote ... to <dir>".  The digests come from CPython's built-in SHA-256
module: hashlib would load OpenSSL's libcrypto, about 3.4 MiB of peak RSS,
for a few KB of data.  No command loads it: verify draws its data from
random.Random, as numpy.random loads OpenSSL through secrets.  A path that
cannot be a directory, or an output file that cannot be written, is a
configuration error; a failed write removes its temporary sibling.  A
sibling that already exists (a killed run leaves one) would stop the write,
so it is reported, with the same message, before the run starts.  So is a
data file of the other run command in the output directory: this run's
manifest.json would replace the one that holds that file's digest.  Files get
the mode the umask allows.  Every numeric cell is printed with 13
significant digits, so re-running a command with the same config produces
byte-identical data files.  The manifest carries the timestamp, the
convention flags and the numpy, BLAS and thread settings that the products'
last bits depend on; data files carry none of them.
"""

from __future__ import annotations

import argparse
import datetime
import errno
import json
import math
import os
import sys
import traceback
from dataclasses import asdict, fields
from pathlib import Path
from typing import get_type_hints

try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:  # an interpreter built without its own hashes
        from hashlib import sha256

import numpy as np

from . import __version__
from .drivers import (
    DirectConfig,
    NumericalError,
    RunReport,
    StagewiseConfig,
    config_key,
    run_direct,
    run_stagewise,
)
from .stepper import BUTTERFLY_MIN_N, PICARD_TOL, SEED_ORDER, STOP_MARGIN
from .verify import SUITES, SuiteError, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INTERNAL = 4


def _config_keys(config: type) -> dict[str, type]:
    """Config keys and value types of a run config, in field order: its
    fields and annotations, each field under its config_key."""
    hints = get_type_hints(config)
    return {config_key(f.name): hints[f.name] for f in fields(config)}


STAGEWISE_KEYS = _config_keys(StagewiseConfig)
STAGEWISE_OPTIONAL = {"step_cap": STAGEWISE_KEYS.pop("step_cap")}
DIRECT_KEYS = _config_keys(DirectConfig)

CONVENTIONS = {
    "picard_seed": f"degree-{SEED_ORDER} extrapolation of the last "
    f"{SEED_ORDER + 1} accepted sources f(Y) of the stage or direct run, the "
    "source the first Picard sweep solves with (lower degree while fewer "
    "exist)",
    "nonlocal_term": "K of the full iterate, recomputed each Picard sweep; "
    "the mirror-weighted sum over the quarter",
    "picard_stop": "once ds * max|f(Y) - F|, with F the source the sweep "
    "solved with, a bound on the next sweep's move by the maximum principle "
    "(||L^-1|| <= ds), is below "
    f"{STOP_MARGIN:g} * {PICARD_TOL:g} * max|Y|",
    "linear_solve": "sine-basis diagonalization, four dense products; on "
    f"mirror-folded stages with N % 4 == 0 and N >= {BUTTERFLY_MIN_N} a "
    "butterfly pairs odd mode j with N - j, half the flops, equal to round-off",
    "event_energies": "evaluated at the linearly interpolated trigger state",
    "scaled_duration": "completed steps plus trigger fraction, times ds",
    "transfer_boundary": "fine boundary ring pinned to 1/A_to",
    "stencil_fill": "out-of-domain stencil entries take 1/A_from",
}


# the BLAS/OpenMP thread variables the manifest records
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# the data files each run command writes, in order; manifest.json follows
STAGEWISE_FILES = ("stages.csv", "feedback.csv", "transitions.csv", "ledger.json")
DIRECT_FILES = ("direct.json",)


class ConfigError(Exception):
    pass


def _lower_keys(record: dict) -> dict:
    """Output keys are the record's field names in lower case, in order."""
    return {key.lower(): value for key, value in record.items()}


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


def _sibling(path: Path) -> Path:
    """The hidden sibling .<name>.tmp that a write of path goes through."""
    return path.with_name(f".{path.name}.tmp")


def _unwritable(path: Path, exc: OSError) -> ConfigError:
    return ConfigError(f"cannot write output file {path}: {exc}")


def _check_siblings(outdir: Path, names: tuple[str, ...]) -> None:
    """Raise before a run what its write would raise after it: the error
    for the first of names, then manifest.json, whose sibling exists."""
    for name in (*names, "manifest.json"):
        tmp = _sibling(outdir / name)
        if os.path.lexists(tmp):
            exc = FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), str(tmp))
            raise _unwritable(outdir / name, exc)


def _check_foreign_outputs(outdir: Path, others: tuple[str, ...]) -> None:
    """Raise before a run if outdir holds a data file of the other run
    command, others: the manifest this run writes would replace the one that
    holds that file's digest."""
    for name in others:
        if os.path.lexists(outdir / name):
            raise ConfigError(
                f"output directory {outdir} holds {name}, a data file of "
                "another command; its manifest.json would be replaced"
            )


def _write_atomic(path: Path, text: str) -> bytes:
    """Write text to path through the hidden sibling .<name>.tmp, created
    exclusively and renamed over path; return the bytes written."""
    data = text.encode()
    tmp = _sibling(path)
    try:
        handle = open(tmp, "xb")
        try:
            with handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink()
            raise
    except OSError as exc:
        raise _unwritable(path, exc) from exc
    return data


def _json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _csv(header: str, rows: list[tuple]) -> str:
    """Header line, then one line per row: ints as-is, floats with 13
    significant digits."""
    lines = [header]
    for row in rows:
        lines.append(
            ",".join(str(x) if isinstance(x, int) else f"{x:.12e}" for x in row)
        )
    return "\n".join(lines) + "\n"


def _stagewise_files(report: RunReport) -> dict[str, str]:
    """The texts of STAGEWISE_FILES, in that order."""
    records = report.records
    stages = _csv(
        "stage_m,a_m,n_m,h_m,a_m2h_m2,scaled_time,min_w_m,"
        "accumulated_time,e_start,e_end",
        [(r.m, r.A, r.N, r.h, r.A2h2, r.scaled_time, r.min_W,
          r.accumulated_time, r.E_start, r.E_end) for r in records],
    )
    feedback = _csv(
        "stage_m,k_start,k_end,lambda_k_start_inv2,lambda_k_end_inv2",
        [(r.m, r.K_start, r.K_end, r.coeff_start, r.coeff_end) for r in records],
    )
    transitions = _csv(
        "m_from,m_to,e_end,e_id,e_start,delta_sw,eps_sw",
        [(t.m_from, t.m_to, t.E_end, t.E_id, t.E_start, t.delta_sw, t.eps_sw)
         for t in report.transitions],
    )
    ledger = _json({
        "e0": report.E0,
        "d_star": report.ledger.D_star,
        "rows": [asdict(r) for r in report.ledger.rows],
        "stages": [asdict(r) for r in records],
        "areas": report.areas,
        "continuation": _lower_keys(asdict(report.continuation)),
        "manifest": "manifest.json",
    })
    return dict(zip(STAGEWISE_FILES, (stages, feedback, transitions, ledger)))


def _load(
    path: str, config: type, required: dict, optional: dict | None = None
) -> tuple[dict, object]:
    """The values of a config file and the run config built from them (each
    key is the field whose config_key it is), with a value the run config
    rejects reported as a ConfigError."""
    values = parse_config(path, required, optional)
    field_of = {config_key(f.name): f.name for f in fields(config)}
    try:
        return values, config(**{field_of[key]: v for key, v in values.items()})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _linear_algebra() -> dict:
    """numpy's version, BLAS (None where numpy does not report it) and
    thread variables, on which the products' last bits depend."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    return {"numpy": np.__version__, "blas": blas,
            "threads": {var: os.environ.get(var) for var in THREAD_VARS}}


def _emit(outdir: Path, command: str, values: dict, files: dict[str, str]) -> None:
    """Write the data files in order, then the manifest with the sha256 of
    the bytes each write put on disk, and report them on stdout."""
    outputs = {name: sha256(_write_atomic(outdir / name, text)).hexdigest()
               for name, text in files.items()}
    _write_atomic(outdir / "manifest.json", _json({
        "command": command,
        "config": values,
        "version": __version__,
        "conventions": CONVENTIONS,
        "linear_algebra": _linear_algebra(),
        "outputs": outputs,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }))
    print(f"wrote {', '.join(files)} to {outdir}")


def cmd_stagewise(config_path: str) -> int:
    values, cfg = _load(
        config_path, StagewiseConfig, STAGEWISE_KEYS, STAGEWISE_OPTIONAL
    )
    outdir = _outdir()
    _check_foreign_outputs(outdir, DIRECT_FILES)
    _check_siblings(outdir, STAGEWISE_FILES)
    _emit(outdir, "stagewise", values, _stagewise_files(run_stagewise(cfg)))
    return EXIT_OK


def cmd_direct(config_path: str) -> int:
    values, cfg = _load(config_path, DirectConfig, DIRECT_KEYS)
    outdir = _outdir()
    _check_foreign_outputs(outdir, STAGEWISE_FILES)
    _check_siblings(outdir, DIRECT_FILES)
    direct = _json(_lower_keys(asdict(run_direct(cfg))))
    _emit(outdir, "direct", values, dict(zip(DIRECT_FILES, (direct,))))
    return EXIT_OK


def _report(suite: str, passed: bool, checks: list) -> None:
    payload = {
        "suite": suite,
        "passed": passed,
        "checks": [asdict(c) for c in checks],
    }
    print(json.dumps(payload, indent=2))


def cmd_verify(suite: str) -> int:
    try:
        checks = run_suite(suite)
    except SuiteError as exc:
        # report the checks that completed as a failed run, then exit 3
        if exc.checks:
            _report(suite, False, exc.checks)
        raise
    all_passed = all(c.passed for c in checks)
    _report(suite, all_passed, checks)
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
