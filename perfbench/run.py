"""quenchstage benchmark: four CLI workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stagewise-ref --seed 1 --seconds 10 --trace 0

Every command goes through the public entry point ``quenchstage.cli.main``
from ``src/`` (nothing is installed), one command at a time: a closed loop
with one client and no added threads.

``--trace 0`` reports the end-to-end metrics:

  run_s         median wall time of one command in a warm process; data
                files go to a fresh directory under perfbench/_work
  setup_s       median wall time of a fresh interpreter that imports
                quenchstage.cli and parses the workload's arguments and config

  peak_rss_mib  peak RSS of a fresh child that runs the command once (wait4)
  ok_frac       commands that passed every check / commands attempted

run_s is given in seconds of a reference host.  While a command runs, a
SIGALRM handler in this thread times host_probe() every SAMPLE_INTERVAL_S;
each command's time, less the handler's, is scaled by PROBE_REF_S over the
median probe time during that command, which cancels most of the drift in
speed of a shared machine.  The report has the raw values.

``--trace 1`` runs the command untraced and then traced (see spans.py) and
reports the per-layer metrics, the tracing overhead and the time no layer
accounts for.

A command fails if it exits nonzero, if a numeric cell of its data files is
more than 1e-6 relative from reference.json, if ``verify all`` does not
report ``"passed": true``, or if its data files (manifest excluded) differ in
any byte from the first command of the run.  The workloads are the paper's
fixed reference runs, so their inputs do not depend on ``--seed``; the seed
only names the run's work directory.

The last line of stdout is the result object; the lines before it are a
report with quartiles, sample counts, host, per-stage counts against the
seed commit and every traced span group.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"

SETUP_SAMPLES = 7
# host_probe() time on the reference host (2-vCPU x86-64 VM, Python 3.11.7);
# times are scaled by PROBE_REF_S / (median probe during the command), see README
PROBE_REF_S = 0.000210
PROBE_ITERATIONS = 2000
PROBE_NUMPY_CALLS = 50
PROBE_ARRAY_SIZE = 64
SAMPLE_INTERVAL_S = 0.01
RTOL = 1e-6
CHILD_TIMEOUT_S = 170.0

# name -> (CLI command, config file, max_stages override)
WORKLOADS = {
    "stagewise-ref": ("stagewise", "stagewise.cfg", None),
    "stagewise-deep": ("stagewise", "stagewise.cfg", 6),
    "direct-ref": ("direct", "direct.cfg", None),
    "verify-all": ("verify", None, None),
}
# cheap commands run before the first timed one, so first-call costs go untimed
WARMUP = (("stagewise", "stagewise.cfg", 2), ("direct", "direct.cfg", None))

# deterministic counts recorded at the seed commit (ROADMAP item 1 table)
SEED_STEPS = (139, 129, 182, 165, 149, 136)
SEED_SWEEPS = (747, 678, 904, 788, 692, 617)


def _stage_counts(stages: int) -> dict[str, int]:
    steps = {f"drivers.steps.{m}": SEED_STEPS[m] for m in range(stages)}
    return steps | {f"drivers.sweeps.{m}": SEED_SWEEPS[m] for m in range(stages)}


SEED_COUNTS = {
    "stagewise-ref": {"stepper.steps": 619, "stepper.solves": 3117, **_stage_counts(4)},
    "stagewise-deep": {"stepper.steps": 906, "stepper.solves": 4426, **_stage_counts(6)},
    "direct-ref": {"stepper.steps": 160, "stepper.solves": 952},
    "verify-all": {"stepper.factor_calls": 70, "stepper.oracle_calls": 80},
}

THREAD_ENV = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# fresh interpreter: import the CLI and parse the arguments and config
SETUP_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from quenchstage import cli
args = cli.build_parser().parse_args(sys.argv[2:])
if getattr(args, "config", None):
    keys = {"stagewise": (cli.STAGEWISE_KEYS, cli.STAGEWISE_OPTIONAL),
            "direct": (cli.DIRECT_KEYS,)}[args.command]
    cli.parse_config(args.config, *keys)
"""

# fresh interpreter: run one command
COMMAND_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
from quenchstage.cli import main
sys.exit(main(sys.argv[2:]))
"""


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, broken set-up)."""


def quartiles(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "p25": q[0], "p75": q[2],
            "min": min(values), "max": max(values), "n": len(values)}


def write_config(workdir: Path, config: str, max_stages: int | None) -> Path:
    text = (CONFIGS / config).read_text()
    if max_stages is not None:
        text, n = re.subn(r"(?m)^max_stages\s*=.*$", f"max_stages = {max_stages}", text)
        if n != 1:
            raise BenchError(f"configs/{config} has no single max_stages line")
    path = workdir / f"{Path(config).stem}-{max_stages or 'as-shipped'}.cfg"
    path.write_text(text)
    return path


def command_argv(workdir: Path, spec) -> list[str]:
    command, config, max_stages = spec
    if config is None:
        return [command, "all"]
    return [command, "--config", str(write_config(workdir, config, max_stages))]


class Gate:
    """Correctness checks for every command of one workload run."""

    def __init__(self, workload: str, reference: dict):
        self.command = WORKLOADS[workload][0]
        self.reference = reference.get(workload, {})
        self.first: dict[str, bytes] | None = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _compare_csv(self, name: str, text: str, want: list) -> list[str]:
        rows = list(csv.reader(io.StringIO(text)))[1:]
        if len(rows) != len(want):
            return [f"{name}: {len(rows)} rows, expected {len(want)}"]
        errs = []
        for i, (row, ref) in enumerate(zip(rows, want)):
            if len(row) != len(ref):
                errs.append(f"{name} row {i}: {len(row)} cells, expected {len(ref)}")
                continue
            for j, (cell, w) in enumerate(zip(row, ref)):
                try:
                    got = float(cell)
                except ValueError:
                    errs.append(f"{name} row {i} col {j}: {cell!r} is not a number")
                    continue
                if abs(got - w) > RTOL * abs(w):
                    errs.append(f"{name} row {i} col {j}: {got!r} vs reference {w!r}")
        return errs

    def check(self, rc, outdir: Path, stdout: str) -> list[str]:
        errs = [] if rc == 0 else [f"exit status {rc}"]
        files = sorted(p for p in outdir.iterdir() if p.is_file()) if outdir.is_dir() else []
        data = {p.name: p.read_bytes() for p in files if p.name != "manifest.json"}
        if self.command == "verify":
            data["stdout"] = stdout.encode()
            try:
                passed = json.loads(stdout).get("passed")
            except (ValueError, AttributeError):
                passed = None
            if passed is not True:
                errs.append(f"verify reported passed={passed!r}")
        for name, want in self.reference.items():
            if name not in data:
                errs.append(f"{name} not written")
            elif isinstance(want, list):
                errs += self._compare_csv(name, data[name].decode(), want)
            else:
                try:
                    got = dict(json.loads(data[name]))
                except (ValueError, TypeError):
                    got = {}
                for key, w in want.items():
                    if not isinstance(got.get(key), (int, float)):
                        errs.append(f"{name}: {key} missing")
                    elif abs(got[key] - w) > RTOL * abs(w):
                        errs.append(f"{name}: {key} {got[key]!r} vs reference {w!r}")
        if not errs:
            if self.first is None:
                self.first = data
            elif data != self.first:
                errs.append("data files differ in bytes from the first command of the run")
        self.attempted += 1
        if errs:
            self.failed += 1
            self.errors.extend(errs)
            del self.errors[10:]
        return errs


def host_probe(small) -> float:
    """Wall time of a fixed interpreter loop and a fixed run of numpy calls
    on the small array `small`: the two kinds of work the workloads' Python
    layers do."""
    t0 = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i
    for _ in range(PROBE_NUMPY_CALLS):
        small * 2.0
    return time.perf_counter() - t0


class Sampler:
    """Times host_probe() every SAMPLE_INTERVAL_S of wall time while a
    command runs, from a SIGALRM handler in this thread, so the probes see
    the host at the same moments as the command.  The caller takes the
    probe times off the command's time."""

    def __init__(self) -> None:
        import numpy

        self.small = numpy.ones(PROBE_ARRAY_SIZE)
        self.samples: list[float] = []
        self.previous = None

    def _tick(self, signum, frame) -> None:
        self.samples.append(host_probe(self.small))

    def __enter__(self) -> "Sampler":
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)


class Runner:
    """Runs one workload's command, checked, in this process or in children."""

    def __init__(self, workload: str, workdir: Path, reference: dict):
        self.workload = workload
        self.workdir = workdir
        self.argv = command_argv(workdir, WORKLOADS[workload])
        self.gate = Gate(workload, reference)
        self.main = None
        self.count = 0

    def _outdir(self) -> Path:
        self.count += 1
        return self.workdir / f"cmd-{self.count}"

    def setup_sample(self) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), *self.argv],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S, check=False,
        )
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        return elapsed

    def child_command(self) -> float:
        """Run the command once in a fresh child; return its peak RSS in MiB."""
        outdir = self._outdir()
        outdir.mkdir()
        stdout_path = self.workdir / f"stdout-{self.count}.txt"
        env = dict(os.environ, QUENCHSTAGE_OUT=str(outdir))
        with open(stdout_path, "w") as stdout:
            proc = subprocess.Popen(
                [sys.executable, "-c", COMMAND_CHILD, str(SRC), *self.argv],
                stdout=stdout, env=env,
            )
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.gate.check(proc.returncode, outdir, stdout_path.read_text())
        shutil.rmtree(outdir)
        stdout_path.unlink()
        return usage.ru_maxrss / 1024.0  # KiB on Linux

    def load(self) -> None:
        sys.path.insert(0, str(SRC))
        from quenchstage.cli import main

        self.main = main
        for spec in WARMUP:
            outdir = self._outdir()
            os.environ["QUENCHSTAGE_OUT"] = str(outdir)
            # a broken program shows up in the checked commands, not here
            with contextlib.suppress(Exception, SystemExit):
                with contextlib.redirect_stdout(io.StringIO()):
                    self.main(command_argv(self.workdir, spec))
            shutil.rmtree(outdir, ignore_errors=True)

    def command(self, tracer=None) -> tuple[float, list[float]]:
        """Run the command once in this process; return its wall time less
        the sampler's, and the probe times taken while it ran."""
        outdir = self._outdir()
        os.environ["QUENCHSTAGE_OUT"] = str(outdir)
        sink = io.StringIO()
        call = self.main
        if tracer is not None:
            tracer.reset()
            sink.write = tracer.wrap("cli.stdout", sink.write)
            call = functools.partial(tracer.call, self.main)
        with Sampler() as sampler:
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink):
                    rc = call(list(self.argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a crashing command is a failed command
                rc = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0 - sum(sampler.samples)
        self.gate.check(rc, outdir, sink.getvalue())
        shutil.rmtree(outdir, ignore_errors=True)
        return elapsed, sampler.samples

    def loop(self, seconds: float, tracer=None) -> dict:
        """Run the command for `seconds`, at least once; return the raw and
        scaled times, the traced layers and every probe time."""
        raw, probes, layers = [], [], []
        start = time.perf_counter()
        while not raw or time.perf_counter() - start < seconds:
            elapsed, samples = self.command(tracer)
            raw.append(elapsed)
            probes.append(samples)
            if tracer is not None:
                layers.append(tracer.metrics())
        pooled = [p for samples in probes for p in samples]
        if not pooled:
            raise BenchError("no host probe ran during the timed commands")
        # a command too short to be sampled is scaled by the run's median probe
        scaled = [
            t * PROBE_REF_S / statistics.median(samples or pooled)
            for t, samples in zip(raw, probes)
        ]
        return {"raw": raw, "scaled": scaled, "layers": layers,
                "probes": pooled, "probes_per_command": [len(s) for s in probes]}


def host_info() -> dict:
    import numpy
    import scipy

    threads = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "threads_in_process": threads,
    }


def end_to_end(runner: Runner, seconds: float, report: dict) -> dict:
    setup = [runner.setup_sample() for _ in range(SETUP_SAMPLES)]
    rss = runner.child_command()
    runner.load()
    run = runner.loop(seconds)
    gate = runner.gate
    report.update(
        run_s=quartiles(run["scaled"]), wall_run_s=quartiles(run["raw"]),
        setup_s=quartiles(setup),
        run_samples=run["raw"], probes_per_command=run["probes_per_command"],
        probe_s=quartiles(run["probes"]), peak_rss_mib=rss,
    )
    return {
        "run_s": statistics.median(run["scaled"]),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": rss,
        "ok_frac": (gate.attempted - gate.failed) / gate.attempted,
    }


def per_layer(runner: Runner, seconds: float, report: dict) -> tuple[dict, bool]:
    from spans import Tracer

    runner.load()
    plain = runner.loop(seconds / 2)
    with Tracer() as tracer:
        traced = runner.loop(seconds / 2, tracer)
    layers = traced["layers"]
    # every per-layer number is the median over the traced commands; counts
    # repeat exactly, and median_low keeps them whole numbers
    full = {
        k: (statistics.median_low if isinstance(layers[0][k], int) else statistics.median)(
            [m[k] for m in layers]
        )
        for k in layers[0]
    }
    expected = SEED_COUNTS[runner.workload]
    off_seed = {k: full.get(k, 0) - v for k, v in expected.items() if full.get(k, 0) != v}
    full["drivers.counts_off_seed"] = len(off_seed)
    full["trace.absent_targets"] = len(tracer.absent)
    # both halves in reference-host seconds, so host drift between them cancels
    full["trace.overhead_s"] = (
        statistics.median(traced["scaled"]) - statistics.median(plain["scaled"])
    )
    report.update(
        untraced_run_s=quartiles(plain["scaled"]),
        traced_run_s=quartiles(traced["scaled"]),
        counts_vs_seed={"expected": expected, "off_seed": off_seed},
        absent_targets=tracer.absent,
        wrappers_restored=tracer.restored,
        layers=full,
        spans_of_last_command={
            name: {"calls": rec[0], "total_s": rec[1], "self_s": rec[2]}
            for name, rec in sorted(tracer.spans.items())
        },
    )
    return full, tracer.restored


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # one compute thread: pin the BLAS/OpenMP pools before numpy is imported,
    # unless the caller set them; child processes inherit the setting
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")

    if not (SRC / "quenchstage" / "cli.py").is_file() or not CONFIGS.is_dir():
        print(f"perfbench: no quenchstage sources under {ROOT}", file=sys.stderr)
        return 2
    reference = json.loads((BENCH / "reference.json").read_text())
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    workdir = BENCH / "_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    report: dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace}
    try:
        runner = Runner(args.workload, workdir, reference)
        report["argv"] = runner.argv
        if args.trace:
            values, restored = per_layer(runner, args.seconds, report)
        else:
            values, restored = end_to_end(runner, args.seconds, report), True
        missing = sorted(set(units) - set(values))
        if missing:
            raise BenchError(f"no value for declared metrics {missing}")
        report["host"] = host_info()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    gate = runner.gate
    report["failures"] = gate.errors
    print(json.dumps(report, indent=1, default=str))
    print(json.dumps({
        "correct": gate.failed == 0 and restored,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
