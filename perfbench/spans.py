"""Span tracer that wraps quenchstage's public functions from outside.

The package's modules import each other's functions by name
(``from .stepper import picard_implicit_step``), so wrapping a function only
in its defining module would miss most calls.  ``Tracer`` replaces every
binding of each target object in every loaded ``quenchstage`` module,
including functions held in module-level dicts such as ``verify.SUITES``,
and wraps ``DirichletSolver.__init__``/``.solve`` on the class.  Leaving the
``with`` block puts every original binding back.

A span is one call of a wrapped function.  Its self time is its duration
minus the time covered by spans it caused.  The root span is the whole CLI
command; its self time is the time that no layer accounts for.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "quenchstage"

# layer (module) -> wrapped names; "Class.method" wraps on the class
TARGETS: dict[str, tuple[str, ...]] = {
    "grid": (
        "flat_extend", "grad_norm_sq", "laplacian_5pt", "inner_product",
        "gradient_bilinear", "build_rescaled_grid", "build_physical_grid",
    ),
    "energy": (
        "discrete_energy", "reciprocal_K", "feedback", "switch_jump",
        "accumulate_time", "continuation_check",
    ),
    "stepper": (
        "DirichletSolver.__init__", "DirichletSolver.solve", "boundary_coupling",
        "picard_implicit_step", "euler_lagrange_residual", "mm_oracle_step",
    ),
    "prolongation": (
        "make_transfer", "prolong_stage", "edge_consistency_check",
        "laplace_compat_check",
    ),
    "drivers": (
        "initial_rescaled_profile", "detect_trigger", "run_stage",
        "stage_transition", "run_stagewise", "run_direct",
    ),
    "cli": (
        "parse_config", "cmd_stagewise", "cmd_direct", "cmd_verify",
        "_stagewise_files", "_write_manifest", "_write_atomic",
    ),
    "verify": ("run_suite", "transfer_refinement_errors"),
}
LAYERS = tuple(TARGETS)

# span name -> metric group; a group's time counts only its outermost spans
GROUPS = {
    "stepper.DirichletSolver.solve": "stepper.solve",
    "stepper.DirichletSolver.__init__": "stepper.factor",
    "stepper.picard_implicit_step": "stepper.step",
    "stepper.mm_oracle_step": "stepper.oracle",
    "energy.discrete_energy": "energy.eval",
    "prolongation.prolong_stage": "prolongation.transfer",
    "prolongation.edge_consistency_check": "prolongation.check",
    "prolongation.laplace_compat_check": "prolongation.check",
    "cli._stagewise_files": "cli.emit",
    "cli._write_manifest": "cli.emit",
    "cli._write_atomic": "cli.emit",
    "cli.stdout": "cli.emit",
}

STAGES_REPORTED = 6  # stages 0..5, the deepest workload


def _size(obj) -> int:
    return int(getattr(obj, "size", 0))


class Tracer:
    """Installs the wrappers on enter and restores the originals on exit."""

    def __init__(self) -> None:
        self.modules = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        self.absent: list[str] = []
        self.suites: list[str] = []
        self.restored = False
        self._undo: list[tuple[object, object, object]] = []
        self._hooks = {
            "stepper.DirichletSolver.solve": self._on_solve,
            "stepper.picard_implicit_step": self._on_step,
            "prolongation.prolong_stage": self._on_transfer,
            "cli._write_atomic": self._on_write,
            "cli.stdout": self._on_write,
        }
        self.reset()

    # -- per-command state -------------------------------------------------

    def reset(self) -> None:
        self.stack: list[list[float]] = []
        self.spans: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.groups: dict[str, float] = defaultdict(float)
        self.group_open: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.stage: int | None = None

    def _on_solve(self, args, result) -> None:
        self.counts["solve_unknowns"] += _size(args[1]) if len(args) > 1 else 0
        if self.group_open["stepper.step"]:
            self.counts["step_solves"] += 1
        if self.stage is not None:
            self.counts[f"sweeps.{self.stage}"] += 1

    def _on_step(self, args, result) -> None:
        if self.stage is not None:
            self.counts[f"step_calls.{self.stage}"] += 1

    def _on_transfer(self, args, result) -> None:
        self.counts["fine_nodes"] += _size(getattr(result, "interior", None))

    def _on_write(self, args, result) -> None:
        # _write_atomic(path, text) and stdout.write(text): text comes last
        if args and isinstance(args[-1], str):
            self.counts["bytes_written"] += len(args[-1].encode())

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        """Return fn wrapped in a span called name (layer = prefix)."""
        group = GROUPS.get(name)
        hook = hook or self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if group:
                self.group_open[group] += 1
            frame = [perf_counter(), 0.0]
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - frame[0]
                self.stack.pop()
                if self.stack:
                    self.stack[-1][1] += dur
                rec = self.spans[name]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                if group:
                    self.group_open[group] -= 1
                    if not self.group_open[group]:
                        self.groups[group] += dur
            if hook:
                hook(args, result)
            return result

        return traced

    def _staged(self, fn):
        """Attribute steps, sweeps and wall time to the stage run_stage runs."""

        @functools.wraps(fn)
        def staged(state, *args, **kwargs):
            m = getattr(state, "m", None)
            outer, self.stage = self.stage, m
            t0 = perf_counter()
            try:
                return fn(state, *args, **kwargs)
            finally:
                self.counts[f"stage_s.{m}"] += perf_counter() - t0
                self.stage = outer

        return staged

    def _rebind(self, original, replacement) -> None:
        for mod in self.modules:
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if item is original:
                            val[key] = replacement
                            self._undo.append((val, key, original))

    def __enter__(self) -> "Tracer":
        for layer, names in TARGETS.items():
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            for name in names:
                owner_name, _, method = name.partition(".")
                owner = getattr(mod, owner_name, None)
                if owner is None or (method and method not in vars(owner)):
                    self.absent.append(f"{layer}.{name}")
                    continue
                span = f"{layer}.{name}"
                if method:
                    original = vars(owner)[method]
                    setattr(owner, method, self.wrap(span, original))
                    self._undo.append((owner, method, original))
                    continue
                wrapped = self.wrap(span, owner)
                if name == "run_stage":
                    wrapped = self._staged(wrapped)
                self._rebind(owner, wrapped)
        suites = getattr(sys.modules.get(f"{PACKAGE}.verify"), "SUITES", None)
        if isinstance(suites, dict):
            for key, fn in list(suites.items()):
                self.suites.append(key)
                self._rebind(fn, self.wrap(f"verify.suite.{key}", fn))
        else:
            self.absent.append("verify.SUITES")
        return self

    def __exit__(self, *exc) -> None:
        for owner, key, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self.restored = all(
            (owner[key] if isinstance(owner, dict) else getattr(owner, key)) is original
            for owner, key, original in self._undo
        )

    # -- results -----------------------------------------------------------

    def call(self, fn, *args):
        """Run fn(*args) as the root span of one command."""
        return self.wrap("command", fn)(*args)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the command run since the last reset."""
        calls = {name: rec[0] for name, rec in self.spans.items()}
        c = self.counts
        steps = calls.get("stepper.picard_implicit_step", 0)
        evals = calls.get("energy.discrete_energy", 0)
        out: dict[str, float] = {
            "stepper.solve_s": self.groups["stepper.solve"],
            "stepper.solves": calls.get("stepper.DirichletSolver.solve", 0),
            "stepper.solve_unknowns": int(c["solve_unknowns"]),
            "stepper.factor_s": self.groups["stepper.factor"],
            "stepper.factor_calls": calls.get("stepper.DirichletSolver.__init__", 0),
            "stepper.step_s": self.groups["stepper.step"],
            "stepper.step_self_s": self.spans["stepper.picard_implicit_step"][2],
            "stepper.steps": steps,
            "stepper.sweeps_per_step": c["step_solves"] / steps if steps else 0.0,
            "stepper.oracle_s": self.groups["stepper.oracle"],
            "stepper.oracle_calls": calls.get("stepper.mm_oracle_step", 0),
            "energy.eval_s": self.groups["energy.eval"],
            "energy.evals": evals,
            "energy.evals_per_step": evals / steps if steps else 0.0,
            "grid.laplacian_calls": calls.get("grid.laplacian_5pt", 0),
            "prolongation.transfer_s": self.groups["prolongation.transfer"],
            "prolongation.transfers": calls.get("prolongation.prolong_stage", 0),
            "prolongation.fine_nodes": int(c["fine_nodes"]),
            "prolongation.check_s": self.groups["prolongation.check"],
            "cli.emit_s": self.groups["cli.emit"],
            "cli.bytes_written": int(c["bytes_written"]),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                rec[2] for name, rec in self.spans.items()
                if name.partition(".")[0] == layer
            )
        for key in self.suites:
            out[f"verify.suite_s.{key}"] = self.spans[f"verify.suite.{key}"][1]
        seen = [int(k[8:]) for k in c if k.startswith("stage_s.") and k[8:].isdigit()]
        for m in range(max([STAGES_REPORTED - 1, *seen]) + 1):
            step_calls = int(c[f"step_calls.{m}"])
            out[f"drivers.stage_s.{m}"] = c[f"stage_s.{m}"]
            # completed steps; the crossing step counts in sweeps only
            out[f"drivers.steps.{m}"] = max(step_calls - 1, 0)
            out[f"drivers.sweeps.{m}"] = int(c[f"sweeps.{m}"])
        out["trace.unattributed_s"] = self.spans["command"][2]
        return out
