"""Reference runs: the full-domain stagewise evolution and the direct check.

The stagewise driver evolves the rescaled deficit W at frozen amplitude A_m
until its interior minimum crosses the trigger threshold k^(-2/3), linearly
interpolates the crossing event between the two bracketing states, records
energies and feedback at the stage start and at the event, then hands the
event state to the 12-point transfer for the next stage (A drops by k^(-2/3),
the grid dilates by k at fixed mesh width).  A_m and the boundary value 1/A_m
live only in the stage state's grid, Grid(A_m, N_m), so a stage state is
(m, Z, t) and the stepper, the energy and the transfer all read them from the
field they are given.  Physical time accumulates as sum of s*_m * A_m^3 with
the fractional event step included in s*_m.
run_stage gates every stage start: a state whose minimum is not above the
threshold (nonpositive or NaN included) cannot trigger, and after a transfer
that is a numerical failure.  Each stage start and end is evaluated once, in
run_stage, and the run summary is read off the stage records: E0 is the first
record's start energy, a switch row of the defect ledger pairs the end energy
of one record with the start energy of the next, and the window areas come
from each record's h and N.

The direct driver evolves the physical deficit v = 1 - u on the unit square.
That is stage 0 at amplitude 1: the rescaled square is then the unit square
(h = 1/N), W = v and g = 1/A = 1, so both runs start from
initial_rescaled_profile and step with the same backward-Euler + Picard
scheme (K = 1 + h^2 sum 1/v here).  Its threshold is 0: a step that leaves
the positive cone (the deficit quenches) is a numerical failure.

Both drivers run one loop, scored_march over a stepper.march, which yields
every step as Fields on the start's grid, held by its quarter, the frame.
The loop scores the energy, the movement penalty and the sweeps of each
completed step on that frame and stops at the first step whose minimum,
taken when its Field was built, is at or below the threshold.
Each driver scores its start, and run_stage the crossing step's penalty and
the event interpolated there.  A state march yields carries the gradient
sum and K of its energy, so only the starts and the events are summed from
their values (grid.Grid.grad_norm_sq).  No state is expanded to the whole
interior: the transfer reads each event's stencils from its quarter.  Each
driver builds the march and hands it the last reference to its start, so
the start is freed once step 1 is scored, and run_stagewise drops each event
once the next start is built from it.

The two run configs, StagewiseConfig and DirectConfig, declare each field
once (_declared): its default, its config-file key, whether a config file
may omit it, and its bounds with their messages.  One validator, _validate,
enforces the declared rules for both, every float finite among them, and
cli builds its key tables from the same declarations.  The checks across
fields (a representable grid, the stage growth against MAX_N, the stage-0
threshold, T/dt) stay in each config's __post_init__.
"""

from __future__ import annotations

import itertools
import logging
import math
import sys
from collections.abc import Iterator
from dataclasses import dataclass, field, fields

import numpy as np

from .grid import Field, Grid
from .energy import (
    DefectLedger,
    DefectRow,
    CriterionReport,
    continuation_check,
    discrete_energy,
    switch_jump,
)
from .prolongation import prolong_stage
from .stepper import NumericalError, StepReport, march, movement_penalty

logger = logging.getLogger(__name__)


# Largest grid a run may build, in intervals per direction: the last stage of
# the reference run to 8 stages.  That stage's steps set the run's peak, about
# 12.5 quarters of 576^2: the seed's ring of seven sources, the solver's
# tables, the step start and a Picard sweep's two arrays.
# README.md (Config format) gives the time and peak RSS measured at this size.
MAX_N = 1152

# Most steps a run may take: a stage's default step cap and the bound on a
# direct run's T/dt (10^6 steps at the direct N = 15 take 70 s on 2 vCPUs).
MAX_STEPS = 1_000_000

# Bounds shared by the run configs' fields, each (low, high, message): a value
# must lie in [low, high], so a strict bound on a float sits one float inside
# it.  The message is formatted with the field's config key and the value.
_NONNEGATIVE = (0.0, math.inf, "{key} must be nonnegative")
_POSITIVE = (math.ulp(0.0), math.inf, "{key} must be positive")
_AT_LEAST_2 = (2, math.inf, "{key} must be at least 2")
_IN_UNIT_INTERVAL = (math.ulp(0.0), math.nextafter(1.0, 0.0),
                     "{key} must lie in (0, 1)")


def _declared(default, *bounds, key: str | None = None, optional: bool = False):
    """A run-config field: its default, its bounds, its config-file key (the
    field's name unless given) and whether a config file may omit it."""
    return field(default=default,
                 metadata={"key": key, "optional": optional, "bounds": bounds})


def config_key(f) -> str:
    """The config-file key of a run-config field (a dataclasses.Field), which
    every message about its value names."""
    return f.metadata["key"] or f.name


def _validate(cfg: object) -> None:
    """Enforce the declared rules of a run config's fields, in field order:
    a float must be finite, then each bound must hold."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{config_key(f)} = {value} is not finite")
        for low, high, message in f.metadata["bounds"]:
            if not low <= value <= high:
                raise ValueError(message.format(key=config_key(f), value=value))


@dataclass(frozen=True)
class StagewiseConfig:
    lam: float = _declared(20.0, _NONNEGATIVE, key="lambda")
    u0_amplitude: float = _declared(0.4, _IN_UNIT_INTERVAL)
    A0: float = _declared(0.6, _POSITIVE)
    # the threshold k^(-2/3) needs a float k
    k: int = _declared(2, _AT_LEAST_2, (-math.inf, sys.float_info.max,
                                        "{key} is larger than the largest float"))
    N0: int = _declared(9, _AT_LEAST_2)
    ds: float = _declared(1e-3, _POSITIVE)
    max_stages: int = _declared(4, (1, math.inf, "{key} must be >= 1"))
    step_cap: int = _declared(MAX_STEPS, _POSITIVE, (
        -math.inf, MAX_STEPS, f"{{key}} = {{value}}, above {MAX_STEPS = }"
    ), optional=True)

    def __post_init__(self) -> None:
        _validate(self)
        # h is the same on every stage, so the stage-0 grid stands for all;
        # with A0 > 0 and N0 >= 2, Grid rejects only an h^2 that is no float
        try:
            Grid(self.A0, self.N0)
        except ValueError:
            raise ValueError(
                f"A0 = {self.A0:g} gives no representable grid: "
                "h^2 = (1/(N0 A0^(3/2)))^2 is not a positive finite float"
            ) from None
        # stage m has N0*k^m intervals.  Multiply only up to the cap:
        # k^(max_stages-1) can be an enormous integer.
        m, N = 0, self.N0
        while N <= MAX_N and m + 1 < self.max_stages:
            m, N = m + 1, N * self.k
        if N > MAX_N:
            raise ValueError(
                f"stage {m} needs a grid of N = N0*k^{m} = {N} intervals, "
                f"above MAX_N = {MAX_N}"
            )
        # a quarter of (N0 // 2)^2 nodes, within MAX_N by the check above
        W0 = initial_rescaled_profile(self.A0, self.N0, self.u0_amplitude)
        min_W = W0.min_interior()
        if min_W <= self.threshold:
            raise ValueError(
                f"the stage-0 profile starts at or below the trigger threshold: "
                f"min W = {min_W:.6g} <= k^(-2/3) = {self.threshold:.6g}"
            )

    @property
    def threshold(self) -> float:
        return self.k ** (-2.0 / 3.0)


@dataclass(frozen=True)
class DirectConfig:
    lam: float = _declared(15.0, _NONNEGATIVE, key="lambda")
    N: int = _declared(15, _AT_LEAST_2, (
        -math.inf, MAX_N, f"grid {{key}} = {{value}} is above {MAX_N = }"
    ))
    dt: float = _declared(5e-4, _POSITIVE)
    T: float = _declared(0.08, _NONNEGATIVE)
    u0_amplitude: float = _declared(0.45, _IN_UNIT_INTERVAL)

    def __post_init__(self) -> None:
        _validate(self)
        steps = self.T / self.dt
        if not math.isfinite(steps):  # round() would raise OverflowError
            raise ValueError(f"T/dt = {steps} is not a finite step count")
        if abs(steps - round(steps)) > 1e-9:
            raise ValueError("T must be an integral multiple of dt")
        if self.steps > MAX_STEPS:
            raise ValueError(f"T/dt = {self.steps} steps, above {MAX_STEPS = }")

    @property
    def steps(self) -> int:
        return int(round(self.T / self.dt))


@dataclass(frozen=True)
class StageState:
    m: int
    Z: Field  # its grid carries the stage amplitude A_m
    t: float  # accumulated physical time before the current stage


@dataclass(frozen=True)
class StageRecord:
    m: int
    A: float
    N: int
    h: float
    A2h2: float
    scaled_time: float
    min_W: float
    accumulated_time: float
    E_start: float
    E_end: float
    K_start: float
    K_end: float
    coeff_start: float  # lam * K_start^-2
    coeff_end: float
    dissipation_sum: float
    steps: int  # completed full steps before the crossing step
    picard_sweeps: int  # linear solves in the stage, crossing step included
    trigger_gap: float  # min(event) - threshold
    energy_increases: int  # completed steps whose energy rose above round-off


@dataclass(frozen=True)
class RunReport:
    config: StagewiseConfig
    E0: float
    records: list[StageRecord]
    ledger: DefectLedger
    areas: list[float]
    continuation: CriterionReport

    @property
    def transitions(self) -> list[DefectRow]:
        """The stage switches, in order; the ledger holds the only copy."""
        return self.ledger.rows


@dataclass(frozen=True)
class DirectReport:
    E_start: float
    E_end: float
    min_v: float
    max_u: float
    steps: int  # completed steps
    picard_sweeps: int
    dissipation_sum: float
    energy_increases: int


def initial_rescaled_profile(A: float, N: int, u0_amplitude: float) -> Field:
    """Initial rescaled deficit W = (1 - u0)/A on the N-interval grid at
    amplitude A, with u0 = u0_amplitude * sin(pi x) sin(pi y).

    The rescaled square maps exactly onto the unit square: A^(3/2)*L = 1/2,
    so x = 1/2 + A^(3/2)*xi puts the centre at (1/2, 1/2).  At A = 1 this is
    the physical deficit v = 1 - u0 with boundary value 1.  The profile is
    symmetric about both mid-lines, so u0 is evaluated at the quarter's
    nodes only (grid.Grid.nodes_1d).
    """
    grid = Grid(A, N)
    x = 0.5 + A ** 1.5 * grid.nodes_1d()
    X, Y = np.meshgrid(x, x, indexing="ij")
    u0 = u0_amplitude * np.sin(np.pi * X) * np.sin(np.pi * Y)
    return Field(grid, (1.0 - u0) / A)


def detect_trigger(min_prev: float, min_next: float, thr: float) -> float | None:
    """The fraction tau of the step at which the interior minimum reaches
    thr, by linear interpolation of the two states' minima, or None if the
    step ends above thr (a NaN minimum does not).

    The boundary value 1/A exceeds the threshold throughout a run, so the
    interior minimum is the global one.
    """
    if not min_prev > thr:
        raise ValueError("previous state already at or below threshold; trigger missed")
    if min_next > thr:
        return None
    return (min_prev - thr) / (min_prev - min_next)


def scored_march(
    steps: Iterator[StepReport], min_start: float, E_start: float, ds: float,
    lam: float, thr: float, where: str,
) -> tuple[DirectReport, tuple[Field, Field, float] | None]:
    """Score the steps of a march from a start of minimum min_start and
    energy E_start until a step ends at or below thr (detect_trigger) or the
    steps run out: each completed step's energy, an increase above round-off
    (counted and logged), its movement penalty and its sweeps.  Returns the
    sums, the crossing step's sweeps included, with E_end and min_v of the
    last completed state (the start if none), and the crossing step's
    (prev, next, tau), or None."""
    min_prev, E_prev = min_start, E_start
    completed = sweeps = increases = 0
    dissipation, crossing = 0.0, None
    # no reference to a report outlives its loop body, so the start of the
    # previous step is freed before march computes the next one
    for rep in steps:
        sweeps += rep.picard_iters
        min_next = rep.next.min_interior()
        tau = detect_trigger(min_prev, min_next, thr)
        if tau is not None:
            crossing = rep.prev, rep.next, tau
            break
        E_next = discrete_energy(rep.next, lam).total
        completed += 1
        if E_next > E_prev + 1e-12 * max(1.0, abs(E_prev)):
            increases += 1
            logger.warning("%s, step %d: energy increased by %.3e",
                           where, completed, E_next - E_prev)
        dissipation += movement_penalty(rep.next, rep.prev, ds)
        min_prev, E_prev = min_next, E_next
        del rep
    return DirectReport(E_start, E_prev, min_prev, 1.0 - min_prev,
                        completed, sweeps, dissipation, increases), crossing


def run_stage(state: StageState, cfg: StagewiseConfig) -> tuple[StageRecord, Field]:
    """Advance one fixed stage until the trigger fires.

    Returns the stage record and the interpolated event state.  The scaled
    duration counts the fractional crossing step: s* = (steps + tau)*ds.
    scored_march scores the steps on the frame of the Fields march yields,
    and the event is interpolated and scored there too, in the frame the
    transfer reads.  A start whose minimum is not above the threshold, no
    trigger within the step cap and a record with a non-finite float (an
    overflowed energy or penalty) raise NumericalError.  The start is freed
    once step 1 is scored if the caller holds no reference to state, as
    run_stagewise holds none.
    """
    m, t, Z = state.m, state.t, state.Z
    del state
    thr = cfg.threshold
    min_start = Z.min_interior()
    if not min_start > thr:  # also true for a nonpositive or NaN minimum
        raise NumericalError(
            f"stage {m} starts at or below the trigger threshold: "
            f"min W = {min_start:.6g} <= k^(-2/3) = {thr:.6g}"
        )
    start = discrete_energy(Z, cfg.lam)
    grid, where = Z.grid, f"stage {m}"
    steps = itertools.islice(march(Z, cfg.ds, cfg.lam, where), cfg.step_cap)
    del Z  # march holds the start alone and drops it once step 1 is scored
    scored, crossing = scored_march(steps, min_start, start.total, cfg.ds,
                                    cfg.lam, thr, where)
    del steps  # the march, with its solver and seed ring
    if crossing is None:
        raise NumericalError(
            f"stage {m}: no trigger within {cfg.step_cap} steps: min W = "
            f"{scored.min_v:.6g} at step {scored.steps} > k^(-2/3) = {thr:.6g}"
        )
    prev, nxt, tau = crossing
    dissipation = scored.dissipation_sum + tau * movement_penalty(nxt, prev, cfg.ds)
    s_star = (scored.steps + tau) * cfg.ds
    event = Field(nxt.grid, (1.0 - tau) * prev.values + tau * nxt.values)
    end = discrete_energy(event, cfg.lam)
    min_W = event.min_interior()
    gap = min_W - thr
    logger.info(
        "stage %d: trigger after %d full steps, tau=%.6f, "
        "min W - thr = %.3e", m, scored.steps, tau, gap,
    )
    record = StageRecord(
        m=m,
        A=grid.A,
        N=grid.N,
        h=grid.h,
        A2h2=grid.A2h2,
        scaled_time=s_star,
        min_W=min_W,
        accumulated_time=t + s_star * grid.A ** 3,
        E_start=start.total,
        E_end=end.total,
        K_start=start.K,
        K_end=end.K,
        coeff_start=start.coeff,
        coeff_end=end.coeff,
        dissipation_sum=dissipation,
        steps=scored.steps,
        picard_sweeps=scored.picard_sweeps,
        trigger_gap=gap,
        energy_increases=scored.energy_increases,
    )
    nonfinite = [name for name, x in vars(record).items() if not math.isfinite(x)]
    if nonfinite:
        raise NumericalError(f"stage {m}: non-finite {', '.join(nonfinite)}")
    return record, event


def run_stagewise(cfg: StagewiseConfig) -> RunReport:
    """Execute the full stagewise run and assemble all diagnostics."""
    # run_stage takes each start out of the list, so no start is held here
    # while its stage runs, and no event once the next start is built from it
    starts = [initial_rescaled_profile(cfg.A0, cfg.N0, cfg.u0_amplitude)]
    records: list[StageRecord] = []
    t = 0.0
    for m in range(cfg.max_stages):
        if m:
            starts.append(prolong_stage(event, cfg.k))
            del event
            t = records[-1].accumulated_time
        record, event = run_stage(StageState(m=m, Z=starts.pop(), t=t), cfg)
        records.append(record)

    rows = []
    for end, start in itertools.pairwise(records):
        # the raw transfer is inserted unchanged, so E_id is E_start
        delta, eps = switch_jump(end.E_end, start.E_start)
        rows.append(
            DefectRow(
                m_from=end.m,
                m_to=start.m,
                E_end=end.E_end,
                E_id=start.E_start,
                E_start=start.E_start,
                delta_sw=delta,
                eps_sw=eps,
                eps_out=0.0,
            )
        )
    E0 = records[0].E_start
    ledger = DefectLedger(lam=cfg.lam, rows=rows)
    areas = [r.h ** 2 * (r.N + 1) ** 2 for r in records]
    return RunReport(
        config=cfg,
        E0=E0,
        records=records,
        ledger=ledger,
        areas=areas,
        continuation=continuation_check(E0, ledger, areas, full_domain=True),
    )


def run_direct(cfg: DirectConfig) -> DirectReport:
    """Fixed-domain evolution of the physical deficit on the unit square,
    run as stage 0 at amplitude 1 and threshold 0 for T/dt steps: the
    first step whose minimum is nonpositive or NaN (the deficit quenches)
    raises NumericalError.  Every step is scored on the solver's frame."""
    v = initial_rescaled_profile(1.0, cfg.N, cfg.u0_amplitude)
    E_start, min_start = discrete_energy(v, cfg.lam).total, v.min_interior()
    steps = itertools.islice(march(v, cfg.dt, cfg.lam, "direct run"), cfg.steps)
    del v  # march holds the start alone and drops it once step 1 is scored
    report, crossing = scored_march(steps, min_start, E_start, cfg.dt, cfg.lam,
                                    0.0, "direct run")
    if crossing is not None:
        raise NumericalError(
            f"direct run, step {report.steps + 1}: the state left the positive "
            f"cone (min v = {crossing[1].min_interior():.6e})"
        )
    return report
