"""Reference runs: the full-domain stagewise evolution and the direct check.

The stagewise driver evolves the rescaled deficit W at frozen amplitude A_m
until its interior minimum crosses the trigger threshold k^(-2/3), linearly
interpolates the crossing event between the two bracketing states, records
energies and feedback at the stage start and at the event, then hands the
event state to the 12-point transfer for the next stage (A drops by k^(-2/3),
the grid dilates by k at fixed mesh width).  Physical time accumulates as
sum of s*_m * A_m^3 with the fractional event step included in s*_m.
A prolonged state that starts at or below the threshold of its stage cannot
trigger and is a numerical failure of the transfer.

The direct driver evolves the physical deficit v = 1 - u on the unit square.
That is stage 0 at amplitude 1: the rescaled square is then the unit square
(h = 1/N), W = v and g = 1, so both runs start from initial_rescaled_profile
and step with the same backward-Euler + Picard scheme (K = 1 + h^2 sum 1/v
here).  It reports the energies at t = 0 and t = T plus the final minimum; a
step that leaves the positive cone (the deficit quenches) is a numerical
failure.

Both drivers advance their state through one generator, _march: it owns the
linear solver of the grid, starts each Picard step from extrapolated_seed
over the run's last accepted states (the history restarts with every stage,
since the grid changes) and raises on a step that does not converge.
"""

from __future__ import annotations

import itertools
import logging
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .grid import Field, build_rescaled_grid
from .energy import (
    DefectLedger,
    DefectRow,
    CriterionReport,
    continuation_check,
    discrete_energy,
    switch_jump,
)
from .prolongation import TransferSpec, make_transfer, prolong_stage
from .stepper import (
    SEED_ORDER,
    DirichletSolver,
    StepReport,
    extrapolated_seed,
    picard_implicit_step,
)

logger = logging.getLogger(__name__)


class NumericalError(RuntimeError):
    """A run failed numerically (non-convergence, runaway, bad transfer)."""


class StageRunawayError(NumericalError):
    """No trigger within the step cap."""


class TransferError(NumericalError):
    """A prolonged state left the admissible (positive) cone or starts at or
    below the trigger threshold of its stage."""


@dataclass(frozen=True)
class StagewiseConfig:
    lam: float = 20.0
    u0_amplitude: float = 0.4
    A0: float = 0.6
    k: int = 2
    N0: int = 9
    ds: float = 1e-3
    max_stages: int = 4
    step_cap: int = 1_000_000

    def __post_init__(self) -> None:
        if self.lam < 0.0:
            raise ValueError("lam must be nonnegative")
        if not (0.0 < self.u0_amplitude < 1.0):
            raise ValueError("u0 amplitude must lie in (0, 1)")
        if self.A0 <= 0.0 or self.ds <= 0.0:
            raise ValueError("A0 and ds must be positive")
        if self.k < 2 or self.N0 < 2:
            raise ValueError("k and N0 must be at least 2")
        if self.max_stages < 0 or self.step_cap <= 0:
            raise ValueError("max_stages must be >= 0 and step_cap positive")
        min_W = initial_rescaled_profile(
            self.A0, self.N0, self.u0_amplitude
        ).min_interior()
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
    lam: float = 15.0
    N: int = 15
    dt: float = 5e-4
    T: float = 0.08
    u0_amplitude: float = 0.45

    def __post_init__(self) -> None:
        if self.lam < 0.0 or self.N < 2 or self.dt <= 0.0 or self.T < 0.0:
            raise ValueError("invalid direct-run parameters")
        if not (0.0 < self.u0_amplitude < 1.0):
            raise ValueError("u0 amplitude must lie in (0, 1)")
        if abs(self.T / self.dt - round(self.T / self.dt)) > 1e-9:
            raise ValueError("T must be an integral multiple of dt")

    @property
    def steps(self) -> int:
        return int(round(self.T / self.dt))


@dataclass(frozen=True)
class StageState:
    m: int
    A: float
    Z: Field
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


@dataclass(frozen=True)
class RunReport:
    config: StagewiseConfig
    E0: float
    records: list[StageRecord]
    ledger: DefectLedger
    areas: list[float]
    continuation: CriterionReport | None

    @property
    def transitions(self) -> list[DefectRow]:
        """The stage switches, in order; the ledger holds the only copy."""
        return self.ledger.rows


@dataclass(frozen=True)
class DirectReport:
    config: DirectConfig
    E_start: float
    E_end: float
    min_v: float
    max_u: float


def initial_rescaled_profile(A: float, N: int, u0_amplitude: float) -> Field:
    """Initial rescaled deficit W = (1 - u0)/A on the N-interval grid at
    amplitude A, with u0 = u0_amplitude * sin(pi x) sin(pi y).

    The rescaled square maps exactly onto the unit square: A^(3/2)*L = 1/2,
    so x = 1/2 + A^(3/2)*xi puts the centre at (1/2, 1/2).  At A = 1 this is
    the physical deficit v = 1 - u0 with boundary value 1.
    """
    grid = build_rescaled_grid(A, N)
    x = 0.5 + A ** 1.5 * grid.interior_nodes_1d()
    X, Y = np.meshgrid(x, x, indexing="ij")
    u0 = u0_amplitude * np.sin(np.pi * X) * np.sin(np.pi * Y)
    return Field(grid=grid, interior=(1.0 - u0) / A, g=1.0 / A)


def detect_trigger(
    prev: Field, nxt: Field, thr: float
) -> tuple[float, Field] | None:
    """Linear event interpolation when the interior minimum crosses thr.

    The boundary value 1/A exceeds the threshold throughout a run, so the
    interior minimum is the global one.
    """
    min_prev = prev.min_interior()
    if min_prev < thr:
        raise ValueError("previous state already below threshold; trigger missed")
    min_next = nxt.min_interior()
    if min_next >= thr:
        return None
    tau = (min_prev - thr) / (min_prev - min_next)
    event = prev.with_interior((1.0 - tau) * prev.interior + tau * nxt.interior)
    return tau, event


def _march(
    Z: Field, ds: float, lam: float, A: float, where: str
) -> Iterator[StepReport]:
    """Seeded backward-Euler + Picard steps of size ds from Z at amplitude A,
    lazily.

    Yields one converged step report per step, each starting from the
    previous report's state; a step that does not converge raises a
    NumericalError naming where (the stage or the direct run) and the step.
    """
    solver = DirichletSolver(Z.grid, ds)
    history = deque([Z.interior], maxlen=SEED_ORDER + 1)
    for step in itertools.count(1):
        seed = Z.with_interior(extrapolated_seed(history))
        rep = picard_implicit_step(Z, ds, lam, A, solver, seed)
        if not rep.converged:
            raise NumericalError(
                f"{where}, step {step}: Picard did not converge within "
                f"{rep.picard_iters} sweeps"
            )
        yield rep
        Z = rep.next
        history.append(Z.interior)


def run_stage(state: StageState, cfg: StagewiseConfig) -> tuple[StageRecord, Field]:
    """Advance one fixed stage until the trigger fires.

    Returns the stage record and the interpolated event state.  The scaled
    duration counts the fractional crossing step: s* = (steps + tau)*ds.
    """
    A = state.A
    Z = state.Z
    thr = cfg.threshold
    if Z.min_interior() <= thr:
        raise ValueError("stage must start above the trigger threshold")
    h = Z.grid.h
    start = discrete_energy(Z, A, cfg.lam)

    steps = _march(Z, cfg.ds, cfg.lam, A, f"stage {state.m}")
    prev = Z
    E_prev = start.total
    sweeps = 0
    dissipation = 0.0
    for completed, rep in zip(range(cfg.step_cap), steps):
        sweeps += rep.picard_iters
        hit = detect_trigger(prev, rep.next, thr)
        if hit is not None:
            break
        if rep.energy > E_prev + 1e-12 * max(1.0, abs(E_prev)):
            logger.warning(
                "stage %d, step %d: energy increased by %.3e",
                state.m, completed + 1, rep.energy - E_prev,
            )
        dissipation += rep.penalty
        prev = rep.next
        E_prev = rep.energy
    else:
        raise StageRunawayError(
            f"stage {state.m}: no trigger within {cfg.step_cap} steps"
        )

    tau, event = hit
    dissipation += tau * rep.penalty
    s_star = (completed + tau) * cfg.ds
    end = discrete_energy(event, A, cfg.lam)
    min_W = event.min_interior()
    gap = min_W - thr
    logger.info(
        "stage %d: trigger after %d full steps, tau=%.6f, "
        "min W - thr = %.3e", state.m, completed, tau, gap,
    )
    record = StageRecord(
        m=state.m,
        A=A,
        N=Z.grid.N,
        h=h,
        A2h2=A * A * h * h,
        scaled_time=s_star,
        min_W=min_W,
        accumulated_time=state.t + s_star * A ** 3,
        E_start=start.total,
        E_end=end.total,
        K_start=start.K,
        K_end=end.K,
        coeff_start=start.coeff,
        coeff_end=end.coeff,
        dissipation_sum=dissipation,
        steps=completed,
        picard_sweeps=sweeps,
        trigger_gap=gap,
    )
    return record, event


def stage_transition(
    event: Field, spec: TransferSpec, lam: float, m: int, E_end: float
) -> tuple[Field, DefectRow]:
    """Transfer the event state of stage m to stage m + 1 and score the switch.

    E_end is E(event) at amplitude spec.A_from, which run_stage has already
    evaluated for the stage record.  Full-domain runs insert the raw
    transfer unchanged, so the ideal next-stage energy E_id coincides with
    the actual E_start; both are recorded regardless, together with the
    signed jump and its positive part.  A prolonged state that is not
    positive, or that starts at or below k^(-2/3) and so could never
    trigger, raises TransferError.
    """
    nxt = prolong_stage(event, spec)
    min_W = nxt.min_interior()
    if not min_W > 0.0:  # a NaN minimum is not admissible either
        bad = int(np.sum(nxt.interior <= 0.0))
        raise TransferError(
            f"prolonged state has {bad} nonpositive interior values"
        )
    thr = spec.k ** (-2.0 / 3.0)
    if min_W <= thr:
        raise TransferError(
            f"stage {m + 1} starts at or below the trigger threshold: "
            f"min W = {min_W:.6g} <= k^(-2/3) = {thr:.6g}"
        )
    E_start = discrete_energy(nxt, spec.A_to, lam).total
    E_id = E_start  # raw transfer is inserted unchanged in full-domain mode
    delta, eps = switch_jump(E_end, E_id)
    row = DefectRow(
        m_from=m,
        m_to=m + 1,
        E_end=E_end,
        E_id=E_id,
        E_start=E_start,
        delta_sw=delta,
        eps_sw=eps,
        eps_out=0.0,
    )
    return nxt, row


def run_stagewise(cfg: StagewiseConfig) -> RunReport:
    """Execute the full stagewise run and assemble all diagnostics."""
    Z0 = initial_rescaled_profile(cfg.A0, cfg.N0, cfg.u0_amplitude)
    E0 = discrete_energy(Z0, cfg.A0, cfg.lam).total
    ledger = DefectLedger(lam=cfg.lam)
    records: list[StageRecord] = []
    areas: list[float] = []

    state = StageState(m=0, A=cfg.A0, Z=Z0, t=0.0)
    for m in range(cfg.max_stages):
        grid = state.Z.grid
        areas.append(grid.h ** 2 * grid.node_count)
        record, event = run_stage(state, cfg)
        records.append(record)
        if m + 1 >= cfg.max_stages:
            break
        spec = make_transfer(state.A, cfg.k)
        nxt, row = stage_transition(event, spec, cfg.lam, m, record.E_end)
        ledger.append(row)
        state = StageState(m=m + 1, A=spec.A_to, Z=nxt, t=record.accumulated_time)

    continuation = (
        continuation_check(E0, ledger, areas, cfg.lam, full_domain=True)
        if areas
        else None
    )
    return RunReport(
        config=cfg,
        E0=E0,
        records=records,
        ledger=ledger,
        areas=areas,
        continuation=continuation,
    )


def run_direct(cfg: DirectConfig) -> DirectReport:
    """Fixed-domain evolution of the physical deficit on the unit square,
    run as stage 0 at amplitude 1."""
    v = initial_rescaled_profile(1.0, cfg.N, cfg.u0_amplitude)
    E_start = E_end = discrete_energy(v, 1.0, cfg.lam).total
    steps = _march(v, cfg.dt, cfg.lam, 1.0, "direct run")
    for j, rep in zip(range(cfg.steps), steps):
        v = rep.next
        if not v.is_admissible():
            raise NumericalError(
                f"direct run, step {j + 1}: the state left the positive cone "
                f"(min v = {v.min_interior():.6e})"
            )
        E_end = rep.energy
    min_v = v.min_interior()
    return DirectReport(
        config=cfg, E_start=E_start, E_end=E_end, min_v=min_v, max_u=1.0 - min_v
    )
