"""Reference runs: the full-domain stagewise evolution and the direct check.

The stagewise driver evolves the rescaled deficit W at frozen amplitude A_m
until its interior minimum crosses the trigger threshold k^(-2/3), linearly
interpolates the crossing event between the two bracketing states, records
energies and feedback at the stage start and at the event, then hands the
event state to the 12-point transfer for the next stage (A drops by k^(-2/3),
the grid dilates by k at fixed mesh width).  Physical time accumulates as
sum of s*_m * A_m^3 with the fractional event step included in s*_m.
Each Picard step starts from extrapolated_seed over the stage's last
accepted states; the history restarts at every transfer, since the grid
changes.

The direct driver evolves the physical deficit v on the unit square with the
same backward-Euler + Picard scheme at amplitude 1 (so K = 1 + h^2 sum 1/v)
and reports the energies at t = 0 and t = T plus the final minimum; a step
that leaves the positive cone (the deficit quenches) is a numerical failure.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass

import numpy as np

from .grid import Field, build_physical_grid, build_rescaled_grid
from .energy import (
    DefectLedger,
    DefectRow,
    CriterionReport,
    continuation_check,
    discrete_energy,
    feedback,
    switch_jump,
)
from .prolongation import TransferSpec, make_transfer, prolong_stage
from .stepper import (
    SEED_ORDER,
    DirichletSolver,
    StepperConfig,
    extrapolated_seed,
    picard_implicit_step,
)

logger = logging.getLogger(__name__)


class NumericalError(RuntimeError):
    """A run failed numerically (non-convergence, runaway, bad transfer)."""


class StageRunawayError(NumericalError):
    """No trigger within the step cap."""


class TransferError(NumericalError):
    """A prolonged state left the admissible (positive) cone."""


@dataclass(frozen=True)
class StagewiseConfig:
    lam: float = 20.0
    u0_amplitude: float = 0.4
    center: tuple[float, float] = (0.5, 0.5)
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
        min_W = initial_rescaled_profile(self).min_interior()
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


def initial_rescaled_profile(cfg: StagewiseConfig) -> Field:
    """Initial rescaled deficit W = (1 - u0)/A0 sampled on the stage-0 grid.

    The rescaled square maps exactly onto the unit square: A0^(3/2)*L0 = 1/2,
    so the mapped points always land in [0, 1]^2 up to round-off.
    """
    grid = build_rescaled_grid(cfg.A0, cfg.N0)
    scale = cfg.A0 ** 1.5
    xi = grid.interior_nodes_1d()
    x = cfg.center[0] + scale * xi
    y = cfg.center[1] + scale * xi
    for coords in (x, y):
        if coords.min() < -1e-12 or coords.max() > 1.0 + 1e-12:
            raise RuntimeError(
                "rescaled nodes map outside the unit square; grid construction is broken"
            )
    X, Y = np.meshgrid(x, y, indexing="ij")
    u0 = cfg.u0_amplitude * np.sin(np.pi * X) * np.sin(np.pi * Y)
    return Field(grid=grid, interior=(1.0 - u0) / cfg.A0, g=1.0 / cfg.A0)


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
    scfg = StepperConfig(ds=cfg.ds, lam=cfg.lam)
    solver = DirichletSolver(Z.grid, cfg.ds)
    h = Z.grid.h

    start_E = discrete_energy(Z, A, cfg.lam)
    start_fb = feedback(Z, A, cfg.lam)

    prev = Z
    history = deque([Z.interior], maxlen=SEED_ORDER + 1)
    E_prev = start_E.total
    completed = 0
    sweeps = 0
    dissipation = 0.0
    while True:
        if completed >= cfg.step_cap:
            raise StageRunawayError(
                f"stage {state.m}: no trigger within {cfg.step_cap} steps"
            )
        seed = prev.with_interior(extrapolated_seed(history))
        rep = picard_implicit_step(prev, scfg, A, solver, seed)
        sweeps += rep.picard_iters
        if not rep.converged:
            raise NumericalError(
                f"stage {state.m}, step {completed + 1}: Picard did not "
                f"converge within {scfg.picard_max} sweeps"
            )
        nxt = rep.next
        E_next = rep.energy
        hit = detect_trigger(prev, nxt, thr)
        if hit is None:
            if E_next > E_prev + 1e-12 * max(1.0, abs(E_prev)):
                logger.warning(
                    "stage %d, step %d: energy increased by %.3e",
                    state.m, completed + 1, E_next - E_prev,
                )
            dissipation += rep.penalty
            prev = nxt
            history.append(nxt.interior)
            E_prev = E_next
            completed += 1
            continue

        tau, event = hit
        dissipation += tau * rep.penalty
        s_star = (completed + tau) * cfg.ds
        end_E = discrete_energy(event, A, cfg.lam)
        end_fb = feedback(event, A, cfg.lam)
        gap = event.min_interior() - thr
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
            min_W=event.min_interior(),
            accumulated_time=state.t + s_star * A ** 3,
            E_start=start_E.total,
            E_end=end_E.total,
            K_start=start_fb.K,
            K_end=end_fb.K,
            coeff_start=start_fb.coeff,
            coeff_end=end_fb.coeff,
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
    signed jump and its positive part.
    """
    nxt = prolong_stage(event, spec)
    if not nxt.is_admissible():
        bad = int(np.sum(nxt.interior <= 0.0))
        raise TransferError(
            f"prolonged state has {bad} nonpositive interior values"
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
    Z0 = initial_rescaled_profile(cfg)
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
    """Fixed-domain evolution of the physical deficit on the unit square."""
    grid = build_physical_grid(cfg.N)
    x = grid.interior_nodes_1d()
    X, Y = np.meshgrid(x, x, indexing="ij")
    v = Field(
        grid=grid,
        interior=1.0 - cfg.u0_amplitude * np.sin(np.pi * X) * np.sin(np.pi * Y),
        g=1.0,
    )
    E_start = discrete_energy(v, 1.0, cfg.lam).total
    scfg = StepperConfig(ds=cfg.dt, lam=cfg.lam)
    solver = DirichletSolver(grid, cfg.dt)
    history = deque([v.interior], maxlen=SEED_ORDER + 1)
    for j in range(cfg.steps):
        seed = v.with_interior(extrapolated_seed(history))
        rep = picard_implicit_step(v, scfg, 1.0, solver, seed)
        if not rep.converged:
            raise NumericalError(
                f"direct run, step {j + 1}: Picard did not converge"
            )
        v = rep.next
        if not v.is_admissible():
            raise NumericalError(
                f"direct run, step {j + 1}: the state left the positive cone "
                f"(min v = {v.min_interior():.6e})"
            )
        history.append(v.interior)
    E_end = discrete_energy(v, 1.0, cfg.lam).total
    min_v = v.min_interior()
    return DirectReport(
        config=cfg, E_start=E_start, E_end=E_end, min_v=min_v, max_u=1.0 - min_v
    )
