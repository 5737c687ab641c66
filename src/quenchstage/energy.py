"""Nonlocal energy and feedback, stage-switch defects, continuation test.

The discrete energy at the frozen amplitude A of the field's grid is

    E(Y) = (A^2/2) * |grad Y|^2 + lambda / K(Y),

with the nonlocal feedback

    K(Y) = 1 + A^2 h^2 * sum_ij 1/Y_ij        if min Y > 0,
    K(Y) = +inf  and  lambda/K := 0            otherwise.

The +inf branch is the lower-semicontinuous extension: states touching zero
are admissible competitors in the minimizing-movement problem but carry no
reciprocal energy.  Only full-domain runs exist, so K has no outer-region
term; the bounded-window contribution of the region outside the window is
not implemented.

discrete_energy evaluates E from a Field's frame values on its grid.Grid,
whose weighted sum and gradient sum are those of the full grid, so the
drivers score each step in the solver's frame.  A state that a Picard step
accepted carries both sums: the gradient sum from the sine coefficients of
its last solve and K from its last source (stepper.picard_implicit_step),
and the energy reads those.  A run's start, an event and every state
verify or a test builds carry none, and their sums are taken from the
values (Grid.grad_norm_sq and the weighted reciprocal sum).

Stage switches are scored by the signed jump delta = E_id(next start) -
E(prev end) and its positive part eps; the ledger accumulates the budget
D* = sum(eps_sw + lambda*eps_out).  The continuation checker evaluates the
bounded-window inequality E0 + D* < lambda*q*/2 with q = min(1, 1/(2|Q|));
full-domain runs grow |Q| across stages and are flagged as outside that
hypothesis rather than judged by it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .grid import Field


class EnergyBreakdown(NamedTuple):
    """The parts discrete_energy returns.  A tuple: a run builds one for
    every state it scores, at less than half a frozen dataclass's cost."""

    dirichlet: float
    K: float
    reciprocal: float
    total: float
    coeff: float  # lambda * K^(-2), zero on the vanishing branch


@dataclass(frozen=True)
class DefectRow:
    m_from: int
    m_to: int
    E_end: float
    E_id: float
    E_start: float
    delta_sw: float
    eps_sw: float
    eps_out: float


@dataclass
class DefectLedger:
    """The stage-switch defects of a run in switch order, and their budget
    D*.  run_stagewise builds the rows from consecutive stage records with
    eps_sw = max(delta, 0) and eps_out = 0, so no part is negative."""

    lam: float
    rows: list[DefectRow] = field(default_factory=list)

    @property
    def D_star(self) -> float:
        return sum(r.eps_sw + self.lam * r.eps_out for r in self.rows)


def discrete_energy(Y: Field, lam: float) -> EnergyBreakdown:
    """Discrete energy of Y, split into Dirichlet and reciprocal parts, with
    K and the feedback coefficient lambda*K^-2, all from Y's frame values.

    K is the weighted frame sum and +inf once Y's minimum is nonpositive; on
    that vanishing branch the reciprocal part and the coefficient are 0 by
    convention, so the energy stays finite and lower semicontinuous.  The
    gradient sum and K that Y carries (a Picard step's accepted state) are
    read as they are; a Field that carries none is summed here.  For a stack
    of states (grid.Field) every part is the (S, 1, 1) array of the states'
    values, with K = +inf, and so lambda/K = 0, on each vanished state.
    """
    grid = Y.grid
    grad = grid.grad_norm_sq(Y.values) if Y.grad_norm_sq is None else Y.grad_norm_sq
    dirichlet = 0.5 * grid.A * grid.A * grad
    if Y.values.ndim == 3:
        # the sums of a vanished state are discarded, so 1/0 may go silent
        with np.errstate(divide="ignore", invalid="ignore"):
            K = np.where(Y.min_interior() <= 0.0, math.inf, _weighted_K(Y))
        reciprocal = lam / K
        return EnergyBreakdown(
            dirichlet, K, reciprocal, dirichlet + reciprocal, lam / (K * K)
        )
    if Y.min_interior() <= 0.0:
        K = math.inf
    elif Y.K is not None:
        K = Y.K
    else:
        K = _weighted_K(Y)
    vanished = math.isinf(K)
    reciprocal = 0.0 if vanished else lam / K
    return EnergyBreakdown(dirichlet, K, reciprocal, dirichlet + reciprocal,
                           0.0 if vanished else lam / (K * K))


def _weighted_K(Y: Field) -> float | np.ndarray:
    """K = 1 + A^2 h^2 sum 1/Y of the values, the weighted frame sum."""
    return 1.0 + Y.grid.A2h2 * Y.grid.sum(1.0 / Y.values)


def switch_jump(E_prev_end: float, E_next_start_ideal: float) -> tuple[float, float]:
    """Signed stage-switch jump and its positive part."""
    delta = E_next_start_ideal - E_prev_end
    return delta, max(delta, 0.0)


@dataclass(frozen=True)
class CriterionReport:
    q_values: tuple[float, ...]
    q_star: float
    D_star: float
    threshold: float
    verdict: bool
    windows_bounded: bool
    full_domain: bool
    note: str


def continuation_check(
    E0: float,
    ledger: DefectLedger,
    areas: list[float],
    full_domain: bool = False,
) -> CriterionReport:
    """Evaluate the bounded-window continuation inequality E0 + D* < lam*q*/2
    for the lam of the ledger, which sets both D* and the threshold.

    areas are the window measures |Q| per stage, q = 1 for |Q| <= 1/2 and
    1/(2|Q|) otherwise, q* their infimum.  run_stagewise passes the nodal
    measure h^2 (N+1)^2 of each stage grid; at fixed h it grows by
    ((kN+1)/(N+1))^2 per stage.  The verdict only carries weight
    when the windows stay uniformly bounded; growing-window (full-domain)
    runs are reported but flagged as outside the hypothesis.
    """
    if not areas:
        raise ValueError("need at least one window area")
    if any(a <= 0.0 for a in areas):
        raise ValueError("window areas must be positive")
    q_values = tuple(1.0 if a <= 0.5 else 1.0 / (2.0 * a) for a in areas)
    q_star = min(q_values)
    D_star = ledger.D_star
    threshold = 0.5 * ledger.lam * q_star
    verdict = (E0 + D_star) < threshold
    windows_bounded = max(areas) <= areas[0] * (1.0 + 1e-12)
    if full_domain:
        note = (
            "full-domain run: window measure grows across stages, "
            "outside the bounded-window hypothesis; verdict is diagnostic only"
        )
    elif not windows_bounded:
        note = "window measure grows across stages; verdict is diagnostic only"
    else:
        note = "bounded windows: criterion applies as stated"
    return CriterionReport(
        q_values=q_values,
        q_star=q_star,
        D_star=D_star,
        threshold=threshold,
        verdict=verdict,
        windows_bounded=windows_bounded,
        full_domain=full_domain,
        note=note,
    )

