"""Implicit time stepping for the rescaled equation at frozen amplitude.

One step advances Z by backward Euler on the diffusion part with Picard
iteration on the nonlocal source:

    (1/ds) Y - Lap_h Y = Z/ds - lam / (Y_prev^2 K(Y_prev)^2)

with constant Dirichlet data g.  The step size ds, lam and the frozen
amplitude A are plain arguments: the run configs validate them, and
DirichletSolver rejects ds <= 0.  Since g is constant, Lap_h g = 0 and the
step solves for the deviation Y - g, which vanishes on the boundary:

    (1/ds - Lap_h)(Y - g) = (Z - g)/ds - lam / (Y_prev^2 K(Y_prev)^2)

The operator (I/ds - Lap_h) with zero Dirichlet data is inverted by
sine-basis diagonalization, set up once per (grid, ds) and reused across
Picard sweeps and across steps.  Values are clipped at CLIP only inside
reciprocal evaluations, K is recomputed from the full current iterate each
sweep, and the iteration stops once a sweep moves the iterate by less than
PICARD_TOL relative (at most PICARD_MAX sweeps).  It starts from Z unless the
caller passes a seed.  The stage and direct drivers pass extrapolated_seed: the
polynomial of degree SEED_ORDER through the run's last accepted states (fewer
at the start of a run or stage), evaluated one step ahead (Fischer 1998),
which roughly halves the sweeps per step; the stopping test is unchanged, so
the step converges to the same fixed point from either start.  Besides the new
state the step returns E(next) and the movement penalty
(A^2/2ds)*||next - prev||^2_{2,h}, the two numbers the stage loop's energy
ledger needs.

A minimizing-movement oracle doubles the step on verification-size grids
(<= 16 interior nodes): it minimizes E(Y) + (A^2/2ds)*||Y - Z||_{2,h}^2 by
plain gradient descent from Z with backtracking step sizes, run until the
first-order residual

    R = (Y - Z)/ds - Lap_h Y + lam/(Y^2 K^2)

drops below ORACLE_TOL in max norm.  The oracle shares no linear algebra
with the Picard path.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .grid import Field, Grid, inner_product, laplacian_5pt
from .energy import discrete_energy, reciprocal_K

# Degree of the Picard seed polynomial.  Degree 5 halves the sweeps again but
# keeps six grid-sized states alive per stage; 3 keeps four.
SEED_ORDER = 3
PICARD_TOL = 1e-10  # relative max-norm change that ends the iteration
PICARD_MAX = 50  # sweeps before a step is reported as not converged
CLIP = 1e-12  # floor on iterate values inside the reciprocal source
ORACLE_TOL = 1e-10  # max-norm first-order residual that ends the descent
ORACLE_MAX_ITERS = 2000  # descent steps before the oracle gives up


@dataclass(frozen=True)
class StepReport:
    next: Field
    picard_iters: int
    converged: bool
    energy: float  # E(next)
    penalty: float  # (A^2/2ds)*||next - prev||^2_{2,h}


class OracleStagnation(RuntimeError):
    """Raised when the descent oracle cannot reach its residual target."""


class DirichletSolver:
    """Sine-basis diagonalization of (I/ds - Lap_h) on the interior of a grid,
    with zero Dirichlet data.

    The orthonormal sine matrix S[i, j] = sqrt(2/N) sin(pi i j / N),
    i, j = 1..N-1, is symmetric with S @ S = I and diagonalizes the
    one-dimensional Dirichlet second difference, with eigenvalues
    mu_j = (2 - 2 cos(pi j / N)) / h^2.  The two-dimensional operator is
    therefore diagonal in the S x S basis with entries 1/ds + mu_i + mu_j
    (Buzbee, Golub & Nielson 1970), and a solve is four dense products.
    The basis and the inverse eigenvalues are built once and reused for
    every Picard sweep and every step on the same grid with the same ds.
    """

    def __init__(self, grid: Grid, ds: float):
        if ds <= 0.0:
            raise ValueError("ds must be positive")
        self.grid = grid
        self.ds = ds
        N = grid.N
        j = np.arange(1, N)
        self._S = np.sqrt(2.0 / N) * np.sin(np.pi * np.outer(j, j) / N)
        mu = (2.0 - 2.0 * np.cos(np.pi * j / N)) / grid.h ** 2
        self._inv = 1.0 / (1.0 / ds + mu[:, None] + mu[None, :])

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        S = self._S
        return S @ ((S @ rhs @ S) * self._inv) @ S


def extrapolated_seed(history: Sequence[np.ndarray]) -> np.ndarray:
    """Picard start for the next step from the last accepted states.

    history holds accepted interiors of one run or stage on one grid, oldest
    first.  With p = min(SEED_ORDER, len(history) - 1) the seed is the
    degree-p polynomial through the last p + 1 states evaluated one step
    ahead, sum_{i=0..p} (-1)^i C(p+1, i+1) Z_{n-i}: 4Z_n - 6Z_{n-1} +
    4Z_{n-2} - Z_{n-3} for p = 3, and a copy of Z_n for a single state.
    """
    p = min(SEED_ORDER, len(history) - 1)
    seed = (p + 1) * history[-1]
    for i in range(1, p + 1):
        seed += (-1) ** i * math.comb(p + 1, i + 1) * history[-1 - i]
    return seed


def picard_implicit_step(
    Z: Field,
    ds: float,
    lam: float,
    A: float,
    solver: DirichletSolver | None = None,
    seed: Field | None = None,
) -> StepReport:
    """One backward-Euler step of size ds with Picard iteration on the
    nonlocal source lam/(Y^2 K^2) at amplitude A.

    The optional solver must match (Z.grid, ds); passing one amortizes
    its set-up over a whole stage.  The optional seed overrides the
    default Picard start Y(0) = Z; the drivers pass extrapolated_seed, the
    local-uniqueness checks a perturbed Z.  The start changes the number of
    sweeps, not the stopping test.
    """
    if not Z.is_admissible():
        raise ValueError("Picard step requires a positive previous state")
    if solver is None:
        solver = DirichletSolver(Z.grid, ds)
    if solver.grid != Z.grid:
        raise ValueError("solver grid does not match the state grid")
    if solver.ds != ds:
        raise ValueError("solver ds does not match the step size")

    h = Z.grid.h
    g = Z.g
    base_rhs = (Z.interior - g) / ds

    Y = seed.interior if seed is not None else Z.interior
    iters = 0
    converged = False
    for _ in range(PICARD_MAX):
        Yc = np.maximum(Y, CLIP)
        K = 1.0 + A * A * h * h * float(np.sum(1.0 / Yc))
        # the source stays unnamed so it is freed before the solve's
        # temporaries exist: live grid arrays set large-N peak memory
        Ynew = g + solver.solve(base_rhs - lam / (Yc * Yc * K * K))
        iters += 1
        gap = float(np.max(np.abs(Ynew - Y)))
        Y = Ynew
        if gap < PICARD_TOL * max(1.0, float(np.max(np.abs(Ynew)))):
            converged = True
            break

    nxt = Z.with_interior(Y)
    diff = Y - Z.interior
    return StepReport(
        next=nxt,
        picard_iters=iters,
        converged=converged,
        energy=discrete_energy(nxt, A, lam).total,
        penalty=(A * A / (2.0 * ds)) * inner_product(diff, diff, h),
    )


def euler_lagrange_residual(
    Y: Field, Z: Field, ds: float, lam: float, A: float
) -> np.ndarray:
    """Residual (Y - Z)/ds - Lap_h Y + lam/(Y^2 K^2) of the implicit step."""
    K = reciprocal_K(Y, A)
    if math.isinf(K):
        raise ValueError("residual undefined on the vanishing branch")
    source = lam / (Y.interior ** 2 * K * K)
    return (Y.interior - Z.interior) / ds - laplacian_5pt(Y) + source


def mm_oracle_step(
    Z: Field,
    ds: float,
    lam: float,
    A: float,
) -> Field:
    """Minimizing-movement reference step on verification-size grids.

    Gradient descent from Z on J(Y) = E(Y) + (A^2/2ds)*||Y - Z||^2 with
    backtracking (halved) step sizes.  Near the minimum the objective
    decrease falls below float resolution, so the line search accepts steps
    within a few ulps of J as well; the descent map still contracts the
    residual there.  Stops once the first-order residual is below
    ORACLE_TOL in max norm; stagnation above the target raises.
    """
    if Z.grid.interior_count > 16:
        raise ValueError("oracle is restricted to grids with <= 16 interior nodes")
    if not Z.is_admissible():
        raise ValueError("oracle requires a positive previous state")

    h = Z.grid.h
    h2 = h * h
    scale = A * A * h2

    def objective(Yarr: np.ndarray) -> float:
        cand = Z.with_interior(Yarr)
        diff = Yarr - Z.interior
        penalty = (A * A / (2.0 * ds)) * h2 * float(np.sum(diff * diff))
        return discrete_energy(cand, A, lam).total + penalty

    Y = Z.interior.copy()
    alpha0 = ds / scale
    for _ in range(ORACLE_MAX_ITERS):
        cand = Z.with_interior(Y)
        R = euler_lagrange_residual(cand, Z, ds, lam, A)
        if float(np.max(np.abs(R))) < ORACLE_TOL:
            return cand
        G = scale * R  # plain gradient of J
        JY = objective(Y)
        gsq = h2 * float(np.sum(G * G))
        slack = 8.0 * np.finfo(float).eps * abs(JY)
        a = alpha0
        while True:
            Yn = Y - a * G
            if Yn.min() > 0.0 and objective(Yn) <= JY - 1e-4 * a * gsq + slack:
                break
            a *= 0.5
            if a < 1e-18:
                raise OracleStagnation(
                    "descent stagnated above the residual target"
                )
        Y = Yn
    raise OracleStagnation("descent did not reach the residual target")
