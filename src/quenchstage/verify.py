"""Property suites behind the `verify` command.

Each suite exercises one family of structural guarantees on deterministic
random data and reports measured residuals against pinned tolerances.  Each
suite draws from its own random.Random(seed) through random() alone, whose
stream CPython keeps for a seed across versions; numpy.random would load its
generators and, through secrets, OpenSSL.  Every state is drawn on the
quarter frame (grid.Frame), as every run's is, so the suites step, score and
transfer through the code the runs take; they check symmetric data only.
The suites:

  green        Green identity of -lap_h and Frame.grad_norm_sq
  unisolvence  cell_map, the map the transfer applies: identity at the 12
               stencil nodes, cubic monomial reproduction, the 1-norm
               condition of the reference matrix
  edge         interface continuity of the cell polynomials
  laplace      local Laplacian identity of the prolongation, cell_map's
               Laplacian vs differences of its values
  dissipation  minimizing-movement energy inequality
  oracle       Picard step vs minimizing-movement reference solutions
  changevar    amplitude rescaling identities and transfer consistency
  all          everything above

A check passes exactly when its measured value is at most its tolerance;
CheckResult sets `passed` by that one rule, so a report reads as its numbers.
A bound on a rate is stated as an upper bound too: transfer_refinement_order
measures the worst error ratio per doubling of N against 1/4 (order 2).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .grid import Field, Frame, Grid, laplacian_5pt
from .energy import discrete_energy
from .prolongation import (
    REFERENCE_INVERSE,
    REFERENCE_MATRIX,
    S12,
    cell_map,
    edge_consistency_check,
    laplace_compat_check,
    prolong_stage,
)
from .stepper import (
    DirichletSolver,
    NumericalError,
    mm_oracle_step,
    movement_penalty,
    nonlocal_source,
    picard_implicit_step,
)
from .drivers import StagewiseConfig, initial_rescaled_profile


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool = field(init=False)
    measured: float
    tolerance: float
    detail: str = ""

    def __post_init__(self) -> None:
        # numpy scalars leak in from the sums; keep plain types for JSON
        object.__setattr__(self, "measured", float(self.measured))
        object.__setattr__(self, "tolerance", float(self.tolerance))
        object.__setattr__(self, "passed", self.measured <= self.tolerance)


def _uniform(rng: random.Random, low: float, high: float, shape=()):
    """Uniform draws on [low, high) from rng.random(), in C order: a float
    for shape (), else an array of that shape."""
    if not shape:
        return low + (high - low) * rng.random()
    u = np.fromiter(iter(rng.random, None), float, math.prod(shape))
    return low + (high - low) * u.reshape(shape)


def _random_field(rng: random.Random, N: int, A: float) -> Field:
    frame = Frame(Grid(A, N))
    return Field(frame, frame.grid.g + _uniform(rng, -0.3, 0.3, frame.shape))


def _one_norm(M: np.ndarray) -> float:
    """The matrix 1-norm, the largest absolute column sum; the condition
    check takes it instead of the 2-norm, whose SVD would call LAPACK."""
    return float(np.abs(M).sum(axis=0).max())


def suite_green() -> list[CheckResult]:
    rng = random.Random(20260101)
    worst = 0.0
    for _ in range(20):
        N = 4 + int(5 * rng.random())
        Y = _random_field(rng, N, _uniform(rng, 0.3, 1.5))
        # a test function with boundary value 0, given by its frame values
        Phi = _uniform(rng, -1.0, 1.0, Y.values.shape)
        lhs = Y.grid.h * Y.grid.h * Y.frame.sum(-laplacian_5pt(Y) * Phi)
        # Y +- Phi keep Y's boundary value g: the energy's form, polarized
        form = Y.frame.grad_norm_sq
        rhs = (form(Y.values + Phi) - form(Y.values - Phi)) / 4.0
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return [
        CheckResult(
            "green_identity", worst, 1e-12,
            "20 random fields, relative, against Frame.grad_norm_sq",
        )
    ]


def suite_unisolvence() -> list[CheckResult]:
    rng = random.Random(20260102)
    a, b = np.array(S12).T
    # the map at the stencil nodes is the identity on every stencil
    data = _uniform(rng, -5.0, 5.0, (200, 12))
    worst = np.max(np.abs(data @ cell_map(a, b).T - data))
    # each cubic monomial, sampled on the stencil, at 20 off-stencil points
    p, q = np.array([(p, q) for p in range(4) for q in range(4) if p + q <= 3]).T
    points = _uniform(rng, -1.0, 2.0, (len(p), 20, 2))
    t, z = points[..., 0], points[..., 1]
    stencils = a ** p[:, None] * b ** q[:, None]
    got = np.einsum("mns,ms->mn", cell_map(t, z), stencils)
    worst_mono = np.max(np.abs(got - t ** p[:, None] * z ** q[:, None]))
    return [
        CheckResult("round_trip", worst, 1e-11, "200 random stencils"),
        CheckResult(
            "degree3_reproduction", worst_mono, 1e-11,
            "all 10 total-degree<=3 monomials, off-stencil points",
        ),
        CheckResult(
            "reference_matrix_condition",
            _one_norm(REFERENCE_MATRIX) * _one_norm(REFERENCE_INVERSE), 1e3,
            "1-norm condition number of the 12x12 reference matrix",
        ),
    ]


def suite_edge() -> list[CheckResult]:
    rng = random.Random(20260103)
    worst = 0.0
    for _ in range(5):
        Y = _random_field(rng, 8, 0.6)
        worst = max(worst, edge_consistency_check(Y))
    frame = Frame(Grid(0.6, 6))
    const = Field(frame, np.full(frame.shape, frame.grid.g))
    const_gap = edge_consistency_check(const)
    return [
        CheckResult("interface_continuity", worst, 1e-11, "5 random fields, N=8"),
        CheckResult(
            "interface_continuity_constant", const_gap, 1e-13,
            "constant admissible state",
        ),
    ]


def suite_laplace() -> list[CheckResult]:
    rng = random.Random(20260104)
    worst = 0.0
    for _ in range(3):
        Y = _random_field(rng, 8, 0.6)
        worst = max(worst, laplace_compat_check(Y, 4))
    data = _uniform(rng, -2.0, 2.0, (50, 12))
    t, z = _uniform(rng, 0.0, 1.0, (50, 2)).T
    d = 1e-4

    def value(dt: float, dz: float) -> np.ndarray:
        return np.einsum("ns,ns->n", cell_map(t + dt, z + dz), data)

    fd = (value(d, 0) + value(-d, 0) + value(0, d) + value(0, -d)
          - 4.0 * value(0, 0)) / (d * d)
    lap = np.einsum("ns,ns->n", cell_map(t, z, laplacian=True), data)
    worst_fd = np.max(np.abs(fd - lap))
    return [
        CheckResult(
            "local_laplace_identity", worst, 1e-10,
            "3 random fields, synthetic k=4 refinement",
        ),
        CheckResult(
            "patch_laplacian_vs_fd", worst_fd, 1e-6,
            "50 random stencils, centered differences of the value map",
        ),
    ]


def _oracle_case(rng: random.Random) -> tuple[Field, float, float]:
    """A random state at A = 0.6, N = 4 (a 3x3 interior, a 2x2 frame), with
    (ds, lam) = (1e-3, 20)."""
    return _random_field(rng, 4, 0.6), 1e-3, 20.0


def suite_dissipation() -> list[CheckResult]:
    rng = random.Random(20260105)
    worst = -np.inf
    for _ in range(50):
        Z, ds, lam = _oracle_case(rng)
        out = mm_oracle_step(Z, ds, lam)
        # scored again, not read from the oracle: the check stays independent
        lhs = discrete_energy(out, lam).total + movement_penalty(out, Z, ds)
        rhs = discrete_energy(Z, lam).total
        worst = max(worst, lhs - rhs)
    return [
        CheckResult(
            "mm_dissipation_inequality", worst, 1e-12,
            "50 random 3x3 cases, max of lhs - rhs",
        )
    ]


def suite_oracle() -> list[CheckResult]:
    rng = random.Random(20260106)
    worst_gap = 0.0
    for _ in range(25):
        Z, ds, lam = _oracle_case(rng)
        picard, _, _ = picard_implicit_step(Z, DirichletSolver(Z.frame, ds), lam)
        oracle = mm_oracle_step(Z, ds, lam)
        worst_gap = max(worst_gap, float(np.max(np.abs(picard.values - oracle.values))))
    worst_l0 = 0.0
    for _ in range(5):
        Z, ds, _ = _oracle_case(rng)
        picard, _, _ = picard_implicit_step(Z, DirichletSolver(Z.frame, ds), 0.0)
        oracle = mm_oracle_step(Z, ds, 0.0)
        worst_l0 = max(worst_l0, float(np.max(np.abs(picard.values - oracle.values))))
    worst_seed = worst_convex = 0.0
    for _ in range(20):
        Z, ds, lam = _oracle_case(rng)
        # uniqueness needs ds <= eta^3/(16 lam), eta the state's minimum
        worst_convex = max(worst_convex, 16.0 * lam * ds / Z.min_interior() ** 3)
        solver = DirichletSolver(Z.frame, ds)
        from_z, _, _ = picard_implicit_step(Z, solver, lam)
        # the first sweep of the second start reads the source of 1.05*Z
        perturbed, _ = nonlocal_source(1.05 * Z.values, Z.frame, lam)
        from_seed, _, _ = picard_implicit_step(Z, solver, lam, perturbed)
        gap = float(np.max(np.abs(from_z.values - from_seed.values)))
        worst_seed = max(worst_seed, gap)
    return [
        CheckResult("picard_vs_mm", worst_gap, 1e-6, "25 random 3x3 cases"),
        CheckResult(
            "lam_zero_closed_form", worst_l0, 1e-10,
            "source-free quadratic minimum vs descent",
        ),
        CheckResult(
            "two_seed_uniqueness", worst_seed, 1e-8,
            "Picard from Z vs from 1.05*Z, same step and lam",
        ),
        CheckResult(
            "uniqueness_convexity", worst_convex, 1.0,
            "max of 16*lam*ds/min(Z)^3 over the two-seed cases",
        ),
    ]


def _boundary_flat_profile(x1, x2, L, A, beta=0.35):
    # quartic bump: value and gradient vanish on the boundary of [-L, L]^2
    return 1.0 / A + beta * (1 - (x1 / L) ** 2) ** 2 * (1 - (x2 / L) ** 2) ** 2


REFINEMENT_LEVELS = (8, 16, 32)  # coarse N of the transfer refinement study


def transfer_refinement_errors():
    """Energy-sum errors of the prolongation against the exact rescaling.

    For each N in REFINEMENT_LEVELS the smooth profile is sampled on an
    N-cell stage-A grid, prolonged with k = 2, and the amplitude-weighted
    Dirichlet and reciprocal sums of the prolonged field are compared against
    the same sums of the exactly rescaled profile sampled on the fine grid.
    The continuum rescaling preserves both sums, so the differences isolate
    the transfer (interpolation) defect at fixed data.
    """
    k, A_from = 2, 0.6
    errors = []
    for N in REFINEMENT_LEVELS:
        frame = Frame(Grid(A_from, N))
        L = frame.grid.L
        xi = frame.nodes_1d()
        X1, X2 = np.meshgrid(xi, xi, indexing="ij")
        Y = Field(frame, _boundary_flat_profile(X1, X2, L, A_from))
        fine = prolong_stage(Y, k)
        eb_fine = discrete_energy(fine, 1.0)
        fxi = fine.frame.nodes_1d()
        F1, F2 = np.meshgrid(fxi, fxi, indexing="ij")
        ideal = Field(
            fine.frame,
            k ** (2.0 / 3.0) * _boundary_flat_profile(F1 / k, F2 / k, L, A_from),
        )
        eb_ideal = discrete_energy(ideal, 1.0)
        errors.append(
            (
                abs(eb_fine.dirichlet - eb_ideal.dirichlet),
                abs((eb_fine.K - 1.0) - (eb_ideal.K - 1.0)),
            )
        )
    return errors


def suite_changevar() -> list[CheckResult]:
    cfg = StagewiseConfig()
    W = initial_rescaled_profile(cfg.A0, cfg.N0, cfg.u0_amplitude)
    E_resc = discrete_energy(W, cfg.lam).total
    v = Field(Frame(Grid(1.0, cfg.N0)), cfg.A0 * W.values)
    E_phys = discrete_energy(v, cfg.lam).total
    eq_err = abs(E_resc - E_phys)
    frame = Frame(Grid(0.6, 6))
    const = Field(frame, np.full(frame.shape, frame.grid.g))
    out = prolong_stage(const, 2)
    const_err = float(np.max(np.abs(out.values - 1.0 / out.grid.A)))
    errors = transfer_refinement_errors()
    # error ratios per doubling of N, both sums; order >= 2 is ratio <= 1/4
    ratios = [
        fine / coarse
        for pair in zip(errors, errors[1:])
        for coarse, fine in zip(*pair)
    ]
    orders = ["%.2f" % -np.log2(q) for q in ratios]
    return [
        CheckResult(
            "stage0_energy_equality", eq_err, 1e-12,
            "rescaled energy vs physical energy of v = A0*W",
        ),
        CheckResult(
            "constant_prolongation", const_err, 1e-13,
            "constant state 1/A_from maps to 1/A_to",
        ),
        CheckResult(
            "transfer_refinement_order", max(ratios), 0.25,
            f"max error ratio per doubling of N, orders {orders} on 3 levels",
        ),
    ]


SUITES = {
    "green": suite_green,
    "unisolvence": suite_unisolvence,
    "edge": suite_edge,
    "laplace": suite_laplace,
    "dissipation": suite_dissipation,
    "oracle": suite_oracle,
    "changevar": suite_changevar,
}


class SuiteError(NumericalError):
    """A numerical failure inside a suite; `checks` holds the checks of the
    suites that completed before it."""

    def __init__(self, message: str, checks: list[CheckResult]) -> None:
        super().__init__(message)
        self.checks = checks


def run_suite(name: str) -> list[CheckResult]:
    """The checks of one suite, or of every suite in order for "all".  A
    numerical failure inside a suite is re-raised as a SuiteError that names
    the suite and carries the checks completed before it."""
    names = list(SUITES) if name == "all" else [name]
    out: list[CheckResult] = []
    for suite in names:
        try:
            out.extend(SUITES[suite]())
        except NumericalError as exc:
            raise SuiteError(f"verify {suite}: {exc}", out) from None
    return out
