"""Property suites behind the `verify` command.

Each suite exercises one family of structural guarantees on deterministic
random data (fixed seeds) and reports measured residuals against pinned
tolerances:

  green        discrete Green identity, norm comparison
  unisolvence  12-point fit/eval round trip, cubic monomial reproduction
  edge         interface continuity of the cell polynomials
  laplace      local Laplacian identity of the prolongation, patch formula
  dissipation  minimizing-movement energy inequality
  oracle       Picard step vs minimizing-movement reference solutions
  changevar    amplitude rescaling identities and transfer consistency
  all          everything above
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    Field,
    build_rescaled_grid,
    gradient_bilinear,
    inner_product,
    l2_norm,
    laplacian_5pt,
    linf_norm,
)
from .energy import discrete_energy
from .prolongation import (
    REFERENCE_MATRIX,
    S12,
    edge_consistency_check,
    eval_cell,
    fit_cell,
    laplace_compat_check,
    laplacian_cell,
    make_transfer,
    prolong_stage,
)
from .stepper import mm_oracle_step, picard_implicit_step
from .drivers import StagewiseConfig, initial_rescaled_profile


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def __post_init__(self) -> None:
        # numpy scalars leak in from the comparisons; keep plain types for JSON
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "measured", float(self.measured))
        object.__setattr__(self, "tolerance", float(self.tolerance))


def _random_field(rng: np.random.Generator, N: int, A: float) -> Field:
    grid = build_rescaled_grid(A, N)
    g = 1.0 / A
    interior = g + rng.uniform(-0.3, 0.3, size=(N - 1, N - 1))
    return Field(grid=grid, interior=interior, g=g)


def suite_green() -> list[CheckResult]:
    rng = np.random.default_rng(20260101)
    worst = 0.0
    for _ in range(20):
        N = int(rng.integers(4, 9))
        A = float(rng.uniform(0.3, 1.5))
        Y = _random_field(rng, N, A)
        Phi = Field(
            grid=Y.grid,
            interior=rng.uniform(-1.0, 1.0, size=Y.interior.shape),
            g=0.0,
        )
        lhs = inner_product(-laplacian_5pt(Y), Phi.interior, Y.grid.h)
        rhs = gradient_bilinear(Y, Phi)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    results = [
        CheckResult(
            name="green_identity",
            passed=worst <= 1e-12,
            measured=worst,
            tolerance=1e-12,
            detail="20 random fields, relative",
        )
    ]
    worst_ratio = 0.0
    for _ in range(20):
        N = int(rng.integers(4, 9))
        h = float(rng.uniform(0.05, 0.5))
        Y = rng.uniform(-2.0, 2.0, size=(N - 1, N - 1))
        ratio = linf_norm(Y) * h / max(l2_norm(Y, h), 1e-300)
        worst_ratio = max(worst_ratio, ratio)
    results.append(
        CheckResult(
            name="linf_le_l2_over_h",
            passed=worst_ratio <= 1.0 + 1e-12,
            measured=worst_ratio,
            tolerance=1.0,
            detail="max of h*||Y||_inf / ||Y||_{2,h}",
        )
    )
    return results


def suite_unisolvence() -> list[CheckResult]:
    rng = np.random.default_rng(20260102)
    worst = 0.0
    for _ in range(200):
        data = rng.uniform(-5.0, 5.0, size=12)
        c = fit_cell(data)
        for idx, (a, b) in enumerate(S12):
            worst = max(worst, abs(eval_cell(c, float(a), float(b)) - data[idx]))
    results = [
        CheckResult(
            name="round_trip",
            passed=worst <= 1e-11,
            measured=worst,
            tolerance=1e-11,
            detail="200 random stencils",
        )
    ]
    worst_mono = 0.0
    cubic_monomials = [
        (p, q) for p in range(4) for q in range(4) if p + q <= 3
    ]
    for p, q in cubic_monomials:
        data = np.array([float(a) ** p * float(b) ** q for a, b in S12])
        c = fit_cell(data)
        for _ in range(20):
            t = float(rng.uniform(-1.0, 2.0))
            z = float(rng.uniform(-1.0, 2.0))
            worst_mono = max(worst_mono, abs(eval_cell(c, t, z) - t ** p * z ** q))
    results.append(
        CheckResult(
            name="degree3_reproduction",
            passed=worst_mono <= 1e-11,
            measured=worst_mono,
            tolerance=1e-11,
            detail="all 10 total-degree<=3 monomials, off-stencil points",
        )
    )
    cond = float(np.linalg.cond(REFERENCE_MATRIX))
    results.append(
        CheckResult(
            name="reference_matrix_condition",
            passed=cond < 1e3,
            measured=cond,
            tolerance=1e3,
            detail="condition number of the 12x12 reference matrix",
        )
    )
    return results


def suite_edge() -> list[CheckResult]:
    rng = np.random.default_rng(20260103)
    worst = 0.0
    for _ in range(5):
        Y = _random_field(rng, 8, 0.6)
        worst = max(worst, edge_consistency_check(Y))
    const = Field(
        grid=build_rescaled_grid(0.6, 6),
        interior=np.full((5, 5), 1.0 / 0.6),
        g=1.0 / 0.6,
    )
    const_gap = edge_consistency_check(const)
    return [
        CheckResult(
            name="interface_continuity",
            passed=worst <= 1e-11,
            measured=worst,
            tolerance=1e-11,
            detail="5 random fields, N=8",
        ),
        CheckResult(
            name="interface_continuity_constant",
            passed=const_gap <= 1e-13,
            measured=const_gap,
            tolerance=1e-13,
            detail="constant admissible state",
        ),
    ]


def suite_laplace() -> list[CheckResult]:
    rng = np.random.default_rng(20260104)
    worst = 0.0
    for _ in range(3):
        Y = _random_field(rng, 8, 0.6)
        spec = make_transfer(0.6, 2)  # k=2 runs the synthetic k=4 refinement
        worst = max(worst, laplace_compat_check(Y, spec))
    results = [
        CheckResult(
            name="local_laplace_identity",
            passed=worst <= 1e-10,
            measured=worst,
            tolerance=1e-10,
            detail="3 random fields, synthetic k=4 refinement",
        )
    ]
    worst_fd = 0.0
    # h = 1 isolates the polynomial content; the 1/h^2 prefactor is exact
    # and would only amplify the finite-difference round-off here
    h = 1.0
    for _ in range(50):
        c = fit_cell(rng.uniform(-2.0, 2.0, size=12))
        t = float(rng.uniform(0.0, 1.0))
        z = float(rng.uniform(0.0, 1.0))
        d = 1e-4
        fd = (
            eval_cell(c, t + d, z)
            + eval_cell(c, t - d, z)
            + eval_cell(c, t, z + d)
            + eval_cell(c, t, z - d)
            - 4.0 * eval_cell(c, t, z)
        ) / (d * d * h * h)
        worst_fd = max(worst_fd, abs(fd - laplacian_cell(c, t, z, h)))
    results.append(
        CheckResult(
            name="patch_laplacian_vs_fd",
            passed=worst_fd <= 1e-6,
            measured=worst_fd,
            tolerance=1e-6,
            detail="50 random coefficient sets, centered differences",
        )
    )
    return results


def _oracle_case(rng: np.random.Generator) -> tuple[Field, float, float, float]:
    """A random 3x3-interior state with (ds, lam, A) = (1e-3, 20, 0.6)."""
    A = 0.6
    return _random_field(rng, 4, A), 1e-3, 20.0, A


def suite_dissipation() -> list[CheckResult]:
    rng = np.random.default_rng(20260105)
    worst = -np.inf
    for _ in range(50):
        Z, ds, lam, A = _oracle_case(rng)
        out = mm_oracle_step(Z, ds, lam, A)
        diff = out.interior - Z.interior
        penalty = (A * A / (2.0 * ds)) * inner_product(diff, diff, Z.grid.h)
        lhs = discrete_energy(out, A, lam).total + penalty
        rhs = discrete_energy(Z, A, lam).total
        worst = max(worst, lhs - rhs)
    return [
        CheckResult(
            name="mm_dissipation_inequality",
            passed=worst <= 1e-12,
            measured=worst,
            tolerance=1e-12,
            detail="50 random 3x3 cases, max of lhs - rhs",
        )
    ]


def suite_oracle() -> list[CheckResult]:
    rng = np.random.default_rng(20260106)
    worst_gap = 0.0
    for _ in range(25):
        Z, ds, lam, A = _oracle_case(rng)
        picard = picard_implicit_step(Z, ds, lam, A).next
        oracle = mm_oracle_step(Z, ds, lam, A)
        worst_gap = max(worst_gap, linf_norm(picard.interior - oracle.interior))
    results = [
        CheckResult(
            name="picard_vs_mm",
            passed=worst_gap <= 1e-6,
            measured=worst_gap,
            tolerance=1e-6,
            detail="25 random 3x3 cases",
        )
    ]
    worst_l0 = 0.0
    for _ in range(5):
        Z, ds, _, A = _oracle_case(rng)
        picard = picard_implicit_step(Z, ds, 0.0, A).next
        oracle = mm_oracle_step(Z, ds, 0.0, A)
        worst_l0 = max(worst_l0, linf_norm(picard.interior - oracle.interior))
    results.append(
        CheckResult(
            name="lam_zero_closed_form",
            passed=worst_l0 <= 1e-10,
            measured=worst_l0,
            tolerance=1e-10,
            detail="source-free quadratic minimum vs descent",
        )
    )
    worst_seed = 0.0
    for _ in range(20):
        Z, ds, lam, A = _oracle_case(rng)
        eta = Z.min_interior()
        assert ds < eta ** 3 / (16.0 * lam)
        from_z = picard_implicit_step(Z, ds, lam, A).next
        seed = Z.with_interior(1.05 * Z.interior)
        from_seed = picard_implicit_step(Z, ds, lam, A, seed=seed).next
        worst_seed = max(worst_seed, linf_norm(from_z.interior - from_seed.interior))
    results.append(
        CheckResult(
            name="two_seed_uniqueness",
            passed=worst_seed <= 1e-8,
            measured=worst_seed,
            tolerance=1e-8,
            detail="Picard from Z vs from 1.05*Z, ds below the convexity bound",
        )
    )
    return results


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
    spec = make_transfer(A_from, k)
    errors = []
    for N in REFINEMENT_LEVELS:
        grid = build_rescaled_grid(A_from, N)
        L = grid.L
        xi = grid.interior_nodes_1d()
        X1, X2 = np.meshgrid(xi, xi, indexing="ij")
        Y = Field(
            grid=grid,
            interior=_boundary_flat_profile(X1, X2, L, A_from),
            g=1.0 / A_from,
        )
        fine = prolong_stage(Y, spec)
        eb_fine = discrete_energy(fine, spec.A_to, 1.0)
        fxi = fine.grid.interior_nodes_1d()
        F1, F2 = np.meshgrid(fxi, fxi, indexing="ij")
        ideal = Field(
            grid=fine.grid,
            interior=spec.scale
            * _boundary_flat_profile(F1 / k, F2 / k, L, A_from),
            g=fine.g,
        )
        eb_ideal = discrete_energy(ideal, spec.A_to, 1.0)
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
    E_resc = discrete_energy(W, cfg.A0, cfg.lam).total
    phys = build_rescaled_grid(1.0, cfg.N0)
    v = Field(grid=phys, interior=cfg.A0 * W.interior, g=1.0)
    E_phys = discrete_energy(v, 1.0, cfg.lam).total
    eq_err = abs(E_resc - E_phys)
    results = [
        CheckResult(
            name="stage0_energy_equality",
            passed=eq_err <= 1e-12,
            measured=eq_err,
            tolerance=1e-12,
            detail="rescaled energy vs physical energy of v = A0*W",
        )
    ]
    spec = make_transfer(0.6, 2)
    const = Field(
        grid=build_rescaled_grid(0.6, 6),
        interior=np.full((5, 5), 1.0 / 0.6),
        g=1.0 / 0.6,
    )
    out = prolong_stage(const, spec)
    const_err = float(np.max(np.abs(out.interior - 1.0 / spec.A_to)))
    results.append(
        CheckResult(
            name="constant_prolongation",
            passed=const_err <= 1e-13,
            measured=const_err,
            tolerance=1e-13,
            detail="constant state 1/A_from maps to 1/A_to",
        )
    )
    errors = transfer_refinement_errors()
    orders = []
    for (e0, r0), (e1, r1) in zip(errors, errors[1:]):
        orders.append(float(np.log2(e0 / e1)))
        orders.append(float(np.log2(r0 / r1)))
    min_order = min(orders)
    results.append(
        CheckResult(
            name="transfer_refinement_order",
            passed=min_order >= 2.0,
            measured=min_order,
            tolerance=2.0,
            detail=f"observed orders {['%.2f' % o for o in orders]} on 3 levels",
        )
    )
    return results


SUITES = {
    "green": suite_green,
    "unisolvence": suite_unisolvence,
    "edge": suite_edge,
    "laplace": suite_laplace,
    "dissipation": suite_dissipation,
    "oracle": suite_oracle,
    "changevar": suite_changevar,
}


def run_suite(name: str) -> list[CheckResult]:
    if name == "all":
        out: list[CheckResult] = []
        for fn in SUITES.values():
            out.extend(fn())
        return out
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name]()
