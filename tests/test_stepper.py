"""Implicit step and minimizing-movement oracle checks.

The linear-algebra oracle here assembles the backward-Euler system with
explicit loops and solves it densely, sharing nothing with the sine-basis
diagonalization used by the package.
"""

import numpy as np
import pytest

from quenchstage import stepper
from quenchstage.drivers import StagewiseConfig, initial_rescaled_profile
from quenchstage.energy import discrete_energy
from quenchstage.grid import Field, Grid, build_rescaled_grid
from quenchstage.stepper import (
    SEED_ORDER,
    DirichletSolver,
    euler_lagrange_residual,
    extrapolated_seed,
    mm_oracle_step,
    picard_implicit_step,
)


def dense_operator(grid, ds):
    """Loop-built (1/ds) I - Lap_h matrix in row-major interior ordering."""
    n = grid.N - 1
    h2 = grid.h ** 2
    M = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            r = i * n + j
            M[r, r] = 1.0 / ds + 4.0 / h2
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ii, jj = i + di, j + dj
                if 0 <= ii < n and 0 <= jj < n:
                    M[r, ii * n + jj] = -1.0 / h2
    return M


def dense_be_solve(Z, ds):
    """Source-free backward-Euler step via the loop-built dense system."""
    n = Z.grid.N - 1
    h2 = Z.grid.h ** 2
    rhs = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            sides = (i == 0) + (i == n - 1) + (j == 0) + (j == n - 1)
            rhs[i, j] = Z.interior[i, j] / ds + sides * Z.g / h2
    sol = np.linalg.solve(dense_operator(Z.grid, ds), rhs.ravel())
    return sol.reshape(n, n)


def single_node_field(value, g=1.0):
    grid = Grid(L=1.0, N=2)
    return Field(grid=grid, interior=np.array([[value]]), g=g)


def random_state(N=4, A=0.6, lo=1.0, hi=2.0, seed=0):
    rng = np.random.default_rng(seed)
    grid = build_rescaled_grid(A, N)
    n = N - 1
    return Field(grid=grid, interior=rng.uniform(lo, hi, (n, n)), g=1.0 / A)


class TestDirichletSolver:
    # N = 2 is the single-interior-node grid
    @pytest.mark.parametrize("N", [2, 3, 5, 12])
    def test_matches_dense_loop_system(self, N):
        Z = random_state(N=N, seed=3)
        ds = 2e-3
        n = N - 1
        solver = DirichletSolver(Z.grid, ds)
        rng = np.random.default_rng(4)
        rhs = rng.normal(size=(n, n))
        got = solver.solve(rhs)
        want = np.linalg.solve(dense_operator(Z.grid, ds), rhs.ravel()).reshape(n, n)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            DirichletSolver(build_rescaled_grid(0.6, 4), 0.0)


class TestPicardStep:
    def test_source_free_two_sweeps_one_solve(self):
        # with lam = 0 the source is exactly 0, so the second sweep repeats
        # the first solve bit for bit and the gap test ends the iteration
        Z = random_state(seed=5)
        ds, lam = 1e-3, 0.0
        rep = picard_implicit_step(Z, ds, lam, 0.6)
        assert rep.picard_iters == 2
        assert rep.converged
        # the step solves for the deviation from the boundary value g
        g = Z.g
        one_solve = g + DirichletSolver(Z.grid, ds).solve((Z.interior - g) / ds)
        assert np.array_equal(rep.next.interior, one_solve)

    def test_source_free_constant_fixed_point(self):
        grid = build_rescaled_grid(0.6, 4)
        g = 1.0 / 0.6
        Z = Field(grid=grid, interior=np.full((3, 3), g), g=g)
        rep = picard_implicit_step(Z, 1e-3, 0.0, 0.6)
        assert np.max(np.abs(rep.next.interior - g)) < 1e-13

    def test_source_free_matches_dense_oracle(self):
        Z = random_state(N=5, seed=6)
        ds, lam = 1e-3, 0.0
        rep = picard_implicit_step(Z, ds, lam, 0.6)
        want = dense_be_solve(Z, ds)
        assert np.max(np.abs(rep.next.interior - want)) < 1e-11

    def test_converged_state_solves_euler_lagrange(self):
        Z = random_state(seed=7)
        ds, lam = 1e-3, 20.0
        rep = picard_implicit_step(Z, ds, lam, 0.6)
        assert rep.converged
        R = euler_lagrange_residual(rep.next, Z, ds, lam, 0.6)
        assert np.max(np.abs(R)) < 1e-8

    def test_two_seeds_same_fixed_point(self):
        Z = random_state(seed=8)
        eta = Z.min_interior()
        ds, lam = 1e-3, 20.0
        assert ds < eta ** 3 / (16.0 * lam)
        rep_a = picard_implicit_step(Z, ds, lam, 0.6)
        seed = Z.with_interior(1.05 * Z.interior)
        rep_b = picard_implicit_step(Z, ds, lam, 0.6, seed=seed)
        assert rep_a.converged and rep_b.converged
        assert np.max(np.abs(rep_a.next.interior - rep_b.next.interior)) < 1e-8

    def test_positivity_below_step_bound(self):
        Z = random_state(lo=1.5, hi=2.0, seed=9)
        eta = Z.min_interior()
        A, lam = 0.6, 20.0
        E = discrete_energy(Z, A, lam).total
        h = Z.grid.h
        # below the step bound the implicit minimizer stays positive
        # (min >= eta/2) and is locally unique
        bound = min(A * A * h * h * eta * eta / (8.0 * E), eta ** 3 / (16.0 * lam))
        rep = picard_implicit_step(Z, 0.5 * bound, lam, A)
        assert rep.converged
        assert rep.next.min_interior() >= 0.5 * eta

    def test_agrees_with_descent_oracle(self):
        ds, lam = 1e-3, 20.0
        for seed in range(5):
            Z = random_state(seed=20 + seed)
            rep = picard_implicit_step(Z, ds, lam, 0.6)
            ref = mm_oracle_step(Z, ds, lam, 0.6)
            assert np.max(np.abs(rep.next.interior - ref.interior)) < 1e-6

    def test_nonconvergence_flagged_not_raised(self, monkeypatch):
        monkeypatch.setattr(stepper, "PICARD_MAX", 1)
        Z = random_state(seed=10)
        ds, lam = 1e-3, 20.0
        rep = picard_implicit_step(Z, ds, lam, 0.6)
        assert rep.picard_iters == 1
        assert not rep.converged
        assert rep.next.interior.shape == (3, 3)

    def test_rejects_inadmissible_state(self):
        Z = random_state(seed=11)
        bad = Z.with_interior(Z.interior - 5.0)
        with pytest.raises(ValueError):
            picard_implicit_step(bad, 1e-3, 20.0, 0.6)

    def test_rejects_mismatched_solver(self):
        Z = random_state(seed=12)
        solver = DirichletSolver(Z.grid, 2e-3)
        with pytest.raises(ValueError):
            picard_implicit_step(Z, 1e-3, 20.0, 0.6, solver=solver)
        other = DirichletSolver(build_rescaled_grid(0.6, 6), 1e-3)
        with pytest.raises(ValueError):
            picard_implicit_step(Z, 1e-3, 20.0, 0.6, solver=other)

    def test_dissipation_fields_recomputable(self):
        Z = random_state(seed=13)
        ds, lam = 1e-3, 20.0
        rep = picard_implicit_step(Z, ds, lam, 0.6)
        assert rep.energy == discrete_energy(rep.next, 0.6, lam).total
        h2 = Z.grid.h ** 2
        n = Z.grid.N - 1
        sq = 0.0
        for i in range(n):
            for j in range(n):
                sq += h2 * (rep.next.interior[i, j] - Z.interior[i, j]) ** 2
        assert rep.penalty == pytest.approx((0.36 / (2.0 * ds)) * sq, rel=1e-13)
        assert rep.penalty > 0.0

    def test_one_energy_evaluation_per_step(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return discrete_energy(*args, **kwargs)

        monkeypatch.setattr("quenchstage.stepper.discrete_energy", counting)
        ds, lam = 1e-3, 20.0
        rep = picard_implicit_step(random_state(seed=14), ds, lam, 0.6)
        assert len(calls) == 1
        assert calls[0] is rep.next


class TestExtrapolatedSeed:
    @staticmethod
    def polynomial_states(degree, count, shape=(3, 4), seed=0):
        """States Z_j = sum_d c_d j^d for j = 0..count, random coefficients."""
        rng = np.random.default_rng(seed)
        coeffs = rng.uniform(-1.0, 1.0, (degree + 1, *shape))
        return [
            sum(c * float(j) ** d for d, c in enumerate(coeffs))
            for j in range(count + 1)
        ]

    @pytest.mark.parametrize("seed", range(3))
    def test_reproduces_next_term_of_cubic(self, seed):
        states = self.polynomial_states(3, 6, seed=seed)
        for n in range(4, 7):
            history = states[:n]
            got = extrapolated_seed(history)
            scale = max(float(np.max(np.abs(Z))) for Z in states[: n + 1])
            assert np.max(np.abs(got - states[n])) <= 1e-13 * scale

    def test_short_histories_drop_order(self):
        Z = np.arange(12.0).reshape(3, 4)
        got = extrapolated_seed([Z])
        assert np.array_equal(got, Z)
        assert got is not Z
        # p = 1 and p = 2 reproduce linear and quadratic sequences
        for degree in (1, 2):
            states = self.polynomial_states(degree, degree + 1, seed=degree)
            got = extrapolated_seed(states[:-1])
            assert np.max(np.abs(got - states[-1])) <= 1e-13
        # p = 1 does not reproduce a quadratic: the order is capped by length
        quad = self.polynomial_states(2, 2, seed=7)
        assert np.max(np.abs(extrapolated_seed(quad[:2]) - quad[2])) > 1e-3

    def test_weights_on_last_four_states(self):
        rng = np.random.default_rng(3)
        history = [rng.uniform(size=(2, 2)) for _ in range(6)]
        Zn, Zn1, Zn2, Zn3 = history[-1], history[-2], history[-3], history[-4]
        want = 4.0 * Zn - 6.0 * Zn1 + 4.0 * Zn2 - Zn3
        assert np.max(np.abs(extrapolated_seed(history) - want)) <= 1e-14

    def test_same_fixed_point_fewer_sweeps(self):
        cfg = StagewiseConfig()
        Z = initial_rescaled_profile(cfg.A0, cfg.N0, cfg.u0_amplitude)
        solver = DirichletSolver(Z.grid, cfg.ds)
        history = [Z.interior]
        for _ in range(SEED_ORDER + 2):
            Z = picard_implicit_step(Z, cfg.ds, cfg.lam, cfg.A0, solver).next
            history.append(Z.interior)
        plain = picard_implicit_step(Z, cfg.ds, cfg.lam, cfg.A0, solver)
        seed = Z.with_interior(extrapolated_seed(history))
        seeded = picard_implicit_step(Z, cfg.ds, cfg.lam, cfg.A0, solver, seed)
        assert plain.converged and seeded.converged
        assert seeded.picard_iters < plain.picard_iters
        gap = np.max(np.abs(seeded.next.interior - plain.next.interior))
        assert gap <= 1e-10 * np.max(np.abs(plain.next.interior))


def refine_grid_search(fn, lo, hi, width=1e-10):
    """1-D brute-force argmin: repeatedly sample and shrink the bracket."""
    while hi - lo > width:
        xs = np.linspace(lo, hi, 401)
        vals = [fn(x) for x in xs]
        k = int(np.argmin(vals))
        lo = xs[max(k - 1, 0)]
        hi = xs[min(k + 1, 400)]
    return 0.5 * (lo + hi)


class TestDescentOracle:
    def test_source_free_matches_dense_solve(self):
        Z = random_state(seed=14)
        ds, lam = 1e-3, 0.0
        got = mm_oracle_step(Z, ds, lam, 0.6)
        want = dense_be_solve(Z, ds)
        assert np.max(np.abs(got.interior - want)) < 1e-10

    def test_single_node_against_grid_search(self):
        Z = single_node_field(1.0, g=1.0)
        ds, lam = 1e-3, 1.0

        def J(y):
            # gradient part: four node-boundary edges; K = 1 + 1/y at A = h = 1
            return (
                0.5 * 4.0 * (y - 1.0) ** 2
                + 1.0 / (1.0 + 1.0 / y)
                + (1.0 / (2.0 * ds)) * (y - 1.0) ** 2
            )

        got = mm_oracle_step(Z, ds, lam, 1.0)
        ystar = refine_grid_search(J, 1e-6, 3.0)
        # the bracket reaches 1e-10 but argmin localization on the flat
        # quadratic bottoms out near sqrt(eps*J/J''); compare above that floor
        assert abs(got.interior[0, 0] - ystar) < 1e-7
        R = euler_lagrange_residual(got, Z, ds, lam, 1.0)
        assert np.max(np.abs(R)) < 1e-10

    def test_dissipation_inequality(self):
        ds, lam = 1e-3, 20.0
        h2 = build_rescaled_grid(0.6, 4).h ** 2
        for seed in range(10):
            Z = random_state(seed=40 + seed)
            out = mm_oracle_step(Z, ds, lam, 0.6)
            diff = out.interior - Z.interior
            penalty = (0.36 / (2.0 * ds)) * h2 * float(np.sum(diff * diff))
            lhs = discrete_energy(out, 0.6, lam).total + penalty
            rhs = discrete_energy(Z, 0.6, lam).total
            assert lhs <= rhs + 1e-12

    def test_rejects_large_grids(self):
        Z = random_state(N=6, seed=15)
        assert Z.grid.interior_count == 25
        with pytest.raises(ValueError):
            mm_oracle_step(Z, 1e-3, 20.0, 0.6)

    def test_rejects_inadmissible_state(self):
        Z = single_node_field(-1.0)
        with pytest.raises(ValueError):
            mm_oracle_step(Z, 1e-3, 1.0, 1.0)


class TestStepperConfig:
    def test_defaults(self):
        # the stopping rule the reference tables were computed with
        assert stepper.PICARD_TOL == 1e-10
        assert stepper.PICARD_MAX == 50
        assert stepper.CLIP == 1e-12
