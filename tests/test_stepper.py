"""Implicit step and minimizing-movement oracle checks.

The linear-algebra oracle here assembles the backward-Euler system with
explicit loops and solves it densely on the whole interior, the mirror
expansion of a state's frame values, sharing nothing with the sine-basis
diagonalization used by the package.
"""

import collections
import functools
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from quenchstage import stepper
from quenchstage.drivers import (
    StageState,
    StagewiseConfig,
    initial_rescaled_profile,
    run_stage,
    run_stagewise,
)
from quenchstage.energy import discrete_energy
from quenchstage.grid import Field, Frame, Grid
from quenchstage.prolongation import prolong_stage
from quenchstage.stepper import (
    BUTTERFLY_MIN_N,
    SEED_ORDER,
    SEED_WEIGHTS,
    DirichletSolver,
    NumericalError,
    euler_lagrange_residual,
    extrapolated_seed,
    march,
    mm_oracle_step,
    movement_penalty,
    nonlocal_source,
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


def interior(Y):
    """The whole interior of a Field: its frame values mirrored out."""
    return Y.frame.expand(Y.values, 1, Y.grid.N)


def dense_be_solve(Z, ds, source=0.0):
    """Backward-Euler step with a fixed source on the whole interior, via
    the loop-built dense system."""
    n = Z.grid.N - 1
    h2 = Z.grid.h ** 2
    z = interior(Z)
    rhs = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            sides = (i == 0) + (i == n - 1) + (j == 0) + (j == n - 1)
            rhs[i, j] = z[i, j] / ds + sides * Z.grid.g / h2
    rhs -= source
    sol = np.linalg.solve(dense_operator(Z.grid, ds), rhs.ravel())
    return sol.reshape(n, n)


def full_laplacian(Y):
    """The five-point Laplacian of a Field on its whole interior."""
    F = np.pad(interior(Y), 1, constant_values=Y.grid.g)
    return (F[2:, 1:-1] + F[:-2, 1:-1] + F[1:-1, 2:] + F[1:-1, :-2]
            - 4.0 * F[1:-1, 1:-1]) / Y.grid.h ** 2


def dense_residual(Y, Z, ds, lam):
    """The Euler-Lagrange residual on the whole interior, K the plain sum."""
    y = interior(Y)
    K = 1.0 + Y.grid.A2h2 * float(np.sum(1.0 / y))
    return (y - interior(Z)) / ds - full_laplacian(Y) + lam / (y * y * K * K)


def dense_picard(Z, ds, lam, sweeps):
    """sweeps Picard sweeps of the loop-built system on the whole interior,
    K the plain sum: the first solves with f(Z), each next one with f of the
    last solution, as a step started without a seed does."""
    y = interior(Z)
    for _ in range(sweeps):
        K = 1.0 + Z.grid.A2h2 * float(np.sum(1.0 / y))
        y = dense_be_solve(Z, ds, lam / (y * y * K * K))
    return y


def residual_bound(Y, ds):
    """The largest Euler-Lagrange residual an accepted step Y may leave: the
    residual is its last source change F_new - F, which the stop holds below
    this, with 1e-12 for the round-off of evaluating it."""
    scale = float(np.max(np.abs(Y.values)))
    return stepper.STOP_MARGIN * stepper.PICARD_TOL * scale / ds + 1e-12


def single_node_field(value):
    # the A = 1 grid with one interior node: N = 2, L = 1/2, h = 1/2, g = 1
    grid = Grid(1.0, 2)
    return Field(Frame(grid), np.array([[value]]))


def reciprocal_K(Y):
    """The feedback K of a Field; it does not depend on lam."""
    return discrete_energy(Y, lam=1.0).K


Stepped = collections.namedtuple("Stepped", "next picard_iters source")


def step(Z, ds, lam, source=None):
    """One Picard step from the Field Z with a solver built on its frame:
    the next Field, the sweeps and the source of the next Field."""
    return Stepped(*picard_implicit_step(Z, DirichletSolver(Z.frame, ds), lam, source))


def random_state(N=4, A=0.6, lo=1.0, hi=2.0, seed=0):
    """A random state symmetric about both mid-lines: its frame values."""
    frame = Frame(Grid(A, N))
    return Field(frame, np.random.default_rng(seed).uniform(lo, hi, frame.shape))


def ring_of(history):
    """The seed ring march holds once it has written history, oldest first:
    source k in row k % (SEED_ORDER + 1), and NaN in the rows not written,
    which the seed must not read.  Returns the ring and the count written."""
    ring = np.full((SEED_ORDER + 1, *history[0].shape), np.nan)
    for k, F in enumerate(history):
        ring[k % len(ring)] = F
    return ring, len(history)


def seed_of(history):
    return extrapolated_seed(*ring_of(history))


def mirror_symmetric(a):
    """a folded onto the data symmetric about both mid-lines."""
    a = a + a[::-1]
    return a + a[:, ::-1]


@functools.cache
def reference_stage_start(m):
    """Start of stage m of the reference run: the prolonged event of stage
    m - 1 (the centred profile for m = 0)."""
    cfg = StagewiseConfig()
    if m == 0:
        return initial_rescaled_profile(cfg.A0, cfg.N0, cfg.u0_amplitude)
    state = StageState(m=m - 1, Z=reference_stage_start(m - 1), t=0.0)
    return prolong_stage(run_stage(state, cfg)[1], cfg.k)


class TestDirichletSolver:
    # N = 2 is the single-interior-node grid
    @pytest.mark.parametrize("N", [2, 3, 5, 12])
    def test_matches_dense_loop_system(self, N):
        # a right-hand side drawn on the frame, against the loop-built
        # system on its mirror expansion
        frame, ds, n = Frame(Grid(0.6, N)), 2e-3, N - 1
        solver = DirichletSolver(frame, ds)
        rhs = np.random.default_rng(4).normal(size=frame.shape)
        # the solve is written over its right-hand side
        got = rhs.copy()
        u, grad_sq = solver.solve(got)
        assert u is got
        full = frame.expand(rhs, 1, N)
        want = np.linalg.solve(dense_operator(frame.grid, ds), full.ravel()).reshape(n, n)
        assert np.max(np.abs(got - frame.restrict(want))) < 1e-12
        # and hands back the gradient sum of its solution, from the
        # coefficients, which the difference form of any g + u agrees with
        ref = frame.grad_norm_sq(frame.grid.g + frame.restrict(want))
        assert grad_sq == pytest.approx(ref, rel=1e-13)

    # N = 2 is the single node; an even N has a middle line of weight 1
    @pytest.mark.parametrize("N", [2, 3, 4, 5, 12, 33])
    def test_mirrored_matches_dense_on_symmetric_data(self, N):
        # symmetric data on the whole interior, solved on its quarter and by
        # the loop-built system
        grid, ds, n = Grid(0.6, N), 2e-3, N - 1
        rhs = mirror_symmetric(np.random.default_rng(N).normal(size=(n, n)))
        solver = DirichletSolver(Frame(grid), ds)
        # the frame is the N//2 quarter, and expand mirrors it back
        quarter = solver.frame.restrict(rhs)
        assert quarter.shape == (N // 2, N // 2)
        assert np.array_equal(solver.frame.expand(quarter, 1, N), rhs)
        got, got_sq = solver.solve(quarter.copy())
        got = solver.frame.expand(got, 1, N)
        loop = np.linalg.solve(dense_operator(grid, ds), rhs.ravel()).reshape(n, n)
        scale = float(np.max(np.abs(loop)))
        assert np.max(np.abs(got - loop)) <= 1e-12 * scale
        # the quarter is mirrored back, so the result is symmetric to the bit
        assert np.array_equal(got, got[::-1])
        assert np.array_equal(got, got[:, ::-1])
        # the odd-odd coefficients carry the whole gradient sum of the grid,
        # here summed over every node pair of the loop solution
        F = np.pad(grid.g + loop, 1, constant_values=grid.g)
        ref = float(np.sum(np.diff(F, axis=0) ** 2) + np.sum(np.diff(F, axis=1) ** 2))
        assert got_sq == pytest.approx(ref, rel=1e-12)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            DirichletSolver(Frame(Grid(0.6, 4)), 0.0)

    # BUTTERFLY_MIN_N: the solver takes the butterfly there
    @pytest.mark.parametrize("N", [2, 3, 5, 12, 33, BUTTERFLY_MIN_N])
    @pytest.mark.parametrize("ds", [1e-4, 1e-3, 0.1, 10.0])
    def test_inverse_bounded_by_step_size(self, N, ds):
        # discrete maximum principle: the row sums of I/ds - Lap_h are at
        # least 1/ds, so max|L^-1 r| <= ds max|r|; the Picard stop rests on
        # it, for the solver on symmetric data
        grid, n = Grid(0.6, N), N - 1
        solver = DirichletSolver(Frame(grid), ds)
        r = mirror_symmetric(np.random.default_rng(N).normal(size=(n, n)))
        for rhs in (r, np.ones((n, n))):
            got, _ = solver.solve(solver.frame.restrict(rhs))
            got = float(np.max(np.abs(got)))
            assert got <= ds * float(np.max(np.abs(rhs))) * (1.0 + 1e-12)

    # the multiples of 4 just below and at or just above the threshold
    @pytest.mark.parametrize(
        "N", [(BUTTERFLY_MIN_N - 1) // 4 * 4, -(-BUTTERFLY_MIN_N // 4) * 4]
    )
    def test_butterfly_matches_plain_products(self, monkeypatch, N):
        # for N % 4 == 0, row i of odd mode N - j is (-1)^(i+1) times that
        # of mode j: the butterfly's half products and sum and difference
        # passes give the plain folded products to round-off (measured at
        # <= 5e-15 relative up to N = 576), and the solver takes them from
        # BUTTERFLY_MIN_N on
        frame, ds = Frame(Grid(0.6, N)), 2e-3
        rhs = np.random.default_rng(N).normal(size=frame.shape)
        above = N >= BUTTERFLY_MIN_N
        assert DirichletSolver(frame, ds).path.endswith("butterfly") == above
        monkeypatch.setattr(stepper, "BUTTERFLY_MIN_N", N)
        butterfly = DirichletSolver(frame, ds)
        monkeypatch.setattr(stepper, "BUTTERFLY_MIN_N", N + 1)
        plain = DirichletSolver(frame, ds)
        assert butterfly.path == "mirror-folded butterfly"
        assert plain.path == "mirror-folded"
        got, got_sq = butterfly.solve(rhs.copy())
        want, want_sq = plain.solve(rhs.copy())
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert got_sq == pytest.approx(want_sq, rel=1e-14)

    # N = 2 (mod 4) and odd N, both above the threshold
    @pytest.mark.parametrize(
        "N, above, path",
        [(BUTTERFLY_MIN_N + 2, True, "mirror-folded"),
         (BUTTERFLY_MIN_N + 1, True, "mirror-folded")],
    )
    def test_plain_products_off_the_butterfly(self, N, above, path):
        assert (N >= BUTTERFLY_MIN_N) == above
        solver = DirichletSolver(Frame(Grid(0.6, N)), 2e-3)
        assert solver.path == path
        assert solver._T.shape == solver.frame.shape


class TestPicardStep:
    def test_source_free_one_sweep_one_solve(self):
        # with lam = 0 the source is exactly 0, so the certified bound on the
        # next sweep's move is 0 after the first sweep
        Z = random_state(seed=5)
        ds, lam = 1e-3, 0.0
        rep = step(Z, ds, lam)
        assert rep.picard_iters == 1
        # the step solves for the deviation from the boundary value g
        g = Z.grid.g
        one_solve = g + DirichletSolver(Z.frame, ds).solve((Z.values - g) / ds)[0]
        assert np.array_equal(rep.next.values, one_solve)

    def test_source_free_constant_fixed_point(self):
        frame = Frame(Grid(0.6, 4))
        g = frame.grid.g
        Z = Field(frame, np.full(frame.shape, g))
        rep = step(Z, 1e-3, 0.0)
        assert np.max(np.abs(rep.next.values - g)) < 1e-13

    def test_source_free_matches_dense_oracle(self):
        Z = random_state(N=5, seed=6)
        ds, lam = 1e-3, 0.0
        rep = step(Z, ds, lam)
        want = dense_be_solve(Z, ds)
        assert np.max(np.abs(interior(rep.next) - want)) < 1e-11

    def test_converged_state_solves_euler_lagrange(self):
        Z = random_state(seed=7)
        ds, lam = 1e-3, 20.0
        rep = step(Z, ds, lam)
        R = euler_lagrange_residual(rep.next, Z, ds, lam)
        assert np.max(np.abs(R)) <= residual_bound(rep.next, ds)
        # and it is the loop-built system's Picard iterate of as many sweeps,
        # to round-off
        want = dense_picard(Z, ds, lam, rep.picard_iters)
        assert np.max(np.abs(interior(rep.next) - want)) <= 1e-12 * np.max(np.abs(want))

    @staticmethod
    def one_more_sweep(Z, Y, ds, lam):
        """One more Picard sweep from the accepted state Y, with the source
        built from reciprocal_K rather than by the step itself, and solved
        by the loop-built system on the whole interior."""
        K = reciprocal_K(Y)
        return dense_be_solve(Z, ds, lam / (interior(Y) ** 2 * K * K))

    def assert_certified(self, Z, Y, ds, lam):
        move = float(np.max(np.abs(self.one_more_sweep(Z, Y, ds, lam) - interior(Y))))
        scale = float(np.max(np.abs(Y.values)))
        assert move < stepper.STOP_MARGIN * stepper.PICARD_TOL * scale

    def test_converged_state_is_a_certified_fixed_point(self):
        Z = random_state(seed=7)
        ds, lam = 1e-3, 20.0
        self.assert_certified(Z, step(Z, ds, lam).next, ds, lam)

    def test_seeded_reference_step_is_a_certified_fixed_point(self):
        # this steps the stage-0 profile on the quarter and certifies against
        # a sweep of the loop-built system
        cfg = StagewiseConfig()
        Z = initial_rescaled_profile(cfg.A0, cfg.N0, cfg.u0_amplitude)
        solver = DirichletSolver(Z.frame, cfg.ds)
        states, sources = [Z], [nonlocal_source(Z.values, Z.frame, cfg.lam)[0]]
        for _ in range(SEED_ORDER + 3):
            seed = seed_of(sources)
            Y, _, F = picard_implicit_step(states[-1], solver, cfg.lam, seed)
            states.append(Y)
            sources.append(F)
        self.assert_certified(states[-2], states[-1], cfg.ds, cfg.lam)

    @pytest.mark.parametrize("reference", [True, False])
    def test_any_start_source_reaches_the_certified_fixed_point(self, reference):
        # the first sweep from any source F~ moves to g + L^-1(base - F~), and
        # the next one by L^-1(F~ - f(Y)), so the stop bound holds whatever F~
        # was: a zero source and ten times f(Z) take more sweeps to the
        # default start's fixed point, each certified, and the given source is
        # left unchanged; from the reference run's stage 1 or a random state
        cfg = StagewiseConfig()
        if reference:
            Z, ds, lam = reference_stage_start(1), cfg.ds, cfg.lam
        else:
            Z, ds, lam = random_state(seed=7), 1e-3, 20.0
        solver = DirichletSolver(Z.frame, ds)
        plain, _, F = picard_implicit_step(Z, solver, lam)
        assert np.array_equal(F, nonlocal_source(plain.values, Z.frame, lam)[0])
        scale = float(np.max(np.abs(plain.values)))
        ten = 10.0 * nonlocal_source(Z.values, Z.frame, lam)[0]
        for wrong in (np.zeros(Z.values.shape), ten):
            given = wrong.copy()
            Y, sweeps, _ = picard_implicit_step(Z, solver, lam, source=given)
            assert np.array_equal(given, wrong)
            assert sweeps > 1
            self.assert_certified(Z, Y, ds, lam)
            # two certified states of one contraction: within twice the stop
            gap = float(np.max(np.abs(Y.values - plain.values)))
            assert gap <= 2.0 * stepper.STOP_MARGIN * stepper.PICARD_TOL * scale

    def test_two_seeds_same_fixed_point(self):
        Z = random_state(seed=8)
        eta = Z.min_interior()
        ds, lam = 1e-3, 20.0
        assert ds < eta ** 3 / (16.0 * lam)
        rep_a = step(Z, ds, lam)
        rep_b = step(Z, ds, lam, nonlocal_source(1.05 * Z.values, Z.frame, lam)[0])
        assert np.max(np.abs(rep_a.next.values - rep_b.next.values)) < 1e-8

    def test_positivity_below_step_bound(self):
        Z = random_state(lo=1.5, hi=2.0, seed=9)
        eta = Z.min_interior()
        A, lam = Z.grid.A, 20.0
        E = discrete_energy(Z, lam).total
        h = Z.grid.h
        # below the step bound the implicit minimizer stays positive
        # (min >= eta/2) and is locally unique
        bound = min(A * A * h * h * eta * eta / (8.0 * E), eta ** 3 / (16.0 * lam))
        rep = step(Z, 0.5 * bound, lam)
        assert rep.next.min_interior() >= 0.5 * eta

    def test_agrees_with_descent_oracle(self):
        ds, lam = 1e-3, 20.0
        for seed in range(5):
            Z = random_state(seed=20 + seed)
            rep = step(Z, ds, lam)
            ref = mm_oracle_step(Z, ds, lam)
            assert np.max(np.abs(rep.next.values - ref.values)) < 1e-6

    def test_nonconvergence_raises(self, monkeypatch):
        monkeypatch.setattr(stepper, "PICARD_MAX", 1)
        Z = random_state(seed=10)
        with pytest.raises(NumericalError, match="within 1 sweeps"):
            step(Z, 1e-3, 20.0)

    def test_nan_source_never_stops(self):
        # every sweep from an all-NaN source solves to NaN, whose certified
        # bound compares false with the stop, so the step runs out of sweeps
        # and raises instead of accepting a NaN state
        Z = random_state(seed=10)
        solver = DirichletSolver(Z.frame, 1e-3)
        solves = []
        solve = solver.solve
        solver.solve = lambda rhs: solves.append(1) or solve(rhs)
        source = np.full(Z.frame.shape, np.nan)
        with pytest.raises(NumericalError, match="did not converge within 50 sweeps"):
            picard_implicit_step(Z, solver, 20.0, source)
        assert len(solves) == stepper.PICARD_MAX == 50

    def test_rejects_inadmissible_state(self):
        Z = random_state(seed=11)
        bad = Field(Z.frame, Z.values - 5.0)
        with pytest.raises(ValueError, match="positive previous state"):
            step(bad, 1e-3, 20.0)

    def test_rejects_mismatched_solver(self):
        # the grid comes from the solver, so a state or source of a shape
        # other than the solver's frame is refused
        Z = random_state(N=4, seed=12)
        other = DirichletSolver(Frame(Grid(0.6, 6)), 1e-3)
        own = DirichletSolver(Z.frame, 1e-3)
        cases = [
            (other, Z, None),
            (own, Z, interior(Z)),
            (other, random_state(N=6, seed=12), Z.values),
        ]
        for solver, state, source in cases:
            with pytest.raises(ValueError, match="solver's frame"):
                picard_implicit_step(state, solver, 20.0, source)

    def test_step_evaluates_no_energy(self, monkeypatch):
        # the energy and the penalty are evaluated by the code that records them
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0])
            return discrete_energy(*args, **kwargs)

        monkeypatch.setattr("quenchstage.stepper.discrete_energy", counting)
        monkeypatch.setattr("quenchstage.stepper.movement_penalty", counting)
        step(random_state(seed=14), 1e-3, 20.0)
        assert calls == []


class TestMarch:
    @staticmethod
    def recording_solvers(monkeypatch):
        """The path of every solver march builds, in order."""
        built = []

        class RecordingSolver(DirichletSolver):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self.path)

        monkeypatch.setattr(stepper, "DirichletSolver", RecordingSolver)
        return built

    def test_seeded_steps_on_one_solver(self, monkeypatch):
        # each step's first sweep reads the extrapolated seed over the sources
        # of the states before it, f(Z) of the start included; the reference
        # solver is built as march builds it, on the frame of the stage-0
        # profile
        cfg = StagewiseConfig()
        Z = initial_rescaled_profile(cfg.A0, cfg.N0, cfg.u0_amplitude)
        solver = DirichletSolver(Z.frame, cfg.ds)
        built = self.recording_solvers(monkeypatch)
        states, sources = [Z], [nonlocal_source(Z.values, Z.frame, cfg.lam)[0]]
        for rep in itertools.islice(march(Z, cfg.ds, cfg.lam, "stage 0"), 8):
            seed = seed_of(sources)
            Y, sweeps, F = picard_implicit_step(states[-1], solver, cfg.lam, seed)
            assert np.array_equal(rep.prev.values, states[-1].values)
            assert np.array_equal(rep.next.values, Y.values)
            assert rep.picard_iters == sweeps
            states.append(Y)
            sources.append(F)
        assert built == ["mirror-folded"]

    def test_no_restriction_no_expansion(self, monkeypatch):
        # the Picard state stays in the frame: the start is stepped as it was
        # built, every step is yielded as a Field on its frame, none is
        # restricted or expanded, and every solve is on the quarter
        cfg = StagewiseConfig()
        Z = reference_stage_start(0)
        calls = []
        owners = {"restrict": Frame, "expand": Frame, "solve": DirichletSolver}
        for name, owner in owners.items():

            def recording(self, Y, *window, name=name, original=getattr(owner, name)):
                calls.append((name, Y.shape))
                return original(self, Y, *window)

            monkeypatch.setattr(owner, name, recording)
        reps = list(itertools.islice(march(Z, cfg.ds, cfg.lam, "stage 0"), 6))
        names = [name for name, _ in calls]
        assert (names.count("restrict"), names.count("expand")) == (0, 0)
        quarter = (Z.grid.N // 2, Z.grid.N // 2)
        states = [r.prev for r in reps] + [r.next for r in reps]
        assert states[0] is Z
        assert {X.values.shape for X in states} == {quarter}
        assert all(X.frame is Z.frame for X in states)
        solves = [shape for name, shape in calls if name == "solve"]
        assert solves == [quarter] * sum(r.picard_iters for r in reps)

    # stage 0 has the odd N = 9; the prolonged starts of stages 1 and 2 have
    # an even N, so a middle line of weight 1
    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_symmetric_start_folds(self, monkeypatch, caplog, m):
        cfg = StagewiseConfig()
        Z = reference_stage_start(m)
        assert Z.grid.N == cfg.N0 * cfg.k ** m
        built = self.recording_solvers(monkeypatch)
        with caplog.at_level("INFO", logger="quenchstage.stepper"):
            rep = next(march(Z, cfg.ds, cfg.lam, f"stage {m}"))
        assert built == ["mirror-folded"]
        assert f"stage {m}: mirror-folded solve\n" in caplog.text
        # the folded step is the loop-built system's Picard iterate of as many
        # sweeps from f(Z), march's first seed, on the mirror expansion, to
        # round-off
        want = dense_picard(Z, cfg.ds, cfg.lam, rep.picard_iters)
        got = interior(rep.next)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_large_folded_start_takes_butterfly(self, monkeypatch, caplog):
        # stage 5 (N = 288) names the butterfly path, and its first step
        # agrees with the plain folded products' to round-off
        cfg = StagewiseConfig()
        Z = reference_stage_start(5)
        with caplog.at_level("INFO", logger="quenchstage.stepper"):
            rep = next(march(Z, cfg.ds, cfg.lam, "stage 5"))
        assert "stage 5: mirror-folded butterfly solve\n" in caplog.text
        monkeypatch.setattr(stepper, "BUTTERFLY_MIN_N", Z.grid.N + 1)
        want = next(march(Z, cfg.ds, cfg.lam, "stage 5"))
        assert rep.picard_iters == want.picard_iters
        got, want = rep.next.values, want.next.values
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("reference", [True, False])
    def test_seed_history_in_the_solver_frame(self, monkeypatch, reference):
        # one ring of seven quarters in the solver's frame, which owns its
        # memory, holds copies of the sources the steps hand back and drops
        # each original; from the reference run's stage 1 or a random state
        cfg = StagewiseConfig()
        Z = reference_stage_start(1) if reference else random_state(N=18, seed=24)
        N = Z.grid.N
        shape = (N // 2, N // 2)
        rings, seen, returned = [], [], []
        picard = stepper.picard_implicit_step

        def recording(ring, count):
            # a returned source is copied into the ring and dropped before
            # the next seed is taken
            assert all(ref() is None for ref in returned)
            rings.append(ring)
            rows = min(count, len(ring))
            order = [k % len(ring) for k in range(count - rows, count)]
            seen.append([ring[r].copy() for r in order])  # oldest first
            return extrapolated_seed(ring, count)

        def stepping(*args):
            Y, sweeps, F = picard(*args)
            returned.append(weakref.ref(F))
            return Y, sweeps, F

        monkeypatch.setattr(stepper, "extrapolated_seed", recording)
        monkeypatch.setattr(stepper, "picard_implicit_step", stepping)
        reps = list(itertools.islice(march(Z, cfg.ds, cfg.lam, "stage 1"), 8))
        assert [len(h) for h in seen] == [1, 2, 3, 4, 5, 6, 7, 7]
        assert all(ring is rings[0] for ring in rings)
        assert rings[0].shape == (SEED_ORDER + 1, *shape)
        assert rings[0].base is None
        for history in seen:
            for source in history:
                assert source.shape == shape
        # the history holds f(Z) and then the source of each accepted state,
        # the one its step handed back
        assert np.array_equal(
            seen[0][0], nonlocal_source(Z.values, Z.frame, cfg.lam)[0]
        )
        for source, rep in zip(seen[-1][1:], reps[-7:-1], strict=True):
            want, _ = nonlocal_source(rep.next.values, Z.frame, cfg.lam)
            assert np.array_equal(source, want)

    @pytest.mark.parametrize("reference", [True, False])
    def test_one_source_per_solve_and_start(self, monkeypatch, reference):
        # no source is evaluated at a seed: a step's sweeps evaluate f of
        # each iterate, and march adds f(Z) of its start, from either start
        cfg = StagewiseConfig()
        Z = reference_stage_start(1) if reference else random_state(N=18, seed=24)
        counts = collections.Counter()
        solve, source = DirichletSolver.solve, stepper.nonlocal_source

        def counting_solve(self, rhs):
            counts["solves"] += 1
            return solve(self, rhs)

        def counting_source(*args):
            counts["sources"] += 1
            return source(*args)

        monkeypatch.setattr(DirichletSolver, "solve", counting_solve)
        monkeypatch.setattr(stepper, "nonlocal_source", counting_source)
        for starts in (1, 2):
            reps = list(itertools.islice(march(Z, cfg.ds, cfg.lam, "stage 1"), 12))
            assert counts["solves"] == sum(r.picard_iters for r in reps) * starts
            assert counts["sources"] == counts["solves"] + starts


class TestCarriedSums:
    @staticmethod
    def accepted_states(monkeypatch):
        """Every state a Picard step accepts from now on, in order."""
        states = []
        picard = stepper.picard_implicit_step

        def recording(*args, **kwargs):
            Y, sweeps, F = picard(*args, **kwargs)
            states.append(Y)
            return Y, sweeps, F

        monkeypatch.setattr(stepper, "picard_implicit_step", recording)
        return states

    @pytest.mark.parametrize("run", ["stagewise", "direct"])
    def test_sums_are_the_values_sums(self, monkeypatch, run):
        # the gradient sum from the last solve's sine coefficients agrees
        # with the difference form of the values (at most 3.3e-15 relative
        # was seen on these runs, 3.3e-13 at N = 288), and K of the last
        # source is the values' K to the bit
        states = self.accepted_states(monkeypatch)
        if run == "stagewise":
            cfg = StagewiseConfig(max_stages=2)
            lam = cfg.lam
            run_stagewise(cfg)
            assert {Y.grid.N for Y in states} == {9, 18}
        else:
            lam = 15.0
            v = initial_rescaled_profile(1.0, 15, 0.45)
            list(itertools.islice(march(v, 5e-4, lam, "direct run"), 160))
        assert len(states) > 100
        for Y in states:
            want = Y.frame.grad_norm_sq(Y.values)
            assert abs(Y.grad_norm_sq - want) <= 1e-14 * want
            assert Y.K == discrete_energy(Field(Y.frame, Y.values), lam).K
            assert discrete_energy(Y, lam).K == Y.K

    def test_clipped_state_keeps_the_values_K(self, monkeypatch):
        # with CLIP above the state, the last source's K is that of the
        # clipped values, so the accepted state carries no K and the energy
        # takes its own: finite above 0, +inf once a value is at or below 0
        monkeypatch.setattr(stepper, "CLIP", 1.5)
        Z = random_state(lo=1.0, hi=2.0, seed=30)
        solver = DirichletSolver(Z.frame, 1e-3)
        for lam in (20.0, 1.5e5):
            Y, _, F = picard_implicit_step(Z, solver, lam)
            assert Y.min_interior() < stepper.CLIP and Y.K is None
            _, clipped_K = nonlocal_source(Y.values, Y.frame, lam)
            own = discrete_energy(Field(Y.frame, Y.values), lam)
            assert discrete_energy(Y, lam).K == own.K != clipped_K
            assert Y.grad_norm_sq is not None
        assert Y.min_interior() <= 0.0 and own.K == np.inf

    def test_vanishing_branch_ignores_a_carried_K(self):
        Z = random_state(seed=31)
        values = Z.values.copy()
        values[0, 0] = 0.0
        Y = Field(Z.frame, values, grad_norm_sq=1.0, K=2.0)
        energy = discrete_energy(Y, 20.0)
        assert energy.K == np.inf and energy.reciprocal == 0.0
        assert energy.dirichlet == 0.5 * Z.grid.A ** 2


class TestSourceAndPenalty:
    @pytest.mark.parametrize("seed", range(5))
    def test_source_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        N, A, lam = int(rng.integers(3, 12)), float(rng.uniform(0.2, 2.0)), 20.0
        Y = random_state(N=N, A=A, lo=1e-3, hi=3.0, seed=seed)
        K = reciprocal_K(Y)
        # one division per node: the terms 1/Y that K sums, squared and scaled
        want = (lam / (K * K)) * (1.0 / Y.values) ** 2
        got, got_K = nonlocal_source(Y.values, Y.frame, lam)
        assert np.array_equal(got, want)
        # no value is below CLIP, so the source's K is the energy's
        assert got_K == K

    @pytest.mark.parametrize("N", [9, 18, 36])
    def test_weighted_quarter_K_is_the_full_K(self, N):
        # odd N has no middle line; an even N has one, of weight 1
        grid, lam, n = Grid(0.6, N), 20.0, N - 1
        frame = Frame(grid)
        full = mirror_symmetric(np.random.default_rng(N).uniform(0.5, 1.5, (n, n)))
        quarter = frame.restrict(full)
        F, got_K = nonlocal_source(quarter, frame, lam)
        K = np.sqrt(lam / (F * quarter * quarter))
        # the plain sum over the whole interior
        want = 1.0 + grid.A2h2 * sum(float(x) for x in (1.0 / full).ravel())
        assert np.max(np.abs(K - want)) <= 1e-14 * want
        assert got_K == reciprocal_K(Field(frame, quarter))

    def test_source_clips_small_values(self):
        grid = Grid(1.0, 5)
        Y = np.array([[1.0, -2.0], [0.0, 1e-20]])
        Yc = np.array([[1.0, stepper.CLIP], [stepper.CLIP, stepper.CLIP]])
        K = reciprocal_K(Field(Frame(grid), Yc))
        want = (3.0 / (K * K)) * (1.0 / Yc) ** 2
        got, got_K = nonlocal_source(Y, Frame(grid), 3.0)
        assert np.array_equal(got, want)
        # K of the clipped values, which is not the energy's K of Y (+inf)
        assert got_K == K and reciprocal_K(Field(Frame(grid), Y)) == np.inf

    def test_penalty_matches_node_loop(self):
        Z = random_state(N=5, A=1.3, seed=21)
        Y = random_state(N=5, A=1.3, seed=22)
        ds = 2e-3
        h, n = Z.grid.h, Z.grid.N - 1
        y, z = interior(Y), interior(Z)
        sq = sum(
            h * h * (y[i, j] - z[i, j]) ** 2 for i in range(n) for j in range(n)
        )
        want = (1.3 * 1.3 / (2.0 * ds)) * sq
        got = movement_penalty(Y, Z, ds)
        assert got == pytest.approx(want, rel=1e-13)

    def test_residual_rejects_nan_state(self):
        Z = random_state(seed=23)
        values = Z.values.copy()
        values[1, 1] = np.nan
        Y = Field(Z.frame, values)
        with pytest.raises(ValueError, match="vanishing branch"):
            euler_lagrange_residual(Y, Z, 1e-3, 20.0)

    @pytest.mark.parametrize("N", range(4, 10))
    def test_residual_is_the_restricted_dense_residual(self, N):
        # on the quarter, with the weighted K, against the residual of the
        # mirror expansion on the whole interior with the plain K
        Z, Y = random_state(N=N, seed=N), random_state(N=N, seed=N + 50)
        ds, lam = 1e-3, 20.0
        got = euler_lagrange_residual(Y, Z, ds, lam)
        assert got.shape == Y.frame.shape
        want = Y.frame.restrict(dense_residual(Y, Z, ds, lam))
        scale = float(np.max(np.abs(Y.values - Z.values))) / ds
        assert np.max(np.abs(got - want)) <= 1e-13 * scale


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
        # up to seven sources, and past seven, where the ring has wrapped
        states = self.polynomial_states(3, 9, seed=seed)
        for n in range(4, 10):
            history = states[:n]
            got = seed_of(history)
            scale = max(float(np.max(np.abs(Z))) for Z in states[: n + 1])
            assert np.max(np.abs(got - states[n])) <= 1e-13 * scale

    def test_short_histories_drop_order(self):
        Z = np.arange(12.0).reshape(3, 4)
        ring, count = ring_of([Z])
        got = extrapolated_seed(ring, count)
        assert np.array_equal(got, Z)
        assert got is not Z and not np.shares_memory(got, ring)
        # p = 1 and p = 2 reproduce linear and quadratic sequences
        for degree in (1, 2):
            states = self.polynomial_states(degree, degree + 1, seed=degree)
            got = seed_of(states[:-1])
            assert np.max(np.abs(got - states[-1])) <= 1e-13
        # p = 1 does not reproduce a quadratic: the order is capped by length
        quad = self.polynomial_states(2, 2, seed=7)
        assert np.max(np.abs(seed_of(quad[:2]) - quad[2])) > 1e-3

    def test_weights_on_last_seven_sources(self):
        assert SEED_WEIGHTS[SEED_ORDER].tolist() == [7, -21, 35, -35, 21, -7, 1]
        rng = np.random.default_rng(3)
        history = [rng.uniform(size=(2, 2)) for _ in range(9)]
        F0, F1, F2, F3, F4, F5, F6 = history[:-8:-1]
        want = (7.0 * F0 - 21.0 * F1 + 35.0 * F2 - 35.0 * F3 + 21.0 * F4
                - 7.0 * F5 + F6)
        assert np.max(np.abs(seed_of(history) - want)) <= 1e-13

    def test_rotation_table_is_the_per_call_row(self):
        # the looked-up row is, to the bit, the row built from SEED_WEIGHTS
        # for the newest source and the rows written, through three wraps
        rng = np.random.default_rng(4)
        ring = rng.uniform(size=(SEED_ORDER + 1, 7, 7))
        R = len(ring)
        for count in range(1, 3 * R + 1):
            rows = min(count, R)
            newest = (count - 1) % R
            weights = SEED_WEIGHTS[rows - 1, (newest - np.arange(rows)) % R]
            want = (weights @ ring[:rows].reshape(rows, -1)).reshape(7, 7)
            assert np.array_equal(extrapolated_seed(ring, count), want)

    def test_same_fixed_point_fewer_sweeps(self):
        cfg = StagewiseConfig()
        Z = initial_rescaled_profile(cfg.A0, cfg.N0, cfg.u0_amplitude)
        solver = DirichletSolver(Z.frame, cfg.ds)
        states, sources = [Z], [nonlocal_source(Z.values, Z.frame, cfg.lam)[0]]
        for _ in range(SEED_ORDER + 2):
            Y, _, F = picard_implicit_step(states[-1], solver, cfg.lam)
            states.append(Y)
            sources.append(F)
        plain, plain_sweeps, _ = picard_implicit_step(states[-1], solver, cfg.lam)
        seed = seed_of(sources)
        seeded, seeded_sweeps, _ = picard_implicit_step(
            states[-1], solver, cfg.lam, seed
        )
        assert seeded_sweeps < plain_sweeps
        diff = np.max(np.abs(seeded.values - plain.values))
        assert diff <= 1e-10 * np.max(np.abs(plain.values))


def count_calls(monkeypatch, *names):
    """Count the calls of the named stepper functions, by name."""
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(stepper, name, counted(name, getattr(stepper, name)))
    return calls


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
        got = mm_oracle_step(Z, ds, lam)
        want = dense_be_solve(Z, ds)
        assert np.max(np.abs(interior(got) - want)) < 1e-10

    def test_single_node_against_grid_search(self):
        Z = single_node_field(1.0)
        ds, lam = 1e-3, 1.0
        A, h, g, z = Z.grid.A, Z.grid.h, Z.grid.g, Z.values[0, 0]

        def J(y):
            # gradient part: four node-boundary edges; K = 1 + A^2 h^2 / y
            return (
                0.5 * A * A * 4.0 * (y - g) ** 2
                + lam / (1.0 + A * A * h * h / y)
                + (A * A / (2.0 * ds)) * h * h * (y - z) ** 2
            )

        got = mm_oracle_step(Z, ds, lam)
        ystar = refine_grid_search(J, 1e-6, 3.0)
        # the bracket reaches 1e-10 but argmin localization on the flat
        # quadratic bottoms out near sqrt(eps*J/J''); compare above that floor
        assert abs(got.values[0, 0] - ystar) < 1e-7
        R = euler_lagrange_residual(got, Z, ds, lam)
        assert np.max(np.abs(R)) < 1e-10

    def test_dissipation_inequality(self):
        ds, lam = 1e-3, 20.0
        h2 = Grid(0.6, 4).h ** 2
        for seed in range(10):
            Z = random_state(seed=40 + seed)
            out = mm_oracle_step(Z, ds, lam)
            diff = interior(out) - interior(Z)
            penalty = (0.36 / (2.0 * ds)) * h2 * float(np.sum(diff * diff))
            lhs = discrete_energy(out, lam).total + penalty
            rhs = discrete_energy(Z, lam).total
            assert lhs <= rhs + 1e-12

    def test_rejects_large_grids(self):
        Z = random_state(N=10, seed=15)
        assert Z.values.size == 25
        with pytest.raises(ValueError, match="<= 16 frame values"):
            mm_oracle_step(Z, 1e-3, 20.0)

    def test_size_limit_counts_frame_values(self):
        # N = 9 holds 16 values on its quarter (64 interior nodes) and
        # descends; N = 10 holds 25 and is refused
        Z = random_state(N=9, seed=19)
        assert (Z.values.size, (Z.grid.N - 1) ** 2) == (16, 64)
        out = mm_oracle_step(Z, 1e-3, 20.0)
        R = euler_lagrange_residual(out, Z, 1e-3, 20.0)
        assert np.max(np.abs(R)) < stepper.ORACLE_TOL
        with pytest.raises(ValueError, match="<= 16 frame values"):
            mm_oracle_step(random_state(N=10, seed=19), 1e-3, 20.0)

    def test_rejects_inadmissible_state(self):
        Z = single_node_field(-1.0)
        with pytest.raises(ValueError):
            mm_oracle_step(Z, 1e-3, 1.0)

    def test_one_objective_per_iterate(self, monkeypatch):
        # a converging descent scores each iterate once, Z included: as many
        # energy evaluations as Euler-Lagrange residuals
        calls = count_calls(
            monkeypatch, "discrete_energy", "euler_lagrange_residual"
        )
        Z = random_state(seed=18)
        mm_oracle_step(Z, 1e-3, 20.0)
        assert calls["euler_lagrange_residual"] > 2
        assert calls["discrete_energy"] == calls["euler_lagrange_residual"]

    @pytest.mark.parametrize("ds", [0.2, 1.0])
    def test_rejected_full_step_raises(self, monkeypatch, ds):
        # far above the verification step the full step does not lower J,
        # and the descent raises at once, with no shorter trial steps
        calls = count_calls(monkeypatch, "discrete_energy")
        Z = random_state(seed=16)
        with pytest.raises(
            stepper.OracleStagnation,
            match="descent stagnated above the residual target",
        ):
            mm_oracle_step(Z, ds, 20.0)
        assert calls["discrete_energy"] <= 3

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(stepper, "ORACLE_MAX_ITERS", 1)
        Z = random_state(seed=17)
        with pytest.raises(
            stepper.OracleStagnation,
            match="descent did not reach the residual target",
        ):
            mm_oracle_step(Z, 1e-3, 20.0)


class TestStepperConfig:
    def test_defaults(self):
        # the stopping rule the reference tables were computed with
        assert stepper.PICARD_TOL == 1e-10
        assert stepper.PICARD_MAX == 50
        assert stepper.CLIP == 1e-12


class TestWorkingSet:
    """Frame arrays alive while a stage steps, counted in quarters of n^2
    doubles (n = N // 2)."""

    @pytest.mark.parametrize("m", [0, 1])  # N = 9 (odd) and 18 (even)
    def test_solver_holds_three_frame_arrays(self, m):
        # T, the inverse table and the gradient-form table, also after a solve
        Z = reference_stage_start(m)
        solver = DirichletSolver(Z.frame, StagewiseConfig().ds)
        n = Z.frame.shape[0]
        solver.solve(np.ones(Z.frame.shape))
        arrays = [a for a in vars(solver).values() if isinstance(a, np.ndarray)]
        assert sum(a.nbytes for a in arrays) == 3 * n * n * 8

    def test_stage_step_peak(self):
        # stage 3 of the reference run (N = 72), its start built inside the
        # trace and handed to run_stage as run_stagewise hands it, with no
        # other reference: the seed ring (7), the solver (3), the step start
        # (1, the stage start at step 1) and a sweep's two arrays besides
        # the ring row that holds its source (the state and, in turn, the
        # solve's product array and the new source).  Measured at 13.30
        # quarters; a start held for the whole stage reads 14.35.
        cfg = StagewiseConfig()
        Z = reference_stage_start(3)
        n = Z.frame.shape[0]
        run_stage(StageState(m=3, Z=Z, t=0.0), cfg)
        tracemalloc.start()
        try:
            run_stage(StageState(m=3, Z=Field(Z.frame, Z.values.copy()), t=0.0), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 13.0 <= peak / (n * n * 8) <= 13.5

    def test_butterfly_solver_holds_two_and_a_half(self):
        # the inverse and gradient-form tables and the half tables C and D,
        # a quarter of a frame array each, in place of T
        Z = reference_stage_start(5)
        assert Z.grid.N == 288 >= BUTTERFLY_MIN_N
        solver = DirichletSolver(Z.frame, StagewiseConfig().ds)
        n = Z.frame.shape[0]
        solver.solve(np.ones(Z.frame.shape))
        arrays = [a for a in vars(solver).values() if isinstance(a, np.ndarray)]
        assert sum(a.nbytes for a in arrays) == 2.5 * n * n * 8

    def test_butterfly_stage_step_peak(self):
        # stage 5 of the 6-stage run (N = 288) as test_stage_step_peak takes
        # stage 3: the half tables hold half a quarter less than T, and the
        # butterfly solve works in rhs and one array as the plain one does.
        # Measured at 12.53 quarters; the plain products there read 13.02.
        cfg = StagewiseConfig()
        Z = reference_stage_start(5)
        n = Z.frame.shape[0]
        tracemalloc.start()
        try:
            run_stage(StageState(m=5, Z=Field(Z.frame, Z.values.copy()), t=0.0), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 12.3 <= peak / (n * n * 8) <= 13.02

    def test_work_array_changes_no_bit(self):
        # march lends each step a ring row: the step overwrites it and
        # returns the state, sweeps and source of a step without one, and
        # leaves its given source as it was
        cfg = StagewiseConfig()
        Z = reference_stage_start(1)
        solver = DirichletSolver(Z.frame, cfg.ds)
        seed = 2.0 * nonlocal_source(Z.values, Z.frame, cfg.lam)[0]
        given = seed.copy()
        work = np.full(Z.frame.shape, np.nan)
        plain = picard_implicit_step(Z, solver, cfg.lam, given)
        lent = picard_implicit_step(Z, solver, cfg.lam, given, work)
        assert np.array_equal(given, seed)
        assert not np.isnan(work).any()
        assert lent[1] == plain[1] > 1
        assert np.array_equal(lent[0].values, plain[0].values)
        assert np.array_equal(lent[2], plain[2])
        assert not any(np.shares_memory(work, a) for a in (lent[0].values, lent[2]))
        with pytest.raises(ValueError, match="solver's frame"):
            picard_implicit_step(Z, solver, cfg.lam, given, work[1:])
