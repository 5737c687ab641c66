"""12-point transfer: the cell map, prolongation, compatibility checks.

The oracle shares no code with cell_map: dense_fit rebuilds the 12x12
interpolation system with explicit loops and solves it densely, and
oracle_value evaluates the fitted monomials one point at a time.  The
Laplacian oracle is a centered second difference of oracle_value; the
transfer oracle fits and evaluates every fine node's owning cell one at a
time, reading the coarse state's whole interior, the mirror expansion of its
frame values.
"""

import numpy as np
import pytest

from quenchstage.drivers import (
    StagewiseConfig,
    StageState,
    initial_rescaled_profile,
    run_stage,
)
from quenchstage.grid import Field, Frame, Grid
from quenchstage.prolongation import (
    BASIS_EXPONENTS,
    REFERENCE_INVERSE,
    REFERENCE_MATRIX,
    S12,
    cell_map,
    edge_consistency_check,
    laplace_compat_check,
    prolong_stage,
)
from quenchstage.verify import suite_unisolvence, transfer_refinement_errors

NODES = np.array(S12, dtype=float).T  # theta and zeta of the stencil nodes


def dense_fit(data):
    """Independent 12x12 fit: loop-built Vandermonde rows, dense solve."""
    M = np.zeros((12, 12))
    for row, (a, b) in enumerate(S12):
        for col, (p, q) in enumerate(BASIS_EXPONENTS):
            M[row, col] = float(a) ** p * float(b) ** q
    return np.linalg.solve(M, np.asarray(data, dtype=float))


def oracle_value(data, t, z):
    """The interpolant of stencil data at one point, monomial by monomial."""
    c = dense_fit(data)
    return sum(c[n] * t ** p * z ** q for n, (p, q) in enumerate(BASIS_EXPONENTS))


def samples(p, q):
    """theta^p * zeta^q at the stencil nodes, in S12 order."""
    return np.array([float(a) ** p * float(b) ** q for a, b in S12])


def interior(Y):
    """The whole interior of a Field: its frame values mirrored out."""
    return Y.frame.expand(Y.values, 1, Y.grid.N)


def loop_prolong(end, k, stop=None):
    """Per-node transfer: fit the owning cell, evaluate at the fine offset,
    for the fine nodes 1 .. stop - 1 (default: the whole fine interior)."""
    N = end.grid.N
    F = np.pad(interior(end), 1, constant_values=end.grid.g)
    fill = end.grid.g
    stop = k * N if stop is None else stop

    def value(p, q):
        return F[p, q] if 0 <= p <= N and 0 <= q <= N else fill

    out = np.empty((stop - 1, stop - 1))
    for I in range(1, stop):
        i, l = divmod(I, k)
        for J in range(1, stop):
            j, r = divmod(J, k)
            data = [value(i + a, j + b) for a, b in S12]
            out[I - 1, J - 1] = k ** (2.0 / 3.0) * oracle_value(data, l / k, r / k)
    return out


class TestFitCell:
    """The fit behind cell_map: the patch through a cell's 12 values."""

    def test_constant_data(self):
        t, z = np.meshgrid(np.linspace(-1.0, 2.0, 7), np.linspace(-1.0, 2.0, 7))
        assert np.max(np.abs(cell_map(t, z) @ np.ones(12) - 1.0)) < 1e-13
        assert np.max(np.abs(cell_map(t, z, laplacian=True) @ np.ones(12))) < 1e-12

    def test_basis_monomial_theta3_zeta(self):
        t, z = np.random.default_rng(20).uniform(-1.0, 2.0, (2, 20))
        got = cell_map(t, z) @ samples(3, 1)
        assert np.max(np.abs(got - t ** 3 * z)) < 1e-12

    def test_matches_dense_loop_solve(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            data = rng.uniform(-5.0, 5.0, 12)
            t, z = rng.uniform(-1.0, 2.0, 2)
            assert cell_map(t, z) @ data == pytest.approx(
                oracle_value(data, t, z), abs=1e-11
            )

    def test_round_trip_on_stencil(self):
        rng = np.random.default_rng(22)
        data = rng.uniform(-5.0, 5.0, 12)
        assert np.max(np.abs(cell_map(*NODES) @ data - data)) < 1e-11

    def test_reference_matrix_well_conditioned(self):
        assert np.linalg.cond(REFERENCE_MATRIX) < 1e3

    def test_inverse_is_an_exact_integer_table_over_6(self):
        table = 6.0 * REFERENCE_INVERSE
        assert np.array_equal(table, np.round(table))
        assert np.abs(table).max() <= 6.0
        ints = table.astype(np.int64)
        product = REFERENCE_MATRIX.astype(np.int64) @ ints
        assert np.array_equal(product, 6 * np.eye(12, dtype=np.int64))
        assert np.array_equal(REFERENCE_MATRIX, REFERENCE_MATRIX.astype(np.int64))

    def test_inverse_matches_lapack(self):
        assert np.max(np.abs(REFERENCE_INVERSE - np.linalg.inv(REFERENCE_MATRIX))) < 1e-14

    def test_reference_matrix_one_norm_condition(self):
        # the value suite_unisolvence reports: ||A||_1 = 22, ||A^-1||_1 = 8
        condition = [c.measured for c in suite_unisolvence()
                     if c.name == "reference_matrix_condition"]
        assert condition == [176.0]
        assert np.linalg.cond(REFERENCE_MATRIX, 1) == pytest.approx(176.0, rel=1e-13)


class TestEvalCell:
    """cell_map as the value of the patch at given points."""

    def test_constant_fit_anywhere(self):
        assert cell_map(0.37, -0.8) @ np.ones(12) == pytest.approx(1.0, abs=1e-12)

    def test_linear_fit(self):
        assert cell_map(0.5, 0.3) @ samples(1, 0) == pytest.approx(0.5, abs=1e-12)

    def test_cubic_exact_off_stencil(self):
        rng = np.random.default_rng(23)
        coeffs = {(p, q): rng.uniform(-1, 1) for p in range(4) for q in range(4)
                  if p + q <= 3}

        def poly(t, z):
            return sum(v * t ** p * z ** q for (p, q), v in coeffs.items())

        data = poly(*NODES)
        t, z = rng.uniform(-1.0, 2.0, (2, 20))
        assert np.max(np.abs(cell_map(t, z) @ data - poly(t, z))) < 1e-11

    @pytest.mark.parametrize("shape", [(), (5,), (3, 4)])
    def test_shape_contract(self, shape):
        # points of any shape map to (*shape, 12), and each point's row is
        # the per-point oracle's
        rng = np.random.default_rng(29)
        t, z = rng.uniform(-1.0, 2.0, (2, *shape))
        data = rng.uniform(-5.0, 5.0, 12)
        maps = cell_map(t, z)
        assert maps.shape == (*shape, 12)
        for idx in np.ndindex(*shape):
            assert maps[idx] @ data == pytest.approx(
                oracle_value(data, t[idx], z[idx]), abs=1e-11
            )


class TestLaplacianCell:
    """cell_map(laplacian=True) as the Laplacian of the patch, local units."""

    def test_pure_theta_square(self):
        for t, z in ((0.0, 0.0), (0.5, 0.7), (1.0, -1.0)):
            lap = cell_map(t, z, laplacian=True) @ samples(2, 0)
            assert lap == pytest.approx(2.0)

    def test_constant_fit(self):
        lap = cell_map(0.3, 0.3, laplacian=True) @ np.ones(12)
        assert lap == pytest.approx(0.0, abs=1e-12)

    def test_matches_centered_differences(self):
        rng = np.random.default_rng(24)
        for _ in range(25):
            data = rng.uniform(-2.0, 2.0, 12)
            t, z = rng.uniform(0.0, 1.0, 2)
            d = 1e-4
            fd = (
                oracle_value(data, t + d, z)
                + oracle_value(data, t - d, z)
                + oracle_value(data, t, z + d)
                + oracle_value(data, t, z - d)
                - 4.0 * oracle_value(data, t, z)
            ) / (d * d)
            lap = cell_map(t, z, laplacian=True) @ data
            assert lap == pytest.approx(fd, abs=1e-6)


def constant_end():
    """The constant admissible state 1/A at A = 0.6 on 6 intervals."""
    frame = Frame(Grid(0.6, 6))
    return Field(frame, np.full(frame.shape, frame.grid.g))


def random_end(rng, N, spread):
    """A random state at A = 0.6 within spread of its boundary value."""
    frame = Frame(Grid(0.6, N))
    return Field(frame, 1.0 / 0.6 + rng.uniform(-spread, spread, frame.shape))


class TestTransferAmplitude:
    def test_reference_factor_two(self):
        out = prolong_stage(constant_end(), 2)
        A_to = 0.6 * 2 ** (-2.0 / 3.0)
        assert out.grid.A == pytest.approx(A_to, rel=1e-14)
        assert out.grid.g == pytest.approx(1.0 / A_to, rel=1e-14)
        # k^{2/3} times the fill 1/A_from is the new boundary value 1/A_to
        assert 2 ** (2.0 / 3.0) / 0.6 == pytest.approx(out.grid.g, rel=1e-12)

    def test_rejects_small_factor(self):
        with pytest.raises(ValueError, match="factor"):
            prolong_stage(constant_end(), 1)
        with pytest.raises(ValueError, match="amplitude"):
            Grid(0.0, 6)


class TestProlongStage:
    def test_constant_maps_to_constant(self):
        out = prolong_stage(constant_end(), 2)
        assert out.grid.N == 12
        assert np.max(np.abs(out.values - 1.0 / out.grid.A)) < 1e-13

    def test_mesh_width_preserved_domain_dilated(self):
        const = constant_end()
        coarse = const.grid
        out = prolong_stage(const, 2)
        assert out.grid.h == pytest.approx(coarse.h, rel=1e-12)
        assert out.grid.L == pytest.approx(2.0 * coarse.L, rel=1e-12)

    def test_linear_profile_rescales_exactly(self):
        # affine samples on the quarter prolong to k^{-1/3} xi + k^{2/3} C on
        # cells whose stencil reads only quarter (linear) values, 2 <= i, j
        # <= n - 2: the mirror expansion bends at the mid-line
        A, N, k = 0.6, 17, 2
        frame = Frame(Grid(A, N))
        grid, n = frame.grid, frame.shape[0]
        C = 2.0 * grid.L + 1.0
        x = frame.nodes_1d()
        end = Field(frame, np.tile((x + C)[:, None], (1, n)))
        out = prolong_stage(end, k)
        h, Lf = grid.h, k * grid.L
        for i in range(2, n - 1):
            for j in range(2, n - 1):
                for l in range(k):
                    for r in range(k):
                        I, J = k * i + l, k * j + r
                        xi = I * h - Lf
                        want = k ** (-1.0 / 3.0) * xi + k ** (2.0 / 3.0) * C
                        assert out.values[I - 1, J - 1] == pytest.approx(
                            want, rel=1e-12
                        )

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("N", [3, 4, 9])
    def test_matches_per_node_loop(self, N, k):
        # N = 3 and 4 put every cell next to the fill ring; the fine quarter,
        # mirrored out, is the loop transfer of the whole coarse interior
        end = random_end(np.random.default_rng(100 * N + k), N, 0.5)
        got = interior(prolong_stage(end, k))
        assert np.max(np.abs(got - loop_prolong(end, k))) < 1e-13

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("N", [2, 3, 4, 5, 6, 9, 18])
    def test_folded_end_gives_the_restricted_dense_transfer(self, N, k):
        # the transfer evaluates only the cells that own the fine quarter,
        # reading their stencils from the coarse quarter: the quarter of the
        # loop transfer of the whole interior (N = 2..6 is the property
        # tests' N0 range, where the stencils reach the boundary ring and
        # beyond)
        end = random_end(np.random.default_rng(10 * N + k), N, 0.5)
        got = prolong_stage(end, k)
        assert got.grid == Grid(0.6 * k ** (-2.0 / 3.0), k * N)
        assert got.values.shape == (k * N // 2, k * N // 2)
        n = got.values.shape[0]
        want = loop_prolong(end, k, stop=n + 1)
        assert np.max(np.abs(got.values - want)) < 1e-13

    def test_rejects_inadmissible_end(self):
        frame = Frame(Grid(0.6, 6))
        bad = Field(frame, np.full(frame.shape, -1.0))
        with pytest.raises(ValueError):
            prolong_stage(bad, 2)


def reference_stage0_event():
    cfg = StagewiseConfig()
    Z0 = initial_rescaled_profile(cfg.A0, cfg.N0, cfg.u0_amplitude)
    state = StageState(m=0, Z=Z0, t=0.0)
    _, event = run_stage(state, cfg)
    return event


class TestEdgeConsistency:
    def test_random_fields(self):
        rng = np.random.default_rng(26)
        for _ in range(3):
            assert edge_consistency_check(random_end(rng, 8, 0.3)) < 1e-11

    def test_constant_field(self):
        assert edge_consistency_check(constant_end()) < 1e-13

    def test_reference_stage_end_state(self):
        event = reference_stage0_event()
        assert edge_consistency_check(event) < 1e-11


class TestLaplaceCompat:
    def test_random_field_k4(self):
        Y = random_end(np.random.default_rng(27), 8, 0.3)
        assert laplace_compat_check(Y, 4) < 1e-10

    def test_constant_field(self):
        assert laplace_compat_check(constant_end(), 2) < 1e-12

    def test_factor_two_checked_directly(self, monkeypatch):
        # k = 2 checks its one fine node per cell, the cell centre, on the
        # k = 2 prolongation itself
        factors = []

        def recording(end, k):
            factors.append(k)
            return prolong_stage(end, k)

        monkeypatch.setattr("quenchstage.prolongation.prolong_stage", recording)
        Y = random_end(np.random.default_rng(28), 8, 0.3)
        assert laplace_compat_check(Y, 2) < 1e-10
        assert factors == [2]

    def test_reference_stage_end_state(self):
        event = reference_stage0_event()
        assert laplace_compat_check(event, 2) < 1e-10


class TestRefinementStudy:
    def test_energy_sums_converge_at_second_order(self):
        errors = transfer_refinement_errors()
        for (d0, r0), (d1, r1) in zip(errors, errors[1:]):
            assert np.log2(d0 / d1) >= 2.0
            assert np.log2(r0 / r1) >= 2.0
