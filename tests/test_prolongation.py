"""12-point transfer: fit, evaluation, prolongation, compatibility checks.

The fit oracle rebuilds the 12x12 interpolation system with explicit loops
and solves it densely; the Laplacian oracle is a centered second difference
of eval_cell; the transfer oracle fits and evaluates every fine node's
owning cell one at a time.
"""

import numpy as np
import pytest

from quenchstage.drivers import (
    StagewiseConfig,
    StageState,
    initial_rescaled_profile,
    run_stage,
)
from quenchstage.grid import Field, build_rescaled_grid, flat_extend
from quenchstage.prolongation import (
    BASIS_EXPONENTS,
    REFERENCE_MATRIX,
    S12,
    TransferSpec,
    edge_consistency_check,
    eval_cell,
    fit_cell,
    laplace_compat_check,
    laplacian_cell,
    make_transfer,
    prolong_stage,
)
from quenchstage.verify import transfer_refinement_errors


def loop_prolong(end, spec):
    """Per-node transfer: fit the owning cell, evaluate at the fine offset."""
    N, k = end.grid.N, spec.k
    F = flat_extend(end)

    def value(p, q):
        return F[p, q] if 0 <= p <= N and 0 <= q <= N else spec.fill

    out = np.empty((k * N - 1, k * N - 1))
    for I in range(1, k * N):
        i, l = divmod(I, k)
        for J in range(1, k * N):
            j, r = divmod(J, k)
            c = fit_cell(np.array([value(i + a, j + b) for a, b in S12]))
            out[I - 1, J - 1] = spec.scale * eval_cell(c, l / k, r / k)
    return out


def dense_fit(data):
    """Independent 12x12 fit: loop-built Vandermonde rows, dense solve."""
    M = np.zeros((12, 12))
    for row, (a, b) in enumerate(S12):
        for col, (p, q) in enumerate(BASIS_EXPONENTS):
            M[row, col] = float(a) ** p * float(b) ** q
    return np.linalg.solve(M, np.asarray(data, dtype=float))


class TestFitCell:
    def test_constant_data(self):
        c = fit_cell(np.ones(12))
        assert c[0] == pytest.approx(1.0, abs=1e-13)
        assert np.max(np.abs(c[1:])) < 1e-13

    def test_basis_monomial_theta3_zeta(self):
        data = np.array([float(a) ** 3 * float(b) for a, b in S12])
        c = fit_cell(data)
        assert c[10] == pytest.approx(1.0, abs=1e-12)
        others = np.delete(c, 10)
        assert np.max(np.abs(others)) < 1e-12

    def test_matches_dense_loop_solve(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            data = rng.uniform(-5.0, 5.0, 12)
            assert np.max(np.abs(fit_cell(data) - dense_fit(data))) < 1e-11

    def test_round_trip_on_stencil(self):
        rng = np.random.default_rng(22)
        data = rng.uniform(-5.0, 5.0, 12)
        c = fit_cell(data)
        for idx, (a, b) in enumerate(S12):
            assert eval_cell(c, float(a), float(b)) == pytest.approx(
                data[idx], abs=1e-11
            )

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            fit_cell(np.ones(11))

    def test_reference_matrix_well_conditioned(self):
        assert np.linalg.cond(REFERENCE_MATRIX) < 1e3


class TestEvalCell:
    def test_constant_fit_anywhere(self):
        c = fit_cell(np.ones(12))
        assert eval_cell(c, 0.37, -0.8) == pytest.approx(1.0, abs=1e-12)

    def test_linear_fit(self):
        data = np.array([float(a) for a, _ in S12])
        c = fit_cell(data)
        assert eval_cell(c, 0.5, 0.3) == pytest.approx(0.5, abs=1e-12)

    def test_cubic_exact_off_stencil(self):
        rng = np.random.default_rng(23)
        coeffs = {(p, q): rng.uniform(-1, 1) for p in range(4) for q in range(4)
                  if p + q <= 3}

        def poly(t, z):
            return sum(v * t ** p * z ** q for (p, q), v in coeffs.items())

        data = np.array([poly(float(a), float(b)) for a, b in S12])
        c = fit_cell(data)
        for _ in range(20):
            t, z = rng.uniform(-1.0, 2.0, 2)
            assert eval_cell(c, t, z) == pytest.approx(poly(t, z), abs=1e-11)


class TestLaplacianCell:
    def test_pure_theta_square(self):
        c = np.zeros(12)
        c[3] = 1.0
        for t, z in ((0.0, 0.0), (0.5, 0.7), (1.0, -1.0)):
            assert laplacian_cell(c, t, z, 1.0) == pytest.approx(2.0)

    def test_constant_fit(self):
        c = fit_cell(np.ones(12))
        assert laplacian_cell(c, 0.3, 0.3, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_matches_centered_differences(self):
        rng = np.random.default_rng(24)
        for _ in range(25):
            c = fit_cell(rng.uniform(-2.0, 2.0, 12))
            t, z = rng.uniform(0.0, 1.0, 2)
            d = 1e-4
            fd = (
                eval_cell(c, t + d, z)
                + eval_cell(c, t - d, z)
                + eval_cell(c, t, z + d)
                + eval_cell(c, t, z - d)
                - 4.0 * eval_cell(c, t, z)
            ) / (d * d)
            assert laplacian_cell(c, t, z, 1.0) == pytest.approx(fd, abs=1e-6)

    def test_mesh_scaling(self):
        rng = np.random.default_rng(25)
        c = fit_cell(rng.uniform(-2.0, 2.0, 12))
        base = laplacian_cell(c, 0.4, 0.6, 1.0)
        assert laplacian_cell(c, 0.4, 0.6, 0.5) == pytest.approx(4.0 * base)


class TestTransferSpec:
    def test_reference_factor_two(self):
        spec = make_transfer(0.6, 2)
        assert spec.A_to == pytest.approx(0.6 * 2 ** (-2.0 / 3.0), rel=1e-14)
        assert spec.fill == pytest.approx(1.0 / 0.6, rel=1e-14)
        # k^{2/3} * fill = 1/A_to
        assert spec.scale * spec.fill == pytest.approx(1.0 / spec.A_to, rel=1e-12)

    def test_rejects_small_factor(self):
        with pytest.raises(ValueError):
            make_transfer(0.6, 1)
        with pytest.raises(ValueError):
            TransferSpec(k=2, A_from=0.0)


class TestProlongStage:
    def test_constant_maps_to_constant(self):
        spec = make_transfer(0.6, 2)
        const = Field(
            grid=build_rescaled_grid(0.6, 6),
            interior=np.full((5, 5), 1.0 / 0.6),
            g=1.0 / 0.6,
        )
        out = prolong_stage(const, spec)
        assert out.grid.N == 12
        assert out.g == pytest.approx(1.0 / spec.A_to, rel=1e-14)
        assert np.max(np.abs(out.interior - 1.0 / spec.A_to)) < 1e-13

    def test_mesh_width_preserved_domain_dilated(self):
        spec = make_transfer(0.6, 2)
        coarse = build_rescaled_grid(0.6, 6)
        const = Field(
            grid=coarse, interior=np.full((5, 5), 1.0 / 0.6), g=1.0 / 0.6
        )
        out = prolong_stage(const, spec)
        assert out.grid.h == pytest.approx(coarse.h, rel=1e-12)
        assert out.grid.L == pytest.approx(2.0 * coarse.L, rel=1e-12)

    def test_linear_profile_rescales_exactly(self):
        # affine samples prolong to k^{-1/3} xi + k^{2/3} C on cells whose
        # stencil reads only interior (linear) values: 2 <= i, j <= N-3
        A, N, k = 0.6, 9, 2
        spec = make_transfer(A, k)
        grid = build_rescaled_grid(A, N)
        C = 2.0 * grid.L + 1.0
        x = grid.interior_nodes_1d()
        interior = np.tile((x + C)[:, None], (1, N - 1))
        end = Field(grid=grid, interior=interior, g=1.0 / A)
        out = prolong_stage(end, spec)
        h, Lf = grid.h, k * grid.L
        for i in range(2, N - 2):
            for j in range(2, N - 2):
                for l in range(k):
                    for r in range(k):
                        I, J = k * i + l, k * j + r
                        xi = I * h - Lf
                        want = k ** (-1.0 / 3.0) * xi + k ** (2.0 / 3.0) * C
                        assert out.interior[I - 1, J - 1] == pytest.approx(
                            want, rel=1e-12
                        )

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("N", [3, 4, 9])
    def test_matches_per_node_loop(self, N, k):
        # N = 3 and 4 put every cell next to the fill ring
        rng = np.random.default_rng(100 * N + k)
        A = 0.6
        end = Field(
            grid=build_rescaled_grid(A, N),
            interior=1.0 / A + rng.uniform(-0.5, 0.5, (N - 1, N - 1)),
            g=1.0 / A,
        )
        spec = make_transfer(A, k)
        got = prolong_stage(end, spec).interior
        assert np.max(np.abs(got - loop_prolong(end, spec))) < 1e-13

    def test_rejects_inadmissible_end(self):
        spec = make_transfer(0.6, 2)
        grid = build_rescaled_grid(0.6, 6)
        bad = Field(grid=grid, interior=np.full((5, 5), -1.0), g=1.0 / 0.6)
        with pytest.raises(ValueError):
            prolong_stage(bad, spec)

    def test_rejects_boundary_mismatch(self):
        spec = make_transfer(0.6, 2)
        grid = build_rescaled_grid(0.6, 6)
        end = Field(grid=grid, interior=np.full((5, 5), 1.0), g=1.0)
        with pytest.raises(ValueError):
            prolong_stage(end, spec)


def reference_stage0_event():
    cfg = StagewiseConfig()
    Z0 = initial_rescaled_profile(cfg.A0, cfg.N0, cfg.u0_amplitude)
    state = StageState(m=0, A=cfg.A0, Z=Z0, t=0.0)
    _, event = run_stage(state, cfg)
    return event


class TestEdgeConsistency:
    def test_random_fields(self):
        rng = np.random.default_rng(26)
        for _ in range(3):
            grid = build_rescaled_grid(0.6, 8)
            Y = Field(
                grid=grid,
                interior=1.0 / 0.6 + rng.uniform(-0.3, 0.3, (7, 7)),
                g=1.0 / 0.6,
            )
            assert edge_consistency_check(Y) < 1e-11

    def test_constant_field(self):
        const = Field(
            grid=build_rescaled_grid(0.6, 6),
            interior=np.full((5, 5), 1.0 / 0.6),
            g=1.0 / 0.6,
        )
        assert edge_consistency_check(const) < 1e-13

    def test_reference_stage_end_state(self):
        event = reference_stage0_event()
        assert edge_consistency_check(event) < 1e-11


class TestLaplaceCompat:
    def test_random_field_k4(self):
        rng = np.random.default_rng(27)
        grid = build_rescaled_grid(0.6, 8)
        Y = Field(
            grid=grid,
            interior=1.0 / 0.6 + rng.uniform(-0.3, 0.3, (7, 7)),
            g=1.0 / 0.6,
        )
        assert laplace_compat_check(Y, make_transfer(0.6, 4)) < 1e-10

    def test_constant_field(self):
        const = Field(
            grid=build_rescaled_grid(0.6, 6),
            interior=np.full((5, 5), 1.0 / 0.6),
            g=1.0 / 0.6,
        )
        assert laplace_compat_check(const, make_transfer(0.6, 2)) < 1e-12

    def test_factor_two_uses_synthetic_refinement(self):
        # k = 2 has no strictly interior fine offsets, so the check runs a
        # k = 4 refinement of the same end state; results must agree
        rng = np.random.default_rng(28)
        grid = build_rescaled_grid(0.6, 8)
        Y = Field(
            grid=grid,
            interior=1.0 / 0.6 + rng.uniform(-0.3, 0.3, (7, 7)),
            g=1.0 / 0.6,
        )
        r2 = laplace_compat_check(Y, make_transfer(0.6, 2))
        r4 = laplace_compat_check(Y, make_transfer(0.6, 4))
        assert r2 == pytest.approx(r4, rel=1e-12)
        assert r2 < 1e-10

    def test_reference_stage_end_state(self):
        event = reference_stage0_event()
        assert laplace_compat_check(event, make_transfer(0.6, 2)) < 1e-10


class TestRefinementStudy:
    def test_energy_sums_converge_at_second_order(self):
        errors = transfer_refinement_errors()
        for (d0, r0), (d1, r1) in zip(errors, errors[1:]):
            assert np.log2(d0 / d1) >= 2.0
            assert np.log2(r0 / r1) >= 2.0
