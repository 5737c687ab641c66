"""Grid construction, flat extension, and difference-calculus checks.

The brute-force oracles here enumerate edges and stencils with explicit
Python loops so they share no code path with the vectorized operators.
"""

import numpy as np
import pytest

from quenchstage.grid import (
    Field,
    build_rescaled_grid,
    flat_extend,
    grad_norm_sq,
    gradient_bilinear,
    inner_product,
    l2_norm,
    laplacian_5pt,
    linf_norm,
)


def brute_force_grad_sq(F):
    """Sum of squared differences over every axis-aligned node pair."""
    n = F.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i + 1 < n:
                total += (F[i + 1, j] - F[i, j]) ** 2
            if j + 1 < n:
                total += (F[i, j + 1] - F[i, j]) ** 2
    return total


def brute_force_laplacian(F, h):
    n = F.shape[0]
    out = np.zeros((n - 2, n - 2))
    for i in range(1, n - 1):
        for j in range(1, n - 1):
            out[i - 1, j - 1] = (
                F[i + 1, j] + F[i - 1, j] + F[i, j + 1] + F[i, j - 1] - 4 * F[i, j]
            ) / h**2
    return out


def random_field(rng, N=6, A=0.6):
    grid = build_rescaled_grid(A, N)
    g = 1.0 / A
    return Field(grid=grid, interior=g + rng.uniform(-0.3, 0.3, (N - 1, N - 1)), g=g)


class TestGridConstruction:
    def test_reference_mesh_width(self):
        grid = build_rescaled_grid(0.6, 9)
        assert grid.h == pytest.approx(2.39073046e-1, abs=1e-9)
        assert grid.L == pytest.approx(1.0 / (2.0 * 0.6**1.5), rel=1e-15)

    def test_unit_amplitude(self):
        grid = build_rescaled_grid(1.0, 2)
        assert grid.L == pytest.approx(0.5, rel=1e-15)
        assert grid.h == pytest.approx(0.5, rel=1e-15)

    def test_mesh_width_fixed_under_stage_scaling(self):
        # N grows by the same factor the domain dilates by, so h is unchanged
        coarse = build_rescaled_grid(0.6, 9)
        fine = build_rescaled_grid(0.15, 72)
        assert fine.h == pytest.approx(coarse.h, rel=1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_rescaled_grid(0.0, 9)
        with pytest.raises(ValueError):
            build_rescaled_grid(-1.0, 9)
        with pytest.raises(ValueError):
            build_rescaled_grid(1.0, 1)

    def test_node_coordinates(self):
        grid = build_rescaled_grid(1.0, 4)
        nodes = grid.nodes_1d()
        assert nodes[0] == pytest.approx(-grid.L)
        assert nodes[-1] == pytest.approx(grid.L)
        # A = 1 is the physical unit square, centred: nodes run over [-1/2, 1/2]
        assert nodes[0] == -0.5
        assert nodes[-1] == 0.5
        assert grid.h == 0.25


class TestField:
    def test_shape_checked(self):
        grid = build_rescaled_grid(1.0, 4)
        with pytest.raises(ValueError):
            Field(grid=grid, interior=np.ones((2, 2)), g=1.0)

    def test_admissibility(self):
        grid = build_rescaled_grid(1.0, 3)
        pos = Field(grid=grid, interior=np.ones((2, 2)), g=1.0)
        assert pos.is_admissible()
        touching = Field(grid=grid, interior=np.array([[1.0, 0.0], [1.0, 1.0]]), g=1.0)
        assert not touching.is_admissible()


class TestFlatExtend:
    def test_single_interior_node(self):
        grid = build_rescaled_grid(1.0, 2)
        Y = Field(grid=grid, interior=np.array([[1.0]]), g=2.0)
        F = flat_extend(Y)
        assert F.shape == (3, 3)
        assert F[1, 1] == 1.0
        boundary = np.concatenate([F[0, :], F[-1, :], F[1:-1, 0], F[1:-1, -1]])
        assert boundary.shape == (8,)
        assert np.all(boundary == 2.0)

    def test_reciprocal_amplitude_boundary(self):
        grid = build_rescaled_grid(0.6, 4)
        Y = Field(grid=grid, interior=np.ones((3, 3)), g=1.0 / 0.6)
        F = flat_extend(Y)
        assert F[0, 0] == pytest.approx(1.6666666667, abs=1e-9)

    def test_physical_boundary_of_ones(self):
        grid = build_rescaled_grid(1.0, 3)
        Y = Field(grid=grid, interior=0.5 * np.ones((2, 2)), g=1.0)
        F = flat_extend(Y)
        assert np.all(F[0, :] == 1.0) and np.all(F[:, 0] == 1.0)


class TestGradNormSq:
    def test_constant_field_vanishes(self):
        grid = build_rescaled_grid(0.7, 5)
        Y = Field(grid=grid, interior=np.full((4, 4), 2.5), g=2.5)
        assert grad_norm_sq(Y) == 0.0

    def test_single_node_hand_count(self):
        # 3x3 node set has 12 edges; only the 4 touching the center differ
        grid = build_rescaled_grid(1.0, 2)
        y, g = 1.7, 0.4
        Y = Field(grid=grid, interior=np.array([[y]]), g=g)
        assert grad_norm_sq(Y) == pytest.approx(4.0 * (y - g) ** 2, rel=1e-14)

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            Y = random_field(rng, N=int(rng.integers(3, 8)))
            assert grad_norm_sq(Y) == pytest.approx(
                brute_force_grad_sq(flat_extend(Y)), rel=1e-13
            )

    def test_invariant_under_constant_shift(self):
        rng = np.random.default_rng(4)
        Y = random_field(rng)
        shifted = Field(grid=Y.grid, interior=Y.interior + 3.7, g=Y.g + 3.7)
        assert grad_norm_sq(shifted) == pytest.approx(grad_norm_sq(Y), rel=1e-12)


class TestLaplacian:
    def test_constant_field_vanishes(self):
        grid = build_rescaled_grid(0.9, 4)
        Y = Field(grid=grid, interior=np.full((3, 3), 1.3), g=1.3)
        assert np.all(laplacian_5pt(Y) == 0.0)

    def test_single_node_stencil(self):
        grid = build_rescaled_grid(1.0, 2)
        y, g = 2.0, 0.5
        Y = Field(grid=grid, interior=np.array([[y]]), g=g)
        lap = laplacian_5pt(Y)
        assert lap[0, 0] == pytest.approx((4 * g - 4 * y) / grid.h**2, rel=1e-13)

    def test_quadratic_exactness(self):
        # x^2 + y^2 has Laplacian 4; centered differences are exact on it
        grid = build_rescaled_grid(1.0, 6)
        x = grid.interior_nodes_1d()
        X, Y2 = np.meshgrid(x, x, indexing="ij")
        Y = Field(grid=grid, interior=X**2 + Y2**2, g=0.0)
        lap = laplacian_5pt(Y)
        # only stencils that read no boundary node see consistent samples
        assert np.allclose(lap[1:-1, 1:-1], 4.0, atol=1e-11)

    def test_annihilates_affine(self):
        grid = build_rescaled_grid(1.0, 6)
        x = grid.interior_nodes_1d()
        X, Y2 = np.meshgrid(x, x, indexing="ij")
        Y = Field(grid=grid, interior=2.0 * X - 3.0 * Y2 + 1.0, g=0.0)
        lap = laplacian_5pt(Y)
        assert np.allclose(lap[1:-1, 1:-1], 0.0, atol=1e-11)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        Y = random_field(rng, N=7)
        assert np.allclose(
            laplacian_5pt(Y),
            brute_force_laplacian(flat_extend(Y), Y.grid.h),
            rtol=1e-12,
            atol=1e-12,
        )


class TestInnerProduct:
    def test_single_node(self):
        assert inner_product(np.array([[1.0]]), np.array([[1.0]]), 0.5) == 0.25

    def test_orthogonal_indicators(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.array([[0.0, 0.0], [0.0, 1.0]])
        assert inner_product(a, b, 0.3) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(np.ones((2, 2)), np.ones((3, 3)), 0.5)

    def test_linf_bounded_by_scaled_l2(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            h = float(rng.uniform(0.05, 0.5))
            Y = rng.uniform(-3.0, 3.0, (5, 5))
            assert linf_norm(Y) <= l2_norm(Y, h) / h + 1e-12


class TestGreenIdentity:
    def test_twenty_random_fields(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            Y = random_field(rng, N=int(rng.integers(3, 9)), A=float(rng.uniform(0.3, 1.2)))
            Phi = Field(
                grid=Y.grid,
                interior=rng.uniform(-1.0, 1.0, Y.interior.shape),
                g=0.0,
            )
            lhs = inner_product(-laplacian_5pt(Y), Phi.interior, Y.grid.h)
            rhs = gradient_bilinear(Y, Phi)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
