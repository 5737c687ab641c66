"""Grid construction, frames, and difference-calculus checks.

The brute-force oracles here enumerate edges and stencils with explicit
Python loops over the flat extension, built here with np.pad, so they share
no code path with the vectorized operators.
"""

import numpy as np
import pytest

from quenchstage.grid import Field, Frame, Grid, laplacian_5pt


def flat_extension(Y):
    """All (N+1)^2 nodes of a Field: its interior inside a ring of g."""
    return np.pad(Y.interior, 1, constant_values=Y.grid.g)


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


def grad_norm_sq(Y):
    """The gradient sum of a Field, on the dense frame of its grid."""
    return Frame(Y.grid).grad_norm_sq(Y.interior)


def random_field(rng, N=6, A=0.6):
    grid = Grid(A, N)
    interior = grid.g + rng.uniform(-0.3, 0.3, (N - 1, N - 1))
    return Field(Frame(grid), interior)


class TestGridConstruction:
    def test_reference_mesh_width(self):
        grid = Grid(0.6, 9)
        assert grid.h == pytest.approx(2.39073046e-1, abs=1e-9)
        assert grid.L == pytest.approx(1.0 / (2.0 * 0.6**1.5), rel=1e-15)

    def test_unit_amplitude(self):
        grid = Grid(1.0, 2)
        assert grid.L == pytest.approx(0.5, rel=1e-15)
        assert grid.h == pytest.approx(0.5, rel=1e-15)

    def test_mesh_width_fixed_under_stage_scaling(self):
        # N grows by the same factor the domain dilates by, so h is unchanged
        coarse = Grid(0.6, 9)
        fine = Grid(0.15, 72)
        assert fine.h == pytest.approx(coarse.h, rel=1e-12)

    def test_invalid_arguments(self):
        for A in (0.0, -1.0):
            with pytest.raises(ValueError, match="amplitude"):
                Grid(A, 9)
        for N in (1, 0, -3):
            with pytest.raises(ValueError, match="intervals"):
                Grid(1.0, N)

    @pytest.mark.parametrize("A", [1e-300, 1e-250, 1e-150, 1e250, float("inf")])
    def test_unrepresentable_amplitude(self, A):
        # A^(3/2) underflows to 0 (L = 1/0), overflows, or h^2 overflows
        with pytest.raises(ValueError, match="no representable grid"):
            Grid(A, 4)

    def test_small_amplitude_still_representable(self):
        grid = Grid(1e-100, 4)
        assert 0.0 < grid.h * grid.h < float("inf")
        assert grid.g == pytest.approx(1e100, rel=1e-15)

    def test_derived_widths_bit_for_bit(self):
        # the stage amplitudes of the reference runs and the direct run's A = 1
        amplitudes = [1.0] + [0.6 * 2.0 ** (-2.0 * m / 3.0) for m in range(7)]
        for A in amplitudes:
            L = 1.0 / (2.0 * A ** 1.5)
            for N in range(2, 601):
                grid = Grid(A, N)
                assert grid.L == L
                assert grid.h == 2.0 * L / N
                assert grid.g == 1.0 / A
                h = grid.h
                assert grid.A2h2 == A * A * h * h

    def test_node_coordinates(self):
        # A = 1 is the physical unit square, centred: the interior nodes run
        # over [-1/2 + h, 1/2 - h]
        grid = Grid(1.0, 4)
        assert grid.h == 0.25
        assert np.array_equal(grid.interior_nodes_1d(), [-0.25, 0.0, 0.25])
        # N - 1 nodes h apart, one h inside the boundary lines -L and L
        grid = Grid(0.6, 9)
        nodes = grid.interior_nodes_1d()
        assert len(nodes) == 8
        assert nodes[0] == pytest.approx(-grid.L + grid.h, rel=1e-15)
        assert nodes[-1] == pytest.approx(grid.L - grid.h, rel=1e-15)
        assert np.diff(nodes) == pytest.approx(grid.h, rel=1e-14)


class TestField:
    def test_shape_checked(self):
        grid = Grid(1.0, 4)
        with pytest.raises(ValueError):
            Field(Frame(grid), np.ones((2, 2)))
        # the values are the frame's: the quarter on a folded frame
        with pytest.raises(ValueError, match="does not match frame"):
            Field(Frame(Grid(0.6, 7), mirrored=True), np.ones((6, 6)))

    def test_admissibility(self):
        grid = Grid(1.0, 3)
        pos = Field(Frame(grid), np.ones((2, 2)))
        assert pos.is_admissible()
        touching = Field(Frame(grid), np.array([[1.0, 0.0], [1.0, 1.0]]))
        assert not touching.is_admissible()


class TestFlatExtend:
    # the window of every node, 0 .. N, is the flat extension
    @staticmethod
    def all_nodes(Y):
        F = Y.frame.expand(Y.values, 0, Y.grid.N + 1)
        assert np.array_equal(F, flat_extension(Y))
        return F

    def test_single_interior_node(self):
        grid = Grid(0.5, 2)  # boundary value g = 1/A = 2
        Y = Field(Frame(grid), np.array([[1.0]]))
        F = self.all_nodes(Y)
        assert F.shape == (3, 3)
        assert F[1, 1] == 1.0
        boundary = np.concatenate([F[0, :], F[-1, :], F[1:-1, 0], F[1:-1, -1]])
        assert boundary.shape == (8,)
        assert np.all(boundary == 2.0)

    def test_reciprocal_amplitude_boundary(self):
        grid = Grid(0.6, 4)
        Y = Field(Frame(grid), np.ones((3, 3)))
        F = self.all_nodes(Y)
        assert F[0, 0] == pytest.approx(1.6666666667, abs=1e-9)

    def test_physical_boundary_of_ones(self):
        grid = Grid(1.0, 3)
        Y = Field(Frame(grid), 0.5 * np.ones((2, 2)))
        F = self.all_nodes(Y)
        assert np.all(F[0, :] == 1.0) and np.all(F[:, 0] == 1.0)


class TestGradNormSq:
    def test_constant_field_vanishes(self):
        grid = Grid(0.7, 5)
        Y = Field(Frame(grid), np.full((4, 4), grid.g))
        assert grad_norm_sq(Y) == 0.0

    def test_single_node_hand_count(self):
        # 3x3 node set has 12 edges; only the 4 touching the center differ
        grid = Grid(2.5, 2)  # g = 0.4
        y, g = 1.7, grid.g
        Y = Field(Frame(grid), np.array([[y]]))
        assert grad_norm_sq(Y) == pytest.approx(4.0 * (y - g) ** 2, rel=1e-14)

    def test_matches_brute_force_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            Y = random_field(rng, N=int(rng.integers(3, 8)))
            assert grad_norm_sq(Y) == pytest.approx(
                brute_force_grad_sq(flat_extension(Y)), rel=1e-13
            )

    def test_invariant_under_constant_shift(self):
        rng = np.random.default_rng(4)
        Y = random_field(rng)
        # the grid whose boundary value is g + 3.7; the gradient sum reads no A
        grid = Grid(1.0 / (Y.grid.g + 3.7), Y.grid.N)
        shifted = Field(Frame(grid), Y.interior + 3.7)
        assert grad_norm_sq(shifted) == pytest.approx(grad_norm_sq(Y), rel=1e-12)


class TestFrame:
    @staticmethod
    def symmetric_field(N, seed):
        """A random state symmetric about both mid-lines on Grid(0.6, N)."""
        grid = Grid(0.6, N)
        a = np.random.default_rng(seed).uniform(0.2, 1.0, (N - 1, N - 1))
        a = a + a[::-1]
        return Field(Frame(grid), a + a[:, ::-1])

    # N = 2 folds to the dense frame; an even N has a middle line of weight 1
    @pytest.mark.parametrize("N", [2, 3, 4, 5, 8, 9, 18, 19, 72])
    @pytest.mark.parametrize("mirrored", [True, False])
    def test_frame_sums_are_the_full_grid_sums(self, N, mirrored):
        Y = self.symmetric_field(N, seed=N)
        frame = Frame(Y.grid, mirrored)
        n = N // 2 if mirrored else N - 1
        values = frame.restrict(Y.interior)
        assert values.shape == (n, n)
        assert np.array_equal(frame.expand(values), Y.interior)
        want = brute_force_grad_sq(flat_extension(Y))
        assert frame.grad_norm_sq(values) == pytest.approx(want, rel=1e-14)
        X = 1.0 / Y.interior
        want = sum(float(x) for x in X.ravel())
        assert frame.sum(1.0 / values) == pytest.approx(want, rel=1e-14)

    # N <= 4 puts the windows' last nodes on the boundary ring and beyond it
    @pytest.mark.parametrize("N", [2, 3, 4, 5, 6, 9, 18, 19])
    @pytest.mark.parametrize("mirrored", [True, False])
    def test_window_is_the_padded_interior(self, N, mirrored):
        # the transfer reads nodes -1 .. stop - 1 from the frame values: to
        # the bit the leading block of the interior padded by two lines of g
        Y = self.symmetric_field(N, seed=N)
        frame = Frame(Y.grid, mirrored)
        values = frame.restrict(Y.interior)
        padded = np.pad(frame.expand(values), 2, constant_values=Y.grid.g)
        for stop in range(N + 3):
            window = frame.expand(values, -1, stop)
            assert np.array_equal(window, padded[: stop + 1, : stop + 1])

    # N = 2 and 3 fold to a 1x1 quarter, once a view of the interior
    @pytest.mark.parametrize("N", [2, 3, 8])
    @pytest.mark.parametrize("mirrored", [True, False])
    def test_restrict_copies(self, N, mirrored):
        # the solve writes over its right-hand side, so a restricted array
        # must not be the caller's interior or a view of it
        Y = self.symmetric_field(N, seed=N).interior
        values = Frame(Grid(0.6, N), mirrored).restrict(Y)
        assert not np.shares_memory(values, Y)
        assert values.flags.c_contiguous

    def test_weights_count_each_node_once(self):
        # odd N: every quarter line stands for two; even N: the middle for one
        assert np.array_equal(Frame(Grid(0.6, 9), True).w, [2.0] * 4)
        assert np.array_equal(Frame(Grid(0.6, 8), True).w, [2.0] * 3 + [1.0])
        assert np.array_equal(Frame(Grid(0.6, 8)).w, np.ones(7))
        for N in (2, 3, 8, 9):
            for mirrored in (True, False):
                frame = Frame(Grid(0.6, N), mirrored)
                assert frame.sum(np.ones(frame.shape)) == (N - 1) ** 2

    def test_field_expands_the_frame(self):
        for N in (6, 7):
            Y = self.symmetric_field(N, seed=1)
            frame = Frame(Y.grid, mirrored=True)
            out = Field(frame, frame.restrict(Y.interior))
            assert out.grid == Y.grid
            assert np.array_equal(out.interior, Y.interior)
            assert out.min_interior() == Y.min_interior()

    def test_dense_field_is_its_interior(self):
        # the dense frame does not copy, and its sum is the plain one
        Y = self.symmetric_field(6, seed=2)
        assert Y.interior is Y.values
        assert Y.frame.sum(1.0 / Y.values) == float((1.0 / Y.interior).sum())


class TestLaplacian:
    def test_constant_field_vanishes(self):
        grid = Grid(0.9, 4)
        Y = Field(Frame(grid), np.full((3, 3), grid.g))
        assert np.all(laplacian_5pt(Y) == 0.0)

    def test_single_node_stencil(self):
        grid = Grid(2.0, 2)  # g = 0.5
        y, g = 2.0, grid.g
        Y = Field(Frame(grid), np.array([[y]]))
        lap = laplacian_5pt(Y)
        assert lap[0, 0] == pytest.approx((4 * g - 4 * y) / grid.h**2, rel=1e-13)

    def test_quadratic_exactness(self):
        # x^2 + y^2 has Laplacian 4; centered differences are exact on it
        grid = Grid(1.0, 6)
        x = grid.interior_nodes_1d()
        X, Y2 = np.meshgrid(x, x, indexing="ij")
        Y = Field(Frame(grid), X**2 + Y2**2)
        lap = laplacian_5pt(Y)
        # only stencils that read no boundary node see consistent samples
        assert np.allclose(lap[1:-1, 1:-1], 4.0, atol=1e-11)

    def test_annihilates_affine(self):
        grid = Grid(1.0, 6)
        x = grid.interior_nodes_1d()
        X, Y2 = np.meshgrid(x, x, indexing="ij")
        Y = Field(Frame(grid), 2.0 * X - 3.0 * Y2 + 1.0)
        lap = laplacian_5pt(Y)
        assert np.allclose(lap[1:-1, 1:-1], 0.0, atol=1e-11)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        Y = random_field(rng, N=7)
        assert np.allclose(
            laplacian_5pt(Y),
            brute_force_laplacian(flat_extension(Y), Y.grid.h),
            rtol=1e-12,
            atol=1e-12,
        )


class TestGreenIdentity:
    # h^2 (-lap Y, Phi) is the energy's gradient form polarized at Y +- Phi,
    # which keep Y's boundary value g when Phi vanishes on the boundary
    @staticmethod
    def polarized(frame, Y, Phi):
        return (frame.grad_norm_sq(Y + Phi) - frame.grad_norm_sq(Y - Phi)) / 4.0

    def test_twenty_random_fields(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            Y = random_field(rng, N=int(rng.integers(3, 9)), A=float(rng.uniform(0.3, 1.2)))
            # a test function with boundary value 0, given by its interior
            Phi = rng.uniform(-1.0, 1.0, Y.interior.shape)
            lhs = Y.grid.h * Y.grid.h * np.sum(-laplacian_5pt(Y) * Phi)
            rhs = self.polarized(Y.frame, Y.values, Phi)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    # N = 2 folds to one node; an even N has a middle line of weight 1
    @pytest.mark.parametrize("N", [2, 3, 4, 5, 8, 9])
    def test_folded_frame(self, N):
        # symmetric Y and Phi: the left side on the full interior, the right
        # side from the quarter values alone
        Y = TestFrame.symmetric_field(N, seed=N)
        a = np.random.default_rng(N + 100).uniform(-1.0, 1.0, (N - 1, N - 1))
        a = a + a[::-1]
        Phi = a + a[:, ::-1]
        lhs = Y.grid.h * Y.grid.h * np.sum(-laplacian_5pt(Y) * Phi)
        frame = Frame(Y.grid, mirrored=True)
        rhs = self.polarized(frame, frame.restrict(Y.interior), frame.restrict(Phi))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
