"""Grid construction, frames, and difference-calculus checks.

The brute-force oracles here enumerate edges and stencils with explicit
Python loops over the flat extension, built here with np.pad from the mirror
expansion of a state's frame values (which a per-node loop checks), so they
share no code path with the vectorized operators.
"""

import numpy as np
import pytest

from quenchstage.grid import Field, Grid, laplacian_5pt


def interior(Y):
    """The whole interior of a Field: its frame values mirrored out."""
    return Y.grid.expand(Y.values, 1, Y.grid.N)


def flat_extension(Y):
    """All (N+1)^2 nodes of a Field: its interior inside a ring of g."""
    return np.pad(interior(Y), 1, constant_values=Y.grid.g)


def expand_by_loop(Y, start, stop):
    """The window start..stop-1 of nodes, node by node: node i reads frame
    index min(i, N-i) - 1, and g off the interior 1..N-1."""
    N = Y.grid.N
    nodes = range(start, stop)
    out = np.empty((len(nodes), len(nodes)))
    for a, i in enumerate(nodes):
        for b, j in enumerate(nodes):
            if 1 <= i <= N - 1 and 1 <= j <= N - 1:
                out[a, b] = Y.values[min(i, N - i) - 1, min(j, N - j) - 1]
            else:
                out[a, b] = Y.grid.g
    return out


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


def full_laplacian(F, h):
    """The five-point Laplacian of all nodes F, on the interior, vectorized."""
    return (F[2:, 1:-1] + F[:-2, 1:-1] + F[1:-1, 2:] + F[1:-1, :-2]
            - 4.0 * F[1:-1, 1:-1]) / h ** 2


def grad_norm_sq(Y):
    """The gradient sum of a Field, from its frame values."""
    return Y.grid.grad_norm_sq(Y.values)


def random_field(rng, N=6, A=0.6):
    grid = Grid(A, N)
    return Field(grid, grid.g + rng.uniform(-0.3, 0.3, grid.shape))


def symmetric_interior(N, seed):
    """A random interior of Grid(0.6, N), symmetric about both mid-lines."""
    a = np.random.default_rng(seed).uniform(0.2, 1.0, (N - 1, N - 1))
    a = a + a[::-1]
    return a + a[:, ::-1]


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

    def test_equality_and_hash_read_A_and_N_alone(self):
        # a grid holds its frame members in the instance; its equality and
        # hash still come from (A, N) alone
        grid, same = Grid(0.6, 9), Grid(0.6, 9)
        assert len(grid.w) == 4
        grid.expand(np.ones(grid.shape), -1, 3)
        assert {"w", "shape"} <= vars(grid).keys()
        assert grid == same and hash(grid) == hash(same)
        assert grid != Grid(0.6, 8)

    def test_node_coordinates(self):
        # A = 1 is the physical unit square, centred: the frame's nodes run
        # from -1/2 + h to the centre line
        grid = Grid(1.0, 4)
        assert grid.h == 0.25
        assert np.array_equal(grid.nodes_1d(), [-0.25, 0.0])
        # N // 2 nodes h apart, from one h inside the boundary line -L to
        # half an h before the centre of an odd N
        grid = Grid(0.6, 9)
        nodes = grid.nodes_1d()
        assert len(nodes) == 4
        assert nodes[0] == pytest.approx(-grid.L + grid.h, rel=1e-15)
        assert nodes[-1] == pytest.approx(-0.5 * grid.h, rel=1e-14)
        assert np.diff(nodes) == pytest.approx(grid.h, rel=1e-14)


class TestField:
    def test_shape_checked(self):
        grid = Grid(1.0, 4)
        with pytest.raises(ValueError):
            Field(grid, np.ones((3, 2)))
        # the values are the frame's: the quarter, not the whole interior
        with pytest.raises(ValueError, match="does not match frame"):
            Field(Grid(0.6, 7), np.ones((6, 6)))

    def test_admissibility(self):
        grid = Grid(1.0, 5)
        pos = Field(grid, np.ones((2, 2)))
        assert pos.is_admissible()
        touching = Field(grid, np.array([[1.0, 0.0], [1.0, 1.0]]))
        assert not touching.is_admissible()


class TestFlatExtend:
    # the window of every node, 0 .. N, is the flat extension
    @staticmethod
    def all_nodes(Y):
        F = Y.grid.expand(Y.values, 0, Y.grid.N + 1)
        assert np.array_equal(F, flat_extension(Y))
        return F

    def test_single_interior_node(self):
        grid = Grid(0.5, 2)  # boundary value g = 1/A = 2
        Y = Field(grid, np.array([[1.0]]))
        F = self.all_nodes(Y)
        assert F.shape == (3, 3)
        assert F[1, 1] == 1.0
        boundary = np.concatenate([F[0, :], F[-1, :], F[1:-1, 0], F[1:-1, -1]])
        assert boundary.shape == (8,)
        assert np.all(boundary == 2.0)

    def test_reciprocal_amplitude_boundary(self):
        grid = Grid(0.6, 4)
        Y = Field(grid, np.ones((2, 2)))
        F = self.all_nodes(Y)
        assert F[0, 0] == pytest.approx(1.6666666667, abs=1e-9)

    def test_physical_boundary_of_ones(self):
        grid = Grid(1.0, 3)
        Y = Field(grid, 0.5 * np.ones((1, 1)))
        F = self.all_nodes(Y)
        assert np.all(F[0, :] == 1.0) and np.all(F[:, 0] == 1.0)


class TestGradNormSq:
    def test_constant_field_vanishes(self):
        grid = Grid(0.7, 5)
        Y = Field(grid, np.full((2, 2), grid.g))
        assert grad_norm_sq(Y) == 0.0

    def test_single_node_hand_count(self):
        # 3x3 node set has 12 edges; only the 4 touching the center differ
        grid = Grid(2.5, 2)  # g = 0.4
        y, g = 1.7, grid.g
        Y = Field(grid, np.array([[y]]))
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
        shifted = Field(grid, Y.values + 3.7)
        assert grad_norm_sq(shifted) == pytest.approx(grad_norm_sq(Y), rel=1e-12)


class TestFrame:
    # the quarter members of Grid: its weights, sums, windows and restriction
    @staticmethod
    def quarter_and_interior(N, restricted):
        """The grid Grid(0.6, N), frame values on it and the whole interior
        they stand for: values restricted from a random symmetric interior,
        or values drawn on the frame and the interior their mirror
        expansion, node by node."""
        grid = Grid(0.6, N)
        if restricted:
            full = symmetric_interior(N, seed=N)
            return grid, grid.restrict(full), full
        values = np.random.default_rng(N).uniform(0.2, 1.0, grid.shape)
        return grid, values, expand_by_loop(Field(grid, values), 1, N)

    # N = 2 folds to one node; an even N has a middle line of weight 1
    @pytest.mark.parametrize("N", [2, 3, 4, 5, 8, 9, 18, 19, 72])
    @pytest.mark.parametrize("restricted", [True, False])
    def test_frame_sums_are_the_full_grid_sums(self, N, restricted):
        grid, values, full = self.quarter_and_interior(N, restricted)
        assert values.shape == (N // 2, N // 2)
        assert np.array_equal(grid.expand(values, 1, N), full)
        F = np.pad(full, 1, constant_values=grid.g)
        want = brute_force_grad_sq(F)
        assert grid.grad_norm_sq(values) == pytest.approx(want, rel=1e-14)
        want = sum(float(x) for x in (1.0 / full).ravel())
        assert grid.sum(1.0 / values) == pytest.approx(want, rel=1e-14)

    # N <= 4 puts the windows' last nodes on the boundary ring and beyond it
    @pytest.mark.parametrize("N", [2, 3, 4, 5, 6, 9, 18, 19])
    @pytest.mark.parametrize("restricted", [True, False])
    def test_window_is_the_padded_interior(self, N, restricted):
        # the transfer reads nodes -1 .. stop - 1 from the frame values: to
        # the bit the leading block of the interior padded by two lines of g
        grid, values, full = self.quarter_and_interior(N, restricted)
        padded = np.pad(full, 2, constant_values=grid.g)
        for stop in range(N + 3):
            window = grid.expand(values, -1, stop)
            assert np.array_equal(window, padded[: stop + 1, : stop + 1])

    # N = 2..40, every window the package reads: the transfer's stencils
    # for k = 2 and 3, the Laplacian's bordered frame, the whole interior
    # and the edge check's window
    @pytest.mark.parametrize("N", range(2, 41))
    def test_expand_matches_node_loop(self, N):
        grid = Grid(0.6, N)
        Y = Field(grid, np.random.default_rng(N).uniform(0.2, 1.0, grid.shape))
        n = grid.shape[0]
        windows = [(-1, (k * N // 2) // k + 3) for k in (2, 3)]
        windows += [(0, n + 2), (1, N), (-1, N + 2)]
        for start, stop in windows:
            got = grid.expand(Y.values, start, stop)
            assert np.array_equal(got, expand_by_loop(Y, start, stop)), (start, stop)

    # N = 2 and 3 fold to a 1x1 quarter
    @pytest.mark.parametrize("N", [2, 3, 8])
    @pytest.mark.parametrize("transposed", [True, False])
    def test_restrict_copies(self, N, transposed):
        # the solve writes over its right-hand side, so a restricted array
        # must not be the caller's interior or a view of it, and is
        # C-contiguous whatever the caller's layout
        Y = symmetric_interior(N, seed=N)
        Y = Y.T if transposed else Y
        values = Grid(0.6, N).restrict(Y)
        assert not np.shares_memory(values, Y)
        assert values.flags.c_contiguous

    def test_weights_count_each_node_once(self):
        # odd N: every quarter line stands for two; even N: the middle for one
        assert np.array_equal(Grid(0.6, 9).w, [2.0] * 4)
        assert np.array_equal(Grid(0.6, 8).w, [2.0] * 3 + [1.0])
        assert np.array_equal(Grid(0.6, 2).w, [1.0])
        for N in (2, 3, 8, 9):
            grid = Grid(0.6, N)
            assert grid.sum(np.ones(grid.shape)) == (N - 1) ** 2

    def test_field_expands_the_frame(self):
        for N in (6, 7):
            full = symmetric_interior(N, seed=1)
            grid = Grid(0.6, N)
            out = Field(grid, grid.restrict(full))
            assert np.array_equal(interior(out), full)
            assert out.min_interior() == full.min()


class TestLaplacian:
    def test_constant_field_vanishes(self):
        grid = Grid(0.9, 4)
        Y = Field(grid, np.full((2, 2), grid.g))
        assert np.all(laplacian_5pt(Y) == 0.0)

    def test_single_node_stencil(self):
        grid = Grid(2.0, 2)  # g = 0.5
        y, g = 2.0, grid.g
        Y = Field(grid, np.array([[y]]))
        lap = laplacian_5pt(Y)
        assert lap[0, 0] == pytest.approx((4 * g - 4 * y) / grid.h**2, rel=1e-13)

    def test_quadratic_exactness(self):
        # x^2 + y^2 has Laplacian 4; centered differences are exact on it,
        # and it is symmetric about both mid-lines, so the mirror line agrees
        for N in (6, 7):
            grid = Grid(1.0, N)
            x = grid.nodes_1d()
            X, Y2 = np.meshgrid(x, x, indexing="ij")
            lap = laplacian_5pt(Field(grid, X**2 + Y2**2))
            # only stencils that read no boundary node see consistent samples
            assert np.allclose(lap[1:, 1:], 4.0, atol=1e-11)

    def test_annihilates_affine(self):
        # an affine function on the quarter: its mirror expansion has a kink
        # on the mid-lines, so only stencils that read neither the boundary
        # nor the mirror line see it
        grid = Grid(1.0, 9)
        x = grid.nodes_1d()
        X, Y2 = np.meshgrid(x, x, indexing="ij")
        Y = Field(grid, 2.0 * X - 3.0 * Y2 + 1.0)
        lap = laplacian_5pt(Y)
        assert np.allclose(lap[1:-1, 1:-1], 0.0, atol=1e-11)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        Y = random_field(rng, N=7)
        assert np.allclose(
            laplacian_5pt(Y),
            Y.grid.restrict(brute_force_laplacian(flat_extension(Y), Y.grid.h)),
            rtol=1e-12,
            atol=1e-12,
        )

    # N = 2 borders the frame with g; from N = 3 on the mirror line reads
    # the frame, for an odd and an even N
    @pytest.mark.parametrize("N", range(2, 40))
    def test_quarter_is_the_restricted_full_laplacian(self, N):
        Y = random_field(np.random.default_rng(N), N=N)
        got = laplacian_5pt(Y)
        assert got.shape == Y.grid.shape
        want = full_laplacian(flat_extension(Y), Y.grid.h)
        assert np.array_equal(got, Y.grid.restrict(want))


class TestGreenIdentity:
    # h^2 (-lap Y, Phi) is the energy's gradient form polarized at Y +- Phi,
    # which keep Y's boundary value g when Phi vanishes on the boundary
    @staticmethod
    def polarized(grid, Y, Phi):
        return (grid.grad_norm_sq(Y + Phi) - grid.grad_norm_sq(Y - Phi)) / 4.0

    def test_twenty_random_fields(self):
        # the form verify green checks: both sides on the quarter
        rng = np.random.default_rng(7)
        for _ in range(20):
            Y = random_field(rng, N=int(rng.integers(3, 9)), A=float(rng.uniform(0.3, 1.2)))
            # a test function with boundary value 0, given by its frame values
            Phi = rng.uniform(-1.0, 1.0, Y.values.shape)
            lhs = Y.grid.h * Y.grid.h * Y.grid.sum(-laplacian_5pt(Y) * Phi)
            rhs = self.polarized(Y.grid, Y.values, Phi)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))

    # N = 2 folds to one node; an even N has a middle line of weight 1
    @pytest.mark.parametrize("N", [2, 3, 4, 5, 8, 9])
    def test_folded_frame(self, N):
        # symmetric Y and Phi: the left side on the full interior, the right
        # side from the quarter values alone
        full = symmetric_interior(N, seed=N)
        Phi = symmetric_interior(N, seed=N + 100) - 1.2
        grid = Grid(0.6, N)
        F = np.pad(full, 1, constant_values=grid.g)
        h2 = grid.h ** 2
        lhs = h2 * np.sum(-brute_force_laplacian(F, grid.h) * Phi)
        rhs = self.polarized(grid, grid.restrict(full), grid.restrict(Phi))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
