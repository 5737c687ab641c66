"""12-point coarse-to-fine stage transfer and its compatibility checks.

Each coarse cell (i, j) carries a polynomial in local coordinates
theta = (x - x_i)/h, zeta = (y - y_j)/h spanned by

    {1, theta, zeta, theta^2, theta*zeta, zeta^2,
     theta^3, theta^2*zeta, theta*zeta^2, zeta^3, theta^3*zeta, theta*zeta^3}

fitted on the 4x4 node block minus its four corners (12 nodes).  The fit is
unisolvent, reproduces every bivariate polynomial of total degree <= 3, and
restricts to the same univariate cubic on a shared cell edge from either
side, which makes the prolonged surface single-valued across interior
interfaces.  The fit's inverse, REFERENCE_INVERSE, is written out as its
exact integer table over 6, so the patch's weights are the same on every
build and no LAPACK routine runs.

A stage transfer by the factor k takes the end state from the amplitude
A_from of its grid to A_to = k^(-2/3) A_from; no other parameter is needed.
It dilates the domain by k at fixed mesh width and writes fine interior values

    Zhat(k*i + l, k*j + r) = k^(2/3) * P_ij(l/k, r/k),   l, r in {0..k-1},

with half-open cell ownership: fine index I belongs to cell I // k at offset
I % k.  Interior fine indices stop at k*N - 1, so every one of them has an
owner with offset below k, and the fine line k*N is the new boundary ring.
Stencil entries outside the coarse node set take the fill value g = 1/A_from
of the coarse grid, and the new boundary value is the fine grid's
g = 1/A_to.  Evaluating P_ij at a fixed offset is a fixed linear map of the
cell's 12 stencil values, so the transfer applies one k x k x 12 weight table
to all cells at once: cell_map's at the k x k offsets, times k^(2/3).
cell_map is the one evaluation of the patch; the edge and Laplace checks
take their tables from it too.

The stencil, the basis and the fill commute with the square's mirrors, so
the transfer of a state symmetric about both mid-lines is symmetric too.
It evaluates only the coarse cells that own the fine quarter (grid.Frame),
reads their stencils from the coarse quarter and writes the fine one, so
neither side is expanded to the whole interior.  The frame supplies the
fill: the transfer reads its stencils' nodes through Frame.expand.
"""

from __future__ import annotations

import numpy as np

from .grid import Field, Frame, Grid, laplacian_5pt

# stencil offsets: 4x4 block {-1,0,1,2}^2 minus the four corners
S12: tuple[tuple[int, int], ...] = (
    (-1, 0), (-1, 1),
    (0, -1), (0, 0), (0, 1), (0, 2),
    (1, -1), (1, 0), (1, 1), (1, 2),
    (2, 0), (2, 1),
)

# monomial exponents (p, q) for theta^p * zeta^q: the order of the rows of
# REFERENCE_INVERSE, the cell polynomial's 12 coefficients
BASIS_EXPONENTS: tuple[tuple[int, int], ...] = (
    (0, 0), (1, 0), (0, 1),
    (2, 0), (1, 1), (0, 2),
    (3, 0), (2, 1), (1, 2), (0, 3),
    (3, 1), (1, 3),
)

EDGE_SAMPLES = 5  # points per shared edge in edge_consistency_check


def _monomials(theta, zeta, laplacian: bool = False) -> np.ndarray:
    """The basis monomials at the points (theta, zeta), shape (*points, 12),
    or their Laplacians p(p-1) theta^(p-2) zeta^q + q(q-1) theta^p zeta^(q-2)
    in local units."""
    p, q = np.array(BASIS_EXPONENTS).T
    t = np.asarray(theta, dtype=float)[..., None]
    z = np.asarray(zeta, dtype=float)[..., None]
    if not laplacian:
        return t ** p * z ** q
    return (p * (p - 1) * t ** np.maximum(p - 2, 0) * z ** q
            + q * (q - 1) * t ** p * z ** np.maximum(q - 2, 0))


# the reference matrix has exact small-integer entries, the basis monomials
# at the stencil nodes; its inverse maps a cell's stencil values to its
# coefficients.  6 times the inverse is an integer table, written out here
# as derived in exact rational arithmetic: row m, in BASIS_EXPONENTS order,
# is the finite-difference formula of monomial m's coefficient on the
# stencil values in S12 order.  Divided by 6 once, each weight is the exact
# one rounded.
REFERENCE_MATRIX: np.ndarray = _monomials(*np.array(S12).T)
REFERENCE_INVERSE: np.ndarray = np.array((
    ( 0,  0,  0,  6,  0,  0,  0,  0,  0,  0,  0,  0),  # 1
    (-2,  0,  0, -3,  0,  0,  0,  6,  0,  0, -1,  0),  # theta
    ( 0,  0, -2, -3,  6, -1,  0,  0,  0,  0,  0,  0),  # zeta
    ( 3,  0,  0, -6,  0,  0,  0,  3,  0,  0,  0,  0),  # theta^2
    ( 2, -2,  2,  0, -3,  1, -2, -3,  6, -1,  1, -1),  # theta*zeta
    ( 0,  0,  3, -6,  3,  0,  0,  0,  0,  0,  0,  0),  # zeta^2
    (-1,  0,  0,  3,  0,  0,  0, -3,  0,  0,  1,  0),  # theta^3
    (-3,  3,  0,  6, -6,  0,  0, -3,  3,  0,  0,  0),  # theta^2*zeta
    ( 0,  0, -3,  6, -3,  0,  3, -6,  3,  0,  0,  0),  # theta*zeta^2
    ( 0,  0, -1,  3, -3,  1,  0,  0,  0,  0,  0,  0),  # zeta^3
    ( 1, -1,  0, -3,  3,  0,  0,  3, -3,  0, -1,  1),  # theta^3*zeta
    ( 0,  0,  1, -3,  3, -1, -1,  3, -3,  1,  0,  0),  # theta*zeta^3
), dtype=float) / 6.0


def cell_map(theta, zeta, laplacian: bool = False) -> np.ndarray:
    """The linear map from a cell's 12 stencil values, in S12 order, to its
    interpolant at the points (theta, zeta), shape (*points, 12); with
    laplacian=True, to the interpolant's Laplacian there in local units (a
    grid Laplacian is this over h^2).  The transfer and every patch check
    evaluate the patch through it."""
    return _monomials(theta, zeta, laplacian) @ REFERENCE_INVERSE


def _cell_stencils(end: Field, cells: int) -> np.ndarray:
    """Stencil values of the first cells coarse cells in each direction,
    shape (cells, cells, 12) in S12 order.

    Cell i reads nodes i - 1 .. i + 2, so the cells read nodes
    -1 .. cells + 1 of each axis, which the end state's frame gives from its
    own values (Frame.expand): the quarter is read through the mirror, and
    nodes off the interior read the boundary value g.
    """
    nodes = end.frame.expand(end.values, -1, cells + 2)
    return np.stack(
        [nodes[a + 1:a + 1 + cells, b + 1:b + 1 + cells] for a, b in S12],
        axis=-1,
    )


def prolong_stage(end: Field, k: int) -> Field:
    """Amplitude-scaled 12-point prolongation onto the k-times-finer stage.

    The end state's grid sets A_from.  The output grid has amplitude
    A_to = k^(-2/3) A_from and k*N intervals at the same mesh width (the
    domain dilates by k); its boundary value is 1/A_to, consistent with the
    scaling of the coarse boundary 1/A_from.  Only the coarse cells that own
    the fine frame's nodes are evaluated, about N/2 in each direction.
    """
    if k < 2:
        raise ValueError("stage factor k must be at least 2")
    if not end.is_admissible():
        raise ValueError("transfer requires a positive end state")
    A_to = k ** (-2.0 / 3.0) * end.grid.A
    frame = Frame(Grid(A_to, k * end.grid.N))
    # fine indices 1..n of the frame belong to cells 0..n // k
    cells = frame.shape[0] // k + 1
    offsets = np.arange(k) / k
    W = k ** (2.0 / 3.0) * cell_map(offsets[:, None], offsets[None, :])
    values = np.einsum("ijs,lrs->iljr", _cell_stencils(end, cells), W)
    return Field(frame, frame.restrict(values.reshape(k * cells, k * cells)[1:, 1:]))


def edge_consistency_check(end: Field) -> float:
    """Max mismatch of adjacent cell polynomials along shared interior edges.

    Only edges whose two adjacent cells both have fully in-domain stencils
    are compared; the polynomials are evaluated at EDGE_SAMPLES points along
    the edge (four pin the shared univariate cubic).
    """
    N = end.grid.N
    # cells 1..N-2 in both directions read no fill values
    inner = _cell_stencils(end, N)[1:N - 1, 1:N - 1]
    ts = np.linspace(0.0, 1.0, EDGE_SAMPLES)
    x_gap = inner[:-1] @ cell_map(1.0, ts).T - inner[1:] @ cell_map(0.0, ts).T
    y_gap = inner[:, :-1] @ cell_map(ts, 1.0).T - inner[:, 1:] @ cell_map(ts, 0.0).T
    return max(
        float(np.max(np.abs(x_gap), initial=0.0)),
        float(np.max(np.abs(y_gap), initial=0.0)),
    )


def laplace_compat_check(end: Field, k: int) -> float:
    """Max residual of the local Laplacian identity of the prolongation.

    At fine nodes whose centered stencil stays inside one coarse cell (the
    offsets l, r in {1..k-1}, so the cell centre alone for k = 2), the
    five-point Laplacian of the prolonged field equals k^(-4/3) times the
    cell-polynomial Laplacian at the preimage.
    """
    fine = prolong_stage(end, k)  # rejects k < 2
    N = end.grid.N
    # fine Laplacian, symmetric like the state, expanded to fine nodes
    # (k*i + l, k*j + r); row/column 0 is the boundary, which no cell reads
    lap_fine = fine.frame.expand(laplacian_5pt(fine), 0, k * N)
    # the node values bordering the cell must come from consistent
    # polynomials, so this cell and its +x/+y neighbors must all be fill-free:
    # cells 1..N-3 in both directions
    got = lap_fine.reshape(N, k, N, k)[1:N - 2, 1:, 1:N - 2, 1:]
    inner = _cell_stencils(end, N)[1:N - 2, 1:N - 2]
    # the fine field carries the amplitude scale k^(2/3); together with the
    # 1/k^2 of the fine difference quotient this gives the k^(-4/3) factor
    h = end.grid.h
    offsets = np.arange(1, k) / k
    L = (k ** (-4.0 / 3.0) / (h * h)) * cell_map(
        offsets[:, None], offsets[None, :], laplacian=True
    )
    expected = np.einsum("ijs,lrs->iljr", inner, L)
    return float(np.max(np.abs(got - expected), initial=0.0))
