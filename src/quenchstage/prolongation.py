"""12-point coarse-to-fine stage transfer and its compatibility checks.

Each coarse cell (i, j) carries a polynomial in local coordinates
theta = (x - x_i)/h, zeta = (y - y_j)/h spanned by

    {1, theta, zeta, theta^2, theta*zeta, zeta^2,
     theta^3, theta^2*zeta, theta*zeta^2, zeta^3, theta^3*zeta, theta*zeta^3}

fitted on the 4x4 node block minus its four corners (12 nodes).  The fit is
unisolvent, reproduces every bivariate polynomial of total degree <= 3, and
restricts to the same univariate cubic on a shared cell edge from either
side, which makes the prolonged surface single-valued across interior
interfaces.

A stage transfer from amplitude A_from to A_to = k^(-2/3) A_from dilates the
domain by k at fixed mesh width and writes fine interior values

    Zhat(k*i + l, k*j + r) = k^(2/3) * P_ij(l/k, r/k),   l, r in {0..k-1},

with half-open cell ownership: fine index I belongs to cell I // k at offset
I % k.  Interior fine indices stop at k*N - 1, so every one of them has an
owner with offset below k, and the fine line k*N is the new boundary ring.
Stencil entries outside the coarse node set take the fill value 1/A_from,
and the new boundary value is 1/A_to.  Evaluating P_ij at a fixed offset is
a fixed linear map of the cell's 12 stencil values, so the transfer applies
one k x k x 12 weight table to all cells at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, build_rescaled_grid, flat_extend, laplacian_5pt

# stencil offsets: 4x4 block {-1,0,1,2}^2 minus the four corners
S12: tuple[tuple[int, int], ...] = (
    (-1, 0), (-1, 1),
    (0, -1), (0, 0), (0, 1), (0, 2),
    (1, -1), (1, 0), (1, 1), (1, 2),
    (2, 0), (2, 1),
)

# monomial exponents (p, q) for theta^p * zeta^q, the order of fit_cell's
# 12 coefficients
BASIS_EXPONENTS: tuple[tuple[int, int], ...] = (
    (0, 0), (1, 0), (0, 1),
    (2, 0), (1, 1), (0, 2),
    (3, 0), (2, 1), (1, 2), (0, 3),
    (3, 1), (1, 3),
)

EDGE_SAMPLES = 5  # points per shared edge in edge_consistency_check


def basis_row(theta: float, zeta: float) -> np.ndarray:
    return np.array(
        [theta ** p * zeta ** q for p, q in BASIS_EXPONENTS], dtype=float
    )


def laplacian_row(theta: float, zeta: float) -> np.ndarray:
    """Laplacian of each basis monomial at (theta, zeta), in local units."""
    tz = 6.0 * theta * zeta
    return np.array(
        [0.0, 0.0, 0.0, 2.0, 0.0, 2.0,
         6.0 * theta, 2.0 * zeta, 2.0 * theta, 6.0 * zeta, tz, tz]
    )


def _reference_matrix() -> np.ndarray:
    return np.array([basis_row(float(a), float(b)) for a, b in S12])


# the reference matrix has exact small-integer entries; its inverse is
# computed once at import and shared by every cell fit
REFERENCE_MATRIX: np.ndarray = _reference_matrix()
REFERENCE_INVERSE: np.ndarray = np.linalg.inv(REFERENCE_MATRIX)


@dataclass(frozen=True)
class TransferSpec:
    """Stage-transfer parameters: the factor k and the amplitude A_from.

    The target amplitude, the stencil fill value and the amplitude scale
    follow from these two and are derived, not stored.
    """

    k: int
    A_from: float

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("stage factor k must be at least 2")
        if self.A_from <= 0.0:
            raise ValueError("amplitude A_from must be positive")

    @property
    def A_to(self) -> float:
        return self.k ** (-2.0 / 3.0) * self.A_from

    @property
    def fill(self) -> float:
        return 1.0 / self.A_from

    @property
    def scale(self) -> float:
        return self.k ** (2.0 / 3.0)


def make_transfer(A_from: float, k: int) -> TransferSpec:
    return TransferSpec(k=k, A_from=A_from)


def fit_cell(data: np.ndarray) -> np.ndarray:
    """The 12 coefficients, in BASIS_EXPONENTS order, of the unique 12-point
    interpolant of stencil data."""
    data = np.asarray(data, dtype=float)
    if data.shape != (12,):
        raise ValueError("expected 12 stencil values in S12 order")
    return REFERENCE_INVERSE @ data


def eval_cell(c: np.ndarray, theta: float, zeta: float) -> float:
    return float(basis_row(theta, zeta) @ c)


def laplacian_cell(c: np.ndarray, theta: float, zeta: float, h: float) -> float:
    """Laplacian of the cell polynomial in grid coordinates (units 1/h^2)."""
    return float(laplacian_row(theta, zeta) @ c) / (h * h)


def _cell_stencils(end: Field, fill: float) -> np.ndarray:
    """Stencil values of every coarse cell, shape (N, N, 12) in S12 order.

    Offsets that leave the coarse node set read the fill value.
    """
    N = end.grid.N
    padded = np.pad(flat_extend(end), 1, constant_values=fill)
    return np.stack(
        [padded[a + 1:a + 1 + N, b + 1:b + 1 + N] for a, b in S12], axis=-1
    )


def prolong_stage(end: Field, spec: TransferSpec) -> Field:
    """Amplitude-scaled 12-point prolongation onto the k-times-finer stage.

    The output grid has k*N intervals at the same mesh width (the domain
    dilates by k as the amplitude drops to A_to); its boundary value is
    1/A_to, consistent with the scaling of the coarse boundary 1/A_from.
    """
    if not end.is_admissible():
        raise ValueError("transfer requires a positive end state")
    if abs(end.g * spec.A_from - 1.0) > 1e-9:
        raise ValueError("end state boundary value does not match 1/A_from")
    N = end.grid.N
    k = spec.k
    Nf = k * N
    offsets = np.arange(k) / k
    B = np.array([[basis_row(t, z) for z in offsets] for t in offsets])
    W = spec.scale * (B @ REFERENCE_INVERSE)
    values = np.einsum("ijs,lrs->iljr", _cell_stencils(end, spec.fill), W)
    out = np.ascontiguousarray(values.reshape(Nf, Nf)[1:, 1:])
    fine_grid = build_rescaled_grid(spec.A_to, Nf)
    return Field(grid=fine_grid, interior=out, g=1.0 / spec.A_to)


def edge_consistency_check(end: Field) -> float:
    """Max mismatch of adjacent cell polynomials along shared interior edges.

    Only edges whose two adjacent cells both have fully in-domain stencils
    are compared; the polynomials are evaluated at EDGE_SAMPLES points along
    the edge (four pin the shared univariate cubic).
    """
    N = end.grid.N
    # cells 1..N-2 in both directions read no fill values
    inner = _cell_stencils(end, end.g)[1:N - 1, 1:N - 1]
    ts = np.linspace(0.0, 1.0, EDGE_SAMPLES)
    ones, zeros = np.ones(EDGE_SAMPLES), np.zeros(EDGE_SAMPLES)

    def at(thetas: np.ndarray, zetas: np.ndarray) -> np.ndarray:
        rows = np.array([basis_row(t, z) for t, z in zip(thetas, zetas)])
        return (rows @ REFERENCE_INVERSE).T

    x_gap = inner[:-1] @ at(ones, ts) - inner[1:] @ at(zeros, ts)
    y_gap = inner[:, :-1] @ at(ts, ones) - inner[:, 1:] @ at(ts, zeros)
    return max(
        float(np.max(np.abs(x_gap), initial=0.0)),
        float(np.max(np.abs(y_gap), initial=0.0)),
    )


def laplace_compat_check(end: Field, spec: TransferSpec) -> float:
    """Max residual of the local Laplacian identity of the prolongation.

    At fine nodes whose centered stencil stays inside one coarse cell, the
    five-point Laplacian of the prolonged field equals k^(-4/3) times the
    cell-polynomial Laplacian at the preimage.  Interior fine offsets
    l, r in {1..k-1} require k >= 3; for k = 2 the identity is checked on a
    synthetic refinement of the same end state with k = 4.
    """
    k = spec.k if spec.k >= 3 else 4
    eff = make_transfer(spec.A_from, k)
    fine = prolong_stage(end, eff)
    N = end.grid.N
    # fine Laplacian indexed by fine node (k*i + l, k*j + r); row/column 0
    # is boundary padding that no cell below reads
    lap_fine = np.pad(laplacian_5pt(fine), ((1, 0), (1, 0)))
    # the node values bordering the cell must come from consistent
    # polynomials, so this cell and its +x/+y neighbors must all be fill-free:
    # cells 1..N-3 in both directions
    got = lap_fine.reshape(N, k, N, k)[1:N - 2, 1:, 1:N - 2, 1:]
    inner = _cell_stencils(end, eff.fill)[1:N - 2, 1:N - 2]
    # the fine field carries the amplitude scale k^(2/3); together with the
    # 1/k^2 of the fine difference quotient this gives the k^(-4/3) factor
    h = end.grid.h
    offsets = np.arange(1, k) / k
    rows = np.array([[laplacian_row(t, z) for z in offsets] for t in offsets])
    L = (k ** (-4.0 / 3.0) / (h * h)) * (rows @ REFERENCE_INVERSE)
    expected = np.einsum("ijs,lrs->iljr", inner, L)
    return float(np.max(np.abs(got - expected), initial=0.0))
