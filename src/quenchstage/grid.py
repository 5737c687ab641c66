"""Square grids, Dirichlet flat extension, and first-order difference calculus.

Every run works in one frame: the rescaled square [-L, L]^2 with
L = 1/(2 A^(3/2)) and mesh h = 2L/N, where the stagewise solver runs at
frozen amplitude A.  The physical unit square of the direct run and of the
change-of-variables checks is the A = 1 case: L = 1/2 and h = 1/N.

A Field stores only interior nodal values plus a single constant Dirichlet
boundary value g; the flat extension Y_flat places g on the boundary ring.
The gradient norm is the sum of squared forward differences over all
horizontal and vertical node pairs of the extended array (the h^2 edge weight
and the 1/h^2 of the difference quotient cancel), and the Laplacian is the
standard five-point stencil.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Lattice on the square [-L, L]^2 with N intervals per direction.

    The mesh width h = 2L/N follows from them.
    """

    L: float
    N: int

    def __post_init__(self) -> None:
        if self.N < 2:
            raise ValueError("grid needs at least 2 intervals per direction")

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.N

    def nodes_1d(self) -> np.ndarray:
        """All node coordinates along one axis, boundary included."""
        return np.arange(self.N + 1) * self.h - self.L

    def interior_nodes_1d(self) -> np.ndarray:
        return self.nodes_1d()[1:-1]

    @property
    def interior_count(self) -> int:
        return (self.N - 1) ** 2

    @property
    def node_count(self) -> int:
        return (self.N + 1) ** 2


def build_rescaled_grid(A: float, N: int) -> Grid:
    """Grid for the rescaled square at amplitude A: L = 1/(2 A^(3/2))."""
    if A <= 0.0:
        raise ValueError("amplitude must be positive")
    return Grid(L=1.0 / (2.0 * A ** 1.5), N=N)


@dataclass(frozen=True)
class Field:
    """Interior nodal values plus one constant Dirichlet boundary value g.

    Admissible states have all interior values positive; this is checked by
    callers that require it (min_interior), never silently enforced here.
    """

    grid: Grid
    interior: np.ndarray
    g: float

    def __post_init__(self) -> None:
        n = self.grid.N - 1
        arr = np.asarray(self.interior, dtype=float)
        if arr.shape != (n, n):
            raise ValueError(
                f"interior shape {arr.shape} does not match grid ({n}, {n})"
            )
        object.__setattr__(self, "interior", arr)

    def min_interior(self) -> float:
        return float(self.interior.min())

    def is_admissible(self) -> bool:
        return self.min_interior() > 0.0

    def with_interior(self, interior: np.ndarray) -> "Field":
        return Field(grid=self.grid, interior=interior, g=self.g)


def flat_extend(Y: Field) -> np.ndarray:
    """Extension to all (N+1)^2 nodes: interior copied, boundary set to g."""
    N = Y.grid.N
    out = np.full((N + 1, N + 1), Y.g, dtype=float)
    out[1:-1, 1:-1] = Y.interior
    return out


def grad_norm_sq(Y: Field) -> float:
    """Discrete gradient norm: sum of squared forward differences.

    Runs over every horizontal and vertical node pair of the flat extension;
    pairs with both endpoints on the boundary contribute zero because g is
    constant.  The h^2 quadrature weight cancels the squared 1/h of the
    difference quotient, leaving the bare squared differences.
    """
    F = flat_extend(Y)
    dx = np.diff(F, axis=0)
    dy = np.diff(F, axis=1)
    return float(np.sum(dx * dx) + np.sum(dy * dy))


def laplacian_5pt(Y: Field) -> np.ndarray:
    """Five-point Laplacian of the flat extension, returned on the interior."""
    F = flat_extend(Y)
    h2 = Y.grid.h ** 2
    return (
        F[2:, 1:-1] + F[:-2, 1:-1] + F[1:-1, 2:] + F[1:-1, :-2]
        - 4.0 * F[1:-1, 1:-1]
    ) / h2


def inner_product(Y: np.ndarray, Z: np.ndarray, h: float) -> float:
    """h^2-weighted inner product of two interior arrays."""
    Y = np.asarray(Y, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if Y.shape != Z.shape:
        raise ValueError(f"shape mismatch: {Y.shape} vs {Z.shape}")
    return float(h * h * np.sum(Y * Z))


def l2_norm(Y: np.ndarray, h: float) -> float:
    return float(np.sqrt(inner_product(Y, Y, h)))


def linf_norm(Y: np.ndarray) -> float:
    return float(np.max(np.abs(Y)))


def gradient_bilinear(Y: Field, Phi: Field) -> float:
    """Forward-difference bilinear form of two fields (polarized gradient sum).

    Used by the discrete Green identity: (-laplacian_5pt(Y), Phi)_{2,h}
    equals this form when Phi has boundary value 0.
    """
    FY = flat_extend(Y)
    FP = flat_extend(Phi)
    dxY = np.diff(FY, axis=0)
    dxP = np.diff(FP, axis=0)
    dyY = np.diff(FY, axis=1)
    dyP = np.diff(FP, axis=1)
    return float(np.sum(dxY * dxP) + np.sum(dyY * dyP))
