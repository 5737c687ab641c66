"""Square grids, the states on them, and the difference calculus.

A stage lattice is Grid(A, N), the frozen amplitude A and the interval count
N.  Everything else follows from them: the rescaled square [-L, L]^2 with
L = 1/(2 A^(3/2)), the mesh h = 2L/N, the stage boundary value 1/A and the
A^2 weights of the energy; A2h2 = A^2 h^2, the weight of the reciprocal sum
in K, is written only here.  The physical unit square of the direct run and
of the change-of-variables checks is the A = 1 case: L = 1/2 and h = 1/N.

A Field is a state on a Grid: it stores only its values there; the constant
Dirichlet boundary value is the grid's g = 1/A.  A Grid whose L, h or h^2
would overflow or underflow a float (a tiny or huge A) is rejected when it
is built.

Every state is symmetric about both mid-lines (the reference problem is: its
bump is centred), and a Field holds one by its lower-left floor(N/2)^2
quarter, the mirror-folded frame of its grid.  The grid's weighted sum and
gradient sum give the full-grid value from the quarter alone, so a stage is
scored on the quarter.  Grid.expand reads any window of nodes from the
quarter, g off the interior, so the transfer reads the coarse event's
stencils from it too; no run holds a state on the whole interior.

Grid.grad_norm_sq is the one difference form: the sum of squared
differences over every horizontal and vertical node pair, g on the boundary
ring (the h^2 edge weight cancels the 1/h^2 of the quotient).  It sums every
Field that no Picard step built: a run's start, an event, verify's states
and the tests', for which it is the reference.  A state that a Picard step
accepted carries its gradient sum and K instead, taken from the step's last
solve and source (stepper.picard_implicit_step), so a run sums only starts
and events, and the minimum its last sweep took, so no state of a step is
reduced twice.  laplacian_5pt is the five-point stencil on the quarter, and
verify green ties -laplacian_5pt to the form: h^2 (-lap Y, Phi) is its
polarization at Y +- Phi for every Phi that vanishes on the boundary
(discrete Green).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Stage lattice at frozen amplitude A with N intervals per direction.

    The half-width L = 1/(2 A^(3/2)), the mesh width h = 2L/N, the
    boundary value g = 1/A, the weight A2h2 = A^2 h^2 of the reciprocal sum
    in K, the frame's shape and its line weights w follow from them; the
    grid computes them all once, when it is built, and compares and hashes
    by (A, N) alone.

    A state on the grid, symmetric about both mid-lines, Y[i] = Y[N-i] in
    each index, is held by its lower-left floor(N/2)^2 quarter, the frame:
    index i stands for i and N - i, so w_i = 2, or 1 on the middle line
    i = N/2 of an even N, its own mirror, and node (i, j) weighs w_i w_j.
    restrict takes the frame of an interior array (a contiguous copy of its
    leading rows and columns), and expand reads a window of nodes from a
    frame array (i -> min(i, N-i), exactly symmetric, with g off the
    interior).  sum and grad_norm_sq give the full-grid value of the state
    that a frame array stands for.
    """

    A: float
    N: int

    def __post_init__(self) -> None:
        if not self.A > 0.0:
            raise ValueError("amplitude must be positive")
        if self.N < 2:
            raise ValueError("grid needs at least 2 intervals per direction")
        # A^(3/2) underflows to 0 (L = 1/0) or overflows, or h^2 overflows
        try:
            L = 1.0 / (2.0 * self.A ** 1.5)
            h = 2.0 * L / self.N
            h2 = h * h
        except (OverflowError, ZeroDivisionError):
            h2 = math.inf
        if not 0.0 < h2 < math.inf:
            raise ValueError(
                f"amplitude {self.A:g} gives no representable grid: "
                f"h^2 = (1/(N A^(3/2)))^2 is not a positive finite float"
            )
        # the weight of each line of the frame extended by the boundary line
        # before it, whose pairs all join g to g; w is the frame's own lines
        n = self.N // 2
        lines = np.full(n + 1, 2.0)
        lines[0] = 1.0
        if 2 * n == self.N:  # the middle line of an even N
            lines[n] = 1.0
        vars(self).update(
            L=L, h=h, g=1.0 / self.A, A2h2=self.A * self.A * h * h,
            shape=(n, n), _lines=lines, w=lines[1:],
        )

    def nodes_1d(self) -> np.ndarray:
        """The frame's node coordinates along one axis, -L + h .. -L + nh."""
        return np.arange(1, self.shape[0] + 1) * self.h - self.L

    def restrict(self, Y: np.ndarray) -> np.ndarray:
        """The frame values of Y, a new C-contiguous array that shares no
        memory with Y.  Y[i, j] is interior node (i+1, j+1), and Y holds a
        leading block of the interior that covers the frame: the transfer
        evaluates only such a block."""
        n = len(self.w)
        return Y[:n, :n].copy()

    def expand(self, Y: np.ndarray, start: int, stop: int) -> np.ndarray:
        """The nodes start..stop-1 along each axis of the state whose frame
        values are Y, a new array: node i reads frame index min(i, N-i) - 1,
        and every node off the interior 1..N-1 reads g."""
        i = np.arange(start, stop)
        # index min(i, N-i) of the frame values behind one leading line of g,
        # and 0, a g, wherever that is not above 0: off the interior
        q = np.maximum(np.minimum(i, self.N - i), 0)
        F = np.full((len(Y) + 1,) * 2, self.g)
        F[1:, 1:] = Y
        return F.take(q, 0).take(q, 1)

    def sum(self, X: np.ndarray) -> float | np.ndarray:
        """sum_ij w_i w_j X_ij: each interior node counted once, as the two
        matrix-vector products w.dot(X).dot(w), which build no weighted copy
        of X.  ndarray.dot calls the BLAS kernels of the matmul ufunc (@),
        with the same bits, at half its dispatch cost on a frame this small.
        For a stack X of shape (S, n, n) it is the (S, 1, 1) array of the
        states' sums, each by the same two products as one state's: a
        stacked (S, n) @ w would take another BLAS kernel and round apart."""
        if X.ndim == 2:
            return float(self.w.dot(X).dot(self.w))
        return (self.w @ X)[..., None, :] @ self.w[:, None]

    def grad_norm_sq(self, Y: np.ndarray) -> float:
        """Discrete gradient norm of the state whose frame values are Y: the
        sum of squared forward differences over every horizontal and vertical
        node pair, g on the boundary ring.

        Pairs with both endpoints on the boundary contribute zero because g
        is constant, and the h^2 quadrature weight cancels the squared 1/h of
        the difference quotient.  The frame is extended by g on its first row
        and column, and each line's pairs weigh the line's w.  The pair
        (i, i+1) of a line mirrors onto (N-i-1, N-i), for an odd and an even
        N alike (the middle pair of an odd N joins two equal values), so the
        sum is doubled.  A stack Y of shape (S, n, n) gives the (S, 1, 1)
        array of the states' sums.
        """
        c = self._lines
        F = np.full((*Y.shape[:-2], len(c), len(c)), self.g)
        F[..., 1:, 1:] = Y
        dx = F[..., 1:, :] - F[..., :-1, :]
        dx *= dx
        dx *= c
        dy = F[..., 1:] - F[..., :-1]
        dy *= dy
        dy *= c[:, None]
        if Y.ndim == 2:
            return 2.0 * float(dx.sum() + dy.sum())
        axes = (-2, -1)
        return 2.0 * (dx.sum(axes, keepdims=True) + dy.sum(axes, keepdims=True))


@dataclass(frozen=True)
class Field:
    """A state on a Grid: its values there, whose boundary value is
    grid.g = 1/A.

    values is the frame array, the quarter of a mirror-symmetric state.
    Admissible states have all interior values positive; this is checked by
    callers that require it (min_interior), never silently enforced here.
    The minimum is taken once, when the Field is built, unless the code
    building it hands it over as lowest (a Picard step's accepted state,
    whose last sweep took it), and the values are read-only from then on: a
    write into them raises ValueError.  The array is not copied, so a caller
    that passes its own array has it frozen too.

    values may also be a stack of frame arrays on the grid, of shape
    (S, n, n), which the minimizing-movement oracle descends at once: its
    minimum is then the (S, 1, 1) array of the states' minima, it is
    admissible when every state is, and Grid.sum, Grid.grad_norm_sq,
    laplacian_5pt and the energy give each state's value along that axis.

    grad_norm_sq, K and lowest are reductions of the values that the code
    building the Field already holds, or None: a Picard step hands its
    accepted state the gradient sum of its last solve, the K of its last
    source and the minimum that source was decided on, and
    energy.discrete_energy reads the sums in place of Grid.grad_norm_sq and
    the reciprocal sum.  Every other state (a run's start, an event, a state
    verify or a test builds) carries none, and they are taken from its
    values: the minimum here, the sums by the energy.
    """

    grid: Grid
    values: np.ndarray
    grad_norm_sq: float | None = None
    K: float | None = None
    lowest: float | None = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.shape == self.grid.shape:
            if self.lowest is None:
                object.__setattr__(self, "lowest", float(arr.min()))
        elif arr.ndim == 3 and arr.shape[1:] == self.grid.shape:
            object.__setattr__(self, "lowest", arr.min((-2, -1), keepdims=True))
        else:
            raise ValueError(
                f"values shape {arr.shape} does not match frame {self.grid.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def interior(self) -> np.ndarray:
        """The whole interior array, the mirror expansion of the frame.  No
        package code reads it; perfbench sizes a transfer's result by it."""
        return self.grid.expand(self.values, 1, self.grid.N)

    @classmethod
    def stack(cls, fields: Sequence[Field]) -> Field:
        """The states of fields, all on one grid, as one Field of shape
        (S, n, n) in their order; none, or two grids, raise ValueError."""
        if not fields:
            raise ValueError("a stack needs at least one state")
        grid = fields[0].grid
        if any(Y.grid != grid for Y in fields):
            raise ValueError("the states of a stack must share one grid")
        return cls(grid, np.stack([Y.values for Y in fields]))

    def min_interior(self) -> float | np.ndarray:
        return self.lowest

    def is_admissible(self) -> bool:
        positive = self.lowest > 0.0
        return positive if self.values.ndim == 2 else bool(positive.all())


def laplacian_5pt(Y: Field) -> np.ndarray:
    """Five-point Laplacian of the state with g on its boundary ring,
    returned on its frame.  The frame is bordered by g before it and by its
    mirror line n + 1 after it: node n + 1 is node N - n - 1, frame index
    N - n - 2, or the boundary when N = 2.  These are Grid.expand's nodes
    0..n+1, filled here by two slices, since expand's index arrays make a
    call at N = 4 a third slower.  A stack of states gives the stack of
    their Laplacians."""
    N, n = Y.grid.N, Y.grid.shape[0]
    F = np.full((*Y.values.shape[:-2], n + 2, n + 2), Y.grid.g)
    F[..., 1:-1, 1:-1] = Y.values
    if N > 2:
        F[..., -1, 1:-1] = Y.values[..., N - n - 2, :]
        F[..., 1:-1, -1] = Y.values[..., N - n - 2]
    h2 = Y.grid.h ** 2
    return (
        F[..., 2:, 1:-1] + F[..., :-2, 1:-1] + F[..., 1:-1, 2:]
        + F[..., 1:-1, :-2] - 4.0 * F[..., 1:-1, 1:-1]
    ) / h2
