"""Square grids, the frames and states on them, and the difference calculus.

Every run works in one frame: a stage lattice is Grid(A, N), the frozen
amplitude A and the interval count N.  Everything else follows from them:
the rescaled square [-L, L]^2 with L = 1/(2 A^(3/2)), the mesh h = 2L/N,
the stage boundary value 1/A and the A^2 weights of the energy; A2h2 =
A^2 h^2, the weight of the reciprocal sum in K, is written only here.  The
physical unit square of the direct run and of the change-of-variables checks
is the A = 1 case: L = 1/2 and h = 1/N.

A Field is a state on a Frame: it stores only its values there; the
constant Dirichlet boundary value is the grid's g = 1/A.  A Grid whose L, h
or h^2 would overflow or underflow a float (a tiny or huge A) is rejected
when it is built.

Every state is symmetric about both mid-lines (the reference problem is: its
bump is centred), and a Frame holds one by its lower-left floor(N/2)^2
quarter, the mirror-folded frame.  A frame's weighted sum and gradient sum
give the full-grid value from the quarter alone, so a stage is scored on the
quarter.  expand reads any window of nodes from the quarter, g off the
interior, so the transfer reads the coarse event's stencils from it too; no
run holds a state on the whole interior.

Frame.grad_norm_sq is the one difference form: the sum of squared
differences over every horizontal and vertical node pair, g on the boundary
ring (the h^2 edge weight cancels the 1/h^2 of the quotient).  It sums every
Field that no Picard step built: a run's start, an event, verify's states
and the tests', for which it is the reference.  A state that a Picard step
accepted carries its gradient sum and K instead, taken from the step's last
solve and source (stepper.picard_implicit_step), so a run sums only starts
and events.  laplacian_5pt is the five-point stencil on the quarter, and
verify green ties -laplacian_5pt to the form: h^2 (-lap Y, Phi) is its
polarization at Y +- Phi for every Phi that vanishes on the boundary
(discrete Green).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Stage lattice at frozen amplitude A with N intervals per direction.

    The half-width L = 1/(2 A^(3/2)), the mesh width h = 2L/N and the
    boundary value g = 1/A follow from them, computed once.
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
            h2 = self.h * self.h
        except (OverflowError, ZeroDivisionError):
            h2 = math.inf
        if not 0.0 < h2 < math.inf:
            raise ValueError(
                f"amplitude {self.A:g} gives no representable grid: "
                f"h^2 = (1/(N A^(3/2)))^2 is not a positive finite float"
            )

    @cached_property
    def L(self) -> float:
        return 1.0 / (2.0 * self.A ** 1.5)

    @cached_property
    def h(self) -> float:
        return 2.0 * self.L / self.N

    @cached_property
    def g(self) -> float:
        """The constant Dirichlet boundary value 1/A."""
        return 1.0 / self.A

    @cached_property
    def A2h2(self) -> float:
        """The weight A^2 h^2 of the reciprocal sum in K."""
        return self.A * self.A * self.h * self.h


class Frame:
    """The interior nodes of a grid that a frame array holds, and the weight
    of each in a sum over the whole interior.

    A frame holds a state symmetric about both mid-lines, Y[i] = Y[N-i] in
    each index, by its lower-left floor(N/2)^2 quarter: index i stands for
    i and N - i, so w_i = 2, or 1 on the middle line i = N/2 of an even N,
    its own mirror, and node (i, j) weighs w_i w_j.  restrict takes the frame
    of an interior array (a contiguous copy of its leading rows and
    columns), and expand reads a window of nodes from a frame array
    (i -> min(i, N-i), exactly symmetric, with g off the interior).  sum
    and grad_norm_sq give the full-grid value of the state that a frame
    array stands for.
    """

    def __init__(self, grid: Grid):
        N = grid.N
        n = N // 2
        self.grid = grid
        # the weight of each line of the frame extended by the boundary line
        # before it, whose pairs all join g to g; w is the frame's own lines
        lines = np.full(n + 1, 2.0)
        lines[0] = 1.0
        if 2 * n == N:  # the middle line of an even N
            lines[n] = 1.0
        self._lines = lines
        self.w = lines[1:]
        self.shape = (n, n)

    def nodes_1d(self) -> np.ndarray:
        """The frame's node coordinates along one axis, -L + h .. -L + nh."""
        return np.arange(1, self.shape[0] + 1) * self.grid.h - self.grid.L

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
        N = self.grid.N
        i = np.arange(start, stop)
        # index min(i, N-i) of the frame values behind one leading line of g,
        # and 0, a g, wherever that is not above 0: off the interior
        q = np.maximum(np.minimum(i, N - i), 0)
        F = np.full((len(Y) + 1,) * 2, self.grid.g)
        F[1:, 1:] = Y
        return F.take(q, 0).take(q, 1)

    def sum(self, X: np.ndarray) -> float:
        """sum_ij w_i w_j X_ij: each interior node counted once, as the two
        matrix-vector products w @ X @ w, which build no weighted copy of X."""
        return float(self.w @ X @ self.w)

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
        sum is doubled.
        """
        c = self._lines
        F = np.full((len(c), len(c)), self.grid.g)
        F[1:, 1:] = Y
        dx = F[1:] - F[:-1]
        dx *= dx
        dx *= c
        dy = F[:, 1:] - F[:, :-1]
        dy *= dy
        dy *= c[:, None]
        return 2.0 * float(dx.sum() + dy.sum())


@dataclass(frozen=True)
class Field:
    """A state on a Frame: its values there, on a grid whose boundary value
    is grid.g = 1/A.

    values is the frame array, the quarter of a mirror-symmetric state.
    Admissible states have all interior values positive; this is checked by
    callers that require it (min_interior), never silently enforced here.
    The minimum is taken once, when the Field is built, and the values are
    read-only from then on: a write into them raises ValueError.  The array
    is not copied, so a caller that passes its own array has it frozen too.

    grad_norm_sq and K are sums of the values that the code building the
    Field already holds, or None: a Picard step hands its accepted state the
    gradient sum of its last solve and the K of its last source, and
    energy.discrete_energy reads them in place of Frame.grad_norm_sq and the
    reciprocal sum.  Every other state (a run's start, an event, a state
    verify or a test builds) carries neither, and its sums are taken from its
    values.
    """

    frame: Frame
    values: np.ndarray
    grad_norm_sq: float | None = None
    K: float | None = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.shape != self.frame.shape:
            raise ValueError(
                f"values shape {arr.shape} does not match frame {self.frame.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "_min", float(arr.min()))

    @property
    def grid(self) -> Grid:
        return self.frame.grid

    @property
    def interior(self) -> np.ndarray:
        """The whole interior array, the mirror expansion of the frame.  No
        package code reads it; perfbench sizes a transfer's result by it."""
        return self.frame.expand(self.values, 1, self.grid.N)

    def min_interior(self) -> float:
        return self._min

    def is_admissible(self) -> bool:
        return self._min > 0.0


def laplacian_5pt(Y: Field) -> np.ndarray:
    """Five-point Laplacian of the state with g on its boundary ring,
    returned on its frame.  The frame is bordered by g before it and by its
    mirror line n + 1 after it: node n + 1 is node N - n - 1, frame index
    N - n - 2, or the boundary when N = 2.  These are Frame.expand's nodes
    0..n+1, filled here by two slices: verify all takes 628 Laplacians, 613
    at N = 4, where expand's index arrays make each call a third slower."""
    N, n = Y.grid.N, len(Y.values)
    F = np.full((n + 2, n + 2), Y.grid.g)
    F[1:-1, 1:-1] = Y.values
    if N > 2:
        F[-1, 1:-1] = Y.values[N - n - 2]
        F[1:-1, -1] = Y.values[:, N - n - 2]
    h2 = Y.grid.h ** 2
    return (
        F[2:, 1:-1] + F[:-2, 1:-1] + F[1:-1, 2:] + F[1:-1, :-2]
        - 4.0 * F[1:-1, 1:-1]
    ) / h2
