"""Implicit time stepping for the rescaled equation at frozen amplitude.

One step advances Z by backward Euler on the diffusion part with Picard
iteration on the nonlocal source:

    (1/ds) Y - Lap_h Y = Z/ds - lam / (Y_prev^2 K(Y_prev)^2)

with constant Dirichlet data g = 1/A (A, g and ds are the solver's).
Since g is constant, Lap_h g = 0 and the step solves for the deviation
Y - g, which vanishes on the boundary:

    (1/ds - Lap_h)(Y - g) = (Z - g)/ds - lam / (Y_prev^2 K(Y_prev)^2)

DirichletSolver inverts (I/ds - Lap_h) by sine-basis diagonalization on
the mirror-folded quarter of a state symmetric about both mid-lines, its
grid's frame.  With N % 4 == 0 and N >= BUTTERFLY_MIN_N, row i of odd mode
N - j is (-1)^(i+1) times that of mode j, so each product is two half
products (a butterfly) and the solver keeps two half tables in place of T.
Values are clipped at CLIP only inside reciprocal evaluations
(nonlocal_source).  A sweep takes its state's minimum once: from CLIP up
the source skips the clip, since max(Y, CLIP) is Y there, and the accepted
Field carries that minimum, so no step reduces its state twice.
picard_implicit_step stops once the discrete maximum principle (Varga
1962) certifies that a further sweep would move Y by less than
STOP_MARGIN*PICARD_TOL*max|Y|, a test relative to the state's own size, so
a stage and the same steps on the physical profile (W = v/A) stop alike.
The test reads the frame corner Y[0, 0] first and takes max|Y| only when
the corner's smaller stop is not passed.  Below the butterfly the solve
reads its input side from a table that carries the middle line's weight,
so a sweep rescales no right-hand side (DirichletSolver).
march owns the step sequence of a run: one solver on the start's grid, each
step seeded by extrapolated_seed (Fischer 1998) in the row of the seed ring
that the step's source replaces.  That row is the step's one source buffer:
the step works in it and leaves f(Y) there.  The energy E and the
movement penalty (A^2/2ds)*||next - prev||^2_{2,h} (movement_penalty) are
evaluated by the code that records them: the drivers' scored loop, the
oracle's objective and the dissipation check.  A step's small products
(the seed's, the plain solve's and Grid.sum's) go through ndarray.dot, not
the matmul ufunc: the same BLAS kernels and bits at half the dispatch,
which at a stage's sizes costs more than the flops.

A minimizing-movement oracle doubles the step on verification-size grids
(<= 16 frame values): it minimizes J(Y) = E(Y) + (A^2/2ds)*||Y - Z||_{2,h}^2
over symmetric states by gradient descent from Z, each iteration the full
step ds*R along the first-order residual

    R = (Y - Z)/ds - Lap_h Y + lam/(Y^2 K^2),

until max|R| < ORACLE_TOL.  One rule: the full step must lower J, or the
call raises NumericalError.  The oracle descends all the starts of a call,
a verify suite's cases, as one stack on their grid: J and R are the
package's own E, penalty, Laplacian and source, each taken along the
stack's leading axis, and each start leaves the stack once its residual is
below the target.  The oracle shares no linear algebra with the Picard
path.
"""

from __future__ import annotations

import itertools
import logging
import math
from collections.abc import Iterator, Sequence
from typing import NamedTuple

import numpy as np

from .grid import Field, Grid, laplacian_5pt
from .energy import discrete_energy

logger = logging.getLogger(__name__)

# Degree of the polynomial through the last SEED_ORDER + 1 accepted sources
# that starts each step's first sweep.  On the 6-stage run, 906 steps at every
# degree, degrees 3 to 8 take 1799, 1200, 1010, 956, 950 and 1058 solves.  At
# degree 6 the 4-stage run takes 657 (701 at degree 5, 651 at 7) and the
# direct run 190 for 160 steps (215 at 5, 206 at 7).  Each stage keeps seven
# sources (quarter grids on a folded stage) alive, in one ring array.
SEED_ORDER = 6
# Row p: the weight (-1)^i C(p+1, i+1) of F_{n-i} in the degree-p seed,
# 7, -21, 35, -35, 21, -7, 1 at p = 6, and 0 past i = p.
SEED_WEIGHTS = np.array(
    [[(-1) ** i * math.comb(p + 1, i + 1) for i in range(SEED_ORDER + 1)]
     for p in range(SEED_ORDER + 1)],
    dtype=float,
)
# SEED_ROWS[p][n][k]: the weight of ring row k = 0..p in the degree-p seed
# whose newest source is row n, SEED_WEIGHTS[p, (n - k) % (SEED_ORDER + 1)];
# each row is an array of its own
SEED_ROWS = [[SEED_WEIGHTS[p, (n - np.arange(p + 1)) % (SEED_ORDER + 1)]
              for n in range(SEED_ORDER + 1)] for p in range(SEED_ORDER + 1)]
PICARD_TOL = 1e-10  # relative bound on a further sweep's move that ends a step
# Share of PICARD_TOL under which the certified bound on the next sweep's move
# ends a step.  The source change F_new - F that the bound scales is also the
# Euler-Lagrange residual of the accepted iterate, so the stop holds that
# residual below STOP_MARGIN*PICARD_TOL*max|Y|/ds, 1e-8 max|Y| at ds = 1e-3.
# A smaller margin costs sweeps without need (0.01 takes 714 solves on the
# 4-stage reference run, 0.1 takes 657).
STOP_MARGIN = 0.1
PICARD_MAX = 50  # sweeps before a step raises NumericalError
CLIP = 1e-12  # floor on iterate values inside the reciprocal source
ORACLE_TOL = 1e-10  # max-norm first-order residual that ends the descent
ORACLE_MAX_ITERS = 2000  # descent steps before the oracle gives up
# Smallest N from which a frame with N % 4 == 0 takes the butterfly
# products (DirichletSolver).  Against the plain folded products a solve
# takes 1.03-1.05x the time at N = 168, 0.94-0.96x at 172 and 0.65x at 288
# (medians of 40 interleaved rounds, 2-vCPU Intel Xeon, BLAS on 1 thread).
BUTTERFLY_MIN_N = 172


class StepReport(NamedTuple):
    """One accepted step of march: its start prev and its state next, both
    Fields on the solver's grid, and its Picard sweep count.  A tuple, built
    once per step at less than half a frozen dataclass's cost."""

    prev: Field
    next: Field
    picard_iters: int


class NumericalError(RuntimeError):
    """A run failed numerically (non-convergence, runaway, bad transfer,
    a stagnated oracle descent); the message tells which."""


class DirichletSolver:
    """Sine-basis diagonalization of (I/ds - Lap_h) on the quarter frame of
    a grid, with zero Dirichlet data.

    The orthonormal sine matrix S[i, j] = sqrt(2/N) sin(pi i j / N),
    i, j = 1..N-1, is symmetric with S @ S = I and diagonalizes the
    one-dimensional Dirichlet second difference, with eigenvalues
    mu_j = (2 - 2 cos(pi j / N)) / h^2, so the two-dimensional operator is
    diagonal in the S x S basis with entries 1/ds + mu_i + mu_j (Buzbee,
    Golub & Nielson 1970): a solve is four dense products.

    The grid's frame holds right-hand sides symmetric about both
    mid-lines, rhs[i] = rhs[N-i].  Since sin(pi (N-i) j / N) =
    (-1)^(j+1) sin(pi i j / N), the even modes of such data vanish and each
    odd mode is the sum over the quarter's rows i = 1..N//2 with weight
    w_i = 2, or 1 on the middle line of an even N: the products run with
    T = S[1..N//2, odd] on the output side and w T on the input side.  The
    input side reads P, which is T with its middle row halved on an even N
    and T itself on an odd N, and the inverse table carries the factor 4;
    scaling by a power of two is exact, so this is bit for bit the products
    with w T, and no solve rescales its rhs.  The butterfly (an even N
    always) halves the middle line and row of rhs in place instead.

    For N % 4 == 0 the odd modes pair up, T[i, N-j] = (-1)^(i+1) T[i, j].
    From N = BUTTERFLY_MIN_N on, the solver orders its modes 1, 3, ..,
    N/2 - 1, then their partners, and keeps the first half of T as its odd
    rows C and even rows D.  T^T R is then C^T R[0::2] + D^T R[1::2] over
    C^T R[0::2] - D^T R[1::2], and T X puts C (X' + X'') in the odd rows and
    D (X' - X'') in the even ones: half the flops, the other axis on a
    transposed copy.  The solver holds the inverse and gradient-form tables
    and T, one frame array each, and P, one more on an even N; or, on the
    butterfly, C and D, a quarter of one each.

    The plain products call ndarray.dot, which reaches the BLAS kernels of
    np.matmul and gives the same bits at half its dispatch cost, the larger
    part of a product on a frame of 36^2.  The butterfly's half products
    write strided rows (a[0::2]), which dot's out= rejects, and keep
    np.matmul; from BUTTERFLY_MIN_N on a product costs its flops.
    """

    def __init__(self, grid: Grid, ds: float):
        if ds <= 0.0:
            raise ValueError("ds must be positive")
        self.ds = ds
        self.grid = grid
        N, n = grid.N, grid.shape[0]
        i, j = np.arange(1, n + 1), np.arange(1, N, 2)
        half = n // 2 if N % 4 == 0 and N >= BUTTERFLY_MIN_N else 0
        if half:  # modes 1, 3, .., N/2 - 1, then their partners N - 1, N - 3, ..
            j = np.concatenate((j[:half], j[half:][::-1]))
        T = np.sqrt(2.0 / N) * np.sin(np.pi * np.outer(i, j[:half or n]) / N)
        if half:
            self._C, self._D = T[0::2].copy(), T[1::2].copy()
        else:
            self._T = self._P = T
            if 2 * n == N:  # w = 1 on the middle line of an even N
                self._P = T.copy()
                self._P[-1] *= 0.5
        self._half = half
        self.path = "mirror-folded butterfly" if half else "mirror-folded"
        # eigenvalues l_j of the second difference tridiag(-1, 2, -1)
        eig = 2.0 - 2.0 * np.cos(np.pi * j / N)
        self._form = eig[:, None] + eig[None, :]
        mu = eig / grid.h ** 2
        # the factor 2 of w on each input side, off the middle line
        self._inv = 4.0 / (1.0 / ds + mu[:, None] + mu[None, :])

    def solve(self, rhs: np.ndarray) -> tuple[np.ndarray, float]:
        """L^-1 rhs for a rhs in the frame, written over rhs, which is
        returned (the Picard sweep solves in its right-hand side's buffer),
        and the gradient sum of that solution u: Grid.grad_norm_sq of g + u
        for any constant g, since u vanishes on the boundary.

        The basis diagonalizes the Dirichlet form too.  With X the sine
        coefficients of u, the sum of (u_i - u_j)^2 over all node pairs is
        sum_ab (l_a + l_b) X_ab^2, l_j = 2 - 2 cos(pi j / N), the odd-odd
        modes being all of it for symmetric data.  The solve allocates one
        more frame array, for its products and X^2.
        """
        if self._half:
            rhs[-1] *= 0.5  # w = 1 on the middle line: the butterfly's N is even
            rhs[:, -1] *= 0.5
            work = np.empty_like(rhs)
            self._forward(rhs, work)  # rhs = T^T R
            work[...] = rhs.T
            # work = X^T: the tables are symmetric (the inverse to rounding)
            self._forward(work, rhs)
            work *= self._inv
            grad_sq = float(np.vdot(np.multiply(work, work, out=rhs), self._form))
            self._back(work, rhs)
            rhs[...] = work.T
            self._back(rhs, work)
            return rhs, grad_sq
        T, P = self._T, self._P
        work = P.T.dot(rhs)
        X = work.dot(P, out=rhs)
        X *= self._inv
        grad_sq = float(np.vdot(np.multiply(X, X, out=work), self._form))
        return T.dot(X, out=work).dot(T.T, out=rhs), grad_sq

    def _forward(self, a: np.ndarray, b: np.ndarray) -> None:
        """a = T^T a by the butterfly, with b for the half products."""
        h = self._half
        np.matmul(self._C.T, a[0::2], out=b[:h])
        np.matmul(self._D.T, a[1::2], out=b[h:])
        np.add(b[:h], b[h:], out=a[:h])
        np.subtract(b[:h], b[h:], out=a[h:])

    def _back(self, a: np.ndarray, b: np.ndarray) -> None:
        """a = T a by the butterfly, with b for the sum and difference."""
        h = self._half
        np.add(a[:h], a[h:], out=b[:h])
        np.subtract(a[:h], a[h:], out=b[h:])
        np.matmul(self._C, b[:h], out=a[0::2])
        np.matmul(self._D, b[h:], out=a[1::2])


def nonlocal_source(
    Y: np.ndarray, grid: Grid, lam: float, lowest: float = -math.inf
) -> tuple[np.ndarray, float]:
    """The source F = lam/(Yc^2 K^2) of the frame values Y, a new frame array,
    and K = 1 + A^2 h^2 sum 1/Yc, the weighted frame sum (each interior node
    counted once), with Yc = max(Y, CLIP).  One division per node: the terms
    R = 1/Yc that K sums give F = (lam/K^2) R^2, in R's array.  Once
    min Y >= CLIP, Yc is Y and K is discrete_energy's K of Y to the bit.
    lowest is a lower bound on Y that the caller holds, min Y in a Picard
    sweep: from CLIP up, R is 1/Y with no clip pass, the same bits.  Below
    CLIP, NaN or left at -inf, Y is clipped.  A stack Y of shape (S, n, n)
    gives the stack of sources and the (S, 1, 1) array of the states' K."""
    if lowest >= CLIP:  # max(Y, CLIP) is Y
        R = np.divide(1.0, Y)
    else:
        R = np.maximum(Y, CLIP)
        np.divide(1.0, R, out=R)
    K = 1.0 + grid.A2h2 * grid.sum(R)
    R *= R
    R *= lam / (K * K)
    return R, K


def movement_penalty(Y: Field, Z: Field, ds: float) -> float:
    """Minimizing-movement penalty (A^2/2ds)*||Y - Z||^2_{2,h} of two states
    on one grid, with the weighted frame sum; of two stacks of states, the
    (S, 1, 1) array of the penalties of their pairs."""
    A, h = Y.grid.A, Y.grid.h
    diff = Y.values - Z.values
    diff *= diff
    return (A * A / (2.0 * ds)) * (h * h * Y.grid.sum(diff))


def extrapolated_seed(ring: np.ndarray, count: int) -> np.ndarray:
    """Picard start for the next step from the last accepted sources,
    written into the ring row count % len(ring), which is returned.

    ring holds the sources f(Y) of accepted states of one run or stage on
    one grid, all on its frame, in SEED_ORDER + 1 rows: the k-th source
    written (k = 0 .. count - 1) is row k % len(ring).  With p =
    min(SEED_ORDER, count - 1) the seed is the degree-p polynomial through
    the last p + 1 sources evaluated one step ahead, sum_{i=0..p} (-1)^i
    C(p+1, i+1) F_{n-i}: 7F_n - 21F_{n-1} + 35F_{n-2} - 35F_{n-3} +
    21F_{n-4} - 7F_{n-5} + F_{n-6} for p = 6, and a copy of F_n for a single
    source.  The row it goes into is the one the next source replaces:
    unwritten, or the oldest source, which no later seed reads (numpy
    buffers an output that overlaps an operand).  It is one product of the
    SEED_ROWS row of p and the newest row with the rows written so far: an
    unwritten row may hold NaN, and 0 * NaN is NaN.  The weight row is an
    array of its own, not a view into a larger table, since the product's
    last bits depend on where its operand sits in memory.
    """
    rows = min(count, len(ring))
    weights = SEED_ROWS[rows - 1][(count - 1) % len(ring)]
    row = ring[count % len(ring)]
    weights.dot(ring[:rows].reshape(rows, -1), out=row.reshape(-1))
    return row


def picard_implicit_step(
    Z: Field,
    solver: DirichletSolver,
    lam: float,
    source: np.ndarray | None = None,
) -> tuple[Field, int, np.ndarray]:
    """One backward-Euler step of size solver.ds with Picard iteration on the
    nonlocal source lam/(Y^2 K^2) at the amplitude A of the solver's grid.

    The values of Z, the optional source and the returned arrays are in the
    solver's frame (see DirichletSolver), and a Z or source of another shape
    raises ValueError.  Z's positivity is read off the minimum it took when
    it was built.  The grid comes from the solver, whose ds is the step
    size; one solver serves a whole stage.  The first sweep reads the source
    F~, by default f(Z); march passes extrapolated_seed of the accepted
    sources, the local-uniqueness check the source of a perturbed Z.  The
    start changes the number of sweeps, not the stopping test.  The step
    owns its source buffer, as a numpy out= array: the given source, or the
    array it allocates for f(Z), is overwritten and returned holding f(Y).
    Returns the accepted state Y, a Field on the solver's grid, its sweep
    count and that buffer.  Y carries the gradient sum of its solve and the
    K of f(Y), which discrete_energy reads, and its minimum; if that is
    below CLIP (or NaN), K is of the clipped values, and Y carries none.

    Each sweep solves L (Y - g) = (Z - g)/ds - F with F = f(Y_prev), or F~
    on the first, takes min Y once and evaluates F_new = f(Y), the next
    sweep's source, which that minimum spares the clip pass from CLIP up.
    Since ||L^-1||_inf <= ds, the next sweep would move Y by at most
    ds*max|F_new - F|, whatever F was; the step ends once this certified
    bound is below STOP_MARGIN*PICARD_TOL*max|Y|, so no solve is spent on
    confirming a move that small.  The test reads the frame corner first:
    |Y[0, 0]| <= max|Y|, so a bound below the corner's stop is below max|Y|'s,
    and only a bound that is not takes the pass over |Y|.  The decision is
    max|Y|'s in every case (a NaN in Y makes the source, and so the bound,
    NaN).  On the reference runs the corner, next to the boundary, is the
    frame's maximum, so a step's last sweep takes no pass over |Y|.  With
    lam = 0 the source is exactly 0 and one sweep ends the step (from the
    default start); PICARD_MAX sweeps without the stop raise NumericalError,
    whose message gives the last bound and max|Y|'s stop.
    """
    grid = solver.grid
    shape = grid.shape
    if Z.values.shape != shape or (source is not None and source.shape != shape):
        raise ValueError(f"Picard step takes arrays in the solver's frame {shape}")
    if not Z.is_admissible():  # also true for a NaN state
        raise ValueError("Picard step requires a positive previous state")

    ds, g = solver.ds, grid.g
    # Live frame arrays set large-N peak memory.  Besides Z and the source
    # buffer F, a sweep holds two: the state Y (right-hand side, solution and
    # shift by g in one buffer) and, in turn, the solve's product array and
    # the new source F_new.  The move F_new - F and, when the stop is not
    # passed at the frame corner, |Y| go into F, which then takes a copy of
    # F_new.  march passes a ring row as F, so a step holds two frame arrays
    # besides Z and the ring.
    F = source
    if F is None:
        F = nonlocal_source(Z.values, grid, lam, Z.min_interior())[0]
    for sweeps in range(1, PICARD_MAX + 1):
        Y = Z.values - g
        Y /= ds
        Y -= F
        Y, grad_sq = solver.solve(Y)
        Y += g
        lowest = float(np.minimum.reduce(Y, None))
        F_new, K = nonlocal_source(Y, grid, lam, lowest)
        # the next sweep would move Y by L^-1 (F - F_new), and ||L^-1|| <= ds
        np.subtract(F_new, F, out=F)
        bound = ds * np.maximum.reduce(np.abs(F, out=F), None)
        # |Y[0, 0]| <= max|Y|, so passing at the corner passes at max|Y|
        stop = STOP_MARGIN * PICARD_TOL * abs(Y[0, 0])
        if not bound < stop:
            stop = STOP_MARGIN * PICARD_TOL * np.maximum.reduce(np.abs(Y, out=F), None)
        F[...] = F_new
        del F_new
        if bound < stop:
            if not lowest >= CLIP:  # K is that of the clipped values
                K = None
            return Field(grid, Y, grad_sq, K, lowest), sweeps, F
    raise NumericalError(
        f"Picard did not converge within {PICARD_MAX} sweeps: "
        f"last certified bound {bound:.3e} against the stop {stop:.3e}"
    )


def march(Z: Field, ds: float, lam: float, where: str) -> Iterator[StepReport]:
    """Seeded backward-Euler + Picard steps of size ds from Z, lazily: each
    yielded report starts from the previous one's state.  A step that does
    not converge raises NumericalError naming where (the stage or the direct
    run) and the step.  The one solver is built on Z's grid, and every
    yielded state is a Field on that grid (Z itself is step 1's prev).  The
    seed ring holds f(Z) and the source f(Y) of each accepted state, so the
    run evaluates one source per solve and one at its start; before step n
    it has written n sources and holds the last SEED_ORDER + 1 of them.
    extrapolated_seed writes step n's seed into the row its source replaces,
    and the step takes that row as its source buffer and leaves f(Y) there.
    Z is held only as the current step's start: a caller that hands march
    the only reference to its start has it freed once step 1 is scored."""
    solver = DirichletSolver(Z.grid, ds)
    logger.info("%s: %s solve", where, solver.path)
    ring = np.empty((SEED_ORDER + 1, *Z.grid.shape))
    ring[0] = nonlocal_source(Z.values, Z.grid, lam, Z.min_interior())[0]
    for step in itertools.count(1):
        row = extrapolated_seed(ring, step)
        try:
            Y, sweeps, _ = picard_implicit_step(Z, solver, lam, row)
        except NumericalError as exc:
            raise NumericalError(f"{where}, step {step}: {exc}") from None
        yield StepReport(Z, Y, sweeps)
        Z = Y


def euler_lagrange_residual(Y: Field, Z: Field, ds: float, lam: float) -> np.ndarray:
    """Residual (Y - Z)/ds - Lap_h Y + lam/(Y^2 K^2) of the implicit step,
    on the grid of Y and Z."""
    if not Y.is_admissible():  # also true for a NaN state
        raise ValueError("residual undefined on the vanishing branch")
    source, _ = nonlocal_source(Y.values, Y.grid, lam)
    return (Y.values - Z.values) / ds - laplacian_5pt(Y) + source


def mm_oracle_step(starts: Sequence[Field], ds: float, lam: float) -> list[Field]:
    """Minimizing-movement reference steps on verification-size grids, one
    from each start Z, returned in the order of the starts.

    Gradient descent from Z on J(Y) = E(Y) + (A^2/2ds)*||Y - Z||^2, each
    iteration the full step ds*R, until the first-order residual R is below
    ORACLE_TOL in max norm.  The one rule: the full step must lower J by the
    Armijo share 1e-4 of its first-order decrease, within a few ulps of J
    (near the minimum the decrease falls below float resolution, and the
    descent map still contracts the residual there), or the call raises
    NumericalError naming the start.  ds*R is an explicit step of the
    diffusion, so it lowers J only for ds below about h^2/8, the reciprocal
    of the largest eigenvalue of -Lap_h; verify's cases run at ds = 1e-3
    against h^2/8 = 0.036 on their 3x3 interiors.  The descent runs on the
    frame, so it minimizes J over the states symmetric about both
    mid-lines; it takes at most 16 frame values, N <= 9.

    The starts share one grid and descend as one stack (Field.stack): each
    iteration takes J and R of the starts still above the target at once,
    and a start that reached it leaves the stack.  Each state's values are
    computed as its descent alone would compute them, so every minimizer is
    the one its start alone reaches, to the bit.
    """
    Z = Field.stack(starts)
    grid = Z.grid
    if Z.values[0].size > 16:
        raise ValueError("oracle is restricted to grids with <= 16 frame values")
    if not Z.is_admissible():
        raise ValueError("oracle requires a positive previous state")

    h, scale = grid.h, grid.A2h2
    step, slack = ds / scale, 8.0 * np.finfo(float).eps

    def objective(Y: Field, Z: Field) -> np.ndarray:
        return discrete_energy(Y, lam).total + movement_penalty(Y, Z, ds)

    out = np.empty_like(Z.values)
    index = np.arange(len(out))  # the start of each state in the stack
    Y, JY = Z, objective(Z, Z)
    for _ in range(ORACLE_MAX_ITERS):
        R = euler_lagrange_residual(Y, Z, ds, lam)
        done = np.abs(R).max(axis=(-2, -1)) < ORACLE_TOL
        out[index[done]] = Y.values[done]
        if done.all():
            return [Field(grid, Y) for Y in out]
        if done.any():
            keep = ~done
            index, R, JY = index[keep], R[keep], JY[keep]
            Y, Z = Field(grid, Y.values[keep]), Field(grid, Z.values[keep])
        G = scale * R  # plain gradient of J
        bar = JY - 1e-4 * step * (h * h * grid.sum(G * G)) + slack * abs(JY)
        Y = Field(grid, Y.values - step * G)
        failed = ~(Y.min_interior() > 0.0)
        if not failed.any():
            JY = objective(Y, Z)
            failed = ~(JY <= bar)
        if failed.any():
            first = index[np.flatnonzero(failed)[0]]
            raise NumericalError(
                f"descent stagnated above the residual target at start {first}"
            )
    raise NumericalError("descent did not reach the residual target")
