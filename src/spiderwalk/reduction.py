"""Route 2: the one-dimensional reduction of the spidernet Grover walk.

The isotropic vectors

* ``psi_n^+``: uniform over half-edges from stratum n to stratum n+1,
* ``psi_n^o``: uniform over intra-stratum half-edges at stratum n,
* ``psi_n^-``: uniform over half-edges from stratum n to stratum n-1,

span a subspace invariant under the Grover walk of S(a, b, c).  On it the
walk acts as a three-channel walk on the half-line whose coin mixes each
triple (psi_n^+, psi_n^o, psi_n^-) through the rank-one reflection
2 v v^T - I, v = (sqrt(p), sqrt(r), sqrt(q)), with

    p = c / b,   q = 1 / b,   r = (b - c - 1) / b,

and whose shift swaps psi_n^+ with psi_{n+1}^-.  Everything downstream
(spectra, spectral measures, localization) is phrased in terms of
(p, q, r) only, which is why :class:`PqParams` also accepts raw values.

The module provides the reduced state, its one evolution kernel
:class:`ReducedEvolver` (in place, stepping only the cells inside the light
cone of the read strata and short of the walk's underflow front, and
reading strata through one bulk copy of their three coefficients at every
step), the drivers built on it (the amplitude series
<Psi_l, U^n Psi_m> and the Cesaro averages of the stratum probabilities,
whose origin value tends to w^2 / 2 for the atom mass w of
:mod:`spiderwalk.meixner`), the isometric embedding back into a concrete
graph, and the spectrum of the finite-path cutoff walk U_N.  That spectrum
comes from the eigenvalues of the tridiagonal T_N, the walk compressed onto
Psi_0 .. Psi_N, with diagonal (0, r, ..., r, 0) and off-diagonal
(sqrt(q), sqrt(pq), ..., sqrt(pq), sqrt(p)), found from (p, q, r, N) alone
in O(N) memory and without eigenvectors.  In the band
x = r + 2 sqrt(pq) cos(phi) they are the roots of a two-term closed form
of det(x - T_N) in sin(k phi), bisected in the band angle phi from the
nearer edge; the Sturm counts of T_N - 1 and T_N + 1 at y = x -+ 1, the
number of eigenvalues below x, check how many the band holds, find the
few outside it and prove the eigenvalue 1 (and -1 when r = 0).  The arc
angles theta come from 1 - x and 1 + x, which keep their digits near the
band edges and near +-1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailureError,
    DimensionMismatchError,
    InvalidParamsError,
    ParamsOutOfRangeError,
    RadiusTooSmallError,
    checked_int,
)
from .graph import Spidernet, SpidernetParams

__all__ = [
    "PqParams",
    "params_from_spidernet",
    "ReducedState",
    "ReducedEvolver",
    "MAX_LADDER_CELLS",
    "cesaro_strata",
    "origin_amplitude_series",
    "embed",
    "MAX_CUTOFF",
    "u_eigensystem",
]

_TOL = 1e-14

# A cap on the cells of one ladder array: a reduced state's strata, an
# evolver's preallocated strata (its length + max_steps + 2) and
# cesaro_strata's sums.  Larger sizes are rejected with InvalidParamsError
# before anything is allocated.  It lies above every size the CLI
# reaches (amplitude's M + nmax stays at most 2^21 - 3 within the quadrature
# degree cap, simulate's steps under 5e5 within its table cap).  An evolver holds
# 6 float64 arrays of its capacity, its cells and the coin's product of three
# rows each: ~200 MB at the cap.
MAX_LADDER_CELLS = 1 << 22


@dataclass(frozen=True)
class PqParams:
    """Reduced walk parameters (p, q, r) with p, q > 0 and r = 1 - p - q >= 0.

    ``r`` values within 1e-14 of zero are snapped to exactly zero; the
    spectral structure (eigenvalue -1, tree case) branches on r == 0.
    """

    p: float
    q: float
    r: float

    def __post_init__(self) -> None:
        p, q, r = self.p, self.q, self.r
        if not (p > 0 and q > 0):
            raise ParamsOutOfRangeError(f"p and q must be positive, got p={p}, q={q}")
        # written so that NaN fails every test
        if not r >= -_TOL:
            raise ParamsOutOfRangeError(f"r must be non-negative, got r={r}")
        if not abs(p + q + r - 1.0) <= _TOL:
            raise ParamsOutOfRangeError(f"p + q + r must equal 1, got {p + q + r}")
        if abs(r) <= _TOL:
            object.__setattr__(self, "r", 0.0)


def params_from_spidernet(sp: SpidernetParams) -> PqParams:
    """(p, q, r) = (c/b, 1/b, (b-c-1)/b) for S(a, b, c); independent of a.

    q = 1.0 / b rounds b to a float first, so a b from 2**1024 - 2**970 on,
    which rounds past the largest float, raises ParamsOutOfRangeError.
    """
    b, c = sp.b, sp.c
    try:
        q = 1.0 / b
    except OverflowError:
        raise ParamsOutOfRangeError(
            f"b has {b.bit_length()} bits and rounds past the largest float") from None
    return PqParams(c / b, q, (b - c - 1) / b)


class ReducedState:
    """Coefficients of a vector in the invariant ladder subspace.

    ``xp[n]``, ``xo[n]``, ``xm[n]`` are the coefficients of psi_n^+,
    psi_n^o, psi_n^- respectively for n = 0 .. length.  Slot 0 only has a
    "+" component (the root has no backward or intra half-edges); xo[0]
    and xm[0] are kept at exactly zero.  The coefficients are float64
    copies of the arguments: the reduced walk is real orthogonal, so a
    complex state evolves as its real and imaginary parts, two real states,
    and a complex argument is refused, as is a NaN or infinite entry.
    """

    __slots__ = ("xp", "xo", "xm")

    def __init__(self, xp, xo, xm):
        xp, xo, xm = (np.asarray(x) for x in (xp, xo, xm))
        if not (xp.shape == xo.shape == xm.shape) or xp.ndim != 1 or len(xp) < 1:
            raise DimensionMismatchError("xp, xo, xm must be 1-d arrays of equal length >= 1")
        if any(np.iscomplexobj(x) for x in (xp, xo, xm)):
            raise DimensionMismatchError(
                "a reduced state is real: evolve its real and imaginary parts as two states")
        self.xp, self.xo, self.xm = (x.astype(np.float64) for x in (xp, xo, xm))
        if not all(np.isfinite(x).all() for x in (self.xp, self.xo, self.xm)):
            raise DimensionMismatchError("a reduced state is finite, got NaN or inf")
        if self.xo[0] or self.xm[0]:
            raise DimensionMismatchError("slot 0 has no intra or backward component")

    @classmethod
    def origin(cls) -> "ReducedState":
        """The state psi_0^+ (isotropic at the root)."""
        return cls([1.0], [0.0], [0.0])

    @classmethod
    def zeros(cls, length: int) -> "ReducedState":
        length = checked_int("length", length, 0, MAX_LADDER_CELLS - 1)
        z = np.zeros(length + 1)
        return cls(z, z, z)

    @property
    def length(self) -> int:
        """Largest stratum index carried (array length - 1)."""
        return len(self.xp) - 1

    def coefficients(self) -> np.ndarray:
        """Stacked (3, length+1) coefficient array."""
        return np.stack([self.xp, self.xo, self.xm])


# The front's flush threshold: the smallest normal double, ~2.2e-308.
_TINY = float(np.finfo(float).tiny)


def _probabilities(cells: np.ndarray) -> np.ndarray:
    """(x+^2 + xo^2) + x-^2 over the leading axis of (xp, xo, xm) cells."""
    squares = np.square(cells)
    return (squares[0] + squares[1]) + squares[2]


class ReducedEvolver:
    """In-place stepper for long reduced evolutions.

    Preallocates capacity for ``max_steps`` so that stepping never
    reallocates, and reads a stratum's probability, one at a time or over
    many steps in bulk; the coefficients are float64, like the state's.
    The bulk read copies the cells of every step through :meth:`_cell_rows`,
    which :func:`origin_amplitude_series` reads its amplitudes from too.

    A step updates cells ``1 .. M``, M = min(front, steps_left + reach + 1),
    by one product: the (3, 3) coin, rows coined "-", new "o", coined "+"
    and columns x^+, x^o, x^-, times the cells' (3, M) coefficients.  The
    product lands in a buffer and moves on to the shifted destinations
    xp[0 .. M-1], xo[1 .. M] and xm[2 .. M+1], the rows of the cells'
    buffer read as (3, capacity + 1); the root's "+" moves to xm[1].  BLAS rounds each
    column alike at every width of at least two columns, so a one-column
    product takes two and no cell's bits depend on M.

    ``reach`` is the largest stratum the caller will read: a cell further
    out than ``steps_left + reach`` cannot influence a read stratum before
    the horizon, so it goes stale.  ``reach=None`` is the capacity,
    ``length + max_steps``: with reach >= active + steps_left, M is
    ``front``, and the whole support is stepped.  A read of a stratum in
    ``(reach, active]`` raises :class:`RadiusTooSmallError`, and so does
    :meth:`state` below the capacity; a stratum past ``active`` reads 0 at
    any reach.  ``front`` is the last cell that may be nonzero.  Past the
    walk's front the amplitude decays exponentially and underflows, so
    after a step ``front`` = M + 1 retreats over the cells whose three
    coefficients all lie below ``np.finfo(float).tiny`` and sets them to
    exactly 0.  ``active``, the last stratum the walk could have reached,
    grows by one per step, and every cell past it is exactly 0.  The flush
    can move roundings in cells of size 1: for S(., 10, 2), reach 0, the
    origin series leaves an unflushed run's at step 19 139 and differs by
    up to 2.1e-15 at 2e4 steps; both lie ~8.6e-14 from a long-double run.
    """

    def __init__(self, params: PqParams, state: ReducedState, max_steps: int,
                 reach: int | None = None):
        L = state.length
        max_steps = checked_int("max_steps", max_steps, 0, MAX_LADDER_CELLS - L - 2)
        self.params = params
        self.reach = L + max_steps if reach is None else checked_int("reach", reach, 0)
        cap = L + max_steps + 2
        # One buffer of 3 (cap + 1) cells.  Read as (3, cap), its rows are
        # xp, xo, xm, so that a read copies all three at once; read as
        # (3, cap + 1), its rows start at xp[0], xo[1] and xm[2], where the
        # shift puts coined "-", new "o" and coined "+" of cells 1 .. M
        buf = np.zeros(3 * (cap + 1))
        self._cells = buf[:3 * cap].reshape(3, cap)
        self._cells[:, :L + 1] = state.coefficients()
        self._dest = buf.reshape(3, cap + 1)
        self.xp, self.xo, self.xm = self._cells
        # the coin's product, in the rows of the shift's destinations
        self._prod = np.empty((3, cap))
        self.active = L
        self.front = L
        self._left = max_steps
        p, q, r = params.p, params.q, params.r
        cpp, cpo, cpm = 2 * p - 1, 2 * np.sqrt(p * r), 2 * np.sqrt(p * q)
        coo, com, cmm = 2 * r - 1, 2 * np.sqrt(q * r), 2 * q - 1
        # the coin 2 v v^T - I, rows coined "-", new "o", coined "+" and
        # columns x^+, x^o, x^-
        self._coin = np.array([[cpm, com, cmm], [cpo, coo, com], [cpp, cpo, cpm]])

    def step(self) -> None:
        if self._left <= 0:
            raise RadiusTooSmallError("evolver stepped past its preallocated horizon")
        self._left -= 1
        M = min(self.front, self._left + self.reach + 1)
        xp, xo, xm = self.xp, self.xo, self.xm
        # a one-column product goes to gemv, which rounds unlike gemm, so it
        # takes two columns, and no cell's bits depend on M
        w = max(M, 2)
        np.matmul(self._coin, self._cells[:, 1:1 + w], out=self._prod[:, :w])
        # shift: coined "-" moves down into xp[0 .. M-1], coined "+" up into
        # xm[2 .. M+1] and the root's "+" into xm[1]
        root = xp[0]
        self._dest[:, :M] = self._prod[:, :M]
        xm[1] = root
        xp[M:M + 2] = 0.0
        self.active += 1
        f = M + 1
        while f > 0 and abs(xp[f]) < _TINY and abs(xo[f]) < _TINY and abs(xm[f]) < _TINY:
            xp[f] = xo[f] = xm[f] = 0.0
            f -= 1
        self.front = f

    def origin_probability(self) -> float:
        return self.stratum_probability(0)

    def stratum_probability(self, stratum: int) -> float:
        stratum = checked_int("stratum", stratum, 0)
        if stratum > self.active:
            return 0.0
        if stratum > self.reach:
            raise RadiusTooSmallError(
                f"stratum {stratum} lies beyond the evolver's reach {self.reach}")
        return float(_probabilities(self._cells[:, stratum]))

    def _cell_rows(self, steps: int, strata) -> np.ndarray:
        """Copies of ``self._cells[:, strata]``, for an index or a slice, now
        and after each of the next ``steps`` steps, into one buffer whose
        axis 1 is the step: (3, steps + 1) or (3, steps + 1, width)."""
        steps = checked_int("steps", steps, 0)
        if steps > self._left:
            raise RadiusTooSmallError("evolver stepped past its preallocated horizon")
        now = self._cells[:, strata]
        cells = np.empty((3, steps + 1) + now.shape[1:])
        cells[:, 0] = now
        for k in range(1, steps + 1):
            self.step()
            cells[:, k] = self._cells[:, strata]
        return cells

    def stratum_probability_rows(self, steps: int) -> np.ndarray:
        """Probabilities of strata 0 .. min(reach, active + steps) now and
        after each of the next ``steps`` steps: row k holds the state k
        steps on, and strata the walk has not reached read 0.

        Each state's cells are copied once into one buffer, of
        3 (steps + 1) (min(reach, active + steps) + 1) coefficients, and
        squared together at the end, per element as :meth:`stratum_probability`.
        """
        width = min(self.active + steps, self.reach) + 1
        return _probabilities(self._cell_rows(steps, slice(0, width)))

    def state(self) -> ReducedState:
        if self.reach < self.active + self._left:
            raise RadiusTooSmallError(
                "an evolver with a reach below its capacity holds stale cells; "
                "build it with reach=None")
        L = self.active
        return ReducedState(self.xp[:L + 1], self.xo[:L + 1], self.xm[:L + 1])


def stratum_state(params: PqParams, stratum: int) -> ReducedState:
    """The unit ladder vector Psi_n: psi_0^+ for n = 0, otherwise
    sqrt(p) psi_n^+ + sqrt(r) psi_n^o + sqrt(q) psi_n^-."""
    stratum = checked_int("stratum", stratum, 0)
    if stratum == 0:
        return ReducedState.origin()
    s = ReducedState.zeros(stratum)
    s.xp[stratum] = np.sqrt(params.p)
    s.xo[stratum] = np.sqrt(params.r)
    s.xm[stratum] = np.sqrt(params.q)
    return s


# Stratum probabilities per bulk read of cesaro_strata, so that its memory
# does not grow with the horizon.
_BLOCK_CELLS = 1 << 16


def cesaro_strata(params: PqParams, horizon: int, max_stratum: int) -> np.ndarray:
    """Time-averaged stratum probabilities of the reduced walk.

    Entry l is (1/N) sum_{n<N} P(X_n in V_l) for l = 0 .. max_stratum,
    horizon N, starting from the isotropic root state.
    """
    horizon = checked_int("horizon", horizon, 1)
    max_stratum = checked_int("max_stratum", max_stratum, 0, MAX_LADDER_CELLS - 1)
    ev = ReducedEvolver(params, ReducedState.origin(), horizon - 1, reach=max_stratum)
    block = max(1, _BLOCK_CELLS // (min(max_stratum, horizon - 1) + 1))
    acc = np.zeros(max_stratum + 1)
    done = 0                                    # states summed so far
    while done < horizon:
        n = min(block, horizon - done)
        # a read starts at the state the previous read ended on
        skip = 1 if done else 0
        rows = ev.stratum_probability_rows(n - 1 + skip)[skip:]
        w = rows.shape[1]
        # row by row in step order, as a per-step sum adds them
        acc[:w] = np.add.accumulate(np.vstack([acc[:w], rows]))[-1]
        done += n
    return acc / horizon


def origin_amplitude_series(params: PqParams, nmax: int, l: int = 0, m: int = 0) -> np.ndarray:
    """<Psi_l, U^n Psi_m> for n = 0 .. nmax from the reduced evolution;
    the name is historical, from the default l = m = 0, the origin's return
    amplitudes.

    One pass of the evolver from Psi_m with reach l copies stratum l's three
    cells after every step, as its bulk probability read copies strata
    0 .. reach, and reads Psi_l from the copies: x_0^+ at the root, else
    (sqrt(p) x_l^+ + sqrt(r) x_l^o) + sqrt(q) x_l^- over all steps at once.
    A stratum past m + nmax is never reached and reads 0 at every step.
    The values are real: the walk matrix and the initial state are.
    """
    nmax = checked_int("nmax", nmax, 0)
    ev = ReducedEvolver(params, stratum_state(params, m), nmax, reach=l)
    l = ev.reach
    if l > ev.active + nmax:
        return np.zeros(nmax + 1)
    xp, xo, xm = ev._cell_rows(nmax, l)
    if l == 0:
        return xp
    return (np.sqrt(params.p) * xp + np.sqrt(params.r) * xo) + np.sqrt(params.q) * xm


def embed(g: Spidernet, state: ReducedState) -> np.ndarray:
    """Isometric embedding of a reduced state into g's half-edge space.

    Each coefficient is spread uniformly over its half-edge class; the
    result is a full walk state.  Requires radius >= length + 1 so the
    forward class of the last active stratum exists, and intertwines the
    two evolutions: stepping s with a :class:`ReducedEvolver` and then
    embedding equals embedding s and stepping with a
    :class:`~spiderwalk.walk.GraphEvolver`.
    """
    L = state.length
    if g.radius < L + 1:
        raise RadiusTooSmallError(
            f"embedding a state of length {L} needs radius >= {L + 1}, graph has {g.radius}")
    a, c = g.params.a, g.params.c
    m = g.params.intra_degree
    if m == 0 and np.any(np.abs(state.xo) > 1e-15):
        raise InvalidParamsError("state has intra components but the graph is a tree")

    R = g.radius
    # amplitude tables per (direction, source stratum); direction codes
    # 0 = backward, 1 = intra, 2 = forward
    table = np.zeros((3, R + 1))
    n = np.arange(L + 1)
    table[2, :L + 1] = state.xp / np.sqrt(a * np.power(float(c), n))
    if L >= 1:
        lower = np.power(float(c), n[1:] - 1)      # class sizes / a at strata >= 1
        if m > 0:
            table[1, 1:L + 1] = state.xo[1:] / np.sqrt(a * m * lower)
        table[0, 1:L + 1] = state.xm[1:] / np.sqrt(a * lower)

    src_strata = g.vertex_stratum[g.he_src]
    direction = g.vertex_stratum[g.he_dst] - src_strata + 1
    return table[direction, src_strata]


# ---------------------------------------------------------------------------
# Spectrum of the finite-path cutoff walk
# ---------------------------------------------------------------------------

# A cap on the cutoff N.  The spectrum takes O(N) memory and time, so the cap
# bounds the ~2N printed rows and the work of one solve, ~45 ms at 4096.
MAX_CUTOFF = 4096


# -- eigenvalues of T_N -------------------------------------------------------
#
# With s = sqrt(pq), x = r + 2s cos(phi) and U_k the Chebyshev polynomials of
# the second kind, det(x - T_N) = x P_N - p P_{N-1} for the monic free
# Meixner polynomials P_k = s^k ((x/s) U_{k-1} - U_{k-2} / p) at cos(phi).
# U_{N-3} = 2 cos(phi) U_{N-2} - U_{N-1} and p + q + r = 1 leave two terms,
#
#     sin(phi) det(x - T_N) = s^(N-1) (x - 1) ((1 + x) sin(N phi) + (r/s) sin((N-1) phi)),
#
# and x < 1 in the band, so its eigenvalues there are the roots of the
# bracket, the band form.  Each is found in the band angle a from the nearer
# edge, a = phi (side 1) up to just past pi/2 and a = pi - phi (side -1)
# beyond, where sin(k phi) = -(-1)^k sin(k a): the band form is then
# (1 + x) sin(N a) + side (r/s) sin((N-1) a) up to a constant sign.
# Elsewhere the Sturm count decides: the number of eigenvalues of T_N below
# x is that of negative pivots of T_N - x (Barth, Martin & Wilkinson,
# Numer. Math. 9 (1967) 386-393; Demmel, Applied Numerical Linear Algebra
# (1997) 5.3.4), taken at y = x -+ 1 on T_N -+ 1, where an eigenvalue near
# +-1 keeps the digits of its distance to it.

# A band root is certified within _ROOT_TOL in a, and 1 and -1 within
# max(_ROOT_TOL 2s, a few ulps) in y: relative to the band.
_ROOT_TOL = 1e-10
# Band samples, uniform in phi: max(4N, _MIN_SAMPLES).
_MIN_SAMPLES = 64
# A zero pivot counts as negative; pq / _PIVMIN stays finite.
_PIVMIN = float(np.finfo(float).tiny)


def _edge_gaps(params: PqParams, a, side):
    """1 - x and 1 + x at x = r + side 2s cos(a), as sums of non-negative
    terms: (sqrt(p) - sqrt(q))^2 + 4s sin^2(a/2) and :func:`_one_plus_x`,
    sin and cos swapped where side is -1."""
    p, q = params.p, params.q
    s, gap = np.sqrt(p * q), (np.sqrt(p) - np.sqrt(q)) ** 2
    near = np.where(side > 0, np.sin(0.5 * a), np.cos(0.5 * a)) ** 2
    return gap + 4.0 * s * near, _one_plus_x(params, a, side)


def _one_plus_x(params: PqParams, a, side):
    """1 + x at x = r + side 2s cos(a) as (2r + (sqrt(p) - sqrt(q))^2) +
    4s cos^2(a/2), sin for cos where side is -1."""
    p, q, r = params.p, params.q, params.r
    far = np.where(side > 0, np.cos(0.5 * a), np.sin(0.5 * a)) ** 2
    return (2.0 * r + (np.sqrt(p) - np.sqrt(q)) ** 2) + 4.0 * np.sqrt(p * q) * far


def _sturm_count(params: PqParams, cutoff: int, y: float, end: float) -> int:
    """Number of eigenvalues of T_N below end + y, end = +-1: the negative
    pivots of (T_N - end) - y = L D L^T, from the diagonal
    (-end, r - end, ..., r - end, -end), with r - 1 taken as -(p + q), and
    the squared off-diagonal (q, pq, ..., pq, p).  Each pivot subtracts y
    last, so that the count changes where the rest of it equals y.  The
    interior pivots follow d -> ((r - end) - pq/d) - y; once d repeats
    exactly, so do all later ones, so outside the band x = r +- 2s cosh(u)
    the loop stops after ~1/u steps."""
    p, q, N, y = params.p, params.q, cutoff, float(y)
    pq, a = p * q, -(p + q) if end > 0 else 1.0 + params.r
    d = (-end - y) or -_PIVMIN
    neg = int(d < 0)
    d = ((a - q / d) - y) or -_PIVMIN
    neg += d < 0
    for i in range(2, N):
        e = ((a - pq / d) - y) or -_PIVMIN
        if e == d:
            neg += (N - i) * (d < 0)
            break
        d = e
        neg += d < 0
    d = ((-end - p / d) - y) or -_PIVMIN
    return neg + (d < 0)


def _count_root(params: PqParams, cutoff: int, k: int, end: float, lo: float, hi: float) -> float:
    """y = lambda_k - end for the eigenvalue lambda_k of T_N (ascending, from
    0), given count(lo) <= k < count(hi) in y, bisected on the count to
    neighbouring floats."""
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (lo, mid) if _sturm_count(params, cutoff, mid, end) > k else (mid, hi)
    return mid


def _sin_multiple(k: int, a: np.ndarray) -> np.ndarray:
    """sin(k a) for 0 <= k <= MAX_CUTOFF and 0 <= a <= pi.  k a splits
    exactly into A + B, A a multiple of 2^-38 and |B| <= 2^-27, and
    sin(A) + B cos(A) misses sin(k a) by at most B^2 |sin(A)| + |B|^3, so
    the sign of the band form holds up to its roots."""
    head = np.round(a * 2.0 ** 38) * 2.0 ** -38
    return np.sin(k * head) + k * (a - head) * np.cos(k * head)


def _band_form(params: PqParams, cutoff: int, a: np.ndarray, side) -> np.ndarray:
    """(1 + x) sin(N a) + side (r/s) sin((N-1) a) at x = r + side 2s cos(a),
    0 < a < pi: of the sign of -det(x - T_N) for side 1 and of
    (-1)^N det(x - T_N) for side -1."""
    return (_one_plus_x(params, a, side) * _sin_multiple(cutoff, a)
            + side * (params.r / np.sqrt(params.p * params.q)) * _sin_multiple(cutoff - 1, a))


def _band_samples(cutoff: int):
    """Samples phi_k = (k + 1/2) pi / M, M = max(4N, _MIN_SAMPLES), in
    ascending phi, as (a, side): a = phi up to the first past pi/2 and
    a = pi - phi from it on."""
    M = max(4 * cutoff, _MIN_SAMPLES)
    half = (np.arange(M // 2 + 1) + 0.5) * (np.pi / M)
    return np.r_[half, half[-2::-1]], np.r_[np.ones(M // 2 + 1), -np.ones(M // 2)]


def _band_brackets(params: PqParams, cutoff: int, a: np.ndarray, side: np.ndarray):
    """(lo, hi, band form >= 0 at lo, side) for each sign change of the
    band form between neighbouring samples on the same side."""
    positive = _band_form(params, cutoff, a, side) >= 0
    j = np.flatnonzero((positive[1:] != positive[:-1]) & (side[1:] == side[:-1]))
    return a[j], a[j + 1], positive[j], side[j]


def _band_roots(params: PqParams, cutoff: int, a: np.ndarray, side: np.ndarray):
    """Roots (a, side) of the band form, one per bracket, bisected in a
    until no bracket has a midpoint strictly inside it; a midpoint that
    rounds onto an end of its bracket stays the root under further
    halvings."""
    lo, hi, lo_positive, side = _band_brackets(params, cutoff, a, side)
    # side -1 brackets run downwards in a: mid is strictly inside while it
    # equals neither end
    while np.any(((mid := 0.5 * (lo + hi)) != lo) & (mid != hi)):
        same = (_band_form(params, cutoff, mid, side) >= 0) == lo_positive
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    return mid, side


def _certified_eigenvalues(params: PqParams, cutoff: int):
    """The interior eigenvalues x of T_N, all but 1 and, when r = 0, -1, as
    (1 - x, 1 + x, x).  Counts on T_N - 1 at -+t_1 prove the top eigenvalue,
    1, and on T_N + 1 at +-t the bottom one, -1, when r = 0.  The band roots
    a_k each carry a sign change across a_k +- _ROOT_TOL, these intervals
    are disjoint in phi, and the roots number as many as the counts at the
    outermost samples differ by.  The rest are bisected on the count in y."""
    N, p, q, r = cutoff, params.p, params.q, params.r
    s = np.sqrt(p * q)
    # a y below an ulp of T_N - 1's diagonal -(p + q) is lost
    t_1 = max(_ROOT_TOL * 2.0 * s, 4.0 * np.spacing(p + q))
    # -1 is an eigenvalue when r = 0 and p + q = 1, which the parameters may
    # miss by up to 1e-14 (r snaps to 0 within that)
    t = max(_ROOT_TOL * 2.0 * s, 2.0 * np.spacing(1.0), 2.0 * abs((1.0 - r) - (p + q)))
    pinned = int(r == 0)
    bottom = t if pinned else -t
    ends = ((-1.0, -t, 0), (-1.0, bottom, pinned), (1.0, -t_1, N), (1.0, t_1, N + 1))
    if any(_sturm_count(params, N, y, end) != n for end, y, n in ends):
        raise ConvergenceFailureError(
            f"the eigenvalue 1 or -1 of T_N is not isolated within {max(t, t_1):.3g}")
    a, side = _band_samples(N)
    band, side = _band_roots(params, N, a, side)
    lo, hi = _band_form(params, N, band - _ROOT_TOL, side), _band_form(params, N, band + _ROOT_TOL, side)
    phi = np.where(side > 0, band, np.pi - band)
    if not (np.all(np.sign(lo) * np.sign(hi) < 0) and np.all(np.diff(phi) > 2.0 * _ROOT_TOL)):
        raise ConvergenceFailureError("an eigenvalue of T_N is not isolated within its tolerance")
    # n_lo eigenvalues lie below the samples, and N + 1 - n_hi above them,
    # each counted from the nearer of +-1: the top sample lies above r >= 0
    y_top = -_edge_gaps(params, a[0], 1.0)[0]
    gap_1, y_bottom = _edge_gaps(params, a[0], -1.0)
    near = 1.0 if gap_1 < y_bottom else -1.0
    n_lo = _sturm_count(params, N, -near * min(gap_1, y_bottom), near)
    n_hi = _sturm_count(params, N, y_top, 1.0)
    found = n_lo + len(band) + N + 1 - n_hi
    if found != N + 1 or n_hi > N:
        raise ConvergenceFailureError(f"found {found} of the {N + 1} eigenvalues of T_N")
    below = np.array([_count_root(params, N, k, -1.0, bottom, y_bottom) for k in range(pinned, n_lo)])
    above = np.array([_count_root(params, N, k, 1.0, y_top, -t_1) for k in range(n_hi, N)])
    one_minus_x, one_plus_x = _edge_gaps(params, band, side)
    return (np.r_[2.0 - below, one_minus_x, -above], np.r_[below, one_plus_x, 2.0 + above],
            np.r_[below - 1.0, r + side * 2.0 * s * np.cos(band), 1.0 + above])


@dataclass
class UEigensystem:
    """Spectrum of the cutoff walk U_N.

    ``thetas`` are the arc angles of the conjugate eigenvalue pairs
    e^{+-i theta_j}, ascending, strictly inside (0, pi).  The rest of the
    spectrum is the simple eigenvalue 1 and the eigenvalue -1 with
    multiplicity ``minus_one_multiplicity``, 3N - 1 eigenvalues in all: U_N
    acts on psi_0^+, the triples (psi_n^+, psi_n^o, psi_n^-) for
    n = 1 .. N-1, and psi_N^-.
    """

    params: PqParams
    cutoff: int
    thetas: np.ndarray
    minus_one_multiplicity: int

    @property
    def trace(self) -> float:
        """Trace of U_N from its diagonal, summed in the order of np.trace.

        (S_N C_N)_ii = (C_N)_{s(i), i}: the shift moves every psi^+ and
        psi^- slot out of its coin block, so only the psi_n^o slots keep
        the coin's middle entry.
        """
        diag = np.zeros(3 * self.cutoff - 1)
        # the middle entry of the coin 2 v v^T - I, v = (sqrt(p), sqrt(r), sqrt(q))
        diag[2:-1:3] = 2.0 * (np.sqrt(self.params.r) * np.sqrt(self.params.r)) - 1.0
        return float(diag.sum())


def u_eigensystem(params: PqParams, cutoff: int) -> UEigensystem:
    """Spectrum of the cutoff walk through T_N.

    Eigenvalues of U_N are 1, the pairs e^{+-i theta_j} with
    cos(theta_j) an interior eigenvalue x of T_N, and -1 with multiplicity
    N - 2 (r > 0) or N (r = 0).  The eigenvalues of T_N come from the band
    form of its determinant, certified within ``_ROOT_TOL`` in the band
    angle, and from the Sturm counts of T_N -+ 1 outside the band;
    theta_j = atan2(sqrt((1 - x)(1 + x)), x), with 1 - x and 1 + x from
    the band angle or from y = x -+ 1.  A failed certificate, or an
    interior eigenvalue whose sin theta rounds to 0, raises
    ConvergenceFailureError; a pq that underflows to 0, which leaves the
    band no width, raises ParamsOutOfRangeError, as the spectral law does.
    """
    cutoff = checked_int("cutoff", cutoff, 2, MAX_CUTOFF)
    if not params.p * params.q > 0:
        raise ParamsOutOfRangeError(
            f"pq underflows: the band of p={params.p}, q={params.q} has no width")
    one_minus_x, one_plus_x, x = _certified_eigenvalues(params, cutoff)
    thetas = np.sort(np.arctan2(np.sqrt(one_minus_x * one_plus_x), x))
    if not np.all((thetas > 0) & (thetas < np.pi)):
        raise ConvergenceFailureError("an interior eigenvalue of T_N rounds to +-1")
    return UEigensystem(params, cutoff, thetas, 3 * cutoff - 2 - 2 * len(thetas))
