"""One-dimensional reduction of the spidernet Grover walk.

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
:class:`ReducedEvolver` (in place, light-cone truncated, reading a stratum
from its three coefficients), the isometric embedding back into a concrete
graph, and the spectrum of the finite-path cutoff walk U_N.  That spectrum
comes from the eigenvalues of the tridiagonal T_N, the walk compressed onto
Psi_0 .. Psi_N, with diagonal (0, r, ..., r, 0) and off-diagonal
(sqrt(q), sqrt(pq), ..., sqrt(pq), sqrt(p)).  They are found as the roots
of det(x - T_N) in closed form, a three-term Chebyshev sum, from
(p, q, r, N) alone, in O(N) memory and without eigenvectors.  Each root
is certified by a sign change of that closed form within ``_ROOT_TOL``,
and the roots are counted to N + 1.
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
)
from .graph import Spidernet, SpidernetParams

__all__ = [
    "PqParams",
    "params_from_spidernet",
    "ReducedState",
    "ReducedEvolver",
    "stratum_state",
    "embed",
    "MAX_CUTOFF",
    "u_eigensystem",
]

_TOL = 1e-14
#: How far the top eigenvalue of T_N may sit from 1.
_TOP_EIGENVALUE_TOL = 1e-10


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
    """(p, q, r) = (c/b, 1/b, (b-c-1)/b) for S(a, b, c); independent of a."""
    b, c = sp.b, sp.c
    return PqParams(c / b, 1.0 / b, (b - c - 1) / b)


class ReducedState:
    """Coefficients of a vector in the invariant ladder subspace.

    ``xp[n]``, ``xo[n]``, ``xm[n]`` are the coefficients of psi_n^+,
    psi_n^o, psi_n^- respectively for n = 0 .. length.  Slot 0 only has a
    "+" component (the root has no backward or intra half-edges); xo[0]
    and xm[0] are kept at exactly zero.
    """

    __slots__ = ("xp", "xo", "xm")

    def __init__(self, xp, xo, xm):
        xp = np.asarray(xp, dtype=np.complex128)
        xo = np.asarray(xo, dtype=np.complex128)
        xm = np.asarray(xm, dtype=np.complex128)
        if not (xp.shape == xo.shape == xm.shape) or xp.ndim != 1 or len(xp) < 1:
            raise DimensionMismatchError("xp, xo, xm must be 1-d arrays of equal length >= 1")
        if abs(xo[0]) > 0 or abs(xm[0]) > 0:
            raise DimensionMismatchError("slot 0 has no intra or backward component")
        self.xp, self.xo, self.xm = xp, xo, xm

    @classmethod
    def origin(cls) -> "ReducedState":
        """The state psi_0^+ (isotropic at the root)."""
        return cls([1.0], [0.0], [0.0])

    @classmethod
    def zeros(cls, length: int) -> "ReducedState":
        z = np.zeros(length + 1, dtype=np.complex128)
        return cls(z, z.copy(), z.copy())

    @property
    def length(self) -> int:
        """Largest stratum index carried (array length - 1)."""
        return len(self.xp) - 1

    def coefficients(self) -> np.ndarray:
        """Stacked (3, length+1) coefficient array."""
        return np.stack([self.xp, self.xo, self.xm])


class ReducedEvolver:
    """In-place stepper for long reduced evolutions.

    Preallocates capacity for ``max_steps`` so that stepping never
    reallocates; exposes cheap per-step reads of a stratum's probability,
    for Cesaro accumulation, and of its amplitude on Psi_n.  The
    coefficients are float64 when the initial state is real (the walk is
    real orthogonal, so they stay real) and complex128 otherwise.

    ``reach`` is the largest stratum the caller will read.  A cell further
    out than ``steps_left + reach`` cannot influence a read stratum before
    the horizon, so a step updates only cells ``1 .. min(active,
    steps_left + reach + 1)`` and the rest go stale: reads beyond
    ``reach`` and :meth:`state` then raise.  ``reach=None`` steps the whole
    support.
    """

    def __init__(self, params: PqParams, state: ReducedState, max_steps: int,
                 reach: int | None = None):
        if max_steps < 0:
            raise InvalidParamsError(f"max_steps must be non-negative, got {max_steps}")
        if reach is not None and reach < 0:
            raise InvalidParamsError(f"reach must be non-negative, got {reach}")
        self.params = params
        self.reach = reach
        coeffs = state.coefficients()
        if not coeffs.imag.any():
            coeffs = coeffs.real
        L = state.length
        cap = L + max_steps + 2
        self.xp, self.xo, self.xm = np.zeros((3, cap), dtype=coeffs.dtype)
        self.xp[:L + 1], self.xo[:L + 1], self.xm[:L + 1] = coeffs
        # coined "+", coined "-" and a temporary, for at most cap - 2 cells
        self._cp, self._cm, self._tmp = np.empty((3, cap - 2), dtype=coeffs.dtype)
        self.active = L
        self._left = max_steps
        p, q, r = params.p, params.q, params.r
        self._cpp = 2 * p - 1
        self._cpo = 2 * np.sqrt(p * r)
        self._cpm = 2 * np.sqrt(p * q)
        self._coo = 2 * r - 1
        self._com = 2 * np.sqrt(q * r)
        self._cmm = 2 * q - 1
        self._psi = np.sqrt(p), np.sqrt(r), np.sqrt(q)

    @staticmethod
    def _mix(vp, vo, vm, c_p, c_o, c_m, out, tmp) -> None:
        # out = (c_p vp + c_o vo) + c_m vm; out may alias vo
        np.multiply(vp, c_p, out=tmp)
        np.multiply(vo, c_o, out=out)
        np.add(tmp, out, out=out)
        np.multiply(vm, c_m, out=tmp)
        np.add(out, tmp, out=out)

    def step(self) -> None:
        if self._left <= 0:
            raise RadiusTooSmallError("evolver stepped past its preallocated horizon")
        self._left -= 1
        L = self.active
        M = L if self.reach is None else min(L, self._left + self.reach + 1)
        vp, vo, vm = self.xp[1:M + 1], self.xo[1:M + 1], self.xm[1:M + 1]
        cp, cm, tmp = self._cp[:M], self._cm[:M], self._tmp[:M]
        self._mix(vp, vo, vm, self._cpp, self._cpo, self._cpm, cp, tmp)
        self._mix(vp, vo, vm, self._cpm, self._com, self._cmm, cm, tmp)
        self._mix(vp, vo, vm, self._cpo, self._coo, self._com, vo, tmp)
        # shift: coined "+" moves up into "-", coined "-" moves down into "+"
        self.xm[1] = self.xp[0]
        self.xm[2:M + 2] = cp
        self.xp[0:M] = cm
        self.xp[M:M + 2] = 0.0
        self.active = L + 1

    def origin_probability(self) -> float:
        return float(np.abs(self.xp[0]) ** 2)

    def _probabilities(self, lo: int, hi: int) -> np.ndarray:
        xp, xo, xm = self.xp[lo:hi], self.xo[lo:hi], self.xm[lo:hi]
        return np.abs(xp) ** 2 + np.abs(xo) ** 2 + np.abs(xm) ** 2

    def _check_read(self, stratum: int) -> None:
        if stratum < 0:
            raise InvalidParamsError(f"stratum must be non-negative, got {stratum}")
        if self.reach is not None and stratum > self.reach:
            raise RadiusTooSmallError(
                f"stratum {stratum} lies beyond the evolver's reach {self.reach}")

    def stratum_probability(self, stratum: int) -> float:
        self._check_read(stratum)
        if stratum > self.active:
            return 0.0
        return float(self._probabilities(stratum, stratum + 1)[0])

    def stratum_probabilities(self) -> np.ndarray:
        """Probabilities of strata 0 .. min(reach, active) in one read;
        strata further out are either unreached (probability 0) or stale."""
        top = self.active if self.reach is None else min(self.reach, self.active)
        return self._probabilities(0, top + 1)

    def ladder_amplitude(self, stratum: int) -> float | complex:
        """<Psi_n, state> at n = ``stratum``: x_0^+ at the root, else
        (sqrt(p) x_n^+ + sqrt(r) x_n^o) + sqrt(q) x_n^-, and 0 past ``active``."""
        self._check_read(stratum)
        if stratum > self.active:
            return 0.0
        if stratum == 0:
            return self.xp[0]
        sp, sr, sq = self._psi
        return (sp * self.xp[stratum] + sr * self.xo[stratum]) + sq * self.xm[stratum]

    def state(self) -> ReducedState:
        if self.reach is not None:
            raise RadiusTooSmallError(
                "an evolver with a reach holds stale cells; build it with reach=None")
        L = self.active
        return ReducedState(self.xp[:L + 1].copy(), self.xo[:L + 1].copy(),
                            self.xm[:L + 1].copy())


def stratum_state(params: PqParams, stratum: int) -> ReducedState:
    """The unit ladder vector Psi_n: psi_0^+ for n = 0, otherwise
    sqrt(p) psi_n^+ + sqrt(r) psi_n^o + sqrt(q) psi_n^-."""
    if stratum < 0:
        raise InvalidParamsError(f"stratum must be non-negative, got {stratum}")
    if stratum == 0:
        return ReducedState.origin()
    s = ReducedState.zeros(stratum)
    s.xp[stratum] = np.sqrt(params.p)
    s.xo[stratum] = np.sqrt(params.r)
    s.xm[stratum] = np.sqrt(params.q)
    return s


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
    table = np.zeros((3, R + 1), dtype=np.complex128)
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
# bounds the ~2N printed rows and the work of one solve, ~30 ms at 4096.
MAX_CUTOFF = 4096


def _check_cutoff(cutoff: int) -> None:
    if not 2 <= cutoff <= MAX_CUTOFF:
        raise InvalidParamsError(f"cutoff must lie in 2..{MAX_CUTOFF}, got {cutoff}")


# -- det(x - T_N) in closed form ----------------------------------------------
#
# With s = sqrt(pq), y = (x - r) / (2s) and U_k the Chebyshev polynomials of
# the second kind, det(x - T_N) = x P_N - p P_{N-1} for the monic free
# Meixner polynomials P_k = s^k ((x/s) U_{k-1}(y) - U_{k-2}(y) / p), so
#
#     det(x - T_N) = s^(N-1) (x^2 U_{N-1} - ((p+q)/s) x U_{N-2} + U_{N-3}).
#
# For p = q, T_N is mirror-symmetric, and its even and odd eigenvectors
# split det(x - T_N) into two factors of the same shape; their roots are
# found apart, which separates the two bound states that mirror each other
# and are equal in float64.  Each factor is F = sum_i a_i(x) U_{K-1-i}(y).
# Up to a positive factor, sin(phi) F = sum_i a_i sin((K-i) phi) in the
# band y = cos(phi), and F = sum_i a_i e^{-iu} (1 - e^{-2(K-i)u}) outside
# it, y = cosh(u); both keep their relative accuracy near the band edges.

# How far a returned eigenvalue of T_N may sit from the one its sign change
# proves, as the residual bound of the eigensolver this replaced did.
_ROOT_TOL = 1e-10
# Bisection halvings: every initial bracket shrinks below one ulp.
_BISECTIONS = 64
# Sample points per region (band, below, above): max(4N, _MIN_SAMPLES), refined
# eightfold while they separate fewer than N + 1 roots, up to _MAX_SAMPLES.
_MIN_SAMPLES = 64
_MAX_SAMPLES = 1 << 18


def _char_factors(params: PqParams, cutoff: int):
    """(K, a) pairs whose F = sum_i a(x)[i] U_{K-1-i}(y) multiply, up to a
    positive constant, to det(x - T_N)."""
    p, q, N, m = params.p, params.q, cutoff, cutoff // 2
    if p != q:
        c = (p + q) / np.sqrt(p * q)
        return [(N, lambda x: (x * x, -c * x, 1.0))]
    if N % 2:
        return [(m + 1, lambda x: (x, -1.0 - x, 1.0)),
                (m + 1, lambda x: (x, x - 1.0, -1.0))]
    return [(m + 1, lambda x: (x, -1.0, -x, 1.0)), (m, lambda x: (x, -1.0))]


def _factor_values(params: PqParams, K: int, a, x: np.ndarray) -> np.ndarray:
    """Values with the sign of the factor (K, a) at the points x."""
    y = (x - params.r) / (2.0 * np.sqrt(params.p * params.q))
    # U_k(-y) = (-1)^k U_k(y): evaluate at |y| >= 0, where phi <= pi/2
    flip = np.where(y < 0, -1.0, 1.0)
    coeffs = [np.broadcast_to(ai, x.shape) * flip ** i for i, ai in enumerate(a(x))]
    y = np.abs(y)
    out = np.empty_like(x)
    band, outside = y < 1, y > 1
    phi = np.arccos(y[band])
    out[band] = sum(ai[band] * np.sin((K - i) * phi) for i, ai in enumerate(coeffs))
    u = np.arccosh(y[outside])
    out[outside] = sum(ai[outside] * np.exp(-i * u) * -np.expm1(-2 * (K - i) * u)
                       for i, ai in enumerate(coeffs))
    edge = y == 1                               # U_k(1) = k + 1
    out[edge] = sum(ai[edge] * (K - i) for i, ai in enumerate(coeffs))
    return out * flip ** (K - 1)


def _gershgorin_bound(params: PqParams, cutoff: int) -> float:
    """Largest Gershgorin row sum of T_N, each row |T_ii| + T_i,i+1 + T_i,i-1
    added in that order: sqrt(q), (r + s) + sqrt(q), (r + s) + s,
    (r + sqrt(p)) + s and sqrt(p), with s = sqrt(pq); at N = 2 the middle
    row is (r + sqrt(p)) + sqrt(q).  The bound fixes the sample grid, and so
    every bisection path, to the bit."""
    p, q, r = params.p, params.q, params.r
    s, sp, sq = np.sqrt(p * q), np.sqrt(p), np.sqrt(q)
    if cutoff == 2:
        return max(sq, (r + sp) + sq, sp)
    # T_3 has no row (r + s) + s, but that row never exceeds (r + sqrt(p)) + s
    return max(sq, (r + s) + sq, (r + s) + s, (r + sp) + s, sp)


def _sample_points(params: PqParams, cutoff: int, M: int) -> np.ndarray:
    """Ascending points: M in the band, uniform in phi, and M on each side of
    it, uniform in u out to the Gershgorin bound of T_N."""
    r, s = params.r, np.sqrt(params.p * params.q)
    bound = _gershgorin_bound(params, cutoff)
    parts = [r + 2.0 * s * np.cos(np.pi * (np.arange(M) + 0.5) / M)]
    for side in (-1.0, 1.0):
        u = np.arccosh(max((bound - side * r) / (2.0 * s), 1.0)) * (np.arange(M) + 1.0) / M
        parts.append(r + side * 2.0 * s * np.cosh(u))
    return np.sort(np.concatenate(parts))


def _bisect_roots(params: PqParams, cutoff: int):
    """Roots of each factor of det(x - T_N): one per sign change between
    neighbouring sample points, bisected in x.  The samples are refined
    until they separate N + 1 roots, or up to _MAX_SAMPLES per region."""
    factors = _char_factors(params, cutoff)
    M = max(4 * cutoff, _MIN_SAMPLES)
    while True:
        x = _sample_points(params, cutoff, M)
        positive = [_factor_values(params, K, a, x) >= 0 for K, a in factors]
        cells = [np.flatnonzero(sg[1:] != sg[:-1]) for sg in positive]
        if sum(map(len, cells)) >= cutoff + 1 or M * 8 > _MAX_SAMPLES:
            break
        M *= 8
    roots = []
    for (K, a), sg, j in zip(factors, positive, cells):
        lo, hi, lo_positive = x[j], x[j + 1], sg[j]
        for _ in range(_BISECTIONS):
            mid = 0.5 * (lo + hi)
            same = (_factor_values(params, K, a, mid) >= 0) == lo_positive
            lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
        roots.append(0.5 * (lo + hi))
    return roots


def _certified_eigenvalues(params: PqParams, cutoff: int, roots) -> np.ndarray:
    """All N + 1 eigenvalues of T_N, descending, from the roots of each
    factor.  Every root must carry a sign change of its factor across
    [x - _ROOT_TOL, x + _ROOT_TOL], and the intervals of one factor must be
    disjoint.  Factors share no root (the eigenvalues of T_N are simple), so
    N + 1 such roots account for every eigenvalue.  Raises
    ConvergenceFailureError otherwise."""
    for (K, a), x in zip(_char_factors(params, cutoff), roots):
        x = np.sort(x)
        lo = _factor_values(params, K, a, x - _ROOT_TOL)
        hi = _factor_values(params, K, a, x + _ROOT_TOL)
        if not (np.all(np.sign(lo) != np.sign(hi)) and np.all(np.diff(x) > 2 * _ROOT_TOL)):
            raise ConvergenceFailureError(
                f"an eigenvalue of T_N is not isolated within {_ROOT_TOL}")
    vals = np.sort(np.concatenate(roots))[::-1]
    if len(vals) != cutoff + 1:
        raise ConvergenceFailureError(
            f"found {len(vals)} of the {cutoff + 1} eigenvalues of T_N")
    return vals


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
    cos(theta_j) an interior eigenvalue of T_N, and -1 with multiplicity
    N - 2 (r > 0) or N (r = 0).  The eigenvalues of T_N are the roots of
    det(x - T_N) in closed form, each certified by a sign change within
    ``_ROOT_TOL`` and counted to N + 1.  A top eigenvalue away from 1, or
    an interior one that rounds to +-1, where sin theta = 0, raises
    ConvergenceFailureError.
    """
    N = cutoff
    _check_cutoff(N)
    if not params.p * params.q > 0:
        raise ConvergenceFailureError("pq underflows: the band of T_N collapses onto r")
    vals = _certified_eigenvalues(params, N, _bisect_roots(params, N))
    if abs(vals[0] - 1.0) > _TOP_EIGENVALUE_TOL:
        raise ConvergenceFailureError(f"top eigenvalue {vals[0]} is not 1")
    # interior eigenvalues: drop lambda_0 = 1, and lambda_N = -1 when r = 0
    k_last = N if params.r > 0 else N - 1
    thetas = np.arccos(np.clip(vals[1:k_last + 1], -1.0, 1.0))
    if not np.all((thetas > 0) & (thetas < np.pi)):
        raise ConvergenceFailureError("an interior eigenvalue of T_N rounds to +-1")
    return UEigensystem(params, N, thetas, 3 * N - 2 - 2 * len(thetas))
