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
:class:`ReducedEvolver` (in place, light-cone truncated), the isometric
embedding back into a concrete graph, the finite-path cutoff walk
together with its tridiagonal matrix ``T_N`` (the walk
restricted-projected onto the ladder vectors Psi_n), whose eigenpairs,
certified by their residuals, give the spectrum of the cutoff walk.  The
dense cutoff walk :func:`cutoff_walk_matrix` is kept as an independent
reference for the evolver and the spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

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
    "inner",
    "stratum_state",
    "embed",
    "MAX_CUTOFF",
    "eigensystem_T",
    "cutoff_walk_matrix",
    "u_eigensystem",
]

_TOL = 1e-14
#: How far the top eigenvalue of T_N may sit from 1.
_TOP_EIGENVALUE_TOL = 1e-10
#: Largest residual |T_N v - lambda v| accepted for an eigenpair of T_N.
_RESIDUAL_TOL = 1e-10


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

    def coefficients(self, length: int | None = None) -> np.ndarray:
        """Stacked (3, length+1) coefficient array, zero-padded on the right."""
        L = self.length if length is None else length
        out = np.zeros((3, L + 1), dtype=np.complex128)
        k = min(L, self.length) + 1
        out[0, :k] = self.xp[:k]
        out[1, :k] = self.xo[:k]
        out[2, :k] = self.xm[:k]
        return out


def _coin_matrix(params: PqParams) -> np.ndarray:
    p, q, r = params.p, params.q, params.r
    v = np.array([np.sqrt(p), np.sqrt(r), np.sqrt(q)])
    return 2.0 * np.outer(v, v) - np.eye(3)


class ReducedEvolver:
    """In-place stepper for long reduced evolutions.

    Preallocates capacity for ``max_steps`` so that stepping never
    reallocates; exposes cheap per-step probability reads for Cesaro
    accumulation.  The coefficients are float64 when the initial state is
    real (the walk is real orthogonal, so they stay real) and complex128
    otherwise.

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

    def stratum_probability(self, stratum: int) -> float:
        if stratum < 0:
            raise InvalidParamsError(f"stratum must be non-negative, got {stratum}")
        if self.reach is not None and stratum > self.reach:
            raise RadiusTooSmallError(
                f"stratum {stratum} lies beyond the evolver's reach {self.reach}")
        if stratum > self.active:
            return 0.0
        return float(self._probabilities(stratum, stratum + 1)[0])

    def stratum_probabilities(self) -> np.ndarray:
        """Probabilities of strata 0 .. min(reach, active) in one read;
        strata further out are either unreached (probability 0) or stale."""
        top = self.active if self.reach is None else min(self.reach, self.active)
        return self._probabilities(0, top + 1)

    def origin_amplitude(self) -> complex:
        return complex(self.xp[0])

    def state(self) -> ReducedState:
        if self.reach is not None:
            raise RadiusTooSmallError(
                "an evolver with a reach holds stale cells; build it with reach=None")
        L = self.active
        return ReducedState(self.xp[:L + 1].copy(), self.xo[:L + 1].copy(),
                            self.xm[:L + 1].copy())


def inner(s1: ReducedState, s2: ReducedState) -> complex:
    """Hermitian inner product <s1, s2>, conjugate-linear in s1."""
    L = max(s1.length, s2.length)
    a = s1.coefficients(L)
    b = s2.coefficients(L)
    return complex(np.vdot(a, b))


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
# Finite-path cutoff walk and its tridiagonal matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JacobiMatrixT:
    """Symmetric tridiagonal matrix T_N of the walk on the cutoff ladder.

    T_N is the compression of the cutoff walk onto span{Psi_0..Psi_N}:
    diagonal (0, r, ..., r, 0), off-diagonal (sqrt(q), sqrt(pq), ...,
    sqrt(pq), sqrt(p)).  All eigenvalues are simple, lie in [-1, 1], and
    include 1; -1 appears exactly when r = 0.
    """

    cutoff: int
    diag: np.ndarray
    offdiag: np.ndarray


# A cap on the cutoff N: the eigenvectors of T_N take 8 (N+1)^2 bytes,
# ~128 MiB at N = 4096.  Larger cutoffs are rejected before allocating.
MAX_CUTOFF = 4096


def _check_cutoff(cutoff: int) -> None:
    if not 2 <= cutoff <= MAX_CUTOFF:
        raise InvalidParamsError(f"cutoff must lie in 2..{MAX_CUTOFF}, got {cutoff}")


def build_T(params: PqParams, cutoff: int) -> JacobiMatrixT:
    """Tridiagonal matrix T_N for the given (p, q, r); 2 <= N <= MAX_CUTOFF."""
    _check_cutoff(cutoff)
    p, q, r = params.p, params.q, params.r
    diag = np.r_[0.0, np.full(cutoff - 1, r), 0.0]
    offdiag = np.r_[np.sqrt(q), np.full(cutoff - 2, np.sqrt(p * q)), np.sqrt(p)]
    return JacobiMatrixT(cutoff, diag, offdiag)


def eigensystem_T(t: JacobiMatrixT):
    """Eigenvalues (descending) and orthonormal eigenvectors of T_N.

    Uses a symmetric-tridiagonal solver and verifies that the top
    eigenvalue is 1, that the eigenvalues are finite and non-increasing,
    and that every eigenpair has residual |T_N v - lambda v| at most
    ``_RESIDUAL_TOL``, raising ConvergenceFailureError otherwise.
    Simplicity is not tested bit by bit: two eigenvalues that are distinct
    in exact arithmetic can round to the same double (for p = q the two
    ends of the ladder mirror each other).
    """
    try:
        vals, vecs = scipy.linalg.eigh_tridiagonal(t.diag, t.offdiag)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:  # pragma: no cover
        raise ConvergenceFailureError(f"tridiagonal eigensolver failed: {exc}") from exc
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    if abs(vals[0] - 1.0) > _TOP_EIGENVALUE_TOL:
        raise ConvergenceFailureError(f"top eigenvalue {vals[0]} is not 1")
    if not (np.all(np.isfinite(vals)) and np.all(np.diff(vals) <= 0)):
        raise ConvergenceFailureError("eigenvalues of T_N must be finite and sorted")
    # T_N V - V diag(vals) from the two diagonals, without a dense T_N
    resid = (t.diag[:, None] - vals) * vecs
    resid[:-1] += t.offdiag[:, None] * vecs[1:]
    resid[1:] += t.offdiag[:, None] * vecs[:-1]
    worst = np.sqrt(np.max(np.einsum("ij,ij->j", resid, resid)))
    if not worst <= _RESIDUAL_TOL:
        raise ConvergenceFailureError(f"eigenpair residual {worst:.2e} exceeds {_RESIDUAL_TOL}")
    return vals, vecs


def cutoff_dim(cutoff: int) -> int:
    """Dimension of the cutoff half-line space H(N): 1 + 3(N-1) + 1."""
    return 3 * cutoff - 1


def cutoff_index(n: int, kind: str, cutoff: int) -> int:
    """Coordinate index of psi_n^kind in the cutoff layout.

    Layout: psi_0^+ first, then triples (+, o, -) for n = 1 .. N-1, then
    the lone psi_N^-.
    """
    N = cutoff
    if kind not in ("+", "o", "-"):
        raise InvalidParamsError(f"kind must be '+', 'o' or '-', got {kind!r}")
    if n == 0 and kind == "+":
        return 0
    if 1 <= n <= N - 1:
        return 3 * n - 2 + ("+", "o", "-").index(kind)
    if n == N and kind == "-":
        return 3 * N - 2
    raise InvalidParamsError(f"psi_{n}^{kind} does not exist in H({N})")


def cutoff_walk_matrix(params: PqParams, cutoff: int) -> np.ndarray:
    """Dense matrix of the cutoff walk U_N = S_N C_N on H(N).

    The coin acts as the identity on psi_0^+ and on the flagged last slot
    psi_N^-, and as the usual triple reflection in between; the shift
    swaps psi_n^+ with psi_{n+1}^-.  U_N is real orthogonal with trace
    (2r - 1)(N - 1).  Its build holds two dense (3N - 1)^2 float64 arrays,
    ~2.4 GB at N = MAX_CUTOFF; larger cutoffs are rejected before
    allocating.
    """
    N = cutoff
    _check_cutoff(N)
    dim = cutoff_dim(N)
    coin = np.eye(dim)
    m3 = _coin_matrix(params)
    for n in range(1, N):
        i = cutoff_index(n, "+", N)
        coin[i:i + 3, i:i + 3] = m3
    # U_N = S_N C_N permutes the rows of C_N: psi_n^+ <-> psi_{n+1}^-
    shift = np.arange(dim)
    for n in range(N):
        i, j = cutoff_index(n, "+", N), cutoff_index(n + 1, "-", N)
        shift[i], shift[j] = j, i
    return coin[shift]


@dataclass
class UEigensystem:
    """Spectrum of the cutoff walk U_N.

    ``thetas`` are the arc angles of the conjugate eigenvalue pairs
    e^{+-i theta_j}, ascending, strictly inside (0, pi).  The rest of the
    spectrum is the simple eigenvalue 1 and the eigenvalue -1 with
    multiplicity ``minus_one_multiplicity``.
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
        diag = np.zeros(cutoff_dim(self.cutoff))
        diag[2:-1:3] = _coin_matrix(self.params)[1, 1]
        return float(diag.sum())


def u_eigensystem(params: PqParams, cutoff: int) -> UEigensystem:
    """Spectrum of the cutoff walk through T_N.

    Eigenvalues of U_N are 1, the pairs e^{+-i theta_j} with
    cos(theta_j) an interior eigenvalue of T_N, and -1 with multiplicity
    N - 2 (r > 0) or N (r = 0).  The T_N eigenpair (lambda, Omega) maps
    to the U_N eigenvectors (omega - e^{+-i theta} S omega) /
    (sqrt(2) sin theta), omega = sum_n Omega[n] Psi_n, so the residual
    check of :func:`eigensystem_T` certifies the pairs without building
    them.  An interior eigenvalue that rounds to +-1, where sin theta = 0,
    raises ConvergenceFailureError.
    """
    N = cutoff
    vals, _ = eigensystem_T(build_T(params, N))
    # interior eigenvalues: drop lambda_0 = 1, and lambda_N = -1 when r = 0
    k_last = N if params.r > 0 else N - 1
    thetas = np.arccos(np.clip(vals[1:k_last + 1], -1.0, 1.0))
    if not np.all((thetas > 0) & (thetas < np.pi)):
        raise ConvergenceFailureError("an interior eigenvalue of T_N rounds to +-1")
    return UEigensystem(params, N, thetas, cutoff_dim(N) - 1 - 2 * len(thetas))

