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

The module provides the reduced state/evolution, the isometric embedding
back into a concrete graph, the finite-path cutoff walk together with its
tridiagonal matrix ``T_N`` (the walk restricted-projected onto the ladder
vectors Psi_n), its eigensystem, and the induced discrete spectral
measure.
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
    "reduced_coin",
    "reduced_shift",
    "reduced_step",
    "reduced_evolve",
    "ReducedEvolver",
    "inner",
    "origin_probability",
    "stratum_probability",
    "stratum_state",
    "embed",
    "JacobiMatrixT",
    "build_T",
    "eigensystem_T",
    "cutoff_dim",
    "cutoff_index",
    "cutoff_psi_vector",
    "cutoff_walk_matrix",
    "UEigensystem",
    "u_eigensystem",
    "discrete_spectral_measure",
]

_TOL = 1e-14


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
        if r < -_TOL:
            raise ParamsOutOfRangeError(f"r must be non-negative, got r={r}")
        if abs(p + q + r - 1.0) > _TOL:
            raise ParamsOutOfRangeError(f"p + q + r must equal 1, got {p + q + r}")
        if abs(r) <= _TOL:
            object.__setattr__(self, "r", 0.0)

    @classmethod
    def from_pq(cls, p: float, q: float) -> "PqParams":
        return cls(p, q, 1.0 - p - q)


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

    def copy(self) -> "ReducedState":
        return ReducedState(self.xp.copy(), self.xo.copy(), self.xm.copy())

    def norm(self) -> float:
        return float(np.sqrt(
            (np.abs(self.xp) ** 2 + np.abs(self.xo) ** 2 + np.abs(self.xm) ** 2).sum()))

    def coefficients(self, length: int | None = None) -> np.ndarray:
        """Stacked (3, length+1) coefficient array, zero-padded on the right."""
        L = self.length if length is None else length
        out = np.zeros((3, L + 1), dtype=np.complex128)
        k = min(L, self.length) + 1
        out[0, :k] = self.xp[:k]
        out[1, :k] = self.xo[:k]
        out[2, :k] = self.xm[:k]
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ReducedState(length={self.length}, norm={self.norm():.6f})"


def _coin_matrix(params: PqParams) -> np.ndarray:
    p, q, r = params.p, params.q, params.r
    v = np.array([np.sqrt(p), np.sqrt(r), np.sqrt(q)])
    return 2.0 * np.outer(v, v) - np.eye(3)


def reduced_coin(params: PqParams, state: ReducedState) -> ReducedState:
    """Coin: fixes the slot-0 coefficient, reflects each triple n >= 1
    through the unit vector (sqrt(p), sqrt(r), sqrt(q))."""
    m = _coin_matrix(params)
    trip = state.coefficients()
    out = m @ trip
    out[0, 0] = trip[0, 0]
    out[1, 0] = 0.0
    out[2, 0] = 0.0
    return ReducedState(out[0], out[1], out[2])


def reduced_shift(params: PqParams, state: ReducedState) -> ReducedState:
    """Shift: psi_n^+ -> psi_{n+1}^-, psi_n^- -> psi_{n-1}^+, psi_n^o fixed.

    An involution; the returned state has one more slot to make room.
    """
    L = state.length
    xp = np.zeros(L + 2, dtype=np.complex128)
    xo = np.zeros(L + 2, dtype=np.complex128)
    xm = np.zeros(L + 2, dtype=np.complex128)
    xm[1:L + 2] = state.xp
    xp[0:L] = state.xm[1:L + 1]
    xo[1:L + 1] = state.xo[1:L + 1]
    return ReducedState(xp, xo, xm)


def reduced_step(params: PqParams, state: ReducedState) -> ReducedState:
    """One step of the reduced walk, shift after coin."""
    return reduced_shift(params, reduced_coin(params, state))


def reduced_evolve(params: PqParams, state: ReducedState, steps: int) -> ReducedState:
    """Apply ``steps`` reduced steps (amortized in-place; O(steps^2) work total)."""
    ev = ReducedEvolver(params, state, steps)
    for _ in range(steps):
        ev.step()
    return ev.state()


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

    def stratum_probability(self, stratum: int) -> float:
        if stratum < 0:
            raise InvalidParamsError(f"stratum must be non-negative, got {stratum}")
        if self.reach is not None and stratum > self.reach:
            raise RadiusTooSmallError(
                f"stratum {stratum} lies beyond the evolver's reach {self.reach}")
        if stratum > self.active:
            return 0.0
        return float(np.abs(self.xp[stratum]) ** 2 + np.abs(self.xo[stratum]) ** 2
                     + np.abs(self.xm[stratum]) ** 2)

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


def origin_probability(state: ReducedState) -> float:
    """Probability of finding the walker at the root, |xp[0]|^2."""
    return float(np.abs(state.xp[0]) ** 2)


def stratum_probability(state: ReducedState, stratum: int) -> float:
    """Probability of finding the walker in stratum ``stratum``."""
    if stratum < 0:
        raise ValueError("stratum must be non-negative")
    if stratum > state.length:
        return 0.0
    return float(np.abs(state.xp[stratum]) ** 2 + np.abs(state.xo[stratum]) ** 2
                 + np.abs(state.xm[stratum]) ** 2)


def stratum_state(params: PqParams, stratum: int) -> ReducedState:
    """The unit ladder vector Psi_n: psi_0^+ for n = 0, otherwise
    sqrt(p) psi_n^+ + sqrt(r) psi_n^o + sqrt(q) psi_n^-."""
    if stratum < 0:
        raise ValueError("stratum must be non-negative")
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
    two evolutions: embed(reduced_step(s)) == step(embed(s)).
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

    def dense(self) -> np.ndarray:
        t = np.diag(self.diag)
        n = self.cutoff
        idx = np.arange(n)
        t[idx, idx + 1] = self.offdiag
        t[idx + 1, idx] = self.offdiag
        return t


def build_T(params: PqParams, cutoff: int) -> JacobiMatrixT:
    """Tridiagonal matrix T_N for the given (p, q, r); cutoff N >= 2."""
    if cutoff < 2:
        raise InvalidParamsError(f"cutoff must be >= 2, got {cutoff}")
    p, q, r = params.p, params.q, params.r
    diag = np.r_[0.0, np.full(cutoff - 1, r), 0.0]
    offdiag = np.r_[np.sqrt(q), np.full(cutoff - 2, np.sqrt(p * q)), np.sqrt(p)]
    return JacobiMatrixT(cutoff, diag, offdiag)


def eigensystem_T(t: JacobiMatrixT, tol: float = 1e-12):
    """Eigenvalues (descending) and orthonormal eigenvectors of T_N.

    Uses a symmetric-tridiagonal solver; columns of the returned matrix
    are sign-fixed so their first non-negligible component is positive
    (the component along Psi_0 is positive for every true eigenvector).
    Verifies that the top eigenvalue is 1 and that all eigenvalues are
    simple, raising ConvergenceFailureError otherwise.
    """
    try:
        vals, vecs = scipy.linalg.eigh_tridiagonal(t.diag, t.offdiag)
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:  # pragma: no cover
        raise ConvergenceFailureError(f"tridiagonal eigensolver failed: {exc}") from exc
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    if abs(vals[0] - 1.0) > max(tol, 1e-10):
        raise ConvergenceFailureError(f"top eigenvalue {vals[0]} is not 1")
    if np.any(np.diff(vals) >= 0):
        raise ConvergenceFailureError("eigenvalues of T_N must be simple")
    # sign convention: first significant component positive
    for k in range(vecs.shape[1]):
        col = vecs[:, k]
        lead = col[np.argmax(np.abs(col) > 1e-8 * np.abs(col).max())]
        if lead < 0:
            vecs[:, k] = -col
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
        raise ValueError(f"kind must be '+', 'o' or '-', got {kind!r}")
    if n == 0 and kind == "+":
        return 0
    if 1 <= n <= N - 1:
        return 3 * n - 2 + ("+", "o", "-").index(kind)
    if n == N and kind == "-":
        return 3 * N - 2
    raise ValueError(f"psi_{n}^{kind} does not exist in H({N})")


def cutoff_psi_vector(params: PqParams, cutoff: int, n: int) -> np.ndarray:
    """The ladder vector Psi_n of H(N) in cutoff coordinates."""
    N = cutoff
    if not 0 <= n <= N:
        raise ValueError(f"Psi_{n} does not exist in H({N})")
    vec = np.zeros(cutoff_dim(N))
    if n == 0:
        vec[0] = 1.0
    elif n == N:
        vec[cutoff_index(N, "-", N)] = 1.0
    else:
        vec[cutoff_index(n, "+", N)] = np.sqrt(params.p)
        vec[cutoff_index(n, "o", N)] = np.sqrt(params.r)
        vec[cutoff_index(n, "-", N)] = np.sqrt(params.q)
    return vec


def cutoff_walk_matrix(params: PqParams, cutoff: int) -> np.ndarray:
    """Dense matrix of the cutoff walk U_N = S_N C_N on H(N).

    The coin acts as the identity on psi_0^+ and on the flagged last slot
    psi_N^-, and as the usual triple reflection in between; the shift
    swaps psi_n^+ with psi_{n+1}^-.  U_N is real orthogonal with trace
    (2r - 1)(N - 1).
    """
    N = cutoff
    if N < 2:
        raise InvalidParamsError(f"cutoff must be >= 2, got {N}")
    dim = cutoff_dim(N)
    coin = np.eye(dim)
    m3 = _coin_matrix(params)
    for n in range(1, N):
        i = cutoff_index(n, "+", N)
        coin[i:i + 3, i:i + 3] = m3
    perm = np.arange(dim)
    for n in range(N):
        i = cutoff_index(n, "+", N)
        j = cutoff_index(n + 1, "-", N)
        perm[i], perm[j] = j, i
    return coin[perm]  # row permutation of C = S @ C


@dataclass
class UEigensystem:
    """Spectral data of the cutoff walk U_N.

    ``thetas`` are the arc angles of the conjugate eigenvalue pairs
    e^{+-i theta_j}, ascending, strictly inside (0, pi); ``lambdas`` and
    ``omega_psi`` are the eigenvalues/eigenvectors of T_N (coefficients
    on the Psi basis); ``plus_vectors``/``minus_vectors`` hold the
    corresponding unit eigenvectors of U_N in cutoff coordinates, and
    ``ground_vector`` the eigenvector for eigenvalue 1.  The remaining
    spectrum is the eigenvalue -1 with multiplicity
    ``minus_one_multiplicity``.
    """

    params: PqParams
    cutoff: int
    lambdas: np.ndarray
    omega_psi: np.ndarray
    thetas: np.ndarray
    plus_vectors: np.ndarray
    minus_vectors: np.ndarray
    ground_vector: np.ndarray
    minus_one_multiplicity: int

    @property
    def dim(self) -> int:
        return cutoff_dim(self.cutoff)


def u_eigensystem(params: PqParams, cutoff: int, tol: float = 1e-10) -> UEigensystem:
    """Diagonalize the cutoff walk through T_N.

    Eigenvalues of U_N are 1, the pairs e^{+-i theta_j} with
    cos(theta_j) an interior eigenvalue of T_N, and -1 with multiplicity
    N - 2 (r > 0) or N (r = 0).  Each claimed eigenvector is verified by
    applying U_N and checking the residual against ``tol``.
    """
    N = cutoff
    vals, vecs = eigensystem_T(build_T(params, N))
    # interior eigenvalues: drop lambda_0 = 1, and lambda_N = -1 when r = 0
    k_last = N if params.r > 0 else N - 1
    lam = vals[1:k_last + 1]
    thetas = np.arccos(np.clip(lam, -1.0, 1.0))

    u = cutoff_walk_matrix(params, N)
    dim = cutoff_dim(N)
    psi = np.column_stack([cutoff_psi_vector(params, N, n) for n in range(N + 1)])
    emb = psi @ vecs                         # T eigenvectors in cutoff coordinates
    shift = np.arange(dim)
    for n in range(N):
        i = cutoff_index(n, "+", N)
        j = cutoff_index(n + 1, "-", N)
        shift[i], shift[j] = j, i

    ground = emb[:, 0] / np.linalg.norm(emb[:, 0])
    if np.linalg.norm(u @ ground - ground) > tol:
        raise ConvergenceFailureError("eigenvector for eigenvalue 1 failed the residual check")

    omega = emb[:, 1:k_last + 1]
    s_omega = omega[shift]
    phases = np.exp(1j * thetas)
    denom = np.sqrt(2.0) * np.sin(thetas)
    plus = (omega - phases * s_omega) / denom
    minus = (omega - np.conj(phases) * s_omega) / denom
    for sign, mat, ph in (("+", plus, phases), ("-", minus, np.conj(phases))):
        resid = np.linalg.norm(u @ mat - ph * mat, axis=0)
        if np.any(resid > tol):
            raise ConvergenceFailureError(
                f"eigenpair residual {resid.max():.2e} exceeds {tol} for e^({sign}i theta)")

    mult = dim - 1 - 2 * len(thetas)
    return UEigensystem(params, N, vals, vecs, thetas, plus, minus, ground, mult)


def discrete_spectral_measure(params: PqParams, cutoff: int):
    """Finite spectral measure of T_N at Psi_0.

    Returns (lambdas, weights): atoms at the eigenvalues of T_N
    (descending) weighted by the squared first eigenvector components.
    Weights are positive and sum to 1, and its m-th moments agree with the
    free Meixner law of (p, q, r) for every m < N.
    """
    vals, vecs = eigensystem_T(build_T(params, cutoff))
    weights = vecs[0, :] ** 2
    return vals, weights
