"""Free Meixner laws and their orthogonal polynomials.

A free Meixner law here is the probability measure mu whose Jacobi
coefficients are constant after the first step:

    omega_1, omega, omega, ...     (off-diagonal squares)
    0, alpha, alpha, ...           (diagonal)

Its absolutely continuous part lives on [alpha - 2 sqrt(omega),
alpha + 2 sqrt(omega)] with density

    rho(x) = (omega_1 / 2 pi) * sqrt(4 omega - (x - alpha)^2) / D(x),
    D(x) = (omega - omega_1) x^2 + omega_1 alpha x + omega_1^2,

plus at most two atoms at the real roots of D outside that interval.

The reduced spidernet walk with parameters (p, q, r) produces the member
(omega_1, omega, alpha) = (q, pq, r), restricted to p >= q > 0, r >= 0.
In that regime the only possible atom sits at xi = -q / (1 - p) with mass

    w = max((1-p)^2 - pq, 0) / ((1-p) (1-p+q)),

and the spectral amplitudes of the walk are integrals of Chebyshev
polynomials against mu, which is what :func:`integrate` is tuned for: the
substitution x = alpha + 2 sqrt(omega) cos(phi) turns the density factor
into sin^2(phi) / D(x(phi)), which is even, 2 pi-periodic and analytic in
a strip around the real axis, so the midpoint rule in phi (the periodic
trapezoidal rule) converges geometrically; see Trefethen & Weideman,
SIAM Rev. 56 (2014) 385-458.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    InvalidParamsError,
    OutOfDomainError,
    OutOfSupportError,
    ParamsOutOfRangeError,
)
from .reduction import PqParams

__all__ = [
    "FreeMeixnerLaw",
    "law_from_pq",
    "density",
    "chebyshev_U",
    "orth_poly_recurrence",
    "orth_poly_closed_cheb",
    "orth_poly_closed_R",
    "normalized_sequence",
    "special_value",
    "MAX_QUADRATURE_NODES",
    "quadrature_nodes",
    "integrate",
]

# A cap on the midpoint nodes of one integral (8 MiB per float64 node
# array).  Laws whose pole of 1/D lies within ~2e-5 of the support in phi
# need more and are rejected before anything is allocated.
MAX_QUADRATURE_NODES = 1 << 20


@dataclass(frozen=True)
class FreeMeixnerLaw:
    """Free Meixner law with Jacobi data (omega1; omega constant tail) and
    diagonal (0; alpha constant tail), plus an optional single atom.

    ``atom_mass == 0`` means no atom; the walk laws built by
    :func:`law_from_pq` always record the candidate atom location, with
    zero mass in the non-localized regime.

    ``poles`` lists the roots of D that limit :func:`integrate`: a root
    exactly on a support edge is removable there and is left out.  None
    counts every root of D, real or complex.
    """

    omega1: float
    omega: float
    alpha: float
    atom_location: float | None = None
    atom_mass: float = 0.0
    poles: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not (self.omega1 > 0 and self.omega > 0):
            raise InvalidParamsError("omega1 and omega must be positive")
        if not 0.0 <= self.atom_mass <= 1.0:
            raise InvalidParamsError(f"atom mass must lie in [0, 1], got {self.atom_mass}")
        if self.atom_mass > 0 and self.atom_location is None:
            raise InvalidParamsError("an atom with positive mass needs a location")

    @property
    def support(self) -> tuple[float, float]:
        """Endpoints of the absolutely continuous part."""
        h = 2.0 * np.sqrt(self.omega)
        return (self.alpha - h, self.alpha + h)

    @property
    def has_atom(self) -> bool:
        return self.atom_mass > 0.0

    def denominator(self, x):
        """The polynomial D(x) dividing the density."""
        o1, om, al = self.omega1, self.omega, self.alpha
        return (om - o1) * x * x + o1 * al * x + o1 * o1


def law_from_pq(params: PqParams) -> FreeMeixnerLaw:
    """Spectral law of the reduced walk: (omega1, omega, alpha) = (q, pq, r).

    Only p >= q is admissible.  D(x) = -q (1-p) (x - 1) (x - xi) with
    xi = -q/(1-p), the atom candidate, of mass
    ((1-p)^2 - pq) / ((1-p)(1-p+q)) when the numerator is positive.  Its
    sign decides the atom and its zero puts xi on the support edge, as
    p = q puts 1 there.  Both are decided exactly: from the integer
    (b-c)^2 - c of :func:`~spiderwalk.classify` when (p, q) is
    (c/b, 1/b) in floating point, else from the binary values of p, q.
    """
    p, q, r = params.p, params.q, params.r
    if p < q:
        raise ParamsOutOfRangeError(f"needs p >= q, got p={p} < q={q}")
    b = round(1.0 / q) if q > 2.0 ** -53 else 0     # 1/q overflows for tiny q
    c = round(p * b)
    if b >= 2 and q == 1.0 / b and p == c / b:      # S(a, b, c) exactly
        numer = (b - c) ** 2 - c
    else:
        numer = (1 - Fraction(p)) ** 2 - Fraction(p) * Fraction(q)
    xi = -q / (1.0 - p)
    mass = 0.0
    if numer > 0:
        mass = max(((1.0 - p) ** 2 - p * q) / ((1.0 - p) * (1.0 - p + q)), 0.0)
    poles = tuple(x for x, on_edge in ((1.0, p == q), (xi, numer == 0)) if not on_edge)
    return FreeMeixnerLaw(q, p * q, r, xi, mass, poles)


def density(law: FreeMeixnerLaw, x):
    """Absolutely continuous density rho(x); scalar or array argument.

    Raises OutOfSupportError if any point lies outside the closed support
    (up to a 1e-12 slack for endpoint roundoff).
    """
    arr = np.asarray(x, dtype=float)
    lo, hi = law.support
    if np.any(arr < lo - 1e-12) or np.any(arr > hi + 1e-12):
        raise OutOfSupportError(f"point outside the support [{lo}, {hi}]")
    radicand = np.maximum(4.0 * law.omega - (arr - law.alpha) ** 2, 0.0)
    out = (law.omega1 / (2.0 * np.pi)) * np.sqrt(radicand) / law.denominator(arr)
    return out if out.ndim else float(out)


def chebyshev_U(n: int, x):
    """Chebyshev polynomial of the second kind, U_n(cos t) = sin((n+1)t)/sin t.

    Evaluated by the forward recurrence, which is stable on and off
    [-1, 1] for the moderate degrees used here.
    """
    if n < -1:
        raise OutOfDomainError("U_n is defined for n >= -1")
    arr = np.asarray(x, dtype=float)
    if n == -1:
        out = np.zeros_like(arr)
        return out if out.ndim else float(out)
    prev = np.zeros_like(arr)          # U_{-1}
    cur = np.ones_like(arr)            # U_0
    for _ in range(n):
        prev, cur = cur, 2.0 * arr * cur - prev
    return cur if cur.ndim else float(cur)


def _monic_sequence(law: FreeMeixnerLaw, nmax: int, x: np.ndarray) -> np.ndarray:
    """All monic orthogonal polynomials P_0..P_nmax at x, shape (nmax+1, len(x))."""
    out = np.empty((nmax + 1, len(x)))
    out[0] = 1.0
    if nmax >= 1:
        out[1] = x                      # first diagonal coefficient is 0
    for k in range(1, nmax):
        om = law.omega1 if k == 1 else law.omega
        out[k + 1] = (x - law.alpha) * out[k] - om * out[k - 1]
    return out


def orth_poly_recurrence(law: FreeMeixnerLaw, n: int, x):
    """Monic orthogonal polynomial P_n(x) by the three-term recurrence

        P_0 = 1,  P_1 = x,  x P_k = P_{k+1} + alpha P_k + omega_k P_{k-1},

    with omega_1 = omega1 and omega_k = omega afterwards."""
    if n < 0:
        raise OutOfDomainError("polynomial degree must be non-negative")
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    val = _monic_sequence(law, n, arr)[n]
    return val if np.ndim(x) else float(val[0])


def orth_poly_closed_cheb(law: FreeMeixnerLaw, n: int, x):
    """P_n(x) in closed Chebyshev form, valid for all real x:

        P_n = om^{n/2} W_n + alpha om^{(n-1)/2} W_{n-1}
              + (om - om1) om^{(n-2)/2} W_{n-2},   n >= 2,

    where W_k(y) = U_k((x - alpha) / (2 sqrt(om)))."""
    if n < 0:
        raise OutOfDomainError("polynomial degree must be non-negative")
    arr = np.asarray(x, dtype=float)
    if n == 0:
        out = np.ones_like(arr)
        return out if out.ndim else float(out)
    if n == 1:
        return arr if np.ndim(x) else float(arr)
    o1, om, al = law.omega1, law.omega, law.alpha
    y = (arr - al) / (2.0 * np.sqrt(om))
    out = (om ** (n / 2.0) * chebyshev_U(n, y)
           + al * om ** ((n - 1) / 2.0) * chebyshev_U(n - 1, y)
           + (om - o1) * om ** ((n - 2) / 2.0) * chebyshev_U(n - 2, y))
    return out if np.ndim(x) else float(out)


def orth_poly_closed_R(law: FreeMeixnerLaw, n: int, x):
    """P_n(x) in resolvent form, valid where (x - alpha)^2 > 4 omega:

        R_pm = (x - alpha) pm sqrt((x - alpha)^2 - 4 omega),
        P_n = ((x R_+ - 2 omega1) R_+^{n-1} - (x R_- - 2 omega1) R_-^{n-1})
              / (2^{n-1} (R_+ - R_-)).
    """
    if n < 0:
        raise OutOfDomainError("polynomial degree must be non-negative")
    arr = np.asarray(x, dtype=float)
    if n == 0:
        out = np.ones_like(arr)
        return out if out.ndim else float(out)
    disc = (arr - law.alpha) ** 2 - 4.0 * law.omega
    if np.any(disc <= 0):
        raise OutOfDomainError("resolvent form needs (x - alpha)^2 > 4 omega")
    root = np.sqrt(disc)
    rp = (arr - law.alpha) + root
    rm = (arr - law.alpha) - root
    out = ((arr * rp - 2.0 * law.omega1) * rp ** (n - 1)
           - (arr * rm - 2.0 * law.omega1) * rm ** (n - 1)) / (2.0 ** (n - 1) * (rp - rm))
    return out if np.ndim(x) else float(out)


def normalized_sequence(law: FreeMeixnerLaw, nmax: int, x: np.ndarray) -> np.ndarray:
    """p_0..p_nmax at x, shape (nmax+1, len(x)); used by the integrators."""
    monic = _monic_sequence(law, nmax, x)
    scales = np.ones(nmax + 1)
    if nmax >= 1:
        scales[1:] = np.sqrt(law.omega1 * law.omega ** (np.arange(1, nmax + 1) - 1.0))
    return monic / scales[:, None]


def special_value(params: PqParams, n: int) -> float:
    """Closed-form p_n at the atom location xi = -q/(1-p) of the walk law:

        p_n(xi) = (1/sqrt(p)) * (-sqrt(pq) / (1-p))^n,   n >= 1,

    valid in the atomic regime (1-p)^2 > pq."""
    if n < 0:
        raise OutOfDomainError("polynomial degree must be non-negative")
    if n == 0:
        return 1.0
    p, q = params.p, params.q
    if (1.0 - p) ** 2 - p * q <= 0:
        raise ParamsOutOfRangeError(
            "the closed form needs (1-p)^2 > pq (atomic regime)")
    return (1.0 / np.sqrt(p)) * (-np.sqrt(p * q) / (1.0 - p)) ** n


def quadrature_nodes(law: FreeMeixnerLaw, degree: int) -> int:
    """Midpoint nodes M that :func:`integrate` uses for a degree-``degree`` f.

    sin^2(phi) / D(x(phi)) is analytic for |Im phi| < a, where a pole x*
    of 1/D sits at phi = arccos((x* - alpha) / (2 sqrt(omega))), so its
    Fourier coefficients decay like e^{-aj}.  M nodes are exact up to
    trigonometric degree 2M - 1 and alias that tail at ~e^{-a(2M - degree)}:

        M = ceil((degree + 1) / 2) + 1 + ceil(18.5 / a)

    puts it near e^{-37} ~ 1e-16.  Raises ParamsOutOfRangeError, before
    anything is allocated, when M would exceed MAX_QUADRATURE_NODES.
    """
    if degree < 0:
        raise InvalidParamsError(f"degree must be non-negative, got {degree}")
    poles = law.poles
    if poles is None:
        poles = np.roots([law.omega - law.omega1, law.omega1 * law.alpha, law.omega1 ** 2])
    h = 2.0 * math.sqrt(law.omega)
    a = min((abs(cmath.acos((x - law.alpha) / h).imag) for x in poles), default=math.inf)
    base = (degree + 2) // 2 + 1
    if a == 0 or base + 18.5 / a > MAX_QUADRATURE_NODES:
        raise ParamsOutOfRangeError(
            f"integrating degree {degree} to roundoff needs more than "
            f"{MAX_QUADRATURE_NODES} quadrature nodes (pole strip {a:.3g})")
    return base + math.ceil(18.5 / a)


def integrate(law: FreeMeixnerLaw, f, degree: int) -> float:
    """Integral of f against the law (absolutely continuous part + atom).

    ``f`` must accept a float ndarray and return values elementwise, and
    be a polynomial of degree at most ``degree``.
    The continuous part is computed after substituting
    x = alpha + 2 sqrt(omega) cos(phi), by the midpoint rule
    phi_k = (k + 1/2) pi / M on [0, pi], with M from
    :func:`quadrature_nodes`; the nodes never touch the support edges.
    """
    nodes = quadrature_nodes(law, degree)
    phi = (np.arange(nodes) + 0.5) * (np.pi / nodes)
    x = law.alpha + 2.0 * np.sqrt(law.omega) * np.cos(phi)
    g = f(x) * np.sin(phi) ** 2 / law.denominator(x)
    total = (2.0 * law.omega1 * law.omega / nodes) * float(np.sum(g))
    if law.has_atom:
        total += law.atom_mass * float(np.asarray(f(np.array([law.atom_location])))[0])
    return total
