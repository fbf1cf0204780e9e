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

from .errors import InvalidParamsError, OutOfDomainError, ParamsOutOfRangeError
from .reduction import PqParams

__all__ = [
    "FreeMeixnerLaw",
    "law_from_pq",
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
    if not p < 1.0:
        raise ParamsOutOfRangeError(f"needs p < 1, got p={p}: 1 - p rounds to 0")
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


def normalized_sequence(law: FreeMeixnerLaw, nmax: int, x: np.ndarray) -> np.ndarray:
    """p_0..p_nmax at x, shape (nmax+1, len(x)); used by the integrators.

    The monic P_k follow P_0 = 1, P_1 = x and
    P_{k+1} = (x - alpha) P_k - omega_k P_{k-1}, with omega_1 = omega1 and
    omega_k = omega afterwards; p_k = P_k / sqrt(omega1 omega^{k-1}).
    """
    monic = np.empty((nmax + 1, len(x)))
    monic[0] = 1.0
    if nmax >= 1:
        monic[1] = x                    # first diagonal coefficient is 0
    for k in range(1, nmax):
        om = law.omega1 if k == 1 else law.omega
        monic[k + 1] = (x - law.alpha) * monic[k] - om * monic[k - 1]
    scales = np.ones(nmax + 1)
    if nmax >= 1:
        scales[1:] = np.sqrt(law.omega1 * law.omega ** (np.arange(1, nmax + 1) - 1.0))
    return monic / scales[:, None]


def special_value(law: FreeMeixnerLaw, n: int) -> float:
    """Closed-form p_n at the atom xi, the minimal solution of the three-term
    recurrence there (Gautschi, SIAM Rev. 9 (1967) 24-82):

        p_n(xi) = (xi / sqrt(omega1)) * (xi sqrt(omega) / omega1)^(n-1),   n >= 1."""
    if n < 0:
        raise OutOfDomainError("polynomial degree must be non-negative")
    if n == 0:
        return 1.0
    if not law.has_atom:
        raise ParamsOutOfRangeError("the closed form needs an atom (atomic regime)")
    xi = law.atom_location
    return (xi / np.sqrt(law.omega1)) * (xi * np.sqrt(law.omega) / law.omega1) ** (n - 1)


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
