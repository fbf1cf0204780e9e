"""The spectral law of the reduced walk (p, q, r) and integrals against it.

The law mu is the free Meixner law with Jacobi coefficients q, pq, pq, ...
(off-diagonal squares) and 0, r, r, ... (diagonal).  On its band
x = r + 2 sqrt(pq) cos(phi), phi in [0, pi],

    dmu = (2 pq / pi) sin^2(phi) dphi / ((1 - x) (1 - p) (x - xi)),   xi = -q/(1-p),

and both factors are sums of non-negative terms in phi,

    1 - x           = (sqrt(p) - sqrt(q))^2 + 4 sqrt(pq) sin^2(phi / 2),
    (1 - p)(x - xi) = ((1 - p) - sqrt(pq))^2 + 4 sqrt(pq) (1 - p) cos^2(phi / 2),

with 1 - p taken as q + r, exact for trees: the weight keeps its digits
however narrow the band and however close 1 or xi come to it.  Outside the
band mu has at most one atom, at xi, of mass
w = ((1-p)^2 - pq) / ((1-p) (1-p+q)) when that is positive.  The
orthonormal polynomials are closed-form in phi,

    p_k(x) sin(phi) = (x / sqrt(q)) sin(k phi) - sin((k-1) phi) / sqrt(p),   k >= 1,

so an amplitude integrand costs O(nodes) memory for any strata.  In phi
every integrand is even, 2 pi-periodic and analytic in a strip around the
real axis, so the midpoint rule (the periodic trapezoidal rule) converges
geometrically; see Trefethen & Weideman, SIAM Rev. 56 (2014) 385-458.
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
    "special_value",
    "MAX_QUADRATURE_NODES",
    "quadrature_nodes",
    "integrate",
]

# A cap on the midpoint nodes of one integral (8 MiB per float64 node
# array).  Laws whose pole 1 or xi lies within ~2e-5 of the support in phi
# need more and are rejected before anything is allocated.
MAX_QUADRATURE_NODES = 1 << 20


@dataclass(frozen=True)
class FreeMeixnerLaw:
    """Spectral law of the reduced walk (p, q, r), as :func:`law_from_pq`
    builds it.

    ``atom_location`` is the atom candidate xi = -q / (1 - p), recorded with
    zero ``atom_mass`` in the non-localized regime.  ``poles`` lists the
    points 1 and xi that limit :func:`integrate`: one exactly on a support
    edge is removable there and is left out.
    """

    p: float
    q: float
    r: float
    atom_location: float
    atom_mass: float
    poles: tuple[float, ...]

    @property
    def has_atom(self) -> bool:
        return self.atom_mass > 0.0


def law_from_pq(params: PqParams) -> FreeMeixnerLaw:
    """Spectral law of the reduced walk (p, q, r).

    Only p >= q is admissible.  The density's denominator vanishes at 1 and
    at xi = -q/(1-p), the atom candidate, of mass
    ((1-p)^2 - pq) / ((1-p)(1-p+q)) when the numerator is positive.  Its
    sign decides the atom and its zero puts xi on the support edge, as
    p = q puts 1 there.  Both are decided, and the mass is rounded from
    its exact value, from (b, c) as :func:`~spiderwalk.classify` does when
    (p, q) is (c/b, 1/b) in floating point, else from the binary values of
    p, q.
    """
    p, q, r = params.p, params.q, params.r
    if p < q:
        raise ParamsOutOfRangeError(f"needs p >= q, got p={p} < q={q}")
    if not p < 1.0:
        raise ParamsOutOfRangeError(f"needs p < 1, got p={p}: 1 - p rounds to 0")
    b = round(1.0 / q) if q > 2.0 ** -53 else 0     # 1/q overflows for tiny q
    c = round(p * b)
    if b >= 2 and q == 1.0 / b and p == c / b:      # S(a, b, c) exactly
        one_minus_p, exact_q = Fraction(b - c, b), Fraction(1, b)
    else:
        one_minus_p, exact_q = 1 - Fraction(p), Fraction(q)
    numer = one_minus_p ** 2 - (1 - one_minus_p) * exact_q
    mass = float(numer / (one_minus_p * (one_minus_p + exact_q))) if numer > 0 else 0.0
    xi = -q / (1.0 - p)
    poles = tuple(x for x, on_edge in ((1.0, p == q), (xi, numer == 0)) if not on_edge)
    return FreeMeixnerLaw(p, q, r, xi, mass, poles)


def special_value(law: FreeMeixnerLaw, n: int) -> float:
    """Closed-form p_n at the atom xi, the minimal solution of the three-term
    recurrence there (Gautschi, SIAM Rev. 9 (1967) 24-82):

        p_n(xi) = (xi / sqrt(q)) * (xi sqrt(pq) / q)^(n-1),   n >= 1."""
    if n < 0:
        raise OutOfDomainError("polynomial degree must be non-negative")
    if n == 0:
        return 1.0
    if not law.has_atom:
        raise ParamsOutOfRangeError("the closed form needs an atom (atomic regime)")
    xi, q = law.atom_location, law.q
    return (xi / np.sqrt(q)) * (xi * np.sqrt(law.p * q) / q) ** (n - 1)


def quadrature_nodes(law: FreeMeixnerLaw, degree: int) -> int:
    """Midpoint nodes M that :func:`integrate` uses for a degree-``degree`` f.

    The weight is analytic for |Im phi| < a, where a pole x* of it sits at
    phi = arccos((x* - r) / (2 sqrt(pq))), so its Fourier coefficients
    decay like e^{-aj}.  M nodes are exact up to trigonometric degree
    2M - 1 and alias that tail at ~e^{-a(2M - degree)}:

        M = ceil((degree + 1) / 2) + 1 + ceil(18.5 / a)

    puts it near e^{-37} ~ 1e-16.  Raises ParamsOutOfRangeError, before
    anything is allocated, when M would exceed MAX_QUADRATURE_NODES.
    """
    if degree < 0:
        raise InvalidParamsError(f"degree must be non-negative, got {degree}")
    h = 2.0 * math.sqrt(law.p * law.q)
    a = min((abs(cmath.acos((x - law.r) / h).imag) for x in law.poles), default=math.inf)
    base = (degree + 2) // 2 + 1
    if a == 0 or base + 18.5 / a > MAX_QUADRATURE_NODES:
        raise ParamsOutOfRangeError(
            f"integrating degree {degree} to roundoff needs more than "
            f"{MAX_QUADRATURE_NODES} quadrature nodes (pole strip {a:.3g})")
    return base + math.ceil(18.5 / a)


def _band_rule(law: FreeMeixnerLaw, nodes: int):
    """The midpoint rule in the band angle: at phi_k = (k + 1/2) pi / M,
    returns x, 1 - x and the weights w, so that sum w f(x) is the integral
    of f against the continuous part of the law."""
    sin2_half = np.sin(np.arange(0.5, nodes) * (0.5 * np.pi / nodes)) ** 2
    cos2_half = sin2_half[::-1]             # phi_{M-1-k} = pi - phi_k
    p, q, r = law.p, law.q, law.r
    s = math.sqrt(p * q)
    one_minus_p = q + r                     # no cancellation for p near 1
    band = (4.0 * s) * sin2_half            # 2 sqrt(pq) (1 - cos(phi))
    one_minus_x = (math.sqrt(p) - math.sqrt(q)) ** 2 + band
    pole_xi = (one_minus_p - s) ** 2 + (4.0 * s * one_minus_p) * cos2_half   # (1-p)(x - xi)
    weight = sin2_half * cos2_half / (one_minus_x * pole_xi) * (8.0 * p * q / nodes)
    # x from r, not as 1 - (1 - x): r is exact for trees, where 1 - p - q is not
    return (r + 2.0 * s) - band, one_minus_x, weight


def integrate(law: FreeMeixnerLaw, f, degree: int) -> float:
    """Integral of f against the law (absolutely continuous part + atom).

    ``f`` must accept a float ndarray and return values elementwise, and
    be a polynomial of degree at most ``degree``.  The continuous part is
    the midpoint rule in phi with M from :func:`quadrature_nodes`; the
    nodes never touch the support edges.
    """
    x, _, weight = _band_rule(law, quadrature_nodes(law, degree))
    total = float((f(x) * weight).sum())
    if law.has_atom:
        total += law.atom_mass * float(np.asarray(f(np.array([law.atom_location])))[0])
    return total
