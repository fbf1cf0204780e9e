"""Route 3: the spectral law of the reduced walk (p, q, r), integrals and
amplitudes against it, and the localization its atom decides.

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

Every ladder-to-ladder amplitude of the reduced walk is such an integral,

    <Psi_l, U^n Psi_m> = integral of T_|n|(x) p_l(x) p_m(x) dmu(x),

with T the Chebyshev polynomial of the first kind (cos(n theta) under
x = cos theta).  The atom's term w p_l(xi) p_m(xi) cos(n arccos xi) does not
decay, while the band's does (Riemann-Lebesgue), so the atom decides
localization:

    w > 0  <=>  b > c + sqrt(c)   for S(a, b, c),

with time-averaged origin probability w^2 / 2 and exponentially decaying
stratum bounds below the time-averaged distribution.  :func:`classify`
decides it from the integers (b, c), and so does the law of
:func:`law_from_spidernet`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidParamsError, NotLocalizedError, OutOfDomainError, ParamsOutOfRangeError
from .graph import SpidernetParams
from .reduction import PqParams, params_from_spidernet

__all__ = [
    "law_from_pq",
    "law_from_spidernet",
    "MAX_QUADRATURE_NODES",
    "quadrature_nodes",
    "integrate",
    "amplitude",
    "asymptotic_amplitude",
    "classify",
    "exp_localization_bound",
    "random_walk_return",
]

# A cap on the midpoint nodes of one integral (8 MiB per float64 node
# array).  Laws whose pole 1 or xi lies within ~2e-5 of the support in phi
# need more and are rejected before anything is allocated.
MAX_QUADRATURE_NODES = 1 << 20


@dataclass(frozen=True)
class FreeMeixnerLaw:
    """Spectral law of the reduced walk (p, q, r), as :func:`law_from_pq`
    and :func:`law_from_spidernet` build it.

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

    Only q <= p < 1 is admissible.  The density's denominator vanishes at 1 and
    at xi = -q/(1-p), the atom candidate, of mass
    ((1-p)^2 - pq) / ((1-p)(1-p+q)) when the numerator is positive.  Its
    sign decides the atom and its zero puts xi on the support edge, as
    p = q puts 1 there.  Both are decided, and the mass is rounded from
    its exact value, from (b, c) as :func:`classify` does when (p, q) is
    (c/b, 1/b) in floating point, else from the binary values of p, q.
    From b ~ 2^50 on, (c/b, 1/b) can round to another (b, c) or to none:
    :func:`law_from_spidernet` takes (b, c) themselves.
    """
    p, q = params.p, params.q
    b = round(1.0 / q) if q > 2.0 ** -53 else 0     # 1/q overflows for tiny q
    c = round(p * b)
    if b >= 2 and q == 1.0 / b and p == c / b:      # S(a, b, c) exactly
        return _law(params, Fraction(b - c, b), Fraction(1, b))
    return _law(params, 1 - Fraction(p), Fraction(q))


def law_from_spidernet(sp: SpidernetParams) -> FreeMeixnerLaw:
    """Spectral law of the reduced walk of S(a, b, c), its atom decided and
    weighed from (b, c) exactly: ``has_atom`` and ``atom_mass`` are
    :func:`classify`'s ``localized`` and ``float(w)`` for every (b, c)."""
    return _law(params_from_spidernet(sp), Fraction(sp.b - sp.c, sp.b), Fraction(1, sp.b))


def _law(params: PqParams, one_minus_p: Fraction, exact_q: Fraction) -> FreeMeixnerLaw:
    """The law of the floats (p, q, r), with the atom decided and weighed
    from the exact 1 - p and q."""
    p, q, r = params.p, params.q, params.r
    if not q <= p < 1.0:                    # p = 1 leaves xi = -q / (1 - p) no value
        raise ParamsOutOfRangeError(f"needs q <= p < 1, got p={p}, q={q}")
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
    s, one_minus_p = math.sqrt(law.p * law.q), law.q + law.r
    # cosh(a) - 1 at each pole as a square over a positive term, not as
    # |x* - r| / 2s - 1: xi = -q / (1 - p) loses digits to 1 - p as p nears 1
    excess = {1.0: (math.sqrt(law.p) - math.sqrt(law.q)) ** 2 / (2.0 * s),
              law.atom_location: (one_minus_p - s) ** 2 / (2.0 * s * one_minus_p)}
    a = min((math.acosh(1.0 + excess[x]) for x in law.poles), default=math.inf)
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


def amplitude(law: FreeMeixnerLaw, l: int, m: int, n: int) -> float:
    """<Psi_l, U^n Psi_m> as the spectral integral of T_|n| p_l p_m, a
    polynomial of degree |n| + l + m.

    At each band node T_|n|(x) = cos(|n| theta), with theta = arccos(x) as
    arctan2(sqrt((1 - x)(1 + x)), x) from the phi form of 1 - x, which keeps
    its digits where the band nears x = 1.  p_k(x) comes from its closed
    form in phi, so memory is O(nodes) for any l and m.
    """
    if l < 0 or m < 0:
        raise InvalidParamsError("ladder indices must be non-negative")
    nodes = quadrature_nodes(law, abs(n) + l + m)
    x, one_minus_x, weight = _band_rule(law, nodes)

    def sin_multiple(j):
        # sin(j phi) at phi = (2i + 1) pi / 2M, the argument reduced mod 2 pi in integers
        return np.sin((j * np.arange(1, 2 * nodes, 2) % (4 * nodes)) * (0.5 * np.pi / nodes))

    def poly(k):
        if k < 2:
            return x / np.sqrt(law.q) if k else 1.0
        # p_k sin(phi) = (x / sqrt(q)) sin(k phi) - sin((k-1) phi) / sqrt(p)
        return ((x / np.sqrt(law.q)) * sin_multiple(k)
                - sin_multiple(k - 1) / np.sqrt(law.p)) / sin_multiple(1)

    theta = np.arctan2(np.sqrt(one_minus_x * (1.0 + x)), x)
    integrand = np.cos(abs(n) * theta) * weight
    if l or m:
        p_l = poly(l)
        integrand *= p_l * (p_l if m == l else poly(m))
    total = float(integrand.sum())
    if law.has_atom:
        atom = np.cos(abs(n) * np.arccos(law.atom_location))
        total += law.atom_mass * float(atom * special_value(law, l) * special_value(law, m))
    return total


def asymptotic_amplitude(law: FreeMeixnerLaw, l: int, n: int) -> float:
    """Non-decaying part of <Psi_l, U^n Psi_0>: w p_l(xi) cos(n theta~).

    Zero identically when the law has no atom (no localization); take the
    law of S(a, b, c) from :func:`law_from_spidernet`, whose atom is
    :func:`classify`'s for every (b, c).
    """
    if l < 0:
        raise InvalidParamsError("ladder index must be non-negative")
    if not law.has_atom:
        return 0.0
    theta = np.arccos(law.atom_location)
    return law.atom_mass * special_value(law, l) * float(np.cos(n * theta))


@dataclass(frozen=True)
class LocalizationReport:
    """Closed-form localization data of a spidernet.

    ``w`` is the atom mass of the spectral law, ``xi = cos(theta)`` the
    atom location, ``qbar_origin = w^2/2`` the Cesaro limit of the origin
    probability.  All three are exact rationals; ``theta`` is the float
    arc angle.  ``localized`` is True exactly when b > c + sqrt(c).
    """

    params: SpidernetParams
    localized: bool
    w: Fraction
    xi: Fraction
    theta: float
    qbar_origin: Fraction


def classify(sp: SpidernetParams) -> LocalizationReport:
    """Exact localization classification of S(a, b, c) from (b, c) alone."""
    b, c = sp.b, sp.c
    numer = (b - c) ** 2 - c
    localized = numer > 0                      # integer form of b > c + sqrt(c)
    w = Fraction(numer, (b - c) * (b - c + 1)) if localized else Fraction(0)
    xi = Fraction(-1, b - c)
    return LocalizationReport(
        params=sp,
        localized=localized,
        w=w,
        xi=xi,
        theta=float(np.arccos(float(xi))),
        qbar_origin=w * w / 2,
    )


def exp_localization_bound(sp: SpidernetParams, l: int) -> tuple[float, float]:
    """Exponential lower bounds for the time-averaged distribution.

    Returns (stratum_bound, vertex_bound) for stratum V_l, l >= 1:

        liminf (1/N) sum P(X_n in V_l)  >=  (b/2c) w^2 (c/(b-c)^2)^l
        liminf (1/N) sum P(X_n = u)     >=  (b/2a) w^2 (1/(b-c)^2)^l

    (the vertex form uses rotational symmetry, P(X_n = u) constant on
    strata).  Only meaningful in the localized regime; raises
    NotLocalizedError when b <= c + sqrt(c).
    """
    if l < 1:
        raise InvalidParamsError("the bounds apply to strata l >= 1")
    a, b, c = sp.a, sp.b, sp.c
    rep = classify(sp)
    if not rep.localized:
        raise NotLocalizedError(f"S({a},{b},{c}) does not localize (b <= c + sqrt(c))")
    base = rep.w * rep.w
    stratum = Fraction(b, 2 * c) * base * Fraction(c, (b - c) ** 2) ** l
    vertex = Fraction(b, 2 * a) * base * Fraction(1, (b - c) ** 2) ** l
    return float(stratum), float(vertex)


def random_walk_return(law: FreeMeixnerLaw, n: int) -> float:
    """n-step return probability of the isotropic random walk: the n-th
    moment of the spectral law."""
    if n < 0:
        raise InvalidParamsError("n must be non-negative")
    return integrate(law, lambda x: x ** n, n)
