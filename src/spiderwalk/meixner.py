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
every integrand is even and 2 pi-periodic, a polynomial in cos(phi) plus a
simple pole at x = 1 and one at xi, so the midpoint rule (the periodic
trapezoidal rule) with floor(degree / 2) + 2 nodes is exact with two pole
nodes, at 1 and at xi, whose weights are closed-form; see Trefethen &
Weideman, SIAM Rev. 56 (2014) 385-458.  A rule exact for one degree is
exact for every lower one, so one rule of the top degree serves a whole
series: :func:`amplitude_series` and :func:`random_walk_return_series`
build it once and sum all n = 0 .. nmax over it in BLAS products.

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

from .errors import ParamsOutOfRangeError, checked_int
from .graph import SpidernetParams
from .reduction import PqParams, params_from_spidernet

__all__ = [
    "law_from_pq",
    "law_from_spidernet",
    "MAX_QUADRATURE_NODES",
    "quadrature_nodes",
    "amplitude_series",
    "classify",
    "random_walk_return_series",
]

# A cap on the midpoint nodes of one integral (8 MiB per float64 node
# array): with M = floor(degree / 2) + 2 it caps the degree at 2^21 - 3
# for every law, rejected before anything is allocated.
MAX_QUADRATURE_NODES = 1 << 20
# The rows B of a block of a series, n = s .. s + B - 1: its (B x M) tables
# of cos(j theta), sin(j theta) or x^j are capped at _BLOCK_CELLS (8 MiB),
# so that a series takes O(M) memory at every degree.
_BLOCK = 64
_BLOCK_CELLS = 1 << 20


@dataclass(frozen=True)
class FreeMeixnerLaw:
    """Spectral law of the reduced walk (p, q, r), as :func:`law_from_pq`
    and :func:`law_from_spidernet` build it.

    ``atom_location`` is the atom candidate xi = -q / (1 - p), recorded with
    zero ``atom_mass`` in the non-localized regime.
    """

    p: float
    q: float
    r: float
    atom_location: float
    atom_mass: float

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
    from the exact 1 - p and q, and xi = -q / (q + r), which is -1 exactly
    for trees."""
    p, q, r = params.p, params.q, params.r
    if not q <= p < 1.0:                    # p = 1 leaves xi = -q / (1 - p) no value
        raise ParamsOutOfRangeError(f"needs q <= p < 1, got p={p}, q={q}")
    # sqrt(pq) is then 0, else at least 2.2e-162, a normal float
    if not p * q > 0.0:
        raise ParamsOutOfRangeError(f"pq underflows: the band of p={p}, q={q} has no width")
    numer = one_minus_p ** 2 - (1 - one_minus_p) * exact_q
    mass = float(numer / (one_minus_p * (one_minus_p + exact_q))) if numer > 0 else 0.0
    return FreeMeixnerLaw(p, q, r, -q / (q + r), mass)


def quadrature_nodes(degree: int) -> int:
    """Midpoint nodes M = floor(degree / 2) + 2 that :func:`amplitude_series`
    and :func:`random_walk_return_series` use for degree ``degree``,
    2M > degree + 2, for every law (see :func:`_rule`).  Raises
    ParamsOutOfRangeError, before anything is allocated, when M would
    exceed MAX_QUADRATURE_NODES.
    """
    degree = checked_int("degree", degree, 0)
    if degree // 2 + 2 > MAX_QUADRATURE_NODES:
        raise ParamsOutOfRangeError(
            f"degree {degree} needs more than {MAX_QUADRATURE_NODES} quadrature nodes")
    return degree // 2 + 2


def _rule(law: FreeMeixnerLaw, nodes: int):
    """The midpoint rule in the band angle plus its two pole nodes.

    At phi_k = (k + 1/2) pi / M it returns x, 1 - x and the weights w_k,
    then (a, G) at x = 1 and at xi, so that for f of degree below 2M

        integral of f dmu = sum_k w_k f(x_k) + g_1 f(1) + (g_xi + w) f(xi),   g = G e^{-2 M a}.

    In u = cos(phi) the weight is a polynomial plus one simple pole at
    u = cosh(a) (x = 1) and one at u = -cosh(a) (x = xi), whose cosine
    coefficients fall like e^{-j a}.  The rule aliases them onto f at the
    pole times -2 t / (1 + t), t = e^{-2 M a}, so that

        G = -2 sqrt(pq) sinh(a) / ((1 - p + q) (1 + t)).

    cosh(a) - 1 at each pole is a square over a positive term, the gap the
    weight's factor keeps there: where the pole is removable on a support
    edge, it and G are 0, exactly for p = q and within the rounding of
    (p, q, r) at the threshold.
    """
    sin2_half = np.sin(np.arange(0.5, nodes) * (0.5 * np.pi / nodes)) ** 2
    cos2_half = sin2_half[::-1]             # phi_{M-1-k} = pi - phi_k
    p, q, r = law.p, law.q, law.r
    s = math.sqrt(p * q)
    one_minus_p = q + r                     # no cancellation for p near 1
    gap_1, gap_xi = (math.sqrt(p) - math.sqrt(q)) ** 2, (one_minus_p - s) ** 2
    band = (4.0 * s) * sin2_half            # 2 sqrt(pq) (1 - cos(phi))
    one_minus_x = gap_1 + band
    pole_xi = gap_xi + (4.0 * s * one_minus_p) * cos2_half     # (1-p)(x - xi)
    weight = sin2_half * cos2_half / (one_minus_x * pole_xi) * (8.0 * p * q / nodes)
    poles = []
    for excess in (gap_1 / (2.0 * s), gap_xi / (2.0 * s * one_minus_p)):
        sinh = math.sqrt(excess) * math.sqrt(excess + 2.0)
        a = math.log1p(excess + sinh)           # acosh(1 + excess), with its digits near 0
        poles.append((a, -2.0 * s * sinh / ((one_minus_p + q) * (1.0 + math.exp(-2 * nodes * a)))))
    # x from r, not as 1 - (1 - x): r is exact for trees, where 1 - p - q is not
    return (r + 2.0 * s) - band, one_minus_x, weight, poles


def _blocks(nmax: int, nodes: int):
    """The offsets j = 0 .. B' - 1 and the starts s of the blocks n = s + j
    that cover 0 .. nmax, with B' = min(_BLOCK, _BLOCK_CELLS // nodes), at
    least 1, so that a (B' x nodes) table stays within _BLOCK_CELLS."""
    rows = max(1, min(_BLOCK, _BLOCK_CELLS // nodes, nmax + 1))
    return np.arange(rows), range(0, nmax + 1, rows)


def amplitude_series(law: FreeMeixnerLaw, nmax: int, l: int = 0, m: int = 0) -> np.ndarray:
    """<Psi_l, U^n Psi_m> for n = 0 .. nmax, each the spectral integral of
    T_n p_l p_m, a polynomial of degree at most nmax + l + m, by the one rule
    of that top degree, which integrates every lower n exactly too.

    At each band node T_n(x) = cos(n theta), with theta = arccos(x) as
    arctan2(sqrt((1 - x)(1 + x)), x) from the phi form of 1 - x, which keeps
    its digits where the band nears x = 1.  With f = w p_l p_m at the nodes,
    the band sums of a block n = s + j, j < B, are two (B x M) products,

        sum_k f_k cos((s + j) theta_k) = sum_k cos(j theta_k) (f_k cos(s theta_k))
                                         - sum_k sin(j theta_k) (f_k sin(s theta_k)),

    against fixed tables of cos(j theta) and sin(j theta), with cos(s theta)
    and sin(s theta) taken directly at each block, so that no rounding
    builds up from block to block.  p_k(x) comes from its closed form in
    phi, so memory is O(nodes) for any l and m.  At the pole nodes p_k is
    closed-form too, for k >= 1,

        p_k(1) = e^{(k-1) a_1} / sqrt(q),   p_k(xi) = (xi / sqrt(q)) (-1)^(k-1) e^{-+(k-1) a_xi},

    with the minus sign under an atom, where p_k(xi) is the recurrence's
    minimal solution (Gautschi, SIAM Rev. 9 (1967) 24-82), and each pole
    term is one exponential of an integer times a, which neither
    overflows nor cancels however far l, m and n reach.
    """
    l, m, nmax = checked_int("l", l, 0), checked_int("m", m, 0), checked_int("nmax", nmax, 0)
    nodes = quadrature_nodes(nmax + l + m)
    x, one_minus_x, weight, ((a_1, g_1), (a_xi, g_xi)) = _rule(law, nodes)

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
    # f = w p_l p_m one factor at a time: p_l p_m alone overflows where q is subnormal
    f = weight
    p_l = poly(l)
    f *= p_l
    f *= p_l if m == l else poly(m)
    j, starts = _blocks(nmax, nodes)
    cos_j = np.multiply.outer(j, theta)
    sin_j = np.sin(cos_j)
    np.cos(cos_j, out=cos_j)
    band = np.empty(nmax + 1)
    for s in starts:
        rows = min(len(j), nmax + 1 - s)
        band[s:s + rows] = (cos_j[:rows] @ (f * np.cos(s * theta))
                            - sin_j[:rows] @ (f * np.sin(s * theta)))
    h, xi = max(l - 1, 0) + max(m - 1, 0), law.atom_location
    at_1 = g_1 * math.exp((h - 2 * nodes) * a_1)
    at_xi = ((g_xi * math.exp(((-h if law.has_atom else h) - 2 * nodes) * a_xi)
              + law.atom_mass * math.exp(-h * a_xi))
             * (-1) ** h * xi ** ((l > 0) + (m > 0)))
    # 1 / sqrt(q) once per index k >= 1: 1 / q itself can overflow
    c_l, c_m = (1.0 / math.sqrt(law.q) if k else 1.0 for k in (l, m))
    return band + (at_1 + at_xi * np.cos(np.arange(nmax + 1) * math.acos(xi))) * c_l * c_m


@dataclass(frozen=True)
class LocalizationReport:
    """Closed-form localization data of a spidernet.

    ``w`` is the atom mass of the spectral law, ``xi = cos(theta)`` the
    atom location, ``qbar_origin = w^2/2`` the Cesaro limit of the origin
    probability.  All three are exact rationals; ``theta`` is the float
    arc angle.  ``localized`` is True exactly when b > c + sqrt(c).
    """

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
        localized=localized,
        w=w,
        xi=xi,
        theta=float(np.arccos(float(xi))),
        qbar_origin=w * w / 2,
    )


def random_walk_return_series(law: FreeMeixnerLaw, nmax: int) -> np.ndarray:
    """n-step return probabilities of the isotropic random walk, n = 0 ..
    nmax: the moments of the spectral law, x^n summed over the nodes of the
    one :func:`_rule` of degree nmax, the atom's mass added to the weight of
    the pole node at xi.  As in :func:`amplitude_series`, a block n = s + j,
    j < B, is one (B x M) product of a fixed table of x^j with w x^s."""
    nmax = checked_int("nmax", nmax, 0)
    nodes = quadrature_nodes(nmax)
    x, _, weight, ((a_1, g_1), (a_xi, g_xi)) = _rule(law, nodes)
    j, starts = _blocks(nmax, nodes)
    x_j = x ** j[:, None]
    band = np.empty(nmax + 1)
    for s in starts:
        rows = min(len(j), nmax + 1 - s)
        band[s:s + rows] = x_j[:rows] @ (weight * x ** s)
    return (band + g_1 * math.exp(-2 * nodes * a_1)
            + (g_xi * math.exp(-2 * nodes * a_xi) + law.atom_mass)
            * law.atom_location ** np.arange(nmax + 1))
