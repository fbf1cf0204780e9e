"""Transition amplitudes, localization classification, and Cesaro limits.

The spectral form of the reduced walk gives every ladder-to-ladder
amplitude as an integral against the free Meixner law mu of (p, q, r):

    <Psi_l, U^n Psi_m> = integral of T_|n|(x) p_l(x) p_m(x) dmu(x),

with T the Chebyshev polynomial of the first kind (cos(n theta) under
x = cos theta) and p_k the orthonormal polynomials of mu.  When mu has an
atom at xi of mass w, the integral splits into a non-decaying oscillation
w p_l(xi) p_m(xi) cos(n arccos xi) plus a Riemann-Lebesgue term from the
density (:func:`amplitude` takes p_l(xi) p_m(xi) in closed form: the forward
recurrence is unstable off the band).  The atom therefore decides localization:

    w > 0  <=>  b > c + sqrt(c)   for S(a, b, c),

with time-averaged origin probability w^2 / 2 and exponentially decaying
stratum bounds below the time-averaged distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidParamsError, NotLocalizedError
from .graph import SpidernetParams
from .meixner import (
    FreeMeixnerLaw,
    _band_rule,
    integrate,
    law_from_pq,
    quadrature_nodes,
    special_value,
)
from .reduction import PqParams, ReducedEvolver, ReducedState

__all__ = [
    "amplitude",
    "asymptotic_amplitude",
    "classify",
    "cesaro_origin",
    "cesaro_strata",
    "exp_localization_bound",
    "random_walk_return",
    "origin_amplitude_series",
]


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


def asymptotic_amplitude(params: PqParams, l: int, n: int) -> float:
    """Non-decaying part of <Psi_l, U^n Psi_0>: w p_l(xi) cos(n theta~).

    Zero identically when the law has no atom (no localization).
    """
    if l < 0:
        raise InvalidParamsError("ladder index must be non-negative")
    law = law_from_pq(params)
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


# Stratum probabilities per bulk read of cesaro_strata, so that its memory
# does not grow with the horizon.
_BLOCK_CELLS = 1 << 16


def cesaro_origin(params: PqParams, horizon: int) -> float:
    """Time-averaged origin probability (1/N) sum_{n<N} |<Psi_0, U^n Psi_0>|^2."""
    return float(cesaro_strata(params, horizon, 0)[0])


def cesaro_strata(params: PqParams, horizon: int, max_stratum: int) -> np.ndarray:
    """Time-averaged stratum probabilities of the reduced walk.

    Entry l is (1/N) sum_{n<N} P(X_n in V_l) for l = 0 .. max_stratum,
    horizon N, starting from the isotropic root state.
    """
    if horizon < 1:
        raise InvalidParamsError(f"horizon must be >= 1, got {horizon}")
    if max_stratum < 0:
        raise InvalidParamsError(f"max_stratum must be non-negative, got {max_stratum}")
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


def origin_amplitude_series(params: PqParams, nmax: int) -> np.ndarray:
    """<Psi_0, U^n Psi_0> for n = 0 .. nmax from the reduced evolution.

    One pass of the evolver; real values (the walk matrix is real and the
    initial state is real).
    """
    if nmax < 0:
        raise InvalidParamsError(f"nmax must be non-negative, got {nmax}")
    ev = ReducedEvolver(params, ReducedState.origin(), nmax, reach=0)
    out = np.empty(nmax + 1)
    for k in range(nmax + 1):
        if k > 0:
            ev.step()
        out[k] = ev.ladder_amplitude(0)
    return out
