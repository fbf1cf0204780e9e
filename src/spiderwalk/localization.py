"""Transition amplitudes, localization classification, and Cesaro limits.

The spectral form of the reduced walk gives every ladder-to-ladder
amplitude as an integral against the free Meixner law mu of (p, q, r):

    <Psi_l, U^n Psi_m> = integral of T_|n|(x) p_l(x) p_m(x) dmu(x),

with T the Chebyshev polynomial of the first kind (cos(n theta) under
x = cos theta) and p_k the orthonormal polynomials of mu.  When mu has an
atom at xi of mass w, the integral splits into a non-decaying oscillation
w p_l(xi) p_m(xi) cos(n arccos xi) plus a Riemann-Lebesgue term from the
density; the atom therefore decides localization:

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
    QuadratureSpec,
    integrate,
    law_from_pq,
    normalized_sequence,
    special_value,
)
from .reduction import PqParams, ReducedEvolver, ReducedState

__all__ = [
    "amplitude",
    "amplitude_shifted",
    "asymptotic_amplitude",
    "LocalizationReport",
    "classify",
    "cesaro_origin",
    "cesaro_strata",
    "exp_localization_bound",
    "random_walk_return",
    "origin_amplitude_series",
]


def _chebyshev_T(n: int, x: np.ndarray) -> np.ndarray:
    # stable for |x| <= 1, which covers the support of every walk law
    return np.cos(n * np.arccos(np.clip(x, -1.0, 1.0)))


def amplitude(law: FreeMeixnerLaw, l: int, m: int, n: int,
              spec: QuadratureSpec | None = None) -> float:
    """<Psi_l, U^n Psi_m> as the spectral integral of T_|n| p_l p_m.

    The default node budget scales with |n| + l + m, the Chebyshev order
    of the integrand.
    """
    if l < 0 or m < 0:
        raise ValueError("ladder indices must be non-negative")
    if spec is None:
        spec = QuadratureSpec.for_order(abs(n) + l + m)
    deg = max(l, m)

    def f(x):
        seq = normalized_sequence(law, deg, x)
        return _chebyshev_T(abs(n), x) * seq[l] * seq[m]

    return integrate(law, f, spec)


_SHIFT_OFFSETS = {"left": -1, "right": +1, "both": 0}


def amplitude_shifted(law: FreeMeixnerLaw, l: int, m: int, n: int, which: str,
                      spec: QuadratureSpec | None = None) -> float:
    """Amplitudes with the shift S multiplied in: <S Psi_l, U^n Psi_m>
    ("left"), <Psi_l, U^n S Psi_m> ("right"), <S Psi_l, U^n S Psi_m>
    ("both").  These reduce to plain amplitudes at n-1, n+1 and n."""
    if which not in _SHIFT_OFFSETS:
        raise ValueError(f"which must be one of {sorted(_SHIFT_OFFSETS)}, got {which!r}")
    return amplitude(law, l, m, n + _SHIFT_OFFSETS[which], spec)


def asymptotic_amplitude(params: PqParams, l: int, n: int) -> float:
    """Non-decaying part of <Psi_l, U^n Psi_0>: w p_l(xi) cos(n theta~).

    Zero identically when the law has no atom (no localization).
    """
    if l < 0:
        raise ValueError("ladder index must be non-negative")
    law = law_from_pq(params)
    if not law.has_atom:
        return 0.0
    theta = np.arccos(law.atom_location)
    return law.atom_mass * special_value(params, l) * float(np.cos(n * theta))


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
    acc = np.zeros(max_stratum + 1)
    for n in range(horizon):
        if n > 0:
            ev.step()
        k = min(max_stratum, ev.active) + 1
        acc[:k] += (np.abs(ev.xp[:k]) ** 2 + np.abs(ev.xo[:k]) ** 2
                    + np.abs(ev.xm[:k]) ** 2)
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
        raise ValueError("the bounds apply to strata l >= 1")
    a, b, c = sp.a, sp.b, sp.c
    if (b - c) ** 2 <= c:
        raise NotLocalizedError(f"S({a},{b},{c}) does not localize (b <= c + sqrt(c))")
    w = Fraction((b - c) ** 2 - c, (b - c) * (b - c + 1))
    base = w * w
    stratum = Fraction(b, 2 * c) * base * Fraction(c, (b - c) ** 2) ** l
    vertex = Fraction(b, 2 * a) * base * Fraction(1, (b - c) ** 2) ** l
    return float(stratum), float(vertex)


def random_walk_return(law: FreeMeixnerLaw, n: int,
                       spec: QuadratureSpec | None = None) -> float:
    """n-step return probability of the isotropic random walk: the n-th
    moment of the spectral law."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if spec is None:
        spec = QuadratureSpec.for_order(n)
    return integrate(law, lambda x: x ** n, spec)


def origin_amplitude_series(params: PqParams, nmax: int) -> np.ndarray:
    """<Psi_0, U^n Psi_0> for n = 0 .. nmax from the reduced evolution.

    One pass of the evolver; real values (the walk matrix is real and the
    initial state is real).
    """
    if nmax < 0:
        raise InvalidParamsError(f"nmax must be non-negative, got {nmax}")
    ev = ReducedEvolver(params, ReducedState.origin(), nmax, reach=0)
    out = np.empty(nmax + 1)
    out[0] = ev.origin_amplitude().real
    for k in range(1, nmax + 1):
        ev.step()
        out[k] = ev.origin_amplitude().real
    return out
