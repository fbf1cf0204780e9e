from fractions import Fraction

import numpy as np
import pytest

from spiderwalk import (
    InvalidParamsError,
    NotLocalizedError,
    PqParams,
    QuadratureSpec,
    ReducedEvolver,
    ReducedState,
    SpidernetParams,
    amplitude,
    amplitude_shifted,
    asymptotic_amplitude,
    cesaro_origin,
    cesaro_strata,
    classify,
    exp_localization_bound,
    inner,
    law_from_pq,
    origin_amplitude_series,
    params_from_spidernet,
    random_walk_return,
    reduced_shift,
    reduced_step,
    stratum_state,
)

P463 = PqParams(0.5, 1.0 / 6.0, 1.0 / 3.0)
PTREE = PqParams(0.75, 0.25, 0.0)
LAW463 = law_from_pq(P463)
LAWTREE = law_from_pq(PTREE)


def test_amplitude_trivial_values():
    assert amplitude(LAW463, 0, 0, 0) == pytest.approx(1.0, abs=1e-10)
    assert amplitude(LAW463, 0, 1, 0) == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(ValueError):
        amplitude(LAW463, -1, 0, 0)


def test_amplitude_even_symmetric_bounded():
    for l, m, n in [(0, 0, 3), (1, 2, 4), (2, 0, 7)]:
        assert amplitude(LAW463, l, m, n) == pytest.approx(
            amplitude(LAW463, l, m, -n), abs=1e-12)
        assert amplitude(LAW463, l, m, n) == pytest.approx(
            amplitude(LAW463, m, l, n), abs=1e-12)
    for n in range(12):
        assert abs(amplitude(LAW463, 0, 0, n)) <= 1 + 1e-12


def test_amplitude_matches_reduced_walk_off_origin():
    l, m = 2, 1
    psi_l = stratum_state(P463, l)
    state = stratum_state(P463, m)
    for n in range(26):
        if n:
            state = reduced_step(P463, state)
        assert abs(amplitude(LAW463, l, m, n) - inner(psi_l, state).real) < 1e-10


def test_amplitude_shifted():
    assert amplitude_shifted(LAW463, 0, 0, 1, "left") == pytest.approx(
        amplitude(LAW463, 0, 0, 0), abs=1e-12)
    assert amplitude_shifted(LAW463, 1, 2, 5, "both") == pytest.approx(
        amplitude(LAW463, 1, 2, 5), abs=1e-12)
    with pytest.raises(ValueError):
        amplitude_shifted(LAW463, 0, 0, 1, "up")

    # against explicit shift applications in the reduced walk
    l, m, n = 1, 0, 4
    s_psi_l = reduced_shift(P463, stratum_state(P463, l))
    state = stratum_state(P463, m)
    for _ in range(n):
        state = reduced_step(P463, state)
    assert abs(amplitude_shifted(LAW463, l, m, n, "left")
               - inner(s_psi_l, state).real) < 1e-8
    s_state = reduced_shift(P463, stratum_state(P463, m))
    for _ in range(n):
        s_state = reduced_step(P463, s_state)
    assert abs(amplitude_shifted(LAW463, l, m, n, "right")
               - inner(stratum_state(P463, l), s_state).real) < 1e-8


def test_asymptotic_amplitude():
    theta = np.arccos(-1.0 / 3.0)
    for n in (0, 3, 100):
        assert asymptotic_amplitude(P463, 0, n) == pytest.approx(
            0.5 * np.cos(n * theta), abs=1e-14)
    assert asymptotic_amplitude(PTREE, 0, 7) == 0.0
    with pytest.raises(ValueError):
        asymptotic_amplitude(P463, -1, 0)


def test_amplitude_approaches_asymptotics():
    amps = origin_amplitude_series(P463, 2000)
    dev_late = max(abs(amps[n] - asymptotic_amplitude(P463, 0, n))
                   for n in range(900, 1001))
    assert dev_late < 1e-2
    dev_later = max(abs(amps[n] - asymptotic_amplitude(P463, 0, n))
                    for n in range(1800, 2001))
    assert dev_later < dev_late


def test_classify():
    rep = classify(SpidernetParams(4, 6, 3))
    assert rep.localized
    assert rep.w == Fraction(1, 2)
    assert rep.xi == Fraction(-1, 3)
    assert rep.qbar_origin == Fraction(1, 8)
    assert rep.theta == pytest.approx(np.arccos(-1.0 / 3.0))

    assert not classify(SpidernetParams(10, 12, 9)).localized
    for kappa in range(2, 10):
        assert classify(SpidernetParams(kappa, kappa + 2, kappa - 1)).localized
    for b in (3, 5, 9):
        tree = classify(SpidernetParams(2, b, b - 1))
        assert not tree.localized and tree.w == 0


def test_cesaro_origin_basics():
    assert cesaro_origin(P463, 1) == 1.0
    with pytest.raises(ValueError):
        cesaro_origin(P463, 0)
    with pytest.raises(ValueError):
        cesaro_strata(P463, 5, -1)


def _cesaro_strata_loop(params, horizon, max_stratum):
    """Per-stratum reference: untruncated evolver, one read per stratum and step."""
    ev = ReducedEvolver(params, ReducedState.origin(), horizon - 1)
    strata = range(max_stratum + 1)
    acc = np.array([ev.stratum_probability(l) for l in strata])
    for _ in range(horizon - 1):
        ev.step()
        for l in strata:
            acc[l] += ev.stratum_probability(l)
    return acc / horizon


@pytest.mark.parametrize("abc, horizon, max_stratum", [
    ((4, 6, 3), 2000, 4),
    ((5, 6, 4), 1500, 6),
    ((3, 4, 3), 1000, 0),
    ((4, 6, 3), 3, 7),          # more strata than the walk reaches
])
def test_cesaro_strata_matches_per_stratum_loop(abc, horizon, max_stratum):
    params = params_from_spidernet(SpidernetParams(*abc))
    assert np.array_equal(cesaro_strata(params, horizon, max_stratum),
                          _cesaro_strata_loop(params, horizon, max_stratum))


def test_cesaro_of_asymptotic_amplitude_is_half_w_squared():
    # long-run average of (w cos n theta)^2 -> w^2/2 by equidistribution
    n = np.arange(10_000)
    vals = 0.5 * np.cos(n * np.arccos(-1.0 / 3.0))
    assert abs(np.mean(vals ** 2) - 0.125) < 1e-3


def test_exp_localization_bound():
    stratum, vertex = exp_localization_bound(SpidernetParams(4, 6, 3), 1)
    assert stratum == pytest.approx(1.0 / 12.0, abs=1e-15)
    assert vertex == pytest.approx((6 / 8) * 0.25 * (1 / 9), abs=1e-15)
    with pytest.raises(ValueError):
        exp_localization_bound(SpidernetParams(4, 6, 3), 0)
    with pytest.raises(NotLocalizedError):
        exp_localization_bound(SpidernetParams(10, 12, 9), 1)


def test_random_walk_return():
    assert random_walk_return(LAW463, 0) == pytest.approx(1.0, abs=1e-12)
    assert random_walk_return(LAW463, 1) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        random_walk_return(LAW463, -1)

    # independent matrix-power oracle on the truncated Jacobi matrix
    for law, params in ((LAW463, P463), (LAWTREE, PTREE)):
        for n in range(21):
            size = n + 2
            j = np.zeros((size, size))
            for k in range(size - 1):
                j[k, k + 1] = j[k + 1, k] = np.sqrt(
                    params.q if k == 0 else params.p * params.q)
            for k in range(1, size):
                j[k, k] = params.r
            oracle = float(np.linalg.matrix_power(j, n)[0, 0])
            assert abs(random_walk_return(law, n) - oracle) < 1e-10

    # no atom at 1 for trees: return probabilities decay
    assert abs(random_walk_return(LAWTREE, 50)) < abs(random_walk_return(LAWTREE, 10))
    assert abs(random_walk_return(LAWTREE, 50)) < 1e-3
    # the localized law keeps returning: xi^n persists through the atom
    assert random_walk_return(LAW463, 40) > 1e-10


def test_origin_amplitude_series():
    amps = origin_amplitude_series(P463, 6)
    state = ReducedState.origin()
    for n in range(7):
        if n:
            state = reduced_step(P463, state)
        assert abs(amps[n] - inner(ReducedState.origin(), state).real) < 1e-14
    with pytest.raises(InvalidParamsError):
        origin_amplitude_series(P463, -1)
