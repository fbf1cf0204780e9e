import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import spiderwalk.reduction as reduction
from oracles import (
    asymptotic_amplitude,
    cesaro_limit,
    chebyshev_amplitudes,
    cutoff_psi_vector,
    cutoff_walk_matrix,
    stratum_bound,
    vertex_bound,
)
from spiderwalk import (
    InvalidParamsError,
    PqParams,
    ReducedEvolver,
    ReducedState,
    SpidernetParams,
    amplitude_series,
    cesaro_strata,
    classify,
    law_from_pq,
    law_from_spidernet,
    origin_amplitude_series,
    params_from_spidernet,
    random_walk_return_series,
)

P463 = PqParams(0.5, 1.0 / 6.0, 1.0 / 3.0)
PTREE = PqParams(0.75, 0.25, 0.0)
LAW463 = law_from_pq(P463)
LAWTREE = law_from_pq(PTREE)


def test_amplitude_trivial_values():
    assert amplitude_series(LAW463, 0)[0] == pytest.approx(1.0, abs=1e-10)
    assert amplitude_series(LAW463, 0, 0, 1)[0] == pytest.approx(0.0, abs=1e-10)
    for bad in ((0, -1, 0), (0, 0, -1), (-1, 0, 0)):
        with pytest.raises(ValueError):
            amplitude_series(LAW463, *bad)


def test_amplitude_even_symmetric_bounded():
    # U is real orthogonal, so <Psi_l, U^-n Psi_m> is the amplitude of the
    # transpose: even in n means the series serves U^-n as well
    N = 12
    u_t = cutoff_walk_matrix(P463, N).T
    for l, m, n in [(0, 0, 3), (1, 2, 4), (2, 0, 7)]:
        forward = amplitude_series(LAW463, n, l, m)[n]
        backward = (cutoff_psi_vector(P463, N, l)
                    @ np.linalg.matrix_power(u_t, n) @ cutoff_psi_vector(P463, N, m))
        assert forward == pytest.approx(backward, abs=1e-12)
        assert forward == pytest.approx(amplitude_series(LAW463, n, m, l)[n], abs=1e-12)
    assert np.all(np.abs(amplitude_series(LAW463, 11)) <= 1 + 1e-12)


def test_amplitude_matches_reduced_walk_off_origin():
    # against the dense cutoff walk, cut off beyond the walk's reach
    l, m, N = 2, 1, 30
    u = cutoff_walk_matrix(P463, N)
    psi_l = cutoff_psi_vector(P463, N, l)
    vec = cutoff_psi_vector(P463, N, m)
    series = amplitude_series(LAW463, 25, l, m)
    for n in range(26):
        if n:
            vec = u @ vec
        assert abs(series[n] - psi_l @ vec) < 1e-10


def test_amplitude_shifted(cutoff_shift):
    # <S Psi_l, U^n Psi_m> and <Psi_l, U^n S Psi_m> are the spectral
    # amplitudes at n - 1 and n + 1: against explicit shift applications
    # in the dense cutoff walk
    l, m, n, N = 1, 0, 4, 8
    u_n = np.linalg.matrix_power(cutoff_walk_matrix(P463, N), n)
    shift = cutoff_shift(N)
    psi_l = cutoff_psi_vector(P463, N, l)
    psi_m = cutoff_psi_vector(P463, N, m)
    series = amplitude_series(LAW463, n + 1, l, m)
    assert abs(series[n - 1] - (shift @ psi_l) @ u_n @ psi_m) < 1e-12
    assert abs(series[n + 1] - psi_l @ u_n @ (shift @ psi_m)) < 1e-12


def test_asymptotic_amplitude():
    theta = np.arccos(-1.0 / 3.0)
    for n in (0, 3, 100):
        assert asymptotic_amplitude(LAW463, 0, n) == pytest.approx(
            0.5 * np.cos(n * theta), abs=1e-14)
    assert asymptotic_amplitude(LAWTREE, 0, 7) == 0.0


def test_asymptotic_amplitude_zero_at_threshold():
    # (b - c)^2 = c: no atom, so nothing survives (the float formula left 1.7e-16)
    law = law_from_spidernet(SpidernetParams(5, 6, 4))
    assert all(asymptotic_amplitude(law, l, n) == 0.0 for l in range(3) for n in range(5))


@pytest.mark.parametrize("k, d", [(134229312, -1), (134234113, 1)])
def test_asymptotic_amplitude_keeps_the_atom_of_b_c(k, d):
    # one step off the threshold with b ~ 2^54, the float law of (c/b, 1/b)
    # decides the atom the other way; the law of (b, c) decides it as classify
    sp = SpidernetParams(1, k * k + k + d, k * k)
    localized = classify(sp).localized
    assert law_from_pq(params_from_spidernet(sp)).has_atom != localized
    law = law_from_spidernet(sp)
    assert all((asymptotic_amplitude(law, l, 0) != 0.0) == localized for l in range(3))


def _exact_pqr(case):
    if isinstance(case, SpidernetParams):
        b, c = case.b, case.c
        return (Fraction(c, b), Fraction(1, b), Fraction(b - c - 1, b)), params_from_spidernet(case)
    return tuple(Fraction(v) for v in case), PqParams(*(float(v) for v in case))


# localizing, threshold (b - c)^2 = c, c = 1 (x = 1 removable), tree, and a
# pole of 1/D 0.011 from the support in phi
REFERENCE_CASES = [
    SpidernetParams(4, 6, 3),
    SpidernetParams(5, 6, 4),
    SpidernetParams(1, 12, 9),
    SpidernetParams(1, 4, 1),
    SpidernetParams(1, 7, 1),
    SpidernetParams(3, 4, 3),
    ("0.45", "0.44", "0.11"),
]


@pytest.mark.parametrize("case", REFERENCE_CASES, ids=str)
def test_amplitude_against_extended_precision(case):
    pqr, params = _exact_pqr(case)
    law = law_from_pq(params)
    runs = [(l, m, 300) for l in range(3) for m in range(l + 1)]
    if law.has_atom:
        # far strata: p_l at the atom, outside the band, is the recurrence's
        # minimal solution, which the forward recurrence loses at every n
        runs += [(30, 0, 60), (60, 0, 60), (40, 20, 60)]
    for l, m, nmax in runs:
        want = chebyshev_amplitudes(pqr, l, m, nmax)
        got = amplitude_series(law, nmax, l, m)
        assert np.max(np.abs(got - want)) < 1e-12, (l, m)


def test_amplitude_memory_does_not_grow_with_the_strata():
    # O(nodes): a table of p_0 .. p_l at every node would take 3.2 GB here
    tracemalloc.start()
    try:
        value = amplitude_series(LAW463, 0, 20000, 20000)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(value - 1.0) < 1e-12
    assert peak < 50 << 20


@pytest.mark.parametrize("case", REFERENCE_CASES, ids=str)
def test_random_walk_return_against_exact_moments(case):
    (p, q, r), params = _exact_pqr(case)
    law = law_from_pq(params)
    # e_0^T J^n e_0 in exact rationals; sq[k] couples slots k and k+1
    size = 102
    sq = [q] + [p * q] * (size - 2)
    v = [Fraction(1)] + [Fraction(0)] * (size - 1)
    got = random_walk_return_series(law, 200)
    for n in range(201):
        assert abs(got[n] - float(v[0])) < 1e-13, n
        v = [(r * v[k] if k else 0) + (sq[k] * v[k + 1] if k + 1 < size else 0)
             + (v[k - 1] if k else 0) for k in range(size)]


def test_amplitude_approaches_asymptotics():
    amps = origin_amplitude_series(P463, 2000)
    dev_late = max(abs(amps[n] - asymptotic_amplitude(LAW463, 0, n))
                   for n in range(900, 1001))
    assert dev_late < 1e-2
    dev_later = max(abs(amps[n] - asymptotic_amplitude(LAW463, 0, n))
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
    # numpy-integer parameters are stored as ints: (np.int64(10**10) - 1)**2 wraps
    wide = SpidernetParams(np.int64(1), np.int64(10 ** 10), np.int64(1))
    assert classify(wide) == classify(SpidernetParams(1, 10 ** 10, 1))


def test_cesaro_origin_basics():
    assert float(cesaro_strata(P463, 1, 0)[0]) == 1.0
    with pytest.raises(ValueError):
        cesaro_strata(P463, 0, 0)
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


@pytest.mark.parametrize("block_cells, max_stratum", [(7, 4), (1, 4), (12, 0)])
def test_cesaro_strata_reads_in_blocks(monkeypatch, block_cells, max_stratum):
    # blocks of 1, 2 and 12 states sum as one per-step loop does
    monkeypatch.setattr(reduction, "_BLOCK_CELLS", block_cells)
    params = params_from_spidernet(SpidernetParams(4, 6, 3))
    for horizon in (1, 2, 13, 300):
        assert np.array_equal(cesaro_strata(params, horizon, max_stratum),
                              _cesaro_strata_loop(params, horizon, max_stratum))


@pytest.mark.parametrize("abc", [(4, 6, 3), (3, 10, 2), (2, 5, 1), (11, 20, 9), (4, 7, 4)])
def test_cesaro_strata_converge_to_the_exact_limit(abc):
    # the oscillation about the limit averages out like 1/N; N |error| stays
    # below 1.4 on these strata from N = 1000 to 8000
    sp = SpidernetParams(*abc)
    limit = np.array([float(cesaro_limit(sp, l)) for l in range(7)])
    for horizon in (1000, 4000):
        error = np.abs(cesaro_strata(params_from_spidernet(sp), horizon, 6) - limit)
        assert np.all(error <= 2.0 / horizon)
    # the limit is the stratum bound times ((b-c+1)^2 + c - 1)/b >= 1
    b, c = sp.b, sp.c
    for l in range(1, 7):
        bound = Fraction(b, 2 * c) * classify(sp).w ** 2 * Fraction(c, (b - c) ** 2) ** l
        assert cesaro_limit(sp, l) == bound * Fraction((b - c + 1) ** 2 + c - 1, b) >= bound
        assert stratum_bound(sp, l) == bound


def test_cesaro_of_asymptotic_amplitude_is_half_w_squared():
    # long-run average of (w cos n theta)^2 -> w^2/2 by equidistribution
    n = np.arange(10_000)
    vals = 0.5 * np.cos(n * np.arccos(-1.0 / 3.0))
    assert abs(np.mean(vals ** 2) - 0.125) < 1e-3


def test_exp_localization_bound():
    sp = SpidernetParams(4, 6, 3)
    assert float(stratum_bound(sp, 1)) == pytest.approx(1.0 / 12.0, abs=1e-15)
    assert vertex_bound(sp, 1) == pytest.approx((6 / 8) * 0.25 * (1 / 9), abs=1e-15)
    # the vertex bound is the stratum bound spread over |V_l| = a c^(l-1)
    # vertices, by rotational symmetry: against its own closed form
    # (b/2a) w^2 (1/(b-c)^2)^l
    for sp in (SpidernetParams(4, 6, 3), SpidernetParams(2, 9, 2), SpidernetParams(5, 12, 4)):
        a, b, c = sp.a, sp.b, sp.c
        w = classify(sp).w
        for l in range(1, 6):
            stratum = float(stratum_bound(sp, l))
            assert vertex_bound(sp, l) == pytest.approx(stratum / (a * c ** (l - 1)), rel=1e-14)
            assert vertex_bound(sp, l) == float(Fraction(b, 2 * a) * w * w / (b - c) ** (2 * l))


def test_random_walk_return():
    assert random_walk_return_series(LAW463, 0)[0] == pytest.approx(1.0, abs=1e-12)
    assert random_walk_return_series(LAW463, 1)[1] == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        random_walk_return_series(LAW463, -1)

    # independent matrix-power oracle on the truncated Jacobi matrix
    for law, params in ((LAW463, P463), (LAWTREE, PTREE)):
        series = random_walk_return_series(law, 20)
        for n in range(21):
            size = n + 2
            j = np.zeros((size, size))
            for k in range(size - 1):
                j[k, k + 1] = j[k + 1, k] = np.sqrt(
                    params.q if k == 0 else params.p * params.q)
            for k in range(1, size):
                j[k, k] = params.r
            oracle = float(np.linalg.matrix_power(j, n)[0, 0])
            assert abs(series[n] - oracle) < 1e-10

    # no atom at 1 for trees: return probabilities decay
    tree = random_walk_return_series(LAWTREE, 50)
    assert abs(tree[50]) < abs(tree[10])
    assert abs(tree[50]) < 1e-3
    # the localized law keeps returning: xi^n persists through the atom
    assert random_walk_return_series(LAW463, 40)[40] > 1e-10


def test_origin_amplitude_series():
    amps = origin_amplitude_series(P463, 6)
    u = cutoff_walk_matrix(P463, 8)
    vec = cutoff_psi_vector(P463, 8, 0)
    for n in range(7):
        if n:
            vec = u @ vec
        assert abs(amps[n] - vec[0]) < 1e-14
    with pytest.raises(InvalidParamsError):
        origin_amplitude_series(P463, -1)
