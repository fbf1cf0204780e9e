"""The three routes across the realizable (a, b, c) plane: the walk on the
explicit graph, the reduced ladder walk and the spectral integral agree,
and the exact and the float localization decisions never disagree."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import exact_stratum_rows, inner, ladder_amplitude
from spiderwalk import (
    GraphEvolver,
    ReducedEvolver,
    ReducedState,
    SpidernetParams,
    amplitude_series,
    build_spidernet,
    classify,
    embed,
    isotropic_initial_state,
    law_from_pq,
    law_from_spidernet,
    light_cone_radius,
    origin_amplitude_series,
    params_from_spidernet,
    random_walk_return_series,
)
from spiderwalk.reduction import stratum_state

# graphs of draws above this many half-edges are not built
MAX_DRAWN_HALF_EDGES = 200_000


@st.composite
def spidernets(draw):
    """Realizable S(a, b, c) with b <= 12: a > b - c - 1, and a even when
    b - c - 1 is odd (odd strata have no 1-factor)."""
    b = draw(st.integers(2, 12))
    c = draw(st.integers(1, b - 1))
    m = b - c - 1
    a = m + 1 + (2 if m % 2 else 1) * draw(st.integers(0, 3))
    return SpidernetParams(a, b, c)


@st.composite
def plane_spidernets(draw):
    """Realizable S(a, b, c) with b log-uniform up to 10^9 and c in
    {1, 2, 3, b - 1, floor(b - sqrt(b))}, or on the threshold
    (b, c) = (k^2 + k, k^2) with k < 2^27, so b < 2^54; a = b - c is
    realizable for every (b, c)."""
    if draw(st.integers(0, 5)) == 0:
        e = draw(st.integers(0, 26))
        k = draw(st.integers(1 << e, (1 << (e + 1)) - 1))
        b, c = k * k + k, k * k
    else:
        e = draw(st.integers(1, 30))
        b = draw(st.integers(max(2, 1 << (e - 1)), min(1 << e, 10 ** 9)))
        cs = {1, 2, 3, b - 1, b - math.isqrt(b - 1) - 1}
        c = draw(st.sampled_from(sorted(c for c in cs if 1 <= c <= b - 1)))
    return SpidernetParams(b - c, b, c)


def exact_moment(sp, n):
    """e_0^T J^n e_0 for the walk law of S(a, b, c), exactly: the recurrence
    v_k <- r v_k + s_k v_{k+1} + v_{k-1} (s_0 = q, s_k = pq) in integers,
    scaled by b^2 per step."""
    b, c = sp.b, sp.c
    size = n // 2 + 2
    v = [1] + [0] * (size - 1)
    for _ in range(n):
        v = [(b * (b - c - 1) * v[k] if k else 0)
             + ((c if k else b) * v[k + 1] if k + 1 < size else 0)
             + (b * b * v[k - 1] if k else 0) for k in range(size)]
    return float(Fraction(v[0], b ** (2 * n)))


def half_edges(sp, radius):
    """Half-edges of S(a, b, c) truncated at radius >= 1, counted stratum
    by stratum as build_spidernet counts them, before anything is built."""
    a, b, c = sp.a, sp.b, sp.c
    return a + sum(a * c ** (j - 1) * (b if j < radius else b - c)
                   for j in range(1, radius + 1))


@st.composite
def graph_walks(draw):
    """(S(a, b, c), n) with n <= 6 steps, at most as many as keep the graph
    at radius n + 1 within MAX_DRAWN_HALF_EDGES."""
    sp = draw(spidernets())
    n_max = max(n for n in range(7) if n == 0 or half_edges(sp, n + 1) <= MAX_DRAWN_HALF_EDGES)
    return sp, draw(st.integers(0, n_max))


@st.composite
def small_spidernets(draw):
    """S(a, b, c) with a, b <= 12 and any c, realizable or not, so that
    trees and the threshold (b - c)^2 = c are among the draws."""
    a, b = draw(st.integers(1, 12)), draw(st.integers(2, 12))
    return SpidernetParams(a, b, draw(st.integers(1, b - 1)))


def realizable(sp):
    m = sp.intra_degree
    return m == 0 or (sp.a > m and (m % 2 == 0 or sp.a % 2 == 0))


@st.composite
def graph_tables(draw):
    """(S(a, b, c), steps, strata) for realizable small_spidernets(), with
    steps <= 12, at most as many as keep the graph at the light cone's
    radius within MAX_DRAWN_HALF_EDGES."""
    sp = draw(small_spidernets().filter(realizable))
    strata = draw(st.integers(0, 13))
    n_max = max(n for n in range(13)
                if half_edges(sp, light_cone_radius(n, strata)) <= MAX_DRAWN_HALF_EDGES)
    return sp, draw(st.integers(0, n_max)), strata


def _assert_rows_within(rows, sp, steps, strata, bound):
    """Row t = 0 .. steps holds P(X_t in V_l), l = 0 .. strata, to within
    bound(l, exact value), where strata past its width are 0."""
    for row, want in zip(rows, exact_stratum_rows(sp, steps, max(steps, strata)), strict=True):
        assert sum(want) == 1             # the oracle's strata hold the whole walk
        cells = list(row) + [0.0] * (strata + 1 - len(row))
        for l, (v, p) in enumerate(zip(cells, want)):
            assert abs(Fraction(float(v)) - p) <= bound(l, p), (l, float(v), float(p))


@given(small_spidernets(), st.integers(0, 40), st.integers(0, 41))
@example(SpidernetParams(3, 4, 3), 11, 11)
@example(SpidernetParams(11, 4, 3), 8, 8)
def test_reduced_rows_match_the_exact_rows(sp, steps, strata):
    ev = ReducedEvolver(params_from_spidernet(sp), ReducedState.origin(), steps, reach=strata)
    _assert_rows_within(ev.stratum_probability_rows(steps), sp, steps, strata,
                        lambda l, p: Fraction(steps + 1, 2 ** 51))


@given(graph_tables())
@example((SpidernetParams(3, 4, 3), 11, 11))
@example((SpidernetParams(11, 4, 3), 8, 8))
def test_graph_rows_match_the_exact_rows(table):
    # stratum_distribution sums a stratum's |V_l| vertex weights one after
    # another, so its error grows with |V_l| P_l
    sp, steps, strata = table
    g = build_spidernet(sp, light_cone_radius(steps, strata))
    ev = GraphEvolver(g, isotropic_initial_state(g), steps, reach=strata)
    rows = []
    for n in range(steps + 1):
        if n:
            ev.step()
        rows.append(ev.stratum_distribution())
    size = [1] + [sp.a * sp.c ** (l - 1) for l in range(1, strata + 1)]
    _assert_rows_within(rows, sp, steps, strata,
                        lambda l, p: (size[l] * p + steps + 1) / 2 ** 51)


def _evolved(params, start, n):
    ev = ReducedEvolver(params, start, n)
    for _ in range(n):
        ev.step()
    return ev


# threshold (b - c)^2 = c, its neighbours, trees and c = 1
PINNED = [SpidernetParams(2, 6, 4), SpidernetParams(3, 12, 9), SpidernetParams(4, 20, 16),
          SpidernetParams(3, 6, 3), SpidernetParams(4, 12, 10), SpidernetParams(3, 4, 3),
          SpidernetParams(1, 2, 1), SpidernetParams(2, 3, 1), SpidernetParams(5, 6, 1)]


@given(graph_walks())
@example((SpidernetParams(2, 6, 4), 6))
@example((SpidernetParams(3, 12, 9), 3))
@example((SpidernetParams(4, 20, 16), 3))
@example((SpidernetParams(3, 4, 3), 6))
@example((SpidernetParams(5, 6, 1), 6))
def test_graph_walk_matches_embedded_reduced_walk(walk):
    sp, n = walk
    g = build_spidernet(sp, n + 1)
    ev = GraphEvolver(g, isotropic_initial_state(g), n)
    for _ in range(n):
        ev.step()
    reduced = _evolved(params_from_spidernet(sp), ReducedState.origin(), n).state()
    assert np.max(np.abs(ev.state() - embed(g, reduced))) < 1e-12


@given(st.one_of(spidernets(), plane_spidernets()), st.integers(0, 60),
       st.integers(0, 300), st.integers(0, 300))
@example(SpidernetParams(2, 6, 4), 60, 0, 0)
@example(SpidernetParams(3, 12, 9), 60, 2, 1)
@example(SpidernetParams(4, 20, 16), 60, 1, 3)
@example(SpidernetParams(3, 4, 3), 60, 0, 2)
@example(SpidernetParams(2, 3, 1), 60, 3, 3)
@example(SpidernetParams(1, 10 ** 9, 999968377), 60, 3, 2)
@example(SpidernetParams(1, 10 ** 9, 999999999), 60, 1, 0)
@example(SpidernetParams(999999000, 10 ** 9, 1000), 40, 300, 300)
@example(SpidernetParams(1 << 27, (1 << 54) - (1 << 27), ((1 << 27) - 1) ** 2), 60, 3, 2)
@example(SpidernetParams(31622, 999950884, 999919262), 60, 3, 2)
@example(SpidernetParams((1 << 26) + 1, (1 << 52) + (1 << 26) + 1, 1 << 52), 40, 10, 4)
@example(SpidernetParams((1 << 26) - 1, (1 << 52) + (1 << 26) - 1, 1 << 52), 40, 10, 4)
def test_reduced_walk_matches_spectral_integral(sp, n, l, m):
    law = law_from_spidernet(sp)
    params = params_from_spidernet(sp)
    ev = _evolved(params, stratum_state(params, m), n)
    got = ladder_amplitude(ev, l)
    assert abs(got - inner(stratum_state(params, l), ev.state())) < 1e-15
    assert origin_amplitude_series(params, n, l, m)[n] == got
    assert abs(amplitude_series(law, n, l, m)[n] - got) < 1e-12


@given(st.one_of(spidernets(), plane_spidernets()), st.integers(0, 60))
@example(SpidernetParams(2, 2, 1), 60)
@example(SpidernetParams(1000, 10 ** 6, 999000), 0)
@example(SpidernetParams(1, 10 ** 9, 999999999), 60)
@example(SpidernetParams(1, 10 ** 9, 1), 60)
@example(SpidernetParams(1 << 27, (1 << 54) - (1 << 27), ((1 << 27) - 1) ** 2), 60)
@example(SpidernetParams(31622, 999950884, 999919262), 60)
@example(SpidernetParams((1 << 26) + 1, (1 << 52) + (1 << 26) + 1, 1 << 52), 60)
@example(SpidernetParams((1 << 26) - 1, (1 << 52) + (1 << 26) - 1, 1 << 52), 60)
def test_random_walk_return_matches_exact_moments(sp, n):
    assert abs(random_walk_return_series(law_from_spidernet(sp), n)[n] - exact_moment(sp, n)) < 1e-14


@given(spidernets(), st.integers(0, 60))
@example(SpidernetParams(4, 20, 16), 60)
@example(SpidernetParams(1, 2, 1), 60)
def test_stratum_probabilities_sum_to_one(sp, n):
    ev = _evolved(params_from_spidernet(sp), ReducedState.origin(), n)
    assert abs(ev.stratum_probability_rows(0).sum() - 1.0) < 1e-13


def _assert_atoms_agree(sp):
    """The law of S(a, b, c) has classify's atom, in has_atom and in mass;
    so does the law of the floats (c/b, 1/b) while they determine (b, c)."""
    rep = classify(sp)
    laws = [law_from_spidernet(sp)]
    if sp.b < 1 << 50:
        laws.append(law_from_pq(params_from_spidernet(sp)))
    for law in laws:
        assert law.has_atom == rep.localized
        assert law.atom_mass == float(rep.w)


@given(st.one_of(spidernets(), st.sampled_from(PINNED)))
def test_float_and_exact_localization_agree(sp):
    _assert_atoms_agree(sp)


@given(st.integers(2, (1 << 27) - 1), st.integers(-1, 1))
@example(59414673, 1)
@example((1 << 27) - 1, 1)
@example((1 << 27) - 1, 0)
def test_localization_agrees_at_the_threshold(k, d):
    # on the threshold (b - c)^2 = c for d = 0 and one step either side of
    # it, in b and in c, for every b < 2^54
    _assert_atoms_agree(SpidernetParams(1, k * k + k + d, k * k))
    _assert_atoms_agree(SpidernetParams(1, k * k + k, k * k + d))
