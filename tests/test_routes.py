"""The three routes across the realizable (a, b, c) plane: the walk on the
explicit graph, the reduced ladder walk and the spectral integral agree,
and the exact and the float localization decisions never disagree."""

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import inner
from spiderwalk import (
    GraphEvolver,
    ReducedEvolver,
    ReducedState,
    SpidernetParams,
    amplitude,
    build_spidernet,
    classify,
    embed,
    isotropic_initial_state,
    law_from_pq,
    params_from_spidernet,
    stratum_state,
)

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
    ev = GraphEvolver(g, isotropic_initial_state(g))
    for _ in range(n):
        ev.step()
    reduced = _evolved(params_from_spidernet(sp), ReducedState.origin(), n).state()
    assert np.max(np.abs(ev.state() - embed(g, reduced))) < 1e-12


@given(spidernets(), st.integers(0, 60), st.integers(0, 3), st.integers(0, 3))
@example(SpidernetParams(2, 6, 4), 60, 0, 0)
@example(SpidernetParams(3, 12, 9), 60, 2, 1)
@example(SpidernetParams(4, 20, 16), 60, 1, 3)
@example(SpidernetParams(3, 4, 3), 60, 0, 2)
@example(SpidernetParams(2, 3, 1), 60, 3, 3)
def test_reduced_walk_matches_spectral_integral(sp, n, l, m):
    params = params_from_spidernet(sp)
    ev = _evolved(params, stratum_state(params, m), n)
    got = ev.ladder_amplitude(l)
    assert abs(got - inner(stratum_state(params, l), ev.state())) < 1e-15
    assert abs(amplitude(law_from_pq(params), l, m, n) - got) < 1e-12


@given(spidernets(), st.integers(0, 60))
@example(SpidernetParams(4, 20, 16), 60)
@example(SpidernetParams(1, 2, 1), 60)
def test_stratum_probabilities_sum_to_one(sp, n):
    ev = _evolved(params_from_spidernet(sp), ReducedState.origin(), n)
    assert abs(ev.stratum_probabilities().sum() - 1.0) < 1e-13


@given(st.one_of(spidernets(), st.sampled_from(PINNED)))
def test_float_and_exact_localization_agree(sp):
    assert law_from_pq(params_from_spidernet(sp)).has_atom == classify(sp).localized


@given(st.integers(2, 1000), st.integers(-1, 1))
def test_localization_agrees_at_the_threshold(k, d):
    # (b, c) = (k^2 + k, k^2 + d): on the threshold (b - c)^2 = c for d = 0
    # and one step either side of it
    sp = SpidernetParams(1, k * k + k, k * k + d)
    assert law_from_pq(params_from_spidernet(sp)).has_atom == classify(sp).localized
