import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import spiderwalk.walk
from oracles import (
    csr_graph,
    csr_step,
    half_edge_index,
    half_edge_permutation,
    neighbors,
    rotation_permutation,
    vertex_id,
)
from spiderwalk import (
    DimensionMismatchError,
    GraphEvolver,
    InvalidParamsError,
    RadiusTooSmallError,
    SpidernetParams,
    UnrealizableWiringError,
    build_spidernet,
    cesaro_strata,
    evolve,
    isotropic_initial_state,
    light_cone_radius,
    params_from_spidernet,
    vertex_distribution,
)


def _random_state(g, rng):
    s = rng.standard_normal(g.num_half_edges)
    return s / np.linalg.norm(s)


def _strata(g, state):
    """Per-stratum probabilities of a state, correctly rounded sums over
    the half-edges leaving each stratum."""
    h = csr_graph(g)
    src_strata = h.vertex_stratum[h.he_src]
    weights = np.abs(state) ** 2
    return np.array([math.fsum(weights[src_strata == j]) for j in range(g.radius + 1)])


def _assert_strata(g, dist, state):
    """dist holds the per-stratum probabilities of state, up to the error
    bound of a float64 sum of each stratum's n terms, n * eps * sum."""
    exact = _strata(g, state)
    h = csr_graph(g)
    terms = np.bincount(h.vertex_stratum[h.he_src], minlength=g.radius + 1)
    assert dist.shape == exact.shape
    assert np.all(np.abs(dist - exact) <= terms * np.finfo(np.float64).eps * exact)


def test_isotropic_initial_state():
    g = build_spidernet(SpidernetParams(4, 6, 3), 2)
    s = isotropic_initial_state(g)
    assert np.allclose(s[:4], 0.5)
    assert np.all(s[4:] == 0)
    assert abs(np.linalg.norm(s) - 1) < 1e-15

    g1 = build_spidernet(SpidernetParams(1, 2, 1), 2)
    s1 = isotropic_initial_state(g1)
    assert s1[0] == 1.0

    with pytest.raises(RadiusTooSmallError):
        isotropic_initial_state(build_spidernet(SpidernetParams(4, 6, 3), 0))


def test_coin_fixes_isotropic_block(sparse_walk):
    g = build_spidernet(SpidernetParams(4, 6, 3), 2)
    _, shift = sparse_walk(g)
    s = isotropic_initial_state(g)
    # the coin fixes the root's isotropic block, so one step only shifts it
    assert np.max(np.abs(evolve(g, s, 1) - shift @ s)) <= 1e-15


def test_coin_swaps_degree_two_block():
    # on a path, the coin 2/2 - I at a degree-2 vertex is the swap matrix:
    # (1, 0) is coined onto (1, 2), which the shift moves to (2, 1)
    g = build_spidernet(SpidernetParams(1, 2, 1), 3)
    h = csr_graph(g)
    s = np.zeros(g.num_half_edges)
    s[half_edge_index(h, 1, 0)] = 1.0
    out = evolve(g, s, 1)
    assert out[half_edge_index(h, 2, 1)] == 1.0
    assert np.count_nonzero(out) == 1


def test_involutions(sparse_walk):
    g = build_spidernet(SpidernetParams(4, 6, 3), 3)
    coin, shift = sparse_walk(g)
    rng = np.random.default_rng(3)
    s = _random_state(g, rng)
    assert np.max(np.abs(coin @ (coin @ s) - s)) < 1e-14
    assert np.max(np.abs(shift @ (shift @ s) - s)) < 1e-14
    # U S U = S C C = S, so C^2 = I for the package's coin
    assert np.max(np.abs(evolve(g, shift @ evolve(g, s, 1), 1) - shift @ s)) < 1e-14


def test_shift_moves_basis_states(sparse_walk):
    g = build_spidernet(SpidernetParams(4, 6, 3), 2)
    h = csr_graph(g)
    coin, shift = sparse_walk(g)
    s = np.zeros(g.num_half_edges)
    s[half_edge_index(h, 0, 2)] = 1.0
    out = evolve(g, s, 1)
    # the root's coin spreads (0, 2) as 2/4 - delta over its block, and the
    # shift moves the amplitude of each (0, v) onto (v, 0)
    want = np.zeros(g.num_half_edges)
    for v in neighbors(h, 0):
        want[half_edge_index(h, v, 0)] = 0.5
    want[half_edge_index(h, 2, 0)] = -0.5
    assert np.array_equal(out, want)
    assert np.array_equal(shift @ (coin @ s), want)


def test_unitarity_random_states():
    g = build_spidernet(SpidernetParams(4, 6, 3), 3)
    rng = np.random.default_rng(11)
    for _ in range(100):
        s = _random_state(g, rng)
        assert abs(np.linalg.norm(evolve(g, s, 1)) - 1.0) < 1e-12


def test_step_from_root():
    g = build_spidernet(SpidernetParams(4, 6, 3), 3)
    s0 = isotropic_initial_state(g)
    s1 = evolve(g, s0, 1)
    # only half-edges pointing back at the root carry amplitude
    support = np.nonzero(np.abs(s1) > 1e-15)[0]
    assert np.all(csr_graph(g).he_dst[support] == 0)
    assert abs(np.vdot(s0, s1)) < 1e-15


def test_support_growth(sparse_walk):
    # after n steps from the root the amplitude sits on half-edges leaving
    # strata <= n and reaches stratum n, so radius n is the least exact one
    g = build_spidernet(SpidernetParams(4, 6, 3), 6)
    coin, shift = sparse_walk(g)
    h = csr_graph(g)
    src_strata = h.vertex_stratum[h.he_src]
    s = isotropic_initial_state(g)
    for n in range(1, 7):
        s = shift @ (coin @ s)
        assert not s[src_strata > n].any()
        assert s[src_strata == n].any()


def test_reality():
    # U is real orthogonal, so a walk state is a real vector
    g = build_spidernet(SpidernetParams(4, 6, 3), 7)
    s = evolve(g, isotropic_initial_state(g), 5)
    assert s.dtype == np.float64 and abs(np.linalg.norm(s) - 1.0) < 1e-14


def test_rotation_equivariance():
    g = build_spidernet(SpidernetParams(4, 6, 3), 4)
    hperm = half_edge_permutation(csr_graph(g), rotation_permutation(g))
    rng = np.random.default_rng(5)
    s = _random_state(g, rng)
    assert np.max(np.abs(evolve(g, s, 1)[hperm] - evolve(g, s[hperm], 1))) < 1e-13


def test_vertex_distribution():
    g = build_spidernet(SpidernetParams(4, 6, 3), 5)
    ev = GraphEvolver(g, isotropic_initial_state(g), 3)
    for _ in range(3):
        ev.step()
    dist = vertex_distribution(g, ev.state())
    assert np.all(dist >= 0)
    assert abs(dist.sum() - 1.0) < 1e-12
    by_stratum = ev.stratum_distribution()
    assert abs(by_stratum.sum() - 1.0) < 1e-12
    _assert_strata(g, by_stratum, ev.state())


def test_time_averaged_distribution(sparse_walk):
    # Cesaro mean of the per-stratum distributions over steps n = 0..9
    g = build_spidernet(SpidernetParams(4, 6, 3), 9)
    coin, shift = sparse_walk(g)
    s = isotropic_initial_state(g)
    ev = GraphEvolver(g, s, 9)
    acc, ref = ev.stratum_distribution(), _strata(g, s)
    assert acc[0] == 1.0 and abs(acc.sum() - 1.0) < 1e-14
    for _ in range(9):
        ev.step()
        s = shift @ (coin @ s)
        acc += ev.stratum_distribution()
        ref += _strata(g, s)
    assert np.max(np.abs(acc / 10 - ref / 10)) <= 1e-15

    # its origin entry matches the reduced-walk Cesaro average
    params = params_from_spidernet(g.params)
    assert abs(acc[0] / 10 - cesaro_strata(params, 10, 0)[0]) < 1e-10


def test_evolve_guards():
    g = build_spidernet(SpidernetParams(4, 6, 3), 3)
    s = isotropic_initial_state(g)
    with pytest.raises(RadiusTooSmallError):
        evolve(g, s, 4)
    assert abs(np.linalg.norm(evolve(g, s, 3)) - 1.0) < 1e-14
    with pytest.raises(InvalidParamsError):
        evolve(g, s, -1)
    with pytest.raises(DimensionMismatchError):
        GraphEvolver(g, s[:-1], 1)
    with pytest.raises(DimensionMismatchError):
        vertex_distribution(g, s[:-1])


def test_states_may_be_array_likes():
    g = build_spidernet(SpidernetParams(4, 6, 3), 3)
    s = isotropic_initial_state(g)
    assert np.array_equal(evolve(g, list(s), 1), evolve(g, s, 1))
    assert np.array_equal(vertex_distribution(g, [0.0] * g.num_half_edges),
                          np.zeros(g.num_vertices))
    for short in (list(s[:-1]), [0.0] * (g.num_half_edges + 1)):
        with pytest.raises(DimensionMismatchError):
            evolve(g, short, 1)
        with pytest.raises(DimensionMismatchError):
            vertex_distribution(g, short)


# the three entry points that take a walk state
state_calls = pytest.mark.parametrize("call", [
    lambda g, s: GraphEvolver(g, s, 1),
    lambda g, s: evolve(g, s, 1),
    lambda g, s: vertex_distribution(g, s),
], ids=["GraphEvolver", "evolve", "vertex_distribution"])


@state_calls
def test_complex_states_are_refused_before_allocation(call):
    # U is real, so a complex state is two real ones; a float64 cast would
    # drop the imaginary part without a word
    g = build_spidernet(SpidernetParams(4, 6, 3), 7)
    s = isotropic_initial_state(g) * np.exp(0.7j)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionMismatchError):
            call(g, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < s.nbytes // 8
    with pytest.raises(DimensionMismatchError):
        call(g, list(s))


@state_calls
def test_nonfinite_states_are_refused(call):
    # a NaN on one half-edge would read NaN in its stratum after a step
    g = build_spidernet(SpidernetParams(4, 6, 3), 3)
    for bad in (np.nan, np.inf, -np.inf):
        s = isotropic_initial_state(g)
        s[1] = bad
        with pytest.raises(DimensionMismatchError):
            call(g, s)


def _he_end(g, stratum):
    """Number of half-edges leaving strata <= stratum."""
    return g.half_edge_offsets[stratum + 1]


@pytest.mark.parametrize("abc, radius", [
    ((4, 6, 3), 7),     # localizing
    ((4, 6, 4), 6),     # threshold (b - c)^2 = c
    ((3, 4, 3), 7),     # tree
    ((3, 4, 1), 12),    # c = 1
])
def test_evolver_matches_step_loop(abc, radius, sparse_walk):
    g = build_spidernet(SpidernetParams(*abc), radius)
    coin, shift = sparse_walk(g)
    ref = isotropic_initial_state(g)
    ev = GraphEvolver(g, ref, radius)
    assert ev._psi.dtype == np.float64
    # up to the radius itself: the boundary's truncated coin never runs
    for n in range(1, radius + 1):
        ev.step()
        ref = shift @ (coin @ ref)
        assert ev.top == n
        # nothing past the prefix, in the reference or in the kernel's buffers
        assert not ref[_he_end(g, n):].any()
        assert not ev._psi[_he_end(g, n):].any()
        assert not ev._coined[_he_end(g, n - 1):].any()
        full = ev.state()
        assert full.dtype == np.float64
        assert np.max(np.abs(full - ref)) <= 1e-15
        _assert_strata(g, ev.stratum_distribution(), full)


def test_evolver_arbitrary_states(sparse_walk):
    g = build_spidernet(SpidernetParams(4, 6, 3), 4)
    coin, shift = sparse_walk(g)
    rng = np.random.default_rng(17)
    basis = np.zeros(g.num_half_edges)
    basis[half_edge_index(csr_graph(g), vertex_id(g, 2, 5), vertex_id(g, 3, 15))] = 1.0
    for state, top in ((_random_state(g, rng), 4), (basis, 2)):
        ev = GraphEvolver(g, state, 3)
        assert ev.top == top
        ref = state
        for _ in range(3):
            ev.step()
            ref = shift @ (coin @ ref)
            assert np.max(np.abs(ev.state() - ref)) <= 1e-15
        _assert_strata(g, ev.stratum_distribution(), ev.state())


@pytest.mark.parametrize("abc, steps, wider", [
    ((4, 6, 3), 10, 12),
    ((3, 4, 3), 11, 13),
    ((4, 4, 2), 16, 18),
    # radius 11 would hold 16.8 M half-edges (~0.8 GB); one stratum past
    # the light cone still exercises the boundary
    ((4, 6, 4), 9, 10),
    ((3, 4, 1), 14, 16),
])
def test_radius_steps_is_exact(abc, steps, wider):
    # radius steps, the least that evolve allows, against wider
    # truncations, whose extra strata the walk never reaches
    sp = SpidernetParams(*abc)
    exact, wide = build_spidernet(sp, steps), build_spidernet(sp, wider)
    ev, ev_wide = (GraphEvolver(g, isotropic_initial_state(g), steps)
                   for g in (exact, wide))
    for _ in range(steps):
        ev.step()
        ev_wide.step()
        dist, dist_wide = ev.stratum_distribution(), ev_wide.stratum_distribution()
        assert np.array_equal(dist, dist_wide[:steps + 1])
        assert not dist_wide[steps + 1:].any()


def _stratum_table(sp, radius, steps):
    """The per-stratum probabilities of steps 0..steps from the root, as
    ``simulate --full`` reads them, on the truncation of the given radius."""
    g = build_spidernet(sp, radius)
    ev = GraphEvolver(g, isotropic_initial_state(g), steps)
    rows = [ev.stratum_distribution()]
    for _ in range(steps):
        ev.step()
        rows.append(ev.stratum_distribution())
    return np.array(rows)


def test_light_cone_radius_values():
    assert light_cone_radius(0, 0) == light_cone_radius(0, 6) == 1
    assert light_cone_radius(1, 0) == 1
    assert light_cone_radius(16, 0) == 9
    assert light_cone_radius(18, 0) == 10
    assert light_cone_radius(18, 17) == light_cone_radius(18, 18) == 18
    assert light_cone_radius(11, 11) == light_cone_radius(11, 40) == 11


@pytest.mark.parametrize("abc, steps", [
    ((4, 6, 3), 1),     # localizing
    ((4, 6, 3), 8),
    ((4, 6, 3), 9),
    ((4, 6, 4), 6),     # threshold (b - c)^2 = c
    ((4, 6, 4), 7),
    ((3, 4, 3), 9),     # tree
    ((3, 4, 3), 10),
    ((3, 4, 1), 12),    # c = 1
    ((3, 4, 1), 13),
])
def test_light_cone_radius_is_exact_and_least(abc, steps):
    # strata 0..K read at the light-cone radius equal those read at radius
    # steps bit for bit; on these wirings one radius less changes every
    # table it shortens
    sp = SpidernetParams(*abc)
    exact = _stratum_table(sp, steps, steps)
    for strata in range(steps + 1):
        radius = light_cone_radius(steps, strata)
        read = np.s_[:, :strata + 1]
        assert np.array_equal(_stratum_table(sp, radius, steps)[read], exact[read])
        if 1 < radius < steps:
            assert not np.array_equal(_stratum_table(sp, radius - 1, steps)[read],
                                      exact[read])


def _assert_block_steps_are_csr_steps(g, state, steps):
    """The block kernel takes ``state`` through ``steps`` steps as the CSR
    graph's reduceat coin and reversal gather do, bits and sign bits."""
    h = csr_graph(g)
    ev = GraphEvolver(g, state, steps)
    for _ in range(steps):
        ev.step()
        state = csr_step(h, state)
        assert np.array_equal(ev.state(), state)
        assert np.array_equal(np.signbit(ev.state()), np.signbit(state))


@pytest.mark.parametrize("abc, steps", [
    ((4, 6, 3), 1),     # the wirings of test_light_cone_radius_is_exact_and_least
    ((4, 6, 3), 8),
    ((4, 6, 3), 9),
    ((4, 6, 4), 6),
    ((4, 6, 4), 7),
    ((3, 4, 3), 9),
    ((3, 4, 3), 10),
    ((3, 4, 1), 12),
    ((3, 4, 1), 13),
])
def test_block_step_is_the_csr_step(abc, steps):
    # from a random state on every stratum, and from one on strata <= 1
    # whose prefix grows step by step
    g = build_spidernet(SpidernetParams(*abc), steps)
    state = _random_state(g, np.random.default_rng(steps))
    _assert_block_steps_are_csr_steps(g, state, steps)
    state[_he_end(g, 1):] = 0.0
    _assert_block_steps_are_csr_steps(g, state, steps)


def test_intra_reverses_are_the_reversal():
    # the closed form of the reverse of each intra half-edge is the sorted
    # CSR reversal, on every realizable a <= 12, b <= 13, radius <= 4
    graphs = 0
    for a in range(1, 13):
        for b in range(2, 14):
            for c in range(1, b - 1):
                for radius in range(1, 5):
                    try:
                        g = build_spidernet(SpidernetParams(a, b, c), radius)
                    except UnrealizableWiringError:
                        break
                    if g.num_half_edges > 200_000:
                        break
                    h = csr_graph(g)
                    cells = h.adj_ptr[1:-1, None] + 1 + np.arange(g.params.intra_degree)
                    assert np.array_equal(spiderwalk.walk._intra_reverses(g), h.reversal[cells])
                    graphs += 1
    assert graphs == 1524


# wide_graphs draws no graph of more half-edges than this
MAX_WIDE_HALF_EDGES = 2_000_000


@st.composite
def wide_graphs(draw):
    """Realizable S(a, b, c) at radius 2 or 3 with m = b - c - 1 log-uniform
    up to 1023, odd m among them (whose a is even) and even strata for even
    m, c <= 3 so that c = 1 paths of strata are among them, within
    MAX_WIDE_HALF_EDGES."""
    e = draw(st.integers(0, 9))
    m = draw(st.integers(1 << e, (2 << e) - 1))
    a = m + 1 + draw(st.integers(0, 2)) * (1 + m % 2)
    c, radius = draw(st.integers(1, 3)), draw(st.integers(2, 3))
    sp = SpidernetParams(a, m + 1 + c, c)
    assume(build_spidernet(sp, radius).num_half_edges <= MAX_WIDE_HALF_EDGES)
    return sp, radius


@settings(max_examples=30)
@given(wide_graphs())
@example((SpidernetParams(2000, 2001, 1), 2))     # odd m = 1999, 8 M half-edges
@example((SpidernetParams(1000, 1001, 1), 2))     # odd m = 999, the digest's width
@example((SpidernetParams(402, 402, 1), 2))       # even m = 400, even strata
def test_wide_block_steps_are_csr_steps(graph):
    sp, radius = graph
    g = build_spidernet(sp, radius)
    _assert_block_steps_are_csr_steps(g, _random_state(g, np.random.default_rng(sp.b)), 2)


def test_radius_zero_reads_the_root():
    # the root alone has no half-edge: each read gives its row, and the
    # evolver steps nothing and divides by no degree
    g = build_spidernet(SpidernetParams(4, 6, 3), 0)
    assert np.array_equal(evolve(g, [], 0), [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(vertex_distribution(g, []), [0.0])
        ev = GraphEvolver(g, [], 2)
        assert np.array_equal(ev.stratum_distribution(), [0.0])
        ev.step()
        assert np.array_equal(ev.stratum_distribution(), [0.0])


@pytest.mark.parametrize("abc, steps", [
    ((4, 6, 3), 1),     # the wirings of test_light_cone_radius_is_exact_and_least
    ((4, 6, 3), 8),
    ((4, 6, 3), 9),
    ((4, 6, 4), 6),
    ((4, 6, 4), 7),
    ((3, 4, 3), 9),
    ((3, 4, 3), 10),
    ((3, 4, 1), 12),
    ((3, 4, 1), 13),
])
def test_reach_keeps_the_light_cone_bit_for_bit(abc, steps):
    # with s steps left, an evolver with reach K holds the cells leaving
    # strata <= K + s and reads strata 0..K as reach=None does, bits and
    # sign bits, on the graph at radius steps and on the light-cone one
    sp = SpidernetParams(*abc)
    g = build_spidernet(sp, steps)
    ev = GraphEvolver(g, isotropic_initial_state(g), steps)
    cells, dists = [ev._psi.copy()], [ev.stratum_distribution()]
    for _ in range(steps):
        ev.step()
        cells.append(ev._psi.copy())
        dists.append(ev.stratum_distribution())
    for strata in range(steps + 1):
        small = build_spidernet(sp, light_cone_radius(steps, strata))
        coned = [GraphEvolver(h, isotropic_initial_state(h), steps, reach=strata)
                 for h in (g, small)]
        for n in range(steps + 1):
            if n:
                for ev in coned:
                    ev.step()
            held = _he_end(g, min(g.radius, strata + steps - n))
            assert np.array_equal(coned[0]._psi[:held], cells[n][:held])
            assert np.array_equal(np.signbit(coned[0]._psi[:held]), np.signbit(cells[n][:held]))
            for ev in coned:
                dist = ev.stratum_distribution()
                assert len(dist) == min(ev.g.radius, strata) + 1
                assert np.array_equal(dist, dists[n][:len(dist)])
                assert np.array_equal(np.signbit(dist), np.signbit(dists[n][:len(dist)]))


def test_reach_guards():
    g = build_spidernet(SpidernetParams(4, 6, 3), 5)
    s = isotropic_initial_state(g)
    # stepping past max_steps, with and without a reach
    for reach in (None, 2):
        ev = GraphEvolver(g, s, 2, reach=reach)
        ev.step()
        ev.step()
        with pytest.raises(RadiusTooSmallError):
            ev.step()
    # the cells past the light cone of strata 0..reach go stale, so the
    # whole state cannot be read, and the distribution stops at reach
    ev = GraphEvolver(g, s, 4, reach=1)
    with pytest.raises(RadiusTooSmallError):
        ev.state()
    for _ in range(4):
        ev.step()
    with pytest.raises(RadiusTooSmallError):
        ev.state()
    assert len(ev.stratum_distribution()) == 2
    with pytest.raises(InvalidParamsError):
        GraphEvolver(g, s, -1)
    with pytest.raises(InvalidParamsError):
        GraphEvolver(g, s, 3, reach=-1)


@pytest.mark.parametrize("abc, radius, steps", [
    ((4, 6, 3), 6, 6),
    ((3, 4, 3), 7, 5),      # tree
    ((4, 4, 2), 9, 9),
])
def test_reach_of_the_radius_or_more_is_no_reach(abc, radius, steps):
    # reach=None is reach=radius: nothing past the radius is cut, so every
    # step, read and whole state is the same to the bit, signs included
    g = build_spidernet(SpidernetParams(*abc), radius)
    s = isotropic_initial_state(g)
    evs = [GraphEvolver(g, s, steps, reach=reach) for reach in (None, radius, radius + 3)]
    assert [ev.reach for ev in evs] == [radius, radius, radius + 3]
    for n in range(steps + 1):
        if n:
            for ev in evs:
                ev.step()
        want_dist, want_state = evs[0].stratum_distribution(), evs[0].state()
        assert len(want_dist) == radius + 1
        for ev in evs[1:]:
            for got, want in ((ev.stratum_distribution(), want_dist),
                              (ev.state(), want_state), (ev._psi, evs[0]._psi)):
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))
