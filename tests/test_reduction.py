import tracemalloc

import numpy as np
import pytest

import spiderwalk.reduction as reduction
from oracles import (
    build_T,
    cutoff_dim,
    cutoff_index,
    cutoff_psi_vector,
    cutoff_walk_matrix,
    discrete_spectral_measure,
    eigensystem_T,
    inner,
    jacobi_dense,
    ladder_amplitude,
    ladder_step,
    orthonormal_sequence,
    reduced_norm,
    unflushed_ladder_walk,
)
from spiderwalk import (
    MAX_CUTOFF,
    ConvergenceFailureError,
    DimensionMismatchError,
    GraphEvolver,
    InvalidParamsError,
    ParamsOutOfRangeError,
    PqParams,
    RadiusTooSmallError,
    ReducedEvolver,
    ReducedState,
    SpidernetParams,
    SpiderwalkError,
    build_spidernet,
    cesaro_strata,
    embed,
    isotropic_initial_state,
    law_from_pq,
    origin_amplitude_series,
    params_from_spidernet,
    u_eigensystem,
)
from spiderwalk.reduction import stratum_state

P463 = PqParams(0.5, 1.0 / 6.0, 1.0 / 3.0)
PTREE = PqParams(0.75, 0.25, 0.0)
# localizing, threshold (b - c)^2 = c, tree, r = 0 with p = q, and a pole
# of 1/D close to the support
EVOLVER_CASES = [
    params_from_spidernet(SpidernetParams(4, 6, 3)),
    params_from_spidernet(SpidernetParams(5, 6, 4)),
    params_from_spidernet(SpidernetParams(3, 4, 3)),
    PqParams(0.5, 0.5, 0.0),
    PqParams(0.45, 0.44, 0.11),
]


def _random_reduced(rng, length):
    xp, xo, xm = rng.standard_normal((3, length + 1))
    xo[0] = xm[0] = 0.0
    s = ReducedState(xp, xo, xm)
    scale = reduced_norm(s)
    return ReducedState(xp / scale, xo / scale, xm / scale)


def _to_cutoff(state, N):
    """A reduced state of length <= N - 1 in the cutoff coordinates of H(N)."""
    assert state.length <= N - 1
    vec = np.zeros(cutoff_dim(N), dtype=state.xp.dtype)
    vec[0] = state.xp[0]
    for n in range(1, state.length + 1):
        for kind, x in (("+", state.xp), ("o", state.xo), ("-", state.xm)):
            vec[cutoff_index(n, kind, N)] = x[n]
    return vec


def _stepped_once(params, state, N):
    ev = ReducedEvolver(params, state, 1)
    ev.step()
    return _to_cutoff(ev.state(), N)


def _cutoff_coin(params, N, shift):
    """C_N = S_N U_N: the coin of the package's cutoff walk, given the shift."""
    return shift(N) @ cutoff_walk_matrix(params, N)


def test_params_from_spidernet():
    assert params_from_spidernet(SpidernetParams(4, 6, 3)) == P463
    assert params_from_spidernet(SpidernetParams(2, 4, 1)) == PqParams(0.25, 0.25, 0.5)
    assert params_from_spidernet(SpidernetParams(3, 4, 3)).r == 0.0


def test_params_validation():
    with pytest.raises(ParamsOutOfRangeError):
        PqParams(0.0, 0.5, 0.5)
    with pytest.raises(ParamsOutOfRangeError):
        PqParams(0.5, 0.6, -0.1)
    with pytest.raises(ParamsOutOfRangeError):
        PqParams(0.5, 0.2, 0.2)
    for bad in ((0.5, 0.5, np.nan), (0.5, np.inf, -np.inf), (np.inf, 0.5, 0.5)):
        with pytest.raises(ParamsOutOfRangeError):
            PqParams(*bad)
    # r within 1e-14 of zero snaps to exactly zero
    assert PqParams(0.75, 0.25, 1e-15).r == 0.0


def test_reduced_state_basics():
    s = ReducedState.origin()
    assert s.length == 0 and reduced_norm(s) == 1.0
    assert ReducedEvolver(P463, s, 0).origin_probability() == 1.0
    with pytest.raises(DimensionMismatchError):
        ReducedState([0.0], [1.0], [0.0])
    with pytest.raises(DimensionMismatchError):
        ReducedState([1.0, 0.0], [0.0], [0.0])
    # NaN in slot 0 would make every origin probability NaN
    with pytest.raises(DimensionMismatchError):
        ReducedState([1.0], [np.nan], [0.0])
    with pytest.raises(DimensionMismatchError):
        ReducedState([1.0], [0.0], [np.nan])
    # past slot 0 too, where a NaN or inf would spread into every row
    for bad in (([1, np.nan], [0, 0], [0, 0]), ([1, 0], [0, np.inf], [0, 0]),
                ([1, 0], [0, 0], [0, -np.inf])):
        with pytest.raises(DimensionMismatchError):
            ReducedState(*bad)
    # the coefficients are float64 copies of the arguments, so that a state
    # taken from an evolver, which passes views of its cells, stays put
    xp = np.array([1.0, 0.0])
    copied = ReducedState(xp, [0, 0], np.zeros(2, dtype=np.float32))
    xp[0] = 2.0
    assert copied.xp[0] == 1.0
    assert copied.xp.dtype == copied.xo.dtype == copied.xm.dtype == np.float64
    ev = ReducedEvolver(P463, s, 2)
    ev.step()
    taken = ev.state()
    ev.step()
    assert np.array_equal(taken.xm, [0.0, 1.0])
    z = ReducedState.zeros(3)
    assert z.length == 3 and reduced_norm(z) == 0.0
    with pytest.raises(InvalidParamsError):
        ReducedState.zeros(-5)
    c = s.coefficients()
    assert c.shape == (3, 1) and c[0, 0] == 1.0 and np.count_nonzero(c) == 1


def test_coin_fixes_ladder_vectors(cutoff_shift):
    # C Psi_n = Psi_n for every n, the root slot Psi_0 and the lone psi_N^-
    # included, so one evolver step moves Psi_n by the shift alone
    N = 6
    for params in (P463, PTREE):
        coin = _cutoff_coin(params, N, cutoff_shift)
        for n in range(N + 1):
            psi = cutoff_psi_vector(params, N, n)
            assert np.max(np.abs(coin @ psi - psi)) < 1e-15
        for n in (0, 1, 3):
            assert np.max(np.abs(_stepped_once(params, stratum_state(params, n), N)
                                 - cutoff_shift(N) @ cutoff_psi_vector(params, N, n))) < 1e-15


def test_coin_negates_orthocomplement(cutoff_shift):
    p, q, r = P463.p, P463.q, P463.r
    N = 4
    # a vector orthogonal to (sqrt p, sqrt r, sqrt q) in the n=2 triple
    s = ReducedState.zeros(2)
    s.xp[2] = np.sqrt(r)
    s.xo[2] = -np.sqrt(p)
    v = _to_cutoff(s, N)
    coin = _cutoff_coin(P463, N, cutoff_shift)
    assert np.max(np.abs(coin @ v + v)) < 1e-15
    assert np.max(np.abs(_stepped_once(P463, s, N) + cutoff_shift(N) @ v)) < 1e-15


def test_coin_involution_and_root_fixed(cutoff_shift):
    N = 6
    for params in (P463, PTREE):
        coin = _cutoff_coin(params, N, cutoff_shift)
        assert np.max(np.abs(coin @ coin - np.eye(len(coin)))) < 1e-14
        assert np.array_equal(coin, coin.T)
        assert np.array_equal(coin[0], np.eye(len(coin))[0])       # root slot fixed
        assert np.array_equal(coin[-1], np.eye(len(coin))[-1])     # psi_N^- fixed


def test_shift(cutoff_shift):
    N = 5
    s = cutoff_shift(N)
    assert np.array_equal(s @ s, np.eye(len(s)))
    assert s[cutoff_index(1, "-", N), 0] == 1.0                  # psi_0^+ -> psi_1^-
    for n in range(1, N):
        i = cutoff_index(n, "o", N)
        assert s[i, i] == 1.0                                     # psi_n^o fixed
    # the package's walk is this shift after a coin that acts within the
    # root slot, the triples and the lone psi_N^- only
    coin = _cutoff_coin(P463, N, cutoff_shift)
    blocks = np.zeros_like(coin, dtype=bool)
    blocks[0, 0] = blocks[-1, -1] = True
    for n in range(1, N):
        i = cutoff_index(n, "+", N)
        blocks[i:i + 3, i:i + 3] = True
    assert not np.any(coin[~blocks])


def test_step_leaves_origin():
    ev = ReducedEvolver(P463, ReducedState.origin(), 1)
    ev.step()
    assert ev.origin_probability() == 0.0
    s = ev.state()
    assert s.xm[1] == 1.0 and abs(reduced_norm(s) - 1.0) < 1e-14


def test_norm_preserved_over_long_run():
    ev = ReducedEvolver(P463, ReducedState.origin(), 10_000)
    for _ in range(10_000):
        ev.step()
    assert abs(reduced_norm(ev.state()) - 1.0) < 1e-10


def _cutoff_stratum_probabilities(vec, N):
    # layout: psi_0^+, then the triples of strata 1 .. N-1, then psi_N^-
    w = np.abs(vec) ** 2
    return np.r_[w[0], w[1:-1].reshape(N - 1, 3).sum(axis=1), w[-1]]


def test_evolver_matches_cutoff_walk():
    # n evolver steps from Psi_m, and from a random state, against
    # U_N^n with N far enough out that the walk never meets the cutoff
    steps = 60
    rng = np.random.default_rng(3)
    for params in EVOLVER_CASES:
        starts = [stratum_state(params, m) for m in (0, 1, 3)] + [_random_reduced(rng, 3)]
        for start in starts:
            N = start.length + steps + 2
            u = cutoff_walk_matrix(params, N)
            psi = np.array([cutoff_psi_vector(params, N, l) for l in range(N + 1)])
            vec = _to_cutoff(start, N)
            ev = ReducedEvolver(params, start, steps)
            for _ in range(steps):
                vec = u @ vec
                ev.step()
                assert np.max(np.abs(_to_cutoff(ev.state(), N) - vec)) < 1e-13
                # <Psi_l, .> up to one stratum past the active ones, which reads 0
                amps = [ladder_amplitude(ev, l) for l in range(ev.active + 2)]
                assert np.max(np.abs(amps - psi[:ev.active + 2] @ vec)) < 1e-13
                probs = ev.stratum_probability_rows(0)[0]
                want = _cutoff_stratum_probabilities(vec, N)
                assert len(probs) == ev.active + 1
                assert np.max(np.abs(probs - want[:len(probs)])) < 1e-13
                assert not np.any(want[len(probs):])
                assert np.array_equal(probs, [ev.stratum_probability(l)
                                              for l in range(len(probs))])
                assert abs(ev.origin_probability() - abs(vec[0]) ** 2) < 1e-13


def test_evolver_horizon_guard():
    ev = ReducedEvolver(P463, ReducedState.origin(), 1)
    ev.step()
    with pytest.raises(RadiusTooSmallError):
        ev.step()
    # the bulk read refuses before it steps
    ev = ReducedEvolver(P463, ReducedState.origin(), 3)
    with pytest.raises(RadiusTooSmallError):
        ev.stratum_probability_rows(4)
    with pytest.raises(InvalidParamsError):
        ev.stratum_probability_rows(-1)
    assert ev.active == 0 and ev.stratum_probability_rows(3).shape == (4, 4)


def test_evolver_rejects_negative_counts():
    with pytest.raises(InvalidParamsError):
        ReducedEvolver(P463, ReducedState.origin(), -5)
    with pytest.raises(InvalidParamsError):
        ReducedEvolver(P463, ReducedState.origin(), 5, reach=-1)


@pytest.mark.parametrize("call", [
    lambda: ReducedEvolver(P463, ReducedState.origin(), 10 ** 11),
    lambda: origin_amplitude_series(P463, 10 ** 11),
    lambda: cesaro_strata(P463, 10 ** 11, 0),
    lambda: cesaro_strata(P463, 5, 10 ** 10),
], ids=["evolver", "origin-series", "cesaro-horizon", "cesaro-strata"])
def test_oversized_ladder_rejected_before_allocation(call):
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParamsError):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_ladder_cap_admits_its_own_size(monkeypatch):
    # amplitude's Psi_M evolved nmax steps, M + nmax <= 2097149 within the
    # quadrature degree cap, lies below the cap
    assert 2097149 + 2 <= reduction.MAX_LADDER_CELLS
    monkeypatch.setattr(reduction, "MAX_LADDER_CELLS", 100)
    assert ReducedState.zeros(99).length == 99
    assert len(ReducedEvolver(P463, ReducedState.origin(), 98).xp) == 100
    assert len(cesaro_strata(P463, 5, 99)) == 100
    for call in (lambda: ReducedState.zeros(100),
                 lambda: ReducedEvolver(P463, ReducedState.origin(), 99),
                 lambda: ReducedEvolver(P463, stratum_state(P463, 1), 98),
                 lambda: cesaro_strata(P463, 5, 100)):
        with pytest.raises(InvalidParamsError):
            call()


def test_evolver_read_guards():
    ev = ReducedEvolver(P463, ReducedState.origin(), 2)
    ev.step()
    ev.step()
    with pytest.raises(SpiderwalkError):
        ev.stratum_probability(-3)            # would wrap to the array's tail
    ev.state()

    ev = ReducedEvolver(P463, ReducedState.origin(), 10, reach=2)
    for _ in range(8):
        ev.step()
    ev.stratum_probability(2)
    ladder_amplitude(ev, 2)
    with pytest.raises(SpiderwalkError):
        ev.stratum_probability(3)
    with pytest.raises(RadiusTooSmallError):
        ladder_amplitude(ev, 3)
    with pytest.raises(SpiderwalkError):
        ev.stratum_probability(-1)
    with pytest.raises(InvalidParamsError):
        ladder_amplitude(ev, -1)
    with pytest.raises(SpiderwalkError):
        ev.state()


def test_reads_past_the_active_strata_are_zero_at_any_reach():
    # cells past `active` are exactly 0, so a read there is 0.0 at reach 0
    # and at the capacity (None) alike
    for reach in (0, None):
        ev = ReducedEvolver(P463, ReducedState.origin(), 10, reach=reach)
        for _ in range(3):
            ev.step()
        for stratum in (4, 12, 10 ** 6):
            assert ev.stratum_probability(stratum) == 0.0
            assert not np.signbit(ev.stratum_probability(stratum))


def test_stale_reads_raise():
    # strata in (reach, active] hold stale cells
    ev = ReducedEvolver(P463, ReducedState.origin(), 10, reach=2)
    for _ in range(5):
        ev.step()
    ev.stratum_probability(2)
    for stratum in (3, 4, 5):
        with pytest.raises(RadiusTooSmallError):
            ev.stratum_probability(stratum)
        with pytest.raises(RadiusTooSmallError):
            ladder_amplitude(ev, stratum)
    assert ev.stratum_probability(6) == 0.0


def test_state_needs_a_reach_of_the_capacity():
    # the capacity is length + max_steps = 2 + 5
    start = stratum_state(P463, 2)
    short = ReducedEvolver(P463, start, 5, reach=6)
    for n in range(6):
        with pytest.raises(RadiusTooSmallError):
            short.state()
        if n < 5:
            short.step()
    full = ReducedEvolver(P463, start, 5, reach=7)
    want = ReducedEvolver(P463, start, 5)
    for n in range(6):
        assert np.array_equal(full.state().coefficients(), want.state().coefficients())
        if n < 5:
            full.step()
            want.step()


@pytest.mark.parametrize("params", [P463, PTREE, PqParams(0.45, 0.44, 0.11)],
                         ids=["S463", "tree", "pqr"])
def test_reach_of_the_capacity_or_more_is_no_reach(params):
    # reach=None is reach=length + max_steps: M = min(front, left + reach + 1)
    # is front, so every step, read and state is the same to the bit, signs
    # included
    steps = 40
    rng = np.random.default_rng(5)
    for start in (ReducedState.origin(), stratum_state(params, 3), _random_reduced(rng, 3)):
        cap = start.length + steps
        evs = [ReducedEvolver(params, start, steps, reach=reach) for reach in (None, cap, cap + 3)]
        assert [ev.reach for ev in evs] == [cap, cap, cap + 3]
        for n in range(steps + 1):
            if n:
                for ev in evs:
                    ev.step()
            want_rows, want_state = evs[0].stratum_probability_rows(0), evs[0].state()
            assert want_rows.shape == (1, evs[0].active + 1)
            for ev in evs[1:]:
                for got, want in ((ev.stratum_probability_rows(0), want_rows),
                                  (ev.state().coefficients(), want_state.coefficients()),
                                  (ev._cells, evs[0]._cells)):
                    assert np.array_equal(got, want)
                    assert np.array_equal(np.signbit(got), np.signbit(want))
        bulk = [ReducedEvolver(params, start, steps, reach=reach).stratum_probability_rows(steps)
                for reach in (None, cap, cap + 3)]
        assert bulk[0].shape == (steps + 1, cap + 1)
        assert all(np.array_equal(rows, bulk[0]) for rows in bulk[1:])


@pytest.mark.parametrize("params", EVOLVER_CASES)
def test_ladder_amplitude_against_inner_product(params):
    # <Psi_l, .> from the three cells at stratum l, against one vdot with the
    # padded Psi_l; equal to the bit at the root, where it is the "+" cell.
    # A state of length 6 fills 8 cells: l = 7 lies past the active strata
    # and l = 8 past the arrays, and both read 0.
    rng = np.random.default_rng(11)
    for state in (_random_reduced(rng, 6), _random_reduced(rng, 6)):
        ev = ReducedEvolver(params, state, 0)
        assert ladder_amplitude(ev, 0) == inner(stratum_state(params, 0), state)
        for l in range(1, 9):
            want = inner(stratum_state(params, l), state)
            assert abs(ladder_amplitude(ev, l) - want) < 1e-15, l
        assert ladder_amplitude(ev, 7) == ladder_amplitude(ev, 8) == 0.0


def _per_step_cells(ev, steps, upto):
    """Coefficients of strata 0..upto after each of ``steps`` steps."""
    cells = [np.stack([ev.xp[:upto + 1], ev.xo[:upto + 1], ev.xm[:upto + 1]])]
    for _ in range(steps):
        ev.step()
        cells.append(np.stack([ev.xp[:upto + 1], ev.xo[:upto + 1], ev.xm[:upto + 1]]))
    return np.array(cells)


def _per_step_reads(ev, steps, reach):
    rows = []
    for n in range(steps + 1):
        if n > 0:
            ev.step()
        rows.append([ev.origin_probability()]
                    + [ev.stratum_probability(l) for l in range(reach + 1)]
                    + [ladder_amplitude(ev, l) for l in range(reach + 1)])
    return np.array(rows)


@pytest.mark.parametrize("params", [
    params_from_spidernet(SpidernetParams(4, 6, 3)),    # localizing
    params_from_spidernet(SpidernetParams(5, 6, 4)),    # threshold (b - c)^2 = c
    params_from_spidernet(SpidernetParams(3, 4, 3)),    # tree, r = 0
    PqParams(0.5, 0.5, 0.0),                            # r = 0 with p = q
], ids=["S463", "S564", "S343", "r0"])
def test_lightcone_truncation_is_exact(params):
    N = 2000
    full = ReducedEvolver(params, ReducedState.origin(), N)
    assert full.xp.dtype == np.float64
    full_cells = _per_step_cells(full, N, 4)
    for reach in (0, 1, 4):
        ev = ReducedEvolver(params, ReducedState.origin(), N, reach=reach)
        assert np.array_equal(_per_step_cells(ev, N, reach),
                              full_cells[:, :, :reach + 1])
        reads = _per_step_reads(
            ReducedEvolver(params, ReducedState.origin(), N, reach=reach), N, reach)
        assert np.array_equal(reads, _per_step_reads(
            ReducedEvolver(params, ReducedState.origin(), N), N, reach))
        # the bulk read, in one call or several, gives the per-stratum reads
        bulk = ReducedEvolver(params, ReducedState.origin(), N, reach=reach)
        rows = bulk.stratum_probability_rows(N)
        assert rows.shape == (N + 1, reach + 1)
        assert np.array_equal(rows, reads[:, 1:reach + 2])
        pieces = ReducedEvolver(params, ReducedState.origin(), N, reach=reach)
        first = pieces.stratum_probability_rows(0)
        assert first.shape == (1, 1)
        rows = np.vstack([first] + [pieces.stratum_probability_rows(k)[1:, :1]
                                    for k in (1, 2, N - 3)])
        assert np.array_equal(rows, reads[:, 1:2])


def test_stepped_cells_do_not_depend_on_the_width():
    # one step of M cells for every M in 1 .. 70 and a few larger, against
    # the step of all of them: every stepped coefficient equal to the bit
    rng = np.random.default_rng(11)
    L = 3000
    start = _random_reduced(rng, L)
    full = ReducedEvolver(P463, start, 1)
    assert full.xp.dtype == np.float64
    full.step()
    for M in [*range(1, 71), 1000, 2047, L - 1]:
        # the one step left coins cells 1 .. reach + 1
        ev = ReducedEvolver(P463, start, 1, reach=M - 1)
        ev.step()
        for got, want in ((ev.xp[:M], full.xp[:M]), (ev.xo[1:M + 1], full.xo[1:M + 1]),
                          (ev.xm[1:M + 2], full.xm[1:M + 2])):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("N", [37, 100, 257])
def test_lightcone_truncation_is_exact_at_every_width(N):
    # down to the last step, which coins one cell for reach 0
    for b in range(3, 12):
        for c in range(1, b):
            params = params_from_spidernet(SpidernetParams(1, b, c))
            full_cells = _per_step_cells(ReducedEvolver(params, ReducedState.origin(), N), N, 4)
            for reach in (0, 1, 4):
                got = _per_step_cells(
                    ReducedEvolver(params, ReducedState.origin(), N, reach=reach), N, reach)
                want = full_cells[:, :, :reach + 1]
                assert np.array_equal(got, want), (b, c, reach)
                assert np.array_equal(np.signbit(got), np.signbit(want)), (b, c, reach)


@pytest.mark.parametrize("bc, front", [
    ((6, 3), "retreats"),       # localizing
    ((10, 2), "retreats"),
    ((100_000, 3), "retreats"),
    ((4, 3), None),             # tree
    ((2, 1), "stays"),          # p = q: the walk moves out ballistically
], ids=["S63", "S102", "S1e5_3", "S43", "S21"])
def test_front_bounds_the_nonzero_cells(bc, front):
    steps = 4000
    ev = ReducedEvolver(params_from_spidernet(SpidernetParams(1, *bc)),
                        ReducedState.origin(), steps)
    lag = 0
    for _ in range(steps):
        ev.step()
        assert 0 <= ev.front <= ev.active
        assert not np.any(ev.xp[ev.front + 1:]) and not np.any(ev.xo[ev.front + 1:])
        assert not np.any(ev.xm[ev.front + 1:])
        lag = max(lag, ev.active - ev.front)
    if front is not None:
        assert (lag > 0) == (front == "retreats")


@pytest.mark.parametrize("abc", [(4, 6, 3), (5, 6, 4), (3, 4, 3)])
def test_front_matches_the_unflushed_walk(abc):
    # the flush changes no bit of the read strata over the ladder jobs' horizon,
    # signed zeros included: the tree's cells hold -0.0, which prints as "-0"
    params = params_from_spidernet(SpidernetParams(*abc))
    ev = ReducedEvolver(params, ReducedState.origin(), 10_000, reach=4)
    got, want = _per_step_cells(ev, 10_000, 4), unflushed_ladder_walk(params, 10_000, 4)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("params", EVOLVER_CASES)
def test_step_matches_a_per_op_step(params):
    # every cell of the evolver, and its front, against the oracle's step and
    # the same flush
    ev = ReducedEvolver(params, stratum_state(params, 3), 1500)
    cells = np.stack([ev.xp, ev.xo, ev.xm])
    for _ in range(1500):
        M = ev.front
        ev.step()
        ladder_step(params, cells, M)
        f = M + 1
        while f > 0 and np.all(np.abs(cells[:, f]) < np.finfo(float).tiny):
            cells[:, f] = 0.0
            f -= 1
        assert ev.front == f
        got = np.stack([ev.xp, ev.xo, ev.xm])
        assert np.array_equal(got, cells)
        assert np.array_equal(np.signbit(got), np.signbit(cells))


@pytest.mark.parametrize("params", [
    P463, PqParams(0.75, 0.25, 0.0), PqParams(0.5, 0.25, 0.25),
], ids=["S463", "S343", "S342"])
def test_front_keeps_the_origin_series_of_criterion_4(params, origin_series_20k):
    assert np.array_equal(origin_series_20k(params),
                          unflushed_ladder_walk(params, 20_000, 0)[:, 0, 0])


def test_front_moves_last_digits_for_s_10_2():
    # rounding flips climb from the flushed tail to the origin by step 19 139
    params = params_from_spidernet(SpidernetParams(1, 10, 2))
    series = origin_amplitude_series(params, 20_000)
    unflushed = unflushed_ladder_walk(params, 20_000, 0)[:, 0, 0]
    assert not np.array_equal(series, unflushed)
    assert np.max(np.abs(series - unflushed)) < 1e-13


@pytest.mark.parametrize("abc, steps, reach, parent_error", [
    ((4, 6, 3), 10_000, 4, 5.24e-15),
    ((5, 6, 4), 10_000, 4, 3.44e-16),
    ((3, 4, 3), 10_000, 4, 1.63e-16),
    ((1, 10, 2), 20_000, 0, 1.37e-14),
], ids=["S463", "S564", "S343", "S102"])
def test_ladder_rounding_against_a_long_double_ladder(abc, steps, reach, parent_error):
    # cells of the read strata after every step, against the same coin
    # entries stepped in extended precision; parent_error is the largest
    # error of the five-call kernel that the coin's one product replaced
    params = params_from_spidernet(SpidernetParams(*abc))
    got = _per_step_cells(ReducedEvolver(params, ReducedState.origin(), steps, reach=reach),
                          steps, reach)
    want = unflushed_ladder_walk(params, steps, reach, np.longdouble)
    err = float(np.max(np.abs(got - want)))
    assert err < 2 * parent_error


@pytest.mark.parametrize("slot", [0, 1, 2])
def test_complex_reduced_states_are_refused(slot):
    # the reduced walk is real, so a complex state is two real ones; a
    # float64 cast would drop the imaginary part without a word
    parts = [[1.0, 0.5], [0.0, 0.5], [0.0, 0.5]]
    parts[slot] = np.array(parts[slot]) * np.exp(0.7j)
    with pytest.raises(DimensionMismatchError):
        ReducedState(*parts)
    parts[slot] = parts[slot].real + 0j
    with pytest.raises(DimensionMismatchError):
        ReducedState(*parts)


def test_inner_and_stratum_state():
    psi2 = stratum_state(P463, 2)
    assert abs(reduced_norm(psi2) - 1.0) < 1e-15
    assert inner(psi2, psi2) == pytest.approx(1.0)
    assert inner(stratum_state(P463, 1), psi2) == 0.0
    with pytest.raises(InvalidParamsError):
        stratum_state(P463, -1)


def test_embed_origin_is_isotropic_state():
    g = build_spidernet(SpidernetParams(4, 6, 3), 3)
    full = embed(g, ReducedState.origin())
    assert np.max(np.abs(full - isotropic_initial_state(g))) == 0.0


def test_embed_is_isometry():
    g = build_spidernet(SpidernetParams(4, 6, 3), 6)
    rng = np.random.default_rng(9)
    for length in (0, 1, 3, 5):
        s = _random_reduced(rng, length)
        assert abs(np.linalg.norm(embed(g, s)) - reduced_norm(s)) < 1e-13


def test_embed_intertwines_evolutions():
    g = build_spidernet(SpidernetParams(4, 6, 3), 9)
    rng = np.random.default_rng(13)
    for _ in range(10):
        s = _random_reduced(rng, 2)
        full = GraphEvolver(g, embed(g, s), 5)
        ev = ReducedEvolver(P463, s, 5)
        for _ in range(5):
            ev.step()
            full.step()
        assert np.max(np.abs(full.state() - embed(g, ev.state()))) < 1e-12


def test_embed_guards():
    g = build_spidernet(SpidernetParams(4, 6, 3), 2)
    with pytest.raises(RadiusTooSmallError):
        embed(g, ReducedState.zeros(2))
    tree = build_spidernet(SpidernetParams(3, 4, 3), 3)
    s = ReducedState.zeros(1)
    s.xo[1] = 1.0
    with pytest.raises(InvalidParamsError):
        embed(tree, s)


def test_build_T_matrix():
    t = build_T(PqParams(0.5, 0.25, 0.25), 2)
    p, q, r = 0.5, 0.25, 0.25
    expected = np.array([[0, np.sqrt(q), 0],
                         [np.sqrt(q), r, np.sqrt(p)],
                         [0, np.sqrt(p), 0]])
    assert np.max(np.abs(jacobi_dense(t) - expected)) < 1e-15
    with pytest.raises(InvalidParamsError):
        u_eigensystem(P463, 1)


@pytest.mark.parametrize("cutoff", [MAX_CUTOFF + 1, 10 ** 9])
def test_oversized_cutoff_rejected_before_allocation(cutoff):
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParamsError):
            u_eigensystem(P463, cutoff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_T_contains_eigenvalue_one():
    for params in (P463, PTREE):
        for N in (2, 5, 9):
            dense = jacobi_dense(build_T(params, N))
            assert abs(np.linalg.det(dense - np.eye(N + 1))) < 1e-12
            assert np.all(np.diag(dense @ dense) <= 1 + 1e-12)
            assert abs(np.trace(dense) - params.r * (N - 1)) < 1e-14


def test_eigensystem_T():
    vals, vecs = eigensystem_T(build_T(P463, 8))
    assert abs(vals[0] - 1.0) < 1e-12
    assert np.all(np.diff(vals) < 0)
    assert np.all(np.abs(vals) <= 1 + 1e-12)
    assert vals[-1] > -1 + 1e-6          # r > 0 keeps -1 out of the spectrum
    assert np.max(np.abs(vecs.T @ vecs - np.eye(9))) < 1e-12

    tvals, _ = eigensystem_T(build_T(PTREE, 8))
    assert abs(tvals[-1] + 1.0) < 1e-12  # r = 0 puts -1 in the spectrum


def test_eigenvectors_follow_orthonormal_polynomials():
    # interior components: Omega_j[n] = <Omega_j, Psi_0> p_n(lambda_j) for n < N
    N = 8
    law = law_from_pq(P463)
    vals, vecs = eigensystem_T(build_T(P463, N))
    pn = orthonormal_sequence(law, N, vals)       # pn[n, j] = p_n(lambda_j)
    worst = 0.0
    for j in range(N + 1):
        scale = vecs[0, j]
        for n in range(N):
            worst = max(worst, abs(vecs[n, j] - scale * pn[n, j]))
    assert worst < 1e-9

    # the last component follows sqrt(q) p_N, not p_N; report the gap
    naive = max(abs(vecs[N, j] - vecs[0, j] * pn[N, j]) for j in range(N + 1))
    scaled = max(abs(vecs[N, j] - vecs[0, j] * np.sqrt(P463.q) * pn[N, j])
                 for j in range(N + 1))
    print(f"\nlast-component check (N={N}): plain p_N formula deviates by {naive:.3e}, "
          f"sqrt(q) p_N matches to {scaled:.3e}")
    assert scaled < 1e-9


def test_cutoff_layout():
    N = 4
    assert cutoff_dim(N) == 11
    assert cutoff_index(0, "+", N) == 0
    assert cutoff_index(1, "+", N) == 1
    assert cutoff_index(3, "-", N) == 9
    assert cutoff_index(N, "-", N) == 10
    with pytest.raises(InvalidParamsError):
        cutoff_psi_vector(P463, N, N + 1)
    psi0 = cutoff_psi_vector(P463, N, 0)
    assert psi0[0] == 1.0 and np.count_nonzero(psi0) == 1
    psiN = cutoff_psi_vector(P463, N, N)
    assert psiN[10] == 1.0 and np.count_nonzero(psiN) == 1
    psi2 = cutoff_psi_vector(P463, N, 2)
    assert abs(np.linalg.norm(psi2) - 1.0) < 1e-15


def test_cutoff_walk_matrix_is_orthogonal():
    for params in (P463, PTREE):
        for N in (2, 5, 8):
            u = cutoff_walk_matrix(params, N)
            assert np.max(np.abs(u @ u.T - np.eye(len(u)))) < 1e-14
            assert abs(np.trace(u) - (2 * params.r - 1) * (N - 1)) < 1e-12


def test_u_eigensystem_multiplicities():
    sys5 = u_eigensystem(P463, 5)
    assert sys5.minus_one_multiplicity == 3
    assert len(sys5.thetas) == 5
    assert np.all(np.diff(sys5.thetas) > 0)
    assert np.all((sys5.thetas > 0) & (sys5.thetas < np.pi))

    tree5 = u_eigensystem(PTREE, 5)
    assert tree5.minus_one_multiplicity == 5
    assert len(tree5.thetas) == 4

    # p = q = 1e-300: pq underflows to 0 and leaves the band no width,
    # refused as the spectral law refuses it
    with pytest.raises(ParamsOutOfRangeError, match="pq underflows"):
        u_eigensystem(PqParams(1e-300, 1e-300, 1.0), 4)
    # p = q = 1e-160: pq = 1e-320 is subnormal, short of digits, and the
    # counts of T_N - 1 cannot prove the eigenvalue 1 within the
    # certificate's tolerance
    with pytest.raises(ConvergenceFailureError, match="not isolated"):
        u_eigensystem(PqParams(1e-160, 1e-160, 1.0), 4)


def test_residual_check_rejects_perturbed_eigenvector(perturbed_eigensolver):
    with pytest.raises(ConvergenceFailureError, match="residual"):
        eigensystem_T(build_T(P463, 8))
    with pytest.raises(ConvergenceFailureError, match="residual"):
        discrete_spectral_measure(P463, 8)


@pytest.mark.parametrize("fault, message", [("shifted_root", "not isolated"),
                                            ("dropped_root", "found 8 of the 9"),
                                            ("merged_root", "not isolated")])
def test_certificate_rejects_a_bad_root(request, fault, message):
    request.getfixturevalue(fault)
    with pytest.raises(ConvergenceFailureError, match=message):
        u_eigensystem(P463, 8)


@pytest.mark.parametrize("params, end", [(P463, 1.0), (PTREE, -1.0)], ids=["top", "bottom-tree"])
def test_certificate_rejects_a_miscounted_end(monkeypatch, params, end):
    # one eigenvalue fewer below the points y in (0, 1e-9) of T_N - end: no
    # eigenvalue of T_N sits at 1, or at -1 when r = 0
    count = reduction._sturm_count
    monkeypatch.setattr(reduction, "_sturm_count",
                        lambda p, N, y, e: count(p, N, y, e) - (e == end and 0 < y < 1e-9))
    with pytest.raises(ConvergenceFailureError, match="eigenvalue 1 or -1"):
        u_eigensystem(params, 8)


def _u_eigenvectors(params, N, shift):
    """The spectral mapping as an oracle: an eigenpair (lambda, Omega) of
    T_N gives, with omega = sum_n Omega[n] Psi_n, the eigenvector omega of
    U_N for lambda = 1 and the unit eigenvectors
    (omega - e^{+-i theta} S omega) / (sqrt(2) sin theta) for the interior
    ones.  Returns the ground vector, the thetas and the plus and minus
    eigenvectors in cutoff coordinates."""
    thetas = u_eigensystem(params, N).thetas
    _, vecs = eigensystem_T(build_T(params, N))
    psi = np.column_stack([cutoff_psi_vector(params, N, n) for n in range(N + 1)])
    omega = psi @ vecs
    interior = omega[:, 1:len(thetas) + 1]
    s_interior = shift @ interior
    phases = np.exp(1j * thetas)
    plus, minus = ((interior - ph * s_interior) / (np.sqrt(2.0) * np.sin(thetas))
                   for ph in (phases, np.conj(phases)))
    return omega[:, 0], thetas, plus, minus


def test_u_eigensystem_eigenvectors(cutoff_shift):
    ground, thetas, plus, _ = _u_eigenvectors(P463, 6, cutoff_shift(6))
    u = cutoff_walk_matrix(P463, 6)
    assert np.linalg.norm(u @ ground - ground) < 1e-10
    phases = np.exp(1j * thetas)
    assert np.max(np.abs(u @ plus - phases * plus)) < 1e-10
    norms = np.linalg.norm(plus, axis=0)
    assert np.max(np.abs(norms - 1.0)) < 1e-10


def test_u_eigensystem_against_dense_walk_matrix(cutoff_shift):
    # the spectral mapping against the dense U_N; also the O(N) trace
    for params in (P463, PTREE, PqParams(0.5, 0.5, 0.0)):
        for N in (2, 3, 8, 40, 400):
            system = u_eigensystem(params, N)
            u = cutoff_walk_matrix(params, N)
            assert system.trace == float(np.trace(u))
            ground, thetas, plus, minus = _u_eigenvectors(params, N, cutoff_shift(N))
            assert np.linalg.norm(u @ ground - ground) < 1e-10
            assert abs(np.linalg.norm(ground) - 1.0) < 1e-10
            phases = np.exp(1j * thetas)
            for eig, ph in ((plus, phases), (minus, np.conj(phases))):
                assert np.max(np.abs(u @ eig - ph * eig), initial=0.0) < 1e-10
                norms = np.linalg.norm(eig, axis=0)
                assert np.max(np.abs(norms - 1.0), initial=0.0) < 1e-10


def test_spectral_reconstruction():
    # reduced-walk amplitudes equal sum_j cos(n theta_j) * weight_j
    amps = origin_amplitude_series(P463, 50)
    for n in (0, 1, 5, 17, 50):
        lam, w = discrete_spectral_measure(P463, n + 2)
        recon = float(np.sum(np.cos(n * np.arccos(np.clip(lam, -1, 1))) * w))
        assert abs(recon - amps[n]) < 1e-10


def test_shift_inner_product_identities(cutoff_shift):
    # <S Psi_l, U^n Psi_m> = <Psi_l, U^{n-1} Psi_m> and the S-right/S-both variants
    l, m, N = 2, 1, 12
    u = cutoff_walk_matrix(P463, N)
    psi_l = cutoff_psi_vector(P463, N, l)
    psi_m = cutoff_psi_vector(P463, N, m)
    s_psi_l = cutoff_shift(N) @ psi_l
    s_psi_m = cutoff_shift(N) @ psi_m

    def amp(bra, ket, n):
        return float(bra @ np.linalg.matrix_power(u, n) @ ket)

    for n in (1, 2, 5):
        assert abs(amp(s_psi_l, psi_m, n) - amp(psi_l, psi_m, n - 1)) < 1e-12
        assert abs(amp(psi_l, s_psi_m, n) - amp(psi_l, psi_m, n + 1)) < 1e-12
        assert abs(amp(s_psi_l, s_psi_m, n) - amp(psi_l, psi_m, n)) < 1e-12


def test_cutoff_independence():
    # amplitudes don't depend on the cutoff once N > min(l+n, m+n)
    l, m, n = 1, 2, 5
    results = []
    for N in (8, 12):
        u = cutoff_walk_matrix(P463, N)
        vec = cutoff_psi_vector(P463, N, m)
        for _ in range(n):
            vec = u @ vec
        results.append(float(cutoff_psi_vector(P463, N, l) @ vec))
    assert abs(results[0] - results[1]) < 1e-13

    ev = ReducedEvolver(P463, stratum_state(P463, m), n, reach=l)
    for _ in range(n):
        ev.step()
    assert abs(results[0] - ladder_amplitude(ev, l)) < 1e-12


@pytest.mark.parametrize("abc, l, m, nmax", [
    ((4, 6, 3), 0, 0, 300), ((4, 6, 3), 3, 2, 60), ((6, 12, 9), 40, 7, 30),
    ((4, 4, 3), 1, 0, 40), ((4, 4, 3), 2, 5, 40), ((1, 10, 2), 0, 3, 2000),
    # l = m + nmax, the last stratum reached, one past it, and far past it
    ((4, 6, 3), 5, 2, 3), ((4, 6, 3), 6, 2, 3), ((4, 6, 3), 100000, 0, 10),
])
def test_amplitude_series_is_the_interleaved_evolver_loop(abc, l, m, nmax):
    # one evolver from Psi_m with reach l, read at l after every step; the
    # tree S(4, 4, 3) reads zeros on every other step
    params = params_from_spidernet(SpidernetParams(*abc))
    ev = ReducedEvolver(params, stratum_state(params, m), nmax, reach=l)
    want = []
    for n in range(nmax + 1):
        if n > 0:
            ev.step()
        want.append(ladder_amplitude(ev, l))
    want = np.array(want, dtype=float)
    got = origin_amplitude_series(params, nmax, l, m)
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    if (l, m) == (0, 0):
        assert np.array_equal(origin_amplitude_series(params, nmax), want)


def test_discrete_spectral_measure():
    lam, w = discrete_spectral_measure(P463, 6)
    assert np.all(w > 0)
    assert abs(w.sum() - 1.0) < 1e-12
    t = jacobi_dense(build_T(P463, 6))
    for mpow in (1, 2, 3, 7):
        direct = np.linalg.matrix_power(t, mpow)[0, 0]
        assert abs(float(np.sum(lam ** mpow * w)) - direct) < 1e-12

    # half-line with p = q = 1/2: atoms at 1, 0, -1 with weights 1/4, 1/2, 1/4
    lam2, w2 = discrete_spectral_measure(PqParams(0.5, 0.5, 0.0), 2)
    assert np.max(np.abs(lam2 - np.array([1.0, 0.0, -1.0]))) < 1e-12
    assert np.max(np.abs(w2 - np.array([0.25, 0.5, 0.25]))) < 1e-12
