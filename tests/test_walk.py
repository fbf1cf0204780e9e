import numpy as np
import pytest

from spiderwalk import (
    DimensionMismatchError,
    GraphEvolver,
    InvalidParamsError,
    RadiusTooSmallError,
    SpidernetParams,
    build_spidernet,
    cesaro_origin,
    coin_apply,
    evolve,
    half_edge_permutation,
    isotropic_initial_state,
    params_from_spidernet,
    rotation_permutation,
    shift_apply,
    step,
    stratum_distribution,
    time_averaged_distribution,
    vertex_distribution,
)


def _random_state(g, rng):
    s = rng.standard_normal(g.num_half_edges) + 1j * rng.standard_normal(g.num_half_edges)
    return s / np.linalg.norm(s)


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


def test_coin_fixes_isotropic_block():
    g = build_spidernet(SpidernetParams(4, 6, 3), 2)
    s = isotropic_initial_state(g)
    assert np.allclose(coin_apply(g, s), s, atol=1e-15)


def test_coin_swaps_degree_two_block():
    # on a path, the coin 2/2 - I at a degree-2 vertex is the swap matrix
    g = build_spidernet(SpidernetParams(1, 2, 1), 3)
    s = np.zeros(g.num_half_edges, dtype=np.complex128)
    s[g.half_edge_index(1, 0)] = 1.0
    out = coin_apply(g, s)
    assert out[g.half_edge_index(1, 0)] == 0.0
    assert out[g.half_edge_index(1, 2)] == 1.0


def test_involutions():
    g = build_spidernet(SpidernetParams(4, 6, 3), 3)
    rng = np.random.default_rng(3)
    s = _random_state(g, rng)
    assert np.max(np.abs(coin_apply(g, coin_apply(g, s)) - s)) < 1e-14
    assert np.max(np.abs(shift_apply(g, shift_apply(g, s)) - s)) < 1e-14


def test_shift_moves_basis_states():
    g = build_spidernet(SpidernetParams(4, 6, 3), 2)
    s = np.zeros(g.num_half_edges, dtype=np.complex128)
    s[g.half_edge_index(0, 2)] = 1.0
    out = shift_apply(g, s)
    assert out[g.half_edge_index(2, 0)] == 1.0
    assert np.count_nonzero(out) == 1


def test_unitarity_random_states():
    g = build_spidernet(SpidernetParams(4, 6, 3), 3)
    rng = np.random.default_rng(11)
    for _ in range(100):
        s = _random_state(g, rng)
        assert abs(np.linalg.norm(step(g, s)) - 1.0) < 1e-12


def test_step_from_root():
    g = build_spidernet(SpidernetParams(4, 6, 3), 3)
    s0 = isotropic_initial_state(g)
    s1 = step(g, s0)
    # only half-edges pointing back at the root carry amplitude
    support = np.nonzero(np.abs(s1) > 1e-15)[0]
    assert np.all(g.he_dst[support] == 0)
    assert abs(np.vdot(s0, s1)) < 1e-15


def test_support_growth():
    g = build_spidernet(SpidernetParams(4, 6, 3), 6)
    s = isotropic_initial_state(g)
    for n in range(1, 5):
        s = step(g, s)
        src_strata = g.vertex_stratum[g.he_src]
        beyond = np.abs(s[src_strata > n + 1])
        assert beyond.size == 0 or np.max(beyond) == 0.0


def test_reality():
    g = build_spidernet(SpidernetParams(4, 6, 3), 7)
    s = evolve(g, isotropic_initial_state(g), 5)
    assert np.max(np.abs(s.imag)) < 1e-13


def test_rotation_equivariance():
    g = build_spidernet(SpidernetParams(4, 6, 3), 4)
    hperm = half_edge_permutation(g, rotation_permutation(g))
    rng = np.random.default_rng(5)
    s = _random_state(g, rng)
    assert np.max(np.abs(step(g, s)[hperm] - step(g, s[hperm]))) < 1e-13


def test_vertex_distribution():
    g = build_spidernet(SpidernetParams(4, 6, 3), 5)
    s = evolve(g, isotropic_initial_state(g), 3)
    dist = vertex_distribution(g, s)
    assert np.all(dist >= 0)
    assert abs(dist.sum() - 1.0) < 1e-12
    by_stratum = stratum_distribution(g, s)
    assert abs(by_stratum.sum() - 1.0) < 1e-12
    assert by_stratum.shape == (g.radius + 1,)


def test_time_averaged_distribution():
    g = build_spidernet(SpidernetParams(4, 6, 3), 11)
    s0 = isotropic_initial_state(g)
    one = time_averaged_distribution(g, s0, 1)
    assert one[0] == 1.0 and abs(one.sum() - 1.0) < 1e-14

    # origin entry over 10 steps matches the reduced-walk Cesaro average
    avg = time_averaged_distribution(g, s0, 10)
    params = params_from_spidernet(g.params)
    assert abs(avg[0] - cesaro_origin(params, 10)) < 1e-10

    # the per-step loop the evolver replaced; float64 and complex128 sums
    # of a block may differ in the last bit
    acc = vertex_distribution(g, s0)
    s = s0
    for _ in range(9):
        s = step(g, s)
        acc += vertex_distribution(g, s)
    assert np.max(np.abs(avg - acc / 10)) <= 1e-15

    with pytest.raises(InvalidParamsError):
        time_averaged_distribution(g, s0, 0)


def test_evolve_guards():
    g = build_spidernet(SpidernetParams(4, 6, 3), 3)
    s = isotropic_initial_state(g)
    with pytest.raises(RadiusTooSmallError):
        evolve(g, s, 2)
    with pytest.raises(InvalidParamsError):
        evolve(g, s, -1)
    with pytest.raises(DimensionMismatchError):
        step(g, s[:-1])


def _he_end(g, stratum):
    """Number of half-edges leaving strata <= stratum."""
    return g.adj_ptr[g.stratum_offsets[stratum + 1]]


@pytest.mark.parametrize("abc, radius", [
    ((4, 6, 3), 7),     # localizing
    ((4, 6, 4), 6),     # threshold (b - c)^2 = c
    ((3, 4, 3), 7),     # tree
    ((3, 4, 1), 12),    # c = 1
])
def test_evolver_matches_step_loop(abc, radius):
    g = build_spidernet(SpidernetParams(*abc), radius)
    iso = isotropic_initial_state(g)
    phased = np.exp(0.7j) * iso
    real_ev, cplx_ev = GraphEvolver(g, iso), GraphEvolver(g, phased)
    assert real_ev._psi.dtype == np.float64 and cplx_ev._psi.dtype == np.complex128
    ref, ref_phased = iso, phased
    for n in range(1, radius - 1):
        real_ev.step()
        cplx_ev.step()
        ref, ref_phased = step(g, ref), step(g, ref_phased)
        assert real_ev.top == cplx_ev.top == n
        # nothing past the prefix, in the reference or in the kernel's buffers
        assert not ref[_he_end(g, n):].any()
        for ev in (real_ev, cplx_ev):
            assert not ev._psi[_he_end(g, n):].any()
            assert not ev._coined[_he_end(g, n - 1):].any()
        # the complex128 kernel does the step loop's arithmetic; the float64
        # one may sum a vertex block in another order
        assert np.array_equal(cplx_ev.state(), ref_phased)
        full = real_ev.state()
        assert full.dtype == np.complex128
        assert np.max(np.abs(full - ref)) <= 1e-15
        assert np.max(np.abs(real_ev.stratum_distribution()
                             - stratum_distribution(g, ref))) <= 1e-15


def test_evolver_arbitrary_states():
    g = build_spidernet(SpidernetParams(4, 6, 3), 4)
    rng = np.random.default_rng(17)
    cplx = _random_state(g, rng)
    real = cplx.real / np.linalg.norm(cplx.real)
    basis = np.zeros(g.num_half_edges, dtype=np.complex128)
    basis[g.half_edge_index(g.vertex_id(2, 5), g.vertex_id(3, 15))] = 1.0
    for state, top, exact in ((cplx, 4, True), (real + 0j, 4, False), (basis, 2, False)):
        ev = GraphEvolver(g, state)
        assert ev.top == top
        ref = state
        for _ in range(3):
            ev.step()
            ref = step(g, ref)
            if exact:
                assert np.array_equal(ev.state(), ref)
            else:
                assert np.max(np.abs(ev.state() - ref)) <= 1e-15
        assert np.max(np.abs(ev.vertex_distribution() - vertex_distribution(g, ref))) <= 1e-15
