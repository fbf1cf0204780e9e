import numpy as np
import pytest

from spiderwalk import (
    DimensionMismatchError,
    InvalidParamsError,
    ParamsOutOfRangeError,
    PqParams,
    RadiusTooSmallError,
    ReducedEvolver,
    ReducedState,
    SpidernetParams,
    SpiderwalkError,
    build_T,
    build_spidernet,
    cutoff_dim,
    cutoff_index,
    cutoff_psi_vector,
    cutoff_walk_matrix,
    discrete_spectral_measure,
    eigensystem_T,
    embed,
    evolve,
    inner,
    isotropic_initial_state,
    normalized_p,
    law_from_pq,
    origin_probability,
    params_from_spidernet,
    reduced_coin,
    reduced_evolve,
    reduced_shift,
    reduced_step,
    stratum_probability,
    stratum_state,
    u_eigensystem,
)

P463 = PqParams(0.5, 1.0 / 6.0, 1.0 / 3.0)
PTREE = PqParams(0.75, 0.25, 0.0)


def _random_reduced(rng, length):
    xp = rng.standard_normal(length + 1) + 1j * rng.standard_normal(length + 1)
    xo = rng.standard_normal(length + 1) + 1j * rng.standard_normal(length + 1)
    xm = rng.standard_normal(length + 1) + 1j * rng.standard_normal(length + 1)
    xo[0] = xm[0] = 0.0
    s = ReducedState(xp, xo, xm)
    scale = s.norm()
    return ReducedState(xp / scale, xo / scale, xm / scale)


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
    # r within 1e-14 of zero snaps to exactly zero
    assert PqParams(0.75, 0.25, 1e-15).r == 0.0
    assert PqParams.from_pq(0.5, 0.25).r == 0.25


def test_reduced_state_basics():
    s = ReducedState.origin()
    assert s.length == 0 and s.norm() == 1.0
    assert origin_probability(s) == 1.0
    with pytest.raises(DimensionMismatchError):
        ReducedState([0.0], [1.0], [0.0])
    with pytest.raises(DimensionMismatchError):
        ReducedState([1.0, 0.0], [0.0], [0.0])
    z = ReducedState.zeros(3)
    assert z.length == 3 and z.norm() == 0.0
    c = s.coefficients(2)
    assert c.shape == (3, 3) and c[0, 0] == 1.0 and np.count_nonzero(c) == 1


def test_coin_fixes_ladder_vectors():
    for params in (P463, PTREE):
        for n in (0, 1, 3):
            psi = stratum_state(params, n)
            out = reduced_coin(params, psi)
            assert np.max(np.abs(out.coefficients() - psi.coefficients())) < 1e-15


def test_coin_negates_orthocomplement():
    p, q, r = P463.p, P463.q, P463.r
    # a vector orthogonal to (sqrt p, sqrt r, sqrt q) in the n=2 triple
    s = ReducedState.zeros(2)
    s.xp[2] = np.sqrt(r)
    s.xo[2] = -np.sqrt(p)
    out = reduced_coin(P463, s)
    assert np.max(np.abs(out.coefficients() + s.coefficients())) < 1e-15


def test_coin_involution_and_root_fixed():
    rng = np.random.default_rng(2)
    s = _random_reduced(rng, 4)
    twice = reduced_coin(P463, reduced_coin(P463, s))
    assert np.max(np.abs(twice.coefficients() - s.coefficients())) < 1e-14
    assert reduced_coin(P463, s).xp[0] == s.xp[0]


def test_shift():
    s1 = reduced_shift(P463, ReducedState.origin())
    assert s1.xm[1] == 1.0 and abs(s1.xp[0]) == 0.0

    s = ReducedState.zeros(2)
    s.xo[2] = 1.0
    out = reduced_shift(P463, s)
    assert out.xo[2] == 1.0 and out.norm() == 1.0

    rng = np.random.default_rng(4)
    v = _random_reduced(rng, 3)
    twice = reduced_shift(P463, reduced_shift(P463, v))
    assert np.max(np.abs(twice.coefficients(v.length) - v.coefficients())) < 1e-15


def test_step_leaves_origin():
    s = reduced_step(P463, ReducedState.origin())
    assert origin_probability(s) == 0.0
    assert abs(s.norm() - 1.0) < 1e-14


def test_norm_preserved_over_long_run():
    ev = ReducedEvolver(P463, ReducedState.origin(), 10_000)
    for _ in range(10_000):
        ev.step()
    assert abs(ev.state().norm() - 1.0) < 1e-10


def test_evolver_matches_functional_steps():
    s = ReducedState.origin()
    ev = ReducedEvolver(P463, ReducedState.origin(), 12)
    for n in range(12):
        s = reduced_step(P463, s)
        ev.step()
        assert abs(origin_probability(s) - ev.origin_probability()) < 1e-15
        for l in (0, 1, n + 1):
            assert abs(stratum_probability(s, l) - ev.stratum_probability(l)) < 1e-15
    assert np.max(np.abs(ev.state().coefficients(s.length) - s.coefficients())) < 1e-14


def test_evolver_horizon_guard():
    ev = ReducedEvolver(P463, ReducedState.origin(), 1)
    ev.step()
    with pytest.raises(RadiusTooSmallError):
        ev.step()


def test_evolver_rejects_negative_counts():
    with pytest.raises(InvalidParamsError):
        ReducedEvolver(P463, ReducedState.origin(), -5)
    with pytest.raises(InvalidParamsError):
        ReducedEvolver(P463, ReducedState.origin(), 5, reach=-1)


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
    with pytest.raises(SpiderwalkError):
        ev.stratum_probability(3)
    with pytest.raises(SpiderwalkError):
        ev.stratum_probability(-1)
    with pytest.raises(SpiderwalkError):
        ev.state()


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
        rows.append([ev.origin_amplitude().real, ev.origin_probability()]
                    + [ev.stratum_probability(l) for l in range(reach + 1)])
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


def test_evolver_complex_state_is_phase_times_real():
    rng = np.random.default_rng(7)
    real = _random_reduced(rng, 5)
    real = ReducedState(real.xp.real, real.xo.real, real.xm.real)
    steps = 300
    ev_real = ReducedEvolver(P463, real, steps)
    assert ev_real.xp.dtype == np.float64
    for _ in range(steps):
        ev_real.step()
    expected = ev_real.state().coefficients()
    # multiplying by +-i is exact, so the result must be exactly +-i times the real one
    for phase in (1j, -1j):
        start = ReducedState(phase * real.xp, phase * real.xo, phase * real.xm)
        ev = ReducedEvolver(P463, start, steps)
        assert ev.xp.dtype == np.complex128
        for _ in range(steps):
            ev.step()
        assert ev.xp.dtype == np.complex128
        assert np.array_equal(ev.state().coefficients(), phase * expected)
    # any other phase: real and imaginary parts evolve as two real states
    phase = np.exp(0.7j)
    parts = []
    for scale in (phase.real, phase.imag):
        ev = ReducedEvolver(P463, ReducedState(scale * real.xp, scale * real.xo,
                                               scale * real.xm), steps)
        for _ in range(steps):
            ev.step()
        parts.append(ev.state().coefficients())
    ev = ReducedEvolver(P463, ReducedState(phase * real.xp, phase * real.xo,
                                           phase * real.xm), steps)
    for _ in range(steps):
        ev.step()
    got = ev.state().coefficients()
    assert np.array_equal(got.real, parts[0].real)
    assert np.array_equal(got.imag, parts[1].real)
    assert np.max(np.abs(got - phase * expected)) < 1e-14


def test_inner_and_stratum_state():
    psi2 = stratum_state(P463, 2)
    assert abs(psi2.norm() - 1.0) < 1e-15
    assert inner(psi2, psi2) == pytest.approx(1.0)
    assert inner(stratum_state(P463, 1), psi2) == 0.0
    with pytest.raises(ValueError):
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
        assert abs(np.linalg.norm(embed(g, s)) - s.norm()) < 1e-13


def test_embed_intertwines_evolutions():
    g = build_spidernet(SpidernetParams(4, 6, 3), 9)
    rng = np.random.default_rng(13)
    from spiderwalk import step as full_step
    for _ in range(10):
        s = _random_reduced(rng, 2)
        full = embed(g, s)
        for _ in range(5):
            s = reduced_step(P463, s)
            full = full_step(g, full)
        assert np.max(np.abs(full - embed(g, s))) < 1e-12


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
    assert np.max(np.abs(t.dense() - expected)) < 1e-15
    with pytest.raises(InvalidParamsError):
        build_T(P463, 1)


def test_T_contains_eigenvalue_one():
    for params in (P463, PTREE):
        for N in (2, 5, 9):
            dense = build_T(params, N).dense()
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
    assert np.all(vecs[0, :] > 0)        # sign convention <Omega_j, Psi_0> > 0

    tvals, _ = eigensystem_T(build_T(PTREE, 8))
    assert abs(tvals[-1] + 1.0) < 1e-12  # r = 0 puts -1 in the spectrum


def test_eigenvectors_follow_orthonormal_polynomials():
    # interior components: Omega_j[n] = <Omega_j, Psi_0> p_n(lambda_j) for n < N
    N = 8
    law = law_from_pq(P463)
    vals, vecs = eigensystem_T(build_T(P463, N))
    worst = 0.0
    for j, lam in enumerate(vals):
        scale = vecs[0, j]
        for n in range(N):
            worst = max(worst, abs(vecs[n, j] - scale * normalized_p(law, n, lam)))
    assert worst < 1e-9

    # the last component follows sqrt(q) p_N, not p_N; report the gap
    naive = max(abs(vecs[N, j] - vecs[0, j] * normalized_p(law, N, vals[j]))
                for j in range(N + 1))
    scaled = max(abs(vecs[N, j] - vecs[0, j] * np.sqrt(P463.q) * normalized_p(law, N, vals[j]))
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
    with pytest.raises(ValueError):
        cutoff_index(0, "-", N)
    with pytest.raises(ValueError):
        cutoff_index(N, "+", N)
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


def test_u_eigensystem_eigenvectors():
    system = u_eigensystem(P463, 6)
    u = cutoff_walk_matrix(P463, 6)
    assert np.linalg.norm(u @ system.ground_vector - system.ground_vector) < 1e-10
    phases = np.exp(1j * system.thetas)
    assert np.max(np.abs(u @ system.plus_vectors - phases * system.plus_vectors)) < 1e-10
    norms = np.linalg.norm(system.plus_vectors, axis=0)
    assert np.max(np.abs(norms - 1.0)) < 1e-10


def test_spectral_reconstruction():
    # reduced-walk amplitudes equal sum_j cos(n theta_j) * weight_j
    amps = {}
    s = ReducedState.origin()
    psi0 = ReducedState.origin()
    for n in range(51):
        amps[n] = inner(psi0, s).real
        s = reduced_step(P463, s)
    for n in (0, 1, 5, 17, 50):
        lam, w = discrete_spectral_measure(P463, n + 2)
        recon = float(np.sum(np.cos(n * np.arccos(np.clip(lam, -1, 1))) * w))
        assert abs(recon - amps[n]) < 1e-10


def test_shift_inner_product_identities():
    # <S Psi_l, U^n Psi_m> = <Psi_l, U^{n-1} Psi_m> and the S-right/S-both variants
    l, m = 2, 1
    psi_l = stratum_state(P463, l)
    psi_m = stratum_state(P463, m)
    s_psi_l = reduced_shift(P463, psi_l)
    s_psi_m = reduced_shift(P463, psi_m)

    def amp(bra, ket, n):
        cur = ket
        for _ in range(n):
            cur = reduced_step(P463, cur)
        return inner(bra, cur).real

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

    cur = stratum_state(P463, m)
    for _ in range(n):
        cur = reduced_step(P463, cur)
    assert abs(results[0] - inner(stratum_state(P463, l), cur).real) < 1e-12


def test_discrete_spectral_measure():
    lam, w = discrete_spectral_measure(P463, 6)
    assert np.all(w > 0)
    assert abs(w.sum() - 1.0) < 1e-12
    t = build_T(P463, 6).dense()
    for mpow in (1, 2, 3, 7):
        direct = np.linalg.matrix_power(t, mpow)[0, 0]
        assert abs(float(np.sum(lam ** mpow * w)) - direct) < 1e-12

    # half-line with p = q = 1/2: atoms at 1, 0, -1 with weights 1/4, 1/2, 1/4
    lam2, w2 = discrete_spectral_measure(PqParams(0.5, 0.5, 0.0), 2)
    assert np.max(np.abs(lam2 - np.array([1.0, 0.0, -1.0]))) < 1e-12
    assert np.max(np.abs(w2 - np.array([0.25, 0.5, 0.25]))) < 1e-12
