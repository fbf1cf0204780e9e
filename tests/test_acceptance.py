"""Acceptance suite: one test per shipped guarantee, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines as they happen (without -s they still appear in captured
output on failure).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    asymptotic_amplitude,
    cutoff_walk_matrix,
    discrete_spectral_measure,
    orth_poly_closed_cheb,
    orth_poly_closed_R,
    orth_poly_recurrence,
    orthonormal_sequence,
    stratum_bound,
)
from spiderwalk import (
    GraphEvolver,
    PqParams,
    SpidernetParams,
    UnrealizableWiringError,
    amplitude_series,
    build_spidernet,
    cesaro_strata,
    classify,
    embed,
    isotropic_initial_state,
    law_from_pq,
    origin_amplitude_series,
    random_walk_return_series,
    u_eigensystem,
)
from spiderwalk.reduction import stratum_state

P463 = PqParams(0.5, 1.0 / 6.0, 1.0 / 3.0)
P342 = PqParams(0.5, 0.25, 0.25)
PTREE343 = PqParams(0.75, 0.25, 0.0)


def _criterion(num, name, ok, detail):
    print(f"criterion {num} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_closed_form_constants():
    rep = classify(SpidernetParams(4, 6, 3))
    ok = (rep.localized
          and rep.w == Fraction(1, 2)
          and rep.xi == Fraction(-1, 3)
          and rep.qbar_origin == Fraction(1, 8))
    _criterion(1, "closed-form localization constants", ok,
               f"S(4,6,3): w={rep.w}, cos theta={rep.xi}, qbar={rep.qbar_origin} (exact rationals)")


def test_criterion_2_classifier_boundary():
    mismatches = [
        (b, c)
        for b in range(2, 51)
        for c in range(1, b)
        if classify(SpidernetParams(1, b, c)).localized != (b > c + math.sqrt(c))
    ]
    family_ok = all(
        classify(SpidernetParams(k, k + 2, k - 1)).localized == (k < 10)
        for k in range(2, 21)
    )
    ok = not mismatches and family_ok
    _criterion(2, "classifier boundary", ok,
               f"grid 2<=b<=50 mismatches: {mismatches or 'none'}; "
               f"S(k,k+2,k-1) localized iff k<10: {family_ok}")


def _full_graph_amplitudes(g, nmax):
    s0 = isotropic_initial_state(g)
    ev = GraphEvolver(g, s0, nmax)
    amps = [float(np.vdot(s0, ev.state()).real)]
    for _ in range(nmax):
        ev.step()
        amps.append(float(np.vdot(s0, ev.state()).real))
    return np.array(amps)


def test_criterion_3_three_way_equivalence(big_463, big_442):
    # S(3,4,2) admits no simple rotationally symmetric wiring (three stratum-1
    # vertices each need exactly one intra-stratum edge), so the full-graph leg
    # runs on S(4,4,2), which shares its (p, q, r) exactly.
    with pytest.raises(UnrealizableWiringError):
        build_spidernet(SpidernetParams(3, 4, 2), 3)

    worst_full = 0.0
    worst_int = 0.0
    for g, params in ((big_463, P463), (big_442, P342)):
        reduced = origin_amplitude_series(params, 200)
        full = _full_graph_amplitudes(g, 10)
        worst_full = max(worst_full, float(np.max(np.abs(full - reduced[:11]))))
        law = law_from_pq(params)
        worst_int = max(worst_int, float(np.max(np.abs(amplitude_series(law, 200) - reduced))))
    ok = worst_full < 1e-10 and worst_int < 1e-12
    _criterion(3, "three-way oracle equivalence", ok,
               f"max|full-reduced|={worst_full:.2e} (n<=10, tol 1e-10), "
               f"max|reduced-integral|={worst_int:.2e} (n<=200, tol 1e-12)")


def test_criterion_4_cesaro_convergence(origin_series_20k):
    # the "no localization" leg uses the tree S(3,4,3); S(3,4,2) itself is
    # localized with limit w^2/2 = 1/18 and is checked against that value
    cases = [
        ("S(4,6,3)", P463, 0.125),
        ("S(3,4,3) tree", PTREE343, 0.0),
        ("S(3,4,2)", P342, 1.0 / 18.0),
    ]
    details = []
    ok = True
    for label, params, limit in cases:
        probs = origin_series_20k(params) ** 2
        avg = np.cumsum(probs) / np.arange(1, len(probs) + 1)
        dev = np.abs(avg - limit)

        def env(N):
            return float(dev[N // 2: N].max())

        point_ok = dev[10_000 - 1] < 5e-3
        halving_ok = (env(10_000) <= 0.5 * env(5_000) * 1.005
                      and env(20_000) <= 0.5 * env(10_000) * 1.005)
        ok = ok and point_ok and halving_ok
        details.append(f"{label}: |avg-{limit:.4g}|={dev[9_999]:.1e}, "
                       f"halving ratios {env(10_000)/env(5_000):.4f}/"
                       f"{env(20_000)/env(10_000):.4f}")
    _criterion(4, "Cesaro convergence at N=1e4", ok, "; ".join(details))


def test_criterion_5_late_window_oscillation():
    theta = math.acos(-1.0 / 3.0)
    amps = origin_amplitude_series(P463, 650)
    n = np.arange(620, 651)
    probs = amps[620:651] ** 2
    envelope = 0.25 * np.cos(n * theta) ** 2

    peak_devs = [
        abs(probs[k] - envelope[k])
        for k in range(1, 30)
        if envelope[k] >= envelope[k - 1] and envelope[k] >= envelope[k + 1]
    ]
    signs = np.sign(probs - 0.125)
    crossings = int(np.sum(signs[1:] != signs[:-1]))
    mean_gap = abs(float(np.mean(probs)) - 0.125)
    ok = (len(peak_devs) >= 3 and max(peak_devs) < 0.02
          and crossings >= 4 and mean_gap < 5e-3)
    _criterion(5, "late-window oscillation (n=620..650)", ok,
               f"{len(peak_devs)} envelope maxima, max dev {max(peak_devs):.2e} "
               f"(tol 0.02); {crossings} crossings of 1/8; window mean off by {mean_gap:.1e}")


def test_criterion_6_finite_path_spectra():
    worst_phase = 0.0
    worst_trace = 0.0
    mult_ok = True
    for params in (P463, PTREE343):
        for N in (3, 5, 8, 12):
            u = cutoff_walk_matrix(params, N)
            eigs = np.linalg.eigvals(u)          # independent dense diagonalization
            system = u_eigensystem(params, N)

            phases = np.sort(np.angle(eigs[eigs.imag > 1e-8]))
            worst_phase = max(worst_phase, float(np.max(np.abs(phases - system.thetas))))

            n_minus = int(np.sum(np.abs(eigs + 1.0) < 1e-8))
            n_plus = int(np.sum(np.abs(eigs - 1.0) < 1e-8))
            expected_mult = N if params.r == 0 else N - 2
            mult_ok = mult_ok and n_minus == expected_mult and n_plus == 1
            assert system.minus_one_multiplicity == expected_mult

            worst_trace = max(worst_trace,
                              abs(float(np.trace(u)) - (2 * params.r - 1) * (N - 1)))
    ok = worst_phase < 1e-10 and mult_ok and worst_trace < 1e-12
    _criterion(6, "finite-path spectra (N in {3,5,8,12})", ok,
               f"max phase error {worst_phase:.2e} (tol 1e-10), multiplicities "
               f"{'match' if mult_ok else 'WRONG'}, max trace error {worst_trace:.2e} (tol 1e-12)")


def test_criterion_7_orthogonal_polynomial_suite():
    rng = np.random.default_rng(42)
    laws = [(law_from_pq(P463), P463), (law_from_pq(PTREE343), PTREE343)]

    worst_forms = 0.0
    for law, _ in laws:
        xs = rng.uniform(-1, 1, 50)
        half_width = 2.0 * math.sqrt(law.p * law.q)
        outside = law.r + np.concatenate([
            half_width + rng.uniform(0.01, 0.6, 25),
            -half_width - rng.uniform(0.01, 0.6, 25)])
        for n in range(13):
            rec = orth_poly_recurrence(law, n, xs)
            cheb = orth_poly_closed_cheb(law, n, xs)
            worst_forms = max(worst_forms, float(np.max(
                np.abs(rec - cheb) / np.maximum(np.abs(rec), 1.0))))
            rec_o = orth_poly_recurrence(law, n, outside)
            rform = orth_poly_closed_R(law, n, outside)
            worst_forms = max(worst_forms, float(np.max(
                np.abs(rec_o - rform) / np.maximum(np.abs(rec_o), 1.0))))

    # p_n(xi) as the non-decaying amplitude at n = 0 over the atom's mass
    law = law_from_pq(P463)
    at_xi = orthonormal_sequence(law, 20, np.array([-P463.q / (1 - P463.p)]))[:, 0]
    worst_special = max(abs(asymptotic_amplitude(law, n, 0) / law.atom_mass - at_xi[n])
                        for n in range(21))

    # <Psi_m, U^0 Psi_n> is the integral of p_m p_n
    worst_orth = 0.0
    for law, _ in laws:
        for mdeg in range(11):
            for ndeg in range(mdeg, 11):
                worst_orth = max(worst_orth,
                                 abs(amplitude_series(law, 0, mdeg, ndeg)[0] - (mdeg == ndeg)))

    ok = worst_forms < 1e-9 and worst_special < 1e-10 and worst_orth < 1e-8
    _criterion(7, "orthogonal polynomial suite", ok,
               f"forms agree to {worst_forms:.2e} (tol 1e-9, n<=12); special value "
               f"to {worst_special:.2e} (tol 1e-10, n<=20); orthonormality to "
               f"{worst_orth:.2e} (tol 1e-8, m,n<=10)")


def test_criterion_8_measure_sanity():
    def jacobi_moment(params, m):
        size = m + 2
        j = np.zeros((size, size))
        for k in range(size - 1):
            j[k, k + 1] = j[k + 1, k] = math.sqrt(
                params.q if k == 0 else params.p * params.q)
        for k in range(1, size):
            j[k, k] = params.r
        return float(np.linalg.matrix_power(j, m)[0, 0])

    worst_mass = 0.0
    worst_moment = 0.0
    worst_discrete = 0.0
    for params in (P463, P342, PTREE343):
        law = law_from_pq(params)
        worst_mass = max(worst_mass, abs(random_walk_return_series(law, 0)[0] - 1.0))
        moments = random_walk_return_series(law, 12)
        worst_moment = max(worst_moment,
                           max(abs(moments[m] - jacobi_moment(params, m))
                               for m in range(13)))
        for N in (6, 10):
            lam, w = discrete_spectral_measure(params, N)
            for m in range(N):
                worst_discrete = max(worst_discrete,
                                     abs(float(np.sum(lam ** m * w)) - moments[m]))
    ok = worst_mass < 1e-10 and worst_moment < 1e-9 and worst_discrete < 1e-9
    _criterion(8, "measure sanity", ok,
               f"mass error {worst_mass:.2e} (tol 1e-10); moment-vs-oracle "
               f"{worst_moment:.2e} (tol 1e-9, m<=12); discrete-vs-continuous "
               f"{worst_discrete:.2e} (m<N)")


def test_criterion_9_exponential_localization(big_463):
    sp = SpidernetParams(4, 6, 3)
    measured = cesaro_strata(P463, 10_000, 4)
    bound_details = []
    bounds_ok = True
    for l in range(1, 5):
        bound = float(stratum_bound(sp, l))
        bounds_ok = bounds_ok and measured[l] > bound
        bound_details.append(f"l={l}: {measured[l]:.4g}>{bound:.4g}")

    g = big_463
    ev = GraphEvolver(g, isotropic_initial_state(g), 10)
    psi = [embed(g, stratum_state(P463, l)) for l in range(7)]
    margin = np.inf
    for n in range(11):
        if n:
            ev.step()
        s = ev.state()
        by_stratum = ev.stratum_distribution()
        for l in range(min(n + 1, 6) + 1):
            amp = np.vdot(psi[l], s)
            margin = min(margin, float(by_stratum[l] - abs(amp) ** 2))
    pointwise_ok = margin > -1e-12
    ok = bounds_ok and pointwise_ok
    _criterion(9, "exponential localization", ok,
               f"Cesaro strata exceed bounds ({'; '.join(bound_details)}); "
               f"min full-graph slack P(X_n in V_l)-|<Psi_l,U^n Psi_0>|^2 = {margin:.2e}")
