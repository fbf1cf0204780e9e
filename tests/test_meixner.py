import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    JacobiLaw,
    OutOfDomainError,
    OutOfSupportError,
    asymptotic_amplitude,
    chebyshev_amplitudes,
    chebyshev_U,
    density,
    integrate,
    jacobi_law,
    orth_poly_closed_cheb,
    orth_poly_closed_R,
    orth_poly_recurrence,
    orthonormal_sequence,
    poly_at_atom,
    support,
)
from spiderwalk import (
    MAX_QUADRATURE_NODES,
    InvalidParamsError,
    ParamsOutOfRangeError,
    PqParams,
    SpidernetParams,
    amplitude_series,
    classify,
    law_from_pq,
    law_from_spidernet,
    origin_amplitude_series,
    params_from_spidernet,
    quadrature_nodes,
    random_walk_return_series,
)
from spiderwalk import meixner
from spiderwalk.meixner import _rule

P463 = PqParams(0.5, 1.0 / 6.0, 1.0 / 3.0)
PTREE = PqParams(0.75, 0.25, 0.0)

LAW463 = law_from_pq(P463)
LAWTREE = law_from_pq(PTREE)
# S(1, 2, 1): p = q = 1/2 and the threshold put both 1 and xi on the
# support edges, where the poles of 1/D are removable
LAWFREE = law_from_pq(params_from_spidernet(SpidernetParams(1, 2, 1)))
# Jacobi data that no walk law has, for the oracles alone
GENERIC = JacobiLaw(0.3, 0.2, 0.1)
SEMICIRCLE = JacobiLaw(1.0, 1.0, 0.0)


def jacobi_moment(law, m):
    """Independent oracle: <e0, J^m e0> on a truncated Jacobi matrix."""
    law = jacobi_law(law)
    size = m + 2
    j = np.zeros((size, size))
    for k in range(size - 1):
        j[k, k + 1] = j[k + 1, k] = np.sqrt(law.omega1 if k == 0 else law.omega)
    for k in range(1, size):
        j[k, k] = law.alpha
    return float(np.linalg.matrix_power(j, m)[0, 0])


def exact_moments(p, q, r, nmax):
    """Independent oracle: e_0^T J^n e_0, n <= nmax, in exact rationals."""
    size = nmax // 2 + 2
    diag = [Fraction(0)] + [r] * (size - 1)
    sq = [q] + [p * q] * (size - 2)        # squared off-diagonal k -- k+1
    v = [Fraction(1)] + [Fraction(0)] * (size - 1)
    out = [v[0]]
    for _ in range(nmax):
        v = [diag[k] * v[k] + (sq[k] * v[k + 1] if k + 1 < size else 0)
             + (v[k - 1] if k else 0) for k in range(size)]
        out.append(v[0])
    return [float(x) for x in out]


def test_law_from_pq_walk_values():
    assert (LAW463.p, LAW463.q, LAW463.r) == (P463.p, P463.q, P463.r)
    assert jacobi_law(LAW463) == pytest.approx((1.0 / 6.0, 1.0 / 12.0, 1.0 / 3.0))
    assert LAW463.atom_location == pytest.approx(-1.0 / 3.0)
    assert LAW463.atom_mass == pytest.approx(0.5)
    lo, hi = support(LAW463)
    assert lo == pytest.approx(-0.24401693585629, abs=1e-4)
    assert hi == pytest.approx(0.91068360252296, abs=1e-4)
    assert LAW463.atom_location < lo


def test_law_from_pq_boundary_and_trees():
    assert law_from_pq(PqParams(0.5, 0.5, 0.0)).atom_mass == 0.0
    assert LAWTREE.atom_mass == 0.0      # (1-p)^2 - pq = 1/16 - 3/16 < 0
    with pytest.raises(ParamsOutOfRangeError):
        law_from_pq(PqParams(0.2, 0.5, 0.3))
    # r = 0 makes xi = -q / (q + r) exactly -1 for every b below 2^54; the
    # rounded 1 - p would put -q / (1 - p) at -1.018 for b = 1474522135739904
    for b in [2, 3, 10 ** 9, 1474522135739904, 1 << 53, (1 << 54) - 1,
              *(((1 << k) + d) for k in range(10, 54) for d in (-1, 1))]:
        assert law_from_spidernet(SpidernetParams(1, b, b - 1)).atom_location == -1.0, b


def test_law_validation():
    # the law is built from validated (p, q, r) only: law_from_pq refuses
    # p < q and a p whose 1 - p rounds to 0, and the mass it records is the
    # exact w of classify, rounded once
    with pytest.raises(ParamsOutOfRangeError):
        law_from_pq(PqParams(0.2, 0.5, 0.3))
    with pytest.raises(ParamsOutOfRangeError):
        law_from_pq(PqParams(1.0, 1e-300, 0.0))
    for sp in (SpidernetParams(1, 10 ** 9, 999968377), SpidernetParams(4, 6, 3),
               SpidernetParams(1, 12, 2)):
        law = law_from_pq(params_from_spidernet(sp))
        assert law.atom_mass == float(classify(sp).w)
        assert 0.0 < law.atom_mass < 1.0


def test_density():
    lo, hi = support(LAW463)
    assert density(LAW463, lo) == 0.0
    assert density(LAW463, hi) == pytest.approx(0.0, abs=1e-12)
    xs = np.linspace(lo, hi, 101)
    vals = density(LAW463, xs)
    assert np.all(vals >= 0)
    assert np.all(np.isfinite(vals))
    with pytest.raises(OutOfSupportError):
        density(LAW463, hi + 0.01)


def test_density_semicircle():
    assert density(SEMICIRCLE, 0.0) == pytest.approx(1.0 / np.pi)
    xs = np.linspace(-2, 2, 201)
    expected = np.sqrt(np.maximum(4 - xs ** 2, 0.0)) / (2 * np.pi)
    assert np.max(np.abs(density(SEMICIRCLE, xs) - expected)) < 1e-14


def test_chebyshev_U():
    rng = np.random.default_rng(0)
    thetas = rng.uniform(0.1, np.pi - 0.1, 20)
    for n in (0, 1, 2, 7):
        lhs = chebyshev_U(n, np.cos(thetas)) * np.sin(thetas)
        rhs = np.sin((n + 1) * thetas)
        assert np.max(np.abs(lhs - rhs)) < 1e-12
    assert chebyshev_U(-1, 0.3) == 0.0
    with pytest.raises(OutOfDomainError):
        chebyshev_U(-2, 0.3)


def test_polynomials_start_correctly():
    for law in (LAW463, LAWTREE, GENERIC):
        for form in (orth_poly_recurrence, orth_poly_closed_cheb):
            assert form(law, 0, 0.37) == 1.0
            assert form(law, 1, 0.37) == pytest.approx(0.37)
        assert orth_poly_closed_R(law, 0, 5.0) == 1.0


def test_three_forms_agree():
    rng = np.random.default_rng(1)
    xs = rng.uniform(-1, 1, 50)
    for law in (LAW463, LAWTREE, GENERIC):
        half_width = 2.0 * np.sqrt(jacobi_law(law).omega)
        outside = jacobi_law(law).alpha + np.concatenate([
            half_width + rng.uniform(0.01, 0.5, 25),
            -half_width - rng.uniform(0.01, 0.5, 25),
        ])
        for n in range(13):
            rec = orth_poly_recurrence(law, n, xs)
            cheb = orth_poly_closed_cheb(law, n, xs)
            scale = np.maximum(np.abs(rec), 1.0)
            assert np.max(np.abs(rec - cheb) / scale) < 1e-9
            rec_out = orth_poly_recurrence(law, n, outside)
            r_out = orth_poly_closed_R(law, n, outside)
            scale = np.maximum(np.abs(rec_out), 1.0)
            assert np.max(np.abs(rec_out - r_out) / scale) < 1e-9


def test_closed_R_rejects_support_band():
    with pytest.raises(OutOfDomainError):
        orth_poly_closed_R(LAW463, 3, LAW463.r)


def test_recurrence_residual():
    rng = np.random.default_rng(6)
    xs = rng.uniform(-1, 1, 30)
    for law in (jacobi_law(LAW463), GENERIC):
        for n in range(1, 12):
            omega_n = law.omega1 if n == 1 else law.omega
            resid = (xs * orth_poly_recurrence(law, n, xs)
                     - orth_poly_recurrence(law, n + 1, xs)
                     - law.alpha * orth_poly_recurrence(law, n, xs)
                     - omega_n * orth_poly_recurrence(law, n - 1, xs))
            assert np.max(np.abs(resid)) < 1e-10
        # and x P_0 = P_1 (the first diagonal coefficient vanishes)
        assert np.max(np.abs(xs - orth_poly_recurrence(law, 1, xs))) == 0.0


def test_normalized_scaling():
    xs = np.linspace(-1, 1, 7)
    seq = orthonormal_sequence(LAW463, 5, xs)
    jac = jacobi_law(LAW463)
    for n in range(6):
        scale = 1.0 if n == 0 else np.sqrt(jac.omega1 * jac.omega ** (n - 1))
        expect = orth_poly_recurrence(LAW463, n, xs) / scale
        assert np.max(np.abs(seq[n] - expect)) < 1e-13
    # the closed form amplitude uses on the band x = r + 2 sqrt(pq) cos(phi):
    # p_k sin(phi) = (x / sqrt(q)) sin(k phi) - sin((k-1) phi) / sqrt(p)
    for law in (LAW463, LAWTREE, LAWFREE):
        p, q = law.p, law.q
        phi = np.linspace(0.05, np.pi - 0.05, 9)
        x = law.r + 2.0 * np.sqrt(p * q) * np.cos(phi)
        seq = orthonormal_sequence(law, 12, x)
        for k in range(1, 13):
            closed = (x / np.sqrt(q)) * np.sin(k * phi) - np.sin((k - 1) * phi) / np.sqrt(p)
            scale = max(1.0, np.max(np.abs(closed)))
            assert np.max(np.abs(seq[k] * np.sin(phi) - closed)) < 1e-12 * scale


def test_special_value():
    # p_l(xi) as asymptotic_amplitude(law, l, 0) / w, against the recurrence
    w = LAW463.atom_mass
    assert asymptotic_amplitude(LAW463, 0, 0) == w
    assert asymptotic_amplitude(LAW463, 1, 0) / w == pytest.approx(-np.sqrt(2.0 / 3.0))
    at_xi = orthonormal_sequence(LAW463, 20, np.array([LAW463.atom_location]))[:, 0]
    for n in range(1, 21):
        assert abs(asymptotic_amplitude(LAW463, n, 0) / w - at_xi[n]) < 1e-10
        # the walk law's form (1/sqrt(p)) (-sqrt(pq) / (1-p))^n
        assert asymptotic_amplitude(LAW463, n, 0) / w == pytest.approx(
            np.sqrt(2.0) * (-1.0 / np.sqrt(3.0)) ** n, rel=1e-14)
    # without an atom the amplitude is 0, and Gautschi's closed form still
    # holds, where the recurrence is stable outside the band
    assert asymptotic_amplitude(LAWTREE, 3, 0) == 0.0
    at_xi = orthonormal_sequence(LAWTREE, 20, np.array([LAWTREE.atom_location]))[:, 0]
    for n in range(21):
        assert poly_at_atom(LAWTREE, n) == pytest.approx(at_xi[n], rel=1e-13)
    with pytest.raises(OutOfDomainError):
        poly_at_atom(LAWTREE, -1)


def test_amplitude_stays_finite_for_subnormal_q():
    # q = 1e-320 with pq > 0: p_l p_m alone would overflow at the band nodes
    law = law_from_pq(PqParams(0.9, 1e-320, 0.1))
    want = chebyshev_amplitudes(tuple(Fraction(v) for v in (0.9, 1e-320, 0.1)), 2, 3, 3)
    got = amplitude_series(law, 3, 2, 3)
    assert np.max(np.abs(got - want)) < 1e-14


def test_total_mass():
    for law in (LAW463, LAWTREE, LAWFREE, law_from_pq(PqParams(0.5, 0.25, 0.25))):
        assert abs(random_walk_return_series(law, 0)[0] - 1.0) < 1e-13


def test_moments_match_jacobi_oracle():
    for law in (LAW463, LAWTREE, LAWFREE):
        moments = random_walk_return_series(law, 12)
        for m in range(13):
            assert abs(moments[m] - jacobi_moment(law, m)) < 1e-13


def test_orthonormality():
    # <Psi_l, U^0 Psi_m> is the integral of p_l p_m
    for law in (LAW463, LAWTREE, LAWFREE):
        for mdeg in range(6):
            for ndeg in range(mdeg, 6):
                val = amplitude_series(law, 0, mdeg, ndeg)[0]
                assert abs(val - (1.0 if mdeg == ndeg else 0.0)) < 1e-13


@pytest.mark.parametrize("cells", [None, 1], ids=["B-rows", "one-row"])
@pytest.mark.parametrize("nmax", [meixner._BLOCK - 1, meixner._BLOCK, meixner._BLOCK + 1,
                                  2 * meixner._BLOCK])
def test_series_across_block_boundaries(monkeypatch, cells, nmax):
    # a series sums its band in blocks of _BLOCK rows: the last block ends one
    # short of a full one, full, one past it, and at two; with one cell
    # allowed per table, every n is a block of its own
    if cells is not None:
        monkeypatch.setattr(meixner, "_BLOCK_CELLS", cells)
    p, q, r = (Fraction(v) for v in (P463.p, P463.q, P463.r))
    for l, m in [(2, 1), (3, 3)]:
        want = chebyshev_amplitudes((p, q, r), l, m, nmax)
        assert np.max(np.abs(amplitude_series(LAW463, nmax, l, m) - want)) < 1e-12, (l, m)
    want = exact_moments(p, q, r, nmax)
    assert np.max(np.abs(random_walk_return_series(LAW463, nmax) - want)) < 1e-13


def test_long_amplitude_series_keeps_its_digits():
    # 20 001 amplitudes on one rule, the band in blocks by angle addition,
    # against route 2.  The bound is the largest |integral - reduced| that
    # the kernel with a rule of its own for each n left on this series,
    # 2.426e-12 (theta's rounding times n): any drift across blocks adds to it
    sp = SpidernetParams(4, 6, 3)
    got = amplitude_series(law_from_spidernet(sp), 20000)
    want = origin_amplitude_series(params_from_spidernet(sp), 20000)
    assert np.max(np.abs(got - want)) < 2.43e-12


def test_series_memory_stays_linear_in_the_nodes():
    # l = m = 131000 take M = 131034 nodes: tables of a row for each of the
    # 41 n would take 82 MiB, and the cap keeps each within 8 MiB
    l = m = 131000
    tracemalloc.start()
    try:
        got = amplitude_series(LAW463, 40, l, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    want = chebyshev_amplitudes(tuple(Fraction(v) for v in (P463.p, P463.q, P463.r)), l, m, 40)
    assert np.max(np.abs(got - want)) < 1e-12
    assert peak < 40 << 20


# laws whose nearest pole of 1/D differs: both poles, x = 1 removable (c = 1),
# xi removable (threshold), both removable, a pole 0.011 and one 1e-8 from
# the support in phi
RULE_LAWS = [
    LAW463,
    law_from_pq(params_from_spidernet(SpidernetParams(1, 4, 1))),
    law_from_pq(params_from_spidernet(SpidernetParams(5, 6, 4))),
    LAWFREE,
    law_from_pq(PqParams(0.45, 0.44, 0.11)),
    law_from_pq(PqParams(0.5, 0.49999999, 0.00000001)),
]


def test_midpoint_rule_node_doubling():
    rng = np.random.default_rng(3)
    for law in RULE_LAWS:
        for degree in (0, 7, 60, 301):
            coef = rng.standard_normal(degree + 1)

            def f(x):
                # a Chebyshev series on the support, so values stay O(1)
                y = (x - law.r) / (2.0 * np.sqrt(law.p * law.q))
                return np.polynomial.chebyshev.chebval(y, coef)

            nodes = quadrature_nodes(degree)
            # degree + 2M asks for exactly twice the nodes
            assert quadrature_nodes(degree + 2 * nodes) == 2 * nodes
            coarse = integrate(law, f, degree)
            fine = integrate(law, f, degree + 2 * nodes)
            assert abs(coarse - fine) < 1e-13 * max(1.0, np.abs(coef).sum())


def test_midpoint_rule_exact_on_polynomials():
    # M = ceil((d+1)/2) + 1 nodes for every law, the two pole nodes aside
    for d in range(0, 41):
        assert quadrature_nodes(d) == (d + 2) // 2 + 1
    # walk laws against exact moments e_0^T J^d e_0
    for law in RULE_LAWS:
        p, q, r = (Fraction(v).limit_denominator(10 ** 9) for v in (law.p, law.q, law.r))
        for d, want in enumerate(exact_moments(p, q, r, 40)):
            # each degree on its own rule, and all of them on the rule of degree 40
            assert abs(random_walk_return_series(law, d)[d] - want) < 1e-14
        got = random_walk_return_series(law, 40)
        assert np.max(np.abs(got - exact_moments(p, q, r, 40))) < 1e-14


def test_node_budget_rejects_before_allocating():
    # p - q = 1e-8 puts the pole at x = 1 ~1e-8 from the support in phi:
    # the pole nodes keep the rule at 2 nodes, exact, in O(1) memory
    law = law_from_pq(PqParams(0.5, 0.49999999, 0.00000001))
    tracemalloc.start()
    try:
        mass = random_walk_return_series(law, 0)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(mass - 1.0) < 1e-15 and peak < 1 << 20
    exact = exact_moments(Fraction(1, 2), Fraction(49999999, 10 ** 8), Fraction(1, 10 ** 8), 20)
    assert np.max(np.abs(random_walk_return_series(law, 20) - exact)) < 1e-14
    # too high a degree is rejected before allocating, for every law
    assert quadrature_nodes(2 * MAX_QUADRATURE_NODES - 3) == MAX_QUADRATURE_NODES
    with pytest.raises(ParamsOutOfRangeError):
        quadrature_nodes(2 * MAX_QUADRATURE_NODES - 2)
    with pytest.raises(InvalidParamsError):
        quadrature_nodes(-1)


def test_threshold_atom_decided_exactly():
    for b in range(2, 51):
        for c in range(1, b):
            sp = SpidernetParams(1, b, c)
            law = law_from_pq(params_from_spidernet(sp))
            assert law.has_atom == classify(sp).localized, (b, c)
            # the node of a removable pole weighs 0: exactly for x = 1 when
            # c = 1; within rounding for xi at the threshold, which the
            # floats (p, q, r) miss by an ulp
            (_, g_1), (_, g_xi) = _rule(law, 5)[3]
            assert (g_1 == 0.0) == (c == 1), (b, c)
            assert (abs(g_xi) < 1e-15) == ((b - c) ** 2 == c), (b, c)
    # raw (p, q): p == q removes x = 1 outside the spidernet family too
    (_, g_1), (_, g_xi) = _rule(law_from_pq(PqParams(0.3, 0.3, 0.4)), 5)[3]
    assert g_1 == 0.0 and g_xi < 0.0


def test_atom_sits_outside_support_and_density_stays_finite():
    lo, hi = support(LAW463)
    assert not lo < LAW463.atom_location < hi
    # D(x) has roots only at 1 and xi, both off the open support interval
    o1, om, al = jacobi_law(LAW463)
    roots = np.roots([om - o1, o1 * al, o1 ** 2])
    for root in roots:
        assert not lo + 1e-9 < root.real < hi - 1e-9
    xs = np.linspace(lo, hi, 501)
    assert np.all(np.isfinite(density(LAW463, xs)))
