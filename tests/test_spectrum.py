"""The closed-form spectrum of the cutoff walk against eigenvalues of T_N
from mpmath and from LAPACK."""

import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import spiderwalk.reduction as reduction
from oracles import build_T, interior, lapack_eigenvalues, lapack_thetas
from spiderwalk import (
    MAX_CUTOFF,
    ConvergenceFailureError,
    PqParams,
    SpidernetParams,
    params_from_spidernet,
    u_eigensystem,
)


def _S(a, b, c):
    return params_from_spidernet(SpidernetParams(a, b, c))


# localizing, threshold (b - c)^2 = c, tree, p = q, a pole of 1/D close to
# the support, r = 0 with p != q, and p < q, which no spidernet has but
# spectrum answers
CASES = {
    "S(4,6,3)": _S(4, 6, 3), "S(5,6,4)": _S(5, 6, 4), "S(3,4,3)": _S(3, 4, 3),
    "S(1,4,1)": _S(1, 4, 1), "S(1,12,9)": _S(1, 12, 9), "S(1,20,16)": _S(1, 20, 16),
    "pqr(0.45,0.44,0.11)": PqParams(0.45, 0.44, 0.11), "pqr(0.6,0.4,0)": PqParams(0.6, 0.4, 0.0),
    "pqr(0.2,0.3,0.5)": PqParams(0.2, 0.3, 0.5), "pqr(0.1,0.9,0)": PqParams(0.1, 0.9, 0.0),
    # at N = 2, two eigenvalues 0.06 apart below a narrow band
    "S(1,86,4)": _S(1, 86, 4),
}


def _assert_thetas_match_lapack(params, cutoff):
    thetas = u_eigensystem(params, cutoff).thetas
    want, exact, stebz = lapack_thetas(params, cutoff)
    assert thetas.shape == want.shape
    err = np.abs(thetas - want)
    # at the top end stebz places cos(theta) - 1 to within an ulp of the
    # band's scale (sqrt(p) + sqrt(q))^2, the size of the entries of T_N - 1
    # there: theta within 1e-10 of itself plus the width of that ulp
    top = stebz & (want < np.pi / 2)
    width = np.spacing((np.sqrt(params.p) + np.sqrt(params.q)) ** 2) / np.sin(want[top])
    assert np.all(err[top] <= 1e-10 * want[top] + width)
    # elsewhere 1e-13, plus the width in theta of one ulp of cos(theta):
    # neither side can place theta closer than that (none where LAPACK's
    # theta is 0)
    with np.errstate(divide="ignore"):
        ulp = np.spacing(np.abs(np.cos(want))) / np.sin(want)
    assert np.all((err <= 1e-13 + ulp)[exact & ~top])
    assert np.all(np.abs(np.cos(thetas) - np.cos(want)) <= 1e-13)


@pytest.mark.parametrize("name", CASES)
def test_spectrum_against_mpmath(name):
    params = CASES[name]
    for N in range(2, 13):
        t = build_T(params, N)
        with mpmath.workdps(40):
            dense = mpmath.matrix(N + 1)
            for i in range(N + 1):
                dense[i, i] = t.diag[i]
            for i in range(N):
                dense[i, i + 1] = dense[i + 1, i] = t.offdiag[i]
            lam = sorted(mpmath.eigsy(dense, eigvals_only=True), reverse=True)
            want = [float(mpmath.acos(x)) for x in interior(params, N, lam)]
        thetas = u_eigensystem(params, N).thetas
        assert np.max(np.abs(thetas - np.sort(want))) < 1e-14, N


@pytest.mark.parametrize("cutoff", [2, 3, 300, 800, 4096])
@pytest.mark.parametrize("name", CASES)
def test_spectrum_against_lapack(name, cutoff):
    _assert_thetas_match_lapack(CASES[name], cutoff)


def _log_uniform(bits):
    """Integers from 2 to 2^bits, uniform in their bit length."""
    return st.integers(1, bits).flatmap(lambda k: st.integers(max(2, 1 << (k - 1)), 1 << k))


@st.composite
def _realizable_bc(draw):
    # b up to ~10^15, c small, middling and near b
    b = draw(_log_uniform(50))
    cs = {1, 2, 3, b // 2, b - 1, b - math.isqrt(b)}
    return b, draw(st.sampled_from(sorted(c for c in cs if 1 <= c <= b - 1)))


@settings(max_examples=40)
@given(_realizable_bc(), _log_uniform(MAX_CUTOFF.bit_length() - 1))
def test_spectrum_against_lapack_across_the_plane(bc, cutoff):
    _assert_thetas_match_lapack(_S(1, *bc), cutoff)


# small c with large b put the two end states of T_N within ~(p - q) of
# each other below the band; large b narrows the band to 4 sqrt(c) / b.
# At b = 2^44, c = 1 the top band samples round onto the edge, 1; at
# c = b - 2 ~ 10^14, r = 1/b snaps to 0 and p + q misses 1 by 9e-15.  For
# c = 1 and b ~ 2^k the band's top eigenvalues lie closer than an ulp of x
# from k ~ 32 on, but ~pi/N apart in the band angle.  Its bottom sample, at
# x = 1 - 4/b, is counted on T_N - 1: on T_N + 1, at y ~ 2, it took band
# eigenvalues for bound ones in the last three cases.
PLANE_CASES = (
    [(b, c, N) for b in (58_000, 10**5, 10**6, 10**7) for c in (2, 3, 5) for N in (2, 10, 400)]
    + [(630_000_000, 1, 20), (1_300_000, 1, 400), (350_000, 1, 800), (15_000, 1, 4096)]
    + [(17_000, 2, 4096), (22_000, 5, 4096), (84_000, 50, 4096)]
    + [(1 << 44, 1, 2), (1 << 44, 1, 3), (111_116_087_390_582, 111_116_087_390_580, 4)]
    + [(10**12, 3, 400), (10**15, 7, 4096)]
    + [((1 << k) + k % 3, 1, N) for k in range(32, 53, 2) for N in (400, 4096)]
    + [(724_892_677_912, 1, 400), (1_639_542_763_363_549, 1, 10), (1 << 52, 3, 4096)])


@pytest.mark.parametrize("b, c, cutoff", PLANE_CASES)
def test_spectrum_against_lapack_far_out_in_the_plane(b, c, cutoff):
    _assert_thetas_match_lapack(_S(1, b, c), cutoff)


@pytest.mark.parametrize("cutoff", [2, 3, 8, 300, 4096])
def test_half_line_eigenvalues_on_the_band_edges(cutoff):
    # p = q = 1/2, r = 0: the eigenvalues of T_N are cos(k pi / N), k = 0..N,
    # with 1 and -1 on the two band edges, so theta_k = k pi / N
    thetas = u_eigensystem(PqParams(0.5, 0.5, 0.0), cutoff).thetas
    assert np.max(np.abs(thetas - np.pi * np.arange(1, cutoff) / cutoff)) < 1e-15


# c = b - 2: r = 1/b puts the bottom eigenvalue of T_N within ~1e-13 of -1,
# out of the band, where one ulp of x is a width 2^-52 / sin(theta) in theta.
# The pivots of its count on T_N + 1 are of size 1 and round by up to half
# an ulp, hence the bound of half a width
NEAR_TREES = [(25_046_917_479_511, 10), (2_836_383_312_763, 100), (10**9, 400), ((1 << 40) + 1, 400)]


@pytest.mark.parametrize("b, cutoff", NEAR_TREES)
def test_near_tree_bottom_state_within_half_a_width(b, cutoff):
    params = _S(1, b, b - 2)
    t = build_T(params, cutoff)
    with mpmath.workdps(40):
        diag = [mpmath.mpf(d) for d in t.diag]
        off2 = [mpmath.mpf(0)] + [mpmath.mpf(e) ** 2 for e in t.offdiag]

        def below(y):
            # the number of eigenvalues of T_N below -1 + y, by Sturm count
            x, d, neg = y - 1, mpmath.mpf(1), 0
            for k in range(cutoff + 1):
                d = (diag[k] - x) - off2[k] / d
                neg += d < 0
            return neg

        lo, hi = mpmath.mpf(0), mpmath.mpf(1e-6)
        assert below(lo) == 0 and below(hi) == 1
        for _ in range(120):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if below(mid) else (mid, hi)
        want = float(mpmath.acos(lo - 1))
    theta = u_eigensystem(params, cutoff).thetas[-1]
    assert abs(theta - want) <= 0.5 * np.spacing(1.0) / np.sin(want)


EDGE_CASES = dict(CASES, **{"pqr(0.5,0.125,0.375)": PqParams(0.5, 0.125, 0.375)})


@pytest.mark.parametrize("cutoff", [2, 3, 8, 9, 300])
@pytest.mark.parametrize("name", EDGE_CASES)
def test_band_form_has_the_sign_of_the_determinant(name, cutoff):
    # pqr(0.5, 0.125, 0.375) has s = 1/4 and r = 3/8, which put the band
    # edges at exactly -1/8 and 7/8; c = 1 puts the eigenvalue 1 on an edge.
    # The band form has the sign of -det(x - T_N) at a = phi (side 1) and
    # of (-1)^N det(x - T_N) at a = pi - phi (side -1)
    params = EDGE_CASES[name]
    M = max(4 * cutoff, reduction._MIN_SAMPLES)
    a = np.r_[1e-4, 1e-3, (np.arange(M // 2 + 1) + 0.5)[::M // 32] * (np.pi / M), np.pi / 2]
    t = build_T(params, cutoff)
    with mpmath.workdps(40):
        diag = [mpmath.mpf(d) for d in t.diag]
        off2 = [mpmath.mpf(e) ** 2 for e in t.offdiag]
        s = mpmath.sqrt(mpmath.mpf(params.p) * mpmath.mpf(params.q))
        for side, sign in ((1.0, -1), (-1.0, (-1) ** cutoff)):
            form = reduction._band_form(params, cutoff, a, side)
            for ai, f in zip(a, form):
                # det(x - T_N) by its three-term recurrence
                xi = params.r + side * 2 * s * mpmath.cos(mpmath.mpf(ai))
                prev, det = 1, xi - diag[0]
                for k in range(1, cutoff + 1):
                    prev, det = det, (xi - diag[k]) * det - off2[k - 1] * prev
                assert f != 0 and np.sign(f) == sign * mpmath.sign(det), (side, ai)


@pytest.mark.parametrize("cutoff", [2, 3, 9, 300, 4096])
@pytest.mark.parametrize("name", EDGE_CASES)
def test_band_roots_are_64_halvings(name, cutoff):
    # the bisection stops once no bracket has a midpoint strictly inside it;
    # 64 halvings bring every bracket in (0, pi) to neighbouring floats, and
    # further ones leave the midpoint where it is
    params = EDGE_CASES[name]
    a, side = reduction._band_samples(cutoff)
    roots, sides = reduction._band_roots(params, cutoff, a, side)
    lo, hi, lo_positive, side = reduction._band_brackets(params, cutoff, a, side)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        same = (reduction._band_form(params, cutoff, mid, side) >= 0) == lo_positive
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    mid = 0.5 * (lo + hi)
    assert np.all((mid == lo) | (mid == hi))
    assert np.array_equal(sides, side) and np.array_equal(roots, mid)


@pytest.mark.parametrize("cutoff", [2, 3, 300, 4096])
@pytest.mark.parametrize("name", CASES)
def test_sturm_count_against_lapack(name, cutoff):
    # counts of T_N - 1 at y = x - 1 and of T_N + 1 at y = x + 1; a point
    # within 1e-13 of an eigenvalue may count it either way
    params = CASES[name]
    s = np.sqrt(params.p * params.q)
    lam = lapack_eigenvalues(params, cutoff)
    for x in np.r_[np.linspace(-1.1, 1.1, 45), params.r - 2 * s, params.r + 2 * s]:
        bracket = np.sum(lam < x - 1e-13), np.sum(lam < x + 1e-13)
        assert bracket[0] <= oracles.sturm_count(params, cutoff, x) <= bracket[1], x
        for end in (1.0, -1.0):
            count = reduction._sturm_count(params, cutoff, x - end, end)
            assert bracket[0] <= count <= bracket[1], (x, end)
    # near the ends, in y
    for end in (1.0, -1.0):
        for y in (-1e-3, -1e-9, -1e-12, 1e-12, 1e-9, 1e-3):
            count = reduction._sturm_count(params, cutoff, y, end)
            assert np.sum(lam - end < y - 1e-13) <= count <= np.sum(lam - end < y + 1e-13), (y, end)
