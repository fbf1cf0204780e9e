"""The closed-form spectrum of the cutoff walk against eigenvalues of T_N
from mpmath and from LAPACK."""

import functools
import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import spiderwalk.reduction as reduction
from oracles import build_T
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
# the support, and r = 0 with p != q
CASES = {
    "S(4,6,3)": _S(4, 6, 3), "S(5,6,4)": _S(5, 6, 4), "S(3,4,3)": _S(3, 4, 3),
    "S(1,4,1)": _S(1, 4, 1), "S(1,12,9)": _S(1, 12, 9), "S(1,20,16)": _S(1, 20, 16),
    "pqr(0.45,0.44,0.11)": PqParams(0.45, 0.44, 0.11), "pqr(0.6,0.4,0)": PqParams(0.6, 0.4, 0.0),
    # at N = 2, two eigenvalues 0.06 apart below a narrow band
    "S(1,86,4)": _S(1, 86, 4),
}


def _interior(params, cutoff, vals):
    """Drop lambda = 1 and, when r = 0, lambda = -1 from descending vals."""
    return vals[1:cutoff + 1] if params.r > 0 else vals[1:cutoff]


# Eigenvalues within 1e-3 of +-1 that LAPACK's bisection places to an ulp,
# the nearest ones first; it takes ~1 ms each at N = 4096.
_STEBZ_MAX = 128


@functools.lru_cache(maxsize=None)
def _lapack_eigenvalues(params, cutoff):
    """LAPACK's eigenvalues of T_N, descending."""
    t = build_T(params, cutoff)
    lam = np.sort(scipy.linalg.eigvalsh_tridiagonal(t.diag, t.offdiag))[::-1]
    lam.setflags(write=False)
    return lam


def _lapack_thetas(params, cutoff):
    """The interior theta of T_N from LAPACK, ascending, and which of them
    are known to an ulp of cos(theta).

    arccos magnifies an eigenvalue's error by 1 / sin(theta), so for up to
    _STEBZ_MAX eigenvalues within 1e-3 of +-1, theta comes from
    mu = lambda -+ 1 instead: 2 arcsin(sqrt(|mu| / 2)) at the top end, and
    pi minus that at the bottom one.  There mu is an eigenvalue of T_N -+ 1
    near 0, which LAPACK's bisection (stebz) finds to full relative accuracy.
    The rest of those eigenvalues are known only as well as LAPACK's dense
    solver knows lambda."""
    t = build_T(params, cutoff)
    lam = _lapack_eigenvalues(params, cutoff)
    thetas = np.arccos(np.clip(lam, -1.0, 1.0))
    exact = np.abs(np.abs(lam) - 1.0) >= 1e-3
    for end in (1.0, -1.0):
        k = min(np.count_nonzero(np.abs(lam - end) < 1e-3), _STEBZ_MAX)
        if k == 0:
            continue
        first = cutoff + 1 - k if end > 0 else 0
        mu = scipy.linalg.eigvalsh_tridiagonal(
            t.diag - end, t.offdiag, select="i", select_range=(first, first + k - 1),
            lapack_driver="stebz", tol=np.finfo(float).tiny)
        half = 2.0 * np.arcsin(np.sqrt(np.abs(mu[::-1]) / 2.0))
        at = slice(0, k) if end > 0 else slice(cutoff + 1 - k, cutoff + 1)
        thetas[at] = half if end > 0 else np.pi - half
        exact[at] = True
    return _interior(params, cutoff, thetas), _interior(params, cutoff, exact)


def _assert_thetas_match_lapack(params, cutoff):
    thetas = u_eigensystem(params, cutoff).thetas
    want, exact = _lapack_thetas(params, cutoff)
    assert thetas.shape == want.shape
    # 1e-13, plus the width in theta of one ulp of cos(theta): neither side
    # can place theta closer than that
    ulp = np.spacing(np.abs(np.cos(want))) / np.sin(want)
    assert np.all((np.abs(thetas - want) <= 1e-13 + ulp)[exact])
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
            want = [float(mpmath.acos(x)) for x in _interior(params, N, lam)]
        thetas = u_eigensystem(params, N).thetas
        assert np.max(np.abs(thetas - np.sort(want))) < 1e-14, N


@pytest.mark.parametrize("cutoff", [2, 3, 300, 800, 4096])
@pytest.mark.parametrize("name", CASES)
def test_spectrum_against_lapack(name, cutoff):
    _assert_thetas_match_lapack(CASES[name], cutoff)


def _assert_matches_lapack_or_unresolvable(params, cutoff):
    """The thetas match LAPACK's, or u_eigensystem refuses because two
    neighbouring eigenvalues of T_N lie closer than its certificate tells
    apart, 2 max(1e-10 2 sqrt(pq), 2 ulps of 1)."""
    try:
        _assert_thetas_match_lapack(params, cutoff)
    except ConvergenceFailureError:
        width = 2.0 * max(2e-10 * np.sqrt(params.p * params.q), 2.0 * np.spacing(1.0))
        assert np.min(-np.diff(_lapack_eigenvalues(params, cutoff))) < width


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
    _assert_matches_lapack_or_unresolvable(_S(1, *bc), cutoff)


# small c with large b put the two end states of T_N within ~(p - q) of
# each other below the band; large b narrows the band to 4 sqrt(c) / b.
# At b = 2^44, c = 1 the top band samples round onto the edge, 1; at
# c = b - 2 ~ 10^14, r = 1/b snaps to 0 and p + q misses 1 by 9e-15.
PLANE_CASES = (
    [(b, c, N) for b in (58_000, 10**5, 10**6, 10**7) for c in (2, 3, 5) for N in (2, 10, 400)]
    + [(630_000_000, 1, 20), (1_300_000, 1, 400), (350_000, 1, 800), (15_000, 1, 4096)]
    + [(17_000, 2, 4096), (22_000, 5, 4096), (84_000, 50, 4096)]
    + [(1 << 44, 1, 2), (1 << 44, 1, 3), (111_116_087_390_582, 111_116_087_390_580, 4)])


@pytest.mark.parametrize("b, c, cutoff", PLANE_CASES)
def test_spectrum_against_lapack_far_out_in_the_plane(b, c, cutoff):
    _assert_thetas_match_lapack(_S(1, b, c), cutoff)


@pytest.mark.parametrize("cutoff", [2, 3, 8, 300, 4096])
def test_half_line_eigenvalues_on_the_band_edges(cutoff):
    # p = q = 1/2, r = 0: the eigenvalues of T_N are cos(k pi / N), k = 0..N,
    # with 1 and -1 on the two band edges
    vals = reduction._certified_eigenvalues(PqParams(0.5, 0.5, 0.0), cutoff)
    assert np.max(np.abs(vals - np.cos(np.pi * np.arange(cutoff + 1) / cutoff))) < 1e-15


EDGE_CASES = dict(CASES, **{"pqr(0.5,0.125,0.375)": PqParams(0.5, 0.125, 0.375)})


@pytest.mark.parametrize("cutoff", [2, 3, 8, 9, 300])
@pytest.mark.parametrize("name", EDGE_CASES)
def test_band_form_has_the_sign_of_the_determinant(name, cutoff):
    # pqr(0.5, 0.125, 0.375) has s = 1/4 and r = 3/8, which put the band
    # edges at exactly -1/8 and 7/8; c = 1 puts the eigenvalue 1 on an edge
    params = EDGE_CASES[name]
    lo, hi = params.r + np.array([-2.0, 2.0]) * np.sqrt(params.p * params.q)
    samples = reduction._band_samples(params, cutoff)
    x = np.r_[lo + 1e-9, lo + 1e-6, samples[::len(samples) // 16], hi - 1e-6, hi - 1e-9]
    form = reduction._band_form(params, cutoff, x)
    t = build_T(params, cutoff)
    with mpmath.workdps(40):
        diag = [mpmath.mpf(d) for d in t.diag]
        off2 = [mpmath.mpf(e) ** 2 for e in t.offdiag]
        for xi, f in zip(x, form):
            # det(x - T_N) by its three-term recurrence
            xi = mpmath.mpf(xi)
            prev, det = 1, xi - diag[0]
            for k in range(1, cutoff + 1):
                prev, det = det, (xi - diag[k]) * det - off2[k - 1] * prev
            assert f != 0 and np.sign(f) == mpmath.sign(det), xi


@pytest.mark.parametrize("cutoff", [2, 3, 300, 4096])
@pytest.mark.parametrize("name", CASES)
def test_sturm_count_against_lapack(name, cutoff):
    # a point within 1e-13 of an eigenvalue may count it either way
    params = CASES[name]
    s = np.sqrt(params.p * params.q)
    lam = _lapack_eigenvalues(params, cutoff)
    for x in np.r_[np.linspace(-1.1, 1.1, 45), params.r - 2 * s, params.r + 2 * s]:
        count = reduction._sturm_count(params, cutoff, x)
        assert count == oracles.sturm_count(params, cutoff, x), x
        assert np.sum(lam < x - 1e-13) <= count <= np.sum(lam < x + 1e-13), x
