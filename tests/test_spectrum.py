"""The closed-form spectrum of the cutoff walk against eigenvalues of T_N
from mpmath and from LAPACK."""

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import spiderwalk.reduction as reduction
from oracles import build_T
from spiderwalk import PqParams, SpidernetParams, params_from_spidernet, u_eigensystem


def _S(a, b, c):
    return params_from_spidernet(SpidernetParams(a, b, c))


# localizing, threshold (b - c)^2 = c, tree, p = q, a pole of 1/D close to
# the support, and r = 0 with p != q
CASES = {
    "S(4,6,3)": _S(4, 6, 3), "S(5,6,4)": _S(5, 6, 4), "S(3,4,3)": _S(3, 4, 3),
    "S(1,4,1)": _S(1, 4, 1), "S(1,12,9)": _S(1, 12, 9), "S(1,20,16)": _S(1, 20, 16),
    "pqr(0.45,0.44,0.11)": PqParams(0.45, 0.44, 0.11), "pqr(0.6,0.4,0)": PqParams(0.6, 0.4, 0.0),
    # at N = 2, two eigenvalues 0.06 apart below a narrow band: the first
    # sample grid holds both in one cell and has to be refined
    "S(1,86,4)": _S(1, 86, 4),
}


def _interior(params, cutoff, vals):
    """Drop lambda = 1 and, when r = 0, lambda = -1 from descending vals."""
    return vals[1:cutoff + 1] if params.r > 0 else vals[1:cutoff]


def _lapack_thetas(params, cutoff):
    """arccos of LAPACK's interior eigenvalues of T_N, ascending.  arccos
    magnifies an eigenvalue's error by 1 / sin(theta), so within 1e-3 of
    +-1 the eigenvalues come from LAPACK's bisection, good to an ulp."""
    t = build_T(params, cutoff)
    lam = scipy.linalg.eigvalsh_tridiagonal(t.diag, t.offdiag)
    for window in ((-2.0, -0.999), (0.999, 2.0)):
        inside = (lam > window[0]) & (lam <= window[1])
        lam[inside] = scipy.linalg.eigvalsh_tridiagonal(
            t.diag, t.offdiag, select="v", select_range=window, lapack_driver="stebz")
    return np.arccos(np.clip(_interior(params, cutoff, np.sort(lam)[::-1]), -1.0, 1.0))


def _assert_thetas_match_lapack(params, cutoff):
    thetas = u_eigensystem(params, cutoff).thetas
    want = _lapack_thetas(params, cutoff)
    assert thetas.shape == want.shape
    # 1e-13, plus the width in theta of one ulp of cos(theta): neither side
    # can place theta closer than that
    ulp = np.spacing(np.abs(np.cos(want))) / np.sin(want)
    assert np.all(np.abs(thetas - want) <= 1e-13 + ulp)


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


@settings(max_examples=40)
@given(st.integers(2, 12).flatmap(lambda b: st.tuples(st.just(b), st.integers(1, b - 1))),
       st.integers(2, 400))
def test_spectrum_against_lapack_across_the_plane(bc, cutoff):
    _assert_thetas_match_lapack(_S(1, *bc), cutoff)


@pytest.mark.parametrize("name", CASES)
def test_gershgorin_bound_is_that_of_T(name):
    # the bound places every sample point, so it must match T_N's own to the bit
    params = CASES[name]
    for N in (2, 3, 4, 5, 8, 300):
        t = build_T(params, N)
        want = np.max(np.abs(t.diag) + np.r_[t.offdiag, 0.0] + np.r_[0.0, t.offdiag])
        assert reduction._gershgorin_bound(params, N) == want, N


@pytest.mark.parametrize("cutoff", [2, 3, 8, 300, 4096])
def test_half_line_eigenvalues_on_the_band_edges(cutoff):
    # p = q = 1/2, r = 0: the eigenvalues of T_N are cos(k pi / N), k = 0..N,
    # with 1 and -1 on the two band edges
    params = PqParams(0.5, 0.5, 0.0)
    vals = reduction._certified_eigenvalues(params, cutoff, reduction._bisect_roots(params, cutoff))
    assert np.max(np.abs(vals - np.cos(np.pi * np.arange(cutoff + 1) / cutoff))) < 1e-15


@pytest.mark.parametrize("cutoff", [2, 3, 8, 9, 300])
def test_closed_form_keeps_its_sign_across_the_band_edges(cutoff):
    # s = 1/4 and r = 3/8 put the band edges at exactly -1/8 and 7/8, where
    # neither the sin nor the sinh form applies
    params = PqParams(0.5, 0.125, 0.375)
    [(K, a)] = reduction._char_factors(params, cutoff)
    edges = np.array([-0.125, 0.875])
    at = reduction._factor_values(params, K, a, edges)
    assert np.all(at != 0)
    for step in (1e-9, -1e-9):
        near = reduction._factor_values(params, K, a, edges + step)
        assert np.all(np.sign(near) == np.sign(at))
