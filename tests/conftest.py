import functools

import numpy as np
import pytest
import scipy.sparse
from hypothesis import settings

import oracles
import spiderwalk.reduction as reduction
from oracles import csr_graph, cutoff_dim, cutoff_index, half_edge_index
from spiderwalk import SpidernetParams, build_spidernet, origin_amplitude_series

# reproducible property tests: the same examples on every run, and no
# per-example deadline on a loaded machine
settings.register_profile("spiderwalk", derandomize=True, deadline=None)
settings.load_profile("spiderwalk")


@pytest.fixture(scope="session")
def big_463():
    """S(4,6,3) truncated at radius 12; shared by the heavier walk tests."""
    return build_spidernet(SpidernetParams(4, 6, 3), 12)


@pytest.fixture(scope="session")
def big_442():
    """S(4,4,2) at radius 12: realizable stand-in with the same (p, q, r)
    as the unrealizable S(3,4,2)."""
    return build_spidernet(SpidernetParams(4, 4, 2), 12)


@pytest.fixture(scope="session")
def origin_series_20k():
    """origin_amplitude_series(params, 20 000), computed once per params:
    criterion 4 and the check of the underflow front read the same series."""
    return functools.cache(lambda params: origin_amplitude_series(params, 20_000))


@pytest.fixture(scope="session")
def cutoff_shift():
    """Builds the shift of H(N), psi_n^+ <-> psi_{n+1}^-, as a dense matrix
    from the cutoff layout, independently of the package's own shift."""
    def build(N):
        s = np.eye(cutoff_dim(N))
        for n in range(N):
            i, j = cutoff_index(n, "+", N), cutoff_index(n + 1, "-", N)
            s[[i, j]] = s[[j, i]]
        return s
    return build


@pytest.fixture(scope="session")
def sparse_walk():
    """Builds the coin C and the shift S of a graph's walk U = SC as sparse
    matrices from the adjacency lists of its CSR graph, independently of the
    package's kernels: C is 2/deg - I on each vertex's block of outgoing
    half-edges (deg counted from the block, so boundary vertices get the
    truncated coin) and S sends the half-edge (u, v) to (v, u)."""
    def build(g):
        g = csr_graph(g)
        n = g.num_half_edges
        rows, cols, vals = [], [], []
        image = np.empty(n, dtype=np.int64)
        for u in range(g.num_vertices):
            lo, hi = int(g.adj_ptr[u]), int(g.adj_ptr[u + 1])
            block = np.arange(lo, hi)
            rows.append(np.repeat(block, hi - lo))
            cols.append(np.tile(block, hi - lo))
            vals.append((2.0 / (hi - lo) - np.eye(hi - lo)).ravel())
            for k, v in zip(block, g.adj[lo:hi]):
                image[k] = half_edge_index(g, int(v), u)
        coin = scipy.sparse.csr_array(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n))
        shift = scipy.sparse.csr_array((np.ones(n), (image, np.arange(n))), shape=(n, n))
        return coin, shift
    return build


@pytest.fixture
def perturbed_eigensolver(monkeypatch):
    """Makes the tridiagonal eigensolver of the oracle ``eigensystem_T``
    return one eigenvector entry off by 1e-6, an eigenpair that only a
    residual check can reject."""
    solve = oracles.scipy.linalg.eigh_tridiagonal

    def perturbed(diag, offdiag):
        vals, vecs = solve(diag, offdiag)
        vecs[3, 4] += 1e-6
        return vals, vecs

    monkeypatch.setattr(oracles.scipy.linalg, "eigh_tridiagonal", perturbed)


def _patch_roots(monkeypatch, edit):
    solve = reduction._band_roots

    def patched(params, cutoff, a, side):
        return edit(*solve(params, cutoff, a, side))

    monkeypatch.setattr(reduction, "_band_roots", patched)


@pytest.fixture
def shifted_root(monkeypatch):
    """Moves one root of det(x - T_N) found in the band by 1e-6 in its band
    angle."""
    _patch_roots(monkeypatch, lambda a, side: (a + np.where(np.arange(len(a)) == 3, 1e-6, 0.0), side))


@pytest.fixture
def dropped_root(monkeypatch):
    """Drops one root of det(x - T_N) found in the band."""
    _patch_roots(monkeypatch, lambda a, side: (np.delete(a, 3), np.delete(side, 3)))


@pytest.fixture
def merged_root(monkeypatch):
    """Replaces one root of det(x - T_N) found in the band by its neighbour
    moved by 1e-12: it still carries a sign change, of the neighbour's root."""
    def merge(a, side):
        at = np.arange(len(a)) == 3
        return np.where(at, np.roll(a, -1) - 1e-12, a), np.where(at, np.roll(side, -1), side)

    _patch_roots(monkeypatch, merge)


@pytest.fixture
def miscounted(monkeypatch):
    """Makes the Sturm count of T_N at the top band sample one too high."""
    count = reduction._sturm_count

    def patched(params, cutoff, y, end):
        half_step = 0.5 * (np.pi / max(4 * cutoff, reduction._MIN_SAMPLES))
        top = -reduction._edge_gaps(params, half_step, 1.0)[0]
        return count(params, cutoff, y, end) + (end > 0 and y == top)

    monkeypatch.setattr(reduction, "_sturm_count", patched)
