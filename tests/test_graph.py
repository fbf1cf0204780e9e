import tracemalloc
from collections import deque

import numpy as np
import pytest

import spiderwalk.graph
from oracles import (
    BoundaryVertexError,
    half_edge_index,
    half_edge_permutation,
    is_tree,
    neighbors,
    omega,
    rotation_permutation,
    stratum_vertices,
    vertex_address,
    vertex_id,
)
from spiderwalk import (
    InvalidParamsError,
    SpidernetParams,
    UnrealizableWiringError,
    build_spidernet,
)


def test_params_validation():
    with pytest.raises(InvalidParamsError):
        SpidernetParams(0, 6, 3)
    with pytest.raises(InvalidParamsError):
        SpidernetParams(4, 1, 1)
    with pytest.raises(InvalidParamsError):
        SpidernetParams(4, 6, 0)
    with pytest.raises(InvalidParamsError):
        SpidernetParams(4, 6, 6)
    with pytest.raises(InvalidParamsError):
        SpidernetParams(4, 6, 3.0)


def test_params_properties():
    sp = SpidernetParams(4, 6, 3)
    assert sp.intra_degree == 2
    assert not is_tree(sp)
    assert is_tree(SpidernetParams(3, 4, 3))


def test_stratum_sizes_463():
    g = build_spidernet(SpidernetParams(4, 6, 3), 3)
    assert [int(s) for s in g.stratum_sizes] == [1, 4, 12, 36]
    assert g.num_vertices == 53
    assert g.degrees[0] == 4
    # interior vertices have degree b, boundary ones only backward + intra
    interior = slice(1, int(g.stratum_offsets[3]))
    assert np.all(g.degrees[interior] == 6)
    assert np.all(g.degrees[int(g.stratum_offsets[3]):] == 3)


def test_arrays_are_read_only():
    # the evolvers, embed and the reads trust the wiring they are given
    g = build_spidernet(SpidernetParams(4, 6, 3), 2)
    for name in ("stratum_sizes", "stratum_offsets", "degrees", "adj_ptr", "adj",
                 "vertex_stratum", "he_src", "he_dst", "reversal"):
        with pytest.raises(ValueError):
            getattr(g, name)[0] = 1


def test_tree_has_no_intra_edges():
    g = build_spidernet(SpidernetParams(3, 3, 2), 2)
    strata = g.vertex_stratum
    same = strata[g.he_src] == strata[g.he_dst]
    assert not np.any(same)


def test_v2_intra_degree_audit():
    # brute-force check on the built adjacency, not on the formula
    g = build_spidernet(SpidernetParams(4, 6, 3), 3)
    for u in stratum_vertices(g, 2):
        nbr_strata = g.vertex_stratum[neighbors(g, u)]
        assert int(np.sum(nbr_strata == 2)) == 2


def test_omega():
    g = build_spidernet(SpidernetParams(4, 6, 3), 3)
    assert omega(g, 0, "+") == 4
    u = vertex_id(g, 2, 5)
    assert omega(g, u, "+") == 3
    assert omega(g, u, "-") == 1
    assert omega(g, u, "o") == 2
    with pytest.raises(BoundaryVertexError):
        omega(g, vertex_id(g, 3, 0), "+")
    with pytest.raises(InvalidParamsError):
        omega(g, u, "x")


def test_handshake():
    for sp, r in [(SpidernetParams(4, 6, 3), 3), (SpidernetParams(2, 3, 1), 4),
                  (SpidernetParams(1, 2, 1), 5)]:
        g = build_spidernet(sp, r)
        assert int(g.degrees.sum()) == g.num_half_edges
        assert g.num_half_edges % 2 == 0


def test_stratum_growth():
    g = build_spidernet(SpidernetParams(5, 7, 2), 5)
    for j in range(1, 5):
        assert g.stratum_sizes[j + 1] == 2 * g.stratum_sizes[j]


def test_bfs_depth_equals_stratum():
    g = build_spidernet(SpidernetParams(4, 6, 3), 4)
    depth = np.full(g.num_vertices, -1)
    depth[0] = 0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in neighbors(g, u):
            if depth[v] < 0:
                depth[v] = depth[u] + 1
                queue.append(v)
    assert np.all(depth >= 0)  # connected
    assert np.array_equal(depth, g.vertex_stratum)


def test_adjacency_is_symmetric_and_simple():
    g = build_spidernet(SpidernetParams(4, 6, 3), 3)
    pairs = set(zip(g.he_src.tolist(), g.he_dst.tolist()))
    assert len(pairs) == g.num_half_edges  # no parallel edges
    assert all((v, u) in pairs for u, v in pairs)
    assert all(u != v for u, v in pairs)  # no loops
    for u in range(g.num_vertices):
        nbrs = neighbors(g, u)
        assert np.all(np.diff(nbrs) > 0)  # sorted, distinct


def test_reversal_involution():
    g = build_spidernet(SpidernetParams(4, 6, 3), 3)
    rev = g.reversal
    assert np.array_equal(rev[rev], np.arange(g.num_half_edges))
    assert np.array_equal(g.he_src[rev], g.he_dst)
    assert np.array_equal(g.he_dst[rev], g.he_src)


def test_rotation_is_automorphism():
    g = build_spidernet(SpidernetParams(4, 6, 3), 3)
    perm = rotation_permutation(g)
    assert perm[0] == 0
    # half_edge_permutation raises unless the map preserves adjacency
    hperm = half_edge_permutation(g, perm)
    assert np.array_equal(np.sort(hperm), np.arange(g.num_half_edges))
    # a full turn of stratum 1 returns to the identity
    composed = perm.copy()
    for _ in range(g.params.a - 1):
        composed = perm[composed]
    assert np.array_equal(composed, np.arange(g.num_vertices))


def test_non_automorphism_rejected():
    g = build_spidernet(SpidernetParams(4, 6, 3), 2)
    bad = np.arange(g.num_vertices)
    bad[0], bad[1] = 1, 0  # swapping the root with a leafward vertex
    with pytest.raises(InvalidParamsError):
        half_edge_permutation(g, bad)


def test_unrealizable_wirings():
    # odd intra degree with an odd stratum: no perfect matching exists
    with pytest.raises(UnrealizableWiringError):
        build_spidernet(SpidernetParams(3, 4, 2), 3)
    # stratum too small for the circulant offsets
    with pytest.raises(UnrealizableWiringError):
        build_spidernet(SpidernetParams(2, 4, 1), 3)
    # the even-strata variant wires fine
    g = build_spidernet(SpidernetParams(4, 4, 2), 3)
    assert omega(g, vertex_id(g, 1, 0), "o") == 1


def test_vertex_addressing_roundtrip():
    g = build_spidernet(SpidernetParams(4, 6, 3), 3)
    for j in range(4):
        for i in (0, int(g.stratum_sizes[j]) - 1):
            vid = vertex_id(g, j, i)
            assert vertex_address(g, vid) == (j, i)
    with pytest.raises(InvalidParamsError):
        vertex_id(g, 4, 0)
    with pytest.raises(InvalidParamsError):
        vertex_id(g, 1, 4)


def test_half_edge_index():
    g = build_spidernet(SpidernetParams(4, 6, 3), 2)
    k = half_edge_index(g, 0, 1)
    assert g.he_src[k] == 0 and g.he_dst[k] == 1
    with pytest.raises(InvalidParamsError):
        half_edge_index(g, 0, vertex_id(g, 2, 0))


def test_radius_and_budget_guards(monkeypatch):
    g0 = build_spidernet(SpidernetParams(4, 6, 3), 0)
    assert g0.num_vertices == 1 and g0.num_half_edges == 0
    with pytest.raises(InvalidParamsError):
        build_spidernet(SpidernetParams(4, 6, 3), -1)
    monkeypatch.setattr(spiderwalk.graph, "MAX_HALF_EDGES", 10)
    with pytest.raises(InvalidParamsError):
        build_spidernet(SpidernetParams(4, 6, 3), 3)


@pytest.mark.parametrize("radius", [20, 42])
def test_budget_checked_before_allocation(radius):
    # radius 20 needs 52 GiB of degrees alone; radius 42 overflows int64
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParamsError):
            build_spidernet(SpidernetParams(4, 6, 3), radius)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
