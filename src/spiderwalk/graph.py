"""Truncated spidernets with a deterministic, rotationally symmetric wiring.

A spidernet S(a, b, c) is a graph grown in strata around a root vertex o.
The root has degree a and every other vertex has degree b, split into
exactly c edges pointing away from the root, one edge pointing back, and
b - c - 1 edges inside the vertex's own stratum.  Stratum j therefore
holds ``a * c**(j-1)`` vertices for j >= 1.

Instances built here are truncated at a finite radius R and wired
canonically:

* vertex (j+1, i) attaches to parent (j, i // c),
* the b - c - 1 intra-stratum edges form a circulant cycle pattern,
  offsets ±1 .. ±(b-c-1)//2 plus the antipodal offset when b - c - 1
  is odd (which then requires every stratum size to be even).

This wiring is invariant under rotating stratum 1 by one position and
propagating that rotation through the parent map, so every instance is
rotationally symmetric around the root.

Vertices are numbered stratum by stratum; each vertex's neighbours are
listed in ascending order (backward, intra, forward), which also makes
the global half-edge order the lexicographic order on (source, target).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError, UnrealizableWiringError, checked_int

__all__ = [
    "SpidernetParams",
    "Spidernet",
    "build_spidernet",
    "MAX_HALF_EDGES",
]

# A cap on the half-edges of one graph.  Each takes three int64 entries (adj,
# he_src, reversal) and a GraphEvolver two float64 ones (the state and its
# coin's output); with the build's temporaries, the peak RSS of
# ``simulate --full`` measured 50-64 B a half-edge from 4.3 M to 38 M
# half-edges, so ~7 GB at the cap.  Larger radii are rejected before anything
# is allocated.
MAX_HALF_EDGES = 1 << 27


@dataclass(frozen=True)
class SpidernetParams:
    """Degree data (a, b, c) of a spidernet S(a, b, c).

    Constraints: a >= 1, b >= 2, 1 <= c <= b - 1, each an integer; numpy
    integers are accepted and stored as int, so that (b - c)**2 is exact.
    A float or out-of-range value raises :class:`InvalidParamsError`.  The
    spidernet is a tree exactly when c = b - 1 (no intra-stratum edges).
    """

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        b = checked_int("vertex degree b", self.b, 2)
        object.__setattr__(self, "a", checked_int("root degree a", self.a, 1))
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", checked_int("forward degree c", self.c, 1, b - 1))

    @property
    def intra_degree(self) -> int:
        """Number of same-stratum neighbours of a non-root vertex, b - c - 1."""
        return self.b - self.c - 1


class Spidernet:
    """A truncated spidernet: stratified vertex set, CSR adjacency, half-edge index.

    Do not construct directly; use :func:`build_spidernet`.  All arrays are
    read-only (a write raises ValueError) and hold the canonical wiring:

    ``adj_ptr``/``adj``
        CSR adjacency; the neighbours of vertex ``u`` are
        ``adj[adj_ptr[u]:adj_ptr[u+1]]``, sorted ascending.
    ``he_src``/``he_dst``
        Endpoint vertices of each half-edge (ordered pair).  Half-edge k is
        the k-th pair in lexicographic (src, dst) order.
    ``reversal``
        Permutation with ``(he_src[reversal[k]], he_dst[reversal[k]]) ==
        (he_dst[k], he_src[k])``; an involution.
    """

    def __init__(self, params, radius, sizes, offsets, degrees, adj_ptr, adj):
        self.params: SpidernetParams = params
        self.radius: int = radius
        self.stratum_sizes = sizes            # sizes[j] = |V_j|
        self.stratum_offsets = offsets        # offsets[j] = first vid of V_j
        self.degrees = degrees
        self.adj_ptr = adj_ptr
        self.adj = adj
        self.num_vertices = int(offsets[-1])
        self.num_half_edges = int(adj_ptr[-1])
        self.vertex_stratum = np.repeat(np.arange(radius + 1), sizes)
        self.he_src = np.repeat(np.arange(self.num_vertices), degrees)
        self.he_dst = adj
        # Per-vertex neighbour lists are ascending and strata are laid out
        # consecutively, so the half-edge order is lexicographic in
        # (src, dst); sorting by (dst, src) is then exactly the reversal map.
        self.reversal = np.lexsort((self.he_src, self.he_dst))
        for array in (sizes, offsets, degrees, adj_ptr, adj, self.vertex_stratum,
                      self.he_src, self.reversal):
            array.flags.writeable = False


def _wiring_checks(params: SpidernetParams, radius: int) -> None:
    m = params.intra_degree
    if m == 0:
        return
    if params.a <= m:
        raise UnrealizableWiringError(
            f"stratum of size {params.a} cannot host {m} distinct circulant "
            f"offsets; need a > b - c - 1")
    # |V_j| = a c^(j-1) is odd for some j >= 1 exactly when a is odd
    if m % 2 == 1 and radius >= 1 and params.a % 2 == 1:
        raise UnrealizableWiringError(
            f"odd intra-stratum degree {m} needs even strata, but "
            f"|V_1| = {params.a} is odd (no 1-factor exists)")


def build_spidernet(params: SpidernetParams, radius: int) -> Spidernet:
    """Build the canonical truncation of S(a, b, c) to strata 0..radius.

    Parameters
    ----------
    params:
        Degree data of the spidernet.
    radius:
        Number of strata to keep beyond the root, an integer >= 0; a numpy
        integer is accepted and stored as int.  Vertices in the last
        stratum are boundary vertices: they keep their backward and
        intra-stratum edges but have no forward edges.

    Raises
    ------
    InvalidParamsError
        On a float or negative radius, or when the graph would have more than
        ``MAX_HALF_EDGES`` half-edges.
    UnrealizableWiringError
        When b - c - 1 is odd while some stratum has odd size, or when a
        stratum is too small to host the circulant offsets.
    """
    radius = checked_int("radius", radius, 0)
    a, b, c = params.a, params.b, params.c
    m = params.intra_degree

    # count in Python integers, stratum by stratum, so that an oversized
    # radius fails before any array exists or any size overflows int64
    sizes, degs = [1], [a if radius >= 1 else 0]
    total = degs[0]
    for j in range(1, radius + 1):
        sizes.append(a * c ** (j - 1))
        degs.append(b if j < radius else 1 + m)
        total += sizes[j] * degs[j]
        if total > MAX_HALF_EDGES:
            raise InvalidParamsError(
                f"radius {radius} needs more than the budget of "
                f"{MAX_HALF_EDGES} half-edges")
    _wiring_checks(params, radius)

    sizes = np.array(sizes, dtype=np.int64)
    degrees = np.repeat(np.array(degs, dtype=np.int64), sizes)
    offsets = np.concatenate(([0], np.cumsum(sizes)))

    adj_ptr = np.concatenate(([0], np.cumsum(degrees)))
    adj = np.empty(total, dtype=np.int64)

    if radius >= 1:
        adj[adj_ptr[0]:adj_ptr[1]] = offsets[1] + np.arange(a)

    half = m // 2
    intra_offs = list(range(1, half + 1))
    for j in range(1, radius + 1):
        s = int(sizes[j])
        ids = np.arange(s)
        cols = []
        if j == 1:
            cols.append(np.zeros((s, 1), dtype=np.int64))
        else:
            cols.append((offsets[j - 1] + ids // c)[:, None])
        if m > 0:
            offs = np.array(intra_offs + [s - k for k in intra_offs]
                            + ([s // 2] if m % 2 == 1 else []), dtype=np.int64)
            intra = np.sort((ids[:, None] + offs[None, :]) % s, axis=1)
            cols.append(offsets[j] + intra)
        if j < radius:
            cols.append(offsets[j + 1] + (c * ids[:, None] + np.arange(c)[None, :]))
        block = np.concatenate(cols, axis=1)
        adj[adj_ptr[offsets[j]]:adj_ptr[offsets[j + 1]]] = block.ravel()

    return Spidernet(params, radius, sizes, offsets, degrees, adj_ptr, adj)

