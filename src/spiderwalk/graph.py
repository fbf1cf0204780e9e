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
The graph keeps only the sizes, offsets and degrees of its strata: the
wiring above places every half-edge and its reverse in closed form.
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

# A cap on the half-edges of one graph.  The graph itself holds a few entries
# per stratum; a GraphEvolver holds two float64 entries a half-edge (the state
# and its coin's output), one int64 index entry an intra half-edge and three
# entries a vertex, and its coin one float64 temporary a half-edge.  The peak
# RSS of ``simulate --full`` measured 37 B a half-edge at 4.3 M half-edges and
# 27-31 B from 13 M to 43 M, so ~4 GB at the cap.  Larger radii are rejected
# before anything is allocated.
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
    """A truncated spidernet, held as the sizes and degrees of its strata.

    Do not construct directly; use :func:`build_spidernet`.  All arrays are
    read-only (a write raises ValueError) and hold one entry per stratum:

    ``stratum_sizes``
        ``|V_j|``, the vertices of stratum j.
    ``stratum_offsets``
        Vertex ids, with ``stratum_offsets[j]`` the first id of V_j and a last
        entry ``num_vertices``.
    ``stratum_degrees``
        The degree of every vertex of stratum j: a at the root (0 at radius
        0), b inside and b - c on the boundary stratum, whose vertices keep
        their backward and intra-stratum half-edges.
    ``half_edge_offsets``
        Half-edges, with ``half_edge_offsets[j]`` the first half-edge leaving
        V_j and a last entry ``num_half_edges``.

    A walk state lists the half-edges vertex by vertex, so stratum j's
    half-edges are a C-contiguous ``(|V_j|, deg_j)`` block of it, and strata
    1..R-1 together one ``(num_vertices - 1 - |V_R|, b)`` block.  Each row
    lists the backward half-edge, then the b - c - 1 intra-stratum ones in
    ascending target order, then the c forward ones; vertex (j, i)'s k-th
    forward half-edge leads to vertex (j + 1, c i + k).
    """

    def __init__(self, params, radius, sizes, degrees):
        self.params: SpidernetParams = params
        self.radius: int = radius
        self.stratum_sizes = sizes = np.array(sizes, dtype=np.int64)
        self.stratum_degrees = degrees = np.array(degrees, dtype=np.int64)
        self.stratum_offsets = np.concatenate(([0], np.cumsum(sizes)))
        self.half_edge_offsets = np.concatenate(([0], np.cumsum(sizes * degrees)))
        self.num_vertices = int(self.stratum_offsets[-1])
        self.num_half_edges = int(self.half_edge_offsets[-1])
        for array in (sizes, degrees, self.stratum_offsets, self.half_edge_offsets):
            array.flags.writeable = False


def _wiring_checks(params: SpidernetParams) -> None:
    m = params.intra_degree
    if params.a <= m:
        raise UnrealizableWiringError(
            f"stratum of size {params.a} cannot host {m} distinct circulant "
            f"offsets; need a > b - c - 1")
    # |V_j| = a c^(j-1) is odd for some j >= 1 exactly when a is odd
    if m % 2 == 1 and params.a % 2 == 1:
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
        When (a, b, c) has no canonical wiring, at any radius: b - c - 1 is
        odd while a, and so stratum 1, is odd, or a stratum of size a is too
        small to host the circulant offsets.
    """
    radius = checked_int("radius", radius, 0)
    a, b, c = params.a, params.b, params.c

    # count in Python integers, stratum by stratum, so that an oversized
    # radius fails before any array exists or any size overflows int64
    sizes, degs = [1], [a if radius >= 1 else 0]
    total = degs[0]
    for j in range(1, radius + 1):
        sizes.append(a * c ** (j - 1))
        degs.append(b if j < radius else b - c)
        total += sizes[j] * degs[j]
        if total > MAX_HALF_EDGES:
            raise InvalidParamsError(
                f"radius {radius} needs more than the budget of "
                f"{MAX_HALF_EDGES} half-edges")
    _wiring_checks(params)
    return Spidernet(params, radius, sizes, degs)
