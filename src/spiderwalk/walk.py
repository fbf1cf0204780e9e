"""Grover walk U = SC on the half-edge space of a truncated spidernet.

A walk state is a real (float64) numpy vector indexed by the graph's
half-edge order.  The coin C acts blockwise at each vertex u as the Grover
matrix 2/deg(u) - I on u's outgoing half-edges; the shift S sends the
amplitude of (u, v) to (v, u).  Both are real orthogonal involutions, so
U = SC is real orthogonal: a complex state evolves as its real and
imaginary parts, two real states, and the functions here refuse one.

Starting from the isotropic state at the root, amplitude after k steps
sits only on half-edges that leave strata <= k.  Step k + 1 coins only
those, so the truncated coin of the boundary stratum R never runs while
k < R, and a truncation of radius >= n evolves exactly like the infinite
graph for n steps; :func:`evolve` enforces that radius.  A walk read only
on strata <= K needs less: :func:`light_cone_radius` gives the radius,
about (n + K)/2, out to which those strata stay exact.

Half-edges are numbered stratum by stratum, so the support of such an
evolution is a prefix of the half-edge array.  :class:`GraphEvolver`, the
one stepping kernel, steps only that prefix in place.  Given the last step
and the largest stratum K read, it also steps only the half-edges that can
still reach a stratum <= K by then and reads only strata <= K, so a step
near the end coins and shifts far fewer half-edges than the support holds.
Stratum j's half-edges are a (|V_j|, deg_j) block of the state, so the
step needs no index over all half-edges: the coin sums rows, the forward
and backward cells of all strata swap through strided views, and only the
intra cells gather their reverses, through one index of closed-form
positions.  Memory grows like ``c**R`` with the radius R, from the walk's
two float64 buffers, that index and a few entries per vertex.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, RadiusTooSmallError, checked_int
from .graph import Spidernet

__all__ = [
    "isotropic_initial_state",
    "evolve",
    "light_cone_radius",
    "vertex_distribution",
    "GraphEvolver",
]


def _check_state(g: Spidernet, state) -> np.ndarray:
    """``state`` as a float64 array, if it is a real, finite vector over
    g's half-edges."""
    state = np.asarray(state)
    if state.shape != (g.num_half_edges,):
        raise DimensionMismatchError(
            f"state has shape {state.shape}, expected ({g.num_half_edges},)")
    if np.iscomplexobj(state):
        raise DimensionMismatchError(
            f"a walk state is real, got {state.dtype}: evolve its real and "
            "imaginary parts as two states")
    state = state.astype(np.float64, copy=False)
    if not np.isfinite(state).all():
        raise DimensionMismatchError("a walk state is finite, got NaN or inf")
    return state


def _views(g: Spidernet, flat: np.ndarray) -> tuple[list[tuple], list[tuple]]:
    """The views of a vector over g's half-edges that the shift copies.

    The forward cells and their reverses, the backward cells, as pairs of
    (rows, width) views: the root's and stratum 1's, strata 1..R-2's and
    2..R-1's, stratum R-1's and R's.  In order, the forward cells of the
    root and of strata 1..R-1 lead to vertices 1, 2, ...: off_{j+1} =
    c off_j + a + 1 - c, so vertex v's k-th forward half-edge is the
    backward one of vertex c v + a + 1 - c + k.  And the intra cells of
    strata 1..R-1 and of stratum R.  Each comes with the number of vertices
    off the root before the first it leads to or leaves."""
    a, b, c, m = g.params.a, g.params.b, g.params.c, g.params.intra_degree
    lo, hi = g.half_edge_offsets[[1, g.radius]]
    root, inner, bound = (flat[:lo].reshape(-1, a), flat[lo:hi].reshape(-1, b),
                          flat[hi:].reshape(-1, 1 + m))
    intra = [(0, inner[:, 1:1 + m]), (len(inner), bound[:, 1:])] if m else []
    # below radius 2 the last two pairs are empty
    cut = max(len(inner) - len(bound) // c, 0)
    return [(0, root, (inner if g.radius > 1 else bound)[:a, 0].reshape(-1, a)),
            (a, inner[:cut, -c:], inner[a:].reshape(cut, c, b)[:, :, 0]),
            (len(inner), inner[cut:, -c:],
             bound[:c * (len(inner) - cut)].reshape(-1, c, 1 + m)[:, :, 0])], intra


def _rows(g: Spidernet) -> tuple[np.ndarray, np.ndarray]:
    """Each vertex's degree, and the first half-edge of its row of the state."""
    degrees = np.repeat(g.stratum_degrees, g.stratum_sizes)
    return degrees, np.cumsum(degrees) - degrees


def _vertex_weights(psi: np.ndarray, starts: np.ndarray) -> np.ndarray:
    # at radius 0 the root has no half-edges, and reduceat cannot sum none
    return np.add.reduceat(np.square(psi), starts) if len(psi) else np.zeros(len(starts))


def _intra_reverses(g: Spidernet) -> np.ndarray:
    """For each intra half-edge of each vertex off the root, a
    (num_vertices - 1, m) array, the position of its reverse in the state.

    A stratum of size s has its intra neighbours at the offsets
    C = (-h..-1, +1..+h, then s/2 when m is odd), h = m // 2, from each row
    t.  t + C is ascending, and taken mod s it wraps at most one way, so
    row t lists C rotated left by r(t), the number of offsets that wrap
    below 0 less the number that wrap past s - 1, mod m.  The reverse of
    offset C[k] is C[(2h - 1 - k) mod m]."""
    m = g.params.intra_degree
    h, k = m // 2, np.arange(m)
    reverses = np.empty((g.num_vertices - 1, m), dtype=np.int64)
    for j in range(1, g.radius + 1 if m else 1):
        s, first = int(g.stratum_sizes[j]), int(g.stratum_offsets[j]) - 1
        unwrapped = np.arange(s)[:, None] + np.concatenate((k[:h] - h, k[:h] + 1, np.full(m % 2, s // 2)))
        target, r = unwrapped % s, -(unwrapped // s).sum(axis=1) % m
        column = ((2 * h - 1 - k) % m - r[target]) % m
        reverses[first:first + s] = np.take_along_axis(
            g.half_edge_offsets[j] + 1 + column + target * g.stratum_degrees[j],
            (k + r[:, None]) % m, axis=1)
    return reverses


def isotropic_initial_state(g: Spidernet) -> np.ndarray:
    """Uniform superposition over the root's outgoing half-edges."""
    if g.radius < 1:
        raise RadiusTooSmallError("the root has no edges at radius 0")
    state = np.zeros(g.num_half_edges)
    a = g.params.a
    state[:a] = 1.0 / np.sqrt(a)
    return state


class GraphEvolver:
    """In-place stepper for walks on the explicit graph, for ``max_steps``
    steps, read on strata 0..``reach``.

    The state is stored as float64.  ``top`` is the highest stratum whose
    outgoing half-edges can hold amplitude; it starts at the stratum of the
    state's last nonzero entry and grows by one per step, up to the radius.
    Cells past ``top`` are never written and stay exactly zero.

    ``reach`` is the largest stratum the caller will read.  The coin mixes
    only the half-edges leaving one vertex and the shift moves a half-edge's
    source at most one stratum, so a half-edge leaving stratum j after step
    n can reach one leaving a stratum <= K by step N only if
    j <= K + (N - n).  A step after which s steps are left therefore writes
    only the half-edges leaving strata <= w = min(top + 1, radius,
    reach + s).  Their shift reads the coined cells of half-edges leaving
    strata <= w + 1, so the step coins only strata <= min(top, w + 1);
    coined cells past ``top`` were never written and are 0.  By induction
    on the steps, the half-edges leaving strata <= reach + s hold the bits
    they hold with a reach of at least the radius: the coin reads only
    strata <= min(top, reach + s + 1), which the step before wrote, sums
    each vertex's half-edges as a wider coin does, and the shift copies.
    Cells left stale further out are never read again.
    :meth:`stratum_distribution` reads strata <= min(top, reach, radius).
    ``reach=None`` is the radius: with reach >= radius nothing is cut, and
    every half-edge that can hold amplitude is stepped and read.  Below it,
    :meth:`state` raises :class:`RadiusTooSmallError`, as stepping past
    ``max_steps`` does.
    """

    def __init__(self, g: Spidernet, state: np.ndarray, max_steps: int,
                 reach: int | None = None):
        state = _check_state(g, state)
        self._left = checked_int("max_steps", max_steps, 0)
        self.reach = g.radius if reach is None else checked_int("reach", reach, 0)
        self.g = g
        # half-edges and vertices of strata 0..k are the first _he_end[k]
        # and _v_end[k] of their arrays
        self._v_end = g.stratum_offsets[1:].tolist()
        self._he_end = g.half_edge_offsets[1:].tolist()
        self.top = max((k for k in range(g.radius + 1)
                        if state[g.half_edge_offsets[k]:self._he_end[k]].any()), default=0)
        n = self._he_end[self.top]
        self._psi = np.zeros(g.num_half_edges)
        self._psi[:n] = state[:n]
        # shifting the prefix reads coined cells up to two strata further
        # out; those are never written, so they stay zero
        self._coined = np.zeros_like(self._psi)
        # each vertex's degree, first half-edge and stratum, for the row sums
        # and for the bincount that adds each stratum's vertices in turn
        self._degrees, self._starts = _rows(g)
        self._strata = np.repeat(np.arange(g.radius + 1), g.stratum_sizes)
        # the shift's views, each with its rows that lead from or to strata
        # <= k, for each k: the pairs of forward and backward cells in the
        # state and in the coined cells, and the intra cells with the
        # positions of their reverses
        pairs, intra = _views(g, self._psi)
        ends = g.stratum_offsets[1:] - 1
        self._pairs = [(np.clip((ends - first) // fwd.shape[1], 0, len(fwd)).tolist(),
                        fwd, fwd_c, bwd, bwd_c)
                       for (first, fwd, bwd), (_, fwd_c, bwd_c) in zip(pairs, _views(g, self._coined)[0])]
        reverses = _intra_reverses(g)
        self._intra = [(np.clip(ends - first, 0, len(cells)).tolist(), cells,
                        reverses[first:first + len(cells)]) for first, cells in intra]

    def step(self) -> None:
        """Apply U = SC in place, on the light cone of strata 0..reach."""
        if self._left <= 0:
            raise RadiusTooSmallError("evolver stepped past its max_steps")
        self._left -= 1
        R = self.g.radius
        shifted = min(self.top + 1, R, self.reach + self._left)
        coined_top = min(self.top, shifted + 1)
        nv, n = self._v_end[coined_top], self._he_end[coined_top]
        if n:
            # coin: 2/deg times the sum over each vertex's half-edges, minus psi
            degrees = self._degrees[:nv]
            sums = np.add.reduceat(self._psi[:n], self._starts[:nv]) * (2.0 / degrees)
            np.subtract(sums.repeat(degrees), self._psi[:n], out=self._coined[:n])
        # shift: (u, v) takes the coined amplitude of (v, u).  The backward
        # and intra cells of strata <= shifted are written, and the forward
        # cells that lead to strata <= shifted + 1.
        ahead = min(shifted + 1, R)
        for rows, fwd, fwd_c, bwd, bwd_c in self._pairs:
            bwd[:rows[shifted]] = fwd_c[:rows[shifted]]
            fwd[:rows[ahead]] = bwd_c[:rows[ahead]]
        for rows, cells, reverses in self._intra:
            cells[:rows[shifted]] = self._coined[reverses[:rows[shifted]]]
        self.top = min(self.top + 1, R)

    def stratum_distribution(self) -> np.ndarray:
        """Find probabilities aggregated per stratum (index = distance from
        root), of strata 0..min(radius, reach)."""
        last = min(self.g.radius, self.reach)
        top = min(self.top, last)
        weights = _vertex_weights(self._psi[:self._he_end[top]], self._starts[:self._v_end[top]])
        return np.bincount(self._strata[:len(weights)], weights=weights, minlength=last + 1)

    def state(self) -> np.ndarray:
        """The current state, a copy over all half-edges."""
        if self.reach < self.g.radius:
            raise RadiusTooSmallError(
                "an evolver with a reach below the radius holds stale cells; "
                "build it with reach=None")
        return self._psi.copy()


def evolve(g: Spidernet, state: np.ndarray, steps: int) -> np.ndarray:
    """Apply U ``steps`` times.

    Requires ``steps <= g.radius``: from a state on the root's
    half-edges, step k + 1 coins only half-edges leaving strata <= k, so
    the coin never runs at a boundary vertex with missing forward edges.
    """
    steps = checked_int("steps", steps, 0)
    if steps > g.radius:
        raise RadiusTooSmallError(
            f"evolving {steps} steps needs radius >= {steps}, graph has {g.radius}")
    ev = GraphEvolver(g, state, steps)
    for _ in range(steps):
        ev.step()
    return ev.state()


def light_cone_radius(steps: int, strata: int) -> int:
    """The radius max(1, min(steps, (steps + strata) // 2 + 1)) out to
    which a walk from the root is built to read strata 0..``strata``
    exactly through step ``steps``.

    Radius ``steps`` is exact on every stratum (see :func:`evolve`).  At a
    radius R < steps, the truncated coin of boundary stratum R first acts
    at step R + 1, on half-edges leaving stratum R; the shift carries its
    error onto half-edges leaving strata R - 1 and R, and the missing
    forward edges lose what the infinite graph would send to stratum R + 1.
    Each later step moves the error at most one stratum inward, so stratum
    l stays exact through step 2R - l - 1 and can be wrong from step
    2R - l on.  Strata <= K thus stay exact through step N when
    2R - K - 1 >= N, that is R >= (N + K) // 2 + 1; one radius less lets
    the error reach stratum K by step N.  Inside that cone the kernel does
    the same arithmetic on the same cells at either radius, so the strata
    read are bit-identical.  The root has edges only from radius 1 on.
    ``steps`` and ``strata`` are integers >= 0; numpy integers are accepted,
    and a float or negative value raises :class:`InvalidParamsError`.
    """
    steps, strata = checked_int("steps", steps, 0), checked_int("strata", strata, 0)
    return max(1, min(steps, (steps + strata) // 2 + 1))


def vertex_distribution(g: Spidernet, state: np.ndarray) -> np.ndarray:
    """Per-vertex find probabilities: sum of amplitude^2 over each
    vertex's outgoing half-edges."""
    return _vertex_weights(_check_state(g, state), _rows(g)[1])
