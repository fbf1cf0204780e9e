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
Memory grows like ``c**R`` with the radius R, from the graph arrays.
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


def _vertex_weights(g: Spidernet, psi: np.ndarray, n_vertices: int) -> np.ndarray:
    return np.add.reduceat(np.square(psi), g.adj_ptr[:n_vertices])


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
        self._v_end = [int(v) for v in g.stratum_offsets[1:]]
        self._he_end = [int(g.adj_ptr[v]) for v in self._v_end]
        starts = [0] + self._he_end[:-1]
        self.top = max((k for k, (lo, hi) in enumerate(zip(starts, self._he_end))
                        if state[lo:hi].any()), default=0)
        n = self._he_end[self.top]
        self._psi = np.zeros(g.num_half_edges)
        self._psi[:n] = state[:n]
        # shifting the prefix reads coined cells up to two strata further
        # out; those are never written, so they stay zero
        self._coined = np.zeros_like(self._psi)
        self._factor = 2.0 / g.degrees

    def step(self) -> None:
        """Apply U = SC in place, on the light cone of strata 0..reach."""
        if self._left <= 0:
            raise RadiusTooSmallError("evolver stepped past its max_steps")
        self._left -= 1
        g = self.g
        shifted = min(self.top + 1, g.radius, self.reach + self._left)
        coined_top = min(self.top, shifted + 1)
        nv, n = self._v_end[coined_top], self._he_end[coined_top]
        # coin: 2/deg times the sum over each vertex's half-edges, minus psi;
        # the sums die in this statement, before the shift touches new pages
        psi, coined = self._psi[:n], self._coined[:n]
        np.take(np.add.reduceat(psi, g.adj_ptr[:nv]) * self._factor[:nv], g.he_src[:n],
                out=coined)
        np.subtract(coined, psi, out=coined)
        # shift: (u, v) takes the coined amplitude of (v, u)
        m = self._he_end[shifted]
        np.take(self._coined, g.reversal[:m], out=self._psi[:m])
        self.top = min(self.top + 1, g.radius)

    def stratum_distribution(self) -> np.ndarray:
        """Find probabilities aggregated per stratum (index = distance from
        root), of strata 0..min(radius, reach)."""
        last = min(self.g.radius, self.reach)
        top = min(self.top, last)
        weights = _vertex_weights(self.g, self._psi[:self._he_end[top]], self._v_end[top])
        return np.bincount(self.g.vertex_stratum[:len(weights)], weights=weights,
                           minlength=last + 1)

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
    return _vertex_weights(g, _check_state(g, state), g.num_vertices)
