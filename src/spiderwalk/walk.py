"""Grover walk U = SC on the half-edge space of a truncated spidernet.

A walk state is a complex numpy vector indexed by the graph's half-edge
order.  The coin C acts blockwise at each vertex u as the Grover matrix
2/deg(u) - I on u's outgoing half-edges; the shift S sends the amplitude
of (u, v) to (v, u).  Both are real orthogonal involutions, so U = SC is
unitary with real matrix entries.

Starting from the isotropic state at the root, an n-step evolution only
reaches strata up to n + 1, so a truncation of radius >= n + 2 evolves
exactly like the infinite graph; :func:`evolve` enforces that margin.

Half-edges are numbered stratum by stratum, so the support of such an
evolution is a prefix of the half-edge array.  :class:`GraphEvolver`
steps only that light-cone prefix, in float64 for a real state, which
makes graph construction the dominant cost of the explicit route; memory
still grows like ``c**steps``, from the graph arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, InvalidParamsError, RadiusTooSmallError
from .graph import Spidernet

__all__ = [
    "isotropic_initial_state",
    "coin_apply",
    "shift_apply",
    "step",
    "evolve",
    "vertex_distribution",
    "stratum_distribution",
    "time_averaged_distribution",
    "GraphEvolver",
]

#: A walk state is just a complex vector over half-edges.
WalkState = np.ndarray


def _check_state(g: Spidernet, state: np.ndarray) -> None:
    if state.shape != (g.num_half_edges,):
        raise DimensionMismatchError(
            f"state has shape {state.shape}, expected ({g.num_half_edges},)")


def _coin(g: Spidernet, psi: np.ndarray, factor: np.ndarray, out: np.ndarray) -> None:
    # psi holds the half-edges leaving the first len(factor) vertices;
    # factor is 2/deg per vertex
    sums = np.add.reduceat(psi, g.adj_ptr[:len(factor)]) * factor
    np.take(sums, g.he_src[:len(psi)], out=out)
    np.subtract(out, psi, out=out)


def _shift(g: Spidernet, psi: np.ndarray, out: np.ndarray) -> None:
    np.take(psi, g.reversal[:len(out)], out=out)


def _vertex_weights(g: Spidernet, psi: np.ndarray, n_vertices: int) -> np.ndarray:
    return np.add.reduceat(np.abs(psi) ** 2, g.adj_ptr[:n_vertices])


def _strata(g: Spidernet, vertex_weights: np.ndarray) -> np.ndarray:
    return np.bincount(g.vertex_stratum[:len(vertex_weights)], weights=vertex_weights,
                       minlength=g.radius + 1)


def isotropic_initial_state(g: Spidernet) -> WalkState:
    """Uniform superposition over the root's outgoing half-edges."""
    if g.radius < 1:
        raise RadiusTooSmallError("the root has no edges at radius 0")
    state = np.zeros(g.num_half_edges, dtype=np.complex128)
    a = g.params.a
    state[:a] = 1.0 / np.sqrt(a)
    return state


def coin_apply(g: Spidernet, state: WalkState) -> WalkState:
    """Apply the blockwise Grover coin: within each vertex block,
    value -> (2/deg) * block_sum - value."""
    _check_state(g, state)
    out = np.empty(state.shape, dtype=np.result_type(state, np.float64))
    _coin(g, state, 2.0 / g.degrees, out)
    return out


def shift_apply(g: Spidernet, state: WalkState) -> WalkState:
    """Apply the shift: amplitude of (u, v) moves to (v, u)."""
    _check_state(g, state)
    out = np.empty_like(state)
    _shift(g, state, out)
    return out


def step(g: Spidernet, state: WalkState) -> WalkState:
    """One walk step U = SC."""
    return shift_apply(g, coin_apply(g, state))


class GraphEvolver:
    """In-place stepper for walks on the explicit graph.

    The state is stored as float64 when its imaginary part is zero (U is
    real, so it stays real) and as complex128 otherwise.  ``top`` is the
    highest stratum whose outgoing half-edges can hold amplitude; it starts
    at the stratum of the state's last nonzero entry.  A step coins the
    half-edges leaving strata <= ``top`` and shifts into those leaving
    strata <= ``min(top + 1, radius)``; cells past that prefix are never
    written and stay exactly zero.  Reads cover only the prefix.
    """

    def __init__(self, g: Spidernet, state: WalkState):
        _check_state(g, state)
        self.g = g
        # half-edges and vertices of strata 0..k are the first _he_end[k]
        # and _v_end[k] of their arrays
        self._v_end = [int(v) for v in g.stratum_offsets[1:]]
        self._he_end = [int(g.adj_ptr[v]) for v in self._v_end]
        starts = [0] + self._he_end[:-1]
        self.top = max((k for k, (lo, hi) in enumerate(zip(starts, self._he_end))
                        if state[lo:hi].any()), default=0)
        n = self._he_end[self.top]
        if not state[:n].imag.any():
            state = state.real
        self._psi = np.zeros(g.num_half_edges, dtype=state.dtype)
        self._psi[:n] = state[:n]
        # shifting the prefix reads coined cells up to two strata further
        # out; those are never written, so they stay zero
        self._coined = np.zeros_like(self._psi)
        self._factor = 2.0 / g.degrees

    def step(self) -> None:
        """Apply U = SC in place."""
        nv, n = self._v_end[self.top], self._he_end[self.top]
        _coin(self.g, self._psi[:n], self._factor[:nv], self._coined[:n])
        self.top = min(self.top + 1, self.g.radius)
        _shift(self.g, self._coined, self._psi[:self._he_end[self.top]])

    def _weights(self) -> np.ndarray:
        return _vertex_weights(self.g, self._psi[:self._he_end[self.top]],
                               self._v_end[self.top])

    def vertex_distribution(self) -> np.ndarray:
        """Per-vertex find probabilities, as :func:`vertex_distribution`."""
        out = np.zeros(self.g.num_vertices)
        weights = self._weights()
        out[:len(weights)] = weights
        return out

    def stratum_distribution(self) -> np.ndarray:
        """Per-stratum find probabilities, as :func:`stratum_distribution`."""
        return _strata(self.g, self._weights())

    def state(self) -> WalkState:
        """The current state as a complex128 vector over all half-edges."""
        n = self._he_end[self.top]
        out = np.zeros(self.g.num_half_edges, dtype=np.complex128)
        out[:n] = self._psi[:n]
        return out


def evolve(g: Spidernet, state: WalkState, steps: int) -> WalkState:
    """Apply U ``steps`` times.

    Requires ``steps + 2 <= g.radius`` so that no amplitude ever reaches a
    boundary vertex with missing forward edges (the support after n steps
    is confined to strata <= n + 1).
    """
    if steps < 0:
        raise InvalidParamsError(f"steps must be non-negative, got {steps}")
    if steps + 2 > g.radius:
        raise RadiusTooSmallError(
            f"evolving {steps} steps needs radius >= {steps + 2}, graph has {g.radius}")
    ev = GraphEvolver(g, state)
    for _ in range(steps):
        ev.step()
    return ev.state()


def vertex_distribution(g: Spidernet, state: WalkState) -> np.ndarray:
    """Per-vertex find probabilities: sum of |amplitude|^2 over each
    vertex's outgoing half-edges."""
    _check_state(g, state)
    return _vertex_weights(g, state, g.num_vertices)


def stratum_distribution(g: Spidernet, state: WalkState) -> np.ndarray:
    """Find probabilities aggregated per stratum (index = distance from root)."""
    return _strata(g, vertex_distribution(g, state))


def time_averaged_distribution(g: Spidernet, state: WalkState, horizon: int) -> np.ndarray:
    """Cesaro mean (1/horizon) * sum of vertex distributions over steps
    n = 0 .. horizon-1."""
    if horizon < 1:
        raise InvalidParamsError(f"horizon must be >= 1, got {horizon}")
    if (horizon - 1) + 2 > g.radius:
        raise RadiusTooSmallError(
            f"averaging {horizon} steps needs radius >= {horizon + 1}, graph has {g.radius}")
    ev = GraphEvolver(g, state)
    acc = ev.vertex_distribution()
    for _ in range(horizon - 1):
        ev.step()
        acc += ev.vertex_distribution()
    return acc / horizon
