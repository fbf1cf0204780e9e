"""Spans around calls into each spiderwalk module, installed from outside.

:meth:`Tracer.install` wraps every function named in a submodule's
``__all__`` and the public methods of the classes named there, and
rebinds every ``spiderwalk.*`` attribute that holds the original object,
so that calls through ``from .walk import step`` style imports are traced
too.  A span is ``(name, start, end, parent)``; spans stay in memory and
:meth:`Tracer.summary` reduces them when the job ends.  A span's self
time is its duration minus the durations of its child spans.

Counts are computed at the same boundaries, from the arguments and
results of the wrapped calls (sizes, dtypes and graph offsets), never from
inside the program.  Bookkeeping for the counts runs in a span of its own,
``trace.hooks``, so it is not charged to any spiderwalk layer.
"""

import functools
import inspect
import sys
import time

import numpy as np

_clock = time.monotonic
_TINY = np.finfo(np.float64).tiny


def _subnormal_doubles(arrays) -> int:
    total = 0
    for arr in arrays:
        for part in (arr.real, arr.imag):
            total += int(np.count_nonzero((part != 0) & (np.abs(part) < _TINY)))
    return total


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []          # (name, start, end, parent index or -1)
        self.stack = []
        self.calls = {}
        self.errors = {}
        self.counts = {
            "graph.half_edges": 0,
            "graph.bytes": 0,
            "walk.half_edge_updates": 0,
            "walk.reachable_updates": 0,
            "walk.state_bytes": 0,
            "reduction.ladder_cells": 0,
            "meixner.quadrature_nodes": 0,
            "trace.hook_errors": 0,
        }
        self._graphs = {}        # id -> [graph, coin calls so far, started at the root]
        self._evolvers = {}      # id -> [evolver, horizon, active strata per step, max read]
        self._node_counts = set()
        self._cold_spans = []
        self._hooks = {
            "graph.build_spidernet": self._on_build,
            "walk.coin_apply": self._on_coin,
            "reduction.ReducedEvolver.step": self._on_evolver_step,
            "reduction.ReducedEvolver.stratum_probability": self._on_evolver_read,
            "reduction.ReducedEvolver.origin_probability": self._on_evolver_read,
            "reduction.ReducedEvolver.origin_amplitude": self._on_evolver_read,
            "reduction.ReducedEvolver.state": self._on_evolver_read,
            "meixner.integrate": self._on_integrate,
        }

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        prefix = self.package.__name__ + "."
        modules = [m for name, m in sorted(sys.modules.items())
                   if name.startswith(prefix) and m is not None]
        replaced = {}
        for module in modules:
            layer = module.__name__[len(prefix):]
            for name in getattr(module, "__all__", ()):
                obj = getattr(module, name)
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for attr, value in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(value):
                            setattr(obj, attr, self._wrap(f"{layer}.{name}.{attr}", value))
        for module in [self.package] + modules:
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def _wrap(self, name, fn):
        spans, stack, calls, errors = self.spans, self.stack, self.calls, self.errors
        hook = self._hooks.get(name)
        calls[name] = 0
        errors[name] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name] += 1
                raise
            finally:
                end = _clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
                calls[name] += 1
            if hook is not None:
                try:
                    hook(index, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # the program changed shape under a hook: keep running, report it
                    self.counts["trace.hook_errors"] += 1
                spans.append(("trace.hooks", end, _clock(), parent))
            return result

        return traced

    # -- counts ----------------------------------------------------------------

    def _on_build(self, index, args, kwargs, g):
        self.counts["graph.half_edges"] += g.num_half_edges
        arrays = {id(a): a for a in (g.stratum_sizes, g.stratum_offsets, g.degrees,
                                     g.adj_ptr, g.adj, g.vertex_stratum, g.he_src,
                                     g.he_dst, g.reversal)}
        self.counts["graph.bytes"] += sum(a.nbytes for a in arrays.values())

    def _on_coin(self, index, args, kwargs, result):
        g, state = args[0], args[1]
        entry = self._graphs.get(id(g))
        if entry is None:
            # the light cone below holds only for evolutions from the root
            entry = [g, 0, not np.any(state[g.adj_ptr[1]:])]
            self._graphs[id(g)] = entry
        entry[1] += 1
        if entry[2]:
            # before step k the amplitude sits on half-edges leaving strata < k;
            # the step can write half-edges leaving strata <= k
            top = min(entry[1], g.radius)
            reachable = int(g.adj_ptr[g.stratum_offsets[top + 1]])
        else:
            reachable = g.num_half_edges
        self.counts["walk.half_edge_updates"] += state.size
        self.counts["walk.reachable_updates"] += reachable
        self.counts["walk.state_bytes"] = max(self.counts["walk.state_bytes"], state.nbytes)

    def _evolver(self, ev, active):
        entry = self._evolvers.get(id(ev))
        if entry is None:
            # capacity is (initial length) + max_steps + 2
            entry = [ev, len(ev.xp) - 2 - active, [], -1]
            self._evolvers[id(ev)] = entry
        return entry

    def _on_evolver_step(self, index, args, kwargs, result):
        ev = args[0]
        active = ev.active - 1
        entry = self._evolver(ev, active)
        entry[2].append(active)
        self.counts["reduction.ladder_cells"] += active

    def _on_evolver_read(self, index, args, kwargs, result):
        ev = args[0]
        entry = self._evolver(ev, ev.active)
        if len(args) > 1:
            read = args[1]
        elif isinstance(result, (float, complex)):
            read = 0                               # origin reads
        else:
            read = float("inf")                    # state(): every stratum
        entry[3] = max(entry[3], read)

    def _on_integrate(self, index, args, kwargs, result):
        spec = args[2] if len(args) > 2 else kwargs.get("spec")
        if spec is None:
            spec = self.package.meixner.QuadratureSpec()
        nodes = spec.nodes
        self.counts["meixner.quadrature_nodes"] += nodes
        if nodes not in self._node_counts:
            self._node_counts.add(nodes)
            self._cold_spans.append(index)

    # -- summary ---------------------------------------------------------------

    def summary(self) -> dict:
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = {}
        for i, (name, start, end, parent) in enumerate(spans):
            self_s[name] = self_s.get(name, 0.0) + (end - start - child[i])
        counts = dict(self.counts)
        counts["meixner.integrate.cold_s"] = sum(
            spans[i][2] - spans[i][1] - child[i] for i in self._cold_spans)
        useful = subnormal = 0
        for ev, horizon, actives, read in self._evolvers.values():
            for n, active in enumerate(actives, start=1):
                if read >= 0:
                    useful += max(0, min(active, horizon - n + read + 1))
            subnormal += _subnormal_doubles((ev.xp, ev.xo, ev.xm))
        counts["reduction.useful_cells"] = useful
        counts["reduction.subnormal_cells"] = subnormal
        return {
            "self_s": self_s,
            "calls": {k: v for k, v in self.calls.items() if v},
            "errors": {k: v for k, v in self.errors.items() if v},
            "counts": counts,
        }
