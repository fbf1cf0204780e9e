"""Every error the package raises belongs to the SpiderwalkError taxonomy,
every public name has a caller outside the tests, and no module imports
another's private names."""

import ast
import importlib
import pathlib
import re

import numpy as np
import pytest

import spiderwalk
import spiderwalk.errors
from spiderwalk import SpiderwalkError

SRC = pathlib.Path(spiderwalk.__file__).parent
REPO = pathlib.Path(__file__).resolve().parent.parent


def _module_name(path):
    return "spiderwalk" if path.stem == "__init__" else f"spiderwalk.{path.stem}"


def _raised_name(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)


def test_every_raise_is_a_spiderwalk_error():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"spiderwalk.{path.stem}")
        tree = ast.parse(path.read_text())
        caught = {h.name for h in ast.walk(tree) if isinstance(h, ast.ExceptHandler) and h.name}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue                                    # bare re-raise
            name = _raised_name(node)
            if name in caught:
                continue                                    # re-raise of a caught error
            cls = getattr(module, name, None)
            if cls is NotImplementedError:
                continue
            if not (isinstance(cls, type) and issubclass(cls, SpiderwalkError)):
                offenders.append(f"{path.name}:{node.lineno} raises {name}")
    assert not offenders, offenders


def _bound_names(node):
    """Names an import statement binds in its scope."""
    for alias in node.names:
        if isinstance(node, ast.Import):
            yield alias.asname or alias.name.split(".")[0]
        else:
            yield alias.asname or alias.name


def test_imports_are_used_and_all_resolves():
    # stands in for a linter; the benchmark tracer also getattr()s every
    # __all__ name, so a stale one would crash a traced run
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(_module_name(path))
        exported = getattr(module, "__all__", [])
        offenders += [f"{path.name}: __all__ names missing {name}"
                      for name in exported if not hasattr(module, name)]
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                offenders += [f"{path.name}:{node.lineno} imports unused {name}"
                              for name in _bound_names(node)
                              if name not in used and name not in exported]
    assert not offenders, offenders


def test_no_module_imports_a_private_name_of_another():
    # a name with a leading underscore is its module's own decision
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "spiderwalk":
                continue
            offenders += [f"{path.name}:{node.lineno} imports {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert not offenders, offenders


def _imported_or_read(path):
    """Names a module imports, or reads as an attribute of something."""
    nodes = list(ast.walk(ast.parse(path.read_text())))
    return ({alias.name for n in nodes if isinstance(n, ast.ImportFrom) for alias in n.names}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)})


def test_every_exported_name_is_used_outside_the_tests():
    # test-only helpers and the paper's identities belong in tests/oracles.py;
    # caps and error classes are exempt
    used_by = {p: _imported_or_read(p) for p in SRC.glob("*.py") if p.stem != "__init__"}
    text = "".join(re.findall(r"```[a-z]*\n(.*?)```", REPO.joinpath("README.md").read_text(), re.S)
                   + [p.read_text() for p in REPO.glob("perfbench/*.py")])
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(_module_name(path))
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if name.isupper() or (isinstance(obj, type) and issubclass(obj, SpiderwalkError)):
                continue
            if any(name in used for p, used in used_by.items() if p != path):
                continue
            if not re.search(rf"\b{name}\b", text):
                offenders.append(f"{_module_name(path)}.{name}")
    assert not offenders, offenders


def test_every_error_class_is_raised():
    raised = {_raised_name(node) for path in SRC.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Raise) and node.exc is not None}
    # the base class is what callers catch; each error is raised as a subclass
    defined = {name for name, obj in vars(spiderwalk.errors).items()
               if isinstance(obj, type) and issubclass(obj, SpiderwalkError)
               and obj is not SpiderwalkError}
    assert defined <= raised, sorted(defined - raised)


_SP = spiderwalk.SpidernetParams(4, 6, 3)
_G = spiderwalk.build_spidernet(_SP, 3)
_S = spiderwalk.isotropic_initial_state(_G)
_P = spiderwalk.PqParams(0.5, 1.0 / 6.0, 1.0 / 3.0)
_LAW = spiderwalk.law_from_pq(_P)


def _origin_evolver(max_steps=2, reach=None):
    return spiderwalk.ReducedEvolver(_P, spiderwalk.ReducedState.origin(), max_steps, reach)


@pytest.mark.parametrize("call", [
    lambda size: spiderwalk.SpidernetParams(size, 6, 3),
    lambda size: spiderwalk.SpidernetParams(4, size, 1),
    lambda size: spiderwalk.SpidernetParams(4, 6, size),
    lambda size: spiderwalk.build_spidernet(_SP, size),
    lambda size: spiderwalk.light_cone_radius(size, 1),
    lambda size: spiderwalk.light_cone_radius(3, size),
    lambda size: spiderwalk.GraphEvolver(_G, _S, size),
    lambda size: spiderwalk.GraphEvolver(_G, _S, 3, reach=size),
    lambda size: spiderwalk.evolve(_G, _S, size),
    lambda size: _origin_evolver(size),
    lambda size: _origin_evolver(reach=size),
    lambda size: _origin_evolver().stratum_probability_rows(size),
    lambda size: _origin_evolver().stratum_probability(size),
    lambda size: spiderwalk.ReducedState.zeros(size),
    lambda size: spiderwalk.cesaro_strata(_P, size, 1),
    lambda size: spiderwalk.cesaro_strata(_P, 3, size),
    lambda size: spiderwalk.origin_amplitude_series(_P, size),
    lambda size: spiderwalk.origin_amplitude_series(_P, 2, size),
    lambda size: spiderwalk.origin_amplitude_series(_P, 2, 0, size),
    lambda size: spiderwalk.amplitude_series(_LAW, size),
    lambda size: spiderwalk.amplitude_series(_LAW, 2, size),
    lambda size: spiderwalk.amplitude_series(_LAW, 2, 0, size),
    lambda size: spiderwalk.random_walk_return_series(_LAW, size),
    lambda size: spiderwalk.u_eigensystem(_P, size),
], ids=["params-a", "params-b", "params-c", "radius", "cone-steps", "cone-strata",
        "graph-steps", "graph-reach", "evolve", "ladder-steps", "ladder-reach", "ladder-rows",
        "ladder-read", "ladder-zeros",
        "cesaro-horizon", "cesaro-strata", "origin-nmax", "origin-l", "origin-m",
        "amplitude-nmax", "amplitude-l", "amplitude-m", "rwalk", "cutoff"])
def test_sizes_must_be_integers(call):
    # a float size raises InvalidParamsError, whole or not: it is neither
    # rounded to a count of steps nor left to fail as a TypeError
    for size in (2.5, 2.0, np.float64(2.0)):
        with pytest.raises(spiderwalk.InvalidParamsError):
            call(size)
    # numpy integers are sizes, and give what the int gives
    want = call(2)
    got = call(np.int64(2))
    if isinstance(want, np.ndarray):
        assert np.array_equal(got, want)
    # a size that is kept is kept as an int, whose arithmetic cannot wrap
    if isinstance(want, spiderwalk.graph.Spidernet):
        assert np.array_equal(got.adj, want.adj)
        want, got = want.radius, got.radius
    if isinstance(want, spiderwalk.SpidernetParams):
        want, got = (want.a, want.b, want.c), (got.a, got.b, got.c)
    if isinstance(want, int):
        want, got = (want,), (got,)
    if isinstance(want, tuple):
        assert got == want and all(type(v) is int for v in got)
