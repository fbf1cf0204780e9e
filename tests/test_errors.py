"""Every error the package raises belongs to the SpiderwalkError taxonomy."""

import ast
import importlib
import pathlib

import spiderwalk
from spiderwalk import SpiderwalkError

SRC = pathlib.Path(spiderwalk.__file__).parent


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
        stem = "spiderwalk" if path.stem == "__init__" else f"spiderwalk.{path.stem}"
        module = importlib.import_module(stem)
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
