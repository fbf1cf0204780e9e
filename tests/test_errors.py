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
