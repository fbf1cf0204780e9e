"""List the commands that reach each function of the package.

    python3 tools/reach.py

Runs, in-process under ``sys.setprofile``, every command that
``tools/stdout_digest.py`` digests, the benchmark's library jobs included.
Then it prints one line per function and method defined in
``src/spiderwalk``, in source order,

    <module.qualname>  <number of commands>  <the commands>

with the commands written out when there are at most three of them and
counted by subcommand (or library function) otherwise, and last the
functions that no command reaches.  Needs Python 3.11 or later, for
``co_qualname``.
"""

from __future__ import annotations

import collections
import inspect
import os
import sys

import stdout_digest  # puts src/ and perfbench/ of this checkout on sys.path

import spiderwalk  # noqa: E402

PACKAGE = os.path.dirname(os.path.abspath(spiderwalk.__file__))


def package_functions() -> list[tuple[str, str]]:
    """(module, qualname) of every function and method that the package's
    source defines, in source order, nested ones included, lambdas and
    comprehensions not."""
    found = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as fp:
            todo = [compile(fp.read(), path, "exec")]
        codes = []
        while todo:
            code = todo.pop()
            inner = [c for c in code.co_consts if hasattr(c, "co_qualname")]
            # class bodies are code objects too, but not optimized ones
            codes += [c for c in inner if c.co_flags & inspect.CO_OPTIMIZED
                      and not c.co_name.startswith("<")]
            todo += inner
        found += [(name[:-3], c.co_qualname) for c in sorted(codes, key=lambda c: c.co_firstlineno)]
    return found


def reached_by(label: str, run, reached: dict) -> None:
    """Run ``run()`` under a profile hook; add ``label`` to the entry of
    every package function it calls."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    for code in seen:
        if os.path.dirname(code.co_filename) == PACKAGE:
            module = os.path.basename(code.co_filename)[:-3]
            reached[(module, code.co_qualname)].append(label)


def main() -> int:
    reached = collections.defaultdict(list)
    for argv in stdout_digest.commands():
        reached_by(" ".join(argv), lambda: stdout_digest.digest(argv), reached)
    unreached = []
    for module, qualname in package_functions():
        labels = reached.get((module, qualname), [])
        if len(labels) <= 3:
            text = "; ".join(labels)
        else:
            groups = collections.Counter(" ".join(label.split()[:1 + label.startswith("lib ")])
                                         for label in labels)
            text = ", ".join(f"{group} ({n})" for group, n in sorted(groups.items()))
        print(f"{module}.{qualname}  {len(labels)}  {text}".rstrip())
        if not labels:
            unreached.append(f"{module}.{qualname}")
    print(f"unreached: {', '.join(unreached) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
