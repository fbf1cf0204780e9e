"""Count the code lines of the package: no docstrings, comments or blanks.

    python3 tools/code_lines.py [DIR]

Prints one ``<lines>  <file>`` row per ``*.py`` file under ``DIR``
(default: ``src/spiderwalk`` of the checkout the script sits in) and a
``<lines>  total`` row.  A code line is a physical line that holds a token
other than a comment, and is not part of a docstring: the string that opens
a module, class or function body.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines of ``source`` that carry code."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    top = argv[0] if argv else os.path.join(ROOT, "src", "spiderwalk")
    total = 0
    for name in sorted(os.listdir(top)):
        if name.endswith(".py"):
            with open(os.path.join(top, name)) as fp:
                n = code_lines(fp.read())
            total += n
            print(f"{n:6d}  {name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
