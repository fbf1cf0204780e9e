"""Route 3's and route 2's error on every ``amplitude`` and ``rwalk``
command of the digest.

    python3 tools/route3_error.py > route3_error.txt

Runs each such command of ``tools/stdout_digest.py`` in-process, from the
``src/`` of the checkout the script sits in, keeps the rows the command
returns to ``cli.main`` (unrounded, before the 15 printed digits) and prints
one ``<route 3 error>  <route 2 error>  <argv>`` line per command, each the
largest absolute error over the rows: route 3 is the ``integral`` column of
``amplitude`` and the ``return_probability`` column of ``rwalk``, route 2 the
``reduced`` column of ``amplitude`` (``-`` for ``rwalk``).  A command that
fails prints ``refused``.  Then one ``-  <route 2 error>`` line for each
long ``origin_amplitude_series`` in SERIES.  The references are independent
of the package:

* ``amplitude`` and the series: <e_l, T_n(J) e_m> by the Chebyshev
  recurrence in extended precision (``tests/oracles.py::chebyshev_amplitudes``);
* ``rwalk``: the moments <e_0, J^n e_0>, exact, in integers over a common
  denominator, rounded once to a float.

J is the Jacobi matrix of the walk law of the exact (c/b, 1/b, (b-c-1)/b)
for ``a b c``, or of the binary values given with ``--pqr``.  Run it in two
checkouts and compare the columns.
"""

from __future__ import annotations

import math
import os
import sys
from fractions import Fraction

ROOT = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [ROOT, os.path.join(os.path.dirname(ROOT), "tests")]

import stdout_digest  # noqa: E402  (sets up src/ and perfbench/ on the path)
from oracles import chebyshev_amplitudes  # noqa: E402
from spiderwalk import (  # noqa: E402
    SpidernetParams,
    SpiderwalkError,
    cli,
    origin_amplitude_series,
    params_from_spidernet,
)

# (b, c, nmax) of route 2's long origin series: the ladder jobs' horizon,
# and the horizon where the underflow front moves digits of S(., 10, 2)
SERIES = [(6, 3, 10_000), (10, 2, 20_000)]


def exact_pqr(argv: list[str]) -> tuple[Fraction, Fraction, Fraction]:
    if "--pqr" in argv:
        at = argv.index("--pqr")
        return tuple(Fraction(float(v)) for v in argv[at + 1:at + 4])
    b, c = int(argv[2]), int(argv[3])
    return Fraction(c, b), Fraction(1, b), Fraction(b - c - 1, b)


def flag(argv: list[str], name: str) -> int:
    return int(argv[argv.index(name) + 1]) if name in argv else 0


def exact_moments(pqr, nmax: int) -> list[float]:
    """<e_0, J^n e_0>, n <= nmax, for the Jacobi data (q, pq, pq, ...) and
    (0, r, r, ...): v_n = D^n J^n e_0 in integers, D the common denominator
    of r, q and pq, so that the n-th moment is v_n[0] / D^n."""
    p, q, r = pqr
    den = math.lcm(r.denominator, q.denominator, (p * q).denominator)
    size = nmax // 2 + 2                  # slot k reaches e_0 again after k steps
    diag = [0] + [int(r * den)] * (size - 1)
    off2 = [int(q * den)] + [int(p * q * den)] * (size - 2)
    v = [1] + [0] * (size - 1)
    out = []
    for n in range(nmax + 1):
        out.append(float(Fraction(v[0], den ** n)))
        # (D J) v with D J's entries: D r on the diagonal, D times the
        # squared off-diagonal above it and D below it (a similar matrix)
        v = [diag[k] * v[k] + (off2[k] * v[k + 1] if k + 1 < size else 0)
             + (den * v[k - 1] if k else 0) for k in range(size)]
    return out


def max_error(got, want) -> str:
    return f"{max(abs(g - w) for g, w in zip(got, want)):.3e}"


def route_errors(argv: list[str]) -> str:
    """Route 3's and route 2's largest |value - reference| over the rows of
    one command."""
    try:
        args = cli._build_parser().parse_args(argv)
        if args.output:
            cli._output_path(args.output)   # cli.main refuses a bad -o first
        _, rows = args.func(args)
    except SpiderwalkError:
        return "refused"
    pqr = exact_pqr(argv)
    if argv[0] == "rwalk":
        return max_error([row[1] for row in rows], exact_moments(pqr, flag(argv, "--nmax"))) + "  -"
    want = chebyshev_amplitudes(pqr, flag(argv, "--l"), flag(argv, "--m"), flag(argv, "--nmax"))
    return "  ".join(max_error([row[k] for row in rows], want) for k in (1, 2))


def main() -> int:
    for argv in stdout_digest.commands():
        if argv[0] in ("amplitude", "rwalk"):
            print(f"{route_errors(argv)}  {' '.join(argv)}", flush=True)
    for b, c, nmax in SERIES:
        got = origin_amplitude_series(params_from_spidernet(SpidernetParams(1, b, c)), nmax)
        want = chebyshev_amplitudes(exact_pqr(["", "1", str(b), str(c)]), 0, 0, nmax)
        print(f"-  {max_error(got, want)}  origin_amplitude_series 1 {b} {c} --nmax {nmax}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
