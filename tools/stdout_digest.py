"""Digest the stdout of a fixed set of ``spiderwalk`` commands.

    python3 tools/stdout_digest.py > digest.txt

Runs ``spiderwalk.cli.main`` in-process, from the ``src/`` of the checkout
the script sits in, and prints one ``<sha256 of stdout>  <argv>`` line per
command, with ``  # exit N`` appended when the command fails and
``  # raised <Name>`` when it raises, after which the run goes on.  Run it
in two checkouts and ``diff`` the two outputs: equal lines show that those
commands print byte-identical stdout.

The commands are the README's examples, every CLI job of the benchmark
workloads at seeds 0-11 (from ``perfbench/jobs.py``), ``figure2``,
``verify``, the fixed list below, which reaches the options and regimes the
others leave out, and last the benchmark's library jobs at the same seeds,
``lib <function> ...``, each run and printed as
``perfbench/child.py::_run_library`` does.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import child  # noqa: E402  (perfbench/child.py)
import jobs  # noqa: E402  (perfbench/jobs.py)
import spiderwalk  # noqa: E402
from spiderwalk import cli  # noqa: E402

SEEDS = range(12)

FIXED = [
    ["figure2"],
    ["verify"],
    ["localize", "--sweep", "40", "25"],
    ["localize", "--sweep", "447", "446"],                # at the row cap
    ["localize", "--sweep", "60", "7", "--format", "json"],
    ["localize", "1", "1000000000", "999968377", "--format", "json"],
    ["simulate", "4", "6", "3", "--steps", "8", "--full", "--strata", "10"],
    ["simulate", "1", "10", "2", "--steps", "3000", "--strata", "3"],
    # the reduced route's last step coins one cell
    ["simulate", "4", "6", "3", "--steps", "2000", "--strata", "0"],
    ["simulate", "3", "4", "3", "--steps", "40", "--format", "json"],
    # the explicit graph's light cone at its extremes: radius 9 of 16 steps,
    # and radius steps when every stratum is printed
    ["simulate", "4", "4", "2", "--steps", "16", "--full", "--strata", "0"],
    ["simulate", "3", "4", "3", "--steps", "11", "--full", "--strata", "11"],
    # where the light cone of the printed strata cuts the most steps and reads
    ["simulate", "4", "4", "2", "--steps", "24", "--full"],
    ["simulate", "4", "6", "3", "--steps", "16", "--strata", "2", "--full"],
    # shapes of the block kernel's views and intra wrap rows: a c = 1 path, a
    # thin graph with intra edges, wide strata with odd and even m, and m = 3
    ["simulate", "1", "2", "1", "--steps", "400", "--full"],
    ["simulate", "6", "6", "1", "--steps", "60", "--full"],
    ["simulate", "1000", "1001", "1", "--steps", "3", "--full"],
    ["simulate", "401", "402", "1", "--steps", "4", "--full"],
    ["simulate", "8", "9", "5", "--steps", "7", "--full", "--strata", "7"],
    ["spectrum", "4", "6", "3", "--cutoff", "4000"],
    ["spectrum", "--pqr", "0.75", "0.25", "0", "--cutoff", "50"],
    ["spectrum", "1", "1000000000", "999968377", "--cutoff", "300"],
    # eigenvalues of T_N closer than an ulp of x, the half-line and a near-tree
    ["spectrum", "1", "1000000000000", "3", "--cutoff", "400"],
    ["spectrum", "1", "1000000000000000", "7", "--cutoff", "4096"],
    ["spectrum", "1", "4294967298", "1", "--cutoff", "4096"],
    ["spectrum", "--pqr", "0.5", "0.5", "0", "--cutoff", "4096"],
    ["spectrum", "1", "25046917479511", "25046917479509", "--cutoff", "10"],
    ["amplitude", "4", "6", "3", "--l", "3", "--m", "2", "--nmax", "60"],
    ["amplitude", "6", "12", "9", "--l", "40", "--m", "7", "--nmax", "30"],
    ["amplitude", "4", "4", "3", "--l", "1", "--nmax", "40"],  # a tree: reduced reads 0 at even n
    ["amplitude", "1", "1000000000", "999999999", "--l", "1", "--nmax", "40"],
    ["amplitude", "--pqr", "0.5", "0.16666666666666666", "0.3333333333333333", "--nmax", "20"],
    ["rwalk", "4", "6", "3", "--nmax", "40"],
    ["rwalk", "--pqr", "0.5", "0.25", "0.25", "--nmax", "20", "--format", "json"],
    ["rwalk", "1", "1000000", "999000", "--nmax", "20"],
    # near the threshold with b from ~2^51 to 2^54 - 2^27
    ["rwalk", "1", "3530103427111603", "3530103367696929", "--nmax", "0"],
    ["rwalk", "1", "18014398375264257", "18014398241046529", "--nmax", "1"],
    ["amplitude", "1", "18014398375264257", "18014398241046529", "--nmax", "1"],
    ["rwalk", "1", "18014398375264256", "18014398241046529", "--nmax", "1"],
    ["amplitude", "1", "18014398375264256", "18014398241046529", "--nmax", "2"],
    # poles of the weight near the band, far strata, and a pq that underflows
    ["rwalk", "--pqr", "0.5", "0.49999999", "0.00000001", "--nmax", "20"],
    ["rwalk", "31622", "999950884", "999919262", "--nmax", "2"],
    ["amplitude", "4", "6", "4", "--l", "100000", "--nmax", "1"],
    # the reduced read's edges: the last stratum reached (l = m + nmax), the
    # first past it, which reads zeros, and the root
    ["amplitude", "4", "6", "3", "--l", "5", "--m", "2", "--nmax", "3"],
    ["amplitude", "4", "6", "3", "--l", "6", "--m", "2", "--nmax", "3"],
    ["amplitude", "4", "6", "3", "--l", "0", "--m", "2", "--nmax", "3"],
    ["rwalk", "--pqr", "0.4", "5e-324", "0.6", "--nmax", "1"],
    # long series on one rule, in many blocks
    ["amplitude", "4", "6", "3", "--nmax", "6000"],
    ["rwalk", "4", "6", "3", "--nmax", "2000"],
    # the JSON table of every command
    ["verify", "--format", "json"],
    ["spectrum", "4", "6", "3", "--cutoff", "400", "--format", "json"],
    ["amplitude", "4", "4", "3", "--l", "1", "--nmax", "40", "--format", "json"],
    ["figure2", "--format", "json"],
    ["simulate", "4", "6", "3", "--steps", "8", "--full", "--strata", "10", "--format", "json"],
    # a JSON float that json.dumps spells otherwise than "%.15g": a subnormal,
    # 4e-320 where the CSV prints 3.99995546873073e-320; and the largest table
    ["simulate", "1", str(10 ** 160), "1", "--steps", "3", "--format", "json"],
    ["localize", "--sweep", "400", "400", "--format", "json"],
    # refusals: usage errors (no --cutoff, an unknown option) and an -o path
    # in no directory
    ["spectrum", "4", "6", "3"],
    ["simulate", "4", "6", "3", "--steps", "2", "--bogus"],
    ["rwalk", "4", "6", "3", "--nmax", "2", "-o", "/missing-dir/out.csv"],
]


def readme_commands() -> list[list[str]]:
    """The argv of every ``$ spiderwalk ...`` line of the README."""
    with open(os.path.join(ROOT, "README.md")) as fp:
        return [line.split()[2:] for line in fp if line.startswith("$ spiderwalk ")]


def job_commands(lib: bool = False) -> list[list[str]]:
    """The argv of every benchmark job at the seeds in SEEDS: the CLI jobs,
    or with ``lib`` the library jobs."""
    return [argv for workload in jobs.WORKLOADS for seed in SEEDS
            for _, argv in jobs.jobs_for(workload, seed) if (argv[0] == "lib") == lib]


def commands() -> list[list[str]]:
    """The argv of every command digested, each once, in order."""
    unique = {" ".join(argv): argv for argv in
              readme_commands() + job_commands() + FIXED + job_commands(lib=True)}
    return list(unique.values())


def run(argv: list[str]) -> int:
    """Run one command, a CLI argv or a ``lib`` job, as the benchmark does."""
    if argv[0] == "lib":
        return child._run_library(spiderwalk, argv[1:])
    return cli.main(list(argv))


def digest(argv: list[str]) -> str:
    """``<sha256 of stdout>  <argv>``, and the exit code when it is not 0 or
    the exception's name when the command raises."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
        note = "" if code == 0 else f"  # exit {code}"
    except Exception as exc:
        note = f"  # raised {type(exc).__name__}"
    return f"{hashlib.sha256(out.getvalue().encode()).hexdigest()}  {' '.join(argv)}{note}"


def main() -> int:
    for argv in commands():
        print(digest(argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
