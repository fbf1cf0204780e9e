"""Workload job lists, drawn from a workload seed.

Seed 0 gives the canonical job lists.  Any other seed keeps each job's
regime and size band but draws other inputs from the pools below and
shuffles the job order.  A job is the argv a user would type: either a
``spiderwalk`` CLI argv, or ``["lib", <function>, ...]`` for a library
call the CLI has no subcommand for (see ``child.py``).

Regimes of S(a, b, c): localizing (b-c)^2 > c, threshold
(b, c) = (k^2+k, k^2), tree c = b-1.  Pool members of one job sit in the
same regime and the same size band (ladder steps, graph half-edge count,
spectral nmax/cutoff).  Where the cost of a job depends on the inputs
(the reduced evolver slows down on subnormal tails, the graph route on
half-edges x steps), a pool keeps only members whose measured costs lie
within ~10 % of each other, so that the seed-to-seed spread of the
workload time stays small.
"""

from __future__ import annotations

import random

WORKLOADS = ("ladder", "graph", "spectral")

# Each job is (group, argv).  The group names the per-command metric the
# job's compute time counts toward ("other" for none of them).
_SEED0 = {
    "ladder": [
        ("simulate", ["simulate", "4", "6", "3", "--steps", "10000", "--strata", "4"]),
        ("simulate", ["simulate", "5", "6", "4", "--steps", "10000", "--strata", "4"]),
        ("cesaro", ["lib", "cesaro_strata", "4", "6", "3", "10000", "4"]),
        ("other", ["lib", "origin_amplitude_series", "3", "4", "3", "10000"]),
        ("other", ["figure2"]),
    ],
    "graph": [
        ("simulate", ["simulate", "4", "6", "3", "--steps", "10", "--full"]),
        ("simulate", ["simulate", "3", "4", "3", "--steps", "11", "--full"]),
        ("simulate", ["simulate", "4", "4", "2", "--steps", "16", "--full"]),
    ],
    "spectral": [
        ("amplitude", ["amplitude", "4", "6", "3", "--nmax", "500"]),
        ("amplitude", ["amplitude", "5", "6", "4", "--l", "2", "--m", "1", "--nmax", "300"]),
        ("amplitude", ["amplitude", "--pqr", "0.45", "0.44", "0.11", "--nmax", "200"]),
        ("other", ["rwalk", "10", "12", "9", "--nmax", "200"]),
        ("spectrum", ["spectrum", "4", "6", "3", "--cutoff", "800"]),
        ("spectrum", ["spectrum", "3", "4", "3", "--cutoff", "400"]),
        ("other", ["verify"]),
    ],
}

# (b, c) pools for the reduced and spectral routes, where a does not
# enter the computation and is drawn freely.  The threshold simulate job
# keeps (6, 4): (12, 9) is in the regime but evolves twice as fast.
_LOCALIZING = [(6, 3), (5, 2)]
_THRESHOLD_LADDER = [(6, 4)]
_TREE = [(4, 3), (5, 4)]
_THRESHOLD = [(6, 4), (12, 9), (20, 16)]
_LOCALIZING_SPECTRAL = [(6, 3), (5, 2), (7, 4)]
_TREE_SPECTRAL = [(4, 3), (5, 4), (3, 2)]
# poles of 1/D close to the support: p - q = 0.01
_POLE_PQR = [("0.45", "0.44", "0.11"), ("0.44", "0.43", "0.13"),
             ("0.47", "0.46", "0.07"), ("0.42", "0.41", "0.17")]
# (a, b, c, steps) for the explicit graph: realizable wirings with
# 4.3-4.8 M (localizing, tree) or 3.1 M (slow growth) half-edges.  Seed 0's
# (4, 6, 3, 10) costs ~15 % more than the localizing pool, and
# (1, 4, 3, 12), (8, 4, 2, 15) and (2, 4, 2, 17) are in band but cost
# 8-25 % more than their pool, so they are left out.
_GRAPH_LOCALIZING = [(12, 6, 3, 9), (10, 7, 3, 9)]
_GRAPH_TREE = [(3, 4, 3, 11), (9, 4, 3, 10)]
_GRAPH_SLOW = [(4, 4, 2, 16), (3, 5, 2, 16)]


def _abc(rng, pool):
    b, c = rng.choice(pool)
    return [str(rng.randint(1, 12)), str(b), str(c)]


def _draw(workload: str, rng: random.Random):
    if workload == "ladder":
        steps = ["--steps", "10000", "--strata", "4"]
        return [
            ("simulate", ["simulate", *_abc(rng, _LOCALIZING), *steps]),
            ("simulate", ["simulate", *_abc(rng, _THRESHOLD_LADDER), *steps]),
            ("cesaro", ["lib", "cesaro_strata", *_abc(rng, _LOCALIZING), "10000", "4"]),
            ("other", ["lib", "origin_amplitude_series", *_abc(rng, _TREE), "10000"]),
            ("other", ["figure2"]),
        ]
    if workload == "graph":
        jobs = []
        for pool in (_GRAPH_LOCALIZING, _GRAPH_TREE, _GRAPH_SLOW):
            a, b, c, steps = rng.choice(pool)
            jobs.append(("simulate", ["simulate", str(a), str(b), str(c),
                                      "--steps", str(steps), "--full"]))
        return jobs
    if workload == "spectral":
        return [
            ("amplitude", ["amplitude", *_abc(rng, _LOCALIZING_SPECTRAL), "--nmax", "500"]),
            ("amplitude", ["amplitude", *_abc(rng, _THRESHOLD),
                           "--l", "2", "--m", "1", "--nmax", "300"]),
            ("amplitude", ["amplitude", "--pqr", *rng.choice(_POLE_PQR), "--nmax", "200"]),
            ("other", ["rwalk", *_abc(rng, _THRESHOLD), "--nmax", "200"]),
            ("spectrum", ["spectrum", *_abc(rng, _LOCALIZING_SPECTRAL), "--cutoff", "800"]),
            ("spectrum", ["spectrum", *_abc(rng, _TREE_SPECTRAL), "--cutoff", "400"]),
            ("other", ["verify"]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def jobs_for(workload: str, seed: int):
    """The (group, argv) list of one pass over ``workload`` at ``seed``."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if seed == 0:
        return [(group, list(argv)) for group, argv in _SEED0[workload]]
    rng = random.Random(f"{workload}:{seed}")
    jobs = _draw(workload, rng)
    rng.shuffle(jobs)
    return jobs


def ladder_keys():
    """Every (function, b, c) the ladder workload can run, for the stored references."""
    keys = [("simulate", b, c) for b, c in _LOCALIZING + _THRESHOLD_LADDER]
    keys += [("cesaro_strata", b, c) for b, c in _LOCALIZING]
    keys += [("origin_amplitude_series", b, c) for b, c in _TREE]
    return keys
