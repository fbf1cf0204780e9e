"""Tests of the benchmark itself, on shrunken jobs (about 20 s).

    python3 -m pytest perfbench/selftest.py

The file name keeps these out of the repository's own test run.
"""

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import spiderwalk  # noqa: E402

import checks  # noqa: E402
import jobs  # noqa: E402
import make_refs  # noqa: E402
import run  # noqa: E402

STEPS = 250
SHRUNKEN = [
    ("simulate", ["simulate", "4", "6", "3", "--steps", str(STEPS), "--strata", "4"]),
    ("cesaro", ["lib", "cesaro_strata", "4", "6", "3", str(STEPS), "4"]),
    ("other", ["lib", "origin_amplitude_series", "3", "4", "3", str(STEPS)]),
    ("other", ["figure2"]),
    ("simulate", ["simulate", "4", "6", "3", "--steps", "3", "--full"]),
    ("amplitude", ["amplitude", "5", "6", "4", "--l", "2", "--m", "1", "--nmax", "20"]),
    ("amplitude", ["amplitude", "--pqr", "0.45", "0.44", "0.11", "--nmax", "20"]),
    ("other", ["rwalk", "10", "12", "9", "--nmax", "20"]),
    ("spectrum", ["spectrum", "4", "6", "3", "--cutoff", "12"]),
    ("spectrum", ["spectrum", "3", "4", "3", "--cutoff", "12"]),
    ("other", ["verify"]),
]


@pytest.fixture(scope="module")
def refs():
    keys = [("simulate", 6, 3), ("cesaro_strata", 6, 3), ("origin_amplitude_series", 4, 3)]
    return make_refs.build_refs(spiderwalk, keys, steps=STEPS)


@pytest.fixture(scope="module")
def traced_passes(refs):
    checker = checks.Checker(spiderwalk, SHRUNKEN, refs)
    return run.measure(SHRUNKEN, checker, seconds=0, trace=True)


def _benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fp:
        return json.load(fp)


def test_every_shrunken_job_kind_runs_traced_and_untraced(traced_passes):
    record, result = run.summarize(traced_passes, SHRUNKEN, trace=True)
    assert record["failures"] == []
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2 * len(SHRUNKEN)
    assert [t for t, _ in traced_passes] == [False, True]
    names = {m["name"] for m in _benchmark_json()["per_layer"]}
    assert set(result["metrics"]) == names
    assert record["per_layer"]["trace.hook_errors"]["value"] == 0
    # an integral-route error was measured and is inside the acceptance bound
    assert 0 < result["metrics"]["meixner.max_abs_err"]["value"] <= checks.INTEGRAL_TOL


def test_untraced_result_line_has_every_end_to_end_metric(traced_passes):
    untraced = [p for p in traced_passes if not p[0]]
    _, result = run.summarize(untraced, SHRUNKEN, trace=False)
    names = [m["name"] for m in _benchmark_json()["end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_span_self_times_sum_to_compute_within_overhead(traced_passes):
    (_, plain), (_, traced) = traced_passes
    for base, r in zip(plain, traced):
        spans = sum(r["trace"]["self_s"].values())
        overhead = max(0.0, r["compute"] - base["compute"])
        assert 0.0 <= r["compute"] - spans <= overhead + 0.01, r["argv"]


def test_perturbed_reference_is_a_counted_failure(refs):
    picked = [SHRUNKEN[1], SHRUNKEN[5], SHRUNKEN[8]]
    checker = checks.Checker(spiderwalk, picked, refs)
    checker.expect[" ".join(picked[0][1])]["values"][2] += 1e-9
    checker.expect[" ".join(picked[1][1])][7] += 1e-6
    passes = run.measure(picked, checker, seconds=0, trace=False)
    record, result = run.summarize(passes, picked, trace=False)
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (3, 2)
    assert record["end_to_end"]["error_rate"]["value"] == pytest.approx(2 / 3)
    assert [f["argv"] for f in record["failures"]] == [picked[0][1], picked[1][1]]


def _shape(argv):
    """The job's command, regime and size band, with the free inputs removed."""
    if "--pqr" in argv:
        return (argv[0], "pole", argv[-1])
    if argv[0] in ("figure2", "verify"):
        return (argv[0],)
    start = 2 if argv[0] == "lib" else 1
    command = argv[1] if argv[0] == "lib" else argv[0]
    b, c = int(argv[start + 1]), int(argv[start + 2])
    if c == b - 1:
        regime = "tree"
    elif (b - c) ** 2 == c:
        regime = "threshold"
    else:
        regime = "localizing" if (b - c) ** 2 > c else "delocalizing"
    rest = [v for v in argv[start + 3:] if not v.isdigit()] if "--full" in argv else argv[start + 3:]
    return (command, regime, *rest)


def _half_edges(a, b, c, radius):
    sizes = [1] + [a * c ** (j - 1) for j in range(1, radius + 1)]
    return a + sum(s * (b if j < radius else b - c) for j, s in enumerate(sizes) if j)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_seeds_keep_regime_and_size_band(workload):
    base = jobs.jobs_for(workload, 0)
    assert jobs.jobs_for(workload, 0) == base
    for seed in range(1, 40):
        drawn = jobs.jobs_for(workload, seed)
        assert drawn == jobs.jobs_for(workload, seed)
        assert sorted(_shape(a) for _, a in drawn) == sorted(_shape(a) for _, a in base)
        assert sorted(g for g, _ in drawn) == sorted(g for g, _ in base)
        for _, argv in drawn:
            if "--full" in argv:
                a, b, c, steps = (int(v) for v in argv[1:4] + [argv[5]])
                assert 3.0e6 <= _half_edges(a, b, c, steps + 2) <= 5.0e6
                spiderwalk.SpidernetParams(a, b, c)


def test_seed_zero_is_the_canonical_job_list():
    ladder = [a for _, a in jobs.jobs_for("ladder", 0)]
    assert ladder[0] == ["simulate", "4", "6", "3", "--steps", "10000", "--strata", "4"]
    assert ["figure2"] in ladder
    spectral = [a for _, a in jobs.jobs_for("spectral", 0)]
    assert ["amplitude", "5", "6", "4", "--l", "2", "--m", "1", "--nmax", "300"] in spectral
    assert spectral[-1] == ["verify"]
    keys = {checks.ref_key(a) for s in range(40) for _, a in jobs.jobs_for("ladder", s)}
    assert keys <= set(checks.load_refs())


def test_independent_references_agree_with_known_values():
    # moments of the S(4,6,3) law: 1, 0, q, q r
    assert checks.exact_moments(checks._pqr_exact(["rwalk", "4", "6", "3"]), 3) == \
        pytest.approx([1.0, 0.0, 1 / 6, (1 / 6) * (2 / 6)], abs=1e-17)
    amps = checks.chebyshev_amplitudes(checks._pqr_exact(["amplitude", "4", "6", "3"]), 0, 0, 40)
    series = spiderwalk.origin_amplitude_series(
        spiderwalk.params_from_spidernet(spiderwalk.SpidernetParams(4, 6, 3)), 40)
    assert max(abs(amps - series)) < 1e-13
