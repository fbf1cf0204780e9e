"""Three-route benchmark of spiderwalk: ``ladder``, ``graph`` and ``spectral``.

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 40 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
Each job (see ``jobs.py``) runs in a fresh child process, one at a time (a
closed loop with one client), because CLI users pay the import time and
the cold quadrature cache on every run.  Passes over the workload's jobs
repeat while another pass fits in ``--seconds``.  Every job's output is
checked (``checks.py``); a non-zero exit, a timeout or a check miss counts
as a failed job.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced passes; traced children wrap
every public spiderwalk function (``tracer.py``), the traced stdout must
be byte-identical to the untraced stdout, and the per-layer metrics come
from the traced passes.

Stdout ends with a ``# record`` line (run record, every metric by name and
unit, per-function self seconds, calls and errors) and then the result line
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import checks
import jobs as jobs_mod

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

# Children run single-threaded BLAS so that runs on a shared 2-core machine
# stay comparable; the value is part of the run record.
BLAS_THREADS = 1
# a run ends within this many seconds even when jobs hang: the rest time out
RUN_DEADLINE_S = 150.0

# per-layer self-time metrics, reported as a share (%) of the traced pass's
# job compute time: layers idle on a workload read exactly 0 there
SPAN_METRICS = [
    "cli.main",
    "graph.build_spidernet",
    "walk.coin_apply",
    "walk.shift_apply",
    "walk.vertex_distribution",
    "walk.stratum_distribution",
    "reduction.ReducedEvolver.step",
    "reduction.ReducedEvolver.stratum_probability",
    "reduction.reduced_step",
    "reduction.inner",
    "reduction.u_eigensystem",
    "reduction.cutoff_walk_matrix",
    "reduction.eigensystem_T",
    "meixner.integrate",
    "meixner.normalized_sequence",
    "localization.amplitude",
    "localization.random_walk_return",
    "localization.cesaro_strata",
    "localization.origin_amplitude_series",
    "verify.run_all",
]
COMMAND_GROUPS = ("simulate", "cesaro", "amplitude", "spectrum")
# the end-to-end metrics of the result line; the per-command times and
# error_rate, zero on workloads without such jobs, are in the run record
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb", "compute_s")


def _child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env.pop("SPIDERWALK_OUTPUT_DIR", None)
    return env


def run_job(group, argv, traced, checker, env, timeout, job_id=""):
    """Run one job in a child; return its timings, check result and trace."""
    spec = json.dumps({"src": SRC, "argv": argv, "trace": int(traced)})
    spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, CHILD, spec], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 0.1))
        timed_out = False
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        timed_out = True
    exit_t = time.monotonic()
    result = {"job": job_id, "group": group, "argv": argv, "wall": exit_t - spawn, "ok": False,
              "integral_err": None, "sha256": hashlib.sha256(out.encode()).hexdigest(),
              "rows": max(0, out.count("\n") - 1) if argv[0] != "lib" else 0}
    lines = [l for l in err.splitlines() if l.startswith("PERFBENCH ")]
    if timed_out or not lines:
        result["detail"] = "timeout" if timed_out else f"no record (exit {proc.returncode}): {err[-300:]}"
        return result
    record = json.loads(lines[-1][len("PERFBENCH "):])
    result.update(setup=record["ready"] - spawn, compute=record["end"] - record["start"],
                  maxrss_kb=record["maxrss_kb"], trace=record.get("trace"))
    try:
        result["integral_err"] = checker.check(argv, out, proc.returncode)
    except (checks.CheckFailed, ValueError, IndexError) as exc:
        # malformed output is a failed job, never a crashed benchmark
        result["detail"] = f"{type(exc).__name__}: {exc}"
        return result
    result["ok"] = True
    return result


def quantile_summary(values):
    """Median, and the highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    n = len(values)
    out = {"median": statistics.median(values), "samples": n, "percentile": None, "value": None,
           "each": values}
    if n >= 11:
        out["percentile"] = 100.0 * (n - 10) / n
        out["value"] = values[n - 11]
    return out


def _run_record(args, jobs):
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fp:
            cpu = next((l.split(":", 1)[1].strip() for l in fp if l.startswith("model name")), "")
    except OSError:
        pass
    import numpy
    import scipy
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": [argv for _, argv in jobs],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "loop": "closed, 1 client",
    }


def _median(values):
    """Median, or 0 when no job produced a record (the run is then incorrect)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def _pass_sum(results, key, group=None):
    return sum(r.get(key) or 0.0 for r in results if group is None or r["group"] == group)


def end_to_end(passes, jobs):
    untraced = [p for traced, p in passes if not traced]
    all_jobs = [r for p in untraced for r in p]
    groups = {g for g, _ in jobs}
    e2e = {
        "wall_s": quantile_summary([_pass_sum(p, "wall") for p in untraced]),
        "setup_s": _median(r["setup"] for r in all_jobs if "setup" in r),
        # a job's ru_maxrss varies by ~30 MB from run to run on a shared
        # machine and the noise only adds: take the lowest pass peak
        "peak_rss_mb": min(max(r.get("maxrss_kb", 0) for r in p) for p in untraced) / 1024.0,
        "compute_s": _median(_pass_sum(p, "compute") for p in untraced),
    }
    for g in COMMAND_GROUPS:
        e2e[f"{g}_s"] = (_median(_pass_sum(p, "compute", g) for p in untraced)
                         if g in groups else None)
    return e2e


def per_layer(passes, untraced_wall):
    traced = [p for t, p in passes if t]
    rows = []
    for p in traced:
        self_s, calls, errors, counts = {}, {}, {}, {}
        for r in p:
            tr = r.get("trace") or {"self_s": {}, "calls": {}, "errors": {}, "counts": {}}
            for total, part in ((self_s, tr["self_s"]), (calls, tr["calls"]),
                                (errors, tr["errors"])):
                for k, v in part.items():
                    total[k] = total.get(k, 0) + v
            for k, v in tr["counts"].items():
                counts[k] = max(counts.get(k, 0), v) if k == "walk.state_bytes" \
                    else counts.get(k, 0) + v
        compute = _pass_sum(p, "compute") or 1.0
        row = {"import.self_s": _median(r["setup"] for r in p if "setup" in r),
               "wall": _pass_sum(p, "wall"), "self_s": self_s, "calls": calls,
               "errors": errors}
        for name in SPAN_METRICS:
            row[f"{name}.self_pct"] = 100.0 * self_s.get(name, 0.0) / compute
        row["meixner.integrate.cold_pct"] = 100.0 * counts.get("meixner.integrate.cold_s", 0.0) / compute
        row["cli.rows"] = sum(r["rows"] for r in p)
        for k in ("graph.half_edges", "graph.bytes", "walk.half_edge_updates",
                  "walk.state_bytes", "reduction.ladder_cells", "reduction.subnormal_cells",
                  "meixner.quadrature_nodes", "trace.hook_errors"):
            row[k] = counts.get(k, 0)
        updates = counts.get("walk.half_edge_updates", 0)
        row["walk.support_ratio"] = counts.get("walk.reachable_updates", 0) / updates if updates else 0.0
        cells = counts.get("reduction.ladder_cells", 0)
        row["reduction.lightcone_ratio"] = counts.get("reduction.useful_cells", 0) / cells if cells else 0.0
        rows.append(row)
    out = {}
    for key in rows[0]:
        if key in ("self_s", "calls", "errors"):
            names = sorted({n for row in rows for n in row[key]})
            out[key] = {n: statistics.median(row[key].get(n, 0) for row in rows) for n in names}
        elif key != "wall":
            out[key] = statistics.median(row[key] for row in rows)
    out["trace.overhead_s"] = statistics.median(row["wall"] for row in rows) - untraced_wall
    return out


UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "compute_s": "s",
         "error_rate": "ratio", "simulate_s": "s", "cesaro_s": "s", "amplitude_s": "s",
         "spectrum_s": "s"}


def layer_unit(name):
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("err"):
        return "abs"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs_mod.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "spiderwalk", "__init__.py")):
        sys.stderr.write(f"perfbench: no spiderwalk package under {SRC}; "
                         "run from the root of a spiderwalk checkout\n")
        return 2

    sys.path.insert(0, SRC)
    import spiderwalk

    jobs = jobs_mod.jobs_for(args.workload, args.seed)
    checker = checks.Checker(spiderwalk, jobs)

    passes = measure(jobs, checker, args.seconds, bool(args.trace))
    record, result = summarize(passes, jobs, bool(args.trace))
    record["run"] = _run_record(args, jobs)
    print("# record " + json.dumps(record))
    print(json.dumps(result))
    return 0


def measure(jobs, checker, seconds, trace):
    """Run passes over ``jobs`` while another pass fits in ``seconds``.

    With ``trace`` the passes alternate untraced and traced, at least one
    of each.  Returns a list of (traced, [job result, ...]).
    """
    env = _child_env()
    passes = []
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    longest = 0.0
    while True:
        traced = trace and len(passes) % 2 == 1
        t0 = time.monotonic()
        passes.append((traced, [
            run_job(g, a, traced, checker, env, deadline - time.monotonic(),
                    f"{len(passes)}:{i}")
            for i, (g, a) in enumerate(jobs)]))
        longest = max(longest, time.monotonic() - t0)
        enough = len(passes) >= (2 if trace else 1)
        if enough and time.monotonic() - start + longest > seconds:
            return passes


def summarize(passes, jobs, trace):
    """The run record's metrics and the result line's object."""
    results = [r for _, p in passes for r in p]
    if trace:
        # traced stdout must equal untraced stdout, job by job
        plain = next(p for t, p in passes if not t)
        for t, p in passes:
            for r, ref in zip(p, plain):
                if t and r["ok"] and ref["ok"] and r["sha256"] != ref["sha256"]:
                    r["ok"], r["detail"] = False, "traced stdout differs from untraced stdout"
    failed = [r for r in results if not r["ok"]]
    errs = [r["integral_err"] for r in results if r["integral_err"] is not None]

    e2e = end_to_end(passes, jobs)
    e2e["error_rate"] = len(failed) / len(results)
    record = {"passes": len(passes),
              "end_to_end": {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()},
              "failures": [{"argv": r["argv"], "detail": r["detail"]} for r in failed]}
    if trace:
        layers = per_layer(passes, e2e["wall_s"]["median"])
        layers["meixner.max_abs_err"] = max(errs, default=0.0)
        spans = {k: layers.pop(k) for k in ("self_s", "calls", "errors")}
        record["per_layer"] = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        record["spans"] = spans
        metrics = {k: v for k, v in record["per_layer"].items() if k != "trace.hook_errors"}
    else:
        metrics = {k: {"value": e2e[k]["median"] if k == "wall_s" else e2e[k], "unit": UNITS[k]}
                   for k in END_TO_END}
    return record, {"correct": not failed, "attempted": len(results),
                    "failed": len(failed), "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
