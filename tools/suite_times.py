"""Time the Tier-1 test suite, each run in a fresh process.

    python3 tools/suite_times.py [-k 3]

Runs the suite ``k`` times from the checkout the script sits in, as

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors

with ``--durations=0 --durations-min=0`` added, so that pytest reports the
setup, call and teardown seconds of every test.  It prints the median wall
time of the whole process (interpreter start and collection included) and
its quartiles over the k runs, with pytest's last line, then one line per
test file, slowest first:

    <median s>  <q1 s>  <q3 s>  suite  (<pytest's summary>)
    <median s>  <q1 s>  <q3 s>  <test file>

where a file's seconds are the sum of its tests' reported durations,
each of which pytest prints to 10 ms.
``  # exit N`` is appended to the first line when a run fails.
"""

from __future__ import annotations

import argparse
import collections
import os
import re
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "--durations=0", "--durations-min=0"]
# "0.52s call     tests/test_cli.py::test_amplitude[...]"
DURATION = re.compile(r"^(\d+\.\d+)s (?:setup|call|teardown) +([^:\s]+)::")


def run_once(env: dict) -> tuple[float, dict, str, int]:
    """Wall seconds, seconds by test file, the summary line and the exit
    code of one run of the suite."""
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    by_file = collections.Counter()
    for line in proc.stdout.splitlines():
        match = DURATION.match(line)
        if match:
            by_file[match[2]] += float(match[1])
    lines = proc.stdout.strip().splitlines()
    return wall, by_file, lines[-1] if lines else "", proc.returncode


def quartiles(values: list[float]) -> str:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:7.2f}  {q1:7.2f}  {q3:7.2f}"


def main(args=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-k", type=int, default=3, help="runs of the suite (at least 2)")
    args = parser.parse_args(args)
    if args.k < 2:
        parser.error("-k needs at least 2 runs for quartiles")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    runs = [run_once(env) for _ in range(args.k)]
    codes = sorted({code for _, _, _, code in runs} - {0})
    note = f"  # exit {','.join(map(str, codes))}" if codes else ""
    print(f"{quartiles([wall for wall, _, _, _ in runs])}  suite  ({runs[-1][2]}){note}")
    files = {name for _, by_file, _, _ in runs for name in by_file}
    seconds = {name: [by_file[name] for _, by_file, _, _ in runs] for name in files}
    for name in sorted(files, key=lambda name: -statistics.median(seconds[name])):
        print(f"{quartiles(seconds[name])}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
