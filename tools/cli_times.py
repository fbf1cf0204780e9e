"""Time ``spiderwalk`` commands end to end, each run in a fresh process.

    python3 tools/cli_times.py [-k 8] [--other CHECKOUT] ["simulate 4 6 3 --steps 10 --full" ...]

Each argument is one command line.  Without any, the commands are the
README's examples and every ``--full`` command of ``tools/stdout_digest.py``.
Every command runs ``k`` times, in ``k`` rounds over the commands so that
drift in the machine's speed spreads over all of them, as
``python3 -c 'spiderwalk.cli.main'`` on the ``src/`` of the checkout the
script sits in, with stdout and stderr discarded.  It prints one line per
command:

    <median s>  <q1 s>  <q3 s>  <peak RSS MB>  <argv>

the wall time of the whole process (interpreter start and imports
included), its quartiles over the k runs, and the largest peak RSS of a
run, with ``  # exit N`` appended when a run fails.

With ``--other CHECKOUT``, each round runs every command once on the
``src/`` of this checkout and once on that of the other, back to back,
the first alternating from round to round, so that the machine's drift
falls alike on both.  Each command then gets two lines, this checkout's
and the other's,

    <median s>  <q1 s>  <q3 s>  <peak RSS MB>  <rounds won>/<k>  this|other  <argv>

where a side wins a round when its run of the command was the faster.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MAIN = "import sys; from spiderwalk.cli import main; sys.exit(main(sys.argv[1:]))"


def default_commands() -> list[list[str]]:
    """The README's examples, then the digest's ``--full`` commands."""
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import stdout_digest

    full = [argv for argv in stdout_digest.commands() if "--full" in argv]
    unique = {" ".join(argv): argv for argv in stdout_digest.readme_commands() + full}
    return list(unique.values())


def run_once(argv: list[str], env: dict) -> tuple[float, float, int]:
    """Wall seconds, peak RSS in MB and exit code of one fresh run."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", MAIN, *argv], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    # reaped here, for its rusage; Popen must not wait for it again
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return wall, usage.ru_maxrss / 1024, proc.returncode


def checkout_env(root: str) -> dict:
    """The environment that imports spiderwalk from the ``src/`` of ``root``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def main(args=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-k", type=int, default=8, help="runs per command (at least 2)")
    parser.add_argument("--other", metavar="CHECKOUT", default=None,
                        help="a second checkout, run in the same rounds, alternating first")
    parser.add_argument("commands", nargs="*", metavar="COMMAND",
                        help="one command line, without the leading 'spiderwalk'")
    args = parser.parse_args(args)
    if args.k < 2:
        parser.error("-k needs at least 2 runs for quartiles")
    if args.other is not None and not os.path.isdir(os.path.join(args.other, "src", "spiderwalk")):
        parser.error(f"--other {args.other}: no src/spiderwalk there")
    commands = [c.split() for c in args.commands] or default_commands()
    envs = [checkout_env(ROOT)] + ([checkout_env(args.other)] if args.other else [])
    # runs[command][side]: the (wall, RSS, exit) of each round
    runs = [[[] for _ in envs] for _ in commands]
    sides = range(len(envs))
    for n in range(args.k):
        for argv, record in zip(commands, runs):
            for side in sides[::-1] if n % 2 else sides:
                record[side].append(run_once(argv, envs[side]))
    for argv, record in zip(commands, runs):
        walls = [[wall for wall, _, _ in side] for side in record]
        for side, (name, side_runs) in enumerate(zip(("this", "other"), record)):
            q1, median, q3 = statistics.quantiles(walls[side], n=4, method="inclusive")
            rss = max(peak for _, peak, _ in side_runs)
            codes = sorted({code for _, _, code in side_runs} - {0})
            note = f"  # exit {','.join(map(str, codes))}" if codes else ""
            won = sum(times[side] == min(times) for times in zip(*walls))
            label = f"{won:2d}/{args.k}  {name:5s}  " if len(envs) > 1 else ""
            print(f"{median:.4f}  {q1:.4f}  {q3:.4f}  {rss:6.1f}  {label}{' '.join(argv)}{note}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
