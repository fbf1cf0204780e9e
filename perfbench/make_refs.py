"""Write ``refs.json``: the ladder workload's outputs as the seed program gives them.

    python3 perfbench/make_refs.py

The reduced ladder has no independent reference cheap enough to compute in
every run, so the ladder jobs are checked against these stored outputs.
They were made once from the first version of the program that the
benchmark measured; regenerating them from a later version would let a
wrong answer check itself.  Only every 100th row and the last ten rows of
each 10 001-row table are kept.
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
STEPS = 10000
STRATA = 4


def _rows(steps):
    return sorted(set(range(0, steps + 1, 100)) | set(range(max(0, steps - 9), steps + 1)))


def _cli(main, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"{argv} exited {code}")
    lines = buf.getvalue().splitlines()[1:]
    return [[float(v) for v in line.split(",")] for line in lines]


def build_refs(spiderwalk, keys, steps=STEPS, strata=STRATA):
    """Reference entries, keyed as ``checks.ref_key`` keys them, for ladder jobs
    with the given horizon and stratum count."""
    from spiderwalk.cli import main as cli_main

    rows = _rows(steps)
    refs = {}
    for fn, b, c in keys:
        params = spiderwalk.params_from_spidernet(spiderwalk.SpidernetParams(1, b, c))
        if fn == "simulate":
            table = _cli(cli_main, ["simulate", "1", str(b), str(c), "--steps", str(steps),
                                    "--strata", str(strata)])
            refs[f"simulate {b} {c}"] = {"n": rows, "rows": [table[n] for n in rows]}
        elif fn == "cesaro_strata":
            values = spiderwalk.cesaro_strata(params, steps, strata)
            refs[f"{fn} {b} {c}"] = {"values": [float(v) for v in values]}
        else:
            values = spiderwalk.origin_amplitude_series(params, steps)
            refs[f"{fn} {b} {c}"] = {"n": rows, "values": [float(values[n]) for n in rows]}
    refs["figure2"] = {"rows": _cli(cli_main, ["figure2"])}
    return refs


def main() -> None:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import spiderwalk

    from jobs import ladder_keys

    refs = build_refs(spiderwalk, ladder_keys())
    with open(os.path.join(HERE, "refs.json"), "w") as fp:
        fp.write("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in refs.items())
                 + "\n}\n")


if __name__ == "__main__":
    main()
