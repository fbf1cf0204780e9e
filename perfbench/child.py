"""Run one benchmark job in a fresh process.

    python3 perfbench/child.py SPEC_JSON

SPEC_JSON holds ``src`` (the directory that contains the ``spiderwalk``
package), ``argv`` (the job) and ``trace`` (0 or 1).  The job's output
goes to stdout.  After it, one line ``PERFBENCH {json}`` on stderr gives
the monotonic times at which the imports were loaded and the job began
and ended, the process's peak RSS, and with tracing on the span summary.
The exit code is the job's.

Library jobs (``argv[0] == "lib"``) call a documented function that has
no CLI subcommand and print each result value with 17 significant digits:

    lib cesaro_strata A B C HORIZON MAX_STRATUM
    lib origin_amplitude_series A B C NMAX
"""

import json
import resource
import sys
import time


def _run_library(spiderwalk, args):
    name, a, b, c, *rest = args
    params = spiderwalk.params_from_spidernet(
        spiderwalk.SpidernetParams(int(a), int(b), int(c)))
    values = getattr(spiderwalk, name)(params, *(int(v) for v in rest))
    sys.stdout.write("".join(format(float(v), ".17g") + "\n" for v in values))
    return 0


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import spiderwalk
    import spiderwalk.cli

    ready = time.monotonic()
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer(spiderwalk)
        tracer.install()
    argv = spec["argv"]
    start = time.monotonic()
    if argv[0] == "lib":
        code = _run_library(spiderwalk, argv[1:])
    else:
        code = spiderwalk.cli.main(argv)
    sys.stdout.flush()
    end = time.monotonic()
    record = {
        "ready": ready,
        "start": start,
        "end": end,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        record["trace"] = tracer.summary()
    sys.stderr.write("\nPERFBENCH " + json.dumps(record) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
