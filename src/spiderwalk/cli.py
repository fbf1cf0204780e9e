"""Command line interface.

Every subcommand emits a table, CSV by default or JSON records with
``--format json``, to stdout or to ``-o FILE``.  Relative output paths
are resolved against ``$SPIDERWALK_OUTPUT_DIR`` when that is set.  Floats
are printed with 15 significant digits and all computations are
deterministic, so repeated runs are byte-identical.  Errors exit with a
non-zero status and a one-line JSON object on stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import verify as verify_mod
from .errors import InvalidParamsError, SpiderwalkError
from .graph import SpidernetParams, build_spidernet
from .localization import (
    amplitude,
    cesaro_origin,
    classify,
    origin_amplitude_series,
    random_walk_return,
)
from .meixner import law_from_pq
from .reduction import (
    PqParams,
    ReducedEvolver,
    ReducedState,
    cutoff_walk_matrix,
    params_from_spidernet,
    u_eigensystem,
)
from .walk import (
    evolve,
    isotropic_initial_state,
    step,
    stratum_distribution,
)

__all__ = ["main"]

_ENV_OUTPUT_DIR = "SPIDERWALK_OUTPUT_DIR"


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".15g")
    return str(value)


def _json_value(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(format(float(value), ".15g"))
    return value


def _emit(columns, rows, args) -> None:
    if args.format == "json":
        records = [{c: _json_value(v) for c, v in zip(columns, row)} for row in rows]
        text = json.dumps(records, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        text = buf.getvalue()
    if args.output:
        path = args.output
        if not os.path.isabs(path):
            path = os.path.join(os.environ.get(_ENV_OUTPUT_DIR, ""), path)
        with open(path, "w") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)


def _pq_from_args(args) -> PqParams:
    if args.pqr is not None:
        p, q, r = args.pqr
        return PqParams(p, q, r)
    return params_from_spidernet(SpidernetParams(args.a, args.b, args.c))


def _add_output_options(sub) -> None:
    sub.add_argument("-o", "--output", metavar="FILE", default=None,
                     help="write to FILE instead of stdout (relative paths go "
                          f"under ${_ENV_OUTPUT_DIR} when set)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_abc(sub, required: bool = True) -> None:
    sub.add_argument("a", type=int, nargs=None if required else "?")
    sub.add_argument("b", type=int, nargs=None if required else "?")
    sub.add_argument("c", type=int, nargs=None if required else "?")


def _add_abc_or_pqr(sub) -> None:
    _add_abc(sub, required=False)
    sub.add_argument("--pqr", type=float, nargs=3, metavar=("P", "Q", "R"),
                     default=None, help="raw reduced parameters instead of a b c")


def _count(value: int, flag: str) -> int:
    if value < 0:
        raise InvalidParamsError(f"{flag} must be non-negative, got {value}")
    return value


def _require_abc(args) -> SpidernetParams:
    if args.a is None or args.b is None or args.c is None:
        raise SpiderwalkError("this command needs the spidernet parameters a b c")
    return SpidernetParams(args.a, args.b, args.c)


# -- subcommands -------------------------------------------------------------

def _cmd_simulate(args) -> int:
    sp = _require_abc(args)
    steps = _count(args.steps, "--steps")
    n_strata = _count(args.strata, "--strata") if args.strata is not None else min(steps, 6)
    columns = ["n", "p_origin"] + [f"p_stratum_{l}" for l in range(1, n_strata + 1)]
    rows = []
    if args.full:
        g = build_spidernet(sp, steps + 2)
        state = isotropic_initial_state(g)
        for n in range(steps + 1):
            if n > 0:
                state = step(g, state)
            dist = stratum_distribution(g, state)
            rows.append([n, float(dist[0])] +
                        [float(dist[l]) for l in range(1, n_strata + 1)])
    else:
        params = params_from_spidernet(sp)
        ev = ReducedEvolver(params, ReducedState.origin(), steps, reach=n_strata)
        for n in range(steps + 1):
            if n > 0:
                ev.step()
            rows.append([n, ev.origin_probability()] +
                        [ev.stratum_probability(l) for l in range(1, n_strata + 1)])
    _emit(columns, rows, args)
    return 0


def _cmd_spectrum(args) -> int:
    params = _pq_from_args(args)
    N = args.cutoff
    system = u_eigensystem(params, N)
    trace = float(np.trace(cutoff_walk_matrix(params, N)))
    expected = (2 * params.r - 1) * (N - 1)
    columns = ["theta", "eig_re", "eig_im", "multiplicity", "trace", "trace_expected"]
    rows = [[0.0, 1.0, 0.0, 1, trace, expected]]
    for theta in system.thetas:
        rows.append([float(theta), float(np.cos(theta)), float(np.sin(theta)),
                     1, trace, expected])
        rows.append([float(theta), float(np.cos(theta)), -float(np.sin(theta)),
                     1, trace, expected])
    rows.append([float(np.pi), -1.0, 0.0, system.minus_one_multiplicity,
                 trace, expected])
    rows.sort(key=lambda r: (r[0], -r[2]))
    _emit(columns, rows, args)
    return 0


def _cmd_amplitude(args) -> int:
    params = _pq_from_args(args)
    law = law_from_pq(params)
    l, m, nmax = args.l, args.m, _count(args.nmax, "--nmax")
    # reduced-walk side: evolve Psi_m once, read <Psi_l, .> per step
    from .reduction import inner, reduced_step, stratum_state
    psi_l = stratum_state(params, l)
    state = stratum_state(params, m)
    columns = ["n", "integral", "reduced", "abs_diff"]
    rows = []
    for n in range(nmax + 1):
        if n > 0:
            state = reduced_step(params, state)
        a_int = amplitude(law, l, m, n)
        a_red = inner(psi_l, state).real
        rows.append([n, a_int, a_red, abs(a_int - a_red)])
    _emit(columns, rows, args)
    return 0


def _cmd_localize(args) -> int:
    columns = ["a", "b", "c", "localized", "w", "xi", "theta", "qbar_origin"]
    rows = []
    if args.sweep is not None:
        bmax, cmax = args.sweep
        for b in range(2, bmax + 1):
            for c in range(1, min(b - 1, cmax) + 1):
                rep = classify(SpidernetParams(1, b, c))
                rows.append([1, b, c, rep.localized, float(rep.w), float(rep.xi),
                             rep.theta, float(rep.qbar_origin)])
    else:
        sp = _require_abc(args)
        rep = classify(sp)
        rows.append([sp.a, sp.b, sp.c, rep.localized, float(rep.w), float(rep.xi),
                     rep.theta, float(rep.qbar_origin)])
    _emit(columns, rows, args)
    return 0


def _cmd_figure2(args) -> int:
    sp = SpidernetParams(4, 6, 3)
    params = params_from_spidernet(sp)
    rep = classify(sp)
    amps = origin_amplitude_series(params, 650)
    columns = ["n", "p_origin", "envelope", "qbar"]
    rows = []
    for n in range(620, 651):
        envelope = 0.25 * math.cos(n * rep.theta) ** 2
        rows.append([n, float(amps[n] ** 2), envelope, float(rep.qbar_origin)])
    _emit(columns, rows, args)
    return 0


def _cmd_rwalk(args) -> int:
    params = _pq_from_args(args)
    law = law_from_pq(params)
    nmax = _count(args.nmax, "--nmax")
    columns = ["n", "return_probability"]
    rows = [[n, random_walk_return(law, n)] for n in range(nmax + 1)]
    _emit(columns, rows, args)
    return 0


def _cmd_verify(args) -> int:
    results = verify_mod.run_all()
    columns = ["check", "passed", "detail"]
    rows = [[name, ok, detail] for name, ok, detail in results]
    _emit(columns, rows, args)
    return 0 if all(ok for _, ok, _ in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spiderwalk",
        description="Grover quantum walks on spidernets S(a, b, c): simulation, "
                    "spectra, amplitudes, and localization analysis.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("simulate", help="walk probabilities per step")
    _add_abc(sub)
    sub.add_argument("--steps", type=int, required=True)
    sub.add_argument("--strata", type=int, default=None,
                     help="number of stratum columns (default min(steps, 6))")
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--full", action="store_true",
                       help="evolve on the explicit graph (needs radius steps+2)")
    group.add_argument("--reduced", action="store_true",
                       help="evolve the one-dimensional reduction (default)")
    _add_output_options(sub)
    sub.set_defaults(func=_cmd_simulate)

    sub = subs.add_parser("spectrum", help="cutoff walk eigenvalues")
    _add_abc_or_pqr(sub)
    sub.add_argument("--cutoff", type=int, required=True, metavar="N")
    _add_output_options(sub)
    sub.set_defaults(func=_cmd_spectrum)

    sub = subs.add_parser("amplitude", help="spectral integral vs reduced walk")
    _add_abc_or_pqr(sub)
    sub.add_argument("--l", type=int, default=0)
    sub.add_argument("--m", type=int, default=0)
    sub.add_argument("--nmax", type=int, required=True)
    _add_output_options(sub)
    sub.set_defaults(func=_cmd_amplitude)

    sub = subs.add_parser("localize", help="closed-form localization report")
    _add_abc(sub, required=False)
    sub.add_argument("--sweep", type=int, nargs=2, metavar=("BMAX", "CMAX"),
                     default=None, help="report every (b, c) in range instead")
    _add_output_options(sub)
    sub.set_defaults(func=_cmd_localize)

    sub = subs.add_parser("figure2", help="origin probability window for S(4,6,3), "
                                          "n = 620..650, with the (1/4)cos^2 envelope")
    _add_output_options(sub)
    sub.set_defaults(func=_cmd_figure2)

    sub = subs.add_parser("rwalk", help="classical random-walk return probabilities")
    _add_abc_or_pqr(sub)
    sub.add_argument("--nmax", type=int, required=True)
    _add_output_options(sub)
    sub.set_defaults(func=_cmd_rwalk)

    sub = subs.add_parser("verify", help="run the built-in cross-validation suite")
    _add_output_options(sub)
    sub.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpiderwalkError, ValueError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload), file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
