"""Command line interface.

Every subcommand emits a table, CSV by default or JSON records with
``--format json``, to stdout or to ``-o FILE``.  Each subcommand's function
returns the table's column names and rows, ``verify`` its exit status too,
and :func:`main` alone prints it, so a command writes nothing itself and a
failure anywhere leaves stdout empty.  Relative output paths
are resolved against ``$SPIDERWALK_OUTPUT_DIR`` when that is set, and a
path that names a directory or lies in none is refused before the command
runs.  Floats are printed with 15 significant digits, as "%.15g" % v in
CSV and, in JSON, as json.dumps prints the float that text reads as.  The
two differ only where json.dumps spells it otherwise: integral floats gain
a ".0", nan and inf become NaN and Infinity, the decade [1e15, 1e16) is
positional, subnormals take the fewest digits that read back, and
1.79769313486232e+308, past the largest float, reads as Infinity.  All
computations are deterministic, so repeated runs are byte-identical.
Errors, usage errors and unwritable output among them, exit with a
non-zero status and a one-line JSON object on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import verify as verify_mod
from .errors import InvalidParamsError, SpiderwalkError, checked_int
from .graph import SpidernetParams, build_spidernet
from .meixner import (
    amplitude_series,
    classify,
    law_from_pq,
    law_from_spidernet,
    random_walk_return_series,
)
from .reduction import (
    PqParams,
    ReducedEvolver,
    ReducedState,
    origin_amplitude_series,
    params_from_spidernet,
    u_eigensystem,
)
from .walk import GraphEvolver, isotropic_initial_state, light_cone_radius

__all__ = ["main"]

_ENV_OUTPUT_DIR = "SPIDERWALK_OUTPUT_DIR"
# A cap on the rows of ``localize --sweep``, which classifies and holds every
# row before printing: ~0.5 s in-process and ~90 MB peak RSS at the cap.
MAX_SWEEP_ROWS = 100_000
# A cap on the cells of a ``simulate`` table, (steps + 1) (strata + 2), checked
# before the walk is built; it also bounds the reduced walk's arrays and its
# read buffer.  ~130 MB peak RSS at the cap (50 000 steps, 18 strata).
MAX_TABLE_CELLS = 1_000_000


# The %-format of the floats and ints of a table row; other cells are text.
_FIELDS = {float: "%.15g", int: "%d"}


def _quote(text: str) -> str:
    """text as a CSV field, quoted when it holds a comma, a quote or a line break."""
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _json_float(v: float) -> str:
    """json.dumps(float("%.15g" % v)).  That is the text t itself, since
    every 15-digit decimal round-trips, unless float.__repr__ spells it
    otherwise: when t has no "." (0, 1e+300, nan), lies in the decade
    [1e15, 1e16), which repr writes positionally, reads as a subnormal,
    which repr may write with fewer digits, or reads as inf, past the
    largest float.  So a t with no ".", with "e+15", with "e+308" or with
    "e-3" (exponents -30 to -39, and -300 down) goes through json."""
    text = "%.15g" % v
    regular = "." in text and "e+15" not in text and "e+308" not in text and "e-3" not in text
    return text if regular else json.dumps(float(text))


# The kinds of column whose cells become text before the row's %-format
_CSV_CELLS = {bool: {False: "false", True: "true"}.__getitem__, str: _quote}
_JSON_CELLS = {**_CSV_CELLS, str: json.dumps, float: _json_float}


def _emit(names, rows, args) -> None:
    """Print a table whose every column holds one kind of cell: floats
    (np.float64 among them, a subclass of float), bools, ints or strs.
    Both formats print each row through one %-format of the same cells:
    floats as "%.15g" % v, which is format(v, ".15g"), ints as "%d", bools
    as true or false, and strs quoted for CSV or by json.dumps; only the
    header, the row's frame, the separator and the ending differ.  A JSON
    float is json.dumps(float("%.15g" % v)), the CSV's number as JSON
    spells it (:func:`_json_float`): 0.0, NaN, 3757728834966920.0, 4e-320
    and Infinity where the CSV prints 0, nan, 3.75772883496692e+15,
    3.99995546873073e-320 and 1.79769313486232e+308."""
    cells = _JSON_CELLS if args.format == "json" else _CSV_CELLS
    columns = list(zip(*rows))
    kinds = [float if isinstance(column[0], float) else type(column[0]) for column in columns]
    fields = ["%s" if kind in cells else _FIELDS[kind] for kind in kinds]
    columns = [map(cells[k], c) if k in cells else c for c, k in zip(columns, kinds)]
    if args.format == "json":
        keys = [json.dumps(name).replace("%", "%%") for name in names]
        row = "  {\n" + ",\n".join(f"    {k}: {f}" for k, f in zip(keys, fields)) + "\n  }"
        head, sep, end = "[\n", ",\n", "\n]\n"
    else:
        row, head, sep, end = ",".join(fields) + "\n", ",".join(map(_quote, names)) + "\n", "", ""
    text = head + sep.join(map(row.__mod__, zip(*columns))) + end
    if args.output:
        try:
            with open(args.output, "w") as fp:
                fp.write(text)
        except OSError as exc:
            raise InvalidParamsError(f"-o {args.output}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _output_path(path: str) -> str:
    """-o FILE as :func:`_emit` writes it, relative paths under
    $SPIDERWALK_OUTPUT_DIR when set, refused before the command runs when it
    names a directory or lies in no directory."""
    if not os.path.isabs(path):
        path = os.path.join(os.environ.get(_ENV_OUTPUT_DIR, ""), path)
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        raise InvalidParamsError(f"-o {path}: not a file in an existing directory")
    return path


def _pq_from_args(args) -> tuple[SpidernetParams | None, PqParams]:
    """The spidernet of ``a b c``, None with ``--pqr``, and its (p, q, r)."""
    if args.pqr is not None:
        _reject_abc(args, "--pqr")
        return None, PqParams(*args.pqr)
    sp = _require_abc(args, "--pqr P Q R")
    return sp, params_from_spidernet(sp)


def _law(sp: SpidernetParams | None, params: PqParams):
    # with a b c, the atom comes from (b, c) exactly
    return law_from_pq(params) if sp is None else law_from_spidernet(sp)


def _reject_abc(args, flag: str) -> None:
    if (args.a, args.b, args.c) != (None, None, None):
        raise InvalidParamsError(f"a b c and {flag} are alternatives; give one of them")


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


def _require_abc(args, alternative: str | None = None) -> SpidernetParams:
    if args.a is None or args.b is None or args.c is None:
        instead = f" or {alternative}" if alternative else ""
        raise InvalidParamsError(f"this command needs the spidernet parameters a b c{instead}")
    return SpidernetParams(args.a, args.b, args.c)


# -- subcommands: each returns (columns, rows), verify (columns, rows, status)

def _cmd_simulate(args):
    sp = _require_abc(args)
    steps = checked_int("--steps", args.steps, 0)
    n_strata = checked_int("--strata", args.strata, 0) if args.strata is not None else min(steps, 6)
    n_cells = (steps + 1) * (n_strata + 2)
    if n_cells > MAX_TABLE_CELLS:
        raise InvalidParamsError(
            f"--steps {steps} with {n_strata} strata makes a table of {n_cells} cells, "
            f"more than {MAX_TABLE_CELLS}")
    columns = ["n", "p_origin"] + [f"p_stratum_{l}" for l in range(1, n_strata + 1)]
    if args.full:
        # the boundary stratum's truncated coin reaches no printed stratum
        # by the last step
        g = build_spidernet(sp, light_cone_radius(steps, n_strata))
        ev = GraphEvolver(g, isotropic_initial_state(g), steps, reach=n_strata)
        probs = np.empty((steps + 1, min(g.radius, n_strata) + 1))
        for n in range(steps + 1):
            if n > 0:
                ev.step()
            probs[n] = ev.stratum_distribution()[:probs.shape[1]]
    else:
        ev = ReducedEvolver(params_from_spidernet(sp), ReducedState.origin(), steps,
                            reach=n_strata)
        probs = ev.stratum_probability_rows(steps)
    # both hold at most n_strata + 1 columns; strata the walk cannot reach read 0
    pad = [0.0] * (n_strata + 1 - probs.shape[1])
    return columns, [[n] + row + pad for n, row in enumerate(probs.tolist())]


def _cmd_spectrum(args):
    _, params = _pq_from_args(args)
    N = args.cutoff
    system = u_eigensystem(params, N)
    trace = system.trace
    expected = (2 * params.r - 1) * (N - 1)
    columns = ["theta", "eig_re", "eig_im", "multiplicity", "trace", "trace_expected"]
    rows = [[0.0, 1.0, 0.0, 1, trace, expected]]
    for theta in system.thetas:
        re, im = float(np.cos(theta)), float(np.sin(theta))
        rows.append([float(theta), re, im, 1, trace, expected])
        rows.append([float(theta), re, -im, 1, trace, expected])
    if system.minus_one_multiplicity > 0:
        rows.append([float(np.pi), -1.0, 0.0, system.minus_one_multiplicity,
                     trace, expected])
    rows.sort(key=lambda r: (r[0], -r[2]))
    return columns, rows


def _cmd_amplitude(args):
    sp, params = _pq_from_args(args)
    # route 3 first: it refuses a negative size, or a degree past its
    # quadrature budget, before any work
    integral = amplitude_series(_law(sp, params), args.nmax, args.l, args.m).tolist()
    reduced = origin_amplitude_series(params, args.nmax, args.l, args.m).tolist()
    columns = ["n", "integral", "reduced", "abs_diff"]
    return columns, [[n, a, r, abs(a - r)] for n, (a, r) in enumerate(zip(integral, reduced))]


def _cmd_localize(args):
    columns = ["a", "b", "c", "localized", "w", "xi", "theta", "qbar_origin"]
    if args.sweep is not None:
        _reject_abc(args, "--sweep")
        bmax = checked_int("--sweep BMAX", args.sweep[0], 2)
        cmax = checked_int("--sweep CMAX", args.sweep[1], 1)
        # one row per b - 1 = k in 1..bmax - 1 and c in 1..min(k, cmax)
        k, c = bmax - 1, min(bmax - 1, cmax)
        n_rows = c * (c + 1) // 2 + (k - c) * c
        if n_rows > MAX_SWEEP_ROWS:
            raise InvalidParamsError(
                f"--sweep {bmax} {cmax} has {n_rows} rows, more than {MAX_SWEEP_ROWS}")
        rows = _sweep_rows(bmax, cmax)
    else:
        sp = _require_abc(args, "--sweep BMAX CMAX")
        rep = classify(sp)
        rows = [[sp.a, sp.b, sp.c, rep.localized, float(rep.w), float(rep.xi),
                 rep.theta, float(rep.qbar_origin)]]
    return columns, rows


def _sweep_rows(bmax: int, cmax: int) -> list[tuple]:
    """The rows of ``localize --sweep``, a = 1 and (b, c) in order, with the
    values :func:`classify` gives, computed in bulk from the integers.  With
    numer = (b - c)^2 - c and den = (b - c) (b - c + 1), w = numer / den is
    one division of integers that doubles hold exactly, and qbar =
    numer^2 / (2 den^2) one division of Python ints; both round as
    float(Fraction) does."""
    counts = np.minimum(np.arange(1, bmax), min(cmax, bmax))   # c = 1 .. min(b - 1, cmax)
    b = np.repeat(np.arange(2, bmax + 1), counts)
    c = np.arange(1, len(b) + 1) - np.repeat(np.cumsum(counts) - counts, counts)
    gap = b - c
    numer, den = gap * gap - c, gap * (gap + 1)
    localized = numer > 0
    w = np.where(localized, numer / den, 0.0)
    qbar = [n * n / (2 * d * d) if n > 0 else 0.0
            for n, d in zip(numer.tolist(), den.tolist())]
    xi = -1.0 / gap
    columns = (b, c, localized, w, xi, np.arccos(xi))
    return list(zip([1] * len(b), *(column.tolist() for column in columns), qbar))


def _cmd_figure2(args):
    sp = SpidernetParams(4, 6, 3)
    params = params_from_spidernet(sp)
    rep = classify(sp)
    amps = origin_amplitude_series(params, 650)
    columns = ["n", "p_origin", "envelope", "qbar"]
    rows = []
    for n in range(620, 651):
        envelope = 0.25 * math.cos(n * rep.theta) ** 2
        rows.append([n, float(amps[n] ** 2), envelope, float(rep.qbar_origin)])
    return columns, rows


def _cmd_rwalk(args):
    law = _law(*_pq_from_args(args))
    series = random_walk_return_series(law, args.nmax).tolist()
    return ["n", "return_probability"], [[n, v] for n, v in enumerate(series)]


def _cmd_verify(args):
    rows = [[name, ok, detail] for name, ok, detail in verify_mod.run_all()]
    return ["check", "passed", "detail"], rows, int(not all(ok for _, ok, _ in rows))


class _Parser(argparse.ArgumentParser):
    """Reports usage errors like every other error, as InvalidParamsError."""

    def error(self, message):
        raise InvalidParamsError(f"{self.prog}: {message}")


def _simulate_args(sub) -> None:
    _add_abc(sub)
    sub.add_argument("--steps", type=int, required=True)
    sub.add_argument("--strata", type=int, default=None,
                     help="number of stratum columns (default min(steps, 6))")
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--full", action="store_true",
                       help="evolve on the explicit graph, built out to the light cone "
                            "of the printed strata, radius min(steps, "
                            "(steps + strata)//2 + 1)")
    group.add_argument("--reduced", action="store_true",
                       help="evolve the one-dimensional reduction (default)")


def _spectrum_args(sub) -> None:
    _add_abc_or_pqr(sub)
    sub.add_argument("--cutoff", type=int, required=True, metavar="N")


def _amplitude_args(sub) -> None:
    _add_abc_or_pqr(sub)
    sub.add_argument("--l", type=int, default=0)
    sub.add_argument("--m", type=int, default=0)
    sub.add_argument("--nmax", type=int, required=True)


def _localize_args(sub) -> None:
    _add_abc(sub, required=False)
    sub.add_argument("--sweep", type=int, nargs=2, metavar=("BMAX", "CMAX"),
                     default=None, help="report every (b, c) in range instead")


def _rwalk_args(sub) -> None:
    _add_abc_or_pqr(sub)
    sub.add_argument("--nmax", type=int, required=True)


# name: (help, the arguments before the output options, the command)
_SUBCOMMANDS = {
    "simulate": ("walk probabilities per step", _simulate_args, _cmd_simulate),
    "spectrum": ("cutoff walk eigenvalues", _spectrum_args, _cmd_spectrum),
    "amplitude": ("spectral integral vs reduced walk", _amplitude_args, _cmd_amplitude),
    "localize": ("closed-form localization report", _localize_args, _cmd_localize),
    "figure2": ("origin probability window for S(4,6,3), n = 620..650, with the "
                "(1/4)cos^2 envelope", None, _cmd_figure2),
    "rwalk": ("classical random-walk return probabilities", _rwalk_args, _cmd_rwalk),
    "verify": ("run the built-in cross-validation suite", None, _cmd_verify),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or with ``command`` of that one only:
    a subcommand's help, usage errors and parsed arguments do not depend on
    its siblings, and building all of them costs ~2 ms a run."""
    parser = _Parser(
        prog="spiderwalk",
        description="Grover quantum walks on spidernets S(a, b, c): simulation, "
                    "spectra, amplitudes, and localization analysis.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args, func) in _SUBCOMMANDS.items():
        if command in (None, name):
            sub = subs.add_parser(name, help=help_text)
            if add_args is not None:
                add_args(sub)
            _add_output_options(sub)
            sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # -h and a missing or unknown command need the full parser
    command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    try:
        args = _build_parser(command).parse_args(argv)
        if args.output:
            args.output = _output_path(args.output)
        columns, rows, *status = args.func(args)
        _emit(columns, rows, args)
        return status[0] if status else 0
    except SpiderwalkError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload), file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
