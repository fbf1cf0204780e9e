import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import asymptotic_amplitude, chebyshev_amplitudes, lapack_thetas, stratum_bound

import spiderwalk.cli as cli
import spiderwalk.errors
import spiderwalk.meixner as meixner
import spiderwalk.verify as verify
from spiderwalk import (
    ParamsOutOfRangeError,
    PqParams,
    ReducedEvolver,
    SpidernetParams,
    SpiderwalkError,
    classify,
    law_from_pq,
    origin_amplitude_series,
    params_from_spidernet,
    quadrature_nodes,
)
from spiderwalk.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_refused_early(capsys, error, *argv):
    """The command exits 1 with ``error`` before allocating 1 MiB."""
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == error
    assert peak < 1 << 20


def read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def csv_text(value):
    """A cell as the table's CSV prints it: floats to 15 significant digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(float(value), ".15g")
    return str(value)


def json_value(value):
    """A cell as the table's JSON records hold it."""
    return float(format(float(value), ".15g")) if isinstance(value, float) else value


def reference_table(columns, rows, fmt):
    """The text of a table through csv.writer or json.dumps, cell by cell."""
    if fmt == "json":
        records = [{k: json_value(v) for k, v in zip(columns, row)} for row in rows]
        return json.dumps(records, indent=2) + "\n"
    lines = []
    for row in [columns] + [[csv_text(v) for v in row] for row in rows]:
        # with "\r\n" csv.writer quotes a "\r" as well as a "\n", as csv.reader
        # needs; each row then ends in "\n"
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        lines.append(buf.getvalue()[:-2] + "\n")
    return "".join(lines)


def test_simulate_reduced(capsys):
    code, out, err = run_cli(capsys, "simulate", "4", "6", "3", "--steps", "4")
    assert code == 0 and err == ""
    header, rows = read_csv(out)
    assert header[:2] == ["n", "p_origin"]
    assert len(rows) == 5
    assert float(rows[0][1]) == 1.0          # P(X_0 = o) = 1
    assert float(rows[1][1]) == 0.0
    for row in rows:
        assert sum(float(v) for v in row[1:]) <= 1.0 + 1e-12


def test_simulate_full_matches_reduced(capsys):
    # localizing, threshold (b - c)^2 = c, tree, c = 1, no steps (the
    # graph still needs radius 1 for the root's edges), and stratum
    # columns past the graph's radius, which no amplitude reaches
    for argv in (["4", "6", "3", "--steps", "8"],
                 ["4", "6", "4", "--steps", "6"],
                 ["3", "4", "3", "--steps", "8"],
                 ["3", "4", "1", "--steps", "12"],
                 ["4", "6", "3", "--steps", "0"],
                 ["4", "6", "3", "--steps", "3", "--strata", "8"]):
        code, full_out, _ = run_cli(capsys, "simulate", *argv, "--full")
        assert code == 0
        code, red_out, _ = run_cli(capsys, "simulate", *argv, "--reduced")
        assert code == 0
        full_header, full_rows = read_csv(full_out)
        red_header, red_rows = read_csv(red_out)
        assert full_header == red_header
        assert len(full_rows) == len(red_rows) == int(argv[4]) + 1
        for fr, rr in zip(full_rows, red_rows):
            assert len(fr) == len(rr)
            for fv, rv in zip(fr[1:], rr[1:]):
                assert abs(float(fv) - float(rv)) < 1e-12
    # strata 6..8 lie past radius 3: both routes print exact zeros
    assert all(row[-3:] == ["0", "0", "0"] for row in full_rows)


def test_full_route_memory_grows_with_the_printed_strata(capsys):
    # S(1, 2, 1) is a path: radius 4000 at 4000 steps in 8000 half-edges.
    # The full route keeps 7 probabilities a step (~3 MiB peak in all), not
    # the radius + 1 of each distribution (125 MiB)
    argv = ["simulate", "1", "2", "1", "--steps", "4000"]
    tracemalloc.start()
    try:
        code, full_out, _ = run_cli(capsys, *argv, "--full")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 16 << 20
    code, red_out, _ = run_cli(capsys, *argv)
    assert code == 0 and full_out == red_out


def test_spectrum(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "4", "6", "3", "--cutoff", "8")
    assert code == 0
    header, rows = read_csv(out)
    thetas = [float(r[0]) for r in rows]
    assert thetas == sorted(thetas)
    r = 1.0 / 3.0
    for row in rows:
        assert float(row[4]) == pytest.approx((2 * r - 1) * 7, abs=1e-12)
        assert float(row[5]) == pytest.approx((2 * r - 1) * 7, abs=1e-12)
    assert int(rows[-1][3]) == 6             # multiplicity of -1 is N-2

    code, out, _ = run_cli(capsys, "spectrum", "--pqr", "0.75", "0.25", "0",
                           "--cutoff", "8")
    assert code == 0
    _, rows = read_csv(out)
    assert int(rows[-1][3]) == 8             # r = 0 flips it to N


@pytest.mark.parametrize("argv, minus_one", [
    (["4", "6", "3"], 0),
    (["--pqr", "0.45", "0.44", "0.11"], 0),
    (["3", "4", "3"], 2),                   # a tree, r = 0
], ids=["S463", "pqr", "tree"])
def test_spectrum_at_cutoff_two_prints_only_its_eigenvalues(capsys, argv, minus_one):
    # U_2 has 3N - 1 = 5 eigenvalues: 1, conjugate pairs and, when r = 0,
    # -1 twice; a -1 it does not have gets no row
    code, out, _ = run_cli(capsys, "spectrum", *argv, "--cutoff", "2")
    assert code == 0
    _, rows = read_csv(out)
    multiplicities = [int(r[3]) for r in rows]
    assert min(multiplicities) > 0 and sum(multiplicities) == 5
    assert sum(int(r[3]) for r in rows if float(r[1]) == -1.0) == minus_one


def test_spectrum_with_float_equal_eigenvalues(capsys):
    # c = 1 (p = q): T_N has one eigenvalue near xi = -1/3 localized at the
    # root and one at the cutoff end, equal to the last bit at N = 300
    N = 300
    code, out, err = run_cli(capsys, "spectrum", "1", "4", "1", "--cutoff", str(N))
    assert code == 0 and err == ""
    _, rows = read_csv(out)
    thetas = np.array([float(r[0]) for r in rows[1:-1] if float(r[2]) > 0])
    p, q, r = 0.25, 0.25, 0.5
    lam = scipy.linalg.eigvalsh_tridiagonal(
        np.r_[0.0, np.full(N - 1, r), 0.0],
        np.r_[np.sqrt(q), np.full(N - 2, np.sqrt(p * q)), np.sqrt(p)])
    want = np.sort(np.arccos(lam[:-1]))        # all but 1; -1 is none when r > 0
    assert len(thetas) == len(want) == N
    assert np.max(np.abs(thetas - want)) < 1e-10


def test_amplitude(capsys):
    code, out, _ = run_cli(capsys, "amplitude", "4", "6", "3", "--nmax", "20")
    assert code == 0
    _, rows = read_csv(out)
    assert len(rows) == 21
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-10)
    assert all(float(r[3]) < 1e-12 for r in rows)
    # a far stratum under an atom: the integral's atom term is the closed form
    code, out, _ = run_cli(capsys, "amplitude", "1", "7", "1", "--l", "30", "--nmax", "60")
    assert code == 0
    _, rows = read_csv(out)
    assert len(rows) == 61 and all(float(r[3]) < 1e-12 for r in rows)


# far strata and narrow bands, where the integral once printed 0.7126 for 1,
# inf, or answers 1e-8 off, or ran out of memory at l = 100000; now within
# ~2e-15, which takes sin(k phi) reduced in integers and theta from 1 - x
@pytest.mark.parametrize("argv", [
    ["4", "6", "3", "--l", "300", "--m", "300", "--nmax", "0"],
    ["1", "1000000", "3", "--l", "30", "--m", "30", "--nmax", "60"],
    ["2", "50", "3", "--l", "150", "--m", "40", "--nmax", "120"],
    ["1", "100000000", "3", "--l", "10", "--m", "4", "--nmax", "20"],
    ["1", "1000000000", "7", "--l", "10", "--m", "4", "--nmax", "20"],
    ["4", "6", "3", "--l", "100000", "--nmax", "0"],
    ["4", "6", "4", "--l", "100000", "--nmax", "0"],      # no atom
    ["4", "6", "5", "--l", "100000", "--nmax", "0"],      # a tree
], ids=" ".join)
def test_amplitude_across_the_plane(capsys, argv):
    code, out, _ = run_cli(capsys, "amplitude", *argv)
    assert code == 0
    rows = np.array(read_csv(out)[1], dtype=float)
    b, c = int(argv[1]), int(argv[2])
    l, m, nmax = (int(argv[argv.index(flag) + 1]) if flag in argv else 0
                  for flag in ("--l", "--m", "--nmax"))
    want = chebyshev_amplitudes((Fraction(c, b), Fraction(1, b), Fraction(b - c - 1, b)),
                                l, m, nmax)
    assert np.max(np.abs(rows[:, 1] - want)) < 1e-14
    assert np.max(rows[:, 3]) < 1e-14


def test_amplitude_reads_stratum_l_only(capsys, monkeypatch):
    # the reduced column comes from the three cells at stratum l, not from a
    # copy of the whole state; a stratum the walk never reaches reads 0
    monkeypatch.setattr(ReducedEvolver, "state", lambda self: pytest.fail("state() ran"))
    code, out, _ = run_cli(capsys, "amplitude", "5", "6", "4", "--l", "2", "--m", "1",
                           "--nmax", "30")
    assert code == 0 and len(read_csv(out)[1]) == 31
    code, out, _ = run_cli(capsys, "amplitude", "4", "6", "3", "--l", "50", "--nmax", "3")
    assert code == 0
    assert [r[2] for r in read_csv(out)[1]] == ["0"] * 4


def test_localize_single_and_sweep(capsys):
    code, out, _ = run_cli(capsys, "localize", "4", "6", "3")
    assert code == 0
    _, rows = read_csv(out)
    assert rows[0][3] == "true"
    assert float(rows[0][7]) == 0.125

    code, out, _ = run_cli(capsys, "localize", "10", "12", "9")
    _, rows = read_csv(out)
    assert rows[0][3] == "false"

    code, out, _ = run_cli(capsys, "localize", "--sweep", "12", "11")
    assert code == 0
    _, rows = read_csv(out)
    for row in rows:
        b, c = int(row[1]), int(row[2])
        assert (row[3] == "true") == (b > c + math.sqrt(c))

    code, out, _ = run_cli(capsys, "localize", "--sweep", "2", "1")
    assert code == 0 and len(read_csv(out)[1]) == 1


@pytest.mark.parametrize("bmax, cmax", [(90, 60), (9800, 1)])
def test_sweep_rows_are_the_classify_rows(capsys, bmax, cmax):
    # (90, 60) crosses (b - c)^2 = c at every c; (9800, 1) passes b - c = 8192,
    # from where qbar's denominator 2 (b - c)^2 (b - c + 1)^2 no longer fits a
    # double
    sweep = ["localize", "--sweep", str(bmax), str(cmax)]
    code, out, _ = run_cli(capsys, *sweep)
    assert code == 0
    header, rows = read_csv(out)
    code, out, _ = run_cli(capsys, *sweep, "--format", "json")
    assert code == 0
    records = json.loads(out)
    bc = [(b, c) for b in range(2, bmax + 1) for c in range(1, min(b - 1, cmax) + 1)]
    assert len(rows) == len(records) == len(bc)
    verdicts = set()
    for row, record, (b, c) in zip(rows, records, bc):
        rep = classify(SpidernetParams(1, b, c))
        cells = [1, b, c, rep.localized, float(rep.w), float(rep.xi), rep.theta,
                 float(rep.qbar_origin)]
        assert row == [csv_text(v) for v in cells], (b, c)
        assert record == {k: json_value(v) for k, v in zip(header, cells)}, (b, c)
        verdicts.add(rep.localized)
    assert verdicts == {True, False}


def test_sweep_theta_is_classify_theta_for_every_reachable_gap():
    # --sweep BMAX 1 reaches every b - c = 1 .. BMAX - 1 in BMAX - 1 rows, and
    # no sweep within MAX_SWEEP_ROWS reaches a larger b - c; the bulk arccos
    # must agree with classify's scalar one on each of them
    bmax = cli.MAX_SWEEP_ROWS + 1
    rows = cli._sweep_rows(bmax, 1)
    assert [row[1] - row[2] for row in rows] == list(range(1, bmax))
    for k, row in enumerate(rows, start=1):
        xi = float(Fraction(-1, k))
        assert (row[5], row[6]) == (xi, float(np.arccos(xi))), k


def test_figure2(capsys):
    code, out, _ = run_cli(capsys, "figure2")
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["n", "p_origin", "envelope", "qbar"]
    assert len(rows) == 31
    assert [int(r[0]) for r in rows] == list(range(620, 651))
    assert all(float(r[3]) == 0.125 for r in rows)
    # at interior local maxima of the envelope the samples sit on the curve
    env = [float(r[2]) for r in rows]
    for k in range(1, 30):
        if env[k] >= env[k - 1] and env[k] >= env[k + 1]:
            assert abs(float(rows[k][1]) - env[k]) < 0.02


def test_rwalk(capsys):
    code, out, _ = run_cli(capsys, "rwalk", "3", "4", "3", "--nmax", "40")
    assert code == 0
    _, rows = read_csv(out)
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-10)
    assert abs(float(rows[40][1])) < abs(float(rows[10][1]))


def test_verify(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    _, rows = read_csv(out)
    assert all(r[1] == "true" for r in rows)
    # the two rows that compute the paper's localization theorems inline,
    # against the oracles
    detail = {name: text for name, _, text in rows}
    p463 = PqParams(0.5, 1.0 / 6.0, 1.0 / 3.0)
    amps, law = origin_amplitude_series(p463, 400), law_from_pq(p463)
    worst = max(abs(amps[n] - asymptotic_amplitude(law, 0, n)) for n in range(350, 401))
    assert detail["asymptotic_amplitude"] == f"max |amp - wp(xi)cos| {worst:.2e} on [350,400]"
    bound = float(stratum_bound(SpidernetParams(4, 6, 3), 1))
    assert detail["exp_bound"] == f"stratum bound l=1 is {bound:.12g}"


def test_verify_checks_the_spectrum_it_ships(monkeypatch):
    # the true S(4,6,3), N = 8 spectrum with one theta moved by 1e-6, past
    # the root certificate: the cutoff_spectrum check must fail
    solve = verify.u_eigensystem

    def moved(params, cutoff):
        system = solve(params, cutoff)
        system.thetas[3] += 1e-6
        return system

    monkeypatch.setattr(verify, "u_eigensystem", moved)
    passed, detail = dict(verify._CHECKS)["cutoff_spectrum"]()
    assert not passed, detail


def test_deterministic_output(capsys):
    _, first, _ = run_cli(capsys, "amplitude", "4", "6", "3", "--nmax", "5")
    _, second, _ = run_cli(capsys, "amplitude", "4", "6", "3", "--nmax", "5")
    assert first == second


def test_error_reporting(capsys):
    code, out, err = run_cli(capsys, "localize", "2", "1", "1")
    assert code == 1 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "InvalidParamsError"

    code, _, err = run_cli(capsys, "simulate", "3", "4", "2", "--steps", "2", "--full")
    assert code == 1
    assert json.loads(err)["error"] == "UnrealizableWiringError"

    # a b c missing, or only part of it, where --pqr is the alternative
    for argv in (["spectrum", "--cutoff", "4"], ["spectrum", "--cutoff", "10"],
                 ["amplitude", "4", "6", "--nmax", "3"], ["rwalk", "--nmax", "3"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "InvalidParamsError", argv
        assert "a b c or --pqr" in payload["message"], argv

    # non-finite parameters are rejected up front, not deep inside scipy
    code, _, err = run_cli(capsys, "spectrum", "--pqr", "0.5", "0.5", "nan", "--cutoff", "4")
    assert code == 1
    assert json.loads(err)["error"] == "ParamsOutOfRangeError"


@pytest.mark.parametrize("argv", [
    ["simulate", "4", "6", "3"],
    ["simulate", "4", "6", "x", "--steps", "3"],
    ["bogus"],
    [],
    ["rwalk", "--pqr", "0.5", "0.3", "--nmax", "3"],
    ["localize", "4", "6", "3", "--format", "xml"],
], ids=" ".join)
def test_usage_errors_are_one_json_line(capsys, argv):
    # argparse's own errors take the same path as every other error
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "InvalidParamsError"


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as done:
        main(["simulate", "--help"])
    assert done.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: spiderwalk simulate") and captured.err == ""


@pytest.mark.parametrize("argv", [[name, "-h"] for name in cli._SUBCOMMANDS] + [
    ["simulate", "4", "6", "3"],
    ["simulate", "4", "6", "x", "--steps", "3"],
    ["simulate", "4", "6", "3", "--steps", "2", "--bogus"],
    ["simulate", "4", "6", "3", "--steps", "2", "--full", "--reduced"],
    ["simulate", "4", "6", "3", "--steps", "2", "--s", "1"],
    ["spectrum", "4", "6", "3"],
    ["amplitude", "4", "6", "3", "--nmax"],
    ["localize", "4", "6", "3", "--format", "xml"],
    ["localize", "--sweep", "4"],
    ["rwalk", "--pqr", "0.5", "0.3", "--nmax", "3"],
    ["figure2", "extra"],
    ["verify", "-o"],
    ["bogus"],
    ["-h"],
    [],
], ids=" ".join)
def test_one_subcommand_parser_answers_as_the_full_one(capsys, monkeypatch, argv):
    # main builds only the subparser that argv[0] names; its help and its
    # usage errors are those of the parser of every subcommand
    def full_parser():
        try:
            cli._build_parser().parse_args(argv)
        except SystemExit as done:
            return done.code, capsys.readouterr().out, ""
        except spiderwalk.errors.InvalidParamsError as exc:
            return 1, "", json.dumps({"error": "InvalidParamsError", "message": str(exc)}) + "\n"
        raise AssertionError(f"{argv} parsed")

    built, build_parser = [], cli._build_parser

    def build(command=None):
        built.append(command)
        return build_parser(command)

    monkeypatch.setattr(cli, "_build_parser", build)
    try:
        code = main(argv)
    except SystemExit as done:
        code = done.code
    captured = capsys.readouterr()
    assert built == [argv[0] if argv and argv[0] in cli._SUBCOMMANDS else None]
    assert (code, captured.out, captured.err) == full_parser()


@pytest.mark.parametrize("argv", [
    ["simulate", "4", "6", "3", "--steps", "-3"],
    ["simulate", "4", "6", "3", "--steps", "4", "--strata", "-2"],
    ["rwalk", "4", "6", "3", "--nmax", "-1"],
    ["amplitude", "4", "6", "3", "--nmax", "-1"],
    ["amplitude", "4", "6", "3", "--l", "-1", "--nmax", "2"],
    ["amplitude", "4", "6", "3", "--m", "-1", "--nmax", "2"],
], ids=["simulate-steps", "simulate-strata", "rwalk-nmax", "amplitude-nmax", "amplitude-l",
        "amplitude-m"])
def test_negative_counts_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "InvalidParamsError"


@pytest.mark.parametrize("argv", [
    ["--steps", "18", "--strata", "18"],
    ["--steps", "40"],
], ids=["18", "40"])
def test_oversized_full_rejected_before_allocation(capsys, argv):
    # the graph is built out to the light cone of the printed strata: radius
    # 18 and 3.1e9 half-edges (23 GiB per int64 half-edge array) when all 18
    # are printed; radius 24 of 40 steps for the default 6, stratum sizes
    # past int64 at radius 40
    assert_refused_early(capsys, "InvalidParamsError",
                         "simulate", "4", "6", "3", *argv, "--full")


def test_full_route_builds_only_the_light_cone(capsys):
    # the origin column of 18 steps needs radius 10, 472 384 half-edges
    # (~29 MiB peak); radius 11 would take three times that, and radius 18
    # the 3.1e9 half-edges refused above
    argv = ["simulate", "4", "6", "3", "--steps", "18", "--strata", "0"]
    tracemalloc.start()
    try:
        code, full_out, _ = run_cli(capsys, *argv, "--full")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 48 << 20
    code, red_out, _ = run_cli(capsys, *argv, "--reduced")
    assert code == 0
    full_header, full_rows = read_csv(full_out)
    red_header, red_rows = read_csv(red_out)
    assert full_header == red_header == ["n", "p_origin"]
    assert len(full_rows) == len(red_rows) == 19
    for fr, rr in zip(full_rows, red_rows):
        assert fr[0] == rr[0] and abs(float(fr[1]) - float(rr[1])) < 1e-12


def test_full_route_coins_only_the_light_cone(capsys, monkeypatch):
    # simulate --steps 10 prints strata 0..6 from radius 9; the last step
    # writes the half-edges leaving strata <= 6 and so coins strata <= 7,
    # not the 9 that can hold amplitude
    evolvers = []

    class Recorder(cli.GraphEvolver):
        def step(self):
            evolvers.append(self)
            self.before = self._coined.copy()
            super().step()

    monkeypatch.setattr(cli, "GraphEvolver", Recorder)
    code, _, _ = run_cli(capsys, "simulate", "4", "6", "3", "--steps", "10", "--full")
    ev = evolvers[-1]
    ends = ev.g.half_edge_offsets[1:]
    assert code == 0 and ev.g.radius == 9 and len(evolvers) == 10
    assert not np.array_equal(ev._coined[ends[6]:ends[7]], ev.before[ends[6]:ends[7]])
    assert np.array_equal(ev._coined[ends[7]:], ev.before[ends[7]:])


@pytest.mark.parametrize("argv", [
    ["--steps", "2", "--strata", "1000000"],
    ["--steps", "1000000000"],
    ["--steps", "1000000000", "--strata", "0"],
    ["--steps", "2", "--strata", "1000000", "--full"],
], ids=["wide", "long", "long-no-strata", "wide-full"])
def test_oversized_table_rejected_before_allocation(capsys, argv):
    # the table, the reduced walk's arrays and its read buffer all grow
    # with (steps + 1) (strata + 2)
    assert_refused_early(capsys, "InvalidParamsError", "simulate", "4", "6", "3", *argv)


def test_table_at_the_cap_is_answered(capsys):
    steps, strata = 9, cli.MAX_TABLE_CELLS // 10 - 2
    code, out, _ = run_cli(capsys, "simulate", "4", "6", "3", "--steps", str(steps),
                           "--strata", str(strata))
    header, rows = read_csv(out)
    assert code == 0 and len(rows) * len(header) == cli.MAX_TABLE_CELLS
    code, _, err = run_cli(capsys, "simulate", "4", "6", "3", "--steps", str(steps),
                           "--strata", str(strata + 1))
    assert code == 1 and json.loads(err)["error"] == "InvalidParamsError"


def test_number_rows_print_as_the_csv_writer_does(capsys):
    # one kind per column: repeated values, bools, ints, zeros of both signs,
    # NaN and np.float64 beside float, and strs that need quotes
    floats = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e300, -sys.float_info.max,
              math.inf, -math.inf,
              math.nan, 0.1, 1 / 3, 1e-05, 123456789012345.67, 3757728834966915.5,
              np.float64(-2 / 3), np.float64(-0.0)]
    texts = ["x", "x,y", 'say "q"', "two\nlines", "", " pad ", "a;b", "\u00e9", "\\",
             "{}[]", "},\n    {", "}"]
    table = [[i % 3 - 1, 2 ** 70 + i % 2, i % 4 == 0, floats[i % len(floats)],
              [math.nan, 0.1, np.float64(0.1), -1e300][i % 4], float(i), texts[i % len(texts)]]
             for i in range(60)]
    columns = ["a", "b", "c,d", "e", "f", "g", "h"]
    for fmt in ("csv", "json"):
        cli._emit(columns, table, cli._build_parser().parse_args(["verify", "--format", fmt]))
        assert capsys.readouterr().out == reference_table(columns, table, fmt)


CELLS = {"float": st.floats(), "int": st.integers(), "bool": st.booleans(), "str": st.text()}


@st.composite
def tables(draw):
    """Column names and 1-6 rows of 2-5 columns, each of one kind of cell."""
    kinds = draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=2, max_size=5))
    names = draw(st.lists(st.text(), min_size=len(kinds), max_size=len(kinds), unique=True))
    n_rows = draw(st.integers(1, 6))
    columns = [draw(st.lists(CELLS[kind], min_size=n_rows, max_size=n_rows)) for kind in kinds]
    return names, [list(row) for row in zip(*columns)]


@given(tables(), st.sampled_from(["csv", "json"]))
@example((["x", "y%s"], [[3757728834966915.5, 5e-324], [-0.0, math.nan],
                         [sys.float_info.max, 1.0]]), "json")
def test_drawn_tables_print_as_the_reference_formatter(table, fmt):
    # every float, NaN, infinities, zeros and subnormals among them, any int
    # and any text, through both formats
    names, rows = table
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._emit(names, rows, cli._build_parser().parse_args(["verify", "--format", fmt]))
    assert out.getvalue() == reference_table(names, rows, fmt)


@pytest.mark.parametrize("cutoff", ["4097", "1000000000"])
def test_oversized_cutoff_rejected_before_allocation(capsys, cutoff):
    # the eigenvectors of T_N alone would take 8 (N+1)^2 bytes
    assert_refused_early(capsys, "InvalidParamsError",
                         "spectrum", "4", "6", "3", "--cutoff", cutoff)


@pytest.mark.parametrize("argv", [
    ["spectrum", "4", "6", "3", "--pqr", "0.75", "0.25", "0", "--cutoff", "3"],
    ["spectrum", "4", "6", "--pqr", "0.75", "0.25", "0", "--cutoff", "3"],
    ["localize", "4", "6", "3", "--sweep", "3", "1"],
], ids=["abc-and-pqr", "partial-abc-and-pqr", "abc-and-sweep"])
def test_conflicting_inputs_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "InvalidParamsError"


def test_spectrum_fails_on_a_bad_eigenpair(capsys, shifted_root):
    code, out, err = run_cli(capsys, "spectrum", "4", "6", "3", "--cutoff", "8")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ConvergenceFailureError"


def test_spectrum_fails_on_a_miscounted_band(capsys, miscounted):
    code, out, err = run_cli(capsys, "spectrum", "4", "6", "3", "--cutoff", "8")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ConvergenceFailureError"


@pytest.mark.parametrize("abc, cutoff", [(["1", str(10**12), "3"], "400"),
                                         (["1", str(10**15), "7"], "4096")])
def test_spectrum_resolves_eigenvalues_closer_than_two_ulps(capsys, abc, cutoff):
    # neighbouring eigenvalues of T_N lie less than 2 ulps apart in x, but
    # ~pi/N apart in the band angle: every theta matches LAPACK's, within
    # test_spectrum's bound and the 15 printed digits
    code, out, err = run_cli(capsys, "spectrum", *abc, "--cutoff", cutoff)
    assert code == 0 and err == ""
    _, rows = read_csv(out)
    thetas = np.array([float(r[0]) for r in rows[1:-1] if float(r[2]) > 0])
    want, exact, _ = lapack_thetas(params_from_spidernet(SpidernetParams(*map(int, abc))), int(cutoff))
    assert thetas.shape == want.shape
    ulp = np.spacing(np.abs(np.cos(want))) / np.sin(want)
    assert np.all((np.abs(thetas - want) <= 1e-13 + ulp + 1e-14 * want)[exact])
    assert np.all(np.abs(np.cos(thetas) - np.cos(want)) <= 1e-13)


def test_no_subcommand_imports_scipy():
    # scipy is a test dependency: a lazy import would only move its start-up
    # cost into a command's compute time
    script = textwrap.dedent("""
        import contextlib, io, sys
        import spiderwalk.cli as cli
        for argv in (["spectrum", "4", "6", "3", "--cutoff", "800"],
                     ["spectrum", "--pqr", "0.75", "0.25", "0", "--cutoff", "3"],
                     ["verify"],
                     ["amplitude", "4", "6", "3", "--nmax", "20"],
                     ["simulate", "4", "6", "3", "--steps", "10", "--full"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(README.parent / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_readme_examples_are_current(capsys):
    # every "$ spiderwalk ..." line of the README's example block, followed
    # by its output up to the next blank line or the end of the block
    text = README.read_text()
    block = text.split("Examples:\n\n```text\n", 1)[1].split("```", 1)[0]
    examples = block.strip("\n").split("\n\n")
    assert len(examples) == 4
    for example in examples:
        command, expected = example.split("\n", 1)
        assert command.startswith("$ spiderwalk ")
        code, out, err = run_cli(capsys, *command.split()[2:])
        assert code == 0 and err == ""
        assert out == expected + "\n", command


@pytest.mark.parametrize("command", ["amplitude", "rwalk"])
def test_pole_near_the_support_answered_in_small_memory(capsys, command):
    # p - q = 1e-8 puts a pole of 1/D ~1e-8 from the support in phi; the
    # pole nodes keep the rule at floor(n / 2) + 2 nodes.  For n <= 3 the
    # moments and <e_0, T_n(J) e_0> are 1, 0, q and q r (resp. 2q - 1, 4qr)
    tracemalloc.start()
    try:
        code, out, _ = run_cli(capsys, command, "--pqr", "0.5", "0.49999999", "0.00000001",
                               "--nmax", "3")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and peak < 1 << 20
    got = np.array(read_csv(out)[1], dtype=float)[:, 1]
    q, r = Fraction(49999999, 10 ** 8), Fraction(1, 10 ** 8)
    want = [1, 0, q, q * r] if command == "rwalk" else [1, 0, 2 * q - 1, 4 * q * r]
    assert np.max(np.abs(got - np.array(want, dtype=float))) < 1e-15


# S(1, k^2 + k + d, k^2) for k = 59414673, d = 1 and k = 2^27 - 1, d = 1, 0,
# where the floats (c/b, 1/b) no longer determine (b, c).  One step off the
# threshold the atom's pole lies ~d/k from the band in phi; on it the pole
# is removable and there is no atom.  Rows are <e_0, J^n e_0> = <e_0, T_n(J) e_0>
@pytest.mark.parametrize("argv", [
    ["rwalk", "1", "3530103427111603", "3530103367696929", "--nmax", "0"],
    ["rwalk", "1", "18014398375264257", "18014398241046529", "--nmax", "1"],
    ["amplitude", "1", "18014398375264257", "18014398241046529", "--nmax", "1"],
    ["rwalk", "1", "18014398375264256", "18014398241046529", "--nmax", "1"],
    ["amplitude", "1", "18014398375264256", "18014398241046529", "--nmax", "1"],
], ids=["rwalk-off-2^51", "rwalk-off-2^54", "amplitude-off-2^54", "rwalk-on-2^54",
        "amplitude-on-2^54"])
def test_large_b_near_the_threshold_keeps_the_total_mass(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    got = np.array(read_csv(out)[1], dtype=float)[:, 1]
    b, c = int(argv[2]), int(argv[3])
    want = chebyshev_amplitudes((Fraction(c, b), Fraction(1, b), Fraction(b - c - 1, b)),
                                0, 0, int(argv[-1]))
    assert abs(got[0] - 1.0) < 1e-13 and np.max(np.abs(got - want)) < 1e-13


def test_readme_library_example_runs():
    # the README's python block: three routes to one origin probability
    block = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(block, scope)
    values = [scope[name] for name in ("p_full", "p_reduced", "p_integral")]
    assert max(values) - min(values) < 1e-12
    claimed = re.search(r"# all three: (\d+\.\d+)", block).group(1)
    assert all(f"{v:.16g}".startswith(claimed) for v in values)


# every law integrates degrees up to 2097149 within MAX_QUADRATURE_NODES
@pytest.mark.parametrize("argv", [
    ["amplitude", "4", "6", "3", "--nmax", "3000000"],
    ["amplitude", "4", "6", "3", "--l", "2", "--m", "1", "--nmax", "2097147"],
    # Psi_l or Psi_m alone would take 3 x 16 bytes per stratum: route 2
    # would allocate ~144 MB before route 3 refused
    ["amplitude", "4", "6", "3", "--m", "3000000", "--nmax", "1"],
    ["amplitude", "4", "6", "3", "--l", "3000000", "--nmax", "1"],
    ["rwalk", "4", "6", "3", "--nmax", "3000000"],
], ids=["amplitude", "amplitude-l-m", "amplitude-m", "amplitude-l", "rwalk"])
def test_quadrature_budget_checked_before_any_integral(capsys, monkeypatch, argv):
    quadrature_nodes(2097149)
    with pytest.raises(ParamsOutOfRangeError):
        quadrature_nodes(2097150)
    # no rule may be built, and route 2 may not run before route 3 refuses
    monkeypatch.setattr(meixner, "_rule", lambda *args: pytest.fail("a rule was built"))
    monkeypatch.setattr(cli, "origin_amplitude_series", lambda *args: pytest.fail("route 2 ran"))
    assert_refused_early(capsys, "ParamsOutOfRangeError", *argv)


@pytest.mark.parametrize("sweep", [["1", "5"], ["5", "0"], ["-3", "-3"]])
def test_empty_sweep_rejected(capsys, sweep):
    code, out, err = run_cli(capsys, "localize", "--sweep", *sweep)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "InvalidParamsError"


# --sweep 448 447 has 100 128 rows; 10**18 would ask for ~5e35
@pytest.mark.parametrize("sweep", [["448", "447"], [str(10 ** 18)] * 2])
def test_oversized_sweep_rejected_before_classifying(capsys, monkeypatch, sweep):
    monkeypatch.setattr(cli, "_sweep_rows", lambda *bounds: pytest.fail("the sweep ran"))
    assert_refused_early(capsys, "InvalidParamsError", "localize", "--sweep", *sweep)


def test_output_file_and_env_dir(tmp_path, monkeypatch, capsys):
    target = tmp_path / "direct.csv"
    code, out, _ = run_cli(capsys, "rwalk", "4", "6", "3", "--nmax", "2",
                           "-o", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("n,return_probability")

    monkeypatch.setenv("SPIDERWALK_OUTPUT_DIR", str(tmp_path))
    code, _, _ = run_cli(capsys, "rwalk", "4", "6", "3", "--nmax", "2",
                         "-o", "nested.csv")
    assert code == 0
    assert (tmp_path / "nested.csv").read_text() == target.read_text()


@pytest.mark.parametrize("env_dir, output", [
    (None, "missing/out.csv"),
    (None, "."),
    ("missing", "y.csv"),
], ids=["missing-dir", "directory", "env-missing-dir"])
def test_unwritable_output_refused_before_the_command_runs(capsys, monkeypatch, tmp_path,
                                                           env_dir, output):
    # a missing directory, a directory, and $SPIDERWALK_OUTPUT_DIR missing
    if env_dir is None:
        output = str(tmp_path / output)
    else:
        monkeypatch.setenv("SPIDERWALK_OUTPUT_DIR", str(tmp_path / env_dir))
    monkeypatch.setattr(cli, "random_walk_return_series", lambda *args: pytest.fail("rwalk ran"))
    assert_refused_early(capsys, "InvalidParamsError",
                         "rwalk", "4", "6", "3", "--nmax", "2", "-o", output)


def test_failed_write_is_one_json_line(capsys, monkeypatch, tmp_path):
    # the directory goes away while the command runs: the write itself fails
    target = tmp_path / "gone"
    target.mkdir()
    series = cli.random_walk_return_series

    def remove_then_run(*args):
        target.rmdir()
        return series(*args)

    monkeypatch.setattr(cli, "random_walk_return_series", remove_then_run)
    code, out, err = run_cli(capsys, "rwalk", "4", "6", "3", "--nmax", "2",
                             "-o", str(target / "y.csv"))
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "InvalidParamsError"


def test_json_format(capsys):
    _, csv_out, _ = run_cli(capsys, "localize", "4", "6", "3")
    code, json_out, _ = run_cli(capsys, "localize", "4", "6", "3",
                                "--format", "json")
    assert code == 0
    records = json.loads(json_out)
    assert len(records) == 1
    rec = records[0]
    assert rec["localized"] is True
    assert rec["qbar_origin"] == 0.125
    _, rows = read_csv(csv_out)
    assert rec["theta"] == pytest.approx(float(rows[0][6]), abs=1e-14)


@pytest.mark.parametrize("argv", [
    ["rwalk", "1", "18014398509481985", "18014398509481984", "--nmax", "2"],
    ["amplitude", "1", "36028797018963970", "36028797018963968", "--nmax", "2"],
    ["rwalk", "--pqr", "1", "1e-300", "0", "--nmax", "2"],
    ["rwalk", "--pqr", "0.4", "5e-324", "0.6", "--nmax", "1"],
    ["amplitude", "--pqr", "1e-200", "1e-200", "1", "--nmax", "1"],
    ["spectrum", "--pqr", "1e-200", "1e-200", "1", "--cutoff", "4"],
], ids=["c=b-1", "c=b-2", "pqr", "pq-underflow-rwalk", "pq-underflow-amplitude",
        "pq-underflow-spectrum"])
def test_one_minus_p_rounding_to_zero_is_refused(capsys, argv):
    # p = c/b rounds to 1 once b >= 2**54 (b - c): the atom xi = -q/(1-p) has
    # no value; and a pq that underflows to 0 leaves the band no width
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "ParamsOutOfRangeError"


@pytest.mark.parametrize("argv", [
    ["rwalk", "1", str(10 ** 400), "1", "--nmax", "2"],
    ["simulate", "1", str(10 ** 400), "1", "--steps", "2"],
    ["amplitude", "1", str(10 ** 400), "1", "--nmax", "2"],
    ["spectrum", "1", str(10 ** 400), "1", "--cutoff", "4"],
    ["rwalk", "1", str(2 ** 1024 - 2 ** 970), "1", "--nmax", "2"],
], ids=["rwalk", "simulate", "amplitude", "spectrum", "rwalk-rounds-to-2^1024"])
def test_b_past_the_largest_float_is_refused(capsys, argv):
    # q = 1/b has no float once b rounds to 2**1024 or more
    assert_refused_early(capsys, "ParamsOutOfRangeError", *argv)


EVERY_COMMAND = [
    ["simulate", "4", "6", "3", "--steps", "3"],
    ["simulate", "4", "6", "3", "--steps", "3", "--full"],
    ["spectrum", "4", "6", "3", "--cutoff", "4"],
    ["amplitude", "4", "6", "3", "--l", "1", "--nmax", "3"],
    ["localize", "4", "6", "3"],
    ["localize", "--sweep", "4", "3"],
    ["figure2"],
    ["rwalk", "4", "6", "3", "--nmax", "3"],
    ["verify"],
]


def command_table(argv):
    """The column names and rows that ``argv``'s command returns to main,
    which must exit 0."""
    args = cli._build_parser().parse_args(argv)
    columns, rows, *status = args.func(args)
    assert status in ([], [0])
    return columns, rows


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=" ".join)
def test_each_command_returns_the_table_main_prints(capsys, argv):
    # the command writes nothing itself; main prints what it returns
    columns, rows = command_table(argv)
    assert capsys.readouterr() == ("", "")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and read_csv(out) == (columns, [[csv_text(v) for v in row] for row in rows])


def test_verify_prints_its_table_and_exits_1_when_a_check_fails(capsys, monkeypatch):
    checks = list(verify._CHECKS)
    checks[2] = (checks[2][0], lambda: (False, "forced"))
    monkeypatch.setattr(verify, "_CHECKS", checks)
    code, out, err = run_cli(capsys, "verify")
    assert code == 1 and err == ""
    header, rows = read_csv(out)
    assert header == ["check", "passed", "detail"] and len(rows) == len(checks)
    assert [row[1] for row in rows] == ["false" if k == 2 else "true" for k in range(len(rows))]
    assert rows[2][2] == "forced"


@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=" ".join)
def test_cells_are_the_scalars_the_formatters_handle(argv):
    _, rows = command_table(argv)
    assert rows and len(set(map(len, rows))) == 1
    # each column holds one kind of cell that _emit prints: floats
    # (np.float64 among them), bools, ints or strs
    kinds = [{float if isinstance(v, float) else type(v) for v in column} for column in zip(*rows)]
    assert all(len(kind) == 1 and kind <= {float, bool, int, str} for kind in kinds), kinds


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", EVERY_COMMAND, ids=" ".join)
def test_every_table_prints_as_the_reference_formatter(capsys, argv, fmt):
    columns, rows = command_table(argv)
    code, out, _ = run_cli(capsys, *argv, "--format", fmt)
    assert code == 0
    assert out == reference_table(columns, rows, fmt)


@st.composite
def cli_parameters(draw):
    """``a b c`` with b log-uniform up to 2**62 and c at the ends, the middle
    and the localization threshold floor(b - sqrt(b)) of 1 .. b - 1, or an
    edge ``--pqr`` triple."""
    if draw(st.integers(0, 7)) == 0:
        return ["--pqr", *draw(st.sampled_from(
            [("1", "1e-300", "0"), ("0.5", "0.5", "0"), ("0.4", "0.4", "0.2")]))]
    k = draw(st.integers(1, 62))
    b = draw(st.integers(max(2, 1 << (k - 1)), 1 << k))
    cs = {1, 2, b - 2, b - 1, b // 2, b - math.isqrt(b - 1) - 1}
    c = draw(st.sampled_from(sorted(c for c in cs if 1 <= c <= b - 1)))
    return [str(draw(st.integers(1, 8))), str(b), str(c)]


@settings(max_examples=25)
@given(cli_parameters())
@example(["1", "18014398509481985", "18014398509481984"])
@example(["1", "36028797018963970", "36028797018963968"])
@example(["--pqr", "1", "1e-300", "0"])
def test_no_exception_escapes_the_error_taxonomy(params):
    # every run prints rows, or exits 1 with one JSON line naming a
    # SpiderwalkError (spectrum's ConvergenceFailureError among them)
    commands = [["rwalk", *params, "--nmax", "2"],
                ["amplitude", *params, "--l", "1", "--m", "1", "--nmax", "2"],
                ["spectrum", *params, "--cutoff", "4"]]
    if params[0] != "--pqr":
        commands += [["localize", *params], ["simulate", *params, "--steps", "3"]]
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code == 0:
            assert len(read_csv(out.getvalue())[1]) >= 1, argv
        else:
            assert code == 1 and out.getvalue() == "", argv
            assert err.getvalue().count("\n") == 1, argv
            error = getattr(spiderwalk.errors, json.loads(err.getvalue())["error"])
            assert issubclass(error, SpiderwalkError), argv
