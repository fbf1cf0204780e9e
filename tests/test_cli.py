import csv
import io
import json
import math

import pytest

from spiderwalk.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


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
    code, full_out, _ = run_cli(capsys, "simulate", "4", "6", "3",
                                "--steps", "8", "--full")
    assert code == 0
    code, red_out, _ = run_cli(capsys, "simulate", "4", "6", "3",
                               "--steps", "8", "--reduced")
    assert code == 0
    _, full_rows = read_csv(full_out)
    _, red_rows = read_csv(red_out)
    for fr, rr in zip(full_rows, red_rows):
        for fv, rv in zip(fr[1:], rr[1:]):
            assert abs(float(fv) - float(rv)) < 1e-10


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


def test_amplitude(capsys):
    code, out, _ = run_cli(capsys, "amplitude", "4", "6", "3", "--nmax", "20")
    assert code == 0
    _, rows = read_csv(out)
    assert len(rows) == 21
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-10)
    assert all(float(r[3]) < 1e-8 for r in rows)


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

    code, _, err = run_cli(capsys, "spectrum", "--cutoff", "4")
    assert code == 1
    assert "message" in json.loads(err)


@pytest.mark.parametrize("argv", [
    ["simulate", "4", "6", "3", "--steps", "-3"],
    ["simulate", "4", "6", "3", "--steps", "4", "--strata", "-2"],
    ["rwalk", "4", "6", "3", "--nmax", "-1"],
    ["amplitude", "4", "6", "3", "--nmax", "-1"],
], ids=["simulate-steps", "simulate-strata", "rwalk-nmax", "amplitude-nmax"])
def test_negative_counts_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "InvalidParamsError"


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
