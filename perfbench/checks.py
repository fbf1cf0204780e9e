"""Output checks for benchmark jobs, against references made in the parent.

Where the benchmark can compute a true value independently it does, so a
more accurate program never fails a check:

* ``amplitude``: <e_l, T_n(J) e_m> by the Chebyshev recurrence on the
  Jacobi matrix J of the spectral law (diagonal 0, r, r, ...;
  off-diagonal sqrt(q), sqrt(pq), ...), in extended precision;
* ``rwalk``: the exact ``Fraction`` moments e_0^T J^n e_0;
* ``spectrum``: arccos of the T_N eigenvalues from scipy, with the exact
  multiplicity of -1 (N - 2, or N when r = 0);
* ``simulate --full``: the reduced route, run in the parent;
* the ladder jobs: seed outputs stored in ``refs.json`` (see
  ``make_refs.py``), on every 100th row and the last ten rows.

Ladder-route and reduced-route values are held to 1e-12 absolute.
Integral-route values (the ``integral`` column and ``rwalk``) are held to
1e-8, the repository's own acceptance bound; their actual error is
returned so the traced run can report it as ``meixner.max_abs_err``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from fractions import Fraction

import numpy as np
import scipy.linalg

LADDER_TOL = 1e-12
INTEGRAL_TOL = 1e-8
THETA_TOL = 1e-10
REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")


class CheckFailed(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    _require(len(rows) >= 1, "empty output")
    return rows[0], rows[1:]


def _floats(rows):
    try:
        out = np.array([[float(v) for v in row] for row in rows], dtype=float)
    except ValueError as exc:
        raise CheckFailed(f"non-numeric output: {exc}") from None
    _require(out.ndim == 2 and len(out) > 0, "no output rows")
    _require(np.all(np.isfinite(out)), "non-finite value in output")
    return out


def _close(got, want, tol, what):
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want)))) if np.size(want) else 0.0
    _require(err <= tol, f"{what}: max abs error {err:.3e} > {tol:.0e}")
    return err


def _pqr_exact(argv):
    """(p, q, r) as Fractions from an ``a b c`` or ``--pqr P Q R`` argv."""
    if "--pqr" in argv:
        i = argv.index("--pqr")
        return tuple(Fraction(v) for v in argv[i + 1:i + 4])
    b, c = int(argv[2]), int(argv[3])
    return Fraction(c, b), Fraction(1, b), Fraction(b - c - 1, b)


def _opt(argv, name, default):
    return int(argv[argv.index(name) + 1]) if name in argv else default


# -- independent references ---------------------------------------------------

def chebyshev_amplitudes(pqr, l, m, nmax):
    """<e_l, T_n(J) e_m> for n = 0..nmax, J the Jacobi matrix of the walk law."""
    p, q, r = (np.longdouble(v.numerator) / np.longdouble(v.denominator) for v in pqr)
    size = nmax + max(l, m) + 2
    diag = np.full(size, r, dtype=np.longdouble)
    diag[0] = 0
    off = np.full(size - 1, np.sqrt(p * q), dtype=np.longdouble)
    off[0] = np.sqrt(q)

    def apply(v):
        out = diag * v
        out[:-1] += off * v[1:]
        out[1:] += off * v[:-1]
        return out

    prev = np.zeros(size, dtype=np.longdouble)
    prev[m] = 1
    cur = apply(prev)
    out = [prev[l], cur[l]]
    for _ in range(nmax - 1):
        prev, cur = cur, 2 * apply(cur) - prev
        out.append(cur[l])
    return np.array(out[:nmax + 1], dtype=float)


def exact_moments(pqr, nmax):
    """e_0^T J^n e_0 for n = 0..nmax, exactly, from the squared off-diagonals."""
    p, q, r = pqr
    size = nmax // 2 + 2
    diag = [Fraction(0)] + [r] * (size - 1)
    sq = [q] + [p * q] * (size - 2)        # sq[k] couples slots k and k+1
    v = [Fraction(0)] * size
    v[0] = Fraction(1)
    out = [v[0]]
    for _ in range(nmax):
        v = [diag[k] * v[k]
             + (sq[k] * v[k + 1] if k + 1 < size else 0)
             + (v[k - 1] if k > 0 else 0) for k in range(size)]
        out.append(v[0])
    return [float(x) for x in out]


def spectrum_thetas(pqr, cutoff):
    """Sorted (theta, multiplicity) rows the ``spectrum`` command must print."""
    p, q, r = (float(v) for v in pqr)
    if abs(r) <= 1e-14:
        r = 0.0
    n = cutoff
    diag = np.r_[0.0, np.full(n - 1, r), 0.0]
    off = np.r_[np.sqrt(q), np.full(n - 2, np.sqrt(p * q)), np.sqrt(p)]
    lam = np.sort(scipy.linalg.eigvalsh_tridiagonal(diag, off))[::-1]
    interior = lam[1:n + 1] if r > 0 else lam[1:n]
    thetas = np.sort(np.arccos(np.clip(interior, -1.0, 1.0)))
    minus_one = n - 2 if r > 0 else n
    return thetas, minus_one


def reduced_probabilities(spiderwalk, argv):
    """Per-step stratum probabilities of ``simulate`` by the reduced route."""
    a, b, c = (int(v) for v in argv[1:4])
    steps = _opt(argv, "--steps", 0)
    strata = _opt(argv, "--strata", min(steps, 6))
    params = spiderwalk.params_from_spidernet(spiderwalk.SpidernetParams(a, b, c))
    ev = spiderwalk.ReducedEvolver(params, spiderwalk.ReducedState.origin(), steps)
    rows = []
    for n in range(steps + 1):
        if n > 0:
            ev.step()
        rows.append([n, ev.origin_probability()]
                    + [ev.stratum_probability(l) for l in range(1, strata + 1)])
    return np.array(rows)


def load_refs():
    with open(REFS_PATH) as fp:
        return json.load(fp)


def ref_key(argv):
    """Key of a ladder job in ``refs.json``: the outputs depend on (b, c) only."""
    if argv[0] == "lib":
        return f"{argv[1]} {argv[3]} {argv[4]}"
    if argv[0] == "simulate":
        return f"simulate {argv[2]} {argv[3]}"
    return argv[0]


# -- per-job checks -------------------------------------------------------------

class Checker:
    """Reference values for one pass's jobs, computed once per run."""

    def __init__(self, spiderwalk, jobs, refs=None):
        self.refs = refs
        self.expect = {}
        for _, argv in jobs:
            key = " ".join(argv)
            if key in self.expect:
                continue
            if argv[0] == "simulate" and "--full" in argv:
                self.expect[key] = reduced_probabilities(spiderwalk, argv)
            elif argv[0] == "amplitude":
                l, m = _opt(argv, "--l", 0), _opt(argv, "--m", 0)
                self.expect[key] = chebyshev_amplitudes(
                    _pqr_exact(argv), l, m, _opt(argv, "--nmax", 0))
            elif argv[0] == "rwalk":
                self.expect[key] = np.array(
                    exact_moments(_pqr_exact(argv), _opt(argv, "--nmax", 0)))
            elif argv[0] == "spectrum":
                self.expect[key] = spectrum_thetas(_pqr_exact(argv),
                                                   _opt(argv, "--cutoff", 0))
            elif argv[0] in ("lib", "simulate", "figure2"):
                if self.refs is None:
                    self.refs = load_refs()
                self.expect[key] = self.refs[ref_key(argv)]

    def check(self, argv, stdout, code):
        """Raise CheckFailed on a miss; return the integral-route error (or None)."""
        _require(code == 0, f"exit code {code}")
        want = self.expect.get(" ".join(argv))
        kind = argv[0]
        if kind == "lib":
            return self._check_library(argv, stdout, want)
        header, rows = parse_csv(stdout)
        if kind == "simulate":
            return self._check_simulate(argv, header, rows, want)
        if kind == "figure2":
            _require(header == ["n", "p_origin", "envelope", "qbar"], f"header {header}")
            got, ref = _floats(rows), np.array(want["rows"])
            _require(got.shape == ref.shape, f"shape {got.shape}, want {ref.shape}")
            _close(got, ref, LADDER_TOL, "figure2")
            return None
        if kind == "amplitude":
            return self._check_amplitude(argv, header, rows, want)
        if kind == "rwalk":
            _require(header == ["n", "return_probability"], f"header {header}")
            got = _floats(rows)
            _require(len(got) == len(want), f"{len(got)} rows, want {len(want)}")
            _require(np.array_equal(got[:, 0], np.arange(len(want))), "n column")
            return _close(got[:, 1], want, INTEGRAL_TOL, "return probability")
        if kind == "spectrum":
            return self._check_spectrum(argv, header, rows, want)
        if kind == "verify":
            _require(header == ["check", "passed", "detail"], f"header {header}")
            _require(len(rows) >= 1, "no checks ran")
            failed = [row[0] for row in rows if row[1] != "true"]
            _require(not failed, f"verify checks failed: {failed}")
            return None
        raise CheckFailed(f"no check for job kind {kind!r}")

    @staticmethod
    def _check_library(argv, stdout, want):
        got = _floats([[v] for v in stdout.split()])[:, 0]
        if argv[1] == "cesaro_strata":
            _require(len(got) == int(argv[6]) + 1, f"{len(got)} strata")
            _close(got, want["values"], LADDER_TOL, "cesaro_strata")
            return None
        nmax = int(argv[5])
        _require(len(got) == nmax + 1, f"{len(got)} amplitudes, want {nmax + 1}")
        _require(np.all(np.abs(got) <= 1 + LADDER_TOL), "amplitude above 1")
        index = np.array(want["n"])
        _close(got[index], want["values"], LADDER_TOL, "origin amplitude series")
        return None

    @staticmethod
    def _check_simulate(argv, header, rows, want):
        steps = _opt(argv, "--steps", 0)
        strata = _opt(argv, "--strata", min(steps, 6))
        _require(header == ["n", "p_origin"] + [f"p_stratum_{l}" for l in range(1, strata + 1)],
                 f"header {header}")
        got = _floats(rows)
        _require(got.shape == (steps + 1, strata + 2), f"shape {got.shape}")
        _require(np.array_equal(got[:, 0], np.arange(steps + 1)), "n column")
        probs = got[:, 1:]
        _require(np.all(probs >= -LADDER_TOL) and np.all(probs.sum(axis=1) <= 1 + LADDER_TOL),
                 "probabilities outside [0, 1]")
        if "--full" in argv:
            _close(got, want, LADDER_TOL, "full vs reduced route")
        else:
            index = np.array(want["n"])
            _close(got[index], np.array(want["rows"]), LADDER_TOL, "stored seed rows")
        return None

    @staticmethod
    def _check_amplitude(argv, header, rows, want):
        _require(header == ["n", "integral", "reduced", "abs_diff"], f"header {header}")
        got = _floats(rows)
        _require(len(got) == len(want), f"{len(got)} rows, want {len(want)}")
        _require(np.array_equal(got[:, 0], np.arange(len(want))), "n column")
        _close(got[:, 2], want, LADDER_TOL, "reduced column")
        _close(got[:, 3], np.abs(got[:, 1] - got[:, 2]), 1e-14, "abs_diff column")
        return _close(got[:, 1], want, INTEGRAL_TOL, "integral column")

    @staticmethod
    def _check_spectrum(argv, header, rows, want):
        thetas, minus_one = want
        _require(header == ["theta", "eig_re", "eig_im", "multiplicity", "trace",
                            "trace_expected"], f"header {header}")
        got = _floats(rows)
        _require(len(got) == 2 * len(thetas) + 2, f"{len(got)} rows, want {2 * len(thetas) + 2}")
        _require(got[0, 0] == 0.0 and got[0, 3] == 1, "eigenvalue 1 row")
        _require(abs(got[-1, 0] - math.pi) <= 1e-14 and got[-1, 3] == minus_one,
                 f"multiplicity of -1 is {got[-1, 3]:g}, want {minus_one}")
        pairs = got[1:-1]
        _require(np.all(pairs[:, 3] == 1), "interior multiplicities")
        _close(pairs[0::2, 0], thetas, THETA_TOL, "theta (+)")
        _close(pairs[1::2, 0], thetas, THETA_TOL, "theta (-)")
        _close(pairs[:, 1], np.cos(pairs[:, 0]), 1e-12, "eig_re")
        _close(np.abs(pairs[:, 2]), np.sin(pairs[:, 0]), 1e-12, "eig_im")
        _require(np.all(pairs[0::2, 2] >= 0) and np.all(pairs[1::2, 2] <= 0), "pair order")
        p, q, r = _pqr_exact(argv)
        cutoff = _opt(argv, "--cutoff", 0)
        trace = float((2 * r - 1) * (cutoff - 1))
        _close(got[:, 4], trace, 1e-9, "trace")
        _close(got[:, 5], trace, 1e-12, "trace_expected")
        return None
