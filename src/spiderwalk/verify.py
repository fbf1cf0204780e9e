"""Built-in cross-validation battery.

A curated set of fast consistency checks spanning every layer of the
package: graph combinatorics, unitarity, agreement of the full walk with
the one-dimensional reduction, agreement of the reduction with the
spectral integral, cutoff spectra, and the closed-form localization
constants.  The cutoff-spectrum check reads the spectrum that the
``spectrum`` subcommand prints: the sum of its eigenvalues must equal the
trace (2r - 1)(N - 1) of U_N.  Each check returns ``(name, passed,
detail)``; the CLI's ``verify`` subcommand prints the table and exits
non-zero if anything fails.
"""

from __future__ import annotations

import numpy as np

from .errors import UnrealizableWiringError
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
    cesaro_strata,
    embed,
    origin_amplitude_series,
    params_from_spidernet,
    u_eigensystem,
)
from .walk import evolve, isotropic_initial_state, vertex_distribution

__all__ = ["run_all"]


def _check_strata_sizes():
    g = build_spidernet(SpidernetParams(4, 6, 3), 4)
    got = [int(s) for s in g.stratum_sizes]
    want = [1, 4, 12, 36, 108]
    return got == want, f"sizes {got}"


def _check_degrees():
    g = build_spidernet(SpidernetParams(4, 6, 3), 4)
    ok = g.stratum_degrees[:4].tolist() == [4, 6, 6, 6]
    return ok, "deg(o)=4, deg=6 elsewhere"


def _check_unitarity():
    g = build_spidernet(SpidernetParams(4, 6, 3), 6)
    rng = np.random.default_rng(7)
    s = rng.standard_normal(g.num_half_edges)
    s /= np.linalg.norm(s)
    out = evolve(g, s, 4)
    err = abs(np.linalg.norm(out) - 1.0)
    return err < 1e-12, f"norm drift {err:.2e}"


def _check_full_vs_reduced():
    sp = SpidernetParams(4, 6, 3)
    g = build_spidernet(sp, 9)
    params = params_from_spidernet(sp)
    full = evolve(g, isotropic_initial_state(g), 8)
    ev = ReducedEvolver(params, ReducedState.origin(), 8)
    for _ in range(8):
        ev.step()
    err = float(np.max(np.abs(full - embed(g, ev.state()))))
    return err < 1e-12, f"state diff {err:.2e} after 8 steps"


def _check_reduced_vs_integral():
    params = PqParams(0.5, 1.0 / 6.0, 1.0 / 3.0)
    law = law_from_pq(params)
    amps = origin_amplitude_series(params, 40)
    worst = float(np.max(np.abs(amplitude_series(law, 40) - amps)))
    return worst < 1e-12, f"max |diff| {worst:.2e} over n<=40"


def _check_measure_mass():
    law = law_from_pq(PqParams(0.5, 1.0 / 6.0, 1.0 / 3.0))
    mass = random_walk_return_series(law, 0)[0]
    err = abs(mass - 1.0)
    return err < 1e-12, f"total mass error {err:.2e}"


def _check_cutoff_spectrum():
    params = params_from_spidernet(SpidernetParams(4, 6, 3))
    N = 8
    system = u_eigensystem(params, N)
    mult = system.minus_one_multiplicity
    # the trace of U_N as the sum of its eigenvalues 1, e^{+-i theta_j}, -1
    trace = 1.0 + 2.0 * float(np.sum(np.cos(system.thetas))) - mult
    expected = (2 * params.r - 1) * (N - 1)
    ok = abs(trace - expected) < 1e-12 and mult == N - 2
    return ok, f"trace {trace:.12g}, mult(-1)={mult}"


def _check_atom_constants():
    rep = classify(SpidernetParams(4, 6, 3))
    ok = (rep.localized and float(rep.w) == 0.5
          and float(rep.xi) == -1.0 / 3.0 and float(rep.qbar_origin) == 0.125)
    return ok, f"w={rep.w}, xi={rep.xi}, qbar={rep.qbar_origin}"


def _check_cesaro():
    rep = classify(SpidernetParams(4, 6, 3))
    params = params_from_spidernet(SpidernetParams(4, 6, 3))
    qbar = float(cesaro_strata(params, 4000, 0)[0])
    err = abs(qbar - float(rep.qbar_origin))
    return err < 1e-3, f"|Cesaro - 1/8| = {err:.2e} at N=4000"


def _check_asymptotic():
    sp = SpidernetParams(4, 6, 3)
    amps = origin_amplitude_series(params_from_spidernet(sp), 400)
    law = law_from_spidernet(sp)
    # the atom's term w p_0(xi) cos(n theta~) of the origin amplitude, p_0 = 1
    worst = max(abs(amps[n] - law.atom_mass * float(np.cos(n * np.arccos(law.atom_location))))
                for n in range(350, 401))
    return worst < 5e-3, f"max |amp - wp(xi)cos| {worst:.2e} on [350,400]"


def _check_exp_bound():
    # the paper's (b/2c) w^2 (c/(b-c)^2)^l below the time-averaged mass of
    # V_l, at l = 1, in exact rationals from the Fraction w
    b, c = 6, 3
    w = classify(SpidernetParams(4, b, c)).w
    stratum_bound = float(b * w * w / (2 * c) * c / (b - c) ** 2)
    return (abs(stratum_bound - 1.0 / 12.0) < 1e-15,
            f"stratum bound l=1 is {stratum_bound:.12g}")


def _check_rwalk():
    law = law_from_pq(PqParams(0.5, 0.25, 0.25))
    p0, p1, p2 = random_walk_return_series(law, 2).tolist()
    ok = abs(p0 - 1) < 1e-12 and abs(p1) < 1e-12 and abs(p2 - 0.25) < 1e-12
    return ok, f"moments (1, 0, q) -> ({p0:.3g}, {p1:.2e}, {p2:.3g})"


def _check_unrealizable():
    try:
        build_spidernet(SpidernetParams(3, 4, 2), 3)
    except UnrealizableWiringError:
        return True, "S(3,4,2) wiring rejected"
    return False, "S(3,4,2) wiring unexpectedly accepted"


def _check_probability_conservation():
    g = build_spidernet(SpidernetParams(4, 4, 2), 8)
    state = evolve(g, isotropic_initial_state(g), 6)
    total = float(vertex_distribution(g, state).sum())
    return abs(total - 1.0) < 1e-12, f"total probability {total:.15g}"


_CHECKS = [
    ("stratum_sizes", _check_strata_sizes),
    ("degrees", _check_degrees),
    ("unitarity", _check_unitarity),
    ("full_vs_reduced", _check_full_vs_reduced),
    ("reduced_vs_integral", _check_reduced_vs_integral),
    ("measure_mass", _check_measure_mass),
    ("cutoff_spectrum", _check_cutoff_spectrum),
    ("atom_constants", _check_atom_constants),
    ("cesaro_origin", _check_cesaro),
    ("asymptotic_amplitude", _check_asymptotic),
    ("exp_bound", _check_exp_bound),
    ("random_walk_return", _check_rwalk),
    ("unrealizable_wiring", _check_unrealizable),
    ("probability_conservation", _check_probability_conservation),
]


def run_all():
    """Run every check; return a list of (name, passed, detail) triples."""
    results = []
    for name, fn in _CHECKS:
        try:
            passed, detail = fn()
        except Exception as exc:  # noqa: BLE001 - report, don't crash the table
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, bool(passed), detail))
    return results
