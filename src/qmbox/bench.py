"""End-to-end benchmark gate: every built-in with a reference is re-solved
and checked at its documented tolerance.  Used by the CLI ``bench``
subcommand as a CI gate (nonzero exit on any failure).

Each ``check_*`` function returns ``(ok, detail)`` and is the one home of its
tolerances: acceptance criteria 01-06 call these.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .analysis import compare_to_reference, completeness_error, labeled_levels
from .hamiltonian import ConstantMass, ordering_from_name
from .problems import (CONSTANTS, builtin_problem, constant_reduced_mass,
                       morse_exact_level, non_pt_exact_level, pt_exact_level,
                       reference_spectrum)
from .solve import solve


@dataclass(frozen=True)
class BenchResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _run(name, fn, results):
    t0 = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as err:  # a crash is a failure, not an abort
        passed, detail = False, f"raised {type(err).__name__}: {err}"
    results.append(BenchResult(name, passed, detail, time.perf_counter() - t0))


def check_nh3_benchmark():
    spectrum = solve(builtin_problem("nh3"))
    report = compare_to_reference(spectrum, reference_spectrum("nh3.benchmark"))
    worst = report.max_abs_dev
    dev_0a = next(r.abs_dev for r in report.rows if r.label == "0a")
    ok = worst <= 0.01 and dev_0a <= 0.005
    return ok, f"max |dev| {worst:.4f} cm-1 (tol 0.01), 0a dev {dev_0a:.4f} (tol 0.005)"


def check_nh3_orderings():
    orderings = {f"nh3.{name}": ordering_from_name(name)
                 for name in ("mass-sandwich", "inverse-mass-anticommutator",
                              "mass-left", "mass-right")}
    worst = 0.0
    level_0a = {}
    spectra = {}
    for key, ordering in orderings.items():
        spectrum = solve(builtin_problem("nh3", ordering=ordering))
        spectra[key] = spectrum
        report = compare_to_reference(spectrum, reference_spectrum(key))
        worst = max(worst, report.max_abs_dev)
        level_0a[key] = labeled_levels(spectrum, unit="cm-1", shifted=True)["0a"]
    spread_0a = max(level_0a.values()) - min(level_0a.values())
    left = labeled_levels(spectra["nh3.mass-left"], unit="cm-1", shifted=True)
    right = labeled_levels(spectra["nh3.mass-right"], unit="cm-1", shifted=True)
    one_sided = max(abs(left[k] - right[k])
                    for k in reference_spectrum("nh3.mass-left").values)
    ok = worst <= 0.01 and spread_0a <= 0.005 and one_sided <= 0.005
    return ok, (f"max |dev| {worst:.4f} cm-1 (tol 0.01), 0a spread {spread_0a:.4f} "
                f"(tol 0.005), left-right {one_sided:.2e} (tol 0.005)")


def check_nd3():
    pdm = solve(builtin_problem("nd3"))
    rep_pdm = compare_to_reference(pdm, reference_spectrum("nd3.pdm"))
    mu = constant_reduced_mass(CONSTANTS.m_D, CONSTANTS.m_N)
    const = solve(builtin_problem("nd3", ordering=ConstantMass(mu)))
    rep_const = compare_to_reference(const, reference_spectrum("nd3.constant-mass"))
    rep_exp = compare_to_reference(pdm, reference_spectrum("nd3.experiment"))
    # the 0.7% claim covers the excited levels; the 0.05 cm-1 splitting is
    # quoted to one significant digit and carries no relative-error content
    rel_exp = rep_exp.max_rel_dev_above(1.0)
    ok = (rep_pdm.max_abs_dev <= 0.1 and rep_const.max_abs_dev <= 0.1
          and rel_exp <= 0.007)
    return ok, (f"pdm dev {rep_pdm.max_abs_dev:.3f}, const-mass dev "
                f"{rep_const.max_abs_dev:.3f} (tol 0.1); vs experiment "
                f"{100 * rel_exp:.2f}% (tol 0.7%)")


def check_morse():
    ref = reference_spectrum("morse.benchmark")
    narrow = solve(builtin_problem("morse"))
    dev_table = max(abs(narrow.eigenvalues[n].real - ref.values[str(n)])
                    for n in range(5))
    dev_state5 = abs(narrow.eigenvalues[5].real - ref.values["5"])
    wide = solve(builtin_problem("morse", N=201, L=140, r_e=-60.0))
    dev_exact = max(abs(wide.eigenvalues[n].real - morse_exact_level(n))
                    for n in range(6))
    ok = dev_table <= 0.5e-10 and dev_state5 <= 1e-10 and dev_exact <= 1e-10
    return ok, (f"table dev {dev_table:.2e} (tol 5e-11), state-5 dev "
                f"{dev_state5:.2e} (tol 1e-10), wide-grid vs analytic "
                f"{dev_exact:.2e} (tol 1e-10)")


def check_completeness():
    spectrum = solve(builtin_problem("morse", N=301, L=140, r_e=-60.0))
    curve = completeness_error(spectrum)
    eps5 = curve[5]
    tail = curve[117:].max()
    above = curve[:-1] > 1e-13
    monotone = bool(np.all(np.diff(curve)[above] <= 0))
    ok = 1e-7 <= eps5 <= 1e-5 and tail < 1e-14 and monotone
    return ok, (f"eps(5) {eps5:.2e} (want ~1e-6), eps(n>116) max {tail:.2e} "
                f"(tol 1e-14), monotone above 1e-13: {monotone}")


def check_pt_spectra():
    n = np.arange(45)
    pt = solve(builtin_problem("pt_oscillator"))
    exact_pt = np.array([pt_exact_level(k).real for k in n])
    rel_pt = np.max(np.abs(pt.eigenvalues[:45].real - exact_pt) / exact_pt)
    im_pt = np.max(np.abs(pt.eigenvalues[:45].imag))
    npt = solve(builtin_problem("non_pt_oscillator"))
    exact_npt = np.array([non_pt_exact_level(k).real for k in n])
    rel_npt = np.max(np.abs(npt.eigenvalues[:45].real - exact_npt) / exact_npt)
    im_npt = np.max(np.abs(npt.eigenvalues[:45].imag - 0.5))
    ok = rel_pt < 1e-12 and rel_npt < 1e-12 and im_pt <= 1e-9 and im_npt <= 1e-10
    return ok, (f"rel Re {rel_pt:.2e}/{rel_npt:.2e} (tol 1e-12), |Im| "
                f"{im_pt:.2e} (tol 1e-9), |Im - 0.5| {im_npt:.2e} (tol 1e-10), n < 45")


def run_benchmarks() -> list[BenchResult]:
    """Run the full reference gate; order matches the documented tables."""
    results: list[BenchResult] = []
    _run("nh3-levels", check_nh3_benchmark, results)
    _run("nh3-orderings", check_nh3_orderings, results)
    _run("nd3-levels", check_nd3, results)
    _run("morse-levels", check_morse, results)
    _run("morse-completeness", check_completeness, results)
    _run("complex-spectra", check_pt_spectra, results)
    return results
