"""Acceptance suite: one test per documented criterion, each reporting a
PASS/FAIL line with the measured quantity next to its tolerance.  The lines
are echoed immediately and again in the terminal summary (see conftest), so
they survive output capture."""

import subprocess
import sys
import time

import numpy as np

from conftest import record_acceptance

from qmbox import bench
from qmbox.analysis import convergence_scan, exponential_fit
from qmbox.hamiltonian import (ORDERING_NAMES, ConstantMass, ProblemDefinition,
                               VonRoos, build_kinetic, ordering_from_name)
from qmbox.lattice import make_lattice
from qmbox.operators import exp_ialpha_p, momentum_matrix, momentum_squared_matrix
from qmbox.problems import builtin_problem, henon_heiles_well_radius_sq
from qmbox.solve import solve


def report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:02d} {name}: {status} - {detail}"
    record_acceptance(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, f"criterion {number} ({name}): {detail}"


def frob(A):
    return np.linalg.norm(A)


# Criteria 01-06 are the `qmbox bench` gates; their tolerances live in qmbox.bench.

def test_criterion_01_nh3_levels():
    t0 = time.perf_counter()
    ok, detail = bench.check_nh3_benchmark()
    elapsed = time.perf_counter() - t0
    report(1, "nh3-levels", ok and elapsed < 5.0,
           f"{detail}, runtime {elapsed:.2f}s (tol 5s)")


def test_criterion_02_nh3_orderings():
    report(2, "nh3-orderings", *bench.check_nh3_orderings())


def test_criterion_03_nd3_levels():
    report(3, "nd3-levels", *bench.check_nd3())


def test_criterion_04_morse_levels():
    report(4, "morse-levels", *bench.check_morse())


def test_criterion_05_completeness():
    report(5, "completeness", *bench.check_completeness())


def test_criterion_06_complex_spectra():
    report(6, "complex-spectra", *bench.check_pt_spectra())


def test_criterion_07_pdm_oscillators():
    worst_drift = 0.0
    all_real = True
    for problem_id in ("pdm_ho_1", "pdm_ho_2"):
        base = solve(builtin_problem(problem_id))
        all_real &= np.abs(np.imag(base.eigenvalues)).max() <= 1e-12
        all_real &= base.hermitian_path
        for overrides in ({"N": 301}, {"L": 24.0}):
            other = solve(builtin_problem(problem_id, **overrides))
            drift = np.max(np.abs(other.eigenvalues[:10] - base.eigenvalues[:10])
                           / np.abs(base.eigenvalues[:10]))
            worst_drift = max(worst_drift, drift)
    ok = worst_drift < 1e-10 and all_real
    report(7, "pdm-oscillators", ok,
           f"max relative drift of lowest 10 under N=301 / L=24: {worst_drift:.2e} "
           f"(tol 1e-10), Hermitian-path real: {all_real}")


def _henon_heiles_well_levels(count=36, n_states=60, **overrides):
    problem = builtin_problem("henon_heiles", **overrides)
    spectrum = solve(problem, n_states=n_states)
    X, Y = problem.grid.meshgrid()
    r2 = (X**2 + Y**2).ravel()
    mean_r2 = spectrum.weight * ((np.abs(spectrum.eigenvectors) ** 2).T @ r2)
    keep = mean_r2 <= henon_heiles_well_radius_sq()
    excluded = int(np.sum(~keep))
    return spectrum.eigenvalues[keep][:count].real, excluded


def test_criterion_08_henon_heiles_stability():
    t0 = time.perf_counter()
    desk, excl0 = _henon_heiles_well_levels()
    desk_seconds = time.perf_counter() - t0
    finer, excl1 = _henon_heiles_well_levels(Nx=81, Ny=81)
    # same spacing as the desk grid in a narrower box
    narrow, excl2 = _henon_heiles_well_levels(Nx=55, Ny=55, Lx=18.0, Ly=18.0)
    drift_refine = np.max(np.abs(finer - desk) / desk)
    drift_box = np.max(np.abs(narrow - desk) / desk)
    ok = (drift_refine <= 5e-12 and drift_box <= 5e-12 and desk_seconds <= 120.0)
    report(8, "henon-heiles", ok,
           f"lowest 36 well states: 81x81 drift {drift_refine:.2e}, L=18 drift "
           f"{drift_box:.2e} (tol 5e-12 for 12 digits), box states excluded "
           f"{excl0}/{excl1}/{excl2}, 61x61 solve {desk_seconds:.1f}s (tol 120s)")


def _nh3_scan(mode, grid_L, grid_N, n_list):
    problem = builtin_problem("nh3", L=grid_L, N=grid_N,
                              ordering=ordering_from_name("inverse-mass-anticommutator"))
    return convergence_scan(problem, mode, n_list, state_indices=(0,))


def test_criterion_09_exponential_convergence():
    n_list_L = list(range(31, 62, 2)) + list(range(71, 152, 10))
    scan_L = _nh3_scan("fixed_L_vary_N", 4.5, 111, n_list_L)
    slope_L, corr_L, pts_L = exponential_fit(scan_L, 0)
    err_L_111 = scan_L.rel_errors[n_list_L.index(111), 0]

    n_list_a = list(range(85, 116, 2)) + list(range(121, 212, 10))
    scan_a = _nh3_scan("fixed_a_vary_N", 4.5, 151, n_list_a)  # a = 4.5/151
    slope_a, corr_a, pts_a = exponential_fit(scan_a, 0)
    err_a_111 = scan_a.rel_errors[n_list_a.index(111), 0]

    ok = (slope_L < 0 and abs(corr_L) > 0.95 and pts_L >= 3 and err_L_111 < 1e-10
          and slope_a < 0 and abs(corr_a) > 0.95 and pts_a >= 3 and err_a_111 < 1e-10)
    report(9, "convergence", ok,
           f"fixed-L fit slope {slope_L:.3f}, |r| {abs(corr_L):.3f} over {pts_L} pts, "
           f"err(111) {err_L_111:.1e}; fixed-a slope {slope_a:.3f}, |r| "
           f"{abs(corr_a):.3f} over {pts_a} pts, err(111) {err_a_111:.1e} "
           f"(tols: slope<0, |r|>0.95, err<1e-10)")


def test_criterion_10_operator_identities():
    lattices = [(3.0, 1), (2 * np.pi, 3), (4.0, 55), (25.0, 50), (90.0, 55)]
    worst_sq = worst_unit = worst_group = worst_shift = 0.0
    for L, M in lattices:
        lat = make_lattice(L, M)
        P = momentum_squared_matrix(lat).matrix
        p = momentum_matrix(lat).matrix
        worst_sq = max(worst_sq, frob(P - (p @ p).real) / frob(P))
        U = exp_ialpha_p(lat, 0.377).matrix
        worst_unit = max(worst_unit, np.abs(U @ U.T - np.eye(lat.N)).max())
        G = exp_ialpha_p(lat, 0.21).matrix @ exp_ialpha_p(lat, 0.56).matrix
        worst_group = max(worst_group, frob(G - exp_ialpha_p(lat, 0.77).matrix))
        S = exp_ialpha_p(lat, lat.a).matrix
        shift = np.roll(np.eye(lat.N), 1, axis=1)  # ones at k = i+1 mod N
        worst_shift = max(worst_shift, np.abs(S - shift).max())

    grid = make_lattice(20.0, 40)
    pdm = lambda x: 1.0 + x**2
    worst_herm = 0.0
    for ordering in (VonRoos(0.0, 0.0), VonRoos(-1.0, 0.0), VonRoos(0.3, -0.7)):
        T = build_kinetic(ProblemDefinition(name="t", grid=grid, ordering=ordering,
                                            potential_real=0.0, mass=pdm)).matrix
        worst_herm = max(worst_herm, frob(T - T.conj().T) / frob(T))
    T_ref = None
    worst_const = 0.0
    named = [o for o in ORDERING_NAMES.values() if isinstance(o, VonRoos)]
    for ordering in (*named, ConstantMass(1.0)):
        T = build_kinetic(ProblemDefinition(name="t", grid=grid, ordering=ordering,
                                            potential_real=0.0, mass=1.0)).matrix
        T_ref = T if T_ref is None else T_ref
        worst_const = max(worst_const, frob(T - T_ref) / frob(T_ref))

    ok = (worst_sq <= 1e-12 and worst_unit <= 1e-12 and worst_group <= 1e-10
          and worst_shift <= 1e-12 and worst_herm <= 1e-12 and worst_const <= 1e-12)
    report(10, "operator-identities", ok,
           f"p^2 closed vs squared {worst_sq:.2e} (tol 1e-12), unitarity "
           f"{worst_unit:.2e} (tol 1e-12), group {worst_group:.2e} (tol 1e-10), "
           f"shift {worst_shift:.2e}, von Roos hermiticity {worst_herm:.2e}, "
           f"constant-mass spread {worst_const:.2e} (tol 1e-12)")


def test_criterion_11_cli_bench_gate():
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "qmbox.cli", "bench"],
                          capture_output=True, text=True, timeout=300)
    elapsed = time.perf_counter() - t0
    ok = proc.returncode == 0 and elapsed < 180.0
    report(11, "cli-bench", ok,
           f"exit code {proc.returncode} (want 0), wall time {elapsed:.1f}s "
           f"(tol 180s)")
    if not ok:
        print(proc.stdout + proc.stderr, file=sys.__stdout__)
