"""The benchmark's workloads: seeded request rounds, the calls each request
makes into qmbox's public functions, and the check applied to every result.

A workload is a closed loop with one client.  Requests come in rounds; a
round holds each request kind of the workload once, in a seeded order and
with seeded grid sizes, so every run sees the same mix whatever its length.
"""

from __future__ import annotations

import json
import operator
import os
import random
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from qmbox import (CONSTANTS, ConstantMass, MassSandwich, VonRoos,
                   build_hamiltonian, build_kinetic, builtin_problem,
                   classify_parity, compare_to_reference, completeness_error,
                   constant_reduced_mass, convergence_scan, diagonalize,
                   exponential_fit, momentum_ip, momentum_squared_matrix,
                   morse_exact_level, ordering_from_name, parse, phase_fix,
                   reference_spectrum, solve)
from qmbox.cli import main as cli_main
from qmbox.lattice import Lattice2D
from qmbox.operators import grid_values
from qmbox.problems import (henon_heiles_well_radius_sq, non_pt_exact_level,
                            pt_exact_level)
from tracing import NullTracer

MIB = 2.0**20

# --- Tolerances ----------------------------------------------------------------
# Copied from src/qmbox/bench.py and tests/test_acceptance.py (criteria 01-09).
# They must move with the roadmap item that gives tolerances one source of
# truth; until then a change there has to be repeated here.
TABLE_TOL = {                        # max |dev| against an embedded table
    "nh3.benchmark": 0.01,
    "nh3.mass-left": 0.01,
    "nh3.mass-right": 0.01,
    "nh3.mass-sandwich": 0.01,
    "nh3.inverse-mass-anticommutator": 0.01,
    "nd3.pdm": 0.1,
    "nd3.constant-mass": 0.1,
    "morse.benchmark": 0.5e-10,
}
LABEL_TOL = {"nh3.benchmark": {"0a": 0.005}, "morse.benchmark": {"5": 1e-10}}
ND3_EXPERIMENT_REL = 0.007           # relative, levels above 1 cm-1
MORSE_ANALYTIC_ABS = 1e-10           # wide grid vs analytic, n < 6
PT_REL = 1e-12                       # Re E vs 2n + 5/4 (or 2n + 1), n < 45
PT_IM = 1e-9                         # |Im E| of the PT oscillator
NON_PT_IM = 1e-10                    # |Im E - 1/2| of the non-PT oscillator
DRIFT_REL = 1e-10                    # cross-grid drift of the lowest levels
EPS5_RANGE = (1e-7, 1e-5)            # completeness error at n_max = 5
COMPLETE_TAIL = 1e-14                # completeness error for n_max > 116
MONOTONE_ABOVE = 1e-13
SCAN_MIN_CORR = 0.95                 # criterion 09 fit of state 0
SCAN_MIN_POINTS = 3
SCAN_CONVERGED_REL = 1e-10           # state 0 error on grids with N >= 101
HH_DRIFT_REL = 5e-12                 # 12 significant digits across grids
HH_WELL_LEVELS = 36
HH_STATES = 60

# --- Flop model of the eigensolver paths -------------------------------------
# Computed, not counted: textbook operation counts for the LAPACK drivers
# qmbox calls (Golub & Van Loan), plus the residual product H @ V.
FLOP_MODEL = {
    "eigh-subset": "4/3 n^3 + 4 n^2 k",
    "eigh": "11 n^3",
    "eig": "27 n^3",
    "complex": "x4 real flops",
}


def eig_path(op, n_states) -> str:
    if not op.hermitian_hint:
        return "eig"
    return "eigh-subset" if n_states is not None and n_states < op.dim else "eigh"


def flop_count(op, n_states) -> float:
    n = float(op.dim)
    path = eig_path(op, n_states)
    if path == "eigh-subset":
        flops = 4.0 / 3.0 * n**3 + 4.0 * n**2 * n_states
    elif path == "eigh":
        flops = 11.0 * n**3
    else:
        flops = 27.0 * n**3
    return 4.0 * flops if np.iscomplexobj(op.matrix) else flops


# --- Requests, results, verdicts -----------------------------------------------

@dataclass(frozen=True)
class Request:
    kind: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Verdict:
    ok: bool
    detail: str = ""
    worst_rel: float | None = None   # largest analytic or cross-grid relative error


@dataclass(frozen=True)
class Failure:
    """A request that raised; kept as its result so it is counted, not dropped."""
    error: BaseException


@dataclass
class Context:
    """Per-process state built before timing: reference levels, config files."""
    workdir: str
    references: dict = field(default_factory=dict)
    configs: dict = field(default_factory=dict)


class Draw:
    """Seeded choices for round ``index`` of a run.

    ``grid`` walks a seeded permutation of a window of grid sizes, a new one
    on every pass, so a run of many rounds uses each size about equally
    often and its total work hardly depends on the seed.
    """

    def __init__(self, tag: str, index: int):
        self.tag, self.index = tag, index
        self.rng = random.Random(f"{tag}/{index}")

    def grid(self, slot: str, window) -> int:
        values = list(window)
        cycle, position = divmod(self.index, len(values))
        random.Random(f"{self.tag}/{slot}/{cycle}").shuffle(values)
        return values[position]


def _problem(params, tracer):
    overrides = dict(params.get("overrides", {}))
    spec = params.get("ordering")
    if spec == "nd3-constant-mass":
        overrides["ordering"] = ConstantMass(constant_reduced_mass(CONSTANTS.m_D, CONSTANTS.m_N))
    elif spec is not None:
        name, *numbers = spec.split()
        overrides["ordering"] = ordering_from_name(name, *map(float, numbers))
    return tracer.call("problems.build", builtin_problem, params["problem"], **overrides)


# --- Solving, plain or stage by stage --------------------------------------------

def stages(problem, n_states, tracer):
    """The stages of ``solve`` called one by one, each in its own span.

    Grid values and momentum matrices are timed by separate calls: the
    kinetic and Hamiltonian builders compute them again internally.
    ``hamiltonian.build`` rebuilds the kinetic matrix too, so assembly time
    is its time minus that of ``hamiltonian.kinetic``.
    """
    grid = problem.grid
    if isinstance(grid, Lattice2D):
        X, Y = grid.meshgrid()
        points, axes = {"x": X, "y": Y}, (grid.lx, grid.ly)
    else:
        points, axes = {"x": grid.x}, (grid,)
    functions = [problem.potential_real, problem.potential_imag]
    if not isinstance(problem.ordering, ConstantMass):
        functions.append(problem.mass)
    for f in functions:
        if f is not None:
            tracer.call("operators.grid_values", grid_values, f, points)
    momentum = (momentum_ip if isinstance(problem.ordering, (MassSandwich, VonRoos))
                else momentum_squared_matrix)
    for axis in axes:
        tracer.call("operators.momentum", momentum, axis)
    tracer.call("hamiltonian.kinetic", build_kinetic, problem)
    op = tracer.call("hamiltonian.build", build_hamiltonian, problem)
    tracer.note("hamiltonian.matrix_mib", op.matrix.nbytes / MIB)
    tracer.note("lattice.guard_mib", op.dim * op.dim * 16 / MIB)
    tracer.note("eig.flops", flop_count(op, n_states), combine=operator.add)
    tracer.note("eig.general_calls", int(not op.hermitian_hint), combine=operator.add)
    spectrum = tracer.call("eig.diagonalize", diagonalize, op, grid, n_states)
    del op
    tracer.note("eig.residual_max", float(spectrum.residuals.max()))
    spectrum = tracer.call("eig.phase_fix", phase_fix, spectrum)
    if not isinstance(grid, Lattice2D):
        spectrum = tracer.call("eig.parity", classify_parity, spectrum)
    return spectrum


class StageMismatch(RuntimeError):
    """The stage-by-stage spectrum differs from the one ``solve`` returned."""


def solve_request(problem, tracer, n_states=None):
    """``solve`` the problem; when tracing, also run its stages on the same
    input and require the same eigenvalues."""
    spectrum = tracer.call("solve", solve, problem, n_states)
    if tracer.enabled:
        staged = stages(problem, n_states, tracer)
        scale = max(1.0, float(np.max(np.abs(spectrum.eigenvalues))))
        gap = float(np.max(np.abs(staged.eigenvalues - spectrum.eigenvalues)))
        if gap > 1e-12 * scale:
            raise StageMismatch(f"staged eigenvalues differ from solve() by {gap:.2e}")
    return spectrum


def _rel(computed, exact) -> np.ndarray:
    return np.abs(np.asarray(computed) - np.asarray(exact)) / np.abs(np.asarray(exact))


def _verdict(ok, detail, rel) -> Verdict:
    return Verdict(bool(ok), detail, float(np.max(rel)))


# --- catalog-1d ------------------------------------------------------------------

NH3_ORDERINGS = ("mass-left", "mass-right", "mass-sandwich", "inverse-mass-anticommutator")
WIDE_MORSE = {"L": 140.0, "r_e": -60.0}
DRIFT_CASES = (("pdm_ho_1", "mass-sandwich"), ("pdm_ho_2", "mass-sandwich"),
               ("pdm_ho_1", "von-roos -0.25 -0.25"))
DRIFT_REFERENCE_N = 301

# N windows where every check passes at the tolerances above
NH3_WINDOW = range(101, 142, 2)
MORSE_WINDOW = range(181, 302, 4)        # wide grid, L = 140
PT_WINDOW = range(101, 122, 2)
DRIFT_WINDOW = range(141, 282, 6)
HARMONIC_WINDOW = range(61, 122, 2)

#: Expression-defined problems sent through ``qmbox solve --config``:
#: (config body without N, N window, how the levels are checked).
CONFIGS = {
    "harmonic": ("L = 20\nmass = 1\npotential_real = 0.5*x^2\n", HARMONIC_WINDOW, "harmonic"),
    "pt": ("L = 25\nordering = constant-mass 0.5\npotential_real = x^2\n"
           "potential_imag = x\n", PT_WINDOW, "pt"),
    "pdm": ("L = 20\nmass = 1 + x^2\npotential_real = 0.5*x^2\n", DRIFT_WINDOW,
            ("pdm_ho_1", "mass-sandwich")),
    "morse": ("L = 140\nmass = 1\npotential_real = (1 - exp(-0.24*(x + 60)))^2\n",
              MORSE_WINDOW, "morse"),
}
CONFIG_STATES = 8


def _catalog_round(draw):
    requests = [Request("table", {"problem": "nh3", "ordering": o,
                                  "overrides": {"N": draw.grid(f"nh3 {o}", NH3_WINDOW)},
                                  "tables": (f"nh3.{o}",) + (("nh3.benchmark",) if o == "mass-left" else ())})
                for o in NH3_ORDERINGS]
    requests += [
        Request("table", {"problem": "nd3", "overrides": {"N": draw.grid("nd3", NH3_WINDOW)},
                          "tables": ("nd3.pdm", "nd3.experiment")}),
        Request("table", {"problem": "nd3", "ordering": "nd3-constant-mass",
                          "overrides": {"N": draw.grid("nd3 const", NH3_WINDOW)},
                          "tables": ("nd3.constant-mass",)}),
        # the morse table belongs to the default grid alone
        Request("table", {"problem": "morse", "overrides": {"N": 111},
                          "tables": ("morse.benchmark",)}),
        Request("analytic", {"problem": "morse",
                             "overrides": {"N": draw.grid("morse", MORSE_WINDOW), **WIDE_MORSE}}),
        Request("analytic", {"problem": "pt_oscillator",
                             "overrides": {"N": draw.grid("pt", PT_WINDOW)}}),
        Request("analytic", {"problem": "non_pt_oscillator",
                             "overrides": {"N": draw.grid("non-pt", PT_WINDOW)}}),
    ]
    requests += [Request("drift", {"problem": p, "ordering": o,
                                   "overrides": {"N": draw.grid(f"{p} {o}", DRIFT_WINDOW)}})
                 for p, o in DRIFT_CASES]
    requests += [Request("config", {"name": name, "N": draw.grid(f"config {name}", window)})
                 for name, (_, window, _) in CONFIGS.items()]
    draw.rng.shuffle(requests)
    return requests


def _prepare_catalog(ctx):
    for problem_id, ordering in DRIFT_CASES:
        spectrum = solve(_problem({"problem": problem_id, "ordering": ordering,
                                   "overrides": {"N": DRIFT_REFERENCE_N}}, _UNTRACED))
        ctx.references[(problem_id, ordering)] = spectrum.eigenvalues[:10]
    for name, (body, window, _) in CONFIGS.items():
        for n in window:
            path = os.path.join(ctx.workdir, f"{name}-N{n}.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"dimension = 1\nN = {n}\n{body}")
            ctx.configs[(name, n)] = path


def _run_table(params, tracer, ctx):
    spectrum = solve_request(_problem(params, tracer), tracer)
    return {key: tracer.call("analysis.compare", compare_to_reference, spectrum,
                             reference_spectrum(key))
            for key in params["tables"]}


def _check_table(params, reports, ctx):
    bad = []
    for key, report in reports.items():
        if key == "nd3.experiment":
            rel = report.max_rel_dev_above(1.0)
            if rel > ND3_EXPERIMENT_REL:
                bad.append(f"{key} rel {rel:.2e}")
            continue
        for row in report.rows:
            tol = LABEL_TOL.get(key, {}).get(row.label, TABLE_TOL[key])
            if row.abs_dev > tol:
                bad.append(f"{key} {row.label} |dev| {row.abs_dev:.2e} > {tol:g}")
    return Verdict(not bad, "; ".join(bad))


def _run_solve(params, tracer, ctx):
    return solve_request(_problem(params, tracer), tracer)


def _analytic_errors(problem_id, eigenvalues):
    """(ok, detail, relative errors) of levels with a closed form."""
    if problem_id == "morse":
        exact = np.array([morse_exact_level(n) for n in range(6)])
        dev = np.abs(eigenvalues[:6].real - exact)
        return dev.max() <= MORSE_ANALYTIC_ABS, f"|dev| {dev.max():.2e}", dev / exact
    if problem_id == "pt_oscillator":
        exact = np.array([pt_exact_level(n).real for n in range(45)])
        rel = _rel(eigenvalues[:45].real, exact)
        im = np.max(np.abs(eigenvalues[:45].imag))
        return rel.max() < PT_REL and im <= PT_IM, f"rel {rel.max():.2e}, |Im| {im:.2e}", rel
    exact = np.array([non_pt_exact_level(n).real for n in range(45)])
    rel = _rel(eigenvalues[:45].real, exact)
    im = np.max(np.abs(eigenvalues[:45].imag - 0.5))
    return rel.max() < PT_REL and im <= NON_PT_IM, f"rel {rel.max():.2e}, |Im-1/2| {im:.2e}", rel


def _check_analytic(params, spectrum, ctx):
    return _verdict(*_analytic_errors(params["problem"], spectrum.eigenvalues))


def _check_drift(params, spectrum, ctx):
    ref = ctx.references[(params["problem"], params["ordering"])]
    rel = _rel(spectrum.eigenvalues[:10], ref)
    return _verdict(rel.max() < DRIFT_REL, f"drift {rel.max():.2e}", rel)


def _cli_rows(argv, tracer, output):
    code = tracer.call("cli.main", cli_main, argv + ["--format", "json", "--output", output])
    if code != 0:
        raise RuntimeError(f"qmbox {' '.join(argv)} exited with code {code}")
    with open(output, encoding="utf-8") as fh:
        return json.load(fh)


def _run_config(params, tracer, ctx):
    name = params["name"]
    path = ctx.configs[(name, params["N"])]
    if tracer.enabled:
        with open(path, encoding="utf-8") as fh:
            sources = [line.split("=", 1)[1].strip() for line in fh
                       if line.split("=", 1)[0].strip() in ("mass", "potential_real", "potential_imag")]
        for source in sources:
            try:
                float(source)
            except ValueError:
                tracer.call("expr.parse", parse, source, {"x"})
    return _cli_rows(["solve", "--config", path, "--states", str(CONFIG_STATES)], tracer,
                     os.path.join(ctx.workdir, f"{name}.json"))


def _check_config(params, rows, ctx):
    energies = np.array([row["energy"] + 1j * row["imag"] for row in rows])
    how = CONFIGS[params["name"]][2]
    if len(energies) != CONFIG_STATES:
        return Verdict(False, f"{len(energies)} rows, want {CONFIG_STATES}")
    if how == "harmonic":
        rel = _rel(energies.real, np.arange(CONFIG_STATES) + 0.5)
        return _verdict(rel.max() <= DRIFT_REL, f"rel {rel.max():.2e}", rel)
    if how == "pt":
        rel = _rel(energies.real, 2.0 * np.arange(CONFIG_STATES) + 1.25)
        im = np.max(np.abs(energies.imag))
        return _verdict(rel.max() < PT_REL and im <= PT_IM, f"rel {rel.max():.2e}, |Im| {im:.2e}",
                        rel)
    if how == "morse":
        return _verdict(*_analytic_errors("morse", energies))
    rel = _rel(energies, ctx.references[how][:CONFIG_STATES])
    return _verdict(rel.max() < DRIFT_REL, f"drift {rel.max():.2e}", rel)


# --- scan-1d ---------------------------------------------------------------------

#: Criterion 09's problem: nh3 with the anticommutator ordering at L = 4.5.
NH3_SCAN = {"problem": "nh3", "ordering": "inverse-mass-anticommutator",
            "overrides": {"L": 4.5, "N": 111}}
NH3_SCAN_STATES = (0, 7, 19)
PDM_SCAN = {"problem": "pdm_ho_1"}
PDM_SCAN_STATES = (0, 3, 9)
SCAN_REFERENCE_N = 201


COMPLETENESS_WINDOW = range(201, 602, 20)


def _scan_round(draw):
    # The fixed coarse part keeps at least three pre-plateau grids for the
    # fit; the seed draws the tail, whose last ten grids give the converged
    # value and so start where state 19 has converged.
    nh3_grids = list(range(31, 60, 2)) + sorted(draw.rng.sample(range(91, 152, 2), 10))
    pdm_grids = list(range(41, 122, 4)) + sorted(draw.rng.sample(range(123, 202, 2), 6))
    requests = [
        Request("scan", {"case": "nh3", "mode": "fixed_L_vary_N", "grids": tuple(nh3_grids)}),
        Request("scan", {"case": "pdm", "mode": "fixed_a_vary_N", "grids": tuple(pdm_grids)}),
    ]
    requests += [Request("completeness", {"problem": "morse", "overrides": {
        "N": draw.grid(f"completeness {k}", COMPLETENESS_WINDOW), **WIDE_MORSE}})
        for k in range(2)]
    draw.rng.shuffle(requests)
    return requests


SCAN_CASES = {"nh3": (NH3_SCAN, NH3_SCAN_STATES), "pdm": (PDM_SCAN, PDM_SCAN_STATES)}


def _prepare_scan(ctx):
    for case, (spec, states) in SCAN_CASES.items():
        ref_spec = {**spec, "overrides": {**spec.get("overrides", {}), "N": SCAN_REFERENCE_N}}
        spectrum = solve(_problem(ref_spec, _UNTRACED))
        ctx.references[case] = spectrum.eigenvalues[list(states)].real


def _run_scan(params, tracer, ctx):
    spec, states = SCAN_CASES[params["case"]]
    problem = _problem(spec, tracer)
    return tracer.call("analysis.scan", convergence_scan, problem, params["mode"],
                       params["grids"], states)


def _check_scan(params, scan, ctx):
    bad = []
    for state in scan.state_indices:
        slope, corr, points = exponential_fit(scan, state)
        if slope >= 0:
            bad.append(f"state {state} slope {slope:.3f}")
        if state == 0 and (abs(corr) <= SCAN_MIN_CORR or points < SCAN_MIN_POINTS):
            bad.append(f"state 0 fit |r| {abs(corr):.3f} over {points} grids")
    fine = [i for i, n in enumerate(scan.n_list) if n >= 101]
    err0 = float(np.max(scan.rel_errors[fine, 0]))
    if err0 >= SCAN_CONVERGED_REL:
        bad.append(f"state 0 error {err0:.1e} on N >= 101")
    rel = _rel(scan.converged, ctx.references[params["case"]])
    if rel.max() >= DRIFT_REL:
        bad.append(f"converged vs N={SCAN_REFERENCE_N} {rel.max():.2e}")
    return _verdict(not bad, "; ".join(bad), rel)


def _run_completeness(params, tracer, ctx):
    spectrum = solve_request(_problem(params, tracer), tracer)
    return spectrum, tracer.call("analysis.completeness", completeness_error, spectrum)


def _check_completeness(params, result, ctx):
    spectrum, curve = result
    eps5, tail = curve[5], curve[117:].max()
    above = curve[:-1] > MONOTONE_ABOVE
    monotone = bool(np.all(np.diff(curve)[above] <= 0))
    ok, detail, rel = _analytic_errors("morse", spectrum.eigenvalues)
    ok = ok and EPS5_RANGE[0] <= eps5 <= EPS5_RANGE[1] and tail < COMPLETE_TAIL and monotone
    return _verdict(ok, f"eps5 {eps5:.2e}, tail {tail:.1e}, monotone {monotone}, {detail}", rel)


# --- hh-2d -----------------------------------------------------------------------

HH_GRIDS = (61, 81, 55)              # criterion 08's grids
HH_CLI_STATES = 10


def _hh_round(draw):
    requests = [Request("hh", {"N": n, "L": round(draw.rng.uniform(18.0, 20.0), 3)})
                for n in HH_GRIDS]
    requests.append(Request("hh-cli", {}))
    draw.rng.shuffle(requests)
    return requests


def _run_hh(params, tracer, ctx):
    problem = tracer.call("problems.build", builtin_problem, "henon_heiles",
                          N=params["N"], L=params["L"])
    return problem, solve_request(problem, tracer, n_states=HH_STATES)


def _run_hh_cli(params, tracer, ctx):
    return _cli_rows(["solve", "--problem", "henon_heiles", "--states", str(HH_CLI_STATES)],
                     tracer, os.path.join(ctx.workdir, "henon_heiles.json"))


def well_levels(problem, spectrum):
    """Lowest well levels, box-localised states (<r^2> beyond the saddle)
    excluded; returns (levels, number excluded)."""
    X, Y = problem.grid.meshgrid()
    r2 = (X**2 + Y**2).ravel()
    mean_r2 = spectrum.weight * ((np.abs(spectrum.eigenvectors) ** 2).T @ r2)
    keep = mean_r2 <= henon_heiles_well_radius_sq()
    return spectrum.eigenvalues[keep][:HH_WELL_LEVELS].real, int(np.sum(~keep))


def _check_hh_round(requests, results, ctx):
    """Criterion 08: every grid's lowest 36 well levels, and the CLI's levels,
    agree with the finest grid of the round to 12 significant digits."""
    finest = max((i for i, r in enumerate(requests) if r.kind == "hh"),
                 key=lambda i: requests[i].params["N"])
    if isinstance(results[finest], Failure):
        return [Verdict(False, "finest grid failed, nothing to compare with")] * len(requests)
    ref, _ = well_levels(*results[finest])
    if len(ref) < HH_WELL_LEVELS:
        return [Verdict(False, f"only {len(ref)} well levels on the finest grid")] * len(requests)
    verdicts = []
    for i, (request, result) in enumerate(zip(requests, results)):
        if isinstance(result, Failure):
            verdicts.append(Verdict(False, f"raised {result.error!r}"))
            continue
        if i == finest:
            verdicts.append(None)
            continue
        if request.kind == "hh":
            levels, excluded = well_levels(*result)
            rel = _rel(levels, ref[:len(levels)]) if len(levels) == HH_WELL_LEVELS else np.array([np.inf])
            detail = f"{request.params}: drift {rel.max():.2e}, {excluded} box states"
        else:
            rel = _rel([row["energy"] for row in result], ref[:HH_CLI_STATES])
            detail = f"cli drift {rel.max():.2e}"
        verdicts.append(_verdict(rel.max() <= HH_DRIFT_REL, detail, rel))
    others_ok = all(v.ok for v in verdicts if v is not None)
    verdicts[finest] = Verdict(others_ok, "finest grid, checked against the others")
    return verdicts


# --- Workload table ------------------------------------------------------------------

RUNNERS = {"table": _run_table, "analytic": _run_solve, "drift": _run_solve,
           "config": _run_config, "scan": _run_scan, "completeness": _run_completeness,
           "hh": _run_hh, "hh-cli": _run_hh_cli}
CHECKS = {"table": _check_table, "analytic": _check_analytic, "drift": _check_drift,
          "config": _check_config, "scan": _check_scan, "completeness": _check_completeness}


def run_request(request, tracer, ctx):
    return RUNNERS[request.kind](request.params, tracer, ctx)


def check_each(requests, results, ctx):
    """Check every result on its own; a raise anywhere fails that request."""
    verdicts = []
    for request, result in zip(requests, results):
        if isinstance(result, Failure):
            verdicts.append(Verdict(False, f"raised {result.error!r}"))
            continue
        try:
            verdicts.append(CHECKS[request.kind](request.params, result, ctx))
        except Exception as err:  # a check that cannot run is a failed request
            verdicts.append(Verdict(False, f"check raised {err!r}"))
    return verdicts


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable[[Draw], list]
    warmup: tuple                    # (problem id, overrides, n_states)
    prepare: Callable[[Context], None] = lambda ctx: None
    run: Callable = run_request
    check_round: Callable = check_each


WORKLOADS = {
    "catalog-1d": Workload("catalog-1d", _catalog_round, ("nh3", {}, None),
                           prepare=_prepare_catalog),
    "scan-1d": Workload("scan-1d", _scan_round, ("morse", {"N": 201, **WIDE_MORSE}, None),
                        prepare=_prepare_scan),
    "hh-2d": Workload("hh-2d", _hh_round, ("henon_heiles", {"N": 21}, 10),
                      check_round=_check_hh_round),
}

#: The rows of the roadmap's baseline table, re-measured stage by stage.
BASELINE_ROWS = (
    ("nh3 (N=111)", "nh3", {"N": 111}, None),
    ("morse (N=301, full)", "morse", {"N": 301, **WIDE_MORSE}, None),
    ("pt_oscillator", "pt_oscillator", {}, None),
    ("henon_heiles 61^2 (60 states)", "henon_heiles", {"N": 61}, HH_STATES),
    ("henon_heiles 81^2 (60 states)", "henon_heiles", {"N": 81}, HH_STATES),
)


def make_round(workload: Workload, seed: int, index: int) -> list:
    """Round ``index`` of a run with this seed; the same arguments always
    give the same requests."""
    return workload.make_round(Draw(f"{workload.name}/{seed}", index))


_UNTRACED = NullTracer()


@dataclass
class LoopResult:
    requests: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    round_seconds: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def rounds(self) -> int:
        return len(self.round_seconds)

    @property
    def failed(self) -> int:
        return sum(not v.ok for v in self.verdicts)


def run_loop(workload, seed, ctx, tracer, seconds=None, rounds=None) -> LoopResult:
    """Closed loop with one client: each request starts after the previous
    one returned.  Runs whole rounds until ``seconds`` have passed, or
    exactly ``rounds`` rounds.  Every request is counted: one that raises
    keeps its latency and fails its check."""
    out = LoopResult()
    start = time.perf_counter()
    while (out.rounds < rounds) if rounds is not None else (time.perf_counter() - start < seconds):
        round_start = time.perf_counter()
        requests = make_round(workload, seed, out.rounds)
        results = []
        for request in requests:
            with tracer.request(len(out.requests) + len(results)):
                t0 = time.perf_counter()
                try:
                    result = workload.run(request, tracer, ctx)
                except Exception as err:  # counted as a failed request
                    result = Failure(err)
                out.latencies.append(time.perf_counter() - t0)
            results.append(result)
        try:
            out.verdicts += workload.check_round(requests, results, ctx)
        except Exception as err:  # a check that cannot run fails its round
            out.verdicts += [Verdict(False, f"check raised {err!r}")] * len(requests)
        out.requests += requests
        out.round_seconds.append(time.perf_counter() - round_start)
    out.elapsed = time.perf_counter() - start
    return out
