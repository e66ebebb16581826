"""The solve plan: its predicted peak against the resident memory that a
solve really takes, LAPACK's copies and workspace inside numpy included,
and the one memory guard, which refuses a solve, a scan, a completeness
check or a lattice operator before anything of the size of its grid is
built."""

import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from conftest import refuse_builds
from qmbox import analysis, eig
from qmbox.cli import main
from qmbox.eig import diagonalize
from qmbox.hamiltonian import ConstantMass, ProblemDefinition, _planned, build_hamiltonian
from qmbox.lattice import GridMemoryError, make_lattice, make_lattice_2d
from qmbox.operators import momentum_squared_matrix
from qmbox.problems import builtin_problem
from qmbox.solve import solve

MIB = 2**20
TESTS = Path(__file__).resolve().parent


def problem_2d(N, imag=None):
    grid = make_lattice_2d(12.0, (N - 1) // 2, 12.0, (N - 1) // 2)
    return ProblemDefinition(name="plan", grid=grid, ordering=ConstantMass(1.0),
                             potential_real=lambda x, y: 0.5 * (x**2 + y**2),
                             potential_imag=imag, energy_unit="model")


def pt_2d(N):
    return problem_2d(N, imag=lambda x, y: 0.1 * x * y * (x + y))


def folded_imag_2d(N):
    return problem_2d(N, imag=lambda x, y: 0.1 * x**2)


def builtin(problem_id):
    return lambda N: builtin_problem(problem_id, N=N)


# Each path as (problem on N points, N, n_states, the N of its warm-up solve)
# at a grid whose largest array holds at least 8 MiB: the real N x N kinetic
# matrix or H at N = 1025, a complex H at 725, a 2D block's vectors at 33^2,
# and the contracted solve's top-rung buffer of 1320 x 1312 on 81^2, which
# its two blocks share.
PATHS = {
    "morse 1025, full: eigh": (builtin("morse"), 1025, None, 101),
    "pdm_ho_1 1025, full: folded eigh, a three-array kinetic build": (
        builtin("pdm_ho_1"), 1025, None, 101),
    "nh3 1025, 10 states: folded general, real": (builtin("nh3"), 1025, 10, 101),
    "pt_oscillator 1025, 5 states: PT real form": (builtin("pt_oscillator"), 1025, 5, 101),
    "non_pt_oscillator 725, full: general, complex": (
        builtin("non_pt_oscillator"), 725, None, 101),
    "henon-heiles 33^2, full: 2D blocks assembled for eigh": (
        builtin("henon_heiles"), 33, None, 21),
    "2D PT 33^2, full": (pt_2d, 33, None, 21),
    "2D V_imag folded 33^2, full: 2D blocks assembled for eig": (folded_imag_2d, 33, None, 21),
    "henon-heiles 81^2, 60 states: contracted": (builtin("henon_heiles"), 81, 60, 55),
    "nh3 1025, full: real vectors counted complex": (builtin("nh3"), 1025, None, 101),
}
LEVELS = {f"{problem_id} {N}, levels": (builtin(problem_id), N, None, 101)
          for problem_id, N in (("morse", 1025), ("nh3", 1025), ("non_pt_oscillator", 725))}


def _resident(field: str) -> int:
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) * 1024 for line in status if line.startswith(field))


def measure(name: str) -> tuple[int, int]:
    """In a fresh process: the predicted peak of the named case and the
    growth of the process's peak resident memory over its solve, after a
    warm-up solve of the same path on a small grid."""
    levels = name in LEVELS
    make, N, n_states, warm_N = (LEVELS if levels else PATHS)[name]

    def run(problem):
        if levels:
            plan, blocks = _planned(problem, vectors=False)
            return eig._levels(plan, list(blocks))
        return solve(problem, n_states)

    run(make(warm_N))
    problem = make(N)
    plan, _ = _planned(problem, n_states, vectors=not levels)
    before = _resident("VmRSS")
    run(problem)
    return plan.peak, _resident("VmHWM") - before


def measured_in_fresh_process(name: str) -> tuple[int, int]:
    # One BLAS thread, so that the buffers that BLAS keeps per thread do
    # not vary with the machine's cores, and a fixed mmap threshold, so
    # that every freed array goes back to the system at once and resident
    # memory follows the arrays held rather than the allocator's pools.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)]),
           "OPENBLAS_NUM_THREADS": "1", "MALLOC_MMAP_THRESHOLD_": str(2**17)}
    code = "import sys; from test_plan import measure; print(*measure(sys.argv[1]))"
    done = subprocess.run([sys.executable, "-c", code, name], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    predicted, measured = map(int, done.stdout.split())
    return predicted, measured


@pytest.fixture(scope="module")
def peaks() -> dict:
    """(predicted, measured) peak bytes of every case, two processes at a time."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip([*PATHS, *LEVELS], pool.map(measured_in_fresh_process,
                                                     [*PATHS, *LEVELS])))


@pytest.mark.parametrize("name", [name for name in PATHS if "counted complex" not in name]
                         + list(LEVELS))
def test_predicted_peak_bounds_the_measured_peak(name, peaks):
    predicted, measured = peaks[name]
    assert 1.0 <= predicted / measured <= 1.5


def test_real_general_vectors_bound_the_measured_peak(peaks):
    # a real non-symmetric block's vectors are complex once one level is,
    # and numpy tells only after the decomposition: the plan counts them
    # complex, so nh3's full spectrum, all real, is over-counted, but bounded
    predicted, measured = peaks["nh3 1025, full: real vectors counted complex"]
    assert predicted >= measured


def test_refused_solve_allocates_nothing_grid_sized(monkeypatch):
    # every array of pt_oscillator's 5 states on 12001 points is under the
    # cap, but its real-form decomposition would hold eight 1 GiB matrices
    problem = builtin_problem("pt_oscillator", N=12001)
    refuse_builds(monkeypatch)
    tracemalloc.start()
    try:
        with pytest.raises(GridMemoryError) as caught:
            solve(problem, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(caught.value) == ("a solve on 12001 sites has a predicted peak of 8.65 GiB, "
                                 "over the memory cap of 4.00 GiB")
    assert peak < MIB   # the sampled grid functions, 94 KiB each


def test_built_2d_hamiltonian_takes_the_contracted_solve():
    # building costs the factors alone, so the 129^2 block, whose full
    # decomposition would pass the cap, is built and solved for 10 states
    problem = builtin_problem("henon_heiles", N=129)
    spectrum = diagonalize(build_hamiltonian(problem), problem.grid, 10)
    assert spectrum.n_states == 10 and np.all(np.isfinite(spectrum.eigenvalues))


def test_lattice_operator_over_the_cap_is_refused():
    grid = make_lattice(1.0, 20000)   # 40001 points: p^2 would take 11.9 GiB
    tracemalloc.start()
    try:
        with pytest.raises(GridMemoryError, match="40001 x 40001 lattice operator"):
            momentum_squared_matrix(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * MIB   # the 2N - 1 offset values and their temporaries


def test_scan_refuses_its_last_grid_before_solving_the_first(monkeypatch):
    solved = []
    real = analysis._levels

    def spy(plan, blocks):
        solved.append(blocks)
        return real(plan, blocks)

    monkeypatch.setattr(analysis, "_levels", spy)
    grids = [41 + 2 * i for i in range(11)] + [30001]
    with pytest.raises(GridMemoryError, match="a solve on 30001 sites"):
        analysis.convergence_scan(builtin_problem("morse"), "fixed_L_vary_N", grids)
    assert solved == []


FALLBACK = "henon-heiles 47^2, 60 states: the ladder falls back"
# Each run and whether each plan it makes takes the ladder: one plan per
# solve and per scan grid, made before the build and solved from, and a
# second, dense, only where the ladder ends unconverged.
PLANNED = {
    "nh3 solve": (lambda: solve(builtin_problem("nh3"), 10), [False]),
    "henon-heiles 55^2, 60 states: the ladder converges": (
        lambda: solve(builtin_problem("henon_heiles", N=55), 60), [True]),
    "12-grid scan": (lambda: analysis.convergence_scan(builtin_problem("pdm_ho_1"), "fixed_L_vary_N",
                                                       [41 + 2 * i for i in range(12)]), [False] * 12),
    FALLBACK: (lambda: solve(builtin_problem("henon_heiles", N=47), 60), [True, False]),
}


@pytest.mark.parametrize("name", PLANNED)
def test_each_solve_and_scan_grid_is_planned_once(name, monkeypatch):
    run, ladders = PLANNED[name]
    if name == FALLBACK:
        monkeypatch.setattr(eig, "_CONTRACTION_TOL", 0)   # no rung can stop the ladder
    plans = []
    real = eig._plan

    def spy(*args, **kwargs):
        plans.append(real(*args, **kwargs))
        return plans[-1]

    monkeypatch.setattr(eig, "_plan", spy)
    run()
    assert [bool(plan.rungs) for plan in plans] == ladders


LADDER = [16, 20, 24, 28, 32]
# Each solve as (problem, n_states, its blocks' paths on the result, the n_c
# of its planned rungs, hermitian_path, mirror_axes); rungs with "eigh"
# blocks mark the dense re-plan of a ladder that ended unconverged
RECORDS = {
    "nh3: two general blocks, x folded": (
        lambda: builtin_problem("nh3"), None, ["eig", "eig"], [], False, ("x",)),
    "pt_oscillator: one PT block": (
        lambda: builtin_problem("pt_oscillator"), None, ["pt"], [], False, ()),
    "morse: one whole-grid block": (lambda: builtin_problem("morse"), None, ["eigh"], [], True, ()),
    "henon_heiles 55^2, 60 states: a converged ladder": (
        lambda: builtin_problem("henon_heiles", N=55), 60, ["contracted"] * 2, LADDER, True, ("x",)),
    "henon_heiles 45^2 L=16, 100 states: the ladder's fallback": (
        lambda: builtin_problem("henon_heiles", N=45, L=16.0), 100, ["eigh"] * 2, LADDER, True,
        ("x",)),
}


@pytest.mark.parametrize("name", RECORDS)
def test_the_result_carries_the_plan_it_carried_out(name):
    make, n_states, paths, rungs, hermitian, axes = RECORDS[name]
    problem = make()
    planned = _planned(problem, n_states)[0]
    spectrum = solve(problem, n_states)
    plan = spectrum.plan
    assert [b.path for b in plan.blocks] == paths and plan.n_states == n_states
    assert [n_c for n_c, _ in plan.rungs] == rungs
    assert (spectrum.hermitian_path, spectrum.mirror_axes) == (hermitian, axes)
    if "fallback" in name:   # the dense re-plan: the same blocks, sized as dense
        assert plan.rungs == planned.rungs and plan.peak > planned.peak
        assert [b.sites for b in plan.blocks] == [b.sites for b in planned.blocks]
    else:
        assert plan == planned


def test_completeness_over_the_cap_is_exit_2(monkeypatch, capsys):
    refuse_builds(monkeypatch)
    assert main(["completeness", "--problem", "morse", "--N", "18001"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: a solve on 18001 sites has a predicted peak")
