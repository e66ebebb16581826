"""Contracted solves of large 2D Hermitian problems against the dense oracle.

A Hermitian 2D problem whose largest block has at least
``_CONTRACTION_MIN_SIZE`` sites, and of which only the lowest levels are
asked for, has every block solved in a basis of 1D eigenstates of its long
axis (``eig._contracted_pairs``): one path per problem, chosen by its
largest block.  The full decomposition of each assembled block,
``kronecker_sum`` of its factors, is the oracle.
"""

import collections
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import lapack

from qmbox import eig, operators
from qmbox.cli import main
from qmbox.eig import SolverError, diagonalize, diagonalize_blocks, phase_fix
from qmbox.hamiltonian import (ConstantMass, ProblemDefinition, build_hamiltonian,
                               hamiltonian_blocks)
from qmbox.lattice import make_lattice_2d
from qmbox.operators import OperatorMatrix, kronecker_sum
from qmbox.problems import builtin_problem, henon_heiles_well_radius_sq
from qmbox.solve import solve


def problem_2d(potential, N, L):
    grid = make_lattice_2d(L, (N[0] - 1) // 2, L, (N[1] - 1) // 2)
    return ProblemDefinition(name="contracted", grid=grid, ordering=ConstantMass(1.0),
                             potential_real=potential, energy_unit="model")


CASES = {
    "henon-heiles 55^2, 60 states": (lambda: builtin_problem("henon_heiles", N=55), 60, ("x",)),
    "henon-heiles 61^2, the CLI's 10 states": (lambda: builtin_problem("henon_heiles"), 10, ("x",)),
    "even in neither, one block": (
        lambda: problem_2d(lambda x, y: 0.5 * ((x - 0.3)**2 + 1.3 * (y + 0.2)**2) + 0.05 * x * y,
                           (33, 37), 12.0), 20, ()),
    "even in both, four blocks": (
        lambda: problem_2d(lambda x, y: 0.5 * (x**2 + 1.2 * y**2) + 0.05 * x**2 * y**2,
                           (65, 65), 14.0), 30, ("x", "y")),
    # blocks of 1035 and 990 sites, on either side of _CONTRACTION_MIN_SIZE
    "henon-heiles 45^2, 40 states": (
        lambda: builtin_problem("henon_heiles", N=45, L=16.0), 40, ("x",)),
    "isotropic oscillator 65^2: the cut inside an exact doublet of one block": (
        lambda: problem_2d(lambda x, y: 0.5 * (x**2 + y**2), (65, 65), 14.0), 12, ("x", "y")),
    # blocks of 1024, 992, 992 and 961 sites: only the largest reaches the size
    **{f"even in both 63^2, {n} states": (
        lambda: problem_2d(lambda x, y: 0.5 * (x**2 + 1.2 * y**2) + 0.05 * x**2 * y**2,
                           (63, 63), 14.0), n, ("x", "y")) for n in (12, 30, 60)},
}


def dense_oracle(problem, n_states):
    """The full decomposition of each block, assembled as a bare dense
    matrix, truncated to the lowest ``n_states`` pairs."""
    blocks = [OperatorMatrix(kronecker_sum(*b.factors), b.hermitian_hint, b.parity)
              for b in hamiltonian_blocks(problem)]
    return phase_fix(diagonalize_blocks(blocks, problem.grid, n_states))


def mean_r2(problem, spectrum):
    X, Y = problem.grid.meshgrid()
    return spectrum.weight * ((np.abs(spectrum.eigenvectors) ** 2).T @ (X**2 + Y**2).ravel())


@pytest.mark.parametrize("name", list(CASES))
def test_contracted_solve_matches_dense_oracle(name, monkeypatch):
    make, n_states, axes = CASES[name]
    problem = make()
    blocks = list(hamiltonian_blocks(problem))
    assert max(b.dim for b in blocks) >= eig._CONTRACTION_MIN_SIZE
    contracted = []
    real_pairs = eig._contracted_pairs

    def spy(*args):
        contracted.append(len(args[0]))
        return real_pairs(*args)

    monkeypatch.setattr(eig, "_contracted_pairs", spy)
    spectrum = solve(problem, n_states)
    assert contracted == [len(blocks)]   # every block, in one lockstep ladder
    dense = dense_oracle(problem, n_states)

    assert spectrum.mirror_axes == dense.mirror_axes == axes
    assert spectrum.hermitian_path and spectrum.n_states == n_states
    np.testing.assert_allclose(spectrum.eigenvalues, dense.eigenvalues, rtol=1e-12, atol=0)
    assert spectrum.residuals.max() <= 1e-9
    v = spectrum.eigenvectors
    np.testing.assert_allclose(spectrum.weight * (v.T @ v), np.eye(n_states), rtol=0, atol=1e-12)
    inside = mean_r2(problem, spectrum) <= henon_heiles_well_radius_sq()
    np.testing.assert_array_equal(inside, mean_r2(problem, dense) <= henon_heiles_well_radius_sq())
    np.testing.assert_allclose(mean_r2(problem, spectrum), mean_r2(problem, dense), rtol=1e-8)


def test_residuals_are_full_grid_residuals():
    # the matrix-free residuals and the closed-form ||H||_F against the
    # assembled H of the whole grid
    problem = builtin_problem("henon_heiles", N=47)   # blocks of 1128 and 1081 sites
    spectrum = solve(problem, 60)
    H = build_hamiltonian(problem).matrix
    w, v = spectrum.eigenvalues, spectrum.eigenvectors
    dense = np.linalg.norm(H @ v - v * w, axis=0) / np.linalg.norm(H)
    np.testing.assert_allclose(spectrum.residuals, dense, rtol=1e-6, atol=1e-15)


def test_dense_path_is_not_called(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a contracted block reached the dense path")
    monkeypatch.setattr(eig, "_dense_pairs", refuse)
    spectrum = solve(builtin_problem("henon_heiles", N=55), 60)
    assert spectrum.n_states == 60


def test_no_dense_block_on_success_and_every_caller(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a dense block was assembled")
    problem = builtin_problem("henon_heiles", N=47)
    monkeypatch.setattr(operators, "kronecker_sum", refuse)
    blocks = list(hamiltonian_blocks(problem))
    folded = diagonalize_blocks(iter(blocks), problem.grid, 60)
    # build_hamiltonian's single unfolded block takes the same path
    op = build_hamiltonian(problem)
    whole = diagonalize(op, problem.grid, 60)
    assert all("matrix" not in vars(block) for block in blocks + [op])   # nothing cached
    assert whole.mirror_axes == ()
    np.testing.assert_allclose(whole.eigenvalues, folded.eigenvalues, rtol=1e-12, atol=0)


@pytest.mark.parametrize("make, n_states, decompositions", [
    # x folded: the odd block's 23 x-lines are the even block's first 23
    (lambda: builtin_problem("henon_heiles", N=47), 60, 24),
    # 65^2 folded on both axes: the EE and OE blocks run their lines along
    # the same even y matrix, so OE's 32 x-lines are EE's first 32; EO runs
    # along even x and OO along odd y, and share nothing: 33 + 32 + 32
    (CASES["even in both, four blocks"][0], 30, 97),
], ids=["henon-heiles 47^2, 60 states", "even in both, four blocks"])
def test_each_distinct_line_is_decomposed_once(make, n_states, decompositions, monkeypatch):
    problem = make()
    calls = []
    real_syevd = lapack.dsyevd

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real_syevd(*args, **kwargs)

    monkeypatch.setattr(lapack, "dsyevd", counting)
    spectrum = solve(problem, n_states)
    assert len(calls) == decompositions
    assert spectrum.residuals.max() <= 1e-9


def test_levels_by_bisection_and_vectors_for_the_kept_levels_alone(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("all levels of a rung, or a second bisection")
    monkeypatch.setattr(lapack, "dsterf", refuse)
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", refuse)
    given = []
    real_stein = lapack.dstein

    def spy(d, e, w, iblock, isplit):
        given.append(len(w))
        return real_stein(d, e, w, iblock, isplit)

    monkeypatch.setattr(lapack, "dstein", spy)
    spectrum = solve(builtin_problem("henon_heiles", N=81, L=19.0), 60)
    # the even block owns 33 of the 60 merged levels and the odd block 27
    assert given == [33, 27]
    assert spectrum.n_states == 60 and spectrum.residuals.max() <= 1e-9


def tridiagonal_levels(d, e):
    return np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))


def test_count_is_exact_at_and_beside_known_levels():
    # 2x2 blocks [[a, b], [b, a]] with dyadic a and b have the levels a -/+ b
    # exactly, and ?stebz splits the matrix at each zero of e: a level is
    # counted at sigma equal to it, and not one ulp below
    d = np.array([-3.25, -3.25, -1.0, 2.5, 2.5, 0.75])
    e = np.array([0.5, 0.0, 0.0, -1.5, 0.0])
    levels = [-3.75, -2.75, -1.0, 0.75, 1.0, 4.0]
    np.testing.assert_array_equal(tridiagonal_levels(d, e), levels)
    for j, level in enumerate(levels):
        counts = [sum(eig._counts([(d, e)], s))
                  for s in (np.nextafter(level, -np.inf), level, np.nextafter(level, np.inf))]
        assert counts == [j, j + 1, j + 1]


@pytest.mark.parametrize("seed", range(4))
def test_count_matches_eigvalsh_on_random_tridiagonals(seed):
    # two random tridiagonals with negative levels, merged: exact between
    # the levels, and one of the two neighbouring counts at a level and one
    # ulp either side of it, never decreasing
    rng = np.random.default_rng(seed)
    pairs = [(rng.normal(-2.0, 3.0, n), rng.normal(0.0, 1.5, n - 1)) for n in (37, 50)]
    levels = np.sort(np.concatenate([tridiagonal_levels(d, e) for d, e in pairs]))
    assert levels[0] < 0 and np.min(np.diff(levels)) > 1e-9
    assert sum(eig._counts(pairs, levels[0] - 1.0)) == 0
    assert sum(eig._counts(pairs, levels[-1] + 1.0)) == levels.size
    for j in range(levels.size - 1):
        assert sum(eig._counts(pairs, 0.5 * (levels[j] + levels[j + 1]))) == j + 1
    for j, level in enumerate(levels):
        counts = [sum(eig._counts(pairs, s))
                  for s in (np.nextafter(level, -np.inf), level, np.nextafter(level, np.inf))]
        assert counts == sorted(counts) and set(counts) <= {j, j + 1}


@pytest.mark.parametrize("shift", [0.0, 6.0, -6.0, -40.0])
def test_two_norm_is_the_largest_level_magnitude(shift):
    # at shifts 0, -6 and -40 Gershgorin's bound leaves room below -|top|,
    # so the lowest level is bisected, and at -6 and -40 it outweighs the
    # top; at +6 the bound shows that the top alone decides
    rng = np.random.default_rng(3)
    d, e = rng.normal(shift, 3.0, 60), rng.normal(0.0, 1.5, 59)
    levels = tridiagonal_levels(d, e)
    floor = eig._gershgorin_floor(d, e)
    assert floor <= levels[0]
    norm = eig._two_norm(d, e, eig._bisect(d, e, index=(60, 60))[0][0], floor)
    assert norm == pytest.approx(np.abs(levels).max(), rel=1e-14)


def test_count_bisection_isolates_the_merged_level():
    rng = np.random.default_rng(7)
    pairs = [(rng.normal(-2.0, 3.0, n), rng.normal(0.0, 1.5, n - 1)) for n in (40, 33)]
    levels = np.sort(np.concatenate([tridiagonal_levels(d, e) for d, e in pairs]))
    for n in (1, 6, 30, 73):
        low, high = eig._nth_level(pairs, n, levels[0] - 1.0, levels[-1] + 1.0, 1e-13)
        assert low == high and abs(high - levels[n - 1]) <= 1e-13
    # a double level of one tridiagonal: counts cannot part its two members,
    # so the interval ends at the width given, still holding the level
    d, e = np.array([-3.25, -3.25, -3.25, -3.25]), np.array([0.5, 0.0, 0.5])
    for n in (1, 2):
        low, high = eig._nth_level([(d, e)], n, -5.0, 0.0, 1e-13)
        assert 0 < high - low <= 1e-13 and low < -3.75 <= high


def test_the_ladder_carries_an_interval_through_a_doublet_of_one_block(monkeypatch):
    # the 12th of the isotropic oscillator's levels is one of the five with
    # nx + ny = 4, and the even-even block holds (4, 0) and (0, 4), an exact
    # doublet that Sturm counts cannot part: on both rungs, 16 and 20,
    # ``_nth_level`` ends at an interval, so rung 20 bisects up to its upper
    # end, and the levels still match the dense oracle
    # (test_contracted_solve_matches_dense_oracle)
    make, n_states, _ = CASES[
        "isotropic oscillator 65^2: the cut inside an exact doublet of one block"]
    found = []
    real_nth = eig._nth_level

    def spy(*args):
        low, high = real_nth(*args)
        found.append(high - low)
        return low, high

    monkeypatch.setattr(eig, "_nth_level", spy)
    spectrum = solve(make(), n_states)
    assert spectrum.n_states == n_states and spectrum.residuals.max() <= 1e-9
    assert len(found) == 2 and min(found) > 0


def test_only_the_rungs_that_can_stop_are_bisected(monkeypatch):
    # 81^2, L = 19, 60 states visits rungs 16, 20, 24 and 28.  Rung 16 is the
    # first, and the 60th level falls by far more than the stop tolerance
    # from 16 to 20, which counts show.  From 20 to 24 it falls by only 0.78
    # of it (levels 55, 57 and 58, counted from 0, fall by 5 to 15 times
    # it), so counts cannot rule rung 24 out: 24 and 28 bisect their 33 + 27
    # levels at or below their own 60th level.  Every other ?stebz call
    # counts, with an infinite tolerance, or bisects a single level.
    calls = []
    real_stebz = lapack.dstebz

    def spy(d, e, range_, vl, vu, il, iu, abstol, order):
        out = real_stebz(d, e, range_, vl, vu, il, iu, abstol, order)
        calls.append((d.size, math.isfinite(abstol), out[0]))
        return out

    monkeypatch.setattr(lapack, "dstebz", spy)
    spectrum = solve(builtin_problem("henon_heiles", N=81, L=19.0), 60)
    assert spectrum.n_states == 60 and spectrum.residuals.max() <= 1e-9
    bisected = [(n, m) for n, finite, m in calls if finite and m > 1]
    assert bisected == [(984, 33), (960, 27), (1148, 33), (1120, 27)]
    # Each block's top level and the 60th merged level on every rung: counts
    # narrow the 60th down to one level of each block (it is one of a
    # doublet across the blocks), which is bisected.  No lowest level:
    # Gershgorin's bound keeps it within the top's magnitude.
    singles = collections.Counter(n for n, finite, m in calls if finite and m == 1)
    assert singles == {n: 2 for k in (16, 20, 24, 28) for n in (41 * k, 40 * k)}
    assert len(bisected) + sum(singles.values()) == sum(finite for _, finite, _ in calls)
    # on 55^2 the same solve bisects on the stopping rung alone
    calls.clear()
    solve(builtin_problem("henon_heiles", N=55), 60)
    assert [(n, m) for n, finite, m in calls if finite and m > 1] == [(784, 33), (756, 27)]


def test_count_stop_test_agrees_with_the_levels():
    # the count form of the stop test against the bisected levels of both
    # rungs: 81^2 does not stop at 24 and stops at 28
    blocks = list(hamiltonian_blocks(builtin_problem("henon_heiles", N=81, L=19.0)))
    lines = [eig._line_basis(*block.factors, {}) for block in blocks]
    rungs = {k: [eig._tridiagonal(eig._contracted_matrix(*line[:3], k))[1:3] for line in lines]
             for k in (20, 24, 28)}
    eps = np.finfo(float).eps
    for last, k, stops in ((20, 24, False), (24, 28, True)):
        tol = 64 * eps * max(abs(eig._bisect(d, e, index=(i, i))[0][0])
                             for d, e in rungs[k] for i in (1, d.size))
        merged = [np.sort(np.concatenate([eig._bisect(d, e, index=(1, 60))[0]
                                          for d, e in rungs[r]]))[:60] for r in (last, k)]
        assert (np.max(merged[0] - merged[1]) <= tol) == stops
        assert eig._settled(rungs[last], merged[1], tol) == stops


@pytest.mark.parametrize("N, n_states", [(47, 23), (47, 59), (55, 40)])
def test_cut_through_a_doublet_across_the_blocks(N, n_states):
    # levels n_states - 1 and n_states are an E doublet of Henon-Heiles with
    # one member in each parity block, split by 2e-15 to 3e-13 relative
    problem = builtin_problem("henon_heiles", N=N)
    dense = np.sort(np.concatenate([np.linalg.eigvalsh(b.matrix)
                                    for b in hamiltonian_blocks(problem)]))
    assert dense[n_states] - dense[n_states - 1] <= 3e-13 * dense[n_states]
    spectrum = solve(problem, n_states)
    assert spectrum.n_states == n_states
    np.testing.assert_allclose(spectrum.eigenvalues, dense[:n_states], rtol=0,
                               atol=1e-12 * dense[n_states])
    assert spectrum.residuals.max() <= 1e-9


@pytest.mark.parametrize("make, n_states", [
    (lambda: builtin_problem("henon_heiles"), 1),
    (CASES["even in both, four blocks"][0], 1),
    (CASES["even in both, four blocks"][0], 3),
], ids=["henon-heiles 61^2, 1 state", "four blocks, 1 state", "four blocks, 3 states"])
def test_a_block_with_no_level_below_the_cut(make, n_states, monkeypatch):
    # past the first rung a block whose lowest level lies above the merged
    # n_states-th bisects no level, and keeps no vector
    given = []
    real_stein = lapack.dstein

    def spy(d, e, w, iblock, isplit):
        given.append(len(w))
        return real_stein(d, e, w, iblock, isplit)

    monkeypatch.setattr(lapack, "dstein", spy)
    problem = make()
    spectrum = solve(problem, n_states)
    assert 0 in given and sum(given) == n_states
    dense = dense_oracle(problem, n_states)
    np.testing.assert_allclose(spectrum.eigenvalues, dense.eigenvalues, rtol=1e-12, atol=0)
    assert spectrum.residuals.max() <= 1e-9
    v = spectrum.eigenvectors
    np.testing.assert_allclose(spectrum.weight * (v.T @ v), np.eye(n_states), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n_states, rungs", [(60, [16, 20, 24, 28]), (10, [16, 20])])
def test_rungs_visited(n_states, rungs, monkeypatch):
    calls = []
    real_matrix = eig._contracted_matrix

    def spy(*args):
        calls.append(args[3])   # basis functions per short-axis site
        return real_matrix(*args)

    monkeypatch.setattr(eig, "_contracted_matrix", spy)
    solve(builtin_problem("henon_heiles"), n_states)
    assert [k for k, _ in itertools.groupby(calls)] == rungs
    assert len(calls) == 2 * len(rungs)   # both blocks on every rung


def test_back_transform_is_blocked_and_reads_q_in_place(monkeypatch):
    # the 1148-row rung of the even 81^2 Henon-Heiles block at 28 per line
    block = next(hamiltonian_blocks(builtin_problem("henon_heiles", N=81)))
    line = eig._line_basis(*block.factors, {})
    q, d, e, tau = eig._tridiagonal(eig._contracted_matrix(*line[:3], 28))
    assert q.shape == (1148, 1148)
    w_all, iblock, isplit = eig._bisect(d, e, index=(1, 60))
    cut = w_all[32]   # the 33 lowest of 60 bisected levels
    blocks = np.zeros_like(isplit)   # ?stein reads 33 of its 1148 entries
    blocks[:33] = iblock[:33]
    z_old, info = lapack.dstein(d, e, w_all[:33], blocks, isplit)
    assert not info
    real_ormqr = lapack.dormqr
    query = int(real_ormqr("L", "N", q[1:, :-1], tau, z_old[1:], lwork=-1)[1][0])
    # the copy-based call on q[1:, :-1] with the full workspace
    z_old[1:] = real_ormqr("L", "N", q[1:, :-1], tau, z_old[1:], lwork=query)[0]
    given = []

    def spy(*args, lwork):
        given.append(lwork)
        return real_ormqr(*args, lwork=lwork)

    monkeypatch.setattr(lapack, "dormqr", spy)
    tracemalloc.start()
    try:
        w, z = eig._kept_vectors(q, d, e, tau, w_all, iblock, isplit, cut)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    applied = [lwork for lwork in given if lwork != -1]   # not the workspace query
    assert applied and min(applied) >= query   # never the unblocked ?orm2r
    assert peak < q.nbytes / 4   # no copy of the reflectors
    np.testing.assert_array_equal(w, w_all[:33])
    np.testing.assert_array_equal(z, z_old)


def test_full_spectra_stay_dense(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a full spectrum took the contracted solve")
    problem = builtin_problem("henon_heiles", N=33)   # 1089 sites unfolded
    op = build_hamiltonian(problem)
    monkeypatch.setattr(eig, "_contracted_pairs", refuse)
    spectrum = diagonalize(op, problem.grid)
    assert spectrum.n_states == problem.size


def test_a_block_too_small_for_n_states_sends_every_block_dense(monkeypatch):
    # 45^2 at 1000 states: the odd block has 990 sites, fewer than the
    # levels asked for, so neither block takes the ladder, and the spectrum
    # is the dense oracle's bitwise
    def refuse(*args, **kwargs):
        raise AssertionError("a block took the contracted solve")
    problem = builtin_problem("henon_heiles", N=45)
    assert sorted(b.dim for b in hamiltonian_blocks(problem)) == [990, 1035]
    reference = dense_oracle(problem, 1000)
    monkeypatch.setattr(eig, "_contracted_pairs", refuse)
    spectrum = solve(problem, 1000)
    for name in ("eigenvalues", "eigenvectors", "residuals"):
        np.testing.assert_array_equal(getattr(spectrum, name), getattr(reference, name))


def test_unconverged_ladder_falls_back_to_full_decomposition_bitwise(monkeypatch):
    problem = builtin_problem("henon_heiles", N=47)
    reference = dense_oracle(problem, 60)
    assembled = []
    real_sum = operators.kronecker_sum

    def counting(*args):
        assembled.append(args[0].shape)
        return real_sum(*args)

    monkeypatch.setattr(eig, "_CONTRACTION_TOL", 0)
    monkeypatch.setattr(operators, "kronecker_sum", counting)
    spectrum = solve(problem, 60)
    assert len(assembled) == 2   # each block once, after the ladder
    for name in ("eigenvalues", "eigenvectors", "residuals"):
        np.testing.assert_array_equal(getattr(spectrum, name), getattr(reference, name))


def test_peak_memory_below_one_dense_block():
    problem = builtin_problem("henon_heiles", N=55)
    smallest = min(b.dim for b in hamiltonian_blocks(problem))
    tracemalloc.start()
    try:
        solve(problem, 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < smallest**2 * np.dtype(float).itemsize


def test_closed_form_norm_matches_dense():
    for block in hamiltonian_blocks(builtin_problem("henon_heiles", N=45)):
        dense = np.linalg.norm(block.matrix)
        assert math.sqrt(eig._kronecker_norm_sq(*block.factors)) == pytest.approx(dense, rel=1e-14)


@pytest.mark.parametrize("routine", ["syevd", "sytrd", "stebz", "stein", "ormqr"])
def test_lapack_failure_is_solver_error(routine, monkeypatch, capsys):
    # every status the contracted solve reads: a nonzero one is a numerical
    # failure, in the library and at the entry point alike
    real = getattr(lapack, "d" + routine)

    def failing(*args, **kwargs):
        return (*real(*args, **kwargs)[:-1], 1)

    monkeypatch.setattr(lapack, "d" + routine, failing)
    message = f"eigensolver did not converge: ?{routine} info 1"
    with pytest.raises(SolverError) as caught:
        solve(builtin_problem("henon_heiles"), 10)
    assert str(caught.value) == message
    assert main(["solve", "--problem", "henon_heiles", "--states", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"numerical failure: {message}\n" and captured.out == ""
