"""Contracted solves of large 2D Hermitian problems against the dense oracle.

A problem to which its plan gives rungs (``eig._rungs``, the one statement
of the path rule) has every block solved in a basis of 1D eigenstates of
its long axis (``eig._contracted_pairs``); fewer than two reachable rungs
means dense.  The full decomposition of each assembled block,
``kronecker_sum`` of its factors, is the oracle.
"""

import collections
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from conftest import built_blocks, cached_eigh, solved_blocks
from qmbox import eig, operators
from qmbox.cli import main
from qmbox.eig import SolverError, diagonalize, phase_fix
from qmbox.hamiltonian import ConstantMass, ProblemDefinition, _planned, build_hamiltonian
from qmbox.lattice import make_lattice_2d
from qmbox.operators import OperatorMatrix, kronecker_sum
from qmbox.problems import builtin_problem, henon_heiles_well_radius_sq
from qmbox.solve import solve

#: The LAPACK wrapper module whose routines the contracted solve calls, so
#: that a spy set on it sees every call.
lapack = eig._wrapper("_flapack")


def problem_2d(potential, N, L, imag=None):
    grid = make_lattice_2d(L, (N[0] - 1) // 2, L, (N[1] - 1) // 2)
    return ProblemDefinition(name="contracted", grid=grid, ordering=ConstantMass(1.0),
                             potential_real=potential, potential_imag=imag,
                             energy_unit="model")


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


def dense_oracle(problem, n_states, oracle_decompositions):
    """The full decomposition of each block, assembled as a bare dense
    matrix, truncated to the lowest ``n_states`` pairs; each distinct block
    is decomposed once per session (``conftest.cached_eigh``)."""
    blocks = [OperatorMatrix(kronecker_sum(*b.factors), b.hermitian_hint, b.parity)
              for b in built_blocks(problem)]
    with cached_eigh(oracle_decompositions):
        return phase_fix(solved_blocks(blocks, problem.grid, n_states))


def mean_r2(problem, spectrum):
    X, Y = problem.grid.meshgrid()
    return spectrum.weight * ((np.abs(spectrum.eigenvectors) ** 2).T @ (X**2 + Y**2).ravel())


@pytest.mark.parametrize("name", list(CASES))
def test_contracted_solve_matches_dense_oracle(name, monkeypatch, oracle_decompositions):
    make, n_states, axes = CASES[name]
    problem = make()
    blocks = list(built_blocks(problem))
    assert max(b.dim for b in blocks) >= eig._CONTRACTION_MIN_SIZE
    contracted = []
    real_pairs = eig._contracted_pairs

    def spy(*args):
        contracted.append(len(args[0]))
        return real_pairs(*args)

    monkeypatch.setattr(eig, "_contracted_pairs", spy)
    spectrum = solve(problem, n_states)
    assert contracted == [len(blocks)]   # every block, in one lockstep ladder
    dense = dense_oracle(problem, n_states, oracle_decompositions)

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
    blocks = list(built_blocks(problem))
    folded = solved_blocks(iter(blocks), problem.grid, 60)
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
    given, applied = [], []
    real_stein, real_ormqr = lapack.dstein, lapack.dormqr

    def spy_stein(d, e, w, iblock, isplit):
        given.append((d.size, len(w)))
        return real_stein(d, e, w, iblock, isplit)

    def spy_ormqr(side, trans, a, tau, c, lwork):
        if lwork != -1:   # not the workspace query
            applied.append(c.shape)
        return real_ormqr(side, trans, a, tau, c, lwork=lwork)

    monkeypatch.setattr(lapack, "dstein", spy_stein)
    monkeypatch.setattr(lapack, "dormqr", spy_ormqr)
    spectrum = solve(builtin_problem("henon_heiles", N=81, L=19.0), 60)
    # one inverse iteration on rung 28's joined tridiagonal of 1148 + 1120
    # rows, for the 60 merged levels alone; the even block takes back the
    # 33 that it owns, the odd block its 27
    assert given == [(2268, 60)]
    assert applied == [(1147, 33), (1119, 27)]
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
        counts = [eig._counts(d, e, s)
                  for s in (np.nextafter(level, -np.inf), level, np.nextafter(level, np.inf))]
        assert counts == [j, j + 1, j + 1]


@pytest.mark.parametrize("seed", range(4))
def test_count_matches_eigvalsh_on_random_tridiagonals(seed):
    # two random tridiagonals with negative levels, joined: exact between
    # their merged levels, and one of the two neighbouring counts at a level
    # and one ulp either side of it, never decreasing
    rng = np.random.default_rng(seed)
    pairs = [(rng.normal(-2.0, 3.0, n), rng.normal(0.0, 1.5, n - 1)) for n in (37, 50)]
    levels = np.sort(np.concatenate([tridiagonal_levels(d, e) for d, e in pairs]))
    assert levels[0] < 0 and np.min(np.diff(levels)) > 1e-9
    d, e = eig._joined(pairs)
    assert d.size == levels.size and e[36] == 0.0
    assert eig._counts(d, e, levels[0] - 1.0) == 0
    assert eig._counts(d, e, levels[-1] + 1.0) == levels.size
    for j in range(levels.size - 1):
        assert eig._counts(d, e, 0.5 * (levels[j] + levels[j + 1])) == j + 1
    for j, level in enumerate(levels):
        counts = [eig._counts(d, e, s)
                  for s in (np.nextafter(level, -np.inf), level, np.nextafter(level, np.inf))]
        assert counts == sorted(counts) and set(counts) <= {j, j + 1}


@pytest.mark.parametrize("shift", [0.0, 6.0, -6.0, -40.0])
def test_two_norm_is_the_largest_level_magnitude(shift):
    # a shifted and an unshifted random tridiagonal, joined: its lowest and
    # top levels, bisected by index as each rung does, are the lowest and
    # top of both, and the larger magnitude is ||T||_2; at shifts -6 and -40
    # the lowest level outweighs the top, at 0 and +6 the top does
    rng = np.random.default_rng(3)
    pairs = [(rng.normal(shift, 3.0, 60), rng.normal(0.0, 1.5, 59)),
             (rng.normal(0.0, 1.0, 30), rng.normal(0.0, 0.5, 29))]
    levels = np.sort(np.concatenate([tridiagonal_levels(d, e) for d, e in pairs]))
    d, e = eig._joined(pairs)
    low, top = (eig._bisect(d, e, index=(i, i))[0][0] for i in (1, d.size))
    assert low == pytest.approx(levels[0], rel=1e-14)
    assert top == pytest.approx(levels[-1], rel=1e-14)
    norm = max(abs(low), abs(top))
    assert norm == pytest.approx(np.abs(levels).max(), rel=1e-14)
    assert (abs(low) > abs(top)) == (shift < -1.0)


def test_count_bisection_isolates_the_merged_level():
    rng = np.random.default_rng(7)
    pairs = [(rng.normal(-2.0, 3.0, n), rng.normal(0.0, 1.5, n - 1)) for n in (40, 33)]
    levels = np.sort(np.concatenate([tridiagonal_levels(d, e) for d, e in pairs]))
    d, e = eig._joined(pairs)
    for n in (1, 6, 30, 73):
        w, _, _ = eig._bisect(d, e, index=(n, n))
        assert w.size == 1 and abs(w[0] - levels[n - 1]) <= 1e-13
    # a double level of one tridiagonal: counts cannot part its two members,
    # and ?stebz returns one of them for either index
    d, e = np.array([-3.25, -3.25, -3.25, -3.25]), np.array([0.5, 0.0, 0.5])
    for n, level in ((1, -3.75), (2, -3.75), (3, -2.75), (4, -2.75)):
        w, _, _ = eig._bisect(d, e, index=(n, n))
        assert w.size == 1 and abs(w[0] - level) <= 1e-13


def test_the_nth_level_of_the_joined_tridiagonal_through_doublets(monkeypatch):
    # The isotropic oscillator's levels are nx + ny + 1, so they come in
    # exact multiplets that Sturm counts cannot part.  On both rungs that the
    # 12-state solve visits, 16 and 20, the level 2 is a doublet split across
    # the EO and OE blocks, and the level 5 holds three levels of the EE
    # block and two of OO, with the 12th among them.  The joined
    # tridiagonal's n-th level, bisected by index as each rung takes it, is
    # the n-th of the blocks' levels merged, to a few eps ||T|| of either
    # solver's round-off.
    make, n_states, _ = CASES[
        "isotropic oscillator 65^2: the cut inside an exact doublet of one block"]
    rungs = []
    real_joined = eig._joined

    def spy(tridiagonals):
        rungs.append(tridiagonals)
        return real_joined(tridiagonals)

    monkeypatch.setattr(eig, "_joined", spy)
    spectrum = solve(make(), n_states)
    assert spectrum.n_states == n_states and spectrum.residuals.max() <= 1e-9
    assert len(rungs) == 2
    eps = np.finfo(float).eps
    for tridiagonals in rungs:
        per_block = [tridiagonal_levels(d, e) for d, e in tridiagonals]
        assert [np.sum(np.abs(w - 2.0) < 1e-9) for w in per_block] == [0, 1, 1, 0]
        assert [np.sum(np.abs(w - 5.0) < 1e-9) for w in per_block] == [3, 0, 0, 2]
        merged = np.sort(np.concatenate(per_block))
        d, e = real_joined(tridiagonals)
        for n in range(1, 16):
            (level,), _, _ = eig._bisect(d, e, index=(n, n))
            assert abs(level - merged[n - 1]) <= 32 * eps * np.abs(merged).max()


def test_only_the_rungs_that_can_stop_are_bisected(monkeypatch):
    # 81^2, L = 19, 60 states visits rungs 16, 20, 24 and 28, whose joined
    # tridiagonals have 41 k + 40 k rows.  Rung 16 is the first, and the
    # 60th level falls by far more than the stop tolerance from 16 to 20,
    # which a count shows.  From 20 to 24 it falls by only 0.78 of it
    # (levels 55, 57 and 58, counted from 0, fall by 5 to 15 times it), so
    # the count cannot rule rung 24 out: 24 and 28 bisect their 60 levels
    # at or below their own 60th level.  Every other ?stebz call counts,
    # with an infinite tolerance, or bisects a single level by index.
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
    assert bisected == [(1944, 60), (2268, 60)]
    # the lowest, top and 60th level of every rung's joined tridiagonal
    singles = collections.Counter(n for n, finite, m in calls if finite and m == 1)
    assert singles == {81 * k: 3 for k in (16, 20, 24, 28)}
    # counts: one on rung 20 that rules it out, and one on each of 24 and 28
    # that lets it through; then the stop rule counts on the rung before,
    # twice on 20 for rung 24, failing at the 59th level, and 60 times on
    # 24 for rung 28, which stops the ladder
    counted = [n for n, finite, _ in calls if not finite]
    assert counted == [1620, 1944, 1620, 1620, 2268] + [1944] * 60
    assert len(calls) == 79
    # on 55^2 the same solve bisects on the stopping rung alone
    calls.clear()
    solve(builtin_problem("henon_heiles", N=55), 60)
    assert [(n, m) for n, finite, m in calls if finite and m > 1] == [(1540, 60)]
    # the CLI's 10 states on 61^2 stop at rung 20: 6 bisections by index,
    # one count that lets rung 20 through, one bisection of its 10 lowest
    # levels and 10 counts of the stop rule
    calls.clear()
    solve(builtin_problem("henon_heiles"), 10)
    assert len(calls) == 18


def test_count_stop_test_agrees_with_the_levels():
    # the count form of the stop test against the bisected levels of both
    # rungs' joined tridiagonals: 81^2 does not stop at 24 and stops at 28
    blocks = list(built_blocks(builtin_problem("henon_heiles", N=81, L=19.0)))
    lines = [eig._line_basis(*block.factors, {}) for block in blocks]
    rungs = {k: eig._joined([eig._tridiagonal(eig._contracted_matrix(*line[:3], k))[1:3]
                             for line in lines])
             for k in (20, 24, 28)}
    eps = np.finfo(float).eps
    for last, k, stops in ((20, 24, False), (24, 28, True)):
        d, e = rungs[k]
        tol = 64 * eps * max(abs(eig._bisect(d, e, index=(i, i))[0][0]) for i in (1, d.size))
        merged = [np.sort(eig._bisect(*rungs[r], index=(1, 60))[0]) for r in (last, k)]
        assert (np.max(merged[0] - merged[1]) <= tol) == stops
        assert eig._settled(*rungs[last], merged[1], tol) == stops


@pytest.mark.parametrize("N, n_states", [(47, 23), (47, 59), (55, 40)])
def test_cut_through_a_doublet_across_the_blocks(N, n_states):
    # levels n_states - 1 and n_states are an E doublet of Henon-Heiles with
    # one member in each parity block, split by 2e-15 to 3e-13 relative
    problem = builtin_problem("henon_heiles", N=N)
    dense = np.sort(np.concatenate([np.linalg.eigvalsh(b.matrix)
                                    for b in built_blocks(problem)]))
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
def test_a_block_with_no_level_below_the_cut(make, n_states, monkeypatch, oracle_decompositions):
    # past the first rung a block whose lowest level lies above the merged
    # n_states-th has no level in the inverse iteration on the joined
    # tridiagonal, and takes no vector back through its reduction
    given, applied = [], []
    real_stein, real_ormqr = lapack.dstein, lapack.dormqr

    def spy_stein(d, e, w, iblock, isplit):
        given.append(len(w))
        return real_stein(d, e, w, iblock, isplit)

    def spy_ormqr(side, trans, a, tau, c, lwork):
        if lwork != -1:   # not the workspace query
            applied.append(c.shape[1])
        return real_ormqr(side, trans, a, tau, c, lwork=lwork)

    monkeypatch.setattr(lapack, "dstein", spy_stein)
    monkeypatch.setattr(lapack, "dormqr", spy_ormqr)
    problem = make()
    spectrum = solve(problem, n_states)
    assert given == [n_states]
    assert 0 in applied and sum(applied) == n_states
    dense = dense_oracle(problem, n_states, oracle_decompositions)
    np.testing.assert_allclose(spectrum.eigenvalues, dense.eigenvalues, rtol=1e-12, atol=0)
    assert spectrum.residuals.max() <= 1e-9
    v = spectrum.eigenvectors
    np.testing.assert_allclose(spectrum.weight * (v.T @ v), np.eye(n_states), rtol=0, atol=1e-12)


@pytest.mark.parametrize("grid, n_states, rungs, falls_back", [
    ({}, 60, [16, 20, 24, 28], False),
    ({}, 10, [16, 20], False),
    ({"N": 45, "L": 16.0}, 60, [16, 20, 24, 28], False),
    ({"N": 45, "L": 16.0}, 100, [16, 20, 24, 28, 32], True),
    ({"L": 22.0}, 60, [16, 20, 24, 28, 32], True),
    ({"L": 19.0}, 5, [16, 20], False),
], ids=["61^2, 60 states", "61^2, 10 states", "45^2 L=16, 60 states",
        "45^2 L=16, 100 states", "61^2 L=22, 60 states", "61^2 L=19, 5 states"])
def test_rungs_visited(grid, n_states, rungs, falls_back, monkeypatch, oracle_decompositions):
    problem = builtin_problem("henon_heiles", **grid)
    reference = dense_oracle(problem, n_states, oracle_decompositions) if falls_back else None
    calls, ends = [], []
    real_matrix, real_pairs = eig._contracted_matrix, eig._contracted_pairs

    def spy_matrix(*args):
        calls.append(args[3])   # basis functions per short-axis site
        return real_matrix(*args)

    def spy_pairs(*args):
        pairs = real_pairs(*args)
        ends.append(pairs is None)
        return pairs

    monkeypatch.setattr(eig, "_contracted_matrix", spy_matrix)
    monkeypatch.setattr(eig, "_contracted_pairs", spy_pairs)
    spectrum = solve(problem, n_states)
    assert [k for k, _ in itertools.groupby(calls)] == rungs
    assert len(calls) == 2 * len(rungs)   # both blocks on every rung
    assert ends == [falls_back]
    assert {b.path for b in spectrum.plan.blocks} == {"eigh" if falls_back else "contracted"}
    if falls_back:   # the full decomposition, bitwise the dense oracle's
        for name in ("eigenvalues", "eigenvectors", "residuals"):
            np.testing.assert_array_equal(getattr(spectrum, name), getattr(reference, name))


def test_back_transform_is_blocked_and_reads_q_in_place(monkeypatch):
    # the 1148- and 1120-row rungs of the 81^2 Henon-Heiles blocks at 28 per
    # line, joined, with the cut at the 40th of their 60 lowest levels
    lines = [eig._line_basis(*block.factors, {})
             for block in built_blocks(builtin_problem("henon_heiles", N=81))]
    rungs = [eig._tridiagonal(eig._contracted_matrix(*line[:3], 28)) for line in lines]
    assert [q.shape for q, _, _, _ in rungs] == [(1148, 1148), (1120, 1120)]
    d, e = eig._joined([rung[1:3] for rung in rungs])
    w_all, iblock, isplit = eig._bisect(d, e, index=(1, 60))
    cut = np.sort(w_all)[39]
    keep = w_all <= cut
    blocks = np.zeros_like(isplit)   # ?stein reads 40 of its 2268 entries
    blocks[:40] = iblock[keep]
    z_old, info = lapack.dstein(d, e, w_all[keep], blocks, isplit)
    assert not info
    order = np.argsort(w_all[keep], kind="stable")
    w_old, z_old = w_all[keep][order], z_old[:, order]
    real_ormqr = lapack.dormqr
    expected, start = [], 0
    for q, _, _, tau in rungs:
        rows = slice(start, start + q.shape[0])
        start = rows.stop
        mine = np.any(z_old[rows] != 0, axis=0)   # ?stein zeroes every other block's rows
        c = z_old[rows][:, mine]
        query = int(real_ormqr("L", "N", q[1:, :-1], tau, c[1:], lwork=-1)[1][0])
        # the copy-based call on q[1:, :-1] with the full workspace
        c[1:] = real_ormqr("L", "N", q[1:, :-1], tau, c[1:], lwork=query)[0]
        expected.append((w_old[mine], c, query))
    given = []

    def spy(*args, lwork):
        given.append(lwork)
        return real_ormqr(*args, lwork=lwork)

    monkeypatch.setattr(lapack, "dormqr", spy)
    tracemalloc.start()
    try:
        pairs = eig._kept_vectors(rungs, d, e, w_all, iblock, isplit, cut)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    applied = [lwork for lwork in given if lwork != -1]   # not the workspace queries
    assert len(applied) == 2
    assert all(lwork >= query for lwork, (_, _, query) in zip(applied, expected))   # never ?orm2r
    assert peak < rungs[1][0].nbytes / 4   # no copy of the reflectors
    assert [w.size for w, _ in pairs] == [22, 18]
    for (w, z), (w_ref, z_ref, _) in zip(pairs, expected):
        np.testing.assert_array_equal(w, w_ref)
        np.testing.assert_array_equal(z, z_ref)


def test_full_spectra_stay_dense(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a full spectrum took the contracted solve")
    problem = builtin_problem("henon_heiles", N=33)   # 1089 sites unfolded
    op = build_hamiltonian(problem)
    monkeypatch.setattr(eig, "_contracted_pairs", refuse)
    spectrum = diagonalize(op, problem.grid)
    assert spectrum.n_states == problem.size


@pytest.mark.parametrize("grid, n_states, sizes", [
    # the odd block has 990 sites, fewer than the levels asked for
    ({"N": 45}, 1000, [990, 1035]),
    # 5 x 401 sites fold in x into blocks of 2 and 3 lines of 401: the
    # thinner block holds 2 k levels on rung k, fewer than 60 below rung 32.
    # The joined tridiagonal would hold 5 k, enough from rung 12 on, yet a
    # ladder over it could not converge; rung 32 alone is reachable, and it
    # has no rung before it to stop against
    ({"Nx": 5, "Ny": 401, "Lx": 4.0, "Ly": 20.0}, 60, [802, 1203]),
], ids=["45^2, 1000 states", "5x401, 60 states: one reachable rung"])
def test_a_block_too_small_for_n_states_sends_every_block_dense(
        grid, n_states, sizes, monkeypatch, oracle_decompositions):
    # neither block takes the ladder, no line is decomposed for it, and the
    # spectrum is the dense oracle's bitwise
    def refuse(*args, **kwargs):
        raise AssertionError("a block took the contracted solve")
    problem = builtin_problem("henon_heiles", **grid)
    assert sorted(b.dim for b in built_blocks(problem)) == sizes
    reference = dense_oracle(problem, n_states, oracle_decompositions)
    monkeypatch.setattr(eig, "_contracted_pairs", refuse)
    monkeypatch.setattr(eig, "_line_basis", refuse)
    spectrum = solve(problem, n_states)
    for name in ("eigenvalues", "eigenvectors", "residuals"):
        np.testing.assert_array_equal(getattr(spectrum, name), getattr(reference, name))


def ladder(*kept_top):
    """Rungs 16 to 32, each block keeping n_c basis functions per site, or
    at most its long sites, as ``kept_top`` gives them on rung 32."""
    return tuple((n_c, tuple(min(n_c, k) for k in kept_top)) for n_c in (16, 20, 24, 28, 32))


@pytest.mark.parametrize("make, n_states, planned", [
    (lambda: builtin_problem("henon_heiles"), 60, ladder(32, 32)),
    (lambda: builtin_problem("henon_heiles"), 10, ladder(32, 32)),
    # blocks of 1035 and 990 sites, on either side of _CONTRACTION_MIN_SIZE
    (lambda: builtin_problem("henon_heiles", N=45, L=16.0), 100, ladder(32, 32)),
    # blocks of 1024, 992, 992 and 961 sites: the odd-odd block's lines hold 31
    (CASES["even in both 63^2, 60 states"][0], 60, ladder(32, 32, 32, 31)),
    (lambda: builtin_problem("henon_heiles"), None, ()),
    # V_imag mirror-even on both axes: folded, so not PT, and its factors complex
    (lambda: problem_2d(lambda x, y: 0.5 * (x**2 + y**2), (65, 65), 14.0,
                        imag=lambda x, y: 0.1 * x**2), 10, ()),
    (lambda: builtin_problem("henon_heiles", N=45), 1000, ()),
    (lambda: builtin_problem("henon_heiles", N=33), 60, ()),
    (lambda: builtin_problem("henon_heiles", Nx=5, Ny=401, Lx=4.0, Ly=20.0), 60, ()),
], ids=["61^2, 60 states", "61^2, 10 states", "45^2 L=16, 100 states",
        "even in both 63^2, 60 states", "full spectrum", "complex factors, folded",
        "45^2, 1000 states: a block below n_states", "33^2: largest block 561 sites",
        "5x401, 60 states: one reachable rung"])
def test_the_ladder_plan_from_block_shapes(make, n_states, planned):
    # the plan reads the blocks' factors alone: no eigensolve, no matrix;
    # the problem's own plan, made before its blocks, gives the same rungs
    problem = make()
    blocks = list(built_blocks(problem))
    plan = eig._plan([eig._block_of(b) for b in blocks], problem.size, n_states)
    assert plan.rungs == planned == _planned(problem, n_states)[0].rungs
    assert all((b.path == "contracted") == bool(planned) for b in plan.blocks)
    assert all("matrix" not in vars(block) for block in blocks)


def test_unconverged_ladder_falls_back_to_full_decomposition_bitwise(monkeypatch,
                                                                     oracle_decompositions):
    problem = builtin_problem("henon_heiles", N=47)
    reference = dense_oracle(problem, 60, oracle_decompositions)
    assembled = []
    real_sum = operators.kronecker_sum

    def counting(*args):
        assembled.append(args[0].shape)
        return real_sum(*args)

    monkeypatch.setattr(eig, "_CONTRACTION_TOL", 0)
    monkeypatch.setattr(operators, "kronecker_sum", counting)
    spectrum = solve(problem, 60)
    assert len(assembled) == 2   # each block once, after the ladder
    # the result carries the dense re-plan, marked by the ladder's rungs
    assert spectrum.plan.rungs and [b.path for b in spectrum.plan.blocks] == ["eigh", "eigh"]
    for name in ("eigenvalues", "eigenvectors", "residuals"):
        np.testing.assert_array_equal(getattr(spectrum, name), getattr(reference, name))


def test_peak_memory_below_one_dense_block():
    problem = builtin_problem("henon_heiles", N=55)
    smallest = min(b.dim for b in built_blocks(problem))
    tracemalloc.start()
    try:
        solve(problem, 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < smallest**2 * np.dtype(float).itemsize


def test_closed_form_norm_matches_dense():
    for block in built_blocks(builtin_problem("henon_heiles", N=45)):
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
