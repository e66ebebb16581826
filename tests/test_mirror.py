"""Mirror-parity block solves of 1D and 2D problems against the dense oracle.

``solve`` folds every axis along which the sampled grid functions equal
their mirror image and diagonalizes the blocks;
``diagonalize(build_hamiltonian(p))`` is the one dense matrix it must
reproduce.
"""

import math
import weakref

import numpy as np
import pytest
from conftest import built_blocks, complex_hamiltonian

from qmbox import eig, operators
from qmbox.eig import classify_parity, diagonalize, phase_fix
from qmbox.hamiltonian import (ConstantMass, ProblemDefinition, VonRoos,
                               build_hamiltonian, ordering_from_name)
from qmbox.lattice import make_lattice, make_lattice_2d
from qmbox.operators import (EVEN, ODD, PT, mirror_fold, mirror_momentum_ip, mirror_unfold,
                             momentum_ip, momentum_squared_matrix)
from qmbox.problems import BUILTIN_IDS, builtin_problem
from qmbox.solve import solve

LAM = 1.0 / math.sqrt(80.0)


def problem_2d(potential, Nx=15, Ny=15, L=12.0, potential_imag=None, mu=1.0):
    grid = make_lattice_2d(L, (Nx - 1) // 2, L, (Ny - 1) // 2)
    return ProblemDefinition(name="mirror", grid=grid, ordering=ConstantMass(mu),
                             potential_real=potential, potential_imag=potential_imag,
                             energy_unit="model")


def problem_1d(potential, N=41, L=12.0, mass=None, ordering=ConstantMass(1.0),
               potential_imag=None):
    return ProblemDefinition(name="mirror", grid=make_lattice(L, (N - 1) // 2),
                             ordering=ordering, potential_real=potential, mass=mass,
                             potential_imag=potential_imag, energy_unit="model")


def builtin(problem_id, ordering=None, **overrides):
    if ordering is not None:
        name, *params = ordering.split()
        overrides["ordering"] = ordering_from_name(name, *map(float, params))
    return lambda: builtin_problem(problem_id, **overrides)


CASES = {
    **{f"1D nh3 {o}": (builtin("nh3", o), None, ("x",))
       for o in ("mass-left", "mass-right", "mass-sandwich", "inverse-mass-anticommutator")},
    "1D nd3": (builtin("nd3"), None, ("x",)),
    "1D pdm_ho_1": (builtin("pdm_ho_1"), None, ("x",)),
    "1D pdm_ho_2": (builtin("pdm_ho_2"), None, ("x",)),
    "1D pdm_ho_1 von-roos -0.25 -0.25": (builtin("pdm_ho_1", "von-roos -0.25 -0.25"), None, ("x",)),
    "1D complex, mirror-even imaginary part": (
        lambda: problem_1d(lambda x: x**2, potential_imag=lambda x: 0.1 * x**2 - 0.3), 20, ("x",)),
    "1D even potential, asymmetric mass, one block": (
        lambda: problem_1d(lambda x: 0.5 * x**2, mass=lambda x: 1.0 + 0.1 * (x + 0.3)**2,
                           ordering=VonRoos(0.0, 0.0)), None, ()),
    "1D one site": (lambda: problem_1d(lambda x: 0.5 * x**2 + 1.0, N=1), None, ("x",)),
    "1D three sites": (lambda: problem_1d(lambda x: 0.5 * x**2, N=3, L=3.0), None, ("x",)),
    "1D more states than the largest block": (
        lambda: problem_1d(lambda x: 0.5 * x**2, N=21, mass=lambda x: 1.0 + x**2,
                           ordering=VonRoos(-1.0, 0.0, symmetric=False)), 15, ("x",)),
    "henon-heiles, even in x": (
        lambda: builtin_problem("henon_heiles", N=15, L=12.0), None, ("x",)),
    "one state, the odd block contributes none": (
        lambda: builtin_problem("henon_heiles", N=15, L=12.0), 1, ("x",)),
    "even in y only": (
        lambda: problem_2d(lambda x, y: 0.5 * (x**2 + y**2) + LAM * (y**2 * x - x**3 / 3.0)),
        None, ("y",)),
    "even in both, four blocks": (
        lambda: problem_2d(lambda x, y: 0.5 * (x**2 + y**2) + x**2 * y**2), 20, ("x", "y")),
    "even in neither, one block": (
        lambda: problem_2d(lambda x, y: 0.5 * ((x - 0.3)**2 + 1.3 * (y + 0.2)**2)), 20, ()),
    "complex, mirror-even imaginary part": (
        lambda: problem_2d(lambda x, y: 0.5 * (x**2 + 2.0 * y**2),
                           potential_imag=lambda x, y: 0.1 * x**2 + 0.05 * x**2 * y**2, Nx=13, Ny=11),
        12, ("x", "y")),
    "complex, imaginary part odd in x": (
        lambda: problem_2d(lambda x, y: 0.5 * (x**2 + 2.0 * y**2),
                           potential_imag=lambda x, y: 0.3 * x, Nx=13, Ny=11),
        None, ("y",)),
    "one-site x axis": (
        lambda: problem_2d(lambda x, y: 0.5 * (x**2 + y**2), Nx=1, Ny=9), None, ("x", "y")),
    "three-site axis": (
        lambda: problem_2d(lambda x, y: x**2 + 0.5 * y**2 + 0.1 * x**2 * y, Nx=3, Ny=7),
        None, ("x",)),
    "more states than the largest block": (
        lambda: problem_2d(lambda x, y: 0.5 * (x**2 + y**2) + 0.2 * x**2 * y**2, Nx=5, Ny=5),
        12, ("x", "y")),
}


def ordered(w):
    """(Re, Im) order blind to round-off in Re, so that both members of a
    complex-conjugate pair sort the same way on either path."""
    return w[np.lexsort((w.imag, np.round(w.real, 9)))]


@pytest.mark.parametrize("name", list(CASES))
def test_block_solve_matches_dense_oracle(name):
    make, n_states, axes = CASES[name]
    problem = make()
    spectrum = solve(problem, n_states)
    H = build_hamiltonian(problem)
    dense = diagonalize(H, problem.grid, n_states)

    assert spectrum.mirror_axes == axes
    assert dense.mirror_axes == ()
    assert spectrum.hermitian_path == dense.hermitian_path
    assert spectrum.n_states == dense.n_states
    w = spectrum.eigenvalues
    assert np.all(np.diff(w.real) >= 0)
    np.testing.assert_allclose(ordered(w), ordered(dense.eigenvalues), rtol=1e-12, atol=0)

    v = spectrum.eigenvectors
    assert v.shape == (problem.size, spectrum.n_states)
    # a PT-symmetric problem is built as its real form: the oracle assembles H
    full = complex_hamiltonian(problem) if PT in H.parity else H.matrix
    full_residuals = (np.linalg.norm(full @ v - v * w[None, :], axis=0)
                      / np.linalg.norm(full))
    assert full_residuals.max() <= 1e-12
    assert spectrum.residuals.max() <= 1e-12
    gram = spectrum.weight * (v.conj().T @ v)
    if spectrum.hermitian_path:
        np.testing.assert_allclose(gram, np.eye(spectrum.n_states), rtol=0, atol=1e-12)
    else:
        np.testing.assert_allclose(np.diag(gram).real, 1.0, rtol=0, atol=1e-12)

    once = phase_fix(spectrum)
    np.testing.assert_array_equal(once.eigenvectors, spectrum.eigenvectors)
    np.testing.assert_array_equal(phase_fix(once).eigenvectors, once.eigenvectors)
    assert once.mirror_axes == axes
    if problem.dim == 2:
        assert spectrum.parity is None
    elif axes:   # each block's parity is what the overlap oracle reads off its vectors
        labelled = classify_parity(phase_fix(dense))
        assert spectrum.parity == labelled.parity
        assert spectrum.labels == labelled.labels
    else:   # unfolded: no state has a parity, however close to even it looks
        assert spectrum.parity == ("none",) * spectrum.n_states
        assert spectrum.labels == tuple(str(n) for n in range(spectrum.n_states))


@pytest.mark.parametrize("name", ["even in both, four blocks", "one-site x axis",
                                  "complex, mirror-even imaginary part", "1D nd3",
                                  "1D complex, mirror-even imaginary part"])
def test_block_norms_add_up_to_dense_norm(name):
    problem = CASES[name][0]()
    blocks = list(built_blocks(problem))
    assert sum(b.dim for b in blocks) == problem.size
    block_norm_sq = sum(np.linalg.norm(b.matrix) ** 2 for b in blocks)
    dense_norm = np.linalg.norm(build_hamiltonian(problem).matrix)
    assert math.sqrt(block_norm_sq) == pytest.approx(dense_norm, rel=1e-14)


def test_one_site_axis_has_no_odd_block():
    problem = CASES["one-site x axis"][0]()
    parities = [b.parity for b in built_blocks(problem)]
    assert parities == [(EVEN, EVEN), (EVEN, ODD)]
    problem = CASES["1D one site"][0]()
    assert [b.parity for b in built_blocks(problem)] == [(EVEN,)]


@pytest.mark.parametrize("M", [0, 1, 4])
def test_fold_is_an_orthogonal_change_of_basis(M):
    lat = make_lattice(7.0, M)
    P = momentum_squared_matrix(lat)
    Q = np.hstack([mirror_unfold(np.eye(M + 1), EVEN, axis=0),
                   mirror_unfold(np.eye(M), ODD, axis=0)])
    np.testing.assert_allclose(Q.T @ Q, np.eye(lat.N), rtol=0, atol=1e-15)
    folded = Q.T @ P @ Q
    scale = np.abs(P).max()
    np.testing.assert_allclose(folded[:M + 1, :M + 1], mirror_fold(P, EVEN),
                               rtol=0, atol=1e-14 * scale)
    np.testing.assert_allclose(folded[M + 1:, M + 1:], mirror_fold(P, ODD),
                               rtol=0, atol=1e-14 * scale)
    np.testing.assert_allclose(folded[:M + 1, M + 1:], 0.0, rtol=0, atol=1e-14 * scale)


@pytest.mark.parametrize("M", [0, 1, 4, 20])
def test_momentum_in_the_mirror_basis_is_one_off_diagonal_block(M):
    # i p anticommutes with the reflection: Q^T A Q = [[0, A_eo], [-A_eo^T, 0]]
    lat = make_lattice(7.0, M)
    A = momentum_ip(lat)
    Q = np.hstack([mirror_unfold(np.eye(M + 1), EVEN, axis=0),
                   mirror_unfold(np.eye(M), ODD, axis=0)])
    folded = Q.T @ A @ Q
    A_eo = mirror_momentum_ip(lat)
    scale = np.abs(A).max()
    assert A_eo.shape == (M + 1, M)
    np.testing.assert_allclose(folded[:M + 1, M + 1:], A_eo, rtol=0, atol=1e-14 * scale)
    np.testing.assert_allclose(folded[M + 1:, :M + 1], -A_eo.T, rtol=0, atol=1e-14 * scale)
    np.testing.assert_allclose(folded[:M + 1, :M + 1], 0.0, rtol=0, atol=1e-14 * scale)
    np.testing.assert_allclose(folded[M + 1:, M + 1:], 0.0, rtol=0, atol=1e-14 * scale)


def pt_2d():
    """PT under the inversion of the grid, and even along neither axis."""
    return problem_2d(lambda x, y: 0.5 * (x**2 + y**2), Nx=21, Ny=21,
                      potential_imag=lambda x, y: 0.3 * (x + y))


@pytest.mark.parametrize("make", [lambda: builtin_problem("pt_oscillator"), pt_2d],
                         ids=["pt_oscillator", "2D inversion"])
def test_pt_block_is_similar_to_the_complex_h(make):
    """The PT block R satisfies Q S R S^-1 Q^T = H: Q the mirror basis of the
    flattened grid, S = diag(I, i I) on its even and odd halves."""
    problem = make()
    (block,) = built_blocks(problem)
    assert block.parity == (PT,) * problem.dim and block.matrix.dtype == np.float64
    H = complex_hamiltonian(problem)
    M = problem.size // 2
    Q = np.hstack([mirror_unfold(np.eye(M + 1), EVEN, axis=0),
                   mirror_unfold(np.eye(M), ODD, axis=0)])
    S = np.diag(np.r_[np.ones(M + 1), 1j * np.ones(M)])
    similar = Q @ S @ block.matrix @ np.linalg.inv(S) @ Q.T
    np.testing.assert_allclose(similar, H, rtol=0, atol=1e-14 * np.abs(H).max())


@pytest.mark.parametrize("problem_id, overrides", [("nd3", {}),
                                                   ("henon_heiles", {"N": 15, "L": 12.0})],
                         ids=["nd3", "henon_heiles"])
def test_folded_blocks_run_from_the_box_edge(problem_id, overrides):
    """Both problems fold x alone; a block's x index runs fastest."""
    problem = builtin_problem(problem_id, **overrides)
    H = build_hamiltonian(problem).matrix
    even, odd = (b.matrix for b in built_blocks(problem))
    lx = problem.grid.axes[0]
    rows = problem.size // lx.N
    assert even.shape[0] == (lx.M + 1) * rows and odd.shape[0] == lx.M * rows
    edge = lx.N - 1                                    # the mirror image of site 0
    assert even[0, 0] == pytest.approx(H[0, 0] + H[0, edge], rel=1e-15)   # row 0 is the edge pair
    assert odd[0, 0] == pytest.approx(H[0, 0] - H[0, edge], rel=1e-15)
    centre = problem.size - 1 - lx.M                   # x = 0 on the last row
    assert even[-1, -1] == pytest.approx(H[centre, centre], rel=1e-15)   # the centre site comes last


def test_graded_nh3_grid_keeps_its_low_levels():
    """Criterion 09's widest fixed-a grid: the kinetic entries grow to ~1e6
    towards the box edge, and the low levels must keep their digits.  The
    reference is the long-double Rayleigh quotient of each dense eigenvector,
    which does not depend on how the eigensolver orders the sites."""
    N = 211
    problem = builtin_problem("nh3", N=N, L=4.5 * N / 151,
                              ordering=ordering_from_name("inverse-mass-anticommutator"))
    H = build_hamiltonian(problem)
    v = diagonalize(H, problem.grid).eigenvectors[:, :10].astype(np.longdouble)
    Hv = H.matrix.astype(np.longdouble) @ v
    reference = (np.sum(v * Hv, axis=0) / np.sum(v * v, axis=0)).astype(float)
    w = solve(problem).eigenvalues[:10]
    rel = np.abs(w - reference) / np.abs(reference)
    assert rel[0] <= 1e-13
    assert rel.max() <= 1e-12


MIRROR_EVEN_BUILTINS = ("nh3", "nd3", "pdm_ho_1", "pdm_ho_2", "henon_heiles")


@pytest.mark.parametrize("problem_id", BUILTIN_IDS)
def test_every_mirror_even_builtin_folds(problem_id):
    """An axis along which every grid function is even to round-off must be
    folded: the exact test may not miss a symmetric built-in."""
    overrides = {"N": 15, "L": 12.0} if problem_id == "henon_heiles" else {}
    problem = builtin_problem(problem_id, **overrides)
    functions = [problem.potential_real, problem.potential_imag]
    if isinstance(problem.ordering, VonRoos):
        functions.append(problem.mass)
    if problem.dim == 1:
        x = problem.grid.x
        mirrors = {"x": ((x,), (-x,))}
    else:
        X, Y = problem.grid.meshgrid()
        mirrors = {"x": ((X, Y), (-X, Y)), "y": ((X, Y), (X, -Y))}
    even = tuple(axis for axis, (points, mirrored) in mirrors.items()
                 if all(np.allclose(f(*points), f(*mirrored), rtol=1e-13, atol=0)
                        for f in functions if f is not None))
    assert even == (("x",) if problem_id in MIRROR_EVEN_BUILTINS else ())
    assert solve(problem, 1).mirror_axes == even


@pytest.mark.parametrize("make, n_states, climbs", [
    (lambda: builtin_problem("henon_heiles", N=33), 60, False),
    (lambda: builtin_problem("henon_heiles", N=45, L=16.0), 100, True),
    (lambda: builtin_problem("pdm_ho_1"), None, False),
], ids=["henon-heiles 33^2, 60 states: dense plan",
        "henon-heiles 45^2 L=16, 100 states: the ladder falls back", "1D pdm_ho_1"])
def test_each_block_matrix_is_freed_before_the_next_is_solved(make, n_states, climbs,
                                                             monkeypatch):
    # every block goes through one lifecycle: whatever the plan, a block's
    # dense or assembled matrix is dead by the time the next block is solved
    matrices, solved, ladders = [], [], []   # matrices: weak references
    real_sum, real_pairs, real_ladder = (operators.kronecker_sum, eig._dense_pairs,
                                         eig._contracted_pairs)

    def assembling(*args):
        H = real_sum(*args)
        matrices.append(weakref.ref(H))
        return H

    def solving(block, *args):
        assert all(ref() is None for ref in matrices), "an earlier block's matrix is alive"
        solved.append(block.parity)
        pairs = real_pairs(block, *args)
        matrices.append(weakref.ref(block.matrix))
        return pairs

    def climbing(*args):
        ladders.append(real_ladder(*args))
        return ladders[-1]

    monkeypatch.setattr(operators, "kronecker_sum", assembling)
    monkeypatch.setattr(eig, "_dense_pairs", solving)
    monkeypatch.setattr(eig, "_contracted_pairs", climbing)
    solve(make(), n_states)
    assert ladders == ([None] if climbs else [])
    assert len(solved) == 2 and all(ref() is None for ref in matrices)
