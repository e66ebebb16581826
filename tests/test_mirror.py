"""Mirror-parity block solves of 1D and 2D problems against the dense oracle.

``solve`` folds every axis along which the sampled grid functions equal
their mirror image and diagonalizes the blocks;
``diagonalize(build_hamiltonian(p))`` is the one dense matrix it must
reproduce.
"""

import math

import numpy as np
import pytest

from qmbox.eig import classify_parity, diagonalize, phase_fix
from qmbox.hamiltonian import (ConstantMass, ProblemDefinition, VonRoos,
                               build_hamiltonian, hamiltonian_blocks,
                               ordering_from_name)
from qmbox.lattice import make_lattice, make_lattice_2d
from qmbox.operators import (EVEN, ODD, mirror_cross_fold, mirror_fold, mirror_unfold,
                             momentum_squared_matrix)
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
    full_residuals = (np.linalg.norm(H.matrix @ v - v * w[None, :], axis=0)
                      / np.linalg.norm(H.matrix))
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
    if problem.dim == 1:
        labelled = classify_parity(phase_fix(dense))
        assert spectrum.parity == labelled.parity
        assert spectrum.labels == labelled.labels


@pytest.mark.parametrize("name", ["even in both, four blocks", "one-site x axis",
                                  "complex, mirror-even imaginary part", "1D nd3",
                                  "1D complex, mirror-even imaginary part"])
def test_block_norms_add_up_to_dense_norm(name):
    problem = CASES[name][0]()
    blocks = list(hamiltonian_blocks(problem))
    assert sum(b.op.dim for b in blocks) == problem.size
    block_norm_sq = sum(np.linalg.norm(b.op.matrix) ** 2 for b in blocks)
    dense_norm = np.linalg.norm(build_hamiltonian(problem).matrix)
    assert math.sqrt(block_norm_sq) == pytest.approx(dense_norm, rel=1e-14)


def test_one_site_axis_has_no_odd_block():
    problem = CASES["one-site x axis"][0]()
    parities = [b.parity for b in hamiltonian_blocks(problem)]
    assert parities == [(EVEN, EVEN), (EVEN, ODD)]
    problem = CASES["1D one site"][0]()
    assert [b.parity for b in hamiltonian_blocks(problem)] == [(EVEN,)]


@pytest.mark.parametrize("M", [0, 1, 4])
def test_fold_is_an_orthogonal_change_of_basis(M):
    lat = make_lattice(7.0, M)
    P = momentum_squared_matrix(lat).matrix
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


@pytest.mark.parametrize("M", [0, 1, 4])
def test_cross_fold_is_the_off_diagonal_block(M):
    """A matrix that anticommutes with the reversal, such as the imaginary
    part of a PT-symmetric H, has only even-odd blocks; a non-symmetric one
    has <e|t|o> != <o|t|e>^T."""
    N = 2 * M + 1
    X = np.random.default_rng(M).standard_normal((N, N))
    t = X - X[::-1, ::-1]
    Q = np.hstack([mirror_unfold(np.eye(M + 1), EVEN, axis=0),
                   mirror_unfold(np.eye(M), ODD, axis=0)])
    folded = Q.T @ t @ Q
    np.testing.assert_allclose(folded[:M + 1, M + 1:], mirror_cross_fold(t, EVEN),
                               rtol=0, atol=1e-14 * np.abs(t).max())
    np.testing.assert_allclose(folded[M + 1:, :M + 1], mirror_cross_fold(t, ODD),
                               rtol=0, atol=1e-14 * np.abs(t).max())
    np.testing.assert_allclose(folded[:M + 1, :M + 1], 0.0, rtol=0, atol=1e-14 * np.abs(t).max())
    np.testing.assert_allclose(folded[M + 1:, M + 1:], 0.0, rtol=0, atol=1e-14 * np.abs(t).max())


@pytest.mark.parametrize("problem_id, overrides", [("nd3", {}),
                                                   ("henon_heiles", {"N": 15, "L": 12.0})],
                         ids=["nd3", "henon_heiles"])
def test_folded_blocks_run_from_the_box_edge(problem_id, overrides):
    """Both problems fold x alone; a block's x index runs fastest."""
    problem = builtin_problem(problem_id, **overrides)
    H = build_hamiltonian(problem).matrix
    even, odd = (b.op.matrix for b in hamiltonian_blocks(problem))
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
