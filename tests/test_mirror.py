"""Mirror-parity block solves of 2D problems against the dense oracle.

``solve`` folds every axis along which the sampled potential equals its
mirror image and diagonalizes the blocks; ``diagonalize(build_hamiltonian(p))``
is the one dense matrix it must reproduce.
"""

import math

import numpy as np
import pytest

from qmbox.eig import diagonalize, phase_fix
from qmbox.hamiltonian import (ConstantMass, ProblemDefinition, build_hamiltonian,
                               hamiltonian_blocks)
from qmbox.lattice import make_lattice, make_lattice_2d
from qmbox.operators import (EVEN, ODD, mirror_fold, mirror_unfold,
                             momentum_squared_matrix)
from qmbox.problems import builtin_problem
from qmbox.solve import solve

LAM = 1.0 / math.sqrt(80.0)


def problem_2d(potential, Nx=15, Ny=15, L=12.0, potential_imag=None, mu=1.0):
    grid = make_lattice_2d(L, (Nx - 1) // 2, L, (Ny - 1) // 2)
    return ProblemDefinition(name="mirror", grid=grid, ordering=ConstantMass(mu),
                             potential_real=potential, potential_imag=potential_imag,
                             energy_unit="model")


CASES = {
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


@pytest.mark.parametrize("name", ["even in both, four blocks", "one-site x axis",
                                  "complex, mirror-even imaginary part"])
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
