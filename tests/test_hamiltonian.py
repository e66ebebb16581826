import tracemalloc

import numpy as np
import pytest

from qmbox.eig import diagonalize
from qmbox.hamiltonian import (ORDERING_NAMES, ConstantMass, ProblemDefinition,
                               VonRoos, build_hamiltonian, build_kinetic,
                               hamiltonian_blocks, ordering_from_name)
from qmbox.lattice import make_lattice, make_lattice_2d
from qmbox.operators import GridValueError, momentum_ip, momentum_matrix
from qmbox.problems import builtin_problem, nh3_mass, nh3_potential

#: The fixed named orderings and the von Roos points they stand for.
NAMED = {
    "mass-sandwich": VonRoos(0.0, 0.0),
    "inverse-mass-anticommutator": VonRoos(-1.0, 0.0),
    "mass-left": VonRoos(-1.0, 0.0, symmetric=False),
    "mass-right": VonRoos(0.0, -1.0, symmetric=False),
}


def frob(A):
    return np.linalg.norm(A)


def problem_1d(grid, ordering, V, mass=None, V_imag=None):
    return ProblemDefinition(name="test", grid=grid, ordering=ordering,
                             potential_real=V, mass=mass, potential_imag=V_imag)


class TestOrderings:
    def test_von_roos_exponent_constraint(self):
        o = VonRoos(alpha=0.2, gamma=-0.5)
        assert o.alpha + o.beta + o.gamma == -1.0

    def test_constant_mass_all_orderings_coincide(self):
        grid = make_lattice(10.0, 10)
        reference = None
        for ordering in [VonRoos(0.0, 0.0), VonRoos(-1.0, 0.0), VonRoos(0.3, -0.9),
                         *NAMED.values(), ConstantMass(1.0)]:
            T = build_kinetic(problem_1d(grid, ordering, 0.0, mass=1.0)).matrix
            if reference is None:
                reference = T
            assert frob(T - reference) <= 1e-12 * frob(reference)

    def test_sandwich_equals_von_roos_00(self):
        # the named spelling, the parametrized spelling and the explicit
        # value all build one matrix on a position-dependent mass
        grid = make_lattice(20.0, 40)
        pdm = lambda x: 1.0 + x**2
        T1 = build_kinetic(problem_1d(grid, ordering_from_name("mass-sandwich"), 0.0,
                                      mass=pdm)).matrix
        T2 = build_kinetic(problem_1d(grid, VonRoos(0.0, 0.0), 0.0, mass=pdm)).matrix
        T3 = build_kinetic(problem_1d(grid, ordering_from_name("von-roos", 0, 0), 0.0,
                                      mass=pdm)).matrix
        assert frob(T1 - T2) <= 1e-12 * frob(T1)
        assert frob(T3 - T2) <= 1e-12 * frob(T2)

    @pytest.mark.parametrize("name", list(NAMED))
    def test_named_ordering_matches_explicit_product(self, name):
        # built from the complex momentum matrix directly
        grid = make_lattice(20.0, 30)
        T = build_kinetic(problem_1d(grid, ordering_from_name(name), 0.0,
                                     mass=lambda x: 1.0 + x**2)).matrix
        p = momentum_matrix(grid).matrix
        inv_m = np.diag(1.0 / (1.0 + grid.x**2))
        explicit = {
            "mass-sandwich": 0.5 * p @ inv_m @ p,
            "inverse-mass-anticommutator": 0.25 * (inv_m @ p @ p + p @ p @ inv_m),
            "mass-left": 0.5 * inv_m @ p @ p,
            "mass-right": 0.5 * p @ p @ inv_m,
        }[name]
        assert np.abs(explicit.imag).max() <= 1e-12 * np.abs(explicit.real).max()
        assert frob(T - explicit.real) <= 1e-12 * frob(T)

    @pytest.mark.parametrize("alpha,gamma", [(-1.0, 0.0), (-0.5, -0.5), (0.25, -1.25)])
    def test_beta_zero_closed_form_matches_product(self, alpha, gamma):
        grid = make_lattice(20.0, 30)
        m = 1.0 + grid.x**2
        A = momentum_ip(grid)
        X = -(m**alpha)[:, None] * (A @ A) * (m**gamma)[None, :]
        want = 0.25 * (X + X.T)
        T = build_kinetic(problem_1d(grid, VonRoos(alpha, gamma), 0.0,
                                     mass=lambda x: 1.0 + x**2)).matrix
        assert frob(T - want) <= 1e-12 * frob(want)

    @pytest.mark.parametrize("alpha,gamma", [(0.0, 0.0), (-1.0, 0.0), (0.25, 0.25), (1.0, -0.5)])
    def test_von_roos_builds_hermitian(self, alpha, gamma):
        grid = make_lattice(20.0, 30)
        T = build_kinetic(problem_1d(grid, VonRoos(alpha, gamma), 0.0,
                                     mass=lambda x: 1.0 + x**2)).matrix
        assert frob(T - T.conj().T) <= 1e-12 * frob(T)

    def test_one_sided_difference_is_antihermitian(self):
        grid = make_lattice(4.0, 55)
        left = build_kinetic(problem_1d(grid, NAMED["mass-left"], 0.0, mass=nh3_mass)).matrix
        right = build_kinetic(problem_1d(grid, NAMED["mass-right"], 0.0, mass=nh3_mass)).matrix
        diff = left - right
        assert np.abs(diff).max() > 0
        np.testing.assert_allclose(diff, -diff.conj().T, atol=1e-12 * np.abs(diff).max())

    def test_one_sided_are_transposes(self):
        grid = make_lattice(4.0, 20)
        left = build_kinetic(problem_1d(grid, NAMED["mass-left"], 0.0, mass=nh3_mass)).matrix
        right = build_kinetic(problem_1d(grid, NAMED["mass-right"], 0.0, mass=nh3_mass)).matrix
        np.testing.assert_array_equal(left.T, right)

    def test_hermitian_hints(self):
        grid = make_lattice(10.0, 10)
        pdm = lambda x: 1.0 + x**2
        hints = {
            VonRoos(0.1, -0.3): True,
            NAMED["mass-sandwich"]: True,
            NAMED["inverse-mass-anticommutator"]: True,
            ConstantMass(2.0): True,
            NAMED["mass-left"]: False,
            NAMED["mass-right"]: False,
        }
        for ordering, expected in hints.items():
            op = build_kinetic(problem_1d(grid, ordering, 0.0, mass=pdm))
            assert op.hermitian_hint is expected, ordering

    def test_missing_mass_raises(self):
        # a configuration mistake, not a numerical failure
        grid = make_lattice(10.0, 10)
        with pytest.raises(ValueError, match="needs a mass function") as err:
            build_kinetic(problem_1d(grid, NAMED["mass-sandwich"], 0.0))
        assert err.type is ValueError

    def test_fractional_power_of_negative_mass_raises(self):
        grid = make_lattice(10.0, 10)
        with pytest.raises(GridValueError, match="fractional power"):
            build_kinetic(problem_1d(grid, VonRoos(0.5, 0.0), 0.0,
                                     mass=lambda x: x))  # negative for x < 0

    def test_ordering_from_name(self):
        assert set(ORDERING_NAMES) == set(NAMED) | {"von-roos", "constant-mass"}
        for name, ordering in NAMED.items():
            assert ordering_from_name(name) == ordering
            assert ordering_from_name(f" {name.upper().replace('-', '_')} ") == ordering
            with pytest.raises(ValueError, match="takes no parameters"):
                ordering_from_name(name, 1.0)
        assert ordering_from_name("von-roos", -1, 0) == VonRoos(-1.0, 0.0)
        assert ordering_from_name("constant-mass", 2.5) == ConstantMass(2.5)
        assert ordering_from_name("constant-mass") == ConstantMass()
        with pytest.raises(ValueError, match="unknown ordering"):
            ordering_from_name("banana")
        with pytest.raises(ValueError, match="two parameters"):
            ordering_from_name("von-roos", 1.0)
        with pytest.raises(ValueError, match="at most one parameter"):
            ordering_from_name("constant-mass", 1.0, 2.0)


class TestHamiltonian1D:
    def test_harmonic_oscillator_levels(self):
        # analytic oracle: E_n = n + 1/2 for m = 1, V = x^2/2
        grid = make_lattice(20.0, 50)
        H = build_hamiltonian(problem_1d(grid, ConstantMass(1.0), lambda x: 0.5 * x**2))
        w = diagonalize(H, grid).eigenvalues
        np.testing.assert_allclose(w[:5], np.arange(5) + 0.5, atol=1e-10)

    def test_parity_commutation_for_even_problem(self):
        # symmetric V and m: H commutes with index reversal
        problem = builtin_problem("nh3")
        H = build_hamiltonian(problem).matrix
        assert frob(H - H[::-1, ::-1]) <= 1e-12 * frob(H)

    def test_complex_potential_drops_hermitian_hint(self):
        grid = make_lattice(25.0, 50)
        op = build_hamiltonian(problem_1d(grid, ConstantMass(0.5),
                                          lambda x: x**2, V_imag=lambda x: x))
        assert np.iscomplexobj(op.matrix)
        assert op.hermitian_hint is False

    @pytest.mark.parametrize("problem_id", ["pt_oscillator", "morse"])
    def test_a_block_in_hand_holds_its_matrix_alone(self, problem_id):
        # an unfolded 1D H is the real kinetic matrix with V added in place
        # (morse) or a complex copy of it (pt_oscillator); the real one must
        # not stay alive beside the copy while the block is being solved
        problem = builtin_problem(problem_id, N=601)
        tracemalloc.start()
        try:
            blocks = hamiltonian_blocks(problem)
            block = next(blocks)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held <= block.op.matrix.nbytes + 0.5 * 2**20

    def test_real_paths_stay_real(self):
        for problem_id in ("nh3", "nd3", "morse", "pdm_ho_1", "pdm_ho_2"):
            op = build_hamiltonian(builtin_problem(problem_id))
            assert op.matrix.dtype == np.float64, problem_id

    def test_potential_pole_reported_with_point(self):
        grid = make_lattice(2.0, 10)
        with pytest.raises(GridValueError, match="non-finite at grid point"):
            build_hamiltonian(problem_1d(grid, ConstantMass(1.0),
                                         lambda x: 1.0 / (x - grid.x[3])))

    def test_mass_pole_on_grid_rejected(self):
        # place a grid point exactly at the reduced-mass pole
        from qmbox.problems import CONSTANTS
        r0 = CONSTANTS.r0_au
        grid = make_lattice(111 * (r0 / 50), 55)  # site 50 lands on r0
        with pytest.raises(ZeroDivisionError, match="pole"):
            build_hamiltonian(problem_1d(grid, NAMED["mass-left"], nh3_potential,
                                         mass=nh3_mass))


class TestHamiltonian2D:
    def test_separable_spectrum_is_minkowski_sum(self):
        grid2 = make_lattice_2d(12.0, 10, 14.0, 10)
        vx = lambda x: 0.5 * x**2
        wy = lambda y: y**2
        problem = ProblemDefinition(
            name="sep", grid=grid2, ordering=ConstantMass(1.0),
            potential_real=lambda x, y: vx(x) + wy(y))
        w2 = diagonalize(build_hamiltonian(problem), grid2).eigenvalues

        wx = diagonalize(build_hamiltonian(problem_1d(grid2.lx, ConstantMass(1.0), vx)),
                         grid2.lx).eigenvalues
        wyv = diagonalize(build_hamiltonian(problem_1d(grid2.ly, ConstantMass(1.0), wy)),
                          grid2.ly).eigenvalues
        sums = np.sort(np.add.outer(wx, wyv).ravel())
        np.testing.assert_allclose(w2, sums, atol=1e-8)

    def test_2d_kinetic_matches_embed_composition(self):
        from qmbox.operators import momentum_squared_matrix
        grid2 = make_lattice_2d(8.0, 4, 6.0, 3)
        problem = ProblemDefinition(name="t", grid=grid2, ordering=ConstantMass(2.0),
                                    potential_real=0.0)
        T = build_kinetic(problem).matrix
        tx = momentum_squared_matrix(grid2.lx).matrix
        ty = momentum_squared_matrix(grid2.ly).matrix
        want = (np.kron(np.eye(grid2.ly.N), tx) + np.kron(ty, np.eye(grid2.lx.N))) / 4.0
        np.testing.assert_allclose(T, want, atol=1e-14 * np.abs(want).max())

    def test_2d_potential_follows_compound_index(self):
        grid2 = make_lattice_2d(4.0, 2, 4.0, 2)
        problem = ProblemDefinition(name="t", grid=grid2, ordering=ConstantMass(1.0),
                                    potential_real=lambda x, y: x + 10 * y)
        H = build_hamiltonian(problem).matrix
        T = build_kinetic(problem).matrix
        V = np.diag(H - T)
        for i1 in range(grid2.lx.N):
            for i2 in range(grid2.ly.N):
                k = i1 + i2 * grid2.lx.N   # x index runs fastest
                assert V[k] == pytest.approx(grid2.lx.x[i1] + 10 * grid2.ly.x[i2])

    def test_2d_rejects_position_dependent_mass(self):
        grid2 = make_lattice_2d(4.0, 2, 4.0, 2)
        problem = ProblemDefinition(name="t", grid=grid2, ordering=NAMED["mass-sandwich"],
                                    potential_real=0.0, mass=lambda x, y: 1.0 + x**2)
        with pytest.raises(ValueError, match="constant-mass") as err:
            build_kinetic(problem)
        assert err.type is ValueError
