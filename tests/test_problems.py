import math

import numpy as np
import pytest

from qmbox.hamiltonian import ConstantMass, VonRoos
from qmbox.lattice import Lattice2D
from qmbox.problems import (BUILTIN_IDS, CONSTANTS, NH3_POTENTIAL_COEFFS,
                            builtin_problem, constant_reduced_mass,
                            morse_exact_level, morse_potential, nh3_mass,
                            nh3_potential, non_pt_exact_level, pt_exact_level,
                            reference_spectrum)


class TestConstants:
    def test_golden_values(self):
        # conversion factors and masses are pinned bit-exact
        assert CONSTANTS.hartree_to_cm == 219474.63137
        assert CONSTANTS.bohr_in_angstrom == 0.52917721092
        assert CONSTANTS.amu_in_au == 1822.888
        assert CONSTANTS.m_H == 1.007825035
        assert CONSTANTS.m_N == 14.003074
        assert CONSTANTS.m_D == 2.013553212712
        assert CONSTANTS.r0_angstrom == 1.00410198
        assert CONSTANTS.beta_e_rad == math.radians(22 + 13 / 60)

    def test_r0_converted_to_au(self):
        assert CONSTANTS.r0_au == pytest.approx(1.00410198 / 0.52917721092, rel=1e-15)

    def test_coefficient_list(self):
        assert len(NH3_POTENTIAL_COEFFS) == 11
        assert NH3_POTENTIAL_COEFFS[0] == 0.0
        assert NH3_POTENTIAL_COEFFS[1] == -1.2760373471398e-01
        assert NH3_POTENTIAL_COEFFS[-1] == 2.0128292638493e+02


class TestNh3Potential:
    def test_zero_at_origin(self):
        assert nh3_potential(0.0) == 0.0

    def test_even_on_grid(self):
        x = np.linspace(-1.98, 1.98, 111)
        np.testing.assert_array_equal(nh3_potential(x), nh3_potential(-x))

    def test_barrier_height(self):
        xs = np.linspace(0.0, 1.5, 200001)
        barrier = nh3_potential(0.0) - nh3_potential(xs).min()
        assert barrier * CONSTANTS.hartree_to_cm == pytest.approx(2013.5, abs=0.5)

    def test_matches_plain_polynomial(self):
        # Horner against naive power evaluation
        x = 0.7281
        z = (x * CONSTANTS.bohr_in_angstrom) ** 2
        naive = sum(k * z**j for j, k in enumerate(NH3_POTENTIAL_COEFFS))
        assert nh3_potential(x) == pytest.approx(naive, rel=1e-14)


class TestNh3Mass:
    def test_value_at_origin(self):
        mu = nh3_mass(0.0)
        assert mu / CONSTANTS.amu_in_au == pytest.approx(2.486588, abs=1e-5)

    def test_even_function(self):
        x = np.linspace(-1.5, 1.5, 101)
        np.testing.assert_array_equal(nh3_mass(x), nh3_mass(-x))

    def test_strictly_increasing_inside_well(self):
        x = np.linspace(0.0, CONSTANTS.r0_au * 0.999, 400)
        mu = nh3_mass(x)
        assert np.all(np.diff(mu) > 0)

    def test_pole_raises(self):
        with pytest.raises(ZeroDivisionError, match="pole"):
            nh3_mass(CONSTANTS.r0_au)

    def test_deuterium_heavier(self):
        assert nh3_mass(0.0, CONSTANTS.m_D) > nh3_mass(0.0, CONSTANTS.m_H)


class TestConstantReducedMass:
    def test_equilibrium_angle_factor(self):
        m, M = CONSTANTS.m_H, CONSTANTS.m_N
        plain = 3 * m * M / (3 * m + M) * CONSTANTS.amu_in_au
        factor = constant_reduced_mass(m, M) / plain
        # 1 + 3 m sin^2(22 deg 13 min) / M with sin^2 = 0.14296724...
        assert factor == pytest.approx(1.0308688, abs=1e-6)
        assert factor == pytest.approx(1 + 3 * m * math.sin(CONSTANTS.beta_e_rad) ** 2 / M,
                                       rel=1e-15)


class TestMorse:
    def test_zero_at_minimum(self):
        assert morse_potential(-35.0) == 0.0

    def test_dissociation_limit(self):
        assert morse_potential(1e6) == pytest.approx(1.0)

    def test_half_exponential_point(self):
        R = -35.0 + math.log(2) / 0.24
        assert morse_potential(R) == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize("n,value", [
        (0, 0.1625056275), (3, 0.8351393924), (5, 0.9955619023)])
    def test_exact_levels(self, n, value):
        assert morse_exact_level(n) == pytest.approx(value, abs=0.5e-10)

    def test_six_bound_states(self):
        morse_exact_level(5)
        with pytest.raises(ValueError, match="beyond"):
            morse_exact_level(6)

    def test_levels_increase_until_dissociation(self):
        levels = [morse_exact_level(n) for n in range(6)]
        assert np.all(np.diff(levels) > 0)
        assert levels[-1] < 1.0


class TestExactComplexSpectra:
    def test_pt_levels(self):
        assert pt_exact_level(0) == 1.25
        assert pt_exact_level(1) == 3.25

    def test_non_pt_levels(self):
        assert non_pt_exact_level(0) == 1.0 + 0.5j
        assert non_pt_exact_level(7) == 15.0 + 0.5j


class TestBuiltinProblems:
    def test_known_ids(self):
        assert len(BUILTIN_IDS) == 8

    def test_nh3_defaults(self):
        problem = builtin_problem("nh3")
        assert problem.grid.N == 111
        assert problem.grid.L == 4.0
        assert problem.ordering == VonRoos(-1.0, 0.0, symmetric=False)
        assert problem.energy_unit == "hartree"

    def test_nh3_nd3_share_potential_object(self):
        assert builtin_problem("nh3").potential_real is builtin_problem("nd3").potential_real

    def test_nd3_uses_deuterium_mass(self):
        nh3 = builtin_problem("nh3")
        nd3 = builtin_problem("nd3")
        assert nd3.mass(0.0) > nh3.mass(0.0)

    def test_morse_defaults(self):
        problem = builtin_problem("morse")
        assert (problem.grid.L, problem.grid.N) == (90.0, 111)
        assert problem.ordering == ConstantMass(1.0)

    def test_pdm_defaults(self):
        problem = builtin_problem("pdm_ho_1")
        assert (problem.grid.L, problem.grid.N) == (20.0, 201)
        assert problem.ordering == VonRoos(0.0, 0.0)
        assert problem.mass(0.0) == 1.0
        assert builtin_problem("pdm_ho_2").mass(0.0) == 4.0  # ((2+0)/(1+0))^2

    def test_pt_defaults(self):
        problem = builtin_problem("pt_oscillator")
        assert (problem.grid.L, problem.grid.N) == (25.0, 101)
        # T = p^2 with unit coefficient
        assert problem.ordering == ConstantMass(0.5)
        assert problem.potential_real(2.0) == 4.0
        assert problem.potential_imag(2.0) == 2.0

    def test_non_pt_potential_is_tilted(self):
        problem = builtin_problem("non_pt_oscillator")
        assert problem.potential_real(2.0) == 2.0  # x^2 - x

    def test_henon_heiles_defaults(self):
        problem = builtin_problem("henon_heiles")
        assert isinstance(problem.grid, Lattice2D)
        assert problem.grid.lx.N == problem.grid.ly.N == 61
        assert problem.grid.lx.L == 20.0
        lam = 1 / math.sqrt(80)
        assert problem.potential_real(1.0, 2.0) == pytest.approx(
            0.5 * 5 + lam * (2 - 8 / 3), rel=1e-14)

    def test_overrides(self):
        problem = builtin_problem("morse", N=201, L=140.0, r_e=-60.0)
        assert (problem.grid.L, problem.grid.N) == (140.0, 201)
        assert problem.potential_real(-60.0) == 0.0
        problem2 = builtin_problem("henon_heiles", Nx=9, Ny=11, Lx=8.0, Ly=9.0)
        assert (problem2.grid.lx.N, problem2.grid.ly.N) == (9, 11)

    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown problem id"):
            builtin_problem("hydrogen")

    def test_invalid_override(self):
        with pytest.raises(ValueError, match="invalid override"):
            builtin_problem("nh3", depth=3)
        with pytest.raises(ValueError, match="invalid override"):
            builtin_problem("nh3", Nx=5)

    @pytest.mark.parametrize("problem_id,name,value", [
        ("morse", "mu", 2.0), ("morse", "d_e", 2.0), ("morse", "alpha", 0.3),
        ("henon_heiles", "lam", 0.2)])
    def test_paper_constants_are_fixed(self, problem_id, name, value):
        # the exact levels and the gates assume the paper's D_e, alpha, mu
        # and lambda, so a built-in does not take other values
        with pytest.raises(ValueError, match=f"invalid override.*{name}"):
            builtin_problem(problem_id, **{name: value})

    def test_even_point_count_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            builtin_problem("nh3", N=110)

    @pytest.mark.parametrize("problem_id, overrides, value", [
        ("nh3", {"N": 41.9}, 41.9),
        ("henon_heiles", {"N": 61.5, "Ny": 41}, 61.5),
        ("henon_heiles", {"N": 61, "Ny": 41.2}, 41.2),
    ])
    def test_fractional_point_count_rejected_not_truncated(self, problem_id, overrides, value):
        with pytest.raises(ValueError) as caught:
            builtin_problem(problem_id, **overrides)
        assert str(caught.value) == f"grid sizes must be integers, got {value!r}"

    def test_integral_point_counts_of_any_type_accepted(self):
        assert builtin_problem("nh3", N=41.0).grid.N == 41
        grid = builtin_problem("henon_heiles", Nx=np.int64(9), Ny=11.0).grid
        assert (grid.lx.N, grid.ly.N) == (9, 11)


class TestReferenceSpectra:
    def test_known_tables(self):
        for key in ("nh3.benchmark", "nh3.experiment", "nd3.pdm",
                    "nd3.constant-mass", "nd3.experiment", "morse.benchmark",
                    "nh3.mass-sandwich", "nh3.inverse-mass-anticommutator",
                    "nh3.mass-left", "nh3.mass-right"):
            assert reference_spectrum(key).values

    def test_nh3_benchmark_table(self):
        ref = reference_spectrum("nh3.benchmark")
        assert ref.unit == "cm-1"
        assert ref.shifted is True
        assert ref.values["0a"] == 0.837
        assert ref.values["3a"] == 2902.99
        assert len(ref.values) == 8

    def test_morse_table(self):
        ref = reference_spectrum("morse.benchmark")
        assert ref.unit == "model"
        assert ref.shifted is False
        assert ref.values["0"] == 0.1625056275
        assert ref.values["5"] == 0.9955620565

    def test_unknown_key(self):
        with pytest.raises(KeyError):
            reference_spectrum("nope.table")
