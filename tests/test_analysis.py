from dataclasses import replace

import numpy as np
import pytest

from qmbox.analysis import (compare_to_reference, completeness_error,
                            convergence_scan, exponential_fit, labeled_levels,
                            shift_to_ground, to_wavenumbers)
from qmbox.hamiltonian import ConstantMass, ProblemDefinition, ordering_from_name
from qmbox.lattice import make_lattice, points_to_m
from qmbox.problems import CONSTANTS, builtin_problem, reference_spectrum
from qmbox.solve import solve


class TestUnits:
    def test_one_hartree(self):
        assert to_wavenumbers(1.0) == 219474.63137

    def test_array_input(self):
        np.testing.assert_allclose(to_wavenumbers(np.array([0.0, 2.0])),
                                   [0.0, 2 * CONSTANTS.hartree_to_cm])

    def test_shift_makes_ground_zero(self):
        shifted = shift_to_ground(np.array([-0.25, 0.5, 1.0]))
        assert shifted[0] == 0.0
        np.testing.assert_allclose(shifted, [0.0, 0.75, 1.25])

    def test_shift_invariant_under_potential_offset(self):
        grid = make_lattice(20.0, 50)
        base = ProblemDefinition(name="ho", grid=grid, ordering=ConstantMass(1.0),
                                 potential_real=lambda x: 0.5 * x**2)
        offset = ProblemDefinition(name="ho+c", grid=grid, ordering=ConstantMass(1.0),
                                   potential_real=lambda x: 0.5 * x**2 + 17.25)
        w1 = shift_to_ground(solve(base).eigenvalues)
        w2 = shift_to_ground(solve(offset).eigenvalues)
        np.testing.assert_allclose(w1[:20], w2[:20], atol=1e-10)


@pytest.fixture(scope="module")
def morse_wide():
    return solve(builtin_problem("morse", N=301, L=140.0, r_e=-60.0))


@pytest.fixture(scope="module")
def ho_scan():
    grid = make_lattice(14.0, 10)
    problem = ProblemDefinition(name="ho", grid=grid, ordering=ConstantMass(1.0),
                                potential_real=lambda x: 0.5 * x**2)
    n_list = list(range(19, 44, 2))  # 13 odd values
    return convergence_scan(problem, "fixed_L_vary_N", n_list, state_indices=(0, 3))


class TestCompleteness:
    def test_full_curve_terminates_at_machine_zero(self, morse_wide):
        curve = completeness_error(morse_wide)
        assert curve[-1] <= 1e-14

    def test_monotone_down_to_noise(self, morse_wide):
        curve = completeness_error(morse_wide)
        above = curve[:-1] > 1e-13
        assert np.all(np.diff(curve)[above] <= 0)

    @pytest.mark.parametrize("ground", [-1, 301, 500])
    def test_ground_out_of_range(self, morse_wide, ground):
        with pytest.raises(ValueError, match="ground must be in 0..300"):
            completeness_error(morse_wide, ground=ground)

    def test_partial_spectrum_rejected(self):
        s = solve(builtin_problem("morse"), n_states=20)
        with pytest.raises(ValueError, match="full spectrum"):
            completeness_error(s)


class TestConvergenceScan:
    def test_shapes_and_rows(self, ho_scan):
        assert ho_scan.energies.shape == (13, 2)
        rows = list(ho_scan.rows())
        assert len(rows) == 26
        assert rows[0][0] == 19

    def test_errors_decay(self, ho_scan):
        slope, corr, npts = exponential_fit(ho_scan, 0)
        assert slope < 0
        assert corr < -0.95
        assert npts >= 3

    def test_pre_plateau_monotone_within_noise(self, ho_scan):
        errs = ho_scan.rel_errors[:, 0]
        leading = np.argmax(errs <= 1e-11) or len(errs)
        assert np.all(np.diff(errs[:leading]) <= 1e-14)

    def test_tracked_state_converges(self, ho_scan):
        # the tail grids agree with the analytic level to high accuracy
        assert ho_scan.converged[0] == pytest.approx(0.5, abs=1e-12)
        assert ho_scan.converged[1] == pytest.approx(3.5, abs=1e-9)

    def test_gnuplot_output(self, ho_scan, tmp_path):
        dat = tmp_path / "scan.dat"
        ho_scan.write_gnuplot(dat, state=0)
        body = [l for l in dat.read_text().splitlines() if not l.startswith("#")]
        assert len(body) == 13
        assert all(len(l.split()) == 2 for l in body)
        rows = "".join(f"{n} {err:.6e}\n"
                       for n, err in zip(ho_scan.n_list, ho_scan.rel_errors[:, 0]))
        assert dat.read_text() == "# ho fixed_L_vary_N state 0\n# N  rel_error\n" + rows

    def test_validation_errors(self):
        problem = builtin_problem("nh3")
        with pytest.raises(ValueError, match="12"):
            convergence_scan(problem, "fixed_L_vary_N", [21, 23, 25])
        with pytest.raises(ValueError, match="odd"):
            convergence_scan(problem, "fixed_L_vary_N", list(range(20, 46, 2)))
        with pytest.raises(ValueError, match="ascending"):
            convergence_scan(problem, "fixed_L_vary_N", [21] * 13)
        with pytest.raises(ValueError, match="mode"):
            convergence_scan(problem, "vary_everything", list(range(21, 47, 2)))
        with pytest.raises(ValueError, match="state index"):
            convergence_scan(problem, "fixed_L_vary_N", list(range(21, 47, 2)),
                             state_indices=(30,))
        for track in (-1, -100):
            with pytest.raises(ValueError, match="non-negative"):
                convergence_scan(problem, "fixed_L_vary_N", list(range(21, 47, 2)),
                                 state_indices=(0, track))
        with pytest.raises(ValueError, match="1D"):
            convergence_scan(builtin_problem("henon_heiles", N=9, L=10.0), "fixed_L_vary_N",
                             list(range(11, 35, 2)))

    @pytest.mark.parametrize("states, repeated", [
        ((0, 0), 0), ((2, 5, 2), 2), ((np.int64(3), 1, 3.0), 3)])
    def test_repeated_state_index_rejected(self, states, repeated):
        # each column of the scan is one tracked state, read by its index
        with pytest.raises(ValueError) as caught:
            convergence_scan(builtin_problem("nh3"), "fixed_L_vary_N", range(31, 56, 2), states)
        assert str(caught.value) == f"state index {repeated} is tracked more than once"

    def test_empty_state_indices_rejected(self):
        with pytest.raises(ValueError, match="state_indices is empty"):
            convergence_scan(builtin_problem("nh3"), "fixed_L_vary_N", list(range(21, 47, 2)), ())

    @pytest.mark.parametrize("n_list, states, message", [
        ([41.9 + 10 * i for i in range(12)], (1,), "grid sizes must be integers, got 41.9"),
        ([41 + 10 * i for i in range(12)], (1.7,), "state indices must be integers, got 1.7"),
        ([41 + 10 * i for i in range(12)], (0, "x"), "state indices must be integers, got 'x'"),
        ([41 + 10 * i for i in range(11)] + [float("inf")], (0,),
         "grid sizes must be integers, got inf"),
    ])
    def test_fractional_values_rejected_not_truncated(self, n_list, states, message):
        with pytest.raises(ValueError) as caught:
            convergence_scan(builtin_problem("morse"), "fixed_L_vary_N", n_list, states)
        assert str(caught.value) == message

    def test_integral_values_of_any_type_accepted(self):
        n_list = [np.int64(41 + 10 * i) for i in range(11)] + [151.0]
        scan = convergence_scan(builtin_problem("morse"), "fixed_L_vary_N", n_list, (np.int32(1),))
        assert scan.n_list == tuple(range(41, 152, 10)) and scan.state_indices == (1,)
        assert all(type(n) is int for n in scan.n_list + scan.state_indices)

    def test_fixed_a_mode_scales_width(self):
        grid = make_lattice(10.0, 20)  # a = 10/41
        problem = ProblemDefinition(name="ho", grid=grid, ordering=ConstantMass(1.0),
                                    potential_real=lambda x: 0.5 * x**2)
        n_list = list(range(17, 62, 2))  # widen the box from L = 4.1 to 14.9
        scan = convergence_scan(problem, "fixed_a_vary_N", n_list, state_indices=(0,))
        assert scan.fixed_value == grid.a
        assert scan.rel_errors[-1, 0] <= 1e-10
        slope, corr, npts = exponential_fit(scan, 0)
        assert slope < 0 and corr < -0.95 and npts >= 6


#: Criterion 09's Hermitian nh3 scan, a real non-symmetric and a complex one.
SCANS = {
    "nh3 anticommutator": (lambda: builtin_problem(
        "nh3", ordering=ordering_from_name("inverse-mass-anticommutator"), L=4.5),
        "fixed_L_vary_N", (0, 7, 19)),
    "nh3 mass-left": (lambda: builtin_problem(
        "nh3", ordering=ordering_from_name("mass-left")), "fixed_L_vary_N", (0, 1, 2)),
    "pt oscillator": (lambda: builtin_problem("pt_oscillator"), "fixed_a_vary_N", (0, 4)),
}


class TestScanEigenvaluesOnly:
    @pytest.mark.parametrize("name", list(SCANS))
    def test_energies_match_solve_on_each_grid(self, name):
        make, mode, states = SCANS[name]
        problem = make()
        n_list = list(range(33, 80, 4))
        scan = convergence_scan(problem, mode, n_list, states)
        for n, energies in zip(n_list, scan.energies):
            L = problem.grid.L if mode == "fixed_L_vary_N" else problem.grid.a * n
            solved = solve(replace(problem, grid=make_lattice(L, points_to_m(n)))).eigenvalues
            # Without eigenvectors LAPACK takes another route to the values:
            # both are exact to round-off of the largest level, so a level far
            # below it may differ by more than 1e-13 of itself (nh3 state 19
            # at N = 33: 1.7e-13 relative, 2e-17 of the largest level).
            scale = np.abs(solved).max()
            np.testing.assert_allclose(energies, solved[list(states)].real,
                                       rtol=1e-13, atol=1e-15 * scale)

    def test_computes_no_eigenvectors(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a scan asked for eigenvectors")
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eig", refuse)
        make, mode, states = SCANS["nh3 anticommutator"]
        scan = convergence_scan(make(), mode, list(range(21, 46, 2)), states)
        assert np.all(np.isfinite(scan.energies))


class TestCompareToReference:
    def test_identical_spectra_have_zero_deviation(self):
        s = solve(builtin_problem("morse"))
        ref = reference_spectrum("morse.benchmark")
        computed = labeled_levels(s, unit=ref.unit, shifted=ref.shifted)
        fake = ref.__class__(problem="morse", source="analytic", unit="model",
                             shifted=False, citation="self",
                             values={k: computed[k] for k in ref.values})
        report = compare_to_reference(s, fake)
        assert report.max_abs_dev == 0.0

    def test_nh3_against_benchmark(self):
        report = compare_to_reference(solve(builtin_problem("nh3")),
                                      reference_spectrum("nh3.benchmark"))
        assert report.max_abs_dev <= 0.01

    def test_nd3_relative_errors(self):
        s = solve(builtin_problem("nd3"))
        vs_exp = compare_to_reference(s, reference_spectrum("nd3.experiment"))
        assert vs_exp.max_rel_dev_above(1.0) <= 0.007

    def test_nd3_constant_mass_much_worse(self):
        from qmbox.hamiltonian import ConstantMass
        from qmbox.problems import constant_reduced_mass
        mu = constant_reduced_mass(CONSTANTS.m_D, CONSTANTS.m_N)
        s = solve(builtin_problem("nd3", ordering=ConstantMass(mu)))
        vs_exp = compare_to_reference(s, reference_spectrum("nd3.experiment"))
        assert 0.06 <= vs_exp.max_rel_dev_above(1.0) <= 0.066

    def test_label_mismatch(self):
        s = solve(builtin_problem("morse"))
        ref = reference_spectrum("nh3.benchmark")  # parity labels, absent here
        with pytest.raises(KeyError, match="0s"):
            compare_to_reference(s, ref)
