import json

import numpy as np
import pytest

from qmbox.cli import load_config, main
from qmbox.hamiltonian import ConstantMass, VonRoos
from qmbox.problems import BUILTIN_IDS, builtin_problem
from qmbox.solve import solve


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


#: Ordering specs with a parameter out of range, and the complaint each gets.
INVALID_ORDERINGS = [
    ("von-roos inf 0", "alpha and gamma must be finite"),
    ("von-roos nan 0", "alpha and gamma must be finite"),
    ("constant-mass -1", "mu must be finite and positive"),
    ("constant-mass inf", "mu must be finite and positive"),
    ("constant-mass 0", "mu must be finite and positive"),
]


class TestList:
    def test_lists_all_builtin_ids(self, capsys):
        code, out, _ = run(["list"], capsys)
        assert code == 0
        assert out.split() == list(BUILTIN_IDS)


class TestSolve:
    def test_pt_oscillator_levels(self, capsys):
        code, out, _ = run(["solve", "--problem", "pt_oscillator", "--states", "3"],
                           capsys)
        assert code == 0
        rows = out.strip().splitlines()[1:]
        energies = [float(r.split()[1]) for r in rows]
        imags = [abs(float(r.split()[2])) for r in rows]
        np.testing.assert_allclose(energies, [1.25, 3.25, 5.25], atol=1e-11)
        assert max(imags) <= 1e-9

    def test_nh3_shifted_wavenumbers(self, capsys):
        code, out, _ = run(["solve", "--problem", "nh3", "--unit", "cm-1",
                            "--shift", "--states", "8"], capsys)
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 8
        labels = [r.split()[0] for r in rows]
        assert labels == ["0s", "0a", "1s", "1a", "2s", "2a", "3s", "3a"]
        values = [float(r.split()[1]) for r in rows]
        assert values[0] == 0.0
        assert values[1] == pytest.approx(0.837, abs=0.005)
        assert values[2] == pytest.approx(931.72, abs=0.01)

    def test_csv_output_deterministic(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            code, _, _ = run(["solve", "--problem", "morse", "--states", "6",
                              "--output", str(out)], capsys)
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_values_match_library_at_print_precision(self, tmp_path, capsys):
        out = tmp_path / "morse.csv"
        run(["solve", "--problem", "morse", "--states", "6", "--output", str(out)],
            capsys)
        lines = out.read_text().splitlines()
        assert lines[0] == "state,energy,imag,residual"
        printed = [float(line.split(",")[1]) for line in lines[1:]]
        exact = solve(builtin_problem("morse")).eigenvalues[:6].real
        np.testing.assert_allclose(printed, exact, rtol=1e-11)  # 12 significant digits

    def test_json_output(self, tmp_path, capsys):
        out = tmp_path / "morse.json"
        code, _, _ = run(["solve", "--problem", "morse", "--states", "2",
                          "--format", "json", "--output", str(out)], capsys)
        assert code == 0
        rows = json.loads(out.read_text())
        assert rows[0]["state"] == "0"
        assert rows[0]["energy"] == pytest.approx(0.1625056275, abs=1e-9)

    def test_pt_levels_are_exactly_real(self, tmp_path, capsys):
        out = tmp_path / "pt.json"
        code, _, _ = run(["solve", "--problem", "pt_oscillator", "--states", "10",
                          "--format", "json", "--output", str(out)], capsys)
        assert code == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 10
        assert all(row["imag"] == 0.0 for row in rows)

    def test_wavefunction_dump(self, tmp_path, capsys):
        dump = tmp_path / "psi.dat"
        code, _, _ = run(["solve", "--problem", "morse", "--states", "2",
                          "--dump-wavefunctions", str(dump)], capsys)
        assert code == 0
        body = [l for l in dump.read_text().splitlines() if not l.startswith("#")]
        assert len(body) == 111
        assert all(len(l.split()) == 5 for l in body)  # x re0 im0 re1 im1

    def test_grid_override(self, capsys):
        code, out, _ = run(["solve", "--problem", "morse", "--N", "201", "--L", "140",
                            "--states", "1"], capsys)
        assert code == 0

    def test_2d_overrides_and_dump(self, tmp_path, capsys):
        dump = tmp_path / "psi2d.dat"
        code, out, _ = run(["solve", "--problem", "henon_heiles", "--Nx", "11",
                            "--Ny", "11", "--Lx", "9", "--Ly", "9", "--states", "2",
                            "--dump-wavefunctions", str(dump)], capsys)
        assert code == 0
        body = [l for l in dump.read_text().splitlines() if not l.startswith("#")]
        assert len(body) == 121
        assert all(len(l.split()) == 6 for l in body)  # x y re0 im0 re1 im1

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run(["solve", "--states", "1"], capsys)
        assert code == 1
        assert "exactly one" in err
        code, _, err = run(["solve", "--problem", "nh3", "--config", "x.cfg"], capsys)
        assert code == 1

    def test_mass_pole_exit_code(self, capsys):
        # a width that parks one grid point machine-close to the mass pole
        from qmbox.problems import CONSTANTS
        L = 111 * CONSTANTS.r0_au / 50
        code, _, err = run(["solve", "--problem", "nh3", "--L", f"{L!r}"], capsys)
        assert code == 2
        assert "pole" in err

    def test_unknown_flag_exit_code(self, capsys):
        code, _, _ = run(["solve", "--no-such-flag"], capsys)
        assert code == 1

    @pytest.mark.parametrize("spec", [" ", ","])
    def test_blank_ordering_exit_code(self, capsys, spec):
        code, _, err = run(["solve", "--problem", "nh3", "--ordering", spec], capsys)
        assert code == 1
        assert "empty ordering" in err

    @pytest.mark.parametrize("spec,message", INVALID_ORDERINGS)
    def test_invalid_ordering_parameters_exit_code(self, capsys, spec, message):
        code, out, err = run(["solve", "--problem", "nh3", "--ordering", spec], capsys)
        assert code == 1
        assert message in err
        assert out == ""

    @pytest.mark.parametrize("flags", [["--problem", "nh3", "--N", "0"],
                                       ["--problem", "nh3", "--L", "0"],
                                       ["--problem", "henon_heiles", "--Nx", "0"],
                                       ["--problem", "henon_heiles", "--Ny", "0"],
                                       ["--problem", "henon_heiles", "--Lx", "0"],
                                       ["--problem", "henon_heiles", "--Ly", "0"]],
                             ids=["N", "L", "Nx", "Ny", "Lx", "Ly"])
    def test_zero_grid_override_exit_code(self, capsys, flags):
        code, out, err = run(["solve", *flags], capsys)
        assert code == 1
        assert "must be" in err and "positive" in err
        assert out == ""

    @pytest.mark.parametrize("states", ["0", "-2"])
    def test_nonpositive_states_exit_code(self, capsys, states):
        code, out, err = run(["solve", "--problem", "nh3", "--states", states], capsys)
        assert code == 1
        assert f"--states must be at least 1, got {states}" in err
        assert out == ""

    def test_2d_position_dependent_mass_exit_code(self, capsys):
        code, _, err = run(["solve", "--problem", "henon_heiles", "--ordering", "mass-left"],
                           capsys)
        assert code == 1
        assert "constant-mass" in err


class TestConfig:
    def write(self, tmp_path, text):
        path = tmp_path / "problem.cfg"
        path.write_text(text)
        return str(path)

    def test_harmonic_oscillator_config(self, tmp_path, capsys):
        cfg = self.write(tmp_path, """
            dimension = 1
            N = 101
            L = 20
            mass = 1
            potential_real = 0.5*x^2
        """)
        code, out, _ = run(["solve", "--config", cfg, "--states", "3"], capsys)
        assert code == 0
        energies = [float(r.split()[1]) for r in out.strip().splitlines()[1:]]
        np.testing.assert_allclose(energies, [0.5, 1.5, 2.5], atol=1e-10)

    def test_config_matches_builtin_exactly(self, tmp_path, capsys):
        cfg = self.write(tmp_path, """
            dimension = 1
            N = 201
            L = 20
            ordering = mass-sandwich
            mass = (1+x^2)/1
            potential_real = 0.5*x^2   # same spec as the built-in
        """)
        problem = load_config(cfg)
        assert problem.ordering == VonRoos(0.0, 0.0)
        w_config = solve(problem).eigenvalues
        w_builtin = solve(builtin_problem("pdm_ho_1")).eigenvalues
        np.testing.assert_array_equal(w_config, w_builtin)

    def test_constant_mass_shortcut(self, tmp_path):
        cfg = self.write(tmp_path, """
            dimension = 1
            N = 41
            L = 10
            mass = 2.0
            potential_real = x^2
        """)
        assert load_config(cfg).ordering == ConstantMass(2.0)

    def test_complex_potential_config(self, tmp_path, capsys):
        cfg = self.write(tmp_path, """
            dimension = 1
            N = 101
            L = 25
            ordering = constant-mass 0.5
            potential_real = x^2
            potential_imag = x
        """)
        code, out, _ = run(["solve", "--config", cfg, "--states", "2"], capsys)
        assert code == 0
        first = out.strip().splitlines()[1].split()
        assert float(first[1]) == pytest.approx(1.25, abs=1e-11)

    def test_two_dimensional_config(self, tmp_path, capsys):
        cfg = self.write(tmp_path, """
            dimension = 2
            N_x = 15
            N_y = 15
            L_x = 10
            L_y = 10
            ordering = constant-mass
            potential_real = 0.5*(x^2 + y^2)
        """)
        code, out, _ = run(["solve", "--config", cfg, "--states", "3"], capsys)
        assert code == 0
        energies = [float(r.split()[1]) for r in out.strip().splitlines()[1:]]
        np.testing.assert_allclose(energies, [1.0, 2.0, 2.0], atol=1e-6)

    def test_missing_dimension_names_key(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "N = 41\nL = 10\nmass = 1\npotential_real = x^2\n")
        code, _, err = run(["solve", "--config", cfg], capsys)
        assert code == 1
        assert "dimension" in err

    def test_expression_error_has_position(self, tmp_path, capsys):
        cfg = self.write(tmp_path,
                         "dimension = 1\nN = 41\nL = 10\nmass = 1\npotential_real = x^^2\n")
        code, _, err = run(["solve", "--config", cfg], capsys)
        assert code == 1
        assert "potential_real" in err and "position" in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "dimension = 1\nwidth = 10\n")
        code, _, err = run(["solve", "--config", cfg], capsys)
        assert code == 1
        assert "width" in err

    def test_missing_file(self, capsys):
        code, _, err = run(["solve", "--config", "/nonexistent.cfg"], capsys)
        assert code == 1

    def test_duplicate_key_rejected(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "dimension = 1\nN = 41\nN = 43\n")
        code, _, err = run(["solve", "--config", cfg], capsys)
        assert code == 1
        assert "duplicate" in err

    def test_blank_ordering_rejected(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "dimension = 1\nN = 41\nL = 10\nmass = 1\n"
                                   "ordering = ,\npotential_real = x^2\n")
        code, _, err = run(["solve", "--config", cfg], capsys)
        assert code == 1
        assert "'ordering'" in err and "empty ordering" in err

    @pytest.mark.parametrize("spec,message", INVALID_ORDERINGS)
    def test_invalid_ordering_parameters_rejected(self, tmp_path, capsys, spec, message):
        cfg = self.write(tmp_path, "dimension = 1\nN = 41\nL = 10\nmass = 1 + 0.1*x^2\n"
                                   f"ordering = {spec}\npotential_real = x^2\n")
        code, out, err = run(["solve", "--config", cfg], capsys)
        assert code == 1
        assert "'ordering'" in err and message in err
        assert out == ""

    @pytest.mark.parametrize("mass", ["0", "-1", "inf"])
    def test_invalid_constant_mass_rejected(self, tmp_path, capsys, mass):
        cfg = self.write(tmp_path, f"dimension = 1\nN = 41\nL = 10\nmass = {mass}\n"
                                   "potential_real = x^2\n")
        code, out, err = run(["solve", "--config", cfg], capsys)
        assert code == 1
        assert "'mass'" in err and "mu must be finite and positive" in err
        assert out == ""

    def test_ordering_without_mass_exit_code(self, tmp_path, capsys):
        cfg = self.write(tmp_path, "dimension = 1\nN = 41\nL = 10\n"
                                   "ordering = mass-left\npotential_real = x^2\n")
        code, _, err = run(["solve", "--config", cfg], capsys)
        assert code == 1
        assert "needs a mass function" in err

    def test_grid_flags_rejected_with_config(self, tmp_path, capsys):
        cfg = self.write(tmp_path, """
            dimension = 1
            N = 41
            L = 10
            mass = 1
            potential_real = x^2
        """)
        code, _, err = run(["solve", "--config", cfg, "--N", "61"], capsys)
        assert code == 1
        assert "built-ins" in err
        code, _, err = run(["solve", "--config", cfg, "--L", "0"], capsys)
        assert code == 1
        assert "built-ins" in err

    def test_quartic_double_well_folds(self, tmp_path):
        cfg = self.write(tmp_path, """
            dimension = 1
            N = 121
            L = 25
            mass = 1
            potential_real = x^4 - 2*x^2
        """)
        spectrum = solve(load_config(cfg))
        assert spectrum.mirror_axes == ("x",)
        assert spectrum.labels[:4] == ("0s", "0a", "1s", "1a")


class TestBench:
    def test_gate_passes(self, capsys):
        code, out, _ = run(["bench"], capsys)
        assert code == 0
        assert out.count("[PASS]") == 6
        assert "[FAIL]" not in out

    def test_gate_fails_with_exit_3(self, capsys, monkeypatch):
        from qmbox.bench import BenchResult
        import qmbox.cli as cli_mod
        monkeypatch.setattr(cli_mod, "run_benchmarks",
                            lambda: [BenchResult("forced", False, "forced failure", 0.0)])
        code, out, _ = run(["bench"], capsys)
        assert code == 3
        assert "[FAIL]" in out

    def test_thread_cap_env(self, capsys, monkeypatch):
        controls = _openblas_thread_controls()
        if not controls:
            pytest.skip("neither numpy's nor scipy's OpenBLAS exports set_num_threads")
        before = [get() for get, _ in controls]
        try:
            monkeypatch.setenv("QMBOX_MAX_THREADS", "1")
            code, _, _ = run(["solve", "--problem", "morse", "--states", "1"], capsys)
            assert code == 0
            assert [get() for get, _ in controls] == [1] * len(controls)
        finally:
            for (_, set_threads), count in zip(controls, before):
                set_threads(count)
        monkeypatch.setenv("QMBOX_MAX_THREADS", "lots")
        code, _, err = run(["solve", "--problem", "morse", "--states", "1"], capsys)
        assert code == 1
        assert "QMBOX_MAX_THREADS" in err
        monkeypatch.setenv("QMBOX_MAX_THREADS", "0")
        code, _, err = run(["solve", "--problem", "morse", "--states", "1"], capsys)
        assert code == 1
        assert "QMBOX_MAX_THREADS" in err


def _openblas_thread_controls():
    """(get, set) thread-count functions of each OpenBLAS bundled with numpy
    and scipy, read independently of the CLI's own lookup."""
    import ctypes
    import glob
    import os

    import scipy
    controls = []
    for package in (np, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                              package.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
            lib = ctypes.CDLL(path)
            for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                                   ("openblas", "64_"), ("openblas", "")):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    controls.append((get, set_))
                    break
    return controls


class TestConverge:
    def test_scan_csv_and_fit(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        n_list = ",".join(str(n) for n in range(19, 44, 2))
        code, _, err = run(["converge", "--problem", "pdm_ho_1", "--N-list", n_list,
                            "--track", "0", "--output", str(out)], capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "N,state,energy,rel_error"
        assert len(lines) == 14
        assert "slope" in err  # fit summary on stderr

    def test_gnuplot_files(self, tmp_path, capsys):
        prefix = tmp_path / "conv"
        n_list = ",".join(str(n) for n in range(19, 44, 2))
        code, _, _ = run(["converge", "--problem", "pdm_ho_1", "--N-list", n_list,
                          "--track", "0,2", "--gnuplot-prefix", str(prefix),
                          "--output", str(tmp_path / "s.csv")], capsys)
        assert code == 0
        for s in (0, 2):
            assert (tmp_path / f"conv.state{s}.dat").exists()

    def test_bad_n_list(self, capsys):
        code, _, err = run(["converge", "--problem", "nh3", "--N-list", "21,23"],
                           capsys)
        assert code == 1


class TestCompleteness:
    def test_epsilon_rows(self, tmp_path, capsys):
        out = tmp_path / "eps.csv"
        code, _, _ = run(["completeness", "--problem", "morse", "--N", "151",
                          "--L", "140", "--output", str(out)], capsys)
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n_max,epsilon"
        assert len(lines) == 152
        last = float(lines[-1].split(",")[1])
        assert last <= 1e-12

    @pytest.mark.parametrize("ground", ["500", "-1"])
    def test_ground_out_of_range_exit_code(self, capsys, ground):
        code, out, err = run(["completeness", "--problem", "morse", "--ground", ground], capsys)
        assert code == 1
        assert f"ground must be in 0..110, got {ground}" in err
        assert out == ""
