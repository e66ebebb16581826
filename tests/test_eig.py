import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import built_blocks, complex_hamiltonian, solved_blocks

import qmbox
from qmbox.eig import (Block, Plan, SolverError, Spectrum, classify_parity, diagonalize,
                       eigenvalues, phase_fix)
from qmbox.hamiltonian import (ConstantMass, ProblemDefinition, VonRoos, build_hamiltonian,
                               ordering_from_name)
from qmbox.lattice import make_lattice, make_lattice_2d
from qmbox.operators import PT, OperatorMatrix
from qmbox.problems import BUILTIN_IDS, builtin_problem, pt_exact_level
from qmbox.solve import solve


def whole_grid_plan(grid, hermitian):
    """The plan of one unfolded dense block over a 1D grid, for a Spectrum
    made by hand."""
    block = Block((grid.size,), np.dtype(float if hermitian else complex), (0,), False,
                  "eigh" if hermitian else "eig")
    return Plan((block,), None, (), 0)


def det_sign_eigenvalues(A, samples=4001, iterations=80):
    """Independent oracle: bracket the real eigenvalues of a Hermitian matrix
    by sign changes of det(A - s I) on a Gershgorin interval and bisect.
    Uses only LU determinants; no QR/eigensolver machinery."""
    n = A.shape[0]
    radius = np.max(np.sum(np.abs(A), axis=1)) + 1e-9
    grid = np.linspace(-radius, radius, samples)

    def sign_at(s):
        sign, _ = np.linalg.slogdet(A - s * np.eye(n))
        return sign

    signs = np.array([sign_at(s) for s in grid])
    roots = []
    for i in range(samples - 1):
        if signs[i] * signs[i + 1] < 0:
            lo, hi = grid[i], grid[i + 1]
            lo_sign = signs[i]
            for _ in range(iterations):
                mid = 0.5 * (lo + hi)
                s = sign_at(mid)
                if s == lo_sign:
                    lo = mid
                else:
                    hi = mid
            roots.append(0.5 * (lo + hi))
    return np.array(roots)


class TestDiagonalize:
    def test_diagonal_matrix(self):
        grid = make_lattice(3.0, 1)
        op = OperatorMatrix(np.diag([3.0, 1.0, 2.0]), hermitian_hint=True)
        s = diagonalize(op, grid)
        np.testing.assert_allclose(s.eigenvalues, [1.0, 2.0, 3.0])
        # permuted identity columns up to the weight-a normalization
        psi = np.abs(s.eigenvectors) * np.sqrt(grid.a)
        np.testing.assert_allclose(psi, np.eye(3)[:, [1, 2, 0]], atol=1e-14)

    def test_hermitian_path_reports_exactly_real(self):
        s = solve(builtin_problem("pdm_ho_1"))
        assert s.hermitian_path
        assert not np.iscomplexobj(s.eigenvalues)
        assert np.abs(np.imag(s.eigenvalues)).max() == 0.0

    def test_matches_det_bisection_oracle(self):
        rng = np.random.default_rng(7)
        grid = make_lattice(1.0, 3)  # 8 sites? N=7; use N=7 grid for a 7x7
        for _ in range(3):
            B = rng.standard_normal((grid.N, grid.N))
            A = (B + B.T) / 2
            s = diagonalize(OperatorMatrix(A, hermitian_hint=True), grid)
            oracle = det_sign_eigenvalues(A)
            assert len(oracle) == grid.N  # distinct roots all bracketed
            np.testing.assert_allclose(s.eigenvalues, oracle, atol=1e-8)

    def test_sorted_by_real_then_imag(self):
        grid = make_lattice(3.0, 1)
        A = np.diag([1.0 + 1.0j, 1.0 - 1.0j, 0.5])
        s = diagonalize(OperatorMatrix(A, hermitian_hint=False), grid)
        np.testing.assert_allclose(s.eigenvalues, [0.5, 1.0 - 1.0j, 1.0 + 1.0j])

    def test_normalization_weight_a(self):
        s = solve(builtin_problem("morse"))
        norms = s.weight * np.sum(np.abs(s.eigenvectors) ** 2, axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_residuals_below_bound_on_builtins(self):
        for problem_id in ("nh3", "nd3", "morse", "pdm_ho_1", "pdm_ho_2",
                           "pt_oscillator", "non_pt_oscillator"):
            s = solve(builtin_problem(problem_id))
            assert s.residuals.max() <= 1e-9, problem_id

    def test_residuals_small_2d(self):
        s = solve(builtin_problem("henon_heiles", N=21, L=12.0))
        assert s.residuals.max() <= 1e-9

    def test_completeness_identity_reconstruction(self):
        # sum_n |n><n| with weight a resolves the identity on the Hermitian path
        for problem_id, n in (("morse", 111), ("pdm_ho_1", 101)):
            problem = builtin_problem(problem_id, N=n)
            s = solve(problem)
            P = s.weight * (s.eigenvectors @ s.eigenvectors.conj().T)
            assert np.linalg.norm(P - np.eye(problem.grid.N)) <= 1e-10

    def test_conjugate_pairing_real_nonsymmetric(self):
        rng = np.random.default_rng(11)
        grid = make_lattice(1.0, 7)
        for _ in range(5):
            A = rng.standard_normal((grid.N, grid.N))
            s = diagonalize(OperatorMatrix(A, hermitian_hint=False), grid)
            w = s.eigenvalues
            complex_ones = w[np.abs(w.imag) > 1e-10]
            for val in complex_ones:
                assert np.min(np.abs(complex_ones - np.conj(val))) <= 1e-10 * max(1.0, abs(val))

    def test_nonfinite_input_rejected(self):
        grid = make_lattice(3.0, 1)
        A = np.diag([1.0, np.nan, 2.0])
        with pytest.raises(SolverError, match="non-finite"):
            diagonalize(OperatorMatrix(A, hermitian_hint=True), grid)

    @pytest.mark.parametrize("n_states", [0, 32])
    def test_n_states_outside_one_to_the_grid_size_rejected(self, n_states):
        with pytest.raises(ValueError) as caught:
            solve(builtin_problem("morse", N=31), n_states)
        assert str(caught.value) == f"n_states must be in 1..31, got {n_states}"

    def test_operator_of_another_size_than_the_grid_rejected(self):
        op = build_hamiltonian(builtin_problem("morse", N=31))
        with pytest.raises(ValueError, match="operator dimension does not match the grid"):
            diagonalize(op, make_lattice(90.0, 16))

    @pytest.mark.parametrize("hermitian", [True, False])
    def test_zero_hamiltonian_has_zero_residuals(self, hermitian):
        # ||H||_F = 0: every pair is exact, and the relative residual must not be 0/0
        s = diagonalize(OperatorMatrix(np.zeros((1, 1)), hermitian), make_lattice(1.0, 0))
        assert s.residuals.tolist() == [0.0]

    def test_partial_decomposition_matches_full(self):
        problem = builtin_problem("pdm_ho_2")
        full = solve(problem)
        part = solve(problem, n_states=12)
        assert part.n_states == 12
        np.testing.assert_allclose(part.eigenvalues, full.eigenvalues[:12], rtol=1e-12)
        assert part.residuals.max() <= 1e-9

    @pytest.mark.parametrize("problem_id, n_states", [("nh3", 3), ("henon_heiles", 10)],
                             ids=["dense", "contracted"])
    def test_fractional_n_states_rejected_integral_accepted(self, problem_id, n_states):
        # the dense path slices by n_states and the contracted one counts
        # levels up to it: both read it as an int, never truncated
        problem = builtin_problem(problem_id)
        with pytest.raises(ValueError) as caught:
            solve(problem, n_states + 0.5)
        assert str(caught.value) == f"n_states must be integers, got {n_states + 0.5!r}"
        whole = solve(problem, n_states)
        for integral in (float(n_states), np.int64(n_states)):
            spectrum = solve(problem, integral)
            np.testing.assert_array_equal(spectrum.eigenvalues, whole.eigenvalues)

    @pytest.mark.parametrize("N, L", [(211, 4.5 * 211 / 151), (2049, 4.5)],
                             ids=["N=211", "N=2049"])
    def test_graded_1d_keeps_full_precision(self, N, L):
        # nh3's inverse-mass anticommutator: the entries grow by orders of
        # magnitude towards the mass pole, where a subset eigensolver loses
        # relative digits on the low levels
        problem = builtin_problem("nh3", N=N, L=L,
                                  ordering=ordering_from_name("inverse-mass-anticommutator"))
        part = solve(problem, 10).eigenvalues
        np.testing.assert_array_equal(part, solve(problem).eigenvalues[:10])

    def test_large_blocks_take_the_full_decomposition(self):
        # 1485 sites: the smallest block of a 55^2 Henon-Heiles solve
        rng = np.random.default_rng(2)
        A = rng.standard_normal((1485, 1485))
        A += A.T
        s = diagonalize(OperatorMatrix(A, hermitian_hint=True), make_lattice(1485.0, 742), 10)
        w, v = np.linalg.eigh(A)
        v = v[:, :10] / np.sqrt(np.sum(v[:, :10] ** 2, axis=0))   # the grid weight a is 1
        np.testing.assert_array_equal(s.eigenvalues, w[:10])
        np.testing.assert_array_equal(s.eigenvectors, v)


class TestVectorsWrittenOnce:
    @pytest.mark.parametrize("problem_id", BUILTIN_IDS)
    def test_solve_is_phase_fixed_block_decomposition(self, problem_id):
        # Henon-Heiles on 41^2: blocks of 861 and 820 sites take several passes each
        overrides = {"N": 41} if problem_id == "henon_heiles" else {}
        problem = builtin_problem(problem_id, **overrides)
        spectrum = solve(problem)
        reference = phase_fix(solved_blocks(built_blocks(problem), problem.grid))
        for name in ("eigenvalues", "eigenvectors", "residuals"):
            got, want = getattr(spectrum, name), getattr(reference, name)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    def test_full_2d_solve_peaks_below_twice_the_vectors(self):
        # the eigenvector matrix is the largest object of a full 2D spectrum;
        # written once, nothing else of its size is alive at the peak
        problem = builtin_problem("henon_heiles", N=41)
        tracemalloc.start()
        try:
            spectrum = solve(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * spectrum.eigenvectors.nbytes


def fresh_python(code: str) -> str:
    """The standard output of ``code`` run in a fresh interpreter that
    imports this qmbox, which must exit 0."""
    src = os.path.dirname(os.path.dirname(qmbox.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_1d_solves_and_scans_import_no_scipy():
    # scipy serves the contracted 2D solve alone; importing it would cost a
    # 1D caller's first solve about 0.3 s
    code = ("import sys, qmbox\n"
            "qmbox.solve(qmbox.builtin_problem('nh3'))\n"
            "qmbox.convergence_scan(qmbox.builtin_problem('nh3'), 'fixed_L_vary_N',\n"
            "                       range(31, 152, 10), (0, 7))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    assert fresh_python(code) == "[]\n"


def test_contracted_solve_loads_two_wrapper_modules_not_scipy_linalg():
    # the contracted solve loads scipy's compiled LAPACK and BLAS wrappers
    # alone, not the scipy.linalg package (about 0.3 s and 27 MiB), and a
    # later import of that package takes the very modules it loaded
    code = ("import json, sys\n"
            "import numpy as np\n"
            "import qmbox\n"
            "names = ['scipy.linalg._flapack', 'scipy.linalg._fblas']\n"
            "qmbox.solve(qmbox.builtin_problem('morse'), 8)\n"
            "checks = {'1D loads neither': not any(m in sys.modules for m in names)}\n"
            "spectrum = qmbox.solve(qmbox.builtin_problem('henon_heiles'), 10)\n"
            "checks['contracted'] = spectrum.plan.blocks[0].path == 'contracted'\n"
            "checks['no scipy.linalg'] = 'scipy.linalg' not in sys.modules\n"
            "flapack, fblas = (sys.modules[m] for m in names)\n"
            "import scipy.linalg\n"
            "checks['same modules'] = [sys.modules[m] for m in names] == [flapack, fblas]\n"
            "called = [(scipy.linalg.lapack, flapack, r) for r in ('syevd', 'sytrd', 'stebz', 'stein', 'ormqr')]\n"
            "called += [(scipy.linalg.blas, fblas, r) for r in ('syrk', 'gemm')]\n"
            "checks['same routines'] = all(getattr(public, 'd' + r) is getattr(loaded, 'd' + r)\n"
            "                              for public, loaded, r in called)\n"
            "w = scipy.linalg.eigh(np.array([[2.0, 1.0], [1.0, 2.0]]), eigvals_only=True)\n"
            "checks['eigh'] = np.allclose(w, [1.0, 3.0])\n"
            "print(json.dumps(checks))\n")
    checks = json.loads(fresh_python(code))
    assert checks == dict.fromkeys(checks, True) and len(checks) == 6


def test_threads_racing_to_load_a_wrapper_module_share_one():
    # four threads with a short switch interval ask for both modules at once
    # in a process that has loaded neither: every thread gets the one module
    # registered in sys.modules under each name
    code = ("import sys, threading\n"
            "from qmbox import eig\n"
            "sys.setswitchinterval(1e-6)\n"
            "start, got = threading.Barrier(4), []\n"
            "def load():\n"
            "    start.wait(timeout=30)\n"
            "    got.append((eig._wrapper('_flapack'), eig._wrapper('_fblas')))\n"
            "threads = [threading.Thread(target=load) for _ in range(4)]\n"
            "for t in threads: t.start()\n"
            "for t in threads: t.join(timeout=60)\n"
            "loaded = (sys.modules['scipy.linalg._flapack'], sys.modules['scipy.linalg._fblas'])\n"
            "print(not any(t.is_alive() for t in threads), len(got),\n"
            "      all(pair[0] is loaded[0] and pair[1] is loaded[1] for pair in got))\n")
    assert fresh_python(code) == "True 4 True\n"


class TestEigenvaluesOnly:
    @pytest.mark.parametrize("make", [
        lambda: builtin_problem("morse"),
        lambda: builtin_problem("nh3", ordering=ordering_from_name("mass-left")),
        lambda: builtin_problem("pt_oscillator"),
        lambda: builtin_problem("non_pt_oscillator"),
    ], ids=["hermitian", "real-nonsymmetric", "complex-pt", "complex"])
    def test_matches_diagonalize(self, make):
        problem = make()
        op = build_hamiltonian(problem)
        w = eigenvalues(op)
        full = diagonalize(op, problem.grid)
        assert w.dtype == full.eigenvalues.dtype
        np.testing.assert_allclose(w, full.eigenvalues, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("hermitian", [True, False])
    def test_nonfinite_input_rejected(self, hermitian):
        A = np.diag([1.0, np.nan, 2.0])
        with pytest.raises(SolverError, match="non-finite"):
            eigenvalues(OperatorMatrix(A, hermitian_hint=hermitian))

    @pytest.mark.parametrize("hermitian", [True, False])
    def test_no_convergence_is_solver_error(self, hermitian, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("no convergence")
        monkeypatch.setattr(np.linalg, "eigvalsh" if hermitian else "eigvals", fail)
        with pytest.raises(SolverError, match="did not converge"):
            eigenvalues(OperatorMatrix(np.eye(3), hermitian_hint=hermitian))


class TestComplexSpectraExamples:
    def test_non_pt_ground_state_both_parts(self):
        w0 = solve(builtin_problem("non_pt_oscillator")).eigenvalues[0]
        assert abs(w0.real - 1.0) <= 1e-12
        assert abs(w0.imag - 0.5) <= 1e-12

    def test_pt_ground_state(self):
        w0 = solve(builtin_problem("pt_oscillator")).eigenvalues[0]
        assert w0.real == pytest.approx(1.25, abs=1e-12)
        assert abs(w0.imag) <= 1e-9


def oracle(H):
    """``np.linalg.eig`` on the complex H itself, sorted by (Re, Im)."""
    w, v = np.linalg.eig(H)
    order = np.lexsort((w.imag, w.real))
    return w[order], v[:, order]


def nearest(values, targets):
    """For each target, the entry of ``values`` closest to it."""
    return values[np.argmin(np.abs(values[:, None] - targets[None, :]), axis=0)]


class TestPTRealForm:
    """A problem whose sampled functions are PT-symmetric bitwise is built
    as a real matrix of the grid's size; the oracle is the complex
    eigensolver on the assembled complex H."""

    @pytest.mark.parametrize("N", [101, 111, 121, 201])
    def test_pt_oscillator_levels_are_exactly_real(self, N):
        problem = builtin_problem("pt_oscillator", N=N)
        w = solve(problem).eigenvalues
        assert w.dtype == np.complex128
        assert np.all(w[:45].imag == 0.0)
        exact = np.array([pt_exact_level(n).real for n in range(45)])
        assert np.max(np.abs(w[:45].real - exact) / exact) < 1e-12

    @pytest.mark.parametrize("N", [101, 121, 201])
    def test_levels_match_the_complex_oracle(self, N):
        problem = builtin_problem("pt_oscillator", N=N)
        H = complex_hamiltonian(problem)
        s = diagonalize(build_hamiltonian(problem), problem.grid)
        w, v = s.eigenvalues, s.eigenvectors
        reference = oracle(H)[0]
        real = np.flatnonzero(w.imag == 0)
        assert len(real) >= 45
        # the oracle is itself off by about kappa eps ||H|| on the levels
        # near PT breaking, where kappa = ||v||^2 / |v^T v| (H = H^T) reaches 1e4
        kappa = np.sum(np.abs(v[:, real]) ** 2, axis=0) / np.abs(np.sum(v[:, real] ** 2, axis=0))
        allowed = np.maximum(1e-12 * np.abs(w[real]),
                             kappa * np.finfo(float).eps * np.linalg.norm(H, 2))
        assert np.all(np.abs(nearest(reference, w[real]) - w[real]) <= allowed)
        assert np.max(np.abs(nearest(reference, w[real[:45]]) - w[real[:45]])
                      / np.abs(w[real[:45]])) < 1e-12
        broken = w[w.imag != 0]
        assert len(broken) % 2 == 0
        assert np.array_equal(broken[0::2], np.conj(broken[1::2]))   # exact pairs, Im < 0 first

    def test_vectors_match_the_oracle_up_to_a_phase(self):
        problem = builtin_problem("pt_oscillator")
        H = complex_hamiltonian(problem)
        s = diagonalize(build_hamiltonian(problem), problem.grid)
        w_ref, v_ref = oracle(H)
        v = s.eigenvectors[:, :45] / np.linalg.norm(s.eigenvectors[:, :45], axis=0)
        u = v_ref[:, :45] / np.linalg.norm(v_ref[:, :45], axis=0)
        np.testing.assert_allclose(w_ref[:45].real, s.eigenvalues[:45].real, rtol=1e-12)
        overlap = np.sum(np.conj(u) * v, axis=0)
        np.testing.assert_allclose(np.abs(overlap), 1.0, rtol=0, atol=1e-12)
        assert np.max(np.abs(v - u * (overlap / np.abs(overlap))[None, :])) <= 1e-10
        residuals = (np.linalg.norm(H @ v - v * s.eigenvalues[None, :45], axis=0)
                     / np.linalg.norm(H))
        assert residuals.max() <= 1e-14
        assert s.residuals.max() <= 1e-14

    def test_single_block_2d(self):
        grid = make_lattice_2d(12.0, 10, 12.0, 10)
        problem = ProblemDefinition(name="pt-2d", grid=grid, ordering=ConstantMass(1.0),
                                    potential_real=lambda x, y: 0.5 * (x**2 + y**2),
                                    potential_imag=lambda x, y: 0.3 * (x + y),
                                    energy_unit="model")
        s = solve(problem, 40)
        assert s.mirror_axes == ()
        assert np.all(s.eigenvalues.imag == 0.0)
        reference = oracle(complex_hamiltonian(problem))[0][:40]
        np.testing.assert_allclose(s.eigenvalues, reference, rtol=0, atol=2e-13)

    def test_von_roos_beta_nonzero_takes_the_real_form(self):
        """beta = -1/2 makes H PT-symmetric only to round-off, while its
        sampled functions are PT bitwise: the builder's decision holds."""
        problem = ProblemDefinition(name="pt-von-roos", grid=make_lattice(25.0, 50),
                                    ordering=VonRoos(-0.25, -0.25),
                                    mass=lambda x: 1.0 + 0.1 * x**2,
                                    potential_real=lambda x: x**2, potential_imag=lambda x: x,
                                    energy_unit="model")
        H = complex_hamiltonian(problem)
        assert not np.array_equal(H[::-1, ::-1], np.conj(H))
        assert build_hamiltonian(problem).parity == (PT,)
        s = solve(problem)
        w, v = s.eigenvalues[:20], s.eigenvectors[:, :20]
        assert np.all(w.imag == 0.0)
        # the oracle is off by about kappa eps ||H|| itself, kappa = ||v||^2 / |v^T v| (H = H^T)
        kappa = np.sum(np.abs(v) ** 2, axis=0) / np.abs(np.sum(v ** 2, axis=0))
        allowed = kappa * np.finfo(float).eps * np.linalg.norm(H)
        assert np.all(np.abs(nearest(oracle(H)[0], w) - w) <= allowed)

    def test_perturbed_and_non_pt_matrices_stay_complex(self):
        def round_off_imag(w):
            real_like = w[np.abs(w.imag) < 1e-8]
            return len(real_like) > 0 and np.any(real_like.imag != 0.0)

        problem = builtin_problem("pt_oscillator")
        assert not round_off_imag(solve(problem).eigenvalues)
        # a bare complex matrix goes to the complex solver, PT-symmetric or not
        assert round_off_imag(eigenvalues(OperatorMatrix(complex_hamiltonian(problem))))
        # Im V odd only to round-off: no real form
        skewed = replace(problem, potential_imag=lambda x: (x + 0.3) - 0.3)
        x = problem.grid.x
        assert not np.array_equal(skewed.potential_imag(x), -skewed.potential_imag(-x))
        assert np.iscomplexobj(build_hamiltonian(skewed).matrix)
        assert round_off_imag(solve(skewed).eigenvalues)
        non_pt = builtin_problem("non_pt_oscillator")
        assert np.iscomplexobj(build_hamiltonian(non_pt).matrix)
        w = solve(non_pt).eigenvalues[:45]
        assert np.any(w.imag != 0.5) and np.abs(w.imag - 0.5).max() <= 1e-10


class TestHermitianHintHonesty:
    def test_hint_implies_hermitian_entries(self):
        # structural flag never lies: max|A - A^H| <= 1e-12 max|A|
        from qmbox.hamiltonian import build_hamiltonian, build_kinetic
        candidates = [build_kinetic(builtin_problem("morse"))]
        for problem_id in ("nh3", "morse", "pdm_ho_1", "pt_oscillator"):
            candidates.append(build_hamiltonian(builtin_problem(problem_id)))
        for op in candidates:
            if op.hermitian_hint:
                A = op.matrix
                gap = np.abs(A - A.conj().T).max()
                assert gap <= 1e-12 * np.abs(A).max()


class TestParity:
    def test_nh3_doublet_labels(self):
        s = solve(builtin_problem("nh3"))
        assert s.labels[:8] == ("0s", "0a", "1s", "1a", "2s", "2a", "3s", "3a")

    def test_morse_states_have_no_parity(self):
        s = solve(builtin_problem("morse"))
        assert set(s.parity[:6]) == {"none"}
        assert s.labels[:3] == ("0", "1", "2")

    def test_2d_rejected(self):
        s = solve(builtin_problem("henon_heiles", N=9, L=10.0))
        assert s.parity is None
        assert s.labels == tuple(str(n) for n in range(s.n_states))
        with pytest.raises(ValueError, match="1D"):
            classify_parity(s)

    def test_labels_count_each_parity_class(self):
        grid = make_lattice(5.0, 2)
        s = Spectrum(eigenvalues=np.arange(5, dtype=float), eigenvectors=np.eye(5),
                     residuals=np.zeros(5), plan=whole_grid_plan(grid, True), grid=grid,
                     parity=("s", "a", "a", "none", "s"))
        assert s.labels == ("0s", "0a", "1a", "3", "1s")
        assert replace(s, parity=None).labels == ("0", "1", "2", "3", "4")
        assert replace(s, parity=("a",) * 5).labels == ("0a", "1a", "2a", "3a", "4a")

    def test_whole_grid_and_pt_blocks_give_no_parity(self):
        for problem_id in ("pt_oscillator", "non_pt_oscillator"):
            assert set(solve(builtin_problem(problem_id)).parity) == {"none"}
        # nh3 as one bare matrix: no block says even or odd, the overlap oracle does
        problem = builtin_problem("nh3")
        bare = diagonalize(build_hamiltonian(problem), problem.grid, 8)
        assert bare.parity == ("none",) * 8
        assert classify_parity(bare).labels == solve(problem, 8).labels


class TestPhaseFix:
    def _spectrum(self, vectors):
        grid = make_lattice(float(vectors.shape[0]), (vectors.shape[0] - 1) // 2)
        return Spectrum(eigenvalues=np.arange(vectors.shape[1], dtype=float),
                        eigenvectors=vectors, residuals=np.zeros(vectors.shape[1]),
                        plan=whole_grid_plan(grid, True), grid=grid)

    def test_sign_flip_real(self):
        s = self._spectrum(np.array([[0.0], [-1.0], [0.0]]))
        fixed = phase_fix(s)
        np.testing.assert_array_equal(fixed.eigenvectors[:, 0], [0.0, 1.0, 0.0])

    def test_unit_phase_complex(self):
        v = 1j * np.array([[0.6], [0.8], [0.0]])
        fixed = phase_fix(self._spectrum(v))
        np.testing.assert_allclose(fixed.eigenvectors[:, 0], [0.6, 0.8, 0.0], atol=1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        grid = make_lattice(5.0, 2)
        s = Spectrum(eigenvalues=np.arange(4, dtype=float), eigenvectors=v,
                     residuals=np.zeros(4), plan=whole_grid_plan(grid, False), grid=grid)
        once = phase_fix(s)
        twice = phase_fix(once)
        np.testing.assert_array_equal(once.eigenvectors, twice.eigenvectors)

    def test_idempotent_on_many_complex_vectors(self):
        rng = np.random.default_rng(11)
        grid = make_lattice(5.0, 2)
        for _ in range(200):
            v = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
            s = Spectrum(eigenvalues=np.arange(3, dtype=float), eigenvectors=v,
                         residuals=np.zeros(3), plan=whole_grid_plan(grid, False), grid=grid)
            once = phase_fix(s)
            np.testing.assert_array_equal(phase_fix(once).eigenvectors, once.eigenvectors)

    def test_idempotent_with_tied_magnitudes(self):
        # mirror-image sites of a symmetric state have exactly equal |psi|
        rng = np.random.default_rng(5)
        grid = make_lattice(3.0, 1)
        for _ in range(200):
            c, d = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v = np.array([[c], [0.1 * abs(c) * d / abs(d)], [-c]])
            s = Spectrum(eigenvalues=np.zeros(1), eigenvectors=v, residuals=np.zeros(1),
                         plan=whole_grid_plan(grid, False), grid=grid)
            once = phase_fix(s)
            assert once.eigenvectors[0, 0].imag == 0.0 and once.eigenvectors[0, 0].real > 0
            np.testing.assert_array_equal(phase_fix(once).eigenvectors, once.eigenvectors)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_leaves_input_unchanged(self, dtype):
        rng = np.random.default_rng(7)
        v = rng.standard_normal((5, 3)).astype(dtype)
        if dtype is complex:
            v += 1j * rng.standard_normal((5, 3))
        before = v.copy()
        s = self._spectrum(v)
        fixed = phase_fix(s)
        np.testing.assert_array_equal(s.eigenvectors, before)
        assert not np.shares_memory(fixed.eigenvectors, v)

    def test_real_pivot_tie_takes_first_site(self):
        # +a and -a tie for the largest |v|; the first of their sites is the
        # pivot, as np.argmax(np.abs(v)) picks it
        v = np.array([[0.1, 0.5], [-0.5, 0.2], [0.5, -0.5], [0.3, 0.1], [0.0, -0.5]])
        fixed = phase_fix(self._spectrum(v)).eigenvectors
        np.testing.assert_array_equal(fixed[:, 0], -v[:, 0])
        np.testing.assert_array_equal(fixed[:, 1], v[:, 1])

    def test_real_mirror_ties_take_the_first_site_and_zero_stays(self):
        a = 0.625
        v = np.array([[a, -a, 0.0], [0.0, 0.0, 0.0], [-a, a, 0.0]])
        fixed = phase_fix(self._spectrum(v)).eigenvectors
        np.testing.assert_array_equal(fixed, [[a, a, 0.0], [0.0, 0.0, 0.0], [-a, -a, 0.0]])

    def test_real_pivot_over_several_chunks_matches_each_column_alone(self):
        # 1001 x 800 is four passes; mirror-image columns tie +a and -a at
        # mirror sites, so a pivot taken from the wrong site flips the sign
        rng = np.random.default_rng(17)
        v = np.round(rng.standard_normal((1001, 800)), 2)
        v[:, 1::3] = v[:, 1::3] - v[::-1, 1::3]   # odd: v(-x) = -v(x)
        v[:, 2::3] = v[:, 2::3] + v[::-1, 2::3]   # even, ties of one sign
        v[:, 400] = 0.0
        assert v.size > 3 * 2**18
        want = np.empty_like(v)
        for j, column in enumerate(v.T):
            lead = column[np.argmax(np.abs(column))]
            want[:, j] = column * (np.sign(lead) if lead else 1.0)
        np.testing.assert_array_equal(phase_fix(self._spectrum(v)).eigenvectors, want)

    def test_complex_pivot_over_several_chunks_matches_each_column_alone(self):
        # 1001 x 600 is three passes; each column gets a rotated copy of its
        # largest entry at another site, shrunk by 0 (a tie up to round-off),
        # 1e-13 (inside the 1e-12 window) or 1e-11 (outside it)
        rng = np.random.default_rng(19)
        v = rng.standard_normal((1001, 600)) + 1j * rng.standard_normal((1001, 600))
        cols = np.arange(v.shape[1])
        top = np.argmax(np.abs(v), axis=0)
        sites = (top + rng.integers(1, v.shape[0], v.shape[1])) % v.shape[0]
        shrink = rng.choice([0.0, 1e-13, 1e-11], v.shape[1])
        v[sites, cols] = v[top, cols] * np.exp(2j * np.pi * rng.random(v.shape[1])) * (1 - shrink)
        v[:, 300] = 0.0
        assert v.size > 2 * 2**18
        want = np.empty_like(v)
        for j, column in enumerate(v.T):
            size = np.abs(column)
            pivot = np.flatnonzero(size >= (1.0 - 1e-12) * size.max())[0]
            want[:, j] = column * np.exp(-1j * np.angle(column[pivot]))
            want[pivot, j] = size[pivot]
        np.testing.assert_array_equal(phase_fix(self._spectrum(v)).eigenvectors, want)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_many_columns_match_whole_array_rule(self, dtype):
        # one pass of _column_chunks (the tests above cross chunk
        # boundaries), with exact ties among the columns
        rng = np.random.default_rng(13)
        v = np.round(rng.standard_normal((7, 301)), 1).astype(dtype)
        if dtype is complex:
            v += 1j * np.round(rng.standard_normal((7, 301)), 1)
        cols = np.arange(v.shape[1])
        size = np.abs(v)
        if dtype is float:
            lead = v[np.argmax(size, axis=0), cols]
            want = v * np.where(lead != 0, np.sign(lead), 1.0)
        else:
            pivots = np.argmax(size >= (1.0 - 1e-12) * size.max(axis=0), axis=0)
            lead = v[pivots, cols]
            want = v * np.exp(-1j * np.angle(lead))
            want[pivots, cols] = np.abs(lead)
        np.testing.assert_array_equal(phase_fix(self._spectrum(v)).eigenvectors, want)

    def test_keeps_real_arrays_real(self):
        s = solve(builtin_problem("morse"))
        assert not np.iscomplexobj(s.eigenvectors)
