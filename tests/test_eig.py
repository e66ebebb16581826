import numpy as np
import pytest

from qmbox.eig import (SolverError, Spectrum, classify_parity, diagonalize,
                       eigenvalues, phase_fix)
from qmbox.hamiltonian import (ConstantMass, ProblemDefinition, build_hamiltonian,
                               ordering_from_name)
from qmbox.lattice import make_lattice
from qmbox.operators import OperatorMatrix
from qmbox.problems import builtin_problem
from qmbox.solve import solve


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

    def test_partial_decomposition_matches_full(self):
        problem = builtin_problem("pdm_ho_2")
        full = solve(problem)
        part = solve(problem, n_states=12)
        assert part.n_states == 12
        np.testing.assert_allclose(part.eigenvalues, full.eigenvalues[:12], rtol=1e-12)
        assert part.residuals.max() <= 1e-9


class TestEigenvaluesOnly:
    @pytest.mark.parametrize("make", [
        lambda: builtin_problem("morse"),
        lambda: builtin_problem("nh3", ordering=ordering_from_name("mass-left")),
        lambda: builtin_problem("pt_oscillator"),
    ], ids=["hermitian", "real-nonsymmetric", "complex"])
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


class TestHermitianHintHonesty:
    def test_hint_implies_hermitian_entries(self):
        # structural flag never lies: max|A - A^H| <= 1e-12 max|A|
        from qmbox.hamiltonian import build_hamiltonian
        from qmbox.operators import momentum_matrix, momentum_squared_matrix
        grid = make_lattice(20.0, 30)
        candidates = [momentum_matrix(grid), momentum_squared_matrix(grid)]
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
        with pytest.raises(ValueError, match="1D"):
            classify_parity(s)


class TestPhaseFix:
    def _spectrum(self, vectors):
        grid = make_lattice(float(vectors.shape[0]), (vectors.shape[0] - 1) // 2)
        return Spectrum(eigenvalues=np.arange(vectors.shape[1], dtype=float),
                        eigenvectors=vectors, residuals=np.zeros(vectors.shape[1]),
                        hermitian_path=True, grid=grid)

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
                     residuals=np.zeros(4), hermitian_path=False, grid=grid)
        once = phase_fix(s)
        twice = phase_fix(once)
        np.testing.assert_array_equal(once.eigenvectors, twice.eigenvectors)

    def test_idempotent_on_many_complex_vectors(self):
        rng = np.random.default_rng(11)
        grid = make_lattice(5.0, 2)
        for _ in range(200):
            v = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
            s = Spectrum(eigenvalues=np.arange(3, dtype=float), eigenvectors=v,
                         residuals=np.zeros(3), hermitian_path=False, grid=grid)
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
                         hermitian_path=False, grid=grid)
            once = phase_fix(s)
            assert once.eigenvectors[0, 0].imag == 0.0 and once.eigenvectors[0, 0].real > 0
            np.testing.assert_array_equal(phase_fix(once).eigenvectors, once.eigenvectors)

    def test_keeps_real_arrays_real(self):
        s = solve(builtin_problem("morse"))
        assert not np.iscomplexobj(s.eigenvectors)
