import numpy as np
import pytest

from qmbox.expr import parse
from qmbox.lattice import make_lattice, make_lattice_2d
from qmbox.operators import (GridValueError, OperatorMatrix, exp_ialpha_p,
                             grid_values, kronecker_sum, momentum_ip,
                             momentum_matrix, momentum_squared_matrix)

LATTICES = [(3.0, 1), (2 * np.pi, 1), (2.7, 5), (10.0, 12), (25.0, 15)]


def frob(A):
    return np.linalg.norm(A)


class TestMomentum:
    @pytest.mark.parametrize("L,M", LATTICES)
    def test_zero_diagonal(self, L, M):
        p = momentum_matrix(make_lattice(L, M)).matrix
        np.testing.assert_array_equal(np.diag(p), 0.0)

    def test_first_offdiagonal_value(self):
        # closed form at N=3, L=2pi: (pi/(iL)) (-1) / sin(pi/3) = i/sqrt(3)
        p = momentum_matrix(make_lattice(2 * np.pi, 1)).matrix
        assert p[1, 0] == pytest.approx(1j / np.sqrt(3), abs=1e-15)
        assert abs(p[1, 0] - 0.5773502691896258j) < 1e-15

    @pytest.mark.parametrize("L,M", LATTICES)
    def test_hermitian_entrywise(self, L, M):
        p = momentum_matrix(make_lattice(L, M)).matrix
        np.testing.assert_array_equal(p, p.conj().T)

    @pytest.mark.parametrize("L,M", LATTICES)
    def test_ip_real_antisymmetric(self, L, M):
        A = momentum_ip(make_lattice(L, M))
        assert A.dtype == np.float64
        np.testing.assert_array_equal(A, -A.T)

    @pytest.mark.parametrize("L,M", LATTICES)
    def test_eigenvalues_are_grid_momenta(self, L, M):
        lat = make_lattice(L, M)
        eigs = np.sort(np.linalg.eigvals(momentum_matrix(lat).matrix).real)
        np.testing.assert_allclose(eigs, np.sort(lat.p), atol=1e-10)

    @pytest.mark.parametrize("L,M", LATTICES)
    def test_alternate_closed_form(self, L, M):
        # c1/sin(c2 (i-k)) with c1 = pi/L, c2 = pi(N+1)/N reproduces i*p,
        # via sin(pi j + pi j/N) = (-1)^j sin(pi j/N)
        lat = make_lattice(L, M)
        A = momentum_ip(lat)
        i = np.arange(lat.N)
        j = i[:, None] - i[None, :]
        with np.errstate(divide="ignore"):
            alt = (np.pi / L) / np.sin(np.pi * (lat.N + 1) / lat.N * j)
        np.fill_diagonal(alt, 0.0)
        np.testing.assert_allclose(alt, A, atol=1e-10 * np.abs(A).max())


class TestMomentumSquared:
    def test_diagonal_value_small_grid(self):
        # N=3, L=3 (a=1): diagonal pi^2/3 (1 - 1/9) = 8 pi^2 / 27
        P = momentum_squared_matrix(make_lattice(3.0, 1)).matrix
        np.testing.assert_allclose(np.diag(P), 8 * np.pi**2 / 27, rtol=1e-15)

    def test_offdiagonal_value_small_grid(self):
        # N=3, L=3, j=1: (2 pi^2/9)(-1)(1/2)/(3/4) = -4 pi^2/27
        P = momentum_squared_matrix(make_lattice(3.0, 1)).matrix
        assert P[1, 0] == pytest.approx(-4 * np.pi**2 / 27, rel=1e-15)

    @pytest.mark.parametrize("L,M", LATTICES + [(4.0, 55), (90.0, 55)])
    def test_matches_matrix_square(self, L, M):
        lat = make_lattice(L, M)
        P = momentum_squared_matrix(lat).matrix
        p = momentum_matrix(lat).matrix
        square = (p @ p).real
        assert frob(P - square) <= 1e-12 * frob(P)

    @pytest.mark.parametrize("L,M", LATTICES)
    def test_real_symmetric(self, L, M):
        P = momentum_squared_matrix(make_lattice(L, M)).matrix
        assert P.dtype == np.float64
        np.testing.assert_array_equal(P, P.T)

    @pytest.mark.parametrize("L,M", LATTICES)
    def test_positive_semidefinite(self, L, M):
        P = momentum_squared_matrix(make_lattice(L, M)).matrix
        assert np.linalg.eigvalsh(P).min() >= -1e-10


class TestTranslation:
    @pytest.mark.parametrize("L,M", LATTICES)
    def test_alpha_zero_is_identity(self, L, M):
        lat = make_lattice(L, M)
        U = exp_ialpha_p(lat, 0.0).matrix
        np.testing.assert_allclose(U, np.eye(lat.N), atol=1e-12)

    @pytest.mark.parametrize("L,M", LATTICES)
    def test_alpha_a_is_one_site_shift(self, L, M):
        lat = make_lattice(L, M)
        U = exp_ialpha_p(lat, lat.a).matrix
        shift = np.zeros((lat.N, lat.N))
        for i in range(lat.N):
            shift[i, (i + 1) % lat.N] = 1.0
        np.testing.assert_allclose(U, shift, atol=1e-12)

    @pytest.mark.parametrize("L,M", LATTICES)
    def test_alpha_L_is_identity(self, L, M):
        lat = make_lattice(L, M)
        U = exp_ialpha_p(lat, L).matrix
        np.testing.assert_allclose(U, np.eye(lat.N), atol=1e-12)

    @pytest.mark.parametrize("L,M", LATTICES)
    def test_unitary_rows_orthonormal(self, L, M):
        lat = make_lattice(L, M)
        U = exp_ialpha_p(lat, 0.3127).matrix
        np.testing.assert_allclose(U @ U.T, np.eye(lat.N), atol=1e-12)

    @pytest.mark.parametrize("alpha,beta", [(0.21, -0.53), (1.7, 2.9), (-0.05, 0.05)])
    def test_group_property(self, alpha, beta):
        lat = make_lattice(7.3, 9)
        U = exp_ialpha_p(lat, alpha).matrix
        V = exp_ialpha_p(lat, beta).matrix
        W = exp_ialpha_p(lat, alpha + beta).matrix
        assert frob(U @ V - W) <= 1e-10

    def test_matches_momentum_exponential(self):
        lat = make_lattice(6.0, 7)
        from scipy.linalg import expm
        alpha = 0.4321
        direct = exp_ialpha_p(lat, alpha).matrix
        via_p = expm(1j * alpha * momentum_matrix(lat).matrix)
        np.testing.assert_allclose(direct, via_p.real, atol=1e-11)
        assert np.abs(via_p.imag).max() < 1e-11


class TestDiagonal:
    def test_square_on_three_points(self):
        lat = make_lattice(3.0, 1)
        np.testing.assert_array_equal(grid_values(lambda x: x**2, {"x": lat.x}),
                                      [1.0, 0.0, 1.0])

    def test_inverse_mass_factor_at_origin(self):
        lat = make_lattice(3.0, 1)
        assert grid_values(lambda x: 1.0 / (1.0 + x**2), {"x": lat.x})[1] == 1.0

    def test_accepts_expression(self):
        lat = make_lattice(4.0, 3)
        np.testing.assert_allclose(grid_values(parse("x^2/2", {"x"}), {"x": lat.x}),
                                   lat.x**2 / 2)

    def test_accepts_constant(self):
        lat = make_lattice(4.0, 3)
        np.testing.assert_array_equal(grid_values(2.5, {"x": lat.x}), np.full(lat.N, 2.5))

    def test_nonfinite_reports_grid_point(self):
        lat = make_lattice(3.0, 1)
        with pytest.raises(GridValueError, match="x=0"):
            grid_values(lambda x: 1.0 / x, {"x": lat.x})


class TestEmbed2D:
    """kronecker_sum embeds x- and y-axis operators in the tensor-product space."""

    def test_identity_embeds_to_identity(self):
        grid = make_lattice_2d(3.0, 1, 5.0, 2)
        nx, ny = grid.lx.N, grid.ly.N
        for tx, ty in [(np.eye(nx), np.zeros((ny, ny))), (np.zeros((nx, nx)), np.eye(ny))]:
            np.testing.assert_array_equal(kronecker_sum(tx, ty), np.eye(grid.size))

    def test_different_axes_commute(self):
        grid = make_lattice_2d(4.0, 3, 4.0, 3)
        nx, ny = grid.lx.N, grid.ly.N
        px2 = kronecker_sum(momentum_squared_matrix(grid.lx).matrix, np.zeros((ny, ny)))
        Y = kronecker_sum(np.zeros((nx, nx)), np.diag(grid.ly.x))
        assert frob(px2 @ Y - Y @ px2) <= 1e-12 * max(frob(px2 @ Y), 1.0)

    def test_block_structure_follows_compound_index(self):
        grid = make_lattice_2d(4.0, 2, 6.0, 1)
        P = momentum_squared_matrix(grid.lx).matrix
        big = kronecker_sum(P, np.zeros((grid.ly.N, grid.ly.N)))
        for i2 in range(grid.ly.N):
            for k2 in range(grid.ly.N):
                for i1 in range(grid.lx.N):
                    for k1 in range(grid.lx.N):
                        I = i1 + i2 * grid.lx.N
                        K = k1 + k2 * grid.lx.N
                        want = P[i1, k1] if i2 == k2 else 0.0
                        assert big[I, K] == want

    def test_dimension_mismatch(self):
        grid = make_lattice_2d(3.0, 1, 5.0, 2)
        tx, ty = np.eye(grid.lx.N), np.eye(grid.ly.N)
        with pytest.raises(ValueError):
            kronecker_sum(tx, ty, np.zeros(grid.size + 1))
