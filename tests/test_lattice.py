import importlib
import math

import numpy as np
import pytest

from qmbox import eig, lattice
from qmbox.hamiltonian import hamiltonian_blocks
from qmbox.lattice import (GridMemoryError, make_lattice, make_lattice_2d,
                           points_to_m)
from qmbox.operators import kronecker_sum
from qmbox.problems import builtin_problem
from qmbox.solve import solve


class TestLattice1D:
    def test_three_point_grid(self):
        lat = make_lattice(3.0, 1)
        np.testing.assert_array_equal(lat.x, [-1.0, 0.0, 1.0])
        assert lat.a == 1.0
        assert lat.N == 3

    def test_benchmark_grid(self):
        lat = make_lattice(4.0, 55)
        assert lat.N == 111
        assert lat.a == pytest.approx(4.0 / 111)

    def test_momentum_values(self):
        lat = make_lattice(3.0, 1)
        np.testing.assert_allclose(lat.p, [-2 * np.pi / 3, 0.0, 2 * np.pi / 3])

    def test_center_is_exactly_zero(self):
        for M in (1, 5, 50):
            lat = make_lattice(7.3, M)
            assert lat.x[M] == 0.0
            assert lat.p[M] == 0.0

    def test_spacing_times_count_within_one_ulp(self):
        for L, M in [(4.0, 55), (25.0, 50), (90.0, 55), (1.7, 8)]:
            lat = make_lattice(L, M)
            assert abs(lat.a * lat.N - L) <= math.ulp(L)

    @pytest.mark.parametrize("M", range(0, 16))
    def test_symmetry_about_origin(self, M):
        lat = make_lattice(5.0, M)
        np.testing.assert_array_equal(lat.x, -lat.x[::-1])
        np.testing.assert_array_equal(lat.p, -lat.p[::-1])

    @pytest.mark.parametrize("M", range(1, 16))
    def test_phases_are_roots_of_unity(self, M):
        # exp(i p_k a) over all k is exactly the set of N-th roots of unity
        lat = make_lattice(2.7, M)
        phases = np.exp(1j * lat.p * lat.a)
        roots = np.exp(2j * np.pi * np.arange(lat.N) / lat.N)
        got = np.sort_complex(np.round(phases, 12))
        want = np.sort_complex(np.round(roots, 12))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError, match="positive"):
            make_lattice(0.0, 5)
        with pytest.raises(ValueError, match="positive"):
            make_lattice(-2.0, 5)

    @pytest.mark.parametrize("L", [math.inf, math.nan])
    def test_rejects_nonfinite_width(self, L):
        with pytest.raises(ValueError, match="finite"):
            make_lattice(L, 5)

    @pytest.mark.parametrize("L", [1e-320, 5e-324])
    def test_rejects_width_without_representable_steps(self, L):
        # 2 pi / L overflows; at 5e-324 the spacing L / N is 0 as well
        with pytest.raises(ValueError, match="spacing"):
            make_lattice(L, 5)

    @pytest.mark.parametrize("L", [1e-200, 1e-300, 1e300])
    def test_rejects_width_whose_squared_steps_leave_float_range(self, L):
        # a^2 underflows to 0 (or overflows), and (2 pi / L)^2 overflows (or underflows)
        with pytest.raises(ValueError, match="squared spacing"):
            make_lattice(L, 5)

    def test_rejects_negative_m(self):
        with pytest.raises(ValueError):
            make_lattice(1.0, -1)

    def test_memory_cap_signals(self):
        with pytest.raises(GridMemoryError):
            make_lattice(1.0, 9000)  # N^2 complex entries > 4 GiB

    def test_points_to_m(self):
        assert points_to_m(111) == 55
        assert points_to_m(1) == 0
        with pytest.raises(ValueError, match="odd"):
            points_to_m(100)

    def test_points_to_m_rejects_fractional_counts(self):
        # a fractional N is named, not truncated to the grid below it
        with pytest.raises(ValueError) as caught:
            points_to_m(41.9)
        assert str(caught.value) == "grid sizes must be integers, got 41.9"
        for N in (41.0, np.int64(41)):
            M = points_to_m(N)
            assert M == 20 and type(M) is int


class TestLattice2D:
    def test_state_space_dimension(self):
        grid = make_lattice_2d(20.0, 30, 20.0, 30)
        assert grid.size == 61 * 61 == 3721

    def test_meshgrid_matches_compound_order(self):
        grid = make_lattice_2d(5.0, 2, 7.0, 3)
        X, Y = grid.meshgrid()
        xf, yf = X.ravel(), Y.ravel()
        for i2 in range(1, grid.ly.N + 1):
            for i1 in range(1, grid.lx.N + 1):
                k = (i1 - 1) + (i2 - 1) * grid.lx.N   # I = i1 + (i2-1)*Nx, 1-based
                assert xf[k] == grid.lx.x[i1 - 1]
                assert yf[k] == grid.ly.x[i2 - 1]


class TestMemoryGuard:
    """The cap refuses single grid-sized arrays where they are made, not grids.
    Set just under one complex 47^2 x 47^2 matrix, it refuses every dense
    operator on Henon-Heiles 47^2 but lets its contracted solve run."""

    @pytest.fixture(autouse=True)
    def cap(self, monkeypatch):
        monkeypatch.setattr(lattice, "MEMORY_CAP", 2209**2 * 16 - 1)

    def test_contracted_grid_solves(self):
        problem = builtin_problem("henon_heiles", N=47)   # x-blocks of 1128 and 1081 sites
        assert min(b.dim for b in hamiltonian_blocks(problem)) >= eig._CONTRACTION_MIN_SIZE
        spectrum = solve(problem, 10)
        assert spectrum.n_states == 10 and np.all(np.isfinite(spectrum.eigenvalues))

    def test_full_spectrum_refused_before_any_block(self, monkeypatch):
        drawn = []

        def blocks(problem):
            for block in hamiltonian_blocks(problem):
                drawn.append(block)
                yield block

        # the package's ``solve`` attribute is the function, not the module
        monkeypatch.setattr(importlib.import_module("qmbox.solve"), "hamiltonian_blocks", blocks)
        with pytest.raises(GridMemoryError, match="2209x2209"):
            solve(builtin_problem("henon_heiles", N=47))
        assert drawn == []

    def test_dense_2d_matrix_refused(self):
        with pytest.raises(GridMemoryError, match="2209x2209"):
            kronecker_sum(np.zeros((47, 47)), np.zeros((47, 47)), np.zeros((47, 47)))

    def test_contracted_matrix_refused_before_line_basis(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the 1D bases were built")
        # the top rung of the larger x-block holds (32 * 24)^2 entries
        monkeypatch.setattr(lattice, "MEMORY_CAP", (32 * 24) ** 2 * 16 - 1)
        monkeypatch.setattr(eig, "_line_basis", refuse)
        with pytest.raises(GridMemoryError, match="768x768"):
            solve(builtin_problem("henon_heiles", N=47), 10)
