import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from conftest import built_blocks, refuse_builds
from qmbox import lattice
from qmbox.eig import diagonalize
from qmbox.hamiltonian import _planned, build_hamiltonian
from qmbox.lattice import (GridMemoryError, make_lattice, make_lattice_2d,
                           points_to_m)
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

    def test_momenta_are_made_on_first_use_and_read_only(self):
        lat = make_lattice(3.0, 1)
        assert "p" not in vars(lat)   # no solve reads them
        assert lat.p is lat.p and not lat.p.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            lat.p = np.zeros(3)

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
        # the cap bounds a solve, not a grid: the 18001-point lattice is
        # made, and the full solve on it, over 12 GiB, is refused
        assert make_lattice(1.0, 9000).N == 18001
        with pytest.raises(GridMemoryError, match=r"predicted peak of 12\.\d\d GiB"):
            solve(builtin_problem("morse", N=18001))

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
    """The one guard refuses a solve whose plan predicts a peak over the
    cap, before anything of the size of its grid is built.  Set just under
    the real dense matrix of Henon-Heiles 47^2, the cap lets its contracted
    solve of 10 states run and refuses every dense one."""

    CAP = 2209**2 * 8 - 1

    @pytest.fixture(autouse=True)
    def cap(self, monkeypatch):
        monkeypatch.setattr(lattice, "MEMORY_CAP", self.CAP)

    def test_contracted_grid_solves(self):
        problem = builtin_problem("henon_heiles", N=47)   # x-blocks of 1128 and 1081 sites
        plan, _ = _planned(problem, 10)
        assert plan.rungs and plan.peak <= lattice.MEMORY_CAP
        spectrum = solve(problem, 10)
        assert spectrum.n_states == 10 and np.all(np.isfinite(spectrum.eigenvalues))

    def test_full_spectrum_refused_before_any_block(self, monkeypatch):
        problem = builtin_problem("henon_heiles", N=47)
        refuse_builds(monkeypatch)
        with pytest.raises(GridMemoryError, match="predicted peak") as caught:
            solve(problem)
        assert f"cap of {self.CAP / 2**30:.2f} GiB" in str(caught.value)

    def test_dense_2d_matrix_refused(self):
        # building a 2D block costs its factors alone; its dense matrix is
        # refused before it is assembled, by the plan of its full
        # decomposition or by the assembly on its own
        problem = builtin_problem("henon_heiles", N=47)
        op = build_hamiltonian(problem)
        assert len(list(built_blocks(problem))) == 2
        with pytest.raises(GridMemoryError, match="predicted peak"):
            diagonalize(op, problem.grid)
        assert "matrix" not in vars(op)
        tracemalloc.start()
        try:
            with pytest.raises(GridMemoryError, match="a 2209-site matrix has a predicted peak"):
                op.matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_contracted_matrix_refused_before_line_basis(self, monkeypatch):
        # the contracted plan's peak, its top rung's matrices above all, is
        # the threshold: one byte under it refuses the solve
        problem = builtin_problem("henon_heiles", N=47)
        plan, _ = _planned(problem, 10)
        monkeypatch.setattr(lattice, "MEMORY_CAP", plan.peak - 1)
        refuse_builds(monkeypatch)
        with pytest.raises(GridMemoryError, match="predicted peak"):
            solve(problem, 10)
