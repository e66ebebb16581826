"""Convergence scans, completeness checks, unit conversion and comparisons."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .eig import Spectrum, _levels
from .hamiltonian import ProblemDefinition, _planned
from .lattice import Lattice1D, Lattice2D, _integers, make_lattice, points_to_m
from .problems import CONSTANTS, ReferenceSpectrum

SCAN_MODES = ("fixed_L_vary_N", "fixed_a_vary_N")


def to_wavenumbers(energy):
    """Hartree -> cm^-1."""
    return np.asarray(energy) * CONSTANTS.hartree_to_cm


def shift_to_ground(eigenvalues):
    """Subtract the lowest eigenvalue (sorted input) from every level."""
    values = np.asarray(eigenvalues)
    return values - values[0]


# --- Convergence scans -------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceScan:
    """Energies and relative errors of tracked states across grid sizes.

    The converged value per state is the mean over the 10 largest-N grids,
    so the scan is self-contained: no separate truth run is needed.
    """

    problem: str
    mode: str
    fixed_value: float           # the width L or the spacing a being held
    n_list: tuple[int, ...]
    state_indices: tuple[int, ...]
    energies: np.ndarray         # shape (len(n_list), len(state_indices))
    converged: np.ndarray        # per-state E_conv
    rel_errors: np.ndarray       # |E - E_conv| / |E_conv|

    def rows(self):
        """(N, state, energy, rel_error) tuples, one per grid and state."""
        for i, n in enumerate(self.n_list):
            for j, s in enumerate(self.state_indices):
                yield n, s, self.energies[i, j], self.rel_errors[i, j]

    def write_gnuplot(self, path, state: int):
        """Two-column (N, rel_error) file for one tracked state."""
        j = self.state_indices.index(state)
        table = np.column_stack((self.n_list, self.rel_errors[:, j]))
        np.savetxt(path, table, fmt="%d %.6e",
                   header=f"{self.problem} {self.mode} state {state}\nN  rel_error")


def convergence_scan(problem: ProblemDefinition, mode: str, n_list,
                     state_indices=(0,)) -> ConvergenceScan:
    """Re-diagonalize the problem on a family of grids and track state energies.

    Each grid computes eigenvalues only, with no eigenvectors, residuals or
    state labels, which is all a scan reads; the values agree with those of
    ``solve`` on the same grid to round-off.

    ``fixed_L_vary_N`` holds the problem's width L and refines the spacing;
    ``fixed_a_vary_N`` holds the problem's spacing a = L/N and widens the
    box.  The problem must be 1D, the state indices distinct non-negative
    integers, and the grid list ascending odd integers N with at least 12
    entries so the 10-grid tail average is meaningful; a value such as 41.9
    is rejected, not truncated.  Every grid is planned, and refused when its
    predicted peak is over the memory cap, before the first is solved.
    """
    if isinstance(problem.grid, Lattice2D):
        raise ValueError("convergence scans are defined for 1D problems")
    if mode not in SCAN_MODES:
        raise ValueError(f"mode must be one of {SCAN_MODES}, got {mode!r}")
    n_list = _integers(n_list, "grid sizes")
    if len(n_list) < 12:
        raise ValueError("need at least 12 grid sizes for a scan")
    if any(n % 2 == 0 for n in n_list):
        raise ValueError("grid sizes must be odd")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError("grid sizes must be strictly ascending")
    state_indices = _integers(state_indices, "state indices")
    if not state_indices:
        raise ValueError("state_indices is empty: name at least one state to track")
    if min(state_indices) < 0:
        raise ValueError(f"state indices must be non-negative, got {min(state_indices)}")
    repeated = [s for i, s in enumerate(state_indices) if s in state_indices[:i]]
    if repeated:
        raise ValueError(f"state index {repeated[0]} is tracked more than once")
    if max(state_indices) >= min(n_list):
        raise ValueError(
            f"state index {max(state_indices)} is not available on the "
            f"smallest grid (N = {min(n_list)})")

    grid0 = problem.grid
    fixed = grid0.L if mode == "fixed_L_vary_N" else grid0.a
    energies = np.empty((len(n_list), len(state_indices)))
    planned = [_planned(replace(problem, grid=make_lattice(
        fixed if mode == "fixed_L_vary_N" else fixed * n, points_to_m(n))), vectors=False)
        for n in n_list]
    for i, (plan, blocks) in enumerate(planned):
        energies[i] = _levels(plan, list(blocks))[list(state_indices)].real

    converged = energies[-10:].mean(axis=0)
    rel_errors = np.abs(energies - converged) / np.abs(converged)
    return ConvergenceScan(problem=problem.name, mode=mode, fixed_value=fixed,
                           n_list=n_list, state_indices=state_indices,
                           energies=energies, converged=converged,
                           rel_errors=rel_errors)


def exponential_fit(scan: ConvergenceScan, state: int):
    """Least-squares fit of log10(rel error) vs N over the pre-plateau region.

    The pre-plateau region is the leading run of grids whose error still
    exceeds 1e-11; once the error first dips below it the scan has hit the
    round-off plateau and later points carry no slope information.
    Returns (slope, correlation, n_points).
    """
    j = scan.state_indices.index(state)
    errs = scan.rel_errors[:, j]
    leading = 0
    while leading < len(errs) and errs[leading] > 1e-11:
        leading += 1
    ns = np.asarray(scan.n_list[:leading], dtype=float)
    logs = np.log10(errs[:leading])
    if len(ns) < 2:
        raise ValueError("fewer than 2 grids above 1e-11")
    slope, _ = np.polyfit(ns, logs, 1)
    if len(ns) == 2:
        corr = -1.0 if slope < 0 else 1.0  # two points correlate exactly
    else:
        corr = float(np.corrcoef(ns, logs)[0, 1])
    return float(slope), corr, len(ns)


# --- Completeness of the discretized spectrum --------------------------------

def _require_completeness(grid: Lattice1D | Lattice2D, ground: int) -> None:
    """Raise ValueError unless the completeness check is defined on
    ``grid`` from state ``ground``: a 1D grid, and a ground state among its
    N levels.  Both are read off the problem, so the command line refuses a
    bad input before it solves anything."""
    if isinstance(grid, Lattice2D):
        raise ValueError("completeness check is defined for 1D spectra")
    if not 0 <= ground <= grid.N - 1:
        raise ValueError(f"ground must be in 0..{grid.N - 1}, got {ground}")


def completeness_error(spectrum: Spectrum, ground: int = 0) -> np.ndarray:
    """Relative truncation error of sum_n <0|x|n><n|x|0> against <0|x^2|0>,
    as the whole curve over n_max = 0..N-1.

    Needs the full spectrum: the identity only resolves once the discretized
    continuum states are included.
    """
    _require_completeness(spectrum.grid, ground)
    n_states = spectrum.n_states
    if spectrum.eigenvectors.shape[1] != n_states or n_states != spectrum.grid.N:
        raise ValueError("completeness check needs the full spectrum")
    a = spectrum.weight
    x = spectrum.grid.x
    psi0 = spectrum.eigenvectors[:, ground]
    x2_expect = a * np.sum(x**2 * np.abs(psi0) ** 2)
    if not x2_expect:   # a one-point grid: every term is 0
        raise ValueError("completeness check needs a state with <x^2> > 0")
    # <0|x|n> with conjugation on the bra; generic for complex eigenvectors
    amps = a * (spectrum.eigenvectors.conj().T @ (x * psi0))
    partial = np.cumsum(np.abs(amps) ** 2)
    return np.abs(x2_expect - partial) / x2_expect


# --- Reference comparison ----------------------------------------------------

@dataclass(frozen=True)
class ComparisonRow:
    label: str
    computed: float
    reference: float
    abs_dev: float
    rel_dev: float | None     # None where the reference value is 0


@dataclass(frozen=True)
class ComparisonReport:
    rows: tuple[ComparisonRow, ...]

    @property
    def max_abs_dev(self) -> float:
        return max(r.abs_dev for r in self.rows)

    def max_rel_dev_above(self, min_reference: float) -> float:
        """Worst relative deviation over states whose reference magnitude is
        at least ``min_reference`` — relative errors against values quoted
        with one or two digits (a tiny tunneling splitting, say) are noise."""
        rels = [r.rel_dev for r in self.rows
                if r.rel_dev is not None and abs(r.reference) >= min_reference]
        return max(rels) if rels else 0.0


def labeled_levels(spectrum: Spectrum, unit: str = "model",
                   shifted: bool = False) -> dict[str, float]:
    """State-label -> energy map of every level in the requested unit,
    optionally shifted."""
    values = spectrum.eigenvalues.real
    if shifted:
        values = shift_to_ground(values)
    if unit == "cm-1":
        values = to_wavenumbers(values)
    elif unit not in ("hartree", "model"):
        raise ValueError(f"unknown unit {unit!r}")
    return {label: float(value) for label, value in zip(spectrum.labels, values)}


def compare_to_reference(spectrum: Spectrum, ref: ReferenceSpectrum) -> ComparisonReport:
    """Per-state deviations of a computed spectrum from an embedded table."""
    computed = labeled_levels(spectrum, unit=ref.unit, shifted=ref.shifted)
    rows = []
    for label, ref_value in ref.values.items():
        if label not in computed:
            raise KeyError(
                f"state label {label!r} from reference {ref.problem!r} not "
                f"present in the computed spectrum (labels: {sorted(computed)[:12]}...)")
        ours = computed[label]
        abs_dev = abs(ours - ref_value)
        rel_dev = abs_dev / abs(ref_value) if ref_value != 0 else None
        rows.append(ComparisonRow(label=label, computed=ours, reference=ref_value,
                                  abs_dev=abs_dev, rel_dev=rel_dev))
    return ComparisonReport(rows=tuple(rows))
