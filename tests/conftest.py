"""Shared pytest plumbing: collects acceptance-criterion verdicts so they
print as a summary section, one PASS/FAIL line per criterion, regardless of
output capture; and the complex-Hamiltonian oracle of the PT tests."""

import numpy as np

from qmbox.hamiltonian import build_kinetic
from qmbox.operators import grid_values, kronecker_sum

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str):
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def complex_hamiltonian(problem) -> np.ndarray:
    """H = T + diag(V_real + i V_imag) assembled whole on the problem's grid:
    the complex matrix that the builder gives a PT-symmetric problem as its
    real form only."""
    grid = problem.grid
    points = dict(zip("xy", grid.meshgrid())) if problem.dim == 2 else {"x": grid.x}
    v = (grid_values(problem.potential_real, points)
         + 1j * grid_values(problem.potential_imag, points))
    kinetic = build_kinetic(problem)
    if kinetic.factors is None:
        return kinetic.matrix + np.diag(v)
    tx, ty, _ = kinetic.factors
    return kronecker_sum(tx, ty, v)
