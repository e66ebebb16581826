"""Shared pytest plumbing: collects acceptance-criterion verdicts so they
print as a summary section, one PASS/FAIL line per criterion, regardless of
output capture; the complex-Hamiltonian oracle of the PT tests; the
session's cache of the dense oracle's decompositions; and a spy that
refuses every builder of a grid-sized matrix."""

import contextlib
import hashlib

import numpy as np
import pytest

from qmbox import eig, hamiltonian, operators
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


@pytest.fixture(scope="session")
def oracle_decompositions() -> dict:
    """The symmetric decompositions that the dense oracle made in this
    session, keyed by each matrix's dtype, shape and a digest of its bytes
    (``cached_eigh``)."""
    return {}


@contextlib.contextmanager
def cached_eigh(cache: dict):
    """np.linalg.eigh served from ``cache`` inside the block, so an oracle
    decomposes each distinct matrix once per session.  Every call gets
    fresh copies of the full outputs in numpy's own memory layout, which
    the caller truncates and normalizes in place as it would an uncached
    call's: what it computes from them is bitwise the same."""
    real = np.linalg.eigh

    def eigh(a):
        key = (a.dtype.str, a.shape, hashlib.sha256(np.ascontiguousarray(a)).hexdigest())
        if key not in cache:
            cache[key] = real(a)
        return tuple(x.copy(order="K") for x in cache[key])

    np.linalg.eigh = eigh
    try:
        yield
    finally:
        np.linalg.eigh = real


def refuse_builds(monkeypatch):
    """Make every builder of a matrix of the grid's size raise: the kinetic
    matrix, a dense 2D assembly and the contracted solve's line bases, so a
    refused solve is seen to build none of them."""
    def refuse(*args, **kwargs):
        raise AssertionError("a refused solve built a matrix")
    for module, name in ((hamiltonian, "_kinetic_1d"), (hamiltonian, "kronecker_sum"),
                         (operators, "kronecker_sum"), (eig, "_line_basis")):
        monkeypatch.setattr(module, name, refuse)
