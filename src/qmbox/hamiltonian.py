"""Hamiltonian assembly: kinetic orderings plus diagonal potentials.

With a position-dependent mass the kinetic term p^2/2m is ambiguous.  Every
ordering here is a point of the von Roos family

    T = 1/4 (m^alpha p m^beta p m^gamma + m^gamma p m^beta p m^alpha),
    alpha + beta + gamma = -1,

or, unsymmetrized, T = 1/2 m^alpha p m^beta p m^gamma: the one-sided
non-Hermitian forms (1/2m) p^2 and p^2 (1/2m).  The CLI names the mass
sandwich (0, 0), the inverse-mass anticommutator (-1, 0) and the two
one-sided forms; ``ConstantMass`` is the only other ordering.  All of these
have *real* matrix representations on the lattice: i*p is real
antisymmetric, so products with an even number of p factors never produce
imaginary round-off.  Keeping the real path real is what lets the
eigensolver report exactly real spectra for the one-sided orderings.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterator, Union

import numpy as np

from .lattice import Lattice1D, Lattice2D
from .operators import (EVEN, ODD, GridFunction, GridValueError, MirrorBlock,
                        OperatorMatrix, grid_values, kronecker_sum,
                        mirror_fold, mirror_sites, momentum_ip,
                        momentum_squared_matrix)


# --- Kinetic orderings -------------------------------------------------------

@dataclass(frozen=True)
class VonRoos:
    """T = 1/4 (m^alpha p m^beta p m^gamma + h.c.) with beta = -1 - alpha - gamma.

    With ``symmetric`` off, T = 1/2 m^alpha p m^beta p m^gamma alone: real
    but not Hermitian, e.g. (1/2m) p^2 for (alpha, gamma) = (-1, 0).
    """
    alpha: float
    gamma: float
    symmetric: bool = True

    @property
    def beta(self) -> float:
        return -1.0 - self.alpha - self.gamma


@dataclass(frozen=True)
class ConstantMass:
    """T = p^2 / (2 mu) with a fixed scalar mass (atomic units)."""
    mu: float = 1.0


KineticOrdering = Union[VonRoos, ConstantMass]

#: CLI / config spelling of each ordering: a fixed ordering, or the type
#: whose parameters follow the name.
ORDERING_NAMES = {
    "mass-sandwich": VonRoos(0.0, 0.0),
    "inverse-mass-anticommutator": VonRoos(-1.0, 0.0),
    "mass-left": VonRoos(-1.0, 0.0, symmetric=False),
    "mass-right": VonRoos(0.0, -1.0, symmetric=False),
    "constant-mass": ConstantMass,
    "von-roos": VonRoos,
}


def ordering_from_name(name: str, *params: float) -> KineticOrdering:
    """Instantiate an ordering from its CLI name, e.g. ``von-roos -1 0``."""
    key = name.strip().lower().replace("_", "-")
    if key not in ORDERING_NAMES:
        raise ValueError(f"unknown ordering {name!r}; known: {', '.join(sorted(ORDERING_NAMES))}")
    spelling = ORDERING_NAMES[key]
    if spelling is VonRoos:
        if len(params) != 2:
            raise ValueError("von-roos ordering needs two parameters: alpha gamma")
        return VonRoos(float(params[0]), float(params[1]))
    if spelling is ConstantMass:
        if len(params) > 1:
            raise ValueError("constant-mass ordering takes at most one parameter: mu")
        return ConstantMass(float(params[0])) if params else ConstantMass()
    if params:
        raise ValueError(f"ordering {name!r} takes no parameters")
    return spelling


# --- Problem definition ------------------------------------------------------

@dataclass(frozen=True)
class ProblemDefinition:
    """Everything needed to assemble one Hamiltonian matrix.

    Atomic units throughout (hbar = 1); ``energy_unit`` is display metadata
    only ("hartree" for molecular problems, "model" for dimensionless ones).
    ``mass`` may be an Expression, a callable of the grid coordinates, or a
    number; it is ignored by ConstantMass orderings, which carry their own mu.
    """

    name: str
    grid: Union[Lattice1D, Lattice2D]
    ordering: KineticOrdering
    potential_real: GridFunction
    mass: GridFunction | None = None
    potential_imag: GridFunction | None = None
    energy_unit: str = "hartree"
    reference_key: str | None = None

    @property
    def dim(self) -> int:
        return 2 if isinstance(self.grid, Lattice2D) else 1

    @property
    def size(self) -> int:
        return self.grid.size if isinstance(self.grid, Lattice2D) else self.grid.N


def _coordinate_arrays(grid) -> dict[str, np.ndarray]:
    if isinstance(grid, Lattice2D):
        X, Y = grid.meshgrid()
        return {"x": X, "y": Y}
    return {"x": grid.x}


def _mass_values(problem: ProblemDefinition, grid: Lattice1D) -> np.ndarray:
    if problem.mass is None:
        raise ValueError(
            f"problem {problem.name!r}: ordering {problem.ordering!r} needs a mass function")
    return grid_values(problem.mass, {"x": grid.x}, what="mass function")


def _mass_power(m: np.ndarray, s: float) -> np.ndarray:
    """Pointwise m^s; integer exponents are sign-safe, fractional ones need m > 0."""
    if s == 0.0:
        return np.ones_like(m)
    if s == 1.0:
        return m.copy()
    if s == -1.0:
        return 1.0 / m
    if s == round(s):
        return m ** int(round(s))
    with np.errstate(invalid="ignore"):
        powered = np.power(m, s)
    if np.any(~np.isfinite(powered)):
        raise GridValueError(
            f"mass power m^{s:g} is undefined on this grid "
            "(fractional power of a non-positive mass value)")
    return powered


def build_kinetic(problem: ProblemDefinition) -> OperatorMatrix:
    """Kinetic-energy matrix for the problem's ordering (1D) or the
    constant-mass tensor sum (2D)."""
    grid = problem.grid
    if isinstance(grid, Lattice2D):
        return OperatorMatrix(kronecker_sum(*_axis_kinetics(problem)), hermitian_hint=True)

    ordering = problem.ordering
    if isinstance(ordering, ConstantMass):
        psq = momentum_squared_matrix(grid).matrix
        return OperatorMatrix(psq / (2.0 * ordering.mu), hermitian_hint=True)

    m = _mass_values(problem, grid)
    ma = _mass_power(m, ordering.alpha)
    mg = _mass_power(m, ordering.gamma)
    if ordering.beta == 0.0:
        # the closed-form p^2 costs O(N^2), the product below O(N^3)
        pbp = momentum_squared_matrix(grid).matrix
    else:
        # p m^beta p = -(A m^beta A) since p = -i A and A is real
        A = momentum_ip(grid)
        pbp = -(A @ (_mass_power(m, ordering.beta)[:, None] * A))
    X = ma[:, None] * pbp * mg[None, :]            # m^alpha p m^beta p m^gamma
    if ordering.symmetric:
        return OperatorMatrix(0.25 * (X + X.T), hermitian_hint=True)
    return OperatorMatrix(0.5 * X, hermitian_hint=False)


def _axis_kinetics(problem: ProblemDefinition) -> tuple[np.ndarray, np.ndarray]:
    """The 1D kinetic matrices p^2/(2 mu) of the x and y axes of a 2D problem."""
    ordering = problem.ordering
    if not isinstance(ordering, ConstantMass):
        raise ValueError(
            "2D problems support the constant-mass kinetic term only; "
            f"got ordering {ordering!r}")
    return tuple(momentum_squared_matrix(axis).matrix / (2.0 * ordering.mu)
                 for axis in (problem.grid.lx, problem.grid.ly))


def build_hamiltonian(problem: ProblemDefinition) -> OperatorMatrix:
    """H = T + diag(V_real) + i diag(V_imag) on the problem's grid."""
    if isinstance(problem.grid, Lattice2D):
        (block,) = hamiltonian_blocks(problem, fold=False)
        return block.op
    kinetic = build_kinetic(problem)
    points = _coordinate_arrays(problem.grid)
    v_real = grid_values(problem.potential_real, points, what="potential").ravel()
    H = kinetic.matrix.copy()
    H[np.diag_indices_from(H)] += v_real
    hermitian = kinetic.hermitian_hint
    if problem.potential_imag is not None:
        v_imag = grid_values(problem.potential_imag, points,
                             what="imaginary potential").ravel()
        H = H.astype(complex)
        H[np.diag_indices_from(H)] += 1j * v_imag
        hermitian = False
    return OperatorMatrix(H, hermitian_hint=hermitian)


def hamiltonian_blocks(problem: ProblemDefinition, fold: bool = True) -> Iterator[MirrorBlock]:
    """The 2D Hamiltonian as mirror-parity blocks, assembled one at a time.

    The kinetic term T_x (x) I + I (x) T_y commutes with both axis
    reflections on the symmetric grid, so H splits wherever the sampled
    potential does too.  An axis is folded when ``fold`` is set and the
    potential arrays (V_real, and V_imag when present) equal their mirror
    image along it bitwise: an exact property of the input, with no
    tolerance.  That gives 1, 2 or 4 blocks, each the Kronecker sum of the
    folded or whole axis kinetics plus the potential on the block's sites;
    the odd block of a one-site axis is empty and skipped.  With ``fold``
    off, the one block is the full dense H of ``build_hamiltonian``.
    """
    grid = problem.grid
    kinetics = _axis_kinetics(problem)
    points = _coordinate_arrays(grid)
    v = grid_values(problem.potential_real, points, what="potential")
    hermitian = problem.potential_imag is None
    if not hermitian:
        v = v + 1j * grid_values(problem.potential_imag, points, what="imaginary potential")
    choices = []
    for t, array_axis in zip(kinetics, (1, 0)):   # V is indexed [y, x]
        if fold and np.array_equal(v, np.flip(v, array_axis)):
            choices.append([(EVEN, mirror_fold(t, EVEN)), (ODD, mirror_fold(t, ODD))])
        else:
            choices.append([(0, t)])
    for (px, tx), (py, ty) in product(*choices):
        if tx.size and ty.size:
            v_block = v[mirror_sites(grid.ly.M, py), mirror_sites(grid.lx.M, px)]
            yield MirrorBlock(OperatorMatrix(kronecker_sum(tx, ty, v_block), hermitian),
                              parity=(px, py))
