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

Every ordering commutes with the reflection x -> -x of the symmetric grid
when the mass is even, so ``hamiltonian_blocks`` splits H into exact
mirror-parity blocks whenever the sampled mass and potentials are even, in
1D as in 2D; ``build_hamiltonian`` is the unfolded one-block case.  The fold
is decided on the sampled functions, not on H: the beta != 0 product
A (m^beta A) makes H mirror-symmetric only to round-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Union

import numpy as np

from .lattice import Lattice1D, Lattice2D
from .operators import (EVEN, ODD, GridFunction, GridValueError, MirrorBlock,
                        OperatorMatrix, edge_first, grid_values, kronecker_sum,
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

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.gamma)):
            raise ValueError(f"{self!r}: alpha and gamma must be finite")

    @property
    def beta(self) -> float:
        return -1.0 - self.alpha - self.gamma


@dataclass(frozen=True)
class ConstantMass:
    """T = p^2 / (2 mu) with a fixed scalar mass (atomic units)."""
    mu: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise ValueError(f"{self!r}: mu must be finite and positive")


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


def _mass_values(problem: ProblemDefinition) -> np.ndarray | None:
    """The mass sampled on the 1D grid, or None for a constant-mass ordering."""
    if isinstance(problem.ordering, ConstantMass):
        return None
    if problem.mass is None:
        raise ValueError(
            f"problem {problem.name!r}: ordering {problem.ordering!r} needs a mass function")
    return grid_values(problem.mass, {"x": problem.grid.x}, what="mass function")


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
    if isinstance(problem.grid, Lattice2D):
        return OperatorMatrix(kronecker_sum(*_axis_kinetics(problem)), hermitian_hint=True)
    return _kinetic_1d(problem.grid, problem.ordering, _mass_values(problem))


def _kinetic_1d(grid: Lattice1D, ordering: KineticOrdering,
                m: np.ndarray | None) -> OperatorMatrix:
    """The 1D kinetic matrix of ``ordering`` from the sampled mass ``m``."""
    if isinstance(ordering, ConstantMass):
        psq = momentum_squared_matrix(grid).matrix
        return OperatorMatrix(psq / (2.0 * ordering.mu), hermitian_hint=True)

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
    """H = T + diag(V_real) + i diag(V_imag) on the problem's grid, as one
    dense matrix: the unfolded case of ``hamiltonian_blocks``."""
    (block,) = hamiltonian_blocks(problem, fold=False)
    return block.op


def hamiltonian_blocks(problem: ProblemDefinition, fold: bool = True) -> Iterator[MirrorBlock]:
    """The Hamiltonian as mirror-parity blocks, assembled one at a time.

    On the symmetric grid the kinetic term commutes with the reflection of
    an axis whenever the mass does, so H splits exactly into an even and an
    odd block wherever the sampled grid functions are mirror-even.  An axis
    is folded when ``fold`` is set and every sampled array equals its mirror
    image along it bitwise (V_real, V_imag when present, and in 1D the mass
    of a von Roos ordering): an exact property of the input, with no
    tolerance.  The arrays are sampled once and build the blocks too.  With
    ``fold`` off, or nothing mirror-even, the one block is the full dense H.

    1D gives 1 or 2 blocks, the folded H with its sites ordered from the box
    edge inward (``edge_first``).  2D gives 1, 2 or 4 blocks, each the
    Kronecker sum of the folded or whole axis kinetics plus the potential
    on the block's sites.  The odd block of a one-site axis is empty and
    skipped.
    """
    if isinstance(problem.grid, Lattice2D):
        return _blocks_2d(problem, fold)
    return _blocks_1d(problem, fold)


def _potential(problem: ProblemDefinition) -> np.ndarray:
    """V_real + i V_imag sampled on the grid; real when there is no V_imag."""
    points = _coordinate_arrays(problem.grid)
    v = grid_values(problem.potential_real, points, what="potential")
    if problem.potential_imag is not None:
        v = v + 1j * grid_values(problem.potential_imag, points, what="imaginary potential")
    return v


def _blocks_1d(problem: ProblemDefinition, fold: bool) -> Iterator[MirrorBlock]:
    m = _mass_values(problem)
    kinetic = _kinetic_1d(problem.grid, problem.ordering, m)
    v = _potential(problem)
    H = kinetic.matrix.astype(v.dtype, copy=False)   # a fresh matrix: add V in place
    H[np.diag_indices_from(H)] += v
    hermitian = kinetic.hermitian_hint and problem.potential_imag is None
    if not (fold and all(f is None or np.array_equal(f, f[::-1]) for f in (v, m))):
        yield MirrorBlock(OperatorMatrix(H, hermitian))
        return
    for parity in (EVEN, ODD):
        block = mirror_fold(H, parity)
        if block.size:
            yield MirrorBlock(OperatorMatrix(edge_first(block, (0, 1)), hermitian),
                              parity=(parity,))


def _blocks_2d(problem: ProblemDefinition, fold: bool) -> Iterator[MirrorBlock]:
    grid = problem.grid
    kinetics = _axis_kinetics(problem)
    v = _potential(problem)
    hermitian = problem.potential_imag is None
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
