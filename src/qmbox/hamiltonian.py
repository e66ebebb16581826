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
A (m^beta A) makes H mirror-symmetric only to round-off.  Each axis is
folded the same way, its half-axis numbered from the box edge inward, and
the potential is added after the fold, on the block's sites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Union

import numpy as np

from .lattice import Lattice1D, Lattice2D
from .operators import (EVEN, ODD, GridFunction, GridValueError, MirrorBlock,
                        OperatorMatrix, grid_values, kronecker_sum, mirror_fold,
                        mirror_sites, momentum_ip, momentum_squared_matrix)


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

    @property
    def dim(self) -> int:
        return len(self.grid.axes)

    @property
    def size(self) -> int:
        return self.grid.size


def _coordinate_arrays(grid) -> dict[str, np.ndarray]:
    if isinstance(grid, Lattice2D):
        X, Y = grid.meshgrid()
        return {"x": X, "y": Y}
    return {"x": grid.x}


def _mass_values(problem: ProblemDefinition) -> np.ndarray | None:
    """The mass sampled on the 1D grid, or None for a constant-mass ordering."""
    if isinstance(problem.ordering, ConstantMass):
        return None
    if problem.dim != 1:
        raise ValueError(
            "2D problems support the constant-mass kinetic term only; "
            f"got ordering {problem.ordering!r}")
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
    m = _mass_values(problem)
    kinetics = [_kinetic_1d(axis, problem.ordering, m) for axis in problem.grid.axes]
    if len(kinetics) == 1:
        return kinetics[0]
    return OperatorMatrix(kronecker_sum(*(t.matrix for t in kinetics)), hermitian_hint=True)


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

    Each block is the folded or whole kinetic matrix of every axis plus the
    potential on the block's sites, numbered from the box edge inward along
    a folded axis (``mirror_sites``): 1 or 2 blocks in 1D, 1, 2 or 4 in 2D.
    The odd block of a one-site axis is empty and skipped.
    """
    grid = problem.grid
    m = _mass_values(problem)
    v = _potential(problem)
    sampled = [f for f in (v, m) if f is not None]
    hermitian = problem.potential_imag is None
    choices = []
    for axis, flip in zip(grid.axes, reversed(range(v.ndim))):   # V is indexed [y, x]
        kinetic = _kinetic_1d(axis, problem.ordering, m)
        hermitian = hermitian and kinetic.hermitian_hint
        if fold and all(np.array_equal(f, np.flip(f, flip)) for f in sampled):
            choices.append({p: mirror_fold(kinetic.matrix, p) for p in (EVEN, ODD)})
        else:
            choices.append({0: kinetic.matrix})
    del kinetic   # a folded axis keeps only its blocks
    for parity in product(*choices):   # the parities of each axis
        axis_matrices = [axis[p] for axis, p in zip(choices, parity)]
        if len(choices) == 1:
            # a 1D block uses its axis matrix once, and V goes into it or
            # into a complex copy of it: drop it so the block holds H alone
            del choices[0][parity[0]]
        if all(t.size for t in axis_matrices):
            sites = tuple(mirror_sites(axis.M, p) for axis, p in zip(grid.axes, parity))
            H = _with_potential(axis_matrices, v[sites[::-1]])
            del axis_matrices
            yield MirrorBlock(OperatorMatrix(H, hermitian), parity)
            del H


def _potential(problem: ProblemDefinition) -> np.ndarray:
    """V_real + i V_imag sampled on the grid; real when there is no V_imag."""
    points = _coordinate_arrays(problem.grid)
    v = grid_values(problem.potential_real, points, what="potential")
    if problem.potential_imag is not None:
        v = v + 1j * grid_values(problem.potential_imag, points, what="imaginary potential")
    return v


def _with_potential(axis_matrices: list[np.ndarray], v: np.ndarray) -> np.ndarray:
    """The block matrix: the Kronecker sum of the axis matrices and diag(v),
    or in 1D the one axis matrix, fresh from the build or the fold, with v
    added to its diagonal in place."""
    if len(axis_matrices) > 1:
        return kronecker_sum(*axis_matrices, v)
    H = axis_matrices[0].astype(v.dtype, copy=False)
    H[np.diag_indices_from(H)] += v
    return H
