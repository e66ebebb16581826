"""Hamiltonian assembly: kinetic-ordering variants plus diagonal potentials.

With a position-dependent mass the kinetic term p^2/2m is ambiguous; the
orderings below cover the standard Hermitian two-parameter family

    T = 1/4 (m^alpha p m^beta p m^gamma + m^gamma p m^beta p m^alpha),
    alpha + beta + gamma = -1,

its two named members (the mass sandwich alpha=gamma=0 and the inverse-mass
anticommutator alpha=-1, gamma=0), and the two one-sided non-Hermitian
forms (1/2m) p^2 and p^2 (1/2m).  All of these have *real* matrix
representations on the lattice: i*p is real antisymmetric, so products with
an even number of p factors never produce imaginary round-off.  Keeping the
real path real is what lets the eigensolver report exactly real spectra for
the one-sided orderings.
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
    """Symmetrized ordering with exponents (alpha, beta, gamma), beta implied."""
    alpha: float
    gamma: float

    @property
    def beta(self) -> float:
        return -1.0 - self.alpha - self.gamma


@dataclass(frozen=True)
class MassSandwich:
    """T = 1/2 p (1/m) p; equals VonRoos(0, 0)."""


@dataclass(frozen=True)
class InverseMassAnticommutator:
    """T = 1/4 (1/m p^2 + p^2 1/m); equals VonRoos(-1, 0) after symmetrizing."""


@dataclass(frozen=True)
class MassLeft:
    """T = (1/2m) p^2, non-Hermitian but real; no first derivative appears."""


@dataclass(frozen=True)
class MassRight:
    """T = p^2 (1/2m), the transpose of MassLeft (identical spectrum)."""


@dataclass(frozen=True)
class ConstantMass:
    """T = p^2 / (2 mu) with a fixed scalar mass (atomic units)."""
    mu: float = 1.0


KineticOrdering = Union[VonRoos, MassSandwich, InverseMassAnticommutator,
                        MassLeft, MassRight, ConstantMass]

#: CLI / config spelling of each ordering.
ORDERING_NAMES = {
    "mass-sandwich": MassSandwich,
    "inverse-mass-anticommutator": InverseMassAnticommutator,
    "mass-left": MassLeft,
    "mass-right": MassRight,
    "constant-mass": ConstantMass,
    "von-roos": VonRoos,
}


def ordering_from_name(name: str, *params: float) -> KineticOrdering:
    """Instantiate an ordering from its CLI name, e.g. ``von-roos -1 0``."""
    key = name.strip().lower().replace("_", "-")
    if key not in ORDERING_NAMES:
        raise ValueError(f"unknown ordering {name!r}; known: {', '.join(sorted(ORDERING_NAMES))}")
    cls = ORDERING_NAMES[key]
    if cls is VonRoos:
        if len(params) != 2:
            raise ValueError("von-roos ordering needs two parameters: alpha gamma")
        return VonRoos(float(params[0]), float(params[1]))
    if cls is ConstantMass:
        if len(params) > 1:
            raise ValueError("constant-mass ordering takes at most one parameter: mu")
        return ConstantMass(float(params[0])) if params else ConstantMass()
    if params:
        raise ValueError(f"ordering {name!r} takes no parameters")
    return cls()


def ordering_label(ordering: KineticOrdering) -> str:
    for name, cls in ORDERING_NAMES.items():
        if type(ordering) is cls:
            if isinstance(ordering, VonRoos):
                return f"{name}({ordering.alpha:g},{ordering.gamma:g})"
            if isinstance(ordering, ConstantMass):
                return f"{name}({ordering.mu:g})"
            return name
    return type(ordering).__name__


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
        raise GridValueError(
            f"problem {problem.name!r}: ordering {ordering_label(problem.ordering)} "
            "needs a mass function")
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
    if isinstance(ordering, (MassSandwich,)):
        ordering = VonRoos(0.0, 0.0)
    if isinstance(ordering, VonRoos):
        A = momentum_ip(grid)
        ma = _mass_power(m, ordering.alpha)
        mb = _mass_power(m, ordering.beta)
        mg = _mass_power(m, ordering.gamma)
        # m^a p m^b p m^g = -(D_a A D_b A D_g) since p = -i A and A is real
        X = ma[:, None] * (A @ (mb[:, None] * A)) * mg[None, :]
        T = -0.25 * (X + X.T)
        return OperatorMatrix(T, hermitian_hint=True)

    psq = momentum_squared_matrix(grid).matrix
    if isinstance(ordering, InverseMassAnticommutator):
        inv_m = 1.0 / m
        T = 0.25 * (inv_m[:, None] * psq + psq * inv_m[None, :])
        return OperatorMatrix(T, hermitian_hint=True)
    if isinstance(ordering, MassLeft):
        return OperatorMatrix((0.5 / m)[:, None] * psq, hermitian_hint=False)
    if isinstance(ordering, MassRight):
        return OperatorMatrix(psq * (0.5 / m)[None, :], hermitian_hint=False)
    raise TypeError(f"unsupported ordering {ordering!r}")


def _axis_kinetics(problem: ProblemDefinition) -> tuple[np.ndarray, np.ndarray]:
    """The 1D kinetic matrices p^2/(2 mu) of the x and y axes of a 2D problem."""
    ordering = problem.ordering
    if not isinstance(ordering, ConstantMass):
        raise GridValueError(
            "2D problems support the constant-mass kinetic term only; "
            f"got ordering {ordering_label(ordering)}")
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


def reversal_matrix(N: int) -> np.ndarray:
    """Index-reversal (parity) matrix; commutes with H when V and m are even."""
    return np.eye(N)[::-1].copy()
