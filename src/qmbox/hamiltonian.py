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
when the mass is even, so H splits into exact mirror-parity blocks whenever
the sampled mass and potentials are even, in 1D as in 2D, as the plan of a
solve lays them out (``_planned``); ``build_hamiltonian`` is the unfolded
one-block case.  The fold is decided on the sampled functions, not on H:
on the whole axis the beta != 0 product A (m^beta A) is mirror-symmetric
only to round-off.  A folded axis never forms that product: A = i p is
off-diagonal in the mirror basis, so each parity block of p m^beta p is a
half-size product of A's even-odd block (``mirror_momentum_ip``), scaled
by m^alpha and m^gamma on the block's own sites; every other kinetic term
is built on the whole axis and folded.  Each axis is folded the same way,
its half-axis numbered from the box edge inward, and the potential is
added after the fold, on the block's sites.

PT symmetry is decided there too, on the same arrays: with no axis folded,
sampled functions that are PT under the inversion of the grid make the one
block the real matrix R similar to H (``_pt_real_form``), and the complex H
is never assembled.  A 1D block is its dense matrix, a 2D block its
Kronecker-sum factors (the two axis matrices and V on its sites), which
the solver either solves in a contracted basis or assembles; a PT block is
dense in 2D too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product
from typing import Iterator, Union

import numpy as np

from . import eig
from .lattice import Lattice1D, Lattice2D
from .operators import (EVEN, ODD, PT, GridFunction, GridValueError, OperatorMatrix,
                        _diagonal, grid_values, kronecker_sum, mirror_fold, mirror_momentum_ip,
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
    symmetric = True   # not a field: p^2 / (2 mu) is always Hermitian

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
    if s == round(s):
        return m ** int(s)
    with np.errstate(invalid="ignore"):
        powered = np.power(m, s)
    if np.any(~np.isfinite(powered)):
        raise GridValueError(
            f"mass power m^{s:g} is undefined on this grid "
            "(fractional power of a non-positive mass value)")
    return powered


def build_kinetic(problem: ProblemDefinition) -> OperatorMatrix:
    """Kinetic-energy matrix for the problem's ordering (1D) or the
    constant-mass tensor sum (2D): the Hamiltonian of the problem with no
    potential."""
    return build_hamiltonian(replace(problem, potential_real=0.0, potential_imag=None))


def _kinetic_1d(grid: Lattice1D, ordering: KineticOrdering, m: np.ndarray | None,
                fold: bool) -> dict[int, np.ndarray]:
    """The 1D kinetic matrix of ``ordering`` from the sampled mass ``m``,
    scaled in place, as {0: T}, or with ``fold`` as its mirror blocks
    {EVEN: T_e, ODD: T_o}; it is Hermitian exactly when ``ordering.symmetric``
    is.  A von Roos product p m^beta p (beta != 0) on a folded axis is built
    block by block at half size (``mirror_momentum_ip``), its m^alpha and
    m^gamma on each block's own sites; every other kinetic term is built on
    the whole axis and folded with ``mirror_fold``.

    A mass power or a product that leaves float range (a zero mass, an
    extreme exponent or mu) is computed silently: the eigensolver rejects
    the non-finite matrix as a numerical failure.
    """
    with np.errstate(all="ignore"):
        if isinstance(ordering, ConstantMass):
            T = momentum_squared_matrix(grid)
            T /= 2.0 * ordering.mu
            blocks = {0: T}
        else:
            if ordering.beta == 0.0:
                # the closed-form p^2 costs O(N^2), a product O(N^3)
                blocks = {0: momentum_squared_matrix(grid)}
            elif fold:
                # p m^beta p = -(A m^beta A) since p = -i A and A is real; in
                # the mirror basis A = [[0, A_eo], [-A_eo^T, 0]], and m^beta
                # is diagonal with its values on the pair sites, then the
                # centre, which the even block alone holds; in each block
                # the two minus signs cancel
                A = mirror_momentum_ip(grid)
                b = _mass_power(m[:grid.M + 1], ordering.beta)
                blocks = {EVEN: (A * b[:-1]) @ A.T, ODD: A.T @ (b[:, None] * A)}
                del A   # before the symmetrization's copy of X.T and ufunc buffer
            else:
                A = momentum_ip(grid)
                X = A @ (_mass_power(m, ordering.beta)[:, None] * A)
                np.negative(X, out=X)
                blocks = {0: X}
            for parity, X in blocks.items():   # m^alpha p m^beta p m^gamma
                sites = m[mirror_sites(grid.M, parity)]
                # a zero exponent scales by ones: skipped, bitwise the same
                if ordering.alpha:
                    X *= _mass_power(sites, ordering.alpha)[:, None]
                if ordering.gamma:
                    X *= _mass_power(sites, ordering.gamma)[None, :]
                if ordering.symmetric:
                    X += X.T   # numpy reads the overlapping X.T as if copied first
                X *= 0.25 if ordering.symmetric else 0.5
    if fold and 0 in blocks:
        T = blocks.pop(0)   # a folded axis keeps only its blocks
        with np.errstate(invalid="ignore"):   # inf - inf of a non-finite kinetic matrix
            blocks = {p: mirror_fold(T, p) for p in (EVEN, ODD)}
    return blocks


def build_hamiltonian(problem: ProblemDefinition) -> OperatorMatrix:
    """H = T + diag(V_real) + i diag(V_imag) on the problem's grid, as one
    unfolded block (in 2D its factors, with the dense matrix assembled on
    first use), built once its build is planned (``_planned``), which
    refuses it over the memory cap: a dense block costs its bytes, factors
    nothing.  A PT-symmetric problem gives its real form R, with H's
    spectrum, which ``diagonalize`` maps back onto the grid."""
    (block,) = _planned(problem, fold=False, vectors=None)[1]
    return block


def _planned(problem: ProblemDefinition, n_states: int | None = None, fold: bool = True,
             vectors: bool | None = True) -> tuple[eig.Plan, Iterator[OperatorMatrix]]:
    """The plan (``eig._plan``) of building the problem's blocks and solving
    them as ``eig._plan`` reads ``n_states`` and ``vectors``, made from the
    grid functions sampled once, before anything of the grid's size, and
    the generator of its blocks (``_built``).  An axis is folded when
    ``fold`` is set and every sampled array equals its mirror image along
    it bitwise; with none folded and a complex V, arrays equal to the
    conjugate of their inversion (``np.flip`` over all axes) make the one
    block the PT real form.  Blocks run over the parities of the axes, x
    first; the odd block of a one-site axis is empty and left out."""
    grid = problem.grid
    m = _mass_values(problem)
    v = _potential(problem)
    sampled = [f for f in (v, m) if f is not None]
    folds = [fold and all(np.array_equal(f, np.flip(f, flip)) for f in sampled)
             for flip in reversed(range(v.ndim))]   # V is indexed [y, x]
    pt = np.iscomplexobj(v) and not any(folds) and all(
        np.array_equal(f, np.flip(f).conj()) for f in sampled)
    hermitian = problem.potential_imag is None and problem.ordering.symmetric
    parities = ([(PT,) * problem.dim] if pt
                else product(*((EVEN, ODD) if f else (0,) for f in folds)))
    blocks = []
    for parity in parities:
        sites = tuple(axis.M + (p == EVEN) if p in (EVEN, ODD) else axis.N
                      for axis, p in zip(grid.axes, parity))
        if all(sites):
            blocks.append(eig.Block(sites, np.dtype(float) if pt else v.dtype, parity,
                                    problem.dim > 1 and not pt,
                                    "pt" if pt else "eigh" if hermitian else "eig"))
    # the N x N kinetic arrays that the build holds at once (eig._peak); a
    # folded beta != 0 product holds A_eo and one operand, a quarter each
    ordering = problem.ordering
    if not getattr(ordering, "beta", 0.0):
        kinetic = 1 + (m is not None and ordering.symmetric)
    else:
        kinetic = 0.5 if any(folds) else 3
    plan = eig._plan(blocks, grid.size, n_states, vectors, kinetic)
    return plan, _built(problem, plan, m, v)


def _built(problem: ProblemDefinition, plan: eig.Plan, m: np.ndarray | None,
           v: np.ndarray) -> Iterator[OperatorMatrix]:
    """The blocks of the plan from the sampled mass m and potential v, each
    built as it is drawn; the solvers draw them all before solving any.
    Each axis's kinetic term comes folded when a block folds that axis
    (``_kinetic_1d``), so a folded beta != 0 axis is built at half size."""
    grid = problem.grid
    choices = [_kinetic_1d(axis, problem.ordering, m,
                           any(b.parity[i] in (EVEN, ODD) for b in plan.blocks))
               for i, axis in enumerate(grid.axes)]
    if plan.blocks[0].path == "pt":
        # the kinetic matrices move into R: the block holds R alone
        R = _pt_real_form([axis.pop(0) for axis in choices], v)
        yield OperatorMatrix(R, False, plan.blocks[0].parity)
        return
    hermitian = plan.blocks[0].path != "eig"
    for block in plan.blocks:
        parity = block.parity
        axis_matrices = [axis[p] for axis, p in zip(choices, parity)]
        sites = tuple(mirror_sites(axis.M, p) for axis, p in zip(grid.axes, parity))
        if block.factored:
            yield OperatorMatrix(hermitian_hint=hermitian, parity=parity,
                                 factors=(*axis_matrices, v[sites[::-1]]))
            continue
        # a 1D block uses its axis matrix once, and V goes into it or into a
        # complex copy of it: drop it so the block holds H alone
        del choices[0][parity[0]]
        H = axis_matrices.pop().astype(v.dtype, copy=False)
        _diagonal(H)[...] += v[sites]
        yield OperatorMatrix(H, hermitian, parity)
        del H


def _potential(problem: ProblemDefinition) -> np.ndarray:
    """V_real + i V_imag sampled on the grid; real when there is no V_imag."""
    points = _coordinate_arrays(problem.grid)
    v = grid_values(problem.potential_real, points, what="potential")
    if problem.potential_imag is not None:
        v = v + 1j * grid_values(problem.potential_imag, points, what="imaginary potential")
    return v


def _pt_real_form(kinetic: list[np.ndarray], v: np.ndarray) -> np.ndarray:
    """R = [[A, -B], [B^T, C]] = S^-1 Q^T H Q S for the PT-symmetric H = T + diag(V):
    A and C are the even and odd folds of Re H over the flattened grid (Q,
    ``mirror_fold``), B = diag(V_imag) on the pair sites with a zero centre
    row, and S = diag(I, i I).  An unbroken-PT level of R is exactly real, a
    broken pair an exact conjugate pair (Bender & Boettcher, PRL 80, 5243
    (1998)).  V_real joins the kinetic matrix before the fold, in place in 1D.
    """
    M, im = v.size // 2, v.imag.ravel()
    with np.errstate(over="ignore", invalid="ignore"):   # a non-finite R is the solver's error
        if len(kinetic) == 1:
            re = kinetic.pop()
            _diagonal(re)[...] += v.real
        else:
            re = kronecker_sum(*kinetic, v.real)   # refuses a grid over the cap before R
        R = np.zeros((v.size, v.size))
        mirror_fold(re, EVEN, out=R[:M + 1, :M + 1])   # each fold in place, no temporary
        mirror_fold(re, ODD, out=R[M + 1:, M + 1:])
    pairs = np.arange(M)
    R[pairs, M + 1 + pairs] = -im[:M]
    R[M + 1 + pairs, pairs] = im[:M]
    return R
