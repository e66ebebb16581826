"""Dense operator matrices on the periodic lattice.

The momentum operator is the nonlocal all-to-all lattice derivative obtained
by diagonalizing in Fourier space, so its matrix elements are exact for any
wave function whose momentum content fits the grid; there is no power-law
stencil error.  Everything that can stay real does stay real: the workhorse
is the real antisymmetric matrix for i*p, and Hamiltonian builders combine
it with diagonal matrices without ever leaving float64 unless a complex
potential forces them to.

The lattice operators are Toeplitz: an entry depends on the index offset
j = i - k alone.  Each closed form is therefore evaluated once per offset,
on 2N-1 values rather than N^2, and the vector is expanded into the matrix
by one strided copy; every entry is the same float it would be if evaluated
in place (these are the Fourier-grid DVR matrices of Colbert & Miller,
J. Chem. Phys. 96, 1982 (1992)).

An operator that commutes with the reflection of a symmetric axis splits
into an even and an odd mirror block (``mirror_fold``); the inverse map
scatters block vectors back onto the whole axis (``mirror_unfold``).  One
convention serves 1D and 2D alike: a folded axis is numbered from the box
edge inward, with the centre site last in the even block (``mirror_sites``).
The real form of a PT-symmetric Hamiltonian (``hamiltonian._pt_real_form``)
is built in the same basis, taken over the whole grid.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Callable, Union

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .expr import Expression
from .lattice import Lattice1D, _guard

GridFunction = Union[Expression, Callable, float, int]


class GridValueError(ValueError):
    """A grid function produced a non-finite value at a reported point."""


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """A Hamiltonian block, or the kinetic term of ``build_kinetic``: a dense
    square operator on grid-sampled wave functions (the lattice operators
    below are plain arrays).

    ``hermitian_hint`` is structural: constructors set it when the build
    recipe guarantees Hermiticity, and the eigensolver trusts it to pick
    the symmetric fast path.  It is never inferred by numeric sniffing.

    ``parity`` names the mirror-parity sector of the grid the operator is
    restricted to, one entry per axis (x, then y): EVEN or ODD for an axis
    folded onto its half-axis sites, numbered from the box edge inward (see
    ``mirror_sites``), 0 for an axis kept whole.  The empty default means
    nothing is folded: the operator acts on the whole grid.  PT on every
    axis marks the real form R = S^-1 Q^T H Q S of a PT-symmetric H, Q the
    mirror basis of the flattened grid and S = diag(I, i I); H's vectors are Q S u.

    A 2D operator may be given by its Kronecker-sum ``factors`` (tx, ty, v)
    instead of ``dense``: ``matrix`` is then ``kronecker_sum(tx, ty, v)``,
    assembled on first use and kept, and a solver that works from the
    factors never assembles it.
    """

    dense: InitVar[np.ndarray | None] = None
    hermitian_hint: bool = False
    parity: tuple[int, ...] = ()
    factors: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @cached_property
    def matrix(self) -> np.ndarray:
        return kronecker_sum(*self.factors)

    @property
    def dim(self) -> int:
        if self.factors is None:
            return self.matrix.shape[0]
        tx, ty, _ = self.factors
        return tx.shape[0] * ty.shape[0]

    def __post_init__(self, dense):
        if (dense is None) == (self.factors is None):
            raise ValueError("an operator takes either a dense matrix or its factors")
        if dense is not None:
            if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
                raise ValueError(f"operator matrix must be square, got shape {dense.shape}")
            self.__dict__["matrix"] = dense   # what ``matrix`` would cache


def _signed_offsets(N: int) -> np.ndarray:
    """The 2N-1 index differences j = i - k of an N x N matrix, -(N-1)..N-1."""
    return np.arange(1 - N, N)


def _toeplitz(c: np.ndarray) -> np.ndarray:
    """The N x N matrix [i, k] = c[i - k + N - 1] of the offset values c,
    expanded by one strided copy."""
    N = (len(c) + 1) // 2
    _guard(N * N * c.itemsize, f"a {N} x {N} lattice operator")
    step = c.strides[0]   # row i starts at c[N - 1 + i] and runs back along c
    return as_strided(c[N - 1:], (N, N), (step, -step)).copy()


def _momentum_ip_offsets(grid: Lattice1D) -> np.ndarray:
    """The 2N-1 offset values of i*p, (pi/L)(-1)^j / sin(pi j/N), 0 at j = 0."""
    j = _signed_offsets(grid.N)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = (np.pi / grid.L) * (-1.0) ** j / np.sin(np.pi * j / grid.N)
    c[grid.N - 1] = 0.0
    return c


def momentum_ip(grid: Lattice1D) -> np.ndarray:
    """Real antisymmetric matrix of i*p; entries (pi/L)(-1)^j / sin(pi j/N)."""
    return _toeplitz(_momentum_ip_offsets(grid))


def mirror_momentum_ip(grid: Lattice1D) -> np.ndarray:
    """The (M+1) x M even-odd block A_eo of A = i*p in the mirror basis Q
    (``mirror_sites``).  A anticommutes with the reflection, so
    Q^T A Q = [[0, A_eo], [-A_eo^T, 0]].  A pair row i reads
    A[i, j] - A[i, N-1-j] = c(i - j) - c(i + j + 1 - N), a Toeplitz minus a
    Hankel matrix of ``momentum_ip``'s offset values c, each a strided view;
    the centre row, not a pair, is scaled by sqrt(1/2)."""
    N, M = grid.N, grid.M
    c = _momentum_ip_offsets(grid)
    _guard((M + 1) * M * c.itemsize, f"a {M + 1} x {M} lattice operator")
    step = c.strides[0]
    block = np.subtract(as_strided(c[N - 1:], (M + 1, M), (step, -step)),
                        as_strided(c, (M + 1, M), (step, step)))
    block[M:] *= np.sqrt(0.5)
    return block


def momentum_squared_matrix(grid: Lattice1D) -> np.ndarray:
    """p^2 from its closed form (exact per entry, not a matrix square).

    Diagonal pi^2/(3 a^2) (1 - a^2/L^2); off-diagonal
    (2 pi^2/L^2) (-1)^j cos(pi j/N) / sin^2(pi j/N).
    """
    j = _signed_offsets(grid.N)
    with np.errstate(divide="ignore", invalid="ignore"):
        c = ((2 * np.pi**2 / grid.L**2) * (-1.0) ** j
             * np.cos(np.pi * j / grid.N) / np.sin(np.pi * j / grid.N) ** 2)
    c[grid.N - 1] = np.pi**2 / (3 * grid.a**2) * (1 - grid.a**2 / grid.L**2)
    return _toeplitz(c)


def exp_ialpha_p(grid: Lattice1D, alpha: float) -> np.ndarray:
    """Translation operator exp(i*alpha*p), unitary for any real alpha.

    Entries (-1)^j/N * sin(pi alpha/a) / sin(pi (alpha + j a)/L).  Where
    alpha + j*a is a multiple of L the singularity is removable and the
    entry takes its limit value 1 (N is odd, so the sign factor drops out).
    """
    j = _signed_offsets(grid.N)
    arg = (alpha + j * grid.a) / grid.L
    with np.errstate(divide="ignore", invalid="ignore"):
        c = (-1.0) ** j / grid.N * np.sin(np.pi * alpha / grid.a) / np.sin(np.pi * arg)
    c[np.abs(arg - np.round(arg)) < 1e-9] = 1.0
    return _toeplitz(c)


def grid_values(f: GridFunction, point_arrays: dict[str, np.ndarray],
                what: str = "grid function") -> np.ndarray:
    """Evaluate an Expression / callable / constant on grid points.

    Callables receive positional arrays in variable order (x[, y]).  A
    non-finite result raises GridValueError naming the offending point,
    which is how a mass-function pole inside the box gets caught before it
    silently corrupts a spectrum.
    """
    names = sorted(point_arrays)  # "x" or ("x", "y")
    shape = np.broadcast(*point_arrays.values()).shape
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if isinstance(f, Expression):
            extra = f.variables - set(names)
            if extra:
                raise GridValueError(f"{what} uses undeclared variables {sorted(extra)}")
            values = f(**point_arrays)
        elif callable(f):
            values = f(*(point_arrays[n] for n in names))
        else:
            values = float(f)
    values = np.broadcast_to(np.asarray(values, dtype=float), shape).copy()
    bad = ~np.isfinite(values)
    if np.any(bad):
        where = np.argwhere(bad)[0]
        at = ", ".join(f"{n}={point_arrays[n].reshape(shape)[tuple(where)]:.6g}"
                       for n in names)
        raise GridValueError(f"{what} is non-finite at grid point ({at})")
    return values


#: Parity of a mirror block along one axis; 0 marks an axis kept whole.
EVEN, ODD = 1, -1
#: Parity of every axis of a PT-symmetric operator's real form (``OperatorMatrix``).
PT = 2


def mirror_sites(M: int, parity: int) -> slice:
    """Sites of the symmetric N = 2M+1 axis that index a block's basis.

    The basis runs from the box edge inward: sites 0..M-1 are the pairs
    (|x_k> +- |x_{N-1-k}>)/sqrt2, + in the even block and - in the odd one,
    and the centre site x_M comes last, in the even block only.  A function
    even along the axis is diagonal in both, with its value at x_k.

    The edge-first order is the orientation of the dense H, and it matters
    for precision: where the entries grow by orders of magnitude towards the
    edge, as near the mass pole of nh3, the symmetric eigensolver keeps the
    low levels in this orientation and loses digits in the reverse one.  On
    criterion 09's widest grid (N = 211) the ground state is off by 3e-14
    relative edge-first and by 3e-11 centre-first.
    """
    if parity == EVEN:
        return slice(M + 1)
    if parity == ODD:
        return slice(M)
    return slice(None)


def mirror_fold(t: np.ndarray, parity: int, out: np.ndarray | None = None) -> np.ndarray:
    """Block of a matrix in the even or odd mirror basis, read off the rows
    of the left half-axis; written into ``out`` when given, such as a
    diagonal block of a larger matrix.

    Exact when ``t`` commutes with the index reversal, t[::-1, ::-1] == t,
    as every symmetric Toeplitz matrix does (the closed-form p^2 among them)
    and so does a 1D kinetic matrix, Hermitian or not, whose mass is
    mirror-even.  A product p m^beta p on such an axis is built folded
    instead, at half size (``mirror_momentum_ip``); this fold of it is
    what that build reproduces to round-off.
    """
    M = t.shape[0] // 2
    s = mirror_sites(M, parity)
    near, far = t[s, s], t[s, ::-1][:, s]   # columns x_k and x_{N-1-k}
    combine = np.add if parity == EVEN else np.subtract
    block = combine(near, far, out=out)
    block[M:] *= np.sqrt(0.5)               # the centre site, in the even block only,
    block[:, M:] *= np.sqrt(0.5)            # is not a pair
    return block


def mirror_unfold(c: np.ndarray, parity: int, axis: int) -> np.ndarray:
    """Inverse of the fold for coefficient arrays: scatter the half axis
    ``axis`` of ``c`` back onto all 2M+1 sites, +-c/sqrt2 on each mirrored
    pair and c on the centre site.  An isometry, so norms carry over."""
    if not parity:
        return c
    c = np.moveaxis(c, axis, 0)
    pairs = np.sqrt(0.5) * (c[:-1] if parity == EVEN else c)
    M = pairs.shape[0]
    out = np.zeros((2 * M + 1,) + c.shape[1:], dtype=c.dtype)
    out[:M] = pairs
    out[M + 1:] = parity * pairs[::-1]
    if parity == EVEN:
        out[M] = c[-1]
    return np.moveaxis(out, 0, axis)


def kronecker_sum(tx: np.ndarray, ty: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
    """kron(I_ny, tx) + kron(ty, I_nx) + diag(diagonal) on the x-fastest grid.

    ``diagonal`` holds one value per site as a (ny, nx) array; a complex one
    makes the result complex.  The terms are accumulated block-wise in one
    (nx*ny)^2 buffer, with no Kronecker-product temporaries.
    """
    nx, ny = tx.shape[0], ty.shape[0]
    _guard((nx * ny) ** 2 * np.result_type(tx, ty, diagonal).itemsize, f"a {nx * ny}-site matrix")
    H = np.zeros((nx * ny, nx * ny), dtype=np.result_type(tx, ty, diagonal))
    H4 = H.reshape(ny, nx, ny, nx)
    H4[np.arange(ny), :, np.arange(ny), :] += tx
    H4[:, np.arange(nx), :, np.arange(nx)] += ty
    _diagonal(H)[...] += np.ravel(diagonal)
    return H


def _diagonal(H: np.ndarray) -> np.ndarray:
    """A writable view of the diagonal of the square matrix H, contiguous
    or not, so that a write to it writes H."""
    return np.einsum("ii->i", H)
