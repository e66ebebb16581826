"""Dense operator matrices on the periodic lattice.

The momentum operator is the nonlocal all-to-all lattice derivative obtained
by diagonalizing in Fourier space, so its matrix elements are exact for any
wave function whose momentum content fits the grid; there is no power-law
stencil error.  Everything that can stay real does stay real: the workhorse
is the real antisymmetric matrix for i*p, and Hamiltonian builders combine
it with diagonal matrices without ever leaving float64 unless a complex
potential forces them to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .expr import Expression
from .lattice import Lattice1D

GridFunction = Union[Expression, Callable, float, int]


class GridValueError(ValueError):
    """A grid function produced a non-finite value at a reported point."""


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense square operator acting on grid-sampled wave functions.

    ``hermitian_hint`` is structural: constructors set it when the build
    recipe guarantees Hermiticity, and the eigensolver trusts it to pick
    the symmetric fast path.  It is never inferred by numeric sniffing.
    """

    matrix: np.ndarray
    hermitian_hint: bool = False

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __post_init__(self):
        m = self.matrix
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {m.shape}")


def _signed_offsets(N: int) -> np.ndarray:
    """Index-difference matrix j = i - k."""
    i = np.arange(N)
    return i[:, None] - i[None, :]


def momentum_ip(grid: Lattice1D) -> np.ndarray:
    """Real antisymmetric matrix of i*p; entries (pi/L)(-1)^j / sin(pi j/N)."""
    j = _signed_offsets(grid.N)
    with np.errstate(divide="ignore", invalid="ignore"):
        A = (np.pi / grid.L) * (-1.0) ** j / np.sin(np.pi * j / grid.N)
    np.fill_diagonal(A, 0.0)
    return A


def momentum_matrix(grid: Lattice1D) -> OperatorMatrix:
    """Hermitian momentum matrix p with zero diagonal (complex entries)."""
    return OperatorMatrix(-1j * momentum_ip(grid), hermitian_hint=True)


def momentum_squared_matrix(grid: Lattice1D) -> OperatorMatrix:
    """p^2 from its closed form (exact per entry, not a matrix square).

    Diagonal pi^2/(3 a^2) (1 - a^2/L^2); off-diagonal
    (2 pi^2/L^2) (-1)^j cos(pi j/N) / sin^2(pi j/N).
    """
    j = _signed_offsets(grid.N)
    with np.errstate(divide="ignore", invalid="ignore"):
        P = ((2 * np.pi**2 / grid.L**2) * (-1.0) ** j
             * np.cos(np.pi * j / grid.N) / np.sin(np.pi * j / grid.N) ** 2)
    np.fill_diagonal(P, np.pi**2 / (3 * grid.a**2) * (1 - grid.a**2 / grid.L**2))
    return OperatorMatrix(P, hermitian_hint=True)


def exp_ialpha_p(grid: Lattice1D, alpha: float) -> OperatorMatrix:
    """Translation operator exp(i*alpha*p), unitary for any real alpha.

    Entries (-1)^j/N * sin(pi alpha/a) / sin(pi (alpha + j a)/L).  Where
    alpha + j*a is a multiple of L the singularity is removable and the
    entry takes its limit value 1 (N is odd, so the sign factor drops out).
    """
    j = _signed_offsets(grid.N)
    arg = (alpha + j * grid.a) / grid.L
    with np.errstate(divide="ignore", invalid="ignore"):
        E = (-1.0) ** j / grid.N * np.sin(np.pi * alpha / grid.a) / np.sin(np.pi * arg)
    singular = np.abs(arg - np.round(arg)) < 1e-9
    return OperatorMatrix(np.where(singular, 1.0, E), hermitian_hint=False)


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
            values = f.evaluate(point_arrays)
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


@dataclass(frozen=True, eq=False)
class MirrorBlock:
    """An operator restricted to one mirror-parity sector of its grid.

    ``parity`` holds one entry per axis (x, then y): EVEN or ODD for an axis
    folded onto its half-axis sites (see ``mirror_sites``), 0 for an axis
    kept whole.  The empty default means nothing is folded.
    """

    op: OperatorMatrix
    parity: tuple[int, ...] = ()


def mirror_sites(M: int, parity: int) -> slice:
    """Sites of the symmetric N = 2M+1 axis that index a block's basis.

    The even basis is the centre site x_M and the pairs
    (|x_{M+k}> + |x_{M-k}>)/sqrt2, the odd basis the pairs
    (|x_{M+k}> - |x_{M-k}>)/sqrt2, k = 1..M; a function even along the
    axis is diagonal in both, with its value at x_{M+k}.
    """
    if parity == EVEN:
        return slice(M, None)
    if parity == ODD:
        return slice(M + 1, None)
    return slice(None)


def mirror_fold(t: np.ndarray, parity: int) -> np.ndarray:
    """Block of a 1D matrix in the even or odd mirror basis.

    Exact when ``t`` commutes with the index reversal, t[::-1, ::-1] == t,
    as every symmetric Toeplitz matrix does (the closed-form p^2 among them).
    """
    M = t.shape[0] // 2
    near, far = t[M:, M:], t[M:, M::-1]    # columns x_{M+l} and x_{M-l}, l = 0..M
    if parity == ODD:
        return (near - far)[1:, 1:]
    scale = np.ones(M + 1)
    scale[0] = np.sqrt(0.5)                # the centre site is not a pair
    return scale[:, None] * (near + far) * scale[None, :]


def mirror_unfold(c: np.ndarray, parity: int, axis: int) -> np.ndarray:
    """Inverse of the fold for coefficient arrays: scatter the half axis
    ``axis`` of ``c`` back onto all 2M+1 sites, c on the centre site and
    +-c/sqrt2 on each mirrored pair.  An isometry, so norms carry over."""
    if not parity:
        return c
    c = np.moveaxis(c, axis, 0)
    pairs = np.sqrt(0.5) * (c[1:] if parity == EVEN else c)
    M = pairs.shape[0]
    out = np.zeros((2 * M + 1,) + c.shape[1:], dtype=c.dtype)
    out[M + 1:] = pairs
    out[:M] = parity * pairs[::-1]
    if parity == EVEN:
        out[M] = c[0]
    return np.moveaxis(out, 0, axis)


def kronecker_sum(tx: np.ndarray, ty: np.ndarray,
                  diagonal: np.ndarray | None = None) -> np.ndarray:
    """kron(I_ny, tx) + kron(ty, I_nx) + diag(diagonal) on the x-fastest grid.

    ``diagonal`` holds one value per site as a (ny, nx) array; a complex one
    makes the result complex.  The terms are accumulated block-wise in one
    (nx*ny)^2 buffer, with no Kronecker-product temporaries.
    """
    nx, ny = tx.shape[0], ty.shape[0]
    parts = (tx, ty) if diagonal is None else (tx, ty, diagonal)
    H = np.zeros((nx * ny, nx * ny), dtype=np.result_type(*parts))
    H4 = H.reshape(ny, nx, ny, nx)
    H4[np.arange(ny), :, np.arange(ny), :] += tx
    H4[:, np.arange(nx), :, np.arange(nx)] += ty
    if diagonal is not None:
        H[np.diag_indices_from(H)] += np.ravel(diagonal)
    return H
