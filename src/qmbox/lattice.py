"""Symmetric periodic position/momentum lattices in one and two dimensions.

A 1D grid always has an odd number of points N = 2M+1, spacing a = L/N,
sites x_i = a*(i-M) for i = 0..N-1 (so x = 0 sits exactly in the middle)
and conjugate momenta p_k = (2*pi/L)*(k-M).  Odd N is structural: the
closed forms for the momentum matrices assume it.

Both lattices present one grid interface to the solver: ``size`` (the number
of sites), ``cell`` (the weight of one site in the discrete norm) and
``axes`` (the 1D lattices the grid is the tensor product of, x first).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Default cap on a single dense operator allocation (bytes, complex128).
DEFAULT_MEMORY_CAP = 4 * 2**30

_COMPLEX_ITEMSIZE = 16


class GridMemoryError(MemoryError):
    """Requested grid implies a dense matrix beyond the configured cap."""


@dataclass(frozen=True, eq=False)
class Lattice1D:
    M: int
    L: float
    N: int = field(init=False)
    a: float = field(init=False)
    x: np.ndarray = field(init=False, repr=False)
    p: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        N = 2 * self.M + 1
        a = self.L / N
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "x", a * np.arange(-self.M, self.M + 1))
        object.__setattr__(self, "p", (2 * np.pi / self.L) * np.arange(-self.M, self.M + 1))
        self.x.setflags(write=False)
        self.p.setflags(write=False)

    @property
    def size(self) -> int:
        return self.N

    @property
    def cell(self) -> float:
        return self.a

    @property
    def axes(self) -> tuple[Lattice1D, ...]:
        return (self,)


@dataclass(frozen=True, eq=False)
class Lattice2D:
    """Tensor-product rectangle of two 1D lattices.

    Sites carry the compound index I = i1 + (i2-1)*Nx for 1-based (i1, i2),
    i.e. the x index runs fastest.  A (Ny, Nx) field array raveled in C
    order enumerates sites in exactly this order.
    """

    lx: Lattice1D
    ly: Lattice1D

    @property
    def size(self) -> int:
        return self.lx.N * self.ly.N

    @property
    def cell(self) -> float:
        """Area weight of one site, the 2D analogue of the spacing a."""
        return self.lx.a * self.ly.a

    @property
    def axes(self) -> tuple[Lattice1D, ...]:
        return (self.lx, self.ly)

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) arrays of shape (Ny, Nx); ravel() matches the compound index."""
        return np.meshgrid(self.lx.x, self.ly.x, indexing="xy")


def _check_cap(dim: int, memory_cap: int | None, what: str):
    cap = DEFAULT_MEMORY_CAP if memory_cap is None else memory_cap
    need = dim * dim * _COMPLEX_ITEMSIZE
    if need > cap:
        raise GridMemoryError(
            f"{what}: dense {dim}x{dim} operator needs {need / 2**30:.2f} GiB, "
            f"cap is {cap / 2**30:.2f} GiB")


def make_lattice(L: float, M: int, memory_cap: int | None = None) -> Lattice1D:
    """Build the odd-N symmetric periodic grid of width L with N = 2M+1 points."""
    if not L > 0:
        raise ValueError(f"width L must be positive, got {L}")
    if M < 0 or int(M) != M:
        raise ValueError(f"M must be a non-negative integer, got {M}")
    _check_cap(2 * int(M) + 1, memory_cap, "make_lattice")
    return Lattice1D(M=int(M), L=float(L))


def make_lattice_2d(Lx: float, Mx: int, Ly: float, My: int,
                    memory_cap: int | None = None) -> Lattice2D:
    """Tensor-product grid; the state space has Nx*Ny sites."""
    lx = make_lattice(Lx, Mx, memory_cap=memory_cap)
    ly = make_lattice(Ly, My, memory_cap=memory_cap)
    _check_cap(lx.N * ly.N, memory_cap, "make_lattice_2d")
    return Lattice2D(lx=lx, ly=ly)


def points_to_m(N: int) -> int:
    """Convert an odd point count N = 2M+1 to M, rejecting even N."""
    if N < 1 or N % 2 == 0:
        raise ValueError(f"point count N must be odd and positive, got {N}")
    return (N - 1) // 2
