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

import math
from dataclasses import dataclass, field

import numpy as np

#: Cap in bytes on the predicted peak of a solve, from the build of its
#: blocks to its eigenvectors on the grid, LAPACK's copies and workspace
#: included, as its plan (``eig._plan``) predicts it before any matrix is
#: built.  A lattice operator or a 2D assembly made alone is held to it too.
MEMORY_CAP = 4 * 2**30


class GridMemoryError(MemoryError):
    """A solve, or one grid-sized matrix, would exceed ``MEMORY_CAP``."""


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


def _guard(peak: int, what: str) -> None:
    """The one memory guard: refuse ``what`` if its peak bytes pass ``MEMORY_CAP``."""
    if peak > MEMORY_CAP:
        raise GridMemoryError(f"{what} has a predicted peak of {peak / 2**30:.2f} GiB, "
                              f"over the memory cap of {MEMORY_CAP / 2**30:.2f} GiB")


def make_lattice(L: float, M: int) -> Lattice1D:
    """Build the odd-N symmetric periodic grid of width L with N = 2M+1 points."""
    if not 0 < L < math.inf:
        raise ValueError(f"width L must be positive and finite, got {L}")
    if M < 0 or int(M) != M:
        raise ValueError(f"M must be a non-negative integer, got {M}")
    # the squares of the spacing L/N and of the momentum step 2 pi/L, which
    # the kinetic closed forms divide by, must both be finite and nonzero
    a, dp = L / (2 * M + 1), 2 * math.pi / L
    if not (0 < a * a < math.inf and 0 < dp * dp < math.inf):
        raise ValueError(f"width L = {L} gives no finite, nonzero squared spacing and "
                         f"momentum step on {2 * M + 1} points")
    return Lattice1D(M=int(M), L=float(L))


def make_lattice_2d(Lx: float, Mx: int, Ly: float, My: int) -> Lattice2D:
    """Tensor-product grid; the state space has Nx*Ny sites."""
    return Lattice2D(lx=make_lattice(Lx, Mx), ly=make_lattice(Ly, My))


def points_to_m(N: int) -> int:
    """Convert an odd point count N = 2M+1 to M, rejecting an even or a
    fractional N rather than truncating it."""
    (N,) = _integers([N], "grid sizes")
    if N < 1 or N % 2 == 0:
        raise ValueError(f"point count N must be odd and positive, got {N}")
    return (N - 1) // 2


def _integers(values, what: str) -> tuple[int, ...]:
    """The values as ints; ValueError naming the first that is not one."""
    out = []
    for value in values:
        try:
            exact = int(value) == value
        except (TypeError, ValueError, OverflowError):
            exact = False
        if not exact:
            raise ValueError(f"{what} must be integers, got {value!r}")
        out.append(int(value))
    return tuple(out)
