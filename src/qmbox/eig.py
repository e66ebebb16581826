"""Diagonalization and spectrum packaging.

Two solver paths, chosen by the builder's structural hermitian_hint rather
than by sniffing the matrix: Hermitian input goes through the symmetric
solver and reports exactly real eigenvalues with orthonormal eigenvectors;
everything else goes through the general dense solver and keeps whatever
imaginary parts the matrix produces.  A real non-symmetric matrix therefore
yields an exactly real spectrum whenever its eigenvalues are real, while a
genuinely complex matrix shows its round-off imaginaries honestly.

The general path has one real form: a complex H of odd size that is
PT-symmetric bitwise, H[::-1, ::-1] == conj(H) (P reverses the site index,
T conjugates), is similar to a real matrix of the same size built from its
mirror folds (``_pt_real_form``).  That matrix goes through the real general
solver in place of the complex one, so an unbroken-PT level comes out with
an imaginary part of exactly 0 and a broken-PT pair as an exact conjugate
pair, and the vectors are mapped back onto the grid.  The test is made on H
itself, so every caller of the general path takes the same route.

A Hamiltonian may also arrive as mirror-parity blocks (see
``hamiltonian.hamiltonian_blocks``): a problem whose grid functions equal
their mirror image bitwise along an axis splits H exactly into an even and
an odd block of about half the size.  ``diagonalize_blocks`` sends each
block through the same solver choice, merges the lowest levels, and scatters
the vectors back onto the full grid one axis at a time (a folded axis runs
from the box edge inward in 1D and 2D alike, see ``operators.mirror_sites``),
so the Spectrum has the same layout, normalization and residual definition
as one dense decomposition; ``Spectrum.mirror_axes`` records which axes were
folded.  A single whole matrix is the one-block case.

``block_eigenvalues`` runs the same solver choice without eigenvectors and
merges the blocks' levels in the same order, for callers that read the
eigenvalues alone, such as convergence scans; ``eigenvalues`` is its
one-block case.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .lattice import Lattice1D, Lattice2D
from .operators import (EVEN, ODD, MirrorBlock, OperatorMatrix, mirror_cross_fold,
                        mirror_fold, mirror_unfold)


class SolverError(RuntimeError):
    """Eigensolver failed to converge or received non-finite input."""


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Sorted eigenpairs on a grid.

    Eigenvalues ascend by real part (ties by imaginary part); eigenvectors
    are columns normalized to weight * sum |psi_i|^2 = 1, the discrete
    version of the unit continuum norm, with weight a in 1D and ax*ay in 2D.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column n belongs to eigenvalues[n]
    residuals: np.ndarray     # ||H v - lambda v||_2 / ||H||_F per pair
    hermitian_path: bool
    grid: Lattice1D | Lattice2D
    parity: tuple[str, ...] | None = None         # "s" | "a" | "none" per state
    labels: tuple[str, ...] | None = None         # "0s", "0a", ... or plain index
    mirror_axes: tuple[str, ...] = ()             # axes folded by mirror symmetry

    @property
    def n_states(self) -> int:
        return len(self.eigenvalues)

    @property
    def weight(self) -> float:
        return self.grid.cell

    def state_label(self, n: int) -> str:
        if self.labels is not None:
            return self.labels[n]
        return str(n)


def diagonalize(op: OperatorMatrix, grid: Lattice1D | Lattice2D,
                n_states: int | None = None) -> Spectrum:
    """Eigendecomposition of a built Hamiltonian; full spectrum by default.

    Hermitian-path eigenvalues come back as a real array, so their imaginary
    parts are identically zero; the general path returns complex eigenvalues
    sorted by (Re, Im).  On the Hermitian path ``n_states`` restricts the
    decomposition to the lowest eigenpairs, which is much cheaper for big 2D
    grids; the general path always computes everything and truncates.
    """
    if op.dim != grid.size:
        raise ValueError("operator dimension does not match the grid")
    return diagonalize_blocks([MirrorBlock(op)], grid, n_states)


def diagonalize_blocks(blocks: Iterable[MirrorBlock], grid: Lattice1D | Lattice2D,
                       n_states: int | None = None) -> Spectrum:
    """Eigendecomposition of a Hamiltonian given as mirror-parity blocks.

    Each block goes through the solver choice of ``diagonalize`` for its
    lowest min(n_states, block size) pairs and is released before the next
    one is drawn.  The lowest ``n_states`` across blocks are kept in (Re, Im)
    order, their vectors are scattered back onto the full grid, and the
    residuals are divided by sqrt(sum ||H_b||_F^2) = ||H||_F, so the result
    is laid out exactly as the decomposition of the assembled H would be.
    """
    if n_states is not None and not 1 <= n_states <= grid.size:
        raise ValueError(f"n_states must be in 1..{grid.size}, got {n_states}")
    parts, norm_sq, folded, hermitian = [], 0.0, set(), True
    for block in blocks:
        H = block.op.matrix
        count = H.shape[0] if n_states is None else min(n_states, H.shape[0])
        w, v = _eigenpairs(H, block.op.hermitian_hint, count)
        v = v / np.sqrt(grid.cell * np.sum(np.abs(v) ** 2, axis=0))
        parts.append((w, v, np.linalg.norm(H @ v - v * w[None, :], axis=0), block.parity))
        norm_sq += np.linalg.norm(H) ** 2
        folded.update(axis for axis, p in zip("xy", block.parity) if p)
        hermitian = hermitian and block.op.hermitian_hint
        del H, block   # free this block before the next one is assembled

    w, order = _merged([part[0] for part in parts])
    order = order[:n_states]
    owner = np.repeat(np.arange(len(parts)), [len(part[0]) for part in parts])[order]
    w, residuals = w[order], np.concatenate([part[2] for part in parts])[order]
    vectors = np.empty((grid.size, len(order)), dtype=np.result_type(*(part[1] for part in parts)))
    for b, (_, v, _, parity) in enumerate(parts):
        columns = np.flatnonzero(owner == b)   # a block's picks are its lowest pairs
        vectors[:, columns] = _unfold(v[:, :len(columns)], parity, grid)
    if norm_sq:   # H = 0 leaves every pair exact, with residual 0
        residuals = residuals / np.sqrt(norm_sq)
    return Spectrum(eigenvalues=w, eigenvectors=vectors, residuals=residuals,
                    hermitian_path=hermitian, grid=grid,
                    mirror_axes=tuple(a for a in "xy" if a in folded))


def eigenvalues(op: OperatorMatrix) -> np.ndarray:
    """All eigenvalues of a built Hamiltonian, without eigenvectors, in the
    order and dtype of ``diagonalize``: ascending and real on the Hermitian
    hint, otherwise sorted by (Re, Im)."""
    return block_eigenvalues([MirrorBlock(op)])


def block_eigenvalues(blocks: Iterable[MirrorBlock]) -> np.ndarray:
    """All eigenvalues of a Hamiltonian given as mirror-parity blocks, without
    eigenvectors, merged in the order and dtype of ``diagonalize_blocks``."""
    w, order = _merged([_eigvals(block.op) for block in blocks])
    return w[order]


def _eigvals(op: OperatorMatrix) -> np.ndarray:
    """The eigenvalues of one block by the solver choice of ``_eigenpairs``."""
    if op.hermitian_hint:
        return _lapack(np.linalg.eigvalsh, op.matrix)
    R = _pt_real_form(op.matrix)
    if R is None:
        return _lapack(np.linalg.eigvals, op.matrix)
    return _lapack(np.linalg.eigvals, R).astype(complex)


def _merged(values: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The blocks' eigenvalues concatenated, and the permutation that sorts
    them by (Re, Im)."""
    w = np.concatenate(values)
    return w, np.lexsort((w.imag, w.real))


def _eigenpairs(H: np.ndarray, hermitian: bool, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``count`` lowest eigenpairs of H in (Re, Im) order, columns of unit 2-norm."""
    if hermitian:
        if count < H.shape[0]:
            from scipy.linalg import eigh
            return _lapack(eigh, H, subset_by_index=(0, count - 1))
        return _lapack(np.linalg.eigh, H)
    R = _pt_real_form(H)
    w, v = _lapack(np.linalg.eig, H if R is None else R)
    order = np.lexsort((w.imag, w.real))[:count]
    w, v = w[order], v[:, order]
    if R is None:
        return w, v
    M = H.shape[0] // 2   # psi = Q_e u_e + i Q_o u_o
    return w.astype(complex), (mirror_unfold(v[:M + 1], EVEN, axis=0)
                               + 1j * mirror_unfold(v[M + 1:], ODD, axis=0))


def _pt_real_form(H: np.ndarray) -> np.ndarray | None:
    """The real matrix similar to a PT-symmetric H, or None for any other H.

    H is PT-symmetric here when it has odd size and H[::-1, ::-1] == conj(H)
    bitwise: P reverses the site index, T conjugates.  Then the reversal J
    commutes with H_r = Re H and anticommutes with H_i = Im H, so in the
    mirror basis of ``mirror_sites`` H_r is block-diagonal and H_i couples
    the even block only to the odd one, and the similarity diag(I, i I)
    takes H exactly to

        R = [[A, -B_eo], [B_oe, C]],

    A and C the even and odd folds of H_r, B_eo and B_oe the cross folds of
    H_i.  R's eigenvectors (u_e, u_o) are H's as Q_e u_e + i Q_o u_o; a level
    real in R is exactly real, and a broken-PT pair is an exact conjugate
    pair (Bender & Boettcher, PRL 80, 5243 (1998); Mostafazadeh, J. Math.
    Phys. 43, 205 (2002)).  The test reads H through its real and imaginary
    views and the upper half rows, which the reversal maps onto the rest.
    """
    N = H.shape[0]
    if not np.iscomplexobj(H) or N % 2 == 0:
        return None
    top, mirrored = H[:N // 2 + 1], H[::-1, ::-1][:N // 2 + 1]
    if not (np.array_equal(top.real, mirrored.real)
            and np.array_equal(top.imag, -mirrored.imag)):
        return None
    re, im = H.real, H.imag
    return np.block([[mirror_fold(re, EVEN), -mirror_cross_fold(im, EVEN)],
                     [mirror_cross_fold(im, ODD), mirror_fold(re, ODD)]])


def _lapack(solver, H: np.ndarray, **options):
    """``solver(H, **options)``, with non-finite input and a LAPACK failure
    to converge raised as SolverError."""
    if not np.all(np.isfinite(H.real)) or (np.iscomplexobj(H) and not np.all(np.isfinite(H.imag))):
        raise SolverError("Hamiltonian contains non-finite entries")
    try:
        return solver(H, **options)
    except np.linalg.LinAlgError as err:
        raise SolverError(f"eigensolver did not converge: {err}") from None


def _unfold(v: np.ndarray, parity: tuple[int, ...], grid: Lattice1D | Lattice2D) -> np.ndarray:
    """Block eigenvector columns as full-grid columns (x fastest)."""
    if not any(parity):
        return v
    # the block's sites per axis, reversed to the [y, x] order of x-fastest
    # arrays; no -1, as a block may give 0 columns
    shape = [axis.N if not p else axis.M + (p == EVEN) for axis, p in zip(grid.axes, parity)]
    c = v.reshape(shape[::-1] + [v.shape[1]])
    for array_axis, p in zip(reversed(range(len(shape))), parity):
        c = mirror_unfold(c, p, axis=array_axis)
    return c.reshape(grid.size, -1)


def phase_fix(spectrum: Spectrum) -> Spectrum:
    """Rotate each eigenvector so its largest-|.| component is real positive
    (for complex vectors, the first component within 1e-12 of the largest).

    Deterministic and idempotent; keeps real arrays real (a sign flip).
    """
    v = spectrum.eigenvectors
    cols = np.arange(v.shape[1])
    size = np.abs(v)
    if not np.iscomplexobj(v):
        lead = v[np.argmax(size, axis=0), cols]
        return replace(spectrum, eigenvectors=v * np.where(lead != 0, np.sign(lead), 1.0)[None, :])
    # A rotation moves |.| by round-off, which can reorder exact ties such as
    # mirror-image sites; the first near-maximal site is a stable pivot.
    pivots = np.argmax(size >= (1.0 - 1e-12) * size.max(axis=0), axis=0)
    lead = v[pivots, cols]
    v = v * np.exp(-1j * np.angle(lead))[None, :]   # exactly 1 once the pivot is real positive
    v[pivots, cols] = np.abs(lead)                  # and pinned exactly real here
    return replace(spectrum, eigenvectors=v)


def classify_parity(spectrum: Spectrum, threshold: float = 0.9) -> Spectrum:
    """Label 1D states s/a/none by their overlap with the index-reversed self.

    The overlap o = a * sum_i psi(-x_i) psi(x_i)* is +1 for an even state and
    -1 for an odd one on a symmetric grid; states of a non-symmetric problem
    land in between and are labeled "none".  Each parity class also gets its
    own quantum number counted upward in energy order, giving the familiar
    doublet labels 0s, 0a, 1s, ...
    """
    if isinstance(spectrum.grid, Lattice2D):
        raise ValueError("parity classification is defined for 1D spectra only")
    v = spectrum.eigenvectors
    overlaps = spectrum.weight * np.sum(v[::-1, :] * np.conj(v), axis=0)
    parity = []
    for o in overlaps.real:
        parity.append("s" if o > threshold else "a" if o < -threshold else "none")
    counters = {"s": 0, "a": 0}
    labels = []
    for n, p in enumerate(parity):
        if p == "none":
            labels.append(str(n))
        else:
            labels.append(f"{counters[p]}{p}")
            counters[p] += 1
    return replace(spectrum, parity=tuple(parity), labels=tuple(labels))
