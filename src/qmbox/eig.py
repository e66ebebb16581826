"""Diagonalization and spectrum packaging.

Three solver paths, chosen from the structure of each block rather than by
sniffing the matrix.  The two dense ones share one dispatch
(``_eigenpairs``), with or without eigenvectors: Hermitian input (the
builder's structural hermitian_hint) goes through the symmetric solver and
reports exactly real eigenvalues with orthonormal eigenvectors; everything
else goes through the general dense solver and keeps whatever imaginary
parts the matrix produces.  A real non-symmetric matrix therefore yields
an exactly real spectrum whenever its eigenvalues are real, while a
genuinely complex matrix shows its round-off imaginaries honestly.

Every solve follows one plan (``_plan``), made before any of its matrices
is built: each block's path, and the predicted peak of the solve, LAPACK's
copies and workspace included, the one thing that is refused against
``lattice.MEMORY_CAP``.

The third path is the contracted solve (``_contracted_pairs``) of a 2D
Hamiltonian given by its Kronecker-sum factors (see ``OperatorMatrix``), for
all of a problem's blocks or none, as the plan's path rule (``_rungs``)
decides, under which fewer than two reachable rungs means dense.  Each
block is solved in a basis of 1D eigenstates of its long axis,
one set per site of its short axis (sequential diagonalization-truncation,
Bacic & Light, Annu. Rev. Phys. Chem. 40, 469 (1989), on the Fourier-grid
DVR of Colbert & Miller, J. Chem. Phys. 96, 1982 (1992)).  The basis grows
on a fixed ladder until the lowest levels stop moving; the dense block is
never assembled, and the residuals are the full block's, formed
matrix-free.  Every rung takes the same step, by bisection and Sturm counts
on the blocks' tridiagonals joined into one, and the vectors are formed
once, at the last rung, by inverse iteration (Demmel, Applied
Numerical Linear Algebra, SIAM 1997, sec. 5.3; see ``_contracted_pairs``).
The levels agree with the dense path to within 1e-12 relative, while the
vectors of the upper levels carry residuals far above the dense path's 1e-16
of ||H||_F: convergence in the basis size is algebraic, so they grow with
``n_states`` and have no bound (figures at ``solve.solve``).  Should the
ladder end unconverged, the blocks are planned again as dense, assembled
once and decomposed in full, like every block on the dense paths.  Every
LAPACK routine that the contracted solve calls directly goes through
``_lapack``, the one place that reads its status.

The general path has one real form: the builder gives a PT-symmetric
problem as the real matrix R similar to its complex H, a block tagged PT
(see ``hamiltonian._planned``).  R goes through the real general
solver like any real block, so an unbroken-PT level comes out with an
imaginary part of exactly 0 and a broken-PT pair as an exact conjugate
pair; ``_eigenpairs`` casts its levels to complex, and its vectors are
mapped back onto the grid as H's (``_unfold``).  A bare complex matrix goes
to the complex solver: the symmetry is read from the block's tag, never
from its entries.

A Hamiltonian may also arrive as mirror-parity blocks (see
``hamiltonian._planned``): a problem whose grid functions equal
their mirror image bitwise along an axis splits H exactly into an even and
an odd block of about half the size.  ``diagonalize_blocks`` sends each
block through the same solver choice, merges the lowest levels, and scatters
the vectors back onto the full grid one axis at a time (a folded axis runs
from the box edge inward in 1D and 2D alike, see ``operators.mirror_sites``),
so the Spectrum has the same layout, normalization and residual definition
as one dense decomposition; ``Spectrum.mirror_axes`` records which axes were
folded.  A single whole matrix is the one-block case.

On a 1D grid each level takes the parity of the block that owns it: "s"
from the even block, "a" from the odd one, "none" from a whole-grid or PT
block.  ``Spectrum.labels`` is derived from it (0s, 0a, 1s, ... or the
state index), so a problem with no mirror symmetry never gets a parity
label.  ``classify_parity`` is the overlap oracle that reads parity off the
eigenvectors instead.

``block_eigenvalues`` runs the same dispatch without eigenvectors and
merges the blocks' levels in the same order, for callers that read the
eigenvalues alone, such as convergence scans; ``eigenvalues`` is its
one-block case.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import count
from typing import Iterable

import numpy as np

from . import lattice
from .lattice import Lattice1D, Lattice2D, _integers
from .operators import EVEN, ODD, PT, OperatorMatrix, mirror_unfold

#: Entries per pass (2 MiB of float64) when vectors are normalized, residuals
#: formed, vectors unfolded or phases fixed: each pass works on a slice of
#: whole columns, so no temporary is the size of a large eigenvector matrix,
#: while a matrix that fits (every 1D grid up to 511 points) is one pass over
#: contiguous memory, which strided slices are not.
_CHUNK_ENTRIES = 2**18

#: The size of a 2D problem's largest block from which the lowest levels of
#: all its blocks may come from the contracted solve rather than the full
#: decomposition (?syevd), as the plan (``_rungs``) decides: 1485
#: sites and up on 55^2 Henon-Heiles; below it the full decomposition takes
#: at most about 0.25 s on two cores.  No block is decomposed in part:
#: LAPACK's subset drivers (?syevr, ?syevx) lose relative digits on strongly
#: graded blocks (1.1e-10 on nh3, inverse-mass anticommutator, N = 2049).
_CONTRACTION_MIN_SIZE = 1024

#: Basis functions per site of a block's short axis on each rung of the
#: contracted solve (``_contracted_pairs``).  Convergence in this number is
#: algebraic, so a stop rule on residuals at the dense path's level (~1e-16)
#: is never met: the upper states of 60 on 81^2 Henon-Heiles plateau near
#: 1e-11 even at 56, while their eigenvalues agree with the dense path to
#: 1e-14 from 24 on.
_CONTRACTION_LADDER = (16, 20, 24, 28, 32)

#: The contracted solve stops when no kept level moves by more than this many
#: eps * ||H_c||_2 between two rungs.  Past convergence the bisected levels
#: of 60 states on 81^2 Henon-Heiles still move by 3.2e-14 to 7.5e-14
#: absolute from rung to rung (1.1 to 2.3 eps * ||H_c||_2, folded or not), a
#: floor well below this.
_CONTRACTION_TOL = 64


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
    parity: tuple[str, ...] | None = None         # "s" | "a" | "none" per 1D state
    mirror_axes: tuple[str, ...] = ()             # axes folded by mirror symmetry

    @property
    def n_states(self) -> int:
        return len(self.eigenvalues)

    @property
    def weight(self) -> float:
        return self.grid.cell

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """One label per state: "0s", "0a", "1s", ... for a state of definite
        parity, each class counted upward in energy order, else its index."""
        counters = {"s": count(), "a": count()}
        return tuple(str(n) if p == "none" else f"{next(counters[p])}{p}"
                     for n, p in enumerate(self.parity or ("none",) * self.n_states))


@dataclass(frozen=True)
class _Block:
    """A block as a plan reads it: sites per axis (x first), dtype, parity,
    whether it comes as factors, and path: "eigh", "contracted", "eig" or
    "pt" (a PT real form)."""

    sites: tuple[int, ...]
    dtype: np.dtype
    parity: tuple[int, ...]
    factored: bool
    path: str

    @property
    def dim(self) -> int:
        return math.prod(self.sites)


@dataclass(frozen=True)
class _Plan:
    """One solve, decided before any of its matrices is built: its blocks,
    the levels asked for (None: all), its rungs and its peak in bytes."""

    blocks: tuple[_Block, ...]
    n_states: int | None
    rungs: tuple[tuple[int, tuple[int, ...]], ...]
    peak: int


def _plan(blocks: list[_Block], size: int, n_states: int | None, vectors: bool | None = True,
          kinetic: int = 0, ladder: bool = True) -> _Plan:
    """The plan of solving ``blocks``, every block of a problem on ``size``
    sites, for its lowest ``n_states`` pairs (all when None), its levels
    alone (``vectors`` False) or nothing (None), and of their build with
    ``kinetic`` (``_peak``); ``ladder`` off rules the contracted solve out.
    The one memory guard refuses it when its peak is over the cap."""
    if n_states is not None:
        (n_states,) = _integers([n_states], "n_states")
        if not 1 <= n_states <= size:
            raise ValueError(f"n_states must be in 1..{size}, got {n_states}")
    rungs = _rungs(blocks, n_states) if ladder else ()
    if rungs:
        blocks = [replace(block, path="contracted") for block in blocks]
    peak = _peak(blocks, size, n_states or size, vectors, rungs, kinetic)
    lattice._guard(peak, f"a {'build' if vectors is None else 'solve'} on {size} sites")
    return _Plan(tuple(blocks), n_states, rungs, peak)


def _rungs(blocks: list[_Block], n_states: int | None) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The rungs that the contracted solve climbs for all of a problem's
    blocks, each as (n_c, the basis functions per short-axis site that each
    block keeps, min(n_c, long sites)), or () for the dense path: the path
    rule, read off the blocks' shapes before any block is built.
    ``blocks`` are every block of the problem, so every block takes the
    ladder or none does.  It takes a problem of which only the lowest
    ``n_states`` levels are asked for, fewer than any block holds, whose
    blocks are all Hermitian and given by real factors, and whose largest
    block has at least ``_CONTRACTION_MIN_SIZE`` sites.  A rung is
    reachable when every block holds ``n_states`` levels on it, kept times
    short sites, since a very thin block's lower rungs cannot converge.
    The reachable rungs are the top of ``_CONTRACTION_LADDER``, and fewer
    than two reachable rungs means dense: a rung stops the ladder only
    against the one before it."""
    if n_states is None or not all(b.factored and b.path == "eigh" and b.dtype.kind != "c"
                                   and n_states < b.dim for b in blocks):
        return ()
    shapes = [sorted(b.sites) for b in blocks]   # (short, long)
    rungs = [(n_c, tuple(min(n_c, n_l) for _, n_l in shapes)) for n_c in _CONTRACTION_LADDER]
    ladder = tuple((n_c, kept) for n_c, kept in rungs
                   if min(k * n_s for k, (n_s, _) in zip(kept, shapes)) >= n_states)
    if len(ladder) < 2 or max(n_s * n_l for n_s, n_l in shapes) < _CONTRACTION_MIN_SIZE:
        return ()
    return ladder


#: Matrices of a dense block's size that decomposing it holds at once, for
#: its levels and its pairs: the block, LAPACK's copy and workspace inside
#: numpy (two for ?syevd's vectors) and the output.  ?geev's pairs count as
#: complex: a real block's vectors pass a complex buffer, 7 real matrices.
_MATRICES = {"eigh": (2, 5), "eig": (2, 4), "pt": (2, 4)}


def _peak(blocks: list[_Block], size: int, k: int, vectors: bool | None,
          rungs: tuple, kinetic: int) -> int:
    """Predicted peak bytes of building the blocks, ``kinetic`` real N x N
    kinetic matrices at once, the last beside the dense blocks made from
    it, then of solving their lowest ``k`` pairs block by block, beside the
    blocks to come and the vectors kept, and of the vectors on the grid
    with three chunks of them.  A contracted solve holds its line bases and
    its top rung or its vectors and their residuals."""
    T = 8 * size * size * any(not b.factored for b in blocks)
    held = [0 if b.factored else b.dim**2 * b.dtype.itemsize for b in blocks]
    peak, kept = max(kinetic * T, bool(kinetic) * (T + sum(held))), 0
    if rungs:
        shapes = [sorted(b.sites) for b in blocks]
        bases = sum(8 * n_s * n_l * min(n_l, _CONTRACTION_LADDER[-1]) for n_s, n_l in shapes)
        top = [k_c * n_s for k_c, (n_s, _) in zip(rungs[-1][1], shapes)]
        return max(peak, bases + 8 * max(sum(n * n for n in top) + 2 * sum(top) * k, 6 * size * k))
    for j, b in enumerate(blocks if vectors is not None else ()):
        n, s = b.dim, 16 if vectors and b.path != "eigh" else b.dtype.itemsize
        peak = max(peak, sum(held[j + 1:]) + kept + _MATRICES[b.path][vectors] * n * n * s)
        kept += vectors * n * (n if b.path == "eigh" else min(k, n)) * s   # eigh's are a view
    out = bool(vectors) * (size * k + 3 * min(_CHUNK_ENTRIES, size * k))
    peak = max(peak, kept + out * (8 if all(b.path == "eigh" for b in blocks) else 16))
    # BLAS's packed panels: 6 KiB a row of the largest matrix multiplied, real
    rows = max([b.dim for b in blocks] + [size] * (kinetic == 3))
    return peak + 768 * rows * max(b.dtype.itemsize for b in blocks)


def _block_of(op: OperatorMatrix) -> _Block:
    """A built block as a plan reads it."""
    factors = op.factors or (op.matrix,)
    path = "eigh" if op.hermitian_hint else "pt" if PT in op.parity else "eig"
    return _Block(tuple(f.shape[0] for f in factors[:2]), np.result_type(*factors), op.parity,
                  op.factors is not None, path)


def diagonalize(op: OperatorMatrix, grid: Lattice1D | Lattice2D,
                n_states: int | None = None) -> Spectrum:
    """Eigendecomposition of a built Hamiltonian; full spectrum by default.

    Hermitian-path eigenvalues come back as a real array, so their imaginary
    parts are identically zero; the general path returns complex eigenvalues
    sorted by (Re, Im).  With ``n_states``, a large Hermitian 2D operator
    given by its factors may take the contracted solve, which is much
    cheaper for big 2D grids, as the plan (``_plan``) decides; anything
    else is decomposed in full and truncated.
    """
    if op.dim != grid.size:
        raise ValueError("operator dimension does not match the grid")
    return diagonalize_blocks([op], grid, n_states)


def diagonalize_blocks(blocks: Iterable[OperatorMatrix], grid: Lattice1D | Lattice2D,
                       n_states: int | None = None) -> Spectrum:
    """Eigendecomposition of a Hamiltonian given as mirror-parity blocks,
    every block of the problem: the blocks are taken and planned
    (``_plan``), and each gives its lowest min(n_states, size) pairs, from
    the contracted solve of all of them, or else one dense pass that drops
    each block as it is solved, so that its matrix is freed before the next
    one is solved; a ladder that ends unconverged is planned again as dense.
    The lowest ``n_states`` across blocks are kept in (Re, Im) order, their
    vectors scattered onto the grid and the residuals divided by
    sqrt(sum ||H_b||_F^2) = ||H||_F, as one decomposition of H would give."""
    blocks = list(blocks)
    plan = _plan([_block_of(b) for b in blocks], grid.size, n_states)
    n_states, parities = plan.n_states, [block.parity for block in plan.blocks]
    folded = {axis for parity in parities for axis, p in zip("xy", parity) if p in (EVEN, ODD)}
    parts = _contracted_pairs(blocks, n_states, grid.cell, plan.rungs) if plan.rungs else None
    if parts is None:   # dense or not converged: one block at a time, freed once solved
        if plan.rungs:
            plan = _plan([replace(b, path="eigh") for b in plan.blocks], grid.size, n_states,
                         ladder=False)
        parts = [_dense_pairs(blocks.pop(0), b.path, n_states, grid.cell) for b in plan.blocks]

    values, vectors, residuals, norms_sq = (list(column) for column in zip(*parts))
    del parts
    w, order = _merged(values)
    order = order[:n_states]
    owner = np.repeat(np.arange(len(values)), [len(part) for part in values])[order]
    w, residuals = w[order], np.concatenate(residuals)[order]
    # complex with the levels: a PT block's real vectors are complex on the grid
    out = np.empty((grid.size, len(order)), dtype=np.result_type(w, *vectors))
    for b, parity in enumerate(parities):
        columns = np.flatnonzero(owner == b)   # a block's picks are its lowest pairs
        for c in _column_chunks(grid.size, len(columns)):
            out[:, columns[c]] = _unfold(vectors[b][:, c], parity, grid)
        vectors[b] = None   # scattered: release the block's vectors
    norm_sq = sum(norms_sq)
    if norm_sq:   # H = 0 leaves every pair exact, with residual 0
        residuals = residuals / np.sqrt(norm_sq)
    # a 1D level has its block's parity: s, a, or none for the whole grid and PT
    parity = None if isinstance(grid, Lattice2D) else tuple(
        {(EVEN,): "s", (ODD,): "a"}.get(parities[b], "none") for b in owner)
    return Spectrum(eigenvalues=w, eigenvectors=out, residuals=residuals,
                    hermitian_path=all(b.path in ("eigh", "contracted") for b in plan.blocks),
                    grid=grid, parity=parity, mirror_axes=tuple(a for a in "xy" if a in folded))


@contextlib.contextmanager
def _solver_errors():
    """A LAPACK failure to converge, and overflow in numpy arithmetic, as
    SolverError: LAPACK scales an H with entries near the float limit, but
    H v and ||H||_F are formed unscaled."""
    with np.errstate(over="raise", invalid="raise"):
        try:
            yield
        except np.linalg.LinAlgError as err:
            raise SolverError(f"eigensolver did not converge: {err}") from None
        except FloatingPointError:
            raise SolverError("Hamiltonian too large: H v leaves float range") from None


@_solver_errors()
def _dense_pairs(block: OperatorMatrix, path: str, n_states: int | None, cell: float):
    """(w, v, r, ||H||_F^2) of one block from its dense matrix on its dense
    ``path``: the lowest min(n_states, size) eigenpairs, the vectors
    normalized on the grid, and the residual norms ||H v - w v||_2."""
    w, v = _eigenpairs(block, path, n_states)
    H = block.matrix
    _normalize(v, cell)
    # real vectors belong to exactly real levels, also a PT block's complex ones
    levels = w if np.iscomplexobj(v) else w.real
    # H v as one product (BLAS rounds a product of a column slice
    # differently), then H v - w v and its norms chunk by chunk in place
    Hv, r = H @ v, np.empty(len(w))
    for c in _column_chunks(*v.shape):
        Hv[:, c] -= v[:, c] * levels[c]
        r[c] = np.linalg.norm(Hv[:, c], axis=0)
    return w, v, r, np.linalg.norm(H) ** 2


def _normalize(v: np.ndarray, cell: float) -> None:
    """Scale the columns of v in place to cell * sum |v_i|^2 = 1."""
    for c in _column_chunks(*v.shape):
        v[:, c] /= np.sqrt(cell * np.sum(np.abs(v[:, c]) ** 2, axis=0))


@_solver_errors()
def _contracted_pairs(blocks: list[OperatorMatrix], n_states: int, cell: float,
                      ladder: tuple[tuple[int, tuple[int, ...]], ...]):
    """(w, v, r, ||H||_F^2) per block, as ``_dense_pairs`` gives them, from
    a sequential diagonalization-truncation of each block's factors; None
    when the ladder ends unconverged.  ``blocks`` are all the blocks of one
    problem, so the ladder's levels are the problem's, and ``ladder`` is
    the rungs of their plan (``_rungs``, which states the path rule).

    Each distinct line is decomposed once per solve (``_line_basis``): a
    line of one block that another block shares, the same long-axis
    kinetic matrix and bitwise the same potential values, takes the
    decomposition already made.  Along a folded short axis the odd block's
    lines are the even block's first lines (``operators.mirror_sites``
    numbers both from the box edge inward), so a Henon-Heiles solve
    decomposes 41 lines on 81^2, not 81.  The record of decompositions
    lives in this call alone.

    The blocks climb the planned rungs in lockstep, and every rung takes
    the same step.  Each block's contracted matrix, a leading
    submatrix of the next rung's, is built from the 1D bases and reduced to
    tridiagonal form once, in place, and the blocks' tridiagonals are
    joined into one (``_joined``), whose levels are the rung's merged
    across the blocks.  Three bisections by index (``_bisect``) give its
    lowest and top levels, the larger magnitude of which is ||H_c||_2 and
    sets the stop tolerance, ``_CONTRACTION_TOL`` eps ||H_c||_2, and its
    own ``n_states``-th level.  The contracted spaces nest, so these Ritz
    values only fall: a rung with ``n_states`` levels at or below the last
    rung's ``n_states``-th less the tolerance cannot stop the ladder, which
    one Sturm count (``_counts``) shows.  Any other rung bisects its levels
    at or below its own ``n_states``-th plus the tolerance, at least
    ``n_states`` of them, in one call, and stops the ladder when the last
    rung holds j + 1 levels at or below its j-th plus the tolerance for
    every j (``_settled``, up to ``n_states`` counts): no level moved by
    more.  One inverse iteration on that rung's joined tridiagonal then
    gives the vectors of the levels that the merge keeps, and each block
    takes its own back through its reduction (``_kept_vectors``).  On 81^2
    Henon-Heiles at 60 states (L = 19) the ladder visits rungs 16 to 28 and
    calls ?stebz 79 times: 12 bisections by index, 3 counts that rule out
    rung 20 or let 24 and 28 through, 2 bisections of the 60 lowest levels,
    on rungs 24 and 28, and 2 + 60 counts of the stop rule.

    Every BLAS and LAPACK call of the ladder, from the line bases to the
    bisections and counts, goes to scipy's OpenBLAS.  numpy bundles a
    second copy with its own thread pool, and alternating between the two
    pools in the ladder kept them competing for the cores: an 81^2
    Henon-Heiles solve took 0.95 s that way, against 0.62 to 0.71 s on
    scipy's alone (2 cores).  After the ladder, the vectors are formed by
    numpy's matmul, and the residuals (``_kronecker_residuals``) take one
    numpy product beside scipy's.
    """
    decomposed = {}   # one ?syevd per distinct line of this solve
    lines = [_line_basis(*block.factors, decomposed) for block in blocks]
    eps = np.finfo(float).eps
    last = None   # the last rung's joined (d, e) and its n_states-th level
    for _, kept in ladder:
        rungs = None   # release the last rung's reductions before the next ones
        rungs = [_tridiagonal(_contracted_matrix(*line[:3], k)) for line, k in zip(lines, kept)]
        d, e = _joined([rung[1:3] for rung in rungs])
        low, top, nth = (_bisect(d, e, index=(i, i))[0][0] for i in (1, d.size, n_states))
        tol = _CONTRACTION_TOL * eps * max(abs(low), abs(top))   # ||H_c||_2
        # The levels only fall, so only with fewer than n_states at or below
        # the last rung's n_states-th less tol can this rung stop the ladder.
        if last is not None and _counts(d, e, last[2] - tol) < n_states:
            # n_states levels lie at or below nth; tol covers bisection's error
            levels = _bisect(d, e, upto=nth + tol)
            merged = np.sort(levels[0])[:n_states]
            if _settled(*last[:2], merged, tol):
                break
        last = d, e, nth
    else:
        return None
    vectors = _kept_vectors(rungs, d, e, *levels, merged[-1])
    del rungs   # the reductions, once the kept vectors are taken back through them
    pairs = []
    for block, (_, _, U, x_short), k, (w, c) in zip(blocks, lines, kept, vectors):
        n_s, n_l, _ = U.shape
        c = c.reshape(k, n_s, w.size).transpose(1, 0, 2)   # [short, k, state]
        psi = np.matmul(U[:, :, :k], c)   # psi[i] = U_i c_i, as [short, long, state]
        # explicit sizes, as a block may keep no level
        psi = (psi.transpose(1, 0, 2) if x_short else psi).reshape(n_s * n_l, w.size)
        tx, ty, v = block.factors
        _normalize(psi, cell)
        pairs.append((w, psi, _kronecker_residuals(tx, ty, v, w, psi), _kronecker_norm_sq(tx, ty, v)))
    return pairs


def _line_basis(tx: np.ndarray, ty: np.ndarray, v: np.ndarray, decomposed: dict):
    """(T_short, E, U, x_short) of the block kron(I, tx) + kron(ty, I) +
    diag(v): for each site i of the shorter axis, E[i] and U[i] are the
    levels and eigenvectors of T_long + diag(v at site i), the lowest of
    them up to the top of the ladder; x_short says whether x is that axis.

    Lines are shared between the blocks of one solve: ``decomposed`` maps
    each line already decomposed, keyed by its T_long array and the bytes
    of its potential values, to the rows of E and U that hold it, and a
    line found there is copied rather than decomposed again.  The caller's
    blocks hold every T_long for the whole solve, so its id names it."""
    _require_finite(tx, ty, v)
    x_short = tx.shape[0] <= ty.shape[0]
    t_short, t_long, v_lines = (tx, ty, v.T) if x_short else (ty, tx, v)
    n_s, n_l = v_lines.shape
    top = min(_CONTRACTION_LADDER[-1], n_l)
    E, U = np.empty((n_s, top)), np.empty((n_s, n_l, top))
    for i in range(n_s):
        key = (id(t_long), v_lines[i].tobytes())
        if key in decomposed:
            E[i], U[i] = decomposed[key]
            continue
        line = t_long + np.diag(v_lines[i])
        w, z = _lapack("syevd", line.T, lower=1, overwrite_a=1)   # line.T is line
        E[i], U[i] = w[:top], z[:, :top]
        decomposed[key] = E[i], U[i]
    return t_short, E, U, x_short


def _contracted_matrix(t_short: np.ndarray, E: np.ndarray, U: np.ndarray,
                       kept: int) -> np.ndarray:
    """H in the basis |i> (x) U_i[:, k], k < kept, numbered k-major so that
    a smaller ``kept`` gives a leading submatrix:
    H_c[(k, i), (l, j)] = T_short[i, j] (U_i^T U_j)[k, l] + delta_ij delta_kl E_i[k]
    (Bacic & Light, Annu. Rev. Phys. Chem. 40, 469 (1989)).  Returned in
    Fortran order with its lower triangle set, as ``_tridiagonal`` reads it."""
    from scipy.linalg import blas
    n_s, n_l, _ = U.shape
    n = kept * n_s
    basis = U[:, :, :kept].transpose(1, 2, 0).reshape(n_l, n)   # column k n_s + i
    H_c = blas.dsyrk(1.0, basis.T, c=np.zeros((n, n), order="F"), lower=1, overwrite_c=1)
    rows = H_c.T   # the same memory in C order, so its reshape is a view
    rows.reshape(kept, n_s, kept, n_s)[...] *= t_short[None, :, None, :]
    rows[np.diag_indices(n)] += E[:, :kept].T.ravel()
    return H_c


def _tridiagonal(H: np.ndarray):
    """The reduction (Householder vectors q, diagonal d, off-diagonal e,
    tau) of a symmetric H given by its lower triangle in Fortran order,
    which is overwritten: ?sytrd reduces H to tridiagonal form T = Q^T H Q
    in H's own memory.  T's levels come from ``_bisect`` and the vectors of
    H from ``_kept_vectors``, with no second reduction."""
    work = _lapack("sytrd_lwork", H.shape[0], lower=1)
    return _lapack("sytrd", H, lower=1, lwork=int(work), overwrite_a=1)


def _joined(tridiagonals: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """The tridiagonal (d, e) with the given tridiagonals (d, e) as its
    diagonal blocks, in order, and a zero coupling between each two: its
    levels are theirs, merged, and ?stebz and ?stein split it at each zero
    of e, so between the blocks and wherever a block splits itself."""
    d = np.concatenate([d for d, _ in tridiagonals])
    e = np.concatenate([np.append(e, 0.0) for _, e in tridiagonals])[:-1]
    return d, e


def _bisect(d: np.ndarray, e: np.ndarray, index: tuple[int, int] | None = None,
            upto: float | None = None):
    """(levels, iblock, isplit) of the tridiagonal T with diagonal d and
    off-diagonal e by bisection (?stebz, Demmel, Applied Numerical Linear
    Algebra, SIAM 1997, sec. 5.3): the levels of 1-based indices
    index[0]..index[1], or else those at or below ``upto``, to ?stebz's
    default absolute accuracy.  They come grouped by the blocks into which T
    splits, ascending within each, and ``iblock`` and ``isplit`` say which
    block holds each, as ?stein reads them.  By index, ?stebz brackets the
    levels asked for with Sturm counts of all of T and then bisects each
    block inside the bracket, so the n-th level of a joined tridiagonal
    (``_joined``) is the n-th of its blocks' levels merged, one member of
    a multiple level included."""
    il, iu = index or (0, 0)
    m, w, iblock, isplit = _lapack("stebz", d, e, 2 if index else 1, -np.inf,
                                   0.0 if index else upto, il, iu, 0.0, "B")
    return w[:m], iblock[:m], isplit


def _counts(d: np.ndarray, e: np.ndarray, sigma: float) -> int:
    """The number of levels at or below sigma of the tridiagonal (d, e), by
    Sturm counts: ?stebz over (-inf, sigma] with an infinite absolute
    tolerance, which takes every interval as converged and bisects none,
    returns the count alone."""
    return _lapack("stebz", d, e, 1, -np.inf, sigma, 0, 0, np.inf, "B")[0]


def _settled(d: np.ndarray, e: np.ndarray, merged: np.ndarray, tol: float) -> bool:
    """Whether no level of ``merged`` lies more than ``tol`` below the same
    level of the last rung, whose joined tridiagonal is (d, e): the levels
    only fall, so the last rung must hold j + 1 levels at or below
    merged[j] + tol for every j.  The top levels converge last, so they are
    counted first."""
    return all(_counts(d, e, merged[j] + tol) > j for j in reversed(range(merged.size)))


def _kept_vectors(rungs: list[tuple], d: np.ndarray, e: np.ndarray, w: np.ndarray,
                  iblock: np.ndarray, isplit: np.ndarray,
                  cut: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per reduction of ``rungs``, as ``_tridiagonal`` made them of the
    blocks' H, the eigenpairs of that H whose levels lie at or below
    ``cut``, in ascending order.  (d, e) joins the reductions' tridiagonals
    (``_joined``) and (w, iblock, isplit) are its levels as ``_bisect``
    gave them.  One inverse iteration (?stein) forms the vectors of the
    joined T for the levels at or below the cut alone; each block takes its
    own rows and levels of them and takes them back through its Householder
    reflectors below q's subdiagonal (?ormtr's lower case, which is ?ormqr
    on rows 1.. of q and of the vectors), by LAPACK's blocked code and
    reading q in place.  The vectors are formed once, after the ladder
    stops, for the levels that the merge across blocks keeps."""
    keep = w <= cut
    w, blocks = w[keep], np.zeros_like(isplit)
    blocks[:w.size] = iblock[keep]   # ?stein reads the first w.size of n entries
    z = _lapack("stein", d, e, w, blocks, isplit)
    # a level belongs to the block whose rows hold the last row of its split
    ends = np.cumsum([q.shape[0] for q, _, _, _ in rungs])
    owner = np.searchsorted(ends, isplit[blocks[:w.size] - 1])
    order = np.argsort(w, kind="stable")   # from T's splits to ascending order
    w, z, owner = w[order], z[:, order], owner[order]
    pairs = []
    for b, (q, _, _, tau) in enumerate(rungs):
        n, mine = q.shape[0], owner == b
        c = z[ends[b] - n:ends[b], mine]   # a copy: the block's rows and levels
        # ?ormqr's A is q[1:, :-1], which is not contiguous, so f2py would
        # copy all of it.  The Fortran-contiguous (n, n - 1) view of q's
        # memory from q[1, 0] holds the same columns at q's leading dimension
        # n; its last row is q[0] of the next column, and ?ormqr never reads
        # it, as the reflectors span the n - 1 rows of c[1:] only.
        reflectors = q.ravel(order="F")[1:1 + n * (n - 1)].reshape(n, n - 1, order="F")
        # The workspace comes from a query: the blocked path needs count * nb
        # + 4160 entries since LAPACK 3.7 (its T factor lives in the
        # workspace), and with less, such as 64 * count, ?ormqr silently runs
        # the unblocked ?orm2r, five times slower on a 1148-row rung.
        _, work = _lapack("ormqr", "L", "N", reflectors, tau, c[1:], lwork=-1)
        c[1:], _ = _lapack("ormqr", "L", "N", reflectors, tau, c[1:], lwork=int(work[0]))
        pairs.append((w[mine], c))
    return pairs


def _lapack(name: str, *args, **kwargs):
    """scipy's LAPACK routine d<name> on the arguments, its outputs without
    the trailing status: one output alone, several as a tuple.  A nonzero
    status raises LinAlgError naming ?<name>, which ``_solver_errors``
    words as a SolverError.  scipy is imported here, by the contracted
    solve alone, and the routine looked up on each call."""
    from scipy.linalg import lapack
    *out, info = getattr(lapack, "d" + name)(*args, **kwargs)
    if info:
        raise np.linalg.LinAlgError(f"?{name} info {info}")
    return out[0] if len(out) == 1 else tuple(out)


def _kronecker_residuals(tx: np.ndarray, ty: np.ndarray, v: np.ndarray,
                         w: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """||H psi - w psi||_2 per column for H = kron(I, tx) + kron(ty, I) +
    diag(v), matrix-free: on psi as a [y, x] array, H psi = ty psi + psi
    tx^T + v psi."""
    from scipy.linalg import blas
    ny, nx = v.shape
    psi = vectors.reshape(ny, nx, -1)
    # ty psi as (psi^T ty^T)^T, so that every operand is already in Fortran order
    r = blas.dgemm(1.0, psi.reshape(ny, -1).T, ty.T).T.reshape(psi.shape)
    r += np.matmul(tx, psi)
    r += (v[:, :, None] - w) * psi
    return np.linalg.norm(r.reshape(ny * nx, w.size), axis=0)


def _kronecker_norm_sq(tx: np.ndarray, ty: np.ndarray, v: np.ndarray) -> float:
    """||kron(I, tx) + kron(ty, I) + diag(v)||_F^2 in closed form: the
    off-diagonal entries of tx repeat once per y site and those of ty once
    per x site, and the diagonal is tx_xx + ty_yy + v_yx."""
    ny, nx = v.shape
    dx, dy = np.diag(tx), np.diag(ty)
    off = (ny * np.linalg.norm(tx - np.diag(dx)) ** 2
           + nx * np.linalg.norm(ty - np.diag(dy)) ** 2)
    return off + np.linalg.norm(dy[:, None] + dx[None, :] + v) ** 2


def eigenvalues(op: OperatorMatrix) -> np.ndarray:
    """All eigenvalues of a built Hamiltonian, without eigenvectors, in the
    order and dtype of ``diagonalize``: ascending and real on the Hermitian
    hint, otherwise sorted by (Re, Im)."""
    return block_eigenvalues([op])


def block_eigenvalues(blocks: Iterable[OperatorMatrix]) -> np.ndarray:
    """All eigenvalues of a Hamiltonian given as mirror-parity blocks, every
    block of the problem, without eigenvectors, merged in the order and
    dtype of ``diagonalize_blocks``: the blocks are taken and planned
    (``_plan``), and each is dropped as it is solved."""
    blocks = list(blocks)
    plan = _plan([_block_of(b) for b in blocks], sum(b.dim for b in blocks), None, vectors=False)
    w, order = _merged([_eigenpairs(blocks.pop(0), b.path, vectors=False)[0] for b in plan.blocks])
    return w[order]


def _merged(values: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The blocks' eigenvalues concatenated, and the permutation that sorts
    them by (Re, Im)."""
    w = np.concatenate(values)
    return w, np.lexsort((w.imag, w.real))


@_solver_errors()
def _eigenpairs(block: OperatorMatrix, path: str, count: int | None = None,
                vectors: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """The ``count`` (or all) lowest eigenpairs of a block's dense matrix in
    (Re, Im) order, the vectors as columns of unit 2-norm, or None without
    ``vectors``: the symmetric solver on the "eigh" path, the general one
    otherwise.  A PT block's levels are H's, so complex."""
    H = block.matrix
    _require_finite(H)
    if path == "eigh":
        w, v = np.linalg.eigh(H) if vectors else (np.linalg.eigvalsh(H), None)
        order = slice(count)
    else:
        w, v = np.linalg.eig(H) if vectors else (np.linalg.eigvals(H), None)
        order = np.lexsort((w.imag, w.real))[:count]
    if path == "pt":
        w = w.astype(complex)
    return w[order], None if v is None else v[:, order]


def _require_finite(*arrays: np.ndarray) -> None:
    """Raise SolverError unless every entry of every array is finite."""
    for H in arrays:
        if not np.all(np.isfinite(H.real)) or (np.iscomplexobj(H) and not np.all(np.isfinite(H.imag))):
            raise SolverError("Hamiltonian contains non-finite entries")


def _unfold(v: np.ndarray, parity: tuple[int, ...], grid: Lattice1D | Lattice2D) -> np.ndarray:
    """Block eigenvector columns as full-grid columns (x fastest)."""
    if PT in parity:   # psi = Q_e u_e + i Q_o u_o over the flattened grid
        M = grid.size // 2
        return (mirror_unfold(v[:M + 1], EVEN, axis=0)
                + 1j * mirror_unfold(v[M + 1:], ODD, axis=0))
    if not any(parity):
        return v
    # the block's sites per axis, reversed to the [y, x] order of x-fastest
    # arrays; no -1, as a block may give 0 columns
    shape = [axis.N if not p else axis.M + (p == EVEN) for axis, p in zip(grid.axes, parity)]
    c = v.reshape(shape[::-1] + [v.shape[1]])
    for array_axis, p in zip(reversed(range(len(shape))), parity):
        c = mirror_unfold(c, p, axis=array_axis)
    return c.reshape(grid.size, -1)


def _column_chunks(n_rows: int, n_columns: int) -> list[slice]:
    """Consecutive column slices covering 0..n_columns, each of at most
    ``_CHUNK_ENTRIES`` entries (at least one column) of n_rows."""
    width = max(1, _CHUNK_ENTRIES // max(n_rows, 1))
    return [slice(j, min(j + width, n_columns)) for j in range(0, n_columns, width)]


def phase_fix(spectrum: Spectrum) -> Spectrum:
    """Rotate each eigenvector so its largest-|.| component is real positive
    (for real vectors the first site of largest |.|; for complex vectors,
    the first component within 1e-12 of the largest).

    Deterministic and idempotent; keeps real arrays real (a sign flip) and
    leaves the input spectrum's array unchanged.
    """
    vectors = spectrum.eigenvectors.copy()
    _fix_phases(vectors)
    return replace(spectrum, eigenvectors=vectors)


def _fix_phases(v: np.ndarray) -> None:
    """``phase_fix`` in place on the columns of v, one column chunk at a time."""
    for c in _column_chunks(*v.shape):
        chunk = v[:, c]
        cols = np.arange(chunk.shape[1])
        if not np.iscomplexobj(v):
            # the first site of largest |v|, from the extremes without an |v| array:
            # +a and -a tie, and the first of their sites wins, as in argmax(|v|);
            # one transposed copy makes both scans contiguous
            sites = np.ascontiguousarray(chunk.T)
            top, bottom = sites.argmax(axis=1), sites.argmin(axis=1)
            high, low = sites[cols, top], -sites[cols, bottom]
            pivots = np.where(high == low, np.minimum(top, bottom), np.where(high > low, top, bottom))
            lead = chunk[pivots, cols]
            chunk *= np.where(lead != 0, np.sign(lead), 1.0)
            continue
        # A rotation moves |.| by round-off, which can reorder exact ties such as
        # mirror-image sites; the first near-maximal site is a stable pivot.
        size = np.abs(chunk)
        pivots = np.argmax(size >= (1.0 - 1e-12) * size.max(axis=0), axis=0)
        lead = chunk[pivots, cols]
        chunk *= np.exp(-1j * np.angle(lead))   # exactly 1 once the pivot is real positive
        chunk[pivots, cols] = np.abs(lead)      # and pinned exactly real here


def classify_parity(spectrum: Spectrum) -> Spectrum:
    """The overlap oracle for 1D parity: the spectrum with each state's parity
    read off its eigenvector rather than its block.

    The overlap o = a * sum_i psi(-x_i) psi(x_i)* is +1 for an even state and
    -1 for an odd one on a symmetric grid; a state in between is "none" when
    |o| <= 0.9.  Being a threshold, it can call a state of a problem with no
    symmetry s or a, which the blocks (``diagonalize_blocks``) never do.
    """
    if isinstance(spectrum.grid, Lattice2D):
        raise ValueError("parity classification is defined for 1D spectra only")
    v = spectrum.eigenvectors
    overlaps = spectrum.weight * np.sum(v[::-1, :] * np.conj(v), axis=0).real
    return replace(spectrum, parity=tuple("s" if o > 0.9 else "a" if o < -0.9 else "none"
                                          for o in overlaps))
