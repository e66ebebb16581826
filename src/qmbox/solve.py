"""One-call pipeline: build the Hamiltonian, diagonalize, fix the phases.

1D and 2D problems take the same path: the solve is planned once and H
arrives as exact mirror-parity blocks (``hamiltonian._planned``), which are
diagonalized block by block from that plan (``eig._solved``); the result
carries the plan (``Spectrum.plan``).  Each axis along which every sampled
grid function (the potential's real and imaginary parts, and in 1D a
position-dependent mass) is bitwise equal to its mirror image is folded
into an even and an odd half, so H is diagonalized as 1 or 2 blocks in 1D
and 1, 2 or 4 in 2D instead of one dense matrix, with the same spectrum.
The functions are tested as sampled, with no tolerance; an asymmetric
problem is the one-block case.  Every folded axis is numbered from the box
edge inward, in 1D as in 2D, and the same per-axis unfold maps each block's
vectors back onto the grid.  A 1D state's parity is that of the block that
owns it, so it is exact: the labels of a folded problem are the doublets
0s, 0a, 1s, ..., and those of an unfolded one, or of a 2D problem, are the
state indices.
"""

from __future__ import annotations

from .eig import Spectrum, _fix_phases, _solved
from .hamiltonian import ProblemDefinition, _planned


def solve(problem: ProblemDefinition, n_states: int | None = None) -> Spectrum:
    """Spectrum of a problem, phase-fixed, naming its folded mirror axes and,
    in 1D, each state's parity, and carrying the plan it was solved by
    (``Spectrum.plan``).  Each eigenvector column is written once, into the
    one output array.

    ``n_states`` keeps the lowest eigenpairs (the completeness machinery
    needs the full spectrum, so leave it None there).  The solve is planned
    once (``hamiltonian._planned``) and refused when its predicted peak is
    over the memory cap, before any block is built.  A large Hermitian 2D
    problem may take the contracted solve of ``eig`` for all its blocks, as
    the plan decides (``eig._rungs`` states the path rule): its levels agree
    with the dense decomposition to within 1e-12 relative (at most 8.8e-13
    on Henon-Heiles 45^2 to 81^2), while its residuals, 1e-16 on the dense
    path, grow with ``n_states`` and are not bounded (on Henon-Heiles 81^2,
    1.3e-11 at 60 states and 6.8e-9 at 100).  Where ``n_states`` cuts
    through a doublet split across the parity blocks by less than
    bisection's accuracy (the E doublets of Henon-Heiles, 2e-14 to 4e-13
    relative apart), round-off decides which member is returned, and with
    it the last state's vector and residual, so the member can change with
    the BLAS thread count (``OPENBLAS_NUM_THREADS``): on 61^2 at L = 19 and
    20 states, the last vector at 1 thread and at 2 is the other member.
    """
    plan, blocks = _planned(problem, n_states)
    spectrum = _solved(plan, list(blocks), problem.grid)
    _fix_phases(spectrum.eigenvectors)   # as phase_fix, on the fresh array in place
    return spectrum
