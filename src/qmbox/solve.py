"""One-call pipeline: build the Hamiltonian, diagonalize, label the states.

1D and 2D problems take the same path: H arrives as exact mirror-parity
blocks (``hamiltonian_blocks``) and is diagonalized block by block
(``diagonalize_blocks``).  Each axis along which every sampled grid function
(the potential's real and imaginary parts, and in 1D a position-dependent
mass) is bitwise equal to its mirror image is folded into an even and an
odd half, so H is diagonalized as 1 or 2 blocks in 1D and 1, 2 or 4 in 2D
instead of one dense matrix, with the same spectrum.  The functions are
tested as sampled, with no tolerance; an asymmetric problem is the one-block
case.  Every folded axis is numbered from the box edge inward, in 1D as in
2D, and the same per-axis unfold maps each block's vectors back onto the
grid.  1D spectra also get their s/a parity labels.
"""

from __future__ import annotations

from .eig import Spectrum, _fix_phases, classify_parity, diagonalize_blocks
from .hamiltonian import ProblemDefinition, hamiltonian_blocks


def solve(problem: ProblemDefinition, n_states: int | None = None) -> Spectrum:
    """Spectrum of a problem, phase-fixed and naming its folded mirror axes;
    1D states also carry parity labels.  Each eigenvector column is written
    once, into the one output array.

    ``n_states`` keeps the lowest eigenpairs (the completeness machinery
    needs the full spectrum, so leave it None there).  A Hermitian 2D block
    of at least 1024 sites then takes the contracted solve of ``eig``: its
    levels agree with the dense decomposition to about 4e-14 relative, and
    its residuals reach about 1e-9 rather than 1e-16.
    """
    spectrum = diagonalize_blocks(hamiltonian_blocks(problem), problem.grid, n_states)
    _fix_phases(spectrum.eigenvectors)   # as phase_fix, on the fresh array in place
    return classify_parity(spectrum) if problem.dim == 1 else spectrum
