"""One-call pipeline: build the Hamiltonian, diagonalize, label the states.

1D and 2D problems take the same path: H arrives as exact mirror-parity
blocks (``hamiltonian_blocks``) and is diagonalized block by block
(``diagonalize_blocks``).  Each axis along which every sampled grid function
(the potential's real and imaginary parts, and in 1D a position-dependent
mass) is bitwise equal to its mirror image is folded into an even and an
odd half, so H is diagonalized as 1 or 2 blocks in 1D and 1, 2 or 4 in 2D
instead of one dense matrix, with the same spectrum.  The functions are
tested as sampled, with no tolerance; an asymmetric problem is the one-block
case.  1D spectra also get their s/a parity labels.
"""

from __future__ import annotations

from .eig import Spectrum, classify_parity, diagonalize_blocks, phase_fix
from .hamiltonian import ProblemDefinition, hamiltonian_blocks


def solve(problem: ProblemDefinition, n_states: int | None = None) -> Spectrum:
    """Spectrum of a problem, phase-fixed and naming its folded mirror axes;
    1D states also carry parity labels.

    ``n_states`` limits a Hermitian decomposition to the lowest eigenpairs
    (the completeness machinery needs the full spectrum, so leave it None
    there).
    """
    spectrum = phase_fix(diagonalize_blocks(hamiltonian_blocks(problem), problem.grid, n_states))
    return classify_parity(spectrum) if problem.dim == 1 else spectrum
