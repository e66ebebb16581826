"""One-call pipeline: build the Hamiltonian, diagonalize, label the states.

A 2D problem is solved in exact mirror-parity blocks: each axis along which
the sampled potential (real and imaginary parts) is bitwise equal to its
mirror image is folded into an even and an odd half, so H is diagonalized as
1, 2 or 4 blocks instead of one dense matrix, with the same spectrum.  The
potential is tested as given, with no tolerance; an asymmetric one is the
one-block case.
"""

from __future__ import annotations

from .eig import Spectrum, classify_parity, diagonalize, diagonalize_blocks, phase_fix
from .hamiltonian import ProblemDefinition, build_hamiltonian, hamiltonian_blocks
from .lattice import Lattice2D


def solve(problem: ProblemDefinition, n_states: int | None = None) -> Spectrum:
    """Spectrum of a problem, phase-fixed; 1D states carry parity labels and
    2D spectra name their folded mirror axes.

    ``n_states`` limits a Hermitian decomposition to the lowest eigenpairs
    (the completeness machinery needs the full spectrum, so leave it None
    there).
    """
    if isinstance(problem.grid, Lattice2D):
        return phase_fix(diagonalize_blocks(hamiltonian_blocks(problem), problem.grid, n_states))
    op = build_hamiltonian(problem)
    return classify_parity(phase_fix(diagonalize(op, problem.grid, n_states=n_states)))
