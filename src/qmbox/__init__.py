"""qmbox: dense spectral matrix solver for low-dimensional bound states.

Hamiltonians on a symmetric periodic grid become moderately sized dense
matrices whose diagonalization delivers the low-lying spectrum and wave
functions to near machine precision, including position-dependent-mass,
non-Hermitian, and complex-potential forms in one and two dimensions.
"""

from .analysis import (ComparisonReport, ConvergenceScan, compare_to_reference,
                       completeness_error, convergence_scan, exponential_fit,
                       labeled_levels, shift_to_ground, to_wavenumbers)
from .eig import (Block, Plan, SolverError, Spectrum, classify_parity,
                  diagonalize, eigenvalues, phase_fix)
from .expr import Expression, ExpressionError, parse
from .hamiltonian import (ConstantMass, KineticOrdering, ProblemDefinition,
                          VonRoos, build_hamiltonian, build_kinetic,
                          ordering_from_name)
from .lattice import (GridMemoryError, Lattice1D, Lattice2D, make_lattice,
                      make_lattice_2d, points_to_m)
from .operators import (GridValueError, OperatorMatrix, exp_ialpha_p,
                        momentum_ip, momentum_squared_matrix)
from .problems import (BUILTIN_IDS, CONSTANTS, PhysicalConstants,
                       ReferenceSpectrum, builtin_problem,
                       constant_reduced_mass, morse_exact_level,
                       morse_potential, nh3_mass, nh3_potential,
                       reference_spectrum)
from .solve import solve

__version__ = "0.1.0"

# perfbench/workloads.py imports this name and tests isinstance against it;
# remove it together with that use.
MassSandwich = VonRoos

__all__ = [
    "BUILTIN_IDS", "Block", "CONSTANTS", "ComparisonReport", "ConstantMass",
    "ConvergenceScan", "Expression", "ExpressionError", "GridMemoryError",
    "GridValueError", "KineticOrdering", "Lattice1D", "Lattice2D",
    "OperatorMatrix", "PhysicalConstants", "Plan", "ProblemDefinition",
    "ReferenceSpectrum", "SolverError", "Spectrum", "VonRoos",
    "build_hamiltonian", "build_kinetic", "builtin_problem", "classify_parity",
    "compare_to_reference", "completeness_error", "constant_reduced_mass",
    "convergence_scan", "diagonalize", "eigenvalues", "exp_ialpha_p",
    "exponential_fit", "labeled_levels", "make_lattice", "make_lattice_2d",
    "momentum_ip", "momentum_squared_matrix",
    "morse_exact_level", "morse_potential", "nh3_mass", "nh3_potential",
    "ordering_from_name", "parse", "phase_fix", "points_to_m",
    "reference_spectrum", "shift_to_ground", "solve", "to_wavenumbers",
]
