"""Built-in benchmark problems with their physical constants and grids.

Catalog (ids accepted by :func:`builtin_problem` and the CLI):

    nh3, nd3            ammonia / deuterated-ammonia inversion mode: even
                        degree-20 double-well potential fit plus the
                        position-dependent reduced mass of the umbrella
                        coordinate; default one-sided mass-left ordering
    morse               asymmetric diatomic potential with 6 bound states
                        and a discretized continuum; analytic levels known
    pdm_ho_1, pdm_ho_2  harmonic oscillators with position-dependent mass,
                        sandwich ordering
    pt_oscillator       p^2 + x^2 + i x   (complex potential, real spectrum)
    non_pt_oscillator   p^2 + x^2 + i x - x  (complex spectrum, Im = 1/2)
    henon_heiles        2D cubic-coupled oscillator, constant mass

All constants live in atomic units internally (hbar = 1); tabulated
reference spectra carry their own unit annotations.
"""

from __future__ import annotations

import configparser
import functools
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .hamiltonian import ConstantMass, ProblemDefinition, ordering_from_name
from .lattice import make_lattice, make_lattice_2d, points_to_m


@dataclass(frozen=True)
class PhysicalConstants:
    hartree_to_cm: float = 219474.63137   # cm^-1 per Hartree
    bohr_in_angstrom: float = 0.52917721092
    amu_in_au: float = 1822.888           # electron masses per amu
    m_H: float = 1.007825035              # amu
    m_N: float = 14.003074                # amu
    m_D: float = 2.013553212712           # amu
    r0_angstrom: float = 1.00410198       # planar N-H distance
    beta_e_rad: float = math.radians(22 + 13 / 60)  # 22 deg 13 min

    @property
    def r0_au(self) -> float:
        return self.r0_angstrom / self.bohr_in_angstrom


CONSTANTS = PhysicalConstants()

#: Coefficients K_j of the inversion-mode double well, V(z) = sum K_j z^j
#: with z = (x * bohr_in_angstrom)^2; x in a.u., V in Hartree.
NH3_POTENTIAL_COEFFS = (
    0.0,
    -1.2760373471398e-01,
    4.7973549262032e-01,
    -4.4967805753691e-01,
    3.4048981035460e+00,
    -2.5268066877745e+01,
    1.1565093681631e+02,
    -3.2323821164423e+02,
    5.4331165379878e+02,
    -5.0630533518111e+02,
    2.0128292638493e+02,
)


def nh3_potential(x):
    """Double-well inversion potential (Hartree) at x (a.u.), Horner in z."""
    z = (np.asarray(x, dtype=float) * CONSTANTS.bohr_in_angstrom) ** 2
    acc = np.zeros_like(z)
    for coeff in reversed(NH3_POTENTIAL_COEFFS):
        acc = acc * z + coeff
    return acc


def nh3_mass(x, m_amu: float = CONSTANTS.m_H):
    """Position-dependent reduced mass of the umbrella mode, in a.u.

    mu(x) = [3mM/(3m+M) + 3m x^2/(r0^2 - x^2)] * amu_in_au with M = m_N and
    r0 the planar bond length converted to a.u.  The formula has a pole at
    |x| = r0; evaluation at the pole itself is an error, while points
    beyond it return the (negative) analytic continuation, exactly as the
    benchmark grids use it.
    """
    x = np.asarray(x, dtype=float)
    r0 = CONSTANTS.r0_au
    denom = r0**2 - x**2
    bad = np.abs(denom) < 1e-12 * r0**2
    if np.any(bad):
        offending = float(np.atleast_1d(x)[np.atleast_1d(bad)][0])
        raise ZeroDivisionError(
            f"reduced-mass pole reached at grid point x = {offending:.8f} a.u. "
            f"(pole at |x| = r0 = {r0:.8f}); shrink the box width")
    M_amu = CONSTANTS.m_N
    mu_amu = 3 * m_amu * M_amu / (3 * m_amu + M_amu) + 3 * m_amu * x**2 / denom
    return mu_amu * CONSTANTS.amu_in_au


def constant_reduced_mass(m_amu: float, M_amu: float) -> float:
    """Constant reduced mass with the equilibrium-angle correction, in a.u."""
    base = 3 * m_amu * M_amu / (3 * m_amu + M_amu)
    bend = 3 * m_amu * math.sin(CONSTANTS.beta_e_rad) ** 2 / M_amu
    return base * (1 + bend) * CONSTANTS.amu_in_au


#: Depth D_e and range alpha of the built-in Morse well (model units).
_MORSE_D_E, _MORSE_ALPHA = 1.0, 0.24


def morse_potential(R, R_e: float = -35.0):
    """D_e (1 - exp(-alpha (R - R_e)))^2."""
    R = np.asarray(R, dtype=float)
    return _MORSE_D_E * (1.0 - np.exp(-_MORSE_ALPHA * (R - R_e))) ** 2


def morse_exact_level(n: int) -> float:
    """Analytic bound-state energy E_n at unit mass; raises past the last bound state."""
    two_pi_nu0 = _MORSE_ALPHA * math.sqrt(2 * _MORSE_D_E)
    if n < 0 or (n + 0.5) * two_pi_nu0 >= 2 * _MORSE_D_E:
        raise ValueError(f"n = {n} is beyond the last Morse bound state")
    return two_pi_nu0 * (n + 0.5) - two_pi_nu0**2 / (4 * _MORSE_D_E) * (n + 0.5) ** 2


# --- Reference spectra -------------------------------------------------------

@dataclass(frozen=True)
class ReferenceSpectrum:
    problem: str
    source: str            # "analytic" | "published-table" | "experiment"
    unit: str              # "cm-1" | "model"
    shifted: bool          # values given relative to the lowest level
    citation: str
    values: dict[str, float]  # state label -> value


_META_FIELDS = ("source", "unit", "shifted", "citation")


@functools.cache
def _load_reference_tables() -> dict[str, ReferenceSpectrum]:
    parser = configparser.ConfigParser(delimiters=("=",), inline_comment_prefixes=("#",),
                                       interpolation=None)
    parser.optionxform = str   # keep labels as written; the default lower-cases them
    parser.read_string(resources.files("qmbox.data").joinpath("reference_spectra.txt").read_text())
    return {
        key: ReferenceSpectrum(
            problem=key.split(".")[0],
            source=table.get("source", "published-table"),
            unit=table.get("unit", "model"),
            shifted=table.get("shifted", "false") == "true",
            citation=table.get("citation", ""),
            values={label: float(value) for label, value in table.items()
                    if label not in _META_FIELDS},
        )
        for key, table in parser.items() if key != parser.default_section
    }


def reference_spectrum(key: str) -> ReferenceSpectrum:
    """Fetch an embedded reference table by key, e.g. ``nh3.benchmark``."""
    tables = _load_reference_tables()
    if key not in tables:
        raise KeyError(f"no reference spectrum {key!r}; known: {', '.join(sorted(tables))}")
    return tables[key]


# --- Built-in problem factory ------------------------------------------------

#: Henon-Heiles coupling of the paper's benchmark.
_HH_LAMBDA = 1.0 / math.sqrt(80.0)

BUILTIN_IDS = ("nh3", "nd3", "morse", "pdm_ho_1", "pdm_ho_2",
               "pt_oscillator", "non_pt_oscillator", "henon_heiles")


def _grid_1d(defaults: tuple[float, int], overrides: dict):
    L = float(overrides.pop("L", defaults[0]))
    return make_lattice(L, points_to_m(overrides.pop("N", defaults[1])))


def _grid_2d_axes(overrides: dict, key: str, default) -> tuple:
    """The (x, y) values of the 2D grid override ``key`` (N or L): each axis
    takes its own override (key + "x" or key + "y"), else ``key``, else the
    other axis's override, else the default.  ``key`` beside both per-axis
    overrides would be read by neither axis, so it is refused."""
    shared, x, y = (overrides.pop(name, None) for name in (key, key + "x", key + "y"))
    if None not in (shared, x, y):
        raise ValueError(f"override {key} is unused: {key}x and {key}y set both axes")
    return tuple(next(v for v in (own, shared, other, default) if v is not None)
                 for own, other in ((x, y), (y, x)))


def builtin_problem(problem_id: str, **overrides) -> ProblemDefinition:
    """Instantiate a built-in problem, optionally overriding grid/ordering.

    Generic overrides: N, L, ordering.  The 2D problem also takes
    Nx/Ny/Lx/Ly: each axis takes its own override, else N (L), else the
    other axis's override, else the default, and N (L) given together with
    both Nx and Ny (Lx and Ly) is refused.  The one problem-specific
    override is r_e (morse), which moves the well.  Unknown ids or
    overrides raise ValueError.
    """
    if problem_id not in BUILTIN_IDS:
        raise ValueError(f"unknown problem id {problem_id!r}; known: {', '.join(BUILTIN_IDS)}")
    ov = dict(overrides)
    ordering = ov.pop("ordering", None)

    if problem_id in ("nh3", "nd3"):
        grid = _grid_1d((4.0, 111), ov)
        m_amu = CONSTANTS.m_H if problem_id == "nh3" else CONSTANTS.m_D
        problem = ProblemDefinition(
            name=problem_id,
            grid=grid,
            ordering=ordering if ordering is not None else ordering_from_name("mass-left"),
            potential_real=nh3_potential,
            mass=lambda x, m_amu=m_amu: nh3_mass(x, m_amu),
            energy_unit="hartree",
        )
    elif problem_id == "morse":
        r_e = float(ov.pop("r_e", -35.0))
        grid = _grid_1d((90.0, 111), ov)
        problem = ProblemDefinition(
            name=problem_id,
            grid=grid,
            ordering=ordering if ordering is not None else ConstantMass(1.0),
            potential_real=lambda x: morse_potential(x, R_e=r_e),
            energy_unit="model",
        )
    elif problem_id in ("pdm_ho_1", "pdm_ho_2"):
        grid = _grid_1d((20.0, 201), ov)
        if problem_id == "pdm_ho_1":
            mass = lambda x: 1.0 + x**2
        else:
            mass = lambda x: ((2.0 + x**2) / (1.0 + x**2)) ** 2
        problem = ProblemDefinition(
            name=problem_id,
            grid=grid,
            ordering=ordering if ordering is not None else ordering_from_name("mass-sandwich"),
            potential_real=lambda x: 0.5 * x**2,
            mass=mass,
            energy_unit="model",
        )
    elif problem_id in ("pt_oscillator", "non_pt_oscillator"):
        grid = _grid_1d((25.0, 101), ov)
        if problem_id == "pt_oscillator":
            v_real = lambda x: x**2
        else:
            v_real = lambda x: x**2 - x
        problem = ProblemDefinition(
            name=problem_id,
            grid=grid,
            # T = p^2 with unit coefficient, expressed as mu = 1/2
            ordering=ordering if ordering is not None else ConstantMass(0.5),
            potential_real=v_real,
            potential_imag=lambda x: x,
            energy_unit="model",
        )
    else:  # henon_heiles
        Nx, Ny = _grid_2d_axes(ov, "N", 61)
        Lx, Ly = _grid_2d_axes(ov, "L", 20.0)
        grid = make_lattice_2d(float(Lx), points_to_m(Nx), float(Ly), points_to_m(Ny))
        problem = ProblemDefinition(
            name=problem_id,
            grid=grid,
            ordering=ordering if ordering is not None else ConstantMass(1.0),
            potential_real=lambda x, y: 0.5 * (x**2 + y**2) + _HH_LAMBDA * (x**2 * y - y**3 / 3.0),
            energy_unit="model",
        )

    if ov:
        raise ValueError(f"invalid override(s) for {problem_id!r}: {', '.join(sorted(ov))}")
    return problem


def pt_exact_level(n: int) -> complex:
    """Real spectrum of the complex-shifted oscillator: E_n = 2n + 5/4."""
    return 2.0 * n + 1.25


def non_pt_exact_level(n: int) -> complex:
    """Complex spectrum of the tilted oscillator: E_n = 2n + 1 + i/2."""
    return 2.0 * n + 1.0 + 0.5j


def henon_heiles_well_radius_sq() -> float:
    """Squared saddle-point distance 1/(4 lambda^2); <r^2> beyond it marks a
    box-localized artifact state rather than a metastable well state."""
    return 1.0 / (4.0 * _HH_LAMBDA**2)
