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


def nh3_mass(x, m_amu: float = CONSTANTS.m_H, M_amu: float = CONSTANTS.m_N):
    """Position-dependent reduced mass of the umbrella mode, in a.u.

    mu(x) = [3mM/(3m+M) + 3m x^2/(r0^2 - x^2)] * amu_in_au with r0 the
    planar bond length converted to a.u.  The formula has a pole at
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
    mu_amu = 3 * m_amu * M_amu / (3 * m_amu + M_amu) + 3 * m_amu * x**2 / denom
    return mu_amu * CONSTANTS.amu_in_au


def constant_reduced_mass(m_amu: float, M_amu: float,
                          beta_e: float = CONSTANTS.beta_e_rad) -> float:
    """Constant reduced mass with the equilibrium-angle correction, in a.u."""
    base = 3 * m_amu * M_amu / (3 * m_amu + M_amu)
    return base * (1 + 3 * m_amu * math.sin(beta_e) ** 2 / M_amu) * CONSTANTS.amu_in_au


def morse_potential(R, D_e: float = 1.0, alpha: float = 0.24, R_e: float = -35.0):
    """D_e (1 - exp(-alpha (R - R_e)))^2."""
    R = np.asarray(R, dtype=float)
    return D_e * (1.0 - np.exp(-alpha * (R - R_e))) ** 2


def morse_exact_level(n: int, D_e: float = 1.0, alpha: float = 0.24,
                      mu: float = 1.0) -> float:
    """Analytic bound-state energy E_n; raises past the last bound state."""
    two_pi_nu0 = alpha * math.sqrt(2 * D_e / mu)
    if n < 0 or (n + 0.5) * two_pi_nu0 >= 2 * D_e:
        raise ValueError(f"n = {n} is beyond the last Morse bound state")
    return two_pi_nu0 * (n + 0.5) - two_pi_nu0**2 / (4 * D_e) * (n + 0.5) ** 2


# --- Reference spectra -------------------------------------------------------

@dataclass(frozen=True)
class ReferenceSpectrum:
    problem: str
    source: str            # "analytic" | "published-table" | "experiment"
    unit: str              # "cm-1" | "model"
    shifted: bool          # values given relative to the lowest level
    citation: str
    values: dict[str, float]  # state label -> value


_REFERENCE_CACHE: dict[str, ReferenceSpectrum] | None = None


def _load_reference_tables() -> dict[str, ReferenceSpectrum]:
    global _REFERENCE_CACHE
    if _REFERENCE_CACHE is not None:
        return _REFERENCE_CACHE
    text = resources.files("qmbox.data").joinpath("reference_spectra.txt").read_text()
    tables: dict[str, ReferenceSpectrum] = {}
    key = None
    meta: dict[str, str] = {}
    values: dict[str, float] = {}

    def flush():
        if key is None:
            return
        tables[key] = ReferenceSpectrum(
            problem=key.split(".")[0],
            source=meta.get("source", "published-table"),
            unit=meta.get("unit", "model"),
            shifted=meta.get("shifted", "false") == "true",
            citation=meta.get("citation", ""),
            values=dict(values),
        )

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            flush()
            key = line[1:-1].strip()
            meta, values = {}, {}
            continue
        if "=" not in line:
            raise ValueError(f"malformed reference-spectrum line: {raw!r}")
        field, _, val = line.partition("=")
        field, val = field.strip(), val.strip()
        if field in ("source", "unit", "shifted", "citation"):
            meta[field] = val
        else:
            values[field] = float(val)
    flush()
    _REFERENCE_CACHE = tables
    return tables


def reference_spectrum(key: str) -> ReferenceSpectrum:
    """Fetch an embedded reference table by key, e.g. ``nh3.benchmark``."""
    tables = _load_reference_tables()
    if key not in tables:
        raise KeyError(f"no reference spectrum {key!r}; known: {', '.join(sorted(tables))}")
    return tables[key]


# --- Built-in problem factory ------------------------------------------------

BUILTIN_IDS = ("nh3", "nd3", "morse", "pdm_ho_1", "pdm_ho_2",
               "pt_oscillator", "non_pt_oscillator", "henon_heiles")

_GRID_OVERRIDES = {"N", "L", "Nx", "Ny", "Lx", "Ly", "ordering"}


def _grid_1d(defaults: tuple[float, int], overrides: dict):
    L = float(overrides.pop("L", defaults[0]))
    N = int(overrides.pop("N", defaults[1]))
    return make_lattice(L, points_to_m(N))


def builtin_problem(problem_id: str, **overrides) -> ProblemDefinition:
    """Instantiate a built-in problem, optionally overriding grid/ordering.

    Generic overrides: N, L (1D), Nx/Ny/Lx/Ly (2D), ordering.  Problem-
    specific ones: d_e, alpha, r_e, mu (morse); lam (henon_heiles).
    Unknown ids or overrides raise ValueError.
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
            mass=lambda x, m_amu=m_amu: nh3_mass(x, m_amu, CONSTANTS.m_N),
            energy_unit="hartree",
        )
    elif problem_id == "morse":
        d_e = float(ov.pop("d_e", 1.0))
        alpha = float(ov.pop("alpha", 0.24))
        r_e = float(ov.pop("r_e", -35.0))
        mu = float(ov.pop("mu", 1.0))
        grid = _grid_1d((90.0, 111), ov)
        problem = ProblemDefinition(
            name=problem_id,
            grid=grid,
            ordering=ordering if ordering is not None else ConstantMass(mu),
            potential_real=lambda x: morse_potential(x, d_e, alpha, r_e),
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
        lam = float(ov.pop("lam", 1.0 / math.sqrt(80.0)))
        Lx = float(ov.pop("Lx", ov.pop("L", 20.0)))
        Ly = float(ov.pop("Ly", Lx))
        Nx = int(ov.pop("Nx", ov.pop("N", 61)))
        Ny = int(ov.pop("Ny", Nx))
        grid = make_lattice_2d(Lx, points_to_m(Nx), Ly, points_to_m(Ny))
        problem = ProblemDefinition(
            name=problem_id,
            grid=grid,
            ordering=ordering if ordering is not None else ConstantMass(1.0),
            potential_real=lambda x, y: 0.5 * (x**2 + y**2) + lam * (x**2 * y - y**3 / 3.0),
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


def henon_heiles_well_radius_sq(lam: float = 1.0 / math.sqrt(80.0)) -> float:
    """Squared saddle-point distance 1/(4 lam^2); <r^2> beyond it marks a
    box-localized artifact state rather than a metastable well state."""
    return 1.0 / (4.0 * lam**2)
