"""Command-line front end.

Subcommands:

    solve         solve a built-in problem or a config file, print levels
    converge      grid-refinement scan of tracked states
    completeness  truncation error of the resolution of identity
    bench         reference gate over all tabulated benchmarks (CI)
    list          show built-in problem ids

Exit codes: 0 success, 1 configuration/parse error, 2 numerical failure
(mass pole on the grid, non-convergence), 3 benchmark tolerance failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

import numpy as np

from . import analysis, expr
from .bench import run_benchmarks
from .eig import SolverError, Spectrum
from .hamiltonian import (ConstantMass, KineticOrdering, ProblemDefinition,
                          _coordinate_arrays, ordering_from_name)
from .lattice import GridMemoryError, make_lattice, make_lattice_2d, points_to_m
from .operators import GridValueError
from .problems import BUILTIN_IDS, builtin_problem
from .solve import solve as solve_problem

#: Eigenvalues print with 12 significant digits everywhere.
_FMT = "{:.12g}"


class ConfigError(ValueError):
    pass


# --- Config-file problems ----------------------------------------------------

#: The grid keys that each dimension reads.
_GRID_KEYS = {1: ("N", "L"), 2: ("N_x", "N_y", "L_x", "L_y")}

_CONFIG_KEYS = {"dimension", *_GRID_KEYS[1], *_GRID_KEYS[2], "ordering",
                "mass", "potential_real", "potential_imag", "unit"}


def load_config(path: str) -> ProblemDefinition:
    """Parse a key = value problem description into a ProblemDefinition.

    Required keys: dimension, potential_real, the grid (N and L in 1D; N_x,
    N_y, L_x and L_y in 2D), plus a mass or a constant-mass ordering.  A
    key that the problem would not read is refused: the other dimension's
    grid keys, and a mass beside a constant-mass ordering, which carries
    its own mu.  Expressions use the variable x (and y in 2D); '#' starts
    a comment.
    """
    entries: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
                key, _, value = line.partition("=")
                key, value = key.strip(), value.strip()
                if key not in _CONFIG_KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                if key in entries:
                    raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
                if not value:
                    raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
                entries[key] = value
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}")

    def require(key: str) -> str:
        if key not in entries:
            raise ConfigError(f"{path}: missing required key {key!r}")
        return entries[key]

    def number(key: str, kind: type[int] | type[float]):
        value = require(key)
        try:
            return kind(value)
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise ConfigError(f"{path}: key {key!r} must be {noun}, got {value!r}")

    dimension = require("dimension")
    if dimension not in ("1", "2"):
        raise ConfigError(f"{path}: dimension must be 1 or 2, got {dimension!r}")
    dim = int(dimension)
    variables = {"x"} if dim == 1 else {"x", "y"}
    for key in _GRID_KEYS[3 - dim]:
        if key in entries:
            raise ConfigError(f"{path}: key {key!r} is not read in dimension {dim}; "
                              f"its grid keys are {', '.join(_GRID_KEYS[dim])}")

    def parse_expr(key: str):
        source = entries[key]
        try:
            return expr.parse(source, variables)
        except expr.ExpressionError as err:
            raise ConfigError(f"{path}: key {key!r}: {err}")

    if dim == 1:
        grid = make_lattice(number("L", float), points_to_m(number("N", int)))
    else:
        grid = make_lattice_2d(number("L_x", float), points_to_m(number("N_x", int)),
                               number("L_y", float), points_to_m(number("N_y", int)))

    ordering_spec = entries.get("ordering", "")
    mass = None
    if "mass" in entries:
        try:
            mass = float(entries["mass"])
        except ValueError:
            mass = parse_expr("mass")
    if ordering_spec:
        try:
            ordering = _parse_ordering(ordering_spec)
        except ConfigError as err:
            raise ConfigError(f"{path}: key 'ordering': {err}")
        if "mass" in entries and isinstance(ordering, ConstantMass):
            raise ConfigError(f"{path}: key 'mass' is not read with a constant-mass "
                              "ordering, which carries its own mu")
    elif isinstance(mass, float):
        try:
            ordering, mass = ConstantMass(mass), None
        except ValueError as err:
            raise ConfigError(f"{path}: key 'mass': {err}")
    elif mass is not None:
        ordering = ordering_from_name("mass-sandwich")
    else:
        raise ConfigError(f"{path}: missing required key 'mass' (or a constant-mass ordering)")

    require("potential_real")
    unit = entries.get("unit", "model")
    if unit not in ("hartree", "model"):
        raise ConfigError(f"{path}: key 'unit' must be hartree or model, got {unit!r}")
    return ProblemDefinition(
        name=os.path.splitext(os.path.basename(path))[0],
        grid=grid,
        ordering=ordering,
        potential_real=parse_expr("potential_real"),
        mass=mass,
        potential_imag=parse_expr("potential_imag") if "potential_imag" in entries else None,
        energy_unit=unit,
    )


def _parse_ordering(spec: str) -> KineticOrdering:
    """An ordering from its spelling with parameters, e.g. 'von-roos -1, 0'."""
    parts = spec.replace(",", " ").split()
    if not parts:
        raise ConfigError(f"empty ordering spec {spec!r}")
    try:
        return ordering_from_name(parts[0], *map(float, parts[1:]))
    except ValueError as err:
        raise ConfigError(str(err))


# --- Output helpers ----------------------------------------------------------

def _spectrum_rows(spectrum: Spectrum, unit: str, shift: bool):
    """One row per level; labels are unique, so the levels keep their order."""
    levels = analysis.labeled_levels(spectrum, unit=unit, shifted=shift)
    imag = spectrum.eigenvalues.imag
    if unit == "cm-1":
        imag = analysis.to_wavenumbers(imag)
    return [{"state": label, "energy": energy, "imag": float(im), "residual": float(res)}
            for (label, energy), im, res in zip(levels.items(), imag, spectrum.residuals)]


def _emit(rows, header, args):
    """The rows as ``--format`` (CSV or JSON) to ``--output`` or stdout.
    Without ``--format``, a file gets CSV and stdout an aligned table."""
    if not args.output and args.format is None:
        widths = {h: max(len(h), 18) for h in header}
        print("  ".join(h.rjust(widths[h]) for h in header))
        for row in rows:
            print("  ".join(_format_cell(row[h]).rjust(widths[h]) for h in header))
        return
    if args.format == "json":
        text = json.dumps(rows, indent=2) + "\n"
    else:
        lines = [",".join(header)] + [",".join(_format_cell(row[h]) for h in header)
                                      for row in rows]
        text = "\n".join(lines) + "\n"
    if args.output:
        with _writing(args.output), open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@contextlib.contextmanager
def _writing(path: str):
    """A file the command cannot write is a configuration error, as an
    unreadable config file is."""
    try:
        yield
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err.strerror or err}")


def _format_cell(value) -> str:
    if isinstance(value, float):
        return _FMT.format(value)
    return str(value)


def _make_problem(args) -> ProblemDefinition:
    if bool(args.problem) == bool(args.config):
        raise ConfigError("provide exactly one of --problem or --config")
    # "is not None" throughout: --N 0 or --L 0 is an invalid grid, not an absent flag
    grid = {key: getattr(args, key, None) for key in ("N", "L", "Nx", "Ny", "Lx", "Ly")}
    overrides = {key: value for key, value in grid.items() if value is not None}
    if args.config:
        problem = load_config(args.config)
        if overrides or args.ordering is not None:
            raise ConfigError("grid/ordering overrides apply to built-ins only; "
                              "edit the config file instead")
        return problem
    if args.ordering is not None:
        overrides["ordering"] = _parse_ordering(args.ordering)
    try:
        return builtin_problem(args.problem, **overrides)
    except ValueError as err:
        raise ConfigError(str(err))


def _default_unit(problem: ProblemDefinition, requested: str) -> str:
    """The unit to print in: ``auto`` is cm-1 for hartree problems and model
    units otherwise.  Model energies are dimensionless, so hartree and cm-1
    do not apply to them."""
    hartree = problem.energy_unit == "hartree"
    if requested in ("hartree", "cm-1") and not hartree:
        raise ConfigError(f"--unit {requested} applies to hartree energies; "
                          f"{problem.name} is in {problem.energy_unit} units")
    if requested != "auto":
        return requested
    return "cm-1" if hartree else "model"


# --- Subcommands -------------------------------------------------------------

def _cmd_solve(args) -> int:
    if args.states < 1:
        raise ConfigError(f"--states must be at least 1, got {args.states}")
    problem = _make_problem(args)
    unit = _default_unit(problem, args.unit)
    spectrum = solve_problem(problem, min(args.states, problem.size))
    rows = _spectrum_rows(spectrum, unit, args.shift)
    _emit(rows, ["state", "energy", "imag", "residual"], args)
    if args.dump_wavefunctions:
        _dump_wavefunctions(problem, spectrum, args)
    return 0


def _dump_wavefunctions(problem, spectrum, args):
    """One row per site: its coordinates, then Re and Im of each state."""
    coords = _coordinate_arrays(problem.grid)
    psi = spectrum.eigenvectors.astype(complex)
    # x [y] re0 im0 re1 im1 ...
    table = np.column_stack([c.ravel() for c in coords.values()] + [psi.view(float)])
    header = " ".join([*coords] + [f"re_psi{k} im_psi{k}" for k in range(spectrum.n_states)])
    with _writing(args.dump_wavefunctions):
        np.savetxt(args.dump_wavefunctions, table, fmt="%.12g", header=header)


def _cmd_converge(args) -> int:
    problem = _make_problem(args)
    n_list = [int(tok) for tok in args.N_list.split(",")]
    states = [int(tok) for tok in args.track.split(",")]
    scan = analysis.convergence_scan(problem, args.mode, n_list, states)
    rows = [{"N": n, "state": s, "energy": e, "rel_error": r}
            for n, s, e, r in scan.rows()]
    _emit(rows, ["N", "state", "energy", "rel_error"], args)
    if args.gnuplot_prefix:
        for s in states:
            path = f"{args.gnuplot_prefix}.state{s}.dat"
            with _writing(path):
                scan.write_gnuplot(path, s)
    for s in states:
        try:
            slope, corr, npts = analysis.exponential_fit(scan, s)
        except ValueError as err:   # converged from the first grids on: nothing to fit
            print(f"# state {s}: {err}, no fit", file=sys.stderr)
            continue
        print(f"# state {s}: log10(err) slope {slope:.4f}/point over {npts} "
              f"pre-plateau grids, correlation {corr:.4f}", file=sys.stderr)
    return 0


def _cmd_completeness(args) -> int:
    problem = _make_problem(args)
    analysis._require_completeness(problem.grid, args.ground)
    spectrum = solve_problem(problem)
    curve = analysis.completeness_error(spectrum, ground=args.ground)
    rows = [{"n_max": n, "epsilon": float(curve[n])} for n in range(len(curve))]
    _emit(rows, ["n_max", "epsilon"], args)
    return 0


def _cmd_bench(args) -> int:
    results = run_benchmarks()
    failed = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"[{status}] {result.name:<22} {result.seconds:6.2f}s  {result.detail}")
        failed += not result.passed
    total = sum(r.seconds for r in results)
    print(f"# {len(results) - failed}/{len(results)} benchmark gates passed "
          f"in {total:.1f}s")
    return 3 if failed else 0


def _cmd_list(args) -> int:
    for problem_id in BUILTIN_IDS:
        print(problem_id)
    return 0


@functools.cache   # once per process: parsing leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmbox",
        description="Spectral matrix solver for low-dimensional bound states")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_problem_args(p, two_d=False):
        p.add_argument("--problem", choices=BUILTIN_IDS, help="built-in problem id")
        p.add_argument("--config", help="problem config file (key = value lines)")
        p.add_argument("--N", type=int, help="override point count (odd)")
        p.add_argument("--L", type=float, help="override box width (a.u.)")
        if two_d:
            p.add_argument("--Nx", type=int)
            p.add_argument("--Ny", type=int)
            p.add_argument("--Lx", type=float)
            p.add_argument("--Ly", type=float)
        p.add_argument("--ordering",
                       help="kinetic ordering, e.g. mass-left or 'von-roos -1 0'")

    p_solve = sub.add_parser("solve", help="diagonalize one problem")
    add_problem_args(p_solve, two_d=True)
    p_solve.add_argument("--states", type=int, default=8, help="levels to print")
    p_solve.add_argument("--unit", choices=["auto", "hartree", "cm-1", "model"],
                         default="auto")
    p_solve.add_argument("--shift", action="store_true",
                         help="report energies relative to the ground state")
    p_solve.add_argument("--output", help="write rows to this file")
    p_solve.add_argument("--format", choices=["csv", "json"])
    p_solve.add_argument("--dump-wavefunctions", metavar="PATH",
                         help="write grid-sampled eigenfunctions to PATH")
    p_solve.set_defaults(fn=_cmd_solve)

    p_conv = sub.add_parser("converge", help="convergence scan over grid sizes")
    add_problem_args(p_conv)
    p_conv.add_argument("--mode", choices=analysis.SCAN_MODES, default="fixed_L_vary_N")
    p_conv.add_argument("--N-list", required=True,
                        help="comma-separated ascending odd N values (>= 12)")
    p_conv.add_argument("--track", default="0", help="comma-separated state indices")
    p_conv.add_argument("--output", help="write CSV rows to this file")
    p_conv.add_argument("--format", choices=["csv", "json"])
    p_conv.add_argument("--gnuplot-prefix",
                        help="also write two-column error files per state")
    p_conv.set_defaults(fn=_cmd_converge)

    p_comp = sub.add_parser("completeness",
                            help="identity-resolution truncation error")
    add_problem_args(p_comp)
    p_comp.add_argument("--ground", type=int, default=0)
    p_comp.add_argument("--output", help="write rows to this file")
    p_comp.add_argument("--format", choices=["csv", "json"])
    p_comp.set_defaults(fn=_cmd_completeness)

    p_bench = sub.add_parser("bench", help="run the full reference gate")
    p_bench.set_defaults(fn=_cmd_bench)

    p_list = sub.add_parser("list", help="list built-in problem ids")
    p_list.set_defaults(fn=_cmd_list)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exit_request:  # argparse exits 2 on bad flags; remap
        return 0 if exit_request.code in (0, None) else 1
    try:
        return args.fn(args)
    except (GridValueError, GridMemoryError, SolverError, ZeroDivisionError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2
    except (ConfigError, expr.ExpressionError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
