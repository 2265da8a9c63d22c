"""Command-line front end: evaluate, sweep, grid and optimize, then serialize.

Subcommands
-----------
point      one (estimand, T, t, r, theta, s) evaluation
sweep      1-D sweep of qfi over T | t | r | theta | alpha
grid       (t, T) density grid of qfi
opt-time   optimal interaction time per temperature

Examples
--------
    qfibath point --estimand T --temp 0.5 --time 1 --r 0.1 --theta 1 --s 0.5
    qfibath sweep --estimand T --axis T --range 0.01:3 --points 200 \
        --time 1 --theta 1 --r 0.1 --s 0.5 --out sweep.csv
    qfibath sweep --recipe fig1a --out fig1a.csv
    qfibath opt-time --T-range 0.2:2 --T-points 40 --theta 1.5708 --r 0.5 \
        --s 0.5 --t-max 20 --out opt.csv

Numbers are serialized as shortest round-trip decimals; identical invocations
produce identical data sections (only the timestamp metadata line varies).
Exit codes: 0 success, 2 usage/validation failure, 3 numerical failure.
Each flag is one entry of `FLAGS`, from which one loop builds every subcommand:
the shared flags, --recipe (all but point), then those its spec echoes.
The parameter records validate every value; a rejected one prints
`error: <flag>: <message>`, the flag found from the field the record names.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from functools import lru_cache
from typing import NoReturn

from . import __version__
from .moments import ConvergenceError, QuadratureConfig
from .probe_state import ProbeInit
from .qfi_engine import Estimand, qfi_point
from .spectral_bath import BathPoint, SpectralParams, SqueezeParams
from .sweep_optimize import (
    SWEEP_AXES, GridSpec, OptimalTimeSpec, SweepSpec, Tiled, density_grid,
    optimal_time_curve, sweep,
)
from .writers import csv_text, json_text, output

__all__ = ["main", "build_parser", "RECIPES", "EXIT_OK", "EXIT_USAGE", "EXIT_NUMERICAL"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# sweep axis -> flag that would otherwise fix that variable
AXIS_FLAG = {"T": "temp", "t": "time", "r": "r", "theta": "theta", "alpha": "alpha"}

# record field -> the flag that sets it, where their names differ; any other field is
# set by the flag of its own name. The records are the only validators, and each of
# their ValueErrors starts with the name of the field at fault.
FIELD_FLAGS = {"temperature": "--temp", "lo": "--range", "hi": "--range",
               "t_lo": "--t-range", "T_lo": "--T-range"}

# subcommand -> (the flags its spec echoes, which it alone takes, and the values of its
# `fixed` block in output order). Every flag named is required but --omega-c and --alpha,
# which take the record defaults; a sweep leaves its axis out of `fixed`.
SPEC_FLAGS = {
    "point": ((), ("temp", "time", "r", "theta", "s", "omega_c", "alpha")),
    "sweep": (("axis", "range", "points"),
              ("time", "temp", "r", "theta", "s", "omega_c", "alpha")),
    "grid": (("t_range", "T_range", "t_points", "T_points"),
             ("r", "theta", "s", "omega_c", "alpha")),
    "opt-time": (("T_range", "T_points", "t_max"), ("r", "theta", "s", "omega_c", "alpha")),
}


def _range_arg(text: str) -> tuple[float, float]:
    """`lo:hi` as two floats; the spec records check their values."""
    try:
        lo_text, hi_text = text.split(":")
        return float(lo_text), float(hi_text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}") from None


# flag -> its argparse keywords, each flag once. The flags before --recipe are every
# subcommand's, --recipe is every one's but point's, and the rest are those SPEC_FLAGS
# gives a subcommand. An unset flag is None, for a recipe or a record default to fill.
FLAGS = {
    "--estimand": dict(choices=sorted(estimand.value for estimand in Estimand),
                       help="parameter the information is taken with respect to"),
    "--temp": dict(type=float, help="bath temperature (k_B = 1)"),
    "--time": dict(type=float, help="interaction time"),
    "--r": dict(type=float, help="bath squeezing amplitude, r >= 0"),
    "--theta": dict(type=float, help="bath squeezing phase in radians"),
    "--s": dict(type=float, help="ohmicity exponent, s > 0"),
    "--omega-c": dict(type=float, help="spectral-density cutoff frequency (default 1)"),
    "--alpha": dict(type=float, help="initial superposition angle in [0, pi] (default pi/2)"),
    "--rel-tol": dict(type=float, help="relative tolerance (default 1e-8)"),
    "--abs-tol": dict(type=float, help="absolute tolerance (default 1e-12)"),
    "--out": dict(default="-", help="output path, '-' for stdout (default)"),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--recipe": dict(metavar="figN", help="expand the documented flag set of a published panel "
                                          "(fig1a..fig9, fig10); explicit flags win"),
    "--axis": dict(choices=SWEEP_AXES),
    "--range": dict(type=_range_arg, metavar="lo:hi"),
    "--points": dict(type=int),
    "--t-range": dict(type=_range_arg, metavar="lo:hi"),
    "--T-range": dict(type=_range_arg, metavar="lo:hi"),
    "--t-points": dict(type=int),
    "--T-points": dict(type=int),
    "--t-max": dict(type=float, help="upper end of the time search"),
}

POINT_COLUMNS = [
    "estimand", "T", "t", "r", "theta", "s", "omega_c", "alpha",
    "gamma", "dgamma", "qfi", "cfi_term", "quantum_term",
]
SWEEP_COLUMNS = ["axis", "value", "gamma", "dgamma", "qfi"]
GRID_COLUMNS = ["T", "t", "gamma", "dgamma", "qfi"]
OPT_TIME_COLUMNS = ["T", "t_star", "qfi_star"]


def _build_recipes() -> dict[str, dict]:
    """Documented flag sets reproducing each published panel, one curve per run."""

    def sweep_recipe(estimand, axis, lo, hi, s, **fixed):
        flags = {"estimand": estimand, "axis": axis, "range": (lo, hi), "points": 200, "s": s}
        flags.update(fixed)
        return {"subcommand": "sweep", "flags": flags}

    recipes: dict[str, dict] = {}
    # information about T vs temperature (a, b) and vs time (c, d), one figure per
    # ohmicity regime; each pair of panels shares one flag set
    for prefix, s in (("fig1", 0.5), ("fig3", 1.0), ("fig5", 3.0)):
        for panels, axis, lo, hi, fixed in (("ab", "T", 0.01, 3.0, {"time": 1.0}),
                                            ("cd", "t", 0.0, 10.0, {"temp": 0.5})):
            for panel in panels:
                recipes[prefix + panel] = sweep_recipe("T", axis, lo, hi, s, theta=1.0, r=0.1,
                                                       **fixed)
    # information about r vs r (a, b) and about theta vs theta (c, d)
    for prefix, s in (("fig2", 0.5), ("fig4", 1.0), ("fig6", 3.0)):
        recipes[f"{prefix}a"] = sweep_recipe("r", "r", 0.0, 3.0, s, time=1.0, theta=1.0, temp=0.1)
        recipes[f"{prefix}b"] = sweep_recipe("r", "r", 0.0, 3.0, s, time=1.0, temp=0.5, theta=1.0)
        recipes[f"{prefix}c"] = sweep_recipe(
            "theta", "theta", 0.0, 6.2832, s, temp=0.5, time=1.0, r=1.5
        )
        recipes[f"{prefix}d"] = sweep_recipe(
            "theta", "theta", 0.0, 6.2832, s, time=1.0, r=0.1, temp=0.5
        )
    # (t, T) density grids per regime
    for name, s in (("fig7", 0.5), ("fig8", 1.0), ("fig9", 3.0)):
        recipes[name] = {
            "subcommand": "grid",
            "flags": {
                "estimand": "T",
                "t_range": (0.0, 10.0),
                "T_range": (0.01, 3.0),
                "t_points": 50,
                "T_points": 50,
                "s": s,
                "r": 0.1,
                "theta": 1.0,
            },
        }
    # optimal time vs temperature; rerun with --s 1 and --s 3 for the other curves
    recipes["fig10"] = {
        "subcommand": "opt-time",
        "flags": {
            "estimand": "T",
            "T_range": (0.2, 2.0),
            "T_points": 40,
            "t_max": 20.0,
            "theta": 0.5 * math.pi,
            "r": 0.5,
            "s": 0.5,
        },
    }
    return recipes


RECIPES = _build_recipes()


def _fail(flag: str, message: str) -> NoReturn:
    print(f"error: {flag}: {message}", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _flag(name: str) -> str:
    """The flag of the namespace attribute or record field `name`."""
    return "--" + name.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfibath",
        description="Quantum Fisher information of a dephasing qubit in a squeezed thermal bath",
    )
    parser.add_argument("--version", action="version", version=f"qfibath {__version__}")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)
    flags = list(FLAGS)
    shared = flags.index("--recipe")
    for name, help_text, handler in (
            ("point", "evaluate one sample", cmd_point),
            ("sweep", "1-D sweep over one axis", cmd_sweep),
            ("grid", "(t, T) density grid", cmd_grid),
            ("opt-time", "optimal interaction time per temperature", cmd_opt_time)):
        subparser = subparsers.add_parser(name, help=help_text)
        for flag in [*flags[:shared + (name != "point")], *map(_flag, SPEC_FLAGS[name][0])]:
            subparser.add_argument(flag, **FLAGS[flag])
        subparser.set_defaults(handler=handler)
    subparsers.choices["opt-time"].set_defaults(estimand="T")
    return parser


def _given(**fields) -> dict:
    """The fields whose flags were set; unset ones take the record defaults."""
    return {name: value for name, value in fields.items() if value is not None}


def _run(args: argparse.Namespace) -> int:
    """The one path of every subcommand: expand the recipe, require the flags, build the
    records and the spec block, then write the run record and the column names and
    columns its handler returns."""
    name = getattr(args, "recipe", None)
    if name is not None:
        recipe = RECIPES.get(name)
        if recipe is None:
            _fail("--recipe", f"unknown recipe {name!r}; known: {', '.join(sorted(RECIPES))}")
        if recipe["subcommand"] != args.subcommand:
            _fail("--recipe", f"{name} belongs to the {recipe['subcommand']!r} subcommand")
        for dest, value in recipe["flags"].items():
            if getattr(args, dest) is None:
                setattr(args, dest, value)
    echoed, fixed = SPEC_FLAGS[args.subcommand]
    swept = AXIS_FLAG.get(getattr(args, "axis", None))
    fixed = [dest for dest in fixed if dest != swept]
    for dest in ["estimand", *echoed, *fixed]:
        if getattr(args, dest) is None and dest not in ("omega_c", "alpha"):
            _fail(_flag(dest), "is required")
    if swept is not None:
        # a placeholder every record accepts; each row overrides it, and the spec
        # checks the range ends
        setattr(args, swept, 0.0)

    qc = QuadratureConfig(**_given(rel_tol=args.rel_tol, abs_tol=args.abs_tol))
    sq = SqueezeParams(r=args.r, theta=args.theta)
    sp = SpectralParams(**_given(s=args.s, omega_c=args.omega_c))
    init = ProbeInit(**_given(alpha=args.alpha))
    values = {"temp": args.temp, "time": args.time, "r": sq.r, "theta": sq.theta,
              "s": sp.s, "omega_c": sp.omega_c, "alpha": init.alpha}
    spec = {
        "subcommand": args.subcommand,
        "estimand": args.estimand,
        **{dest: getattr(args, dest) for dest in echoed},
        "fixed": {dest: values[dest] for dest in fixed},
    }
    # the output is made before anything is computed, so an unwritable --out fails fast
    try:
        with output(args.out) as write:
            names, columns = args.handler(
                args, spec, qc, estimand=Estimand(args.estimand), sq=sq, sp=sp, init=init)
            metadata = {"tool": "qfibath", "version": __version__, "quadrature": asdict(qc),
                        "timestamp": datetime.now(timezone.utc).isoformat(), "columns": names}
            write(json_text(spec, metadata, columns) if args.format == "json"
                  else csv_text(spec, metadata, names, columns))
    except OSError as exc:
        _fail("--out", f"{exc.strerror}: {args.out!r}")
    return EXIT_OK


# Each handler builds its library call from the records and the flags and returns
# (column names, columns).

def cmd_point(args: argparse.Namespace, spec: dict, qc: QuadratureConfig, **records):
    sample = qfi_point(point=BathPoint(args.temp, args.time), qc=qc, **records)
    # the fixed block of a point is its row's leading cells
    row = [args.estimand, *spec["fixed"].values(), sample.gamma, sample.dgamma, sample.qfi,
           sample.cfi_term, sample.quantum_term]
    return POINT_COLUMNS, [[cell] for cell in row]


def cmd_sweep(args: argparse.Namespace, spec: dict, qc: QuadratureConfig, **records):
    lo, hi = args.range
    table = sweep(SweepSpec(axis=args.axis, lo=lo, hi=hi, points=args.points,
                            point=BathPoint(args.temp, args.time), **records), qc)
    return SWEEP_COLUMNS, [Tiled([args.axis], each=len(table.gamma)), *table.columns,
                           table.gamma, table.dgamma, table.qfi]


def cmd_grid(args: argparse.Namespace, spec: dict, qc: QuadratureConfig, **records):
    (t_lo, t_hi), (T_lo, T_hi) = args.t_range, args.T_range
    table = density_grid(GridSpec(t_lo=t_lo, t_hi=t_hi, T_lo=T_lo, T_hi=T_hi,
                                  t_points=args.t_points, T_points=args.T_points, **records), qc)
    return GRID_COLUMNS, [*table.columns, table.gamma, table.dgamma, table.qfi]


def cmd_opt_time(args: argparse.Namespace, spec: dict, qc: QuadratureConfig, **records):
    T_lo, T_hi = args.T_range
    curve = optimal_time_curve(OptimalTimeSpec(T_lo=T_lo, T_hi=T_hi, T_points=args.T_points,
                                               t_max=args.t_max, **records), qc)
    return OPT_TIME_COLUMNS, [
        [getattr(result, name) for result in curve.results]
        for name in ("temperature", "t_star", "qfi_star")]


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reuses: parsing leaves it unchanged, each call gets a fresh namespace."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _run(args)
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        message = str(exc)
        field = message.split(" ", 1)[0]
        flag = FIELD_FLAGS.get(field, _flag(field))
        print(f"error: {flag}: {message}" if flag in FLAGS else f"error: {message}",
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
