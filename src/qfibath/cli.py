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
The parameter records validate every value; a rejected one prints
`error: <flag>: <message>`, the flag found from the field the record names.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import lru_cache
from pathlib import Path
from typing import NoReturn

from . import __version__
from .moments import ConvergenceError, QuadratureConfig
from .probe_state import ProbeInit
from .qfi_engine import Estimand, qfi_point
from .spectral_bath import BathPoint, SpectralParams, SqueezeParams
from .sweep_optimize import (
    SWEEP_AXES, GridSpec, OptimalTimeSpec, SweepSpec, density_grid, optimal_time_curve,
    run_metadata, sweep,
)

__all__ = ["main", "build_parser", "RECIPES", "EXIT_OK", "EXIT_USAGE", "EXIT_NUMERICAL"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# environment override for the default relative quadrature tolerance;
# an explicit --rel-tol flag wins over it
ENV_REL_TOL = "QFIBATH_REL_TOL"

ESTIMANDS = {
    "T": Estimand.TEMPERATURE,
    "r": Estimand.SQUEEZE_AMPLITUDE,
    "theta": Estimand.SQUEEZE_PHASE,
}

# sweep axis -> flag that would otherwise fix that variable
AXIS_FLAG = {"T": "temp", "t": "time", "r": "r", "theta": "theta", "alpha": "alpha"}

# record field -> the flag that sets it. The records are the only validators,
# and each of their ValueErrors starts with the name of the field at fault.
FIELD_FLAGS = {
    "temperature": "--temp", "time": "--time", "r": "--r", "theta": "--theta",
    "s": "--s", "omega_c": "--omega-c", "alpha": "--alpha",
    "rel_tol": "--rel-tol", "abs_tol": "--abs-tol", "omega_max_factor": "--omega-max-factor",
    "lo": "--range", "hi": "--range", "points": "--points",
    "t_lo": "--t-range", "T_lo": "--T-range", "t_points": "--t-points",
    "T_points": "--T-points", "t_max": "--t-max",
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
    # information about T vs temperature (a, b) and vs time (c, d),
    # one figure per ohmicity regime
    for prefix, s in (("fig1", 0.5), ("fig3", 1.0), ("fig5", 3.0)):
        recipes[f"{prefix}a"] = sweep_recipe("T", "T", 0.01, 3.0, s, time=1.0, theta=1.0, r=0.1)
        recipes[f"{prefix}b"] = sweep_recipe("T", "T", 0.01, 3.0, s, time=1.0, r=0.1, theta=1.0)
        recipes[f"{prefix}c"] = sweep_recipe("T", "t", 0.0, 10.0, s, temp=0.5, theta=1.0, r=0.1)
        recipes[f"{prefix}d"] = sweep_recipe("T", "t", 0.0, 10.0, s, temp=0.5, r=0.1, theta=1.0)
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


def _fmt(value) -> str:
    """Shortest decimal that round-trips the binary float (locale-independent)."""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _range_arg(text: str) -> tuple[float, float]:
    try:
        lo_text, hi_text = text.split(":")
        lo, hi = float(lo_text), float(hi_text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo:hi, got {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise argparse.ArgumentTypeError("range endpoints must be finite")
    if not lo < hi:
        raise argparse.ArgumentTypeError(f"lower bound must be strictly below upper, got {text!r}")
    return lo, hi


def _add_shared_arguments(parser: argparse.ArgumentParser, with_recipe: bool) -> None:
    parser.add_argument("--estimand", choices=sorted(ESTIMANDS), default=None,
                        help="parameter the information is taken with respect to")
    parser.add_argument("--temp", type=float, default=None, help="bath temperature (k_B = 1)")
    parser.add_argument("--time", type=float, default=None, help="interaction time")
    parser.add_argument("--r", type=float, default=None, help="bath squeezing amplitude, r >= 0")
    parser.add_argument("--theta", type=float, default=None,
                        help="bath squeezing phase in radians")
    parser.add_argument("--s", type=float, default=None, help="ohmicity exponent, s > 0")
    parser.add_argument("--omega-c", type=float, default=None,
                        help="spectral-density cutoff frequency (default 1)")
    parser.add_argument("--alpha", type=float, default=None,
                        help="initial superposition angle in [0, pi] (default pi/2)")
    parser.add_argument("--omega-0", type=float, default=None,
                        help="qubit transition frequency; recorded in metadata only, "
                             "pure dephasing leaves it out of every result")
    parser.add_argument("--rel-tol", type=float, default=None,
                        help=f"relative quadrature tolerance (default 1e-8; env {ENV_REL_TOL})")
    parser.add_argument("--abs-tol", type=float, default=None,
                        help="absolute quadrature tolerance (default 1e-12)")
    parser.add_argument("--omega-max-factor", type=float, default=None,
                        help="upper limit of the thermal integral in units of "
                             "max(1, s) / (1/omega_c + 1/T_max), >= 10")
    parser.add_argument("--out", default="-", help="output path, '-' for stdout (default)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    if with_recipe:
        parser.add_argument("--recipe", default=None, metavar="figN",
                            help="expand the documented flag set of a published panel "
                                 "(fig1a..fig9, fig10); explicit flags win")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfibath",
        description="Quantum Fisher information of a dephasing qubit in a squeezed thermal bath",
    )
    parser.add_argument("--version", action="version", version=f"qfibath {__version__}")
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    point = subparsers.add_parser("point", help="evaluate one sample")
    _add_shared_arguments(point, with_recipe=False)
    point.set_defaults(handler=cmd_point)

    sweep_parser = subparsers.add_parser("sweep", help="1-D sweep over one axis")
    _add_shared_arguments(sweep_parser, with_recipe=True)
    sweep_parser.add_argument("--axis", choices=SWEEP_AXES, default=None)
    sweep_parser.add_argument("--range", type=_range_arg, default=None, metavar="lo:hi")
    sweep_parser.add_argument("--points", type=int, default=None)
    sweep_parser.set_defaults(handler=cmd_sweep)

    grid = subparsers.add_parser("grid", help="(t, T) density grid")
    _add_shared_arguments(grid, with_recipe=True)
    grid.add_argument("--t-range", type=_range_arg, default=None, metavar="lo:hi")
    grid.add_argument("--T-range", type=_range_arg, default=None, metavar="lo:hi")
    grid.add_argument("--t-points", type=int, default=None)
    grid.add_argument("--T-points", type=int, default=None)
    grid.set_defaults(handler=cmd_grid)

    opt = subparsers.add_parser("opt-time", help="optimal interaction time per temperature")
    _add_shared_arguments(opt, with_recipe=True)
    opt.add_argument("--T-range", type=_range_arg, default=None, metavar="lo:hi")
    opt.add_argument("--T-points", type=int, default=None)
    opt.add_argument("--t-max", type=float, default=None, help="upper end of the time search")
    opt.set_defaults(handler=cmd_opt_time)

    return parser


def _apply_recipe(args: argparse.Namespace) -> None:
    name = getattr(args, "recipe", None)
    if name is None:
        return
    recipe = RECIPES.get(name)
    if recipe is None:
        _fail("--recipe", f"unknown recipe {name!r}; known: {', '.join(sorted(RECIPES))}")
    if recipe["subcommand"] != args.subcommand:
        _fail("--recipe", f"{name} belongs to the {recipe['subcommand']!r} subcommand")
    for dest, value in recipe["flags"].items():
        if getattr(args, dest, None) is None:
            setattr(args, dest, value)


def _require(args: argparse.Namespace, dests: list[str]) -> None:
    for dest in dests:
        if getattr(args, dest) is None:
            _fail("--" + dest.replace("_", "-"), "is required")


def _given(**fields) -> dict:
    """The fields whose flags were set; unset ones take the record defaults."""
    return {name: value for name, value in fields.items() if value is not None}


def _quadrature_config(args: argparse.Namespace) -> QuadratureConfig:
    rel_tol = args.rel_tol
    env_value = os.environ.get(ENV_REL_TOL)
    if rel_tol is None and env_value is not None:
        # checked here, so a rejection names the variable instead of --rel-tol
        try:
            rel_tol = QuadratureConfig(rel_tol=float(env_value)).rel_tol
        except ValueError as exc:
            _fail(ENV_REL_TOL, str(exc))
    return QuadratureConfig(**_given(
        rel_tol=rel_tol, abs_tol=args.abs_tol, omega_max_factor=args.omega_max_factor,
    ))


def _records(args: argparse.Namespace) -> tuple[SqueezeParams, SpectralParams, ProbeInit]:
    return (
        SqueezeParams(r=args.r, theta=args.theta),
        SpectralParams(**_given(s=args.s, omega_c=args.omega_c)),
        ProbeInit(**_given(alpha=args.alpha)),
    )


def _metadata(args: argparse.Namespace, library: dict, columns: list[str]) -> dict:
    """The library's metadata plus the output columns and the inert omega_0."""
    metadata = {**library, "columns": columns}
    if args.omega_0 is not None:
        metadata["omega_0"] = args.omega_0
    return metadata


def _csv_text(spec: dict, metadata: dict, columns: list[str], rows: list[list]) -> str:
    lines = [f"# tool = {metadata['tool']} {metadata['version']}"]
    for key, value in spec.items():
        if key == "fixed":
            for fixed_key, fixed_value in value.items():
                lines.append(f"# {fixed_key} = {_fmt(fixed_value)}")
        elif isinstance(value, (tuple, list)):
            lines.append(f"# {key} = {_fmt(value[0])}:{_fmt(value[1])}")
        else:
            lines.append(f"# {key} = {_fmt(value)}")
    for key, value in metadata["quadrature"].items():
        lines.append(f"# {key} = {_fmt(value)}")
    if "omega_0" in metadata:
        lines.append(f"# omega_0 = {_fmt(metadata['omega_0'])}")
    # the timestamp is the only line that varies between identical invocations;
    # the data section (header onward) is byte-deterministic
    lines.append(f"# timestamp = {metadata['timestamp']}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _json_text(spec: dict, metadata: dict, rows: list[list]) -> str:
    return json.dumps({"spec": spec, "metadata": metadata, "rows": rows}, indent=2) + "\n"


def _emit(args: argparse.Namespace, spec: dict, metadata: dict,
          columns: list[str], rows: list[list]) -> None:
    if args.format == "json":
        text = _json_text(spec, metadata, rows)
    else:
        text = _csv_text(spec, metadata, columns, rows)
    if args.out == "-":
        sys.stdout.write(text)
        return
    path = Path(args.out)
    try:
        path.write_text(text, encoding="utf-8")
    except BaseException:
        path.unlink(missing_ok=True)  # never leave partial files behind
        raise


def cmd_point(args: argparse.Namespace) -> int:
    _require(args, ["estimand", "temp", "time", "r", "theta", "s"])
    qc = _quadrature_config(args)
    sq, sp, init = _records(args)
    point = BathPoint(temperature=args.temp, time=args.time)

    sample = qfi_point(ESTIMANDS[args.estimand], point, sq, sp, init, qc)
    row = [
        args.estimand, point.temperature, point.time, sq.r, sq.theta, sp.s,
        sp.omega_c, init.alpha, sample.gamma, sample.dgamma, sample.qfi,
        sample.cfi_term, sample.quantum_term,
    ]
    spec = {
        "subcommand": "point",
        "estimand": args.estimand,
        "fixed": {
            "temp": point.temperature, "time": point.time, "r": sq.r,
            "theta": sq.theta, "s": sp.s, "omega_c": sp.omega_c, "alpha": init.alpha,
        },
    }
    _emit(args, spec, _metadata(args, run_metadata(qc), POINT_COLUMNS), POINT_COLUMNS, [row])
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    _apply_recipe(args)
    _require(args, ["estimand", "axis", "range", "points"])
    axis = args.axis
    _require(args, [flag for ax, flag in AXIS_FLAG.items() if ax not in (axis, "alpha")] + ["s"])
    lo, hi = args.range
    # the swept variable takes its placeholder from the range start; each row
    # overrides it anyway
    setattr(args, AXIS_FLAG[axis], lo)
    qc = _quadrature_config(args)
    sq, sp, init = _records(args)
    point = BathPoint(temperature=args.temp, time=args.time)
    spec_obj = SweepSpec(
        estimand=ESTIMANDS[args.estimand], axis=axis, lo=lo, hi=hi, points=args.points,
        point=point, sq=sq, sp=sp, init=init,
    )

    table = sweep(spec_obj, qc)
    rows = [[axis, value, g, dg, q] for value, g, dg, q in table.rows]
    fixed = {}
    if axis != "t":
        fixed["time"] = point.time
    if axis != "T":
        fixed["temp"] = point.temperature
    if axis != "r":
        fixed["r"] = sq.r
    if axis != "theta":
        fixed["theta"] = sq.theta
    fixed.update({"s": sp.s, "omega_c": sp.omega_c})
    if axis != "alpha":
        fixed["alpha"] = init.alpha
    spec = {
        "subcommand": "sweep",
        "estimand": args.estimand,
        "axis": axis,
        "range": [lo, hi],
        "points": args.points,
        "fixed": fixed,
    }
    _emit(args, spec, _metadata(args, table.metadata, SWEEP_COLUMNS), SWEEP_COLUMNS, rows)
    return EXIT_OK


def cmd_grid(args: argparse.Namespace) -> int:
    _apply_recipe(args)
    _require(args, ["estimand", "t_range", "T_range", "t_points", "T_points", "r", "theta", "s"])
    qc = _quadrature_config(args)
    sq, sp, init = _records(args)
    spec_obj = GridSpec(
        estimand=ESTIMANDS[args.estimand],
        t_lo=args.t_range[0], t_hi=args.t_range[1],
        T_lo=args.T_range[0], T_hi=args.T_range[1],
        t_points=args.t_points, T_points=args.T_points,
        sq=sq, sp=sp, init=init,
    )

    table = density_grid(spec_obj, qc)
    rows = [
        [s.point.temperature, s.point.time, s.gamma, s.dgamma, s.qfi] for s in table.samples
    ]
    spec = {
        "subcommand": "grid",
        "estimand": args.estimand,
        "t_range": list(args.t_range),
        "T_range": list(args.T_range),
        "t_points": args.t_points,
        "T_points": args.T_points,
        "fixed": {
            "r": sq.r, "theta": sq.theta, "s": sp.s,
            "omega_c": sp.omega_c, "alpha": init.alpha,
        },
    }
    _emit(args, spec, _metadata(args, table.metadata, GRID_COLUMNS), GRID_COLUMNS, rows)
    return EXIT_OK


def cmd_opt_time(args: argparse.Namespace) -> int:
    _apply_recipe(args)
    if args.estimand is None:
        args.estimand = "T"
    _require(args, ["T_range", "T_points", "t_max", "r", "theta", "s"])
    qc = _quadrature_config(args)
    sq, sp, init = _records(args)
    spec_obj = OptimalTimeSpec(
        estimand=ESTIMANDS[args.estimand], T_lo=args.T_range[0], T_hi=args.T_range[1],
        T_points=args.T_points, sq=sq, sp=sp, init=init, t_max=args.t_max,
    )

    curve = optimal_time_curve(spec_obj, qc)
    rows = [[result.temperature, result.t_star, result.qfi_star] for result in curve.results]
    spec = {
        "subcommand": "opt-time",
        "estimand": args.estimand,
        "T_range": list(args.T_range),
        "T_points": args.T_points,
        "t_max": args.t_max,
        "fixed": {
            "r": sq.r, "theta": sq.theta, "s": sp.s,
            "omega_c": sp.omega_c, "alpha": init.alpha,
        },
    }
    _emit(args, spec, _metadata(args, curve.metadata, OPT_TIME_COLUMNS), OPT_TIME_COLUMNS, rows)
    return EXIT_OK


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reuses: parsing leaves it unchanged, each call gets a fresh namespace."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.omega_0 is not None and not math.isfinite(args.omega_0):
        _fail("--omega-0", f"must be finite, got {args.omega_0}")
    try:
        return args.handler(args)
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        message = str(exc)
        flag = FIELD_FLAGS.get(message.split(" ", 1)[0])
        # a sweep builds the record of its swept variable from the range start
        if flag is not None and flag[2:] == AXIS_FLAG.get(getattr(args, "axis", None)):
            flag = "--range"
        print(f"error: {flag}: {message}" if flag else f"error: {message}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
