#!/usr/bin/env python3
"""Write plot-ready tables for every documented figure recipe.

Usage:
    python scripts/reproduce_figures.py --outdir out_figures
    python scripts/reproduce_figures.py --only fig1a fig10 --format json

Each recipe maps to one CLI invocation; pass --only to restrict the set.
On a 2-vCPU x86-64 VM with one BLAS thread, the slowest recipes (the grids
fig7-fig9 and fig10) take about 15-20 ms each and all 28 about 0.1 s in one
process; the whole script, interpreter start included, takes about 0.4 s.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qfibath.cli import RECIPES, main as cli_main  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="out_figures")
    parser.add_argument("--only", nargs="*", default=None, metavar="figN")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    args = parser.parse_args(argv)

    names = args.only if args.only else sorted(RECIPES)
    unknown = [name for name in names if name not in RECIPES]
    if unknown:
        parser.error(f"unknown recipes: {', '.join(unknown)}")

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name in names:
        subcommand = RECIPES[name]["subcommand"]
        out = outdir / f"{name}.{args.format}"
        code = cli_main(
            [subcommand, "--recipe", name, "--format", args.format, "--out", str(out)]
        )
        if code != 0:
            print(f"{name}: failed with exit code {code}", file=sys.stderr)
            return code
        print(f"{name}: wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
