#!/usr/bin/env python3
"""Time one `grid --recipe fig7` and one `opt-time --recipe fig10` call part by part and
write BENCH_grid.json.

Usage:
    python scripts/profile_grid.py
    python scripts/profile_grid.py --out BENCH_grid.json
    python scripts/profile_grid.py --baseline parent.json   # another tree's result alongside

Each part is timed on the inputs of one call, in this process, and reported as the
median and quartiles (ms) over CALLS repetitions, with `minflt`, the median number of
minor page faults one repetition takes (the `ru_minflt` delta of `getrusage`): memory
that the allocator handed back to the system and the next call touches again.

  moments             MomentEngine.moments of the fig7 grid's 2,500 (T, t) pairs
  exponents_qfi_pass  qfi_engine.qfi_table on those moments: the exponents,
                      then the checked pass over the cells
  writer_json         the JSON text from the columns the grid handler returns
  writer_csv          the CSV text from the same columns
  call                one whole fig7 `cli.main` call, JSON to memory, as the benchmark makes it
  fig10_moments       MomentEngine.moments of fig10's scan: 64 times at each of 40
                      temperatures, the largest batch a recipe makes
  fig10_call          one whole fig10 `cli.main` call, CSV to memory
  point               qfi_engine.qfi_point, one call on each of POINTS seeded inputs
                      (estimand, s in {0.5, 1, 3}, T, t, r and theta drawn at random),
                      each timed once after a warm-up pass: the median is per call

It also reports `moments_peak_mib` and `fig10_moments_peak_mib`, the tracemalloc peak
(MiB) of one `moments` call on each batch: the NumPy temporaries of one batch; and
`fig10_exponents_peak_mib`, that of the `exponents` call on fig10's scan.
`--baseline` embeds a result this script wrote on another tree (say the parent commit,
on the same machine) under `baseline`, so a change shows its numbers beside the ones it
is measured against.

BLAS is held to one thread, as in the benchmark.
"""

import argparse
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[name] = "1"
os.environ.pop("QFIBATH_REL_TOL", None)
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from qfibath import cli  # noqa: E402
from qfibath.moments import MomentEngine, grid_pairs  # noqa: E402
from qfibath.qfi_engine import qfi_point, qfi_table  # noqa: E402
from qfibath.spectral_bath import (BathPoint, Estimand, SpectralParams,  # noqa: E402
                                   SqueezeParams)

ARGV = ["grid", "--recipe", "fig7", "--format", "json"]
FIG10_ARGV = ["opt-time", "--recipe", "fig10"]
CALLS = 60
POINTS = 200


def _captured() -> dict:
    """The grid spec, tolerances and writer inputs of one fig7 call."""
    seen = {}
    library, writer = cli.density_grid, cli.json_text

    def density_grid(spec, qc):
        seen.update(spec=spec, qc=qc)
        return library(spec, qc)

    def json_text(spec, metadata, columns):
        seen.update(block=spec, metadata=metadata, columns=columns)
        return writer(spec, metadata, columns)

    cli.density_grid, cli.json_text = density_grid, json_text
    try:
        with redirect_stdout(io.StringIO()):
            assert cli.main(ARGV) == 0
    finally:
        cli.density_grid, cli.json_text = library, writer
    return seen


def _largest_batch(argv: list[str], method: str, pairs) -> tuple:
    """The engine and arguments of the `MomentEngine` `method` call with the most
    `pairs(arguments)` that one `cli.main(argv)` call makes."""
    largest = []
    library = getattr(MomentEngine, method)

    def recorded(engine, *arguments):
        if not largest or pairs(arguments) > pairs(largest[1:]):
            largest[:] = engine, *arguments
        return library(engine, *arguments)

    setattr(MomentEngine, method, recorded)
    try:
        with redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    finally:
        setattr(MomentEngine, method, library)
    return tuple(largest)


def _seeded_points() -> list[dict]:
    """POINTS `qfi_point` inputs drawn at random over the benchmark's point domain."""
    rng = np.random.default_rng(2026)
    estimands = list(Estimand)
    return [{"estimand": estimands[k % 3],
             "point": BathPoint(float(rng.uniform(0.01, 3.0)), float(rng.uniform(0.05, 10.0))),
             "sq": SqueezeParams(float(rng.uniform(0.0, 1.5)),
                                 float(rng.uniform(0.0, 2.0 * math.pi))),
             "sp": SpectralParams(float(rng.choice([0.5, 1.0, 3.0])))} for k in range(POINTS)]


def _peak_mib(function) -> float:
    """The tracemalloc peak of one call, MiB."""
    tracemalloc.start()
    try:
        function()
        return round(tracemalloc.get_traced_memory()[1] / 2**20, 3)
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_grid.json"))
    parser.add_argument("--baseline", help="a result of this script to embed as `baseline`")
    args = parser.parse_args(argv)

    seen = _captured()
    spec, qc = seen["spec"], seen["qc"]
    block, metadata, columns = seen["block"], seen["metadata"], seen["columns"]
    engine = MomentEngine(spec.estimand, spec.sp, qc)
    temperatures, times = grid_pairs(columns[0].values, columns[1].values)
    moments = engine.moments(temperatures, times)
    # an engine whose moments are already computed, so the table times the rest alone
    computed = MomentEngine(spec.estimand, spec.sp, qc)
    computed.moments = lambda *_: moments
    scan_engine, *scan = _largest_batch(FIG10_ARGV, "moments", lambda pairs: len(pairs[1]))
    _, *scan_exponents = _largest_batch(FIG10_ARGV, "exponents",
                                        lambda cells: cells[0].shape[-1] * len(cells[1]))

    def call(argv):
        with redirect_stdout(io.StringIO()):
            cli.main(argv)

    parts = {
        "moments": lambda: engine.moments(temperatures, times),
        "exponents_qfi_pass": lambda: qfi_table(computed, temperatures, times,
                                                  [(spec.sq, spec.init)]),
        "writer_json": lambda: cli.json_text(block, metadata, columns),
        "writer_csv": lambda: cli.csv_text(block, metadata, cli.GRID_COLUMNS, columns),
        "call": lambda: call(ARGV),
        "fig10_moments": lambda: scan_engine.moments(*scan),
        "fig10_call": lambda: call(FIG10_ARGV),
    }
    samples = {name: [] for name in parts}
    faults = {name: [] for name in parts}
    for function in parts.values():  # warm-up
        function()
    for _ in range(CALLS):  # the parts in turn, so a slower spell of the machine hits all
        for name, function in parts.items():
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            start = perf_counter()
            function()
            samples[name].append(1e3 * (perf_counter() - start))
            faults[name].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)

    points = _seeded_points()
    for inputs in points:  # warm-up
        qfi_point(**inputs)
    point, point_faults = [], []
    for inputs in points:
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = perf_counter()
        qfi_point(**inputs)
        point.append(1e3 * (perf_counter() - start))
        point_faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    samples["point"], faults["point"] = point, point_faults

    result = {
        "command": "qfibath " + " ".join(ARGV) + "; qfibath " + " ".join(FIG10_ARGV),
        "calls": CALLS,
        "machine": {"python": platform.python_version(), "arch": platform.machine(),
                    "cpus": os.cpu_count()},
        "unit": "ms",
        "parts": {},
    }
    for name, values in samples.items():
        q1, median, q3 = statistics.quantiles(values, n=4)
        minflt = statistics.median(faults[name])
        result["parts"][name] = {"median": round(median, 3), "q1": round(q1, 3),
                                 "q3": round(q3, 3), "minflt": minflt}
        print(f"{name:19s} median {median:8.3f} ms   quartiles {q1:.3f} .. {q3:.3f}"
              f"   minor faults {minflt:g}")
    result["moments_peak_mib"] = _peak_mib(parts["moments"])
    result["fig10_moments_peak_mib"] = _peak_mib(parts["fig10_moments"])
    result["fig10_exponents_peak_mib"] = _peak_mib(lambda: scan_engine.exponents(*scan_exponents))
    for name in ("moments_peak_mib", "fig10_moments_peak_mib", "fig10_exponents_peak_mib"):
        print(f"{name:24s} {result[name]:.3f} MiB")
    if args.baseline:
        result["baseline"] = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
