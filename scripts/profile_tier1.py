#!/usr/bin/env python3
"""Time the tier-1 suite module by module and write BENCH_tier1.json.

Usage:
    python scripts/profile_tier1.py
    python scripts/profile_tier1.py --out BENCH_tier1.json

Each `tests/test_*.py` module runs RUNS times, in turn, as its own
`python -m pytest -q -p no:cacheprovider <module>` subprocess with `src` on
PYTHONPATH; its wall time (s) is the median over those runs, start-up and
collection included. The total is the sum of the module medians, and the counts
of passed and failed tests are those of the last run. BLAS is held to one thread.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
COMMAND = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
RUNS = 3


def _run(module: str, env: dict) -> tuple[float, dict]:
    """Wall time of one pytest run of `module`, and its outcome counts."""
    start = perf_counter()
    done = subprocess.run([*COMMAND, module], cwd=ROOT, env=env, capture_output=True,
                          text=True, check=False)
    wall = perf_counter() - start
    summary = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    counts = {word: int(number) for number, word in re.findall(r"(\d+) (\w+)", summary)}
    return wall, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / "BENCH_tier1.json"))
    args = parser.parse_args(argv)

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env.pop("QFIBATH_REL_TOL", None)
    modules = sorted(str(path.relative_to(ROOT)) for path in (ROOT / "tests").glob("test_*.py"))
    walls, counts = {module: [] for module in modules}, {}
    for _ in range(RUNS):  # the modules in turn, so a slower spell of the machine hits all
        for module in modules:
            wall, counts[module] = _run(module, env)
            walls[module].append(wall)

    result = {
        "command": " ".join(["python", *COMMAND[1:], "<module>"]),
        "runs": RUNS,
        "machine": {"python": platform.python_version(), "arch": platform.machine(),
                    "cpus": os.cpu_count()},
        "unit": "s",
        "modules": {},
    }
    for module in modules:
        median = statistics.median(walls[module])
        result["modules"][module] = {
            "median": round(median, 3), "min": round(min(walls[module]), 3),
            "max": round(max(walls[module]), 3),
            "passed": counts[module].get("passed", 0), "failed": counts[module].get("failed", 0)}
        print(f"{module:32s} median {median:7.2f} s   "
              f"{counts[module].get('passed', 0):4d} passed "
              f"{counts[module].get('failed', 0):3d} failed")
    entries = result["modules"].values()
    result["total"] = {"median": round(sum(entry["median"] for entry in entries), 3),
                       "passed": sum(entry["passed"] for entry in entries),
                       "failed": sum(entry["failed"] for entry in entries)}
    print(f"{'total':32s} median {result['total']['median']:7.2f} s   "
          f"{result['total']['passed']:4d} passed {result['total']['failed']:3d} failed")
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
