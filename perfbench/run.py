#!/usr/bin/env python3
"""Benchmark of the qfibath CLI: closed-loop workloads through `qfibath.cli.main`.

Run from the repository root:

    python3 perfbench/run.py --workload point-stream --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table
    python3 perfbench/selftest.py                         # toy-size check of the harness

Workloads are defined in `workloads.py`. One process with one client thread
makes every call, BLAS is held to one thread, and `QFIBATH_REL_TOL` is unset,
so the program sees only the argv the benchmark generates from `--seed`.

--trace 0 measures, with nothing wrapped:
  wall_s          median wall time of one pass
  latency_ms.p50  over the distinct CLI calls of the run (on the grid
  latency_ms.p99  workloads there is one), the median and nearest-rank 99th
                  percentile of each call's median repetition
  setup_s         fresh interpreter: `import qfibath.cli` plus `build_parser()`,
                  median of 5 after one discarded warm-up
  peak_rss_mb     peak RSS of this process, a fresh interpreter, after a
                  warm-up call and its first pass (MiB)
All times are reference seconds: measured time with the speed gauge's CPU
time taken out, scaled by the machine's current speed (see `gauge.py`).

--trace 1 alternates untraced and traced passes of identical inputs and
reports the per-layer metrics of `tracing.py` (medians over traced passes),
`cli.bytes_out` per pass, and `trace.overhead_s`, traced minus untraced
median pass time. Spans are written to `.perfbench_out/` when the run ends.

Every run checks outputs: every repeated call's data section byte for byte
against its first run and, outside the timed region, a seeded sample of rows
against the mpmath oracle and the frozen constants of `tests/reference_values.py`.
A call that exits non-zero, raises, or fails a check counts as failed. The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from bisect import bisect_left, bisect_right
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

from oracle import CONSTANT_REL  # mpmath itself loads on first use
from tracing import UNITS, Span, Tracer, layer_metrics, median_metrics
from workloads import WARMUP_ARGV, WORKLOADS, data_section, output_format, parse

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
# median duration of one `gauge.unit()` on the reference machine: 2 vCPUs,
# x86_64, Python 3.11.7, SciPy 1.17.1; times are reported in reference seconds
REFERENCE_UNIT_S = 0.0013
# gauge samples within this distance of an interval give its speed
SPEED_WINDOW_S = 0.5
# When the machine slows, the gauge's unit slows more than the program: over
# 30 runs of the three workloads, scaling by (speed ratio) ** e left the least
# spread at e = 0.7 (point-stream) and 0.8 (both grids); e = 1 left 7-12 %.
SENSITIVITY = 0.75
HARD_LIMIT_S = 120.0     # stop starting passes after this, whatever the minimum
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import qfibath.cli as cli\n"
    "getattr(cli, 'build_parser', lambda: None)()\n"
    "print(t0, time.perf_counter())\n"
)

END_TO_END = {"wall_s": "s", "latency_ms.p50": "ms", "latency_ms.p99": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}


class Calls:
    """Every CLI call of a run: its key (argv), output, and whether it failed."""

    def __init__(self):
        self.keys: list[tuple] = []
        self.bad: dict[int, str] = {}
        self.first: dict[tuple, str] = {}      # key -> first output text
        self.sections: dict[tuple, str] = {}   # key -> first data section

    def record(self, key: tuple, code, text: str, err: str) -> None:
        index = len(self.keys)
        self.keys.append(key)
        if code != 0:
            self.bad[index] = f"{' '.join(key)}: exit {code}: {err.strip()[-500:]}"
            return
        try:
            section = data_section(text, output_format(key))
        except (ValueError, KeyError, IndexError) as exc:
            self.bad[index] = f"unparseable output: {exc!r}"
            return
        if key not in self.sections:
            self.first[key], self.sections[key] = text, section
        elif section != self.sections[key]:
            self.bad[index] = "data section differs from the first run of the same call"

    def add(self, key: tuple) -> None:
        """An operation other than a CLI call, such as a library-level constant check."""
        self.keys.append(key)

    def fail_key(self, key: tuple, message: str) -> None:
        for index, other in enumerate(self.keys):
            if other == key:
                self.bad.setdefault(index, message)


def call(cli_main, argv: list[str], tracer=None, request: int = 0) -> tuple:
    """One CLI call with stdout and stderr captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            if tracer is None:
                code = cli_main(argv)
            else:
                with tracer.span("cli.main", "cli", request):
                    code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the loop keeps going; the call counts as failed
            code = None
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


class SpeedGauge:
    """Runs `gauge.py` on this process's CPU and converts intervals to reference seconds.

    Use as a context manager around the measured region; `scaled` is valid
    after it exits. Pinning to one CPU makes the gauge sample the speed of the
    CPU the program runs on, and lets its own CPU time be taken out.
    """

    def __init__(self):
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        self.proc = subprocess.Popen([sys.executable, str(HERE / "gauge.py"), str(cpu)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.starts: list[float] = []
        self.durations: list[float] = []

    def __enter__(self) -> "SpeedGauge":
        if self.proc.stdout.readline().strip() != "ready":
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("speed gauge failed to start")
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        try:
            out, _ = self.proc.communicate(timeout=60)  # closes stdin: the gauge stops
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        for line in out.splitlines():
            start, duration = map(float, line.split())
            self.starts.append(start)
            self.durations.append(duration)
        return False

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds for [start, end]: gauge CPU time removed, scaled by speed.

        Speed is the reference unit duration over the mean unit duration
        measured within SPEED_WINDOW_S of the interval.
        """
        lo = bisect_left(self.starts, start - SPEED_WINDOW_S)
        hi = bisect_right(self.starts, end + SPEED_WINDOW_S)
        window = self.durations[lo:hi] or self.durations
        busy = 0.0  # samples last milliseconds: one that started 1 s earlier is over
        for i in range(bisect_left(self.starts, start - 1.0), bisect_right(self.starts, end)):
            busy += max(0.0, min(end, self.starts[i] + self.durations[i])
                        - max(start, self.starts[i]))
        speed = REFERENCE_UNIT_S * len(window) / sum(window)
        return (end - start - busy) * speed ** SENSITIVITY


def run_pass(cli_main, argvs: list[list[str]], calls: Calls, tracer=None) -> dict:
    """One closed-loop pass; records when each call started and ended."""
    spans, keys, bytes_out = [], [], 0
    start = perf_counter()
    for request, argv in enumerate(argvs):
        t0 = perf_counter()
        code, text, err = call(cli_main, argv, tracer, request)
        spans.append((t0, perf_counter()))
        keys.append(tuple(argv))
        calls.record(keys[-1], code, text, err)
        bytes_out += len(text.encode())
    return {"start": start, "end": perf_counter(), "calls": spans, "keys": keys,
            "bytes_out": bytes_out}


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def top_percentile(values: list[float]) -> str:
    """The highest whole percentile with at least 10 samples above it, as text."""
    n = len(values)
    for q in range(99, 0, -1):
        if n - -(-n * q // 100) >= 10:
            return f"p{q} = {nearest_rank(values, q):.6g}"
    return "none (fewer than 11 samples)"


def measure_setup(repeats: int = SETUP_REPEATS) -> list[tuple[float, float]]:
    """(start, end) perf_counter times of `repeats` fresh-interpreter set-ups."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    intervals = []
    for i in range(repeats + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        if i:  # the first start also compiles bytecode; discard it
            start, end = map(float, done.stdout.split()[-2:])
            intervals.append((start, end))
    return intervals


def load_reference_values() -> dict | None:
    path = ROOT / "tests" / "reference_values.py"
    if not path.is_file():
        return None
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "REFERENCE_VALUES" for target in node.targets):
            return ast.literal_eval(node.value)
    return None


def check_constants(cli_main, reference: dict, calls: Calls) -> list[str]:
    """Compare program outputs with the 19 frozen constants; returns the unchecked ones.

    Eleven constants are gamma or dgamma values and go through `qfibath point`.
    The other eight belong to library functions, looked up by name; a function
    that is gone, or no longer takes these arguments, leaves its constant
    unchecked rather than failed.
    """
    unchecked = []
    fix = {"T": 0.5, "t": 1.0, "r": 0.1, "theta": 1.0, "s": 0.5}
    cli_cases = [  # (key, estimand, T, t, r, theta, s, column)
        ("gamma_T0.7_t1.3_r0.4_th1.1_s0.5", "r", 0.7, 1.3, 0.4, 1.1, 0.5, "gamma"),
        ("gamma_T0.7_t1.3_r0.4_th1.1_s1", "r", 0.7, 1.3, 0.4, 1.1, 1.0, "gamma"),
        ("gamma_T0.7_t1.3_r0.4_th1.1_s3", "r", 0.7, 1.3, 0.4, 1.1, 3.0, "gamma"),
        ("gamma_T0.3_t2_r1_th4_s1", "r", 0.3, 2.0, 1.0, 4.0, 1.0, "gamma"),
        ("gamma_T2_t0.5_r0_th0_s3", "r", 2.0, 0.5, 0.0, 0.0, 3.0, "gamma"),
        ("gamma_T1_t5_r1.5_thpi_s0.5", "r", 1.0, 5.0, 1.5, math.pi, 0.5, "gamma"),
        ("gamma_T0_t1_r0.5_th2_s0.5", "r", 0.0, 1.0, 0.5, 2.0, 0.5, "gamma"),
        ("dgamma_dT_fix", "T", *fix.values(), "dgamma"),
        ("dgamma_dr_fix", "r", *fix.values(), "dgamma"),
        ("dgamma_dtheta_fix", "theta", *fix.values(), "dgamma"),
        ("dgamma_dr_at_r0_T0.5_t1_th1_s0.5", "r", 0.5, 1.0, 0.0, 1.0, 0.5, "dgamma"),
    ]
    for name, estimand, T, t, r, theta, s, column in cli_cases:
        argv = ["point", "--estimand", estimand, "--temp", repr(T), "--time", repr(t),
                "--r", repr(r), "--theta", repr(theta), "--s", repr(s), "--format", "csv"]
        code, text, err = call(cli_main, argv)
        calls.record(tuple(argv), code, text, err)
        if code == 0:
            columns, rows = parse(text, "csv")
            got, want = rows[0][columns.index(column)], reference[name]
            if not abs(got - want) <= CONSTANT_REL * abs(want):
                calls.fail_key(tuple(argv), f"{name}: {column} = {got!r}, frozen {want!r}")

    def bath(*names):
        sb = importlib.import_module("qfibath.spectral_bath")
        return [getattr(sb, name) for name in names]

    def integrand_args(r, theta):
        point, squeeze, spectral = bath("BathPoint", "SqueezeParams", "SpectralParams")
        return 0.01, point(1.0, 1.0), squeeze(r, theta), spectral(0.5)

    lib_cases = [  # (key, module, function, argument builder)
        ("coth_1", "spectral_bath", "thermal_factor", lambda: (2.0, 1.0)),
        ("coth_5e-9", "spectral_bath", "thermal_factor", lambda: (1e-8, 1.0)),
        ("coth_9.99e-5", "spectral_bath", "thermal_factor", lambda: (2.0 * 9.99e-5, 1.0)),
        ("coth_1.001e-4", "spectral_bath", "thermal_factor", lambda: (2.0 * 1.001e-4, 1.0)),
        ("dcoth_dT_w1_T0.7", "spectral_bath", "thermal_factor_dT", lambda: (1.0, 0.7)),
        ("integrand_w0.01_t1_T1_r0_s0.5", "spectral_bath", "gamma_integrand",
         lambda: integrand_args(0.0, 0.0)),
        ("integrand_w0.01_t1_T1_r0.8_th1_s0.5", "spectral_bath", "gamma_integrand",
         lambda: integrand_args(0.8, 1.0)),
        ("qfi_tiny_gamma", "qfi_engine", "qfi_closed_form",
         lambda: (importlib.import_module("qfibath.probe_state").ProbeInit(), 1e-9, 1e-5)),
    ]
    for name, module_name, func_name, args in lib_cases:
        key = ("library", func_name, name)
        try:
            fn = getattr(importlib.import_module(f"qfibath.{module_name}"), func_name)
            arguments = args()
        except (ImportError, AttributeError) as exc:
            unchecked.append(f"{name} ({exc})")
            continue
        try:
            got = fn(*arguments)
        except TypeError as exc:  # the signature changed
            unchecked.append(f"{name} ({func_name}: {exc})")
            continue
        except Exception:  # any other raise is a failed operation
            calls.record(key, None, "", traceback.format_exc())
            continue
        calls.add(key)
        want = reference[name]
        if not abs(got - want) <= CONSTANT_REL * abs(want):
            calls.fail_key(key, f"{name}: {func_name} = {got!r}, frozen {want!r}")
    return unchecked


def timed_run(cli_main, workload, seconds: float, calls: Calls) -> tuple[list[dict], float]:
    """Passes until `seconds` have passed, the workload's minimum number of
    distinct calls is met and each of them has run `workload.repeats` times."""
    passes, rss_mb, runs = [], 0.0, Counter()
    start = perf_counter()
    while True:
        passes.append(run_pass(cli_main, workload.pass_argvs(len(passes)), calls))
        runs.update(passes[-1]["keys"])
        if len(passes) == 1:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = perf_counter() - start
        if elapsed >= HARD_LIMIT_S or (
                elapsed >= seconds and len(runs) >= workload.min_inputs
                and min(runs.values()) >= workload.repeats):
            return passes, rss_mb


def traced_run(cli_main, workload, seconds: float, calls: Calls, tracer) -> tuple:
    """Alternate untraced and traced passes of the first pass's inputs."""
    argvs = workload.pass_argvs(0)
    plain, traced = [], []
    start = perf_counter()
    while True:
        plain.append(run_pass(cli_main, argvs, calls))
        first = len(tracer.spans)
        tracer.install()
        try:
            result = run_pass(cli_main, argvs, calls, tracer)
        finally:
            tracer.uninstall()
        result["spans"] = tracer.spans[first:]
        traced.append(result)
        if perf_counter() - start >= min(seconds, HARD_LIMIT_S):
            return plain, traced


def machine() -> str:
    import numpy
    import scipy

    return (f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
            f"NumPy {numpy.__version__}, SciPy {scipy.__version__}, {platform.machine()}")


def load_cli():
    """Import `qfibath.cli` from this checkout, with one BLAS thread and no env override."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("QFIBATH_REL_TOL", None)
    sys.path.insert(0, str(SRC))
    return importlib.import_module("qfibath.cli")


def run(name: str, seed: int, seconds: float, trace: int) -> dict:
    cli = load_cli()
    workload = WORKLOADS[name](seed)
    calls = Calls()
    metrics: dict[str, float] = {}
    notes = []
    if trace:
        tracer = Tracer()
        with SpeedGauge() as gauge:
            call(cli.main, WARMUP_ARGV)
            plain, traced = traced_run(cli.main, workload, seconds, calls, tracer)
        per_pass = []
        for p in traced:
            raw = p["end"] - p["start"]
            factor = gauge.scaled(p["start"], p["end"]) / raw
            layers = layer_metrics(p["spans"])
            per_pass.append({key: value * factor if UNITS[key] in ("s", "ns") else value
                             for key, value in layers.items()})
            per_pass[-1]["cli.bytes_out"] = p["bytes_out"]
        metrics.update(median_metrics(per_pass))
        metrics["trace.overhead_s"] = (
            statistics.median(gauge.scaled(p["start"], p["end"]) for p in traced)
            - statistics.median(gauge.scaled(p["start"], p["end"]) for p in plain))
        if tracer.absent:
            notes.append("absent (metrics read 0): " + ", ".join(tracer.absent))
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"trace-{name}-seed{seed}.json").write_text(json.dumps({
            "workload": name, "seed": seed, "absent": tracer.absent,
            "span_fields": list(Span.__slots__),
            "spans": [span.as_list() for span in tracer.spans],
        }))
        notes.append(f"{len(traced)} traced and {len(plain)} untraced passes; "
                     f"{len(tracer.spans)} spans written to {OUT_DIR.name}/")
    else:
        with SpeedGauge() as gauge:
            call(cli.main, WARMUP_ARGV)
            passes, rss_mb = timed_run(cli.main, workload, seconds, calls)
            setup = measure_setup()
        walls = [gauge.scaled(p["start"], p["end"]) for p in passes]
        repetitions: dict[tuple, list[float]] = {}  # distinct call -> its times (ms)
        for p in passes:
            for key, span in zip(p["keys"], p["calls"]):
                repetitions.setdefault(key, []).append(1e3 * gauge.scaled(*span))
        latencies = [statistics.median(times) for times in repetitions.values()]
        metrics["wall_s"] = statistics.median(walls)
        metrics["latency_ms.p50"] = statistics.median(latencies)
        metrics["latency_ms.p99"] = nearest_rank(latencies, 99)
        metrics["setup_s"] = statistics.median(gauge.scaled(*span) for span in setup)
        metrics["peak_rss_mb"] = rss_mb
        raw = statistics.median(p["end"] - p["start"] for p in passes)
        notes.append(f"wall_s: {len(walls)} passes, {top_percentile(walls)} s; "
                     f"unscaled median {raw:.4g} s; {len(gauge.durations)} gauge samples")
        notes.append(f"latency_ms: {len(latencies)} distinct calls in "
                     f"{sum(len(p['calls']) for p in passes)}, {top_percentile(latencies)} ms")
        notes.append("setup_s unscaled: " + ", ".join(f"{b - a:.4f}" for a, b in setup))

    problems = workload.oracle_check(calls.first, random.Random(seed))
    for key, messages in problems.items():
        calls.fail_key(key, "; ".join(messages))
    reference = load_reference_values()
    if reference is None:
        notes.append("tests/reference_values.py not found: frozen constants unchecked")
    else:
        unchecked = check_constants(cli.main, reference, calls)
        if unchecked:
            notes.append("frozen constants unchecked: " + "; ".join(unchecked))

    attempted, failed = len(calls.keys), len(calls.bad)
    print(f"# {name} seed {seed}: {machine()}", file=sys.stderr)
    for note in notes:
        print(f"# {note}", file=sys.stderr)
    for message in sorted(set(calls.bad.values()))[:20]:
        print(f"# FAILED: {message}", file=sys.stderr)
    print(f"# error_rate {failed}/{attempted} = {failed / attempted:.3g}", file=sys.stderr)
    units = {**END_TO_END, **UNITS}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Every workload in its own fresh process, so each peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=300, check=False)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise SystemExit(f"{name} exited {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        print(f"{name:16s} error_rate {result['failed']}/{result['attempted']}")
        for key, metric in result["metrics"].items():
            print(f"{name:16s} {key:40s} {metric['value']:14.6g} {metric['unit']}")
            combined["metrics"][f"{name}/{key}"] = metric
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qfibath" / "cli.py").is_file():
        print(f"error: no qfibath package at {SRC / 'qfibath'}; run from a qfibath checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
