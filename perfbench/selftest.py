#!/usr/bin/env python3
"""Self-test of the benchmark harness at toy size.

    python3 perfbench/selftest.py

Checks that the oracle reproduces the frozen mpmath constants, that every
workload passes its checks at toy size and that each check flags a corrupted
output value (the corruption is applied inside the benchmark's comparison,
never to the program), that the determinism check flags a changed data
section, and that the tracer counts calls, reports missing functions as
absent and restores what it wrapped. Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import math
import random
import sys

import run
from oracle import CONSTANT_REL, evaluate
from tracing import SPAN, TARGETS, Tracer, layer_metrics
from workloads import Fig7Grid, Fig10OptTime, PointStream

CORRUPTION = 1e-4  # relative; every tolerance is far tighter


def main() -> int:
    failures: list[str] = []

    def expect(condition: bool, what: str) -> None:
        print(f"{'ok  ' if condition else 'FAIL'} {what}")
        if not condition:
            failures.append(what)

    cli = run.load_cli()
    reference = run.load_reference_values()
    expect(reference is not None and len(reference) == 19, "19 frozen constants found")

    # the oracle against the frozen 50-digit constants it can compute
    fixtures = {
        "gamma_T0.7_t1.3_r0.4_th1.1_s1": (None, 0.7, 1.3, 0.4, 1.1, 1.0, 0),
        "gamma_T1_t5_r1.5_thpi_s0.5": (None, 1.0, 5.0, 1.5, math.pi, 0.5, 0),
        "gamma_T0_t1_r0.5_th2_s0.5": (None, 0.0, 1.0, 0.5, 2.0, 0.5, 0),
        "dgamma_dT_fix": ("T", 0.5, 1.0, 0.1, 1.0, 0.5, 1),
        "dgamma_dr_fix": ("r", 0.5, 1.0, 0.1, 1.0, 0.5, 1),
        "dgamma_dtheta_fix": ("theta", 0.5, 1.0, 0.1, 1.0, 0.5, 1),
    }
    for name, (estimand, *point, which) in fixtures.items():
        value = evaluate(estimand, *point)[which]
        expect(abs(value - reference[name]) <= 1e-12 * abs(reference[name]),
               f"oracle reproduces {name}")

    toys = [PointStream(7, pass_size=5), Fig7Grid(7, t_points=3, T_points=3),
            Fig10OptTime(7, T_points=2, t_max=4.0)]
    for workload in toys:
        workload.min_inputs = 1
        calls = run.Calls()
        run.timed_run(cli.main, workload, 0.0, calls)  # runs every call twice or more
        expect(not calls.bad and len(calls.keys) > 0, f"{workload.name}: toy calls succeed")
        expect(len(calls.keys) >= workload.repeats * len(calls.sections) >= 2,
               f"{workload.name}: every distinct call runs {workload.repeats} times")
        clean = workload.oracle_check(calls.first, random.Random(1))
        expect(not clean, f"{workload.name}: outputs match the oracle {clean or ''}")
        corrupt = workload.oracle_check(calls.first, random.Random(1), perturb=CORRUPTION)
        expect(bool(corrupt), f"{workload.name}: a value corrupted by {CORRUPTION} is flagged")

    calls = run.Calls()
    text = "# timestamp = a\nT,t\n0.5,1.0\n"
    calls.record(("x",), 0, text, "")
    calls.record(("x",), 0, text.replace("# timestamp = a", "# timestamp = b"), "")
    expect(not calls.bad, "determinism: only the metadata block differs, accepted")
    calls.record(("x",), 0, text.replace("1.0", "1.0000000000000002"), "")
    expect(2 in calls.bad, "determinism: a changed data section is flagged")

    calls = run.Calls()
    unchecked = run.check_constants(cli.main, reference, calls)
    expect(not calls.bad and not unchecked and len(calls.keys) == 19,
           f"program reproduces the frozen constants within {CONSTANT_REL}")

    tracer = Tracer(TARGETS + (("cli", "qfibath.cli", "no_such_function", SPAN),))
    originals = dict(vars(sys.modules["qfibath.qfi_engine"]))
    tracer.install()
    try:
        run.run_pass(cli.main, Fig7Grid(7, t_points=3, T_points=2).pass_argvs(0),
                     run.Calls(), tracer)
    finally:
        tracer.uninstall()
    layers = layer_metrics(tracer.spans)
    expect(tracer.absent == ["qfibath.cli.no_such_function"], "a missing function is absent")
    expect(dict(vars(sys.modules["qfibath.qfi_engine"])) == originals, "uninstall restores")
    # 6 points; the two at t = 0 return before integrating, the other four
    # integrate gamma and dgamma on two panels each
    expect(layers["qfi_engine.qfi_point_calls"] == 6
           and layers["decoherence.gamma_calls"] == 6
           and layers["decoherence.quad_calls"] == 16
           and layers["sweep_optimize.qfi_points_per_result"] == 1.0
           and layers["spectral_bath.integrand_calls"] > 0,
           f"trace counts on a 3 x 2 grid: {layers}")

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
