"""Speed gauge: a process that measures how fast the benchmark's CPU runs right now.

The benchmark runs on a shared machine whose speed at running the same code
swings by a factor of two over a tenth of a second and drifts by a quarter
over minutes, in CPU time as much as in wall time. `run.py` pins itself and
this gauge to the same CPU. Every PERIOD_S the gauge wakes, integrates a
fixed oscillatory integrand with QUADPACK through a Python callback (the same
kind of work as the program's) and records when it started and how long it
took. The benchmark then scales each measured interval by the reference
duration of that unit over its mean duration around the interval, after
taking out the time the gauge itself held the CPU.

    python3 perfbench/gauge.py <cpu>

prints "ready" once loaded, samples until its stdin closes, then prints one
"start duration" line per sample (perf_counter seconds, comparable across
processes on Linux) and exits.
"""

from __future__ import annotations

import math
import os
import select
import sys
import time

from scipy.integrate import quad

PERIOD_S = 0.05
MAX_SAMPLING_S = 170.0  # ends on its own if the benchmark never closes stdin


def _integrand(w: float, t: float) -> float:
    return (w ** -0.5 * math.exp(-w) * math.sin(0.5 * w * t) ** 2
            * (1.3 - 0.4 * math.cos(1.0 - w * t)) / math.tanh(w / 1.4))


def unit() -> None:
    """The fixed piece of work whose duration is the speed sample."""
    for t in (0.7, 5.0):
        quad(_integrand, 0.0, 60.0, args=(t,), limit=200, epsrel=1e-10, epsabs=1e-13)


def main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    unit()  # first call pays for lazy set-up
    print("ready", flush=True)
    samples = []
    deadline = time.perf_counter() + MAX_SAMPLING_S
    while time.perf_counter() < deadline:
        t0 = time.perf_counter()
        unit()
        samples.append((t0, time.perf_counter() - t0))
        if select.select([sys.stdin], [], [], PERIOD_S)[0]:
            break  # stdin closed: the measured region is over
    sys.stdout.write("".join(f"{t0!r} {d!r}\n" for t0, d in samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
