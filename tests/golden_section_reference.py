"""Oracle for the optimal-time search: one temperature, one golden-section step at a time.

`sweep_optimize.optimal_time_curve` evaluates several steps of every search per
round and then walks them with the values. This is the search it must reproduce
bit for bit: the same coarse scan, the same bracket, and one probe evaluated
per step, each as a table of its own.
"""

from math import sqrt

import numpy as np

from qfibath.moments import MomentEngine
from qfibath.qfi_engine import qfi_table

INV_PHI = 0.5 * (sqrt(5.0) - 1.0)


def search(information, times, tolerance):
    """(t_star, qfi_star, bracket, probes) of the search whose values `information`
    gives for a list of times: the coarse scan `times`, then golden-section steps until
    the bracket is at most `tolerance`. `probes` lists the refinement times evaluated,
    in order. A scan flatter than 1e-14 gives (0.0, 0.0, times[-1], [])."""
    values = information(times)
    if max(values) - min(values) < 1e-14:
        return 0.0, 0.0, times[-1], []
    peak = int(np.argmax(values))  # first occurrence, i.e. the smallest t
    best = (values[peak], -times[peak])  # the larger value, on ties the smaller t
    lo = times[peak - 1] if peak > 0 else times[0]
    hi = times[peak + 1] if peak < len(times) - 1 else times[-1]

    left = hi - INV_PHI * (hi - lo)
    right = lo + INV_PHI * (hi - lo)
    probes = [left, right]
    f_left, f_right = information([left, right])
    best = max(best, (f_left, -left), (f_right, -right))
    while hi - lo > tolerance:
        if f_left >= f_right:  # keep the left interval on ties
            hi, right, f_right = right, left, f_left
            left = hi - INV_PHI * (hi - lo)
            probes.append(left)
            (f_left,) = information([left])
            best = max(best, (f_left, -left))
        else:
            lo, left, f_left = left, right, f_right
            right = lo + INV_PHI * (hi - lo)
            probes.append(right)
            (f_right,) = information([right])
            best = max(best, (f_right, -right))
    return -best[1], best[0], hi - lo, probes


def optimal_time(spec, temperature, qc):
    """`search` at one temperature of an `OptimalTimeSpec`, each probe its own table."""
    engine = MomentEngine(spec.estimand, spec.sp, qc)

    def information(times):
        return qfi_table(engine, [temperature] * len(times), times, [(spec.sq, spec.init)])[2]

    scan = [float(time) for time in np.linspace(0.0, spec.t_max, spec.coarse_points)]
    return search(information, scan, 1e-4 * spec.t_max)
