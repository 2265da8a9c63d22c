"""The benchmark's workloads: CLI inputs made from a seed, output parsing, oracle checks.

Each workload is a closed loop with one client: the next CLI call starts when
the previous one has returned. A pass is a fixed list of calls; the runner
repeats passes for the measured time and until every distinct call has run
at least `repeats` times.

point-stream    independent `point` calls drawn across the paper's domain.
                Consecutive calls share nothing, so batching or moment reuse
                cannot help; CLI overhead is a large share of each call.
fig7-grid       `grid --recipe fig7`: 50 x 50 (t, T) points sharing their t-
                and T-factors, the case a separable grid engine targets.
fig10-opt-time  `opt-time --recipe fig10`: 40 temperatures, each a coarse scan
                plus dependent golden-section steps that cannot be batched.
"""

from __future__ import annotations

import json
import math
import random

import oracle

WARMUP_ARGV = ["point", "--estimand", "T", "--temp", "0.5", "--time", "1", "--r", "0.1",
               "--theta", "1", "--s", "0.5"]


def output_format(argv) -> str:
    """The --format a CLI call was given; csv when absent."""
    argv = list(argv)
    return argv[argv.index("--format") + 1] if "--format" in argv else "csv"


def parse(text: str, fmt: str) -> tuple[list[str], list[list]]:
    """(columns, rows) of a CLI output; numeric cells become floats."""
    if fmt == "json":
        obj = json.loads(text)
        return list(obj["metadata"]["columns"]), obj["rows"]
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    columns = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        rows.append([cell if name == "estimand" else float(cell)
                     for name, cell in zip(columns, cells)])
    return columns, rows


def data_section(text: str, fmt: str) -> str:
    """The part of an output that must repeat byte for byte.

    CSV: everything from the header row on (the metadata block above it ends
    with a timestamp). JSON: the serialized rows, since the metadata object
    may carry run-dependent fields.
    """
    if fmt == "json":
        return json.dumps(json.loads(text)["rows"])
    lines = text.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if not line.startswith("#"):
            return "".join(lines[i:])
    return ""


def _row_dict(columns: list[str], row: list) -> dict:
    return dict(zip(columns, row))


def _perturbed(values: dict, perturb: float) -> dict:
    """Scale the computed quantities by 1 + perturb, the self-test's corruption."""
    return {key: value * (1.0 + perturb) if key in ("gamma", "dgamma", "qfi") else value
            for key, value in values.items()}


class PointStream:
    """Independent `point` calls, `pass_size` per pass; each block of them runs `repeats` passes.

    A repeat comes `pass_size` calls after the one before it, never next to
    it, so consecutive calls still share nothing. The repeats let the runner
    take each input's median run as its latency, which keeps a call that the
    machine happened to interrupt out of the percentiles.
    """

    name = "point-stream"
    fmt = "csv"
    repeats = 3
    min_inputs = 1000  # p99 then has at least 10 inputs above it
    oracle_rows = 6

    def __init__(self, seed: int, pass_size: int = 200):
        self.pass_size = pass_size
        self._rng = random.Random(seed)
        self._calls: list[tuple[list[str], str, dict]] = []

    def _draw_block(self) -> list[tuple[list[str], str, dict]]:
        """One block of `pass_size` inputs, stratified so that seeds differ little.

        Estimand and `s` choice are dealt out evenly in a shuffled order, and
        each of T, t, r and theta is a Latin hypercube column: one value in
        each of `pass_size` equal slices of its range.
        """
        rng, n = self._rng, self.pass_size

        def dealt(options):
            values = [options[i % len(options)] for i in range(n)]
            rng.shuffle(values)
            return values

        def sliced(lo, hi):
            cells = list(range(n))
            rng.shuffle(cells)
            return [lo + (hi - lo) * (cell + rng.random()) / n for cell in cells]

        columns = zip(dealt(("T", "r", "theta")), dealt((0.5, 1.0, 3.0, None)),
                      sliced(0.01, 3.0), sliced(0.05, 10.0), sliced(0.0, 1.5),
                      sliced(0.0, 2.0 * math.pi))
        block = []
        for estimand, s, T, t, r, theta in columns:
            if s is None:
                s = rng.uniform(0.3, 3.0)
            point = {"T": T, "t": t, "r": r, "theta": theta, "s": s}
            argv = ["point", "--estimand", estimand, "--temp", repr(T), "--time", repr(t),
                    "--r", repr(r), "--theta", repr(theta), "--s", repr(s),
                    "--format", self.fmt]
            block.append((argv, estimand, point))
        return block

    def pass_argvs(self, k: int) -> list[list[str]]:
        block = k // self.repeats
        end = (block + 1) * self.pass_size
        while len(self._calls) < end:
            self._calls.extend(self._draw_block())
        return [argv for argv, _, _ in self._calls[block * self.pass_size:end]]

    def oracle_check(self, outputs: dict, rng: random.Random,
                     perturb: float = 0.0) -> dict[tuple, list[str]]:
        """Mismatches per call key for a seeded sample of calls."""
        inputs = {tuple(argv): (estimand, point) for argv, estimand, point in self._calls}
        keys = sorted(key for key in outputs if key in inputs)
        problems: dict[tuple, list[str]] = {}
        for key in rng.sample(keys, min(self.oracle_rows, len(keys))):
            estimand, point = inputs[key]
            columns, rows = parse(outputs[key], self.fmt)
            got = _perturbed(_row_dict(columns, rows[0]), perturb)
            found = oracle.mismatches(estimand, point, got)
            if len(rows) != 1:
                found.append(f"expected one row, got {len(rows)}")
            if found:
                problems[key] = found
        return problems


class Fig7Grid:
    """`grid --recipe fig7`: t in [0, 10] x T in [0.01, 3], s = 0.5, r = 0.1, theta = 1."""

    name = "fig7-grid"
    fmt = "json"
    repeats = 2  # every pass is the same call; a second run checks determinism
    min_inputs = 1
    oracle_rows = 6
    fixed = {"r": 0.1, "theta": 1.0, "s": 0.5}

    def __init__(self, seed: int, t_points: int = 50, T_points: int = 50):
        self.argv = ["grid", "--recipe", "fig7", "--format", self.fmt]
        if (t_points, T_points) != (50, 50):
            self.argv += ["--t-points", str(t_points), "--T-points", str(T_points)]
        # numpy's linspace, as the program's, so coordinates compare exactly
        import numpy as np

        self.t_axis = np.linspace(0.0, 10.0, t_points)
        self.T_axis = np.linspace(0.01, 3.0, T_points)

    def pass_argvs(self, k: int) -> list[list[str]]:
        return [list(self.argv)]

    def oracle_check(self, outputs: dict, rng: random.Random,
                     perturb: float = 0.0) -> dict[tuple, list[str]]:
        key = tuple(self.argv)
        columns, rows = parse(outputs[key], self.fmt)
        found = []
        expected = [(float(T), float(t)) for T in self.T_axis for t in self.t_axis]
        coords = [(row[columns.index("T")], row[columns.index("t")]) for row in rows]
        if coords != expected:
            found.append(f"grid coordinates differ from the {len(self.T_axis)} x "
                         f"{len(self.t_axis)} linspace grid, temperature outer")
        for i in sorted(rng.sample(range(len(rows)), min(self.oracle_rows, len(rows)))):
            got = _perturbed(_row_dict(columns, rows[i]), perturb)
            point = dict(self.fixed, T=got["T"], t=got["t"])
            found += oracle.mismatches("T", point, got)
        return {key: found} if found else {}


class Fig10OptTime:
    """`opt-time --recipe fig10`: T in [0.2, 2], t_max = 20, r = 0.5, theta = pi/2, s = 0.5."""

    name = "fig10-opt-time"
    fmt = "csv"
    repeats = 2
    min_inputs = 1
    oracle_rows = 2
    fixed = {"r": 0.5, "theta": 0.5 * math.pi, "s": 0.5}
    # a true maximum at t_star beats both neighbours this far away
    neighbour = 0.05

    def __init__(self, seed: int, T_points: int = 40, t_max: float = 20.0):
        self.argv = ["opt-time", "--recipe", "fig10", "--format", self.fmt]
        if (T_points, t_max) != (40, 20.0):
            self.argv += ["--T-points", str(T_points), "--t-max", repr(t_max)]
        import numpy as np

        self.T_axis = np.linspace(0.2, 2.0, T_points)
        self.t_max = t_max

    def pass_argvs(self, k: int) -> list[list[str]]:
        return [list(self.argv)]

    def oracle_check(self, outputs: dict, rng: random.Random,
                     perturb: float = 0.0) -> dict[tuple, list[str]]:
        key = tuple(self.argv)
        columns, rows = parse(outputs[key], self.fmt)
        found = []
        if [row[columns.index("T")] for row in rows] != [float(T) for T in self.T_axis]:
            found.append(f"temperatures differ from linspace(0.2, 2, {len(self.T_axis)})")
        for i in sorted(rng.sample(range(len(rows)), min(self.oracle_rows, len(rows)))):
            row = _row_dict(columns, rows[i])
            T, t_star = row["T"], row["t_star"]
            q_star = row["qfi_star"] * (1.0 + perturb)
            if not 0.0 <= t_star <= self.t_max:
                found.append(f"t_star = {t_star!r} outside [0, {self.t_max}] at T = {T!r}")
                continue
            for t in (t_star - self.neighbour, t_star, t_star + self.neighbour):
                if not 0.0 <= t <= self.t_max:
                    continue
                g, dg = oracle.evaluate("T", T, t, **self.fixed)
                q = oracle.qfi(g, dg)
                tol = oracle.qfi_tolerance(g, dg)
                if t == t_star and abs(q_star - q) > tol:
                    found.append(f"qfi_star = {q_star!r}, oracle {q!r} (tolerance {tol:.3g}) "
                                 f"at T = {T!r}, t_star = {t_star!r}")
                elif t != t_star and q > q_star + tol:
                    found.append(f"qfi at t = {t!r} is {q!r}, above qfi_star = {q_star!r} "
                                 f"at T = {T!r}: t_star is not a maximum")
        return {key: found} if found else {}


WORKLOADS = {cls.name: cls for cls in (PointStream, Fig7Grid, Fig10OptTime)}
