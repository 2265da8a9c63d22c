import errno
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import adaptive_reference
import hurwitz_reference
from qfibath import __version__, cli, moments, writers
from qfibath.cli import RECIPES, main
from qfibath.probe_state import ProbeInit
from qfibath.qfi_engine import Estimand, qfi_point
from qfibath.spectral_bath import BathPoint, SpectralParams, SqueezeParams
from qfibath.sweep_optimize import GridSpec, density_grid, optimal_time

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

POINT_ARGS = [
    "point", "--estimand", "T", "--temp", "0.5", "--time", "1",
    "--r", "0.1", "--theta", "1", "--s", "0.5",
]
SWEEP_ARGS = [
    "sweep", "--estimand", "T", "--axis", "t", "--range", "0:2", "--points", "3",
    "--temp", "0.5", "--time", "1", "--theta", "1", "--r", "0.1", "--s", "0.5",
]
GRID_ARGS = [
    "grid", "--estimand", "T", "--t-range", "0:2", "--T-range", "0.4:0.8",
    "--t-points", "2", "--T-points", "2", "--r", "0.1", "--theta", "1", "--s", "0.5",
]
OPT_TIME_ARGS = [
    "opt-time", "--estimand", "T", "--T-range", "0.4:0.8", "--T-points", "1",
    "--theta", "1", "--r", "0.5", "--s", "0.5", "--t-max", "4",
]


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


def with_flags(argv, changes):
    """argv with each flag in `changes` set to its value, passed as --flag=value."""
    argv = list(argv)
    for flag, value in changes.items():
        if flag in argv:
            at = argv.index(flag)
            del argv[at:at + 2]
        argv.append(f"{flag}={value}")
    return argv


def read_csv(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    comments = [line for line in lines if line.startswith("#")]
    data = [line for line in lines if not line.startswith("#")]
    header = data[0].split(",")
    rows = [line.split(",") for line in data[1:]]
    return comments, header, rows


def data_section(path):
    text = Path(path).read_text(encoding="utf-8")
    return "\n".join(line for line in text.splitlines() if not line.startswith("#"))


def test_point_zero_time_gives_zero_information(tmp_path):
    out = tmp_path / "point.csv"
    argv = [
        "point", "--estimand", "T", "--temp", "0.5", "--time", "0",
        "--r", "0.1", "--theta", "1", "--s", "0.5", "--out", str(out),
    ]
    assert run_cli(argv) == 0
    _, header, rows = read_csv(out)
    assert header[-3] == "qfi"
    assert float(rows[0][header.index("qfi")]) == 0.0


def test_point_phase_estimand_without_squeezing(tmp_path):
    out = tmp_path / "point.csv"
    argv = [
        "point", "--estimand", "theta", "--r", "0", "--temp", "0.5",
        "--time", "1", "--theta", "0", "--s", "1", "--out", str(out),
    ]
    assert run_cli(argv) == 0
    _, header, rows = read_csv(out)
    assert float(rows[0][header.index("qfi")]) == 0.0


def test_point_round_trips_the_library_value(tmp_path):
    out = tmp_path / "point.csv"
    assert run_cli(POINT_ARGS + ["--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    sample = qfi_point(
        Estimand.TEMPERATURE,
        BathPoint(0.5, 1.0),
        SqueezeParams(0.1, 1.0),
        SpectralParams(0.5),
    )
    row = rows[0]
    assert float(row[header.index("gamma")]) == sample.gamma
    assert float(row[header.index("dgamma")]) == sample.dgamma
    assert float(row[header.index("qfi")]) == sample.qfi


def test_numbers_serialize_as_shortest_round_trip(tmp_path):
    out = tmp_path / "point.csv"
    assert run_cli(POINT_ARGS + ["--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    for cell in rows[0][1:]:
        assert repr(float(cell)) == cell


def test_missing_flag_is_named(tmp_path, capsys):
    argv = ["point", "--estimand", "T", "--temp", "0.5", "--time", "1",
            "--r", "0.1", "--theta", "1"]
    assert run_cli(argv) == 2
    assert "--s" in capsys.readouterr().err


def test_negative_squeezing_is_named(tmp_path, capsys):
    argv = ["point", "--estimand", "T", "--temp", "0.5", "--time", "1",
            "--r", "-0.1", "--theta", "1", "--s", "0.5"]
    assert run_cli(argv) == 2
    assert "--r" in capsys.readouterr().err


def test_temperature_estimand_needs_positive_temperature(capsys):
    argv = ["point", "--estimand", "T", "--temp", "0", "--time", "1",
            "--r", "0.1", "--theta", "1", "--s", "0.5"]
    assert run_cli(argv) == 2
    assert "--temp" in capsys.readouterr().err


def test_zero_width_range_is_rejected(capsys):
    argv = ["sweep", "--estimand", "T", "--axis", "T", "--range", "1:1",
            "--points", "5", "--time", "1", "--theta", "1", "--r", "0.1", "--s", "0.5"]
    assert run_cli(argv) == 2
    assert "--range" in capsys.readouterr().err


REJECTIONS = [
    (POINT_ARGS, {"--s": "0"}, "--s"),
    (POINT_ARGS, {"--s": "-1"}, "--s"),
    (POINT_ARGS, {"--s": "nan"}, "--s"),
    (POINT_ARGS, {"--omega-c": "0"}, "--omega-c"),
    (POINT_ARGS, {"--omega-c": "inf"}, "--omega-c"),
    (POINT_ARGS, {"--r": "-1"}, "--r"),
    (POINT_ARGS, {"--r": "inf"}, "--r"),
    (POINT_ARGS, {"--r": "400"}, "--r"),  # exp(2 r) overflows above R_MAX
    (POINT_ARGS, {"--theta": "inf"}, "--theta"),
    (POINT_ARGS, {"--alpha": "4"}, "--alpha"),
    (POINT_ARGS, {"--temp": "-1"}, "--temp"),
    (POINT_ARGS, {"--temp": "inf"}, "--temp"),
    (POINT_ARGS, {"--temp": "0"}, "--temp"),  # estimand T
    # rejected before any moment, so a tolerance no truncation pair can meet cannot exit 3 first
    (POINT_ARGS, {"--temp": "0", "--rel-tol": "1e-300", "--abs-tol": "1e-300"}, "--temp"),
    (POINT_ARGS, {"--time": "-1"}, "--time"),
    (POINT_ARGS, {"--rel-tol": "0"}, "--rel-tol"),
    (POINT_ARGS, {"--abs-tol": "-1"}, "--abs-tol"),
    (POINT_ARGS, {"--abs-tol": "inf"}, "--abs-tol"),
    (SWEEP_ARGS, {"--points": "1"}, "--points"),
    (SWEEP_ARGS, {"--estimand": "r", "--axis": "T", "--range": "-1:1"}, "--range"),
    (SWEEP_ARGS, {"--axis": "T", "--range": "0:1"}, "--range"),  # estimand T
    (SWEEP_ARGS, {"--axis": "alpha", "--range": "0:4"}, "--range"),
    (SWEEP_ARGS, {"--axis": "r", "--range": "0:400"}, "--range"),
    (SWEEP_ARGS, {"--axis": "r", "--range": "0:1", "--temp": "0"}, "--temp"),
    # the order and finiteness of a range are the spec records' to check, not argparse's
    (SWEEP_ARGS, {"--range": "2:1"}, "--range"),
    (SWEEP_ARGS, {"--range": "0:inf"}, "--range"),
    (GRID_ARGS, {"--t-points": "1"}, "--t-points"),
    (GRID_ARGS, {"--T-points": "1"}, "--T-points"),
    (GRID_ARGS, {"--T-range": "0:1"}, "--T-range"),  # estimand T
    (GRID_ARGS, {"--t-range": "-1:1"}, "--t-range"),
    (GRID_ARGS, {"--t-range": "3:1"}, "--t-range"),
    (OPT_TIME_ARGS, {"--T-points": "0"}, "--T-points"),
    (OPT_TIME_ARGS, {"--T-range": "0.5:0.5", "--T-points": "40"}, "--T-points"),
    (OPT_TIME_ARGS, {"--t-max": "0"}, "--t-max"),
    (OPT_TIME_ARGS, {"--t-max": "inf"}, "--t-max"),
    (OPT_TIME_ARGS, {"--estimand": "r", "--T-range": "-1:1"}, "--T-range"),
    (OPT_TIME_ARGS, {"--T-range": "2:1"}, "--T-range"),
    (OPT_TIME_ARGS, {"--T-range": "nan:1"}, "--T-range"),
]


@pytest.mark.parametrize("base, changes, flag", REJECTIONS, ids=[
    " ".join([base[0], *(f"{key}={value}" for key, value in changes.items())])
    for base, changes, _ in REJECTIONS
])
def test_rejected_value_exits_two_naming_its_flag(base, changes, flag, capsys):
    assert run_cli(with_flags(base, changes)) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag}: ")


# a valid value of each flag of cli.FLAGS, and the flags every subcommand takes
FLAG_VALUES = {
    "--estimand": "r", "--temp": "0.5", "--time": "1", "--r": "0.1", "--theta": "1",
    "--s": "0.5", "--omega-c": "2", "--alpha": "1", "--rel-tol": "1e-9",
    "--abs-tol": "1e-13", "--out": "out.csv", "--format": "json", "--recipe": "fig7",
    "--axis": "T", "--range": "0:1", "--points": "3", "--t-range": "0:1", "--T-range": "0:1",
    "--t-points": "3", "--T-points": "3", "--t-max": "4",
}
SHARED_FLAGS = ["--estimand", "--temp", "--time", "--r", "--theta", "--s", "--omega-c",
                "--alpha", "--rel-tol", "--abs-tol", "--out", "--format"]


@pytest.mark.parametrize("subcommand", list(cli.SPEC_FLAGS))
@pytest.mark.parametrize("flag", list(cli.FLAGS))
def test_each_subcommand_takes_exactly_its_flags(subcommand, flag, capsys):
    own = ["--" + dest.replace("_", "-") for dest in cli.SPEC_FLAGS[subcommand][0]]
    takes = flag in SHARED_FLAGS or (flag == "--recipe" and subcommand != "point") or flag in own
    argv = [subcommand, flag, FLAG_VALUES[flag]]
    if takes:
        args = cli.build_parser().parse_args(argv)
        assert getattr(args, flag[2:].replace("-", "_")) is not None
        assert args.handler is getattr(cli, "cmd_" + subcommand.replace("-", "_"))
    else:
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", list(cli.SPEC_FLAGS))
def test_only_opt_time_defaults_the_estimand(subcommand):
    args = cli.build_parser().parse_args([subcommand])
    assert args.estimand == ("T" if subcommand == "opt-time" else None)


def test_json_output_parses_strictly(tmp_path):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    out = tmp_path / "point.json"
    assert run_cli(POINT_ARGS + ["--theta", "nan", "--format", "json", "--out", str(out)]) == 2
    assert not out.exists()
    assert run_cli(POINT_ARGS + ["--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"), parse_constant=reject)
    assert payload["metadata"]["columns"] == cli.POINT_COLUMNS


def test_sweep_schema_and_first_row(tmp_path):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--estimand", "T", "--axis", "t", "--range", "0:2",
            "--points", "5", "--temp", "0.5", "--theta", "1", "--r", "0.1",
            "--s", "0.5", "--out", str(out)]
    assert run_cli(argv) == 0
    _, header, rows = read_csv(out)
    assert header == ["axis", "value", "gamma", "dgamma", "qfi"]
    assert len(rows) == 5
    assert all(len(row) == len(header) for row in rows)
    assert rows[0][0] == "t"
    assert float(rows[0][1]) == 0.0
    assert float(rows[0][4]) == 0.0


def test_identical_sweeps_have_identical_data_sections(tmp_path):
    argv_base = ["sweep", "--estimand", "T", "--axis", "t", "--range", "0:2",
                 "--points", "8", "--temp", "0.5", "--theta", "1", "--r", "0.1",
                 "--s", "0.5"]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(argv_base + ["--out", str(first)]) == 0
    assert run_cli(argv_base + ["--out", str(second)]) == 0
    assert data_section(first) == data_section(second)
    # only the timestamp metadata line may differ
    diff = [
        (a, b)
        for a, b in zip(first.read_text().splitlines(), second.read_text().splitlines())
        if a != b
    ]
    assert all(a.startswith("# timestamp") for a, _ in diff)


def test_json_layout(tmp_path):
    out = tmp_path / "sweep.json"
    argv = ["sweep", "--estimand", "T", "--axis", "t", "--range", "0:2",
            "--points", "4", "--temp", "0.5", "--theta", "1", "--r", "0.1",
            "--s", "0.5", "--format", "json", "--out", str(out)]
    assert run_cli(argv) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert set(payload) == {"spec", "metadata", "rows"}
    assert payload["spec"]["subcommand"] == "sweep"
    assert payload["metadata"]["columns"] == ["axis", "value", "gamma", "dgamma", "qfi"]
    assert payload["metadata"]["version"] == __version__
    assert len(payload["rows"]) == 4
    assert payload["rows"][0][0] == "t"
    assert payload["rows"][0][4] == 0.0
    opt_out = tmp_path / "opt.json"
    assert run_cli(OPT_TIME_ARGS + ["--format", "json", "--out", str(opt_out)]) == 0
    metadata = json.loads(opt_out.read_text(encoding="utf-8"))["metadata"]
    assert metadata["columns"] == ["T", "t_star", "qfi_star"]


# a column of each kind a writer may meet: strings, ints, and floats at the edges of their
# spelling; the non-finite ones no table emits, as every table checks its cells
WRITER_COLUMNS = [
    ["T", "theta", 'a "quoted", \\ non-ASCII \u03b8 string'],
    [0, -7, 2**70],
    [-0.0, 5e-324, 1e300],
    [0.1, -2.5e-310, 1.7976931348623157e308],
    [math.nan, math.inf, -math.inf],
    [1.5, math.nan, 2.0],
    [True, False, True],
    [np.float64(0.1), np.float64(-2.5e-8), np.float64(3.0)],
]
WRITER_SPEC = {"subcommand": "sweep", "estimand": "T", "range": [0.0, 2.5], "points": 3,
               "fixed": {"temp": 0.5, "alpha": math.pi / 2}}
WRITER_METADATA = {"tool": "qfibath", "version": __version__,
                   "quadrature": {"rel_tol": 1e-8, "abs_tol": 1e-12},
                   "timestamp": "2026-01-01T00:00:00+00:00", "columns": list("abcdefgh")}


@pytest.mark.parametrize("columns", [WRITER_COLUMNS, WRITER_COLUMNS[2:4], [[0.25]]])
def test_json_writer_equals_the_indented_dump_of_its_rows(columns):
    rows = [list(row) for row in zip(*columns)]
    expected = json.dumps({"spec": WRITER_SPEC, "metadata": WRITER_METADATA, "rows": rows},
                          indent=2) + "\n"
    assert writers.json_text(WRITER_SPEC, WRITER_METADATA, columns) == expected


def _cell_text(value):
    """How the CSV writer spelled each cell, one at a time, before it wrote by column."""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


@pytest.mark.parametrize("columns", [WRITER_COLUMNS, WRITER_COLUMNS[2:4], [[0.25]]])
def test_csv_writer_equals_the_cell_by_cell_spelling(columns):
    names = [f"c{k}" for k in range(len(columns))]
    text = writers.csv_text(WRITER_SPEC, WRITER_METADATA, names, columns)
    rows = [",".join(map(_cell_text, row)) for row in zip(*columns)]
    lines = text.splitlines()
    assert lines[-len(rows) - 1:] == [",".join(names), *rows]
    cells = [value for column in columns for value in column]  # the header spells by `spell`
    assert list(map(writers.spell, cells)) == list(map(_cell_text, cells))
    assert text.endswith("\n") and len(lines) == text.count("\n")


def test_minimal_grid_round_trips_against_point_calls(tmp_path):
    grid_out = tmp_path / "grid.json"
    argv = ["grid", "--estimand", "T", "--t-range", "0.5:1.5", "--T-range", "0.4:0.8",
            "--t-points", "2", "--T-points", "2", "--r", "0.1", "--theta", "1",
            "--s", "0.5", "--format", "json", "--out", str(grid_out)]
    assert run_cli(argv) == 0
    payload = json.loads(grid_out.read_text(encoding="utf-8"))
    table = density_grid(GridSpec(
        estimand=Estimand.TEMPERATURE, t_lo=0.5, t_hi=1.5, T_lo=0.4, T_hi=0.8,
        t_points=2, T_points=2, sq=SqueezeParams(0.1, 1.0), sp=SpectralParams(0.5),
    ))
    # the CLI serializes the library's grid exactly
    assert payload["rows"] == [list(row) for row in table.rows]
    # the batched grid agrees with point calls, each on its own 1 x 1 engine
    for row in payload["rows"]:
        temperature, time, gamma_value, dgamma, qfi = row
        sample = qfi_point(
            Estimand.TEMPERATURE,
            BathPoint(temperature, time),
            SqueezeParams(0.1, 1.0),
            SpectralParams(0.5),
        )
        assert abs(gamma_value - sample.gamma) <= max(1e-8 * sample.gamma, 1e-12)
        assert abs(dgamma - sample.dgamma) <= 1e-8 * max(abs(sample.dgamma), sample.gamma)
        assert qfi == pytest.approx(sample.qfi, rel=1e-7)


def test_grid_csv_columns_and_zero_time_column(tmp_path):
    out = tmp_path / "grid.csv"
    argv = ["grid", "--estimand", "T", "--t-range", "0:2", "--T-range", "0.4:0.8",
            "--t-points", "3", "--T-points", "2", "--r", "0.1", "--theta", "1",
            "--s", "0.5", "--out", str(out)]
    assert run_cli(argv) == 0
    comments, header, rows = read_csv(out)
    assert header == ["T", "t", "gamma", "dgamma", "qfi"]
    assert len(rows) == 6
    for row in rows:
        if float(row[1]) == 0.0:
            assert float(row[4]) == 0.0
    joined = "\n".join(comments)
    for needle in ("s = 0.5", "r = 0.1", "theta = 1.0", "omega_c = 1.0", "rel_tol = 1e-08"):
        assert needle in joined


def test_opt_time_single_temperature_matches_the_library(tmp_path):
    out = tmp_path / "opt.csv"
    argv = ["opt-time", "--estimand", "T", "--T-range", "0.4:0.8", "--T-points", "1",
            "--theta", "1.5707963267948966", "--r", "0.5", "--s", "0.5",
            "--t-max", "4", "--out", str(out)]
    assert run_cli(argv) == 0
    _, header, rows = read_csv(out)
    assert header == ["T", "t_star", "qfi_star"]
    assert len(rows) == 1
    result = optimal_time(
        0.4,
        Estimand.TEMPERATURE,
        SqueezeParams(0.5, 0.5 * math.pi),
        SpectralParams(0.5),
        ProbeInit(),
        t_max=4.0,
    )
    assert float(rows[0][0]) == 0.4
    assert float(rows[0][1]) == result.t_star
    assert float(rows[0][2]) == result.qfi_star


def test_opt_time_one_temperature_range_is_the_library_search(capsys):
    # OptimalTimeSpec accepts T_lo == T_hi, so the CLI does too
    argv = with_flags(OPT_TIME_ARGS, {"--T-range": "0.5:0.5", "--format": "json"})
    assert run_cli(argv) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    result = optimal_time(0.5, Estimand.TEMPERATURE, SqueezeParams(0.5, 1.0),
                          SpectralParams(0.5), t_max=4.0)
    assert rows == [[0.5, result.t_star, result.qfi_star]]


def test_opt_time_curve_matches_the_library_per_temperature(tmp_path):
    out = tmp_path / "opt.json"
    argv = ["opt-time", "--estimand", "r", "--T-range", "0:2", "--T-points", "3",
            "--theta", "1", "--r", "0.5", "--s", "1", "--t-max", "6",
            "--format", "json", "--out", str(out)]
    assert run_cli(argv) == 0
    rows = json.loads(out.read_text(encoding="utf-8"))["rows"]
    assert [row[0] for row in rows] == [0.0, 1.0, 2.0]
    for temperature, t_star, qfi_star in rows:
        result = optimal_time(
            temperature, Estimand.SQUEEZE_AMPLITUDE, SqueezeParams(0.5, 1.0),
            SpectralParams(1.0), t_max=6.0,
        )
        assert t_star == result.t_star
        assert abs(qfi_star - result.qfi_star) <= 1e-12 * result.qfi_star


def test_out_in_a_missing_directory_exits_two(tmp_path, capsys):
    out = tmp_path / "missing" / "point.csv"
    assert run_cli(POINT_ARGS + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out: ") and "Traceback" not in err
    assert not out.parent.exists()


def test_out_naming_a_directory_exits_two_and_leaves_it_alone(tmp_path, capsys):
    (tmp_path / "kept.txt").write_text("kept", encoding="utf-8")
    assert run_cli(POINT_ARGS + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: --out: ")
    assert tmp_path.is_dir()
    assert [path.name for path in tmp_path.iterdir()] == ["kept.txt"]
    assert (tmp_path / "kept.txt").read_text(encoding="utf-8") == "kept"


def _count_batches(monkeypatch):
    """The list each `MomentEngine.moments` batch appends to; no batch computes."""
    batches = []
    monkeypatch.setattr(moments.MomentEngine, "moments", lambda *args: batches.append(args))
    return batches


def test_out_in_a_missing_directory_fails_before_any_moment(tmp_path, capsys, monkeypatch):
    batches = _count_batches(monkeypatch)
    out = tmp_path / "missing" / "x.csv"
    assert run_cli(["grid", "--recipe", "fig7", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: --out: No such file or directory: ")
    assert batches == []
    assert not out.parent.exists()


# every thermal point exits 3 at s = 150, after the --out check
FAILING_POINT = with_flags(POINT_ARGS, {"--s": "150"})


def test_a_failing_call_leaves_a_missing_out_missing(tmp_path, capsys):
    out = tmp_path / "point.csv"
    assert run_cli(FAILING_POINT + ["--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: ")
    assert list(tmp_path.iterdir()) == []
    # through a dangling symbolic link: the link stays, and its target stays missing
    link = tmp_path / "link.csv"
    link.symlink_to("target.csv")
    assert run_cli(FAILING_POINT + ["--out", str(link)]) == 3
    assert capsys.readouterr().err.startswith("numerical failure: ")
    assert list(tmp_path.iterdir()) == [link] and link.is_symlink()
    assert not (tmp_path / "target.csv").exists()


def test_a_failing_call_keeps_the_bytes_of_an_existing_out(tmp_path):
    out = tmp_path / "point.csv"
    out.write_bytes(b"kept,bytes\n1,2\n")
    assert run_cli(FAILING_POINT + ["--out", str(out)]) == 3
    assert out.read_bytes() == b"kept,bytes\n1,2\n"


class _FullDisk:
    """A file opened as `open` would, whose every write fails as on a full disk."""

    def __init__(self, path, mode, encoding):
        self.stream = open(path, mode, encoding=encoding)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stream.close()

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_a_write_failing_after_its_file_opened_exits_two_and_removes_the_file(
        tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(writers, "open", _FullDisk, raising=False)
    out = tmp_path / "point.csv"
    assert run_cli(POINT_ARGS + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --out: No space left on device: {str(out)!r}\n"
    assert list(tmp_path.iterdir()) == []


def test_a_write_failing_into_an_existing_out_keeps_its_bytes(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(writers, "open", _FullDisk, raising=False)
    out = tmp_path / "kept.csv"
    out.write_bytes(b"kept,bytes\n1,2\n")
    assert run_cli(POINT_ARGS + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --out: No space left on device: {str(out)!r}\n"
    assert out.read_bytes() == b"kept,bytes\n1,2\n"
    assert list(tmp_path.iterdir()) == [out]


def test_out_through_a_symbolic_link_replaces_the_file_it_names(tmp_path):
    out = tmp_path / "point.csv"
    out.write_bytes(b"old\n")
    out.chmod(0o640)
    link = tmp_path / "link.csv"
    link.symlink_to(out)
    assert run_cli(POINT_ARGS + ["--out", str(link)]) == 0
    assert link.is_symlink()
    assert out.read_text(encoding="utf-8").startswith("# tool = qfibath")
    assert out.stat().st_mode & 0o777 == 0o640
    assert sorted(path.name for path in tmp_path.iterdir()) == ["link.csv", "point.csv"]


def _refuses_new_files(directory, batches, capsys):
    """Run fig7 into the writable `kept.csv` of a `directory` that refuses a new file: it
    fails there, before any moment batch, and the file keeps its bytes."""
    out = directory / "kept.csv"
    assert run_cli(["grid", "--recipe", "fig7", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --out: Permission denied: {str(out)!r}\n"
    assert batches == []
    assert out.read_bytes() == b"kept\n"
    assert list(directory.iterdir()) == [out]


def test_out_in_a_directory_refusing_a_new_file_fails_before_any_moment(
        tmp_path, capsys, monkeypatch):
    def refusing_open(path, mode="r", **kwargs):
        # this directory refuses every file it does not have yet
        if os.path.dirname(path) == str(tmp_path) and not os.path.exists(path):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        return open(path, mode, **kwargs)

    monkeypatch.setattr(writers, "open", refusing_open, raising=False)
    (tmp_path / "kept.csv").write_bytes(b"kept\n")
    _refuses_new_files(tmp_path, _count_batches(monkeypatch), capsys)


@pytest.mark.skipif(os.geteuid() == 0, reason="root may create files in a read-only directory")
def test_out_in_a_read_only_directory_fails_before_any_moment(tmp_path, capsys, monkeypatch):
    directory = tmp_path / "ro"
    directory.mkdir()
    (directory / "kept.csv").write_bytes(b"kept\n")
    directory.chmod(0o555)
    try:
        _refuses_new_files(directory, _count_batches(monkeypatch), capsys)
    finally:
        directory.chmod(0o755)


@pytest.mark.skipif(os.geteuid() == 0, reason="root may write a read-only file")
def test_a_read_only_out_fails_before_any_moment_and_keeps_its_bytes(
        tmp_path, capsys, monkeypatch):
    batches = _count_batches(monkeypatch)
    out = tmp_path / "kept.csv"
    out.write_bytes(b"kept\n")
    out.chmod(0o444)
    assert run_cli(["grid", "--recipe", "fig7", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --out: Permission denied: {str(out)!r}\n"
    assert batches == []
    assert out.read_bytes() == b"kept\n"
    assert out.stat().st_mode & 0o777 == 0o444


def test_a_new_out_takes_the_mode_of_the_umask(tmp_path):
    out = tmp_path / "point.csv"
    previous = os.umask(0o027)
    try:
        assert run_cli(POINT_ARGS + ["--out", str(out)]) == 0
    finally:
        os.umask(previous)
    assert out.stat().st_mode & 0o777 == 0o640


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_out_to_a_full_device_exits_two_and_leaves_the_device(capsys):
    assert run_cli(POINT_ARGS + ["--out", "/dev/full"]) == 2
    assert capsys.readouterr().err.startswith("error: --out: No space left on device: ")
    assert os.path.exists("/dev/full")


@pytest.mark.parametrize("base, flag, value", [
    (SWEEP_ARGS, "--range", "1"),
    (GRID_ARGS, "--t-range", "a:b"),
    (GRID_ARGS, "--T-range", "1:2:3"),
])
def test_a_range_not_of_the_form_lo_hi_exits_two(base, flag, value, capsys):
    assert run_cli(with_flags(base, {flag: value})) == 2
    assert f"argument {flag}: expected lo:hi, got {value!r}" in capsys.readouterr().err


# theta = 0 and omega t <= 1e-4 at r = 20: b (M0 - even), b = e^(2r) / 2, cancels to about
# (omega t)**2 of its size and carries most of gamma. Both truncations share that rounding,
# so their gap cannot see it; without a bound on it these exited 0 up to 1.3e-6 off
ROUNDING_POINTS = {
    "r-T0.5-t1e-5": ["--estimand", "r", "--temp", "0.5", "--time", "1e-5"],
    "r-T0-t1e-5": ["--estimand", "r", "--temp", "0", "--time", "1e-5"],
    "T-T3-t1e-4": ["--estimand", "T", "--temp", "3", "--time", "1e-4"],
}


@pytest.mark.parametrize("flags", ROUNDING_POINTS.values(), ids=list(ROUNDING_POINTS))
def test_a_point_whose_assembly_rounding_exceeds_the_tolerance_exits_three(flags, tmp_path,
                                                                          capsys):
    out = tmp_path / "point.csv"
    argv = ["point", *flags, "--r", "20", "--theta", "0", "--s", "0.5", "--out", str(out)]
    assert run_cli(argv) == 3
    temperature, time_ = float(flags[3]), float(flags[5])
    assert capsys.readouterr().err.startswith(
        "numerical failure: rounding of the assembly fails at "
        f"(T, t) = ({temperature!r}, {time_!r}): gamma ")
    assert not out.exists()


def test_a_point_whose_gamma_overflows_exits_three_saying_so(capsys):
    # gamma is about e^(2r) times the moments, beyond the float range at r = 352, t = 1000
    argv = ["point", "--estimand", "T", "--temp", "0.5", "--time", "1000", "--r", "352",
            "--theta", "1", "--s", "0.3"]
    assert run_cli(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: gamma or d gamma overflows at "
                          "(T, t) = (0.5, 1000.0): gamma inf"), err


@pytest.mark.parametrize("flags, at", [
    (["--estimand", "T", "--temp", "0.001", "--time", "0.3", "--s", "150"], "(0.001, 0.3)"),
    (["--estimand", "r", "--temp", "0", "--time", "5.1e-08", "--s", "155"], "(0.0, 5.1e-08)"),
], ids=["thermal-s150", "vacuum-series-s155"])
def test_a_point_whose_gamma_coefficients_overflow_exits_three_saying_so(flags, at, capsys):
    # above s = 148.6 Gamma(s + 23) of the thermal series overflows, and above s = 153.6
    # Gamma(s + 18) of the series the vacuum takes below omega_c t = 1e-3
    assert run_cli(["point", *flags, "--r", "0.5", "--theta", "1"]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: a Gamma coefficient of the moment series overflows at "
        f"s = {float(flags[-1])!r}, so the moments are not finite at (T, t) = {at}: "
        "gamma nan, dgamma nan\n")


def test_a_point_above_gamma_350_prints_its_representable_qfi(capsys):
    # exp(2 gamma) overflows at gamma = 355, yet the qfi, 2.3e-304, is a normal float:
    # mpmath at 50 digits gives 2.2935619811965754e-304 from the printed gamma and d gamma
    argv = ["point", "--estimand", "r", "--temp", "0.5", "--time", "40.354", "--r", "0.5",
            "--theta", "1", "--s", "0.5"]
    assert run_cli(argv) == 0
    header, row = capsys.readouterr().out.splitlines()[-2:]
    cells = dict(zip(header.split(","), row.split(",")))
    assert float(cells["gamma"]) > 350.0
    for column in ("qfi", "cfi_term"):
        assert float(cells[column]) == pytest.approx(2.2935619811965754e-304, rel=1e-12)


# one call of each subcommand: its CSV metadata lines and header row (the tool line and the
# timestamp left out) and its JSON spec object, keys in order. A sweep writes time before
# temp and leaves its axis out of `fixed`; a point writes temp first.
SPEC_BLOCKS = {
    "point": (POINT_ARGS, """\
# subcommand = point
# estimand = T
# temp = 0.5
# time = 1.0
# r = 0.1
# theta = 1.0
# s = 0.5
# omega_c = 1.0
# alpha = 1.5707963267948966
# rel_tol = 1e-08
# abs_tol = 1e-12
estimand,T,t,r,theta,s,omega_c,alpha,gamma,dgamma,qfi,cfi_term,quantum_term
""", '{"subcommand": "point", "estimand": "T", "fixed": {"temp": 0.5, "time": 1.0, "r": 0.1, '
        '"theta": 1.0, "s": 0.5, "omega_c": 1.0, "alpha": 1.5707963267948966}}'),
    "sweep-t": (SWEEP_ARGS, """\
# subcommand = sweep
# estimand = T
# axis = t
# range = 0.0:2.0
# points = 3
# temp = 0.5
# r = 0.1
# theta = 1.0
# s = 0.5
# omega_c = 1.0
# alpha = 1.5707963267948966
# rel_tol = 1e-08
# abs_tol = 1e-12
axis,value,gamma,dgamma,qfi
""", '{"subcommand": "sweep", "estimand": "T", "axis": "t", "range": [0.0, 2.0], "points": 3, '
        '"fixed": {"temp": 0.5, "r": 0.1, "theta": 1.0, "s": 0.5, "omega_c": 1.0, '
        '"alpha": 1.5707963267948966}}'),
    "sweep-alpha": (with_flags(SWEEP_ARGS, {"--axis": "alpha", "--range": "0:3"}), """\
# subcommand = sweep
# estimand = T
# axis = alpha
# range = 0.0:3.0
# points = 3
# time = 1.0
# temp = 0.5
# r = 0.1
# theta = 1.0
# s = 0.5
# omega_c = 1.0
# rel_tol = 1e-08
# abs_tol = 1e-12
axis,value,gamma,dgamma,qfi
""", '{"subcommand": "sweep", "estimand": "T", "axis": "alpha", "range": [0.0, 3.0], '
        '"points": 3, "fixed": {"time": 1.0, "temp": 0.5, "r": 0.1, "theta": 1.0, "s": 0.5, '
        '"omega_c": 1.0}}'),
    "grid": (with_flags(GRID_ARGS, {"--alpha": "1"}), """\
# subcommand = grid
# estimand = T
# t_range = 0.0:2.0
# T_range = 0.4:0.8
# t_points = 2
# T_points = 2
# r = 0.1
# theta = 1.0
# s = 0.5
# omega_c = 1.0
# alpha = 1.0
# rel_tol = 1e-08
# abs_tol = 1e-12
T,t,gamma,dgamma,qfi
""", '{"subcommand": "grid", "estimand": "T", "t_range": [0.0, 2.0], "T_range": [0.4, 0.8], '
        '"t_points": 2, "T_points": 2, "fixed": {"r": 0.1, "theta": 1.0, "s": 0.5, '
        '"omega_c": 1.0, "alpha": 1.0}}'),
    # theta is written as the record stores it, reduced to [0, 2 pi)
    "opt-time": (with_flags(OPT_TIME_ARGS, {"--theta": "7"}), """\
# subcommand = opt-time
# estimand = T
# T_range = 0.4:0.8
# T_points = 1
# t_max = 4.0
# r = 0.5
# theta = 0.7168146928204138
# s = 0.5
# omega_c = 1.0
# alpha = 1.5707963267948966
# rel_tol = 1e-08
# abs_tol = 1e-12
T,t_star,qfi_star
""", '{"subcommand": "opt-time", "estimand": "T", "T_range": [0.4, 0.8], "T_points": 1, '
        '"t_max": 4.0, "fixed": {"r": 0.5, "theta": 0.7168146928204138, "s": 0.5, '
        '"omega_c": 1.0, "alpha": 1.5707963267948966}}'),
}


@pytest.mark.parametrize("name", list(SPEC_BLOCKS))
def test_spec_block_of_each_subcommand(name, capsys):
    argv, csv_head, json_spec = SPEC_BLOCKS[name]
    assert run_cli(argv + ["--format", "csv"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if not line.startswith("# timestamp")]
    assert lines[0] == f"# tool = qfibath {__version__}"
    assert "\n".join(lines[1:csv_head.count("\n") + 1]) + "\n" == csv_head
    assert run_cli(argv + ["--format", "json"]) == 0
    assert json.dumps(json.loads(capsys.readouterr().out)["spec"]) == json_spec


def test_stdout_output_matches_file_output(tmp_path, capsys):
    out = tmp_path / "point.csv"
    assert run_cli(POINT_ARGS + ["--out", str(out)]) == 0
    assert run_cli(POINT_ARGS + ["--out", "-"]) == 0
    stdout = capsys.readouterr().out
    strip = lambda text: [l for l in text.splitlines() if not l.startswith("#")]
    assert strip(stdout) == strip(out.read_text(encoding="utf-8"))


def test_rel_tol_flag_sets_the_tolerance(tmp_path):
    out = tmp_path / "point.csv"
    assert run_cli(POINT_ARGS + ["--rel-tol", "1e-07", "--out", str(out)]) == 0
    comments, _, _ = read_csv(out)
    assert any("rel_tol = 1e-07" in line for line in comments)


def test_recipe_expands_and_explicit_flags_win(tmp_path):
    out = tmp_path / "fig1a.csv"
    argv = ["sweep", "--recipe", "fig1a", "--points", "6", "--out", str(out)]
    assert run_cli(argv) == 0
    comments, header, rows = read_csv(out)
    assert len(rows) == 6  # explicit --points overrode the recipe's 200
    assert rows[0][0] == "T"
    assert float(rows[0][1]) == 0.01
    joined = "\n".join(comments)
    assert "s = 0.5" in joined and "time = 1.0" in joined and "r = 0.1" in joined


def test_recipe_subcommand_mismatch(capsys):
    assert run_cli(["grid", "--recipe", "fig1a"]) == 2
    assert "--recipe" in capsys.readouterr().err


def test_unknown_recipe(capsys):
    assert run_cli(["sweep", "--recipe", "fig99"]) == 2
    assert "fig99" in capsys.readouterr().err


def test_every_documented_panel_has_a_recipe():
    expected = {f"fig{i}{p}" for i in range(1, 7) for p in "abcd"}
    expected |= {"fig7", "fig8", "fig9", "fig10"}
    assert set(RECIPES) == expected


def test_reproduce_figures_writes_every_recipe_table(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_figures.py"
    spec = importlib.util.spec_from_file_location("reproduce_figures", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main(["--outdir", str(tmp_path)]) == 0
    assert sorted(path.stem for path in tmp_path.glob("*.csv")) == sorted(RECIPES)
    assert len(RECIPES) == 28


def test_quadrature_starvation_exits_three(capsys, monkeypatch):
    # a first truncation of no direct and no Bernoulli term disagrees with the second
    monkeypatch.setattr(moments, "TRUNCATIONS", ((0, 0), moments.TRUNCATIONS[1]))
    argv = ["point", "--estimand", "T", "--temp", "1", "--time", "3.7",
            "--r", "1", "--theta", "1", "--s", "0.5"]
    assert run_cli(argv) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_a_point_failing_rounding_and_truncations_reports_the_rounding(capsys, monkeypatch):
    # r = 20 at t = 1e-5, theta = 0 exceeds the tolerance in its rounding bound, and with
    # the starved first truncation in its gap on gamma too: the rounding check runs first
    monkeypatch.setattr(moments, "TRUNCATIONS", ((0, 0), moments.TRUNCATIONS[1]))
    engine = moments.MomentEngine(Estimand.SQUEEZE_AMPLITUDE, SpectralParams(0.5),
                                  moments.DEFAULT_QUADRATURE)
    (first, gamma_value, rounding), _ = engine.exponents(
        engine.moments([0.5], [1e-5]), [SqueezeParams(20.0, 0.0)])[..., 0]
    tolerance = 1e-8 * gamma_value
    assert abs(first - gamma_value) > 1e3 * tolerance and rounding > tolerance
    argv = ["point", "--estimand", "r", "--temp", "0.5", "--time", "1e-5",
            "--r", "20", "--theta", "0", "--s", "0.5"]
    assert run_cli(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: rounding of the assembly fails at "), err


def test_point_with_an_overflowing_derivative_exits_three(capsys, monkeypatch):
    # the d coth / dT moments of both truncations grow alike, so they agree, but the qfi
    # overflows: the point must fail as every table cell does, not print qfi = inf
    batch = moments.MomentEngine.moments

    def poisoned(engine, temperatures, times):
        out = batch(engine, temperatures, times)
        out[:, 1] *= 1e200
        return out

    monkeypatch.setattr(moments.MomentEngine, "moments", poisoned)
    assert run_cli(POINT_ARGS) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: non-finite sample: "), err


def test_point_at_the_underflow_limit_gives_zero_information(tmp_path):
    # gamma underflows to 0 while dgamma is the subnormal -5e-324: the qfi is below
    # 1e-300, not a degenerate input
    out = tmp_path / "point.csv"
    argv = ["point", "--estimand", "r", "--temp", "0.5", "--time", "1e-161", "--r", "2",
            "--theta", "0", "--s", "0.5", "--out", str(out)]
    assert run_cli(argv) == 0
    _, header, rows = read_csv(out)
    assert float(rows[0][header.index("gamma")]) == 0.0
    assert rows[0][header.index("qfi")] == "0.0"


@pytest.mark.parametrize("argv", [
    ["point", "--time", "1e-160"],
    ["sweep", "--axis", "t", "--range", "0:1e-159", "--points", "5"],
])
def test_a_vanishing_gamma_with_a_normal_derivative_exits_three(argv, capsys):
    # gamma's terms cancel to 0 near theta = 0 while sinh(2 r) keeps dgamma a normal
    # number: the engine's exponents fail numerically, not the user's input
    argv = argv + ["--estimand", "theta", "--temp", "0", "--r", "20", "--theta", "0.001",
                   "--s", "0.5"]
    assert run_cli(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "gamma = 0.0 is at the t -> 0 limit" in err


@pytest.mark.parametrize("r, theta, qfi", [
    ("4", "0.0006709252307053706", 8.212e-7),
    ("5", "9.079985986933496e-05", 3.964e-6),
])
def test_point_below_gamma_1e_12_takes_the_closed_form(r, theta, qfi, tmp_path):
    # gamma < 1e-12 while dgamma / gamma is near sinh(2 r): no floor may pin the qfi to
    # 0 or refuse the point
    out = tmp_path / "point.csv"
    argv = ["point", "--estimand", "theta", "--temp", "0.5", "--time", "3.3e-05", "--s", "0.5",
            "--r", r, "--theta", theta, "--out", str(out)]
    assert run_cli(argv) == 0
    _, header, rows = read_csv(out)
    gamma_value, dgamma, got = (float(rows[0][header.index(name)])
                                for name in ("gamma", "dgamma", "qfi"))
    assert 0.0 < gamma_value < 1e-12
    assert got == pytest.approx(dgamma**2 / math.expm1(2.0 * gamma_value), rel=1e-8)
    assert got == pytest.approx(qfi, rel=1e-3)


def test_cancelling_panels_do_not_raise_a_false_convergence_error(tmp_path):
    # the adaptive reference's boundary panel of the r-derivative warns (QUADPACK
    # ier=5) while meeting its own tolerance; the total is smaller than the panels
    # because they cancel. The reference must still agree with the CLI's value.
    out = tmp_path / "point.csv"
    temperature, time = 2.9981285475680455, 5.874971139014988
    r, theta, s = 0.5621318885832811, 0.6438194072155007, 0.40415440865457253
    argv = ["point", "--estimand", "r", "--temp", repr(temperature), "--time", repr(time),
            "--r", repr(r), "--theta", repr(theta), "--s", repr(s), "--out", str(out)]
    assert run_cli(argv) == 0
    _, header, rows = read_csv(out)
    gamma_value = float(rows[0][header.index("gamma")])
    dgamma = float(rows[0][header.index("dgamma")])
    reference = adaptive_reference.gamma_partial(
        Estimand.SQUEEZE_AMPLITUDE, BathPoint(temperature, time), SqueezeParams(r, theta),
        SpectralParams(s),
    )
    assert abs(dgamma - reference) <= 1e-8 * max(abs(dgamma), gamma_value)


# (argv, gamma, dgamma) with gamma and dgamma from an independent 20-digit mpmath
# quadrature of the integral's definition. The first point lost 1.1e-7 relative
# on gamma to adaptive quadrature; the other two made it exit 3. The next five
# sit at s <= 0.05; their values come from the 30-digit log-variable mpmath integral of
# scripts/make_oracle_points.py. Adaptive quadrature was 3.4e-4 off on d gamma
# at the two s ~ 0.02 points and 4.9e-7 off at s = 0.001, and exited 3 on the two
# s = 0.05 points. The last six sit at omega_c t = 1e-6 and 1e-4, below the
# cutoff where the vacuum moments switch from closed form to Taylor series.
ORACLE_POINTS = [
    (["--estimand", "T", "--temp", "1.5994425362135922", "--time", "6.093650998519315",
      "--r", "0.9489758460143188", "--theta", "2.000962607736446", "--s", "0.939139385761002"],
     52.27075148237731, 32.384021376012534),
    (["--estimand", "r", "--temp", "0", "--time", "1000", "--r", "0.5", "--theta", "1",
      "--s", "3"],
     1.8605646890210181, 3.1841362169675804),
    (["--estimand", "T", "--temp", "0.5", "--time", "1", "--r", "0.1", "--theta", "1",
      "--s", "0.5", "--omega-c", "1000"],
     97.69393185984286, 63.14516069927912),
    (["--estimand", "T", "--temp", "0.001010978599556907", "--time", "0.011872206906483511",
      "--r", "0.5", "--theta", "1", "--s", "0.018298995385134315",
      "--omega-c", "0.5989569279067135"],
     2.6315401433198988e-5, 0.0037964051923142371),
    (["--estimand", "T", "--temp", "0.01760295524751876", "--time", "0.32784051923015306",
      "--r", "0.5", "--theta", "1", "--s", "0.024814729752182865",
      "--omega-c", "11.041716622533146"],
     3.4876039677310338, 37.926281047232099),
    (["--estimand", "r", "--temp", "0.5", "--time", "1000", "--r", "0.5", "--theta", "1",
      "--s", "0.05", "--omega-c", "1"],
     6517749.6889266575, 4494301.7144798078),
    (["--estimand", "r", "--temp", "0", "--time", "1", "--r", "0.5", "--theta", "1",
      "--s", "0.05", "--omega-c", "1000"],
     1282.1278316761485, 1441.1139084295346),
    (["--estimand", "T", "--temp", "0.001", "--time", "0.3", "--r", "0.5", "--theta", "1",
      "--s", "0.001", "--omega-c", "1"],
     0.11178401153746624, 81.248749121055489),
    (["--estimand", "T", "--temp", "0.5", "--time", "1e-06", "--r", "1.5", "--theta", "0",
      "--s", "2.5", "--omega-c", "1"],
     8.7221148791342382e-14, 2.2061922311624236e-14),
    (["--estimand", "T", "--temp", "0.5", "--time", "0.0001", "--r", "1.5", "--theta", "0",
      "--s", "2.5", "--omega-c", "1"],
     8.7222465163810203e-10, 2.2061972038526369e-10),
    (["--estimand", "r", "--temp", "0.5", "--time", "1e-06", "--r", "1.5", "--theta", "0",
      "--s", "10", "--omega-c", "1"],
     9.0334681715534402e-8, -1.806693586205606e-7),
    (["--estimand", "r", "--temp", "0.5", "--time", "0.0001", "--r", "1.5", "--theta", "0",
      "--s", "10", "--omega-c", "1"],
     0.00090346667036894922, -0.0018064522900634113),
    (["--estimand", "theta", "--temp", "0.5", "--time", "1e-06", "--r", "1.5", "--theta", "0",
      "--s", "0.5", "--omega-c", "1"],
     5.2451282519966553e-14, -8.048143530142302e-18),
    (["--estimand", "theta", "--temp", "0.5", "--time", "0.0001", "--r", "1.5", "--theta", "0",
      "--s", "0.5", "--omega-c", "1"],
     5.2451370189266316e-10, -8.048143382142258e-12),
]


@pytest.mark.parametrize("flags, gamma_value, dgamma", ORACLE_POINTS,
                         ids=["point-stream", "t=1000", "omega_c=1000", "s=0.018",
                              "s=0.025", "s=0.05,t=1000", "s=0.05,omega_c=1000", "s=0.001",
                              "T,t=1e-6", "T,t=1e-4", "r,t=1e-6", "r,t=1e-4", "theta,t=1e-6",
                              "theta,t=1e-4"])
def test_point_matches_the_mpmath_oracle(flags, gamma_value, dgamma, tmp_path):
    out = tmp_path / "point.csv"
    assert run_cli(["point", *flags, "--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    got_gamma = float(rows[0][header.index("gamma")])
    got_dgamma = float(rows[0][header.index("dgamma")])
    assert abs(got_gamma - gamma_value) <= 1e-8 * gamma_value
    assert abs(got_dgamma - dgamma) <= 1e-8 * max(abs(dgamma), gamma_value)


def test_the_environment_sets_no_tolerance(monkeypatch, capsys):
    # every value comes from argv: QFIBATH_REL_TOL, even at a value the record would
    # reject, changes neither the run nor its bytes
    def run():
        assert run_cli(POINT_ARGS) == 0
        out, err = capsys.readouterr()
        return [line for line in out.splitlines() if not line.startswith("# timestamp")], err

    plain = run()
    monkeypatch.setenv("QFIBATH_REL_TOL", "0")
    assert run() == plain
    assert "# rel_tol = 1e-08" in plain[0]


@pytest.mark.parametrize("subcommand", list(cli.SPEC_FLAGS))
def test_the_removed_omega_zero_flag_exits_two(subcommand, capsys):
    # pure dephasing leaves the qubit frequency out of every result, so no flag sets it
    with pytest.raises(SystemExit) as exc:
        main([subcommand, "--omega-0", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --omega-0" in capsys.readouterr().err


def test_module_entry_point_runs_in_a_subprocess():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-m", "qfibath", *POINT_ARGS],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0
    assert "qfi" in completed.stdout


def test_importing_the_cli_leaves_scipy_unloaded():
    # nor does a point at s = 0.02 or one whose thermal terms overflow (s = 150)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    code = textwrap.dedent("""
        import contextlib, io, sys
        import qfibath.cli as cli
        cli.build_parser()
        point = ["point", "--estimand", "T", "--temp", "0.5", "--time", "1", "--r", "0.1",
                 "--theta", "1", "--s"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes = [cli.main(point + ["0.02"]), cli.main(point + ["150"])]
        print(codes, "scipy" in sys.modules)
    """)
    completed = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[0, 3] False"


@pytest.mark.parametrize("base, where", [
    (POINT_ARGS, r"at \(T, t\) = \(0\.5, 1\.0\)"),
    (SWEEP_ARGS, r"sweep aborted at t = 1\.0"),  # t = 0 is exactly 0 at any s
    (GRID_ARGS, r"grid aborted at \(T, t\) = \(0\.4, 2\.0\)"),
    (OPT_TIME_ARGS, r"search aborted at \(T, t\) = \(0\.4, 0\.0634"),
], ids=["point", "sweep", "grid", "opt-time"])
def test_overflowing_spectral_density_exits_three_naming_the_point(base, where, tmp_path, capsys):
    # at s = 150, Gamma(s + 23) of the thermal terms overflows, and at s = 200 so does
    # Gamma(s) of the vacuum moments, so no row may be written
    out = tmp_path / "table.csv"
    for s in ("150", "200"):
        assert run_cli(with_flags(base, {"--s": s}) + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and re.search(where, err), (s, err)
        assert f"a Gamma coefficient of the moment series overflows at s = {s}.0" in err, err
        assert "Traceback" not in err
        assert not out.exists()


# the domain's corner, omega_c = 1000, T = 100, t = 1000, s = 10; at s = 1e6 Gamma(s)
# overflows
DOMAIN_CORNER = {
    "point": (POINT_ARGS, {"--omega-c": "1000", "--temp": "100", "--time": "1000"}),
    "sweep": (SWEEP_ARGS, {"--omega-c": "1000", "--temp": "100", "--range": "0:1000"}),
    "grid": (GRID_ARGS, {"--omega-c": "1000", "--T-range": "0.4:100", "--t-range": "0:1000"}),
    "opt-time": (OPT_TIME_ARGS, {"--omega-c": "1000", "--T-range": "0.4:100", "--T-points": "2",
                                 "--t-max": "1000"}),
}


@pytest.mark.parametrize("subcommand", list(DOMAIN_CORNER))
def test_domain_corner_matches_the_oracle_and_overflowing_s_exits_three(subcommand, tmp_path,
                                                                         capsys):
    base, corner = DOMAIN_CORNER[subcommand]
    out = tmp_path / "table.csv"
    assert run_cli(with_flags(base, {"--s": "1e6"}) + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "at (T, t) = (" in err, err
    assert not out.exists()
    assert run_cli(with_flags(base, {**corner, "--s": "10"}) + ["--out", str(out)]) == 0
    _, header, rows = read_csv(out)
    sq = SqueezeParams(0.5 if subcommand == "opt-time" else 0.1, 1.0)
    sp = SpectralParams(10.0, 1000.0)
    for row in rows:
        cells = dict(zip(header, row))
        temperature = float(cells.get("T", 100.0))  # a sweep over t keeps T = 100
        time_ = float(cells.get("t", cells.get("value", cells.get("t_star"))))
        expected = hurwitz_reference.exponents(
            Estimand.TEMPERATURE, BathPoint(temperature, time_), sq, sp)
        if subcommand == "opt-time":  # only the information is written
            gamma_value, dgamma = expected
            information = dgamma**2 / math.expm1(2.0 * gamma_value) if time_ > 0.0 else 0.0
            assert abs(float(cells["qfi_star"]) - information) <= 1e-7 * information, row
            continue
        gamma_value, dgamma = float(cells["gamma"]), float(cells["dgamma"])
        assert abs(gamma_value - expected[0]) <= 1e-8 * expected[0], (row, expected)
        assert abs(dgamma - expected[1]) <= 1e-8 * max(abs(expected[1]), expected[0]), row


def test_consecutive_calls_match_the_same_calls_run_alone(capsys):
    # the recipe's r estimand would show in the opt-time call, which leaves
    # --estimand unset, if recipe values leaked into the next call's namespace
    calls = [
        ["sweep", "--recipe", "fig2a", "--points", "5"],
        POINT_ARGS,
        [arg for arg in OPT_TIME_ARGS if arg not in ("--estimand", "T")],
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    strip = lambda text: [line for line in text.splitlines() if not line.startswith("# timestamp")]
    for argv in calls:
        assert run_cli(argv) == 0
        alone = subprocess.run(
            [sys.executable, "-m", "qfibath", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert alone.returncode == 0, alone.stderr
        assert strip(capsys.readouterr().out) == strip(alone.stdout)
