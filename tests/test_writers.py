"""The column writers against the cell-by-cell writer of `writer_reference`, byte for byte."""

import math

import pytest

import writer_reference
from qfibath import cli, writers
from qfibath.cli import RECIPES
from qfibath.sweep_optimize import Table, Tiled

NAMES = {"sweep": cli.SWEEP_COLUMNS, "grid": cli.GRID_COLUMNS, "opt-time": cli.OPT_TIME_COLUMNS}

# grids off the recipes' defaults: the smallest, temperatures that `repr` spells with an
# exponent (2.0408163265306123e-06 ...), and times up to 1000
GRIDS = {
    "2x2": ["--t-points", "2", "--T-points", "2"],
    "exponent-T": ["--estimand", "r", "--T-range", "0:1e-4"],
    "long-t": ["--t-range", "0:1000"],
}
CALLS = {name: [recipe["subcommand"], "--recipe", name] for name, recipe in RECIPES.items()}
CALLS.update({f"grid-{name}": ["grid", "--recipe", "fig7", *flags]
              for name, flags in GRIDS.items()})


def _recording(library, tables: list):
    """`library`, keeping each table it returns in `tables`."""
    def call(*args, **kwargs):
        tables.append(library(*args, **kwargs))
        return tables[-1]
    return call


def _rows(table) -> list:
    """The rows of the CLI's output, from the library's table."""
    if isinstance(table, Table):
        # a sweep's rows lead with its axis name, a grid's with its two axis values
        return [(table.spec.axis, *row) if len(table.axes) == 1 else row for row in table.rows]
    return [(result.temperature, result.t_star, result.qfi_star) for result in table.results]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", list(CALLS))
def test_data_section_equals_the_cell_by_cell_writer(name, fmt, monkeypatch, capsys):
    tables = []
    for function in ("sweep", "density_grid", "optimal_time_curve"):
        monkeypatch.setattr(cli, function, _recording(getattr(cli, function), tables))
    argv = CALLS[name]
    assert cli.main([*argv, "--format", fmt]) == 0
    text = capsys.readouterr().out
    (table,) = tables
    if fmt == "csv":
        section = "".join(line for line in text.splitlines(keepends=True)
                          if not line.startswith("#"))
        expected = writer_reference.csv_data_section(NAMES[argv[0]], _rows(table))
    else:
        section = text[text.index('  "rows": [\n'):]
        expected = writer_reference.json_data_section(_rows(table))
    # by line, so a failure names the first line that differs without diffing the whole text
    assert section.splitlines(keepends=True) == expected.splitlines(keepends=True)


def test_tiled_columns_spell_zero_and_negative_zero_apart():
    # a value-keyed memo would merge 0.0 and -0.0; the tiling follows positions only
    values = [0.0, -0.0, 2.5e-05]
    columns = [Tiled(values, each=2), Tiled(values, copies=2), Tiled(["T"], each=6),
               [math.nan] * 6]
    cells = [[value for value in values for _ in range(2)], values * 2, ["T"] * 6,
             [math.nan] * 6]
    rows = list(zip(*cells))
    spec = {"subcommand": "grid"}
    metadata = {"tool": "qfibath", "version": "0", "quadrature": {}, "timestamp": "0"}
    csv = writers.csv_text(spec, metadata, list("abcd"), columns)
    assert csv.endswith(writer_reference.csv_data_section(list("abcd"), rows))
    assert "\n-0.0,0.0,T,nan\n" in csv
    json_text = writers.json_text(spec, metadata, columns)
    assert json_text.endswith(writer_reference.json_data_section(rows))


def test_json_spells_nan_and_infinities_as_json_does():
    # the float repr is not JSON for these; the writer tests the numbers, not their texts
    columns = [[1.5, math.nan], [math.inf, -math.inf], Tiled([math.nan, 0.25], each=1)]
    rows = list(zip(*[[1.5, math.nan], [math.inf, -math.inf], [math.nan, 0.25]]))
    spec = {"subcommand": "sweep"}
    metadata = {"tool": "qfibath", "version": "0", "quadrature": {}, "timestamp": "0"}
    text = writers.json_text(spec, metadata, columns)
    assert text.endswith(writer_reference.json_data_section(rows))
    assert "      1.5,\n      Infinity,\n      NaN\n" in text
    assert "      NaN,\n      -Infinity,\n      0.25\n" in text
