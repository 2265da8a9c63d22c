"""The data sections as the CLI wrote them from rows, cell by cell: the oracle of the
column writers in `qfibath.writers`.

Each table was a list of rows, transposed back into columns with `zip(*rows)`, and
every cell of every column was spelled on its own, grid axes included.
"""

import json

# what `float.__repr__` writes for the floats JSON spells otherwise
_NON_FINITE_REPRS = {"nan", "inf", "-inf"}


def _fmt(value) -> str:
    if isinstance(value, float):
        return float.__repr__(value)
    return value if isinstance(value, str) else str(value)


def _texts(column, spell) -> list[str]:
    try:
        return list(map(float.__repr__, column))
    except TypeError:  # a cell that is not a float: a string or an int
        return list(map(spell, column))


def _json_texts(column) -> list[str]:
    texts = _texts(column, json.dumps)
    return texts if _NON_FINITE_REPRS.isdisjoint(texts) else list(map(json.dumps, column))


def csv_data_section(names: list[str], rows: list) -> str:
    """The CSV text from the header row on."""
    lines = [",".join(names)]
    lines.extend(map(",".join, zip(*(_texts(column, _fmt) for column in zip(*rows)))))
    return "\n".join(lines) + "\n"


def json_data_section(rows: list) -> str:
    """The JSON text from the `"rows"` key on, to the end of the document."""
    body = ",\n".join("    [\n      %s\n    ]" % ",\n      ".join(cells)
                      for cells in zip(*map(_json_texts, zip(*rows))))
    return f'  "rows": [\n{body}\n  ]\n}}\n'
