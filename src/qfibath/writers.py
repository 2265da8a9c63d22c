"""Serialization of the CLI's tables: CSV with a `#` metadata block, or one JSON object.

A table reaches the writers as columns, and they spell its cells column by column:
`float.__repr__`, the shortest decimal that round-trips the binary float, for every
cell of a float column, `str` or `json.dumps` for the other cells. A `Tiled` column,
a grid axis, has its distinct values spelled once and each text repeated in place;
the texts are those of spelling every cell, so identical invocations keep
byte-identical data sections.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
import tempfile
from collections.abc import Callable, Sequence

from .sweep_optimize import Tiled

__all__ = ["spell", "csv_text", "json_text", "write"]

def spell(value) -> str:
    """Shortest decimal that round-trips the binary float (locale-independent); a
    string as it is, an int in decimal."""
    if isinstance(value, float):
        return float.__repr__(value)
    return value if isinstance(value, str) else str(value)


def _texts(column: Sequence, fallback: Callable[[object], str] = spell) -> list[str]:
    """The text of each cell of `column`: `float.__repr__` of every cell where all are
    floats, else `fallback` of each."""
    try:
        return list(map(float.__repr__, column))
    except TypeError:  # a cell that is not a float: a string or an int
        return list(map(fallback, column))


def _json_texts(column: Sequence) -> list[str]:
    """The JSON text of each cell of `column`, as `json.dumps` spells it: the float repr
    where every cell is a finite number, else JSON's own spelling of each (strings, NaN,
    Infinity). The numbers are tested, not their texts."""
    try:
        finite = all(map(math.isfinite, column))
    except TypeError:  # a cell that is not a number: a string
        finite = False
    return _texts(column, json.dumps) if finite else list(map(json.dumps, column))


def _cells(column: Sequence | Tiled, texts_of: Callable[[Sequence], list[str]]) -> list[str]:
    """`texts_of` the cells of `column`; of a Tiled column, of its values, each text then
    repeated in place."""
    if not isinstance(column, Tiled):
        return texts_of(column)
    return column.tile(texts_of(column.values))


def csv_text(spec: dict, metadata: dict, names: list[str],
             columns: Sequence[Sequence | Tiled]) -> str:
    lines = [f"# tool = {metadata['tool']} {metadata['version']}"]
    for key, value in spec.items():
        if key == "fixed":
            for fixed_key, fixed_value in value.items():
                lines.append(f"# {fixed_key} = {spell(fixed_value)}")
        elif isinstance(value, (tuple, list)):
            lines.append(f"# {key} = {spell(value[0])}:{spell(value[1])}")
        else:
            lines.append(f"# {key} = {spell(value)}")
    for key, value in metadata["quadrature"].items():
        lines.append(f"# {key} = {spell(value)}")
    if "omega_0" in metadata:
        lines.append(f"# omega_0 = {spell(metadata['omega_0'])}")
    # the timestamp is the only line that varies between identical invocations;
    # the data section (header onward) is byte-deterministic
    lines.append(f"# timestamp = {metadata['timestamp']}")
    lines.append(",".join(names))
    lines.extend(map(",".join, zip(*(_cells(column, _texts) for column in columns))))
    return "\n".join(lines) + "\n"


def json_text(spec: dict, metadata: dict, columns: Sequence[Sequence | Tiled]) -> str:
    r"""`json.dumps({"spec": spec, "metadata": metadata, "rows": rows}, indent=2) + "\n"`
    for the rows whose columns are `columns`: the rows, the bulk of the text, are
    spelled column by column and spliced in."""
    head = json.dumps({"spec": spec, "metadata": metadata}, indent=2)
    rows = ",\n".join("    [\n      %s\n    ]" % ",\n      ".join(cells)
                      for cells in zip(*(_cells(column, _json_texts) for column in columns)))
    return f'{head[:-2]},\n  "rows": [\n{rows}\n  ]\n}}\n'


def write(text: str, out: str) -> None:
    """`text` to stdout when `out` is "-", else into the file `out`. An existing regular
    file keeps its bytes until the new ones are complete: they go to a temporary file
    beside it (beside the file a symbolic link names), which then replaces it whole.
    Anything else, a new file or a device such as /dev/null, is written in place. A
    failing write raises, and removes the temporary file or the new file it opened."""
    if out == "-":
        sys.stdout.write(text)
        return
    if not os.path.isfile(out):
        stream = None
        try:
            with open(out, "w", encoding="utf-8") as stream:
                stream.write(text)
        except BaseException:
            # never leave a partial file behind, nor touch what the call did not open
            if stream is not None and os.path.isfile(out):
                os.unlink(out)
            raise
        return
    target = os.path.realpath(out)
    descriptor, temporary = tempfile.mkstemp(
        prefix=f".{os.path.basename(target)}.", suffix=".tmp", dir=os.path.dirname(target))
    os.close(descriptor)
    try:
        shutil.copymode(target, temporary)
        with open(temporary, "w", encoding="utf-8") as stream:
            stream.write(text)
        os.replace(temporary, target)
    except BaseException:
        os.unlink(temporary)
        raise
