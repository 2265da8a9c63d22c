"""Serialization of the CLI's tables: CSV with a `#` metadata block, or one JSON object.

A table reaches the writers as columns, and they spell its cells column by column:
`float.__repr__`, the shortest decimal that round-trips the binary float, for every
cell of a float column, `str` or `json.dumps` for the other cells. A `Tiled` column,
a grid axis, has its distinct values spelled once and each text repeated in place;
the texts are those of spelling every cell, so identical invocations keep
byte-identical data sections. The JSON rows are one join of those texts between a
fixed head and tail. `output` is the one path of the text to `--out`.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager

from .sweep_optimize import Tiled

__all__ = ["spell", "csv_text", "json_text", "output"]

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
    try:  # a nan or infinite cell makes the sum non-finite; a sum that overflows only
        # takes json.dumps, which spells finite numbers as the float repr does
        finite = math.isfinite(sum(column))
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
    # the timestamp is the only line that varies between identical invocations;
    # the data section (header onward) is byte-deterministic
    lines.append(f"# timestamp = {metadata['timestamp']}")
    lines.append(",".join(names))
    lines.extend(map(",".join, zip(*(_cells(column, _texts) for column in columns))))
    return "\n".join(lines) + "\n"


def json_text(spec: dict, metadata: dict, columns: Sequence[Sequence | Tiled]) -> str:
    r"""`json.dumps({"spec": spec, "metadata": metadata, "rows": rows}, indent=2) + "\n"`
    for the rows whose columns are `columns`: the rows, the bulk of the text, are
    spelled column by column and spliced in as one join. A table has at least one row
    (a sweep at least 2 points, a grid 2 x 2, a curve 1 temperature, a point 1)."""
    head = json.dumps({"spec": spec, "metadata": metadata}, indent=2)
    cells = [_cells(column, _json_texts) for column in columns]
    rows = "\n    ],\n    [\n      ".join(map(",\n      ".join, zip(*cells)))
    return f'{head[:-2]},\n  "rows": [\n    [\n      {rows}\n    ]\n  ]\n}}\n'


@contextmanager
def output(out: str) -> Iterator[Callable[[str], object]]:
    """The function that writes text to `out`, made before the block runs: stdout when
    `out` is "-"; an existing path that is not a regular file, such as /dev/null, opened
    in place (a directory fails here). Any other path, missing or a regular file, gets a
    new file beside it (beside the file a symbolic link names), which replaces it whole
    when the block ends, and is removed if the block raises; an existing file the caller
    may not write is refused first, as the replacement would not refuse it."""
    if out == "-":
        yield sys.stdout.write
        return
    target = os.path.realpath(out)
    existing = os.path.isfile(target)
    if not existing and os.path.exists(target):
        with open(out, "w", encoding="utf-8") as stream:
            yield stream.write
        return
    if existing:
        os.close(os.open(target, os.O_WRONLY))
    # "x" is O_CREAT | O_EXCL at mode 0o666: a new file takes the umask's mode, not 0600
    temporary = os.path.join(os.path.dirname(target),
                             f".{os.path.basename(target)}.{os.urandom(8).hex()}.tmp")
    stream = open(temporary, "x", encoding="utf-8")
    try:
        with stream:
            if existing:
                shutil.copymode(target, temporary)
            yield stream.write
        os.replace(temporary, target)
    except BaseException:
        os.unlink(temporary)
        raise
