"""Deterministic log serialization.

Floats are written with nine significant digits and all row ordering is
fixed by the simulation itself, so two runs with the same seed produce
byte-identical log directories and metrics recomputed from the files match
the originals exactly. Wall-clock timings never go through this module's
log writers; they live in a separate timing file outside the log directory.

Every table declares a kind per column. Each kind is one %-conversion on
the way out and one parser on the way back in:

  int    %d      int()       counters, ids, ticks
  bool   %d      int()       flags, written 1/0 and read back as 1/0
  float  %.9g    float()     nine significant digits; inf, -inf and nan
                             spelled so. Every cell reads back as a float,
                             an integral one (2, -0) included
  str    %s      the text    never quoted: a comma, quote, CR or LF in
                             a text cell is a ValueError naming the column
                             (and in a document's ids, refused at load by
                             world.check_id). Any other text reads back
                             unchanged, even text that looks like a number

A kind ending in "?" is nullable: a None there is written as an empty cell,
and a None anywhere else is an error. An empty cell reads back as None in
every kind. Since no cell is quoted, a line is a row and a comma ends a
cell, so a table reads back with str.split alone.

`CsvLog.append` keeps a row's values as they are. A text cell is checked
there, so a bad id is refused at the row that logs it, naming the column.
Every other cell is formatted only when the table is written or read back
in memory: a column at a time, each at most once, by its kind, and a
value its kind cannot format (a None in a column that is not nullable, text
in a number column) is refused then, naming the column and the row, before
any byte of the table is written.

A table reads back as columns, {column: [value per row]}: `read_csv(path,
columns)` for a file, every column of it, and `roundtrip_rows(log, names)`
for the named columns of a table still in memory, which formats and parses
only those. Each column is parsed in one pass by its declared kind, and a
header that is not the declared one, a row of another width or a cell its
kind cannot parse is a ValueError naming the file, the line and the column.
`rows` turns a table back into one dict per row for callers that loop over
rows.
"""

from __future__ import annotations

import json
import math
import re
from itertools import zip_longest
from pathlib import Path

CONVERSIONS = {"int": "%d", "bool": "%d", "float": "%.9g", "str": "%s"}
# text that would need quoting, which no cell gets: a text cell may not hold
# it, nor may an id that becomes one (a search on a non-str is a TypeError)
NEEDS_QUOTES = re.compile('[,"\r\n]').search


class CsvLog:
    """Append-only table of typed columns, flushed to disk once at episode end.

    `columns` maps each column name to its kind (see the module docstring).
    `rows` holds each appended row's values as a tuple; no cell is formatted
    until the table is written or read back (`cells`).
    """

    def __init__(self, columns: dict[str, str]):
        self.columns = dict(columns)
        kinds = list(columns.values())
        unknown = [k for k in kinds if k.removesuffix("?") not in CONVERSIONS]
        if unknown:
            raise ValueError(f"unknown column kind {unknown[0]!r}; expected one of "
                             f"{sorted(CONVERSIONS)}, optionally ending in '?'")
        self._text = [i for i, k in enumerate(kinds) if k.removesuffix("?") == "str"]
        self._nullable = {i for i, k in enumerate(kinds) if k.endswith("?")}
        self._index = {name: i for i, name in enumerate(columns)}
        self.rows: list[tuple] = []

    def append(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(f"expected {len(self.columns)} values, got {len(values)}")
        for i in self._text:
            value = values[i]
            if (value is not None or i not in self._nullable) and NEEDS_QUOTES(value):
                raise ValueError(f"column {list(self.columns)[i]}: must hold no comma, "
                                 f"quote, CR or LF, got {value!r}")
        self.rows.append(values)

    def cells(self, name: str) -> list[str]:
        """Column `name`'s cells: each value %-formatted by the column's kind,
        a None in a nullable column as an empty cell. A value its kind cannot
        format (a None elsewhere, text in a number column) is an error of the
        formatter's type naming the column and the row."""
        i, kind = self._index[name], self.columns[name]
        conv = CONVERSIONS[kind.removesuffix("?")]
        try:
            if kind.endswith("?"):
                return ["" if row[i] is None else conv % row[i] for row in self.rows]
            return [conv % row[i] for row in self.rows]
        except (TypeError, ValueError, OverflowError):
            for n, row in enumerate(self.rows, 1):
                try:
                    if row[i] is not None or not kind.endswith("?"):
                        conv % row[i]
                except (TypeError, ValueError, OverflowError) as exc:
                    raise type(exc)(f"column {name}, row {n}: cannot write "
                                    f"{row[i]!r} as {kind}") from None
            raise

    def write(self, path) -> dict[str, list[str]]:
        """Write the table to `path`, formatting every column first, so a
        value its kind cannot format leaves no file; returns {column:
        cells}, which `roundtrip_rows` reads back without formatting them
        again."""
        cells = {name: self.cells(name) for name in self.columns}
        text = "\n".join([",".join(self.columns), *map(",".join, zip(*cells.values()))])
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            fh.write(text + "\n")
        return cells


PARSERS = {"int": int, "bool": int, "float": float, "str": str}


def _read_column(kind: str, cells) -> list:
    """A column's values: PARSERS[kind] of each cell, None for an empty one.
    Only a column with an empty cell tests each cell in Python."""
    parse = PARSERS[kind]
    if "" in cells:
        return [parse(raw) if raw else None for raw in cells]
    return list(cells) if kind == "str" else list(map(parse, cells))


def _parse_table(columns: dict[str, str], header: str, lines: list[str],
                 where) -> dict[str, list]:
    """The table of `header` and data `lines` (neither ending in a line
    break) as {column: values}, each column parsed by its kind in `columns`;
    anything other than such a table is a ValueError naming `where`, the
    line and the column."""
    names = list(columns)
    cells = header.split(",")
    if cells != names:
        i = next(i for i, pair in enumerate(zip_longest(cells, names))
                 if pair[0] != pair[1])
        got = repr(cells[i]) if i < len(cells) else "nothing"
        want = repr(names[i]) if i < len(names) else "no further column"
        raise ValueError(f"{where}, line 1: header column {i + 1} is {got}, "
                         f"expected {want}")
    records = [line.split(",") for line in lines]
    if set(map(len, records)) - {len(names)}:
        i = next(i for i, row in enumerate(records) if len(row) != len(names))
        raise ValueError(f"{where}, line {i + 2}: expected "
                         f"{len(names)} cells, got {len(records[i])}")
    table = {}
    for name, cells in zip(names, zip(*records) if records else [()] * len(names)):
        kind = columns[name].removesuffix("?")
        try:
            table[name] = _read_column(kind, cells)
        except ValueError:
            for i, raw in enumerate(cells):
                try:
                    _read_column(kind, (raw,))
                except ValueError:
                    raise ValueError(f"{where}, line {i + 2}, column {name}: "
                                     f"cannot read {raw!r} as {kind}") from None
    return table


def read_csv(path, columns: dict[str, str]) -> dict[str, list]:
    """The table at `path` as {column: values}, parsed by the kinds in
    `columns` (for a log table, harness.LOG_COLUMNS[name])."""
    with open(path) as fh:
        header, *lines = fh.read().split("\n")
    if not header and not lines:
        raise ValueError(f"{path}: expected a header line, the file is empty")
    if lines and not lines[-1]:     # after the line break that ends the file
        lines.pop()
    return _parse_table(columns, header, lines, path)


def roundtrip_rows(log: CsvLog, names=None, cells=None) -> dict[str, list]:
    """The columns in `names` (every column when None) of a CsvLog as
    read_csv would read them after a write, so in-run metrics match metrics
    recomputed from the files. Only those columns are formatted, one at a
    time, and parsed; given `cells`, as `CsvLog.write` returned them, none is
    formatted again."""
    return {name: _read_column(log.columns[name].removesuffix("?"),
                               log.cells(name) if cells is None else cells[name])
            for name in (log.columns if names is None else names)}


def rows(table: dict[str, list]) -> list[dict]:
    """A table from read_csv or roundtrip_rows as one dict per row."""
    return [dict(zip(table, values)) for values in zip(*table.values())]


def _round_floats(obj):
    if isinstance(obj, float):
        if math.isinf(obj) or math.isnan(obj):
            return str(obj)
        return float("%.9g" % obj)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def write_json(path, payload: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_round_floats(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path) -> dict:
    """The document `path` holds; a JSON syntax error is a ValueError that
    starts with the path."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
