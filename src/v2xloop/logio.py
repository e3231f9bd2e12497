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
and a None anywhere else is an error. A row is formatted in one %-operation
on the table's row format. An empty cell reads back as None in every kind.
Since no cell is quoted, a line is a row and a comma ends a cell, so a
table reads back with str.split alone.

A table reads back as columns, {column: [value per row]}: `read_csv(path,
columns)` for a file and `roundtrip_rows(log)` for a table still in memory.
Each column is parsed in one pass by its declared kind, and a header that is
not the declared one, a row of another width or a cell its kind cannot
parse is a ValueError naming the file, the line and the column. `rows`
turns a table back into one dict per row for callers that loop over rows.
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
    `rows` holds the formatted lines.
    """

    def __init__(self, columns: dict[str, str]):
        self.columns = dict(columns)
        kinds = list(columns.values())
        unknown = [k for k in kinds if k.removesuffix("?") not in CONVERSIONS]
        if unknown:
            raise ValueError(f"unknown column kind {unknown[0]!r}; expected one of "
                             f"{sorted(CONVERSIONS)}, optionally ending in '?'")
        self._conversions = [CONVERSIONS[k.removesuffix("?")] for k in kinds]
        self._text = [i for i, k in enumerate(kinds) if k.removesuffix("?") == "str"]
        self._nullable = [i for i, k in enumerate(kinds) if k.endswith("?")]
        # row format per set of None cells; a None cell formats as %.0s, empty
        self._formats = {(): ",".join(self._conversions)}
        self.rows: list[str] = []

    def append(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(f"expected {len(self.columns)} values, got {len(values)}")
        nulls = ()
        if self._nullable:
            nulls = tuple(i for i in self._nullable if values[i] is None)
        for i in self._text:
            if i not in nulls and NEEDS_QUOTES(values[i]):
                raise ValueError(f"column {list(self.columns)[i]}: must hold no comma, "
                                 f"quote, CR or LF, got {values[i]!r}")
        form = self._formats.get(nulls)
        if form is None:
            form = self._formats[nulls] = ",".join(
                "%.0s" if i in nulls else conv for i, conv in enumerate(self._conversions))
        self.rows.append(form % values)

    def write(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            fh.write("\n".join([",".join(self.columns), *self.rows]) + "\n")


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


def roundtrip_rows(log: CsvLog) -> dict[str, list]:
    """Parse a CsvLog's formatted rows exactly as read_csv would after a
    write, so in-run metrics match metrics recomputed from the files."""
    return _parse_table(log.columns, ",".join(log.columns), log.rows, "log rows")


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
    with open(path) as fh:
        return json.load(fh)
