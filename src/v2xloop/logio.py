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
  str    %s      the text    quoted the way csv.writer quotes (a comma,
                             quote or line break inside), so any text reads
                             back unchanged, even text that looks like a
                             number

A kind ending in "?" is nullable: a None there is written as an empty cell,
and a None anywhere else is an error. A row is formatted in one %-operation
on the table's row format. An empty cell reads back as None in every kind.

A table reads back as columns, {column: [value per row]}: `read_csv(path,
columns)` for a file and `roundtrip_rows(log)` for a table still in memory.
Each column is parsed in one pass by its declared kind, and a header that is
not the declared one, a row of another width or a cell its kind cannot
parse is a ValueError naming the file, the line and the column. `rows`
turns a table back into one dict per row for callers that loop over rows.
"""

from __future__ import annotations

import csv
import json
import math
import re
from itertools import zip_longest
from pathlib import Path

CONVERSIONS = {"int": "%d", "bool": "%d", "float": "%.9g", "str": "%s"}
_NEEDS_QUOTES = re.compile('[,"\r\n]').search


def _csv_text(text: str) -> str:
    if _NEEDS_QUOTES(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


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

    def _null_format(self, nulls: tuple[int, ...]) -> str:
        form = self._formats.get(nulls)
        if form is None:
            form = self._formats[nulls] = ",".join(
                "%.0s" if i in nulls else conv for i, conv in enumerate(self._conversions))
        return form

    def append(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(f"expected {len(self.columns)} values, got {len(values)}")
        nulls = ()
        if self._nullable:
            nulls = tuple(i for i in self._nullable if values[i] is None)
        if self._text:
            values = list(values)
            for i in self._text:
                if i not in nulls:
                    values[i] = _csv_text(values[i])
            values = tuple(values)
        form = self._null_format(nulls) if nulls else self._formats[()]
        # csv.writer writes a row of one empty cell as "", not as a blank line
        self.rows.append(form % values or '""')

    def write(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            fh.write("\n".join([",".join(self.columns), *self.rows]) + "\n")


def _read_int(raw: str):
    return int(raw) if raw else None


def _read_float(raw: str):
    return float(raw) if raw else None


def _read_text(raw: str):
    return raw or None


READERS = {"int": _read_int, "bool": _read_int, "float": _read_float, "str": _read_text}


def _read_column(kind: str, cells) -> list:
    """A column's values, each cell as READERS[kind] reads it.

    Only a column with an empty cell pays a Python call per cell. Otherwise
    an int or bool column is int() of each cell, a float column float() of
    each cell and a str column its text.
    """
    if "" in cells:
        return list(map(READERS[kind], cells))
    if kind == "str":
        return list(cells)
    return list(map(float if kind == "float" else int, cells))


def _line_num(lines, index: int) -> int:
    """The reader's line number once data row `index` of `lines` is read."""
    reader = csv.reader(lines)
    for _ in range(index + 2):      # the header, then rows 0..index
        next(reader)
    return reader.line_num


def _parse_table(columns: dict[str, str], lines: list[str], where) -> dict[str, list]:
    """The CSV `lines` (header first) as {column: values}, each column parsed
    by its kind in `columns`; anything other than such a table is a
    ValueError naming `where`, the line and the column."""
    reader = csv.reader(lines)
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{where}: expected a header line, the file is empty")
    names = list(columns)
    if header != names:
        i = next(i for i, pair in enumerate(zip_longest(header, names))
                 if pair[0] != pair[1])
        got = repr(header[i]) if i < len(header) else "nothing"
        want = repr(names[i]) if i < len(names) else "no further column"
        raise ValueError(f"{where}, line 1: header column {i + 1} is {got}, "
                         f"expected {want}")
    records = list(reader)
    if set(map(len, records)) - {len(names)}:
        i = next(i for i, row in enumerate(records) if len(row) != len(names))
        raise ValueError(f"{where}, line {_line_num(lines, i)}: expected "
                         f"{len(names)} cells, got {len(records[i])}")
    table = {}
    for name, cells in zip(names, zip(*records) if records else [()] * len(names)):
        kind = columns[name].removesuffix("?")
        try:
            table[name] = _read_column(kind, cells)
        except ValueError:
            parse = READERS[kind]
            for i, raw in enumerate(cells):
                try:
                    parse(raw)
                except ValueError:
                    raise ValueError(f"{where}, line {_line_num(lines, i)}, column "
                                     f"{name}: cannot read {raw!r} as {kind}") from None
    return table


def read_csv(path, columns: dict[str, str]) -> dict[str, list]:
    """The table at `path` as {column: values}, parsed by the kinds in
    `columns` (for a log table, harness.LOG_COLUMNS[name])."""
    with open(path, newline="") as fh:
        lines = fh.readlines()
    return _parse_table(columns, lines, path)


def roundtrip_rows(log: CsvLog) -> dict[str, list]:
    """Parse a CsvLog's formatted rows exactly as read_csv would after a
    write, so in-run metrics match metrics recomputed from the files."""
    return _parse_table(log.columns, [",".join(log.columns), *log.rows], "log rows")


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
