"""Deterministic log serialization.

Floats are written with nine significant digits and all row ordering is
fixed by the simulation itself, so two runs with the same seed produce
byte-identical log directories and metrics recomputed from the files match
the originals exactly. Wall-clock timings never go through this module's
log writers; they live in a separate timing file outside the log directory.

Every table declares a kind per column, and each kind is a %-conversion:

  int    %d      counters, ids, ticks
  bool   %d      flags, written 1/0
  float  %.9g    nine significant digits; inf, -inf and nan spelled so
  str    %s      quoted the way csv.writer quotes (a comma, quote or line
                 break inside), so any text reads back unchanged

A kind ending in "?" is nullable: a None there is written as an empty cell,
and a None anywhere else is an error. A row is formatted in one %-operation
on the table's row format.
"""

from __future__ import annotations

import csv
import json
import math
import re
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
        self.columns = list(columns)
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


def parse_cell(raw):
    """Inverse of a cell's format; empty means None."""
    if raw == "" or raw is None:
        return None
    try:
        num = float(raw)
    except ValueError:
        return raw
    if num.is_integer() and "." not in raw and "e" not in raw \
            and "E" not in raw and "inf" not in raw and "nan" not in raw:
        return int(num)
    return num


def _parse_rows(columns: list[str], reader, where) -> list[dict]:
    """Rows of `reader` as dicts over `columns`, cells parsed; a row of any
    other width is a ValueError naming `where` and its line."""
    out: list[dict] = []
    for row in reader:
        if len(row) != len(columns):
            raise ValueError(f"{where}, line {reader.line_num}: expected "
                             f"{len(columns)} cells, got {len(row)}")
        out.append({key: parse_cell(raw) for key, raw in zip(columns, row)})
    return out


def read_csv(path) -> list[dict]:
    """Rows as dicts with floats parsed; empty cells come back as None."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: expected a header line, the file is empty")
        return _parse_rows(header, reader, path)


def roundtrip_rows(log: CsvLog) -> list[dict]:
    """Parse a CsvLog's formatted rows exactly as read_csv would after a
    write, so in-run metrics match metrics recomputed from the files."""
    return _parse_rows(log.columns, csv.reader(log.rows), "log rows")


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
