"""Log formatting and roundtrip guarantees that replay depends on."""

import csv
import io
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from v2xloop import harness

from v2xloop.logio import CsvLog, parse_cell, read_csv, read_json, roundtrip_rows, write_json


def _cell(value, kind: str) -> str:
    """One cell as a table column of `kind` writes it."""
    log = CsvLog({"cell": kind, "end": "int"})
    log.append(value, 0)
    return log.rows[0].removesuffix(",0")


def test_fmt_floats_nine_significant_digits():
    assert _cell(1.0 / 3.0, "float") == "0.333333333"
    assert _cell(123456789012.0, "float") == "1.23456789e+11"
    assert _cell(0.05, "float") == "0.05"


def test_fmt_non_floats_passthrough():
    assert _cell(3, "int") == "3"
    assert _cell("abc", "str") == "abc"
    assert _cell(True, "bool") == "1"          # bools log as 0/1 flags
    assert _cell(None, "float?") == ""
    assert _cell(None, "str?") == ""


def test_fmt_special_floats():
    assert _cell(float("inf"), "float") == "inf"
    assert _cell(float("-inf"), "float") == "-inf"
    assert _cell(float("nan"), "float") == "nan"
    assert _cell(-0.0, "float") == "-0"


def test_parse_cell_roundtrip_identity():
    # parse of a written cell must be a fixed point of the format
    values = [0.0, 1.0 / 3.0, 1e-17, 2.5e300, 7, -3, math.pi,
              float("inf"), 0.1 + 0.2]
    for v in values:
        s = _cell(v, "float")
        assert _cell(parse_cell(s), "float") == s
    # negative zero drops its sign through the int fast path but stays == 0
    assert parse_cell(_cell(-0.0, "float")) == 0


def test_parse_cell_types():
    assert parse_cell("3") == 3
    assert isinstance(parse_cell("3"), int)
    assert parse_cell("3.5") == 3.5
    assert isinstance(parse_cell("3.5"), float)
    assert parse_cell("") is None
    assert parse_cell("goal") == "goal"
    assert math.isnan(parse_cell("nan"))
    assert parse_cell("inf") == math.inf


def test_csvlog_append_arity_checked():
    log = CsvLog({"a": "int", "b": "int"})
    log.append(1, 2)
    with pytest.raises(ValueError):
        log.append(1)


def test_csvlog_write_read_roundtrip(tmp_path):
    log = CsvLog({"t": "float", "x": "float", "label": "str"})
    log.append(0.05, 1.0 / 3.0, "follow")
    log.append(0.1, -0.0, "stop")
    p = tmp_path / "log.csv"
    log.write(p)
    rows = read_csv(p)
    assert len(rows) == 2
    assert rows[0]["t"] == 0.05
    assert _cell(rows[0]["x"], "float") == _cell(1.0 / 3.0, "float")
    assert rows[1]["label"] == "stop"
    # in-memory roundtrip agrees with the on-disk one
    assert roundtrip_rows(log) == rows


def test_csvlog_write_is_deterministic(tmp_path):
    def build():
        log = CsvLog({"t": "float", "v": "float"})
        for k in range(20):
            log.append(k * 0.05, math.sin(k))
        return log

    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    build().write(p1)
    build().write(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_write_json_rounds_floats(tmp_path):
    p = tmp_path / "out.json"
    write_json(p, {"a": 0.1 + 0.2, "b": [1.0 / 3.0, {"c": 2}], "d": "x"})
    raw = json.loads(p.read_text())
    assert raw["a"] == float(_cell(0.1 + 0.2, "float"))
    assert raw["b"][0] == float(_cell(1.0 / 3.0, "float"))
    assert raw["b"][1]["c"] == 2
    assert read_json(p) == raw


def test_write_json_deterministic_bytes(tmp_path):
    payload = {"z": 1, "a": [3.14159, "s"], "m": {"k": 2.5}}
    p1, p2 = tmp_path / "1.json", tmp_path / "2.json"
    write_json(p1, payload)
    write_json(p2, dict(reversed(list(payload.items()))))
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------------------
# typed row formats against the per-cell formatter they replaced


def _reference_fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return "%.9g" % value
    return str(value)


def _reference_line(values) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([_reference_fmt(v) for v in values])
    return buf.getvalue().removesuffix("\n")


TABLES = {name: getattr(harness, f"{name.upper()}_COLS")
          for name in (*harness.LOG_NAMES, "timing", "sweep")}
_FLOATS = st.one_of(st.floats(width=64), st.sampled_from([-0.0, math.inf, -math.inf]),
                    st.integers(-10**9 + 1, 10**9 - 1), st.booleans())
# a bare carriage return is quoted on purpose (csv.writer leaves it bare, and
# csv.reader then cannot read the row back), so the reference draws none
_TEXT = st.text(alphabet=st.characters(blacklist_characters="\r",
                                       blacklist_categories=("Cs",)))
KIND_VALUES = {"int": st.one_of(st.integers(-2**62, 2**62), st.booleans()),
               "bool": st.one_of(st.booleans(), st.sampled_from([0, 1])),
               "float": _FLOATS,
               "str": st.one_of(_TEXT, st.sampled_from(['a,b', 'say "hi"', '"', ',', 'x\ny']))}


def _rows(columns: dict):
    return st.tuples(*(KIND_VALUES[k.removesuffix("?")] if not k.endswith("?")
                       else st.one_of(st.none(), KIND_VALUES[k.removesuffix("?")])
                       for k in columns.values()))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_table_row_format_gives_the_per_cell_strings(data):
    for name, columns in TABLES.items():
        values = data.draw(_rows(columns), label=name)
        log = CsvLog(columns)
        log.append(*values)
        line = _reference_line(values)
        assert log.rows == [line], name
        expected = [dict(zip(columns, map(parse_cell, row)))
                    for row in csv.reader([line])]
        assert repr(roundtrip_rows(log)) == repr(expected), name


def test_text_needing_quotes_reads_back(tmp_path):
    log = CsvLog({"label": "str", "v": "float?"})
    texts = ['a,b', 'say "hi"', 'two\nlines', 'cr\rhere', '']
    for text in texts:
        log.append(text, None)
    log.write(tmp_path / "t.csv")
    rows = read_csv(tmp_path / "t.csv")
    assert [r["label"] for r in rows] == [t or None for t in texts]
    assert rows == roundtrip_rows(log)
    one = CsvLog({"only": "str?"})
    one.append(None)
    assert one.rows == ['""']          # as csv.writer writes a lone empty cell


def test_declared_kinds_are_enforced():
    with pytest.raises(ValueError, match="unknown column kind 'double'"):
        CsvLog({"x": "double"})
    log = CsvLog({"x": "float", "id": "str", "n": "int"})
    for row in [(None, "a", 1), (1.0, None, 1), (1.0, "a", None), (1.0, 2.0, 1)]:
        with pytest.raises(TypeError):
            log.append(*row)
    assert log.rows == []


def test_read_csv_rejects_a_row_of_the_wrong_width(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ValueError, match=r"bad\.csv, line 3: expected 2 cells, got 1"):
        read_csv(p)
    p.write_text("a,b\n1,2,3\n")
    with pytest.raises(ValueError, match="line 2: expected 2 cells, got 3"):
        read_csv(p)
    p.write_text("")
    with pytest.raises(ValueError, match="bad.csv: expected a header line"):
        read_csv(p)
    p.write_text("a,b\n")
    assert read_csv(p) == []
