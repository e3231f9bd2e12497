"""Log formatting and roundtrip guarantees that replay depends on."""

import csv
import io
import json
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from v2xloop import harness

from v2xloop.logio import CsvLog, read_csv, read_json, roundtrip_rows, rows, write_json


def parse_cell(raw):
    """The per-cell parser the typed readers replaced, kept as their
    reference: a cell's type is sniffed from its text; empty means None."""
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
    table = read_csv(p, log.columns)
    assert table["t"] == [0.05, 0.1]
    assert _cell(table["x"][0], "float") == _cell(1.0 / 3.0, "float")
    assert table["label"] == ["follow", "stop"]
    assert rows(table)[1] == {"t": 0.1, "x": 0, "label": "stop"}
    # in-memory roundtrip agrees with the on-disk one
    assert roundtrip_rows(log) == table


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


TABLES = {**harness.LOG_COLUMNS, "timing": harness.TIMING_COLS,
          "sweep": harness.SWEEP_COLS}
_FLOATS = st.one_of(st.floats(width=64), st.sampled_from([-0.0, math.inf, -math.inf]),
                    st.integers(-10**9 + 1, 10**9 - 1), st.booleans())
# no cell is quoted, so text holds no comma, quote, CR or LF (CsvLog refuses
# them); csv.writer writes any other text bare, as CsvLog does
_TEXT = st.text(alphabet=st.characters(blacklist_characters=',"\r\n',
                                       blacklist_categories=("Cs",)))
KIND_VALUES = {"int": st.one_of(st.integers(-2**62, 2**62), st.booleans()),
               "bool": st.one_of(st.booleans(), st.sampled_from([0, 1])),
               "float": _FLOATS,
               "str": _TEXT}


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
        assert log.rows == [_reference_line(values)], name


def test_text_needing_quotes_is_refused(tmp_path):
    # no cell is quoted, so text that would need quotes is refused, naming
    # the column, and no row is kept
    log = CsvLog({"v": "float?", "label": "str"})
    for text in ['a,b', 'say "hi"', 'two\nlines', 'cr\rhere']:
        with pytest.raises(ValueError, match="^" + re.escape(
                f"column label: must hold no comma, quote, CR or LF, got {text!r}")):
            log.append(None, text)
    assert log.rows == []
    # empty text is an empty cell, and a lone empty cell an empty line
    log.append(None, "")
    one = CsvLog({"only": "str?"})
    one.append(None)
    one.append("x")
    assert one.rows == ["", "x"]
    for table in (log, one):
        table.write(tmp_path / "t.csv")
        assert read_csv(tmp_path / "t.csv", table.columns) == roundtrip_rows(table)
    assert roundtrip_rows(one) == {"only": [None, "x"]}


def test_declared_kinds_are_enforced():
    with pytest.raises(ValueError, match="unknown column kind 'double'"):
        CsvLog({"x": "double"})
    log = CsvLog({"x": "float", "id": "str", "n": "int"})
    for row in [(None, "a", 1), (1.0, None, 1), (1.0, "a", None), (1.0, 2.0, 1)]:
        with pytest.raises(TypeError):
            log.append(*row)
    assert log.rows == []


AB = {"a": "int", "b": "int"}


def test_read_csv_rejects_a_row_of_the_wrong_width(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ValueError, match=r"bad\.csv, line 3: expected 2 cells, got 1"):
        read_csv(p, AB)
    p.write_text("a,b\n1,2,3\n")
    with pytest.raises(ValueError, match="line 2: expected 2 cells, got 3"):
        read_csv(p, AB)
    p.write_text("")
    with pytest.raises(ValueError, match="bad.csv: expected a header line"):
        read_csv(p, AB)
    p.write_text("a,b\n")
    assert read_csv(p, AB) == {"a": [], "b": []}


@pytest.mark.parametrize("header, message", [
    ("a,c", "header column 2 is 'c', expected 'b'"),
    ("b,a", "header column 1 is 'b', expected 'a'"),
    ("a", "header column 2 is nothing, expected 'b'"),
    ("a,b,c", "header column 3 is 'c', expected no further column"),
], ids=["renamed", "swapped", "missing", "extra"])
def test_read_csv_refuses_a_header_other_than_the_declared_columns(tmp_path, header, message):
    p = tmp_path / "foreign.csv"
    p.write_text(header + "\n1,2\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{p}, line 1: {message}")):
        read_csv(p, AB)


def test_read_csv_refuses_a_cell_its_kind_cannot_parse(tmp_path):
    p = tmp_path / "damaged.csv"
    columns = {"n": "int", "x": "float?", "label": "str"}
    p.write_text('n,x,label\n1,0.5,a\n2,,ok\nabc,1,ok\n')
    with pytest.raises(ValueError, match="^" + re.escape(
            f"{p}, line 4, column n: cannot read 'abc' as int")):
        read_csv(p, columns)
    p.write_text("n,x,label\n1,0.5.1,a\n")
    with pytest.raises(ValueError, match=re.escape("line 2, column x: cannot read "
                                                   "'0.5.1' as float")):
        read_csv(p, columns)
    p.write_text("n,x,label\n1,,a\n,inf,\n")
    assert read_csv(p, columns) == {"n": [1, None], "x": [None, math.inf],
                                    "label": ["a", None]}


@pytest.mark.parametrize("empty", [False, True], ids=["whole", "with-empty"])
def test_float_cells_read_as_floats_and_empty_cells_as_none(tmp_path, empty):
    # a column with an empty cell is read cell by cell, one without by a
    # column-wide float(); both read `2` and `-0` as floats
    cells = ["2", "-0", "0.5", "2", "inf", "1e+09", "-7", "nan"] + ([""] if empty else [])
    p = tmp_path / "t.csv"
    p.write_text("x,n,label\n" + "".join(f"{c},{c and 3},{c and 'a'}\n" for c in cells))
    table = read_csv(p, {"x": "float?", "n": "int?", "label": "str?"})
    want = [2.0, -0.0, 0.5, 2.0, math.inf, 1e9, -7.0, math.nan] + ([None] if empty else [])
    assert repr(table["x"]) == repr(want)
    assert [type(v) for v in table["x"]] == [type(v) for v in want]
    assert math.copysign(1.0, table["x"][1]) == -1.0      # -0 keeps its sign
    assert table["n"] == [3] * 8 + ([None] if empty else [])
    assert table["label"] == ["a"] * 8 + ([None] if empty else [])


def test_text_and_large_integers_read_back_exactly():
    # where the typed readers deliberately differ from the sniffing parser:
    # a str column keeps text that looks like a number, and an int column
    # keeps integers beyond 2**53, which parse_cell rounded through float
    log = CsvLog({"id": "str", "n": "int"})
    for text in ("7", "-0", "nan", "1e3", "inf"):
        log.append(text, 2**62 + 1)
    table = roundtrip_rows(log)
    assert table["id"] == ["7", "-0", "nan", "1e3", "inf"]
    assert table["n"] == [2**62 + 1] * 5
    assert parse_cell("7") == 7 and parse_cell(str(2**62 + 1)) == 2**62


# ---------------------------------------------------------------------------
# typed columnar reading against the per-cell parser it replaced

_INTS = st.integers(-2**53, 2**53)     # parse_cell reads these exactly
_SPECIAL_FLOATS = st.sampled_from([2.0, -0.0, 2, 0, -7.0, 1e9, 123456789.0,
                                   math.inf, -math.inf, math.nan, 0.5, 1e-300])
READ_VALUES = {"int": st.one_of(_INTS, st.booleans()),
               "bool": st.one_of(st.booleans(), st.sampled_from([0, 1])),
               "float": st.one_of(_FLOATS, _SPECIAL_FLOATS),
               "str": KIND_VALUES["str"]}


def _reference_table(columns: dict, lines: list[str]) -> dict:
    """{column: values} by parse_cell on each cell, except that a str column
    keeps its text (parse_cell would read a station named "7" as 7) and a
    float column reads every cell as a float (parse_cell would read "2" as 2)."""
    table = {name: [] for name in columns}
    for row in csv.reader(lines):
        for (name, kind), raw in zip(columns.items(), row):
            kind = kind.removesuffix("?")
            if kind == "str":
                value = raw or None
            elif kind == "float":
                value = float(raw) if raw else None
            else:
                value = parse_cell(raw)
            table[name].append(value)
    return table


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_typed_columns_read_as_parse_cell_reads_each_cell(data, tmp_path_factory):
    path = tmp_path_factory.mktemp("oracle") / "table.csv"
    for name, columns in TABLES.items():
        strategies = [READ_VALUES[k.removesuffix("?")] for k in columns.values()]
        strategies = [st.one_of(st.none(), s) if k.endswith("?") else s
                      for k, s in zip(columns.values(), strategies)]
        values = data.draw(st.lists(st.tuples(*strategies), max_size=4), label=name)
        log = CsvLog(columns)
        for row in values:
            log.append(*row)
        expected = repr(_reference_table(columns, log.rows))
        assert repr(roundtrip_rows(log)) == expected, name
        log.write(path)
        assert repr(read_csv(path, columns)) == expected, name


def test_read_json_names_the_file_on_a_syntax_error(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"a": 1,\n')
    with pytest.raises(ValueError, match="^" + re.escape(f"{path}: Expecting property name")):
        read_json(path)
    path.write_text('{"a": [1, 2]}\n')
    assert read_json(path) == {"a": [1, 2]}
