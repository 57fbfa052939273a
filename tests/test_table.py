"""Table writer: its bytes equal the csv/json standard-library reference."""

import csv
import io
import json
import math

import numpy as np
import pytest

from barenblatt import _table
from barenblatt._table import CHUNK_ROWS, table_chunks, write_table

HEADER = ["x", "a,b", 'say "q"', "100%s ü"]
CELLS = [
    0.0,
    -0.0,
    5e-324,
    1e308,
    math.nan,
    math.inf,
    -math.inf,
    0.1,
    1,
    -7,
    2**70,
    True,
    False,
    "plain",
    "comma, inside",
    'double "quote"',
    "new\nline",
    "naïve ∑ 中",
    "",
]


def mixed_rows(n):
    # every cell kind lands in every column as n grows
    return [
        tuple(CELLS[(i * len(HEADER) + j) % len(CELLS)] for j in range(len(HEADER)))
        for i in range(n)
    ]


def csv_reference(header, rows):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow(["%.17g" % x if isinstance(x, float) else x for x in row])
    return buf.getvalue()


def json_reference(header, rows):
    return json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n"


def lines(text):
    # a list diff names the first differing line; a string diff this long
    # would take pytest minutes
    return text.splitlines(keepends=True)


SIZES = {"one-row": 1, "many-chunks": 2 * CHUNK_ROWS + 3}


@pytest.mark.parametrize("n", list(SIZES.values()), ids=list(SIZES))
def test_csv_matches_reference(n):
    rows = mixed_rows(n)
    assert lines("".join(table_chunks(HEADER, rows))) == lines(csv_reference(HEADER, rows))


@pytest.mark.parametrize("n", list(SIZES.values()), ids=list(SIZES))
def test_json_matches_reference(n):
    rows = mixed_rows(n)
    got = "".join(table_chunks(HEADER, rows, "json"))
    assert lines(got) == lines(json_reference(HEADER, rows))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_text_comes_in_row_chunks(fmt):
    # header (csv) or closing bracket (json), plus one chunk per CHUNK_ROWS rows
    chunks = list(table_chunks(HEADER, iter(mixed_rows(2 * CHUNK_ROWS + 3)), fmt))
    assert len(chunks) == 4


def test_write_table_keeps_line_ends(tmp_path):
    rows = mixed_rows(5)
    target = tmp_path / "t.csv"
    write_table(str(target), HEADER, rows)
    with open(target, newline="") as fh:
        assert fh.read() == csv_reference(HEADER, rows)


# float64 arrays take the chunk-at-a-time path; the same rows as Python
# floats give the reference bytes
FLOAT_HEADER = ['50%s "a,b"', "y", "%d"]
FLOATS = [5e-324, 1e308, -0.0, 1e16, 1e-5, 0.1, 1 / 3, 0.0, -2.5e-300, 123456789.125]


def float_array(n, m, non_finite=False):
    a = np.array([FLOATS[i % len(FLOATS)] for i in range(n * m)]).reshape(n, m)
    if non_finite:
        # NaN and both infinities, all in the second chunk (or the only one)
        start = CHUNK_ROWS * m if n > CHUNK_ROWS else 0
        spots = a.reshape(-1)[start : start + 3]
        spots[:] = [math.nan, math.inf, -math.inf][: spots.size]
    return a


ARRAY_CASES = [
    pytest.param(n, m, nf, id=f"{size}-{m}col{'-nonfinite' if nf else ''}")
    for size, n in SIZES.items()
    for m in (1, 3)
    for nf in (False, True)
]


@pytest.mark.parametrize("n, m, non_finite", ARRAY_CASES)
def test_float_array_csv_matches_reference(n, m, non_finite):
    a = float_array(n, m, non_finite)
    header = FLOAT_HEADER[:m]
    got = "".join(table_chunks(header, a))
    assert lines(got) == lines(csv_reference(header, a.tolist()))


@pytest.mark.parametrize("n, m, non_finite", ARRAY_CASES)
def test_float_array_json_matches_reference(n, m, non_finite):
    a = float_array(n, m, non_finite)
    header = FLOAT_HEADER[:m]
    got = "".join(table_chunks(header, a, "json"))
    assert lines(got) == lines(json_reference(header, a.tolist()))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n", list(SIZES.values()), ids=list(SIZES))
def test_float_array_chunk_count_equals_list_input(fmt, n):
    a = float_array(n, 3, non_finite=True)
    assert len(list(table_chunks(FLOAT_HEADER, a, fmt))) == len(
        list(table_chunks(FLOAT_HEADER, a.tolist(), fmt))
    )


def test_float_array_cells_skip_per_cell_formatting(monkeypatch):
    # only a JSON chunk that holds a non-finite value goes cell by cell;
    # CSV formats only its header through _fmt
    calls = {"fmt": 0, "json": 0}
    fmt, json_value = _table._fmt, _table._json_value

    def fmt_counted(x):
        calls["fmt"] += 1
        return fmt(x)

    def json_counted(x):
        calls["json"] += 1
        return json_value(x)

    monkeypatch.setattr(_table, "_fmt", fmt_counted)
    monkeypatch.setattr(_table, "_json_value", json_counted)
    n = 2 * CHUNK_ROWS + 3
    "".join(table_chunks(FLOAT_HEADER, float_array(n, 3)))
    "".join(table_chunks(FLOAT_HEADER, float_array(n, 3), "json"))
    assert calls == {"fmt": 3, "json": 0}
    "".join(table_chunks(FLOAT_HEADER, float_array(n, 3, non_finite=True), "json"))
    assert calls == {"fmt": 3, "json": 3 * CHUNK_ROWS}


EMPTY_ROWS = {"list": [], "array": np.empty((0, 3))}


@pytest.mark.parametrize("rows", list(EMPTY_ROWS.values()), ids=list(EMPTY_ROWS))
def test_empty_table(rows):
    # JSON is still an array; CSV is the header line alone
    assert json.loads("".join(table_chunks(FLOAT_HEADER, rows, "json"))) == []
    assert "".join(table_chunks(FLOAT_HEADER, rows)) == csv_reference(FLOAT_HEADER, [])
