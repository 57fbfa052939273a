"""Table writer: its bytes equal the csv/json standard-library reference."""

import csv
import io
import json
import math

import pytest

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
