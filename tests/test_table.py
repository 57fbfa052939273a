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


def float_families(n=25_000, seed=1400):
    """About 2e5 float64 values, by family, reaching every branch of the
    vector formatter and its fallback cells."""
    rng = np.random.default_rng(seed)
    sign = rng.choice([-1.0, 1.0], n)

    def neighbours(x):
        # x itself or the float just below or just above it
        step = rng.integers(-1, 2, n)
        return np.where(step < 0, np.nextafter(x, 0.0), np.where(step > 0, np.nextafter(x, math.inf), x))

    # N / 2**p with N odd and N 5**p of 18 digits: its exact decimal ends
    # in a 5 at the 18th digit, so %.17g rounds a tie
    p = rng.integers(3, 26, n)
    ties = (rng.integers(-(-(10**17) // 5**p), np.minimum(10**18 // 5**p, 2**53)) | 1) / 2.0**p
    tens = np.array([float(f"1e{k}") for k in range(-12, 17)])
    edges = [1e-11, 1e15, 5e-324, 2.2250738585072014e-308, 1e308]
    special = np.concatenate([[0.0, -0.0, 1.7976931348623157e308], np.nextafter(edges, 0.0), edges,
                              np.nextafter(edges, math.inf)])
    return {
        "normal draws": rng.standard_normal(n),
        "log-uniform": sign * 10.0 ** rng.uniform(-13, 17, n),
        "short decimals": rng.integers(-(10**6), 10**6, n) / 10.0 ** rng.integers(0, 16, n),
        "dyadic": rng.integers(-(2**20), 2**20, n) * 2.0 ** rng.integers(-60, 40, n),
        "ties": sign * ties,
        "powers of 2": sign * neighbours(np.ldexp(1.0, rng.integers(-38, 51, n))),
        "powers of 10": sign * neighbours(tens[rng.integers(0, len(tens), n)]),
        "zeros and extremes": np.resize(np.concatenate([special, -special]), n),
    }


FAMILY_HEADER = ["a", "b", "c", "d"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_float_families_match_reference(fmt):
    # every byte of the vector path against the per-cell references
    reference = csv_reference if fmt == "csv" else json_reference
    wrong = {}
    for name, values in float_families().items():
        a = values.reshape(-1, len(FAMILY_HEADER))
        got = lines("".join(table_chunks(FAMILY_HEADER, a, fmt)))
        want = lines(reference(FAMILY_HEADER, a.tolist()))
        bad = [(g, w) for g, w in zip(got, want) if g != w]
        if bad or len(got) != len(want):
            wrong[name] = (len(bad), bad[:2])
    assert not wrong


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "n, m",
    [(_table.VECTOR_CELLS - 1, 1), (_table.VECTOR_CELLS, 1), (-(-_table.VECTOR_CELLS // 3), 3),
     (CHUNK_ROWS + _table.VECTOR_CELLS // 2, 2)],
    ids=["below-cutover", "at-cutover", "3col-at-cutover", "chunk-and-tail-at-cutover"],
)
def test_chunks_either_side_of_cutover_match_reference(fmt, n, m):
    values = np.concatenate(list(float_families(n=1_000, seed=1401).values()))
    a = np.resize(values, n * m).reshape(n, m)
    header = FAMILY_HEADER[:m]
    reference = csv_reference if fmt == "csv" else json_reference
    assert lines("".join(table_chunks(header, a, fmt))) == lines(reference(header, a.tolist()))
