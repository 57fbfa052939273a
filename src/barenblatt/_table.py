"""The package's one table format: CSV or JSON text, produced in chunks.

A table is a header and rows of cells in header order.  CSV is
RFC-4180-style (`csv.writer`, CRLF line ends) with floats printed at 17
significant digits and every other cell through `str`.  JSON is an array
of objects keyed by the header, laid out exactly as
`json.dumps(rows, indent=2)` plus a final newline: finite floats in their
shortest round-trip repr, everything else as `json.dumps` spells it.
Text comes out CHUNK_ROWS rows at a time, so no whole-table string is
ever built.

Rows given as a 2-d float64 ndarray are formatted a chunk at a time: one
`%` over a chunk-wide template of `%.17g` (CSV) or `%r` (JSON) cells.  A
float printed that way never needs CSV quoting, and `%r` is the float's
repr, so the bytes are those of the cell-by-cell path, which serves every
other kind of rows and a JSON chunk holding NaN or an infinity.
"""

from __future__ import annotations

import csv
import io
import json
import math
from itertools import islice

import numpy as np

CHUNK_ROWS = 4096


def _fmt(x) -> str:
    if isinstance(x, float):
        return "%.17g" % x
    return str(x)


def _json_value(x) -> str:
    if type(x) is float and math.isfinite(x):
        return float.__repr__(x)
    return json.dumps(x)


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(map(_fmt, row) for row in rows)
    return buf.getvalue()


def _chunks(rows):
    if isinstance(rows, np.ndarray):
        for i in range(0, len(rows), CHUNK_ROWS):
            yield rows[i : i + CHUNK_ROWS]
        return
    rows = iter(rows)
    while chunk := list(islice(rows, CHUNK_ROWS)):
        yield chunk


def table_chunks(header, rows, fmt: str = "csv"):
    """Yield the text of a CSV (default) or JSON table, chunk by chunk."""
    floats = isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.float64
    if fmt == "json":
        keys = [json.dumps(k).replace("%", "%%") for k in header]
        obj, fast = ("  {\n" + ",\n".join(f"    {k}: {spec}" for k in keys) + "\n  }"
                     for spec in ("%s", "%r"))
        sep = "[\n"
        for chunk in _chunks(rows):
            if floats and np.isfinite(chunk).all():
                text = ",\n".join([fast] * len(chunk)) % tuple(chunk.ravel().tolist())
            else:
                if floats:
                    chunk = chunk.tolist()
                text = ",\n".join(obj % tuple(map(_json_value, r)) for r in chunk)
            yield sep + text
            sep = ",\n"
        yield "\n]\n" if sep == ",\n" else "[\n]\n"
    else:
        yield _csv_text([header])
        if floats:
            line = ",".join(["%.17g"] * rows.shape[1]) + "\r\n"
        for chunk in _chunks(rows):
            if floats:
                yield line * len(chunk) % tuple(chunk.ravel().tolist())
            else:
                yield _csv_text(chunk)


def write_table(path: str, header, rows, fmt: str = "csv") -> None:
    """Write a table to a file, chunk by chunk."""
    with open(path, "w", newline="") as fh:
        fh.writelines(table_chunks(header, rows, fmt))
