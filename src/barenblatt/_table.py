"""The package's one table format: CSV or JSON text, produced in chunks.

A table is a header and rows of cells in header order.  CSV is
RFC-4180-style (`csv.writer`, CRLF line ends) with floats printed at 17
significant digits and every other cell through `str`.  JSON is an array
of objects keyed by the header, laid out exactly as
`json.dumps(rows, indent=2)` plus a final newline: finite floats in their
shortest round-trip repr, everything else as `json.dumps` spells it.
Text comes out CHUNK_ROWS rows at a time, so no whole-table string is
ever built.

Rows given as a 2-d float64 ndarray are formatted a chunk at a time.  A
chunk of at least VECTOR_CELLS cells is spelled in numpy with no Python
call per cell: exact integer arithmetic gives each float's digits, in
the manner of Ryu (Adams, PLDI 2018), and shifts of 64-bit words lay out
its text (`_decimal`, `_cells`).  Cells with |x| outside [10**-11, 1e15)
other than +-0 (subnormals, non-finite values, very large and very small
ones) take Python's own `"%.17g" % x` or `float.__repr__(x)`.  A smaller
chunk is one `%` over a chunk-wide template of `%.17g` (CSV) or `%r`
(JSON) cells, because the vector path's fixed cost of ~0.2 ms a chunk
loses below that size.  Either way the bytes are those of the
cell-by-cell path, which serves every other kind of rows and a JSON
chunk holding NaN or an infinity.
"""

from __future__ import annotations

import csv
import io
import json
import math
from itertools import islice

import numpy as np

from .sampling import _mulhilo

CHUNK_ROWS = 4096
# Cells in a float64 chunk from which the vector path is used: the measured
# crossover with one `%` per chunk (about 430 cells for CSV, 390 for JSON).
VECTOR_CELLS = 450

_U = np.uint64
_ZEROS = _U(0x3030303030303030)  # eight ASCII '0's
_P5 = np.array([5**s for s in range(28)], _U)


def _ceil_pow10(j):
    """The least double >= 10**j."""
    d = float(f"1e{j}")
    p, q = d.as_integer_ratio()
    return d if j >= 0 or p * 10**-j >= q else math.nextafter(d, math.inf)


# The vector path prints 10**-11 <= |x| < 1e15, so k = floor(log10 |x|)
# lies in [-11, 14] and 5**s = 5**(16 - k) fits a word.  (Rounding carries
# to a power of ten only below 1: 10**k is a double for k >= 0.)  The
# binade of biased exponent E holds at most one power of ten, so
# k = _K0[E] + (|x| >= _TEN[E]).
_X_LO = _ceil_pow10(-11)
_K0 = np.clip(np.floor((np.arange(2048) - 1023) * math.log10(2)), -12, 14).astype(np.intp)
_TEN = np.array([_ceil_pow10(j) for j in range(-11, 16)])[_K0 + 12]
_EXP = np.frombuffer("".join(f"e-{-k:02d}" for k in range(-11, -4)).encode(), "<u4").astype(_U)
# A cell's text is three little-endian words: _FIRST[w, n] is word w of
# the mask that keeps its first n bytes, _DOT[w, n] word w of a "." at byte n.
_FIRST = np.array([[(1 << min(max(8 * n - 64 * w, 0), 64)) - 1 for n in range(25)]
                   for w in range(3)], _U)
_DOT = (_FIRST[:, 1:] ^ _FIRST[:, :-1]) & _U(0x2E2E2E2E2E2E2E2E)


def _decimal(x, shortest):
    """(k, c) for each x in [10**-11, 1e15): c in [1e16, 1e17) holds the
    digits of `"%.17g" % x` or, if shortest, of `float.__repr__(x)` padded
    with 0s, and k is the printed value's decimal exponent.

    With x = m 2**e, s = 16 - k and r = -(e + s), Q = m 5**s / 2**r is x
    in units of its 17th digit; %.17g rounds Q half to even.  repr takes
    the shortest integer strictly inside the rounding interval
    (2m -+ 1) 5**s / 2**(r + 1), whose ends are never integers and which
    is under 23 units wide: a multiple of 100 if one is inside (then it
    is the only one), else the multiple of 10 inside nearest to x, else
    Q rounded.
    """
    bits = x.view(_U)
    biased = (bits >> _U(52)).astype(np.intp)
    m = (bits & _U(2**52 - 1)) | _U(2**52)
    k = _K0[biased] + (x >= _TEN[biased])
    r = (1059 - biased + k).astype(_U)  # -(e + s) for e = biased - 1075
    p5 = _P5[16 - k]
    lo, hi = _mulhilo((p5, p5 & _U(2**32 - 1), p5 >> _U(32)), m)
    q = (hi << (64 - r)) | (lo >> r)
    rem = lo & ((_U(1) << r) - _U(1))
    half = _U(1) << (r - _U(1))
    c = q + ((rem > half) | ((rem == half) & (q & _U(1) == 1)))
    if shortest:
        # lower..upper are the integers inside; below a power of two the
        # gap to the next smaller float is half as wide
        sh = r + _U(1)
        upper = q + (p5 >> sh) + (((rem << _U(1)) + (p5 & ((_U(1) << sh) - _U(1)))) >> sh)
        sh += m == _U(2**52)
        lower = q - (p5 >> sh) + ((rem << (sh - r)) > (p5 & ((_U(1) << sh) - _U(1))))
        tens = q // _U(10)
        unit = q - tens * _U(10)
        up = (unit > 5) | ((unit == 5) & ((rem > 0) | (tens & _U(1) == 1)))
        near, far = (tens + up) * _U(10), (tens + ~up) * _U(10)
        c = np.where((far >= lower) & (far <= upper), far, c)
        c = np.where((near >= lower) & (near <= upper), near, c)
        hundred = (lower + _U(99)) // _U(100) * _U(100)
        c = np.where(hundred <= upper, hundred, c)
    carry = c == _U(10**17)
    return k + carry, np.where(carry, _U(10**16), c)


def _digits8(v):
    """The 8 decimal digits of each v < 1e8, one a byte, first digit
    lowest: a multiply-and-shift split into 4-, 2- and 1-digit lanes."""
    hi = v // _U(10**4)
    v = hi | ((v - hi * _U(10**4)) << _U(32))
    hi = ((v * _U(10486)) >> _U(20)) & _U(0x0000007F0000007F)  # x // 100 for x < 1e4
    v = hi | ((v - hi * _U(100)) << _U(16))
    hi = ((v * _U(103)) >> _U(10)) & _U(0x000F000F000F000F)  # x // 10 for x < 100
    return hi | ((v - hi * _U(10)) << _U(8))


def _cells(a, shortest):
    """The text of each float of `a`, as `float.__repr__` (shortest) or
    `"%.17g" %`: three little-endian words, NUL after its end."""
    ax = np.abs(a)
    zero = ax == 0
    exact = (ax >= _X_LO) & (ax < 1e15)
    k, c = _decimal(np.where(exact, ax, 1.0), shortest)
    c[zero] = 0
    # digits 1-8 and 9-16, a byte each, and digit 17; `count` of them run
    # to the last nonzero one, which is the top nonzero byte
    head, tens = c // _U(10**9), c // _U(10)
    words = np.empty((len(a), 2), _U)
    words[:, 0], words[:, 1] = head, tens - head * _U(10**8)
    words = _digits8(words)
    last = c - tens * _U(10)
    nonzero = (np.frexp(words)[1] + 7) // 8
    count = np.where(last > 0, 17, np.where(nonzero[:, 1] > 0, 8 + nonzero[:, 1], nonzero[:, 0]))
    # text: a sign, below 1 a 0 per leading zero, the digits; then a point
    # after `point` bytes, a cut after `size` bytes and any exponent
    sci = k < -4
    neg = np.signbit(a)
    zeros = np.where(sci, 0, np.maximum(-k, 0))
    point = np.where(sci, 1, np.maximum(k + 1, 1)) + neg
    used = count + zeros + neg
    size = np.where(used > point, used + 1, point + 2 * (shortest & ~sci))
    sign, shift = (8 * neg).astype(_U), (8 * zeros).astype(_U)
    fill = ((_ZEROS >> (_U(64) - shift)) << sign) | (neg * _U(ord("-")))
    shift += sign
    d0, d1 = words[:, 0] | _ZEROS, words[:, 1] | _ZEROS
    z0 = (d0 << shift) | fill
    z1 = (d1 << shift) | (d0 >> (_U(64) - shift))
    z2 = ((last | _U(0x30)) << shift) | (d1 >> (_U(64) - shift))
    m0, m1 = _FIRST[0][point], _FIRST[1][point]
    hi0, hi1 = z0 & ~m0, z1 & ~m1
    t = [(z0 & m0) | (hi0 << _U(8)) | _DOT[0][point],
         (z1 & m1) | (hi1 << _U(8)) | (hi0 >> _U(56)) | _DOT[1][point],
         (z2 << _U(8)) | (hi1 >> _U(56)) | _DOT[2][point]]
    for w, first in zip(t, _FIRST):
        w &= first[size]
    sci = np.flatnonzero(sci & exact)
    if sci.size:
        e, at = _EXP[k[sci] + 11], (8 * size[sci]).astype(_U)
        for j, w in enumerate(t):
            w[sci] |= (e << (at - _U(64 * j))) | (e >> (_U(64 * j) - at))
    slow = np.flatnonzero(~(exact | zero))
    if slow.size:
        # Python's own spelling, at most 24 bytes
        spell = float.__repr__ if shortest else "%.17g".__mod__
        text = "".join(spell(v).ljust(24, "\0") for v in a[slow].tolist())
        words = np.frombuffer(text.encode(), "<u8").reshape(-1, 3)
        for j, w in enumerate(t):
            w[slow] = words[:, j]
    return t


def _prefix_words(prefixes):
    """Each column's prefix, right-aligned after NUL pads in whole words."""
    width = 8 * -(-max(map(len, prefixes)) // 8)
    text = b"".join(p.encode().rjust(width, b"\0") for p in prefixes)
    return np.frombuffer(text, "<u8").reshape(len(prefixes), -1)


def _vector_text(chunk, prefix, shortest):
    """A float chunk's cells, each behind its column's prefix words, with
    the NUL pads dropped.  (At most CHUNK_ROWS cells at a time keeps the
    work arrays small: ~10% faster on a 4096 x 3 chunk than all at once.)"""
    width = prefix.shape[1]
    buf = np.empty(chunk.shape + (width + 3,), "<u8")
    buf[:, :, :width] = prefix
    cells, rows = chunk.reshape(-1), buf.reshape(chunk.size, -1)
    for start in range(0, chunk.size, CHUNK_ROWS):
        block = slice(start, start + CHUNK_ROWS)
        for j, w in enumerate(_cells(cells[block], shortest), width):
            rows[block, j] = w
    return buf.tobytes().translate(None, b"\0").decode("ascii")


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
        keys = [json.dumps(k) for k in header]
        if floats and rows.size >= VECTOR_CELLS:
            end = "\n  },\n"  # ends the row before, as column 0's prefix
            prefix = _prefix_words([f"{end}  {{\n    {keys[0]}: "]
                                   + [f",\n    {k}: " for k in keys[1:]])
        keys = [k.replace("%", "%%") for k in keys]
        obj, fast = ("  {\n" + ",\n".join(f"    {k}: {spec}" for k in keys) + "\n  }"
                     for spec in ("%s", "%r"))
        sep = "[\n"
        for chunk in _chunks(rows):
            if floats and np.isfinite(chunk).all():
                if chunk.size >= VECTOR_CELLS:
                    text = _vector_text(chunk, prefix, shortest=True)[len(end) :] + "\n  }"
                else:
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
            # column 0's prefix ends the row before; the first row's is cut
            prefix = _prefix_words(["\r\n"] + [","] * (rows.shape[1] - 1))
        for chunk in _chunks(rows):
            if floats and chunk.size >= VECTOR_CELLS:
                yield _vector_text(chunk, prefix, shortest=False)[2:] + "\r\n"
            elif floats:
                yield line * len(chunk) % tuple(chunk.ravel().tolist())
            else:
                yield _csv_text(chunk)


def write_table(path: str, header, rows, fmt: str = "csv") -> None:
    """Write a table to a file, chunk by chunk."""
    with open(path, "w", newline="") as fh:
        fh.writelines(table_chunks(header, rows, fmt))
