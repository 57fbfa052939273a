"""Check the table writer's float text against Python over many values.

Each family of float64 values is written as a one-column CSV table and
as a one-column JSON table, and every cell is compared with Python's own
spelling: `"%.17g" % x` for CSV, `float.__repr__(x)` for JSON (NaN and
the infinities as `json.dumps` spells them).  The families are normal
draws, log-uniform magnitudes in [1e-13, 1e17] with random sign, short
decimals, dyadic rationals, exact %.17g ties, the floats at and next to
powers of 2 and of 10 across the vector path's range (1e-11 to 1e15),
zeros with the extremes of the format, and raw random bit patterns.

For each family the sweep prints the value count, the mismatching cells
per format, and the share of values the vector path hands to Python
(|x| outside [10**-11, 1e15) and not +-0).  Exit 0 when every cell
matches, 1 when one does not, 2 on a usage error.

Usage:
    python3 scripts/format_sweep.py [--n N] [--seed S]
"""

import argparse
import json
import math

import numpy as np

from barenblatt._table import table_chunks
from barenblatt.verify import DEFAULT_SEED

BATCH = 1 << 18


def _signs(rng, n):
    return rng.choice([-1.0, 1.0], n)


def _neighbours(rng, x):
    """x itself or the float just below or just above it."""
    step = rng.integers(-1, 2, len(x))
    return np.where(step < 0, np.nextafter(x, 0.0), np.where(step > 0, np.nextafter(x, math.inf), x))


def _ties(rng, n):
    # N / 2**p with N odd and N 5**p of 18 digits: %.17g rounds a tie
    p = rng.integers(3, 26, n)
    return _signs(rng, n) * (rng.integers(-(-(10**17) // 5**p), np.minimum(10**18 // 5**p, 2**53)) | 1) / 2.0**p


_TENS = np.array([float(f"1e{k}") for k in range(-12, 17)])
_EDGES = [1e-11, 1e15, 5e-324, 2.2250738585072014e-308, 1e308]
_SPECIAL = np.concatenate([[0.0, 1.7976931348623157e308], np.nextafter(_EDGES, 0.0), _EDGES,
                           np.nextafter(_EDGES, math.inf)])

FAMILIES = {
    "normal": lambda rng, n: rng.standard_normal(n),
    "log-uniform": lambda rng, n: _signs(rng, n) * 10.0 ** rng.uniform(-13, 17, n),
    "short-decimal": lambda rng, n: rng.integers(-(10**6), 10**6, n) / 10.0 ** rng.integers(0, 16, n),
    "dyadic": lambda rng, n: rng.integers(-(2**20), 2**20, n) * 2.0 ** rng.integers(-60, 40, n),
    "tie": _ties,
    "power-of-2": lambda rng, n: _signs(rng, n) * _neighbours(rng, np.ldexp(1.0, rng.integers(-38, 51, n))),
    "power-of-10": lambda rng, n: _signs(rng, n) * _neighbours(rng, _TENS[rng.integers(0, len(_TENS), n)]),
    "zero-extreme": lambda rng, n: _signs(rng, n) * _SPECIAL[rng.integers(0, len(_SPECIAL), n)],
    "raw-bits": lambda rng, n: rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),
}


def cells(values, fmt):
    """The float cells of a one-column table of values, in order."""
    text = "".join(table_chunks(["x"], values[:, None], fmt))
    if fmt == "csv":
        return text.split("\r\n")[1:-1]
    return [line[9:] for line in text.split("\n") if line.startswith('    "x": ')]


def reference(values, fmt):
    if fmt == "csv":
        return ["%.17g" % x for x in values.tolist()]
    return [float.__repr__(x) if math.isfinite(x) else json.dumps(x) for x in values.tolist()]


def wrong(values, fmt):
    got, want = cells(values, fmt), reference(values, fmt)
    return abs(len(got) - len(want)) + sum(g != w for g, w in zip(got, want))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, default=1_000_000, help="values in all (split over the families)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = ap.parse_args(argv)
    if args.n < 1:
        ap.error(f"--n must be >= 1, got {args.n}")
    if args.seed < 0:
        ap.error(f"--seed must be >= 0, got {args.seed}")

    rng = np.random.default_rng(args.seed)
    per_family = -(-args.n // len(FAMILIES))
    print(f"{'family':<14} {'values':>10} {'csv_wrong':>10} {'json_wrong':>10} {'to_python':>10}")
    totals = np.zeros(4, dtype=np.int64)
    for name, draw in FAMILIES.items():
        counts = np.zeros(4, dtype=np.int64)
        for start in range(0, per_family, BATCH):
            values = draw(rng, min(BATCH, per_family - start))
            ax = np.abs(values)
            python = ~(((ax > 1e-11) & (ax < 1e15)) | (ax == 0))  # the double 1e-11 is below 10**-11
            counts += [len(values), wrong(values, "csv"), wrong(values, "json"), np.count_nonzero(python)]
        totals += counts
        print(f"{name:<14} {counts[0]:>10} {counts[1]:>10} {counts[2]:>10} {counts[3] / counts[0]:>10.4f}")
    print(f"{'all':<14} {totals[0]:>10} {totals[1]:>10} {totals[2]:>10} {totals[3] / totals[0]:>10.4f}")
    return 1 if totals[1] or totals[2] else 0


if __name__ == "__main__":
    raise SystemExit(main())
