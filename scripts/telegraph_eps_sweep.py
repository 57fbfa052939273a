"""Sweep the telegraph sampler's truncation parameter and tabulate KS
distances.

For each eps the same Philox substreams are extended (pathwise
coupling), so the sweep isolates the truncation effect from sampling
noise.  Each row holds the one-sample KS distance of the draws to the
exact law of U_0, the cdf of member (1, 2, xi - 1, 1, 1); truncation
moves that distance by at most f(0) eps.

Usage:
    python3 scripts/telegraph_eps_sweep.py --out sweep.csv [--n N] [--seed S]
"""

import argparse
import sys

from barenblatt._table import table_chunks, write_table
from barenblatt.family import cdf_1d, new_family
from barenblatt.sampling import RngStream, ks_test, sample_epd_telegraph
from barenblatt.verify import DEFAULT_SEED


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=None, help="CSV path (default: stdout)")
    ap.add_argument("--n", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--xi", type=float, default=2.0)
    ap.add_argument("--t", type=float, default=1.0)
    ap.add_argument(
        "--eps",
        nargs="*",
        type=float,
        default=[1e-2, 1e-3, 1e-4, 1e-5, 1e-6],
    )
    args = ap.parse_args(argv)
    if args.xi <= 1.0:
        ap.error("--xi must be > 1 (gamma = xi - 1 must stay positive)")

    rows = []
    try:
        fam = new_family(1.0, 2.0, args.xi - 1.0, 1.0, 1)
        for eps in sorted(args.eps, reverse=True):
            tele = sample_epd_telegraph(
                RngStream(args.seed, 0), args.xi, 1.0, args.t, eps, args.n
            )
            d_law = ks_test(tele, lambda x: cdf_1d(fam, x, args.t)).statistic
            rows.append((eps, d_law, args.n, args.xi, args.t, args.seed))
            print(f"eps={eps:8.1e}  ks_to_cdf={d_law:.6f}")
    except ValueError as exc:
        # a value the library refuses is a usage error, as in the CLI
        print(f"{ap.prog}: error: {exc}", file=sys.stderr)
        return 2

    header = ["eps", "ks_to_cdf", "n", "xi", "t", "seed"]
    if args.out:
        write_table(args.out, header, rows)
    else:
        sys.stdout.writelines(table_chunks(header, rows))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
