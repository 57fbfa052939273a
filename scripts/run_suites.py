"""Run every verification suite and write CSV/JSON reports.

Usage:
    python3 scripts/run_suites.py --out reports [--seed N] [--threads K]

Beside the per-suite reports, --out receives summary.json: the seed,
overall pass, and per suite its name, check count, failing check names
and elapsed_s.  Exit status is nonzero if any check fails, so this
doubles as a batch gate for CI-style runs.
"""

import argparse
import json
import os
import time

from barenblatt.verify import SUITE_NAMES, DEFAULT_SEED, run_suite


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="reports", help="report directory")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument(
        "--suites",
        nargs="*",
        default=list(SUITE_NAMES),
        choices=SUITE_NAMES,
        help="subset to run (default: all)",
    )
    args = ap.parse_args(argv)
    if args.threads < 1:
        ap.error(f"--threads must be >= 1, got {args.threads}")

    all_ok = True
    summary = []
    for name in args.suites:
        t0 = time.perf_counter()
        report = run_suite(name, seed=args.seed, out_dir=args.out, threads=args.threads)
        dt = time.perf_counter() - t0
        failed = [c for c in report.checks if not c.passed]
        status = "ok" if report.passed else f"{len(failed)} FAILED"
        print(f"{name:16s} {len(report.checks):3d} checks  {status:12s} {dt:6.1f}s")
        for c in failed:
            print(f"    FAIL {c.name}: value={c.value!r} tol={c.tolerance!r}")
        all_ok = all_ok and report.passed
        summary.append({
            "name": name,
            "checks": len(report.checks),
            "failures": [c.name for c in failed],
            "elapsed_s": dt,
        })
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "summary.json"), "w") as fh:
        json.dump({"seed": args.seed, "passed": all_ok, "suites": summary}, fh, indent=2)
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
