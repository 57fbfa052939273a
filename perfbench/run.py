"""End-to-end and per-layer benchmark for the barenblatt package.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {sample,transform,telegraph} \
        --seed N --seconds S --trace {0,1}

--trace 0 runs one workload as a closed loop with a single client, in this
process, on the sources under src/.  Whole cycles of requests (see
workloads.py) run until S seconds have passed and at least 100 requests
are done, so the p90 latency has ten samples beyond it.  Set-up time is
the median of five fresh processes that each import the package, build
the request list and warm up every request type once.  After the loop,
every output is checked against an independent route (checks.py); a
request fails if it raises or if its output fails a check.

--trace 1 is the separate traced run: for each of the three workloads it
runs one request cycle untraced, then traced with spans and counts at the
public entry points of every module (tracing.py), at least twice and
until S seconds have passed.  Every count must repeat exactly between
traced passes.  The per-layer figures are per pass over the three cycles.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A fuller record, with provenance, goes to
perfbench/out/.
"""

from __future__ import annotations

import os

# pin BLAS threads before numpy loads; parallel_draw is the only threaded layer
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

# numpy, workloads and barenblatt are imported inside functions so that
# their import is part of the measured set-up, and scipy (checks.py) only
# after the timed loop, so that it is not in the workload's peak RSS.

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_PROBES = 5
MIN_REQUESTS = 100
MIN_TRACED_PASSES = 2
# bessel_j is wrong from order 8 on for x in [14, ~30], where its Hankel
# expansion is used although it needs x >> order^2.  A radial ft request
# that needs such an order and fails its check is counted as failed and
# reported as this known defect rather than as a new fault.
KNOWN_DEFECT_ORDER = 8.0
TELEGRAPH_PATHS_CHECKED = 250


def load_package():
    """Import barenblatt from this checkout's src/, never from elsewhere."""
    init = os.path.join(SRC, "barenblatt", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"perfbench: no barenblatt sources at {init}")
    sys.path.insert(0, SRC)
    import barenblatt

    if os.path.realpath(barenblatt.__file__) != os.path.realpath(init):
        sys.exit(f"perfbench: imported barenblatt from {barenblatt.__file__}, not {init}")
    from barenblatt import cli, family, sampling, transforms, verify  # noqa: F401

    return barenblatt


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def work_dir() -> str:
    path = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def warm_up(workload: str, seed: int, outdir: str) -> None:
    import workloads as wl

    for r in wl.warmup_requests(workload, seed, outdir, nproc()):
        wl.materialize(r, wl.execute(r))


def setup_probe(workload: str, seed: int) -> float:
    """Import, build the request list and warm up; the set-up a user pays."""
    t0 = time.perf_counter()
    load_package()
    import workloads as wl

    outdir = work_dir()
    wl.cycle(workload, seed, 0, outdir, nproc())
    warm_up(workload, seed, outdir)
    elapsed = time.perf_counter() - t0
    shutil.rmtree(outdir, ignore_errors=True)
    return elapsed


def measure_setup(workload: str, seed: int) -> list:
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    values = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{done.stderr}")
        values.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return values


# ----------------------------------------------------------------------
# the timed loop


def run_request(r):
    """(latency_s, raw output or None, error message or None)."""
    import workloads as wl

    t0 = time.perf_counter()
    try:
        out = wl.execute(r)
    except Exception as exc:  # a failed request is counted, not fatal
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, out, None


def keep(r, out, keepdir: str, index: int):
    """Park an output on disk for the checks, so it holds no memory now."""
    import numpy as np

    if r.kind == "cli":
        dest = os.path.join(keepdir, f"{index}-{os.path.basename(out)}")
        os.replace(out, dest)
        return dest
    if r.kind == "suite":
        return out
    dest = os.path.join(keepdir, f"{index}.npy")
    np.save(dest, np.asarray(out, dtype=float))
    return dest


def timed_loop(workload: str, seed: int, seconds: float, outdir: str):
    import workloads as wl

    keepdir = os.path.join(outdir, "keep")
    os.makedirs(keepdir, exist_ok=True)
    records = []
    start = time.perf_counter()
    k = 0
    while True:
        for r in wl.cycle(workload, seed, k, outdir, nproc()):
            dt, out, err = run_request(r)
            kept = None if err else keep(r, out, keepdir, len(records))
            records.append(dict(request=r, latency_s=dt, kept=kept, error=err, cycle=k))
        k += 1
        if time.perf_counter() - start >= seconds and len(records) >= MIN_REQUESTS:
            return records, k


def load_kept(r, kept):
    import numpy as np

    if r.kind == "cli":
        with open(kept, "rb") as fh:
            data = fh.read()
        os.remove(kept)
        return data
    if r.kind == "suite":
        return kept
    value = np.load(kept)
    os.remove(kept)
    return value


def check_request(r, value) -> list:
    import checks
    import workloads as wl

    p = r.params
    if r.kind == "cli":
        command = r.argv[0]
        if command == "sample":
            return checks.check_sample_cli(p, value)
        if command == "ft":
            return checks.check_ft(p, value)
        if command == "eval":
            return checks.check_eval(p, value)
        return checks.check_msd(p, value)
    if r.kind == "parallel_draw":
        return checks.check_parallel_draw(p, value)
    if r.kind == "telegraph":
        # variate i always comes from the i-th spawned substream, so a rerun
        # of the first paths at another eps is pathwise comparable
        fails = checks.check_telegraph(p, value)
        eps_ref = 1e-3 if p["eps"] != 1e-3 else 1e-4
        m = min(p["n"], TELEGRAPH_PATHS_CHECKED)
        ref = wl.execute(wl.Request("telegraph", r.label, m, dict(p, eps=eps_ref, n=m)))
        return fails + checks.telegraph_bound(p, value[:m], ref, eps_ref)
    if r.kind == "ek":
        return checks.check_ek(p, value)
    return checks.check_suite(p, value)


def check_records(records, check=check_request) -> None:
    """Fill in each record's failures; runs after the timed loop."""
    import workloads as wl

    for rec in records:
        r = rec["request"]
        if rec["error"]:
            rec["failures"] = [rec["error"]]
        else:
            try:
                rec["failures"] = check(r, load_kept(r, rec["kept"]))
            except Exception as exc:  # an output the checks cannot read fails
                rec["failures"] = [f"check raised {type(exc).__name__}: {exc}"]
        rec["known_defect"] = bool(rec["failures"]) and wl.bessel_order(r) >= KNOWN_DEFECT_ORDER
        rec.pop("kept")


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def cycle_throughput(records) -> list:
    """Items / busy seconds of each whole cycle, in cycle order."""
    per_cycle = {}
    for rec in records:
        items, busy = per_cycle.get(rec["cycle"], (0, 0.0))
        per_cycle[rec["cycle"]] = (items + rec["request"].items, busy + rec["latency_s"])
    return [i / b for i, b in per_cycle.values()]


def end_to_end(records, setup_values, rss_mb: float) -> dict:
    """The user-visible metrics.  Throughput is the median over whole
    cycles of items / busy time, so one slow stretch moves it less."""
    lat = [rec["latency_s"] for rec in records]
    return {
        "setup_s": (statistics.median(setup_values), "s"),
        "items_per_s": (statistics.median(cycle_throughput(records)), "1/s"),
        "latency_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
        "latency_p90_ms": (percentile(lat, 90) * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


# ----------------------------------------------------------------------
# provenance and output


def git_commit():
    """HEAD of the checkout if it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int, trace: int) -> dict:
    import numpy as np
    import scipy

    import barenblatt

    with open(os.path.join(HERE, "layers.json")) as fh:
        confirm_seed = json.load(fh)["confirm_seed"]
    return {
        "seed": seed,
        "confirm_seed": confirm_seed,
        "trace": trace,
        "nproc": nproc(),
        "parallel_draw_threads": nproc(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "barenblatt": barenblatt.__version__,
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


def emit(result: dict, record: dict, name: str) -> None:
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print("provenance " + json.dumps(record["provenance"]))
    print(json.dumps(result))


def main_untraced(workload: str, seed: int, seconds: float) -> int:
    load_package()
    setup_values = measure_setup(workload, seed)
    outdir = work_dir()
    warm_up(workload, seed, outdir)
    t0 = time.perf_counter()
    records, cycles = timed_loop(workload, seed, seconds, outdir)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    t1 = time.perf_counter()
    check_records(records)
    phases = {"loop_wall_s": t1 - t0, "check_wall_s": time.perf_counter() - t1}
    shutil.rmtree(outdir, ignore_errors=True)

    metrics = end_to_end(records, setup_values, rss_mb)
    attempted = len(records)
    failed = [rec for rec in records if rec["failures"]]
    known = [rec for rec in failed if rec["known_defect"]]
    by_label = Counter(rec["request"].label for rec in records)
    lat_by_label = {}
    for rec in records:
        lat_by_label.setdefault(rec["request"].label, []).append(rec["latency_s"] * 1e3)
    items = sum(rec["request"].items for rec in records)
    samples = {
        "setup_s": f"median of {len(setup_values)} fresh-process set-ups",
        "items_per_s": f"median over {cycles} cycles; {items} items in {attempted} requests",
        "latency_p50_ms": f"{attempted} requests",
        "latency_p90_ms": f"{attempted} requests",
        "peak_rss_mb": "1 process, read after the timed loop",
    }
    print(f"workload {workload}  seed {seed}  cycles {cycles}  requests {attempted}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:16s} {value:14.6g} {unit:4s}  ({samples[name]})")
    print(f"  {'error_rate':16s} {len(failed) / attempted:14.6g} {'':4s}  "
          f"({len(failed)} failed of {attempted} attempted; "
          f"{len(known)} are the known bessel_j defect at order >= 8)")
    for rec in failed[:5]:
        print(f"  failed {rec['request'].label}: {rec['failures'][0]}")

    result = {
        "correct": len(failed) == len(known),
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": workload,
        "result": result,
        "error_rate": len(failed) / attempted,
        "known_defect_failures": len(known),
        "samples": samples,
        "setup_s_values": setup_values,
        "cycles": cycles,
        "items_per_s_per_cycle": cycle_throughput(records),
        "phases": phases,
        "requests_per_label": dict(sorted(by_label.items())),
        "median_latency_ms_per_label": {k: statistics.median(v) for k, v in sorted(lat_by_label.items())},
        "failures": [{"label": rec["request"].label, "cycle": rec["cycle"],
                      "known_defect": rec["known_defect"], "messages": rec["failures"]}
                     for rec in failed],
        "provenance": provenance(seed, 0),
    }
    emit(result, record, f"{workload}-seed{seed}.json")
    return 0


# ----------------------------------------------------------------------
# the traced run


def run_pass(reqs, tracer=None):
    """Run one cycle; returns (busy seconds, per-request digest or None if it raised)."""
    import workloads as wl

    busy, digests = 0.0, []
    for i, r in enumerate(reqs):
        if tracer is not None:
            tracer.request = i
        dt, out, err = run_request(r)
        busy += dt
        digests.append(None if err else wl.materialize(r, out)[1])
    return busy, digests


def main_traced(seed: int, seconds: float) -> int:
    load_package()
    import tracing
    import workloads as wl

    outdir = work_dir()
    cycles = {w: wl.cycle(w, seed, 0, outdir, nproc()) for w in wl.WORKLOADS}
    for w in wl.WORKLOADS:
        warm_up(w, seed, outdir)

    untraced = {w: [] for w in wl.WORKLOADS}
    traced = {w: [] for w in wl.WORKLOADS}
    problems, failed = [], []
    start = time.perf_counter()
    span_file = os.path.join(OUT, f"spans-seed{seed}.jsonl")
    os.makedirs(OUT, exist_ok=True)
    with open(span_file, "w") as spans_out:
        npass = 0
        while npass < MIN_TRACED_PASSES or time.perf_counter() - start < seconds:
            for w in wl.WORKLOADS:
                busy, ref_digests = run_pass(cycles[w])
                untraced[w].append(busy)
                tracer = tracing.Tracer()
                uninstall = tracing.install(tracer)
                try:
                    tbusy, digests = run_pass(cycles[w], tracer)
                finally:
                    uninstall()
                # a request fails if it raised or if tracing changed its output
                for r, a, b in zip(cycles[w], ref_digests, digests):
                    if a is None or b is None:
                        failed.append(f"{w} {r.label}: raised")
                    elif a != b:
                        failed.append(f"{w} {r.label}: traced output differs")
                summary = tracing.summarize(tracer.spans)
                traced[w].append(dict(busy=tbusy, summary=summary, counts=dict(tracer.counts),
                                      spans=len(tracer.spans)))
                for s in tracer.spans:
                    spans_out.write(json.dumps([npass, w] + s) + "\n")
            npass += 1
    shutil.rmtree(outdir, ignore_errors=True)

    per_pass = [layer_metrics([traced[w][i] for w in wl.WORKLOADS]) for i in range(npass)]
    counts = [{k: v for k, (v, unit) in m.items() if unit == "count"} for m in per_pass]
    for i in range(1, npass):
        if counts[i] != counts[0]:
            diff = sorted(k for k in counts[0] if counts[i].get(k) != counts[0][k])
            problems.append(f"counts differ between traced passes 1 and {i + 1}: {diff}")
    metrics = {}
    for name, (value, unit) in per_pass[0].items():
        if unit != "count":
            value = statistics.median(m[name][0] for m in per_pass)
        metrics[name] = (value, unit)
    for w in wl.WORKLOADS:
        over = statistics.median(p["busy"] for p in traced[w]) / statistics.median(untraced[w]) - 1.0
        metrics[f"trace.overhead.{w}"] = (over, "ratio")

    attempted = npass * sum(len(c) for c in cycles.values())
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:16.8g} {unit}")
    for msg in problems + failed[:5]:
        print(f"  problem: {msg}")
    result = {
        "correct": not problems and not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "result": result,
        "traced_passes": npass,
        "requests_per_pass": {w: len(c) for w, c in cycles.items()},
        "untraced_busy_s": untraced,
        "traced_busy_s": {w: [p["busy"] for p in traced[w]] for w in wl.WORKLOADS},
        "per_workload_first_pass": {w: {"summary": traced[w][0]["summary"],
                                        "counts": traced[w][0]["counts"]}
                                    for w in wl.WORKLOADS},
        "problems": problems + failed,
        "span_file": os.path.relpath(span_file, ROOT),
        "provenance": provenance(seed, 1),
    }
    emit(result, record, f"trace-seed{seed}.json")
    return 0


def layer_metrics(passes) -> dict:
    """Per-layer figures of one traced pass over every workload's cycle."""
    summary: dict = {}
    counts: Counter = Counter()
    for p in passes:
        for name, row in p["summary"].items():
            acc = summary.setdefault(name, Counter())
            acc.update(row)
        counts.update(p["counts"])
    spans = sum(p["spans"] for p in passes)

    def get(name, field):
        return summary.get(name, {}).get(field, 0)

    def layer_self(prefix):
        return sum(row["self_s"] for name, row in summary.items() if name.startswith(prefix))

    inv = "specfun.inv_reg_inc_beta"
    pd = "sampling.parallel_draw"
    m = {
        f"{inv}.self_s": (get(inv, "self_s"), "s"),
        f"{inv}.calls": (get(inv, "calls"), "count"),
        f"{inv}.lanes": (get(inv, "n"), "count"),
        f"{inv}.newton_lanes": (counts[f"{inv}.newton_lanes"], "count"),
        f"{inv}.newton_lanes_per_lane": (counts[f"{inv}.newton_lanes"] / max(get(inv, "n"), 1), "ratio"),
        "specfun.reg_inc_beta.self_s": (get("specfun.reg_inc_beta", "self_s"), "s"),
        "specfun.reg_inc_beta.lanes": (get("specfun.reg_inc_beta", "n"), "count"),
        "specfun.integrate.self_s": (get("specfun.integrate", "self_s"), "s"),
        "specfun.integrate.calls": (get("specfun.integrate", "calls"), "count"),
        "specfun.integrate.integrand_evals": (get("specfun.integrate", "n"), "count"),
        "specfun.integrate.evals_per_call": (
            get("specfun.integrate", "n") / max(get("specfun.integrate", "calls"), 1), "ratio"),
        "specfun.bessel_j.self_s": (get("specfun.bessel_j", "self_s"), "s"),
        "specfun.bessel_j.points": (get("specfun.bessel_j", "n"), "count"),
    }
    for fn in ("char_fn_1d", "char_fn_radial", "char_fn_projection", "ek_integral"):
        m[f"transforms.{fn}.self_s"] = (get(f"transforms.{fn}", "self_s"), "s")
        m[f"transforms.{fn}.calls"] = (get(f"transforms.{fn}", "calls"), "count")
    for fn in ("pdf", "radial_pdf", "cdf_1d"):
        m[f"family.{fn}.self_s"] = (get(f"family.{fn}", "self_s"), "s")
    wall, block = get(pd, "dur_s"), get(f"{pd}.block", "dur_s")
    threads = get(pd, "n") / max(get(pd, "calls"), 1)
    m.update({
        "sampling.sample_position.self_s": (get("sampling.sample_position", "self_s"), "s"),
        "sampling.sample_position.draws": (get("sampling.sample_position", "n"), "count"),
        "sampling.normals.self_s": (get("sampling.normals", "self_s"), "s"),
        f"{pd}.wall_s": (wall, "s"),
        f"{pd}.block_busy_s": (block, "s"),
        f"{pd}.efficiency": (block / (wall * threads) if wall else 0.0, "ratio"),
        "sampling.rngstream.constructions": (get("sampling.rngstream.init", "calls"), "count"),
        "sampling.rngstream.init_s": (get("sampling.rngstream.init", "self_s"), "s"),
        "sampling.exponentials.calls": (counts["sampling.exponentials.calls"], "count"),
        "sampling.sample_epd_telegraph.self_s": (get("sampling.sample_epd_telegraph", "self_s"), "s"),
        "sampling.sample_epd_telegraph.variates": (get("sampling.sample_epd_telegraph", "n"), "count"),
        "cli.main.self_s": (get("cli.main", "self_s"), "s"),
        "cli.rows": (counts["cli.rows"], "count"),
        "cli.bytes_written": (counts["cli.bytes_written"], "count"),
    })
    for fn in ("run_suite", "pme_residual", "epd_residual", "epd_type_wave_residual"):
        m[f"verify.{fn}.self_s"] = (get(f"verify.{fn}", "self_s"), "s")
    m["fractional.self_s"] = (layer_self("fractional."), "s")
    m["presets.self_s"] = (layer_self("presets."), "s")
    m["trace.spans"] = (spans, "count")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="barenblatt benchmark")
    ap.add_argument("--workload", required=True, choices=("sample", "transform", "telegraph"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (args.seconds > 0.0 and math.isfinite(args.seconds)):
        ap.error("--seconds must be a positive number")
    sys.path.insert(0, HERE)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_probe(args.workload, args.seed)}))
        return 0
    if args.trace:
        return main_traced(args.seed, args.seconds)
    return main_untraced(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
