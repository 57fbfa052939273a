"""Seeded request lists for the three benchmark workloads.

Every workload repeats a fixed cycle of request slots.  A slot fixes what
sets a request's cost (the kind, family member, size, output format, and
for ft and eval grids their reach in units of the member's length scale);
the seed fills in what does not (seeds, stream ids, times, grid ends, the
order of the cycle), drawn afresh for every cycle so no two requests in a
run are identical.  Because the mix of slots is the same on every seed,
throughput and latency percentiles of two seeds measure the same work.

The slot counts place the latency median and p90 inside groups of
similar requests rather than on the step between two groups, which keeps
the percentiles steady from run to run.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("sample", "transform", "telegraph")

# (alpha, beta, gamma, c, d).  Every d = 1 member has a = 1/beta < 1 and so
# takes the power-tail seed of the inverse incomplete beta; every d >= 2
# member here has a = d/beta > 1 and b = gamma + 1 > 1, the normal seed.
WIGNER = (0.5, 2.0, 0.5, 2.0, 1)
TAIL_MEMBERS = [
    "wigner",
    (0.5, 2.0, 0.5, 2.0, 1),
    (0.7, 2.5, 0.8, 1.5, 1),
    (1.0, 1.5, 2.0, 0.7, 1),
    (0.3, 3.0, 1.0, 1.0, 1),
    (0.5, 2.0, 2.5, 1.0, 1),
]
NORMAL_MEMBERS = [
    (0.6, 1.5, 1.0, 1.2, 2),
    (0.4, 1.5, 1.2, 1.3, 3),
    (1.0, 2.0, 2.0, 0.5, 3),
    (0.5, 2.0, 1.5, 1.0, 4),
    (0.5, 2.0, 1.5, 1.0, 5),
]
DRAW_MEMBER = (0.4, 1.5, 1.2, 1.3, 3)
DRAW_N = 262_144

# beta = 2 radial members, so the characteristic function has a closed
# form in J_{d/2 + gamma}.  d = 18 needs J_8, the order from which
# bessel_j is known to be wrong (see KNOWN_DEFECT_ORDER in run.py).
RADIAL_MEMBERS = [
    (0.5, 2.0, 1.0, 1.0, 3),
    (0.5, 2.0, 0.5, 1.0, 6),
    (0.5, 2.0, 1.5, 1.0, 9),
    (0.5, 2.0, 2.0, 1.0, 12),
    (0.5, 2.0, 1.0, 1.0, 15),
    (0.5, 2.0, 1.0, 1.0, 18),
]
PROJECTION_MEMBERS = [(0.5, 2.0, 1.0, 1.5, 2), (1.0, 2.0, 2.0, 0.5, 3)]
# scalar ft requests of the Wigner member added to each transform cycle to
# form the block that holds the latency median
WIGNER_FT_EXTRA = 12
# eval grids reach this multiple of the support radius
EVAL_REACH = 1.3
SUITES = ("normalization", "representations", "transforms", "presets", "fractional", "pde")
TELEGRAPH_EPS = (1e-3, 1e-4, 1e-6)
TELEGRAPH_XI = (1.5, 2.0, 3.0)

U64 = 2**64


@dataclass
class Request:
    """One request.  `label` names its slot; `params` feed the oracle."""

    kind: str
    label: str
    items: int
    params: dict = field(default_factory=dict)
    argv: list | None = None


def member_params(member) -> tuple:
    return WIGNER if member == "wigner" else member


def _family_flags(member) -> list:
    if member == "wigner":
        return ["--preset", "wigner"]
    a, b, g, c, d = member
    return ["--alpha", repr(a), "--beta", repr(b), "--gamma", repr(g), "--c", repr(c), "--d", str(d)]


def _cli(label, items, member, argv, fmt, path, **params) -> Request:
    argv = argv + _family_flags(member) + ["--format", fmt, "--output", path]
    params.update(member=member_params(member), format=fmt, path=path)
    return Request("cli", label, items, params, argv)


def _sample_cycle(gen, outdir, nproc, tag) -> list:
    # 10 requests of n = 1e3 (per-call overhead), 23 of n = 2e4, 2 of n = 1e5
    # (per-lane Newton cost, CSV/JSON formatting) and 1 parallel draw.  The
    # 2e4 requests are 2 d = 1 CSV ones that cost less than Wigner JSON, a
    # block of 11 Wigner JSON that holds the median (5.5 requests deep), the
    # d >= 2 CSV ones, and a block of 5 d = 3 JSON that, with the d = 4 and
    # d = 5 CSV ones of like cost, holds the p90.  The p90 lies below the
    # draw, whose two threads make it the request most moved by the host.
    small = (TAIL_MEMBERS + NORMAL_MEMBERS)[:10]
    medium = [(TAIL_MEMBERS[2], "csv"), (TAIL_MEMBERS[4], "csv")] + [("wigner", "json")] * 11
    medium += [(m, "csv") for m in NORMAL_MEMBERS] + [(NORMAL_MEMBERS[1], "json")] * 5
    slots = [(m, 1_000, ("csv", "json")[i % 2]) for i, m in enumerate(small)]
    slots += [(m, 20_000, fmt) for m, fmt in medium]
    slots += [("wigner", 100_000, "csv"), (NORMAL_MEMBERS[1], 100_000, "json")]
    reqs = []
    for k, (member, n, fmt) in enumerate(slots):
        t = float(gen.uniform(0.5, 2.0))
        seed, stream = (int(v) for v in gen.integers(0, U64, size=2, dtype=np.uint64))
        branch = "tail" if member_params(member)[4] == 1 else "normal"
        path = os.path.join(outdir, f"{tag}-{k}.{fmt}")
        argv = ["sample", "--n", str(n), "--t", repr(t), "--seed", str(seed), "--stream", str(stream)]
        reqs.append(_cli(f"cli-sample-n{n}-{branch}-{fmt}", n, member, argv, fmt, path,
                         n=n, t=t))
    # library parallel_draw: MSD against the closed form
    seed, stream = (int(v) for v in gen.integers(0, U64, size=2, dtype=np.uint64))
    t = float(gen.uniform(0.5, 2.0))
    reqs.append(Request("parallel_draw", "parallel_draw-d3", DRAW_N,
                        dict(member=DRAW_MEMBER, n=DRAW_N, t=t, seed=seed,
                             stream=stream, threads=nproc)))
    return reqs


def _ft(gen, member, route, xi_top, count, path) -> Request:
    # the quadrature work of every characteristic-function route depends on
    # xi only through xi c t^alpha, so the grid ends at xi_top t^-alpha: the
    # grid then covers the same range of xi c t^alpha at every drawn t, and
    # every request of a slot does the same work on different inputs
    t = float(gen.uniform(0.9, 1.1))
    xi_max = xi_top * t ** -member_params(member)[0]
    argv = ["ft"] + (["--kind", "projection"] if route == "projection" else [])
    argv += ["--t", repr(t), f"--grid=0:{xi_max!r}:{count}"]
    label = f"cli-ft-{route}" + (f"-d{member[4]}" if route == "radial" else "")
    return _cli(label, count, member, argv, "csv", path,
                t=t, xi_max=xi_max, count=count, route=route)


def _transform_cycle(gen, outdir, tag) -> list:
    # 47 requests.  By cost: 16 below ~20 ms (ek_integral, projection ft,
    # the fractional and pde suites, msd, small eval, the cheaper scalar
    # ft), then a block of 16 scalar ft of Wigner-like cost (~25 ms) that
    # holds the median 7 requests deep, 6 from ~30 to ~55 ms, the two eval
    # 2e4, then a group of 5 near 120 ms (ft d = 3 three times, d = 6 and
    # the transforms suite) that holds the p90 1.4 deep, and the
    # normalization suite and the 2e5-point eval above it.  So a few
    # requests changing places move neither percentile across a step
    reqs = []

    def path(kind):
        return os.path.join(outdir, f"{tag}-{len(reqs)}-{kind}.csv")

    for member in TAIL_MEMBERS + ["wigner"] * (1 + WIGNER_FT_EXTRA):  # scalar route, 40 xi
        reqs.append(_ft(gen, member, "scalar", 20.0, 40, path("ft")))
    for member in RADIAL_MEMBERS + [RADIAL_MEMBERS[0]] * 2:
        reqs.append(_ft(gen, member, "radial", 20.0, 40, path("ft")))
    for member in PROJECTION_MEMBERS:
        reqs.append(_ft(gen, member, "projection", 10.0, 20, path("ft")))
    evals = [("wigner", 2_000), (TAIL_MEMBERS[2], 2_000), (NORMAL_MEMBERS[3], 2_000),
             (TAIL_MEMBERS[3], 20_000), (NORMAL_MEMBERS[1], 20_000), ("wigner", 200_000)]
    for member, count in evals:
        a, b, g, c, d = member_params(member)
        t = float(gen.uniform(0.5, 2.0))
        # a fixed share of the grid lies inside the support, which fixes the work
        x_max = EVAL_REACH * c * t**a
        x_min = -x_max if d == 1 else 0.0
        argv = ["eval", "--t", repr(t), f"--grid={x_min!r}:{x_max!r}:{count}"]
        reqs.append(_cli(f"cli-eval-{count}", count, member, argv, "csv", path("eval"),
                         t=t, x_min=x_min, x_max=x_max, count=count))
    for member in ("wigner", NORMAL_MEMBERS[3], TAIL_MEMBERS[4]):
        t_min, t_max = float(gen.uniform(0.1, 0.5)), float(gen.uniform(2.0, 10.0))
        argv = ["msd", f"--grid={t_min!r}:{t_max!r}:50"]
        reqs.append(_cli("cli-msd", 50, member, argv, "csv", path("msd"),
                         t_min=t_min, t_max=t_max, count=50))
    for _ in range(3):
        zeta, mu, eta = gen.uniform(-0.5, 2.0), gen.uniform(0.5, 3.0), gen.uniform(0.5, 3.0)
        power, x = gen.uniform(0.0, 3.0), gen.uniform(0.5, 3.0)
        reqs.append(Request("ek", "ek_integral", 1, dict(
            zeta=float(zeta), mu=float(mu), eta=float(eta), power=float(power), x=float(x))))
    for name in SUITES:
        reqs.append(Request("suite", f"run_suite-{name}", 1, dict(suite=name)))
    return reqs


def _telegraph_cycle(gen) -> list:
    reqs = []
    for xi in TELEGRAPH_XI:
        for eps in TELEGRAPH_EPS:
            for n in (1_000, 1_000, 5_000):
                seed, stream = (int(v) for v in gen.integers(0, U64, size=2, dtype=np.uint64))
                c, t = float(gen.uniform(0.5, 2.0)), float(gen.uniform(0.8, 1.25))
                reqs.append(Request("telegraph", f"telegraph-n{n}", n, dict(
                    xi=xi, eps=eps, n=n, c=c, t=t, seed=seed, stream=stream)))
    return reqs


def cycle(workload: str, seed: int, index: int, outdir: str, nproc: int) -> list:
    """Requests of cycle `index`, in the order they run.  Pure in its arguments."""
    gen = np.random.default_rng([int(seed), WORKLOADS.index(workload), int(index)])
    tag = f"{workload}-{index}"
    if workload == "sample":
        reqs = _sample_cycle(gen, outdir, nproc, tag)
    elif workload == "transform":
        reqs = _transform_cycle(gen, outdir, tag)
    else:
        reqs = _telegraph_cycle(gen)
    return [reqs[i] for i in gen.permutation(len(reqs))]


def warmup_requests(workload: str, seed: int, outdir: str, nproc: int) -> list:
    """One small request of each type the workload sends."""
    reqs = cycle(workload, seed, 0, outdir, nproc)
    seen, out = set(), []
    for r in reqs:
        key = (r.kind, r.params.get("route"), r.params.get("format"), r.argv and r.argv[0])
        if key in seen:
            continue
        seen.add(key)
        out.append(_shrink(r))
    return out


def _shrink(r: Request) -> Request:
    params = dict(r.params)
    if r.kind == "cli":
        argv = list(r.argv)
        if "--n" in argv:
            argv[argv.index("--n") + 1] = "200"
            params["n"] = 200
        if "count" in params:
            argv = [a.rsplit(":", 1)[0] + ":5" if a.startswith("--grid=") else a for a in argv]
            params["count"] = 5
        return Request("cli", r.label, 1, params, argv)
    if r.kind == "parallel_draw":
        params["n"] = 1_000
    elif r.kind == "telegraph":
        params["n"] = 20
    elif r.kind == "suite":
        params["suite"] = "fractional"
    return Request(r.kind, r.label, 1, params)


# ----------------------------------------------------------------------
# running a request


def execute(r: Request):
    """Run one request; this is the timed part."""
    from barenblatt import cli, family, sampling, transforms, verify

    p = r.params
    if r.kind == "cli":
        code = cli.main(r.argv)
        if code != 0:
            raise RuntimeError(f"cli exited {code}")
        return p["path"]
    if r.kind == "parallel_draw":
        fam = family.new_family(*p["member"])
        t = p["t"]
        return sampling.parallel_draw(
            p["seed"], p["stream"], p["n"],
            lambda rng, n: sampling.sample_position(rng, fam, t, n),
            threads=p["threads"],
        )
    if r.kind == "telegraph":
        rng = sampling.RngStream(p["seed"], p["stream"])
        return sampling.sample_epd_telegraph(rng, p["xi"], p["c"], p["t"], p["eps"], p["n"])
    if r.kind == "ek":
        ek = transforms.EKParams(p["zeta"], p["mu"], p["eta"])
        k = p["power"]
        return transforms.ek_integral(ek, lambda s: np.asarray(s) ** k, p["x"])
    if r.kind == "suite":
        return verify.run_suite(p["suite"])
    raise ValueError(f"unknown request kind {r.kind!r}")


def materialize(r: Request, out):
    """Turn a request's raw output into a checkable value and its digest.

    CLI outputs are read back from their file, which is then removed.
    """
    if r.kind == "cli":
        with open(out, "rb") as fh:
            data = fh.read()
        os.remove(out)
        return data, hashlib.blake2b(data, digest_size=16).hexdigest()
    if r.kind == "suite":
        rows = [(c.name, c.passed, c.value, c.tolerance) for c in out.checks]
        return out, hashlib.blake2b(repr(rows).encode(), digest_size=16).hexdigest()
    arr = np.ascontiguousarray(np.asarray(out, dtype=float))
    return arr, hashlib.blake2b(arr.tobytes(), digest_size=16).hexdigest()


def bessel_order(r: Request) -> float:
    """Order of the Bessel function a radial ft request needs, else nan."""
    if r.kind == "cli" and r.params.get("route") == "radial":
        return r.params["member"][4] / 2.0 - 1.0
    return math.nan
