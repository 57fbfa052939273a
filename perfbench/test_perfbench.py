"""Tests of the benchmark itself: tiny smoke runs and negative controls.

Run from the root of the checkout:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads as wl  # noqa: E402

run.load_package()
import checks  # noqa: E402
from barenblatt import cli, family, sampling  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


@pytest.fixture
def tiny(monkeypatch):
    """Every request shrunk to warm-up size, one set-up probe, few requests."""
    full = wl.cycle
    monkeypatch.setattr(wl, "cycle", lambda *a: [wl._shrink(r) for r in full(*a)])
    monkeypatch.setattr(run, "MIN_REQUESTS", 1)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def _result(capsys) -> tuple[str, dict]:
    out = capsys.readouterr().out
    return out, json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, tiny, capsys):
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01"]) == 0
    out, result = _result(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    # transform's d = 18 ft requests fail on the known bessel_j defect, which
    # leaves `correct` true; any other failure makes it false
    assert result["correct"]
    if workload != "transform":
        assert result["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in list(want) + ["error_rate"]:
        assert name in out


def test_tiny_traced_runs_repeat_every_count(tiny, capsys):
    results = []
    for _ in range(2):
        assert run.main(["--workload", "sample", "--seed", "5", "--seconds", "0.01", "--trace", "1"]) == 0
        results.append(_result(capsys)[1])
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = []
    for result in results:
        assert result["correct"], result
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        counts.append({k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert all(v > 0 for v in counts[0].values())


def test_layer_map_covers_every_per_layer_metric():
    with open(os.path.join(HERE, "layers.json")) as fh:
        layers = json.load(fh)
    assert set(layers["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    named = {n for names in layers["roadmap_baseline_rows"].values() for n in names}
    assert named <= set(layers["per_layer"])


def test_fails_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json")):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "sample", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_seed_sets_the_inputs_but_not_the_mix():
    a = wl.cycle("sample", 11, 0, "out", 2)
    b = wl.cycle("sample", 11, 0, "out", 2)
    c = wl.cycle("sample", 12, 0, "out", 2)
    assert [(r.label, r.argv, r.params) for r in a] == [(r.label, r.argv, r.params) for r in b]
    assert [r.argv for r in a] != [r.argv for r in c]
    assert sorted(r.label for r in a) == sorted(r.label for r in c)


def test_transform_grids_reach_the_same_scale_on_every_seed():
    # the work of an ft or eval request is set by its grid in units of the
    # member's scale, so those must not depend on the seed
    def reaches(seed):
        out = []
        for r in wl.cycle("transform", seed, 0, "out", 2):
            p = r.params
            if r.kind != "cli" or "count" not in p or r.argv[0] == "msd":
                continue
            a, _, _, c, _ = p["member"]
            end = p["xi_max"] * c * p["t"] ** a if r.argv[0] == "ft" else p["x_max"] / (c * p["t"] ** a)
            out.append((r.label, str(p["member"]), round(end, 9)))
        return sorted(out)

    assert reaches(21) == reaches(22)
    assert len(reaches(21)) == 19 + 8 + 2 + 6


# ----------------------------------------------------------------------
# negative controls: a wrong oracle or a corrupted output must fail


def _tiny_records(workload, outdir, seed=7):
    keepdir = os.path.join(outdir, "keep")
    os.makedirs(keepdir)
    records = []
    for r in [wl._shrink(r) for r in wl.cycle(workload, seed, 0, str(outdir), 1)]:
        dt, out, err = run.run_request(r)
        kept = None if err else run.keep(r, out, keepdir, len(records))
        records.append(dict(request=r, latency_s=dt, kept=kept, error=err, cycle=0))
    return records


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_checks_pass_on_true_outputs(workload, tmp_path):
    records = _tiny_records(workload, tmp_path)
    run.check_records(records)
    fresh = [rec for rec in records if not rec["known_defect"]]
    assert fresh and all(rec["failures"] == [] for rec in fresh)


def test_wrong_oracle_raises_error_rate(tmp_path):
    records = _tiny_records("transform", tmp_path)

    def wrong(r, value):
        if r.kind == "ek":
            r = wl.Request(r.kind, r.label, r.items, dict(r.params, power=r.params["power"] + 0.5))
        return run.check_request(r, value)

    run.check_records(records, check=wrong)
    ek = [rec for rec in records if rec["request"].kind == "ek"]
    assert ek and all(rec["failures"] for rec in ek)
    assert not any(rec["known_defect"] for rec in ek)


def test_wrong_oracle_shows_in_the_printed_result(tiny, capsys, monkeypatch):
    assert run.main(["--workload", "telegraph", "--seed", "3", "--seconds", "0.01"]) == 0
    clean = _result(capsys)[1]
    right = checks.check_telegraph
    # an oracle with half the speed c: the widest paths now lie beyond c t
    monkeypatch.setattr(checks, "check_telegraph", lambda p, u: right(dict(p, c=p["c"] / 2), u))
    assert run.main(["--workload", "telegraph", "--seed", "3", "--seconds", "0.01"]) == 0
    out, result = _result(capsys)
    assert clean["failed"] == 0 and result["failed"] > 0 and not result["correct"]
    assert result["attempted"] == clean["attempted"]


def test_corrupted_positions_fail():
    member, t, n = wl.NORMAL_MEMBERS[1], 1.3, 20_000
    pts = sampling.sample_position(sampling.RngStream(1, 2), family.new_family(*member), t, n)
    assert checks._positions(member, pts, n, t) == []
    assert checks._positions(member, pts * 1.05, n, t)  # beyond the support
    assert checks._positions(member, pts * 0.97, n, t)  # wrong radial law
    # same radii, but the largest coordinate always first: wrong direction law
    skewed = np.take_along_axis(pts, np.argsort(-np.abs(pts), axis=1), axis=1)
    fails = checks._positions(member, skewed, n, t)
    assert fails and all("direction" in f for f in fails)


def test_corrupted_parallel_draw_fails():
    fam = family.new_family(*wl.DRAW_MEMBER)
    p = dict(member=wl.DRAW_MEMBER, n=wl.DRAW_N, t=1.0)
    pts = sampling.sample_position(sampling.RngStream(5, 6), fam, 1.0, wl.DRAW_N)
    assert checks.check_parallel_draw(p, pts) == []
    assert checks.check_parallel_draw(p, pts * 0.99)


def test_corrupted_telegraph_fails():
    p = dict(xi=2.0, eps=1e-4, n=2_000, c=1.0, t=1.0)
    u = sampling.sample_epd_telegraph(sampling.RngStream(3, 4), 2.0, 1.0, 1.0, 1e-4, 2_000)
    ref = sampling.sample_epd_telegraph(sampling.RngStream(3, 4), 2.0, 1.0, 1.0, 1e-3, 2_000)
    assert checks.check_telegraph(p, u) == []
    assert checks.telegraph_bound(p, u, ref, 1e-3) == []
    bumped = u.copy()
    bumped[7] += 3e-3
    assert checks.telegraph_bound(p, bumped, ref, 1e-3)
    assert checks.check_telegraph(p, np.abs(u))


def test_known_bessel_defect_shows_as_a_failure(tmp_path):
    member = wl.RADIAL_MEMBERS[-1]
    assert member[4] == 18
    path = str(tmp_path / "ft18.csv")
    argv = ["ft", "--t", "1.0", "--grid=0:20.0:40", "--alpha", "0.5", "--beta", "2.0",
            "--gamma", "1.0", "--c", "1.0", "--d", "18", "--output", path]
    assert cli.main(argv) == 0
    with open(path, "rb") as fh:
        fails = checks.check_ft(dict(member=member, t=1.0, xi_max=20.0, count=40), fh.read())
    assert fails and "oracle" in fails[0]
