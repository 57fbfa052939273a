"""CLI tests: golden headers, formatting, exit codes, determinism.

Commands run in-process through main(argv) so coverage and speed stay
reasonable; one subprocess smoke test exercises the real entry point.
"""

import argparse
import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest

import barenblatt
from barenblatt import cli, specfun
from barenblatt import family as fam_mod
from barenblatt import transforms as trans_mod
from barenblatt import verify as verify_mod
from barenblatt.cli import main
from barenblatt.verify import SuiteReport


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def rows_of(out):
    return list(csv.reader(io.StringIO(out)))


class TestEval:
    def test_wigner_grid(self, capsys):
        code, out = run_cli(
            capsys, "eval", "--preset", "wigner", "--t", "1", "--grid", "-2:2:5"
        )
        assert code == 0
        rows = rows_of(out)
        assert rows[0] == ["x", "t", "pdf", "cdf"]
        assert len(rows) == 6
        center = rows[3]
        assert float(center[2]) == pytest.approx(1.0 / math.pi, rel=1e-15)

    def test_out_of_support_is_exactly_zero(self, capsys):
        _, out = run_cli(
            capsys, "eval", "--preset", "wigner", "--t", "1", "--grid", "-3:3:7"
        )
        rows = rows_of(out)
        assert rows[1][2] == "0"
        assert rows[-1][2] == "0"

    def test_higher_dimension_drops_cdf(self, capsys):
        code, out = run_cli(
            capsys,
            "eval",
            "--preset",
            "epd",
            "--nu",
            "2",
            "--c",
            "1",
            "--d",
            "3",
            "--grid",
            "0:0.5:2",
        )
        assert code == 0
        rows = rows_of(out)
        assert rows[0] == ["x", "t", "pdf"]

    def test_explicit_family(self, capsys):
        code, out = run_cli(
            capsys,
            "eval",
            "--alpha",
            "0.5",
            "--beta",
            "2",
            "--gamma",
            "0.5",
            "--c",
            "2",
            "--d",
            "1",
            "--grid",
            "0:0:1",
        )
        assert code == 0
        assert float(rows_of(out)[1][2]) == pytest.approx(1.0 / math.pi, rel=1e-15)

    def test_json_format(self, capsys):
        code, out = run_cli(
            capsys,
            "eval",
            "--preset",
            "wigner",
            "--grid",
            "0:1:2",
            "--format",
            "json",
        )
        assert code == 0
        data = json.loads(out)
        assert isinstance(data, list) and len(data) == 2
        assert set(data[0]) == {"x", "t", "pdf", "cdf"}

    def test_empty_grid_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--preset", "wigner", "--grid", "0:1:0"])
        assert exc.value.code == 2

    def test_malformed_grid_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--preset", "wigner", "--grid", "0..1..5"])
        assert exc.value.code == 2

    def test_incomplete_family_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--alpha", "0.5", "--grid", "0:1:2"])
        assert exc.value.code == 2

    def test_preset_conflicts_with_explicit(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--preset", "wigner", "--alpha", "0.5", "--grid", "0:1:2"])
        assert exc.value.code == 2

    def test_preset_missing_param(self):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--preset", "ple", "--grid", "0:1:2"])
        assert exc.value.code == 2

    def test_nonpositive_time_rejected(self, capsys):
        assert main(["eval", "--preset", "wigner", "--t", "0", "--grid", "0:1:2"]) == 2
        assert capsys.readouterr().err == "barenblatt: error: t must be finite and > 0, got 0.0\n"


class TestSample:
    def test_deterministic_rerun(self, capsys):
        _, a = run_cli(
            capsys, "sample", "--preset", "wigner", "--n", "10", "--seed", "4"
        )
        _, b = run_cli(
            capsys, "sample", "--preset", "wigner", "--n", "10", "--seed", "4"
        )
        assert a == b

    def test_stream_changes_bytes(self, capsys):
        _, a = run_cli(
            capsys, "sample", "--preset", "wigner", "--n", "10", "--seed", "4"
        )
        _, b = run_cli(
            capsys,
            "sample",
            "--preset",
            "wigner",
            "--n",
            "10",
            "--seed",
            "4",
            "--stream",
            "1",
        )
        assert a != b

    def test_adjacent_high_streams_differ(self, capsys):
        # stream ids above 2**53 keep their low bits
        outs = [
            run_cli(capsys, "sample", "--preset", "wigner", "--n", "3", "--seed", "7",
                    "--stream", str(2**63 + k))[1]
            for k in (5, 6)
        ]
        assert outs[0] != outs[1]

    def test_coordinate_columns(self, capsys):
        code, out = run_cli(
            capsys,
            "sample",
            "--preset",
            "epd",
            "--nu",
            "2",
            "--c",
            "1",
            "--d",
            "3",
            "--n",
            "7",
            "--seed",
            "9",
        )
        assert code == 0
        rows = rows_of(out)
        assert rows[0] == ["x1", "x2", "x3"]
        assert len(rows) == 8

    def test_rows_inside_support(self, capsys):
        _, out = run_cli(
            capsys, "sample", "--preset", "wigner", "--n", "500", "--seed", "2"
        )
        xs = np.array([float(r[0]) for r in rows_of(out)[1:]])
        assert np.all(np.abs(xs) <= 2.0)  # support radius 2 sqrt(t) at t = 1

    def test_variance_sanity(self, capsys):
        _, out = run_cli(
            capsys, "sample", "--preset", "wigner", "--n", "4000", "--seed", "3"
        )
        xs = np.array([float(r[0]) for r in rows_of(out)[1:]])
        assert abs(np.mean(xs**2) - 1.0) < 0.1  # MSD = t

    def test_missing_seed_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--preset", "wigner", "--n", "3"])
        assert exc.value.code == 2

    def test_bad_count_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--preset", "wigner", "--n", "0", "--seed", "1"])
        assert exc.value.code == 2


class TestPresets:
    def test_table(self, capsys):
        code, out = run_cli(capsys, "presets")
        assert code == 0
        rows = rows_of(out)
        assert rows[0] == ["preset", "raw_params", "alpha", "beta", "gamma", "c", "C"]
        names = [r[0] for r in rows[1:]]
        assert names == ["wigner", "ple", "npme", "epd", "zkb", "fractional"]

    def test_wigner_row(self, capsys):
        _, out = run_cli(capsys, "presets")
        row = next(r for r in rows_of(out)[1:] if r[0] == "wigner")
        assert float(row[6]) == pytest.approx(1.0 / math.pi, rel=1e-15)

    def test_fractional_row_carries_c1(self, capsys):
        _, out = run_cli(capsys, "presets")
        row = next(r for r in rows_of(out)[1:] if r[0] == "fractional")
        assert float(row[6]) == pytest.approx(0.3090169943749474, rel=1e-13)

    def test_comma_fields_are_quoted(self, capsys):
        _, out = run_cli(capsys, "presets")
        assert '"m=2, nu=2, d=1"' in out


class TestFt:
    def test_semicircle_bessel_values(self, capsys):
        from barenblatt.specfun import bessel_j

        _, out = run_cli(
            capsys, "ft", "--preset", "wigner", "--t", "1", "--grid", "0.5:10:3"
        )
        for row in rows_of(out)[1:]:
            xi = float(row[0])
            want = float(bessel_j(1.0, 2.0 * xi)) / xi
            assert float(row[2]) == pytest.approx(want, abs=1e-8)

    def test_radial_route(self, capsys):
        _, out = run_cli(
            capsys,
            "ft",
            "--alpha",
            "0.4",
            "--beta",
            "1.5",
            "--gamma",
            "1.2",
            "--c",
            "1.3",
            "--d",
            "3",
            "--t",
            "0.8",
            "--grid",
            "2.5:2.5:1",
        )
        assert float(rows_of(out)[1][2]) == pytest.approx(
            0.5421235467022285, abs=1e-9
        )

    def test_projection_kind_matches_radial(self, capsys):
        args = [
            "ft",
            "--alpha",
            "0.5",
            "--beta",
            "2",
            "--gamma",
            "1",
            "--c",
            "1.5",
            "--d",
            "2",
            "--grid",
            "2:2:1",
        ]
        _, a = run_cli(capsys, *args)
        _, b = run_cli(capsys, *args, "--kind", "projection")
        va, vb = float(rows_of(a)[1][2]), float(rows_of(b)[1][2])
        assert va == pytest.approx(vb, abs=1e-8)

    @pytest.mark.parametrize("d", [200, 433])
    def test_dimensions_in_the_hundreds(self, capsys, d):
        # 433 is the largest d new_family accepts for this member; the values
        # are those of the beta = 2 marginal, the d = 1 member with gamma + (d-1)/2
        code, out = run_cli(capsys, "ft", "--alpha", "0.5", "--beta", "2", "--gamma", "1",
                            "--c", "1", "--d", str(d), "--grid=0:40:5")
        assert code == 0
        cf = np.array([float(row[2]) for row in rows_of(out)[1:]])
        assert np.all(np.abs(cf) <= 1.0)
        marginal = fam_mod.new_family(0.5, 2.0, 1.0 + 0.5 * (d - 1), 1.0, 1)
        want = trans_mod.char_fn_1d(marginal, np.linspace(0.0, 40.0, 5), 1.0)
        assert np.max(np.abs(cf - want)) <= 1e-11

    def test_dimension_above_bound_refused(self, capsys):
        argv = ["ft", "--alpha", "0.5", "--beta", "2", "--gamma", "1", "--c", "12",
                "--d", "3004", "--grid=0:40:5"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "barenblatt: error: d must be <= 3002 for char_fn_radial, got 3004\n"

    def test_projection_needs_dimension(self, capsys):
        assert main(["ft", "--preset", "wigner", "--grid", "1:2:2", "--kind", "projection"]) == 2
        err = capsys.readouterr().err
        assert err == "barenblatt: error: char_fn_projection requires d >= 2, got d = 1\n"

    @pytest.mark.parametrize(
        "route, family",
        [
            ("char_fn_1d", ["--preset", "wigner"]),
            ("char_fn_radial", ["--preset", "epd", "--nu", "2", "--c", "1", "--d", "3"]),
            ("char_fn_projection", ["--preset", "epd", "--nu", "2", "--c", "1", "--d", "3",
                                    "--kind", "projection"]),
        ],
    )
    def test_one_route_call_per_grid(self, capsys, monkeypatch, route, family):
        from barenblatt import transforms

        calls = []
        inner = getattr(transforms, route)

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(transforms, route, counted)
        code, out = run_cli(capsys, "ft", *family, "--grid", "0:8:17")
        assert code == 0
        assert len(calls) == 1
        rows = rows_of(out)[1:]
        assert len(rows) == 17 and float(rows[0][2]) == 1.0


class TestMsd:
    def test_wigner_msd_equals_t(self, capsys):
        code, out = run_cli(capsys, "msd", "--preset", "wigner", "--grid", "0.5:2:4")
        assert code == 0
        rows = rows_of(out)
        assert rows[0] == ["t", "msd", "msd_over_t2alpha"]
        for row in rows[1:]:
            assert float(row[1]) == pytest.approx(float(row[0]), rel=1e-12)
            assert float(row[2]) == pytest.approx(1.0, rel=1e-12)

    def test_nonpositive_time_grid_rejected(self, capsys):
        assert main(["msd", "--preset", "wigner", "--grid", "0:1:3"]) == 2
        assert capsys.readouterr().err == "barenblatt: error: t must be finite and > 0, got 0.0\n"

    def test_ratio_column_where_t2alpha_underflows(self, capsys):
        # t^(2 alpha) = t^4 underflows to 0 on this grid while the msd,
        # c^2 t^4 B(3/2, 2) / B(1/2, 2) with c = 1e100, does not; the ratio
        # is the t = 1 moment, not a quotient of the two
        flags = ["--alpha", "2", "--beta", "2", "--gamma", "1", "--c", "1e100", "--d", "1"]
        code, out = run_cli(capsys, "msd", *flags, "--grid", "1e-90:1e-80:3")
        assert code == 0
        fam = cli.new_family(2.0, 2.0, 1.0, 1e100, 1)
        ratio = fam_mod.radial_moment(fam, 2, 1.0)
        # radial_moment sums logs, so it is good to about |ln c^2| eps here
        assert ratio == pytest.approx(0.2e200, rel=1e-13)
        for t, msd, col in rows_of(out)[1:]:
            assert float(col) == ratio
            assert float(msd) == fam_mod.radial_moment(fam, 2, float(t)) > 0.0

    def test_underflowing_msd_refused_by_name(self, capsys):
        # at c = 1 the msd itself (0.2 t^4) underflows at t = 1e-200
        flags = ["--alpha", "2", "--beta", "2", "--gamma", "1", "--c", "1", "--d", "1"]
        code = main(["msd", *flags, "--grid", "1e-200:1e-100:2"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("barenblatt: error: a value at this input leaves the float range")
        assert "msd underflows to 0 at t = 1e-200" in err


class TestVerify:
    def test_passing_suite_exit_zero(self, capsys):
        code, out = run_cli(capsys, "verify", "presets")
        assert code == 0
        rows = rows_of(out)
        assert rows[0] == ["name", "passed", "value", "tolerance", "detail"]
        assert all(r[1] == "True" for r in rows[1:])

    def test_unknown_suite_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nosuch"])
        assert exc.value.code == 2

    def test_h_levels_flag(self, capsys):
        code, out = run_cli(capsys, "verify", "pde", "--h-levels", "3")
        assert code == 0
        rows = rows_of(out)
        assert any(r[0].startswith("pme-order") for r in rows[1:])

    @pytest.mark.parametrize("argv, seed", [([], verify_mod.DEFAULT_SEED), (["--seed", "5"], 5)])
    def test_seed_reaches_the_sampling_suite(self, monkeypatch, capsys, argv, seed):
        def suite(report, threads, seed):
            report.add("seed", True, seed, 0.0)

        monkeypatch.setitem(verify_mod._SUITES, "sampling", (suite, ("threads", "seed")))
        code, out = run_cli(capsys, "verify", "sampling", *argv)
        assert code == 0
        assert rows_of(out)[1][:3] == ["seed", "True", f"{seed:.17g}"]

    def test_report_directory(self, capsys, tmp_path):
        code, _ = run_cli(capsys, "verify", "presets", "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "presets.csv").exists()
        assert (tmp_path / "presets.json").exists()


class TestOutputPlumbing:
    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "ev.csv"
        code, out = run_cli(
            capsys,
            "eval",
            "--preset",
            "wigner",
            "--grid",
            "0:1:2",
            "--output",
            str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("x,t,pdf,cdf")

    def test_outdir_env_redirects_relative_paths(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("BARENBLATT_OUTDIR", str(tmp_path))
        code, _ = run_cli(
            capsys,
            "eval",
            "--preset",
            "wigner",
            "--grid",
            "0:1:2",
            "--output",
            "ev.csv",
        )
        assert code == 0
        assert (tmp_path / "ev.csv").exists()

    def test_absolute_path_ignores_outdir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("BARENBLATT_OUTDIR", str(tmp_path / "unused"))
        target = tmp_path / "abs.csv"
        run_cli(
            capsys,
            "eval",
            "--preset",
            "wigner",
            "--grid",
            "0:1:2",
            "--output",
            str(target),
        )
        assert target.exists()
        assert not (tmp_path / "unused").exists()

    def test_seventeen_digit_reals(self, capsys):
        _, out = run_cli(capsys, "eval", "--preset", "wigner", "--grid", "0:0:1")
        assert "0.31830988618379058" in out


def package_env():
    # a child imports the package under test even when only the runner's
    # sys.path (pytest's `pythonpath`) points at it
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(barenblatt.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "barenblatt", "eval", "--preset", "wigner", "--grid", "-2:2:5"],
        capture_output=True,
        text=True,
        env=package_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("x,t,pdf,cdf")


# the child's stdio buffering is set explicitly, not inherited from the
# runner: unbuffered stdio (`python -u`) writes stdout through a raw FileIO
STDIO_MODES = {"unbuffered": True, "buffered": False}


def child_env(unbuffered):
    env = package_env()
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    else:
        env.pop("PYTHONUNBUFFERED", None)
    return env


def test_broken_pipe_exits_quietly():
    # a reader that stops early (`... | head`) must not produce a traceback,
    # and the cut-short output must not exit 0, in either buffering mode
    for mode, unbuffered in STDIO_MODES.items():
        proc = subprocess.Popen(
            [sys.executable, "-m", "barenblatt", "eval", "--preset", "wigner", "--grid", "-2:2:200001"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(unbuffered),
        )
        proc.stdout.read(64)
        proc.stdout.close()
        code = proc.wait()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert code == 1, mode
        assert "Traceback" not in err, mode


D3_FLAGS = ["--alpha", "0.4", "--beta", "1.5", "--gamma", "1.2", "--c", "1.3", "--d", "3"]
D1_FLAGS = ["--alpha", "0.7", "--beta", "2.5", "--gamma", "0.8", "--c", "1.5", "--d", "1"]


@pytest.mark.parametrize("mode", list(STDIO_MODES))
@pytest.mark.parametrize(
    "argv, large",
    [
        (["eval", "--preset", "wigner", "--grid", "-2:2:20001"], True),
        (["sample", "--preset", "wigner", "--n", "20000", "--seed", "7", "--format", "json"], True),
        (["eval", "--preset", "wigner", "--grid", "-2:2:20001", "--format", "json"], True),
        (["sample", *D3_FLAGS, "--n", "8000", "--seed", "7", "--format", "json"], True),
        (["eval", *D3_FLAGS, "--grid", "-2:2:20001", "--format", "json"], True),
        (["sample", "--preset", "wigner", "--n", "20000", "--seed", "7"], True),
        (["presets"], False),
        (["presets", "--format", "json"], False),
        (["ft", "--preset", "wigner", "--grid", "0:10:41"], False),
        (["msd", "--preset", "npme", "--m", "2", "--nu", "2", "--d", "1", "--grid", "0.5:4:8"], False),
        (["verify", "presets"], False),
    ],
    ids=[
        "eval-csv",
        "sample-json",
        "eval-json",
        "sample-d3-json",
        "eval-d3-json",
        "sample-csv",
        "presets-csv",
        "presets-json",
        "ft",
        "msd",
        "verify-presets",
    ],
)
def test_stdout_read_to_end_matches_output_file(tmp_path, mode, argv, large):
    # the large outputs exceed a pipe buffer, so the child waits on the reader
    cmd = [sys.executable, "-m", "barenblatt", *argv]
    env = child_env(STDIO_MODES[mode])
    piped = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, check=True).stdout
    target = tmp_path / "out"
    subprocess.run([*cmd, "--output", str(target)], env=env, check=True)
    if large:
        assert len(piped) > 1 << 18
    assert piped == target.read_bytes()


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["sample", "--preset", "wigner", "--n", "100000", "--seed", "7", "--stream", "3"],
         "36ebe42151fb6d56c8cf229f1aa94923380013404aebf46bde45eaeb896657fe"),
        (["sample", *D3_FLAGS, "--n", "100000", "--seed", "7", "--stream", "3", "--format", "json"],
         "dca40d5c2238969dc01afbf405dd79b97f1771e6a53b3a5efab2081673566797"),
        (["eval", *D1_FLAGS, "--t", "1.3", "--grid", "-2:2:4001"],
         "cb79d417ca79939c3ad3d350c98b6a7c6ff54a16e0dfd8dac9b7ee9b3e0ab307"),
        (["sample", *D1_FLAGS, "--n", "100000", "--seed", "7", "--stream", "3", "--format", "json"],
         "99ca545f18ccff2b196b1dd96960c0977a3d26ebc9ea5cce447a2cd57cb2ecb9"),
        (["eval", *D3_FLAGS, "--t", "1.3", "--grid", "-2:2:4001", "--format", "json"],
         "292c1ba71ff1626397e35e7b110f515c9ecac67221220b0298d1470268c09b1e"),
        (["msd", *D3_FLAGS, "--grid", "0.5:4:50"],
         "d3cb15cd2e44c0563ccaa66594950ed2737faaf5b8df1bb69ad05816d96c0293"),
        (["msd", *D3_FLAGS, "--grid", "0.5:4:50", "--format", "json"],
         "27fb52dfd39d96227c73c2db7e23f76d24131ca1e48894a1bef8b1454fa8a3f3"),
        # the three characteristic-function routes, the radial one at an even
        # and an odd order below the Hankel cut and at d = 18, order 8
        (["ft", *D1_FLAGS, "--t", "1.1", "--grid=-20:20:401"],
         "36230a1227f5de7c2a069b8941bb253f31a60ee9c9fbf6b4977fdf35fef0ba1e"),
        (["ft", *D3_FLAGS, "--t", "0.9", "--grid=0:20:400"],
         "ab87f9ec4ae8a25e37906ed09da05394617011db18e3a51b38db3330b7fc53eb"),
        (["ft", "--alpha", "0.5", "--beta", "2", "--gamma", "2", "--c", "1", "--d", "12",
          "--t", "1.2", "--grid=0:20:400", "--format", "json"],
         "749cc1516e0d085ce2890e7acbd26085f63eb0f575b43dbc8c27e1a9ed0a8010"),
        (["ft", "--alpha", "0.5", "--beta", "2", "--gamma", "1", "--c", "1", "--d", "18",
          "--t", "1.05", "--grid=0:20:400"],
         "7f9cae15829f087cfae5e0b58d1bb3035d5a3faa337bcd0f940e58e9f0d34cb2"),
        (["ft", "--kind", "projection", "--alpha", "0.5", "--beta", "2", "--gamma", "1",
          "--c", "1.5", "--d", "2", "--t", "1.05", "--grid=0:10:200"],
         "77c9b8a9455bd88c755f165f127f4aaa4083ad85fbd27f8b429cad724970c122"),
    ],
    ids=["sample-wigner-csv", "sample-d3-json", "eval-d1-cdf",
         "sample-d1-json", "eval-d3-json", "msd-d3-csv", "msd-d3-json",
         "ft-d1-csv", "ft-d3-csv", "ft-d12-json", "ft-d18-csv", "ft-projection-d2-csv"],
)
def test_pinned_output_bytes(tmp_path, argv, digest):
    # SHA-256 of outputs: the eval and msd digests were first written before
    # the incomplete beta moved to its scalar-(a, b) core and before the
    # numeric tables were formatted a chunk at a time, so the d = 1 cdf
    # column (forward incomplete beta) and every formatted cell keep every
    # byte.  The three sample digests were retaken when the inverse moved
    # to a forward-table seed and Halley steps: positions moved by at most
    # 3.7e-11, their Beta variates by 1.8e-11, which stay within 1.2e-11
    # of scipy's betaincinv; reruns and thread counts still give the same
    # bytes.  The two eval and two msd digests were retaken when the
    # profile moved to exp(gamma log1p(-z^beta)): 739 of 3,605 and 1,037 of
    # 2,887 nonzero pdf cells moved, by at most 5.6e-16 and 8.9e-16
    # relative, and the cdf column kept every byte (pinned on its own
    # below); msd_over_t2alpha became the t = 1 moment, moving 19 of 50
    # cells by at most 3.4e-16, with the msd column unchanged.  The d = 3
    # and d = 12 ft digests were retaken when the radial kernel moved to
    # the series, Miller's recurrence and the Hankel start carried up:
    # 367 and 327 of 400 cf cells moved, by at most 4.1e-14 and 1.0e-15
    target = tmp_path / "out"
    assert main([*argv, "--output", str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == digest


def test_eval_cdf_column_pinned(tmp_path):
    # the cdf column of eval-d1-cdf on its own: the scaled radius that
    # cdf_1d shares with pdf leaves every byte of it, whatever pdf does
    target = tmp_path / "out"
    assert main(["eval", *D1_FLAGS, "--t", "1.3", "--grid", "-2:2:4001", "--output", str(target)]) == 0
    cdf = "\n".join(line.split(",")[3] for line in target.read_text().splitlines())
    digest = "d5ea5aa7e91c8008083e7cb48336c51b7ede2e01124dcc7171660a98af341402"
    assert hashlib.sha256(cdf.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "flags",
    [D1_FLAGS, D3_FLAGS, ["--alpha", "0.5", "--beta", "2", "--gamma", "1e8", "--c", "1", "--d", "1"]],
    ids=["d1", "d3", "gamma-1e8"],
)
def test_eval_past_the_front_writes_no_stderr(flags):
    # the grid reaches 2x past the front, where the profile is an exact 0
    proc = subprocess.run(
        [sys.executable, "-m", "barenblatt", "eval", *flags, "--grid", "-3:3:61"],
        capture_output=True,
        text=True,
        env=package_env(),
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[1].split(",")[2] == "0"


def test_continued_fraction_failure_is_one_line_usage_error(monkeypatch, capsys):
    # a continued fraction that runs out of steps names its lane and leaves
    # the CLI through the usage-error path, not as a traceback
    monkeypatch.setattr(specfun, "_CF_MAX_ITER", 2)
    code = main(["eval", *D1_FLAGS, "--grid", "0.9:0.9:1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "did not converge" in err and "a = 0.4, b = 1.8" in err
    assert len(err.strip().splitlines()) == 1


FAMILY_FLAGS = ["--alpha", "0.5", "--beta", "2", "--gamma", "1", "--c", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--preset", "wigner", "--t", "nan", "--grid", "0:1:3"],
        ["ft", "--preset", "wigner", "--t", "inf", "--grid", "0:1:3"],
        ["eval", "--preset", "wigner", "--grid", "nan:1:3"],
        ["eval", "--preset", "wigner", "--grid", "0:inf:3"],
        ["eval", *FAMILY_FLAGS, "--d", "0", "--grid", "0:1:3"],
        ["verify", "pde", "--h-levels", "2"],
        ["eval", "--alpha", "1", "--beta", "2", "--gamma", "1e308", "--c", "1", "--d", "1",
         "--grid", "0:1:3"],
        ["sample", "--preset", "wigner", "--n", "3", "--seed", "-1"],
        ["sample", "--preset", "wigner", "--n", "3", "--seed", str(2**64)],
        ["sample", "--preset", "wigner", "--n", "3", "--seed", "7", "--stream", "-1"],
        ["sample", "--preset", "wigner", "--n", "3", "--seed", "7", "--stream", str(2**64)],
        ["verify", "presets", "--seed", "-1"],
        ["ft", *FAMILY_FLAGS, "--d", "2", "--kind", "projection", "--grid", "0:200:5"],
        ["eval", "--preset", "wigner", "--c", "5", "--d", "3", "--grid=0:1:2"],
        ["eval", "--preset", "zkb", "--m", "2", "--d", "1", "--nu", "7", "--grid=0:1:2"],
        ["eval", *FAMILY_FLAGS, "--d", "1", "--p", "3", "--nu", "2", "--grid=0:1:2"],
        ["verify", "presets", "--threads", "0"],
        ["verify", "sampling", "--threads", "-1"],
        ["verify", "presets", "--h-levels", "1"],
        ["verify", "presets", "--h-levels", "0"],
        ["verify", "presets", "--threads", "4"],
        ["verify", "pde", "--threads", "1"],
        ["verify", "sampling", "--h-levels", "3"],
        *[["verify", suite, "--seed", "5"] for suite in
          ("normalization", "representations", "transforms", "presets", "fractional", "pde")],
        ["eval", "--preset", "wigner", "--t", "0", "--grid", "0:1:3"],
        ["msd", "--preset", "wigner", "--grid", "0:1:3"],
        ["ft", "--preset", "wigner", "--kind", "projection", "--grid", "0:1:3"],
        ["verify", "sampling", "--threads", "0"],
        ["eval", "--preset", "zkb", "--m", "inf", "--d", "1", "--grid", "0:1:3"],
    ],
    ids=["t-nan", "t-inf", "grid-nan", "grid-inf", "d-0", "h-levels-2", "gamma-1e308",
         "seed-negative", "seed-2**64", "stream-negative", "stream-2**64", "verify-seed-negative",
         "projection-beyond-rule", "wigner-unread-c-d", "zkb-unread-nu", "explicit-unread-p-nu",
         "threads-0", "threads-negative", "presets-unread-h-levels-1",
         "presets-unread-h-levels-0", "presets-unread-threads", "pde-unread-threads",
         "sampling-unread-h-levels", "normalization-unread-seed", "representations-unread-seed",
         "transforms-unread-seed", "presets-unread-seed", "fractional-unread-seed",
         "pde-unread-seed", "eval-t-0", "msd-t-0", "projection-d-1", "sampling-threads-0",
         "zkb-m-inf"],
)
def test_usage_error_exits_two(argv):
    # refused input: exit 2, one error line, nothing on stdout, no traceback
    proc = subprocess.run(
        [sys.executable, "-m", "barenblatt", *argv],
        capture_output=True,
        text=True,
        env=package_env(),
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("barenblatt: error: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eval", "--preset", "wigner", "--t", "0", "--grid", "0:1:3"],
         "t must be finite and > 0, got 0.0"),
        (["msd", "--preset", "wigner", "--grid", "0:1:3"], "t must be finite and > 0, got 0.0"),
        (["ft", "--preset", "wigner", "--kind", "projection", "--grid", "0:1:3"],
         "char_fn_projection requires d >= 2, got d = 1"),
        (["sample", "--preset", "wigner", "--n", "3", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["sample", "--preset", "wigner", "--n", "3", "--seed", "7", "--stream", str(2**64)],
         f"stream_id must lie in [0, 2**64), got {2**64}"),
        (["verify", "sampling", "--threads", "0"], "threads must be >= 1, got 0"),
        (["eval", "--preset", "zkb", "--m", "inf", "--d", "1", "--grid", "0:1:3"],
         "m must be finite and > 1, got inf"),
    ],
    ids=["eval-t-0", "msd-t-0", "projection-d-1", "seed-negative", "stream-2**64",
         "sampling-threads-0", "zkb-m-inf"],
)
def test_library_refusal_is_one_named_line(capsys, argv, message):
    # the CLI does not restate these checks: the library refuses by name,
    # and main turns the ValueError into one line and exit 2
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"barenblatt: error: {message}\n"


EXTREME = ["--alpha", "2", "--beta", "2", "--gamma", "1", "--c", "1", "--d", "1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", *EXTREME, "--t", "1e300", "--grid=0:1:3"],
        ["eval", *EXTREME, "--t", "1e-300", "--grid=0:1:3"],
        ["ft", *EXTREME, "--t", "1e300", "--grid=0:1:3"],
        ["sample", *EXTREME, "--t", "1e300", "--n", "2", "--seed", "1"],
        ["msd", *EXTREME, "--grid", "1e300:1e300:1"],
        ["msd", *EXTREME, "--grid", "1e-300:1e-299:2"],
    ],
    ids=["eval-t-1e300", "eval-t-1e-300", "ft-t-1e300", "sample-t-1e300", "msd-t-1e300",
         "msd-t-1e-300"],
)
def test_time_out_of_float_range_exits_two(argv):
    # the front radius or density leaves the float range: these ended in an
    # OverflowError or ZeroDivisionError traceback with exit 1
    proc = subprocess.run(
        [sys.executable, "-m", "barenblatt", *argv],
        capture_output=True,
        text=True,
        env=package_env(),
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("barenblatt: error: a value at this input leaves the float range")


# gamma = 3e7 concentrates the speed law near 0, yet the Beta weight of
# the scalar route stays exact, so the values come out right
CONCENTRATED = ["ft", "--alpha", "0.5", "--beta", "2", "--gamma", "3e7", "--c", "1",
                "--d", "1", "--grid=0:2:3"]


def test_concentrated_member_exits_zero(capsys):
    # at beta = 2 the cf is 0F1(; gamma + 3/2; -xi^2/4)
    code, out = run_cli(capsys, *CONCENTRATED)
    assert code == 0
    rows = rows_of(out)
    assert rows[0] == ["xi", "t", "cf"] and len(rows) == 4
    for xi, _, cf in rows[1:]:
        want = float(mpmath.hyp0f1(3e7 + 1.5, -0.25 * float(xi) ** 2))
        assert abs(float(cf) - want) <= 1e-11


def test_any_quadrature_failure_exits_one(capsys, monkeypatch):
    # whatever the member: an integral that raises leaves through exit 1
    def fail(f, lo, hi):
        raise specfun.QuadratureError(f"4000 subdivisions exhausted on [{lo!r}, {hi!r}]")

    monkeypatch.setattr(trans_mod, "integrate", fail)
    code = main(["ft", "--preset", "wigner", "--grid", "0:1:3"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("barenblatt: error: 4000 subdivisions exhausted on [0.0, ")


# a fresh process in which every integral of the transforms raises
FAILING_QUADRATURE = """
import sys
from barenblatt import cli, specfun, transforms

def fail(f, lo, hi):
    raise specfun.QuadratureError(f"4000 subdivisions exhausted on [{lo!r}, {hi!r}]")

transforms.integrate = fail
sys.exit(cli.main(["ft", "--preset", "wigner", "--grid", "0:1:3"]))
"""


def test_quadrature_failure_in_a_subprocess():
    proc = subprocess.run(
        [sys.executable, "-c", FAILING_QUADRATURE],
        capture_output=True,
        text=True,
        env=package_env(),
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("barenblatt: error: 4000 subdivisions exhausted on [")


# one request per kind of path through main: a table, a usage error, draws
# and a suite report
IN_PROCESS = [
    ["eval", "--preset", "wigner", "--grid", "-2:2:5"],
    ["eval", "--preset", "wigner", "--grid", "0:1:0"],
    ["sample", "--preset", "wigner", "--n", "5", "--seed", "7"],
    ["verify", "presets"],
]


@pytest.mark.parametrize("argv", IN_PROCESS, ids=["eval", "usage-error", "sample", "verify-presets"])
def test_repeated_main_matches_a_fresh_process(argv, capsysbinary):
    proc = subprocess.run(
        [sys.executable, "-m", "barenblatt", *argv], capture_output=True, env=package_env()
    )
    for _ in range(2):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        assert (code, capsysbinary.readouterr().out) == (proc.returncode, proc.stdout)


def test_parser_built_once_per_process(monkeypatch, capsys):
    main(["presets"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    for argv in IN_PROCESS:
        try:
            main(argv)
        except SystemExit:
            pass
    assert built == []


@pytest.mark.parametrize("sub", ["eval", "sample", "presets", "ft", "msd", "verify"])
def test_help_lists_every_flag(sub, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    main(["presets"])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([sub, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    # the same text a freshly built tree prints
    fresh = cli._parser.__wrapped__()
    (subs,) = [a for a in fresh._actions if isinstance(a, argparse._SubParsersAction)]
    assert text == subs.choices[sub].format_help()
    flags = [o for a in subs.choices[sub]._actions for o in a.option_strings]
    assert flags and all(f in text for f in flags)


class TrickleSink(io.RawIOBase):
    """Binary sink that takes at most a few bytes per write, like a raw
    pipe whose reader drains it slowly."""

    def __init__(self):
        self.data = bytearray()

    def writable(self):
        return True

    def write(self, b):
        n = min(len(b), 7)
        self.data += bytes(b[:n])
        return n


def test_short_writes_are_retried(monkeypatch, tmp_path):
    # more rows than one 4096-row chunk, so every chunk must be sent in full
    argv = ["eval", "--preset", "wigner", "--grid", "-2:2:10001"]
    sink = TrickleSink()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(sink, encoding="utf-8", newline=""))
    assert main(argv) == 0
    monkeypatch.undo()
    target = tmp_path / "ev.csv"
    assert main([*argv, "--output", str(target)]) == 0
    assert bytes(sink.data) == target.read_bytes()


def test_stdout_without_binary_layer(tmp_path):
    argv = ["eval", "--preset", "wigner", "--grid", "-2:2:101"]
    redirected = io.StringIO()
    with contextlib.redirect_stdout(redirected):
        code = main(argv)
    assert code == 0
    target = tmp_path / "ev.csv"
    assert main([*argv, "--output", str(target)]) == 0
    with open(target, newline="") as fh:
        assert redirected.getvalue() == fh.read()


SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def test_run_suites_script(tmp_path):
    out = tmp_path / "reports"
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "run_suites.py"),
         "--suites", "presets", "fractional", "--out", str(out)],
        capture_output=True,
        text=True,
        env=package_env(),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert [line.split()[0] for line in proc.stdout.splitlines()] == ["presets", "fractional"]
    for suite in ("presets", "fractional"):
        assert json.loads((out / f"{suite}.json").read_text())["passed"] is True
        assert (out / f"{suite}.csv").read_text().startswith("name,")


def test_run_suites_summary(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "run_suites.py"),
         "--suites", "presets", "fractional", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=package_env(),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["passed"] is True
    assert [s["name"] for s in summary["suites"]] == ["presets", "fractional"]
    for s in summary["suites"]:
        report = json.loads((tmp_path / f"{s['name']}.json").read_text())
        assert s["checks"] == len(report["checks"]) > 0
        assert s["failures"] == []
        assert s["elapsed_s"] > 0.0


def test_run_suites_summary_names_failures(tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("run_suites", os.path.join(SCRIPTS, "run_suites.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)

    def fake_run_suite(name, seed, out_dir, threads):
        report = SuiteReport(suite=name, seed=seed)
        report.add("fine", True, 0.0, 1.0)
        report.add("broken", False, 2.0, 1.0)
        return report

    monkeypatch.setattr(script, "run_suite", fake_run_suite)
    assert script.main(["--suites", "presets", "--out", str(tmp_path)]) == 1
    assert "FAIL broken" in capsys.readouterr().out
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["passed"] is False
    (suite,) = summary["suites"]
    assert (suite["name"], suite["checks"], suite["failures"]) == ("presets", 2, ["broken"])


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_run_suites_script_refuses_threads_below_one(threads, tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "run_suites.py"),
         "--suites", "presets", "--threads", threads, "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env=package_env(),
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1] == f"run_suites.py: error: --threads must be >= 1, got {threads}"
    assert not (tmp_path / "summary.json").exists()


def test_telegraph_eps_sweep_script():
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "telegraph_eps_sweep.py"), "--n", "2000"],
        capture_output=True,
        text=True,
        env=package_env(),
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    header = lines.index("eps,ks_to_cdf,n,xi,t,seed")
    rows = list(csv.reader(lines[header + 1 :]))
    assert [float(r[0]) for r in rows] == [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    for r in rows:
        assert 0.0 < float(r[1]) < 1.0
        assert r[2] == "2000"


@pytest.mark.parametrize("argv", [["--t", "inf"], ["--n", "5"]], ids=["t-inf", "n-5"])
def test_telegraph_eps_sweep_script_usage_error(argv):
    # a value the library refuses: exit 2 and one error line, as in the CLI
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "telegraph_eps_sweep.py"), *argv],
        capture_output=True,
        text=True,
        env=package_env(),
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("telegraph_eps_sweep.py: error: ")
