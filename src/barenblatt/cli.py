"""Command-line front end: evaluation, sampling, presets, transforms,
and verification as reproducible batch commands.

Output is CSV (RFC-4180-style quoting) or a JSON array of objects,
streamed in row chunks by `_table`.  CSV reals are printed with 17
significant digits so files diff cleanly across runs; JSON uses the
native shortest round-trip repr.  Exit codes: 0 success, 1 runtime
failure (failed verification checks, broken output pipe, an integral
that cannot meet its tolerance), 2 usage error, including a value the
library refuses with ValueError and one (a time, say) at which a result
leaves the float range.  Exit 1 on a broken pipe holds under
unbuffered stdio (`python -u`, PYTHONUNBUFFERED) as well: stdout is
written in full or the command fails, never cut short with exit 0.

The only environment variable consulted is BARENBLATT_OUTDIR: when set,
relative --output paths (and verify report directories) resolve inside
it.  Everything else comes from flags.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import family as fam_mod
from . import presets as preset_mod
from . import sampling as samp_mod
from . import transforms as trans_mod
from . import verify as verify_mod
from ._table import table_chunks, write_table
from .family import FamilyParams, new_family
from .specfun import QuadratureError

__all__ = ["main"]

_OUTDIR_ENV = "BARENBLATT_OUTDIR"


def _resolve_path(path: str | None) -> str | None:
    if path is None:
        return None
    outdir = os.environ.get(_OUTDIR_ENV)
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def _write_stdout(text: str) -> None:
    """Write text to stdout in full, or raise (BrokenPipeError included).

    Under unbuffered stdio (`python -u`, PYTHONUNBUFFERED) the text layer
    makes one write(2) for the whole string and drops the rest of a short
    write, so the bytes go to the binary layer in a loop that honours
    each short count.  A stdout without a binary layer (io.StringIO) is
    written as text.
    """
    out = getattr(sys.stdout, "buffer", None)
    if out is None:
        sys.stdout.write(text)
        return
    sys.stdout.flush()
    data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
    while data:
        data = data[out.write(data) :]
    out.flush()


def _emit(rows, header, args) -> None:
    """Write rows in header order as CSV or JSON, chunk by chunk.

    `rows` is a 2-d float ndarray (the numeric commands, formatted a chunk
    at a time) or a list of row sequences (presets, verify reports); the
    bytes are the same either way.  len(rows) is the row count.
    """
    path = _resolve_path(args.output)
    if path is None:
        for text in table_chunks(header, rows, args.format):
            _write_stdout(text)
        return
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    write_table(path, header, rows, args.format)


def _parse_grid(spec: str, parser: argparse.ArgumentParser, flag: str = "--grid"):
    parts = spec.split(":")
    if len(parts) != 3:
        parser.error(f"{flag} must be min:max:count, got {spec!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        parser.error(f"{flag} must be min:max:count with numeric fields, got {spec!r}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        parser.error(f"{flag} needs finite min and max, got {spec!r}")
    if count < 1:
        parser.error(f"{flag} needs count >= 1, got {count}")
    return np.linspace(lo, hi, count)


_EXPLICIT = ("alpha", "beta", "gamma", "c", "d")
_PRESET_NEEDS = {
    "wigner": (),
    "ple": ("p", "d"),
    "npme": ("m", "nu", "d"),
    "epd": ("nu", "c", "d"),
    "zkb": ("m", "d"),
}


def _resolve_family(args, parser) -> FamilyParams:
    given = [f for f in (*_EXPLICIT, "p", "m", "nu") if getattr(args, f) is not None]
    if args.preset is None:
        route, reads = "an explicit family", _EXPLICIT
        missing = [f for f in reads if f not in given]
        if missing:
            parser.error(
                "give either --preset or all of --alpha --beta --gamma --c --d "
                f"(missing --{missing[0]})"
            )
    else:
        route, reads = f"--preset {args.preset}", _PRESET_NEEDS[args.preset]
        for f in reads:
            if f not in given:
                parser.error(f"{route} requires --{f}")
    # a flag the route does not read would be silently ignored
    unread = [f for f in given if f not in reads]
    if unread:
        parser.error(f"--{unread[0]} is not read by {route}")
    if args.preset is None:
        return new_family(args.alpha, args.beta, args.gamma, args.c, args.d)
    if args.preset == "wigner":
        return preset_mod.wigner_preset()
    if args.preset == "ple":
        return preset_mod.ple_preset(args.p, args.d)[1]
    if args.preset == "npme":
        return preset_mod.npme_preset(args.m, args.nu, args.d)[1]
    if args.preset == "epd":
        return preset_mod.epd_preset(args.nu, args.c, args.d)
    return preset_mod.zkb_source_preset(args.m, args.d)


def _add_family_flags(sub):
    sub.add_argument("--preset", choices=sorted(_PRESET_NEEDS), default=None)
    sub.add_argument("--alpha", type=float, default=None)
    sub.add_argument("--beta", type=float, default=None)
    sub.add_argument("--gamma", type=float, default=None)
    sub.add_argument("--c", type=float, default=None)
    sub.add_argument("--d", type=int, default=None)
    sub.add_argument("--p", type=float, default=None, help="ple homogeneity exponent")
    sub.add_argument("--m", type=float, default=None, help="porous-medium exponent")
    sub.add_argument("--nu", type=float, default=None, help="npme/epd order parameter")


def _add_io_flags(sub):
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--output", default=None, help="file path (default: stdout)")


def _cmd_eval(args, parser) -> int:
    fam = _resolve_family(args, parser)
    xs = _parse_grid(args.grid, parser)
    header = ["x", "t", "pdf"]
    if fam.d == 1:
        header.append("cdf")
        cols = [fam_mod.pdf(fam, xs, args.t), fam_mod.cdf_1d(fam, xs, args.t)]
    else:
        pts = np.zeros((xs.size, fam.d))
        pts[:, 0] = xs
        cols = [fam_mod.pdf(fam, pts, args.t)]
    _emit(np.column_stack([xs, np.full(xs.size, args.t), *cols]), header, args)
    return 0


def _cmd_sample(args, parser) -> int:
    fam = _resolve_family(args, parser)
    if args.n < 1:
        parser.error(f"--n must be >= 1, got {args.n}")
    rng = samp_mod.RngStream(args.seed, args.stream)
    pts = samp_mod.sample_position(rng, fam, args.t, args.n)
    rows = np.asarray(pts, dtype=float).reshape(args.n, -1)
    _emit(rows, [f"x{i + 1}" for i in range(fam.d)], args)
    return 0


def _cmd_presets(args, parser) -> int:
    # fixed exemplar table; the verify suites cover the parameter grids
    members = [
        ("wigner", "", preset_mod.wigner_preset()),
        ("ple", "p=3, d=1", preset_mod.ple_preset(3.0, 1)[1]),
        ("npme", "m=2, nu=2, d=1", preset_mod.npme_preset(2.0, 2.0, 1)[1]),
        ("epd", "nu=2, c=1, d=3", preset_mod.epd_preset(2.0, 1.0, 3)),
        ("zkb", "m=2, d=1", preset_mod.zkb_source_preset(2.0, 1)),
    ]
    rows = [
        (name, rp, f.alpha, f.beta_exp, f.gamma_exp, f.c, f.norm_c)
        for name, rp, f in members
    ]
    fp = preset_mod.fractional_preset(0.2)
    rows.append(("fractional", "nu=0.2", fp.nu, 2.0, 1.0, math.sqrt(fp.C1 / fp.C2), fp.C1))
    _emit(rows, ["preset", "raw_params", "alpha", "beta", "gamma", "c", "C"], args)
    return 0


def _cmd_ft(args, parser) -> int:
    fam = _resolve_family(args, parser)
    xis = _parse_grid(args.grid, parser)
    # first, so that char_fn_projection itself refuses a d = 1 member
    if args.kind == "projection":
        fn = trans_mod.char_fn_projection
    elif fam.d == 1:
        fn = trans_mod.char_fn_1d
    else:
        fn = trans_mod.char_fn_radial
    cf = fn(fam, xis, args.t)
    _emit(np.column_stack([xis, np.full(xis.size, args.t), cf]), ["xi", "t", "cf"], args)
    return 0


def _cmd_msd(args, parser) -> int:
    fam = _resolve_family(args, parser)
    ts = _parse_grid(args.grid, parser)
    # msd / t^(2 alpha) is the t = 1 moment at every t: no quotient of two
    # powers of t that may have left the float range
    ratio = fam_mod.radial_moment(fam, 2, 1.0)
    rows = []
    for t in ts.tolist():
        msd = fam_mod.radial_moment(fam, 2, t)
        if msd == 0.0:
            raise FloatingPointError(f"msd underflows to 0 at t = {t!r}")
        rows.append((t, msd, ratio))
    _emit(np.array(rows), ["t", "msd", "msd_over_t2alpha"], args)
    return 0


def _cmd_verify(args, parser) -> int:
    flags = ("seed", "threads", "h_levels")
    given = {f: getattr(args, f) for f in flags if getattr(args, f) is not None}
    # a flag the suite does not read would be silently ignored
    unread = [f for f in given if f not in verify_mod._SUITES[args.suite][1]]
    if unread:
        parser.error(f"--{unread[0].replace('_', '-')} is not read by verify {args.suite}")
    report = verify_mod.run_suite(args.suite, out_dir=_resolve_path(args.out), **given)
    header, rows = report.table()
    _emit(rows, header, args)
    return 0 if report.passed else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The whole argparse tree, built once per process: parse_args gives
    a fresh namespace on every call and reads the help width only when
    help is printed, so the tree can be shared."""
    parser = argparse.ArgumentParser(
        prog="barenblatt",
        description="compactly supported self-similar densities: evaluate, "
        "sample, transform, verify",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p_eval = subs.add_parser("eval", help="tabulate pdf (and cdf when d = 1)")
    _add_family_flags(p_eval)
    _add_io_flags(p_eval)
    p_eval.add_argument("--t", type=float, default=1.0)
    p_eval.add_argument(
        "--grid",
        required=True,
        help="min:max:count; for d >= 2 the x axis is the radius along the "
        "first coordinate",
    )

    p_sample = subs.add_parser("sample", help="draw positions")
    _add_family_flags(p_sample)
    _add_io_flags(p_sample)
    p_sample.add_argument("--t", type=float, default=1.0)
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--seed", type=int, required=True)
    p_sample.add_argument("--stream", type=int, default=0)

    p_presets = subs.add_parser("presets", help="exemplar parameter table")
    _add_io_flags(p_presets)

    p_ft = subs.add_parser("ft", help="characteristic function on a xi grid")
    _add_family_flags(p_ft)
    _add_io_flags(p_ft)
    p_ft.add_argument("--t", type=float, default=1.0)
    p_ft.add_argument("--grid", required=True, help="min:max:count over xi")
    p_ft.add_argument(
        "--kind",
        choices=("auto", "projection"),
        default="auto",
        help="auto: scalar route for d = 1, radial route for d >= 2; "
        "projection: the double-quadrature route",
    )

    p_msd = subs.add_parser("msd", help="mean squared displacement over t")
    _add_family_flags(p_msd)
    _add_io_flags(p_msd)
    p_msd.add_argument("--grid", required=True, help="min:max:count over t")

    p_verify = subs.add_parser("verify", help="run a named verification suite")
    _add_io_flags(p_verify)
    p_verify.add_argument("suite", choices=verify_mod.SUITE_NAMES)
    p_verify.add_argument(
        "--seed", type=int, default=None,
        help=f"sampling suite only (default {verify_mod.DEFAULT_SEED})",
    )
    p_verify.add_argument("--out", default=None, help="report directory")
    p_verify.add_argument("--threads", type=int, default=None)
    p_verify.add_argument("--h-levels", type=int, default=None)
    return parser


def main(argv=None) -> int:
    parser = _parser()
    if argv is None:
        argv = sys.argv[1:]
    # join "--grid -2:2:5" into one token: a leading minus in the grid spec
    # would otherwise be taken for an option string
    argv = list(argv)
    for i, tok in enumerate(argv[:-1]):
        if tok == "--grid":
            argv[i : i + 2] = [f"--grid={argv[i + 1]}"]
            break
    args = parser.parse_args(argv)
    handler = {
        "eval": _cmd_eval,
        "sample": _cmd_sample,
        "presets": _cmd_presets,
        "ft": _cmd_ft,
        "msd": _cmd_msd,
        "verify": _cmd_verify,
    }[args.subcommand]
    try:
        return handler(args, parser)
    except ValueError as exc:
        # a parameter the library refuses is a usage error, not a crash
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # e.g. a time whose front radius or density overflows a float
        print(f"{parser.prog}: error: a value at this input leaves the float "
              f"range ({type(exc).__name__}: {exc})", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        # an integral that cannot meet its tolerance names its interval
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # downstream closed the pipe (e.g. `... | head`); point stdout at
        # devnull so the interpreter's exit flush does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
