"""In-memory span tracer for the traced benchmark run.

The tracer wraps the public entry points of each barenblatt module from
the outside: every module attribute that refers to a wrapped function is
rebound, so names that one module imports from another (for example
`sampling.inv_reg_inc_beta` or `transforms.integrate`) are traced too.
Nothing under src/ changes.  `install` returns an undo function that
restores every original.

A span is recorded as [id, parent_id, name, start, end, request, n]; `n`
is the work count of the call (lanes, points, draws, integrand
evaluations).  Spans stay in memory until the caller writes them out.
Self time is a span's duration minus the union of its children's
intervals, so children running concurrently on worker threads are not
subtracted twice.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import Counter, defaultdict

import numpy as np

_START, _END, _N = 3, 4, 6


class Tracer:
    """Collects spans and exact event counts for one traced pass."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.request = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_name(self):
        stack = self._stack()
        return stack[-1][2] if stack else None

    def begin(self, name: str, n: int = 0) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else 0
        span = [next(self._ids), parent, name, time.perf_counter(), 0.0, self.request, n]
        stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[_END] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def adopt(self, span: list) -> None:
        """Make `span` (opened on another thread) the parent on this thread."""
        self._stack().append(span)

    def release(self) -> None:
        self._stack().pop()


def _lanes(*arrays) -> int:
    return int(np.broadcast(*[np.asarray(a) for a in arrays]).size)


def _size(size) -> int:
    return 1 if size is None else int(size)


def _rebind(modules, original, replacement, undo: list) -> None:
    for mod in modules:
        hits = [k for k, v in vars(mod).items() if v is original]
        for key in hits:
            setattr(mod, key, replacement)
            undo.append((mod, key, original))


def install(tracer: Tracer):
    """Wrap the layer entry points; returns a function that unwraps them."""
    from barenblatt import cli, family, fractional, presets, sampling, specfun, transforms, verify

    modules = (specfun, family, sampling, transforms, presets, fractional, verify, cli)
    undo: list = []

    def spanned(name, work=None):
        def deco(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span = tracer.begin(name, work(*args, **kwargs) if work else 0)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.end(span)

            return wrapper

        return deco

    def wrap(mod, attr, name, work=None):
        original = getattr(mod, attr)
        _rebind(modules, original, spanned(name, work)(original), undo)

    # specfun -----------------------------------------------------------
    wrap(specfun, "inv_reg_inc_beta", "specfun.inv_reg_inc_beta", lambda p, a, b: _lanes(p, a, b))
    reg_inc_beta = specfun.reg_inc_beta
    direct = spanned("specfun.reg_inc_beta", lambda x, a, b: _lanes(x, a, b))(reg_inc_beta)

    @functools.wraps(reg_inc_beta)
    def reg_inc_beta_traced(x, a, b):
        # Newton steps of the inverse stay inside its span; only count lanes
        if tracer.current_name() == "specfun.inv_reg_inc_beta":
            tracer.count("specfun.inv_reg_inc_beta.newton_lanes", _lanes(x, a, b))
            return reg_inc_beta(x, a, b)
        return direct(x, a, b)

    _rebind(modules, reg_inc_beta, reg_inc_beta_traced, undo)
    wrap(specfun, "bessel_j", "specfun.bessel_j", lambda mu, x: _lanes(x))

    integrate = specfun.integrate

    @functools.wraps(integrate)
    def integrate_traced(f, *args, **kwargs):
        span = tracer.begin("specfun.integrate")

        def counted(x):
            span[_N] += int(np.size(x))
            return f(x)

        try:
            return integrate(counted, *args, **kwargs)
        finally:
            tracer.end(span)

    _rebind(modules, integrate, integrate_traced, undo)

    # family / transforms -----------------------------------------------
    for attr in ("pdf", "radial_pdf", "cdf_1d"):
        wrap(family, attr, f"family.{attr}")
    for attr in ("char_fn_1d", "char_fn_radial", "char_fn_projection", "ek_integral"):
        wrap(transforms, attr, f"transforms.{attr}")

    # sampling ----------------------------------------------------------
    wrap(sampling, "sample_position", "sampling.sample_position",
         lambda rng, p, t, size=None: _size(size))
    wrap(sampling, "sample_epd_telegraph", "sampling.sample_epd_telegraph",
         lambda rng, xi, c, t, eps, size=None: _size(size))

    parallel_draw = sampling.parallel_draw

    @functools.wraps(parallel_draw)
    def parallel_draw_traced(seed, stream_id, n, draw_block, threads=1):
        span = tracer.begin("sampling.parallel_draw", int(threads))

        def block(rng, size):
            tracer.adopt(span)
            inner = tracer.begin("sampling.parallel_draw.block", int(size))
            try:
                return draw_block(rng, size)
            finally:
                tracer.end(inner)
                tracer.release()

        try:
            return parallel_draw(seed, stream_id, n, block, threads=threads)
        finally:
            tracer.end(span)

    _rebind(modules, parallel_draw, parallel_draw_traced, undo)

    cls = sampling.RngStream
    init, normals, exponentials = cls.__init__, cls.normals, cls.exponentials
    cls.__init__ = spanned("sampling.rngstream.init")(init)
    cls.normals = spanned("sampling.normals", lambda self, size: int(size))(normals)

    @functools.wraps(exponentials)
    def exponentials_counted(self, size=None):
        tracer.count("sampling.exponentials.calls")
        return exponentials(self, size)

    cls.exponentials = exponentials_counted
    undo += [(cls, "__init__", init), (cls, "normals", normals), (cls, "exponentials", exponentials)]

    # presets / fractional / verify -------------------------------------
    for mod, layer in ((presets, "presets"), (fractional, "fractional")):
        for attr in mod.__all__:
            obj = getattr(mod, attr)
            if callable(obj) and not isinstance(obj, type):
                wrap(mod, attr, f"{layer}.{attr}")
    for attr in ("run_suite", "pme_residual", "epd_residual", "epd_type_wave_residual"):
        wrap(verify, attr, f"verify.{attr}")

    # cli ---------------------------------------------------------------
    emit = cli._emit

    @functools.wraps(emit)
    def emit_counted(rows, header, args):
        tracer.count("cli.rows", len(rows))
        emit(rows, header, args)
        if args.output is not None:
            tracer.count("cli.bytes_written", os.path.getsize(args.output))

    _rebind(modules, emit, emit_counted, undo)
    wrap(cli, "main", "cli.main")

    def uninstall():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return uninstall


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans) -> dict:
    """Per span name: calls, summed work count, duration and self time."""
    children = defaultdict(list)
    for s in spans:
        if s[1]:
            children[s[1]].append((s[_START], s[_END]))
    out: dict = defaultdict(lambda: {"calls": 0, "n": 0, "dur_s": 0.0, "self_s": 0.0})
    for s in spans:
        dur = s[_END] - s[_START]
        row = out[s[2]]
        row["calls"] += 1
        row["n"] += s[_N]
        row["dur_s"] += dur
        row["self_s"] += dur - _union_length(children.get(s[0], ()), s[_START], s[_END])
    return dict(out)
