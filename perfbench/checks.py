"""Output checks against routes that share no code with barenblatt.

Closed forms are evaluated with scipy.special, integrals with
scipy.integrate.quad, and sampled laws are tested by Kolmogorov-Smirnov
against scipy's incomplete beta at alpha = 1e-6, so that a change that
alters the random bytes (but not the law) does not flip a check by
chance.  Each check returns a list of failure messages; empty means the
output passed.
"""

from __future__ import annotations

import io
import json
import math

import numpy as np
from scipy import integrate, special, stats

KS_ALPHA = 1e-6
# two-sided normal quantile at 1e-6, for the Monte Carlo mean test
Z_CRIT = float(stats.norm.isf(KS_ALPHA / 2.0))


def _ln_norm(a, b, g, c, d) -> float:
    """ln C of the member; sigma(S^{d-1}) = 2 pi^{d/2} / Gamma(d/2)."""
    ln_sphere = math.log(2.0) + 0.5 * d * math.log(math.pi) - special.gammaln(0.5 * d)
    return math.log(b) - d * math.log(c) - ln_sphere - special.betaln(d / b, g + 1.0)


def pdf(member, r, t):
    a, b, g, c, d = member
    z = np.minimum(np.abs(r) / (c * t**a), 1.0)
    return np.exp(_ln_norm(*member) - a * d * math.log(t)) * (1.0 - z**b) ** g


def cdf_1d(member, x, t):
    a, b, g, c, _ = member
    z = np.minimum(np.abs(x) / (c * t**a), 1.0) ** b
    return 0.5 * (1.0 + np.sign(x) * special.betainc(1.0 / b, g + 1.0, z))


def char_fn(member, xi, t) -> float:
    """E cos(xi . X(t)) at frequency radius xi."""
    a, b, g, c, d = member
    s = xi * c * t**a
    if s == 0.0:
        return 1.0
    if b == 2.0:
        # Fourier transform of (1 - |x|^2)_+^gamma on R^d
        nu = 0.5 * d + g
        return float(np.exp(special.gammaln(nu + 1.0) + nu * math.log(2.0 / s)) * special.jv(nu, s))
    if d != 1:
        raise ValueError("the closed form needs beta = 2 for d >= 2")
    radius = c * t**a
    val, _ = integrate.quad(lambda x: pdf(member, x, t), 0.0, radius, weight="cos",
                            wvar=xi, limit=400, epsabs=1e-14, epsrel=1e-13)
    return 2.0 * val


def _table(data: bytes, fmt: str, header: list) -> tuple[np.ndarray, list]:
    """Parse CLI output into a float array; returns (array, failures)."""
    if fmt == "json":
        rows = json.loads(data)
        if rows and list(rows[0]) != header:
            return np.empty((0, len(header))), [f"json keys {list(rows[0])} != {header}"]
        arr = np.array([[row[h] for h in header] for row in rows], dtype=float)
        return arr.reshape(-1, len(header)), []
    text = data.decode()
    first = text.split("\n", 1)[0].strip()
    if first.split(",") != header:
        return np.empty((0, len(header))), [f"csv header {first!r} != {header}"]
    arr = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    return arr.reshape(-1, len(header)), []


def _ks(values, cdf, what: str) -> list:
    p = stats.kstest(values, cdf).pvalue
    return [] if p >= KS_ALPHA else [f"KS {what}: p = {p:.3g} < {KS_ALPHA:g}"]


def _positions(member, pts: np.ndarray, n: int, t: float) -> list:
    """Row count, finiteness, support radius and the sampled laws."""
    a, b, g, c, d = member
    fails = []
    if pts.shape != (n, d):
        return [f"shape {pts.shape} != {(n, d)}"]
    if not np.all(np.isfinite(pts)):
        return ["non-finite position"]
    radius = c * t**a
    r = np.sqrt(np.sum(pts * pts, axis=1))
    if np.max(r) > radius * (1.0 + 1e-12):
        fails.append(f"|x| = {np.max(r):.17g} beyond the support radius {radius:.17g}")
    if d == 1:
        fails += _ks(pts[:, 0], lambda x: cdf_1d(member, x, t), "position")
    else:
        z = np.minimum(r / radius, 1.0) ** b
        fails += _ks(z, lambda v: special.betainc(d / b, g + 1.0, v), "radius")
        w = (pts[:, 0] / r) ** 2
        fails += _ks(w, lambda v: special.betainc(0.5, 0.5 * (d - 1), v), "direction")
    return fails


def check_sample_cli(p: dict, data: bytes) -> list:
    d = p["member"][4]
    pts, fails = _table(data, p["format"], [f"x{i + 1}" for i in range(d)])
    return fails or _positions(p["member"], pts, p["n"], p["t"])


def check_parallel_draw(p: dict, pts: np.ndarray) -> list:
    member, n, t = p["member"], p["n"], p["t"]
    fails = _positions(member, pts.reshape(n, -1), n, t)
    if fails:
        return fails
    a, b, g, c, d = member
    r2 = np.sum(pts * pts, axis=1)
    want = (c * t**a) ** 2 * math.exp(special.betaln((d + 2.0) / b, g + 1.0)
                                      - special.betaln(d / b, g + 1.0))
    z = (float(np.mean(r2)) - want) / (float(np.std(r2)) / math.sqrt(n))
    return [] if abs(z) <= Z_CRIT else [f"MSD z = {z:.2f} beyond {Z_CRIT:.2f}"]


def telegraph_bound(p: dict, u: np.ndarray, u_ref: np.ndarray, eps_ref: float) -> list:
    """|U_eps - U_eps'| <= 2 c max(eps, eps') path by path (same streams)."""
    bound = 2.0 * p["c"] * max(p["eps"], eps_ref) + 1e-12 * p["c"] * p["t"]
    gap = float(np.max(np.abs(u - u_ref)))
    return [] if gap <= bound else [f"pathwise gap {gap:.3g} > {bound:.3g} vs eps {eps_ref:g}"]


def check_telegraph(p: dict, u: np.ndarray) -> list:
    if u.shape != (p["n"],):
        return [f"shape {u.shape} != {(p['n'],)}"]
    if not np.all(np.isfinite(u)):
        return ["non-finite variate"]
    reach = p["c"] * p["t"]
    fails = []
    if np.max(np.abs(u)) > reach * (1.0 + 1e-12):
        fails.append(f"|U| = {np.max(np.abs(u)):.17g} beyond c t = {reach:.17g}")
    member = (1.0, 2.0, p["xi"] - 1.0, p["c"], 1)
    return fails + _ks(u, lambda x: cdf_1d(member, x, p["t"]), "telegraph law")


def check_ft(p: dict, data: bytes) -> list:
    tab, fails = _table(data, "csv", ["xi", "t", "cf"])
    if fails:
        return fails
    if tab.shape[0] != p["count"]:
        return [f"{tab.shape[0]} rows != {p['count']}"]
    if not np.all(np.isfinite(tab)):
        return ["non-finite value"]
    xis, cf = tab[:, 0], tab[:, 2]
    if not np.allclose(xis, np.linspace(0.0, p["xi_max"], p["count"]), rtol=0.0, atol=1e-15):
        fails.append("xi grid differs from the request")
    want = np.array([char_fn(p["member"], xi, p["t"]) for xi in xis])
    err = np.abs(cf - want)
    worst = int(np.argmax(err))
    if err[worst] > 1e-8:
        fails.append(f"cf at xi = {xis[worst]:.6g}: {cf[worst]:.6e} vs oracle {want[worst]:.6e}")
    if np.max(np.abs(cf)) > 1.0 + 1e-12:
        fails.append("|cf| > 1")
    return fails


def check_eval(p: dict, data: bytes) -> list:
    member, t = p["member"], p["t"]
    d = member[4]
    header = ["x", "t", "pdf"] + (["cdf"] if d == 1 else [])
    tab, fails = _table(data, "csv", header)
    if fails:
        return fails
    if tab.shape[0] != p["count"]:
        return [f"{tab.shape[0]} rows != {p['count']}"]
    if not np.all(np.isfinite(tab)):
        return ["non-finite value"]
    x, dens = tab[:, 0], tab[:, 2]
    radius = member[3] * t ** member[0]
    if np.any(dens[np.abs(x) > radius] != 0.0):
        fails.append("pdf not exactly 0 outside the support")
    want = pdf(member, x, t)
    if np.max(np.abs(dens - want) / np.maximum(want, 1e-300) * (want > 0)) > 1e-10:
        fails.append("pdf differs from the closed form by more than 1e-10 relative")
    if d == 1:
        cdf = tab[:, 3]
        if np.max(np.abs(cdf - cdf_1d(member, x, t))) > 1e-12:
            fails.append("cdf differs from scipy betainc by more than 1e-12")
        if np.any(np.diff(cdf) < 0.0):
            fails.append("cdf decreases")
    return fails


def check_msd(p: dict, data: bytes) -> list:
    tab, fails = _table(data, "csv", ["t", "msd", "msd_over_t2alpha"])
    if fails:
        return fails
    if tab.shape[0] != p["count"]:
        return [f"{tab.shape[0]} rows != {p['count']}"]
    a, b, g, c, d = p["member"]
    ts = tab[:, 0]
    ratio = c**2 * math.exp(special.betaln((d + 2.0) / b, g + 1.0) - special.betaln(d / b, g + 1.0))
    want = ratio * ts ** (2.0 * a)
    if np.max(np.abs(tab[:, 1] / want - 1.0)) > 1e-12:
        fails.append("msd differs from the closed form")
    if np.max(np.abs(tab[:, 2] / ratio - 1.0)) > 1e-12:
        fails.append("msd / t^(2 alpha) is not the constant c^2 B((d+2)/beta, .)/B(d/beta, .)")
    return fails


def check_ek(p: dict, value: np.ndarray) -> list:
    k_eta = p["power"] / p["eta"]
    want = p["x"] ** p["power"] * math.exp(
        special.gammaln(p["zeta"] + 1.0 + k_eta) - special.gammaln(p["zeta"] + p["mu"] + 1.0 + k_eta)
    )
    got = float(value)
    return [] if abs(got / want - 1.0) <= 1e-9 else [f"ek {got:.17g} vs closed form {want:.17g}"]


def check_suite(p: dict, report) -> list:
    if not report.checks:
        return ["suite ran no checks"]
    return [f"suite check {c.name} failed" for c in report.checks if not c.passed]
