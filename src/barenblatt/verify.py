"""Finite-difference PDE residual harness and consolidated verification
suites.

Residual policy: central differences only; sampling points are kept away
from the free boundary (interior_fraction of the support radius) instead
of ever using one-sided stencils; the same evaluation points are reused
across all dyadic step sizes so empirical orders are clean; residual
magnitudes are normalized by max|u| over the evaluation points.  All
d >= 2 Laplacians use the radial reduction u_rr + (d-1) u_r / r, valid
because every density here is rotationally invariant.

Quadrature checks make one vector `integrate` call per check, with the
members, points or moments as its columns (one call per member or time
where those set the interval): each column keeps its own tolerance, and
the integrand is still the library's own `radial_pdf` or `pdf`.

Distribution checks are one-sample KS tests against an exact cdf, never a
second sampler; the telegraph draws meet the law the paper gives U_0 up
to a band for the c eps truncation.

Suites are deterministic given (seed, config): sampling checks draw from
fixed Philox streams, case execution is sequential, and report assembly
is order-stable.  The --threads knob only changes how large draws are
split internally, never the bytes drawn.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np

from . import family as fam_mod
from . import fractional as frac_mod
from . import presets as preset_mod
from . import sampling as samp_mod
from . import transforms as trans_mod
from ._table import write_table
from .family import FamilyParams, new_family, pdf, radial_pdf, support_radius
from .sampling import RngStream
from .specfun import _count, _real, bessel_j, integrate, reg_inc_beta

__all__ = [
    "ResidualReport",
    "CheckResult",
    "SuiteReport",
    "pme_residual",
    "epd_residual",
    "epd_type_wave_residual",
    "run_suite",
    "SUITE_NAMES",
]

DEFAULT_SEED = 20260816
# residuals this small are quadrature/rounding noise; no order is estimable
_RESIDUAL_FLOOR = 5e-13


@dataclass(frozen=True)
class ResidualReport:
    """Dyadic-refinement record for one equation/member pair."""

    equation: str
    params: dict
    h_values: tuple
    max_residuals: tuple
    order: float
    notes: str = ""


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    tolerance: float
    detail: str = ""


@dataclass
class SuiteReport:
    suite: str
    seed: int
    checks: list = field(default_factory=list)
    # extra CSV tables written beside the report: file name -> (header, rows)
    artifacts: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def table(self):
        """The checks as (header, rows), one row per CheckResult."""
        return [f.name for f in fields(CheckResult)], [astuple(c) for c in self.checks]

    def add(self, name, passed, value, tolerance, detail=""):
        self.checks.append(
            CheckResult(
                name=name,
                passed=bool(passed),
                value=float(value),
                tolerance=float(tolerance),
                detail=detail,
            )
        )


def _order_estimate(residuals):
    """Mean dyadic order; nan when the values sit at the rounding floor."""
    r = list(residuals)
    if min(r) <= _RESIDUAL_FLOOR:
        return float("nan")
    return float(np.mean([math.log2(r[i] / r[i + 1]) for i in range(len(r) - 1)]))


def _u_on_radii(fam: FamilyParams, r, t):
    """u at the points r along the first axis (r may be negative)."""
    return fam_mod._profile(fam, np.abs(np.asarray(r, dtype=float)), t)


def _parabolic_residual(u_of, phi, kappa, d, t, h, radii):
    """max |u_t - kappa * radial_laplacian(phi(u))| over the points."""
    gp = phi(u_of(radii + h, t))
    gm = phi(u_of(radii - h, t))
    g0 = phi(u_of(radii, t))
    lap = (gp - 2.0 * g0 + gm) / h**2 + (d - 1.0) / radii * (gp - gm) / (2.0 * h)
    u_t = (u_of(radii, t + h) - u_of(radii, t - h)) / (2.0 * h)
    return float(np.max(np.abs(u_t - kappa * lap)))


def _second_order_residual(u_of, damp, speed2, d, t, h, xs):
    """max |u_tt + damp(t) u_t - speed2(t) * radial_laplacian(u)|."""
    u0 = u_of(xs, t)
    u_tt = (u_of(xs, t + h) - 2.0 * u0 + u_of(xs, t - h)) / h**2
    u_t = (u_of(xs, t + h) - u_of(xs, t - h)) / (2.0 * h)
    up = u_of(xs + h, t)
    um = u_of(xs - h, t)
    lap = (up - 2.0 * u0 + um) / h**2
    if d > 1:
        lap = lap + (d - 1.0) / xs * (up - um) / (2.0 * h)
    return float(np.max(np.abs(u_tt + damp(t) * u_t - speed2(t) * lap)))


def _dyadic_h(h, levels):
    # three levels are the fewest that give an order estimate
    h = _real("h", h, 0.0)
    return [h / 2**i for i in range(_count("levels", levels, least=3))]


def _check_stencil(fam: FamilyParams, radii, t, h):
    # the time stencil reaches back to t - h, so h < t first: the front
    # radius at t - h would otherwise refuse a time the caller never passed
    if h >= t:
        raise ValueError(f"h must be < t = {t!r}, got {h!r}")
    if radii.max() + h >= support_radius(fam, t - h):
        raise ValueError(
            "stencil overflow: evaluation points plus the coarsest step "
            "reach the free boundary; lower interior_fraction or h"
        )


def _member_points(fam: FamilyParams, t, interior_fraction):
    """u(r, t) along the first axis, the 8 evaluation radii (up to
    interior_fraction of the front) and max|u| over them at t."""
    u_of = lambda r, tt: _u_on_radii(fam, r, tt)
    interior_fraction = _real("interior_fraction", interior_fraction, 0.0)
    radii = np.linspace(0.15, 1.0, 8) * interior_fraction * support_radius(fam, t)
    return u_of, radii, float(np.max(np.abs(u_of(radii, t))))


def _report(equation, params, hs, res, notes="") -> ResidualReport:
    return ResidualReport(equation, params, tuple(hs), tuple(res), _order_estimate(res), notes)


def _mapped_member_residuals(m, d, t, h, interior_fraction):
    """Normalized porous-medium residuals, at step h, of the nonlocal
    nu = 2 member and of its amplitude-one profile (see pme_residual)."""
    _, nf = preset_mod.npme_preset(m, 2.0, d)
    kappa = (m - 1.0) / m
    phi = lambda u: u**m
    u_of, radii, umax = _member_points(nf, t, interior_fraction)
    lit = _parabolic_residual(u_of, phi, kappa, d, t, h, radii) / umax
    raw_u = lambda r, tt: u_of(r, tt) / nf.norm_c
    raw = _parabolic_residual(raw_u, phi, kappa, d, t, h, radii) / (umax / nf.norm_c)
    return lit, raw


def pme_residual(
    m: float,
    d: int,
    t: float,
    h: float = 0.02,
    levels: int = 3,
    interior_fraction: float = 0.8,
    gamma_scale: float = 1.0,
) -> ResidualReport:
    """Residual of u_t - ((m-1)/m) Lap(u^m) for the unit-mass source member.

    An amplitude argument fixes which members can solve the flow at all:
    C^{m-1} = (alpha/2) c^2 is necessary and sufficient (presets module
    docstring), so the headline member is `zkb_source_preset(m, d)`.  The
    nonlocal-equation mapping at nu = 2 keeps unit mass with a different
    front scale and therefore fails the condition; its (non-vanishing)
    residual and the residual of the amplitude-one profile (the condition
    with C = 1, mass != 1) are recorded in the notes so the adjudication
    is explicit rather than silent.

    gamma_scale != 1 perturbs the profile exponent, a negative control
    that must not converge.
    """
    fam = preset_mod.zkb_source_preset(m, d)
    if _real("gamma_scale", gamma_scale, 0.0) != 1.0:
        fam = new_family(fam.alpha, 2.0, fam.gamma_exp * gamma_scale, fam.c, d)
    hs = _dyadic_h(h, levels)
    u_of, radii, umax = _member_points(fam, t, interior_fraction)
    _check_stencil(fam, radii, t, h)
    kappa = (m - 1.0) / m
    phi = lambda u: u**m
    res = [_parabolic_residual(u_of, phi, kappa, d, t, hh, radii) / umax for hh in hs]
    notes = ""
    if gamma_scale == 1.0:
        lit, raw = _mapped_member_residuals(m, d, t, hs[-1], interior_fraction)
        notes = (
            "adjudication: normalized nonlocal nu=2 member residual "
            f"{lit:.3e} (does not vanish); amplitude-one profile residual "
            f"{raw:.3e} (vanishes); unit-mass source member is the headline"
        )
    params = {"m": m, "d": d, "t": t, "gamma_scale": gamma_scale}
    return _report("porous-medium flow", params, hs, res, notes)


def epd_residual(
    nu: float,
    c: float,
    d: int,
    t: float,
    h: float = 0.02,
    levels: int = 3,
    interior_fraction: float = 0.8,
    alpha_shift: float = 0.0,
) -> ResidualReport:
    """Residual of u_tt + ((d+2nu-1)/t) u_t - c^2 Lap(u) for the mapped
    fundamental solution.  alpha_shift perturbs the self-similarity
    exponent as a negative control."""
    fam = preset_mod.epd_preset(nu, c, d)
    if _real("alpha_shift", alpha_shift, -1.0) != 0.0:
        fam = new_family(1.0 + alpha_shift, 2.0, nu - 1.0, c, d)
    hs = _dyadic_h(h, levels)
    u_of, radii, umax = _member_points(fam, t, interior_fraction)
    _check_stencil(fam, radii, t, h)
    damp = lambda tt: (d + 2.0 * nu - 1.0) / tt
    speed2 = lambda tt: c**2
    res = [
        _second_order_residual(u_of, damp, speed2, d, t, hh, radii) / umax for hh in hs
    ]
    params = {"nu": nu, "c": c, "d": d, "t": t, "alpha_shift": alpha_shift}
    return _report("Euler-Poisson-Darboux", params, hs, res)


def epd_type_wave_residual(
    alpha: float,
    v: float,
    h: float = 0.02,
    levels: int = 3,
    profile_exponent_scale: float = 1.0,
) -> ResidualReport:
    """Residual of u_tt + ((1-alpha)/t) u_t = v^2 alpha^2 t^{2 alpha - 2} u_xx
    on the smooth traveling wave u = g(x - v t^alpha), g a Gaussian bump.

    The identity is exact for any (alpha, v); at alpha = 1, v = 1 even the
    finite-difference truncation cancels (both stencils see the same
    shifted profile), so the residual sits at rounding scale there.
    profile_exponent_scale != 1 moves the PROFILE's exponent while the
    equation keeps alpha: the negative control.
    """
    alpha, v = _real("alpha", alpha, 0.0), _real("v", v, 0.0)
    t = 1.0
    g = lambda s: np.exp(-np.asarray(s) ** 2)
    a_prof = alpha * _real("profile_exponent_scale", profile_exponent_scale, 0.0)

    def u_of(x, tt):
        return g(np.asarray(x) - v * tt**a_prof)

    xs = v * t**a_prof + np.linspace(-1.2, 1.2, 9)
    damp = lambda tt: (1.0 - alpha) / tt
    speed2 = lambda tt: v**2 * alpha**2 * tt ** (2.0 * alpha - 2.0)
    hs = _dyadic_h(h, levels)
    res = [_second_order_residual(u_of, damp, speed2, 1, t, hh, xs) for hh in hs]
    notes = "residual at rounding floor" if min(res) <= _RESIDUAL_FLOOR else ""
    params = {"alpha": alpha, "v": v, "profile_exponent_scale": profile_exponent_scale}
    return _report("EPD-type traveling wave", params, hs, res, notes)


# ---------------------------------------------------------------------------
# consolidated suites


_GRID_MEMBERS = [
    (0.5, 2.0, 0.5, 2.0, 1),
    (0.7, 2.5, 0.8, 1.5, 1),
    (1.0, 1.5, 2.0, 0.7, 1),
    (0.3, 3.0, 1.0, 1.0, 1),
    (0.5, 2.0, 2.5, 1.0, 1),
]
_RADIAL_MEMBERS = [
    (0.5, 2.0, 1.0, 1.5, 2),
    (0.4, 1.5, 1.2, 1.3, 3),
    (0.5, 2.0, 1.5, 1.0, 4),
    (0.3, 3.0, 0.5, 2.0, 2),
    (1.0, 2.0, 2.0, 0.5, 3),
]


# the 576-member normalization grid: alpha, beta, gamma, c, d
_MASS_GRID = list(
    itertools.product(
        (0.3, 0.5, 1.0, 1.5), (1.0, 1.5, 2.0, 3.0), (0.5, 1.0, 2.5), (0.5, 1.0, 2.0),
        (1, 2, 3, 5),
    )
)


def _quad_masses(fams, t):
    """Masses of the members at time t from one vector quadrature.

    With r = R_j s, R_j the support radius, column j integrates
    R_j radial_pdf(fam_j, R_j s, t) over s in [0, 1], so every member
    shares one mesh and each column still meets its own tolerance.
    """
    radii = [support_radius(fam, t) for fam in fams]

    def columns(s):
        return np.stack([R * radial_pdf(fam, R * s, t) for fam, R in zip(fams, radii)], axis=1)

    return integrate(columns, 0.0, 1.0)


def _suite_normalization(report: SuiteReport):
    # t != 1 so that alpha enters through t^alpha; at t = 1 the four alpha
    # values give identical columns
    masses = _quad_masses([new_family(*m) for m in _MASS_GRID], 1.3)
    worst = float(np.max(np.abs(masses - 1.0)))
    report.add(
        "family-mass-grid",
        worst <= 1e-8,
        worst,
        1e-8,
        f"max |mass - 1| over {len(masses)} members at t = 1.3",
    )
    presets = [
        ("wigner", preset_mod.wigner_preset()),
        ("ple(p=3,d=1)", preset_mod.ple_preset(3.0, 1)[1]),
        ("npme(m=2,nu=2,d=1)", preset_mod.npme_preset(2.0, 2.0, 1)[1]),
        ("epd(nu=3,c=2,d=2)", preset_mod.epd_preset(3.0, 2.0, 2)),
        ("zkb(m=2,d=1)", preset_mod.zkb_source_preset(2.0, 1)),
    ]
    masses = _quad_masses([fam for _, fam in presets], 1.3)
    for (name, _), mass in zip(presets, masses):
        dev = abs(mass - 1.0)
        report.add(f"preset-mass-{name}", dev <= 1e-8, dev, 1e-8)
    worst = 0.0
    for member in _GRID_MEMBERS + _RADIAL_MEMBERS:
        fam = new_family(*member)
        base = fam_mod.radial_moment(fam, 2, 1.0)
        for t in (0.3, 1.0, 4.5):
            ratio = fam_mod.radial_moment(fam, 2, t) / t ** (2.0 * fam.alpha)
            worst = max(worst, abs(ratio / base - 1.0))
    report.add(
        "msd-scaling-exponent",
        worst <= 1e-12,
        worst,
        1e-12,
        "radial_moment(2,t)/t^(2 alpha) is t-independent",
    )


def _suite_representations(report: SuiteReport):
    worst = 0.0
    for member in _GRID_MEMBERS:
        fam = new_family(*member)
        for t in (0.4, 1.0, 2.7):
            xs = np.linspace(-0.98, 0.98, 20) * support_radius(fam, t)
            res = trans_mod.velocity_representation_residual(fam, xs, t)
            scale = np.maximum(pdf(fam, xs, t), 1e-3)
            worst = max(worst, float(np.max(np.abs(res) / scale)))
    report.add("velocity-representation-residual", worst <= 1e-12, worst, 1e-12)

    rows = []
    worst_corr = 0.0
    worst_stated = 0.0
    match = True
    for member in _RADIAL_MEMBERS[:3]:
        fam = new_family(*member)
        for t in (0.5, 1.0, 2.0):
            for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
                r = frac * support_radius(fam, t)
                stated, corrected = trans_mod.radial_prefactor_report(fam, r, t)
                rows.append((fam.d, fam.alpha, fam.beta_exp, fam.gamma_exp, fam.c, r, t,
                             stated, corrected))
                worst_corr = max(worst_corr, abs(corrected))
                worst_stated = max(worst_stated, abs(stated))
                match = match and abs(corrected) <= abs(stated)
    report.add(
        "radial-prefactor-adjudication",
        worst_corr <= 1e-10 and match,
        worst_corr,
        1e-10,
        f"corrected variant closes everywhere; stated variant deviates up to "
        f"{worst_stated:.3e} (relative residual equals r-1); matching variant: corrected",
    )
    report.artifacts["radial_prefactor.csv"] = (
        "d alpha beta gamma c r t residual_paper_form residual_corrected_form".split(),
        rows,
    )

    worst_power = 0.0
    worst_plain = 0.0
    for member in _GRID_MEMBERS:
        fam = new_family(*member)
        t = 1.1
        rt = fam.c * t**fam.alpha
        inv_b = 1.0 / fam.beta_exp
        xs = np.linspace(-0.9, 0.9, 7) * rt
        # F(x) = 1/2 + x * integral of pdf(x s) over s in [0, 1], all x at once
        oracle = 0.5 + integrate(lambda s: xs * pdf(fam, np.outer(s, xs), t), 0.0, 1.0)
        power = fam_mod.cdf_1d(fam, xs, t)
        z = np.minimum(np.abs(xs) / rt, 1.0)
        plain = 0.5 * (1.0 + np.sign(xs) * reg_inc_beta(z, inv_b, fam.gamma_exp + 1.0))
        worst_power = max(worst_power, float(np.max(np.abs(power - oracle))))
        worst_plain = max(worst_plain, float(np.max(np.abs(plain - oracle))))
    report.add(
        "cdf-argument-form-adjudication",
        worst_power <= 1e-9 and worst_plain > 1e-3,
        worst_power,
        1e-9,
        f"power-argument form matches the integral oracle to {worst_power:.3e}; "
        f"plain-argument form deviates by up to {worst_plain:.3e}; "
        "matching form: power",
    )

    worst = 0.0
    wig = preset_mod.wigner_preset()
    for q in (0.05, 0.3, 0.5, 0.77, 0.99):
        x = fam_mod.quantile_1d(wig, q, 1.7)
        worst = max(worst, abs(fam_mod.cdf_1d(wig, x, 1.7) - q))
    report.add("quantile-roundtrip", worst <= 1e-10, worst, 1e-10)


def _suite_transforms(report: SuiteReport):
    wig = preset_mod.wigner_preset()
    worst = 0.0
    s = np.linspace(0.1, 20.0, 23)
    want = bessel_j(1.0, 2.0 * s) / s
    for t in (0.5, 1.0, 2.0):
        got = trans_mod.char_fn_1d(wig, s / math.sqrt(t), t)
        worst = max(worst, float(np.max(np.abs(got - want))))
    report.add("charfn-semicircle-bessel", worst <= 1e-8, worst, 1e-8)

    worst = 0.0
    xi = np.array([0.5, 2.0, 6.0])
    for member in _RADIAL_MEMBERS[:3]:
        fam = new_family(*member)
        gap = trans_mod.char_fn_radial(fam, xi, 0.9) - trans_mod.char_fn_projection(fam, xi, 0.9)
        worst = max(worst, float(np.max(np.abs(gap))))
    report.add("charfn-radial-vs-projection", worst <= 1e-8, worst, 1e-8)

    worst = 0.0
    one = lambda s: np.ones_like(np.asarray(s, dtype=float))
    for zeta in (-0.9, -0.5, 0.0, 1.7):
        for mu in (0.1, 0.4, 1.0, 3.2):
            want = math.exp(math.lgamma(zeta + 1.0) - math.lgamma(zeta + mu + 1.0))
            for eta in (0.5, 2.0):
                got = trans_mod.ek_integral(
                    trans_mod.EKParams(zeta, mu, eta), one, 1.4
                )
                worst = max(worst, abs(got - want) / want)
    report.add("ek-constant-law", worst <= 1e-10, worst, 1e-10)

    # beta = 2: the first coordinate of the d-dimensional member is the d = 1
    # member with gamma + (d - 1)/2, so its transform needs no Bessel function
    worst = 0.0
    xi = np.array([0.5, 2.0, 6.0, 14.0, 30.0])
    for d in (18, 41, 200):
        radial = trans_mod.char_fn_radial(new_family(0.5, 2.0, 1.0, 1.0, d), xi, 1.0)
        marginal = new_family(0.5, 2.0, 1.0 + 0.5 * (d - 1), 1.0, 1)
        worst = max(worst, float(np.max(np.abs(radial - trans_mod.char_fn_1d(marginal, xi, 1.0)))))
    report.add("charfn-radial-marginal", worst <= 1e-11, worst, 1e-11)

    xi_param, cc, k, x0, t0 = 1.5, 1.0, 1.3, 0.4, 0.9
    f = lambda y: np.cos(k * np.asarray(y, dtype=float))

    u = lambda xx, tt: trans_mod.epd_dalembert_1d(f, xi_param, cc, xx, tt)
    damp = lambda tt: 2.0 * xi_param / tt
    speed2 = lambda tt: cc**2
    rs = [_second_order_residual(u, damp, speed2, 1, t0, h, x0) for h in (0.08, 0.04, 0.02)]
    order = _order_estimate(rs)
    report.add(
        "dalembert-fd-order",
        1.7 <= order <= 2.3,
        order,
        2.0,
        "damped-average solution of the singular wave equation",
    )


def _suite_presets(report: SuiteReport):
    worst = 0.0
    for p in (2.2, 2.5, 3.0, 4.0, 7.0):
        for d in (1, 2, 3):
            raw, fam = preset_mod.ple_preset(p, d)
            worst = max(
                worst, abs(raw.frak_c**fam.gamma_exp - fam.norm_c) / fam.norm_c
            )
    report.add("ple-amplitude-roundtrip", worst <= 1e-12, worst, 1e-12)

    worst = 0.0
    for m in (1.5, 2.0, 3.0):
        for nu in (0.5, 1.0, 1.5, 2.0):
            for d in (1, 2, 3):
                raw, fam = preset_mod.npme_preset(m, nu, d)
                worst = max(worst, abs(raw.C_const - fam.norm_c) / fam.norm_c)
    report.add("npme-displayed-constant", worst <= 1e-12, worst, 1e-12)

    raw, fam = preset_mod.npme_preset(2.0, 2.0, 1)
    # the k^(-2/nu) reading at nu = 2
    alt = new_family(fam.alpha, 2.0, fam.gamma_exp, raw.k_const ** (-2.0 / 2.0), 1)
    mass_main = float(_quad_masses([fam], 1.0)[0])
    mass_alt = raw.C_const / alt.norm_c
    report.add(
        "npme-front-scale-adjudication",
        abs(mass_main - 1.0) <= 1e-8 and abs(mass_alt - 1.0) > 0.1,
        mass_alt,
        1.0,
        f"front scale k^(-1/nu) integrates to {mass_main:.12f}; the k^(-2/nu) "
        f"reading integrates to {mass_alt:.6f}; matching scale: k^(-1/nu)",
    )

    worst = 0.0
    for nu in (1.5, 2.0, 3.0, 4.5):
        for d in (1, 2, 3):
            fam = preset_mod.epd_preset(nu, 1.3, d)
            closed = math.exp(
                math.lgamma(nu + 0.5 * d)
                - 0.5 * d * math.log(math.pi)
                - math.lgamma(nu)
                - d * math.log(1.3)
            )
            worst = max(worst, abs(closed - fam.norm_c) / fam.norm_c)
    report.add("epd-constant-identity", worst <= 1e-12, worst, 1e-12)

    wig = preset_mod.wigner_preset()
    worst = 0.0
    powers = 2 * np.arange(6)
    for t in (0.5, 1.0, 2.0):
        r = support_radius(wig, t)
        moms = integrate(lambda x: x[:, None] ** powers * pdf(wig, x, t)[:, None], -r, r)
        for m, mom in enumerate(moms):
            want = preset_mod.catalan(m) * t**m
            worst = max(worst, abs(mom - want) / max(want, 1e-10))
    report.add("wigner-catalan-moments", worst <= 1e-8, worst, 1e-8)

    fp = preset_mod.fractional_preset(0.2)
    refl = math.sin(0.2 * math.pi) / (2.0 * math.sin(0.4 * math.pi))
    dev = abs(fp.C1 - refl) / refl
    report.add("fractional-c1-reflection", dev <= 1e-12, dev, 1e-12)
    flip = preset_mod.fractional_preset(0.3)
    report.add(
        "fractional-sign-flip",
        flip.C1 < 0.0 and flip.C2 < 0.0 and fp.C1 > 0.0 and fp.C2 > 0.0,
        flip.C1,
        0.0,
        "constants positive below 1/4, negative on (1/4, 1/3)",
    )
    try:
        preset_mod.fractional_preset(0.25)
        rejected = False
    except ValueError:
        rejected = True
    report.add("fractional-pole-rejected", rejected, 0.25, 0.25)

    worst = 0.0
    for m in (1.5, 2.0, 3.0):
        for d in (1, 2, 3):
            fam = preset_mod.zkb_source_preset(m, d)
            worst = max(
                worst,
                abs(fam.norm_c ** (m - 1.0) - 0.5 * fam.alpha * fam.c**2)
                / (0.5 * fam.alpha * fam.c**2),
            )
    report.add("zkb-amplitude-condition", worst <= 1e-13, worst, 1e-13)


def _suite_fractional(report: SuiteReport):
    worst = 0.0
    for beta_exp in (-0.5, 0.0, 1.0, 2.7):
        for nu in (0.25, 0.5, 0.9):
            for t in (0.4, 1.0, 3.0):
                z = 1.0 + beta_exp - nu
                if z <= 1e-9 and abs(z - round(z)) <= 1e-9:
                    continue
                got = frac_mod.rl_power_rule(beta_exp, nu, t) * math.gamma(
                    z
                ) / math.gamma(1.0 + beta_exp)
                worst = max(worst, abs(got - t ** (beta_exp - nu)))
    report.add("rl-power-rule-roundtrip", worst <= 1e-13, worst, 1e-13)

    worst_dev = 0.0
    for nu in (0.3, 0.5, 0.7):
        errs = []
        for n in (64, 128, 256, 512):
            got = frac_mod.rl_derivative_numeric(lambda s: np.asarray(s) ** 2, nu, 1.0, n)
            errs.append(abs(got - frac_mod.rl_power_rule(2.0, nu, 1.0)))
        order = _order_estimate(errs)
        worst_dev = max(worst_dev, abs(order - (2.0 - nu)))
    report.add(
        "rl-l1-scheme-order",
        worst_dev <= 0.3,
        worst_dev,
        0.3,
        "empirical order vs nominal 2 - nu",
    )

    rows = []
    worst = 0.0
    for nu in (0.1, 0.2, 0.3):
        fp = preset_mod.fractional_preset(nu)
        half = math.sqrt(fp.C1 / fp.C2)
        for frac in (0.0, 0.3, 0.7, 0.95):
            for t in (0.5, 1.0, 2.0):
                x = frac * half * t**nu
                r = frac_mod.fbe_residual(fp, x, t)
                rows.append((nu, x, t, r))
                worst = max(worst, abs(r))
    report.add("fbe-interior-residual", worst <= 1e-12, worst, 1e-12)
    report.artifacts["fbe_residual_grid.csv"] = (["nu", "x", "t", "residual"], rows)

    try:
        preset_mod.fractional_preset(0.25)
        rejected = False
    except ValueError:
        rejected = True
    report.add("fbe-excluded-order", rejected, 0.25, 0.25)


def _suite_pde(report: SuiteReport, h_levels: int):
    def order(name, rep, detail=""):
        report.add(name, 1.7 <= rep.order <= 2.3, rep.order, 2.0, detail)

    def control(name, rep, detail):
        last = rep.max_residuals[-1]
        report.add(name, last > 1e-3, last, 1e-3, detail)

    for m in (2.0, 3.0):
        for d in (1, 2, 3):
            rep = pme_residual(m, d, t=1.0, h=0.02, levels=h_levels)
            order(f"pme-order-m{m:g}-d{d}", rep, rep.notes)
    lit, _ = _mapped_member_residuals(2.0, 1, 1.0, _dyadic_h(0.02, h_levels)[-1], 0.8)
    report.add(
        "pme-mapped-member-defect",
        lit > 1e-2,
        lit,
        1e-2,
        "normalized nonlocal nu=2 member leaves an O(1) residual "
        "(amplitude condition fails); recorded, not patched",
    )
    for d in (1, 3):
        rep = epd_residual(3.0, 2.0 if d == 3 else 1.0, d, t=1.0, h=0.02, levels=h_levels)
        order(f"epd-order-nu3-d{d}", rep)
    for alpha in (1.0 / 3.0, 0.5, 1.0):
        v = 1.5 if alpha == 1.0 else 1.0
        rep = epd_type_wave_residual(alpha, v, h=0.02, levels=h_levels)
        order(f"wave-order-alpha{alpha:.3g}", rep, f"v = {v}")
    rep = epd_type_wave_residual(1.0, 1.0, h=0.02, levels=h_levels)
    floor = max(rep.max_residuals)
    report.add(
        "wave-classical-machine-zero",
        floor <= 1e-10,
        floor,
        1e-10,
        "alpha = 1, v = 1: truncation terms cancel exactly",
    )
    control(
        "negative-control-pme",
        pme_residual(2.0, 1, t=1.0, h=0.02, gamma_scale=1.1),
        "perturbed profile exponent must not satisfy the flow",
    )
    control(
        "negative-control-epd",
        epd_residual(3.0, 1.0, 1, t=1.0, h=0.02, alpha_shift=0.15),
        "perturbed similarity exponent must not solve the equation",
    )
    control(
        "negative-control-wave",
        epd_type_wave_residual(0.5, 1.0, h=0.02, profile_exponent_scale=0.5),
        "profile exponent alpha/2 must not solve the alpha equation",
    )


def _telegraph_checks(report: SuiteReport, seed: int, n_ks: int):
    """The telegraph draws against the exact law of U_0, and coupled
    paths across eps against their pathwise bound."""
    # U_0 has the law F of member (1, 2, xi - 1, c, 1), and coupled paths
    # (smaller eps extends the same flips) keep |U_eps - U_0| <= c eps, so
    # F(x - c eps) <= F_eps(x) <= F(x + c eps): D_n of U_eps against F may
    # pass the critical value by sup f * c eps = f(0) eps (c = t = 1).
    xi_t = 2.0
    fam_t = new_family(1.0, 2.0, xi_t - 1.0, 1.0, 1)
    eps_levels = (1e-3, 1e-4, 1e-6)
    teles = [
        samp_mod.sample_epd_telegraph(RngStream(seed, 530), xi_t, 1.0, 1.0, eps, n_ks)
        for eps in eps_levels
    ]
    laws = [
        samp_mod.ks_test(tele, lambda x: fam_mod.cdf_1d(fam_t, x, 1.0), alpha=0.01)
        for tele in teles
    ]
    sup_f = float(pdf(fam_t, 0.0, 1.0))
    excess = max(law.statistic - sup_f * eps for law, eps in zip(laws, eps_levels))
    crit = laws[0].critical_value
    report.add(
        "telegraph-exact-law",
        excess <= crit,
        excess,
        crit,
        "D_n " + ", ".join(f"{law.statistic:.6f}" for law in laws)
        + f" at eps = 1e-3, 1e-4, 1e-6, less {sup_f:g} eps; n = {n_ks}",
    )
    # Coupled paths differ only by the signed time spent in [eps', eps],
    # so |U_eps - U_eps'| <= c |eps - eps'| (c = 1 here), attained by a
    # path without events there; the margin covers rounding of sums of
    # order c t.  A path from another stream misses by O(c).
    ratio = max(
        float(np.max(np.abs(ua - ub))) / abs(ea - eb)
        for (ua, ea), (ub, eb) in itertools.combinations(zip(teles, eps_levels), 2)
    )
    report.add(
        "telegraph-eps-pathwise",
        ratio <= 1.0 + 1e-9,
        ratio,
        1.0 + 1e-9,
        f"max |U_eps - U_eps'| / (c |eps - eps'|) over the 3 eps pairs, n = {n_ks}",
    )


def _suite_sampling(report: SuiteReport, threads: int, seed: int):
    n_ks = 100_000
    # (stream ids are fixed per check so every run draws identical bytes)
    worst = 0.0
    for i, member in enumerate(_GRID_MEMBERS):
        fam = new_family(*member)
        rng = RngStream(seed, 100 + i)
        xs = samp_mod.sample_position_1d(rng, fam, 1.3, n_ks)
        res = samp_mod.ks_test(xs, lambda x: fam_mod.cdf_1d(fam, x, 1.3), alpha=0.01)
        worst = max(worst, res.statistic)
    report.add(
        "ks-position-1d",
        worst <= res.critical_value,
        worst,
        res.critical_value,
        f"5 members, n = {n_ks}",
    )

    worst = 0.0
    for i, member in enumerate(_RADIAL_MEMBERS):
        fam = new_family(*member)
        rng = RngStream(seed, 200 + i)
        pts = samp_mod.sample_position(rng, fam, 0.8, n_ks)
        radii = np.linalg.norm(pts, axis=1)
        res = samp_mod.ks_test(
            radii, lambda a: fam_mod.ball_probability(fam, a, 0.8), alpha=0.01
        )
        worst = max(worst, res.statistic)
    report.add(
        "ks-radius",
        worst <= res.critical_value,
        worst,
        res.critical_value,
        f"5 members, n = {n_ks}",
    )

    n_msd = 1_000_000
    worst = 0.0
    for d, member in [(1, _GRID_MEMBERS[1]), (2, _RADIAL_MEMBERS[0]), (3, _RADIAL_MEMBERS[1])]:
        fam = new_family(*member)
        draw = lambda rng, n, f=fam: samp_mod.sample_position(rng, f, 1.0, n)
        pts = samp_mod.parallel_draw(seed, 300 + d, n_msd, draw, threads=threads)
        msd = float(np.mean(np.sum(np.atleast_2d(pts.reshape(n_msd, -1)) ** 2, axis=1)))
        want = fam_mod.radial_moment(fam, 2, 1.0)
        worst = max(worst, abs(msd / want - 1.0))
    report.add(
        "mc-msd",
        worst <= 0.01,
        worst,
        0.01,
        f"n = {n_msd}, relative error vs closed form",
    )

    wig = preset_mod.wigner_preset()
    rng = RngStream(seed, 400)
    xs = samp_mod.sample_position_1d(rng, wig, 1.0, n_msd)
    xis = (0.8, 3.0)
    for xi, want in zip(xis, trans_mod.char_fn_1d(wig, np.array(xis), 1.0).tolist()):
        vals = np.cos(xi * xs)
        mc = float(np.mean(vals))
        se = float(np.std(vals) / math.sqrt(n_msd))
        report.add(
            f"mc-charfn-xi{xi:g}",
            abs(mc - want) <= 3.0 * se,
            abs(mc - want),
            3.0 * se,
            f"Monte Carlo vs quadrature, n = {n_msd}",
        )

    _telegraph_checks(report, seed, n_ks)

    rng_a = RngStream(seed, 600)
    rng_b = RngStream(seed, 600)
    xa = samp_mod.sample_position_1d(rng_a, wig, 1.0, 5000)
    xb = samp_mod.sample_position_1d(rng_b, wig, 1.0, 5000)
    same = bool(np.array_equal(xa, xb))
    draw = lambda rng, n: samp_mod.sample_position_1d(rng, wig, 1.0, n)
    p1 = samp_mod.parallel_draw(seed, 601, 200_000, draw, threads=1)
    p4 = samp_mod.parallel_draw(seed, 601, 200_000, draw, threads=4)
    same_threads = bool(np.array_equal(p1, p4))
    report.add(
        "determinism",
        same and same_threads,
        float(same and same_threads),
        1.0,
        "identical (seed, stream) reruns and thread counts produce identical bytes",
    )


def _write_reports(report: SuiteReport, out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    tables = {f"{report.suite}.csv": report.table(), **report.artifacts}
    for name, (header, rows) in tables.items():
        write_table(os.path.join(out_dir, name), header, rows)
    with open(os.path.join(out_dir, report.suite + ".json"), "w") as fh:
        json.dump(
            {
                "suite": report.suite,
                "seed": report.seed,
                "passed": report.passed,
                "checks": [asdict(c) for c in report.checks],
            },
            fh,
            indent=2,
        )
        fh.write("\n")


# name -> (suite function, the run_suite options it reads)
_SUITES = {
    "normalization": (_suite_normalization, ()),
    "representations": (_suite_representations, ()),
    "transforms": (_suite_transforms, ()),
    "presets": (_suite_presets, ()),
    "fractional": (_suite_fractional, ()),
    "pde": (_suite_pde, ("h_levels",)),
    "sampling": (_suite_sampling, ("threads", "seed")),
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(
    name: str,
    seed: int = DEFAULT_SEED,
    out_dir: str | None = None,
    threads: int = 1,
    h_levels: int = 3,
) -> SuiteReport:
    """Run one named verification suite and optionally write its reports.

    Suites: normalization, representations, transforms, presets,
    fractional, pde, sampling.  Deterministic given (name, seed); seed
    keys the draws of the sampling suite (the others draw nothing and
    only record it), threads only affects internal work splitting of its
    large Monte Carlo draws, and h_levels sets the dyadic refinement
    depth of the pde suite.
    """
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    report = SuiteReport(suite=name, seed=_count("seed", seed))
    suite, wanted = _SUITES[name]
    options = {
        "threads": _count("threads", threads, least=1),
        "h_levels": _count("h_levels", h_levels, least=3),
        "seed": report.seed,
    }
    suite(report, **{k: options[k] for k in wanted})
    if out_dir is not None:
        _write_reports(report, out_dir)
    return report
