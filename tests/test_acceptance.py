"""Acceptance gate: one test per shipped claim, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass/fail
lines.  Tolerances are pinned here and never loosened to make a test
pass; the sampling-based criteria draw from fixed Philox streams through
the verification suite so every rerun sees identical bytes.
"""

import math
import time

import numpy as np
import pytest

from barenblatt import family as fam_mod
from barenblatt import fractional as frac_mod
from barenblatt import presets as preset_mod
from barenblatt import sampling as samp_mod
from barenblatt import transforms as trans_mod
from barenblatt.family import new_family, pdf, radial_pdf, support_radius
from barenblatt.sampling import RngStream
from barenblatt.specfun import bessel_j, integrate
from barenblatt.verify import (
    DEFAULT_SEED,
    SuiteReport,
    _telegraph_checks,
    epd_residual,
    epd_type_wave_residual,
    pme_residual,
    run_suite,
)

_MEMBERS_1D = [
    (0.5, 2.0, 0.5, 2.0, 1),
    (0.7, 2.5, 0.8, 1.5, 1),
    (1.0, 1.5, 2.0, 0.7, 1),
    (0.3, 3.0, 1.0, 1.0, 1),
    (0.5, 2.0, 2.5, 1.0, 1),
]


def _record(slug: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {slug}" + (f": {detail}" if detail else "")
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def sampling_report():
    return run_suite("sampling", threads=4)


def _suite_check(report, name):
    return next(c for c in report.checks if c.name == name)


def test_mass_normalization_grid():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in (0.3, 0.5, 1.0, 1.5):
        for beta_exp in (1.0, 1.5, 2.0, 3.0):
            for gamma_exp in (0.5, 1.0, 2.5):
                for c in (0.5, 1.0, 2.0):
                    for d in (1, 2, 3, 5):
                        fam = new_family(alpha, beta_exp, gamma_exp, c, d)
                        mass = integrate(
                            lambda r: radial_pdf(fam, r, 1.0),
                            0.0,
                            support_radius(fam, 1.0),
                        )
                        worst = max(worst, abs(mass - 1.0))
    elapsed = time.perf_counter() - t0
    _record(
        "mass-normalization-grid",
        worst <= 1e-8 and elapsed < 30.0,
        f"max |mass - 1| = {worst:.3e} over 576 members in {elapsed:.1f}s",
    )


def test_epd_constant_identity():
    worst = 0.0
    for nu in (1.5, 2.0, 3.0, 4.5):
        for d in (1, 2, 3):
            for c in (0.5, 1.0, 2.0):
                fam = preset_mod.epd_preset(nu, c, d)
                closed = math.exp(
                    math.lgamma(nu + 0.5 * d)
                    - 0.5 * d * math.log(math.pi)
                    - math.lgamma(nu)
                    - d * math.log(c)
                )
                worst = max(worst, abs(closed - fam.norm_c) / fam.norm_c)
    _record(
        "epd-constant-identity",
        worst <= 1e-12,
        f"max relative deviation {worst:.3e}",
    )


def test_wigner_suite():
    wig = preset_mod.wigner_preset()
    peak = float(pdf(wig, 0.0, 1.0))
    ok_peak = abs(peak - 1.0 / math.pi) <= 1e-14
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        r = support_radius(wig, t)
        for m in range(6):
            mom = integrate(lambda x: x ** (2 * m) * pdf(wig, x, t), -r, r)
            want = preset_mod.catalan(m) * t**m
            worst = max(worst, abs(mom - want) / max(want, 1e-10))
    worst_msd = max(
        abs(fam_mod.radial_moment(wig, 2, t) / t - 1.0) for t in (0.5, 1.0, 2.0, 7.3)
    )
    _record(
        "wigner-suite",
        ok_peak and worst <= 1e-8 and worst_msd <= 1e-13,
        f"peak dev {abs(peak - 1.0 / math.pi):.1e}, moment dev {worst:.1e}, "
        f"msd dev {worst_msd:.1e}",
    )


def test_msd_scaling(sampling_report):
    worst = 0.0
    for member in _MEMBERS_1D + [(0.5, 2.0, 1.0, 1.5, 2), (0.4, 1.5, 1.2, 1.3, 3)]:
        fam = new_family(*member)
        base = fam_mod.radial_moment(fam, 2, 1.0)
        for t in (0.3, 1.0, 4.5):
            ratio = fam_mod.radial_moment(fam, 2, t) / t ** (2.0 * fam.alpha)
            worst = max(worst, abs(ratio / base - 1.0))
    mc = _suite_check(sampling_report, "mc-msd")
    _record(
        "msd-scaling",
        worst <= 1e-12 and mc.passed and mc.tolerance == 0.01,
        f"closed-form spread {worst:.3e}, Monte Carlo error {mc.value:.3e} "
        f"(n = 1e6, d = 1, 2, 3)",
    )


def test_sampler_fidelity(sampling_report):
    pos = _suite_check(sampling_report, "ks-position-1d")
    rad = _suite_check(sampling_report, "ks-radius")
    n = 100_000
    crit = 1.6277 / math.sqrt(n)
    # the suite's internal critical value (exact Kolmogorov inverse) is a
    # hair tighter than the quoted 1.6277/sqrt(n), so passing it suffices
    ok = pos.passed and rad.passed and pos.value <= crit and rad.value <= crit
    _record(
        "sampler-fidelity",
        ok,
        f"KS {pos.value:.4f} (1d), {rad.value:.4f} (radius) vs critical {crit:.4f}, "
        "5 parameter sets each",
    )


def test_velocity_identity_residual():
    worst = 0.0
    for member in _MEMBERS_1D:
        fam = new_family(*member)
        for t in (0.4, 0.8, 1.0, 1.9, 3.1):
            xs = np.linspace(-0.98, 0.98, 20) * support_radius(fam, t)
            res = trans_mod.velocity_representation_residual(fam, xs, t)
            scale = np.maximum(pdf(fam, xs, t), 1e-3)
            worst = max(worst, float(np.max(np.abs(res) / scale)))
    _record(
        "velocity-identity-residual",
        worst <= 1e-12,
        f"max relative residual {worst:.3e} on 20 x 5 interior grids, 5 members",
    )


def test_radial_prefactor_adjudication():
    worst_best = 0.0
    variants = set()
    for d, member in [(2, (0.5, 2.0, 1.0, 1.5, 2)), (3, (0.4, 1.5, 1.2, 1.3, 3)), (4, (0.5, 2.0, 1.5, 1.0, 4))]:
        fam = new_family(*member)
        for t in (0.5, 1.0, 2.0):
            for frac in (0.1, 0.3, 0.5, 0.7, 0.9):
                stated, corrected = trans_mod.radial_prefactor_report(
                    fam, frac * support_radius(fam, t), t
                )
                worst_best = max(worst_best, min(abs(stated), abs(corrected)))
                variants.add("corrected" if abs(corrected) <= abs(stated) else "stated")
    _record(
        "radial-prefactor-adjudication",
        worst_best <= 1e-10 and variants == {"corrected"},
        f"best-variant residual {worst_best:.3e}; matching variant recorded: "
        f"{sorted(variants)}",
    )


def test_characteristic_function_consistency(sampling_report):
    wig = preset_mod.wigner_preset()
    worst_b = 0.0
    for s in np.linspace(0.1, 20.0, 23):
        for t in (0.5, 1.0, 2.0):
            xi = s / math.sqrt(t)
            want = float(bessel_j(1.0, 2.0 * s)) / s
            worst_b = max(worst_b, abs(trans_mod.char_fn_1d(wig, xi, t) - want))
    worst_p = 0.0
    for member in [(0.5, 2.0, 1.0, 1.5, 2), (0.4, 1.5, 1.2, 1.3, 3), (0.5, 2.0, 1.5, 1.0, 4)]:
        fam = new_family(*member)
        for xi in (0.5, 2.0, 6.0):
            worst_p = max(
                worst_p,
                abs(
                    trans_mod.char_fn_radial(fam, xi, 0.9)
                    - trans_mod.char_fn_projection(fam, xi, 0.9)
                ),
            )
    mc1 = _suite_check(sampling_report, "mc-charfn-xi0.8")
    mc2 = _suite_check(sampling_report, "mc-charfn-xi3")
    _record(
        "characteristic-function-consistency",
        worst_b <= 1e-8 and worst_p <= 1e-8 and mc1.passed and mc2.passed,
        f"Bessel dev {worst_b:.1e}, projection dev {worst_p:.1e}, "
        f"MC within 3 sigma at n = 1e6",
    )


def test_ek_integral_laws():
    worst_c = 0.0
    one = lambda s: np.ones_like(np.asarray(s, dtype=float))
    for zeta in (-0.9, -0.5, 0.0, 1.7):
        for mu in (0.1, 0.4, 1.0, 3.2):
            want = math.exp(math.lgamma(zeta + 1.0) - math.lgamma(zeta + mu + 1.0))
            for eta in (0.5, 2.0):
                got = trans_mod.ek_integral(trans_mod.EKParams(zeta, mu, eta), one, 1.4)
                worst_c = max(worst_c, abs(got - want) / want)
    worst_k = 0.0
    for member in _MEMBERS_1D:
        fam = new_family(*member)
        ek = trans_mod.EKParams(
            1.0 / fam.beta_exp - 1.0, fam.gamma_exp + 1.0, fam.beta_exp
        )
        scale = math.exp(
            math.lgamma(1.0 / fam.beta_exp + fam.gamma_exp + 1.0)
            - math.lgamma(1.0 / fam.beta_exp)
        )
        for xi, t in [(0.7, 0.6), (2.5, 1.4), (5.0, 1.0)]:
            raw = trans_mod.ek_integral(
                ek, lambda u: np.cos(xi * np.asarray(u) * t**fam.alpha), fam.c
            )
            worst_k = max(worst_k, abs(scale * raw - trans_mod.char_fn_1d(fam, xi, t)))
    _record(
        "ek-integral-laws",
        worst_c <= 1e-10 and worst_k <= 1e-8,
        f"constant law dev {worst_c:.1e}, cosine identity dev {worst_k:.1e}",
    )


def test_dalembert_representation_order():
    xi, cc, k, x0, t0 = 1.5, 1.0, 1.3, 0.4, 0.9
    f = lambda y: np.cos(k * np.asarray(y, dtype=float))

    def res(h):
        u = lambda xx, tt: trans_mod.epd_dalembert_1d(f, xi, cc, xx, tt)
        u0 = u(x0, t0)
        u_tt = (u(x0, t0 + h) - 2.0 * u0 + u(x0, t0 - h)) / h**2
        u_t = (u(x0, t0 + h) - u(x0, t0 - h)) / (2.0 * h)
        u_xx = (u(x0 + h, t0) - 2.0 * u0 + u(x0 - h, t0)) / h**2
        return abs(u_tt + 2.0 * xi / t0 * u_t - cc**2 * u_xx)

    rs = [res(h) for h in (0.08, 0.04, 0.02)]
    order = float(np.mean([math.log2(rs[i] / rs[i + 1]) for i in range(2)]))
    _record(
        "dalembert-representation-order",
        1.7 <= order <= 2.3,
        f"empirical order {order:.3f}",
    )


def test_pde_residual_suites():
    orders = []
    for m in (2.0, 3.0):
        for d in (1, 2, 3):
            orders.append((f"pme m={m:g} d={d}", pme_residual(m, d, t=1.0, h=0.02).order))
    for d in (1, 3):
        orders.append((f"epd nu=3 d={d}", epd_residual(3.0, 1.0, d, t=1.0, h=0.02).order))
    for alpha in (1.0 / 3.0, 0.5, 1.0):
        v = 1.5 if alpha == 1.0 else 1.0
        orders.append(
            (
                f"wave alpha={alpha:.3g}",
                epd_type_wave_residual(alpha, v, h=0.02).order,
            )
        )
    ok = all(1.7 <= o <= 2.3 for _, o in orders)
    c_pme = pme_residual(2.0, 1, t=1.0, h=0.02, gamma_scale=1.1)
    c_epd = epd_residual(3.0, 1.0, 1, t=1.0, h=0.02, alpha_shift=0.15)
    c_wave = epd_type_wave_residual(0.5, 1.0, h=0.02, profile_exponent_scale=0.5)
    controls_fail = (
        c_pme.max_residuals[-1] > 1e-3
        and c_epd.max_residuals[-1] > 1e-3
        and c_wave.max_residuals[-1] > 1e-3
    )
    _record(
        "pde-residual-suites",
        ok and controls_fail,
        f"orders {', '.join(f'{o:.2f}' for _, o in orders)}; negative controls "
        "plateau as required",
    )


def test_fractional_suite():
    worst_rt = 0.0
    for beta_exp in (-0.5, 0.0, 1.0, 2.7):
        for nu in (0.25, 0.5, 0.9):
            z = 1.0 + beta_exp - nu
            if z <= 1e-9 and abs(z - round(z)) <= 1e-9:
                continue
            for t in (0.4, 1.0, 3.0):
                got = frac_mod.rl_power_rule(beta_exp, nu, t) * math.gamma(
                    z
                ) / math.gamma(1.0 + beta_exp)
                worst_rt = max(worst_rt, abs(got - t ** (beta_exp - nu)))
    worst_f = 0.0
    for nu in (0.1, 0.2, 0.3):
        fp = preset_mod.fractional_preset(nu)
        half = math.sqrt(fp.C1 / fp.C2)
        for frac in (0.0, 0.3, 0.7, 0.95):
            for t in (0.5, 1.0, 2.0):
                worst_f = max(
                    worst_f, abs(frac_mod.fbe_residual(fp, frac * half * t**nu, t))
                )
    try:
        preset_mod.fractional_preset(0.25)
        rejected = False
    except ValueError:
        rejected = True
    c1 = preset_mod.fractional_preset(0.2).C1
    refl = math.sin(0.2 * math.pi) / (2.0 * math.sin(0.4 * math.pi))
    ok_c1 = abs(c1 - refl) / refl <= 1e-12
    _record(
        "fractional-suite",
        worst_rt <= 1e-13 and worst_f <= 1e-12 and rejected and ok_c1,
        f"round-trip dev {worst_rt:.1e}, interior residual {worst_f:.1e}, "
        "excluded order rejected, reflection constant matches",
    )


def test_telegraph_representation(sampling_report):
    law = _suite_check(sampling_report, "telegraph-exact-law")
    path = _suite_check(sampling_report, "telegraph-eps-pathwise")
    _record(
        "telegraph-representation",
        law.passed and path.passed,
        f"{law.detail}; worst {law.value:.6f} of {law.tolerance:.6f}; "
        f"pathwise gap {path.value:.6f} of c |eps - eps'|",
    )


def test_telegraph_exact_law_rejects_wrong_xi(monkeypatch):
    # a sampler drawing at xi + 0.1 keeps its paths coupled across eps, so
    # only the check against the exact law can see the wrong parameter
    right = samp_mod.sample_epd_telegraph
    monkeypatch.setattr(
        samp_mod,
        "sample_epd_telegraph",
        lambda rng, xi, c, t, eps, size=None: right(rng, xi + 0.1, c, t, eps, size),
    )
    report = SuiteReport("sampling", DEFAULT_SEED)
    _telegraph_checks(report, DEFAULT_SEED, 100_000)
    law = _suite_check(report, "telegraph-exact-law")
    path = _suite_check(report, "telegraph-eps-pathwise")
    _record(
        "telegraph-law-power",
        not law.passed and path.passed,
        f"sampler at xi = 2.1: worst {law.value:.6f} against {law.tolerance:.6f}; "
        "pathwise bound still holds",
    )


def test_sampling_determinism(sampling_report):
    det = _suite_check(sampling_report, "determinism")
    wig = preset_mod.wigner_preset()
    a = samp_mod.sample_position_1d(RngStream(20260816, 9), wig, 1.0, 4000)
    b = samp_mod.sample_position_1d(RngStream(20260816, 9), wig, 1.0, 4000)
    ta = samp_mod.sample_epd_telegraph(RngStream(20260816, 10), 2.0, 1.0, 1.0, 1e-5, 500)
    tb = samp_mod.sample_epd_telegraph(RngStream(20260816, 10), 2.0, 1.0, 1.0, 1e-5, 500)
    fresh = bool(np.array_equal(a, b)) and bool(np.array_equal(ta, tb))
    _record(
        "sampling-determinism",
        det.passed and fresh,
        "fixed (seed, stream) reruns byte-identical; thread count does not "
        "change bytes",
    )
