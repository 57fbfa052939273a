"""Tests for characteristic functions, Erdelyi-Kober integrals, the damped
d'Alembert average, and the density-representation residual checks."""

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barenblatt import transforms
from barenblatt.family import new_family, pdf, support_radius
from barenblatt.specfun import bessel_j
from scipy import special
from barenblatt.transforms import (
    EKParams,
    char_fn_1d,
    char_fn_projection,
    char_fn_radial,
    ek_integral,
    epd_dalembert_1d,
    radial_prefactor_report,
    velocity_representation_residual,
    _bessel_kernel,
    _beta_mean,
    _mean_cos_projection,
)

# Reference values computed with mpmath at 34 significant digits.
WIGNER_CF = {
    0.5: 0.8801011714898670319194,
    3.0: -0.09222795270918853605759,
    10.0: 0.006683312417585004557899,
}
# alpha=0.7, beta=2.5, gamma=0.8, c=1.5 at xi=3.1, t=1.2
CF1D_GENERIC = -0.1228628156137441873026
# alpha=0.4, beta=1.5, gamma=1.2, c=1.3, d=3 at |xi|=2.5, t=0.8
CF_RADIAL_D3 = 0.5421235467022284921519
# alpha=0.5, beta=2.0, gamma=1.5, c=1.0, d=2 at |xi|=4.0, t=1.0
CF_RADIAL_D2 = 0.2590159554106407750515
# Gamma(1/beta+gamma+1)/Gamma(1/beta) * EK[cos(xi v t^alpha)](c) for the
# semicircle member at t=1.3, xi=1.7
EK_COSINE_WIGNER = -0.009270679569526199663456


def wigner():
    return new_family(0.5, 2.0, 0.5, 2.0, 1)


MEMBERS_1D = [
    (0.5, 2.0, 0.5, 2.0),
    (0.7, 2.5, 0.8, 1.5),
    (1.0, 1.5, 2.0, 0.7),
    (0.3, 3.0, 1.0, 1.0),
]


def one(s):
    return np.ones_like(np.asarray(s, dtype=float))


def beta_moment(a, b, k):
    # E[U^k] = B(a+k, b)/B(a, b) for U ~ Beta(a, b)
    return math.exp(math.lgamma(a + k) + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(a + b + k))


class TestBetaMean:
    def test_moments_all_end_exponents(self):
        # E[1] = 1 and E[U^k] = B(a+k, b)/B(a, b) through every combination
        # of singular (< 1) and regular end exponents, including the grid
        # (-0.9, -0.3, 0, 1.7) x (-0.7, -0.5, 0, 2.4) of a - 1 and b - 1
        shapes = set(itertools.product((0.1, 0.5, 1.0, 2.7), repeat=2))
        shapes |= set(itertools.product((0.1, 0.7, 1.0, 2.7), (0.3, 0.5, 1.0, 3.4)))
        for a, b in sorted(shapes):
            assert _beta_mean(one, a, b) == pytest.approx(1.0, rel=1e-12)
            for k in (1.0, 2.5):
                assert _beta_mean(lambda u: u**k, a, b) == pytest.approx(beta_moment(a, b, k), rel=1e-12)

    def test_columns_equal_separate_calls(self):
        ks = np.array([0.5, 7.0, 19.0])
        for a, b in [(0.5, 2.5), (1.3, 0.4)]:
            got = _beta_mean(lambda s: np.cos(np.multiply.outer(s, ks)), a, b)
            assert got.shape == (3,)
            for k, val in zip(ks, got):
                alone = _beta_mean(lambda s: np.cos(k * s), a, b)
                assert val == pytest.approx(alone, abs=1e-12)

    def test_rejects_non_positive_parameters(self):
        for a, b in [(0.0, 1.0), (1.0, -0.2), (-1.0, 1.0), (math.nan, 1.0)]:
            with pytest.raises(ValueError):
                _beta_mean(one, a, b)


class TestCharFn1d:
    def test_semicircle_frozen_values(self):
        p = wigner()
        for xi, want in WIGNER_CF.items():
            assert char_fn_1d(p, xi, 1.0) == pytest.approx(want, abs=1e-11)

    def test_semicircle_bessel_closed_form(self):
        # the semicircle member transforms to J_1(2 xi sqrt(t))/(xi sqrt(t))
        p = wigner()
        for s in np.linspace(0.1, 20.0, 23):
            for t in (0.5, 1.0, 2.0):
                xi = s / math.sqrt(t)
                want = bessel_j(1.0, 2.0 * s) / s
                assert abs(char_fn_1d(p, xi, t) - want) <= 1e-8

    def test_generic_frozen_value(self):
        p = new_family(0.7, 2.5, 0.8, 1.5, 1)
        assert char_fn_1d(p, 3.1, 1.2) == pytest.approx(CF1D_GENERIC, abs=1e-11)

    def test_zero_frequency_is_exactly_one(self):
        assert char_fn_1d(wigner(), 0.0, 0.37) == 1.0

    def test_even_in_xi(self):
        p = new_family(0.7, 2.5, 0.8, 1.5, 1)
        for xi in (0.3, 1.9, 6.0):
            assert char_fn_1d(p, -xi, 0.8) == pytest.approx(
                char_fn_1d(p, xi, 0.8), abs=1e-13
            )

    def test_bounded_by_one(self):
        for alpha, beta_exp, gamma_exp, c in MEMBERS_1D:
            p = new_family(alpha, beta_exp, gamma_exp, c, 1)
            for xi in (0.1, 1.0, 4.0, 15.0):
                assert abs(char_fn_1d(p, xi, 1.3)) <= 1.0 + 1e-10

    @settings(max_examples=30, deadline=None)
    @given(
        xi=st.floats(0.05, 8.0),
        t=st.floats(0.2, 3.0),
        member=st.sampled_from(MEMBERS_1D),
    )
    def test_depends_on_xi_through_self_similar_scale(self, xi, t, member):
        # u(., t) is a rescaling of u(., 1), so the transform at (xi, t)
        # equals the transform at (xi t^alpha, 1)
        p = new_family(*member, 1)
        assert char_fn_1d(p, xi, t) == pytest.approx(
            char_fn_1d(p, xi * t**p.alpha, 1.0), abs=1e-10
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            char_fn_1d(new_family(0.5, 2.0, 1.0, 1.0, 2), 1.0, 1.0)
        with pytest.raises(ValueError):
            char_fn_1d(wigner(), 1.0, 0.0)


class TestBesselRatio:
    def test_half_integer_closed_form_across_series_seam(self):
        # h_{1/2}(w) = sin(w) / w; the series (w <= 8), Miller's recurrence
        # (8 < w < 16) and the Hankel route (w >= 16) must all match it
        for w in (1e-3, 0.05, 0.19, 0.21, 1.0, 5.0, 7.9, 8.1, 15.9, 16.1, 30.0):
            got = float(_bessel_kernel(0.5, w))
            assert got == pytest.approx(math.sin(w) / w, rel=1e-13)

    def test_value_at_zero(self):
        for mu in (0.0, 0.5, 1.5, 8.0, 215.5, 1500.0):
            assert float(_bessel_kernel(mu, 0.0)) == 1.0


class TestCharFnRadial:
    def test_frozen_values(self):
        p3 = new_family(0.4, 1.5, 1.2, 1.3, 3)
        assert char_fn_radial(p3, 2.5, 0.8) == pytest.approx(CF_RADIAL_D3, abs=5e-11)
        p2 = new_family(0.5, 2.0, 1.5, 1.0, 2)
        assert char_fn_radial(p2, 4.0, 1.0) == pytest.approx(CF_RADIAL_D2, abs=5e-11)

    def test_zero_frequency(self):
        p = new_family(0.5, 2.0, 1.0, 1.5, 3)
        assert char_fn_radial(p, 0.0, 0.7) == 1.0
        # the entire-quotient form has no 0/0 near zero either
        assert char_fn_radial(p, 1e-8, 0.7) == pytest.approx(1.0, abs=1e-10)

    def test_bounded_by_one(self):
        for d in (2, 3, 5):
            p = new_family(0.4, 1.5, 1.2, 1.3, d)
            for xi in (0.5, 2.0, 8.0, 20.0):
                assert abs(char_fn_radial(p, xi, 1.1)) <= 1.0 + 1e-10

    def test_self_similar_scale(self):
        p = new_family(0.7, 2.5, 0.8, 1.5, 3)
        for xi, t in [(0.8, 0.4), (3.0, 2.2)]:
            assert char_fn_radial(p, xi, t) == pytest.approx(
                char_fn_radial(p, xi * t**p.alpha, 1.0), abs=1e-10
            )

    def test_calls_bessel_j(self, monkeypatch):
        # the route reaches bessel_j through this module's name, where a
        # tracer that rebinds it can count the points
        calls = []
        inner = transforms.bessel_j

        def counted(mu, x):
            calls.append(np.size(x))
            return inner(mu, x)

        monkeypatch.setattr(transforms, "bessel_j", counted)
        char_fn_radial(new_family(0.5, 2.0, 1.0, 1.0, 18), np.linspace(0.0, 20.0, 40), 1.0)
        assert calls and sum(calls) > 0

    def test_domain_errors(self):
        p = new_family(0.5, 2.0, 1.0, 1.0, 2)
        with pytest.raises(ValueError):
            char_fn_radial(wigner(), 1.0, 1.0)
        with pytest.raises(ValueError):
            char_fn_radial(p, -1.0, 1.0)
        with pytest.raises(ValueError):
            char_fn_radial(p, 1.0, -0.5)


class TestCharFnProjection:
    def test_inner_average_d3_closed_form(self):
        # in d = 3 the projection factor is uniform on (0, 1), so the inner
        # average is sin(a)/a
        for a in (0.0, 0.3, 2.0, 11.0, 40.0):
            want = 1.0 if a == 0.0 else math.sin(a) / a
            assert float(_mean_cos_projection(3, a)) == pytest.approx(want, abs=1e-10)

    def test_inner_average_d2_is_bessel_j0(self):
        # d = 2: (2/pi) int_0^{pi/2} cos(a sin theta) dtheta = J_0(a)
        for a in (0.1, 1.0, 4.0, 17.0):
            assert float(_mean_cos_projection(2, a)) == pytest.approx(
                float(bessel_j(0.0, a)), abs=1e-10
            )

    def test_matches_bessel_route(self):
        for d in (2, 3, 4, 5):
            p = new_family(0.5, 2.0, 1.0, 1.5, d)
            for xi in (0.5, 2.0, 6.0):
                assert abs(
                    char_fn_projection(p, xi, 0.9) - char_fn_radial(p, xi, 0.9)
                ) <= 1e-8

    def test_frozen_value(self):
        p3 = new_family(0.4, 1.5, 1.2, 1.3, 3)
        assert char_fn_projection(p3, 2.5, 0.8) == pytest.approx(CF_RADIAL_D3, abs=1e-8)

    def test_zero_frequency(self):
        p = new_family(0.5, 2.0, 1.0, 1.5, 2)
        assert char_fn_projection(p, 0.0, 1.0) == 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            char_fn_projection(wigner(), 1.0, 1.0)

    def test_closed_form_up_to_rule_reach(self):
        # beta = 2: Gamma(nu+1) (2/s)^nu J_nu(s), s = |xi| c t^alpha,
        # nu = d/2 + gamma = 2; the grid ends at s = 60, the largest accepted
        p = new_family(0.5, 2.0, 1.0, 1.5, 2)
        xi = np.linspace(0.0, 40.0, 81)
        got = char_fn_projection(p, xi, 1.0)
        s = 1.5 * xi[1:]
        want = 2.0 * (2.0 / s) ** 2 * special.jv(2.0, s)
        assert got[0] == 1.0
        assert np.max(np.abs(got[1:] - want)) <= 1e-12

    def test_refuses_beyond_rule_reach(self):
        # the 64-node projection rule is off by 2e-4 at s = 300
        p = new_family(0.5, 2.0, 1.0, 1.5, 2)
        for xi, t in [(np.array([1.0, 40.5]), 1.0), (200.0, 1.0), (36.0, 1.3)]:
            with pytest.raises(ValueError, match=r"needs c \|xi\| t\^alpha <= 60"):
                char_fn_projection(p, xi, t)


class TestEKParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            EKParams(zeta=0.0, mu=0.0, eta=1.0)
        with pytest.raises(ValueError):
            EKParams(zeta=0.0, mu=1.0, eta=-2.0)
        with pytest.raises(ValueError):
            EKParams(zeta=-1.0, mu=1.0, eta=1.0)

    def test_fields(self):
        ek = EKParams(zeta=-0.5, mu=1.5, eta=2.0)
        assert (ek.zeta, ek.mu, ek.eta) == (-0.5, 1.5, 2.0)


class TestEkIntegral:
    def test_constant_law(self):
        # for f = 1 the value is Gamma(zeta+1)/Gamma(zeta+mu+1) regardless
        # of x and eta, including singular endpoints (zeta < 0, mu < 1)
        one = lambda s: np.ones_like(np.asarray(s, dtype=float))
        for zeta in (-0.9, -0.5, 0.0, 1.7):
            for mu in (0.1, 0.4, 1.0, 3.2):
                want = math.exp(math.lgamma(zeta + 1.0) - math.lgamma(zeta + mu + 1.0))
                vals = [
                    ek_integral(EKParams(zeta, mu, eta), one, x)
                    for eta in (0.5, 1.0, 2.0, 5.0)
                    for x in (0.3, 2.3)
                ]
                for got in vals:
                    assert got == pytest.approx(want, rel=1e-10)

    def test_identity_parameters_give_plain_average(self):
        # zeta=0, mu=1, eta=1 turns the operator into the mean of f on (0, x)
        ek = EKParams(0.0, 1.0, 1.0)
        got = ek_integral(ek, lambda s: np.asarray(s) ** 2, 3.0)
        assert got == pytest.approx(3.0, rel=1e-11)

    def test_power_law(self):
        # f = tau^s maps to x^s Gamma(zeta+1+s/eta)/Gamma(zeta+mu+1+s/eta)
        x = 1.7
        for zeta, mu, eta in [(-0.5, 0.4, 2.0), (0.3, 2.0, 0.8), (1.0, 1.0, 1.0)]:
            for s in (0.5, 1.0, 2.0, 3.7):
                want = x**s * math.exp(
                    math.lgamma(zeta + 1.0 + s / eta)
                    - math.lgamma(zeta + mu + 1.0 + s / eta)
                )
                got = ek_integral(
                    EKParams(zeta, mu, eta), lambda v: np.asarray(v) ** s, x
                )
                assert got == pytest.approx(want, rel=1e-9)

    def test_cosine_reproduces_char_fn_frozen(self):
        p = wigner()
        t, xi = 1.3, 1.7
        ek = EKParams(1.0 / p.beta_exp - 1.0, p.gamma_exp + 1.0, p.beta_exp)
        raw = ek_integral(ek, lambda v: np.cos(xi * np.asarray(v) * t**p.alpha), p.c)
        got = (
            math.exp(
                math.lgamma(1.0 / p.beta_exp + p.gamma_exp + 1.0)
                - math.lgamma(1.0 / p.beta_exp)
            )
            * raw
        )
        assert got == pytest.approx(EK_COSINE_WIGNER, abs=1e-11)

    def test_cosine_reproduces_char_fn_grid(self):
        for alpha, beta_exp, gamma_exp, c in MEMBERS_1D:
            p = new_family(alpha, beta_exp, gamma_exp, c, 1)
            ek = EKParams(1.0 / beta_exp - 1.0, gamma_exp + 1.0, beta_exp)
            scale = math.exp(
                math.lgamma(1.0 / beta_exp + gamma_exp + 1.0)
                - math.lgamma(1.0 / beta_exp)
            )
            for xi, t in [(0.7, 0.6), (2.5, 1.4)]:
                raw = ek_integral(
                    ek, lambda v: np.cos(xi * np.asarray(v) * t**alpha), c
                )
                assert scale * raw == pytest.approx(
                    char_fn_1d(p, xi, t), abs=1e-8
                )

    def test_domain_error(self):
        with pytest.raises(ValueError):
            ek_integral(EKParams(0.0, 1.0, 1.0), lambda s: np.asarray(s), 0.0)


class TestEpdDalembert:
    def test_constant_initial_data_is_preserved(self):
        one = lambda y: np.ones_like(np.asarray(y, dtype=float))
        for xi_param in (0.6, 1.0, 1.5, 2.5):
            got = epd_dalembert_1d(one, xi_param, 1.3, 0.4, 0.9)
            assert got == pytest.approx(1.0, abs=1e-10)

    def test_t_zero_returns_initial_data(self):
        f = lambda x: np.cos(1.3 * np.asarray(x, dtype=float))
        assert epd_dalembert_1d(f, 1.5, 1.0, 0.4, 0.0) == math.cos(0.52)

    def test_even_in_t(self):
        f = lambda x: np.exp(-np.asarray(x, dtype=float) ** 2)
        a = epd_dalembert_1d(f, 1.2, 2.0, 0.3, 0.8)
        b = epd_dalembert_1d(f, 1.2, 2.0, 0.3, -0.8)
        assert a == pytest.approx(b, abs=1e-13)

    def test_cosine_data_separates(self):
        # plane-wave data cos(kx) evolves as cos(kx) times a function of t
        # alone, so u(x,t)/cos(kx) must be x-independent
        k = 1.3
        f = lambda x: np.cos(k * np.asarray(x, dtype=float))
        m = epd_dalembert_1d(f, 1.5, 2.0, 0.0, 0.7)
        for x in (0.3, -1.1, 2.0):
            got = epd_dalembert_1d(f, 1.5, 2.0, x, 0.7)
            assert got == pytest.approx(math.cos(k * x) * m, abs=1e-10)

    def test_cosine_data_fd_residual_is_second_order(self):
        # the average solves u_tt + (2 xi / t) u_t = c^2 u_xx; central
        # differences on it leave only the O(h^2) truncation term
        xi_param, c, k, x, t = 1.5, 1.0, 1.3, 0.4, 0.9
        f = lambda y: np.cos(k * np.asarray(y, dtype=float))

        def residual(h):
            u = lambda xx, tt: epd_dalembert_1d(f, xi_param, c, xx, tt)
            u0 = u(x, t)
            u_tt = (u(x, t + h) - 2.0 * u0 + u(x, t - h)) / h**2
            u_t = (u(x, t + h) - u(x, t - h)) / (2.0 * h)
            u_xx = (u(x + h, t) - 2.0 * u0 + u(x - h, t)) / h**2
            return u_tt + 2.0 * xi_param / t * u_t - c**2 * u_xx

        r1, r2 = abs(residual(0.04)), abs(residual(0.02))
        assert r1 / r2 == pytest.approx(4.0, abs=1.6)

    def test_domain_error(self):
        one = lambda y: np.ones_like(np.asarray(y, dtype=float))
        with pytest.raises(ValueError):
            epd_dalembert_1d(one, 0.0, 1.0, 0.0, 1.0)


class TestVelocityRepresentation:
    def test_residual_vanishes_on_interior_grid(self):
        for alpha, beta_exp, gamma_exp, c in MEMBERS_1D:
            p = new_family(alpha, beta_exp, gamma_exp, c, 1)
            for t in (0.4, 1.0, 2.7):
                xs = np.linspace(-0.98, 0.98, 21) * support_radius(p, t)
                res = velocity_representation_residual(p, xs, t)
                scale = np.maximum(pdf(p, xs, t), 1e-3)
                assert np.all(np.abs(res) <= 1e-12 * scale)

    def test_outside_support_exactly_zero(self):
        p = wigner()
        xs = np.array([-5.0, 2.0001, 3.0])
        assert np.all(velocity_representation_residual(p, xs, 1.0) == 0.0)

    def test_scalar_in_float_out(self):
        out = velocity_representation_residual(wigner(), 0.3, 1.0)
        assert isinstance(out, float)
        assert abs(out) <= 1e-15

    @settings(max_examples=40, deadline=None)
    @given(
        member=st.sampled_from(MEMBERS_1D),
        frac=st.floats(-0.999, 0.999),
        t=st.floats(0.1, 5.0),
    )
    def test_residual_property(self, member, frac, t):
        p = new_family(*member, 1)
        x = frac * support_radius(p, t)
        res = velocity_representation_residual(p, x, t)
        assert abs(res) <= 1e-12 * max(pdf(p, x, t), 1e-3)

    def test_constant_below_the_float_range(self):
        # B(80, 1e8 + 1) is about 1e-523 for this accepted member, so the
        # constant is only a float when summed in logs
        p = new_family(0.5, 0.0125, 1e8, 1e250, 1)
        assert abs(velocity_representation_residual(p, 0.0, 1.0)) <= 1e-12 * p.norm_c

    def test_requires_1d(self):
        with pytest.raises(ValueError):
            velocity_representation_residual(
                new_family(0.5, 2.0, 1.0, 1.0, 2), 0.3, 1.0
            )


class TestRadialPrefactorReport:
    def test_corrected_variant_closes(self):
        for d in (2, 3, 4, 5):
            p = new_family(0.5, 2.0, 1.0, 1.5, d)
            for t in (0.5, 1.0, 2.3):
                for frac in (0.1, 0.35, 0.6, 0.9):
                    r = frac * support_radius(p, t)
                    _, corrected = radial_prefactor_report(p, r, t)
                    assert abs(corrected) <= 1e-12

    def test_stated_variant_misses_by_factor_r(self):
        # the stated identity evaluates to r times the density, so its
        # relative residual is r - 1; in particular it happens to close at
        # r = 1 and only there
        p = new_family(0.4, 1.5, 1.2, 1.3, 3)
        for r in (0.2, 0.65, 1.0, 1.2):
            stated, _ = radial_prefactor_report(p, r, 1.1)
            assert stated == pytest.approx(
                r - 1.0, abs=1e-9 * max(1.0, r)
            )

    def test_matching_variant_recorded(self):
        p = new_family(0.5, 2.0, 1.5, 1.0, 2)
        stated, corrected = radial_prefactor_report(p, 0.4, 1.0)
        assert abs(corrected) <= abs(stated)

    def test_pair_is_stated_then_corrected(self):
        # the stated reading is r times the corrected one
        p = new_family(0.5, 2.0, 1.0, 1.5, 4)
        pair = radial_prefactor_report(p, 0.7, 1.3)
        assert type(pair) is tuple and all(type(v) is float for v in pair)
        stated, corrected = pair
        assert 1.0 + stated == pytest.approx(0.7 * (1.0 + corrected), rel=1e-14)

    def test_both_variants_vanish_at_the_front(self):
        p = new_family(0.5, 2.0, 1.2, 1.0, 3)
        t = 1.0
        r = (1.0 - 1e-7) * support_radius(p, t)
        res_stated, res_corrected = radial_prefactor_report(p, r, t)
        u = pdf(p, np.array([r, 0.0, 0.0]), t)
        stated = u * (1.0 + res_stated)
        corrected = u * (1.0 + res_corrected)
        assert abs(stated) <= 1e-5 and abs(corrected) <= 1e-5

    @pytest.mark.parametrize("d", [200, 400, 433])
    def test_largest_dimensions(self, d):
        # 433 is the largest d that new_family accepts for this member; the
        # sphere measure and (c t^alpha r)^{d/2-1} underflow apart from d = 400
        stated, corrected = radial_prefactor_report(new_family(0.5, 2.0, 1.0, 1.0, d), 0.5, 1.0)
        assert stated == pytest.approx(-0.5, abs=1e-12)
        assert abs(corrected) <= 1e-12
        with pytest.raises(ValueError, match="normalization C"):
            new_family(0.5, 2.0, 1.0, 1.0, 434)

    def test_domain_errors(self):
        p = new_family(0.5, 2.0, 1.0, 1.0, 2)
        with pytest.raises(ValueError):
            radial_prefactor_report(p, 0.0, 1.0)
        with pytest.raises(ValueError):
            radial_prefactor_report(p, 1.5, 1.0)
        with pytest.raises(ValueError):
            radial_prefactor_report(wigner(), 0.3, 1.0)


ROUTES = [
    (char_fn_1d, (0.7, 2.5, 0.8, 1.5, 1)),
    (char_fn_1d, (0.5, 2.0, 0.5, 2.0, 1)),
    (char_fn_radial, (0.4, 1.5, 1.2, 1.3, 3)),
    (char_fn_radial, (0.5, 2.0, 1.5, 1.0, 12)),
    (char_fn_projection, (0.5, 2.0, 1.0, 1.5, 2)),
    (char_fn_projection, (1.0, 2.0, 2.0, 0.5, 3)),
]


class TestCharFnArrays:
    @pytest.mark.parametrize("fn, member", ROUTES)
    def test_array_matches_scalar_calls(self, fn, member):
        p = new_family(*member)
        xi = np.array([[0.0, 0.3, 2.5], [7.0, 13.0, 20.0]])
        got = fn(p, xi, 0.9)
        assert got.shape == xi.shape
        assert got[0, 0] == 1.0
        for x, val in zip(xi.ravel().tolist(), got.ravel()):
            alone = fn(p, x, 0.9)
            assert type(alone) is float
            assert abs(val - alone) <= 1e-12

    @pytest.mark.parametrize("fn, member", ROUTES)
    def test_zero_frequency_array_is_exactly_one(self, fn, member):
        got = fn(new_family(*member), np.zeros(3), 1.3)
        assert np.array_equal(got, np.ones(3))

    @pytest.mark.parametrize("d", [2, 3, 5, 12])
    def test_routes_differ_in_the_kernel_only(self, monkeypatch, d):
        # with the radial route's Bessel kernel in place of the 64-node
        # projection rule, the projection route is the radial computation
        # bit for bit: everything but the direction kernel is shared
        p = new_family(0.4, 1.5, 1.2, 1.3, d)
        xi = np.array([0.0, 0.3, 2.5, 7.0, 20.0])
        assert not np.array_equal(char_fn_projection(p, xi, 0.9), char_fn_radial(p, xi, 0.9))
        monkeypatch.setattr(
            transforms, "_mean_cos_projection", lambda dim, w: _bessel_kernel(0.5 * dim - 1.0, w)
        )
        assert np.array_equal(char_fn_projection(p, xi, 0.9), char_fn_radial(p, xi, 0.9))
        assert char_fn_projection(p, 2.5, 0.9) == char_fn_radial(p, 2.5, 0.9)

    def test_radial_d12_against_bessel_closed_form(self):
        # beta = 2: the transform is Gamma(nu+1) (2/s)^nu J_nu(s), s = |xi| c
        # t^alpha, nu = d/2 + gamma; the prefactor sits inside the
        # integrand, so the 1e-11 quadrature tolerance holds for the value
        p = new_family(0.5, 2.0, 1.5, 1.0, 12)
        xi = np.linspace(0.0, 40.0, 41)
        got = char_fn_radial(p, xi, 1.0)
        s, nu = xi[1:], 7.5
        want = np.exp(special.gammaln(nu + 1.0) + nu * np.log(2.0 / s)) * special.jv(nu, s)
        assert got[0] == 1.0
        assert np.max(np.abs(got[1:] - want)) <= 1e-11

    def test_wigner_against_bessel_closed_form(self):
        # 2 J_1(2 xi sqrt(t)) / (2 xi sqrt(t)) up to xi = 200
        xi = np.linspace(0.5, 200.0, 60)
        s = 2.0 * xi * math.sqrt(1.3)
        got = char_fn_1d(wigner(), xi, 1.3)
        assert np.max(np.abs(got - 2.0 * special.j1(s) / s)) <= 1e-11


class TestWholeAcceptedRange:
    """Closed forms at the ends of the gamma, mu and xi ranges the API
    accepts, where the Beta weight concentrates or its prefactor leaves
    the float range."""

    @pytest.mark.parametrize("d", [1, 3, 12, 40])
    @pytest.mark.parametrize("gamma", [1e-3, 1.0, 1e3, 1e6, 1e7, 1e8])
    def test_beta_two_members_against_0f1(self, gamma, d):
        # beta = 2: E[cos(xi X)] = 0F1(; nu + 1; -(xi c)^2/4), nu = d/2 + gamma,
        # at t = 1.  The projection route needs xi c <= 60
        p = new_family(0.5, 2.0, gamma, 1.0, d)
        nu = 0.5 * d + gamma
        routes = [(char_fn_1d if d == 1 else char_fn_radial, [0.5 * nu**0.5, nu**0.5, 3.0 * nu**0.5])]
        if d > 1:
            routes.append((char_fn_projection, [1.0, 10.0, 60.0]))
        for fn, xi in routes:
            want = [float(mpmath.hyp0f1(nu + 1.0, -0.25 * x * x)) for x in xi]
            assert np.max(np.abs(fn(p, np.array(xi), 1.0) - want)) <= 1e-11

    @pytest.mark.parametrize(
        "d, c",
        [(2, 1.0), (3, 1.0), (5, 1.0), (8, 1.0), (13, 1.0), (18, 1.0), (25, 1.0), (40, 1.0),
         (200, 1.0), (433, 1.0), (1000, 5.0), (2807, 10.0), (3002, 11.0)],
    )
    def test_radial_beta_two_marginal_identity(self, d, c):
        # beta = 2: the first coordinate of the d-dimensional member is the
        # d = 1 member with gamma + (d - 1)/2 (Fang, Kotz & Ng 1990, 3.4), whose
        # transform needs no Bessel function.  433 and 2807 are the largest d
        # new_family accepts at c = 1 and 10; 3002 is the radial route's bound
        xi = np.linspace(0.5, 40.0, 80)
        got = char_fn_radial(new_family(0.5, 2.0, 1.0, c, d), xi, 1.0)
        want = char_fn_1d(new_family(0.5, 2.0, 1.0 + 0.5 * (d - 1), c, 1), xi, 1.0)
        assert np.max(np.abs(got)) <= 1.0
        assert np.max(np.abs(got - want)) <= 1e-11

    def test_radial_dimension_above_bound_refused(self):
        p = new_family(0.5, 2.0, 1.0, 12.0, 3004)
        with pytest.raises(ValueError, match=r"^d must be <= 3002 for char_fn_radial, got 3004$"):
            char_fn_radial(p, 1.0, 1.0)

    @pytest.mark.parametrize(
        "zeta, mu, eta, x, k",
        [(-0.999, 172.0, 1.0, 1e100, 1.0), (-0.999, 172.0, 2.0, 1e50, 2.0), (0.0, 200.0, 1.0, 1e300, 1.0)],
    )
    def test_ek_past_gamma_overflow(self, zeta, mu, eta, x, k):
        # Gamma(mu) overflows, and at mu = 200 Gamma(zeta+1)/Gamma(zeta+mu+1)
        # underflows, but the value x^k Gamma(zeta+1+k/eta)/Gamma(zeta+mu+1+k/eta)
        # is a normal float
        got = ek_integral(EKParams(zeta, mu, eta), lambda s: np.asarray(s) ** k, x)
        want = math.exp(
            k * math.log(x) + math.lgamma(zeta + 1.0 + k / eta) - math.lgamma(zeta + mu + 1.0 + k / eta)
        )
        assert got == pytest.approx(want, rel=1e-12)

    def test_ek_at_mu_1e3(self):
        # Gamma(zeta+1)/Gamma(zeta+mu+1) is below e^-5000 at mu = 1e3, so for
        # any f bounded by the largest float the value underflows to 0; the
        # average behind it, E[U^{k/eta}] = B(zeta+1+k/eta, mu)/B(zeta+1, mu),
        # is a normal float
        zeta, mu, eta, k = 0.5, 1e3, 1.5, 3.0
        got = ek_integral(EKParams(zeta, mu, eta), lambda s: np.asarray(s) ** k, 2.0)
        assert got == 0.0
        want = beta_moment(zeta + 1.0, mu, k / eta)
        assert _beta_mean(lambda u: u ** (k / eta), zeta + 1.0, mu) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("xi_param", [0.05, 1.5, 40.0, 1e4])
    def test_dalembert_cosine_against_0f1(self, xi_param):
        # f = cos(k .): u = cos(k x) 0F1(; xi + 1/2; -(k c t)^2/4)
        k, c, x, t = 1.7, 1.3, 0.4, 0.9
        got = epd_dalembert_1d(lambda s: np.cos(k * np.asarray(s)), xi_param, c, x, t)
        want = math.cos(k * x) * float(mpmath.hyp0f1(xi_param + 0.5, -0.25 * (k * c * t) ** 2))
        assert abs(got - want) <= 1e-12


NON_FINITE_OR_ZERO_T = [math.nan, math.inf, 0.0]


class TestNonFiniteInputs:
    @pytest.mark.parametrize("t", NON_FINITE_OR_ZERO_T)
    @pytest.mark.parametrize("fn, member", ROUTES[::2])
    def test_char_fn_time(self, fn, member, t):
        with pytest.raises(ValueError, match="t must be finite and > 0"):
            fn(new_family(*member), 1.0, t)

    @pytest.mark.parametrize("xi", [math.nan, math.inf, np.array([1.0, math.nan])])
    @pytest.mark.parametrize("fn, member", ROUTES[::2])
    def test_char_fn_frequency(self, fn, member, xi):
        with pytest.raises(ValueError, match="xi must be finite"):
            fn(new_family(*member), xi, 1.0)

    @pytest.mark.parametrize("t", NON_FINITE_OR_ZERO_T)
    def test_residual_reports_time(self, t):
        with pytest.raises(ValueError, match="t must be finite and > 0"):
            velocity_representation_residual(wigner(), 0.3, t)
        with pytest.raises(ValueError, match="t must be finite and > 0"):
            radial_prefactor_report(new_family(0.5, 2.0, 1.0, 1.0, 3), 0.2, t)

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_ek_argument(self, x):
        # these used to end as "integrand returned a non-finite value"
        with pytest.raises(ValueError, match="x must be finite"):
            ek_integral(EKParams(0.0, 1.0, 1.0), lambda s: np.asarray(s), x)

    @pytest.mark.parametrize("v", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["zeta", "mu", "eta"])
    def test_ek_params(self, field, v):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            EKParams(**({"zeta": 0.0, "mu": 1.0, "eta": 1.0} | {field: v}))

    @pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["xi_param", "c", "x", "t"])
    def test_dalembert_arguments(self, name, v):
        args = {"xi_param": 1.5, "c": 1.0, "x": 0.4, "t": 0.9} | {name: v}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            epd_dalembert_1d(np.cos, **args)
