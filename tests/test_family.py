import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barenblatt.family import (
    ball_probability,
    cdf_1d,
    new_family,
    pdf,
    quantile_1d,
    radial_moment,
    radial_pdf,
    self_similarity_residual,
    support_radius,
)
from barenblatt.specfun import beta_fn, integrate, sphere_surface


def wigner():
    return new_family(0.5, 2.0, 0.5, 2.0, 1)


MEMBERS = [
    # alpha, beta, gamma, c, d: a spread of shapes, dimensions, front speeds
    (0.5, 2.0, 0.5, 2.0, 1),
    (0.3, 1.5, 0.7, 1.2, 2),
    (1.0, 3.0, 2.0, 0.8, 3),
    (0.25, 0.9, 1.8, 1.5, 4),
    (1.5, 2.0, 1.0, 1.0, 1),
]


class TestNewFamily:
    def test_wigner_constant(self):
        # B(1/2, 3/2) = pi/2 and sigma(S^0) = 2 give C = 1/pi
        assert wigner().norm_c == pytest.approx(1.0 / math.pi, rel=1e-14)

    @pytest.mark.parametrize("nu", [1.5, 2.0, 3.0, 4.5])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_quadratic_profile_constant(self, nu, d):
        # for (alpha, beta, gamma) = (1, 2, nu - 1) the amplitude collapses
        # to Gamma(nu + d/2) / (pi^{d/2} Gamma(nu) c^d)
        c = 1.7
        p = new_family(1.0, 2.0, nu - 1.0, c, d)
        ref = math.exp(
            math.lgamma(nu + 0.5 * d)
            - 0.5 * d * math.log(math.pi)
            - math.lgamma(nu)
            - d * math.log(c)
        )
        assert p.norm_c == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("raw", MEMBERS)
    def test_constant_recomputes(self, raw):
        p = new_family(*raw)
        direct = p.beta_exp / (
            p.c**p.d
            * sphere_surface(p.d)
            * beta_fn(p.d / p.beta_exp, p.gamma_exp + 1.0)
        )
        assert p.norm_c == pytest.approx(direct, rel=1e-14)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=0.0, beta_exp=2.0, gamma_exp=1.0, c=1.0, d=1),
            dict(alpha=0.5, beta_exp=-2.0, gamma_exp=1.0, c=1.0, d=1),
            dict(alpha=0.5, beta_exp=2.0, gamma_exp=0.0, c=1.0, d=1),
            dict(alpha=0.5, beta_exp=2.0, gamma_exp=1.0, c=0.0, d=1),
            dict(alpha=0.5, beta_exp=2.0, gamma_exp=1.0, c=1.0, d=0),
            dict(alpha=0.5, beta_exp=2.0, gamma_exp=1.0, c=1.0, d=2.5),
            # gamma above the validated 1e8 (C itself is finite there now
            # that ln B no longer cancels ln Gamma terms)
            dict(alpha=1.0, beta_exp=2.0, gamma_exp=1e308, c=1.0, d=1),
            dict(alpha=1.0, beta_exp=2.0, gamma_exp=1.01e8, c=1.0, d=1),
            # C not a finite positive float: inf (c^-d overflows), 0
            dict(alpha=0.5, beta_exp=2.0, gamma_exp=1.0, c=1e-300, d=3),
            dict(alpha=0.5, beta_exp=2.0, gamma_exp=1.0, c=1e300, d=3),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            new_family(**kwargs)

    @pytest.mark.parametrize("d", [True, np.bool_(True)])
    def test_bool_dimension_refused(self, d):
        # int(True) == True, so a bool used to build the d = 1 member
        with pytest.raises(ValueError, match="d must be an integer >= 1, got True"):
            new_family(0.5, 2.0, 1.0, 1.0, d)

    # C = 1/B(1/2, gamma + 1) at beta = 2, c = 1, d = 1, frozen with mpmath;
    # ln Gamma differences were off by 1.5e-10 and 2.2e-8 relative here
    @pytest.mark.parametrize(
        "gamma_exp, expected", [(1e6, 564.1897951188192632438), (1e8, 5641.895856634672221668)]
    )
    def test_large_gamma_constant(self, gamma_exp, expected):
        assert new_family(1.0, 2.0, gamma_exp, 1.0, 1).norm_c == pytest.approx(expected, rel=1e-13)


class TestSupportRadius:
    @pytest.mark.parametrize(
        "alpha, c, t, expected",
        [
            (0.5, 2.0, 1.0, 2.0),
            (1.0, 1.0, 3.0, 3.0),
            (0.3, 0.5, 2.0, 0.5 * 2.0**0.3),
        ],
    )
    def test_values(self, alpha, c, t, expected):
        p = new_family(alpha, 2.0, 1.0, c, 1)
        assert support_radius(p, t) == pytest.approx(expected, rel=1e-15)

    def test_rejects_bad_time(self):
        with pytest.raises(ValueError):
            support_radius(wigner(), 0.0)
        with pytest.raises(ValueError):
            support_radius(wigner(), -1.0)


class TestPdf:
    def test_wigner_at_origin(self):
        assert pdf(wigner(), 0.0, 1.0) == pytest.approx(1.0 / math.pi, abs=1e-15)

    def test_quadratic_profile_origin_3d(self):
        # (alpha, beta, gamma) = (1, 2, 1), c = 1, d = 3 at the origin:
        # Gamma(7/2) / pi^{3/2} = 15 / (8 pi)
        p = new_family(1.0, 2.0, 1.0, 1.0, 3)
        assert pdf(p, np.zeros(3), 1.0) == pytest.approx(15.0 / (8.0 * math.pi), rel=1e-13)

    @pytest.mark.parametrize("raw", MEMBERS)
    def test_zero_outside_support(self, raw):
        p = new_family(*raw)
        r = support_radius(p, 2.0)
        point = np.zeros(p.d)
        point[0] = 1.5 * r
        assert pdf(p, point, 2.0) == 0.0
        point[0] = r
        assert pdf(p, point, 2.0) == 0.0  # boundary belongs to the support, value 0

    def test_argmax_at_origin(self):
        for raw in MEMBERS:
            p = new_family(*raw)
            r = support_radius(p, 1.3)
            radii = np.linspace(0.0, r, 400)
            vals = pdf(p, radii if p.d == 1 else radii[:, None] * np.eye(p.d)[0], 1.3)
            assert np.argmax(vals) == 0

    def test_point_layouts_agree(self):
        p = new_family(0.3, 1.5, 0.7, 1.2, 2)
        single = pdf(p, np.array([0.3, 0.4]), 1.0)
        batch = pdf(p, np.array([[0.3, 0.4], [0.0, 0.0]]), 1.0)
        assert batch.shape == (2,)
        assert batch[0] == single
        # scalar means a point on the first axis
        assert pdf(p, 0.5, 1.0) == pdf(p, np.array([0.5, 0.0]), 1.0)

    def test_wrong_point_shape(self):
        p = new_family(0.3, 1.5, 0.7, 1.2, 2)
        with pytest.raises(ValueError):
            pdf(p, np.zeros(3), 1.0)

    def test_elementwise_in_1d(self):
        p = wigner()
        xs = np.linspace(-2.5, 2.5, 7)
        vals = pdf(p, xs, 1.0)
        assert vals.shape == xs.shape
        assert vals[0] == 0.0 and vals[-1] == 0.0

    def test_profile_against_mpmath_over_gamma_and_beta(self):
        # at t = 1 and c = 1 the scaled radius z is x itself, so the
        # reference takes the same float z and the member's C: only the
        # profile (1 - z^beta)^gamma is under test.  Points keep
        # gamma z^beta <= 10, where the profile is well conditioned in z;
        # a power of a rounded 1 - z^beta is off by about gamma eps there
        rng = np.random.default_rng(5)
        betas = np.exp(rng.uniform(math.log(0.05), math.log(20.0), 40))
        gammas = np.exp(rng.uniform(math.log(1e-3), math.log(1e8), 40))
        worst = 0.0
        for beta_exp, gamma_exp in zip(betas.tolist(), gammas.tolist()):
            p = new_family(0.5, beta_exp, gamma_exp, 1.0, 1)
            w_max = min(0.9, 10.0 / gamma_exp)
            xs = np.linspace(0.0, 1.0, 17) * w_max ** (1.0 / beta_exp)
            got = pdf(p, xs, 1.0)
            with mpmath.workdps(40):
                for x, g in zip(xs.tolist(), got.tolist()):
                    want = mpmath.mpf(p.norm_c) * (1 - mpmath.mpf(x) ** beta_exp) ** gamma_exp
                    worst = max(worst, float(abs(g / want - 1)))
        assert worst <= 1e-14

    @pytest.mark.parametrize("raw", [*MEMBERS, (0.5, 2.0, 1e8, 1.0, 3)])
    def test_no_warning_at_or_past_the_front(self, raw):
        # the front and everything beyond it are exact zeros, silently
        p = new_family(*raw)
        radii = np.linspace(0.0, 1.3, 27) * support_radius(p, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals = pdf(p, radii if p.d == 1 else radii[:, None] * np.eye(p.d)[0], 1.0)
            rad = radial_pdf(p, radii, 1.0)
        assert np.all(vals[20:] == 0.0) and np.all(rad[20:] == 0.0)


class TestNormalization:
    @pytest.mark.parametrize("raw", MEMBERS)
    @pytest.mark.parametrize("t", [0.4, 1.0, 2.7])
    def test_unit_mass(self, raw, t):
        p = new_family(*raw)
        mass = integrate(
            lambda r: radial_pdf(p, r, t), 0.0, support_radius(p, t)
        )
        assert mass == pytest.approx(1.0, abs=1e-10)


class TestRadialPdf:
    def test_one_dimension_doubles_the_density(self):
        p = wigner()
        for r in (0.3, 1.0, 1.9):
            assert radial_pdf(p, r, 1.0) == pytest.approx(2.0 * pdf(p, r, 1.0), rel=1e-14)

    def test_outside_front(self):
        p = new_family(0.3, 1.5, 0.7, 1.2, 2)
        assert radial_pdf(p, 2.0 * support_radius(p, 1.0), 1.0) == 0.0

    def test_large_dimension_against_closed_form(self):
        # member (0.5, 2, 1, 1, 400) at t = 1: the radius has density
        # 2 r^399 (1 - r^2) / B(200, 2), while sigma(S^399) r^399 alone
        # underflows (sigma is about 1e-273); values stay normal floats here
        p = new_family(0.5, 2.0, 1.0, 1.0, 400)
        rs = np.concatenate([[0.3, 0.5], np.linspace(0.2, 0.99, 40)])
        got = radial_pdf(p, rs, 1.0)
        with mpmath.workdps(40):
            b = mpmath.beta(200, 2)
            want = [2 * mpmath.mpf(r) ** 399 * (1 - mpmath.mpf(r) ** 2) / b for r in rs.tolist()]
        assert np.all(got > 0.0)
        assert max(float(abs(g / w - 1)) for g, w in zip(got.tolist(), want)) <= 1e-13
        assert radial_pdf(p, 0.0, 1.0) == 0.0 and radial_pdf(p, 1.0, 1.0) == 0.0

    def test_matches_ball_probability(self):
        p = new_family(1.0, 3.0, 2.0, 0.8, 3)
        t = 1.4
        grid = np.linspace(0.0, support_radius(p, t), 9)
        for a in grid:
            by_quad = integrate(lambda r: radial_pdf(p, r, t), 0.0, float(a))
            assert ball_probability(p, float(a), t) == pytest.approx(by_quad, abs=1e-8)


class TestBallProbability:
    def test_endpoints(self):
        p = new_family(0.25, 0.9, 1.8, 1.5, 4)
        assert ball_probability(p, 0.0, 1.0) == 0.0
        assert ball_probability(p, support_radius(p, 1.0), 1.0) == 1.0
        assert ball_probability(p, 10.0 * support_radius(p, 1.0), 1.0) == 1.0

    def test_wigner_unit_ball(self):
        ref = integrate(lambda x: pdf(wigner(), x, 1.0), -1.0, 1.0)
        assert ball_probability(wigner(), 1.0, 1.0) == pytest.approx(ref, abs=1e-10)

    def test_monotone(self):
        p = new_family(0.3, 1.5, 0.7, 1.2, 2)
        grid = np.linspace(0.0, 1.5 * support_radius(p, 0.7), 64)
        vals = ball_probability(p, grid, 0.7)
        assert np.all(np.diff(vals) >= 0.0)


class TestCdf1d:
    def test_symmetry_points(self):
        p = wigner()
        assert cdf_1d(p, 0.0, 1.0) == 0.5
        r = support_radius(p, 1.0)
        assert cdf_1d(p, r, 1.0) == 1.0
        assert cdf_1d(p, -r, 1.0) == 0.0
        assert cdf_1d(p, r + 5.0, 1.0) == 1.0

    def test_wigner_frozen_value(self):
        # integral of the semicircle density over [-2, 1]:
        # 2/3 + sqrt(3)/(4 pi), frozen with mpmath
        assert cdf_1d(wigner(), 1.0, 1.0) == pytest.approx(
            0.8044988905221146790445, abs=1e-13
        )

    def test_matches_quadrature(self):
        p = new_family(1.5, 2.0, 1.0, 1.0, 1)
        t = 0.8
        r = support_radius(p, t)
        for x in (-0.6 * r, -0.1 * r, 0.33 * r, 0.9 * r):
            ref = integrate(lambda s: pdf(p, s, t), -r, float(x))
            assert cdf_1d(p, float(x), t) == pytest.approx(ref, abs=1e-10)

    def test_derivative_is_pdf(self):
        p = new_family(0.5, 2.5, 0.8, 1.5, 1)
        t = 1.2
        h = 1e-6
        xs = np.linspace(-0.9, 0.9, 11) * support_radius(p, t)
        num = (cdf_1d(p, xs + h, t) - cdf_1d(p, xs - h, t)) / (2.0 * h)
        assert np.max(np.abs(num - pdf(p, xs, t))) <= 1e-7

    def test_requires_one_dimension(self):
        p = new_family(0.3, 1.5, 0.7, 1.2, 2)
        with pytest.raises(ValueError):
            cdf_1d(p, 0.3, 1.0)


class TestQuantile1d:
    def test_fixed_points(self):
        p = wigner()
        assert quantile_1d(p, 0.5, 1.0) == 0.0
        assert quantile_1d(p, 1.0, 1.0) == pytest.approx(support_radius(p, 1.0), rel=1e-14)
        assert quantile_1d(p, 0.0, 1.0) == pytest.approx(-support_radius(p, 1.0), rel=1e-14)

    @given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    @settings(max_examples=60)
    def test_roundtrip(self, q):
        p = new_family(0.5, 2.5, 0.8, 1.5, 1)
        x = quantile_1d(p, q, 2.0)
        assert cdf_1d(p, x, 2.0) == pytest.approx(q, abs=1e-10)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            quantile_1d(wigner(), 1.5, 1.0)


class TestRadialMoment:
    def test_zeroth_is_one(self):
        for raw in MEMBERS:
            assert radial_moment(new_family(*raw), 0.0, 1.7) == 1.0

    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    def test_wigner_msd_is_t(self, t):
        # B(3/2, 3/2)/B(1/2, 3/2) = 1/4 cancels c^2 = 4
        assert radial_moment(wigner(), 2.0, t) == pytest.approx(t, rel=1e-14)

    @pytest.mark.parametrize("raw", MEMBERS)
    def test_second_moment_against_quadrature(self, raw):
        p = new_family(*raw)
        t = 1.3
        ref = integrate(
            lambda r: r * r * radial_pdf(p, r, t), 0.0, support_radius(p, t)
        )
        assert radial_moment(p, 2.0, t) == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 3.7])
    def test_scaling_law(self, k):
        p = new_family(0.3, 1.5, 0.7, 1.2, 2)
        for t in (0.2, 1.0, 5.0):
            assert radial_moment(p, k, t) == pytest.approx(
                t ** (p.alpha * k) * radial_moment(p, k, 1.0), rel=1e-13
            )

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            radial_moment(wigner(), -1.0, 1.0)


class TestSelfSimilarity:
    def test_identity_rescale(self):
        p = new_family(0.3, 1.5, 0.7, 1.2, 2)
        assert self_similarity_residual(p, np.array([0.2, 0.1]), 1.5, 1.0) == 0.0

    @given(
        st.floats(min_value=0.1, max_value=2.0),
        st.floats(min_value=0.2, max_value=4.0),
        st.floats(min_value=0.1, max_value=3.0),
    )
    @settings(max_examples=80)
    def test_residual_vanishes(self, x, t, L):
        p = new_family(0.5, 2.5, 0.8, 1.5, 1)
        res = self_similarity_residual(p, x, t, L)
        assert abs(res) <= 1e-12 * max(pdf(p, x, t), 1e-3)

    def test_outside_both_supports(self):
        p = wigner()
        x = 10.0 * support_radius(p, 1.0)
        assert self_similarity_residual(p, x, 1.0, 1.1) == 0.0

    @pytest.mark.parametrize("L", [math.nan, math.inf, 0.0, -1.0])
    def test_scale_must_be_finite_and_positive(self, L):
        # L = nan or inf used to return nan
        with pytest.raises(ValueError, match="L must be finite and > 0"):
            self_similarity_residual(wigner(), 0.3, 1.0, L)
