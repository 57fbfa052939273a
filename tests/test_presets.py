"""Tests for the PDE special-case parameter mappings."""

import math

import numpy as np
import pytest

from barenblatt.family import pdf, radial_moment, radial_pdf, support_radius
from barenblatt.presets import (
    catalan,
    epd_preset,
    fractional_preset,
    npme_preset,
    ple_preset,
    wigner_preset,
    zkb_source_preset,
)
from barenblatt.specfun import integrate

# Reference values computed with mpmath at 34 significant digits.
PLE_P3_D1 = {
    "frak_c": 0.6646932161059343695256,
    "C": 0.441817071537250369541,
    "c": 2.514866859365870816636,
}
NPME_M2_NU2_D1_C = 0.3061862178478972622747  # = 3/(4 sqrt(6))
NPME_M3_NU15_D2 = {
    "k": 0.1522061479505048800524,
    "C": 0.03556824351333489771256,
    "c": 3.507883837339011397149,
}
FRACTIONAL_CONSTANTS = {
    0.1: (0.4748148438162130606566, 0.2179126525944461641889),
    0.2: (0.3090169943749474241023, 0.12079258644550577941),
    0.3: (-1.396373406180669295342, -0.4085751972532723212354),
}
ZKB_FRONT_SCALE = {
    (2, 1): 1.650963624447313341937,
    (2, 2): 1.502251088929884965717,
    (2, 3): 1.429454314672216177086,
    (3, 1): 1.341876533930827832446,
    (3, 2): 1.182616688156494282077,
    (3, 3): 1.128379167095512573896,
}
# semicircle member at (x, t) = (0.6, 0.7)
WIGNER_AT_06_07 = 0.3551542407721193056642


def quadrature_mass(fam, t=1.0):
    return integrate(lambda r: radial_pdf(fam, r, t), 0.0, support_radius(fam, t))


class TestPlePreset:
    def test_p3_d1_frozen(self):
        raw, fam = ple_preset(3.0, 1)
        assert raw.k == 0.25
        assert raw.q == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert raw.frak_c == pytest.approx(PLE_P3_D1["frak_c"], rel=1e-14)
        assert fam.beta_exp == 1.5
        assert fam.gamma_exp == 2.0
        assert fam.alpha == 0.25
        assert fam.norm_c == pytest.approx(PLE_P3_D1["C"], rel=1e-14)
        assert fam.c == pytest.approx(PLE_P3_D1["c"], rel=1e-14)

    def test_round_trip_amplitude(self):
        # the solved fc must reproduce the family normalizer as fc^gamma
        for p in (2.2, 2.5, 3.0, 4.0, 7.0):
            for d in (1, 2, 3):
                raw, fam = ple_preset(p, d)
                assert raw.frak_c**fam.gamma_exp == pytest.approx(
                    fam.norm_c, rel=1e-12
                )
                assert (raw.frak_c / raw.q) ** (1.0 / fam.beta_exp) == pytest.approx(
                    fam.c, rel=1e-12
                )

    def test_unit_mass(self):
        for p, d in [(2.5, 1), (3.0, 2), (5.0, 3)]:
            _, fam = ple_preset(p, d)
            assert quadrature_mass(fam) == pytest.approx(1.0, abs=1e-8)

    def test_near_degenerate_warning(self):
        with pytest.warns(RuntimeWarning):
            ple_preset(2.005, 1)

    def test_no_warning_away_from_two(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ple_preset(3.0, 1)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ple_preset(2.0, 1)
        with pytest.raises(ValueError):
            ple_preset(3.0, 0)


class TestNpmePreset:
    def test_m2_nu2_d1_frozen(self):
        raw, fam = npme_preset(2.0, 2.0, 1)
        assert fam.alpha == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert raw.k_const == pytest.approx(1.0 / 6.0, rel=1e-14)
        assert fam.gamma_exp == 1.0
        assert fam.beta_exp == 2.0
        assert fam.c == pytest.approx(math.sqrt(6.0), rel=1e-14)
        assert raw.C_const == pytest.approx(NPME_M2_NU2_D1_C, rel=1e-14)

    def test_m3_nu15_d2_frozen(self):
        raw, fam = npme_preset(3.0, 1.5, 2)
        assert fam.alpha == pytest.approx(2.0 / 11.0, rel=1e-15)
        assert raw.k_const == pytest.approx(NPME_M3_NU15_D2["k"], rel=1e-13)
        assert raw.C_const == pytest.approx(NPME_M3_NU15_D2["C"], rel=1e-13)
        assert fam.c == pytest.approx(NPME_M3_NU15_D2["c"], rel=1e-13)

    def test_displayed_constant_is_the_unit_mass_normalizer(self):
        # with c = k^{-1/nu} the displayed amplitude and the family's
        # normalization constant are the same Gamma expression
        for m in (1.5, 2.0, 3.0):
            for nu in (0.5, 1.0, 1.5, 2.0):
                for d in (1, 2, 3):
                    raw, fam = npme_preset(m, nu, d)
                    assert abs(raw.C_const - fam.norm_c) / fam.norm_c <= 1e-12

    def test_unit_mass(self):
        for m, nu, d in [(2.0, 2.0, 1), (3.0, 1.5, 2), (1.5, 0.7, 3)]:
            _, fam = npme_preset(m, nu, d)
            assert quadrature_mass(fam) == pytest.approx(1.0, abs=1e-8)

    def test_alternative_front_scale_fails_mass_oracle(self):
        # reading the front scale as k^{-2/nu} instead (with the same
        # displayed amplitude) rescales the mass by exactly k^{-d/nu},
        # which is far from 1: the mass oracle settles the reading
        from barenblatt.family import new_family

        raw, fam = npme_preset(2.0, 2.0, 1)
        c_alt = raw.k_const ** (-2.0 / 2.0)
        alt = new_family(fam.alpha, 2.0, fam.gamma_exp, c_alt, 1)
        mass_alt = raw.C_const / alt.norm_c
        assert mass_alt == pytest.approx(raw.k_const ** (-1.0 / 2.0), rel=1e-10)
        assert abs(mass_alt - 1.0) > 1.0

    def test_nu2_front_coefficient_identity(self):
        # at nu = 2 the displayed k collapses to alpha/2
        for m in (1.5, 2.0, 3.0):
            for d in (1, 2, 3):
                raw, fam = npme_preset(m, 2.0, d)
                assert raw.k_const == pytest.approx(fam.alpha / 2.0, abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            npme_preset(1.0, 2.0, 1)
        with pytest.raises(ValueError):
            npme_preset(2.0, 2.5, 1)
        with pytest.raises(ValueError):
            npme_preset(2.0, 0.0, 1)
        with pytest.raises(ValueError):
            npme_preset(2.0, 2.0, 0)


class TestEpdPreset:
    def test_constant_identity_grid(self):
        # the closed-form density constant Gamma(nu + d/2) / (pi^{d/2}
        # Gamma(nu) c^d) is the family normalizer
        for nu in (1.5, 2.0, 3.0, 4.5):
            for d in (1, 2, 3):
                for c in (0.5, 1.0, 2.0):
                    fam = epd_preset(nu, c, d)
                    assert fam.gamma_exp == nu - 1.0
                    assert fam.alpha == 1.0
                    closed = math.exp(
                        math.lgamma(nu + 0.5 * d)
                        - 0.5 * d * math.log(math.pi)
                        - math.lgamma(nu)
                        - d * math.log(c)
                    )
                    assert closed == pytest.approx(fam.norm_c, rel=1e-12)

    def test_peak_value_d3(self):
        fam = epd_preset(2.0, 1.0, 3)
        assert pdf(fam, np.zeros(3), 1.0) == pytest.approx(
            15.0 / (8.0 * math.pi), rel=1e-14
        )

    def test_half_integer_member_is_rescaled_semicircle(self):
        # nu = 3/2, c = 2, d = 1 evaluated at (x, sqrt(t)) reproduces the
        # semicircle density at (x, t): same gamma = 1/2 profile, and the
        # amplitude constants agree exactly
        fam = epd_preset(1.5, 2.0, 1)
        wig = wigner_preset()
        assert pdf(fam, 0.6, math.sqrt(0.7)) == pytest.approx(
            WIGNER_AT_06_07, rel=1e-13
        )
        for x in (-1.5, 0.0, 0.31, 1.9):
            for t in (0.5, 1.0, 2.0):
                assert pdf(fam, x, math.sqrt(t)) == pytest.approx(
                    pdf(wig, x, t), abs=1e-14
                )

    def test_unit_mass(self):
        fam = epd_preset(3.0, 2.0, 2)
        assert quadrature_mass(fam, t=1.3) == pytest.approx(1.0, abs=1e-8)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            epd_preset(1.0, 1.0, 1)
        with pytest.raises(ValueError):
            epd_preset(2.0, 0.0, 1)


class TestWignerPreset:
    def test_parameters(self):
        fam = wigner_preset()
        assert (fam.alpha, fam.beta_exp, fam.gamma_exp, fam.c, fam.d) == (
            0.5,
            2.0,
            0.5,
            2.0,
            1,
        )

    def test_peak_is_one_over_pi(self):
        assert pdf(wigner_preset(), 0.0, 1.0) == pytest.approx(
            1.0 / math.pi, rel=1e-14
        )

    def test_msd_closed_form(self):
        fam = wigner_preset()
        for t in (0.25, 1.0, 3.7):
            assert radial_moment(fam, 2, t) == pytest.approx(t, rel=1e-14)

    def test_even_moments_are_scaled_catalan(self):
        fam = wigner_preset()
        for t in (0.5, 1.0, 2.0):
            r = support_radius(fam, t)
            for m in range(6):
                mom = integrate(lambda x: x ** (2 * m) * pdf(fam, x, t), -r, r)
                assert mom == pytest.approx(
                    catalan(m) * t**m, rel=1e-8, abs=1e-10
                )


class TestCatalan:
    def test_small_values(self):
        assert [catalan(m) for m in range(7)] == [1, 1, 2, 5, 14, 42, 132]

    def test_returns_exact_int(self):
        v = catalan(3)
        assert isinstance(v, int) and v == 5
        assert catalan(5) == 42

    def test_recurrence(self):
        # C_{m+1} = 2(2m+1)/(m+2) C_m holds in exact integer arithmetic
        for m in range(25):
            assert (m + 2) * catalan(m + 1) == 2 * (2 * m + 1) * catalan(m)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            catalan(-1)


class TestFractionalPreset:
    def test_frozen_constants(self):
        for nu, (c1, c2) in FRACTIONAL_CONSTANTS.items():
            fp = fractional_preset(nu)
            assert fp.C1 == pytest.approx(c1, rel=1e-13)
            assert fp.C2 == pytest.approx(c2, rel=1e-13)

    def test_c1_reflection_closed_form(self):
        # C1(0.2) = G(0.4)G(0.6)/(2 G(0.2)G(0.8)) collapses through
        # G(x)G(1-x) = pi/sin(pi x) to sin(0.2 pi)/(2 sin(0.4 pi))
        fp = fractional_preset(0.2)
        want = math.sin(0.2 * math.pi) / (2.0 * math.sin(0.4 * math.pi))
        assert fp.C1 == pytest.approx(want, rel=1e-12)

    def test_c2_gamma_quotient(self):
        # C2(0.2) = Gamma(1-3nu)/(4 Gamma(1-4nu)) = Gamma(0.4)/(4 Gamma(0.2))
        fp = fractional_preset(0.2)
        want = math.gamma(0.4) / (4.0 * math.gamma(0.2))
        assert fp.C2 == pytest.approx(want, rel=1e-13)

    def test_positive_below_quarter(self):
        for nu in (0.05, 0.1, 0.2, 0.24):
            fp = fractional_preset(nu)
            assert fp.C1 > 0.0 and fp.C2 > 0.0

    def test_sign_flip_above_quarter(self):
        # Gamma(1-4nu) < 0 on (1/4, 1/3) flips both constants negative
        for nu in (0.26, 0.3, 0.32):
            fp = fractional_preset(nu)
            assert fp.C1 < 0.0 and fp.C2 < 0.0

    def test_constants_vanish_at_the_pole(self):
        fp = fractional_preset(0.2499999)
        assert abs(fp.C1) < 1e-4 and abs(fp.C2) < 1e-4

    def test_rejections(self):
        for nu in (0.25, 0.0, 1.0 / 3.0, 0.4, -0.1):
            with pytest.raises(ValueError):
                fractional_preset(nu)


class TestZkbSourcePreset:
    def test_frozen_front_scales(self):
        for (m, d), ref in ZKB_FRONT_SCALE.items():
            fam = zkb_source_preset(float(m), d)
            assert fam.c == pytest.approx(ref, rel=1e-13)

    def test_amplitude_condition(self):
        # C^{m-1} = (alpha/2) c^2 is the defining property
        for m in (1.5, 2.0, 3.0, 4.0):
            for d in (1, 2, 3):
                fam = zkb_source_preset(m, d)
                assert fam.norm_c ** (m - 1.0) == pytest.approx(
                    0.5 * fam.alpha * fam.c**2, rel=1e-13
                )

    def test_unit_mass(self):
        for m, d in [(2.0, 1), (3.0, 3)]:
            fam = zkb_source_preset(m, d)
            assert quadrature_mass(fam) == pytest.approx(1.0, abs=1e-8)

    def test_differs_from_nonlocal_mapping_front(self):
        # the unit-mass source front scale is not the nonlocal-equation
        # term-matching scale sqrt(2/alpha): the normalized nonlocal
        # member cannot satisfy the amplitude condition
        fam = zkb_source_preset(2.0, 1)
        _, npme_fam = npme_preset(2.0, 2.0, 1)
        assert abs(fam.c - npme_fam.c) > 0.5
        assert abs(
            npme_fam.norm_c ** 1.0 - 0.5 * npme_fam.alpha * npme_fam.c**2
        ) > 0.1

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            zkb_source_preset(1.0, 1)
        with pytest.raises(ValueError):
            zkb_source_preset(2.0, 0)


@pytest.mark.parametrize(
    "make, args",
    [(ple_preset, (3.0, 2.5)), (zkb_source_preset, (2.0, 1.7)),
     (npme_preset, (2.0, 1.0, 3.9)), (epd_preset, (3.0, 1.0, 2.2))],
)
def test_non_integer_dimension_refused(make, args):
    # int() used to truncate these to d = 2, 1, 3 and 2
    with pytest.raises(ValueError, match="d must be an integer >= 1"):
        make(*args)


@pytest.mark.parametrize("m, d", [(1.5, 600), (2.0, 300), (3.0, 1000)])
def test_zkb_high_dimension(m, d):
    # B(d/2, gamma+1) underflows to 0 here, so its log used to raise; the
    # ln terms reach ~1e3, so the condition holds to ~1e3 eps
    fam = zkb_source_preset(m, d)
    assert fam.norm_c ** (m - 1.0) == pytest.approx(0.5 * fam.alpha * fam.c**2, rel=1e-12)


@pytest.mark.parametrize("p, d", [(3.0, 800), (2.5, 500), (7.0, 1000)])
def test_ple_high_dimension(p, d):
    raw, fam = ple_preset(p, d)
    assert raw.frak_c**fam.gamma_exp == pytest.approx(fam.norm_c, rel=1e-12)


@pytest.mark.parametrize(
    "make, args", [(zkb_source_preset, (1.0001, 400)), (npme_preset, (1.001, 0.1, 1000))]
)
def test_refusal_is_the_family_one(make, args):
    # a member whose C overflows is refused by new_family, not by a log
    # or an exp of the preset's own
    with pytest.raises(ValueError, match="normalization C"):
        make(*args)
