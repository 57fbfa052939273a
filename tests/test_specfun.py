import hashlib
import math

import numpy as np
import pytest
import scipy.special
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from barenblatt import specfun
from barenblatt.specfun import (
    QuadratureError,
    _bessel_miller,
    _bessel_series,
    _bessel_upward,
    _eval_panels,
    _ln_gamma_signed,
    bessel_j,
    beta_fn,
    integrate,
    inv_reg_inc_beta,
    ln_beta,
    ln_gamma,
    ln_sphere,
    reg_inc_beta,
    sphere_surface,
)
from barenblatt.transforms import _beta_mean


class TestLnGamma:
    # frozen with mpmath at 34 significant digits
    @pytest.mark.parametrize(
        "x, expected",
        [
            (0.1, 2.252712651734205902006),
            (0.5, 0.5723649429247000870717),
            (1.5, -0.1207822376352452223455),
            (5.0, 3.178053830347945619647),
            (7.3, 7.147892523022248692104),
            (200.0, 857.9336698258574368183),
        ],
    )
    def test_frozen_values(self, x, expected):
        # relative criterion scaled by max(1, |value|): ln Gamma has zeros
        # at x = 1, 2 where a pure relative test would be meaningless
        assert abs(ln_gamma(x) - expected) <= 1e-13 * max(1.0, abs(expected))

    def test_zeros_at_one_and_two(self):
        assert abs(ln_gamma(1.0)) <= 1e-14
        assert abs(ln_gamma(2.0)) <= 1e-14

    @given(st.floats(min_value=0.01, max_value=50.0))
    def test_recurrence(self, x):
        # Gamma(x + 1) = x Gamma(x)
        assert ln_gamma(x + 1.0) == pytest.approx(ln_gamma(x) + math.log(x), abs=1e-11)

    @given(st.floats(min_value=1e-3, max_value=150.0))
    def test_against_stdlib(self, x):
        assert ln_gamma(x) == pytest.approx(math.lgamma(x), abs=1e-12 * max(1.0, abs(math.lgamma(x))))

    def test_array_shape(self):
        xs = np.array([[0.3, 1.0], [2.5, 9.0]])
        out = ln_gamma(xs)
        assert out.shape == xs.shape
        assert out[0, 1] == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -3.5, float("nan"), float("inf")])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            ln_gamma(bad)


class TestLnGammaSigned:
    def test_negative_half(self):
        # Gamma(-1/2) = -2 sqrt(pi)
        val, sign = _ln_gamma_signed(-0.5)
        assert sign == -1.0
        assert val == pytest.approx(math.log(2.0 * math.sqrt(math.pi)), abs=1e-13)

    def test_negative_three_halves(self):
        # Gamma(-3/2) = 4 sqrt(pi) / 3
        val, sign = _ln_gamma_signed(-1.5)
        assert sign == 1.0
        assert val == pytest.approx(math.log(4.0 * math.sqrt(math.pi) / 3.0), abs=1e-13)

    @pytest.mark.parametrize("pole", [0.0, -1.0, -2.0, -7.0])
    def test_poles_raise(self, pole):
        with pytest.raises(ValueError):
            _ln_gamma_signed(pole)


class TestBetaFn:
    def test_half_half(self):
        assert beta_fn(0.5, 0.5) == pytest.approx(math.pi, rel=1e-14)

    def test_integer_case(self):
        # B(2, 3) = 1! 2! / 4! = 1/12
        assert beta_fn(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-14)

    @given(
        st.floats(min_value=0.05, max_value=30.0),
        st.floats(min_value=0.05, max_value=30.0),
    )
    def test_symmetry(self, a, b):
        assert beta_fn(a, b) == pytest.approx(beta_fn(b, a), rel=1e-13)

    @given(st.floats(min_value=0.05, max_value=50.0))
    def test_right_unit(self, a):
        # B(a, 1) = 1/a
        assert beta_fn(a, 1.0) == pytest.approx(1.0 / a, rel=1e-13)


def mixed_pair_lanes():
    """First arguments on a (6, 9) grid with four interleaved (a, b) pairs,
    edge values included."""
    rng = np.random.default_rng(11)
    v = rng.uniform(0.0, 1.0, (6, 9))
    v[0, :2] = 0.0, 1.0
    pairs = np.array([(0.4, 2.2), (2.2, 0.4), (3.0, 12.5), (0.5, 0.5)])
    a, b = pairs[rng.integers(0, len(pairs), v.shape)].transpose(2, 0, 1)
    return v, a, b


def pairs_of(a, b):
    return {(float(x), float(y)) for x, y in zip(a.ravel(), b.ravel())}


def assert_equals_per_pair(fn, v, a, b):
    """Per (a, b) pair, one call on the lanes of that pair gives the bytes
    of one scalar call per lane."""
    for ak, bk in pairs_of(a, b):
        lanes = (a == ak) & (b == bk)
        out = fn(v[lanes], ak, bk)
        assert np.array_equal(out, [fn(float(x), ak, bk) for x in v[lanes]])


def per_pair(fn, v, a, b):
    """fn over the rows of a (pairs, points) grid, one call per pair."""
    return np.array([fn(v[k], float(a[k, 0]), float(b[k, 0])) for k in range(len(v))])


def scipy_sweep():
    """200 log-uniform (a, b) pairs on [0.05, 50], 200 uniform points each."""
    rng = np.random.default_rng(20261018)
    a, b = np.exp(rng.uniform(math.log(0.05), math.log(50.0), (2, 200, 1)))
    return rng.uniform(0.0, 1.0, (200, 200)), a, b


class TestRegIncBeta:
    # frozen with mpmath (betainc regularized) at 34 significant digits
    @pytest.mark.parametrize(
        "x, a, b, expected",
        [
            (0.3, 0.5, 1.5, 0.660745949143545146335),
            (0.7, 2.5, 0.7, 0.2882792537446809419672),
            (0.9, 4.0, 0.2, 0.153664104066803861779),
            (0.001, 0.5, 3.0, 0.05925318951594623398066),
            (0.6, 8.0, 12.0, 0.964772096699636105836),
            (0.25, 0.5, 1.5, 0.608997781044229358089),
        ],
    )
    def test_frozen_values(self, x, a, b, expected):
        assert reg_inc_beta(x, a, b) == pytest.approx(expected, abs=1e-13)

    def test_edges_exact(self):
        assert reg_inc_beta(0.0, 2.0, 3.0) == 0.0
        assert reg_inc_beta(1.0, 2.0, 3.0) == 1.0

    @given(
        # dyadic x so that 1 - x is exact and the identity is clean in
        # floating point; otherwise the test measures rounding of 1 - x,
        # not the routine
        st.integers(min_value=1, max_value=2**20 - 1),
        st.floats(min_value=0.1, max_value=20.0),
        st.floats(min_value=0.1, max_value=20.0),
    )
    def test_reflection(self, k, a, b):
        x = k * 2.0**-20
        assert reg_inc_beta(x, a, b) == pytest.approx(
            1.0 - reg_inc_beta(1.0 - x, b, a), abs=1e-12
        )

    def test_monotone_in_x(self):
        xs = np.linspace(0.0, 1.0, 101)
        vals = reg_inc_beta(xs, 0.4, 2.7)
        assert np.all(np.diff(vals) >= 0.0)

    def test_against_scipy(self):
        xs = np.linspace(0.0, 1.0, 23)
        for a in (0.2, 0.5, 1.0, 3.3, 12.0):
            for b in (0.3, 1.0, 4.5, 9.0):
                ours = reg_inc_beta(xs, a, b)
                ref = scipy.special.betainc(a, b, xs)
                assert np.max(np.abs(ours - ref)) <= 1e-13

    def test_broadcasting(self):
        # x broadcasts; a and b are scalars, so three pairs are three calls
        assert reg_inc_beta(np.full((2, 3), 0.4), 2.0, 1.5).shape == (2, 3)
        x, b = [0.2, 0.5, 0.8], [1.0, 2.0, 3.0]
        out = [reg_inc_beta(xk, 2.0, bk) for xk, bk in zip(x, b)]
        np.testing.assert_allclose(out, scipy.special.betainc(2.0, b, x), rtol=0.0, atol=1e-13)

    def test_mixed_pairs_equal_scalar_calls(self):
        assert_equals_per_pair(reg_inc_beta, *mixed_pair_lanes())

    def test_against_scipy_sweep(self):
        x, a, b = scipy_sweep()
        assert np.max(np.abs(per_pair(reg_inc_beta, x, a, b) - scipy.special.betainc(a, b, x))) <= 1e-13

    @pytest.mark.parametrize(
        "x, a, b", [(1e-6, 0.5, 1e6), (1e-7, 0.5, 1e7), (5e-9, 0.5, 1e8), (0.3, 1e3, 2e3)]
    )
    def test_large_b(self, x, a, b):
        # these were off by up to 7.6e-10 while ln B cancelled ln Gamma terms
        assert reg_inc_beta(x, a, b) == pytest.approx(scipy.special.betainc(a, b, x), abs=1e-13)

    def test_nonconvergence_names_lane(self, monkeypatch):
        monkeypatch.setattr(specfun, "_CF_MAX_ITER", 2)
        with pytest.raises(ValueError, match=r"in 2 steps at x = 0\.3, a = 2\.0, b = 3\.0"):
            reg_inc_beta(0.3, 2.0, 3.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            reg_inc_beta(-0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            reg_inc_beta(0.5, np.nan, 1.0)


@pytest.fixture
def forward_lanes(monkeypatch):
    """Counts the lanes the inverse hands reg_inc_beta, its seed table's
    included, through the module global it calls."""
    lanes = [0]
    forward = specfun.reg_inc_beta

    def counted(x, a, b):
        lanes[0] += np.size(x)
        return forward(x, a, b)

    monkeypatch.setattr(specfun, "reg_inc_beta", counted)
    return lanes


# the (d/beta, gamma + 1) of the benchmark's sample members
SAMPLE_PAIRS = [(0.5, 1.5), (0.4, 1.8), (2.0 / 3.0, 3.0), (1.0 / 3.0, 2.0), (0.5, 3.5),
                (4.0 / 3.0, 2.0), (2.0, 2.2), (1.5, 3.0), (2.0, 2.5), (2.5, 2.5)]
SMALL_B_PAIRS = [(4.0, 0.2), (0.05, 0.05), (9.1, 0.068)]


def sample_member_lanes():
    """(a, b, p) for each sample member: 2e4 open uniforms from one stream."""
    rng = np.random.default_rng(7001)
    return [(a, b, rng.random(20_000) + 2.0**-54) for a, b in SAMPLE_PAIRS]


def small_b_lanes():
    rng = np.random.default_rng(20261018)
    return np.concatenate([rng.uniform(0.0, 1.0, 4000), [0.5, 1.0 - 1e-6], [1e-6, 1e-16]])


def tail_lanes(rng, n):
    """n uniform p, then n/4 down to 1e-30 and n/4 up to 1 - 1e-12, both
    log-uniform in their tail."""
    return np.concatenate([
        rng.uniform(0.0, 1.0, n),
        np.exp(rng.uniform(math.log(1e-30), math.log(0.5), n // 4)),
        -np.expm1(rng.uniform(math.log(1e-12), math.log(0.5), n // 4)),
    ])


def wide_pair_lanes():
    """Lanes in both tails at (1/2, 1e6 + 1) and (1e5, 1e5), where the
    forward itself is only good to about 1e-11."""
    rng = np.random.default_rng(2021)
    return [(a, b, tail_lanes(rng, 2000)) for a, b in [(0.5, 1e6 + 1.0), (1e5, 1e5)]]


def assert_root_or_sign_change(x, p, a, b):
    """Every lane ends at a direct |I_x - p| <= 1e-13 or within one ulp of
    the sign change."""
    r = reg_inc_beta(x, a, b) - p
    far = np.abs(r) > 1e-13
    r_lo = reg_inc_beta(np.nextafter(x[far], 0.0), a, b) - p[far]
    r_hi = reg_inc_beta(np.minimum(np.nextafter(x[far], 1.0), 1.0), a, b) - p[far]
    assert np.all(np.minimum(r_lo, r[far]) <= 0.0), (a, b)
    assert np.all(np.maximum(r_hi, r[far]) >= 0.0), (a, b)


class TestInvRegIncBeta:
    def test_frozen_value(self):
        # mpmath root of I_x(2.5, 0.7) = 0.3
        assert inv_reg_inc_beta(0.3, 2.5, 0.7) == pytest.approx(
            0.7097758912148804457318, abs=1e-12
        )

    def test_edges(self):
        assert inv_reg_inc_beta(0.0, 1.3, 2.1) == 0.0
        assert inv_reg_inc_beta(1.0, 1.3, 2.1) == 1.0

    @given(
        st.floats(min_value=1e-12, max_value=1.0 - 1e-12),
        st.floats(min_value=0.15, max_value=25.0),
        st.floats(min_value=0.15, max_value=25.0),
    )
    @settings(max_examples=200)
    def test_roundtrip(self, p, a, b):
        x = inv_reg_inc_beta(p, a, b)
        assert 0.0 <= x <= 1.0
        r = reg_inc_beta(x, a, b) - p
        if abs(r) > 1e-11:
            # steep quantiles: the residual is quantization-limited, but
            # then the sign must flip within one ulp of the answer
            r_lo = reg_inc_beta(max(np.nextafter(x, 0.0), 0.0), a, b) - p
            r_hi = reg_inc_beta(min(np.nextafter(x, 1.0), 1.0), a, b) - p
            assert min(r_lo, r, r_hi) <= 0.0 <= max(r_lo, r, r_hi)

    def test_extreme_tails(self):
        # seeds must carry tiny quantiles without bracket collapse
        for p in (1e-30, 1e-16, 1.0 - 1e-16):
            x = inv_reg_inc_beta(p, 1.0 / 3.0, 1.5)
            assert reg_inc_beta(x, 1.0 / 3.0, 1.5) == pytest.approx(p, abs=1e-13)

    def test_vectorized(self):
        ps = np.linspace(0.001, 0.999, 57)
        xs = inv_reg_inc_beta(ps, 0.5, 2.5)
        assert xs.shape == ps.shape
        assert np.all(np.diff(xs) > 0.0)
        assert np.max(np.abs(reg_inc_beta(xs, 0.5, 2.5) - ps)) <= 1e-12

    def test_mixed_pairs_equal_scalar_calls(self):
        assert_equals_per_pair(inv_reg_inc_beta, *mixed_pair_lanes())

    def test_against_scipy_sweep(self):
        p, a, b = scipy_sweep()
        got = per_pair(inv_reg_inc_beta, p, a, b)
        assert np.max(np.abs(got - scipy.special.betaincinv(a, b, p))) <= 1e-10

    @pytest.mark.parametrize("a, b", SMALL_B_PAIRS)
    def test_against_scipy_small_b(self, a, b, forward_lanes):
        # b < 1: the density blows up at x = 1, so near there the ulp of x
        # keeps the residual above 1e-13 and lanes end on a pinched bracket
        p = small_b_lanes()
        x = inv_reg_inc_beta(p, a, b)
        # a step below half an ulp moves one ulp, so pinched lanes cost no
        # more than the rest
        assert forward_lanes[0] <= 3.5 * p.size
        # the last two lanes sit in the flat lower tail, where the absolute
        # stopping rule bounds I_x, not x (at (9.1, 0.068) it lets x be off
        # by 4e-9 at p = 1e-6 and by 3e-2 at p = 1e-16), so they only take
        # the check below
        assert np.max(np.abs(x - scipy.special.betaincinv(a, b, p))[:-2]) <= 1e-10
        assert_root_or_sign_change(x, p, a, b)

    def test_large_b_against_mpmath(self):
        # (1/2, 1e6 + 1): the reference roots take Newton steps at 50
        # digits on I_u = (2/B) int_0^sqrt(u) (1 - s^2)^(b-1) ds
        mpmath = pytest.importorskip("mpmath")
        a, b = 0.5, 1e6 + 1.0
        p = np.array([1e-12, 1e-6, 0.01, 0.2, 0.5, 0.8, 0.99, 1.0 - 1e-9])
        x = inv_reg_inc_beta(p, a, b)
        with mpmath.workdps(50):
            beta = mpmath.beta(a, b)

            def cdf(u):
                root = mpmath.sqrt(u)
                return 2 * mpmath.quad(lambda s: (1 - s * s) ** (b - 1), [0, root]) / beta

            def pdf(u):
                return u ** (a - 1) * (1 - u) ** (b - 1) / beta

            ref = []
            for pk in p:
                u = mpmath.mpf(float(scipy.special.betaincinv(a, b, pk)))
                for _ in range(5):
                    u -= (cdf(u) - mpmath.mpf(float(pk))) / pdf(u)
                ref.append(float(u))
        # relative below p = 1 - 1e-9: the lower tail's x lies far below
        # any absolute bound.  At p = 1 - 1e-9 the density is 1e-3, so
        # |I_x - p| <= 1e-13 holds x only to 1e-10, the sweep's bound
        ref = np.array(ref)
        assert np.all(np.abs(x - ref)[:-1] <= 1e-10 * ref[:-1])
        assert abs(x[-1] - ref[-1]) <= 1e-10

    def test_work_per_lane_on_sample_members(self, forward_lanes):
        # the (d/beta, gamma + 1) of the benchmark's sample members: 1.007
        # to 1.08 lanes per lane, the seed's direct evaluation and the
        # table.  Confirming the Halley step by a second direct evaluation
        # took 2.0 to 2.08, a linear start 2.7 to 3.0, Newton steps 2.3 to
        # 2.8 and the analytic seed of old 4.8 to 5.8
        for a, b, p in sample_member_lanes():
            forward_lanes[0] = 0
            inv_reg_inc_beta(p, a, b)
            assert forward_lanes[0] <= 1.1 * p.size, (a, b)

    def test_every_lane_meets_the_direct_residual(self):
        # a lane whose step the density increment confirms must also meet
        # |I_x - p| <= 1e-13 by a direct evaluation, or sit within one ulp
        # of the sign change (a pinched bracket), as every other lane does
        rng = np.random.default_rng(2110)
        for a, b in np.exp(rng.uniform(math.log(0.05), math.log(1e3), (40, 2))):
            p = tail_lanes(rng, 1000)
            assert_root_or_sign_change(inv_reg_inc_beta(p, a, b), p, a, b)

    @pytest.mark.parametrize(
        "lanes, digest",
        [
            (sample_member_lanes,
             "a03075504d86bccaf6ab60b9103ea9dff22ab021daae8fb4e2aa36afa84384b7"),
            (lambda: [(a, b, small_b_lanes()) for a, b in SMALL_B_PAIRS],
             "f6e7486184b7cd0500a473cc7569a92016c86c2f927227e6638514a6e7f5cf6a"),
            (wide_pair_lanes,
             "83e65c27738b743b7f6149a718281936b9a32ce9ed8f6d1e686abe679627b1fd"),
        ],
        ids=["sample-members", "small-b", "wide-pairs"],
    )
    def test_pinned_bytes(self, lanes, digest):
        # SHA-256 of the float64 roots: a change to how a step is confirmed
        # must return the same x on every lane
        h = hashlib.sha256()
        for a, b, p in lanes():
            h.update(inv_reg_inc_beta(p, a, b).tobytes())
        assert h.hexdigest() == digest

    def test_nonconvergence_names_lane_and_stage(self, monkeypatch):
        # at (0.05, 0.05) the lane p = 1e-20 meets 1e-13 at its seed and is
        # dropped before the step; p = 0.9 (x = 1 - 1e-14) is still 3e-5
        # off after one Halley step, and the error must name it
        monkeypatch.setattr(specfun, "_INV_BETA_MAX_NEWTON", 1)
        with pytest.raises(ValueError) as exc:
            inv_reg_inc_beta(np.array([1e-20, 0.9]), 0.05, 0.05)
        msg = str(exc.value)
        assert "p = 0.9, a = 0.05, b = 0.05" in msg
        assert "Newton budget of 1 steps" in msg and "final residual" in msg


@pytest.mark.parametrize("fn", [reg_inc_beta, inv_reg_inc_beta])
@pytest.mark.parametrize("a, b", [(np.array([2.0, 3.0]), 1.5), (2.0, np.array([1.5])), ([2.0], [1.5])])
def test_array_pair_refused(fn, a, b):
    with pytest.raises(ValueError, match=r"^\w+ takes scalar a and b$"):
        fn(0.3, a, b)


class TestBesselJ:
    # frozen with mpmath besselj at 34 significant digits
    @pytest.mark.parametrize(
        "mu, x, expected",
        [
            (1.0, 10.0, 0.04347274616886143666975),
            (0.0, 100.0, 0.01998585030422312242423),
            (1.0, 1000.0, 0.004728311907089523917576),
            (1.5, 2.7, 0.5158581460335064792763),
            (0.5, 50.0, -0.02960583188892461256803),
            (2.5, 30.0, 0.1412028587992821203562),
            (0.0, 14.0, 0.1710734761104586590631),
            (0.0, 5.0, -0.1775967713143383043474),
            (1.0, 5.0, -0.3275791375914652220377),
        ],
    )
    def test_frozen_values(self, mu, x, expected):
        # absolute tolerance: phase-reduction rounding grows ~ eps * x
        assert bessel_j(mu, x) == pytest.approx(expected, abs=1e-11)

    def test_at_zero(self):
        assert bessel_j(0.0, 0.0) == 1.0
        assert bessel_j(1.0, 0.0) == 0.0
        assert bessel_j(0.5, 0.0) == 0.0

    def test_half_order_closed_form(self):
        # J_{1/2}(x) = sqrt(2/(pi x)) sin x on both sides of the cutoff
        for x in (0.7, 3.0, 13.9, 14.1, 40.0):
            ref = math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
            assert bessel_j(0.5, x) == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.0, 1.5, 2.0, 8.0, 19.5])
    def test_route_overlap(self, mu):
        # the routes agree where one hands over to the next: the series and
        # Miller's recurrence for h_mu across max(8, 4 sqrt(mu+1)), Miller's
        # recurrence and the Hankel start carried up for J_mu across max(16, mu)
        reach = max(8.0, 4.0 * math.sqrt(mu + 1.0))
        xs = np.linspace(reach - 2.0, reach + 2.0, 33)
        assert np.max(np.abs(_bessel_series(mu, xs) - _bessel_miller(mu, xs))) <= 1e-12
        cut = max(16.0, mu)
        xs = np.linspace(cut, cut + 4.0, 33)
        scale = np.exp(mu * np.log(0.5 * xs) - math.lgamma(mu + 1.0))
        assert np.max(np.abs(_bessel_miller(mu, xs) * scale - _bessel_upward(mu, xs))) <= 1e-12

    def test_against_scipy(self):
        xs = np.linspace(0.01, 60.0, 97)
        for mu in (0.0, 0.5, 1.0, 1.5, 2.5):
            ours = bessel_j(mu, xs)
            ref = scipy.special.jv(mu, xs)
            assert np.max(np.abs(ours - ref)) <= 1e-10

    @pytest.mark.parametrize("mu", [8.0, 8.5, 10.0, 20.0, 40.0])
    def test_high_orders_against_scipy(self, mu):
        # the orders of the radial route from d = 18 on; below x = mu/2, short
        # of the first zero, J is positive and held to a relative bound too
        xs = np.linspace(0.01, 200.0, 4000)
        ours, ref = bessel_j(mu, xs), scipy.special.jv(mu, xs)
        assert np.max(np.abs(ours - ref)) <= 1e-12
        low = xs <= 0.5 * mu
        assert np.max(np.abs(ours[low] / ref[low] - 1.0)) <= 1e-11

    @pytest.mark.parametrize("mu", [215.5, 1500.0])
    def test_largest_orders_against_scipy(self, mu):
        # 215.5 is the order of d = 433, the largest d new_family accepts at
        # c = 1; 1500 is the largest order accepted
        xs = np.linspace(0.0, 3000.0, 6001)
        assert np.max(np.abs(bessel_j(mu, xs) - scipy.special.jv(mu, xs))) <= 1e-12

    def test_order_above_bound_refused(self):
        with pytest.raises(ValueError, match=r"^mu must lie in \[0, 1500\], got 1500.5$"):
            bessel_j(1500.5, 1.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            bessel_j(-1.0, 2.0)
        with pytest.raises(ValueError):
            bessel_j(1.0, -2.0)


class TestSphereSurface:
    @pytest.mark.parametrize(
        "d, expected",
        [
            (1, 2.0),
            (2, 2.0 * math.pi),
            (3, 4.0 * math.pi),
            (4, 2.0 * math.pi**2),
            (5, 8.0 * math.pi**2 / 3.0),
        ],
    )
    def test_known_dimensions(self, d, expected):
        assert sphere_surface(d) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("bad", [0, -1, 2.5, pytest.param(np.float64(2.5), id="float64-2.5")])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            sphere_surface(bad)
        with pytest.raises(ValueError):
            ln_sphere(bad)

    @pytest.mark.parametrize("d", [1, 2, 3, 7, 12, 40])
    def test_log_form(self, d):
        assert ln_sphere(d) == pytest.approx(math.log(sphere_surface(d)), rel=1e-14, abs=1e-15)

    def test_integer_spellings_agree(self):
        assert ln_sphere(np.int64(3)) == ln_sphere(3.0) == ln_sphere(3)
        assert type(ln_sphere(np.int64(3))) is float

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 40])
    def test_bit_equal_to_closed_form(self, d):
        # the cached value is the uncached expression, bit for bit
        want = math.log(2.0) + 0.5 * d * math.log(math.pi) - ln_gamma(0.5 * d)
        assert ln_sphere(d) == want


class TestLnBeta:
    def test_against_scipy(self):
        a = np.array([1e-3, 0.5, 1.0, 3.7, 40.0, 250.0])
        b = a[:, None]
        np.testing.assert_allclose(ln_beta(a, b), scipy.special.betaln(a, b), rtol=1e-12, atol=1e-13)

    def test_scalar_in_float_out(self):
        val = ln_beta(2.0, 3.0)
        assert isinstance(val, float)
        assert val == pytest.approx(math.log(1.0 / 12.0), rel=1e-14)

    # frozen with mpmath at 40 significant digits; scipy's betaln takes
    # ln Gamma differences here and is itself off by up to 1.5e-10
    @pytest.mark.parametrize(
        "a, b, expected",
        [
            (0.5, 1e5, -5.184096539560414128182),
            (0.5, 1e6, -6.335390211057436964987),
            (3.0, 1e8, -54.56889508129715085701),
            (1e4, 1e8, -102107.5898764179438155),
            (1e8, 1e8, -138629444.056817309125),
            (0.3, 10.0, 0.4155886887611882265),
            (12.5, 40.1, -29.04416565783392430094),
            (1e-3, 1e8, 6.888758204644896295836),
        ],
    )
    def test_large_arguments_frozen(self, a, b, expected):
        assert ln_beta(a, b) == pytest.approx(expected, rel=1e-13)
        assert ln_beta(b, a) == ln_beta(a, b)

    def test_against_mpmath_up_to_1e8(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(20261018)
        a, b = np.exp(rng.uniform(math.log(1e-3), math.log(1e8), (2, 300)))
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.log(mpmath.beta(x, y))) for x, y in zip(a, b)])
        assert np.max(np.abs(ln_beta(a, b) - ref) / np.abs(ref)) <= 1e-13

    def test_gamma_sum_below_ten(self):
        # below max(a, b) = 10 the value is the ln Gamma sum, to the bit
        a = np.array([1e-3, 0.4, 1.0, 2.5, 9.99])
        b = a[:, None]
        assert np.array_equal(ln_beta(a, b), ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b))

    def test_scalar_path_bit_equal_to_array_path(self):
        # scalar (a, b) take np.float64 formulas; they must give the array
        # path's bits in each branch: reflection (< 0.5), Lanczos (< 10)
        # and the Stirling difference (max(a, b) >= 10)
        rng = np.random.default_rng(20261018)
        a = np.concatenate([rng.uniform(1e-3, 0.5, 400), rng.uniform(0.5, 10.0, 400),
                            np.exp(rng.uniform(math.log(10.0), math.log(1e8), 400))])
        b = rng.permutation(a)
        assert np.array_equal([ln_beta(x, y) for x, y in zip(a, b)], ln_beta(a, b))
        assert np.array_equal([ln_gamma(x) for x in a], ln_gamma(a))
        assert type(ln_beta(np.float64(2.0), 3)) is float and type(ln_gamma(np.int64(3))) is float

    @pytest.mark.parametrize(
        "a, b",
        [(0.0, 1.0), (1.0, -2.0), (np.inf, 1.0), (np.nan, 20.0), (20.0, np.nan),
         (np.array([1.0, 0.0]), 2.0)],
    )
    def test_domain(self, a, b):
        with pytest.raises(ValueError):
            ln_beta(a, b)


class TestIntegrate:
    def test_polynomial(self):
        assert integrate(lambda x: x * x, 0.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_sin(self):
        assert integrate(np.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-11)

    def test_empty_interval(self):
        assert integrate(np.exp, 1.3, 1.3) == 0.0

    def test_reversed_limits(self):
        assert integrate(lambda x: x, 1.0, 0.0) == pytest.approx(-0.5, abs=1e-12)

    def test_oscillatory(self):
        assert integrate(np.cos, 0.0, 10.0 * math.pi) == pytest.approx(0.0, abs=1e-9)

    def test_scalar_returning_integrand(self):
        assert integrate(lambda x: 2.0, 0.0, 3.0) == pytest.approx(6.0, abs=1e-12)

    def test_endpoint_inverse_sqrt(self):
        # integrable singularity at 1: panels collide with the endpoint at
        # width ~4e-14, capping achievable accuracy near 1e-7, far above
        # the fixed 1e-11 tolerance; the integrator says so instead of
        # returning a number it cannot vouch for
        with pytest.raises(QuadratureError):
            integrate(lambda x: 1.0 / np.sqrt(1.0 - x), 0.0, 1.0)

    def test_divergent_raises(self):
        with pytest.raises(QuadratureError):
            integrate(lambda x: 1.0 / x, 0.0, 1.0)

    def test_non_finite_raises(self):
        def f(x):
            return np.where(x > 0.5, np.nan, 1.0)

        with pytest.raises(QuadratureError):
            integrate(f, 0.0, 1.0)

    def test_gaussian_against_erf(self):
        val = integrate(lambda x: np.exp(-x * x), -6.0, 6.0)
        assert val == pytest.approx(math.sqrt(math.pi) * math.erf(6.0), rel=1e-11)

    def test_scalar_integrand_gives_float(self):
        assert type(integrate(np.sin, 0.0, 1.0)) is float
        assert type(integrate(lambda x: 2.0, 0.0, 1.0)) is float

    def test_columns_meet_their_own_tolerance(self):
        # column k is cos(k x) on [0, 1], whose integral is sin(k)/k
        k = np.arange(41.0)
        got = integrate(lambda x: np.cos(np.multiply.outer(x, k)), 0.0, 1.0)
        want = np.ones_like(k)
        want[1:] = np.sin(k[1:]) / k[1:]
        assert got.shape == (41,)
        assert np.all(np.abs(got - want) <= np.maximum(1e-11, 1e-11 * np.abs(want)))

    def test_columns_cost_no_more_calls_than_the_hardest_alone(self):
        k = np.arange(41.0)

        def calls(ks):
            count = []

            def f(x):
                count.append(x.size)
                return np.cos(np.multiply.outer(x, ks))

            integrate(f, 0.0, 1.0)
            return len(count)

        hardest = max(calls(k[j : j + 1]) for j in range(k.size))
        assert calls(k) <= hardest

    def test_one_column_is_an_array(self):
        got = integrate(lambda x: x[:, None] ** 2, 0.0, 1.0)
        assert got.shape == (1,)
        assert got[0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_reversed_limits_negate_every_column(self):
        f = lambda x: np.stack([x, x * x], axis=1)
        np.testing.assert_allclose(integrate(f, 1.0, 0.0), [-0.5, -1.0 / 3.0], atol=1e-12)

    def test_bad_integrand_shape_raises(self):
        with pytest.raises(QuadratureError, match="shape"):
            integrate(lambda x: np.ones((x.size, 2, 2)), 0.0, 1.0)
        with pytest.raises(QuadratureError, match="shape"):
            integrate(lambda x: np.ones(x.size + 1), 0.0, 1.0)

    def test_subdivision_cap(self, monkeypatch):
        monkeypatch.setattr(specfun, "_MAX_SUBDIVISIONS", 3)
        with pytest.raises(QuadratureError, match="3 subdivisions exhausted") as exc:
            integrate(lambda x: np.cos(40.0 * x), 0.0, 1.0)
        assert "on [0.0, 1.0] (error estimate" in str(exc.value)
        # a vector integrand also names its worst open column: cos(40 x)
        k = np.array([0.0, 3.0, 40.0, 5.0])
        with pytest.raises(QuadratureError, match="3 subdivisions exhausted") as exc:
            integrate(lambda x: np.cos(np.multiply.outer(x, k)), 1.0, -2.0)
        assert "on [-2.0, 1.0] (column 2, error estimate" in str(exc.value)

    def test_unattainable_tolerance_names_interval_and_column(self):
        # a 1e20 step inside an interval narrower than the floating-point
        # width: no panel can be bisected and K15 - G7 stays near 1e5
        lo, hi = 0.5, 0.5 + 1e-14
        step = lambda x: 1e20 * (x > lo + 5e-15)
        where = f"tolerance unattainable on [{lo!r}, {hi!r}]: all panels at floating-point width"
        with pytest.raises(QuadratureError) as exc:
            integrate(step, lo, hi)
        assert str(exc.value).startswith(where + " (error estimate")
        with pytest.raises(QuadratureError) as exc:
            integrate(lambda x: np.stack([x, 2.0 * step(x), step(x)], axis=1), lo, hi)
        assert str(exc.value).startswith(where + " (column 1, error estimate")



class TestGaussKronrod:
    # skewed about 0, so odd powers do not cancel by symmetry
    LO, HI = -0.4, 1.0

    def panel(self, k):
        exact = (self.HI ** (k + 1) - self.LO ** (k + 1)) / (k + 1)
        vals, errs = _eval_panels(lambda x: x**k, np.array([self.LO]), np.array([self.HI]))
        return exact, vals[0], errs[0]

    @pytest.mark.parametrize("k", range(24))
    def test_kronrod_value_exact_to_degree_23(self, k):
        exact, val, _ = self.panel(k)
        assert abs(val - exact) <= 1e-14 * abs(exact)

    def test_kronrod_value_not_exact_at_degree_24(self):
        exact, val, _ = self.panel(24)
        assert abs(val - exact) > 1e-12 * abs(exact)

    @pytest.mark.parametrize("k", range(14))
    def test_gauss_estimate_vanishes_to_degree_13(self, k):
        # |K15 - G7| is rounding-sized only while G7 is exact as well
        exact, _, err = self.panel(k)
        assert err <= 1e-14 * abs(exact)

    def test_gauss_estimate_sees_degree_14(self):
        exact, _, err = self.panel(14)
        assert err > 1e-6 * abs(exact)

    def test_one_call_with_15_nodes_per_panel(self):
        calls = []

        def f(x):
            calls.append(np.array(x))
            return np.stack([np.ones_like(x), x], axis=1)

        a = np.array([0.0, 1.0, 3.0])
        b = np.array([1.0, 3.0, 3.5])
        vals, errs = _eval_panels(f, a, b)
        assert len(calls) == 1
        nodes = calls[0].reshape(3, 15)
        assert np.all((nodes > a[:, None]) & (nodes < b[:, None]))
        assert np.all(np.diff(nodes, axis=1) > 0.0)
        # (panels, columns)
        assert vals.shape == errs.shape == (3, 2)
        np.testing.assert_allclose(vals[:, 0], b - a, rtol=1e-15)
        np.testing.assert_allclose(vals[:, 1], 0.5 * (b * b - a * a), rtol=1e-15)
        # a 1-d integrand is one column, returned as (panels,)
        vals, errs = _eval_panels(np.cos, a, b)
        assert vals.shape == errs.shape == (3,)

    def test_integrate_bisects_a_pass_in_one_call(self):
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.exp(np.sin(7.0 * x))

        integrate(f, 0.0, 4.0)
        # the graded start mesh, then per pass two halves of every marked
        # panel, and some pass marks more than one
        assert sizes[0] == 15 * 2 * specfun._GRADE_LEVELS
        assert len(sizes) > 1
        assert all(s % (2 * 15) == 0 for s in sizes[1:])
        assert max(sizes[1:]) > 2 * 15


@pytest.fixture
def passes(monkeypatch):
    """Counts integrand calls, one per quadrature pass."""
    count = [0]
    inner = specfun._eval_panels

    def counted(f, a, b):
        count[0] += 1
        return inner(f, a, b)

    monkeypatch.setattr(specfun, "_eval_panels", counted)
    return count


class TestGradedStart:
    """The start mesh of `integrate` is graded toward both ends, so an
    algebraic endpoint weight needs no grading passes of its own.  A
    one-panel start takes 5-34 passes on these weights."""

    @pytest.mark.parametrize("p", [-0.9, -0.5, 0.5, 2.5])
    def test_power_weight_at_each_end(self, passes, p):
        # s^p at one end beside (1 - s)^(1/2) at the other, through the
        # Beta average the transforms use: one integrate call for each end,
        # at most two passes.  At p = -0.9 the map u = y^10/2 is steep
        # toward the junction u = 1/2, which the start mesh does not grade,
        # so it takes three
        for a, b in [(p + 1.0, 1.5), (1.5, p + 1.0)]:
            passes[0] = 0
            assert abs(_beta_mean(np.ones_like, a, b) - 1.0) <= 1e-12
            assert passes[0] <= (3 if p == -0.9 else 2)

    @pytest.mark.parametrize("p", [0.5, 2.5])
    def test_power_weight_directly(self, passes, p):
        want = 1.0 / (p + 1.0)
        assert abs(integrate(lambda s: s**p, 0.0, 1.0) - want) <= 1e-12
        assert abs(integrate(lambda s: (1.0 - s) ** p, 0.0, 1.0) - want) <= 1e-12
        # two integrate calls, at most two passes each
        assert passes[0] <= 2 * 2

    @pytest.mark.parametrize(
        "f, lo, hi, want, one_panel_passes",
        [
            (lambda x: np.exp(np.sin(7.0 * x)), 0.0, 4.0, 5.387586182854065, 6),
            (lambda x: np.cos(30.0 * x), 0.0, 20.0, math.sin(600.0) / 30.0, 9),
        ],
        ids=["smooth", "wide-oscillatory"],
    )
    def test_no_more_passes_than_a_one_panel_start(self, passes, f, lo, hi, want, one_panel_passes):
        assert integrate(f, lo, hi) == pytest.approx(want, rel=1e-11, abs=1e-11)
        assert passes[0] <= one_panel_passes

    def test_zero_width_interval(self, passes):
        # every start panel collapses onto lo: one pass, exactly 0
        got = integrate(np.exp, 1.3, 1.3)
        assert type(got) is float and got == 0.0
        got = integrate(lambda x: np.stack([x, np.exp(x)], axis=1), -2.0, -2.0)
        assert got.shape == (2,) and np.all(got == 0.0)
        assert passes[0] == 2

    def test_interval_below_floating_point_resolution(self):
        # the start mesh collapses to a few distinct edges plus zero-width
        # panels, which add nothing
        lo = 1.0
        hi = np.nextafter(np.nextafter(lo, 2.0), 2.0)
        assert integrate(lambda x: np.ones_like(x), lo, hi) == pytest.approx(hi - lo, rel=1e-14)

    def test_reversed_limits_negate_exactly(self):
        f = lambda s: np.sqrt(s) * np.cos(3.0 * s)
        forward = integrate(f, 0.0, 2.0)
        assert integrate(f, 2.0, 0.0) == -forward
        assert integrate(lambda s: s**0.5, 1.0, 0.0) == pytest.approx(-2.0 / 3.0, abs=1e-12)
