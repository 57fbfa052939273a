"""Tests for the Riemann-Liouville operators and the time-fractional
solution's residual."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from barenblatt.fractional import (
    fbe_residual,
    fractional_solution,
    rl_derivative_numeric,
    rl_power_rule,
)
from barenblatt.presets import fractional_preset


class TestRLGrid:
    """The L1 scheme's uniform grid: nodes 0, h, ..., t with h = t / n_steps."""

    def test_step(self):
        seen = []

        def f(s):
            seen.append(s)
            return np.ones_like(s)

        rl_derivative_numeric(f, 0.5, 1.0, 100)
        assert seen[0][1] == 0.01
        assert np.array_equal(seen[0], 0.01 * np.arange(101))

    def test_validation(self):
        f = lambda s: np.asarray(s)
        with pytest.raises(ValueError, match="t must be finite and > 0"):
            rl_derivative_numeric(f, 0.5, 0.0, 10)
        with pytest.raises(ValueError, match="n_steps must be >= 2"):
            rl_derivative_numeric(f, 0.5, 1.0, 1)
        with pytest.raises(ValueError, match=r"nu must be finite and lie in \(0, 1\)"):
            rl_derivative_numeric(f, 1.0, 1.0, 10)
        with pytest.raises(ValueError, match=r"nu must be finite and lie in \(0, 1\)"):
            rl_derivative_numeric(f, 0.0, 1.0, 10)


class TestRlPowerRule:
    def test_constant(self):
        # beta=0: t^{-nu}/Gamma(1-nu)
        assert rl_power_rule(0.0, 0.5, 1.0) == pytest.approx(
            1.0 / math.sqrt(math.pi), rel=1e-14
        )

    def test_linear(self):
        assert rl_power_rule(1.0, 0.5, 1.0) == pytest.approx(
            2.0 / math.sqrt(math.pi), rel=1e-14
        )

    def test_classical_derivative_at_nu_one(self):
        for beta_exp in (0.5, 1.0, 2.0, 3.7):
            for t in (0.4, 1.0, 2.5):
                assert rl_power_rule(beta_exp, 1.0, t) == pytest.approx(
                    beta_exp * t ** (beta_exp - 1.0), rel=1e-13
                )

    def test_negative_gamma_argument_sign(self):
        # 1+beta-nu = -0.3 puts the denominator Gamma on a negative branch
        want = math.gamma(1.2) / math.gamma(-0.3) * 1.3 ** (-1.3)
        assert rl_power_rule(0.2, 1.5, 1.3) == pytest.approx(want, rel=1e-13)

    @settings(max_examples=50, deadline=None)
    @given(
        beta_exp=st.floats(-0.9, 4.0),
        nu=st.floats(0.05, 0.95),
        t=st.floats(0.1, 5.0),
    )
    def test_round_trip(self, beta_exp, nu, t):
        # multiplying back by Gamma(1+beta-nu)/Gamma(1+beta) recovers t^{beta-nu}
        z = 1.0 + beta_exp - nu
        got = rl_power_rule(beta_exp, nu, t) * math.gamma(z) / math.gamma(
            1.0 + beta_exp
        )
        assert got == pytest.approx(t ** (beta_exp - nu), rel=1e-13)

    def test_pole_rejection(self):
        with pytest.raises(ValueError):
            rl_power_rule(-0.5, 0.5, 1.0)
        with pytest.raises(ValueError):
            rl_power_rule(0.3, 2.3, 1.0)

    @pytest.mark.parametrize(
        "exp_beta, nu, name",
        [(0.5, math.inf, "nu"), (math.inf, 0.5, "exp_beta"), (0.5, math.nan, "nu")],
    )
    def test_non_finite_arguments_refused(self, exp_beta, nu, name):
        # nu = inf used to reach round(-inf) and raise OverflowError
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            rl_power_rule(exp_beta, nu, 1.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            rl_power_rule(-1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            rl_power_rule(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            rl_power_rule(0.5, 0.5, 0.0)


class TestRlDerivativeNumeric:
    def test_constant_is_exact(self):
        # differences vanish, leaving the initial-value term, which is the
        # power rule at beta=0 exactly
        got = rl_derivative_numeric(lambda s: np.ones_like(s), 0.5, 1.0, 100)
        assert got == pytest.approx(rl_power_rule(0.0, 0.5, 1.0), rel=1e-13)

    def test_linear_is_exact(self):
        # the piecewise-linear interpolant reproduces f = t, so the scheme
        # hits the closed form at machine precision on every grid
        for n in (10, 37, 100):
            h = 1.0 / n
            t = 10 * h
            got = rl_derivative_numeric(lambda s: np.asarray(s), 0.5, t=t, n_steps=10)
            assert got == pytest.approx(rl_power_rule(1.0, 0.5, t), rel=1e-12)

    def test_quadratic_convergence_order(self):
        # O(h^{2-nu}) on smooth data; empirical order over dyadic
        # refinements within +-0.3 of nominal
        for nu in (0.3, 0.5, 0.7):
            errs = []
            for n in (64, 128, 256, 512):
                got = rl_derivative_numeric(lambda s: np.asarray(s) ** 2, nu, 1.0, n)
                errs.append(abs(got - rl_power_rule(2.0, nu, 1.0)))
            orders = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
            for o in orders:
                assert abs(o - (2.0 - nu)) <= 0.3

    def test_classical_limit(self):
        got = rl_derivative_numeric(lambda s: np.sin(s), 0.999, 1.0, 2048)
        assert got == pytest.approx(math.cos(1.0), abs=0.05)

    def test_grid_misfit_errors(self):
        # the one misfit left: fewer than 2 steps
        f = lambda s: np.asarray(s)
        for n in (0, 1):
            with pytest.raises(ValueError, match="n_steps must be >= 2"):
                rl_derivative_numeric(f, 0.5, 1.0, n)

    @pytest.mark.parametrize(
        "nu, t", [(math.nan, 1.0), (math.inf, 1.0), (0.5, math.nan), (0.5, math.inf)]
    )
    def test_non_finite_order_or_time_refused(self, nu, t):
        with pytest.raises(ValueError, match="nu must be finite|t must be finite"):
            rl_derivative_numeric(lambda s: np.asarray(s), nu, t, 10)

    @pytest.mark.parametrize("n_steps", [10.0, 2.5, True, np.float64(10.0)])
    def test_non_integer_steps_refused(self, n_steps):
        with pytest.raises(TypeError, match="n_steps must be an integer"):
            rl_derivative_numeric(lambda s: np.asarray(s), 0.5, 1.0, n_steps)

    def test_rejects_non_finite_data(self):
        with np.errstate(divide="ignore"):
            with pytest.raises(ValueError):
                rl_derivative_numeric(lambda s: 1.0 / np.asarray(s), 0.5, 1.0, 100)


class TestFractionalSolution:
    def test_center_value(self):
        fp = fractional_preset(0.2)
        for t in (0.5, 1.0, 3.0):
            assert fractional_solution(fp, 0.0, t) == pytest.approx(
                fp.C1 * t ** (-0.2), rel=1e-15
            )

    def test_near_center_quadratic(self):
        fp = fractional_preset(0.2)
        assert fractional_solution(fp, 0.1, 1.0) == pytest.approx(
            fp.C1 - fp.C2 * 0.01, rel=1e-14
        )

    def test_outside_support_exactly_zero(self):
        fp = fractional_preset(0.2)
        edge = math.sqrt(fp.C1 / fp.C2)
        assert fractional_solution(fp, edge * 1.0001, 1.0) == 0.0
        assert fractional_solution(fp, -50.0, 1.0) == 0.0

    def test_family_shape_ratio(self):
        # u is the gamma=1, beta=2, alpha=nu member up to one amplitude
        from barenblatt.family import new_family, pdf

        fp = fractional_preset(0.15)
        fam = new_family(fp.nu, 2.0, 1.0, math.sqrt(fp.C1 / fp.C2), 1)
        ratio = fp.C1 / fam.norm_c
        for x in (0.0, 0.2, 0.5):
            for t in (0.7, 1.0, 1.8):
                assert fractional_solution(fp, x, t) == pytest.approx(
                    ratio * pdf(fam, x, t) * t ** (fp.nu * 0.0), rel=1e-12
                )

    def test_elementwise(self):
        fp = fractional_preset(0.2)
        xs = np.array([0.0, 0.1, 100.0])
        out = fractional_solution(fp, xs, 1.0)
        assert out.shape == (3,) and out[2] == 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            fractional_solution(fractional_preset(0.2), 0.0, 0.0)


class TestFbeResidual:
    def test_center_point(self):
        fp = fractional_preset(0.2)
        assert abs(fbe_residual(fp, 0.0, 1.0)) < 1e-13

    def test_interior_grids(self):
        for nu in (0.1, 0.2, 0.3):
            fp = fractional_preset(nu)
            half = math.sqrt(fp.C1 / fp.C2)
            for frac in (0.0, 0.3, 0.7, 0.95):
                for t in (0.5, 1.0, 2.0):
                    x = frac * half * t**nu
                    assert abs(fbe_residual(fp, x, t)) <= 1e-12

    def test_term_balance_identities(self):
        # the residual's two monomial coefficients vanish by construction:
        # g1 C1 = 2 C2 and g3 C2 = 4 C2^2 with g1 = G(1-nu)/G(1-2nu),
        # g3 = G(1-3nu)/G(1-4nu)
        for nu in (0.1, 0.22, 0.3):
            fp = fractional_preset(nu)
            g1 = math.gamma(1.0 - nu) / math.gamma(1.0 - 2.0 * nu)
            g3 = math.gamma(1.0 - 3.0 * nu) / math.gamma(1.0 - 4.0 * nu)
            assert g1 * fp.C1 == pytest.approx(2.0 * fp.C2, rel=1e-13)
            assert g3 * fp.C2 == pytest.approx(4.0 * fp.C2**2, rel=1e-13)

    def test_outside_interior_rejected(self):
        fp = fractional_preset(0.2)
        edge = math.sqrt(fp.C1 / fp.C2)
        with pytest.raises(ValueError):
            fbe_residual(fp, edge, 1.0)
        with pytest.raises(ValueError):
            fbe_residual(fp, 2.0 * edge, 1.0)

    def test_excluded_order_rejected_upstream(self):
        with pytest.raises(ValueError):
            fractional_preset(0.25)


@pytest.mark.parametrize("t", [math.nan, math.inf, 0.0])
@pytest.mark.parametrize(
    "call",
    [
        lambda t: rl_power_rule(1.0, 0.5, t),
        lambda t: fractional_solution(fractional_preset(0.2), 0.0, t),
        lambda t: fbe_residual(fractional_preset(0.2), 0.0, t),
    ],
    ids=["rl_power_rule", "fractional_solution", "fbe_residual"],
)
def test_time_must_be_finite_and_positive(call, t):
    # t = inf used to pass the t > 0 test: rl_power_rule returned inf and
    # fractional_solution 0.0, both without a word
    with pytest.raises(ValueError, match="finite and > 0"):
        call(t)
