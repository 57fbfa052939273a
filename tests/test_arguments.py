"""One argument policy: every scalar a public function takes is refused
by name when it is NaN, +-inf or a bool.

Each row of TABLE is one public function with a valid baseline call; each
of its listed scalar parameters in turn is set to nan, inf, -inf and True,
and the call must raise ValueError or TypeError whose message starts with
that parameter's name.  Before the shared helpers in `specfun`, some of
these escaped as OverflowError or ZeroDivisionError, named another
parameter, returned NaN, or took True for 1.
"""

import math
from functools import partial

import numpy as np
import pytest

from barenblatt import family as fam_mod
from barenblatt import fractional as frac_mod
from barenblatt import presets as preset_mod
from barenblatt import sampling as samp_mod
from barenblatt import specfun
from barenblatt import transforms as trans_mod
from barenblatt import verify as verify_mod

D1 = fam_mod.new_family(0.5, 2.0, 1.0, 1.0, 1)
D3 = fam_mod.new_family(0.5, 2.0, 1.0, 1.0, 3)
FP = preset_mod.fractional_preset(0.2)
EK = trans_mod.EKParams(0.0, 1.0, 1.0)
BAD = [math.nan, math.inf, -math.inf, True]


def rng(fn):
    # a fresh stream per call, so no call depends on an earlier draw
    return lambda **kw: fn(samp_mod.RngStream(7), **kw)


# (label, callable taking the parameters by keyword, baseline keywords)
TABLE = [
    ("ln_sphere", specfun.ln_sphere, {"d": 3}),
    ("sphere_surface", specfun.sphere_surface, {"d": 3}),
    ("bessel_j", partial(specfun.bessel_j, x=1.0), {"mu": 0.5}),
    ("reg_inc_beta", partial(specfun.reg_inc_beta, 0.3), {"a": 2.0, "b": 3.0}),
    ("inv_reg_inc_beta", partial(specfun.inv_reg_inc_beta, 0.3), {"a": 2.0, "b": 3.0}),
    ("integrate", partial(specfun.integrate, np.cos), {"lo": 0.0, "hi": 1.0}),
    ("new_family", fam_mod.new_family,
     {"alpha": 0.5, "beta_exp": 2.0, "gamma_exp": 1.0, "c": 1.0, "d": 1}),
    ("support_radius", partial(fam_mod.support_radius, D1), {"t": 1.0}),
    ("pdf", partial(fam_mod.pdf, D1, 0.3), {"t": 1.0}),
    ("radial_pdf", partial(fam_mod.radial_pdf, D3, 0.3), {"t": 1.0}),
    ("ball_probability", partial(fam_mod.ball_probability, D3, 0.3), {"t": 1.0}),
    ("cdf_1d", partial(fam_mod.cdf_1d, D1, 0.3), {"t": 1.0}),
    ("quantile_1d", partial(fam_mod.quantile_1d, D1, 0.3), {"t": 1.0}),
    ("radial_moment", partial(fam_mod.radial_moment, D1), {"k": 2.0, "t": 1.0}),
    ("self_similarity_residual", partial(fam_mod.self_similarity_residual, D1, 0.1),
     {"t": 1.0, "L": 2.0}),
    ("ple_preset", preset_mod.ple_preset, {"p": 3.0, "d": 1}),
    ("npme_preset", preset_mod.npme_preset, {"m": 2.0, "nu": 1.0, "d": 1}),
    ("epd_preset", preset_mod.epd_preset, {"nu": 2.0, "c": 1.0, "d": 3}),
    ("zkb_source_preset", preset_mod.zkb_source_preset, {"m": 2.0, "d": 1}),
    ("catalan", preset_mod.catalan, {"m": 3}),
    ("fractional_preset", preset_mod.fractional_preset, {"nu": 0.2}),
    ("char_fn_1d", partial(trans_mod.char_fn_1d, D1, 1.0), {"t": 1.0}),
    ("char_fn_radial", partial(trans_mod.char_fn_radial, D3, 1.0), {"t": 1.0}),
    ("char_fn_projection", partial(trans_mod.char_fn_projection, D3, 1.0), {"t": 1.0}),
    ("EKParams", trans_mod.EKParams, {"zeta": 0.0, "mu": 1.0, "eta": 1.0}),
    ("ek_integral", partial(trans_mod.ek_integral, EK, np.cos), {"x": 1.0}),
    ("epd_dalembert_1d", partial(trans_mod.epd_dalembert_1d, np.cos),
     {"xi_param": 1.5, "c": 1.0, "x": 0.4, "t": 0.9}),
    ("velocity_representation_residual",
     partial(trans_mod.velocity_representation_residual, D1, 0.3), {"t": 1.0}),
    ("radial_prefactor_report", partial(trans_mod.radial_prefactor_report, D3),
     {"r": 0.2, "t": 1.0}),
    ("rl_power_rule", frac_mod.rl_power_rule, {"exp_beta": 1.0, "nu": 0.5, "t": 1.0}),
    ("rl_derivative_numeric", partial(frac_mod.rl_derivative_numeric, np.asarray),
     {"nu": 0.5, "t": 1.0, "n_steps": 10}),
    ("fractional_solution", partial(frac_mod.fractional_solution, FP, 0.0), {"t": 1.0}),
    ("fbe_residual", partial(frac_mod.fbe_residual, FP), {"x": 0.0, "t": 1.0}),
    ("RngStream", samp_mod.RngStream, {"seed": 7, "stream_id": 0}),
    ("sample_beta", rng(samp_mod.sample_beta), {"a": 1.0, "b": 1.0, "size": 3}),
    ("sample_velocity", rng(samp_mod.sample_velocity), {"p": D1, "size": 3}),
    ("sample_position_1d", rng(samp_mod.sample_position_1d), {"p": D1, "t": 1.0, "size": 3}),
    ("sample_position", rng(samp_mod.sample_position), {"p": D3, "t": 1.0, "size": 3}),
    ("sample_direction", rng(samp_mod.sample_direction), {"d": 3, "size": 3}),
    ("sample_projection_w", rng(samp_mod.sample_projection_w), {"d": 3, "size": 3}),
    ("sample_epd_telegraph", rng(samp_mod.sample_epd_telegraph),
     {"xi": 2.0, "c": 1.0, "t": 1.0, "eps": 1e-3, "size": 3}),
    ("ks_test", partial(samp_mod.ks_test, np.linspace(0.05, 0.95, 10), lambda x: x),
     {"alpha": 0.01}),
    ("parallel_draw", partial(samp_mod.parallel_draw, draw_block=lambda r, m: r.uniform_open(m)),
     {"seed": 7, "stream_id": 0, "n": 5, "threads": 1}),
    ("pme_residual", verify_mod.pme_residual,
     {"m": 2.0, "d": 1, "t": 1.0, "h": 0.02, "levels": 3, "interior_fraction": 0.8,
      "gamma_scale": 1.0}),
    ("epd_residual", verify_mod.epd_residual,
     {"nu": 3.0, "c": 1.0, "d": 1, "t": 1.0, "h": 0.02, "levels": 3,
      "interior_fraction": 0.8, "alpha_shift": 0.0}),
    ("epd_type_wave_residual", verify_mod.epd_type_wave_residual,
     {"alpha": 0.5, "v": 1.0, "h": 0.02, "levels": 3, "profile_exponent_scale": 1.0}),
    ("run_suite", partial(verify_mod.run_suite, "fractional"),
     {"seed": 7, "threads": 1, "h_levels": 3}),
]
# The family member is not a scalar.
CASES = [
    pytest.param(fn, base, name, id=f"{label}-{name}")
    for label, fn, base in TABLE
    for name in base
    if name != "p"
]


@pytest.mark.parametrize("fn, base", [pytest.param(fn, base, id=lbl) for lbl, fn, base in TABLE])
def test_baseline_is_accepted(fn, base):
    fn(**base)


@pytest.mark.parametrize("fn, base, name", CASES)
def test_bad_scalar_refused_by_name(fn, base, name):
    for bad in BAD:
        with pytest.raises((ValueError, TypeError), match=f"^{name} "):
            fn(**(base | {name: bad}))


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: preset_mod.catalan(2.5), "m"),
        (lambda: verify_mod.run_suite("sampling", seed=2.7), "seed"),
        (lambda: verify_mod.run_suite("sampling", threads=1.5), "threads"),
        (lambda: verify_mod.run_suite("pde", h_levels=3.0), "h_levels"),
        (lambda: verify_mod._dyadic_h(0.02, 3.5), "levels"),
        (lambda: samp_mod.sample_beta(samp_mod.RngStream(1), 1.0, 1.0, 2.5), "size"),
        (lambda: samp_mod.sample_position_1d(samp_mod.RngStream(1), D1, 1.0, 2.5), "size"),
    ],
    ids=["catalan", "run_suite-seed", "run_suite-threads", "run_suite-h_levels", "dyadic_h",
         "sample_beta-size", "sample_position_1d-size"],
)
def test_fractional_count_refused(call, name):
    # int() took 2.7 for 2 (catalan(2.5) was catalan(2), seed 2.7 drew
    # with seed 2), and range() and numpy's Generator (a sampler's size)
    # raised a TypeError that named nothing
    with pytest.raises(TypeError, match=f"^{name} must be an integer"):
        call()


@pytest.mark.parametrize(
    "kw, message",
    [({"seed": -1}, "seed must be >= 0"), ({"threads": 0}, "threads must be >= 1"),
     ({"h_levels": 2}, "h_levels must be >= 3")],
)
def test_run_suite_refuses_before_any_work(monkeypatch, kw, message):
    monkeypatch.setitem(verify_mod._SUITES, "sampling", (pytest.fail, ("threads", "seed")))
    with pytest.raises(ValueError, match=message):
        verify_mod.run_suite("sampling", **kw)


DIMENSION_CLASS = [
    (fam_mod.cdf_1d, (D3, 0.3, 1.0)),
    (fam_mod.quantile_1d, (D3, 0.3, 1.0)),
    (trans_mod.char_fn_1d, (D3, 1.0, 1.0)),
    (trans_mod.char_fn_radial, (D1, 1.0, 1.0)),
    (trans_mod.char_fn_projection, (D1, 1.0, 1.0)),
    (trans_mod.velocity_representation_residual, (D3, 0.3, 1.0)),
    (trans_mod.radial_prefactor_report, (D1, 0.2, 1.0)),
    (samp_mod.sample_velocity, (samp_mod.RngStream(7), D3)),
    (samp_mod.sample_position_1d, (samp_mod.RngStream(7), D3, 1.0)),
]


@pytest.mark.parametrize("fn, args", DIMENSION_CLASS, ids=[f.__name__ for f, _ in DIMENSION_CLASS])
def test_dimension_class_refusal_names_the_function(fn, args):
    want = "d = 1, got d = 3" if D3 in args else "d >= 2, got d = 1"
    with pytest.raises(ValueError, match=f"^{fn.__name__} requires {want}$"):
        fn(*args)
