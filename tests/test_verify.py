"""Tests for the finite-difference residual harness and the suite runner.

The full sampling suite (large Monte Carlo draws) is exercised by the
acceptance tests; here the deterministic suites run whole and the
residual machinery is probed directly.
"""

import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from barenblatt import family as fam_mod
from barenblatt import presets as preset_mod
from barenblatt.family import new_family, pdf, radial_pdf, support_radius
from barenblatt.specfun import integrate
from barenblatt.verify import (
    _GRID_MEMBERS,
    _MASS_GRID,
    CheckResult,
    ResidualReport,
    SuiteReport,
    _order_estimate,
    _quad_masses,
    epd_residual,
    epd_type_wave_residual,
    pme_residual,
    run_suite,
)


class TestOrderEstimate:
    def test_clean_second_order(self):
        assert abs(_order_estimate([4e-4, 1e-4, 2.5e-5]) - 2.0) < 1e-12

    def test_mean_of_dyadic_ratios(self):
        # ratios 4 and 2 -> orders 2 and 1 -> mean 1.5
        assert abs(_order_estimate([4e-4, 1e-4, 5e-5]) - 1.5) < 1e-12

    def test_rounding_floor_gives_nan(self):
        assert math.isnan(_order_estimate([1e-13, 2e-13, 4e-13]))


class TestPmeResidual:
    def test_second_order_convergence(self):
        rep = pme_residual(2.0, 1, t=1.0, h=0.02)
        assert 1.9 <= rep.order <= 2.1
        assert rep.equation == "porous-medium flow"
        assert rep.params["m"] == 2.0 and rep.params["d"] == 1
        assert len(rep.h_values) == 3
        assert rep.max_residuals[0] > rep.max_residuals[-1]

    def test_higher_dimension(self):
        rep = pme_residual(3.0, 2, t=1.0, h=0.02)
        assert 1.9 <= rep.order <= 2.1

    def test_notes_record_adjudication(self):
        rep = pme_residual(2.0, 1, t=1.0, h=0.02)
        assert "does not vanish" in rep.notes
        assert "amplitude-one" in rep.notes
        lit = float(rep.notes.split("residual ")[1].split(" ")[0])
        raw = float(rep.notes.split("residual ")[2].split(" ")[0])
        assert lit > 1e-2  # the mapped member misses the flow by O(1)
        assert raw < 1e-3  # the amplitude-one profile satisfies it

    def test_gamma_perturbation_breaks_convergence(self):
        rep = pme_residual(2.0, 1, t=1.0, h=0.02, gamma_scale=1.1)
        assert rep.max_residuals[-1] > 1e-3
        assert abs(rep.order) < 0.5

    def test_stencil_overflow_rejected(self):
        with pytest.raises(ValueError, match="stencil overflow"):
            pme_residual(2.0, 1, t=1.0, h=0.02, interior_fraction=1.0)

    def test_too_few_levels_rejected(self):
        with pytest.raises(ValueError, match="levels must be >= 3"):
            pme_residual(2.0, 1, t=1.0, h=0.02, levels=2)


@pytest.mark.parametrize(
    "call",
    [lambda: pme_residual(2.0, 1, 0.01, 0.02), lambda: epd_residual(3.0, 1.0, 1, 0.01, 0.02),
     lambda: pme_residual(2.0, 1, 0.02, 0.02)],
    ids=["pme", "epd", "pme-h-equals-t"],
)
def test_step_past_the_time_refused_by_name(call):
    # the time stencil reaches t - h; the refusal names h, not the
    # negative time the stencil would have reached
    with pytest.raises(ValueError, match=r"^h must be < t = 0\.0[12], got 0\.02$"):
        call()


class TestEpdResidual:
    def test_second_order_convergence(self):
        rep = epd_residual(1.5, 1.0, 2, t=1.0, h=0.02)
        assert 1.9 <= rep.order <= 2.1
        assert rep.equation == "Euler-Poisson-Darboux"

    def test_speed_parameter(self):
        rep = epd_residual(3.0, 2.0, 3, t=1.0, h=0.02)
        assert 1.9 <= rep.order <= 2.1

    def test_alpha_perturbation_breaks_convergence(self):
        rep = epd_residual(3.0, 1.0, 1, t=1.0, h=0.02, alpha_shift=0.15)
        assert rep.max_residuals[-1] > 1e-3


class TestWaveResidual:
    def test_second_order_convergence(self):
        rep = epd_type_wave_residual(0.5, 1.0, h=0.02)
        assert 1.9 <= rep.order <= 2.1

    def test_classical_case_cancels_exactly(self):
        # alpha = 1, v = 1: both stencils sample the same shifted profile
        rep = epd_type_wave_residual(1.0, 1.0, h=0.02)
        assert max(rep.max_residuals) <= 1e-10
        assert math.isnan(rep.order)
        assert "rounding floor" in rep.notes

    def test_classical_case_off_speed(self):
        rep = epd_type_wave_residual(1.0, 1.5, h=0.02)
        assert 1.9 <= rep.order <= 2.1

    def test_profile_exponent_control_fails(self):
        rep = epd_type_wave_residual(0.5, 1.0, h=0.02, profile_exponent_scale=0.5)
        assert rep.max_residuals[-1] > 1e-3

    def test_domain(self):
        with pytest.raises(ValueError):
            epd_type_wave_residual(0.0, 1.0)
        with pytest.raises(ValueError):
            epd_type_wave_residual(0.5, -1.0)


class TestQuadMasses:
    # the per-member scalar route the vector quadrature replaced
    @staticmethod
    def scalar_mass(fam, t):
        return integrate(lambda r: radial_pdf(fam, r, t), 0.0, support_radius(fam, t))

    def test_grid_agrees_with_scalar_route(self):
        fams = [new_family(*m) for m in _MASS_GRID]
        masses = _quad_masses(fams, 1.3)
        assert masses.shape == (576,)
        scalar = np.array([self.scalar_mass(fam, 1.3) for fam in fams])
        # each route stops at an estimated error of 1e-11
        assert np.max(np.abs(masses - scalar)) <= 2e-11

    def test_one_wrong_member_shows_in_its_column_only(self):
        fams = [new_family(*m) for m in _MASS_GRID]
        k = 137
        fams[k] = dataclasses.replace(fams[k], norm_c=fams[k].norm_c * (1.0 + 1e-7))
        dev = _quad_masses(fams, 1.3) - 1.0
        assert abs(dev[k] - 1e-7) <= 1e-11
        assert np.max(np.abs(np.delete(dev, k))) <= 1e-11
        # family-mass-grid's test, which this grid fails
        assert np.max(np.abs(dev)) > 1e-8

    def test_single_member(self):
        fam = preset_mod.wigner_preset()
        (mass,) = _quad_masses([fam], 1.0)
        assert abs(mass - self.scalar_mass(fam, 1.0)) <= 2e-11

    @pytest.mark.parametrize("gamma_exp", [1e6, 1e7, 1e8])
    def test_concentrated_member_has_unit_mass(self, gamma_exp):
        # a profile that carried gamma eps of rounding noise exhausted the
        # subdivisions from gamma = 1e7 on
        (mass,) = _quad_masses([new_family(0.5, 2.0, gamma_exp, 1.0, 3)], 1.0)
        assert abs(mass - 1.0) <= 1e-10


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


class TestVectorQuadratureChecks:
    """Check values against the per-point scalar quadrature they replaced."""

    def test_cdf_oracle(self):
        worst = 0.0
        for member in _GRID_MEMBERS:
            fam = new_family(*member)
            if fam.beta_exp == 1.0:
                continue
            rt = support_radius(fam, 1.1)
            for x in np.linspace(-0.9, 0.9, 7) * rt:
                oracle = 0.5 + integrate(lambda y: pdf(fam, y, 1.1), 0.0, x)
                worst = max(worst, abs(fam_mod.cdf_1d(fam, x, 1.1) - oracle))
        check = _check(run_suite("representations"), "cdf-argument-form-adjudication")
        assert check.passed
        assert abs(check.value - worst) <= 1e-12

    def test_catalan_moments(self):
        wig = preset_mod.wigner_preset()
        worst = 0.0
        for t in (0.5, 1.0, 2.0):
            r = support_radius(wig, t)
            for m in range(6):
                mom = integrate(lambda x: x ** (2 * m) * pdf(wig, x, t), -r, r)
                want = preset_mod.catalan(m) * t**m
                worst = max(worst, abs(mom - want) / want)
        check = _check(run_suite("presets"), "wigner-catalan-moments")
        assert check.passed
        assert abs(check.value - worst) <= 1e-12


class TestRunSuite:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("nosuch")

    def test_presets_suite_passes(self):
        rep = run_suite("presets")
        assert isinstance(rep, SuiteReport)
        assert rep.passed
        names = [c.name for c in rep.checks]
        assert "npme-front-scale-adjudication" in names
        assert "zkb-amplitude-condition" in names

    def test_normalization_suite_passes(self):
        rep = run_suite("normalization")
        assert rep.passed
        grid = next(c for c in rep.checks if c.name == "family-mass-grid")
        assert grid.value <= 1e-8
        assert "576" in grid.detail
        assert "t = 1.3" in grid.detail

    def test_transforms_suite_passes(self):
        rep = run_suite("transforms")
        assert rep.passed

    def test_representations_suite_passes(self):
        rep = run_suite("representations")
        assert rep.passed
        adj = next(c for c in rep.checks if "cdf" in c.name)
        assert "matching form: power" in adj.detail

    def test_fractional_suite_passes(self):
        rep = run_suite("fractional")
        assert rep.passed

    def test_pde_suite_passes(self):
        rep = run_suite("pde")
        assert rep.passed
        names = [c.name for c in rep.checks]
        for control in (
            "negative-control-pme",
            "negative-control-epd",
            "negative-control-wave",
        ):
            assert control in names

    def test_seed_recorded_by_every_suite(self):
        # the library keeps taking a seed for any suite; only the CLI
        # refuses --seed where no draw reads it
        assert run_suite("fractional", seed=5).seed == 5

    def test_deterministic_reruns(self):
        a = run_suite("representations")
        b = run_suite("representations")
        assert [(c.name, c.value) for c in a.checks] == [
            (c.name, c.value) for c in b.checks
        ]

    def test_report_files(self, tmp_path):
        run_suite("representations", out_dir=str(tmp_path))
        with open(tmp_path / "representations.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["name", "passed", "value", "tolerance", "detail"]
        assert len(rows) > 1
        with open(tmp_path / "representations.json") as fh:
            data = json.load(fh)
        assert data["suite"] == "representations"
        assert data["passed"] is True
        assert data["seed"] == 20260816
        with open(tmp_path / "radial_prefactor.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == [
            "d",
            "alpha",
            "beta",
            "gamma",
            "c",
            "r",
            "t",
            "residual_paper_form",
            "residual_corrected_form",
        ]

    def test_fbe_grid_file(self, tmp_path):
        run_suite("fractional", out_dir=str(tmp_path))
        with open(tmp_path / "fbe_residual_grid.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["nu", "x", "t", "residual"]
        assert all(abs(float(r[3])) <= 1e-12 for r in rows[1:])

    def test_check_result_fields(self):
        c = CheckResult(name="x", passed=True, value=1.0, tolerance=2.0, detail="d")
        assert c.passed and c.value == 1.0

    def test_residual_report_is_frozen(self):
        rep = epd_type_wave_residual(0.5, 1.0, h=0.04)
        with pytest.raises(AttributeError):
            rep.order = 0.0
