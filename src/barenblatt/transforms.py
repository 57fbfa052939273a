"""Characteristic functions, the Erdelyi-Kober integral, and the damped
d'Alembert formula, plus pointwise checks of the two density
representations (speed variable in 1d, radius-with-prefactor in d >= 2).

All integrals run through one endpoint-aware reduction: every integrand
here has the shape s^{p0} (1 - s)^{p1} g(s) on (0, 1) after a power
substitution, and `_power_endpoint_integral` removes whichever endpoint
exponent is negative before handing the panel to the adaptive rule.
Oscillatory phases are tamed by seeding panel breakpoints at half-periods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .family import FamilyParams, pdf, radial_pdf, support_radius
from .specfun import bessel_j, beta_fn, integrate, ln_gamma, sphere_surface

__all__ = [
    "EKParams",
    "RadialPrefactorReport",
    "char_fn_1d",
    "char_fn_radial",
    "char_fn_projection",
    "ek_integral",
    "epd_dalembert_1d",
    "velocity_representation_residual",
    "radial_prefactor_report",
]

# at most this many oscillation breakpoints are fed to the integrator;
# beyond that the adaptive refinement is on its own
_MAX_SEED_POINTS = 400


def _power_endpoint_integral(g, p0: float, p1: float, points=None) -> float:
    """Integral of s^{p0} (1-s)^{p1} g(s) over (0, 1) for p0, p1 > -1.

    The interval is split at 1/2 and an endpoint whose exponent is
    negative (a true integrable singularity) is absorbed by substituting
    s = w^{1/(1+p)} there, which turns the weight into a constant.
    Nonnegative exponents are left to graded adaptive refinement.
    `points` are breakpoint seeds in s-space and are mapped through the
    substitutions.
    """
    if p0 <= -1.0 or p1 <= -1.0:
        raise ValueError("endpoint exponents must be > -1 for integrability")
    seed = [] if points is None else list(points)
    pts = sorted(float(s) for s in seed if 0.0 < float(s) < 1.0)
    left_pts = [s for s in pts if s < 0.5]
    right_pts = [s for s in pts if s > 0.5]
    total = 0.0
    if p0 < 0.0:
        q = 1.0 + p0
        s_of = lambda w: w ** (1.0 / q)
        total += (
            integrate(
                lambda w: (1.0 - s_of(w)) ** p1 * g(s_of(w)),
                0.0,
                0.5**q,
                points=[s**q for s in left_pts],
            )
            / q
        )
    else:
        total += integrate(
            lambda s: s**p0 * (1.0 - s) ** p1 * g(s), 0.0, 0.5, points=left_pts
        )
    if p1 < 0.0:
        q = 1.0 + p1
        s_of = lambda w: 1.0 - w ** (1.0 / q)
        total += (
            integrate(
                lambda w: s_of(w) ** p0 * g(s_of(w)),
                0.0,
                0.5**q,
                points=[(1.0 - s) ** q for s in right_pts],
            )
            / q
        )
    else:
        total += integrate(
            lambda s: s**p0 * (1.0 - s) ** p1 * g(s), 0.5, 1.0, points=right_pts
        )
    return total


def _require_dim(p: FamilyParams, want_1d: bool):
    if want_1d and p.d != 1:
        raise ValueError(f"operation requires d = 1, got d = {p.d}")
    if not want_1d and p.d < 2:
        raise ValueError(f"operation requires d >= 2, got d = {p.d}")


def _half_period_seeds(a: float, beta_exp: float):
    """Breakpoints in u-space where the phase a u^{1/beta} crosses j pi."""
    n = min(int(abs(a) / math.pi), _MAX_SEED_POINTS)
    if n < 1:
        return None
    j = np.arange(1, n + 1)
    return (j * math.pi / abs(a)) ** beta_exp


def char_fn_1d(p: FamilyParams, xi, t) -> float:
    """Characteristic function E[cos(xi X(t))] of the d = 1 family member.

    With u = (v/c)^beta the speed average becomes

        (1/B(1/beta, gamma+1)) int_0^1 u^{1/beta - 1} (1-u)^gamma
                                        cos(a u^{1/beta}) du,
        a = xi c t^alpha,

    which is the endpoint-weighted form handled by the shared reduction.
    Real and even in xi; exactly 1 at xi = 0.
    """
    _require_dim(p, want_1d=True)
    t = float(t)
    if t <= 0.0:
        raise ValueError(f"t must be > 0, got {t}")
    xi = float(xi)
    if xi == 0.0:
        return 1.0
    a = xi * p.c * t**p.alpha
    inv_beta = 1.0 / p.beta_exp
    val = _power_endpoint_integral(
        lambda u: np.cos(a * u**inv_beta),
        inv_beta - 1.0,
        p.gamma_exp,
        points=_half_period_seeds(a, p.beta_exp),
    )
    return val / beta_fn(inv_beta, p.gamma_exp + 1.0)


def _g_bessel_ratio(mu: float, w):
    """Entire function J_mu(w) / (w/2)^mu, stable through w = 0.

    Power series for |w| < 0.2, Bessel quotient elsewhere; value at 0 is
    1/Gamma(mu+1).
    """
    w = np.asarray(w, dtype=float)
    out = np.empty_like(w)
    small = np.abs(w) < 0.2
    if np.any(small):
        x = 0.25 * w[small] ** 2
        term = np.full(x.shape, math.exp(-ln_gamma(mu + 1.0)))
        total = term.copy()
        for k in range(1, 12):
            term = term * (-x / (k * (k + mu)))
            total += term
        out[small] = total
    big = ~small
    if np.any(big):
        wb = w[big]
        out[big] = bessel_j(mu, wb) / (0.5 * wb) ** mu
    return out


def char_fn_radial(p: FamilyParams, xi_norm, t) -> float:
    """Characteristic function of the d >= 2 member at frequency radius |xi|.

    The Bessel representation of the rotationally invariant transform,
    after u = (z/c)^beta and folding the external (2/(c t^alpha |xi|))^mu
    power into the entire quotient J_mu(w)/(w/2)^mu (mu = d/2 - 1):

        Gamma(d/2)/B(d/beta, gamma+1) *
            int_0^1 u^{d/beta - 1} (1-u)^gamma g_mu(a u^{1/beta}) du,

    a = |xi| c t^alpha.  This form has no 0/0 at xi = 0 and equals 1 there.
    """
    _require_dim(p, want_1d=False)
    t = float(t)
    if t <= 0.0:
        raise ValueError(f"t must be > 0, got {t}")
    xi_norm = float(xi_norm)
    if xi_norm < 0.0:
        raise ValueError("xi_norm must be >= 0")
    if xi_norm == 0.0:
        return 1.0
    a = xi_norm * p.c * t**p.alpha
    mu = 0.5 * p.d - 1.0
    inv_beta = 1.0 / p.beta_exp
    val = _power_endpoint_integral(
        lambda u: _g_bessel_ratio(mu, a * u**inv_beta),
        p.d / p.beta_exp - 1.0,
        p.gamma_exp,
        points=_half_period_seeds(a, p.beta_exp),
    )
    return math.exp(ln_gamma(0.5 * p.d)) * val / beta_fn(p.d / p.beta_exp, p.gamma_exp + 1.0)


_GL64_T, _GL64_W = np.polynomial.legendre.leggauss(64)
# map to (0, pi/2) once; theta-form of the projection average
_GL64_THETA = 0.25 * math.pi * (_GL64_T + 1.0)
_GL64_SCALE = 0.25 * math.pi * _GL64_W


def _mean_cos_projection(d: int, a):
    """E[cos(a W)] for W the first-coordinate modulus of a uniform direction.

    With w = sin(theta):  (2/B(1/2,(d-1)/2)) int_0^{pi/2} cos(a sin theta)
    cos^{d-2} theta d theta, on a fixed 64-node Gauss rule, vectorized over
    a.  Adequate to ~1e-12 for the |a| <= 60 range used here.
    """
    a = np.asarray(a, dtype=float)
    weights = _GL64_SCALE * np.cos(_GL64_THETA) ** (d - 2)
    vals = np.cos(a[..., None] * np.sin(_GL64_THETA))
    return 2.0 / beta_fn(0.5, 0.5 * (d - 1)) * (vals @ weights)


def char_fn_projection(p: FamilyParams, xi_norm, t) -> float:
    """Characteristic function via the radius-times-projection average.

    Outer adaptive quadrature over the speed-scale radial density (the
    radial law at t = 1), inner fixed-rule average of cos over the
    projection factor:  E[cos(|xi| U W t^alpha)].  Independent route from
    char_fn_radial; their agreement is the computable content of the
    product representation.
    """
    _require_dim(p, want_1d=False)
    t = float(t)
    if t <= 0.0:
        raise ValueError(f"t must be > 0, got {t}")
    xi_norm = float(xi_norm)
    if xi_norm < 0.0:
        raise ValueError("xi_norm must be >= 0")
    if xi_norm == 0.0:
        return 1.0
    scale = xi_norm * t**p.alpha

    def outer(v):
        return radial_pdf(p, v, 1.0) * _mean_cos_projection(p.d, scale * v)

    n = min(int(scale * p.c / math.pi), _MAX_SEED_POINTS)
    seeds = [j * math.pi / scale for j in range(1, n + 1)] if n >= 1 else None
    return integrate(outer, 0.0, p.c, points=seeds)


@dataclass(frozen=True)
class EKParams:
    """Erdelyi-Kober integral parameters: order mu > 0, power eta > 0,
    shift zeta > -1 (integrability of the reduced weight at 0)."""

    zeta: float
    mu: float
    eta: float

    def __post_init__(self):
        if not (self.mu > 0.0):
            raise ValueError(f"mu must be > 0, got {self.mu}")
        if not (self.eta > 0.0):
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if not (self.zeta > -1.0):
            raise ValueError(f"zeta must be > -1, got {self.zeta}")


def ek_integral(ek: EKParams, f, x) -> float:
    """Erdelyi-Kober fractional integral I^{zeta,mu}_eta f at x > 0.

    Substituting s = (tau/x)^eta in

        eta x^{-eta(mu+zeta)}/Gamma(mu) int_0^x tau^{eta(zeta+1)-1}
            (x^eta - tau^eta)^{mu-1} f(tau) dtau

    cancels every power of x and leaves the weighted unit-interval form

        (1/Gamma(mu)) int_0^1 s^zeta (1-s)^{mu-1} f(x s^{1/eta}) ds,

    so one routine covers all (zeta, mu, eta), including the singular
    endpoints zeta < 0 and mu < 1.  For f = 1 the value is
    Gamma(zeta+1)/Gamma(zeta+mu+1), independent of x and eta.
    """
    x = float(x)
    if x <= 0.0:
        raise ValueError(f"x must be > 0, got {x}")
    inv_eta = 1.0 / ek.eta
    val = _power_endpoint_integral(
        lambda s: np.asarray(f(x * s**inv_eta), dtype=float),
        ek.zeta,
        ek.mu - 1.0,
    )
    return val / math.exp(ln_gamma(ek.mu))


def epd_dalembert_1d(f, xi_param, c, x, t) -> float:
    """Singular-damped d'Alembert average

        u(x,t) = 2/B(xi,1/2) int_0^1 (1-y^2)^{xi-1}
                 [f(x+yct) + f(x-yct)]/2 dy,

    the solution with u(x,0) = f and u_t(x,0) = 0 of the wave equation
    with damping coefficient 2 xi / t.  The y = 1 endpoint is singular
    for xi < 1 and is handled by the shared endpoint reduction (weight
    (1-y)^{xi-1} (1+y)^{xi-1}).  At t = 0 the average collapses to f(x).
    """
    xi_param = float(xi_param)
    if xi_param <= 0.0:
        raise ValueError(f"xi_param must be > 0, got {xi_param}")
    c = float(c)
    x = float(x)
    t = float(t)
    if t == 0.0:
        return float(f(np.asarray(x)))

    def g(y):
        y = np.asarray(y, dtype=float)
        shift = y * c * t
        left = np.asarray(f(x + shift), dtype=float)
        right = np.asarray(f(x - shift), dtype=float)
        return (1.0 + y) ** (xi_param - 1.0) * 0.5 * (left + right)

    val = _power_endpoint_integral(g, 0.0, xi_param - 1.0)
    return 2.0 / beta_fn(xi_param, 0.5) * val


def velocity_representation_residual(p: FamilyParams, x, t):
    """u(x, t) minus the speed-variable form f_V(|x|/t^alpha) / (2 t^alpha).

    f_V(v) = (beta/c)(1-(v/c)^beta)^gamma / B(1/beta, gamma+1) on (0, c).
    The two expressions are the same function written two ways, so the
    residual is zero to rounding everywhere (both vanish outside the
    front).  Elementwise in x.
    """
    _require_dim(p, want_1d=True)
    t = float(t)
    if t <= 0.0:
        raise ValueError(f"t must be > 0, got {t}")
    x_arr = np.asarray(x, dtype=float)
    v = np.abs(x_arr) / t**p.alpha
    body = np.maximum(1.0 - np.minimum(v / p.c, 1.0) ** p.beta_exp, 0.0)
    f_v = (
        (p.beta_exp / p.c)
        * body**p.gamma_exp
        / beta_fn(1.0 / p.beta_exp, p.gamma_exp + 1.0)
    )
    out = pdf(p, x_arr, t) - f_v / (2.0 * t**p.alpha)
    return float(out) if np.ndim(x) == 0 else out


@dataclass(frozen=True)
class RadialPrefactorReport:
    """Relative residuals of the two prefactor readings of the d >= 2
    radius representation against the pdf at one (r, t) point.

    residual_* = (variant - pdf) / max(pdf, 1e-300).  The stated form
    carries prefactor B((d/2+1)/beta, gamma+1) / (sigma (c t^alpha r)^{d/2-1}
    B(d/beta, gamma+1)) on the Z-density; the corrected form divides by
    one more power of r.  Which one closes is recorded, not assumed.
    """

    d: int
    alpha: float
    beta_exp: float
    gamma_exp: float
    c: float
    r: float
    t: float
    residual_paper_form: float
    residual_corrected_form: float

    @property
    def matching_variant(self) -> str:
        return (
            "corrected"
            if abs(self.residual_corrected_form) <= abs(self.residual_paper_form)
            else "stated"
        )


def radial_prefactor_report(p: FamilyParams, r, t) -> RadialPrefactorReport:
    """Evaluate both prefactor variants at an interior radius point.

    The Z-variable density is f_Z(z) = (beta/c)(z/c)^{d/2}
    (1-(z/c)^beta)^gamma / B((d/2+1)/beta, gamma+1) on (0, c); the stated
    identity multiplies f_Z(r/t^alpha)/t^alpha by the prefactor above.
    """
    _require_dim(p, want_1d=False)
    r = float(r)
    t = float(t)
    if t <= 0.0:
        raise ValueError(f"t must be > 0, got {t}")
    if not (0.0 < r < support_radius(p, t)):
        raise ValueError("r must lie strictly inside the support")
    mu_pow = 0.5 * p.d - 1.0
    b_z = beta_fn((0.5 * p.d + 1.0) / p.beta_exp, p.gamma_exp + 1.0)
    b_r = beta_fn(p.d / p.beta_exp, p.gamma_exp + 1.0)
    prefactor = b_z / (sphere_surface(p.d) * (p.c * t**p.alpha * r) ** mu_pow * b_r)
    z = r / t**p.alpha
    body = max(1.0 - min(z / p.c, 1.0) ** p.beta_exp, 0.0)
    f_z = (
        (p.beta_exp / p.c)
        * (z / p.c) ** (0.5 * p.d)
        * body**p.gamma_exp
        / b_z
    )
    stated = prefactor * f_z / t**p.alpha
    corrected = stated / r
    u = float(pdf(p, np.concatenate([[r], np.zeros(p.d - 1)]), t))
    scale = max(u, 1e-300)
    return RadialPrefactorReport(
        d=p.d,
        alpha=p.alpha,
        beta_exp=p.beta_exp,
        gamma_exp=p.gamma_exp,
        c=p.c,
        r=r,
        t=t,
        residual_paper_form=(stated - u) / scale,
        residual_corrected_form=(corrected - u) / scale,
    )
