"""Characteristic functions, the Erdelyi-Kober integral, and the damped
d'Alembert formula, plus pointwise checks of the two density
representations (speed variable in 1d, radius-with-prefactor in d >= 2).

All integrals run through one endpoint-aware reduction: every integrand
here has the shape s^{p0} (1 - s)^{p1} g(s) on (0, 1) after a power
substitution, and `_power_endpoint_integral` removes whichever endpoint
exponent is negative before handing the panel to the adaptive rule.  The
characteristic functions take a frequency array and integrate all of its
entries as columns of one vector quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .family import FamilyParams, _check_time, pdf, radial_pdf, support_radius
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


def _power_endpoint_integral(g, p0: float, p1: float):
    """Integral of s^{p0} (1-s)^{p1} g(s) over (0, 1) for p0, p1 > -1.

    The interval is split at 1/2 and an endpoint whose exponent is
    negative (a true integrable singularity) is absorbed by substituting
    s = w^{1/(1+p)} there, which turns the weight into the constant
    1/(1+p).  Nonnegative exponents are left to `integrate`, whose start
    mesh is graded toward both ends.  Like an `integrate` integrand, g may
    return (n,) or (n, m) values on n nodes; the result is then a float or
    an (m,) array.
    """
    if p0 <= -1.0 or p1 <= -1.0:
        raise ValueError("endpoint exponents must be > -1 for integrability")

    def weighted(w, s):
        # w scales each node's row of g(s), however many columns it has
        return (w * np.asarray(g(s), dtype=float).T).T

    def left(w):
        s = w ** (1.0 / (1.0 + p0))
        return weighted((1.0 - s) ** p1 / (1.0 + p0), s)

    def right(w):
        s = 1.0 - w ** (1.0 / (1.0 + p1))
        return weighted(s**p0 / (1.0 + p1), s)

    def plain(s):
        return weighted(s**p0 * (1.0 - s) ** p1, s)

    if p0 < 0.0:
        total = integrate(left, 0.0, 0.5 ** (1.0 + p0))
    else:
        total = integrate(plain, 0.0, 0.5)
    if p1 < 0.0:
        return total + integrate(right, 0.0, 0.5 ** (1.0 + p1))
    return total + integrate(plain, 0.5, 1.0)


def _require_dim(p: FamilyParams, want_1d: bool):
    if want_1d and p.d != 1:
        raise ValueError(f"operation requires d = 1, got d = {p.d}")
    if not want_1d and p.d < 2:
        raise ValueError(f"operation requires d >= 2, got d = {p.d}")


def _over_xi(cf, xi, nonnegative: bool):
    """cf(1-d array of the nonzero frequencies) spread back over the shape
    of xi, with exactly 1.0 at xi = 0.  Scalar in, float out."""
    arr = np.asarray(xi, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("xi must be finite")
    if nonnegative and np.any(arr < 0.0):
        raise ValueError("xi_norm must be >= 0")
    flat = arr.ravel()
    out = np.ones(flat.shape)
    nonzero = flat != 0.0
    if nonzero.any():
        out[nonzero] = cf(flat[nonzero])
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def char_fn_1d(p: FamilyParams, xi, t):
    """Characteristic function E[cos(xi X(t))] of the d = 1 family member.

    With u = (v/c)^beta the speed average becomes

        (1/B(1/beta, gamma+1)) int_0^1 u^{1/beta - 1} (1-u)^gamma
                                        cos(a u^{1/beta}) du,
        a = xi c t^alpha,

    which is the endpoint-weighted form handled by the shared reduction;
    the 1/B prefactor sits inside the integrand, so the quadrature
    tolerance applies to the characteristic function itself.  xi may be
    an array (one vector quadrature for all entries): scalar in, float
    out.  Real and even in xi; exactly 1 at xi = 0.
    """
    _require_dim(p, want_1d=True)
    t = _check_time(t)
    inv_beta = 1.0 / p.beta_exp
    scale = 1.0 / beta_fn(inv_beta, p.gamma_exp + 1.0)

    def cf(xi):
        a = xi * p.c * t**p.alpha
        return _power_endpoint_integral(
            lambda u: scale * np.cos(np.multiply.outer(u**inv_beta, a)),
            inv_beta - 1.0,
            p.gamma_exp,
        )

    return _over_xi(cf, xi, nonnegative=False)


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


def char_fn_radial(p: FamilyParams, xi_norm, t):
    """Characteristic function of the d >= 2 member at frequency radius |xi|.

    The Bessel representation of the rotationally invariant transform,
    after u = (z/c)^beta and folding the external (2/(c t^alpha |xi|))^mu
    power into the entire quotient J_mu(w)/(w/2)^mu (mu = d/2 - 1):

        Gamma(d/2)/B(d/beta, gamma+1) *
            int_0^1 u^{d/beta - 1} (1-u)^gamma g_mu(a u^{1/beta}) du,

    a = |xi| c t^alpha, with the prefactor inside the integrand.  xi_norm
    may be an array (one vector quadrature): scalar in, float out.  This
    form has no 0/0 at xi = 0 and equals 1 there.
    """
    _require_dim(p, want_1d=False)
    t = _check_time(t)
    mu = 0.5 * p.d - 1.0
    inv_beta = 1.0 / p.beta_exp
    scale = math.exp(ln_gamma(0.5 * p.d)) / beta_fn(p.d / p.beta_exp, p.gamma_exp + 1.0)

    def cf(xi):
        a = xi * p.c * t**p.alpha
        return _power_endpoint_integral(
            lambda u: scale * _g_bessel_ratio(mu, np.multiply.outer(u**inv_beta, a)),
            p.d / p.beta_exp - 1.0,
            p.gamma_exp,
        )

    return _over_xi(cf, xi_norm, nonnegative=True)


_GL64_T, _GL64_W = np.polynomial.legendre.leggauss(64)
# map to (0, pi/2) once; theta-form of the projection average
_GL64_THETA = 0.25 * math.pi * (_GL64_T + 1.0)
_GL64_SCALE = 0.25 * math.pi * _GL64_W


def _mean_cos_projection(d: int, a):
    """E[cos(a W)] for W the first-coordinate modulus of a uniform direction.

    With w = sin(theta):  (2/B(1/2,(d-1)/2)) int_0^{pi/2} cos(a sin theta)
    cos^{d-2} theta d theta, on a fixed 64-node Gauss rule, vectorized over
    a.  Adequate to ~1e-12 for |a| <= 60, which char_fn_projection enforces.
    """
    a = np.asarray(a, dtype=float)
    weights = _GL64_SCALE * np.cos(_GL64_THETA) ** (d - 2)
    total = np.zeros(a.shape)
    # node by node, so a vector quadrature's (nodes, columns) array is
    # never widened by 64
    for w, s in zip(weights, np.sin(_GL64_THETA)):
        total += w * np.cos(a * s)
    return 2.0 / beta_fn(0.5, 0.5 * (d - 1)) * total


def char_fn_projection(p: FamilyParams, xi_norm, t):
    """Characteristic function via the radius-times-projection average.

    Outer adaptive quadrature over the speed-scale radial density (the
    radial law at t = 1), inner fixed-rule average of cos over the
    projection factor:  E[cos(|xi| U W t^alpha)].  Independent route from
    char_fn_radial; their agreement is the computable content of the
    product representation.  xi_norm may be an array (one vector
    quadrature): scalar in, float out.  c |xi| t^alpha > 60 raises.
    """
    _require_dim(p, want_1d=False)
    t = _check_time(t)

    def cf(xi):
        scale = xi * t**p.alpha
        a_max = p.c * float(np.max(scale))
        if a_max > 60.0:
            raise ValueError(f"char_fn_projection needs c |xi| t^alpha <= 60, got {a_max:.6g}")
        return integrate(
            lambda v: radial_pdf(p, v, 1.0)[:, None]
            * _mean_cos_projection(p.d, np.multiply.outer(v, scale)),
            0.0,
            p.c,
        )

    return _over_xi(cf, xi_norm, nonnegative=True)


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
    t = _check_time(t)
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
    t = _check_time(t)
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
