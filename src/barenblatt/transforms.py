"""Characteristic functions, the Erdelyi-Kober integral, and the damped
d'Alembert formula, plus pointwise checks of the two density
representations (speed variable in 1d, radius-with-prefactor in d >= 2).

Every transform here is an average over a Beta law from one primitive,
`_beta_mean`: the Erdelyi-Kober kernel Beta(zeta+1, mu), the d'Alembert
offset ct sqrt(V), V ~ Beta(1/2, xi), and, in the one pipeline `_char_fn`,
the radius c t^alpha U^{1/beta}, U ~ Beta(d/beta, gamma+1), of X(t).  The
three characteristic-function routes differ only in the direction kernel
E[cos(w Theta_1)], Theta uniform: cos, the Bessel quotient, a 64-node rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .family import FamilyParams, _profile, _require_dim, pdf, support_radius
from .specfun import (
    _BESSEL_HANKEL_CUT,
    _BESSEL_MAX_ORDER,
    _bessel_quotient,
    _real,
    bessel_j,
    beta_fn,
    integrate,
    ln_beta,
    ln_gamma,
    ln_sphere,
)

__all__ = [
    "EKParams",
    "char_fn_1d",
    "char_fn_radial",
    "char_fn_projection",
    "ek_integral",
    "epd_dalembert_1d",
    "velocity_representation_residual",
    "radial_prefactor_report",
]


def _beta_mean(h, a: float, b: float):
    """E[h(U)] for U ~ Beta(a, b), a, b > 0, from one `integrate` call.

    The halves u < 1/2 and u > 1/2 sit end to end on x in (0, 2), each
    parameterised from its outer end by y = min(x, 2 - x):  u = y^{1/qa}/2
    below 1/2 and 1 - u = y^{1/qb}/2 above, with qa = min(a, 1) and
    qb = min(b, 1).  An end exponent below 1 is thus absorbed into dy, and
    a larger one leaves the smooth factor y^{a-1} (y^{b-1}); the start
    mesh of `integrate` is graded toward x = 0 and 2, which are u = 0 and
    u = 1.  Density and Jacobian make one exp of a sum of logs, the far
    factor through log1p, so a large exponent adds no rounding of 1 - u.
    Like an `integrate` integrand, h may return (n,) or (n, m) values on n
    nodes; the result is then a float or an (m,) array.
    """
    a, b = _real("a", a, 0.0), _real("b", b, 0.0)
    ln_b = ln_beta(a, b)

    def weighted(x):
        left = x < 1.0
        y = np.where(left, x, 2.0 - x)
        near, far = np.where(left, a, b), np.where(left, b, a)
        q = np.minimum(near, 1.0)
        v = 0.5 * y ** (1.0 / q)
        ln_w = (
            -near * math.log(2.0) - np.log(q) + (near / q - 1.0) * np.log(y)
            + (far - 1.0) * np.log1p(-v) - ln_b
        )
        # the weight scales each node's row of h, however many columns
        return (np.exp(ln_w) * np.asarray(h(np.where(left, v, 1.0 - v)), dtype=float).T).T

    return integrate(weighted, 0.0, 2.0)


def _char_fn(p: FamilyParams, xi, t, kernel, a_max=math.inf):
    """E[kernel(a U^{1/beta})], a = xi c t^alpha, U ~ Beta(d/beta, gamma+1).

    kernel is the route's direction kernel on a (nodes, columns) array.
    The nonzero entries of xi (finite; >= 0 for d >= 2) are the columns of
    one `_beta_mean` call, and xi = 0 gives exactly 1.  Scalar in, float out.
    """
    t = _real("t", t, 0.0)
    arr = np.asarray(xi, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("xi must be finite")
    if p.d >= 2 and np.any(arr < 0.0):
        raise ValueError("xi_norm must be >= 0")
    out = np.ones(arr.shape)
    nonzero = arr != 0.0
    if nonzero.any():
        a = arr[nonzero] * p.c * t**p.alpha
        if np.max(a) > a_max:  # only the projection route bounds a
            raise ValueError(
                f"char_fn_projection needs c |xi| t^alpha <= {a_max:g}, got {np.max(a):.6g}"
            )
        inv_beta = 1.0 / p.beta_exp
        out[nonzero] = _beta_mean(
            lambda u: kernel(np.multiply.outer(u**inv_beta, a)), p.d / p.beta_exp, p.gamma_exp + 1.0
        )
    return float(out) if arr.ndim == 0 else out


def char_fn_1d(p: FamilyParams, xi, t):
    """Characteristic function E[cos(xi X(t))] of the d = 1 family member.

    `_char_fn` with kernel cos: E[cos(a Y^{1/beta})], a = xi c t^alpha,
    Y ~ Beta(1/beta, gamma+1), with no prefactor, so the quadrature
    tolerance applies to the characteristic function itself.  xi may be an
    array (one vector quadrature): scalar in, float out.  Real and even in
    xi; exactly 1 at xi = 0.
    """
    _require_dim(p, "char_fn_1d", one=True)
    return _char_fn(p, xi, t, np.cos)


def _bessel_kernel(mu: float, w):
    """h_mu(w) = Gamma(mu+1) (2/w)^mu J_mu(w), mu = d/2 - 1: the direction
    kernel E[cos(w Theta_1)] of R^d, within [-1, 1] and 1 at w = 0.

    Below the Hankel cut max(16, mu), where `bessel_j` itself forms J_mu
    from it, h_mu comes straight from `_bessel_quotient`: J_mu(w) and
    (w/2)^mu leave the float range there at large mu.  Above, it is
    `bessel_j` times Gamma(mu+1) (2/w)^mu, summed in logs and below 2 for
    w >= mu.  Neither (w/2)^mu nor Gamma(mu+1) is formed alone.
    """
    w = np.asarray(w, dtype=float)
    out = np.empty_like(w)
    low = w < max(_BESSEL_HANKEL_CUT, mu)
    out[low] = _bessel_quotient(mu, w[low])
    high = w[~low]
    if high.size:
        out[~low] = bessel_j(mu, high) * np.exp(ln_gamma(mu + 1.0) - mu * np.log(0.5 * high))
    return out


def char_fn_radial(p: FamilyParams, xi_norm, t):
    """Characteristic function of the d >= 2 member at frequency radius |xi|.

    `_char_fn` with the kernel Gamma(d/2) (2/w)^mu J_mu(w), mu = d/2 - 1
    (`_bessel_kernel`): the direction average of cos, an entire function,
    so there is no 0/0 at xi = 0, where the value is 1.  d above 3002
    (order 1500, the largest `bessel_j` validates) is refused.  xi_norm may
    be an array (one vector quadrature): scalar in, float out.
    """
    _require_dim(p, "char_fn_radial", one=False)
    mu = 0.5 * p.d - 1.0
    if mu > _BESSEL_MAX_ORDER:
        raise ValueError(
            f"d must be <= {2.0 * (_BESSEL_MAX_ORDER + 1.0):g} for char_fn_radial, got {p.d}"
        )
    return _char_fn(p, xi_norm, t, lambda w: _bessel_kernel(mu, w))


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

    `_char_fn` with kernel E[cos(w W)], W the projection factor, on the
    fixed 64-node rule: the pipeline of char_fn_radial with another
    kernel, and their agreement is the computable content of the product
    representation.  xi_norm may be an array (one vector quadrature):
    scalar in, float out.  c |xi| t^alpha > 60 raises.
    """
    _require_dim(p, "char_fn_projection", one=False)
    return _char_fn(p, xi_norm, t, lambda w: _mean_cos_projection(p.d, w), a_max=60.0)


@dataclass(frozen=True)
class EKParams:
    """Erdelyi-Kober integral parameters, all finite: order mu > 0, power
    eta > 0, shift zeta > -1 (integrability of the reduced weight at 0)."""

    zeta: float
    mu: float
    eta: float

    def __post_init__(self):
        for name, low in (("mu", 0.0), ("eta", 0.0), ("zeta", -1.0)):
            _real(name, getattr(self, name), low)


def ek_integral(ek: EKParams, f, x) -> float:
    """Erdelyi-Kober fractional integral I^{zeta,mu}_eta f at x > 0.

    Substituting s = (tau/x)^eta in

        eta x^{-eta(mu+zeta)}/Gamma(mu) int_0^x tau^{eta(zeta+1)-1}
            (x^eta - tau^eta)^{mu-1} f(tau) dtau

    cancels every power of x and leaves the Beta average

        Gamma(zeta+1)/Gamma(zeta+mu+1) E[f(x U^{1/eta})],
            U ~ Beta(zeta+1, mu),

    so one routine covers all (zeta, mu, eta), including the singular
    endpoints zeta < 0 and mu < 1.  For f = 1 the value is the prefactor,
    independent of x and eta.  Prefactor and average are multiplied in
    logs, so a value that is a float comes out even where the prefactor
    alone is not (mu beyond about 171).
    """
    x = _real("x", x, 0.0)
    inv_eta = 1.0 / ek.eta
    mean = _beta_mean(lambda s: np.asarray(f(x * s**inv_eta), dtype=float), ek.zeta + 1.0, ek.mu)
    if mean == 0.0:
        return 0.0
    ln_pref = ln_gamma(ek.zeta + 1.0) - ln_gamma(ek.zeta + ek.mu + 1.0)
    return math.copysign(math.exp(ln_pref + math.log(abs(mean))), mean)


def epd_dalembert_1d(f, xi_param, c, x, t) -> float:
    """Singular-damped d'Alembert average

        u(x,t) = 2/B(xi,1/2) int_0^1 (1-y^2)^{xi-1}
                 [f(x+yct) + f(x-yct)]/2 dy
               = E[(f(x + ct sqrt(V)) + f(x - ct sqrt(V)))/2],
                 V ~ Beta(1/2, xi)   (V = y^2),

    the solution with u(x,0) = f and u_t(x,0) = 0 of the wave equation
    with damping coefficient 2 xi / t.  At t = 0 the average collapses to
    f(x).
    """
    xi_param = _real("xi_param", xi_param, 0.0)
    c, x, t = _real("c", c), _real("x", x), _real("t", t)
    if t == 0.0:
        return float(f(np.asarray(x)))

    def g(v):
        shift = np.sqrt(v) * c * t
        return 0.5 * (np.asarray(f(x + shift), dtype=float) + np.asarray(f(x - shift), dtype=float))

    return _beta_mean(g, 0.5, xi_param)


def velocity_representation_residual(p: FamilyParams, x, t):
    """u(x, t) minus the speed-variable form f_V(|x|/t^alpha) / (2 t^alpha).

    f_V(v) = (beta/c)(1-(v/c)^beta)^gamma / B(1/beta, gamma+1) on (0, c).
    Both forms share the family's profile (1 - z^beta)^gamma, z = |x| /
    (c t^alpha), so what is checked is the constant: beta / (2 c t^alpha
    B(1/beta, gamma+1)), summed in logs, against C t^{-alpha}.  The residual
    is zero to rounding everywhere (both vanish outside the front).
    Elementwise in x.
    """
    _require_dim(p, "velocity_representation_residual", one=True)
    t = _real("t", t, 0.0)
    x_arr = np.asarray(x, dtype=float)
    ln_amp = math.log(p.beta_exp / (2.0 * p.c)) - ln_beta(1.0 / p.beta_exp, p.gamma_exp + 1.0)
    out = pdf(p, x_arr, t) - _profile(p, np.abs(x_arr), t, math.exp(ln_amp - p.alpha * math.log(t)))
    return float(out) if np.ndim(x) == 0 else out


def radial_prefactor_report(p: FamilyParams, r, t) -> tuple:
    """Relative residuals (stated, corrected) of the two prefactor
    readings of the d >= 2 radius representation against the pdf at an
    interior point (r, t); each is (variant - pdf) / max(pdf, 1e-300).

    The Z-variable density is f_Z(z) = (beta/c)(z/c)^{d/2}
    (1-(z/c)^beta)^gamma / B((d/2+1)/beta, gamma+1) on (0, c).  The
    stated identity multiplies f_Z(r/t^alpha)/t^alpha by the prefactor
    B((d/2+1)/beta, gamma+1) / (sigma (c t^alpha r)^{d/2-1} B(d/beta,
    gamma+1)); the corrected form divides by one more power of r.  f_Z
    shares the family's profile, so what each reading checks is its
    constant, summed in logs (sigma and the power of c t^alpha r underflow
    as floats at large d).  Which one closes is recorded, not assumed.
    """
    _require_dim(p, "radial_prefactor_report", one=False)
    t = _real("t", t, 0.0)
    r = _real("r", r, 0.0, support_radius(p, t))
    u = float(pdf(p, np.concatenate([[r], np.zeros(p.d - 1)]), t))
    ln_front, ln_r = math.log(support_radius(p, t)), math.log(r)
    ln_b_z = ln_beta((0.5 * p.d + 1.0) / p.beta_exp, p.gamma_exp + 1.0)
    ln_b_r = ln_beta(p.d / p.beta_exp, p.gamma_exp + 1.0)
    ln_prefactor = ln_b_z - ln_sphere(p.d) - (0.5 * p.d - 1.0) * (ln_front + ln_r) - ln_b_r
    # f_Z(r/t^alpha) less its profile, with (r/t^alpha)/c = r/(c t^alpha)
    ln_f_z = math.log(p.beta_exp / p.c) + 0.5 * p.d * (ln_r - ln_front) - ln_b_z
    stated = float(_profile(p, r, t, math.exp(ln_prefactor + ln_f_z - p.alpha * math.log(t))))
    corrected = stated / r
    scale = max(u, 1e-300)
    return (stated - u) / scale, (corrected - u) / scale
