"""The compactly supported self-similar density family.

A member is

    u(x, t) = C t^{-alpha d} (1 - (|x| / c t^alpha)^beta)_+^gamma

on R^d, with C chosen so that u(., t) integrates to one for every t > 0.
The support is the closed ball of radius c t^alpha; u vanishes identically
outside it (exact 0.0, not a denormal) and is maximal at the origin.

u is evaluated in logs, in `_profile` alone, as C t^{-alpha d}
exp(gamma log1p(-z^beta)) with z = |x| / (c t^alpha): no rounded
1 - z^beta is raised to the power gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import _check_dim, _real, inv_reg_inc_beta, ln_beta, ln_sphere, reg_inc_beta

__all__ = [
    "FamilyParams",
    "new_family",
    "support_radius",
    "pdf",
    "radial_pdf",
    "ball_probability",
    "cdf_1d",
    "quantile_1d",
    "radial_moment",
    "self_similarity_residual",
]


@dataclass(frozen=True)
class FamilyParams:
    """Parameters of one family member; norm_c is derived, not free.

    Immutable after construction; all evaluation paths assume the
    constraints checked by `new_family` hold.
    """

    alpha: float
    beta_exp: float
    gamma_exp: float
    c: float
    d: int
    norm_c: float


# the largest gamma accepted: ln B and the incomplete beta at b = gamma + 1
# are validated against mpmath and scipy up to 1e8
_GAMMA_MAX = 1e8


def new_family(alpha, beta_exp, gamma_exp, c, d) -> FamilyParams:
    """Validate parameters and compute the normalization constant.

    C = beta / (c^d sigma(S^{d-1}) B(d/beta, gamma+1)), assembled in log
    space so extreme parameter combinations cannot overflow on the way.
    gamma must lie in (0, 1e8].
    """
    alpha = _real("alpha", alpha, 0.0)
    beta_exp = _real("beta_exp", beta_exp, 0.0)
    gamma_exp = _real("gamma_exp", gamma_exp, 0.0)
    if gamma_exp > _GAMMA_MAX:
        raise ValueError(f"gamma_exp must lie in (0, {_GAMMA_MAX:g}], got {gamma_exp}")
    c = _real("c", c, 0.0)
    d = _check_dim(d)
    with np.errstate(over="ignore", invalid="ignore"):
        ln_c = (
            math.log(beta_exp)
            - d * math.log(c)
            - ln_sphere(d)
            - ln_beta(d / beta_exp, gamma_exp + 1.0)
        )
    try:
        norm_c = math.exp(ln_c)
    except OverflowError:
        norm_c = math.inf
    if not 0.0 < norm_c < math.inf:  # nan fails this too
        raise ValueError(
            f"normalization C = exp({ln_c}) is not a finite positive float for "
            f"alpha={alpha}, beta_exp={beta_exp}, gamma_exp={gamma_exp}, c={c}, d={d}"
        )
    return FamilyParams(alpha, beta_exp, gamma_exp, c, d, norm_c)


def support_radius(p: FamilyParams, t) -> float:
    """Front radius r(t) = c t^alpha."""
    t = _real("t", t, 0.0)
    return p.c * t**p.alpha


def _radius_of(p: FamilyParams, x):
    """Reduce a point argument to radii.

    Conventions: a scalar is a point on the first coordinate axis; for
    d = 1 arrays are elementwise points; for d >= 2 the last axis must
    have length d (a (d,) vector is a single point, (..., d) is a batch).
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0 or p.d == 1:
        return np.abs(arr)
    if arr.shape[-1] != p.d:
        raise ValueError(
            f"point array must have last axis of length d={p.d}, got shape {arr.shape}"
        )
    return np.sqrt(np.sum(arr * arr, axis=-1))


def _scaled_radius(p: FamilyParams, r, t: float):
    """z = r / (c t^alpha) for radii r >= 0, pinned to 1 from the front
    outward; pow of z <= 1 to beta > 0 cannot round above 1."""
    return np.minimum(np.asarray(r, dtype=float) / (p.c * t**p.alpha), 1.0)


def _profile(p: FamilyParams, r, t: float, amp=None):
    """amp (1 - z^beta)^gamma at radii r >= 0, u(r, t) for the default amp
    C t^{-alpha d}; exact 0.0 from the front outward.  The power of a
    rounded 1 - z^beta would carry gamma times its rounding error."""
    # the amplitude first: where t^alpha underflows to 0 it overflows
    # (OverflowError) before the quotient below can turn 0/0
    if amp is None:
        amp = p.norm_c * t ** (-p.alpha * p.d)
    z = _scaled_radius(p, r, t)
    # log1p(-1) = -inf at z = 1, and exp(-inf) is the exact zero
    with np.errstate(divide="ignore"):
        return amp * np.exp(p.gamma_exp * np.log1p(-(z**p.beta_exp)))


def pdf(p: FamilyParams, x, t):
    """Density u(x, t); see `_radius_of` for accepted point layouts."""
    t = _real("t", t, 0.0)
    out = _profile(p, _radius_of(p, x), t)
    return float(out) if np.ndim(out) == 0 else out


def radial_pdf(p: FamilyParams, r, t):
    """Density of the radius |X(t)|: sigma(S^{d-1}) r^{d-1} u(r, t), as
    sigma C c^{d-1} t^{-alpha} z^{d-1} (1 - z^beta)^gamma with the amplitude
    in logs: sigma underflows where C overflows (sigma(S^399) ~ 1e-273)."""
    t = _real("t", t, 0.0)
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0.0):
        raise ValueError("radius must be >= 0")
    amp = math.exp(
        ln_sphere(p.d) + math.log(p.norm_c) + (p.d - 1) * math.log(p.c) - p.alpha * math.log(t)
    )
    out = _profile(p, r_arr, t, amp) * _scaled_radius(p, r_arr, t) ** (p.d - 1)
    return float(out) if np.ndim(r) == 0 else out


def ball_probability(p: FamilyParams, a, t):
    """P(|X(t)| <= a) = I((a/ct^alpha)^beta; d/beta, gamma+1), clamped at 1."""
    t = _real("t", t, 0.0)
    a_arr = np.asarray(a, dtype=float)
    if np.any(a_arr < 0.0):
        raise ValueError("ball radius must be >= 0")
    z = _scaled_radius(p, a_arr, t) ** p.beta_exp
    out = reg_inc_beta(z, p.d / p.beta_exp, p.gamma_exp + 1.0)
    return float(out) if np.ndim(a) == 0 else np.asarray(out)


def _require_dim(p: FamilyParams, caller: str, one: bool):
    """Refuse a member that `caller` cannot take: d = 1 if `one`, else d >= 2."""
    if (p.d == 1) != one:
        raise ValueError(f"{caller} requires d {'= 1' if one else '>= 2'}, got d = {p.d}")


def cdf_1d(p: FamilyParams, x, t):
    """Distribution function F(x) = (1 + sgn(x) I((|x|/ct^alpha)^beta; 1/beta, gamma+1))/2.

    The incomplete-beta argument carries the beta power: that is the only
    reading consistent with the ball law and with quadrature of the pdf.
    """
    _require_dim(p, "cdf_1d", one=True)
    t = _real("t", t, 0.0)
    x_arr = np.asarray(x, dtype=float)
    z = _scaled_radius(p, np.abs(x_arr), t) ** p.beta_exp
    half_mass = reg_inc_beta(z, 1.0 / p.beta_exp, p.gamma_exp + 1.0)
    out = 0.5 * (1.0 + np.sign(x_arr) * half_mass)
    return float(out) if np.ndim(x) == 0 else out


def quantile_1d(p: FamilyParams, q, t):
    """Inverse of cdf_1d; q = 0, 1/2, 1 map to -r(t), 0, r(t)."""
    _require_dim(p, "quantile_1d", one=True)
    t = _real("t", t, 0.0)
    q_arr = np.asarray(q, dtype=float)
    if np.any(q_arr < 0.0) or np.any(q_arr > 1.0):
        raise ValueError("quantile level must lie in [0, 1]")
    y = inv_reg_inc_beta(np.abs(2.0 * q_arr - 1.0), 1.0 / p.beta_exp, p.gamma_exp + 1.0)
    out = np.sign(q_arr - 0.5) * (p.c * t**p.alpha) * np.asarray(y) ** (1.0 / p.beta_exp)
    return float(out) if np.ndim(q) == 0 else out


def radial_moment(p: FamilyParams, k, t) -> float:
    """E |X(t)|^k = c^k t^{alpha k} B((d+k)/beta, gamma+1) / B(d/beta, gamma+1)."""
    t = _real("t", t, 0.0)
    k = _real("k", k)
    if k < 0.0:
        raise ValueError(f"k must be >= 0, got {k}")
    ln_ratio = ln_beta((p.d + k) / p.beta_exp, p.gamma_exp + 1.0) - ln_beta(
        p.d / p.beta_exp, p.gamma_exp + 1.0
    )
    return math.exp(k * math.log(p.c) + p.alpha * k * math.log(t) + ln_ratio)


def self_similarity_residual(p: FamilyParams, x, t, L):
    """u(x, t) - L^{d alpha} u(L^alpha x, L t); zero for every member."""
    t = _real("t", t, 0.0)
    L = _real("L", L, 0.0)
    r = _radius_of(p, x)
    lhs = _profile(p, r, t)
    rhs = L ** (p.d * p.alpha) * _profile(p, L**p.alpha * r, L * t)
    out = lhs - rhs
    return float(out) if np.ndim(out) == 0 else out
