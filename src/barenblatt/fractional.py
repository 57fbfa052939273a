"""Riemann-Liouville fractional derivative (power rule and L1 scheme),
the explicit solution of the nonlinear time-fractional diffusion
equation, and its interior residual.

The residual check applies the power rule to the GLOBAL polynomial
C1 t^{-nu} - C2 x^2 t^{-3 nu} term by term; the interaction between the
positive-part truncation and the nonlocal memory integral across the
free boundary is an open matter and is deliberately not resolved here:
the identity is certified on the strict interior of the support only.
"""

from __future__ import annotations

import math

import numpy as np

from .presets import FractionalParams
from .specfun import _count, _ln_gamma_signed, _real, ln_gamma

__all__ = [
    "rl_power_rule",
    "rl_derivative_numeric",
    "fractional_solution",
    "fbe_residual",
]


def rl_power_rule(exp_beta: float, nu: float, t: float) -> float:
    """Riemann-Liouville derivative of t^beta:
    Gamma(1+beta)/Gamma(1+beta-nu) * t^{beta-nu}.

    The denominator Gamma can be negative (1+beta-nu in a negative
    non-integer range), so the quotient is assembled from log-absolute
    values with an explicit sign.  A nonpositive-integer 1+beta-nu is a
    pole of the quotient's denominator and is rejected.
    """
    exp_beta = _real("exp_beta", exp_beta, -1.0)
    nu = _real("nu", nu, 0.0)
    t = _real("t", t, 0.0)
    z = 1.0 + exp_beta - nu
    if z <= 1e-12 and abs(z - round(z)) <= 1e-12:
        raise ValueError(
            f"1 + exp_beta - nu = {z} is a nonpositive integer (Gamma pole)"
        )
    ln_den, sign = _ln_gamma_signed(z)
    return sign * math.exp(ln_gamma(1.0 + exp_beta) - ln_den) * t ** (exp_beta - nu)


def rl_derivative_numeric(f, nu: float, t: float, n_steps: int) -> float:
    """L1 discretization of the Riemann-Liouville derivative at t.

    On the nodes 0, h, ..., m h = t with h = t / m and m = n_steps,
    splitting off the initial value,

        D^nu f(t) = f(0) t^{-nu} / Gamma(1-nu)
                    + h^{-nu}/Gamma(2-nu) * sum_{j<m} (f_{j+1}-f_j) b_{m-1-j},
        b_i = (i+1)^{1-nu} - i^{1-nu},

    which is the classical piecewise-linear-interpolant scheme; global
    accuracy O(h^{2-nu}) on smooth f, and exact whenever f is linear
    (the interpolant is f itself).  f is evaluated on the nodes, so it
    must be finite at 0 and vectorized over a node array.
    """
    nu = _real("nu", nu, 0.0, 1.0)
    t = _real("t", t, 0.0)
    m = _count("n_steps", n_steps, least=2)
    h = t / m
    nodes = h * np.arange(m + 1)
    fv = np.asarray(f(nodes), dtype=float)
    if fv.shape != nodes.shape or not np.all(np.isfinite(fv)):
        raise ValueError("f must map the node array to finite values elementwise")
    i = np.arange(m, dtype=float)
    b = (i + 1.0) ** (1.0 - nu) - i ** (1.0 - nu)
    hist = float(np.dot(np.diff(fv), b[::-1]))
    return fv[0] * t ** (-nu) / math.gamma(1.0 - nu) + h ** (-nu) / math.gamma(
        2.0 - nu
    ) * hist


def fractional_solution(fp: FractionalParams, x, t):
    """Explicit solution u(x,t) = C1 t^{-nu} (1 - (C2/C1) x^2 / t^{2 nu})_+.

    An unnormalized member shape with alpha = nu, beta = 2, gamma = 1 and
    front scale sqrt(C1/C2); not a probability density.  Elementwise in x.
    """
    t = _real("t", t, 0.0)
    x_arr = np.asarray(x, dtype=float)
    s = (fp.C2 / fp.C1) * x_arr**2 * t ** (-2.0 * fp.nu)
    out = fp.C1 * t ** (-fp.nu) * np.maximum(1.0 - s, 0.0)
    return float(out) if np.ndim(x) == 0 else out


def fbe_residual(fp: FractionalParams, x: float, t: float) -> float:
    """Residual t^{-2 nu} D^nu u + t^{-nu} u_xx + (u_x)^2 at an interior point.

    D^nu is applied term by term to the polynomial form
    u = C1 t^{-nu} - C2 x^2 t^{-3 nu} through the power rule; u_x and
    u_xx are closed forms.  The coefficients were built to balance the
    resulting powers, so the residual vanishes to rounding on the strict
    interior (where the positive part is inactive).
    """
    x = _real("x", x)
    t = _real("t", t, 0.0)
    if not (x**2 < (fp.C1 / fp.C2) * t ** (2.0 * fp.nu)):
        raise ValueError("(x, t) is not strictly inside the support")
    nu = fp.nu
    d_nu_u = fp.C1 * rl_power_rule(-nu, nu, t) - fp.C2 * x**2 * rl_power_rule(
        -3.0 * nu, nu, t
    )
    u_xx = -2.0 * fp.C2 * t ** (-3.0 * nu)
    u_x = -2.0 * fp.C2 * x * t ** (-3.0 * nu)
    return t ** (-2.0 * nu) * d_nu_u + t ** (-nu) * u_xx + u_x**2
