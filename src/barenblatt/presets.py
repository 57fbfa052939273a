"""Parameter mappings from named PDE special cases into the family.

`ple_preset` and `npme_preset` return a record of their derived constants
alongside the mapped FamilyParams; the other members are the
FamilyParams alone.  Amplitude constants are solved in log-gamma space.

p-Laplacian evolution (front scale derivation).  The mapped member has
beta = p/(p-1), gamma = (p-1)/(p-2), alpha = k/d with
k = (p-2+p/d)^{-1} and q = ((p-2)/p)(k/d)^{1/(p-1)}.  Its amplitude and
front are tied to a single scale fc by C = fc^gamma and
c = (fc/q)^{1/beta}.  Unit mass forces C to equal the family normalizer
beta / (c^d sigma_d B(d/beta, gamma+1)), which is one log-linear
equation in fc:

    (gamma + d/beta) ln fc = ln beta + (d/beta) ln q
                             - ln sigma_d - ln B(d/beta, gamma+1).

Porous-medium source solution (amplitude condition).  A member with
beta = 2 and gamma = 1/(m-1) solves u_t = ((m-1)/m) Lap(u^m) if and only
if C^{m-1} = (alpha/2) c^2 with alpha = 1/(d(m-1)+2): substituting
u = t^{-alpha d} F(r t^{-alpha}) and integrating the resulting first-order
relation once gives (F^{m-1})' = -alpha y, i.e. F^{m-1} = A - (alpha/2) y^2,
and matching A = C^{m-1}, A/c^2 = (alpha/2) yields the condition.  Scalar
multiples of solutions are not solutions here, so the normalized member
with the nonlocal-equation front scale c = k^{-1/nu} does NOT satisfy the
equation; `zkb_source_preset` instead solves the amplitude condition
jointly with unit mass,

    c^{d(m-1)+2} = (2 / (sigma_d B(d/2, gamma+1)))^{m-1} * (2/alpha),

which is the mass-one source solution.  The verification harness reports
the residuals of both readings rather than silently preferring one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .family import FamilyParams, new_family
from .specfun import _check_dim, _count, _ln_gamma_signed, _real, ln_beta, ln_gamma, ln_sphere

__all__ = [
    "PLEParams",
    "NPMEParams",
    "FractionalParams",
    "ple_preset",
    "npme_preset",
    "epd_preset",
    "wigner_preset",
    "zkb_source_preset",
    "catalan",
    "fractional_preset",
]


@dataclass(frozen=True)
class PLEParams:
    """The p-Laplacian evolution's derived scales k, q and fc."""

    k: float
    q: float
    frak_c: float


@dataclass(frozen=True)
class NPMEParams:
    """The nonlocal porous-medium problem's displayed constants.

    With the term-matched front scale c = k^{-1/nu}, C_const coincides
    with the unit-mass family normalizer; the presets suite checks the two
    to rounding.
    """

    k_const: float
    C_const: float


@dataclass(frozen=True)
class FractionalParams:
    """Coefficients of the explicit time-fractional solution.

    C1 = Gamma(1-3nu) Gamma(1-2nu) / (2 Gamma(1-4nu) Gamma(1-nu)) and
    C2 = Gamma(1-3nu) / (4 Gamma(1-4nu)) balance the equation's terms.
    Both are positive for nu in (0, 1/4); past nu = 1/4 the factor
    Gamma(1-4nu) turns negative and both constants change sign (the
    solution stays admissible, the balance identities are sign-free).
    nu = 1/4 itself hits the Gamma pole and is rejected.
    """

    nu: float
    C1: float
    C2: float


def ple_preset(p: float, d: int):
    """Map the p-Laplacian evolution fundamental solution into the family.

    Returns (PLEParams, FamilyParams); fc is solved from the log-linear
    mass constraint in the module docstring.  gamma blows up as p -> 2+,
    which is flagged as near-degenerate.
    """
    p = _real("p", p, 2.0)
    d = _check_dim(d)
    beta_exp = p / (p - 1.0)
    gamma_exp = (p - 1.0) / (p - 2.0)
    if gamma_exp > 100.0:
        warnings.warn(
            f"p = {p} is near-degenerate: the profile exponent gamma = "
            f"{gamma_exp:.3g} is extreme and the front is nearly flat",
            RuntimeWarning,
        )
    k = 1.0 / (p - 2.0 + p / d)
    q = ((p - 2.0) / p) * (k / d) ** (1.0 / (p - 1.0))
    a = d / beta_exp
    ln_fc = (
        math.log(beta_exp) + a * math.log(q) - ln_sphere(d) - ln_beta(a, gamma_exp + 1.0)
    ) / (gamma_exp + a)
    frak_c = math.exp(ln_fc)
    c = (frak_c / q) ** (1.0 / beta_exp)
    fam = new_family(k / d, beta_exp, gamma_exp, c, d)
    return PLEParams(k=k, q=q, frak_c=frak_c), fam


def npme_preset(m: float, nu: float, d: int):
    """Map the nonlocal porous-medium self-similar solution into the family.

    beta = 2, gamma = nu/(2(m-1)), alpha = 1/(d(m-1)+nu), and the front
    scale is the term-matched c = k^{-1/nu} (the free boundary sits at
    ||x|| = k^{-1/nu} t^alpha, so the squared argument k^{2/nu}||x||^2 /
    t^{2 alpha} equals (||x||/(c t^alpha))^2 exactly).  The displayed
    amplitude is then the unit-mass normalizer, which is recomputed and
    compared by the presets suite.
    """
    m = _real("m", m, 1.0)
    nu = _real("nu", nu, 0.0)
    if nu > 2.0:
        raise ValueError(f"nu must lie in (0, 2], got {nu}")
    d = _check_dim(d)
    alpha = 1.0 / (d * (m - 1.0) + nu)
    gamma_exp = nu / (2.0 * (m - 1.0))
    ln_k = (
        math.log(d)
        + ln_gamma(0.5 * d)
        - math.log(d * (m - 1.0) + nu)
        - nu * math.log(2.0)
        - ln_gamma(1.0 + 0.5 * nu)
        - ln_gamma(0.5 * (d + nu))
    )
    k_const = math.exp(ln_k)
    c = math.exp(-ln_k / nu)
    # first, so a member whose C overflows gets new_family's refusal, not
    # an OverflowError from exp(ln_c_const)
    fam = new_family(alpha, 2.0, gamma_exp, c, d)
    ln_c_const = (
        ln_gamma(0.5 * d + gamma_exp + 1.0)
        + (d / nu) * ln_k
        - 0.5 * d * math.log(math.pi)
        - ln_gamma(gamma_exp + 1.0)
    )
    return NPMEParams(k_const=k_const, C_const=math.exp(ln_c_const)), fam


def epd_preset(nu: float, c: float, d: int) -> FamilyParams:
    """Map the Euler-Poisson-Darboux fundamental solution into the family.

    beta = 2, alpha = 1, gamma = nu - 1, same wave speed c.  The density
    constant Gamma(nu + d/2) / (pi^{d/2} Gamma(nu) c^d) is the same
    algebraic object as the family normalizer (B(d/2, nu) written out);
    the presets suite checks the two to rounding.  nu <= 1 would give
    gamma <= 0 and a boundary blow-up outside the family's invariants, so
    it is rejected.
    """
    # new_family refuses c and d by name
    return new_family(1.0, 2.0, _real("nu", nu, 1.0) - 1.0, c, d)


def wigner_preset() -> FamilyParams:
    """The semicircle member: d=1, alpha=1/2, beta=2, gamma=1/2, c=2.

    pdf(x, t) = sqrt(4t - x^2) / (2 pi t) on |x| <= 2 sqrt(t); even
    moments are the scaled Catalan numbers catalan(m) t^m.
    """
    return new_family(0.5, 2.0, 0.5, 2.0, 1)


def zkb_source_preset(m: float, d: int) -> FamilyParams:
    """Unit-mass source solution of u_t = ((m-1)/m) Lap(u^m).

    gamma = 1/(m-1), beta = 2, alpha = 1/(d(m-1)+2), and the front scale
    solves the amplitude condition C^{m-1} = (alpha/2) c^2 jointly with
    unit mass (module docstring); both properties then hold by
    construction and are what the PDE residual suite certifies.
    """
    m = _real("m", m, 1.0)
    d = _check_dim(d)
    gamma_exp = 1.0 / (m - 1.0)
    alpha = 1.0 / (d * (m - 1.0) + 2.0)
    ln_c = (
        (m - 1.0) * (math.log(2.0) - ln_sphere(d) - ln_beta(0.5 * d, gamma_exp + 1.0))
        + math.log(2.0 / alpha)
    ) / (d * (m - 1.0) + 2.0)
    return new_family(alpha, 2.0, gamma_exp, math.exp(ln_c), d)


def catalan(m: int) -> int:
    """Catalan number binom(2m, m) / (m+1) in exact integer arithmetic.

    Python integers are unbounded, so the division is exact at every m
    and there is no overflow range to police.
    """
    m = _count("m", m)
    return math.comb(2 * m, m) // (m + 1)


def fractional_preset(nu: float) -> FractionalParams:
    """Coefficients C1, C2 of the explicit time-fractional solution.

    Computed through sign-carrying log-gamma: every factor is positive
    for nu < 1/4, while Gamma(1-4nu) < 0 on (1/4, 1/3) flips the sign of
    both constants there.  nu = 1/4 is the Gamma(0) pole and is rejected
    exactly, as is anything outside (0, 1/3).
    """
    nu = _real("nu", nu, 0.0, 1.0 / 3.0)
    if nu == 0.25:
        raise ValueError("nu = 1/4 is excluded (coefficient pole)")
    ln3, s3 = _ln_gamma_signed(1.0 - 3.0 * nu)
    ln2, s2 = _ln_gamma_signed(1.0 - 2.0 * nu)
    ln4, s4 = _ln_gamma_signed(1.0 - 4.0 * nu)
    ln1, s1 = _ln_gamma_signed(1.0 - nu)
    c1 = 0.5 * (s3 * s2 * s4 * s1) * math.exp(ln3 + ln2 - ln4 - ln1)
    c2 = 0.25 * (s3 * s4) * math.exp(ln3 - ln4)
    return FractionalParams(nu=nu, C1=c1, C2=c2)
