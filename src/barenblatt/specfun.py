"""Special functions and adaptive quadrature, self-contained on numpy.

Provides log-gamma (Lanczos), ln B (Stirling differences for large
arguments), the regularized incomplete beta function and its inverse
(Halley steps from a seed interpolated in a forward table, each step
confirmed where it can be by integrating the density across it), Bessel J of
real order 0 to 1500 and its entire quotient Gamma(mu+1) (2/x)^mu J_mu(x),
the surface measure of the unit sphere,
and a globally adaptive integrator on the nested Gauss-Kronrod 7/15 rule
(15 integrand evaluations per panel give both the value and the error
estimate).  The integrator takes vector integrands: m columns share one
mesh, each column meets its own tolerance, and every refinement pass is
one integrand call.  Scalar inputs come back as Python floats, array inputs
broadcast elementwise; ln Gamma and ln B of scalars run the same formulas
on numpy scalars, with the array path's bits.  The incomplete beta and its
inverse take scalar a and b and broadcast over their first argument.

Argument policy for the whole package: every scalar a public function
takes goes through one of three helpers here before anything is derived
from it.  `_real` returns a finite float inside an open interval, `_count`
an int with a lower bound, and `_check_dim` a dimension d with a lower
bound.  Each refuses NaN, +-inf and a bool (and a non-integer count or d)
with an error whose message starts with the argument's name; a closed end
of an interval is one explicit comparison after `_real`.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

__all__ = [
    "QuadratureError",
    "ln_gamma",
    "ln_beta",
    "beta_fn",
    "reg_inc_beta",
    "inv_reg_inc_beta",
    "bessel_j",
    "ln_sphere",
    "sphere_surface",
    "integrate",
]


def _real(name, v, lo=-math.inf, hi=math.inf) -> float:
    """v as a float inside the open interval (lo, hi), so finite: NaN, +-inf
    and a bool are refused by name."""
    if isinstance(v, (bool, np.bool_)):
        raise TypeError(f"{name} must be a real number, got {v!r}")
    x = float(v)
    # NaN fails both comparisons, and an infinity the strict one at its end
    if not lo < x < hi:
        where = f" and > {lo:g}" if lo > -math.inf else ""
        if hi < math.inf:
            where = f" and lie in ({lo:g}, {hi:g})"
        raise ValueError(f"{name} must be finite{where}, got {x}")
    return x


def _count(name, v, least=0):
    """v as an int >= least.  A float or a bool is refused: int() would
    truncate it to a silently wrong count."""
    try:
        n = operator.index(v)
    except TypeError:
        n = None
    if n is None or isinstance(v, (bool, np.bool_)):
        raise TypeError(f"{name} must be an integer, got {v!r}")
    if n < least:
        raise ValueError(f"{name} must be >= {least}, got {n}")
    return n


def _check_dim(d, least=1) -> int:
    """d as an int >= least; a bool, non-finite or non-integer d is refused,
    not truncated."""
    if isinstance(d, (bool, np.bool_)) or not (least <= d < math.inf and int(d) == d):
        raise ValueError(f"d must be an integer >= {least}, got {d}")
    return int(d)


def _as_1d(x):
    """Coerce to a float ndarray, remembering whether the input was scalar."""
    arr = np.asarray(x, dtype=float)
    return np.atleast_1d(arr).copy(), arr.ndim == 0, arr.shape


# ----------------------------------------------------------------------
# log-gamma

# Lanczos approximation, g = 7 with 9 coefficients.  The rational part is
# accurate to ~1e-15 relative on the right half line.
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_LN_SQRT_2PI = 0.9189385332046727418


# These run on arrays and on np.float64 scalars alike: numpy's scalar ufuncs
# give the array loop's bits, where math.log1p and friends need not.


def _ln_gamma_right(x):
    # Lanczos core, valid for x >= 0.5.
    z = x - 1.0
    series = _LANCZOS_COEF[0]
    for i in range(1, len(_LANCZOS_COEF)):
        series = series + _LANCZOS_COEF[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return _LN_SQRT_2PI + (z + 0.5) * np.log(t) - t + np.log(series)


def _ln_gamma_reflected(x):
    # x < 0.5; sin(pi x) > 0 on (0, 1/2) so no sign to track here
    return math.log(math.pi) - np.log(np.sin(math.pi * x)) - _ln_gamma_right(1.0 - x)


def _ln_gamma_scalar(x):
    return _ln_gamma_reflected(x) if x < 0.5 else _ln_gamma_right(x)


def ln_gamma(x):
    """ln Gamma(x) for x > 0.  Broadcasts; scalar in, float out."""
    if np.ndim(x) == 0:
        x = np.float64(x)
        if not (np.isfinite(x) and x > 0.0):
            raise ValueError("ln_gamma requires finite x > 0")
        return float(_ln_gamma_scalar(x))
    arr, _, shape = _as_1d(x)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise ValueError("ln_gamma requires finite x > 0")
    out = np.empty_like(arr)
    small = arr < 0.5
    if np.any(small):
        out[small] = _ln_gamma_reflected(arr[small])
    big = ~small
    if np.any(big):
        out[big] = _ln_gamma_right(arr[big])
    return out.reshape(shape)


def _ln_gamma_signed(x: float) -> tuple[float, float]:
    """(ln |Gamma(x)|, sign of Gamma(x)) for real x away from the poles.

    Needed for constants built from Gamma at negative arguments.  Raises
    ValueError at 0, -1, -2, ... where Gamma has poles.
    """
    xf = float(x)
    if xf > 0.0:
        return ln_gamma(xf), 1.0
    if xf == math.floor(xf):
        raise ValueError(f"Gamma pole at x = {xf}")
    # Gamma(x) = pi / (sin(pi x) Gamma(1 - x))
    s = math.sin(math.pi * xf)
    val = math.log(math.pi) - math.log(abs(s)) - ln_gamma(1.0 - xf)
    return val, math.copysign(1.0, s)


# Stirling series of ln Gamma past its leading terms,
#   Delta(z) = ln Gamma(z) - (z - 1/2) ln z + z - ln sqrt(2 pi)
#            = sum_k B_2k / (2k (2k - 1) z^(2k - 1)),
# in powers of 1/z^2; eight terms leave < 2e-18 absolute for z >= 10
_STIRLING_COEF = (
    1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
    1.0 / 1188.0, -691.0 / 360360.0, 1.0 / 156.0, -3617.0 / 122400.0,
)
_LN_BETA_STIRLING_MIN = 10.0


def _stirling_delta(z):
    r = 1.0 / z
    t = r * r
    s = _STIRLING_COEF[-1]
    for coef in _STIRLING_COEF[-2::-1]:
        s = s * t + coef
    return s * r


def ln_beta(a, b):
    """ln B(a, b) for finite a, b > 0.  Broadcasts; scalar in, float out.

    Below max(a, b) = 10 this is ln Gamma(a) + ln Gamma(b) - ln Gamma(a + b).
    From 10 on that sum cancels about eps |ln Gamma(max(a, b))|, so
    ln Gamma(max) - ln Gamma(a + b) comes from a Stirling difference
    instead (DiDonato & Morris, ACM TOMS 708, 1992: algdiv).
    """
    lo = np.minimum(a, b, dtype=float)
    hi = np.maximum(a, b, dtype=float)
    if not (np.all(lo > 0.0) and np.all(np.isfinite(hi))):
        raise ValueError("ln_beta requires finite a > 0 and b > 0")
    if lo.ndim == 0:
        g = _ln_gamma_scalar
        if hi < _LN_BETA_STIRLING_MIN:
            return float(g(lo) + g(hi) - g(lo + hi))
        return float(_ln_beta_far(g(lo), lo, hi))
    shape = lo.shape
    lo, hi = lo.ravel(), hi.ravel()
    out = np.empty_like(lo)
    near = hi < _LN_BETA_STIRLING_MIN
    l, h = lo[near], hi[near]
    out[near] = ln_gamma(l) + ln_gamma(h) - ln_gamma(l + h)
    l, h = lo[~near], hi[~near]
    out[~near] = _ln_beta_far(ln_gamma(l), l, h)
    return out.reshape(shape)


def _ln_beta_far(ln_gamma_lo, lo, hi):
    # ln Gamma(hi) - ln Gamma(lo + hi) as a Stirling difference (algdiv)
    s = lo + hi
    return ln_gamma_lo + (_stirling_delta(hi) - _stirling_delta(s)) - (
        (s - 0.5) * np.log1p(lo / hi) + lo * (np.log(hi) - 1.0)
    )


def beta_fn(a, b):
    """Euler beta B(a, b) for a, b > 0.  Broadcasts; scalar in, float out."""
    out = np.exp(ln_beta(a, b))
    return float(out) if np.ndim(out) == 0 else out


# ----------------------------------------------------------------------
# regularized incomplete beta and its inverse
#
# Both public functions take scalar a and b and hand every lane of their
# first argument to a core that computes ln B(a, b) once; lanes leave the
# continued fraction and the Newton loop as they converge.

_CF_MAX_ITER = 300
_CF_EPS = 1e-15
_CF_TINY = 1e-300


def _at_pair(core, name, first, v, a, b):
    """Check the domain and return core(lanes of v, a, b) for scalar a and
    b.  Scalar in, float out."""
    if np.ndim(a) or np.ndim(b):
        raise ValueError(f"{name} takes scalar a and b")
    a = _real("a", a, 0.0)
    b = _real("b", b, 0.0)
    v = np.asarray(v, dtype=float)
    v1 = v.ravel()
    if not (np.all(v1 >= 0.0) and np.all(v1 <= 1.0)):
        raise ValueError(f"{name} requires 0 <= {first} <= 1")
    out = core(v1, a, b)
    return float(out[0]) if not v.shape else out.reshape(v.shape)


def _clamp_tiny(v):
    # in place: entries below _CF_TINY in magnitude become _CF_TINY
    np.copyto(v, _CF_TINY, where=np.abs(v) < _CF_TINY)


def _lentz_step(aa, c, d):
    # in place: d <- 1/(1 + aa d) and c <- 1 + aa/c, denominators clamped
    d *= aa
    d += 1.0
    _clamp_tiny(d)
    np.divide(aa, c, out=c)
    c += 1.0
    _clamp_tiny(c)
    np.divide(1.0, d, out=d)


def _beta_cont_frac(a, b, x):
    """Continued fraction for the incomplete beta at scalar (a, b) over the
    lanes of x, by modified Lentz iteration.

    Fast convergence needs x < (a + 1)/(a + b + 2); the caller arranges
    that via the symmetry I_x(a, b) = 1 - I_{1-x}(b, a).  A lane leaves the
    working set on the step that converges it, so its value is final there.
    Raises ValueError naming the first unconverged (x, a, b) after
    _CF_MAX_ITER steps.
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    out = np.empty_like(x)
    lane = np.arange(x.size)
    # rows x, c, d, h of the lanes still iterating; one take() drops the
    # converged columns from all four
    work = np.empty((4, x.size))
    work[0] = x
    work[1] = 1.0
    x, c, d, h = work
    d[:] = 1.0 - qab * x / qap
    _clamp_tiny(d)
    np.divide(1.0, d, out=d)
    h[:] = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        _lentz_step(m * (b - m) * x / ((qam + m2) * (a + m2)), c, d)
        h *= d
        h *= c
        _lentz_step(-(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)), c, d)
        delta = d * c
        h *= delta
        conv = np.abs(delta - 1.0) < _CF_EPS
        if conv.any():
            k = np.flatnonzero(conv)
            out[lane[k]] = h[k]
            if k.size == lane.size:
                return out
            live = np.flatnonzero(~conv)
            lane = lane[live]
            work = work.take(live, axis=1)
            x, c, d, h = work
    raise ValueError(
        f"incomplete beta continued fraction did not converge in {_CF_MAX_ITER} "
        f"steps at x = {float(x[0])!r}, a = {a!r}, b = {b!r}"
    )


def _reg_inc_beta_pair(x, a, b):
    out = np.where(x == 1.0, 1.0, 0.0)
    mid = (x > 0.0) & (x < 1.0)
    if not mid.any():
        return out
    direct = mid & (x < (a + 1.0) / (a + b + 2.0))
    # the front factor x^a (1-x)^b / B(a, b) is symmetric under
    # (a, b, x) -> (b, a, 1-x), so ln B serves both branches
    ln_b = ln_beta(a, b)
    for lanes, p, q, flip in ((direct, a, b, False), (mid & ~direct, b, a, True)):
        xs = 1.0 - x[lanes] if flip else x[lanes]
        if xs.size:
            ln_front = p * np.log(xs) + q * np.log1p(-xs) - ln_b
            tail = np.exp(ln_front) * _beta_cont_frac(p, q, xs) / p
            out[lanes] = 1.0 - tail if flip else tail
    return out


def reg_inc_beta(x, a, b):
    """Regularized incomplete beta I_x(a, b), for 0 <= x <= 1 and a, b > 0.

    a and b are scalars; x broadcasts, scalar in, float out.  The edge
    values are exact: I_0 = 0 and I_1 = 1.  Each side of the reflection
    I_x(a, b) = 1 - I_{1-x}(b, a) is one continued-fraction call; a lane
    whose fraction does not converge raises ValueError naming the
    (x, a, b) the fraction was given.
    """
    return _at_pair(_reg_inc_beta_pair, "reg_inc_beta", "x", x, a, b)


# The seed table: _INV_BETA_NODES nodes uniform in logit x, from where the
# lower tail asymptote x^a/(a B) reaches _INV_BETA_TAIL to where the upper
# one, 1 - (1-x)^b/(b B), comes within it of 1
_INV_BETA_NODES = 129
_INV_BETA_TAIL = 1e-18
_INV_BETA_MAX_NEWTON = 100
_INV_BETA_TOL = 1e-13
_LOGIT_ONE = math.log(2.0**53 - 1.0)  # logit of the largest float below 1


def _logit(v):
    return np.log(v) - np.log1p(-v)


def _inv_beta_table_seed(p, a, b, ln_b):
    """Start for the lanes p, from one reg_inc_beta table.  Between the
    two nodes that bracket it, a lane takes the cubic Hermite interpolant
    of logit x against logit I_x, a plane in which both tails are
    asymptotically straight, with the slopes the density gives; beyond the table's ends it starts from the
    power-law asymptote.  Nodes whose I_x rounds to 0 or 1 are dropped."""
    # ln x and ln(1 - x) where the tail asymptotes reach _INV_BETA_TAIL,
    # capped so the two ends stay ordered, x stays a normal float and 1 - x
    # stays at least the ulp of 1
    ln_lo = min((math.log(_INV_BETA_TAIL * a) + ln_b) / a, math.log(0.5))
    ln_hi = min((math.log(_INV_BETA_TAIL * b) + ln_b) / b, math.log(0.5))
    z = np.linspace(
        max(ln_lo - math.log1p(-math.exp(ln_lo)), -700.0),
        min(math.log1p(-math.exp(ln_hi)) - ln_hi, _LOGIT_ONE),
        _INV_BETA_NODES,
    )
    x = 1.0 / (1.0 + np.exp(-z))
    # through the module global, so a wrapper installed on reg_inc_beta
    # counts the table too
    i_x = reg_inc_beta(x, a, b)
    keep = (i_x > 0.0) & (i_x < 1.0)
    i_x, x, z = i_x[keep], x[keep], z[keep]
    # I at node j - 1 <= p < I at node j
    j = np.searchsorted(i_x, p, side="right")
    x0 = np.empty_like(p)
    with np.errstate(all="ignore"):
        below, above = j == 0, j == i_x.size
        x0[below] = np.exp((np.log(p[below] * a) + ln_b) / a)
        x0[above] = -np.expm1((np.log1p(-p[above]) + math.log(b) + ln_b) / b)
        # per interval: its left end u and width h in logit I, and the
        # cubic's coefficients in t = (logit p - u)/h; the end slopes are
        # d logit x / d logit I = I (1 - I) B / (x^a (1 - x)^b), times h
        u = _logit(i_x)
        h = np.diff(u)
        slope = np.exp(np.log(i_x) + np.log1p(-i_x) + ln_b - a * np.log(x) - b * np.log1p(-x))
        s0, s1 = slope[:-1] * h, slope[1:] * h
        dz = np.diff(z)
        coef = np.array([u[:-1], h, z[:-1], s0, 3.0 * dz - 2.0 * s0 - s1, s0 + s1 - 2.0 * dz])
        inside = ~(below | above)
        u0, h, z0, c1, c2, c3 = coef.take(j[inside] - 1, axis=1)
        t = (_logit(p[inside]) - u0) / h
        x0[inside] = 1.0 / (1.0 + np.exp(-(z0 + t * (c1 + t * (c2 + t * c3)))))
    # fmax/fmin also move a NaN start inside
    return np.fmin(np.fmax(x0, 1e-300), 1.0 - 1e-16)


def _step_holds(x0, x1, r0, p, ln_x0, ln_1mx0, g_a, g_b, a, b, ln_b):
    """Lanes where I at x1 is known to lie within _INV_BETA_TOL of p
    without a continued fraction, from the direct residual r0 = I_x0 - p
    and the increment dI, the two-point Gauss-Legendre rule for the
    Beta(a, b) density f across the step.  Overwrites r0, ln_x0, ln_1mx0,
    g_a and g_b (the logs and the two terms of f'/f at x0), so that the
    lanes cost few arrays.

    Only a short step counts: within 1e-3 of x0 relative to
    min(x0, 1 - x0).  The margin 1e-14 + 32 eps (a |ln x0| +
    b |ln(1 - x0)| + |ln B| + a + b) (min(I, 1 - I) + |dI|) covers the
    rounding that a direct evaluation carries in its front factor and
    continued fraction, and the increment in its densities, so a lane
    held here also has a direct residual within the tolerance and ends on
    the same x.  On top comes the rule's error bound h^5 max|f^(4)|/4320,
    through kappa = h (|g_a| + |g_b|): across a short step,
    h^k |(ln f)^(k)| <= (k - 1)! kappa 1e-3^(k - 1).
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # each name below takes over the buffer of one that is spent
        kappa = np.abs(g_a, out=g_a)
        kappa += np.abs(g_b, out=g_b)
        margin = np.abs(ln_x0, out=ln_x0)
        margin *= a
        margin += b * np.abs(ln_1mx0, out=ln_1mx0)
        margin += abs(ln_b) + a + b
        dx = np.subtract(x1, x0, out=ln_1mx0)
        short = np.abs(dx) <= 1e-3 * np.minimum(x0, 1.0 - x0)
        # the densities, in the Halley step's form, at the nodes
        # x0 + dx (1/2 -+ 1/(2 sqrt 3)), times dx/2
        d_i = g_b
        d_i[:] = 0.0
        for node in (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0)):
            u = dx * node
            u += x0
            ln_f = np.log(u)
            ln_f *= a - 1.0
            ln_f += (b - 1.0) * np.log1p(np.negative(u, out=u), out=u)
            ln_f -= ln_b
            d_i += np.exp(ln_f, out=ln_f)
        d_i *= dx
        d_i *= 0.5
        kappa *= np.abs(dx, out=dx)
        tail = np.add(r0, p, out=dx)
        np.minimum(tail, 1.0 - tail, out=tail)
        miss = r0
        miss += d_i
        np.abs(miss, out=miss)
        np.abs(d_i, out=d_i)
        tail += d_i
        margin *= tail
        margin *= 32.0 * _EPS
        margin += 1e-14
        # the rule's bound: those derivative bounds give h^4 |f^(4)| / f <=
        # kappa^4 + 6e-3 kappa^3 + 1.1e-5 kappa^2 + 6e-9 kappa, f varies by
        # at most e^kappa across the step and, for kappa <= 1, 1e-3 > e/4320
        rule = np.add(kappa, 6e-3, out=tail)
        for coef in (1.1e-5, 6e-9):
            rule *= kappa
            rule += coef
        rule *= kappa
        rule *= d_i
        rule *= 1e-3
        margin += rule
        return short & (kappa <= 1.0) & (miss <= np.subtract(_INV_BETA_TOL, margin, out=margin))


def _halley_step(xs, r, pc, xlo, xhi, a, b, ln_b):
    """Move the lanes xs, whose direct residual is r = I_xs - pc, by one
    bracketed Halley step, in place (r is spent), and return the lanes
    whose residual at the new x the increment across the step already
    confirms (_step_holds).  The step's arrays die on return, before the
    next direct evaluation."""
    # np.where, not a masked ufunc: the same bits at less than half the cost
    high = r > 0.0
    np.minimum(xhi, np.where(high, xs, xhi), out=xhi)
    np.maximum(xlo, np.where(high, xlo, xs), out=xlo)
    r0 = r.copy()
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # Newton step r / f' with f' the Beta(a, b) density, in place in
        # r; Halley divides it by 1 - step f''/(2 f'), with
        # f''/f' = (a - 1)/x - (b - 1)/(1 - x) and step f''/f' clipped
        # to [-1, 1]
        ln_x, ln_1mx = np.log(xs), np.log1p(-xs)
        r *= np.exp(ln_b - (a - 1.0) * ln_x - (b - 1.0) * ln_1mx)
        g_a, g_b = (a - 1.0) / xs, (b - 1.0) / (1.0 - xs)
        corr = g_a - g_b
        corr *= r
        np.clip(corr, -1.0, 1.0, out=corr)
        r /= 1.0 - 0.5 * corr
        xn = np.subtract(xs, r, out=r)
    stuck = xn == xs
    if stuck.any():
        # a step below half an ulp moves one ulp toward the root, so
        # the bracket can pinch where the residual cannot reach 1e-13
        xn[stuck] = np.nextafter(xs[stuck], np.where(high[stuck], 0.0, 1.0))
    off = ~np.isfinite(xn) | (xn <= xlo) | (xn >= xhi)
    np.copyto(xn, 0.5 * (xlo + xhi), where=off)
    held = _step_holds(xs, xn, r0, pc, ln_x, ln_1mx, g_a, g_b, a, b, ln_b)
    xs[:] = xn
    return held


def _settle(out, idx, work, done):
    """Write the x (row 0 of work) of the done lanes to out at idx; return
    idx and work without them, and the positions of the lanes kept."""
    k = np.flatnonzero(done)
    out[idx[k]] = work[0, k]
    live = np.flatnonzero(~done)
    return idx[live], work.take(live, axis=1), live


def _inv_reg_inc_beta_pair(p, a, b):
    out = np.where(p == 1.0, 1.0, 0.0)
    idx = np.flatnonzero((p > 0.0) & (p < 1.0))
    if idx.size == 0:
        return out
    ln_b = ln_beta(a, b)
    # rows xs, pc, xlo, xhi of the lanes still open; one take() drops the
    # finished columns from all four
    work = np.zeros((4, idx.size))
    xs, pc, xlo, xhi = work
    pc[:] = p[idx]
    xs[:] = _inv_beta_table_seed(pc, a, b, ln_b)
    xhi[:] = 1.0
    for _ in range(_INV_BETA_MAX_NEWTON):
        # through the module global, so a wrapper installed on
        # reg_inc_beta sees every direct evaluation
        r = reg_inc_beta(xs, a, b) - pc
        pinched = (xhi - xlo) <= np.spacing(np.maximum(xhi, 1e-300))
        conv = (np.abs(r) <= _INV_BETA_TOL) | pinched
        if conv.any():
            idx, work, live = _settle(out, idx, work, conv)
            if idx.size == 0:
                return out
            r = r[live]
            xs, pc, xlo, xhi = work
        # a lane whose step the increment confirms ends where the next
        # direct evaluation would have ended it
        held = _halley_step(xs, r, pc, xlo, xhi, a, b, ln_b)
        if held.any():
            idx, work, _ = _settle(out, idx, work, held)
            if idx.size == 0:
                return out
            xs, pc, xlo, xhi = work
    # lanes that ran out of the step budget: accept if close, else fail
    r = np.abs(reg_inc_beta(xs, a, b) - pc)
    if np.any(r > 1e-9):
        k = int(np.argmax(r))
        raise ValueError(
            f"inv_reg_inc_beta did not converge at p = {float(pc[k])!r}, a = {a!r}, b = {b!r}: "
            f"after the Newton budget of {_INV_BETA_MAX_NEWTON} steps the final "
            f"residual |I_x - p| = {float(r[k]):.3g} exceeds 1e-9"
        )
    out[idx] = xs
    return out


def inv_reg_inc_beta(p, a, b):
    """Inverse of reg_inc_beta in its first argument.

    Returns x in [0, 1] with I_x(a, b) = p, by bracketed Halley steps from
    a seed interpolated in a forward table: one reg_inc_beta call on 129
    nodes per call, uniform in logit x, gives each lane a cubic Hermite
    start (slopes from the density).  The seed is evaluated directly; a
    short step after it is confirmed without a second continued fraction,
    as I_x0 plus the two-point Gauss-Legendre integral of the density
    across the step, which must lie within 1e-13 of p less a per-lane
    slack for the direct evaluation's rounding and the rule's error, so
    such a lane stops where a direct evaluation would have stopped it; any
    other lane is evaluated directly.  Most lanes thus take one
    continued-fraction evaluation besides the table.  A step that leaves
    the bracket bisects it; one below half an ulp moves x by one ulp.  A
    lane stops when |I_x - p| <= 1e-13 or when its bracket has collapsed
    to adjacent floats (steep quantiles: the residual then sits at the
    derivative-times-ulp quantization floor).  Lanes still open after 100
    steps are accepted if |I_x - p| <= 1e-9; otherwise ValueError names
    the worst (p, a, b).  a and b are scalars; p broadcasts, with one
    table and one step loop per call; scalar in, float out.
    """
    return _at_pair(_inv_reg_inc_beta_pair, "inv_reg_inc_beta", "p", p, a, b)


# ----------------------------------------------------------------------
# Bessel J

# J_mu(x) = (x/2)^mu h_mu(x) / Gamma(mu+1), and h_mu(x) = 0F1(; mu+1; -x^2/4)
# is the entire quotient the radial characteristic function needs.  Each
# lane takes the route that holds where it lies: the ascending series of
# h_mu for x <= max(8, 4 sqrt(mu+1)), Miller's backward recurrence for h_mu
# up to max(16, mu), and from there the Hankel expansion at orders below 2
# carried up by the forward recurrence.

# from x = 16 on, the terms of the Hankel expansion of an order below 2
# shrink through k = 32, the last one kept, and the first one dropped is
# below 2e-15 of the leading one
_BESSEL_HANKEL_CUT = 16.0
_BESSEL_HANKEL_TERMS = 32
# Miller's sequence grows like e^{0.31 max(mu, x)} toward order 0 and
# overflows near order 2,200; 1500 is the largest order validated
_BESSEL_MAX_ORDER = 1500.0


def _bessel_series(mu, x):
    # sum_k (-x^2/4)^k / (k! (mu+1)_k).  Rounding costs about eps times the
    # sum of the terms' moduli, 0F1(; mu+1; x^2/4) <= e^{x^2/(4(mu+1))}, and
    # in J_mu's units I_mu(x): both stay below ~1e3 for x <= max(8, 4
    # sqrt(mu+1)), where it is used.  Terms are added until the largest
    # lane's bound on the next one is below 1e-17
    q = -0.25 * x * x
    q_max = 0.25 * float(np.max(x, initial=0.0)) ** 2
    term = np.ones_like(x)
    total = np.ones_like(x)
    bound, k = 1.0, 0
    while bound >= 1e-17:
        k += 1
        term *= q
        term *= 1.0 / (k * (mu + k))
        total += term
        bound *= q_max / (k * (mu + k))
    return total


def _bessel_miller(mu, x):
    # Miller's backward recurrence for h_nu (DLMF 3.6; Gautschi, SIAM Rev.
    # 9, 1967): h_{nu-1} = h_nu - x^2/(4 nu (nu+1)) h_{nu+1}, from (0, 1)
    # at an order N past max(mu, x) by 10 max^{1/3} + 10, where J_N is
    # below 1e-17 of its peak, down to f = mu mod 1.  Neumann's sum (x/2)^f
    # = sum_k (f+2k) Gamma(f+k)/k! J_{f+2k}(x) reads 1 = sum_k w_k h_{f+2k}
    # in these units, w_0 = 1, w_1 = q/(f+1), w_k/w_{k-1} = (f+k-1) q /
    # (k (f+2k-2) (f+2k-1)), q = x^2/4; Horner's rule sums it on the way
    # down, so no weight is formed alone, and it divides the sequence.
    f = mu % 1.0
    n = round(mu - f)
    q = 0.25 * x * x
    top = max(mu, float(np.max(x, initial=0.0)))
    # an even start, so each pass below takes two orders
    m = 2 * math.ceil(0.5 * (top + 10.0 * top ** (1.0 / 3.0) + 10.0))
    # y is h_{f+m} up to a factor common to all orders, y_hi h_{f+m+1}
    y, y_hi = np.ones_like(x), np.zeros_like(x)
    total = np.zeros_like(x)
    step = np.empty_like(x)
    h = y
    while m > 0:
        k = m // 2
        total *= q
        total *= (f + k) / ((k + 1.0) * (f + 2 * k) * (f + 2 * k + 1.0))
        total += y
        for j in (m, m - 1):
            if j == n:
                h = y.copy()
            nu = f + j
            np.multiply(q, 1.0 / (nu * (nu + 1.0)), out=step)
            step *= y_hi
            np.subtract(y, step, out=y_hi)
            y, y_hi = y_hi, y
        m -= 2
    total *= q / (f + 1.0)
    total += y
    return (y if n == 0 else h) / total


def _bessel_quotient(mu, x):
    """h_mu(x) = Gamma(mu+1) (2/x)^mu J_mu(x) for 0 <= x < max(16, mu):
    within [-1, 1], 1 at x = 0, and neither (x/2)^mu nor Gamma(mu+1) is
    formed.  The series where x <= max(8, 4 sqrt(mu+1)), Miller's
    recurrence above; within a few 1e-15 of mpmath's 0F1 at orders 0 to
    1500."""
    near = x <= max(8.0, 4.0 * math.sqrt(mu + 1.0))
    out = np.empty_like(x)
    if np.any(near):
        out[near] = _bessel_series(mu, x[near])
    if not np.all(near):
        out[~near] = _bessel_miller(mu, x[~near])
    return out


def _bessel_asymptotic(mu, x):
    # Hankel expansion (DLMF 10.17.3): J_mu(x) ~ sqrt(2/(pi x)) (P cos w -
    # Q sin w), w = x - (mu/2 + 1/4) pi, with P = sum_j (-1)^j a_2j z^2j and
    # Q = sum_j (-1)^j a_2j+1 z^2j+1, z = 1/(8x), a_k = prod_{i <= k}
    # (4 mu^2 - (2i-1)^2) / i, each summed by Horner's rule in z^2 through
    # k = 32.  For half-integer mu the a_k vanish from k = mu + 3/2 on and
    # the expansion is exact.  mu may be a column of orders, giving one row
    # per order
    mu = np.asarray(mu, dtype=float)[..., None]
    k = np.arange(1, _BESSEL_HANKEL_TERMS + 1)
    a = np.cumprod((4.0 * mu * mu - (2.0 * k - 1.0) ** 2) / k, axis=-1)
    a = np.concatenate([np.ones(mu.shape), a], axis=-1) * (-1.0) ** (np.arange(a.shape[-1] + 1) // 2)
    z = 0.125 / x
    u = z * z
    sums = []
    for c in (a[..., 0::2], a[..., 1::2]):
        # Horner's rule from the last coefficient nonzero for some order
        used = np.flatnonzero(c.reshape(-1, c.shape[-1]).any(axis=0))
        acc = 0.0
        for j in range(used[-1] if used.size else -1, -1, -1):
            acc = acc * u + c[..., j]
        sums.append(acc)
    w = x - (0.5 * mu[..., 0] + 0.25) * math.pi
    return np.sqrt(2.0 / (math.pi * x)) * (sums[0] * np.cos(w) - z * sums[1] * np.sin(w))


def _bessel_upward(mu, x):
    # J_mu(x) for x >= max(16, mu): the Hankel expansion at f = mu mod 1
    # and f + 1, then J_{nu+1} = (2 nu / x) J_nu - J_{nu-1} up to mu, which
    # is stable while the order stays below x
    f = mu % 1.0
    if mu < 1.0:
        return _bessel_asymptotic(f, x)
    j_lo, j = _bessel_asymptotic([[f], [f + 1.0]], x)
    for k in range(1, round(mu - f)):
        j_lo, j = j, (2.0 * (f + k) / x) * j - j_lo
    return j


def bessel_j(mu, x):
    """Bessel function J_mu(x) for real order 0 <= mu <= 1500 and x >= 0.

    Below x = max(16, mu) it is (x/2)^mu h_mu(x) / Gamma(mu+1), with h_mu
    from `_bessel_quotient` and the power and Gamma summed in logs; from
    there on, the Hankel expansion at the orders mu mod 1 and one above,
    carried up to mu by the forward recurrence.  Held to 1e-12 of scipy's
    jv at orders 0 to 1500 on x up to 3000, and to 1e-11 relative below
    x = mu/2, where J has no zero.  mu above 1500 is refused.  Broadcasts
    over x; scalar in, float out.
    """
    mu = _real("mu", mu)
    if not 0.0 <= mu <= _BESSEL_MAX_ORDER:
        raise ValueError(f"mu must lie in [0, {_BESSEL_MAX_ORDER:g}], got {mu}")
    arr, scalar, shape = _as_1d(x)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ValueError("bessel_j requires finite x >= 0")
    out = np.empty_like(arr)
    down = arr < max(_BESSEL_HANKEL_CUT, mu)
    if np.any(down):
        xd = arr[down]
        h = _bessel_quotient(mu, xd)
        if mu > 0.0:
            # sign and log apart: (x/2)^mu / Gamma(mu+1) alone overflows
            # where h_mu underflows
            with np.errstate(divide="ignore"):
                h = np.sign(h) * np.exp(
                    np.log(np.abs(h)) + mu * np.log(0.5 * xd) - ln_gamma(mu + 1.0)
                )
        out[down] = h
    if not np.all(down):
        out[~down] = _bessel_upward(mu, arr[~down])
    return float(out[0]) if scalar else out.reshape(shape)


# ----------------------------------------------------------------------
# sphere measure

def ln_sphere(d) -> float:
    """ln of the surface measure of the unit sphere in R^d."""
    return _ln_sphere(_check_dim(d))


# one entry per dimension ever asked for; every density evaluation needs it
@functools.cache
def _ln_sphere(d: int) -> float:
    return math.log(2.0) + 0.5 * d * math.log(math.pi) - ln_gamma(0.5 * d)


def sphere_surface(d) -> float:
    """Surface measure of the unit sphere in R^d: 2 pi^{d/2} / Gamma(d/2)."""
    return math.exp(ln_sphere(d))


# ----------------------------------------------------------------------
# adaptive quadrature

# stopping rule for `integrate`: the summed panel error estimate must drop
# below max(_ABS_TOL, _REL_TOL * |integral|) within _MAX_SUBDIVISIONS splits
_ABS_TOL = 1e-11
_REL_TOL = 1e-11
_MAX_SUBDIVISIONS = 4000
# depth L of the start mesh of `integrate`: its 2L panels are graded
# geometrically toward both ends (QUADPACK, 1983, 2.2), the smallest 2^-L
# of the width, so an algebraic endpoint weight starts L halvings deep
# instead of taking one bisection pass per halving.  Deeper than 20 buys
# no passes on the transform routes; shallower costs passes
_GRADE_LEVELS = 20


class QuadratureError(RuntimeError):
    """Adaptive integration could not meet the tolerance."""


# Gauss-Kronrod 7/15 on [-1, 1] (Kronrod 1965; QUADPACK qk15): the 8
# nonnegative Kronrod nodes, descending, and their weights.  The nodes at
# odd positions are the 7-point Gauss nodes; numpy supplies their weights.
_XGK = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
)
_WGK = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)
_K15_X = np.array([-x for x in _XGK[:-1]] + list(_XGK[::-1]))
_K15_W = np.array(_WGK + _WGK[-2::-1])
_G7_W = np.polynomial.legendre.leggauss(7)[1]
_EPS = float(np.finfo(float).eps)


def _eval_panels(f, a, b):
    """Gauss-Kronrod 7/15 on panels [a_i, b_i]: (values, error estimates)
    from one integrand call at 15 nodes per panel.  Shape (panels,) for a
    1-d integrand, (panels, columns) for one that returns (n, m)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    xs = mid[:, None] + half[:, None] * _K15_X[None, :]
    flat = xs.reshape(-1)
    ys = np.asarray(f(flat), dtype=float)
    if ys.ndim == 0:
        ys = np.full(flat.shape, float(ys))
    elif ys.ndim > 2 or ys.shape[0] != flat.size:
        raise QuadratureError("integrand must return shape (n,) or (n, m) for n nodes")
    if not np.all(np.isfinite(ys)):
        raise QuadratureError("integrand returned a non-finite value")
    cols = ys.shape[1:]
    # (panels, nodes, columns): each rule is one weighted sum over nodes
    ys = ys.reshape(a.size, 15, -1)
    half = half[:, None]
    k15 = half * (_K15_W @ ys)
    g7 = half * (_G7_W @ ys[:, 1::2])
    # |K15 - G7| plus a rounding floor so the estimate never promises more
    # than double precision can deliver on that panel
    floor = _EPS * np.abs(half) * (_K15_W @ np.abs(ys))
    return k15.reshape(-1, *cols), (np.abs(k15 - g7) + floor).reshape(-1, *cols)


def integrate(f, lo, hi):
    """Globally adaptive Gauss-Kronrod 7/15 quadrature of f over [lo, hi].

    `f` takes a 1-d ndarray of n nodes and returns shape (n,) (0-dim
    results broadcast), giving a float, or (n, m) for m integrands on one
    mesh, giving an (m,) array.  Each panel costs 15 nodes: the Kronrod
    rule gives its value and the difference from the embedded 7-node
    Gauss rule its error estimate.  The first call to f evaluates a start
    mesh of 40 panels graded geometrically toward both ends, the outermost
    2^-20 of the width, so an algebraic endpoint weight starts 20 halvings
    deep.  Column j is done once its summed estimate is at most
    max(1e-11, 1e-11 |integral_j|).  On each pass
    every open column marks its largest-error panels until the unmarked
    ones hold at most half its tolerance; all marked panels are bisected
    and their halves evaluated in one call to f.  Panels that reach
    floating-point width stop refining but keep their error; if a column
    is still open once every panel has reached that width, or more than
    4000 bisections would be needed, or the integrand returns a
    non-finite value, QuadratureError is raised; the first two name the
    interval and, for an (n, m) integrand, the column with the largest
    open error.
    """
    lo = _real("lo", lo)
    hi = _real("hi", hi)
    sign = 1.0
    if lo > hi:
        lo, hi, sign = hi, lo, -1.0
    # edges lo + w {0, 2^-L, ..., 1/2} and hi - w {1/4, ..., 2^-L, 0} for
    # w = hi - lo, each half measured from its own end
    steps = (hi - lo) * 0.5 ** np.arange(_GRADE_LEVELS, 0, -1.0)
    edges = np.concatenate([[lo], lo + steps, hi - steps[-2::-1], [hi]])
    a, b = edges[:-1], edges[1:]
    vals, errs = _eval_panels(f, a, b)
    scalar = vals.ndim == 1
    vals, errs = vals.reshape(a.size, -1), errs.reshape(a.size, -1)
    min_width = 200.0 * _EPS * max(1.0, abs(lo), abs(hi))
    splits = 0

    def failure(what, why=""):
        # name the interval and, for a vector integrand, the worst open column
        worst = np.flatnonzero(open_)[np.argmax(total_err[open_])]
        column = "" if scalar else f"column {worst}, "
        return QuadratureError(
            f"{what} on [{lo!r}, {hi!r}]{why} "
            f"({column}error estimate {total_err[worst]:.3e})"
        )

    while True:
        total = vals.sum(axis=0)
        total_err = errs.sum(axis=0)
        tol = np.maximum(_ABS_TOL, _REL_TOL * np.abs(total))
        open_ = total_err > tol
        if not open_.any():
            return sign * float(total[0]) if scalar else sign * total
        # frozen panels keep their value and error but cannot shrink
        live = np.flatnonzero(b - a > min_width)
        if live.size == 0:
            raise failure("tolerance unattainable", ": all panels at floating-point width")
        err = errs[live][:, open_]
        order = np.argsort(-err, axis=0)
        ranked = np.take_along_axis(err, order, axis=0)
        # a panel is marked while the error outside the panels ranked above
        # it still exceeds half the column's tolerance
        rest = total_err[open_] - (np.cumsum(ranked, axis=0) - ranked)
        pick = live[np.unique(order[rest > 0.5 * tol[open_]])]
        if splits + pick.size > _MAX_SUBDIVISIONS:
            raise failure(f"{_MAX_SUBDIVISIONS} subdivisions exhausted")
        splits += pick.size
        mid = 0.5 * (a[pick] + b[pick])
        new_vals, new_errs = _eval_panels(
            f, np.concatenate([a[pick], mid]), np.concatenate([mid, b[pick]])
        )
        keep = np.ones(a.size, dtype=bool)
        keep[pick] = False
        a = np.concatenate([a[keep], a[pick], mid])
        b = np.concatenate([b[keep], mid, b[pick]])
        vals = np.concatenate([vals[keep], new_vals.reshape(2 * pick.size, -1)])
        errs = np.concatenate([errs[keep], new_errs.reshape(2 * pick.size, -1)])
