"""Exact samplers for the family, on a deterministic stream layer.

Randomness comes from Philox4x64 (counter-based) keyed by (seed,
stream_id): the same key reproduces the same sequence on any platform and
any thread layout.  All beta-distributed quantities are sampled by inverse
CDF through inv_reg_inc_beta (Halley steps from a forward-table seed, about
one incomplete-beta evaluation per variate besides the table: the step is
mostly confirmed by integrating the density across it) - slower than
gamma-ratio tricks but exactly reproducible and backed by the tested
inverse routine.

Draw-order contracts (these make reruns byte-identical, so they are part
of the interface and must not be reordered):

    sample_position_1d   signs first, then velocity betas
    sample_position      radius betas first, then direction normals
    sample_direction     polar-method normals in vectorized rejection
                         rounds; a batch of n is NOT the concatenation of
                         n scalar calls
    sample_epd_telegraph one spawned substream per variate; inside it the
                         initial sign at Philox word 0, then round r's 16
                         exponential gaps at words 1+16r .. 16+16r.  A
                         vectorised Philox4x64-10 kernel computes these
                         words for all live paths of a round at once, in
                         blocks of 1024 paths; variate i does not depend
                         on the batch size

In the kernel, round 0 depends only on the counter (one product per
counter, shared by every path) and round 1's first product only on the
key (one per path); the sign word comes from the same call as round 0's
gaps.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .family import FamilyParams, _require_dim
from .specfun import _check_dim, _count, _real, inv_reg_inc_beta

__all__ = [
    "RngStream",
    "KSResult",
    "sample_beta",
    "sample_velocity",
    "sample_position_1d",
    "sample_direction",
    "sample_position",
    "sample_projection_w",
    "sample_epd_telegraph",
    "ks_test",
    "parallel_draw",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z):
    """splitmix64 finalizer; bijective on 64-bit words.

    One code for a Python int (masked after each product) and for a
    uint64 array (where the products wrap and the mask is a no-op).
    """
    z &= _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def _child_id(stream_id, k):
    """Stream id of child k of stream_id (int or uint64 array of k)."""
    return _mix64(stream_id ^ (((k + 1) * _GOLDEN) & _MASK64))


# Philox4x64-10 (Salmon et al., SC'11), the generator numpy's Philox runs.
# Each multiplier is held with its 32-bit halves, so the kernel only ever
# combines a uint64 scalar with a uint64 array (no scalar-scalar shift,
# which numpy < 2 would promote to float64).
_PHILOX_M = tuple(
    (np.uint64(m), np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32))
    for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157)
)
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_LO32 = np.uint64(0xFFFFFFFF)


def _mulhilo(m, x):
    """(low, high) 64-bit words of the 128-bit product m * x, where m is
    a (value, low half, high half) multiplier: one of _PHILOX_M, or arrays
    of one per lane (the table writer's powers of 5).  The high word
    is m1 x1 + (t >> 32) + (w >> 32) with t = m1 x0 + (m0 x0 >> 32) and
    w = (t & LO) + m0 x1; neither t nor w exceeds 2**64 - 1."""
    m, m0, m1 = m
    x0, x1 = x & _LO32, x >> 32
    t = m1 * x0
    t += (x0 * m0) >> 32
    w = m0 * x1
    w += t & _LO32
    x1 *= m1
    x1 += t >> 32
    x1 += w >> 32
    return m * x, x1


def _philox_words(k0, k1, first, blocks):
    """Raw Philox4x64-10 words of many keys at once.

    Row i is keyed (k0[i], k1[i]); its columns are the 4 * blocks words
    from counter `first` on, counter b giving words 4(b-1) .. 4(b-1)+3.
    Equal to np.random.Philox(key=[k0[i], k1[i]]).random_raw() from
    word 4 * (first - 1) on.

    The counter's other three words are 0, so round 0 multiplies only
    the counter (one product per column, shared by every row) and leaves
    c0 = k0, c1 = 0; round 1's first product then depends only on the
    key (one per row).  Rounds 2-9 work on every (row, column).
    """
    k0, k1 = k0[:, None], k1[:, None]
    c3, hi = _mulhilo(_PHILOX_M[0], np.arange(first, first + blocks, dtype=np.uint64))
    c0, c1, c2 = k0, 0, hi ^ k1
    for _ in range(9):
        k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        lo0, hi0 = _mulhilo(_PHILOX_M[0], c0)
        lo1, hi1 = _mulhilo(_PHILOX_M[1], c2)
        # the key is xored in first: in round 1, c1 ^ k0 is one word per row
        c0, c1, c2, c3 = hi1 ^ (c1 ^ k0), lo1, hi0 ^ (c3 ^ k1), lo0
    return np.stack([c0, c1, c2, c3], axis=-1).reshape(k0.shape[0], 4 * blocks)


def _unit_open(words):
    """numpy's random() of each word plus 2**-54, as uniform_open draws it."""
    return (words >> 11) * 2.0**-53 + 2.0**-54


class RngStream:
    """Deterministic random stream (Philox4x64 keyed by seed and stream id).

    Substreams are derived by mixing the parent stream id with the child
    index, so any (seed, stream_id) pair names one reproducible sequence.
    The k-th spawn() of a stream is identical to substream(k).  A stream
    is single-owner: never share one instance between concurrent tasks.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        # a float or bool key would otherwise name the stream of its int()
        self.seed = _count("seed", seed)
        self.stream_id = _count("stream_id", stream_id)
        for name, v in (("seed", self.seed), ("stream_id", self.stream_id)):
            if v > _MASK64:
                raise ValueError(f"{name} must lie in [0, 2**64), got {v}")
        # an explicit uint64 key: a list of Python ints would pass ids
        # >= 2**53 through float64 and drop their low bits
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))
        self._spawned = 0

    def uniform_open(self, size=None):
        """Uniform variates strictly inside (0, 1): half-ulp shifted 53-bit grid."""
        return self._gen.random(size) + 2.0**-54

    def signs(self, size=None):
        """Uniform +-1 variates."""
        u = self._gen.random(size)
        out = np.where(u < 0.5, -1.0, 1.0)
        return float(out) if size is None else out

    def exponentials(self, size=None):
        """Standard exponential variates by inversion: -ln(U)."""
        return -np.log(self.uniform_open(size))

    def normals(self, size: int):
        """Standard normals by the Marsaglia polar method.

        Pairs (u, v) uniform on the square are rejected outside the unit
        disk in vectorized rounds; consumption therefore depends on the
        batch size, which is fixed by the caller's call sequence.
        """
        size = _count("size", size)
        out = np.empty(size)
        filled = 0
        while filled < size:
            # ~pi/4 of pairs survive; each pair yields two normals
            npairs = max(64, int((size - filled) * 0.7) + 16)
            u = 2.0 * self._gen.random(npairs) - 1.0
            v = 2.0 * self._gen.random(npairs) - 1.0
            s = u * u + v * v
            ok = (s > 0.0) & (s < 1.0)
            f = np.sqrt(-2.0 * np.log(s[ok]) / s[ok])
            z = np.concatenate([u[ok] * f, v[ok] * f])
            take = min(z.size, size - filled)
            out[filled : filled + take] = z[:take]
            filled += take
        return out

    def substream(self, k: int) -> "RngStream":
        """Independent child stream number k (pure; no state consumed)."""
        return RngStream(self.seed, _child_id(self.stream_id, _count("substream index", k)))

    def spawn(self) -> "RngStream":
        """Next child stream; the k-th spawn equals substream(k)."""
        child = self.substream(self._spawned)
        self._spawned += 1
        return child


@dataclass(frozen=True)
class KSResult:
    """Kolmogorov-Smirnov outcome.  The accept field is named `passed`
    because `pass` is a Python keyword."""

    statistic: float
    n: int
    critical_value: float
    passed: bool


_OPEN_LO = np.nextafter(0.0, 1.0)
_OPEN_HI = np.nextafter(1.0, 0.0)


def sample_beta(rng: RngStream, a, b, size=None):
    """Beta(a, b) variates by inverse CDF, clamped to the open interval."""
    a, b = _real("a", a, 0.0), _real("b", b, 0.0)
    if size is not None:
        size = _count("size", size)
    u = rng.uniform_open(size)
    y = inv_reg_inc_beta(u, a, b)
    return float(np.clip(y, _OPEN_LO, _OPEN_HI)) if size is None else np.clip(y, _OPEN_LO, _OPEN_HI)


def sample_velocity(rng: RngStream, p: FamilyParams, size=None):
    """Speed variates V = c Y^{1/beta}, Y ~ Beta(1/beta, gamma+1); V in (0, c).

    The density is (beta/c)(1 - (v/c)^beta)^gamma / B(1/beta, gamma+1).
    """
    _require_dim(p, "sample_velocity", one=True)
    y = sample_beta(rng, 1.0 / p.beta_exp, p.gamma_exp + 1.0, size)
    return p.c * y ** (1.0 / p.beta_exp)


def sample_position_1d(rng: RngStream, p: FamilyParams, t, size=None):
    """Positions X(t) = D V t^alpha with D uniform on {-1, +1}.

    Draw order: signs first, then velocities.
    """
    _require_dim(p, "sample_position_1d", one=True)
    t = _real("t", t, 0.0)
    if size is not None:
        size = _count("size", size)
    d_sign = rng.signs(size)
    v = sample_velocity(rng, p, size)
    return d_sign * v * t**p.alpha


def sample_direction(rng: RngStream, d: int, size=None):
    """Uniform directions on S^{d-1}: normalized polar-method normals."""
    d = _check_dim(d, least=2)
    n = 1 if size is None else _count("size", size)
    z = rng.normals(n * d).reshape(n, d)
    z /= np.sqrt(np.sum(z * z, axis=1))[:, None]
    return z[0] if size is None else z


def sample_position(rng: RngStream, p: FamilyParams, t, size=None):
    """Positions in R^d: radius c t^alpha Y^{1/beta} with Y ~ Beta(d/beta,
    gamma+1), times an independent uniform direction.

    Draw order: radius betas first, then direction normals.  For d = 1
    this delegates to sample_position_1d (signs first, then speeds).
    """
    if p.d == 1:
        return sample_position_1d(rng, p, t, size)
    t = _real("t", t, 0.0)
    y = sample_beta(rng, p.d / p.beta_exp, p.gamma_exp + 1.0, size)
    r = p.c * t**p.alpha * np.asarray(y) ** (1.0 / p.beta_exp)
    theta = sample_direction(rng, p.d, size)
    if size is None:
        return float(r) * theta
    return r[:, None] * theta


def sample_projection_w(rng: RngStream, d: int, size=None):
    """First-coordinate modulus of a uniform direction: W = sqrt(B) with
    B ~ Beta(1/2, (d-1)/2); density 2(1-w^2)^{(d-3)/2}/B(1/2, (d-1)/2).

    d = 3 gives W exactly uniform on (0,1); d = 2 gives W^2 arcsine.
    """
    d = _check_dim(d, least=2)
    b = sample_beta(rng, 0.5, (d - 1) / 2.0, size)
    return math.sqrt(b) if size is None else np.sqrt(b)


_TELEGRAPH_CHUNK = 16  # gaps per path and round
_TELEGRAPH_BLOCK = 1024  # paths per kernel pass; keeps peak memory flat


def _telegraph_paths(seed: int, ids, xi: float, t: float, eps: float):
    """Initial signs, integrals int_eps^t (sign path) ds and flip counts
    of the paths whose Philox keys are (seed, ids[i]).

    Events of the rate-xi/s Poisson process are generated backward from t
    by inversion: the cumulative rate from s to t is xi ln(t/s), so with
    T_k a unit-rate Poisson arrival sequence the event times are
    s_k = t exp(-T_k/xi), stopping once s_k < eps.  Folding the sign at
    time t into the symmetric initial sign, the integral over the
    alternating segments telescopes to

        t + 2 sum_{k=1..K} (-1)^k s_k + (+eps if K odd else -eps).

    Path i reads the words of its own key: the sign at word 0, then
    round r takes the 16 exponential gaps at words 1+16r .. 16+16r.
    Each round computes those words for the paths still above eps at
    once; a path with fewer than 16 events left above eps is done.
    Shrinking eps only extends the same T_k sequence, so paths are
    coupled across eps.
    """
    m = ids.size
    k0 = np.full(m, seed, dtype=np.uint64)
    k1 = np.asarray(ids, dtype=np.uint64)
    # counters 1..5: the sign at word 0, round 0's 16 gaps, then the
    # first 3 gaps of round 1
    words = _philox_words(k0, k1, 1, 5)
    sign = np.where(_unit_open(words[:, 0]) < 0.5, -1.0, 1.0)
    words = words[:, 1:]
    alt = np.zeros(m)
    flips = np.zeros(m, dtype=np.int64)
    arrived = np.zeros(m)
    live = np.arange(m)
    r = 0
    while live.size:
        if r:
            # counters 4r+2 .. 4r+5 hold the rest of round r's gaps and
            # the first 3 gaps of round r+1
            words = np.concatenate([carry, _philox_words(k0[live], k1[live], 4 * r + 2, 4)], axis=1)
        # in place, to hold few (paths, 16) arrays at once: gaps -ln U,
        # arrival times, then s = t exp(-arrival/xi)
        arrivals = np.log(_unit_open(words[:, :_TELEGRAPH_CHUNK]))
        np.negative(arrivals, out=arrivals)
        np.cumsum(arrivals, axis=1, out=arrivals)
        arrivals += arrived[live, None]
        s = np.divide(arrivals, -xi)
        np.exp(s, out=s)
        s *= t
        above = s >= eps  # a prefix of each row: s is decreasing
        s *= above
        # a live path has 16r flips so far, so this round adds
        # (s_2 - s_1) + (s_4 - s_3) + ...: pairs of one sign, which sum
        # more accurately than the alternating terms one by one
        alt[live] += np.sum(s[:, 1::2] - s[:, ::2], axis=1)
        count = np.count_nonzero(above, axis=1)
        flips[live] += count
        more = count == _TELEGRAPH_CHUNK
        live = live[more]
        arrived[live] = arrivals[more, -1]
        carry = words[more, _TELEGRAPH_CHUNK:]
        del words, arrivals, s, above  # not held through the next kernel call
        r += 1
    integral = t + 2.0 * alt + np.where(flips % 2 == 1, eps, -eps)
    return sign, integral, flips


def sample_epd_telegraph(rng: RngStream, xi, c, t, eps, size=None):
    """Signed telegraph-type displacement U(0) int_0^t (-1)^{N(s)} ds.

    N is the nonhomogeneous Poisson process with rate xi/s and U(0) is
    uniform on {-c, +c}.  The cumulative rate diverges at 0, so the
    simulation starts at eps: the neglected displacement is bounded by
    c*eps.  Variate i owns the stream of the i-th spawn() of rng (sign
    drawn first, then the exponential gaps), so runs with smaller eps
    extend the same paths instead of resampling them, and variate i does
    not depend on size.  Paths run in blocks of 1024.
    """
    xi, c, t = _real("xi", xi, 0.0), _real("c", c, 0.0), _real("t", t, 0.0)
    eps = _real("eps", eps, 0.0, t)
    n = 1 if size is None else _count("size", size)
    ids = _child_id(rng.stream_id, np.arange(rng._spawned, rng._spawned + n, dtype=np.uint64))
    rng._spawned += n
    out = np.empty(n)
    for lo in range(0, n, _TELEGRAPH_BLOCK):
        sign, integral, _ = _telegraph_paths(rng.seed, ids[lo : lo + _TELEGRAPH_BLOCK], xi, t, eps)
        out[lo : lo + _TELEGRAPH_BLOCK] = c * sign * integral
    return float(out[0]) if size is None else out


def ks_test(samples, cdf, alpha: float = 0.01) -> KSResult:
    """One-sample Kolmogorov-Smirnov test against a given CDF.

    D_n is the max over order statistics of max(i/n - F(x_i),
    F(x_i) - (i-1)/n); the critical value is the asymptotic Kolmogorov
    c(alpha)/sqrt(n) with c(alpha) = sqrt(-ln(alpha/2)/2), adequate for
    the n >= 1e4 sizes used here (no small-n tables).
    """
    alpha = _real("alpha", alpha, 0.0, 1.0)
    x = np.sort(np.asarray(samples, dtype=float).ravel())
    n = x.size
    if n < 10:
        raise ValueError(f"ks_test needs at least 10 samples, got {n}")
    f = np.asarray(cdf(x), dtype=float)
    if f.shape != x.shape:
        raise ValueError("cdf must map the sample array to an equal-shape array")
    i = np.arange(1, n + 1)
    d_plus = float(np.max(i / n - f))
    d_minus = float(np.max(f - (i - 1) / n))
    stat = max(d_plus, d_minus)
    crit = math.sqrt(-math.log(alpha / 2.0) / 2.0) / math.sqrt(n)
    return KSResult(statistic=stat, n=int(n), critical_value=crit, passed=stat < crit)


_BLOCK = 65536


def parallel_draw(seed, stream_id, n, draw_block, threads: int = 1):
    """Deterministic parallel Monte Carlo.

    The n draws are split into fixed blocks of 65536; block b is produced
    by draw_block(substream(b) of the base stream, block_size) and the
    blocks are concatenated in block order.  The output is a pure
    function of (seed, stream_id, n, draw_block) - the thread count only
    changes wall time, never bytes.
    """
    n = _count("n", n)
    threads = _count("threads", threads, least=1)
    base = RngStream(seed, stream_id)
    sizes = [_BLOCK] * (n // _BLOCK)
    if n % _BLOCK:
        sizes.append(n % _BLOCK)
    if not sizes:
        return np.empty(0)

    def work(b: int):
        return np.asarray(draw_block(base.substream(b), sizes[b]))

    if threads == 1:
        parts = [work(b) for b in range(len(sizes))]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(work, range(len(sizes))))
    return np.concatenate(parts, axis=0)
