import hashlib
import math

import numpy as np
import pytest

from barenblatt.family import (
    ball_probability,
    cdf_1d,
    new_family,
    radial_moment,
    support_radius,
)
from barenblatt.sampling import (
    KSResult,
    RngStream,
    _PHILOX_M,
    _child_id,
    _mulhilo,
    _philox_words,
    _telegraph_paths,
    ks_test,
    parallel_draw,
    sample_beta,
    sample_direction,
    sample_epd_telegraph,
    sample_position,
    sample_position_1d,
    sample_projection_w,
    sample_velocity,
)
from barenblatt.specfun import beta_fn, integrate, reg_inc_beta

SEED = 20260816


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(SEED, 3).uniform_open(50)
        b = RngStream(SEED, 3).uniform_open(50)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(SEED, 0).uniform_open(50)
        b = RngStream(SEED, 1).uniform_open(50)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize(
        "stream_id", [2**63 + 5, 2**64 - 1, 0, np.uint64(2**64 - 1), np.int64(5)]
    )
    def test_key_keeps_every_bit(self, stream_id):
        key = RngStream(7, stream_id)._gen.bit_generator.state["state"]["key"]
        assert [int(k) for k in key] == [7, stream_id]

    def test_adjacent_high_ids_differ(self):
        # ids >= 2**53 are not representable in float64; adjacent ones
        # must still name different streams, for the stream and the seed
        a = RngStream(7, 2**63 + 5).uniform_open(50)
        b = RngStream(7, 2**63 + 6).uniform_open(50)
        assert not np.array_equal(a, b)
        a = RngStream(2**63 + 5, 7).uniform_open(50)
        b = RngStream(2**63 + 6, 7).uniform_open(50)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize(
        "seed, stream_id", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64 + 3), (np.int64(-1), 0)]
    )
    def test_ids_outside_64_bits_refused(self, seed, stream_id):
        # these used to wrap onto the streams (2**64-1, 0), (0, 0),
        # (0, 2**64-1) and (0, 3)
        with pytest.raises(ValueError):
            RngStream(seed, stream_id)

    @pytest.mark.parametrize(
        "seed, stream_id",
        [(1.5, 2.7), (1.0, 2), (1, 2.0), (True, 2), (1, np.True_), (np.float64(1.0), 2)],
    )
    def test_float_or_bool_keys_refused(self, seed, stream_id):
        # int() used to truncate these onto the stream (1, 2)
        with pytest.raises(TypeError, match="must be an integer"):
            RngStream(seed, stream_id)

    @pytest.mark.parametrize(
        "k, error", [(1.5, TypeError), (1.0, TypeError), (True, TypeError), (-1, ValueError)]
    )
    def test_substream_index_refuses_non_integers(self, k, error):
        # 1.5 and True used to give substream(1)
        base = RngStream(SEED, 7)
        with pytest.raises(error, match="substream index must be"):
            base.substream(k)
        assert base.substream(np.int64(1)).stream_id == base.substream(1).stream_id

    def test_open_interval(self):
        u = RngStream(SEED).uniform_open(10000)
        assert np.all(u > 0.0) and np.all(u < 1.0)

    def test_substream_pure_and_spawn_schedule(self):
        base = RngStream(SEED, 7)
        ids = [base.substream(k).stream_id for k in range(4)]
        assert len(set(ids)) == 4
        # substream does not consume state; spawn(k-th) == substream(k)
        spawned = [base.spawn().stream_id for _ in range(4)]
        assert spawned == ids

    def test_normals_moments(self):
        z = RngStream(SEED, 1).normals(100000)
        assert abs(float(np.mean(z))) <= 3.0 / math.sqrt(z.size)
        assert abs(float(np.var(z)) - 1.0) <= 3.0 * math.sqrt(2.0 / z.size)

    def test_normals_deterministic(self):
        assert np.array_equal(RngStream(5, 5).normals(999), RngStream(5, 5).normals(999))


class TestSampleBeta:
    def test_open_bounds(self):
        y = sample_beta(RngStream(SEED), 0.3, 0.3, 20000)
        assert np.all(y > 0.0) and np.all(y < 1.0)

    def test_uniform_case_ks(self):
        y = sample_beta(RngStream(SEED, 2), 1.0, 1.0, 100000)
        res = ks_test(y, lambda x: x, alpha=0.01)
        assert res.passed

    def test_mean_beta_2_3(self):
        y = sample_beta(RngStream(SEED, 4), 2.0, 3.0, 1000000)
        sigma = math.sqrt(2.0 * 3.0 / (5.0**2 * 6.0) / y.size)
        assert abs(float(np.mean(y)) - 0.4) <= 3.0 * sigma

    def test_scalar_draw(self):
        v = sample_beta(RngStream(SEED), 2.0, 3.0)
        assert isinstance(v, float) and 0.0 < v < 1.0

    def test_domain(self):
        with pytest.raises(ValueError):
            sample_beta(RngStream(SEED), 0.0, 1.0)


class TestSampleVelocity:
    def family(self):
        return new_family(0.5, 2.5, 0.8, 1.5, 1)

    def test_range(self):
        p = self.family()
        v = sample_velocity(RngStream(SEED, 8), p, 20000)
        assert np.all(v > 0.0) and np.all(v < p.c)

    def test_ks_against_cdf(self):
        p = self.family()
        v = sample_velocity(RngStream(SEED, 9), p, 100000)
        cdf = lambda x: reg_inc_beta(
            (x / p.c) ** p.beta_exp, 1.0 / p.beta_exp, p.gamma_exp + 1.0
        )
        assert ks_test(v, cdf, alpha=0.01).passed

    def test_second_moment(self):
        p = self.family()
        v = sample_velocity(RngStream(SEED, 10), p, 200000)
        ref = p.c**2 * beta_fn(3.0 / p.beta_exp, p.gamma_exp + 1.0) / beta_fn(
            1.0 / p.beta_exp, p.gamma_exp + 1.0
        )
        sigma = float(np.std(v**2)) / math.sqrt(v.size)
        assert abs(float(np.mean(v**2)) - ref) <= 3.0 * sigma

    def test_requires_1d(self):
        p = new_family(0.5, 2.0, 1.0, 1.0, 2)
        with pytest.raises(ValueError):
            sample_velocity(RngStream(SEED), p)


class TestSamplePosition1d:
    def test_support_and_symmetry(self):
        p = new_family(0.5, 2.5, 0.8, 1.5, 1)
        t = 1.7
        x = sample_position_1d(RngStream(SEED, 11), p, t, 100000)
        assert np.all(np.abs(x) < support_radius(p, t))
        n_pos = int(np.count_nonzero(x > 0.0))
        assert abs(n_pos - x.size / 2) <= 3.0 * math.sqrt(x.size / 4.0)

    def test_ks_against_cdf(self):
        p = new_family(1.0, 2.0, 1.0, 1.0, 1)
        t = 0.9
        x = sample_position_1d(RngStream(SEED, 12), p, t, 100000)
        assert ks_test(x, lambda s: cdf_1d(p, s, t), alpha=0.01).passed

    def test_msd(self):
        p = new_family(0.5, 2.0, 0.5, 2.0, 1)
        t = 1.3
        x = sample_position_1d(RngStream(SEED, 13), p, t, 200000)
        sigma = float(np.std(x**2)) / math.sqrt(x.size)
        assert abs(float(np.mean(x**2)) - radial_moment(p, 2.0, t)) <= 3.0 * sigma


class TestSampleDirection:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_unit_norm(self, d):
        theta = sample_direction(RngStream(SEED, 14), d, 5000)
        assert np.max(np.abs(np.sum(theta**2, axis=1) - 1.0)) <= 1e-14

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_coordinate_moments(self, d):
        theta = sample_direction(RngStream(SEED, 15), d, 100000)
        n = theta.shape[0]
        # Var(Theta_1) = 1/d; Var(Theta_1^2) = 3/(d(d+2)) - 1/d^2
        assert abs(float(np.mean(theta[:, 0]))) <= 3.0 * math.sqrt(1.0 / d / n)
        var_t2 = 3.0 / (d * (d + 2)) - 1.0 / d**2
        assert abs(float(np.mean(theta[:, 0] ** 2)) - 1.0 / d) <= 3.0 * math.sqrt(var_t2 / n)

    def test_scalar_call(self):
        v = sample_direction(RngStream(SEED), 3)
        assert v.shape == (3,)
        assert float(np.sum(v**2)) == pytest.approx(1.0, abs=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            sample_direction(RngStream(SEED), 1)


class TestSamplePosition:
    @pytest.mark.parametrize("raw", [(0.3, 1.5, 0.7, 1.2, 2), (1.0, 3.0, 2.0, 0.8, 3)])
    def test_support(self, raw):
        p = new_family(*raw)
        t = 1.4
        x = sample_position(RngStream(SEED, 16), p, t, 20000)
        assert x.shape == (20000, p.d)
        assert np.all(np.sqrt(np.sum(x**2, axis=1)) < support_radius(p, t))

    @pytest.mark.parametrize("raw", [(0.3, 1.5, 0.7, 1.2, 2), (1.0, 3.0, 2.0, 0.8, 3)])
    def test_radius_ks(self, raw):
        p = new_family(*raw)
        t = 0.8
        x = sample_position(RngStream(SEED, 17), p, t, 100000)
        radii = np.sqrt(np.sum(x**2, axis=1))
        assert ks_test(radii, lambda a: ball_probability(p, a, t), alpha=0.01).passed

    def test_msd(self):
        p = new_family(0.3, 1.5, 0.7, 1.2, 2)
        t = 2.1
        x = sample_position(RngStream(SEED, 18), p, t, 200000)
        r2 = np.sum(x**2, axis=1)
        sigma = float(np.std(r2)) / math.sqrt(r2.size)
        assert abs(float(np.mean(r2)) - radial_moment(p, 2.0, t)) <= 3.0 * sigma

    def test_delegates_in_1d(self):
        p = new_family(1.0, 2.0, 1.0, 1.0, 1)
        a = sample_position(RngStream(SEED, 19), p, 1.0, 100)
        b = sample_position_1d(RngStream(SEED, 19), p, 1.0, 100)
        assert np.array_equal(a, b)


class TestSampleProjectionW:
    def test_d3_uniform(self):
        w = sample_projection_w(RngStream(SEED, 20), 3, 100000)
        assert ks_test(w, lambda x: np.clip(x, 0.0, 1.0), alpha=0.01).passed

    def test_d2_square_is_arcsine(self):
        w = sample_projection_w(RngStream(SEED, 21), 2, 100000)
        arcsine_cdf = lambda x: 2.0 / math.pi * np.arcsin(np.sqrt(np.clip(x, 0.0, 1.0)))
        assert ks_test(w**2, arcsine_cdf, alpha=0.01).passed

    def test_arcsine_closed_form_matches_beta(self):
        xs = np.linspace(0.0, 1.0, 41)
        ref = 2.0 / math.pi * np.arcsin(np.sqrt(xs))
        assert np.max(np.abs(reg_inc_beta(xs, 0.5, 0.5) - ref)) <= 1e-13

    def test_density_normalizes_d5(self):
        d = 5
        dens = lambda w: 2.0 * (1.0 - w * w) ** ((d - 3) / 2.0) / beta_fn(0.5, (d - 1) / 2.0)
        assert integrate(dens, 0.0, 1.0) == pytest.approx(1.0, abs=1e-10)


def _telegraph_oracle(rng, xi, c, t, eps, n):
    """Per-variate reference: one RngStream per path, gaps 16 at a time."""
    out = []
    for _ in range(n):
        child = rng.spawn()
        s0 = child.signs()
        arrived, alt, k = 0.0, 0.0, 0
        while True:
            arrivals = arrived + np.cumsum(child.exponentials(16))
            s = t * np.exp(-arrivals / xi)
            above = int(np.count_nonzero(s >= eps))
            alt += sum((-1.0) ** (k + j + 1) * s[j] for j in range(above))
            k += above
            if above < 16:
                break
            arrived = float(arrivals[-1])
        out.append(c * s0 * (t + 2.0 * alt + (eps if k % 2 else -eps)))
    return np.array(out)


class TestPhilox:
    KEYS = [(0, 0), (2**64 - 1, 2**63 + 5)] + [
        tuple(int(v) for v in pair)
        for pair in np.random.default_rng(5).integers(0, 2**64, size=(20, 2), dtype=np.uint64)
    ]

    def test_words_equal_numpy_philox(self):
        k0 = np.array([k[0] for k in self.KEYS], dtype=np.uint64)
        k1 = np.array([k[1] for k in self.KEYS], dtype=np.uint64)
        words = _philox_words(k0, k1, 1, 12)
        later = _philox_words(k0, k1, 6, 3)
        for i, key in enumerate(self.KEYS):
            ref = np.random.Philox(key=np.array(key, dtype=np.uint64)).random_raw(48)
            assert np.array_equal(words[i], ref)
            assert np.array_equal(later[i], ref[20:32])

    def test_mulhilo_equals_python_ints(self):
        # words at which a partial sum of the carry chain could overflow
        edges = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
        seeded = np.random.default_rng(12).integers(0, 2**64, size=1000, dtype=np.uint64)
        x = np.concatenate([np.array(edges, dtype=np.uint64), seeded])
        before = x.copy()
        for m in _PHILOX_M:
            lo, hi = _mulhilo(m, x)
            prods = [int(m[0]) * int(v) for v in x]
            assert [int(v) for v in lo] == [p & (2**64 - 1) for p in prods]
            assert [int(v) for v in hi] == [p >> 64 for p in prods]
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("shared_k0, rows, first, blocks", [
        (True, 7, 1, 5),  # the telegraph shape: one seed, many stream ids
        (False, 1, 1, 1),
        (False, 3, 9, 1),
        (True, 1, 4, 1),
    ])
    def test_words_in_kernel_shapes(self, shared_k0, rows, first, blocks):
        k0 = np.full(rows, 20260816, dtype=np.uint64) if shared_k0 else \
            np.random.default_rng(13).integers(0, 2**64, size=rows, dtype=np.uint64)
        k1 = np.random.default_rng(14).integers(0, 2**64, size=rows, dtype=np.uint64)
        words = _philox_words(k0, k1, first, blocks)
        assert words.shape == (rows, 4 * blocks)
        for i in range(rows):
            gen = np.random.Philox(key=np.array([k0[i], k1[i]], dtype=np.uint64))
            ref = gen.random_raw(4 * (first - 1 + blocks))
            assert np.array_equal(words[i], ref[4 * (first - 1):])

    def test_child_ids_equal_substream(self):
        for stream_id in (0, 7, 2**63 + 5, 2**64 - 1):
            base = RngStream(3, stream_id)
            ks = np.arange(50, dtype=np.uint64)
            want = [base.substream(k).stream_id for k in range(50)]
            assert [int(v) for v in _child_id(stream_id, ks)] == want


class TestTelegraph:
    def test_speed_bound(self):
        rng = RngStream(SEED, 22)
        u = sample_epd_telegraph(rng, 2.0, 1.5, 1.0, 1e-4, 2000)
        assert np.all(np.abs(u) <= 1.5 * 1.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            sample_epd_telegraph(RngStream(SEED), 2.0, 1.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            sample_epd_telegraph(RngStream(SEED), -1.0, 1.0, 1.0, 1e-3)
        # non-finite parameters: xi = inf never ended, the rest returned
        # nan or inf without an error
        for xi, c, t in [(math.inf, 1.0, 1.0), (math.nan, 1.0, 1.0), (2.0, math.nan, 1.0),
                         (2.0, math.inf, 1.0), (2.0, 1.0, math.inf), (2.0, 1.0, math.nan)]:
            with pytest.raises(ValueError, match="^(xi|c|t) must be finite and > 0"):
                sample_epd_telegraph(RngStream(SEED), xi, c, t, 1e-3, 4)
        rng = RngStream(SEED)
        with pytest.raises(ValueError):
            sample_epd_telegraph(rng, 2.0, 1.0, 1.0, 1e-3, -3)
        assert rng.spawn().stream_id == RngStream(SEED).substream(0).stream_id
        assert sample_epd_telegraph(rng, 2.0, 1.0, 1.0, 1e-3, 0).shape == (0,)

    def test_flip_count_mean(self):
        # flips on [eps, t] are Poisson with mean xi ln(t/eps)
        xi, t, eps = 2.0, 1.0, 1e-4
        rng = RngStream(SEED, 23)
        ids = _child_id(rng.stream_id, np.arange(2000, dtype=np.uint64))
        counts = list(_telegraph_paths(rng.seed, ids, xi, t, eps)[2])
        mean = xi * math.log(t / eps)
        sem = math.sqrt(mean / len(counts))
        assert abs(float(np.mean(counts)) - mean) <= 3.0 * sem

    def test_law_matches_family(self):
        # xi = 2 maps to (alpha, beta, gamma) = (1, 2, 1)
        xi, c, t = 2.0, 1.0, 1.0
        p = new_family(1.0, 2.0, xi - 1.0, c, 1)
        u = sample_epd_telegraph(RngStream(SEED, 24), xi, c, t, 1e-6, 20000)
        res = ks_test(u, lambda x: cdf_1d(p, x, t), alpha=0.01)
        assert res.statistic < 0.02

    def test_eps_coupling(self):
        # same substream, smaller eps: the event sequence is extended, so
        # the integrals differ only by boundary terms of size O(eps)
        xi, t = 1.5, 1.0
        eps1, eps2 = 1e-2, 1e-4
        ids = np.array([RngStream(77, 0).substream(5).stream_id], dtype=np.uint64)
        _, (i1,), (k1,) = _telegraph_paths(77, ids, xi, t, eps1)
        _, (i2,), (k2,) = _telegraph_paths(77, ids, xi, t, eps2)
        assert k2 >= k1
        assert abs(i1 - i2) <= 2.0 * (k2 - k1) * eps1 + eps1 + eps2

    def test_variate_does_not_depend_on_size(self):
        a = sample_epd_telegraph(RngStream(9, 2**63 + 5), 2.0, 1.3, 0.9, 1e-4, 250)
        b = sample_epd_telegraph(RngStream(9, 2**63 + 5), 2.0, 1.3, 0.9, 1e-4, 5000)
        assert a.tobytes() == b[:250].tobytes()

    def test_calls_concatenate(self):
        rng = RngStream(9, 4)
        parts = [sample_epd_telegraph(rng, 1.5, 1.0, 1.0, 1e-3, 1300) for _ in range(2)]
        whole = sample_epd_telegraph(RngStream(9, 4), 1.5, 1.0, 1.0, 1e-3, 2600)
        assert np.concatenate(parts).tobytes() == whole.tobytes()
        # spawn() after a call continues where the variates stopped
        assert rng.spawn().stream_id == RngStream(9, 4).substream(2600).stream_id

    @pytest.mark.parametrize("xi", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("eps", [1e-3, 1e-6])
    def test_matches_per_variate_oracle(self, xi, eps):
        c, t = 1.3, 0.9
        got = sample_epd_telegraph(RngStream(SEED, 27), xi, c, t, eps, 300)
        want = _telegraph_oracle(RngStream(SEED, 27), xi, c, t, eps, 300)
        assert np.max(np.abs(got - want)) <= 1e-14 * c * t

    def test_pinned_bytes(self):
        # 2500 paths per call cross two 1024-path blocks; at xi = 3,
        # eps = 1e-6 (mean 41 flips) paths run through up to five rounds
        out = np.concatenate([
            sample_epd_telegraph(RngStream(SEED, 31), xi, 1.3, 0.9, eps, 2500)
            for xi, eps in [(1.5, 1e-3), (3.0, 1e-6)]
        ])
        digest = "f7dcce0813e96374148c17aef919e029d61e559fead8081b6b26dc545b6d0ebd"
        assert hashlib.sha256(out.tobytes()).hexdigest() == digest

    def test_scalar_call(self):
        v = sample_epd_telegraph(RngStream(SEED, 28), 2.0, 1.0, 1.0, 1e-3)
        assert isinstance(v, float)
        assert v == sample_epd_telegraph(RngStream(SEED, 28), 2.0, 1.0, 1.0, 1e-3, 1)[0]


class TestKsTest:
    def test_fields_and_critical_value(self):
        x = RngStream(SEED, 25).uniform_open(100000)
        res = ks_test(x, lambda s: s, alpha=0.01)
        assert isinstance(res, KSResult)
        assert res.n == 100000
        assert res.critical_value == pytest.approx(1.6277 / math.sqrt(1e5), rel=1e-4)
        assert 0.0 <= res.statistic <= 1.0

    def test_detects_shift(self):
        x = RngStream(SEED, 26).uniform_open(100000) + 0.05
        res = ks_test(x, lambda s: np.clip(s, 0.0, 1.0), alpha=0.01)
        assert not res.passed

    def test_calibrated_grid(self):
        # plugging exact quantiles gives D_n = 1/(2n) < critical value
        x = (np.arange(1, 1001) - 0.5) / 1000.0
        assert ks_test(x, lambda s: s, alpha=0.01).passed

    def test_needs_samples(self):
        with pytest.raises(ValueError):
            ks_test(np.array([0.1, 0.2]), lambda s: s)
        with pytest.raises(ValueError):
            ks_test(np.linspace(0.1, 0.9, 50), lambda s: s, alpha=1.5)


class TestParallelDraw:
    def test_thread_count_immaterial(self):
        draw = lambda rng, m: rng.uniform_open(m)
        a = parallel_draw(SEED, 1, 200001, draw, threads=1)
        b = parallel_draw(SEED, 1, 200001, draw, threads=4)
        assert np.array_equal(a, b)

    def test_matches_documented_schedule(self):
        draw = lambda rng, m: rng.uniform_open(m)
        out = parallel_draw(SEED, 2, 70000, draw, threads=2)
        base = RngStream(SEED, 2)
        manual = np.concatenate(
            [base.substream(0).uniform_open(65536), base.substream(1).uniform_open(4464)]
        )
        assert np.array_equal(out, manual)

    def test_vector_blocks(self):
        p = new_family(0.3, 1.5, 0.7, 1.2, 2)
        draw = lambda rng, m: sample_position(rng, p, 1.0, m)
        out = parallel_draw(SEED, 3, 70000, draw, threads=3)
        assert out.shape == (70000, 2)


@pytest.mark.parametrize("bad", [2.7, 3.0, np.float64(2.0), True, np.True_, "3"])
def test_counts_refuse_non_integers(bad):
    # int() would truncate 2.7 to 2 and take True as 1: a wrong count, no error
    rng = RngStream(SEED)
    with pytest.raises(TypeError, match="size must be an integer"):
        sample_epd_telegraph(rng, 2.0, 1.0, 1.0, 1e-3, bad)
    with pytest.raises(TypeError, match="size must be an integer"):
        sample_direction(rng, 3, bad)
    with pytest.raises(TypeError, match="n must be an integer"):
        parallel_draw(SEED, 0, bad, lambda r, m: r.uniform_open(m))
    with pytest.raises(TypeError, match="size must be an integer"):
        rng.normals(bad)
    assert rng.spawn().stream_id == RngStream(SEED).substream(0).stream_id


@pytest.mark.parametrize(
    "bad, error", [(0, ValueError), (-1, ValueError), (2.5, TypeError), (True, TypeError),
                   (np.bool_(True), TypeError)],
)
def test_parallel_draw_refuses_bad_thread_counts(bad, error):
    with pytest.raises(error, match="threads must be"):
        parallel_draw(SEED, 0, 10, lambda r, m: r.uniform_open(m), threads=bad)


def test_counts_accept_numpy_integers():
    assert sample_epd_telegraph(RngStream(SEED), 2.0, 1.0, 1.0, 1e-3, np.int64(3)).shape == (3,)
    assert sample_direction(RngStream(SEED), 3, np.uint8(2)).shape == (2, 3)
    assert parallel_draw(SEED, 0, np.int32(5), lambda r, m: r.uniform_open(m)).shape == (5,)
    assert RngStream(SEED).normals(np.int16(4)).shape == (4,)
    with pytest.raises(ValueError, match="size must be >= 0"):
        sample_direction(RngStream(SEED), 3, -1)
    with pytest.raises(ValueError, match="size must be >= 0"):
        RngStream(SEED).normals(-1)


@pytest.mark.parametrize("t", [math.nan, math.inf, 0.0])
@pytest.mark.parametrize("sampler, d", [(sample_position_1d, 1), (sample_position, 1), (sample_position, 3)])
def test_position_samplers_refuse_bad_time(sampler, d, t):
    p = new_family(0.5, 2.0, 1.0, 1.0, d)
    with pytest.raises(ValueError, match="t must be finite and > 0"):
        sampler(RngStream(SEED), p, t, 10)
