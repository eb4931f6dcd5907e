"""Distance metrics vs independent oracles, plus load-shape statistics."""
import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, strategies as st

from gridsynth import metrics as M
from gridsynth.errors import DataError

from oracles import (
    kl_oracle,
    load_shape_oracle,
    mean_std_oracle,
    median_sigma_tensor,
    mmd_oracle,
    mmd_rbf_blocked,
    mmd_rbf_tensor,
    spike_day,
    trapezoid_day,
    wasserstein_matching_oracle,
    wasserstein_quantile_oracle,
)


class TestKlDivergence:
    def test_identical_sample_sets_near_zero(self, rng):
        x = rng.normal(size=200)
        assert 0.0 <= M.kl_divergence(x, x.copy()) < 1e-9

    def test_two_bin_worked_example(self):
        # p = (1/2, 1/2), q = (1/4, 3/4): 0.5 ln 2 + 0.5 ln(2/3)
        expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert abs(M.kl_from_masses([0.5, 0.5], [0.25, 0.75]) - expected) < 1e-6
        # same masses reached from raw samples through the shared binning
        x = [0.25, 0.25, 0.75, 0.75]
        y = [0.25, 0.75, 0.75, 0.75]
        assert abs(M.kl_divergence(x, y, bins=2) - expected) < 1e-6

    def test_disjoint_supports_large_but_finite(self):
        val = M.kl_divergence([0.0, 0.1], [10.0, 10.1], bins=10)
        assert np.isfinite(val)
        assert val > 5.0

    def test_asymmetric_witness(self):
        x = [0.25, 0.25, 0.75, 0.75]  # masses (0.5, 0.5)
        y = [0.25] + [0.75] * 9  # masses (0.1, 0.9)
        assert abs(M.kl_divergence(x, y, bins=2) - M.kl_divergence(y, x, bins=2)) > 1e-3

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            M.kl_divergence([], [1.0])

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(101)
        for _ in range(60):
            x = rng.normal(size=int(rng.integers(1, 11))) * rng.uniform(0.5, 3)
            y = rng.normal(size=int(rng.integers(1, 11))) + rng.uniform(-1, 1)
            bins = int(rng.integers(2, 12))
            assert abs(M.kl_divergence(x, y, bins=bins) - kl_oracle(x, y, bins)) < 1e-9

    @given(st.integers(0, 5000))
    def test_non_negative(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=20)
        y = rng.normal(size=25) + rng.uniform(-2, 2)
        assert M.kl_divergence(x, y, bins=10) >= 0.0


class TestMmd:
    def test_identical_multisets_zero(self, rng):
        x = rng.normal(size=(12, 4))
        assert M.mmd_rbf(x, x.copy(), sigma=1.3) == pytest.approx(0.0, abs=1e-9)

    def test_worked_example(self):
        # x={0}, y={1}, sigma=1: MMD^2 = 2 - 2 e^{-1/2}
        expected = math.sqrt(2.0 - 2.0 * math.exp(-0.5))
        assert abs(M.mmd_rbf([0.0], [1.0], 1.0) - expected) < 1e-6

    def test_large_sigma_drives_to_zero(self, rng):
        x = rng.normal(size=8)
        y = rng.normal(size=6) + 3.0
        assert M.mmd_rbf(x, y, sigma=1e6) < 1e-5

    def test_symmetric(self, rng):
        x = rng.normal(size=(7, 3))
        y = rng.normal(size=(9, 3)) + 0.5
        assert M.mmd_rbf(x, y, 0.8) == pytest.approx(M.mmd_rbf(y, x, 0.8), abs=1e-12)

    def test_non_positive_sigma_rejected(self):
        with pytest.raises(DataError):
            M.mmd_rbf([0.0], [1.0], 0.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        # max(0, nan) is 0, so a non-finite bandwidth would report a perfect match
        with pytest.raises(DataError, match="finite"):
            M.mmd_rbf([0.0], [1.0], sigma)
        days = np.random.default_rng(5).uniform(0, 900, size=(20, 96))
        with pytest.raises(DataError, match="finite"):
            M.full_report(days, days[::-1] + 50.0, M.MetricsConfig(sigma=sigma))

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(202)
        for _ in range(60):
            n, m = int(rng.integers(1, 11)), int(rng.integers(1, 11))
            sigma = float(rng.uniform(0.3, 3.0))
            if rng.uniform() < 0.5:
                x, y = rng.normal(size=n), rng.normal(size=m) + 1
            else:
                d = int(rng.integers(2, 5))
                x, y = rng.normal(size=(n, d)), rng.normal(size=(m, d)) + 0.5
            assert abs(M.mmd_rbf(x, y, sigma) - mmd_oracle(x, y, sigma)) < 1e-12

    def test_median_heuristic_positive(self, rng):
        x = rng.normal(size=(10, 4))
        y = rng.normal(size=(8, 4))
        assert M.median_heuristic_sigma(x, y) > 0
        # degenerate pooled sample falls back to 1.0
        z = np.zeros((3, 2))
        assert M.median_heuristic_sigma(z, z) == 1.0

    @pytest.mark.parametrize("block_values", [None, 50])
    def test_matches_tensor_form(self, block_values, monkeypatch):
        if block_values:
            monkeypatch.setattr(M, "_BLOCK_VALUES", block_values)
        rng = np.random.default_rng(203)
        for i in range(80):
            n, m = int(rng.integers(1, 40)), int(rng.integers(1, 40))
            d = (1, 3, 96)[i % 3]
            x = rng.normal(size=(n, d)) * 100
            y = rng.normal(size=(m, d)) * 100 + 30
            sigma = M.median_heuristic_sigma(x, y)
            want = mmd_rbf_tensor(x, y, sigma)
            assert abs(M.mmd_rbf(x, y, sigma) - want) <= 1e-12 * want

    def test_many_blocks_match_tensor_form(self, rng):
        x = rng.uniform(0, 900, size=300)
        y = rng.uniform(0, 1000, size=200)
        sigma = M.median_heuristic_sigma(x, y)
        want = mmd_rbf_tensor(x, y, sigma)
        assert abs(M.mmd_rbf(x, y, sigma) - want) <= 1e-12 * want
        x = rng.uniform(0, 900, size=(300, 96))
        y = rng.uniform(0, 1000, size=(200, 96))
        sigma = M.median_heuristic_sigma(x, y)
        want = mmd_rbf_tensor(x, y, sigma)
        assert abs(M.mmd_rbf(x, y, sigma) - want) <= 1e-12 * want

    def test_non_finite_rejected(self):
        with pytest.raises(DataError, match="finite"):
            M.mmd_rbf([0.0, math.nan], [1.0], 1.0)


def heuristic_samples(rng, kind, n):
    """Scalar samples of one of seven kinds that stress an exact median."""
    if kind == "uniform":
        return rng.uniform(0, 5000, n)
    if kind == "duplicates":
        return rng.integers(0, 5, n).astype(float)
    if kind == "zeros":
        return np.where(rng.uniform(size=n) < 0.7, 0.0, rng.normal(0, 3, n))
    if kind == "ulp":
        return 1e3 + rng.integers(0, 20, n) * np.spacing(1e3)
    if kind == "wide":
        return rng.lognormal(0, 6, n) * rng.choice([-1.0, 1.0], n)
    if kind == "rounded":
        return np.round(rng.normal(100, 30, n), 1)
    return np.full(n, 3.25)


HEURISTIC_KINDS = ("uniform", "duplicates", "zeros", "ulp", "wide", "rounded", "constant")


def same_bits(a: float, b: float) -> bool:
    return float(a).hex() == float(b).hex()


class TestMedianHeuristic:
    @pytest.mark.parametrize("kind", HEURISTIC_KINDS)
    def test_scalars_bit_identical_to_tensor_form(self, kind):
        rng = np.random.default_rng(HEURISTIC_KINDS.index(kind))
        for _ in range(150):
            n, m = int(rng.integers(0, 40)), int(rng.integers(1, 40))
            x, y = heuristic_samples(rng, kind, n), heuristic_samples(rng, kind, m)
            assert same_bits(M.median_heuristic_sigma(x, y), median_sigma_tensor(x, y))

    @pytest.mark.parametrize("kind", ["uniform", "duplicates", "ulp", "rounded"])
    @pytest.mark.parametrize("n", [1000, 1001])
    def test_large_scalar_sample_bit_identical(self, kind, n):
        # n + 1000 points: an even and an odd number of pairs
        rng = np.random.default_rng(n)
        x, y = heuristic_samples(rng, kind, n), heuristic_samples(rng, kind, 1000)
        assert same_bits(M.median_heuristic_sigma(x, y), median_sigma_tensor(x, y))

    @pytest.mark.parametrize("block_values", [None, 50])
    @pytest.mark.parametrize("kind", HEURISTIC_KINDS)
    def test_vectors_bit_identical_to_tensor_form(self, kind, block_values, monkeypatch):
        if block_values:
            monkeypatch.setattr(M, "_BLOCK_VALUES", block_values)
        rng = np.random.default_rng(100 + HEURISTIC_KINDS.index(kind))
        for _ in range(20):
            d = int(rng.choice([2, 5, 96]))
            n, m = int(rng.integers(0, 30)), int(rng.integers(1, 30))
            x = heuristic_samples(rng, kind, n * d).reshape(n, d)
            y = heuristic_samples(rng, kind, m * d).reshape(m, d)
            assert same_bits(M.median_heuristic_sigma(x, y), median_sigma_tensor(x, y))

    def test_several_default_blocks_bit_identical(self, rng):
        real = rng.uniform(0, 3000, size=(200, 96))
        synt = np.round(rng.uniform(0, 3000, size=(150, 96)), 2)
        assert same_bits(M.median_heuristic_sigma(real, synt), median_sigma_tensor(real, synt))

    @pytest.mark.parametrize("shape", [(700,), (120, 7)])
    def test_matches_pdist(self, rng, shape):
        from scipy.spatial.distance import pdist

        x = rng.normal(size=shape) * 200
        y = rng.normal(size=shape) * 150 + 40
        want = float(np.median(pdist(np.vstack([M._as_2d(x), M._as_2d(y)]))))
        assert M.median_heuristic_sigma(x, y) == pytest.approx(want, rel=1e-12)

    def test_fewer_than_two_points_fall_back(self):
        assert M.median_heuristic_sigma([], [4.0]) == 1.0
        assert M.median_heuristic_sigma(np.zeros((0, 96)), np.ones((1, 96))) == 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DataError, match="finite"):
            M.median_heuristic_sigma([0.0, bad], [1.0])
        with pytest.raises(DataError, match="finite"):
            M.median_heuristic_sigma([[0.0, bad]], [[1.0, 2.0]])


def mmd_cases(rng, kind, count):
    """(x, y) pairs of one heuristic_samples kind: scalars as 1-D arrays and
    vectors of 2, 5 or 96 dims, with either side sometimes one sample."""
    for i in range(count):
        d = (1, 2, 5, 96)[i % 4]
        n, m = int(rng.integers(1, 30)), int(rng.integers(1, 30))
        if i % 5 == 0:
            n = 1
        elif i % 5 == 1:
            m = 1
        x, y = heuristic_samples(rng, kind, n * d), heuristic_samples(rng, kind, m * d)
        yield (x, y) if d == 1 else (x.reshape(n, d), y.reshape(m, d))


class TestMmdBits:
    """mmd_rbf equals, bit for bit, the blocked-tensor formula it replaced."""

    @pytest.mark.parametrize("block_values", [None, 50, 7])
    @pytest.mark.parametrize("kind", HEURISTIC_KINDS)
    def test_matches_blocked_tensor_form(self, kind, block_values, monkeypatch):
        if block_values:
            monkeypatch.setattr(M, "_BLOCK_VALUES", block_values)
        rng = np.random.default_rng(300 + HEURISTIC_KINDS.index(kind))
        for x, y in mmd_cases(rng, kind, 20):
            for sigma in (M.median_heuristic_sigma(x, y), float(rng.uniform(0.5, 50.0))):
                want = mmd_rbf_blocked(x, y, sigma, M._BLOCK_VALUES)
                assert same_bits(M.mmd_rbf(x, y, sigma), want)

    @pytest.mark.parametrize("block_values", [None, 50, 7])
    @pytest.mark.parametrize("kind", HEURISTIC_KINDS)
    def test_shared_distances_match_blocked_tensor_form(self, kind, block_values, monkeypatch):
        if block_values:
            monkeypatch.setattr(M, "_BLOCK_VALUES", block_values)
        rng = np.random.default_rng(400 + HEURISTIC_KINDS.index(kind))
        for x, y in mmd_cases(rng, kind, 20):
            shared = []
            sigma = M.median_heuristic_sigma(x, y, sq_dists_out=shared)
            assert same_bits(sigma, M.median_heuristic_sigma(x, y))
            if x.ndim == 1:
                assert not shared  # scalars take the sorted-gap path
                continue
            want = mmd_rbf_blocked(x, y, sigma, M._BLOCK_VALUES)
            assert same_bits(M.mmd_rbf(x, y, sigma, sq_dists=shared[0]), want)

    @pytest.mark.parametrize("mmd_on", ["days", "pooled"])
    @pytest.mark.parametrize("block_values", [None, 50, 7])
    def test_full_report_matches_separate_calls(self, mmd_on, block_values, monkeypatch):
        if block_values:
            monkeypatch.setattr(M, "_BLOCK_VALUES", block_values)
        rng = np.random.default_rng(17)
        for kind in HEURISTIC_KINDS:
            real = heuristic_samples(rng, kind, 9 * 96).reshape(9, 96)
            synt = heuristic_samples(rng, kind, 14 * 96).reshape(14, 96)
            report = M.full_report(real, synt, M.MetricsConfig(mmd_on=mmd_on))
            mx, my = (real, synt) if mmd_on == "days" else (real.ravel(), synt.ravel())
            sigma = M.median_heuristic_sigma(mx, my)
            assert same_bits(report.config["sigma"], sigma)
            assert same_bits(report.mmd, M.mmd_rbf(mx, my, sigma))
            assert same_bits(report.mmd, mmd_rbf_blocked(mx, my, sigma, M._BLOCK_VALUES))

    @pytest.mark.parametrize("sigma", ["median", 250.0])
    def test_days_mode_computes_distances_once(self, rng, monkeypatch, sigma):
        # one upper-triangle pass: with the median bandwidth MMD reads the
        # distances the bandwidth computed, with a fixed sigma it makes them
        calls = []
        blocks = M._sq_dist_blocks
        monkeypatch.setattr(M, "_sq_dist_blocks",
                            lambda a, b, upper=False: calls.append(upper) or blocks(a, b, upper))
        real, synt = rng.uniform(0, 900, size=(12, 96)), rng.uniform(0, 900, size=(9, 96))
        M.full_report(real, synt, M.MetricsConfig(sigma=sigma))
        assert calls == [True]

    def test_realistic_sizes_default_blocks(self, rng):
        # a year of real days against the default 512 synthetic ones: many
        # row blocks per kernel mean, both in days and in pooled mode
        real = rng.uniform(0, 3000, size=(365, 96))
        synt = np.round(rng.uniform(0, 3000, size=(512, 96)), 2)
        report = M.full_report(real, synt)
        want = mmd_rbf_blocked(real, synt, report.config["sigma"], M._BLOCK_VALUES)
        assert same_bits(report.mmd, want)
        mx = M._cap_samples(real.ravel(), M.MAX_POOLED_MMD_SAMPLES)
        my = M._cap_samples(synt.ravel(), M.MAX_POOLED_MMD_SAMPLES)
        report = M.full_report(real, synt, M.MetricsConfig(mmd_on="pooled"))
        want = mmd_rbf_blocked(mx, my, report.config["sigma"], M._BLOCK_VALUES)
        assert same_bits(report.mmd, want)

    def test_pooled_peak_memory(self, rng):
        # one reused (512, 4096) block buffer is ~16 MB; an (r, m, 1) difference
        # tensor plus fresh kernel temporaries per block would be ~50 MB
        x = rng.uniform(0, 3000, size=M.MAX_POOLED_MMD_SAMPLES)
        y = rng.uniform(0, 3000, size=M.MAX_POOLED_MMD_SAMPLES)
        tracemalloc.start()
        try:
            M.mmd_rbf(x, y, 300.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 2**20


class TestWasserstein:
    def test_identical(self, rng):
        x = rng.normal(size=30)
        assert M.wasserstein1(x, x.copy()) == 0.0

    def test_worked_example(self):
        assert abs(M.wasserstein1([0.0, 1.0, 2.0], [1.0, 2.0, 3.0]) - 1.0) < 1e-6

    def test_translation_property(self, rng):
        x = rng.normal(size=40)
        for shift in (0.5, -2.25, 11.0):
            assert M.wasserstein1(x, x + shift) == pytest.approx(abs(shift), abs=1e-9)

    def test_matches_matching_oracle(self):
        rng = np.random.default_rng(303)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            x = rng.normal(size=n) * rng.uniform(0.5, 2)
            y = rng.normal(size=n) + rng.uniform(-1, 1)
            assert abs(M.wasserstein1(x, y) - wasserstein_matching_oracle(x, y)) < 1e-12

    def test_matches_quantile_oracle_unequal_sizes(self):
        rng = np.random.default_rng(404)
        for _ in range(60):
            x = rng.normal(size=int(rng.integers(1, 11)))
            y = rng.normal(size=int(rng.integers(1, 11))) + rng.uniform(-1, 1)
            assert abs(M.wasserstein1(x, y) - wasserstein_quantile_oracle(x, y)) < 1e-12

    def test_matches_scipy(self, rng):
        x = rng.normal(size=57)
        y = rng.normal(size=43) + 0.7
        assert M.wasserstein1(x, y) == pytest.approx(
            scipy.stats.wasserstein_distance(x, y), abs=1e-12
        )

    def test_triangle_inequality(self):
        rng = np.random.default_rng(505)
        for _ in range(30):
            x, y, z = (rng.normal(size=9) + rng.uniform(-2, 2) for _ in range(3))
            assert M.wasserstein1(x, z) <= M.wasserstein1(x, y) + M.wasserstein1(y, z) + 1e-12

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            M.wasserstein1([], [1.0])


# frozen via direct rule evaluation (oracles.load_shape_oracle) on the fixtures
TRAPEZOID_TUPLE = (0.0, 100.0, 10.25, 2.0, 2.0)
SPIKE_TUPLE = (0.0, 0.0, 0.0, 0.0, 0.0)


class TestLoadShape:
    def test_constant_day_degenerate(self):
        shape = M.load_shape(np.full(96, 42.0))
        assert shape.as_tuple() == (42.0, 42.0, 0.0, 0.0, 0.0)

    def test_trapezoid_fixture(self):
        day = trapezoid_day()
        assert load_shape_oracle(day) == TRAPEZOID_TUPLE
        assert M.load_shape(day).as_tuple() == TRAPEZOID_TUPLE

    def test_spike_fixture(self):
        # the 97.5th percentile of 95 zeros and one spike is 0, which makes
        # the day degenerate under the percentile rules
        day = spike_day()
        assert load_shape_oracle(day) == SPIKE_TUPLE
        assert M.load_shape(day).as_tuple() == SPIKE_TUPLE

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(606)
        for _ in range(50):
            day = rng.uniform(0, 500, size=96)
            got = M.load_shape(day).as_tuple()
            want = load_shape_oracle(day)
            np.testing.assert_allclose(got, want, atol=1e-12)

    def test_constant_shift_moves_only_levels(self, rng):
        day = trapezoid_day()
        base = M.load_shape(day)
        shifted = M.load_shape(day + 37.0)
        assert shifted.base_load == pytest.approx(base.base_load + 37.0)
        assert shifted.peak_load == pytest.approx(base.peak_load + 37.0)
        assert shifted.high_load_duration == base.high_load_duration
        assert shifted.rise_time == base.rise_time
        assert shifted.fall_time == base.fall_time

    def test_alpha_validation(self):
        with pytest.raises(DataError):
            M.load_shape(np.ones(96), alpha_high=0.1, alpha_low=0.9)

    def test_peak_at_least_base(self, rng):
        for _ in range(20):
            day = rng.uniform(0, 100, size=96)
            shape = M.load_shape(day)
            assert shape.peak_load >= shape.base_load
            assert 0.0 <= shape.high_load_duration <= 24.0
            assert 0.0 <= shape.rise_time <= 24.0
            assert 0.0 <= shape.fall_time <= 24.0


class TestAggregateStats:
    def test_single_day_zero_std(self):
        stats = M.aggregate_stats(trapezoid_day()[None, :])
        for entry in stats.values():
            assert entry["std"] == 0.0

    def test_identical_days(self):
        days = np.vstack([trapezoid_day()] * 5)
        stats = M.aggregate_stats(days)
        assert stats["peak_load"]["mean"] == 100.0
        assert stats["peak_load"]["std"] == 0.0
        assert stats["high_load_duration"]["mean"] == 10.25

    def test_two_scaled_trapezoids(self):
        days = np.vstack([trapezoid_day(), trapezoid_day() * 2.0])
        stats = M.aggregate_stats(days)
        # direct arithmetic on the two known tuples
        assert stats["peak_load"]["mean"] == 150.0
        assert stats["peak_load"]["std"] == 50.0
        assert stats["high_load_duration"]["mean"] == 10.25
        assert stats["rise_time"]["std"] == 0.0

    def test_matches_two_pass_oracle(self, rng):
        days = rng.uniform(0, 300, size=(7, 96))
        stats = M.aggregate_stats(days)
        tuples = [load_shape_oracle(day) for day in days]
        for i, name in enumerate(M.STAT_NAMES):
            mean, std = mean_std_oracle([t[i] for t in tuples])
            assert abs(stats[name]["mean"] - mean) < 1e-12
            assert abs(stats[name]["std"] - std) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            M.aggregate_stats(np.zeros((0, 96)))

    @pytest.mark.parametrize("days", [np.zeros((3, 0)), np.array([[1.0, math.nan]])])
    def test_empty_or_non_finite_day_rejected(self, days):
        with pytest.raises(DataError, match="non-empty and finite"):
            M.aggregate_stats(days)

    def test_alpha_validation(self):
        with pytest.raises(DataError, match="alpha_low"):
            M.aggregate_stats(np.ones((2, 96)), alpha_high=0.1, alpha_low=0.9)

    @pytest.mark.parametrize("kind", ["uniform", "rounded", "zeros"])
    def test_bit_identical_to_per_day_load_shape(self, kind):
        rng = np.random.default_rng(len(kind))
        for _ in range(30):
            days = rng.uniform(0, 900, size=(int(rng.integers(1, 40)), 96))
            if kind == "rounded":
                days = np.round(days, -2)
            elif kind == "zeros":
                days[rng.uniform(size=days.shape) < 0.8] = 0.0
            tuples = np.array([M.load_shape(day).as_tuple() for day in days])
            want = {
                name: {"mean": float(tuples[:, i].mean()), "std": float(tuples[:, i].std())}
                for i, name in enumerate(M.STAT_NAMES)
            }
            assert M.aggregate_stats(days) == want


class TestMetricsConfigRules:
    @pytest.mark.parametrize("key,value", [
        ("bins", 0), ("bins", 2.5), ("bins", True), ("sigma", "wide"), ("sigma", 0.0), ("sigma", -2.0), ("mmd_on", "hours"),
        ("alpha_high", 1.5), ("alpha_low", 0.0), ("alpha_low", 0.95),
    ])
    def test_bad_value_raises_at_construction(self, key, value):
        with pytest.raises(DataError, match=key):
            M.MetricsConfig(**{key: value})


class TestFullReport:
    def test_self_comparison(self, rng):
        real = rng.uniform(0, 900, size=(20, 96))
        report = M.full_report(real, real.copy(), kind="load", model="vaegan")
        assert report.kl < 1e-9
        assert report.wasserstein == 0.0
        assert report.mmd == pytest.approx(0.0, abs=1e-9)

    def test_schema_fields(self, rng):
        real = rng.uniform(0, 900, size=(6, 96))
        synt = rng.uniform(0, 900, size=(4, 96))
        report = M.full_report(real, synt, kind="pv", model="gan")
        for stats in (report.real_stats, report.synth_stats):
            assert set(stats) == set(M.STAT_NAMES)
            for entry in stats.values():
                assert set(entry) == {"mean", "std"}
        assert report.units == "watts"
        assert report.config["sigma"] > 0
        assert report.config["n_real_days"] == 6
        assert report.config["n_synth_days"] == 4

    def test_json_round_trip(self, tmp_path, rng):
        real = rng.uniform(0, 500, size=(5, 96))
        synt = rng.uniform(0, 500, size=(5, 96))
        report = M.full_report(real, synt)
        report.save(tmp_path / "r.json")
        back = M.MetricsReport.load(tmp_path / "r.json")
        assert back.kl == report.kl
        assert back.wasserstein == report.wasserstein
        assert back.mmd == report.mmd
        assert back.to_json() == report.to_json()

    def test_failed_write_keeps_previous_report(self, tmp_path, rng, monkeypatch):
        from pathlib import Path

        path = tmp_path / "report.json"
        report = M.full_report(rng.uniform(0, 500, size=(5, 96)), rng.uniform(0, 500, size=(5, 96)))
        report.save(path)
        before = path.read_bytes()
        assert before == report.to_json().encode("utf-8")
        write_text = Path.write_text

        def write_half_then_fail(self, text, **kwargs):
            write_text(self, text[: len(text) // 2], **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", write_half_then_fail)
        with pytest.raises(OSError, match="disk full"):
            M.full_report(rng.uniform(0, 9, size=(3, 96)), rng.uniform(0, 9, size=(3, 96))).save(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    @pytest.mark.parametrize("mmd_on", ["days", "pooled"])
    def test_peak_memory_bounded(self, rng, mmd_on):
        # one year of real days against the default 512 synthetic ones; pooled
        # mode scores the 4096 + 4096 sample cap
        real = rng.uniform(0, 3000, size=(365, 96))
        synt = rng.uniform(0, 3000, size=(512, 96))
        tracemalloc.start()
        try:
            M.full_report(real, synt, M.MetricsConfig(mmd_on=mmd_on))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_fixed_sigma_and_pooled_mode(self, rng):
        real = rng.uniform(0, 500, size=(5, 96))
        synt = rng.uniform(0, 500, size=(5, 96))
        cfg = M.MetricsConfig(sigma=250.0, mmd_on="pooled")
        report = M.full_report(real, synt, cfg)
        assert report.config["sigma_mode"] == "fixed"
        assert report.config["sigma"] == 250.0

    def test_histogram_dump(self, tmp_path, rng):
        real = rng.uniform(0, 100, size=500)
        synt = rng.uniform(0, 100, size=400)
        M.dump_histograms(real, synt, tmp_path / "h.csv", bins=20)
        lines = (tmp_path / "h.csv").read_text().splitlines()
        assert lines[0] == "bin_left,bin_right,real_mass,synth_mass"
        assert len(lines) == 21
        masses = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
        assert masses[:, 2].sum() == pytest.approx(1.0, abs=1e-9)
        assert masses[:, 3].sum() == pytest.approx(1.0, abs=1e-9)

    def test_failed_histogram_write_keeps_previous_file(self, tmp_path, rng, monkeypatch):
        from pathlib import Path

        path = tmp_path / "h.csv"
        M.dump_histograms(rng.uniform(0, 100, size=50), rng.uniform(0, 100, size=40), path, bins=5)
        before = path.read_bytes()
        write_text = Path.write_text

        def write_half_then_fail(self, text, **kwargs):
            write_text(self, text[: len(text) // 2], **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", write_half_then_fail)
        with pytest.raises(OSError, match="disk full"):
            M.dump_histograms(rng.uniform(0, 9, size=50), rng.uniform(0, 9, size=40), path, bins=5)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["h.csv"]
