import itertools
import math
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ideadrift import stats
from ideadrift.cloud import EccentricityRecord
from ideadrift.errors import DataFormatError
from ideadrift.stats import (
    EXACT_SPLIT_LIMIT, _PooledSplits, ad_2sample_statistic, ad_test_2sample, bin_by_popularity,
    bin_labels, bin_summary, bonferroni, default_grid, kde, mann_whitney,
)

# ---------------------------------------------------------------------------
# independent oracles, written from the definitions with plain loops
# ---------------------------------------------------------------------------

def naive_ad_statistic(x, y):
    """Midrank two-sample statistic computed scalar-by-scalar."""
    pooled = sorted(list(x) + list(y))
    distinct = sorted(set(pooled))
    n_total = len(pooled)
    total = 0.0
    for sample in (list(x), list(y)):
        size = len(sample)
        inner = 0.0
        for value in distinct:
            mult = pooled.count(value)
            b_mid = sum(1 for v in pooled if v < value) + mult / 2.0
            m_mid = (sum(1 for v in sample if v < value)
                     + sum(1 for v in sample if v == value) / 2.0)
            denom = b_mid * (n_total - b_mid) - n_total * mult / 4.0
            inner += (mult / n_total) * (n_total * m_mid - size * b_mid) ** 2 / denom
        total += inner / size
    return (n_total - 1) / n_total * total


def exhaustive_ad_p(x, y):
    """Share of pooled splits at least as extreme as the observed one:
    strictly-greater statistics (beyond the 1e-9 tie band) plus the observed
    split itself."""
    pooled = list(x) + list(y)
    observed = naive_ad_statistic(x, y)
    threshold = observed + 1e-9 * (1.0 + abs(observed))
    greater = 0
    total = 0
    for combo in itertools.combinations(range(len(pooled)), len(x)):
        xs = [pooled[i] for i in combo]
        ys = [pooled[i] for i in range(len(pooled)) if i not in combo]
        if naive_ad_statistic(xs, ys) > threshold:
            greater += 1
        total += 1
    return (greater + 1) / total


def monte_carlo_ad_p(x, y, n_perm, seed):
    """Replay the seeded draws: each draw's min(len(x), len(y)) pooled
    positions, a subset drawn without replacement, form one sample and the
    rest the other; score every split with the naive statistic and the same
    1e-9 tie band."""
    pooled = list(x) + list(y)
    observed = naive_ad_statistic(x, y)
    threshold = observed + 1e-9 * (1.0 + abs(observed))
    rng = np.random.default_rng(seed)
    k = min(len(x), len(y))
    greater = 0
    for _ in range(n_perm):
        chosen = set(rng.choice(len(pooled), k, replace=False, shuffle=False).tolist())
        xs = [v for i, v in enumerate(pooled) if i in chosen]
        ys = [v for i, v in enumerate(pooled) if i not in chosen]
        if naive_ad_statistic(xs, ys) > threshold:
            greater += 1
    return (greater + 1) / (n_perm + 1)


def pairwise_u(x, y):
    u = 0.0
    for xi in x:
        for yj in y:
            if xi > yj:
                u += 1.0
            elif xi == yj:
                u += 0.5
    return u


def exhaustive_mw_p(x, y):
    pooled = list(x) + list(y)
    n = len(x)
    mu = n * len(y) / 2.0
    observed = abs(pairwise_u(x, y) - mu)
    count = 0
    total = 0
    for combo in itertools.combinations(range(len(pooled)), n):
        xs = [pooled[i] for i in combo]
        ys = [pooled[i] for i in range(len(pooled)) if i not in combo]
        if abs(pairwise_u(xs, ys) - mu) >= observed - 1e-12:
            count += 1
        total += 1
    return count / total


# ---------------------------------------------------------------------------
# binning
# ---------------------------------------------------------------------------

def rec(likes, ecc=1.0):
    return EccentricityRecord(post_id=f"p{likes}-{ecc}", author="u", created_at=0,
                              likes=likes, eccentricity=ecc, self_eccentricity=None,
                              cloud_size=1, self_cloud_size=0)


def label_of(likes, thresholds):
    """The bin a record with ``likes`` lands in."""
    bins = bin_by_popularity([rec(likes)], thresholds)
    (label,) = [label for label, samples in bins.items() if samples]
    return label


class TestBinning:
    def test_three_level_thresholds(self):
        assert label_of(10, (10, 100)) == "low"
        assert label_of(11, (10, 100)) == "medium"
        assert label_of(100, (10, 100)) == "medium"
        assert label_of(101, (10, 100)) == "high"

    def test_two_level_thresholds(self):
        assert label_of(2, (2,)) == "low"
        assert label_of(3, (2,)) == "high"

    def test_zero_likes_in_first_bin(self):
        for thresholds in ((2,), (10, 100), ()):
            assert label_of(0, thresholds) == bin_labels(thresholds)[0]

    def test_empty_thresholds_single_bin(self):
        assert bin_labels(()) == ("all",)

    def test_undefined_eccentricity_excluded(self):
        undefined = EccentricityRecord("px", "u", 0, 5, None, None, 0, 0)
        bins = bin_by_popularity([rec(1, 2.0), undefined], (10, 100))
        assert bins == {"low": [2.0], "medium": [], "high": []}

    def test_unsorted_thresholds_rejected(self):
        with pytest.raises(DataFormatError):
            bin_labels((100, 10))


# ---------------------------------------------------------------------------
# kernel density estimation
# ---------------------------------------------------------------------------

class TestKde:
    def test_single_sample_peak_value(self):
        density = kde([0.0], 5.0, np.array([0.0]))
        assert density[0] == pytest.approx(1 / (5 * math.sqrt(2 * math.pi)), rel=1e-12)

    def test_symmetry(self):
        grid = np.linspace(-4, 4, 101)
        density = kde([-1.0, 1.0], 1.0, grid)
        assert_allclose(density, density[::-1], rtol=1e-12)

    def test_integrates_to_one(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(3, 10, 200)
        h = 5.0
        grid = np.linspace(samples.min() - 6 * h, samples.max() + 6 * h, 1024)
        density = kde(samples, h, grid)
        integral = np.trapezoid(density, grid)
        assert integral == pytest.approx(1.0, abs=1e-3)

    def test_shift_equivariance(self):
        samples = [0.0, 1.0, 5.0]
        grid = np.linspace(-10, 15, 257)
        shift = 7.25
        base = kde(samples, 2.0, grid)
        moved = kde([s + shift for s in samples], 2.0, grid + shift)
        assert_allclose(moved, base, rtol=1e-12)

    def test_empty_samples_rejected(self):
        with pytest.raises(DataFormatError):
            kde([], 5.0, np.array([0.0]))

    def test_bad_bandwidth_rejected(self):
        with pytest.raises(DataFormatError):
            kde([1.0], 0.0, np.array([0.0]))

    @pytest.mark.parametrize("bandwidth", [math.nan, math.inf, -math.inf])
    def test_non_finite_bandwidth_rejected(self, bandwidth):
        with pytest.raises(DataFormatError, match=f"^bandwidth must be finite, got {bandwidth}$"):
            kde([1.0, 2.0], bandwidth, np.array([0.0, 1.0]))

    def test_default_grid_span(self):
        grid = default_grid([0.0, 10.0], 5.0)
        assert grid[0] == -15.0 and grid[-1] == 25.0 and grid.size == 512

    @pytest.mark.parametrize("points", [512, 101])
    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 10_000])
    def test_bits_match_out_of_place_reference(self, n, points):
        # samples rounded to 0.1 repeat, so chunks hold ties
        samples = np.round(np.random.default_rng(n).normal(20.0, 8.0, n), 1)
        h = 5.0
        grid = np.linspace(samples.min() - 15.0, samples.max() + 15.0, points)
        want = np.zeros(grid.size)
        for start in range(0, n, 4096):
            chunk = samples[start:start + 4096]
            scaled = (grid[None, :] - chunk[:, None]) / h
            want += np.exp(-0.5 * scaled**2).sum(axis=0)
        want /= n * h * math.sqrt(2.0 * math.pi)
        assert kde(samples, h, grid).tobytes() == want.tobytes()

    @pytest.mark.parametrize("points", [512, 1])
    @pytest.mark.parametrize("h", [0.05, 50.0], ids=["narrow", "wide"])
    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 4095, 4096, 4097, 9000])
    def test_bits_match_single_chunk_buffer_loop(self, n, h, points):
        # the blocked sums must add rows in the order of one (4096, points)
        # buffer summed per chunk; a one-point grid is summed pairwise by numpy
        samples = np.round(np.random.default_rng(n).normal(20.0, 8.0, n), 1)
        grid = np.linspace(samples.min() - 15.0, samples.max() + 15.0, points)
        want = np.zeros(grid.size)
        buf = np.empty((min(n, 4096), grid.size))
        for start in range(0, n, 4096):
            chunk = samples[start:start + 4096]
            scaled = buf[:chunk.size]
            np.subtract(grid[None, :], chunk[:, None], out=scaled)
            scaled /= h
            np.square(scaled, out=scaled)
            scaled *= -0.5
            np.exp(scaled, out=scaled)
            want += scaled.sum(axis=0)
        want /= n * h * math.sqrt(2.0 * math.pi)
        assert kde(samples, h, grid).tobytes() == want.tobytes()

    @pytest.mark.parametrize("points", [512, 1])
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 4095, 4096, 4097])
    def test_bits_same_at_1024_and_256_row_blocks(self, monkeypatch, n, points):
        samples = np.round(np.random.default_rng(n).normal(20.0, 8.0, n), 1)
        grid = np.linspace(samples.min() - 15.0, samples.max() + 15.0, points)
        got = kde(samples, 5.0, grid)
        monkeypatch.setattr(stats, "_KDE_BLOCK", 1024)
        assert got.tobytes() == kde(samples, 5.0, grid).tobytes()

    def test_peak_memory_one_chunk_buffer(self):
        samples = np.random.default_rng(23).normal(20.0, 8.0, 10_000)
        grid = default_grid(samples, 5.0)
        tracemalloc.start()
        try:
            kde(samples, 5.0, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 256 * grid.size * 8


# ---------------------------------------------------------------------------
# Anderson-Darling
# ---------------------------------------------------------------------------

class TestAdStatistic:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_naive_implementation(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 6, rng.integers(2, 9)).astype(float)
        y = rng.integers(0, 6, rng.integers(2, 9)).astype(float)
        if np.unique(np.concatenate([x, y])).size < 2:
            pytest.skip("degenerate draw")
        assert ad_2sample_statistic(x, y) == pytest.approx(
            naive_ad_statistic(x, y), rel=1e-12)

    def test_standardized_statistic_matches_scipy(self):
        import warnings
        scipy_stats = pytest.importorskip("scipy.stats")
        from ideadrift.stats import ad_standardized
        rng = np.random.default_rng(1)
        for _ in range(25):
            x = rng.normal(0, 1, rng.integers(4, 30))
            y = rng.normal(0.3, 1.2, rng.integers(4, 30))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                reference = scipy_stats.anderson_ksamp([x, y]).statistic
            t = ad_standardized(ad_2sample_statistic(x, y), x.size, y.size)
            assert t == pytest.approx(reference, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_either_side_gives_the_statistic(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 8, rng.integers(2, 30)).astype(float)
        y = rng.integers(0, 8, rng.integers(2, 30)).astype(float)
        if np.unique(np.concatenate([x, y])).size < 2:
            pytest.skip("degenerate draw")
        splits = _PooledSplits(np.concatenate([x, y]))
        from_x = splits.statistic(np.arange(x.size))
        from_y = splits.statistic(np.arange(x.size, x.size + y.size))
        assert from_x == pytest.approx(from_y, rel=1e-12)
        want = naive_ad_statistic(x, y)
        assert from_x == pytest.approx(want, rel=1e-12)
        assert from_y == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_statistic_bits_match_out_of_place_reference(self, seed):
        rng = np.random.default_rng(seed)
        pooled = np.round(rng.normal(0.0, 1.0, rng.integers(4, 2000)), rng.integers(0, 3))
        splits = _PooledSplits(pooled)
        if splits.degenerate:
            pytest.skip("degenerate draw")
        n = float(pooled.size)
        for _ in range(20):
            shuffled = rng.permutation(pooled.size)
            cut = int(rng.integers(1, pooled.size))
            for side in (shuffled[:cut], shuffled[cut:]):
                size = float(side.size)
                counts = np.bincount(splits.value_index[side], minlength=splits.values.size)
                mid = np.cumsum(counts) - counts / 2.0
                total = float(np.sum(splits.weight * (n * mid - size * splits.pooled_midcount)**2))
                want = (n - 1.0) / n * total * (1.0 / size + 1.0 / (n - size))
                assert splits.statistic(side) == want


class TestAdTest:
    def test_exhaustive_splits_match_comb(self):
        for n_x in range(0, 45):
            for n_y in range(0, 45):
                splits = math.comb(n_x + n_y, n_x)
                assert stats._exhaustive_splits(n_x, n_y) == (
                    splits if splits <= EXACT_SPLIT_LIMIT else None), (n_x, n_y)
        assert stats._exhaustive_splits(122_725, 12_402) is None

    def test_identical_multisets_high_p(self):
        x = [1.0, 2.0, 3.0]
        _, p = ad_test_2sample(x, list(x), p_method="permutation")
        assert p >= 0.5

    def test_fully_separated_4v4_most_extreme_split(self):
        _, p = ad_test_2sample([1, 2, 3, 4], [101, 102, 103, 104],
                               p_method="permutation")
        assert p == pytest.approx(1 / 70, rel=1e-12)

    @pytest.mark.parametrize("nx,ny", [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4),
                                       (4, 4), (2, 6), (3, 5)])
    def test_exhaustive_permutation_matches_oracle(self, nx, ny):
        rng = np.random.default_rng(nx * 10 + ny)
        x = rng.integers(0, 5, nx).astype(float)
        y = rng.integers(0, 5, ny).astype(float)
        if np.unique(np.concatenate([x, y])).size < 2:
            x[0] += 1.0
        _, p = ad_test_2sample(x, y, p_method="permutation")
        assert p == exhaustive_ad_p(x, y)

    def test_degenerate_pooled_sample(self):
        a2, p = ad_test_2sample([2.0, 2.0], [2.0, 2.0, 2.0])
        assert p == 1.0

    @pytest.mark.parametrize("p_method", ["table", "permutation"])
    def test_negative_seed_rejected(self, p_method):
        with pytest.raises(DataFormatError, match="seed must be >= 0, got -2"):
            ad_test_2sample([1.0, 2.0], [3.0, 4.0], p_method=p_method, seed=-2)

    def test_monte_carlo_path_is_seeded(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, 12)
        y = rng.normal(1, 1, 12)  # C(24, 12) is far over the exact limit
        r1 = ad_test_2sample(x, y, p_method="permutation", n_perm=500, seed=9)
        r2 = ad_test_2sample(x, y, p_method="permutation", n_perm=500, seed=9)
        r3 = ad_test_2sample(x, y, p_method="permutation", n_perm=500, seed=10)
        assert r1 == r2
        assert 0 < r1[1] <= 1
        assert r1[0] == r3[0]

    @pytest.mark.parametrize("nx,ny,ties", [(5, 20, False), (20, 5, False),
                                            (8, 12, True), (13, 7, True)])
    def test_monte_carlo_matches_replayed_draws(self, nx, ny, ties):
        rng = np.random.default_rng(nx * 100 + ny)
        if ties:
            x = rng.integers(0, 6, nx).astype(float)
            y = rng.integers(1, 7, ny).astype(float)
        else:
            x = rng.normal(0, 1, nx)
            y = rng.normal(0.5, 1, ny)
        assert math.comb(nx + ny, nx) > EXACT_SPLIT_LIMIT
        _, p = ad_test_2sample(x, y, p_method="permutation", n_perm=300, seed=4)
        assert p == monte_carlo_ad_p(x, y, 300, 4)

    @pytest.mark.parametrize("x,y", [
        ([0.3, 1.9, 2.4], [0.8, 1.1, 2.9, 3.5, 4.2]),   # x the smaller side
        ([0.8, 1.1, 2.9, 3.5, 4.2], [0.3, 1.9, 2.4]),   # y the smaller side
        ([1.0, 2.0, 2.0, 4.0], [2.0, 3.0, 3.0, 4.0, 5.0]),  # ties across sides
    ])
    def test_monte_carlo_draws_are_unbiased(self, monkeypatch, x, y):
        # with no exhaustive path, small pools go through Monte Carlo. A draw
        # beats the observed split with probability q, the exact p less the
        # observed split's own 1/n_splits (the exact p counts that split, a
        # draw of it never beats it); p must sit within 4 binomial standard
        # errors of the (n_perm q + 1) / (n_perm + 1) that this gives
        n_perm = 20000
        monkeypatch.setattr(stats, "EXACT_SPLIT_LIMIT", 0)
        _, p = ad_test_2sample(x, y, p_method="permutation", n_perm=n_perm, seed=3)
        q = exhaustive_ad_p(x, y) - 1 / math.comb(len(x) + len(y), len(x))
        assert 0 < q < 1
        want = (n_perm * q + 1) / (n_perm + 1)
        assert abs(p - want) <= 4 * math.sqrt(q * (1 - q) / n_perm)

    @pytest.mark.parametrize("nx,ny", [(20, 5), (5, 20)])
    def test_no_draw_shuffles_the_whole_pool(self, monkeypatch, nx, ny):
        # the observed split is scored from x; every draw scores exactly the
        # smaller side's positions, drawn as a subset: the generator offers
        # choice alone, so a shuffle (permutation, shuffle, permuted) fails
        rng = np.random.default_rng(nx)
        x, y = rng.normal(0, 1, nx), rng.normal(0, 1, ny)
        assert math.comb(nx + ny, nx) > EXACT_SPLIT_LIMIT
        sizes = []
        real = _PooledSplits.statistic
        real_rng = np.random.default_rng

        def recording(self, side):
            sizes.append(side.size)
            return real(self, side)

        class SubsetsOnly:
            def __init__(self, seed):
                self.choice = real_rng(seed).choice

        monkeypatch.setattr(_PooledSplits, "statistic", recording)
        monkeypatch.setattr(np.random, "default_rng", SubsetsOnly)
        ad_test_2sample(x, y, p_method="permutation", n_perm=50, seed=1)
        assert sizes == [nx] + [min(nx, ny)] * 50

    def test_table_p_detects_strong_separation(self):
        x = np.arange(50.0)
        y = np.arange(50.0) + 100
        _, p = ad_test_2sample(x, y, p_method="table")
        assert p == pytest.approx(0.001)

    def test_table_p_capped_for_similar_samples(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, 40)
        _, p = ad_test_2sample(x, x.copy(), p_method="table")
        assert p == pytest.approx(0.25)

    def test_sample_size_precondition(self):
        with pytest.raises(DataFormatError):
            ad_test_2sample([1.0], [2.0, 3.0])


class TestBonferroni:
    def test_basic(self):
        assert bonferroni([0.01], 3) == [pytest.approx(0.03)]

    def test_cap_at_one(self):
        assert bonferroni([0.5], 3) == [1.0]

    def test_identity_at_m1(self):
        ps = [0.1, 0.9, 0.0, 1.0]
        assert bonferroni(ps, 1) == ps

    def test_never_decreases(self):
        ps = [0.001, 0.2, 0.7]
        for m in (1, 2, 5):
            assert all(c >= p for c, p in zip(bonferroni(ps, m), ps))

    def test_rejects_bad_values(self):
        with pytest.raises(DataFormatError):
            bonferroni([1.5], 2)
        with pytest.raises(DataFormatError):
            bonferroni([0.5], 0)


# ---------------------------------------------------------------------------
# Mann-Whitney
# ---------------------------------------------------------------------------

class TestMannWhitney:
    def test_complete_separation(self):
        u, _ = mann_whitney([1, 2, 3], [4, 5, 6])
        assert u == 0.0

    def test_exact_p_two_vs_two(self):
        u, p = mann_whitney([1, 2], [3, 4])
        assert u == 0.0
        assert p == pytest.approx(1 / 3, rel=1e-12)

    def test_identical_samples_half_u(self):
        x = [1.0, 2.0, 3.0]
        u, _ = mann_whitney(x, list(x))
        assert u == len(x) * len(x) / 2

    def test_u_complement_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.integers(0, 10, rng.integers(1, 15)).astype(float)
            y = rng.integers(0, 10, rng.integers(1, 15)).astype(float)
            u_xy, _ = mann_whitney(x, y)
            u_yx, _ = mann_whitney(y, x)
            assert u_xy + u_yx == pytest.approx(len(x) * len(y))

    def test_u_matches_pairwise_count(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            x = rng.integers(0, 6, rng.integers(1, 20)).astype(float)
            y = rng.integers(0, 6, rng.integers(1, 20)).astype(float)
            u, _ = mann_whitney(x, y)
            assert u == pytest.approx(pairwise_u(x, y))

    @pytest.mark.parametrize("seed", range(10))
    def test_exact_enumeration_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 12 - n + 1))
        x = rng.integers(0, 4, n).astype(float)
        y = rng.integers(0, 4, m).astype(float)
        _, p = mann_whitney(x, y)
        assert p == exhaustive_mw_p(x, y)

    def test_asymptotic_agrees_with_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(6)
        for _ in range(30):
            x = rng.integers(0, 9, rng.integers(8, 40)).astype(float)
            y = rng.integers(0, 9, rng.integers(8, 40)).astype(float)
            u, p = mann_whitney(x, y)
            ref = scipy_stats.mannwhitneyu(x, y, alternative="two-sided",
                                           method="asymptotic")
            assert u == pytest.approx(ref.statistic)
            assert p == pytest.approx(ref.pvalue, rel=1e-9)

    def test_all_ties_p_one(self):
        x = [5.0] * 10
        _, p = mann_whitney(x, x * 2)
        assert p == 1.0


def numpy_mann_whitney(x, y):
    """The numpy implementation mann_whitney replaced, kept as its bitwise
    reference: midranks and tie counts from np.unique, sums by np.sum."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, m = x.size, y.size
    _, index, counts = np.unique(np.concatenate([x, y]), return_inverse=True,
                                 return_counts=True)
    multiplicity = counts.astype(float)
    less = np.concatenate(([0.0], np.cumsum(counts)[:-1]))
    ranks = (less + multiplicity / 2.0 + 0.5)[index]
    u = float(ranks[:n].sum() - n * (n + 1) / 2.0)
    mu = n * m / 2.0
    if n + m <= 12:
        observed_dev = abs(u - mu)
        count = total = 0
        for combo in itertools.combinations(range(n + m), n):
            u_split = float(ranks[list(combo)].sum() - n * (n + 1) / 2.0)
            if abs(u_split - mu) >= observed_dev - 1e-12:
                count += 1
            total += 1
        return u, count / total
    n_total = n + m
    tie_term = float(np.sum(multiplicity**3 - multiplicity)) / (n_total * (n_total - 1.0))
    variance = n * m / 12.0 * ((n_total + 1.0) - tie_term)
    if variance <= 0.0:
        return u, 1.0
    z = max(abs(u - mu) - 0.5, 0.0) / math.sqrt(variance)
    return u, min(1.0, math.erfc(z / math.sqrt(2.0)))


class TestMannWhitneyEqualsNumpy:
    @pytest.mark.parametrize("kind", ["continuous", "ties", "few-values"])
    def test_both_branches_bitwise(self, kind):
        rng = np.random.default_rng(len(kind))
        sizes = [(n, m) for n in range(1, 12) for m in range(1, 13 - n)]  # exact
        sizes += [(int(n), int(m)) for n, m in rng.integers(1, 400, (60, 2))]
        sizes += [(3000, 3000), (1, 2000)]
        for n, m in sizes:
            if kind == "continuous":
                x, y = rng.normal(0, 1, n), rng.normal(0.3, 2, m)
            elif kind == "ties":
                x, y = rng.normal(0, 1, n).round(1), rng.normal(0.2, 1, m).round(1)
            else:
                x, y = rng.integers(0, 3, n).astype(float), rng.integers(0, 4, m).astype(float)
            assert repr(mann_whitney(x.tolist(), y.tolist())) == repr(numpy_mann_whitney(x, y))

    @pytest.mark.parametrize(("x", "y"), [
        ([0.0, -0.0, 1.0], [-0.0, 2.0]),
        ([float("nan"), 1.0, float("nan")], [2.0, float("nan"), 0.5]),
        ([float("nan")] * 8, [1.0] * 9),
        ([float("inf"), 1.0] * 5, [-float("inf"), 3.0] * 6),
        ([5.0] * 10, [5.0] * 20),
        ([1, 2, 3], [2, 2]),
    ], ids=["signed-zeros", "nans", "nans-asymptotic", "infinities", "all-tied", "ints"])
    def test_special_values_bitwise(self, x, y):
        assert repr(mann_whitney(x, y)) == repr(numpy_mann_whitney(x, y))


# ---------------------------------------------------------------------------
# bin summaries
# ---------------------------------------------------------------------------

class TestBinSummary:
    def test_single_bin_no_tests(self):
        summary = bin_summary({"all": [1.0, 2.0, 3.0]}, bandwidth=1.0)
        assert summary.tests == []
        assert summary.bins[0].density is not None
        assert summary.bins[0].mean == pytest.approx(2.0)

    def test_identical_bins_not_significant(self):
        data = list(np.linspace(0, 8, 30))
        summary = bin_summary({"a": data, "b": list(data)}, bandwidth=1.0,
                              p_method="permutation", n_perm=400, seed=1)
        (test,) = summary.tests
        assert test.p_raw >= 0.5

    def test_small_bin_skipped_with_notice(self):
        summary = bin_summary({"a": [1.0, 2.0, 3.0], "b": [9.0]}, bandwidth=1.0)
        assert summary.tests == []
        assert any("b" in n for n in summary.notices)
        by_label = {b.label: b for b in summary.bins}
        assert by_label["b"].mean == pytest.approx(9.0)

    def test_p_at_a_bound_gets_a_notice(self):
        far = {"a": list(np.arange(50.0)), "b": list(np.arange(50.0) + 100)}
        same = {"a": list(np.linspace(0, 8, 40)), "b": list(np.linspace(0, 8, 40))}
        floor = bin_summary(far, bandwidth=1.0)
        assert floor.tests[0].p_raw == 0.001
        assert floor.notices == ["test 'a' vs 'b': p_raw is the table floor 0.001; "
                                 "the true p-value may be smaller"]
        ceiling = bin_summary(same, bandwidth=1.0)
        assert ceiling.tests[0].p_raw == 0.25
        assert ceiling.notices == ["test 'a' vs 'b': p_raw is the table ceiling 0.25; "
                                   "the true p-value may be larger"]
        drawn = bin_summary(far, bandwidth=1.0, p_method="permutation", n_perm=99)
        assert drawn.tests[0].p_raw == 1 / 100
        assert drawn.notices == ["test 'a' vs 'b': p_raw is the Monte Carlo floor 1/100; "
                                 "no draw was as extreme, so more draws may give "
                                 "a smaller p-value"]
        exhaustive = bin_summary({"a": [1.0, 2.0, 3.0, 4.0], "b": [11.0, 12.0, 13.0, 14.0]},
                                 bandwidth=1.0, p_method="permutation")
        assert exhaustive.tests[0].p_raw == 1 / 70
        assert exhaustive.notices == ["test 'a' vs 'b': p_raw is the exhaustive floor 1/70; "
                                      "no split of these sizes gives a smaller p-value"]
        assert bin_summary(same, bandwidth=1.0, p_method="permutation",
                           n_perm=99).notices == []

    def test_bonferroni_uses_number_of_pairs(self):
        rng = np.random.default_rng(0)
        bins = {label: list(rng.normal(loc, 1, 30))
                for label, loc in (("a", 0.0), ("b", 2.0), ("c", 5.0))}
        summary = bin_summary(bins, bandwidth=1.0)
        assert len(summary.tests) == 3
        for t in summary.tests:
            assert t.p_bonferroni == pytest.approx(min(1.0, 3 * t.p_raw))

    def test_curves_share_grid(self):
        bins = {"a": [0.0, 1.0, 2.0], "b": [10.0, 11.0, 12.0]}
        h = 1.0
        summary = bin_summary(bins, bandwidth=h)
        for samples in bins.values():
            assert summary.grid[0] <= min(samples) - 3 * h
            assert summary.grid[-1] >= max(samples) + 3 * h
        assert [b.density.size for b in summary.bins] == [summary.grid.size] * len(bins)

    def test_no_samples_no_grid(self):
        summary = bin_summary({"a": [], "b": []}, bandwidth=1.0)
        assert summary.grid is None
        assert [b.density for b in summary.bins] == [None, None]

    def test_handles_wildly_unequal_sizes(self):
        rng = np.random.default_rng(1)
        bins = {
            "low": list(rng.normal(10, 3, 20000)),
            "medium": list(rng.normal(11, 3, 300)),
            "high": list(rng.normal(13, 3, 15)),
        }
        summary = bin_summary(bins, bandwidth=5.0)
        assert len(summary.tests) == 3
        assert all(np.isfinite(t.a2) for t in summary.tests)
        assert all(0 < t.p_raw <= 1 for t in summary.tests)


class TestBinSummaryThreads:
    # under permutation each pair enumerates C(10, 5) = 252 splits exhaustively,
    # so three pairs compute 759 statistics, enough for three parts
    BINS = {label: [float(i), float(i) + 0.5, float(i) + 2.0, float(i) + 3.25,
                    float(i) + 4.5] for i, label in enumerate("abc")}
    SPLIT = {"p_method": "permutation"}

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.parametrize(("threads", "same_as_pair"), [(2, [0, 1, 1]), (3, [0, 1, 2])],
                             ids=["2-parts", "3-parts"])
    def test_later_parts_run_in_child_processes(self, monkeypatch, threads, same_as_pair):
        # each pair's a2 is the pid that scored it; pair 0 is in part 0
        monkeypatch.setattr(stats, "ad_test_2sample",
                            lambda x, y, **kwargs: (float(os.getpid()), 0.5))
        summary = bin_summary(self.BINS, **self.SPLIT, threads=threads)
        pids = [int(t.a2) for t in summary.tests]
        assert pids[0] == os.getpid()
        assert os.getpid() not in pids[1:]
        assert [pids.index(pid) for pid in pids] == same_as_pair
        assert summary.threads == threads

    @pytest.mark.parametrize("threads", [1, 2, 6])
    def test_tests_equal_sequential_calls_at_any_worker_count(self, threads):
        # 4 bins of unequal size: pairs among a, b, c enumerate splits
        # exhaustively, pairs with d draw Monte Carlo shuffles, so the last
        # pairs finish before the first
        rng = np.random.default_rng(8)
        bins = {"d": list(rng.normal(0, 1, 400).round(1)), "a": list(rng.normal(1, 1, 5)),
                "b": list(rng.normal(0, 1, 7)), "c": list(rng.normal(2, 1, 4).round(0))}
        kwargs = dict(p_method="permutation", n_perm=199, seed=5)
        summary = bin_summary(bins, bandwidth=1.0, **kwargs, threads=threads)
        pairs = list(itertools.combinations(bins, 2))
        raw = [ad_test_2sample(bins[a], bins[b], **kwargs) for a, b in pairs]
        assert [math.comb(len(bins[a]) + len(bins[b]), len(bins[a])) <= EXACT_SPLIT_LIMIT
                for a, b in pairs] == [False, False, False, True, True, True]
        assert summary.threads == min(6, threads)
        assert [(t.label_a, t.label_b) for t in summary.tests] == pairs
        assert [(t.a2, t.p_raw) for t in summary.tests] == raw
        assert [t.p_bonferroni for t in summary.tests] == bonferroni([p for _, p in raw], 6)

    def test_starts_no_thread(self, monkeypatch):
        def no_thread(self):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        summary = bin_summary(self.BINS, **self.SPLIT, threads=3)
        assert (len(summary.tests), summary.threads) == (3, 3)

        def failing_test(x, y, **kwargs):
            raise DataFormatError("bad pair")

        monkeypatch.setattr(stats, "ad_test_2sample", failing_test)
        with pytest.raises(DataFormatError, match="bad pair"):
            bin_summary(self.BINS, **self.SPLIT, threads=3)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_first_failure_in_pair_order_raised(self, monkeypatch, threads):
        # pairs (a, c) and (b, c) fail; (a, c) fails last but comes first
        def failing_test(x, y, **kwargs):
            pair = (float(x[0]), float(y[0]))
            if pair == (0.0, 2.0):
                time.sleep(0.2)
                raise DataFormatError("pair a-c failed")
            if pair == (1.0, 2.0):
                raise OverflowError("pair b-c failed")
            return 1.0, 0.5

        monkeypatch.setattr(stats, "ad_test_2sample", failing_test)
        with pytest.raises(DataFormatError, match="^pair a-c failed$"):
            bin_summary(self.BINS, **self.SPLIT, threads=threads)

    def test_threads_capped_at_pairs(self):
        assert [bin_summary(self.BINS, **self.SPLIT, threads=n).threads
                for n in (1, 2, 3, 8)] == [1, 2, 3, 3]

    @pytest.mark.parametrize(("settings", "threads"), [
        ({"p_method": "table"}, 1),                          # 3 statistics
        ({"p_method": "permutation", "n_perm": 65}, 1),      # 3 x 66 = 198 statistics
        ({"p_method": "permutation", "n_perm": 66}, 2),      # 3 x 67 = 201
        ({"p_method": "permutation", "n_perm": 98}, 2),      # 297
        ({"p_method": "permutation", "n_perm": 99}, 3),      # 300
    ], ids=["table", "198", "201", "297", "300"])
    def test_parts_average_100_statistics(self, monkeypatch, settings, threads):
        # 30 values a bin: C(60, 30) splits are too many to enumerate, so a
        # pair computes the observed statistic and n_perm draws
        monkeypatch.setattr(stats, "ad_test_2sample", lambda x, y, **kwargs: (1.0, 0.5))
        bins = {label: [i + k / 30 for k in range(30)] for i, label in enumerate("abc")}
        assert bin_summary(bins, **settings, threads=8).threads == threads

    def test_single_pair_or_none_threads(self):
        assert bin_summary({"a": [1.0, 2.0], "b": [3.0, 5.0]}).threads == 1
        assert bin_summary({"a": [1.0, 2.0], "b": [3.0]}).threads == 0

    @pytest.mark.parametrize("threads", [0, -1])
    @pytest.mark.parametrize("bins", [{"a": [1.0, 2.0], "b": [3.0, 5.0]},
                                      {"a": [1.0, 2.0], "b": [3.0]}],
                             ids=["testable-pair", "no-testable-pair"])
    def test_threads_below_one_refused(self, bins, threads):
        with pytest.raises(DataFormatError, match=f"^threads must be at least 1, got {threads}$"):
            bin_summary(bins, threads=threads)


class TestBinSummarySettings:
    # each bad setting is refused with the text of the function that would
    # use it, whether or not any bin reaches that function
    @pytest.mark.parametrize(("settings", "message"), [
        ({"p_method": "bootstrap"}, "unknown p_method 'bootstrap'"),
        ({"p_method": "permutation", "n_perm": 0}, "n_perm must be at least 1, got 0"),
        ({"p_method": "permutation", "n_perm": -3}, "n_perm must be at least 1, got -3"),
        ({"seed": -5}, "seed must be >= 0, got -5"),
        ({"p_method": "permutation", "seed": -1}, "seed must be >= 0, got -1"),
        ({"bandwidth": 0.0}, "bandwidth must be positive, got 0.0"),
        ({"bandwidth": -1.0}, "bandwidth must be positive, got -1.0"),
        ({"bandwidth": math.nan}, "bandwidth must be finite, got nan"),
        ({"bandwidth": math.inf}, "bandwidth must be finite, got inf"),
        ({"bandwidth": -math.inf}, "bandwidth must be finite, got -inf"),
    ], ids=["p-method", "n-perm-zero", "n-perm-negative", "seed-table", "seed-permutation",
            "bandwidth-zero", "bandwidth-negative", "bandwidth-nan", "bandwidth-inf",
            "bandwidth-minus-inf"])
    @pytest.mark.parametrize("bins", [{"a": [1.0, 2.0], "b": [3.0, 5.0]},
                                      {"a": [1.0, 2.0], "b": [3.0]},
                                      {"a": [], "b": []}],
                             ids=["testable-pair", "no-testable-pair", "no-sample"])
    def test_bad_setting_refused_before_any_work(self, monkeypatch, bins, settings, message):
        def no_work(*args, **kwargs):
            raise AssertionError("work began before the settings were checked")

        for name in ("default_grid", "kde", "ad_test_2sample"):
            monkeypatch.setattr(stats, name, no_work)
        with pytest.raises(DataFormatError, match=f"^{message}$"):
            bin_summary(bins, **settings)

    def test_unused_n_perm_not_checked_under_table(self):
        summary = bin_summary({"a": [1.0, 2.0], "b": [3.0, 5.0]}, p_method="table", n_perm=0)
        assert len(summary.tests) == 1
