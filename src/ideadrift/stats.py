"""Popularity binning, Gaussian KDE, and nonparametric two-sample tests.

The Anderson-Darling test uses the Scholz-Stephens k-sample rank statistic
(k = 2) in its midrank form, which is exact under ties. P-values come either
from interpolation of the published critical-value table (clipped to its
[0.001, 0.25] range) or from permutation of the pooled sample: exhaustive
enumeration of splits when their number is small, seeded Monte Carlo
otherwise. Permutation p-values count splits whose statistic strictly
exceeds the observed one, plus the observed split itself.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from typing import Iterable, NamedTuple, Sequence

from . import _parts
from ._np import np
from .cloud import EccentricityRecord
from .errors import DataFormatError, check_positive

DEFAULT_BANDWIDTH = 5.0
DEFAULT_GRID_POINTS = 512
DEFAULT_GRID_SPAN = 3.0
DEFAULT_N_PERM = 9999
# enumerate splits exhaustively when C(N, n) is at most this
EXACT_SPLIT_LIMIT = 20_000
MANN_WHITNEY_EXACT_LIMIT = 12
# two split statistics within this relative distance are tied, not "greater";
# guards against summation-order rounding flipping strict comparisons
SPLIT_TIE_RTOL = 1e-9
# kde adds kernel values 4096 samples at a time (this fixes the result's bits),
# computing each chunk in blocks of 1024 rows
_KDE_CHUNK = 4096
_KDE_BLOCK = 1024


# ---------------------------------------------------------------------------
# popularity binning
# ---------------------------------------------------------------------------

def bin_labels(thresholds: Sequence[int]) -> tuple[str, ...]:
    """One label per bin of the strictly ascending like-count ``thresholds``,
    which cut [0, inf) into one more bin than there are thresholds."""
    thresholds = tuple(thresholds)
    if list(thresholds) != sorted(set(thresholds)):
        raise DataFormatError(f"thresholds must be strictly ascending: {thresholds}")
    if len(thresholds) == 0:
        return ("all",)
    if len(thresholds) == 1:
        return ("low", "high")
    if len(thresholds) == 2:
        return ("low", "medium", "high")
    return (f"le_{thresholds[0]}",
            *(f"{lo + 1}_{hi}" for lo, hi in zip(thresholds, thresholds[1:])),
            f"gt_{thresholds[-1]}")


def bin_by_popularity(
    records: Iterable[EccentricityRecord],
    thresholds: Sequence[int],
) -> dict[str, list[float]]:
    """Group defined eccentricities by like-count bin, keyed by ``bin_labels``.

    A record with likes L lands in bin i when thresholds[i-1] < L <=
    thresholds[i]; records beyond the last threshold land in the last bin.
    Records with undefined eccentricity are skipped.
    """
    labels = bin_labels(thresholds)
    out: dict[str, list[float]] = {label: [] for label in labels}
    for r in records:
        if r.eccentricity is None:
            continue
        out[labels[bisect_left(thresholds, r.likes)]].append(r.eccentricity)
    return out


# ---------------------------------------------------------------------------
# kernel density estimation
# ---------------------------------------------------------------------------

def default_grid(samples: Sequence[float], bandwidth: float) -> np.ndarray:
    """Ascending grid of DEFAULT_GRID_POINTS points covering
    [min - span*h, max + span*h] with span = DEFAULT_GRID_SPAN."""
    samples = np.asarray(samples, dtype=float)
    return np.linspace(samples.min() - DEFAULT_GRID_SPAN * bandwidth,
                       samples.max() + DEFAULT_GRID_SPAN * bandwidth, DEFAULT_GRID_POINTS)


def kde(samples: Sequence[float], bandwidth: float, grid: np.ndarray) -> np.ndarray:
    """Gaussian kernel density estimate at each point of an ascending grid.

    density(x) = (1 / (n h sqrt(2 pi))) * sum_i exp(-(x - s_i)^2 / (2 h^2))

    Samples are summed 4096 at a time, and that chunk size fixes the order in
    which kernel values are added, and so the result's bits. Each chunk is
    computed 1024 rows at a time in one reused (1024, grid.size) buffer, so
    working memory is that buffer alone; the chunk's running column sum is
    added into the first row of its next block, so rows are still added one
    after another in sample order.
    """
    samples = np.asarray(samples, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if samples.size == 0:
        raise DataFormatError("kde needs at least one sample")
    check_positive("bandwidth", bandwidth)
    if np.any(np.diff(grid) < 0):
        raise DataFormatError("grid must be ascending")
    # numpy sums a lone column pairwise, not row after row, so a one-point
    # grid keeps whole chunks (its buffer is 32 KiB)
    rows = _KDE_CHUNK if grid.size == 1 else _KDE_BLOCK
    density = np.zeros(grid.size)
    buf = np.empty((min(samples.size, rows), grid.size))
    for start in range(0, samples.size, _KDE_CHUNK):
        stop = min(start + _KDE_CHUNK, samples.size)
        running = None
        for first in range(start, stop, rows):
            block = samples[first:min(first + rows, stop)]
            scaled = buf[:block.size]
            np.subtract(grid[None, :], block[:, None], out=scaled)
            scaled /= bandwidth
            np.square(scaled, out=scaled)
            scaled *= -0.5
            np.exp(scaled, out=scaled)
            if running is not None:
                scaled[0] += running
            running = scaled.sum(axis=0)
        density += running
    density /= samples.size * bandwidth * math.sqrt(2.0 * math.pi)
    return density


# ---------------------------------------------------------------------------
# Anderson-Darling two-sample test
# ---------------------------------------------------------------------------

class _PooledSplits:
    """Precomputation over a pooled sample for repeated split statistics.

    The distinct values, their multiplicities, and the per-value weights of
    the midrank statistic depend only on the pooled sample, so they are
    shared across all splits during permutation. ``mann_whitney`` takes its
    midranks (B_j + 1/2) and tie counts from the same table.
    """

    def __init__(self, pooled: np.ndarray):
        pooled = np.asarray(pooled, dtype=float)
        self.n_total = pooled.size
        self.values, self.value_index, counts = np.unique(
            pooled, return_inverse=True, return_counts=True)
        self.multiplicity = counts.astype(float)
        less = np.concatenate(([0.0], np.cumsum(counts)[:-1]))
        self.pooled_midcount = less + self.multiplicity / 2.0  # B_j
        self.degenerate = self.values.size < 2
        if not self.degenerate:  # one distinct value has a zero denominator
            n = float(self.n_total)
            denominator = (self.pooled_midcount * (n - self.pooled_midcount)
                           - n * self.multiplicity / 4.0)
            self.weight = self.multiplicity / (n * denominator)

    def statistic(self, side: np.ndarray) -> float:
        """Midrank two-sample statistic for the split in which the pooled
        elements at positions ``side`` form one sample.

        The other sample's midcounts are B_j - M_j, so its squared deviations
        (n M_j - size B_j)^2 equal this side's and one pass scores both.
        The terms are formed in place in one array over the distinct values.
        """
        n = float(self.n_total)
        size = float(side.size)
        # float counts keep the cumsum exact (below 2**53) and halve in place
        terms = np.bincount(self.value_index[side], minlength=self.values.size).astype(float)
        cumulative = np.cumsum(terms)
        terms *= 0.5
        np.subtract(cumulative, terms, out=terms)  # M_j
        terms *= n
        terms -= size * self.pooled_midcount
        np.square(terms, out=terms)
        terms *= self.weight
        total = float(np.sum(terms))
        return (n - 1.0) / n * total * (1.0 / size + 1.0 / (n - size))


def ad_2sample_statistic(x: Sequence[float], y: Sequence[float]) -> float:
    """Scholz-Stephens two-sample rank statistic, midrank (tie-aware) version."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    pooled = _PooledSplits(np.concatenate([x, y]))
    if pooled.degenerate:
        return 0.0
    return pooled.statistic(np.arange(x.size))


# critical values of the standardized statistic: b0 + b1/sqrt(m) + b2/m
_AD_SIG = (0.25, 0.10, 0.05, 0.025, 0.01, 0.005, 0.001)
_AD_B0 = (0.675, 1.281, 1.645, 1.960, 2.326, 2.573, 3.085)
_AD_B1 = (-0.245, 0.250, 0.678, 1.149, 1.822, 2.364, 3.615)
_AD_B2 = (-0.105, -0.305, -0.362, -0.391, -0.396, -0.345, -0.154)


def ad_standardized(a2: float, n_x: int, n_y: int) -> float:
    """Standardize the two-sample statistic: (A2 - 1) / sigma with sigma from
    the statistic's finite-sample variance."""
    n_total = n_x + n_y
    k = 2
    h_sum = float(np.sum(1.0 / np.arange(1, n_total)))
    seq = np.cumsum(1.0 / np.arange(n_total - 1, 1, -1))
    g_sum = float(np.sum(seq / np.arange(2, n_total)))
    cap_h = 1.0 / n_x + 1.0 / n_y
    a = (4.0 * g_sum - 6.0) * (k - 1) + (10.0 - 6.0 * g_sum) * cap_h
    b = ((2.0 * g_sum - 4.0) * k**2 + 8.0 * h_sum * k
         + (2.0 * g_sum - 14.0 * h_sum - 4.0) * cap_h - 8.0 * h_sum
         + 4.0 * g_sum - 6.0)
    c = ((6.0 * h_sum + 2.0 * g_sum - 2.0) * k**2
         + (4.0 * h_sum - 4.0 * g_sum + 6.0) * k
         + (2.0 * h_sum - 6.0) * cap_h + 4.0 * h_sum)
    d = (2.0 * h_sum + 6.0) * k**2 - 4.0 * h_sum * k
    sigma_sq = ((a * n_total**3 + b * n_total**2 + c * n_total + d)
                / ((n_total - 1.0) * (n_total - 2.0) * (n_total - 3.0)))
    return (a2 - (k - 1)) / math.sqrt(sigma_sq)


def _ad_table_p(a2: float, n_x: int, n_y: int) -> float:
    """Interpolate the p-value from the published critical-value table.

    The standardized statistic is compared against the two-sample critical
    curve; log p is interpolated linearly between table columns and clipped
    to the table's [0.001, 0.25] range.
    """
    t = ad_standardized(a2, n_x, n_y)
    # b0 + b1/sqrt(m) + b2/m at m = 1, summed as arrays (tuples would concatenate)
    critical = np.array(_AD_B0) + np.array(_AD_B1) + np.array(_AD_B2)
    if t <= critical[0]:
        return _AD_SIG[0]
    if t >= critical[-1]:
        return _AD_SIG[-1]
    return float(math.exp(np.interp(t, critical, np.log(_AD_SIG))))


def _check_test_settings(p_method: str, n_perm: int, seed: int) -> None:
    if p_method not in ("table", "permutation"):
        raise DataFormatError(f"unknown p_method {p_method!r}")
    if p_method == "permutation" and n_perm < 1:
        raise DataFormatError(f"n_perm must be at least 1, got {n_perm}")
    if seed < 0:
        raise DataFormatError(f"seed must be >= 0, got {seed}")


def ad_test_2sample(
    x: Sequence[float],
    y: Sequence[float],
    p_method: str = "table",
    n_perm: int = DEFAULT_N_PERM,
    seed: int = 0,
) -> tuple[float, float]:
    """Two-sample Anderson-Darling test; returns (statistic, p).

    p_method "table" interpolates Scholz-Stephens critical values (p clipped
    to [0.001, 0.25]); "permutation" enumerates all pooled splits when there
    are at most EXACT_SPLIT_LIMIT of them, otherwise draws n_perm (at least 1)
    seeded splits, each a uniform subset of min(x.size, y.size) pooled
    positions. Splits count as more extreme only when their statistic
    exceeds the observed one by more than SPLIT_TIE_RTOL relative, so
    equal-valued splits are ties regardless of rounding. A pooled sample with a single
    distinct value is degenerate and reports p = 1.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2 or y.size < 2:
        raise DataFormatError("each sample needs at least 2 observations")
    _check_test_settings(p_method, n_perm, seed)
    pooled = _PooledSplits(np.concatenate([x, y]))
    if pooled.degenerate:
        return 0.0, 1.0
    observed = pooled.statistic(np.arange(x.size))
    if p_method == "table":
        return observed, _ad_table_p(observed, x.size, y.size)

    n_total = x.size + y.size
    threshold = observed + SPLIT_TIE_RTOL * (1.0 + abs(observed))
    n_splits = math.comb(n_total, x.size)
    if n_splits <= EXACT_SPLIT_LIMIT:
        greater = sum(
            1 for combo in itertools.combinations(range(n_total), x.size)
            if pooled.statistic(np.asarray(combo)) > threshold
        )
        return observed, (greater + 1) / n_splits
    rng = np.random.default_rng(seed)
    # a uniform k-subset of the pooled positions is a uniform split, and the
    # statistic is symmetric in the two sides: draw the smaller side alone
    k = min(x.size, y.size)
    greater = 0
    for _ in range(n_perm):
        if pooled.statistic(rng.choice(n_total, k, replace=False, shuffle=False)) > threshold:
            greater += 1
    return observed, (greater + 1) / (n_perm + 1)


def bonferroni(pvals: Sequence[float], m: int) -> list[float]:
    """Multiply each p-value by m, capping at 1."""
    if m < 1:
        raise DataFormatError(f"m must be >= 1, got {m}")
    out = []
    for p in pvals:
        if not 0.0 <= p <= 1.0:
            raise DataFormatError(f"p-value out of range: {p}")
        out.append(min(1.0, m * p))
    return out


# ---------------------------------------------------------------------------
# Mann-Whitney U test
# ---------------------------------------------------------------------------

def mann_whitney(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Two-sided Mann-Whitney test; returns (U, p) with U counted for x.

    U = #{(i, j): x_i > y_j} + half the ties. Exact enumeration of all pooled
    splits supplies the p-value when the samples hold at most 12 observations
    together; otherwise the normal approximation with tie-corrected variance
    and continuity correction is used.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, m = x.size, y.size
    if n < 1 or m < 1:
        raise DataFormatError("each sample needs at least 1 observation")
    pooled = _PooledSplits(np.concatenate([x, y]))
    ranks = (pooled.pooled_midcount + 0.5)[pooled.value_index]
    u = float(ranks[:n].sum() - n * (n + 1) / 2.0)
    mu = n * m / 2.0

    if n + m <= MANN_WHITNEY_EXACT_LIMIT:
        observed_dev = abs(u - mu)
        count = 0
        total = 0
        for combo in itertools.combinations(range(n + m), n):
            u_split = float(ranks[list(combo)].sum() - n * (n + 1) / 2.0)
            if abs(u_split - mu) >= observed_dev - 1e-12:
                count += 1
            total += 1
        return u, count / total

    n_total = n + m
    counts = pooled.multiplicity
    tie_term = float(np.sum(counts**3 - counts)) / (n_total * (n_total - 1.0))
    variance = n * m / 12.0 * ((n_total + 1.0) - tie_term)
    if variance <= 0.0:
        return u, 1.0
    z = max(abs(u - mu) - 0.5, 0.0) / math.sqrt(variance)
    return u, min(1.0, math.erfc(z / math.sqrt(2.0)))


# ---------------------------------------------------------------------------
# per-bin summaries
# ---------------------------------------------------------------------------

class BinStats(NamedTuple):
    label: str
    n: int
    mean: float | None
    density: np.ndarray | None  # on BinSummary.grid


class PairTest(NamedTuple):
    label_a: str
    label_b: str
    a2: float
    p_raw: float
    p_bonferroni: float


class BinSummary(NamedTuple):
    grid: np.ndarray | None  # None when no bin has samples
    bins: list[BinStats]
    tests: list[PairTest]
    notices: list[str]
    threads: int  # threads the pairwise tests ran on; 0 when none ran


def _p_bound(p: float, p_method: str, n_x: int, n_y: int, n_perm: int) -> str | None:
    """Say which bound of its method ``p`` sits at, if any: there the
    p-value shows only that the true one is at or beyond the bound."""
    if p_method == "table":
        if p == _AD_SIG[-1]:
            return f"the table floor {p}; the true p-value may be smaller"
        if p == _AD_SIG[0]:
            return f"the table ceiling {p}; the true p-value may be larger"
        return None
    n_splits = math.comb(n_x + n_y, n_x)
    if n_splits <= EXACT_SPLIT_LIMIT:
        if p == 1 / n_splits:
            return (f"the exhaustive floor 1/{n_splits}; no split of these sizes "
                    f"gives a smaller p-value")
        return None
    if p == 1 / (n_perm + 1):
        return (f"the Monte Carlo floor 1/{n_perm + 1}; no draw was as extreme, "
                f"so more draws may give a smaller p-value")
    return None


def bin_summary(
    bins: dict[str, list[float]],
    bandwidth: float = DEFAULT_BANDWIDTH,
    p_method: str = "table",
    n_perm: int = DEFAULT_N_PERM,
    seed: int = 0,
    threads: int | None = None,
) -> BinSummary:
    """Per-bin mean and density on a shared grid, plus pairwise AD tests.

    Pairwise tests run between every pair of bins holding at least two
    samples and are Bonferroni-corrected by the number of tests performed;
    smaller bins are reported but skipped with a notice. A test whose p_raw
    sits at a bound of its method (see ``_p_bound``) gets a notice too.

    Every setting is checked before any work, so a bad one raises
    DataFormatError even when no bin has a sample or no pair is testable.

    The pairs run concurrently on min(pairs, ``threads``) threads, where
    None means the usable CPUs and a count below 1 raises DataFormatError;
    numpy releases the GIL in each draw and statistic. The caller counts as
    one of the threads: it takes pairs from the same queue as ``threads - 1``
    helpers, so at ``threads=1`` every pair runs in the calling thread and
    no thread starts. Every pair owns its
    pooled sample and its own ``default_rng(seed)``, and results are stored
    by pair index, so no result depends on the thread count.
    """
    from concurrent.futures import ThreadPoolExecutor

    check_positive("bandwidth", bandwidth)
    _check_test_settings(p_method, n_perm, seed)
    if threads is not None and threads < 1:
        raise DataFormatError(f"threads must be at least 1, got {threads}")
    arrays = {label: np.asarray(samples, dtype=float) for label, samples in bins.items()}
    filled = [samples for samples in arrays.values() if samples.size]
    stats_rows: list[BinStats] = []
    notices: list[str] = []
    testable: list[str] = []
    # an overflow leaves a non-finite mean or density (through the grid), refused below
    with np.errstate(over="ignore", invalid="ignore"):
        grid = default_grid(np.concatenate(filled), bandwidth) if filled else None
        for label, samples in arrays.items():
            n = samples.size
            mean = float(np.mean(samples)) if n else None
            density = kde(samples, bandwidth, grid) if n else None
            if n and not (math.isfinite(mean) and np.isfinite(density).all()):
                raise OverflowError(f"bin {label!r}: the mean or density overflows "
                                    f"float64 at bandwidth {bandwidth}")
            stats_rows.append(BinStats(label=label, n=n, mean=mean, density=density))
            if n >= 2:
                testable.append(label)
            else:
                notices.append(f"bin {label!r} has {n} sample(s); tests skipped")
    pairs = list(itertools.combinations(testable, 2))
    tests: list[PairTest] = []
    threads = min(len(pairs), _parts.usable_cpus() if threads is None else threads)
    if pairs:
        raw: list = [None] * len(pairs)
        queue = iter(range(len(pairs)))  # shared: next() on a range iterator is atomic

        def drain() -> None:
            for i in queue:
                a, b = pairs[i]
                raw[i] = ad_test_2sample(arrays[a], arrays[b], p_method=p_method,
                                         n_perm=n_perm, seed=seed)

        # the executor starts a thread per submit only, so threads=1 starts none
        with ThreadPoolExecutor(max_workers=threads) as pool:
            helpers = [pool.submit(drain) for _ in range(threads - 1)]
            drain()
            for helper in helpers:
                helper.result()
        corrected = bonferroni([p for _, p in raw], len(pairs))
        tests = [PairTest(a, b, a2, p, pc)
                 for (a, b), (a2, p), pc in zip(pairs, raw, corrected)]
        for t in tests:
            bound = _p_bound(t.p_raw, p_method, arrays[t.label_a].size,
                             arrays[t.label_b].size, n_perm)
            if bound:
                notices.append(f"test {t.label_a!r} vs {t.label_b!r}: p_raw is {bound}")
    return BinSummary(grid=grid, bins=stats_rows, tests=tests, notices=notices,
                      threads=threads)
