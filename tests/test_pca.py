import json
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ideadrift import pca
from ideadrift.embed import CsrMatrix
from ideadrift.errors import DataFormatError
from ideadrift.pca import PcaModel, fit_pca, save_model, transform


def random_data(seed, n=40, d=6):
    rng = np.random.default_rng(seed)
    scales = np.geomspace(4.0, 0.05, d)
    return rng.normal(0, 1, (n, d)) * scales


class TestFitPca:
    def test_colinear_points_need_one_component(self):
        model = fit_pca(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]), 0.9)
        assert model.k == 1
        assert_allclose(model.components[0], [1 / np.sqrt(2), 1 / np.sqrt(2)],
                        atol=1e-12)

    def test_full_fraction_recovers_rank(self):
        data = random_data(0, n=30, d=5)
        model = fit_pca(data, 1.0)
        assert model.k == np.linalg.matrix_rank(data - data.mean(0))

    def test_square_has_two_equal_halves(self):
        # centered square corners: covariance diag(4/3, 4/3), each axis 50%
        data = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
        model = fit_pca(data, 0.9)
        assert model.k == 2
        assert_allclose(model.explained_variance, [4 / 3, 4 / 3], rtol=1e-12)

    def test_variance_fraction_respected_with_minimal_k(self):
        data = random_data(3)
        total = np.var(data, axis=0, ddof=1).sum()
        for fraction in (0.3, 0.6, 0.9, 0.99):
            model = fit_pca(data, fraction)
            assert model.explained_variance.sum() / total >= fraction - 1e-9
            if model.k > 1:
                assert model.explained_variance[:-1].sum() / total < fraction

    def test_matches_covariance_eigenvalues(self):
        data = random_data(4, n=60, d=5)
        model = fit_pca(data, 1.0)
        eigvals = np.sort(np.linalg.eigvalsh(np.cov(data.T)))[::-1]
        assert_allclose(model.explained_variance, eigvals[:model.k], rtol=1e-9)

    def test_rows_orthonormal(self):
        model = fit_pca(random_data(5), 1.0)
        gram = model.components @ model.components.T
        assert_allclose(gram, np.eye(model.k), atol=1e-9)

    def test_sign_convention(self):
        model = fit_pca(random_data(6), 1.0)
        for row in model.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_explained_variance_non_increasing(self):
        model = fit_pca(random_data(7), 1.0)
        assert np.all(np.diff(model.explained_variance) <= 1e-12)

    def test_deterministic(self):
        data = random_data(8)
        m1, m2 = fit_pca(data, 0.8), fit_pca(data, 0.8)
        assert np.array_equal(m1.components, m2.components)

    def test_too_few_rows_fatal(self):
        with pytest.raises(DataFormatError):
            fit_pca(np.ones((1, 3)), 0.9)

    def test_no_columns_fatal(self):
        with pytest.raises(DataFormatError, match="column"):
            fit_pca(np.ones((4, 0)), 0.9)

    def test_bad_fraction_fatal(self):
        with pytest.raises(DataFormatError):
            fit_pca(np.ones((4, 3)), 0.0)

    def test_zero_variance_degenerates_to_single_component(self):
        model = fit_pca(np.ones((5, 3)), 0.9)
        assert model.k == 1
        assert_allclose(model.explained_variance, [0.0])
        assert_allclose(np.linalg.norm(model.components[0]), 1.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_total_variance_is_the_data_variance(self, seed):
        data = random_data(seed) + 1e3
        model = fit_pca(data, 0.5)
        assert model.total_variance == pytest.approx(
            float(np.var(data, axis=0, ddof=1).sum()), rel=1e-9)
        assert fit_pca(np.ones((3, 2)), 0.9).total_variance == 0.0


def svd_fit(data, fraction):
    """fit_pca's rule applied to a direct SVD of the centered matrix."""
    n = len(data)
    _, singular, vt = np.linalg.svd(data - data.mean(0), full_matrices=False)
    variances = singular**2 / (n - 1)
    total = variances.sum()
    if total <= 0.0:
        return np.eye(1, data.shape[1]), np.zeros(1)
    keep = variances > variances[0] * 1e-12
    rows, variances = pca._sort_ties(pca._fix_signs(vt[keep]), variances[keep])
    k = int(np.searchsorted(np.cumsum(variances), fraction * total * (1.0 - 1e-12)) + 1)
    k = min(k, len(variances))
    return rows[:k], variances[:k]


def sort_ties_loop(components, variances):
    """The group rule with one ``np.isclose`` call per row, as ``_sort_ties``
    once found it: each row joins the group of the last row that opened one
    when its variance is close to that row's."""
    start, group = 0, []
    for i, variance in enumerate(variances):
        if not np.isclose(variance, variances[start], rtol=pca._EV_TIE_RTOL, atol=1e-15):
            start = i
        group.append(start)
    order = np.lexsort((*components.T[::-1], group))
    return components[order], variances[order]


class TestSortTies:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_isclose_loop(self, seed):
        rng = np.random.default_rng(seed)
        # descending groups: exact ties, steps within 1e-9 relative of the
        # group's first value (a chain of them drifts past it), values near
        # the absolute tolerance 1e-15, zeros, and lone values
        values = []
        for top in np.sort(rng.uniform(1e-3, 1e3, 8))[::-1]:
            kind = rng.integers(4)
            if kind == 0:
                values += [top] * int(rng.integers(2, 4))
            elif kind == 1:
                values += list(top * (1.0 - 4e-10 * np.arange(int(rng.integers(2, 6)))))
            elif kind == 2:
                values.append(top)
            else:
                values += [top, np.nextafter(top, 0.0)]
        values += [2e-15, 1.5e-15, 1e-15, 0.5e-15, 0.0, 0.0]
        variances = np.array(values)
        components = rng.integers(-1, 2, (variances.size, 3)).astype(float)
        got = pca._sort_ties(components, variances)
        want = sort_ties_loop(components, variances)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()

    def test_groups_start_at_their_first_row(self):
        # 1.0 - 1.4e-9 is within 1e-9 of 1.0 - 7e-10 but not of 1.0, the
        # row that opened the group, so it opens a group of its own
        variances = np.array([1.0, 1.0 - 7e-10, 1.0 - 1.4e-9, 1.0 - 1.4e-9])
        components = np.array([[3.0], [2.0], [1.0], [0.0]])
        rows, _ = pca._sort_ties(components, variances)
        assert rows[:, 0].tolist() == [2.0, 3.0, 0.0, 1.0]


class TestStreamedQr:
    # a budget of 36 values over 6 columns folds in 6-row blocks
    @pytest.mark.parametrize(("n", "d", "budget"), [
        (5, 8, 1 << 17),     # n < D: R has n rows
        (8, 8, 1 << 17),     # n = D
        (22, 6, 36),         # 4 blocks of 6 rows, the last one 4 rows, shorter than D
        (40, 6, 36),         # 7 blocks
        (2000, 300, 1 << 17),  # the real budget: 436-row blocks, 5 of them
    ], ids=["n-below-d", "n-equals-d", "short-tail-block", "many-blocks", "real-budget"])
    @pytest.mark.parametrize("fraction", [0.6, 1.0])
    def test_matches_direct_svd(self, monkeypatch, n, d, budget, fraction):
        monkeypatch.setattr(pca, "_QR_VALUES", budget)
        data = random_data(20 + n, n=n, d=d) + 100.0
        self.assert_same_fit(data, fraction)

    @pytest.mark.parametrize("fraction", [0.6, 1.0])
    def test_rank_deficient_matches_direct_svd(self, monkeypatch, fraction):
        monkeypatch.setattr(pca, "_QR_VALUES", 48)
        rng = np.random.default_rng(21)
        data = rng.normal(0, 1, (30, 3)) @ rng.normal(0, 1, (3, 8)) + 5.0
        model = self.assert_same_fit(data, fraction)
        assert model.k <= 3

    def test_constant_data_matches_direct_svd(self, monkeypatch):
        monkeypatch.setattr(pca, "_QR_VALUES", 9)
        model = self.assert_same_fit(np.full((10, 3), 2.5), 0.9)
        assert_allclose(model.components, [[1.0, 0.0, 0.0]])

    @staticmethod
    def assert_same_fit(data, fraction):
        model = fit_pca(data, fraction)
        rows, variances = svd_fit(data, fraction)
        assert model.k == len(variances)
        assert_allclose(model.components, rows, rtol=0, atol=1e-10)
        assert_allclose(model.explained_variance, variances, rtol=1e-12, atol=0)
        return model

    def test_peak_memory_below_half_the_matrix(self):
        data = np.random.default_rng(22).normal(0, 1, (20_000, 50))
        tracemalloc.start()
        try:
            fit_pca(data, 0.9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < data.nbytes / 2


class TestTransform:
    def test_mean_maps_to_zero(self):
        data = random_data(9)
        model = fit_pca(data, 0.9)
        assert_allclose(transform(model, data.mean(0)), np.zeros(model.k),
                        atol=1e-12)

    def test_colinear_projection_value(self):
        model = fit_pca(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]), 0.9)
        assert_allclose(transform(model, np.array([2.0, 2.0])), [np.sqrt(2)],
                        rtol=1e-12)

    def test_full_rank_preserves_pairwise_distances(self):
        data = random_data(10, n=20, d=4)
        model = fit_pca(data, 1.0)
        assert model.k == 4
        reduced = transform(model, data)
        for i in range(0, 20, 3):
            for j in range(1, 20, 4):
                orig = np.linalg.norm(data[i] - data[j])
                new = np.linalg.norm(reduced[i] - reduced[j])
                assert new == pytest.approx(orig, rel=1e-9)

    def test_projection_never_expands_distances(self):
        data = random_data(11, n=25, d=6)
        model = fit_pca(data, 0.5)
        reduced = transform(model, data)
        for i in range(0, 25, 2):
            for j in range(1, 25, 3):
                orig = np.linalg.norm(data[i] - data[j])
                new = np.linalg.norm(reduced[i] - reduced[j])
                assert new <= orig + 1e-9

    def test_reconstruction_with_all_components(self):
        data = random_data(12, n=30, d=5)
        model = fit_pca(data, 1.0)
        for v in data[:10]:
            rebuilt = model.mean + model.components.T @ transform(model, v)
            assert np.linalg.norm(rebuilt - v) <= 1e-9 * (1 + np.linalg.norm(v))

    def test_dimension_mismatch_fatal(self):
        model = fit_pca(random_data(13), 0.9)
        with pytest.raises(DataFormatError):
            transform(model, np.zeros(model.dim + 1))


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        model = fit_pca(random_data(14), 0.9)
        path = tmp_path / "pca.json"
        save_model(model, path)
        with open(path, encoding="utf-8") as fh:
            loaded = json.load(fh)
        assert_allclose(loaded["mean"], model.mean)
        assert_allclose(loaded["components"], model.components)
        assert_allclose(loaded["explained_variance"], model.explained_variance)

    def test_golden_bytes(self, tmp_path):
        model = PcaModel(mean=np.array([0.1 + 0.2, -0.0]),
                         components=np.array([[1.0, -0.0], [0.0, 1.0]]),
                         explained_variance=np.array([1e16, 5e-324]))
        path = tmp_path / "pca.json"
        save_model(model, path)
        assert path.read_bytes() == (
            b'{"mean": [0.30000000000000004, -0.0], '
            b'"components": [[1.0, -0.0], [0.0, 1.0]], '
            b'"explained_variance": [1e+16, 5e-324]}\n')


def sparse_data(seed, n, d, density=0.15):
    """A mostly-zero n x d matrix with a stored -0.0 and an all-zero row."""
    rng = np.random.default_rng(seed)
    data = np.where(rng.random((n, d)) < density, rng.standard_normal((n, d)), 0.0)
    data[0] = 0.0
    data[0, d // 2] = -0.0
    data[n // 2] = 0.0
    return data


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def full_fit_reference(data):
    """The mean and R factor as one dense matrix gives them: ``mean(axis=0)``
    and the fold over ``data[start:start + rows] - mean``."""
    n, d = data.shape
    mean = data.mean(axis=0)
    rows = max(d, pca._QR_VALUES // d)
    r = np.empty((0, d))
    for start in range(0, n, rows):
        r = np.linalg.qr(np.concatenate((r, data[start:start + rows] - mean)), mode="r")
    return mean, r


class TestCsrAgainstDense:
    """A CsrMatrix fits and projects bit for bit as its dense matrix does,
    and the dense path as one full matrix does."""

    @pytest.fixture(params=[(2, 3), (7, 5), (40, 5), (41, 5), (97, 5), (300, 1)],
                    ids=["two-rows", "below-one-block", "two-blocks", "one-row-tail",
                         "many-blocks", "one-column"])
    def shape(self, request, monkeypatch):
        # 40 values a block: 8 rows of 5 columns, so 41 rows end in one row
        monkeypatch.setattr(pca, "_QR_VALUES", 40)
        return request.param

    def test_fit(self, shape):
        data = sparse_data(sum(shape), *shape)
        mean, r = full_fit_reference(data)
        csr = CsrMatrix.from_dense(data)
        assert same_bits(pca._column_means(csr, *shape), mean)
        assert same_bits(pca._column_means(data, *shape), mean)
        assert same_bits(pca._centered_r(csr, mean), r)
        dense_model, csr_model = fit_pca(data, 0.9), fit_pca(csr, 0.9)
        for field in ("mean", "components", "explained_variance"):
            assert same_bits(getattr(csr_model, field), getattr(dense_model, field))
        assert same_bits(dense_model.mean, mean)
        assert csr_model.total_variance == dense_model.total_variance
        assert same_bits(transform(csr_model, csr), transform(dense_model, data))

    def test_all_zero_rows(self):
        data = np.zeros((6, 4))
        data[2, 1] = 3.0
        model = fit_pca(CsrMatrix.from_dense(data), 1.0)
        assert same_bits(model.mean, data.mean(axis=0))
        assert same_bits(transform(model, CsrMatrix.from_dense(data)), transform(model, data))


def orthonormal(seed, k, d):
    return np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))[0][:k]


class TestBlockedProjection:
    @pytest.mark.parametrize("d, k", [(5, 1), (5, 3), (24, 2), (24, 24), (300, 2),
                                      (300, 5), (300, 59), (300, 300)])
    def test_bitwise_the_full_product(self, d, k):
        model = PcaModel(np.random.default_rng(d).standard_normal(d), orthonormal(k, k, d),
                         np.ones(k))
        rows = pca._projection_blocks(10**9, d, k)[0].stop
        rng = np.random.default_rng(k)
        for n in sorted({1, 2, 3, rows - 1, rows, rows + 1, 2 * rows - 1, 2 * rows + 1,
                         3 * rows + 7}):
            data = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-3, 3, (n, 1))
            assert same_bits(transform(model, data), (data - model.mean) @ model.components.T), n

    @pytest.mark.parametrize("n", [0, 1, 431, 432, 433, 864, 865, 1000])
    def test_blocks_cover_the_rows_once(self, n):
        blocks = pca._projection_blocks(n, 300, 59)
        assert [i for b in blocks for i in range(n)[b]] == list(range(n))
        assert all(b.stop - b.start >= 432 for b in blocks[:-1])
        assert n < 432 or blocks[-1].stop - blocks[-1].start >= 432

    def test_peak_memory_below_output_plus_half_the_matrix(self):
        data = np.random.default_rng(23).normal(0, 1, (20_000, 50))
        model = fit_pca(data, 0.9)
        tracemalloc.start()
        try:
            reduced = transform(model, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < reduced.nbytes + data.nbytes / 2
