import json
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ideadrift import pca
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
