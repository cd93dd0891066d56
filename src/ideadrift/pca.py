"""Principal component analysis sized by a target explained-variance fraction."""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import NamedTuple

from ._np import np
from .errors import DataFormatError

_EV_TIE_RTOL = 1e-9
# values in one centered row block (at least D rows), as cloud._CHUNK_VALUES;
# np.linalg.qr factors a copy of the stacked R and block, so a fold holds two
_QR_VALUES = 1 << 17


class PcaModel(NamedTuple):
    """Mean vector plus k orthonormal component rows and their variances,
    and the total variance of the data the model was fitted on."""

    mean: np.ndarray
    components: np.ndarray        # k x D, orthonormal rows
    explained_variance: np.ndarray  # length k, non-increasing
    total_variance: float = 0.0     # of the fitted data; save_model does not write it

    @property
    def k(self) -> int:
        return self.components.shape[0]

    @property
    def dim(self) -> int:
        return self.components.shape[1]


def _fix_signs(components: np.ndarray) -> np.ndarray:
    """Flip each row so its largest-magnitude entry is positive."""
    pivots = components[np.arange(len(components)), np.argmax(np.abs(components), axis=1)]
    return components * np.where(pivots < 0, -1.0, 1.0)[:, None]


def _sort_ties(components: np.ndarray, variances: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Within groups of (near-)equal variances, order rows lexicographically.
    A group runs from its first row through each next row whose variance is
    close to that first row's."""
    start, group = 0, []  # per row, the index of its group's first row
    for i, variance in enumerate(variances):
        if not np.isclose(variance, variances[start], rtol=_EV_TIE_RTOL, atol=1e-15):
            start = i
        group.append(start)
    # lexsort's last key is its first: by group, then column by column
    order = np.lexsort((*components.T[::-1], group))
    return components[order], variances[order]


def _centered_r(data: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """The R factor of ``data - mean``, at most D x D, from a QR that folds
    one centered row block at a time into the R so far. It has the singular
    values and right singular vectors of the centered data, and no temporary
    grows with the row count."""
    n, d = data.shape
    rows = max(d, _QR_VALUES // d)
    r = np.empty((0, d))
    for start in range(0, n, rows):
        r = np.linalg.qr(np.concatenate((r, data[start:start + rows] - mean)), mode="r")
    return r


def fit_pca(data: np.ndarray, variance_fraction: float) -> PcaModel:
    """Fit PCA on an n x D matrix, keeping the fewest components whose
    cumulative explained variance reaches ``variance_fraction`` of the total.

    Covariance uses 1/(n-1) normalization; components come from the SVD of
    the R factor of the centered data (see ``_centered_r``), sign-fixed and
    deterministically ordered. Data with zero total variance yields a single
    zero-variance component.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise DataFormatError("data must be a 2-D matrix")
    n, d = data.shape
    if n < 2:
        raise DataFormatError(f"need at least 2 rows to fit, got {n}")
    if d < 1:
        raise DataFormatError("data needs at least one column")
    if not (0.0 < variance_fraction <= 1.0):
        raise DataFormatError(f"variance_fraction must be in (0, 1], got {variance_fraction}")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        mean = data.mean(axis=0)
        r = _centered_r(data, mean)
    if not np.isfinite(r).all():
        raise OverflowError("the centered data overflow float64")
    _, singular, vt = np.linalg.svd(r, full_matrices=False)
    with np.errstate(over="ignore"):
        variances = singular**2 / (n - 1)
        total = float(variances.sum())
    if not math.isfinite(total):
        raise OverflowError("the total variance overflows float64")
    if total <= 0.0:
        components = np.zeros((1, d))
        components[0, 0] = 1.0
        return PcaModel(mean=mean, components=components,
                        explained_variance=np.zeros(1), total_variance=total)
    # drop numerically-zero directions so fraction=1.0 recovers the rank
    keep = variances > variances[0] * 1e-12
    variances = variances[keep]
    rows = _fix_signs(vt[keep])
    rows, variances = _sort_ties(rows, variances)
    cumulative = np.cumsum(variances)
    threshold = variance_fraction * total * (1.0 - 1e-12)
    k = int(np.searchsorted(cumulative, threshold) + 1)
    k = min(k, len(variances))
    return PcaModel(mean=mean, components=rows[:k].copy(),
                    explained_variance=variances[:k].copy(), total_variance=total)


def transform(model: PcaModel, vectors: np.ndarray) -> np.ndarray:
    """Project a D-vector (or n x D matrix) onto the model's components."""
    vectors = np.asarray(vectors, dtype=float)
    if vectors.shape[-1] != model.dim:
        raise DataFormatError(
            f"vector dimension {vectors.shape[-1]} != model dimension {model.dim}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        projected = (vectors - model.mean) @ model.components.T
    if not np.isfinite(projected).all():
        raise OverflowError("the projected vectors overflow float64")
    return projected


def save_model(model: PcaModel, path: str | Path) -> None:
    payload = {
        "mean": model.mean.tolist(),
        "components": model.components.tolist(),
        "explained_variance": model.explained_variance.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload) + "\n")
