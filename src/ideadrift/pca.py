"""Principal component analysis sized by a target explained-variance fraction."""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import NamedTuple

from ._np import np
from .embed import dense_rows
from .errors import DataFormatError

_EV_TIE_RTOL = 1e-9
# values in one centered row block (at least D rows), as cloud._CHUNK_VALUES;
# np.linalg.qr factors a copy of the stacked R and block, so a fold holds two
_QR_VALUES = 1 << 17
# ``transform`` projects blocks of about _QR_VALUES values, in a multiple of
# _ROW_GROUP rows and of at least _MIN_OUT_VALUES output values, and the
# last block takes the short tail. So BLAS takes every row through the
# kernel the one full product takes it through: OpenBLAS 0.3 forms output
# rows in groups of up to 24, hands a product of at most 1,200 outputs to a
# small-matrix kernel, and numpy sends a one-row product to gemv.
_ROW_GROUP = 24
_MIN_OUT_VALUES = 2048


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


def _column_means(data, n: int, d: int) -> np.ndarray:
    """``data.mean(axis=0)``, bit for bit, a fold block at a time: numpy adds
    the rows of a C-ordered matrix one after another from 0.0, and the sums
    so far are the first row of each next block. A single column numpy adds
    pairwise, so it is one block."""
    rows = n if d == 1 else max(d, _QR_VALUES // d)
    sums = None
    for start in range(0, n, rows):
        block = dense_rows(data, slice(start, start + rows))
        sums = np.add.reduce(block if sums is None else np.concatenate((sums, block)),
                             axis=0, keepdims=True)
    return sums[0] / n


def _centered_r(data, mean: np.ndarray) -> np.ndarray:
    """The R factor of ``data - mean``, at most D x D, from a QR that folds
    one centered row block at a time into the R so far. It has the singular
    values and right singular vectors of the centered data, and no temporary
    grows with the row count."""
    n, d = np.shape(data)
    rows = max(d, _QR_VALUES // d)
    r = np.empty((0, d))
    for start in range(0, n, rows):
        block = dense_rows(data, slice(start, start + rows))
        r = np.linalg.qr(np.concatenate((r, block - mean)), mode="r")
    return r


def fit_pca(data, variance_fraction: float) -> PcaModel:
    """Fit PCA on an n x D matrix, a float64 array or an ``embed.CsrMatrix``
    (read through ``embed.dense_rows``), keeping the fewest components whose
    cumulative explained variance reaches ``variance_fraction`` of the total.

    Covariance uses 1/(n-1) normalization; components come from the SVD of
    the R factor of the centered data (see ``_centered_r``), sign-fixed and
    deterministically ordered. Data with zero total variance yields a single
    zero-variance component.
    """
    if np.ndim(data) != 2:
        raise DataFormatError("data must be a 2-D matrix")
    n, d = np.shape(data)
    if n < 2:
        raise DataFormatError(f"need at least 2 rows to fit, got {n}")
    if d < 1:
        raise DataFormatError("data needs at least one column")
    if not (0.0 < variance_fraction <= 1.0):
        raise DataFormatError(f"variance_fraction must be in (0, 1], got {variance_fraction}")
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        mean = _column_means(data, n, d)
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


def transform(model: PcaModel, vectors) -> np.ndarray:
    """Project a D-vector, or an n x D matrix read as ``fit_pca`` reads it,
    onto the model's components.

    A matrix is centered and projected a block of rows at a time into one
    n x k output, so the only other temporaries are a block and its
    centered copy; the blocks are cut so that the result is bitwise the
    full product ``(vectors - mean) @ components.T`` (see ``_ROW_GROUP``).
    """
    shape = np.shape(vectors)
    if shape[-1] != model.dim:
        raise DataFormatError(
            f"vector dimension {shape[-1]} != model dimension {model.dim}"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        if len(shape) == 1:
            projected = (np.asarray(vectors, dtype=float) - model.mean) @ model.components.T
        else:
            projected = np.empty((shape[0], model.k))
            for rows in _projection_blocks(shape[0], model.dim, model.k):
                np.matmul(dense_rows(vectors, rows) - model.mean, model.components.T,
                          out=projected[rows])
    if not np.isfinite(projected).all():
        raise OverflowError("the projected vectors overflow float64")
    return projected


def _projection_blocks(n: int, d: int, k: int) -> list[slice]:
    """Rows [0, n) cut into the blocks ``transform`` projects: of
    ``rows`` rows each (see ``_ROW_GROUP``), the last taking the rest."""
    rows = _ROW_GROUP * max(1, _QR_VALUES // (_ROW_GROUP * d),
                            -(-_MIN_OUT_VALUES // (_ROW_GROUP * k)))
    starts = range(0, n, rows)[:max(1, n // rows)]
    return [slice(start, stop) for start, stop in zip(starts, [*starts[1:], n])]


def save_model(model: PcaModel, path: str | Path) -> None:
    """Write the model as ``json.dumps`` writes its mean, components and
    explained variance, one component row at a time, so that no k x D list
    of floats or its text is built."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"mean": %s, "components": [' % json.dumps(model.mean.tolist()))
        for i, row in enumerate(model.components):
            fh.write(", " * bool(i) + json.dumps(row.tolist()))
        fh.write('], "explained_variance": %s}\n' % json.dumps(model.explained_variance.tolist()))
