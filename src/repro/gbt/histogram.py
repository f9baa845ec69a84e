"""Histogram pre-binning of feature matrices.

Split finding on binned features is the core trick of modern GBT systems
(XGBoost ``hist``, LightGBM): each feature column is quantized once into at
most ``max_bins`` ordered bins, after which split search reads per-bin
gradient/hessian sums (see :mod:`repro.gbt.tree`, which builds them for a
whole tree level at a time) instead of sorting.  Our feature columns have at
most 11 distinct values, so binning is lossless here, but the implementation
supports arbitrary continuous features via quantile binning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BinnedMatrix", "bin_matrix"]


@dataclass
class BinnedMatrix:
    """A feature matrix quantized to per-column ordered bins.

    Attributes
    ----------
    codes:
        ``(n_rows, n_features)`` int32 array of bin indices.
    thresholds:
        Per feature, the ascending array of split thresholds: splitting at
        bin ``b`` sends rows with ``code <= b`` left, and corresponds to the
        real-valued test ``x <= thresholds[b]``.
    n_bins:
        Per-feature bin counts (``len(thresholds[j]) + 1``).
    """

    codes: np.ndarray
    thresholds: list[np.ndarray]
    n_bins: np.ndarray

    @property
    def n_rows(self) -> int:
        return int(self.codes.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.codes.shape[1])

    def bin_new(self, x: np.ndarray) -> np.ndarray:
        """Quantize a new raw matrix with the stored thresholds."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise ValueError(
                f"expected (*, {self.n_features}) matrix, got {x.shape}"
            )
        out = np.empty(x.shape, dtype=np.int32)
        for j in range(self.n_features):
            out[:, j] = np.searchsorted(self.thresholds[j], x[:, j], side="left")
        return out


def bin_matrix(x: np.ndarray, max_bins: int = 64) -> BinnedMatrix:
    """Quantize ``x`` column-wise into at most ``max_bins`` ordered bins.

    Columns with few distinct values are binned losslessly at their exact
    midpoints; denser columns use quantile thresholds.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"feature matrix must be 2-D, got shape {x.shape}")
    if max_bins < 2:
        raise ValueError(f"max_bins must be >= 2, got {max_bins}")
    n_rows, n_features = x.shape
    codes = np.empty((n_rows, n_features), dtype=np.int32)
    thresholds: list[np.ndarray] = []
    n_bins = np.empty(n_features, dtype=np.int32)
    for j in range(n_features):
        col = x[:, j]
        uniq = np.unique(col)
        if uniq.size <= max_bins:
            thr = (uniq[:-1] + uniq[1:]) / 2.0 if uniq.size > 1 else np.empty(0)
        else:
            qs = np.quantile(col, np.linspace(0, 1, max_bins + 1)[1:-1])
            thr = np.unique(qs)
        thresholds.append(np.asarray(thr, dtype=float))
        codes[:, j] = np.searchsorted(thr, col, side="left")
        n_bins[j] = thr.size + 1
    return BinnedMatrix(codes=codes, thresholds=thresholds, n_bins=n_bins)
