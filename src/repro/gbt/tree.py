"""Second-order regression trees on histogram-binned features.

Each tree is grown greedily: a node's best split maximizes the XGBoost
gain

.. math::

    \\tfrac12\\Big(\\frac{G_L^2}{H_L+\\lambda} + \\frac{G_R^2}{H_R+\\lambda}
      - \\frac{G^2}{H+\\lambda}\\Big) - \\gamma

over all (feature, bin) pairs, computed from gradient/hessian/count
histograms.  Growth is level-wise, as in XGBoost's and LightGBM's ``hist``
methods: one row-order array is stably partitioned so each node's rows are
a contiguous slice, and one ``bincount`` per statistic builds the
histograms of every open node and feature of a level at once.  The split
chosen and the floating-point sums are those of a per-node, per-feature
scan, and nodes are renumbered into that scan's depth-first order, so the
trees are bit-identical to it.  Leaf weights are the regularized Newton
step ``-G / (H + lambda)``.  The tree is stored in flat arrays and
prediction walks all rows level-by-level, fully vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelNotFittedError
from repro.gbt.histogram import BinnedMatrix

__all__ = ["TreeParams", "RegressionTree"]


@dataclass(frozen=True)
class TreeParams:
    """Growth constraints and regularization for one tree."""

    max_depth: int = 6
    min_samples_leaf: int = 1
    min_child_weight: float = 1e-3
    reg_lambda: float = 1.0
    gamma: float = 0.0

    def __post_init__(self):
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        if self.min_samples_leaf < 1:
            raise ValueError(
                f"min_samples_leaf must be >= 1, got {self.min_samples_leaf}"
            )
        if self.reg_lambda < 0 or self.gamma < 0:
            raise ValueError("reg_lambda and gamma must be non-negative")


class RegressionTree:
    """One histogram-split regression tree (used as a boosting weak learner).

    Not fitted at construction; call :meth:`fit` with binned features and
    per-row gradients/hessians.
    """

    def __init__(self, params: TreeParams | None = None):
        self.params = params or TreeParams()
        # Flat tree arrays; children == -1 marks a leaf.
        self.feature: np.ndarray | None = None
        self.bin_threshold: np.ndarray | None = None
        self.value_threshold: np.ndarray | None = None
        self.left: np.ndarray | None = None
        self.right: np.ndarray | None = None
        self.leaf_value: np.ndarray | None = None
        #: Leaf reached by each training row in the last fit (-1 for rows
        #: outside ``rows``); lets boosting skip re-walking the tree.
        self.train_leaf: np.ndarray | None = None
        self.n_nodes = 0

    # ------------------------------------------------------------------ #
    def fit(
        self,
        binned: BinnedMatrix,
        grad: np.ndarray,
        hess: np.ndarray,
        rows: np.ndarray | None = None,
        feature_mask: np.ndarray | None = None,
    ) -> "RegressionTree":
        """Grow the tree on ``rows`` (all rows when ``None``).

        Parameters
        ----------
        binned:
            Quantized training features.
        grad, hess:
            First/second-order loss derivatives per training row.
        rows:
            Row subset to train on (row subsampling hook).
        feature_mask:
            Boolean mask of features eligible for splitting
            (column-subsampling hook).

        Sets :attr:`train_leaf`.  Raises ``ValueError`` when ``rows``
        holds an index outside ``[0, n_rows)`` or ``feature_mask`` is not
        one flag per feature.
        """
        grad = np.asarray(grad, dtype=float)
        hess = np.asarray(hess, dtype=float)
        if grad.shape != hess.shape or grad.ndim != 1:
            raise ValueError("grad and hess must be equal-length 1-D arrays")
        n_rows, n_features = binned.n_rows, binned.n_features
        if grad.shape[0] != n_rows:
            raise ValueError("grad length must match binned matrix rows")
        if rows is None:
            rows = np.arange(n_rows, dtype=np.int64)
        else:
            rows = np.asarray(rows, dtype=np.int64)
            if rows.ndim != 1:
                raise ValueError("rows must be a 1-D array of row indices")
            if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
                raise ValueError(f"rows must lie in [0, {n_rows})")
        if feature_mask is None:
            feature_mask = np.ones(n_features, dtype=bool)
        else:
            feature_mask = np.asarray(feature_mask, dtype=bool)
            if feature_mask.shape != (n_features,):
                raise ValueError(
                    f"feature_mask must have shape ({n_features},), "
                    f"got {feature_mask.shape}"
                )

        p = self.params
        lam = p.reg_lambda
        # Candidate features, and the bin count every histogram pads to.
        feats = np.flatnonzero(feature_mask & (binned.n_bins >= 2))
        n_f = feats.size
        width = int(binned.n_bins[feats].max()) if n_f else 1
        # Feature-major codes offset to ``feature * width + code``, and
        # key/weight buffers sized for the root level, reused by every
        # level (fresh ~n_f * n temporaries per level cost page faults).
        offset_codes = np.ascontiguousarray(
            binned.codes[:, feats].T + (np.arange(n_f) * width)[:, None],
            dtype=np.intp,
        )
        key_buf = np.empty(n_f * rows.size, dtype=np.intp)
        weight_buf = np.empty(n_f * rows.size)

        # Nodes are numbered level by level while growing; children == -1
        # marks a leaf.
        feature: list[int] = [-1]
        bin_thr: list[int] = [-1]
        left: list[int] = [-1]
        leaf: list[float] = [0.0]
        train_leaf = np.full(n_rows, -1, dtype=np.int32)
        # The rows of the level's nodes, each node's rows one contiguous
        # slice in the order a per-node recursion would hold them.
        order = rows
        ids = np.zeros(1, dtype=np.int64)
        sizes = np.array([rows.size], dtype=np.int64)
        depth = 1
        while ids.size:
            g, h = grad[order], hess[order]
            g_sum = np.empty(ids.size)
            h_sum = np.empty(ids.size)
            grow = np.zeros(ids.size, dtype=bool)
            s = 0
            for i, node in enumerate(ids):
                e = s + sizes[i]
                # Slice sums keep numpy's pairwise summation order.
                gs, hs = float(g[s:e].sum()), float(h[s:e].sum())
                g_sum[i], h_sum[i] = gs, hs
                leaf[node] = -gs / (hs + lam)
                grow[i] = not (
                    depth > p.max_depth
                    or e - s < 2 * p.min_samples_leaf
                    or hs < 2 * p.min_child_weight
                    or n_f == 0
                )
                s = e

            if grow.any():
                k = np.flatnonzero(grow)
                in_k = np.repeat(grow, sizes)
                k_rows = order[in_k]
                m = k_rows.size
                node_of = np.repeat(np.arange(k.size), sizes[k])
                # Every (node, feature, bin) histogram of the level at once,
                # keyed ``(node * n_f + feature) * width + code``; each key's
                # rows are summed in node-row order, as per-node passes do.
                keys = key_buf[: n_f * m]
                np.take(offset_codes, k_rows, axis=1, out=keys.reshape(n_f, m))
                keys.reshape(n_f, m)[:] += node_of * (n_f * width)
                weights = weight_buf[: n_f * m]
                n_keys = k.size * n_f * width
                shape = (k.size, n_f, width)
                weights.reshape(n_f, m)[:] = g[in_k]
                g_hist = np.bincount(keys, weights=weights, minlength=n_keys)
                weights.reshape(n_f, m)[:] = h[in_k]
                h_hist = np.bincount(keys, weights=weights, minlength=n_keys)
                c_hist = np.bincount(keys, minlength=n_keys)
                gl = np.cumsum(g_hist.reshape(shape), axis=2)[:, :, :-1]
                hl = np.cumsum(h_hist.reshape(shape), axis=2)[:, :, :-1]
                cl = np.cumsum(c_hist.reshape(shape), axis=2)[:, :, :-1]
                gs = g_sum[k][:, None, None]
                hs = h_sum[k][:, None, None]
                gr = gs - gl
                hr = hs - hl
                cr = sizes[k][:, None, None] - cl
                # Padding bins past a feature's last bin hold no rows, so
                # their right side is empty and min_samples_leaf rejects it.
                valid = (
                    (cl >= p.min_samples_leaf)
                    & (cr >= p.min_samples_leaf)
                    & (hl >= p.min_child_weight)
                    & (hr >= p.min_child_weight)
                )
                parent_score = gs * gs / (hs + lam)
                with np.errstate(divide="ignore", invalid="ignore"):
                    gain = np.where(
                        valid,
                        0.5
                        * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent_score)
                        - p.gamma,
                        -np.inf,
                    )
                # Skip a feature whose gains hold a NaN, as a per-feature
                # scan does: its argmax stops at the NaN, which is not > 0.
                gain[np.isnan(gain).any(axis=2)] = -np.inf
                # First-occurrence argmax over (feature, bin): the lowest
                # feature wins a tie, then its lowest bin.
                gain = gain.reshape(k.size, -1)
                best = gain.argmax(axis=1)
                wins = gain[np.arange(k.size), best] > 0.0
                grow[k[~wins]] = False
                best_f = best // (width - 1)
                best_b = best % (width - 1)

                # Stable partition of the splitting nodes' rows: left rows
                # then right rows of each node, in their current order.
                keep = wins[node_of]
                at = node_of[keep]
                kept = k_rows[keep]
                split_key = (best_f * width + best_b)[at]
                go_right = offset_codes.ravel()[best_f[at] * n_rows + kept] > split_key
                next_order = kept[np.lexsort((go_right, at))]
                rank = np.cumsum(wins) - 1
                next_sizes = np.bincount(
                    2 * rank[at] + go_right, minlength=2 * int(wins.sum())
                )
                first = len(leaf)
                for j, (node, f, b) in enumerate(
                    zip(ids[k[wins]], feats[best_f[wins]], best_b[wins])
                ):
                    feature[node], bin_thr[node] = int(f), int(b)
                    left[node] = first + 2 * j
                next_ids = np.arange(first, first + next_sizes.size)
                feature += [-1] * next_sizes.size
                bin_thr += [-1] * next_sizes.size
                left += [-1] * next_sizes.size
                leaf += [0.0] * next_sizes.size
            else:
                next_order = order[:0]
                next_ids = ids[:0]
                next_sizes = sizes[:0]

            done = ~grow
            train_leaf[order[np.repeat(done, sizes)]] = np.repeat(
                ids[done], sizes[done]
            )
            order, ids, sizes = next_order, next_ids, next_sizes
            depth += 1

        self._store(binned, feature, bin_thr, left, leaf, train_leaf)
        return self

    def _store(self, binned, feature, bin_thr, left, leaf, train_leaf) -> None:
        """Renumber level-order nodes into depth-first order and store them.

        Nodes get the ids a depth-first stack that pushes the left child,
        then the right one, would hand out: a split node's children take
        the next two ids when it is popped, so the right child's
        descendants are numbered before the left child's.  ``left`` holds
        level-order ids; a right child always directly follows its left
        sibling.
        """
        n = len(leaf)
        new = np.zeros(n, dtype=np.int32)
        next_id = 1
        stack = [0]
        while stack:
            node = stack.pop()
            child = left[node]
            if child >= 0:
                new[child], new[child + 1] = next_id, next_id + 1
                next_id += 2
                stack += [child, child + 1]

        def place(values, dtype):
            out = np.empty(n, dtype=dtype)
            out[new] = values
            return out

        lft = np.asarray(left)
        is_split = lft >= 0
        kids = np.where(is_split, new[lft], -1)
        self.feature = place(feature, np.int32)
        self.bin_threshold = place(bin_thr, np.int32)
        self.left = place(kids, np.int32)
        self.right = place(np.where(is_split, kids + 1, -1), np.int32)
        self.leaf_value = place(leaf, float)
        self.value_threshold = place(
            [
                float(binned.thresholds[f][b]) if f >= 0 else np.nan
                for f, b in zip(feature, bin_thr)
            ],
            float,
        )
        self.n_nodes = n
        self.train_leaf = np.where(train_leaf >= 0, new[train_leaf], -1)

    # ------------------------------------------------------------------ #
    def _check_fitted(self) -> None:
        if self.feature is None:
            raise ModelNotFittedError("RegressionTree used before fit()")

    def predict_binned(self, codes: np.ndarray) -> np.ndarray:
        """Predict for rows quantized with the training thresholds."""
        self._check_fitted()
        codes = np.asarray(codes)
        node = np.zeros(codes.shape[0], dtype=np.int32)
        active = self.feature[node] >= 0
        while active.any():
            idx = np.nonzero(active)[0]
            nd = node[idx]
            f = self.feature[nd]
            go_left = codes[idx, f] <= self.bin_threshold[nd]
            node[idx] = np.where(go_left, self.left[nd], self.right[nd])
            active = self.feature[node] >= 0
        return self.leaf_value[node]

    def predict_raw(self, x: np.ndarray) -> np.ndarray:
        """Predict for raw (unbinned) feature rows via value thresholds."""
        self._check_fitted()
        x = np.asarray(x, dtype=float)
        node = np.zeros(x.shape[0], dtype=np.int32)
        active = self.feature[node] >= 0
        while active.any():
            idx = np.nonzero(active)[0]
            nd = node[idx]
            f = self.feature[nd]
            go_left = x[idx, f] <= self.value_threshold[nd]
            node[idx] = np.where(go_left, self.left[nd], self.right[nd])
            active = self.feature[node] >= 0
        return self.leaf_value[node]

    @property
    def n_leaves(self) -> int:
        """Number of leaf nodes."""
        self._check_fitted()
        return int((self.feature < 0).sum())

    def max_depth_reached(self) -> int:
        """Actual depth of the fitted tree (root = depth 1)."""
        self._check_fitted()
        depth = np.ones(self.n_nodes, dtype=np.int32)
        for node in range(self.n_nodes):
            for child in (self.left[node], self.right[node]):
                if child >= 0:
                    depth[child] = depth[node] + 1
        return int(depth.max())
