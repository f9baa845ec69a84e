"""Level-wise tree growth against the per-node, per-feature reference.

``reference_fit`` is the straightforward grower: a depth-first stack of
nodes, and for each node a scan over features with one set of
``bincount`` histograms per feature.  ``RegressionTree.fit`` must produce
the very same arrays, bit for bit, on every case below.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gbt.histogram import BinnedMatrix, bin_matrix
from repro.gbt.tree import RegressionTree, TreeParams


def reference_fit(binned, grad, hess, params, rows=None, feature_mask=None):
    """Grow one tree node by node; return its flat arrays by name."""
    if rows is None:
        rows = np.arange(binned.n_rows, dtype=np.int64)
    if feature_mask is None:
        feature_mask = np.ones(binned.n_features, dtype=bool)
    p = params
    lam = p.reg_lambda
    feature, bin_thr, val_thr, left, right, leaf = [], [], [], [], [], []

    def new_node():
        feature.append(-1)
        bin_thr.append(-1)
        val_thr.append(np.nan)
        left.append(-1)
        right.append(-1)
        leaf.append(0.0)
        return len(feature) - 1

    stack = [(new_node(), rows, 1)]
    while stack:
        node, node_rows, depth = stack.pop()
        g = grad[node_rows]
        h = hess[node_rows]
        g_sum = float(g.sum())
        h_sum = float(h.sum())
        leaf[node] = -g_sum / (h_sum + lam)
        if (
            depth > p.max_depth
            or node_rows.size < 2 * p.min_samples_leaf
            or h_sum < 2 * p.min_child_weight
        ):
            continue
        parent_score = g_sum * g_sum / (h_sum + lam)
        best_gain, best_feat, best_bin = 0.0, -1, -1
        codes = binned.codes[node_rows]
        for j in range(binned.n_features):
            nb = int(binned.n_bins[j])
            if not feature_mask[j] or nb < 2:
                continue
            cj = codes[:, j]
            gl = np.cumsum(np.bincount(cj, weights=g, minlength=nb))[:-1]
            hl = np.cumsum(np.bincount(cj, weights=h, minlength=nb))[:-1]
            cl = np.cumsum(np.bincount(cj, minlength=nb))[:-1]
            gr = g_sum - gl
            hr = h_sum - hl
            cr = node_rows.size - cl
            valid = (
                (cl >= p.min_samples_leaf)
                & (cr >= p.min_samples_leaf)
                & (hl >= p.min_child_weight)
                & (hr >= p.min_child_weight)
            )
            if not valid.any():
                continue
            gain = np.where(
                valid,
                0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent_score)
                - p.gamma,
                -np.inf,
            )
            b = int(np.argmax(gain))
            if gain[b] > best_gain:
                best_gain, best_feat, best_bin = float(gain[b]), j, b
        if best_feat < 0:
            continue
        go_left = codes[:, best_feat] <= best_bin
        feature[node] = best_feat
        bin_thr[node] = best_bin
        thr = binned.thresholds[best_feat]
        val_thr[node] = float(thr[best_bin]) if best_bin < thr.size else np.inf
        lid, rid = new_node(), new_node()
        left[node], right[node] = lid, rid
        stack.append((lid, node_rows[go_left], depth + 1))
        stack.append((rid, node_rows[~go_left], depth + 1))

    return {
        "feature": np.asarray(feature, dtype=np.int32),
        "bin_threshold": np.asarray(bin_thr, dtype=np.int32),
        "value_threshold": np.asarray(val_thr, dtype=float),
        "left": np.asarray(left, dtype=np.int32),
        "right": np.asarray(right, dtype=np.int32),
        "leaf_value": np.asarray(leaf, dtype=float),
    }


def assert_same_tree(binned, grad, hess, params, rows=None, feature_mask=None):
    want = reference_fit(binned, grad, hess, params, rows, feature_mask)
    tree = RegressionTree(params).fit(
        binned, grad, hess, rows=rows, feature_mask=feature_mask
    )
    for name, arr in want.items():
        got = getattr(tree, name)
        assert got.dtype == arr.dtype, name
        assert got.tobytes() == arr.tobytes(), name
    # Every training row's recorded leaf is where prediction routes it.
    trained = np.arange(binned.n_rows) if rows is None else np.unique(rows)
    walked = tree.predict_binned(binned.codes[trained])
    assert np.array_equal(tree.leaf_value[tree.train_leaf[trained]], walked)
    outside = np.setdiff1d(np.arange(binned.n_rows), trained)
    assert (tree.train_leaf[outside] == -1).all()
    # Padded histogram bins never become thresholds.
    split = tree.feature >= 0
    assert (tree.bin_threshold[split] < binned.n_bins[tree.feature[split]] - 1).all()
    return tree


def random_case(seed):
    """A seeded random tree problem mixing every awkward ingredient."""
    rng = np.random.default_rng([7, seed])
    n = int(rng.integers(1, 400))
    d = int(rng.integers(1, 7))
    cols = []
    for _ in range(d):
        # Constant columns (one bin), few bins, and one many-binned column.
        levels = int(rng.choice([1, 2, 3, 5, 11, 40]))
        cols.append(rng.integers(0, levels, n).astype(float))
    x = np.column_stack(cols)
    if d > 1 and rng.random() < 0.3:
        x[:, -1] = x[:, 0]  # an exact tie between two features
    binned = bin_matrix(x, max_bins=int(rng.choice([8, 64])))
    if rng.random() < 0.5:
        grad = rng.normal(size=n)
    else:
        grad = rng.integers(-3, 4, n).astype(float)  # exact gain ties
    hess = np.ones(n) if rng.random() < 0.3 else rng.uniform(0.01, 3.0, n)
    rows = None
    if rng.random() < 0.5:
        k = int(rng.integers(1, n + 1))
        rows = rng.permutation(n)[:k]
    mask = None
    if rng.random() < 0.4:
        mask = rng.random(d) < 0.6
    params = TreeParams(
        max_depth=int(rng.integers(1, 9)),
        min_samples_leaf=int(rng.choice([1, 2, 5, 40, 250])),
        min_child_weight=float(rng.choice([0.0, 1e-3, 0.5, 5.0])),
        reg_lambda=float(rng.choice([0.0, 1.0, 3.0])),
        gamma=float(rng.choice([0.0, 0.01, 1.0, 1e6])),
    )
    return binned, grad, hess, params, rows, mask


@pytest.mark.parametrize("seed", range(150))
def test_matches_reference_on_random_cases(seed):
    binned, grad, hess, params, rows, mask = random_case(seed)
    with np.errstate(divide="ignore", invalid="ignore"):
        assert_same_tree(binned, grad, hess, params, rows, mask)


@pytest.mark.parametrize("seed", range(40))
def test_matches_reference_with_nan_gains(seed):
    """Zero hessians with no regularization make 0/0 gains; a feature
    holding a NaN gain is passed over, and a 0/0 leaf raises in both."""
    rng = np.random.default_rng([11, seed])
    binned = bin_matrix(rng.integers(0, 4, (40, 3)).astype(float))
    grad = rng.integers(-2, 3, 40).astype(float)
    hess = rng.choice([0.0, 1.0], 40)
    params = TreeParams(max_depth=3, reg_lambda=0.0, min_child_weight=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        try:
            reference_fit(binned, grad, hess, params)
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                RegressionTree(params).fit(binned, grad, hess)
        else:
            assert_same_tree(binned, grad, hess, params)


@pytest.fixture()
def problem():
    rng = np.random.default_rng(3)
    x = np.column_stack([
        rng.integers(0, 4, 300),
        np.zeros(300),  # constant: n_bins == 1
        rng.integers(0, 60, 300),  # far more bins than the others
        rng.integers(0, 2, 300),
    ]).astype(float)
    grad = rng.normal(size=300) + x[:, 0] - x[:, 3]
    hess = rng.uniform(0.2, 2.0, 300)
    return bin_matrix(x), grad, hess


class TestAgainstReference:
    def test_non_unit_hessian_deep(self, problem):
        binned, grad, hess = problem
        tree = assert_same_tree(binned, grad, hess, TreeParams(max_depth=8))
        assert tree.n_leaves > 8

    def test_permuted_unsorted_rows(self, problem):
        binned, grad, hess = problem
        rows = np.random.default_rng(4).permutation(300)[:211]
        assert_same_tree(binned, grad, hess, TreeParams(max_depth=5), rows=rows)

    def test_feature_mask(self, problem):
        binned, grad, hess = problem
        mask = np.array([False, True, True, False])
        tree = assert_same_tree(binned, grad, hess, TreeParams(), feature_mask=mask)
        assert set(tree.feature[tree.feature >= 0]) <= {2}

    def test_all_features_masked_or_constant(self, problem):
        binned, grad, hess = problem
        mask = np.array([False, True, False, False])
        tree = assert_same_tree(binned, grad, hess, TreeParams(), feature_mask=mask)
        assert tree.n_nodes == 1

    def test_min_samples_leaf_larger_than_node(self, problem):
        binned, grad, hess = problem
        tree = assert_same_tree(
            binned, grad, hess, TreeParams(max_depth=6, min_samples_leaf=120)
        )
        assert tree.n_leaves == 2
        assert_same_tree(binned, grad, hess, TreeParams(min_samples_leaf=151))

    def test_gamma_prunes_to_one_leaf(self, problem):
        binned, grad, hess = problem
        tree = assert_same_tree(binned, grad, hess, TreeParams(gamma=1e9))
        assert tree.n_nodes == 1
        assert tree.leaf_value[0] == -grad.sum() / (hess.sum() + 1.0)

    def test_padded_bins_never_win(self):
        """The few-binned feature's padding past its last real bin would
        send every row left; it must never be chosen as a split."""
        x = np.column_stack([np.arange(40) % 2, np.arange(40) % 20]).astype(float)
        grad = np.where(x[:, 0] == 0, -5.0, 5.0)
        hess = np.full(40, 0.5)
        for msl in (1, 3, 19, 20):
            assert_same_tree(
                bin_matrix(x), grad, hess, TreeParams(min_samples_leaf=msl)
            )

    def test_empty_rows(self, problem):
        binned, grad, hess = problem
        tree = assert_same_tree(
            binned, grad, hess, TreeParams(), rows=np.array([], dtype=np.int64)
        )
        assert tree.n_nodes == 1


class TestValidation:
    def _binned(self):
        return BinnedMatrix(
            codes=np.zeros((5, 3), dtype=np.int32),
            thresholds=[np.empty(0)] * 3,
            n_bins=np.ones(3, dtype=np.int32),
        )

    @pytest.mark.parametrize("mask", [[True, True], [True] * 4, [[True] * 3]])
    def test_feature_mask_shape(self, mask):
        with pytest.raises(ValueError, match="feature_mask"):
            RegressionTree().fit(self._binned(), np.zeros(5), np.ones(5),
                                 feature_mask=np.array(mask))

    @pytest.mark.parametrize("rows", [[0, 5], [-1, 2], [[0, 1]]])
    def test_rows_out_of_range(self, rows):
        with pytest.raises(ValueError, match="rows"):
            RegressionTree().fit(self._binned(), np.zeros(5), np.ones(5),
                                 rows=np.array(rows))
