"""Golden pin: every fitted tree and every test-split prediction, hashed.

The digests below were computed before tree growth became level-wise and
must never change: a GBT refactor that moves a single leaf value by one
ulp would shift Table I and Figure 2, so it fails here first.  Each case
fits on the first ``n`` rows of the Table I 80/20 split (seed 1) and
hashes, in order, every tree's ``feature``, ``bin_threshold``,
``value_threshold``, ``left``, ``right`` and ``leaf_value`` arrays, then
the ensemble's predictions for the test split.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.dataset.splits import train_test_split
from repro.gbt import (
    BoostingParams,
    FeatureEncoder,
    GradientBoostingRegressor,
    TargetTransform,
)

PARAMS = {
    # benchmarks/test_table1_gbt_metrics.py, beyond the searched sizes.
    "table1": BoostingParams(
        n_estimators=250, learning_rate=0.1, max_depth=6, min_samples_leaf=2
    ),
    # repro.serve.fallback._gbt_stack.
    "fallback": BoostingParams(
        n_estimators=40, learning_rate=0.15, max_depth=4, min_samples_leaf=2
    ),
    # Row and column subsampling plus gamma pruning, past Table I's depth.
    "sampled": BoostingParams(
        n_estimators=60, learning_rate=0.1, max_depth=8, min_samples_leaf=2,
        subsample=0.7, colsample=0.6, gamma=0.01, seed=3,
    ),
}

#: (size, training rows or None for the full split, params) -> sha256.
DIGESTS = {
    ("SM", 500, "fallback"): "87eb7f03c454b69e1ec0ed6b4a62def7b305d6e4a01e110782cd48f624500306",
    ("SM", 500, "sampled"): "27f2b126eed2c40c4bed416841b6019779745e803939c999e2b9d3ee52a817b8",
    ("SM", 500, "table1"): "5d19fbd7118a335312877eb811dde86a16fe3e80ba203dce256479ce57cad788",
    ("SM", None, "fallback"): "0993638d600e9828152b5e6ac5966db7feb50495367fff335a2577565b87b9c4",
    ("SM", None, "sampled"): "df7ada60b9c857f02238d977c99dc20eda3ab57000df5914f041e1f5f2f3fc3e",
    ("SM", None, "table1"): "abd3e47d71d2d549e46dba219860f35a976952ccd76a2e2670a31614861015ee",
    ("XL", 500, "fallback"): "8fca5fabb8879719dce94de464a7eef64caefceebbeb623196cb79c6cd10b6b4",
    ("XL", 500, "sampled"): "b82287b28fbd8e64843d64a02ce11efe342c050f9531720c0f766063f275e6dc",
    ("XL", 500, "table1"): "6a2977316b16a804e92f60bf8655f040100d90397bf4baea0005bc184befd10f",
    ("XL", None, "fallback"): "9843e847ba0d4a0921514bd2f7e581e9c503ad14a733779f813bc662a891f43e",
    ("XL", None, "sampled"): "d8c7420b1102ef3765fdb06c4d52b381d69c4678b407486b2612e22b22d44f7e",
    ("XL", None, "table1"): "9ff0cf2b63bda9dfdfc656edffad3bf97a182587cec6a97ac6c304b491f8df36",
}


def fit_digest(dataset, n_train, params) -> str:
    train, test = train_test_split(dataset, 0.8, seed=1)
    if n_train is not None:
        train = train.subset(np.arange(n_train))
    enc = FeatureEncoder(dataset.space)
    tt = TargetTransform("log")
    model = GradientBoostingRegressor(params).fit(
        enc.encode_dataset(train), tt.forward(train.runtimes)
    )
    h = hashlib.sha256()
    for tree in model._state.trees:
        for arr in (
            tree.feature,
            tree.bin_threshold,
            tree.value_threshold,
            tree.left,
            tree.right,
            tree.leaf_value,
        ):
            h.update(np.ascontiguousarray(arr).tobytes())
    h.update(np.asarray(model.predict(enc.encode_dataset(test)), "<f8").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("params", sorted(PARAMS))
@pytest.mark.parametrize("n_train", [500, None], ids=["n500", "full"])
@pytest.mark.parametrize("size", ["SM", "XL"])
def test_trees_and_predictions_pinned(size, n_train, params, sm_dataset, xl_dataset):
    dataset = sm_dataset if size == "SM" else xl_dataset
    key = (size, n_train, params)
    assert fit_digest(dataset, n_train, PARAMS[params]) == DIGESTS[key]
