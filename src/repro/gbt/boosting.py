"""Gradient boosting over histogram regression trees (squared loss).

The ensemble follows the standard XGBoost recipe: start from the target
mean, then repeatedly fit a :class:`RegressionTree` to the current
gradients/hessians, shrink it by the learning rate, and add it to the
model.  Row and column subsampling and validation-based early stopping are
supported — together these cover every hyperparameter the paper's
randomized search tunes (number of estimators, learning rate, maximum tree
depth, minimum samples per leaf).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ModelNotFittedError
from repro.gbt.histogram import BinnedMatrix, bin_matrix
from repro.gbt.tree import RegressionTree, TreeParams
from repro.utils.rng import rng_from

__all__ = ["BoostingParams", "GradientBoostingRegressor"]


@dataclass(frozen=True)
class BoostingParams:
    """Hyperparameters of the boosted ensemble."""

    n_estimators: int = 200
    learning_rate: float = 0.1
    max_depth: int = 6
    min_samples_leaf: int = 1
    reg_lambda: float = 1.0
    gamma: float = 0.0
    subsample: float = 1.0
    colsample: float = 1.0
    max_bins: int = 64
    early_stopping_rounds: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {self.n_estimators}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError(
                f"learning_rate must be in (0, 1], got {self.learning_rate}"
            )
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError(f"subsample must be in (0, 1], got {self.subsample}")
        if not 0.0 < self.colsample <= 1.0:
            raise ValueError(f"colsample must be in (0, 1], got {self.colsample}")

    def tree_params(self) -> TreeParams:
        """The per-tree growth constraints implied by these parameters."""
        return TreeParams(
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            reg_lambda=self.reg_lambda,
            gamma=self.gamma,
        )


@dataclass
class _FitState:
    """Internals captured by :meth:`GradientBoostingRegressor.fit`."""

    binned: BinnedMatrix
    base_score: float
    trees: list[RegressionTree] = field(default_factory=list)
    best_iteration: int | None = None
    validation_curve: list[float] = field(default_factory=list)


class GradientBoostingRegressor:
    """Boosted-tree regressor with an sklearn-flavoured fit/predict API."""

    def __init__(self, params: BoostingParams | None = None):
        self.params = params or BoostingParams()
        self._state: _FitState | None = None

    # ------------------------------------------------------------------ #
    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        eval_set: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> "GradientBoostingRegressor":
        """Fit on raw features ``x`` and targets ``y``.

        Parameters
        ----------
        eval_set:
            Optional ``(x_val, y_val)`` used for the validation curve and
            early stopping (when ``early_stopping_rounds`` is set).
        """
        p = self.params
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
            raise ValueError(
                f"need x (n, d) and y (n,); got {x.shape} and {y.shape}"
            )
        if x.shape[0] < 1:
            raise ValueError("cannot fit on an empty dataset")

        binned = bin_matrix(x, max_bins=p.max_bins)
        n = x.shape[0]
        base = float(y.mean())
        state = _FitState(binned=binned, base_score=base)
        pred = np.full(n, base)

        val_codes = val_pred = y_val = None
        if eval_set is not None:
            x_val = np.asarray(eval_set[0], dtype=float)
            y_val = np.asarray(eval_set[1], dtype=float)
            val_codes = binned.bin_new(x_val)
            val_pred = np.full(y_val.shape[0], base)
        best_val = np.inf
        rounds_since_best = 0

        rng = rng_from(p.seed, "boosting")
        tree_params = p.tree_params()
        hess = np.ones(n)

        for it in range(p.n_estimators):
            grad = pred - y  # d/dpred of 0.5*(pred-y)^2
            rows = None
            if p.subsample < 1.0:
                k = max(1, int(round(p.subsample * n)))
                rows = rng.permutation(n)[:k]
            feature_mask = None
            if p.colsample < 1.0:
                d = binned.n_features
                k = max(1, int(round(p.colsample * d)))
                feature_mask = np.zeros(d, dtype=bool)
                feature_mask[rng.permutation(d)[:k]] = True
            tree = RegressionTree(tree_params).fit(
                binned, grad, hess, rows=rows, feature_mask=feature_mask
            )
            state.trees.append(tree)
            if rows is None:
                pred += p.learning_rate * tree.leaf_value[tree.train_leaf]
            else:
                pred += p.learning_rate * tree.predict_binned(binned.codes)
            tree.train_leaf = None  # per-row fit scratch; not part of the model

            if val_codes is not None:
                val_pred += p.learning_rate * tree.predict_binned(val_codes)
                val_mse = float(np.mean((val_pred - y_val) ** 2))
                state.validation_curve.append(val_mse)
                if val_mse < best_val - 1e-15:
                    best_val = val_mse
                    state.best_iteration = it + 1
                    rounds_since_best = 0
                else:
                    rounds_since_best += 1
                    if (
                        p.early_stopping_rounds is not None
                        and rounds_since_best >= p.early_stopping_rounds
                    ):
                        break

        self._state = state
        return self

    # ------------------------------------------------------------------ #
    def _require_state(self) -> _FitState:
        if self._state is None:
            raise ModelNotFittedError(
                "GradientBoostingRegressor used before fit()"
            )
        return self._state

    def predict(self, x: np.ndarray, *, use_best_iteration: bool = True) -> np.ndarray:
        """Predict targets for raw feature rows."""
        state = self._require_state()
        x = np.asarray(x, dtype=float)
        codes = state.binned.bin_new(x)
        n_trees = len(state.trees)
        if use_best_iteration and state.best_iteration is not None:
            n_trees = state.best_iteration
        pred = np.full(x.shape[0], state.base_score)
        lr = self.params.learning_rate
        for tree in state.trees[:n_trees]:
            pred += lr * tree.predict_binned(codes)
        return pred

    @property
    def n_trees(self) -> int:
        """Number of trees actually grown."""
        return len(self._require_state().trees)

    @property
    def base_score(self) -> float:
        """The constant initial prediction (training-target mean)."""
        return self._require_state().base_score

    @property
    def validation_curve(self) -> list[float]:
        """Per-iteration validation MSE (empty without an eval_set)."""
        return list(self._require_state().validation_curve)

    def feature_importance(self) -> np.ndarray:
        """Split-count importance per feature column."""
        state = self._require_state()
        width = state.binned.n_features
        counts = np.zeros(width)
        for tree in state.trees:
            internal = tree.feature[tree.feature >= 0]
            counts += np.bincount(internal, minlength=width)
        total = counts.sum()
        return counts / total if total > 0 else counts
