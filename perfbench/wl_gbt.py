"""gbt-table1: the Table I GBT fits, SM and XL at the paper's training sizes.

One sweep splits each size's dataset 80/20 with a seeded permutation, fits
``GradientBoostingRegressor`` on the first n training rows for every
training size, then predicts and scores the test split.  All the time is
in ``gbt`` (plus feature encoding); nothing touches ``llm``, ``serve`` or
storage, so this workload is the control for every non-GBT change.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.analysis import r2_score
from repro.dataset import generate_dataset
from repro.dataset.splits import train_test_split
from repro.gbt import (
    BoostingParams,
    FeatureEncoder,
    GradientBoostingRegressor,
    TargetTransform,
)
from harness import Outcome, alternate, ms_per_op, pct, rounds_until
import layers
from spans import SpanRecorder


class State:
    def __init__(self, datasets):
        self.datasets = datasets

    def close(self) -> None:
        pass


def setup(ctx) -> State:
    """Import and dataset build for both sizes."""
    return State({size: generate_dataset(size) for size in ("SM", "XL")})


def split_seed(seed: int, index: int) -> int:
    return int(np.random.default_rng([seed, index]).integers(1, 2**31 - 1))


class _Sweeps:
    def __init__(self, state: State, ctx, out: Outcome):
        self.state = state
        self.cfg = ctx.cfg
        self.seed = ctx.seed
        self.out = out
        self.r2_full: dict[str, list[float]] = {"SM": [], "XL": []}
        #: Wall seconds of each (size, training rows) fit and predict.
        self.fit_s: dict[tuple[str, int], list[float]] = {}
        self.full_rows = 0

    def run(self, index: int, _traced: bool = False) -> None:
        cfg = self.cfg
        params = BoostingParams(**cfg["params"])
        r2: dict[str, list[float]] = {}
        for size, ds in self.state.datasets.items():
            train, test = train_test_split(ds, 0.8, seed=split_seed(self.seed, index))
            enc = FeatureEncoder(ds.space)
            tt = TargetTransform("log")
            x_test = enc.encode_dataset(test)
            r2[size] = []
            for n in cfg["train_sizes"] + [len(train)]:
                sub = train.subset(np.arange(n))
                self.out.ops += params.n_estimators
                t0 = time.perf_counter()
                try:
                    model = GradientBoostingRegressor(params).fit(
                        enc.encode_dataset(sub), tt.forward(sub.runtimes)
                    )
                    pred = tt.inverse(model.predict(x_test))
                except Exception as exc:
                    self.out.failed_ops += params.n_estimators
                    self.out.check(f"sweep {index} {size} n={n} fit", False, repr(exc))
                    return
                self.fit_s.setdefault((size, n), []).append(time.perf_counter() - t0)
                r2[size].append(r2_score(test.runtimes, pred))
            self.full_rows = len(train)
            self.r2_full[size].append(r2[size][-1])
        self.check_shape(index, r2["SM"], r2["XL"])

    def check_shape(self, index: int, sm: list[float], xl: list[float]) -> None:
        """The Table I shape the paper reports (same rules as the repo's
        Table I benchmark): R^2 rises with training size, XL beats SM."""
        tol = self.cfg["rise_tolerance"]
        self.out.check(
            f"sweep {index}: R2 rises with training size",
            all(b >= a - tol for r in (sm, xl) for a, b in zip(r, r[1:])),
            f"SM {np.round(sm, 3).tolist()} XL {np.round(xl, 3).tolist()}",
        )
        self.out.check(
            f"sweep {index}: XL R2 > SM R2 beyond the smallest size",
            all(x > s for s, x in zip(sm[1:], xl[1:])),
        )
        self.out.check(
            f"sweep {index}: full-size R2 floors",
            sm[-1] > self.cfg["r2_floor"]["SM"] and xl[-1] > self.cfg["r2_floor"]["XL"],
        )


def _trees_per_sweep(cfg) -> int:
    return 2 * (len(cfg["train_sizes"]) + 1) * cfg["params"]["n_estimators"]


def measure(state: State, ctx) -> Outcome:
    """Sweeps for ``ctx.seconds``, timed by ``harness.ms_per_op`` over
    the wall times of each (size, training rows) encode, fit and predict."""
    out = Outcome()
    sweeps = _Sweeps(state, ctx, out)
    times = rounds_until(ctx.seconds, lambda i, _t: sweeps.run(i))
    trees = _trees_per_sweep(ctx.cfg)
    ms = ms_per_op(trees, sweeps.fit_s.values())
    out.e2e["ms_per_op"] = ms
    sizes = ", ".join(str(n) for n in ctx.cfg["train_sizes"] + [sweeps.full_rows])
    out.named += [
        ("gbt.trees_per_s", 1e3 / ms, "trees/s",
         f"{trees} trees per sweep at the median time of each fit of "
         f"{len(times)} sweeps; training rows {sizes} per size"),
        ("gbt.wall_trees_per_s", trees * len(times) / sum(times), "trees/s",
         f"{trees * len(times)} trees in {len(times)} sweeps, wall clock"),
    ] + [
        (f"gbt.{size.lower()}_full_fit_p50_ms",
         1e3 * pct(sweeps.fit_s[size, sweeps.full_rows], 50), "ms",
         f"median of {len(times)} fits at n={sweeps.full_rows}, incl. encode "
         f"and predict")
        for size in ("SM", "XL")
    ] + [
        ("gbt.r2_sm", statistics.median(sweeps.r2_full["SM"]), "R2",
         f"n={sweeps.full_rows}, median of {len(times)} splits"),
        ("gbt.r2_xl", statistics.median(sweeps.r2_full["XL"]), "R2",
         f"n={sweeps.full_rows}, median of {len(times)} splits"),
    ]
    return out


def traced(state: State, ctx) -> Outcome:
    out = Outcome()
    sweeps = _Sweeps(state, ctx, out)
    recorder = SpanRecorder()
    untraced_t, traced_t = alternate(
        ctx.cfg["trace_pairs"], sweeps.run, lambda: layers.tracing(recorder)
    )
    out.spans = recorder.spans
    out.layer.update({
        "gbt_full_rows": sweeps.full_rows,
        "gbt.r2_sm": statistics.median(sweeps.r2_full["SM"]),
        "gbt.r2_xl": statistics.median(sweeps.r2_full["XL"]),
        "trace.overhead_frac": sum(traced_t) / sum(untraced_t) - 1.0,
    })
    return out
