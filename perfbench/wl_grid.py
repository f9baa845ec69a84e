"""paper-grid: seeded slices of the Section III-B grid, run as the paper runs them.

A slice is the part of ``paper_grid()`` with one size, selection and
example set, in the grid's own order: every ICL count, with the sampling
seeds innermost, so each ICL prefix is reused by all its seeds as in the
full grid.  A run goes through the twenty slices in an order drawn from
the run seed, so every run does the same work.  Each slice runs serially
through ``run_grid(workers=1)`` with a JSONL checkpoint, is reloaded with
``load_probes_jsonl`` and summarised with ``build_report``.
"""

from __future__ import annotations

import hashlib
import statistics

import numpy as np

from repro.core import ExperimentSpec, paper_grid, records, runner, storage
from harness import Outcome, alternate, ms_per_op, rounds_until
import layers
from spans import SpanRecorder


class State:
    def close(self) -> None:
        pass


def setup(ctx) -> State:
    """Import, dataset and surrogate build, and a first probe per size."""
    for size in ("SM", "XL"):
        runner.run_spec(ExperimentSpec(size, "random", 1, 0, 1, n_queries=1))
    return State()


def slice_specs(seed: int, index: int) -> list[ExperimentSpec]:
    """Slice ``index`` of the run seeded ``seed`` (a pure function of both)."""
    grid = paper_grid()
    keys = sorted({(s.size, s.selection, s.set_id) for s in grid})
    order = np.random.default_rng(seed).permutation(len(keys))
    key = keys[order[index % len(keys)]]
    return [s for s in grid if (s.size, s.selection, s.set_id) == key]


#: Decimal places the probe JSONL format keeps of each logit.
STORED_LOGIT_DIGITS = 6


def canonical(probe, logit_digits: int | None = None) -> tuple:
    """Everything a probe records, in a form that compares and hashes.

    With ``logit_digits`` the logits are rounded as the JSONL format
    stores them, so a reloaded probe must equal its original exactly.
    """
    s = probe.spec
    return (
        s.size, s.selection, s.n_icl, s.set_id, s.seed, s.n_queries,
        s.root_seed, probe.query_index, probe.truth, probe.predicted,
        probe.predicted_text, probe.generated_text, probe.exact_copy,
        tuple(probe.icl_value_strings), probe.n_prompt_tokens,
        tuple(
            (st.tokens, tuple(
                x if logit_digits is None else round(x, logit_digits)
                for x in st.logits.tolist()
            ), st.chosen)
            for st in probe.value_steps
        ),
    )


def digest(probes) -> str:
    return hashlib.sha256(
        repr([canonical(p) for p in probes]).encode()
    ).hexdigest()


class _Slices:
    """Runs slices and keeps what the checks and the ledger need."""

    def __init__(self, ctx, out: Outcome):
        self.ctx = ctx
        self.out = out
        self.bytes_traced = 0

    def run(self, seed: int, index: int, traced: bool = False,
            pinned: bool = False):
        """Run one slice; returns its output check, or None if it failed.

        The pinned slice is an untimed warm-up whose probe digest must
        equal the one committed in ``spec.json``.
        """
        specs = slice_specs(seed, index)
        path = self.ctx.workdir / f"grid-{seed}-{index}.jsonl"
        path.unlink(missing_ok=True)
        n = 0 if pinned else sum(spec.n_queries for spec in specs)
        self.out.ops += n
        try:
            probes = runner.run_grid(specs, workers=1, checkpoint=path)
            loaded = storage.load_probes_jsonl(path)
            records.build_report(loaded)
        except Exception as exc:
            self.out.failed_ops += n
            self.out.check(f"slice {seed}/{index} ran", False, repr(exc))
            return None
        if traced:
            self.bytes_traced += path.stat().st_size
        path.unlink()

        def verify():
            self.out.check(
                f"slice {seed}/{index} save/load round trip",
                [canonical(p, STORED_LOGIT_DIGITS) for p in probes]
                == [canonical(p) for p in loaded],
            )
            if pinned:
                got = digest(probes)
                self.out.check(
                    f"probe digest of seed {seed} slice {index}",
                    got == self.ctx.cfg["pin_digest"], f"got {got}",
                )

        return verify


def _pin(ctx, slices: _Slices) -> None:
    """Run the pinned slice (untimed; it also warms the process up)."""
    verify = slices.run(ctx.cfg["pin_seed"], 0, pinned=True)
    if verify is not None:
        verify()


def _named(out: Outcome, seed: int, times) -> None:
    """Rates from the slice wall times of one run (slice i has index i + 1).

    Slices are grouped by size and selection, whose costs differ.
    """
    probes = sum(spec.n_queries for spec in slice_specs(0, 0))
    by_kind: dict[str, list[float]] = {}
    for i, t in enumerate(times, start=1):
        spec = slice_specs(seed, i)[0]
        by_kind.setdefault(f"{spec.size.lower()}_{spec.selection}", []).append(t)
    ms = ms_per_op(probes * len(by_kind), by_kind.values())
    out.e2e["ms_per_op"] = ms
    out.named += [
        ("grid.probes_per_s", 1e3 / ms, "probes/s",
         f"{probes} probes per slice at the median time of each "
         f"size and selection's {min(len(t) for t in by_kind.values())}+ "
         f"slices, incl. checkpoint, reload and report"),
        ("grid.wall_probes_per_s", probes * len(times) / sum(times), "probes/s",
         f"{probes * len(times)} probes in {len(times)} slices, wall clock"),
    ] + [
        (f"grid.{kind}_slice_p50_ms", 1e3 * statistics.median(t), "ms",
         f"median of {len(t)} slices")
        for kind, t in sorted(by_kind.items())
    ]


def measure(state: State, ctx) -> Outcome:
    out = Outcome()
    slices = _Slices(ctx, out)
    _pin(ctx, slices)
    times = rounds_until(ctx.seconds, lambda i, _t: slices.run(ctx.seed, i))
    _named(out, ctx.seed, times)
    return out


def traced(state: State, ctx) -> Outcome:
    out = Outcome()
    slices = _Slices(ctx, out)
    _pin(ctx, slices)
    recorder = SpanRecorder()
    untraced_t, traced_t = alternate(
        ctx.cfg["trace_pairs"],
        lambda i, t: slices.run(ctx.seed, i, t),
        lambda: layers.tracing(recorder),
    )
    out.spans = recorder.spans
    out.layer.update(
        bytes_written=slices.bytes_traced,
        bytes_read=slices.bytes_traced,
    )
    out.layer["trace.overhead_frac"] = sum(traced_t) / sum(untraced_t) - 1.0
    return out
