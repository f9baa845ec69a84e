"""The layer boundaries a traced run puts spans on, and the per-layer ledger.

Layers are ``repro``'s modules.  :func:`install` shims the public
functions of each layer; :func:`ledger` turns the recorded spans plus the
figures a workload measured itself (``extra``) into every per-layer metric
named in ``BENCHMARK.json``.  A layer a workload does not exercise reports
zero calls and zero time, which is how a control workload shows that it
bypasses a layer.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager

from spans import Shims, layer_totals

# Every per-layer metric, in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("storage.write_ms", "ms"),
    ("storage.bytes_written", "bytes"),
    ("storage.read_ms", "ms"),
    ("storage.read_mb_per_s", "MB/s"),
    ("storage.journal_flush.calls", "count"),
    ("storage.journal_flush_ms", "ms"),
    ("prompts.build.calls", "count"),
    ("prompts.build_ms", "ms"),
    ("prompts.tokens_mean", "tokens"),
    ("prompts.parse_ms", "ms"),
    ("llm.generate.calls", "count"),
    ("llm.generate_batch.calls", "count"),
    ("llm.batch_width_mean", "requests"),
    ("llm.tokens_generated", "tokens"),
    ("llm.us_per_token", "us"),
    ("llm.generate_ms", "ms"),
    ("llm.logits_ms", "ms"),
    ("llm.prefix_prepare_ms", "ms"),
    ("llm.prefix.hit_rate", "ratio"),
    ("core.run_spec_self_ms", "ms"),
    ("core.surrogate.us_per_req", "us"),
    ("analysis.report_ms", "ms"),
    ("dataset.generate_ms", "ms"),
    ("dataset.encode_ms", "ms"),
    ("gbt.bin_ms", "ms"),
    ("gbt.tree_fit.calls", "count"),
    ("gbt.tree_fit_ms", "ms"),
    ("gbt.ms_per_tree_full", "ms"),
    ("gbt.predict_ms", "ms"),
    ("gbt.r2_sm", "R2"),
    ("gbt.r2_xl", "R2"),
    ("serve.service.marginal_us", "us"),
    ("serve.shard.marginal_us", "us"),
    ("serve.response_bytes", "bytes"),
    ("serve.submit_us", "us"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p95_ms", "ms"),
    ("serve.batch_mean", "requests"),
    ("serve.result_hit_rate", "ratio"),
    ("serve.prefix_hit_rate", "ratio"),
    ("serve.shard.spawn_s", "s"),
    ("sessions.submit.calls", "count"),
    ("sessions.service_wait_ms", "ms"),
    ("tuning.propose_ms", "ms"),
    ("sessions.jain", "index"),
    ("driver.late_p99_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("host.calib_ms", "ms"),
)


def _tokens(args, kwargs, trace):
    return {"tokens": len(trace.steps), "width": 1}


def _tokens_batch(args, kwargs, traces):
    return {"tokens": sum(len(t.steps) for t in traces), "width": len(traces)}


def _prompt_tokens(args, kwargs, parts):
    return {"tokens": int(parts.ids.size)}


def tree_rows(args, kwargs, tree):
    return {"rows": int(args[1].n_rows)}


def install(shims: Shims) -> None:
    """Put a span on every public layer function the workloads reach."""
    from repro.core import records, runner, storage
    from repro.core.surrogate import DiscriminativeSurrogate
    from repro.dataset import generate as dataset_generate
    from repro.gbt import GradientBoostingRegressor, RegressionTree, histogram
    from repro.gbt.encoding import FeatureEncoder
    from repro.llm import GenerationEngine, PrefixCache, SurrogateLM
    from repro.prompts import parser
    from repro.serve import PredictionService, ShardedPredictionService
    from repro.sessions import SessionEventLog, SessionManager
    from repro.tuning import HillClimbTuner, RandomSearchTuner

    shims.function(dataset_generate.generate_dataset, "dataset.generate")
    shims.method(FeatureEncoder, "encode_dataset", "dataset.encode")
    shims.method(DiscriminativeSurrogate, "build_parts", "prompts.build",
                 _prompt_tokens)
    shims.function(parser.extract_prediction, "prompts.parse")
    shims.method(GenerationEngine, "generate", "llm.generate", _tokens)
    shims.method(GenerationEngine, "generate_batch", "llm.generate_batch",
                 _tokens_batch)
    shims.method(SurrogateLM, "next_token_logits", "llm.logits")
    shims.method(SurrogateLM, "next_token_logits_batch", "llm.logits")
    shims.method(SurrogateLM, "prepare_prefix", "llm.prefix_prepare")
    shims.method(PrefixCache, "prepared", "llm.prefix_lookup")
    shims.method(DiscriminativeSurrogate, "predict", "core.predict")
    shims.function(runner.run_spec, "core.run_spec")
    shims.function(runner.run_grid, "core.run_grid")
    shims.function(storage.append_probes_jsonl, "storage.write")
    shims.function(storage.save_probes_jsonl, "storage.write")
    shims.function(storage.load_probes_jsonl, "storage.read")
    shims.method(SessionEventLog, "flush", "storage.journal_flush")
    shims.function(records.build_report, "analysis.report")
    shims.method(GradientBoostingRegressor, "fit", "gbt.fit")
    shims.function(histogram.bin_matrix, "gbt.bin")
    shims.method(RegressionTree, "fit", "gbt.tree_fit", tree_rows)
    shims.method(GradientBoostingRegressor, "predict", "gbt.predict")
    shims.method(PredictionService, "submit_async", "serve.submit")
    shims.method(ShardedPredictionService, "submit_async", "serve.submit")
    shims.method(RandomSearchTuner, "propose", "tuning.propose")
    shims.method(HillClimbTuner, "propose", "tuning.propose")
    shims.method(SessionManager, "run", "sessions.run")


@contextmanager
def tracing(recorder):
    """Shims on every layer boundary while the block runs."""
    with Shims(recorder) as shims:
        install(shims)
        yield


def ledger(spans, extra: dict) -> tuple[dict[str, float], dict[str, str]]:
    """Every per-layer metric from the spans and the workload's own figures.

    ``extra`` supplies what spans cannot see: file sizes, service stats,
    ledger-arm timings, the calibration loop and the tracing overhead.
    Returns the values and, for ratios and means, the base they rest on.
    """
    tot = layer_totals(spans)

    def t(name):
        return tot.get(name)

    def calls(name):
        return t(name).calls if t(name) else 0

    def ms(name, own=False):
        x = t(name)
        if x is None:
            return 0.0
        return 1e3 * (x.self_s if own else x.total_s)

    def attr_values(names, key):
        return [s.attrs[key] for s in spans if s.name in names and key in s.attrs]

    decode = ("llm.generate", "llm.generate_batch")
    tokens = sum(attr_values(decode, "tokens"))
    widths = attr_values(decode, "width")
    prompt_tokens = attr_values(("prompts.build",), "tokens")
    lookups = calls("llm.prefix_lookup")
    read_s = ms("storage.read") / 1e3
    full_rows = extra.get("gbt_full_rows")
    full_tree_ms = [
        1e3 * s.duration for s in spans
        if s.name == "gbt.tree_fit" and s.attrs.get("rows") == full_rows
    ]
    submits = [s.duration for s in spans if s.name == "serve.submit"]

    out = {
        "storage.write_ms": ms("storage.write"),
        "storage.bytes_written": extra.get("bytes_written", 0),
        "storage.read_ms": ms("storage.read"),
        "storage.read_mb_per_s": (
            extra.get("bytes_read", 0) / 1e6 / read_s if read_s > 0 else 0.0
        ),
        "storage.journal_flush.calls": calls("storage.journal_flush"),
        "storage.journal_flush_ms": ms("storage.journal_flush"),
        "prompts.build.calls": calls("prompts.build"),
        "prompts.build_ms": ms("prompts.build", own=True),
        "prompts.tokens_mean": (
            statistics.fmean(prompt_tokens) if prompt_tokens else 0.0
        ),
        "prompts.parse_ms": ms("prompts.parse"),
        "llm.generate.calls": calls("llm.generate"),
        "llm.generate_batch.calls": calls("llm.generate_batch"),
        "llm.batch_width_mean": statistics.fmean(widths) if widths else 0.0,
        "llm.tokens_generated": tokens,
        "llm.us_per_token": (
            1e3 * (ms("llm.generate") + ms("llm.generate_batch")) / tokens
            if tokens else 0.0
        ),
        "llm.generate_ms": (
            ms("llm.generate", own=True) + ms("llm.generate_batch", own=True)
        ),
        "llm.logits_ms": ms("llm.logits", own=True),
        "llm.prefix_prepare_ms": ms("llm.prefix_prepare", own=True),
        "llm.prefix.hit_rate": (
            1.0 - calls("llm.prefix_prepare") / lookups if lookups else 0.0
        ),
        "core.run_spec_self_ms": ms("core.run_spec", own=True),
        "analysis.report_ms": ms("analysis.report"),
        "dataset.generate_ms": ms("dataset.generate"),
        "dataset.encode_ms": ms("dataset.encode"),
        "gbt.bin_ms": ms("gbt.bin"),
        "gbt.tree_fit.calls": calls("gbt.tree_fit"),
        "gbt.tree_fit_ms": ms("gbt.tree_fit", own=True),
        "gbt.ms_per_tree_full": (
            statistics.median(full_tree_ms) if full_tree_ms else 0.0
        ),
        "gbt.predict_ms": ms("gbt.predict"),
        "serve.submit_us": 1e6 * statistics.fmean(submits) if submits else 0.0,
        "tuning.propose_ms": ms("tuning.propose", own=True),
    }
    for name, _unit in PER_LAYER:
        if name in extra:
            out[name] = extra[name]
        out.setdefault(name, 0.0)
    bases = {
        "llm.prefix.hit_rate": f"of {lookups} prefix-cache lookups",
        "llm.batch_width_mean": f"over {len(widths)} decode calls",
        "llm.us_per_token": f"over {tokens} generated tokens",
        "prompts.tokens_mean": f"over {len(prompt_tokens)} prompts",
        "gbt.ms_per_tree_full": f"median of {len(full_tree_ms)} trees at n={full_rows}",
        "serve.submit_us": f"mean of {len(submits)} traced submits",
    }
    return out, bases

