"""serve-open: the served request path of a one-shard service.

Every request is a short prompt over one shared ICL prefix; queries follow
a Zipf popularity over a pool of configurations and most seeds are fresh,
so only a minority of requests hit the result cache.  Two open-loop
Poisson phases at fixed rates (``lo``, ``hi``) give latencies under load;
a closed loop of one waiting caller then gives the service's request rate,
which follows the cost of every step a request takes.

The traced run cannot see inside the shard worker.  It splits the served
request's cost with three closed-loop ledger arms over identical
requests: the raw surrogate, an in-process ``PredictionService`` and the
one-shard service.
"""

from __future__ import annotations

import pickle
import statistics
import time

import numpy as np

from repro import DiscriminativeSurrogate, Request, Syr2kTask, generate_dataset
from repro.serve import PredictionService, make_service
from harness import Outcome, ms_per_op, pct, rounds_until
import layers
from pacer import arrival_offsets, run_open_loop
from spans import SpanRecorder


class State:
    def __init__(self, dataset, surrogate, service, spawn_s):
        self.dataset = dataset
        self.surrogate = surrogate
        self.service = service
        self.spawn_s = spawn_s

    def close(self) -> None:
        self.service.close()


def setup(ctx) -> State:
    """Import, dataset and raw-surrogate build, shard spawn, first response."""
    size = ctx.cfg["size"]
    ds = generate_dataset(size)
    surrogate = DiscriminativeSurrogate(Syr2kTask(size))
    t0 = time.perf_counter()
    service = make_service(shards=1, workers=1)
    service.submit(Request(
        examples=[(ds.config(i), float(ds.runtimes[i])) for i in range(5)],
        query_config=ds.config(5),
        size=size,
    ))
    return State(ds, surrogate, service, time.perf_counter() - t0)


class Mix:
    """The request mix of one run: a pure function of the run seed."""

    def __init__(self, dataset, cfg: dict, seed: int):
        self.cfg = cfg
        self.seed = seed
        # The prompt prefix and the query pool are fixed; the seed draws
        # arrivals, popularity samples and sampling seeds.  Otherwise the
        # service time itself would differ from seed to seed.
        rng = np.random.default_rng(cfg["prompt_seed"])
        rows = rng.choice(len(dataset), cfg["icl"] + cfg["pool"], replace=False)
        self.examples = [
            (dataset.config(int(r)), float(dataset.runtimes[r]))
            for r in rows[: cfg["icl"]]
        ]
        self.pool = [dataset.config(int(r)) for r in rows[cfg["icl"]:]]
        weights = 1.0 / np.arange(1, cfg["pool"] + 1) ** cfg["zipf_s"]
        self.popularity = weights / weights.sum()

    def requests(self, tag: int, n: int) -> list[Request]:
        """``n`` requests; ``tag`` keeps fresh seeds of different batches apart."""
        cfg = self.cfg
        rng = np.random.default_rng([self.seed, tag])
        queries = rng.choice(cfg["pool"], size=n, p=self.popularity)
        repeat = rng.random(n) < cfg["repeat_share"]
        repeat_seed = rng.integers(0, cfg["repeat_seeds"], size=n)
        return [
            Request(
                examples=self.examples,
                query_config=self.pool[int(queries[i])],
                seed=int(repeat_seed[i]) if repeat[i]
                else cfg["repeat_seeds"] + tag * 1_000_000 + i,
                size=cfg["size"],
            )
            for i in range(n)
        ]


def canonical(pred) -> tuple:
    return (
        pred.value, pred.value_text, pred.generated_text,
        tuple(pred.icl_value_strings), pred.n_prompt_tokens, pred.seed,
        tuple(
            (st.tokens, tuple(st.logits.tolist()), st.chosen)
            for st in pred.value_steps
        ),
    )


def _phase(state, ctx, mix, tag, rate, n):
    requests = mix.requests(tag, n)
    offsets = arrival_offsets(np.random.default_rng([ctx.seed, tag, 1]), n, rate)
    keep = np.random.default_rng([ctx.seed, tag, 2]).choice(
        n, size=min(n, ctx.cfg["identity_sample"]), replace=False
    )
    result = run_open_loop(
        lambda r: state.service.submit_async(r, block=True), requests, offsets,
        keep=keep.tolist(), rate=rate,
    )
    result.requests = requests
    return result


def _check_identity(out, state, name, result) -> None:
    """Served responses are bit-identical to the raw surrogate's."""
    bad = 0
    for i, response in result.kept.items():
        req = result.requests[i]
        raw = state.surrogate.predict(req.examples, req.query_config, seed=req.seed)
        bad += canonical(response.prediction) != canonical(raw)
    out.check(
        f"{name}: {len(result.kept)} sampled responses equal raw predict",
        bad == 0 and len(result.kept) > 0, f"{bad} differ",
    )


def _passes(result, limit_ms: float) -> bool:
    """Meets the p99 limit with no growing backlog (the last tenth of
    requests is not slower than the limit at its median)."""
    if result.failed or not result.latencies:
        return False
    tail = result.latencies[-max(1, len(result.latencies) // 10):]
    return (
        1e3 * pct(result.latencies, 99) <= limit_ms
        and 1e3 * statistics.median(tail) <= limit_ms
    )


def _warm(state, mix, ctx) -> None:
    for request in mix.requests(0, ctx.cfg["warmup"]):
        state.service.submit(request)


def _closed_loop(state, ctx, mix, out, seconds: float) -> list[float]:
    """Chunks of requests sent one after another for ``seconds``.

    Returns each chunk's wall time; one sampled response per chunk is
    checked against the raw surrogate after the clock stops.
    """
    n = ctx.cfg["closed_chunk"]
    bad = []

    def chunk(i, _traced):
        requests = mix.requests(100 + i, n)
        out.ops += n
        responses = []
        for request in requests:
            try:
                responses.append(state.service.submit(request))
            except Exception as exc:
                out.failed_ops += 1
                out.findings.append(f"closed loop: {exc!r}")

        def verify():
            k = i % n
            if k < len(responses):
                req = requests[k]
                raw = state.surrogate.predict(req.examples, req.query_config,
                                              seed=req.seed)
                bad.append(canonical(responses[k].prediction) != canonical(raw))

        return verify

    times = rounds_until(seconds, chunk)
    out.check(
        f"closed loop: {len(bad)} sampled responses equal raw predict",
        bad and not any(bad), f"{sum(bad)} differ",
    )
    return times


def measure(state: State, ctx) -> Outcome:
    cfg = ctx.cfg
    out = Outcome()
    mix = Mix(state.dataset, cfg, ctx.seed)
    _warm(state, mix, ctx)
    limit = cfg["p99_limit_ms"]
    results = {}
    for tag, rung in enumerate(cfg["ladder"], start=1):
        n = max(1, round(rung["rate"] * ctx.seconds * rung["share"]))
        res = _phase(state, ctx, mix, tag, rung["rate"], n)
        results[rung["name"]] = res
        out.ops += res.attempted
        out.failed_ops += res.failed
        _check_identity(out, state, rung["name"], res)
    open_share = sum(rung["share"] for rung in cfg["ladder"])
    times = _closed_loop(state, ctx, mix, out, ctx.seconds * (1.0 - open_share))
    ms = ms_per_op(cfg["closed_chunk"], [times])
    out.e2e["ms_per_op"] = ms
    slo = max(
        (res.goodput for res in results.values() if _passes(res, limit)),
        default=0.0,
    )
    for name in ("lo", "hi"):
        res = results[name]
        note = (f"{len(res.latencies)} samples ({len(res.latencies) // 50} beyond "
                f"p98) at {res.rate:g} req/s, from scheduled send")
        out.named += [
            (f"serve.{name}.p{q}_ms", 1e3 * pct(res.latencies, q), "ms", note)
            for q in (50, 90, 98)
        ]
    ladder = ", ".join(
        f"{r['name']}@{r['rate']:g}:{'pass' if _passes(results[r['name']], limit) else 'fail'}"
        for r in cfg["ladder"]
    )
    out.named += [
        ("serve.closed_rps", 1e3 / ms, "req/s",
         f"one caller waiting for each reply; at the median time of "
         f"{len(times)} chunks of {cfg['closed_chunk']} requests"),
        ("serve.slo_rps", slo, "req/s",
         f"goodput of the highest passing rung; p99 limit {limit:g} ms; {ladder}"),
        ("driver.late_p99_ms",
         1e3 * pct([x for r in results.values() for x in r.lateness], 99), "ms",
         "how late the pacer sent, all rungs"),
    ]
    return out


def _closed_loop_us(call, requests) -> tuple[float, list]:
    t0 = time.perf_counter()
    responses = [call(r) for r in requests]
    return 1e6 * (time.perf_counter() - t0) / len(requests), responses


def traced(state: State, ctx) -> Outcome:
    cfg = ctx.cfg
    out = Outcome()
    mix = Mix(state.dataset, cfg, ctx.seed)
    _warm(state, mix, ctx)
    recorder = SpanRecorder()
    rate = next(r["rate"] for r in cfg["ladder"] if r["name"] == "hi")
    # Two untraced and two traced hi-rate phases, in the order U T T U.
    n = cfg["trace_phase_requests"] // 2
    phases = {False: [], True: []}
    for tag, traced_phase in zip(range(11, 15), (False, True, True, False)):
        if traced_phase:
            with layers.tracing(recorder):
                res = _phase(state, ctx, mix, tag, rate, n)
        else:
            res = _phase(state, ctx, mix, tag, rate, n)
        phases[traced_phase].append(res)
        out.ops += res.attempted
        out.failed_ops += res.failed
        _check_identity(out, state, f"hi phase {tag}", res)
    submits = [s.duration for s in recorder.spans if s.name == "serve.submit"]
    plain = [x for r in phases[False] for x in r.latencies]
    shimmed = [x for r in phases[True] for x in r.latencies]
    stats = state.service.stats()

    # Ledger arms: raw surrogate -> in-process service -> one shard, run
    # closed-loop over the same requests in each pass.
    raw = state.surrogate
    arms = {1: [], 2: [], 3: []}
    sizes = []
    with PredictionService(workers=1) as local:
        calls = {
            1: lambda r: raw.predict(r.examples, r.query_config, seed=r.seed),
            2: local.submit,
            3: state.service.submit,
        }
        for p in range(cfg["ledger_passes"]):
            requests = mix.requests(20 + p, cfg["ledger_requests"])
            for arm in (1, 2, 3):
                us, responses = _closed_loop_us(calls[arm], requests)
                arms[arm].append(us)
                if arm == 3 and not sizes:
                    sizes = [len(pickle.dumps(r)) for r in responses]
        total_us, _ = _closed_loop_us(
            calls[3], mix.requests(30, cfg["ledger_requests"])
        )
        with layers.tracing(recorder):
            for arm in (1, 2):
                _closed_loop_us(calls[arm], mix.requests(40, cfg["ledger_requests"]))
    arm1 = statistics.median(arms[1])
    m_service = statistics.median(b - a for a, b in zip(arms[1], arms[2]))
    m_shard = statistics.median(b - a for a, b in zip(arms[2], arms[3]))
    residual = (total_us - (arm1 + m_service + m_shard)) / total_us
    out.findings.append(
        f"serve ledger: arm1 {arm1:.0f} us + service {m_service:+.0f} us + "
        f"shard {m_shard:+.0f} us = {arm1 + m_service + m_shard:.0f} us vs "
        f"{total_us:.0f} us measured on 1 shard (residual {100 * residual:+.1f}%"
        f"{'' if abs(residual) <= 0.10 else ', NOT closed within 10%'})"
    )
    out.spans = recorder.spans
    out.layer.update({
        "core.surrogate.us_per_req": arm1,
        "serve.service.marginal_us": m_service,
        "serve.shard.marginal_us": m_shard,
        "serve.response_bytes": statistics.median(sizes),
        "serve.queue_wait_p50_ms": 1e3 * stats.p50_queue_wait_s,
        "serve.queue_wait_p95_ms": 1e3 * stats.p95_queue_wait_s,
        "serve.batch_mean": stats.mean_batch_size,
        "serve.result_hit_rate": stats.result_hit_rate,
        "serve.prefix_hit_rate": stats.prefix_hit_rate,
        "serve.shard.spawn_s": state.spawn_s,
        "serve.submit_us": 1e6 * statistics.fmean(submits),
        "driver.late_p99_ms": 1e3 * pct(
            [x for r in phases[False] for x in r.lateness], 99
        ),
        "trace.overhead_frac": pct(shimmed, 50) / pct(plain, 50) - 1.0,
    })
    return out
