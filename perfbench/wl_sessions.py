"""tune-sessions: concurrent tenant tuning campaigns through SessionManager.

Each round runs a fresh set of tenant campaigns (random search and hill
climbing, seeded per tenant and round) over one in-process
``PredictionService``, with an fsynced journal.  Every step changes a
tenant's ICL context, so prompts share no prefix: the counterpart of
serve-open.  Storage sees many small fsynced appends.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro import Request, Syr2kTask, syr2k_space
from repro.dataset import Syr2kPerformanceModel
from repro.serve import PredictionService
from repro.sessions import DONE, SessionManager, TuningSession, jains_index
from repro.tuning import HillClimbTuner, RandomSearchTuner, run_tuner
from harness import Outcome, alternate, ms_per_op, pct, rounds_until
import layers
from spans import SpanRecorder

TUNERS = {"random": RandomSearchTuner, "hill-climb": HillClimbTuner}


class State:
    def __init__(self, model, service):
        self.model = model
        self.service = service

    def close(self) -> None:
        self.service.close()


def setup(ctx) -> State:
    """Import, performance model, service start and a first response."""
    model = Syr2kPerformanceModel(Syr2kTask(ctx.cfg["size"]))
    service = PredictionService(workers=1)
    space = model.space
    service.submit(Request(
        examples=[(space.from_index(0), float(model.runtimes([0])[0]))],
        query_config=space.from_index(1),
        size=ctx.cfg["size"],
    ))
    return State(model, service)


class TimedService:
    """The service handed to SessionManager: times submit -> done."""

    def __init__(self, service):
        self.service = service
        self.waits: list[float] = []
        self.submits = 0
        self._lock = threading.Lock()

    def submit_async(self, request):
        t0 = time.perf_counter()
        future = self.service.submit_async(request)
        self.submits += 1

        def done(_f):
            wait = time.perf_counter() - t0
            with self._lock:
                self.waits.append(wait)

        future.add_done_callback(done)
        return future


def tenant_plan(cfg: dict, seed: int, index: int) -> list[tuple[str, int, int]]:
    """(tuner kind, tuner seed, session seed) per tenant of one round."""
    rng = np.random.default_rng([seed, index])
    kinds = cfg["tuners"]
    return [
        (kinds[t % len(kinds)], int(rng.integers(2**31 - 1)), int(rng.integers(2**31 - 1)))
        for t in range(cfg["tenants"])
    ]


class _Rounds:
    def __init__(self, state: State, ctx, out: Outcome):
        self.state = state
        self.ctx = ctx
        self.out = out
        self.proxies = {False: TimedService(state.service)}
        self.completed: dict[str, int] = {}

    def run(self, index: int, traced: bool = False):
        """Run one round; returns its output check, or None if it failed."""
        cfg = self.ctx.cfg
        model = self.state.model
        plan = tenant_plan(cfg, self.ctx.seed, index)
        sessions = [
            TuningSession(
                f"t{t}/r{index}", f"t{t}",
                TUNERS[kind](syr2k_space(), seed=tuner_seed), model, cfg["budget"],
                seed=session_seed, context_examples=cfg["context_examples"],
            )
            for t, (kind, tuner_seed, session_seed) in enumerate(plan)
        ]
        log = self.ctx.workdir / f"journal-{self.ctx.seed}-{index}.jsonl"
        log.unlink(missing_ok=True)
        self.out.ops += cfg["tenants"] * cfg["budget"]
        try:
            with SessionManager(self.proxies[traced], sessions=sessions,
                                log_path=log) as manager:
                manager.run()
        except Exception as exc:
            self.out.failed_ops += cfg["tenants"] * cfg["budget"]
            self.out.check(f"round {index} ran", False, repr(exc))
            return None
        finally:
            log.unlink(missing_ok=True)
        self.out.failed_ops += sum(
            cfg["budget"] - len(s.history) for s in sessions
        )
        if traced:
            for s in sessions:
                self.completed[s.tenant] = self.completed.get(s.tenant, 0) + len(s.history)
        return lambda: self.check(index, sessions, plan)

    def check(self, index, sessions, plan) -> None:
        """Each campaign's history equals a plain run_tuner run."""
        bad = []
        for s, (kind, tuner_seed, _) in zip(sessions, plan):
            ref = run_tuner(
                TUNERS[kind](syr2k_space(), seed=tuner_seed),
                self.state.model, self.ctx.cfg["budget"],
            ).history
            if (s.state != DONE or s.history.indices != ref.indices
                    or s.history.runtimes != ref.runtimes):
                bad.append(s.session_id)
        self.out.check(
            f"round {index}: {len(sessions)} histories equal run_tuner",
            not bad, f"differ: {bad}",
        )


def measure(state: State, ctx) -> Outcome:
    cfg = ctx.cfg
    out = Outcome()
    rounds = _Rounds(state, ctx, out)
    times = rounds_until(ctx.seconds, lambda i, _t: rounds.run(i))
    evals = cfg["tenants"] * cfg["budget"]
    waits = rounds.proxies[False].waits
    ms = ms_per_op(evals, [times])
    out.e2e["ms_per_op"] = ms
    note = f"{len(waits)} evaluations, submit -> done"
    out.named += [
        ("sessions.evals_per_s", 1e3 / ms, "evals/s",
         f"at the median time of {len(times)} rounds of "
         f"{cfg['tenants']} tenants x {cfg['budget']} evaluations, journal fsynced"),
        ("sessions.wall_evals_per_s", evals * len(times) / sum(times), "evals/s",
         f"{evals * len(times)} evaluations in {len(times)} rounds, wall clock"),
        ("sessions.eval_p50_ms", 1e3 * pct(waits, 50), "ms", note),
        ("sessions.eval_p95_ms", 1e3 * pct(waits, 95), "ms", note),
    ]
    return out


def traced(state: State, ctx) -> Outcome:
    out = Outcome()
    rounds = _Rounds(state, ctx, out)
    recorder = SpanRecorder()
    with PredictionService(workers=1) as traced_service:
        proxy = rounds.proxies[True] = TimedService(traced_service)
        untraced_t, traced_t = alternate(
            ctx.cfg["trace_pairs"], rounds.run, lambda: layers.tracing(recorder)
        )
        stats = traced_service.stats()
    out.spans = recorder.spans
    out.layer.update({
        "sessions.submit.calls": proxy.submits,
        "sessions.service_wait_ms": 1e3 * sum(proxy.waits),
        "sessions.jain": jains_index(rounds.completed.values()),
        "serve.queue_wait_p50_ms": 1e3 * stats.p50_queue_wait_s,
        "serve.queue_wait_p95_ms": 1e3 * stats.p95_queue_wait_s,
        "serve.batch_mean": stats.mean_batch_size,
        "serve.result_hit_rate": stats.result_hit_rate,
        "serve.prefix_hit_rate": stats.prefix_hit_rate,
        "trace.overhead_frac": sum(traced_t) / sum(untraced_t) - 1.0,
    })
    return out
