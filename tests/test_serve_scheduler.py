"""Work-conserving microbatching and in-flight request deduplication.

A free batch worker cuts its batch from whatever is already queued, so a
lone request never waits on a timer; tickets that queue up behind a busy
worker go out together.  Identical requests in flight at once decode
once: the second waits for the first's result-cache claim.
"""

import collections
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.core.surrogate import DiscriminativeSurrogate
from repro.errors import ServiceClosedError
from repro.obs import Tracer, use_tracer
from repro.serve import PredictionService, Request
from repro.serve.scheduler import MicroBatcher, Ticket


def _resolve(batch):
    for t in batch:
        if t.future.set_running_or_notify_cancel():
            t.future.set_result(len(batch))


class TestWorkConserving:
    @pytest.mark.parametrize("n_queued", [3, 4, 6])
    def test_queued_tickets_leave_as_one_batch(self, n_queued):
        """While the lone worker is busy, tickets queue; once it is free
        they go out as one batch of min(N, max_batch_size)."""
        started, release = threading.Event(), threading.Event()
        sizes = []

        def execute(batch):
            sizes.append(len(batch))
            if len(sizes) == 1:
                started.set()
                release.wait(5)
            _resolve(batch)

        mb = MicroBatcher(execute, max_batch_size=4, workers=1)
        try:
            blocker = Ticket(request_id=0, request=None)
            mb.submit(blocker)
            assert started.wait(5)
            tickets = [
                Ticket(request_id=i + 1, request=None) for i in range(n_queued)
            ]
            for t in tickets:
                mb.submit(t)
            release.set()
            for t in tickets:
                t.future.result(timeout=5)
        finally:
            mb.close()
        first = min(n_queued, 4)
        assert sizes[:2] == [1, first]
        assert sum(sizes) == 1 + n_queued

    def test_lone_ticket_does_not_wait_by_default(self):
        waits = []

        def execute(batch):
            waits.append(time.monotonic() - batch[0].enqueued_at)
            _resolve(batch)

        mb = MicroBatcher(execute, max_batch_size=64, workers=1)
        assert mb.max_wait_s == 0.0
        try:
            for i in range(5):
                ticket = Ticket(request_id=i, request=None)
                mb.submit(ticket)
                ticket.future.result(timeout=5)
        finally:
            mb.close()
        # No linger timer: the only delay is the thread hop, well under
        # the 5 ms flush timer this scheduler replaced.
        assert min(waits) < 0.004, waits

    def test_explicit_max_wait_lingers_for_company(self):
        """A lone ticket under an explicit max_wait_s waits until its
        deadline for more tickets, and a late one joins its batch."""
        sizes, waits = [], []

        def execute(batch):
            sizes.append(len(batch))
            waits.append(time.monotonic() - batch[0].enqueued_at)
            _resolve(batch)

        mb = MicroBatcher(execute, max_batch_size=8, max_wait_s=0.2, workers=1)
        try:
            first = Ticket(request_id=0, request=None)
            mb.submit(first)
            time.sleep(0.05)
            second = Ticket(request_id=1, request=None)
            mb.submit(second)
            assert first.future.result(timeout=5) == 2
            assert second.future.result(timeout=5) == 2
        finally:
            mb.close()
        assert sizes == [2]
        assert waits[0] >= 0.2

    def test_no_collector_thread(self):
        with PredictionService(workers=3):
            names = [t.name for t in threading.enumerate()]
        assert "repro-serve-collector" not in names
        assert sum(n.startswith("repro-serve-batch-") for n in names) == 3

    def test_one_flush_span_per_batch(self):
        sizes = []

        def execute(batch):
            sizes.append(len(batch))
            _resolve(batch)

        mb = MicroBatcher(execute, max_batch_size=2, workers=2)
        tracer = Tracer()
        with use_tracer(tracer):
            tickets = [Ticket(request_id=i, request=None) for i in range(5)]
            for t in tickets:
                mb.submit(t, block=True)
            for t in tickets:
                t.future.result(timeout=5)
            mb.close()
        flushes = [s for s in tracer.spans() if s.name == "serve.flush"]
        assert sorted(s.attributes["batch_size"] for s in flushes) == sorted(
            sizes
        )
        assert sum(sizes) == 5

    def test_stress_every_ticket_runs_once(self):
        """More workers than cores and a tiny switch interval: every
        ticket executes exactly once and flush indices never repeat."""

        class Faults:
            def __init__(self):
                self.indices = []

            def before_flush(self, index):
                self.indices.append(index)

        faults = Faults()
        runs = collections.Counter()

        def execute(batch):
            for t in batch:
                runs[t.request_id] += 1
            _resolve(batch)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            mb = MicroBatcher(
                execute, max_batch_size=3, workers=6, fault_injector=faults
            )
            tickets = [Ticket(request_id=i, request=None) for i in range(300)]
            for t in tickets:
                mb.submit(t, block=True)
            for t in tickets:
                t.future.result(timeout=10)
            mb.close()
        finally:
            sys.setswitchinterval(switch)
        assert runs == {i: 1 for i in range(300)}
        assert faults.indices == list(range(1, len(faults.indices) + 1))

    def test_nondrain_close_outlasts_submits_racing_it(self):
        """Two submits that passed the closed check land after close()
        swept the queue: the worker fails the first, and must keep taking
        items so the second frees the slot close() puts its sentinel in."""
        mb = MicroBatcher(_resolve, workers=1, queue_capacity=1)
        raced = [Ticket(request_id=i, request=None) for i in range(2)]
        sweep = mb._drain_queue

        def sweep_then_race(settle):
            sweep(settle)
            if not raced[0].future.done():
                mb._queue.put(raced[0])
                raced[0].future.exception(timeout=5)
                mb._queue.put(raced[1])

        mb._drain_queue = sweep_then_race
        closer = threading.Thread(
            target=mb.close, kwargs={"drain": False}, daemon=True
        )
        closer.start()
        closer.join(10)
        assert not closer.is_alive(), "close(drain=False) hung"
        for ticket in raced:
            assert isinstance(
                ticket.future.exception(timeout=5), ServiceClosedError
            )

    def test_nondrain_close_with_blocked_submitters_returns(self):
        """close(drain=False) returns while blocking submitters crowd a
        one-slot queue behind a busy worker, and every submitter ends in
        a response or ServiceClosedError."""
        started, release = threading.Event(), threading.Event()

        def execute(batch):
            started.set()
            release.wait(5)
            _resolve(batch)

        mb = MicroBatcher(execute, workers=1, queue_capacity=1)
        blocker = Ticket(request_id=0, request=None)
        mb.submit(blocker)
        assert started.wait(5)
        outcomes = []

        def submit(i):
            ticket = Ticket(request_id=i, request=None)
            try:
                mb.submit(ticket, block=True)
                outcomes.append(ticket.future.result(timeout=5))
            except ServiceClosedError as exc:
                outcomes.append(exc)

        submitters = [
            threading.Thread(target=submit, args=(i,), daemon=True)
            for i in range(1, 7)
        ]
        for t in submitters:
            t.start()
        time.sleep(0.1)
        closer = threading.Thread(
            target=mb.close, kwargs={"drain": False}, daemon=True
        )
        closer.start()
        time.sleep(0.05)
        release.set()
        closer.join(10)
        assert not closer.is_alive(), "close(drain=False) hung"
        for t in submitters:
            t.join(10)
            assert not t.is_alive(), "a blocking submit hung"
        assert blocker.future.result(timeout=5) == 1
        assert len(outcomes) == 6
        assert all(
            isinstance(o, (int, ServiceClosedError)) for o in outcomes
        ), outcomes


@pytest.fixture(scope="module")
def examples(sm_dataset):
    return [
        (sm_dataset.config(i), float(sm_dataset.runtimes[i]))
        for i in range(4)
    ]


class CountingSurrogate(DiscriminativeSurrogate):
    """Slowed surrogate counting decodes; the first ``fail_first`` raise."""

    delay_s = 0.2
    fail_first = 0

    def __init__(self, task):
        super().__init__(task)
        self.calls = 0
        self._lock = threading.Lock()

    def predict_parts(self, parts, seed=0, analysis=None):
        with self._lock:
            self.calls += 1
            fail = self.calls <= self.fail_first
        time.sleep(self.delay_s)
        if fail:
            raise RuntimeError("injected decode failure")
        return super().predict_parts(parts, seed=seed, analysis=analysis)


class TestInflightDedup:
    def _request(self, sm_dataset, examples):
        return Request(
            examples=examples, query_config=sm_dataset.config(42), seed=3,
            size="SM",
        )

    def test_identical_concurrent_requests_decode_once(
        self, sm_task, sm_dataset, examples
    ):
        slow = CountingSurrogate(sm_task)
        with PredictionService(slow, max_batch_size=1, workers=2) as svc:
            futures = [
                svc.submit_async(self._request(sm_dataset, examples))
                for _ in range(2)
            ]
            first, second = (f.result(timeout=10) for f in futures)
            stats = svc.stats()
        assert slow.calls == 1
        assert first.prediction is second.prediction
        assert (stats.result_hits, stats.result_misses) == (1, 1)
        assert sorted([first.result_cache_hit, second.result_cache_hit]) == [
            False, True,
        ]

    def test_failing_owner_does_not_wedge_waiter(
        self, sm_task, sm_dataset, examples
    ):
        slow = CountingSurrogate(sm_task)
        slow.fail_first = 1
        with PredictionService(slow, max_batch_size=1, workers=2) as svc:
            futures = [
                svc.submit_async(self._request(sm_dataset, examples))
                for _ in range(2)
            ]
            outcomes = []
            for f in futures:
                try:
                    outcomes.append(f.result(timeout=10).prediction)
                except RuntimeError:
                    outcomes.append(None)
        assert slow.calls == 2
        assert outcomes.count(None) == 1
        (got,) = [o for o in outcomes if o is not None]
        want = DiscriminativeSurrogate(sm_task).predict(
            examples, sm_dataset.config(42), seed=3
        )
        assert (got.value, got.generated_text) == (
            want.value, want.generated_text,
        )


    def test_stress_each_key_decodes_once(
        self, sm_task, sm_dataset, examples
    ):
        """Six workers race twelve copies of each of four requests."""
        fast = CountingSurrogate(sm_task)
        fast.delay_s = 0.001
        requests = [
            Request(
                examples=examples, query_config=sm_dataset.config(40 + k % 2),
                seed=k // 2, size="SM",
            )
            for k in range(4)
        ] * 12
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with PredictionService(fast, max_batch_size=1, workers=6) as svc:
                futures = [svc.submit_async(r) for r in requests]
                responses = [f.result(timeout=30) for f in futures]
        finally:
            sys.setswitchinterval(switch)
        assert fast.calls == 4
        for k in range(4):
            assert len({id(r.prediction) for r in responses[k::4]}) == 1


def test_serving_path_does_not_import_scipy():
    """scipy serves only the analysis and tuning paths; importing the
    package and the shard worker must not pay for it."""
    src = str(Path(repro.__file__).resolve().parents[1])
    code = (
        "import sys, repro, repro.serve.shard; "
        "sys.exit('scipy' in sys.modules)"
    )
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
