"""Work-conserving microbatching: batch workers cut their own batches.

Each batch worker loops: take the forming lock, block until a ticket
arrives on the bounded admission queue, take the tickets already queued
(up to ``max_batch_size``), linger until the first has waited
``max_wait_s`` (default 0: not at all), release the lock and execute.
Batches thus form only from queued work (Clipper's adaptive batching,
Crankshaw et al., NSDI 2017): a free worker never holds a request back,
and batches grow while every worker is busy.  One batch forms at a time,
so same-prompt tickets queued together meet in one batch.  The queue
bound is the backpressure, and idle workers block, burning no CPU.

Workers resolve through :func:`repro.utils.parallel.effective_workers`
with oversubscription allowed: batch execution is in-process Python with
no IO, so more workers than cores keep batches flowing past cache locks.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ServiceClosedError, ServiceOverloadedError
from repro.obs import get_tracer
from repro.serve.request import Request
from repro.utils.parallel import effective_workers

__all__ = ["Ticket", "MicroBatcher"]


@dataclass
class Ticket:
    """One admitted request travelling through the scheduler.

    ``trace_parent`` carries the submitting thread's innermost span id
    across the thread hop to the batch worker, so the worker-side
    ``serve.request`` span parents into the caller's trace (e.g. under a
    ``resilience.attempt`` span).  ``None`` when tracing is off or the
    caller had no open span.

    ``group_key`` is the request's seed-independent prompt digest (set by
    the service when prefix reuse is on, empty otherwise): flushes
    stable-sort by it so same-prompt tickets sit adjacently in the batch
    and can share one lockstep decode.
    """

    request_id: int
    request: Request
    future: Future = field(default_factory=Future)
    enqueued_at: float = field(default_factory=time.monotonic)
    trace_parent: int | None = None
    group_key: str = ""


#: Queue marker that tells the batch workers to stop.
_STOP = object()


class MicroBatcher:
    """Batch queued requests and execute them on self-scheduling workers.

    Parameters
    ----------
    execute_batch:
        Callback receiving a non-empty ``list[Ticket]``; it must resolve
        every ticket's future (result or exception) and never raise.
    max_batch_size:
        Most tickets one batch takes; also the denominator of batch
        occupancy.
    max_wait_s:
        Longest a forming batch lingers for more tickets, counted from
        its first ticket's enqueue time.  ``0`` (default) cuts a batch
        from whatever is queued the moment a worker is free.
    queue_capacity:
        Bound on admitted-but-unbatched tickets; beyond it
        :meth:`submit` raises :class:`ServiceOverloadedError`.
    workers:
        Batch-worker count (resolved with oversubscription allowed;
        ``None`` uses the clamped default).  It also bounds the batches
        executing at once.
    fault_injector:
        Optional :class:`repro.faults.FaultInjector`; its
        ``before_flush`` hook runs on every flush (queue-stall
        injection), keyed on the flush index, while the forming lock is
        held — a stall holds up all batching.
    """

    def __init__(
        self,
        execute_batch: Callable[[list[Ticket]], None],
        *,
        max_batch_size: int = 8,
        max_wait_s: float = 0.0,
        queue_capacity: int = 1024,
        workers: int | None = None,
        fault_injector=None,
    ):
        if max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1, got {max_batch_size}"
            )
        if max_wait_s < 0:
            raise ValueError(f"max_wait_s must be >= 0, got {max_wait_s}")
        if queue_capacity < 1:
            raise ValueError(
                f"queue_capacity must be >= 1, got {queue_capacity}"
            )
        self.max_batch_size = int(max_batch_size)
        self.max_wait_s = float(max_wait_s)
        self.queue_capacity = int(queue_capacity)
        self._execute_batch = execute_batch
        self._queue: queue.Queue = queue.Queue(maxsize=queue_capacity)
        self._faults = fault_injector
        self._flush_count = 0
        #: Held by the one worker forming a batch; also guards
        #: _flush_count and _stopped (set once a worker took the sentinel).
        self._forming = threading.Lock()
        self._stopped = False
        #: False once close(drain=False) began: forming batches fail.
        self._drain_on_close = True
        self._closed = threading.Event()
        nworkers = effective_workers(workers, allow_oversubscription=True)
        self._workers = [
            threading.Thread(
                target=self._work, name=f"repro-serve-batch-{i}", daemon=True
            )
            for i in range(nworkers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------ #
    def submit(self, ticket: Ticket, *, block: bool = False) -> None:
        """Admit a ticket, raising on shutdown or backpressure.

        With ``block=True`` a full queue waits for space instead of
        raising (cooperative backpressure for bulk submitters); the
        workers keep draining, so the wait always progresses.
        """
        if self._closed.is_set():
            raise ServiceClosedError("service is shut down")
        # The admission span covers any cooperative-backpressure wait on
        # a full queue — that wait is exactly the signal worth seeing.
        with get_tracer().span(
            "serve.submit", request_id=ticket.request_id, block=block
        ):
            if block:
                self._queue.put(ticket)
            else:
                try:
                    self._queue.put_nowait(ticket)
                except queue.Full:
                    raise ServiceOverloadedError(
                        self.queue_capacity, depth=self._queue.qsize()
                    ) from None
        # close() may have raced the enqueue, and the workers may already
        # have taken the sentinel.  Cancelling wins only while the ticket
        # is still pending: one a worker picked up completes normally.
        # Once the workers stopped, cancel the other orphans too, freeing
        # the slots that submitters blocked on a full queue wait for.
        if self._closed.is_set():
            if self._stopped:
                self._drain_queue(lambda queued: queued.future.cancel())
            if ticket.future.cancel():
                raise ServiceClosedError("service shut down during submission")

    def close(self, drain: bool = True) -> None:
        """Stop admissions and shut the scheduler down.

        With ``drain=True`` (graceful), every already-admitted ticket is
        batched and executed before the workers stop.  With
        ``drain=False``, unbatched tickets fail with
        :class:`ServiceClosedError` — including a batch a worker is still
        lingering on — and only batches already executing run to
        completion.

        Idempotent; safe to call from ``with``-exit and explicitly.
        """
        if self._closed.is_set():
            return
        self._drain_on_close = drain
        self._closed.set()
        if not drain:
            # Reject everything still queued before the sentinel lands.
            self._drain_queue(_fail_closed)
        self._queue.put(_STOP)
        for worker in self._workers:
            worker.join()
        # Cancel tickets enqueued after the sentinel (submits racing
        # close); each racing submitter then raises ServiceClosedError.
        self._drain_queue(lambda ticket: ticket.future.cancel())

    def _drain_queue(self, settle: Callable[[Ticket], object]) -> None:
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if isinstance(item, Ticket):
                settle(item)

    # ------------------------------------------------------------------ #
    def _work(self) -> None:
        """Batch-worker loop: cut the next batch and execute it."""
        while (batch := self._next_batch()) is not None:
            self._execute_batch(batch)

    def _next_batch(self) -> list[Ticket] | None:
        """Form one batch under the forming lock (``None``: stop)."""
        with self._forming:
            while not self._stopped:
                first = self._queue.get()
                if first is _STOP:
                    self._stopped = True
                    return None
                batch = [first]
                # The linger deadline is anchored at the first ticket's
                # *enqueue* time: time it already spent queued behind busy
                # workers counts against max_wait_s.
                deadline = first.enqueued_at + self.max_wait_s
                while len(batch) < self.max_batch_size:
                    try:
                        item = self._queue.get(
                            timeout=max(deadline - time.monotonic(), 0.0)
                        )
                    except queue.Empty:
                        break
                    if item is _STOP:
                        self._stopped = True
                        break
                    batch.append(item)
                if self._drain_on_close:
                    self._flush(batch)
                    return batch
                # Non-drain close: fail it and keep taking items until the
                # sentinel, so blocked puts (the sentinel's too) get in.
                for ticket in batch:
                    _fail_closed(ticket)
            return None

    def _flush(self, batch: list[Ticket]) -> None:
        if len(batch) > 1 and any(t.group_key for t in batch):
            # Stable sort: same-prompt tickets become adjacent (one
            # lockstep decode group downstream) while admission order is
            # preserved within each group.
            batch.sort(key=lambda t: t.group_key)
        # The flush span covers the injected stall — time a formed batch
        # loses before its worker runs it.
        with get_tracer().span("serve.flush", batch_size=len(batch)) as span:
            if self._faults is not None:
                self._flush_count += 1
                span.set(flush_index=self._flush_count)
                self._faults.before_flush(self._flush_count)


def _fail_closed(ticket: Ticket) -> None:
    """Fail an unexecuted ticket with ServiceClosedError (skip if the
    caller already cancelled it, e.g. a timed-out blocking submit)."""
    if ticket.future.set_running_or_notify_cancel():
        ticket.future.set_exception(
            ServiceClosedError("service shut down before execution")
        )
