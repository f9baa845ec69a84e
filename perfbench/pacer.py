"""Open-loop load from a single thread, timed from each request's due time.

Requests are sent on a fixed schedule whatever the service does, so a
stall delays every later send; each latency runs from the request's
*scheduled* send time, which charges that delay to every request behind
the stall (no coordinated omission).  How late the pacer actually sent is
reported separately.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import CancelledError
from dataclasses import dataclass, field

import numpy as np


def arrival_offsets(rng: np.random.Generator, n: int, rate: float) -> np.ndarray:
    """``n`` Poisson arrivals at ``rate``/s, conditioned on spanning n/rate s.

    Given their count, Poisson arrivals in a window are independent
    uniform points, so the offered rate is exact while gaps stay random.
    """
    return np.sort(rng.uniform(0.0, n / rate, size=n))


@dataclass
class PhaseResult:
    rate: float
    #: Seconds from scheduled send to completion, completed requests only.
    latencies: list = field(default_factory=list)
    #: Seconds each send went out after its scheduled time.
    lateness: list = field(default_factory=list)
    failed: int = 0
    attempted: int = 0
    #: Completed requests per second over the phase (first due to last done).
    goodput: float = 0.0
    #: Responses kept for the output check, by request position.
    kept: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)


def run_open_loop(
    submit,
    requests,
    offsets,
    *,
    keep=(),
    rate: float = 0.0,
    wait_s: float = 60.0,
    clock=time.perf_counter,
    sleep=time.sleep,
) -> PhaseResult:
    """Send ``requests[i]`` at ``start + offsets[i]`` through ``submit``.

    ``submit(request)`` returns a future.  A submit that raises (shed,
    closed) and a future that fails or is still pending ``wait_s`` after
    the last send count as failed.  Responses of positions in ``keep`` are
    returned for output checks.
    """
    n = len(requests)
    keep = set(keep)
    done_at = [None] * n
    result = PhaseResult(rate=rate, attempted=n)
    cond = threading.Condition()
    outstanding = 0

    def on_done(i, future):
        nonlocal outstanding
        t = clock()
        try:
            response = future.result()
        except (Exception, CancelledError) as exc:
            result.errors.append(repr(exc))
        else:
            done_at[i] = t
            if i in keep:
                result.kept[i] = response
        with cond:
            outstanding -= 1
            cond.notify_all()

    start = clock() + 0.002
    due = [start + float(off) for off in offsets]
    for i, request in enumerate(requests):
        delay = due[i] - clock()
        if delay > 0:
            sleep(delay)
        result.lateness.append(max(0.0, clock() - due[i]))
        try:
            future = submit(request)
        except Exception as exc:
            result.errors.append(repr(exc))
            continue
        with cond:
            outstanding += 1
        future.add_done_callback(lambda f, i=i: on_done(i, f))
    with cond:
        cond.wait_for(lambda: outstanding == 0, timeout=wait_s)
    last = start
    for i in range(n):
        if done_at[i] is None:
            result.failed += 1
        else:
            result.latencies.append(done_at[i] - due[i])
            last = max(last, done_at[i])
    completed = n - result.failed
    result.goodput = completed / (last - start) if last > start else 0.0
    return result
