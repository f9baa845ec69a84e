"""The open-loop pacer charges a stall to every request behind it."""

from concurrent.futures import Future

import numpy as np
import pytest

from pacer import arrival_offsets, run_open_loop


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class StallingService:
    """Answers instantly, except that one submit blocks for ``stall_s``."""

    def __init__(self, clock, stall_at, stall_s):
        self.clock = clock
        self.stall_at = stall_at
        self.stall_s = stall_s
        self.calls = 0

    def submit(self, request):
        if self.calls == self.stall_at:
            self.clock.now += self.stall_s
        self.calls += 1
        future = Future()
        future.set_result(request)
        return future


def test_stall_is_charged_to_every_later_request():
    clock = FakeClock()
    service = StallingService(clock, stall_at=3, stall_s=0.5)
    offsets = [0.1 * i for i in range(10)]
    result = run_open_loop(
        service.submit, list(range(10)), offsets,
        clock=clock, sleep=clock.sleep,
    )
    assert result.failed == 0
    lat = result.latencies
    # Requests before the stall are on time.
    assert lat[:3] == pytest.approx([0.0] * 3)
    # Request 3 waits out the whole stall; each later request scheduled
    # during it waits until the stall ends, measured from its due time.
    for i in range(3, 8):
        assert lat[i] == pytest.approx(0.5 - 0.1 * (i - 3), abs=1e-9)
    assert lat[8:] == pytest.approx([0.0, 0.0], abs=1e-9)
    # The pacer reports how late it sent (the stalled request itself went
    # out on time; the next four went out late).
    assert max(result.lateness) == pytest.approx(0.4)


def test_failed_submits_and_futures_count_as_failed():
    def submit(request):
        if request == 1:
            raise RuntimeError("shed")
        future = Future()
        if request == 2:
            future.set_exception(ValueError("boom"))
        else:
            future.set_result(request)
        return future

    clock = FakeClock()
    result = run_open_loop(submit, [0, 1, 2, 3], [0, 0.1, 0.2, 0.3],
                           clock=clock, sleep=clock.sleep)
    assert result.attempted == 4
    assert result.failed == 2
    assert len(result.latencies) == 2


def test_arrivals_hit_the_offered_rate_exactly():
    offsets = arrival_offsets(np.random.default_rng(1), 500, 100.0)
    assert len(offsets) == 500
    assert np.all(np.diff(offsets) >= 0)
    assert 0 <= offsets[0] and offsets[-1] <= 5.0
