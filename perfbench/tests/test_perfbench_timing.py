"""The gated time per operation and the host reference it is scaled by."""

import time

import pytest

import harness


def test_ms_per_op_sums_the_median_of_each_part():
    parts = [[0.001, 0.003, 0.002], [0.010]]
    assert harness.ms_per_op(4, parts) == pytest.approx(1e3 * (0.002 + 0.010) / 4)


def test_rounds_until_samples_the_reference_after_each_round():
    before = len(harness.REFERENCE_MS)
    checked = []

    def run_round(i, _traced):
        time.sleep(0.01)
        return lambda: checked.append(i)

    times = harness.rounds_until(0.05, run_round)
    assert len(times) >= 2 and checked == list(range(1, len(times) + 1))
    # Rounds this short take one reference pass each, outside their timing.
    assert len(harness.REFERENCE_MS) - before == len(times)
