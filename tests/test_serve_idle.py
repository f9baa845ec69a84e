"""An idle service must be CPU-quiet: no busy-wait in the batch workers.

The micro-batcher's forming worker blocks in ``queue.get`` between
arrivals, and the other workers block on the forming lock.  A regression
that turns either wait into a spin would burn a full core on every idle
service — invisible to functional tests, ruinous for a nightly soak
that holds a service open for a minute.  This pins the contract: a
service with zero queued requests consumes a negligible fraction of one
CPU.
"""

from __future__ import annotations

import time

from repro.serve import PredictionService


def test_idle_service_is_cpu_quiet():
    with PredictionService() as service:
        # Let the batch-worker threads finish starting before sampling.
        time.sleep(0.1)
        cpu0 = time.process_time()
        wall0 = time.monotonic()
        time.sleep(0.8)
        cpu = time.process_time() - cpu0
        wall = time.monotonic() - wall0
    # A spinning worker would burn ~1.0 CPU-second here; the blocking
    # waits measure ~0.001.  15% leaves room for slow CI runners while
    # still failing any real busy-wait instantly.
    assert cpu < 0.15 * wall, (
        f"idle service burned {cpu:.3f}s CPU over {wall:.3f}s wall — "
        "a batch-worker loop is busy-waiting"
    )


def test_idle_service_stays_responsive_after_quiet_period():
    """Quietness must not come from the workers wedging themselves."""
    from repro.loadgen import LoadDriver, LoadSpec, WorkloadMix

    spec = LoadSpec(
        arrival="constant", rps=20.0, duration_s=0.2, seed=3,
        mix=WorkloadMix(n_unique=2, n_tenants=1, seed_lanes=1),
        warmup=False,
    )
    with PredictionService() as service:
        time.sleep(0.6)  # idle stretch first
        report = LoadDriver(spec).run(service)
    assert report.offered == 4
    assert report.ok == 4
