"""Pieces every workload shares: outcomes, timing, memory, host calibration."""

from __future__ import annotations

import contextlib
import gc
import multiprocessing
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent


@dataclass
class Context:
    workload: str
    seed: int
    seconds: float
    #: Scratch directory for checkpoints and journals, inside the checkout.
    workdir: Path
    #: This workload's traffic dimensions from ``spec.json``.
    cfg: dict


@dataclass
class Outcome:
    """What one run measured and checked."""

    #: Operations attempted / failed (exceptions, sheds, timeouts).
    ops: int = 0
    failed_ops: int = 0
    #: ``(name, ok, detail)`` per output check.
    checks: list = field(default_factory=list)
    #: The workload's share of the end-to-end metrics (``ms_per_op``).
    e2e: dict = field(default_factory=dict)
    #: ``(name, value, unit, note)`` lines under the workload's own names.
    named: list = field(default_factory=list)
    #: Figures for the per-layer ledger that spans cannot see.
    layer: dict = field(default_factory=dict)
    #: Spans of the traced segments (traced runs only).
    spans: list | None = None
    #: Findings printed with the result; they never fail the run.
    findings: list = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return bool(ok)


def process_age_s() -> float:
    """Seconds since this process started (Linux: from /proc)."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start_ticks = int(fields[19])
        boot_now = time.clock_gettime(time.CLOCK_BOOTTIME)
        return boot_now - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _IMPORTED_AT


_IMPORTED_AT = time.perf_counter()


def children_peak_kb() -> int:
    """Summed peak RSS of this process's live multiprocessing children."""
    total = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1])
        except OSError:
            pass
    return total


def stop_mp_helpers() -> None:
    """Stop and wait for the forkserver and resource tracker processes.

    ``multiprocessing`` starts them on first use and leaves them to exit
    after this process does; a benchmark run must end with every process
    it caused to start.  ``_stop`` is the standard library's own shutdown
    hook for them.  Callers drop their services first: the collection
    below releases the queues' semaphores before the tracker stops.
    """
    from multiprocessing import forkserver, resource_tracker

    gc.collect()

    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


def own_peak_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class _Reference:
    """A fixed numpy plus pure-Python loop, the host's speed gauge.

    The loop allocates nothing while timed: first-touch page faults cost
    far more on some virtual machines than the arithmetic does.
    """

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.a = rng.standard_normal((160, 160))
        self.product = np.empty_like(self.a)
        self.v = rng.standard_normal(200_000)
        self.work = np.empty_like(self.v)

    def once_ms(self) -> float:
        t0 = time.perf_counter()
        for _ in range(8):
            np.matmul(self.a, self.a, out=self.product)
        self.work[:] = self.v
        self.work.sort()
        acc = 0
        for i in range(150_000):
            acc += (i * i) % 7
        return 1e3 * (time.perf_counter() - t0)


_REFERENCE: _Reference | None = None

#: Reference-loop times (ms) taken between the timed units of this run.
REFERENCE_MS: list[float] = []


def sample_reference(unit_s: float) -> None:
    """Time the reference loop about once per 0.4 s of the unit just run
    (a 4-5% overhead)."""
    global _REFERENCE
    if _REFERENCE is None:
        _REFERENCE = _Reference()
        _REFERENCE.once_ms()
    REFERENCE_MS.extend(
        _REFERENCE.once_ms() for _ in range(max(1, round(unit_s / 0.4)))
    )


def calibrate_ms(reps: int = 5) -> float:
    """Median time of the reference loop on this host."""
    ref = _Reference()
    ref.once_ms()
    ref.once_ms()
    return statistics.median(ref.once_ms() for _ in range(reps))


def pct(values, q: float) -> float:
    """The q-th percentile (linear interpolation) of ``values``."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def ms_per_op(work: float, times_by_part) -> float:
    """Milliseconds per operation, where one of each part does ``work``
    operations, at the median wall time of each part."""
    return 1e3 * sum(statistics.median(t) for t in times_by_part) / work


def setup_probe_s(workload: str) -> float:
    """One more set-up, in a fresh process: seconds from its start to ready."""
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload],
        check=True, capture_output=True, text=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def rounds_until(seconds: float, run_round) -> list[float]:
    """Run ``run_round(i, False)`` for i = 1, 2, ... while time remains.

    ``run_round`` may return a callable that checks the round's outputs;
    it runs after the clock stops, and the reference loop is sampled
    after it.  A new round starts only if the last one would still fit,
    so a run measures close to ``seconds`` whatever a round costs.
    Returns the per-round wall times.
    """
    times: list[float] = []
    i = 1
    while True:
        t0 = time.perf_counter()
        verify = run_round(i, False)
        times.append(time.perf_counter() - t0)
        if verify is not None:
            verify()
        sample_reference(times[-1])
        i += 1
        if sum(times) + times[-1] > seconds:
            return times


def alternate(pairs: int, run_round, tracing) -> tuple[list, list]:
    """Alternate untraced and traced rounds, swapping which goes first.

    ``tracing()`` is a context manager that installs the span shims; it is
    entered outside the timed region, and a round's output check runs
    outside it.  Returns the untraced and the traced round wall times.
    """
    times: dict[bool, list[float]] = {False: [], True: []}
    i = 1
    for p in range(pairs):
        for traced in ((False, True) if p % 2 == 0 else (True, False)):
            with tracing() if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                verify = run_round(i, traced)
                times[traced].append(time.perf_counter() - t0)
            if verify is not None:
                verify()
            i += 1
    return times[False], times[True]
