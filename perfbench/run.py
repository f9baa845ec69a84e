"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 25 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics untraced; ``--trace 1`` puts span shims on the layer boundaries
and reports the per-layer ledger instead.  The last line of standard
output is the JSON result; the lines before it give the same figures
under the workload's own metric names, with units and sample counts.
The exit code is non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = {
    "paper-grid": "wl_grid",
    "gbt-table1": "wl_gbt",
    "serve-open": "wl_serve",
    "tune-sessions": "wl_sessions",
}

#: numpy's BLAS runs one thread: its idle workers spin, and on a small or
#: shared host they take the CPU from the program being measured.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}

#: How many set-ups ``setup_s`` is the median of (this run's own plus
#: fresh processes): one sample alone spread up to 0.36 between runs.
SETUP_SAMPLES = 3

E2E_UNITS = {"setup_s": "s", "rss_peak_mb": "MB", "norm_ms_per_op": "ms"}

#: What the reference loop (``harness._Reference``) takes on an unloaded
#: development host (2-vCPU Xeon VM, median of quiet runs).  The gated
#: times are scaled to a host that runs the loop in this time: the host's
#: speed drifted by up to 2x from one stretch of minutes to the next.
REFERENCE_NOMINAL_MS = 12.0


def load_workload(name: str):
    """Import ``repro`` from the checkout and the workload's module."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"no repro package under {src}")
    os.environ.update(BLAS_THREADS)
    # Keep multiprocessing's temporary sockets inside the checkout, unless
    # the path would be too long for a Unix socket address.
    tmp = ROOT / ".perfbench" / "tmp"
    if len(str(tmp)) <= 60:
        tmp.mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = str(tmp)
    sys.path.insert(0, str(src))
    import importlib

    return importlib.import_module(WORKLOADS[name])


def load_cfg(name: str) -> dict:
    with open(HERE / "spec.json") as fh:
        return json.load(fh)["workloads"][name]


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    module = load_workload(args.workload)
    import numpy as np

    import harness
    import layers
    import spans

    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ctx = harness.Context(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        workdir=workdir, cfg=load_cfg(args.workload),
    )
    state = module.setup(ctx)
    setups = [harness.process_age_s()]
    try:
        out = (module.traced if args.trace else module.measure)(state, ctx)
        children_kb = harness.children_peak_kb()
    finally:
        state.close()
    rss_mb = (harness.own_peak_kb() + children_kb) / 1024.0
    calib_ms = harness.calibrate_ms()
    del state
    harness.stop_mp_helpers()
    setups += [harness.setup_probe_s(args.workload) for _ in range(SETUP_SAMPLES - 1)]
    setup_wall_s = statistics.median(setups)

    failed_checks = [c for c in out.checks if not c[1]]
    attempted = out.ops + len(out.checks)
    failed = out.failed_ops + len(failed_checks)
    correct = not failed_checks and out.failed_ops == 0

    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "host.calib_ms": round(calib_ms, 3),
        "trace.overhead_frac": out.layer.get("trace.overhead_frac"),
        "setup_samples_s": [round(s, 4) for s in setups],
    }
    print("# meta " + json.dumps(meta))
    for name, value, unit, note in out.named:
        print(f"{name:<26} {value:12.4f} {unit:<9} {note}")
    print(f"{'setup_wall_s':<26} {setup_wall_s:12.4f} {'s':<9} median of "
          f"{len(setups)} set-ups, on this host as it ran")
    print(f"{'rss_peak_mb':<26} {rss_mb:12.4f} {'MB':<9} this process + shard children")
    print(f"{'error_rate':<26} {failed / attempted:12.4f} {'ratio':<9} "
          f"{failed} failed of {attempted} attempted (incl. {len(out.checks)} checks)")
    for name, ok, detail in out.checks:
        if not ok:
            print(f"CHECK FAILED: {name} {detail}")
    for finding in out.findings:
        print(f"finding: {finding}")

    if args.trace:
        values, bases = layers.ledger(
            out.spans or [], {**out.layer, "host.calib_ms": calib_ms}
        )
        units = dict(layers.PER_LAYER)
        for name, unit in units.items():
            base = bases.get(name, "") if values[name] else ""
            print(f"{name:<30} {values[name]:14.4f} {unit:<9} {base}")
        spans_path = workdir.parent / f"spans-{args.workload}-{args.seed}.jsonl"
        spans.write_spans(out.spans or [], spans_path)
        print(f"# {len(out.spans or [])} spans written to {spans_path.relative_to(ROOT)}")
    else:
        ref_ms = statistics.median(harness.REFERENCE_MS)
        scale = REFERENCE_NOMINAL_MS / ref_ms
        print(f"{'ms_per_op':<26} {out.e2e['ms_per_op']:12.4f} {'ms':<9} "
              f"wall, on this host as it ran")
        print(f"{'host.reference_ms':<26} {ref_ms:12.4f} {'ms':<9} median of "
              f"{len(harness.REFERENCE_MS)} reference-loop passes between units")
        values = {
            "norm_ms_per_op": out.e2e["ms_per_op"] * scale,
            "setup_s": setup_wall_s * scale,
            "rss_peak_mb": rss_mb,
        }
        print(f"{'norm_ms_per_op':<26} {values['norm_ms_per_op']:12.4f} {'ms':<9} "
              f"ms_per_op x {REFERENCE_NOMINAL_MS:g} / host.reference_ms")
        print(f"{'setup_s':<26} {values['setup_s']:12.4f} {'s':<9} "
              f"setup_wall_s x {REFERENCE_NOMINAL_MS:g} / host.reference_ms")
        units = E2E_UNITS
    shutil.rmtree(workdir, ignore_errors=True)
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in units.items()
    }
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
