"""One workload set-up in a fresh process.

    python3 perfbench/setup_probe.py <workload>

Prints the seconds from this process's start until the workload is ready
for its first timed operation (imports, datasets, surrogates, and for
serve-open the shard spawn and its first response).
"""

import sys


def main() -> None:
    import harness
    import run

    name = sys.argv[1]
    module = run.load_workload(name)
    ctx = harness.Context(workload=name, seed=0, seconds=0.0, workdir=None,
                          cfg=run.load_cfg(name))
    state = module.setup(ctx)
    age = harness.process_age_s()
    state.close()
    del state
    harness.stop_mp_helpers()
    print(f"{age:.6f}")


if __name__ == "__main__":
    main()
