"""The entry points are safe to re-import under spawn/forkserver.

A worker started by ``spawn`` or ``forkserver`` imports the parent's main
script as ``__mp_main__``; code outside the ``__main__`` guard would then
run again in the shard and kill it at start-up.
"""

import runpy
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]


def test_run_is_inert_when_imported_as_mp_main(capsys):
    runpy.run_path(str(BENCH / "run.py"), run_name="__mp_main__")
    runpy.run_path(str(BENCH / "setup_probe.py"), run_name="__mp_main__")
    assert capsys.readouterr().out == ""


def test_setup_probe_spawns_a_shard_from_a_script():
    # serve-open's set-up starts a one-shard service through the
    # forkserver/spawn start method from a script entry point.
    out = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), "serve-open"],
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert float(out.stdout.strip().splitlines()[-1]) > 0
