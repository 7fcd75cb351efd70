"""The benchmark's own smoke self-test must pass.

perfbench/selftest.py runs every workload at a budget of a few seconds and
checks every operation, so a change that makes a benchmark operation fail
(for example the oracle's agreement or residual-sum check) fails here
instead of only when the benchmark is run.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    # the benchmark refuses to run with a thread count set in the environment
    env = {key: value for key, value in os.environ.items() if key != "ANCOVA_CP_THREADS"}
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
