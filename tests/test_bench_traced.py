"""Each benchmark workload's traced run passes its own checks.

The traced run wraps the spans bench/tracing.py names and fails when a span
a workload must call never runs, so a renamed or bypassed entry point fails
here, not first in a benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["sim_quality", "loopback_masked", "shapley_replay"])
def test_traced_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "42",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
