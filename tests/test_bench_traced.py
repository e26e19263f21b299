"""Each benchmark workload's traced run passes its own checks.

The traced run wraps the spans bench/tracing.py names and fails when a span
a workload must call never runs, so a renamed or bypassed entry point fails
here, not first in a benchmark run. A span whose target flmm no longer
defines is skipped and listed in the run's ``not_traced``; only the two
targets the update stream replaced may be listed there, so renaming any
other traced entry point fails here too.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# traced spans whose targets flmm no longer defines
UNTRACED = {"orchestrator.RoundLog.save_update", "orchestrator.RoundLog.prune_checkpoints"}


@pytest.mark.parametrize("workload", ["sim_quality", "loopback_masked", "shapley_replay"])
def test_traced_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "42",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert json.loads(lines[-1])["correct"] is True
    detail = [line for line in lines if line.startswith("detail: ")]
    assert len(detail) == 1, proc.stdout[-2000:]
    assert set(json.loads(detail[0][len("detail: "):])["not_traced"]) <= UNTRACED
