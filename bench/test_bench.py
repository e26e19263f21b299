"""Tests of the benchmark itself (not collected by the tier-1 suite).

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (puts this checkout's flmm on the path)
from run import tracing, workloads  # noqa: E402
from flmm.simulate import run_simulation  # noqa: E402

PINNED = json.loads((BENCH / "pinned.json").read_text())


def repetition(name: str, workdir: Path, tracer=None) -> run.Repetition:
    return run.run_once(workloads.WORKLOADS[name], workloads.DEFAULT_SEED,
                        workdir, tracer)


@pytest.fixture(scope="module")
def socket_rep(tmp_path_factory):
    return repetition("loopback_masked", tmp_path_factory.mktemp("sock") / "w")


def test_loopback_in_process_matches_socket(socket_rep, tmp_path):
    """README's in-process == real-socket claim, with masking and DP on."""
    cfg = workloads.load_scenario(
        workloads.loopback_masked_ini(workloads.DEFAULT_SEED), str(tmp_path))
    assert cfg.quality.iters == 0
    result = run_simulation(cfg, str(tmp_path / "out"))
    assert socket_rep.outcome.errors == []
    assert workloads.block_crcs(result.final_model) == \
        socket_rep.outcome.bits["final_blocks"] == \
        PINNED["loopback_masked"]["final_blocks"]


def test_gate_fails_on_a_wrong_pinned_crc(socket_rep):
    reps = [socket_rep, socket_rep]
    pinned = dict(PINNED["loopback_masked"])
    assert run.gate("loopback_masked", workloads.DEFAULT_SEED, reps, pinned) == []
    name, crc = pinned["final_blocks"].split(";")[0].split(":")
    wrong = f"{int(crc, 16) ^ 1:08x}"
    pinned["final_blocks"] = pinned["final_blocks"].replace(f"{name}:{crc}",
                                                            f"{name}:{wrong}")
    errors = run.gate("loopback_masked", workloads.DEFAULT_SEED, reps, pinned)
    assert len(errors) == 1 and "final_blocks" in errors[0]


def _runnable_threads(skip: int) -> int:
    """This process's threads in state R, not counting thread ``skip``."""
    n = 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) == skip:
            continue
        try:
            with open(f"/proc/self/task/{tid}/stat") as f:
                state = f.read().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue  # thread ended while listing
        n += state == "R"
    return n


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_runnable_threads(name, tmp_path):
    """Only the sweeping thread and one connection handler work at a time.

    The socket server's acceptor thread also wakes for each connection (one
    per request), and the previous handler thread may still be exiting, so
    for an instant three or four threads can be runnable on two cores; that
    must stay rare (0.15% of samples when measured).
    """
    seen = []
    done = threading.Event()

    def sample():
        me = threading.get_native_id()
        while not done.is_set():
            seen.append(_runnable_threads(me))
            done.wait(0.001)

    sampler = threading.Thread(target=sample)
    sampler.start()
    try:
        rep = repetition(name, tmp_path / "w", tracing.Tracer(
            extra_modules=(workloads,)))
    finally:
        done.set()
        sampler.join(timeout=10)
    assert not sampler.is_alive()
    assert rep.outcome.errors == []
    assert rep.outcome.bits == PINNED[name]
    assert len(seen) > 100
    nproc = len(os.sched_getaffinity(0))
    if name == "loopback_masked":
        # sweeper and handler; the acceptor and an exiting handler only briefly
        assert sum(n > nproc for n in seen) <= 0.01 * len(seen)
    else:
        assert max(seen) <= 1


def test_exits_nonzero_without_the_program(tmp_path):
    """With only BENCHMARK.json and bench/ present, no result is printed."""
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim_quality", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
