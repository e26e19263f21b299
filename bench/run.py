#!/usr/bin/env python3
"""flmm benchmark: three closed-loop workloads with an output-bit gate.

One workload, as BENCHMARK.json's command runs it (last stdout line is JSON):

    python3 bench/run.py --workload sim_quality --seed 42 --seconds 35 --trace 0

Every workload, untraced then traced, printing each end-to-end metric with
its unit and sample count and writing bench/results.json:

    python3 bench/run.py --all

Re-pin the output bits of one workload for the default seed:

    python3 bench/run.py --workload sim_quality --pin

See bench/README.md for the workloads, metrics and layer map.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PINNED = BENCH / "pinned.json"
RESULTS = BENCH / "results.json"
MIN_REPETITIONS = 3


def import_flmm():
    """Import flmm from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import flmm
    except ImportError as e:
        raise SystemExit(f"bench: cannot import flmm from {SRC}: {e}")
    if Path(flmm.__file__).resolve().parent != SRC / "flmm":
        raise SystemExit(f"bench: flmm imported from {flmm.__file__}, not {SRC}")


import_flmm()
import tracing  # noqa: E402  (both need flmm)
import workloads  # noqa: E402


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


@dataclass
class Repetition:
    setup_s: float
    wall_s: float
    traced: bool
    outcome: workloads.Outcome
    layers: dict = field(default_factory=dict)
    missing: list = field(default_factory=list)  # targets absent from flmm


def run_once(workload, seed: int, workdir: Path, tracer) -> Repetition:
    """Set up, run the timed phase, then check outside it."""
    workdir.mkdir(parents=True)
    gc.collect()
    state = {}
    try:
        if tracer is not None:
            tracer.install()
        t0 = perf_counter()
        state = workload.setup(seed, str(workdir))
        t1 = perf_counter()
        if tracer is not None:
            tracer.phase = "run"
        outcome = workload.run(state)
        t2 = perf_counter()
        if tracer is not None:
            tracer.uninstall()
        workload.check(state, outcome)
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.teardown(state)
        shutil.rmtree(workdir)
    rep = Repetition(t1 - t0, t2 - t1, tracer is not None, outcome)
    if tracer is not None:
        rep.layers = layer_values(tracer, outcome)
        rep.missing = tracer.missing
        outcome.errors += tracing.self_check(workload.name, tracer)
    return rep


def layer_values(tracer, outcome) -> dict:
    m = tracer.metrics()
    calls = m.get("contribution.CoalitionValueFn.__call__.calls", 0)
    evaluations = outcome.counts.get("coalitions", 0)
    m.update({
        "client.SocketTransport.send.retries": outcome.tally.retries,
        "contribution.value_calls": calls,
        "contribution.value_evaluations": evaluations,
        "contribution.memo_hit_ratio": 1.0 - evaluations / calls if calls else 0.0,
    })
    return {name: m.get(name, 0) for name in tracing.LAYER_METRICS}


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(name: str, reps: list, peak_rss_mb: float) -> dict:
    """Every end-to-end metric that applies to the workload, as
    {name: (value, unit, samples)}; medians over untraced repetitions."""
    plain = [r for r in reps if not r.traced]
    walls = [r.wall_s for r in plain]
    out = {
        "setup_s": (statistics.median(r.setup_s for r in plain), "s", len(plain)),
        "wall_s": (statistics.median(walls), "s", len(walls)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
    if name in ("sim_quality", "loopback_masked"):
        out["rounds_per_s"] = (statistics.median(
            r.outcome.counts["rounds"] / r.wall_s for r in plain), "1/s", len(plain))
    if name == "loopback_masked":
        rtts = [x for r in plain for x in r.outcome.tally.rtts_ms]
        out["request_p50_ms"] = (percentile(rtts, 0.50), "ms", len(rtts))
        out["request_p99_ms"] = (percentile(rtts, 0.99), "ms", len(rtts))
    if name == "shapley_replay":
        out["coalitions_per_s"] = (statistics.median(
            r.outcome.counts["coalitions"] / r.wall_s for r in plain), "1/s", len(plain))
    attempted = sum(r.outcome.attempted for r in reps)
    failed = sum(r.outcome.failed for r in reps)
    out["error_rate"] = (failed / attempted if attempted else 0.0, "ratio", attempted)
    return out


def gate(name: str, seed: int, reps: list, pinned: dict | None) -> list:
    """Output-bit gate: every repetition equal, and equal to the pinned bits
    when given."""
    errors = [e for r in reps for e in r.outcome.errors]
    first = reps[0].outcome.bits
    for i, r in enumerate(reps[1:], 1):
        if r.outcome.bits != first:
            kind = "traced" if r.traced else "untraced"
            errors.append(f"repetition {i} ({kind}) bits differ from repetition 0")
    if pinned is not None:
        for key, want in pinned.items():
            if first.get(key) != want:
                errors.append(f"{name} seed {seed}: {key} = {first.get(key)!r}, "
                              f"pinned {want!r}")
    return errors


def run_workload(args, spec: dict) -> int:
    workload = workloads.WORKLOADS[args.workload]
    pinned_all = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    pinned = None
    if args.pin:
        if args.seed != workloads.DEFAULT_SEED:
            raise SystemExit(f"bench: pin only the default seed {workloads.DEFAULT_SEED}")
    elif args.seed == workloads.DEFAULT_SEED:
        pinned = pinned_all.get(workload.name)
        if pinned is None:
            raise SystemExit(f"bench: no pinned bits for {workload.name}; run with --pin")

    run_root = ROOT / ".bench_run" / f"{workload.name}-{os.getpid()}"
    reps = []
    try:
        deadline = perf_counter() + args.seconds
        while len(reps) < MIN_REPETITIONS or perf_counter() < deadline:
            # traced runs alternate plain and traced repetitions, so one run
            # yields both the tracing overhead and a bit comparison
            tracer = None
            if args.trace and len(reps) % 2 == 1:
                tracer = tracing.Tracer(extra_modules=(workloads,))
            reps.append(run_once(workload, args.seed, run_root / f"rep{len(reps)}",
                                 tracer))
    finally:
        shutil.rmtree(run_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            run_root.parent.rmdir()  # left in place while another run uses it

    if args.pin:
        pinned_all[workload.name] = reps[0].outcome.bits
        PINNED.write_text(json.dumps(pinned_all, indent=2, sort_keys=True) + "\n")
    errors = gate(workload.name, args.seed, reps, pinned)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e = end_to_end(workload.name, reps, peak_rss_mb)

    for metric, (value, unit, n) in e2e.items():
        print(f"{workload.name} {metric} = {value:.6g} {unit} (n={n})")
    traced = [r for r in reps if r.traced]
    detail = {"workload": workload.name, "seed": args.seed,
              "repetitions": len(reps), "bits": reps[0].outcome.bits,
              "samples_s": {"setup": [r.setup_s for r in reps],
                            "wall": [r.wall_s for r in reps if not r.traced]},
              "end_to_end": {k: {"value": v, "unit": u, "n": n}
                             for k, (v, u, n) in e2e.items()},
              "rejects": dict(sum((r.outcome.tally.rejects for r in reps),
                                  start=Counter()))}
    if traced:
        layers = {name: statistics.median(r.layers[name] for r in traced)
                  for name in tracing.LAYER_METRICS}
        plain_wall = e2e["wall_s"][0]
        traced_wall = statistics.median(r.wall_s for r in traced)
        detail["per_layer"] = layers
        detail["tracing_overhead"] = {
            "traced_wall_s": traced_wall, "untraced_wall_s": plain_wall,
            "overhead_s": traced_wall - plain_wall,
            "overhead_ratio": (traced_wall - plain_wall) / plain_wall,
            "traced_n": len(traced), "untraced_n": len(reps) - len(traced)}
        detail["not_traced"] = traced[0].missing
    for e in errors:
        print(f"FAIL {e}")
    print("detail: " + json.dumps(detail, sort_keys=True))

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        metrics = {n: {"value": detail["per_layer"][n],
                       "unit": tracing.LAYER_METRICS[n]} for n in names}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({"correct": not errors,
                      "attempted": sum(r.outcome.attempted for r in reps),
                      "failed": sum(r.outcome.failed for r in reps),
                      "metrics": metrics}))
    return 1 if errors else 0


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def filesystem_type(path: Path) -> str:
    """Type of the mount holding path, from /proc/mounts."""
    best, fs = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                mount = parts[1]
                if (str(path) + "/").startswith(mount.rstrip("/") + "/") \
                        and len(mount) > len(best):
                    best, fs = mount, parts[2]
    except OSError:
        pass
    return fs


def environment() -> dict:
    import numpy
    import flmm._kernels
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "using_numba": flmm._kernels.USING_NUMBA,
            "git_commit": git_commit(), "run_dir_filesystem": filesystem_type(ROOT),
            "machine": platform.machine()}


def run_all(args, spec) -> int:
    """Each workload in its own process, untraced then traced."""
    results = {"seed": args.seed, "seconds": args.seconds,
               "environment": environment(), "workloads": {}}
    failed = False
    for name in workloads.WORKLOADS:
        runs = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, text=True, capture_output=True,
                                  timeout=900)
            lines = proc.stdout.splitlines()
            details = [l for l in lines if l.startswith("detail: ")]
            for line in lines:
                if line.startswith("FAIL "):
                    print(f"{name} trace={trace} {line}")
            if proc.returncode != 0 or not details:
                failed = True
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                if not details:
                    break
            runs[trace] = json.loads(details[-1][len("detail: "):])
            runs[trace]["correct"] = json.loads(lines[-1])["correct"]
        if len(runs) < 2:
            continue
        e2e = runs[0]["end_to_end"]
        if name == "sim_quality":
            samples = runs[1]["per_layer"]["training.local_train.samples"]
            e2e["train_samples_per_s"] = {
                "value": samples / e2e["wall_s"]["value"], "unit": "1/s",
                "n": e2e["wall_s"]["n"]}
        for metric, m in e2e.items():
            print(f"{name} {metric} = {m['value']:.6g} {m['unit']} (n={m['n']})")
        overhead = runs[1]["tracing_overhead"]
        print(f"{name} tracing overhead = {overhead['overhead_s']:+.4f} s "
              f"({100 * overhead['overhead_ratio']:+.1f}%)")
        results["workloads"][name] = {
            "correct": runs[0]["correct"] and runs[1]["correct"],
            "bits": runs[0]["bits"], "rejects": runs[0]["rejects"],
            "end_to_end": e2e, "per_layer": runs[1]["per_layer"],
            "tracing_overhead": overhead, "not_traced": runs[1]["not_traced"],
            "repetitions": {"untraced_run": runs[0]["repetitions"],
                            "traced_run": runs[1]["repetitions"]}}
        failed |= not results["workloads"][name]["correct"]
    RESULTS.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(f"wrote {RESULTS.relative_to(ROOT)}")
    return 1 if failed else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", help="run one workload")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pin", action="store_true",
                   help="write this run's output bits to bench/pinned.json")
    p.add_argument("--all", action="store_true",
                   help="run every workload untraced and traced; write results.json")
    args = p.parse_args(argv)
    spec = load_spec()
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.all:
        return run_all(args, spec)
    if args.workload not in workloads.WORKLOADS:
        p.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
