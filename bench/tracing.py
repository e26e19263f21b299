"""Span tracer for the traced benchmark run, installed from outside the program.

The tracer wraps each public entry point listed in LAYERS wherever a caller
looks the name up: the defining module, every flmm module that imported the
name directly, and any extra module handed in (the benchmark's own). Methods
are wrapped on their class. Each call records a span (id, name, start, end,
parent, thread); a thread-local stack supplies the parent, so spans from a
server's connection-handler thread nest correctly. Spans stay in memory.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import count
from time import perf_counter

import flmm.training

REQUEST_TYPES = frozenset({"REGISTER", "POLL", "SUBMIT", "FETCH"})

# A span is a plain tuple, cheap to record:
# (id, name, start, end, parent id or -1, thread id, phase)
ID, NAME, START, END, PARENT, THREAD, PHASE = range(7)


@dataclass
class Tracer:
    """Records spans and byte/sample counters while installed."""

    extra_modules: tuple = ()
    spans: list = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    phase: str = "setup"
    missing: list = field(default_factory=list)

    def __post_init__(self):
        self._ids = count()
        self._local = threading.local()
        self._saved: list = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "flmm" or n.startswith("flmm.")]
        modules += list(self.extra_modules)
        for span in LAYERS:
            mod_name, _, qual = span.partition(".")
            home = sys.modules[f"flmm.{mod_name}"]
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                self.missing.append(span)
                continue
            wrapper = self._wrap(span, original)
            if owner_name:
                self._set(owner, attr, original, wrapper)
                continue
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._set(mod, attr, original, wrapper)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._saved):
            setattr(obj, attr, original)
        self._saved.clear()

    def _set(self, obj, attr, original, wrapper) -> None:
        self._saved.append((obj, attr, original))
        setattr(obj, attr, wrapper)

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        local = self._local
        ids = self._ids
        spans = self.spans
        after = _AFTER.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
                local.thread = threading.get_ident()
            parent = stack[-1][0] if stack else -1
            sid = next(ids)
            stack.append((sid, name))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent, local.thread,
                              tracer.phase))
            if after is not None:
                after(tracer, stack, args, kwargs, result)
            return result

        return wrapper

    # -- metrics -------------------------------------------------------------

    def metrics(self, phase: str | None = None) -> dict:
        """calls and self_s per span name, plus the counters, for one phase
        or (phase=None) all of them."""
        spans = [s for s in self.spans if phase is None or s[PHASE] == phase]
        child = defaultdict(float)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out = {}
        total = defaultdict(float)
        for s in spans:
            name, duration = s[NAME], s[END] - s[START]
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = (out.get(f"{name}.self_s", 0.0)
                                     + duration - child[s[ID]])
            total[name] += duration
        if phase is None:
            out.update(self.counters)
        rtt = total["client.SocketTransport.send"]
        out["client.transport.wait_s"] = rtt - total["orchestrator.ServerCore.handle"] \
            if rtt else 0.0
        return out


# -- per-span counters, recorded after the span closes ------------------------

def _bytes_of_result(key):
    def after(tracer, stack, args, kwargs, result):
        tracer.counters[key] += len(result)
    return after


def _encode_message(tracer, stack, args, kwargs, result):
    tracer.counters["protocol.encode_message.bytes"] += len(result)
    if any(name == "orchestrator.RoundLog.save_update" for _, name in stack):
        return  # written to the round log, not the wire
    msg = args[0] if args else kwargs["msg"]
    side = "up" if msg.msg_type in REQUEST_TYPES else "down"
    tracer.counters[f"protocol.bytes_{side}"] += len(result)


def _file_size(key, path_of):
    def after(tracer, stack, args, kwargs, result):
        tracer.counters[key] += os.path.getsize(path_of(*args, **kwargs))
    return after


_LOCAL_TRAIN = inspect.signature(flmm.training.local_train)


def _local_train(tracer, stack, args, kwargs, result):
    bound = _LOCAL_TRAIN.bind(*args, **kwargs)
    usable = flmm.training.trainable_records(bound.arguments["records"])
    tracer.counters["training.local_train.samples"] += \
        len(usable) * bound.arguments["cfg"].epochs


def _handle(tracer, stack, args, kwargs, result):
    if result.msg_type == "REJECT":
        tracer.counters["orchestrator.rejects"] += 1
        tracer.counters[f"orchestrator.rejects.{result.headers.get('kind')}"] += 1


_AFTER = {
    "model.save_snapshot": _bytes_of_result("model.save_snapshot.bytes"),
    "protocol.encode_message": _encode_message,
    "orchestrator.RoundLog.save_checkpoint": _file_size(
        "orchestrator.RoundLog.save_checkpoint.bytes",
        lambda log, snapshot: log._ckpt_path(snapshot.version)),
    "orchestrator.RoundLog.save_update": _file_size(
        "orchestrator.RoundLog.save_update.bytes",
        lambda log, round_num, update: os.path.join(
            log.dir, "updates", f"r{round_num}_{update.client_id}.upd")),
    "training.local_train": _local_train,
    "orchestrator.ServerCore.handle": _handle,
}


# -- the per-layer table ------------------------------------------------------

ALL = frozenset({"sim_quality", "loopback_masked", "shapley_replay"})
SIM, LOOP, SHAP = (frozenset({w}) for w in ("sim_quality", "loopback_masked",
                                            "shapley_replay"))

# span -> (stats reported, workloads where it must be called,
#          workloads where it must never be called)
LAYERS = {
    "model.contrastive_loss_and_grads": (("calls", "self_s"), SIM, ()),
    "model.sgd_step": (("calls", "self_s"), SIM, ()),
    "model.caption_scores": (("calls", "self_s"), SHAP, ()),
    "model.save_snapshot": (("calls", "self_s", "bytes"), SIM, ()),
    "model.load_snapshot": (("calls", "self_s"), SIM, ()),
    "fusion.text_anchor_loss_and_grads": (("calls", "self_s"), SIM, LOOP),
    "fusion.compose_losses": (("self_s",), SIM, ()),
    "training.local_train": (("calls", "self_s", "samples"), SIM, ()),
    "training.make_update": (("self_s",), SIM, ()),
    "training.federated_train": (("calls", "self_s"), SIM, ()),
    "dataquality.generate_corpus": (("calls", "self_s"), ALL, ()),
    "dataquality.repair_corpus": (("self_s",), ALL, ()),
    "dataquality.score_and_filter": (("calls", "self_s"), SIM, ()),
    "dataquality.quality_loop": (("self_s",), SIM, ()),
    "rng.SplitMix64.shuffle": (("calls", "self_s"), SIM, ()),
    "rng.SplitMix64.gaussians": (("calls", "self_s"), ALL, ()),
    "aggregation.fedavg_adapters": (("calls", "self_s"), LOOP | SHAP, ()),
    "aggregation.apply_block_mask": (("calls", "self_s"), LOOP | SHAP, ()),
    "aggregation.snapshot_blocks": (("calls", "self_s"), LOOP | SHAP, ()),
    "privacy.apply_pairwise_masks": (("calls", "self_s"), LOOP, SIM | SHAP),
    "privacy.gaussian_mechanism": (("calls", "self_s"), LOOP, SIM | SHAP),
    "protocol.encode_message": (("calls", "self_s", "bytes"), LOOP, ()),
    "protocol.decode_payload": (("calls", "self_s"), LOOP, ()),
    "protocol.pack_blocks": (("calls", "self_s"), LOOP, ()),
    "protocol.unpack_blocks": (("calls", "self_s"), LOOP, ()),
    "client.SocketTransport.send": (("calls", "self_s", "retries"), LOOP, SIM | SHAP),
    "client.ClientAgent.step": (("calls", "self_s"), LOOP, ()),
    "orchestrator.ServerCore.handle": (("calls", "self_s"), LOOP, ()),
    "orchestrator.ServerCore.close_round": (("calls", "self_s"), LOOP, ()),
    "orchestrator.RoundLog.append": (("calls", "self_s"), LOOP, ()),
    "orchestrator.RoundLog.save_checkpoint": (("calls", "self_s", "bytes"), LOOP, ()),
    "orchestrator.RoundLog.save_update": (("calls", "self_s", "bytes"), LOOP, ()),
    "orchestrator.RoundLog.checkpoint_bytes": (("calls", "self_s"), LOOP, ()),
    "orchestrator.RoundLog.prune_checkpoints": (("self_s",), LOOP, ()),
    "orchestrator.RoundLog.verify": (("calls", "self_s"), SHAP, ()),
    "orchestrator.RoundLog.load_update": (("calls", "self_s"), SHAP, ()),
    "contribution.replay_coalition": (("calls", "self_s"), SHAP, SIM | LOOP),
    "contribution.exact_shapley": (("self_s",), SHAP, SIM | LOOP),
    "contribution.CoalitionValueFn.__call__": ((), SHAP, SIM | LOOP),
    "metrics.recall_at_k": (("calls", "self_s"), SHAP, ()),
    "metrics.evaluate": (("calls", "self_s"), SHAP, ()),
}

# spans that must not run in one workload's timed phase (they may in set-up)
ABSENT_TIMED = {
    "shapley_replay": ("training.local_train", "training.make_update",
                       "training.federated_train", "rng.SplitMix64.shuffle"),
}

_UNITS = {"calls": "count", "self_s": "s", "bytes": "B", "samples": "count",
          "retries": "count"}

# name -> unit, for every per-layer metric the traced run reports
LAYER_METRICS = {f"{span}.{stat}": _UNITS[stat]
                 for span, (stats, _, _) in LAYERS.items() for stat in stats}
LAYER_METRICS.update({
    "protocol.bytes_up": "B",
    "protocol.bytes_down": "B",
    "client.transport.wait_s": "s",
    "orchestrator.rejects": "count",
    "contribution.value_calls": "count",
    "contribution.value_evaluations": "count",
    "contribution.memo_hit_ratio": "ratio",
})


def self_check(workload: str, traced: Tracer) -> list:
    """Errors where a span the table expects on this workload never ran, or
    a span the table marks absent did."""
    everywhere = traced.metrics()
    timed = traced.metrics("run")
    errors = []
    for span, (_, present, absent) in LAYERS.items():
        if span in traced.missing:
            continue
        calls = everywhere.get(f"{span}.calls", 0)
        if workload in present and calls == 0:
            errors.append(f"{span} never called on {workload}")
        if workload in absent and calls:
            errors.append(f"{span} called {calls} times on {workload}, expected none")
    for span in ABSENT_TIMED.get(workload, ()):
        if timed.get(f"{span}.calls", 0):
            errors.append(f"{span} ran in the timed phase of {workload}")
    return errors
