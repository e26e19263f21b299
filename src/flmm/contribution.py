"""Participant contribution measurement.

Exact Shapley by coalition enumeration (memoized, 2^n evaluations) and a
weighted-truncated permutation-sampling approximation with efficiency
renormalization. The coalition value in FL re-aggregates the coalition's
logged updates under each round's logged plan instead of retraining, so the
grand coalition reproduces the trained model, and scores it against an eval
set prepared once per value function.

Replay stacks coalitions: each round is one ``aggregate_stack`` call over
every coalition still to be valued, with a membership matrix picking each
row's updates, and gives the same bits as replaying the coalitions one by
one. ``exact_shapley`` hands all its coalitions to the value function's
``prepare`` first, so they are replayed in one batch and then scored one by
one. Masked logs are not valued: pair masks do not cancel within a coalition.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from flmm.aggregation import (
    ASYNC_MIX,
    AggregationPlan,
    aggregate_stack,
)
from flmm.errors import HistoryError, SamplingError, SizeError
from flmm.metrics import EvalBatch, eval_batch, recall_at_k
from flmm.model import ModelSnapshot, snapshot_blocks, with_blocks
from flmm.rng import SplitMix64


@dataclass
class CoalitionValueFn:
    """Deterministic coalition -> value mapping with a subset memo.

    ``prepare``, if set, is told the coalitions about to be evaluated, so it
    can do their shared work in one batch.
    """

    parties: list
    evaluate: object  # callable(frozenset) -> float
    cache: dict = field(default_factory=dict)
    prepare: object = None  # callable(list of frozenset) -> None

    def __call__(self, coalition) -> float:
        key = frozenset(coalition)
        if key not in self.cache:
            self.cache[key] = float(self.evaluate(key))
        return self.cache[key]

    @property
    def evaluations(self) -> int:
        return len(self.cache)


@dataclass(frozen=True)
class ShapleyResult:
    values: dict  # party -> value
    method: str  # "exact" | "wtdp"
    samples_used: int
    truncation_tolerance: float
    party_weights: dict

    def efficiency_residual(self, v_grand: float, v_empty: float) -> float:
        return abs(sum(self.values.values()) - (v_grand - v_empty))


def exact_shapley(fn: CoalitionValueFn) -> ShapleyResult:
    """phi_i = sum over S excluding i of |S|!(n-|S|-1)!/n! * marginal."""
    n = len(fn.parties)
    if n > 10:
        raise SizeError(f"{n} parties: enumeration capped at 10, use wtdp_shapley")
    if fn.prepare is not None:
        fn.prepare([s for k in range(n + 1)
                    for s in map(frozenset, itertools.combinations(fn.parties, k))
                    if s not in fn.cache])
    values = {p: 0.0 for p in fn.parties}
    fact = math.factorial
    denom = fact(n)
    others = {p: [q for q in fn.parties if q != p] for p in fn.parties}
    for p in fn.parties:
        for k in range(n):
            coeff = fact(k) * fact(n - k - 1) / denom
            for subset in itertools.combinations(others[p], k):
                s = frozenset(subset)
                values[p] += coeff * (fn(s | {p}) - fn(s))
    return ShapleyResult(values=values, method="exact", samples_used=0,
                         truncation_tolerance=0.0,
                         party_weights={p: 1.0 for p in fn.parties})


def wtdp_shapley(fn: CoalitionValueFn, weights: dict, budget: int,
                 tolerance: float, seed: int) -> ShapleyResult:
    """Weighted-truncated permutation sampling.

    Walks seeded random permutations accumulating marginals; a walk stops
    early once the prefix value is within ``tolerance`` of the grand value
    (remaining marginals credited zero). Per-party means are scaled by the
    given weights, then renormalized so the values sum to
    v(grand) - v(empty).
    """
    if budget < 1:
        raise SamplingError("budget must be >= 1")
    for p, w in weights.items():
        if w <= 0:
            raise SamplingError(f"weight for {p!r} must be positive")
    parties = list(fn.parties)
    v_grand = fn(frozenset(parties))
    v_empty = fn(frozenset())
    rng = SplitMix64(seed)
    sums = {p: 0.0 for p in parties}
    completed = 0
    for _ in range(budget):
        perm = list(parties)
        rng.shuffle(perm)
        prefix: set = set()
        v_prev = v_empty
        for p in perm:
            if abs(v_prev - v_grand) < tolerance:
                break  # truncated: rest credited zero
            prefix.add(p)
            v_cur = fn(frozenset(prefix))
            sums[p] += v_cur - v_prev
            v_prev = v_cur
        completed += 1
    if completed == 0:
        raise SamplingError("no permutation samples completed")
    raw = {p: weights.get(p, 1.0) * sums[p] / completed for p in parties}
    total = sum(raw.values())
    target = v_grand - v_empty
    if total != 0.0:
        values = {p: v * target / total for p, v in raw.items()}
    else:
        values = {p: target / len(parties) for p in parties}
    return ShapleyResult(values=values, method="wtdp", samples_used=completed,
                         truncation_tolerance=tolerance,
                         party_weights=dict(weights))


@dataclass(frozen=True)
class LoggedRound:
    """One round's recorded inputs, sufficient for coalition replay."""

    round: int
    plan: AggregationPlan
    updates: tuple  # ClientUpdate per contributing party


def replay_coalitions(initial: ModelSnapshot, rounds: list[LoggedRound],
                      coalitions: list) -> list[ModelSnapshot]:
    """Re-aggregate each coalition's logged updates, round by round, all
    coalitions at once; returns one snapshot per coalition.

    Row i of every stacked block is coalition i's model. A round a coalition
    sat out still advances the version, so all rows share it, and async_mix
    staleness and base models follow each coalition's own history.
    """
    n = len(coalitions)
    blocks = {name: np.repeat(m[None], n, axis=0)
              for name, m in snapshot_blocks(initial).items()}
    model = initial  # carries the shared version; its blocks are not read
    mixing = any(rec.plan.strategy == ASYNC_MIX for rec in rounds)
    history = {model.version: blocks} if mixing else {}
    for rec in rounds:
        member = np.array([[u.client_id in c for u in rec.updates]
                           for c in coalitions], dtype=bool).reshape(n, len(rec.updates))
        if member.any():
            blocks = aggregate_stack(rec.plan, model, blocks, rec.updates, member,
                                     history)
        model = replace(model, version=model.version + 1)
        if mixing:
            history[model.version] = blocks
    return [with_blocks(initial, {name: m[i] for name, m in blocks.items()},
                        model.version) for i in range(n)]


def replay_coalition(initial: ModelSnapshot, rounds: list[LoggedRound],
                     coalition: frozenset) -> ModelSnapshot:
    """One coalition's replay: a slice of ``replay_coalitions``."""
    return replay_coalitions(initial, rounds, [coalition])[0]


def fl_value_function(initial: ModelSnapshot, rounds: list[LoggedRound],
                      eval_set: EvalBatch | Sequence,
                      parties: list[str]) -> CoalitionValueFn:
    """Coalition value = recall@1 of the coalition-replayed model.

    The eval set is prepared once, from ``initial``; every coalition's model
    shares its frozen token_embed and is scored against that one batch.
    ``prepare`` replays the given coalitions in one batch; ``evaluate`` scores
    a prepared model and drops it, or replays a coalition that was not
    prepared on its own.
    """
    if any(not rec.updates for rec in rounds):
        raise HistoryError("round log has a round with no recorded updates")
    if any(rec.plan.masking_enabled for rec in rounds):
        raise HistoryError("round log has a masked round; it cannot be valued")
    batch = eval_batch(initial, eval_set)
    prepared: dict = {}  # coalition -> replayed model, until it is scored

    def prepare(coalitions: list) -> None:
        prepared.update(zip(coalitions, replay_coalitions(initial, rounds, coalitions)))

    def evaluate(coalition: frozenset) -> float:
        model = prepared.pop(coalition, None)
        if model is None:
            model = replay_coalition(initial, rounds, coalition)
        return recall_at_k(model, batch, 1)

    return CoalitionValueFn(parties=list(parties), evaluate=evaluate, prepare=prepare)
