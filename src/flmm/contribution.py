"""Participant contribution measurement.

Exact Shapley by coalition enumeration (memoized, 2^n evaluations) and a
weighted-truncated permutation-sampling approximation with efficiency
renormalization. The coalition value in FL re-aggregates the coalition's
logged updates under each round's logged plan instead of retraining, so the
grand coalition reproduces the trained model, and scores it against an eval
set prepared once per value function.

Replay stacks coalitions: each round is one ``aggregate_stack`` call over
every coalition still to be valued, with a membership matrix picking each
row's updates, and the result is one stacked snapshot, row i coalition i's
model, with the bits of replaying that coalition alone. Both samplers hand
the coalitions they will value to the value function's ``prepare`` first:
``exact_shapley`` all of them, ``wtdp_shapley`` every prefix of its seeded
permutations. ``prepare`` replays them as one stack and scores the stack in
row slices, one ``recall_at_k`` call per slice. Masked logs are not valued:
pair masks do not cancel within a coalition.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from flmm.aggregation import (
    ASYNC_MIX,
    AggregationPlan,
    aggregate_stack,
)
from flmm.errors import HistoryError, SamplingError, SizeError
from flmm.metrics import EvalBatch, eval_batch, recall_at_k
from flmm.model import ModelSnapshot, blocks_field, snapshot_blocks, stack_rows, \
    with_blocks
from flmm.rng import SplitMix64

# A scored slice's (rows, records, bank) float64 score array stays near this.
# Each slice makes a few temporaries of that size: on a 2-vCPU x86-64 host,
# 1 MiB slices (27 rows on shapley_replay) raised the benchmark's peak RSS
# by 2.6 MB, 128 KiB slices (3 rows) not at all, and scored no faster.
_SLICE_BYTES = 1 << 17


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
    v(grand) - v(empty). The permutations are drawn before any value, and
    every prefix of them goes to ``fn.prepare``; the walk then evaluates
    only the prefixes it reaches, as without ``prepare``.
    """
    if budget < 1:
        raise SamplingError("budget must be >= 1")
    for p, w in weights.items():
        if w <= 0:
            raise SamplingError(f"weight for {p!r} must be positive")
    parties = list(fn.parties)
    rng = SplitMix64(seed)
    perms = []
    for _ in range(budget):
        perm = list(parties)
        rng.shuffle(perm)
        perms.append(perm)
    if fn.prepare is not None:
        prefixes = {frozenset(perm[:k]): None
                    for perm in perms for k in range(len(perm) + 1)}
        fn.prepare([s for s in prefixes if s not in fn.cache])
    v_grand = fn(frozenset(parties))
    v_empty = fn(frozenset())
    sums = {p: 0.0 for p in parties}
    for perm in perms:
        prefix: set = set()
        v_prev = v_empty
        for p in perm:
            if abs(v_prev - v_grand) < tolerance:
                break  # truncated: rest credited zero
            prefix.add(p)
            v_cur = fn(frozenset(prefix))
            sums[p] += v_cur - v_prev
            v_prev = v_cur
    raw = {p: weights.get(p, 1.0) * sums[p] / budget for p in parties}
    total = sum(raw.values())
    target = v_grand - v_empty
    if total != 0.0:
        values = {p: v * target / total for p, v in raw.items()}
    else:
        values = {p: target / len(parties) for p in parties}
    return ShapleyResult(values=values, method="wtdp", samples_used=budget,
                         truncation_tolerance=tolerance,
                         party_weights=dict(weights))


@dataclass(frozen=True)
class LoggedRound:
    """One round's recorded inputs, sufficient for coalition replay, and
    the ``blocks=`` its record logged ("" for a round not read from a log)."""

    round: int
    plan: AggregationPlan
    updates: tuple  # ClientUpdate per contributing party
    blocks: str = ""


def replay_coalitions(initial: ModelSnapshot, rounds: list[LoggedRound],
                      coalitions: list) -> ModelSnapshot:
    """Re-aggregate each coalition's logged updates, round by round, all
    coalitions at once; returns one stack (see ``model``) whose row i is
    coalition i's model.

    A round a coalition sat out still advances the version, so all rows
    share it, and async_mix staleness and base models follow each
    coalition's own history.
    """
    n = len(coalitions)
    blocks = {name: np.repeat(m[None], n, axis=0)
              for name, m in snapshot_blocks(initial).items()}
    version = initial.version
    mixing = any(rec.plan.strategy == ASYNC_MIX for rec in rounds)
    history = {version: blocks} if mixing else {}
    for rec in rounds:
        member = np.array([[u.client_id in c for u in rec.updates]
                           for c in coalitions], dtype=bool).reshape(n, len(rec.updates))
        if member.any():
            blocks = aggregate_stack(rec.plan, version, blocks, rec.updates, member,
                                     history)
        version += 1
        if mixing:
            history[version] = blocks
    return with_blocks(initial, blocks, version)


def replay_coalition(initial: ModelSnapshot, rounds: list[LoggedRound],
                     coalition: frozenset) -> ModelSnapshot:
    """One coalition's replay: the one row of ``replay_coalitions``."""
    return stack_rows(replay_coalitions(initial, rounds, [coalition]), 0)


def slice_rows(batch: EvalBatch) -> int:
    """Coalitions scored per recall_at_k call: the slice's (rows, records,
    bank) float64 score array stays near _SLICE_BYTES."""
    return max(1, _SLICE_BYTES // max(1, 8 * len(batch.xs) * len(batch.bank)))


def fl_value_function(initial: ModelSnapshot, rounds: list[LoggedRound],
                      eval_set: EvalBatch | Sequence,
                      parties: list[str]) -> CoalitionValueFn:
    """Coalition value = recall@1 of the coalition-replayed model.

    The eval set is prepared once, from ``initial``; every coalition's model
    shares its frozen token_embed and is scored against that one batch.
    ``prepare`` replays the given coalitions as one stack and scores it in
    row slices of ``slice_rows(batch)`` coalitions; ``evaluate`` takes a
    prepared value and drops it, or replays and scores a coalition that was
    not prepared on its own. The grand coalition's replay must reproduce the
    last round's logged blocks, or no value describes the trained model.
    """
    if any(not rec.updates for rec in rounds):
        raise HistoryError("round log has a round with no recorded updates")
    if any(rec.plan.masking_enabled for rec in rounds):
        raise HistoryError("round log has a masked round; it cannot be valued")
    everyone = frozenset(u.client_id for rec in rounds for u in rec.updates)
    if rounds and rounds[-1].blocks and rounds[-1].blocks != \
            blocks_field(replay_coalition(initial, rounds, everyone)):
        raise HistoryError(f"replaying every logged update does not reproduce the "
                           f"blocks logged in round {rounds[-1].round}")
    batch = eval_batch(initial, eval_set)
    rows = slice_rows(batch)
    prepared: dict = {}  # coalition -> value, until evaluate takes it

    def prepare(coalitions: list) -> None:
        stack = replay_coalitions(initial, rounds, coalitions)
        for lo in range(0, len(coalitions), rows):
            values = recall_at_k(stack_rows(stack, slice(lo, lo + rows)), batch, 1)
            prepared.update(zip(coalitions[lo:lo + rows], values.tolist()))

    def evaluate(coalition: frozenset) -> float:
        value = prepared.pop(coalition, None)
        if value is None:
            value = recall_at_k(replay_coalition(initial, rounds, coalition), batch, 1)
        return value

    return CoalitionValueFn(parties=list(parties), evaluate=evaluate, prepare=prepare)
