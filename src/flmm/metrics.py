"""Caption and retrieval metrics: BLEU, ROUGE-L, recall@k.

Retrieval scores an eval set in its prepared form, an EvalBatch. Only the
adapters differ between the models one eval set scores, so a caller that
scores many models (one value function, one simulation run) prepares the
eval set once with eval_batch and passes the batch. recall_at_k also takes
a stack of models (see ``model``) and gives one recall per row, each with
the bits that row's model gets alone.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from flmm.errors import RangeError
from flmm.model import ModelSnapshot, caption_scores, check_token_embed, text_features


@dataclass(frozen=True)
class EvalReport:
    recall_at_1: float
    recall_at_5: float
    mean_bleu: float
    mean_rouge_l: float
    eval_set_id: str
    model_version: int

    def lines(self) -> list[str]:
        return [
            f"eval_set={self.eval_set_id}",
            f"model_version={self.model_version}",
            f"recall_at_1={self.recall_at_1:.6f}",
            f"recall_at_5={self.recall_at_5:.6f}",
            f"mean_bleu={self.mean_bleu:.6f}",
            f"mean_rouge_l={self.mean_rouge_l:.6f}",
        ]


def _ngrams(tokens: list[int], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def bleu(candidate: list[int], references: list[list[int]], max_n: int = 4) -> float:
    """Unsmoothed BLEU: geometric mean of clipped n-gram precisions with
    brevity penalty. Any zero-match order gives score 0."""
    if not candidate or not references or any(not r for r in references):
        raise RangeError("candidate and references must be non-empty")
    log_sum = 0.0
    for n in range(1, max_n + 1):
        cand = _ngrams(candidate, n)
        total = sum(cand.values())
        if total == 0:
            return 0.0  # candidate shorter than n
        clip = Counter()
        for ref in references:
            ref_counts = _ngrams(ref, n)
            for g in cand:
                clip[g] = max(clip[g], min(cand[g], ref_counts.get(g, 0)))
        matched = sum(clip.values())
        if matched == 0:
            return 0.0
        log_sum += np.log(matched / total) / max_n
    # closest reference length, ties to the shorter
    c = len(candidate)
    r = min((abs(len(ref) - c), len(ref)) for ref in references)[1]
    bp = 1.0 if c > r else np.exp(1.0 - r / c)
    return float(bp * np.exp(log_sum))


def _lcs_length(a: list[int], b: list[int]) -> int:
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b):
            cur.append(prev[j] + 1 if x == y else max(prev[j + 1], cur[j]))
        prev = cur
    return prev[-1]


def rouge_l(candidate: list[int], reference: list[int]) -> float:
    """F1 of the longest common subsequence."""
    if not candidate or not reference:
        raise RangeError("candidate and reference must be non-empty")
    lcs = _lcs_length(candidate, reference)
    if lcs == 0:
        return 0.0
    p = lcs / len(candidate)
    r = lcs / len(reference)
    return 2.0 * p * r / (p + r)


def caption_bank(eval_set) -> list[list[int]]:
    """Distinct captions of an eval set, in first-occurrence order."""
    return _bank_and_index(eval_set)[0]


def _bank_and_index(eval_set) -> tuple[list[list[int]], np.ndarray]:
    """The caption bank, and each record's true-caption index into it."""
    bank_idx: dict[tuple, int] = {}
    true_j = [bank_idx.setdefault(tuple(rec.caption), len(bank_idx)) for rec in eval_set]
    return [list(cap) for cap in bank_idx], np.array(true_j, dtype=np.intp)


@dataclass(frozen=True)
class EvalBatch:
    """An eval set prepared for scoring: its caption bank, stacked images,
    the bank's text features and each record's true-caption index.

    token_embed is frozen, so one batch serves every model that shares the
    token_embed it was built from; scoring any other model raises
    IdentityError.
    """

    bank: list[list[int]]
    xs: np.ndarray  # (n, d_v)
    ts: np.ndarray  # (len(bank), d_t), rows of text_features
    true_j: np.ndarray  # (n,), index into bank
    token_embed: np.ndarray


def eval_batch(model: ModelSnapshot, eval_set: EvalBatch | Sequence) -> EvalBatch:
    """The prepared form of an eval set; a list of records is converted, and a
    batch is checked against the model's token_embed."""
    if isinstance(eval_set, EvalBatch):
        check_token_embed(eval_set.token_embed, model, "eval batch")
        return eval_set
    bank, true_j = _bank_and_index(eval_set)
    if len(eval_set):
        xs = np.stack([rec.image for rec in eval_set])
    else:
        xs = np.empty((0, model.w_v.shape[1]))
    return EvalBatch(bank=bank, xs=xs, ts=text_features(model, bank), true_j=true_j,
                     token_embed=model.token_embed)


def _true_caption_ranks(scores: np.ndarray, true_j: np.ndarray) -> np.ndarray:
    """Rank of each record's true caption in its row of caption_scores; ties
    rank by lowest bank index. A stack's (P, n, bank) scores give (P, n)."""
    target = scores[..., np.arange(len(true_j)), true_j][..., None]
    lower = np.arange(scores.shape[-1]) < true_j[:, None]
    return (scores > target).sum(axis=-1) + ((scores == target) & lower).sum(axis=-1)


def _hit_rate(hits: np.ndarray):
    """Fraction of records hit: a float for one model, (P,) for a stack."""
    rate = np.count_nonzero(hits, axis=-1) / hits.shape[-1]
    return float(rate) if rate.ndim == 0 else rate


def recall_at_k(model: ModelSnapshot, eval_set: EvalBatch | Sequence, k: int):
    """Fraction of records whose true caption ranks in the retrieval top-k:
    a float, or for a stack of models a (P,) array, one recall per row.

    The bank holds the eval set's distinct captions; ties rank by lowest
    bank index, so rank 0 is the first highest score, and recall@1 counts
    the records whose argmax is their true caption. A record list is
    prepared with eval_batch on every call; pass an EvalBatch to score many
    models against one eval set.
    """
    batch = eval_batch(model, eval_set)
    if k < 1 or k > len(batch.bank):
        raise RangeError(f"k={k} outside [1, {len(batch.bank)}]")
    scores = caption_scores(model, batch.xs, batch.ts)
    if k == 1:
        return _hit_rate(np.argmax(scores, axis=-1) == batch.true_j)
    return _hit_rate(_true_caption_ranks(scores, batch.true_j) < k)


def evaluate(model: ModelSnapshot, eval_set: EvalBatch | Sequence,
             eval_set_id: str = "eval") -> EvalReport:
    """Bundle retrieval recall and caption-overlap metrics for one eval set
    (a record list, or an EvalBatch prepared once)."""
    batch = eval_batch(model, eval_set)
    scores = caption_scores(model, batch.xs, batch.ts)
    top = np.argmax(scores, axis=1)  # each record's retrieved caption
    # Records share few (retrieved, truth) pairs: score each pair once, and
    # list the per-record values in record order for the means.
    overlap: dict[tuple[int, int], tuple[float, float]] = {}
    bleus, rouges = [], []
    for pair in zip(top.tolist(), batch.true_j.tolist()):
        if pair not in overlap:
            retrieved, truth = batch.bank[pair[0]], batch.bank[pair[1]]
            overlap[pair] = (bleu(retrieved, [truth]), rouge_l(retrieved, truth))
        b, r = overlap[pair]
        bleus.append(b)
        rouges.append(r)
    return EvalReport(
        recall_at_1=_hit_rate(top == batch.true_j),
        recall_at_5=_hit_rate(_true_caption_ranks(scores, batch.true_j)
                              < min(5, len(batch.bank))),
        mean_bleu=float(np.mean(bleus)),
        mean_rouge_l=float(np.mean(rouges)),
        eval_set_id=eval_set_id,
        model_version=model.version,
    )
