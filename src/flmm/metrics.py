"""Caption and retrieval metrics: BLEU, ROUGE-L, recall@k."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from flmm.errors import RangeError
from flmm.model import ModelSnapshot, caption_scores


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
    seen = set()
    bank = []
    for rec in eval_set:
        key = tuple(rec.caption)
        if key not in seen:
            seen.add(key)
            bank.append(list(rec.caption))
    return bank


def _true_caption_ranks(scores: np.ndarray, bank: list[list[int]], eval_set) -> np.ndarray:
    """Rank of each record's true caption in its row of caption_scores; ties
    rank by lowest bank index."""
    bank_idx = {tuple(cap): j for j, cap in enumerate(bank)}
    true_j = np.array([bank_idx[tuple(rec.caption)] for rec in eval_set])
    target = scores[np.arange(len(true_j)), true_j][:, None]
    lower = np.arange(len(bank)) < true_j[:, None]
    return (scores > target).sum(axis=1) + ((scores == target) & lower).sum(axis=1)


def _recall(ranks: np.ndarray, k: int) -> float:
    return int(np.count_nonzero(ranks < k)) / len(ranks)


def recall_at_k(model: ModelSnapshot, eval_set, k: int) -> float:
    """Fraction of records whose true caption ranks in the retrieval top-k.

    The bank holds the eval set's distinct captions; ties rank by lowest
    bank index.
    """
    bank = caption_bank(eval_set)
    if k < 1 or k > len(bank):
        raise RangeError(f"k={k} outside [1, {len(bank)}]")
    xs = np.stack([rec.image for rec in eval_set])
    return _recall(_true_caption_ranks(caption_scores(model, xs, bank), bank, eval_set), k)


def evaluate(model: ModelSnapshot, eval_set, eval_set_id: str = "eval") -> EvalReport:
    """Bundle retrieval recall and caption-overlap metrics for one eval set."""
    bank = caption_bank(eval_set)
    xs = np.stack([rec.image for rec in eval_set])
    scores = caption_scores(model, xs, bank)
    ranks = _true_caption_ranks(scores, bank, eval_set)
    bleus, rouges = [], []
    for i, rec in enumerate(eval_set):
        retrieved = bank[int(np.argmax(scores[i]))]
        bleus.append(bleu(retrieved, [list(rec.caption)]))
        rouges.append(rouge_l(retrieved, list(rec.caption)))
    return EvalReport(
        recall_at_1=_recall(ranks, 1),
        recall_at_5=_recall(ranks, min(5, len(bank))),
        mean_bleu=float(np.mean(bleus)),
        mean_rouge_l=float(np.mean(rouges)),
        eval_set_id=eval_set_id,
        model_version=model.version,
    )
