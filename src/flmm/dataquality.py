"""Synthetic multimodal corpus with planted corruptions, deterministic repair
transforms, and the model-in-the-loop filtering procedure.

Token-id layout (vocab >= 64): 1-5 structural filler, 10+c class name for
scene class c, 40/41 hazard/safe, 50-55 sensitive (addresses, IDs). No
corpus holds token 0 or 58-59; the output-filter oracle in
``tests/support.py`` uses them as the refusal and the blacklisted tokens.
Truth fields on records are test-only oracles and never enter training or
the wire.

A corpus is drawn from one splitmix64 stream. Its per-record draws (class,
tag, mismatch class, noise tokens and their position) are read from
bulk-mixed windows of the stream, one window per chunk of records; the
Gaussian image noise of every record is drawn afterwards in one bulk pass,
from the stream states the walk noted. The records are the same bits as
drawing each record's values, noise included, in turn.
"""

from __future__ import annotations

import base64
import functools
from dataclasses import dataclass, field, replace

import numpy as np

from flmm.errors import SpecError, StarvationError, TemplateGapError
from flmm.metrics import EvalBatch, recall_at_k
from flmm.model import ModelSnapshot, _text_forward, _vision_forward
from flmm.rng import (GOLDEN, MASK64, SplitMix64, bulk_mix, gaussian_outputs,
                      gaussian_rows, mix_seed)

CLASS_TOKEN_BASE = 10
HAZARD_TOKEN = 40
CLASS_COUNT = HAZARD_TOKEN - CLASS_TOKEN_BASE  # a class's token sits below HAZARD_TOKEN
SAFE_TOKEN = 41
SENSITIVE_TOKENS = frozenset(range(50, 56))

TAGS = ("mismatched", "sensitive_noise", "labels_only", "too_short")

_NOISE_TOKENS = tuple(sorted(SENSITIVE_TOKENS))

_PROTO_SALT = 0x5CE7E

# Records per stream window. A window is converted to Python ints, so its
# size bounds the memory the walk holds beside the records.
_CHUNK = 256


@dataclass(frozen=True)
class Truth:
    """Hidden ground truth; test-only oracle, never transmitted."""

    scene_class: int
    hazard: bool
    pristine_caption: tuple


@dataclass(frozen=True)
class SceneRecord:
    id: str
    party: str
    image: np.ndarray
    caption: tuple  # token ids; empty for labels_only
    object_labels: tuple
    corruption: frozenset  # subset of TAGS, or empty (= clean)
    truth: Truth | None = None
    quality_score: float | None = None

    @property
    def clean(self) -> bool:
        return not self.corruption


@dataclass(frozen=True)
class CorpusSpec:
    party: str
    size: int
    corruption_rates: dict  # tag -> fraction
    seed: int
    scene_class_pool: tuple
    d_v: int = 16

    def __post_init__(self):
        if self.size < 0:
            raise SpecError(f"corpus size {self.size}: must be at least 0")
        if sum(self.corruption_rates.values()) > 1.0 + 1e-12:
            raise SpecError("corruption rates sum above 1")
        for tag, rate in self.corruption_rates.items():
            if tag not in TAGS:
                raise SpecError(f"unknown corruption tag {tag!r}")
            if not 0.0 <= rate <= 1.0:  # false for nan
                raise SpecError(f"corruption rate {tag} = {rate}: must be in [0, 1]")
        if not self.scene_class_pool:
            raise SpecError("scene class pool is empty")
        if len(set(self.scene_class_pool)) != len(self.scene_class_pool):
            raise SpecError(f"scene class pool {self.scene_class_pool} repeats a class")
        outside = [c for c in self.scene_class_pool if not 0 <= c < CLASS_COUNT]
        if outside:
            raise SpecError(f"scene class {outside[0]} is outside 0..{CLASS_COUNT - 1}")


@functools.lru_cache(maxsize=256)
def class_prototype(class_id: int, d_v: int) -> np.ndarray:
    """Shared deterministic image prototype for a scene class.

    A pure function of its arguments, so it is computed once per
    (class_id, d_v) and every caller gets the same read-only array.
    """
    rng = SplitMix64(mix_seed(_PROTO_SALT, class_id))
    v = rng.gaussians(d_v)
    v = v / np.linalg.norm(v)
    v.flags.writeable = False
    return v


def class_hazard(class_id: int) -> bool:
    return class_id % 2 == 1


def caption_template(class_id: int, hazard: bool) -> tuple:
    c = CLASS_TOKEN_BASE + class_id
    h = HAZARD_TOKEN if hazard else SAFE_TOKEN
    return (1, 2, c, 3, h, 4, c, 5)


def default_label_templates() -> dict:
    """Per-label caption fragments used by the repair transforms."""
    out = {}
    for c in range(CLASS_COUNT):
        tok = CLASS_TOKEN_BASE + c
        out[tok] = (2, tok, 3)
    out[HAZARD_TOKEN] = (4, HAZARD_TOKEN, 5)
    out[SAFE_TOKEN] = (4, SAFE_TOKEN, 5)
    return out


def generate_corpus(spec: CorpusSpec) -> list[SceneRecord]:
    """Deterministic synthetic corpus; same spec gives a bit-identical list.

    Each record draws from the spec's stream, in order: its class, its image
    noise (gaussian_outputs(d_v) outputs), its tag's uniform, then whatever
    the tag needs (mismatched 1 output, sensitive_noise 3). The stream is
    walked _CHUNK records at a time: one bulk_mix mixes a window long enough
    for the chunk if every record took the longest stride, each record's
    draws are read from it, and the next chunk starts where the walk stopped.
    One gaussian_rows call then draws every record's noise from the states
    the walk noted. A pool class's captions, labels and Truth, and each tag
    set, are built once and shared by every record that has them.
    """
    pool = spec.scene_class_pool
    n = len(pool)
    bounds, acc = [], 0.0  # (cumulative rate, tag) over the tags in play
    for t, r in sorted(spec.corruption_rates.items()):
        if r > 0:
            acc += r
            bounds.append((acc, t))
    if spec.corruption_rates.get("mismatched", 0) > 0 and n < 2:
        raise SpecError("mismatched corruption needs at least two scene classes")
    g = gaussian_outputs(spec.d_v)
    pristine = [caption_template(c, class_hazard(c)) for c in pool]
    labels = [(CLASS_TOKEN_BASE + c, HAZARD_TOKEN if class_hazard(c) else SAFE_TOKEN)
              for c in pool]
    truths = [Truth(scene_class=c, hazard=class_hazard(c), pristine_caption=p)
              for c, p in zip(pool, pristine)]
    tag_sets = {None: frozenset(), **{t: frozenset({t}) for t in TAGS}}
    ks, captions, tags, noise_starts = [], [], [], []
    state = spec.seed & MASK64
    for lo in range(0, spec.size, _CHUNK):
        m = min(_CHUNK, spec.size - lo)
        w = bulk_mix(state, m * (g + 5)).tolist()
        pos = 0
        for _ in range(m):
            k = w[pos] % n
            noise_starts.append((state + (pos + 1) * GOLDEN) & MASK64)
            u = (w[pos + 1 + g] >> 11) * 2.0**-53
            pos += 2 + g
            tag = None
            for a, t in bounds:
                if u < a:
                    tag = t
                    break
            caption = pristine[k]
            if tag == "mismatched":
                # caption content of a different scene class
                caption = pristine[(k + 1 + w[pos] % (n - 1)) % n]
                pos += 1
            elif tag == "sensitive_noise":
                ins = (_NOISE_TOKENS[w[pos] % len(_NOISE_TOKENS)],
                       _NOISE_TOKENS[w[pos + 1] % len(_NOISE_TOKENS)])
                cut = w[pos + 2] % (len(caption) + 1)
                caption = caption[:cut] + ins + caption[cut:]
                pos += 3
            elif tag == "labels_only":
                caption = ()
            elif tag == "too_short":
                caption = caption[:2]
            ks.append(k)
            captions.append(caption)
            tags.append(tag_sets[tag])
        state = (state + pos * GOLDEN) & MASK64

    prototypes = np.stack([class_prototype(c, spec.d_v) for c in pool])
    images = prototypes[ks] + 0.1 * gaussian_rows(noise_starts, spec.d_v)
    return [SceneRecord(f"{spec.party}-{i:05d}", spec.party, image, caption, labels[k],
                        tag_set, truths[k])
            for i, (k, caption, tag_set, image) in enumerate(zip(ks, captions, tags, images))]


# --- repair transforms (Cases A, B, C); each is idempotent ------------------

def rule_clean(record: SceneRecord, sensitive_vocab: frozenset = SENSITIVE_TOKENS
               ) -> SceneRecord:
    """Strip sensitive tokens from the caption."""
    if "sensitive_noise" not in record.corruption \
            and sensitive_vocab.isdisjoint(record.caption):
        return record
    cleaned = tuple(t for t in record.caption if t not in sensitive_vocab)
    return replace(record, caption=cleaned,
                   corruption=frozenset(record.corruption - {"sensitive_noise"}))


def label_to_caption(record: SceneRecord, templates: dict | None = None) -> SceneRecord:
    """Build a caption from object labels when none exists (label order kept)."""
    if record.caption:
        return record
    templates = templates if templates is not None else default_label_templates()
    parts: list[int] = []
    for label in record.object_labels:
        if label not in templates:
            raise TemplateGapError(f"no template for label {label}")
        parts.extend(templates[label])
    return replace(record, caption=tuple(parts),
                   corruption=frozenset(record.corruption - {"labels_only"}))


def expand_caption(record: SceneRecord, min_len: int = 6,
                   templates: dict | None = None) -> SceneRecord:
    """Append label templates for unmentioned labels until min_len is reached."""
    if len(record.caption) >= min_len:
        if "too_short" in record.corruption:
            return replace(record, corruption=frozenset(record.corruption - {"too_short"}))
        return record
    templates = templates if templates is not None else default_label_templates()
    caption = list(record.caption)
    mentioned = set(caption)
    for label in record.object_labels:
        if len(caption) >= min_len:
            break
        if label in mentioned or label not in templates:
            continue
        caption.extend(templates[label])
        mentioned.add(label)
    tags = record.corruption
    if len(caption) >= min_len:
        tags = frozenset(tags - {"too_short"})
    return replace(record, caption=tuple(caption), corruption=tags)


def repair_corpus(records: list[SceneRecord],
                  sensitive_vocab: frozenset = SENSITIVE_TOKENS,
                  templates: dict | None = None, min_len: int = 6) -> list[SceneRecord]:
    """Run the three repairs in order: clean, caption-from-labels, expand."""
    out = []
    for rec in records:
        rec = rule_clean(rec, sensitive_vocab)
        rec = label_to_caption(rec, templates)
        rec = expand_caption(rec, min_len, templates)
        out.append(rec)
    return out


# --- model-scored filtering -------------------------------------------------

def alignment_scores(model: ModelSnapshot, records: list[SceneRecord]) -> np.ndarray:
    xs = np.stack([r.image for r in records])
    z_v, _ = _vision_forward(model, xs)
    z_t, _ = _text_forward(model, [list(r.caption) for r in records])
    return np.sum(z_v * z_t, axis=1)


def otsu_threshold(scores: np.ndarray, bins: int = 64) -> float:
    """Otsu split of the score histogram over [-1, 1]."""
    hist, edges = np.histogram(scores, bins=bins, range=(-1.0, 1.0))
    total = hist.sum()
    if total == 0:
        return 0.0
    centers = 0.5 * (edges[:-1] + edges[1:])
    w0 = np.cumsum(hist)
    w1 = total - w0
    sum0 = np.cumsum(hist * centers)
    sum_all = sum0[-1]
    best_t, best_var = edges[0], -1.0
    for i in range(bins - 1):
        if w0[i] == 0 or w1[i] == 0:
            continue
        mu0 = sum0[i] / w0[i]
        mu1 = (sum_all - sum0[i]) / w1[i]
        var = w0[i] * w1[i] * (mu0 - mu1) ** 2
        if var > best_var:
            best_var, best_t = var, edges[i + 1]
    return float(best_t)


def score_and_filter(model: ModelSnapshot, corpus: list[SceneRecord],
                     threshold: float | str = "auto"
                     ) -> tuple[list[SceneRecord], list[SceneRecord]]:
    """Partition the corpus by alignment score: kept (>= threshold), dropped."""
    if not corpus:
        return [], []
    scores = alignment_scores(model, corpus)
    if threshold == "auto":
        threshold = otsu_threshold(scores)
    kept, dropped = [], []
    for rec, s in zip(corpus, scores):
        rec = replace(rec, quality_score=float(s))
        (kept if s >= threshold else dropped).append(rec)
    return kept, dropped


@dataclass(frozen=True)
class LoopIteration:
    iteration: int
    metric: float
    kept_counts: dict
    dropped_counts: dict
    corruption_recall: float  # test-only: fraction of planted-corrupt records dropped


def quality_loop(corpora_by_party: dict, model0: ModelSnapshot, train_fn,
                 eval_set: EvalBatch | list[SceneRecord], max_iters: int,
                 target_metric: float, threshold: float | str = "auto",
                 floor: int = 10):
    """Iterative data/model loop: train, filter each party, retrain on kept.

    train_fn(model, corpora_by_party) -> trained model. Kept sets only ever
    shrink; a party dropping below ``floor`` records aborts with a
    starvation error.
    """
    corpora = {p: repair_corpus(recs) for p, recs in corpora_by_party.items()}
    model = train_fn(model0, corpora)
    report: list[LoopIteration] = []
    for it in range(max_iters):
        metric = recall_at_k(model, eval_set, 1)
        if metric >= target_metric:
            break
        kept_counts, dropped_counts = {}, {}
        dropped_all: list[SceneRecord] = []
        new_corpora = {}
        for party, recs in corpora.items():
            kept, dropped = score_and_filter(model, recs, threshold)
            if len(kept) < floor:
                raise StarvationError(
                    f"party {party!r} kept {len(kept)} < floor {floor}", party)
            new_corpora[party] = kept
            kept_counts[party] = len(kept)
            dropped_counts[party] = len(dropped)
            dropped_all.extend(dropped)
        corpora = new_corpora
        model = train_fn(model, corpora)
        n_corrupt_dropped = sum(1 for r in dropped_all if not r.clean)
        n_dropped = len(dropped_all)
        recall = n_corrupt_dropped / n_dropped if n_dropped else 0.0
        report.append(LoopIteration(
            iteration=it, metric=recall_at_k(model, eval_set, 1),
            kept_counts=kept_counts, dropped_counts=dropped_counts,
            corruption_recall=recall))
    return model, corpora, report


# --- corpus file format -----------------------------------------------------
# id TAB party TAB base64(image f64 LE) TAB caption ids TAB labels TAB tags

def save_corpus(records: list[SceneRecord]) -> str:
    lines = []
    for r in records:
        img = base64.b64encode(np.ascontiguousarray(r.image, dtype="<f8").tobytes())
        lines.append("\t".join([
            r.id, r.party, img.decode(),
            " ".join(str(t) for t in r.caption),
            " ".join(str(t) for t in r.object_labels),
            ",".join(sorted(r.corruption)) if r.corruption else "clean",
        ]))
    return "\n".join(lines) + "\n"


def load_corpus(text: str) -> list[SceneRecord]:
    records = []
    for line in text.splitlines():
        if not line.strip():
            continue
        rid, party, img_b64, cap, labels, tags = line.split("\t")
        image = np.frombuffer(base64.b64decode(img_b64), dtype="<f8").astype(np.float64)
        corruption = frozenset() if tags == "clean" else frozenset(tags.split(","))
        records.append(SceneRecord(
            id=rid, party=party, image=image,
            caption=tuple(int(t) for t in cap.split()) if cap else (),
            object_labels=tuple(int(t) for t in labels.split()) if labels else (),
            corruption=corruption))
    return records
