"""Scenario configuration: INI-style file covering the whole run.

Every knob has a stated default; FLMM_SEED in the environment overrides the
configured seed. KNOWN_KEYS lists every section and key a run reads; any
other section or key raises ConfigError, so no setting is silently ignored.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass

from flmm.aggregation import AggregationPlan
from flmm.dataquality import CorpusSpec
from flmm.errors import ConfigError, PlanError, SpecError
from flmm.model import BLOCK_NAMES
from flmm.orchestrator import valid_party_id
from flmm.privacy import PrivacyConfig
from flmm.training import TrainConfig


@dataclass(frozen=True)
class PartyConfig:
    party_id: str
    corpus: CorpusSpec
    anchor_mu: float = 0.0


@dataclass(frozen=True)
class ModelConfig:
    d_v: int = 16
    d_t: int = 16
    d_emb: int = 8
    rank: int = 2
    vocab: int = 64
    temperature: float = 0.1
    bridge: bool = True


@dataclass(frozen=True)
class QualityConfig:
    iters: int = 0
    target: float = 0.9
    threshold: object = "auto"  # "auto" or a float
    floor: int = 10


@dataclass(frozen=True)
class ScenarioConfig:
    seed: int
    rounds: int
    token: str
    deadline: float
    train: TrainConfig
    model: ModelConfig
    plan: AggregationPlan
    history_window: int
    privacy: PrivacyConfig
    parties: tuple  # PartyConfig, ordered
    eval_spec: CorpusSpec
    quality: QualityConfig

    def party_ids(self) -> tuple:
        return tuple(p.party_id for p in self.parties)


# section -> the keys a run reads from it
KNOWN_KEYS = {
    "run": {"seed", "rounds", "token", "deadline", "epochs", "lr", "batch_size"},
    "model": {"d_v", "d_t", "d_emb", "rank", "vocab", "temperature", "bridge"},
    "privacy": {"dp_enabled", "clip_norm", "noise_std", "masking_enabled"},
    "aggregation": {"strategy", "block_mask", "staleness_exponent", "mixing_rate",
                    "history_window"},
    "party:<id>": {"size", "seed", "classes", "anchor_mu", "mismatched",
                   "sensitive_noise", "labels_only", "too_short"},
    "eval": {"size", "seed", "classes"},
    "quality": {"iters", "target", "threshold", "floor"},
}


def _ints(s: str) -> tuple:
    return tuple(int(x) for x in s.replace(",", " ").split())


def load_config(path: str) -> ScenarioConfig:
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    try:
        return _build(cp)
    except (configparser.Error, KeyError, ValueError, PlanError, SpecError) as e:
        raise ConfigError(f"bad config {path!r}: {e}") from e


def quality_threshold(text: str, what: str) -> float | str:
    """A score threshold: "auto" (Otsu's, per corpus) or a finite number."""
    if text == "auto":
        return text
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"{what} = {text!r}: must be auto or a finite number")
    return value


def _check_keys(cp: configparser.ConfigParser) -> None:
    if cp.defaults():
        raise ConfigError("unknown section [DEFAULT]")
    for section in cp.sections():
        kind = "party:<id>" if section.startswith("party:") else section
        if kind not in KNOWN_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        unknown = sorted(set(cp[section]) - KNOWN_KEYS[kind])
        if unknown:
            raise ConfigError(f"[{section}]: unknown key {unknown[0]!r}")


def _build(cp: configparser.ConfigParser) -> ScenarioConfig:
    _check_keys(cp)
    run = cp["run"] if cp.has_section("run") else {}
    seed = int(os.environ.get("FLMM_SEED", run.get("seed", "42")))

    model_sec = cp["model"] if cp.has_section("model") else {}
    model = ModelConfig(
        d_v=int(model_sec.get("d_v", 16)),
        d_t=int(model_sec.get("d_t", 16)),
        d_emb=int(model_sec.get("d_emb", 8)),
        rank=int(model_sec.get("rank", 2)),
        vocab=int(model_sec.get("vocab", 64)),
        temperature=float(model_sec.get("temperature", 0.1)),
        bridge=str(model_sec.get("bridge", "true")).lower() in ("1", "true", "yes"),
    )
    for key in ("d_v", "d_t", "d_emb", "vocab"):
        if getattr(model, key) < 1:
            raise ConfigError(f"[model] {key} = {getattr(model, key)}: must be at least 1")
    if not 1 <= model.rank <= min(model.d_v, model.d_t, model.d_emb):
        raise ConfigError(f"[model] rank = {model.rank}: must be in "
                          f"[1, min(d_v, d_t, d_emb)]")

    priv = cp["privacy"] if cp.has_section("privacy") else {}
    privacy = PrivacyConfig(
        dp_enabled=str(priv.get("dp_enabled", "false")).lower() in ("1", "true", "yes"),
        clip_norm=float(priv.get("clip_norm", 1.0)),
        noise_std=float(priv.get("noise_std", 0.0)),
        masking_enabled=str(priv.get("masking_enabled", "false")).lower() in ("1", "true", "yes"),
    )

    agg = cp["aggregation"] if cp.has_section("aggregation") else {}
    mask = agg.get("block_mask", ",".join(BLOCK_NAMES))
    plan = AggregationPlan(
        strategy=agg.get("strategy", "sync_avg"),
        block_mask=frozenset(b.strip() for b in mask.split(",") if b.strip()),
        staleness_exponent=float(agg.get("staleness_exponent", 0.5)),
        mixing_rate=float(agg.get("mixing_rate", 0.5)),
        masking_enabled=privacy.masking_enabled,
    )

    parties = []
    for section in cp.sections():
        if not section.startswith("party:"):
            continue
        p = cp[section]
        pid = section.split(":", 1)[1]
        if not valid_party_id(pid):
            raise ConfigError(f"[{section}]: party id cannot go in the round log")
        rates = {}
        for tag in ("mismatched", "sensitive_noise", "labels_only", "too_short"):
            if tag in p:
                rates[tag] = float(p[tag])
        corpus = CorpusSpec(
            party=pid,
            size=int(p.get("size", 100)),
            corruption_rates=rates,
            seed=int(p.get("seed", seed)),
            scene_class_pool=_ints(p.get("classes", "0,1,2,3,4,5,6,7")),
            d_v=model.d_v,
        )
        mu = float(p.get("anchor_mu", 0.0))
        if not 0.0 <= mu < math.inf:  # false for nan
            raise ConfigError(f"[{section}] anchor_mu = {mu}: must be finite and at least 0")
        parties.append(PartyConfig(party_id=pid, corpus=corpus, anchor_mu=mu))
    if not parties:
        raise ConfigError("at least one [party:<id>] section is required")
    parties.sort(key=lambda p: p.party_id)

    ev = cp["eval"] if cp.has_section("eval") else {}
    eval_spec = CorpusSpec(
        party="eval", size=int(ev.get("size", 200)), corruption_rates={},
        seed=int(ev.get("seed", 999)),
        scene_class_pool=_ints(ev.get("classes", "0,1,2,3,4,5,6,7")),
        d_v=model.d_v,
    )

    q = cp["quality"] if cp.has_section("quality") else {}
    quality = QualityConfig(
        iters=int(q.get("iters", 0)),
        target=float(q.get("target", 0.9)),
        threshold=quality_threshold(q.get("threshold", "auto"), "[quality] threshold"),
        floor=int(q.get("floor", 10)),
    )

    train = TrainConfig(
        epochs=int(run.get("epochs", 2)),
        lr=float(run.get("lr", 0.01)),
        batch_size=int(run.get("batch_size", 16)),
    )
    rounds = int(run.get("rounds", 10))
    history_window = int(agg.get("history_window", 16))
    for section, key, value, least in (
            # a contrastive step needs a batch of 2; below that no step would run
            ("run", "batch_size", train.batch_size, 2),
            ("run", "epochs", train.epochs, 1),
            ("run", "rounds", rounds, 1),
            ("aggregation", "history_window", history_window, 0)):
        if value < least:
            raise ConfigError(f"[{section}] {key} = {value}: must be at least {least}")
    deadline = float(run.get("deadline", 60.0))
    for section, key, value in (("run", "lr", train.lr), ("run", "deadline", deadline),
                                ("model", "temperature", model.temperature)):
        if not 0.0 < value < math.inf:  # false for nan
            raise ConfigError(f"[{section}] {key} = {value}: must be finite and above 0")

    return ScenarioConfig(
        seed=seed,
        rounds=rounds,
        token=run.get("token", "flmm-shared-token"),
        deadline=deadline,
        train=train,
        model=model,
        plan=plan,
        history_window=history_window,
        privacy=privacy,
        parties=tuple(parties),
        eval_spec=eval_spec,
        quality=quality,
    )
