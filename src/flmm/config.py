"""Scenario configuration: INI-style file covering the whole run.

KNOWN_KEYS, the key table, is the one statement of what a scenario file may
hold: each section's keys, each with its parser and, where the settings
dataclass it fills does not bound it, its bound. Any other section or key
raises ConfigError, so no setting is silently ignored. A key the file does
not set takes the default of the dataclass it fills, so no default is
restated here. FLMM_SEED in the environment overrides the configured seed.
"""

from __future__ import annotations

import configparser
import math
import os
from collections import defaultdict
from dataclasses import dataclass, fields

from flmm.aggregation import AggregationPlan
from flmm.dataquality import TAGS, CorpusSpec
from flmm.errors import ConfigError, PlanError, RangeError, SpecError
from flmm.model import BLOCK_NAMES, D_EMB, D_T, D_V, RANK, TEMPERATURE, VOCAB
from flmm.orchestrator import ServerConfig, valid_party_id
from flmm.privacy import PrivacyConfig
from flmm.training import TrainConfig


@dataclass(frozen=True)
class PartyConfig:
    party_id: str
    corpus: CorpusSpec
    anchor_mu: float = 0.0


@dataclass(frozen=True)
class ModelConfig:
    d_v: int = D_V
    d_t: int = D_T
    d_emb: int = D_EMB
    rank: int = RANK
    vocab: int = VOCAB
    temperature: float = TEMPERATURE
    bridge: bool = True


@dataclass(frozen=True)
class QualityConfig:
    iters: int = 0
    target: float = 0.9
    threshold: object = "auto"  # "auto" or a float
    floor: int = 10


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig:
    seed: int = 42
    rounds: int = 10
    token: str = "flmm-shared-token"
    deadline: float = ServerConfig.deadline
    train: TrainConfig
    model: ModelConfig
    plan: AggregationPlan
    history_window: int = ServerConfig.history_window
    privacy: PrivacyConfig
    parties: tuple  # PartyConfig, ordered
    eval_spec: CorpusSpec
    quality: QualityConfig

    def party_ids(self) -> tuple:
        return tuple(p.party_id for p in self.parties)


def _flag(text: str) -> bool:
    word = text.lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError("must be true or false (1 or 0, yes or no)")
    return word in ("1", "true", "yes")


def _ints(text: str) -> tuple:
    return tuple(int(x) for x in text.replace(",", " ").split())


def _names(text: str) -> frozenset:
    return frozenset(b.strip() for b in text.split(",") if b.strip())


def _threshold(text: str) -> float | str:
    """A score threshold: "auto" (Otsu's, per corpus) or a finite number."""
    if text == "auto":
        return text
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError("must be auto or a finite number")
    return value


def _at_least(least: int) -> tuple:
    return (lambda value: value >= least), f"must be at least {least}"


# both comparisons are false for nan
_ABOVE_0 = (lambda value: 0.0 < value < math.inf), "must be finite and above 0"
_AT_LEAST_0 = (lambda value: 0.0 <= value < math.inf), "must be finite and at least 0"

# a corpus's keys; CorpusSpec bounds them and the corruption rates
_CORPUS = {"size": (int,), "seed": (int,), "classes": (_ints,)}

# section -> key -> (parser,) or (parser, check, the rule check enforces);
# "party:<id>" stands for every [party:<id>] section. PrivacyConfig and
# AggregationPlan bound their own fields.
KNOWN_KEYS = {
    "run": {"seed": (int,), "rounds": (int, *_at_least(1)), "token": (str,),
            "deadline": (float, *_ABOVE_0), "epochs": (int, *_at_least(1)),
            "lr": (float, *_ABOVE_0),
            # a contrastive step needs a batch of 2; below that no step would run
            "batch_size": (int, *_at_least(2))},
    "model": {**{dim: (int, *_at_least(1)) for dim in ("d_v", "d_t", "d_emb", "vocab")},
              "rank": (int,),  # bounded in _build: its bound depends on the dims
              "temperature": (float, *_ABOVE_0), "bridge": (_flag,)},
    "privacy": {"dp_enabled": (_flag,), "clip_norm": (float,), "noise_std": (float,),
                "masking_enabled": (_flag,)},
    "aggregation": {"strategy": (str,), "block_mask": (_names,),
                    "staleness_exponent": (float,), "mixing_rate": (float,),
                    "history_window": (int, *_at_least(0))},
    "party:<id>": {**_CORPUS, "anchor_mu": (float, *_AT_LEAST_0),
                   **{tag: (float,) for tag in TAGS}},
    "eval": _CORPUS,
    "quality": {"iters": (int, *_at_least(0)), "target": (float, math.isfinite, "must be finite"),
                "threshold": (_threshold,), "floor": (int, *_at_least(0))},
}


def parse_value(key: tuple, text: str, what: str):
    """``text`` parsed by ``key``, a KNOWN_KEYS entry; a ConfigError names
    ``what`` when the text does not parse or breaks the key's bound."""
    parse, *bound = key
    try:
        value = parse(text)
    except ValueError as e:
        raise ConfigError(f"{what} = {text!r}: {e}") from None
    if bound and not bound[0](value):
        raise ConfigError(f"{what} = {value}: {bound[1]}")
    return value


def load_config(path: str) -> ScenarioConfig:
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    try:
        return _build(cp)
    except (configparser.Error, PlanError, RangeError, SpecError) as e:
        raise ConfigError(f"bad config {path!r}: {e}") from e


def _read(cp: configparser.ConfigParser) -> dict:
    """section -> the values of the keys it sets, each parsed by its entry."""
    if cp.defaults():
        raise ConfigError("unknown section [DEFAULT]")
    read = defaultdict(dict)  # a section the file does not hold sets no keys
    for section in cp.sections():
        keys = KNOWN_KEYS.get("party:<id>" if section.startswith("party:") else section)
        if keys is None:
            raise ConfigError(f"unknown section [{section}]")
        read[section] = {}
        for name, text in cp.items(section):
            if name not in keys:
                raise ConfigError(f"[{section}]: unknown key {name!r}")
            read[section][name] = parse_value(keys[name], text, f"[{section}] {name}")
    return read


def _take(values: dict, cls) -> dict:
    """The entries of ``values`` that set a field of ``cls``, moved out of it."""
    return {f.name: values.pop(f.name) for f in fields(cls) if f.name in values}


def _corpus(party: str, keys: dict, rates: dict, d_v: int, size: int,
            seed: int) -> CorpusSpec:
    """The corpus a section's ``keys`` describe; ``size`` and ``seed`` stand
    where they set none, and classes 0..7 where they set no classes."""
    return CorpusSpec(party=party, size=keys.get("size", size), corruption_rates=rates,
                      seed=keys.get("seed", seed),
                      scene_class_pool=keys.get("classes", tuple(range(8))), d_v=d_v)


def _build(cp: configparser.ConfigParser) -> ScenarioConfig:
    read = _read(cp)
    run = read["run"]  # what TrainConfig does not take is the scenario's
    if "FLMM_SEED" in os.environ:
        run["seed"] = parse_value(KNOWN_KEYS["run"]["seed"], os.environ["FLMM_SEED"],
                                  "FLMM_SEED")
    train = TrainConfig(**_take(run, TrainConfig))

    model = ModelConfig(**read["model"])
    if not 1 <= model.rank <= min(model.d_v, model.d_t, model.d_emb):
        raise ConfigError(f"[model] rank = {model.rank}: must be in "
                          f"[1, min(d_v, d_t, d_emb)]")

    # [privacy] masking_enabled sets the plan's, so the server sums exactly
    # what the clients mask; [aggregation] history_window is the scenario's
    agg, privacy = read["aggregation"], read["privacy"]
    plan = AggregationPlan(**_take(agg, AggregationPlan), **_take(privacy, AggregationPlan))
    if not plan.block_mask & {b for b in BLOCK_NAMES if model.bridge or b != "bridge"}:
        raise ConfigError(f"[aggregation] block_mask = {','.join(sorted(plan.block_mask))}: "
                          f"names no block the model trains")

    parties = []
    for section, keys in read.items():
        if not section.startswith("party:"):
            continue
        pid = section.split(":", 1)[1]
        if not valid_party_id(pid):
            raise ConfigError(f"[{section}]: party id cannot go in the round log")
        rates = {tag: keys[tag] for tag in TAGS if tag in keys}
        corpus = _corpus(pid, keys, rates, model.d_v, size=100,
                         seed=run.get("seed", ScenarioConfig.seed))
        parties.append(PartyConfig(party_id=pid, corpus=corpus, **_take(keys, PartyConfig)))
    if not parties:
        raise ConfigError("at least one [party:<id>] section is required")
    parties.sort(key=lambda p: p.party_id)

    return ScenarioConfig(
        train=train, model=model, plan=plan, privacy=PrivacyConfig(**privacy),
        parties=tuple(parties),
        eval_spec=_corpus("eval", read["eval"], {}, model.d_v, size=200, seed=999),
        quality=QualityConfig(**read["quality"]), **run, **agg)
