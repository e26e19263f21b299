import os
from dataclasses import replace
from pathlib import Path

import pytest

from flmm.config import KNOWN_KEYS, load_config
from flmm.errors import ConfigError
from flmm.simulate import run_simulation, server_config

BASE = """
[run]
seed = 3
rounds = 2

[party:p0]
size = 20

[party:p1]
size = 20
"""


def write(tmp_path, text):
    path = tmp_path / "scenario.ini"
    path.write_text(text)
    return str(path)


def test_base_config_loads(tmp_path):
    cfg = load_config(write(tmp_path, BASE))
    assert cfg.party_ids() == ("p0", "p1")
    assert not cfg.plan.masking_enabled


def test_masking_moves_into_the_plan(tmp_path):
    cfg = load_config(write(tmp_path, BASE + "\n[privacy]\nmasking_enabled = true\n"))
    assert cfg.plan.masking_enabled and cfg.privacy.masking_enabled


@pytest.mark.parametrize("extra", [
    "[aggregation]\nstaleness_exponent = nan\n",
    "[aggregation]\nstrategy = async_mix\nstaleness_exponent = inf\n",
    "[aggregation]\nstaleness_exponent = -0.5\n",
    "[aggregation]\nstrategy = chained\n",
    "[aggregation]\nstrategy = product_refactor\n[privacy]\nmasking_enabled = true\n",
    "[aggregation]\nstrategy = async_mix\n[privacy]\nmasking_enabled = true\n",
    "[party:a b]\nsize = 20\n",
    "[party:a,b]\nsize = 20\n",
    "[party:a:b]\nsize = 20\n",
    "[party:a=b]\nsize = 20\n",
    "[party:]\nsize = 20\n",
    "[party:p2]\nsize = 20\nmismatched = 1.5\ntoo_short = -0.6\n",
], ids=["nan_exponent", "inf_exponent", "negative_exponent", "chained",
        "masked_product_refactor", "masked_async_mix", "id_space", "id_comma",
        "id_colon", "id_equals", "id_empty", "rates_out_of_range_sum_below_1"])
def test_rejected_with_config_error(tmp_path, extra):
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, BASE + "\n" + extra))


@pytest.mark.parametrize("section, key, value, message", [
    ("run", "batch_size", "0", "batch_size = 0: must be at least 2"),
    ("run", "batch_size", "1", "batch_size = 1: must be at least 2"),
    ("run", "batch_size", "-4", "batch_size = -4: must be at least 2"),
    ("run", "epochs", "0", "epochs = 0: must be at least 1"),
    ("run", "epochs", "-1", "epochs = -1: must be at least 1"),
    ("run", "rounds", "0", r"\[run\] rounds = 0: must be at least 1"),
    ("run", "rounds", "-2", r"\[run\] rounds = -2: must be at least 1"),
    ("party:p0", "mismatched", "2.0", "corruption rates sum above 1"),
    ("party:p0", "mismatched", "nan", r"corruption rate mismatched = nan: must be in"),
    ("party:p0", "too_short", "-0.1", r"corruption rate too_short = -0.1: must be in"),
    ("party:p0", "size", "-3", r"corpus size -3: must be at least 0"),
    ("eval", "size", "-1", r"corpus size -1: must be at least 0"),
    ("party:p0", "classes", ",", "scene class pool is empty"),
    ("party:p0", "classes", "0,0,1", "repeats a class"),
    ("eval", "classes", ",", "scene class pool is empty"),
    ("party:p0", "classes", "0,30", "scene class 30 is outside 0..29"),
    ("party:p0", "anchor_mu", "-3", r"\[party:p0\] anchor_mu = -3.0: must be finite"),
    ("party:p0", "anchor_mu", "nan", r"\[party:p0\] anchor_mu = nan: must be finite"),
    ("party:p0", "anchor_mu", "inf", r"\[party:p0\] anchor_mu = inf: must be finite"),
    ("party:p0", "anchor_mu", "-inf", r"\[party:p0\] anchor_mu = -inf: must be finite"),
    ("quality", "threshold", "abc", r"\[quality\] threshold = 'abc': must be auto or a"),
    ("quality", "threshold", "nan", r"\[quality\] threshold = 'nan': must be auto or a"),
    ("quality", "threshold", "-inf", r"\[quality\] threshold = '-inf': must be auto or a"),
    ("run", "lr", "-0.1", r"\[run\] lr = -0.1: must be finite and above 0"),
    ("run", "lr", "0", r"\[run\] lr = 0.0: must be finite and above 0"),
    ("run", "lr", "nan", r"\[run\] lr = nan: must be finite and above 0"),
    ("run", "lr", "inf", r"\[run\] lr = inf: must be finite and above 0"),
    ("run", "deadline", "-1", r"\[run\] deadline = -1.0: must be finite and above 0"),
    ("run", "deadline", "0", r"\[run\] deadline = 0.0: must be finite and above 0"),
    ("run", "deadline", "nan", r"\[run\] deadline = nan: must be finite and above 0"),
    ("run", "deadline", "inf", r"\[run\] deadline = inf: must be finite and above 0"),
    ("aggregation", "history_window", "-1",
     r"\[aggregation\] history_window = -1: must be at least 0"),
    ("model", "temperature", "-1", r"\[model\] temperature = -1.0: must be finite"),
    ("model", "temperature", "0", r"\[model\] temperature = 0.0: must be finite"),
    ("model", "temperature", "inf", r"\[model\] temperature = inf: must be finite"),
    ("model", "d_v", "0", r"\[model\] d_v = 0: must be at least 1"),
    ("model", "d_t", "-2", r"\[model\] d_t = -2: must be at least 1"),
    ("model", "d_emb", "0", r"\[model\] d_emb = 0: must be at least 1"),
    ("model", "vocab", "0", r"\[model\] vocab = 0: must be at least 1"),
    ("model", "rank", "0", r"\[model\] rank = 0: must be in \[1, min"),
    # d_emb is 8 by default, so rank 9 exceeds min(d_v, d_t, d_emb)
    ("model", "rank", "9", r"\[model\] rank = 9: must be in \[1, min"),
    ("privacy", "clip_norm", "nan", r"clip_norm = nan: must be finite and above 0"),
    ("privacy", "clip_norm", "inf", r"clip_norm = inf: must be finite and above 0"),
    ("privacy", "clip_norm", "0", r"clip_norm = 0.0: must be finite and above 0"),
    ("privacy", "clip_norm", "-1", r"clip_norm = -1.0: must be finite and above 0"),
    ("privacy", "noise_std", "-0.5", r"noise_std = -0.5: must be finite and at least 0"),
    ("privacy", "noise_std", "nan", r"noise_std = nan: must be finite and at least 0"),
    ("privacy", "noise_std", "inf", r"noise_std = inf: must be finite and at least 0"),
])
def test_out_of_range_value_is_a_config_error(tmp_path, section, key, value, message):
    with pytest.raises(ConfigError, match=message):
        load_config(write(tmp_path, render({section: {key: value}})))


def test_zero_noise_under_dp_accepted(tmp_path):
    cfg = load_config(write(tmp_path, BASE + "\n[privacy]\ndp_enabled = true\n"
                                             "noise_std = 0\n"))
    assert cfg.privacy.dp_enabled and cfg.privacy.noise_std == 0.0


def test_largest_rank_and_smallest_dims_accepted(tmp_path):
    cfg = load_config(write(tmp_path, render({"model": {"rank": "8"}})))
    assert cfg.model.rank == 8
    cfg = load_config(write(tmp_path, render(
        {"model": {"d_v": "1", "d_t": "1", "d_emb": "1", "rank": "1", "vocab": "1"}})))
    assert (cfg.model.d_v, cfg.model.vocab) == (1, 1)


def test_smallest_batch_and_epochs_accepted(tmp_path):
    cfg = load_config(write(tmp_path, render({"run": {"batch_size": "2", "epochs": "1"}})))
    assert (cfg.train.batch_size, cfg.train.epochs) == (2, 1)


def test_finite_exponent_accepted(tmp_path):
    cfg = load_config(write(tmp_path, BASE + "\n[aggregation]\nstrategy = async_mix\n"
                                             "staleness_exponent = 2.0\n"))
    assert cfg.plan.staleness_exponent == 2.0


# -- every key reaches the run or is rejected -------------------------------------

@pytest.mark.parametrize("section, key", [
    ("party:p0", "distill_lambda"), ("party:p0", "modalities"),
    ("party:p0", "shapley_weight"), ("privacy", "blacklist"),
    ("privacy", "sensitive_patterns"), ("privacy", "refusal_sequence"),
    ("run", "rouns"), ("model", "d_embed"), ("aggregation", "stratgy"),
    ("party:p0", "anchor"), ("eval", "sized"), ("quality", "iter"),
])
def test_unknown_key_raises_naming_it(tmp_path, section, key):
    with pytest.raises(ConfigError, match=f"\\[{section}\\]: unknown key '{key}'"):
        load_config(write(tmp_path, render({section: {key: "1"}})))


@pytest.mark.parametrize("section", ["probe", "party", "Run", "DEFAULT"])
def test_unknown_section_raises_naming_it(tmp_path, section):
    with pytest.raises(ConfigError, match=f"unknown section \\[{section}\\]"):
        load_config(write(tmp_path, render({section: {"size": "1"}})))


def test_readme_quick_start_config_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    ini = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    cfg = load_config(write(tmp_path, ini))
    assert cfg.party_ids() == ("factory", "hospital")
    assert cfg.parties[0].corpus.corruption_rates == {"mismatched": 0.2}


KEYED_BASE = {
    "run": {"seed": "3", "rounds": "2", "epochs": "1", "lr": "0.1", "batch_size": "8"},
    "party:p0": {"size": "24", "classes": "0,1,2,3"},
    "party:p1": {"size": "24", "classes": "0,1,2,3"},
    "eval": {"size": "16"},
}
ASYNC = {"aggregation": {"strategy": "async_mix"}}
DP = {"privacy": {"dp_enabled": "true"}}
LOOP = {"quality": {"iters": "1", "target": "2.0", "threshold": "0.0"}}


def render(*layers) -> str:
    merged: dict = {}
    for layer in (KEYED_BASE,) + layers:
        for section, keys in layer.items():
            merged.setdefault(section, {}).update(keys)
    return "\n".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                     for section, keys in merged.items())


@pytest.fixture(scope="module")
def run_output(tmp_path_factory):
    """The bytes of final.ckpt and eval.txt of a run_simulation of an INI text,
    memoized by the text and FLMM_SEED: many keys share a base scenario."""
    memo = {}

    def run(text: str) -> bytes:
        key = (text, os.environ.get("FLMM_SEED"))
        if key not in memo:
            work = tmp_path_factory.mktemp("run")
            (work / "scenario.ini").write_text(text)
            run_simulation(load_config(str(work / "scenario.ini")), str(work / "out"))
            memo[key] = b"".join((work / "out" / name).read_bytes()
                                 for name in ("final.ckpt", "eval.txt"))
        return memo[key]
    return run


# (section, key, a value away from its default, the settings under which it applies)
KEY_CASES = [
    ("run", "seed", "4", {}),
    ("run", "rounds", "3", {}),
    ("run", "epochs", "3", {}),
    ("run", "lr", "0.05", {}),
    ("run", "batch_size", "4", {}),
    ("model", "d_v", "12", {}),
    ("model", "d_t", "12", {}),
    ("model", "d_emb", "6", {}),
    ("model", "rank", "1", {}),
    ("model", "vocab", "80", {}),
    ("model", "temperature", "0.2", {}),
    ("model", "bridge", "false", {}),
    ("privacy", "dp_enabled", "true", {"privacy": {"noise_std": "0.01"}}),
    ("privacy", "clip_norm", "0.001", DP),
    ("privacy", "noise_std", "0.01", DP),
    ("privacy", "masking_enabled", "true", {}),
    ("aggregation", "strategy", "product_refactor", {}),
    ("aggregation", "strategy", "async_mix", {}),
    ("aggregation", "block_mask", "vision.a,vision.b", {}),
    ("aggregation", "mixing_rate", "0.25", ASYNC),
    ("aggregation", "staleness_exponent", "2.0", ASYNC),
    ("party:p0", "size", "20", {}),
    ("party:p0", "seed", "11", {}),
    ("party:p0", "classes", "0,1", {}),
    ("party:p0", "anchor_mu", "2.0", {}),
    ("party:p0", "mismatched", "0.5", {}),
    ("party:p0", "sensitive_noise", "0.5", {}),
    ("party:p0", "labels_only", "0.5", {}),
    ("party:p0", "too_short", "0.5", {}),
    ("eval", "size", "12", {}),
    ("eval", "seed", "5", {}),
    ("eval", "classes", "0,1,2,3", {}),
    ("quality", "iters", "1", {}),
    ("quality", "target", "0.0", LOOP),
    ("quality", "threshold", "0.0", {"quality": {"iters": "1", "target": "2.0"}}),
    ("quality", "floor", "1000", LOOP),
]
# In-process agents take turns, so every async_mix update is based on the
# current version: its staleness is 0 and (1 + 0) ** -exponent is 1. Only
# concurrent socket clients submit stale updates.
UNSEEN_IN_PROCESS = {("aggregation", "staleness_exponent")}

# keys no in-process run can show: they reach only the server's settings
SERVER_KEYS = [
    ("run", "token", "another-token"),
    ("run", "deadline", "5.0"),
    ("aggregation", "history_window", "3"),
]


def test_every_key_has_a_case():
    covered = {(s.split(":")[0], k) for s, k, _, _ in KEY_CASES} \
        | {(s, k) for s, k, _ in SERVER_KEYS}
    assert covered == {(s.split(":")[0], k) for s, keys in KNOWN_KEYS.items() for k in keys}


@pytest.mark.parametrize("section, key, value, context", [
    pytest.param(*case, id=f"{case[0].split(':')[0]}.{case[1]}={case[2]}",
                 marks=[pytest.mark.xfail(strict=True)]
                 if case[:2] in UNSEEN_IN_PROCESS else [])
    for case in KEY_CASES])
def test_key_changes_the_run_output(run_output, section, key, value, context):
    assert run_output(render(context, {section: {key: value}})) != run_output(render(context))


def test_flmm_seed_changes_the_run_output(run_output, monkeypatch):
    base = run_output(render())
    monkeypatch.setenv("FLMM_SEED", "4")
    assert run_output(render()) != base


@pytest.mark.parametrize("section, key, value", SERVER_KEYS,
                         ids=[k for _, k, _ in SERVER_KEYS])
def test_server_key_reaches_server_config(tmp_path, section, key, value):
    base = server_config(load_config(write(tmp_path, render())))
    changed = server_config(load_config(write(tmp_path, render({section: {key: value}}))))
    assert getattr(changed, key) != getattr(base, key)
    assert replace(changed, **{key: getattr(base, key)}) == base
