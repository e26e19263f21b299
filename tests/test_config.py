import pytest

from flmm.config import load_config
from flmm.errors import ConfigError

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
], ids=["nan_exponent", "inf_exponent", "negative_exponent", "chained",
        "masked_product_refactor", "masked_async_mix", "id_space", "id_comma",
        "id_colon", "id_equals", "id_empty"])
def test_rejected_with_config_error(tmp_path, extra):
    with pytest.raises(ConfigError):
        load_config(write(tmp_path, BASE + "\n" + extra))


def test_finite_exponent_accepted(tmp_path):
    cfg = load_config(write(tmp_path, BASE + "\n[aggregation]\nstrategy = async_mix\n"
                                             "staleness_exponent = 2.0\n"))
    assert cfg.plan.staleness_exponent == 2.0
