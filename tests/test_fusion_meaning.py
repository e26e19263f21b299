"""Meaning oracles for the fusion strategies.

Parties train real models with ``local_train``; the server's ``aggregate``
fuses their updates. Each expected value is computed here with numpy from
the parties' trained models and the strategy's definition, never through
``flmm.aggregation``, so a wrong formula there cannot also be the oracle:
- one party's round gives its trained model, under every strategy;
- product_refactor gives the best rank-r approximation of the weighted mean
  of the parties' trained products s*B_i@A_i;
- async_mix blends by FedAsync's beta = alpha * (1 + tau)^(-a);
- sync_avg gives the sample-weighted mean of the trained blocks.

Updates carry ``trained - base``, and the server adds their mean back to
``base``, so the fused blocks may differ from the expected ones by a few
roundings: at most ``ULPS`` units in the last place of the largest model
that enters the expected value.
"""

import numpy as np
import pytest

from flmm.aggregation import AggregationPlan, aggregate
from flmm.dataquality import CorpusSpec, generate_corpus
from flmm.model import LORA_SCALE, init_snapshot, snapshot_blocks, with_blocks
from flmm.training import TrainConfig, local_train, make_update, trainable_records

TOWERS = ("vision", "text")
ULPS = 8
SAMPLES = (1, 5, 20)  # unequal, so a unit-weight mean differs from the weighted one


def corpora(parties):
    return [trainable_records(generate_corpus(CorpusSpec(
        party=f"p{i}", size=40, corruption_rates={}, seed=7 + i,
        scene_class_pool=(2 * i, 2 * i + 1, 2 * i + 2, 2 * i + 3))))
        for i in range(parties)]


def trained_from(base, parties, seed):
    """Each party's model after local training from ``base``."""
    return local_train(base, corpora(parties), TrainConfig(epochs=2, lr=0.1),
                       [seed + i for i in range(parties)])


@pytest.fixture(scope="module")
def bases():
    """The initial model (b = 0) and a model after one party's training, so
    that every factor is nonzero."""
    first = init_snapshot(7)
    return {"initial": first, "trained": trained_from(first, 1, 3)[0]}


def updates_of(base, trained, samples=SAMPLES):
    return [make_update(base, t, f"p{i}", n, 0)
            for i, (t, n) in enumerate(zip(trained, samples))]


def product(blocks, tower):
    return LORA_SCALE * (blocks[f"{tower}.b"] @ blocks[f"{tower}.a"])


def assert_within_roundings(fused, want, *models):
    """``fused`` is ``want`` up to ULPS units in the last place of the
    largest of ``want`` and ``models``, entry by entry."""
    scale = np.max(np.abs(np.stack((want,) + models)), axis=0)
    assert np.all(np.abs(fused - want) <= ULPS * np.spacing(scale))


@pytest.mark.parametrize("at", ["initial", "trained"])
class TestOneParty:
    @pytest.mark.parametrize("samples", [1, 40])
    def test_sync_avg_gives_the_trained_blocks(self, bases, at, samples):
        base = bases[at]
        trained = trained_from(base, 1, 11)[0]
        update = make_update(base, trained, "p0", samples, 0)
        fused = snapshot_blocks(aggregate(AggregationPlan(), base, [update], {}))
        for n, m in trained.blocks.items():
            if samples == 1:  # the mean of one unit-weight delta is that delta
                assert fused[n].tobytes() == (base.blocks[n] + update.deltas[n]).tobytes()
            assert_within_roundings(fused[n], m, base.blocks[n])

    def test_product_refactor_gives_the_trained_product(self, bases, at):
        base = bases[at]
        trained = trained_from(base, 1, 12)[0]
        update = make_update(base, trained, "p0", 1, 0)
        plan = AggregationPlan(strategy="product_refactor")
        fused = snapshot_blocks(aggregate(plan, base, [update], {}))
        for tower in TOWERS:
            want = product(trained.blocks, tower)
            assert np.linalg.norm(product(fused, tower) - want) \
                <= 1e-12 * np.linalg.norm(want)
        assert fused["bridge"].tobytes() == \
            (base.blocks["bridge"] + update.deltas["bridge"]).tobytes()
        assert_within_roundings(fused["bridge"], trained.blocks["bridge"],
                                base.blocks["bridge"])

    def test_async_mix_at_full_rate_and_no_staleness_gives_the_trained_blocks(
            self, bases, at):
        base = bases[at]
        trained = trained_from(base, 1, 13)[0]
        update = make_update(base, trained, "p0", 7, 0)
        plan = AggregationPlan(strategy="async_mix", mixing_rate=1.0,
                               staleness_exponent=0.5)
        fused = snapshot_blocks(aggregate(plan, base, [update], {base.version: base}))
        for n, m in trained.blocks.items():
            assert fused[n].tobytes() == (base.blocks[n] + update.deltas[n]).tobytes()
            assert_within_roundings(fused[n], m, base.blocks[n])


@pytest.mark.parametrize("at", ["initial", "trained"])
@pytest.mark.parametrize("parties", [2, 3])
def test_product_refactor_is_the_best_rank_r_fit_of_the_mean_trained_product(
        bases, at, parties):
    base = bases[at]
    trained = trained_from(base, parties, 21)
    samples = SAMPLES[:parties]
    fused = snapshot_blocks(aggregate(AggregationPlan(strategy="product_refactor"),
                                      base, updates_of(base, trained, samples), {}))
    for tower in TOWERS:
        mean = sum(n * product(t.blocks, tower) for n, t in zip(samples, trained)) \
            / sum(samples)
        rank = base.blocks[f"{tower}.a"].shape[0]
        svals = np.linalg.svd(mean, compute_uv=False)
        best = float(np.sqrt(np.sum(svals[rank:] ** 2)))
        residual = float(np.linalg.norm(mean - product(fused, tower)))
        assert abs(residual - best) <= 1e-8
        # the parties' products differ, so rank r does not hold their mean
        assert svals[rank] > 1e-6 * svals[0]


@pytest.mark.parametrize("tau", [0, 1, 3])
@pytest.mark.parametrize("alpha, a", [(0.5, 0.5), (0.8, 2.0)])
def test_async_mix_follows_fedasync(bases, tau, alpha, a):
    # Xie, Koyejo & Gupta (2019): x <- (1 - beta) x + beta x_client, with
    # beta = alpha * (1 + tau)^(-a) for an update trained tau versions ago
    stale = bases["trained"]
    trained = trained_from(stale, 1, 31)[0]
    # the server has since fused tau versions, here another party's training
    current = with_blocks(trained_from(stale, 1, 32)[0], {}, stale.version + tau) \
        if tau else stale
    plan = AggregationPlan(strategy="async_mix", mixing_rate=alpha, staleness_exponent=a)
    update = make_update(stale, trained, "p0", 3, 0)
    fused = snapshot_blocks(aggregate(plan, current, [update], {stale.version: stale}))
    beta = alpha * (1 + tau) ** -a
    for n, m in trained.blocks.items():
        want = (1 - beta) * current.blocks[n] + beta * m
        assert_within_roundings(fused[n], want, current.blocks[n], m, stale.blocks[n])


@pytest.mark.parametrize("at", ["initial", "trained"])
def test_sync_avg_is_the_weighted_mean_of_the_trained_blocks(bases, at):
    base = bases[at]
    trained = trained_from(base, 3, 41)
    fused = snapshot_blocks(aggregate(AggregationPlan(), base,
                                      updates_of(base, trained), {}))
    for n in fused:
        want = sum(k * t.blocks[n] for k, t in zip(SAMPLES, trained)) / sum(SAMPLES)
        assert_within_roundings(fused[n], want, base.blocks[n],
                                *(t.blocks[n] for t in trained))
