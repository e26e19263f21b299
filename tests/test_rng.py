import math

import numpy as np
import pytest

from flmm import _kernels
from flmm.rng import GOLDEN, MASK64, SplitMix64, gaussian_outputs, gaussian_rows, \
    hash_text, mix_seed

from support import ScalarStream, oracle_gaussians, uniforms


def reference_splitmix64(seed, n):
    """Straight transcription of the mixing constants, kept independent of
    the library's vectorized paths."""
    out = []
    state = seed & MASK64
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


def test_first_output_from_seed_zero_matches_reference():
    assert ScalarStream(0).next_u64() == reference_splitmix64(0, 1)[0]
    # frozen from the reference implementation above
    assert ScalarStream(0).next_u64() == 0xE220A8397B1DCDAF


@pytest.mark.parametrize("seed", [0, 1, 42, 2**64 - 1, 0xDEADBEEF])
def test_sequential_matches_reference(seed):
    rng = ScalarStream(seed)
    assert [rng.next_u64() for _ in range(50)] == reference_splitmix64(seed, 50)


@pytest.mark.parametrize("seed", [0, 7, 123456789])
def test_bulk_matches_sequential(seed):
    ref = np.array(reference_splitmix64(seed, 200), dtype=np.uint64)
    got = _kernels.bulk_mix(np.uint64(seed), 200)
    assert np.array_equal(ref, got)


def test_uniforms_advance_state_like_scalar_path():
    a = ScalarStream(5)
    b = ScalarStream(5)
    vec = uniforms(a, 17)
    scalars = [b.next_uniform() for _ in range(17)]
    assert np.allclose(vec, scalars, rtol=0, atol=0)
    assert a.next_u64() == b.next_u64()


def test_uniform_range_and_mean():
    u = uniforms(SplitMix64(3), 100_000)
    assert np.all((0.0 <= u) & (u < 1.0))
    assert abs(u.mean() - 0.5) < 0.01


def test_gaussian_moments():
    g = SplitMix64(11).gaussians(100_000)
    assert abs(g.mean()) < 0.02
    assert abs(g.std() - 1.0) < 0.01


def test_determinism_and_seed_sensitivity():
    assert np.array_equal(SplitMix64(9).gaussians(64), SplitMix64(9).gaussians(64))
    assert not np.array_equal(SplitMix64(9).gaussians(64), SplitMix64(10).gaussians(64))


@pytest.mark.parametrize("seed", [0, 9, 2**64 - 1])
@pytest.mark.parametrize("n", [0, 1, 2, 15, 16, 101])
def test_gaussians_match_scalar_box_muller(seed, n):
    rng, scalar = SplitMix64(seed), ScalarStream(seed)
    got = rng.gaussians(n)
    want = oracle_gaussians(scalar, n)
    assert got.shape == (n,)
    assert got.tobytes() == want.tobytes()
    assert rng.state == scalar.state
    assert gaussian_outputs(n) == 2 * ((n + 1) // 2)


@pytest.mark.parametrize("n", [0, 1, 15, 16])
def test_gaussian_rows_are_the_gaussians_of_each_start(n):
    """Starts that overlap, repeat, wrap around 2^64 and sit next to each
    other: each row is the draw of a stream at that state."""
    starts = [5, 5 + GOLDEN, 5, MASK64, 2**63, 0]
    rows = gaussian_rows(starts, n)
    assert rows.shape == (len(starts), n)
    for row, start in zip(rows, starts):
        assert row.tobytes() == oracle_gaussians(ScalarStream(start), n).tobytes()
    assert gaussian_rows([], n).shape == (0, n)


def test_skip_advances_like_discarded_draws():
    a, b = SplitMix64(77), ScalarStream(77)
    a.skip(13)
    for _ in range(13):
        b.next_u64()
    assert a.state == b.state


def test_shuffle_is_a_permutation():
    rng = SplitMix64(1)
    items = list(range(30))
    rng.shuffle(items)
    assert sorted(items) == list(range(30))
    assert items != list(range(30))


def test_mix_seed_and_hash_text_stability():
    assert mix_seed(1, 2, 3) == mix_seed(1, 2, 3)
    assert mix_seed(1, 2, 3) != mix_seed(1, 3, 2)
    assert hash_text("alpha") == hash_text("alpha")
    assert hash_text("alpha") != hash_text("beta")


def scalar_shuffle(rng, items):
    """Fisher-Yates with one next_u64 per swap: the oracle for the bulk draw
    in SplitMix64.shuffle."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.next_u64() % (i + 1)
        items[i], items[j] = items[j], items[i]


@pytest.mark.parametrize("seed", [1, 42, 2**63 + 5, 2**64 - 1])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 400, 1000])
def test_shuffle_matches_scalar_fisher_yates(seed, n):
    got, want = list(range(n)), list(range(n))
    bulk, scalar = ScalarStream(seed), ScalarStream(seed)
    bulk.shuffle(got)
    scalar_shuffle(scalar, want)
    assert got == want
    assert bulk.state == scalar.state
    assert bulk.next_u64() == scalar.next_u64()
