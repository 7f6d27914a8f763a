import math

import numpy as np
import pytest

from qmud.rng import _GAMMA, _MASK64, SplitMix64, TrialStreams, derive_seed, mix64


def test_streams_are_reproducible():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_uniform_range_and_determinism():
    rng = SplitMix64(7)
    values = [rng.uniform() for _ in range(10_000)]
    assert all(0.0 <= u < 1.0 for u in values)
    mean = sum(values) / len(values)
    assert abs(mean - 0.5) < 0.02


def test_derive_seed_matches_stream_outputs():
    # Trial seeds are defined as successive raw outputs of the master stream.
    master = 999
    stream = SplitMix64(master)
    assert [derive_seed(master, i) for i in range(5)] == [stream.next_u64() for _ in range(5)]


def test_derive_seed_rejects_negative_index():
    with pytest.raises(ValueError):
        derive_seed(1, -1)


def test_mix64_golden_values():
    # Regression pin: these must never change, or every seeded result moves.
    assert mix64(0) == 0
    assert mix64(1) == 6238072747940578789
    assert mix64(0x9E3779B97F4A7C15) == 16294208416658607535


def test_normal_moments():
    rng = SplitMix64(42)
    n = 100_000
    draws = [rng.normal() for _ in range(n)]
    mean = sum(draws) / n
    var = sum(d * d for d in draws) / n - mean * mean
    assert abs(mean) < 3.0 / math.sqrt(n)
    assert abs(var - 1.0) < 0.02


def test_normal_pair_caching_is_deterministic():
    a = SplitMix64(5)
    b = SplitMix64(5)
    assert [a.normal() for _ in range(101)] == [b.normal() for _ in range(101)]


def _scalar_streams(master, t0, count):
    return [SplitMix64(derive_seed(master, t0 + i)) for i in range(count)]


def _ends_where(streams: TrialStreams, scalars, master, t0):
    # A stream's state is its seed advanced by one gamma per draw taken.
    return all((derive_seed(master, t0 + i) + int(n) * _GAMMA) & _MASK64 == rng._state
               for i, (n, rng) in enumerate(zip(streams.draws, scalars)))


@pytest.mark.parametrize("master", [0, 12345, 2**64 - 1])
def test_batched_uniforms_equal_the_scalar_streams(master):
    t0, count = 1_000_003, 64
    streams, scalars = TrialStreams(master, t0, count), _scalar_streams(master, t0, count)
    got = streams.uniforms(5)
    assert got.tolist() == [[rng.uniform() for _ in range(5)] for rng in scalars]
    # Uneven masked draws keep every stream on its own counter.
    for rows in ([0, 3, 4], list(range(0, count, 2)), [count - 1]):
        got = streams.uniforms(2, np.array(rows))
        assert got.tolist() == [[scalars[r].uniform(), scalars[r].uniform()] for r in rows]
    assert _ends_where(streams, scalars, master, t0)


@pytest.mark.parametrize("master,n", [(7, 51), (2**64 - 1, 3), (99, 4)])
def test_batched_normals_equal_the_scalar_streams(master, n):
    # 2000 x 51 = 102,000 normals: enough that an np.log in place of
    # math.log changes some of them.
    count = 2000 if n == 51 else 300
    streams, scalars = TrialStreams(master, 17, count), _scalar_streams(master, 17, count)
    got = streams.normals(n)
    assert got.shape == (count, n)
    assert got.tolist() == [[rng.normal() for _ in range(n)] for rng in scalars]
    # An odd n leaves the scalar stream's spare unused; the next draws agree.
    assert _ends_where(streams, scalars, master, 17)
    assert streams.uniforms(1)[:, 0].tolist() == [rng.uniform() for rng in scalars]
