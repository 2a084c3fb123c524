"""Counter-based bit uniforms against numpy's Philox and Random123."""

import numpy as np
import pytest

from cfcomm.config import reference_device
from cfcomm.errors import ConfigError
from cfcomm.protocol import send_bit
from cfcomm.rand import (BIT_STREAM_SALT, _point_keys, bit_uniforms, philox4x64_10,
                         point_poisson, substream)
from cfcomm.spectral import MAX_SCAN_POINTS

SEEDS = [0, 1, 2**53 + 1, 2**60, 2**60 + 1, 2**63 + 5, 2**64 - 1, 2**64 + 7]
BAD_SEEDS = [-1, 2**64, 1.0, True, "3", None]


def numpy_stream(seed: int, index: int) -> np.ndarray:
    """The two uniforms of one channel use as numpy's own Philox draws them."""
    key = np.array([seed, BIT_STREAM_SALT], dtype=np.uint64)
    return np.random.Generator(
        np.random.Philox(key=key).jumped(index)).random(2)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("start", [0, 12345])
@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 6])
def test_bit_uniforms_equal_numpy_per_bit_streams(seed, start, count):
    """Blocks of 1 to 6 channel uses, two uniforms each: equal to numpy
    wherever its uint64 key holds the seed; refused past."""
    if seed >= 2**64:
        with pytest.raises(OverflowError):
            numpy_stream(seed, start)
        with pytest.raises(ConfigError, match="seed"):
            bit_uniforms(seed, start, count)
        return
    got = bit_uniforms(seed, start, count)
    want = np.array([numpy_stream(seed, start + i) for i in range(count)])
    assert got.shape == (count, 2)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("start, count", [(2**64 - 2, 4), (2**64 + 5, 1),
                                          (2**128 - 2, 2)])
def test_bit_uniforms_past_a_64_bit_index(start, count):
    """Indices from 2**64 on use counter word 3, as numpy's jumps do."""
    got = bit_uniforms(3, start, count)
    want = np.array([numpy_stream(3, start + i) for i in range(count)])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("ctr, key, want", [
    ((0, 0, 0, 0), (0, 0),
     (0x16554d9eca36314c, 0xdb20fe9d672d0fdc,
      0xd7e772cee186176b, 0x7e68b68aec7ba23b)),
    ((0x243f6a8885a308d3, 0x13198a2e03707344,
      0xa4093822299f31d0, 0x082efa98ec4e6c89),
     (0x452821e638d01377, 0xbe5466cf34e90c6c),
     (0xa528f45403e61d95, 0x38c72dbd566e9788,
      0xa5a1610e72fd18b5, 0x57bd43b5e52b7fe6)),
])
def test_philox_known_answers(ctr, key, want):
    """Random123's philox4x64_10 known-answer vectors, on uint64 arrays."""
    arrays = [np.full(3, c, dtype=np.uint64) for c in ctr]
    for word, w in zip(philox4x64_10(arrays, key), want):
        assert word.dtype == np.uint64 and (word == w).all()


@pytest.mark.parametrize("count", [1, 3])
def test_bit_uniforms_take_numpy_integers(count):
    """numpy integer seeds and starts give the same streams as Python ints."""
    got = bit_uniforms(np.int64(3), np.uint64(7), count)
    assert np.array_equal(got, bit_uniforms(3, 7, count))


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**31 - 1, 2**53 - 1])
def test_streams_below_2_53_keep_the_list_keyed_philox(seed):
    """Below 2**53 numpy's list key ``[seed, 0x9E3779B97F4A7C15]`` holds
    exactly (seed, BIT_STREAM_SALT), so those streams are unchanged."""
    list_keyed = np.random.Philox(key=[seed, 0x9E3779B97F4A7C15])
    assert [int(k) for k in list_keyed.state["state"]["key"]] == [
        seed, BIT_STREAM_SALT]
    want = np.random.Generator(list_keyed.jumped(3)).random(2)
    assert np.array_equal(bit_uniforms(seed, 3, 1)[0], want)


@pytest.mark.parametrize("seed", [2**53, 2**60, 2**63 + 5])
def test_neighbouring_large_seeds_give_distinct_streams(seed):
    """Seeds past 2**53 are keyed exactly, not rounded onto a neighbour."""
    assert not np.array_equal(bit_uniforms(seed, 0, 4),
                              bit_uniforms(seed + 1, 0, 4))


@pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
def test_seeds_outside_0_to_2_64_are_rejected(seed):
    """Both stream families take the integers in [0, 2**64) and nothing else."""
    with pytest.raises(ConfigError, match="seed"):
        bit_uniforms(seed, 0, 1)
    with pytest.raises(ConfigError, match="seed"):
        bit_uniforms(seed, 0, 3)
    with pytest.raises(ConfigError, match="seed"):
        substream(seed, 0, 1)


@pytest.mark.parametrize("start, count", [(-1, 1), (-1, 3), (2**128, 1),
                                          (2**128 - 1, 2), (2**128 - 3, 6)])
def test_channel_uses_outside_0_to_2_128_are_rejected(start, count):
    """No index wraps onto another channel use's stream."""
    with pytest.raises(ConfigError, match="channel uses"):
        bit_uniforms(3, start, count)


def test_send_bit_rejects_a_negative_index():
    """And every index that is not an integer, where none rounds onto a use."""
    cfg = reference_device()
    for index in (-1, 1.5, 1.9, True, "1", np.float64(1.0)):
        with pytest.raises(ConfigError, match="channel uses"):
            send_bit(cfg, 1, index=index)


# -- per-point Poisson streams ----------------------------------------------

KEY_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**53 + 1, 2**64 - 1]


@pytest.mark.parametrize("seed", KEY_SEEDS)
@pytest.mark.parametrize("label", [0, 1, 2**32 - 1])
def test_point_keys_equal_seed_sequence_keys(seed, label):
    """Every index a scan grid can hold, one- and two-word seeds alike, for
    two labels keyed in one pass, among them the largest an entropy word
    holds."""
    labels = (label, 2**32 - 1 - label)
    keys = _point_keys(seed, labels, np.arange(MAX_SCAN_POINTS))
    assert keys.shape == (2, MAX_SCAN_POINTS, 2) and keys.dtype == np.uint64
    drawn = np.random.default_rng([seed, label]).integers(300, MAX_SCAN_POINTS, 40)
    for i, lab in enumerate(labels):
        for j in [*range(300), *drawn.tolist(), MAX_SCAN_POINTS - 1]:
            want = np.random.SeedSequence(seed, spawn_key=(lab, j)).generate_state(
                2, np.uint64)
            assert np.array_equal(keys[i, j], want), (lab, j)


@pytest.mark.parametrize("seed", KEY_SEEDS)
@pytest.mark.parametrize("label", [0, 1])
def test_point_keys_of_given_points_are_rows_of_the_full_table(seed, label):
    """Unsorted and repeated points, as an array or a list, for both labels
    of a pass in either order."""
    labels = (label, 1 - label)
    full = _point_keys(seed, labels, np.arange(MAX_SCAN_POINTS))
    points = np.array([MAX_SCAN_POINTS - 1, 3, 40000, 3, 0, 80, 79])
    assert np.array_equal(_point_keys(seed, labels, points), full[:, points])
    assert np.array_equal(_point_keys(seed, labels, points.tolist()),
                          full[:, points])
    assert np.array_equal(_point_keys(seed, labels[:1], points), full[:1, points])


LAMS = np.array([0.0, 1e-3, 5.0, 9.999, 10.0, 1e4, 1e12])


def stream_of(read, size):
    """The counts of a joint read (``size`` None, stream 0) or its replicas
    (``size`` 100, stream 1): the stream and the draws from it."""
    return (0, read[0]) if size is None else (1, read[1])


@pytest.mark.parametrize("seed", [0, 2**32 + 3, 2**64 - 1])
@pytest.mark.parametrize("size", [None, 100])
def test_point_poisson_equals_per_point_substreams(seed, size):
    """Both of numpy's Poisson branches (below and from mean 10), for the
    counts and for the replicas of one joint read."""
    read = point_poisson(seed, np.arange(LAMS.size), LAMS, 100)
    assert read[0].shape == LAMS.shape and read[1].shape == LAMS.shape + (100,)
    label, got = stream_of(read, size)
    for j, lam in enumerate(LAMS):
        want = substream(seed, label, j).poisson(lam, size)
        assert np.array_equal(got[j], want), (label, j)


@pytest.mark.parametrize("seed", [0, 2**32 + 3, 2**64 - 1])
@pytest.mark.parametrize("size", [None, 100])
def test_point_poisson_of_a_subset_equals_the_full_draw(seed, size):
    """Unsorted and repeated points, in both Poisson branches, draw what a
    full draw and the per-point substreams draw at them."""
    points = np.array([6, 2, 5, 2, 0, 4, 6, 3, 1])
    label, full = stream_of(point_poisson(seed, np.arange(LAMS.size), LAMS, 100),
                            size)
    _, got = stream_of(point_poisson(seed, points, LAMS[points], 100), size)
    assert np.array_equal(got, full[points])
    for k, j in enumerate(points):
        want = substream(seed, label, j).poisson(LAMS[j], size)
        assert np.array_equal(got[k], want), (label, j)
