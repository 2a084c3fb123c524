"""Deterministic random streams, independent of evaluation order.

Two stream families, both keyed on a single user seed:

* :func:`substream` — a generator derived from ``SeedSequence(seed,
  spawn_key=path)``.  Robust and collision-free.  :func:`point_poisson`
  draws the per-scan-point counting noise from exactly these streams
  without building one: in one call, the counts of the requested points
  ``j`` from ``substream(seed, 0, j)`` and their replicas from
  ``substream(seed, 1, j)``.  :func:`_point_keys` takes each stream's pool
  from numpy's ``SeedSequence(seed, spawn_key=(label,))`` and keys both
  streams in one ``(4, 2, n)`` array pass over the four pool words; the
  read's own Philox is re-keyed and reset before each point.  A subset of
  points draws what a full scan draws at them, in any thread.
* :func:`bit_uniforms` — counter-based Philox4x64-10 (Salmon et al.,
  "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11).  Channel use ``i``
  owns the one counter ``(1, 0, i, 0)`` under one key per seed, and its two
  uniforms are the first two words of that block: a pure function of
  ``(seed, i)``.  One bit and a block of any size take the same path, one
  vectorised ``uint64`` pass of :func:`philox4x64_10`, so bit ``i`` draws
  the same variates whether bits are sampled one by one or in blocks.

Both families accept the same seeds, the integers in ``[0, 2**64)``; any
other seed raises :class:`~cfcomm.errors.ConfigError` (:func:`check_seed`).
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import ConfigError

#: domain-separation salt so bit streams never collide with other uses of a
#: seed.  It is the golden-ratio word 0x9E3779B97F4A7C15 rounded through
#: float64, which is what numpy holds for the list key ``[seed,
#: 0x9E3779B97F4A7C15]`` when the seed fits an int64; keying with the
#: rounded word keeps every stream for a seed below 2**53 as it was.
BIT_STREAM_SALT = 0x9E3779B97F4A8000

_MASK64 = 2**64 - 1
_MASK32 = 2**32 - 1
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
#: Philox4x64 round multipliers and Weyl key increments (Random123)
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
#: numpy's SeedSequence hash constants (O'Neill's seed_seq_fe, 4-word pool)
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715


def _integer(value, name: str) -> int:
    """``value`` as an int, if it is an integer (numpy's too) but no bool."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def check_seed(seed) -> int:
    """The seed as an int, if it is an integer in ``[0, 2**64)``."""
    value = _integer(seed, "seed")
    if not 0 <= value <= _MASK64:  # one Philox key word
        raise ConfigError(f"seed must be in [0, 2**64), got {value}")
    return value


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for one labelled point in the program."""
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(check_seed(seed), spawn_key=path)))


def _mix(x, y):
    """SeedSequence's pool mixing of ``uint32`` array ``x`` with hashed
    array ``y``; the words wrap silently."""
    value = ((_SS_MIX_L * x & _MASK32) - _SS_MIX_R * y) & _MASK32
    return value ^ value >> 16


def _hash_steps(init: int, mult: int, first: int) -> tuple[np.ndarray, np.ndarray]:
    """Xor and multiplier constants of hash steps ``first`` to ``first + 3``
    of the chain from ``init``, as ``(4, 1, 1)`` ``uint32`` columns."""
    chain = [init]
    for _ in range(first + 4):
        chain.append(chain[-1] * mult & _MASK32)
    return (np.array(chain[first:first + 4], dtype=np.uint32)[:, None, None],
            np.array(chain[first + 1:], dtype=np.uint32)[:, None, None])


#: the point's four hash steps are steps 20-23 of the pool's chain (after
#: the seed's 4 words, the 12 pool mixes and the label's 4), and the pool's
#: final hash runs a chain of its own: the same constants for every seed
_POINT_XOR, _POINT_MULT = _hash_steps(_SS_INIT_A, _SS_MULT_A, 20)
_FINAL_XOR, _FINAL_MULT = _hash_steps(_SS_INIT_B, _SS_MULT_B, 0)


def _point_keys(seed: int, labels, points) -> np.ndarray:
    """Philox keys of ``substream(seed, label, j)`` for every label in
    ``labels`` and ``j`` in ``points``.

    Item ``[i, k]`` of the ``(len(labels), len(points), 2)`` result is
    ``SeedSequence(seed, spawn_key=(labels[i], points[k])).generate_state(2,
    np.uint64)``.  The point is the last entropy word, so each label's pool
    before it is numpy's ``SeedSequence(seed, spawn_key=(label,)).pool``.
    Only the last mixing step sees the point: there it meets each pool word
    of each label under a constant of its own, and each word then takes its
    final hash, both one ``(4, len(labels), len(points))`` array pass with
    the constants computed once (:func:`_hash_steps`).  Every label and
    point must fit one entropy word, that is lie in ``[0, 2**32)``.
    """
    seed = check_seed(seed)
    pools = [np.random.SeedSequence(seed, spawn_key=(label,)).pool
             for label in labels]
    hashed = (np.asarray(points, dtype=np.uint32) ^ _POINT_XOR) * _POINT_MULT
    state = _mix(np.array(pools, dtype=np.uint32).T[:, :, None],
                 hashed ^ hashed >> 16)
    state = (state ^ _FINAL_XOR) * _FINAL_MULT
    state = (state ^ state >> 16).astype(np.uint64)
    # little-endian pairs of 32-bit words make the two 64-bit key words
    return np.moveaxis(state[0::2] | state[1::2] << 32, 0, -1)


def point_poisson(seed: int, points, lam,
                  replicas: int) -> tuple[np.ndarray, np.ndarray]:
    """The counts and replicas of a noisy read at ``points``.

    Count ``k`` is ``substream(seed, 0, points[k]).poisson(lam[k])`` and its
    replicas row is ``substream(seed, 1, points[k]).poisson(lam[k],
    replicas)``.  The keys of both streams come from one
    :func:`_point_keys` pass, and the read's own Philox and Generator draw
    every point: before each point the bit generator is reset to the state
    its substream starts from (that key, counter zero, buffer empty), so
    every draw equals the per-point substream's bit for bit, whatever the
    order of ``points`` and however often a point repeats.  A full read of
    ``n`` points passes ``np.arange(n)``.  ``points`` and ``lam`` are 1-D of
    one length; the results have shapes ``(len(lam),)`` and ``(len(lam),
    replicas)``.
    """
    lam = np.asarray(lam, dtype=float)
    # Python ints re-key the generator faster than numpy uint64 rows
    count_keys, replica_keys = _point_keys(seed, (0, 1), points).tolist()
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    # a freshly seeded Philox: counter zero, four-word output buffer used up
    words = {"counter": [0, 0, 0, 0], "key": [0, 0]}
    state = {"bit_generator": "Philox", "state": words, "buffer": [0, 0, 0, 0],
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    counts = np.empty(lam.shape, dtype=np.int64)
    drawn = np.empty(lam.shape + (replicas,), dtype=np.int64)
    for out, size, keys in ((counts, None, count_keys),
                            (drawn, replicas, replica_keys)):
        for j, (mu, key) in enumerate(zip(lam, keys)):
            words["key"] = key
            bitgen.state = state
            out[j] = gen.poisson(mu, size)
    return counts, drawn


def _mulhilo(a: int, b: np.ndarray):
    """High and low 64-bit words of the 128-bit products ``a * b`` of an int
    and each word of a ``uint64`` array, from their 32-bit halves."""
    a_lo, a_hi = np.uint64(a & 0xFFFFFFFF), np.uint64(a >> 32)
    b_lo, b_hi = b & _LO32, b >> _SHIFT32
    t = a_lo * b_lo
    u = a_hi * b_lo + (t >> _SHIFT32)
    v = a_lo * b_hi + (u & _LO32)
    return a_hi * b_hi + (u >> _SHIFT32) + (v >> _SHIFT32), np.uint64(a) * b


def philox4x64_10(ctr, key):
    """Philox4x64-10 block function of four counter words and two key words.

    Counter words are ``uint64`` arrays of one shape, mapped elementwise;
    key words are ints.  Returns the four output words.
    """
    c0, c1, c2, c3 = ctr
    k0, k1 = key
    for r in range(10):
        if r:
            k0, k1 = (k0 + _PHILOX_W0) & _MASK64, (k1 + _PHILOX_W1) & _MASK64
        hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
        hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return c0, c1, c2, c3


def bit_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Two uniforms per channel use of a block, shape ``(count, 2)``.

    The key is ``(seed, BIT_STREAM_SALT)``.  Row ``i`` reads the first two
    words of the Philox4x64-10 block at counter ``(1, 0, start + i, 0)``
    and maps each word ``w`` to ``(w >> 11) * 2**-53``.  That is bit for
    bit ``Generator(Philox(key=np.array(key, dtype=np.uint64)).jumped(start
    + i)).random(2)``, so block sampling and one-at-a-time sampling agree.
    ``start`` is an integer (numpy's too), never a bool; indices outside
    ``[0, 2**128)`` raise :class:`ConfigError`.
    """
    key = (check_seed(seed), BIT_STREAM_SALT)
    start = _integer(start, "the index of channel uses")
    if not 0 <= start <= start + count <= 2**128:  # two counter words
        raise ConfigError(f"channel uses must be in [0, 2**128), got "
                          f"{count} from index {start}")
    # counter words 2 and 3 hold the 128-bit channel-use index start + i
    lo_start = np.uint64(start & _MASK64)
    lo = lo_start + np.arange(count, dtype=np.uint64)
    hi = np.uint64(start >> 64 & _MASK64) + (lo < lo_start)
    words = philox4x64_10((np.ones_like(lo), np.zeros_like(lo), lo, hi), key)
    return (np.stack(words[:2], axis=1) >> np.uint64(11)) * 2.0**-53
