"""Deterministic random streams, independent of evaluation order.

Two stream families, both keyed on a single user seed:

* :func:`substream` — a generator derived from ``SeedSequence(seed,
  spawn_key=path)``.  Robust and collision-free.  :func:`point_poisson`
  draws the per-scan-point counting noise from exactly these streams
  without building one: in one call, the counts of the requested points
  ``j`` from ``substream(seed, 0, j)`` and their replicas from
  ``substream(seed, 1, j)``.  :func:`_point_keys` computes the keys of both
  streams in one ``(4, 2, n)`` array pass over the four pool words, and
  the calling thread's one Philox is re-keyed and reset before each point.
  A subset of points draws what a full scan draws at them, in any thread.
* :func:`bit_uniforms` — counter-based Philox4x64-10 (Salmon et al.,
  "Parallel Random Numbers: As Easy as 1, 2, 3", SC'11).  Channel use ``i``
  owns the counters ``(b, 0, i, 0)``, ``b = 1, 2, ...``, under one key per
  seed, so its uniforms are a pure function of ``(seed, i)``: bit ``i`` draws
  the same variates whether bits are sampled one by one or in blocks, and a
  block of any size costs one vectorised pass of :func:`philox4x64_10`.

Both families accept the same seeds, the integers in ``[0, 2**64)``; any
other seed raises :class:`~cfcomm.errors.ConfigError` (:func:`check_seed`).
"""

from __future__ import annotations

import operator
import threading

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


def check_seed(seed) -> int:
    """The seed as an int, if it is an integer in ``[0, 2**64)``."""
    if isinstance(seed, bool):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    try:
        value = operator.index(seed)
    except TypeError:
        raise ConfigError(f"seed must be an integer, got {seed!r}") from None
    if not 0 <= value <= _MASK64:  # one Philox key word
        raise ConfigError(f"seed must be in [0, 2**64), got {value}")
    return value


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for one labelled point in the program."""
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(check_seed(seed), spawn_key=path)))


def _hashmix(value: int, const: int, mult: int) -> tuple[int, int]:
    """One SeedSequence hash step; returns the word and the next constant."""
    const_next = const * mult & _MASK32
    value = (value ^ const) * const_next & _MASK32
    return value ^ value >> 16, const_next


def _mix(x, y):
    """SeedSequence's pool mixing of word ``x`` with hashed word ``y``.

    Words are ints or ``uint32`` arrays, which wrap silently where numpy
    integer scalars would warn on overflow.
    """
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
    np.uint64)``.  Its entropy words are the seed's 32-bit words zero-padded
    to the pool size 4, then the label, then the point.  The seed's pool
    rounds run once in ints, and each label's mixing continues from them.
    Only the last mixing step sees the point: there it meets each pool word
    of each label under a constant of its own, and each word then takes its
    final hash, both one ``(4, len(labels), len(points))`` array pass with
    the constants computed once (:func:`_hash_steps`).  Every label and
    point must fit one entropy word, that is lie in ``[0, 2**32)``.
    """
    seed = check_seed(seed)
    # a one-word seed's zero padding reads as a zero high word
    const, pool = _SS_INIT_A, []
    for word in (seed & _MASK32, seed >> 32, 0, 0):
        word, const = _hashmix(word, const, _SS_MULT_A)
        pool.append(word)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                hashed, const = _hashmix(pool[src], const, _SS_MULT_A)
                pool[dst] = _mix(pool[dst], hashed)
    # the label's hash steps continue the chain from the same constant for
    # every label
    pools = []
    for label in labels:
        words, step = list(pool), const
        for dst in range(4):
            hashed, step = _hashmix(label, step, _SS_MULT_A)
            words[dst] = _mix(words[dst], hashed)
        pools.append(words)
    hashed = (np.asarray(points, dtype=np.uint32) ^ _POINT_XOR) * _POINT_MULT
    state = _mix(np.array(pools, dtype=np.uint32).T[:, :, None],
                 hashed ^ hashed >> 16)
    state = (state ^ _FINAL_XOR) * _FINAL_MULT
    state = (state ^ state >> 16).astype(np.uint64)
    # little-endian pairs of 32-bit words make the two 64-bit key words
    return np.moveaxis(state[0::2] | state[1::2] << 32, 0, -1)


#: each thread's one Philox and the Generator that draws from it, made on
#: the thread's first noisy read; a read sets the whole state before a draw
_local = threading.local()


def point_poisson(seed: int, points, lam,
                  replicas: int) -> tuple[np.ndarray, np.ndarray]:
    """The counts and replicas of a noisy read at ``points``.

    Count ``k`` is ``substream(seed, 0, points[k]).poisson(lam[k])`` and its
    replicas row is ``substream(seed, 1, points[k]).poisson(lam[k],
    replicas)``.  The keys of both streams come from one
    :func:`_point_keys` pass, and the calling thread's one Philox and
    Generator draw every point: before each point the bit generator is reset
    to the state its substream starts from (that key, counter zero, buffer
    empty), so every draw equals the per-point substream's bit for bit,
    whatever the order of ``points``, however often a point repeats and
    whatever the thread drew before.  A full read of ``n`` points passes
    ``np.arange(n)``.  ``points`` and ``lam`` are 1-D of one length; the
    results have shapes ``(len(lam),)`` and ``(len(lam), replicas)``.
    """
    lam = np.asarray(lam, dtype=float)
    # Python ints re-key the generator faster than numpy uint64 rows
    count_keys, replica_keys = _point_keys(seed, (0, 1), points).tolist()
    if not hasattr(_local, "pair"):
        bitgen = np.random.Philox(0)
        _local.pair = bitgen, np.random.Generator(bitgen)
    bitgen, gen = _local.pair
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


def _mulhilo(a: int, b):
    """High and low 64-bit words of the 128-bit product ``a * b``.

    ``b`` is an int or a ``uint64`` array; arrays take the 32-bit split.
    """
    if isinstance(b, int):
        p = a * b
        return p >> 64, p & _MASK64
    a_lo, a_hi = np.uint64(a & 0xFFFFFFFF), np.uint64(a >> 32)
    b_lo, b_hi = b & _LO32, b >> _SHIFT32
    t = a_lo * b_lo
    u = a_hi * b_lo + (t >> _SHIFT32)
    v = a_lo * b_hi + (u & _LO32)
    return a_hi * b_hi + (u >> _SHIFT32) + (v >> _SHIFT32), np.uint64(a) * b


def philox4x64_10(ctr, key):
    """Philox4x64-10 block function of four counter words and two key words.

    Counter words are ints or broadcastable ``uint64`` arrays, mapped
    elementwise; key words are ints.  Returns the four output words.
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


def bit_uniforms(seed: int, start: int, count: int, draws: int) -> np.ndarray:
    """Uniforms for a contiguous block of channel uses, shape (count, draws).

    The key is ``(seed, BIT_STREAM_SALT)``.  Row ``i`` reads the
    Philox4x64-10 blocks at counters ``(1, 0, start + i, 0)``,
    ``(2, 0, start + i, 0)``, ... word by word, and maps each word ``w`` to
    ``(w >> 11) * 2**-53``.  That is bit for bit
    ``Generator(Philox(key=np.array(key, dtype=np.uint64)).jumped(start +
    i)).random(draws)``, so block sampling and one-at-a-time sampling agree.
    Indices outside ``[0, 2**128)`` raise :class:`ConfigError`.
    """
    # numpy integers become ints, which take the 64-bit masks below
    key, start = (check_seed(seed), BIT_STREAM_SALT), int(start)
    if not 0 <= start <= start + count <= 2**128:  # two counter words
        raise ConfigError(f"channel uses must be in [0, 2**128), got "
                          f"{count} from index {start}")
    # counter words 2 and 3 hold the 128-bit channel-use index start + i;
    # a single use stays in ints, which beats numpy's per-call overhead
    if count == 1:
        index = (start & _MASK64, start >> 64 & _MASK64)
    else:
        lo_start = np.uint64(start & _MASK64)
        lo = lo_start + np.arange(count, dtype=np.uint64)
        index = (lo, np.uint64(start >> 64 & _MASK64) + (lo < lo_start))
    blocks = -(-draws // 4)
    words = [w for b in range(1, blocks + 1)
             for w in philox4x64_10((b, 0, *index), key)]
    words = np.array(words, dtype=np.uint64).T.reshape(count, 4 * blocks)
    return (words[:, :draws] >> np.uint64(11)) * 2.0**-53
