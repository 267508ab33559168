"""The sampling stream: numpy's seeded Philox4x64-10 generator in plain Python.

``PhiloxStream(seed, spawn_key)`` draws bit for bit what
``numpy.random.Generator(numpy.random.Philox(numpy.random.SeedSequence(
entropy=seed, spawn_key=spawn_key)))`` draws through ``random(2)`` (as
:meth:`PhiloxStream.pair`) and ``integers(lo, hi)``, so every report replays
under either, and the checks run without importing numpy.  The algorithms are
numpy's: SeedSequence hashes the entropy words into a pool of four 32-bit
words and derives the 128-bit key from it; Philox4x64-10 (Salmon et al.,
"Parallel random numbers: as easy as 1, 2, 3", SC 2011) encrypts a
pre-incremented 256-bit counter into four 64-bit outputs, handed out in
order.  A block is a pure function of its counter, so the stream encrypts
consecutive counters in batches, all lanes of a batch in one pass over packed
integers, and hands out the same words in the same order.  ``integers``
runs Lemire's bounded method on the 32-bit halves of those outputs, low half
first, keeping the high half for the next call.
"""

from __future__ import annotations

import functools
import operator
import struct

M32, M64 = 0xFFFFFFFF, 0xFFFFFFFFFFFFFFFF
_TWO_M53 = 2.0 ** -53
# SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# Philox4x64 multipliers and key increments (Random123)
_PM0, _PM1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PW0, _PW1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B


def _words(n) -> list:
    """The little-endian 32-bit words SeedSequence splits an entropy int into."""
    n = operator.index(n)  # TypeError for a float, as numpy raises
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & M32]
    while n := n >> 32:
        words.append(n & M32)
    return words


def _powers(init: int, mult: int, count: int) -> tuple:
    """init * mult^k mod 2^32 for k = 0..count, the constants of SeedSequence's hashmix."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & M32)
    return tuple(out)


# hashmix call j xors its word with _HASH_A[j] and multiplies it by
# _HASH_A[j + 1]; these cover an entropy of 8 words, 32 calls
_HASH_A = _powers(_INIT_A, _MULT_A, 32)
_HASH_B = _powers(_INIT_B, _MULT_B, 4)


def _mixed(pool: list, words, j: int) -> int:
    """Hash each of ``words`` into the four words of ``pool`` by SeedSequence's
    hashmix calls j, j + 1, ...; the next call's index."""
    end = j + 4 * len(words)
    hash_a = _HASH_A if end < len(_HASH_A) else _powers(_INIT_A, _MULT_A, end)
    for word in words:
        for dst in range(4):
            h = (word ^ hash_a[j]) * hash_a[j + 1] & M32
            j += 1
            r = (_MIX_L * pool[dst] - _MIX_R * (h ^ h >> 16)) & M32
            pool[dst] = r ^ r >> 16
    return end


@functools.lru_cache(maxsize=256)
def _pool(head: tuple) -> tuple:
    """SeedSequence's pool after hashing in the entropy words ``head``, four
    or more, and the index of the next hashmix call."""
    pool = []
    for j in range(4):
        h = (head[j] ^ _HASH_A[j]) * _HASH_A[j + 1] & M32
        pool.append(h ^ h >> 16)
    j = 4
    for src in range(4):
        for dst in range(4):
            if src != dst:
                h = (pool[src] ^ _HASH_A[j]) * _HASH_A[j + 1] & M32
                j += 1
                r = (_MIX_L * pool[dst] - _MIX_R * (h ^ h >> 16)) & M32
                pool[dst] = r ^ r >> 16
    j = _mixed(pool, head[4:], j)
    return tuple(pool), j


def _seed_key(seed, spawn_key) -> tuple:
    """``SeedSequence(entropy=seed, spawn_key=spawn_key).generate_state(2, uint64)``.

    numpy pads the seed words to the pool's four and mixes in the spawn
    key's words after them, so the words of the spawn key's last entry mix
    last: every trial of an identity, (crc32(id), trial), shares the cached
    pool of the words before it and hashes only its own.
    """
    entropy = _words(seed)
    entropy += [0] * (4 - len(entropy))
    spawn = [_words(k) for k in spawn_key]
    last = spawn.pop() if spawn else []
    pool, j = _pool(tuple(entropy + [w for words in spawn for w in words]))
    pool = list(pool)
    _mixed(pool, last, j)
    state = []
    for j, word in enumerate(pool):
        word = (word ^ _HASH_B[j]) * _HASH_B[j + 1] & M32
        state.append(word ^ word >> 16)
    return state[0] | state[1] << 32, state[2] | state[3] << 32


# Blocks are encrypted in batches: counter i of a batch sits in the 128-bit
# lane i of one int, so each multiply of a round forms every lane's 128-bit
# product with no carry between lanes.  A stream's first refill takes
# _FIRST_LANES counters and each later one twice as many, up to _MAX_LANES: a
# stream read for a few blocks computes few spare ones, and a long one runs at
# the widest batch.
_FIRST_LANES, _MAX_LANES = 4, 32


def _lane_consts(n: int) -> tuple:
    """REP = 1 in each of n lanes, LO = M64 in each lane, RAMP = i in lane i,
    and the unpacking of 2 n little-endian words."""
    rep = sum(1 << 128 * i for i in range(n))
    return rep, rep * M64, sum(i << 128 * i for i in range(n)), struct.Struct(f"<{2 * n}Q").unpack


_LANE_CONSTS = {n: _lane_consts(n) for n in (4, 8, 16, 32)}


class PhiloxStream:
    """A seeded Philox4x64-10 stream with numpy's ``random(2)`` and ``integers``."""

    __slots__ = ("_keys", "_lanes", "_ctr", "_buf", "_pos", "_half")

    def __init__(self, seed, spawn_key):
        k0, k1 = _seed_key(seed, spawn_key)
        # the round keys, bumped once per round, in each of _lanes lanes
        self._lanes = _FIRST_LANES
        rep = _LANE_CONSTS[_FIRST_LANES][0]
        self._keys = tuple((((k0 + r * _PW0) & M64) * rep, ((k1 + r * _PW1) & M64) * rep)
                           for r in range(10))
        self._ctr, self._buf, self._pos, self._half = 0, (), 0, None

    def _refill(self) -> None:
        """Encrypt the next counters into ``_buf``, block i of the batch as
        ``_buf[4 i:4 i + 4]``; each refill after the first doubles the lanes
        up to _MAX_LANES."""
        n = self._lanes
        if self._buf and n < _MAX_LANES:
            self._keys = tuple((x | x << 128 * n, y | y << 128 * n) for x, y in self._keys)
            n = self._lanes = 2 * n
        rep, lo, ramp, unpack = _LANE_CONSTS[n]
        first = self._ctr + 1
        self._ctr += n
        if (first & M64) + n <= 1 << 64:
            # no lane's counter carries out of its low word
            c0, c1, c2, c3 = ((first & M64) * rep + ramp, (first >> 64 & M64) * rep,
                              (first >> 128 & M64) * rep, (first >> 192 & M64) * rep)
        else:
            c0, c1, c2, c3 = (sum(((first + i) >> shift & M64) << 128 * i for i in range(n))
                              for shift in (0, 64, 128, 192))
        for x, y in self._keys:
            a, b = _PM0 * c0, _PM1 * c2
            c0, c1, c2, c3 = b >> 64 & lo ^ c1 ^ x, b & lo, a >> 64 & lo ^ c3 ^ y, a & lo
        # lane i of c0 | c1 << 64 holds words 0 and 1 of block i
        w01 = unpack((c0 | c1 << 64).to_bytes(16 * n, "little"))
        w23 = unpack((c2 | c3 << 64).to_bytes(16 * n, "little"))
        buf = [0] * (4 * n)
        buf[0::4], buf[1::4], buf[2::4], buf[3::4] = w01[0::2], w01[1::2], w23[0::2], w23[1::2]
        self._buf, self._pos = buf, 0

    def _next64(self) -> int:
        if self._pos == len(self._buf):
            self._refill()
        pos = self._pos
        self._pos = pos + 1
        return self._buf[pos]

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & M32

    def pair(self) -> tuple:
        """Two doubles in [0, 1), as ``Generator.random(2).tolist()``."""
        pos, buf = self._pos, self._buf
        if pos + 2 <= len(buf):
            self._pos = pos + 2
            return (buf[pos] >> 11) * _TWO_M53, (buf[pos + 1] >> 11) * _TWO_M53
        return (self._next64() >> 11) * _TWO_M53, (self._next64() >> 11) * _TWO_M53

    def integers(self, lo: int, hi: int) -> int:
        """An int in [lo, hi), as ``Generator.integers(lo, hi)``, for ranges of
        1 to 2**32 values; a one-value range draws nothing."""
        rng = hi - lo - 1
        if not 0 <= rng <= M32:
            raise ValueError(f"integers({lo}, {hi}) needs 1 to 2**32 values")
        if rng == 0:
            return lo
        if rng == M32:
            return lo + self._next32()
        excl = rng + 1
        m = self._next32() * excl
        if m & M32 < excl:
            threshold = (1 << 32) % excl
            while m & M32 < threshold:
                m = self._next32() * excl
        return lo + (m >> 32)
