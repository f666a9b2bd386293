"""Deterministic randomness: one 64-bit seed, derived substreams.

Every stochastic entry point takes either an explicit generator or a
seed.  Units of work (trials, chunks, experiment stages) draw from
``substream(seed, index, ...)`` so that results are independent of
execution order and safe to parallelize.

``substream(seed, *path)`` is, draw for draw, the stream of
``PCG64(SeedSequence(entropy=seed, spawn_key=path))``.  It does not build
the ``SeedSequence``: it repeats numpy's SeedSequence hash, which numpy
documents as stable (the constants are those of
``numpy/random/bit_generator.pyx``), so every stream stays bit-identical
to the numpy route that tests keep as the oracle.  The hash folds the
entropy words in one at a time, so the pool after every word but the
last is shared by all paths that differ only in their last word.  One
cache entry hashes that prefix once and finishes the hash for a
block of ``_BLOCK`` consecutive last words at once, as ``uint32`` array
arithmetic, giving the four PCG64 seed words of each.  Runners that
count trials in the last path entry therefore pay the hash about once
per block.  The cache keeps the last ``_CACHED_BLOCKS`` blocks, and its
arrays are read-only, because every generator seeded from a row shares
them.

:class:`HalfWords` mirrors numpy's bounded integer draws in the same
way: it takes ``Generator.integers(0, n)`` and the masked interval that
``Generator.hypergeometric`` runs on straight from the generator's raw
PCG64 words, without numpy's per-call overhead, and numpy is again the
oracle that tests hold it against draw for draw.
"""

from __future__ import annotations

import functools
import operator
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from numpy.random import Generator

# SeedSequence hash constants, numpy/random/bit_generator.pyx
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_POOL_SIZE = 4
#: numpy refuses hypergeometric draws with this many good or bad items.
HYPERGEOM_MAX = 10**9

#: Consecutive last entropy words hashed together (divides 2**32).
_BLOCK = 1024
#: Blocks the cache keeps; each holds _BLOCK x 32 bytes of seed words.
_CACHED_BLOCKS = 4


def _words(value: int) -> list[int]:
    """Little-endian 32-bit words of a nonnegative int; ``[0]`` for 0."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hashmix(value, hash_const: int, mult: int = _MULT_A):
    """One SeedSequence hash step; ``value`` is an int or a ``uint32`` array.

    Returns the hashed value and the next hash constant.  Array
    arithmetic wraps modulo 2**32, which the masks give for ints.
    """
    value = value ^ hash_const
    hash_const = hash_const * mult & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> 16, hash_const


def _mix(x, y):
    result = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return result ^ result >> 16


def _pool(words: list) -> list:
    """SeedSequence's entropy pool after mixing in ``words``.

    ``words`` holds more words than the pool, as it always does with a
    spawn key, so each word past the pool size is mixed into every pool
    word; the last of them may be a ``uint32`` array, giving one pool per
    entry.
    """
    hash_const = _INIT_A
    pool = []
    for word in words[:_POOL_SIZE]:
        value, hash_const = _hashmix(word, hash_const)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], value)
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], value)
    return pool


@functools.lru_cache(maxsize=_CACHED_BLOCKS)
def _state_block(seed: int, head: tuple[int, ...], block: int) -> np.ndarray:
    """PCG64 seed words of ``_BLOCK`` paths ``head + (entry,)``, one row each.

    Row i is ``SeedSequence(seed, spawn_key=head + (entry,)).generate_state(4,
    np.uint64)`` for ``entry = block * _BLOCK + i``.
    """
    words = _words(seed)
    # with a spawn key, SeedSequence pads the seed's words to the pool size
    words += [0] * (_POOL_SIZE - len(words))
    for entry in head:
        words += _words(entry)
    words.append(np.arange(_BLOCK, dtype=np.uint32) + block * _BLOCK)
    pool = _pool(words)
    # generate_state(4, np.uint64): 8 uint32 words, cycling over the pool
    state = np.empty((_BLOCK, 2 * _POOL_SIZE), dtype=np.uint32)
    hash_const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        state[:, i], hash_const = _hashmix(pool[i % _POOL_SIZE], hash_const, _MULT_B)
    # numpy pairs the words little-endian before converting to native order
    seeds = state.astype("<u4").view("<u8").astype(np.uint64)
    seeds.flags.writeable = False
    return seeds


@functools.cache
def _seeded_generator_types():
    # numpy.random is imported on first use: importing bhm must not load it
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        """Hands PCG64 seed words computed by ``_state_block``."""

        __slots__ = ("words",)

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            # PCG64 asks once, for 4 uint64 words
            return self.words

    return Generator, PCG64, SeedWords


def substream(seed: int, *path: int) -> Generator:
    """Generator for one unit of work, e.g. ``substream(seed, trial)``.

    Distinct paths give statistically independent streams, and the
    mapping (seed, path) -> stream is stable across runs and platforms:
    it is the stream of
    ``PCG64(SeedSequence(entropy=seed, spawn_key=path))``.  The seed and
    the path entries must be nonnegative integers, and the path must not
    be empty.
    """
    seed = operator.index(seed)
    path = tuple(map(operator.index, path))
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if not path:
        # without a spawn key SeedSequence skips the padding, a route no caller uses
        raise ValueError("substream needs at least one path entry")
    if min(path) < 0:
        raise ValueError(f"seed path entries must be nonnegative, got {path}")
    head, last = path[:-1], path[-1]
    if last > _MASK32:
        # SeedSequence hashes an entry as its 32-bit words: (..., last) is (..., *words)
        *low, last = _words(last)
        head += tuple(low)
    # consecutive last words share the hash of everything before them
    block, row = divmod(last, _BLOCK)
    seeds = _state_block(seed, head, block)
    generator, pcg64, seed_words = _seeded_generator_types()
    return generator(pcg64(seed_words(seeds[row])))


class HalfWords:
    """numpy's bounded integer draws on one generator, from its raw PCG64 words.

    ``below(n)`` is ``int(rng.integers(0, n))`` and ``hypergeometric`` is
    ``int(rng.hypergeometric(...))``, draw for draw, so every stream and
    output stays what the numpy calls give.  numpy takes a bound n <= 2**32
    from 32-bit half-words: the low half of a fresh word first, while
    PCG64 keeps the high half for the next 32-bit draw.  Doubles
    (``random``, ``binomial``) take whole words and leave that kept half
    alone.  This reader holds the kept half itself, so every 32-bit draw
    of its generator must go through it; doubles are drawn on ``rng``.
    One reader serves one fresh generator, e.g. one trial's substream.
    """

    __slots__ = ("rng", "_raw", "_kept")

    def __init__(self, rng: Generator) -> None:
        self.rng = rng
        self._raw = rng.bit_generator.random_raw
        self._kept: int | None = None

    def below(self, n: int) -> int:
        """Uniform on 0..n-1 for 1 <= n < 2**63, by Lemire's method as numpy runs it.

        A draw u of 32 bits (64 bits when n > 2**32) gives m = u * n; it is
        accepted when the low bits of m are at least 2**bits mod n, and
        the value is the high bits.  n = 1 draws nothing, and n < 1 is
        refused as numpy refuses it.
        """
        if 1 < n <= 1 << 32:
            while True:
                kept = self._kept
                if kept is None:
                    word = self._raw()
                    self._kept = word >> 32
                    m = (word & _MASK32) * n
                else:
                    self._kept = None
                    m = kept * n
                # the threshold 2**32 mod n is below n, so low bits >= n accept at once
                low = m & _MASK32
                if low >= n or low >= (1 << 32) % n:
                    return m >> 32
        if n < 1:
            raise ValueError(f"high <= 0: no value lies below {n}")
        if n == 1:
            return 0
        while True:
            m = self._raw() * n
            low = m & _MASK64
            if low >= n or low >= (1 << 64) % n:
                return m >> 64

    def interval(self, top: int) -> int:
        """Uniform on 0..top, numpy's ``random_interval``: masked rejection.

        It draws 32 bits for top < 2**32 and 64 bits above.
        """
        if top == 0:
            return 0
        mask = (1 << top.bit_length()) - 1
        if top > _MASK32:
            while True:
                value = self._raw() & mask
                if value <= top:
                    return value
        while True:
            # the mask has at most 32 bits, so it masks a fresh word's low half
            kept = self._kept
            if kept is None:
                word = self._raw()
                self._kept = word >> 32
                value = word & mask
            else:
                self._kept = None
                value = kept & mask
            if value <= top:
                return value

    def hypergeometric(self, good: int, bad: int, sample: int) -> int:
        """Good items in a uniform ``sample`` of ``good + bad``, as numpy draws it.

        For 10 <= sample <= total - 10 numpy runs its ratio-of-uniforms
        method, which draws doubles only, so the call is numpy's own.
        Otherwise it draws the smaller of sample and total - sample one
        item at a time on :meth:`interval`, which runs here; a sample of 0
        draws nothing.  Counts at :data:`HYPERGEOM_MAX` are refused as
        numpy refuses them.
        """
        total = good + bad
        if good >= HYPERGEOM_MAX or bad >= HYPERGEOM_MAX:
            raise ValueError(f"both ngood and nbad must be less than {HYPERGEOM_MAX}")
        if 10 <= sample <= total - 10:
            return int(self.rng.hypergeometric(good, bad, sample))
        complement = sample > total // 2
        todo = total - sample if complement else sample
        left, left_good = total, good
        while todo > 0 and 0 < left_good < left:
            left -= 1
            if self.interval(left) < left_good:
                left_good -= 1
            todo -= 1
        if left == left_good:
            # only good items are left
            left_good -= todo
        return left_good if complement else good - left_good
