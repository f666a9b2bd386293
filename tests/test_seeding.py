import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bhm
from bhm import seeding
from bhm.cli import _stage_seed
from bhm.seeding import HalfWords, substream

BLOCK = seeding._BLOCK


def numpy_stream(seed, *path):
    """The oracle: numpy's own SeedSequence route."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=path)))


@pytest.mark.parametrize(
    "seed", [0, 2**32 - 1, 2**32, 2**63 - 1, _stage_seed(7, 1), 2**64 + 5]
)
@pytest.mark.parametrize("head", [(), (3,), (0, 2), (1, 0, 2**32 + 9)])
# 2**32 - 1 is the largest last entry of one word, whose block is the last one
@pytest.mark.parametrize("last", [0, BLOCK - 1, BLOCK, BLOCK + 1, 10**6, 2**32 - 1])
def test_substream_equals_the_seed_sequence_route(seed, head, last):
    path = head + (last,)
    ours, theirs = substream(seed, *path), numpy_stream(seed, *path)
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert np.array_equal(ours.integers(0, 2**63, size=8), theirs.integers(0, 2**63, size=8))
    assert np.array_equal(ours.random(4), theirs.random(4))


@pytest.mark.parametrize(
    "path",
    [
        (2**32,), (2**32 + 5,), (4, 2**40 + BLOCK), (2**70, 3), (2**64,), (5, 2**64 + BLOCK + 1),
        # a three-word last entry, alone and after a multiword head
        (2**96 - 1,), (2**40 + 7, 2**70 + 5),
    ],
)
def test_substream_equals_the_seed_sequence_route_for_multiword_entries(path):
    ours, theirs = substream(99, *path), numpy_stream(99, *path)
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_a_multiword_last_entry_shares_the_block_of_its_words():
    # SeedSequence hashes 2**40 + 3 as the words (3, 256), so both paths are one block
    seeding._state_block.cache_clear()
    ours = [substream(5, 2**40 + 3), substream(5, 3, 256)]
    assert seeding._state_block.cache_info().misses == 1
    for rng, path in zip(ours, [(2**40 + 3,), (3, 256)]):
        assert rng.bit_generator.state == numpy_stream(5, *path).bit_generator.state


def test_equal_paths_give_independent_generators_with_equal_draws():
    a, b = substream(11, 3, 5), substream(11, 3, 5)
    assert a is not b and a.bit_generator is not b.bit_generator
    first = a.integers(0, 2**63, size=16)
    a.integers(0, 2**63, size=1000)
    # advancing a left b and the cached seed words alone
    assert np.array_equal(b.integers(0, 2**63, size=16), first)
    assert np.array_equal(substream(11, 3, 5).integers(0, 2**63, size=16), first)


@pytest.mark.parametrize(
    "seed, path, message",
    [
        (-1, (0,), "seed must be nonnegative, got -1"),
        (5, (0, -2), r"seed path entries must be nonnegative, got \(0, -2\)"),
        (5, (), "at least one path entry"),
    ],
)
def test_substream_rejects_bad_input(seed, path, message):
    with pytest.raises(ValueError, match=message):
        substream(seed, *path)


def test_importing_the_cli_leaves_numpy_random_unloaded():
    src = str(Path(bhm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, bhm.cli; sys.exit('numpy.random' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


#: Bounds for ``below``: both sides of the 32-bit cut, heavy rejection
#: (2**31 + 1 and 3 * 2**30 + 7 reject about half and a quarter of their
#: draws) and 64-bit words up to the largest int64 bound.
BELOW_BOUNDS = [1, 2, 3, 7, 1000, 2**31 + 1, 3 * 2**30 + 7, 2**32 - 1, 2**32, 2**32 + 1,
                3 * 2**40 + 5, 2**63 - 1]


def twin_streams(seed, path):
    """A reader on one stream and numpy's own generator on an equal one."""
    return HalfWords(substream(seed, *path)), substream(seed, *path)


@pytest.mark.parametrize("n", BELOW_BOUNDS)
def test_below_draws_as_numpy_integers(n):
    for t in range(64):
        words, rng = twin_streams(17, (n % 997, t))
        # a 32-bit draw first leaves a kept half in play
        assert words.below(2) == rng.integers(0, 2)
        assert words.below(n) == rng.integers(0, n)
        assert words.rng.random() == rng.random()  # a double takes a whole word
        assert words.below(n) == rng.integers(0, n)
        assert [words.below(n) for _ in range(3)] == rng.integers(0, n, size=3).tolist()
        # the kept half, or its absence, agrees with numpy's
        assert words.below(2) == rng.integers(0, 2)


@pytest.mark.parametrize("m", [2, 3, 10, 33, 1000])
def test_interval_draws_as_numpy_shuffles(m):
    # Generator.permutation is Fisher-Yates on random_interval(i), i = m-1 down to 1
    for t in range(16):
        words, rng = twin_streams(18, (m, t))
        assert words.below(2) == rng.integers(0, 2)
        order = list(range(m))
        for i in range(m - 1, 0, -1):
            j = words.interval(i)
            order[i], order[j] = order[j], order[i]
        assert order == rng.permutation(m).tolist()
        assert words.below(2) == rng.integers(0, 2)


@pytest.mark.parametrize("top", [2**32, 2**40 + 3, 2**63 - 1])
def test_interval_takes_whole_words_above_32_bits(top):
    # the masked rule on the raw words, and the kept half left for the next 32-bit draw
    mask = (1 << top.bit_length()) - 1
    for t in range(16):
        words, rng = twin_streams(19, (t,))
        assert words.below(2) == rng.integers(0, 2)
        value = rng.bit_generator.random_raw() & mask
        while value > top:
            value = rng.bit_generator.random_raw() & mask
        assert words.interval(top) == value
        assert words.below(2) == rng.integers(0, 2)


def hypergeometric_cases():
    """(good, bad, sample) on both of numpy's branches, at their edges."""
    for good, bad in [(0, 25), (25, 0), (3, 40), (40, 3), (12, 18), (500, 700),
                      (10**9 - 1, 20), (7, 10**9 - 1)]:
        total = good + bad
        for sample in sorted({0, 9, 10, 11, total - 10, total - 9, total}):
            if 0 <= sample <= total:
                yield good, bad, sample


@pytest.mark.parametrize("good, bad, sample", list(hypergeometric_cases()))
def test_hypergeometric_draws_as_numpy(good, bad, sample):
    for t in range(24):
        words, rng = twin_streams(20, (good % 1000, bad % 1000, sample % 1000, t))
        assert words.below(2) == rng.integers(0, 2)
        assert words.hypergeometric(good, bad, sample) == rng.hypergeometric(good, bad, sample)
        assert words.below(2) == rng.integers(0, 2)
        assert words.rng.random() == rng.random()


def test_below_refuses_an_empty_range_as_numpy_does():
    words, rng = twin_streams(21, (1,))
    for n in (0, -3):
        with pytest.raises(ValueError, match="high <= 0"):
            words.below(n)
        with pytest.raises(ValueError, match="high <= 0"):
            rng.integers(0, n)
    # nothing was drawn: the streams still agree, kept half included
    assert words.below(7) == rng.integers(0, 7)
    assert words.below(2) == rng.integers(0, 2)


def test_hypergeometric_refuses_what_numpy_refuses():
    words, rng = twin_streams(21, (0,))
    for good, bad in [(10**9, 5), (5, 10**9)]:
        with pytest.raises(ValueError, match="less than 1000000000") as ours:
            words.hypergeometric(good, bad, 3)
        with pytest.raises(ValueError) as theirs:
            rng.hypergeometric(good, bad, 3)
        assert str(ours.value) == str(theirs.value)
