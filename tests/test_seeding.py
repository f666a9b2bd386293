import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bhm
from bhm import seeding
from bhm.cli import _stage_seed
from bhm.seeding import substream

BLOCK = seeding._BLOCK


def numpy_stream(seed, *path):
    """The oracle: numpy's own SeedSequence route."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=path)))


@pytest.mark.parametrize(
    "seed", [0, 2**32 - 1, 2**32, 2**63 - 1, _stage_seed(7, 1), 2**64 + 5]
)
@pytest.mark.parametrize("head", [(), (3,), (0, 2), (1, 0, 2**32 + 9)])
@pytest.mark.parametrize("last", [0, BLOCK - 1, BLOCK, BLOCK + 1, 10**6])
def test_substream_equals_the_seed_sequence_route(seed, head, last):
    path = head + (last,)
    ours, theirs = substream(seed, *path), numpy_stream(seed, *path)
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert np.array_equal(ours.integers(0, 2**63, size=8), theirs.integers(0, 2**63, size=8))
    assert np.array_equal(ours.random(4), theirs.random(4))


@pytest.mark.parametrize("path", [(2**32,), (2**32 + 5,), (4, 2**40 + BLOCK), (2**70, 3)])
def test_substream_equals_the_seed_sequence_route_for_multiword_entries(path):
    ours, theirs = substream(99, *path), numpy_stream(99, *path)
    assert ours.bit_generator.state == theirs.bit_generator.state


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
