"""Instance distributions and promise classification.

An instance is a triple (x, M, w): Alice's string x of length 2n, Bob's
matching M on {1..2n} and his noisy parity observations w of length n.
The generating mixture draws x and M uniformly, a fair source bit b, and
then w agreeing with the edge parities of x on each position with
probability 3/4 (b = 0) or disagreeing with probability 3/4 (b = 1).

Promise classification is pure integer arithmetic: with d the number of
positions where w disagrees with the edge parities, an instance is a
zero instance iff 3d <= n and a one instance iff 3d >= 2n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Any

import numpy as np

from .core import BitString, PerfectMatching, apply_matching, hamming_distance
from .errors import DimensionMismatch

#: Probability that a sampled bit agrees with its source label.  Fixed at
#: 3/4 everywhere; threaded as a constant so densities, samplers and
#: oracles cannot drift apart.
NOISE_BIAS = Fraction(3, 4)


class PromiseClass(Enum):
    ZERO = "zero"
    ONE = "one"
    OUTSIDE = "outside"


@dataclass(frozen=True)
class BhmInstance:
    """One problem instance, optionally tagged with its source bit."""

    x: BitString
    matching: PerfectMatching
    w: BitString
    source: int | None = None

    def __post_init__(self) -> None:
        if self.x.length != self.matching.size:
            raise DimensionMismatch(
                f"x has length {self.x.length}, matching covers {self.matching.size}"
            )
        if self.w.length != self.matching.n:
            raise DimensionMismatch(
                f"w has length {self.w.length}, matching has {self.matching.n} edges"
            )
        if self.source not in (None, 0, 1):
            raise ValueError(f"source must be 0, 1 or None, got {self.source!r}")

    @property
    def n(self) -> int:
        return self.matching.n

    def disagreements(self) -> int:
        """d = number of positions where w differs from the edge parities."""
        return hamming_distance(apply_matching(self.matching, self.x), self.w)

    def to_json_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "n": self.n,
            "x": self.x.to_text(),
            "matching": self.matching.to_text(),
            "w": self.w.to_text(),
        }
        if self.source is not None:
            record["source"] = self.source
        return record

    @classmethod
    def from_json_dict(cls, record: dict[str, Any]) -> BhmInstance:
        inst = cls(
            x=BitString.from_text(record["x"]),
            matching=PerfectMatching.from_text(record["matching"]),
            w=BitString.from_text(record["w"]),
            source=record.get("source"),
        )
        if inst.n != record["n"]:
            raise ValueError(f"record claims n={record['n']} but fields give {inst.n}")
        return inst


# ---------------------------------------------------------------------------
# array kernels; object samplers below wrap these so both paths share one
# randomness layout


def _uniform_pairs(n: int, rng: np.random.Generator) -> np.ndarray:
    """Canonical 0-based (n, 2) pair array of a uniform perfect matching."""
    pairs = rng.permutation(2 * n).reshape(n, 2)
    pairs.sort(axis=1)
    return pairs[np.argsort(pairs[:, 0])]


def _biased_bits(b: int, n: int, rng: np.random.Generator) -> np.ndarray:
    flips = rng.random(n) >= float(NOISE_BIAS)
    return np.where(flips, 1 - b, b).astype(np.uint8)


def _sample_t_arrays(
    n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """One draw from the generating mixture as raw arrays (x, pairs, w, b)."""
    x = rng.integers(0, 2, size=2 * n, dtype=np.uint8)
    pairs = _uniform_pairs(n, rng)
    b = int(rng.integers(0, 2))
    noise = _biased_bits(b, n, rng)
    parities = x[pairs[:, 0]] ^ x[pairs[:, 1]]
    w = parities ^ noise
    return x, pairs, w, b


def _classify_counts(n: int, d: int) -> PromiseClass:
    """The promise rule, the one place it is written: 3d <= n or 3d >= 2n."""
    if 3 * d <= n:
        return PromiseClass.ZERO
    if 3 * d >= 2 * n:
        return PromiseClass.ONE
    return PromiseClass.OUTSIDE


def _sample_promise_arrays(
    n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, np.ndarray]:
    """Rejection-sample until the promise holds; also returns parities xor w."""
    while True:
        x, pairs, w, b = _sample_t_arrays(n, rng)
        disagree = x[pairs[:, 0]] ^ x[pairs[:, 1]] ^ w
        d = int(np.count_nonzero(disagree))
        if _classify_counts(n, d) is not PromiseClass.OUTSIDE:
            return x, pairs, w, b, disagree


#: Chance that one edge's observation disagrees with its parity, by source bit.
_DISAGREE_PROB = (float(1 - NOISE_BIAS), float(NOISE_BIAS))


def _sample_source_and_count(
    n: int, rng: np.random.Generator, restrict_promise: bool
) -> tuple[int, int]:
    """Source bit b and disagreement count d of one mixture draw, and nothing else.

    In every draw the disagreement bits (edge parities xor w) equal the
    noise vector bit for bit, so x and the matching cancel out: d is
    Binomial(n, 1/4) for b = 0 and Binomial(n, 3/4) for b = 1, and given
    d the disagreeing edges are a uniform d-subset.  With
    ``restrict_promise``, (b, d) is redrawn until the promise holds.
    """
    while True:
        b = int(rng.integers(0, 2))
        d = int(rng.binomial(n, _DISAGREE_PROB[b]))
        if not restrict_promise or _classify_counts(n, d) is not PromiseClass.OUTSIDE:
            return b, d


def _count_law(n: int, b: int, promise: bool) -> dict[int, Fraction]:
    """Exact law of the disagreement count d given the source bit b.

    The law is Binomial(n, 1/4) for b = 0 and Binomial(n, 3/4) for b = 1.
    With ``promise`` it is restricted to the counts inside the promise and
    renormalised over them.
    """
    p = NOISE_BIAS if b else 1 - NOISE_BIAS
    law = {
        d: math.comb(n, d) * p**d * (1 - p) ** (n - d)
        for d in range(n + 1)
        if not promise or _classify_counts(n, d) is not PromiseClass.OUTSIDE
    }
    mass = sum(law.values())
    return {d: v / mass for d, v in law.items()}


def _instance_from_arrays(
    x: np.ndarray, pairs: np.ndarray, w: np.ndarray, b: int
) -> BhmInstance:
    return BhmInstance(
        x=BitString(x), matching=PerfectMatching(pairs + 1), w=BitString(w), source=b
    )


# ---------------------------------------------------------------------------
# public samplers and densities


def sample_matching(n: int, rng: np.random.Generator) -> PerfectMatching:
    """Uniform perfect matching on {1..2n}."""
    if n < 1:
        raise ValueError("n must be positive")
    return PerfectMatching(_uniform_pairs(n, rng) + 1)


def sample_biased(b: int, n: int, rng: np.random.Generator) -> BitString:
    """n independent bits, each equal to b with probability 3/4."""
    if b not in (0, 1):
        raise ValueError(f"b must be 0 or 1, got {b!r}")
    if n < 1:
        raise ValueError("n must be positive")
    return BitString(_biased_bits(b, n, rng))


def density_mu(b: int, y: BitString) -> Fraction:
    """Exact probability of y under the product of 3/4-biased bits toward b."""
    if b not in (0, 1):
        raise ValueError(f"b must be 0 or 1, got {b!r}")
    agree = int(np.count_nonzero(y.bits == b))
    return NOISE_BIAS**agree * (1 - NOISE_BIAS) ** (y.length - agree)


def sample_w(
    x: BitString, matching: PerfectMatching, b: int, rng: np.random.Generator
) -> BitString:
    """Observations w_i = (edge parity i) xor e_i with e ~ biased noise toward b."""
    if b not in (0, 1):
        raise ValueError(f"b must be 0 or 1, got {b!r}")
    parities = apply_matching(matching, x)
    return BitString(parities.bits ^ _biased_bits(b, matching.n, rng))


def sample_T(n: int, rng: np.random.Generator) -> BhmInstance:
    """One instance from the generating mixture, with its source bit recorded."""
    if n < 1:
        raise ValueError("n must be positive")
    return _instance_from_arrays(*_sample_t_arrays(n, rng))


def sample_promise_instance(n: int, rng: np.random.Generator) -> BhmInstance:
    """Rejection-sample the mixture until the promise holds."""
    if n < 1:
        raise ValueError("n must be positive")
    x, pairs, w, b, _ = _sample_promise_arrays(n, rng)
    return _instance_from_arrays(x, pairs, w, b)


def pinned_instance(
    n: int, d: int, source: int, rng: np.random.Generator
) -> BhmInstance:
    """Instance whose observations disagree with the edge parities on exactly d edges.

    x and the matching are uniform, and the d disagreeing edges are a
    uniform d-subset; ``source`` is recorded as given.
    """
    x = BitString(rng.integers(0, 2, size=2 * n))
    matching = sample_matching(n, rng)
    flips = np.zeros(n, dtype=np.uint8)
    flips[rng.choice(n, size=d, replace=False)] = 1
    w = BitString(apply_matching(matching, x).bits ^ flips)
    return BhmInstance(x=x, matching=matching, w=w, source=source)


def classify_promise(inst: BhmInstance) -> PromiseClass:
    return _classify_counts(inst.n, inst.disagreements())


def promise_outside_probability(n: int) -> Fraction:
    """Exact probability that a mixture draw violates the promise.

    The disagreement count is Binomial(n, 1/4) under source 0 and
    Binomial(n, 3/4) under source 1; both give the same outside mass by
    the h -> n-h symmetry, so the mixture mass equals either tail.
    """
    if n < 1:
        raise ValueError("n must be positive")
    p = 1 - NOISE_BIAS
    total = Fraction(0)
    for d in range(n + 1):
        if _classify_counts(n, d) is PromiseClass.OUTSIDE:
            total += math.comb(n, d) * p**d * (1 - p) ** (n - d)
    return total
