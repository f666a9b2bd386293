"""Instance distributions and the promise rule.

An instance is a triple (x, M, w): Alice's string x of length 2n, Bob's
matching M on {1..2n} and his noisy parity observations w of length n.
The generating mixture draws x and M uniformly, a fair source bit b, and
then w agreeing with the edge parities of x on each position with
probability 3/4 (b = 0) or disagreeing with probability 3/4 (b = 1).

The promise is pure integer arithmetic: with d the number of positions
where w disagrees with the edge parities, an instance is inside it iff
3d <= n (a zero instance) or 3d >= 2n (a one instance).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any

import numpy as np

from .core import BitString, PerfectMatching, _canonical_pairs, apply_matching
from .errors import DimensionMismatch
from .seeding import HalfWords

#: Probability that a sampled bit agrees with its source label.  Fixed at
#: 3/4 everywhere; threaded as a constant so densities, samplers and
#: oracles cannot drift apart.
NOISE_BIAS = Fraction(3, 4)


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


def _biased_bits(b: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n independent bits, each equal to b with probability 3/4."""
    flips = rng.random(n) >= float(NOISE_BIAS)
    return (flips ^ bool(b)).view(np.uint8)


def _raw_pairs(n: int, rng: np.random.Generator) -> np.ndarray:
    """A uniform perfect matching as one ``permutation(2n)`` read as n rows.

    0-based and not yet in canonical order; ``core._canonical_pairs`` puts
    the rows in order once, and :func:`sample_matching` and
    :func:`sample_T` hand its result to ``PerfectMatching._adopt``.
    """
    return rng.permutation(2 * n).reshape(n, 2)


def _mixture_draws(
    n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """The four draws of one mixture sample, in stream order: (x, raw, b, noise).

    x is 2n uniform bits, raw the rows of :func:`_raw_pairs`, b the fair
    source bit and noise the n bits that make w from the edge parities.
    The one home of that order: :func:`_sample_t_arrays` and
    ``verify.check_promise_rates`` build on it.
    """
    x = rng.integers(0, 2, size=2 * n, dtype=np.uint8)
    raw = _raw_pairs(n, rng)
    b = int(rng.integers(0, 2))
    return x, raw, b, _biased_bits(b, n, rng)


def _sample_t_arrays(
    n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, np.ndarray]:
    """One draw from the generating mixture as raw arrays (x, pairs, w, b, noise).

    pairs are the matching's canonical 0-based rows.  w is the edge
    parities xor noise, so noise is the draw's disagreement bits: edge
    parities xor w.
    """
    x, raw, b, noise = _mixture_draws(n, rng)
    pairs = _canonical_pairs(raw)
    w = x[pairs[:, 0]] ^ x[pairs[:, 1]] ^ noise
    return x, pairs, w, b, noise


def _in_promise(n: int, d: int) -> bool:
    """The promise rule, the one place it is written: 3d <= n or 3d >= 2n."""
    return 3 * d <= n or 3 * d >= 2 * n


def _sample_promise_arrays(
    n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, np.ndarray]:
    """Rejection-sample until the promise holds; returns the accepted draw as it is."""
    while True:
        draw = _sample_t_arrays(n, rng)
        if _in_promise(n, int(np.count_nonzero(draw[-1]))):
            return draw


#: Chance that one edge's observation disagrees with its parity, by source bit.
_DISAGREE_PROB = (float(1 - NOISE_BIAS), float(NOISE_BIAS))


def _sample_source_and_count(
    n: int, words: HalfWords, restrict_promise: bool
) -> tuple[int, int]:
    """Source bit b and disagreement count d of one mixture draw, and nothing else.

    In every draw the disagreement bits (edge parities xor w) equal the
    noise vector bit for bit, so x and the matching cancel out: d is
    Binomial(n, 1/4) for b = 0 and Binomial(n, 3/4) for b = 1, and given
    d the disagreeing edges are a uniform d-subset.  With
    ``restrict_promise``, (b, d) is redrawn until the promise holds.  b
    is ``words.below(2)``, which draws as ``rng.integers(0, 2)`` would.
    """
    binomial = words.rng.binomial
    while True:
        b = words.below(2)
        d = int(binomial(n, _DISAGREE_PROB[b]))
        if not restrict_promise or _in_promise(n, d):
            return b, d


def _noise_weights(n: int) -> tuple[list[int], int]:
    """The noise law of n observations in whole numbers, by Hamming weight.

    Returns ``weights`` with ``weights[h] = a^(n-h) (q-a)^h`` for h = 0..n,
    and ``scale = q^n``; p = a/q is :data:`NOISE_BIAS`.  A string y of
    weight h has mu_0(y) = weights[h] / scale, and mu_1 is mu_0 reversed by
    weight: mu_1(y) = weights[n - h] / scale.
    """
    a, q = NOISE_BIAS.numerator, NOISE_BIAS.denominator
    return [a ** (n - h) * (q - a) ** h for h in range(n + 1)], q**n


def _count_law(n: int, promise: bool) -> tuple[dict[int, int], int]:
    """Law of the disagreement count d under source 0, in whole numbers.

    Returns the weights ``q^n P(d | 0)`` of the counts kept, keyed by d,
    and their sum; p = a/q is :data:`NOISE_BIAS`, so the law is
    Binomial(n, 1/4).  With ``promise`` only the counts inside the
    promise are kept, so the sum is their mass.  Source 1 is the mirror:
    P(d | 1) = P(n - d | 0), and the promise keeps d iff it keeps n - d,
    so both sources keep the same mass.
    """
    a, q = NOISE_BIAS.numerator, NOISE_BIAS.denominator
    u, v = q - a, a  # q times the chances that one edge disagrees and agrees
    weights = {}
    weight = v**n
    for d in range(n + 1):
        if not promise or _in_promise(n, d):
            weights[d] = weight
        # the pmf ratio recurrence; the floor division is exact because the
        # next weight C(n, d+1) u^(d+1) v^(n-d-1) is itself a whole number
        weight = weight * (n - d) * u // ((d + 1) * v)
    return weights, sum(weights.values())


# ---------------------------------------------------------------------------
# public samplers and densities


def sample_matching(n: int, rng: np.random.Generator) -> PerfectMatching:
    """Uniform perfect matching on {1..2n}."""
    if n < 1:
        raise ValueError("n must be positive")
    return PerfectMatching._adopt(_canonical_pairs(_raw_pairs(n, rng)))


def density_mu(b: int, y: BitString) -> Fraction:
    """Exact probability of y under the product of 3/4-biased bits toward b."""
    if b not in (0, 1):
        raise ValueError(f"b must be 0 or 1, got {b!r}")
    weights, scale = _noise_weights(y.length)
    return Fraction(weights[int(np.count_nonzero(y.bits != b))], scale)


def sample_T(n: int, rng: np.random.Generator) -> BhmInstance:
    """One instance from the generating mixture, with its source bit recorded."""
    if n < 1:
        raise ValueError("n must be positive")
    x, pairs, w, b, _ = _sample_t_arrays(n, rng)
    # fresh arrays that are valid by construction, so they are stored as they are
    return BhmInstance(
        x=BitString._adopt(x),
        matching=PerfectMatching._adopt(pairs),
        w=BitString._adopt(w),
        source=b,
    )


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


def promise_outside_probability(n: int) -> Fraction:
    """Exact probability that a mixture draw violates the promise.

    The disagreement count is Binomial(n, 1/4) under source 0 and
    Binomial(n, 3/4) under source 1; both give the same outside mass by
    the d -> n - d mirror, so the mixture mass is one minus the mass
    :func:`_count_law` keeps.
    """
    if n < 1:
        raise ValueError("n must be positive")
    _, mass = _count_law(n, promise=True)
    return 1 - Fraction(mass, NOISE_BIAS.denominator**n)
