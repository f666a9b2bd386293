"""Exact matching counts and the support-lifting probability gamma.

gamma(n, k) is the chance that a uniform perfect matching on {1..2n}
matches a fixed weight-k support internally, i.e. that the support is a
union of edges.  Counts and gamma are exact big-integer / rational
values; floating point appears only in the analytic upper bound and in
Monte-Carlo estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import BitString


#: Ranges of at most this many factors are one ``math.prod`` in :func:`_product`.
_PRODUCT_LEAF = 16


def _product(factors: range) -> int:
    """Product of a range of factors, split in halves down to short runs.

    Each big multiplication then has two operands of about the same size,
    which CPython multiplies by Karatsuba, instead of one huge running
    product times one small factor.  Short ranges, such as every gamma
    of at most 32 points, are one ``math.prod``.
    """
    if len(factors) <= _PRODUCT_LEAF:
        return math.prod(factors)
    half = len(factors) // 2
    return _product(factors[:half]) * _product(factors[half:])


def count_matchings(t: int) -> int:
    """Number of perfect matchings on t points: the double factorial (t-1)!!."""
    if t < 0 or t % 2 != 0:
        raise ValueError(f"perfect matchings need an even number of points, got {t}")
    return _product(range(1, t, 2))


def _matchings_on(
    items: tuple[int, ...], memo: dict[tuple[int, ...], tuple[tuple[tuple[int, int], ...], ...]]
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All perfect matchings on ``items``, each tail listing built once per ``memo``.

    The first point is paired with each later point in turn, followed by
    every matching of the points left over.  Different pairings can leave
    the same points, so each listing is kept in ``memo``; tuples are
    immutable, so the listings share their tails.
    """
    if not items:
        return ((),)
    listing = memo.get(items)
    if listing is None:
        first, rest = items[0], items[1:]
        out: list[tuple[tuple[int, int], ...]] = []
        for i, partner in enumerate(rest):
            head = ((first, partner),)
            out.extend([head + tail for tail in _matchings_on(rest[:i] + rest[i + 1 :], memo)])
        listing = memo[items] = tuple(out)
    return listing


def enumerate_matchings(t: int) -> list[tuple[tuple[int, int], ...]]:
    """All perfect matchings on {1..t} in canonical pair order.

    The memo of tail listings lives for this call only.
    """
    if t < 0 or t % 2 != 0:
        raise ValueError(f"perfect matchings need an even number of points, got {t}")
    return list(_matchings_on(tuple(range(1, t + 1)), {}))


def _validate_weight(n: int, k: int) -> None:
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if k % 2 != 0:
        # a lifted character always has even weight, so odd k can never
        # be matched internally
        raise ValueError(f"support weight must be even, got {k}")
    if not 2 <= k <= 2 * n:
        raise ValueError(f"support weight {k} out of range 2..{2 * n}")


def gamma_exact(n: int, k: int) -> Fraction:
    """Exact probability that a weight-k support is a union of matching edges.

    Equals count(k) * count(2n-k) / count(2n) as a reduced rational; the
    ratio count(2n) / count(2n-k) is the k/2 odd factors (2n-1)(2n-3)...(2n-k+1).
    The value is symmetric in k <-> 2n - k, so the smaller of the two is used.
    """
    _validate_weight(n, k)
    k = min(k, 2 * n - k)
    return Fraction(count_matchings(k), _product(range(2 * n - 1, 2 * n - k, -2)))


def gamma_bound(n: int, k: int) -> float:
    """Analytic upper bound (k/2n)^(k/2); checked against the exact value."""
    _validate_weight(n, k)
    bound = Fraction(k, 2 * n) ** (k // 2)
    if gamma_exact(n, k) > bound:
        raise RuntimeError(f"gamma_exact({n}, {k}) exceeds the bound {bound}")
    return float(bound)


#: Permutation entries per block of :func:`gamma_monte_carlo`, so memory does not grow with trials.
_PERMUTATION_BLOCK = 1 << 20


@dataclass(frozen=True)
class MonteCarloEstimate:
    """A Monte-Carlo success frequency: ``successes`` hits in ``trials`` trials."""

    successes: int
    trials: int

    @property
    def estimate(self) -> float:
        return self.successes / self.trials

    @property
    def sigma(self) -> float:
        """Binomial standard error sqrt(p(1 - p) / trials) at p = the estimate."""
        p = self.estimate
        return math.sqrt(p * (1 - p) / self.trials)


def gamma_monte_carlo(
    n: int,
    k: int,
    trials: int,
    rng: np.random.Generator,
    z: BitString | None = None,
) -> MonteCarloEstimate:
    """Estimate gamma by sampling uniform matchings.

    A matching matches the support of z internally iff every edge lies
    entirely inside or entirely outside the support.  Defaults to the
    canonical support 1^k 0^(2n-k); pass z to probe a different support
    of the same weight (the estimate depends only on k).  Each row of one
    ``permuted`` call draws exactly as one ``permutation(2n)`` call would,
    so the blocks consume the generator trial by trial.
    """
    _validate_weight(n, k)
    if trials < 1:
        raise ValueError("trials must be positive")
    if z is None:
        z = BitString((1,) * k + (0,) * (2 * n - k))
    if z.length != 2 * n or z.hamming_weight() != k:
        raise ValueError(f"z must have length {2 * n} and weight {k}")
    mask = z.bits.astype(bool)
    rows = max(1, _PERMUTATION_BLOCK // (2 * n))
    hits = 0
    for start in range(0, trials, rows):
        perms = rng.permuted(np.tile(np.arange(2 * n), (min(rows, trials - start), 1)), axis=1)
        inside = mask[perms]
        hits += int(np.count_nonzero((inside[:, 0::2] == inside[:, 1::2]).all(axis=1)))
    return MonteCarloEstimate(hits, trials)
