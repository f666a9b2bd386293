"""Classical one-way baselines and exact distributional brute force.

A one-way protocol is an Alice map from x to a c-bit message plus a Bob
map from (message, matching, w) to a guess at the source bit.  Success
is always measured against the generating mixture: uniform x and
matching, fair source bit, 3/4-biased observations.

Two exact tools back the Monte-Carlo runners at tiny sizes: the optimal
Bob for a fixed Alice map (Bayes rule on the exact joint mass) and full
enumeration over all Alice maps for one-bit messages.  Both use integer
arithmetic; nothing is truncated silently, budgets fail loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Sequence

import numpy as np

from .combinatorics import count_matchings, enumerate_matchings
from .core import BitString, PerfectMatching
from .errors import BudgetExceeded
from .fourier import _popcounts, matching_image_table
# _sample_t_arrays is not called here; the binding stays because
# perfbench's tracer self-test checks that it wraps this module's name
from .instances import (  # noqa: F401
    NOISE_BIAS,
    _count_law,
    _sample_source_and_count,
    _sample_t_arrays,
)
from .quantum import majority_success
from .seeding import substream

#: Work cap for the exact joint-mass enumeration (2^2n * matchings * 2^n).
DEFAULT_ENUMERATION_BUDGET = 100_000

#: Cap on the number of Alice maps the brute force will enumerate.
DEFAULT_MAP_BUDGET = 1 << 16


@dataclass(frozen=True)
class SuccessReport:
    """Success of one protocol, exact or Monte-Carlo."""

    protocol: str
    message_bits: int
    method: str  # "exact" | "monte_carlo"
    success_prob: float
    success_exact: Fraction | None = None
    trials: int | None = None
    sigma: float | None = None
    witness: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.method == "exact":
            if self.sigma is not None or self.trials is not None:
                raise ValueError("exact reports carry no trial count or sigma")
        elif self.method == "monte_carlo":
            if self.trials is None or self.trials < 1 or self.sigma is None:
                raise ValueError("monte_carlo reports need trials >= 1 and sigma")
        else:
            raise ValueError(f"unknown method {self.method!r}")

    def to_json_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "protocol": self.protocol,
            "message_bits": self.message_bits,
            "method": self.method,
            "success_prob": self.success_prob,
        }
        if self.success_exact is not None:
            record["success_exact"] = (
                f"{self.success_exact.numerator}/{self.success_exact.denominator}"
            )
        if self.trials is not None:
            record["trials"] = self.trials
        if self.sigma is not None:
            record["sigma"] = self.sigma
        if self.witness is not None:
            record["witness"] = self.witness
        return record


# ---------------------------------------------------------------------------
# subset protocol


def expected_internal_edges(n: int, c: int) -> Fraction:
    """Expected number of matching edges inside a fixed c-subset: c(c-1)/(2(2n-1))."""
    if not 0 <= c <= 2 * n:
        raise ValueError(f"subset size {c} out of range 0..{2 * n}")
    return Fraction(c * (c - 1), 2 * (2 * n - 1))


def known_edge_success(k: int) -> Fraction:
    """Success of the agreement vote given k fully known edges.

    The k observations are independent and each points at the source with
    probability 3/4; majority wins, exact ties flip a fair coin.  With
    coin-flip ties, 2j votes succeed exactly as often as 2j - 1 votes, so
    this is the odd-r majority tail.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return Fraction(1, 2)
    return majority_success(NOISE_BIAS, k - 1 + k % 2)


def subset_trial_outcomes(
    n: int, subset: Iterable[int], trials: int, seed: int, restrict_promise: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Run the subset protocol over fresh mixture draws.

    Returns (known_edge_counts, correct_flags), one entry per trial.
    Trial t draws from substream(seed, t), so any single trial can be
    reproduced in isolation.

    A trial draws only what the vote reads: the source bit b and the
    disagreement count d (:func:`instances._sample_source_and_count`),
    the number K of matching edges inside the subset, which depends on
    the subset only through its size c (:func:`_known_edge_count`), and
    the number of those K edges that disagree with w.  The d
    disagreeing edges are a uniform d-subset independent of the
    matching, so that number is Hypergeometric(n, d, K).
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if trials < 1:
        raise ValueError("trials must be positive")
    positions = sorted({int(i) for i in subset})
    if positions and (positions[0] < 1 or positions[-1] > 2 * n):
        raise ValueError("subset positions out of range 1..2n")
    c = len(positions)
    ks = np.empty(trials, dtype=np.int64)
    correct = np.empty(trials, dtype=bool)
    for t in range(trials):
        rng = substream(seed, t)
        b, d = _sample_source_and_count(n, rng, restrict_promise)
        k = _known_edge_count(n, c, rng.random(c).tolist())
        agree = k - int(rng.hypergeometric(d, n - d, k))
        if 2 * agree > k:
            guess = 0
        elif 2 * agree < k:
            guess = 1
        else:
            guess = int(rng.integers(2))
        ks[t] = k
        correct[t] = guess == b
    return ks, correct


def _known_edge_count(n: int, c: int, u: Sequence[float]) -> int:
    """Matching edges inside a fixed c-subset of {1..2n}, from c uniforms u.

    The partner process: visit the known points in turn, and give each
    one not yet matched a partner drawn uniformly from the other
    unmatched points.  Before step i, 2n - 2i points are unmatched and
    ``left`` of them are known, so the partner is known with probability
    (left - 1) / (2n - 2i - 1).  At most c steps, one uniform each.
    """
    k = step = 0
    left = c
    while left > 1:
        if u[step] * (2 * n - 2 * step - 1) < left - 1:
            k += 1
            left -= 2
        else:
            left -= 1
        step += 1
    return k


def _known_edge_law(n: int, c: int) -> list[Fraction]:
    """P(K = k) for k = 0..c//2, K the matching edges inside a fixed c-subset.

    A matching with exactly k inside edges pairs 2k of the c known
    points among themselves, sends the other c - 2k to distinct outside
    points and pairs the 2n - 2c + 2k outside points left over:
    C(c,2k) (2k-1)!! (2n-c)_(c-2k) (2n-2c+2k-1)!! of the (2n-1)!!.
    """
    if not 0 <= c <= 2 * n:
        raise ValueError(f"subset size {c} out of range 0..{2 * n}")
    total = count_matchings(2 * n)
    law = []
    for k in range(c // 2 + 1):
        rest = 2 * n - 2 * c + 2 * k
        ways = 0
        if rest >= 0:
            ways = (
                math.comb(c, 2 * k)
                * count_matchings(2 * k)
                * math.perm(2 * n - c, c - 2 * k)
                * count_matchings(rest)
            )
        law.append(Fraction(ways, total))
    return law


def subset_mixture_success(n: int, c: int, promise: bool) -> Fraction:
    """Exact success of the subset protocol on any c known positions, at any n.

    Averages the vote over the known-edge count K (:func:`_known_edge_law`).
    Without the promise, success given K is :func:`known_edge_success`,
    and the result equals :func:`subset_success_exact`, its enumeration
    oracle at tiny n.  With ``promise``, it also averages over the source
    bit, the disagreement count d inside the promise and the disagreeing
    known edges, Hypergeometric(n, d, K); that costs O(n c^2) big-integer
    terms.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    law = _known_edge_law(n, c)
    if not promise:
        # the k known observations are then independent 3/4-biased votes
        return sum(p_k * known_edge_success(k) for k, p_k in enumerate(law))
    total = Fraction(0)
    for b in (0, 1):
        for d, p_d in _count_law(n, b, promise).items():
            for k, p_k in enumerate(law):
                # twice the winning chance of the vote with j of k known edges
                # disagreeing: guess 1 iff 2j > k, a tie is a fair coin
                wins2 = sum(
                    math.comb(d, j)
                    * math.comb(n - d, k - j)
                    * (1 if 2 * j == k else 2 * ((2 * j > k) == b))
                    for j in range(k + 1)
                )
                total += p_d * p_k * Fraction(wins2, 4 * math.comb(n, k))
    return total


def run_subset_trials(
    n: int, subset: Iterable[int], trials: int, seed: int, restrict_promise: bool = False
) -> SuccessReport:
    """Monte-Carlo success report for the subset protocol."""
    positions = sorted({int(i) for i in subset})
    _, correct = subset_trial_outcomes(n, positions, trials, seed, restrict_promise)
    hits = int(np.count_nonzero(correct))
    return _monte_carlo_report(f"subset-{len(positions)}", len(positions), hits, trials)


def _monte_carlo_report(
    protocol: str, message_bits: int, hits: int, trials: int
) -> SuccessReport:
    p_hat = hits / trials
    return SuccessReport(
        protocol=protocol,
        message_bits=message_bits,
        method="monte_carlo",
        success_prob=p_hat,
        trials=trials,
        sigma=math.sqrt(p_hat * (1.0 - p_hat) / trials),
    )


# ---------------------------------------------------------------------------
# exact enumeration


def _check_enumeration_budget(n: int, budget: int) -> None:
    work = (1 << (2 * n)) * count_matchings(2 * n) * (1 << n)
    if work > budget:
        raise BudgetExceeded(
            f"exact enumeration needs {work} tuple visits, budget is {budget}"
        )


def _scaled_densities(n: int) -> tuple[np.ndarray, np.ndarray]:
    """4^n * mu_b as integer tables over noise patterns e in {0,1}^n."""
    ones = _popcounts(1 << n)
    mu1 = 3**ones
    mu0 = 3 ** (n - ones)
    return mu0, mu1


def subset_success_exact(
    n: int, subset: Iterable[int], budget: int = DEFAULT_ENUMERATION_BUDGET
) -> Fraction:
    """Exact mixture success of the subset protocol at tiny n (oracle route)."""
    _check_enumeration_budget(n, budget)
    positions = sorted({int(i) for i in subset})
    if positions and (positions[0] < 1 or positions[-1] > 2 * n):
        raise ValueError("subset positions out of range 1..2n")
    in_subset = [False] * (2 * n)
    for pos in positions:
        in_subset[pos - 1] = True
    mu0, mu1 = _scaled_densities(n)
    matchings = enumerate_matchings(2 * n)
    # twice the winning mass per (x, M, w) cell, so coin-flip ties stay integral
    numer2 = 0
    for pairs in matchings:
        image = matching_image_table(PerfectMatching(pairs))
        internal = [
            i for i, (k, l) in enumerate(pairs) if in_subset[k - 1] and in_subset[l - 1]
        ]
        k_known = len(internal)
        for x_idx in range(1 << (2 * n)):
            y = int(image[x_idx])
            for w_idx in range(1 << n):
                e = w_idx ^ y
                agree = sum(1 for i in internal if not (e >> i) & 1)
                if 2 * agree > k_known:
                    numer2 += 2 * int(mu0[e])
                elif 2 * agree < k_known:
                    numer2 += 2 * int(mu1[e])
                else:
                    numer2 += int(mu0[e]) + int(mu1[e])
    denom = 2 * (1 << (2 * n)) * len(matchings) * 4**n
    return Fraction(numer2, 2 * denom)


def alice_constant(n: int) -> np.ndarray:
    """Message map sending every x to message 0."""
    return np.zeros(1 << (2 * n), dtype=np.int64)


def alice_parity(n: int) -> np.ndarray:
    """Message map sending the global parity of x."""
    xs = np.arange(1 << (2 * n), dtype=np.uint64)
    return np.bitwise_count(xs).astype(np.int64) & 1


def alice_dictator(n: int, position: int) -> np.ndarray:
    """Message map sending the single bit at the given 1-based position."""
    if not 1 <= position <= 2 * n:
        raise ValueError(f"position {position} out of range 1..{2 * n}")
    xs = np.arange(1 << (2 * n), dtype=np.int64)
    return (xs >> (position - 1)) & 1


def alice_identity(n: int) -> np.ndarray:
    """Message map sending all of x."""
    return np.arange(1 << (2 * n), dtype=np.int64)


def bayes_success(
    alice: Sequence[int] | np.ndarray,
    n: int,
    c: int,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> Fraction:
    """Exact success of the best Bob for a fixed Alice map.

    ``alice`` assigns a message in [0, 2^c) to every x index.  The optimal
    Bob guesses the source with the larger joint mass on each observable
    (message, matching, w); the sum of winning masses is computed in
    integer arithmetic and returned as an exact rational.
    """
    _check_enumeration_budget(n, budget)
    alice_map = np.asarray(alice, dtype=np.int64)
    if alice_map.shape != (1 << (2 * n),):
        raise ValueError(f"alice map must have length {1 << (2 * n)}")
    if alice_map.min() < 0 or alice_map.max() >= (1 << c):
        raise ValueError(f"alice map values must lie in [0, {1 << c})")
    mu0, mu1 = _scaled_densities(n)
    matchings = enumerate_matchings(2 * n)
    size_w = 1 << n
    winning = 0
    for pairs in matchings:
        image = matching_image_table(PerfectMatching(pairs))
        # mass[m][w][b] = sum over x in message class m of 4^n mu_b(w xor Mx)
        mass0 = np.zeros((1 << c, size_w), dtype=np.int64)
        mass1 = np.zeros((1 << c, size_w), dtype=np.int64)
        ws = np.arange(size_w, dtype=np.int64)
        for x_idx in range(1 << (2 * n)):
            e = ws ^ int(image[x_idx])
            m = alice_map[x_idx]
            mass0[m] += mu0[e]
            mass1[m] += mu1[e]
        winning += int(np.maximum(mass0, mass1).sum())
    denom = 2 * (1 << (2 * n)) * len(matchings) * 4**n
    return Fraction(winning, denom)


def bruteforce_optimal(
    n: int,
    c: int,
    map_budget: int = DEFAULT_MAP_BUDGET,
    enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> SuccessReport:
    """Maximize Bayes success over all Alice maps with c message bits.

    One-bit maps are enumerated exhaustively (deduplicated by message
    relabeling); c = 0 is the constant map and c >= 2n the identity map,
    which dominates every coarser map.  Anything else exceeds any sane
    map budget and fails loudly.
    """
    if n < 1 or c < 0:
        raise ValueError("need n >= 1 and c >= 0")
    num_x = 1 << (2 * n)
    if c == 0:
        value = bayes_success(alice_constant(n), n, 0, budget=enumeration_budget)
        witness = {"message_0": [_x_text(i, n) for i in range(num_x)]}
    elif c >= 2 * n:
        # the identity map induces the finest partition, and refining a
        # partition never lowers the winning mass
        value = bayes_success(alice_identity(n), n, 2 * n, budget=enumeration_budget)
        witness = {"map": "identity"}
    elif c == 1:
        if (1 << num_x) > map_budget:
            raise BudgetExceeded(
                f"{1 << num_x} one-bit maps exceed map budget {map_budget}"
            )
        value, best_map = _bruteforce_one_bit(n, enumeration_budget)
        witness = {
            "message_0": [_x_text(i, n) for i in range(num_x) if not (best_map >> i) & 1],
            "message_1": [_x_text(i, n) for i in range(num_x) if (best_map >> i) & 1],
        }
    else:
        raise BudgetExceeded(
            f"enumerating 2^{c * num_x} maps for c={c} exceeds any budget"
        )
    return SuccessReport(
        protocol=f"bruteforce-c{c}",
        message_bits=c,
        method="exact",
        success_prob=float(value),
        success_exact=value,
        witness=witness,
    )


def _x_text(index: int, n: int) -> str:
    return BitString.from_index(2 * n, index).to_text()


def _bruteforce_one_bit(n: int, enumeration_budget: int) -> tuple[Fraction, int]:
    """Exhaustive scan of one-bit Alice maps; returns (value, best map bits)."""
    _check_enumeration_budget(n, enumeration_budget)
    num_x = 1 << (2 * n)
    size_w = 1 << n
    mu0, mu1 = _scaled_densities(n)
    matchings = enumerate_matchings(2 * n)
    # mass_by_x[x, cell] = 4^n mu_b(w xor Mx) for cell = (matching, w, b)
    cells = len(matchings) * size_w * 2
    mass_by_x = np.empty((num_x, cells), dtype=np.int64)
    ws = np.arange(size_w, dtype=np.int64)
    for mi, pairs in enumerate(matchings):
        image = matching_image_table(PerfectMatching(pairs))
        for x_idx in range(num_x):
            e = ws ^ int(image[x_idx])
            base = mi * size_w * 2
            mass_by_x[x_idx, base : base + size_w] = mu0[e]
            mass_by_x[x_idx, base + size_w : base + 2 * size_w] = mu1[e]
    totals = mass_by_x.sum(axis=0)
    # fix alice(x index 0) = 0: complementing the map relabels messages only
    maps = np.arange(0, 1 << num_x, 2, dtype=np.int64)
    member = ((maps[:, None] >> np.arange(num_x)) & 1).astype(np.int64)
    mass1 = member @ mass_by_x  # mass of message class 1, per cell
    mass0 = totals[None, :] - mass1
    # winning mass: per (matching, w) pick the better source, separately for
    # both message classes
    m0 = mass0.reshape(maps.size, len(matchings), 2, size_w)
    m1 = mass1.reshape(maps.size, len(matchings), 2, size_w)
    win0 = np.maximum(m0[:, :, 0, :], m0[:, :, 1, :]).sum(axis=(1, 2))
    win1 = np.maximum(m1[:, :, 0, :], m1[:, :, 1, :]).sum(axis=(1, 2))
    score = win0 + win1
    best = int(np.argmax(score))
    denom = 2 * num_x * len(matchings) * 4**n
    return Fraction(int(score[best]), denom), int(maps[best])
