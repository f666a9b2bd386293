"""Classical one-way baselines and exact distributional brute force.

A one-way protocol is an Alice map from x to a c-bit message plus a Bob
map from (message, matching, w) to a guess at the source bit.  Success
is always measured against the generating mixture: uniform x and
matching, fair source bit, 3/4-biased observations.

Two exact tools back the Monte-Carlo runners at tiny sizes: the optimal
Bob for a fixed Alice map (Bayes rule on the exact source gap) and full
enumeration of the one-bit Alice maps that send x and its complement
alike, which Bob cannot tell apart.  Both use integer arithmetic;
nothing is truncated silently, budgets fail loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Sequence

import numpy as np

from .combinatorics import MonteCarloEstimate, count_matchings, enumerate_matchings
from .core import BitString, PerfectMatching
from .errors import BudgetExceeded
from .fourier import _weight_table, matching_image_table
# _sample_t_arrays is not called here; the binding stays because
# perfbench's tracer self-test checks that it wraps this module's name
from .instances import (  # noqa: F401
    NOISE_BIAS,
    _count_law,
    _noise_weights,
    _sample_source_and_count,
    _sample_t_arrays,
)
from .quantum import majority_success
from .seeding import HYPERGEOM_MAX, HalfWords, substream

#: Work cap for :func:`bayes_success`: (2n-1)!! 4^n (message classes + 1) entries visited.
ENUMERATION_BUDGET = 10**9

#: Cap on the number of Alice maps the brute force will enumerate.
MAP_BUDGET = 1 << 16


@dataclass(frozen=True)
class SuccessReport:
    """Exact success of one protocol, with the Alice map that attains it."""

    protocol: str
    message_bits: int
    success_exact: Fraction
    witness: dict[str, Any]

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "protocol": self.protocol,
            "message_bits": self.message_bits,
            "method": "exact",
            "success_prob": float(self.success_exact),
            "success_exact": f"{self.success_exact.numerator}/{self.success_exact.denominator}",
            "witness": self.witness,
        }


# ---------------------------------------------------------------------------
# subset protocol


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
    n: int, c: int, trials: int, seed: int, restrict_promise: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Run the subset protocol with c known positions over fresh mixture draws.

    Returns (known_edge_counts, correct_flags), one entry per trial.
    Trial t draws from substream(seed, t), so any single trial can be
    reproduced in isolation.

    A trial draws only what the vote reads: the source bit b and the
    disagreement count d (:func:`instances._sample_source_and_count`),
    the number K of matching edges inside the known positions, which
    depends on them only through their number c
    (:func:`_known_edge_count`), and the number of those K edges that
    disagree with w.  The d disagreeing edges are a uniform d-subset
    independent of the matching, so that number is Hypergeometric(n, d, K).
    Every draw is the one the numpy calls ``integers`` and
    ``hypergeometric`` would make (:class:`seeding.HalfWords`).  That
    hypergeometric refuses n - d or d at 10**9, so n >= 10**9 is refused
    before any trial draws.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if n >= HYPERGEOM_MAX:
        raise ValueError(f"n must be below {HYPERGEOM_MAX}, got {n}")
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 0 <= c <= 2 * n:
        raise ValueError(f"subset size {c} out of range 0..{2 * n}")
    ks, correct = [], []
    for t in range(trials):
        words = HalfWords(substream(seed, t))
        b, d = _sample_source_and_count(n, words, restrict_promise)
        k = _known_edge_count(n, c, words.rng.random(c).tolist())
        agree = k - words.hypergeometric(d, n - d, k)
        if 2 * agree > k:
            guess = 0
        elif 2 * agree < k:
            guess = 1
        else:
            guess = words.below(2)
        ks.append(k)
        correct.append(guess == b)
    return np.array(ks, dtype=np.int64), np.array(correct, dtype=bool)


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
    Without the promise, success given K is :func:`known_edge_success`.
    With ``promise``, it also averages over the disagreement count d
    inside the promise and the disagreeing known edges,
    Hypergeometric(n, d, K); that costs O(n c^2) big-integer terms.
    Source 1 mirrors source 0 at d -> n - d and j -> K - j, so the
    source-0 half alone is the average.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    law = _known_edge_law(n, c)
    if not promise:
        # the k known observations are then independent 3/4-biased votes
        return sum(p_k * known_edge_success(k) for k, p_k in enumerate(law))
    weights, mass = _count_law(n, promise)
    total = Fraction(0)
    for k, p_k in enumerate(law):
        # twice the winning chance of the vote under source 0 with j of k
        # known edges disagreeing: guess 0 iff 2j < k, a tie is a fair coin
        wins2 = sum(
            weight
            * sum(
                math.comb(d, j) * math.comb(n - d, k - j) * (1 if 2 * j == k else 2 * (2 * j < k))
                for j in range(k + 1)
            )
            for d, weight in weights.items()
        )
        total += p_k * Fraction(wins2, 2 * math.comb(n, k) * mass)
    return total


def run_subset_trials(
    n: int, c: int, trials: int, seed: int, restrict_promise: bool = False
) -> MonteCarloEstimate:
    """Monte-Carlo success of the subset protocol with c known positions."""
    _, correct = subset_trial_outcomes(n, c, trials, seed, restrict_promise)
    return MonteCarloEstimate(int(np.count_nonzero(correct)), trials)


# ---------------------------------------------------------------------------
# exact enumeration


def _check_enumeration_budget(n: int, c: int) -> None:
    """Refuse :func:`bayes_success` of a c-bit map at n over :data:`ENUMERATION_BUDGET`."""
    if 2 * n >= ENUMERATION_BUDGET.bit_length():
        # one pass over the 4^n values of x alone is over budget: no count is built
        work = f"over 2^{2 * n}"
    else:
        work = count_matchings(2 * n) * (1 << (2 * n)) * ((1 << min(c, 2 * n)) + 1)
        if work <= ENUMERATION_BUDGET:
            return
    raise BudgetExceeded(
        f"exact enumeration needs {work} tuple visits, budget is {ENUMERATION_BUDGET}"
    )


def _gap_table(n: int) -> tuple[np.ndarray, int]:
    """The source gap gap[w, z] = q^n (mu_0 - mu_1)(w xor z) in int64, and scale = q^n.

    The cell (x, matching, b, w) has mass q^n mu_b(w xor Mx) of 2 (2n-1)!! 4^n q^n.
    """
    weights, scale = _noise_weights(n)
    by_weight = np.array(weights, dtype=np.int64)
    # mu_1 is mu_0 at the complemented pattern, so its weights run backwards
    table = _weight_table(by_weight - by_weight[::-1], n)
    ws = np.arange(1 << n)
    return table[ws[:, None] ^ ws], scale


def alice_constant(n: int) -> np.ndarray:
    """Message map sending every x to message 0."""
    return np.zeros(1 << (2 * n), dtype=np.int64)


def alice_parity(n: int) -> np.ndarray:
    """Message map sending the global parity of x."""
    return _weight_table(np.arange(2 * n + 1) & 1, 2 * n)


def alice_dictator(n: int, position: int) -> np.ndarray:
    """Message map sending the single bit at the given 1-based position."""
    if not 1 <= position <= 2 * n:
        raise ValueError(f"position {position} out of range 1..{2 * n}")
    xs = np.arange(1 << (2 * n), dtype=np.int64)
    return (xs >> (position - 1)) & 1


def alice_identity(n: int) -> np.ndarray:
    """Message map sending all of x."""
    return np.arange(1 << (2 * n), dtype=np.int64)


def alice_difference(n: int) -> np.ndarray:
    """Message map sending x_1 xor x_i for i = 2..2n, as bit i - 2, in 2n - 1 bits.

    Exactly x and its complement share a message.  Bob sees x only
    through Mx, and M(complement of x) = Mx, so this map reaches the
    identity map's value.
    """
    xs = alice_identity(n)
    return (xs >> 1) ^ (xs & 1) * ((1 << (2 * n - 1)) - 1)


def bayes_success(alice: Sequence[int] | np.ndarray, n: int, c: int) -> Fraction:
    """Exact success of the best Bob for a fixed Alice map.

    ``alice`` assigns a message in [0, 2^c) to every x index.  Bob wins
    max(m0, m1) = (m0 + m1 + |m0 - m1|) / 2 on each (message, matching, w),
    so the map scores (denom + sum_M |gap hist_M^T|_1) / (2 denom), with gap
    from :func:`_gap_table` and hist_M[A, z] the x of class A with Mx = z.
    The budget is checked before the map is read: no 4^n count is printed.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if c < 0:
        raise ValueError(f"message bits c must be nonnegative, got {c}")
    _check_enumeration_budget(n, c)
    alice_map = np.asarray(alice)
    if alice_map.dtype.kind not in "iu":
        raise ValueError("alice map values must be integers")
    if alice_map.shape != (1 << (2 * n),):
        raise ValueError(f"alice map must have length {1 << (2 * n)}")
    # compare bit lengths: no 2^c is built, and c may pass the digit limit
    if alice_map.min() < 0 or int(alice_map.max()).bit_length() > c:
        raise ValueError(f"alice map values must lie in [0, 2^{c})")
    gap, scale = _gap_table(n)
    messages, cls = np.unique(alice_map, return_inverse=True)
    total = 0
    for pairs in enumerate_matchings(2 * n):
        images = matching_image_table(PerfectMatching(pairs))
        hist = np.bincount(cls * len(gap) + images, minlength=messages.size * len(gap))
        total += int(np.abs(gap @ hist.reshape(-1, len(gap)).T).sum())
    denom = 2 * count_matchings(2 * n) * alice_map.size * scale
    return Fraction(denom + total, 2 * denom)


def bruteforce_optimal(n: int, c: int) -> SuccessReport:
    """Maximize Bayes success over all Alice maps with c message bits.

    One-bit maps are enumerated exhaustively over the complement-closed
    maps (:func:`_bruteforce_one_bit`); c = 0 is the constant map, and
    c >= 2n - 1 is the difference map, which reaches the identity map's
    value, and the identity map dominates every coarser map.  Anything
    else exceeds any sane map budget and fails loudly.
    """
    if n < 1 or c < 0:
        raise ValueError("need n >= 1 and c >= 0")
    if c == 0 or c >= 2 * n - 1 or 2 * n >= ENUMERATION_BUDGET.bit_length():
        # before the 4^n-entry map below is built, or any map count
        _check_enumeration_budget(n, min(c, 2 * n - 1))
    num_x = 1 << (2 * n)
    if c == 0:
        value = bayes_success(alice_constant(n), n, 0)
        witness = _message_lists(alice_constant(n), n, 0)
    elif c == 1:
        # the complement-closed scan covers 2^(num_x/2 - 1) maps: compare exponents
        maps_log2 = num_x // 2 - 1
        if maps_log2 > MAP_BUDGET.bit_length() - 1:
            raise BudgetExceeded(f"2^{maps_log2} one-bit maps exceed map budget {MAP_BUDGET}")
        value, alice = _bruteforce_one_bit(n)
        witness = _message_lists(alice, n, 1)
    elif c >= 2 * n - 1:
        # refining a partition never lowers the winning mass, so the
        # identity map is optimal, and the difference map equals it
        value = bayes_success(alice_difference(n), n, 2 * n - 1)
        witness = {"map": "identity" if c >= 2 * n else "difference"}
    else:
        raise BudgetExceeded(f"enumerating 2^{c * num_x} maps for c={c} exceeds any budget")
    return SuccessReport(
        protocol=f"bruteforce-c{c}", message_bits=c, success_exact=value, witness=witness
    )


def _message_lists(alice: np.ndarray, n: int, c: int) -> dict[str, list[str]]:
    """The witness of a c-bit Alice map: each message's x strings, in index order."""
    xs = [BitString.from_index(2 * n, i).to_text() for i in range(alice.size)]
    return {f"message_{m}": [xs[i] for i in np.flatnonzero(alice == m)] for m in range(1 << c)}


def _bruteforce_one_bit(n: int) -> tuple[Fraction, np.ndarray]:
    """Exhaustive scan of the complement-closed one-bit Alice maps; returns (value, map).

    Columns x and 4^n - 1 - x of the gap are equal (x and its complement
    have the same Mx), and moving one of two equal columns between the
    classes changes the winning mass convexly, so some optimum keeps
    them together.  Message 0 keeps {0, 4^n - 1}, as swapping messages
    changes nothing; map j sends x = 4^n/2 + i and its complement to bit
    i of j.  That orders the maps as their full bits do, so the first
    argmax is the first optimal complement-closed map in that order.
    """
    table, scale = _gap_table(n)
    images = np.array([matching_image_table(PerfectMatching(e)) for e in enumerate_matchings(2 * n)])
    gap = table[:, images].reshape(-1, images.shape[1])  # column x: :func:`_gap_table` at Mx
    denom = 2 * images.size * scale
    half = gap.shape[1] // 2
    twice = _one_bit_twice_winning_mass(2 * gap[:, half:-1], denom)
    best = int(np.argmax(twice))
    upper = np.append((best >> np.arange(half - 1)) & 1, 0)  # x = half .. 4^n - 1
    return Fraction(int(twice[best]), 2 * denom), np.concatenate([upper[::-1], upper])


def _one_bit_twice_winning_mass(columns: np.ndarray, denom: int) -> np.ndarray:
    """Twice the best Bob's winning mass of every one-bit map j, as int64.

    Map j sends the gap ``columns`` (:func:`_bruteforce_one_bit`) at its set
    bits to message 1 and every other column to message 0.  The gap's rows
    sum to 0, so twice a map's winning mass is denom + 2 sum |gap_1|, and
    the class-1 gaps of all maps are the subset sums of ``columns``.
    """
    gap1 = np.zeros((columns.shape[0], 1 << columns.shape[1]), dtype=np.int64)
    for i in range(columns.shape[1]):
        width = 1 << i
        np.add(gap1[:, :width], columns[:, i, None], out=gap1[:, width : 2 * width])
    np.abs(gap1, out=gap1)  # in place: a fresh table of this size costs page faults
    return denom + 2 * gap1.sum(axis=0)
