"""Shared independent oracles for the test suite.

Everything here is deliberately written from first principles (explicit
matrices, sign matrices, direct sums) so the package code is checked
against a second route, not against itself.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
import math
from typing import Iterator

import numpy as np

from bhm.classical import _known_edge_count, _known_edge_law
from bhm.combinatorics import enumerate_matchings
from bhm.core import BitString, PerfectMatching
from bhm.fourier import CubeFunction, _index_bits, matching_image_table
from bhm.instances import BhmInstance, _noise_weights, _sample_promise_arrays, sample_T
from bhm.quantum import majority_success
from bhm.seeding import substream
from bhm.verify import CheckResult


def gf2_matrix_product(matching: PerfectMatching, x: BitString) -> np.ndarray:
    """Edge parities via an explicitly built 0/1 matrix over GF(2)."""
    mat = np.zeros((matching.n, matching.size), dtype=np.int64)
    for i, (k, l) in enumerate(matching.edges):
        mat[i, k - 1] = 1
        mat[i, l - 1] = 1
    return (mat @ np.array(x.bits)) % 2


def disagreement_count(inst: BhmInstance) -> int:
    """d of a whole instance: the edges where w differs from the GF(2) matrix product."""
    return int(np.count_nonzero(gf2_matrix_product(inst.matching, inst.x) != inst.w.bits))


def sample_promise_instance(n: int, rng: np.random.Generator) -> BhmInstance:
    """A whole promise instance, built from the accepted draw of ``_sample_promise_arrays``."""
    x, pairs, w, b, _ = _sample_promise_arrays(n, rng)
    return BhmInstance(
        x=BitString(x), matching=PerfectMatching(pairs + 1), w=BitString(w), source=b
    )


def sorted_pairs_oracle(pairs) -> np.ndarray:
    """A matching's canonical 0-based pairs by three sorts, with its constructor's checks.

    Sorts each row, orders the rows by an argsort of the first column and
    requires the whole array, sorted, to be 1..2n.  Raises the
    ``ValueError`` messages of ``PerfectMatching``, which must equal it
    array for array and message for message; ``sample_matching`` must
    equal it on ``permutation(2n)`` read as n rows, plus one.
    """
    pairs = np.asarray(pairs)
    if pairs.ndim != 2 or pairs.shape[0] == 0 or pairs.shape[1] != 2:
        raise ValueError("edges must be a nonempty sequence of pairs")
    if pairs.dtype.kind not in "iu":
        raise ValueError("edge endpoints must be integers")
    pairs = np.sort(pairs, axis=1).astype(np.int64, copy=False)
    pairs = pairs[np.argsort(pairs[:, 0])]
    if not np.array_equal(np.sort(pairs, axis=None), np.arange(1, pairs.size + 1)):
        raise ValueError("edges must cover {1..2n} exactly once")
    return pairs - 1


def matching_text_oracle(matching: PerfectMatching) -> str:
    """'k1-l1,k2-l2,...' by one ``%d-%d`` format per edge over the canonical 1-based pairs."""
    return ",".join(["%d-%d"] * matching.n) % tuple((matching.pairs_array() + 1).ravel().tolist())


def enumerate_matchings_oracle(t: int) -> list[tuple[tuple[int, int], ...]]:
    """All perfect matchings on {1..t} by a fresh generator chain for every tail.

    The first point is paired with each later point in turn, followed by
    every matching of the rest; ``enumerate_matchings`` must equal this
    list entry for entry and in order.
    """

    def rec(items: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
        if not items:
            yield ()
            return
        first, rest = items[0], items[1:]
        for i, partner in enumerate(rest):
            for tail in rec(rest[:i] + rest[i + 1 :]):
                yield ((first, partner),) + tail

    return list(rec(tuple(range(1, t + 1))))


def naive_walsh_coefficients(values: np.ndarray) -> np.ndarray:
    """O(4^m) double-loop transform with the 2^-m normalization."""
    size = len(values)
    ys = np.arange(size, dtype=np.uint64)
    out = np.empty(size)
    for s in range(size):
        signs = 1.0 - 2.0 * (np.bitwise_count(ys & np.uint64(s)).astype(np.int64) & 1)
        out[s] = signs @ values
    return out / size


def convolve_rowwise_oracle(f: CubeFunction, g: CubeFunction) -> np.ndarray:
    """XOR convolution one row at a time: row w is f at ``ys ^ w`` dotted with g."""
    size = 1 << f.m
    ys = np.arange(size)
    out = np.empty(size)
    for w in range(size):
        out[w] = f.values[ys ^ w] @ g.values
    return out


def stride_fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform by the in-place stride butterfly.

    Stage b replaces each pair (i, i + 2^b), i with bit b clear, by its
    sum and difference; the fast transform must match it byte for byte.
    """
    out = values.astype(np.float64).copy()
    h = 1
    while h < out.size:
        pairs = out.reshape(-1, 2, h)
        top = pairs[:, 0, :].copy()
        pairs[:, 0, :] = top + pairs[:, 1, :]
        pairs[:, 1, :] = top - pairs[:, 1, :]
        h *= 2
    return out


def gamma_monte_carlo_oracle(z: BitString, trials: int, rng: np.random.Generator) -> int:
    """Uniform matchings, one ``permutation`` call each, that match z's support internally."""
    mask = np.array(z.bits, dtype=bool)
    hits = 0
    for _ in range(trials):
        inside = mask[rng.permutation(z.length)]
        hits += bool(np.array_equal(inside[0::2], inside[1::2]))
    return hits


def promise_rates_oracle(seed: int, trials: int) -> CheckResult:
    """The promise-rate check on whole instances: ``sample_T`` and ``disagreement_count`` per trial."""
    worst_z = 0.0
    rates = []
    for i, n in enumerate((50, 100)):
        exact = float(promise_outside_oracle(n))
        outside = sum(
            not _in_promise(n, disagreement_count(sample_T(n, substream(seed, 12, i, t))))
            for t in range(trials)
        )
        rate = outside / trials
        rates.append(rate)
        sigma = math.sqrt(max(exact * (1 - exact), 1e-12) / trials)
        worst_z = max(worst_z, abs(rate - exact) / sigma)
    decreasing = all(a > b for a, b in zip(rates, rates[1:]))
    return CheckResult(
        "promise_rates",
        worst_z <= 4.0 and decreasing,
        max_gap=worst_z,
        details={"unit": "z", "rates": rates},
    )


def binomial_tail_at_least(r: int, k: int, p: Fraction) -> Fraction:
    """P[Binomial(r, p) >= k], exact."""
    q = 1 - p
    return sum(math.comb(r, j) * p**j * q ** (r - j) for j in range(k, r + 1))


def expected_internal_edges(n: int, c: int) -> Fraction:
    """Mean number of matching edges inside a fixed c-subset of {1..2n}.

    Each of the c(c-1)/2 pairs of subset points is an edge of a uniform
    matching with probability 1/(2n-1).
    """
    return Fraction(c * (c - 1), 2 * (2 * n - 1))


def chi_square_statistic(counts: np.ndarray, expected: np.ndarray) -> float:
    return float(np.sum((counts - expected) ** 2 / expected))


#: The one z-band for Monte-Carlo frequencies checked against exact values.
MC_Z_BOUND = 4.0


def z_score(p_hat: float, p: Fraction | float, trials: int) -> float:
    """|p_hat - p| in units of the binomial standard error at the exact p."""
    p = float(p)
    return abs(p_hat - p) / math.sqrt(p * (1.0 - p) / trials)


def mixture_cells(n: int) -> list[tuple[BhmInstance, Fraction, int]]:
    """Every (x, matching, w, source) of the generating mixture, with its probability.

    Returns (instance, probability, d) triples: x and the matching are
    uniform, the source is a fair bit, and each w bit is the edge parity
    xor a noise bit that equals the source with probability 3/4.  d counts
    the positions where w differs from the edge parities.
    """
    matchings = [PerfectMatching(pairs) for pairs in enumerate_matchings(2 * n)]
    xs = [BitString.from_index(2 * n, i) for i in range(1 << (2 * n))]
    ws = [BitString.from_index(n, i) for i in range(1 << n)]
    base = Fraction(1, 2 * len(xs) * len(matchings))
    cells = []
    for matching in matchings:
        for x in xs:
            parities = gf2_matrix_product(matching, x)
            for w in ws:
                noise = parities ^ np.array(w.bits, dtype=np.int64)
                d = int(noise.sum())
                for source in (0, 1):
                    agree = int(np.count_nonzero(noise == source))
                    prob = base * Fraction(3, 4) ** agree * Fraction(1, 4) ** (n - agree)
                    inst = BhmInstance(x=x, matching=matching, w=w, source=source)
                    cells.append((inst, prob, d))
    return cells


def mixture_average(cells, value, promise: bool) -> Fraction:
    """Exact average of value(instance) over mixture cells, inside the promise if asked.

    The promise holds when 3d <= n or 3d >= 2n.
    """
    total = mass = Fraction(0)
    for inst, prob, d in cells:
        if promise and inst.n < 3 * d < 2 * inst.n:
            continue
        total += prob * value(inst)
        mass += prob
    return total / mass


def bayes_oracle(cells, alice) -> Fraction:
    """Success of the best Bob against the Alice map alice(x), over mixture cells.

    Bob sees (message, matching, w).  On each such observation he guesses
    the source with the larger mass, so his success is the sum over
    observations of the larger of the two source masses.
    """
    mass: dict[tuple, list[Fraction]] = defaultdict(lambda: [Fraction(0), Fraction(0)])
    for inst, prob, _ in cells:
        mass[alice(inst.x), inst.matching, inst.w][inst.source] += prob
    return sum(max(pair) for pair in mass.values())


def joint_mass_oracle(n: int) -> np.ndarray:
    """The mixture's joint mass over (x, matching, source, w), scaled to integers.

    mass[x, matching, b, w] = q^n mu_b(w xor Mx) in int64, q^n the scale of
    ``instances._noise_weights`` and matchings in ``enumerate_matchings``
    order; the mixture probability of a cell is mass / mass.sum().  mu_0
    is the full-index gather of the noise weights by popcount, and mu_1
    is mu_0 at the complemented pattern.
    """
    weights, _ = _noise_weights(n)
    mu0 = np.array(weights, dtype=np.int64)[np.bitwise_count(np.arange(1 << n))]
    mu = np.stack([mu0, mu0[::-1]])
    images = np.stack(
        [matching_image_table(PerfectMatching(p)) for p in enumerate_matchings(2 * n)],
        axis=1,
    )
    noise = images[:, :, None] ^ np.arange(1 << n)  # [x, matching, w]
    return np.moveaxis(mu[:, noise], 0, 2)


def gap_matrix_oracle(n: int) -> tuple[np.ndarray, int]:
    """The mixture's source gap as one (matching·w) × 4^n matrix; an oracle only.

    Returns (gap, denom): gap[(matching, w), x] = q^n (mu_0 - mu_1)(w xor Mx)
    in int64, rows matching major in ``enumerate_matchings`` order, and
    denom the whole integer mass 2 (2n-1)!! 4^n q^n.  It repeats one
    2^n × 2^n table once per matching and w; ``classical.bayes_success``
    reads that table through per-matching histograms instead, and is held
    equal to ``gap @ classes.T`` here.
    """
    weights, scale = _noise_weights(n)
    by_weight = np.array(weights, dtype=np.int64)
    table = (by_weight - by_weight[::-1])[np.bitwise_count(np.arange(1 << n))]
    images = np.stack(
        [matching_image_table(PerfectMatching(p)) for p in enumerate_matchings(2 * n)]
    )  # [matching, x]
    gap = table[images[:, None, :] ^ np.arange(1 << n)[:, None]]  # [matching, w, x]
    return gap.reshape(-1, images.shape[1]), 2 * images.size * scale


def gap_product_oracle(alice: np.ndarray, n: int) -> Fraction:
    """Bayes success of an Alice map as one product of the gap matrix with one-hot classes."""
    gap, denom = gap_matrix_oracle(n)
    classes = (alice == np.unique(alice)[:, None]).astype(np.int64)
    return Fraction(denom + int(np.abs(gap @ classes.T).sum()), 2 * denom)


def winning_mass_oracle(joint: np.ndarray) -> np.ndarray:
    """The best Bob's winning mass, one total per message class.

    ``joint[..., matching, b, w]`` is the joint mass of one message class.
    On each (matching, w) Bob guesses the source with the larger mass; the
    result sums those larger masses over (matching, w).
    """
    return np.maximum(joint[..., 0, :], joint[..., 1, :]).sum(axis=(-2, -1))


def bruteforce_one_bit_oracle(n: int) -> np.ndarray:
    """Winning mass of every one-bit Alice map, by an integer tensordot per class.

    Entry j is the map with bits 2j, as in ``classical._bruteforce_one_bit``:
    the 0/1 row of each map picks the x of message class 1 out of the
    joint mass, class 0 is the rest, and ``winning_mass_oracle`` scores both.
    """
    mass = joint_mass_oracle(n)
    num_x = mass.shape[0]
    maps = np.arange(0, 1 << num_x, 2, dtype=np.int64)
    mass1 = np.tensordot(_index_bits(maps, num_x), mass, axes=1)
    mass0 = mass.sum(axis=0) - mass1
    return winning_mass_oracle(mass0) + winning_mass_oracle(mass1)


def _in_promise(n: int, d: int) -> bool:
    return 3 * d <= n or 3 * d >= 2 * n


def _binomial_count_law(n: int, b: int) -> dict[int, Fraction]:
    """Binomial(n, 1/4) for b = 0 and Binomial(n, 3/4) for b = 1, one Fraction per d."""
    p = Fraction(3, 4) if b else Fraction(1, 4)
    return {d: math.comb(n, d) * p**d * (1 - p) ** (n - d) for d in range(n + 1)}


def promise_outside_oracle(n: int) -> Fraction:
    """Mass of the counts outside the promise, summed one Fraction at a time."""
    return sum(p for d, p in _binomial_count_law(n, 0).items() if not _in_promise(n, d))


def quantum_promise_success_oracle(n: int, r: int) -> Fraction:
    """Success of the r-shot vote on promise instances, in one integer ratio.

    Under source 0, d has weight C(n, d) 3^(n-d) out of 4^n and one shot is
    right with chance (n - d)/n; source 1 mirrors it at d -> n - d.
    """
    kept = [d for d in range(n + 1) if _in_promise(n, d)]
    weight = {d: math.comb(n, d) * 3 ** (n - d) for d in kept}
    wins = sum(
        weight[d]
        * sum(math.comb(r, j) * (n - d) ** j * d ** (r - j) for j in range((r + 1) // 2, r + 1))
        for d in kept
    )
    return Fraction(wins, sum(weight.values()) * n**r)


def mixture_two_source_oracle(n: int, r: int, promise: bool) -> Fraction:
    """Success of the r-shot vote over the mixture, summed over both source bits.

    Under source b the count law is Binomial(n, 1/4) or Binomial(n, 3/4),
    renormalised inside the promise with ``promise``, and one shot is
    right with chance (n - d)/n for b = 0 and d/n for b = 1; one Fraction
    per term.
    """
    total = Fraction(0)
    for b in (0, 1):
        law = {
            d: p for d, p in _binomial_count_law(n, b).items() if not promise or _in_promise(n, d)
        }
        mass = sum(law.values())
        for d, p_d in law.items():
            right = Fraction(d if b else n - d, n)
            total += p_d / (2 * mass) * majority_success(right, r)
    return total


def subset_promise_success_oracle(n: int, c: int) -> Fraction:
    """Success of the subset vote with c known positions on promise instances.

    Sums over the source bit, the renormalised count law inside the
    promise, the known-edge count k and the j disagreeing known edges,
    Hypergeometric(n, d, k), one Fraction per term.
    """
    edge_law = _known_edge_law(n, c)
    total = Fraction(0)
    for b in (0, 1):
        law = {d: p for d, p in _binomial_count_law(n, b).items() if _in_promise(n, d)}
        mass = sum(law.values())
        for d, p_d in law.items():
            for k, p_k in enumerate(edge_law):
                # twice the winning chance: guess 1 iff 2j > k, a tie is a fair coin
                wins2 = sum(
                    math.comb(d, j)
                    * math.comb(n - d, k - j)
                    * (1 if 2 * j == k else 2 * ((2 * j > k) == b))
                    for j in range(k + 1)
                )
                total += p_d / mass * p_k * Fraction(wins2, 4 * math.comb(n, k))
    return total


def _source_and_count_oracle(
    n: int, rng: np.random.Generator, promise: bool
) -> tuple[int, int]:
    """A mixture draw's source bit and disagreement count on numpy's own calls."""
    while True:
        b = int(rng.integers(0, 2))
        d = int(rng.binomial(n, 0.75 if b else 0.25))
        if not promise or _in_promise(n, d):
            return b, d


def quantum_trial_oracle(
    n: int, r: int, rng: np.random.Generator, promise: bool
) -> tuple[int, int]:
    """One r-shot vote trial of the sweep on numpy's own calls: (source bit, guess).

    The sweep's ``seeding.HalfWords`` kernels must reproduce it trial by
    trial.
    """
    b, d = _source_and_count_oracle(n, rng, promise)
    ones = int((rng.integers(0, n, size=r) < d).sum())
    return b, int(2 * ones > r)


def subset_trial_oracle(
    n: int, c: int, rng: np.random.Generator, promise: bool
) -> tuple[int, bool]:
    """One subset-protocol trial on numpy's own calls: (known edges K, guess correct).

    ``classical.subset_trial_outcomes`` must reproduce it trial by trial
    on its ``seeding.HalfWords`` reader.
    """
    b, d = _source_and_count_oracle(n, rng, promise)
    k = _known_edge_count(n, c, rng.random(c).tolist())
    agree = k - int(rng.hypergeometric(d, n - d, k))
    if 2 * agree > k:
        guess = 0
    elif 2 * agree < k:
        guess = 1
    else:
        guess = int(rng.integers(2))
    return k, guess == b
