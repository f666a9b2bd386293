"""Shared independent oracles for the test suite.

Everything here is deliberately written from first principles (explicit
matrices, sign matrices, direct sums) so the package code is checked
against a second route, not against itself.
"""

from __future__ import annotations

from fractions import Fraction
import math

import numpy as np

from bhm.combinatorics import enumerate_matchings
from bhm.core import BitString, PerfectMatching
from bhm.instances import BhmInstance


def gf2_matrix_product(matching: PerfectMatching, x: BitString) -> np.ndarray:
    """Edge parities via an explicitly built 0/1 matrix over GF(2)."""
    mat = np.zeros((matching.n, matching.size), dtype=np.int64)
    for i, (k, l) in enumerate(matching.edges):
        mat[i, k - 1] = 1
        mat[i, l - 1] = 1
    return (mat @ np.array(x.bits)) % 2


def naive_walsh_coefficients(values: np.ndarray) -> np.ndarray:
    """O(4^m) double-loop transform with the 2^-m normalization."""
    size = len(values)
    ys = np.arange(size, dtype=np.uint64)
    out = np.empty(size)
    for s in range(size):
        signs = 1.0 - 2.0 * (np.bitwise_count(ys & np.uint64(s)).astype(np.int64) & 1)
        out[s] = signs @ values
    return out / size


def binomial_tail_at_least(r: int, k: int, p: Fraction) -> Fraction:
    """P[Binomial(r, p) >= k], exact."""
    q = 1 - p
    return sum(math.comb(r, j) * p**j * q ** (r - j) for j in range(k, r + 1))


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
