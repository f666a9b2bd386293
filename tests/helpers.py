"""Shared independent oracles for the test suite.

Everything here is deliberately written from first principles (explicit
matrices, sign matrices, direct sums) so the package code is checked
against a second route, not against itself.
"""

from __future__ import annotations

from fractions import Fraction
import math

import numpy as np

from bhm.core import BitString, PerfectMatching


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
