"""Fourier analysis on the Boolean cube, with fixed conventions.

Conventions, chosen once here and load-bearing for every identity:

  - tables index {0,1}^m by integers; bit i-1 of the index is position i,
  - characters are chi_s(y) = (-1)^<y,s> with <.,.> the GF(2) inner product,
  - coefficients carry the 2^-m factor: fhat(s) = 2^-m sum_y f(y) chi_s(y),
  - norms are plain sums (no normalization), so Parseval reads
    ||f||_2^2 = 2^m sum_s fhat(s)^2,
  - convolution is (f*g)(w) = sum_y f(y xor w) g(y), diagonalized as
    conv_hat(s) = 2^m fhat(s) ghat(s).

Most textbook conventions differ in where the 2^m factors sit, which is
why the checks in this module verify the factors explicitly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from .core import PerfectMatching
from .errors import BudgetExceeded, DimensionMismatch
from .instances import NOISE_BIAS, _noise_weights

#: Largest cube dimension for which 2^m tables are built.
DEFAULT_MAX_DIM = 20

#: Largest cube dimension for the direct O(4^m) convolution oracle.
CONVOLVE_MAX_DIM = 12

#: Rows of the direct convolution gathered at once; at the cap the block's
#: indices and values take 2 MB each.
_CONVOLVE_BLOCK = 64

#: Low index bits :func:`_fwht` transforms one block at a time: a block of
#: 2^15 float64 entries is 256 KB, so it and its scratch buffer stay in L2.
_FWHT_BLOCK_BITS = 15

#: Largest 2n for which :func:`_lift_identity_gap` builds its 2^2n table.
_LIFT_MAX_DIM = 12


def _check_finite(table: np.ndarray) -> None:
    if not np.all(np.isfinite(table)):
        raise ValueError("table values must be finite")


def _as_table(values: np.ndarray | Iterable[float], m: int, noun: str) -> np.ndarray:
    """Read-only float64 copy of a table of 2^m finite ``noun`` on {0,1}^m."""
    table = np.asarray(values, dtype=np.float64).copy()
    if table.ndim != 1 or table.size == 0 or table.size & (table.size - 1):
        raise ValueError("table length must be a power of two")
    _check_finite(table)
    if table.size != 1 << m:
        raise DimensionMismatch(f"dimension {m} needs {1 << m} {noun}, got {table.size}")
    table.setflags(write=False)
    return table


def _adopt_table(cls: type, m: int, noun: str, table: np.ndarray) -> Any:
    """A ``cls`` holding a table the package has just built, with no copy.

    ``table`` must already be a 1-D float64 array of 2^m entries that no
    caller still holds.  Only its finiteness is checked, so an overflowing
    transform is still refused; it is made read-only.  Input from outside
    the package goes through the constructor.
    """
    _check_finite(table)
    table.setflags(write=False)
    self = object.__new__(cls)
    object.__setattr__(self, "m", m)
    object.__setattr__(self, noun, table)
    return self


@dataclass(frozen=True, eq=False)
class CubeFunction:
    """Real-valued table on {0,1}^m."""

    m: int
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _as_table(self.values, self.m, "values"))

    @classmethod
    def _adopt(cls, m: int, values: np.ndarray) -> CubeFunction:
        return _adopt_table(cls, m, "values", values)


@dataclass(frozen=True, eq=False)
class FourierSpectrum:
    """Coefficient table fhat(s) for all s in {0,1}^m."""

    m: int
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        table = _as_table(self.coefficients, self.m, "coefficients")
        object.__setattr__(self, "coefficients", table)

    @classmethod
    def _adopt(cls, m: int, coefficients: np.ndarray) -> FourierSpectrum:
        return _adopt_table(cls, m, "coefficients", coefficients)


def _butterflies(src: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """Constant-geometry stages over every index bit of ``src``, ending in ``out``.

    Every stage adds and subtracts the adjacent pairs (2j, 2j+1) into the
    two halves of the other buffer.  That rotates the index right by one
    bit, so stage b pairs the entries that differ in bit b, and after all
    stages the order is natural again.  ``out`` and ``scratch`` alternate
    so that the last stage writes ``out``; ``src`` is only read.
    """
    half = src.size >> 1
    stages = src.size.bit_length() - 1
    for stage in range(stages):
        dst = out if (stages - stage) % 2 else scratch
        np.add(src[0::2], src[1::2], out=dst[:half])
        np.subtract(src[0::2], src[1::2], out=dst[half:])
        src = dst


def _fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform, O(m 2^m), into a fresh float64 array.

    A table of at most one block, 2^:data:`_FWHT_BLOCK_BITS` entries, runs
    :func:`_butterflies` in the output and one scratch buffer of its size.
    A larger table goes block by block: the stages over the low
    :data:`_FWHT_BLOCK_BITS` index bits pair entries inside one aligned
    block only, so each block runs them in its slice of the output and a
    block-sized scratch buffer, both in cache.  Each stage b over the high
    bits then replaces the pair (i, i + 2^b) by its sum and difference in
    place, one block-wide chunk at a time.  Every coefficient comes from
    the same operands, in the same order, as in the in-place stride
    butterfly, so the result is bit for bit the same.  ``values`` is only
    read.
    """
    src = np.asarray(values, dtype=np.float64)
    size = src.size
    if size == 1:
        return src.copy()
    block = min(size, 1 << _FWHT_BLOCK_BITS)
    out = np.empty(size)
    scratch = np.empty(block)
    for start in range(0, size, block):
        _butterflies(src[start : start + block], out[start : start + block], scratch)
    stride = block
    while stride < size:
        for row in out.reshape(-1, 2, stride // block, block):
            for top, bottom in zip(row[0], row[1]):
                np.subtract(top, bottom, out=scratch)
                np.add(top, bottom, out=top)
                bottom[...] = scratch
        stride <<= 1
    return out


def _popcounts(size: int) -> np.ndarray:
    return np.bitwise_count(np.arange(size, dtype=np.uint64)).astype(np.int64)


def _weight_table(by_weight: np.ndarray, m: int) -> np.ndarray:
    """A fresh 2^m array whose entry i is ``by_weight[popcount(i)]``.

    The index splits as i = h * 2^low + l with low = m // 2, and popcount(i)
    is popcount(h) + popcount(l).  ``rows[w]`` is the 2^low entries of weight
    offset w, so the table is whole rows of that small matrix gathered by
    popcount(h): no index array of 2^m entries is built.
    """
    low = m // 2
    rows = by_weight[np.arange(m - low + 1)[:, None] + _popcounts(1 << low)]
    return rows[_popcounts(1 << (m - low))].reshape(-1)


def _index_bits(indices: np.ndarray, length: int) -> np.ndarray:
    """int64 rows of the 0/1 bits of cube-table indices; column i holds bit 2**i."""
    return (indices[:, None] >> np.arange(length)) & 1


def transform(f: CubeFunction) -> FourierSpectrum:
    """Fourier coefficients of f under the 2^-m normalization."""
    if f.m > DEFAULT_MAX_DIM:
        raise BudgetExceeded(f"transform at m={f.m} exceeds cap {DEFAULT_MAX_DIM}")
    coefficients = _fwht(f.values)
    coefficients /= 1 << f.m  # a power of two: the same bits as a fresh quotient
    return FourierSpectrum._adopt(f.m, coefficients)


def inverse_transform(spectrum: FourierSpectrum) -> CubeFunction:
    """Rebuild the table: f(y) = sum_s fhat(s) chi_s(y)."""
    return CubeFunction._adopt(spectrum.m, _fwht(spectrum.coefficients))


@functools.lru_cache(maxsize=1)
def _convolve_offsets(m: int) -> np.ndarray:
    """The offsets ``ys[:64, None] ^ ys`` of :func:`convolve` on {0,1}^m; row 0 is ys."""
    # shared and never written, yet writeable: np.take copies a read-only index array
    return np.arange(min(_CONVOLVE_BLOCK, 1 << m))[:, None] ^ np.arange(1 << m)


def convolve(f: CubeFunction, g: CubeFunction) -> CubeFunction:
    """XOR convolution by the defining double sum: the O(4^m) oracle route.

    Row w is the dot of f at ``ys ^ w`` with g; the rows are computed
    :data:`_CONVOLVE_BLOCK` at a time, each block gathered into one buffer
    that the whole call reuses.
    """
    if f.m != g.m:
        raise DimensionMismatch(f"convolution of dimensions {f.m} and {g.m}")
    if f.m > CONVOLVE_MAX_DIM:
        raise BudgetExceeded(f"direct convolution at m={f.m} exceeds cap {CONVOLVE_MAX_DIM}")
    offsets = _convolve_offsets(f.m)
    rows, size = offsets.shape
    # start is a multiple of rows, so row start + i is f at start ^ i ^ ys:
    # f at ys ^ start, taken at the offsets i ^ ys
    block = np.empty((rows, size))
    out = np.empty(size)
    for start in range(0, size, rows):
        # in-range indices: "clip" gathers straight into block, where
        # "raise" would buffer a copy of it
        np.take(f.values[offsets[0] ^ start], offsets, out=block, mode="clip")
        # one dot per row, the same ddot as a lone row @ g; a matrix-vector
        # product would sum in another order and change the bits
        np.vecdot(block, g.values, out=out[start : start + rows])
    return CubeFunction(m=f.m, values=out)


def convolve_spectral(f: CubeFunction, g: CubeFunction) -> CubeFunction:
    """XOR convolution through the spectral route; the diagonalization factor is 2^m."""
    if f.m != g.m:
        raise DimensionMismatch(f"convolution of dimensions {f.m} and {g.m}")
    product = (1 << f.m) * transform(f).coefficients * transform(g).coefficients
    return inverse_transform(FourierSpectrum(m=f.m, coefficients=product))


def check_parseval(f: CubeFunction) -> tuple[float, float, float]:
    """Return (||f||_2^2, 2^m sum fhat^2, absolute gap)."""
    lhs = float(np.sum(f.values**2))
    rhs = float((1 << f.m) * np.sum(transform(f).coefficients ** 2))
    return lhs, rhs, abs(lhs - rhs)


def check_l1_l2(f: CubeFunction) -> bool:
    """Cauchy-Schwarz relation ||f||_2^2 >= ||f||_1^2 / 2^m."""
    l2sq = float(np.sum(f.values**2))
    l1 = float(np.sum(np.abs(f.values)))
    return l2sq >= l1 * l1 / (1 << f.m) - 1e-12


def check_kkl(f: CubeFunction, delta: float) -> tuple[float, float, bool]:
    """Weighted spectral mass bound for {-1,0,1}-valued functions.

    Returns (sum_s delta^h(s) fhat(s)^2, t^(2/(1+delta)), holds) where t
    is the fraction of points with f != 0.  delta^0 is 1, also at
    delta = 0.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta}")
    vals = f.values
    if not np.all((vals == 0.0) | (vals == 1.0) | (vals == -1.0)):
        raise ValueError("function must take values in {-1, 0, 1}")
    size = 1 << f.m
    t = float(np.count_nonzero(vals)) / size
    weights = _weight_table(float(delta) ** np.arange(f.m + 1), f.m)  # 0.0**0 == 1.0 as required
    lhs = float(weights @ (transform(f).coefficients ** 2))
    rhs = float(t ** (2.0 / (1.0 + delta)))
    return lhs, rhs, lhs <= rhs + 1e-12


def _check_table_dim(m: int) -> None:
    """Refuse a 2^m table above :data:`DEFAULT_MAX_DIM` before anything is allocated."""
    if m > DEFAULT_MAX_DIM:
        raise BudgetExceeded(f"table on {{0,1}}^{m} exceeds cap {DEFAULT_MAX_DIM}")


def mu_difference(n: int) -> CubeFunction:
    """Table of mu_0(y) - mu_1(y), the signed gap of the two biased products.

    Both densities depend on y only through its weight, so the n + 1
    values are computed once and spread by :func:`_weight_table`.
    """
    if n < 1:
        raise ValueError("n must be positive")
    _check_table_dim(n)
    weights, scale = _noise_weights(n)
    # exact at bias 3/4: under the cap every weight is at most 3^20 < 2^53,
    # and the scale 4^n is a power of two
    mu0 = np.array(weights, dtype=np.float64) / scale
    by_weight = mu0 - mu0[::-1]  # mu_1 is mu_0 of the complement, of weight n - k
    return CubeFunction._adopt(n, _weight_table(by_weight, n))


def closed_form_spectrum_table(n: int) -> np.ndarray:
    """Coefficients of mu_0 - mu_1 over all 2^n characters s.

    The coefficient at s is 2 (2p - 1)^k / 2^n, p = NOISE_BIAS, when the
    weight k of s is odd, else 0; it is computed once per weight and
    spread by :func:`_weight_table`.
    """
    if n < 1:
        raise ValueError("n must be positive")
    _check_table_dim(n)
    ks = np.arange(n + 1)
    by_weight = np.where(ks % 2 == 1, 2.0 * float(2 * NOISE_BIAS - 1) ** ks / 2.0**n, 0.0)
    return _weight_table(by_weight, n)


def matching_image_table(matching: PerfectMatching) -> np.ndarray:
    """Map every x-index on {0,1}^2n to the index of its edge-parity image."""
    _check_table_dim(matching.size)
    size = 1 << matching.size
    xs = np.arange(size, dtype=np.int64)
    out = np.zeros(size, dtype=np.int64)
    for i, (k, l) in enumerate(matching.pairs_array()):
        parity = ((xs >> k) ^ (xs >> l)) & 1
        out |= parity << i
    return out


def lift_index_table(matching: PerfectMatching) -> np.ndarray:
    """Map every character index s on {0,1}^n to its lifted index on {0,1}^2n.

    Capped like :func:`matching_image_table`, whose 2^2n indices it addresses.
    """
    _check_table_dim(matching.size)
    masks = (1 << matching.pairs_array()).sum(axis=1)
    # edge masks are disjoint, so sum == bitwise or
    return _index_bits(np.arange(1 << matching.n), matching.n) @ masks


def _lift_identity_gap(indices: np.ndarray, matching: PerfectMatching) -> float:
    """Max gap of ghat(lift(s)) = 2^-n gMhat(s) over all s, for A given by its indices.

    g is 1/|A| on each index of A inside {0,1}^2n, and gM, the
    distribution of the edge parities of a uniform x in A, is the
    histogram of their images over |A|.  The cap is checked before any
    2^2n table is built.
    """
    if matching.size > _LIFT_MAX_DIM:
        raise BudgetExceeded(f"lift check at 2n={matching.size} exceeds cap {_LIFT_MAX_DIM}")
    g = np.zeros(1 << matching.size)
    g[indices] = 1.0 / indices.size
    images = matching_image_table(matching)[indices]
    gm = np.bincount(images, minlength=1 << matching.n) / indices.size
    g_hat = transform(CubeFunction(m=matching.size, values=g))
    gm_hat = transform(CubeFunction(m=matching.n, values=gm))
    lifted = lift_index_table(matching)
    gaps = np.abs(g_hat.coefficients[lifted] - gm_hat.coefficients / (1 << matching.n))
    return float(np.max(gaps))
