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

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import BitString, PerfectMatching
from .errors import BudgetExceeded, DimensionMismatch
from .instances import NOISE_BIAS

#: Largest cube dimension for which 2^m tables are built by default.
DEFAULT_MAX_DIM = 20

#: Largest cube dimension for the direct O(4^m) convolution oracle.
CONVOLVE_MAX_DIM = 12


def _as_table(values: np.ndarray | Iterable[float]) -> np.ndarray:
    table = np.asarray(values, dtype=np.float64).copy()
    if table.ndim != 1 or table.size == 0 or table.size & (table.size - 1):
        raise ValueError("table length must be a power of two")
    if not np.all(np.isfinite(table)):
        raise ValueError("table values must be finite")
    table.setflags(write=False)
    return table


@dataclass(frozen=True, eq=False)
class CubeFunction:
    """Real-valued table on {0,1}^m."""

    m: int
    values: np.ndarray

    def __post_init__(self) -> None:
        table = _as_table(self.values)
        if table.size != 1 << self.m:
            raise DimensionMismatch(
                f"dimension {self.m} needs {1 << self.m} values, got {table.size}"
            )
        object.__setattr__(self, "values", table)

    @classmethod
    def from_values(cls, values: np.ndarray | Iterable[float]) -> CubeFunction:
        table = _as_table(values)
        return cls(m=int(table.size.bit_length() - 1), values=table)

    @classmethod
    def point_mass(cls, m: int, at: BitString | int, value: float = 1.0) -> CubeFunction:
        idx = at.to_index() if isinstance(at, BitString) else int(at)
        table = np.zeros(1 << m)
        table[idx] = value
        return cls(m=m, values=table)

    def value_at(self, y: BitString) -> float:
        if y.length != self.m:
            raise DimensionMismatch(f"point of length {y.length} on a {self.m}-cube")
        return float(self.values[y.to_index()])


@dataclass(frozen=True, eq=False)
class FourierSpectrum:
    """Coefficient table fhat(s) for all s in {0,1}^m."""

    m: int
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        table = _as_table(self.coefficients)
        if table.size != 1 << self.m:
            raise DimensionMismatch(
                f"dimension {self.m} needs {1 << self.m} coefficients, got {table.size}"
            )
        object.__setattr__(self, "coefficients", table)


def _fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform, O(m 2^m) butterfly."""
    out = values.astype(np.float64).copy()
    h = 1
    while h < out.size:
        pairs = out.reshape(-1, 2, h)
        top = pairs[:, 0, :].copy()
        pairs[:, 0, :] = top + pairs[:, 1, :]
        pairs[:, 1, :] = top - pairs[:, 1, :]
        h *= 2
    return out


def _popcounts(size: int) -> np.ndarray:
    return np.bitwise_count(np.arange(size, dtype=np.uint64)).astype(np.int64)


def transform(f: CubeFunction, max_dim: int = DEFAULT_MAX_DIM) -> FourierSpectrum:
    """Fourier coefficients of f under the 2^-m normalization."""
    if f.m > max_dim:
        raise BudgetExceeded(f"transform at m={f.m} exceeds cap {max_dim}")
    return FourierSpectrum(m=f.m, coefficients=_fwht(f.values) / (1 << f.m))


def inverse_transform(spectrum: FourierSpectrum) -> CubeFunction:
    """Rebuild the table: f(y) = sum_s fhat(s) chi_s(y)."""
    return CubeFunction(m=spectrum.m, values=_fwht(spectrum.coefficients))


def convolve(f: CubeFunction, g: CubeFunction) -> CubeFunction:
    """XOR convolution by the defining double sum: the O(4^m) oracle route."""
    if f.m != g.m:
        raise DimensionMismatch(f"convolution of dimensions {f.m} and {g.m}")
    if f.m > CONVOLVE_MAX_DIM:
        raise BudgetExceeded(f"direct convolution at m={f.m} exceeds cap {CONVOLVE_MAX_DIM}")
    size = 1 << f.m
    ys = np.arange(size)
    out = np.empty(size)
    for w in range(size):
        out[w] = f.values[ys ^ w] @ g.values
    return CubeFunction(m=f.m, values=out)


def convolve_spectral(
    f: CubeFunction, g: CubeFunction, scale: float | None = None
) -> CubeFunction:
    """XOR convolution through the spectral route.

    The diagonalization factor is 2^m; ``scale`` overrides it and exists
    only so the verification suite can prove it would catch a wrong
    normalization.
    """
    if f.m != g.m:
        raise DimensionMismatch(f"convolution of dimensions {f.m} and {g.m}")
    factor = float(1 << f.m) if scale is None else float(scale)
    product = factor * transform(f).coefficients * transform(g).coefficients
    return inverse_transform(FourierSpectrum(m=f.m, coefficients=product))


def check_parseval(f: CubeFunction) -> tuple[float, float, float]:
    """Return (||f||_2^2, 2^m sum fhat^2, absolute gap)."""
    lhs = float(np.sum(f.values**2))
    rhs = float((1 << f.m) * np.sum(transform(f).coefficients ** 2))
    return lhs, rhs, abs(lhs - rhs)


def check_l1_l2(f: CubeFunction, tol: float = 1e-12) -> bool:
    """Cauchy-Schwarz relation ||f||_2^2 >= ||f||_1^2 / 2^m."""
    l2sq = float(np.sum(f.values**2))
    l1 = float(np.sum(np.abs(f.values)))
    return l2sq >= l1 * l1 / (1 << f.m) - tol


def check_kkl(
    f: CubeFunction, delta: float, tol: float = 1e-12
) -> tuple[float, float, bool]:
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
    weights = float(delta) ** _popcounts(size)  # 0.0**0 == 1.0 as required
    lhs = float(weights @ (transform(f).coefficients ** 2))
    rhs = float(t ** (2.0 / (1.0 + delta)))
    return lhs, rhs, lhs <= rhs + tol


def mu_difference(n: int) -> CubeFunction:
    """Table of mu_0(y) - mu_1(y), the signed gap of the two biased products."""
    if n < 1:
        raise ValueError("n must be positive")
    p = float(NOISE_BIAS)
    ones = _popcounts(1 << n)
    mu0 = p ** (n - ones) * (1 - p) ** ones
    mu1 = p**ones * (1 - p) ** (n - ones)
    return CubeFunction(m=n, values=mu0 - mu1)


def f_spectrum_closed_form(n: int, s: BitString) -> float:
    """Coefficient of mu_0 - mu_1 at s: 2 / 2^(n+k) for odd weight k, else 0."""
    if s.length != n:
        raise DimensionMismatch(f"character of length {s.length} for n={n}")
    k = s.hamming_weight()
    return 2.0 / float(1 << (n + k)) if k % 2 == 1 else 0.0


def closed_form_spectrum_table(n: int) -> np.ndarray:
    """Vectorized :func:`f_spectrum_closed_form` over all 2^n characters."""
    ks = _popcounts(1 << n)
    return np.where(ks % 2 == 1, 2.0 / (2.0 ** (n + ks)), 0.0)


def matching_image_table(matching: PerfectMatching) -> np.ndarray:
    """Map every x-index on {0,1}^2n to the index of its edge-parity image."""
    size = 1 << matching.size
    xs = np.arange(size, dtype=np.int64)
    out = np.zeros(size, dtype=np.int64)
    for i, (k, l) in enumerate(matching.pairs_array()):
        parity = ((xs >> k) ^ (xs >> l)) & 1
        out |= parity << i
    return out


def lift_index_table(matching: PerfectMatching) -> np.ndarray:
    """Map every character index s on {0,1}^n to its lifted index on {0,1}^2n."""
    n = matching.n
    masks = (1 << matching.pairs_array()).sum(axis=1)
    ss = np.arange(1 << n, dtype=np.int64)
    bits = (ss[:, None] >> np.arange(n)) & 1
    return bits @ masks  # edge masks are disjoint, so sum == bitwise or


def gM_from_set(A: Iterable[BitString], matching: PerfectMatching) -> CubeFunction:
    """Distribution of the edge parities when x is uniform over A."""
    indices = []
    for x in A:
        if x.length != matching.size:
            raise DimensionMismatch(
                f"set element of length {x.length} for a matching on {matching.size}"
            )
        indices.append(x.to_index())
    if not indices:
        raise ValueError("A must be nonempty")
    image = matching_image_table(matching)
    counts = np.bincount(image[np.array(indices)], minlength=1 << matching.n)
    return CubeFunction(m=matching.n, values=counts / len(indices))


def check_lift_identity(
    A: Iterable[BitString], matching: PerfectMatching, max_dim: int = 12
) -> float:
    """Max gap of ghat(lift(s)) = 2^-n gMhat(s) over all s.

    g is the uniform density on A inside {0,1}^2n and gM its edge-parity
    image distribution.
    """
    elements = list(A)
    if not elements:
        raise ValueError("A must be nonempty")
    if matching.size > max_dim:
        raise BudgetExceeded(f"lift check at 2n={matching.size} exceeds cap {max_dim}")
    n = matching.n
    g = np.zeros(1 << matching.size)
    for x in elements:
        if x.length != matching.size:
            raise DimensionMismatch(
                f"set element of length {x.length} for a matching on {matching.size}"
            )
        g[x.to_index()] = 1.0 / len(elements)
    g_hat = transform(CubeFunction(m=matching.size, values=g), max_dim=max_dim)
    gm_hat = transform(gM_from_set(elements, matching))
    lifted = lift_index_table(matching)
    gaps = np.abs(g_hat.coefficients[lifted] - gm_hat.coefficients / (1 << n))
    return float(np.max(gaps))
