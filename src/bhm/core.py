"""Bitstring and perfect-matching primitives.

The public model is 1-based: bit i of a length-m string is addressed by
i in 1..m.  A perfect matching on {1..2n} is held as n disjoint pairs
(k, l) with k < l, sorted by k; row i of its 0/1 matrix is edge i, so
the matrix-vector product over GF(2) reduces to one parity per edge.

All types are immutable value types over read-only numpy arrays, with
structural equality, and can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch


@dataclass(frozen=True, eq=False)
class BitString:
    """Immutable fixed-length 0/1 sequence over a read-only uint8 array."""

    bits: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.bits)
        if values.ndim != 1 or values.size == 0 or not np.all((values == 0) | (values == 1)):
            raise ValueError("bitstring must be a nonempty 1-D sequence of 0s and 1s")
        bits = values.astype(np.uint8)  # always a copy, so the caller keeps no alias
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)

    @classmethod
    def zeros(cls, length: int) -> BitString:
        return cls(np.zeros(length, dtype=np.uint8))

    @classmethod
    def from_text(cls, text: str) -> BitString:
        """Parse a '0'/'1' string; position 1 is the leftmost character."""
        try:
            # bytes below '0' wrap around in uint8, so every character but '0'/'1' exceeds 1
            return cls(np.frombuffer(text.encode(), dtype=np.uint8) - ord("0"))
        except ValueError as exc:
            raise ValueError(f"not a bitstring: {text!r}") from exc

    @classmethod
    def from_array(cls, values: Sequence[int] | np.ndarray) -> BitString:
        return cls(values)

    @classmethod
    def from_index(cls, length: int, index: int) -> BitString:
        """Unpack a cube-table index; position i holds bit 2**(i-1)."""
        if not 0 <= index < (1 << length):
            raise ValueError(f"index {index} out of range for length {length}")
        packed = np.frombuffer(int(index).to_bytes((length + 7) // 8, "little"), dtype=np.uint8)
        return cls(np.unpackbits(packed, count=length, bitorder="little"))

    @property
    def length(self) -> int:
        return self.bits.size

    def __len__(self) -> int:
        return self.bits.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self.bits.tobytes() == other.bits.tobytes()

    def __hash__(self) -> int:
        return hash(self.bits.tobytes())

    def bit(self, i: int) -> int:
        """Bit at 1-based position i."""
        if not 1 <= i <= self.bits.size:
            raise IndexError(f"position {i} out of range 1..{self.bits.size}")
        return int(self.bits[i - 1])

    def to_text(self) -> str:
        return (self.bits + ord("0")).tobytes().decode()

    def to_array(self) -> np.ndarray:
        """Writable copy of the bits."""
        return self.bits.copy()

    def to_index(self) -> int:
        """Cube-table index; inverse of :meth:`from_index`."""
        return int.from_bytes(np.packbits(self.bits, bitorder="little").tobytes(), "little")

    def hamming_weight(self) -> int:
        return int(np.count_nonzero(self.bits))

    def __xor__(self, other: BitString) -> BitString:
        if other.length != self.length:
            raise DimensionMismatch(f"xor of lengths {self.length} and {other.length}")
        return BitString(self.bits ^ other.bits)

    def __repr__(self) -> str:
        return f"BitString({self.to_text()!r})"


@dataclass(frozen=True, eq=False)
class PerfectMatching:
    """n disjoint pairs covering {1..2n}, canonicalized at construction.

    Canonical form: k < l inside every pair, pairs sorted by k.  Any
    permutation of the same pairs constructs an equal object, and edge i
    (1-based) always means the i-th pair of the canonical order.  The
    constructor takes 1-based pairs and stores only the canonical
    read-only 0-based (n, 2) int64 array, whose bytes equality and
    hashing compare; ``edges`` is a 1-based tuple view derived from it.
    """

    _pairs: np.ndarray

    def __post_init__(self) -> None:
        pairs = np.asarray(self._pairs)
        if pairs.ndim != 2 or pairs.shape[0] == 0 or pairs.shape[1] != 2:
            raise ValueError("edges must be a nonempty sequence of pairs")
        if pairs.dtype.kind not in "iu":
            raise ValueError("edge endpoints must be integers")
        pairs = np.sort(pairs, axis=1).astype(np.int64, copy=False)
        pairs = pairs[np.argsort(pairs[:, 0])]
        if not np.array_equal(np.sort(pairs, axis=None), np.arange(1, pairs.size + 1)):
            raise ValueError("edges must cover {1..2n} exactly once")
        pairs -= 1
        pairs.setflags(write=False)
        object.__setattr__(self, "_pairs", pairs)

    @classmethod
    def from_text(cls, text: str) -> PerfectMatching:
        """Parse the 'k1-l1,k2-l2,...' encoding."""
        try:
            return cls(
                tuple(tuple(int(v) for v in chunk.split("-")) for chunk in text.split(","))
            )
        except ValueError as exc:
            raise ValueError(f"not a matching: {text!r} ({exc})") from exc

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Canonical 1-based pairs, rebuilt from the array on each access."""
        return tuple(map(tuple, (self._pairs + 1).tolist()))

    @property
    def n(self) -> int:
        """Number of edges."""
        return self._pairs.shape[0]

    @property
    def size(self) -> int:
        """Number of matched points, 2n."""
        return self._pairs.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PerfectMatching):
            return NotImplemented
        return self._pairs.tobytes() == other._pairs.tobytes()

    def __hash__(self) -> int:
        return hash(self._pairs.tobytes())

    def to_text(self) -> str:
        return ",".join(["%d-%d"] * self.n) % tuple((self._pairs + 1).ravel().tolist())

    def pairs_array(self) -> np.ndarray:
        """Edges as a read-only 0-based (n, 2) integer array."""
        return self._pairs

    def matrix(self) -> np.ndarray:
        """Explicit (n x 2n) 0/1 matrix; row i marks the endpoints of edge i."""
        mat = np.zeros((self.n, self.size), dtype=np.uint8)
        mat[np.arange(self.n)[:, None], self._pairs] = 1
        return mat

    def __repr__(self) -> str:
        return f"PerfectMatching({self.to_text()!r})"


def hamming_distance(a: BitString, b: BitString) -> int:
    """Number of positions where a and b differ."""
    if a.length != b.length:
        raise DimensionMismatch(f"lengths {a.length} and {b.length}")
    return int(np.count_nonzero(a.bits != b.bits))


def apply_matching(matching: PerfectMatching, x: BitString) -> BitString:
    """Edge-parity product: bit i of the result is x_k xor x_l for edge i."""
    if x.length != matching.size:
        raise DimensionMismatch(
            f"matching on {matching.size} points applied to length {x.length}"
        )
    pairs = matching.pairs_array()
    return BitString(x.bits[pairs[:, 0]] ^ x.bits[pairs[:, 1]])


def lift_character(matching: PerfectMatching, s: BitString) -> BitString:
    """Transpose action: copy bit i of s to both endpoints of edge i.

    The lift doubles the hamming weight and is adjoint to
    :func:`apply_matching`: <Mx, s> = <x, lift(s)> over GF(2).
    """
    if s.length != matching.n:
        raise DimensionMismatch(
            f"matching with {matching.n} edges lifted with length {s.length}"
        )
    out = np.empty(matching.size, dtype=np.uint8)
    out[matching.pairs_array()] = s.bits[:, None]
    return BitString(out)
