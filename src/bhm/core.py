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
import functools

import numpy as np

from .errors import DimensionMismatch


def _all_bits(values: np.ndarray) -> bool:
    """Whether every entry is 0 or 1; one reduction for the uint8 arrays the package builds."""
    if values.dtype == np.uint8:
        return not values.max() > 1
    return bool(((values == 0) | (values == 1)).all())


@dataclass(frozen=True, eq=False)
class BitString:
    """Immutable fixed-length 0/1 sequence over a read-only uint8 array."""

    bits: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.bits)
        if values.ndim != 1 or values.size == 0 or not _all_bits(values):
            raise ValueError("bitstring must be a nonempty 1-D sequence of 0s and 1s")
        bits = values.astype(np.uint8)  # always a copy, so the caller keeps no alias
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)

    @classmethod
    def _adopt(cls, bits: np.ndarray) -> BitString:
        """Store a package-built array as it is, with no copy and no check.

        ``bits`` must already be a nonempty 1-D uint8 array of 0s and 1s
        that no caller still holds; it is made read-only.  Input from
        outside the package goes through the constructor.
        """
        bits.setflags(write=False)
        self = object.__new__(cls)
        object.__setattr__(self, "bits", bits)
        return self

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

    def to_index(self) -> int:
        """Cube-table index; inverse of :meth:`from_index`."""
        return int.from_bytes(np.packbits(self.bits, bitorder="little").tobytes(), "little")

    def hamming_weight(self) -> int:
        return int(np.count_nonzero(self.bits))

    def __repr__(self) -> str:
        return f"BitString({self.to_text()!r})"


def _canonical_pairs(pairs: np.ndarray) -> np.ndarray:
    """New (n, 2) array of the rows (min, max) of ``pairs``, ordered by the min column.

    The canonical order of a matching, fixed by one argsort; the samplers
    and the :class:`PerfectMatching` constructor call it, and the
    samplers hand their rows to :meth:`PerfectMatching._adopt` as they are.
    """
    first, second = pairs[:, 0], pairs[:, 1]
    low = np.minimum(first, second)
    order = low.argsort()
    out = np.empty_like(pairs)
    out[:, 0] = low[order]
    out[:, 1] = np.maximum(first, second)[order]
    return out


@functools.lru_cache(maxsize=1)
def _decimal_rows(top: int) -> np.ndarray:
    """Read-only uint8 table whose row v holds the ASCII decimal of v, for v in 0..top.

    Each row is right-aligned in the width of ``top``, zero-byte padded in
    front, with one spare zero byte at the end for a separator.  A perfect
    matching on {1..2n} needs the rows of 1..2n, so one table serves every
    matching of one size.
    """
    width = len(str(top))
    values = np.arange(top + 1)
    rows = np.zeros((top + 1, width + 1), dtype=np.uint8)
    for column in range(width):
        place = 10 ** (width - 1 - column)
        # a place above v's leading digit stays a zero byte; row 0 keeps its units "0"
        shown = (values >= place) | (place == 1)
        rows[shown, column] = values[shown] // place % 10 + ord("0")
    rows.setflags(write=False)
    return rows


def _endpoint(token: str) -> int:
    """One endpoint of matching text, written as ``to_text`` writes it."""
    value = int(token)  # its refusal names text that is no integer at all
    # int() also reads signs, spaces, a newline and non-ASCII digits
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"endpoint {token!r} is not a run of ASCII digits 0-9")
    return value


_NOT_PAIRS = "edges must be a nonempty sequence of pairs"
_NOT_A_COVER = "edges must cover {1..2n} exactly once"


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
        try:
            pairs = np.asarray(self._pairs)
        except ValueError:  # ragged edges, which numpy refuses as inhomogeneous
            raise ValueError(_NOT_PAIRS) from None
        if pairs.ndim != 2 or pairs.shape[0] == 0 or pairs.shape[1] != 2:
            raise ValueError(_NOT_PAIRS)
        if pairs.dtype.kind not in "iu":
            raise ValueError("edge endpoints must be integers")
        pairs = _canonical_pairs(pairs.astype(np.int64, copy=False))
        seen = np.zeros(pairs.size, dtype=bool)
        # rows are sorted by their min, so pairs[0, 0] is the least endpoint;
        # 2n endpoints in 1..2n that mark all 2n slots are a permutation
        if pairs[0, 0] >= 1 and pairs[:, 1].max() <= pairs.size:
            pairs -= 1
            seen[pairs] = True
        if not seen.all():
            raise ValueError(_NOT_A_COVER)
        pairs.setflags(write=False)
        object.__setattr__(self, "_pairs", pairs)

    @classmethod
    def _adopt(cls, pairs: np.ndarray) -> PerfectMatching:
        """Store a package-built array as it is, with no copy and no check.

        ``pairs`` must already be the canonical 0-based int64 (n, 2) rows
        of :func:`_canonical_pairs` covering 0..2n-1, held by no caller;
        it is made read-only.  Input from outside the package goes
        through the constructor.
        """
        pairs.setflags(write=False)
        self = object.__new__(cls)
        object.__setattr__(self, "_pairs", pairs)
        return self

    @classmethod
    def from_text(cls, text: str) -> PerfectMatching:
        """Parse the 'k1-l1,k2-l2,...' encoding, endpoints in ASCII digits only."""
        try:
            edges = tuple(tuple(map(_endpoint, chunk.split("-"))) for chunk in text.split(","))
            # numpy would hold an endpoint past int64 as a float or an object
            if max(map(max, edges)) >= 1 << 63:
                raise ValueError(_NOT_A_COVER)
            return cls(edges)
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
        # each edge's two endpoint rows, as a fresh (n, 2, width + 1) array
        tokens = _decimal_rows(self.size).take(self._pairs + 1, axis=0)
        tokens[:, 0, -1] = ord("-")
        tokens[:, 1, -1] = ord(",")
        # zero bytes are padding; drop them and the last edge's comma
        return tokens.tobytes().translate(None, b"\0")[:-1].decode()

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


def apply_matching(matching: PerfectMatching, x: BitString) -> BitString:
    """Edge-parity product: bit i of the result is x_k xor x_l for edge i."""
    if x.length != matching.size:
        raise DimensionMismatch(
            f"matching on {matching.size} points applied to length {x.length}"
        )
    pairs = matching.pairs_array()
    return BitString._adopt(x.bits[pairs[:, 0]] ^ x.bits[pairs[:, 1]])


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
    out[matching.pairs_array()] = s.bits[:, None]  # the matching covers every slot
    return BitString._adopt(out)
