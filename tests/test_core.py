import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bhm.combinatorics import enumerate_matchings
from bhm.core import (
    BitString,
    PerfectMatching,
    apply_matching,
    hamming_distance,
    lift_character,
)
from bhm.errors import DimensionMismatch
from bhm.instances import sample_matching
from bhm.seeding import substream

from helpers import gf2_matrix_product


def test_bitstring_round_trips():
    b = BitString.from_text("0110")
    assert b.to_text() == "0110"
    assert b.bit(1) == 0 and b.bit(2) == 1
    assert len(b) == b.length == 4
    assert b.hamming_weight() == 2
    assert BitString.from_array(b.to_array()) == b
    assert BitString.from_index(4, b.to_index()) == b
    assert BitString.from_index(3, 5).to_index() == 5


def test_bitstring_validation():
    with pytest.raises(ValueError):
        BitString(())
    with pytest.raises(ValueError):
        BitString((0, 2))
    with pytest.raises(ValueError):
        BitString((0.5, 1))
    with pytest.raises(ValueError):
        BitString.from_text("01x")
    with pytest.raises(ValueError):
        BitString.from_text("")
    with pytest.raises(ValueError):
        BitString.from_index(2, 4)
    with pytest.raises(IndexError):
        BitString.from_text("01").bit(3)
    with pytest.raises(IndexError):
        BitString.from_text("01").bit(0)


def test_bitstring_xor_and_equality():
    a = BitString.from_text("0110")
    b = BitString.from_text("1100")
    assert (a ^ b).to_text() == "1010"
    assert a == BitString((0, 1, 1, 0))
    assert hash(a) == hash(BitString.from_text("0110"))
    with pytest.raises(DimensionMismatch):
        a ^ BitString.from_text("01")


def test_matching_canonicalization_is_order_insensitive():
    m1 = PerfectMatching(((3, 4), (2, 1)))
    m2 = PerfectMatching(((1, 2), (4, 3)))
    assert m1 == m2
    assert m1.edges == ((1, 2), (3, 4))
    assert m1.to_text() == "1-2,3-4"
    # idempotent: rebuilding from canonical edges changes nothing
    assert PerfectMatching(m1.edges) == m1
    x = BitString.from_text("0110")
    assert apply_matching(m1, x) == apply_matching(m2, x)


def test_matching_validation():
    with pytest.raises(ValueError):
        PerfectMatching(((1, 1), (2, 3)))
    with pytest.raises(ValueError):
        PerfectMatching(((1, 2), (2, 3)))
    with pytest.raises(ValueError):
        PerfectMatching(((1, 2), (4, 5)))
    with pytest.raises(ValueError):
        PerfectMatching(())
    with pytest.raises(ValueError):
        PerfectMatching(((1.5, 2), (3, 4)))
    with pytest.raises(ValueError):
        PerfectMatching.from_text("1-2,3")


#: Derandomized so the suite runs the same examples on every run.
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)


@st.composite
def shuffled_pairs(draw):
    """Pairs of a perfect matching in random order and orientation."""
    n = draw(st.integers(1, 40))
    points = draw(st.permutations(range(1, 2 * n + 1)))
    return [(points[2 * i], points[2 * i + 1]) for i in range(n)]


@PROPERTY
@given(st.lists(st.integers(0, 1), min_size=1, max_size=200))
def test_bitstring_encodings_round_trip(values):
    b = BitString(values)
    assert b.to_text() == "".join(map(str, values))
    assert b.to_index() == sum(v << i for i, v in enumerate(values))
    assert BitString.from_text(b.to_text()) == b
    assert BitString.from_index(len(values), b.to_index()) == b
    twin = BitString(np.array(values, dtype=np.int64))
    assert twin == b and hash(twin) == hash(b)


@PROPERTY
@given(shuffled_pairs())
def test_matching_text_round_trips_under_shuffled_pair_order(pairs):
    m = PerfectMatching(tuple(pairs))
    shuffled_text = ",".join(f"{k}-{l}" for k, l in pairs)
    assert PerfectMatching.from_text(shuffled_text) == m
    assert PerfectMatching.from_text(m.to_text()) == m
    assert m.edges == tuple(sorted((min(p), max(p)) for p in pairs))
    twin = PerfectMatching(np.array(pairs[::-1]))
    assert twin == m and hash(twin) == hash(m)


def test_value_types_are_read_only_and_never_aliased():
    source = np.array([0, 1, 1, 0])
    b = BitString(source)
    source[0] = 1
    assert b.to_text() == "0110"
    with pytest.raises(ValueError):
        b.bits[0] = 1
    copy = b.to_array()
    copy[0] = 1
    assert b.to_text() == "0110"
    pairs = np.array([[3, 4], [1, 2]])
    m = PerfectMatching(pairs)
    pairs[1, 0] = 4
    assert m.to_text() == "1-2,3-4"
    with pytest.raises(ValueError):
        m.pairs_array()[0, 0] = 2
    # one stored representation: the canonical 0-based int64 pairs
    assert list(vars(m)) == ["_pairs"]
    assert m.pairs_array().dtype == np.int64
    assert m.pairs_array().tolist() == [[0, 1], [2, 3]]


def test_matching_text_and_matrix():
    m = PerfectMatching.from_text("2-6,1-3,4-5")
    assert m.to_text() == "1-3,2-6,4-5"
    assert m.n == 3 and m.size == 6
    mat = m.matrix()
    assert mat.shape == (3, 6)
    assert mat.sum() == 6
    assert list(mat[0]) == [1, 0, 1, 0, 0, 0]


@pytest.mark.parametrize(
    "pairs, x, expected",
    [
        (((1, 2), (3, 4)), "0110", "11"),
        (((1, 2), (3, 4)), "0000", "00"),
        (((1, 3), (2, 4)), "1010", "00"),
        (((1, 4), (2, 3)), "1010", "11"),
    ],
)
def test_apply_matching_examples(pairs, x, expected):
    result = apply_matching(PerfectMatching(pairs), BitString.from_text(x))
    assert result.to_text() == expected


def test_apply_matching_matches_gf2_matrix_exhaustively():
    for n in (1, 2, 3, 4):
        for pairs in enumerate_matchings(2 * n):
            matching = PerfectMatching(pairs)
            for idx in range(1 << (2 * n)):
                x = BitString.from_index(2 * n, idx)
                assert np.array_equal(
                    apply_matching(matching, x).to_array(),
                    gf2_matrix_product(matching, x),
                )


def test_apply_matching_matches_gf2_matrix_randomized():
    rng = substream(101, 0)
    for _ in range(50):
        n = int(rng.integers(5, 30))
        matching = sample_matching(n, rng)
        x = BitString.from_array(rng.integers(0, 2, size=2 * n))
        assert np.array_equal(
            apply_matching(matching, x).to_array(), gf2_matrix_product(matching, x)
        )


@pytest.mark.parametrize(
    "pairs, s, expected",
    [
        (((1, 2), (3, 4)), "10", "1100"),
        (((1, 2), (3, 4)), "00", "0000"),
        (((1, 3), (2, 4)), "01", "0101"),
    ],
)
def test_lift_character_examples(pairs, s, expected):
    result = lift_character(PerfectMatching(pairs), BitString.from_text(s))
    assert result.to_text() == expected


def test_lift_character_adjoint_identity_exhaustive():
    # <Mx, s> = <x, lifted s> over GF(2), all x and s, all matchings, 2n <= 8
    for n in (1, 2, 3, 4):
        xs = [BitString.from_index(2 * n, x_idx) for x_idx in range(1 << (2 * n))]
        for pairs in enumerate_matchings(2 * n):
            matching = PerfectMatching(pairs)
            images = [(x, apply_matching(matching, x)) for x in xs]
            for s_idx in range(1 << n):
                s = BitString.from_index(n, s_idx)
                lifted = lift_character(matching, s)
                assert lifted.hamming_weight() == 2 * s.hamming_weight()
                for x, mx in images:
                    lhs = sum(a & b for a, b in zip(mx.bits, s.bits)) & 1
                    rhs = sum(a & b for a, b in zip(x.bits, lifted.bits)) & 1
                    assert lhs == rhs


def test_lift_weight_randomized():
    rng = substream(102, 0)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        matching = sample_matching(n, rng)
        s = BitString.from_array(rng.integers(0, 2, size=n))
        assert lift_character(matching, s).hamming_weight() == 2 * s.hamming_weight()


def test_hamming_distance():
    assert hamming_distance(BitString.from_text("0110"), BitString.from_text("0110")) == 0
    assert hamming_distance(BitString.from_text("0000"), BitString.from_text("1111")) == 4
    assert hamming_distance(BitString.from_text("0110"), BitString.from_text("1100")) == 2
    a, b = BitString.from_text("0101"), BitString.from_text("1001")
    assert hamming_distance(a, b) == hamming_distance(b, a)
    with pytest.raises(DimensionMismatch):
        hamming_distance(a, BitString.from_text("01"))


def test_dimension_errors():
    matching = PerfectMatching(((1, 2), (3, 4)))
    with pytest.raises(DimensionMismatch):
        apply_matching(matching, BitString.from_text("01"))
    with pytest.raises(DimensionMismatch):
        lift_character(matching, BitString.from_text("011"))
