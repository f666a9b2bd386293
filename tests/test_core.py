import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bhm.combinatorics import enumerate_matchings
from bhm.core import BitString, PerfectMatching, _decimal_rows, apply_matching, lift_character
from bhm.errors import DimensionMismatch
from bhm.instances import sample_matching
from bhm.seeding import substream

from helpers import gf2_matrix_product, matching_text_oracle, sorted_pairs_oracle


def test_bitstring_round_trips():
    b = BitString.from_text("0110")
    assert b.to_text() == "0110"
    assert b.bit(1) == 0 and b.bit(2) == 1
    assert len(b) == b.length == 4
    assert b.hamming_weight() == 2
    assert BitString(b.bits) == b
    assert BitString.from_index(4, b.to_index()) == b
    assert BitString.from_index(3, 5).to_index() == 5


def test_bitstring_validation():
    for bad in (
        (),
        (0, 2),
        (0.5, 1),
        np.array([0, 2], dtype=np.uint8),
        np.array([1, 255], dtype=np.uint8),
        np.array([0, -1], dtype=np.int64),
        np.array([1, 256], dtype=np.int64),
        np.array([], dtype=np.uint8),
        np.zeros((2, 2), dtype=np.uint8),
    ):
        with pytest.raises(ValueError, match="nonempty 1-D sequence of 0s and 1s"):
            BitString(bad)
    assert BitString(np.array([True, False])) == BitString.from_text("10")
    assert BitString(np.array([0, 1], dtype=np.int64)) == BitString.from_text("01")
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
    assert BitString(a.bits ^ b.bits).to_text() == "1010"
    assert a == BitString((0, 1, 1, 0))
    assert hash(a) == hash(BitString.from_text("0110"))


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


def test_matching_constructor_refuses_ragged_edges():
    # numpy refuses ragged rows as an inhomogeneous shape; the constructor names the rule
    for edges in (((1, 2), (3,)), ((1, 2, 3), (4, 5)), [[1, 2], []]):
        with pytest.raises(ValueError) as info:
            PerfectMatching(edges)
        assert str(info.value) == "edges must be a nonempty sequence of pairs"


@pytest.mark.parametrize(
    "text, reason",
    [(f"1-2,3-{v}", "edges must cover {1..2n} exactly once")
     for v in (2**63 - 1, 2**63, 2**64 - 1, 2**64, 10**22)]
    + [
        ("1-2,3.0-4", "invalid literal for int() with base 10: '3.0'"),
        ("1-2,3-x", "invalid literal for int() with base 10: 'x'"),
        # int() reads each of these endpoints, but to_text never writes them
        (" 1 -2,3-4", "endpoint ' 1 ' is not a run of ASCII digits 0-9"),
        ("+1-2,3-4", "endpoint '+1' is not a run of ASCII digits 0-9"),
        ("\uff11-2,3-4", "endpoint '\uff11' is not a run of ASCII digits 0-9"),
        ("1-2,3-4\n", "endpoint '4\\n' is not a run of ASCII digits 0-9"),
        ("1-2,3", "edges must be a nonempty sequence of pairs"),
        ("1-2-3,4-5", "edges must be a nonempty sequence of pairs"),
    ],
)
def test_matching_text_refusals_name_the_reason(text, reason):
    # numpy holds an endpoint of 2^63 or more as a float or an object, which
    # must not read as the non-integer refusal
    with pytest.raises(ValueError) as info:
        PerfectMatching.from_text(text)
    assert str(info.value) == f"not a matching: {text!r} ({reason})"


@pytest.mark.parametrize("n", [1, 4, 5, 49, 50, 499, 500, 4999, 5000, 50_000])
def test_matching_text_equals_the_format_oracle_at_each_decimal_width(n):
    # n = 5, 50, 500, 5000 and 50,000 are the first with 2n one digit wider
    matching = sample_matching(n, substream(17, n))
    text = matching.to_text()
    assert text == matching_text_oracle(matching)
    assert repr(matching) == f"PerfectMatching({matching_text_oracle(matching)!r})"
    assert PerfectMatching.from_text(text) == matching


def test_matching_text_survives_a_size_change_and_a_second_call():
    # the decimal table is cached for one size at a time and is never written
    small, large = sample_matching(4, substream(18, 0)), sample_matching(500, substream(18, 1))
    for matching in (small, large, small, large, large, small):
        assert matching.to_text() == matching_text_oracle(matching)
    rows = _decimal_rows(small.size)
    snapshot = rows.tobytes()
    assert small.to_text() == small.to_text() == matching_text_oracle(small)
    assert rows.tobytes() == snapshot and not rows.flags.writeable
    assert _decimal_rows.cache_info().currsize == 1


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


#: Endpoints that no matching on {1..2n} has: uint64 values on both sides
#: of 2^63, where a cast to int64 turns negative, and up to 2^64 - 1.
HUGE_ENDPOINTS = [2**63 - 1, 2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1]


@st.composite
def endpoint_arrays(draw):
    """Shuffled pairs of a matching, either intact or with one endpoint corrupted.

    The corruptions are a repeated point, a self-pair, 0, 2n + 1, a
    negative value, a huge uint64 value and a float array; intact and
    small corrupted arrays also come as uint8 and uint64.
    """
    pairs = np.array(draw(shuffled_pairs()), dtype=np.int64)
    flat = pairs.reshape(-1)
    size = flat.size
    at = draw(st.integers(0, size - 1))
    corruption = draw(
        st.sampled_from(["none", "repeat", "self", "zero", "over", "negative", "huge", "float"])
    )
    if corruption == "repeat":
        flat[at] = flat[draw(st.integers(0, size - 1).filter(lambda i: i != at))]
    elif corruption == "self":
        row = at // 2
        pairs[row, 1] = pairs[row, 0]
    elif corruption == "zero":
        flat[at] = 0
    elif corruption == "over":
        flat[at] = size + 1
    elif corruption == "negative":
        flat[at] = draw(st.integers(-(2**63), -1))
        return pairs
    elif corruption == "float":
        return pairs.astype(np.float64)
    elif corruption == "huge":
        pairs = pairs.astype(np.uint64)
        pairs.reshape(-1)[at] = draw(st.sampled_from(HUGE_ENDPOINTS))
        return pairs
    dtypes = [np.int64, np.uint64] + ([np.uint8] if pairs.max() <= 255 else [])
    return pairs.astype(draw(st.sampled_from(dtypes)))


def _outcome(route, pairs):
    """The canonical pairs a route returns, or the message it raises."""
    try:
        return route(pairs).tolist()
    except ValueError as exc:
        return str(exc)


@PROPERTY
@given(endpoint_arrays())
def test_matching_constructor_equals_the_three_sort_oracle(pairs):
    got = _outcome(lambda p: PerfectMatching(p).pairs_array(), pairs)
    assert got == _outcome(sorted_pairs_oracle, pairs)
    if isinstance(got, list):
        stored = PerfectMatching(pairs).pairs_array()
        assert stored.dtype == np.int64 and not stored.flags.writeable
        assert not np.shares_memory(stored, pairs)


def test_value_types_are_read_only_and_never_aliased():
    source = np.array([0, 1, 1, 0])
    b = BitString(source)
    source[0] = 1
    assert b.to_text() == "0110"
    with pytest.raises(ValueError):
        b.bits[0] = 1
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
                    apply_matching(matching, x).bits,
                    gf2_matrix_product(matching, x),
                )


def test_apply_matching_matches_gf2_matrix_randomized():
    rng = substream(101, 0)
    for _ in range(50):
        n = int(rng.integers(5, 30))
        matching = sample_matching(n, rng)
        x = BitString(rng.integers(0, 2, size=2 * n))
        image = apply_matching(matching, x)
        assert np.array_equal(image.bits, gf2_matrix_product(matching, x))
        assert image == BitString(gf2_matrix_product(matching, x))
        assert image.bits.dtype == np.uint8 and not image.bits.flags.writeable


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
        s = BitString(rng.integers(0, 2, size=n))
        lifted = lift_character(matching, s)
        assert lifted.hamming_weight() == 2 * s.hamming_weight()
        assert lifted == BitString(matching.matrix().T @ s.bits)
        assert lifted.bits.dtype == np.uint8 and not lifted.bits.flags.writeable


def test_dimension_errors():
    matching = PerfectMatching(((1, 2), (3, 4)))
    with pytest.raises(DimensionMismatch):
        apply_matching(matching, BitString.from_text("01"))
    with pytest.raises(DimensionMismatch):
        lift_character(matching, BitString.from_text("011"))
