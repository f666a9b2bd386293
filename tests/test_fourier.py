from fractions import Fraction
import inspect

import numpy as np
import pytest

from bhm.core import BitString, PerfectMatching, apply_matching
from bhm.errors import BudgetExceeded, DimensionMismatch
from bhm import fourier, verify
from bhm.fourier import (
    CONVOLVE_MAX_DIM,
    DEFAULT_MAX_DIM,
    CubeFunction,
    FourierSpectrum,
    _fwht,
    _weight_table,
    check_kkl,
    check_l1_l2,
    check_parseval,
    closed_form_spectrum_table,
    convolve,
    convolve_spectral,
    inverse_transform,
    lift_index_table,
    matching_image_table,
    mu_difference,
    transform,
)
from bhm.instances import NOISE_BIAS, density_mu, sample_matching
from bhm.seeding import substream

from helpers import convolve_rowwise_oracle, naive_walsh_coefficients, stride_fwht


def random_table(m, rng):
    return CubeFunction(m=m, values=rng.uniform(-1.0, 1.0, size=1 << m))


def test_cube_function_validation():
    # the refusals are in test_cube_tables_refuse_with_one_set_of_messages
    f = CubeFunction(m=2, values=[1.0, 2.0, 3.0, 4.0])
    assert f.values[BitString.from_text("10").to_index()] == 2.0  # position 1 is the low bit
    with pytest.raises(ValueError):
        f.values[0] = 0.0  # tables are frozen


@pytest.mark.parametrize(
    "table, noun", [(CubeFunction, "values"), (FourierSpectrum, "coefficients")]
)
def test_cube_tables_refuse_with_one_set_of_messages(table, noun):
    with pytest.raises(ValueError, match=r"^table length must be a power of two$"):
        table(2, np.zeros(3))
    with pytest.raises(ValueError, match=r"^table values must be finite$"):
        table(1, np.array([1.0, np.inf]))
    with pytest.raises(DimensionMismatch) as info:
        table(2, np.zeros(8))
    assert str(info.value) == f"dimension 2 needs 4 {noun}, got 8"
    values = getattr(table(1, [0.5, -0.5]), noun)
    assert values.tolist() == [0.5, -0.5] and not values.flags.writeable


def test_index_bits_rows_are_the_bitstring_bits():
    for length in range(1, 11):
        rows = fourier._index_bits(np.arange(1 << length), length)
        assert rows.dtype == np.int64
        expected = [BitString.from_index(length, i).bits for i in range(1 << length)]
        assert np.array_equal(rows, expected)


def test_transform_of_constant_and_characters():
    const = CubeFunction(m=3, values=np.ones(8))
    coeffs = transform(const).coefficients
    assert coeffs[0] == 1.0
    assert np.all(coeffs[1:] == 0.0)
    for t in range(8):
        ys = np.arange(8, dtype=np.uint64)
        chi = 1.0 - 2.0 * (np.bitwise_count(ys & np.uint64(t)).astype(np.int64) & 1)
        coeffs = transform(CubeFunction(m=3, values=chi)).coefficients
        expected = np.zeros(8)
        expected[t] = 1.0
        assert np.array_equal(coeffs, expected)


@pytest.mark.parametrize("m", [1, 2, 4, 6, 8])
def test_transform_matches_naive_double_loop(m):
    rng = substream(401, m)
    f = random_table(m, rng)
    fast = transform(f).coefficients
    slow = naive_walsh_coefficients(f.values)
    assert np.max(np.abs(fast - slow)) <= 1e-12


def test_transform_linearity_and_inverse():
    rng = substream(402, 0)
    f, g = random_table(6, rng), random_table(6, rng)
    a, b = 2.5, -1.25
    combined = CubeFunction(m=6, values=a * f.values + b * g.values)
    lhs = transform(combined).coefficients
    rhs = a * transform(f).coefficients + b * transform(g).coefficients
    assert np.max(np.abs(lhs - rhs)) <= 1e-12
    back = inverse_transform(transform(f))
    assert np.max(np.abs(back.values - f.values)) <= 1e-12


def test_transform_cap():
    m = DEFAULT_MAX_DIM + 1
    f = CubeFunction(m=m, values=np.ones(1 << m))
    with pytest.raises(BudgetExceeded, match=f"transform at m={m} exceeds cap"):
        transform(f)


# m = 15 is one whole block of _fwht, and 16 and 17 add one and two strided stages
@pytest.mark.parametrize("m", list(range(18)) + [20])
def test_fwht_is_byte_equal_to_the_stride_oracle(m):
    f = random_table(m, substream(415, m))
    expected = stride_fwht(f.values)
    assert _fwht(f.values).tobytes() == expected.tobytes()
    assert transform(f).coefficients.tobytes() == (expected / (1 << m)).tobytes()


@pytest.mark.parametrize("m", [0, 1, 5, 16])
def test_fwht_reads_its_input_only(m):
    values = substream(416, m).uniform(-1.0, 1.0, size=1 << m)
    before = values.copy()
    out = _fwht(values)
    assert np.array_equal(values, before)
    assert not np.shares_memory(out, values)
    values.setflags(write=False)
    frozen = _fwht(values)
    assert frozen.tobytes() == out.tobytes()
    assert not np.shares_memory(frozen, values)
    frozen[0] = 7.0  # a fresh, writable table


def test_transforms_refuse_a_table_that_overflows():
    # 1e308 + 1e308 is inf: the adopted output is still checked for finiteness
    big = [1e308, 1e308]
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match=r"^table values must be finite$"):
            transform(CubeFunction(m=1, values=big))
        with pytest.raises(ValueError, match=r"^table values must be finite$"):
            inverse_transform(FourierSpectrum(m=1, coefficients=big))


def test_fwht_is_one_traced_call_under_its_own_name():
    # the benchmark's fourier.fwht.points counter wraps _fwht by name and reads
    # ``values``; a call of _fwht from inside itself would be counted twice
    assert list(inspect.signature(_fwht).parameters) == ["values"]
    assert "_fwht" not in _fwht.__code__.co_names


@pytest.mark.parametrize("m", range(9))
def test_fwht_of_integer_tables_is_the_sylvester_product(m):
    hadamard = np.ones((1, 1), dtype=np.int64)
    for _ in range(m):
        hadamard = np.block([[hadamard, hadamard], [hadamard, -hadamard]])
    values = substream(417, m).integers(-50, 51, size=1 << m)
    out = _fwht(values)
    assert out.dtype == np.float64
    assert np.array_equal(out, hadamard @ values)


def test_convolution_identity_and_point_masses():
    rng = substream(403, 0)
    f = random_table(5, rng)
    origin = np.zeros(32)
    origin[0] = 1.0
    delta = CubeFunction(m=5, values=origin)
    assert np.max(np.abs(convolve(f, delta).values - f.values)) <= 1e-12
    at_t = np.zeros(32)
    at_t[BitString.from_text("01011").to_index()] = 1.0
    mass = CubeFunction(m=5, values=at_t)
    self_conv = convolve(mass, mass)
    expected = np.zeros(32)
    expected[0] = 1.0
    assert np.array_equal(self_conv.values, expected)


@pytest.mark.parametrize("m", [2, 4, 6])
def test_convolution_direct_equals_spectral(m):
    rng = substream(404, m)
    f, g = random_table(m, rng), random_table(m, rng)
    direct = convolve(f, g)
    spectral = convolve_spectral(f, g)
    scale = max(1.0, float(np.max(np.abs(direct.values))))
    assert np.max(np.abs(direct.values - spectral.values)) / scale <= 1e-9
    # the diagonalization factor is exactly 2^m
    lhs = transform(direct).coefficients
    rhs = (1 << m) * transform(f).coefficients * transform(g).coefficients
    assert np.max(np.abs(lhs - rhs)) <= 1e-9


@pytest.mark.parametrize("m", [1, 5, 6, 7, 10, CONVOLVE_MAX_DIM])
def test_convolve_is_byte_equal_to_the_rowwise_oracle(m):
    # 2^m is a whole number of 64-row blocks for m >= 6, so m < 6 is the one
    # sub-block case; m = 6 is exactly one block, m = 12 the cap
    for case in range(2):
        f, g = verify._random_pair(m, 5, case)
        assert convolve(f, g).values.tobytes() == convolve_rowwise_oracle(f, g).tobytes()


def test_convolve_reuses_one_offset_table_per_m():
    fourier._convolve_offsets.cache_clear()
    # a change of m replaces the cached table; the same m reuses it
    for m in (3, 3, 8, 3):
        f, g = verify._random_pair(m, 6, 0)
        assert convolve(f, g).values.tobytes() == convolve_rowwise_oracle(f, g).tobytes()
    info = fourier._convolve_offsets.cache_info()
    assert (info.hits, info.misses) == (1, 3)
    # one table, left as built by the calls that read it
    offsets = fourier._convolve_offsets(3)
    assert offsets is fourier._convolve_offsets(3)
    assert np.array_equal(offsets, np.arange(8)[:, None] ^ np.arange(8))


def test_convolution_wrong_scale_is_detected():
    rng = substream(405, 0)
    f, g = random_table(4, rng), random_table(4, rng)
    # a factor of 2^3 in place of 2^4 halves the spectral route's result
    wrong = convolve_spectral(f, g).values / 2
    assert np.max(np.abs(convolve(f, g).values - wrong)) > 1e-3


def test_convolution_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        convolve(CubeFunction(m=2, values=np.ones(4)), CubeFunction(m=3, values=np.ones(8)))


def test_direct_convolution_cap():
    f = CubeFunction(m=13, values=np.ones(1 << 13))
    with pytest.raises(BudgetExceeded, match="exceeds cap 12"):
        convolve(f, f)


def test_parseval_special_cases():
    zero = CubeFunction(m=4, values=np.zeros(16))
    assert check_parseval(zero) == (0.0, 0.0, 0.0)
    ys = np.arange(16, dtype=np.uint64)
    chi = 1.0 - 2.0 * (np.bitwise_count(ys & np.uint64(9)).astype(np.int64) & 1)
    lhs, rhs, gap = check_parseval(CubeFunction(m=4, values=chi))
    assert lhs == 16.0 and rhs == 16.0 and gap == 0.0


def test_parseval_random():
    rng = substream(406, 0)
    for _ in range(50):
        lhs, rhs, gap = check_parseval(random_table(10, rng))
        assert gap / max(lhs, rhs) <= 1e-9


def test_l1_l2_relation():
    assert check_l1_l2(CubeFunction(m=3, values=np.ones(8)))
    assert check_l1_l2(CubeFunction(m=3, values=[2.0] + [0.0] * 7))
    rng = substream(407, 0)
    assert all(check_l1_l2(random_table(8, rng)) for _ in range(100))
    # equality is tight for constants: lhs == rhs exactly
    const = CubeFunction(m=5, values=np.full(32, 1.5))
    l2sq = float(np.sum(const.values**2))
    l1 = float(np.sum(np.abs(const.values)))
    assert l2sq == pytest.approx(l1 * l1 / 32, rel=1e-15)


def test_kkl_trivial_and_delta_one():
    zero = CubeFunction(m=4, values=np.zeros(16))
    lhs, rhs, holds = check_kkl(zero, 0.5)
    assert (lhs, rhs, holds) == (0.0, 0.0, True)
    rng = substream(408, 0)
    vals = rng.choice([-1.0, 0.0, 1.0], size=256, p=[0.2, 0.6, 0.2])
    f = CubeFunction(m=8, values=vals)
    t = np.count_nonzero(vals) / 256
    lhs, rhs, holds = check_kkl(f, 1.0)
    # at delta = 1 the weighted sum collapses to Parseval: both sides equal t
    assert holds
    assert lhs == pytest.approx(t, abs=1e-12)
    assert rhs == pytest.approx(t, abs=1e-12)


def test_kkl_validation():
    f = CubeFunction(m=2, values=np.array([0.5, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        check_kkl(f, 0.5)
    g = CubeFunction(m=2, values=np.array([1.0, 0.0, 0.0, -1.0]))
    with pytest.raises(ValueError):
        check_kkl(g, 1.5)


def test_closed_form_spectrum_values():
    assert closed_form_spectrum_table(1)[BitString.from_text("1").to_index()] == 0.5
    table = closed_form_spectrum_table(3)
    assert table[BitString.from_text("000").to_index()] == 0.0
    assert table[BitString.from_text("110").to_index()] == 0.0
    assert table[BitString.from_text("111").to_index()] == 2.0 / 2**6


@pytest.mark.parametrize("n", list(range(1, 13)))
def test_closed_form_matches_transform(n):
    spectrum = transform(mu_difference(n))
    table = closed_form_spectrum_table(n)
    assert np.max(np.abs(spectrum.coefficients - table)) <= 1e-12
    # weight 0 is even; the all-ones character has weight n
    assert table[0] == 0.0
    assert table[-1] == (2.0 / 2 ** (2 * n) if n % 2 else 0.0)


@pytest.mark.parametrize("n", range(1, 15))
def test_weight_indexed_tables_match_the_power_formulas(n):
    # oracle: one power per table entry, the elementwise route the weight gather replaces
    p = float(NOISE_BIAS)
    ones = np.bitwise_count(np.arange(1 << n, dtype=np.uint64)).astype(np.int64)
    mu0 = p ** (n - ones) * (1 - p) ** ones
    assert mu_difference(n).values.tobytes() == (mu0 - mu0[::-1]).tobytes()
    spectrum = np.where(ones % 2 == 1, 2.0 * float(2 * NOISE_BIAS - 1) ** ones / 2.0**n, 0.0)
    assert closed_form_spectrum_table(n).tobytes() == spectrum.tobytes()


@pytest.mark.parametrize("table", [mu_difference, closed_form_spectrum_table])
def test_weight_indexed_tables_refuse_above_the_cap(monkeypatch, table):
    def no_tables(size):
        raise AssertionError(f"built a table of {size} entries")

    monkeypatch.setattr(fourier, "_popcounts", no_tables)
    with pytest.raises(BudgetExceeded, match=f"{DEFAULT_MAX_DIM + 1} exceeds cap"):
        table(DEFAULT_MAX_DIM + 1)


@pytest.mark.parametrize("table", [mu_difference, closed_form_spectrum_table])
@pytest.mark.parametrize("n", [0, -1])
def test_weight_indexed_tables_refuse_n_below_one(table, n):
    with pytest.raises(ValueError, match="n must be positive"):
        table(n)


def _popcount_oracle(m):
    return np.bitwise_count(np.arange(2**m, dtype=np.uint64))


@pytest.mark.parametrize("m", range(DEFAULT_MAX_DIM + 1))
@pytest.mark.parametrize("dtype", [np.float64, np.int64])
def test_weight_table_equals_the_full_index_gather(m, dtype):
    # distinct values per weight, so a wrong weight shows as a wrong entry
    by_weight = (np.arange(m + 1) * 7 + 3).astype(dtype)
    if dtype == np.float64:
        by_weight = by_weight / 9.0
    table = _weight_table(by_weight, m)
    expected = by_weight[_popcount_oracle(m)]
    assert table.dtype == dtype
    assert table.shape == (2**m,)
    assert table.tobytes() == expected.tobytes()
    again = _weight_table(by_weight, m)
    assert table.flags.writeable and not np.shares_memory(table, again)
    assert not np.shares_memory(table, by_weight)
    table[...] = 0
    assert again.tobytes() == expected.tobytes()


@pytest.mark.parametrize("m", range(13))
@pytest.mark.parametrize("delta", [0.0, 0.3, 1.0])
def test_kkl_weights_equal_the_elementwise_powers(m, delta):
    # the old route: one power per table entry, over int64 popcounts
    ones = _popcount_oracle(m).astype(np.int64)
    weights = float(delta) ** ones
    assert _weight_table(float(delta) ** np.arange(m + 1), m).tobytes() == weights.tobytes()
    vals = substream(417, m).choice([-1.0, 0.0, 1.0], size=1 << m, p=[0.3, 0.4, 0.3])
    f = CubeFunction(m=m, values=vals)
    assert check_kkl(f, delta)[0] == float(weights @ (transform(f).coefficients ** 2))


def test_mu_difference_matches_exact_densities():
    for n in (1, 2, 5):
        f = mu_difference(n)
        for idx in range(1 << n):
            y = BitString.from_index(n, idx)
            exact = density_mu(0, y) - density_mu(1, y)
            assert f.values[idx] == float(exact)


def test_matching_image_table_matches_object_route():
    rng = substream(411, 0)
    for n in (2, 3, 4):
        matching = sample_matching(n, rng)
        table = matching_image_table(matching)
        for idx in range(1 << (2 * n)):
            x = BitString.from_index(2 * n, idx)
            assert table[idx] == apply_matching(matching, x).to_index()


def test_lift_index_table_matches_object_route():
    from bhm.core import lift_character

    rng = substream(412, 0)
    for n in (2, 3, 5):
        matching = sample_matching(n, rng)
        table = lift_index_table(matching)
        for idx in range(1 << n):
            s = BitString.from_index(n, idx)
            assert table[idx] == lift_character(matching, s).to_index()


def test_lift_identity_full_cube_and_singleton():
    matching = PerfectMatching(((1, 3), (2, 4)))
    full = np.arange(16)
    assert fourier._lift_identity_gap(full, matching) <= 1e-15
    # the full cube's edge parities are uniform
    images = matching_image_table(matching)
    assert np.array_equal(np.bincount(images[full], minlength=4), np.full(4, 4))
    g_hat = transform(CubeFunction(m=4, values=np.full(16, 1 / 16.0))).coefficients
    assert g_hat[0] == pytest.approx(1 / 16.0)
    assert np.max(np.abs(g_hat[1:])) <= 1e-15

    origin = np.array([0])
    assert fourier._lift_identity_gap(origin, matching) <= 1e-15
    # both sides explicitly: ghat(z) = 2^-2n for all z, gMhat(s) = 2^-n
    g = np.zeros(16)
    g[0] = 1.0
    assert np.allclose(transform(CubeFunction(m=4, values=g)).coefficients, 1 / 16.0)
    gm = np.zeros(4)
    gm[images[0]] = 1.0
    assert np.allclose(transform(CubeFunction(m=2, values=gm)).coefficients, 1 / 4.0)


def test_lift_identity_against_the_histogram_route():
    # gM by the object route: the images of A counted one x at a time, over |A|
    rng = substream(410, 0)
    n = 5
    matching = sample_matching(n, rng)
    picks = rng.choice(1 << (2 * n), size=300, replace=False)
    counts = np.zeros(1 << n, dtype=int)
    for i in picks:
        counts[apply_matching(matching, BitString.from_index(2 * n, int(i))).to_index()] += 1
    assert sum(Fraction(int(c), picks.size) for c in counts) == 1
    g = np.zeros(1 << (2 * n))
    g[picks] = 1.0 / picks.size
    g_hat = transform(CubeFunction(m=2 * n, values=g)).coefficients
    gm_hat = transform(CubeFunction(m=n, values=counts / picks.size)).coefficients
    assert np.max(np.abs(g_hat[lift_index_table(matching)] - gm_hat / 2**n)) <= 1e-15
    assert fourier._lift_identity_gap(picks, matching) <= 1e-15


@pytest.mark.parametrize("size", [DEFAULT_MAX_DIM + 2, 64])
def test_index_tables_refuse_above_the_cap(size):
    matching = PerfectMatching(tuple((k, k + 1) for k in range(1, size, 2)))
    for table in (matching_image_table, lift_index_table):
        with pytest.raises(BudgetExceeded, match=rf"\^{size} exceeds cap"):
            table(matching)


def test_lift_identity_cap_and_validation(monkeypatch):
    def no_tables(matching):
        raise AssertionError("built a 2^2n table")

    monkeypatch.setattr(fourier, "matching_image_table", no_tables)
    monkeypatch.setattr(fourier, "lift_index_table", no_tables)
    matching = sample_matching(7, substream(414, 0))
    with pytest.raises(BudgetExceeded, match="2n=14 exceeds cap 12"):
        fourier._lift_identity_gap(np.array([0]), matching)
