import json
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from bhm.core import BitString, PerfectMatching
from bhm.errors import DimensionMismatch
from bhm.instances import (
    NOISE_BIAS,
    BhmInstance,
    PromiseClass,
    _count_law,
    _sample_source_and_count,
    classify_promise,
    density_mu,
    pinned_instance,
    promise_outside_probability,
    sample_biased,
    sample_matching,
    sample_promise_instance,
    sample_T,
    sample_w,
)
from bhm.seeding import substream

from helpers import MC_Z_BOUND, chi_square_statistic, z_score


def test_density_values():
    assert density_mu(0, BitString.from_text("00")) == Fraction(9, 16)
    assert density_mu(1, BitString.from_text("0")) == Fraction(1, 4)
    assert density_mu(1, BitString.from_text("11")) == Fraction(9, 16)
    assert density_mu(0, BitString.from_text("01")) == Fraction(3, 16)


@pytest.mark.parametrize("n", [1, 2, 3, 6, 9, 12])
def test_density_normalizes_exactly(n):
    for b in (0, 1):
        total = sum(density_mu(b, BitString.from_index(n, i)) for i in range(1 << n))
        assert total == 1


def test_sample_biased_statistics():
    rng = substream(301, 0)
    trials = 20_000
    zeros = sum(sample_biased(0, 1, rng).bits[0] == 0 for _ in range(trials))
    sigma = math.sqrt(0.75 * 0.25 / trials)
    assert abs(zeros / trials - 0.75) <= 3 * sigma

    both_ones = sum(sample_biased(1, 2, rng).to_text() == "11" for _ in range(trials))
    p = 9 / 16
    assert abs(both_ones / trials - p) <= 3 * math.sqrt(p * (1 - p) / trials)

    long_draw = sample_biased(0, 10_000, rng)
    ones = long_draw.hamming_weight() / 10_000
    assert abs(ones - 0.25) <= 3 * math.sqrt(0.25 * 0.75 / 10_000)


def test_sample_matching_trivial_and_validation():
    rng = substream(302, 0)
    for _ in range(10):
        assert sample_matching(1, rng) == PerfectMatching(((1, 2),))
    with pytest.raises(ValueError):
        sample_matching(0, rng)


@pytest.mark.parametrize("n, trials", [(2, 150_000), (3, 150_000)])
def test_sample_matching_is_uniform(n, trials):
    from bhm.combinatorics import count_matchings

    rng = substream(303, n)
    counts: dict[str, int] = {}
    for _ in range(trials):
        key = sample_matching(n, rng).to_text()
        counts[key] = counts.get(key, 0) + 1
    total_cells = count_matchings(2 * n)
    assert len(counts) == total_cells
    observed = np.array(list(counts.values()), dtype=float)
    expected = np.full(total_cells, trials / total_cells)
    stat = chi_square_statistic(observed, expected)
    # alpha = 1e-6 on a fixed seed: deterministic, fails only on a real skew
    assert stat < scipy.stats.chi2.ppf(1 - 1e-6, df=total_cells - 1)


def test_sample_w_agreement_probabilities():
    rng = substream(304, 0)
    n = 100
    x = BitString.from_array(rng.integers(0, 2, size=2 * n))
    matching = sample_matching(n, rng)
    trials = 5_000
    from bhm.core import apply_matching, hamming_distance

    parities = apply_matching(matching, x)
    distances = [
        hamming_distance(parities, sample_w(x, matching, 0, rng)) for _ in range(trials)
    ]
    mean = float(np.mean(distances))
    sigma_mean = math.sqrt(n * 0.25 * 0.75 / trials)
    assert abs(mean - n * 0.25) <= 3 * sigma_mean
    # complement side: w from source 1 disagrees with 3/4 of the parities
    distances1 = [
        hamming_distance(parities, sample_w(x, matching, 1, rng)) for _ in range(trials)
    ]
    assert abs(float(np.mean(distances1)) - n * 0.75) <= 3 * sigma_mean


def test_sample_w_distribution_is_binomial():
    rng = substream(305, 0)
    n, trials = 20, 20_000
    x = BitString.from_array(rng.integers(0, 2, size=2 * n))
    matching = sample_matching(n, rng)
    from bhm.core import apply_matching, hamming_distance

    parities = apply_matching(matching, x)
    counts = np.zeros(n + 1)
    for _ in range(trials):
        counts[hamming_distance(parities, sample_w(x, matching, 0, rng))] += 1
    pmf = np.array([float(math.comb(n, d)) * 0.25**d * 0.75 ** (n - d) for d in range(n + 1)])
    # pool the sparse upper tail so the chi-square approximation is valid
    cut = 12
    observed = np.append(counts[:cut], counts[cut:].sum())
    expected = trials * np.append(pmf[:cut], pmf[cut:].sum())
    stat = chi_square_statistic(observed, expected)
    assert stat < scipy.stats.chi2.ppf(1 - 1e-6, df=cut)


def test_sample_T_marginals():
    rng = substream(306, 0)
    trials = 40_000
    sources = 0
    x_counts = np.zeros(16)
    for _ in range(trials):
        inst = sample_T(2, rng)
        sources += inst.source
        x_counts[inst.x.to_index()] += 1
    assert abs(sources / trials - 0.5) <= 3 * math.sqrt(0.25 / trials)
    stat = chi_square_statistic(x_counts, np.full(16, trials / 16))
    assert stat < scipy.stats.chi2.ppf(1 - 1e-6, df=15)


def test_sample_T_outside_rate_matches_exact_tail():
    n, trials = 200, 20_000
    exact = float(promise_outside_probability(n))
    outside = 0
    for t in range(trials):
        inst = sample_T(n, substream(307, t))
        outside += classify_promise(inst) is PromiseClass.OUTSIDE
    sigma = math.sqrt(exact * (1 - exact) / trials)
    assert abs(outside / trials - exact) <= 3 * sigma


def test_sample_T_is_reproducible():
    a = sample_T(8, substream(308, 5))
    b = sample_T(8, substream(308, 5))
    c = sample_T(8, substream(308, 6))
    assert a == b
    assert a != c
    assert a.to_json_dict() == b.to_json_dict()
    assert BhmInstance.from_json_dict(a.to_json_dict()) == a


def test_instance_validation_and_json():
    matching = PerfectMatching(((1, 2), (3, 4)))
    inst = BhmInstance(
        x=BitString.from_text("0110"), matching=matching, w=BitString.from_text("10")
    )
    assert inst.source is None
    assert "source" not in inst.to_json_dict()
    with pytest.raises(DimensionMismatch):
        BhmInstance(BitString.from_text("011"), matching, BitString.from_text("10"))
    with pytest.raises(DimensionMismatch):
        BhmInstance(BitString.from_text("0110"), matching, BitString.from_text("100"))
    with pytest.raises(ValueError):
        BhmInstance(BitString.from_text("0110"), matching, BitString.from_text("10"), 2)
    bad = inst.to_json_dict()
    bad["n"] = 3
    with pytest.raises(ValueError):
        BhmInstance.from_json_dict(bad)


@pytest.mark.parametrize(
    "n, d, expected",
    [
        (3, 1, PromiseClass.ZERO),
        (3, 2, PromiseClass.ONE),
        (4, 2, PromiseClass.OUTSIDE),
        (6, 2, PromiseClass.ZERO),
        (6, 4, PromiseClass.ONE),
        (6, 3, PromiseClass.OUTSIDE),
    ],
)
def test_classify_promise_thresholds(n, d, expected):
    inst = pinned_instance(n, d, source=0, rng=substream(309, n * 10 + d))
    assert inst.disagreements() == d
    assert classify_promise(inst) is expected


def test_sample_promise_instance_never_outside():
    for t in range(200):
        inst = sample_promise_instance(3, substream(310, t))
        assert classify_promise(inst) is not PromiseClass.OUTSIDE


def test_source_and_count_follow_the_exact_law():
    n, trials = 12, 20_000
    for promise in (False, True):
        rng = substream(311, int(promise))
        draws = np.array([_sample_source_and_count(n, rng, promise) for _ in range(trials)])
        assert z_score(float(draws[:, 0].mean()), 0.5, trials) <= MC_Z_BOUND
        for b in (0, 1):
            ds = draws[draws[:, 0] == b, 1]
            counts = np.bincount(ds, minlength=n + 1)
            law = _count_law(n, b, promise)
            for d in range(n + 1):
                if d not in law:
                    assert counts[d] == 0
                elif ds.size * law[d] >= 20:  # where the normal band applies
                    assert z_score(counts[d] / ds.size, law[d], ds.size) <= MC_Z_BOUND


def test_promise_outside_probability_exact():
    # direct enumeration over noise strings at small n
    for n in (2, 4, 5, 7):
        total = Fraction(0)
        for e in range(1 << n):
            d = bin(e).count("1")
            if 3 * d > n and 3 * d < 2 * n:
                weight = bin(e).count("1")
                total += NOISE_BIAS ** (n - weight) * (1 - NOISE_BIAS) ** weight
        assert promise_outside_probability(n) == total
    # symmetry of the two source-conditioned tails and a scipy cross-check
    n = 100
    exact = promise_outside_probability(n)
    lo, hi = n // 3 + 1, (2 * n - 1) // 3
    from_scipy = scipy.stats.binom.cdf(hi, n, 0.25) - scipy.stats.binom.cdf(lo - 1, n, 0.25)
    assert float(exact) == pytest.approx(from_scipy, rel=1e-10)
    from_scipy_b1 = scipy.stats.binom.cdf(hi, n, 0.75) - scipy.stats.binom.cdf(lo - 1, n, 0.75)
    assert float(exact) == pytest.approx(from_scipy_b1, rel=1e-10)


def test_promise_outside_probability_decreases():
    values = [promise_outside_probability(n) for n in (50, 100, 200, 400)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_sampler_validation():
    rng = substream(311, 0)
    with pytest.raises(ValueError):
        sample_biased(2, 4, rng)
    with pytest.raises(ValueError):
        sample_biased(0, 0, rng)
    with pytest.raises(ValueError):
        sample_T(0, rng)
    x = BitString.from_text("0110")
    with pytest.raises(ValueError):
        sample_w(x, PerfectMatching(((1, 2), (3, 4))), 3, rng)
    with pytest.raises(DimensionMismatch):
        sample_w(BitString.from_text("01"), PerfectMatching(((1, 2), (3, 4))), 0, rng)


@st.composite
def labelled_instances(draw):
    n = draw(st.integers(1, 30))
    points = draw(st.permutations(range(1, 2 * n + 1)))
    return BhmInstance(
        x=BitString(draw(st.lists(st.integers(0, 1), min_size=2 * n, max_size=2 * n))),
        matching=PerfectMatching(tuple(zip(points[0::2], points[1::2]))),
        w=BitString(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))),
        source=draw(st.sampled_from([None, 0, 1])),
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(labelled_instances())
def test_instance_json_round_trip(inst):
    record = json.loads(json.dumps(inst.to_json_dict()))
    assert BhmInstance.from_json_dict(record) == inst
