import math
from fractions import Fraction

import numpy as np
import pytest

from bhm import combinatorics
from bhm.combinatorics import (
    count_matchings,
    enumerate_matchings,
    gamma_bound,
    gamma_exact,
    gamma_monte_carlo,
)
from bhm.core import BitString, PerfectMatching
from bhm.seeding import substream

from helpers import enumerate_matchings_oracle, gamma_monte_carlo_oracle


def test_count_matchings_values():
    assert [count_matchings(t) for t in (2, 4, 6, 8, 10)] == [1, 3, 15, 105, 945]
    assert count_matchings(0) == 1


def test_count_matchings_equals_enumeration():
    for t in range(2, 11, 2):
        listing = enumerate_matchings(t)
        assert len(listing) == count_matchings(t)
        # all distinct, all valid, and distinct again as matchings, whose
        # equality and hash compare the canonical pair bytes
        assert len(set(listing)) == len(listing)
        assert len({PerfectMatching(pairs) for pairs in listing}) == count_matchings(t)


@pytest.mark.parametrize("t", range(0, 13, 2))
def test_enumeration_equals_the_generator_oracle_in_order(t):
    assert enumerate_matchings(t) == enumerate_matchings_oracle(t)


def test_enumeration_returns_a_new_list_each_call():
    first = enumerate_matchings(6)
    first.append(((1, 2),))
    second = enumerate_matchings(6)
    assert second is not first
    assert second == enumerate_matchings_oracle(6)


def test_balanced_product_equals_math_prod():
    # empty, leaf-sized and split ranges, rising and falling, odd and mixed steps
    for start in (1, 3, 199, 2 * 10**5 - 1):
        for count in (0, 1, 2, 15, 16, 17, 33, 100, 1001):
            for step in (2, -2, 1):
                factors = range(start, start + step * count, step)
                assert combinatorics._product(factors) == math.prod(factors), (start, count, step)


def test_count_matchings_rejects_odd():
    with pytest.raises(ValueError):
        count_matchings(5)
    with pytest.raises(ValueError):
        enumerate_matchings(3)
    with pytest.raises(ValueError):
        count_matchings(-2)


def test_gamma_exact_closed_forms():
    for n in (1, 2, 5, 16, 50):
        assert gamma_exact(n, 2) == Fraction(1, 2 * n - 1)
        assert gamma_exact(n, 2 * n) == 1
    assert gamma_exact(2, 2) == Fraction(1, 3)
    assert gamma_exact(8, 6) == Fraction(1, 143)
    n = 10**6
    assert gamma_exact(n, 4) == Fraction(3, (2 * n - 1) * (2 * n - 3))
    assert gamma_exact(n, 2 * n - 2) == Fraction(1, 2 * n - 1)


def test_gamma_exact_equals_telescoped_product():
    for n in (2, 4, 8, 16):
        for k in range(2, 2 * n + 1, 2):
            numer = math.prod(range(k - 1, 0, -2))
            denom = math.prod(range(2 * n - 1, 2 * n - k, -2))
            assert gamma_exact(n, k) == Fraction(numer, denom)


def test_gamma_exact_equals_double_factorial_ratio():
    for n in range(1, 65):
        for k in range(2, 2 * n + 1, 2):
            ratio = Fraction(
                count_matchings(k) * count_matchings(2 * n - k), count_matchings(2 * n)
            )
            assert gamma_exact(n, k) == ratio


def test_gamma_exact_matches_direct_enumeration():
    # count matchings whose edges avoid splitting the support 1^k 0^(2n-k)
    for n, k in ((2, 2), (3, 2), (3, 4), (4, 4), (4, 6)):
        hits = 0
        for pairs in enumerate_matchings(2 * n):
            if all((a <= k) == (b <= k) for a, b in pairs):
                hits += 1
        assert gamma_exact(n, k) == Fraction(hits, count_matchings(2 * n))


def test_gamma_validation():
    with pytest.raises(ValueError):
        gamma_exact(4, 3)
    with pytest.raises(ValueError):
        gamma_exact(4, 0)
    with pytest.raises(ValueError):
        gamma_exact(4, 10)
    with pytest.raises(ValueError):
        gamma_bound(4, 5)


@pytest.mark.parametrize(
    "call",
    [
        lambda: gamma_exact(0, 2),
        lambda: gamma_bound(0, 2),
        lambda: gamma_monte_carlo(0, 2, 10, substream(205, 0)),
    ],
    ids=["gamma_exact", "gamma_bound", "gamma_monte_carlo"],
)
def test_gamma_functions_name_a_nonpositive_n(call):
    with pytest.raises(ValueError, match="n must be positive, got 0"):
        call()


def test_gamma_bound_dominates_exact():
    for n in range(1, 33):
        for k in range(2, 2 * n + 1, 2):
            exact = gamma_exact(n, k)
            bound = Fraction(k, 2 * n) ** (k // 2)
            assert exact <= bound
            assert gamma_bound(n, k) == pytest.approx(float(bound))
    assert gamma_bound(2, 4) == 1.0  # equality at k = 2n


def test_gamma_bound_guard_raises(monkeypatch):
    # an explicit check, not an assert, so it survives python -O
    monkeypatch.setattr(combinatorics, "gamma_exact", lambda n, k: Fraction(1))
    with pytest.raises(RuntimeError, match="exceeds the bound"):
        gamma_bound(4, 2)


def test_proof_step_lower_bound_chain():
    # k / (4 gamma^(1/k)) >= sqrt(2nk)/4 >= sqrt(n)/2 over the full grid
    for n in (4, 8, 16, 32):
        for k in range(2, min(2 * n, 16) + 1, 2):
            delta = float(gamma_exact(n, k)) ** (1.0 / k)
            assert k / (4 * delta) >= math.sqrt(2 * n * k) / 4 - 1e-12
            assert math.sqrt(2 * n * k) / 4 >= math.sqrt(n) / 2 - 1e-12


def test_gamma_monte_carlo_matches_exact():
    cases = [(4, 2, 100_000), (8, 6, 20_000)]
    for i, (n, k, trials) in enumerate(cases):
        exact = float(gamma_exact(n, k))
        est = gamma_monte_carlo(n, k, trials, substream(201, i))
        sigma = max(math.sqrt(exact * (1 - exact) / trials), 1e-9)
        assert abs(est.estimate - exact) <= 3 * sigma
        assert est.trials == trials
        assert est.successes == round(est.estimate * trials)


def test_gamma_monte_carlo_at_full_support_is_one():
    est = gamma_monte_carlo(3, 6, 500, substream(202, 0))
    assert est.estimate == 1.0 and est.sigma == 0.0


def test_gamma_monte_carlo_support_independence():
    n, k, trials = 6, 4, 40_000
    rng = substream(203, 0)
    bits = np.zeros(2 * n, dtype=np.uint8)
    bits[rng.choice(2 * n, size=k, replace=False)] = 1
    est_canonical = gamma_monte_carlo(n, k, trials, substream(203, 1))
    est_random = gamma_monte_carlo(
        n, k, trials, substream(203, 2), z=BitString(bits)
    )
    pooled = math.sqrt(est_canonical.sigma**2 + est_random.sigma**2)
    assert abs(est_canonical.estimate - est_random.estimate) <= 3 * pooled


def _assert_draws_as_one_permutation_per_trial(n, k, trials, z=None):
    rng, oracle_rng = substream(206, n, k), substream(206, n, k)
    est = gamma_monte_carlo(n, k, trials, rng, z=z)
    if z is None:
        z = BitString(np.repeat(np.array([1, 0], dtype=np.uint8), [k, 2 * n - k]))
    assert est.successes == gamma_monte_carlo_oracle(z, trials, oracle_rng)
    # the generator ends where one permutation(2n) call per trial leaves it
    assert rng.random() == oracle_rng.random()


@pytest.mark.parametrize("n, k, trials", [(4, 2, 2000), (8, 4, 2000), (16, 8, 2000), (3, 6, 500)])
def test_gamma_monte_carlo_draws_as_one_permutation_per_trial(n, k, trials):
    _assert_draws_as_one_permutation_per_trial(n, k, trials)


def test_gamma_monte_carlo_draws_as_one_permutation_per_trial_on_a_given_support():
    z = BitString.from_text("0110000000100100")
    _assert_draws_as_one_permutation_per_trial(8, 4, 2000, z)


def test_gamma_monte_carlo_draws_as_one_permutation_per_trial_across_blocks():
    n, k, trials = 1024, 2, 1200
    assert trials * 2 * n > 2 * combinatorics._PERMUTATION_BLOCK  # at least two boundaries
    _assert_draws_as_one_permutation_per_trial(n, k, trials)


def test_gamma_monte_carlo_validation():
    with pytest.raises(ValueError):
        gamma_monte_carlo(4, 3, 100, substream(204, 0))
    with pytest.raises(ValueError):
        gamma_monte_carlo(4, 2, 0, substream(204, 1))
    with pytest.raises(ValueError):
        gamma_monte_carlo(4, 2, 10, substream(204, 2), z=BitString.from_text("11110000"))
