import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from bhm.classical import (
    SuccessReport,
    alice_constant,
    alice_dictator,
    alice_identity,
    alice_parity,
    bayes_success,
    bruteforce_optimal,
    expected_internal_edges,
    known_edge_success,
    run_protocol_trials,
    run_subset_trials,
    subset_protocol,
    subset_success_exact,
    subset_trial_outcomes,
)
from bhm.core import BitString
from bhm.errors import BudgetExceeded
from bhm.instances import PromiseClass, classify_promise, sample_promise_instance
from bhm.seeding import substream

FIXTURE = json.loads((Path(__file__).parent / "data" / "bruteforce_n2_c1.json").read_text())
FROZEN_OPTIMUM = Fraction(FIXTURE["optimal_success"])


def test_subset_protocol_message_packing():
    protocol = subset_protocol([3, 1])
    assert protocol.message_bits == 2
    x = BitString.from_text("1010")
    # sorted positions (1, 3); message bit 0 is x_1, bit 1 is x_3
    assert protocol.alice(x) == 0b11
    assert subset_protocol([]).alice(x) == 0
    with pytest.raises(ValueError):
        subset_protocol([0, 2])


def test_subset_protocol_full_information_is_exact_on_promise():
    for t in range(300):
        inst = sample_promise_instance(4, substream(601, t))
        protocol = subset_protocol(range(1, 9))
        message = protocol.alice(inst.x)
        guess = protocol.bob(message, inst.matching, inst.w, substream(601, 10_000 + t))
        expected = 0 if classify_promise(inst) is PromiseClass.ZERO else 1
        assert guess == expected


def test_subset_exact_chain_values_and_monotonicity():
    chain = [(), (1,), (1, 2), (1, 2, 3), (1, 2, 3, 4)]
    values = [subset_success_exact(2, s) for s in chain]
    assert values == [
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(7, 12),
        Fraction(3, 4),
        Fraction(3, 4),
    ]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_subset_exact_budget():
    with pytest.raises(BudgetExceeded):
        subset_success_exact(4, (1, 2))


def test_expected_internal_edges():
    assert expected_internal_edges(2, 2) == Fraction(1, 3)
    assert expected_internal_edges(10, 0) == 0
    assert expected_internal_edges(10, 1) == 0
    assert expected_internal_edges(10, 20) == 10
    with pytest.raises(ValueError):
        expected_internal_edges(4, 9)
    # Monte-Carlo mean of the internal-edge count against the formula
    n, c, trials = 16, 8, 20_000
    ks, _ = subset_trial_outcomes(n, range(1, c + 1), trials, seed=602)
    expected = float(expected_internal_edges(n, c))
    # edge count is bounded by c/2; a coarse variance bound keeps this robust
    sigma_mean = (c / 2) / math.sqrt(trials)
    assert abs(float(ks.mean()) - expected) <= 3 * sigma_mean


def test_known_edge_success_values():
    assert known_edge_success(0) == Fraction(1, 2)
    assert known_edge_success(1) == Fraction(3, 4)
    assert known_edge_success(2) == Fraction(3, 4)
    assert known_edge_success(3) == Fraction(27, 32)
    with pytest.raises(ValueError):
        known_edge_success(-1)
    # closed form: majority of k independent 3/4 observations, coin on ties;
    # even k also exercises the tie identity behind the odd-r reduction
    for k in range(41):
        p, q = Fraction(3, 4), Fraction(1, 4)
        direct = sum(
            math.comb(k, j) * p**j * q ** (k - j) for j in range(k // 2 + 1, k + 1)
        )
        if k % 2 == 0:
            direct += Fraction(math.comb(k, k // 2), 2) * Fraction(3, 16) ** (k // 2)
        assert known_edge_success(k) == direct


def test_subset_trials_match_conditional_oracle():
    n, c, trials = 32, 12, 20_000
    ks, correct = subset_trial_outcomes(n, range(1, c + 1), trials, seed=603)
    for k in np.unique(ks):
        bucket = ks == k
        count = int(bucket.sum())
        if count < 300:
            continue
        p = float(known_edge_success(int(k)))
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / count)
        assert abs(float(correct[bucket].mean()) - p) <= 3.5 * sigma


def test_subset_trials_no_internal_edges_is_fair_coin():
    # a single known position can never complete an edge
    ks, correct = subset_trial_outcomes(16, [5], 20_000, seed=604)
    assert np.all(ks == 0)
    p_hat = float(correct.mean())
    assert abs(p_hat - 0.5) <= 3 * math.sqrt(0.25 / 20_000)
    assert subset_success_exact(2, (1,)) == Fraction(1, 2)


def test_subset_trials_equal_object_protocol_run():
    # array runner and the generic object runner share the same substreams
    n, trials, seed = 4, 300, 605
    report_generic = run_protocol_trials(subset_protocol(range(1, 5)), n, trials, seed)
    report_array = run_subset_trials(n, range(1, 5), trials, seed)
    assert report_generic.success_prob == report_array.success_prob
    assert report_array.protocol == "subset-4"


def test_subset_trials_promise_restriction():
    # full information on promise instances recovers the source essentially
    # always once the class/source divergence rate is negligible
    _, correct = subset_trial_outcomes(
        15, range(1, 31), 2_000, seed=606, restrict_promise=True
    )
    assert float(correct.mean()) >= 0.99


def test_subset_position_validation():
    with pytest.raises(ValueError):
        subset_trial_outcomes(4, [9], 10, seed=607)
    with pytest.raises(ValueError):
        subset_trial_outcomes(4, [0], 10, seed=607)


def test_trial_runners_reject_nonpositive_trials():
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials must be positive"):
            subset_trial_outcomes(4, [1, 2], trials, seed=607)
        with pytest.raises(ValueError, match="trials must be positive"):
            run_subset_trials(4, [1, 2], trials, seed=607)
        with pytest.raises(ValueError, match="trials must be positive"):
            run_protocol_trials(subset_protocol([1, 2]), 4, trials, seed=607)


def test_trial_runners_reject_nonpositive_n():
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be positive"):
            subset_trial_outcomes(n, [], 5, seed=607)
        with pytest.raises(ValueError, match="n must be positive"):
            run_protocol_trials(subset_protocol([]), n, 5, seed=607)


def test_bayes_success_exact_values():
    n = 2
    assert bayes_success(alice_constant(n), n, 0) == Fraction(1, 2)
    assert bayes_success(alice_parity(n), n, 1) == Fraction(1, 2)
    assert bayes_success(alice_identity(n), n, 4) == Fraction(3, 4)
    assert bayes_success(alice_dictator(n, 1), n, 1) == Fraction(1, 2)


def test_bayes_success_message_relabeling_invariance():
    n = 2
    rng = substream(608, 0)
    amap = rng.integers(0, 2, size=16)
    assert bayes_success(amap, n, 1) == bayes_success(1 - amap, n, 1)


def test_bayes_success_refinement_dominates():
    # splitting a message class can only help the best Bob
    n = 2
    rng = substream(609, 0)
    coarse = rng.integers(0, 2, size=16)
    fine = coarse * 2 + rng.integers(0, 2, size=16)
    assert bayes_success(fine, n, 2, budget=200_000) >= bayes_success(coarse, n, 1)


def test_bayes_success_validation_and_budget():
    with pytest.raises(BudgetExceeded):
        bayes_success(alice_constant(4), 4, 0)
    with pytest.raises(ValueError):
        bayes_success(np.zeros(8, dtype=int), 2, 0)
    with pytest.raises(ValueError):
        bayes_success(np.full(16, 2), 2, 1)


def test_bruteforce_optimal_matches_fixture():
    report = bruteforce_optimal(2, 1)
    assert report.method == "exact"
    assert report.success_exact == FROZEN_OPTIMUM
    assert report.success_prob == float(FROZEN_OPTIMUM)
    # witness reconstructs to the same exact value through the other route
    amap = np.zeros(16, dtype=np.int64)
    for text in report.witness["message_1"]:
        amap[BitString.from_text(text).to_index()] = 1
    assert bayes_success(amap, 2, 1) == FROZEN_OPTIMUM
    assert len(report.witness["message_0"]) + len(report.witness["message_1"]) == 16


def test_bruteforce_dominates_heuristics():
    best = bruteforce_optimal(2, 1).success_exact
    for heuristic in (
        alice_parity(2),
        alice_dictator(2, 1),
        alice_dictator(2, 3),
    ):
        assert bayes_success(heuristic, 2, 1) <= best
    rng = substream(610, 0)
    for _ in range(25):
        amap = rng.integers(0, 2, size=16)
        assert bayes_success(amap, 2, 1) <= best


def test_bruteforce_edge_cases_and_budgets():
    assert bruteforce_optimal(2, 0).success_exact == Fraction(1, 2)
    full = bruteforce_optimal(2, 4)
    assert full.success_exact == Fraction(3, 4)
    assert full.witness == {"map": "identity"}
    with pytest.raises(BudgetExceeded):
        bruteforce_optimal(2, 2)
    with pytest.raises(BudgetExceeded):
        bruteforce_optimal(3, 1)


def test_success_report_validation():
    with pytest.raises(ValueError):
        SuccessReport("p", 1, "exact", 0.5, sigma=0.1)
    with pytest.raises(ValueError):
        SuccessReport("p", 1, "monte_carlo", 0.5)
    with pytest.raises(ValueError):
        SuccessReport("p", 1, "guess", 0.5)
    report = SuccessReport("p", 1, "monte_carlo", 0.5, trials=10, sigma=0.1)
    record = report.to_json_dict()
    assert record["trials"] == 10 and record["method"] == "monte_carlo"


def test_large_subset_beats_small_subset():
    # statistical version of cost monotonicity at 2n = 64
    n, trials = 32, 20_000
    small = run_subset_trials(n, range(1, 5), trials, seed=611)
    large = run_subset_trials(n, range(1, 33), trials, seed=612)
    pooled = math.sqrt(small.sigma**2 + large.sigma**2)
    assert large.success_prob - small.success_prob > 3 * pooled
