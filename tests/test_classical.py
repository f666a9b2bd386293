import json
import math
import re
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from bhm import classical
from bhm.classical import (
    _bruteforce_one_bit,
    _gap_table,
    _known_edge_law,
    _one_bit_twice_winning_mass,
    alice_constant,
    alice_dictator,
    alice_difference,
    alice_identity,
    alice_parity,
    bayes_success,
    bruteforce_optimal,
    known_edge_success,
    run_subset_trials,
    subset_mixture_success,
    subset_trial_outcomes,
)
from bhm.combinatorics import enumerate_matchings
from bhm.core import BitString, PerfectMatching
from bhm.errors import BudgetExceeded
from bhm.seeding import substream

from helpers import (
    MC_Z_BOUND,
    bayes_oracle,
    bruteforce_one_bit_oracle,
    expected_internal_edges,
    gap_matrix_oracle,
    gap_product_oracle,
    joint_mass_oracle,
    mixture_average,
    mixture_cells,
    subset_promise_success_oracle,
    subset_trial_oracle,
    winning_mass_oracle,
    z_score,
)

FIXTURE = json.loads((Path(__file__).parent / "data" / "bruteforce_n2_c1.json").read_text())
FROZEN_OPTIMUM = Fraction(FIXTURE["optimal_success"])


def test_subset_exact_chain_values_and_monotonicity():
    values = [subset_mixture_success(2, c, promise=False) for c in range(5)]
    assert values == [
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(7, 12),
        Fraction(3, 4),
        Fraction(3, 4),
    ]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_expected_internal_edges():
    # hand-checked means of the known-edge law
    for n, c, mean in [(2, 2, Fraction(1, 3)), (10, 0, 0), (10, 1, 0), (10, 20, 10)]:
        assert expected_internal_edges(n, c) == mean
        assert sum(k * p for k, p in enumerate(_known_edge_law(n, c))) == mean
    with pytest.raises(ValueError):
        _known_edge_law(4, 9)
    # Monte-Carlo mean of the internal-edge count against the formula
    n, c, trials = 16, 8, 20_000
    ks, _ = subset_trial_outcomes(n, c, trials, seed=602)
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
    ks, correct = subset_trial_outcomes(n, c, trials, seed=603)
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
    ks, correct = subset_trial_outcomes(16, 1, 20_000, seed=604)
    assert np.all(ks == 0)
    p_hat = float(correct.mean())
    assert abs(p_hat - 0.5) <= 3 * math.sqrt(0.25 / 20_000)
    assert subset_mixture_success(2, 1, promise=False) == Fraction(1, 2)


def test_subset_runners_match_mixture_oracle():
    # the runner draws (b, d, K) per trial; its frequency must sit in the
    # z-band of the exact mixture success, with and without the promise
    n, c, trials = 4, 4, 5_000
    exact = subset_mixture_success(n, c, promise=False)
    report_array = run_subset_trials(n, c, trials, 605)
    assert report_array.trials == trials
    assert z_score(report_array.estimate, exact, trials) <= MC_Z_BOUND
    report_promise = run_subset_trials(n, c, trials, 613, restrict_promise=True)
    exact_promise = subset_mixture_success(n, c, promise=True)
    assert z_score(report_promise.estimate, exact_promise, trials) <= MC_Z_BOUND


def test_subset_mixture_success_equals_enumeration():
    for n in (1, 2, 3):
        cells = mixture_cells(n)
        for c in range(2 * n + 1):
            law = _known_edge_law(n, c)
            unrestricted = subset_mixture_success(n, c, promise=False)
            assert unrestricted == sum(p * known_edge_success(k) for k, p in enumerate(law))

            def vote_success(inst, c=c):
                agree = disagree = 0
                for i, (k, l) in enumerate(inst.matching.edges, start=1):
                    if k <= c and l <= c:
                        if inst.w.bit(i) == inst.x.bit(k) ^ inst.x.bit(l):
                            agree += 1
                        else:
                            disagree += 1
                if agree == disagree:
                    return Fraction(1, 2)
                return Fraction(int((agree < disagree) == inst.source))

            assert unrestricted == mixture_average(cells, vote_success, promise=False)
            assert subset_mixture_success(n, c, promise=True) == mixture_average(
                cells, vote_success, promise=True
            )


def test_subset_mixture_success_equals_the_fraction_route():
    # the source-0 half alone against both sources summed one Fraction at a time
    grid = [
        (n, c) for n in [*range(1, 13), 24] for c in sorted({0, 1, 2, 3, 5, 11, 2 * n}) if c <= 2 * n
    ]
    for n, c in [*grid, (64, 16), (256, 11)]:
        assert subset_mixture_success(n, c, promise=True) == subset_promise_success_oracle(n, c)


def test_known_edge_law_equals_partner_process():
    for n in range(1, 9):
        for c in range(2 * n + 1):
            # (known points left, inside edges so far) -> probability; at
            # step i, 2n - 2i points are unmatched
            dist = {(c, 0): Fraction(1)}
            for step in range(c):
                after = defaultdict(Fraction)
                for (left, k), prob in dist.items():
                    if left <= 1:
                        after[left, k] += prob
                        continue
                    p = Fraction(left - 1, 2 * n - 2 * step - 1)
                    after[left - 2, k + 1] += prob * p
                    after[left - 1, k] += prob * (1 - p)
                dist = after
            walked = [Fraction(0)] * (c // 2 + 1)
            for (_, k), prob in dist.items():
                walked[k] += prob
            law = _known_edge_law(n, c)
            assert walked == law
            assert sum(k * p for k, p in enumerate(law)) == expected_internal_edges(n, c)


def test_known_edge_counts_follow_exact_law():
    n, c, trials = 16, 8, 20_000
    ks, _ = subset_trial_outcomes(n, c, trials, seed=614)
    counts = np.bincount(ks, minlength=c // 2 + 1)
    assert counts.size == c // 2 + 1
    for k, p in enumerate(_known_edge_law(n, c)):
        if trials * p >= 20:  # where the normal band applies
            assert z_score(counts[k] / trials, p, trials) <= MC_Z_BOUND


def test_subset_trials_promise_restriction():
    # full information on promise instances recovers the source essentially
    # always once the class/source divergence rate is negligible
    _, correct = subset_trial_outcomes(15, 30, 2_000, seed=606, restrict_promise=True)
    assert float(correct.mean()) >= 0.99


def test_subset_size_validation():
    for c in (9, -1):
        with pytest.raises(ValueError, match=f"subset size {c} out of range 0..8"):
            subset_trial_outcomes(4, c, 10, seed=607)
        with pytest.raises(ValueError, match=f"subset size {c} out of range 0..8"):
            run_subset_trials(4, c, 10, seed=607)
    # both ends of the range are valid sizes
    for c in (0, 8):
        assert 0 <= run_subset_trials(4, c, 10, seed=607).estimate <= 1


def test_trial_runners_reject_nonpositive_trials():
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials must be positive"):
            subset_trial_outcomes(4, 2, trials, seed=607)
        with pytest.raises(ValueError, match="trials must be positive"):
            run_subset_trials(4, 2, trials, seed=607)


def test_trial_runners_reject_nonpositive_n():
    for n in (0, -1):
        with pytest.raises(ValueError, match="n must be positive"):
            subset_trial_outcomes(n, 0, 5, seed=607)


def test_subset_trials_refuse_n_numpy_cannot_draw_before_any_draw(monkeypatch):
    # numpy's hypergeometric refuses 10**9 good or bad items, and a trial with
    # no known edge would never ask it, so the refusal must not depend on the draws
    def no_draw(*args):
        raise AssertionError("a trial drew before n was checked")

    monkeypatch.setattr(classical, "substream", no_draw)
    for n in (10**9, 2 * 10**9):
        with pytest.raises(ValueError, match=f"n must be below 1000000000, got {n}"):
            subset_trial_outcomes(n, 0, 5, seed=607)


def test_bayes_success_exact_values():
    n = 2
    assert bayes_success(alice_constant(n), n, 0) == Fraction(1, 2)
    assert bayes_success(alice_parity(n), n, 1) == Fraction(1, 2)
    assert bayes_success(alice_identity(n), n, 4) == Fraction(3, 4)
    assert bayes_success(alice_dictator(n, 1), n, 1) == Fraction(1, 2)
    # the budget counts the classes a map can have, at most 4^n, not 2^c
    assert bayes_success(alice_identity(n), n, 100) == Fraction(3, 4)


def test_alice_parity_is_the_weight_parity_of_x():
    for n in range(1, 7):
        parity = alice_parity(n)
        assert parity.dtype == np.int64
        expected = [BitString.from_index(2 * n, i).hamming_weight() & 1 for i in range(1 << 2 * n)]
        assert parity.tolist() == expected


def test_bayes_success_equals_first_principles_oracle():
    for n in (1, 2):
        cells = mixture_cells(n)
        rng = substream(615, n)
        maps = [
            (alice_constant(n), 0),
            (alice_parity(n), 1),
            (alice_identity(n), 2 * n),
            (alice_dictator(n, 1), 1),
            (alice_dictator(n, 2 * n), 1),
            (rng.integers(0, 2, size=1 << (2 * n)), 1),
            (rng.integers(0, 4, size=1 << (2 * n)), 2),
        ]
        for amap, c in maps:
            oracle = bayes_oracle(cells, lambda x, amap=amap: int(amap[x.to_index()]))
            assert bayes_success(amap, n, c) == oracle


def test_bayes_success_at_n3_equals_both_oracles():
    # n = 3 is the largest n whose mixture cells the oracles list quickly
    # (15,360 cells; n = 4 has 860,160); ENUMERATION_BUDGET admits n up to 6
    n = 3
    cells = mixture_cells(n)
    mass = joint_mass_oracle(n)
    maps = [(alice_identity(n), 2 * n)]
    maps += [(substream(633, n, c).integers(0, 1 << c, size=1 << (2 * n)), c) for c in (1, 2, 3)]
    for amap, c in maps:
        value = bayes_success(amap, n, c)
        assert value == bayes_oracle(cells, lambda x, amap=amap: int(amap[x.to_index()]))
        classes = (amap == np.arange(1 << c)[:, None]).astype(np.int64)
        joint = np.tensordot(classes, mass, axes=1)
        assert value == Fraction(int(winning_mass_oracle(joint).sum()), int(mass.sum()))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bayes_success_equals_the_gap_matrix_product(n):
    maps = [
        (alice_constant(n), 0),
        (alice_parity(n), 1),
        (alice_identity(n), 2 * n),
        (alice_difference(n), 2 * n - 1),
        (alice_dictator(n, 1), 1),
        (alice_dictator(n, 2 * n), 1),
    ]
    maps += [(substream(636, n, c).integers(0, 1 << c, size=1 << (2 * n)), c) for c in (1, 3)]
    for amap, c in maps:
        assert bayes_success(amap, n, c) == gap_product_oracle(amap, n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gap_table_columns_are_the_gap_matrix_rows(n):
    table, scale = _gap_table(n)
    assert table.dtype == np.int64 and table.shape == (1 << n, 1 << n)
    gap, denom = gap_matrix_oracle(n)
    assert denom == 2 * gap.size // (1 << n) * scale
    images = np.stack(
        [classical.matching_image_table(PerfectMatching(p)) for p in enumerate_matchings(2 * n)]
    )
    # the one-bit scan's columns: the oracle's (matching, w) rows, in w-major order
    rows = table[:, images].reshape(-1, gap.shape[1])
    assert sorted(map(tuple, rows.tolist())) == sorted(map(tuple, gap.tolist()))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gap_matrix_is_the_source_gap_of_the_joint_mass(n):
    mass = joint_mass_oracle(n)
    gap, denom = gap_matrix_oracle(n)
    assert gap.dtype == np.int64
    # rows (matching, w), matching major; columns x
    expected = (mass[:, :, 0, :] - mass[:, :, 1, :]).reshape(mass.shape[0], -1).T
    assert np.array_equal(gap, expected)
    # Mx is uniform for uniform x, so no row favours a source on its own
    assert not gap.sum(axis=1).any()
    assert int(mass.sum()) == denom
    # M(complement of x) = Mx, so column x equals column 4^n - 1 - x
    assert np.array_equal(gap, gap[:, ::-1])


def test_bruteforce_is_the_best_one_bit_map_under_the_oracle():
    cells = mixture_cells(1)
    values = [
        bayes_oracle(cells, lambda x, bits=bits: (bits >> x.to_index()) & 1)
        for bits in range(1 << 4)
    ]
    report = bruteforce_optimal(1, 1)
    assert report.success_exact == max(values)
    witness = sum(1 << BitString.from_text(t).to_index() for t in report.witness["message_1"])
    assert values[witness] == max(values)


@pytest.mark.parametrize("n", [1, 2])
def test_one_bit_scores_equal_the_tensordot_oracle(n):
    score = bruteforce_one_bit_oracle(n)
    gap, denom = gap_matrix_oracle(n)
    half = gap.shape[1] // 2
    # the merged scan: upper-half x = half + i and its complement in class 1 at bit i of j
    twice = _one_bit_twice_winning_mass(2 * gap[:, half:-1], denom)
    assert twice.dtype == np.int64
    assert twice.size == 1 << (half - 1)
    full = [
        sum((1 << (half + i)) | (1 << (half - 1 - i)) for i in range(half - 1) if j >> i & 1)
        for j in range(twice.size)
    ]
    # the oracle's entry k scores the full map with bits 2k
    assert np.array_equal(twice, 2 * score[np.array(full) >> 1])
    assert twice.max() == 2 * score.max()
    best = int(np.argmax(score))
    value, alice = _bruteforce_one_bit(n)
    assert value == Fraction(int(score[best]), denom)
    assert alice.dtype == np.int64
    assert sum(int(a) << x for x, a in enumerate(alice)) == 2 * best


def test_one_bit_bruteforce_scans_once_and_never_calls_bayes(monkeypatch):
    # the benchmark's classical.exact.cells gate counts one scan per one-bit report
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    for name in ("_bruteforce_one_bit", "bayes_success"):
        monkeypatch.setattr(classical, name, counted(name, getattr(classical, name)))
    assert bruteforce_optimal(2, 1).success_exact == FROZEN_OPTIMUM
    assert calls == ["_bruteforce_one_bit"]


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
    assert bayes_success(fine, n, 2) >= bayes_success(coarse, n, 1)


def test_bayes_success_validation_and_budget():
    with pytest.raises(BudgetExceeded):
        bayes_success(alice_constant(7), 7, 0)
    with pytest.raises(ValueError):
        bayes_success(np.zeros(8, dtype=int), 2, 0)
    with pytest.raises(ValueError):
        bayes_success(np.full(16, 2), 2, 1)
    with pytest.raises(ValueError, match="c must be nonnegative, got -1"):
        bayes_success(np.zeros(16, dtype=int), 2, -1)
    # n is checked before any shift or table is built
    with pytest.raises(ValueError, match="n must be positive, got 0"):
        bayes_success(np.zeros(1, dtype=int), 0, 0)
    with pytest.raises(ValueError, match="n must be positive, got -1"):
        bayes_success(np.zeros(1, dtype=int), -1, 0)
    # a fractional map is refused, not truncated to the constant map
    with pytest.raises(ValueError, match="must be integers"):
        bayes_success([0.5] * 16, 2, 1)
    # the budget is checked before the map, so no 4^n count is built or printed
    for n in (15, 1001, 10000):
        message = f"exact enumeration needs over 2^{2 * n} tuple visits, budget is 1000000000"
        with pytest.raises(BudgetExceeded, match=re.escape(message)):
            bayes_success(np.zeros(4, dtype=np.int64), n, 1)


@pytest.mark.parametrize("c", [4, 20000, 10**8])
def test_bayes_success_states_the_map_range_as_a_power_of_two(c):
    # the range check compares bit lengths, so no 2^c is built or printed, and
    # a c past the digit limit refuses with the same text
    with pytest.raises(ValueError, match=re.escape(f"alice map values must lie in [0, 2^{c})")):
        bayes_success(np.full(16, -1), 2, c)
    with pytest.raises(ValueError, match=re.escape("alice map values must lie in [0, 2^1)")):
        bayes_success(np.full(16, 2), 2, 1)
    assert bayes_success(alice_identity(2), 2, c) == Fraction(3, 4)


def test_bruteforce_optimal_matches_fixture():
    report = bruteforce_optimal(2, 1)
    assert report.success_exact == FROZEN_OPTIMUM
    record = report.to_json_dict()
    assert record["method"] == "exact"
    assert record["success_prob"] == float(FROZEN_OPTIMUM)
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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_difference_map_is_the_subset_protocol_on_one_more_position(n):
    # its low c bits reveal every parity inside positions 1..c + 1
    for c in range(1, 2 * n):
        low = alice_difference(n) & ((1 << c) - 1)
        assert bayes_success(low, n, c) == subset_mixture_success(n, c + 1, False)


@pytest.mark.parametrize(
    "n, value",
    [(2, Fraction(3, 4)), (3, Fraction(27, 32)), (4, Fraction(27, 32)), (5, Fraction(459, 512))],
)
def test_bruteforce_at_2n_minus_1_bits_is_the_identity_value(n, value):
    report = bruteforce_optimal(n, 2 * n - 1)
    assert report.success_exact == bayes_success(alice_identity(n), n, 2 * n) == value
    assert value == subset_mixture_success(n, 2 * n, False)
    assert report.witness == {"map": "difference"}


def test_large_subset_beats_small_subset():
    # statistical version of cost monotonicity at 2n = 64
    n, trials = 32, 20_000
    small = run_subset_trials(n, 4, trials, seed=611)
    large = run_subset_trials(n, 32, trials, seed=612)
    pooled = math.sqrt(small.sigma**2 + large.sigma**2)
    assert large.estimate - small.estimate > 3 * pooled


def subset_grid():
    """(n, c): subset sizes 0, 1, 5, 11 and 2n where they fit, and c = 40 at n = 30.

    From n = 256, the benchmark's sizes, numpy's binomial runs BTPE, which
    draws a varying number of doubles between the half-word reads.
    """
    for n in (1, 2, 5, 16, 64, 256, 512):
        for c in sorted({0, 1, 5, 11, 2 * n}):
            if c <= 2 * n:
                yield n, c
    # K >= 10 occurs here, the sizes at which numpy's hypergeometric changes method
    yield 30, 40


@pytest.mark.parametrize("promise", [False, True])
@pytest.mark.parametrize("n, c", list(subset_grid()))
def test_subset_trials_equal_the_numpy_trial_oracle(n, c, promise):
    trials, seed = 40, 615
    ks, correct = subset_trial_outcomes(n, c, trials, seed, restrict_promise=promise)
    expected = [subset_trial_oracle(n, c, substream(seed, t), promise) for t in range(trials)]
    assert list(zip(ks.tolist(), correct.tolist())) == expected


def test_subset_grid_reaches_both_hypergeometric_methods():
    # numpy draws 10 <= K <= n - 10 by ratio of uniforms and any other K >= 1 item by item
    methods = set()
    for n, c in subset_grid():
        ks, _ = subset_trial_outcomes(n, c, 40, 615)
        methods |= {10 <= k <= n - 10 for k in ks.tolist() if k}
    assert methods == {False, True}
