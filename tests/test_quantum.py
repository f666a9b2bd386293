import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from bhm import quantum
from bhm.core import BitString, PerfectMatching, apply_matching
from bhm.errors import DimensionMismatch
from bhm.instances import BhmInstance, pinned_instance, sample_matching
from bhm.quantum import (
    MessageState,
    empirical_success,
    exact_success,
    majority_success,
    majority_vote,
    majority_vote_count,
    matching_basis,
    measure_matching_basis,
    message_qubits,
    mixture_success,
    outcome_probabilities,
    prepare_state,
    run_repeated,
    run_single,
)
from bhm.seeding import substream

from helpers import binomial_tail_at_least, mixture_average, mixture_cells


def test_prepare_state_examples():
    s = prepare_state(BitString.from_text("00"))
    assert np.allclose(s.amplitudes, [1 / math.sqrt(2)] * 2)
    s = prepare_state(BitString.from_text("01"))
    assert np.allclose(s.amplitudes, [1 / math.sqrt(2), -1 / math.sqrt(2)])
    rng = substream(501, 0)
    for n in (1, 5, 64):
        x = BitString.from_array(rng.integers(0, 2, size=2 * n))
        amps = prepare_state(x).amplitudes
        assert abs(float(amps @ amps) - 1.0) <= 1e-12
    with pytest.raises(DimensionMismatch):
        prepare_state(BitString.from_text("010"))


def test_message_state_validation():
    with pytest.raises(ValueError):
        MessageState(amplitudes=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        MessageState(amplitudes=np.array([0.5, 0.5, 0.5]))


def test_matching_basis_is_orthonormal():
    rng = substream(502, 0)
    for n in (1, 2, 4, 8):
        basis = matching_basis(sample_matching(n, rng))
        assert np.max(np.abs(basis @ basis.T - np.eye(2 * n))) <= 1e-12


def test_outcome_probabilities_exhaustive_small():
    matching_sets = [
        PerfectMatching(((1, 2), (3, 4))),
        PerfectMatching(((1, 3), (2, 4))),
        PerfectMatching(((1, 4), (2, 3))),
    ]
    for matching in matching_sets:
        for idx in range(16):
            x = BitString.from_index(4, idx)
            probs = outcome_probabilities(prepare_state(x), matching)
            assert abs(float(probs.sum()) - 1.0) <= 1e-12
            parities = apply_matching(matching, x)
            for e in range(2):
                live = 2 * e if parities.bits[e] == 0 else 2 * e + 1
                dead = 2 * e + 1 if parities.bits[e] == 0 else 2 * e
                assert probs[live] == pytest.approx(0.5, abs=1e-12)
                assert probs[dead] == pytest.approx(0.0, abs=1e-12)


def test_outcome_probabilities_random_larger():
    rng = substream(503, 0)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        x = BitString.from_array(rng.integers(0, 2, size=2 * n))
        matching = sample_matching(n, rng)
        probs = outcome_probabilities(prepare_state(x), matching)
        assert abs(float(probs.sum()) - 1.0) <= 1e-12
        live = probs[probs > 1e-15]
        assert live.size == n
        assert np.allclose(live, 1.0 / n, atol=1e-12)


@pytest.mark.parametrize("method", ["projector", "analytic"])
def test_measurement_sign_is_deterministic(method):
    rng = substream(504, 0)
    single = PerfectMatching(((1, 2),))
    for _ in range(50):
        out = measure_matching_basis(prepare_state(BitString.from_text("00")), single, rng, method)
        assert (out.edge_index, out.sign) == (1, 1)
        out = measure_matching_basis(prepare_state(BitString.from_text("01")), single, rng, method)
        assert (out.edge_index, out.sign) == (1, -1)


@pytest.mark.parametrize("method", ["projector", "analytic"])
def test_measured_sign_always_matches_parity(method):
    rng = substream(505, 0)
    for _ in range(30):
        n = int(rng.integers(1, 10))
        x = BitString.from_array(rng.integers(0, 2, size=2 * n))
        matching = sample_matching(n, rng)
        parities = apply_matching(matching, x)
        out = measure_matching_basis(prepare_state(x), matching, rng, method)
        assert out.parity() == parities.bits[out.edge_index - 1]


def test_measurement_method_validation():
    rng = substream(506, 0)
    state = prepare_state(BitString.from_text("00"))
    with pytest.raises(ValueError):
        measure_matching_basis(state, PerfectMatching(((1, 2),)), rng, method="exact")
    with pytest.raises(DimensionMismatch):
        measure_matching_basis(state, PerfectMatching(((1, 2), (3, 4))), rng)


def test_measured_parity_guard_raises(monkeypatch):
    # a projector that puts the mass on the wrong sign must be caught by an
    # explicit check, not an assert, so the guard survives python -O
    real = quantum.outcome_probabilities

    def swapped(state, matching):
        return real(state, matching).reshape(-1, 2)[:, ::-1].ravel()

    monkeypatch.setattr(quantum, "outcome_probabilities", swapped)
    state = prepare_state(BitString.from_text("01"))
    with pytest.raises(RuntimeError, match="contradicts the parity"):
        measure_matching_basis(state, PerfectMatching(((1, 2),)), substream(506, 1), "projector")


@pytest.mark.parametrize("n", [2, 4, 8])
def test_projector_and_analytic_agree_in_distribution(n):
    shots = 100_000
    rng = substream(507, n)
    x = BitString.from_array(rng.integers(0, 2, size=2 * n))
    matching = sample_matching(n, rng)
    state = prepare_state(x)
    exact = outcome_probabilities(state, matching)
    for method in ("projector", "analytic"):
        hist = np.zeros(2 * n)
        for _ in range(shots):
            out = measure_matching_basis(state, matching, rng, method)
            hist[2 * (out.edge_index - 1) + (0 if out.sign > 0 else 1)] += 1
        freq = hist / shots
        assert float(freq[exact < 1e-15].sum()) == 0.0  # forbidden outcomes never appear
        live = exact > 1e-15
        sigma = np.sqrt(exact[live] * (1 - exact[live]) / shots)
        assert np.max(np.abs(freq[live] - exact[live]) / sigma) <= 4.0


def test_run_single_closed_form():
    # with d disagreements, a zero-source guess is right with chance (n-d)/n
    trials = 30_000
    for case, (n, d) in enumerate([(8, 0), (8, 2), (16, 7)]):
        inst = pinned_instance(n, d, source=0, rng=substream(508, case))
        rng = substream(508, 100 + case)
        hits = sum(run_single(inst, rng) == 0 for _ in range(trials))
        p = (n - d) / n
        if d == 0:
            assert hits == trials
        else:
            assert abs(hits / trials - p) <= 3 * math.sqrt(p * (1 - p) / trials)


def test_run_single_projector_path_agrees():
    inst = pinned_instance(4, 1, source=0, rng=substream(509, 0))
    trials = 20_000
    hits_p = sum(run_single(inst, substream(509, 1, t), "projector") == 0 for t in range(trials))
    hits_a = sum(run_single(inst, substream(509, 2, t), "analytic") == 0 for t in range(trials))
    p = 0.75
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(hits_p / trials - p) <= 3 * sigma
    assert abs(hits_a / trials - p) <= 3 * sigma


def test_run_repeated_validation_and_cost():
    inst = pinned_instance(5, 1, source=0, rng=substream(510, 0))
    rng = substream(510, 1)
    with pytest.raises(ValueError):
        run_repeated(inst, 2, rng)
    with pytest.raises(ValueError):
        run_repeated(inst, 0, rng)
    report = run_repeated(inst, 5, rng)
    assert report.shots == 5
    assert report.qubit_cost == 5 * message_qubits(5)
    assert report.truth == 0
    assert report.correct == (report.guess == 0)


def test_run_repeated_r1_matches_single_shot_rate():
    inst = pinned_instance(6, 2, source=0, rng=substream(511, 0))
    trials = 20_000
    p = float(exact_success(inst))
    hits = sum(
        run_repeated(inst, 1, substream(511, 1, t)).guess == 0 for t in range(trials)
    )
    assert abs(hits / trials - p) <= 3 * math.sqrt(p * (1 - p) / trials)


def test_run_repeated_amplifies():
    # single-shot success exactly 2/3; r = 3 lifts it to 20/27
    inst = BhmInstance(
        x=BitString.zeros(6),
        matching=PerfectMatching(((1, 2), (3, 4), (5, 6))),
        w=BitString.from_text("100"),
        source=0,
    )
    assert exact_success(inst, 1) == Fraction(2, 3)
    assert exact_success(inst, 3) == Fraction(20, 27)
    trials = 30_000
    hits = sum(
        run_repeated(inst, 3, substream(512, t)).guess == 0 for t in range(trials)
    )
    p = 20 / 27
    assert abs(hits / trials - p) <= 3 * math.sqrt(p * (1 - p) / trials)


def test_run_repeated_methods_agree():
    inst = pinned_instance(4, 1, source=1, rng=substream(513, 0))
    trials = 10_000
    p = float(exact_success(inst, 3))
    for method in ("analytic", "projector"):
        hits = sum(
            run_repeated(inst, 3, substream(513, 1, t), method=method).guess == 1
            for t in range(trials)
        )
        assert abs(hits / trials - p) <= 3 * math.sqrt(p * (1 - p) / trials)


def test_exact_success_values():
    inst = pinned_instance(10, 0, source=0, rng=substream(514, 0))
    assert exact_success(inst) == 1
    inst = pinned_instance(3, 1, source=0, rng=substream(514, 1))
    assert exact_success(inst) == Fraction(2, 3)
    inst = pinned_instance(100, 25, source=0, rng=substream(514, 2))
    assert exact_success(inst, 5) == Fraction(459, 512)
    inst1 = pinned_instance(100, 25, source=1, rng=substream(514, 3))
    assert exact_success(inst1) == Fraction(25, 100)
    unlabeled = BhmInstance(inst.x, inst.matching, inst.w, None)
    with pytest.raises(ValueError):
        exact_success(unlabeled)
    with pytest.raises(ValueError):
        exact_success(inst, 4)


def test_exact_success_guard_raises(monkeypatch):
    monkeypatch.setattr(quantum, "majority_success", lambda p, r: float(p))
    inst = pinned_instance(4, 1, source=0, rng=substream(514, 4))
    with pytest.raises(TypeError, match="not Fraction"):
        exact_success(inst)


def test_majority_vote_is_the_batched_analytic_run():
    # one draw of r edge indices, then the majority of their disagreement bits
    disagree = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
    for r in (1, 3, 7):
        rng_a, rng_b = substream(516, r), substream(516, r)
        ones = int(disagree[rng_b.integers(0, 5, size=r)].sum())
        assert quantum.majority_vote(disagree, r, rng_a) == int(2 * ones > r)
        assert rng_a.integers(1 << 30) == rng_b.integers(1 << 30)
    assert quantum.majority_vote(np.ones(4, dtype=np.uint8), 5, substream(516, 0)) == 1
    assert quantum.majority_vote(np.zeros(4, dtype=np.uint8), 5, substream(516, 0)) == 0


def test_exact_success_on_promise_is_at_least_two_thirds():
    # against the promise class: (n-d)/n >= 2/3 when 3d <= n, d/n >= 2/3 when 3d >= 2n
    for n in (3, 7, 64):
        for d in range(n + 1):
            if 3 * d <= n:
                assert Fraction(n - d, n) >= Fraction(2, 3)
            elif 3 * d >= 2 * n:
                assert Fraction(d, n) >= Fraction(2, 3)


def test_majority_success_against_scipy():
    for r in (1, 3, 9, 45):
        for p in (0.55, 2 / 3, 0.9):
            ours = majority_success(p, r)
            ref = scipy.stats.binom.sf((r + 1) // 2 - 1, r, p)
            assert ours == pytest.approx(ref, rel=1e-12)
    exact = majority_success(Fraction(2, 3), 45)
    ref = binomial_tail_at_least(45, 23, Fraction(2, 3))
    assert exact == ref


def test_majority_success_monotone_for_good_single_shot():
    for p in (Fraction(2, 3), Fraction(7, 10), Fraction(9, 10)):
        values = [majority_success(p, r) for r in range(1, 46, 2)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[0] == p


def test_message_qubits():
    assert message_qubits(1) == 1
    assert message_qubits(3) == 3  # 6 states need 3 qubits
    assert message_qubits(64) == 7
    assert message_qubits(512) == 10
    with pytest.raises(ValueError):
        message_qubits(0)


def test_empirical_success_matches_exact():
    for case, (n, d, b) in enumerate([(16, 3, 0), (64, 21, 0), (64, 43, 1)]):
        inst = pinned_instance(n, d, source=b, rng=substream(515, case))
        p = float(exact_success(inst))
        shots = 40_000
        p_hat = empirical_success(inst, shots, substream(515, 100 + case))
        assert abs(p_hat - p) <= 3 * math.sqrt(p * (1 - p) / shots)
    with pytest.raises(ValueError):
        empirical_success(BhmInstance(inst.x, inst.matching, inst.w, None), 10, substream(515, 999))


def test_mixture_success_equals_enumeration():
    for n in (1, 2, 3):
        cells = mixture_cells(n)
        for r in (1, 3):
            for promise in (False, True):
                expected = mixture_average(
                    cells, lambda inst, r=r: exact_success(inst, r), promise
                )
                assert mixture_success(n, r, promise) == expected


def test_majority_vote_count_is_the_vote_on_sorted_bits():
    # exchangeable edges: the d disagreeing ones may be the first d, draw for draw
    for n in (1, 7, 64):
        for d in range(0, n + 1, max(1, n // 8)):
            for r in (1, 3, 9):
                sorted_bits = (np.arange(n) < d).astype(np.uint8)
                for t in range(5):
                    assert majority_vote_count(n, d, r, substream(515, n, d, r, t)) == (
                        majority_vote(sorted_bits, r, substream(515, n, d, r, t))
                    )
