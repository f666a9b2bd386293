import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from bhm import quantum
from bhm.cli import run_separation_sweep
from bhm.core import BitString, PerfectMatching, apply_matching
from bhm.errors import DimensionMismatch
from bhm.instances import (
    BhmInstance,
    _sample_source_and_count,
    pinned_instance,
    sample_matching,
)
from bhm.quantum import (
    MessageState,
    disagreement_bits,
    exact_success,
    majority_success,
    majority_vote_count,
    majority_votes,
    matching_basis,
    measure_matching_basis,
    message_qubits,
    mixture_success,
    outcome_probabilities,
    prepare_state,
    run_single,
)
from bhm.seeding import HalfWords, substream

from helpers import (
    binomial_tail_at_least,
    mixture_average,
    mixture_cells,
    mixture_two_source_oracle,
    quantum_promise_success_oracle,
    quantum_trial_oracle,
)


def test_prepare_state_examples():
    s = prepare_state(BitString.from_text("00"))
    assert np.allclose(s.amplitudes, [1 / math.sqrt(2)] * 2)
    s = prepare_state(BitString.from_text("01"))
    assert np.allclose(s.amplitudes, [1 / math.sqrt(2), -1 / math.sqrt(2)])
    rng = substream(501, 0)
    for n in (1, 5, 64):
        x = BitString(rng.integers(0, 2, size=2 * n))
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
        x = BitString(rng.integers(0, 2, size=2 * n))
        matching = sample_matching(n, rng)
        probs = outcome_probabilities(prepare_state(x), matching)
        assert abs(float(probs.sum()) - 1.0) <= 1e-12
        live = probs[probs > 1e-15]
        assert live.size == n
        assert np.allclose(live, 1.0 / n, atol=1e-12)


def test_measurement_sign_is_deterministic():
    # outcome k is edge k // 2 with parity k % 2: "+" is 0, "-" is 1
    rng = substream(504, 0)
    single = PerfectMatching(((1, 2),))
    out = measure_matching_basis(prepare_state(BitString.from_text("00")), single, rng, 50)
    assert out.tolist() == [0] * 50
    out = measure_matching_basis(prepare_state(BitString.from_text("01")), single, rng, 50)
    assert out.tolist() == [1] * 50


def test_measured_sign_always_matches_parity():
    rng = substream(505, 0)
    for _ in range(30):
        n = int(rng.integers(1, 10))
        x = BitString(rng.integers(0, 2, size=2 * n))
        matching = sample_matching(n, rng)
        parities = apply_matching(matching, x)
        out = measure_matching_basis(prepare_state(x), matching, rng, 20)
        assert np.array_equal(out % 2, parities.bits[out // 2])


def test_measurement_method_validation():
    rng = substream(506, 0)
    state = prepare_state(BitString.from_text("00"))
    with pytest.raises(DimensionMismatch):
        measure_matching_basis(state, PerfectMatching(((1, 2), (3, 4))), rng, 1)
    with pytest.raises(ValueError, match="shots must be positive, got 0"):
        measure_matching_basis(state, PerfectMatching(((1, 2),)), rng, 0)


def test_measured_parity_guard_raises(monkeypatch):
    # a projector that puts the mass on the wrong sign must be caught by an
    # explicit check, not an assert, so the guard survives python -O
    real = quantum.outcome_probabilities

    def swapped(state, matching):
        return real(state, matching).reshape(-1, 2)[:, ::-1].ravel()

    monkeypatch.setattr(quantum, "outcome_probabilities", swapped)
    state = prepare_state(BitString.from_text("01"))
    with pytest.raises(RuntimeError, match="contradicts the parity"):
        measure_matching_basis(state, PerfectMatching(((1, 2),)), substream(506, 1), 3)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_projector_and_analytic_agree_in_distribution(n):
    shots = 100_000
    rng = substream(507, n)
    x = BitString(rng.integers(0, 2, size=2 * n))
    matching = sample_matching(n, rng)
    state = prepare_state(x)
    exact = outcome_probabilities(state, matching)
    projector = measure_matching_basis(state, matching, rng, shots)
    # the analytic law: a uniform edge, its sign read off the edge's parity
    edge = rng.integers(0, n, size=shots)
    analytic = 2 * edge + apply_matching(matching, x).bits[edge]
    for cells in (projector, analytic):
        freq = np.bincount(cells, minlength=2 * n) / shots
        assert float(freq[exact < 1e-15].sum()) == 0.0  # forbidden outcomes never appear
        live = exact > 1e-15
        sigma = np.sqrt(exact[live] * (1 - exact[live]) / shots)
        assert np.max(np.abs(freq[live] - exact[live]) / sigma) <= 4.0


def _projector_guesses(inst, stream, shots):
    """Bob's guesses for ``shots`` single-shot runs, drawn in one projector batch.

    ``stream()`` builds a fresh generator.  run_single draws the same shots
    one at a time, so its first 500 runs on a twin stream must equal the
    batch's first 500 guesses.
    """
    k = measure_matching_basis(prepare_state(inst.x), inst.matching, stream(), shots)
    guesses = (k % 2) ^ inst.w.bits[k // 2]
    twin = stream()
    assert [run_single(inst, twin) for _ in range(500)] == guesses[:500].tolist()
    return guesses


def test_run_single_closed_form():
    # with d disagreements, a zero-source guess is right with chance (n-d)/n
    trials = 30_000
    for case, (n, d) in enumerate([(8, 0), (8, 2), (16, 7)]):
        inst = pinned_instance(n, d, source=0, rng=substream(508, case))
        guesses = _projector_guesses(inst, lambda: substream(508, 100 + case), trials)
        hits = int((guesses == 0).sum())
        p = (n - d) / n
        if d == 0:
            assert hits == trials
        else:
            assert abs(hits / trials - p) <= 3 * math.sqrt(p * (1 - p) / trials)


def test_run_single_projector_path_agrees():
    inst = pinned_instance(4, 1, source=0, rng=substream(509, 0))
    trials = 20_000
    guesses = _projector_guesses(inst, lambda: substream(509, 1), trials)
    hits = int((guesses == 0).sum())
    p = 0.75
    assert abs(hits / trials - p) <= 3 * math.sqrt(p * (1 - p) / trials)


def _repeated_hits(inst, r, trials, stream):
    """Right guesses of one r-shot vote on the instance per substream stream(t), t < trials."""
    disagree = disagreement_bits(inst)
    guesses = [int(majority_votes(disagree, r, 1, stream(t))[0]) for t in range(trials)]
    return sum(guess == inst.source for guess in guesses)


def test_run_repeated_r1_matches_single_shot_rate():
    inst = pinned_instance(6, 2, source=0, rng=substream(511, 0))
    trials = 20_000
    p = float(exact_success(inst))
    hits = _repeated_hits(inst, 1, trials, lambda t: substream(511, 1, t))
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
    hits = _repeated_hits(inst, 3, trials, lambda t: substream(512, t))
    p = 20 / 27
    assert abs(hits / trials - p) <= 3 * math.sqrt(p * (1 - p) / trials)


def test_run_repeated_methods_agree():
    inst = pinned_instance(4, 1, source=1, rng=substream(513, 0))
    trials = 10_000
    p = float(exact_success(inst, 3))
    band = 3 * math.sqrt(p * (1 - p) / trials)
    hits = _repeated_hits(inst, 3, trials, lambda t: substream(513, 1, t))
    assert abs(hits / trials - p) <= band

    # the projector votes, the oracle route for majority_votes: each run is
    # three successive shots of one batch
    shots = _projector_guesses(inst, lambda: substream(513, 2), 3 * trials)
    votes = 2 * shots.reshape(trials, 3).sum(axis=1) > 3
    hits = int(np.count_nonzero(votes))
    assert abs(hits / trials - p) <= band


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


def test_majority_vote_is_the_batched_analytic_run(monkeypatch):
    # per run one draw of r edge indices, then the majority of their
    # disagreement bits; a 5-element block makes the draw cross block
    # boundaries, where odd draw counts leave a spare 32-bit half-word
    disagree = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
    trials = 23
    for block in (5, quantum._VOTE_BLOCK):
        monkeypatch.setattr(quantum, "_VOTE_BLOCK", block)
        for r in (1, 3, 7):
            rng_a, rng_b = substream(516, r), substream(516, r)
            expected = [
                int(2 * disagree[rng_b.integers(0, 5, size=r)].sum() > r) for _ in range(trials)
            ]
            assert majority_votes(disagree, r, trials, rng_a).tolist() == expected
            assert rng_a.integers(1 << 30) == rng_b.integers(1 << 30)
    assert majority_votes(np.ones(4, dtype=np.uint8), 5, 3, substream(516, 0)).tolist() == [1] * 3
    assert majority_votes(np.zeros(4, dtype=np.uint8), 5, 3, substream(516, 0)).tolist() == [0] * 3
    for r in (0, 2):
        with pytest.raises(ValueError, match=f"odd and positive, got {r}"):
            majority_votes(disagree, r, 1, substream(516, 0))


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
        guesses = majority_votes(disagreement_bits(inst), 1, shots, substream(515, 100 + case))
        p_hat = float(np.mean(guesses == inst.source))
        assert abs(p_hat - p) <= 3 * math.sqrt(p * (1 - p) / shots)


def test_mixture_success_equals_enumeration():
    for n in (1, 2, 3):
        cells = mixture_cells(n)
        for r in (1, 3):
            for promise in (False, True):
                expected = mixture_average(
                    cells, lambda inst, r=r: exact_success(inst, r), promise
                )
                assert mixture_success(n, r, promise) == expected


def test_mixture_success_equals_the_integer_formula():
    for n in (64, 512):
        assert mixture_success(n, 3, True) == quantum_promise_success_oracle(n, 3)


def test_mixture_success_equals_the_two_source_oracle():
    # the source-0 half alone against both sources summed one Fraction at a time
    for n in [*range(1, 41), 64, 100]:
        for r in (1, 3, 5, 9):
            for promise in (False, True):
                assert mixture_success(n, r, promise) == mixture_two_source_oracle(n, r, promise)


def test_majority_vote_count_is_the_vote_on_sorted_bits():
    # exchangeable edges: the d disagreeing ones may be the first d, draw for draw
    for n in (1, 7, 64):
        for d in range(0, n + 1, max(1, n // 8)):
            for r in (1, 3, 9):
                sorted_bits = (np.arange(n) < d).astype(np.uint8)
                for t in range(5):
                    words = HalfWords(substream(515, n, d, r, t))
                    assert majority_vote_count(n, d, r, words) == (
                        majority_votes(sorted_bits, r, 1, substream(515, n, d, r, t))[0]
                    )


@pytest.mark.parametrize("promise", [False, True])
# from n = 256 numpy's binomial runs BTPE, a varying number of doubles per draw
@pytest.mark.parametrize("n", [1, 2, 5, 16, 64, 256, 512])
def test_vote_trial_kernels_equal_the_numpy_trial_oracle(n, promise):
    for r in (1, 3, 9):
        for t in range(40):
            words = HalfWords(substream(516, n, r, t))
            b, d = _sample_source_and_count(n, words, promise)
            guess = majority_vote_count(n, d, r, words)
            assert (b, guess) == quantum_trial_oracle(n, r, substream(516, n, r, t), promise)


def test_sweep_quantum_column_counts_the_oracle_hits():
    ns, r, trials, seed = [5, 16], 3, 200, 517
    rows = run_separation_sweep(ns, r, 2, trials, seed)
    for grid_idx, (n, row) in enumerate(zip(ns, rows)):
        oracle = [
            quantum_trial_oracle(n, r, substream(seed, grid_idx, 0, t), True)
            for t in range(trials)
        ]
        assert row["quantum_success"] == sum(b == guess for b, guess in oracle) / trials
