"""Numerical verification suite over every module's identities.

Each check returns a :class:`CheckResult` with the worst observed gap
(or z-score) so failures are diagnosable from the report alone.  The CLI
aggregates these into a pass/fail report with a nonzero exit status on
any failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

import numpy as np

from . import classical, combinatorics, fourier, instances, quantum
from .core import BitString, PerfectMatching, apply_matching, lift_character
from .errors import BudgetExceeded
from .seeding import substream


@dataclass
class CheckResult:
    name: str
    passed: bool
    max_gap: float | None = None
    details: dict[str, Any] = field(default_factory=dict)

    def to_json_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {"check": self.name, "passed": self.passed}
        if self.max_gap is not None:
            record["max_gap"] = self.max_gap
        record.update(self.details)
        return record


def _z(p_hat: float, p: float, trials: int) -> float:
    """|p_hat - p| in binomial standard errors at the exact p over ``trials``."""
    return abs(p_hat - p) / math.sqrt(max(p * (1 - p), 1e-12) / trials)


# ---------------------------------------------------------------------------
# core identities


def check_core_identities(seed: int) -> CheckResult:
    """Edge-parity product vs explicit GF(2) matrix, adjointness, lift weight.

    Exhaustive over every x and s at 2n <= 8 points on the index tables of
    :mod:`bhm.fourier`, then random at n = 16 on the value types.
    """
    failures = 0
    cases = 0
    for n in range(1, 5):
        xs = np.arange(1 << (2 * n))
        ss = np.arange(1 << n)
        x_rows = fourier._index_bits(xs, 2 * n)
        s_rows = fourier._index_bits(ss, n)
        for pairs in combinatorics.enumerate_matchings(2 * n):
            matching = PerfectMatching(pairs)
            matrix = matching.matrix()
            image = fourier.matching_image_table(matching)
            lift = fourier.lift_index_table(matching)
            wrong = fourier._index_bits(image, n) != (x_rows @ matrix.T) % 2
            failures += int(np.count_nonzero(wrong.any(axis=1)))
            cases += xs.size
            wrong = fourier._index_bits(lift, 2 * n) != (s_rows @ matrix) % 2
            failures += int(np.count_nonzero(wrong.any(axis=1)))
            failures += int(np.count_nonzero(np.bitwise_count(lift) != 2 * np.bitwise_count(ss)))
            # <Mx, s> = <x, lift s> over GF(2), one row per s
            lhs = np.bitwise_count(image[None, :] & ss[:, None]) & 1
            rhs = np.bitwise_count(xs[None, :] & lift[:, None]) & 1
            failures += int(np.count_nonzero(lhs != rhs))
            cases += ss.size * xs.size
    # spot-check a large size with random inputs
    rng = substream(seed, 0)
    for case in range(20):
        n = 16
        matching = instances.sample_matching(n, rng)
        x = BitString(rng.integers(0, 2, size=2 * n))
        matrix = matching.matrix()
        image = apply_matching(matching, x)
        failures += not np.array_equal(image.bits, (matrix @ x.bits) % 2)
        failures += not np.array_equal(
            lift_character(matching, image).bits, (matrix.T @ image.bits) % 2
        )
        cases += 1
    return CheckResult("core_identities", failures == 0, details={"cases": cases})


# ---------------------------------------------------------------------------
# fourier identities


def _random_table(m: int, rng: np.random.Generator) -> fourier.CubeFunction:
    return fourier.CubeFunction(m=m, values=rng.uniform(-1.0, 1.0, size=1 << m))


def check_fourier_roundtrip(m: int, cases: int, seed: int) -> CheckResult:
    worst = 0.0
    for case in range(cases):
        rng = substream(seed, 1, case)
        f = _random_table(m, rng)
        back = fourier.inverse_transform(fourier.transform(f))
        worst = max(worst, float(np.max(np.abs(back.values - f.values))))
    return CheckResult("fourier_roundtrip", worst <= 1e-12, max_gap=worst)


def _random_pair(
    m: int, seed: int, case: int
) -> tuple[fourier.CubeFunction, fourier.CubeFunction]:
    # Parseval and the convolution theorem share the pair (f, g) of each case
    rng = substream(seed, 4, case)
    return _random_table(m, rng), _random_table(m, rng)


def check_parseval(m: int, cases: int, seed: int) -> CheckResult:
    worst = 0.0
    for case in range(cases):
        for h in _random_pair(m, seed, case):
            lhs, rhs, gap = fourier.check_parseval(h)
            worst = max(worst, gap / max(1.0, abs(lhs), abs(rhs)))
    return CheckResult("parseval", worst <= 1e-9, max_gap=worst)


def check_convolution(m: int, cases: int, seed: int) -> CheckResult:
    """Direct XOR convolution against the spectral route."""
    worst = 0.0
    for case in range(cases):
        f, g = _random_pair(m, seed, case)
        direct = fourier.convolve(f, g)
        spectral = fourier.convolve_spectral(f, g)
        scale = max(1.0, float(np.max(np.abs(direct.values))))
        worst = max(worst, float(np.max(np.abs(direct.values - spectral.values))) / scale)
    return CheckResult("convolution_theorem", worst <= 1e-9, max_gap=worst)


def check_l1_l2(m: int, cases: int, seed: int) -> CheckResult:
    ok = all(
        fourier.check_l1_l2(_random_table(m, substream(seed, 4, case)))
        for case in range(cases)
    )
    return CheckResult("l1_l2_relation", ok)


def check_kkl(max_m: int, cases: int, seed: int) -> CheckResult:
    """Sparse sign functions across the full delta sweep; any violation fails."""
    deltas = [round(0.1 * i, 1) for i in range(11)]
    violations = 0
    worst = -math.inf
    for case in range(cases):
        rng = substream(seed, 5, case)
        m = int(rng.integers(1, max_m + 1))
        density = rng.uniform(0.02, 1.0)
        vals = rng.choice([-1.0, 0.0, 1.0], size=1 << m, p=[density / 2, 1 - density, density / 2])
        f = fourier.CubeFunction(m=m, values=vals)
        for delta in deltas:
            lhs, rhs, holds = fourier.check_kkl(f, delta)
            violations += not holds
            worst = max(worst, lhs - rhs)
    return CheckResult(
        "kkl_inequality",
        violations == 0,
        max_gap=worst,
        details={"cases": cases, "deltas": len(deltas)},
    )


def check_closed_form_spectrum() -> CheckResult:
    worst = 0.0
    for n in range(1, 13):
        spectrum = fourier.transform(fourier.mu_difference(n))
        gap = np.max(np.abs(spectrum.coefficients - fourier.closed_form_spectrum_table(n)))
        worst = max(worst, float(gap))
    return CheckResult("closed_form_spectrum", worst <= 1e-12, max_gap=worst)


def check_lift_identity(cases: int, seed: int) -> CheckResult:
    worst = 0.0
    for case in range(cases):
        rng = substream(seed, 6, case)
        n = int(rng.integers(2, 7))  # 2n <= 12 points
        matching = instances.sample_matching(n, rng)
        size = 1 << (2 * n)
        count = int(rng.integers(1, size + 1))
        picks = rng.choice(size, size=count, replace=False)
        worst = max(worst, fourier._lift_identity_gap(picks, matching))
    return CheckResult("lift_identity", worst <= 1e-12, max_gap=worst)


# ---------------------------------------------------------------------------
# quantum protocol


def check_measurement_probabilities(seed: int) -> CheckResult:
    """Outcome probabilities sum to 1 and vanish on the wrong-parity sign."""
    worst = 0.0
    ok = True
    for i, n in enumerate((2, 4, 8)):
        rng = substream(seed, 7, i)
        for case in range(20):
            x = BitString(rng.integers(0, 2, size=2 * n))
            matching = instances.sample_matching(n, rng)
            probs = quantum.outcome_probabilities(quantum.prepare_state(x), matching)
            worst = max(worst, abs(float(probs.sum()) - 1.0))
            # row e holds edge e's (+, -) outcomes; only the sign of its parity occurs
            expected = np.zeros((n, 2))
            expected[np.arange(n), apply_matching(matching, x).bits] = 1.0 / n
            ok &= bool(np.max(np.abs(probs.reshape(n, 2) - expected)) <= 1e-12)
    return CheckResult("measurement_probabilities", ok and worst <= 1e-12, max_gap=worst)


def check_projector_vs_analytic(seed: int, shots: int) -> CheckResult:
    """Projector outcomes and the analytic law match the exact distribution per cell.

    The analytic law draws a uniform edge and reads the sign off its parity.
    """
    worst_z = 0.0
    for i, n in enumerate((2, 4, 8)):
        rng = substream(seed, 8, i)
        x = BitString(rng.integers(0, 2, size=2 * n))
        matching = instances.sample_matching(n, rng)
        state = quantum.prepare_state(x)
        exact = quantum.outcome_probabilities(state, matching)
        projector = quantum.measure_matching_basis(state, matching, rng, shots)
        edge = rng.integers(0, n, size=shots)
        analytic = 2 * edge + apply_matching(matching, x).bits[edge]
        for cells in (projector, analytic):
            freq = np.bincount(cells, minlength=2 * n) / shots
            sigma = np.sqrt(np.maximum(exact * (1 - exact), 1e-12) / shots)
            worst_z = max(worst_z, float(np.max(np.abs(freq - exact) / sigma)))
            if float(freq[exact == 0.0].sum()) != 0.0:
                return CheckResult("projector_vs_analytic", False, max_gap=math.inf)
    return CheckResult(
        "projector_vs_analytic", worst_z <= 4.5, max_gap=worst_z, details={"unit": "z"}
    )


def check_quantum_mc_grid(seed: int, shots: int) -> CheckResult:
    """Empirical single-shot success against the exact oracle on an (n, d) grid."""
    worst_z = 0.0
    case = 0
    for n in (8, 32, 64):
        for d_frac in (0.0, 0.25, 0.5):
            d = int(round(d_frac * n))
            inst = instances.pinned_instance(n, d, source=0, rng=substream(seed, 9, case))
            case += 1
            p = float(quantum.exact_success(inst))
            guesses = quantum.majority_votes(
                quantum.disagreement_bits(inst), 1, shots, substream(seed, 9, 100 + case)
            )
            p_hat = float(np.mean(guesses == inst.source))
            worst_z = max(worst_z, _z(p_hat, p, shots))
    return CheckResult("quantum_mc_vs_exact", worst_z <= 4.0, max_gap=worst_z, details={"unit": "z"})


#: Odd repetition counts r at which :func:`check_amplification` votes.
AMPLIFICATION_REPS = (1, 3, 5, 9, 15)


def check_amplification(seed: int, trials: int) -> CheckResult:
    """Majority-vote MC against the exact binomial tail at single-shot 2/3."""
    inst = instances.BhmInstance(
        x=BitString.zeros(6),
        matching=PerfectMatching(((1, 2), (3, 4), (5, 6))),
        w=BitString.from_text("100"),
        source=0,
    )
    ok = quantum.exact_success(inst) == Fraction(2, 3)
    disagree = quantum.disagreement_bits(inst)
    worst_z = 0.0
    previous = Fraction(0)
    for i, r in enumerate(AMPLIFICATION_REPS):
        exact = quantum.exact_success(inst, r)
        ok &= exact >= previous
        previous = exact
        guesses = quantum.majority_votes(disagree, r, trials, substream(seed, 10, i))
        p_hat = float(np.mean(guesses == inst.source))
        worst_z = max(worst_z, _z(p_hat, float(exact), trials))
    return CheckResult(
        "amplification", ok and worst_z <= 4.0, max_gap=worst_z, details={"unit": "z"}
    )


# ---------------------------------------------------------------------------
# combinatorics


def check_matching_counts() -> CheckResult:
    ok = all(
        combinatorics.count_matchings(t) == len(combinatorics.enumerate_matchings(t))
        for t in range(2, 11, 2)
    )
    return CheckResult("matching_counts", ok)


def check_gamma(seed: int, mc_trials: int) -> CheckResult:
    """Exact value vs bound, MC agreement, support independence, root bound.

    The grid is n in (4, 8, 16) with even support weights k <= 8.
    """
    worst_z = 0.0
    ok = True
    case = 0
    for n in (4, 8, 16):
        ok &= combinatorics.gamma_exact(n, 2) == Fraction(1, 2 * n - 1)
        for k in range(2, 9, 2):
            gamma = combinatorics.gamma_exact(n, k)
            bound = Fraction(k, 2 * n) ** (k // 2)
            ok &= gamma <= bound
            delta = float(gamma) ** (1.0 / k)
            ok &= k / (4 * delta) >= math.sqrt(2 * n * k) / 4 - 1e-12
            ok &= math.sqrt(2 * n * k) / 4 >= math.sqrt(n) / 2 - 1e-12
            rng = substream(seed, 11, case)
            est = combinatorics.gamma_monte_carlo(n, k, mc_trials, rng)
            sigma = max(est.sigma, math.sqrt(float(gamma) * (1 - float(gamma)) / mc_trials), 1e-9)
            worst_z = max(worst_z, abs(est.estimate - float(gamma)) / sigma)
            case += 1
    # support independence at one representative cell
    rng = substream(seed, 11, 1000)
    n, k = 8, 4
    z_bits = np.zeros(2 * n, dtype=np.uint8)
    z_bits[rng.choice(2 * n, size=k, replace=False)] = 1
    est_a = combinatorics.gamma_monte_carlo(n, k, mc_trials, substream(seed, 11, 1001))
    est_b = combinatorics.gamma_monte_carlo(
        n, k, mc_trials, substream(seed, 11, 1002), z=BitString(z_bits)
    )
    pooled = math.sqrt(est_a.sigma**2 + est_b.sigma**2)
    worst_z = max(worst_z, abs(est_a.estimate - est_b.estimate) / max(pooled, 1e-9))
    return CheckResult("gamma", ok and worst_z <= 4.0, max_gap=worst_z, details={"unit": "z"})


# ---------------------------------------------------------------------------
# instances


def check_density_normalization() -> CheckResult:
    """mu_b sums to 1, in integers: sum_h C(n,h) weights[h] == scale.

    ``(weights, scale)`` is the noise law of :func:`instances._noise_weights`.
    mu_b depends on y only through its popcount h, so density_mu is held at
    one y per popcount against p^(n-h) (1-p)^h, p = :data:`instances.NOISE_BIAS`,
    written out here rather than read from that law.
    """
    ok = True
    p = instances.NOISE_BIAS
    for n in range(1, 11):
        weights, scale = instances._noise_weights(n)
        ok &= sum(math.comb(n, h) * weights[h] for h in range(n + 1)) == scale
        for h in range(n + 1):
            y = BitString.from_index(n, (1 << h) - 1)
            ok &= instances.density_mu(0, y) == p ** (n - h) * (1 - p) ** h
            ok &= instances.density_mu(1, y) == p**h * (1 - p) ** (n - h)
    return CheckResult("density_normalization", ok)


def check_promise_rates(seed: int, trials: int) -> CheckResult:
    """Empirical outside-rate against the exact binomial tail at n = 50, 100; decreasing in n.

    Each trial makes the draws of :func:`instances.sample_T` with
    :func:`instances._mixture_draws` and tests the count of its noise, the
    draw's disagreement bits, against the promise, building neither the
    matching nor w.
    """
    worst_z = 0.0
    rates = []
    for i, n in enumerate((50, 100)):
        exact = float(instances.promise_outside_probability(n))
        outside = 0
        for t in range(trials):
            *_, noise = instances._mixture_draws(n, substream(seed, 12, i, t))
            d = int(np.count_nonzero(noise))
            outside += not instances._in_promise(n, d)
        rate = outside / trials
        rates.append(rate)
        worst_z = max(worst_z, _z(rate, exact, trials))
    decreasing = all(a > b for a, b in zip(rates, rates[1:]))
    return CheckResult(
        "promise_rates",
        worst_z <= 4.0 and decreasing,
        max_gap=worst_z,
        details={"unit": "z", "rates": rates},
    )


# ---------------------------------------------------------------------------
# classical protocols


def check_subset_oracle(seed: int, trials: int) -> CheckResult:
    """Per-known-edge-count success against the exact vote oracle, at n = 32, c = 12."""
    ks, correct = classical.subset_trial_outcomes(32, 12, trials, seed)
    worst_z, compared = 0.0, 0
    for k in np.unique(ks):
        sel = ks == k
        count = int(sel.sum())
        if count < 200:
            continue
        compared += 1
        p = float(classical.known_edge_success(int(k)))
        worst_z = max(worst_z, _z(float(correct[sel].mean()), p, count))
    # a run that fills no bucket has compared nothing, which is no pass
    passed = compared > 0 and worst_z <= 4.0
    return CheckResult("subset_oracle", passed, max_gap=worst_z, details={"unit": "z"})


def check_classical_exact() -> CheckResult:
    """Hand-checkable exact values and brute-force dominance at n = 2."""
    n = 2
    ok = classical.bayes_success(classical.alice_constant(n), n, 0) == Fraction(1, 2)
    ok &= classical.bayes_success(classical.alice_parity(n), n, 1) == Fraction(1, 2)
    ok &= classical.bayes_success(classical.alice_identity(n), n, 4) == Fraction(3, 4)
    best = classical.bruteforce_optimal(n, 1).success_exact
    heuristics = (
        classical.alice_parity(n),
        classical.alice_dictator(n, 1),
        classical.alice_dictator(n, 3),
    )
    ok &= all(classical.bayes_success(heuristic, n, 1) <= best for heuristic in heuristics)
    values = [classical.subset_mixture_success(n, c, promise=False) for c in range(2 * n + 1)]
    ok &= all(a <= b for a, b in zip(values, values[1:]))
    return CheckResult("classical_exact", bool(ok))


# ---------------------------------------------------------------------------
# suite runner


def _check_fourier_sizes(m: int, cases: int) -> None:
    # checked before any work or 2^m table, and so that no check passes vacuously
    if m > fourier.DEFAULT_MAX_DIM:
        raise BudgetExceeded(f"Fourier suite at m={m} exceeds cap {fourier.DEFAULT_MAX_DIM}")
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if cases < 1:
        raise ValueError(f"cases must be positive, got {cases}")


def run_fourier_suite(m: int, cases: int, seed: int) -> list[CheckResult]:
    _check_fourier_sizes(m, cases)
    return [
        check_fourier_roundtrip(m, cases, seed),
        check_parseval(m, cases, seed),
        check_convolution(min(m, fourier.CONVOLVE_MAX_DIM), cases, seed),
        check_l1_l2(m, cases, seed),
        check_kkl(min(m, 10), cases, seed),
        check_closed_form_spectrum(),
        check_lift_identity(min(cases, 100), seed),
    ]


def run_all(seed: int, m: int, cases: int, trials: int) -> list[CheckResult]:
    """Every module's property suite at configurable sizes."""
    _check_fourier_sizes(m, cases)
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    results = [check_core_identities(seed)]
    results.extend(run_fourier_suite(m, cases, seed))
    results.extend(
        [
            check_measurement_probabilities(seed),
            check_projector_vs_analytic(seed, shots=max(trials, 10_000)),
            check_quantum_mc_grid(seed, shots=trials),
            check_amplification(seed, trials=trials),
            check_matching_counts(),
            check_gamma(seed, mc_trials=trials),
            check_density_normalization(),
            check_promise_rates(seed, trials=min(trials, 10_000)),
            check_subset_oracle(seed, trials=trials),
            check_classical_exact(),
        ]
    )
    return results
