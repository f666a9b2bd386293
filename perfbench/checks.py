"""Output checks that do not trust the code under test.

Each check returns ``(name, ok, detail)``.  Reference values are computed
here from first principles (integer binomial sums, double factorials, the
closed-form spectrum) rather than taken from ``bhm``; the one exception is
the ``gen`` round-trip, which by definition goes through
``BhmInstance.from_json_dict``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from typing import Any

Outcome = tuple[str, bool, str]

#: The z-band ``bhm verify`` uses for Monte-Carlo agreement.
Z_BAND = 4.0


def message_qubits(n: int) -> int:
    """ceil(log2(2n)), the qubits of one message."""
    return math.ceil(math.log2(2 * n))


def exact_quantum_success(n: int, r: int) -> Fraction:
    """Success of the r-shot majority protocol on promise instances.

    Under source 0 the disagreement count is d ~ Binomial(n, 1/4); the
    promise keeps d with 3d <= n or 3d >= 2n, and one shot is right with
    probability (n - d)/n.  Source 1 mirrors this exactly.
    """
    kept = [d for d in range(n + 1) if 3 * d <= n or 3 * d >= 2 * n]
    weight = {d: math.comb(n, d) * 3 ** (n - d) for d in kept}
    wins = sum(
        weight[d]
        * sum(math.comb(r, j) * (n - d) ** j * d ** (r - j) for j in range((r + 1) // 2, r + 1))
        for d in kept
    )
    return Fraction(wins, sum(weight.values()) * n**r)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def _rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def check_sweep(
    text: str, ns: list[int], trials: int, reps: int, subset_size: int, seed: int
) -> list[Outcome]:
    try:
        rows = _rows(text)
        n_col = [int(row["n"]) for row in rows]
        q = [float(row["quantum_success"]) for row in rows]
        q_sigma = [float(row["quantum_sigma"]) for row in rows]
        c = [float(row["classical_success"]) for row in rows]
        c_sigma = [float(row["classical_sigma"]) for row in rows]
        counts_ok = all(
            int(row["quantum_trials"]) == trials
            and int(row["classical_trials"]) == trials
            and int(row["qubit_cost"]) == reps * message_qubits(int(row["n"]))
            and int(row["bit_cost"]) == subset_size
            and int(row["seed"]) == seed
            for row in rows
        )
    except (KeyError, ValueError, TypeError) as exc:
        return [("sweep.parse", False, repr(exc))]
    z = []
    for n, p_hat in zip(n_col, q):
        p = float(exact_quantum_success(n, reps))
        z.append(abs(p_hat - p) / math.sqrt(p * (1 - p) / trials))
    return [
        ("sweep.grid", n_col == ns, f"n column {n_col}"),
        ("sweep.costs_and_counts", counts_ok, "trials, qubit_cost, bit_cost, seed"),
        (
            "sweep.success_is_count",
            all(abs(p * trials - round(p * trials)) <= 1e-6 for p in q + c),
            "success * trials is a whole number of hits",
        ),
        (
            "sweep.quantum_vs_exact",
            all(v <= Z_BAND for v in z),
            f"|z| = {[round(v, 3) for v in z]}",
        ),
        (
            "sweep.sigma",
            all(
                _close(s, math.sqrt(p * (1 - p) / trials))
                for p, s in zip(q + c, q_sigma + c_sigma)
            ),
            "sigma == sqrt(p(1-p)/T)",
        ),
        ("sweep.classical_range", all(0.0 <= p <= 1.0 for p in c), f"{c}"),
    ]


def check_gen(text: str, n: int, count: int, seed: int) -> list[Outcome]:
    from bhm.instances import BhmInstance

    records = [json.loads(line) for line in text.splitlines()]
    fields_ok = len(records) == count
    roundtrip_ok = True
    for i, record in enumerate(records):
        fields_ok &= (
            record.get("trial") == i
            and record.get("seed") == seed
            and record.get("n") == n
            and record.get("source") in (0, 1)
            and _is_bits(record.get("x"), 2 * n)
            and _is_bits(record.get("w"), n)
            and _is_matching(record.get("matching"), n)
        )
        try:
            back = BhmInstance.from_json_dict(record).to_json_dict()
        except (KeyError, ValueError, TypeError):
            roundtrip_ok = False
            continue
        roundtrip_ok &= back == {k: v for k, v in record.items() if k not in ("seed", "trial")}
    return [
        ("gen.fields", bool(fields_ok), f"{len(records)} records"),
        ("gen.roundtrip", bool(roundtrip_ok), "BhmInstance.from_json_dict"),
    ]


def _is_bits(value: Any, length: int) -> bool:
    return isinstance(value, str) and len(value) == length and set(value) <= {"0", "1"}


def _is_matching(text: Any, n: int) -> bool:
    """Canonical 'k-l,...' text: k < l, rows sorted by k, covering 1..2n once."""
    if not isinstance(text, str):
        return False
    try:
        pairs = [tuple(int(v) for v in chunk.split("-")) for chunk in text.split(",")]
    except ValueError:
        return False
    if any(len(p) != 2 or p[0] >= p[1] for p in pairs):
        return False
    firsts = [p[0] for p in pairs]
    points = sorted(v for p in pairs for v in p)
    return firsts == sorted(firsts) and points == list(range(1, 2 * n + 1))


def check_quantum_run(text: str, n: int, trials: int, reps: int, seed: int) -> list[Outcome]:
    try:
        rows = [{k: int(v) for k, v in row.items()} for row in _rows(text)]
    except (ValueError, TypeError) as exc:
        return [("quantum_run.parse", False, repr(exc))]
    shape_ok = [row["trial"] for row in rows] == list(range(trials)) and all(
        row["n"] == n and row["r"] == reps and row["seed"] == seed and 0 <= row["d"] <= n
        and row["source"] in (0, 1) and row["guess"] in (0, 1)
        for row in rows
    )
    return [
        ("quantum_run.rows", shape_ok, f"{len(rows)} rows"),
        (
            "quantum_run.correct",
            all(row["correct"] == int(row["guess"] == row["source"]) for row in rows),
            "correct == (guess == source)",
        ),
        (
            "quantum_run.qubit_cost",
            all(row["qubit_cost"] == reps * message_qubits(n) for row in rows),
            f"r * ceil(log2 2n) = {reps * message_qubits(n)}",
        ),
    ]


def check_verify(text: str, expected_checks: tuple[str, ...]) -> list[Outcome]:
    try:
        rows = [json.loads(line) for line in text.splitlines()]
        summary = rows[-1]
        names = [row["check"] for row in rows[:-1]]
        passed = [name for name, row in zip(names, rows) if row["passed"] is True]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [("verify.parse", False, repr(exc))]
    return [
        (
            "verify.summary",
            summary.get("check") == "summary" and summary.get("passed") is True
            and summary.get("failed") == [],
            json.dumps(summary),
        ),
        (
            "verify.checks",
            names == list(expected_checks) and passed == names,
            f"{len(passed)}/{len(names)} passed",
        ),
    ]


def closed_form_spectrum(m: int) -> Any:
    """Coefficients of mu_0 - mu_1: 2 / 2^(m+k) at odd weight k, else 0."""
    import numpy as np

    index = np.arange(1 << m)
    weights = sum((index >> i) & 1 for i in range(m))
    return np.where(weights % 2 == 1, 2.0 / 2.0 ** (m + weights), 0.0)


def double_factorial_odd(t: int) -> int:
    """(t-1)!! for even t, the number of perfect matchings on t points."""
    return math.prod(range(1, t, 2))


def check_exact(
    results: dict[str, Any], bruteforce_cli: str, expected_bruteforce: dict[str, Any]
) -> list[Outcome]:
    want = expected_bruteforce["optimal_success"]
    try:
        cli_fraction = json.loads(bruteforce_cli)["success_exact"]
    except (ValueError, KeyError, TypeError):
        cli_fraction = None
    rt, sp, en = results["roundtrip"], results["spectrum"], results["enumerate"]
    lib_fraction, promise_ns = results["bruteforce"], sorted(map(int, results["promise_outside"]))
    promise_ok = all(
        Fraction(value) == _outside_probability(int(n))
        for n, value in results["promise_outside"].items()
    )
    gamma_ok = all(
        Fraction(value) == _gamma(*(int(v) for v in key.split(",")))
        for key, value in results["gamma"].items()
    )
    return [
        ("exact.bruteforce_lib", lib_fraction == want, f"{lib_fraction} vs {want}"),
        ("exact.bruteforce_cli", cli_fraction == want, f"{cli_fraction} vs {want}"),
        ("exact.roundtrip_gap", rt["gap"] <= 1e-12, f"gap {rt['gap']:.3g} at m={rt['m']}"),
        (
            "exact.spectrum_gap",
            sp["gap_table"] <= 1e-12 and sp["gap_reference"] <= 1e-12,
            f"gaps {sp['gap_table']:.3g}, {sp['gap_reference']:.3g} at m={sp['m']}",
        ),
        (
            "exact.matching_count",
            en["count"] == en["distinct"] == en["valid"] == double_factorial_odd(en["t"]),
            f"{en['count']} vs (t-1)!! = {double_factorial_odd(en['t'])}",
        ),
        ("exact.promise_outside", promise_ok, f"n in {promise_ns}"),
        ("exact.gamma", gamma_ok, f"{len(results['gamma'])} cells"),
    ]


def _outside_probability(n: int) -> Fraction:
    outside = sum(math.comb(n, d) * 3 ** (n - d) for d in range(n + 1) if n < 3 * d < 2 * n)
    return Fraction(outside, 4**n)


def _gamma(n: int, k: int) -> Fraction:
    """(k-1)!! (2n-k-1)!! / (2n-1)!!, the chance a weight-k support is matched inside."""
    return Fraction(
        double_factorial_odd(k) * double_factorial_odd(2 * n - k), double_factorial_odd(2 * n)
    )
