import csv
import hashlib
import json
import math
import os
import sys
import tracemalloc

import pytest

from bhm import classical, cli, combinatorics, fourier, instances, quantum, verify
from bhm.instances import BhmInstance, sample_T
from bhm.quantum import disagreement_bits, majority_votes, message_qubits
from bhm.seeding import substream

from helpers import MC_Z_BOUND, disagreement_count, z_score


def run_cli(argv):
    return cli.main(argv)


def read_json_lines(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_gen_emits_instances(tmp_path):
    out = tmp_path / "inst.jsonl"
    code = run_cli(["gen", "--n", "4", "--count", "5", "--seed", "7", "--out", str(out)])
    assert code == 0
    records = read_json_lines(out)
    assert len(records) == 5
    for i, record in enumerate(records):
        assert record["n"] == 4
        assert record["trial"] == i
        assert record["seed"] == 7
        inst = BhmInstance.from_json_dict(record)
        assert inst == sample_T(4, substream(7, i))


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli(["gen", "--n", "3", "--count", "4", "--seed", "11", "--out", str(a)])
    run_cli(["gen", "--n", "3", "--count", "4", "--seed", "11", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()
    run_cli(["gen", "--n", "3", "--count", "4", "--seed", "12", "--out", str(b)])
    assert a.read_bytes() != b.read_bytes()


def test_gen_requires_seed(capsys):
    assert run_cli(["gen", "--n", "3", "--count", "1"]) == cli.EXIT_CONFIG
    capsys.readouterr()


def test_quantum_run_csv_schema_and_reproducibility(tmp_path):
    out = tmp_path / "q.csv"
    code = run_cli(
        ["quantum-run", "--n", "8", "--trials", "6", "--reps", "3",
         "--seed", "21", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "trial,n,r,d,source,guess,correct,qubit_cost,seed"
    assert len(lines) == 7
    # any row is reproducible in isolation from (seed, trial)
    row = dict(zip(lines[0].split(","), lines[3].split(",")))
    rng = substream(21, int(row["trial"]))
    inst = sample_T(8, rng)
    guess = int(majority_votes(disagreement_bits(inst), 3, 1, rng)[0])
    assert int(row["d"]) == disagreement_count(inst)
    assert int(row["source"]) == inst.source
    assert int(row["guess"]) == guess
    assert int(row["qubit_cost"]) == 3 * message_qubits(8)


def test_quantum_run_json_format(tmp_path):
    out = tmp_path / "q.jsonl"
    run_cli(
        ["quantum-run", "--n", "4", "--trials", "3", "--seed", "5",
         "--format", "json", "--out", str(out)]
    )
    records = read_json_lines(out)
    assert len(records) == 3
    assert set(records[0]) == {
        "trial", "n", "r", "d", "source", "guess", "correct", "qubit_cost", "seed",
    }


def test_classical_run_report(tmp_path):
    out = tmp_path / "c.json"
    code = run_cli(
        ["classical-run", "--n", "16", "--subset-size", "6", "--trials", "500",
         "--seed", "9", "--out", str(out)]
    )
    assert code == 0
    (record,) = read_json_lines(out)
    assert record["protocol"] == "subset-6"
    assert record["message_bits"] == 6
    assert record["method"] == "monte_carlo"
    assert record["trials"] == 500
    assert 0.0 <= record["success_prob"] <= 1.0
    assert record["sigma"] >= 0.0
    assert record["n"] == 16 and record["seed"] == 9


def test_bruteforce_report(tmp_path, capsys):
    out = tmp_path / "b.json"
    assert run_cli(["bruteforce", "--n", "2", "--bits", "1", "--out", str(out)]) == 0
    (record,) = read_json_lines(out)
    assert record["success_exact"] == "5/8"
    assert record["success_prob"] == 0.625
    assert "message_1" in record["witness"]
    assert run_cli(["bruteforce", "--n", "3", "--bits", "1"]) == cli.EXIT_BUDGET
    capsys.readouterr()


def test_bruteforce_answers_2n_minus_1_bits_with_the_difference_map(tmp_path):
    out = tmp_path / "b.json"
    assert run_cli(["bruteforce", "--n", "2", "--bits", "3", "--out", str(out)]) == cli.EXIT_OK
    (record,) = read_json_lines(out)
    assert record["success_exact"] == "3/4"
    assert record["witness"] == {"map": "difference"}


@pytest.mark.parametrize(
    "n, bits, value", [(4, 0, "1/2"), (4, 7, "27/32"), (5, 9, "459/512")]
)
def test_bruteforce_answers_the_cells_under_the_enumeration_budget(tmp_path, n, bits, value):
    out = tmp_path / "b.json"
    assert run_cli(["bruteforce", "--n", str(n), "--bits", str(bits), "--out", str(out)]) == 0
    (record,) = read_json_lines(out)
    assert record["success_exact"] == value
    if bits:
        assert record["witness"] == {"map": "difference"}
    else:
        assert record["witness"]["message_0"][-1] == "1" * (2 * n)


def over_budget_message(n):
    """The enumeration refusal from n = 15 on, where one pass over x passes the budget."""
    return f"exact enumeration needs over 2^{2 * n} tuple visits, budget is 1000000000"


@pytest.mark.parametrize("n", [3, 10, 40, 1000])
def test_bruteforce_refuses_one_bit_maps_over_budget(tmp_path, capsys, n):
    out = tmp_path / "b.json"
    code = run_cli(["bruteforce", "--n", str(n), "--bits", "1", "--out", str(out)])
    assert code == cli.EXIT_BUDGET
    if n < 15:
        # the complement-closed scan's count: 2^31 at n = 3
        message = f"2^{4**n // 2 - 1} one-bit maps exceed map budget 65536"
    else:
        message = over_budget_message(n)
    assert capsys.readouterr().err == f"budget exceeded: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "n, bits", [(6, 11), (6, 12), (7, 0), (14, 27), (40, 0), (40, 79), (40, 80), (1000, 0)]
)
def test_bruteforce_refuses_exact_enumeration_over_budget(tmp_path, capsys, n, bits):
    # checked before the 4^n-entry constant or difference message map is built;
    # the count is one pass over x per matching and one product per message class
    out = tmp_path / "b.json"
    code = run_cli(["bruteforce", "--n", str(n), "--bits", str(bits), "--out", str(out)])
    assert code == cli.EXIT_BUDGET
    if n < 15:
        classes = 2 ** min(bits, 2 * n - 1)
        work = math.prod(range(1, 2 * n, 2)) * 4**n * (classes + 1)
        message = f"exact enumeration needs {work} tuple visits, budget is 1000000000"
    else:
        message = over_budget_message(n)
    assert capsys.readouterr().err == f"budget exceeded: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "n, bits", [(15, 1), (1001, 1), (1500, 0), (10000, 1), (10000, 5), (100000, 200000)]
)
def test_bruteforce_refuses_counts_past_the_digit_limit_as_over_budget(tmp_path, capsys, n, bits):
    # from n = 15 on every --bits refuses on the budget's power of two, so no
    # count is built, and none can pass the digits Python prints
    out = tmp_path / "b.json"
    code = run_cli(["bruteforce", "--n", str(n), "--bits", str(bits), "--out", str(out)])
    assert code == cli.EXIT_BUDGET
    assert capsys.readouterr().err == f"budget exceeded: {over_budget_message(n)}\n"
    assert not out.exists()


def test_bruteforce_refuses_under_a_low_digit_limit(tmp_path, capsys):
    # the refusal builds no count, so a digit limit far below the default holds
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code = run_cli(["bruteforce", "--n", "300", "--bits", "0"])
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == cli.EXIT_BUDGET
    assert capsys.readouterr().err == f"budget exceeded: {over_budget_message(300)}\n"


def test_gamma_report(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert run_cli(["gamma", "--n", "4", "--k", "2", "--out", str(out)]) == 0
    (record,) = read_json_lines(out)
    assert record["exact_fraction"] == "1/7"
    assert record["bound"] == 0.25
    assert record["proof_relevant"] is True
    assert run_cli(["gamma", "--n", "4", "--k", "4", "--out", str(out)]) == 0
    (record,) = read_json_lines(out)
    assert record["proof_relevant"] is False
    assert run_cli(["gamma", "--n", "4", "--k", "3"]) == cli.EXIT_CONFIG
    assert run_cli(["gamma", "--n", "4", "--k", "2", "--mc", "100"]) == cli.EXIT_CONFIG
    capsys.readouterr()


def test_gamma_refuses_an_exact_fraction_over_the_digit_limit(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    assert run_cli(["gamma", "--n", "20000", "--k", "20000"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: --n 20000 and --k 20000 give an exact fraction of more than {limit} "
        "digits, the interpreter's limit for integer string conversion\n"
    )
    assert sys.get_int_max_str_digits() == limit
    out = tmp_path / "g.json"
    assert run_cli(["gamma", "--n", "5000", "--k", "5000", "--out", str(out)]) == 0
    (record,) = read_json_lines(out)
    exact = combinatorics.gamma_exact(5000, 5000)
    assert record["exact_fraction"] == f"{exact.numerator}/{exact.denominator}"


def test_gamma_refuses_exactly_where_python_does(tmp_path, capsys):
    # at n = k = 1314 the denominator has 640 digits, at n = k = 1324 it has 641
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        fits, over = combinatorics.gamma_exact(1314, 1314), combinatorics.gamma_exact(1324, 1324)
        out = tmp_path / "g.json"
        assert run_cli(["gamma", "--n", "1314", "--k", "1314", "--out", str(out)]) == 0
        (record,) = read_json_lines(out)
        assert record["exact_fraction"] == f"{fits.numerator}/{fits.denominator}"
        assert len(str(fits.denominator)) == 640
        with pytest.raises(ValueError):
            str(over.denominator)
        assert run_cli(["gamma", "--n", "1324", "--k", "1324"]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: --n 1324 and --k 1324 give an exact fraction of more than 640 "
            "digits, the interpreter's limit for integer string conversion\n"
        )
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(str(over.denominator)) == 641


def test_gamma_refuses_far_past_the_digit_limit_before_computing(monkeypatch, capsys):
    def never(n, k):
        raise AssertionError("gamma_exact ran although the digit bound already refuses")

    monkeypatch.setattr(combinatorics, "gamma_exact", never)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        # k and 2n - k give the same gamma, so both are refused at once
        for k in (100000, 100002):
            assert run_cli(["gamma", "--n", "100000", "--k", str(k)]) == cli.EXIT_CONFIG
            assert capsys.readouterr().err == (
                f"error: --n 100000 and --k {k} give an exact fraction of more than 4300 "
                "digits, the interpreter's limit for integer string conversion\n"
            )
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "n, k", [(1, 2), (4, 2), (4, 6), (50, 20), (100, 100), (300, 598), (1000, 2), (1314, 1314)]
)
def test_gamma_digit_bound_never_exceeds_the_true_digit_count(n, k):
    digits = len(str(combinatorics.gamma_exact(n, k).denominator))
    assert not cli._gamma_digits_exceed(n, k, digits)


def test_gamma_with_monte_carlo(tmp_path):
    out = tmp_path / "g.json"
    code = run_cli(
        ["gamma", "--n", "4", "--k", "2", "--mc", "2000", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    (record,) = read_json_lines(out)
    assert record["trials"] == 2000
    assert abs(record["mc_estimate"] - record["exact"]) <= 4 * max(record["sigma"], 1e-3)


def test_fourier_verify_passes(tmp_path):
    out = tmp_path / "f.jsonl"
    code = run_cli(
        ["fourier-verify", "--m", "6", "--cases", "8", "--seed", "13", "--out", str(out)]
    )
    assert code == 0
    records = read_json_lines(out)
    assert records[-1]["check"] == "summary"
    assert records[-1]["passed"] is True
    names = {r["check"] for r in records[:-1]}
    assert "parseval" in names and "convolution_theorem" in names


@pytest.mark.parametrize("command", ["fourier-verify", "verify-all"])
def test_suites_reject_zero_cases(tmp_path, capsys, command):
    out = tmp_path / "f.jsonl"
    code = run_cli([command, "--m", "4", "--cases", "0", "--seed", "1", "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert "error: --cases must be positive, got 0\n" == capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fourier-verify", "--m", "0"], "m must be positive, got 0"),
        (["fourier-verify", "--m", "-1"], "m must be positive, got -1"),
        (["verify-all", "--m", "0"], "m must be positive, got 0"),
        (["verify-all", "--m", "-1"], "m must be positive, got -1"),
        (["verify-all", "--trials", "0"], "trials must be positive, got 0"),
    ],
)
def test_suites_reject_out_of_range_sizes(tmp_path, capsys, monkeypatch, argv, message):
    def no_work(*args, **kwargs):
        raise AssertionError("a check ran before the sizes were validated")

    monkeypatch.setattr(verify, "check_core_identities", no_work)
    monkeypatch.setattr(verify, "check_fourier_roundtrip", no_work)
    out = tmp_path / "f.jsonl"
    assert run_cli(argv + ["--seed", "1", "--out", str(out)]) == cli.EXIT_CONFIG
    # the refusal names its flag, as the other commands' refusals do
    assert f"error: --{message}\n" == capsys.readouterr().err
    assert not out.exists()


def test_fourier_verify_clamps_the_direct_convolution(capsys):
    assert run_cli(["fourier-verify", "--m", "14", "--cases", "1", "--seed", "1"]) == cli.EXIT_OK
    capsys.readouterr()


def test_fourier_verify_checks_the_dimension_cap_before_building_tables(capsys):
    # 2^64 entries cannot be allocated, so only a check made first can exit cleanly
    assert run_cli(["fourier-verify", "--m", "64", "--cases", "1", "--seed", "1"]) == (
        cli.EXIT_BUDGET
    )
    assert "exceeds cap" in capsys.readouterr().err


def test_injected_fault_fails_loudly(tmp_path, monkeypatch):
    # rescale the spectral route as if its 2^m diagonalization factor were
    # wrong: the suite must go red and the CLI must exit nonzero
    original = fourier.convolve_spectral

    def wrong_factor(ratio):
        def faulted(f, g):
            return fourier.CubeFunction(m=f.m, values=original(f, g).values * ratio)

        return faulted

    monkeypatch.setattr(fourier, "convolve_spectral", wrong_factor(0.5))
    assert not verify.check_convolution(6, 5, seed=1).passed

    monkeypatch.setattr(fourier, "convolve_spectral", wrong_factor(2.0))
    out = tmp_path / "f.jsonl"
    code = run_cli(
        ["fourier-verify", "--m", "6", "--cases", "5", "--seed", "13", "--out", str(out)]
    )
    assert code == cli.EXIT_VERIFY_FAILED
    records = read_json_lines(out)
    assert records[-1]["passed"] is False
    assert "convolution_theorem" in records[-1]["failed"]


@pytest.mark.parametrize("trials, passed", [(10, False), (2000, True)])
def test_subset_oracle_fails_when_no_bucket_is_compared(trials, passed):
    # buckets under 200 trials are skipped; a run that fills none checked nothing
    result = verify.check_subset_oracle(1, trials)
    assert result.passed is passed
    assert result.to_json_dict().keys() == {"check", "passed", "max_gap", "unit"}


def test_verify_all_with_too_few_trials_names_subset_oracle(tmp_path):
    out = tmp_path / "v.jsonl"
    code = run_cli(
        ["verify-all", "--m", "4", "--cases", "1", "--trials", "100", "--seed", "1",
         "--out", str(out)]
    )
    assert code == cli.EXIT_VERIFY_FAILED
    assert "subset_oracle" in read_json_lines(out)[-1]["failed"]


def test_amplification_check_fails_on_a_wrong_single_shot_value(monkeypatch):
    # the single-shot precondition is part of the check's verdict, not an
    # assert that python -O would strip
    real = quantum.exact_success
    assert verify.check_amplification(3, trials=500).passed
    monkeypatch.setattr(
        quantum, "exact_success", lambda inst, r=1: real(inst, r) if r > 1 else real(inst, 3)
    )
    assert not verify.check_amplification(3, trials=500).passed


def test_core_identities_count_every_exhaustive_case():
    # per matching on 2n <= 8 points: every x for the image table, every
    # (s, x) for adjointness; then the 20 spot checks at n = 16
    exhaustive = sum(
        math.prod(range(1, 2 * n, 2)) * 4**n * (1 + 2**n) for n in range(1, 5)
    )
    result = verify.check_core_identities(1)
    assert result.passed
    assert result.details["cases"] == exhaustive + 20 == 465_872


def _flip_one_entry(table_fn):
    def flipped(matching):
        table = table_fn(matching).copy()
        table[0] ^= 1
        return table

    return flipped


@pytest.mark.parametrize("table", ["matching_image_table", "lift_index_table"])
def test_index_table_checks_fail_on_a_flipped_entry(monkeypatch, table):
    assert verify.check_lift_identity(20, 1).passed
    monkeypatch.setattr(fourier, table, _flip_one_entry(getattr(fourier, table)))
    assert not verify.check_core_identities(1).passed
    assert not verify.check_lift_identity(20, 1).passed


def test_density_check_fails_on_a_flipped_entry(monkeypatch):
    real = instances.density_mu
    assert verify.check_density_normalization().passed
    # mu_0 at y = 111 answered with mu_1's value
    monkeypatch.setattr(
        instances,
        "density_mu",
        lambda b, y: real(1 - b, y) if (b, y.to_text()) == (0, "111") else real(b, y),
    )
    assert not verify.check_density_normalization().passed


def test_density_check_fails_on_swapped_noise_weights(monkeypatch):
    # a and q - a swapped: the weights still sum to q^n, so only the
    # independent product p^(n-h) (1-p)^h can catch it
    def swapped(n):
        a, q = instances.NOISE_BIAS.numerator, instances.NOISE_BIAS.denominator
        return [(q - a) ** (n - h) * a**h for h in range(n + 1)], q**n

    monkeypatch.setattr(instances, "_noise_weights", swapped)
    assert not verify.check_density_normalization().passed


def test_sweep_csv_and_determinism(tmp_path, capsys):
    args = [
        "sweep", "--ns", "4,8", "--trials", "300", "--reps", "1",
        "--subset-size", "4", "--seed", "17", "--format", "csv",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0].split(",") == [
        "n", "qubit_cost", "quantum_trials", "quantum_success", "quantum_sigma",
        "bit_cost", "classical_trials", "classical_success", "classical_sigma", "seed",
    ]
    assert len(lines) == 3
    assert run_cli(["sweep", "--ns", "8,4", "--trials", "10", "--subset-size", "2",
                    "--seed", "1"]) == cli.EXIT_CONFIG
    capsys.readouterr()
    assert run_cli(["sweep", "--ns", "4", "--trials", "10", "--reps", "2",
                    "--subset-size", "2", "--seed", "1"]) == cli.EXIT_CONFIG
    assert "--reps must be odd and positive, got 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "--n", "0", "--count", "1", "--seed", "1"], "--n must be positive, got 0"),
        (
            ["quantum-run", "--n", "0", "--trials", "1", "--seed", "1"],
            "--n must be positive, got 0",
        ),
        (
            ["sweep", "--ns", "4", "--trials", "0", "--subset-size", "1", "--seed", "1"],
            "--trials must be positive, got 0",
        ),
        (
            ["classical-run", "--n", "4", "--subset-size", "1", "--trials", "0", "--seed", "1"],
            "--trials must be positive, got 0",
        ),
        (["bruteforce", "--n", "0"], "--n must be positive, got 0"),
        (["bruteforce", "--bits", "-1"], "--bits must be nonnegative, got -1"),
        (["gamma", "--n", "3", "--k", "3"], "--k must be even, got 3"),
        (["gamma", "--n", "3", "--k", "8"], "--k must be in 2..6, got 8"),
        (
            ["gen", "--n", "4", "--count", "-3", "--seed", "7"],
            "--count must be nonnegative, got -3",
        ),
        (
            ["quantum-run", "--n", "4", "--trials", "2", "--reps", "2", "--seed", "1"],
            "--reps must be odd and positive, got 2",
        ),
        (
            ["quantum-run", "--n", "4", "--trials", "-2", "--seed", "1"],
            "--trials must be positive, got -2",
        ),
        (
            ["quantum-run", "--n", "4", "--trials", "0", "--seed", "1"],
            "--trials must be positive, got 0",
        ),
        (
            ["classical-run", "--n", "16", "--subset-size", "6", "--trials", "0", "--seed", "9"],
            "--trials must be positive, got 0",
        ),
        (
            ["classical-run", "--n", "0", "--subset-size", "0", "--trials", "5", "--seed", "1"],
            "--n must be positive, got 0",
        ),
        (
            ["classical-run", "--n", "16", "--subset-size", "-2", "--trials", "10", "--seed", "9"],
            "--subset-size must be nonnegative, got -2",
        ),
        (
            ["classical-run", "--n", "4", "--subset-size", "99", "--trials", "5", "--seed", "1"],
            "--subset-size 99 out of range 0..8",
        ),
        (["gamma", "--n", "0", "--k", "2"], "--n must be positive, got 0"),
        (
            ["gamma", "--n", "3", "--k", "2", "--mc", "0", "--seed", "1"],
            "--mc must be positive, got 0",
        ),
        (
            ["gamma", "--n", "3", "--k", "2", "--mc", "-5", "--seed", "1"],
            "--mc must be positive, got -5",
        ),
        (
            ["sweep", "--ns", "4", "--trials", "10", "--subset-size", "-2", "--seed", "1"],
            "--subset-size must be nonnegative, got -2",
        ),
        (
            ["sweep", "--ns", "4", "--trials", "10", "--subset-size", "99", "--seed", "1"],
            "--subset-size 99 out of range 0..8",
        ),
        (
            ["sweep", "--ns", "8,4", "--trials", "10", "--subset-size", "2", "--seed", "1"],
            "--ns must be a strictly increasing list of positive n, got '8,4'",
        ),
        (
            ["sweep", "--ns", "2000000000", "--trials", "10", "--subset-size", "11", "--seed", "1"],
            "--ns 2000000000 is too large for the subset protocol: n must be below 1000000000",
        ),
        (
            ["sweep", "--ns", "16,1000000000", "--trials", "10", "--subset-size", "2",
             "--seed", "1"],
            "--ns 1000000000 is too large for the subset protocol: n must be below 1000000000",
        ),
        (
            ["classical-run", "--n", "2000000000", "--subset-size", "11", "--trials", "10",
             "--seed", "1"],
            "--n 2000000000 is too large for the subset protocol: n must be below 1000000000",
        ),
        (
            ["quantum-run", "--n", "4", "--trials", "2", "--reps", "0", "--seed", "1"],
            "--reps must be odd and positive, got 0",
        ),
        (
            ["sweep", "--ns", "4", "--trials", "10", "--reps", "-1", "--subset-size", "2",
             "--seed", "1"],
            "--reps must be odd and positive, got -1",
        ),
        (
            ["gamma", "--n", "3", "--k", "2", "--mc", "10", "--seed", "-1"],
            "--seed must be nonnegative, got -1",
        ),
        (
            ["verify-all", "--m", "4", "--cases", "1", "--trials", "10", "--seed", "-1"],
            "--seed must be nonnegative, got -1",
        ),
        (
            ["fourier-verify", "--m", "4", "--cases", "-1", "--seed", "1"],
            "--cases must be positive, got -1",
        ),
        # a flag's range is refused before the command's own rules: --k here
        (
            ["gamma", "--n", "3", "--k", "3", "--mc", "0", "--seed", "1"],
            "--mc must be positive, got 0",
        ),
        # ... and the decreasing grid here
        (
            ["sweep", "--ns", "8,4", "--trials", "0", "--subset-size", "2", "--seed", "1"],
            "--trials must be positive, got 0",
        ),
        # an empty entry is refused, not dropped
        (
            ["sweep", "--ns", "4,,8", "--trials", "5", "--subset-size", "2", "--seed", "1"],
            "--ns must be a comma-separated list of integers, got '4,,8'",
        ),
        (
            ["sweep", "--ns", ",4", "--trials", "5", "--subset-size", "2", "--seed", "1"],
            "--ns must be a comma-separated list of integers, got ',4'",
        ),
        (
            ["sweep", "--ns", "", "--trials", "5", "--subset-size", "2", "--seed", "1"],
            "--ns must be a strictly increasing list of positive n, got ''",
        ),
    ],
)
def test_commands_name_the_flag_and_value(tmp_path, capsys, monkeypatch, argv, message):
    def no_draw(*args):
        raise AssertionError("a draw or gamma_exact ran before the flags were checked")

    monkeypatch.setattr(cli, "substream", no_draw)
    monkeypatch.setattr(classical, "substream", no_draw)
    monkeypatch.setattr(combinatorics, "gamma_exact", no_draw)
    out = tmp_path / "out"
    assert run_cli(argv + ["--out", str(out)]) == cli.EXIT_CONFIG
    assert f"error: {message}\n" == capsys.readouterr().err
    assert not out.exists()


#: integer flags whose range needs another flag, so their command checks them
CHECKED_IN_COMMAND = {"k"}


def test_every_integer_flag_has_a_range_rule():
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if a.choices and a.dest == "command"]
    dests = set()
    for name, sub in commands.choices.items():
        for action in sub._actions:
            dests.add(action.dest)
            if action.type is int and action.dest not in CHECKED_IN_COMMAND:
                assert action.dest in cli._FLAG_RULES, f"{name} --{action.dest}"
    assert set(cli._FLAG_RULES) <= dests
    assert CHECKED_IN_COMMAND <= dests


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: verify.run_all(1, m=4, cases=1, trials=0), "trials must be positive, got 0"),
        (lambda: verify.run_fourier_suite(0, 1, 1), "m must be positive, got 0"),
        (lambda: cli.run_separation_sweep([4], 2, 1, 10, 1),
         "repetitions must be odd and positive, got 2"),
        (lambda: cli.run_separation_sweep([4], 1, 1, 0, 1), "trials must be positive, got 0"),
    ],
)
def test_library_guards_name_their_own_arguments(call, message):
    # main refuses these flags first, so only a direct call reaches the guards
    with pytest.raises(ValueError) as excinfo:
        call()
    assert str(excinfo.value) == message


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_gen", crash)
    assert run_cli(["gen", "--n", "4", "--count", "1", "--seed", "1"]) == cli.EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "Traceback" in err and "boom" in err


def test_classical_run_rejects_negative_subset_size(tmp_path, capsys):
    out = tmp_path / "c.json"
    code = run_cli(
        ["classical-run", "--n", "16", "--subset-size", "-2", "--trials", "10",
         "--seed", "9", "--out", str(out)]
    )
    assert code == cli.EXIT_CONFIG
    assert "--subset-size must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_names_an_unparsable_grid(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code = run_cli(
        ["sweep", "--ns", "16,abc", "--trials", "10", "--subset-size", "2", "--seed", "1",
         "--out", str(out)]
    )
    assert code == cli.EXIT_CONFIG
    assert "--ns must be a comma-separated list of integers, got '16,abc'" in (
        capsys.readouterr().err
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--n", "4", "--count", "2"],
        ["quantum-run", "--n", "4", "--trials", "2"],
        ["classical-run", "--n", "4", "--subset-size", "2", "--trials", "2"],
        ["sweep", "--ns", "4", "--trials", "2", "--subset-size", "2"],
    ],
)
def test_stochastic_commands_reject_negative_seed(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run_cli(argv + ["--seed", "-1", "--out", str(out)]) == cli.EXIT_CONFIG
    assert "--seed must be nonnegative, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_bruteforce_takes_no_seed(capsys):
    # the command is exact, so a seed would be read by nothing
    assert run_cli(["bruteforce", "--n", "2", "--bits", "1", "--seed", "1"]) == cli.EXIT_CONFIG
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_verify_all_smoke(tmp_path):
    out = tmp_path / "v.jsonl"
    code = run_cli(
        ["verify-all", "--m", "5", "--cases", "5", "--trials", "2000",
         "--seed", "23", "--out", str(out)]
    )
    assert code == 0
    records = read_json_lines(out)
    assert records[-1]["check"] == "summary"
    assert records[-1]["passed"] is True
    # perfbench times each check by this name, in this order
    assert [r["check"] for r in records] == [
        "core_identities", "fourier_roundtrip", "parseval", "convolution_theorem",
        "l1_l2_relation", "kkl_inequality", "closed_form_spectrum", "lift_identity",
        "measurement_probabilities", "projector_vs_analytic", "quantum_mc_vs_exact",
        "amplification", "matching_counts", "gamma", "density_normalization",
        "promise_rates", "subset_oracle", "classical_exact", "summary",
    ]


def test_sweep_columns_match_exact_mixture_success(tmp_path):
    out = tmp_path / "sweep.csv"
    trials, reps, c = 4_000, 3, 4
    argv = ["sweep", "--ns", "4,8,16", "--trials", str(trials), "--reps", str(reps),
            "--subset-size", str(c), "--seed", "29", "--out", str(out)]
    assert run_cli(argv) == cli.EXIT_OK
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [int(row["n"]) for row in rows] == [4, 8, 16]
    for row in rows:
        n = int(row["n"])
        quantum_exact = quantum.mixture_success(n, reps, promise=True)
        subset_exact = classical.subset_mixture_success(n, c, promise=True)
        assert z_score(float(row["quantum_success"]), quantum_exact, trials) <= MC_Z_BOUND
        assert z_score(float(row["classical_success"]), subset_exact, trials) <= MC_Z_BOUND


#: sha256 of each output at fixed seeds.  gen and quantum-run were recorded
#: before the refactor that gave each shared rule one definition; sweep and
#: classical-run were re-pinned when their trials started drawing only
#: (b, d, K).  verify-all was recorded before the measurement checks were
#: batched, so it pins every stream of the suite draw for draw.
GOLDEN_DIGESTS = {
    "sweep": (
        ["sweep", "--ns", "4,8,16", "--trials", "300", "--reps", "3",
         "--subset-size", "5", "--seed", "7"],
        "2fe71fc3169f165606713847b00864ab5e363b432ad34e7930ed4f48755cdf24",
    ),
    "classical-run": (
        ["classical-run", "--n", "16", "--subset-size", "8", "--trials", "500",
         "--seed", "11"],
        "e66e2e995d5356599983a0c9daa4b5beba8968f7902d695f6e1bf46198c867f8",
    ),
    "quantum-run": (
        ["quantum-run", "--n", "8", "--trials", "50", "--reps", "3", "--seed", "13"],
        "8e66b24c1da9e6a876f41c0d41a6155d1baf808114edb01027e1e9a4aef7dffd",
    ),
    "gen": (
        ["gen", "--n", "6", "--count", "20", "--seed", "17"],
        "b14708dbf536da0487d3720aea621493e77d5a1c932c0b383f0508eaaee4e7b1",
    ),
    "verify-all": (
        ["verify-all", "--m", "5", "--cases", "5", "--trials", "2000", "--seed", "3"],
        "4f93b84583a3a4904fb52058f9fa5cea1b6af329d38ec1f1610cf563a7157b9c",
    ),
    "bruteforce": (
        ["bruteforce", "--n", "2", "--bits", "1"],
        "b90891bde49bb2f495c054603a8e0b59b6e3c413b991c24b2ac56f8e37eb262f",
    ),
    "gamma": (
        ["gamma", "--n", "16", "--k", "6", "--mc", "20000", "--seed", "7"],
        "f03f69f66499dd816033039555d99f2b76b648dc87ce6611297d23d6d5e7734d",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_output_matches_golden_digest(tmp_path, name):
    """Refactors keep every output byte.

    A deliberate change of the randomness layout, such as moving the
    runners from one substream per trial to one per chunk, changes these
    digests: update them in the same change and record the old and new
    values in CHANGES.md.
    """
    argv, digest = GOLDEN_DIGESTS[name]
    out = tmp_path / name
    assert run_cli(argv + ["--out", str(out)]) == cli.EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_emit_empty_rows_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    cli.emit([], ["a", "b"], "csv", str(out))
    assert out.read_text() == "a,b\n"
    # an empty generator, as gen and quantum-run pass, writes the same header
    cli.emit(iter(()), ["a", "b"], "csv", str(out))
    assert out.read_text() == "a,b\n"


def test_emit_float_formatting(capsys):
    cli.emit([{"v": 1 / 3}], ["v"], "csv", None)
    captured = capsys.readouterr().out
    assert captured == "v\n0.33333333333333331\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_writes_a_generator_as_it_writes_the_list(tmp_path, capsys, fmt):
    rows = [{"a": i, "b": i / 3} for i in range(5)]
    listed, streamed = tmp_path / "list", tmp_path / "streamed"
    cli.emit(rows, ["a", "b"], fmt, str(listed))
    cli.emit((row for row in rows), ["a", "b"], fmt, str(streamed))
    assert streamed.read_bytes() == listed.read_bytes()
    cli.emit((row for row in rows), ["a", "b"], fmt, None)
    assert capsys.readouterr().out == listed.read_text()


def _peak_bytes(argv):
    """Traced peak of one run above the memory held before it."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    assert run_cli(argv) == cli.EXIT_OK
    return tracemalloc.get_traced_memory()[1] - before


@pytest.mark.parametrize(
    "command", [["gen", "--n", "64", "--count"], ["quantum-run", "--n", "64", "--trials"]]
)
def test_memory_does_not_grow_with_the_row_count(tmp_path, command):
    # rows are written as they are drawn; what still grows is seeding's cache
    # of seed-word blocks, at most 4 blocks of 32 KB
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        run_cli(command + ["200", "--seed", "5", "--out", str(out)])  # fills the caches
        small = _peak_bytes(command + ["200", "--seed", "5", "--out", str(out)])
        large = _peak_bytes(command + ["2000", "--seed", "5", "--out", str(out)])
    finally:
        tracemalloc.stop()
    assert large - small < 256 * 1024


def _failing_third_draw(monkeypatch):
    calls = []

    def draw(n, rng):
        calls.append(n)
        if len(calls) == 3:
            raise RuntimeError("the third draw failed")
        return sample_T(n, rng)

    monkeypatch.setattr(cli, "sample_T", draw)


@pytest.mark.parametrize("existed", [False, True])
def test_a_failed_run_leaves_no_file_at_out(tmp_path, capsys, monkeypatch, existed):
    out = tmp_path / "g.jsonl"
    if existed:
        out.write_text("an earlier run\n")
    _failing_third_draw(monkeypatch)
    code = run_cli(["gen", "--n", "4", "--count", "5", "--seed", "1", "--out", str(out)])
    assert code == cli.EXIT_INTERNAL
    assert "the third draw failed" in capsys.readouterr().err
    assert not out.exists()


def test_a_failed_run_keeps_the_lines_already_on_stdout(capsys, monkeypatch):
    _failing_third_draw(monkeypatch)
    assert run_cli(["gen", "--n", "4", "--count", "5", "--seed", "1"]) == cli.EXIT_INTERNAL
    lines = capsys.readouterr().out.splitlines()
    assert [json.loads(line)["trial"] for line in lines] == [0, 1]


@pytest.mark.parametrize(
    "argv", [["gen", "--n", "4", "--count", "3"], ["quantum-run", "--n", "4", "--trials", "3"]]
)
def test_an_unwritable_out_is_refused_before_any_draw(tmp_path, capsys, monkeypatch, argv):
    calls = []
    monkeypatch.setattr(cli, "sample_T", lambda n, rng: calls.append(n))
    out = tmp_path / "missing" / "out"
    assert run_cli(argv + ["--seed", "1", "--out", str(out)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
    assert calls == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_a_failed_write_is_refused_and_leaves_the_device(capsys, monkeypatch):
    # every write to /dev/full fails; only a regular file at --out is removed,
    # and the recorder stands in for os.remove, so a device is never at risk
    removed = []
    monkeypatch.setattr(os, "remove", removed.append)
    assert run_cli(["gen", "--n", "4", "--count", "3", "--seed", "1", "--out", "/dev/full"]) == (
        cli.EXIT_CONFIG
    )
    assert capsys.readouterr().err.startswith("error: cannot write /dev/full: ")
    assert removed == []


def test_unknown_command_is_config_error(capsys):
    assert run_cli(["nonsense"]) == cli.EXIT_CONFIG
    capsys.readouterr()
