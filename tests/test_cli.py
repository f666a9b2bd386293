import csv
import dataclasses
import hashlib
import json

import pytest

from bhm import classical, cli, quantum, verify
from bhm.instances import BhmInstance, sample_T
from bhm.quantum import run_repeated
from bhm.seeding import substream

from helpers import MC_Z_BOUND, z_score


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


def test_gen_rejects_negative_count(tmp_path, capsys):
    out = tmp_path / "inst.jsonl"
    code = run_cli(["gen", "--n", "4", "--count", "-3", "--seed", "7", "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert "--count must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


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
    report = run_repeated(inst, 3, rng)
    assert int(row["d"]) == inst.disagreements()
    assert int(row["source"]) == inst.source
    assert int(row["guess"]) == report.guess
    assert int(row["qubit_cost"]) == report.qubit_cost


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


def test_quantum_run_rejects_even_reps(capsys):
    code = run_cli(["quantum-run", "--n", "4", "--trials", "2", "--reps", "2", "--seed", "1"])
    assert code == cli.EXIT_CONFIG
    capsys.readouterr()


@pytest.mark.parametrize("trials", ["-2", "0"])
def test_quantum_run_rejects_nonpositive_trials(tmp_path, capsys, trials):
    out = tmp_path / "q.csv"
    code = run_cli(
        ["quantum-run", "--n", "4", "--trials", trials, "--seed", "1", "--out", str(out)]
    )
    assert code == cli.EXIT_CONFIG
    assert "--trials must be positive" in capsys.readouterr().err
    assert not out.exists()


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


def test_classical_run_rejects_zero_trials(tmp_path, capsys):
    out = tmp_path / "c.json"
    code = run_cli(
        ["classical-run", "--n", "16", "--subset-size", "6", "--trials", "0",
         "--seed", "9", "--out", str(out)]
    )
    assert code == cli.EXIT_CONFIG
    assert "trials must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_classical_run_rejects_zero_n(tmp_path, capsys):
    out = tmp_path / "c.json"
    code = run_cli(
        ["classical-run", "--n", "0", "--subset-size", "0", "--trials", "5",
         "--seed", "1", "--out", str(out)]
    )
    assert code == cli.EXIT_CONFIG
    assert "n must be positive, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_classical_run_rejects_negative_subset_size(tmp_path, capsys):
    out = tmp_path / "c.json"
    code = run_cli(
        ["classical-run", "--n", "16", "--subset-size", "-2", "--trials", "10",
         "--seed", "9", "--out", str(out)]
    )
    assert code == cli.EXIT_CONFIG
    assert "--subset-size must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_classical_run_names_an_oversized_subset(tmp_path, capsys):
    out = tmp_path / "c.json"
    code = run_cli(
        ["classical-run", "--n", "4", "--subset-size", "99", "--trials", "5",
         "--seed", "1", "--out", str(out)]
    )
    assert code == cli.EXIT_CONFIG
    assert "--subset-size 99 out of range 0..8" in capsys.readouterr().err
    assert not out.exists()


def test_bruteforce_report(tmp_path, capsys):
    out = tmp_path / "b.json"
    assert run_cli(["bruteforce", "--n", "2", "--bits", "1", "--out", str(out)]) == 0
    (record,) = read_json_lines(out)
    assert record["success_exact"] == "5/8"
    assert record["success_prob"] == 0.625
    assert "message_1" in record["witness"]
    assert run_cli(["bruteforce", "--n", "3", "--bits", "1"]) == cli.EXIT_BUDGET
    capsys.readouterr()


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


def test_gamma_rejects_nonpositive_n(capsys):
    assert run_cli(["gamma", "--n", "0", "--k", "2"]) == cli.EXIT_CONFIG
    assert "--n must be positive, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("mc", ["0", "-5"])
def test_gamma_rejects_nonpositive_mc(tmp_path, capsys, mc):
    out = tmp_path / "g.json"
    code = run_cli(
        ["gamma", "--n", "3", "--k", "2", "--mc", mc, "--seed", "1", "--out", str(out)]
    )
    assert code == cli.EXIT_CONFIG
    assert f"--mc must be positive, got {mc}" in capsys.readouterr().err
    assert not out.exists()


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
    assert "cases must be positive" in capsys.readouterr().err
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
    assert message in capsys.readouterr().err
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
    # flip the diagonalization constant through the test hook: the suite
    # must go red and the CLI must exit nonzero
    bad = verify.check_convolution(6, 5, seed=1, spectral_scale=(1 << 6) / 2)
    assert not bad.passed

    original = verify.check_convolution

    def faulted(m, cases, seed, tol=1e-9, spectral_scale=None):
        return original(m, cases, seed, tol=tol, spectral_scale=(1 << m) * 2.0)

    monkeypatch.setattr(verify, "check_convolution", faulted)
    out = tmp_path / "f.jsonl"
    code = run_cli(
        ["fourier-verify", "--m", "6", "--cases", "5", "--seed", "13", "--out", str(out)]
    )
    assert code == cli.EXIT_VERIFY_FAILED
    records = read_json_lines(out)
    assert records[-1]["passed"] is False
    assert "convolution_theorem" in records[-1]["failed"]


def test_amplification_check_fails_on_a_wrong_single_shot_value(monkeypatch):
    # the single-shot precondition is part of the check's verdict, not an
    # assert that python -O would strip
    real = quantum.exact_success
    assert verify.check_amplification(3, rs=(3,), trials=500).passed
    monkeypatch.setattr(
        quantum, "exact_success", lambda inst, r=1: real(inst, r) if r > 1 else real(inst, 3)
    )
    assert not verify.check_amplification(3, rs=(3,), trials=500).passed


def test_classical_exact_check_fails_without_an_exact_optimum(monkeypatch):
    real = classical.bruteforce_optimal
    monkeypatch.setattr(
        classical,
        "bruteforce_optimal",
        lambda n, c: dataclasses.replace(real(n, c), success_exact=None),
    )
    assert not verify.check_classical_exact().passed


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
    assert run_cli(["sweep", "--ns", "4", "--trials", "10", "--reps", "2",
                    "--subset-size", "2", "--seed", "1"]) == cli.EXIT_CONFIG
    capsys.readouterr()


def test_sweep_rejects_negative_subset_size(tmp_path, capsys):
    out = tmp_path / "s.csv"
    code = run_cli(
        ["sweep", "--ns", "4", "--trials", "10", "--subset-size", "-2", "--seed", "1",
         "--out", str(out)]
    )
    assert code == cli.EXIT_CONFIG
    assert "subset size -2 out of range 0..8" in capsys.readouterr().err
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
#: (b, d, K).
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


def test_emit_float_formatting(capsys):
    cli.emit([{"v": 1 / 3}], ["v"], "csv", None)
    captured = capsys.readouterr().out
    assert captured == "v\n0.33333333333333331\n"


def test_unknown_command_is_config_error(capsys):
    assert run_cli(["nonsense"]) == cli.EXIT_CONFIG
    capsys.readouterr()
