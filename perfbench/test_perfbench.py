"""Self-tests of the benchmark: run with ``python3 -m pytest perfbench -q``.

Tiny-size runs must print every metric BENCHMARK.json names, and a
corrupted output must be counted as a failed operation.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracing
from worker import SIZES

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=300,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric(workload: str, trace: str) -> None:
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace,
                 "--size", "tiny")
    result = result_line(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    units = {name: value["unit"] for name, value in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
        for metric in spec:
            assert f"metric {metric['name']} " in proc.stdout


def test_per_layer_spec_matches_tracer() -> None:
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracing.PER_LAYER_METRICS


BINDINGS = """
import bhm.cli, bhm.classical, bhm.core, bhm.instances, bhm.quantum, bhm.seeding, bhm.verify
import tracing
originals = {
    "cli.substream": bhm.cli.substream, "classical.substream": bhm.classical.substream,
    "verify.substream": bhm.verify.substream,
    "cli._sample_promise_arrays": bhm.cli._sample_promise_arrays,
    "classical._sample_t_arrays": bhm.classical._sample_t_arrays,
    "instances.apply_matching": bhm.instances.apply_matching,
    "quantum.apply_matching": bhm.quantum.apply_matching,
    "verify.apply_matching": bhm.verify.apply_matching,
}
tracing.install(tracing.Tracer())
for name, original in originals.items():
    module, attr = name.split(".")
    wrapper = getattr(getattr(bhm, module), attr)
    assert wrapper is not original and wrapper.__wrapped__ is original, name
"""


def test_install_wraps_every_binding_a_caller_looks_up() -> None:
    proc = subprocess.run([sys.executable, "-c", BINDINGS], cwd=ROOT / "perfbench",
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_run_refuses_a_checkout_without_bhm(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def tiny_sweep_csv(tmp_path: Path) -> str:
    import bhm.cli

    cfg = SIZES["tiny"]["sweep"]
    out = tmp_path / "sweep.csv"
    code = bhm.cli.main(["sweep", "--ns", ",".join(map(str, cfg["ns"])), "--trials",
                         str(cfg["trials"]), "--reps", str(cfg["reps"]), "--subset-size",
                         str(cfg["subset_size"]), "--seed", "5", "--out", str(out)])
    assert code == 0
    return out.read_text()


def flip_digit(text: str, column: str) -> str:
    """Change the first significant digit of ``column`` in the first data row."""
    header, first, *rest = text.splitlines()
    fields = first.split(",")
    i = header.split(",").index(column)
    value = fields[i]
    j = next(k for k, ch in enumerate(value) if ch in "123456789")
    fields[i] = value[:j] + str(int(value[j]) % 9 + 1) + value[j + 1 :]
    return "\n".join([header, ",".join(fields), *rest]) + "\n"


def sweep_failures(text: str) -> list[str]:
    cfg = SIZES["tiny"]["sweep"]
    outcomes = checks.check_sweep(text, cfg["ns"], cfg["trials"], cfg["reps"],
                                  cfg["subset_size"], 5)
    return [name for name, ok, _ in outcomes if not ok]


def test_sweep_checks_pass_on_real_output(tmp_path: Path) -> None:
    assert sweep_failures(tiny_sweep_csv(tmp_path)) == []


@pytest.mark.parametrize(
    "column", ["n", "qubit_cost", "quantum_success", "quantum_sigma", "classical_success",
               "classical_sigma", "quantum_trials", "bit_cost"],
)
def test_flipped_sweep_digit_fails_a_check(tmp_path: Path, column: str) -> None:
    assert sweep_failures(flip_digit(tiny_sweep_csv(tmp_path), column)) != []


def test_exact_quantum_success_is_a_probability_below_the_noiseless_limit() -> None:
    # r = 1 without the promise filter would be exactly 3/4; the filter
    # removes draws near d = n/2 and can only help
    for n in (16, 64, 256):
        p = checks.exact_quantum_success(n, 1)
        assert 0.75 <= p < 1
        assert checks.exact_quantum_success(n, 3) > p


def exact_results() -> dict:
    return {
        "roundtrip": {"m": 8, "gap": 1e-16},
        "spectrum": {"m": 8, "gap_table": 0.0, "gap_reference": 0.0},
        "bruteforce": "5/8",
        "enumerate": {"t": 8, "count": 105, "distinct": 105, "valid": 105},
        "promise_outside": {"16": str(checks._outside_probability(16))},
        "gamma": {"8,4": str(checks._gamma(8, 4))},
    }


def exact_failures(results: dict, cli: str = '{"success_exact": "5/8"}') -> list[str]:
    expected = json.loads((ROOT / "tests" / "data" / "bruteforce_n2_c1.json").read_text())
    return [name for name, ok, _ in checks.check_exact(results, cli, expected) if not ok]


def test_exact_checks() -> None:
    assert exact_failures(exact_results()) == []
    wrong = exact_results()
    wrong["bruteforce"] = "3/4"
    assert exact_failures(wrong) == ["exact.bruteforce_lib"]
    assert exact_failures(exact_results(), '{"success_exact": "9/16"}') == ["exact.bruteforce_cli"]
    wrong = exact_results()
    wrong["enumerate"]["count"] = 104
    assert exact_failures(wrong) == ["exact.matching_count"]
    wrong = exact_results()
    wrong["spectrum"]["gap_table"] = 1e-9
    assert exact_failures(wrong) == ["exact.spectrum_gap"]


def test_gen_and_quantum_run_checks_catch_corruption(tmp_path: Path) -> None:
    import bhm.cli

    gen, qrun = tmp_path / "gen.jsonl", tmp_path / "q.csv"
    assert bhm.cli.main(["gen", "--n", "8", "--count", "4", "--seed", "3", "--out", str(gen)]) == 0
    assert bhm.cli.main(["quantum-run", "--n", "8", "--trials", "6", "--reps", "3", "--seed", "3",
                         "--out", str(qrun)]) == 0
    assert all(ok for _, ok, _ in checks.check_gen(gen.read_text(), 8, 4, 3))
    assert all(ok for _, ok, _ in checks.check_quantum_run(qrun.read_text(), 8, 6, 3, 3))
    record = json.loads(gen.read_text().splitlines()[0])
    record["matching"] = record["matching"].replace("-", "-1", 1)
    assert not all(ok for _, ok, _ in checks.check_gen(json.dumps(record) + "\n", 8, 1, 3))
    header, row, *rest = qrun.read_text().splitlines()
    fields = row.split(",")
    fields[7] = str(int(fields[7]) + 1)  # qubit_cost
    corrupted = "\n".join([header, ",".join(fields), *rest]) + "\n"
    assert not all(ok for _, ok, _ in checks.check_quantum_run(corrupted, 8, 6, 3, 3))


def fake_run(tmp_path: Path, capsys, csv_text: str, digests: tuple[str, str]) -> dict:
    """Report a sweep run whose pass 0 wrote ``csv_text``; return the result line."""
    (tmp_path / "pass0-sweep.out").write_text(csv_text)
    worker = {
        "passes": [
            {"wall_s": 1.0, "speed_s": 1.6e-4,
             "steps": {"sweep": {"ok": True, "sha256": d, "s": 1.0}}}
            for d in digests
        ],
        "peak_rss_mb": 40.0, "numpy": "x", "threads": {},
    }
    args = run.parse_args(["--workload", "sweep", "--seed", "5", "--seconds", "1", "--trace", "0",
                           "--size", "tiny"])
    capsys.readouterr()
    run.report(args, worker, [0.2], tmp_path)
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_corruption_and_nondeterminism_count_as_failed(tmp_path: Path, capsys) -> None:
    text = tiny_sweep_csv(tmp_path)
    clean = fake_run(tmp_path, capsys, text, ("a", "a"))
    assert clean["correct"] and clean["failed"] == 0
    corrupted = fake_run(tmp_path, capsys, flip_digit(text, "quantum_success"), ("a", "a"))
    assert not corrupted["correct"] and corrupted["failed"] >= 1
    assert corrupted["attempted"] == clean["attempted"]
    drifted = fake_run(tmp_path, capsys, text, ("a", "b"))
    assert not drifted["correct"] and drifted["failed"] == 1
