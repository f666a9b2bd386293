import importlib.util
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "bench_trajectory", ROOT / "tools" / "bench_trajectory.py"
)
bench_trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_trajectory)


def _pair(parent, change):
    return {
        "parent": {"metrics": {"wall_s": {"value": parent, "unit": "s"}}},
        "change": {"metrics": {"wall_s": {"value": change, "unit": "s"}}},
    }


def test_reads_the_verify_pairs_of_bench_15():
    record = json.loads((ROOT / "BENCH_15.json").read_text())
    row = bench_trajectory.summarize(record)["verify"]
    assert (row.pairs, row.change_wins) == (10, 10)
    assert (round(row.parent_median, 3), round(row.change_median, 3)) == (1.519, 0.882)


def test_reads_the_instances_pairs_of_bench_29():
    record = json.loads((ROOT / "BENCH_29.json").read_text())
    row = bench_trajectory.summarize(record)["instances"]
    assert (row.pairs, row.change_wins) == (10, 10)
    assert (round(row.parent_median, 3), round(row.change_median, 3)) == (0.293, 0.236)


def test_reads_the_exact_pairs_of_bench_30():
    record = json.loads((ROOT / "BENCH_30.json").read_text())
    row = bench_trajectory.summarize(record)["exact"]
    assert (row.pairs, row.change_wins) == (10, 10)
    assert (round(row.parent_median, 3), round(row.change_median, 3)) == (0.227, 0.141)


def test_reads_the_instances_pairs_of_bench_31():
    record = json.loads((ROOT / "BENCH_31.json").read_text())
    row = bench_trajectory.summarize(record)["instances"]
    assert (row.pairs, row.change_wins) == (10, 10)
    assert (round(row.parent_median, 3), round(row.change_median, 3)) == (0.219, 0.168)


def test_reads_the_exact_pairs_of_bench_32():
    record = json.loads((ROOT / "BENCH_32.json").read_text())
    row = bench_trajectory.summarize(record)["exact"]
    assert (row.pairs, row.change_wins) == (10, 10)
    assert (round(row.parent_median, 3), round(row.change_median, 3)) == (0.142, 0.106)


def test_reads_the_exact_and_verify_pairs_of_bench_33():
    # a simplicity change: ten pairs per workload, no gain claimed
    record = json.loads((ROOT / "BENCH_33.json").read_text())
    rows = bench_trajectory.summarize(record)
    assert sorted(rows) == ["exact", "verify"]
    assert [(rows[w].pairs, rows[w].change_wins) for w in ("exact", "verify")] == [(10, 7), (10, 5)]
    assert record["claim"].startswith("No gain claimed")


def test_reads_the_exact_and_verify_pairs_of_bench_34():
    # a simplicity change: ten pairs per workload, no gain claimed
    record = json.loads((ROOT / "BENCH_34.json").read_text())
    rows = bench_trajectory.summarize(record)
    assert sorted(rows) == ["exact", "verify"]
    assert [(rows[w].pairs, rows[w].change_wins) for w in ("exact", "verify")] == [(10, 9), (10, 0)]
    assert record["claim"].startswith("No gain claimed")
    cells = record["traced"]["exact"]
    assert [cells[s]["final"]["metrics"]["classical.exact.cells"]["value"] for s in cells] == [384, 384]


def test_reads_the_sweep_pairs_of_bench_35():
    # a gain claimed on sweep: ten pairs there, one pair on each other workload
    record = json.loads((ROOT / "BENCH_35.json").read_text())
    rows = bench_trajectory.summarize(record)
    assert {w: (rows[w].pairs, rows[w].change_wins) for w in rows} == {
        "sweep": (10, 10), "verify": (1, 1), "instances": (1, 1), "exact": (1, 0)
    }
    assert (round(rows["sweep"].parent_median, 3), round(rows["sweep"].change_median, 3)) == (0.46, 0.423)
    assert record["claim"].startswith("Gain claimed on sweep wall_s")
    # the trace gates: one fresh substream per trial on both sides
    traced = record["traced"]["sweep"]
    assert [traced[s]["final"]["metrics"]["seeding.substream.calls"]["value"] for s in traced] == [40000, 40000]


def test_reads_the_exact_and_verify_pairs_of_bench_36():
    # a simplicity change: ten pairs on exact and verify, one on sweep and instances
    record = json.loads((ROOT / "BENCH_36.json").read_text())
    rows = bench_trajectory.summarize(record)
    assert {w: (rows[w].pairs, rows[w].change_wins) for w in rows} == {
        "exact": (10, 6), "verify": (10, 7), "sweep": (1, 1), "instances": (1, 1)
    }
    assert record["claim"].startswith("No gain claimed")
    # the trace gate: two one-bit scans at n = 2, counted by n alone
    cells = record["traced"]["exact"]
    assert [cells[s]["final"]["metrics"]["classical.exact.cells"]["value"] for s in cells] == [384, 384]


def test_reads_the_instances_pairs_of_bench_37():
    # a memory gain claimed on instances: ten pairs there, the other workloads alongside
    record = json.loads((ROOT / "BENCH_37.json").read_text())
    rows = bench_trajectory.summarize(record)
    assert {w: rows[w].pairs for w in rows} == {"instances": 10, "sweep": 4, "verify": 1, "exact": 1}
    row = rows["instances"]
    assert row.gate_wins["peak_rss_mb"] == (10, 10)
    assert round(row.gate_ratios["peak_rss_mb"], 3) == 0.828
    assert record["claim"].startswith("Gain claimed on instances peak_rss_mb")
    # the trace gates and the emitted bytes are the same on both sides
    traced = {s: record["traced"]["instances"][s]["final"]["metrics"] for s in ("parent", "change")}
    for name in ("seeding.substream.calls", "instances.objects.calls"):
        assert [traced[s][name]["value"] for s in traced] == [1500, 1500]
    assert traced["parent"]["cli.emit.bytes"] == traced["change"]["cli.emit.bytes"]


def test_reads_the_sweep_pairs_of_bench_38():
    # no gain claimed: ten pairs on sweep, where substream runs, the others alongside
    record = json.loads((ROOT / "BENCH_38.json").read_text())
    rows = bench_trajectory.summarize(record)
    assert {w: rows[w].pairs for w in rows} == {"sweep": 10, "instances": 1, "verify": 1, "exact": 1}
    row = rows["sweep"]
    assert (row.pairs, row.change_wins) == (10, 7)
    assert (round(row.parent_median, 3), round(row.change_median, 3)) == (0.396, 0.393)
    assert record["claim"].startswith("No gain claimed")
    # the same streams: every pair's digests and the traced substream count agree
    assert all(pair["digests_equal"] for pairs in record["runs"].values() for pair in pairs)
    traced = {s: record["traced"]["sweep"][s]["final"]["metrics"] for s in ("parent", "change")}
    assert [traced[s]["seeding.substream.calls"]["value"] for s in traced] == [40000, 40000]


def test_files_in_numeric_order_with_cross_file_drift(tmp_path, capsys):
    # ties count for neither side; a pair missing a reading is not a pair
    (tmp_path / "BENCH_9.json").write_text(
        json.dumps({"runs": {"verify": [_pair(2.0, 1.0), _pair(2.0, 2.0), _pair(4.0, 3.0)]}})
    )
    failed = {"parent": {"metrics": {}}, "change": {"metrics": {}}}
    (tmp_path / "BENCH_10.json").write_text(
        json.dumps({"runs": {"verify": [_pair(2.5, 1.0), _pair(2.5, 3.0), failed]}})
    )
    assert bench_trajectory.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines[1:]] == [
        ["BENCH_9.json", "verify", "3", "2", "2.000", "2.000", "1.000", "-", "-", "-", "-"],
        # parent median 2.5 over the previous file's change median 2.0
        ["BENCH_10.json", "verify", "2", "1", "2.500", "2.000", "0.800", "1.250", "-", "-", "-"],
    ]


def test_gate_metric_ratios_agree_with_the_summary_of_bench_19():
    # BENCH_19.json records each ratio of medians, to four places, in its own summary
    record = json.loads((ROOT / "BENCH_19.json").read_text())
    rows = bench_trajectory.summarize(record)
    for workload, summary in record["summary"].items():
        for metric in bench_trajectory.GATE_METRICS:
            ratio = rows[workload].gate_ratios[metric]
            assert round(ratio, 4) == summary[metric]["change_over_parent"], (workload, metric)
            wins = (summary[metric]["change_wins"], summary[metric]["pairs"])
            assert rows[workload].gate_wins[metric] == wins, (workload, metric)


def test_gate_metric_ratios_skip_pairs_missing_a_side(tmp_path, capsys):
    def side(wall, setup=None, rss=None, rate=None):
        readings = {"wall_s": wall, "setup_s": setup, "peak_rss_mb": rss, "trials_per_s": rate}
        return {"metrics": {k: {"value": v} for k, v in readings.items() if v is not None}}

    pairs = [
        {"parent": side(1.0, 0.2, 40.0, 10.0), "change": side(0.5, 0.3, 40.0, 20.0)},
        {"parent": side(1.0, 0.4, 40.0), "change": side(0.5, None, 44.0)},
        {"parent": side(1.0, 0.2, 40.0), "change": side(0.5, 0.1, 48.0)},
    ]
    (tmp_path / "BENCH_1.json").write_text(json.dumps({"runs": {"sweep": pairs}}))
    row = bench_trajectory.summarize(json.loads((tmp_path / "BENCH_1.json").read_text()))["sweep"]
    # setup_s: pairs 1 and 3, medians 0.2 -> 0.2; rss: all three, 40 -> 44; rate: pair 1 only
    assert row.gate_ratios == {"setup_s": 1.0, "peak_rss_mb": 1.1, "trials_per_s": 2.0}
    # wins: lower setup and rss, higher rate; the rss tie counts for neither side
    assert row.gate_wins == {"setup_s": (1, 2), "peak_rss_mb": (0, 3), "trials_per_s": (1, 1)}
    assert bench_trajectory.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[1].split()[-6:] == [
        "1.000", "(1/2)", "1.100", "(0/3)", "2.000", "(1/1)"
    ]


def test_rejects_extra_arguments(capsys):
    assert bench_trajectory.main(["a", "b"]) == 2
    assert "usage" in capsys.readouterr().err


def test_a_reader_that_stops_early_ends_the_run_without_a_traceback(monkeypatch):
    # a pipe whose reader is gone, as after ``| head``: every write raises BrokenPipeError
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        assert bench_trajectory.main([str(ROOT)]) == 1
        monkeypatch.undo()
