"""Print the wall-time trajectory recorded in the BENCH_*.json files.

Each BENCH file holds alternating pairs of perfbench runs, parent commit
against change, per workload.  For every file (in numeric order) and
every workload this prints the number of pairs with a ``wall_s`` reading
on both sides, the pairs the change won (lower ``wall_s``; ties count for
neither side), the parent and change medians, and the ratio of the parent
median to the previous file's change median.  That last ratio is 1 when
the two runs of the same commit agree; away from 1 it shows the drift of
the host between benchmark runs.  The last three columns are the change
median over the parent median of the other metrics the regression gate
reads, ``setup_s``, ``peak_rss_mb`` and ``trials_per_s``, each followed by
the pairs the change won on that metric out of the pairs with both
readings, such as ``0.833 (10/10)`` (``-`` where no pair has both).  A
win is the better reading: lower, or higher for ``trials_per_s``.

Usage, from the root of a checkout (standard library only):

    python3 tools/bench_trajectory.py [DIR]

DIR defaults to the parent of this file's folder.  When the reader
closes the pipe early (``| head``), the script exits 1 without a
traceback.
"""

from __future__ import annotations

import json
import os
import re
import statistics
import sys
from pathlib import Path
from typing import NamedTuple

METRIC = "wall_s"
#: The gate's other end-to-end metrics: column heading, and whether higher is better.
GATE_METRICS = {
    "setup_s": ("setup", False),
    "peak_rss_mb": ("rss", False),
    "trials_per_s": ("trials/s", True),
}


class WorkloadRow(NamedTuple):
    pairs: int
    change_wins: int
    parent_median: float
    change_median: float
    #: change median over parent median per GATE_METRICS name, None without a pair
    gate_ratios: dict[str, float | None]
    #: (change wins, pairs with both readings) per GATE_METRICS name
    gate_wins: dict[str, tuple[int, int]]


def _readings(pairs: list[dict], metric: str) -> list[tuple[float, float]]:
    """(parent, change) values of ``metric`` in the pairs that have both."""
    values = []
    for pair in pairs:
        sides = [pair[side].get("metrics", {}).get(metric) for side in ("parent", "change")]
        if None not in sides:
            values.append((sides[0]["value"], sides[1]["value"]))
    return values


def _median_ratio(values: list[tuple[float, float]]) -> float | None:
    """Change median over parent median; None without a pair."""
    if not values:
        return None
    return statistics.median(c for _, c in values) / statistics.median(p for p, _ in values)


def _wins(values: list[tuple[float, float]], higher: bool) -> tuple[int, int]:
    """Pairs the change won, ties for neither side, and the pairs read."""
    won = sum((c > p) if higher else (c < p) for p, c in values)
    return won, len(values)


def summarize(record: dict) -> dict[str, WorkloadRow]:
    """Pairs, change wins and medians of ``wall_s`` per workload of one BENCH file."""
    rows = {}
    for workload, pairs in record["runs"].items():
        values = _readings(pairs, METRIC)
        if not values:
            continue
        gates = {metric: _readings(pairs, metric) for metric in GATE_METRICS}
        rows[workload] = WorkloadRow(
            pairs=len(values),
            change_wins=sum(c < p for p, c in values),
            parent_median=statistics.median(p for p, _ in values),
            change_median=statistics.median(c for _, c in values),
            gate_ratios={metric: _median_ratio(read) for metric, read in gates.items()},
            gate_wins={
                metric: _wins(read, GATE_METRICS[metric][1]) for metric, read in gates.items()
            },
        )
    return rows


def bench_files(directory: Path) -> list[Path]:
    """BENCH_<k>.json files of a directory, ordered by k."""
    found = [
        (int(match.group(1)), path)
        for path in directory.glob("BENCH_*.json")
        if (match := re.fullmatch(r"BENCH_(\d+)\.json", path.name))
    ]
    return [path for _, path in sorted(found)]


def _gate_cell(ratio: float | None, wins: tuple[int, int]) -> str:
    return "-" if ratio is None else f"{ratio:.3f} ({wins[0]}/{wins[1]})"


def trajectory_lines(directory: Path) -> list[str]:
    header = (
        f"{'file':<14}{'workload':<11}{'pairs':>6}{'wins':>6}"
        f"{'parent_s':>10}{'change_s':>10}{'change/parent':>15}{'parent/prev':>13}"
        + "".join(f"{heading + ' c/p':>16}" for heading, _ in GATE_METRICS.values())
    )
    lines = [header]
    previous: dict[str, WorkloadRow] = {}
    for path in bench_files(directory):
        rows = summarize(json.loads(path.read_text()))
        for workload, row in sorted(rows.items()):
            before = previous.get(workload)
            drift = "-" if before is None else f"{row.parent_median / before.change_median:.3f}"
            lines.append(
                f"{path.name:<14}{workload:<11}{row.pairs:>6}{row.change_wins:>6}"
                f"{row.parent_median:>10.3f}{row.change_median:>10.3f}"
                f"{row.change_median / row.parent_median:>15.3f}{drift:>13}"
                + "".join(
                    f"{_gate_cell(row.gate_ratios[metric], row.gate_wins[metric]):>16}"
                    for metric in GATE_METRICS
                )
            )
        previous = {**previous, **rows}
    return lines


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(f"usage: {Path(__file__).name} [DIR]", file=sys.stderr)
        return 2
    directory = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    try:
        print("\n".join(trajectory_lines(directory)))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early (``| head``); point stdout at devnull so
        # the interpreter's flush at exit does not fail on the same pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
