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
reads: ``setup_s``, ``peak_rss_mb`` and ``trials_per_s`` (``-`` where no
pair has both readings).

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
#: The gate's other end-to-end metrics, each with its column heading.
GATE_METRICS = {"setup_s": "setup", "peak_rss_mb": "rss", "trials_per_s": "trials/s"}


class WorkloadRow(NamedTuple):
    pairs: int
    change_wins: int
    parent_median: float
    change_median: float
    #: change median over parent median per GATE_METRICS name, None without a pair
    gate_ratios: dict[str, float | None]


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


def summarize(record: dict) -> dict[str, WorkloadRow]:
    """Pairs, change wins and medians of ``wall_s`` per workload of one BENCH file."""
    rows = {}
    for workload, pairs in record["runs"].items():
        values = _readings(pairs, METRIC)
        if not values:
            continue
        rows[workload] = WorkloadRow(
            pairs=len(values),
            change_wins=sum(c < p for p, c in values),
            parent_median=statistics.median(p for p, _ in values),
            change_median=statistics.median(c for _, c in values),
            gate_ratios={metric: _median_ratio(_readings(pairs, metric)) for metric in GATE_METRICS},
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


def trajectory_lines(directory: Path) -> list[str]:
    header = (
        f"{'file':<14}{'workload':<11}{'pairs':>6}{'wins':>6}"
        f"{'parent_s':>10}{'change_s':>10}{'change/parent':>15}{'parent/prev':>13}"
        + "".join(f"{heading + ' c/p':>14}" for heading in GATE_METRICS.values())
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
                    f"{'-' if ratio is None else f'{ratio:.3f}':>14}"
                    for ratio in row.gate_ratios.values()
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
