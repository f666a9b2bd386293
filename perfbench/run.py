"""Benchmark of the bhm package: one workload per run, checked outputs.

Run from the root of a checkout that holds ``src/bhm``:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads: ``sweep``, ``instances``, ``verify`` and ``exact`` (see
README.md).  With ``--trace 0`` the run measures set-up time with fresh
interpreters, then starts ``worker.py`` in a fresh single-threaded
process that repeats the workload for about ``--seconds`` seconds, and
reports the end-to-end metrics.  With ``--trace 1`` the worker runs one
untraced and one traced pass and the run reports the per-layer metrics.

Every run checks the outputs with references computed in ``checks.py``,
compares the output digests of every pass with those of the first (same
seed, so they must match) and counts each step, check and comparison as
one operation.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Exits 2 without a result when ``src/bhm`` is missing or the worker
cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import checks
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep", "instances", "verify", "exact")

#: Fresh interpreters started to time set-up; the median is reported.
SETUP_PROBES = 7
#: Seconds after start when the worker is killed, leaving room to report in 180 s.
DEADLINE_S = 165
#: What a set-up probe does: a fresh interpreter until the CLI is ready.
SETUP_CODE = "import bhm.cli; bhm.cli.build_parser()"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def time_setup() -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=10,
        )
        times.append(time.perf_counter() - start)
    return times


def run_worker(args: argparse.Namespace, workdir: Path, deadline: float) -> dict[str, Any]:
    result_path = workdir / "result.json"
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--size", args.size, "--workdir", str(workdir), "--result", str(result_path),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=max(1.0, deadline - time.perf_counter()),
    )
    if proc.returncode != 0 or not result_path.exists():
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(result_path.read_text())
    if not Path(result["bhm"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"worker imported bhm from {result['bhm']}, not from {SRC}")
    return result


def work_units(workload: str, cfg: dict[str, Any], steps: int) -> tuple[int, str]:
    """Units of work in one pass, and what a unit is."""
    if workload == "sweep":
        return 2 * len(cfg["ns"]) * cfg["trials"], "quantum and classical trials"
    if workload == "instances":
        return cfg["count"] + cfg["trials"], "gen records and quantum-run trials"
    if workload == "verify":
        return len(tracing.VERIFY_CHECKS), "verify checks"
    return steps, "exact library results"


def output_checks(
    workload: str, cfg: dict[str, Any], seed: int, workdir: Path
) -> list[tuple[str, bool, str]]:
    def out(step: str) -> str:
        return (workdir / f"pass0-{step}.out").read_text()

    if workload == "sweep":
        return checks.check_sweep(out("sweep"), cfg["ns"], cfg["trials"], cfg["reps"],
                                  cfg["subset_size"], seed)
    if workload == "instances":
        return checks.check_gen(out("gen"), cfg["n"], cfg["count"], seed) + (
            checks.check_quantum_run(out("quantum-run"), cfg["n"], cfg["trials"], cfg["reps"], seed)
        )
    if workload == "verify":
        return checks.check_verify(out("verify-all"), tracing.VERIFY_CHECKS)
    results = {
        step: json.loads(out(step))
        for step in ("roundtrip", "spectrum", "bruteforce", "enumerate", "promise_outside", "gamma")
    }
    expected = json.loads((ROOT / "tests" / "data" / "bruteforce_n2_c1.json").read_text())
    return checks.check_exact(results, out("bruteforce-cli"), expected)


def trace_checks(
    workload: str, cfg: dict[str, Any], layers: dict[str, float]
) -> list[tuple[str, bool, str]]:
    """Exact counts the traced pass must reproduce."""
    def equal(name: str, want: float) -> tuple[str, bool, str]:
        return (f"trace.{name}", layers[name] == want, f"{layers[name]} vs {want}")

    if workload == "sweep":
        grid = len(cfg["ns"]) * cfg["trials"]
        return [
            equal("seeding.substream.calls", 2 * grid),
            equal("classical.subset_mc.trials", grid),
            equal("core.construct.calls", 0),
            equal("instances.objects.calls", 0),
        ]
    if workload == "instances":
        draws = cfg["count"] + cfg["trials"]
        return [equal("seeding.substream.calls", draws), equal("instances.objects.calls", draws)]
    if workload == "verify":
        missing = [name for name in tracing.VERIFY_CHECKS if layers[f"verify.{name}.s"] <= 0]
        return [("trace.verify_checks_timed", not missing, f"untimed: {missing}")]
    m = cfg["m"]
    return [
        equal("seeding.substream.calls", 0),
        equal("fourier.fwht.points", 3 * m * 2**m),
        # bruteforce at n=2 once in the library and once in the CLI
        equal("classical.exact.cells", 2 * 2**4 * 3 * 2**2),
    ]


def metadata(args: argparse.Namespace, worker: dict[str, Any]) -> dict[str, Any]:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    sha, dirty = "none (not a git checkout)", None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        try:
            head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
            status = subprocess.run(git + ["status", "--porcelain"], capture_output=True, text=True)
            sha, dirty = head.stdout.strip(), bool(status.stdout.strip())
        except OSError:
            sha = "unknown (git not available)"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "python": platform.python_version(), "numpy": worker["numpy"],
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
        "git_sha": sha, "git_dirty": dirty, "threads": worker["threads"],
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: same steps at sizes for the self-tests")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    if not (SRC / "bhm" / "__init__.py").is_file():
        print(f"error: no bhm package under {SRC}", file=sys.stderr)
        return 2
    # inherited by every process the run starts
    os.environ.update({var: "1" for var in THREAD_VARS})
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    workdir = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup = [] if args.trace else time_setup()
        worker = run_worker(args, workdir, deadline)
        report(args, worker, setup, workdir)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    return 0


def report(
    args: argparse.Namespace, worker: dict[str, Any], setup: list[float], workdir: Path
) -> None:
    from worker import SIZES

    cfg = SIZES[args.size][args.workload]
    passes = worker["passes"]
    ops: list[tuple[str, bool, str]] = []
    for i, p in enumerate(passes):
        for step, rec in p["steps"].items():
            ops.append((f"pass{i}.{step}", rec["ok"], rec.get("error", "")))
    first = passes[0]["steps"]
    for i, p in enumerate(passes[1:], start=1):
        for step, rec in p["steps"].items():
            if rec["ok"] and first[step]["ok"]:
                same = rec["sha256"] == first[step]["sha256"]
                ops.append((f"determinism.pass{i}.{step}", same, "sha256 vs pass0"))
    if not all(rec["ok"] for rec in first.values()):
        ops.append(("checks", False, "skipped: a pass-0 step failed"))
    else:
        try:
            ops += output_checks(args.workload, cfg, args.seed, workdir)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            ops.append(("checks", False, f"unreadable output: {exc!r}"))
    if args.trace:
        ops += trace_checks(args.workload, cfg, worker["layers"])

    print(f"# bhm benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print("meta " + json.dumps(metadata(args, worker), sort_keys=True))
    print("digests " + json.dumps({s: r.get("sha256") for s, r in first.items()}, sort_keys=True))
    for name, ok, detail in ops:
        if not ok or not name.startswith(("pass", "determinism")):
            print(f"check {name} {'ok' if ok else 'FAILED'} {detail}")
    failed = sum(not ok for _, ok, _ in ops)

    metrics: dict[str, dict[str, Any]] = {}
    if args.trace:
        for name, unit in tracing.PER_LAYER_METRICS:
            metrics[name] = {"value": worker["layers"][name], "unit": unit}
            print(f"layer {name} {worker['layers'][name]} {unit}")
    else:
        from worker import REFERENCE_KERNEL_S

        raw = [p["wall_s"] for p in passes]
        speed = [p["speed_s"] for p in passes]
        print(f"raw_wall_s median {statistics.median(raw):.6g} s over {len(raw)} passes "
              f"(min {min(raw):.6g}, max {max(raw):.6g}); kernel median "
              f"{statistics.median(speed):.4g} s, reference {REFERENCE_KERNEL_S:.4g} s")
        # pass times at the reference CPU speed (worker.SpeedProbe)
        walls = [w * REFERENCE_KERNEL_S / k for w, k in zip(raw, speed)]
        units, what = work_units(args.workload, cfg, len(first))
        rates = [units / w for w in walls]
        rows = [
            ("wall_s", statistics.median(walls), "s", walls, "passes at reference speed"),
            ("trials_per_s", statistics.median(rates), "1/s", rates, f"passes; unit: {what}"),
            ("setup_s", statistics.median(setup), "s", setup, "fresh interpreters"),
            ("peak_rss_mb", worker["peak_rss_mb"], "MB", [worker["peak_rss_mb"]], "worker process"),
        ]
        for name, value, unit, samples, base in rows:
            metrics[name] = {"value": value, "unit": unit}
            print(f"metric {name} {value:.6g} {unit} median of {len(samples)} {base} "
                  f"(min {min(samples):.6g}, max {max(samples):.6g})")
    for step in first:
        times = [p["steps"][step]["s"] for p in passes]
        print(f"step {step} median {statistics.median(times):.6g} s over {len(times)} passes")
    print(f"failed_ratio {failed}/{len(ops)} = {failed / len(ops):.6g} "
          f"(operations: step runs, determinism comparisons and output checks)")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    raise SystemExit(main())
