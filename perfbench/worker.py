"""One workload in a fresh single-threaded process: timed passes of bhm.

Started by ``run.py``, which pins the BLAS thread counts and puts the
checkout's ``src`` on ``PYTHONPATH``.  Every pass runs the workload's
steps with the same seed; a step is one ``bhm`` CLI command, run in
process through ``bhm.cli.main``, or one library call.  Only the calls
are timed.  Each step's output is hashed, and pass 0's outputs are kept
in the work directory for the output checks.  Measured passes run under a
``SpeedProbe`` that samples the CPU's speed, so that ``run.py`` can report
pass times at a reference speed.

With ``--trace 1`` the worker runs one untraced pass, installs the
tracing wrappers and runs one traced pass.

Usage: worker.py --workload NAME --seed N --seconds S --trace 0|1
                 --size full|tiny --workdir DIR --result FILE
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

import bhm.cli
from bhm import classical, combinatorics, fourier, instances

import checks
import tracing

#: Problem sizes.  ``full`` is what the benchmark measures; ``tiny`` keeps
#: the same steps at sizes small enough for the benchmark's self-tests.
SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "full": {
        "sweep": {"ns": [16, 64, 256, 512], "trials": 5000, "reps": 3, "subset_size": 11},
        "instances": {"n": 512, "count": 500, "trials": 1000, "reps": 3},
        "verify": {"m": 10, "cases": 20, "trials": 2000},
        "exact": {
            "m": 20,
            "t": 12,
            "promise_ns": [16, 64, 256, 512, 1024, 2048],
            "gamma_ns": [4, 8, 16, 64, 256, 1024],
            "max_k": 32,
        },
    },
    "tiny": {
        "sweep": {"ns": [16, 64, 256, 512], "trials": 40, "reps": 3, "subset_size": 11},
        "instances": {"n": 16, "count": 5, "trials": 20, "reps": 3},
        "verify": {"m": 4, "cases": 2, "trials": 1000},
        "exact": {
            "m": 8,
            "t": 8,
            "promise_ns": [16, 64],
            "gamma_ns": [4, 8],
            "max_k": 8,
        },
    },
}

#: Steps of one pass: name -> (call, serialize).  ``call`` is timed and
#: returns a raw value; ``serialize`` turns it into the bytes that are
#: hashed and checked.
Steps = dict[str, tuple[Callable[[], Any], Callable[[Any], bytes]]]


def cli_step(argv: list[str], out: Path) -> tuple[Callable[[], Any], Callable[[Any], bytes]]:
    def call() -> int:
        return bhm.cli.main(argv + ["--out", str(out)])

    def serialize(code: int) -> bytes:
        if code != 0:
            raise RuntimeError(f"bhm {argv[0]} exited with code {code}")
        return out.read_bytes()

    return call, serialize


def _json(record: Any) -> bytes:
    return json.dumps(record, sort_keys=True).encode()


def _fraction(value: Any) -> str:
    return f"{value.numerator}/{value.denominator}"


def _sha(array: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def steps_for(workload: str, cfg: dict[str, Any], seed: int, workdir: Path) -> Steps:
    if workload == "sweep":
        ns = ",".join(str(n) for n in cfg["ns"])
        return {
            "sweep": cli_step(
                ["sweep", "--ns", ns, "--trials", str(cfg["trials"]), "--reps", str(cfg["reps"]),
                 "--subset-size", str(cfg["subset_size"]), "--seed", str(seed)],
                workdir / "sweep.csv",
            )
        }
    if workload == "instances":
        return {
            "gen": cli_step(
                ["gen", "--n", str(cfg["n"]), "--count", str(cfg["count"]), "--seed", str(seed)],
                workdir / "gen.jsonl",
            ),
            "quantum-run": cli_step(
                ["quantum-run", "--n", str(cfg["n"]), "--trials", str(cfg["trials"]),
                 "--reps", str(cfg["reps"]), "--seed", str(seed)],
                workdir / "quantum.csv",
            ),
        }
    if workload == "verify":
        return {
            "verify-all": cli_step(
                ["verify-all", "--m", str(cfg["m"]), "--cases", str(cfg["cases"]),
                 "--trials", str(cfg["trials"]), "--seed", str(seed)],
                workdir / "verify.jsonl",
            )
        }
    if workload == "exact":
        return exact_steps(cfg, seed, workdir)
    raise ValueError(f"unknown workload {workload!r}")


def exact_steps(cfg: dict[str, Any], seed: int, workdir: Path) -> Steps:
    """Exact library calls; the seed only draws the round-trip table."""
    m, t = cfg["m"], cfg["t"]
    table = np.random.default_rng(seed).uniform(-1.0, 1.0, size=1 << m)

    def roundtrip() -> tuple[Any, Any, Any]:
        f = fourier.CubeFunction(m=m, values=table)
        spectrum = fourier.transform(f)
        return f, spectrum, fourier.inverse_transform(spectrum)

    def roundtrip_out(value: tuple[Any, Any, Any]) -> bytes:
        f, spectrum, back = value
        gap = float(np.max(np.abs(back.values - f.values)))
        return _json({"m": m, "gap": gap, "spectrum": _sha(spectrum.coefficients),
                      "back": _sha(back.values)})

    def spectrum() -> tuple[Any, Any]:
        return fourier.transform(fourier.mu_difference(m)), fourier.closed_form_spectrum_table(m)

    def spectrum_out(value: tuple[Any, Any]) -> bytes:
        spec, table_cf = value
        return _json({
            "m": m,
            "gap_table": float(np.max(np.abs(spec.coefficients - table_cf))),
            "gap_reference": float(
                np.max(np.abs(spec.coefficients - checks.closed_form_spectrum(m)))
            ),
            "spectrum": _sha(spec.coefficients),
        })

    def enumerate_out(matchings: list[tuple[tuple[int, int], ...]]) -> bytes:
        valid = sum(
            sorted(v for pair in pairs for v in pair) == list(range(1, t + 1))
            and all(k < l for k, l in pairs)
            for pairs in matchings
        )
        digest = hashlib.sha256(repr(matchings).encode()).hexdigest()
        return _json({"t": t, "count": len(matchings), "distinct": len(set(matchings)),
                      "valid": valid, "digest": digest})

    gamma_cells = [
        (n, k) for n in cfg["gamma_ns"] for k in range(2, min(2 * n, cfg["max_k"]) + 1, 2)
    ]
    return {
        "roundtrip": (roundtrip, roundtrip_out),
        "spectrum": (spectrum, spectrum_out),
        "bruteforce": (
            lambda: classical.bruteforce_optimal(2, 1),
            lambda report: _json(_fraction(report.success_exact)),
        ),
        "bruteforce-cli": cli_step(["bruteforce", "--n", "2", "--bits", "1"],
                                   workdir / "bruteforce.json"),
        "enumerate": (lambda: combinatorics.enumerate_matchings(t), enumerate_out),
        "promise_outside": (
            lambda: [instances.promise_outside_probability(n) for n in cfg["promise_ns"]],
            lambda values: _json({str(n): _fraction(v) for n, v in zip(cfg["promise_ns"], values)}),
        ),
        "gamma": (
            lambda: [combinatorics.gamma_exact(n, k) for n, k in gamma_cells],
            lambda values: _json(
                {f"{n},{k}": _fraction(v) for (n, k), v in zip(gamma_cells, values)}
            ),
        ),
    }


#: Seconds between CPU-speed samples while a measured pass runs.
SAMPLE_INTERVAL_S = 0.05
#: Warm time of ``reference_kernel`` at the reference speed (its median on a
#: 2-vCPU Xeon VM, Python 3.11); ``wall_s`` is reported at this speed.
REFERENCE_KERNEL_S = 1.6e-4


def reference_kernel() -> int:
    """Fixed interpreter work on small integers; it touches almost no memory."""
    total = 0
    for i in range(2000):
        total += i * i % 7
    return total


class SpeedProbe:
    """Samples how fast this CPU runs the interpreter, from inside the pass.

    On a shared host a process slows by tens of percent for seconds to
    minutes.  Every ``SAMPLE_INTERVAL_S`` a SIGALRM handler runs the
    reference kernel twice and keeps the time of the second, warm run; the
    handler's own time is taken out of the step times.  The kernel works on
    small integers only, so the state the workload leaves in the caches
    hardly changes its time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum: int, frame: Any) -> None:
        start = time.perf_counter()
        reference_kernel()
        warm = time.perf_counter()
        reference_kernel()
        end = time.perf_counter()
        self.samples.append(end - warm)
        self.spent += end - start

    def __enter__(self) -> SpeedProbe:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def run_pass(
    steps: Steps, workdir: Path, keep: bool, probe: SpeedProbe | None = None
) -> dict[str, Any]:
    """Run every step once; return the pass time and each step's time and digest or error.

    With a probe, step times leave out the probe's handler time and the pass
    also reports ``speed_s``, the median warm kernel time during the pass.
    """
    report: dict[str, Any] = {}
    first_sample = len(probe.samples) if probe else 0
    for name, (call, serialize) in steps.items():
        spent = probe.spent if probe else 0.0
        start = time.perf_counter()
        try:
            value = call()
            elapsed = time.perf_counter() - start - ((probe.spent - spent) if probe else 0.0)
            data = serialize(value)
        except Exception as exc:  # a failed operation is counted, not fatal
            report[name] = {"s": time.perf_counter() - start, "ok": False,
                            "error": f"{type(exc).__name__}: {exc}"}
            continue
        report[name] = {"s": elapsed, "ok": True, "sha256": hashlib.sha256(data).hexdigest()}
        if keep:
            (workdir / f"pass0-{name}.out").write_bytes(data)
    result = {"wall_s": sum(step["s"] for step in report.values()), "steps": report}
    if probe:
        samples = probe.samples[first_sample:]
        if not samples:  # a pass shorter than one sampling interval
            probe._tick(signal.SIGALRM, None)
            samples = probe.samples[-1:]
        result["speed_s"] = statistics.median(samples)
    return result


def measure(steps: Steps, workdir: Path, seconds: float) -> list[dict[str, Any]]:
    """Passes until the next one would overrun ``seconds``; at least three."""
    passes: list[dict[str, Any]] = []
    start = time.perf_counter()
    with SpeedProbe() as probe:
        while True:
            passes.append(run_pass(steps, workdir, keep=not passes, probe=probe))
            elapsed = time.perf_counter() - start
            typical = statistics.median(p["wall_s"] for p in passes)
            if len(passes) >= 3 and elapsed + typical > seconds:
                return passes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=tuple(SIZES), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    steps = steps_for(args.workload, SIZES[args.size][args.workload], args.seed, args.workdir)
    result: dict[str, Any] = {"bhm": bhm.cli.__file__}
    if args.trace:
        untraced = run_pass(steps, args.workdir, keep=True)
        tracer = tracing.Tracer()
        tracing.install(tracer)
        traced = run_pass(steps, args.workdir, keep=False)
        result["passes"] = [untraced, traced]
        result["layers"] = tracing.layer_metrics(tracer, traced["wall_s"], untraced["wall_s"])
    else:
        result["passes"] = measure(steps, args.workdir, args.seconds)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["threads"] = {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
    result["numpy"] = np.__version__
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
