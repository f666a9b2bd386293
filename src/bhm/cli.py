"""Experiment harness and command-line interface.

Subcommands: gen, quantum-run, classical-run, bruteforce, fourier-verify,
gamma, sweep, verify-all.  Every stochastic subcommand requires an
explicit --seed and is fully deterministic given it: identical seed and
flags produce byte-identical output.  Exit codes: 0 success, 1
verification failure, 2 configuration error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Sequence

from . import classical, combinatorics, quantum, verify
from .errors import BudgetExceeded
# _sample_promise_arrays is not called here; the binding stays because
# perfbench's tracer self-test checks that it wraps this module's name
from .instances import _sample_promise_arrays, _sample_source_and_count, sample_T  # noqa: F401
from .seeding import substream

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def emit(
    rows: list[dict[str, Any]],
    fieldnames: Sequence[str],
    fmt: str,
    path: str | None,
) -> None:
    """Write rows as CSV (with header) or JSON lines, to a file or stdout."""
    if fmt == "csv":
        lines = [",".join(fieldnames)]
        lines += [",".join(_format_value(row[k]) for k in fieldnames) for row in rows]
    elif fmt == "json":
        lines = [json.dumps(row, sort_keys=True) for row in rows]
    else:
        raise ValueError(f"unknown format {fmt!r}")
    text = "".join(line + "\n" for line in lines)
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise OSError(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# harness operations


def run_separation_sweep(
    ns: Sequence[int], reps: int, subset_size: int, trials: int, seed: int
) -> list[dict[str, Any]]:
    """Quantum vs classical success at matched trial counts per grid point.

    Instances are drawn from the generating mixture restricted to the
    promise.  The quantum side runs the r-shot majority protocol; the
    classical side runs the subset protocol on the first ``subset_size``
    positions.  Each trial draws only what its vote reads: the source bit
    and the disagreement count, and on the classical side the known-edge
    count (see :func:`classical.subset_trial_outcomes`).
    """
    if not ns or any(v < 1 for v in ns) or list(ns) != sorted(set(ns)):
        raise ValueError("grid must be a strictly increasing list of positive n")
    if reps < 1 or reps % 2 == 0:
        raise ValueError("reps must be odd and positive")
    if trials < 1:
        raise ValueError("trials must be positive")
    # the grid is increasing, so its first point bounds the subset for every point
    if not 0 <= subset_size <= 2 * ns[0]:
        raise ValueError(f"subset size {subset_size} out of range 0..{2 * ns[0]}")
    rows = []
    for grid_idx, n in enumerate(ns):
        hits = 0
        for t in range(trials):
            rng = substream(seed, grid_idx, 0, t)
            b, d = _sample_source_and_count(n, rng, restrict_promise=True)
            hits += quantum.majority_vote_count(n, d, reps, rng) == b
        q_hat = hits / trials
        report = classical.run_subset_trials(
            n,
            range(1, subset_size + 1),
            trials,
            _stage_seed(seed, grid_idx),
            restrict_promise=True,
        )
        rows.append(
            {
                "n": n,
                "qubit_cost": reps * quantum.message_qubits(n),
                "quantum_trials": trials,
                "quantum_success": q_hat,
                "quantum_sigma": math.sqrt(q_hat * (1.0 - q_hat) / trials),
                "bit_cost": subset_size,
                "classical_trials": trials,
                "classical_success": report.success_prob,
                "classical_sigma": report.sigma,
                "seed": seed,
            }
        )
    return rows


def _stage_seed(seed: int, stage: int) -> int:
    # distinct 64-bit stage seeds so nested runners keep per-trial substreams
    return (seed * 1_000_003 + stage + 1) % (1 << 63)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.count < 0:
        raise ValueError(f"--count must be nonnegative, got {args.count}")
    rows = []
    for i in range(args.count):
        inst = sample_T(args.n, substream(args.seed, i))
        record = inst.to_json_dict()
        record["seed"] = args.seed
        record["trial"] = i
        rows.append(record)
    emit(rows, [], "json", args.out)
    return EXIT_OK


def _cmd_quantum_run(args: argparse.Namespace) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be positive, got {args.trials}")
    rows = []
    for t in range(args.trials):
        rng = substream(args.seed, t)
        inst = sample_T(args.n, rng)
        report = quantum.run_repeated(inst, args.reps, rng)
        rows.append(
            {
                "trial": t,
                "n": args.n,
                "r": args.reps,
                "d": inst.disagreements(),
                "source": inst.source,
                "guess": report.guess,
                "correct": int(report.guess == inst.source),
                "qubit_cost": report.qubit_cost,
                "seed": args.seed,
            }
        )
    emit(rows, list(rows[0]), args.format, args.out)
    return EXIT_OK


def _cmd_classical_run(args: argparse.Namespace) -> int:
    if args.subset_size < 0:
        raise ValueError(f"--subset-size must be nonnegative, got {args.subset_size}")
    # with n < 1 the runner's own "n must be positive" is the message
    if args.n >= 1 and args.subset_size > 2 * args.n:
        raise ValueError(f"--subset-size {args.subset_size} out of range 0..{2 * args.n}")
    report = classical.run_subset_trials(
        args.n, range(1, args.subset_size + 1), args.trials, args.seed
    )
    record = report.to_json_dict()
    record["n"] = args.n
    record["seed"] = args.seed
    emit([record], [], "json", args.out)
    return EXIT_OK


def _cmd_bruteforce(args: argparse.Namespace) -> int:
    report = classical.bruteforce_optimal(args.n, args.bits)
    emit([report.to_json_dict()], [], "json", args.out)
    return EXIT_OK


def _cmd_fourier_verify(args: argparse.Namespace) -> int:
    results = verify.run_fourier_suite(args.m, args.cases, args.seed)
    return _emit_check_results(results, args.out)


def _cmd_gamma(args: argparse.Namespace) -> int:
    if args.n < 1:
        raise ValueError(f"--n must be positive, got {args.n}")
    exact = combinatorics.gamma_exact(args.n, args.k)
    record: dict[str, Any] = {
        "n": args.n,
        "k": args.k,
        "exact": float(exact),
        "exact_fraction": f"{exact.numerator}/{exact.denominator}",
        "bound": combinatorics.gamma_bound(args.n, args.k),
        # lifted characters of odd weight have support weight 2 mod 4
        "proof_relevant": args.k % 4 == 2,
    }
    if args.mc is not None:
        if args.mc < 1:
            raise ValueError(f"--mc must be positive, got {args.mc}")
        if args.seed is None:
            raise ValueError("--mc requires --seed")
        est = combinatorics.gamma_monte_carlo(
            args.n, args.k, args.mc, substream(args.seed, 0)
        )
        record.update(
            {"mc_estimate": est.estimate, "sigma": est.sigma, "trials": est.trials,
             "seed": args.seed}
        )
    emit([record], [], "json", args.out)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        ns = [int(v) for v in args.ns.split(",") if v]
    except ValueError:
        raise ValueError(
            f"--ns must be a comma-separated list of integers, got {args.ns!r}"
        ) from None
    rows = run_separation_sweep(ns, args.reps, args.subset_size, args.trials, args.seed)
    emit(rows, list(rows[0]), args.format, args.out)
    return EXIT_OK


def _cmd_verify_all(args: argparse.Namespace) -> int:
    results = verify.run_all(args.seed, m=args.m, cases=args.cases, trials=args.trials)
    return _emit_check_results(results, args.out)


def _emit_check_results(results: list[verify.CheckResult], path: str | None) -> int:
    rows = [r.to_json_dict() for r in results]
    failed = [r.name for r in results if not r.passed]
    rows.append({"check": "summary", "passed": not failed, "failed": failed})
    emit(rows, [], "json", path)
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bhm",
        description="Simulators and exact verifiers for the Boolean hidden "
        "matching problem.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, seed_required: bool = True) -> None:
        p.add_argument("--seed", type=int, required=seed_required,
                       help="base seed; all randomness derives from it")
        p.add_argument("--out", type=str, default=None, help="output path (default stdout)")

    p = sub.add_parser("gen", help="sample instances as JSON lines")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("quantum-run", help="per-trial quantum protocol runs")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--reps", type=int, default=1, help="odd repetition count")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    add_common(p)
    p.set_defaults(func=_cmd_quantum_run)

    p = sub.add_parser("classical-run", help="subset-protocol Monte Carlo")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--subset-size", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    add_common(p)
    p.set_defaults(func=_cmd_classical_run)

    p = sub.add_parser("bruteforce", help="exact optimum over Alice maps")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--bits", type=int, default=1)
    add_common(p, seed_required=False)
    p.set_defaults(func=_cmd_bruteforce)

    p = sub.add_parser("fourier-verify", help="Fourier identity suite")
    p.add_argument("--m", type=int, default=8)
    p.add_argument("--cases", type=int, default=50)
    add_common(p)
    p.set_defaults(func=_cmd_fourier_verify)

    p = sub.add_parser("gamma", help="matching probability for a fixed support")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mc", type=int, default=None, help="Monte-Carlo trials")
    add_common(p, seed_required=False)
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("sweep", help="quantum vs classical separation curve")
    p.add_argument("--ns", type=str, required=True, help="comma-separated n grid")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--subset-size", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    add_common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("verify-all", help="every module's property suite")
    p.add_argument("--m", type=int, default=8)
    p.add_argument("--cases", type=int, default=50)
    p.add_argument("--trials", type=int, default=20_000)
    add_common(p)
    p.set_defaults(func=_cmd_verify_all)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        # every subcommand has --seed; substream refuses negative seeds too,
        # but only once a run reaches its first draw
        if args.seed is not None and args.seed < 0:
            raise ValueError(f"--seed must be nonnegative, got {args.seed}")
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
