"""Experiment harness and command-line interface.

Subcommands: gen, quantum-run, classical-run, bruteforce, fourier-verify,
gamma, sweep, verify-all.  Every stochastic subcommand requires an
explicit --seed and is fully deterministic given it: identical seed and
flags produce byte-identical output.  bruteforce is exact and takes no
--seed (``bhm bruteforce --seed 1`` exits 2).  Exit codes: 0 success, 1
verification failure, 2 configuration error, 3 budget exceeded, 4
internal error (any other exception, its traceback on stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import traceback
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from . import classical, combinatorics, quantum, verify
from .errors import BudgetExceeded
# _sample_promise_arrays is not called here; the binding stays because
# perfbench's tracer self-test checks that it wraps this module's name
from .instances import _sample_promise_arrays, _sample_source_and_count, sample_T  # noqa: F401
from .seeding import HYPERGEOM_MAX, HalfWords, substream

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

# argparse dest -> (least value, must be odd, rule).  main checks each flag the
# command has and set, in this order, before the command's own rules run
_POSITIVE = (1, False, "positive")
_NONNEGATIVE = (0, False, "nonnegative")
_FLAG_RULES: dict[str, tuple[int, bool, str]] = {
    "seed": _NONNEGATIVE, "n": _POSITIVE, "m": _POSITIVE, "cases": _POSITIVE,
    "trials": _POSITIVE, "reps": (1, True, "odd and positive"), "mc": _POSITIVE,
    "count": _NONNEGATIVE, "bits": _NONNEGATIVE, "subset_size": _NONNEGATIVE,
}


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def emit(
    rows: Iterable[dict[str, Any]],
    fieldnames: Sequence[str],
    fmt: str,
    path: str | None,
) -> None:
    """Write rows as CSV (with header) or JSON lines, to a file or stdout.

    Each row's line is written as ``rows`` yields it, so a generator of
    rows is never held whole.  ``path`` is opened before the first row is
    drawn: an unwritable path is refused before any work.  If ``rows``
    raises, or a write fails, the partial file is removed before the
    exception propagates; on stdout the lines already written stay.
    """
    if fmt == "csv":
        header = ",".join(fieldnames) + "\n"
        lines = (",".join(_format_value(row[k]) for k in fieldnames) + "\n" for row in rows)
    elif fmt == "json":
        header = ""
        lines = (json.dumps(row, sort_keys=True) + "\n" for row in rows)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path is None:
        sys.stdout.write(header)
        sys.stdout.writelines(lines)
        return
    try:
        handle = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    try:
        with handle:
            handle.write(header)
            handle.writelines(lines)
    except BaseException as exc:
        # a device such as /dev/null is left in place; only a file is removed
        if os.path.isfile(path):
            os.remove(path)
        if isinstance(exc, OSError):
            raise OSError(f"cannot write {path}: {exc}") from exc
        raise


# ---------------------------------------------------------------------------
# harness operations


def run_separation_sweep(
    ns: Sequence[int], reps: int, subset_size: int, trials: int, seed: int
) -> list[dict[str, Any]]:
    """Quantum vs classical success at matched trial counts per grid point.

    Instances are drawn from the generating mixture restricted to the
    promise.  The quantum side runs the r-shot majority protocol; the
    classical side runs the subset protocol with ``subset_size`` known
    positions.  Each trial draws only what its vote reads: the source bit
    and the disagreement count, and on the classical side the known-edge
    count (see :func:`classical.subset_trial_outcomes`).
    """
    if not ns or any(v < 1 for v in ns) or list(ns) != sorted(set(ns)):
        grid = ",".join(map(str, ns))
        raise ValueError(f"--ns must be a strictly increasing list of positive n, got {grid!r}")
    quantum._check_odd(reps)
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    # the grid is increasing, so its first point bounds the subset for every
    # point and its last point bounds n
    _check_subset_size(subset_size, ns[0])
    _check_subset_n("--ns", ns[-1])
    rows = []
    # the trial loop's callees as locals: one lookup per sweep, not per trial
    reader, stream = HalfWords, substream
    sample, vote = _sample_source_and_count, quantum.majority_vote_count
    for grid_idx, n in enumerate(ns):
        hits = 0
        for t in range(trials):
            words = reader(stream(seed, grid_idx, 0, t))
            b, d = sample(n, words, restrict_promise=True)
            hits += vote(n, d, reps, words) == b
        quantum_mc = combinatorics.MonteCarloEstimate(hits, trials)
        classical_mc = classical.run_subset_trials(
            n, subset_size, trials, _stage_seed(seed, grid_idx), restrict_promise=True
        )
        rows.append(
            {
                "n": n,
                "qubit_cost": reps * quantum.message_qubits(n),
                "quantum_trials": trials,
                "quantum_success": quantum_mc.estimate,
                "quantum_sigma": quantum_mc.sigma,
                "bit_cost": subset_size,
                "classical_trials": trials,
                "classical_success": classical_mc.estimate,
                "classical_sigma": classical_mc.sigma,
                "seed": seed,
            }
        )
    return rows


def _check_subset_size(subset_size: int, n: int) -> None:
    if not 0 <= subset_size <= 2 * n:
        raise ValueError(f"--subset-size {subset_size} out of range 0..{2 * n}")


def _check_subset_n(flag: str, n: int) -> None:
    if n >= HYPERGEOM_MAX:
        raise ValueError(
            f"{flag} {n} is too large for the subset protocol: n must be below "
            f"{HYPERGEOM_MAX}"
        )


def _stage_seed(seed: int, stage: int) -> int:
    # distinct 64-bit stage seeds so nested runners keep per-trial substreams
    return (seed * 1_000_003 + stage + 1) % (1 << 63)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args: argparse.Namespace) -> int:
    def records() -> Iterator[dict[str, Any]]:
        for i in range(args.count):
            record = sample_T(args.n, substream(args.seed, i)).to_json_dict()
            record["seed"] = args.seed
            record["trial"] = i
            yield record

    emit(records(), [], "json", args.out)
    return EXIT_OK


#: quantum-run's columns, in CSV order
_QUANTUM_RUN_FIELDS = ("trial", "n", "r", "d", "source", "guess", "correct", "qubit_cost", "seed")


def _cmd_quantum_run(args: argparse.Namespace) -> int:
    qubit_cost = args.reps * quantum.message_qubits(args.n)

    def rows() -> Iterator[dict[str, Any]]:
        for t in range(args.trials):
            rng = substream(args.seed, t)
            inst = sample_T(args.n, rng)
            disagree = quantum.disagreement_bits(inst)
            guess = int(quantum.majority_votes(disagree, args.reps, 1, rng)[0])
            yield {
                "trial": t,
                "n": args.n,
                "r": args.reps,
                "d": int(np.count_nonzero(disagree)),
                "source": inst.source,
                "guess": guess,
                "correct": int(guess == inst.source),
                "qubit_cost": qubit_cost,
                "seed": args.seed,
            }

    emit(rows(), _QUANTUM_RUN_FIELDS, args.format, args.out)
    return EXIT_OK


def _cmd_classical_run(args: argparse.Namespace) -> int:
    _check_subset_size(args.subset_size, args.n)
    _check_subset_n("--n", args.n)
    est = classical.run_subset_trials(args.n, args.subset_size, args.trials, args.seed)
    record = {
        "protocol": f"subset-{args.subset_size}",
        "message_bits": args.subset_size,
        "method": "monte_carlo",
        "success_prob": est.estimate,
        "trials": est.trials,
        "sigma": est.sigma,
        "n": args.n,
        "seed": args.seed,
    }
    emit([record], [], "json", args.out)
    return EXIT_OK


def _cmd_bruteforce(args: argparse.Namespace) -> int:
    report = classical.bruteforce_optimal(args.n, args.bits)
    emit([report.to_json_dict()], [], "json", args.out)
    return EXIT_OK


def _cmd_fourier_verify(args: argparse.Namespace) -> int:
    results = verify.run_fourier_suite(args.m, args.cases, args.seed)
    return _emit_check_results(results, args.out)


def _gamma_digits_exceed(n: int, k: int, digits: int) -> bool:
    """Whether gamma_exact(n, k)'s reduced denominator surely has more than ``digits`` digits.

    gamma = C(n, k'/2) / C(2n, k'), k' = min(k, 2n - k), is the product of
    (2j - 1) / (2n - 2j + 1) over j = 1..k'/2.  Its numerator is at least
    1, so its denominator has more digits than the sum of the positive
    terms log10((2n - 2j + 1) / (2j - 1)).  The sum stops once it passes
    ``digits``, after at most about 4.2 ``digits`` terms, since each term
    of the first half is at least log10(3).  The terms are rounded floats,
    so a caller leaves a margin of one digit; a difference of
    ``math.lgamma`` values would lose whole digits to cancellation at
    large n.
    """
    k = min(k, 2 * n - k)
    total = 0.0
    for j in range(1, k // 2 + 1):
        total += math.log10(2 * n - 2 * j + 1) - math.log10(2 * j - 1)
        if total > digits:
            return True
    return False


def _cmd_gamma(args: argparse.Namespace) -> int:
    if args.k % 2:
        raise ValueError(f"--k must be even, got {args.k}")
    if not 2 <= args.k <= 2 * args.n:
        raise ValueError(f"--k must be in 2..{2 * args.n}, got {args.k}")
    if args.mc is not None and args.seed is None:
        raise ValueError("--mc requires --seed")
    # Python refuses int-to-str past sys.get_int_max_str_digits() (0: no limit)
    limit = sys.get_int_max_str_digits()
    too_long = ValueError(
        f"--n {args.n} and --k {args.k} give an exact fraction of more than {limit} "
        "digits, the interpreter's limit for integer string conversion"
    )
    if limit and _gamma_digits_exceed(args.n, args.k, limit + 1):
        raise too_long
    exact = combinatorics.gamma_exact(args.n, args.k)
    try:
        exact_fraction = f"{exact.numerator}/{exact.denominator}"
    except ValueError:
        raise too_long from None
    record: dict[str, Any] = {
        "n": args.n,
        "k": args.k,
        "exact": float(exact),
        "exact_fraction": exact_fraction,
        "bound": combinatorics.gamma_bound(args.n, args.k),
        # lifted characters of odd weight have support weight 2 mod 4
        "proof_relevant": args.k % 4 == 2,
    }
    if args.mc is not None:
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

    def add_out(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", type=str, default=None, help="output path (default stdout)")

    def add_common(p: argparse.ArgumentParser, seed_required: bool = True) -> None:
        p.add_argument("--seed", type=int, required=seed_required,
                       help="base seed; all randomness derives from it")
        add_out(p)

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
    add_out(p)  # exact: no --seed
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
        for dest, (least, odd, rule) in _FLAG_RULES.items():
            value = getattr(args, dest, None)
            if value is not None and (value < least or odd and value % 2 == 0):
                raise ValueError(f"--{dest.replace('_', '-')} must be {rule}, got {value}")
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
