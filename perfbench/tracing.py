"""Per-layer tracing built from wrappers the benchmark installs around bhm.

Every public function of each ``bhm`` module, a few private kernels and
the value-type constructors get a wrapper that records a span: calls and
self time (the span's duration minus the time of its child spans).  A few
wrappers also count the work their arguments describe, such as FWHT
points or Monte-Carlo trials.

Modules copy names on ``from x import f``, so a wrapper is installed on
every ``bhm`` module attribute that holds the original function, not only
on the defining module.  Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable

#: Explicit layer names; other public functions fall into ``<module>.other``.
LAYER_OF = {
    "bhm.seeding": {"substream": "seeding.substream"},
    "bhm.core": {
        "apply_matching": "core.ops",
        "hamming_distance": "core.ops",
        "lift_character": "core.ops",
    },
    "bhm.instances": {
        "_sample_t_arrays": "instances.kernel",
        "_sample_promise_arrays": "instances.kernel",
        "sample_T": "instances.objects",
        "sample_promise_instance": "instances.objects",
    },
    "bhm.quantum": {
        "run_single": "quantum.run",
        "run_repeated": "quantum.run",
        "empirical_success": "quantum.run",
        "measure_matching_basis": "quantum.run",
        "prepare_state": "quantum.run",
        "outcome_probabilities": "quantum.projector",
        "matching_basis": "quantum.projector",
    },
    "bhm.classical": {
        "subset_trial_outcomes": "classical.subset_mc",
        "run_subset_trials": "classical.subset_mc",
        "bayes_success": "classical.exact",
        "subset_success_exact": "classical.exact",
        "bruteforce_optimal": "classical.exact",
        "_bruteforce_one_bit": "classical.exact",
    },
    "bhm.fourier": {"_fwht": "fourier.fwht", "convolve": "fourier.convolve"},
    "bhm.combinatorics": {
        "enumerate_matchings": "combinatorics.enumerate",
        "gamma_monte_carlo": "combinatorics.gamma_mc",
    },
    "bhm.cli": {
        "emit": "cli.emit",
        "run_separation_sweep": "cli.sweep",
        "main": "cli.command",
    },
}

#: Names of the ``CheckResult`` rows ``verify.run_all`` produces, in order.
VERIFY_CHECKS = (
    "core_identities",
    "fourier_roundtrip",
    "parseval",
    "convolution_theorem",
    "l1_l2_relation",
    "kkl_inequality",
    "closed_form_spectrum",
    "lift_identity",
    "measurement_probabilities",
    "projector_vs_analytic",
    "quantum_mc_vs_exact",
    "amplification",
    "matching_counts",
    "gamma",
    "density_normalization",
    "promise_rates",
    "subset_oracle",
    "classical_exact",
)

#: The sweep grid; the promise acceptance is reported for each of its n.
PROMISE_NS = (16, 64, 256, 512)

#: Layers whose self time is reported.
SELF_TIME_LAYERS = (
    "seeding.substream",
    "seeding.other",
    "instances.kernel",
    "instances.objects",
    "instances.other",
    "core.construct",
    "core.ops",
    "quantum.run",
    "quantum.projector",
    "quantum.other",
    "classical.subset_mc",
    "classical.exact",
    "classical.other",
    "fourier.fwht",
    "fourier.convolve",
    "fourier.other",
    "combinatorics.enumerate",
    "combinatorics.gamma_mc",
    "combinatorics.other",
    "verify.checks",
    "verify.other",
    "cli.emit",
    "cli.sweep",
    "cli.command",
    "cli.other",
)

#: Per-layer metric names and units, in report order.
PER_LAYER_METRICS = (
    [
        ("seeding.substream.calls", "count"),
        ("instances.kernel.draws", "count"),
        ("instances.promise.accept_ratio", "ratio"),
        ("instances.promise.accept_exact", "ratio"),
    ]
    + [(f"instances.promise.accept_ratio.n{n}", "ratio") for n in PROMISE_NS]
    + [(f"instances.promise.accept_exact.n{n}", "ratio") for n in PROMISE_NS]
    + [
        ("instances.objects.calls", "count"),
        ("core.construct.calls", "count"),
        ("core.ops.calls", "count"),
        ("quantum.run.calls", "count"),
        ("quantum.projector.calls", "count"),
        ("classical.subset_mc.trials", "count"),
        ("classical.exact.cells", "count"),
        ("fourier.fwht.points", "count"),
        ("fourier.fwht.bytes_computed", "B"),
        ("combinatorics.enumerate.matchings", "count"),
        ("combinatorics.gamma_mc.trials", "count"),
        ("cli.emit.bytes", "B"),
    ]
    + [(f"{layer}.self_s", "s") for layer in SELF_TIME_LAYERS]
    + [(f"verify.{name}.s", "s") for name in VERIFY_CHECKS]
    + [
        ("trace.traced_wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.unattributed_s", "s"),
    ]
)


class Tracer:
    """Span stack with per-layer calls, self time and work counters."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.check_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.promise_draws: dict[int, int] = defaultdict(int)
        self.promise_accepted: dict[int, int] = defaultdict(int)
        self._children: list[float] = []

    def span(self, layer: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            children = self._children.pop()
            if self._children:
                self._children[-1] += duration
            self.calls[layer] += 1
            self.self_s[layer] += duration - children


def _cells(a: dict[str, Any], result: Any) -> int:
    """Tuple visits of one exact enumeration: 2^2n x (2n-1)!! x 2^n."""
    n = a["n"]
    return (1 << (2 * n)) * math.prod(range(1, 2 * n, 2)) * (1 << n)


def _fwht_points(a: dict[str, Any], result: Any) -> int:
    size = a["values"].size
    return (size.bit_length() - 1) * size


def _fwht_bytes(a: dict[str, Any], result: Any) -> int:
    # float64 copy in, then one read and one write of the table per stage
    size = a["values"].size
    return 16 * size * size.bit_length()


def _emitted(a: dict[str, Any], result: Any) -> int:
    return 0 if a["path"] is None else os.path.getsize(a["path"])


#: Work counters: function name -> [(counter, amount(bound arguments, result))].
COUNTERS: dict[str, list[tuple[str, Callable[[dict[str, Any], Any], int]]]] = {
    "_sample_t_arrays": [("instances.kernel.draws", lambda a, r: 1)],
    "bayes_success": [("classical.exact.cells", _cells)],
    "subset_success_exact": [("classical.exact.cells", _cells)],
    "_bruteforce_one_bit": [("classical.exact.cells", _cells)],
    "_fwht": [
        ("fourier.fwht.points", _fwht_points),
        ("fourier.fwht.bytes_computed", _fwht_bytes),
    ],
    "subset_trial_outcomes": [("classical.subset_mc.trials", lambda a, r: a["trials"])],
    "enumerate_matchings": [("combinatorics.enumerate.matchings", lambda a, r: len(r))],
    "gamma_monte_carlo": [("combinatorics.gamma_mc.trials", lambda a, r: a["trials"])],
    "emit": [("cli.emit.bytes", _emitted)],
}


def _wrap(tracer: Tracer, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    counters = COUNTERS.get(fn.__name__)
    if counters is None:

        @functools.wraps(fn)
        def plain(*args: Any, **kwargs: Any) -> Any:
            return tracer.span(layer, fn, *args, **kwargs)

        return plain

    sig = inspect.signature(fn)

    @functools.wraps(fn)
    def counted(*args: Any, **kwargs: Any) -> Any:
        result = tracer.span(layer, fn, *args, **kwargs)
        bound = sig.bind(*args, **kwargs).arguments
        for key, amount in counters:
            tracer.counts[key] += amount(bound, result)
        return result

    return counted


def _wrap_promise(tracer: Tracer, fn: Callable[..., Any]) -> Callable[..., Any]:
    """Promise filter: draws it made and draws it accepted, per n."""

    @functools.wraps(fn)
    def promise(n: int, rng: Any) -> Any:
        before = tracer.counts["instances.kernel.draws"]
        result = tracer.span("instances.kernel", fn, n, rng)
        tracer.promise_draws[n] += tracer.counts["instances.kernel.draws"] - before
        tracer.promise_accepted[n] += 1
        return result

    return promise


def _wrap_check(tracer: Tracer, fn: Callable[..., Any]) -> Callable[..., Any]:
    """A verify check, timed under the name of the ``CheckResult`` it returns."""

    @functools.wraps(fn)
    def check(*args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        result = tracer.span("verify.checks", fn, *args, **kwargs)
        tracer.check_s[result.name] += time.perf_counter() - start
        return result

    return check


def _wrapper_for(tracer: Tracer, mod_name: str, name: str, fn: Callable[..., Any]):
    if mod_name == "bhm.verify" and name.startswith("check_"):
        return _wrap_check(tracer, fn)
    if name == "_sample_promise_arrays":
        return _wrap_promise(tracer, fn)
    explicit = LAYER_OF.get(mod_name, {})
    if name in explicit:
        return _wrap(tracer, explicit[name], fn)
    if mod_name == "bhm.cli" and name.startswith("_cmd_"):
        return _wrap(tracer, "cli.command", fn)
    if not name.startswith("_"):
        return _wrap(tracer, mod_name.split(".", 1)[1] + ".other", fn)
    return None


def install(tracer: Tracer) -> None:
    """Wrap every traced function on every ``bhm`` binding."""
    import bhm.cli  # noqa: F401  (imports every module the workloads use)

    modules = [
        mod
        for name, mod in sorted(sys.modules.items())
        if (name == "bhm" or name.startswith("bhm.")) and mod is not None
    ]
    # id(original) -> (original, wrapper); holding the original keeps ids unique
    wrapped: dict[int, tuple[Callable[..., Any], Callable[..., Any]]] = {}
    for mod in modules:
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                wrapper = _wrapper_for(tracer, mod.__name__, name, obj)
                if wrapper is not None:
                    wrapped[id(obj)] = (obj, wrapper)
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            entry = wrapped.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(mod, name, entry[1])
    core = sys.modules["bhm.core"]
    for cls in (core.BitString, core.PerfectMatching):
        cls.__post_init__ = _wrap(tracer, "core.construct", cls.__post_init__)


def exact_accept(n: int) -> float:
    """1 - P(promise violated) for the mixture at n, by integer arithmetic.

    Written independently of ``bhm.instances``: d ~ Binomial(n, 1/4) and
    the promise holds iff 3d <= n or 3d >= 2n.
    """
    inside = sum(
        math.comb(n, d) * 3 ** (n - d) for d in range(n + 1) if 3 * d <= n or 3 * d >= 2 * n
    )
    return inside / 4**n


def layer_metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> dict[str, float]:
    """Every per-layer metric from one traced pass."""
    values: dict[str, float] = {
        "seeding.substream.calls": tracer.calls["seeding.substream"],
        "instances.kernel.draws": tracer.counts["instances.kernel.draws"],
        "instances.objects.calls": tracer.calls["instances.objects"],
        "core.construct.calls": tracer.calls["core.construct"],
        "core.ops.calls": tracer.calls["core.ops"],
        "quantum.run.calls": tracer.calls["quantum.run"],
        "quantum.projector.calls": tracer.calls["quantum.projector"],
    }
    for key in (
        "classical.subset_mc.trials",
        "classical.exact.cells",
        "fourier.fwht.points",
        "fourier.fwht.bytes_computed",
        "combinatorics.enumerate.matchings",
        "combinatorics.gamma_mc.trials",
        "cli.emit.bytes",
    ):
        values[key] = tracer.counts[key]
    draws = sum(tracer.promise_draws.values())
    accepted = sum(tracer.promise_accepted.values())
    values["instances.promise.accept_ratio"] = accepted / draws if draws else 0.0
    # expected accepted/draws over the same mix of n: draws at n average
    # accepted(n) / p(n)
    expected_draws = sum(a / exact_accept(n) for n, a in tracer.promise_accepted.items())
    values["instances.promise.accept_exact"] = accepted / expected_draws if accepted else 0.0
    for n in PROMISE_NS:
        d = tracer.promise_draws.get(n, 0)
        values[f"instances.promise.accept_ratio.n{n}"] = (
            tracer.promise_accepted[n] / d if d else 0.0
        )
        values[f"instances.promise.accept_exact.n{n}"] = exact_accept(n)
    for layer in SELF_TIME_LAYERS:
        values[f"{layer}.self_s"] = tracer.self_s[layer]
    for name in VERIFY_CHECKS:
        values[f"verify.{name}.s"] = tracer.check_s[name]
    values["trace.traced_wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.unattributed_s"] = traced_wall - sum(tracer.self_s.values())
    return values
