"""Exact simulation of the one-way quantum protocol.

Alice encodes her 2n-bit string as the sign pattern of a uniform
superposition over 2n basis states, so the message costs ceil(log2(2n))
qubits.  Bob measures in the basis {(|k> + |l>)/sqrt2, (|k> - |l>)/sqrt2}
over his matching edges; the outcome reveals one uniformly random edge
together with its exact parity, and Bob answers parity xor w for that
edge.  Amplitudes stay real throughout: the protocol never creates a
complex phase.

Measurement is implemented twice: the analytic shortcut (uniform edge,
sign forced by the parity) that runners use, and a generic projector
path that samples from the squared inner products of the explicit basis,
kept as the oracle that tests and ``verify`` hold it against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import BitString, PerfectMatching, apply_matching
from .errors import DimensionMismatch
from .instances import BhmInstance, _count_law


@dataclass(frozen=True, eq=False)
class MessageState:
    """Real amplitude vector with entries +-1/sqrt(dim)."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=np.float64).copy()
        if amps.ndim != 1 or amps.size < 2 or amps.size % 2 != 0:
            raise ValueError("amplitude vector must have even length >= 2")
        scale = 1.0 / math.sqrt(amps.size)
        if not np.allclose(np.abs(amps), scale, atol=1e-12):
            raise ValueError("amplitudes must all be +-1/sqrt(dim)")
        if abs(float(amps @ amps) - 1.0) > 1e-12:
            raise ValueError("state is not normalized")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True)
class MeasurementOutcome:
    """Measured edge (1-based) and the sign of the observed basis vector."""

    edge_index: int
    sign: int

    def parity(self) -> int:
        """Edge parity revealed with certainty: 0 for +, 1 for -."""
        return 0 if self.sign > 0 else 1


@dataclass(frozen=True)
class TrialReport:
    """Outcome record of one protocol run."""

    guess: int
    truth: int | None
    shots: int
    qubit_cost: int

    @property
    def correct(self) -> bool | None:
        return None if self.truth is None else self.guess == self.truth


def message_qubits(n: int) -> int:
    """Qubits per message: ceil(log2(2n))."""
    if n < 1:
        raise ValueError("n must be positive")
    return (2 * n - 1).bit_length()


def prepare_state(x: BitString) -> MessageState:
    """Alice's message state: amplitude i is (-1)^x_i / sqrt(2n)."""
    if x.length % 2 != 0:
        raise DimensionMismatch("message state needs an even-length string")
    signs = 1.0 - 2.0 * x.bits
    return MessageState(amplitudes=signs / math.sqrt(x.length))


#: Rows 2i and 2i + 1 of the matching basis at the endpoints (k, l) of edge i.
_EDGE_BASIS = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


def matching_basis(matching: PerfectMatching) -> np.ndarray:
    """Explicit orthonormal basis; rows 2i and 2i+1 are the +- vectors of edge i."""
    dim = matching.size
    basis = np.zeros((dim, dim))
    rows = np.arange(dim).reshape(-1, 2, 1)
    basis[rows, matching.pairs_array()[:, None, :]] = _EDGE_BASIS
    return basis


def outcome_probabilities(state: MessageState, matching: PerfectMatching) -> np.ndarray:
    """Squared inner products against the explicit basis, ordered like its rows."""
    if state.dim != matching.size:
        raise DimensionMismatch(
            f"state dimension {state.dim} vs matching on {matching.size} points"
        )
    overlaps = matching_basis(matching) @ state.amplitudes
    return overlaps**2


def _edge_parity(state: MessageState, matching: PerfectMatching, i: int) -> int:
    k, l = matching.pairs_array()[i].tolist()
    return 0 if state.amplitudes[k] * state.amplitudes[l] > 0 else 1


def measure_matching_basis(
    state: MessageState,
    matching: PerfectMatching,
    rng: np.random.Generator,
    method: str = "analytic",
) -> MeasurementOutcome:
    """Sample one measurement outcome.

    ``analytic`` draws a uniform edge and sets the sign from the parity;
    ``projector`` samples from the squared inner products of the explicit
    basis and is the oracle route.  Either way the sign is checked against
    the true parity: the protocol's whole point is that it never disagrees.
    """
    if state.dim != matching.size:
        raise DimensionMismatch(
            f"state dimension {state.dim} vs matching on {matching.size} points"
        )
    if method == "projector":
        probs = outcome_probabilities(state, matching)
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"outcome probabilities sum to {total!r}")
        idx = int(rng.choice(probs.size, p=probs / total))
        edge, sign = divmod(idx, 2)
        outcome = MeasurementOutcome(edge_index=edge + 1, sign=1 if sign == 0 else -1)
    elif method == "analytic":
        edge = int(rng.integers(matching.n))
        parity = _edge_parity(state, matching, edge)
        outcome = MeasurementOutcome(edge_index=edge + 1, sign=1 if parity == 0 else -1)
    else:
        raise ValueError(f"unknown measurement method {method!r}")
    if outcome.parity() != _edge_parity(state, matching, outcome.edge_index - 1):
        raise RuntimeError(f"sign contradicts the parity of edge {outcome.edge_index}")
    return outcome


def run_single(
    inst: BhmInstance, rng: np.random.Generator, method: str = "analytic"
) -> int:
    """One protocol execution; returns Bob's guess (edge parity xor w)."""
    state = prepare_state(inst.x)
    outcome = measure_matching_basis(state, inst.matching, rng, method=method)
    return outcome.parity() ^ inst.w.bit(outcome.edge_index)


def run_repeated(
    inst: BhmInstance, r: int, rng: np.random.Generator, method: str = "analytic"
) -> TrialReport:
    """Majority vote over r independent runs, each with a fresh message state."""
    if r < 1 or r % 2 == 0:
        raise ValueError(f"repetitions must be odd and positive, got {r}")
    if method == "analytic":
        guess = majority_vote(_disagreement_bits(inst), r, rng)
    else:
        # one run_single per shot: the oracle route for majority_vote
        ones = sum(run_single(inst, rng, method=method) for _ in range(r))
        guess = 1 if 2 * ones > r else 0
    return TrialReport(
        guess=guess,
        truth=inst.source,
        shots=r,
        qubit_cost=r * message_qubits(inst.n),
    )


def majority_vote(disagree: np.ndarray, r: int, rng: np.random.Generator) -> int:
    """Bob's r-shot majority guess for odd r, given disagree = edge parities xor w.

    One batched draw of r uniform edges: the per-shot distribution of r
    analytic :func:`run_single` calls.
    """
    ones = int(disagree[rng.integers(0, disagree.size, size=r)].sum())
    return 1 if 2 * ones > r else 0


def majority_vote_count(n: int, d: int, r: int, rng: np.random.Generator) -> int:
    """Bob's r-shot majority guess for odd r when d of the n edges disagree.

    The edges are exchangeable, so the d disagreeing ones may be taken to
    be the first d: this is :func:`majority_vote` on ``arange(n) < d``,
    draw for draw, without building the n-bit array.
    """
    ones = int((rng.integers(0, n, size=r) < d).sum())
    return 1 if 2 * ones > r else 0


def _disagreement_bits(inst: BhmInstance) -> np.ndarray:
    return apply_matching(inst.matching, inst.x).bits ^ inst.w.bits


def empirical_success(inst: BhmInstance, shots: int, rng: np.random.Generator) -> float:
    """Fraction of single-shot guesses matching the source over many shots."""
    if inst.source is None:
        raise ValueError("instance has no source label")
    if shots < 1:
        raise ValueError("shots must be positive")
    disagree = _disagreement_bits(inst)
    guesses = disagree[rng.integers(0, inst.n, size=shots)]
    return float(np.mean(guesses == inst.source))


def majority_success(p: Fraction | float, r: int) -> Fraction | float:
    """P[Binomial(r, p) > r/2] for odd r; exact when p is a Fraction."""
    if r < 1 or r % 2 == 0:
        raise ValueError(f"repetitions must be odd and positive, got {r}")
    q = 1 - p
    return sum(math.comb(r, j) * p**j * q ** (r - j) for j in range((r + 1) // 2, r + 1))


def mixture_success(n: int, r: int, promise: bool = True) -> Fraction:
    """Exact success of the r-shot protocol over the generating mixture.

    Averages :func:`exact_success` over the source bit and the
    disagreement count d, which is all it reads: one shot is right with
    probability (n - d)/n for source 0 and d/n for source 1.  With
    ``promise``, d is kept inside the promise only.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    total = Fraction(0)
    for b in (0, 1):
        for d, p_d in _count_law(n, b, promise).items():
            p = Fraction(d, n) if b else Fraction(n - d, n)
            total += p_d * majority_success(p, r) / 2
    return total


def exact_success(inst: BhmInstance, r: int = 1) -> Fraction:
    """Exact probability that the r-shot majority guess equals the source.

    Single-shot success is (n - d)/n for source 0 and d/n for source 1,
    with d the number of w positions disagreeing with the edge parities.
    """
    if inst.source is None:
        raise ValueError("instance has no source label")
    d = inst.disagreements()
    p = Fraction(inst.n - d, inst.n) if inst.source == 0 else Fraction(d, inst.n)
    result = majority_success(p, r)
    if not isinstance(result, Fraction):
        raise TypeError(f"exact success came out as {type(result).__name__}, not Fraction")
    return result
