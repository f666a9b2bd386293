"""Exact simulation of the one-way quantum protocol.

Alice encodes her 2n-bit string as the sign pattern of a uniform
superposition over 2n basis states, so the message costs ceil(log2(2n))
qubits.  Bob measures in the basis {(|k> + |l>)/sqrt2, (|k> - |l>)/sqrt2}
over his matching edges; the outcome reveals one uniformly random edge
together with its exact parity, and Bob answers parity xor w for that
edge.  Amplitudes stay real throughout: the protocol never creates a
complex phase.

Measurement has one route: :func:`measure_matching_basis` samples from
the squared inner products of the explicit basis.  It and
:func:`run_single`, the protocol exactly as stated, are the oracles that
tests and ``verify`` hold the r-shot vote :func:`majority_votes` and its
count-only form :func:`majority_vote_count` against; those draw the
uniform edges directly and never build the basis.  Every Monte-Carlo
vote on a whole instance is :func:`majority_votes` on its
:func:`disagreement_bits`.  The count-only form
runs once per sweep trial, so it takes its r edges from the trial's
:class:`seeding.HalfWords` reader, one ``below(n)`` each: the draws of
numpy's ``integers(0, n, size=r)`` without its per-call overhead.

The exact successes share one vote tail, :func:`_majority_wins`, in whole
numbers; :func:`mixture_success` sums it over source 0 alone, the mirror
of source 1 at d -> n - d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import BitString, PerfectMatching, apply_matching
from .errors import DimensionMismatch
from .instances import BhmInstance, _count_law
from .seeding import HalfWords


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


def measure_matching_basis(
    state: MessageState, matching: PerfectMatching, rng: np.random.Generator, shots: int
) -> np.ndarray:
    """Sample ``shots`` independent outcomes, in one batch.

    Outcome k is row k of :func:`matching_basis`: edge k // 2 observed with
    parity k % 2.  Every outcome is checked against the true parity of its
    edge: the protocol's whole point is that it never disagrees.
    """
    if shots < 1:
        raise ValueError(f"shots must be positive, got {shots}")
    probs = outcome_probabilities(state, matching)
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"outcome probabilities sum to {total!r}")
    outcomes = rng.choice(probs.size, p=probs / total, size=shots)
    k, l = matching.pairs_array()[outcomes // 2].T
    wrong = np.flatnonzero((state.amplitudes[k] * state.amplitudes[l] < 0) != outcomes % 2)
    if wrong.size:
        edge = int(outcomes[wrong[0]]) // 2 + 1
        raise RuntimeError(f"sign contradicts the parity of edge {edge}")
    return outcomes


def run_single(inst: BhmInstance, rng: np.random.Generator) -> int:
    """One protocol execution; returns Bob's guess (edge parity xor w)."""
    outcomes = measure_matching_basis(prepare_state(inst.x), inst.matching, rng, 1)
    edge, parity = divmod(int(outcomes[0]), 2)
    return parity ^ inst.w.bit(edge + 1)


#: Shot draws per block of :func:`majority_votes`, so memory does not grow with trials.
_VOTE_BLOCK = 1 << 16


def majority_votes(
    disagree: np.ndarray, r: int, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Bob's guesses over ``trials`` successive r-shot runs for odd r, on one generator.

    A run guesses the majority of ``disagree`` (edge parities xor w) at r
    uniform edges.  PCG64 keeps its spare 32-bit half-word between blocks,
    so the runs draw exactly as one r-edge draw per run would.
    """
    _check_odd(r)
    rows = max(1, _VOTE_BLOCK // r)
    guesses = np.empty(trials, dtype=np.uint8)
    for start in range(0, trials, rows):
        picks = rng.integers(0, disagree.size, size=(min(rows, trials - start), r))
        guesses[start : start + rows] = 2 * disagree[picks].sum(axis=1) > r
    return guesses


def majority_vote_count(n: int, d: int, r: int, words: HalfWords) -> int:
    """Bob's r-shot majority guess for odd r when d of the n edges disagree.

    The edges are exchangeable, so the d disagreeing ones may be taken to
    be the first d: this is :func:`majority_votes` on ``arange(n) < d`` for
    one run on ``words.rng``, draw for draw, without building the n-bit
    array.  The r edges are r calls of ``words.below(n)``, which draw as
    ``rng.integers(0, n, size=r)`` does.
    """
    below = words.below
    ones = 0
    for _ in range(r):
        if below(n) < d:
            ones += 1
    return 1 if 2 * ones > r else 0


def disagreement_bits(inst: BhmInstance) -> np.ndarray:
    """Bit i is 1 where w disagrees with the parity of edge i: (Mx xor w)_i."""
    return apply_matching(inst.matching, inst.x).bits ^ inst.w.bits


def _check_odd(r: int) -> None:
    if r < 1 or r % 2 == 0:
        raise ValueError(f"repetitions must be odd and positive, got {r}")


def _majority_wins(right: Fraction | float, wrong: Fraction | float, r: int) -> Fraction | float:
    """Sum over j > r/2 of C(r, j) right^j wrong^(r-j), for odd r.

    With right + wrong = 1 it is the chance that most of r independent
    shots are right.  With whole numbers right + wrong = n it is that
    chance times n^r, in whole numbers: n - d and d for source 0 when d
    of the n edges disagree, d and n - d for source 1.
    """
    _check_odd(r)
    return sum(math.comb(r, j) * right**j * wrong ** (r - j) for j in range((r + 1) // 2, r + 1))


def majority_success(p: Fraction | float, r: int) -> Fraction | float:
    """P[Binomial(r, p) > r/2] for odd r; exact when p is a Fraction."""
    return _majority_wins(p, 1 - p, r)


def mixture_success(n: int, r: int, promise: bool) -> Fraction:
    """Exact success of the r-shot protocol over the generating mixture.

    Averages :func:`exact_success` over the source bit and the
    disagreement count d, which is all it reads.  With ``promise``, d is
    kept inside the promise only.  Source 1 mirrors source 0 at d -> n - d,
    so the source-0 half alone is one sum in whole numbers: the weights of
    :func:`instances._count_law` times :func:`_majority_wins` at (n - d, d).
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    weights, mass = _count_law(n, promise)
    wins = sum(weight * _majority_wins(n - d, d, r) for d, weight in weights.items())
    return Fraction(wins, mass * n**r)


def exact_success(inst: BhmInstance, r: int = 1) -> Fraction:
    """Exact probability that the r-shot majority guess equals the source."""
    if inst.source is None:
        raise ValueError("instance has no source label")
    n, d = inst.n, int(np.count_nonzero(disagreement_bits(inst)))
    right = d if inst.source else n - d
    return Fraction(_majority_wins(right, n - right, r), n**r)
