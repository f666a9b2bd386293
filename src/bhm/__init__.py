"""Simulators and exact numerical verifiers for the Boolean hidden
matching problem: the log-cost quantum one-way protocol, classical
one-way baselines, and the Fourier/combinatorial identities behind
their separation."""

from .core import BitString, PerfectMatching, apply_matching, lift_character
from .errors import BudgetExceeded, DimensionMismatch
from .instances import (
    NOISE_BIAS,
    BhmInstance,
    density_mu,
    promise_outside_probability,
    sample_matching,
    sample_T,
)

__version__ = "0.1.0"

__all__ = [
    "BitString",
    "PerfectMatching",
    "apply_matching",
    "lift_character",
    "BudgetExceeded",
    "DimensionMismatch",
    "NOISE_BIAS",
    "BhmInstance",
    "density_mu",
    "promise_outside_probability",
    "sample_matching",
    "sample_T",
    "__version__",
]
