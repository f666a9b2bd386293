"""Simulators and exact numerical verifiers for the Boolean hidden
matching problem: the log-cost quantum one-way protocol, classical
one-way baselines, and the Fourier/combinatorial identities behind
their separation.

The exported names load on first access (PEP 562), so ``import bhm``
imports no numpy; each name is then the very object its home module
defines.
"""

import importlib

__version__ = "0.1.0"

#: exported name -> the module of the package that defines it
_HOMES = {
    "BitString": "core",
    "PerfectMatching": "core",
    "apply_matching": "core",
    "lift_character": "core",
    "BudgetExceeded": "errors",
    "DimensionMismatch": "errors",
    "NOISE_BIAS": "instances",
    "BhmInstance": "instances",
    "density_mu": "instances",
    "promise_outside_probability": "instances",
    "sample_matching": "instances",
    "sample_T": "instances",
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str) -> object:
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
