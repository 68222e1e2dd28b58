"""Seeded randomness and deterministic seed derivation.

All sampling in the package goes through numpy's default generator
(PCG64), seeded explicitly. Child seeds for independent streams are
expanded from (master seed, stream index) with splitmix64 so that
sweeps and multi-session runs stay reproducible without sharing a
stream. Every seed, master and stream index lies in 0..2^64 - 1; one
outside it is refused, not reduced modulo 2^64 onto another seed.
"""

from __future__ import annotations

import numpy as np

from .errors import _require_int

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(state: int) -> int:
    """One splitmix64 mixing step applied to ``state``."""
    z = (state + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(master: int, index: int) -> int:
    """Child seed for stream ``index`` under ``master``.

    Mixes the index through splitmix64 before combining so that nearby
    indices land far apart in seed space.
    """
    master = _require_int("master", master, 0, _MASK64)
    return splitmix64(master ^ splitmix64(_require_int("stream index", index, 0, _MASK64)))


def make_rng(seed: int) -> np.random.Generator:
    """Fresh PCG64 generator for the given seed."""
    return np.random.default_rng(_require_int("seed", seed, 0, _MASK64))
