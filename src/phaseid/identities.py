"""The exact identities that ``phaseid verify-identities`` re-checks.

Each check returns the largest deviation it sees from an identity that
holds exactly; the command passes a check whose deviation lies below
``tolerances.IDENTITY_ATOL``. The checks build their cases as stacked
arrays and validate each stack once with the stacked validators of
``qsim``, not one state object per case. They are numpy code, so they
live apart from ``cli``, which imports this module only when the
command runs.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import keys, protocol
from .qsim import check_density_operators, check_pure_states


def _phase_angles() -> np.ndarray:
    """Angle of every phase k/p with p = 2..7 and k = 1..p, 27 in all."""
    ks, ps = np.array([(k, p) for p in range(2, 8) for k in range(1, p + 1)]).T
    return keys.phase_angles(ks, ps)


def _challenge_overlaps() -> np.ndarray:
    """Overlap of the challenge with (|x+ x+> - |x- x->)/sqrt(2), one per ``_phase_angles``.

    {|x+>, |x->} is the phase basis of the angle.
    """
    bell = protocol.bob_prepare_challenge()
    bases = keys.phase_bases(_phase_angles())                      # (case, outcome, 2)
    pairs = bases[:, :, :, None] * bases[:, :, None, :]            # |x x> of each outcome
    vecs = (pairs[:, 0] - pairs[:, 1]).reshape(-1, 4) / math.sqrt(2.0)
    check_pure_states(vecs)
    return vecs @ bell.amplitudes.conj()


def _check_challenge_decomposition() -> float:
    # The challenge has this form, up to phase, in every phase basis.
    return float(np.max(np.abs(np.abs(_challenge_overlaps()) - 1.0)))


def _check_phase_average() -> float:
    a = np.arange(-12, 13)
    ps = np.arange(2, 10)
    want = (a % ps[:, None] == 0).astype(np.float64)
    return float(np.max(np.abs(keys._phase_average_rows(a, ps) - want)))


def _check_averaging_equivalence() -> float:
    # Per n, the three averages are built in one call and validated with
    # the weight mixture in one stack.
    worst = 0.0
    for n in range(1, 7):
        averages = keys.averaged_key_operators((n + 1, n + 2, 2 * n + 3), n)
        target = keys._symmetric_mixture_matrix(n)
        check_density_operators(np.concatenate([averages, target[None]]))
        worst = max(worst, float(np.max(np.abs(averages - target))))
    return worst


@functools.lru_cache(maxsize=1)
def _phase_table() -> protocol.BranchTable:
    """The honest branch table of every ``_phase_angles``, built once for both honest checks."""
    return protocol.honest_round_branches(_phase_angles())


def _check_honest_round_certainty() -> float:
    # Each row's marginal, as an exact session takes it. One session per
    # (variant, r), its key running through every phase 1..p (standard
    # r <= 5, hardened r <= 3), uses exactly the moduli p = 2..7, so its
    # rounds read exactly these rows and have the same largest deviation.
    return float(np.max(np.abs(1.0 - _phase_table().marginal)))


def _check_response_uniformity() -> float:
    return float(np.max(np.abs(_phase_table().probability - 0.5)))


_IDENTITY_CHECKS = (
    ("challenge-decomposition", _check_challenge_decomposition),
    ("phase-average-vanishing", _check_phase_average),
    ("averaging-equivalence", _check_averaging_equivalence),
    ("honest-round-certainty", _check_honest_round_certainty),
    ("response-uniformity", _check_response_uniformity),
)
