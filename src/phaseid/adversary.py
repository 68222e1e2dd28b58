"""Optimal impersonation analysis for a bounded-copy adversary.

An adversary holding t public-key copies but not the private phase
faces a binary discrimination problem each round: the received half of
the challenge is one of two phase-conjugate states, with the phase
reference itself unknown. Averaging over that relative phase, t copies
collapse (by symmetry) to a single (t+1)-level register in the Hamming
weight basis with binomial amplitudes, and the round reduces to
discriminating two explicit mixed states at equal priors.

The main path works in sector form. The phase average makes both
states block diagonal in the charge sectors n = b + w, where b is the
received qubit and w the frame weight, and no block is larger than
2x2. Helstrom's measurement is then a closed-form projector per
sector. It commutes with the phase rotation, so an attacked round has
the same branch and pass probabilities at every relative phase, and
one evaluation equals the phase average. The exact attack round is
that one evaluation, at angle 0, where every amplitude is real. Each
branch leaves the verifier a kept 2x2 state in closed form, with no
frame-length array, and his own step (entangled challenge,
conditional Z, SWAP test) turns the two into one row, reproducing
p_pass = (1 + psucc)/2. ``eve_attack_rounds`` is the one route to
that row, for any number of copy counts at once; ``eve_attack_round``
and the Eve prover's ``attack_round_branches`` read one t of it. An
adversarial session is that one row with every round indexing it,
whatever its key.

The closed form

    psucc(t) = 1/2 + (1/2) (1/2^t) sum_m sqrt(C(t,m) C(t,m+1))

comes from pure combinatorics. With the frame magnitudes
c_w = sqrt(C(t,w)/2^t) it reads psucc = 1/2 + (1/2) sum_w c_w c_{w+1}.
One normalised recurrence gives those magnitudes for every t, and the
frame, the overlap sum, psucc and the Helstrom strategy all read them;
there is no second route. The independent oracle builds the two
averaged states outright as dense (2t+2)-dimensional matrices and
applies the Helstrom value 1/2 + ||rho+ - rho-||_1/4. Its continuous
phase average is replaced by a uniform grid whose size strictly
exceeds the trigonometric degree of every averaged entry, which makes
the grid average exact, not approximate. Every entry is a grid sum,
with no sector structure assumed: its phases come from one table of
the grid's unit roots, indexed by exact integers, and the sum is one
real Gram product (``build_discrimination_pair`` and
``helstrom_psucc_oracle`` give the details). Grids and dense matrices
survive only in that oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DimensionMismatchError, NumericalError
from .keys import PrivateKey, phase_angles
from .protocol import BranchTable, verify_kept_states
from .qsim import check_density_operators
from .tolerances import COMPARE_ATOL, CONSTRUCT_ATOL

__all__ = [
    "HelstromStrategy",
    "CheatGuessReport",
    "EveProver",
    "overlap_sum",
    "psucc_formula",
    "cheung_sum_bound",
    "cheung_bound",
    "build_discrimination_pair",
    "helstrom_strategy",
    "helstrom_psucc_oracle",
    "attack_round_branches",
    "eve_attack_round",
    "eve_attack_rounds",
    "sample_attack_rounds",
]

# Largest t the dense oracle (explicit density operators) will attempt.
_MAX_ORACLE_T = 256


def _check_t(t: int, minimum: int = 0) -> int:
    t = int(t)
    if t < minimum:
        raise ValueError(f"t must be >= {minimum}, got {t}")
    return t


@functools.lru_cache(maxsize=_MAX_ORACLE_T + 1)
def _frame_magnitudes(t: int) -> np.ndarray:
    """sqrt(C(t,w)/2^t) for w = 0..t, normalized to rounding.

    The one source of the binomial amplitudes, for every t: the frame,
    the overlap sum and psucc read these. Returned read-only. The memo
    serves ``psucc-table``, which reads each t up to the oracle's cap
    twice, for the formula and the oracle's frame, and again on a
    repeat call. It has one slot for each t = 0..cap, so a repeat call
    of a whole table finds every t (at most about 265 KB);
    ``_overlap_sum`` bypasses it for a larger t, so no array of a large
    t stays alive.
    """
    # Log-pmf recurrence outward from the mode m, with step
    # log C(t,w+1) - log C(t,w) = log1p((t-2w-1)/(w+1)). Partial sums
    # stay small wherever the mass is. Log-gamma values have size
    # t log t, and their rounding alone would push the norm off 1 by
    # 1e-11 at t = 1e4. Each step writes into its operand, so at most
    # two arrays of length t are alive at once.
    m = t // 2
    step = np.arange(t, dtype=np.float64)                 # w, then the step
    den = step + 1.0
    step *= 2.0
    np.subtract(t, step, out=step)
    step -= 1.0
    step /= den
    del den
    np.log1p(step, out=step)
    mags = np.empty(t + 1)                                # log pmf, then the magnitudes
    mags[m] = 0.0
    np.cumsum(step[m:], out=mags[m + 1:])
    np.negative(np.cumsum(step[:m][::-1], out=mags[:m][::-1]), out=mags[:m][::-1])
    del step
    mags *= 0.5
    np.exp(mags, out=mags)
    mags /= math.sqrt(math.fsum(mags * mags))
    mags.setflags(write=False)
    return mags


def overlap_sum(t: int) -> float:
    """(1/2^t) sum_{m=0}^{t-1} sqrt(C(t,m) C(t,m+1)); 0 when t = 0.

    The sum of c_m c_{m+1} over neighbouring frame magnitudes.
    """
    return _overlap_sum(_check_t(t))


@functools.lru_cache(maxsize=1024)
def _overlap_sum(t: int) -> float:
    # Memoised on t: an Eve session reads it twice, once for its
    # strategy's psucc and once for the attacked round's kept states
    # (``eve_attack_rounds``). A run-attack sweep reads it once per t.
    mags = (_frame_magnitudes if t <= _MAX_ORACLE_T else _frame_magnitudes.__wrapped__)(t)
    return math.fsum(mags[1:] * mags[:-1])


def psucc_formula(t: int) -> float:
    """Closed-form optimal guessing probability with t key copies."""
    return 0.5 + 0.5 * overlap_sum(t)


def cheung_sum_bound(t: int) -> float:
    """Combinatorial upper bound on overlap_sum: 1 - 1/(2(t+1)) - 1/2^{t+1}.

    Tight at t = 1, where both sides equal 1/2.
    """
    t = _check_t(t, minimum=1)
    return 1.0 - 1.0 / (2.0 * (t + 1)) - 0.5 ** (t + 1)


def cheung_bound(t: int) -> float:
    """Resulting bound on psucc_formula(t): 1 - 1/(4(t+1))."""
    t = _check_t(t, minimum=1)
    return 1.0 - 1.0 / (4.0 * (t + 1))


def _pair_grid(t: int) -> int:
    # Entries of the averaged pair have trig degree <= t+1.
    return 2 * t + 5


def _unit_roots(grid: int) -> np.ndarray:
    """The grid's unit roots e^{2 pi i m/g}, m = 0..g-1: cosines, then sines, shape (2, g)."""
    angles = phase_angles(np.arange(grid), grid)
    roots = np.empty((2, grid))
    np.cos(angles, out=roots[0])
    np.sin(angles, out=roots[1])
    return roots


def build_discrimination_pair(t: int) -> np.ndarray:
    """Average challenge (x) frame over the relative phase: the stack [rho+, rho-].

    Both operators act on (received qubit b, frame weight w), dims
    (2, t+1), and come back as one read-only (2, 2t+2, 2t+2) float64
    stack. The received qubit and the frame are both defined relative
    to the honest phase convention, which is uniformly unknown to the
    adversary, so one shared angle rotates the whole product. A uniform
    grid of at least t+2 points reproduces the continuous average
    exactly (every matrix entry is a trig polynomial of degree <= t+1);
    ``_pair_grid`` keeps a safety margin. This dense construction is the
    independent oracle; the main path never builds it, and it assumes
    none of the pair's block structure: every entry is a grid sum.

    At grid point k, theta_k = 2 pi k/g (k = 1..g, as
    ``keys.phase_angles`` maps it), the rho+ amplitude of |b, w> is
    (c_w/sqrt 2) omega^{(b+w)k}, with omega = e^{2 pi i/g}. So one
    table of the g unit roots (``_unit_roots``), indexed by the exact
    integer (b+w)k mod g, gives every phase, and no large angle is
    rounded before a trig call. With C and S the real arrays c_w cos
    and c_w sin of shape (g, 2t+2), the grid sum's real part is the one
    stacked product [C; S]^T [C; S] (a symmetric rank-k update) and its
    imaginary part is M - M^T, M = S^T C. The 1/sqrt 2 of the received
    qubit is folded into the divisor 2g, which rounds nothing. The grid
    is closed under theta -> -theta, so the exact average is real: the
    imaginary part's largest entry, divided by 2g, must stay within
    CONSTRUCT_ATOL (NumericalError otherwise), and only the real part
    is divided and kept.

    One grid average serves both signs. The sign flips only the
    received qubit's |1> amplitude, so rho- = Z rho+ Z with Z acting on
    the received qubit (a diagonal signature), which is exact in
    floating point. Both operators are validated as density operators
    by one ``check_density_operators`` call on the stack, so a failure
    names the sign (0 for rho+, 1 for rho-) as its stack index.
    """
    t = _check_t(t)
    if t > _MAX_ORACLE_T:
        raise ValueError(f"t={t} exceeds the explicit-construction cap {_MAX_ORACLE_T}")
    grid = _pair_grid(t)
    dim = 2 * (t + 1)
    power = np.multiply.outer(np.arange(1, grid + 1), np.arange(t + 2))  # k (b+w), b+w <= t+1
    power %= grid
    phases = np.take(_unit_roots(grid), power, axis=1)                   # (cos/sin, k, b+w)
    mags = _frame_magnitudes(t)
    parts = np.empty((2, grid, 2, t + 1))                                # (cos/sin, k, b, w)
    np.multiply(phases[..., :-1], mags, out=parts[..., 0, :])
    np.multiply(phases[..., 1:], mags, out=parts[..., 1, :])
    parts = parts.reshape(2, grid, dim)                                  # C, S
    stacked = parts.reshape(2 * grid, dim)
    skew = parts[1].T @ parts[0]
    imag = float(np.abs(skew - skew.T).max()) / (2 * grid)
    if imag > CONSTRUCT_ATOL:
        raise NumericalError(f"grid average at t={t} has imaginary part {imag!r}")
    pair = np.empty((2, dim, dim))
    plus, minus = pair
    np.divide(stacked.T @ stacked, 2 * grid, out=plus)
    # rho- = Z rho+ Z; adding +0.0 leaves an exact zero as +0.0, as the
    # sign -1 average itself makes it, not as -0.0.
    signature = np.repeat([1.0, -1.0], t + 1)
    np.multiply(plus, np.multiply.outer(signature, signature), out=minus)
    minus += 0.0
    check_density_operators(pair)
    pair.setflags(write=False)
    return pair


@dataclass(frozen=True)
class HelstromStrategy:
    """The optimal binary measurement {P+, P-} for t copies, recorded as t and psucc.

    The measurement acts on the (received, frame) registers in sector
    form. The phase-averaged pair is block diagonal in the charge
    sectors n = b + w. In each interior sector 1 <= n <= t the gap
    rho+ - rho- is c_n c_{n-1} sigma_x on {|0,n>, |1,n-1>} (c_w the
    frame magnitudes), so by Helstrom's theorem P+ projects onto
    (|0,n> + |1,n-1>)/sqrt(2). The 1x1 end sectors |0,0> and |1,t>
    carry no gap; both go to P+. Being block diagonal in n, P+ commutes
    with the phase rotation e^{i(b+w) theta}. t fixes the projector, so
    the value holds none; the projector itself is the tests' oracle.
    """

    t: int
    psucc: float

    def __post_init__(self):
        _check_t(self.t)
        if not 0.5 - CONSTRUCT_ATOL <= self.psucc <= 1.0 + CONSTRUCT_ATOL:
            raise NumericalError(f"psucc {self.psucc!r} outside [1/2, 1]")


def helstrom_strategy(t: int) -> HelstromStrategy:
    """The optimal discrimination measurement for t copies.

    Its success probability is 1/2 + (1/4) sum_n ||gap_n||_1
    = 1/2 + (1/2) sum_n c_n c_{n-1}, which is psucc_formula(t).

    It is optimal against a continuous phase average, and so against a
    key whose phases are multiples of 2 pi/p only while t <= p - 2: the
    p-point average equals the continuous one for every trigonometric
    degree below p, and the pair has degree t + 1. At t >= p - 1 the
    measurement is still a valid attack on such a key, but no longer
    the best one. The union-bound chain never needs more than p - 2
    copies (see ``bounds``).
    """
    t = _check_t(t)
    return HelstromStrategy(t, psucc_formula(t))


def helstrom_psucc_oracle(t: int) -> float:
    """Independent oracle: 1/2 + ||rho+ - rho-||_1 / 4 from explicit states.

    rho- = S rho+ S with S = Z (x) I (``build_discrimination_pair``), so
    the gap is 2 [[0, B], [B^T, 0]] with B = rho+[:t+1, t+1:], whose
    eigenvalues are +-2 sigma_i(B). Hence ||rho+ - rho-||_1 =
    4 sum_i sigma_i(B), and the oracle is 1/2 + sum_i sigma_i(B).
    """
    block = build_discrimination_pair(t)[0, : t + 1, t + 1:]
    return 0.5 + float(np.linalg.svd(block, compute_uv=False).sum())


def attack_round_branches(strategy: HelstromStrategy) -> BranchTable:
    """The attacked round's one-row branch table for ``strategy.t`` copies.

    The verifier prepares the entangled challenge; the adversary
    measures {P+, P-} on the received register joined with her frame;
    the verifier applies the conditional Z and SWAP-tests his kept
    register against his own authentic copy. The row is
    ``eve_attack_round(strategy.t).branches``, the same at every
    relative phase.
    """
    return eve_attack_round(strategy.t).branches


@dataclass(frozen=True)
class CheatGuessReport:
    """Exact attack-round pass probability next to the guessing probability.

    ``branches`` is the attacked round's one-row table, a row of the
    table ``eve_attack_rounds`` validates; ``p_pass_exact`` sums it,
    and ``sample_attack_rounds`` draws from it. Construction enforces
    p_pass = (1 + psucc)/2 between the verifier's p_pass (Z correction,
    SWAP test against his own authentic copy) and the strategy's psucc.
    So the report checks the verifier kernel against the closed form;
    the kept states themselves are checked by the tests' oracle, which
    applies P+- to the attacked amplitudes and forms them directly.
    """

    t: int
    p_pass_exact: float
    psucc_strategy: float
    branches: BranchTable

    def __post_init__(self):
        if abs(self.p_pass_exact - 0.5 * (1.0 + self.psucc_strategy)) > COMPARE_ATOL:
            raise NumericalError(
                f"cheat/guess identity violated: p_pass={self.p_pass_exact!r}, "
                f"psucc={self.psucc_strategy!r}"
            )


def eve_attack_round(t: int) -> CheatGuessReport:
    """Exact attacked-round evaluation, equal to its average over the relative phase.

    ``eve_attack_rounds([t])[0]``. One evaluation, at angle 0,
    suffices; no grid is needed, because every branch probability and
    every pass probability is exactly independent of the angle theta:

    - P+ and P- commute with the phase rotation R(theta) =
      e^{i(b+w) theta} on (received, frame), being block diagonal in
      the charge b + w.
    - The Bell challenge has charge 1, so rotating kept and received
      together only multiplies it by e^{i theta}. The attacked state at
      theta is thus, up to a global phase, the state at 0 rotated on
      all three registers, and P+- act on it the same way.
    - Branch weights are norms, unchanged by the rotation; the kept
      state turns by R(theta) on the kept qubit, which commutes with
      the conditional Z and turns with the authentic copy, so the
      SWAP-test overlap is unchanged too.

    That value is the optimal attacked round against a key with phase
    modulus p for t <= p - 2 only (see ``helstrom_strategy``).
    """
    return eve_attack_rounds([t])[0]


def eve_attack_rounds(t_values) -> list[CheatGuessReport]:
    """The attacked round's report for each copy count t of ``t_values``, in order.

    S = ``overlap_sum(t)`` is computed once per t: each strategy's
    psucc is 0.5 + 0.5 S, bit for bit ``psucc_formula(t)``, and the
    same S gives the kept states. The strategies are built first, so
    an out-of-range psucc is reported before any density check. At
    angle 0, P+- act on each sector's real amplitudes (c_n, c_{n-1}) on
    (|0,n>, |1,n-1>). Summed over the sectors, with c_0^2 = c_t^2 =
    2^-t from the end sectors, each branch's kept state is K+- = (1/4)
    [[1 +- 2^-t, +-S], [+-S, 1 +- 2^-t]], of trace (1 +- 2^-t)/2. One
    verifier step at angle 0 (``protocol.verify_kept_states``) and one
    validated table take every t; each report's ``branches`` is its
    row of that table (``BranchTable.row``).
    """
    ts = [_check_t(t) for t in t_values]
    if not ts:
        return []
    overlaps = [_overlap_sum(t) for t in ts]
    strategies = [HelstromStrategy(t, 0.5 + 0.5 * overlap) for t, overlap in zip(ts, overlaps)]
    edge = np.ldexp(1.0, np.negative(ts))[:, None]      # c_0^2 = c_t^2, per t
    overlap = np.array(overlaps)[:, None]
    sign = np.array([1.0, -1.0])                        # bit 0 (P+), bit 1 (P-)
    prob = 0.5 * (1.0 + sign * edge)
    kept = np.empty((len(ts), 2, 2, 2))
    kept[..., 0, 0] = kept[..., 1, 1] = 0.5 * prob
    kept[..., 0, 1] = kept[..., 1, 0] = 0.25 * sign * overlap
    pass_prob = verify_kept_states(kept, prob, np.zeros(len(ts)))
    table = BranchTable(prob, pass_prob)
    p_pass = prob[:, 0] * pass_prob[:, 0] + prob[:, 1] * pass_prob[:, 1]
    return [CheatGuessReport(strategy.t, value, strategy.psucc, table.row(j))
            for j, (strategy, value) in enumerate(zip(strategies, p_pass.tolist()))]


@dataclass(frozen=True)
class EveProver:
    """Adapter giving run_session an adversarial prover: ``round_branches(key)``.

    It runs against a key of any phase modulus p, but its strategy is the
    optimal one for that key only while strategy.t <= p - 2 (see
    ``helstrom_strategy``).
    """

    strategy: HelstromStrategy
    tag: ClassVar[str] = "helstrom-eve"

    def round_branches(self, key: PrivateKey) -> tuple[BranchTable, np.ndarray]:
        """The attacked round's one row, the same at every phase, for every round of ``key``."""
        return attack_round_branches(self.strategy), np.zeros(key.s, dtype=np.intp)


def sample_attack_rounds(branches: BranchTable, trials: int, rng) -> np.ndarray:
    """Sample independent attacked rounds; returns the boolean pass array.

    ``branches`` is the attacked round's one-row table, from
    ``attack_round_branches`` or a ``CheatGuessReport``. The row is the
    same at every relative phase (see ``eve_attack_round``), so a fresh
    key needs no draw of its own. Each trial draws the adversary's
    measurement outcome, then the SWAP-test verdict.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if branches.rounds != 1:
        raise DimensionMismatchError(f"expected one attacked row, got {branches.rounds}")
    low, (pass_low, pass_high) = branches.probability[0, 0], branches.pass_probability[0]
    took_low = rng.random(trials) < low
    u_swap = rng.random(trials)
    # Boolean algebra on the two verdicts: the same booleans as a select,
    # at a tenth of np.where's cost.
    return (took_low & (u_swap < pass_low)) | (~took_low & (u_swap < pass_high))
