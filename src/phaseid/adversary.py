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
adversarial session is that one row with every round reading it,
whatever its key.

The closed form psucc(t) = 1/2 + (1/2) S(t) comes from pure
combinatorics, with the overlap sum S(t) = 2^-t sum_m
sqrt(C(t,m) C(t,m+1)). psucc, the Helstrom strategy and the kept
states all read S(t) (``_overlap_sum``): an exact integer sum rounded
once up to the dense oracle's cap, its series in 1/t above it. Both
use only correctly rounded arithmetic, so no bit depends on the CPU.
The independent oracle builds the two averaged states outright as
dense (2t+2)-dimensional matrices from c_w = sqrt(C(t,w)/2^t), and
applies the Helstrom value 1/2 + ||rho+ - rho-||_1/4. Its continuous
phase average is replaced by a uniform grid whose size strictly
exceeds the trigonometric degree of every averaged entry, which makes
the grid average exact, not approximate. Every entry is a grid sum,
with no sector structure assumed: its phases come from a table of the
grid's unit roots, indexed by exact integers, and the sum is one real
Gram product (``build_discrimination_pair`` and
``helstrom_psucc_oracles`` give the details). A table of oracle values
makes one trig pass for the roots of every t's grid, then builds and
validates rho+ alone for each t, at O(t^3): the trace norm reads only
rho+'s off-diagonal block, and only ``build_discrimination_pair``
forms rho-. Grids and dense matrices survive only in that oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import DimensionMismatchError, NumericalError, _require_int
from .keys import phase_angles
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
    "helstrom_psucc_oracles",
    "attack_round_branches",
    "eve_attack_round",
    "eve_attack_rounds",
    "sample_attack_rounds",
]

# Largest t the dense oracle (explicit density operators) will attempt.
_MAX_ORACLE_T = 256


@functools.lru_cache(maxsize=_MAX_ORACLE_T + 1)
def _frame_magnitudes(t: int) -> np.ndarray:
    """c_w = sqrt(C(t,w)/2^t), w = 0..t, for the dense oracle: read-only, memoised.

    Exact binomials, correctly rounded steps: the same bits on every CPU.
    """
    scale = 1 << t
    mags = np.array([math.sqrt(math.comb(t, w) / scale) for w in range(t + 1)])
    mags.setflags(write=False)
    return mags


# a_1..a_8 of 1 - S(t) ~ sum_k a_k t^-k (``_overlap_sum``), each exact in a float.
_SERIES = (1/2, -1/8, 7/16, 101/128, 1191/256, 29163/1024, 450951/2048, 65785709/32768)


def overlap_sum(t: int) -> float:
    """(1/2^t) sum_{m=0}^{t-1} sqrt(C(t,m) C(t,m+1)); 0 when t = 0.

    The sum of c_m c_{m+1} over neighbouring frame magnitudes, correctly
    rounded for t <= 256 and within an ulp above (``_overlap_sum``).
    """
    return _overlap_sum(_require_int("t", t, 0))


@functools.lru_cache(maxsize=1024)
def _overlap_sum(t: int) -> float:
    """S(t), memoised: an Eve session reads it for its psucc and its kept states.

    Up to the cap, the t roots isqrt(C(t,m) C(t,m+1) 2^256) sum to an R
    with S(t) 2^(t+128) in [R, R + t]; both ends must round to one
    float (else NumericalError), the correctly rounded S(t). Above it,
    1 - S(t) ~ sum_k a_k t^-k (``_SERIES``), the expansion of
    E sqrt((t - M)/(M + 1)), M ~ Bin(t, 1/2), about M = t/2. Cut at
    k = 8 it is off by 4.6e-18 of S(t) at t = 257 (1/24 ulp), falling
    as t^-9. Horner's rule needs only correctly rounded +, x and /.
    """
    if t > _MAX_ORACLE_T:
        x, acc = 1 / t, 0.0
        for a in reversed(_SERIES):
            acc = a + x * acc
        return 1.0 - x * acc
    roots = sum(math.isqrt((math.comb(t, m) * math.comb(t, m + 1)) << 256) for m in range(t))
    scale = 1 << (t + 128)
    value = roots / scale
    if (roots + t) / scale != value:
        raise NumericalError(f"overlap sum at t={t} straddles a rounding boundary")
    return value


def psucc_formula(t: int) -> float:
    """Closed-form optimal guessing probability with t key copies."""
    return 0.5 + 0.5 * overlap_sum(t)


def cheung_sum_bound(t: int) -> float:
    """Combinatorial upper bound on overlap_sum: 1 - 1/(2(t+1)) - 1/2^{t+1}.

    Tight at t = 1, where both sides equal 1/2.
    """
    t = _require_int("t", t, 1)
    return 1.0 - 1.0 / (2.0 * (t + 1)) - 0.5 ** (t + 1)


def cheung_bound(t: int) -> float:
    """Resulting bound on psucc_formula(t): 1 - 1/(4(t+1))."""
    t = _require_int("t", t, 1)
    return 1.0 - 1.0 / (4.0 * (t + 1))


def _pair_grid(t: int) -> int:
    # Entries of the averaged pair have trig degree <= t+1.
    return 2 * t + 5


def _unit_roots(grids) -> np.ndarray:
    """Each grid's unit roots e^{2 pi i m/g}, m = 0..g-1, grid after grid.

    Cosines, then sines: shape (2, sum of the grids). One
    ``phase_angles`` call, one cos and one sin take every grid, and
    each angle 2 pi m/g is formed from its own exact m and g, so a
    grid's slice is bit for bit its table alone.
    """
    sizes = np.asarray(grids, dtype=np.intp)
    grid_of = np.repeat(sizes, sizes)                   # each root's g
    first = np.repeat(np.cumsum(sizes) - sizes, sizes)  # where its grid starts
    angles = phase_angles(np.arange(grid_of.size) - first, grid_of)
    roots = np.empty((2, angles.size))
    np.cos(angles, out=roots[0])
    np.sin(angles, out=roots[1])
    return roots


def _grid_average(t: int, roots: np.ndarray) -> np.ndarray:
    """rho+ for t copies from its grid's (2, g) unit roots: validated, (2t+2, 2t+2) float64.

    The arithmetic and the reality guard of ``build_discrimination_pair``,
    which gives the details; t must already be range-checked.
    """
    grid = roots.shape[1]
    dim = 2 * (t + 1)
    power = np.multiply.outer(np.arange(1, grid + 1), np.arange(t + 2))  # k (b+w), b+w <= t+1
    power %= grid
    phases = np.take(roots, power, axis=1)                               # (cos/sin, k, b+w)
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
    plus = np.divide(stacked.T @ stacked, 2 * grid)
    check_density_operators(plus)
    return plus


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
    none of the pair's block structure: every entry is a grid sum. Its
    rho+ is ``_grid_average``, which ``helstrom_psucc_oracles`` also
    calls, once per t, on one table of every row's unit roots; rho- is
    formed here only, as no oracle value reads it.

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
    received qubit's |1> amplitude, so rho- = D rho+ D with D = Z (x) I
    = diag(d), d_i = +-1, a diagonal signature: rho-_ij = d_i d_j rho+_ij
    exactly, and adding +0.0 turns -0.0 into +0.0. Only rho+ goes to
    ``check_density_operators``; each of its checks gives the same
    result on rho-, so rho- passes exactly when rho+ does:

    - Finiteness and the Hermitian gap: rho-_ij - rho-_ji =
      d_i d_j (rho+_ij - rho+_ji) in any round-to-nearest arithmetic,
      since fl(-x) = -fl(x), so every |gap| is bit for bit that of rho+,
      and so is every NaN or infinity.
    - Trace: d_i d_i = 1, so the diagonal, and the trace summed from it,
      is bit for bit that of rho+.
    - Smallest eigenvalue: the gaps being equal, both take the same
      route to a Hermitian part H, rho+ itself or (rho+ + rho+^T)/2, and
      that of rho- is D H D, sums and halving being odd too. The same
      shift c goes on the diagonal, so the certificate factorises
      D A D, A = H - c I. Every operation of a Cholesky factorisation
      (product, sum or fused multiply-add, difference, division by a
      pivot, square root of a pivot) is odd in each operand in
      round-to-nearest. So by induction over the factorisation's steps,
      in any order LAPACK and the BLAS take them, each computed entry of
      the factor of D A D is d_i d_j times that of A, up to the sign of
      a zero, and each pivot, where d_j d_j = 1, is bit for bit the
      same: the factorisation of D A D is exactly D L D, L that of A,
      and it completes exactly when that of A does. The certificate
      completes for every t the oracle takes (0..256, checked by the
      tests), so ``eigvalsh`` is never reached; if it were, it would run
      on rho+, whose exact spectrum rho- shares, D being orthogonal.
    """
    t = _require_int("t", t, 0, _MAX_ORACLE_T)
    plus = _grid_average(t, _unit_roots([_pair_grid(t)]))
    # rho- = Z rho+ Z; adding +0.0 leaves an exact zero as +0.0, as the
    # sign -1 average itself makes it, not as -0.0.
    signature = np.repeat([1.0, -1.0], t + 1)
    pair = np.stack((plus, plus * np.multiply.outer(signature, signature) + 0.0))
    pair.setflags(write=False)
    return pair


@dataclass(frozen=True)
class HelstromStrategy:
    """The optimal binary measurement {P+, P-} for t copies, recorded as t alone.

    The measurement acts on the (received, frame) registers in sector
    form. The phase-averaged pair is block diagonal in the charge
    sectors n = b + w. In each interior sector 1 <= n <= t the gap
    rho+ - rho- is c_n c_{n-1} sigma_x on {|0,n>, |1,n-1>} (c_w the
    frame magnitudes), so by Helstrom's theorem P+ projects onto
    (|0,n> + |1,n-1>)/sqrt(2). The 1x1 end sectors |0,0> and |1,t>
    carry no gap; both go to P+. Being block diagonal in n, P+ commutes
    with the phase rotation e^{i(b+w) theta}. t fixes the projector and
    its success probability ``psucc_formula(t)``, so the value holds
    neither; the projector itself is the tests' oracle.
    """

    t: int

    def __post_init__(self):
        object.__setattr__(self, "t", _require_int("t", self.t, 0))


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
    return HelstromStrategy(t)


def helstrom_psucc_oracle(t: int) -> float:
    """Independent oracle: 1/2 + ||rho+ - rho-||_1 / 4 from explicit states.

    ``helstrom_psucc_oracles([t])[0]``, which gives the details: one
    trig pass and rho+ alone. A table's column is one
    ``helstrom_psucc_oracles`` call, one trig pass for all its rows;
    only ``build_discrimination_pair`` forms rho-.
    """
    return helstrom_psucc_oracles([t])[0]


def helstrom_psucc_oracles(t_values) -> list[float]:
    """The independent oracle's value for each copy count t of ``t_values``, in order.

    rho- = S rho+ S with S = Z (x) I (``build_discrimination_pair``), so
    the gap is 2 [[0, B], [B^T, 0]] with B = rho+[:t+1, t+1:], whose
    eigenvalues are +-2 sigma_i(B). Hence ||rho+ - rho-||_1 =
    4 sum_i sigma_i(B), and the oracle is 1/2 + sum_i sigma_i(B): rho+
    alone gives it, and rho- is never formed. Every t is range-checked
    (0..256) before any oracle work. One trig pass (``_unit_roots``)
    makes the unit roots of every t's grid; each t then makes its own
    validated rho+ from its slice (``_grid_average``) and one SVD of
    dimension t+1, O(t^3) per t, so its value does not depend on the
    other t of the table.
    """
    ts = [_require_int("t", t, 0, _MAX_ORACLE_T) for t in t_values]
    grids = [_pair_grid(t) for t in ts]
    roots = _unit_roots(grids)
    values, end = [], 0
    for t, grid in zip(ts, grids):
        start, end = end, end + grid
        block = _grid_average(t, roots[:, start:end])[: t + 1, t + 1:]
        values.append(0.5 + float(np.linalg.svd(block, compute_uv=False).sum()))
    return values


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

    S = ``overlap_sum(t)`` is computed once per t: each report's psucc
    is 0.5 + 0.5 S, bit for bit ``psucc_formula(t)``, and the same S
    gives the kept states. No strategy is built: t alone fixes the
    measurement. At angle 0, P+- act on each sector's real amplitudes
    (c_n, c_{n-1}) on (|0,n>, |1,n-1>). Summed over the sectors, with
    c_0^2 = c_t^2 = 2^-t from the end sectors, each branch's kept state
    is K+- = (1/4) [[1 +- 2^-t, +-S], [+-S, 1 +- 2^-t]], of trace
    (1 +- 2^-t)/2. One verifier step at angle 0
    (``protocol.verify_kept_states``) and one validated table take
    every t; each report's ``branches`` is its row of that table
    (``BranchTable.row``).
    """
    ts = [_require_int("t", t, 0) for t in t_values]
    if not ts:
        return []
    overlaps = [_overlap_sum(t) for t in ts]
    edge = np.ldexp(1.0, np.negative(ts))[:, None]      # c_0^2 = c_t^2, per t
    overlap = np.array(overlaps)[:, None]
    sign = np.array([1.0, -1.0])                        # bit 0 (P+), bit 1 (P-)
    kept = np.empty((len(ts), 2, 2, 2))
    kept[..., 0, 0] = kept[..., 1, 1] = 0.25 * (1.0 + sign * edge)
    kept[..., 0, 1] = kept[..., 1, 0] = 0.25 * sign * overlap
    table = BranchTable(*verify_kept_states(kept, np.zeros(len(ts))))
    return [CheatGuessReport(t, value, 0.5 + 0.5 * s, table.row(j))
            for j, (t, s, value) in enumerate(zip(ts, overlaps, table.marginal.tolist()))]


@dataclass(frozen=True)
class EveProver:
    """Adapter giving run_session an adversarial prover: ``round_branches()``.

    It runs against a key of any phase modulus p, but its strategy is the
    optimal one for that key only while strategy.t <= p - 2 (see
    ``helstrom_strategy``).
    """

    strategy: HelstromStrategy
    tag: ClassVar[str] = "helstrom-eve"

    def round_branches(self) -> BranchTable:
        """The attacked round's one row, the same at every key phase, so no key is read."""
        return attack_round_branches(self.strategy)


def sample_attack_rounds(branches: BranchTable, trials: int, rng) -> np.ndarray:
    """Sample independent attacked rounds; returns the boolean pass array.

    ``branches`` is the attacked round's one-row table, from
    ``attack_round_branches`` or a ``CheatGuessReport``. The row is the
    same at every relative phase (see ``eve_attack_round``), so a fresh
    key needs no draw of its own. Each trial draws the adversary's
    measurement outcome, then the SWAP-test verdict.
    """
    trials = _require_int("trials", trials, 1)
    if branches.rounds != 1:
        raise DimensionMismatchError(f"expected one attacked row, got {branches.rounds}")
    low, (pass_low, pass_high) = branches.probability[0, 0], branches.pass_probability[0]
    took_low = rng.random(trials) < low
    u_swap = rng.random(trials)
    # Boolean algebra on the two verdicts: the same booleans as a select,
    # at a tenth of np.where's cost.
    return (took_low & (u_swap < pass_low)) | (~took_low & (u_swap < pass_high))
