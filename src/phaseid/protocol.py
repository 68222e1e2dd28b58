"""The identification kernel and full session runner.

One kernel round: the verifier prepares (|01> + |10>)/sqrt(2), keeps
register 0 and sends register 1; the prover measures
the received register in her phase basis {(|0> +- e^{i theta}|1>)} and
answers with one classical bit; the verifier applies Z to his kept
register when the bit is 1 and SWAP-tests it against an authentic copy
of the round's public-key element. A session repeats the kernel once
per key entry and accepts only if every round passes.

Honest provers pass each round with certainty because the challenge
decomposes as (|x+ x+> - |x- x->)/sqrt(2) in any phase basis: the
prover's outcome steers the kept register onto |x+> or |x->, and the
conditional Z folds the second case onto the first.

A session is a branch table of distinct rows, each holding both response
bits with their probabilities and the SWAP-test pass probabilities that
follow, plus one row index per round. An honest round depends on nothing
but its key phase k/p, so an honest table has one row per distinct
numerator of the key, and the index comes from the numerators
themselves (``_distinct_numerators``): by counting them in one
``np.bincount`` over 0..p when p <= s, and by ``np.unique``'s integer
sort when p > s, where a count array would be larger than the key. An
``HonestProver`` builds its key's table and index once, and every
session under that key reads them; the tag "honest" asks
``run_session`` for a fresh one. An adversary holds copies of the
public key, never the private phases: its ``round_branches()`` takes
no key and returns one row, which every round reads. Each row is
validated once.
Honest and attacked rounds share one verifier step,
``verify_kept_states``. It takes each branch's kept 2x2 state, reads the
branch probability off its trace, and works in closed form on the
stacks: Z rho Z flips the sign of the off-diagonal entries,
tr(rho sigma) is a sum of elementwise products, and the positivity
checks take the 2x2 smallest eigenvalue directly. An honest branch
leaves the kept qubit as one factor of a product state, so its kept
state is a a^dagger, a its kept amplitude (``_honest_rows``); an
attacked round brings its own in closed form. The verifier makes his
authentic public-key copy himself, once per row, from the row's key
angle. The challenge is one immutable two-qubit ``PureState``, built and
validated at import, and ``bob_prepare_challenge`` returns it. Exact
mode reports each row's pass probability once (``BranchTable.marginal``;
response bits are recorded as null). Sampled mode draws two uniforms per
round from a seeded generator, in order: the response (bit 0 when the
draw falls below its row's probability), then the SWAP test. A
transcript renders its round lines CHUNK_ROUNDS at a time. No message
transport is involved. ``alice_respond`` and ``bob_verify_step`` are the
scalar, per-round form of the kernel, exact only: ``alice_respond``
returns the ``MeasurementResult`` of each response (its ``outcome`` is
the bit), and ``bob_verify_step`` takes the kept qubit as a
``DensityOperator``, the ``partial_trace`` of a branch's post state, and
returns the pass probability. No command calls them; the tests use them
as the independent oracle of the stacked kernel, and library callers can
run a single round with them.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from . import cli
from .errors import DimensionMismatchError, NumericalError, _require_int
from .keys import PhaseFraction, PrivateKey, ProtocolParams, phase_angles, phase_bases
from .qsim import (
    PAULI_Z,
    DensityOperator,
    PureState,
    check_density_operators,
    check_orthonormal_bases,
    measure_in_basis,
    partial_trace,  # noqa: F401  (kept importable here: the benchmark's tests look it up)
    swap_test_pass_probability_mixed,
)
from .rng import _MASK64, make_rng
from .tolerances import CONSTRUCT_ATOL, ZERO_BRANCH_PROB

__all__ = [
    "BranchTable",
    "HonestProver",
    "RoundRecord",
    "SessionTranscript",
    "bob_prepare_challenge",
    "alice_respond",
    "bob_verify_step",
    "verify_kept_states",
    "honest_round_branches",
    "CHUNK_ROUNDS",
    "run_session",
]

_BELL = np.array([0.0, 1.0, 1.0, 0.0], dtype=np.complex128) / math.sqrt(2.0)

# Angles per vectorised chunk of ``honest_round_branches``, and round
# lines per rendered chunk of a transcript. A chunk of angles peaks at
# about 2.2 KB per angle of temporaries, so it stays near 0.6 MB however
# many phases a key has, while the fixed cost of a chunk stays small
# next to its work.
CHUNK_ROUNDS = 256


@dataclass(frozen=True)
class RoundRecord:
    j: int
    response_bit: int | None
    pass_probability: float | None
    passed: bool | None


@dataclass(frozen=True)
class BranchTable:
    """Both response branches of every round of a session.

    ``probability[j, b]`` is the chance that the prover answers bit b in
    round j, and ``pass_probability[j, b]`` the chance that the SWAP
    test then passes; a branch below ZERO_BRANCH_PROB carries pass 0.
    Both arrays have shape (rounds, 2), the column being the bit.
    Construction checks that every entry is finite and in [0, 1] and
    that each row's branch probabilities sum to 1, all to
    CONSTRUCT_ATOL.
    """

    probability: np.ndarray
    pass_probability: np.ndarray

    def __post_init__(self):
        prob = np.array(self.probability, dtype=np.float64)
        pass_prob = np.array(self.pass_probability, dtype=np.float64)
        if prob.ndim != 2 or prob.shape[1] != 2 or pass_prob.shape != prob.shape:
            raise DimensionMismatchError(
                f"branch table needs two (rounds, 2) arrays, got {prob.shape} "
                f"and {pass_prob.shape}"
            )
        for name, arr in (("branch", prob), ("pass", pass_prob)):
            # Every comparison with NaN is false, and +-inf falls outside
            # the range, so the range test also tests finiteness.
            if not ((arr >= -CONSTRUCT_ATOL) & (arr <= 1.0 + CONSTRUCT_ATOL)).all():
                raise NumericalError(f"{name} probabilities must be finite and in [0, 1]")
        total = prob[:, 0] + prob[:, 1]
        bad = np.flatnonzero(np.abs(total - 1.0) > CONSTRUCT_ATOL)
        if bad.size:
            raise NumericalError(
                f"branch probabilities of round {int(bad[0])} sum to {float(total[bad[0]])!r}"
            )
        prob.setflags(write=False)
        pass_prob.setflags(write=False)
        object.__setattr__(self, "probability", prob)
        object.__setattr__(self, "pass_probability", pass_prob)

    @property
    def rounds(self) -> int:
        return self.probability.shape[0]

    @property
    def marginal(self) -> np.ndarray:
        """Each row's pass probability, summed over both response bits."""
        prob, pass_prob = self.probability, self.pass_probability
        return prob[:, 0] * pass_prob[:, 0] + prob[:, 1] * pass_prob[:, 1]

    def row(self, j: int) -> "BranchTable":
        """Row j as a one-row table, not validated again.

        Every row of a valid table is a valid table, so the row's arrays
        are read-only views of this table's, without the copies and
        checks of construction.
        """
        j = range(self.rounds)[j]
        table = object.__new__(type(self))
        object.__setattr__(table, "probability", self.probability[j:j + 1])
        object.__setattr__(table, "pass_probability", self.pass_probability[j:j + 1])
        return table


@dataclass(frozen=True)
class SessionTranscript:
    """One session's header, per-round results and verdict.

    Exact mode fills ``row``, each round's branch-table row (integer),
    and ``row_pass_probability``, each row's pass probability (float64).
    Sampled mode fills ``response_bit`` (int64, 0 or 1) and ``passed``
    (bool), per round. The arrays a mode does not fill are None.
    ``records`` views the rounds as RoundRecord values.
    """

    session_id: int
    params: ProtocolParams
    mode: str
    seed: int | None
    prover_tag: str
    verdict: str
    row: np.ndarray | None = None
    row_pass_probability: np.ndarray | None = None
    response_bit: np.ndarray | None = None
    passed: np.ndarray | None = None

    @property
    def records(self) -> "Sequence[RoundRecord]":
        return _RoundRecords(self)

    def to_json_lines(self) -> Iterator[str]:
        """Transcript as JSON lines: header, one line per round, verdict.

        The round lines are made CHUNK_ROUNDS at a time, so a caller
        that writes them in turn never holds a whole session's rows.
        """
        for lines in self._line_chunks():
            yield from lines

    def _line_chunks(self) -> Iterator[list[str]]:
        """``to_json_lines()`` in consecutive lists: the header, up to
        CHUNK_ROUNDS round lines per list, then the verdict."""
        head = {
            "session_id": self.session_id,
            "r": self.params.r,
            "s": self.params.s,
            "p": self.params.p,
            "variant": self.params.variant,
            "mode": self.mode,
            "seed": self.seed,
            "prover_tag": self.prover_tag,
        }
        yield [json.dumps(head)]
        # Round rows are formatted directly; each gives the bytes json.dumps
        # gives for the row's dict. A row is its index followed by one of a
        # few tails: one per branch-table row in exact mode, one per
        # (bit, flag) pair in sampled mode.
        if self.mode == "exact":
            tails = [', "response_bit": null, "pass_probability": '
                     f'{cli._json_scalar(cli._sig(x, cli.JSON_SIG_DIGITS))}}}'
                     for x in self.row_pass_probability.tolist()]
        else:
            tails = [f', "response_bit": {bit}, "pass": {flag}}}'
                     for bit in (0, 1) for flag in ("false", "true")]
        for start in range(0, len(self.records), CHUNK_ROUNDS):
            chunk = slice(start, start + CHUNK_ROUNDS)
            if self.mode == "exact":
                which = self.row[chunk]
            else:
                which = 2 * self.response_bit[chunk] + self.passed[chunk]
            yield [f'{{"j": {j}{tails[i]}' for j, i in enumerate(which.tolist(), start + 1)]
        yield [json.dumps({"verdict": self.verdict})]


class _RoundRecords(Sequence):
    """A transcript's rounds as RoundRecord values, each built when it is read."""

    def __init__(self, transcript: SessionTranscript):
        self._tr = transcript

    def __len__(self) -> int:
        tr = self._tr
        return (tr.row if tr.mode == "exact" else tr.passed).size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        i = range(len(self))[index]
        tr = self._tr
        if tr.mode == "exact":
            return RoundRecord(i + 1, None, float(tr.row_pass_probability[tr.row[i]]), None)
        return RoundRecord(i + 1, int(tr.response_bit[i]), None, bool(tr.passed[i]))


_CHALLENGE = PureState((2, 2), _BELL)


def bob_prepare_challenge() -> PureState:
    """The entangled challenge (|01> + |10>)/sqrt(2) as a two-qubit PureState.

    The verifier keeps register 0 and sends register 1. Every call
    returns the same PureState, built and validated once at import. It
    is an immutable value, so all rounds share it.
    """
    return _CHALLENGE


def alice_respond(challenge: PureState, x: PhaseFraction):
    """Measure the received register 1 in the key's phase basis.

    Outcome "+" answers bit 0, outcome "-" answers bit 1: each
    MeasurementResult's ``outcome`` is the response bit. Both branches
    are returned; each has probability exactly 1/2 for this challenge.
    """
    return measure_in_basis(challenge, 1, phase_bases(x.angle()))


def bob_verify_step(kept: DensityOperator, response_bit: int, pk: PureState) -> float:
    """Conditional Z on the kept register, then SWAP-test against ``pk``.

    ``kept`` is the kept qubit as a single-qubit DensityOperator and
    ``pk`` the round's public-key state. Returns the pass probability.
    """
    if response_bit not in (0, 1):
        raise ValueError(f"response bit must be 0 or 1, got {response_bit}")
    if not isinstance(kept, DensityOperator):
        raise TypeError(f"kept register must be a DensityOperator, got {type(kept).__name__}")
    mat = PAULI_Z @ kept.matrix @ PAULI_Z if response_bit else kept.matrix
    corrected = DensityOperator(kept.dims, mat)
    return swap_test_pass_probability_mixed(corrected, DensityOperator.from_pure(pk))


def verify_kept_states(kept: np.ndarray, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The verifier's step on the provers' kept 2x2 states: (prob, pass_prob).

    ``kept`` (round, bit, 2, 2) holds each branch's unnormalised kept
    state, whose trace is the branch probability ``prob``; ``angles``
    holds each round's key angle. From it the verifier makes his own
    authentic copy of the round's public-key element, once per round,
    so the prover never supplies the reference. The live kept states
    (prob not below ZERO_BRANCH_PROB, so NaN too), normalised, and the
    authentic projectors a a^dagger are validated as density operators
    by one ``check_density_operators`` call on a (2, live, 2, 2) stack:
    a failure names (set, branch) as its stack index, set 0 being the
    kept states and 1 the projectors, and branch counting the live
    branches in (round, bit) order. That check also covers the
    authentic vectors a: a non-finite entry fails finiteness, and a
    trace within CONSTRUCT_ATOL of 1 holds |a|^2, so |a| too, closer
    to 1 than a norm check to the same tolerance would. The
    Z-corrected states are not checked apart: Z rho Z negates only the
    off-diagonal entries, exactly, so its Hermitian gap, trace,
    finiteness and smallest eigenvalue are bit for bit those of rho.
    Returns the branch probabilities and the SWAP-test pass
    probabilities (1 + tr rho sigma)/2, both of shape (round, bit),
    with pass 0 for every branch that is not live.
    """
    prob = np.trace(kept, axis1=-2, axis2=-1).real
    live = ~(prob < ZERO_BRANCH_PROB)             # NaN is live, and fails the checks
    rounds, bits = np.nonzero(live)
    weight = prob[live]
    authentic = phase_bases(angles)[rounds, 0]
    kept = kept[live] / weight[:, None, None]
    # Z rho Z flips the sign of the off-diagonal entries.
    corrected = kept.copy()
    flip = bits == 1
    for i, j in ((0, 1), (1, 0)):
        np.negative(corrected[:, i, j], out=corrected[:, i, j], where=flip)
    # Real rows stay real in ``corrected``, outside the complex stack:
    # the einsum sums a real operand in another order.
    states = np.empty((2, weight.size, 2, 2), dtype=np.complex128)
    states[0] = kept
    sigma = states[1]
    np.multiply(authentic[:, :, None], authentic.conj()[:, None, :], out=sigma)
    check_density_operators(states)
    pass_prob = np.zeros(live.shape)
    pass_prob[live] = 0.5 * (1.0 + np.einsum("nij,nji->n", corrected, sigma).real)
    return prob, pass_prob


def honest_round_branches(angles) -> BranchTable:
    """Branch table of honest rounds, one row per given key angle, in order.

    Every angle is evaluated, in vectorised chunks of CHUNK_ROUNDS. Every
    row makes the checks of its scalar form (``alice_respond``,
    ``partial_trace``, ``bob_verify_step``) on stacked arrays: the
    phase bases are orthonormal and every 2x2 state is a density
    operator (``_honest_rows`` says why that suffices). The Bell
    challenge is the same in every round and is validated once.
    """
    joint = bob_prepare_challenge().as_tensor()
    angles = np.asarray(angles, dtype=np.float64).reshape(-1)
    prob, pass_prob = np.empty((2, angles.size, 2))
    for i in range(0, angles.size, CHUNK_ROUNDS):
        chunk = slice(i, i + CHUNK_ROUNDS)
        prob[chunk], pass_prob[chunk] = _honest_rows(joint, angles[chunk])
    return BranchTable(prob, pass_prob)


def _distinct_numerators(key: PrivateKey) -> tuple[np.ndarray, np.ndarray]:
    """(distinct, row): the key's distinct numerators, ascending, and each round's index.

    Bit for bit ``np.unique(key.ks, return_inverse=True)``, the index as
    intp. For p <= s the numerators are counted, in O(s + p) with one
    count per value in 0..p; for p > s that count array would be larger
    than the key, and ``np.unique`` sorts them instead.
    """
    if key.p > key.s:
        return np.unique(key.ks, return_inverse=True)
    present = np.bincount(key.ks, minlength=key.p + 1) > 0
    return np.flatnonzero(present), (np.cumsum(present, dtype=np.intp) - 1)[key.ks]


class HonestProver:
    """The honest prover of one key, with its session's branch table and index.

    The constructor builds them once: ``table`` has one row per distinct
    numerator of ``key`` (distinct numerators in 1..p give distinct
    angles), and ``row``, read-only, holds each round's row. Every
    session of ``run_session`` under the key reads them, so the key's
    sessions share one table.
    """

    tag = "honest"

    def __init__(self, key: PrivateKey):
        ks, row = _distinct_numerators(key)
        row.setflags(write=False)
        self.key = key
        self.table = honest_round_branches(phase_angles(ks, key.p))
        self.row = row


def _honest_rows(joint: np.ndarray, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(probability, pass_probability) of honest rounds against the (kept, sent) ``joint``.

    Outcome b leaves the product a (x) v_b, v_b the prover's basis
    vector and a = <v_b|_sent joint the kept amplitude, so the kept
    state a a^dagger, of trace the branch probability, goes to
    ``verify_kept_states`` as it is. No check is lost with the collapsed
    state: normalised, it has unit norm for every finite branch whatever
    |v_b|; a non-finite amplitude fails the verifier's density check;
    and the norms of the v_b are checked by ``check_orthonormal_bases``.
    """
    bases = phase_bases(angles)                                   # (round, outcome, 2)
    check_orthonormal_bases(bases)
    # Contract each basis vector with the sent register:
    # inner[j, b, i] = sum_k conj(bases[j, b, k]) joint[i, k], i the kept register.
    inner = bases.conj() @ joint.T
    return verify_kept_states(inner[..., :, None] * inner.conj()[..., None, :], angles)


def run_session(params: ProtocolParams, private_key: PrivateKey, prover="honest", *,
                mode: str = "exact", seed: int | None = None,
                session_id: int = 0) -> SessionTranscript:
    """Run one full s-round session and return its transcript.

    ``prover`` is an ``HonestProver`` of ``private_key``, "honest" for a
    fresh one, or an adversary object exposing ``round_branches()``,
    which takes no key, as a cheat holds only copies of the public key,
    and returns a one-row BranchTable that every round reads. An honest
    prover of another key raises ValueError. All s rounds always run;
    the verdict is decided at the end. How many sessions one key serves
    is the caller's to decide: ``run-honest`` runs at most r and refuses
    the next.

    In exact mode the verdict is "accept" only when every round passes
    with certainty, which is the honest-prover case. Sampled mode draws
    two uniforms per round, response then SWAP test, so a seed gives
    the same transcript as drawing them one round at a time. A seed,
    in either mode, must be an integer in 0..2^64 - 1.
    """
    if private_key.s != params.s or private_key.p != params.p:
        raise ValueError("private key does not match params")
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sampled" and seed is None:
        raise ValueError("sampled mode requires a seed")
    seed = None if seed is None else _require_int("seed", seed, 0, _MASK64)

    if isinstance(prover, str):
        if prover != "honest":
            raise ValueError(f"unknown prover tag {prover!r}")
        prover = HonestProver(private_key)
    prover_tag = getattr(prover, "tag", "adversary")
    if isinstance(prover, HonestProver):
        if prover.key is not private_key and prover.key != private_key:
            raise ValueError("honest prover holds another key")
        table, row = prover.table, prover.row
    else:
        table = prover.round_branches()
        if table.rounds != 1:
            raise DimensionMismatchError(f"an adversary gives one row, got {table.rounds}")
        row = np.broadcast_to(np.intp(0), (params.s,))  # zero-strided: holds no index
    if mode == "exact":
        marginal = table.marginal
        rounds = {"row": row, "row_pass_probability": marginal}
        # Every row is read by some round (an honest table holds only the
        # key's numerators; an adversary's one row is read by all s >= 1
        # rounds), so the rows decide the verdict without the index.
        ok = bool((marginal >= 1.0 - CONSTRUCT_ATOL).all())
    else:
        prob, pass_prob = table.probability, table.pass_probability
        u = make_rng(seed).random((params.s, 2))
        bits = (u[:, 0] >= prob[row, 0]).astype(np.int64)
        passed = u[:, 1] < pass_prob[row, bits]
        rounds = {"response_bit": bits, "passed": passed}
        ok = bool(np.all(passed))
    for arr in rounds.values():
        arr.setflags(write=False)
    return SessionTranscript(
        session_id=_require_int("session_id", session_id),
        params=params,
        mode=mode,
        seed=seed,
        prover_tag=prover_tag,
        verdict="accept" if ok else "reject",
        **rounds,
    )
