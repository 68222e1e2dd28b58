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

A session is a branch table of distinct rows, each holding both
response bits with their probabilities and the SWAP-test pass
probabilities that follow, plus one row index per round. An honest
round depends on nothing but its key phase k/p, so an honest table has
one row per distinct numerator of the key, and the index comes from one
integer ``np.unique`` (``_honest_session``). An adversary supplies both
through its ``round_branches(key)``. Each row is validated once.
Honest and attacked rounds share one verifier step,
``verify_kept_states``. It takes each branch's kept 2x2 state and works
in closed form on the stacks: Z rho Z flips the sign of the
off-diagonal entries, tr(rho sigma) is a sum of elementwise products,
and the positivity checks take the 2x2 smallest eigenvalue directly.
An honest branch leaves the kept qubit as one factor of a product
state, so its kept state is a a^dagger, a its kept amplitude
(``_honest_rows``); an attacked round brings its own in closed form.
The verifier makes his authentic public-key copy himself, once per
row, from the row's key angle. The kept states and the authentic
projectors are validated together by one ``check_density_operators``
call on a (2, live branch, 2, 2) stack; the Z-corrected states pass or
fail exactly as the kept states do (``verify_kept_states``).
The challenge is one immutable two-qubit ``PureState``, built and
validated at import, and ``bob_prepare_challenge`` returns it.
Exact mode reports each round's pass probability sum_b prob * pass
(response bits are recorded as null), once per row. Sampled mode draws
two uniforms per round from a seeded generator, in order: the response
(bit 0 when the draw falls below its row's probability), then the SWAP
test. No message transport is involved. ``alice_respond`` and
``bob_verify_step`` are the scalar, per-round form of the kernel, exact
only: ``alice_respond`` returns the ``MeasurementResult`` of each
response (its ``outcome`` is the bit), and ``bob_verify_step`` takes
the kept qubit as a ``DensityOperator``, the ``partial_trace`` of a
branch's post state, and returns the pass probability. No command
calls them; the tests use them as the independent oracle of the
stacked kernel, and library callers can run a single round with them.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NumericalError, UsageExhaustedError
from .keys import PhaseFraction, PrivateKey, ProtocolParams, phase_angles, phase_bases
from .qsim import (
    PAULI_Z,
    DensityOperator,
    PureState,
    check_density_operators,
    check_orthonormal_bases,
    check_pure_states,
    measure_in_basis,
    partial_trace,  # noqa: F401  (kept importable here: the benchmark's tests look it up)
    swap_test_pass_probability_mixed,
)
from .rng import make_rng
from .tolerances import CONSTRUCT_ATOL, ZERO_BRANCH_PROB

__all__ = [
    "BranchTable",
    "RoundRecord",
    "SessionTranscript",
    "UsageCounter",
    "bob_prepare_challenge",
    "alice_respond",
    "bob_verify_step",
    "verify_kept_states",
    "honest_round_branches",
    "CHUNK_ROUNDS",
    "run_session",
]

_BELL = np.array([0.0, 1.0, 1.0, 0.0], dtype=np.complex128) / math.sqrt(2.0)

# Angles per vectorised chunk of ``honest_round_branches``. A chunk's
# temporaries peak at about 2.2 KB per angle, so they stay near 0.6 MB
# however many phases a key has, while the fixed cost of a chunk stays
# small next to its work.
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


@dataclass
class UsageCounter:
    """Serialized budget of honest protocol uses under one key."""

    uses_remaining: int

    def __post_init__(self):
        if self.uses_remaining < 0:
            raise ValueError("uses_remaining must be nonnegative")

    def consume(self) -> None:
        if self.uses_remaining == 0:
            raise UsageExhaustedError(
                "no protocol uses left under this key; refusing (not a reject)"
            )
        self.uses_remaining -= 1


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

        The lines are yielded as they are made, so a caller that writes
        them in turn never holds a whole session's rows.
        """
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
        yield json.dumps(head)
        # Round rows are formatted directly; each gives the bytes json.dumps
        # gives for the row's dict. A row is its index followed by one of a
        # few tails: one per branch-table row in exact mode, one per
        # (bit, flag) pair in sampled mode.
        if self.mode == "exact":
            which = self.row
            tails = [f', "response_bit": null, "pass_probability": {_json_float(_sig12(x))}}}'
                     for x in self.row_pass_probability.tolist()]
        else:
            which = 2 * self.response_bit + self.passed
            tails = [f', "response_bit": {bit}, "pass": {flag}}}'
                     for bit in (0, 1) for flag in ("false", "true")]
        yield from (f'{{"j": {j}{tails[i]}' for j, i in enumerate(which.tolist(), start=1))
        yield json.dumps({"verdict": self.verdict})


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


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")


def _json_float(x: float) -> str:
    """``json.dumps(x)`` for a float: its ``repr`` when finite, as the JSON
    encoder prints it; the encoder's NaN and Infinity otherwise."""
    return repr(x) if math.isfinite(x) else json.dumps(x)


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


def verify_kept_states(kept: np.ndarray, prob: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """The verifier's step on the provers' kept 2x2 states: the pass probabilities.

    ``kept`` (round, bit, 2, 2) holds each branch's unnormalised kept
    state and ``prob`` (round, bit) its trace; ``angles`` holds each
    round's key angle. From it the verifier makes his own authentic
    copy of the round's public-key element, once per round, so the
    prover never supplies the reference; the copies are validated as
    pure states. The live kept states (prob not below ZERO_BRANCH_PROB,
    so NaN too), normalised, and the authentic projectors are validated
    as density operators by one ``check_density_operators`` call on a
    (2, live, 2, 2) stack: a failure names (set, branch) as its stack
    index, set 0 being the kept states and 1 the projectors, and branch
    counting the live branches in (round, bit) order. A ``prob`` that
    is not the trace of its kept state fails the trace check there. The
    Z-corrected states are not checked apart: Z rho Z negates only the
    off-diagonal entries, exactly, so its Hermitian gap, trace,
    finiteness and smallest eigenvalue are bit for bit those of rho.
    Returns the SWAP-test pass probabilities (1 + tr rho sigma)/2,
    shape (round, bit), with pass 0 for every branch that is not live.
    """
    live = ~(prob < ZERO_BRANCH_PROB)             # NaN is live, and fails the checks
    rounds, bits = np.nonzero(live)
    weight = prob[live]
    authentic = phase_bases(angles)[:, 0]
    check_pure_states(authentic)
    authentic = authentic[rounds]
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
    return pass_prob


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


def _honest_session(key: PrivateKey) -> tuple[BranchTable, np.ndarray]:
    """(table, row) of an honest session: distinct numerators in 1..p give distinct angles."""
    ks, row = np.unique(key.ks, return_inverse=True)
    return honest_round_branches(phase_angles(ks, key.p)), row


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
    kept = inner[..., :, None] * inner.conj()[..., None, :]      # (round, outcome, 2, 2)
    prob = np.trace(kept, axis1=-2, axis2=-1).real
    return prob, verify_kept_states(kept, prob, angles)


def run_session(params: ProtocolParams, private_key: PrivateKey, prover="honest", *,
                mode: str = "exact", seed: int | None = None,
                usage: UsageCounter | None = None, session_id: int = 0) -> SessionTranscript:
    """Run one full s-round session and return its transcript.

    ``prover`` is "honest" or an adversary object exposing
    ``round_branches(key)``, which returns (table, row): a BranchTable
    of distinct rows and an integer array of shape (s,), round j reading
    row ``row[j]``. Honest sessions draw on a UsageCounter (a fresh
    single-use one when none is given) and refuse, rather than reject,
    once it is exhausted. All s rounds always run; the verdict is
    decided at the end.

    In exact mode the verdict is "accept" only when every round passes
    with certainty, which is the honest-prover case. Sampled mode draws
    two uniforms per round, response then SWAP test, so a seed gives
    the same transcript as drawing them one round at a time.
    """
    if private_key.s != params.s or private_key.p != params.p:
        raise ValueError("private key does not match params")
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sampled" and seed is None:
        raise ValueError("sampled mode requires a seed")

    honest = isinstance(prover, str)
    if honest and prover != "honest":
        raise ValueError(f"unknown prover tag {prover!r}")
    if honest:
        if usage is None:
            usage = UsageCounter(1)
        usage.consume()
        prover_tag = "honest"
        table, row = _honest_session(private_key)
    else:
        prover_tag = getattr(prover, "tag", "adversary")
        table, row = prover.round_branches(private_key)
        row = _checked_row(row, params.s, table.rounds)
    prob, pass_prob = table.probability, table.pass_probability
    if mode == "exact":
        marginal = prob[:, 0] * pass_prob[:, 0] + prob[:, 1] * pass_prob[:, 1]
        rounds = {"row": row, "row_pass_probability": marginal}
        ok = bool((marginal >= 1.0 - CONSTRUCT_ATOL)[row].all())
    else:
        u = make_rng(seed).random((params.s, 2))
        bits = (u[:, 0] >= prob[row, 0]).astype(np.int64)
        passed = u[:, 1] < pass_prob[row, bits]
        rounds = {"response_bit": bits, "passed": passed}
        ok = bool(np.all(passed))
    for arr in rounds.values():
        arr.setflags(write=False)
    return SessionTranscript(
        session_id=session_id,
        params=params,
        mode=mode,
        seed=seed,
        prover_tag=prover_tag,
        verdict="accept" if ok else "reject",
        **rounds,
    )


def _checked_row(row, s: int, rows: int) -> np.ndarray:
    """A copy of an adversary's row index, which must be integers of shape (s,) in 0..rows-1.

    Numpy would read a negative entry from the end of the table.
    """
    row = np.array(row)
    if row.shape != (s,) or not np.issubdtype(row.dtype, np.integer):
        raise DimensionMismatchError(f"row index must be integers of shape ({s},), "
                                     f"got {row.dtype} of shape {row.shape}")
    bad = row[(row < 0) | (row >= rows)]
    if bad.size:
        raise DimensionMismatchError(f"row index must lie in 0..{rows - 1}, got {bad[0]}")
    return row
