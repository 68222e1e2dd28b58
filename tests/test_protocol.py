"""Kernel rounds, full sessions, transcripts, transport discipline."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseid import protocol
from phaseid.adversary import EveProver, helstrom_strategy
from phaseid.errors import (
    DimensionMismatchError,
    InvalidBasisError,
    NumericalError,
    StateValidationError,
    UsageExhaustedError,
)
from phaseid.keys import (
    PhaseFraction,
    PrivateKey,
    ProtocolParams,
    generate_private_key,
    phase_bases,
    public_key_state,
)
from phaseid.protocol import (
    CHUNK_ROUNDS,
    BranchTable,
    RoundRecord,
    SessionTranscript,
    UsageCounter,
    alice_respond,
    bob_prepare_challenge,
    bob_verify_step,
    honest_round_branches,
    run_session,
    verify_kept_states,
)
from phaseid.qsim import (
    DensityOperator,
    MeasurementResult,
    PureState,
    partial_trace,
)
from phaseid.transport import Transport

from conftest import (
    basis_state,
    record_density_checks,
    reference_pass_probabilities,
    reference_sampled_records,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)

angles = st.floats(min_value=0.0, max_value=2.0 * math.pi,
                   allow_nan=False, allow_infinity=False)


class TestKernelChallenge:
    def test_every_call_returns_the_same_bell_state(self):
        ch = bob_prepare_challenge()
        assert isinstance(ch, PureState) and bob_prepare_challenge() is ch
        assert ch.dims == (2, 2)
        np.testing.assert_array_equal(ch.amplitudes, [0.0, INV_SQRT2, INV_SQRT2, 0.0])


@given(angles)
@settings(max_examples=60, deadline=None)
def test_phase_basis_orthonormal(angle):
    b0, b1 = phase_bases(angle)
    assert np.vdot(b0, b0) == pytest.approx(1.0, abs=1e-12)
    assert np.vdot(b1, b1) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(b0, b1)) == pytest.approx(0.0, abs=1e-12)


class TestAliceRespond:
    def test_branch_probabilities_are_half(self):
        branches = alice_respond(bob_prepare_challenge(), PhaseFraction(2, 5))
        assert len(branches) == 2
        for bit, b in enumerate(branches):
            assert isinstance(b, MeasurementResult) and b.outcome == bit
            assert b.probability == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("k,p", [(1, 2), (1, 3), (2, 3), (3, 4), (5, 5)])
    def test_outcome_steers_kept_register(self, k, p):
        # challenge = (|x+ x+> - |x- x->)/sqrt(2) in the prover's basis,
        # so her outcome dictates the verifier's marginal exactly
        x = PhaseFraction(k, p)
        b0, b1 = phase_bases(x.angle())
        for branch, vec in zip(alice_respond(bob_prepare_challenge(), x), (b0, b1)):
            kept = partial_trace(branch.post_state, (0,))
            expect = np.outer(vec, vec.conj())
            np.testing.assert_allclose(kept.matrix, expect, atol=1e-12)


class TestBobVerifyStep:
    def test_authentic_state_bit_zero(self):
        x = PhaseFraction(2, 5)
        pk = public_key_state(x)
        kept = PureState((2,), phase_bases(x.angle())[0])
        out = bob_verify_step(DensityOperator.from_pure(kept), 0, pk)
        assert out == pytest.approx(1.0, abs=1e-12)

    def test_minus_state_bit_one_corrects(self):
        # Z maps (|0> - e^{i a}|1>)/sqrt(2) onto the public element
        x = PhaseFraction(2, 5)
        _, b1 = phase_bases(x.angle())
        out = bob_verify_step(DensityOperator.from_pure(PureState((2,), b1)), 1,
                              public_key_state(x))
        assert out == pytest.approx(1.0, abs=1e-12)

    def test_minus_state_without_correction_is_coin_flip(self):
        x = PhaseFraction(2, 5)
        _, b1 = phase_bases(x.angle())
        out = bob_verify_step(DensityOperator.from_pure(PureState((2,), b1)), 0,
                              public_key_state(x))
        assert out == pytest.approx(0.5, abs=1e-12)

    def test_unrelated_state(self):
        pk = public_key_state(PhaseFraction(4, 4))
        out = bob_verify_step(DensityOperator.from_pure(basis_state((2,), (0,))), 0, pk)
        assert out == pytest.approx(0.75, abs=1e-12)

    def test_density_operator_input(self):
        pk = public_key_state(PhaseFraction(1, 3))
        rho = DensityOperator((2,), np.eye(2) / 2.0)
        out = bob_verify_step(rho, 1, pk)
        assert out == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("bit", [0, 1])
    def test_real_density_operator_matches_its_complex_copy(self, bit):
        # a real kept operator is stored as float64, where every operator
        # used to be stored as complex128; the pass probability stays put
        mat = np.array([[0.7, 0.2], [0.2, 0.3]])
        for k in range(1, 6):
            pk = public_key_state(PhaseFraction(k, 5))
            real = bob_verify_step(DensityOperator((2,), mat), bit, pk)
            complex_copy = bob_verify_step(DensityOperator((2,), mat.astype(np.complex128)), bit, pk)
            assert real == complex_copy

    def test_rejects_bad_bit(self):
        pk = public_key_state(PhaseFraction(1, 3))
        with pytest.raises(ValueError):
            bob_verify_step(DensityOperator.from_pure(PureState((2,), phase_bases(0.0)[0])), 2, pk)

    def test_rejects_non_state(self):
        # the kept qubit is a DensityOperator; a PureState or a bare matrix is refused
        pk = public_key_state(PhaseFraction(1, 3))
        for kept in (PureState((2,), phase_bases(0.0)[0]), np.eye(2) / 2.0):
            with pytest.raises(TypeError, match="DensityOperator"):
                bob_verify_step(kept, 0, pk)


class TestExactSessions:
    @pytest.mark.parametrize("variant", ["standard", "hardened"])
    def test_honest_rounds_pass_with_certainty_all_keys(self, variant):
        params = ProtocolParams(r=2, s=2, variant=variant)
        p = params.p
        for ks in itertools.product(range(1, p + 1), repeat=params.s):
            key = PrivateKey(tuple(PhaseFraction(k, p) for k in ks))
            transcript = run_session(params, key, mode="exact")
            assert transcript.verdict == "accept"
            for rec in transcript.records:
                assert rec.pass_probability == pytest.approx(1.0, abs=1e-12)
                assert rec.response_bit is None

    def test_key_params_mismatch(self):
        params = ProtocolParams(r=2, s=2)
        other = generate_private_key(ProtocolParams(r=2, s=3), 1)
        with pytest.raises(ValueError):
            run_session(params, other, mode="exact")

    def test_unknown_prover_tag(self):
        params = ProtocolParams(r=2, s=1)
        key = generate_private_key(params, 1)
        with pytest.raises(ValueError):
            run_session(params, key, prover="eve")

    def test_unknown_mode(self):
        params = ProtocolParams(r=2, s=1)
        key = generate_private_key(params, 1)
        with pytest.raises(ValueError):
            run_session(params, key, mode="approx")


class TestUsageBudget:
    def test_default_counter_is_single_use(self):
        params = ProtocolParams(r=3, s=1)
        key = generate_private_key(params, 8)
        run_session(params, key, mode="exact")  # fresh counter each call

    def test_shared_counter_refuses_after_r_sessions(self):
        params = ProtocolParams(r=3, s=2)
        key = generate_private_key(params, 8)
        counter = UsageCounter(params.r)
        for i in range(params.r):
            t = run_session(params, key, mode="exact", usage=counter, session_id=i)
            assert t.verdict == "accept"
        with pytest.raises(UsageExhaustedError):
            run_session(params, key, mode="exact", usage=counter, session_id=params.r)

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            UsageCounter(-1)

    def test_adversary_sessions_do_not_consume(self):
        class _Flat:
            tag = "flat"

            def round_branches(self, key):
                return BranchTable(np.full((1, 2), 0.5), np.ones((1, 2))), np.zeros(key.s, int)

        counter = UsageCounter(0)
        params = ProtocolParams(r=1, s=2)
        key = generate_private_key(params, 3)
        transcript = run_session(params, key, prover=_Flat(), mode="exact", usage=counter)
        assert transcript.prover_tag == "flat"
        assert [rec.pass_probability for rec in transcript.records] == [1.0, 1.0]
        assert counter.uses_remaining == 0
        with pytest.raises(UsageExhaustedError):
            run_session(params, key, mode="exact", usage=counter)


class TestSampledSessions:
    def test_requires_seed(self):
        params = ProtocolParams(r=2, s=2)
        key = generate_private_key(params, 5)
        with pytest.raises(ValueError):
            run_session(params, key, mode="sampled")

    def test_honest_sampled_always_accepts(self):
        params = ProtocolParams(r=4, s=6)
        key = generate_private_key(params, 5)
        for seed in range(5):
            t = run_session(params, key, mode="sampled", seed=seed,
                            usage=UsageCounter(1))
            assert t.verdict == "accept"
            assert all(rec.passed for rec in t.records)
            assert all(rec.response_bit in (0, 1) for rec in t.records)

    def test_seed_determinism_byte_equal(self):
        params = ProtocolParams(r=3, s=8)
        key = generate_private_key(params, 11)
        a = run_session(params, key, mode="sampled", seed=77, usage=UsageCounter(1))
        b = run_session(params, key, mode="sampled", seed=77, usage=UsageCounter(1))
        assert "\n".join(a.to_json_lines()) == "\n".join(b.to_json_lines())

    def test_response_bits_vary_across_rounds(self):
        # 24 fair coin flips; all-equal has probability 2^-23
        params = ProtocolParams(r=3, s=24)
        key = generate_private_key(params, 11)
        t = run_session(params, key, mode="sampled", seed=3, usage=UsageCounter(1))
        bits = {rec.response_bit for rec in t.records}
        assert bits == {0, 1}


class TestTranscript:
    def test_exact_lines_schema(self):
        params = ProtocolParams(r=2, s=3)
        key = generate_private_key(params, 2)
        t = run_session(params, key, mode="exact", session_id=7)
        lines = list(t.to_json_lines())
        assert len(lines) == params.s + 2
        head = json.loads(lines[0])
        assert head == {
            "session_id": 7, "r": 2, "s": 3, "p": 3, "variant": "standard",
            "mode": "exact", "seed": None, "prover_tag": "honest",
        }
        for j, line in enumerate(lines[1:-1], start=1):
            row = json.loads(line)
            assert row["j"] == j
            assert row["response_bit"] is None
            assert row["pass_probability"] == pytest.approx(1.0, abs=1e-9)
        assert json.loads(lines[-1]) == {"verdict": "accept"}

    def test_sampled_lines_schema(self):
        params = ProtocolParams(r=2, s=2, variant="hardened")
        key = generate_private_key(params, 2)
        t = run_session(params, key, mode="sampled", seed=5)
        lines = list(t.to_json_lines())
        head = json.loads(lines[0])
        assert head["mode"] == "sampled"
        assert head["seed"] == 5
        assert head["p"] == 5
        for line in lines[1:-1]:
            row = json.loads(line)
            assert row["response_bit"] in (0, 1)
            assert row["pass"] is True
        assert json.loads(lines[-1])["verdict"] == "accept"


    @staticmethod
    def _reference_rows(transcript):
        """Round rows as json.dumps writes each row's dict."""
        rows = []
        for rec in transcript.records:
            if transcript.mode == "exact":
                p = rec.pass_probability
                row = {"j": rec.j, "response_bit": rec.response_bit,
                       "pass_probability": None if p is None else float(f"{p:.12g}")}
            else:
                row = {"j": rec.j, "response_bit": rec.response_bit, "pass": rec.passed}
            rows.append(json.dumps(row))
        return rows

    def _assert_rows_match_json_dumps(self, transcript):
        lines = list(transcript.to_json_lines())
        assert lines[1:-1] == self._reference_rows(transcript)
        assert lines[-1] == json.dumps({"verdict": transcript.verdict})
        return lines

    @pytest.mark.parametrize("mode,seed", [("exact", None), ("sampled", 13)])
    @pytest.mark.parametrize("prover", ["honest", "eve"])
    def test_session_rows_match_json_dumps(self, mode, seed, prover):
        params = ProtocolParams(r=4, s=300)
        key = generate_private_key(params, 8)
        who = "honest" if prover == "honest" else EveProver(helstrom_strategy(1))
        lines = self._assert_rows_match_json_dumps(
            run_session(params, key, who, mode=mode, seed=seed))
        if mode == "sampled":
            assert '"response_bit": 0,' in "".join(lines)
            assert '"response_bit": 1,' in "".join(lines)
            if prover == "eve":
                assert '"pass": false}' in "".join(lines)

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_hand_built_rows_match_json_dumps(self, mode):
        # every bit and flag value, including the bit 1 next to the flag
        # True (equal as dict keys); floats that stress repr; repeated
        # values, in rows of their own and through rows read by several
        # rounds, and zeros of both signs, which must not share a tail
        probs = [1.0, 0.0, -0.0, 0.875, 1.0 / 3.0, 0.1 + 0.2, 1.0 - 1e-13, 1e-300,
                 5e-324, 123456.789, math.nan, math.inf, -math.inf, 1.0, 0.0, 0.875]
        row = list(range(len(probs))) + [13, 0, 1, 2, 2, 10, 11, 12, 3, 15, 14]
        bits, flags = zip(*itertools.product([0, 1, 1, 0], [True, False, False]))
        if mode == "exact":
            rounds = {"row": np.array(row), "row_pass_probability": np.array(probs)}
        else:
            rounds = {"response_bit": np.array(bits), "passed": np.array(flags)}
        n = len(row) if mode == "exact" else len(bits)
        transcript = SessionTranscript(0, ProtocolParams(r=2, s=n), mode, None, "honest",
                                       "reject", **rounds)
        lines = self._assert_rows_match_json_dumps(transcript)
        if mode == "sampled":
            assert '{"j": 1, "response_bit": 0, "pass": true}' in lines
            assert any(line.endswith('"response_bit": 1, "pass": true}') for line in lines)
        else:
            assert any(line.endswith('"pass_probability": NaN}') for line in lines)
            assert '{"j": 2, "response_bit": null, "pass_probability": 0.0}' in lines
            assert '{"j": 3, "response_bit": null, "pass_probability": -0.0}' in lines
            assert '{"j": 19, "response_bit": null, "pass_probability": 0.0}' in lines
            assert '{"j": 20, "response_bit": null, "pass_probability": -0.0}' in lines
            assert '{"j": 17, "response_bit": null, "pass_probability": 1.0}' in lines
            got = transcript.row_pass_probability[transcript.row]
            assert got.tobytes() == np.array(probs)[row].tobytes()

    def test_records_view(self):
        params = ProtocolParams(r=2, s=5)
        key = generate_private_key(params, 3)
        exact = run_session(params, key)
        assert len(exact.records) == 5
        assert exact.records[-1] == RoundRecord(5, None, float(exact.row_pass_probability[exact.row[4]]), None)
        assert exact.records[1:3] == tuple(exact.records)[1:3]
        sampled = run_session(params, key, mode="sampled", seed=9)
        assert [rec.j for rec in sampled.records] == [1, 2, 3, 4, 5]
        assert sampled.records[0] == RoundRecord(1, int(sampled.response_bit[0]), None, True)
        with pytest.raises(IndexError):
            sampled.records[5]


class TestTransport:
    def test_send_queues_each_message(self):
        ch = Transport()
        assert len(ch) == 0
        ch.send("a")
        ch.send("b")
        assert len(ch) == 2


@given(st.integers(min_value=2, max_value=9), st.data())
@settings(max_examples=60, deadline=None)
def test_honest_round_certainty_any_phase(p, data):
    k = data.draw(st.integers(min_value=1, max_value=p))
    x = PhaseFraction(k, p)
    pk = public_key_state(x)
    total = 0.0
    for branch in alice_respond(bob_prepare_challenge(), x):
        kept = partial_trace(branch.post_state, (0,))
        total += branch.probability * bob_verify_step(kept, branch.outcome, pk)
    assert total == pytest.approx(1.0, abs=1e-12)


def _scalar_honest_round(x):
    """Reference: one honest round composed from the scalar kernel steps."""
    pk = public_key_state(x)
    rows = []
    for branch in alice_respond(bob_prepare_challenge(), x):
        kept = partial_trace(branch.post_state, (0,))
        rows.append((branch.probability,
                     bob_verify_step(kept, branch.outcome, pk)))
    return rows


@given(st.integers(min_value=2, max_value=9), st.data())
@settings(max_examples=60, deadline=None)
def test_honest_table_matches_scalar_rounds(p, data):
    ks = data.draw(st.lists(st.integers(min_value=1, max_value=p), min_size=1, max_size=12))
    xs = [PhaseFraction(k, p) for k in ks]
    table = honest_round_branches([x.angle() for x in xs])
    assert table.rounds == len(xs)
    for j, x in enumerate(xs):
        for bit, (prob, pass_prob) in enumerate(_scalar_honest_round(x)):
            assert table.probability[j, bit] == pytest.approx(prob, abs=1e-12)
            assert table.pass_probability[j, bit] == pytest.approx(pass_prob, abs=1e-12)
    exact = np.sum(table.probability * table.pass_probability, axis=1)
    np.testing.assert_allclose(exact, 1.0, rtol=0.0, atol=1e-12)


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=30),
       st.integers(min_value=0, max_value=2**32 - 1), st.data())
@settings(max_examples=40, deadline=None)
def test_honest_sampled_transcript_matches_reference_loop(r, s, seed, data):
    variant = data.draw(st.sampled_from(["standard", "hardened"]))
    params = ProtocolParams(r=r, s=s, variant=variant)
    key = generate_private_key(params, data.draw(st.integers(min_value=0, max_value=999)))
    transcript = run_session(params, key, mode="sampled", seed=seed)
    got = [(rec.j, rec.response_bit, rec.passed) for rec in transcript.records]
    assert got == reference_sampled_records(key, seed, _scalar_honest_round)


def _reference_honest_table(angles):
    """Honest branch table with the kept states formed by matrix products."""
    joint = bob_prepare_challenge().as_tensor()
    bases = phase_bases(angles)                                     # (round, outcome, 2)
    inner = bases.conj() @ joint.T
    prob = np.sum(np.abs(inner) ** 2, axis=-1)
    post = inner[..., :, None] * bases[..., None, :] / np.sqrt(prob)[..., None, None]
    kept = (post @ post.conj().swapaxes(-1, -2)).reshape(-1, 2, 2)
    pass_prob = reference_pass_probabilities(kept, np.tile([0, 1], len(angles)),
                                             np.repeat(angles, 2))
    return prob, pass_prob.reshape(-1, 2)


def test_honest_table_matches_matmul_reference():
    n = 2 * CHUNK_ROUNDS + 88
    angles = np.concatenate([2.0 * math.pi * np.arange(1, n + 1) / n,
                             [PhaseFraction(k, 7).angle() for k in range(1, 8)]])
    table = honest_round_branches(angles)
    prob, pass_prob = _reference_honest_table(angles)
    np.testing.assert_allclose(table.probability, prob, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(table.pass_probability, pass_prob, rtol=0.0, atol=1e-15)


def test_honest_table_is_the_same_across_chunks():
    n = 2 * CHUNK_ROUNDS + 88
    angles = 2.0 * math.pi * np.arange(1, n + 1) / n
    table = honest_round_branches(angles)
    assert table.rounds == n
    for j in (0, CHUNK_ROUNDS - 1, CHUNK_ROUNDS, 2 * CHUNK_ROUNDS, n - 1):
        one = honest_round_branches(angles[j:j + 1])
        np.testing.assert_array_equal(table.probability[j], one.probability[0])
        np.testing.assert_array_equal(table.pass_probability[j], one.pass_probability[0])


def test_every_honest_branch_state_reaches_the_density_check(monkeypatch):
    # One call on a (set, branch, 2, 2) stack: each branch's kept state
    # and the authentic projector, against the scalar kernel. Rounds are
    # in increasing angle, the order in which the table evaluates its
    # distinct angles.
    xs = sorted((PhaseFraction(k, 7) for k in range(1, 8)), key=lambda x: x.angle())
    seen = record_density_checks(monkeypatch)
    honest_round_branches([x.angle() for x in xs])
    (states,) = seen
    assert states.shape == (2, 2 * len(xs), 2, 2)
    for j, x in enumerate(xs):
        sigma = DensityOperator.from_pure(public_key_state(x)).matrix
        for branch in alice_respond(bob_prepare_challenge(), x):
            kept = partial_trace(branch.post_state, (0,)).matrix
            for got, want in zip(states[:, 2 * j + branch.outcome], (kept, sigma)):
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)


def _honest_kept_states(angles, corrupt=None):
    """(kept, prob) of honest rounds, formed as ``_honest_rows`` forms them.

    ``corrupt`` is (round, bit, value): that branch's first kept
    amplitude is set to ``value`` before the outer product.
    """
    inner = phase_bases(angles).conj() @ bob_prepare_challenge().as_tensor().T
    if corrupt is not None:
        inner[corrupt[:2] + (0,)] = corrupt[2]
    kept = inner[..., :, None] * inner.conj()[..., None, :]
    return kept, np.trace(kept, axis1=-2, axis2=-1).real


def test_honest_rows_give_the_verifier_their_kept_states(monkeypatch):
    # the kept states reach ``verify_kept_states`` as they are formed
    angles = np.array([PhaseFraction(k, 7).angle() for k in range(1, 8)])
    seen = []

    def spy(kept, prob, angles):
        seen.append((kept, prob))
        return verify_kept_states(kept, prob, angles)

    monkeypatch.setattr(protocol, "verify_kept_states", spy)
    table = honest_round_branches(angles)
    ((kept, prob),) = seen
    want_kept, want_prob = _honest_kept_states(angles)
    np.testing.assert_array_equal(kept, want_kept)
    np.testing.assert_array_equal(prob, want_prob)
    np.testing.assert_array_equal(table.probability, prob)


def test_an_overflowing_kept_amplitude_fails_the_density_check():
    # |1e200|^2 overflows, so the branch's trace is inf: live, and its
    # normalised kept state holds inf/inf = NaN. It is the third live
    # branch in (round, bit) order.
    angles = np.array([0.3, 1.1])
    with np.errstate(over="ignore", invalid="ignore"):
        kept, prob = _honest_kept_states(angles, corrupt=(1, 0, 1e200))
        assert prob[1, 0] == np.inf
        with pytest.raises(StateValidationError,
                           match=r"matrix entries must be finite \(stack index \(0, 2\)\)"):
            verify_kept_states(kept, prob, angles)


def test_a_nan_branch_is_live_and_fails_its_checks():
    # NaN compares false with everything: a branch whose trace is NaN must
    # reach the checks, not pass as a dead branch with pass 0. Branch
    # (1, 0) is the third in (round, bit) order.
    angles = np.array([0.3, 1.1])
    with np.errstate(invalid="ignore"):
        kept, prob = _honest_kept_states(angles, corrupt=(1, 0, np.nan))
        assert np.isnan(prob[1, 0])
        with pytest.raises(StateValidationError,
                           match=r"matrix entries must be finite \(stack index \(0, 2\)\)"):
            verify_kept_states(kept, prob, angles)
    kept, prob = _honest_kept_states(angles)
    kept[1, 0, 0, 0] = prob[1, 0] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(
            StateValidationError, match=r"matrix entries must be finite \(stack index \(0, 2\)\)"):
        verify_kept_states(kept, prob, angles)


@pytest.mark.parametrize("angle", [math.nan, math.inf])
def test_a_non_finite_angle_fails_the_basis_check(angle):
    # its phase basis is not finite, so its Gram matrix is not the identity
    with np.errstate(invalid="ignore"), pytest.raises(
            InvalidBasisError, match=r"not orthonormal.*\(stack index \(1,\)\)"):
        honest_round_branches([0.3, angle])


def test_verifier_refuses_a_probability_that_is_not_the_trace():
    # the normalised kept state then has trace != 1 (set 0, branch 1)
    angles = np.array([0.3, 1.1])
    kept, prob = _honest_kept_states(angles)
    prob[0, 1] *= 1.0 + 1e-6
    with pytest.raises(StateValidationError, match=r"trace .* \(stack index \(0, 1\)\)"):
        verify_kept_states(kept, prob, angles)


@pytest.mark.parametrize("where", [(0, 0), (0, 3), (1, 5)])
def test_a_corrupted_verifier_state_names_its_set_and_branch(monkeypatch, where):
    # set 0 kept, 1 authentic; branch 2 j + bit
    real = protocol.check_density_operators

    def corrupted(states):
        states = np.array(states)
        states[where + (0, 1)] += 1e-6
        real(states)

    monkeypatch.setattr(protocol, "check_density_operators", corrupted)
    with pytest.raises(StateValidationError,
                       match=rf"not Hermitian \(stack index \({where[0]}, {where[1]}\)\)"):
        honest_round_branches([PhaseFraction(k, 5).angle() for k in (1, 2, 3)])


def test_honest_table_is_evaluated_in_chunks_in_order(monkeypatch):
    # every angle once, in consecutive chunks of CHUNK_ROUNDS, and each
    # chunk's rows land on its own angles
    real = protocol._honest_rows
    chunks = []

    def spy(joint, angles):
        chunks.append(angles.copy())
        return real(joint, angles)

    monkeypatch.setattr(protocol, "_honest_rows", spy)
    angles = 2.0 * math.pi * np.arange(2 * CHUNK_ROUNDS + 11)[::-1] / 1000
    table = honest_round_branches(angles)
    assert [chunk.size for chunk in chunks] == [CHUNK_ROUNDS, CHUNK_ROUNDS, 11]
    assert np.concatenate(chunks).tobytes() == angles.tobytes()
    for j in (0, CHUNK_ROUNDS, 2 * CHUNK_ROUNDS + 10):
        one = real(bob_prepare_challenge().as_tensor(), angles[j:j + 1])
        assert table.probability[j].tobytes() == one[0][0].tobytes()
        assert table.pass_probability[j].tobytes() == one[1][0].tobytes()
    chunks.clear()
    assert honest_round_branches([]).rounds == 0
    assert chunks == []


class TestBranchTable:

    def test_rows_must_sum_to_one(self):
        with pytest.raises(NumericalError):
            BranchTable(np.array([[0.5, 0.5], [0.5, 0.4]]), np.ones((2, 2)))

    @pytest.mark.parametrize("bad", [-1e-6, 1.0 + 1e-6, math.nan, math.inf])
    def test_entries_must_be_probabilities(self, bad):
        with pytest.raises(NumericalError):
            BranchTable(np.array([[0.5, 0.5]]), np.array([[1.0, bad]]))
        with pytest.raises(NumericalError):
            BranchTable(np.array([[bad, 0.5]]), np.array([[1.0, 1.0]]))

    def test_shape_is_rounds_by_two(self):
        with pytest.raises(DimensionMismatchError):
            BranchTable(np.full((2, 3), 1.0 / 3.0), np.ones((2, 3)))
        with pytest.raises(DimensionMismatchError):
            BranchTable(np.full((2, 2), 0.5), np.ones((3, 2)))

    def test_arrays_are_read_only_copies(self):
        prob = np.full((1, 2), 0.5)
        table = BranchTable(prob, np.ones((1, 2)))
        prob[0, 0] = 0.9
        assert table.probability[0, 0] == 0.5
        with pytest.raises(ValueError):
            table.pass_probability[0, 0] = 0.0

    def test_row_is_a_read_only_view_of_one_row(self):
        table = BranchTable(np.array([[0.25, 0.75], [1.0, 0.0], [0.5, 0.5]]),
                            np.array([[1.0, 0.5], [0.9, 0.0], [0.0, 1.0]]))
        for j in (0, 1, 2, -1):
            row = table.row(j)
            assert row.rounds == 1
            np.testing.assert_array_equal(row.probability, table.probability[[j]])
            np.testing.assert_array_equal(row.pass_probability, table.pass_probability[[j]])
            assert row.probability.base is table.probability
            with pytest.raises(ValueError):
                row.pass_probability[0, 0] = 0.0
        with pytest.raises(IndexError):
            table.row(3)

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    @pytest.mark.parametrize("row,match", [
        pytest.param([0, 1], r"integers of shape \(3,\), got int\d+ of shape \(2,\)",
                     id="short"),
        pytest.param([[0, 1, 1]], r"shape \(3,\), got int\d+ of shape \(1, 3\)", id="2d"),
        pytest.param([0, -1, 1], "must lie in 0..1, got -1", id="negative"),
        pytest.param([0, 2, 1], "must lie in 0..1, got 2", id="too-large"),
        pytest.param([0.0, 1.0, 1.0], r"integers of shape \(3,\), got float64", id="float"),
        pytest.param([False, True, True], "got bool", id="bool"),
    ])
    def test_session_rejects_a_bad_row_index(self, row, match, mode):
        class _Prover:
            def round_branches(self, key):
                return BranchTable(np.full((2, 2), 0.5), np.ones((2, 2))), row

        params = ProtocolParams(r=2, s=3)
        key = generate_private_key(params, 4)
        with pytest.raises(DimensionMismatchError, match=match):
            run_session(params, key, prover=_Prover(), mode=mode, seed=1)

    def test_session_keeps_its_own_copy_of_the_row_index(self):
        row = np.array([0, 1, 1])

        class _Prover:
            def round_branches(self, key):
                return BranchTable(np.array([[0.5, 0.5], [1.0, 0.0]]),
                                   np.array([[1.0, 1.0], [0.5, 0.5]])), row

        params = ProtocolParams(r=2, s=3)
        transcript = run_session(params, generate_private_key(params, 4), prover=_Prover())
        row[:] = 0
        assert transcript.row_pass_probability[transcript.row].tolist() == [1.0, 0.5, 0.5]
        assert transcript.verdict == "reject"
