"""An honest session's branch table is built once per distinct key phase and gathered.

Every honest round's rows are a function of its key angle alone, so the
table built on the distinct angles and gathered back to one row per
round must equal, bit for bit, the table that evaluates every round
itself. The reference here is that per-round table: the row builder
applied to consecutive chunks of all s angles, with no sharing between
rounds. An attacked round does not depend on the angle at all, so an Eve
session evaluates it once, whatever its key.
"""

import math

import numpy as np
import pytest

from phaseid import adversary, protocol
from phaseid.adversary import EveProver, helstrom_strategy
from phaseid.keys import PhaseFraction, PrivateKey, ProtocolParams, generate_private_key
from phaseid.protocol import CHUNK_ROUNDS, bob_prepare_challenge, honest_round_branches, run_session

_JOINT = bob_prepare_challenge().joint_state.as_tensor()


def _per_round_table(rows, angles, chunk):
    """(probability, pass_probability) with every round evaluated on its own row."""
    parts = [rows(angles[i:i + chunk]) for i in range(0, angles.size, chunk)]
    return (np.concatenate([prob for prob, _ in parts]),
            np.concatenate([pass_prob for _, pass_prob in parts]))


def _assert_bitwise_equal(table, want):
    for got, ref in zip((table.probability, table.pass_probability), want):
        assert got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("variant", ["standard", "hardened"])
@pytest.mark.parametrize("r", [2, 100, 5000])
def test_honest_gathered_table_equals_per_round_table(r, variant):
    params = ProtocolParams(r=r, s=10_000, variant=variant)
    angles = generate_private_key(params, 17 + r).angles()
    table = honest_round_branches(angles)
    _assert_bitwise_equal(table, _per_round_table(
        lambda chunk: protocol._honest_rows(_JOINT, chunk), angles, CHUNK_ROUNDS))
    for j in (0, 1, params.s // 2, params.s - 1):
        one = honest_round_branches(angles[j:j + 1])
        assert table.probability[j].tobytes() == one.probability[0].tobytes()
        assert table.pass_probability[j].tobytes() == one.pass_probability[0].tobytes()


@pytest.mark.parametrize("p", [2, 3, 101, 10001])
def test_key_angles_equal_phase_fraction_angles(p):
    key = PrivateKey.from_ks(np.arange(1, p + 1), p)
    want = np.array([PhaseFraction(k, p).angle() for k in range(1, p + 1)])
    got = key.angles()
    assert got.tobytes() == want.tobytes()
    assert got[-1] == 0.0 and math.copysign(1.0, got[-1]) == 1.0


# Only the honest prover evaluates per distinct phase; an Eve session
# evaluates its round once (test_eve_session_evaluates_the_attacked_round_once).
@pytest.mark.parametrize("prover", ["honest"])
@pytest.mark.parametrize("r,s,variant", [(2, 1000, "standard"), (100, 300, "standard"),
                                         (1000, 3000, "hardened"), (5, 1, "standard")])
def test_row_builder_evaluates_each_distinct_phase_once(monkeypatch, prover, r, s, variant):
    real = protocol._honest_rows
    evaluated = []

    def spy(*args):
        evaluated.append(args[-1].size)
        return real(*args)

    monkeypatch.setattr(protocol, "_honest_rows", spy)
    params = ProtocolParams(r=r, s=s, variant=variant)
    key = generate_private_key(params, r + s)
    transcript = run_session(params, key, prover)
    assert len(transcript.records) == s
    assert sum(evaluated) == len(np.unique(key.ks % key.p))


@pytest.mark.parametrize("mode,seed", [("exact", None), ("sampled", 7)])
def test_eve_session_evaluates_the_attacked_round_once(monkeypatch, mode, seed):
    real = adversary.attack_round_branches
    calls = []

    def spy(strategy):
        calls.append(strategy.t)
        return real(strategy)

    monkeypatch.setattr(adversary, "attack_round_branches", spy)
    params = ProtocolParams(r=100, s=300)
    key = generate_private_key(params, 11)
    assert len(np.unique(key.ks)) >= 50
    transcript = run_session(params, key, EveProver(helstrom_strategy(3)), mode=mode, seed=seed)
    assert len(transcript.records) == params.s
    assert calls == [3]
