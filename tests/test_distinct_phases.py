"""A session reads its distinct rows through one index per round.

An honest round's rows are a function of its key phase alone, and an
attacked round's do not depend on the phase at all, so a session's
table holds each distinct row once and every round reads its row
through the index. The reference here evaluates every round itself:
the honest table at all s key angles, the attacked row repeated s
times, and the exact marginal or the two sampled draws of each round
from that per-round table. The transcript must equal it bit for bit.
"""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from phaseid import adversary, protocol
from phaseid.adversary import EveProver, attack_round_branches, helstrom_strategy
from phaseid.keys import (
    PhaseFraction,
    PrivateKey,
    ProtocolParams,
    generate_private_key,
    phase_angles,
)
from phaseid.protocol import HonestProver, honest_round_branches, run_session
from phaseid.rng import make_rng


def _per_round_table(key, prover):
    """(probability, pass_probability) with one row per round, each evaluated for its round."""
    if prover == "honest":
        table = honest_round_branches(phase_angles(key.ks, key.p))
        return table.probability, table.pass_probability
    row = attack_round_branches(prover.strategy)
    return (np.repeat(row.probability, key.s, axis=0),
            np.repeat(row.pass_probability, key.s, axis=0))


def _assert_session_is_per_round(params, key, prover, mode, seed):
    transcript = run_session(params, key, prover, mode=mode, seed=seed)
    prob, pass_prob = _per_round_table(key, prover)
    if mode == "exact":
        marginal = prob[:, 0] * pass_prob[:, 0] + prob[:, 1] * pass_prob[:, 1]
        got = transcript.row_pass_probability[transcript.row]
        assert got.tobytes() == marginal.tobytes()
        want = [json.dumps({"j": j, "response_bit": None,
                            "pass_probability": float(f"{x:.12g}")})
                for j, x in enumerate(marginal.tolist(), start=1)]
    else:
        u = make_rng(seed).random((params.s, 2))
        bits = (u[:, 0] >= prob[:, 0]).astype(np.int64)
        passed = u[:, 1] < pass_prob[np.arange(params.s), bits]
        assert transcript.response_bit.tobytes() == bits.tobytes()
        assert transcript.passed.tobytes() == passed.tobytes()
        want = [json.dumps({"j": j, "response_bit": b, "pass": f})
                for j, (b, f) in enumerate(zip(bits.tolist(), passed.tolist()), start=1)]
    assert list(transcript.to_json_lines())[1:-1] == want


@pytest.mark.parametrize("mode,seed", [("exact", None), ("sampled", 23)])
@pytest.mark.parametrize("who", ["honest", "eve"])
@pytest.mark.parametrize("p,s", [(2, 1), (2, 500), (3, 10_000), (101, 3), (101, 10_000)])
def test_session_equals_its_per_round_reference(p, s, who, mode, seed):
    params = ProtocolParams(r=p - 1, s=s)
    prover = "honest" if who == "honest" else EveProver(helstrom_strategy(3))
    _assert_session_is_per_round(params, generate_private_key(params, p + s), prover,
                                 mode, seed)


@pytest.mark.parametrize("variant", ["standard", "hardened"])
@pytest.mark.parametrize("r", [2, 100, 5000])
def test_honest_gathered_table_equals_per_round_table(r, variant):
    # up to p = 10001 phases, so the distinct rows span many chunks
    params = ProtocolParams(r=r, s=10_000, variant=variant)
    key = generate_private_key(params, 17 + r)
    for mode, seed in (("exact", None), ("sampled", r)):
        _assert_session_is_per_round(params, key, "honest", mode, seed)


@pytest.mark.parametrize("p", [2, 3, 101, 10001])
def test_key_angles_equal_phase_fraction_angles(p):
    key = PrivateKey.from_ks(np.arange(1, p + 1), p)
    want = np.array([PhaseFraction(k, p).angle() for k in range(1, p + 1)])
    got = phase_angles(key.ks, key.p)
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
        evaluated.append(args[-1].copy())
        return real(*args)

    monkeypatch.setattr(protocol, "_honest_rows", spy)
    params = ProtocolParams(r=r, s=s, variant=variant)
    key = generate_private_key(params, r + s)
    transcript = run_session(params, key, prover)
    assert len(transcript.records) == s
    distinct, first = np.unique(key.ks, return_index=True)
    assert np.concatenate(evaluated).tobytes() == phase_angles(key.ks, key.p)[first].tobytes()
    assert transcript.row.tobytes() == np.searchsorted(distinct, key.ks).tobytes()


@pytest.mark.parametrize("mode,seed", [("exact", None), ("sampled", 7)])
def test_eve_session_evaluates_the_attacked_round_once(monkeypatch, mode, seed):
    # one attacked row, validated once: no sort and no table of s rows
    real_round, real_unique = adversary.attack_round_branches, np.unique
    post_init = protocol.BranchTable.__post_init__
    calls, uniques, tables = [], [], []

    def spy_round(strategy):
        calls.append(strategy.t)
        return real_round(strategy)

    def spy_unique(*args, **kwargs):
        uniques.append(np.shape(args[0]))
        return real_unique(*args, **kwargs)

    def spy_post_init(table):
        tables.append(np.shape(table.probability)[0])
        post_init(table)

    params = ProtocolParams(r=100, s=300)
    key = generate_private_key(params, 11)
    assert len(np.unique(key.ks)) >= 50
    prover = EveProver(helstrom_strategy(3))
    monkeypatch.setattr(adversary, "attack_round_branches", spy_round)
    monkeypatch.setattr(np, "unique", spy_unique)
    monkeypatch.setattr(protocol.BranchTable, "__post_init__", spy_post_init)
    transcript = run_session(params, key, prover, mode=mode, seed=seed)
    list(transcript.to_json_lines())
    assert len(transcript.records) == params.s
    assert calls == [3]
    assert uniques == []
    assert tables == [1]


def test_exact_honest_session_memory_is_bounded_by_its_index():
    # s = 2e5: the key's int64 numerators take 1.6 MB; the session holds
    # its integer sort and index, three rows, and no per-round floats
    params = ProtocolParams(r=2, s=200_000)
    key = generate_private_key(params, 1)
    run_session(params, key)
    tracemalloc.start()
    try:
        transcript = run_session(params, key)
        held, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        assert len(transcript.records) == params.s       # gathers nothing
        _, len_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20
    assert len_peak - held < 2**16


def _numerator_keys():
    """Keys on both sides of p = s, with all or only some numerators present."""
    cases = []
    for p in (2, 3, 101, 10001):
        rng = make_rng(p)
        for label, ks in (
                ("every-numerator", rng.permutation(np.arange(1, p + 1))),     # p = s
                ("p=s", rng.integers(1, p + 1, size=p)),
                ("p=s+1", rng.integers(1, p + 1, size=max(p - 1, 1))),      # s = 1 at p = 2
                ("s=3p", rng.integers(1, p + 1, size=3 * p)),
                ("even-only", 2 * rng.integers(1, p // 2 + 1, size=2 * p)),
                ("p>s-upper-half", rng.integers(p // 2 + 1, p + 1, size=max(p // 3, 1)))):
            cases.append(pytest.param(ks, p, id=f"p{p}-{label}"))
    return cases


@pytest.mark.parametrize("ks,p", _numerator_keys())
def test_counted_numerators_equal_the_sorted_ones(monkeypatch, ks, p):
    key = PrivateKey.from_ks(ks, p)
    want, want_row = np.unique(key.ks, return_inverse=True)
    real_unique, sorts = np.unique, []

    def spy_unique(*args, **kwargs):
        sorts.append(np.shape(args[0]))
        return real_unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", spy_unique)
    distinct, row = protocol._distinct_numerators(key)
    # np.unique sorts only a key with more numerators than rounds
    assert sorts == ([(key.s,)] if p > key.s else [])
    assert distinct.dtype == want.dtype and distinct.tobytes() == want.tobytes()
    assert row.dtype == np.intp
    assert row.tobytes() == want_row.tobytes() == np.searchsorted(want, key.ks).tobytes()
    # every row is read by some round, so run_session's exact verdict reads the rows alone
    assert np.array_equal(np.unique(row), np.arange(distinct.size))


def test_exact_honest_session_counts_its_numerators_in_the_space_of_its_index():
    # p = 3 <= s = 2e5: past the 1.6 MB index the numerators are counted
    # in p + 1 entries, where np.unique's sort held about 8 MB
    params = ProtocolParams(r=2, s=200_000)
    key = generate_private_key(params, 1)
    run_session(params, key)
    tracemalloc.start()
    try:
        run_session(params, key)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * params.s


@pytest.mark.parametrize("mode,seed", [("exact", None), ("sampled", 3)])
def test_rendering_holds_one_chunk_of_rounds(mode, seed):
    # 256 round lines of about 60 bytes each, not the 2e5 rounds of the session
    params = ProtocolParams(r=2, s=200_000)
    transcript = run_session(params, generate_private_key(params, 1), mode=mode, seed=seed)
    tracemalloc.start()
    try:
        lines = list(itertools.islice(transcript.to_json_lines(), 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [json.loads(line).get("j") for line in lines] == [None, 1, 2]
    assert peak < 2**16


@pytest.mark.parametrize("mode,seed", [("exact", None), ("sampled", 13)])
def test_sessions_of_one_honest_prover_share_its_table(monkeypatch, mode, seed):
    params = ProtocolParams(r=100, s=3000)
    key = generate_private_key(params, 5)
    fresh = run_session(params, key, mode=mode, seed=seed)
    prover = HonestProver(key)
    assert prover.tag == "honest" and not prover.row.flags.writeable

    def no_table(*args):
        raise AssertionError("a session rebuilt the key's table")

    monkeypatch.setattr(protocol, "_honest_rows", no_table)
    # an equal key, not the same object, is the prover's key too
    for k in (key, PrivateKey.from_ks(key.ks, key.p)):
        shared = run_session(params, k, prover, mode=mode, seed=seed)
        assert list(shared.to_json_lines()) == list(fresh.to_json_lines())
        if mode == "exact":
            assert shared.row is prover.row


def test_an_honest_prover_answers_only_for_its_key():
    params = ProtocolParams(r=2, s=5)
    key = PrivateKey.from_ks([1, 2, 3, 1, 2], 3)
    other = PrivateKey.from_ks([1, 2, 3, 1, 3], 3)
    with pytest.raises(ValueError, match="^honest prover holds another key$"):
        run_session(params, other, HonestProver(key))
