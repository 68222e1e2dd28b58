"""Every guarded count, seed and modulus is an integer, never a truncated float.

One table names each entry point that takes a whole number and the field
it checks. For every row, a float (even an integral one), a bool or a
string is a ``ValueError`` naming the field, and a numpy integer gives
exactly what the Python int gives, stored as an int wherever it is
stored. ``errors._require_int`` makes each of these decisions.
"""

import re

import numpy as np
import pytest

from phaseid.adversary import (
    HelstromStrategy,
    build_discrimination_pair,
    cheung_bound,
    cheung_sum_bound,
    eve_attack_round,
    eve_attack_rounds,
    helstrom_psucc_oracle,
    helstrom_psucc_oracles,
    helstrom_strategy,
    overlap_sum,
    psucc_formula,
    sample_attack_rounds,
)
from phaseid.bounds import (
    fool_first_attempt_bound,
    min_security_parameter,
    p_break_bound,
    union_bound_chain,
)
from phaseid.errors import _require_int
from phaseid.keys import (
    PhaseFraction,
    PrivateKey,
    ProtocolParams,
    averaged_key_operator_discrete,
    averaged_key_operators,
    generate_private_key,
    symmetric_mixture,
)
from phaseid.protocol import run_session
from phaseid.rng import derive_seed, make_rng

PARAMS = ProtocolParams(2, 3)
KEY = generate_private_key(PARAMS, 5)
MAX_SEED = 2**64 - 1


def _row():
    return eve_attack_round(2).branches


# (id, field, call): call(v) runs the entry point with v in the field's
# place, where 3 is a valid value, and returns what it made as plain
# Python values, so that a numpy integer can be compared with the int.
ENTRY_POINTS = [
    ("ProtocolParams.r", "r", lambda v: ProtocolParams(v, 3).r),
    ("ProtocolParams.s", "s", lambda v: ProtocolParams(2, v).s),
    ("PhaseFraction.k", "k", lambda v: PhaseFraction(v, 7).k),
    ("PhaseFraction.p", "p", lambda v: PhaseFraction(1, v).p),
    ("PrivateKey.from_ks", "p", lambda v: PrivateKey.from_ks([1], v).p),
    ("generate_private_key", "seed", lambda v: generate_private_key(PARAMS, v).ks.tolist()),
    ("averaged_key_operators.p", "p", lambda v: averaged_key_operators((v,), 2).tolist()),
    ("averaged_key_operators.n", "n", lambda v: averaged_key_operators((3,), v).tolist()),
    ("averaged_key_operator_discrete", "p",
     lambda v: averaged_key_operator_discrete(v, 2).matrix.tolist()),
    ("symmetric_mixture", "n", lambda v: symmetric_mixture(v).matrix.tolist()),
    ("overlap_sum", "t", overlap_sum),
    ("psucc_formula", "t", psucc_formula),
    ("cheung_sum_bound", "t", cheung_sum_bound),
    ("cheung_bound", "t", cheung_bound),
    ("build_discrimination_pair", "t", lambda v: build_discrimination_pair(v).tolist()),
    ("helstrom_psucc_oracle", "t", helstrom_psucc_oracle),
    ("helstrom_psucc_oracles", "t", lambda v: helstrom_psucc_oracles([1, v])),
    ("HelstromStrategy", "t", lambda v: HelstromStrategy(v).t),
    ("helstrom_strategy", "t", lambda v: tuple(vars(helstrom_strategy(v)).values())),
    ("eve_attack_round", "t", lambda v: tuple(vars(eve_attack_round(v)).values())[:3]),
    ("eve_attack_rounds", "t", lambda v: [report.t for report in eve_attack_rounds([1, v])]),
    ("sample_attack_rounds", "trials",
     lambda v: sample_attack_rounds(_row(), v, make_rng(0)).tolist()),
    ("fool_first_attempt_bound.t", "t", lambda v: fool_first_attempt_bound(v, 10)),
    ("fool_first_attempt_bound.s", "s", lambda v: fool_first_attempt_bound(2, v)),
    ("union_bound_chain.t", "t", lambda v: union_bound_chain(v, 5, 83)),
    ("union_bound_chain.r", "r", lambda v: union_bound_chain(0, v, 83)),
    ("union_bound_chain.s", "s", lambda v: union_bound_chain(0, 5, v)),
    ("p_break_bound.r", "r", lambda v: p_break_bound(v, 83)),
    ("p_break_bound.s", "s", lambda v: p_break_bound(2, v)),
    ("min_security_parameter", "r", lambda v: min_security_parameter(v, 0.01)),
    ("run_session.exact", "seed", lambda v: run_session(PARAMS, KEY, seed=v).seed),
    ("run_session.session_id", "session_id",
     lambda v: run_session(PARAMS, KEY, session_id=v).session_id),
    ("run_session.sampled", "seed", lambda v: next(
        run_session(PARAMS, KEY, mode="sampled", seed=v).to_json_lines())),
    ("derive_seed.master", "master", lambda v: derive_seed(v, 0)),
    ("derive_seed.index", "stream index", lambda v: derive_seed(1, v)),
    ("make_rng", "seed", lambda v: make_rng(v).random(2).tolist()),
]
ENTRY_IDS = [entry[0] for entry in ENTRY_POINTS]

NOT_INTEGERS = [2.5, 3.0, True, np.float64(3), "3"]


def _same(a, b) -> bool:
    """Equal values of the same types, all the way down."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("name,field,call", ENTRY_POINTS, ids=ENTRY_IDS)
def test_a_non_integer_is_refused_naming_its_field(name, field, call, value):
    with pytest.raises(ValueError, match=f"^{re.escape(field)} must be an integer, got "):
        call(value)


@pytest.mark.parametrize("value", [np.int64(3), np.uint8(3)], ids=repr)
@pytest.mark.parametrize("name,field,call", ENTRY_POINTS, ids=ENTRY_IDS)
def test_a_numpy_integer_is_the_int(name, field, call, value):
    assert _same(call(value), call(3))


# The calls that let a non-integer through before there was one guard:
# each returned a number, or raised TypeError, instead of refusing.
HOLES = [
    ("p_break_bound(2.5, 83)", "r", lambda: p_break_bound(2.5, 83)),
    ("p_break_bound(True, 83)", "r", lambda: p_break_bound(True, 83)),
    ("min_security_parameter(2.5, 0.01)", "r", lambda: min_security_parameter(2.5, 0.01)),
    ("fool_first_attempt_bound(2.5, 10)", "t", lambda: fool_first_attempt_bound(2.5, 10)),
    ("averaged_key_operators((2.5,), 2)", "p", lambda: averaged_key_operators((2.5,), 2)),
    ("union_bound_chain(0.5, 2, 83)", "t", lambda: union_bound_chain(0.5, 2, 83)),
    ("symmetric_mixture(2.5)", "n", lambda: symmetric_mixture(2.5)),
    ("averaged_key_operators((3,), 2.5)", "n", lambda: averaged_key_operators((3,), 2.5)),
    ("sample_attack_rounds(row, 2.5, rng)", "trials",
     lambda: sample_attack_rounds(_row(), 2.5, make_rng(0))),
    ("derive_seed(1, 2.5)", "stream index", lambda: derive_seed(1, 2.5)),
    ("run_session(seed=True)", "seed",
     lambda: run_session(PARAMS, KEY, mode="sampled", seed=True)),
    ("generate_private_key(params, True)", "seed", lambda: generate_private_key(PARAMS, True)),
    ("run_session(session_id=2.5)", "session_id", lambda: run_session(PARAMS, KEY, session_id=2.5)),
]


@pytest.mark.parametrize("name,field,call", HOLES, ids=[hole[0] for hole in HOLES])
def test_every_former_hole_is_refused(name, field, call):
    with pytest.raises(ValueError, match=f"^{re.escape(field)} must be an integer, got "):
        call()


SEEDED = [
    ("derive_seed.master", "master", lambda v: derive_seed(v, 0)),
    ("derive_seed.index", "stream index", lambda v: derive_seed(0, v)),
    ("make_rng", "seed", make_rng),
    ("generate_private_key", "seed", lambda v: generate_private_key(PARAMS, v)),
    ("run_session", "seed", lambda v: run_session(PARAMS, KEY, mode="sampled", seed=v)),
]


@pytest.mark.parametrize("name,field,call", SEEDED, ids=[entry[0] for entry in SEEDED])
def test_one_seed_domain(name, field, call):
    # a seed outside 0..2^64 - 1 is refused, not reduced onto another seed
    with pytest.raises(ValueError, match=f"^{re.escape(field)} must be >= 0, got -1$"):
        call(-1)
    with pytest.raises(ValueError, match=f"^{re.escape(field)} must be at most {MAX_SEED}$"):
        call(MAX_SEED + 1)
    call(0)
    call(MAX_SEED)


def test_the_three_messages():
    assert _require_int("n", 5, 1, 10) == 5
    for value, message in [(2.5, "n must be an integer, got 2.5"),
                           ("5", "n must be an integer, got '5'"),
                           (0, "n must be >= 1, got 0"),
                           (11, "n must be at most 10")]:
        with pytest.raises(ValueError) as info:
            _require_int("n", value, 1, 10)
        assert str(info.value) == message
