"""Acceptance gate: eight end-to-end criteria, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
pass/fail lines; each criterion is one test, so the verbose listing
carries the same information.
"""

import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from phaseid.adversary import (
    cheung_sum_bound,
    eve_attack_round,
    helstrom_psucc_oracle,
    overlap_sum,
    psucc_formula,
    sample_attack_rounds,
)
from phaseid.bounds import min_security_parameter, p_break_bound
from phaseid.cli import main
from phaseid.keys import (
    PhaseFraction,
    PrivateKey,
    ProtocolParams,
    averaged_key_operator_discrete,
    symmetric_mixture,
)
from phaseid.protocol import run_session
from phaseid.rng import make_rng


def _criterion(number: int, name: str, limit_s: float, body) -> None:
    start = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - start
        if elapsed >= limit_s:
            raise AssertionError(
                f"runtime {elapsed:.2f} s exceeds the {limit_s:.0f} s budget"
            )
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {number} ({name}): FAIL ({elapsed:.2f} s)")
        raise
    print(f"criterion {number} ({name}): PASS ({elapsed:.2f} s)")


def test_criterion_1_honest_correctness():
    def body():
        for r in range(1, 6):
            params1 = ProtocolParams(r, 1)
            p = params1.p
            # every key value, one round each
            for k in range(1, p + 1):
                key = PrivateKey((PhaseFraction(k, p),))
                tr = run_session(params1, key, "honest", mode="exact")
                assert tr.verdict == "accept"
                assert abs(tr.records[0].pass_probability - 1.0) <= 1e-12
            # multi-round sessions cycling through the full phase set
            for s in range(2, 9):
                params = ProtocolParams(r, s)
                key = PrivateKey(
                    tuple(PhaseFraction((i % p) + 1, p) for i in range(s))
                )
                tr = run_session(params, key, "honest", mode="exact")
                assert tr.verdict == "accept"
                for rec in tr.records:
                    assert abs(rec.pass_probability - 1.0) <= 1e-12

    _criterion(1, "honest sessions accept with certainty", 1.0, body)


def test_criterion_2_averaging_identity():
    def body():
        for n in range(1, 7):
            target = symmetric_mixture(n).matrix
            for p in (n + 1, n + 2, n + 4, 2 * n + 3):
                got = averaged_key_operator_discrete(p, n).matrix
                assert float(np.max(np.abs(got - target))) <= 1e-12

    _criterion(2, "key average equals weight mixture", 1.0, body)


def test_criterion_3_formula_oracle_equivalence():
    def body():
        # reference decimals carry 7 digits, hence the 5e-8 window
        for t, want in ((1, 0.75), (2, 0.8535534), (3, 0.9040064)):
            assert abs(psucc_formula(t) - want) <= 5e-8
        for t in range(1, 9):
            assert abs(psucc_formula(t) - helstrom_psucc_oracle(t)) <= 1e-9

    _criterion(3, "guessing formula matches trace-norm oracle", 5.0, body)


def test_criterion_4_cheat_guess_identity():
    def body():
        for t in range(1, 9):
            report = eve_attack_round(t)
            want = 0.5 * (1.0 + psucc_formula(t))
            assert abs(report.p_pass_exact - want) <= 1e-9
            assert report.p_pass_exact <= 1.0 - 1.0 / (8.0 * (t + 1)) + 1e-12

    _criterion(4, "attack pass probability is (1+psucc)/2", 10.0, body)


def test_criterion_5_cheung_inequality():
    def body():
        for t in range(1, 65):
            lhs = overlap_sum(t)
            rhs = cheung_sum_bound(t)
            assert lhs <= rhs + 1e-12
        assert abs(overlap_sum(1) - cheung_sum_bound(1)) <= 1e-12
        assert abs(cheung_sum_bound(1) - 0.5) <= 1e-15

    _criterion(5, "overlap sum obeys the combinatorial bound", 1.0, body)


def test_criterion_6_security_arithmetic():
    def body():
        # exact rational oracle for 2 * (15/16)^83
        want = float(Fraction(2) * Fraction(15, 16) ** 83)
        got = p_break_bound(2, 83, "standard")
        assert abs(got - want) <= 1e-15
        assert got <= 0.01
        assert f"{got:.2g}" == "0.0094"
        assert min_security_parameter(2, 0.01, "standard") == 83
        for variant in ("standard", "hardened"):
            for r in range(1, 7):
                for eps in (0.3, 0.1, 0.02, 1e-3):
                    s_star = min_security_parameter(r, eps, variant)
                    assert p_break_bound(r, s_star, variant) <= eps
                    if s_star > 1:
                        assert p_break_bound(r, s_star - 1, variant) > eps

    _criterion(6, "break-probability cap and advisor", 1.0, body)


def test_criterion_7_monte_carlo_consistency():
    def body():
        trials = 100_000
        report = eve_attack_round(2)
        exact = report.p_pass_exact
        assert abs(exact - 0.9267767) <= 5e-8
        passes = sample_attack_rounds(report.branches, trials, make_rng(424242))
        sigma = math.sqrt(exact * (1.0 - exact) / trials)
        assert abs(float(np.mean(passes)) - exact) <= 3.0 * sigma

    _criterion(7, "sampled attack matches exact rate", 30.0, body)


CRITERION_8_COMMANDS = {
    "keygen": ["keygen", "--r", "3", "--s", "4", "--seed", "11"],
    "run-honest": ["run-honest", "--r", "2", "--s", "4",
                   "--mode", "sampled", "--seed", "7", "--trials", "2"],
    "run-attack": ["run-attack", "--t-max", "3", "--mode", "sampled",
                   "--seed", "5", "--trials", "2000"],
    "psucc-table": ["psucc-table", "--t-max", "4"],
    "bounds": ["bounds", "--r", "2", "--s", "83"],
    "verify-identities": ["verify-identities"],
}


def test_criterion_8_byte_identical_reruns(tmp_path, capsys):
    def body():
        for name, argv in CRITERION_8_COMMANDS.items():
            first = tmp_path / f"{name}-1.out"
            second = tmp_path / f"{name}-2.out"
            assert main(argv + ["--out", str(first)]) == 0
            assert main(argv + ["--out", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes(), name
        capsys.readouterr()  # drop verify-identities stdout chatter

    _criterion(8, "identical config and seed give identical bytes", 30.0, body)


# The --out bytes of each command, recorded from a known-good build
# (psucc-table's are pinned by tests/data/psucc_table_t64.*). A change that
# moves any of them replaces the file and names the change in CHANGES.md.
@pytest.mark.parametrize("name", ["keygen", "run-honest", "run-attack", "bounds",
                                  "verify-identities"])
def test_criterion_8_reproduces_golden_bytes(tmp_path, capsys, name):
    out = tmp_path / f"{name}.out"
    assert main(CRITERION_8_COMMANDS[name] + ["--out", str(out)]) == 0
    capsys.readouterr()
    golden = Path(__file__).parent / "data" / "criterion8" / f"{name}.out"
    assert out.read_bytes() == golden.read_bytes()


def test_verify_identities_reproduces_golden_stdout(capsys):
    # tests/data/criterion8/verify-identities.stdout holds the five lines
    # the command prints, recorded from a known-good build as the --out
    # goldens above are; a change that moves them replaces the file and
    # names the change in CHANGES.md.
    assert main(CRITERION_8_COMMANDS["verify-identities"]) == 0
    golden = Path(__file__).parent / "data" / "criterion8" / "verify-identities.stdout"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")
