"""End-to-end command-line behavior, exit codes, output formats."""

import argparse
import ast
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

try:
    import resource
except ImportError:                                 # not POSIX
    resource = None

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import phaseid
from phaseid import adversary, cli, identities, keys, protocol
from phaseid.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_REFUSAL,
    EXIT_REJECT,
    _verdict_exit,
    main,
)
from phaseid.errors import (
    DimensionMismatchError,
    InternalError,
    InvalidBasisError,
    NumericalError,
    StateValidationError,
)
from phaseid.rng import derive_seed


def run_cli(argv, capsys):
    """Invoke main() in-process, normalizing argparse's SystemExit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestKeygen:
    def test_private_payload(self, capsys):
        code, out, _ = run_cli(
            ["keygen", "--r", "3", "--s", "4", "--seed", "11"], capsys
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["r"] == 3
        assert payload["s"] == 4
        assert payload["variant"] == "standard"
        assert payload["seed"] == 11
        assert payload["p"] == 4
        assert len(payload["xs"]) == 4
        assert all(1 <= k <= 4 for k in payload["xs"])

    def test_hardened_modulus(self, capsys):
        code, out, _ = run_cli(
            ["keygen", "--r", "3", "--s", "2", "--seed", "1", "--variant", "hardened"],
            capsys,
        )
        assert code == EXIT_OK
        assert json.loads(out)["p"] == 7

    def test_deterministic(self, capsys):
        argv = ["keygen", "--r", "4", "--s", "6", "--seed", "5"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second

    def test_public_descriptor_redacts(self, capsys):
        code, out, _ = run_cli(
            ["keygen", "--r", "3", "--s", "4", "--seed", "11", "--public"], capsys
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["xs_redacted"] is True
        assert "xs" not in payload
        assert payload["elements"] == 4

    # the public descriptor's bytes: modulus, the redaction mark, length
    @pytest.mark.parametrize("argv,text", [
        (["--r", "3", "--s", "4", "--seed", "11"],
         '{\n  "p": 4,\n  "xs_redacted": true,\n  "elements": 4\n}\n'),
        (["--r", "4", "--s", "6", "--seed", "5", "--variant", "hardened"],
         '{\n  "p": 9,\n  "xs_redacted": true,\n  "elements": 6\n}\n'),
        (["--r", "2", "--s", "1", "--seed", "0"],
         '{\n  "p": 3,\n  "xs_redacted": true,\n  "elements": 1\n}\n'),
    ], ids=["standard", "hardened", "one-element"])
    def test_public_descriptor_bytes(self, capsys, argv, text):
        code, out, _ = run_cli(["keygen", *argv, "--public"], capsys)
        assert (code, out) == (EXIT_OK, text)

    # the descriptor holds p and s only, so a public export draws no key
    def test_public_descriptor_draws_no_key(self, capsys, monkeypatch):
        def no_draw(*args, **kwargs):
            raise AssertionError("keygen --public drew a private key")

        monkeypatch.setattr(keys, "generate_private_key", no_draw)
        code, out, err = run_cli(
            ["keygen", "--r", "2", "--s", "3", "--seed", "1", "--public"], capsys)
        assert (code, out, err) == (
            EXIT_OK, '{\n  "p": 3,\n  "xs_redacted": true,\n  "elements": 3\n}\n', "")

    # a public export never prints the private phases: no flag asks it to
    @pytest.mark.parametrize("extra", [[], ["--public"]], ids=["private", "public"])
    def test_expose_phases_is_not_a_flag(self, capsys, extra):
        code, out, err = run_cli(
            ["keygen", "--r", "3", "--s", "4", "--seed", "11", *extra, "--expose-phases"],
            capsys,
        )
        assert (code, out) == (EXIT_CONFIG, "")
        assert "unrecognized arguments: --expose-phases" in err

    def test_missing_seed(self, capsys):
        code, _, _ = run_cli(["keygen", "--r", "3", "--s", "4"], capsys)
        assert code == EXIT_CONFIG

    def test_missing_r(self, capsys):
        code, _, _ = run_cli(["keygen", "--s", "4", "--seed", "1"], capsys)
        assert code == EXIT_CONFIG

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "key.json"
        code, out, _ = run_cli(
            ["keygen", "--r", "2", "--s", "2", "--seed", "7", "--out", str(path)],
            capsys,
        )
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(path.read_text())["p"] == 3


class TestRunHonest:
    def test_exact_accepts(self, capsys):
        code, out, _ = run_cli(["run-honest", "--r", "2", "--s", "3"], capsys)
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert len(lines) == 3 + 2
        head = json.loads(lines[0])
        assert head["mode"] == "exact"
        assert head["prover_tag"] == "honest"
        for line in lines[1:-1]:
            row = json.loads(line)
            assert row["response_bit"] is None
            assert row["pass_probability"] == pytest.approx(1.0, abs=1e-9)
        assert json.loads(lines[-1]) == {"verdict": "accept"}

    def test_sampled_needs_seed(self, capsys):
        code, _, err = run_cli(
            ["run-honest", "--r", "2", "--s", "3", "--mode", "sampled"], capsys
        )
        assert code == EXIT_CONFIG
        assert "seed" in err

    def test_sampled_accepts(self, capsys):
        code, out, _ = run_cli(
            ["run-honest", "--r", "2", "--s", "4", "--mode", "sampled",
             "--seed", "9", "--trials", "2"],
            capsys,
        )
        assert code == EXIT_OK
        lines = [json.loads(line) for line in out.strip().split("\n")]
        heads = [line for line in lines if "session_id" in line]
        assert [h["session_id"] for h in heads] == [0, 1]
        rows = [line for line in lines if "j" in line]
        assert all(row["response_bit"] in (0, 1) and row["pass"] for row in rows)

    REFUSAL = ("refusal at session 2: no protocol uses left under this key; "
               "refusing (not a reject)\n")

    def test_refusal_past_budget(self, capsys, tmp_path):
        path = tmp_path / "transcripts.jsonl"
        code, out, err = run_cli(
            ["run-honest", "--r", "2", "--s", "2", "--trials", "3",
             "--out", str(path)],
            capsys,
        )
        assert (code, out, err) == (EXIT_REFUSAL, "", self.REFUSAL)
        # the two budgeted sessions still ran and were written out
        lines = [json.loads(line) for line in path.read_text().strip().split("\n")]
        assert len(lines) == 2 * (2 + 2)
        assert [line["session_id"] for line in lines if "session_id" in line] == [0, 1]

    # a --trials far past r runs the r sessions the key serves, then refuses
    @pytest.mark.parametrize("mode", [[], ["--mode", "sampled", "--seed", "9"]],
                             ids=["exact", "sampled"])
    def test_refusal_past_budget_at_any_trial_count(self, capsys, mode):
        code, out, err = run_cli(
            ["run-honest", "--r", "2", "--s", "2", "--trials", str(10**30), *mode], capsys)
        assert (code, err) == (EXIT_REFUSAL, self.REFUSAL)
        lines = [json.loads(line) for line in out.strip().split("\n")]
        assert [line["session_id"] for line in lines if "session_id" in line] == [0, 1]
        assert [line["verdict"] for line in lines if "verdict" in line] == ["accept"] * 2

    def test_sessions_of_one_key_evaluate_each_phase_once(self, capsys, monkeypatch):
        real, evaluated = protocol._honest_rows, []

        def spy(*args):
            evaluated.append(args[-1].copy())
            return real(*args)

        monkeypatch.setattr(protocol, "_honest_rows", spy)
        code, out, _ = run_cli(["run-honest", "--r", "3", "--s", "60", "--trials", "3"],
                               capsys)
        assert code == EXIT_OK and out.count('"verdict": "accept"') == 3
        params = keys.ProtocolParams(3, 60)
        key = keys.generate_private_key(params, derive_seed(0, cli._KEY_STREAM))
        want = keys.phase_angles(np.unique(key.ks), params.p)
        assert np.concatenate(evaluated).tobytes() == want.tobytes()

    def test_trials_matching_budget_is_fine(self, capsys):
        code, _, _ = run_cli(
            ["run-honest", "--r", "3", "--s", "2", "--trials", "3"], capsys
        )
        assert code == EXIT_OK

    def test_sampled_rerun_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        argv = ["run-honest", "--r", "2", "--s", "5", "--mode", "sampled",
                "--seed", "31", "--trials", "2"]
        assert run_cli(argv + ["--out", str(a)], capsys)[0] == EXIT_OK
        assert run_cli(argv + ["--out", str(b)], capsys)[0] == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_zero_trials_rejected(self, capsys):
        code, _, _ = run_cli(
            ["run-honest", "--r", "2", "--s", "2", "--trials", "0"], capsys
        )
        assert code == EXIT_CONFIG


class TestVerdictExit:
    def test_reject_maps_to_two(self):
        class _T:
            def __init__(self, verdict):
                self.verdict = verdict

        assert _verdict_exit([_T("accept"), _T("reject")]) == EXIT_REJECT
        assert _verdict_exit([_T("accept"), _T("accept")]) == EXIT_OK


class TestInternalFailureExit:
    # An internal invariant failure exits 5, never 4 (bad input).
    @pytest.mark.parametrize("error", [StateValidationError, DimensionMismatchError,
                                       InvalidBasisError, NumericalError, InternalError])
    def test_invariant_failure_exits_numerical(self, capsys, monkeypatch, error):
        # one base, and never a ValueError, which reports bad input
        assert issubclass(error, InternalError) and not issubclass(error, ValueError)

        def broken(*args, **kwargs):
            raise error("stub invariant failure")

        monkeypatch.setattr(protocol, "run_session", broken)
        code, _, err = run_cli(["run-honest", "--r", "2", "--s", "3"], capsys)
        assert code == EXIT_NUMERICAL
        assert "numerical failure: stub invariant failure" in err

    def test_linalg_error_exits_numerical(self, capsys, monkeypatch):
        # numpy's LinAlgError is a ValueError, yet it is an internal
        # failure: it must never be reported as bad input (exit 4)
        assert issubclass(np.linalg.LinAlgError, ValueError)

        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("stub")

        monkeypatch.setattr(protocol, "run_session", broken)
        code, _, err = run_cli(["run-honest", "--r", "2", "--s", "3"], capsys)
        assert code == EXIT_NUMERICAL
        assert err == "phaseid: numerical failure: stub\n"

    def test_out_of_range_psucc_exits_numerical(self, capsys, monkeypatch):
        # psucc is computed, not given: a value outside [1/2, 1] is an
        # internal failure, never bad input. An overlap sum S = 2 makes
        # the sweep's psucc 1/2 + S/2 = 1.5, and its kept states are no
        # density operators, which the verifier's check reports.
        monkeypatch.setattr(adversary, "_overlap_sum", lambda t: 2.0)
        code, _, err = run_cli(["run-attack", "--t", "2"], capsys)
        assert code == EXIT_NUMERICAL
        assert err.startswith("phaseid: numerical failure: ")

    def test_imaginary_grid_average_exits_numerical(self, capsys, monkeypatch):
        # The oracle's grid average is real in exact arithmetic; a
        # 1e-9 imaginary part is an internal failure, never bad input.
        # Each grid's exact table of unit roots is closed under
        # conjugation, m -> g - m. Turning every root but each grid's 1
        # by a small phase breaks that and keeps every DensityOperator
        # check satisfied, so only the reality guard sees it.
        exact = adversary._unit_roots
        turn = 3e-8

        def skewed(grids):
            cos, sin = exact(grids)
            roots = np.stack([cos * np.cos(turn) - sin * np.sin(turn),
                              sin * np.cos(turn) + cos * np.sin(turn)])
            roots[:, np.cumsum(grids) - grids] = [[1.0], [0.0]]
            return roots

        monkeypatch.setattr(adversary, "_unit_roots", skewed)
        # at t = 1 both frame magnitudes are 1/sqrt 2: each product of two
        # amplitudes carries 1/2 from the frame and 1/2 from the qubit
        grid = adversary._pair_grid(1)
        # t = 1's grid comes first in the table of --t-max 2
        table = skewed([grid, adversary._pair_grid(2)])
        np.testing.assert_array_equal(table[:, :grid], skewed([grid]))
        cos, sin = table[:, np.multiply.outer(np.arange(1, grid + 1), [0, 1, 1, 2]) % grid]
        skew = sin.T @ cos
        assert 5e-10 < np.abs(skew - skew.T).max() / (4 * grid) < 2e-9
        with pytest.raises(NumericalError, match="imaginary part"):
            adversary.build_discrimination_pair(2)
        code, out, err = run_cli(["psucc-table", "--t-max", "2"], capsys)
        assert code == EXIT_NUMERICAL
        assert out == ""
        prefix = "phaseid: numerical failure: grid average at t=1 has imaginary part "
        assert err.startswith(prefix) and err.endswith("\n")
        assert 5e-10 < float(err[len(prefix):]) < 2e-9


class TestRunAttack:
    def test_default_sweep(self, capsys):
        code, out, _ = run_cli(["run-attack"], capsys)
        assert code == EXIT_OK
        rows = json.loads(out)["rows"]
        assert [row["t"] for row in rows] == list(range(1, 9))
        assert rows[0]["p_pass"] == pytest.approx(0.875, abs=1e-9)
        assert rows[0]["fool_prob_s"] == pytest.approx(0.9375, abs=1e-12)

    def test_single_t(self, capsys):
        code, out, _ = run_cli(["run-attack", "--t", "2"], capsys)
        assert code == EXIT_OK
        (row,) = json.loads(out)["rows"]
        assert row["p_pass"] == pytest.approx(0.9267766952966369, rel=1e-11)
        assert row["p_pass_from_psucc"] == pytest.approx(row["p_pass"], rel=1e-11)
        assert row["p_pass_bound"] == pytest.approx(1.0 - 1.0 / 24.0, rel=1e-11)

    def test_t_and_t_max_conflict(self, capsys):
        code, _, _ = run_cli(["run-attack", "--t", "2", "--t-max", "4"], capsys)
        assert code == EXIT_CONFIG

    def test_t_beyond_oracle_cap(self, capsys):
        code, out, _ = run_cli(["run-attack", "--t", "300"], capsys)
        assert code == EXIT_OK
        (row,) = json.loads(out)["rows"]
        assert row["p_pass"] == pytest.approx(row["p_pass_from_psucc"], abs=1e-9)
        assert row["p_pass"] < row["p_pass_bound"]

    def test_large_t_formula_row_respects_bound(self, capsys):
        # the printed closed form must agree with the exact attacked round
        # and stay under the paper's cap, to every printed digit
        code, out, _ = run_cli(["run-attack", "--t", "100000"], capsys)
        assert code == EXIT_OK
        (row,) = json.loads(out)["rows"]
        assert row["p_pass_from_psucc"] <= row["p_pass_bound"]
        assert row["p_pass_from_psucc"] == row["p_pass"]

    def test_exact_p_pass_prints_as_its_formula_value(self, capsys):
        # the kernel's p_pass and (1 + psucc)/2 are equal by the identity,
        # and print equal in every row; at t = 364 the true value
        # 0.99965682698350031785... rounds up to ...984
        code, out, _ = run_cli(["run-attack", "--t-max", "400"], capsys)
        assert code == EXIT_OK
        rows = json.loads(out)["rows"]
        assert len(rows) == 400
        assert [row["t"] for row in rows if row["p_pass"] != row["p_pass_from_psucc"]] == []
        _, out, _ = run_cli(["run-attack", "--t", "364"], capsys)
        assert '"p_pass": 0.999656826984,' in out

    @pytest.mark.parametrize("t", [10**10, 2**63 - 1])
    def test_huge_copy_count_answers(self, capsys, t):
        # S(t) above the oracle's cap is a series: no array of length t
        code, out, err = run_cli(["run-attack", "--t", str(t)], capsys)
        assert (code, err) == (EXIT_OK, "")
        (row,) = json.loads(out)["rows"]
        assert row["t"] == t
        assert 0.5 < row["p_pass"] <= 1.0

    def test_t_zero_rejected(self, capsys):
        code, _, _ = run_cli(["run-attack", "--t", "0"], capsys)
        assert code == EXIT_CONFIG

    def test_s_past_the_float_range(self, capsys):
        # bad input (exit 4), no traceback, and the message names the flag
        code, out, err = run_cli(["run-attack", "--t", "3", "--s", str(10**400)], capsys)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == ("phaseid: invalid config: --s must not exceed the float range "
                       "(1.798e+308)\n")

    @pytest.mark.parametrize("flag", ["--t", "--t-max"])
    @pytest.mark.parametrize("value", [sys.maxsize + 1, 10**400], ids=["maxsize+1", "10**400"])
    def test_copy_count_past_the_largest_array_length(self, capsys, flag, value):
        # refused before any array is made, with a message that names the flag
        code, out, err = run_cli(["run-attack", flag, str(value)], capsys)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == f"phaseid: invalid config: {flag} must be at most {sys.maxsize}\n"

    def test_bounds_keeps_its_float_range_message(self, capsys):
        code, out, err = run_cli(["bounds", "--r", "2", "--s", str(10**400)], capsys)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == ("phaseid: invalid config: c*r (c=8) and s must not exceed the float "
                       "range (1.798e+308)\n")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_t_max_40_reproduces_golden_bytes(self, capsys, tmp_path, fmt):
        # tests/data holds the output of the one-verifier-pass-per-t sweep
        # that the stacked sweep replaced; every byte must survive.
        path = tmp_path / f"attack.{fmt}"
        code, out, _ = run_cli(["run-attack", "--t-max", "40", "--s", "83", "--format", fmt,
                                "--out", str(path)], capsys)
        assert code == EXIT_OK and out == ""
        golden = Path(__file__).parent / "data" / f"run_attack_t40.{fmt}"
        assert path.read_bytes() == golden.read_bytes()

    def test_sweep_computes_each_overlap_sum_once(self, capsys, monkeypatch):
        # the strategies' psucc and the kept states read one S(t) per t,
        # and the golden bytes survive
        calls, exact = [], adversary._overlap_sum
        monkeypatch.setattr(adversary, "_overlap_sum", lambda t: calls.append(t) or exact(t))
        code, out, _ = run_cli(["run-attack", "--t-max", "40", "--s", "83"], capsys)
        assert code == EXIT_OK
        assert calls == list(range(1, 41))
        assert out == (Path(__file__).parent / "data" / "run_attack_t40.json").read_text()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_row_does_not_depend_on_the_sweep(self, capsys, fmt):
        # the first 8 rows of a 40-row sweep are the 8-row sweep, byte for byte
        _, short, _ = run_cli(["run-attack", "--t-max", "8", "--format", fmt], capsys)
        _, long, _ = run_cli(["run-attack", "--t-max", "40", "--format", fmt], capsys)
        if fmt == "csv":
            assert long.splitlines()[:9] == short.splitlines()
        else:
            # the text up to the 8th row's closing brace, then the 9th row
            assert long.startswith(short[:short.rindex("\n  ]")] + ",\n    {")
            assert json.loads(long)["rows"][:8] == json.loads(short)["rows"]

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            ["run-attack", "--t-max", "2", "--format", "csv"], capsys
        )
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "t,p_pass,p_pass_from_psucc,p_pass_bound,fool_prob_s"
        assert len(lines) == 3
        assert lines[2].split(",")[1] == "0.926776695"  # 9 significant digits

    def test_sampled_needs_seed(self, capsys):
        code, _, _ = run_cli(["run-attack", "--t", "1", "--mode", "sampled"], capsys)
        assert code == EXIT_CONFIG

    def test_sampled_columns(self, capsys):
        code, out, _ = run_cli(
            ["run-attack", "--t", "2", "--mode", "sampled", "--seed", "8",
             "--trials", "4000"],
            capsys,
        )
        assert code == EXIT_OK
        (row,) = json.loads(out)["rows"]
        assert row["trials"] == 4000
        assert 0.88 < row["empirical_pass_rate"] < 0.97

    def test_sampled_evaluates_each_attacked_row_once(self, capsys, monkeypatch):
        # the exact report and the sampled draws share one row per t, and
        # one verifier pass covers t = 1, 2, 3
        verified = []
        verify_kept_states = adversary.verify_kept_states

        def spy_verify(kept, angles):
            verified.append((kept.shape, angles.tolist()))
            return verify_kept_states(kept, angles)

        monkeypatch.setattr(adversary, "verify_kept_states", spy_verify)
        code, _, _ = run_cli(["run-attack", "--t-max", "3", "--mode", "sampled", "--seed", "5",
                              "--trials", "100"], capsys)
        assert code == EXIT_OK
        assert verified == [((3, 2, 2, 2), [0.0, 0.0, 0.0])]

    def test_sampled_rerun_identical(self, capsys):
        argv = ["run-attack", "--t", "1", "--mode", "sampled", "--seed", "8",
                "--trials", "2000"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second


    # --trials is checked in both modes, as --seed is, though exact mode draws nothing
    @pytest.mark.parametrize("trials,message", [
        (-5, "--trials must be >= 1, got -5"),
        (0, "--trials must be >= 1, got 0"),
        (sys.maxsize + 1, f"--trials must be at most {sys.maxsize}"),
    ])
    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_trials_outside_its_domain_exits_config(self, capsys, mode, trials, message):
        argv = ["run-attack", "--t", "1", "--mode", mode, "--seed", "1", "--trials", str(trials)]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"phaseid: invalid config: {message}\n"


class TestOutOfMemory:
    # A query that needs more memory than the host has is bad input, exit 4,
    # in one line that does not echo numpy's text. Nothing here allocates in
    # this process: the in-process cases raise a stub MemoryError, and the
    # child runs under an address-space limit set in the child only.
    MESSAGE = "phaseid: invalid config: this query needs more memory than the host has\n"
    HUGE = {
        "keygen": (["keygen", "--r", "2", "--s", str(10**12), "--seed", "1"],
                   keys, "generate_private_key"),
        "run-honest": (["run-honest", "--r", "2", "--s", str(10**12)],
                       keys, "generate_private_key"),
        "run-attack": (["run-attack", "--t", "1", "--mode", "sampled", "--seed", "1",
                        "--trials", str(10**12)], adversary, "sample_attack_rounds"),
    }

    @pytest.mark.parametrize("name", sorted(HUGE))
    def test_memory_error_exits_config(self, capsys, monkeypatch, name):
        argv, module, attr = self.HUGE[name]

        def broken(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                              "(1000000000000,) and data type int64")

        monkeypatch.setattr(module, attr, broken)
        assert run_cli(argv, capsys) == (EXIT_CONFIG, "", self.MESSAGE)

    @pytest.mark.skipif(resource is None, reason="needs POSIX resource limits")
    def test_child_under_an_address_space_limit_exits_config(self):
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        src = str(Path(phaseid.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "phaseid", *self.HUGE["run-honest"][0]],
            capture_output=True, text=True, timeout=120, preexec_fn=limit,
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_CONFIG, "", self.MESSAGE)


class TestPsuccTable:
    def test_first_row_values(self, capsys):
        code, out, _ = run_cli(["psucc-table", "--t-max", "3"], capsys)
        assert code == EXIT_OK
        rows = json.loads(out)["rows"]
        assert len(rows) == 3
        assert rows[0]["psucc_formula"] == pytest.approx(0.75, abs=1e-9)
        assert rows[0]["psucc_oracle"] == pytest.approx(0.75, abs=1e-9)
        assert rows[0]["cheung_bound"] == pytest.approx(0.875, abs=1e-12)
        assert rows[1]["psucc_formula"] == pytest.approx(0.853553, abs=5e-7)
        assert rows[1]["psucc_oracle"] == pytest.approx(0.853553, abs=5e-7)
        assert rows[1]["cheung_bound"] == pytest.approx(0.916667, abs=5e-7)

    def test_above_the_oracle_cap_is_refused_before_any_oracle(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(adversary, "helstrom_psucc_oracles", calls.append)
        monkeypatch.setattr(adversary, "_grid_average", lambda *args: calls.append(args))
        code, out, err = run_cli(["psucc-table", "--t-max", "257"], capsys)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == "phaseid: invalid config: --t-max must be at most 256\n"
        assert calls == []

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_t_max_64_reproduces_golden_bytes(self, capsys, tmp_path, fmt):
        # tests/data holds the output of the dense-eigensolver oracle that
        # the block-SVD oracle replaced; every byte must survive.
        path = tmp_path / f"table.{fmt}"
        code, out, _ = run_cli(["psucc-table", "--t-max", "64", "--format", fmt,
                                "--out", str(path)], capsys)
        assert code == EXIT_OK and out == ""
        golden = Path(__file__).parent / "data" / f"psucc_table_t64.{fmt}"
        assert path.read_bytes() == golden.read_bytes()

    def test_t_max_256_output_bytes(self, capsys):
        # sha256 of the stdout of the whole table, up to the oracle's cap,
        # recorded from the complex grid sum that the real Gram replaced
        code, out, _ = run_cli(["psucc-table", "--t-max", "256"], capsys)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "e45316a21e2ceb49e4f2915386d0966a32c42dc064e6e0896ec40ce74f825eb7")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_row_does_not_depend_on_the_table(self, capsys, fmt):
        # the first 8 rows of a 40-row table are the 8-row table, byte for
        # byte, though the 40 grids share one table of unit roots
        _, short, _ = run_cli(["psucc-table", "--t-max", "8", "--format", fmt], capsys)
        _, long, _ = run_cli(["psucc-table", "--t-max", "40", "--format", fmt], capsys)
        if fmt == "csv":
            assert long.splitlines()[:9] == short.splitlines()
        else:
            # the text up to the 8th row's closing brace, then the 9th row
            assert long.startswith(short[:short.rindex("\n  ]")] + ",\n    {")
            assert json.loads(long)["rows"][:8] == json.loads(short)["rows"]

    def test_table_makes_one_trig_pass_and_forms_rho_plus_alone(self, capsys, monkeypatch):
        # one phase_angles call, one cos and one sin make every grid's
        # unit roots; each t validates its rho+ alone, and no rho- is formed
        calls = {"phase_angles": 0, "cos": 0, "sin": 0, "pair": 0}
        checked = []

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return call

        check = adversary.check_density_operators
        monkeypatch.setattr(adversary, "phase_angles", counted("phase_angles", keys.phase_angles))
        monkeypatch.setattr(np, "cos", counted("cos", np.cos))
        monkeypatch.setattr(np, "sin", counted("sin", np.sin))
        monkeypatch.setattr(adversary, "build_discrimination_pair",
                            counted("pair", adversary.build_discrimination_pair))
        monkeypatch.setattr(adversary, "check_density_operators",
                            lambda stack: checked.append(np.shape(stack)) or check(stack))
        code, out, _ = run_cli(["psucc-table", "--t-max", "8"], capsys)
        assert code == EXIT_OK and len(json.loads(out)["rows"]) == 8
        assert calls == {"phase_angles": 1, "cos": 1, "sin": 1, "pair": 0}
        assert checked == [(2 * t + 2, 2 * t + 2) for t in range(1, 9)]

    def test_repeat_table_computes_no_magnitudes(self, capsys):
        # the memo covers every t up to the oracle's cap, so a repeat
        # call reads each t's frame magnitudes from it
        run_cli(["psucc-table", "--t-max", "32"], capsys)
        misses = adversary._frame_magnitudes.cache_info().misses
        code, _, _ = run_cli(["psucc-table", "--t-max", "32"], capsys)
        assert code == EXIT_OK
        assert adversary._frame_magnitudes.cache_info().misses == misses

    def test_default_depth(self, capsys):
        _, out, _ = run_cli(["psucc-table"], capsys)
        assert len(json.loads(out)["rows"]) == 8

    def test_formula_tracks_oracle(self, capsys):
        _, out, _ = run_cli(["psucc-table", "--t-max", "6"], capsys)
        for row in json.loads(out)["rows"]:
            assert row["psucc_formula"] == pytest.approx(row["psucc_oracle"],
                                                         abs=1e-9)
            assert row["psucc_formula"] <= row["cheung_bound"] + 1e-12


class TestBounds:
    def test_direct_bound(self, capsys):
        code, out, _ = run_cli(["bounds", "--r", "2", "--s", "83"], capsys)
        assert code == EXIT_OK
        (row,) = json.loads(out)["rows"]
        assert row["bound"] == pytest.approx(0.009432915343505939, rel=1e-11, abs=0.0)

    def test_advisor(self, capsys):
        code, out, _ = run_cli(["bounds", "--r", "2", "--epsilon", "0.01"], capsys)
        assert code == EXIT_OK
        (row,) = json.loads(out)["rows"]
        assert row["s_min"] == 83

    def test_hardened_advisor_larger(self, capsys):
        _, out_std, _ = run_cli(["bounds", "--r", "2", "--epsilon", "0.01"], capsys)
        _, out_hard, _ = run_cli(
            ["bounds", "--r", "2", "--epsilon", "0.01", "--variant", "hardened"],
            capsys,
        )
        s_std = json.loads(out_std)["rows"][0]["s_min"]
        s_hard = json.loads(out_hard)["rows"][0]["s_min"]
        assert s_hard > s_std

    def test_needs_exactly_one_mode(self, capsys):
        code, _, _ = run_cli(["bounds", "--r", "2"], capsys)
        assert code == EXIT_CONFIG
        code, _, _ = run_cli(
            ["bounds", "--r", "2", "--s", "10", "--epsilon", "0.5"], capsys
        )
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("epsilon", ["0", "-0.0", "-1", "-inf", "nan"])
    def test_invalid_epsilon(self, capsys, epsilon):
        code, out, err = run_cli(["bounds", "--r", "2", f"--epsilon={epsilon}"], capsys)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"phaseid: invalid config: epsilon must be positive, got {float(epsilon)}\n"

    # JSON has no infinity: an infinite epsilon is refused, not printed
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("epsilon", ["inf", "1e400"])
    def test_infinite_epsilon(self, capsys, epsilon, fmt):
        code, out, err = run_cli(
            ["bounds", "--r", "2", "--epsilon", epsilon, "--format", fmt], capsys)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == "phaseid: invalid config: --epsilon must be finite, got inf\n"

    @pytest.mark.parametrize("argv", [["--r", str(10**308), "--s", "5"],
                                      ["--r", str(10**400), "--s", "5", "--variant", "hardened"],
                                      ["--r", "2", "--s", str(10**400)]])
    def test_inputs_past_the_float_range(self, capsys, argv):
        # c*r or s too large for a float is bad input (exit 4), as in the advisor
        code, out, err = run_cli(["bounds", *argv], capsys)
        assert code == EXIT_CONFIG
        assert out == ""
        assert "float range" in err


class TestVerifyIdentities:
    def test_all_pass(self, capsys, tmp_path):
        path = tmp_path / "checks.json"
        code, out, _ = run_cli(["verify-identities", "--out", str(path)], capsys)
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert len(lines) == 5
        assert all(": pass (max deviation" in line for line in lines)
        payload = json.loads(path.read_text())
        assert len(payload["checks"]) == 5
        assert all(row["passed"] for row in payload["checks"])
        assert all(row["max_deviation"] < 1e-12 for row in payload["checks"])

    def test_failing_check_exits_numerical(self, capsys, monkeypatch):
        # exit-code plumbing for the failure path, driven by a stub check
        monkeypatch.setattr(
            identities, "_IDENTITY_CHECKS", (("stub-check", lambda: 1.0),)
        )
        code, out, _ = run_cli(["verify-identities"], capsys)
        assert code == 5
        assert "stub-check: FAIL" in out


class TestParsing:
    def test_unknown_flag_exits_config(self, capsys):
        code, _, _ = run_cli(["psucc-table", "--bogus"], capsys)
        assert code == EXIT_CONFIG

    def test_unknown_command_exits_config(self, capsys):
        code, _, _ = run_cli(["frobnicate"], capsys)
        assert code == EXIT_CONFIG

    # --variant and --seed exist only where the command reads them
    @pytest.mark.parametrize("argv", [
        ["run-attack", "--t", "1", "--variant", "hardened"],
        ["psucc-table", "--t-max", "1", "--variant", "hardened"],
        ["psucc-table", "--t-max", "1", "--seed", "3"],
        ["bounds", "--r", "2", "--s", "83", "--seed", "3"],
        ["verify-identities", "--variant", "hardened"],
        ["verify-identities", "--seed", "3"],
    ], ids=lambda argv: f"{argv[0]} {argv[-2]}")
    def test_flag_the_command_does_not_read_exits_config(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_CONFIG
        assert out == ""
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in err

    # the declaration side of the same rule: every option a subcommand
    # declares is read as args.<dest> by its command, or by a function of
    # cli.py that the command passes ``args``
    def test_every_declared_flag_is_read(self):
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

        def reads(name, seen):
            if name in seen:
                return set()
            seen.add(name)
            found = set()
            for node in ast.walk(functions[name]):
                if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id == "args"):
                    found.add(node.attr)
                elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id in functions
                        and any(isinstance(arg, ast.Name) and arg.id == "args"
                                for arg in node.args)):
                    found |= reads(node.func.id, seen)
            return found

        sub = next(action for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        unread = {}
        for command, parser in sub.choices.items():
            declared = {action.dest for action in parser._actions
                        if action.option_strings and action.dest != "help"}
            missing = declared - reads(parser.get_default("func").__name__, set())
            if missing:
                unread[command] = sorted(missing)
        assert sub.choices and unread == {}

    # one seed domain, 0..2^64 - 1, on every command that reads --seed: no
    # seed is reduced modulo 2^64 onto another (0 and 2^64, -1 and 2^64 - 1)
    @pytest.mark.parametrize("seed,message", [
        (-1, "--seed must be >= 0, got -1"),
        (2**64, "--seed must be at most 18446744073709551615"),
    ], ids=["-1", "2**64"])
    @pytest.mark.parametrize("argv", [
        ["keygen", "--r", "2", "--s", "3"],
        ["run-honest", "--r", "2", "--s", "3"],
        ["run-honest", "--r", "2", "--s", "3", "--mode", "sampled"],
        ["run-attack", "--t", "1"],
        ["run-attack", "--t", "1", "--mode", "sampled"],
    ], ids=" ".join)
    def test_seed_outside_64_bits_exits_config(self, capsys, argv, seed, message):
        code, out, err = run_cli(argv + ["--seed", str(seed)], capsys)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"phaseid: invalid config: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["keygen", "--r", "2", "--s", "3"],
        ["run-honest", "--r", "2", "--s", "3", "--mode", "sampled"],
        ["run-attack", "--t", "1", "--mode", "sampled", "--trials", "10"],
    ], ids=" ".join)
    def test_largest_seed_is_a_seed(self, capsys, argv):
        runs = [run_cli(argv + ["--seed", str(seed)], capsys) for seed in (0, 2**64 - 1)]
        assert [code for code, _, _ in runs] == [EXIT_OK, EXIT_OK]
        assert runs[0][1] != runs[1][1]

    # r is largest where p, r + 1 or 2r + 1, is the largest int64: the key
    # numerators' type. One more is refused naming r, not with numpy's text.
    @pytest.mark.parametrize("variant,r", [("standard", 2**63 - 2), ("hardened", 2**62 - 1)])
    @pytest.mark.parametrize("command", ["keygen", "run-honest"])
    def test_largest_r_fits_the_key_numerators(self, capsys, command, variant, r):
        argv = [command, "--s", "3", "--seed", "1", "--variant", variant, "--r"]
        code, out, err = run_cli(argv + [str(r)], capsys)
        assert (code, err) == (EXIT_OK, "")
        assert f'"p": {2**63 - 1}' in out
        code, out, err = run_cli(argv + [str(r + 1)], capsys)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"phaseid: invalid config: r must be at most {r}\n"

    # a size past sys.maxsize, the largest array length, is refused naming
    # its flag before numpy is asked for the array
    @pytest.mark.parametrize("value", [sys.maxsize + 1, 10**400], ids=["maxsize+1", "10**400"])
    @pytest.mark.parametrize("argv,flag", [
        (["keygen", "--r", "2", "--seed", "1", "--s"], "--s"),
        (["run-honest", "--r", "2", "--s"], "--s"),
        (["run-attack", "--t", "1", "--mode", "sampled", "--seed", "1", "--trials"], "--trials"),
    ], ids=lambda x: x if isinstance(x, str) else x[0])
    def test_size_past_the_largest_array_length_exits_config(self, capsys, argv, flag, value):
        code, out, err = run_cli(argv + [str(value)], capsys)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"phaseid: invalid config: {flag} must be at most {sys.maxsize}\n"

    # an --out that cannot be opened is bad input, on every subcommand
    @pytest.mark.parametrize("where", ["missing-dir", "directory"])
    @pytest.mark.parametrize("argv", [
        ["keygen", "--r", "2", "--s", "3", "--seed", "1"],
        ["run-honest", "--r", "2", "--s", "3"],
        ["run-attack", "--t", "1"],
        ["psucc-table", "--t-max", "1"],
        ["bounds", "--r", "2", "--s", "83"],
        ["verify-identities"],
    ], ids=lambda argv: argv[0])
    def test_unwritable_out_exits_config(self, capsys, tmp_path, argv, where):
        out = tmp_path / "absent" / "x.json" if where == "missing-dir" else tmp_path
        code, _, err = run_cli(argv + ["--out", str(out)], capsys)
        assert code == EXIT_CONFIG
        assert "invalid config: cannot open --out for writing: " in err
        assert str(out) in err

    # an empty path, a directory or a missing parent is refused before any work
    @pytest.mark.parametrize("where", ["missing-dir", "directory", "empty"])
    @pytest.mark.parametrize("argv", [
        ["psucc-table", "--t-max", "120"],
        ["run-honest", "--r", "2", "--s", "1000000"],
        ["verify-identities"],
    ], ids=lambda argv: argv[0])
    def test_bad_out_is_refused_before_any_work(self, capsys, monkeypatch, tmp_path, argv,
                                                where):
        calls = []
        monkeypatch.setattr(adversary, "helstrom_psucc_oracles", calls.append)
        monkeypatch.setattr(adversary, "_grid_average", lambda *args: calls.append(args))
        monkeypatch.setattr(protocol, "run_session", lambda *args, **kw: calls.append(args))
        monkeypatch.setattr(identities, "_IDENTITY_CHECKS", (("stub", lambda: calls.append(0)),))
        out = {"missing-dir": tmp_path / "absent" / "x.json", "directory": tmp_path,
               "empty": ""}[where]
        code, text, err = run_cli(argv + ["--out", str(out)], capsys)
        assert (code, text, calls) == (EXIT_CONFIG, "", [])
        assert "invalid config: cannot open --out for writing: [Errno " in err
        assert list(tmp_path.iterdir()) == []

    def test_other_open_failures_are_reported_when_written(self, capsys, tmp_path):
        # the parent exists, so only open() finds the name too long
        out = tmp_path / ("x" * 300)
        code, text, err = run_cli(["bounds", "--r", "2", "--s", "83", "--out", str(out)], capsys)
        assert (code, text) == (EXIT_CONFIG, "")
        assert "invalid config: cannot open --out for writing: [Errno " in err
        assert list(tmp_path.iterdir()) == []

    def test_module_entry_point(self):
        # the child imports the same phaseid as this process, installed or not
        src = str(Path(phaseid.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "phaseid", "psucc-table", "--t-max", "2"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0
        rows = json.loads(proc.stdout)["rows"]
        assert rows[0]["t"] == 1


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the help goldens were rendered by Python 3.11, and argparse's "
                           "layout differs between minor versions")
class TestHelpText:
    # tests/data/help/<command>.txt holds the text of ``phaseid <command>
    # --help`` (phaseid.txt that of ``phaseid --help``); a change that moves
    # one replaces the file and names the change in CHANGES.md.
    @pytest.mark.parametrize("command", ["phaseid", "keygen", "run-honest", "run-attack",
                                         "psucc-table", "bounds", "verify-identities"])
    def test_help_reproduces_golden_text(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run_cli(([] if command == "phaseid" else [command]) + ["--help"], capsys)
        assert code == EXIT_OK
        assert err == ""
        golden = Path(__file__).parent / "data" / "help" / f"{command}.txt"
        assert out == golden.read_text(encoding="utf-8")


# Every JSON scalar the CLI can meet, and the edges of their layout:
# NaN, the infinities, -0.0, subnormals, 1e16 (repr switches to an
# exponent), floats that ``_sig`` rounds, ints beyond int64, and strings
# with quotes, escapes and non-ASCII characters.
JSON_SCALARS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 5e-324, 2.2e-308, 1e16, 1e-5, 0.1 + 0.2, 1 / 3, 123456789.1234567]),
    st.integers(min_value=-2**70, max_value=2**70),
    st.booleans(),
    st.none(),
    st.text(),
    st.sampled_from(['"quoted"', "back\\slash", "tab\tnew\nline", "ünïcødé ∞", "\U0001f600"]),
)
JSON_ROWS = st.lists(st.dictionaries(st.text(), JSON_SCALARS, max_size=5), max_size=4)
KEYGEN_PAYLOADS = st.one_of(
    st.fixed_dictionaries({
        "r": st.integers(1, 10**6), "s": st.integers(1, 10**6),
        "variant": st.sampled_from(["standard", "hardened"]),
        "seed": st.integers(-2**70, 2**70), "xs": st.lists(st.integers(1, 10**6)),
        "p": st.integers(2, 10**6)}),
    st.fixed_dictionaries(
        {"p": st.integers(2, 10**6), "xs_redacted": st.booleans(),
         "elements": st.integers(1, 10**6)},
        optional={"xs": st.lists(st.integers(1, 10**6))}),
)


def _stdlib_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


class TestJsonWriter:
    """The CLI's JSON writer lays out the bytes of ``json.dumps(obj, indent=2) + "\\n"``."""

    @given(JSON_ROWS)
    @example([])
    @example([{}])
    @settings(max_examples=300, deadline=None)
    def test_rows(self, rows):
        assert cli._json_document({"rows": rows}) == _stdlib_json({"rows": rows})
        shaped = [{k: cli._sig(v, cli.JSON_SIG_DIGITS) for k, v in row.items()} for row in rows]
        assert cli._rows_as_json(rows) == _stdlib_json({"rows": shaped})

    @given(KEYGEN_PAYLOADS)
    @example({"r": 1, "s": 1, "variant": "standard", "seed": 0, "xs": [], "p": 2})
    @example({"p": 2, "xs_redacted": False, "elements": 1, "xs": []})
    @settings(max_examples=200, deadline=None)
    def test_keygen_payloads(self, payload):
        assert cli._json_document(payload) == _stdlib_json(payload)

    @given(st.recursive(JSON_SCALARS, lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(), inner, max_size=3)),
        max_leaves=12))
    @example([1, True, 0, False, 2**64])            # bools are ints, but not written as ints
    @settings(max_examples=200, deadline=None)
    def test_nested_documents(self, value):
        assert cli._json_document({"value": value}) == _stdlib_json({"value": value})

    def test_commands_write_through_it(self, capsys, monkeypatch, tmp_path):
        written = []
        writer = cli._json_document
        monkeypatch.setattr(cli, "_json_document", lambda obj: written.append(obj) or writer(obj))
        # the stdlib's pure-Python (indenting) encoder is never reached
        monkeypatch.setattr(json.encoder, "_make_iterencode", None)
        for argv in (["keygen", "--r", "2", "--s", "4", "--seed", "1"],
                     ["bounds", "--r", "2", "--s", "83"],
                     ["verify-identities", "--out", str(tmp_path / "checks.json")]):
            assert run_cli(argv, capsys)[0] == EXIT_OK
        assert [next(iter(obj)) for obj in written] == ["r", "rows", "checks"]


# sha256 of the --out bytes, recorded before sessions were built per
# distinct key phase, and again before a session was carried as its
# distinct rows and one row index per round: neither change may move a
# byte. The hardened r = 1000 keys have about 2000 distinct phases, over
# many chunks.
SESSION_OUTPUT_PINS = [
    (["run-honest", "--r", "2", "--s", "100000", "--seed", "3"],
     "ec30afe5e6caf1a133e5518f17771e7b97cb1b456a869f2925c2f46d113297a9"),
    (["run-honest", "--r", "100", "--s", "20000", "--seed", "5", "--mode", "sampled",
      "--trials", "2"],
     "6f5a2b53408a354b1dbb25dc2db8c58e5efbbbb25bcc6d8dc23f8f579a6d29f3"),
    (["run-honest", "--r", "2", "--s", "100000"],
     "ec30afe5e6caf1a133e5518f17771e7b97cb1b456a869f2925c2f46d113297a9"),
    (["run-honest", "--r", "2", "--s", "100000", "--mode", "sampled", "--seed", "5"],
     "4fca218496fdf647e468f3f256ec106af1006370be75ed79c79c49e7d66ac762"),
    (["run-honest", "--r", "1000", "--s", "30000", "--variant", "hardened", "--seed", "9"],
     "c518df6eacd70bcc590e27269d8c931fc007bdf9b2d00a1efd0ffd9d80c8ab58"),
    (["run-honest", "--r", "1000", "--s", "30000", "--variant", "hardened", "--seed", "9",
      "--mode", "sampled", "--trials", "2"],
     "0b679a9ed76913b67898933187074e9d7a09fc25e338bb5ff8f6e7dab7868c26"),
    # p > s, where the numerators are sorted, and p = s, where they are counted
    (["run-honest", "--r", "5000", "--s", "300", "--seed", "4"],
     "a5721de5a146712dc8b48c55d2d689ee0116444d83bf477aecb4c76933b2bb09"),
    (["run-honest", "--r", "5000", "--s", "300", "--seed", "8", "--mode", "sampled",
      "--variant", "hardened"],
     "48d8dcf862800a2c0b8043307983f874c556f0dccb61bdfe18fdb55a415942d0"),
    (["run-honest", "--r", "299", "--s", "300", "--seed", "6", "--trials", "2"],
     "726dc4a4c09ce2df3f74b9641f23f2587aadf514bd20f644524d6506d96b80f9"),
    (["run-honest", "--r", "299", "--s", "300", "--seed", "8", "--mode", "sampled"],
     "b466dee72ccb51afe6a7de669ae8b2928d587fd8c5229fbf39f1e76af95b293e"),
]

# sha256 of "<exit code>\0<stdout>\0<stderr>" of a run refused past r
REFUSAL_PIN = (["run-honest", "--r", "2", "--s", "600", "--seed", "5", "--trials", "3"],
               "264af947d390849bcc7a5c366ef4604924d1ba91ad605c06dd78dd35957d020d")


class TestOutputBytes:
    @pytest.mark.parametrize("argv,digest", SESSION_OUTPUT_PINS)
    def test_session_output_bytes(self, capsys, tmp_path, argv, digest):
        out = tmp_path / "session.out"
        code, _, _ = run_cli(argv + ["--out", str(out)], capsys)
        assert code == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_refusal_output_bytes(self, capsys):
        argv, digest = REFUSAL_PIN
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_REFUSAL
        assert hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest() == digest


class TestParserReuse:
    SEQUENCE = (
        ["keygen", "--r", "3", "--s", "5", "--seed", "11", "--public"],
        ["keygen", "--r", "3", "--s", "5", "--seed", "11"],
        ["run-honest", "--r", "2", "--s", "30", "--seed", "5", "--mode", "sampled"],
        ["run-honest", "--r", "2", "--s", "30", "--seed", "5"],
        ["run-honest", "--r", "2", "--s", "30"],
        ["run-honest", "--r", "2", "--s", "30", "--variant", "hardened", "--trials", "2"],
        ["run-honest", "--r", "2", "--s", "30"],
        ["bounds", "--r", "2", "--s", "83", "--format", "csv"],
        ["bounds", "--r", "2", "--epsilon", "0.01"],
        ["run-attack", "--t", "3", "--s", "83"],
        ["run-attack", "--t-max", "2", "--mode", "sampled", "--seed", "4", "--trials", "50"],
        ["run-attack", "--t-max", "2"],
    )

    def _outputs(self, capsys, tmp_path):
        tmp_path.mkdir()
        results = []
        for i, argv in enumerate(self.SEQUENCE):
            out = tmp_path / f"{i}.out"
            code, stdout, _ = run_cli(argv + ["--out", str(out)], capsys)
            results.append((code, stdout, out.read_bytes()))
        return results

    def test_shared_parser_gives_fresh_parser_bytes(self, capsys, tmp_path, monkeypatch):
        shared = self._outputs(capsys, tmp_path / "shared")
        with monkeypatch.context() as m:
            m.setattr(cli, "_shared_parser", cli.build_parser)
            fresh = self._outputs(capsys, tmp_path / "fresh")
        assert shared == fresh

    def test_no_flag_value_leaks_between_calls(self):
        parser = cli._shared_parser()
        assert cli._shared_parser() is parser
        parser.parse_args(["run-honest", "--r", "2", "--s", "4", "--seed", "5",
                           "--mode", "sampled", "--trials", "3", "--out", "x"])
        args = parser.parse_args(["run-honest", "--r", "2", "--s", "4"])
        assert (args.seed, args.mode, args.trials, args.out, args.variant) == \
            (None, "exact", 1, None, "standard")
        parser.parse_args(["keygen", "--r", "2", "--s", "4", "--seed", "1", "--public"])
        assert parser.parse_args(["keygen", "--r", "2", "--s", "4"]).public is False
        assert vars(parser.parse_args(["bounds", "--r", "2", "--s", "4"])) == \
            vars(cli.build_parser().parse_args(["bounds", "--r", "2", "--s", "4"]))
