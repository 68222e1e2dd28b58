"""verify-identities on stacks, against the scalar kernel as an independent oracle.

Each stacked check is recomputed case by case the scalar way: one
``PureState`` and ``overlap`` per phase, one ``alice_respond`` per phase,
one ``phase_average_exponential`` call per exponent, and the averaged
key operator from tensor products of single-qubit states.
"""

import math

import numpy as np
import pytest
from test_keys import _averaged_oracle

from phaseid import identities, keys, protocol, qsim
from phaseid.cli import EXIT_NUMERICAL, EXIT_OK, main
from phaseid.errors import NumericalError

PHASES = [(p, k) for p in range(2, 8) for k in range(1, p + 1)]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _old_scalar_phase_average(a: int, p: int) -> float:
    """The scalar expression ``phase_average_exponential`` has always evaluated."""
    ks = np.arange(1, p + 1)
    return complex(np.mean(np.exp(2j * np.pi * a * ks / p))).real


class TestScalarOracle:
    def test_angles_are_the_phase_fractions(self):
        want = [keys.PhaseFraction(k, p).angle() for p, k in PHASES]
        assert identities._phase_angles().tolist() == want

    def test_challenge_overlaps(self):
        bell = protocol.bob_prepare_challenge().joint_state
        want = []
        for p, k in PHASES:
            plus, minus = protocol.phase_basis(keys.PhaseFraction(k, p).angle())
            vec = (np.kron(plus, plus) - np.kron(minus, minus)) / math.sqrt(2.0)
            want.append(qsim.overlap(bell, qsim.PureState((2, 2), vec)))
        np.testing.assert_allclose(identities._challenge_overlaps(), want, rtol=0, atol=1e-15)

    def test_response_probabilities(self):
        challenge = protocol.bob_prepare_challenge()
        want = [[branch.probability
                 for branch in protocol.alice_respond(challenge, keys.PhaseFraction(k, p))]
                for p, k in PHASES]
        np.testing.assert_allclose(identities._response_probabilities(), want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("p", range(1, 10))
    def test_phase_averages_bitwise(self, p):
        a = np.arange(-12, 13)
        got = keys.phase_average_exponential(a, p)
        assert isinstance(got, np.ndarray) and got.shape == a.shape
        for ai, value in zip(a.tolist(), got.tolist()):
            scalar = keys.phase_average_exponential(ai, p)
            assert type(scalar) is float
            old = _old_scalar_phase_average(ai, p)
            assert np.float64(value).tobytes() == np.float64(scalar).tobytes()
            assert np.float64(scalar).tobytes() == np.float64(old).tobytes()

    def test_phase_average_keeps_the_array_shape(self):
        a = np.arange(-6, 6).reshape(3, 4)
        got = keys.phase_average_exponential(a, 4)
        np.testing.assert_allclose(got, (a % 4 == 0).astype(float), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_averaged_operators(self, n):
        for p in (n, n + 1, n + 2, 2 * n + 3):
            if p < 2:
                continue
            got = keys.averaged_key_operator_discrete(p, n).matrix
            np.testing.assert_allclose(got, _averaged_oracle(p, n), rtol=0, atol=1e-15)

    def test_averaged_operator_in_chunks(self, monkeypatch):
        # Small chunks give the operator of one chunk.
        want = keys.averaged_key_operator_discrete(11, 3).matrix
        monkeypatch.setattr(keys, "_AVERAGE_CHUNK", 24)
        got = keys.averaged_key_operator_discrete(11, 3).matrix
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_symmetric_mixture(self, n):
        # each weight state built by counting the ones of every bitstring
        weights = np.array([bin(i).count("1") for i in range(2**n)])
        states = [qsim.PureState((2,) * n, (weights == w) / math.sqrt(math.comb(n, w)))
                  for w in range(n + 1)]
        want = sum(math.comb(n, w) / 2**n * qsim.DensityOperator.from_pure(state).matrix
                   for w, state in enumerate(states))
        np.testing.assert_allclose(keys.symmetric_mixture(n).matrix, want, rtol=0, atol=1e-15)


class TestPhaseAverageGuard:
    @staticmethod
    def _skew(monkeypatch, at: int):
        exact = keys._phase_means

        monkeypatch.setattr(
            keys, "_phase_means",
            lambda a, p: exact(a, p) + np.where(np.asarray(a) == at, 1e-9j, 0.0))

    def test_names_the_first_failing_exponent(self, monkeypatch):
        self._skew(monkeypatch, at=-3)
        with pytest.raises(NumericalError, match="a=-3, p=5 has imaginary part"):
            keys.phase_average_exponential(np.arange(-12, 13), 5)
        with pytest.raises(NumericalError, match="imaginary part"):
            keys.phase_average_exponential(-3, 5)
        assert keys.phase_average_exponential(4, 5) == pytest.approx(0.0, abs=1e-12)


class TestAveragedOperatorGuard:
    @staticmethod
    def _skew(monkeypatch):
        exact = keys._product_state_average

        def skewed(p, n):
            average = exact(p, n)
            average[0, -1] += 1e-9j
            average[-1, 0] -= 1e-9j
            return average

        monkeypatch.setattr(keys, "_product_state_average", skewed)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_keeps_the_real_part(self, n):
        for p in (n + 1, 2 * n + 3):
            rho = keys.averaged_key_operator_discrete(p, n)
            average = keys._product_state_average(p, n)
            assert np.abs(average.imag).max() <= 1e-15
            assert rho.matrix.dtype == np.float64
            assert np.array_equal(rho.matrix, average.real)

    def test_imaginary_part_is_a_numerical_failure(self, monkeypatch):
        self._skew(monkeypatch)
        with pytest.raises(NumericalError, match="phase average at p=3, n=2 has imaginary part"):
            keys.averaged_key_operator_discrete(3, 2)

    def test_imaginary_average_exits_numerical(self, capsys, monkeypatch):
        self._skew(monkeypatch)
        code, out, err = run_cli(["verify-identities"], capsys)
        assert code == EXIT_NUMERICAL  # an internal failure, never bad input (4)
        assert out.splitlines()[-1].startswith("phase-average-vanishing: pass")
        assert out.count("\n") == 2
        assert "numerical failure: phase average at p=2, n=1 has imaginary part" in err


class TestVerifyIdentitiesOnStacks:
    def test_builds_only_the_session_challenges(self, capsys, monkeypatch):
        counts = {"PureState": 0, "alice_respond": 0}
        post_init = qsim.PureState.__post_init__
        respond = protocol.alice_respond

        def counted_post_init(self):
            counts["PureState"] += 1
            post_init(self)

        def counted_respond(*args, **kwargs):
            counts["alice_respond"] += 1
            return respond(*args, **kwargs)

        monkeypatch.setattr(qsim.PureState, "__post_init__", counted_post_init)
        monkeypatch.setattr(protocol, "alice_respond", counted_respond)
        code, _, _ = run_cli(["verify-identities"], capsys)
        assert code == EXIT_OK
        assert counts["alice_respond"] == 0
        # The challenge is one value built at import; the checks build no state object.
        assert counts["PureState"] == 0

    def test_unnormalised_phase_bases_exit_numerical(self, capsys, monkeypatch):
        exact = keys.phase_bases
        monkeypatch.setattr(keys, "phase_bases", lambda angles: exact(angles) * (1 + 1e-9))
        code, _, err = run_cli(["verify-identities"], capsys)
        assert code == EXIT_NUMERICAL  # an internal failure, never bad input (4)
        assert "numerical failure" in err

    def test_imaginary_phase_average_exits_numerical(self, capsys, monkeypatch):
        TestPhaseAverageGuard._skew(monkeypatch, at=7)
        code, out, err = run_cli(["verify-identities"], capsys)
        assert code == EXIT_NUMERICAL  # an internal failure, never bad input (4)
        assert out.startswith("challenge-decomposition: pass") and out.count("\n") == 1
        assert "numerical failure: phase average at a=7, p=2 has imaginary part" in err
