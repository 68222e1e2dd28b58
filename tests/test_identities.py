"""verify-identities on stacks, against the scalar kernel as an independent oracle.

Each stacked check is recomputed case by case the scalar way: one
``PureState`` and ``overlap`` per phase, one ``alice_respond`` per phase,
one one-modulus ``_phase_average_rows`` call per exponent, and the averaged
key operator from tensor products of single-qubit states.
"""

import itertools
import math

import numpy as np
import pytest
from conftest import overlap
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
    """The scalar expression of one exponent's phase average, as it has always been."""
    ks = np.arange(1, p + 1)
    return complex(np.mean(np.exp(2j * np.pi * a * ks / p))).real


def _old_phase_averages(a, p: int) -> np.ndarray:
    """The array expression of the phase averages, one modulus per call."""
    ks = np.arange(1, p + 1)
    return np.mean(np.exp(2j * np.pi * np.asarray(a)[..., None] * ks / p), axis=-1).real


class TestScalarOracle:
    def test_angles_are_the_phase_fractions(self):
        want = [keys.PhaseFraction(k, p).angle() for p, k in PHASES]
        assert identities._phase_angles().tolist() == want

    def test_challenge_overlaps(self):
        bell = protocol.bob_prepare_challenge()
        want = []
        for p, k in PHASES:
            plus, minus = keys.phase_bases(keys.PhaseFraction(k, p).angle())
            vec = (np.kron(plus, plus) - np.kron(minus, minus)) / math.sqrt(2.0)
            want.append(overlap(bell, qsim.PureState((2, 2), vec)))
        np.testing.assert_allclose(identities._challenge_overlaps(), want, rtol=0, atol=1e-15)

    def test_response_probabilities(self):
        challenge = protocol.bob_prepare_challenge()
        want = [[branch.probability
                 for branch in protocol.alice_respond(challenge, keys.PhaseFraction(k, p))]
                for p, k in PHASES]
        got = identities._phase_table().probability
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("p", range(1, 10))
    def test_phase_averages_bitwise(self, p):
        a = np.arange(-12, 13)
        got = keys._phase_average_rows(a, (p,))[0]
        assert isinstance(got, np.ndarray) and got.shape == a.shape
        for ai, value in zip(a.tolist(), got.tolist()):
            scalar = keys._phase_average_rows(np.asarray(ai), (p,))[0]
            old = _old_scalar_phase_average(ai, p)
            assert np.float64(value).tobytes() == np.float64(scalar).tobytes()
            assert np.float64(scalar).tobytes() == np.float64(old).tobytes()

    def test_phase_average_keeps_the_array_shape(self):
        a = np.arange(-6, 6).reshape(3, 4)
        got = keys._phase_average_rows(a, (4,))[0]
        np.testing.assert_allclose(got, (a % 4 == 0).astype(float), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_averaged_operators(self, n):
        for p in (n, n + 1, n + 2, 2 * n + 3):
            if p < 2:
                continue
            got = keys.averaged_key_operator_discrete(p, n).matrix
            np.testing.assert_allclose(got, _averaged_oracle(p, n), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_stacked_averages_are_the_one_modulus_averages(self, n):
        # bit for bit, each modulus's row of the stack
        ps = [p for p in (n, n + 1, n + 2, 2 * n + 3) if p >= 2]
        stacked = keys.averaged_key_operators(ps, n)
        assert stacked.shape == (len(ps), 2**n, 2**n) and stacked.dtype == np.float64
        for p, got in zip(ps, stacked):
            assert np.array_equal(got, keys.averaged_key_operator_discrete(p, n).matrix)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_weight_states_are_the_combinations(self, n):
        # row w: the bitstrings itertools.combinations lists with w ones
        want = np.zeros((n + 1, 2**n), dtype=np.complex128)
        for w in range(n + 1):
            index = [sum(1 << (n - 1 - pos) for pos in ones)
                     for ones in itertools.combinations(range(n), w)]
            want[w, index] = 1.0 / math.sqrt(math.comb(n, w))
        got = keys._weight_states(n)
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_symmetric_mixture(self, n):
        # each weight state built by counting the ones of every bitstring
        weights = np.array([bin(i).count("1") for i in range(2**n)])
        states = [qsim.PureState((2,) * n, (weights == w) / math.sqrt(math.comb(n, w)))
                  for w in range(n + 1)]
        want = sum(math.comb(n, w) / 2**n * qsim.DensityOperator.from_pure(state).matrix
                   for w, state in enumerate(states))
        np.testing.assert_allclose(keys.symmetric_mixture(n).matrix, want, rtol=0, atol=1e-15)


def _session_certainty() -> float:
    """Honest-round certainty as one exact ``run_session`` per (variant, r)."""
    worst = 0.0
    for variant, r_top in (("standard", 5), ("hardened", 3)):
        for r in range(1, r_top + 1):
            p = keys.ProtocolParams(r, 1, variant).p
            params = keys.ProtocolParams(r, p, variant)
            key = keys.PrivateKey.from_ks(np.arange(1, p + 1), p)
            tr = protocol.run_session(params, key, "honest", mode="exact")
            worst = max(worst, float(np.max(np.abs(1.0 - tr.row_pass_probability[tr.row]))))
    return worst


def _operator_by_operator_averaging() -> float:
    """Averaging equivalence from one public operator per (n, p)."""
    worst = 0.0
    for n in range(1, 7):
        target = keys.symmetric_mixture(n).matrix
        for p in (n + 1, n + 2, 2 * n + 3):
            got = keys.averaged_key_operator_discrete(p, n).matrix
            worst = max(worst, float(np.max(np.abs(got - target))))
    return worst


class TestOldLoopsAsOracles:
    def test_certainty_is_the_session_loop(self):
        got = identities._check_honest_round_certainty()
        assert np.float64(got).tobytes() == np.float64(_session_certainty()).tobytes()

    def test_averaging_is_the_operator_loop(self):
        got = identities._check_averaging_equivalence()
        assert np.float64(got).tobytes() == np.float64(_operator_by_operator_averaging()).tobytes()


class TestOneTrigonometryPass:
    """The one-pass forms give the values of the forms they replace, bit for bit."""

    def test_phase_average_rows_are_the_one_modulus_calls(self):
        a = np.arange(-12, 13)
        want = np.stack([keys._phase_average_rows(a, (p,))[0] for p in range(2, 10)])
        got = keys._phase_average_rows(a, range(2, 10))
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
        old = np.stack([_old_phase_averages(a, p) for p in range(2, 10)])
        assert got.tobytes() == old.tobytes()
        worst = float(np.max(np.abs(want - (a % np.arange(2, 10)[:, None] == 0))))
        assert np.float64(identities._check_phase_average()).tobytes() == \
            np.float64(worst).tobytes()

    @pytest.mark.parametrize("ps", [(1,), (4, 1, 9), tuple(range(1, 30)), (64, 3)])
    def test_phase_means_of_many_moduli_are_each_modulus_alone(self, ps):
        a = np.arange(-40, 41).reshape(9, 9)
        got = keys._phase_means(a, ps)
        assert got.shape == (len(ps),) + a.shape
        for p, row in zip(ps, got):
            assert row.tobytes() == keys._phase_means(a, (p,))[0].tobytes()


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
            keys._phase_average_rows(np.arange(-12, 13), (5,))
        with pytest.raises(NumericalError, match="imaginary part"):
            keys._phase_average_rows(np.asarray(-3), (5,))
        assert keys._phase_average_rows(np.asarray(4), (5,))[0] == pytest.approx(0.0, abs=1e-12)

    def test_rows_name_the_first_failing_modulus(self, monkeypatch):
        exact = keys._phase_means

        def skewed(a, ps):
            vals = exact(a, ps)
            vals[3:, 20] += 1e-9j                      # p = 5..9, at a = 8
            return vals

        monkeypatch.setattr(keys, "_phase_means", skewed)
        with pytest.raises(NumericalError, match="a=8, p=5 has imaginary part"):
            keys._phase_average_rows(np.arange(-12, 13), range(2, 10))

    def test_a_nan_average_is_refused(self):
        # e^{i inf} is NaN, whose imaginary part compares false with the tolerance
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericalError, match="a=inf, p=3 has imaginary part nan"):
                keys._phase_average_rows(np.asarray(np.inf), (3,))
            with pytest.raises(NumericalError, match="a=nan, p=2 has imaginary part nan"):
                keys._phase_average_rows(np.array([4.0, np.nan]), range(2, 5))


class TestAveragesAreThePhaseMeans:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_each_entry_is_the_mean_of_its_weight_difference(self, n):
        # one scalar call per difference d = w(x) - w(y) in -n..n, gathered per entry
        ps = (n + 1, 2 * n + 3, 4096)
        w = np.array([bin(i).count("1") for i in range(2**n)])
        diff = w[:, None] - w[None, :]
        stacked = keys.averaged_key_operators(ps, n)
        # laid out in order, as the density check's transpose reads it fastest
        assert stacked.flags.c_contiguous
        for p, got in zip(ps, stacked):
            means = np.array([2.0**-n * keys._phase_average_rows(np.asarray(d), (p,))[0]
                              for d in range(-n, n + 1)])
            assert got.dtype == np.float64 and got.tobytes() == means[diff + n].tobytes()

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("moduli", ["n+1, n+2, 2n+3", "3, 1000", "97, 5, 4096"])
    def test_average_is_the_mean_product_state_projector(self, n, moduli):
        # the definition: (1/p) sum_k |psi_k><psi_k|, psi_k the n-fold product of
        # (|0> + e^{2 pi i k / p}|1>) / sqrt 2, built label by label as amplitudes
        ps = {"n+1, n+2, 2n+3": [n + 1, n + 2, 2 * n + 3], "3, 1000": [3, 1000],
              "97, 5, 4096": [97, 5, 4096]}[moduli]
        stacked = keys.averaged_key_operators(ps, n)
        for p, got in zip(ps, stacked):
            theta = 2.0 * np.pi * np.arange(1, p + 1) / p
            qubit = np.stack([np.ones(p), np.exp(1j * theta)], axis=1) / math.sqrt(2.0)
            amps = np.ones((p, 1), dtype=np.complex128)
            for _ in range(n):
                amps = (amps[:, :, None] * qubit[:, None, :]).reshape(p, -1)
            want = amps.T @ amps.conj() / p
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)

    def test_no_moduli_give_empty_stacks(self):
        assert keys.averaged_key_operators([], 3).shape == (0, 8, 8)
        rows = keys._phase_average_rows(np.arange(-3, 3).reshape(2, 3), ())
        assert rows.shape == (0, 2, 3) and rows.dtype == np.float64


class TestAveragedOperatorGuard:
    """The averages share the one imaginary-part guard of ``_phase_average_rows``."""

    @staticmethod
    def _skew(monkeypatch, at=2):
        # Only the averaging check uses p = 11, 13, 15 (2n + 3 for n = 4..6).
        exact = keys._phase_means

        def skewed(a, ps):
            vals = exact(a, ps)
            for i, p in enumerate(ps):
                if p in (11, 13, 15):
                    vals[i] += np.where(np.asarray(a) == at, 1e-9j, 0.0)
            return vals

        monkeypatch.setattr(keys, "_phase_means", skewed)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_keeps_the_real_part(self, n):
        ps = [n + 1, n + 2, 2 * n + 3]
        assert np.abs(keys._phase_means(np.arange(-n, n + 1), ps).imag).max() <= 1e-15
        stacked = keys.averaged_key_operators(ps, n)
        assert stacked.dtype == np.float64
        for p, average in zip(ps, stacked):
            rho = keys.averaged_key_operator_discrete(p, n)
            assert rho.matrix.dtype == np.float64
            assert np.array_equal(rho.matrix, average)

    def test_imaginary_part_is_a_numerical_failure(self, monkeypatch):
        self._skew(monkeypatch)
        with pytest.raises(NumericalError, match="phase average at a=2, p=11 has imaginary part"):
            keys.averaged_key_operator_discrete(11, 4)

    def test_names_the_first_failing_modulus(self, monkeypatch):
        self._skew(monkeypatch, at=-1)
        with pytest.raises(NumericalError, match="phase average at a=-1, p=13 has imaginary part"):
            keys.averaged_key_operators([3, 13, 11], 2)
        assert keys.averaged_key_operators([3, 4], 2).shape == (2, 4, 4)

    def test_imaginary_average_exits_numerical(self, capsys, monkeypatch):
        self._skew(monkeypatch)
        code, out, err = run_cli(["verify-identities"], capsys)
        assert code == EXIT_NUMERICAL  # an internal failure, never bad input (4)
        assert out.splitlines()[-1].startswith("phase-average-vanishing: pass")
        assert out.count("\n") == 2
        assert "numerical failure: phase average at a=2, p=11 has imaginary part" in err


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

    def test_one_kernel_pass_for_certainty_and_one_density_check_per_n(self, capsys,
                                                                         monkeypatch):
        sessions, kernel, checked = [], [], []
        honest = protocol.honest_round_branches
        check = identities.check_density_operators

        def spy_kernel(angles):
            kernel.append(len(angles))
            return honest(angles)

        def spy_check(matrices):
            checked.append(np.shape(matrices))
            check(matrices)

        monkeypatch.setattr(protocol, "run_session", lambda *args, **kw: sessions.append(args))
        monkeypatch.setattr(protocol, "honest_round_branches", spy_kernel)
        monkeypatch.setattr(identities, "check_density_operators", spy_check)
        identities._phase_table.cache_clear()
        code, _, _ = run_cli(["verify-identities"], capsys)
        assert code == EXIT_OK
        assert sessions == []
        # certainty and uniformity read one table of the 27 phases
        assert kernel == [27]
        # the three averages of each n with its weight mixture
        assert checked == [(4, 2**n, 2**n) for n in range(1, 7)]

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
