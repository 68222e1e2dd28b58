"""Key material: parameter sets, phase states, averaging structure."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseid.keys import (
    PhaseFraction,
    PrivateKey,
    ProtocolParams,
    averaged_key_operator_discrete,
    _phase_average_rows,
    averaged_key_operators,
    generate_private_key,
    phase_bases,
    public_key_descriptor,
    public_key_state,
    symmetric_mixture,
)
from phaseid.qsim import PureState, tensor

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _phases(key: PrivateKey) -> list[PhaseFraction]:
    """The key's phases as PhaseFraction values, one per round."""
    return [PhaseFraction(k, key.p) for k in key.ks.tolist()]


class TestProtocolParams:
    def test_standard_modulus(self):
        assert ProtocolParams(r=4, s=3).p == 5

    def test_hardened_modulus(self):
        assert ProtocolParams(r=4, s=3, variant="hardened").p == 9

    @pytest.mark.parametrize("r,s", [(0, 1), (1, 0), (-2, 5)])
    def test_rejects_nonpositive(self, r, s):
        with pytest.raises(ValueError):
            ProtocolParams(r=r, s=s)

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            ProtocolParams(r=2, s=2, variant="extra")


class TestPhaseFraction:
    def test_k_equal_p_is_angle_zero(self):
        # k = p denotes the full turn; stored as exactly 0.0 so the
        # public state is the real |+> with no rounding residue
        assert PhaseFraction(5, 5).angle() == 0.0

    def test_angle_value(self):
        assert PhaseFraction(1, 4).angle() == pytest.approx(math.pi / 2.0)

    @pytest.mark.parametrize("k,p", [(0, 3), (4, 3), (-1, 5)])
    def test_rejects_out_of_range(self, k, p):
        with pytest.raises(ValueError):
            PhaseFraction(k, p)


class TestPrivateKey:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PrivateKey(())

    def test_rejects_mixed_moduli(self):
        with pytest.raises(ValueError):
            PrivateKey((PhaseFraction(1, 3), PhaseFraction(1, 4)))

    def test_properties(self):
        key = PrivateKey((PhaseFraction(2, 5), PhaseFraction(5, 5)))
        assert key.s == 2
        assert key.p == 5

    def test_array_and_scalar_views_agree(self):
        xs = (PhaseFraction(2, 5), PhaseFraction(5, 5), PhaseFraction(2, 5))
        key = PrivateKey(xs)
        assert key.ks.dtype == np.int64 and key.ks.tolist() == [2, 5, 2]
        assert tuple(_phases(key)) == xs
        same = PrivateKey.from_ks([2, 5, 2], 5)
        assert same == key and hash(same) == hash(key)
        assert PrivateKey.from_ks([2, 5, 1], 5) != key
        assert PrivateKey.from_ks([2, 5, 2], 6) != key
        with pytest.raises(ValueError):
            key.ks[0] = 1

    def test_from_ks_copies_its_input(self):
        ks = np.array([1, 2, 3])
        key = PrivateKey.from_ks(ks, 3)
        ks[0] = 3
        assert key.ks.tolist() == [1, 2, 3]

    @pytest.mark.parametrize("ks,p", [([], 3), ([[1, 2]], 3), ([0, 1], 3), ([1, 4], 3),
                                      ([1, -2], 3), ([1, 10**30], 3), ([1], 0)])
    def test_from_ks_rejects_bad_phases(self, ks, p):
        with pytest.raises(ValueError):
            PrivateKey.from_ks(ks, p)

    @pytest.mark.parametrize("ks", [[1.7, 2.2], [1.0, 2.0], [True, False], ["1", "2"],
                                    np.array([1, 2], dtype=np.float32)])
    def test_from_ks_rejects_phases_that_are_not_integers(self, ks):
        with pytest.raises(ValueError, match="must be integers"):
            PrivateKey.from_ks(ks, 3)


class TestKeygen:
    def test_deterministic_in_seed(self):
        params = ProtocolParams(r=4, s=6)
        a = generate_private_key(params, 123)
        b = generate_private_key(params, 123)
        assert a == b

    def test_different_seeds_differ(self):
        params = ProtocolParams(r=9, s=16)
        assert generate_private_key(params, 1) != generate_private_key(params, 2)

    def test_range_and_length(self):
        params = ProtocolParams(r=3, s=50, variant="hardened")
        key = generate_private_key(params, 7)
        assert key.s == 50
        assert all(1 <= x.k <= params.p for x in _phases(key))

    def test_uniform_over_phase_set(self):
        # 1e5 draws over p = 4 bins; all counts within 4 sigma of p/4 each
        params = ProtocolParams(r=3, s=100_000)
        key = generate_private_key(params, 20240817)
        counts = np.bincount([x.k for x in _phases(key)], minlength=params.p + 1)[1:]
        n = params.s
        q = 1.0 / params.p
        sigma = math.sqrt(n * q * (1 - q))
        assert counts.sum() == n
        for c in counts:
            assert abs(c - n * q) < 4.0 * sigma


class TestPublicKeyStates:
    def test_full_turn_gives_plus(self):
        st_ = public_key_state(PhaseFraction(3, 3))
        np.testing.assert_allclose(st_.amplitudes, [INV_SQRT2, INV_SQRT2], atol=1e-15)

    def test_half_turn_gives_minus(self):
        st_ = public_key_state(PhaseFraction(1, 2))
        np.testing.assert_allclose(st_.amplitudes, [INV_SQRT2, -INV_SQRT2], atol=1e-15)

    def test_quarter_turn_gives_imaginary_phase(self):
        st_ = public_key_state(PhaseFraction(1, 4))
        np.testing.assert_allclose(st_.amplitudes, [INV_SQRT2, 1j * INV_SQRT2],
                                   atol=1e-15)

    def test_qubit_phase_state_normalized(self):
        for angle in np.linspace(0.0, 2.0 * math.pi, 17):
            st_ = PureState((2,), phase_bases(float(angle))[0])
            assert np.linalg.norm(st_.amplitudes) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", range(2, 9))
    def test_injective_over_phase_set(self, p):
        # distinct k give distinct states even up to global phase
        states = [public_key_state(PhaseFraction(k, p)) for k in range(1, p + 1)]
        for i, a in enumerate(states):
            for b in states[i + 1:]:
                assert abs(np.vdot(a.amplitudes, b.amplitudes)) < 1.0 - 1e-12


def _averaged_oracle(p: int, n: int) -> np.ndarray:
    """Average the n-fold tensor projectors one key value at a time."""
    acc = np.zeros((2**n, 2**n), dtype=np.complex128)
    for k in range(1, p + 1):
        single = PureState((2,), phase_bases(PhaseFraction(k, p).angle())[0])
        prod = single
        for _ in range(n - 1):
            prod = tensor(prod, single)
        v = prod.amplitudes
        acc += np.outer(v, v.conj())
    return acc / p


class TestAveragedOperator:
    @pytest.mark.parametrize("p,n", [(2, 1), (3, 2), (4, 3), (5, 4), (7, 3)])
    def test_matches_tensor_route(self, p, n):
        direct = averaged_key_operator_discrete(p, n).matrix
        np.testing.assert_allclose(direct, _averaged_oracle(p, n), atol=1e-12)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_equals_symmetric_mixture_at_threshold(self, n):
        # p = n + 1 is the smallest modulus for which the key average
        # collapses to the weight mixture
        for p in (n + 1, n + 2, 2 * n + 3):
            avg = averaged_key_operator_discrete(p, n).matrix
            mix = symmetric_mixture(n).matrix
            assert np.max(np.abs(avg - mix)) < 1e-12

    @pytest.mark.parametrize("n", range(2, 6))
    def test_differs_below_threshold(self, n):
        avg = averaged_key_operator_discrete(n, n).matrix
        mix = symmetric_mixture(n).matrix
        assert np.max(np.abs(avg - mix)) > 1e-3

    def test_surviving_off_diagonals_have_weight_gap_p(self):
        # p = 3, n = 4: averaging kills every coherence except between
        # labels whose Hamming weights differ by a multiple of 3
        p, n = 3, 4
        avg = averaged_key_operator_discrete(p, n).matrix
        w = np.array([bin(i).count("1") for i in range(2**n)])
        gap = np.abs(w[:, None] - w[None, :])
        off = np.abs(avg) > 1e-12
        assert np.all(gap[off] % p == 0)
        assert np.any(off & (gap == 3))

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            averaged_key_operator_discrete(1, 2)

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            averaged_key_operator_discrete(3, 11)


class TestSymmetricStates:
    def test_mixture_is_diagonal_in_weight_basis(self):
        # the weight states built by counting bits, apart from the module's own
        mix = symmetric_mixture(3)
        weights = np.array([bin(i).count("1") for i in range(8)])
        for w in range(4):
            v = (weights == w) / math.sqrt(math.comb(3, w))
            val = float(np.real(v.conj() @ mix.matrix @ v))
            assert val == pytest.approx(math.comb(3, w) / 8.0, abs=1e-12)

    @pytest.mark.parametrize("n", [0, 11])
    @pytest.mark.parametrize("build", [
        symmetric_mixture,
        lambda n: averaged_key_operators([3], n),
        lambda n: averaged_key_operator_discrete(3, n),
    ], ids=["symmetric_mixture", "averaged_key_operators", "averaged_key_operator_discrete"])
    def test_rejects_n_outside_the_enumeration_cap(self, build, n):
        # one cap for the mixture and the averages; refused before any array is built
        with pytest.raises(ValueError, match=f"n must lie in 1..10, got {n}"):
            build(n)


@given(st.integers(min_value=-12, max_value=12), st.integers(min_value=1, max_value=9))
@settings(max_examples=120, deadline=None)
def test_phase_average_is_divisibility_indicator(a, p):
    want = 1.0 if a % p == 0 else 0.0
    assert _phase_average_rows(np.asarray(a), (p,))[0] == pytest.approx(want, abs=1e-12)


class TestPublicKeyDescriptor:
    def test_descriptor_redacts_by_default(self):
        params = ProtocolParams(r=2, s=3)
        key = generate_private_key(params, 1)
        desc = public_key_descriptor(params, key)
        assert desc["xs_redacted"] is True
        assert "xs" not in desc
        assert desc["elements"] == 3

    def test_descriptor_exposes_on_request(self):
        params = ProtocolParams(r=2, s=3)
        key = generate_private_key(params, 1)
        desc = public_key_descriptor(params, key, expose_phases=True)
        assert desc["xs"] == [x.k for x in _phases(key)]

    def test_expose_requires_key(self):
        with pytest.raises(ValueError):
            public_key_descriptor(ProtocolParams(r=2, s=3), None, expose_phases=True)
