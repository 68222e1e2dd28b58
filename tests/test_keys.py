"""Key material: parameter sets, phase states, averaging structure."""

import math
import tracemalloc

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
    _phase_means,
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

    @pytest.mark.parametrize("variant,r", [("standard", 2**63 - 2), ("hardened", 2**62 - 1)])
    def test_modulus_fits_an_int64(self, variant, r):
        # the key numerators 1..p are an int64 array
        assert ProtocolParams(r, 1, variant).p == 2**63 - 1
        with pytest.raises(ValueError, match=f"^r must be at most {r}$"):
            ProtocolParams(r + 1, 1, variant)

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError):
            ProtocolParams(r=2, s=2, variant="extra")

    @pytest.mark.parametrize("r,s,field", [(2.5, 3, "r"), (2.0, 3, "r"), (True, 3, "r"),
                                           (2, 3.5, "s"), (2, True, "s"), (2, "3", "s")])
    def test_rejects_non_integers(self, r, s, field):
        # refused, not truncated: r = 2.5 would give p = 3.5
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ProtocolParams(r, s)

    def test_numpy_integers_are_stored_as_ints(self):
        # so a transcript header, which prints r, s and p, stays JSON
        params = ProtocolParams(np.int64(4), np.int32(3))
        assert (type(params.r), type(params.s), params.p) == (int, int, 5)
        x = PhaseFraction(np.int64(2), np.uint8(5))
        assert (type(x.k), type(x.p)) == (int, int) and x == PhaseFraction(2, 5)


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

    @pytest.mark.parametrize("k,p,field", [(2.5, 7, "k"), (2.0, 7, "k"), (True, 7, "k"),
                                           (2, 7.0, "p"), (1, True, "p"), (np.float64(3), 7, "k")])
    def test_rejects_non_integers(self, k, p, field):
        # an off-lattice phase is refused, not stored as another phase
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            PhaseFraction(k, p)
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            PrivateKey((PhaseFraction(1, 7), PhaseFraction(k, p)))


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

    def test_from_ks_copies_an_int64_key_once(self):
        # one copy of 8 MB, and no range-check masks: it is the key,
        # read-only and apart from the caller's array, which stays
        # writable; a second copy would make 16 MB
        s = 10**6
        ks = np.arange(s, dtype=np.int64) % 3 + 1
        tracemalloc.start()
        try:
            generate_private_key(ProtocolParams(r=2, s=s), 1)
            keygen_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            key = PrivateKey.from_ks(ks, 3)
            from_ks_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert not np.shares_memory(key.ks, ks)
        assert not key.ks.flags.writeable and ks.flags.writeable
        assert key.ks.tobytes() == ks.tobytes()
        assert from_ks_peak < 1.5 * 8 * s
        # the drawn numerators and the key's copy of them, at most
        assert keygen_peak < 2.5 * 8 * s

    def test_keygen_holds_one_copy_of_its_draw(self):
        # s = 4e6: the drawn numerators are the key (32 MB); copying them
        # into the key would peak at twice that
        s = 4 * 10**6
        tracemalloc.start()
        try:
            key = generate_private_key(ProtocolParams(r=2, s=s), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert key.s == s and key.ks.dtype == np.int64 and not key.ks.flags.writeable
        assert peak < 1.25 * key.ks.nbytes

    def test_from_ks_takes_a_frozen_int64_array_over(self):
        ks = np.array([3, 1, 2], dtype=np.int64)
        ks.setflags(write=False)
        assert PrivateKey.from_ks(ks, 3).ks is ks
        # a writable array, or a frozen one of another dtype, is copied
        mutable = np.array([3, 1, 2], dtype=np.int64)
        key = PrivateKey.from_ks(mutable, 3)
        assert not np.shares_memory(key.ks, mutable) and mutable.flags.writeable
        small = np.array([3, 1, 2], dtype=np.int32)
        small.setflags(write=False)
        key = PrivateKey.from_ks(small, 3)
        assert key.ks.dtype == np.int64 and not np.shares_memory(key.ks, small)

    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("view", [lambda big: big[::2], lambda big: big[:4],
                                      lambda big: big.reshape(2, 4)[1]])
    def test_from_ks_copies_a_view(self, view, frozen):
        # a view's base may still be written, read-only view or not, so
        # sharing it would leave a checked key that its base could change
        big = np.array([1, 2, 3, 1, 2, 3, 1, 2], dtype=np.int64)
        ks = view(big)
        ks.setflags(write=not frozen)
        want = ks.tolist()
        key = PrivateKey.from_ks(ks, 3)
        assert not np.shares_memory(key.ks, big) and big.flags.writeable
        digest = hash(key)
        big[:] = 3
        assert key.ks.tolist() == want and hash(key) == digest

    @pytest.mark.parametrize("dtype", [np.int32, np.uint16])
    def test_from_ks_casts_another_dtype_in_one_copy(self, dtype):
        # the checks read the caller's array and the cast is the key's one
        # copy: 8 MB of key for 4 or 2 MB of input (two copies made 12 MB)
        s = 10**6
        ks = (np.arange(s) % 3 + 1).astype(dtype)
        tracemalloc.start()
        try:
            key = PrivateKey.from_ks(ks, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert key.ks.dtype == np.int64 and key.ks.tolist() == ks.tolist()
        assert not np.shares_memory(key.ks, ks) and ks.flags.writeable
        assert peak < 1.1 * key.ks.nbytes

    def test_from_ks_of_a_list_makes_one_array(self):
        s = 10**5
        ks = [1, 2, 3] * (s // 3)
        tracemalloc.start()
        try:
            key = PrivateKey.from_ks(ks, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert key.ks.tolist() == ks and not key.ks.flags.writeable
        assert peak < 1.5 * key.ks.nbytes

    @pytest.mark.parametrize("frozen", [False, True])
    @pytest.mark.parametrize("ks,bad", [([1, 0, 5, 2], 0), ([2, 3, 7, -1], 7), ([-4], -4)])
    def test_from_ks_names_the_first_entry_out_of_range(self, ks, bad, frozen):
        ks = np.array(ks)
        ks.setflags(write=not frozen)
        with pytest.raises(ValueError, match=rf"^k must lie in 1\.\.3, got {bad}$"):
            PrivateKey.from_ks(ks, 3)

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

    @pytest.mark.parametrize("p", [3.5, 3.0, True])
    def test_from_ks_rejects_a_modulus_that_is_not_an_integer(self, p):
        with pytest.raises(ValueError, match="p must be an integer"):
            PrivateKey.from_ks([1], p)

    @pytest.mark.parametrize("build", [
        pytest.param(lambda p: PrivateKey.from_ks([p], p), id="from_ks"),
        pytest.param(lambda p: PrivateKey([PhaseFraction(p, p)]), id="PhaseFraction"),
    ])
    def test_modulus_fits_an_int64(self, build):
        # the numerators 1..p are an int64 array: the largest p keeps its
        # numerator, and one more is refused by name, not wrapped or overflowed
        top = 2**63 - 1
        assert build(top).ks.tolist() == [top]
        for p in (top + 1, 2**64):
            with pytest.raises(ValueError, match=f"^p must be at most {top}$"):
                build(p)

    def test_from_ks_does_not_wrap_a_large_numerator(self):
        top = np.array([2**63 - 1, 5], dtype=np.uint64)
        assert PrivateKey.from_ks(top, 2**63 - 1).ks.tolist() == [2**63 - 1, 5]
        with pytest.raises(ValueError, match="^p must be at most "):
            PrivateKey.from_ks(np.array([2**63, 5], dtype=np.uint64), 2**64)


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

    @pytest.mark.parametrize("n,message", [(0, "n must be >= 1, got 0"),
                                           (11, "n must be at most 10")], ids=["0", "11"])
    @pytest.mark.parametrize("build", [
        symmetric_mixture,
        lambda n: averaged_key_operators([3], n),
        lambda n: averaged_key_operator_discrete(3, n),
    ], ids=["symmetric_mixture", "averaged_key_operators", "averaged_key_operator_discrete"])
    def test_rejects_n_outside_the_enumeration_cap(self, build, n, message):
        # one cap for the mixture and the averages; refused before any array is built
        with pytest.raises(ValueError, match=f"^{message}$"):
            build(n)


@given(st.integers(min_value=-12, max_value=12), st.integers(min_value=1, max_value=9))
@settings(max_examples=120, deadline=None)
def test_phase_average_is_divisibility_indicator(a, p):
    want = 1.0 if a % p == 0 else 0.0
    assert _phase_average_rows(np.asarray(a), (p,))[0] == pytest.approx(want, abs=1e-12)


def test_phase_means_memory_follows_the_largest_modulus():
    # one modulus at a time: the terms of p = 1952 over 21 exponents take
    # about 0.7 MB, while all 40 moduli at once would take about 13 MB
    tracemalloc.start()
    try:
        _phase_means(np.arange(-10, 11), range(2, 2002, 50))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


class TestPublicKeyDescriptor:
    def test_descriptor_holds_no_phases(self):
        desc = public_key_descriptor(ProtocolParams(r=2, s=3))
        assert desc == {"p": 3, "xs_redacted": True, "elements": 3}
