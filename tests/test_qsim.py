"""State-algebra unit and property tests."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    basis_state,
    equal_up_to_global_phase,
    overlap,
    random_pure_state,
    random_unitary,
)
from phaseid import qsim
from phaseid.errors import (
    DimensionMismatchError,
    InvalidBasisError,
    StateValidationError,
)
from phaseid.qsim import (
    DensityOperator,
    PureState,
    check_density_operators,
    check_orthonormal_bases,
    check_pure_states,
    measure_in_basis,
    partial_trace,
    swap_test_pass_probability_mixed,
    tensor,
    trace_norm,
)
from phaseid.tolerances import EIGENVALUE_FLOOR

INV_SQRT2 = 1.0 / math.sqrt(2.0)

ZERO = basis_state((2,), (0,))
ONE = basis_state((2,), (1,))
PLUS = PureState((2,), np.array([INV_SQRT2, INV_SQRT2]))
MINUS = PureState((2,), np.array([INV_SQRT2, -INV_SQRT2]))

seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(StateValidationError):
            PureState((2,), np.array([1.0, 1.0]))

    def test_rejects_nan(self):
        with pytest.raises(StateValidationError):
            PureState((2,), np.array([np.nan, 0.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(StateValidationError):
            PureState((2, 2), np.array([1.0, 0.0]))

    def test_amplitudes_read_only(self):
        with pytest.raises(ValueError):
            ZERO.amplitudes[0] = 5.0

    def test_basis_state_big_endian(self):
        # first register is the most significant digit of the index
        state = basis_state((2, 3), (1, 2))
        assert state.amplitudes[1 * 3 + 2] == 1.0


class TestDensityOperator:
    def test_rejects_non_hermitian(self):
        with pytest.raises(StateValidationError):
            DensityOperator((2,), np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(StateValidationError):
            DensityOperator((2,), np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        mat = np.array([[1.5, 0.0], [0.0, -0.5]])
        with pytest.raises(StateValidationError):
            DensityOperator((2,), mat)

    def test_from_pure(self):
        rho = DensityOperator.from_pure(PLUS)
        np.testing.assert_allclose(rho.matrix, np.full((2, 2), 0.5), atol=1e-15)


STACK = 1000


def _pure_stack(n: int) -> np.ndarray:
    vecs = np.random.default_rng(5).normal(size=(n, 2, 2)).view(np.complex128)[..., 0]
    return vecs / np.linalg.norm(vecs, axis=-1, keepdims=True)


def _density_stack(n: int) -> np.ndarray:
    # mixtures w |v><v| + (1 - w) I/2: valid, generic, full rank
    vecs = _pure_stack(n)
    weights = np.linspace(0.0, 1.0, n)[:, None, None]
    pure = vecs[:, :, None] * vecs.conj()[:, None, :]
    return weights * pure + (1.0 - weights) * np.eye(2) / 2.0


# each corruption, and the message of the check that must catch it
DENSITY_CORRUPTIONS = {
    "non-finite": (lambda m: m + np.array([[0.0, 0.0], [0.0, np.nan]]), "finite"),
    "non-Hermitian": (lambda m: m + np.array([[0.0, 1e-9], [0.0, 0.0]]), "Hermitian"),
    "trace": (lambda m: m * (1.0 + 1e-9), "trace"),
    "negative eigenvalue": (lambda m: np.diag([1.0 + 1e-9, -1e-9]).astype(np.complex128),
                            "eigenvalue"),
}


class TestStackedValidators:
    def test_valid_stacks_pass(self):
        check_pure_states(_pure_stack(STACK))
        check_density_operators(_density_stack(STACK))
        check_density_operators(_density_stack(STACK).reshape(STACK // 2, 2, 2, 2))

    @given(st.integers(min_value=0, max_value=STACK - 1),
           st.sampled_from(sorted(DENSITY_CORRUPTIONS)))
    @settings(max_examples=40, deadline=None)
    def test_one_corrupt_density_operator_is_found(self, index, kind):
        corrupt, message = DENSITY_CORRUPTIONS[kind]
        stack = _density_stack(STACK)
        stack[index] = corrupt(stack[index])
        with pytest.raises(StateValidationError, match=rf"{message}.*stack index \({index},\)"):
            check_density_operators(stack)
        with pytest.raises(StateValidationError):
            DensityOperator((2,), stack[index])

    @given(st.integers(min_value=0, max_value=STACK - 1), st.sampled_from(["non-finite", "norm"]))
    @settings(max_examples=40, deadline=None)
    def test_one_corrupt_pure_state_is_found(self, index, kind):
        stack = _pure_stack(STACK)
        stack[index] = [np.inf, 0.0] if kind == "non-finite" else stack[index] * (1.0 + 1e-9)
        with pytest.raises(StateValidationError, match=rf"stack index \({index},\)"):
            check_pure_states(stack)
        with pytest.raises(StateValidationError):
            PureState((2,), stack[index])

    def test_nested_stack_index_is_named(self):
        stack = _density_stack(STACK).reshape(STACK // 2, 2, 2, 2)
        stack[123, 1] *= 2.0
        with pytest.raises(StateValidationError, match=r"stack index \(123, 1\)"):
            check_density_operators(stack)

    def test_bases(self):
        bases = np.stack([np.eye(2, dtype=np.complex128)] * STACK)
        check_orthonormal_bases(bases)
        bases[777, 1] = [INV_SQRT2, INV_SQRT2]
        with pytest.raises(InvalidBasisError, match=r"stack index \(777,\)"):
            check_orthonormal_bases(bases)

    @pytest.mark.parametrize("bad", [[[np.nan] * 2] * 2, [[1.0, 0.0], [0.0, np.inf]]])
    def test_non_finite_bases_are_refused(self, bad):
        # a NaN deviation from the identity compares false with the tolerance
        with np.errstate(invalid="ignore"):
            with pytest.raises(InvalidBasisError, match="not orthonormal"):
                check_orthonormal_bases(np.array(bad))
            bases = np.stack([np.eye(2, dtype=np.complex128)] * STACK)
            bases[777] = bad
            with pytest.raises(InvalidBasisError, match=r"stack index \(777,\)"):
                check_orthonormal_bases(bases)


def _rotated(eigenvalues, seed: int) -> np.ndarray:
    """U diag(eigenvalues) U^dagger for a random unitary U."""
    u = random_unitary(np.random.default_rng(seed), 2)
    return (u * np.asarray(eigenvalues)) @ u.conj().T


def _reported_eigenvalue(stack) -> tuple[float, str] | None:
    """(eigenvalue, message) of the positivity failure, or None if the stack passes."""
    try:
        check_density_operators(stack)
    except StateValidationError as exc:
        match = re.search(r"eigenvalue (\S+) < 0", str(exc))
        assert match, str(exc)
        return float(match.group(1)), str(exc)
    return None


def _eigvalsh_low(mats) -> np.ndarray:
    return np.linalg.eigvalsh((mats + mats.conj().swapaxes(-1, -2)) / 2.0).min(axis=-1)


# 2x2 matrices at the edge of positivity, and whether the floor admits them
EDGE_CASES = {
    "projector |0><0|": (np.diag([1.0, 0.0]), True),
    "projector |1><1|": (np.diag([0.0, 1.0]), True),
    "maximally mixed": (np.eye(2) / 2.0, True),
    "rotated rank-1 projector": (_rotated([1.0, 0.0], 3), True),
    "diagonal, eigenvalue -5e-11": (np.diag([1.0 + 5e-11, -5e-11]), True),
    "rotated, eigenvalue -5e-11": (_rotated([1.0 + 5e-11, -5e-11], 4), True),
    "diagonal, eigenvalue -2e-10": (np.diag([1.0 + 2e-10, -2e-10]), False),
    "rotated, eigenvalue -2e-10": (_rotated([-2e-10, 1.0 + 2e-10], 5), False),
}


class TestTwoByTwoPositivity:
    """The closed-form 2x2 eigenvalue check decides as ``eigvalsh`` does."""

    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    def test_edge_case_single_matrix(self, name):
        mat, admitted = EDGE_CASES[name]
        mat = mat.astype(np.complex128)
        reported = _reported_eigenvalue(mat)
        assert (reported is None) == admitted
        if not admitted:
            assert reported[0] == pytest.approx(_eigvalsh_low(mat), rel=0.0, abs=1e-15)
            assert "stack index" not in reported[1]
        if admitted:
            DensityOperator((2,), mat)
        else:
            with pytest.raises(StateValidationError):
                DensityOperator((2,), mat)

    @given(st.integers(min_value=0, max_value=STACK - 1), st.sampled_from(sorted(EDGE_CASES)))
    @settings(max_examples=40, deadline=None)
    def test_edge_case_in_a_stack(self, index, name):
        mat, admitted = EDGE_CASES[name]
        stack = _density_stack(STACK)
        stack[index] = mat
        reported = _reported_eigenvalue(stack)
        assert (reported is None) == admitted
        if not admitted:
            assert reported[0] == pytest.approx(_eigvalsh_low(mat), rel=0.0, abs=1e-15)
            assert f"stack index ({index},)" in reported[1]

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_random_hermitian_stack_matches_eigvalsh(self, seed):
        # Random trace-1 Hermitian matrices whose smallest eigenvalue lies
        # on either side of the floor, plus an anti-Hermitian part inside
        # the Hermiticity tolerance: the closed form must see the same
        # smallest eigenvalue of the Hermitian part as eigvalsh.
        rng = np.random.default_rng(seed)
        low = EIGENVALUE_FLOOR + rng.choice([-1.0, 1.0], STACK) * rng.uniform(1e-12, 5e-11, STACK)
        spread = rng.random(STACK) < 0.5
        low[spread] = rng.uniform(0.0, 0.5, int(spread.sum()))
        u = np.stack([random_unitary(rng, 2) for _ in range(STACK)])
        mats = (u * np.stack([low, 1.0 - low], axis=-1)[:, None, :]) @ u.conj().swapaxes(-1, -2)
        mats[:, 0, 1] += 1e-13 * (rng.normal(size=STACK) + 1j * rng.normal(size=STACK))
        want = _eigvalsh_low(mats)
        for i in rng.choice(STACK, 20, replace=False):
            reported = _reported_eigenvalue(mats[i])
            assert (reported is None) == (want[i] >= EIGENVALUE_FLOOR)
            if reported is not None:
                assert reported[0] == pytest.approx(want[i], rel=0.0, abs=1e-15)
        first_bad = np.flatnonzero(want < EIGENVALUE_FLOOR)
        reported = _reported_eigenvalue(mats)
        assert (reported is None) == (first_bad.size == 0)
        if reported is not None:
            assert reported[0] == pytest.approx(want[first_bad[0]], rel=0.0, abs=1e-15)
            assert f"stack index ({first_bad[0]},)" in reported[1]
        assert _reported_eigenvalue(mats[want >= EIGENVALUE_FLOOR]) is None

    def test_larger_matrices_keep_eigvalsh(self):
        mat = np.diag([0.5, 0.5 + 2e-10, -2e-10]).astype(np.complex128)
        reported = _reported_eigenvalue(np.stack([np.eye(3) / 3.0, mat]))
        assert reported is not None and "stack index (1,)" in reported[1]
        assert reported[0] == pytest.approx(-2e-10, rel=0.0, abs=1e-15)


def _solver_dtypes(monkeypatch, name: str = "eigvalsh") -> list:
    """Record the dtype of every matrix handed to ``np.linalg.<name>``."""
    seen = []
    solver = getattr(np.linalg, name)

    def recording(a):
        seen.append(np.asarray(a).dtype)
        return solver(a)

    monkeypatch.setattr(np.linalg, name, recording)
    return seen


class TestRealEigenPath:
    """A Hermitian part with zero imaginary part goes to the real solvers,
    with the verdicts and values of the complex ones."""

    @staticmethod
    def _forms(delta: float) -> dict[str, np.ndarray]:
        # diag(1 + delta, -delta) embedded in dimension 4: as float64, as
        # complex128 with zero imaginary part, and turned by a complex unitary
        mat = np.zeros((4, 4))
        mat[0, 0], mat[1, 1] = 1.0 + delta, -delta
        u = random_unitary(np.random.default_rng(5), 4)
        return {"float64": mat, "complex128": mat.astype(np.complex128),
                "rotated": u @ mat @ u.conj().T}

    @pytest.mark.parametrize("form", ["float64", "complex128", "rotated"])
    @pytest.mark.parametrize("delta,admitted", [(2e-10, False), (5e-11, True)])
    def test_same_verdict_on_every_form(self, monkeypatch, form, delta, admitted):
        mat = self._forms(delta)[form]
        seen = _solver_dtypes(monkeypatch)
        factored = _solver_dtypes(monkeypatch, "cholesky")
        reported = _reported_eigenvalue(mat)
        assert (reported is None) == admitted
        if not admitted:
            assert reported[0] == pytest.approx(-delta, rel=0.0, abs=1e-15)
        assert trace_norm(mat) == pytest.approx(1.0 + 2.0 * delta, rel=0.0, abs=1e-15)
        solver = np.complex128 if form == "rotated" else np.float64
        # The Cholesky certificate admits without eigvalsh; a rejection
        # falls back to it. trace_norm makes one eigvalsh call either way.
        assert factored == [solver]
        assert seen == ([solver] if admitted else [solver, solver])
        if admitted:
            DensityOperator((2, 2), mat)
        else:
            with pytest.raises(StateValidationError):
                DensityOperator((2, 2), mat)

    def test_complex_hermitian_keeps_complex_solver(self, monkeypatch):
        sigma_y = np.array([[0.0, -1j], [1j, 0.0]])
        seen = _solver_dtypes(monkeypatch)
        assert trace_norm(np.kron(sigma_y, np.eye(2))) == pytest.approx(4.0, rel=0.0, abs=1e-12)
        assert seen == [np.complex128]


def _edge_operator(rng, n: int, low: float, real: bool) -> np.ndarray:
    """Trace-1 n x n operator with smallest eigenvalue ``low``, turned by a
    random orthogonal (real) or unitary (complex) matrix."""
    rest = rng.uniform(0.5, 1.0, n - 1)
    eigenvalues = np.concatenate([[low], rest * (1.0 - low) / rest.sum()])
    if real:
        u, _ = np.linalg.qr(rng.normal(size=(n, n)))
    else:
        u = random_unitary(rng, n)
    return (u * eigenvalues) @ u.conj().T


class TestCholeskyCertificate:
    """Above 2x2, positivity is certified by one shifted Cholesky; it admits
    exactly what eigvalsh admits, and a failure is reported as eigvalsh
    reports it."""

    @given(st.sampled_from([3, 4, 8, 33, 66]), st.booleans(),
           st.sampled_from([0.0] + [EIGENVALUE_FLOOR + d for d in (-5e-11, -1e-12, 1e-12, 5e-11)]),
           st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_decides_as_eigvalsh(self, n, real, low, index, seed):
        rng = np.random.default_rng(seed)
        stack = np.stack([_edge_operator(rng, n, low if i == index else 0.5 / n, real)
                          for i in range(3)])
        assert stack.dtype == (np.float64 if real else np.complex128)
        want = _eigvalsh_low(stack)
        assert abs(want[index] - low) < 1e-13
        first_bad = np.flatnonzero(want < EIGENVALUE_FLOOR)
        reported = _reported_eigenvalue(stack)
        assert (reported is None) == (first_bad.size == 0)
        if reported is not None:
            assert reported[0] == pytest.approx(want[first_bad[0]], rel=0.0, abs=1e-15)
            assert f"stack index ({first_bad[0]},)" in reported[1]
        single = _reported_eigenvalue(stack[index])
        assert (single is None) == (want[index] >= EIGENVALUE_FLOOR)
        if single is not None:
            assert single[0] == pytest.approx(want[index], rel=0.0, abs=1e-15)
            assert "stack index" not in single[1]

    @pytest.mark.parametrize("n", [3, 66, 514])
    def test_valid_operator_needs_no_eigvalsh(self, monkeypatch, n):
        # 514 is the oracle's largest dimension, 2 (t+1) at t = 256
        seen = _solver_dtypes(monkeypatch)
        check_density_operators(np.eye(n) / n)
        check_density_operators(np.diag(np.r_[1.0, np.zeros(n - 1)]))
        assert seen == []

    def test_no_factorisation_once_the_shift_is_not_negative(self, monkeypatch):
        # the shift EIGENVALUE_FLOOR + delta(n) turns nonnegative at n = 112589;
        # a stand-in with that shape and no data fails loudly if touched
        n = 112589
        assert EIGENVALUE_FLOOR + qsim._cholesky_margin(n - 1) < 0.0
        assert EIGENVALUE_FLOOR + qsim._cholesky_margin(n) >= 0.0

        class Untouchable:
            shape = (n, n)

            def __getattr__(self, name):
                raise AssertionError(f"the certificate read .{name} of a matrix it must skip")

        calls = []
        monkeypatch.setattr(np.linalg, "cholesky", calls.append)
        assert not qsim._above_floor_certified(Untouchable())
        assert calls == []


class TestDensityOperatorDtype:
    """A real matrix is stored as float64, anything else as complex128."""

    def test_real_input_is_a_read_only_float64_copy(self):
        src = np.diag([0.25, 0.75])
        rho = DensityOperator((2,), src)
        assert rho.matrix.dtype == np.float64
        assert not rho.matrix.flags.writeable
        src[0, 0] = 9.0
        assert rho.matrix[0, 0] == 0.25
        assert DensityOperator((2,), [[1, 0], [0, 0]]).matrix.dtype == np.float64

    @pytest.mark.parametrize("mat", [np.diag([0.25, 0.75]).astype(np.complex128),
                                     np.array([[0.5, 0.5j], [-0.5j, 0.5]])])
    def test_complex_input_stays_complex(self, mat):
        rho = DensityOperator((2,), mat)
        assert rho.matrix.dtype == np.complex128
        assert not rho.matrix.flags.writeable
        assert np.array_equal(rho.matrix, mat)

    def test_real_input_is_validated_like_complex(self):
        for mat in (np.array([[0.5, 0.1], [0.2, 0.5]]), np.diag([0.5, 0.6]),
                    np.diag([1.0 + 2e-10, 0.0, -2e-10])):
            with pytest.raises(StateValidationError):
                DensityOperator((len(mat),), mat)

    def test_from_pure_is_complex(self):
        state = random_pure_state(np.random.default_rng(3), (2, 2))
        rho = DensityOperator.from_pure(state)
        assert rho.matrix.dtype == np.complex128
        assert np.array_equal(rho.matrix, np.outer(state.amplitudes, state.amplitudes.conj()))

    def test_operations_match_the_complex_copy(self):
        # every operator used to be stored as complex128: each operation on
        # a real operator returns what it returns on that complex copy
        rng = np.random.default_rng(8)
        mat = _edge_operator(rng, 6, 0.05, real=True)
        real, cplx = (DensityOperator((2, 3), m) for m in (mat, mat.astype(np.complex128)))
        for keep in ((0,), (1,), (0, 1)):
            a, b = partial_trace(real, keep), partial_trace(cplx, keep)
            assert a.matrix.dtype == np.float64 and b.matrix.dtype == np.complex128
            assert np.array_equal(a.matrix, b.matrix)
        sigma = _edge_operator(rng, 6, 0.1, real=True)
        want = swap_test_pass_probability_mixed(cplx, DensityOperator((2, 3), sigma.astype(np.complex128)))
        assert swap_test_pass_probability_mixed(real, DensityOperator((2, 3), sigma)) == want


def test_tensor_of_basis_states():
    joint = tensor(ZERO, ONE)
    assert joint.dims == (2, 2)
    assert joint.amplitudes[1] == 1.0  # |01> sits at index 0b01


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_tensor_preserves_norm(seed):
    rng = np.random.default_rng(seed)
    a = random_pure_state(rng, (2, 3))
    b = random_pure_state(rng, (2,))
    joint = tensor(a, b)
    assert np.linalg.norm(joint.amplitudes) == pytest.approx(1.0, abs=1e-12)


class TestMeasureInBasis:
    def test_zero_in_plus_minus_basis(self):
        branches = measure_in_basis(ZERO, 0, (PLUS.amplitudes, MINUS.amplitudes))
        assert branches[0].probability == pytest.approx(0.5, abs=1e-12)
        assert branches[1].probability == pytest.approx(0.5, abs=1e-12)

    def test_eigenstate_is_certain(self):
        branches = measure_in_basis(PLUS, 0, (PLUS.amplitudes, MINUS.amplitudes))
        assert branches[0].probability == pytest.approx(1.0, abs=1e-12)
        assert branches[1].probability == pytest.approx(0.0, abs=1e-12)
        assert branches[1].post_state is None

    def test_rejects_non_orthonormal_basis(self):
        with pytest.raises(InvalidBasisError):
            measure_in_basis(ZERO, 0, (PLUS.amplitudes, PLUS.amplitudes))

    def test_rejects_bad_register(self):
        with pytest.raises(DimensionMismatchError, match="out of range"):
            measure_in_basis(ZERO, 1, (PLUS.amplitudes, MINUS.amplitudes))

    def test_rejects_non_qubit_register(self):
        state = basis_state((3,), (0,))
        with pytest.raises(DimensionMismatchError):
            measure_in_basis(state, 0, (PLUS.amplitudes, MINUS.amplitudes))

    def test_post_state_keeps_layout(self):
        joint = tensor(ZERO, PLUS)
        branches = measure_in_basis(joint, 1, (PLUS.amplitudes, MINUS.amplitudes))
        assert branches[0].post_state.dims == (2, 2)
        assert equal_up_to_global_phase(branches[0].post_state, tensor(ZERO, PLUS))


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_born_completeness(seed):
    rng = np.random.default_rng(seed)
    state = random_pure_state(rng, (2, 2))
    basis = random_unitary(rng, 2)
    branches = measure_in_basis(state, 0, (basis[:, 0], basis[:, 1]))
    total = branches[0].probability + branches[1].probability
    assert total == pytest.approx(1.0, abs=1e-12)


def _swap_pure(a: PureState, b: PureState) -> float:
    """SWAP-test pass probability of two pure states, through their projectors."""
    return swap_test_pass_probability_mixed(DensityOperator.from_pure(a),
                                            DensityOperator.from_pure(b))


class TestSwapTest:
    def test_identical_states_pass(self):
        assert _swap_pure(PLUS, PLUS) == pytest.approx(1.0)

    def test_orthogonal_states_coin_flip(self):
        assert _swap_pure(ZERO, ONE) == pytest.approx(0.5)

    def test_zero_against_plus(self):
        assert _swap_pure(ZERO, PLUS) == pytest.approx(0.75)

    def test_mixed_maximally_mixed_pair(self):
        rho = DensityOperator((2,), np.eye(2) / 2.0)
        assert swap_test_pass_probability_mixed(rho, rho) == pytest.approx(0.75)

    def test_mixed_agrees_with_pure(self):
        # on projectors, (1 + tr(rho sigma))/2 is (1 + |<a|b>|^2)/2
        rng = np.random.default_rng(12)
        for _ in range(20):
            a, b = random_pure_state(rng, (2, 3)), random_pure_state(rng, (2, 3))
            want = 0.5 * (1.0 + abs(overlap(a, b)) ** 2)
            assert _swap_pure(a, b) == pytest.approx(want, abs=1e-15)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            _swap_pure(ZERO, tensor(ZERO, ZERO))


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_swap_test_symmetry(seed):
    rng = np.random.default_rng(seed)
    a = random_pure_state(rng, (2, 2))
    b = random_pure_state(rng, (2, 2))
    assert _swap_pure(a, b) == pytest.approx(_swap_pure(b, a), abs=1e-12)


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_swap_test_symmetry_mixed(seed):
    rng = np.random.default_rng(seed)
    # random mixed pair via partial trace of larger pure states
    rho = partial_trace(random_pure_state(rng, (2, 3)), (0,))
    sig = partial_trace(random_pure_state(rng, (2, 2)), (0,))
    assert swap_test_pass_probability_mixed(rho, sig) == pytest.approx(
        swap_test_pass_probability_mixed(sig, rho), abs=1e-12
    )


class TestPartialTrace:
    def test_bell_reduces_to_maximally_mixed(self):
        bell = PureState((2, 2), np.array([0.0, INV_SQRT2, INV_SQRT2, 0.0]))
        rho = partial_trace(bell, (0,))
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2.0, atol=1e-12)

    def test_keep_all_gives_projector(self):
        rho = partial_trace(PLUS, (0,))
        np.testing.assert_allclose(rho.matrix, DensityOperator.from_pure(PLUS).matrix,
                                   atol=1e-15)

    def test_product_state_factors(self):
        joint = tensor(ZERO, PLUS)
        rho = partial_trace(joint, (0,))
        np.testing.assert_allclose(rho.matrix, DensityOperator.from_pure(ZERO).matrix,
                                   atol=1e-12)

    def test_density_operator_input(self):
        bell = PureState((2, 2), np.array([0.0, INV_SQRT2, INV_SQRT2, 0.0]))
        rho = partial_trace(DensityOperator.from_pure(bell), (1,))
        np.testing.assert_allclose(rho.matrix, np.eye(2) / 2.0, atol=1e-12)

    def test_requires_ascending_keep(self):
        joint = tensor(ZERO, PLUS)
        with pytest.raises(DimensionMismatchError):
            partial_trace(joint, (1, 0))

    def test_requires_nonempty_keep(self):
        with pytest.raises(DimensionMismatchError):
            partial_trace(PLUS, ())


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_partial_trace_is_a_state(seed):
    rng = np.random.default_rng(seed)
    state = random_pure_state(rng, (2, 3, 2))
    rho = partial_trace(state, (0, 2))
    # DensityOperator construction enforces trace one and positivity;
    # re-check the trace explicitly anyway.
    assert complex(np.trace(rho.matrix)).real == pytest.approx(1.0, abs=1e-12)
    assert rho.dims == (2, 2)


class TestTraceNorm:
    def test_zero_matrix(self):
        assert trace_norm(np.zeros((3, 3))) == 0.0

    def test_diag_plus_minus_one(self):
        assert trace_norm(np.diag([1.0, -1.0])) == pytest.approx(2.0)

    def test_projector_difference(self):
        delta = (DensityOperator.from_pure(ZERO).matrix
                 - DensityOperator.from_pure(PLUS).matrix)
        assert trace_norm(delta) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(StateValidationError):
            trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))


@given(seeds)
@settings(max_examples=40, deadline=None)
def test_trace_norm_symmetry_and_triangle(seed):
    rng = np.random.default_rng(seed)
    a = DensityOperator.from_pure(random_pure_state(rng, (4,))).matrix
    b = DensityOperator.from_pure(random_pure_state(rng, (4,))).matrix
    c = DensityOperator.from_pure(random_pure_state(rng, (4,))).matrix
    assert trace_norm(a - b) == pytest.approx(trace_norm(b - a), abs=1e-12)
    assert trace_norm(a - c) <= trace_norm(a - b) + trace_norm(b - c) + 1e-12


def test_overlap_requires_same_layout():
    with pytest.raises(DimensionMismatchError):
        overlap(PureState((4,), np.array([1, 0, 0, 0.0])), tensor(ZERO, ZERO))
