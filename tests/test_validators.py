"""The one-pass stacked validators against their step-by-step form.

``check_pure_states`` and ``check_density_operators`` accept a passing
stack with one fused test and run their checks in turn only on a stack
that fails it. The step-by-step form below, one reduction and one
first-failure test per invariant in a fixed order, is the reference:
on every stack both must give the same verdict, the same message and
the same stack index.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_unitary
from phaseid import qsim
from phaseid.errors import StateValidationError
from phaseid.qsim import check_density_operators, check_pure_states
from phaseid.tolerances import CONSTRUCT_ATOL, EIGENVALUE_FLOOR

SIZE = 5


def reference_check_pure_states(amplitudes) -> None:
    amps = np.asarray(amplitudes)
    qsim._require_finite(amps, (-1,), "amplitudes")
    norm = np.linalg.norm(amps, axis=-1)
    idx = qsim._first_bad(np.abs(norm - 1.0) > CONSTRUCT_ATOL)
    if idx is not None:
        raise StateValidationError(
            f"state is not normalized: norm={float(norm[idx])!r}" + qsim._where(idx)
        )


def reference_check_density_operators(matrices) -> None:
    mats = np.asarray(matrices)
    qsim._require_finite(mats, (-2, -1), "matrix entries")
    adjoint = mats.conj().swapaxes(-1, -2)
    idx = qsim._first_bad(np.abs(mats - adjoint).max(axis=(-2, -1)) > CONSTRUCT_ATOL)
    if idx is not None:
        raise StateValidationError("density operator is not Hermitian" + qsim._where(idx))
    tr = np.trace(mats, axis1=-2, axis2=-1)
    idx = qsim._first_bad(np.abs(tr - 1.0) > CONSTRUCT_ATOL)
    if idx is not None:
        raise StateValidationError(
            f"density operator trace is {complex(tr[idx])!r}, not 1" + qsim._where(idx)
        )
    if mats.shape[-2:] == (2, 2):
        a, d = mats[..., 0, 0].real, mats[..., 1, 1].real
        b = 0.5 * (mats[..., 0, 1] + adjoint[..., 0, 1])
        low = 0.5 * (a + d) - np.hypot(0.5 * (a - d), np.abs(b))
    else:
        herm = qsim._real_if_exact((mats + adjoint) / 2.0)
        if qsim._above_floor_certified(herm):
            return
        low = np.linalg.eigvalsh(herm).min(axis=-1)
    idx = qsim._first_bad(low < EIGENVALUE_FLOOR)
    if idx is not None:
        raise StateValidationError(
            f"density operator has eigenvalue {float(low[idx])!r} < 0" + qsim._where(idx)
        )


def _outcome(check, stack) -> str | None:
    """The message ``check`` raises on ``stack``, or None if it passes."""
    try:
        check(stack)
    except StateValidationError as exc:
        return str(exc)
    return None


def _operator(rng, n: int, low: float, real: bool) -> np.ndarray:
    """Trace-1 n x n operator with smallest eigenvalue ``low``, randomly turned."""
    rest = rng.uniform(0.5, 1.0, n - 1)
    eigenvalues = np.concatenate([[low], rest * (1.0 - low) / rest.sum()])
    u = np.linalg.qr(rng.normal(size=(n, n)))[0] if real else random_unitary(rng, n)
    return (u * eigenvalues) @ u.conj().T


def _density_stack(rng, n: int, real: bool, symmetric: bool) -> np.ndarray:
    stack = np.stack([_operator(rng, n, 0.5 / n, real) for _ in range(SIZE)])
    if symmetric:                              # exactly Hermitian: its own Hermitian part
        stack = (stack + stack.conj().swapaxes(-1, -2)) / 2.0
    return stack


def _corrupt_operator(rng, mat: np.ndarray, kind: str) -> np.ndarray:
    mat = mat.copy()
    if kind == "nan":
        mat[-1, -1] = np.nan
    elif kind == "inf":
        mat[-1, 0] = np.inf
    elif kind == "non-Hermitian":
        mat[0, 1] += 1e-9
    elif kind == "trace":
        mat *= 1.0 + 1e-9
    else:                                      # smallest eigenvalue just below the floor
        mat = _operator(rng, mat.shape[-1], EIGENVALUE_FLOOR - 1e-12, np.isrealobj(mat))
    return mat


OPERATOR_FAULTS = ["nan", "inf", "non-Hermitian", "trace", "eigenvalue"]
STATE_FAULTS = ["nan", "inf", "norm"]


def _corrupt_state(vec: np.ndarray, kind: str) -> np.ndarray:
    vec = vec.copy()
    if kind == "nan":
        vec[-1] = np.nan
    elif kind == "inf":
        vec[0] = np.inf
    else:
        vec *= 1.0 + 1e-9
    return vec


def _faults(kinds):
    """Up to two (fault, stack index) pairs at different indices."""
    return st.lists(st.tuples(st.sampled_from(kinds), st.integers(0, SIZE - 1)),
                    max_size=2, unique_by=lambda fault: fault[1])


class TestDensityOperatorsAsStepByStep:
    @given(st.sampled_from([2, 3, 6]), st.booleans(), st.booleans(),
           _faults(OPERATOR_FAULTS), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_same_verdict_message_and_index(self, n, real, symmetric, faults, seed):
        rng = np.random.default_rng(seed)
        stack = _density_stack(rng, n, real, symmetric)
        for kind, index in faults:
            stack[index] = _corrupt_operator(rng, stack[index], kind)
        want = _outcome(reference_check_density_operators, stack)
        assert (want is None) == (not faults)
        assert _outcome(check_density_operators, stack) == want
        assert _outcome(check_density_operators, stack[None, 1:]) == _outcome(
            reference_check_density_operators, stack[None, 1:])

    @given(st.booleans(), st.booleans(), _faults(OPERATOR_FAULTS), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_z_correction_keeps_the_verdict(self, real, symmetric, faults, seed):
        # Z K Z only negates the off-diagonal entries, exactly, so the
        # verifier checks the kept state K and not its corrected form
        rng = np.random.default_rng(seed)
        stack = _density_stack(rng, 2, real, symmetric)
        for kind, index in faults:
            stack[index] = _corrupt_operator(rng, stack[index], kind)
        corrected = stack.copy()
        for i, j in ((0, 1), (1, 0)):
            np.negative(corrected[:, i, j], out=corrected[:, i, j])
        assert _outcome(check_density_operators, corrected) == _outcome(
            check_density_operators, stack)
        for mat, flipped in zip(stack, corrected):
            assert _outcome(check_density_operators, flipped) == _outcome(
                check_density_operators, mat)

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("first,second", [
        ("trace", "non-Hermitian"), ("non-Hermitian", "nan"), ("eigenvalue", "trace"),
        ("eigenvalue", "inf"), ("nan", "inf"), ("non-Hermitian", "trace"),
    ])
    def test_two_faults_at_different_indices(self, n, real, first, second):
        # the check that runs first names its failure, whichever index comes first
        rng = np.random.default_rng(7)
        for at in ((1, 3), (3, 1)):
            stack = _density_stack(rng, n, real, symmetric=False)
            stack[at[0]] = _corrupt_operator(rng, stack[at[0]], first)
            stack[at[1]] = _corrupt_operator(rng, stack[at[1]], second)
            want = _outcome(reference_check_density_operators, stack)
            assert want is not None and "stack index" in want
            assert _outcome(check_density_operators, stack) == want

    @pytest.mark.parametrize("n", [3, 8, 66])
    def test_valid_real_stack_needs_no_eigvalsh(self, monkeypatch, n):
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", calls.append)
        rng = np.random.default_rng(n)
        for symmetric in (True, False):
            check_density_operators(_density_stack(rng, n, real=True, symmetric=symmetric))
        assert calls == []

    def test_nan_eigenvalue_fails_the_floor(self, monkeypatch):
        monkeypatch.setattr(qsim, "_above_floor_certified", lambda herm: False)
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda herm: np.full(herm.shape[:-1], np.nan))
        with pytest.raises(StateValidationError, match=r"eigenvalue nan < 0 \(stack index \(0,\)"):
            check_density_operators(np.stack([np.eye(3) / 3.0] * 2))

    def test_huge_symmetric_entries_are_not_positive(self):
        # Its Hermitian part, formed as (M + M^T)/2, would overflow to inf.
        mat = np.array([[0.5, 1e308, 0.0], [1e308, 0.5, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(StateValidationError, match="eigenvalue"):
            check_density_operators(mat)


class TestPureStatesAsStepByStep:
    @given(st.sampled_from([1, 2, 8]), st.booleans(), _faults(STATE_FAULTS),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_same_verdict_message_and_index(self, n, real, faults, seed):
        rng = np.random.default_rng(seed)
        stack = rng.normal(size=(SIZE, n))
        if not real:
            stack = stack + 1j * rng.normal(size=(SIZE, n))
        stack /= np.linalg.norm(stack, axis=-1, keepdims=True)
        for kind, index in faults:
            stack[index] = _corrupt_state(stack[index], kind)
        want = _outcome(reference_check_pure_states, stack)
        assert (want is None) == (not faults)
        assert _outcome(check_pure_states, stack) == want
        assert _outcome(check_pure_states, stack[2]) == _outcome(reference_check_pure_states,
                                                                 stack[2])
