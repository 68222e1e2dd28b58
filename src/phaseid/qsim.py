"""Exact finite-dimensional quantum state algebra.

Pure states are amplitude vectors over an explicit register layout and
density operators are Hermitian, positive, trace-one matrices. Indexing
is big-endian throughout: the first register is the most significant
digit of the flat index. Values are immutable after construction and
every operation returns a new value, so states can be shared freely.

The scalar operations on single values are ``measure_in_basis``,
``partial_trace``, ``tensor``, ``swap_test_pass_probability_mixed`` and
``trace_norm``. No command calls them; the tests check the stacked
kernel and the dense oracle against them.

A measurement returns every branch with its Born probability; nothing
in this module draws random numbers.

Each construction invariant is written once, in a validator that takes
a stack of values on leading axes: ``check_pure_states``,
``check_density_operators`` and ``check_orthonormal_bases``. The value
classes and ``measure_in_basis`` call them on a single value; batched
callers call them once on a whole stack. A passing stack costs one
fused test per validator; only a failing one runs the checks one by
one, to name the first failure. On a stack of 2x2 operators, the form
every kept qubit of a session takes, the positivity check uses the
closed-form smallest eigenvalue instead of ``eigvalsh``. On larger
operators one Cholesky factorisation of the shifted Hermitian part
certifies positivity; ``eigvalsh`` runs only when that certificate
fails, to decide and to report the offending eigenvalue. Either LAPACK
call takes a real, exactly symmetric matrix as it is, and a Hermitian
part whose imaginary part is exactly zero as a real symmetric matrix.
A density operator built from a real matrix stays real (float64); any
other input is stored as complex128.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidBasisError, StateValidationError
from .tolerances import (
    CONSTRUCT_ATOL,
    EIGENVALUE_FLOOR,
    HERMITIAN_ATOL,
    ZERO_BRANCH_PROB,
)

__all__ = [
    "PureState",
    "DensityOperator",
    "MeasurementResult",
    "PAULI_Z",
    "tensor",
    "measure_in_basis",
    "swap_test_pass_probability_mixed",
    "partial_trace",
    "trace_norm",
    "check_pure_states",
    "check_density_operators",
    "check_orthonormal_bases",
]

PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def _first_bad(bad: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first flagged value of a stack (() for a single value), or None."""
    if not bad.any():
        return None
    return tuple(int(i) for i in np.argwhere(bad)[0])


def _where(idx: tuple[int, ...]) -> str:
    return f" (stack index {idx})" if idx else ""


def _require_finite(arr: np.ndarray, core_axes: tuple[int, ...], what: str) -> None:
    idx = _first_bad(~np.isfinite(arr).all(axis=core_axes))
    if idx is not None:
        raise StateValidationError(f"{what} must be finite" + _where(idx))


def _as_complex_vector(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128).reshape(-1).copy()
    _require_finite(arr, (-1,), "amplitudes")
    return arr


def check_pure_states(amplitudes) -> None:
    """Validate amplitude vectors on the last axis of a stack.

    Every amplitude must be finite and every vector must have unit norm
    to CONSTRUCT_ATOL. Leading axes index the stack; a 1-D array is one
    state. Raises StateValidationError naming the first failing index.

    A passing stack costs one test, of the norm deviation, which is NaN
    or inf wherever an amplitude is not finite. Only a stack that fails
    it runs the checks in turn, so the first failure is named as before.
    """
    amps = np.asarray(amplitudes)
    with np.errstate(invalid="ignore"):                 # non-finite input fails below
        norm = np.linalg.norm(amps, axis=-1)
    deviation = np.abs(norm - 1.0)
    if (deviation <= CONSTRUCT_ATOL).all():
        return
    _require_finite(amps, (-1,), "amplitudes")
    idx = _first_bad(deviation > CONSTRUCT_ATOL)
    raise StateValidationError(
        f"state is not normalized: norm={float(norm[idx])!r}" + _where(idx)
    )


def _real_if_exact(herm: np.ndarray) -> np.ndarray:
    """The real part of a Hermitian stack whose imaginary part is exactly zero.

    Such a stack is real symmetric, and LAPACK's real routines (syevd,
    potrf) give the same answers on it to rounding, at a fraction of the
    cost of the complex ones. Any nonzero imaginary entry keeps the
    whole stack complex.
    """
    if np.iscomplexobj(herm) and herm.imag.any():
        return herm
    return herm.real


def _cholesky_margin(n: int) -> float:
    """delta(n) = 4 (n+1) eps: the rounding slack of one n x n Cholesky.

    Not a tolerance: a proven bound, derived in ``_above_floor_certified``.
    """
    return 4.0 * (n + 1) * float(np.finfo(np.float64).eps)


def _above_floor_certified(herm: np.ndarray) -> bool:
    """Whether one Cholesky factorisation proves lambda_min >= EIGENVALUE_FLOOR.

    ``herm`` is a stack of exactly Hermitian n x n matrices, real or
    complex, each with trace 1 to CONSTRUCT_ATOL. Each is shifted by
    c = EIGENVALUE_FLOOR + delta(n) (``_cholesky_margin``) and the whole
    stack is factorised. True means the factorisation ran to completion,
    which proves lambda_min(H) >= EIGENVALUE_FLOOR for every H of the
    stack; False proves nothing. When c >= 0 (n >= 112589) no
    factorisation is tried.

    Proof, with u = eps/2 = 2^-53 the unit roundoff and
    gamma_k = k u / (1 - k u):

    - Forming A = H - c I rounds only the diagonal, so the stored matrix
      is A' = A + F with F diagonal and |F_ii| <= u |A'_ii|.
    - Cholesky backward error (Higham, *Accuracy and Stability of
      Numerical Algorithms*, 2nd ed., Theorem 10.3): if the factorisation
      of A' runs to completion, the computed R satisfies
      R^H R = A' + E with |E| <= gamma_{n+1} |R^H| |R| elementwise. Its
      proof uses only that the factorisation completes, not that A' is
      positive definite, and holds for any order of evaluating the inner
      products, so for LAPACK's blocked potrf too. In complex arithmetic
      every multiplication has relative error at most sqrt(2) gamma_2 < 3u
      and every addition at most u (Higham, Lemma 3.5), so the same
      argument gives gamma_{3(n+1)}; take g = gamma_{4(n+1)} for both.
    - Norms: ||E||_2 <= g || |R^H| |R| ||_2 <= g || |R| ||_F^2
      = g ||R||_F^2 = g tr(R^H R) = g (tr A' + tr E), and
      |tr E| <= g ||R||_F^2, so ||E||_2 <= g tr A' / (1 - g). Since
      |E_ii| <= g (R^H R)_ii, every A'_ii >= 0, and
      ||F||_2 <= u max A'_ii <= u tr A'. Bounding by the trace, which is
      about 1 here, in place of n ||R||_2^2 saves the factor n of the
      usual normwise bound.
    - tr A' <= (1 + u)(tr H - n c). The trace check bounds tr H by
      1 + CONSTRUCT_ATOL plus rounding, and -n c < n 1e-10 < 1.2e-5
      since c < 0 only for n < 112589. So tr A' < 1 + 2e-5, g < 5e-11,
      and ||E||_2 + ||F||_2 < (4 (n+1) + 1) u (1 + 1e-4)
      < 8 (n+1) u = delta(n).
    - R^H R is positive semidefinite, so lambda_min(A') >= -||E||_2,
      lambda_min(A) >= -||E||_2 - ||F||_2 > -delta(n), and
      lambda_min(H) = lambda_min(A) + c > EIGENVALUE_FLOOR.

    A pass thus admits only matrices whose exact smallest eigenvalue
    meets the floor, and a failure falls back to ``eigvalsh``: the
    admitted set never grows past that of the eigenvalue test.
    """
    n = herm.shape[-1]
    shift = EIGENVALUE_FLOOR + _cholesky_margin(n)
    if shift >= 0.0:
        return False
    shifted = herm.copy()
    diagonal = np.arange(n)
    shifted[..., diagonal, diagonal] -= shift
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def check_density_operators(matrices) -> None:
    """Validate square matrices on the last two axes of a stack.

    Every entry must be finite; every matrix must be Hermitian and have
    trace 1, both to CONSTRUCT_ATOL; and no eigenvalue of its Hermitian
    part may lie below EIGENVALUE_FLOOR. Leading axes index the stack; a
    2-D array is one operator. Raises StateValidationError naming the
    first failing index.

    A passing stack costs one fused test of the Hermitian gap
    max |M - M^dagger| and the trace; the gap is NaN or inf wherever an
    entry is not finite, so the same test also refuses those. Only a
    stack that fails it runs the checks in turn, reusing the gap and the
    trace, so the first failure and its stack index are named as if each
    check had run on its own.

    For 2x2 matrices the smallest eigenvalue of the Hermitian part
    [[a, b], [conj b, d]] is taken in closed form,
    (a + d)/2 - hypot((a - d)/2, |b|), with no LAPACK call. Larger
    matrices are first certified by one shifted Cholesky factorisation
    (``_above_floor_certified``); only when that fails does ``eigvalsh``
    decide, and name the smallest eigenvalue of a failure. Both run on
    the matrix itself when it is real and exactly symmetric, since it is
    then its own Hermitian part bit for bit, and otherwise take the real
    part alone when the Hermitian part's imaginary part is exactly zero
    (see ``_real_if_exact``). All are compared with the same floor; a
    NaN eigenvalue fails it.
    """
    mats = np.asarray(matrices)
    adjoint = mats.swapaxes(-1, -2)
    if np.iscomplexobj(mats):
        adjoint = adjoint.conj()
    with np.errstate(invalid="ignore"):                 # non-finite input fails below
        gap = np.abs(mats - adjoint).max(axis=(-2, -1))
        tr = np.trace(mats, axis1=-2, axis2=-1)
    if not ((gap <= CONSTRUCT_ATOL) & (np.abs(tr - 1.0) <= CONSTRUCT_ATOL)).all():
        _require_finite(mats, (-2, -1), "matrix entries")
        idx = _first_bad(gap > CONSTRUCT_ATOL)
        if idx is not None:
            raise StateValidationError("density operator is not Hermitian" + _where(idx))
        idx = _first_bad(np.abs(tr - 1.0) > CONSTRUCT_ATOL)
        raise StateValidationError(
            f"density operator trace is {complex(tr[idx])!r}, not 1" + _where(idx)
        )
    if mats.shape[-2:] == (2, 2):
        a, d = mats[..., 0, 0].real, mats[..., 1, 1].real
        b = 0.5 * (mats[..., 0, 1] + adjoint[..., 0, 1])
        low = 0.5 * (a + d) - np.hypot(0.5 * (a - d), np.abs(b))
    else:
        if mats.dtype.kind == "f" and not gap.any():
            herm = mats
        else:
            herm = _real_if_exact((mats + adjoint) / 2.0)
        if _above_floor_certified(herm):
            return
        low = np.linalg.eigvalsh(herm).min(axis=-1)
    idx = _first_bad(~(low >= EIGENVALUE_FLOOR))
    if idx is not None:
        raise StateValidationError(
            f"density operator has eigenvalue {float(low[idx])!r} < 0" + _where(idx)
        )


def check_orthonormal_bases(bases) -> None:
    """Validate bases of row vectors on the last two axes of a stack.

    Row i of each (n, d) matrix is basis vector i; the Gram matrix must
    equal the identity to CONSTRUCT_ATOL, so a NaN or infinite entry
    fails. Raises InvalidBasisError naming the first failing index.
    """
    vecs = np.asarray(bases)
    gram = vecs.conj() @ vecs.swapaxes(-1, -2)
    off = np.abs(gram - np.eye(vecs.shape[-2])).max(axis=(-2, -1))
    idx = _first_bad(~(off <= CONSTRUCT_ATOL))
    if idx is not None:
        raise InvalidBasisError("basis is not orthonormal within tolerance" + _where(idx))


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over ``dims`` registers (big-endian)."""

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise StateValidationError(f"register dims must be positive, got {dims}")
        amps = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1).copy()
        if amps.size != math.prod(dims):
            raise StateValidationError(
                f"amplitude count {amps.size} does not match dims {dims}"
            )
        check_pure_states(amps)
        amps.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amps)

    def as_tensor(self) -> np.ndarray:
        return self.amplitudes.reshape(self.dims)


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian, positive semidefinite, trace-one matrix over ``dims``.

    ``matrix`` is a read-only copy of the input: float64 when the input
    is real, complex128 otherwise (even with a zero imaginary part).
    """

    dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise StateValidationError(f"register dims must be positive, got {dims}")
        d = math.prod(dims)
        raw = np.asarray(self.matrix)
        mat = raw.astype(np.float64 if np.isrealobj(raw) else np.complex128)
        if mat.shape != (d, d):
            raise StateValidationError(f"matrix shape {mat.shape} does not match dims {dims}")
        check_density_operators(mat)
        mat.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def from_pure(cls, state: PureState) -> "DensityOperator":
        v = state.amplitudes
        return cls(state.dims, np.outer(v, v.conj()))


@dataclass(frozen=True)
class MeasurementResult:
    """One branch of a projective measurement.

    ``post_state`` keeps the full register layout with the measured
    register collapsed onto its outcome vector, or is None when the
    branch probability is too small to renormalize.
    """

    outcome: int
    probability: float
    post_state: PureState | None


def tensor(a: PureState, b: PureState) -> PureState:
    """Kronecker product; ``a`` supplies the more significant registers."""
    return PureState(a.dims + b.dims, np.kron(a.amplitudes, b.amplitudes))


def _collapse_register(state: PureState, register: int, vec: np.ndarray, prob: float) -> PureState:
    """Post-measurement state with ``register`` collapsed onto ``vec``."""
    inner = np.tensordot(vec.conj(), state.as_tensor(), axes=([0], [register]))
    post = np.moveaxis(np.multiply.outer(inner, vec), -1, register)
    return PureState(state.dims, post.reshape(-1) / math.sqrt(prob))


def measure_in_basis(state: PureState, register: int, basis):
    """Projective measurement of a qubit register in a two-vector basis.

    basis: pair of orthonormal length-2 vectors; outcome i corresponds
    to basis[i]. Returns both MeasurementResults; branches of negligible
    probability carry post_state None.
    """
    register = int(register)
    if not 0 <= register < len(state.dims):
        raise DimensionMismatchError(f"register {register} out of range for layout {state.dims}")
    if state.dims[register] != 2:
        raise DimensionMismatchError("measure_in_basis requires a qubit register")
    b0 = _as_complex_vector(basis[0])
    b1 = _as_complex_vector(basis[1])
    if b0.size != 2 or b1.size != 2:
        raise InvalidBasisError("basis vectors must have length 2")
    check_orthonormal_bases(np.stack([b0, b1]))

    branches = []
    for outcome, vec in enumerate((b0, b1)):
        inner = np.tensordot(vec.conj(), state.as_tensor(), axes=([0], [register]))
        prob = float(np.sum(np.abs(inner) ** 2))
        post = None
        if prob >= ZERO_BRANCH_PROB:
            post = _collapse_register(state, register, vec, prob)
        branches.append(MeasurementResult(outcome, prob, post))

    total = branches[0].probability + branches[1].probability
    if abs(total - 1.0) > CONSTRUCT_ATOL:
        raise StateValidationError(f"branch probabilities sum to {total!r}")
    return tuple(branches)


def swap_test_pass_probability_mixed(rho: DensityOperator, sigma: DensityOperator) -> float:
    """SWAP-test pass probability (1 + tr(rho sigma)) / 2 for mixed inputs."""
    if rho.dims != sigma.dims:
        raise DimensionMismatchError(f"layouts differ: {rho.dims} vs {sigma.dims}")
    val = complex(np.trace(rho.matrix @ sigma.matrix))
    return 0.5 * (1.0 + val.real)


def partial_trace(obj: PureState | DensityOperator, keep) -> DensityOperator:
    """Reduced density operator on the ``keep`` registers (ascending order).

    Keeping every register of a pure state yields its projector.
    """
    keep = tuple(int(k) for k in keep)
    if not keep:
        raise DimensionMismatchError("must keep at least one register")
    if len(set(keep)) != len(keep) or list(keep) != sorted(keep):
        raise DimensionMismatchError(f"keep must be strictly ascending, got {keep}")
    n = len(obj.dims)
    for k in keep:
        if not 0 <= k < n:
            raise DimensionMismatchError(f"register {k} out of range for layout {obj.dims}")
    traced = tuple(i for i in range(n) if i not in keep)
    kept_dims = tuple(obj.dims[k] for k in keep)
    dk = math.prod(kept_dims)

    if isinstance(obj, PureState):
        tens = obj.as_tensor()
        if not traced:
            return DensityOperator.from_pure(obj)
        red = np.tensordot(tens, tens.conj(), axes=(traced, traced))
        return DensityOperator(kept_dims, red.reshape(dk, dk))

    tens = obj.matrix.reshape(obj.dims + obj.dims)
    k_live = n
    for reg in sorted(traced, reverse=True):
        tens = np.trace(tens, axis1=reg, axis2=reg + k_live)
        k_live -= 1
    return DensityOperator(kept_dims, tens.reshape(dk, dk))


def trace_norm(matrix) -> float:
    """Trace norm (sum of absolute eigenvalues) of a Hermitian matrix."""
    mat = np.asarray(matrix, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {mat.shape}")
    if np.max(np.abs(mat - mat.conj().T)) > HERMITIAN_ATOL:
        raise StateValidationError("trace_norm input is not Hermitian within tolerance")
    eigs = np.linalg.eigvalsh(_real_if_exact((mat + mat.conj().T) / 2.0))
    return float(np.sum(np.abs(eigs)))
