import math

import numpy as np

from phaseid import protocol
from phaseid.adversary import _frame_magnitudes
from phaseid.errors import DimensionMismatchError
from phaseid.keys import PhaseFraction, phase_bases
from phaseid.qsim import PureState
from phaseid.tolerances import CONSTRUCT_ATOL, EIGENVALUE_FLOOR


def basis_state(dims, labels) -> PureState:
    """Computational basis state |labels...> over the given registers (big-endian)."""
    amps = np.zeros(math.prod(dims), dtype=np.complex128)
    amps[np.ravel_multi_index(labels, dims)] = 1.0
    return PureState(dims, amps)


def overlap(a: PureState, b: PureState) -> complex:
    """Inner product <a|b>. Requires identical register layouts."""
    if a.dims != b.dims:
        raise DimensionMismatchError(f"layouts differ: {a.dims} vs {b.dims}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def equal_up_to_global_phase(a: PureState, b: PureState) -> bool:
    """Whether |<a|b>| = 1 within CONSTRUCT_ATOL."""
    return abs(abs(overlap(a, b)) - 1.0) <= CONSTRUCT_ATOL


def random_pure_state(rng, dims) -> PureState:
    """Haar-ish random state: normalized complex Gaussian amplitudes."""
    n = int(np.prod(dims))
    vec = rng.normal(size=n) + 1j * rng.normal(size=n)
    return PureState(tuple(dims), vec / np.linalg.norm(vec))


def random_unitary(rng, d: int) -> np.ndarray:
    """Haar-distributed unitary from the QR decomposition."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def record_density_checks(monkeypatch) -> list:
    """Wrap the verifier kernel's ``check_density_operators``.

    Returns the list that receives a copy of every stack it is given;
    each stack is still checked.
    """
    real = protocol.check_density_operators
    seen = []

    def record(states):
        seen.append(np.array(states))
        real(states)

    monkeypatch.setattr(protocol, "check_density_operators", record)
    return seen


def reference_sampled_records(key, seed, branches):
    """Reference loop: two scalar draws per round, response then SWAP test.

    ``branches(x)`` gives one round's ((prob, pass), (prob, pass)) rows.
    """
    rng = np.random.default_rng(seed)
    records = []
    for j, x in enumerate((PhaseFraction(k, key.p) for k in key.ks.tolist()), start=1):
        low, high = branches(x)
        bit = 0 if rng.random() < low[0] else 1
        passed = bool(rng.random() < (low, high)[bit][1])
        records.append((j, bit, passed))
    return records


def reference_pass_probabilities(kept, bits, angles):
    """Reference for the verifier's step over a stack of kept 2x2 states.

    Built from matrix products, traces and ``eigvalsh``: Z rho Z for bit
    1, then (1 + tr(rho sigma))/2 against the authentic copy sigma of
    each angle. Every operator must be positive to EIGENVALUE_FLOOR.
    """
    z = np.diag([1.0, -1.0]).astype(np.complex128)
    corrected = np.where((np.asarray(bits) == 1)[:, None, None], z @ kept @ z, kept)
    authentic = np.stack([np.ones_like(angles), np.exp(1j * angles)], axis=-1) / np.sqrt(2.0)
    sigma = authentic[:, :, None] * authentic.conj()[:, None, :]
    for ops in (kept, corrected, sigma):
        assert np.linalg.eigvalsh(ops).min() >= EIGENVALUE_FLOOR
    return 0.5 * (1.0 + np.trace(corrected @ sigma, axis1=-2, axis2=-1).real)


def frame_vector(t: int, angle) -> np.ndarray:
    """Weight-basis amplitudes of t phase-state copies at a given angle.

    Entry w is sqrt(C(t,w)/2^t) e^{i w angle}; the t-qubit product state
    lives entirely in the symmetric subspace, so this (t+1)-vector is
    the whole story. An array of angles gives one vector per angle, on
    a trailing axis. The phases are cos + i sin of the real exponents,
    the value ``np.exp`` gives on an imaginary argument.
    """
    exponent = np.multiply.outer(angle, np.arange(t + 1))
    phases = np.empty(np.shape(exponent), dtype=np.complex128)
    np.cos(exponent, out=phases.real)
    np.sin(exponent, out=phases.imag)
    return _frame_magnitudes(t) * phases


def challenge_and_frame(angles, t: int, sign: int) -> np.ndarray:
    """(|0> + sign e^{i angle}|1>)/sqrt(2) (x) frame(angle) for each angle.

    The complex route to the discrimination pair's amplitudes: the
    qubit is the sign's row of ``keys.phase_bases``. Shape
    ``np.shape(angles) + (2, t+1)``: (received qubit, frame weight).
    """
    qubit = phase_bases(angles)[..., (1 - sign) // 2, :]
    return qubit[..., :, None] * frame_vector(t, angles)[..., None, :]


def helstrom_project(t: int, psi) -> tuple[np.ndarray, np.ndarray]:
    """(P+ psi, P- psi) of the Helstrom measurement for t copies, sector by sector.

    The projector oracle. The last two axes of ``psi`` are (received
    qubit, frame weight), of shape (2, t+1); any leading axes are
    carried along. In each interior sector n = b + w, P+ projects onto
    (|0,n> + |1,n-1>)/sqrt(2); the end sectors |0,0> and |1,t> go to P+.
    """
    psi = np.asarray(psi)
    assert psi.shape[-2:] == (2, t + 1), psi.shape
    zero, one = psi[..., 0, :], psi[..., 1, :]
    mid = 0.5 * (zero[..., 1:] + one[..., :-1])
    plus = np.empty_like(psi)
    plus[..., 0, 0] = zero[..., 0]
    plus[..., 0, 1:] = mid
    plus[..., 1, :-1] = mid
    plus[..., 1, -1] = one[..., -1]
    return plus, psi - plus


def helstrom_projector_plus(t: int) -> np.ndarray:
    """Dense 2(t+1)-dimensional matrix of the Helstrom P+ for t copies."""
    dim = 2 * (t + 1)
    columns, _ = helstrom_project(t, np.eye(dim, dtype=np.complex128).reshape(dim, 2, t + 1))
    return columns.reshape(dim, dim).T
