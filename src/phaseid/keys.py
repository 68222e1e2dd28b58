"""Key material over discrete phases, and the phase-averaging identities.

A private key holds exact phases k/p as an integer array of the
numerators k over one modulus p; the matching public-key element is
the qubit (|0> + e^{2 pi i k/p}|1>)/sqrt(2). Phases live as integers
so nothing drifts: the only floats appear when angles or state vectors
are actually built.

The module also carries the two averaging facts the security analysis
rests on: the discrete uniform average of e^{2 pi i a k / p} vanishes
unless p divides a, and a uniform phase mixture of n-fold product keys
equals the binomially weighted mixture of Hamming-weight states
whenever p >= n + 1. The second is the first read entry by entry: the
product keys' entry for labels of Hamming weights w and v averages
e^{2 pi i (w - v) k / p}, so the phase means of the 2n + 1 weight
differences give every average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import VARIANTS
from .errors import NumericalError, _require_int
from .qsim import DensityOperator, PureState, check_pure_states
from .rng import make_rng
from .tolerances import CONSTRUCT_ATOL

__all__ = [
    "ProtocolParams",
    "PhaseFraction",
    "PrivateKey",
    "phase_angles",
    "phase_bases",
    "generate_private_key",
    "public_key_state",
    "averaged_key_operator_discrete",
    "averaged_key_operators",
    "symmetric_mixture",
    "private_key_payload",
    "public_key_descriptor",
]

# Bitstring enumeration cap (memory, not correctness): the weight mixture
# and the phase averages are 2^n x 2^n float64 matrices, 8 MiB each at n = 10.
_MAX_N = 10

# Largest phase modulus: every numerator k <= p is an int64.
_MAX_P = 2**63 - 1


def phase_angles(ks, p):
    """Angle 2 pi (k mod p)/p of the phase k/p; k = p maps to +0.0.

    Broadcasts over ``ks`` and ``p``: integers give a float, integer
    arrays an array. Every key phase's angle is made here.
    """
    return 2.0 * math.pi * (ks % p) / p


def phase_bases(angles) -> np.ndarray:
    """Phase bases for an array of angles, shape ``angles.shape + (2, 2)``.

    Axis -2 is the outcome (0 for "+", 1 for "-"), axis -1 the component:
    (|0> +- e^{i angle}|1>)/sqrt(2). The "+" vector is the public-key
    element of the angle. The verifier kernel's and ``verify-identities``'
    public-key qubits are made here; the adversary's dense oracle takes
    its grid's phases from its own table of unit roots, in real
    arithmetic, and the tests check it against these bases.
    """
    inv = 1.0 / math.sqrt(2.0)
    ph = np.exp(1j * np.asarray(angles, dtype=np.float64))
    bases = np.empty(ph.shape + (2, 2), dtype=np.complex128)
    bases[..., 0] = inv
    bases[..., 0, 1] = inv * ph
    bases[..., 1, 1] = -inv * ph
    return bases


@dataclass(frozen=True)
class ProtocolParams:
    """Reusability r and repetition count s, stored as ints, and phase-set variant."""

    r: int
    s: int
    variant: str = "standard"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        # p, r + 1 or 2r + 1, must not exceed _MAX_P
        top = (_MAX_P - 1) // (1 if self.variant == "standard" else 2)
        object.__setattr__(self, "r", _require_int("r", self.r, 1, top))
        object.__setattr__(self, "s", _require_int("s", self.s, 1))

    @property
    def p(self) -> int:
        """Phase modulus: r+1 normally, 2r+1 for the hardened variant."""
        return self.r + 1 if self.variant == "standard" else 2 * self.r + 1


@dataclass(frozen=True)
class PhaseFraction:
    """Exact phase k/p of a full turn, with integers 1 <= k <= p, stored as ints."""

    k: int
    p: int

    def __post_init__(self):
        object.__setattr__(self, "p", _require_int("p", self.p, 1))
        object.__setattr__(self, "k", _require_int("k", self.k, 1, self.p))

    def angle(self) -> float:
        """Angle 2*pi*k/p, reduced so k = p maps to exactly 0.0."""
        return phase_angles(self.k, self.p)


@dataclass(frozen=True, init=False, eq=False)
class PrivateKey:
    """Phases k/p, one per kernel round: a read-only int64 array ``ks`` over modulus ``p``.

    ``PrivateKey(xs)`` takes PhaseFraction values sharing one modulus;
    ``PrivateKey.from_ks`` takes the numerators as an array.
    """

    ks: np.ndarray
    p: int

    def __init__(self, xs):
        xs = tuple(xs)
        if not xs:
            raise ValueError("private key needs at least one entry")
        p = _require_int("p", xs[0].p, 1, _MAX_P)
        if any(x.p != p for x in xs):
            raise ValueError("all key entries must share one modulus")
        self._set(np.array([x.k for x in xs], dtype=np.int64), p)

    @classmethod
    def from_ks(cls, ks, p: int) -> "PrivateKey":
        """Key of the numerators ``ks`` over ``p``; every one must lie in 1..p.

        Floats, bools and strings, in ``ks`` or as ``p``, raise ValueError
        rather than being truncated or compared, as does a p above _MAX_P.
        """
        p = _require_int("p", p, 1, _MAX_P)
        ks = np.array(ks)
        if ks.ndim != 1 or ks.size == 0:
            raise ValueError("private key needs a nonempty one-dimensional array of phases")
        if not np.issubdtype(ks.dtype, np.integer):
            raise ValueError(f"k must be integers in 1..{p}, got dtype {ks.dtype}")
        bad = np.flatnonzero((ks < 1) | (ks > p))
        if bad.size:
            raise ValueError(f"k must lie in 1..{p}, got {ks[bad[0]]}")
        key = cls.__new__(cls)
        key._set(ks.astype(np.int64, copy=False), p)    # ks is already a copy
        return key

    def _set(self, ks: np.ndarray, p: int) -> None:
        ks.setflags(write=False)
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "p", p)

    def __eq__(self, other):
        if not isinstance(other, PrivateKey):
            return NotImplemented
        return self.p == other.p and np.array_equal(self.ks, other.ks)

    def __hash__(self):
        return hash((self.p, self.ks.tobytes()))

    @property
    def s(self) -> int:
        return self.ks.size


def generate_private_key(params: ProtocolParams, seed: int) -> PrivateKey:
    """Draw s phases uniformly from {1..p}, deterministically in ``seed``."""
    rng = make_rng(seed)
    return PrivateKey.from_ks(rng.integers(1, params.p + 1, size=params.s), params.p)


def public_key_state(x: PhaseFraction) -> PureState:
    """The public-key element of the phase k/p: (|0> + e^{2 pi i k/p}|1>)/sqrt(2)."""
    return PureState((2,), phase_bases(x.angle())[0])


def _weights(n: int) -> np.ndarray:
    """Hamming weight of every n-bit index, big-endian irrelevant here."""
    idx = np.arange(2**n, dtype=np.uint32)
    w = np.zeros(2**n, dtype=np.int64)
    for b in range(n):
        w += (idx >> b) & 1
    return w


def averaged_key_operator_discrete(p: int, n: int) -> DensityOperator:
    """Uniform average of (|psi_x><psi_x|)^(x n) over x in {1..p}.

    The one-modulus case of ``averaged_key_operators``, validated as a
    density operator.
    """
    matrix = averaged_key_operators((p,), n)[0]
    return DensityOperator((2,) * n, matrix)


def averaged_key_operators(ps, n: int) -> np.ndarray:
    """Uniform averages of (|psi_x><psi_x|)^(x n) over x in {1..p}, one per p of ``ps``.

    Returns a float64 stack of shape (len(ps), 2^n, 2^n); no moduli give
    an empty stack. The entry for labels of Hamming weights w and v is
    2^-n times the mean of e^{2 pi i (w - v) k / p} over k = 1..p, which
    is 1 or 0: the ``_phase_average_rows`` of the differences -n..n,
    gathered per pair of labels into one C-contiguous stack, give every
    average, each bit for bit its own call's value. Those rows check the
    imaginary parts, rounding noise, against CONSTRUCT_ATOL, modulus by
    modulus in order, and NumericalError names the first exponent and
    modulus that fail.
    The averages are not validated as density operators here: the
    caller validates them, with whatever else it builds, in one stacked
    check.
    """
    ps = [_require_int("p", p, 2) for p in ps]
    n = _require_int("n", n, 1, _MAX_N)
    w = _weights(n)
    means = _phase_average_rows(np.arange(-n, n + 1), ps)
    return 2.0**-n * np.take(means, w[:, None] - w + n, axis=1)


def _weight_states(n: int) -> np.ndarray:
    """Amplitudes of the weight-w states of n qubits, one row per w = 0..n.

    Row w is the uniform superposition of the bitstrings with w ones:
    each basis label's amplitude sits in the row of its Hamming weight.
    """
    weights = _weights(n)
    norms = 1.0 / np.sqrt([float(math.comb(n, w)) for w in range(n + 1)])
    amps = np.zeros((n + 1, 2**n), dtype=np.complex128)
    amps[weights, np.arange(2**n)] = norms[weights]
    return amps


def _symmetric_mixture_matrix(n: int) -> np.ndarray:
    """The matrix of ``symmetric_mixture``, not validated as a density operator.

    The n+1 weight states are built as one array and validated once as
    pure states.
    """
    n = _require_int("n", n, 1, _MAX_N)
    states = _weight_states(n)
    check_pure_states(states)
    real = states.real                      # every weight state's amplitudes are real
    coeffs = np.array([math.comb(n, w) / 2**n for w in range(n + 1)])
    return (real.T * coeffs) @ real


def symmetric_mixture(n: int) -> DensityOperator:
    """Mixture sum_w C(n,w)/2^n |S_w><S_w| over weight states."""
    matrix = _symmetric_mixture_matrix(n)
    return DensityOperator((2,) * n, matrix)


def _phase_means(a, ps) -> np.ndarray:
    """(1/p) sum_{k=1..p} e^{2 pi i a k / p} for each p of ``ps``, complex.

    ``a`` is an array of exponents. Row i holds the means of ``ps[i]``
    at every exponent of ``a``, from one exponential pass over that
    modulus alone, so memory grows with the largest modulus, not with
    their sum.
    """
    turns = 2j * np.pi * np.asarray(a)[..., None]
    means = np.empty((len(ps),) + turns.shape[:-1], dtype=np.complex128)
    for i, p in enumerate(ps):
        means[i] = np.exp(turns * np.arange(1, p + 1) / p).sum(axis=-1) / p
    return means


def _phase_average_rows(a, ps) -> np.ndarray:
    """The real means (1/p) sum_{k=1..p} e^{2 pi i a k / p}, one row per p of ``ps``.

    ``a`` is an array of exponents. Each mean is 1 when p divides its
    exponent and 0 otherwise; the sum is evaluated explicitly
    (``_phase_means``), and its imaginary part must vanish to
    CONSTRUCT_ATOL. No moduli give an empty ``(0,) + a.shape`` array.
    The imaginary parts are checked modulus by modulus, in order, and
    NumericalError names the first modulus and exponent that fail.
    """
    ps = tuple(_require_int("p", p, 1) for p in ps)
    vals = _phase_means(a, ps)
    bad = np.flatnonzero(~(np.abs(vals.imag) <= CONSTRUCT_ATOL))    # NaN fails too
    if bad.size:
        row, i = divmod(int(bad[0]), np.size(a))
        raise NumericalError(
            f"phase average at a={np.ravel(a)[i]}, p={ps[row]} has imaginary part "
            f"{float(np.ravel(vals)[bad[0]].imag)!r}"
        )
    return vals.real.copy()


def private_key_payload(params: ProtocolParams, seed: int, key: PrivateKey) -> dict:
    """Serializable form of a private key. Contains the raw phases."""
    return {
        "r": params.r,
        "s": params.s,
        "variant": params.variant,
        "seed": seed,
        "xs": key.ks.tolist(),
        "p": params.p,
    }


def public_key_descriptor(params: ProtocolParams) -> dict:
    """Public description of a key: modulus and element count, never its phases."""
    return {"p": params.p, "xs_redacted": True, "elements": params.s}
