import numpy as np

from phaseid.qsim import PureState


def random_pure_state(rng, dims) -> PureState:
    """Haar-ish random state: normalized complex Gaussian amplitudes."""
    n = int(np.prod(dims))
    vec = rng.normal(size=n) + 1j * rng.normal(size=n)
    return PureState.build(vec, tuple(dims), normalize=True)


def random_unitary(rng, d: int) -> np.ndarray:
    """Haar-distributed unitary from the QR decomposition."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def reference_sampled_records(key, seed, branches):
    """Reference loop: two scalar draws per round, response then SWAP test.

    ``branches(x)`` gives one round's ((prob, pass), (prob, pass)) rows.
    """
    rng = np.random.default_rng(seed)
    records = []
    for j, x in enumerate(key.xs, start=1):
        low, high = branches(x)
        bit = 0 if rng.random() < low[0] else 1
        passed = bool(rng.random() < (low, high)[bit][1])
        records.append((j, bit, passed))
    return records
