import numpy as np
import pytest

from qdiscrim import DensityMatrix2Q, PureState2Q
from qdiscrim.linalg import kron
from qdiscrim.measurement import TomographyRecord

_S = 1.0 / np.sqrt(2.0)
# The H, V, D, A, R, L polarisation kets, written out here.
SIX_KETS = [np.array(v, dtype=complex) for v in
            ([1, 0], [0, 1], [_S, _S], [_S, -_S], [_S, 1j * _S], [_S, -1j * _S])]
# The 36 tomography projectors, Alice's ket major, built with np.kron of the
# kets' projectors: an oracle independent of the package's design matrix.
TOMO_PROJECTORS = np.array([np.kron(np.outer(a, a.conj()), np.outer(b, b.conj()))
                            for a in SIX_KETS for b in SIX_KETS])


def random_pure(rng) -> PureState2Q:
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    return PureState2Q(v / np.linalg.norm(v))


def random_orthogonal_pair(rng) -> tuple[PureState2Q, PureState2Q]:
    a = random_pure(rng)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    v -= np.vdot(a.vec, v) * a.vec
    return a, PureState2Q(v / np.linalg.norm(v))


def random_density(rng, rank: int = 4) -> DensityMatrix2Q:
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    m = g @ g.conj().T
    return DensityMatrix2Q(m / m.trace().real)


def random_unitary2(rng) -> np.ndarray:
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def apply_local(a: np.ndarray, b: np.ndarray, state):
    """The product unitary a (x) b applied to a PureState2Q or DensityMatrix2Q."""
    u = kron(a, b)
    if isinstance(state, PureState2Q):
        return PureState2Q(u @ state.vec)
    return DensityMatrix2Q(u @ state.mat @ u.conj().T)


def noiseless_record(rho: DensityMatrix2Q, n_per_setting: int, exposure=None) -> TomographyRecord:
    """Counts rounded from the exact Poisson means n_per_setting * e_s * p_s
    (no sampling); exposures e_s default to 1."""
    exposure = np.ones(36) if exposure is None else np.asarray(exposure, dtype=float)
    probs = [max(float(np.trace(rho.mat @ mat).real), 0.0) for mat in TOMO_PROJECTORS]
    counts = np.rint(n_per_setting * exposure * np.array(probs)).astype(int)
    return TomographyRecord.from_counts(counts, exposure)


@pytest.fixture
def rng():
    return np.random.default_rng(20240915)
