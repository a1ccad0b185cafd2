"""Two-qubit polarisation state families, noise, and entanglement measures.

The discrimination experiments are built around one fixed single-qubit pair

    |u>      = sqrt(3)/2 |H> + 1/2 |V>
    |u_perp> = 1/2 |H> - sqrt(3)/2 |V>

and two families of two-qubit states parametrised by angles in degrees:

    phi0(t0) = cos(t0) |H> (Z|u>)      + sin(t0) |V> |u>
    phi1(t1) = cos(t1) |H> (Z|u_perp>) - sin(t1) |V> |u_perp>

with Z the phase flip diag(1, -1).  phi0 and phi1 are orthogonal for every
angle pair.  Superposing the fixed pair phi0(60 deg), phi1(30 deg) gives a
non-orthogonal pair with squared overlap cos^2(2 eta):

    psi0(eta) = cos(45 deg - eta) phi0(60) + sin(45 deg - eta) phi1(30)
    psi1(eta) = sin(45 deg - eta) phi0(60) + cos(45 deg - eta) phi1(30)

All vectors are stored in the Alice-major product basis (HH, HV, VH, VV).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InvalidDensityError, NotHermitianError
from .linalg import PAULI_Y, PAULI_Z, dagger, kron, read_only

# Tolerance of the unit-trace check.
DENSITY_ATOL = 1e-10
# The constructor accepts eigenvalues down to -NEGATIVE_EIG_TOL as rounding
# noise and rejects anything more negative.
NEGATIVE_EIG_TOL = 1e-9


def complex_to_pairs(arr: np.ndarray) -> list:
    """Nested lists with each complex entry replaced by [re, im], for JSON."""
    arr = np.asarray(arr, dtype=complex)
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


@dataclass(frozen=True)
class PureState2Q:
    """A normalised two-qubit pure state in the (HH, HV, VH, VV) basis."""

    vec: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vec, dtype=complex).reshape(-1)
        if v.shape != (4,):
            raise ValueError(f"expected 4 amplitudes, got shape {np.shape(self.vec)}")
        object.__setattr__(self, "vec", _unit(v))

    def density(self) -> "DensityMatrix2Q":
        return DensityMatrix2Q(linalg.projector(self.vec))

    def overlap(self, other: "PureState2Q") -> complex:
        """Inner product <self|other>."""
        return complex(np.vdot(self.vec, other.vec))

    def to_json(self) -> list:
        return complex_to_pairs(self.vec)


def _unit(vecs: np.ndarray) -> np.ndarray:
    """PureState2Q's check of one 4-vector or a whole (..., 4) stack: its read-only copy.

    Every amplitude must be finite and every norm within NORM_ATOL of 1; the
    first vector that fails raises the error the constructor raises for it.
    """
    dev = abs(linalg.complex_norm(vecs) - 1.0)
    bad = ~(dev <= linalg.NORM_ATOL)  # a non-finite amplitude makes dev NaN or inf
    if bad.any() if bad.ndim else bad:  # .any() of one vector's numpy bool costs microseconds
        k = bad.argmax()
        if not np.isfinite(vecs.reshape(-1, 4)[k]).all():
            raise ValueError("state amplitudes must be finite")
        raise ValueError(f"state norm deviates from 1 by {dev.flat[k]:.3e}")
    return read_only(vecs)


@dataclass(frozen=True)
class DensityMatrix2Q:
    """A two-qubit density matrix: Hermitian, unit trace, positive."""

    mat: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        if m.shape != (4, 4):
            raise InvalidDensityError(f"expected a 4x4 matrix, got shape {m.shape}")
        object.__setattr__(self, "mat", _density(m))

    def to_json(self) -> list:
        return complex_to_pairs(self.mat)


def _density(mats: np.ndarray) -> np.ndarray:
    """DensityMatrix2Q's check of one matrix or a whole stack: its read-only symmetrised copy."""
    try:
        m = linalg.require_hermitian(mats)
    except NotHermitianError as exc:
        raise InvalidDensityError(str(exc)) from exc
    trace_dev = abs(m.trace(axis1=-2, axis2=-1).real - 1.0)
    min_eig = np.linalg.eigvalsh(m)[..., 0]  # eigvalsh sorts ascending
    bad = (trace_dev > DENSITY_ATOL) | (min_eig < -NEGATIVE_EIG_TOL)
    if bad.any() if bad.ndim else bad:  # .any() of one matrix's numpy bool costs microseconds
        if (trace_dev > DENSITY_ATOL).any():
            raise InvalidDensityError(f"trace deviates from 1 by {trace_dev.max():.3e}")
        raise InvalidDensityError(f"negative eigenvalue {min_eig.min():.3e}")
    return read_only(m)


def _densities(mats: np.ndarray) -> np.ndarray:
    """_density of a (..., 4, 4) stack; its first failing matrix raises its own error."""
    try:
        return _density(mats)
    except InvalidDensityError:
        for one in mats.reshape(-1, 4, 4):
            _density(one)
        raise


def u_state() -> np.ndarray:
    """|u> = sqrt(3)/2 |H> + 1/2 |V>."""
    return np.array([np.sqrt(3.0) / 2.0, 0.5], dtype=complex)


def u_perp_state() -> np.ndarray:
    """|u_perp> = 1/2 |H> - sqrt(3)/2 |V>, orthogonal to |u>."""
    return np.array([0.5, -np.sqrt(3.0) / 2.0], dtype=complex)


def _family(thetas, a: np.ndarray, sign: float) -> np.ndarray:
    """(B, 4) amplitudes cos(t)|H>(Z a) + sign sin(t)|V> a for angles in degrees."""
    t = np.deg2rad([float(theta) for theta in thetas])[:, None]
    return np.concatenate([np.cos(t) * (PAULI_Z @ a), sign * np.sin(t) * a], axis=1)


def phi_pairs(theta0s, theta1s) -> np.ndarray:
    """The (B, 2, 4) amplitudes of the pairs phi0(theta0s[b]), phi1(theta1s[b])."""
    return np.stack([_family(theta0s, u_state(), 1.0), _family(theta1s, u_perp_state(), -1.0)], 1)


# The fixed pair phi0(60 deg), phi1(30 deg) that every psi pair superposes.
_PSI_BASE = read_only(phi_pairs([60.0], [30.0])[0])


def phi0(theta0_deg: float) -> PureState2Q:
    """First orthogonal-family state cos(t)|H>(Z|u>) + sin(t)|V>|u>."""
    return PureState2Q(_family([theta0_deg], u_state(), 1.0)[0])


def phi1(theta1_deg: float) -> PureState2Q:
    """Second orthogonal-family state cos(t)|H>(Z|u_perp>) - sin(t)|V>|u_perp>."""
    return PureState2Q(_family([theta1_deg], u_perp_state(), -1.0)[0])


def psi_pairs(etas) -> np.ndarray:
    """The (B, 2, 4) amplitudes of psi_pair(eta) for each eta of etas."""
    for eta in etas:
        if not 0.0 <= float(eta) <= 45.0:
            raise ValueError(f"eta_deg must lie in [0, 45], got {eta}")
    half = np.deg2rad(45.0 - np.array(etas, dtype=float))[:, None]
    a, b = _PSI_BASE
    return np.stack([np.cos(half) * a + np.sin(half) * b, np.sin(half) * a + np.cos(half) * b], 1)


def psi_pair(eta_deg: float) -> tuple[PureState2Q, PureState2Q]:
    """Non-orthogonal pair with squared overlap cos^2(2 eta).

    eta runs from 0 (identical states) to 45 degrees (orthogonal states,
    where the pair reduces to phi0(60), phi1(30)): psi_pairs on one eta.
    """
    return tuple(PureState2Q(vec) for vec in psi_pairs([eta_deg])[0])


def fidelity_pure(rho: DensityMatrix2Q, target: PureState2Q) -> float:
    """<target| rho |target>, clamped to [0, 1]."""
    val = float(np.vdot(target.vec, rho.mat @ target.vec).real)
    return min(max(val, 0.0), 1.0)


def werner_mixtures(vecs, v: float) -> np.ndarray:
    """The unchecked mixtures v |psi><psi| + (1 - v) I/4 of (..., 4) amplitudes."""
    v = float(v)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility v must lie in [0, 1], got {v}")
    return v * linalg.projector(vecs) + (1.0 - v) * linalg.ID4 / 4.0


def werner_noise(state: PureState2Q, v: float) -> DensityMatrix2Q:
    """Isotropic (Werner-type) mixture v |psi><psi| + (1 - v) I/4."""
    return DensityMatrix2Q(werner_mixtures(state.vec, v))


def tangle(rho: DensityMatrix2Q) -> float:
    """Tangle (squared concurrence) of a two-qubit density matrix.

    Computed from the spin-flipped product: with rho_tilde =
    (Y(x)Y) conj(rho) (Y(x)Y) and l_1 >= ... >= l_4 the square roots of the
    eigenvalues of rho rho_tilde, the concurrence is
    max(0, l_1 - l_2 - l_3 - l_4) and the tangle its square.
    """
    yy = kron(PAULI_Y, PAULI_Y)
    eig = linalg.hermitian_eig(rho.mat)
    sqrt_vals = np.sqrt(np.clip(eig.eigenvalues, 0.0, None))
    sqrt_rho = (eig.eigenvectors * sqrt_vals) @ dagger(eig.eigenvectors)
    flipped = yy @ rho.mat.conj() @ yy
    # Hermitian similarity of rho rho_tilde: same spectrum, stable to solve.
    core = sqrt_rho @ flipped @ sqrt_rho
    vals = linalg.hermitian_eig(core).eigenvalues
    lam = np.sqrt(np.clip(vals, 0.0, None))[::-1]
    c = max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))
    return c * c
