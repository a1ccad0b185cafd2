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
from .errors import InvalidDensityError
from .linalg import PAULI_Y, PAULI_Z, dagger, kron, read_only

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
        if not np.isfinite(v).all():
            raise ValueError("state amplitudes must be finite")
        n = np.linalg.norm(v)
        if abs(n - 1.0) > linalg.NORM_ATOL:
            raise ValueError(f"state norm deviates from 1 by {abs(n - 1.0):.3e}")
        object.__setattr__(self, "vec", read_only(v))

    def density(self) -> "DensityMatrix2Q":
        return DensityMatrix2Q(linalg.projector(self.vec))

    def overlap(self, other: "PureState2Q") -> complex:
        """Inner product <self|other>."""
        return complex(np.vdot(self.vec, other.vec))

    def to_json(self) -> list:
        return complex_to_pairs(self.vec)


@dataclass(frozen=True)
class DensityMatrix2Q:
    """A two-qubit density matrix: Hermitian, unit trace, positive."""

    mat: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mat, dtype=complex)
        if m.shape != (4, 4):
            raise InvalidDensityError(f"expected a 4x4 matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise InvalidDensityError("density matrix must be finite")
        herm_dev = np.abs(m - dagger(m)).max()
        if herm_dev > DENSITY_ATOL:
            raise InvalidDensityError(f"hermiticity violated by {herm_dev:.3e}")
        m = (m + dagger(m)) / 2.0
        trace_dev = abs(m.trace().real - 1.0)
        if trace_dev > DENSITY_ATOL:
            raise InvalidDensityError(f"trace deviates from 1 by {trace_dev:.3e}")
        min_eig = float(np.linalg.eigvalsh(m).min())
        if min_eig < -NEGATIVE_EIG_TOL:
            raise InvalidDensityError(f"negative eigenvalue {min_eig:.3e}")
        object.__setattr__(self, "mat", read_only(m))

    def to_json(self) -> list:
        return complex_to_pairs(self.mat)


def u_state() -> np.ndarray:
    """|u> = sqrt(3)/2 |H> + 1/2 |V>."""
    return np.array([np.sqrt(3.0) / 2.0, 0.5], dtype=complex)


def u_perp_state() -> np.ndarray:
    """|u_perp> = 1/2 |H> - sqrt(3)/2 |V>, orthogonal to |u>."""
    return np.array([0.5, -np.sqrt(3.0) / 2.0], dtype=complex)


def phi0(theta0_deg: float) -> PureState2Q:
    """First orthogonal-family state cos(t)|H>(Z|u>) + sin(t)|V>|u>."""
    t = np.deg2rad(float(theta0_deg))
    zu = PAULI_Z @ u_state()
    vec = np.concatenate([np.cos(t) * zu, np.sin(t) * u_state()])
    return PureState2Q(vec)


def phi1(theta1_deg: float) -> PureState2Q:
    """Second orthogonal-family state cos(t)|H>(Z|u_perp>) - sin(t)|V>|u_perp>."""
    t = np.deg2rad(float(theta1_deg))
    zup = PAULI_Z @ u_perp_state()
    vec = np.concatenate([np.cos(t) * zup, -np.sin(t) * u_perp_state()])
    return PureState2Q(vec)


def psi_pair(eta_deg: float) -> tuple[PureState2Q, PureState2Q]:
    """Non-orthogonal pair with squared overlap cos^2(2 eta).

    eta runs from 0 (identical states) to 45 degrees (orthogonal states,
    where the pair reduces to phi0(60), phi1(30)).
    """
    eta = float(eta_deg)
    if not np.isfinite(eta) or not 0.0 <= eta <= 45.0:
        raise ValueError(f"eta_deg must lie in [0, 45], got {eta_deg}")
    half = np.deg2rad(45.0 - eta)
    a, b = phi0(60.0).vec, phi1(30.0).vec
    psi0 = PureState2Q(np.cos(half) * a + np.sin(half) * b)
    psi1 = PureState2Q(np.sin(half) * a + np.cos(half) * b)
    return psi0, psi1


def fidelity_pure(rho: DensityMatrix2Q, target: PureState2Q) -> float:
    """<target| rho |target>, clamped to [0, 1]."""
    val = float(np.vdot(target.vec, rho.mat @ target.vec).real)
    return min(max(val, 0.0), 1.0)


def werner_noise(state: PureState2Q, v: float) -> DensityMatrix2Q:
    """Isotropic (Werner-type) mixture v |psi><psi| + (1 - v) I/4."""
    v = float(v)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"visibility v must lie in [0, 1], got {v}")
    mat = v * linalg.projector(state.vec) + (1.0 - v) * linalg.ID4 / 4.0
    return DensityMatrix2Q(mat)


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
