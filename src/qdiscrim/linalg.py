"""Small fixed-size complex linear algebra used throughout the library.

States and operators live on plain numpy arrays: 2- and 4-component complex
vectors, 2x2 and 4x4 complex matrices.  Two-qubit indices are ordered
Alice-major, i.e. the product basis is (HH, HV, VH, VV), and ``kron`` takes
the Alice factor first so that index arithmetic matches that ordering.

The Hermitian eigensolver is LAPACK's, through ``np.linalg.eigh``; on top
of it ``hermitian_eig`` fixes each eigenvector's phase and totally orders
the eigenpairs, so that downstream results are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitianError

SQRT1_2 = 1.0 / np.sqrt(2.0)

# Single-qubit polarisation kets in the (H, V) computational basis.
KET_H = np.array([1.0, 0.0], dtype=complex)
KET_V = np.array([0.0, 1.0], dtype=complex)
KET_D = np.array([SQRT1_2, SQRT1_2], dtype=complex)
KET_A = np.array([SQRT1_2, -SQRT1_2], dtype=complex)
KET_R = np.array([SQRT1_2, 1j * SQRT1_2], dtype=complex)
KET_L = np.array([SQRT1_2, -1j * SQRT1_2], dtype=complex)

ID2 = np.eye(2, dtype=complex)
ID4 = np.eye(4, dtype=complex)

NORM_ATOL = 1e-12
HERMITIAN_ATOL = 1e-10


def read_only(arr, dtype=None) -> np.ndarray:
    """A read-only copy of ``arr`` (of the given dtype, if any)."""
    out = np.array(arr, dtype=dtype)
    out.flags.writeable = False
    return out


# The Pauli matrices I, X, Y, Z, stacked (4, 2, 2) and read-only; Z is the
# phase flip H -> H, V -> -V.
PAULIS = read_only([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
PAULI_Y = PAULIS[2]
PAULI_Z = PAULIS[3]


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m).conj().T


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the Alice factor first (Alice-major indexing)."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def projector(v: np.ndarray) -> np.ndarray:
    """Rank-1 projector |v><v| of a (not necessarily normalised) vector."""
    v = np.asarray(v, dtype=complex)
    return np.outer(v, v.conj())


def perp2(v: np.ndarray) -> np.ndarray:
    """The canonical unit vector orthogonal to a single-qubit unit vector.

    For v = (x, y) returns (-conj(y), conj(x)); together they form an
    orthonormal basis of C^2.
    """
    v = np.asarray(v, dtype=complex)
    return np.array([-np.conj(v[1]), np.conj(v[0])], dtype=complex)


def require_hermitian(m: np.ndarray, atol: float = HERMITIAN_ATOL) -> np.ndarray:
    """Return the exactly symmetrised copy of ``m``, or raise NotHermitianError."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotHermitianError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NotHermitianError("matrix contains non-finite entries")
    dev = np.abs(m - dagger(m)).max()
    if dev > atol:
        raise NotHermitianError(f"matrix deviates from hermiticity by {dev:.3e}")
    return (m + dagger(m)) / 2.0


@dataclass(frozen=True)
class HermitianEig:
    """Eigendecomposition of a Hermitian matrix.

    eigenvalues are real and ascending; eigenvectors[:, k] is the unit
    eigenvector of eigenvalues[k] with its largest-magnitude component made
    real and positive.  Exact eigenvalue ties are broken by lexicographic
    comparison of the eigenvectors' real parts, so the ordering is total.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """The columns of v, each rotated so its largest-magnitude entry is real and positive."""
    lead = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    return v * (lead.conj() / np.abs(lead))


def hermitian_eig(m: np.ndarray, atol: float = HERMITIAN_ATOL) -> HermitianEig:
    """Diagonalise a Hermitian matrix with LAPACK's ``np.linalg.eigh``.

    The input is checked and symmetrised by require_hermitian.  Each unit
    eigenvector then gets the phase fix of HermitianEig, and the pairs are
    sorted by eigenvalue with ties broken by the eigenvectors' real parts,
    so the result is a deterministic function of the input.

    Raises NotHermitianError for non-Hermitian or non-finite input.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(require_hermitian(m, atol))
    eigenvectors = _fix_phase(eigenvectors)
    # lexsort's last key is the primary one: eigenvalue, then components 0, 1, ...
    order = np.lexsort(np.vstack([eigenvectors.real[::-1], eigenvalues]))
    return HermitianEig(eigenvalues=eigenvalues[order], eigenvectors=eigenvectors[:, order])


def trace_norm(m: np.ndarray, atol: float = HERMITIAN_ATOL) -> float:
    """Trace norm (sum of absolute eigenvalues) of a Hermitian matrix."""
    eig = hermitian_eig(m, atol)
    return float(np.abs(eig.eigenvalues).sum())
