"""Small fixed-size complex linear algebra used throughout the library.

States and operators live on plain numpy arrays: 2- and 4-component complex
vectors, 2x2 and 4x4 complex matrices.  Two-qubit indices are ordered
Alice-major, i.e. the product basis is (HH, HV, VH, VV), and ``kron`` takes
the Alice factor first so that index arithmetic matches that ordering.

The Hermitian eigensolver is LAPACK's, through ``np.linalg.eigh``, behind
one hermiticity check (``require_hermitian``, tolerance ``HERMITIAN_ATOL``).
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


def complex_norm(x: np.ndarray):
    """np.linalg.norm of a complex vector, or of each of a (..., k) stack, bit for
    bit: np.vecdot takes each real dot product as np.dot does for one vector."""
    return np.sqrt(np.vecdot(x.real, x.real) + np.vecdot(x.imag, x.imag))


# The Pauli matrices I, X, Y, Z, stacked (4, 2, 2) and read-only; Z is the
# phase flip H -> H, V -> -V.
PAULIS = read_only([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
PAULI_Y = PAULIS[2]
PAULI_Z = PAULIS[3]


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose, of every matrix of a (..., n, n) stack."""
    return np.asarray(m).conj().swapaxes(-1, -2)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the Alice factor first (Alice-major indexing)."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def projector(v: np.ndarray) -> np.ndarray:
    """Rank-1 projector |v><v| of a (not necessarily normalised) vector, or stack."""
    v = np.asarray(v, dtype=complex)
    return v[..., :, None] * v.conj()[..., None, :]


def perp2(v: np.ndarray) -> np.ndarray:
    """The canonical unit vector orthogonal to a single-qubit unit vector.

    For v = (x, y) returns (-conj(y), conj(x)); together they form an
    orthonormal basis of C^2.  A (..., 2) stack of vectors gives the stack of
    their complements.
    """
    v = np.asarray(v, dtype=complex)
    w = np.empty_like(v)
    w[..., 0] = -v[..., 1].conj()
    w[..., 1] = v[..., 0].conj()
    return w


def require_hermitian(m: np.ndarray) -> np.ndarray:
    """The exactly symmetrised copy of a matrix or (..., n, n) stack, or NotHermitianError."""
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise NotHermitianError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NotHermitianError("matrix contains non-finite entries")
    dev = np.abs(m - dagger(m)).max(initial=0.0)
    if dev > HERMITIAN_ATOL:
        raise NotHermitianError(f"matrix deviates from hermiticity by {dev:.3e}")
    return (m + dagger(m)) / 2.0


@dataclass(frozen=True)
class HermitianEig:
    """Eigendecomposition of a Hermitian matrix, or of each of a stack.

    eigenvalues are real and ascending; eigenvectors[..., :, k] is a unit
    eigenvector of eigenvalues[..., k], as LAPACK returns it.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(m: np.ndarray) -> HermitianEig:
    """Diagonalise a Hermitian matrix, or each of a stack, with LAPACK's ``np.linalg.eigh``.

    The input is checked and symmetrised by require_hermitian.

    Raises NotHermitianError for non-Hermitian or non-finite input.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(require_hermitian(m))
    return HermitianEig(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def trace_norm(m: np.ndarray):
    """Trace norm (sum of absolute eigenvalues) of a Hermitian matrix, or of each of a stack."""
    return np.abs(hermitian_eig(m).eigenvalues).sum(axis=-1)
