import numpy as np
import pytest

from qdiscrim import NotHermitianError, hermitian_eig, kron, trace_norm
from qdiscrim.linalg import (
    KET_A,
    KET_D,
    KET_H,
    KET_L,
    KET_R,
    KET_V,
    PAULI_Z,
    perp2,
    projector,
)


def test_basis_kets_are_orthonormal_pairs():
    for a, b in [(KET_H, KET_V), (KET_D, KET_A), (KET_R, KET_L)]:
        assert abs(np.linalg.norm(a) - 1) < 1e-15
        assert abs(np.linalg.norm(b) - 1) < 1e-15
        assert abs(np.vdot(a, b)) < 1e-15


def test_diagonal_and_pauli_z_eigenpairs():
    eig = hermitian_eig(np.diag([3.0, 1.0, 2.0, 0.5]).astype(complex))
    assert np.allclose(eig.eigenvalues, [0.5, 1.0, 2.0, 3.0])
    # columns are standard basis vectors matching the ascending values
    assert np.allclose(np.abs(eig.eigenvectors[3, 0]), 1.0)

    eig = hermitian_eig(PAULI_Z)
    assert np.allclose(eig.eigenvalues, [-1.0, 1.0])


def test_eig_matches_independent_solver_on_random_hermitian():
    # hermitian_eig itself runs LAPACK through np.linalg.eigh, so eigvalsh is
    # no independent oracle here: this checks that the wrapper's phase fix and
    # sort leave the values alone.  test_eig_recovers_known_spectra is the
    # independent check.
    rng = np.random.default_rng(91)
    for _ in range(50):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = g + g.conj().T
        got = hermitian_eig(h).eigenvalues
        want = np.linalg.eigvalsh(h)
        assert np.abs(got - want).max() < 1e-9


def test_eig_reconstruction_and_gram_on_1000_random_hermitians():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = g + g.conj().T
        eig = hermitian_eig(h)
        rebuilt = (eig.eigenvectors * eig.eigenvalues) @ eig.eigenvectors.conj().T
        assert np.abs(rebuilt - h).max() < 1e-10
        gram = eig.eigenvectors.conj().T @ eig.eigenvectors
        assert np.abs(gram - np.eye(4)).max() < 1e-10
        assert (np.diff(eig.eigenvalues) >= -1e-15).all()


def _haar_unitary(rng, n: int) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.mark.parametrize(
    "spectrum",
    [
        (0.1, 0.1, 0.1, 0.7),
        (1.0, 1.0, 1.0, 1.0),
        (-1.0, 0.0, 0.5, 2.0),
        (0.3, -0.2, 0.3, -0.2),
        (0.0, 0.0, 0.0, 1.0),
        (-0.5, 0.5),
    ],
)
def test_eig_recovers_known_spectra(spectrum):
    # Oracle: h = U diag(lambda) U^dagger with U from the QR of a seeded
    # complex Gaussian, so the eigenvalues and eigenspaces are known exactly.
    want = np.sort(np.array(spectrum))
    rng = np.random.default_rng(41)
    for _ in range(20):
        u = _haar_unitary(rng, len(spectrum))
        h = (u * np.array(spectrum)) @ u.conj().T
        eig = hermitian_eig(h)
        assert np.abs(eig.eigenvalues - want).max() < 1e-12
        vecs = eig.eigenvectors
        rebuilt = (vecs * eig.eigenvalues) @ vecs.conj().T
        assert np.abs(rebuilt - h).max() < 1e-12
        assert np.abs(vecs.conj().T @ vecs - np.eye(len(spectrum))).max() < 1e-12
        # each eigenspace, ties included, is the span of U's matching columns
        for lam in set(spectrum):
            got_proj = vecs[:, np.abs(eig.eigenvalues - lam) < 1e-9]
            want_proj = u[:, np.array(spectrum) == lam]
            assert np.abs(
                got_proj @ got_proj.conj().T - want_proj @ want_proj.conj().T
            ).max() < 1e-12
        for k in range(len(spectrum)):
            lead = vecs[int(np.argmax(np.abs(vecs[:, k]))), k]
            assert abs(lead.imag) < 1e-15 and lead.real > 0.0
        # exact ties are ordered by the eigenvectors' real parts
        for k in range(len(spectrum) - 1):
            if eig.eigenvalues[k] == eig.eigenvalues[k + 1]:
                assert tuple(vecs[:, k].real) <= tuple(vecs[:, k + 1].real)
        again = hermitian_eig(h.copy())
        assert np.array_equal(again.eigenvalues, eig.eigenvalues)
        assert np.array_equal(again.eigenvectors, eig.eigenvectors)


def test_eig_phase_fix_makes_leading_component_real_positive():
    rng = np.random.default_rng(5)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    eig = hermitian_eig(g + g.conj().T)
    for k in range(4):
        v = eig.eigenvectors[:, k]
        lead = v[int(np.argmax(np.abs(v)))]
        assert abs(lead.imag) < 1e-12 and lead.real > 0


def test_eig_deterministic_on_repeat():
    rng = np.random.default_rng(23)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = g + g.conj().T
    a = hermitian_eig(h)
    b = hermitian_eig(h)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(a.eigenvectors, b.eigenvectors)


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(NotHermitianError):
        hermitian_eig(np.full((4, 4), np.nan))


def test_trace_norm_known_values():
    assert abs(trace_norm(PAULI_Z) - 2.0) < 1e-12
    assert trace_norm(np.zeros((4, 4))) == 0.0
    # difference of orthogonal pure projectors has trace norm 2
    a = projector(np.array([1, 0, 0, 0], dtype=complex))
    b = projector(np.array([0, 0, 0, 1], dtype=complex))
    assert abs(trace_norm(a - b) - 2.0) < 1e-12


def test_trace_norm_matches_closed_form_for_pure_pairs():
    # Oracle: for equal-weight pure states, ||rho0 - rho1||_1 / 2
    # equals sqrt(1 - |<a|b>|^2).
    rng = np.random.default_rng(37)
    for _ in range(200):
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        a /= np.linalg.norm(a)
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        b /= np.linalg.norm(b)
        got = trace_norm(0.5 * projector(a) - 0.5 * projector(b))
        want = np.sqrt(1.0 - abs(np.vdot(a, b)) ** 2)
        assert abs(got - want) < 1e-10


def test_trace_norm_of_psd_equals_trace(rng):
    for _ in range(50):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = g @ g.conj().T
        assert abs(trace_norm(m) - m.trace().real) < 1e-9 * max(1.0, m.trace().real)


def test_kron_is_alice_major():
    # |V><V| (x) |H><H| occupies the VH slot, index 2 of (HH, HV, VH, VV)
    m = kron(projector(KET_V), projector(KET_H))
    want = np.zeros((4, 4))
    want[2, 2] = 1.0
    assert np.abs(m - want).max() == 0.0


def test_kron_mixed_product_property(rng):
    for _ in range(20):
        a, b, c, d = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(4))
        left = kron(a, b) @ kron(c, d)
        right = kron(a @ c, b @ d)
        assert np.abs(left - right).max() < 1e-12


def test_perp2_is_orthonormal_complement(rng):
    for _ in range(100):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        w = perp2(v)
        assert abs(np.vdot(w, v)) < 1e-14
        assert abs(np.linalg.norm(w) - 1) < 1e-14
