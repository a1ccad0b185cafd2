import numpy as np
import pytest

from qdiscrim import (
    DensityMatrix2Q,
    InvalidDensityError,
    PureState2Q,
    fidelity_pure,
    phi0,
    phi1,
    psi_pair,
    tangle,
    u_perp_state,
    u_state,
    werner_noise,
)
from qdiscrim.linalg import PAULI_Y, projector

from conftest import apply_local, random_density, random_pure, random_unitary2

SQ3 = np.sqrt(3.0) / 2.0


def tangle_oracle(mat: np.ndarray) -> float:
    """Brute-force spin-flip formula evaluated with numpy's general solver."""
    yy = np.kron(PAULI_Y, PAULI_Y)
    vals = np.linalg.eigvals(mat @ yy @ mat.conj() @ yy)
    lam = np.sort(np.sqrt(np.abs(vals)))[::-1]
    c = max(0.0, lam[0] - lam[1] - lam[2] - lam[3])
    return c * c


def test_u_states_fixed_amplitudes():
    assert np.allclose(u_state(), [SQ3, 0.5])
    assert np.allclose(u_perp_state(), [0.5, -SQ3])
    assert abs(np.vdot(u_state(), u_perp_state())) < 1e-15


def test_phi0_endpoint_amplitudes():
    # theta = 0 collapses to |H> (x) Z|u>
    assert np.allclose(phi0(0.0).vec, [SQ3, -0.5, 0.0, 0.0])
    # theta = 90 collapses to |V> (x) |u>
    assert np.allclose(phi0(90.0).vec, [0.0, 0.0, SQ3, 0.5], atol=1e-15)


def test_phi1_endpoint_amplitudes():
    assert np.allclose(phi1(0.0).vec, [0.5, SQ3, 0.0, 0.0])
    assert np.allclose(phi1(90.0).vec, [0.0, 0.0, -0.5, SQ3], atol=1e-15)


def test_family_members_are_normalised_every_angle():
    for theta in np.linspace(0.0, 90.0, 181):
        assert abs(np.linalg.norm(phi0(theta).vec) - 1.0) < 1e-12
        assert abs(np.linalg.norm(phi1(theta).vec) - 1.0) < 1e-12


def test_families_orthogonal_for_10000_random_angle_pairs(rng):
    angles = rng.uniform(0.0, 90.0, size=(10_000, 2))
    worst = 0.0
    for t0, t1 in angles:
        worst = max(worst, abs(phi0(t0).overlap(phi1(t1))))
    assert worst < 1e-12


def test_psi_pair_overlap_law():
    # |<psi0|psi1>|^2 = cos^2(2 eta) across the full range
    for eta in np.linspace(0.0, 45.0, 91):
        a, b = psi_pair(eta)
        want = np.cos(np.deg2rad(2.0 * eta)) ** 2
        assert abs(abs(a.overlap(b)) ** 2 - want) < 1e-12


def test_psi_pair_endpoints():
    a, b = psi_pair(0.0)
    assert abs(abs(a.overlap(b)) - 1.0) < 1e-12
    a, b = psi_pair(45.0)
    assert abs(a.overlap(b)) < 1e-12
    assert np.allclose(a.vec, phi0(60.0).vec)
    assert np.allclose(b.vec, phi1(30.0).vec)


def test_psi_pair_range_errors():
    for bad in (-1.0, 45.1, np.nan):
        with pytest.raises(ValueError):
            psi_pair(bad)


def test_pure_state_validation():
    with pytest.raises(ValueError):
        PureState2Q(np.array([1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        PureState2Q(np.array([np.inf, 0.0, 0.0, 0.0]))


def test_density_validation():
    with pytest.raises(InvalidDensityError):
        DensityMatrix2Q(np.eye(4, dtype=complex))  # trace 4
    bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(InvalidDensityError):
        DensityMatrix2Q(bad)
    nonherm = np.eye(4, dtype=complex) / 4
    nonherm[0, 1] = 0.1
    with pytest.raises(InvalidDensityError):
        DensityMatrix2Q(nonherm)


def test_fidelity_pure_known_values():
    s = phi0(30.0)
    assert abs(fidelity_pure(s.density(), s) - 1.0) < 1e-12
    assert abs(fidelity_pure(s.density(), phi1(60.0))) < 1e-12
    mixed = DensityMatrix2Q(np.eye(4, dtype=complex) / 4)
    assert abs(fidelity_pure(mixed, s) - 0.25) < 1e-12


def test_werner_noise_invariants_and_fidelity_law(rng):
    for v in (0.0, 0.4, 0.956, 1.0):
        s = random_pure(rng)
        rho = werner_noise(s, v)
        assert abs(rho.mat.trace().real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho.mat).min() > -1e-12
        want = v + (1.0 - v) / 4.0
        assert abs(fidelity_pure(rho, s) - want) < 1e-12


def test_werner_noise_rejects_bad_visibility():
    with pytest.raises(ValueError):
        werner_noise(phi0(30.0), 1.2)
    with pytest.raises(ValueError):
        werner_noise(phi0(30.0), -0.1)


def test_tangle_product_and_bell():
    hh = PureState2Q(np.array([1, 0, 0, 0], dtype=complex))
    assert tangle(hh.density()) < 1e-12
    bell = PureState2Q(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
    assert abs(tangle(bell.density()) - 1.0) < 1e-10


def test_tangle_of_werner_bell_matches_oracle_and_closed_form():
    bell = PureState2Q(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
    rho = werner_noise(bell, 0.9)
    got = tangle(rho)
    closed = ((3 * 0.9 - 1) / 2) ** 2
    assert abs(got - closed) < 1e-10
    assert abs(got - tangle_oracle(rho.mat)) < 1e-9


def test_tangle_matches_oracle_on_random_mixed_states(rng):
    for _ in range(100):
        rho = random_density(rng)
        got = tangle(rho)
        assert 0.0 <= got <= 1.0 + 1e-12
        assert abs(got - tangle_oracle(rho.mat)) < 1e-8


def test_tangle_invariant_under_local_unitaries(rng):
    for _ in range(25):
        rho = random_density(rng)
        rotated = apply_local(random_unitary2(rng), random_unitary2(rng), rho)
        assert abs(tangle(rotated) - tangle(rho)) < 1e-8


def test_tangle_of_family_states():
    # pure-state tangle is 4 |det F|^2 = (3/4) sin^2(2 theta) for either
    # family; the sqrt route loses half the mantissa on the three zero
    # eigenvalues of a pure state, hence the ~sqrt(eps) tolerance
    for theta in (0.0, 15.0, 30.0, 45.0, 77.0):
        want = 0.75 * np.sin(np.deg2rad(2 * theta)) ** 2
        assert abs(tangle(phi0(theta).density()) - want) < 1e-7
        assert abs(tangle(phi1(theta).density()) - want) < 1e-7


def test_density_json_is_re_im_pairs():
    rho = phi0(30.0).density()
    data = rho.to_json()
    assert len(data) == 4 and len(data[0]) == 4 and len(data[0][0]) == 2
    assert data[0][0][0] == pytest.approx(rho.mat[0, 0].real)
    assert data[0][0][1] == pytest.approx(0.0)
