import numpy as np
import pytest

from qdiscrim import (
    COINCIDENCE_LABELS,
    CoincidenceCounts,
    DensityMatrix2Q,
    EmptyCountsError,
    FeedForwardProtocol,
    IncompletePOVMError,
    InvalidProtocolError,
    PureState2Q,
    canonical_protocol,
    estimate,
    ff_success_probability,
    phi0,
    phi1,
    protocol_to_povm,
    sample_coincidences,
    simulate_tomography,
    tomography_settings,
    walgate_decompose,
    werner_noise,
)
from qdiscrim.linalg import KET_D, KET_L, kron, projector
from qdiscrim.measurement import TOMO_BASIS_LABELS, TOMO_LABELS, TomographyRecord
from qdiscrim.states import u_state

from conftest import random_density

MIXED = DensityMatrix2Q(np.eye(4, dtype=complex) / 4)


# ---------------------------------------------------------------- povm


def test_protocol_to_povm_labels_and_canonical_element():
    povm = protocol_to_povm(canonical_protocol())
    assert [label for label, _ in povm] == list(COINCIDENCE_LABELS)
    # T_a T_b element: Alice |H>, Bob's switched basis vector Z|u>
    zu = np.array([np.sqrt(3) / 2, -0.5], dtype=complex)
    want = kron(projector(np.array([1, 0], dtype=complex)), projector(zu))
    assert np.abs(povm[0][1] - want).max() < 1e-12


def test_protocol_to_povm_requires_the_t_b_guess_map():
    # Swapping Bob's outcomes and the guesses with them is the same measurement,
    # but estimate reads T_b as label 0, so its sampled success would be wrong.
    walgate = walgate_decompose(phi0(30.0), phi1(60.0))
    swapped = FeedForwardProtocol(
        alice_basis=walgate.alice_basis,
        bob_bases=walgate.bob_bases[:, ::-1],
        guess_map=np.array([[1, 0], [1, 0]]),
    )
    rho0, rho1 = werner_noise(phi0(30.0), 0.9), werner_noise(phi1(60.0), 0.9)
    assert abs(ff_success_probability(swapped, rho0, rho1) - 0.95) < 1e-12
    with pytest.raises(InvalidProtocolError, match="T_b"):
        protocol_to_povm(swapped)
    for protocol in (walgate, canonical_protocol()):
        assert len(protocol_to_povm(protocol)) == 4


def test_povm_completeness_for_random_protocols(rng):
    from conftest import random_orthogonal_pair

    for _ in range(50):
        a, b = random_orthogonal_pair(rng)
        povm = protocol_to_povm(walgate_decompose(a, b))
        total = sum(mat for _, mat in povm)
        assert np.abs(total - np.eye(4)).max() < 1e-12
        for _, mat in povm:
            assert np.linalg.eigvalsh(mat).min() > -1e-12


def test_sample_coincidences_requires_complete_povm():
    povm = protocol_to_povm(canonical_protocol())
    broken = povm[:3] + [(povm[3][0], povm[3][1] * 0.5)]
    with pytest.raises(IncompletePOVMError):
        sample_coincidences(MIXED, broken, 1000, seed=1)


def test_sample_coincidences_deterministic_and_total_preserving():
    povm = protocol_to_povm(canonical_protocol())
    rho = werner_noise(phi0(30.0), 0.956)
    a = sample_coincidences(rho, povm, 123_456, seed=9)
    b = sample_coincidences(rho, povm, 123_456, seed=9)
    assert a == b
    assert a.total == 123_456
    c = sample_coincidences(rho, povm, 123_456, seed=10)
    assert c != a


def test_sample_coincidences_regression_counts():
    # frozen counts pin the rng stream; a change here means the sampling
    # layout changed and every seeded result in reports moved with it
    povm = protocol_to_povm(walgate_decompose(phi0(30.0), phi1(60.0)))
    counts = sample_coincidences(werner_noise(phi0(30.0), 0.956), povm, 10**6, seed=2024)
    assert counts.as_tuple() == (727337, 10940, 250710, 11013)


def test_sample_coincidences_stable_under_rounding_of_zero_probabilities():
    # State phi1 never fires the two label-0 outcomes of its Walgate POVM.  A
    # basis moved by about 1e-16 turns those exact zeros into rounding noise of
    # either sign; the counts must not follow it.
    povm = protocol_to_povm(walgate_decompose(phi0(30.0), phi1(60.0)))
    rho = phi1(60.0).density()
    base = sample_coincidences(rho, povm, 10**6, seed=5)
    rng = np.random.default_rng(16)
    for _ in range(20):
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        lam, vecs = np.linalg.eigh(h + h.conj().T)
        u = (vecs * np.exp(-1e-16j * lam)) @ vecs.conj().T
        moved = [(label, u @ mat @ u.conj().T) for label, mat in povm]
        assert sample_coincidences(rho, moved, 10**6, seed=5) == base


def test_sample_coincidences_mixed_state_bins_within_5_sigma():
    povm = protocol_to_povm(canonical_protocol())
    counts = sample_coincidences(MIXED, povm, 10**6, seed=77)
    sigma = np.sqrt(10**6 * 0.25 * 0.75)  # about 433
    for n in counts.as_tuple():
        assert abs(n - 250_000) <= 5 * sigma


def test_counts_validation_and_serialisation():
    counts = CoincidenceCounts(5, 1, 2, 2)
    assert counts.total == 10
    assert counts.to_json() == {"TaTb": 5, "TaRb": 1, "RaTb": 2, "RaRb": 2}
    with pytest.raises(ValueError):
        CoincidenceCounts(-1, 0, 0, 5)
    with pytest.raises(EmptyCountsError):
        CoincidenceCounts(0, 0, 0, 0)


# ---------------------------------------------------------------- estimator


def test_estimate_arithmetic():
    c0 = CoincidenceCounts(n_ta_tb=900, n_ta_rb=50, n_ra_tb=40, n_ra_rb=10)
    c1 = CoincidenceCounts(n_ta_tb=30, n_ta_rb=460, n_ra_tb=20, n_ra_rb=490)
    est = estimate(c0, c1)
    assert est.p0 == pytest.approx((900 + 40) / 1000)
    assert est.p1 == pytest.approx((460 + 490) / 1000)
    assert est.p_avg == pytest.approx((est.p0 + est.p1) / 2)
    assert est.sigma_p0 == pytest.approx(np.sqrt(est.p0 * (1 - est.p0) / 1000))
    assert est.sigma_avg == pytest.approx(np.hypot(est.sigma_p0, est.sigma_p1) / 2)


def test_estimator_consistent_at_large_n():
    # 100 seeds at n = 1e7: the estimate must sit within 5 sigma of the
    # exact protocol success in at least 99 cases
    protocol = walgate_decompose(phi0(30.0), phi1(60.0))
    povm = protocol_to_povm(protocol)
    v = 0.956
    rho0 = werner_noise(phi0(30.0), v)
    rho1 = werner_noise(phi1(60.0), v)
    exact = v + (1 - v) / 2
    hits = 0
    for seed in range(100):
        c0 = sample_coincidences(rho0, povm, 10**7, 2 * seed)
        c1 = sample_coincidences(rho1, povm, 10**7, 2 * seed + 1)
        est = estimate(c0, c1)
        hits += abs(est.p_avg - exact) <= 5 * est.sigma_avg
    assert hits >= 99


# ---------------------------------------------------------------- tomography acquisition


def test_tomography_settings_count_order_and_values():
    settings = tomography_settings()
    assert len(settings) == 36
    labels = [label for label, _ in settings]
    assert labels[0] == ("H", "H") and labels[5] == ("H", "L") and labels[-1] == ("L", "L")
    assert len(set(labels)) == 36
    by_label = dict(settings)
    want = kron(projector(KET_D), projector(KET_L))
    assert np.abs(by_label[("D", "L")] - want).max() < 1e-15


def test_tomography_design_matrix_has_full_rank():
    design = np.stack([mat.reshape(16) for _, mat in tomography_settings()])
    assert np.linalg.matrix_rank(design) == 16


def test_simulate_tomography_deterministic_and_mean_accurate():
    rho = werner_noise(phi0(30.0), 0.9)
    a = simulate_tomography(rho, 10_000, seed=4)
    b = simulate_tomography(rho, 10_000, seed=4)
    assert np.array_equal(a.counts, b.counts)
    means = np.array(
        [10_000 * np.trace(rho.mat @ mat).real for _, mat in tomography_settings()]
    )
    # Poisson: every count within 6 sigma of its mean
    sigma = np.sqrt(np.clip(means, 1.0, None))
    assert (np.abs(a.counts - means) <= 6 * sigma).all()


def test_simulate_tomography_weights_exposures():
    rho = werner_noise(phi0(30.0), 0.9)
    uniform = simulate_tomography(rho, 10_000, seed=4)
    ones = simulate_tomography(rho, 10_000, seed=4, exposure=np.ones(36))
    assert np.array_equal(uniform.counts, ones.counts)
    assert np.array_equal(uniform.exposure, np.ones(36))
    exposure = np.random.default_rng(6).uniform(0.5, 2.0, size=36)
    record = simulate_tomography(rho, 10_000, seed=4, exposure=exposure)
    assert np.array_equal(record.exposure, exposure)
    probs = np.array([np.trace(rho.mat @ mat).real for _, mat in tomography_settings()])
    means = 10_000 * exposure * probs
    sigma = np.sqrt(np.clip(means, 1.0, None))
    assert (np.abs(record.counts - means) <= 6 * sigma).all()
    with pytest.raises(ValueError):
        simulate_tomography(rho, 10_000, seed=4, exposure=-exposure)


def test_tomography_record_validation_and_serialisation():
    rec = simulate_tomography(MIXED, 1000, seed=8)
    data = rec.to_json()
    assert data["settings"] == ["".join(label) for label in TOMO_LABELS]
    assert data["counts"] == rec.counts.tolist()
    assert data["exposure"] == [1.0] * 36
    with pytest.raises(ValueError):
        TomographyRecord.from_counts(np.full(36, -1))
    with pytest.raises(ValueError):
        TomographyRecord.from_counts(np.zeros(35, dtype=int))
    with pytest.raises(ValueError):
        TomographyRecord.from_counts(np.zeros(36, dtype=int), exposure=np.zeros(36))
