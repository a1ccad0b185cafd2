"""Tests of the benchmark's own oracles and tracer.

Run with ``PYTHONPATH=src python3 -m pytest bench``.
"""

import numpy as np
import pytest

import oracles as orc
from tracing import Tracer

SQ = 1.0 / np.sqrt(2.0)


def _helstrom(rho0, rho1):
    return 0.5 * (1.0 + np.abs(np.linalg.eigvalsh(0.5 * (rho0 - rho1))).sum())


def _random_density(rng, rank=4):
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _bloch_basis(n):
    """Orthonormal kets of the projectors (I +/- n.sigma) / 2."""
    _, vecs = np.linalg.eigh(np.einsum("k,kij->ij", n, orc.PAULIS[1:]))
    return vecs[:, ::-1].T


def _best_assignment(alice, bob, rho0, rho1):
    """Equal-prior success with each outcome assigned to its likelier state."""
    total = 0.0
    for a in alice:
        for b in bob:
            vec = np.kron(a, b)
            total += 0.5 * max(np.vdot(vec, rho0 @ vec).real, np.vdot(vec, rho1 @ vec).real)
    return total


def test_states_have_the_documented_overlaps():
    for t0, t1 in [(0, 0), (30, 60), (90, 17)]:
        assert abs(np.vdot(orc.phi0_vec(t0), orc.phi1_vec(t1))) < 1e-15
    for eta in [0.0, 10.0, 30.0, 45.0]:
        a, b = orc.psi_vecs(eta)
        assert abs(np.vdot(a, b)) ** 2 == pytest.approx(np.cos(np.deg2rad(2 * eta)) ** 2, abs=1e-14)


def test_closed_forms_match_a_numerical_helstrom_bound():
    rng = np.random.default_rng(1)
    for _ in range(5):
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        a /= np.linalg.norm(a)
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        b -= np.vdot(a, b) * a
        b /= np.linalg.norm(b)
        v = rng.uniform(0.5, 1.0)
        assert _helstrom(orc.werner(a, v), orc.werner(b, v)) == pytest.approx(
            orc.orthogonal_pair_success(v), abs=1e-13)
    for eta, v in [(5.0, 1.0), (22.5, 0.9), (40.0, 0.7)]:
        a, b = orc.psi_vecs(eta)
        assert _helstrom(orc.werner(a, v), orc.werner(b, v)) == pytest.approx(
            orc.psi_pair_success(eta, v), abs=1e-13)


def test_closed_form_bob_side_matches_brute_force():
    rng = np.random.default_rng(2)
    rho0, rho1 = _random_density(rng), _random_density(rng, 2)
    table = orc._pauli_table(0.5 * (rho0 - rho1))
    bob_dirs = orc._sphere(3000)
    for alice_dir in orc._sphere(5):
        alice = _bloch_basis(alice_dir)
        closed = orc._bob_best(table, alice_dir[None, :])[0]
        brute = max(_best_assignment(alice, _bloch_basis(n), rho0, rho1) for n in bob_dirs)
        assert brute <= closed + 1e-12
        assert closed - brute < 1e-3


def test_no_ff_search_reaches_known_optima():
    hh = np.kron([1, 0], [1, 0]).astype(complex)
    vv = np.kron([0, 1], [0, 1]).astype(complex)
    phi_plus, phi_minus = (hh + vv) * SQ, (hh - vv) * SQ
    proj = lambda v: np.outer(v, v.conj())
    # Product states, and Bell states separated by an X (x) X measurement.
    assert orc.no_ff_lower_bound(proj(hh), proj(vv)) == pytest.approx(1.0, abs=1e-12)
    assert orc.no_ff_lower_bound(proj(phi_plus), proj(phi_minus)) == pytest.approx(1.0, abs=1e-12)
    assert orc.no_ff_lower_bound(proj(hh), proj(hh)) == pytest.approx(0.5, abs=1e-12)


def test_no_ff_search_stays_between_random_measurements_and_helstrom():
    rng = np.random.default_rng(3)
    for _ in range(3):
        rho0, rho1 = _random_density(rng), _random_density(rng)
        found = orc.no_ff_lower_bound(rho0, rho1)
        assert found <= _helstrom(rho0, rho1) + 1e-12
        for _ in range(20):
            alice = _bloch_basis(rng.normal(size=3))
            bob = _bloch_basis(rng.normal(size=3))
            assert _best_assignment(alice, bob, rho0, rho1) <= found + 1e-12


def test_sampling_allowance_is_about_six_sigma_and_holds_for_rare_errors():
    n = 1_000_000
    sigma = np.sqrt(2 * 0.8 * 0.2 / n) / 2.0
    assert 6.0 * sigma < orc.sampling_allowance(0.8, n) < 6.5 * sigma
    # v close to 1 and 1e4 events: 0.036 wrong guesses expected, one seen.
    p = 0.9999982104565199
    assert orc.sampled_within(1.0 - 1 / 20_000, p, 10_000)
    assert not orc.sampled_within(1.0 - 30 / 20_000, p, 10_000)
    assert orc.sampled_within(1.0, 1.0, 10_000)


def test_hollow_residual_and_povm_deviation():
    # F G^dagger = diag(1, -1) / 2 for these states.
    vec0 = np.array([1, 0, 0, 1], dtype=complex) * SQ
    vec1 = np.array([1, 0, 0, -1], dtype=complex) * SQ
    assert orc.hollow_residual(vec0, vec1, np.array([SQ, SQ])) < 1e-16
    assert orc.hollow_residual(vec0, vec1, np.array([1, 0])) == pytest.approx(0.5)
    kets = np.eye(4)
    assert orc.povm_deviation([np.outer(k, k) for k in kets]) == 0.0
    assert orc.povm_deviation([np.outer(k, k) for k in kets[:3]]) == 1.0


def test_tomography_projectors_are_complete():
    projs = orc.tomography_projectors()
    assert projs.shape == (36, 4, 4)
    np.testing.assert_allclose(projs.sum(axis=0), 9 * np.eye(4), atol=1e-14)


def test_profile_likelihood_peaks_at_the_true_state_for_any_exposures():
    rng = np.random.default_rng(4)
    rho = _random_density(rng, 2)
    exposure = rng.uniform(0.5, 2.0, size=36)
    probs = np.einsum("sij,ji->s", orc.tomography_projectors(), rho).real
    counts = 1e6 * exposure * probs
    at_truth = orc.profile_log_likelihood(rho, counts, exposure)
    for _ in range(10):
        other = 0.9 * rho + 0.1 * _random_density(rng)
        assert orc.profile_log_likelihood(other, counts, exposure) < at_truth
    # The intensity is profiled out: scaling every exposure changes nothing
    # that depends on rho.
    shift = orc.profile_log_likelihood(rho, counts, 3 * exposure) - at_truth
    other = 0.9 * rho + 0.1 * np.eye(4) / 4
    assert orc.profile_log_likelihood(other, counts, 3 * exposure) - shift == pytest.approx(
        orc.profile_log_likelihood(other, counts, exposure), rel=1e-12)


def test_trace_distance():
    a = np.diag([1.0, 0, 0, 0])
    b = np.diag([0, 1.0, 0, 0])
    assert orc.trace_distance(a, b) == pytest.approx(1.0)
    assert orc.trace_distance(a, a) == 0.0


def test_self_time_subtracts_the_union_of_child_spans():
    tracer = Tracer()
    tracer.spans = [
        (2, 1, 0, "discrimination.a", 1.0, 3.0),
        (3, 1, 0, "linalg.b", 2.0, 4.0),  # overlaps its sibling, as on a pool thread
        (4, 3, 0, "states.c", 2.5, 3.0),
        (1, None, 0, "cli.main", 0.0, 10.0),
    ]
    selfs = tracer.self_times()
    assert selfs == {1: 7.0, 2: 2.0, 3: 1.5, 4: 0.5}
    busy = tracer.busy()
    assert busy["cli"] == 7.0 and busy["linalg"] == 1.5 and busy["tomography"] == 0.0


def test_tracer_wraps_every_binding_and_restores_it():
    import qdiscrim
    import qdiscrim.cli
    from qdiscrim import discrimination, states

    original = discrimination.helstrom_bound
    tracer = Tracer()
    tracer.install()
    try:
        assert qdiscrim.cli.helstrom_bound is discrimination.helstrom_bound
        assert qdiscrim.helstrom_bound is discrimination.helstrom_bound
        assert discrimination.helstrom_bound is not original
        s0 = states.phi0(30.0)
        discrimination.helstrom_bound(s0.density(), states.phi1(60.0).density())
    finally:
        tracer.uninstall()
    assert qdiscrim.cli.helstrom_bound is original
    names = [span[3] for span in tracer.spans]
    assert "discrimination.helstrom_bound" in names
    assert "linalg.hermitian_eig" in names
    assert "states.DensityMatrix2Q" in names
    by_id = {span[0]: span for span in tracer.spans}
    eig = next(s for s in tracer.spans if s[3] == "linalg.hermitian_eig")
    assert by_id[eig[1]][3] == "discrimination.helstrom_bound"
