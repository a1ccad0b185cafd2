import numpy as np
import pytest

from qdiscrim import (
    EQUAL_PRIORS,
    ConvergenceFailure,
    FeedForwardProtocol,
    InvalidProtocolError,
    NotOrthogonalError,
    NotTracelessError,
    OptimizerConfig,
    PriorPair,
    ProductMeasurement,
    advantage,
    canonical_protocol,
    ff_success_probability,
    helstrom_bound,
    hollow_vector,
    optimize_local_projective,
    phi0,
    phi1,
    product_success_probability,
    psi_pair,
    walgate_decompose,
)
from qdiscrim.linalg import KET_H, KET_V, kron, projector
from qdiscrim.states import DensityMatrix2Q, PureState2Q, apply_local, werner_noise

from conftest import random_density, random_orthogonal_pair, random_unitary2

LIGHT = OptimizerConfig(polar_points=12, azimuth_points=8, refine_starts=3, max_refine_iterations=300)


def random_traceless(rng) -> np.ndarray:
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return m - (m.trace() / 2.0) * np.eye(2)


def scan_min_residual(m: np.ndarray, points: int = 400) -> float:
    """Independent grid-scan oracle for the smallest |<w|m|w>| on the sphere."""
    t = np.linspace(0.0, np.pi / 2.0, points)
    p = np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)
    tt, pp = np.meshgrid(t, p, indexing="ij")
    c, s = np.cos(tt), np.sin(tt)
    e = np.exp(1j * pp)
    f = m[0, 0] * c * c + m[1, 1] * s * s + (m[0, 1] * e + m[1, 0] / e) * s * c
    return float(np.abs(f).min())


# ---------------------------------------------------------------- hollow


def test_hollow_vector_diagonal_case():
    w = hollow_vector(np.diag([1.0, -1.0]).astype(complex))
    assert abs(np.vdot(w, np.diag([1.0, -1.0]) @ w)) < 1e-12
    # any phase works but the magnitudes are forced to 1/sqrt(2)
    assert np.allclose(np.abs(w), [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-9)


def test_hollow_vector_nilpotent_case():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    w = hollow_vector(m)
    assert abs(np.vdot(w, m @ w)) < 1e-12
    assert abs(np.linalg.norm(w) - 1.0) < 1e-12


def test_hollow_vector_residual_on_1000_random_traceless(rng):
    worst = 0.0
    for _ in range(1000):
        m = random_traceless(rng)
        w = hollow_vector(m)
        assert abs(np.linalg.norm(w) - 1.0) < 1e-12
        worst = max(worst, abs(np.vdot(w, m @ w)))
    assert worst < 1e-11


def test_hollow_vector_beats_grid_scan_oracle(rng):
    for _ in range(10):
        m = random_traceless(rng)
        w = hollow_vector(m)
        resid = abs(np.vdot(w, m @ w))
        # the scan proves a root exists nearby; Newton must land far below it
        scan = scan_min_residual(m)
        assert resid <= scan + 1e-12
        assert resid < 1e-11


def test_hollow_vector_rejects_traceful_input():
    with pytest.raises(NotTracelessError):
        hollow_vector(np.eye(2, dtype=complex))


# ---------------------------------------------------------------- priors


def test_prior_pair_validation():
    PriorPair(0.3, 0.7)
    with pytest.raises(ValueError):
        PriorPair(0.6, 0.6)
    with pytest.raises(ValueError):
        PriorPair(-0.1, 1.1)


# ---------------------------------------------------------------- walgate


def test_walgate_rejects_non_orthogonal_inputs():
    a, b = psi_pair(20.0)
    with pytest.raises(NotOrthogonalError):
        walgate_decompose(a, b)


def test_walgate_perfect_on_family_grid():
    for t0 in range(0, 91, 15):
        for t1 in range(0, 91, 15):
            a, b = phi0(t0), phi1(t1)
            protocol = walgate_decompose(a, b)
            p = ff_success_probability(protocol, a.density(), b.density())
            assert abs(p - 1.0) < 1e-9


def test_walgate_perfect_on_random_orthogonal_pairs(rng):
    for _ in range(300):
        a, b = random_orthogonal_pair(rng)
        protocol = walgate_decompose(a, b)
        p = ff_success_probability(protocol, a.density(), b.density())
        assert abs(p - 1.0) < 1e-9


def test_walgate_handles_shared_alice_support():
    # both states live on Alice's |H>: one Alice branch is dead for both
    a = PureState2Q(np.array([1, 0, 0, 0], dtype=complex))
    b = PureState2Q(np.array([0, 1, 0, 0], dtype=complex))
    protocol = walgate_decompose(a, b)
    assert abs(ff_success_probability(protocol, a.density(), b.density()) - 1.0) < 1e-9


def test_walgate_bases_are_orthonormal(rng):
    a, b = random_orthogonal_pair(rng)
    protocol = walgate_decompose(a, b)
    for basis in (protocol.alice_basis, protocol.bob_bases[0], protocol.bob_bases[1]):
        gram = basis.conj() @ basis.T
        assert np.abs(gram - np.eye(2)).max() < 1e-12


def test_protocol_projectors_resolve_identity(rng):
    a, b = random_orthogonal_pair(rng)
    protocol = walgate_decompose(a, b)
    total = sum(protocol.projector(i, j) for i in range(2) for j in range(2))
    assert np.abs(total - np.eye(4)).max() < 1e-12


def test_protocol_validation_rejects_bad_bases():
    with pytest.raises(InvalidProtocolError):
        FeedForwardProtocol(
            alice_basis=np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex),
            bob_bases=np.stack([np.eye(2, dtype=complex)] * 2),
            guess_map=np.array([[0, 1], [0, 1]]),
        )


def test_canonical_protocol_discriminates_whole_family():
    protocol = canonical_protocol()
    assert np.allclose(protocol.alice_basis[0], KET_H)
    assert np.allclose(protocol.alice_basis[1], KET_V)
    for t0 in range(0, 91, 15):
        for t1 in range(0, 91, 15):
            p = ff_success_probability(protocol, phi0(t0).density(), phi1(t1).density())
            assert abs(p - 1.0) < 1e-12


# ---------------------------------------------------------------- helstrom


def test_helstrom_known_values():
    r0, r1 = phi0(30.0).density(), phi1(60.0).density()
    assert abs(helstrom_bound(r0, r1) - 1.0) < 1e-12
    s = phi0(30.0).density()
    assert abs(helstrom_bound(s, s) - 0.5) < 1e-12


def test_helstrom_matches_overlap_law_on_psi_pairs():
    for eta in np.linspace(0.0, 45.0, 46):
        a, b = psi_pair(eta)
        want = 0.5 * (1.0 + np.sin(np.deg2rad(2.0 * eta)))
        assert abs(helstrom_bound(a.density(), b.density()) - want) < 1e-9


def test_helstrom_invariant_under_product_unitaries(rng):
    a, b = psi_pair(17.0)
    base = helstrom_bound(a.density(), b.density())
    for _ in range(10):
        ua, ub = random_unitary2(rng), random_unitary2(rng)
        moved = helstrom_bound(
            apply_local(ua, ub, a.density()), apply_local(ua, ub, b.density())
        )
        assert abs(moved - base) < 1e-10


def test_helstrom_with_skewed_priors(rng):
    rho = random_density(rng)
    # certain prior: always guess the certain hypothesis
    assert abs(helstrom_bound(rho, rho, PriorPair(1.0, 0.0)) - 1.0) < 1e-12


def test_ff_success_matches_canonical_bound_on_psi_pairs():
    protocol = canonical_protocol()
    for eta in range(0, 46, 5):
        a, b = psi_pair(eta)
        got = ff_success_probability(protocol, a.density(), b.density())
        want = 0.5 * (1.0 + np.sin(np.deg2rad(2.0 * eta)))
        assert abs(got - want) < 1e-12


def test_ff_success_on_werner_pair_is_visibility_law():
    protocol = walgate_decompose(phi0(30.0), phi1(60.0))
    for v in (1.0, 0.956, 0.5, 0.0):
        r0 = werner_noise(phi0(30.0), v)
        r1 = werner_noise(phi1(60.0), v)
        got = ff_success_probability(protocol, r0, r1)
        assert abs(got - (v + (1.0 - v) / 2.0)) < 1e-12


# ---------------------------------------------------------------- product (no feed-forward)


def test_product_success_probability_simple_cases():
    meas = ProductMeasurement(
        alice_basis=np.eye(2, dtype=complex),
        bob_basis=np.eye(2, dtype=complex),
        assignment=np.array([[0, 0], [1, 1]]),
    )
    hh = PureState2Q(np.array([1, 0, 0, 0], dtype=complex)).density()
    vv = PureState2Q(np.array([0, 0, 0, 1], dtype=complex)).density()
    assert abs(product_success_probability(meas, hh, vv) - 1.0) < 1e-12
    mixed = DensityMatrix2Q(np.eye(4, dtype=complex) / 4)
    assert abs(product_success_probability(meas, mixed, mixed) - 0.5) < 1e-12


def test_optimizer_finds_known_optimum_for_fixed_pair():
    r0, r1 = phi0(30.0).density(), phi1(60.0).density()
    _, value = optimize_local_projective(r0, r1)
    assert abs(value - 0.933) < 1e-3


def test_optimizer_reaches_one_for_distinguishable_product_bases():
    hh = PureState2Q(np.array([1, 0, 0, 0], dtype=complex)).density()
    vv = PureState2Q(np.array([0, 0, 0, 1], dtype=complex)).density()
    meas, value = optimize_local_projective(hh, vv, config=LIGHT)
    assert abs(value - 1.0) < 1e-9
    assert int(meas.assignment[0, 0]) != int(meas.assignment[1, 1])


def test_optimizer_on_identical_states_gives_half():
    rho = phi0(30.0).density()
    _, value = optimize_local_projective(rho, rho, config=LIGHT)
    assert abs(value - 0.5) < 1e-9


def test_optimizer_perfect_on_orthogonal_bell_pair():
    # two maximally entangled orthogonal states: D/A on both sides works
    plus = PureState2Q(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)).density()
    minus = PureState2Q(np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2)).density()
    _, value = optimize_local_projective(plus, minus, config=LIGHT)
    assert abs(value - 1.0) < 1e-6


def test_optimizer_never_beats_helstrom(rng):
    for _ in range(10):
        r0, r1 = random_density(rng), random_density(rng)
        _, value = optimize_local_projective(r0, r1, config=LIGHT)
        assert value <= helstrom_bound(r0, r1) + 1e-9
        assert value >= 0.5 - 1e-9


def test_optimizer_reproducible_bit_for_bit():
    r0 = werner_noise(phi0(30.0), 0.956)
    r1 = werner_noise(phi1(60.0), 0.956)
    m1, v1 = optimize_local_projective(r0, r1, config=LIGHT)
    m2, v2 = optimize_local_projective(r0, r1, config=LIGHT)
    assert v1 == v2
    assert np.array_equal(m1.alice_basis, m2.alice_basis)
    assert np.array_equal(m1.bob_basis, m2.bob_basis)
    assert np.array_equal(m1.assignment, m2.assignment)


def _alice_kets(dirs: np.ndarray):
    t = np.arccos(np.clip(dirs[:, 2], -1.0, 1.0))
    p = np.arctan2(dirs[:, 1], dirs[:, 0])
    ket = np.stack([np.cos(t / 2), np.exp(1j * p) * np.sin(t / 2)], axis=1)
    return ket, np.stack([-ket[:, 1].conj(), ket[:, 0].conj()], axis=1)


def brute_force_success(rho0, rho1, priors, alice_dirs: np.ndarray) -> np.ndarray:
    """Success for each Alice Bloch direction, with Bob's basis the best
    eigenbasis of his two conditional operators, their sum or their
    difference, scored by explicit projections."""
    d = (priors.p0 * rho0.mat - priors.p1 * rho1.mat).reshape(2, 2, 2, 2)
    sides = [np.einsum("ga,abce,gc->gbe", k.conj(), d, k) for k in _alice_kets(alice_dirs)]
    best = np.zeros(len(alice_dirs))
    for op in (sides[0], sides[1], sides[0] + sides[1], sides[0] - sides[1]):
        _, bob = np.linalg.eigh(op)
        diag = [np.einsum("gbt,gbe,get->gt", bob.conj(), side, bob) for side in sides]
        best = np.maximum(best, 0.5 + 0.5 * sum(np.abs(x).sum(axis=1) for x in diag))
    return best


def dense_no_ff_search(rho0, rho1, priors=EQUAL_PRIORS) -> float:
    """Best no-feed-forward success found on a 1-degree sphere grid of Alice
    directions, refined by shrinking 21 x 21 patches around the best points."""
    t, p = np.meshgrid(
        np.radians(np.arange(181.0)), np.radians(np.arange(360.0)), indexing="ij"
    )
    dirs = np.stack([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)], -1)
    dirs = dirs.reshape(-1, 3)
    vals = brute_force_success(rho0, rho1, priors, dirs)
    u = np.linspace(-1.0, 1.0, 21)
    offsets = np.stack(np.meshgrid(u, u, indexing="ij"), -1).reshape(-1, 2)
    best = float(vals.max())
    for m in dirs[np.argsort(-vals)[:4]]:
        for scale in (3e-2, 3e-3, 3e-4, 3e-5, 3e-6):
            e1 = np.cross(m, [1.0, 0.0, 0.0] if abs(m[0]) < 0.9 else [0.0, 1.0, 0.0])
            e1 /= np.linalg.norm(e1)
            e2 = np.cross(m, e1)
            cand = m + scale * (offsets[:, :1] * e1 + offsets[:, 1:] * e2)
            cand /= np.linalg.norm(cand, axis=1, keepdims=True)
            cand_vals = brute_force_success(rho0, rho1, priors, cand)
            m = cand[np.argmax(cand_vals)]
            best = max(best, float(cand_vals.max()))
    return best


@pytest.mark.parametrize(
    "theta0, theta1", [(89.78, 1.06), (0.22, 1.06), (0.22, 88.94), (89.78, 88.94)]
)
def test_optimizer_finds_optimum_near_product_corners(theta0, theta1):
    # Near pairs of product states a grid + simplex search once stopped short
    # by up to 1.5e-4 (0.977392 at the first corner).  On the coarse LIGHT
    # grid, zooms from grid points alone stop 1e-6 short at two corners.
    rho0 = werner_noise(phi0(theta0), 0.9551)
    rho1 = werner_noise(phi1(theta1), 0.9551)
    reference = dense_no_ff_search(rho0, rho1)
    for config in (None, LIGHT):
        _, value = optimize_local_projective(rho0, rho1, config=config)
        assert value >= reference - 1e-12
        assert value <= helstrom_bound(rho0, rho1) + 1e-12
        if (theta0, theta1) == (89.78, 1.06):
            assert value >= 0.97754


def test_optimizer_matches_dense_search_on_random_pairs(rng):
    for rank, priors in ((4, EQUAL_PRIORS), (2, PriorPair(0.3, 0.7)), (1, PriorPair(0.6, 0.4))):
        r0, r1 = random_density(rng, rank), random_density(rng, rank)
        meas, value = optimize_local_projective(r0, r1, priors)
        assert value >= dense_no_ff_search(r0, r1, priors) - 1e-12
        assert value <= helstrom_bound(r0, r1, priors) + 1e-12
        assert value == product_success_probability(meas, r0, r1, priors)


def test_optimizer_config_json_roundtrip():
    cfg = OptimizerConfig(polar_points=10, azimuth_points=6)
    again = OptimizerConfig.from_json(cfg.to_json())
    assert again == cfg
    with pytest.raises(ValueError):
        OptimizerConfig.from_json({"polar_points": 10, "bogus": 1})


# ---------------------------------------------------------------- advantage


def test_advantage_known_value_for_fixed_pair():
    a, b = phi0(30.0), phi1(60.0)
    protocol = walgate_decompose(a, b)
    adv = advantage(a.density(), b.density(), protocol)
    assert abs(adv - 0.067) < 1e-3


def test_advantage_zero_for_product_pairs():
    a, b = phi0(0.0), phi1(90.0)
    protocol = walgate_decompose(a, b)
    adv = advantage(a.density(), b.density(), protocol, config=LIGHT)
    assert abs(adv) < 1e-6
