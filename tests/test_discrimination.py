import warnings
from contextlib import nullcontext

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
    advantage,
    canonical_protocol,
    ff_success_probability,
    helstrom_bound,
    hollow_vector,
    optimize_local_projective,
    phi0,
    phi1,
    protocol_to_povm,
    psi_pair,
    walgate_decompose,
)
from qdiscrim import discrimination
from qdiscrim.discrimination import T_B_GUESS, optimize_pairs, walgate_pairs
from qdiscrim.linalg import KET_H, KET_V, kron, projector
from qdiscrim.states import DensityMatrix2Q, PureState2Q, werner_noise

from conftest import apply_local, random_density, random_orthogonal_pair, random_unitary2


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


def assert_hollow(m: np.ndarray, rel: float = 1e-12) -> None:
    w = hollow_vector(m)
    assert abs(np.linalg.norm(w) - 1.0) < 1e-14
    assert abs(np.vdot(w, m @ w)) <= rel * np.abs(m).max()
    # n_z >= 0: the H component is real, positive and not the smaller one
    assert w[0].imag == 0.0 and w[0].real >= abs(w[1]) - 1e-15


def random_hermitian_traceless(rng) -> np.ndarray:
    p, q = rng.normal(), rng.normal() + 1j * rng.normal()
    return np.array([[p, q], [np.conj(q), -p]])


# ---------------------------------------------------------------- hollow


def test_hollow_vector_diagonal_case():
    w = hollow_vector(np.diag([1.0, -1.0]).astype(complex))
    assert abs(np.vdot(w, np.diag([1.0, -1.0]) @ w)) < 1e-12
    # any phase works but the magnitudes are forced to 1/sqrt(2)
    assert np.allclose(np.abs(w), [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-9)


def test_hollow_vector_nilpotent_case():
    for m in (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1j, 0.0]])):
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
        # the scan proves a root exists nearby; the closed form must land far below it
        scan = scan_min_residual(m)
        assert resid <= scan + 1e-12
        assert resid < 1e-11


def test_hollow_vector_degenerate_splits(rng):
    assert_hollow(np.zeros((2, 2), dtype=complex))  # m = 0: any unit vector
    for _ in range(200):
        h = random_hermitian_traceless(rng)
        assert_hollow(h)  # b = 0
        assert_hollow(1j * h)  # a = 0
        c = rng.normal() + 1j * rng.normal()
        assert_hollow(c * h)  # a parallel to b
        # a and b parallel up to a small tilt
        for tilt in (1e-3, 1e-8, 1e-14):
            assert_hollow(h + 1j * c.real * (h + tilt * random_hermitian_traceless(rng)))


def test_hollow_vector_scaled_inputs(rng):
    for scale in (1e-9, 1e9):
        for _ in range(200):
            p, q, r = rng.normal(size=3) + 1j * rng.normal(size=3)
            assert_hollow(scale * np.array([[p, q], [r, -p]]))


def test_hollow_vector_at_extreme_scales():
    # Entries near 1e-170 used to divide by zero (|a|^2 underflowed), near
    # 1e-160 to come back 4e-6 off with a residual the gate could not see, and
    # near 1e160 to overflow.  A power-of-two scale changes no bit.
    m = np.array([[1.0, 2.0 + 1.0j], [0.5j, -1.0]])
    base = hollow_vector(m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e-300, 1e-170, 1e160, 1e300):
            w = hollow_vector(scale * m)
            assert np.abs(w - base).max() <= 1e-15
            assert abs(np.vdot(w, scale * m @ w)) <= 1e-12 * np.abs(scale * m).max()
        for power in (-560, 530):
            assert np.array_equal(hollow_vector(2.0**power * m), base)


def test_hollow_vector_closed_form_on_10k_random_traceless():
    # One stacked call for all 10k matrices; each row is the single call's
    # vector, bit for bit, and passes assert_hollow's checks.
    rng = np.random.default_rng(8)
    p, q, r = rng.normal(size=(3, 10_000)) + 1j * rng.normal(size=(3, 10_000))
    m = np.stack([np.stack([p, q], axis=-1), np.stack([r, -p], axis=-1)], axis=1)
    w = discrimination._hollow_vectors(m)
    assert np.abs(np.linalg.norm(w, axis=1) - 1.0).max() < 1e-14
    residual = np.abs(np.einsum("bi,bij,bj->b", w.conj(), m, w))
    assert (residual <= 1e-12 * np.abs(m).max(axis=(1, 2))).all()
    assert (w[:, 0].imag == 0.0).all() and (w[:, 0].real >= np.abs(w[:, 1]) - 1e-15).all()
    for matrix, row in zip(m, w):
        assert np.array_equal(hollow_vector(matrix), row)


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
    # NaN priors used to construct and then fail inside helstrom_bound with a
    # misleading NotHermitianError.
    nan, inf = float("nan"), float("inf")
    for bad in ((nan, 0.5), (0.5, nan), (nan, nan), (inf, 0.0), (inf, -inf)):
        with pytest.raises(ValueError, match="priors"):
            PriorPair(*bad)


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


def _walgate_stack_cases(rng) -> list:
    """Random complex orthogonal pairs, phi pairs with product members (0 and
    90 degrees), a pair whose conditionals both vanish in one Alice branch, and
    H/V product pairs."""
    pairs = [random_orthogonal_pair(rng) for _ in range(40)]
    pairs += [(phi0(t0), phi1(t1)) for t0 in (0.0, 30.0, 90.0) for t1 in (0.0, 45.0, 90.0)]
    ket = {label: PureState2Q(np.eye(4, dtype=complex)[k]) for k, label in enumerate(
        ("HH", "HV", "VH", "VV"))}
    pairs += [(ket["HH"], ket["HV"]), (ket["HV"], ket["HH"]), (ket["HH"], ket["VV"]),
              (ket["HV"], ket["VH"]), (ket["VV"], ket["VH"])]
    return pairs


def _vecs(pairs) -> np.ndarray:
    return np.array([(a.vec, b.vec) for a, b in pairs])


def test_walgate_pairs_is_walgate_decompose_on_every_pair(rng):
    pairs = _walgate_stack_cases(rng)
    alone = [walgate_decompose(a, b) for a, b in pairs]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = walgate_pairs(_vecs(pairs))
        reversed_stack = [bases[::-1] for bases in walgate_pairs(_vecs(pairs[::-1]))]
    assert stacked[0].shape == (len(pairs), 2, 2) and stacked[1].shape == (len(pairs), 2, 2, 2)
    for single, (a, b), *got in zip(alone, pairs, *stacked, *reversed_stack):
        assert np.array_equal(got[0], single.alice_basis) and np.array_equal(got[2], got[0])
        assert np.array_equal(got[1], single.bob_bases) and np.array_equal(got[3], got[1])
        assert np.array_equal(single.guess_map, T_B_GUESS)
        assert abs(ff_success_probability(single, a.density(), b.density()) - 1.0) < 1e-12
    # HH against HV: Alice's V outcome never fires, and its Bob basis is H/V.
    assert np.allclose(np.abs(stacked[0][-5]), np.eye(2))
    assert np.array_equal(stacked[1][-5, 1], np.eye(2))
    empty = walgate_pairs(np.zeros((0, 2, 4), dtype=complex))
    assert empty[0].shape == (0, 2, 2) and empty[1].shape == (0, 2, 2, 2)


def test_walgate_pairs_checks_every_pair():
    good = (phi0(30.0), phi1(60.0))
    with pytest.raises(NotOrthogonalError, match="exceeds 1e-9"):
        walgate_pairs(_vecs([good, psi_pair(20.0), good]))


def test_walgate_bases_are_orthonormal(rng):
    a, b = random_orthogonal_pair(rng)
    protocol = walgate_decompose(a, b)
    for basis in (protocol.alice_basis, protocol.bob_bases[0], protocol.bob_bases[1]):
        gram = basis.conj() @ basis.T
        assert np.abs(gram - np.eye(2)).max() < 1e-12


def test_protocol_projectors_resolve_identity(rng):
    a, b = random_orthogonal_pair(rng)
    protocol = walgate_decompose(a, b)
    total = sum(mat for _, mat in protocol_to_povm(protocol))
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


def kron_oracle_success(protocol, rho0, rho1, priors) -> float:
    """Sum over (i, j) of p_label Tr(rho_label kron(|a_i><a_i|, |b_ij><b_ij|)),
    with the label the protocol's guess for branch (i, j)."""
    total = 0.0
    for i in range(2):
        a = protocol.alice_basis[i]
        for j in range(2):
            b = protocol.bob_bases[i][j]
            label = protocol.guess_map[i, j]
            proj = np.kron(np.outer(a, a.conj()), np.outer(b, b.conj()))
            rho = (rho0, rho1)[label].mat
            total += (priors.p0, priors.p1)[label] * np.trace(rho @ proj).real
    return total


def test_ff_success_matches_kron_oracle_on_random_protocols(rng):
    for n in range(200):
        guess = np.array([(n >> k) & 1 for k in range(4)]).reshape(2, 2)  # all 16 maps
        protocol = FeedForwardProtocol(
            alice_basis=random_unitary2(rng),
            bob_bases=np.stack([random_unitary2(rng), random_unitary2(rng)]),
            guess_map=guess,
        )
        r0, r1 = random_density(rng, 1 + n % 4), random_density(rng, 1 + n % 4)
        p = rng.uniform(0.05, 0.95)
        priors = PriorPair(p, 1.0 - p)
        got = ff_success_probability(protocol, r0, r1, priors)
        assert abs(got - kron_oracle_success(protocol, r0, r1, priors)) < 1e-14


_EYE = np.eye(2, dtype=complex)
_SKEW = np.array([[1.0, 0.0], [0.6, 0.8]], dtype=complex)  # unit rows, not orthogonal


@pytest.mark.parametrize(
    "alice, bobs, guess, message",
    [
        (_SKEW, [_EYE, _EYE], [[0, 1], [0, 1]], "Alice basis is not orthonormal"),
        (_EYE, [_SKEW, _EYE], [[0, 1], [0, 1]], "Bob basis for Alice outcome 0 is not orthonormal"),
        (_EYE, [_EYE, _SKEW], [[0, 1], [0, 1]], "Bob basis for Alice outcome 1 is not orthonormal"),
        (_EYE * np.nan, [_EYE, _EYE], [[0, 1], [0, 1]], "Alice basis is not orthonormal"),
        (np.eye(3), [_EYE, _EYE], [[0, 1], [0, 1]], "Alice basis must be two 2-vectors"),
        (_EYE, [_EYE], [[0, 1], [0, 1]], "expected 2 Bob bases"),
        (_EYE, [_EYE, _EYE], [[0, 1]], "guess_map must be a 2x2 array"),
        (_EYE, [_EYE, _EYE], [[0, 1], [0, 2]], "guess_map must be a 2x2 array"),
        (_EYE, [_EYE, _EYE], [[0, 1], [0.5, 1]], "guess_map must be a 2x2 array"),
    ],
    ids=["alice", "bob0", "bob1", "nan", "alice-shape", "bob-shape", "guess-shape", "label-2",
         "label-0.5"],
)
def test_protocol_validation_names_the_fault(alice, bobs, guess, message):
    with pytest.raises(InvalidProtocolError, match=message):
        FeedForwardProtocol(alice_basis=alice, bob_bases=np.array(bobs), guess_map=np.array(guess))
    if "orthonormal" in message:
        # The Gram check of a stack of bases names its first faulty protocol, at
        # any row, as the constructor does, though a protocol after it is faulty too.
        for row in (0, 2, 4):
            with pytest.raises(InvalidProtocolError, match=message):
                discrimination._check_protocol(*_basis_stack(row, alice, bobs))


def _basis_stack(row: int, alice, bobs):
    """The bases of five canonical protocols with (alice, bobs) at row and, past
    it, a skew Alice basis."""
    good = canonical_protocol()
    stack = [np.array([x] * 5) for x in (good.alice_basis, good.bob_bases)]
    if row < 4:
        stack[0][4] = _SKEW
    stack[0][row], stack[1][row] = alice, bobs
    return stack


@pytest.mark.parametrize("error, accepted", [(0.9e-12, True), (1.1e-12, False)])
@pytest.mark.parametrize("slot", [0, 1, 2], ids=["alice", "bob0", "bob1"])
def test_the_protocol_stack_check_keeps_the_basis_tolerance(error, accepted, slot):
    # Unit rows whose overlap, the Gram matrix's largest error, is exactly error.
    bases = [_EYE, _EYE, _EYE]
    bases[slot] = np.array([[1.0, 0.0], [error, 1.0]], dtype=complex)
    guess = np.array([[0, 1], [0, 1]])
    what = ["Alice basis", "Bob basis for Alice outcome 0", "Bob basis for Alice outcome 1"][slot]

    def verdict():
        return nullcontext() if accepted else pytest.raises(InvalidProtocolError, match=what)

    with verdict():
        FeedForwardProtocol(alice_basis=bases[0], bob_bases=np.array(bases[1:]), guess_map=guess)
    for row in (0, 2, 4):
        stack = _basis_stack(row, bases[0], bases[1:])
        stack[0][4 if row < 4 else 0] = _EYE  # no second fault
        with verdict():
            discrimination._check_protocol(*stack)


# ---------------------------------------------------------------- product (no feed-forward)


def test_ff_success_probability_of_a_product_measurement():
    # Equal Bob bases: a fixed product measurement, with no feed-forward.
    meas = FeedForwardProtocol(
        alice_basis=np.eye(2, dtype=complex),
        bob_bases=np.stack([np.eye(2, dtype=complex)] * 2),
        guess_map=np.array([[0, 0], [1, 1]]),
    )
    hh = PureState2Q(np.array([1, 0, 0, 0], dtype=complex)).density()
    vv = PureState2Q(np.array([0, 0, 0, 1], dtype=complex)).density()
    assert abs(ff_success_probability(meas, hh, vv) - 1.0) < 1e-12
    mixed = DensityMatrix2Q(np.eye(4, dtype=complex) / 4)
    assert abs(ff_success_probability(meas, mixed, mixed) - 0.5) < 1e-12


def test_optimizer_finds_known_optimum_for_fixed_pair():
    r0, r1 = phi0(30.0).density(), phi1(60.0).density()
    _, value = optimize_local_projective(r0, r1)
    assert abs(value - 0.933) < 1e-3


def test_optimizer_reaches_one_for_distinguishable_product_bases():
    hh = PureState2Q(np.array([1, 0, 0, 0], dtype=complex)).density()
    vv = PureState2Q(np.array([0, 0, 0, 1], dtype=complex)).density()
    meas, value = optimize_local_projective(hh, vv)
    assert abs(value - 1.0) < 1e-9
    assert int(meas.guess_map[0, 0]) != int(meas.guess_map[1, 1])


def test_optimizer_on_identical_states_gives_half():
    rho = phi0(30.0).density()
    _, value = optimize_local_projective(rho, rho)
    assert abs(value - 0.5) < 1e-9


def test_optimizer_perfect_on_orthogonal_bell_pair():
    # two maximally entangled orthogonal states: D/A on both sides works
    plus = PureState2Q(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)).density()
    minus = PureState2Q(np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2)).density()
    _, value = optimize_local_projective(plus, minus)
    assert abs(value - 1.0) < 1e-6


def test_optimizer_never_beats_helstrom(rng):
    for _ in range(10):
        r0, r1 = random_density(rng), random_density(rng)
        _, value = optimize_local_projective(r0, r1)
        assert value <= helstrom_bound(r0, r1) + 1e-9
        assert value >= 0.5 - 1e-9


def test_optimizer_reproducible_bit_for_bit():
    r0 = werner_noise(phi0(30.0), 0.956)
    r1 = werner_noise(phi1(60.0), 0.956)
    m1, v1 = optimize_local_projective(r0, r1)
    m2, v2 = optimize_local_projective(r0, r1)
    assert v1 == v2
    assert np.array_equal(m1.alice_basis, m2.alice_basis)
    assert np.array_equal(m1.bob_bases, m2.bob_bases)
    assert np.array_equal(m1.guess_map, m2.guess_map)


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


def dense_no_ff_search(rho0, rho1, priors=EQUAL_PRIORS, step_deg=1.0) -> float:
    """Best no-feed-forward success found on a sphere grid of Alice directions
    (1-degree steps by default), refined by shrinking 21 x 21 patches around
    the best points."""
    t, p = np.meshgrid(
        np.radians(np.arange(0.0, 180.0 + step_deg / 2, step_deg)),
        np.radians(np.arange(0.0, 360.0, step_deg)),
        indexing="ij",
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
    # by up to 1.5e-4 (0.977392 at the first corner).
    rho0 = werner_noise(phi0(theta0), 0.9551)
    rho1 = werner_noise(phi1(theta1), 0.9551)
    _, value = optimize_local_projective(rho0, rho1)
    assert value >= dense_no_ff_search(rho0, rho1) - 1e-12
    assert value <= helstrom_bound(rho0, rho1) + 1e-12
    if (theta0, theta1) == (89.78, 1.06):
        assert value >= 0.97754


def test_optimizer_matches_dense_search_on_random_pairs(rng):
    for rank, priors in ((4, EQUAL_PRIORS), (2, PriorPair(0.3, 0.7)), (1, PriorPair(0.6, 0.4))):
        r0, r1 = random_density(rng, rank), random_density(rng, rank)
        meas, value = optimize_local_projective(r0, r1, priors)
        assert value >= dense_no_ff_search(r0, r1, priors) - 1e-12
        assert value <= helstrom_bound(r0, r1, priors) + 1e-12
        assert isinstance(meas, FeedForwardProtocol)
        assert np.array_equal(meas.bob_bases[0], meas.bob_bases[1])
        assert value == ff_success_probability(meas, r0, r1, priors)


def _pure(*amplitudes) -> DensityMatrix2Q:
    vec = np.array(amplitudes, dtype=complex)
    return PureState2Q(vec / np.linalg.norm(vec)).density()


DEGENERATE_PAIRS = {
    # Ridges: a whole circle of Alice directions is optimal.
    "phi+/phi-": (_pure(1, 0, 0, 1), _pure(1, 0, 0, -1), 1.0),
    "phi+/psi+": (_pure(1, 0, 0, 1), _pure(0, 1, 1, 0), 1.0),
    "identical": (phi0(30.0).density(), phi0(30.0).density(), 0.5),
    "HH/VV": (_pure(1, 0, 0, 0), _pure(0, 0, 0, 1), 1.0),
    # Product pairs at the corners of the default grid.
    "grid 0/0": (werner_noise(phi0(0.0), 0.956), werner_noise(phi1(0.0), 0.956), None),
    "grid 90/90": (werner_noise(phi0(90.0), 0.956), werner_noise(phi1(90.0), 0.956), None),
    "grid 0/90": (werner_noise(phi0(0.0), 0.956), werner_noise(phi1(90.0), 0.956), None),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE_PAIRS))
def test_optimizer_on_degenerate_pairs_is_clean(name):
    # Singular Newton systems, r = 0 and g = 0 must neither warn nor raise.
    r0, r1, expected = DEGENERATE_PAIRS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, value = optimize_local_projective(r0, r1)
    assert value <= helstrom_bound(r0, r1) + 1e-12
    if expected is not None:
        assert abs(value - expected) < 1e-12


def test_optimizer_polish_converges_in_few_steps(rng, monkeypatch):
    # Newton steps converge quadratically: the cap of 30 steps gives the
    # measurement and value of a run capped at 500 steps.
    pairs = []
    for i in range(100):
        r0, r1 = random_density(rng, 1 + i % 4), random_density(rng, 1 + i % 4)
        p = rng.uniform(0.05, 0.3)
        pairs.append((r0, r1, PriorPair(p, 1.0 - p) if i % 2 else PriorPair(1.0 - p, p)))
    capped = [optimize_local_projective(*pair) for pair in pairs]
    monkeypatch.setattr(discrimination, "_MAX_STEPS", 500)
    for pair, (meas, short) in zip(pairs, capped):
        full_meas, full = optimize_local_projective(*pair)
        assert short == full
        assert np.array_equal(meas.alice_basis, full_meas.alice_basis)


def test_polish_stops_once_its_leader_has_stopped(monkeypatch):
    # _mixed_term scores the grid once per call and the candidates once per
    # polish step, so its calls count the steps without a clock.  Running
    # every start until it stops took 6.1 steps a call on these pairs.
    calls = []
    mixed_term = discrimination._mixed_term
    monkeypatch.setattr(
        discrimination, "_mixed_term", lambda *args: calls.append(1) or mixed_term(*args)
    )
    rng = np.random.default_rng(1919)
    pairs = []
    for i in range(180):
        v = 1.0 if i % 2 else rng.uniform(0.85, 1.0)
        if i < 100:
            a, b = phi0(rng.uniform(0.0, 90.0)), phi1(rng.uniform(0.0, 90.0))
        else:
            a, b = psi_pair(rng.uniform(0.0, 45.0))
        pairs.append((werner_noise(a, v), werner_noise(b, v)))
    for r0, r1 in pairs:
        optimize_local_projective(r0, r1)
    steps = (len(calls) - len(pairs)) / len(pairs)
    assert steps <= 4.5


def test_optimizer_with_early_stop_meets_the_oracles_on_skewed_priors():
    rng = np.random.default_rng(1920)
    for i in range(12):
        r0, r1 = random_density(rng, 1 + i % 4), random_density(rng, 1 + i % 4)
        p = rng.uniform(0.05, 0.3)
        priors = PriorPair(p, 1.0 - p) if i % 2 else PriorPair(1.0 - p, p)
        _, value = optimize_local_projective(r0, r1, priors)
        assert value >= dense_no_ff_search(r0, r1, priors, step_deg=2.0) - 1e-12
        assert value <= helstrom_bound(r0, r1, priors) + 1e-12


PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _bloch(ket: np.ndarray) -> np.ndarray:
    a, b = ket
    return np.array([2 * (a.conj() * b).real, 2 * (a.conj() * b).imag, abs(a) ** 2 - abs(b) ** 2])


def test_optimizer_without_polish_keeps_the_best_grid_point(rng):
    # refine_starts=0 is the grid-only optimiser that the benchmark times alone.
    grid_only = OptimizerConfig(refine_starts=0)
    grid = discrimination._GRID
    assert grid.shape == (288, 3) and not grid.flags.writeable
    assert np.allclose(np.linalg.norm(grid, axis=1), 1.0)
    gained = 0
    for i in range(30):
        r0, r1 = random_density(rng, 1 + i % 4), random_density(rng, 1 + i % 4)
        priors = PriorPair(0.3, 0.7) if i % 2 else EQUAL_PRIORS
        meas, coarse = optimize_local_projective(r0, r1, priors, grid_only)
        _, polished = optimize_local_projective(r0, r1, priors)
        # No grid direction does better than the grid-only result ...
        assert coarse >= brute_force_success(r0, r1, priors, grid).max() - 1e-12
        # ... and the polish never loses value.
        assert polished >= coarse - 1e-15
        gained += polished > coarse + 1e-9
        # Without polish, Alice measures along a grid point or a closed-form
        # direction, the only other candidates.
        d = (priors.p0 * r0.mat - priors.p1 * r1.mat).reshape(2, 2, 2, 2)
        table = np.einsum("mca,neb,abce->mn", PAULIS, PAULIS, d).real
        u = np.linalg.svd(table[1:, 1:])[0][:, 0]
        allowed = np.vstack([grid, table[1:, 0] / np.linalg.norm(table[1:, 0]), u])
        alice = _bloch(meas.alice_basis[0])
        assert np.linalg.norm(allowed - alice, axis=1).min() < 1e-7
    assert gained >= 10


def test_optimizer_config_rejects_negative_starts():
    with pytest.raises(ValueError):
        OptimizerConfig(refine_starts=-1)


def test_optimizer_config_takes_integers_only():
    for good in (0, 3, np.int64(2), np.int32(0)):
        assert OptimizerConfig(refine_starts=good).refine_starts == good
    # A float used to pass and then end the optimiser in a slice TypeError.
    for bad in (2.5, 2.0, True, False, np.float64(2.0), "2", None):
        with pytest.raises(ValueError, match="refine_starts"):
            OptimizerConfig(refine_starts=bad)


def _mats(pairs) -> np.ndarray:
    return np.array([(r0.mat, r1.mat) for r0, r1 in pairs])


def _rows(stacked) -> list:
    """optimize_pairs' (alice, bobs, guess, values) stacks as one
    (FeedForwardProtocol, value) per pair."""
    return [(FeedForwardProtocol(*bases), value) for *bases, value in zip(*stacked)]


def _same_result(got, want) -> bool:
    """Bit for bit, or within 1e-15 with the same guess map."""
    (m1, v1), (m2, v2) = got, want
    if v1 == v2 and all(
        np.array_equal(getattr(m1, k), getattr(m2, k))
        for k in ("alice_basis", "bob_bases", "guess_map")
    ):
        return True
    return abs(v1 - v2) <= 1e-15 and np.array_equal(m1.guess_map, m2.guess_map)


def test_optimize_pairs_agrees_with_single_calls_on_skewed_priors():
    rng = np.random.default_rng(2301)
    pairs = [(random_density(rng, 1 + i % 4), random_density(rng, 1 + (i // 4) % 4))
             for i in range(200)]
    assert len(pairs) > 3 * discrimination._BLOCK  # every block, the last one partly filled
    for priors in (PriorPair(0.3, 0.7), PriorPair(0.85, 0.15)):
        stacked = _rows(optimize_pairs(_mats(pairs), priors))
        assert len(stacked) == len(pairs)
        for pair, got in zip(pairs, stacked):
            assert _same_result(got, optimize_local_projective(*pair, priors))
            assert got[1] == ff_success_probability(got[0], *pair, priors)


def test_optimize_pairs_result_does_not_depend_on_the_stack(monkeypatch):
    # Degenerate pairs stop at once or sit on ridges; they share the stack with
    # pairs that need several steps, and nobody's result may move.  The polished
    # starts are compared too: a pair whose polish has ended keeps its losing
    # starts where they were, however long the others go on.
    rng = np.random.default_rng(2302)
    targets = [(werner_noise(phi0(rng.uniform(0, 90)), 0.93),
                werner_noise(phi1(rng.uniform(0, 90)), 0.93)) for _ in range(4)]
    targets += [(random_density(rng, 2), random_density(rng, 3)) for _ in range(4)]
    degenerate = [(r0, r1) for r0, r1, _ in DEGENERATE_PAIRS.values()]
    stack = [p for pair in zip(targets, degenerate + degenerate[:1]) for p in pair]
    polished = []
    polish = discrimination._polish
    monkeypatch.setattr(
        discrimination, "_polish", lambda *args: polished.append(polish(*args)) or polished[-1]
    )
    alone = [optimize_local_projective(*pair) for pair in stack]
    alone_starts = np.concatenate(polished)
    polished.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = _rows(optimize_pairs(_mats(stack)))
        reversed_stack = _rows(optimize_pairs(_mats(stack)[::-1]))[::-1]
    assert np.array_equal(polished[0], alone_starts)
    assert np.array_equal(polished[1][::-1], alone_starts)
    for single, got, got_reversed in zip(alone, stacked, reversed_stack):
        for result in (got, got_reversed):
            assert result[1] == single[1]
            assert np.array_equal(result[0].alice_basis, single[0].alice_basis)
            assert np.array_equal(result[0].bob_bases, single[0].bob_bases)
            assert np.array_equal(result[0].guess_map, single[0].guess_map)
    for (r0, r1, expected), (_, value) in zip(DEGENERATE_PAIRS.values(), stacked[1::2]):
        if expected is not None:
            assert abs(value - expected) < 1e-12


def test_optimize_pairs_crosses_block_boundaries(monkeypatch):
    rng = np.random.default_rng(2303)
    pairs = [(random_density(rng, 2), random_density(rng, 4)) for _ in range(11)]
    alone = [optimize_local_projective(*pair) for pair in pairs]
    sizes = []
    block = discrimination._optimize_block
    monkeypatch.setattr(
        discrimination, "_optimize_block", lambda p, *rest: sizes.append(len(p)) or block(p, *rest)
    )
    monkeypatch.setattr(discrimination, "_BLOCK", 4)
    stacked = _rows(optimize_pairs(_mats(pairs)))
    assert sizes == [4, 4, 3]
    assert all(_same_result(got, want) for got, want in zip(stacked, alone, strict=True))
    empty = optimize_pairs(np.zeros((0, 2, 4, 4), dtype=complex))
    assert [x.shape for x in empty] == [(0, 2, 2), (0, 2, 2, 2), (0, 2, 2), (0,)]


def test_optimize_pairs_without_polish():
    rng = np.random.default_rng(2304)
    pairs = [(random_density(rng, 1 + i % 4), random_density(rng, 1 + i % 3)) for i in range(20)]
    grid_only = OptimizerConfig(refine_starts=0)
    coarse = _rows(optimize_pairs(_mats(pairs), PriorPair(0.4, 0.6), grid_only))
    polished = _rows(optimize_pairs(_mats(pairs), PriorPair(0.4, 0.6)))
    for pair, got, better in zip(pairs, coarse, polished):
        assert _same_result(got, optimize_local_projective(*pair, PriorPair(0.4, 0.6), grid_only))
        assert better[1] >= got[1] - 1e-15
    assert sum(b[1] > c[1] + 1e-9 for b, c in zip(polished, coarse)) >= 5


# ---------------------------------------------------------------- advantage


def test_advantage_known_value_for_fixed_pair():
    a, b = phi0(30.0), phi1(60.0)
    protocol = walgate_decompose(a, b)
    adv = advantage(a.density(), b.density(), protocol)
    assert abs(adv - 0.067) < 1e-3


def test_advantage_zero_for_product_pairs():
    a, b = phi0(0.0), phi1(90.0)
    protocol = walgate_decompose(a, b)
    adv = advantage(a.density(), b.density(), protocol)
    assert abs(adv) < 1e-6
