import warnings

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
    draw_coincidences,
    estimate,
    ff_success_probability,
    phi0,
    phi1,
    protocol_to_povm,
    sample_coincidences,
    simulate_tomography,
    walgate_decompose,
    werner_noise,
)
from qdiscrim.discrimination import BASIS_ATOL, T_B_GUESS, _product_kets
from qdiscrim.linalg import kron, projector
from qdiscrim.measurement import (
    TOMO_DESIGN,
    TOMO_LABELS,
    TomographyRecord,
    coincidence_probabilities,
    setting_probabilities,
)

from conftest import TOMO_PROJECTORS, random_density, random_unitary2

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
    with pytest.raises(TypeError, match="expected a FeedForwardProtocol"):
        protocol_to_povm("not a protocol")
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


@pytest.mark.parametrize(
    "n_total",
    [1.9, 1.0, np.float64(10.0), True, False, float("inf"), float("nan"), 0, -5, 2**62 + 1,
     "10", None],
)
def test_sample_coincidences_takes_integer_counts_only(n_total, monkeypatch):
    # 1.9 used to draw 1 event, True 1 event, and infinity ended in OverflowError.
    povm = protocol_to_povm(walgate_decompose(phi0(30.0), phi1(60.0)))
    rho = werner_noise(phi0(30.0), 0.9)

    def no_draw(*args, **kwargs):
        raise AssertionError("a generator was made before the count was checked")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ValueError, match="n_total"):
        sample_coincidences(rho, povm, n_total, seed=1)


def test_sample_coincidences_accepts_integers_up_to_max_count():
    povm = protocol_to_povm(walgate_decompose(phi0(30.0), phi1(60.0)))
    rho = werner_noise(phi0(30.0), 0.9)
    for n_total in (1, np.int64(7), np.uint8(3), 2**62):
        assert sample_coincidences(rho, povm, n_total, seed=1).total == n_total


def _random_t_b_protocol(rng) -> FeedForwardProtocol:
    return FeedForwardProtocol(
        alice_basis=random_unitary2(rng),
        bob_bases=np.stack([random_unitary2(rng), random_unitary2(rng)]),
        guess_map=np.array([[0, 1], [0, 1]]),
    )


def _kron_povm(protocol: FeedForwardProtocol) -> list:
    """The four coincidence projectors as np.kron of Alice's and Bob's
    one-qubit projectors, in COINCIDENCE_LABELS order."""
    return [np.kron(np.outer(a, a.conj()), np.outer(b, b.conj()))
            for a, bob in zip(protocol.alice_basis, protocol.bob_bases) for b in bob]


def test_protocol_to_povm_is_the_kron_of_the_local_projectors():
    rng = np.random.default_rng(2404)
    for _ in range(200):
        protocol = _random_t_b_protocol(rng)
        povm = protocol_to_povm(protocol)
        assert [label for label, _ in povm] == list(COINCIDENCE_LABELS)
        for (_, got), want in zip(povm, _kron_povm(protocol), strict=True):
            assert np.abs(got - want).max() <= 1e-15


def test_coincidence_probabilities_are_the_povm_traces():
    rng = np.random.default_rng(2401)
    protocols = [_random_t_b_protocol(rng) for _ in range(30)]
    protocols += [canonical_protocol(), walgate_decompose(phi0(30.0), phi1(60.0))]
    rhos = [[random_density(rng, 1 + (k + r) % 4) for r in range(3)] for k in range(32)]
    alice = np.array([p.alice_basis for p in protocols])
    bobs = np.array([p.bob_bases for p in protocols])
    mats = np.array([[rho.mat for rho in row] for row in rhos])
    probs = coincidence_probabilities(alice, bobs, mats)
    assert probs.shape == (32, 3, 4)
    for protocol, states, got in zip(protocols, rhos, probs):
        want = [[np.trace(rho.mat @ mat).real for mat in _kron_povm(protocol)] for rho in states]
        assert np.abs(got - want).max() <= 1e-15
    # A stack gives exactly the numbers of each protocol alone, whatever other
    # states share its row.
    for k in (0, 17, 31):
        row = np.concatenate([mats[k], mats[0]])[None]
        one = coincidence_probabilities(alice[k : k + 1], bobs[k : k + 1], row)
        assert np.array_equal(one[0, :3], probs[k])
    empty = coincidence_probabilities(alice[:0], bobs[:0], np.zeros((0, 0, 4, 4)))
    assert empty.shape == (0, 0, 4)
    # The stack's Gram check is the protocols' one: a basis it reads must be orthonormal.
    skew = alice.copy()
    skew[17, 1] = skew[17, 0]
    with pytest.raises(InvalidProtocolError, match="Alice basis is not orthonormal"):
        coincidence_probabilities(skew, bobs, mats)


def test_accepted_protocols_resolve_the_identity_up_to_the_gram_limit():
    # The protocol's Gram check is the one completeness proof: no reader of its
    # kets checks again that their projectors sum to I.  Bases perturbed up to
    # the edge of BASIS_ATOL must still resolve it far inside 1e-9.
    rng = np.random.default_rng(2406)
    worst_gram, worst_sum, accepted = 0.0, 0.0, 0
    for _ in range(3000):
        bases = np.stack([random_unitary2(rng) for _ in range(3)])
        noise = rng.normal(size=bases.shape + (2,)) @ [1.0, 1j]
        bases = bases + 10.0 ** rng.uniform(-14.0, -11.5) * noise
        try:
            protocol = FeedForwardProtocol(bases[0], bases[1:], T_B_GUESS)
        except InvalidProtocolError:
            continue
        accepted += 1
        gram = np.abs(bases.conj() @ bases.transpose(0, 2, 1) - np.eye(2)).max()
        kets = _product_kets(protocol.alice_basis, protocol.bob_bases)
        worst_gram = max(worst_gram, gram)
        worst_sum = max(worst_sum, np.abs(kets.T @ kets.conj() - np.eye(4)).max())
    assert accepted >= 1000 and worst_gram > 0.9 * BASIS_ATOL
    assert worst_sum <= 1e-11


def test_sample_coincidences_is_a_draw_from_the_povm_probabilities():
    rng = np.random.default_rng(2403)
    for k in range(20):
        protocol = _random_t_b_protocol(rng) if k % 2 else canonical_protocol()
        rho = random_density(rng, 1 + k % 4)
        povm = protocol_to_povm(protocol)
        probs = [np.trace(rho.mat @ mat).real for _, mat in povm]
        n_total = int(rng.integers(1, 10**7))
        assert sample_coincidences(rho, povm, n_total, seed=k) == draw_coincidences(
            probs, n_total, seed=k
        )


def test_draw_coincidences_validates_before_any_draw(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("a generator was made before the input was checked")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    probs = [0.25, 0.25, 0.25, 0.25]
    for n_total in (0, 1.0, True, 2**62 + 1, None):
        with pytest.raises(ValueError, match="n_total"):
            draw_coincidences(probs, n_total, seed=1)
    # 2.7 and 2.2 used to draw the same stream as seed 2, and True as seed 1.
    for seed in (2.7, 2.2, np.float64(3.0), True, np.bool_(True), -1, np.int64(-3), "5", None):
        with pytest.raises(ValueError, match="seed"):
            draw_coincidences(probs, 10, seed)
        with pytest.raises(ValueError, match="seed"):
            sample_coincidences(MIXED, protocol_to_povm(canonical_protocol()), 10, seed)
    for bad in ([0.5, 0.5, 0.0], [np.nan, 0.5, 0.25, 0.25], [0.0, 0.0, 1e-16, -0.1]):
        with pytest.raises(ValueError, match="probabilit"):
            draw_coincidences(bad, 10, seed=1)


def test_draw_coincidences_refuses_negative_probabilities(monkeypatch):
    # Rounding noise down to -NEGATIVE_EIG_TOL draws as 0; [-5, 1, 0, 0] used
    # to draw as (0, 1000, 0, 0) too.
    assert draw_coincidences([-1e-10, 1.0, 0.0, 0.0], 1000, seed=1).as_tuple() == (0, 1000, 0, 0)
    # A POVM that sums to I with a negative element gives a negative probability.
    povm = protocol_to_povm(canonical_protocol())
    (label0, pi0), (label1, pi1) = povm[:2]
    negative = [(label0, pi0 - 0.1 * pi1), (label1, 1.1 * pi1)] + povm[2:]

    def no_draw(*args, **kwargs):
        raise AssertionError("a generator was made before the input was checked")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    for bad in ([-5.0, 1.0, 0.0, 0.0], [0.5, -1e-8, 0.25, 0.25]):
        with pytest.raises(ValueError, match="negative entry"):
            draw_coincidences(bad, 1000, seed=1)
    with pytest.raises(ValueError, match="negative entry"):
        sample_coincidences(DensityMatrix2Q(pi1), negative, 1000, seed=1)


def test_draw_coincidences_snaps_and_normalises_without_touching_its_input():
    probs = np.array([0.6, -1e-17, 0.2, 0.2 + 1e-12])
    counts = draw_coincidences(probs, 10**6, seed=3)
    assert counts.n_ta_rb == 0 and counts.total == 10**6
    assert probs[1] == -1e-17
    assert counts == draw_coincidences([0.6, 0.0, 0.2, 0.2 + 1e-12], 10**6, seed=3)


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
    # Infinity used to raise OverflowError from int(); scalars get ValueError.
    for bad in (float("inf"), float("-inf"), float("nan"), 1.5):
        with pytest.raises(ValueError):
            CoincidenceCounts(bad, 1, 0, 0)
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


def test_tomography_design_is_the_kron_oracle():
    assert TOMO_LABELS[0] == ("H", "H") and TOMO_LABELS[5] == ("H", "L")
    assert TOMO_LABELS[-1] == ("L", "L") and len(set(TOMO_LABELS)) == 36
    assert not TOMO_DESIGN.flags.writeable
    design = TOMO_DESIGN.view(complex).reshape(36, 4, 4)
    assert np.array_equal(design, TOMO_PROJECTORS)
    rho = random_density(np.random.default_rng(2406))
    want = [np.trace(mat @ rho.mat).real for mat in TOMO_PROJECTORS]
    assert np.abs(setting_probabilities(rho.mat) - want).max() <= 1e-15


def test_tomography_design_matrix_has_full_rank():
    assert np.linalg.matrix_rank(TOMO_DESIGN.view(complex)) == 16


def test_simulate_tomography_deterministic_and_mean_accurate():
    rho = werner_noise(phi0(30.0), 0.9)
    a = simulate_tomography(rho, 10_000, seed=4)
    b = simulate_tomography(rho, 10_000, seed=4)
    assert np.array_equal(a.counts, b.counts)
    means = np.array(
        [10_000 * np.trace(rho.mat @ mat).real for mat in TOMO_PROJECTORS]
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
    probs = np.array([np.trace(rho.mat @ mat).real for mat in TOMO_PROJECTORS])
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


def test_non_finite_tomography_inputs_raise_value_error():
    # NaN used to fail inside numpy's Poisson draw ("lam value too large"), and
    # infinite counts warned in the cast to int before the ValueError; the
    # warnings filter makes any such warning fail this test.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (float("nan"), float("inf"), -float("inf"), 0, -1.0, True, np.bool_(True)):
            with pytest.raises(ValueError, match="n_per_setting"):
                simulate_tomography(MIXED, bad, seed=1)
        for seed in (2.7, 2.2, True, -1, None):
            with pytest.raises(ValueError, match="seed"):
                simulate_tomography(MIXED, 10, seed)
        for value in (np.inf, -np.inf, np.nan, 1e300, 2.0**63, 2.5):
            counts = np.full(36, 10.0)
            counts[7] = value
            with pytest.raises(ValueError, match="counts"):
                TomographyRecord.from_counts(counts)
        with pytest.raises(ValueError, match="counts"):
            TomographyRecord.from_counts(np.full(36, np.inf))
        # Whole floats, booleans and the largest counts a record can hold still pass.
        assert TomographyRecord.from_counts(np.full(36, 3.0)).counts.tolist() == [3] * 36
        assert TomographyRecord.from_counts(np.ones(36, dtype=bool)).counts.tolist() == [1] * 36
        big = TomographyRecord.from_counts(np.full(36, 2**63 - 1))
        assert big.counts.tolist() == [2**63 - 1] * 36
