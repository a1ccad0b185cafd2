import numpy as np
import pytest

from qdiscrim import (
    DensityMatrix2Q,
    MLEConfig,
    MLEResult,
    PureState2Q,
    fidelity_pure,
    log_likelihood,
    mle_reconstruct,
    phi0,
    phi1,
    psi_pair,
    simulate_tomography,
    tangle,
    trace_norm,
    werner_noise,
)
from qdiscrim import tomography
from qdiscrim.measurement import TomographyRecord

from conftest import TOMO_PROJECTORS, noiseless_record, random_density

MIXED = DensityMatrix2Q(np.eye(4, dtype=complex) / 4)
HH = PureState2Q(np.array([1, 0, 0, 0], dtype=complex))
BELL = PureState2Q(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))


# ---------------------------------------------------------------- likelihood


def test_log_likelihood_finite_for_boundary_states():
    # the record has counts at settings where |HH><HH| predicts p = 0;
    # the 1e-15 probability floor keeps the value finite
    record = noiseless_record(MIXED, 1000)
    ll = log_likelihood(HH.density(), record)
    assert np.isfinite(ll)


def test_log_likelihood_zero_count_record_is_flat():
    record = TomographyRecord.from_counts(np.zeros(36, dtype=int))
    values = {log_likelihood(random_density(np.random.default_rng(k)), record) for k in range(5)}
    assert values == {0.0}


def test_log_likelihood_maximal_at_generating_state(rng):
    truth = werner_noise(phi0(20.0), 0.9)
    record = noiseless_record(truth, 10**6)
    base = log_likelihood(truth, record)
    for _ in range(100):
        eps = rng.uniform(1e-3, 1e-2)
        other = DensityMatrix2Q((1 - eps) * truth.mat + eps * random_density(rng).mat)
        assert log_likelihood(other, record) <= base


def test_log_likelihood_uniform_exposures_is_sum_n_ln_p_minus_n(rng):
    # the 36 projectors sum to 9 I, so for uniform exposures the intensity
    # term is N ln(4 * 9 / 36) = 0 and the profile is sum_s n_s ln p_s - N
    truth = werner_noise(phi0(35.0), 0.8)
    record = simulate_tomography(truth, 5000, seed=12)
    for rho in (truth, random_density(rng)):
        probs = np.array([np.trace(rho.mat @ mat).real for mat in TOMO_PROJECTORS])
        expected = record.counts @ np.log(probs) - record.counts.sum()
        assert log_likelihood(rho, record) == pytest.approx(expected, rel=1e-12)


def test_log_likelihood_weights_exposures(rng):
    # the profile over the intensity I of sum_s [n_s ln(I e_s p_s) - I e_s p_s],
    # minus its rho-independent part, is what log_likelihood returns
    truth = random_density(rng, rank=2)
    exposure = rng.uniform(0.5, 2.0, size=36)
    record = simulate_tomography(truth, 10**4, seed=5, exposure=exposure)
    counts = record.counts
    total = counts.sum()
    const = counts @ np.log(exposure) + total * np.log(4.0 * total / exposure.sum())
    for rho in (truth, random_density(rng), MIXED):
        probs = np.array([np.trace(rho.mat @ mat).real for mat in TOMO_PROJECTORS])
        intensity = total / (exposure @ probs)
        means = intensity * exposure * probs
        profile = counts @ np.log(means) - means.sum()
        assert log_likelihood(rho, record) == pytest.approx(profile - const, rel=1e-12)
    # a noiseless record with exposures peaks at its generating state
    record = noiseless_record(truth, 10**6, exposure)
    base = log_likelihood(truth, record)
    for _ in range(50):
        eps = rng.uniform(1e-3, 1e-2)
        other = DensityMatrix2Q((1 - eps) * truth.mat + eps * random_density(rng).mat)
        assert log_likelihood(other, record) <= base


def test_log_likelihood_invariant_under_exposure_rescaling():
    truth = werner_noise(phi0(35.0), 0.8)
    record = simulate_tomography(truth, 5000, seed=12)
    doubled = TomographyRecord(counts=record.counts, exposure=record.exposure * 2.0)
    a = log_likelihood(truth, record)
    b = log_likelihood(truth, doubled)
    assert a == pytest.approx(b, rel=1e-12)


# ---------------------------------------------------------------- reconstruction


def test_mle_noiseless_pure_target():
    record = noiseless_record(HH.density(), 10**6)
    result = mle_reconstruct(record)
    assert result.converged
    assert fidelity_pure(result.rho, HH) >= 1.0 - 1e-4


def test_mle_noiseless_maximally_mixed():
    record = noiseless_record(MIXED, 10**6)
    result = mle_reconstruct(record)
    assert result.converged
    assert trace_norm(result.rho.mat - MIXED.mat) / 2 < 1e-3
    assert result.iterations <= 2
    assert result.gap <= MLEConfig().gap_tolerance


def test_mle_noiseless_bell_at_huge_counts():
    # Whitened probabilities of the zero-count settings round to zero here;
    # they must not reach the Newton system as 0 / 0 (warnings are errors).
    record = noiseless_record(BELL.density(), 10**18)
    assert (record.counts == 0).sum() == 6
    result = mle_reconstruct(record)
    assert result.converged
    assert fidelity_pure(result.rho, BELL) >= 1.0 - 1e-6


def test_mle_zero_count_record_returns_mixed():
    record = TomographyRecord.from_counts(np.zeros(36, dtype=int))
    result = mle_reconstruct(record)
    assert result.converged
    assert result.gap == 0.0
    assert np.abs(result.rho.mat - MIXED.mat).max() < 1e-12


def test_mle_seeded_regression():
    truth = werner_noise(phi0(30.0), 0.956)
    record = simulate_tomography(truth, 10**4, seed=42)
    result = mle_reconstruct(record)
    assert result.converged
    assert result.gap <= MLEConfig().gap_tolerance
    fid = fidelity_pure(result.rho, phi0(30.0))
    assert fid == pytest.approx(0.9628158972460173, abs=1e-9)
    assert result.log_likelihood == pytest.approx(-192975.03044591314, rel=1e-12)
    # no lower than the fixed-schedule barrier solver's pin, less this run's gap
    assert result.log_likelihood >= -192975.03044723917 - result.gap
    # the pin of the diluted R rho R solver that one replaced
    assert result.log_likelihood >= -192975.03319404228


def test_mle_physical_at_every_iteration_and_certified():
    # The log-likelihood need not rise at every step of a barrier path; the
    # end point is certified instead, and lies no lower than the R rho R optimum.
    truth = werner_noise(phi0(30.0), 0.9)
    record = simulate_tomography(truth, 10**4, seed=21)
    lls = []

    def watch(iteration, rho, ll):
        lls.append(ll)
        assert abs(np.trace(rho).real - 1.0) < 1e-10
        assert np.abs(rho - rho.conj().T).max() < 1e-10
        assert np.linalg.eigvalsh(rho).min() > 0.0

    result = mle_reconstruct(record, callback=watch)
    assert result.converged
    assert len(lls) == result.iterations
    assert result.gap <= MLEConfig().gap_tolerance
    assert lls[-1] == pytest.approx(result.log_likelihood, rel=1e-12)
    assert result.log_likelihood >= _reference_mle(record)[1]


def test_mle_deterministic():
    record = simulate_tomography(werner_noise(BELL, 0.98), 10**4, seed=3)
    a = mle_reconstruct(record)
    b = mle_reconstruct(record)
    assert np.array_equal(a.rho.mat, b.rho.mat)
    assert a.log_likelihood == b.log_likelihood
    assert a.iterations == b.iterations
    assert a.gap == b.gap


def test_mle_near_bell_tangle_matches_closed_form():
    record = simulate_tomography(werner_noise(BELL, 0.98), 10**4, seed=3)
    result = mle_reconstruct(record)
    closed = ((3 * 0.98 - 1) / 2) ** 2
    got = tangle(result.rho)
    assert abs(got - closed) < 0.02
    assert got == pytest.approx(0.9399509233724471, abs=1e-9)
    # the fixed-schedule barrier solver ended at -195909.1797380001, within
    # this run's certified gap
    assert result.log_likelihood >= -195909.1797380001 - result.gap
    # the diluted R rho R solver before it ended at -195909.1969708073
    assert result.log_likelihood >= -195909.1969708073


def test_mle_iteration_budget_reported_when_exhausted():
    truth = werner_noise(phi0(30.0), 0.956)
    record = simulate_tomography(truth, 10**4, seed=42)
    result = mle_reconstruct(record, MLEConfig(max_iterations=5, gap_tolerance=1e-6))
    assert not result.converged
    assert result.iterations == 5
    assert 1e-6 < result.gap < np.inf


def test_mle_config_validation():
    # Unknown keys are the config loader's to reject (tests/test_cli.py).
    cfg = MLEConfig(max_iterations=100, gap_tolerance=1e-3)
    assert (cfg.max_iterations, cfg.gap_tolerance) == (100, 1e-3)
    assert MLEConfig(max_iterations=np.int64(7)).max_iterations == 7
    for bad in ({"gap_tolerance": 0.0}, {"gap_tolerance": np.inf}, {"max_iterations": 0}):
        with pytest.raises(ValueError):
            MLEConfig(**bad)
    # True used to pass as a tolerance of 1.0; a string, None or a list used to
    # raise TypeError from the comparison.
    for bad in (True, np.bool_(True), False, "5", None, [1]):
        with pytest.raises(ValueError, match="gap_tolerance"):
            MLEConfig(gap_tolerance=bad)
    # A float cap used to pass, and iterations == max_iterations never fired.
    for bad in (1.5, 2.5, 5.0, True, False, np.float64(5.0), "5", None):
        with pytest.raises(ValueError, match="max_iterations"):
            MLEConfig(max_iterations=bad)


def test_fidelity_and_result_serialisation():
    record = noiseless_record(HH.density(), 10**5)
    result = mle_reconstruct(record)
    assert fidelity_pure(result.rho, HH) >= 1.0 - 1e-4
    data = result.to_json()
    assert set(data) == {"rho", "log_likelihood", "iterations", "converged", "gap"}
    pairs = np.array(data["rho"])
    assert np.array_equal(pairs[..., 0] + 1j * pairs[..., 1], result.rho.mat)


# ---------------------------------------------------------------- references


def _reference_simulate(rho, n_per_setting, seed, exposure=None):
    """Per-setting scalar Poisson draws, the loop the array draw replaced."""
    exposure = np.ones(36) if exposure is None else exposure
    rng = np.random.default_rng(seed)
    counts = []
    for mat, e in zip(TOMO_PROJECTORS, exposure):
        p = max(float(np.trace(rho.mat @ mat).real), 0.0)
        counts.append(int(rng.poisson(n_per_setting * e * p)))
    return np.array(counts)


def _reference_mle(record, max_iterations=5000, ll_tolerance=1e-10, dilution=0.5):
    """The diluted R rho R loop that the barrier Newton solver replaced, on
    matrices, with einsum over the projector stack and its old defaults.  It
    ignores exposures and stops on a small likelihood change, not a gap."""
    projs = TOMO_PROJECTORS
    counts = record.counts.astype(float)
    total = counts.sum()
    fluxes = record.exposure * 4.0 * total / record.exposure.sum()

    def ll_of(mat):
        probs = np.einsum("sij,ji->s", projs, mat).real
        return float((counts * np.log(np.clip(probs, 1e-15, None)) - fluxes * probs).sum())

    rho = np.eye(4, dtype=complex) / 4.0
    ll = ll_of(rho)
    step, streak, iterations = dilution, 0, 0
    for iterations in range(1, max_iterations + 1):
        probs = np.einsum("sij,ji->s", projs, rho).real
        r = np.einsum("s,sij->ij", counts / np.clip(probs, 1e-15, None) / total, projs)
        pushed = r @ rho @ r
        pushed = pushed / pushed.trace().real
        accepted = False
        while step >= 1e-12:
            candidate = (1.0 - step) * rho + step * pushed
            candidate = (candidate + candidate.conj().T) / 2.0
            candidate = candidate / candidate.trace().real
            ll_new = ll_of(candidate)
            if ll_new >= ll:
                accepted = True
                break
            step /= 2.0
            streak = 0
        if not accepted:
            iterations -= 1
            break
        change = ll_new - ll
        rho, ll = candidate, ll_new
        streak += 1
        if streak >= 10 and step != dilution:
            step, streak = dilution, 0
        if change <= ll_tolerance * max(1.0, abs(ll)):
            break
    return rho, ll, iterations


def _equivalence_records():
    """Seeded simulated records of rank 1, 2 and 4 at 1e3 to 1e5 counts per
    setting, one noiseless uniform record and one with non-uniform exposures,
    each as (kind, truth, record)."""
    cases = []
    for k, (rank, n_per_setting) in enumerate(
        (rank, n) for rank in (1, 2, 4) for n in (10**3, 10**4, 10**5)
    ):
        rho = random_density(np.random.default_rng(100 + k), rank=rank)
        cases.append((rho, n_per_setting, 500 + k))
    for k, state in enumerate((werner_noise(phi0(30.0), 0.956), werner_noise(BELL, 0.98),
                               HH.density())):
        cases.append((state, 10**4, 600 + k))
    records = []
    for rho, n_per_setting, seed in cases:
        record = simulate_tomography(rho, n_per_setting, seed)
        assert np.array_equal(record.counts, _reference_simulate(rho, n_per_setting, seed))
        records.append(("simulated", rho, record))
    truth = random_density(np.random.default_rng(7), rank=4)
    records.append(("noiseless", truth, noiseless_record(truth, 10**5)))
    exposure = np.random.default_rng(8).uniform(0.5, 2.0, size=36)
    records.append(("exposure", truth, noiseless_record(truth, 10**5, exposure)))
    return records


@pytest.mark.parametrize("case", range(14))
def test_design_matrix_mle_matches_matrix_reference(case):
    kind, truth, record = _equivalence_records()[case]
    result = mle_reconstruct(record)
    assert result.converged
    assert result.gap <= MLEConfig().gap_tolerance
    assert log_likelihood(result.rho, record) == pytest.approx(result.log_likelihood, rel=1e-12)
    if kind == "exposure":
        # the reference ignores exposures; the truth is the yardstick here
        assert trace_norm(result.rho.mat - truth.mat) / 2 < 1e-4
    else:
        _, ll, _ = _reference_mle(record)
        assert result.log_likelihood >= ll - MLEConfig().gap_tolerance


# ---------------------------------------------------------------- certified solver


@pytest.mark.parametrize("exposed", [False, True])
def test_mle_certifies_noiseless_rank2_records(exposed):
    rng = np.random.default_rng(2012 + exposed)
    tolerance = MLEConfig().gap_tolerance
    for _ in range(10):
        truth = random_density(rng, rank=2)
        exposure = rng.uniform(0.5, 2.0, size=36) if exposed else None
        result = mle_reconstruct(noiseless_record(truth, 10**6, exposure))
        assert result.converged
        assert 0.0 <= result.gap <= tolerance
        assert trace_norm(result.rho.mat - truth.mat) / 2 < 1e-4


def test_mle_returns_the_best_certified_iterate():
    # Far below the rounding floor the gap stops falling (here the best comes
    # at step 49 and the stall rule ends the run 20 steps later); a longer
    # budget must not return a worse certificate.
    record = noiseless_record(random_density(np.random.default_rng(3), 2), 10**6)
    gaps = [
        mle_reconstruct(record, MLEConfig(max_iterations=k, gap_tolerance=1e-12)).gap
        for k in (40, 80, 120, 200)
    ]
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] <= 1.6e-6


def test_mle_gap_bounds_distance_to_a_tighter_solve():
    record = simulate_tomography(werner_noise(BELL, 0.9), 10**4, seed=77)
    loose = mle_reconstruct(record, MLEConfig(gap_tolerance=1.0))
    tight = mle_reconstruct(record, MLEConfig(gap_tolerance=1e-4))
    assert loose.converged and tight.converged
    assert loose.gap <= 1.0 and tight.gap <= 1e-4
    assert tight.log_likelihood >= loose.log_likelihood
    assert tight.log_likelihood - loose.log_likelihood <= loose.gap + 1e-6


def test_mle_loop_closure_with_exposures():
    rng = np.random.default_rng(404)
    for k in range(10):
        truth = random_density(rng, rank=1 + k % 4)
        exposure = rng.uniform(0.5, 2.0, size=36)
        record = simulate_tomography(truth, 10**4, seed=900 + k, exposure=exposure)
        assert np.array_equal(record.exposure, exposure)
        assert np.array_equal(record.counts, _reference_simulate(truth, 10**4, 900 + k, exposure))
        result = mle_reconstruct(record)
        assert result.converged
        assert result.gap <= MLEConfig().gap_tolerance
        # sampling noise puts the truth below the maximum, never above it
        assert result.log_likelihood >= log_likelihood(truth, record)
        assert trace_norm(result.rho.mat - truth.mat) / 2 < 0.03


def test_mle_singular_newton_system_ends_like_a_failed_line_search(monkeypatch):
    record = simulate_tomography(werner_noise(phi0(30.0), 0.956), 10**4, seed=42)
    config = MLEConfig(gap_tolerance=1e-12)
    expected = mle_reconstruct(record, MLEConfig(max_iterations=2, gap_tolerance=1e-12))
    solve = np.linalg.solve
    calls = []

    def failing_solve(*args):
        calls.append(1)
        if len(calls) == 3:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", failing_solve)
    result = mle_reconstruct(record, config)
    assert len(calls) == 3
    assert not result.converged
    assert result.iterations == 2
    assert result.gap == expected.gap
    assert np.array_equal(result.rho.mat, expected.rho.mat)


def test_mle_stops_when_the_gap_stalls(monkeypatch):
    # At 1e16 counts per setting the rounding floor is far above the default
    # tolerance: the best gap comes at step 23, and nothing after it is better.
    # That gap is within N eps of the record's N = 9e16 counts, so the run
    # counts as converged although it stopped short of the tolerance.
    record = simulate_tomography(werner_noise(phi0(30.0), 0.9), 10**16, seed=7)
    result = mle_reconstruct(record)
    floor = record.counts.sum() * np.finfo(float).eps
    assert MLEConfig().gap_tolerance < result.gap <= floor
    assert result.converged
    best_step = next(
        k for k in range(1, result.iterations + 1)
        if mle_reconstruct(record, MLEConfig(max_iterations=k)).gap == result.gap
    )
    assert result.iterations == best_step + tomography._STALL_STEPS
    monkeypatch.setattr(tomography, "_STALL_STEPS", MLEConfig().max_iterations + 1)
    unstopped = mle_reconstruct(record)
    assert unstopped.iterations == MLEConfig().max_iterations
    assert unstopped.gap == result.gap
    assert np.array_equal(unstopped.rho.mat, result.rho.mat)


def _bench_style_state(rng, family):
    if family in ("pure", "rank2", "rank4"):
        return random_density(rng, rank={"pure": 1, "rank2": 2, "rank4": 4}[family])
    if family == "werner_phi":
        state = (phi0 if rng.integers(2) else phi1)(rng.uniform(0.0, 90.0))
        return werner_noise(state, rng.uniform(0.7, 1.0))
    if family == "werner_psi":
        state = psi_pair(rng.uniform(1.0, 44.0))[int(rng.integers(2))]
        return werner_noise(state, rng.uniform(0.7, 1.0))
    vec = np.zeros(4, dtype=complex)
    vec[[0, 3] if rng.integers(2) else [1, 2]] = [1.0, rng.choice([1.0, -1.0])]
    return PureState2Q(vec / np.sqrt(2.0)).density()


def _schedule_corpus():
    """(noiseless, truth, record) triples: rounds of simulated and noiseless
    records built like the benchmark's tomo workload, then noiseless records
    of nearly pure Werner states (smallest eigenvalues 2.5e-4 to 2.5e-3)
    with and without exposures."""
    families = ("pure", "rank2", "rank4", "werner_phi", "werner_psi", "bell")
    rng = np.random.default_rng(1616)
    corpus = []
    for _ in range(3):
        for family in families:
            for n_per_setting in (10**3, 10**4, 10**5):
                truth = _bench_style_state(rng, family)
                seed = int(rng.integers(2**31 - 1))
                corpus.append((False, truth, simulate_tomography(truth, n_per_setting, seed)))
        for k in range(3):
            # the benchmark leaves rank-2 states out of noiseless uniform records
            pool = families[:1] + families[2:] if k == 0 else families
            truth = _bench_style_state(rng, pool[int(rng.integers(len(pool)))])
            exposure = None if k == 0 else rng.uniform(0.5, 2.0, size=36)
            corpus.append((True, truth, noiseless_record(truth, 10**6, exposure)))
    for k in range(16):
        state = (phi0, phi1)[k % 2](rng.uniform(0.0, 90.0))
        truth = werner_noise(state, rng.uniform(0.99, 0.999))
        exposure = rng.uniform(0.5, 2.0, size=36) if k >= 8 else None
        corpus.append((True, truth, noiseless_record(truth, 10**6, exposure)))
    return corpus


def test_mle_schedule_converges_on_a_benchmark_style_corpus():
    # The barrier weight follows the certified gap.  On these 79 records the
    # fixed schedule it replaced (mu from N/4, tenfold drops) took 2,060
    # steps at 1e-2 and 3,159 at 1e-4, and missed 1e-4 on three; this one
    # takes 959 and 1,282.
    steps = {1e-2: 0, 1e-4: 0}
    for noiseless, truth, record in _schedule_corpus():
        for tolerance in steps:
            result = mle_reconstruct(record, MLEConfig(gap_tolerance=tolerance))
            assert result.converged
            assert result.gap <= tolerance
            steps[tolerance] += result.iterations
            if noiseless:
                assert trace_norm(result.rho.mat - truth.mat) / 2 < 1e-3
    assert steps[1e-2] <= 1100
    assert steps[1e-4] <= 1500
