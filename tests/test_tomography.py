import numpy as np
import pytest

from qdiscrim import (
    DensityMatrix2Q,
    MLEConfig,
    MLEResult,
    PureState2Q,
    fidelity_pure,
    fidelity_report,
    log_likelihood,
    mle_reconstruct,
    phi0,
    simulate_tomography,
    tangle,
    trace_norm,
    werner_noise,
)
from qdiscrim.measurement import TomographyRecord, tomography_settings

from conftest import noiseless_record, random_density

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


def test_log_likelihood_invariant_under_exposure_rescaling():
    truth = werner_noise(phi0(35.0), 0.8)
    record = simulate_tomography(truth, 5000, seed=12)
    doubled = TomographyRecord(
        labels=record.labels, counts=record.counts, exposure=record.exposure * 2.0
    )
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


def test_mle_zero_count_record_returns_mixed():
    record = TomographyRecord.from_counts(np.zeros(36, dtype=int))
    result = mle_reconstruct(record)
    assert result.converged
    assert np.abs(result.rho.mat - MIXED.mat).max() < 1e-12


def test_mle_seeded_regression():
    truth = werner_noise(phi0(30.0), 0.956)
    record = simulate_tomography(truth, 10**4, seed=42)
    result = mle_reconstruct(record)
    assert result.converged
    fid = fidelity_pure(result.rho, phi0(30.0))
    assert fid == pytest.approx(0.9627809040570764, abs=1e-9)
    assert result.log_likelihood == pytest.approx(-192975.03319404228, rel=1e-12)


def test_mle_monotone_and_physical_at_every_iteration():
    truth = werner_noise(phi0(30.0), 0.9)
    record = simulate_tomography(truth, 10**4, seed=21)
    lls = []

    def watch(iteration, rho, ll):
        lls.append(ll)
        assert abs(np.trace(rho).real - 1.0) < 1e-10
        assert np.abs(rho - rho.conj().T).max() < 1e-10
        assert np.linalg.eigvalsh(rho).min() > -1e-10

    result = mle_reconstruct(record, callback=watch)
    assert result.converged
    assert len(lls) == result.iterations
    assert all(b >= a for a, b in zip(lls, lls[1:]))


def test_mle_deterministic():
    record = simulate_tomography(werner_noise(BELL, 0.98), 10**4, seed=3)
    a = mle_reconstruct(record)
    b = mle_reconstruct(record)
    assert np.array_equal(a.rho.mat, b.rho.mat)
    assert a.log_likelihood == b.log_likelihood
    assert a.iterations == b.iterations


def test_mle_near_bell_tangle_matches_closed_form():
    record = simulate_tomography(werner_noise(BELL, 0.98), 10**4, seed=3)
    result = mle_reconstruct(record)
    closed = ((3 * 0.98 - 1) / 2) ** 2
    got = tangle(result.rho)
    assert abs(got - closed) < 0.02
    assert got == pytest.approx(0.9399151991405451, abs=1e-9)


def test_mle_iteration_budget_reported_when_exhausted():
    truth = werner_noise(phi0(30.0), 0.956)
    record = simulate_tomography(truth, 10**4, seed=42)
    result = mle_reconstruct(record, MLEConfig(max_iterations=5, ll_tolerance=1e-14))
    assert not result.converged
    assert result.iterations == 5


def test_mle_config_validation_and_roundtrip():
    cfg = MLEConfig(max_iterations=100, ll_tolerance=1e-8, dilution=1.0)
    assert MLEConfig.from_json(cfg.to_json()) == cfg
    with pytest.raises(ValueError):
        MLEConfig(dilution=0.0)
    with pytest.raises(ValueError):
        MLEConfig.from_json({"max_iterations": 10, "nope": 3})


def test_fidelity_report_and_result_serialisation():
    record = noiseless_record(HH.density(), 10**5)
    result = mle_reconstruct(record)
    assert fidelity_report(result, HH) >= 1.0 - 1e-4
    data = result.to_json()
    assert set(data) == {"rho", "log_likelihood", "iterations", "converged"}
    back = DensityMatrix2Q.from_json(data["rho"])
    assert np.abs(back.mat - result.rho.mat).max() < 1e-9
    csv_text = result.to_csv()
    assert "# real part" in csv_text and "# imaginary part" in csv_text
    real_block = csv_text.split("# real part\n")[1].split("# imaginary part")[0]
    first_row = [float(x) for x in real_block.strip().splitlines()[0].split(",")]
    assert first_row == pytest.approx(list(result.rho.mat[0].real))


# ---------------------------------------------------------------- design-matrix rewrite


def _reference_simulate(rho, n_per_setting, seed):
    """Per-setting scalar Poisson draws, the loop the array draw replaced."""
    rng = np.random.default_rng(seed)
    counts = []
    for _, mat in tomography_settings():
        p = max(float(np.trace(rho.mat @ mat).real), 0.0)
        counts.append(int(rng.poisson(n_per_setting * p)))
    return np.array(counts)


def _reference_mle(record, cfg=MLEConfig()):
    """The diluted R rho R loop on matrices, with einsum over the projector stack."""
    by_label = dict(tomography_settings())
    projs = np.stack([by_label[label] for label in record.labels])
    counts = record.counts.astype(float)
    total = counts.sum()
    fluxes = record.exposure * 4.0 * total / record.exposure.sum()

    def ll_of(mat):
        probs = np.einsum("sij,ji->s", projs, mat).real
        return float((counts * np.log(np.clip(probs, 1e-15, None)) - fluxes * probs).sum())

    rho = np.eye(4, dtype=complex) / 4.0
    ll = ll_of(rho)
    dilution, streak, iterations = cfg.dilution, 0, 0
    for iterations in range(1, cfg.max_iterations + 1):
        probs = np.einsum("sij,ji->s", projs, rho).real
        r = np.einsum("s,sij->ij", counts / np.clip(probs, 1e-15, None) / total, projs)
        pushed = r @ rho @ r
        pushed = pushed / pushed.trace().real
        accepted = False
        while dilution >= 1e-12:
            candidate = (1.0 - dilution) * rho + dilution * pushed
            candidate = (candidate + candidate.conj().T) / 2.0
            candidate = candidate / candidate.trace().real
            ll_new = ll_of(candidate)
            if ll_new >= ll:
                accepted = True
                break
            dilution /= 2.0
            streak = 0
        if not accepted:
            iterations -= 1
            break
        change = ll_new - ll
        rho, ll = candidate, ll_new
        streak += 1
        if streak >= 10 and dilution != cfg.dilution:
            dilution, streak = cfg.dilution, 0
        if change <= cfg.ll_tolerance * max(1.0, abs(ll)):
            break
    return rho, ll, iterations


def _equivalence_records():
    """Seeded simulated records of rank 1, 2 and 4 at 1e3 to 1e5 counts per
    setting, one noiseless uniform record and one with non-uniform exposures."""
    records = []
    for k, (rank, n_per_setting) in enumerate(
        (rank, n) for rank in (1, 2, 4) for n in (10**3, 10**4, 10**5)
    ):
        rho = random_density(np.random.default_rng(100 + k), rank=rank)
        records.append(("simulated", rho, n_per_setting, 500 + k))
    for k, state in enumerate((werner_noise(phi0(30.0), 0.956), werner_noise(BELL, 0.98),
                               HH.density())):
        records.append(("simulated", state, 10**4, 600 + k))
    truth = random_density(np.random.default_rng(7), rank=4)
    records.append(("noiseless", noiseless_record(truth, 10**5), None, None))
    probs = np.array([np.trace(truth.mat @ mat).real for _, mat in tomography_settings()])
    exposure = np.random.default_rng(8).uniform(0.5, 2.0, size=36)
    counts = np.rint(10**5 * exposure * probs).astype(int)
    records.append(("exposure", TomographyRecord.from_counts(counts, exposure), None, None))
    return records


@pytest.mark.parametrize("case", range(14))
def test_design_matrix_mle_matches_matrix_reference(case):
    kind, item, n_per_setting, seed = _equivalence_records()[case]
    if kind == "simulated":
        record = simulate_tomography(item, n_per_setting, seed)
        assert np.array_equal(record.counts, _reference_simulate(item, n_per_setting, seed))
    else:
        record = item
    rho, ll, iterations = _reference_mle(record)
    result = mle_reconstruct(record)
    assert abs(result.iterations - iterations) <= 1
    assert np.abs(result.rho.mat - rho).max() < 1e-12
    assert result.log_likelihood == pytest.approx(ll, rel=1e-12)
    assert log_likelihood(result.rho, record) == pytest.approx(ll, rel=1e-12)


def test_tomography_settings_returns_copies():
    record = simulate_tomography(werner_noise(BELL, 0.98), 10**4, seed=3)
    before = mle_reconstruct(record)
    expected = [(label, mat.copy()) for label, mat in tomography_settings()]
    for _, mat in tomography_settings():
        mat[:] = 0.0
    again = tomography_settings()
    assert [label for label, _ in again] == [label for label, _ in expected]
    assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(again, expected))
    after = mle_reconstruct(record)
    assert np.array_equal(after.rho.mat, before.rho.mat)
    assert after.log_likelihood == before.log_likelihood
