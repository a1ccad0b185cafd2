"""Acceptance suite: eight numbered end-to-end checks for the library.

Each test evaluates one criterion and emits a single ``criterion N: PASS``
or ``criterion N: FAIL`` line with the measured numbers (visible with
``pytest -s`` or in captured output).  Runtime budgets are part of the
criteria and are asserted alongside the numerical tolerances.
"""

import time

import numpy as np

from qdiscrim import (
    EQUAL_PRIORS,
    MLEConfig,
    OptimizerConfig,
    advantage,
    estimate,
    ff_success_probability,
    fidelity_pure,
    helstrom_bound,
    hollow_vector,
    mle_reconstruct,
    optimize_local_projective,
    phi0,
    phi1,
    protocol_to_povm,
    psi_pair,
    sample_coincidences,
    simulate_tomography,
    trace_norm,
    walgate_decompose,
    werner_noise,
)

from conftest import noiseless_record, random_density, random_orthogonal_pair, random_pure

GRID_ANGLES = [float(a) for a in np.arange(0.0, 91.0, 15.0)]
NOISE_V = 0.956

# measurement-search settings for the 49-cell scan; coarse but verified to
# still land every product cell on the exact optimum
SCAN_OPT = OptimizerConfig(
    polar_points=12, azimuth_points=8, refine_starts=3, max_refine_iterations=300
)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_orthogonal_pairs_discriminate_perfectly():
    start = time.perf_counter()
    worst = 1.0
    for a in GRID_ANGLES:
        for b in GRID_ANGLES:
            s0, s1 = phi0(a), phi1(b)
            protocol = walgate_decompose(s0, s1)
            p = ff_success_probability(protocol, s0.density(), s1.density(), EQUAL_PRIORS)
            worst = min(worst, p)
    elapsed = time.perf_counter() - start
    ok = worst >= 1.0 - 1e-9 and elapsed < 1.0
    _report(1, ok, f"min success {worst:.12f} over 49 pairs, {elapsed:.2f}s")


def test_criterion_2_best_fixed_measurement_value():
    start = time.perf_counter()
    _, value = optimize_local_projective(
        phi0(30.0).density(), phi1(60.0).density(), EQUAL_PRIORS
    )
    elapsed = time.perf_counter() - start
    ok = abs(value - 0.933) <= 1e-3 and elapsed < 5.0
    _report(2, ok, f"value {value:.10f}, {elapsed:.2f}s")


def test_criterion_3_minimum_error_bound_curve():
    start = time.perf_counter()
    worst = 0.0
    for eta in np.arange(0.0, 46.0, 5.0):
        s0, s1 = psi_pair(float(eta))
        got = helstrom_bound(s0.density(), s1.density(), EQUAL_PRIORS)
        want = 0.5 * (1.0 + np.sin(np.radians(2.0 * eta)))
        worst = max(worst, abs(got - want))
    s0, s1 = psi_pair(0.0)
    low = helstrom_bound(s0.density(), s1.density(), EQUAL_PRIORS)
    s0, s1 = psi_pair(45.0)
    high = helstrom_bound(s0.density(), s1.density(), EQUAL_PRIORS)
    elapsed = time.perf_counter() - start
    ok = (
        worst < 1e-9
        and abs(low - 0.5) < 1e-9
        and abs(high - 1.0) < 1e-9
        and elapsed < 1.0
    )
    _report(3, ok, f"max curve deviation {worst:.2e}, endpoints {low:.6f}/{high:.6f}, {elapsed:.2f}s")


def test_criterion_4_noisy_success_rate_and_sampling():
    start = time.perf_counter()
    ideal0, ideal1 = phi0(30.0), phi1(60.0)
    rho0 = werner_noise(ideal0, NOISE_V)
    rho1 = werner_noise(ideal1, NOISE_V)
    protocol = walgate_decompose(ideal0, ideal1)
    povm = protocol_to_povm(protocol)
    exact = ff_success_probability(protocol, rho0, rho1, EQUAL_PRIORS)
    hits = 0
    for k in range(100):
        counts0 = sample_coincidences(rho0, povm, 10**6, seed=2 * k)
        counts1 = sample_coincidences(rho1, povm, 10**6, seed=2 * k + 1)
        est = estimate(counts0, counts1)
        hits += abs(est.p_avg - exact) <= 3.0 * est.sigma_avg
    elapsed = time.perf_counter() - start
    ok = abs(exact - 0.978) <= 1e-3 and hits >= 95 and elapsed < 30.0
    _report(4, ok, f"exact {exact:.6f}, {hits}/100 seeds within 3 sigma, {elapsed:.1f}s")


def test_criterion_5_noisy_grid_band():
    sampled = []
    worst_exact = 0.0
    target = NOISE_V + (1.0 - NOISE_V) / 2.0
    cell = 0
    for a in GRID_ANGLES:
        for b in GRID_ANGLES:
            ideal0, ideal1 = phi0(a), phi1(b)
            rho0 = werner_noise(ideal0, NOISE_V)
            rho1 = werner_noise(ideal1, NOISE_V)
            protocol = walgate_decompose(ideal0, ideal1)
            exact = ff_success_probability(protocol, rho0, rho1, EQUAL_PRIORS)
            worst_exact = max(worst_exact, abs(exact - target))
            povm = protocol_to_povm(protocol)
            counts0 = sample_coincidences(rho0, povm, 10**6, seed=5000 + 2 * cell)
            counts1 = sample_coincidences(rho1, povm, 10**6, seed=5000 + 2 * cell + 1)
            sampled.append(estimate(counts0, counts1).p_avg)
            cell += 1
    lo, hi = min(sampled), max(sampled)
    ok = worst_exact < 1e-12 and 0.965 <= lo and hi <= 0.985
    _report(5, ok, f"sampled band [{lo:.6f}, {hi:.6f}], worst exact dev {worst_exact:.2e}")


def test_criterion_6_feed_forward_advantage():
    rho0, rho1 = phi0(30.0).density(), phi1(60.0).density()
    headline = advantage(rho0, rho1, walgate_decompose(phi0(30.0), phi1(60.0)))
    min_adv = np.inf
    worst_flat = 0.0
    for a in GRID_ANGLES:
        for b in GRID_ANGLES:
            s0, s1 = phi0(a), phi1(b)
            adv = advantage(
                s0.density(), s1.density(), walgate_decompose(s0, s1), config=SCAN_OPT
            )
            min_adv = min(min_adv, adv)
            if a in (0.0, 90.0) or b in (0.0, 90.0):
                # one state is a product state: a fixed local measurement
                # already discriminates perfectly, so no advantage remains
                worst_flat = max(worst_flat, abs(adv))
    ok = abs(headline - 0.067) <= 1e-3 and min_adv >= -1e-9 and worst_flat <= 1e-3
    _report(
        6,
        ok,
        f"headline {headline:.6f}, grid min {min_adv:.2e}, product-cell max |adv| {worst_flat:.2e}",
    )


def test_criterion_7_tomography_loop_closure():
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    states = [random_pure(rng) for _ in range(20)]
    hits = 0
    for k, state in enumerate(states):
        record = simulate_tomography(state.density(), 10**4, seed=1000 + k)
        result = mle_reconstruct(record)
        hits += fidelity_pure(result.rho, state) >= 0.99
    worst_dist = 0.0
    for state in states:
        result = mle_reconstruct(noiseless_record(state.density(), 10**6))
        dist = trace_norm(result.rho.mat - state.density().mat) / 2.0
        worst_dist = max(worst_dist, dist)
    elapsed = time.perf_counter() - start
    ok = hits >= 18 and worst_dist < 1e-3 and elapsed < 60.0
    _report(7, ok, f"{hits}/20 above fidelity 0.99, worst trace distance {worst_dist:.2e}, {elapsed:.1f}s")


def test_criterion_8_invariant_suites():
    start = time.perf_counter()
    rng = np.random.default_rng(8675309)

    povm_ok = True
    for _ in range(50):
        pair = random_orthogonal_pair(rng)
        povm = protocol_to_povm(walgate_decompose(*pair))
        total = np.sum([mat for _, mat in povm], axis=0)
        povm_ok = povm_ok and np.abs(total - np.eye(4)).max() < 1e-9

    density_ok = True
    for _ in range(200):
        rho = random_density(rng)
        density_ok = density_ok and abs(np.trace(rho.mat).real - 1.0) < 1e-12
        density_ok = density_ok and np.linalg.eigvalsh(rho.mat).min() > -1e-9
        density_ok = density_ok and np.abs(rho.mat - rho.mat.conj().T).max() < 1e-12

    # every MLE iterate is a density matrix, and the end point is certified
    iterates = []
    record = simulate_tomography(werner_noise(phi0(25.0), 0.92), 10**4, seed=88)
    result = mle_reconstruct(record, callback=lambda i, r, ll: iterates.append(r))
    mle_ok = (
        len(iterates) == result.iterations > 0
        and all(
            abs(np.trace(r).real - 1.0) < 1e-10
            and np.abs(r - r.conj().T).max() < 1e-10
            and np.linalg.eigvalsh(r).min() > 0.0
            for r in iterates
        )
        and result.converged
        and result.gap <= MLEConfig().gap_tolerance
    )

    worst_residual = 0.0
    for _ in range(1000):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m -= (np.trace(m) / 2.0) * np.eye(2)
        w = hollow_vector(m)
        worst_residual = max(worst_residual, abs(w.conj() @ m @ w))

    worst_success = 1.0
    for _ in range(1000):
        s0, s1 = random_orthogonal_pair(rng)
        protocol = walgate_decompose(s0, s1)
        p = ff_success_probability(protocol, s0.density(), s1.density(), EQUAL_PRIORS)
        worst_success = min(worst_success, p)

    elapsed = time.perf_counter() - start
    ok = (
        povm_ok
        and density_ok
        and mle_ok
        and worst_residual < 1e-11
        and worst_success >= 1.0 - 1e-9
        and elapsed < 120.0
    )
    _report(
        8,
        ok,
        f"MLE gap {result.gap:.2e} after {result.iterations} iterations, "
        f"hollow residual max {worst_residual:.2e}, "
        f"walgate min success {worst_success:.12f}, {elapsed:.1f}s",
    )
