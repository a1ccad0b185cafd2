"""Independent oracles for the benchmark's output checks.

Everything here is written against plain numpy from the physics, not from
qdiscrim: state vectors come from the formulas in the paper's set-up, the
no-feed-forward optimum is bounded by a search of its own, and the
tomography likelihood accounts for exposures.  The checks run outside the
timed spans.
"""

from __future__ import annotations

import numpy as np

_SQRT3_2 = np.sqrt(3.0) / 2.0
KET_U = np.array([_SQRT3_2, 0.5], dtype=complex)
KET_U_PERP = np.array([0.5, -_SQRT3_2], dtype=complex)
_ZU = np.array([_SQRT3_2, -0.5], dtype=complex)
_ZU_PERP = np.array([0.5, _SQRT3_2], dtype=complex)

# Pauli basis sigma_0 = I, sigma_x, sigma_y, sigma_z.
PAULIS = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

# Tolerances of the closed-form checks.
EXACT_ATOL = 1e-11
NO_FF_SLACK = 1e-9
HOLLOW_ATOL = 1e-11
POVM_ATOL = 1e-9
# ln(1 / P(|z| > 6)) for a standard normal z.  A protocols run makes about
# 12,000 sampling checks, so 5-sigma odds would raise a false alarm in a few
# percent of ten-run sets.
SAMPLING_LOG_ODDS = -np.log(1.973e-9)
NOISELESS_TRACE_DISTANCE = 1e-3


# --- states -----------------------------------------------------------------


def phi0_vec(theta_deg: float) -> np.ndarray:
    t = np.deg2rad(theta_deg)
    return np.concatenate([np.cos(t) * _ZU, np.sin(t) * KET_U])


def phi1_vec(theta_deg: float) -> np.ndarray:
    t = np.deg2rad(theta_deg)
    return np.concatenate([np.cos(t) * _ZU_PERP, -np.sin(t) * KET_U_PERP])


def psi_vecs(eta_deg: float) -> tuple[np.ndarray, np.ndarray]:
    half = np.deg2rad(45.0 - eta_deg)
    a, b = phi0_vec(60.0), phi1_vec(30.0)
    return np.cos(half) * a + np.sin(half) * b, np.sin(half) * a + np.cos(half) * b


def werner(vec: np.ndarray, v: float) -> np.ndarray:
    return v * np.outer(vec, vec.conj()) + (1.0 - v) * np.eye(4) / 4.0


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a - b)).sum())


# --- closed forms -------------------------------------------------------------


def orthogonal_pair_success(v: float) -> float:
    """Helstrom bound and feed-forward success of Werner-noised orthogonal pure states."""
    return 0.5 * (1.0 + v)


def psi_pair_success(eta_deg: float, v: float) -> float:
    """Helstrom bound of the Werner-noised psi pair: (1 + v sin 2 eta) / 2."""
    return 0.5 * (1.0 + v * np.sin(2.0 * np.deg2rad(eta_deg)))


def sampling_allowance(p_exact: float, n_events: int) -> float:
    """Largest |p_avg - p_exact| a correct sampler reaches except with tiny odds.

    Over the two runs of n_events each, the wrong guesses K are a sum of
    2n independent Bernoulli trials with mean 2n(1 - p_exact); their
    variance is at most V = 2n p_exact (1 - p_exact), whatever the split
    between the two states.  Bernstein's inequality bounds P(|K - E K| >= t)
    by the two-sided 6-sigma normal tail when t = L/3 + sqrt(L^2/9 + 2 L V),
    L = ln(1/tail).  For large V this is about 6.3 sigma; unlike a normal
    approximation it stays valid when fewer than one wrong guess is expected.
    """
    var = 2.0 * n_events * p_exact * (1.0 - p_exact)
    log_odds = SAMPLING_LOG_ODDS
    t = log_odds / 3.0 + np.sqrt(log_odds**2 / 9.0 + 2.0 * log_odds * var)
    return float(t / (2.0 * n_events))


def sampled_within(p_avg: float, p_exact: float, n_events: int) -> bool:
    return abs(p_avg - p_exact) <= sampling_allowance(p_exact, n_events) + 1e-12


def hollow_residual(vec0: np.ndarray, vec1: np.ndarray, w: np.ndarray) -> float:
    """|<w|m|w>| for m the traceless part of F G^dagger of two pure states."""
    f, g = vec0.reshape(2, 2), vec1.reshape(2, 2)
    m = f @ g.conj().T
    m = m - np.trace(m) / 2.0 * np.eye(2)
    return float(abs(np.vdot(w, m @ w)))


def povm_deviation(elements) -> float:
    return float(np.abs(np.sum(elements, axis=0) - np.eye(4)).max())


# --- best measurement without feed-forward -----------------------------------


def _pauli_table(delta: np.ndarray) -> np.ndarray:
    """T[mu, nu] = Tr[(sigma_mu (x) sigma_nu) delta], real for Hermitian delta."""
    ops = np.einsum("aij,bkl->abikjl", PAULIS, PAULIS).reshape(4, 4, 4, 4)
    return np.einsum("abij,ji->ab", ops, delta).real


def _bob_best(table: np.ndarray, alice_dirs: np.ndarray) -> np.ndarray:
    """Success for each Alice Bloch direction with Bob's direction optimised.

    Alice outcome +/- leaves Bob the operator c I + r.sigma with
    c = (T00 +/- a.T[1:,0]) / 4 and r = (T0k +/- a.T[1:,k]) / 4; a fixed Bob
    direction n then scores 1/2 + sum_i max(|c_i|, |r_i.n|), which is
    maximal at n along r+, r-, r+ + r- or r+ - r-.
    """
    u = alice_dirs @ table[1:, :]
    best = np.full(alice_dirs.shape[0], -np.inf)
    sides = [(table[0] + sign * u) / 4.0 for sign in (1.0, -1.0)]
    c = [s[:, 0] for s in sides]
    r = [s[:, 1:] for s in sides]
    for n in (r[0], r[1], r[0] + r[1], r[0] - r[1]):
        # A zero candidate scores sum_i |c_i|, which every direction reaches.
        norm = np.linalg.norm(n, axis=1, keepdims=True)
        n = n / np.where(norm > 0.0, norm, 1.0)
        score = sum(np.maximum(abs(c[i]), abs((r[i] * n).sum(axis=1))) for i in range(2))
        best = np.maximum(best, 0.5 + score)
    return best


def _sphere(n: int) -> np.ndarray:
    """n nearly uniform points on the unit sphere (Fibonacci lattice)."""
    k = np.arange(n) + 0.5
    z = 1.0 - 2.0 * k / n
    phi = np.pi * (1.0 + np.sqrt(5.0)) * k
    rad = np.sqrt(1.0 - z * z)
    return np.stack([rad * np.cos(phi), rad * np.sin(phi), z], axis=1)


def no_ff_lower_bound(rho0: np.ndarray, rho1: np.ndarray) -> float:
    """Success of the best fixed product projective measurement found by search.

    Bob's side is maximised in closed form; Alice's direction is searched
    on a sphere lattice and then zoomed around the best few points.  Every
    value is that of a real measurement, so the result is a lower bound on
    the optimum with equal priors.
    """
    table = _pauli_table(0.5 * (rho0 - rho1))
    dirs = _sphere(4000)
    vals = _bob_best(table, dirs)
    seeds = dirs[np.argsort(-vals)[:4]]
    best = float(vals.max())
    offsets = _sphere(64)
    for start in seeds:
        centre, step = start, 0.1
        for _ in range(30):
            cand = centre + step * offsets
            cand = np.vstack([centre, cand / np.linalg.norm(cand, axis=1, keepdims=True)])
            cand_vals = _bob_best(table, cand)
            k = int(np.argmax(cand_vals))
            best = max(best, float(cand_vals[k]))
            if k == 0:
                step /= 2.0
            centre = cand[k]
    return best


def product_success(alice: np.ndarray, bob: np.ndarray, assignment, rho0, rho1) -> float:
    """Equal-prior success of the product measurement with the given bases."""
    total = 0.0
    for a in range(2):
        for b in range(2):
            vec = np.kron(alice[a], bob[b])
            rho = rho0 if assignment[a][b] == 0 else rho1
            total += 0.5 * float(np.vdot(vec, rho @ vec).real)
    return total


# --- tomography ---------------------------------------------------------------


def tomography_projectors() -> np.ndarray:
    """The 36 product projectors, (H, V, D, A, R, L) per side, Alice major."""
    s = 1.0 / np.sqrt(2.0)
    kets = [
        np.array(k, dtype=complex)
        for k in ([1, 0], [0, 1], [s, s], [s, -s], [s, 1j * s], [s, -1j * s])
    ]
    single = [np.outer(k, k.conj()) for k in kets]
    return np.array([np.kron(a, b) for a in single for b in single])


def profile_log_likelihood(rho: np.ndarray, counts, exposure) -> float:
    """Poisson log-likelihood with the source intensity profiled out.

    Counts n_s have mean I e_s p_s; maximising over I leaves
    sum_s n_s ln p_s - N ln(sum_s e_s p_s) up to a rho-independent constant.
    """
    counts = np.asarray(counts, dtype=float)
    probs = np.einsum("sij,ji->s", tomography_projectors(), rho).real
    seen = counts > 0
    if (probs[seen] <= 0.0).any():
        return -np.inf
    return float(
        (counts[seen] * np.log(probs[seen])).sum()
        - counts.sum() * np.log((np.asarray(exposure) * probs).sum())
    )
