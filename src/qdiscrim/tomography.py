"""Maximum-likelihood state reconstruction from tomography records.

Counts n_s at setting s are Poisson with mean I e_s Tr(rho Pi_s), where e_s
is the setting's exposure and I the unknown source intensity.  Fitting I
with rho (Rehacek, Hradil, Jezek, PRA 63, 040303(R) (2001)) leaves the
profile log-likelihood

    L(rho) = sum_s n_s ln p_s - N ln(4 sum_s e_s p_s / sum_s e_s) - N,

p_s = Tr(rho Pi_s), N = sum_s n_s, which for uniform exposures is
sum_s n_s ln p_s - N because the 36 projectors sum to 9 I.

Exposures are weighted once per record.  With G = sum_s e_s Pi_s (positive
definite) the whitened projectors Pi~_s = e_s G^-1/2 Pi_s G^-1/2 sum to I,
and L(rho) equals, up to a constant,

    f(tau) = sum_s n_s ln Tr(Pi~_s tau),   rho = G^-1/2 tau G^-1/2 / tr,

over density matrices tau.  The solver is damped Newton on the barrier
objective f(tau) + mu ln det tau in the 15 real coordinates
tau = I/4 + sum_k x_k B_k, B_k = sigma_i (x) sigma_j / 2 for (i, j) != (0, 0):
Armijo backtracking picks each step, and a Cholesky factorisation is both
the positive-definiteness test and ln det.  The barrier weight follows the
certified gap below: mu is gap / 20 before the first step and is then kept
within [gap / 200, gap / 20] (a primal-dual rule, Boyd and Vandenberghe,
Convex Optimization, sec. 11.7).  Every iterate is strictly positive
definite.

Concavity of f bounds the distance to the maximum (Glancy, Knill, Girard,
NJP 14, 095017 (2012)):

    max f - f(tau) <= gap = lambda_max(sum_s (n_s / p~_s) Pi~_s) - N,

one 4x4 eigenvalue problem per iterate.  The solver stops as soon as the
gap is within gap_tolerance.  It also stops when the gap has not fallen for
20 steps (below the rounding floor), when the Newton system is singular or
when the line search finds no increase; it then returns the iterate of
smallest gap.  The gap is reported either way.  The result counts as
converged when that gap is within max(gap_tolerance, N eps), eps the float64
machine epsilon: the gap is a difference of two numbers of size N, so a
solver that stops short of gap_tolerance but within N eps has met it to
rounding.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .linalg import PAULIS, kron, read_only
from .measurement import TOMO_DESIGN, TomographyRecord, setting_probabilities
from .states import DensityMatrix2Q

_PROB_FLOOR = 1e-15
# Armijo sufficient-increase fraction, and the smallest step tried before the
# line search gives up (the increase is then below rounding).
_ARMIJO = 0.25
_MIN_STEP = 1e-12
# Steps without a new best gap after which the solver stops: below the
# rounding floor the gap no longer falls.
_STALL_STEPS = 20

# B_0 = I/2 followed by the 15 traceless B_k; Tr(B_k B_l) = delta_kl.
_PAULI_BASIS = read_only([kron(a, b) / 2.0 for a in PAULIS for b in PAULIS])
_TRACELESS_FLAT = _PAULI_BASIS[1:].reshape(15, 16)
_MIXED = np.eye(4, dtype=complex) / 4.0
_MIXED_FLAT = _MIXED.reshape(16)


@dataclass(frozen=True)
class MLEConfig:
    """Settings of the maximum-likelihood solver.

    ``gap_tolerance`` is in log-likelihood units: the solver stops once the
    certified distance to the maximum is at most this.  A record of N counts
    whose solver stops early, with a gap of at most N eps (the gap's rounding
    floor), also counts as converged.
    """

    max_iterations: int = 200
    gap_tolerance: float = 1e-2

    def __post_init__(self):
        n = self.max_iterations
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError(f"max_iterations must be a positive integer, got {n!r}")
        tol = self.gap_tolerance
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0.0 < tol < np.inf:
            raise ValueError(f"gap_tolerance must be a positive finite number, got {tol!r}")


@dataclass(frozen=True)
class MLEResult:
    """Reconstructed state plus solver diagnostics.

    ``gap`` bounds how far ``log_likelihood`` lies below the maximum;
    ``converged`` means it is within max(gap_tolerance, N eps), N the
    record's total count and eps the float64 machine epsilon.
    """

    rho: DensityMatrix2Q
    log_likelihood: float
    iterations: int
    converged: bool
    gap: float

    def to_json(self) -> dict:
        return {
            "rho": self.rho.to_json(),
            "log_likelihood": self.log_likelihood,
            "iterations": self.iterations,
            "converged": self.converged,
            "gap": self.gap,
        }


def _ll_of_probs(probs: np.ndarray, counts: np.ndarray, exposure: np.ndarray) -> float:
    total = counts.sum()
    mean_rate = 4.0 * (exposure @ probs) / exposure.sum()
    return float(
        counts @ np.log(np.maximum(probs, _PROB_FLOOR)) - total * np.log(mean_rate) - total
    )


def log_likelihood(rho: DensityMatrix2Q, record: TomographyRecord) -> float:
    """Intensity-profiled Poisson log-likelihood (see the module docstring).

    Probabilities are floored at 1e-15 inside the logarithm so boundary
    states with exact zeros stay comparable.  Rescaling all exposures by
    one factor leaves the value unchanged.
    """
    return _ll_of_probs(
        setting_probabilities(rho.mat), record.counts.astype(float), record.exposure
    )


def _whitening(exposure: np.ndarray):
    """G^-1/2 and the whitened design in Pauli coordinates.

    Returns (root, p0, a): root = G^-1/2, and for tau = I/4 + sum_k x_k B_k
    the whitened probabilities are Tr(Pi~_s tau) = p0_s + (a @ x)_s.
    """
    gram = (exposure @ TOMO_DESIGN).view(complex).reshape(4, 4)
    vals, vecs = np.linalg.eigh(gram)
    root = (vecs / np.sqrt(vals)) @ vecs.conj().T
    basis = np.ascontiguousarray(root @ _PAULI_BASIS @ root).reshape(16, 16)
    coords = exposure[:, None] * (TOMO_DESIGN @ basis.view(np.float64).T)
    return root, coords[:, 0] / 2.0, coords[:, 1:]


def _tau(x: np.ndarray) -> np.ndarray:
    return (_MIXED_FLAT + x @ _TRACELESS_FLAT).reshape(4, 4)


def _ln_det(tau: np.ndarray) -> float | None:
    """ln det tau, or None when tau is not positive definite."""
    try:
        chol = np.linalg.cholesky(tau)
    except np.linalg.LinAlgError:
        return None
    return 2.0 * float(np.log(chol.diagonal().real).sum())


def _gap(grad: np.ndarray, x: np.ndarray) -> float:
    # sum_s (n_s / p~_s) Pi~_s = (N - grad.x) I + sum_k grad_k B_k, and its
    # expectation in tau is N, so the bound is lambda_max(sum grad_k B_k) - grad.x.
    return float(np.linalg.eigvalsh((grad @ _TRACELESS_FLAT).reshape(4, 4))[-1] - grad @ x)


def mle_reconstruct(
    record: TomographyRecord,
    config: MLEConfig | None = None,
    callback=None,
) -> MLEResult:
    """Maximum-likelihood density matrix for a tomography record.

    Starts from the maximally mixed state and takes barrier Newton steps
    until the certified gap is at most gap_tolerance.  Running out of
    max_iterations steps, a gap that has not fallen for 20 steps, a singular
    Newton system or a failed line search returns the iterate of smallest gap
    seen, and that gap, with converged=False unless the gap is within N eps
    for the record's N counts (its rounding floor).  ``callback``, when given,
    is invoked as callback(iteration, rho_array, log_likelihood) after
    every step.
    """
    cfg = config or MLEConfig()
    counts, exposure = record.counts.astype(float), record.exposure
    total = counts.sum()
    if total == 0:
        # No events: the likelihood is flat, every state is maximal.
        rho = DensityMatrix2Q(_MIXED.copy())
        return MLEResult(rho=rho, log_likelihood=0.0, iterations=0, converged=True, gap=0.0)
    # The gap is lambda_max - N, a difference of two numbers of size N.
    floor = float(total * np.finfo(float).eps)
    root, p0, a = _whitening(exposure)
    # Zero-count settings add nothing to f, its gradient or its Hessian, and
    # tau > 0 keeps their p~_s positive: the Newton loop leaves them out, so a
    # p~_s that rounds to zero cannot give 0 / 0.
    seen = counts > 0
    n, p0, a = counts[seen], p0[seen], a[seen]

    def to_rho(tau: np.ndarray) -> np.ndarray:
        rho = root @ tau @ root
        return rho / rho.trace().real

    x = np.zeros(15)
    tau = _MIXED
    ln_det = _ln_det(tau)
    probs = p0
    mu = np.inf
    iterations = stalled = 0
    best_gap, best_tau = np.inf, tau
    while True:
        weights = n / probs
        grad = weights @ a
        gap = _gap(grad, x)
        if gap < best_gap:
            best_gap, best_tau, stalled = gap, tau, 0
        else:
            stalled += 1
        if (
            gap <= cfg.gap_tolerance
            or iterations == cfg.max_iterations
            or stalled == _STALL_STEPS
        ):
            break
        # The barrier weight follows the certified gap; the lower edge keeps
        # iterates off the boundary of the positive cone.
        mu = min(max(mu, gap / 200.0), gap / 20.0)
        try:
            inv = np.linalg.inv(tau)
            barrier_grad = (_TRACELESS_FLAT.conj() @ inv.reshape(16)).real
            # Tr(inv B_k inv B_l) through the Kronecker product inv^T (x) inv.
            kron_inv = (inv.T[:, None, :, None] * inv[:, None, :]).reshape(16, 16)
            curvature = (_TRACELESS_FLAT @ kron_inv @ _TRACELESS_FLAT.conj().T).real
            hessian = (a.T * (weights / probs)) @ a + mu * curvature
            full_grad = grad + mu * barrier_grad
            step = np.linalg.solve(hessian, full_grad)
        except np.linalg.LinAlgError:
            # A singular system has no Newton step, like a failed line search.
            break
        decrement_sq = float(full_grad @ step)

        ratio = (a @ step) / probs
        t = 1.0
        while t >= _MIN_STEP:
            trial_tau = _tau(x + t * step)
            trial_ln_det = _ln_det(trial_tau)
            if trial_ln_det is not None and (t * ratio > -1.0).all():
                increase = n @ np.log1p(t * ratio) + mu * (trial_ln_det - ln_det)
                if increase >= _ARMIJO * t * decrement_sq:
                    break
            t /= 2.0
        else:
            # No step raises the objective by more than rounding.
            break

        x = x + t * step
        tau, ln_det = trial_tau, trial_ln_det
        probs = p0 + a @ x
        iterations += 1
        if callback is not None:
            rho = to_rho(tau)
            ll = _ll_of_probs(setting_probabilities(rho), counts, exposure)
            callback(iterations, rho, ll)

    # Far below rounding the gap can grow again; the best-certified iterate is
    # returned (a converged run's last iterate is always its best).
    rho = DensityMatrix2Q(to_rho(best_tau))
    return MLEResult(
        rho=rho,
        log_likelihood=_ll_of_probs(setting_probabilities(rho.mat), counts, exposure),
        iterations=iterations,
        converged=best_gap <= max(cfg.gap_tolerance, floor),
        gap=best_gap,
    )
