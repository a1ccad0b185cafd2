"""Maximum-likelihood state reconstruction from tomography records.

The likelihood is Poissonian: counts n_s at setting s have mean
N_s Tr(rho Pi_s), where N_s is the per-setting flux: exposure times the
source intensity inferred from the record's total counts (exact for
uniform exposures because the 36 projectors sum to 9 I).  Reconstruction
iterates the diluted R rho R fixed point (Rehacek, Hradil, Jezek, PRA 63,
040303(R) (2001))

    rho <- (1 - d) rho + d R rho R / tr(R rho R),
    R = sum_s (n_s / n p_s) Pi_s,   n = sum_s n_s,

which preserves positivity and unit trace at every step; the dilution d is
halved whenever a candidate would lower the log-likelihood, so the accepted
sequence is non-decreasing by construction.

All projector arithmetic goes through the read-only design matrix D that
``measurement`` builds once (TOMO_DESIGN, rows in the record's setting
order): the probabilities are p = D rho, and R is (n_s / n p_s) D.  With
M = R rho R, the update is taken as M + M^dagger over its trace, which is
Hermitian by construction, and its probabilities are computed once per
iteration.  The probabilities are linear in rho, so the dilution line
search mixes probability vectors, (1 - d) p + d p_pushed, instead of
matrices, and the accepted vector carries into the next iteration.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConvergenceFailure
from .measurement import TOMO_DESIGN, TOMO_LABELS, TomographyRecord, setting_probabilities
from .states import DensityMatrix2Q, PureState2Q, fidelity_pure

_PROB_FLOOR = 1e-15
_MIN_DILUTION = 1e-12


@dataclass(frozen=True)
class MLEConfig:
    """Iteration settings for the maximum-likelihood solver."""

    max_iterations: int = 5000
    ll_tolerance: float = 1e-10
    dilution: float = 0.5

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if not 0.0 < self.ll_tolerance < 1.0:
            raise ValueError("ll_tolerance must lie in (0, 1)")
        if not 0.0 < self.dilution <= 1.0:
            raise ValueError("dilution must lie in (0, 1]")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "MLEConfig":
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown mle keys: {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class MLEResult:
    """Reconstructed state plus solver diagnostics."""

    rho: DensityMatrix2Q
    log_likelihood: float
    iterations: int
    converged: bool

    def to_json(self) -> dict:
        return {
            "rho": self.rho.to_json(),
            "log_likelihood": self.log_likelihood,
            "iterations": self.iterations,
            "converged": self.converged,
        }

    def to_csv(self) -> str:
        """Real and imaginary 4x4 blocks plus diagnostic comment lines."""
        lines = [
            f"# log_likelihood={self.log_likelihood!r}",
            f"# iterations={self.iterations}",
            f"# converged={self.converged}",
            "# real part",
        ]
        m = self.rho.mat
        lines += [",".join(repr(float(x)) for x in row) for row in m.real]
        lines.append("# imaginary part")
        lines += [",".join(repr(float(x)) for x in row) for row in m.imag]
        return "\n".join(lines) + "\n"


_DESIGN_ROW = {label: s for s, label in enumerate(TOMO_LABELS)}


def _record_arrays(record: TomographyRecord):
    """Design rows in the record's setting order, counts and exposures."""
    design = TOMO_DESIGN[[_DESIGN_ROW[label] for label in record.labels]]
    counts = record.counts.astype(float)
    return design, counts, record.exposure


def _fluxes(counts: np.ndarray, exposure: np.ndarray) -> np.ndarray:
    # Intensity estimate: sum_s e_s p_s = sum(e)/4 for any rho when the
    # weighted projectors sum to a multiple of the identity (uniform e).
    intensity = 4.0 * counts.sum() / exposure.sum()
    return exposure * intensity


def _ll_of_probs(probs: np.ndarray, counts: np.ndarray, fluxes: np.ndarray) -> float:
    return float(
        (counts * np.log(np.maximum(probs, _PROB_FLOOR)) - fluxes * probs).sum()
    )


def log_likelihood(rho: DensityMatrix2Q, record: TomographyRecord) -> float:
    """Poisson log-likelihood sum_s [n_s ln p_s - N_s p_s] (rho-dependent part).

    Probabilities are floored at 1e-15 inside the logarithm so boundary
    states with exact zeros stay comparable.
    """
    design, counts, exposure = _record_arrays(record)
    probs = setting_probabilities(rho.mat, design)
    return _ll_of_probs(probs, counts, _fluxes(counts, exposure))


def mle_reconstruct(
    record: TomographyRecord,
    config: MLEConfig | None = None,
    callback=None,
) -> MLEResult:
    """Maximum-likelihood density matrix for a tomography record.

    Starts from the maximally mixed state and applies the diluted R rho R
    iteration until the relative log-likelihood change drops below
    ll_tolerance or the iteration budget runs out.  ``callback``, when
    given, is invoked as callback(iteration, rho_array, log_likelihood)
    after every accepted step.
    """
    cfg = config or MLEConfig()
    design, counts, exposure = _record_arrays(record)
    total = counts.sum()
    if total == 0:
        # No events: the likelihood is flat, every state is maximal.
        rho = DensityMatrix2Q(np.eye(4, dtype=complex) / 4.0)
        return MLEResult(rho=rho, log_likelihood=0.0, iterations=0, converged=True)
    fluxes = _fluxes(counts, exposure)
    weights = counts / total

    rho = np.eye(4, dtype=complex) / 4.0
    probs = setting_probabilities(rho, design)
    ll = _ll_of_probs(probs, counts, fluxes)
    dilution = cfg.dilution
    accepted_streak = 0
    iterations = 0
    converged = False

    for iterations in range(1, cfg.max_iterations + 1):
        r = ((weights / np.maximum(probs, _PROB_FLOOR)) @ design).view(complex)
        r = r.reshape(4, 4)
        m = r @ rho @ r
        pushed = m + m.conj().T
        pushed_trace = float(pushed.trace().real)
        if pushed_trace <= 0.0:
            raise ConvergenceFailure("R rho R collapsed to zero trace")
        pushed /= pushed_trace
        pushed_probs = setting_probabilities(pushed, design)

        accepted = False
        while dilution >= _MIN_DILUTION:
            candidate_probs = (1.0 - dilution) * probs + dilution * pushed_probs
            ll_new = _ll_of_probs(candidate_probs, counts, fluxes)
            if ll_new >= ll:
                accepted = True
                break
            dilution /= 2.0
            accepted_streak = 0
        if not accepted:
            # No dilution small enough can raise the likelihood further:
            # converged to numerical precision.
            converged = True
            iterations -= 1
            break

        change = ll_new - ll
        rho = (1.0 - dilution) * rho + dilution * pushed
        probs, ll = candidate_probs, ll_new
        accepted_streak += 1
        if accepted_streak >= 10 and dilution != cfg.dilution:
            dilution = cfg.dilution
            accepted_streak = 0
        if callback is not None:
            callback(iterations, rho, ll)
        if change <= cfg.ll_tolerance * max(1.0, abs(ll)):
            converged = True
            break

    return MLEResult(
        rho=DensityMatrix2Q.from_external(rho),
        log_likelihood=ll,
        iterations=iterations,
        converged=converged,
    )


def fidelity_report(result: MLEResult, target: PureState2Q) -> float:
    """Fidelity of a reconstruction with a pure target state."""
    return fidelity_pure(result.rho, target)
