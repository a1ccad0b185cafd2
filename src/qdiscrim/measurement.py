"""Coincidence counting, estimators, and tomography acquisition.

Detector outcomes follow the polarising-beam-splitter convention: index 0
is the transmitted arm (T), index 1 the reflected arm (R), with subscripts
a/b for the two analysers.  A discrimination run prepares one state many
times and records the four coincidence rates TaTb, TaRb, RaTb, RaRb; Bob's
transmitted arm (T_b) signals the protocol's label-0 guess.

Tomography measures 36 product projectors built from the H, V, D, A, R, L
polarisation kets on each side, one Poisson-distributed count per setting.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from . import linalg
from .discrimination import FeedForwardProtocol
from .errors import EmptyCountsError, IncompletePOVMError
from .linalg import ID4, KET_A, KET_D, KET_H, KET_L, KET_R, KET_V, kron, projector
from .states import DensityMatrix2Q

COINCIDENCE_LABELS = ("TaTb", "TaRb", "RaTb", "RaRb")

TOMO_BASIS_LABELS = ("H", "V", "D", "A", "R", "L")
_TOMO_KETS = {
    "H": KET_H,
    "V": KET_V,
    "D": KET_D,
    "A": KET_A,
    "R": KET_R,
    "L": KET_L,
}

POVM_COMPLETENESS_ATOL = 1e-9


TOMO_LABELS = tuple((a, b) for a in TOMO_BASIS_LABELS for b in TOMO_BASIS_LABELS)
_TOMO_PROJECTORS = np.stack(
    [kron(projector(_TOMO_KETS[a]), projector(_TOMO_KETS[b])) for a, b in TOMO_LABELS]
)
_TOMO_PROJECTORS.flags.writeable = False
# The tomography design matrix, built once and read-only: the (36, 16) complex
# projector stack viewed as float64, so that TOMO_DESIGN @ M.reshape(16).view(float)
# is Re Tr(Pi_s M) for every setting s (each Pi_s is Hermitian), and c @ TOMO_DESIGN,
# viewed back as complex, is sum_s c_s Pi_s for real weights c.
TOMO_DESIGN = _TOMO_PROJECTORS.reshape(36, 16).view(np.float64)


@dataclass(frozen=True)
class CoincidenceCounts:
    """Event counts of one discrimination run (single prepared state)."""

    n_ta_tb: int
    n_ta_rb: int
    n_ra_tb: int
    n_ra_rb: int

    def __post_init__(self):
        for name in ("n_ta_tb", "n_ta_rb", "n_ra_tb", "n_ra_rb"):
            val = getattr(self, name)
            if int(val) != val or val < 0:
                raise ValueError(f"{name} must be a nonnegative integer, got {val!r}")
            object.__setattr__(self, name, int(val))
        if self.total == 0:
            raise EmptyCountsError("coincidence record contains no events")

    @property
    def total(self) -> int:
        return self.n_ta_tb + self.n_ta_rb + self.n_ra_tb + self.n_ra_rb

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.n_ta_tb, self.n_ta_rb, self.n_ra_tb, self.n_ra_rb)

    def to_json(self) -> dict:
        return dict(zip(COINCIDENCE_LABELS, self.as_tuple()))

    @classmethod
    def from_json(cls, data: dict) -> "CoincidenceCounts":
        missing = set(COINCIDENCE_LABELS) - set(data)
        if missing:
            raise ValueError(f"missing coincidence labels: {sorted(missing)}")
        return cls(*(data[label] for label in COINCIDENCE_LABELS))

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["label", "count"])
        for label, count in zip(COINCIDENCE_LABELS, self.as_tuple()):
            writer.writerow([label, count])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "CoincidenceCounts":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != ["label", "count"]:
            raise ValueError("expected header 'label,count'")
        data = {label: int(count) for label, count in rows[1:]}
        return cls.from_json(data)


@dataclass(frozen=True)
class DiscriminationEstimate:
    """Success probabilities estimated from two coincidence records."""

    p0: float
    p1: float
    p_avg: float
    sigma_p0: float
    sigma_p1: float
    sigma_avg: float

    def to_json(self) -> dict:
        return {
            "p0": self.p0,
            "p1": self.p1,
            "p_avg": self.p_avg,
            "sigma_p0": self.sigma_p0,
            "sigma_p1": self.sigma_p1,
            "sigma_avg": self.sigma_avg,
        }


@dataclass(frozen=True)
class TomographyRecord:
    """Counts for the 36 tomography settings, in the canonical order."""

    labels: tuple
    counts: np.ndarray
    exposure: np.ndarray

    def __post_init__(self):
        labels = tuple((str(a), str(b)) for a, b in self.labels)
        if len(labels) != 36 or len(set(labels)) != 36:
            raise ValueError("expected 36 distinct setting labels")
        for a, b in labels:
            if a not in TOMO_BASIS_LABELS or b not in TOMO_BASIS_LABELS:
                raise ValueError(f"unknown setting label ({a}, {b})")
        counts = np.asarray(self.counts)
        if counts.shape != (36,) or (counts < 0).any() or not (counts == counts.astype(int)).all():
            raise ValueError("counts must be 36 nonnegative integers")
        exposure = np.asarray(self.exposure, dtype=float)
        if exposure.shape != (36,) or (exposure <= 0).any() or not np.isfinite(exposure).all():
            raise ValueError("exposure must be 36 positive reals")
        object.__setattr__(self, "labels", labels)
        counts = counts.astype(int)
        counts.flags.writeable = False
        exposure = exposure.copy()
        exposure.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "exposure", exposure)

    @classmethod
    def from_counts(cls, counts, exposure=None) -> "TomographyRecord":
        """Record in canonical setting order with optional exposures."""
        if exposure is None:
            exposure = np.ones(36)
        return cls(labels=TOMO_LABELS, counts=counts, exposure=exposure)

    def to_json(self) -> dict:
        return {
            "settings": ["".join(label) for label in self.labels],
            "counts": self.counts.tolist(),
            "exposure": self.exposure.tolist(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "TomographyRecord":
        labels = tuple((s[0], s[1]) for s in data["settings"])
        return cls(labels=labels, counts=data["counts"], exposure=data["exposure"])

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["setting", "count", "exposure"])
        for label, count, exp in zip(self.labels, self.counts, self.exposure):
            writer.writerow(["".join(label), count, repr(float(exp))])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "TomographyRecord":
        rows = list(csv.reader(io.StringIO(text)))
        if not rows or rows[0] != ["setting", "count", "exposure"]:
            raise ValueError("expected header 'setting,count,exposure'")
        labels, counts, exposure = [], [], []
        for setting, count, exp in rows[1:]:
            labels.append((setting[0], setting[1]))
            counts.append(int(count))
            exposure.append(float(exp))
        return cls(labels=tuple(labels), counts=counts, exposure=exposure)


def protocol_to_povm(protocol: FeedForwardProtocol) -> list[tuple[str, np.ndarray]]:
    """The four labelled coincidence projectors of a feed-forward protocol.

    Alice outcome 0 is her transmitted arm T_a (the branch that triggers
    the feed-forward switch), Bob outcome 0 is T_b; labels follow
    COINCIDENCE_LABELS order.
    """
    if not isinstance(protocol, FeedForwardProtocol):
        raise TypeError("expected a FeedForwardProtocol")
    elements = []
    for label, (i, j) in zip(COINCIDENCE_LABELS, ((0, 0), (0, 1), (1, 0), (1, 1))):
        elements.append((label, protocol.projector(i, j)))
    _require_complete([mat for _, mat in elements])
    return elements


def _require_complete(elements) -> None:
    total = np.sum(elements, axis=0)
    dev = np.abs(total - ID4).max()
    if dev > POVM_COMPLETENESS_ATOL:
        raise IncompletePOVMError(f"POVM elements sum deviates from identity by {dev:.3e}")


def sample_coincidences(
    rho: DensityMatrix2Q,
    povm: list[tuple[str, np.ndarray]],
    n_total: int,
    seed: int,
) -> CoincidenceCounts:
    """Multinomial coincidence counts for one prepared state.

    Outcome probabilities are Tr(rho Pi) for the four POVM elements and
    n_total events are drawn in one multinomial sample; identical seeds
    give identical counts.
    """
    if n_total <= 0:
        raise ValueError(f"n_total must be positive, got {n_total}")
    mats = [np.asarray(mat, dtype=complex) for _, mat in povm]
    if len(mats) != 4:
        raise ValueError(f"expected 4 POVM elements, got {len(mats)}")
    _require_complete(mats)
    probs = np.array([float(np.trace(rho.mat @ mat).real) for mat in mats])
    probs = np.clip(probs, 0.0, None)
    probs = probs / probs.sum()
    rng = np.random.default_rng(int(seed))
    counts = rng.multinomial(int(n_total), probs)
    return CoincidenceCounts(*counts.tolist())


def estimate(
    counts0: CoincidenceCounts, counts1: CoincidenceCounts
) -> DiscriminationEstimate:
    """Success probabilities from the two single-state runs.

    Bob's transmitted arm flags label 0, so for the state-0 run the correct
    events are TaTb and RaTb, and for the state-1 run TaRb and RaRb.
    Uncertainties are binomial, sigma = sqrt(p (1 - p) / n), combined in
    quadrature for the average.
    """
    n0, n1 = counts0.total, counts1.total
    if n0 == 0 or n1 == 0:
        raise EmptyCountsError("both runs must contain events")
    p0 = (counts0.n_ta_tb + counts0.n_ra_tb) / n0
    p1 = (counts1.n_ta_rb + counts1.n_ra_rb) / n1
    sigma_p0 = float(np.sqrt(p0 * (1.0 - p0) / n0))
    sigma_p1 = float(np.sqrt(p1 * (1.0 - p1) / n1))
    return DiscriminationEstimate(
        p0=float(p0),
        p1=float(p1),
        p_avg=(p0 + p1) / 2.0,
        sigma_p0=sigma_p0,
        sigma_p1=sigma_p1,
        sigma_avg=float(np.hypot(sigma_p0, sigma_p1) / 2.0),
    )


def tomography_settings() -> list[tuple[tuple[str, str], np.ndarray]]:
    """The 36 labelled product projectors, Alice label major.

    Order is (H, V, D, A, R, L) on Alice crossed with the same sequence on
    Bob; the spanned design matrix has full rank 16, so the setting set is
    tomographically complete.  The matrices are copies of the cached ones,
    so a caller may change them freely.
    """
    return [(label, mat.copy()) for label, mat in zip(TOMO_LABELS, _TOMO_PROJECTORS)]


def setting_probabilities(mat: np.ndarray, design: np.ndarray = TOMO_DESIGN) -> np.ndarray:
    """Re Tr(Pi_s mat) for every row s of a tomography design matrix."""
    return design @ np.ascontiguousarray(mat, dtype=complex).reshape(16).view(np.float64)


def simulate_tomography(
    rho: DensityMatrix2Q, n_per_setting: int, seed: int
) -> TomographyRecord:
    """Poisson tomography record with mean n_per_setting * Tr(rho Pi_s)."""
    if n_per_setting <= 0:
        raise ValueError(f"n_per_setting must be positive, got {n_per_setting}")
    rng = np.random.default_rng(int(seed))
    probs = np.clip(setting_probabilities(rho.mat), 0.0, None)
    # One array draw takes the same stream, setting by setting, as 36 scalar draws.
    return TomographyRecord.from_counts(rng.poisson(n_per_setting * probs))
