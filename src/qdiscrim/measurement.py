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

from dataclasses import asdict, dataclass

import numpy as np

from .discrimination import (
    T_B_GUESS,
    FeedForwardProtocol,
    _check_protocol,
    _ket_probabilities,
    _product_kets,
)
from .errors import EmptyCountsError, IncompletePOVMError, InvalidProtocolError
from .linalg import ID4, KET_A, KET_D, KET_H, KET_L, KET_R, KET_V, read_only
from .states import NEGATIVE_EIG_TOL, DensityMatrix2Q

COINCIDENCE_LABELS = ("TaTb", "TaRb", "RaTb", "RaRb")

TOMO_BASIS_LABELS = ("H", "V", "D", "A", "R", "L")

POVM_COMPLETENESS_ATOL = 1e-9
_ZERO_PROB = 1e-15
# Largest n_total of sample_coincidences (and the CLI's n_events and
# n_per_setting): numpy's multinomial takes counts up to 2**63 - 1 and its
# Poisson draw means up to about 9.2e18.
MAX_COUNT = 2**62


TOMO_LABELS = tuple((a, b) for a in TOMO_BASIS_LABELS for b in TOMO_BASIS_LABELS)
_SIX_KETS = np.array([KET_H, KET_V, KET_D, KET_A, KET_R, KET_L])
# The 36 product kets a (x) b of the six polarisation kets, as rows in TOMO_LABELS order.
_TOMO_PRODUCT_KETS = np.kron(_SIX_KETS, _SIX_KETS)
# The tomography design matrix, built once and read-only: their projectors Pi_s as
# a (36, 16) complex stack viewed as float64, so that TOMO_DESIGN @ M.reshape(16)
# .view(float) is Re Tr(Pi_s M) for every setting s (each Pi_s is Hermitian), and
# c @ TOMO_DESIGN, viewed back as complex, is sum_s c_s Pi_s for real weights c.
TOMO_DESIGN = read_only(_TOMO_PRODUCT_KETS[:, :, None] * _TOMO_PRODUCT_KETS[:, None].conj())
TOMO_DESIGN = TOMO_DESIGN.reshape(36, 16).view(np.float64)


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
            try:
                whole = int(val) == val
            except (OverflowError, ValueError):  # infinity or NaN
                whole = False
            if not whole or val < 0:
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
        return asdict(self)


@dataclass(frozen=True)
class TomographyRecord:
    """Counts and exposures for the 36 tomography settings, in TOMO_LABELS order."""

    counts: np.ndarray
    exposure: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts)
        # NaN, infinity and floats beyond int64 fail before the cast to int,
        # which would warn on them.
        castable = counts.dtype.kind != "f" or (np.abs(counts) < 2.0**63).all()
        if (
            counts.shape != (36,)
            or not castable
            or (counts < 0).any()
            or not (counts == counts.astype(int)).all()
        ):
            raise ValueError("counts must be 36 nonnegative integers")
        exposure = np.asarray(self.exposure, dtype=float)
        if exposure.shape != (36,) or (exposure <= 0).any() or not np.isfinite(exposure).all():
            raise ValueError("exposure must be 36 positive reals")
        object.__setattr__(self, "counts", read_only(counts, int))
        object.__setattr__(self, "exposure", read_only(exposure))

    @classmethod
    def from_counts(cls, counts, exposure=None) -> "TomographyRecord":
        """Record with optional exposures (default all 1)."""
        if exposure is None:
            exposure = np.ones(36)
        return cls(counts=counts, exposure=exposure)

    def to_json(self) -> dict:
        return {
            "settings": ["".join(label) for label in TOMO_LABELS],
            "counts": self.counts.tolist(),
            "exposure": self.exposure.tolist(),
        }


def protocol_to_povm(protocol: FeedForwardProtocol) -> list[tuple[str, np.ndarray]]:
    """The four labelled coincidence projectors of a feed-forward protocol.

    Alice outcome 0 is her transmitted arm T_a (the branch that triggers
    the feed-forward switch), Bob outcome 0 is T_b; labels follow
    COINCIDENCE_LABELS order.  ``estimate`` reads T_b as the label-0 guess,
    so a protocol whose guess_map is not [[0, 1], [0, 1]] raises
    InvalidProtocolError.  Each element is the outer product |k_o><k_o| of the
    product ket k_o = alice_i (x) bob_ij that coincidence_probabilities reads;
    the elements sum to the identity because the protocol's Gram check passed.
    """
    if not isinstance(protocol, FeedForwardProtocol):
        raise TypeError("expected a FeedForwardProtocol")
    if protocol.guess_map.tolist() != T_B_GUESS.tolist():
        raise InvalidProtocolError(
            f"guess_map {protocol.guess_map.tolist()} does not follow the T_b convention: "
            "Bob's outcome 0 (T_b) must guess label 0 and outcome 1 (R_b) label 1 "
            "in both branches"
        )
    kets = _product_kets(protocol.alice_basis, protocol.bob_bases)
    return list(zip(COINCIDENCE_LABELS, kets[:, :, None] * kets.conj()[:, None, :]))


def coincidence_probabilities(alice, bobs, mats) -> np.ndarray:
    """Outcome probabilities of B protocols for their states, without POVM matrices.

    alice and bobs are the protocols' (B, 2, 2) and (B, 2, 2, 2) bases and mats
    a (B, R, 4, 4) density stack.  Entry [b, r, o] of the (B, R, 4) result is
    Tr(rho_br Pi_o) = <k_o|rho_br|k_o> for outcome o of protocol b, in
    COINCIDENCE_LABELS order, k_o = alice_i (x) bob_ij its product ket.  The
    bases' Gram check runs once for the stack, so each protocol's projectors
    sum to the identity.
    """
    _check_protocol(alice, bobs)
    return _ket_probabilities(_product_kets(alice, bobs), mats)


def sample_coincidences(
    rho: DensityMatrix2Q,
    povm: list[tuple[str, np.ndarray]],
    n_total: int,
    seed: int,
) -> CoincidenceCounts:
    """Multinomial coincidence counts for one prepared state.

    Outcome probabilities are Tr(rho Pi) for the four POVM elements, and
    draw_coincidences draws the counts from them; identical seeds give
    identical counts.  The POVM need not come from a protocol, so this is the
    one completeness check on a POVM: elements that do not sum to I within
    POVM_COMPLETENESS_ATOL raise IncompletePOVMError.  n_total must be an
    integer (not a bool) in [1, MAX_COUNT] and seed a nonnegative one;
    anything else raises ValueError before any draw.
    """
    mats = [np.asarray(mat, dtype=complex) for _, mat in povm]
    if len(mats) != 4:
        raise ValueError(f"expected 4 POVM elements, got {len(mats)}")
    dev = np.abs(np.sum(mats, axis=0) - ID4).max()
    if dev > POVM_COMPLETENESS_ATOL:
        raise IncompletePOVMError(f"POVM elements sum deviates from identity by {dev:.3e}")
    probs = np.array([float(np.trace(rho.mat @ mat).real) for mat in mats])
    return draw_coincidences(probs, n_total, seed)


def _require_integer(value, lo, hi, rule: str) -> None:
    """Raise ValueError(rule) unless value is an int or numpy integer in [lo, hi], not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not lo <= value <= hi:
        raise ValueError(f"{rule}, got {value!r}")


def draw_coincidences(probs, n_total: int, seed: int) -> CoincidenceCounts:
    """n_total coincidence events drawn from four outcome probabilities.

    One multinomial sample from numpy's default generator seeded with seed,
    so identical seeds give identical counts.  Probabilities at or below
    1e-15 count as exactly 0 and the rest are normalised to sum 1.  n_total
    must be an integer (not a bool) in [1, MAX_COUNT], seed a nonnegative
    integer, and probs four finite numbers, none below -NEGATIVE_EIG_TOL (the
    most negative <k|rho|k> a DensityMatrix2Q allows), with a positive sum;
    anything else raises ValueError before any draw.
    """
    _require_integer(n_total, 1, MAX_COUNT, "n_total must be an integer in [1, 2**62]")
    _require_integer(seed, 0, np.inf, "seed must be a nonnegative integer")
    probs = np.array(probs, dtype=float)
    if probs.shape != (4,) or not np.isfinite(probs).all():
        raise ValueError(f"expected 4 finite outcome probabilities, got {probs.tolist()}")
    if probs.min() < -NEGATIVE_EIG_TOL:
        raise ValueError(f"outcome probabilities {probs.tolist()} have a negative entry")
    # An exactly zero probability comes out as rounding noise of either sign;
    # snap it to 0, since the multinomial draw uses the stream differently for
    # 0 than for 1e-19 and the counts would follow the last bits of the basis.
    probs[probs <= _ZERO_PROB] = 0.0
    total = probs.sum()
    if not total > 0.0:
        raise ValueError(f"outcome probabilities {probs.tolist()} have no positive entry")
    rng = np.random.default_rng(int(seed))
    counts = rng.multinomial(int(n_total), probs / total)
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


def setting_probabilities(mat: np.ndarray) -> np.ndarray:
    """Re Tr(Pi_s mat) for the 36 tomography settings, in TOMO_LABELS order."""
    return TOMO_DESIGN @ np.ascontiguousarray(mat, dtype=complex).reshape(16).view(np.float64)


def simulate_tomography(
    rho: DensityMatrix2Q, n_per_setting: int, seed: int, exposure=None
) -> TomographyRecord:
    """Poisson tomography record with mean n_per_setting * e_s * Tr(rho Pi_s).

    ``exposure`` holds the 36 positive e_s in TOMO_LABELS order (default
    all 1) and is stored in the record.  n_per_setting must be a positive
    finite number (not a bool) and seed a nonnegative integer; anything else
    raises ValueError before any draw.
    """
    # NaN and infinity fail here too, before they reach the Poisson draw.
    if isinstance(n_per_setting, (bool, np.bool_)) or not 0 < n_per_setting < np.inf:
        raise ValueError(f"n_per_setting must be positive and finite, got {n_per_setting}")
    _require_integer(seed, 0, np.inf, "seed must be a nonnegative integer")
    # An empty record checks the exposures before any draw.
    exposure = TomographyRecord.from_counts(np.zeros(36, dtype=int), exposure).exposure
    rng = np.random.default_rng(int(seed))
    probs = np.clip(setting_probabilities(rho.mat), 0.0, None)
    # One array draw takes the same stream, setting by setting, as 36 scalar draws.
    counts = rng.poisson(n_per_setting * exposure * probs)
    return TomographyRecord.from_counts(counts, exposure)
