"""Discrimination protocols and bounds for two-qubit state pairs.

Any two orthogonal two-qubit pure states can be told apart perfectly with
local measurements plus one-way feed-forward: write both states with a
common Alice basis so that Bob's conditional states are orthogonal for
either Alice outcome, then let Bob's measurement basis follow Alice's
result.  The common basis comes from a "hollow" vector w of the 2x2 matrix
m = F G^dagger built from the two amplitude matrices, i.e. <w|m|w> = 0;
because m is traceless the orthogonal complement of w works automatically.

Without feed-forward the best fixed product measurement is exact on Bob's
side and searched on Alice's; comparing it with the feed-forward protocol
quantifies the value of the classical side channel.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import linalg
from .errors import (
    ConvergenceFailure,
    InvalidMeasurementError,
    InvalidProtocolError,
    NotOrthogonalError,
    NotTracelessError,
)
from .linalg import ID2, ID4, KET_H, KET_V, PAULI_Z, dagger, kron, perp2, projector
from .states import DensityMatrix2Q, PureState2Q, u_perp_state, u_state

ORTHOGONALITY_ATOL = 1e-9
HOLLOW_RESIDUAL = 1e-12
BASIS_ATOL = 1e-12
_DEGENERATE_NORM = 1e-10

_HOLLOW_MAX_NEWTON_STEPS = 60
_HOLLOW_STARTS = 16


@dataclass(frozen=True)
class PriorPair:
    """Prior probabilities for the two hypotheses."""

    p0: float
    p1: float

    def __post_init__(self):
        p0, p1 = float(self.p0), float(self.p1)
        if p0 < 0.0 or p1 < 0.0 or abs(p0 + p1 - 1.0) > 1e-12:
            raise ValueError(f"priors must be nonnegative and sum to 1, got ({p0}, {p1})")
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "p1", p1)

    def __getitem__(self, label: int) -> float:
        return (self.p0, self.p1)[label]


EQUAL_PRIORS = PriorPair(0.5, 0.5)


def _check_basis(basis: np.ndarray, what: str, exc) -> np.ndarray:
    basis = np.asarray(basis, dtype=complex)
    if basis.shape != (2, 2):
        raise exc(f"{what} must be two 2-vectors, got shape {basis.shape}")
    gram = basis.conj() @ basis.T
    if np.abs(gram - ID2).max() > BASIS_ATOL:
        raise exc(f"{what} is not orthonormal within {BASIS_ATOL}")
    return basis


@dataclass(frozen=True)
class FeedForwardProtocol:
    """A one-way LOCC protocol: Alice's basis steers Bob's basis.

    alice_basis[i] is Alice's i-th outcome vector; bob_bases[i][j] is Bob's
    j-th outcome vector used when Alice saw outcome i; guess_map[i, j] is
    the emitted label.  Outcome index 0 on either side is the transmitted
    PBS arm (T_a / T_b), and Alice's T_a outcome is the one that triggers
    the feed-forward switch.
    """

    alice_basis: np.ndarray
    bob_bases: np.ndarray
    guess_map: np.ndarray

    def __post_init__(self):
        alice = _check_basis(self.alice_basis, "Alice basis", InvalidProtocolError)
        bobs = np.asarray(self.bob_bases, dtype=complex)
        if bobs.shape != (2, 2, 2):
            raise InvalidProtocolError(f"expected 2 Bob bases, got shape {bobs.shape}")
        for i in range(2):
            _check_basis(bobs[i], f"Bob basis for Alice outcome {i}", InvalidProtocolError)
        guess = np.asarray(self.guess_map)
        if guess.shape != (2, 2) or not np.isin(guess, (0, 1)).all():
            raise InvalidProtocolError("guess_map must be a 2x2 array of labels 0/1")
        object.__setattr__(self, "alice_basis", _read_only(alice))
        object.__setattr__(self, "bob_bases", _read_only(bobs))
        object.__setattr__(self, "guess_map", _read_only(guess.astype(int)))

    def projector(self, i: int, j: int) -> np.ndarray:
        """Global projector for Alice outcome i and Bob outcome j."""
        return kron(projector(self.alice_basis[i]), projector(self.bob_bases[i][j]))


@dataclass(frozen=True)
class ProductMeasurement:
    """A fixed product projective measurement with an outcome-to-label map."""

    alice_basis: np.ndarray
    bob_basis: np.ndarray
    assignment: np.ndarray

    def __post_init__(self):
        alice = _check_basis(self.alice_basis, "Alice basis", InvalidMeasurementError)
        bob = _check_basis(self.bob_basis, "Bob basis", InvalidMeasurementError)
        assign = np.asarray(self.assignment)
        if assign.shape != (2, 2) or not np.isin(assign, (0, 1)).all():
            raise InvalidMeasurementError("assignment must be a 2x2 array of labels 0/1")
        object.__setattr__(self, "alice_basis", _read_only(alice))
        object.__setattr__(self, "bob_basis", _read_only(bob))
        object.__setattr__(self, "assignment", _read_only(assign.astype(int)))

    def projector(self, a: int, b: int) -> np.ndarray:
        return kron(projector(self.alice_basis[a]), projector(self.bob_basis[b]))


@dataclass(frozen=True)
class OptimizerConfig:
    """Search settings for Alice's direction in the no-feed-forward optimiser.

    polar_points x azimuth_points is the grid of Alice directions over the
    sphere; its best refine_starts points and two closed-form starts are
    zoomed (0: no zoom, the best grid point stays); max_refine_iterations
    caps the zoom rounds; simplex_tol (radians) is the step that ends one.
    """

    polar_points: int = 24
    azimuth_points: int = 12
    refine_starts: int = 8
    simplex_tol: float = 1e-10
    max_refine_iterations: int = 500

    def __post_init__(self):
        if self.polar_points < 2 or self.azimuth_points < 1:
            raise ValueError("grid must have at least 2 polar and 1 azimuthal points")
        if self.refine_starts < 0 or self.max_refine_iterations < 1:
            raise ValueError("invalid refinement settings")
        if not 0.0 < self.simplex_tol < 1.0:
            raise ValueError("simplex_tol must lie in (0, 1)")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, data: dict) -> "OptimizerConfig":
        known = {f: data[f] for f in data}
        unknown = set(known) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown optimizer keys: {sorted(unknown)}")
        return cls(**known)


def _read_only(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr)
    out.flags.writeable = False
    return out


def hollow_vector(m: np.ndarray) -> np.ndarray:
    """A unit vector w with <w|m|w> = 0 for a traceless 2x2 matrix m.

    Such a vector always exists: the numerical range of a traceless matrix
    is an ellipse centred on the origin.  w is parametrised as
    (cos t, e^{i p} sin t) and the two real equations Re/Im <w|m|w> = 0 are
    solved by damped Newton iteration from 16 spread starting points; the
    first root with residual below 1e-12 is returned.

    Raises NotTracelessError when |tr m| > 1e-10 and ConvergenceFailure if
    every start fails (not observed for valid input).
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    if abs(m.trace()) > 1e-10:
        raise NotTracelessError(f"|trace| = {abs(m.trace()):.3e} exceeds 1e-10")

    def value(t: float, p: float) -> complex:
        c, s = np.cos(t), np.sin(t)
        e = np.exp(1j * p)
        return (
            m[0, 0] * c * c
            + m[1, 1] * s * s
            + (m[0, 1] * e + m[1, 0] * np.conj(e)) * s * c
        )

    def vec(t: float, p: float) -> np.ndarray:
        return np.array([np.cos(t), np.exp(1j * p) * np.sin(t)], dtype=complex)

    scale = max(1.0, float(np.abs(m).max()))
    for t0, p0 in _hollow_starts():
        t, p = t0, p0
        f = value(t, p)
        for _ in range(_HOLLOW_MAX_NEWTON_STEPS):
            if abs(f) <= HOLLOW_RESIDUAL * scale:
                return vec(t, p)
            df_dt = (m[1, 1] - m[0, 0]) * np.sin(2 * t) + (
                m[0, 1] * np.exp(1j * p) + m[1, 0] * np.exp(-1j * p)
            ) * np.cos(2 * t)
            df_dp = (
                1j
                * (m[0, 1] * np.exp(1j * p) - m[1, 0] * np.exp(-1j * p))
                * np.sin(2 * t)
                / 2.0
            )
            jac = np.array(
                [[df_dt.real, df_dp.real], [df_dt.imag, df_dp.imag]], dtype=float
            )
            rhs = -np.array([f.real, f.imag])
            step, *_ = np.linalg.lstsq(jac, rhs, rcond=None)
            if not np.isfinite(step).all() or np.abs(step).max() == 0.0:
                break
            lam = 1.0
            improved = False
            for _ in range(25):
                f_new = value(t + lam * step[0], p + lam * step[1])
                if abs(f_new) < abs(f):
                    t, p = t + lam * step[0], p + lam * step[1]
                    f = f_new
                    improved = True
                    break
                lam *= 0.5
            if not improved:
                break
        if abs(f) <= HOLLOW_RESIDUAL * scale:
            return vec(t, p)
    raise ConvergenceFailure("no hollow vector found from any starting point")


def _hollow_starts():
    for k in range(4):
        for l in range(4):
            yield (np.pi / 2) * (k + 0.5) / 4.0, 2.0 * np.pi * (l + 0.5) / 4.0


def walgate_decompose(phi: PureState2Q, psi: PureState2Q) -> FeedForwardProtocol:
    """Exact feed-forward protocol distinguishing two orthogonal pure states.

    Alice's basis is a hollow vector of m = F G^dagger (F, G the 2x2
    amplitude matrices of phi and psi) and its complement; for either Alice
    outcome Bob's conditional states are then orthogonal, and Bob's bases
    are aligned with them.  Bob outcome 0 maps to label 0 (state phi).

    When one conditional has negligible norm (the Alice outcome never
    occurs for that state) Bob's basis is anchored on the surviving
    conditional; when both vanish the branch never fires and the
    computational basis is used.
    """
    overlap = phi.overlap(psi)
    if abs(overlap) >= ORTHOGONALITY_ATOL:
        raise NotOrthogonalError(f"|<phi|psi>| = {abs(overlap):.3e} exceeds 1e-9")
    f = phi.vec.reshape(2, 2)
    g = psi.vec.reshape(2, 2)
    m = f @ dagger(g)
    # tr m = <psi|phi>; remove the rounding-level trace so the hollow-vector
    # precondition holds for any pair passing the orthogonality gate.
    m = m - (m.trace() / 2.0) * ID2

    w = hollow_vector(m)
    alice = np.array([w, perp2(w)])
    bob = np.zeros((2, 2, 2), dtype=complex)
    for i in range(2):
        cond_phi = f.T @ alice[i].conj()
        cond_psi = g.T @ alice[i].conj()
        n_phi = float(np.linalg.norm(cond_phi))
        n_psi = float(np.linalg.norm(cond_psi))
        if n_phi < _DEGENERATE_NORM and n_psi < _DEGENERATE_NORM:
            bob[i, 0], bob[i, 1] = KET_H, KET_V
        elif n_phi >= n_psi:
            bob[i, 0] = cond_phi / n_phi
            bob[i, 1] = perp2(bob[i, 0])
        else:
            bob[i, 1] = cond_psi / n_psi
            bob[i, 0] = perp2(bob[i, 1])
    guess = np.array([[0, 1], [0, 1]])
    return FeedForwardProtocol(alice_basis=alice, bob_bases=bob, guess_map=guess)


def canonical_protocol() -> FeedForwardProtocol:
    """The fixed H/V feed-forward protocol of the experiment.

    Alice measures in {|H>, |V>}; her transmitted outcome (|H>, index 0)
    fires the switch so Bob measures {Z|u>, Z|u_perp>}, otherwise he
    measures {|u>, |u_perp>}.  This one protocol distinguishes phi0(t0)
    from phi1(t1) perfectly for every angle pair, and realises the optimal
    two-outcome measurement for the non-orthogonal psi pairs.
    """
    alice = np.array([KET_H, KET_V])
    bob = np.array(
        [
            [PAULI_Z @ u_state(), PAULI_Z @ u_perp_state()],
            [u_state(), u_perp_state()],
        ]
    )
    guess = np.array([[0, 1], [0, 1]])
    return FeedForwardProtocol(alice_basis=alice, bob_bases=bob, guess_map=guess)


def _check_priors(priors: PriorPair) -> PriorPair:
    if not isinstance(priors, PriorPair):
        raise TypeError("priors must be a PriorPair")
    return priors


def ff_success_probability(
    protocol: FeedForwardProtocol,
    rho0: DensityMatrix2Q,
    rho1: DensityMatrix2Q,
    priors: PriorPair = EQUAL_PRIORS,
) -> float:
    """Average success probability of a feed-forward protocol.

    Sums p_label Tr(rho_label P_ij) over the four outcome branches, where
    the label is the protocol's guess for branch (i, j).
    """
    _check_priors(priors)
    rhos = (rho0.mat, rho1.mat)
    total = 0.0
    completeness = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            proj = protocol.projector(i, j)
            completeness += proj
            label = int(protocol.guess_map[i, j])
            total += priors[label] * float(np.trace(rhos[label] @ proj).real)
    if np.abs(completeness - ID4).max() > BASIS_ATOL:
        raise InvalidProtocolError("protocol projectors do not resolve the identity")
    return total


def helstrom_bound(
    rho0: DensityMatrix2Q,
    rho1: DensityMatrix2Q,
    priors: PriorPair = EQUAL_PRIORS,
) -> float:
    """Minimum-error bound (1 + || p0 rho0 - p1 rho1 ||_1) / 2.

    For equiprobable pure states this reduces to
    (1 + sqrt(1 - |<psi0|psi1>|^2)) / 2.
    """
    _check_priors(priors)
    delta = priors.p0 * rho0.mat - priors.p1 * rho1.mat
    return 0.5 * (1.0 + linalg.trace_norm(delta))


def product_success_probability(
    measurement: ProductMeasurement,
    rho0: DensityMatrix2Q,
    rho1: DensityMatrix2Q,
    priors: PriorPair = EQUAL_PRIORS,
) -> float:
    """Average success probability of a fixed product measurement."""
    _check_priors(priors)
    rhos = (rho0.mat, rho1.mat)
    total = 0.0
    for a in range(2):
        for b in range(2):
            label = int(measurement.assignment[a, b])
            proj = measurement.projector(a, b)
            total += priors[label] * float(np.trace(rhos[label] @ proj).real)
    return total


# Pauli basis I, X, Y, Z, and the 3x3 zoom pattern with its centre first.
_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_PATTERN = np.array([(0, 0)] + [(i, j) for i in (-1, 0, 1) for j in (-1, 0, 1) if i or j])


def _mixed_term(table: np.ndarray, alice: np.ndarray) -> np.ndarray:
    """4 (|c+| + |r-|) for Alice directions alice (see optimize_local_projective)."""
    u = alice @ table[1:]
    return np.abs(table[0, 0] + u[..., 0]) + np.linalg.norm(table[0, 1:] - u[..., 1:], axis=-1)


def _directions(angles: np.ndarray) -> np.ndarray:
    """Unit Bloch vectors for (..., 2) arrays of polar and azimuthal angles."""
    t, p = angles[..., 0], angles[..., 1]
    return np.stack([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)], axis=-1)


def _zoom(table: np.ndarray, alice: np.ndarray, step: float, cfg: OptimizerConfig):
    """3x3 pattern search of the mixed term over Bloch angles of a frame with each
    start on its equator; a step halves when no neighbour gains."""
    e1 = np.cross(alice, np.where(abs(alice[:, :1]) < 0.9, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)))
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    frames = np.stack([alice, e1, np.cross(alice, e1)], axis=1)  # rows: the frame's axes
    angles = np.full((len(alice), 2), (np.pi / 2.0, 0.0))
    steps = np.full(len(alice), step)
    rows = np.arange(len(alice))
    for _ in range(cfg.max_refine_iterations):
        live = steps >= cfg.simplex_tol
        if not live.any():
            break
        cand = angles[:, None, :] + steps[:, None, None] * _PATTERN
        k = _mixed_term(table, _directions(cand) @ frames).argmax(axis=1)
        moved = live & (k != 0)
        angles = np.where(moved[:, None], cand[rows, k], angles)
        steps = np.where(live & ~moved, steps / 2.0, steps)
    return (_directions(angles)[:, None] @ frames)[:, 0]


def _best_product(table: np.ndarray, alice: np.ndarray):
    """The best (Alice, Bob) directions, Bob's along r+, r-, r+ + r- or r+ - r-."""
    u = alice @ table[1:]
    sides = np.stack([table[0] + u, table[0] - u], axis=1) / 4.0
    c, r = sides[..., 0], sides[..., 1:]
    bob = np.stack([r[:, 0], r[:, 1], r[:, 0] + r[:, 1], r[:, 0] - r[:, 1]], axis=1)
    norm = np.linalg.norm(bob, axis=-1, keepdims=True)
    # A zero candidate scores sum_s |c_s|, which every direction reaches.
    bob = np.where(norm > 0.0, bob / np.maximum(norm, 1e-300), (0.0, 0.0, 1.0))
    dots = np.abs(np.einsum("isk,ijk->ijs", r, bob))
    score = np.maximum(np.abs(c)[:, None, :], dots).sum(axis=-1)
    i, j = np.unravel_index(np.argmax(score), score.shape)
    return alice[i], bob[i, j]


def _basis(direction: np.ndarray) -> np.ndarray:
    """Qubit basis whose first vector has this Bloch direction."""
    t = np.arccos(np.clip(direction[2], -1.0, 1.0))
    p = np.arctan2(direction[1], direction[0])
    v = np.array([np.cos(t / 2.0), np.exp(1j * p) * np.sin(t / 2.0)])
    return np.array([v, perp2(v)])


def optimize_local_projective(
    rho0: DensityMatrix2Q,
    rho1: DensityMatrix2Q,
    priors: PriorPair = EQUAL_PRIORS,
    config: OptimizerConfig | None = None,
) -> tuple[ProductMeasurement, float]:
    """Best fixed product projective measurement for a state pair.

    With T[mu, nu] = Tr[(sigma_mu (x) sigma_nu)(p0 rho0 - p1 rho1)], Alice's
    outcome s = +/-1 along Bloch direction m leaves Bob c_s I + r_s.sigma,
    c_s = (T00 + s m.T[1:,0]) / 4, r_s = (T[0,1:] + s m^T T[1:,1:]) / 4, and
    Bob's direction n succeeds with 1/2 + sum_s max(|c_s|, |r_s.n|).  The
    optimum is 1/2 plus the largest of |c+| + |c-| (best m along T[1:,0]),
    |r+ + r-| (any m), |r+ - r-| (m = +/-u, the top left singular vector of
    T[1:,1:]) and the mixed term |c+| + |r-| (|c-| + |r+| at -m), searched
    alone: on the config's grid, then zoomed from its best points and +/-u.
    Outcomes go to the larger weighted probability (label 0 wins ties) and
    the value is re-evaluated at the winning measurement, so reruns agree
    bit for bit.
    """
    _check_priors(priors)
    cfg = config or OptimizerConfig()
    d = (priors.p0 * rho0.mat - priors.p1 * rho1.mat).reshape(2, 2, 2, 2)
    table = np.einsum("mca,neb,abce->mn", _PAULIS, _PAULIS, d).real

    t = np.pi * (np.arange(cfg.polar_points) + 0.5) / cfg.polar_points
    p = 2.0 * np.pi * np.arange(cfg.azimuth_points) / cfg.azimuth_points
    grid = _directions(np.stack(np.meshgrid(t, p, indexing="ij"), axis=-1)).reshape(-1, 3)
    score = _mixed_term(table, grid)
    a = table[1:, 0] / np.linalg.norm(table[1:, 0]) if table[1:, 0].any() else (0, 0, 1)
    u = np.linalg.svd(table[1:, 1:])[0][:, 0]
    starts = grid[np.argsort(-score, kind="stable")[: max(cfg.refine_starts, 1)]]
    if cfg.refine_starts:
        # The mixed term's |m^T T[1:,1:]| part peaks at +/-u: zoom from there too.
        starts = _zoom(table, np.vstack([starts, u, -u]), np.pi / cfg.polar_points, cfg)
    alice, bob = _best_product(table, np.vstack([starts, a, u]))

    ua, ub = _basis(alice), _basis(bob)
    kets = kron(ua, ub)  # rows: the product kets, Alice's outcome major
    q0, q1 = (np.einsum("oj,jk,ok->o", kets.conj(), r.mat, kets).real for r in (rho0, rho1))
    assignment = np.where(priors.p0 * q0 >= priors.p1 * q1, 0, 1).reshape(2, 2)
    measurement = ProductMeasurement(alice_basis=ua, bob_basis=ub, assignment=assignment)
    return measurement, product_success_probability(measurement, rho0, rho1, priors)


def advantage(
    rho0: DensityMatrix2Q,
    rho1: DensityMatrix2Q,
    protocol: FeedForwardProtocol,
    priors: PriorPair = EQUAL_PRIORS,
    config: OptimizerConfig | None = None,
) -> float:
    """Feed-forward success minus the best no-feed-forward success."""
    with_ff = ff_success_probability(protocol, rho0, rho1, priors)
    _, without_ff = optimize_local_projective(rho0, rho1, priors, config)
    return with_ff - without_ff
