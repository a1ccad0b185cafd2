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

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    ConvergenceFailure,
    InvalidProtocolError,
    NotOrthogonalError,
    NotTracelessError,
)
from .linalg import ID2, KET_H, KET_V, PAULIS, PAULI_Z, dagger, kron, perp2, projector, read_only
from .states import DensityMatrix2Q, PureState2Q, u_perp_state, u_state

ORTHOGONALITY_ATOL = 1e-9
HOLLOW_RESIDUAL = 1e-12
BASIS_ATOL = 1e-12
_DEGENERATE_NORM = 1e-10


@dataclass(frozen=True)
class PriorPair:
    """Prior probabilities for the two hypotheses."""

    p0: float
    p1: float

    def __post_init__(self):
        p0, p1 = float(self.p0), float(self.p1)
        # Every comparison with NaN is false, so NaN fails this test too.
        if not (p0 >= 0.0 and p1 >= 0.0 and abs(p0 + p1 - 1.0) <= 1e-12):
            raise ValueError(f"priors must be nonnegative and sum to 1, got ({p0}, {p1})")
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "p1", p1)


EQUAL_PRIORS = PriorPair(0.5, 0.5)


@dataclass(frozen=True)
class FeedForwardProtocol:
    """A one-way LOCC protocol: Alice's basis steers Bob's basis.

    alice_basis[i] is Alice's i-th outcome vector; bob_bases[i][j] is Bob's
    j-th outcome vector used when Alice saw outcome i; guess_map[i, j] is
    the emitted label.  Outcome index 0 on either side is the transmitted
    PBS arm (T_a / T_b), and Alice's T_a outcome is the one that triggers
    the feed-forward switch.  Equal Bob bases make it a fixed product
    measurement, with no feed-forward.
    """

    alice_basis: np.ndarray
    bob_bases: np.ndarray
    guess_map: np.ndarray

    def __post_init__(self):
        alice = np.asarray(self.alice_basis, dtype=complex)
        if alice.shape != (2, 2):
            raise InvalidProtocolError(
                f"Alice basis must be two 2-vectors, got shape {alice.shape}"
            )
        bobs = np.asarray(self.bob_bases, dtype=complex)
        if bobs.shape != (2, 2, 2):
            raise InvalidProtocolError(f"expected 2 Bob bases, got shape {bobs.shape}")
        # One Gram check for all three bases: Alice's, then Bob's per Alice outcome.
        bases = np.concatenate([alice[None], bobs])
        error = np.abs(bases.conj() @ bases.transpose(0, 2, 1) - ID2).max(axis=(1, 2))
        bad = np.flatnonzero(~(error <= BASIS_ATOL))
        if bad.size:
            what = "Alice basis" if bad[0] == 0 else f"Bob basis for Alice outcome {bad[0] - 1}"
            raise InvalidProtocolError(f"{what} is not orthonormal within {BASIS_ATOL}")
        guess = np.asarray(self.guess_map)
        if guess.shape != (2, 2) or not ((guess == 0) | (guess == 1)).all():
            raise InvalidProtocolError("guess_map must be a 2x2 array of labels 0/1")
        object.__setattr__(self, "alice_basis", read_only(alice))
        object.__setattr__(self, "bob_bases", read_only(bobs))
        object.__setattr__(self, "guess_map", read_only(guess, int))

    def projector(self, i: int, j: int) -> np.ndarray:
        """Global projector for Alice outcome i and Bob outcome j."""
        return kron(projector(self.alice_basis[i]), projector(self.bob_bases[i][j]))


@dataclass(frozen=True)
class OptimizerConfig:
    """Search setting for Alice's direction in the no-feed-forward optimiser.

    The best refine_starts points of the fixed 24 x 12 sphere grid, and two
    closed-form starts, are polished by Newton steps on the sphere (0: no
    polish, the best grid point stays).  It is a library-only setting: the
    CLI always runs the default.
    """

    refine_starts: int = 8

    def __post_init__(self):
        n = self.refine_starts
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
            raise ValueError(f"refine_starts must be a nonnegative integer, got {n!r}")


def hollow_vector(m: np.ndarray) -> np.ndarray:
    """A unit vector w with <w|m|w> = 0 for a traceless 2x2 matrix m.

    Split m = A + iB into Hermitian parts with Bloch vectors a and b, so
    that <w|m|w> = a.n + i b.n for the Bloch vector n of w.  Then n = a x b /
    |a x b| makes both terms vanish (Walgate, Short, Hardy, Vedral, PRL 85,
    4972 (2000)).  When a and b are parallel, or one of them is zero, n is
    a direction perpendicular to the nonzero one; when m = 0, any unit
    vector is hollow and w = |H>.  The sign of n is chosen with n_z >= 0, so
    w's H component is real, positive and at least as large as its V
    component.  A trace small enough to pass the gate is treated as
    rounding: w is hollow for m - (tr m / 2) I.

    Raises NotTracelessError when |tr m| > 1e-10, and ConvergenceFailure
    when the residual exceeds 1e-12 of max(1, max |m_ij|) (a postcondition,
    not observed for valid input).
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    if abs(m.trace()) > 1e-10:
        raise NotTracelessError(f"|trace| = {abs(m.trace()):.3e} exceeds 1e-10")
    m = m - (m.trace() / 2.0) * ID2

    # m = z.sigma with a, b = Re z, Im z, swapped when Re z = 0 so that a is
    # zero only when m is.
    z = np.array([m[0, 1] + m[1, 0], 1j * (m[0, 1] - m[1, 0]), m[0, 0] - m[1, 1]]) / 2.0
    a, b = (z.real, z.imag) if z.real.any() else (z.imag, z.real)
    n = np.array([0.0, 0.0, 1.0])
    if a.any():
        u = a / np.linalg.norm(a)
        # a x b / |a|, with b's part along a taken out first: the direction then
        # stays exact to rounding however nearly parallel a and b are.
        n = np.cross(u, b - (b @ u) * u)
        if not n.any():  # b is 0 or parallel to a
            n = np.cross(u, np.eye(3)[np.argmin(np.abs(u))])
        n = np.copysign(1.0, n[2]) * n / np.linalg.norm(n)
    # The ket of n; with n_z >= 0 no component cancels.
    w = np.array([1.0 + n[2], n[0] + 1j * n[1]])
    w = w / np.linalg.norm(w)

    residual = abs(np.vdot(w, m @ w))
    if not residual <= HOLLOW_RESIDUAL * max(1.0, float(np.abs(m).max())):
        raise ConvergenceFailure(f"hollow-vector residual {residual:.3e} exceeds tolerance")
    return w


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


def _product_kets(alice: np.ndarray, bobs: np.ndarray) -> np.ndarray:
    """The four product kets alice[i] (x) bobs[i, j] as rows, Alice's outcome major."""
    return (alice[:, None, :, None] * bobs[:, :, None, :]).reshape(4, 4)


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
    """Average success probability of a one-way protocol, with feed-forward
    or without it (equal Bob bases, as optimize_local_projective returns).

    Sums p_label <k_ij|rho_label|k_ij> over the four product kets k_ij =
    alice_i (x) bob_ij, where the label is the protocol's guess for branch
    (i, j): one einsum over the stacked kets and the rho each label picks.
    The kets resolve the identity because the protocol's bases were checked
    orthonormal when it was built.
    """
    _check_priors(priors)
    kets = _product_kets(protocol.alice_basis, protocol.bob_bases)
    labels = protocol.guess_map.ravel()
    rhos = np.stack([rho0.mat, rho1.mat])[labels]
    weights = np.array([priors.p0, priors.p1])[labels]
    return float(weights @ np.einsum("oj,ojk,ok->o", kets.conj(), rhos, kets).real)


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


# A Newton system whose determinant is below this share of its scale squared
# counts as singular.
_SINGULAR = 1e-10
# The polish takes at most this many steps, and a start stops once its step
# is shorter than _STEP_TOL radians.
_MAX_STEPS = 30
_STEP_TOL = 1e-10


def _mixed_term(table: np.ndarray, alice: np.ndarray) -> np.ndarray:
    """4 (|c+| + |r-|) for Alice directions alice (see optimize_local_projective)."""
    u = alice @ table[1:]
    return np.abs(table[0, 0] + u[..., 0]) + np.linalg.norm(table[0, 1:] - u[..., 1:], axis=-1)


def _directions(angles: np.ndarray) -> np.ndarray:
    """Unit Bloch vectors for (..., 2) arrays of polar and azimuthal angles."""
    t, p = angles[..., 0], angles[..., 1]
    return np.stack([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)], axis=-1)


def _sphere_grid(polar: int, azimuth: int) -> np.ndarray:
    """polar x azimuth unit vectors, polar angles at the midpoints of equal steps."""
    t = np.pi * (np.arange(polar) + 0.5) / polar
    p = 2.0 * np.pi * np.arange(azimuth) / azimuth
    grid = _directions(np.stack(np.meshgrid(t, p, indexing="ij"), axis=-1))
    return read_only(grid.reshape(-1, 3))


# Alice directions scored before the polish.
_GRID = _sphere_grid(24, 12)


def _polish(table: np.ndarray, alice: np.ndarray) -> np.ndarray:
    """Safeguarded Newton ascent of the mixed term on the sphere, all starts at once.

    f(m) = |T00 + t.m| + |r| with r = s - M^T m has gradient
    g = sign(T00 + t.m) t - M r/|r| and Hessian H = M (I - r r^T/|r|^2) M^T / |r|.
    Each step solves the bordered system [[H - (g.m) I, m], [m^T, 0]] [v; l] =
    [(g.m) m - g; 0] for the tangent Newton step v, then keeps the best of
    staying, (m + v)/|m + v| and g/|g|.  f is convex, so g/|g| never scores
    below m and no step loses value.  A start stops when staying wins or its
    step is shorter than _STEP_TOL.  The loop ends once the leader, the start
    that scores highest at its current point, has stopped, and after
    _MAX_STEPS steps at most; losing starts keep their partly climbed points.
    """
    t, s, mt = table[1:, 0], table[0, 1:], table[1:, 1:]
    mmt, eye = mt @ mt.T, np.eye(4)
    rows = np.arange(len(alice))
    system = np.zeros((len(alice), 4, 4))
    block = system[:, :3, :3]
    rhs = np.zeros((len(alice), 4, 1))
    cand = np.empty((len(alice), 3, 3))  # stay, Newton, ascent
    scores = np.empty((len(alice), 3))
    # At |r| <= kink the norm's gradient r/|r| is taken as 0 and H as 0.
    kink = 1e-12 * np.abs(table).max()
    live = np.ones(len(alice), dtype=bool)
    for _ in range(_MAX_STEPS):
        u = alice @ table[1:]
        c, r = table[0, 0] + u[:, 0], s - u[:, 1:]
        norm_r = np.linalg.norm(r, axis=-1)
        scores[:, 0] = np.abs(c) + norm_r  # _mixed_term at alice
        smooth = norm_r > kink
        inv_r = smooth / np.where(smooth, norm_r, 1.0)
        q = (r * inv_r[:, None]) @ mt.T  # M r/|r|
        g = np.sign(c)[:, None] * t - q
        gm = (g * alice).sum(axis=1)
        np.multiply(mmt - q[:, :, None] * q[:, None, :], inv_r[:, None, None], out=block)
        block -= gm[:, None, None] * eye[:3, :3]
        system[:, :3, 3] = system[:, 3, :3] = alice
        rhs[:, :3, 0] = gm[:, None] * alice - g
        # A ridge of maxima, or no curvature at all, makes the system singular.
        scale = np.abs(block).max(axis=(1, 2))
        solvable = np.abs(np.linalg.det(system)) > _SINGULAR * scale * scale
        step = np.linalg.solve(np.where(solvable[:, None, None], system, eye), rhs)
        newton = alice + solvable[:, None] * step[:, :3, 0]
        norm_g = np.linalg.norm(g, axis=1, keepdims=True)
        cand[:, 0] = cand[:, 2] = alice
        cand[:, 1] = newton / np.linalg.norm(newton, axis=1, keepdims=True)
        np.divide(g, norm_g, out=cand[:, 2], where=norm_g > 0.0)
        scores[:, 1:] = _mixed_term(table, cand[:, 1:])
        k = scores.argmax(axis=1)  # staying wins ties
        moved = live & (k != 0)
        best = cand[rows, k]
        live = moved & (((best - alice) ** 2).sum(axis=1) >= _STEP_TOL**2)
        alice = np.where(moved[:, None], best, alice)
        # The leader scores highest at its new point; once it has stopped, so does the loop.
        if not live[np.where(moved, scores[rows, k], scores[:, 0]).argmax()]:
            break
    return alice


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
) -> tuple[FeedForwardProtocol, float]:
    """Best fixed product projective measurement for a state pair.

    With T[mu, nu] = Tr[(sigma_mu (x) sigma_nu)(p0 rho0 - p1 rho1)], Alice's
    outcome s = +/-1 along Bloch direction m leaves Bob c_s I + r_s.sigma,
    c_s = (T00 + s m.T[1:,0]) / 4, r_s = (T[0,1:] + s m^T T[1:,1:]) / 4, and
    Bob's direction n succeeds with 1/2 + sum_s max(|c_s|, |r_s.n|).  The
    optimum is 1/2 plus the largest of |c+| + |c-| (best m along T[1:,0]),
    |r+ + r-| (any m), |r+ - r-| (m = +/-u, the top left singular vector of
    T[1:,1:]) and the mixed term |c+| + |r-| (|c-| + |r+| at -m), searched
    alone: on a fixed 24 x 12 grid of directions, then by at most 30
    safeguarded Newton steps on the sphere from the config's refine_starts
    best grid points and +/-u, each step taking the Newton point only when
    it beats both staying and the ascent point g/|g|; the polish ends as soon
    as the best-scoring start has stopped (see _polish).
    Outcomes go to the larger weighted probability (label 0 wins ties) and
    the value is re-evaluated at the winning measurement, so reruns agree
    bit for bit.  The measurement is returned as a FeedForwardProtocol whose
    two Bob bases are equal, scored by ff_success_probability.
    """
    _check_priors(priors)
    cfg = config or OptimizerConfig()
    d = (priors.p0 * rho0.mat - priors.p1 * rho1.mat).reshape(2, 2, 2, 2)
    table = np.einsum("mca,neb,abce->mn", PAULIS, PAULIS, d).real

    score = _mixed_term(table, _GRID)
    a = table[1:, 0] / np.linalg.norm(table[1:, 0]) if table[1:, 0].any() else (0, 0, 1)
    u = np.linalg.svd(table[1:, 1:])[0][:, 0]
    starts = _GRID[np.argsort(-score, kind="stable")[: max(cfg.refine_starts, 1)]]
    if cfg.refine_starts:
        # The mixed term's |m^T T[1:,1:]| part peaks at +/-u: polish from there too.
        starts = _polish(table, np.vstack([starts, u, -u]))
    alice, bob = _best_product(table, np.vstack([starts, a, u]))

    ua, ub = _basis(alice), _basis(bob)
    bobs = np.stack([ub, ub])
    kets = _product_kets(ua, bobs)
    q0, q1 = (np.einsum("oj,jk,ok->o", kets.conj(), r.mat, kets).real for r in (rho0, rho1))
    assignment = np.where(priors.p0 * q0 >= priors.p1 * q1, 0, 1).reshape(2, 2)
    protocol = FeedForwardProtocol(alice_basis=ua, bob_bases=bobs, guess_map=assignment)
    return protocol, ff_success_probability(protocol, rho0, rho1, priors)


def advantage(
    rho0: DensityMatrix2Q,
    rho1: DensityMatrix2Q,
    protocol: FeedForwardProtocol,
    priors: PriorPair = EQUAL_PRIORS,
) -> float:
    """Feed-forward success minus the best no-feed-forward success
    (optimize_local_projective at its default setting)."""
    with_ff = ff_success_probability(protocol, rho0, rho1, priors)
    _, without_ff = optimize_local_projective(rho0, rho1, priors)
    return with_ff - without_ff
