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
from .linalg import ID2, KET_H, KET_V, PAULIS, PAULI_Z, complex_norm, perp2, read_only
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
# The T_b guess map: Bob's outcome 0 (T_b) guesses label 0, outcome 1 label 1.
T_B_GUESS = read_only([[0, 1], [0, 1]])


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
        _check_protocol(alice, bobs)
        guess = np.asarray(self.guess_map)
        if guess.shape != (2, 2) or not ((guess == 0) | (guess == 1)).all():
            raise InvalidProtocolError("guess_map must be a 2x2 array of labels 0/1")
        object.__setattr__(self, "alice_basis", read_only(alice))
        object.__setattr__(self, "bob_bases", read_only(bobs))
        object.__setattr__(self, "guess_map", read_only(guess, int))


def _check_protocol(alice: np.ndarray, bobs: np.ndarray) -> None:
    """FeedForwardProtocol's Gram check of one protocol's bases, or of (..., 2, 2) and
    (..., 2, 2, 2) stacks of them, whose first failing basis raises.  Alice's basis
    and Bob's per Alice outcome orthonormal is the one proof that the four product
    projectors resolve the identity, to within about 4 BASIS_ATOL."""
    bases = np.concatenate([alice[..., None, :, :], bobs], axis=-3)
    error = np.abs(bases.conj() @ bases.swapaxes(-1, -2) - ID2).max(axis=(-2, -1))
    bad = ~(error <= BASIS_ATOL)
    if bad.any():
        j = bad.argmax() % 3
        what = "Alice basis" if j == 0 else f"Bob basis for Alice outcome {j - 1}"
        raise InvalidProtocolError(f"{what} is not orthonormal within {BASIS_ATOL}")


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


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """np.cross of two (..., 3) stacks, bit for bit, without its argument
    handling: component k is u[k+1] v[k+2] - u[k+2] v[k+1], indices mod 3."""
    uu, vv = np.concatenate((u, u), axis=-1), np.concatenate((v, v), axis=-1)
    return uu[..., 1:4] * vv[..., 2:5] - uu[..., 2:5] * vv[..., 1:4]


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
    not observed for valid input).  This is _hollow_vectors on a stack of one.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    return _hollow_vectors(m[None])[0]


def _hollow_vectors(m: np.ndarray) -> np.ndarray:
    """hollow_vector of every matrix of a (B, 2, 2) stack, as a (B, 2) stack.

    Every guard holds matrix by matrix; the first matrix that fails one
    raises.  The rare branches (m = 0, a parallel to b) touch only their rows.
    """
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    trace = m[:, 0, 0] + m[:, 1, 1]
    traceful = np.abs(trace) > 1e-10
    if traceful.any():
        raise NotTracelessError(f"|trace| = {abs(trace[traceful.argmax()]):.3e} exceeds 1e-10")
    m = m - (trace / 2.0)[:, None, None] * ID2
    # The closed form runs on m / 2^e, its largest entry in [1/2, 1) (an exact
    # scaling; e = 0 for m = 0), so that no square under- or overflows.
    peak = np.abs(m).max(axis=(1, 2))
    unit = np.ldexp(m.view(np.float64), -np.frexp(peak)[1][:, None, None]).view(complex)

    # m = z.sigma with a, b = Re z, Im z, swapped when Re z = 0 so that a is
    # zero only when m is.
    z = np.empty((len(m), 3), dtype=complex)
    z[:, 0] = unit[:, 0, 1] + unit[:, 1, 0]
    z[:, 1] = 1j * (unit[:, 0, 1] - unit[:, 1, 0])
    z[:, 2] = unit[:, 0, 0] - unit[:, 1, 1]
    z /= 2.0
    a, b = z.real, z.imag
    zero = None
    swap = ~a.any(axis=1)
    if swap.any():
        a, b = np.where(swap[:, None], b, a), np.where(swap[:, None], a, b)
        zero = ~a.any(axis=1)  # m = 0
    norm_a = np.sqrt(np.vecdot(a, a))[:, None]
    if zero is not None:
        norm_a[zero] = 1.0
    u = a / norm_a
    # a x b / |a|, with b's part along a taken out first: the direction then
    # stays exact to rounding however nearly parallel a and b are.
    n = _cross(u, b - np.vecdot(b, u)[:, None] * u)
    flat = ~n.any(axis=1)  # b is 0 or parallel to a, or m = 0
    if flat.any():
        n[flat] = _cross(u[flat], np.eye(3)[np.argmin(np.abs(u[flat]), axis=1)])
        if zero is not None:
            n[zero] = (0.0, 0.0, 1.0)
    # n_z >= 0; dividing by -|n| flips the sign exactly.
    n /= np.copysign(np.sqrt(np.vecdot(n, n)), n[:, 2])[:, None]
    # The ket of n; with n_z >= 0 no component cancels.
    w = np.zeros((len(m), 2), dtype=complex)
    w.real[:, 0] = 1.0 + n[:, 2]
    w.real[:, 1], w.imag[:, 1] = n[:, 0], n[:, 1]
    w /= complex_norm(w)[:, None]

    residual = np.abs((w.conj()[:, None, :] @ m @ w[:, :, None])[:, 0, 0])
    limit = HOLLOW_RESIDUAL * np.maximum(1.0, peak)
    failed = ~(residual <= limit)
    if failed.any():
        k = failed.argmax()
        raise ConvergenceFailure(f"hollow-vector residual {residual[k]:.3e} exceeds tolerance")
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
    computational basis is used.  This is walgate_pairs on one pair.
    """
    alice, bobs = walgate_pairs(np.array([(phi.vec, psi.vec)]))
    return FeedForwardProtocol(alice_basis=alice[0], bob_bases=bobs[0], guess_map=T_B_GUESS)


def walgate_pairs(vecs: np.ndarray):
    """The bases of walgate_decompose for every pair of a (B, 2, 4) amplitude
    stack of unit vectors: Alice's (B, 2, 2) and Bob's (B, 2, 2, 2).

    The orthogonality gate, the hollow vectors, Bob's conditional states and
    the choice of his bases each run once on the leading pair axis; every
    guard still holds pair by pair, and the first pair that fails one raises.
    No step mixes pairs, so a pair's bases are the ones it gets alone.  The
    guess map is T_B_GUESS; the bases' Gram check is left to their reader.
    """
    vecs = vecs.reshape(-1, 2, 2, 2)
    f, g = vecs[:, 0], vecs[:, 1]
    overlap = np.abs((f.conj() * g).sum(axis=(1, 2)))
    close = overlap >= ORTHOGONALITY_ATOL
    if close.any():
        raise NotOrthogonalError(f"|<phi|psi>| = {overlap[close.argmax()]:.3e} exceeds 1e-9")
    m = f @ g.conj().transpose(0, 2, 1)
    # tr m = <psi|phi>; remove the rounding-level trace so the hollow-vector
    # precondition holds for any pair passing the orthogonality gate.
    m = m - ((m[:, 0, 0] + m[:, 1, 1]) / 2.0)[:, None, None] * ID2

    w = _hollow_vectors(m)
    alice = np.empty((len(w), 2, 2), dtype=complex)
    alice[:, 0], alice[:, 1] = w, perp2(w)
    # cond[b, s, i] is Bob's conditional state, unnormalised, of phi (s = 0)
    # or psi (s = 1) after Alice's outcome i.
    cond = alice.conj()[:, None, :, None, :] @ vecs[:, :, None]
    norm = complex_norm(cond)
    cond = cond[..., 0, :]
    n_phi, n_psi = norm[:, 0], norm[:, 1]
    dead = (n_phi < _DEGENERATE_NORM) & (n_psi < _DEGENERATE_NORM)
    # Bob's basis follows the larger conditional, phi's on a tie.
    on_phi = n_phi >= n_psi
    scale = np.maximum(n_phi, n_psi)
    scale[dead] = 1.0
    anchor = np.where(on_phi, cond[:, 0], cond[:, 1]) / scale
    other = perp2(anchor)
    bob = np.empty((len(w), 2, 2, 2), dtype=complex)
    bob[:, :, 0] = np.where(on_phi, anchor, other)
    bob[:, :, 1] = np.where(on_phi, other, anchor)
    bob[dead[..., 0]] = ID2  # a branch that never fires: H/V
    return alice, bob


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
    return FeedForwardProtocol(alice_basis=alice, bob_bases=bob, guess_map=T_B_GUESS)


def _product_kets(alice: np.ndarray, bobs: np.ndarray) -> np.ndarray:
    """The four product kets alice[i] (x) bobs[i, j] as rows, Alice's outcome
    major; (..., 2, 2) and (..., 2, 2, 2) stacks give a (..., 4, 4) stack."""
    kets = alice[..., :, None, :, None] * bobs[..., :, :, None, :]
    return kets.reshape(kets.shape[:-4] + (4, 4))


def _ket_probabilities(kets: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """<k_bo|mats_br|k_bo> of (B, 4, 4) stacked product kets and (B, R, 4, 4)
    matrices, as a (B, R, 4) stack: every protocol's outcome probabilities are
    formed here, so a stack gives exactly the numbers of its items alone."""
    return ((kets.conj()[:, None] @ mats) * kets[:, None]).sum(axis=-1).real


def _success(q: np.ndarray, guess: np.ndarray, priors: PriorPair) -> np.ndarray:
    """Guess-weighted successes sum_o p_g q[b, g, o], g = guess[b, o], as a (B,)
    stack, for (B, 2, 4) outcome probabilities under (rho0, rho1) and (B, 2, 2)
    guess maps, or one (2, 2) map for all of them."""
    labels = guess.reshape(-1, 4)
    return np.where(labels == 0, priors.p0 * q[:, 0], priors.p1 * q[:, 1]).sum(axis=-1)


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
    (i, j): _ket_probabilities and _success on a stack of one.  The kets
    resolve the identity because the protocol's bases were checked
    orthonormal when it was built.
    """
    _check_priors(priors)
    kets = _product_kets(protocol.alice_basis, protocol.bob_bases)
    q = _ket_probabilities(kets[None], np.stack([rho0.mat, rho1.mat])[None])
    return float(_success(q, protocol.guess_map, priors)[0])


def helstrom_bound(
    rho0: DensityMatrix2Q,
    rho1: DensityMatrix2Q,
    priors: PriorPair = EQUAL_PRIORS,
) -> float:
    """Minimum-error bound (1 + || p0 rho0 - p1 rho1 ||_1) / 2.

    For equiprobable pure states this reduces to
    (1 + sqrt(1 - |<psi0|psi1>|^2)) / 2.  This is helstrom_bounds on one pair.
    """
    _check_priors(priors)
    return float(helstrom_bounds(rho0.mat, rho1.mat, priors))


def helstrom_bounds(mats0: np.ndarray, mats1: np.ndarray, priors: PriorPair):
    """helstrom_bound of each pair of (..., 4, 4) density matrices, in one eigh call."""
    return 0.5 * (1.0 + linalg.trace_norm(priors.p0 * mats0 - priors.p1 * mats1))


# A Newton system whose determinant is below this share of its scale squared
# counts as singular.
_SINGULAR = 1e-10
# The polish takes at most this many steps, and a start stops once its step
# is shorter than _STEP_TOL radians.
_MAX_STEPS = 30
_STEP_TOL = 1e-10


def _norms(x: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """np.linalg.norm(x, axis=-1) of a real array, bit for bit, without its
    argument handling (the polish takes five such norms a step)."""
    return np.sqrt((x * x).sum(axis=-1, keepdims=keepdims))


def _mixed_term(table: np.ndarray, alice: np.ndarray) -> np.ndarray:
    """4 (|c+| + |r-|) for Alice directions alice (see optimize_local_projective).

    table is a (..., 4, 4) stack and alice a (..., n, 3) stack of directions
    for each table, or one (n, 3) set for all of them.
    """
    u = alice @ table[..., 1:, :]
    return np.abs(table[..., None, 0, 0] + u[..., 0]) + _norms(table[..., None, 0, 1:] - u[..., 1:])


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
# optimize_pairs searches at most this many pairs at once, so that its stacked
# arrays stay a few MB however many pairs it is given.
_BLOCK = 64


def _polish(table: np.ndarray, alice: np.ndarray) -> np.ndarray:
    """Safeguarded Newton ascent of the mixed term on the sphere, all starts at once.

    table is a (B, 4, 4) stack and alice the (B, S, 3) starts of each pair.
    f(m) = |T00 + t.m| + |r| with r = s - M^T m has gradient
    g = sign(T00 + t.m) t - M r/|r| and Hessian H = M (I - r r^T/|r|^2) M^T / |r|.
    Each step solves the bordered system [[H - (g.m) I, m], [m^T, 0]] [v; l] =
    [(g.m) m - g; 0] for the tangent Newton step v, then keeps the best of
    staying, (m + v)/|m + v| and g/|g|.  f is convex, so g/|g| never scores
    below m and no step loses value.  A start stops when staying wins or its
    step is shorter than _STEP_TOL.  A pair's polish ends once its leader, the
    start that scores highest at its current point, has stopped, and after
    _MAX_STEPS steps at most; losing starts keep their partly climbed points.
    A pair that has ended drops out of the stack, so no pair's result depends
    on the others.
    """
    out = np.empty_like(alice)
    pending = np.arange(len(table))  # the pairs still stepping, in stack order
    rows, start = pending[:, None], np.arange(alice.shape[1])
    t, s, mt = table[:, 1:, 0], table[:, 0, 1:], table[:, 1:, 1:]
    mmt, eye = mt @ mt.transpose(0, 2, 1), np.eye(4)
    # At |r| <= kink the norm's gradient r/|r| is taken as 0 and H as 0.
    kink = 1e-12 * np.abs(table).max(axis=(1, 2))
    live = np.ones(alice.shape[:2], dtype=bool)
    # Buffers for the whole stack; the pending pairs use their leading rows.
    system = np.zeros(alice.shape[:2] + (4, 4))
    block = system[..., :3, :3]
    rhs = np.zeros(alice.shape[:2] + (4, 1))
    cand = np.empty(alice.shape[:2] + (3, 3))  # stay, Newton, ascent
    scores = np.empty(alice.shape[:2] + (3,))
    for _ in range(_MAX_STEPS):
        u = alice @ table[:, 1:]
        c, r = table[:, None, 0, 0] + u[..., 0], s[:, None] - u[..., 1:]
        norm_r = _norms(r)
        scores[..., 0] = np.abs(c) + norm_r  # _mixed_term at alice
        smooth = norm_r > kink[:, None]
        inv_r = smooth / np.where(smooth, norm_r, 1.0)
        q = (r * inv_r[..., None]) @ mt.transpose(0, 2, 1)  # M r/|r|
        g = np.sign(c)[..., None] * t[:, None] - q
        gm = (g * alice).sum(axis=-1)
        np.multiply(
            mmt[:, None] - q[..., :, None] * q[..., None, :], inv_r[..., None, None], out=block
        )
        block -= gm[..., None, None] * eye[:3, :3]
        system[..., :3, 3] = system[..., 3, :3] = alice
        rhs[..., :3, 0] = gm[..., None] * alice - g
        # A ridge of maxima, or no curvature at all, makes the system singular.
        scale = np.abs(block).max(axis=(-2, -1))
        solvable = np.abs(np.linalg.det(system)) > _SINGULAR * scale * scale
        step = np.linalg.solve(np.where(solvable[..., None, None], system, eye), rhs)
        newton = alice + solvable[..., None] * step[..., :3, 0]
        norm_g = _norms(g, keepdims=True)
        cand[..., 0, :] = cand[..., 2, :] = alice
        cand[..., 1, :] = newton / _norms(newton, keepdims=True)
        np.divide(g, norm_g, out=cand[..., 2, :], where=norm_g > 0.0)
        scores[..., 1:] = _mixed_term(table[:, None], cand[..., 1:, :])
        k = scores.argmax(axis=-1)  # staying wins ties
        moved = live & (k != 0)
        best = cand[rows, start, k]
        live = moved & (((best - alice) ** 2).sum(axis=-1) >= _STEP_TOL**2)
        alice = np.where(moved[..., None], best, alice)
        # Each pair's leader scores highest at its new point; once it has
        # stopped, so has its pair.
        now = np.where(moved, scores.max(axis=-1), scores[..., 0])
        going = live[rows[:, 0], now.argmax(axis=-1)]
        if not going.any():
            out[pending] = alice
            return out
        if not going.all():
            out[pending[~going]] = alice[~going]
            pending, table, alice = pending[going], table[going], alice[going]
            mmt, kink, live = mmt[going], kink[going], live[going]
            n = len(pending)
            rows, system, rhs, cand, scores = rows[:n], system[:n], rhs[:n], cand[:n], scores[:n]
            block = system[..., :3, :3]
            t, s, mt = table[:, 1:, 0], table[:, 0, 1:], table[:, 1:, 1:]
    out[pending] = alice
    return out


def _best_product(table: np.ndarray, alice: np.ndarray):
    """Each pair's best (Alice, Bob) directions, Bob's along r+, r-, r+ + r- or
    r+ - r-, for (B, 4, 4) tables and (B, n, 3) Alice candidates."""
    u = alice @ table[:, 1:]
    sides = np.stack([table[:, None, 0] + u, table[:, None, 0] - u], axis=2) / 4.0
    c, r = sides[..., 0], sides[..., 1:]
    r0, r1 = r[:, :, 0], r[:, :, 1]
    bob = np.stack([r0, r1, r0 + r1, r0 - r1], axis=2)
    norm = _norms(bob, keepdims=True)
    # A zero candidate scores sum_s |c_s|, which every direction reaches.
    bob = np.where(norm > 0.0, bob / np.maximum(norm, 1e-300), (0.0, 0.0, 1.0))
    dots = np.abs(np.einsum("bisk,bijk->bijs", r, bob))
    score = np.maximum(np.abs(c)[:, :, None, :], dots).sum(axis=-1)
    i, j = np.divmod(score.reshape(len(table), -1).argmax(axis=1), score.shape[2])
    rows = np.arange(len(table))
    return alice[rows, i], bob[rows, i, j]


def _basis(direction: np.ndarray) -> np.ndarray:
    """Qubit bases (..., 2, 2) whose first vectors have these (..., 3) Bloch directions."""
    t = np.arccos(np.clip(direction[..., 2], -1.0, 1.0))
    p = np.arctan2(direction[..., 1], direction[..., 0])
    basis = np.empty(direction.shape[:-1] + (2, 2), dtype=complex)
    basis[..., 0, 0] = np.cos(t / 2.0)
    basis[..., 0, 1] = np.exp(1j * p) * np.sin(t / 2.0)
    basis[..., 1, :] = perp2(basis[..., 0, :])
    return basis


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
    the value is the success at the winning measurement, so reruns agree bit
    for bit.  The measurement is returned as a FeedForwardProtocol whose two
    Bob bases are equal, and the value is exactly its ff_success_probability.
    This is optimize_pairs on a stack of one pair.
    """
    alice, bobs, guess, values = optimize_pairs(np.array([(rho0.mat, rho1.mat)]), priors, config)
    protocol = FeedForwardProtocol(alice_basis=alice[0], bob_bases=bobs[0], guess_map=guess[0])
    return protocol, float(values[0])


def optimize_pairs(
    mats: np.ndarray,
    priors: PriorPair = EQUAL_PRIORS,
    config: OptimizerConfig | None = None,
):
    """optimize_local_projective for every (rho0, rho1) pair of a (B, 2, 4, 4)
    density stack, searched together: the (B, 2, 2) Alice bases, (B, 2, 2, 2)
    Bob bases (equal per pair), (B, 2, 2) guess maps and (B,) values.

    The pairs go through the search in stacks of up to 64: one einsum gives
    their correlation tables, and the grid stage, the polish, the choice of
    Bob's direction, the guesses, the values and the bases' Gram check each
    run once on a leading pair axis.  Every pair keeps its own stopping rule,
    so a pair's result is the one it gets alone.
    """
    _check_priors(priors)
    cfg = config or OptimizerConfig()
    n = len(mats)
    alice, bobs = np.empty((n, 2, 2), dtype=complex), np.empty((n, 2, 2, 2), dtype=complex)
    guess, values = np.empty((n, 2, 2), dtype=int), np.empty(n)
    for lo in range(0, n, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        alice[block], bobs[block], guess[block], values[block] = _optimize_block(
            mats[block], priors, cfg
        )
    return alice, bobs, guess, values


def _optimize_block(rhos: np.ndarray, priors: PriorPair, cfg: OptimizerConfig):
    """optimize_pairs on one stack of at most _BLOCK pairs."""
    d = (priors.p0 * rhos[:, 0] - priors.p1 * rhos[:, 1]).reshape(-1, 2, 2, 2, 2)
    table = np.einsum("mca,neb,zabce->zmn", PAULIS, PAULIS, d).real

    score = _mixed_term(table, _GRID)
    t = table[:, 1:, 0]
    # |t| as np.linalg.norm takes it for one vector.
    norm_t = np.sqrt(np.vecdot(t, t))[:, None]
    a = np.where(norm_t > 0.0, t, (0.0, 0.0, 1.0)) / np.where(norm_t > 0.0, norm_t, 1.0)
    u = np.linalg.svd(table[:, 1:, 1:])[0][..., 0]
    order = np.argsort(-score, axis=-1, kind="stable")
    starts = _GRID[order[:, : max(cfg.refine_starts, 1)]]
    if cfg.refine_starts:
        # The mixed term's |m^T T[1:,1:]| part peaks at +/-u: polish from there too.
        starts = _polish(table, np.concatenate([starts, u[:, None], -u[:, None]], axis=1))
    alice, bob = _best_product(table, np.concatenate([starts, a[:, None], u[:, None]], axis=1))

    bases = _basis(np.stack([alice, bob], axis=1))
    ua, bobs = bases[:, 0], bases[:, [1, 1]]
    _check_protocol(ua, bobs)
    q = _ket_probabilities(_product_kets(ua, bobs), rhos)
    assignment = np.where(priors.p0 * q[:, 0] >= priors.p1 * q[:, 1], 0, 1).reshape(-1, 2, 2)
    return ua, bobs, assignment, _success(q, assignment, priors)


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
