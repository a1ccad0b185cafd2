"""The benchmark's three workloads: seeded inputs, the timed call, the check.

A workload runs in rounds.  Every round has the same make-up (the same
kinds of operation in the same numbers), its parameters drawn from the
benchmark seed and the round index, so the share of each kind, and of
operations that fail on a known fault, is the same in every run.

Each operation is three steps: ``make_round`` builds inputs (untimed),
``run`` calls the program (timed) and ``check`` compares the output with the
oracles in ``oracles.py`` (untimed).  The program is called through module
attributes, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

import oracles as orc

import qdiscrim
import qdiscrim.cli
from qdiscrim import discrimination, measurement, states, tomography


@dataclass
class Op:
    """One operation: its inputs, its outcome and its item count."""

    kind: str
    params: dict
    items: int = 1
    # True for the non-uniform-exposure tomography records, which fail on
    # a known fault in mle_reconstruct (exposures ignored).
    known_fault: bool = False
    output: object = None
    error: str | None = None
    extra: dict = field(default_factory=dict)


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _n_events(rng) -> int:
    return int(rng.choice([10_000, 100_000, 1_000_000]))


# --- scan: the discrim CLI ------------------------------------------------------

SCAN_GRID_STEP = 45.0  # 3 x 3 grid rows
SCAN_CURVE_ROWS = 3
# Four pairs per round put the median command latency in the middle of the
# pair commands rather than on the edge between two kinds of command.
SCAN_PAIRS = 4
# Random angles of pair and optimize commands.  Within about 3 degrees of
# two product states (both angles near 0 or 90, off the grid points) the
# optimiser misses the best measurement by up to 9e-4, so such pairs would
# fail the no-feed-forward check on some seeds only; they are left out.
SCAN_THETA_RANGE = (10.0, 80.0)


class Scan:
    """A fixed mix of ``discrim`` commands run in-process through cli.main.

    Per round: one ``grid`` (9 rows), one ``curve`` (3 rows), four ``pair``
    and two ``optimize`` (one orthogonal pair, one psi pair).  ``workers``
    and the optimiser settings stay at their defaults.
    """

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.schema = None

    def make_round(self, rng) -> list[Op]:
        def common():
            return {
                "noise_v": float(rng.uniform(0.85, 1.0)),
                "n_events": _n_events(rng),
                "master_seed": _seed(rng),
            }

        eta_min = float(rng.uniform(0.0, 25.0))
        configs = [
            ("grid", {"grid_step_deg": SCAN_GRID_STEP, **common()}, 9),
            ("curve", {"eta_min_deg": eta_min, "eta_max_deg": eta_min + 10.0,
                       "eta_step_deg": 5.0, **common()}, SCAN_CURVE_ROWS),
        ]
        def theta():
            return float(rng.uniform(*SCAN_THETA_RANGE))

        for _ in range(SCAN_PAIRS):
            configs.append(("pair", {"theta0_deg": theta(), "theta1_deg": theta(), **common()}, 1))
        configs.append(("optimize", {"theta0_deg": theta(), "theta1_deg": theta(),
                                     "noise_v": float(rng.uniform(0.85, 1.0))}, 1))
        configs.append(("optimize", {"eta_deg": float(rng.uniform(1.0, 44.0)),
                                     "noise_v": float(rng.uniform(0.85, 1.0))}, 1))
        ops = []
        for k, (command, cfg, items) in enumerate(configs):
            cfg_path = os.path.join(self.workdir, f"cfg-{k}.json")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
            params = {"command": command, "config": cfg, "cfg_path": cfg_path,
                      "out_path": os.path.join(self.workdir, f"report-{k}.json")}
            ops.append(Op(kind=command, params=params, items=items))
        return ops

    def run(self, op: Op) -> None:
        p = op.params
        op.output = qdiscrim.cli.main([p["command"], "--config", p["cfg_path"], "--out", p["out_path"]])

    def check(self, op: Op) -> str | None:
        if op.output != 0:
            return f"discrim {op.kind} exited with {op.output}"
        with open(op.params["out_path"], "rb") as fh:
            raw = fh.read()
        op.extra["report_bytes"] = len(raw)
        report = json.loads(raw)
        problem = self._validate(report)
        if problem:
            return problem
        cfg, results = op.params["config"], report["results"]
        if op.kind == "grid":
            if len(results["rows"]) != 9:
                return f"grid has {len(results['rows'])} rows, expected 9"
            return _first(_check_pair_row(row, cfg) for row in results["rows"])
        if op.kind == "pair":
            return _check_pair_row(results["pair"], cfg)
        if op.kind == "curve":
            if len(results["rows"]) != SCAN_CURVE_ROWS:
                return f"curve has {len(results['rows'])} rows, expected {SCAN_CURVE_ROWS}"
            return _first(_check_curve_row(row, cfg) for row in results["rows"])
        return _check_optimize(results["optimize"], cfg)

    def _validate(self, report: dict) -> str | None:
        import jsonschema

        if self.schema is None:
            path = os.path.join(os.path.dirname(qdiscrim.__file__), "schemas", "report.schema.json")
            with open(path, encoding="utf-8") as fh:
                self.schema = jsonschema.Draft202012Validator(json.load(fh))
        errors = list(self.schema.iter_errors(report))
        return f"report fails its schema: {errors[0].message}" if errors else None


def _first(problems) -> str | None:
    return next((p for p in problems if p), None)


def _close(name: str, got: float, want: float) -> str | None:
    if abs(got - want) > orc.EXACT_ATOL:
        return f"{name} = {got!r}, closed form gives {want!r}"
    return None


def _check_no_ff(name: str, got: float, bound: float, rho0, rho1) -> str | None:
    if got > bound + orc.EXACT_ATOL:
        return f"{name} = {got!r} exceeds the Helstrom bound {bound!r}"
    floor = orc.no_ff_lower_bound(rho0, rho1)
    if got < floor - orc.NO_FF_SLACK:
        return f"{name} = {got!r} is below an independently found measurement's {floor!r}"
    return None


def _check_sampled(estimate: dict, exact: float, n_events: int) -> str | None:
    if not orc.sampled_within(estimate["p_avg"], exact, n_events):
        return (f"sampled p_avg {estimate['p_avg']!r} is further than "
                f"{orc.sampling_allowance(exact, n_events):.3e} from {exact!r}")
    return None


def _check_pair_row(row: dict, cfg: dict) -> str | None:
    v = cfg["noise_v"]
    exact = orc.orthogonal_pair_success(v)
    rho0 = orc.werner(orc.phi0_vec(row["theta0_deg"]), v)
    rho1 = orc.werner(orc.phi1_vec(row["theta1_deg"]), v)
    return _first([
        _close("helstrom", row["helstrom"], exact),
        _close("ff_exact", row["ff_exact"], exact),
        _close("advantage", row["advantage"], row["ff_exact"] - row["no_ff_best"]),
        _check_no_ff("no_ff_best", row["no_ff_best"], exact, rho0, rho1),
        _check_sampled(row["estimate"], exact, cfg["n_events"]),
    ])


def _check_curve_row(row: dict, cfg: dict) -> str | None:
    v, eta = cfg["noise_v"], row["eta_deg"]
    ideal, noisy = orc.psi_pair_success(eta, 1.0), orc.psi_pair_success(eta, v)
    vec0, vec1 = orc.psi_vecs(eta)
    return _first([
        _close("helstrom_ideal", row["helstrom_ideal"], ideal),
        _close("helstrom_noisy", row["helstrom_noisy"], noisy),
        _close("ff_ideal", row["ff_ideal"], ideal),
        _close("ff_noisy", row["ff_noisy"], noisy),
        _check_no_ff("no_ff_ideal", row["no_ff_ideal"], ideal,
                     orc.werner(vec0, 1.0), orc.werner(vec1, 1.0)),
        _check_no_ff("no_ff_noisy", row["no_ff_noisy"], noisy,
                     orc.werner(vec0, v), orc.werner(vec1, v)),
        _check_sampled(row["estimate"], noisy, cfg["n_events"]),
    ])


def _check_optimize(result: dict, cfg: dict) -> str | None:
    v = cfg["noise_v"]
    if "eta_deg" in cfg:
        vec0, vec1 = orc.psi_vecs(cfg["eta_deg"])
        bound = orc.psi_pair_success(cfg["eta_deg"], v)
    else:
        vec0, vec1 = orc.phi0_vec(cfg["theta0_deg"]), orc.phi1_vec(cfg["theta1_deg"])
        bound = orc.orthogonal_pair_success(v)
    rho0, rho1 = orc.werner(vec0, v), orc.werner(vec1, v)

    def basis(pairs):
        arr = np.asarray(pairs, dtype=float)
        return arr[..., 0] + 1j * arr[..., 1]

    reached = orc.product_success(basis(result["alice_basis"]), basis(result["bob_basis"]),
                                  result["assignment"], rho0, rho1)
    return _first([
        _close("helstrom", result["helstrom"], bound),
        _close("value of the reported measurement", reached, result["value"]),
        _check_no_ff("value", result["value"], bound, rho0, rho1),
    ])


# --- protocols: feed-forward path without the optimiser -------------------------

PROTOCOL_RANDOM = 80
PROTOCOL_FAMILY = 20


def _random_orthogonal_pair(rng) -> tuple[np.ndarray, np.ndarray]:
    a = rng.normal(size=4) + 1j * rng.normal(size=4)
    a /= np.linalg.norm(a)
    b = rng.normal(size=4) + 1j * rng.normal(size=4)
    b -= np.vdot(a, b) * a
    return a, b / np.linalg.norm(b)


def _product_family_pair(rng) -> tuple[np.ndarray, np.ndarray]:
    """phi0/phi1 pair with one product member (angle 0 or 90 degrees)."""
    edge, free = float(rng.choice([0.0, 90.0])), float(rng.uniform(0.0, 90.0))
    if rng.integers(2):
        return orc.phi0_vec(edge), orc.phi1_vec(free)
    return orc.phi0_vec(free), orc.phi1_vec(edge)


class Protocols:
    """Per round 80 random complex orthogonal pairs and 20 family pairs with a
    product member, each through Werner noise, the Walgate construction, the
    POVM, exact and Helstrom success, and sampled counts."""

    def make_round(self, rng) -> list[Op]:
        ops = []
        for k in range(PROTOCOL_RANDOM + PROTOCOL_FAMILY):
            family = k >= PROTOCOL_RANDOM
            vec0, vec1 = _product_family_pair(rng) if family else _random_orthogonal_pair(rng)
            params = {"vec0": vec0, "vec1": vec1, "v": float(rng.uniform(0.8, 1.0)),
                      "n_events": _n_events(rng), "seeds": (_seed(rng), _seed(rng))}
            ops.append(Op(kind="family" if family else "random", params=params))
        return ops

    def run(self, op: Op) -> None:
        p = op.params
        s0, s1 = states.PureState2Q(p["vec0"]), states.PureState2Q(p["vec1"])
        rho0, rho1 = states.werner_noise(s0, p["v"]), states.werner_noise(s1, p["v"])
        protocol = discrimination.walgate_decompose(s0, s1)
        povm = measurement.protocol_to_povm(protocol)
        ff = discrimination.ff_success_probability(protocol, rho0, rho1)
        helstrom = discrimination.helstrom_bound(rho0, rho1)
        counts0 = measurement.sample_coincidences(rho0, povm, p["n_events"], p["seeds"][0])
        counts1 = measurement.sample_coincidences(rho1, povm, p["n_events"], p["seeds"][1])
        est = measurement.estimate(counts0, counts1)
        op.output = (protocol, povm, ff, helstrom, est)

    def check(self, op: Op) -> str | None:
        p = op.params
        protocol, povm, ff, helstrom, est = op.output
        exact = orc.orthogonal_pair_success(p["v"])
        residual = orc.hollow_residual(p["vec0"], p["vec1"], protocol.alice_basis[0])
        deviation = orc.povm_deviation([mat for _, mat in povm])
        return _first([
            _close("ff_success_probability", ff, exact),
            _close("helstrom_bound", helstrom, exact),
            f"hollow residual {residual:.3e} exceeds {orc.HOLLOW_ATOL}"
            if residual > orc.HOLLOW_ATOL else None,
            f"POVM misses the identity by {deviation:.3e}"
            if deviation > orc.POVM_ATOL else None,
            _check_sampled(est.to_json(), exact, p["n_events"]),
        ])


# --- tomo: simulated records and MLE --------------------------------------------

TOMO_FAMILIES = ("pure", "rank2", "rank4", "werner_phi", "werner_psi", "bell")
TOMO_N_PER_SETTING = (1_000, 10_000, 100_000)
TOMO_NOISELESS_COUNTS = 1_000_000
# Families whose noiseless records are held to the 1e-3 trace-distance check.
NOISELESS_FAMILIES = ("pure", "rank4", "werner_phi", "werner_psi", "bell")
_BELL = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]],
                 dtype=complex) / np.sqrt(2.0)


def _tomo_state(rng, family: str) -> np.ndarray:
    if family in ("pure", "rank2", "rank4"):
        rank = {"pure": 1, "rank2": 2, "rank4": 4}[family]
        g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        m = g @ g.conj().T
        return m / np.trace(m).real
    if family == "werner_phi":
        vec = (orc.phi0_vec if rng.integers(2) else orc.phi1_vec)(float(rng.uniform(0, 90)))
        return orc.werner(vec, float(rng.uniform(0.7, 1.0)))
    if family == "werner_psi":
        vec = orc.psi_vecs(float(rng.uniform(1.0, 44.0)))[int(rng.integers(2))]
        return orc.werner(vec, float(rng.uniform(0.7, 1.0)))
    vec = _BELL[int(rng.integers(4))]
    return np.outer(vec, vec.conj())


class Tomo:
    """Per round 18 simulated records (each family at each n_per_setting),
    one noiseless uniform record and two noiseless records with exposures in
    [0.5, 2.0], each reconstructed by MLE."""

    def make_round(self, rng) -> list[Op]:
        ops = []
        for family in TOMO_FAMILIES:
            for n_per_setting in TOMO_N_PER_SETTING:
                params = {"family": family, "rho": _tomo_state(rng, family),
                          "n_per_setting": n_per_setting, "seed": _seed(rng)}
                ops.append(Op(kind="simulated", params=params))
        projectors = orc.tomography_projectors()
        for k in range(3):
            uniform = k == 0
            pool = NOISELESS_FAMILIES if uniform else TOMO_FAMILIES
            family = pool[int(rng.integers(len(pool)))]
            rho = _tomo_state(rng, family)
            exposure = np.ones(36) if uniform else rng.uniform(0.5, 2.0, size=36)
            probs = np.einsum("sij,ji->s", projectors, rho).real
            counts = np.rint(TOMO_NOISELESS_COUNTS * exposure * probs).astype(int)
            params = {"family": family, "rho": rho, "counts": counts, "exposure": exposure}
            ops.append(Op(kind="noiseless" if uniform else "exposure", params=params,
                          known_fault=not uniform))
        return ops

    def run(self, op: Op) -> None:
        p = op.params
        if op.kind == "simulated":
            rho = states.DensityMatrix2Q(p["rho"])
            record = measurement.simulate_tomography(rho, p["n_per_setting"], p["seed"])
        else:
            record = measurement.TomographyRecord.from_counts(p["counts"], p["exposure"])
        op.output = (record, tomography.mle_reconstruct(record))

    def check(self, op: Op) -> str | None:
        record, result = op.output
        op.extra["iterations"] = result.iterations
        rho_true = op.params["rho"]
        if op.kind == "simulated":
            # Sampling noise puts the true state strictly below the maximum.
            ll_mle = orc.profile_log_likelihood(result.rho.mat, record.counts, record.exposure)
            ll_true = orc.profile_log_likelihood(rho_true, record.counts, record.exposure)
            if not ll_mle >= ll_true:
                return f"likelihood at the MLE {ll_mle!r} is below that at the true state {ll_true!r}"
            return None
        distance = orc.trace_distance(result.rho.mat, rho_true)
        if distance > orc.NOISELESS_TRACE_DISTANCE:
            return (f"noiseless {op.kind} record of a {op.params['family']} state "
                    f"reconstructs at trace distance {distance:.3e}")
        return None


def make(name: str, workdir: str):
    if name == "scan":
        return Scan(workdir)
    if name == "protocols":
        return Protocols()
    return Tomo()

