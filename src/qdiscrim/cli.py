"""Command-line experiment runner.

Subcommands mirror the simulated experiments:

    discrim pair     --config cfg.json   one state pair, full comparison
    discrim grid     --config cfg.json   orthogonal pairs on an angle grid
    discrim curve    --config cfg.json   non-orthogonal pairs vs eta
    discrim tomo     --config cfg.json   simulate + reconstruct one state
    discrim optimize --config cfg.json   best no-feed-forward measurement

Configs are strict JSON (unknown keys are rejected); --out, --format and
--seed override the config file.  Reports embed the resolved config and
master seed, and contain nothing time- or host-dependent, so re-running a
command reproduces the output byte for byte.  Exit codes: 0 success, 2
configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import typing
from dataclasses import dataclass, field, fields, is_dataclass
from decimal import Decimal

import numpy as np

from . import __version__
from .discrimination import (
    EQUAL_PRIORS,
    OptimizerConfig,
    canonical_protocol,
    ff_success_probability,
    helstrom_bound,
    optimize_local_projective,
    walgate_decompose,
)
from .errors import DiscriminationError
from .measurement import (
    estimate,
    protocol_to_povm,
    sample_coincidences,
    simulate_tomography,
)
from .serialize import complex_to_pairs
from .states import (
    DensityMatrix2Q,
    PureState2Q,
    fidelity_pure,
    phi0,
    phi1,
    psi_pair,
    tangle,
    werner_noise,
)
from .tomography import MLEConfig, mle_reconstruct

EXPERIMENTS = ("pair", "grid", "curve", "tomo", "optimize")
TOMO_STATES = ("phi0", "phi1", "psi0", "psi1", "bell")
OUTPUT_DIR_ENV = "DISCRIM_OUTPUT_DIR"

_SAMPLING_EXPERIMENTS = {"pair", "grid", "curve", "tomo"}


class ConfigError(ValueError):
    """Raised for malformed or inconsistent experiment configuration."""


@dataclass
class ExperimentConfig:
    """Resolved settings for one CLI invocation."""

    experiment: str
    theta0_deg: float = 30.0
    theta1_deg: float = 60.0
    eta_deg: float | None = None
    eta_min_deg: float = 0.0
    eta_max_deg: float = 45.0
    eta_step_deg: float = 5.0
    grid_step_deg: float = 15.0
    noise_v: float = 1.0
    n_events: int = 1_000_000
    n_per_setting: int = 10_000
    master_seed: int | None = None
    state: str = "phi0"
    output_path: str | None = None
    format: str = "json"
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    mle: MLEConfig = field(default_factory=MLEConfig)

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"experiment must be one of {EXPERIMENTS}, got {self.experiment!r}"
            )
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be 'csv' or 'json', got {self.format!r}")
        if not 0.0 <= self.theta0_deg <= 90.0 or not 0.0 <= self.theta1_deg <= 90.0:
            raise ConfigError("theta0_deg and theta1_deg must lie in [0, 90]")
        if self.eta_deg is not None and not 0.0 <= self.eta_deg <= 45.0:
            raise ConfigError("eta_deg must lie in [0, 45]")
        if not 0.0 <= self.eta_min_deg <= self.eta_max_deg <= 45.0:
            raise ConfigError("eta grid must satisfy 0 <= min <= max <= 45")
        if self.eta_step_deg <= 0.0:
            raise ConfigError("eta_step_deg must be positive")
        if self.grid_step_deg <= 0.0 or (90.0 / self.grid_step_deg) % 1.0 != 0.0:
            raise ConfigError("grid_step_deg must divide 90")
        if not 0.0 <= self.noise_v <= 1.0:
            raise ConfigError("noise_v must lie in [0, 1]")
        if self.n_events <= 0 or self.n_per_setting <= 0:
            raise ConfigError("n_events and n_per_setting must be positive")
        if self.state not in TOMO_STATES:
            raise ConfigError(f"state must be one of {TOMO_STATES}, got {self.state!r}")
        if self.experiment in _SAMPLING_EXPERIMENTS and self.master_seed is None:
            raise ConfigError(
                f"experiment {self.experiment!r} draws samples and requires master_seed"
            )
        if self.master_seed is not None:
            if int(self.master_seed) != self.master_seed or self.master_seed < 0:
                raise ConfigError("master_seed must be a nonnegative integer")

    def to_json(self) -> dict:
        """Config echo embedded in reports.

        Contains every field that influences the computed data; the output
        path is omitted so reruns of one config stay byte-identical no
        matter where they are written.
        """
        out = {}
        for f in fields(self):
            if f.name == "output_path":
                continue
            val = getattr(self, f.name)
            if f.name in ("optimizer", "mle"):
                val = val.to_json()
            out[f.name] = val
        return out


def _check_types(cls, data: dict, prefix: str = "") -> None:
    """Reject values of the wrong JSON type, nested ones too; a boolean is no number."""
    for name, hint in typing.get_type_hints(cls).items():
        if name not in data:
            continue
        value = data[name]
        allowed = (dict,) if is_dataclass(hint) else typing.get_args(hint) or (hint,)
        number = float in allowed and isinstance(value, int)
        if isinstance(value, bool) or not (number or isinstance(value, allowed)):
            wanted = getattr(hint, "__name__", hint)
            raise ConfigError(f"{prefix}{name} must be {wanted}, got {json.dumps(value)}")
        if is_dataclass(hint):
            _check_types(hint, value, prefix=f"{prefix}{name}.")


def load_config(path: str, overrides: dict) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")

    known = {f.name for f in fields(ExperimentConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(
            f"unknown config keys {sorted(unknown)}; allowed keys are {sorted(known)}"
        )
    raw = dict(raw)
    raw.update({k: v for k, v in overrides.items() if v is not None})
    if "experiment" not in raw:
        raise ConfigError("config must name the experiment to run")
    _check_types(ExperimentConfig, raw)
    try:
        if "optimizer" in raw:
            raw["optimizer"] = OptimizerConfig.from_json(raw["optimizer"])
        if "mle" in raw:
            raw["mle"] = MLEConfig.from_json(raw["mle"])
        cfg = ExperimentConfig(**raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    cfg.validate()
    return cfg


def _row_seeds(master_seed: int, row_index: int) -> tuple[int, int]:
    """Two sampling seeds for a table row, drawn from the NumPy seed sequence
    of (master_seed, row_index), so no two rows of any masters share a stream."""
    state = np.random.SeedSequence([int(master_seed), row_index]).generate_state(2)
    return int(state[0]), int(state[1])


def _decimal_range(lo: float, hi: float, step: float) -> list[float]:
    """lo, lo + step, ... up to hi, added in decimal so that steps such as 0.1
    and 0.9 land on 0.3 and 11.7, not on their binary neighbours.

    A point within 1e-9 steps past hi counts and is set to hi.
    """
    lo_d, hi_d, step_d = (Decimal(repr(float(x))) for x in (lo, hi, step))
    count = int((hi_d - lo_d) / step_d + Decimal("1e-9"))
    return [float(min(lo_d + i * step_d, hi_d)) for i in range(count + 1)]


def _pair_row(theta0: float, theta1: float, cfg: ExperimentConfig, row_index: int) -> dict:
    ideal0, ideal1 = phi0(theta0), phi1(theta1)
    rho0 = werner_noise(ideal0, cfg.noise_v)
    rho1 = werner_noise(ideal1, cfg.noise_v)
    protocol = walgate_decompose(ideal0, ideal1)
    povm = protocol_to_povm(protocol)
    ff_exact = ff_success_probability(protocol, rho0, rho1, EQUAL_PRIORS)
    seed0, seed1 = _row_seeds(cfg.master_seed, row_index)
    counts0 = sample_coincidences(rho0, povm, cfg.n_events, seed0)
    counts1 = sample_coincidences(rho1, povm, cfg.n_events, seed1)
    est = estimate(counts0, counts1)
    _, no_ff = optimize_local_projective(rho0, rho1, EQUAL_PRIORS, cfg.optimizer)
    return {
        "row_index": row_index,
        "theta0_deg": theta0,
        "theta1_deg": theta1,
        "ff_exact": ff_exact,
        "counts0": counts0.to_json(),
        "counts1": counts1.to_json(),
        "estimate": est.to_json(),
        "helstrom": helstrom_bound(rho0, rho1, EQUAL_PRIORS),
        "no_ff_best": no_ff,
        "advantage": ff_exact - no_ff,
        "seeds": {"state0": seed0, "state1": seed1},
    }


def run_pair(cfg: ExperimentConfig) -> dict:
    """Full comparison for a single orthogonal-family pair."""
    return {"pair": _pair_row(cfg.theta0_deg, cfg.theta1_deg, cfg, row_index=0)}


def run_grid(cfg: ExperimentConfig) -> dict:
    """Sweep the orthogonal family over a square angle grid."""
    values = _decimal_range(0.0, 90.0, cfg.grid_step_deg)
    pairs = [(t0, t1) for t0 in values for t1 in values]
    return {"rows": [_pair_row(t0, t1, cfg, row) for row, (t0, t1) in enumerate(pairs)]}


def _curve_row(eta: float, cfg: ExperimentConfig, row_index: int) -> dict:
    ideal0, ideal1 = psi_pair(eta)
    rho0_ideal, rho1_ideal = ideal0.density(), ideal1.density()
    rho0 = werner_noise(ideal0, cfg.noise_v)
    rho1 = werner_noise(ideal1, cfg.noise_v)
    protocol = canonical_protocol()
    povm = protocol_to_povm(protocol)
    seed0, seed1 = _row_seeds(cfg.master_seed, row_index)
    counts0 = sample_coincidences(rho0, povm, cfg.n_events, seed0)
    counts1 = sample_coincidences(rho1, povm, cfg.n_events, seed1)
    est = estimate(counts0, counts1)
    _, no_ff_ideal = optimize_local_projective(
        rho0_ideal, rho1_ideal, EQUAL_PRIORS, cfg.optimizer
    )
    _, no_ff_noisy = optimize_local_projective(rho0, rho1, EQUAL_PRIORS, cfg.optimizer)
    return {
        "row_index": row_index,
        "eta_deg": eta,
        "helstrom_ideal": helstrom_bound(rho0_ideal, rho1_ideal, EQUAL_PRIORS),
        "helstrom_noisy": helstrom_bound(rho0, rho1, EQUAL_PRIORS),
        "ff_ideal": ff_success_probability(protocol, rho0_ideal, rho1_ideal, EQUAL_PRIORS),
        "ff_noisy": ff_success_probability(protocol, rho0, rho1, EQUAL_PRIORS),
        "no_ff_ideal": no_ff_ideal,
        "no_ff_noisy": no_ff_noisy,
        "estimate": est.to_json(),
        "seeds": {"state0": seed0, "state1": seed1},
    }


def run_curve(cfg: ExperimentConfig) -> dict:
    """Sweep the non-orthogonal pair over the overlap angle eta.

    Exact columns cover the fixed-protocol (feed-forward) success and the
    best no-feed-forward measurement, for ideal and noisy preparations;
    sampled estimates use the configured event budget.
    """
    etas = _decimal_range(cfg.eta_min_deg, cfg.eta_max_deg, cfg.eta_step_deg)
    return {"rows": [_curve_row(eta, cfg, i) for i, eta in enumerate(etas)]}


def _tomo_target(cfg: ExperimentConfig) -> PureState2Q:
    if cfg.state == "phi0":
        return phi0(cfg.theta0_deg)
    if cfg.state == "phi1":
        return phi1(cfg.theta1_deg)
    if cfg.state in ("psi0", "psi1"):
        eta = cfg.eta_deg if cfg.eta_deg is not None else 22.5
        pair = psi_pair(eta)
        return pair[0] if cfg.state == "psi0" else pair[1]
    bell = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)
    return PureState2Q(bell)


def run_tomo(cfg: ExperimentConfig) -> dict:
    """Simulate a tomography record of the noisy target and reconstruct it."""
    target = _tomo_target(cfg)
    rho_true = werner_noise(target, cfg.noise_v)
    record = simulate_tomography(rho_true, cfg.n_per_setting, cfg.master_seed)
    result = mle_reconstruct(record, cfg.mle)
    return {
        "tomo": {
            "state": cfg.state,
            "record": record.to_json(),
            "rho": result.rho.to_json(),
            "log_likelihood": result.log_likelihood,
            "iterations": result.iterations,
            "converged": result.converged,
            "fidelity_vs_ideal": fidelity_pure(result.rho, target),
            "overlap_vs_true": _mixed_overlap(result.rho, rho_true),
            "tangle": tangle(result.rho),
        }
    }


def _mixed_overlap(a: DensityMatrix2Q, b: DensityMatrix2Q) -> float:
    """Hilbert-Schmidt overlap Tr(a b), a cheap closeness diagnostic."""
    return float(np.trace(a.mat @ b.mat).real)


def run_optimize(cfg: ExperimentConfig) -> dict:
    """Best no-feed-forward measurement for the configured pair."""
    if cfg.eta_deg is not None:
        ideal0, ideal1 = psi_pair(cfg.eta_deg)
    else:
        ideal0, ideal1 = phi0(cfg.theta0_deg), phi1(cfg.theta1_deg)
    rho0 = werner_noise(ideal0, cfg.noise_v)
    rho1 = werner_noise(ideal1, cfg.noise_v)
    measurement, value = optimize_local_projective(
        rho0, rho1, EQUAL_PRIORS, cfg.optimizer
    )
    return {
        "optimize": {
            "value": value,
            "alice_basis": complex_to_pairs(measurement.alice_basis),
            "bob_basis": complex_to_pairs(measurement.bob_basis),
            "assignment": measurement.assignment.tolist(),
            "helstrom": helstrom_bound(rho0, rho1, EQUAL_PRIORS),
        }
    }


_RUNNERS = {
    "pair": run_pair,
    "grid": run_grid,
    "curve": run_curve,
    "tomo": run_tomo,
    "optimize": run_optimize,
}


def build_report(cfg: ExperimentConfig) -> dict:
    results = _RUNNERS[cfg.experiment](cfg)
    return {
        "tool": "discrim",
        "version": __version__,
        "config": cfg.to_json(),
        "results": results,
    }


def _flatten(prefix: str, value, out: dict) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), sub, out)
    else:
        out[prefix] = value


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def report_to_csv(report: dict) -> str:
    """CSV rendering: config comment lines, then one row per table entry."""
    lines = [
        f"# tool=discrim version={report['version']}",
        "# config=" + json.dumps(report["config"], sort_keys=True),
    ]
    results = report["results"]
    if "rows" in results:
        rows = results["rows"]
    else:
        rows = [next(iter(results.values()))]
    flat_rows = []
    for row in rows:
        flat: dict = {}
        _flatten("", row, flat)
        # Tables keep scalar columns only; nested arrays stay JSON-side.
        flat = {k: v for k, v in flat.items() if not isinstance(v, (list, tuple))}
        flat_rows.append(flat)
    columns = set().union(*flat_rows) if flat_rows else set()
    leading = [c for c in ("row_index", "theta0_deg", "theta1_deg", "eta_deg") if c in columns]
    header = leading + sorted(columns - set(leading))
    lines.append(",".join(header))
    for flat in flat_rows:
        lines.append(",".join(_format_cell(flat.get(col, "")) for col in header))
    return "\n".join(lines) + "\n"


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _resolve_output(cfg: ExperimentConfig) -> str | None:
    path = cfg.output_path
    if path is None:
        return None
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="discrim",
        description="Simulated discrimination experiments for entangled two-qubit states.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--format", default=None, choices=("csv", "json"))
        p.add_argument("--seed", default=None, type=int, help="master seed override")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(
            args.config,
            overrides={
                "experiment": args.experiment,
                "output_path": args.out,
                "format": args.format,
                "master_seed": args.seed,
            },
        )
    except ConfigError as exc:
        print(f"discrim: config error: {exc}", file=sys.stderr)
        return 2

    try:
        report = build_report(cfg)
    except DiscriminationError as exc:
        print(f"discrim: numerical failure: {exc}", file=sys.stderr)
        return 3

    text = report_to_json(report) if cfg.format == "json" else report_to_csv(report)
    out_path = _resolve_output(cfg)
    if out_path is None:
        sys.stdout.write(text)
    else:
        os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
