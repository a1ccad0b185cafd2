"""Command-line experiment runner.

Usage: discrim <experiment> --config cfg.json [--out PATH] [--format json|csv]
[--seed N], where the experiment is one of

    pair       one state pair, full comparison
    grid       orthogonal pairs on an angle grid
    curve      non-orthogonal pairs vs eta
    tomo       simulate + reconstruct one state
    optimize   best no-feed-forward measurement

Configs are strict JSON: unknown keys, values of the wrong JSON type and the
non-standard NaN and Infinity (or numbers beyond the float range) are
rejected.  --out, --format and --seed override the config file.  Reports
embed the resolved config and master seed, and contain nothing time- or
host-dependent, so re-running a command reproduces the output byte for
byte.  Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import typing
from dataclasses import asdict, dataclass, field, is_dataclass
from decimal import Decimal

import numpy as np

from . import __version__
from .discrimination import (
    EQUAL_PRIORS,
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
from .states import (
    DensityMatrix2Q,
    PureState2Q,
    complex_to_pairs,
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
# Largest n_events and n_per_setting: numpy's multinomial takes counts up to
# 2**63 - 1 and its Poisson draw means up to about 9.2e18.
MAX_COUNT = 2**62
# Most rows a grid or curve may have; the count is checked before any row list
# is built.
MAX_ROWS = 10**4


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
        if self.experiment == "grid":
            rows = (_decimal_steps(0.0, 90.0, self.grid_step_deg)[-1] + 1) ** 2
        elif self.experiment == "curve":
            rows = _decimal_steps(self.eta_min_deg, self.eta_max_deg, self.eta_step_deg)[-1] + 1
        else:
            rows = 1
        if rows > MAX_ROWS:
            raise ConfigError(f"{self.experiment} would have more than {MAX_ROWS} rows")
        if not 0.0 <= self.noise_v <= 1.0:
            raise ConfigError("noise_v must lie in [0, 1]")
        for key in ("n_events", "n_per_setting"):
            if not 0 < getattr(self, key) <= MAX_COUNT:
                raise ConfigError(f"{key} must lie in [1, 2**62]")
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
        echo = asdict(self)
        del echo["output_path"]
        return echo


def _build(cls, data: dict, prefix: str = ""):
    """cls from a JSON object, nested dataclasses too: unknown keys, values of
    the wrong JSON type (a boolean is no number) and values the dataclass
    refuses raise ConfigError, nested keys named as ``mle.<key>``."""
    hints = typing.get_type_hints(cls)
    unknown = set(data) - set(hints)
    if unknown:
        raise ConfigError(
            f"unknown config keys {sorted(prefix + k for k in unknown)}; "
            f"allowed keys are {sorted(prefix + k for k in hints)}"
        )
    values = {}
    for name, value in data.items():
        hint = hints[name]
        allowed = (dict,) if is_dataclass(hint) else typing.get_args(hint) or (hint,)
        number = float in allowed and isinstance(value, int)
        if isinstance(value, bool) or not (number or isinstance(value, allowed)):
            wanted = getattr(hint, "__name__", hint)
            raise ConfigError(f"{prefix}{name} must be {wanted}, got {json.dumps(value)}")
        values[name] = _build(hint, value, f"{prefix}{name}.") if is_dataclass(hint) else value
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _finite(text: str) -> float:
    """A JSON number as a float; NaN, Infinity and overflowing numbers are refused."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def load_config(path: str, overrides: dict) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_float=_finite, parse_constant=_finite)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    raw.update({k: v for k, v in overrides.items() if v is not None})
    if "experiment" not in raw:
        raise ConfigError("config must name the experiment to run")
    cfg = _build(ExperimentConfig, raw)
    cfg.validate()
    return cfg


def _row_seeds(master_seed: int, row_index: int) -> tuple[int, int]:
    """Two sampling seeds for a table row, drawn from the NumPy seed sequence
    of (master_seed, row_index), so no two rows of any masters share a stream."""
    state = np.random.SeedSequence([int(master_seed), row_index]).generate_state(2)
    return int(state[0]), int(state[1])


def _decimal_steps(lo: float, hi: float, step: float):
    """lo, hi and step as decimals, and the number of whole steps from lo to
    hi; a point within 1e-9 steps past hi counts."""
    lo_d, hi_d, step_d = (Decimal(repr(float(x))) for x in (lo, hi, step))
    return lo_d, hi_d, step_d, int((hi_d - lo_d) / step_d + Decimal("1e-9"))


def _decimal_range(lo: float, hi: float, step: float) -> list[float]:
    """lo, lo + step, ... up to hi, added in decimal so that steps such as 0.1
    and 0.9 land on 0.3 and 11.7, not on their binary neighbours.

    A point within 1e-9 steps past hi counts and is set to hi.
    """
    lo_d, hi_d, step_d, count = _decimal_steps(lo, hi, step)
    return [float(min(lo_d + i * step_d, hi_d)) for i in range(count + 1)]


def _sample(protocol, rho0, rho1, cfg: ExperimentConfig, row_index: int) -> dict:
    """Coincidence counts of both preparations under the protocol, their
    success estimate and the row's two sampling seeds."""
    povm = protocol_to_povm(protocol)
    seed0, seed1 = _row_seeds(cfg.master_seed, row_index)
    counts0 = sample_coincidences(rho0, povm, cfg.n_events, seed0)
    counts1 = sample_coincidences(rho1, povm, cfg.n_events, seed1)
    return {
        "counts0": counts0.to_json(),
        "counts1": counts1.to_json(),
        "estimate": estimate(counts0, counts1).to_json(),
        "seeds": {"state0": seed0, "state1": seed1},
    }


def _pair_row(theta0: float, theta1: float, cfg: ExperimentConfig, row_index: int) -> dict:
    ideal0, ideal1 = phi0(theta0), phi1(theta1)
    rho0 = werner_noise(ideal0, cfg.noise_v)
    rho1 = werner_noise(ideal1, cfg.noise_v)
    protocol = walgate_decompose(ideal0, ideal1)
    ff_exact = ff_success_probability(protocol, rho0, rho1, EQUAL_PRIORS)
    _, no_ff = optimize_local_projective(rho0, rho1, EQUAL_PRIORS)
    return {
        "row_index": row_index,
        "theta0_deg": theta0,
        "theta1_deg": theta1,
        "ff_exact": ff_exact,
        "helstrom": helstrom_bound(rho0, rho1, EQUAL_PRIORS),
        "no_ff_best": no_ff,
        "advantage": ff_exact - no_ff,
        **_sample(protocol, rho0, rho1, cfg, row_index),
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
    sampled = _sample(protocol, rho0, rho1, cfg, row_index)
    _, no_ff_ideal = optimize_local_projective(rho0_ideal, rho1_ideal, EQUAL_PRIORS)
    _, no_ff_noisy = optimize_local_projective(rho0, rho1, EQUAL_PRIORS)
    return {
        "row_index": row_index,
        "eta_deg": eta,
        "helstrom_ideal": helstrom_bound(rho0_ideal, rho1_ideal, EQUAL_PRIORS),
        "helstrom_noisy": helstrom_bound(rho0, rho1, EQUAL_PRIORS),
        "ff_ideal": ff_success_probability(protocol, rho0_ideal, rho1_ideal, EQUAL_PRIORS),
        "ff_noisy": ff_success_probability(protocol, rho0, rho1, EQUAL_PRIORS),
        "no_ff_ideal": no_ff_ideal,
        "no_ff_noisy": no_ff_noisy,
        "estimate": sampled["estimate"],
        "seeds": sampled["seeds"],
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
    if not result.converged:
        # Outside the report, so that its bytes do not depend on the warning.
        print(
            f"discrim: warning: MLE stopped after {result.iterations} iterations at gap "
            f"{result.gap:.3g}, above gap_tolerance {cfg.mle.gap_tolerance:g}",
            file=sys.stderr,
        )
    return {
        "tomo": {
            "state": cfg.state,
            "record": record.to_json(),
            **result.to_json(),
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
    protocol, value = optimize_local_projective(rho0, rho1, EQUAL_PRIORS)
    return {
        "optimize": {
            "value": value,
            "alice_basis": complex_to_pairs(protocol.alice_basis),
            "bob_basis": complex_to_pairs(protocol.bob_bases[0]),
            "assignment": protocol.guess_map.tolist(),
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
    parser.add_argument("experiment", choices=EXPERIMENTS, help="the experiment to run")
    parser.add_argument("--config", required=True, help="path to a JSON config file")
    parser.add_argument("--out", default=None, help="output file (default: stdout)")
    parser.add_argument("--format", default=None, choices=("csv", "json"))
    parser.add_argument("--seed", default=None, type=int, help="master seed override")
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
