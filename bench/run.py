"""Benchmark for qdiscrim: end-to-end and per-layer metrics of one workload.

Run from the repository root:

    python3 bench/run.py --workload scan --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` records spans
around the program's public functions and prints the per-layer metrics and
the tracing overhead.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("scan", "protocols", "tomo")

# Fresh interpreters timed importing the package, after one untimed import
# that compiles the bytecode (paid once per install, not per command).
SETUP_PROBES = 5
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import qdiscrim, qdiscrim.cli; "
    "print(time.perf_counter() - t)"
)


def setup_times() -> list[float]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def probe() -> float:
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        return float(proc.stdout.split()[-1])

    probe()
    return [probe() for _ in range(SETUP_PROBES)]


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Runner:
    """Runs whole rounds of one workload for at least ``seconds``."""

    def __init__(self, workload, seed: int, seconds: float, tracer=None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.done: list[tuple] = []  # (op, seconds, traced, round)
        self.round0_spans = 0
        self.optimize_calls: list[tuple] = []
        self.grid_stage: list[float] = []
        self.refine: list[float] = []

    def run(self) -> None:
        import numpy as np

        start = time.perf_counter()
        round_index = 0
        while True:
            if self.tracer is None:
                passes = (False,)
            else:
                # Same inputs traced and untraced, alternating which goes first.
                passes = (True, False) if round_index % 2 == 0 else (False, True)
            for traced in passes:
                rng = np.random.default_rng([self.seed, round_index])
                ops = self.workload.make_round(rng)
                self._pass(ops, traced, round_index)
            round_index += 1
            if time.perf_counter() - start >= self.seconds:
                break

    def _pass(self, ops, traced: bool, round_index: int) -> None:
        if traced:
            self.tracer.on_optimize = lambda *call: self.optimize_calls.append(call)
            self.tracer.install()
        try:
            for op in ops:
                if traced:
                    self.tracer.begin_op(len(self.done))
                t0 = time.perf_counter()
                try:
                    self.workload.run(op)
                except Exception as exc:  # a failed operation is counted, not fatal
                    op.error = f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - t0
                if op.error is None:
                    try:
                        op.error = self.workload.check(op)
                    except Exception as exc:
                        op.error = f"check raised {type(exc).__name__}: {exc}"
                # Keep only the tallies, so memory does not grow with the run.
                op.params = op.output = None
                self.done.append((op, elapsed, traced, round_index))
        finally:
            if traced:
                self.tracer.uninstall()
        if traced:
            if round_index == 0:
                self.round0_spans = len(self.tracer.spans)
            self._probe_grid_stage()

    def _probe_grid_stage(self) -> None:
        """Time the optimiser's grid stage alone on the inputs just traced."""
        from qdiscrim import OptimizerConfig, discrimination

        for args, kwargs, full in self.optimize_calls:
            args = list(args)
            config = args[3] if len(args) > 3 else kwargs.get("config")
            grid_only = dataclasses.replace(config or OptimizerConfig(), refine_starts=0)
            if len(args) > 3:
                args[3] = grid_only
            else:
                kwargs = dict(kwargs, config=grid_only)
            t0 = time.perf_counter()
            discrimination.optimize_local_projective(*args, **kwargs)
            grid = time.perf_counter() - t0
            self.grid_stage.append(grid)
            self.refine.append(full - grid)
        self.optimize_calls.clear()

    # -- results ------------------------------------------------------------

    def counts(self) -> tuple[int, int, list[str]]:
        failed = [op for op, *_ in self.done if op.error]
        unexpected = [f"{op.kind}: {op.error}" for op in failed if not op.known_fault]
        return len(self.done), len(failed), unexpected

    def end_to_end(self, setup: list[float]) -> dict:
        passed = [dt for op, dt, *_ in self.done if not op.error]
        items = sum(op.items for op, *_ in self.done if not op.error)
        busy = sum(dt for _, dt, *_ in self.done)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # With nothing passed the result is already marked incorrect.
        passed = passed or [0.0]
        return {
            "setup_s": (statistics.median(setup), "s"),
            "items_per_s": (items / busy, "1/s"),
            "op_p50_ms": (1e3 * statistics.median(passed), "ms"),
            "op_p90_ms": (1e3 * percentile(passed, 0.9), "ms"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }

    def per_layer(self) -> dict:
        tr = self.tracer
        durations = tr.durations()
        selfs = tr.self_times()
        round0 = tr.spans[: self.round0_spans]
        round0_ops = [op for op, _, traced, r in self.done if traced and r == 0]

        def p50(values, scale: float) -> float:
            return scale * statistics.median(values) if values else 0.0

        def calls0(name: str) -> int:
            return sum(1 for span in round0 if span[3] == name)

        def round0_total(key: str) -> int:
            return sum(op.extra.get(key, 0) for op in round0_ops)

        opt = "discrimination.optimize_local_projective"
        metrics = {
            f"{opt}.calls": (calls0(opt), "count"),
            f"{opt}.p50_ms": (p50(durations[opt], 1e3), "ms"),
            "discrimination.optimize_grid_stage.p50_ms": (p50(self.grid_stage, 1e3), "ms"),
            "discrimination.optimize_refine.p50_ms": (p50(self.refine, 1e3), "ms"),
        }
        for name in ("discrimination.walgate_decompose", "discrimination.hollow_vector",
                     "discrimination.helstrom_bound", "discrimination.ff_success_probability"):
            metrics[f"{name}.p50_us"] = (p50(durations[name], 1e6), "us")
        metrics["linalg.hermitian_eig.calls"] = (calls0("linalg.hermitian_eig"), "count")
        for name in ("linalg.hermitian_eig", "states.werner_noise", "states.DensityMatrix2Q",
                     "measurement.sample_coincidences", "measurement.simulate_tomography",
                     "measurement.protocol_to_povm"):
            metrics[f"{name}.p50_us"] = (p50(durations[name], 1e6), "us")
        mle = durations["tomography.mle_reconstruct"]
        iterations = sum(op.extra.get("iterations", 0) for op, _, traced, _ in self.done if traced)
        metrics["tomography.mle_reconstruct.p50_ms"] = (p50(mle, 1e3), "ms")
        metrics["tomography.mle_iterations"] = (round0_total("iterations"), "count")
        metrics["tomography.us_per_iteration"] = (
            1e6 * sum(mle) / iterations if iterations else 0.0, "us")
        main_self = [selfs[span[0]] for span in tr.spans if span[3] == "cli.main"]
        metrics["cli.main.self_ms"] = (p50(main_self, 1e3), "ms")
        metrics["cli.report_bytes"] = (round0_total("report_bytes"), "bytes")
        for layer, seconds in tr.busy().items():
            metrics[f"{layer}.busy_s"] = (seconds, "s")
        traced_s = sum(dt for _, dt, traced, _ in self.done if traced)
        plain_s = sum(dt for _, dt, traced, _ in self.done if not traced)
        metrics["trace.overhead_pct"] = (100.0 * (traced_s / plain_s - 1.0), "%")
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "qdiscrim" / "__init__.py").is_file():
        print(f"bench: no qdiscrim sources under {SRC}", file=sys.stderr)
        return 2
    # Run on one CPU.  With the CLI's 4-thread row pool spread over two cores,
    # one grid command took 3.7 to 6.9 s, against 3.3 to 3.8 s on one core:
    # interpreter-lock hand-offs between cores made scan's timings follow
    # whether the second core was free.  The probes below inherit this.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # Set-up time is an end-to-end metric; a traced run does not report it.
    setup = [] if args.trace else setup_times()

    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tracer = tracing.Tracer() if args.trace else None
        runner = Runner(workloads.make(args.workload, str(workdir)), args.seed, args.seconds, tracer)
        runner.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, unexpected = runner.counts()
    for message in unexpected[:5]:
        print(f"bench: wrong output: {message}", file=sys.stderr)
    if tracer is not None:
        metrics = runner.per_layer()
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(str(trace_path))
        print(f"{args.workload}: {len(tracer.spans)} spans written to {trace_path}")
    else:
        metrics = runner.end_to_end(setup)
    print(f"{args.workload}: attempted {attempted}, failed {failed}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}: {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
