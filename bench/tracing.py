"""In-memory spans around the program's public functions.

``Tracer.install`` replaces each traced function in every qdiscrim module
that binds it, so a call is recorded whichever name the caller used, and
``uninstall`` puts the originals back.  A span is (id, parent, op, name,
start, end); spans opened on a pool thread with no open span of their own
take the open top-level span as parent, so the CLI's row threads nest
under ``cli.main``.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# Layer-qualified name -> (defining module, attribute).  DensityMatrix2Q is
# a class: its validation hook is wrapped, which every construction runs.
TRACED = {
    "discrimination.optimize_local_projective": ("qdiscrim.discrimination", "optimize_local_projective"),
    "discrimination.walgate_decompose": ("qdiscrim.discrimination", "walgate_decompose"),
    "discrimination.hollow_vector": ("qdiscrim.discrimination", "hollow_vector"),
    "discrimination.helstrom_bound": ("qdiscrim.discrimination", "helstrom_bound"),
    "discrimination.ff_success_probability": ("qdiscrim.discrimination", "ff_success_probability"),
    "linalg.hermitian_eig": ("qdiscrim.linalg", "hermitian_eig"),
    "states.werner_noise": ("qdiscrim.states", "werner_noise"),
    "states.DensityMatrix2Q": ("qdiscrim.states", "DensityMatrix2Q"),
    "measurement.sample_coincidences": ("qdiscrim.measurement", "sample_coincidences"),
    "measurement.simulate_tomography": ("qdiscrim.measurement", "simulate_tomography"),
    "measurement.protocol_to_povm": ("qdiscrim.measurement", "protocol_to_povm"),
    "tomography.mle_reconstruct": ("qdiscrim.tomography", "mle_reconstruct"),
    "cli.main": ("qdiscrim.cli", "main"),
}

LAYERS = ("discrimination", "linalg", "states", "measurement", "tomography", "cli")


class Tracer:
    """Records spans while installed; computes counts and self times."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None
        self._op = 0
        self._patches: list[tuple] = []
        # Hook for the caller: receives (args, kwargs, seconds) of every
        # optimiser call.
        self.on_optimize = None

    # -- recording --------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self._op = op

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else tracer._root
            span_id = next(tracer._ids)
            if parent is None:
                tracer._root = span_id
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if tracer._root == span_id:
                    tracer._root = None
                tracer.spans.append((span_id, parent, tracer._op, name, start, end))
                if name == "discrimination.optimize_local_projective" and tracer.on_optimize:
                    tracer.on_optimize(args, kwargs, end - start)

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "qdiscrim" or n.startswith("qdiscrim.")]
        for name, (mod_name, attr) in TRACED.items():
            original = getattr(sys.modules[mod_name], attr)
            if isinstance(original, type):
                hook = original.__post_init__
                self._patches.append((original, "__post_init__", hook))
                setattr(original, "__post_init__", self._wrap(name, hook))
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part of it covered by child spans."""
        children = defaultdict(list)
        for span_id, parent, _, _, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = {}
        for span_id, _, _, _, start, end in self.spans:
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out[span_id] = (end - start) - covered
        return out

    def durations(self) -> dict[str, list[float]]:
        out = defaultdict(list)
        for _, _, _, name, start, end in self.spans:
            out[name].append(end - start)
        return out

    def busy(self) -> dict[str, float]:
        """Layer -> summed self time of its spans."""
        selfs = self.self_times()
        out = dict.fromkeys(LAYERS, 0.0)
        for span_id, _, _, name, _, _ in self.spans:
            out[name.split(".", 1)[0]] += selfs[span_id]
        return out

    def write(self, path: str) -> None:
        """Spans as JSON lines, times relative to the first span."""
        t0 = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "op": op, "name": name,
                         "start_s": start - t0, "end_s": end - t0}
                    )
                    + "\n"
                )
