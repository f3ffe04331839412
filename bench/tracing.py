"""In-memory span tracer that wraps bsvielab's public functions from outside.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (-1 at top level) and ``op`` the index of the outermost span,
so every span of one operation shares it.  Spans stay in memory while the
workload runs; :meth:`Tracer.dump` writes them out afterwards.

:func:`instrument` rebinds each target function everywhere it is reachable in
the loaded ``bsvielab`` modules, including names bound by ``from ... import``
(``backward.martingale_representation`` is the same object as
``lattice.martingale_representation``), and returns a function that restores
the originals.  No library file changes.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

# (module, function) pairs timed as spans; the metric prefix is the module
# path below ``bsvielab``.
TRACED_FUNCTIONS = (
    ("backward", "solve_bsvie_family"),
    ("backward", "solve_bsvie_msolution"),
    ("backward", "solve_bsde"),
    ("backward", "picard_bsvie"),
    ("backward", "bsde_duality_check"),
    ("backward", "bsvie_duality_check"),
    ("backward", "solve_linear_bsvie_stepfn"),
    ("backward", "solve_bsvie_family_deterministic"),
    ("lattice", "martingale_representation"),
    ("lattice", "condition_to"),
    ("lattice", "ito_integral"),
    ("lattice", "sign_violation"),
    ("forward", "solve_fsde"),
    ("forward", "fundamental_matrix"),
    ("forward", "solve_linear_fsvie"),
    ("forward", "picard_fsvie"),
    ("forward", "euler_monte_carlo"),
    ("forward", "solve_linear_fsvie_deterministic"),
    ("forward", "picard_fsvie_deterministic"),
    ("cones", "cone_preservation_check"),
    ("harness.hypotheses", "check_hypotheses"),
    ("harness.report", "emit_report"),
)

# Monte Carlo chunk helpers: private, so they are measured (bytes of the
# returned path array) when present and skipped when a later version drops them.
MC_CHUNK_HELPERS = ("_mc_sde_chunk", "_mc_volterra_chunk")

MSOLUTION = "backward.solve_bsvie_msolution"
FAMILY = "backward.solve_bsvie_family"
DRIFT_CALLS = "backward.BsvieSpec.drift.calls"
CHUNK_BYTES = "forward.mc.chunk_bytes_computed"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.chunk_bytes_max = 0
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        op = self.spans[parent][4] if parent >= 0 else len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, op])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def timed(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def counting(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counting

    def chunk_sized(self, fn):
        @functools.wraps(fn)
        def sized(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.chunk_bytes_max = max(self.chunk_bytes_max, int(out.nbytes))
            return out

        return sized

    # -- aggregation ------------------------------------------------------

    def summary(self, first: int, last: int) -> dict[str, dict[str, float]]:
        """calls / incl_s / self_s per span name over spans ``first..last-1``.

        Self time is the span's duration minus the durations of its direct
        children; spans of one thread nest, so children never overlap.
        """
        spans = self.spans[first:last]
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= first:
                child[s[3] - first] += s[2] - s[1]
        out: dict[str, dict[str, float]] = {}
        for k, s in enumerate(spans):
            agg = out.setdefault(s[0], {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["incl_s"] += s[2] - s[1]
            agg["self_s"] += s[2] - s[1] - child[k]
        return out

    def nested_count(self, name: str, ancestor: str, first: int, last: int) -> int:
        """Spans called ``name`` in ``first..last-1`` that run inside one called ``ancestor``."""
        n = 0
        for s in self.spans[first:last]:
            if s[0] != name:
                continue
            p = s[3]
            while p >= 0 and self.spans[p][0] != ancestor:
                p = self.spans[p][3]
            n += p >= 0
        return n

    def dump(self, path, extra: dict) -> None:
        doc = dict(extra)
        doc["span_fields"] = ["name", "start", "end", "parent", "op"]
        doc["spans"] = self.spans
        doc["counts"] = dict(self.counts)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _rebind_everywhere(original, replacement, undo: list) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "bsvielab" or mod_name.startswith("bsvielab.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))


def mark_calls(meter):
    """Mark ``meter`` at each call of a traced function or chunk helper.

    The meter skips marks that come sooner than its shortest segment after the
    last one, so this costs one clock read per call.  Returns an undo.
    """
    import importlib

    from bsvielab import forward

    undo: list = []
    targets = [getattr(importlib.import_module(f"bsvielab.{m}"), f) for m, f in TRACED_FUNCTIONS]
    targets += [getattr(forward, h) for h in MC_CHUNK_HELPERS if hasattr(forward, h)]
    for original in targets:
        _rebind_everywhere(original, meter.marking(original), undo)

    def restore() -> None:
        for obj, attr, original in reversed(undo):
            setattr(obj, attr, original)

    return restore


def instrument(tracer: Tracer):
    """Wrap the traced functions, scenario builders and counters; return an undo."""
    import importlib

    from bsvielab import backward, forward
    from bsvielab.harness import scenarios

    undo: list = []
    for mod_name, fn_name in TRACED_FUNCTIONS:
        mod = importlib.import_module(f"bsvielab.{mod_name}")
        original = getattr(mod, fn_name)
        _rebind_everywhere(original, tracer.timed(f"{mod_name}.{fn_name}", original), undo)
    for helper in MC_CHUNK_HELPERS:
        original = getattr(forward, helper, None)
        if original is not None:
            _rebind_everywhere(original, tracer.chunk_sized(original), undo)
    drift = backward.BsvieSpec.drift
    backward.BsvieSpec.drift = tracer.counted(DRIFT_CALLS, drift)
    undo.append((backward.BsvieSpec, "drift", drift))
    registry = dict(scenarios.REGISTRY)
    for name, entry in registry.items():
        scenarios.REGISTRY[name] = dataclasses.replace(
            entry, build=tracer.timed(f"harness.scenarios.{name}", entry.build)
        )

    def restore() -> None:
        for obj, attr, original in reversed(undo):
            setattr(obj, attr, original)
        scenarios.REGISTRY.update(registry)

    return restore
