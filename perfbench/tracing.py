"""Spans around mcplab's layers, recorded from the benchmark's own files.

The program is not changed.  For the traced sweep the names through which
mcplab's modules call into each layer are rebound to timing wrappers, and
restored afterwards.  Spans are kept in memory and written out when the run
ends.  A layer's time is the self time of its spans: each span's duration
minus the spans opened inside it, so the layer times and the experiment's
own overhead add up to the traced sweep.

Each walk is replayed right after it returns, step by step through
``find_recoloring_cycle`` and ``apply_cycle`` with the walk's seed stream,
to split its time into cycle search and cycle application.  The replay runs
in a ``probe`` span that no layer counts and that ``trace.overhead_s``
leaves out.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from mcplab.matching import monochromatic_perfect_matching
from mcplab.recolor import apply_cycle, find_recoloring_cycle
from mcplab.rng import stream_value

# (module, name the module calls, span name).  run_trial, achieve_profile
# and the counting layers get their own wrappers below.
SPAN_POINTS = (
    ("mcplab.experiment", "sample_graph", "sampling.sample"),
    ("mcplab.sampling", "stream_values_strided2", "rng.scan"),
    ("mcplab.sampling", "ColoredBipartiteGraph", "graphs.build"),
    ("mcplab.experiment", "monochromatic_perfect_matching", "matching.hk"),
    ("mcplab.recolor", "monochromatic_perfect_matching", "matching.hk"),
    ("mcplab.experiment", "isolated_color_vertices", "audit.isolated"),
    ("mcplab.experiment", "enumerate_mcp", "oracle.dp"),
)

LAYER_TIMES = (
    ("rng.scan_s", "rng.scan"),
    ("sampling.sample_s", "sampling.sample"),
    ("graphs.build_s", "graphs.build"),
    ("matching.hk_s", "matching.hk"),
    ("audit.isolated_s", "audit.isolated"),
    ("recolor.walk_s", "recolor.walk"),
    ("oracle.dp_s", "oracle.dp"),
    ("experiment.emit_s", "experiment.emit"),
)


@dataclass(frozen=True)
class WalkCapture:
    """One ``achieve_profile`` call of the sweep, kept compact for the checks."""

    target: tuple[int, ...]
    ok: bool
    stage: str | None
    steps: int
    retries: int
    assign: np.ndarray | None


def capture(outcome, target) -> WalkCapture:
    m = outcome.matching
    return WalkCapture(
        target=tuple(target),
        ok=outcome.ok,
        stage=None if outcome.failure is None else outcome.failure.stage,
        steps=outcome.report.steps_succeeded,
        retries=sum(outcome.report.retries),
        assign=None if m is None else np.asarray(m.assign, dtype=np.int32),
    )


@contextlib.contextmanager
def rebound(points):
    """Rebind ``module.name`` to ``wrapper(original)`` for each point, then restore."""
    saved = []
    try:
        for module_name, name, wrapper in points:
            module = importlib.import_module(module_name)
            original = getattr(module, name)
            saved.append((module, name, original))
            setattr(module, name, wrapper(original))
        yield
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


def capture_walks(captures: list[WalkCapture]):
    """Keep every walk of the sweep, compactly, for the output checks."""

    def wrapper(achieve_profile):
        def walk(g, target, seed=0, start=None, **kwargs):
            outcome = achieve_profile(g, target, seed, start=start, **kwargs)
            captures.append(capture(outcome, target))
            return outcome

        return walk

    return rebound([("mcplab.experiment", "achieve_profile", wrapper)])


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


class Tracer:
    """Spans ``[name, trial, start, end, parent, ok]`` and the layers' counts."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.trial: tuple[int, int] | None = None
        self.walks: list[tuple[object, str | None]] = []  # (WalkReport, failure stage)
        self.edges = 0
        self.profiles = 0
        self.search_s = 0.0
        self.apply_s = 0.0
        self.replay_failures: list[tuple[tuple[int, int] | None, str]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        row = [name, self.trial, time.perf_counter(), 0.0, self._open[-1] if self._open else -1, False]
        self.spans.append(row)
        self._open.append(index)
        try:
            yield
            row[5] = True
        finally:
            self._open.pop()
            row[3] = time.perf_counter()

    def timed(self, name: str, fn, on_return=None):
        def call(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_return is not None:
                on_return(result)
            return result

        return call

    def _count_edges(self, g) -> None:
        self.edges += g.edge_count

    def _count_profiles(self, mcp) -> None:
        self.profiles += len(mcp)

    def _trial(self, run_trial):
        def trial(config, grid_index, trial_index):
            self.trial = (grid_index, trial_index)
            with self.span("experiment.trial"):
                return run_trial(config, grid_index, trial_index)

        return trial

    def _walk(self, achieve_profile):
        timed = self.timed("recolor.walk", achieve_profile)

        def walk(g, target, seed=0, start=None, **kwargs):
            outcome = timed(g, target, seed, start=start, **kwargs)
            self.walks.append((outcome.report, None if outcome.failure is None else outcome.failure.stage))
            with self.span("probe.replay"):
                problem = self.replay(g, tuple(target), seed, start, outcome)
            if problem is not None:
                self.replay_failures.append((self.trial, problem))
            return outcome

        return walk

    def active(self):
        """Rebind every span point for the duration of a ``with`` block."""
        counts = {"sampling.sample": self._count_edges, "oracle.dp": self._count_profiles}
        points = [
            (module, name, lambda fn, span=span: self.timed(span, fn, counts.get(span)))
            for module, name, span in SPAN_POINTS
        ]
        points.append(("mcplab.experiment", "run_trial", self._trial))
        points.append(("mcplab.experiment", "achieve_profile", self._walk))
        return rebound(points)

    def replay(self, g, target, seed, start, outcome) -> str | None:
        """Re-run a walk through the public step functions; a problem or None."""
        if outcome.failure is not None and outcome.failure.stage == "no_monochromatic_start":
            return None
        i_star = target.index(max(target)) + 1
        m = start if start is not None else monochromatic_perfect_matching(g, i_star)
        step = 0
        for j in range(1, g.q + 1):
            if j == i_star:
                continue
            for _ in range(target[j - 1]):
                t0 = time.perf_counter()
                cyc = find_recoloring_cycle(g, m, i_star, j, stream_value(seed, step))
                t1 = time.perf_counter()
                self.search_s += t1 - t0
                step += 1
                if cyc is None:
                    if outcome.ok or outcome.report.steps_succeeded != step - 1:
                        return f"replay to {target} gave up at step {step}, the walk did not"
                    return None
                m = apply_cycle(g, m, cyc)
                self.apply_s += time.perf_counter() - t1
        if not outcome.ok or m.assign != outcome.matching.assign:
            return f"replay to {target} reached another matching than the walk"
        return None

    def self_times(self) -> dict[str, float]:
        inner = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                inner[parent] += end - start
        out: dict[str, float] = {}
        for (name, _, start, end, _, _), covered in zip(self.spans, inner):
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out

    def metrics(self, emit_bytes: int, plain_wall_s: float) -> dict[str, float]:
        own = self.self_times()
        hk = [s for s in self.spans if s[0] == "matching.hk"]
        reports = [report for report, _ in self.walks]
        stages = [stage for _, stage in self.walks]
        steps = sum(r.steps_succeeded for r in reports)
        anchors = sum(sum(r.retries) + len(r.retries) for r in reports)
        cycles = [c for r in reports for c in r.cycle_lengths]
        step_ms = [ms for r in reports for ms in r.ms_per_step]
        top = [s for s in self.spans if s[4] == -1]
        traced_wall = sum(end - start for _, _, start, end, _, _ in top)
        probes = sum(end - start for name, _, start, end, _, _ in self.spans if name == "probe.replay")
        out = {metric: own.get(span, 0.0) for metric, span in LAYER_TIMES}
        out.update({
            "sampling.edges": self.edges,
            "matching.hk_calls": len(hk),
            "matching.pm_found": sum(1 for s in hk if s[5]),
            "recolor.steps": steps,
            "recolor.steps_per_s": steps / out["recolor.walk_s"] if out["recolor.walk_s"] else 0.0,
            "recolor.step_ms_p50": percentile(step_ms, 50),
            "recolor.step_ms_p99": percentile(step_ms, 99),
            "recolor.anchors_tried": anchors,
            "recolor.anchor_yield": steps / anchors if anchors else 0.0,
            "recolor.cycle_len_mean": sum(cycles) / len(cycles) if cycles else 0.0,
            "recolor.gave_up": stages.count("step_exhausted"),
            "recolor.no_start": stages.count("no_monochromatic_start"),
            "recolor.search_s": self.search_s,
            "recolor.apply_s": self.apply_s,
            "oracle.profiles": self.profiles,
            "experiment.emit_bytes": emit_bytes,
            "experiment.overhead_s": own.get("experiment.sweep", 0.0) + own.get("experiment.trial", 0.0),
            "trace.overhead_s": traced_wall - probes - plain_wall_s,
        })
        return out

    def write(self, path) -> None:
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, trial, start, end, parent, ok in self.spans:
                fh.write(json.dumps({
                    "name": name, "trial": trial, "parent": parent, "ok": ok,
                    "start_s": round(start - t0, 9), "end_s": round(end - t0, 9),
                }) + "\n")
