"""Spans around sketchout's layer functions, and the per-layer metrics.

``sketchout.pipeline`` binds its layer functions at import, so a traced
detection replaces those names in the pipeline module and restores them
afterwards.  A wrapper only records a span and keeps references to the
call's arguments and result; certificates (KKT residuals, solver flags)
are computed from those references after the detection has returned,
outside every timed span.

A span is (name, start, end, parent, detection).  Spans stay in memory
and are written out by the benchmark when it ends.
"""

from __future__ import annotations

import inspect
import time
from contextlib import contextmanager

import numpy as np
from sketchout import prox

#: Iteration cap the pipeline's decoder calls run with (it passes none).
LASSO_MAX_ITERS = inspect.signature(prox.lasso_path_solve).parameters["max_iters"].default

#: Names bound in ``sketchout.pipeline`` -> span name.  The sketch and
#: sampler constructors together make up the "sketching" layer.
LAYERS = {
    "lasso_path_solve": "prox.lasso_path_solve",
    "outlier_pursuit": "solver.outlier_pursuit",
    "rmc_solve": "solver.rmc_solve",
    "subspace_basis": "solver.subspace_basis",
    "extract_support": "pipeline.extract_support",
    "make_column_sampler": "sketching.make_column_sampler",
    "make_gaussian_sketch": "sketching.make_gaussian_sketch",
    "make_probe_vector": "sketching.make_probe_vector",
    "make_row_subsampler": "sketching.make_row_subsampler",
}

#: Per-layer metrics in output order, with their units.  Times and
#: measurements are means per traced detection, iterations and dims means
#: per call, flags and caps counts over the run, residuals worst cases.
PER_LAYER_UNITS = {
    "pipeline.detect_s": "s",
    "trace.overhead_frac": "frac",
    "prox.lasso_path_solve.time_s": "s",
    "prox.lasso_path_solve.iterations": "count",
    "prox.lasso_path_solve.column_iterations": "count",
    "prox.lasso_path_solve.capped": "count",
    "prox.lasso_path_solve.kkt_max": "ratio",
    "prox.lasso_path_solve.kkt_winner": "ratio",
    "solver.outlier_pursuit.time_s": "s",
    "solver.outlier_pursuit.iterations": "count",
    "solver.outlier_pursuit.unconverged": "count",
    "solver.outlier_pursuit.residual_max": "ratio",
    "solver.rmc_solve.time_s": "s",
    "solver.rmc_solve.iterations": "count",
    "solver.rmc_solve.unconverged": "count",
    "solver.rmc_solve.residual_max": "ratio",
    "solver.subspace_basis.time_s": "s",
    "solver.subspace_basis.dim": "count",
    "pipeline.self_s": "s",
    "pipeline.extract_support.time_s": "s",
    "pipeline.guard_fired": "count",
    "pipeline.measurements": "count",
    "sketching.time_s": "s",
    "sketching.bytes": "B",
    "synth.generate_instance.time_s": "s",
    "synth.bernoulli_mask.time_s": "s",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "detection", "args", "kwargs", "result")

    def __init__(self, name, parent, detection):
        self.name = name
        self.parent = parent
        self.detection = detection
        self.start = self.end = 0.0
        self.args = self.kwargs = self.result = None


class Tracer:
    """In-memory span recorder; ``detection`` tags the spans of one detection."""

    def __init__(self):
        self.spans: list[Span] = []
        self.detection: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name):
        """Span around a block; nested spans name it as their parent."""
        span = Span(name, self._stack[-1] if self._stack else None, self.detection)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name) as span:
                span.result = fn(*args, **kwargs)
            span.args, span.kwargs = args, kwargs
            return span.result

        return traced

    @contextmanager
    def patched(self, module):
        """Replace the layer names of ``module`` with recording wrappers."""
        originals = {attr: getattr(module, attr) for attr in LAYERS}
        for attr, fn in originals.items():
            setattr(module, attr, self._wrap(LAYERS[attr], fn))
        try:
            yield
        finally:
            for attr, fn in originals.items():
                setattr(module, attr, fn)

    @contextmanager
    def detection_span(self, module, name, idx):
        """Root span of detection ``idx``, with ``module``'s layers traced."""
        self.detection = idx
        try:
            with self.patched(module), self.span(name):
                yield
        finally:
            self.detection = None

    def dump(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "detection": s.detection,
            }
            for s in self.spans
        ]


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -np.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[Span], first: int) -> list[float]:
    """Self time of each span in ``spans[first:]``: its duration minus the
    part of that interval its child spans cover."""
    children: dict[int, list] = {}
    for idx in range(first, len(spans)):
        parent = spans[idx].parent
        if parent is not None and parent >= first:
            children.setdefault(parent, []).append((spans[idx].start, spans[idx].end))
    return [
        (spans[idx].end - spans[idx].start) - _covered(children.get(idx, ()))
        for idx in range(first, len(spans))
    ]


def lasso_kkt(design, observation, regs, coeffs) -> np.ndarray:
    """Relative KKT residual of each LASSO path point.

    For min 1/2 ||y - D c||^2 + mu ||c||_1 the optimality conditions are
    g_j = mu sign(c_j) where c_j != 0 and |g_j| <= mu where c_j = 0, with
    g = D^T (y - D c).  Returns max_j violation / mu per path point.
    """
    D = np.asarray(design, dtype=float)
    y = np.asarray(observation, dtype=float).ravel()
    regs = np.asarray(regs, dtype=float)
    G = D.T @ (y[:, None] - D @ coeffs)
    viol = np.where(
        coeffs != 0,
        np.abs(G - regs * np.sign(coeffs)),
        np.maximum(np.abs(G) - regs, 0.0),
    )
    return viol.max(axis=0) / regs


class LayerStats:
    """Accumulates per-detection layer records into the per-layer metrics."""

    def __init__(self):
        self.detections = 0
        self.detect_s = 0.0
        self.self_s: dict[str, float] = {}
        self.lasso_iters: list[int] = []
        self.lasso_col_iters: list[int] = []
        self.lasso_capped = 0
        self.kkt_max = 0.0
        self.kkt_winner = 0.0
        self.solver: dict[str, list] = {"outlier_pursuit": [], "rmc_solve": []}
        self.dims: list[int] = []
        self.guard_fired = 0
        self.measurements = 0
        self.sketch_bytes = 0
        self.overhead: list[float] = []

    def add_detection(self, spans: list[Span], first: int, est, measurements: int) -> float:
        """Fold the spans ``spans[first:]`` of one detection (the first is
        its root) into the totals; returns |sum of self times - root
        duration|, which is zero when every span nests inside the root."""
        selfs = self_times(spans, first)
        root = spans[first]
        self.detections += 1
        self.detect_s += root.end - root.start
        self.self_s["pipeline"] = self.self_s.get("pipeline", 0.0) + selfs[0]
        self.measurements += measurements
        for span, own in zip(spans[first + 1 :], selfs[1:]):
            attr = span.name.rsplit(".", 1)[1]
            layer = "sketching" if span.name.startswith("sketching.") else span.name
            self.self_s[layer] = self.self_s.get(layer, 0.0) + own
            result = span.result
            if attr == "lasso_path_solve":
                design, observation, regs = span.args[:3]
                coeffs, iters = result
                max_iters = span.kwargs.get("max_iters", LASSO_MAX_ITERS)
                kkt = lasso_kkt(design, observation, regs, coeffs)
                self.lasso_iters.append(iters)
                self.lasso_col_iters.append(iters * len(regs))
                self.lasso_capped += iters >= max_iters
                self.kkt_max = max(self.kkt_max, float(kkt.max()))
                winner = np.nonzero(np.asarray(regs) == est.mu_used)[0]
                if winner.size:
                    self.kkt_winner = max(self.kkt_winner, float(kkt[winner[0]]))
            elif attr in self.solver:
                self.solver[attr].append((result.iterations, result.converged, result.residual))
            elif attr == "subspace_basis":
                self.dims.append(result.dim)
            elif attr == "extract_support":
                scores = span.args[0]
                self.guard_fired += (not np.any(scores)) and bool(np.any(est.scores))
            elif layer == "sketching":
                self.sketch_bytes += result.matrix.nbytes
                if result.indices is not None:
                    self.sketch_bytes += result.indices.nbytes
            span.args = span.kwargs = span.result = None
        return abs(sum(selfs) - (root.end - root.start))

    def metrics(self, spans: list[Span]) -> dict[str, float]:
        """Per-layer metrics; ``spans`` supplies the set-up (synth) spans."""
        n = max(self.detections, 1)

        def per_detection(layer):
            return self.self_s.get(layer, 0.0) / n

        def mean(values):
            return float(np.mean(values)) if values else 0.0

        out = {
            "pipeline.detect_s": self.detect_s / n,
            "trace.overhead_frac": float(np.median(self.overhead)) if self.overhead else 0.0,
            "prox.lasso_path_solve.time_s": per_detection("prox.lasso_path_solve"),
            "prox.lasso_path_solve.iterations": mean(self.lasso_iters),
            "prox.lasso_path_solve.column_iterations": mean(self.lasso_col_iters),
            "prox.lasso_path_solve.capped": self.lasso_capped,
            "prox.lasso_path_solve.kkt_max": self.kkt_max,
            "prox.lasso_path_solve.kkt_winner": self.kkt_winner,
        }
        for name, calls in self.solver.items():
            prefix = "solver." + name
            out[prefix + ".time_s"] = per_detection(prefix)
            out[prefix + ".iterations"] = mean([c[0] for c in calls])
            out[prefix + ".unconverged"] = sum(not c[1] for c in calls)
            out[prefix + ".residual_max"] = max((c[2] for c in calls), default=0.0)
        out["solver.subspace_basis.time_s"] = per_detection("solver.subspace_basis")
        out["solver.subspace_basis.dim"] = mean(self.dims)
        out["pipeline.self_s"] = per_detection("pipeline")
        out["pipeline.extract_support.time_s"] = per_detection("pipeline.extract_support")
        out["pipeline.guard_fired"] = self.guard_fired
        out["pipeline.measurements"] = self.measurements / n
        out["sketching.time_s"] = per_detection("sketching")
        out["sketching.bytes"] = self.sketch_bytes / n
        for name in ("synth.generate_instance", "synth.bernoulli_mask"):
            out[name + ".time_s"] = mean([s.end - s.start for s in spans if s.name == name])
        return {name: out[name] for name in PER_LAYER_UNITS}
