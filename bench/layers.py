"""Outside-in layer trace: spans and counters around calls between frond modules.

Each wrapper replaces a module-level name that a caller resolves at call
time (for example `frond.tracker.hungarian`, which `step` calls), records
a span (name, start, end, parent) in memory and updates exact counters.
Only public functions are wrapped and nothing under src/ changes.  A
span's self time is its duration minus the time its child spans cover;
time outside every span is reported as trace.unattributed_s, so the self
times and that remainder sum to the traced wall time.
"""

from __future__ import annotations

import json
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

import frond.cli
import frond.fileio
import frond.metrics
import frond.simulator
import frond.tracker

from workloads import EVAL_IOU

# Span name -> per-layer time metric fed by the span's self time.
SPAN_METRIC = {
    "cli.main": "cli.main_self_s",
    "simulator.generate": "simulator.generate_s",
    "fileio.write_detections": "fileio.write_detections_s",
    "fileio.read_detections": "fileio.read_detections_s",
    "fileio.write_gt": "fileio.write_gt_s",
    "fileio.read_gt": "fileio.read_gt_s",
    "fileio.write_results": "fileio.write_results_s",
    "fileio.read_results": "fileio.read_results_s",
    "fileio.other": "fileio.other_s",
    "tracker.run_sequence": "tracker.run_sequence_s",
    "tracker.step": "tracker.step_self_s",
    "assignment.similarity": "assignment.similarity_s",
    "assignment.gate": "assignment.gate_s",
    "assignment.solve.tracker": "assignment.solve_s.tracker",
    "assignment.solve.match_frames": "assignment.solve_s.match_frames",
    "assignment.solve.idf1": "assignment.solve_s.idf1",
    "geometry.iou_matrix": "geometry.iou_matrix_s",
    "metrics.match_frames": "metrics.match_frames_s",
    "metrics.report": "metrics.report_s",
    "metrics.leaf_matrix": "metrics.leaf_matrix_s",
    "embedding.sample_triplets": "embedding.sample_triplets_s",
}
COUNTERS = (
    "simulator.detections",
    "fileio.det_bytes",
    "tracker.steps",
    "tracker.tracks_created",
    "tracker.tracks_pruned",
    "assignment.gate_rejects",
    "assignment.solve_calls",
    "assignment.solve_cells",
    "assignment.solve_padded_cells",
    "geometry.iou_cells",
    "geometry.eligible_cells",
    "metrics.match_frames_calls",
    "embedding.triplets",
)


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counters: Counter = Counter()

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[index][1:3] = [start, end]

    def parent_name(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def self_times(self) -> dict[str, float]:
        covered = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            totals[name] += (end - start) - covered[index]
        return totals

    def dump(self, path: Path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"name": n, "start": s - origin, "end": e - origin, "parent": p}
            for n, s, e, p in self.spans
        ]
        path.write_text(json.dumps({"spans": rows, "counters": dict(self.counters)}) + "\n")


def _solver_counts(tracer, args, result):
    rows, cols = np.shape(args[0])
    tracer.counters["assignment.solve_calls"] += 1
    tracer.counters["assignment.solve_cells"] += rows * cols
    tracer.counters["assignment.solve_padded_cells"] += max(rows, cols) ** 2


def _step_counts(tracer, args, result):
    tracer.counters["tracker.steps"] += 1
    tracer.counters["tracker.tracks_created"] += len(result.new_track_ids)
    tracer.counters["tracker.tracks_pruned"] += len(result.pruned_track_ids)


def _gate_counts(tracer, args, result):
    tracer.counters["assignment.gate_rejects"] += len(args[0].pairs) - len(result.pairs)


def _iou_counts(tracer, args, result):
    tracer.counters["geometry.iou_cells"] += result.size
    tracer.counters["geometry.eligible_cells"] += int(np.count_nonzero(result >= EVAL_IOU))


def _generate_counts(tracer, args, result):
    tracer.counters["simulator.detections"] += sum(len(rows) for rows in result[1].values())


def _det_write_counts(tracer, args, result):
    tracer.counters["fileio.det_bytes"] += os.path.getsize(args[1])


def _det_read_counts(tracer, args, result):
    tracer.counters["fileio.det_bytes"] += os.path.getsize(args[0])


def _match_counts(tracer, args, result):
    tracer.counters["metrics.match_frames_calls"] += 1


def _triplet_counts(tracer, args, result):
    tracer.counters["embedding.triplets"] += len(result)


def _metrics_solver_span(tracer) -> str:
    if tracer.parent_name() == "metrics.match_frames":
        return "assignment.solve.match_frames"
    return "assignment.solve.idf1"


_FILEIO_OTHER = ("read_scenario_config", "write_truth_map", "write_leaf_matrix_csv", "write_triplets")

# (module, attribute, span name or callable choosing it, counter update)
_WRAPS = [
    (frond.cli, "generate", "simulator.generate", _generate_counts),
    (frond.simulator, "generate", "simulator.generate", _generate_counts),
    (frond.fileio, "write_detections", "fileio.write_detections", _det_write_counts),
    (frond.fileio, "read_detections", "fileio.read_detections", _det_read_counts),
    (frond.fileio, "write_gt", "fileio.write_gt", None),
    (frond.fileio, "read_gt", "fileio.read_gt", None),
    (frond.fileio, "write_results", "fileio.write_results", None),
    (frond.fileio, "read_results", "fileio.read_results", None),
    *[(frond.fileio, name, "fileio.other", None) for name in _FILEIO_OTHER],
    (frond.cli, "run_sequence", "tracker.run_sequence", None),
    (frond.tracker, "step", "tracker.step", _step_counts),
    (frond.tracker, "similarity_matrix", "assignment.similarity", None),
    (frond.tracker, "gate_assignment", "assignment.gate", _gate_counts),
    (frond.tracker, "hungarian", "assignment.solve.tracker", _solver_counts),
    (frond.metrics, "hungarian", _metrics_solver_span, _solver_counts),
    (frond.metrics, "iou_matrix", "geometry.iou_matrix", _iou_counts),
    (frond.metrics, "match_frames", "metrics.match_frames", _match_counts),
    (frond.metrics, "report_from_table", "metrics.report", None),
    (frond.cli, "leaf_accuracy_matrix", "metrics.leaf_matrix", None),
    (frond.cli, "sample_triplets", "embedding.sample_triplets", _triplet_counts),
]


def _wrapper(tracer, fn, span, count):
    def wrapped(*args, **kwargs):
        name = span(tracer) if callable(span) else span
        result = tracer.call(name, fn, *args, **kwargs)
        if count is not None:
            count(tracer, args, result)
        return result

    return wrapped


@contextmanager
def installed(tracer: Tracer):
    """Route the wrapped names through tracer for the duration of the block."""
    originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in _WRAPS]
    try:
        for (module, attr, span, count), (_, _, fn) in zip(_WRAPS, originals):
            setattr(module, attr, _wrapper(tracer, fn, span, count))
        yield tracer
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose wall time was wall."""
    self_times = tracer.self_times()
    out = {metric: 0.0 for metric in SPAN_METRIC.values()}
    for name, seconds in self_times.items():
        out[SPAN_METRIC[name]] += seconds
    c = tracer.counters
    out.update({key: float(c[key]) for key in COUNTERS})
    out["assignment.pad_efficiency"] = c["assignment.solve_cells"] / max(c["assignment.solve_padded_cells"], 1)
    out["geometry.eligible_ratio"] = c["geometry.eligible_cells"] / max(c["geometry.iou_cells"], 1)
    out["trace.wall_s"] = wall
    out["trace.unattributed_s"] = wall - sum(self_times.values())
    return out
