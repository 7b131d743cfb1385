"""frond: appearance-based multi-leaf tracking, evaluation, and simulation.

A tracking-by-detection engine that matches per-frame leaf detections to
a memory bank of prototype embeddings, the metrics to score identity
persistence, triplet sampling for training the underlying embedding, a
synthetic scenario generator, and the text formats tying them together.

The package is lazy (PEP 562): ``import frond`` loads no submodule and no
numpy, and each exported name imports its module on first access.  That
lets ``frond.cli`` pin the BLAS thread count before numpy loads.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "assignment": (
        "Assignment",
        "gate_assignment",
        "hungarian",
        "similarity_matrix",
    ),
    "embedding": (
        "CROSS_PLANT_FLEXIBLE",
        "INTRA_PLANT_FULL_CYCLE",
        "INTRA_PLANT_TEMPORAL_WINDOW",
        "CropRef",
        "SamplingStrategy",
        "TripletSpec",
        "normalize",
        "sample_triplets",
        "triplet_margin_loss",
    ),
    "fileio": (
        "read_detections",
        "read_gt",
        "read_results",
        "read_scenario_config",
        "read_tracker_params",
        "read_triplets",
        "read_truth_map",
        "write_detections",
        "write_gt",
        "write_leaf_matrix_csv",
        "write_results",
        "write_triplets",
        "write_truth_map",
    ),
    "geometry": ("BBox", "iou_matrix"),
    "metrics": (
        "CELL_ABSENT",
        "CELL_CORRECT",
        "CELL_FAILURE",
        "GtAnnotation",
        "LeafAccuracyMatrix",
        "MatchTable",
        "MetricReport",
        "daily_accuracy",
        "evaluate",
        "format_report",
        "format_report_machine",
        "leaf_accuracy_matrix",
        "match_frames",
        "report_from_table",
    ),
    "simulator": ("ScenarioConfig", "baseline_iou_tracker", "generate", "logistic_area"),
    "tracker": (
        "Detection",
        "FrameResult",
        "MemoryBank",
        "TrackedBox",
        "TrackerParams",
        "run_sequence",
        "step",
        "tracked_boxes",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
