"""Tracking-by-detection over appearance embeddings.

A memory bank keeps one prototype embedding per tracked leaf.  Each frame
is matched to the bank by minimum-cost assignment on (1 - similarity),
low-similarity pairs are gated away, matched prototypes are updated, and
tracks unseen for more than tau_a consecutive frames are pruned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .assignment import gate_assignment, hungarian, similarity_matrix
from .embedding import normalize, normalize_rows
from .geometry import BBox

EMA_MODES = ("ema", "mean")


@dataclass(eq=False)
class Detection:
    """One detected leaf: box, detector confidence, unit-norm embedding."""

    box: BBox
    confidence: float
    embedding: np.ndarray

    def __post_init__(self):
        conf = float(self.confidence)
        if not 0.0 <= conf <= 1.0:
            raise ValueError(f"confidence must lie in [0, 1], got {self.confidence!r}")
        self.confidence = conf
        self.embedding = normalize(self.embedding)


@dataclass(frozen=True)
class TrackerParams:
    """Tracker thresholds; defaults are the operating point used throughout."""

    tau_s: float = 0.4
    tau_a: int = 5
    alpha: float = 0.5
    conf_min: float = 0.5
    ema_mode: str = "ema"

    def __post_init__(self):
        if not -1.0 <= self.tau_s <= 1.0:
            raise ValueError(f"tau_s must lie in [-1, 1], got {self.tau_s}")
        if not (math.isfinite(self.tau_a) and self.tau_a >= 0 and int(self.tau_a) == self.tau_a):
            raise ValueError(f"tau_a must be a non-negative integer, got {self.tau_a}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        # No upper bound: a threshold above 1, inf included, is a valid way to
        # drop everything.  NaN fails the comparison and is rejected.
        if not self.conf_min >= 0.0:
            raise ValueError(f"conf_min must be non-negative, got {self.conf_min}")
        if self.ema_mode not in EMA_MODES:
            raise ValueError(f"ema_mode must be one of {EMA_MODES}, got {self.ema_mode!r}")


@dataclass(eq=False)
class MemoryBank:
    """Live tracks as rows of one matrix, in creation order, plus the id allocator.

    Row i of each field is one track: unit-norm prototype, id and age
    (frames since its last match); sums, the sum of the absorbed
    embeddings, exists only in mean mode.  The first founding fixes the mode
    and the width of prototypes, 0 until then.  step updates matched rows in
    place, so copy a row to keep it across a step.  track_ids strictly
    ascend, as ids are handed out in creation order.
    """

    prototypes: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    track_ids: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    ages: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    sums: np.ndarray | None = None
    next_id: int = 1


@dataclass
class FrameResult:
    """Tracker output for one frame.

    assignments lists every labeled detection as (track_id,
    detection_index, box), newly created tracks included; detection
    indices refer to positions in the frame's input detection list.
    Every list ascends by track id: assignments because matched rows
    come in bank order and new ids exceed every live one, new_track_ids
    in detection order, and pruned_track_ids in bank order.
    """

    frame: int
    assignments: list[tuple[int, int, BBox]]
    new_track_ids: list[int]
    pruned_track_ids: list[int]


@dataclass(frozen=True)
class TrackedBox:
    """One identity-labeled box, the row type consumed by evaluation."""

    frame: int
    track_id: int
    box: BBox


def step(bank: MemoryBank, detections: list[Detection], params: TrackerParams, frame: int) -> FrameResult:
    """Advance the bank by one frame, in place.

    Confidence-filtered detections are matched to prototypes by
    minimum-cost assignment on (1 - similarity) and gated at tau_s.
    Matched tracks absorb their detection (EMA or running mean, then
    renormalized) and reset age to 0; every other track ages by one and
    is pruned once age exceeds tau_a.  Unmatched detections, gated ones
    included, then found new tracks in detection order.

    Raises:
        ValueError: on a mismatch of embedding dimension or of ema_mode.
    """
    kept = [(j, det) for j, det in enumerate(detections) if det.confidence >= params.conf_min]
    mean_mode = params.ema_mode == "mean"
    width = bank.prototypes.shape[1]
    if width and (bank.sums is not None) != mean_mode:
        founded = "mean" if bank.sums is not None else "ema"
        raise ValueError(f"mode mismatch: ema_mode is {params.ema_mode!r}, bank uses {founded!r}")
    dim = width or (kept[0][1].embedding.shape[0] if kept else 0)
    for _, det in kept:
        d = det.embedding.shape[0]
        if d != dim:
            raise ValueError(f"dimension mismatch: embedding has {d} components, bank uses {dim}")
    if not width:
        bank.prototypes = np.zeros((0, dim))
        bank.sums = np.zeros((0, dim)) if mean_mode else None
    embeddings = np.array([det.embedding for _, det in kept]) if kept else np.zeros((0, dim))

    pairs = []
    if len(bank.track_ids) and kept:
        similarity = similarity_matrix(bank.prototypes, embeddings)
        pairs = gate_assignment(hungarian(1.0 - similarity), similarity, params.tau_s).pairs
    rows, cols = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    if mean_mode:
        bank.sums[rows] += embeddings[cols]
        blended = bank.sums[rows]
    else:
        blended = params.alpha * bank.prototypes[rows] + (1.0 - params.alpha) * embeddings[cols]
    # A blend of finite unit vectors normalizes unless it is zero: a match opposite to
    # its prototype (tau_s = -1 admits one) cancels it and takes the detection's embedding.
    cancelled = ~blended.any(axis=1)
    blended[cancelled] = embeddings[cols[cancelled]]
    bank.prototypes[rows] = normalize_rows(blended)

    bank.ages += 1
    bank.ages[rows] = 0
    keep = bank.ages <= params.tau_a
    founders = np.delete(np.arange(len(kept)), cols)
    new_ids = np.arange(bank.next_id, bank.next_id + len(founders))
    labels = np.concatenate([bank.track_ids[rows], new_ids]).tolist()
    dets = np.concatenate([cols, founders]).tolist()
    assignments = [(track_id, kept[dj][0], kept[dj][1].box) for track_id, dj in zip(labels, dets)]
    pruned = bank.track_ids[~keep].tolist()

    bank.next_id += len(founders)
    bank.track_ids = np.concatenate([bank.track_ids[keep], new_ids])
    bank.ages = np.concatenate([bank.ages[keep], np.zeros_like(new_ids)])
    bank.prototypes = np.vstack([bank.prototypes[keep], embeddings[founders]])
    if mean_mode:
        bank.sums = np.vstack([bank.sums[keep], embeddings[founders]])
    return FrameResult(frame, assignments, new_ids.tolist(), pruned)


def run_sequence(frames: Mapping[int, list[Detection]], params: TrackerParams) -> list[FrameResult]:
    """Run the tracker over frames in ascending index order.

    A frame key with an empty detection list still counts as an observed
    image: every track ages that frame.

    Raises:
        ValueError: step errors re-raised with the frame index prefixed.
    """
    bank = MemoryBank()
    results = []
    for frame in sorted(frames):
        try:
            results.append(step(bank, frames[frame], params, frame))
        except ValueError as err:
            raise ValueError(f"frame {frame}: {err}") from err
    return results


def tracked_boxes(results: Iterable[FrameResult]) -> list[TrackedBox]:
    """Flatten frame results into evaluation rows sorted by (frame, id)."""
    rows = [
        TrackedBox(res.frame, track_id, box)
        for res in results
        for track_id, _, box in res.assignments
    ]
    rows.sort(key=lambda r: (r.frame, r.track_id))
    return rows
