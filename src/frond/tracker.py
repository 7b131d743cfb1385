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
from .embedding import normalize
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
        if not math.isfinite(conf) or not 0.0 <= conf <= 1.0:
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
class Track:
    """Memory-bank entry for one tracked leaf."""

    track_id: int
    prototype: np.ndarray
    age: int
    born_at: int
    embedding_sum: np.ndarray  # absorbed embeddings; only mean mode reads or adds to it


@dataclass(eq=False)
class MemoryBank:
    """Live tracks in creation order plus the monotonic id allocator."""

    tracks: list[Track] = field(default_factory=list)
    next_id: int = 1
    dim: int | None = None


@dataclass
class FrameResult:
    """Tracker output for one frame.

    assignments lists every labeled detection as (track_id,
    detection_index, box), newly created tracks included; detection
    indices refer to positions in the frame's input detection list.
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
        ValueError: on an embedding dimension mismatch.
    """
    kept = [(j, det) for j, det in enumerate(detections) if det.confidence >= params.conf_min]
    dim = bank.dim
    for _, det in kept:
        d = det.embedding.shape[0]
        if dim is None:
            dim = d
        elif d != dim:
            raise ValueError(f"dimension mismatch: embedding has {d} components, bank uses {dim}")

    pairs = []
    if bank.tracks and kept:
        prototypes = np.stack([t.prototype for t in bank.tracks])
        embeddings = np.stack([det.embedding for _, det in kept])
        similarity = similarity_matrix(prototypes, embeddings)
        pairs = gate_assignment(hungarian(1.0 - similarity), similarity, params.tau_s).pairs
    det_of_track = dict(pairs)

    assignments = []
    for ti, track in enumerate(bank.tracks):
        dj = det_of_track.get(ti)
        if dj is None:
            track.age += 1
            continue
        raw_index, det = kept[dj]
        _absorb(track, det.embedding, params)
        track.age = 0
        assignments.append((track.track_id, raw_index, det.box))
    pruned = [t.track_id for t in bank.tracks if t.age > params.tau_a]
    bank.tracks = [t for t in bank.tracks if t.age <= params.tau_a]

    matched_dets = set(det_of_track.values())
    new_ids = []
    for dj, (raw_index, det) in enumerate(kept):
        if dj in matched_dets:
            continue
        track_id = bank.next_id
        bank.next_id += 1
        # _absorb only rebinds prototype and embedding_sum, so one copy serves both.
        embedding = det.embedding.copy()
        bank.tracks.append(
            Track(
                track_id=track_id,
                prototype=embedding,
                age=0,
                born_at=frame,
                embedding_sum=embedding,
            )
        )
        new_ids.append(track_id)
        assignments.append((track_id, raw_index, det.box))
    bank.dim = dim

    assignments.sort(key=lambda entry: entry[0])
    return FrameResult(frame, assignments, new_ids, sorted(pruned))


def _absorb(track: Track, embedding: np.ndarray, params: TrackerParams) -> None:
    # Rebind, never update in place: a new track's two fields share one array.
    if params.ema_mode == "ema":
        blended = params.alpha * track.prototype + (1.0 - params.alpha) * embedding
    else:
        track.embedding_sum = blended = track.embedding_sum + embedding
    try:
        track.prototype = normalize(blended)
    except ValueError:
        # The blend of finite unit vectors can only fail as the zero vector: a
        # match opposite to its prototype (a gate at tau_s = -1 admits one)
        # cancels it.  The prototype then takes the detection's embedding.
        track.prototype = embedding.copy()


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
