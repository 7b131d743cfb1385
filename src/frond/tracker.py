"""Tracking-by-detection over appearance embeddings.

A memory bank keeps one prototype embedding per tracked leaf.  Each frame
is matched to the bank by minimum-cost assignment on (1 - similarity),
low-similarity pairs are gated away, matched prototypes are updated, and
tracks unseen for more than tau_a consecutive frames are pruned.  run_grid
runs many parameter rows over one sequence, sharing a bank between rows
until their gate decisions differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

import numpy as np

from .assignment import gate_assignment, hungarian, similarity_matrix
from .embedding import normalize, normalize_rows
from .geometry import BBox, LeafBox

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
        if not (self.tau_a >= 0 and self.tau_a % 1 == 0):
            raise ValueError(f"tau_a must be a non-negative integer, got {self.tau_a}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")
        # No upper bound: a threshold above 1, inf included, is a valid way to
        # drop everything.  NaN fails the comparison and is rejected.
        if not self.conf_min >= 0.0:
            raise ValueError(f"conf_min must be non-negative, got {self.conf_min}")
        if self.ema_mode not in EMA_MODES:
            raise ValueError(f"ema_mode must be one of {EMA_MODES}, got {self.ema_mode!r}")


@dataclass(frozen=True, eq=False)
class MemoryBank:
    """Live tracks as rows of one matrix, in creation order, plus the id allocator.

    Row i of each field is one track: unit-norm prototype, id and age
    (frames since its last match); sums, the sum of the absorbed
    embeddings, exists only in mean mode.  The first founding fixes the mode
    and the width of prototypes, 0 until then.  A bank is a value: a step
    returns the next bank and leaves the given one as it was.  track_ids
    strictly ascend, as ids are handed out in creation order.
    """

    prototypes: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    track_ids: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    ages: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    sums: np.ndarray | None = None
    next_id: int = 1


@dataclass(frozen=True)
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


def _advance(bank: MemoryBank, detections: list[Detection], rows: dict[int, TrackerParams], frame: int) -> list:
    """Advance one bank by one frame for the rows sharing it: a (next bank, its rows, FrameResult) per pair set.

    rows maps grid indices to params that differ at most in tau_s (in
    mean mode also in alpha).  The frame is proposed once (confidence
    filter, similarity_matrix, hungarian) and gated by each row's tau_s,
    and each distinct gated pair set gives its own next bank.  An empty
    bank takes the width and mode of this frame.

    Raises:
        ValueError: on a mismatch of embedding dimension or of ema_mode.
    """
    params = next(iter(rows.values()))
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
    old_prototypes = bank.prototypes if width else np.zeros((0, dim))
    old_sums = (bank.sums if width else np.zeros((0, dim))) if mean_mode else None
    embeddings = np.array([det.embedding for _, det in kept]).reshape(len(kept), dim)
    similarity = similarity_matrix(old_prototypes, embeddings)
    solved = hungarian(1.0 - similarity)
    by_pairs: dict = {}
    for i, row in rows.items():
        by_pairs.setdefault(tuple(gate_assignment(solved, similarity, row.tau_s).pairs), {})[i] = row

    advanced = []
    for pairs, members in by_pairs.items():
        matched, cols = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
        founders = np.delete(np.arange(len(kept)), cols)
        new_ids = np.arange(bank.next_id, bank.next_id + len(founders))
        track_ids = np.concatenate([bank.track_ids, new_ids])
        ages = np.concatenate([bank.ages + 1, np.zeros_like(new_ids)])
        ages[matched] = 0
        prototypes = np.vstack([old_prototypes, embeddings[founders]])
        sums = np.vstack([old_sums, embeddings[founders]]) if mean_mode else None
        if mean_mode:
            sums[matched] += embeddings[cols]
            blended = sums[matched]
        else:
            blended = params.alpha * old_prototypes[matched] + (1.0 - params.alpha) * embeddings[cols]
        # A blend of finite unit vectors normalizes unless it is zero: a match opposite to
        # its prototype (tau_s = -1 admits one) cancels it and takes the detection's embedding.
        cancelled = ~blended.any(axis=1)
        blended[cancelled] = embeddings[cols[cancelled]]
        prototypes[matched] = normalize_rows(blended)

        keep = ages <= params.tau_a
        labels = np.concatenate([bank.track_ids[matched], new_ids]).tolist()
        dets = np.concatenate([cols, founders]).tolist()
        assignments = [(track_id, kept[dj][0], kept[dj][1].box) for track_id, dj in zip(labels, dets)]
        result = FrameResult(frame, assignments, new_ids.tolist(), track_ids[~keep].tolist())
        after = MemoryBank(
            prototypes[keep], track_ids[keep], ages[keep], sums[keep] if mean_mode else None, bank.next_id + len(founders)
        )
        advanced.append((after, members, result))
    return advanced


def step(
    bank: MemoryBank, detections: list[Detection], params: TrackerParams, frame: int
) -> tuple[MemoryBank, FrameResult]:
    """The next bank and the frame's result: run_grid's frame for one row.

    Confidence-filtered detections are matched to prototypes by
    minimum-cost assignment on (1 - similarity) and gated at tau_s.
    Matched tracks absorb their detection (EMA or running mean, then
    renormalized) and reset age to 0; every other track ages by one and
    is pruned once age exceeds tau_a.  Unmatched detections, gated ones
    included, then found new tracks in detection order.  The given bank
    is left as it was.

    Raises:
        ValueError: on a mismatch of embedding dimension or of ema_mode.
    """
    after, _, result = _advance(bank, detections, {0: params}, frame)[0]
    return after, result


def run_sequence(frames: Mapping[int, list[Detection]], params: TrackerParams) -> list[FrameResult]:
    """Run the tracker over frames in ascending index order: run_grid's one-row case.

    A frame key with an empty detection list still counts as an observed
    image: every track ages that frame.

    Raises:
        ValueError: step errors re-raised with the frame index prefixed.
    """
    return run_grid(frames, [params])[0]


def run_grid(frames: Mapping[int, list[Detection]], grid: Sequence[TrackerParams]) -> list[list[FrameResult]]:
    """run_sequence(frames, params) for each params of grid, in grid order.

    Rows that differ only in tau_s (in mean mode, which never reads alpha,
    also in alpha) start on one bank.  Each frame advances every bank
    once, as step does, with its proposal solved once and gated by each
    of its rows; rows whose gated pairs differ go on with a next bank
    each.  Rows on one bank share their FrameResult objects.

    Raises:
        ValueError: step errors re-raised with the frame index prefixed.
    """
    groups: dict = {}
    for i, params in enumerate(grid):
        alpha = 0.0 if params.ema_mode == "mean" else params.alpha
        groups.setdefault(replace(params, tau_s=0.0, alpha=alpha), {})[i] = params
    branches = [(MemoryBank(), rows) for rows in groups.values()]
    results: list[list[FrameResult]] = [[] for _ in grid]
    for frame in sorted(frames):
        next_branches = []
        try:
            for bank, rows in branches:
                for after, members, result in _advance(bank, frames[frame], rows, frame):
                    for i in members:
                        results[i].append(result)
                    next_branches.append((after, members))
        except ValueError as err:
            raise ValueError(f"frame {frame}: {err}") from err
        branches = next_branches
    return results


def tracked_boxes(results: Iterable[FrameResult]) -> list[LeafBox]:
    """Flatten frame results into evaluation rows, each track id as leaf_id, in the results' order.

    run_sequence and simulator.baseline_iou_tracker emit frames in ascending
    order and each frame's assignments in ascending track id, so their rows
    come sorted by (frame, id).
    """
    return [LeafBox(res.frame, track_id, box) for res in results for track_id, _, box in res.assignments]
