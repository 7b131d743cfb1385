"""Synthetic rosette sequences: logistic leaf growth around a plant center,
optional rotation events, occlusion, detector noise, and a motion-only
baseline tracker to compare against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .embedding import normalize
from .geometry import BBox, LeafBox, iou_matrix
from .metrics import check_iou_threshold, match_by_iou
from .tracker import Detection, FrameResult

# A clutter box's side is at least this fraction of the shorter frame side.
CLUTTER_MIN_SIDE = 0.03
# Below this side a coordinate still resolves 1.2e-7, so the smallest box
# generate draws, a leaf about 0.27 on a side at birth, keeps a positive
# corner area (geometry.BBox); at 1e20 every leaf box rounds to zero area.
MAX_FRAME_SIDE = 10**9


def _logistic_area(area_max: float, rate: float, midpoint: float, frame: int) -> float:
    """Leaf area on a logistic growth curve: area_max / (1 + exp(-rate * (frame - midpoint)))."""
    return area_max / (1.0 + math.exp(-rate * (frame - midpoint)))


@dataclass(eq=False)
class LeafModel:
    """One simulated leaf: polar placement, growth curve, appearance."""

    leaf_id: int
    birth_frame: int
    death_frame: int | None
    radius: float
    angle: float
    area_max: float
    rate: float
    midpoint: float
    latent: np.ndarray
    drift_dir: np.ndarray


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs for one synthetic sequence.

    rotation_events are (frame, angle_radians) pairs; each event adds a
    permanent angular offset to every leaf from that frame on.
    occlusion_windows are (leaf_id, first_frame, last_frame) inclusive
    spans during which the leaf is hidden entirely.

    Each range is one closed interval, which NaN and +-inf fail: frame
    sides [32, MAX_FRAME_SIDE]; occlusion_prob, miss_prob, death_prob
    [0, 1]; fp_rate [0, frame area / (CLUTTER_MIN_SIDE * shorter side)^2];
    box_jitter_std [0, longer side]; embedding_noise_std and the total
    drift embedding_drift_rate * n_frames [0, 1e306].
    """

    n_frames: int
    n_leaves: int
    frame_width: int = 512
    frame_height: int = 512
    occlusion_prob: float = 0.0
    rotation_events: tuple[tuple[int, float], ...] = ()
    occlusion_windows: tuple[tuple[int, int, int], ...] = ()
    miss_prob: float = 0.0
    fp_rate: float = 0.0
    box_jitter_std: float = 0.0
    conf_lo: float = 1.0
    conf_hi: float = 1.0
    embedding_dim: int = 128
    embedding_noise_std: float = 0.0
    embedding_drift_rate: float = 0.0
    latent_similarity: float = 0.0
    birth_window: int = 0
    death_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_frames < 1 or self.n_leaves < 1:
            raise ValueError("scenario needs at least one frame and one leaf")
        width, height = self.frame_width, self.frame_height
        if not (32 <= width <= MAX_FRAME_SIDE and 32 <= height <= MAX_FRAME_SIDE):
            raise ValueError(f"frame sides must lie in [32, {MAX_FRAME_SIDE}], got {width}x{height}")
        # More clutter per frame than the smallest clutter boxes could tile is
        # no longer noise, and at 1e300 the Poisson sampler refuses the rate.
        smallest = CLUTTER_MIN_SIDE * min(width, height)
        for name, value, top in (
            ("occlusion_prob", self.occlusion_prob, 1.0),
            ("miss_prob", self.miss_prob, 1.0),
            ("death_prob", self.death_prob, 1.0),
            ("fp_rate", self.fp_rate, width * height / smallest**2),
            # Beyond the frame a jitter is no longer noise, and at 1e300 IoU overflows.
            ("box_jitter_std", self.box_jitter_std, max(width, height)),
            # Total drift is embedding_drift_rate * n_frames; the bound keeps embeddings finite.
            ("embedding_noise_std", self.embedding_noise_std, 1e306),
            ("embedding_drift_rate * n_frames", self.embedding_drift_rate * self.n_frames, 1e306),
        ):
            if not 0.0 <= value <= top:
                raise ValueError(f"{name} must lie in [0, {top:g}], got {value}")
        if not 0.0 <= self.conf_lo <= self.conf_hi <= 1.0:
            raise ValueError("need 0 <= conf_lo <= conf_hi <= 1")
        if self.embedding_dim < 2:
            raise ValueError(f"embedding_dim must be at least 2, got {self.embedding_dim}")
        if not 0.0 <= self.latent_similarity < 1.0:
            raise ValueError("latent_similarity must lie in [0, 1)")
        if self.birth_window < 0 or self.birth_window >= self.n_frames:
            raise ValueError("birth_window must lie in [0, n_frames)")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        for frame, angle in self.rotation_events:
            if frame < 1:
                raise ValueError(f"bad rotation event ({frame}, {angle})")
        if not math.isfinite(sum(abs(angle) for _, angle in self.rotation_events)):
            raise ValueError("rotation event angles must have a finite sum")
        for leaf_id, start, end in self.occlusion_windows:
            if not 1 <= leaf_id <= self.n_leaves:
                raise ValueError(f"occlusion window names unknown leaf {leaf_id}")
            if not 1 <= start <= end <= self.n_frames:
                raise ValueError(f"bad occlusion window ({leaf_id}, {start}, {end})")


def _unit_gaussian(rng: np.random.Generator, dim: int) -> np.ndarray:
    return normalize(rng.normal(size=dim))


def _build_leaves(cfg: ScenarioConfig, rng: np.random.Generator) -> list[LeafModel]:
    shared = _unit_gaussian(rng, cfg.embedding_dim)
    mix = math.sqrt(cfg.latent_similarity)
    spread = math.sqrt(1.0 - cfg.latent_similarity)
    leaves = []
    for k in range(cfg.n_leaves):
        birth = 1 + (int(rng.integers(cfg.birth_window + 1)) if cfg.birth_window else 0)
        death = None
        if cfg.death_prob and rng.random() < cfg.death_prob:
            low = max(birth + 1, (2 * cfg.n_frames) // 3)
            if low <= cfg.n_frames:
                death = int(rng.integers(low, cfg.n_frames + 1))
        leaves.append(
            LeafModel(
                leaf_id=k + 1,
                birth_frame=birth,
                death_frame=death,
                radius=rng.uniform(0.15, 0.38) * min(cfg.frame_width, cfg.frame_height),
                angle=rng.uniform(0.0, 2.0 * math.pi),
                area_max=rng.uniform(576.0, 3136.0),
                rate=rng.uniform(0.2, 0.6),
                midpoint=rng.uniform(birth + 3.0, birth + 15.0),
                latent=normalize(mix * shared + spread * _unit_gaussian(rng, cfg.embedding_dim)),
                drift_dir=_unit_gaussian(rng, cfg.embedding_dim),
            )
        )
    return leaves


def generate(cfg: ScenarioConfig):
    """Synthesize one sequence.

    Returns:
        (gt, det, truth_map) where gt lists one geometry.LeafBox per
        visible leaf per frame, det maps frame -> detection list (every
        frame key present, possibly empty), and truth_map maps
        (frame, detection_index) -> leaf_id for exactly the non-spurious
        detections.
    """
    rng = np.random.default_rng(cfg.seed)
    leaves = _build_leaves(cfg, rng)
    hidden = set()
    for leaf_id, start, end in cfg.occlusion_windows:
        for frame in range(start, end + 1):
            hidden.add((leaf_id, frame))
    events = sorted(cfg.rotation_events)

    cx0 = cfg.frame_width / 2.0
    cy0 = cfg.frame_height / 2.0
    gt: list[LeafBox] = []
    det: dict[int, list[Detection]] = {}
    truth_map: dict[tuple[int, int], int] = {}
    for frame in range(1, cfg.n_frames + 1):
        rotation = sum(angle for event_frame, angle in events if event_frame <= frame)
        rows: list[Detection] = []
        det[frame] = rows
        for leaf in leaves:
            if frame < leaf.birth_frame:
                continue
            if leaf.death_frame is not None and frame >= leaf.death_frame:
                continue
            if (leaf.leaf_id, frame) in hidden:
                continue
            if cfg.occlusion_prob and rng.random() < cfg.occlusion_prob:
                continue
            side = math.sqrt(_logistic_area(leaf.area_max, leaf.rate, leaf.midpoint, frame))
            theta = leaf.angle + rotation
            cx = cx0 + leaf.radius * math.cos(theta)
            cy = cy0 + leaf.radius * math.sin(theta)
            box = BBox(cx - side / 2.0, cy - side / 2.0, side, side)
            gt.append(LeafBox(frame, leaf.leaf_id, box))

            if cfg.miss_prob and rng.random() < cfg.miss_prob:
                continue
            if cfg.box_jitter_std:
                du, dv, dw, dh = rng.normal(0.0, cfg.box_jitter_std, 4).tolist()
            else:
                du = dv = dw = dh = 0.0
            observed = BBox(
                box.u + du, box.v + dv, max(box.w + dw, 2.0), max(box.h + dh, 2.0)
            )
            raw = leaf.latent + leaf.drift_dir * (cfg.embedding_drift_rate * frame)
            if cfg.embedding_noise_std:
                raw = raw + rng.normal(0.0, cfg.embedding_noise_std, cfg.embedding_dim)
            confidence = float(rng.uniform(cfg.conf_lo, cfg.conf_hi))
            truth_map[(frame, len(rows))] = leaf.leaf_id
            rows.append(Detection(observed, confidence, raw))

        if cfg.fp_rate:
            for _ in range(int(rng.poisson(cfg.fp_rate))):
                extent = min(cfg.frame_width, cfg.frame_height)
                size = rng.uniform(CLUTTER_MIN_SIDE, 0.09) * extent
                u = rng.uniform(0.0, cfg.frame_width - size)
                v = rng.uniform(0.0, cfg.frame_height - size)
                confidence = float(rng.uniform(cfg.conf_lo, cfg.conf_hi))
                raw = rng.normal(size=cfg.embedding_dim)
                rows.append(Detection(BBox(u, v, size, size), confidence, raw))
    return gt, det, truth_map


def baseline_iou_tracker(
    frames: Mapping[int, list[Detection]], iou_threshold: float
) -> list[FrameResult]:
    """Motion-only reference tracker with one frame of memory.

    Current detections are matched to the previous frame's assigned
    boxes by match_by_iou at iou_threshold, which must lie in (0, 1].
    Appearance is never used; a track that misses one frame is gone.
    Output rows follow the same conventions as the main tracker.
    """
    check_iou_threshold(iou_threshold)
    results = []
    previous: list[tuple[int, BBox]] = []
    next_id = 1
    for frame in sorted(frames):
        dets = frames[frame]
        overlap = iou_matrix([box for _, box in previous], [d.box for d in dets])
        det_of_prev = dict(match_by_iou(overlap, iou_threshold))
        assignments = [(previous[ti][0], dj, dets[dj].box) for ti, dj in det_of_prev.items()]
        pruned = [tid for ti, (tid, _) in enumerate(previous) if ti not in det_of_prev]
        matched_dets = set(det_of_prev.values())
        new_ids: list[int] = []
        for dj, detection in enumerate(dets):
            if dj in matched_dets:
                continue
            assignments.append((next_id, dj, detection.box))
            new_ids.append(next_id)
            next_id += 1
        previous = [(tid, box) for tid, _, box in assignments]
        results.append(FrameResult(frame, assignments, new_ids, pruned))
    return results
