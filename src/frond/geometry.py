"""Axis-aligned boxes, their overlap (IoU), and the identity-labeled box row."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Corners within this magnitude keep every IoU term finite: a difference of
# two corners is at most 2e150, and a product of two such differences at
# most 4e300, below the float64 maximum of 1.8e308.
CORNER_BOUND = 1e150


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box with top-left corner (u, v) and positive extent (w, h).

    Coordinates are continuous; no rounding is applied anywhere.  The
    corners (u, v) and (u + w, v + h) lie within +-CORNER_BOUND and span
    a positive area, the one iou_matrix computes, so any two boxes have
    an IoU in [0, 1].  NaN and +-inf fail these checks too.
    """

    u: float
    v: float
    w: float
    h: float

    def __post_init__(self):
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"box extent must be positive, got w={self.w}, h={self.h}")
        u2, v2 = self.u + self.w, self.v + self.h
        if not (
            -CORNER_BOUND <= self.u and -CORNER_BOUND <= self.v
            and u2 <= CORNER_BOUND and v2 <= CORNER_BOUND
        ):
            raise ValueError(
                f"box corners must lie in [-{CORNER_BOUND:g}, {CORNER_BOUND:g}], "
                f"got ({self.u}, {self.v}) to ({u2}, {v2})"
            )
        # A side far below its corner's magnitude rounds away (u + w == u), and a
        # tiny area underflows to 0.
        if not (u2 - self.u) * (v2 - self.v) > 0:
            raise ValueError(
                f"box corner area must be positive, got ({u2} - {self.u}) * ({v2} - {self.v})"
            )


@dataclass(frozen=True)
class LeafBox:
    """One identity-labeled box in one frame, the row type of ground truth and tracker output.

    leaf_id is the annotated leaf in ground truth and, in tracker output,
    the track id: the tracker's claim about which leaf the box shows.
    """

    frame: int
    leaf_id: int
    box: BBox

    def __post_init__(self):
        if self.leaf_id < 1:
            raise ValueError(f"leaf ids start at 1, got {self.leaf_id}")


def _corners(boxes: Sequence[BBox]) -> np.ndarray:
    """(n, 4) array of (u, v, u + w, v + h) for any n, the sums taken in Python floats."""
    return np.array([(b.u, b.v, b.u + b.w, b.v + b.h) for b in boxes]).reshape(len(boxes), 4)


def iou_matrix(boxes_a: Sequence[BBox], boxes_b: Sequence[BBox]) -> np.ndarray:
    """Pairwise IoU between two box lists as a (len(a), len(b)) array."""
    au1, av1, au2, av2 = _corners(boxes_a).T[:, :, None]
    bu1, bv1, bu2, bv2 = _corners(boxes_b).T[:, None, :]
    iw = np.clip(np.minimum(au2, bu2) - np.maximum(au1, bu1), 0.0, None)
    ih = np.clip(np.minimum(av2, bv2) - np.maximum(av1, bv1), 0.0, None)
    inter = iw * ih
    area_a = (au2 - au1) * (av2 - av1)
    area_b = (bu2 - bu1) * (bv2 - bv1)
    return inter / (area_a + area_b - inter)
