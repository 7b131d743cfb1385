"""Axis-aligned boxes, overlap measures, and raster crop utilities."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box with top-left corner (u, v) and positive extent (w, h).

    Coordinates are continuous; no rounding is applied anywhere.
    """

    u: float
    v: float
    w: float
    h: float

    def __post_init__(self):
        for name in ("u", "v", "w", "h"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"non-finite box field {name}: {value!r}")
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"box extent must be positive, got w={self.w}, h={self.h}")

    @property
    def area(self) -> float:
        return self.w * self.h

    @property
    def u2(self) -> float:
        return self.u + self.w

    @property
    def v2(self) -> float:
        return self.v + self.h

    def center(self) -> tuple[float, float]:
        return (self.u + self.w / 2.0, self.v + self.h / 2.0)


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two boxes in continuous coordinates."""
    iw = min(a.u2, b.u2) - max(a.u, b.u)
    ih = min(a.v2, b.v2) - max(a.v, b.v)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    return inter / (a.area + b.area - inter)


def iou_matrix(boxes_a: Sequence[BBox], boxes_b: Sequence[BBox]) -> np.ndarray:
    """Pairwise IoU between two box lists as a (len(a), len(b)) array."""
    if not boxes_a or not boxes_b:
        return np.zeros((len(boxes_a), len(boxes_b)))
    au1 = np.array([b.u for b in boxes_a])[:, None]
    av1 = np.array([b.v for b in boxes_a])[:, None]
    au2 = np.array([b.u2 for b in boxes_a])[:, None]
    av2 = np.array([b.v2 for b in boxes_a])[:, None]
    bu1 = np.array([b.u for b in boxes_b])[None, :]
    bv1 = np.array([b.v for b in boxes_b])[None, :]
    bu2 = np.array([b.u2 for b in boxes_b])[None, :]
    bv2 = np.array([b.v2 for b in boxes_b])[None, :]
    iw = np.clip(np.minimum(au2, bu2) - np.maximum(au1, bu1), 0.0, None)
    ih = np.clip(np.minimum(av2, bv2) - np.maximum(av1, bv1), 0.0, None)
    inter = iw * ih
    area_a = (au2 - au1) * (av2 - av1)
    area_b = (bu2 - bu1) * (bv2 - bv1)
    return inter / (area_a + area_b - inter)


@dataclass(eq=False)
class Raster:
    """RGB image with float64 samples in [0, 1], stored row-major as (h, w, 3)."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise ValueError(f"raster must have shape (h, w, 3), got {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("raster must have positive size")
        if not np.all(np.isfinite(arr)):
            raise ValueError("non-finite raster sample")
        if arr.min() < 0.0 or arr.max() > 1.0:
            raise ValueError("raster samples must lie in [0, 1]")
        self.data = arr

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]


def crop_and_resize(image: Raster, box: BBox, out_w: int, out_h: int) -> Raster:
    """Resample the box region of an image to a fixed output size.

    Output pixel centers are mapped into source coordinates and sampled
    with bilinear interpolation between the four surrounding source
    pixels.  Sample points falling outside the image clamp to the edge,
    so a box that overhangs the border replicates border pixels.

    Args:
        image: source raster.
        box: region to resample; must intersect the image bounds.
        out_w: output width in pixels, at least 1.
        out_h: output height in pixels, at least 1.

    Returns:
        A new raster of shape (out_h, out_w, 3).

    Raises:
        ValueError: if the output size is not positive, or the box lies
            entirely outside the image (empty crop).
    """
    if out_w < 1 or out_h < 1:
        raise ValueError(f"output size must be positive, got {out_w}x{out_h}")
    w, h = image.width, image.height
    if box.u >= w or box.u2 <= 0 or box.v >= h or box.v2 <= 0:
        raise ValueError("empty crop: box lies entirely outside the image")
    sx = box.u + (np.arange(out_w) + 0.5) * (box.w / out_w) - 0.5
    sy = box.v + (np.arange(out_h) + 0.5) * (box.h / out_h) - 0.5
    sx = np.clip(sx, 0.0, w - 1.0)
    sy = np.clip(sy, 0.0, h - 1.0)
    x0 = np.floor(sx).astype(int)
    y0 = np.floor(sy).astype(int)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = (sx - x0)[None, :, None]
    fy = (sy - y0)[:, None, None]
    data = image.data
    top = data[y0][:, x0] * (1.0 - fx) + data[y0][:, x1] * fx
    bottom = data[y1][:, x0] * (1.0 - fx) + data[y1][:, x1] * fx
    out = top * (1.0 - fy) + bottom * fy
    return Raster(np.clip(out, 0.0, 1.0))
