"""Unit-norm appearance embeddings: normalization, triplet loss, triplet sampling."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

import numpy as np

CROSS_PLANT_FLEXIBLE = "cross_plant_flexible"
INTRA_PLANT_FULL_CYCLE = "intra_plant_full_cycle"
INTRA_PLANT_TEMPORAL_WINDOW = "intra_plant_temporal_window"
STRATEGY_KINDS = (CROSS_PLANT_FLEXIBLE, INTRA_PLANT_FULL_CYCLE, INTRA_PLANT_TEMPORAL_WINDOW)

_RETRY_LIMIT = 1000
_UNIT_TOL = 1e-12
_SMALLEST_NORMAL = sys.float_info.min


def normalize(values) -> np.ndarray:
    """Scale a vector to unit L2 norm.

    A vector already within 1e-12 of unit norm is returned unchanged, so
    normalization is an exact no-op on stored unit vectors and repeated
    application never drifts.  Finite vectors whose squared norm
    overflows or underflows are first divided by their largest absolute
    entry, so any non-zero finite vector normalizes.

    Raises:
        ValueError: on a zero or non-finite vector.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.shape[0] < 1:
        raise ValueError(f"embedding must be a non-empty 1-d vector, got shape {v.shape}")
    # One pass: np.linalg.norm of a 1-d float vector is exactly sqrt(x.x)
    # with x = v.ravel("K"), and np.vdot computes x.x bit for bit like
    # x.dot(x) but raises no floating-point warning.  A nan or inf entry, a
    # zero vector and a squared norm that overflowed or lost precision to
    # underflow all land outside [smallest normal, inf), so the entry scan
    # runs only then.
    x = v.ravel(order="K")
    sq = float(np.vdot(x, x))
    if not _SMALLEST_NORMAL <= sq < math.inf:
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite embedding value")
        peak = float(np.abs(v).max())
        if peak == 0.0:
            raise ValueError("cannot normalize a zero vector")
        v = v / peak
        sq = float(v.dot(v))
    norm = math.sqrt(sq)
    if abs(norm - 1.0) <= _UNIT_TOL:
        return v.copy()
    return v / norm


def normalize_rows(rows) -> np.ndarray:
    """normalize of every row of a 2-d array, bit for bit, in one batch.

    On C-contiguous rows a stacked matmul gives each row's x.x exactly as
    np.vdot does (on column-strided rows it may not); rows whose square
    lies outside [smallest normal, inf) go through normalize, which raises
    on a zero or non-finite row.
    """
    m = np.ascontiguousarray(rows, dtype=np.float64)
    with np.errstate(all="ignore"):  # only rows that normalize redoes below can warn
        sq = np.matmul(m[:, None, :], m[:, :, None]).reshape(len(m))
        norm = np.sqrt(sq)
        # Division by 1.0 is exact, so a row already of unit norm is kept.
        out = m / np.where(np.abs(norm - 1.0) <= _UNIT_TOL, 1.0, norm)[:, None]
    for i in np.flatnonzero(~((sq >= _SMALLEST_NORMAL) & (sq < math.inf))):
        out[i] = normalize(m[i])
    return out


def triplet_margin_loss(anchor, positive, negative, margin: float = 0.3):
    """Margin loss over squared distances, with its subgradients.

    loss = max(0, |a - p|^2 - |a - n|^2 + margin).  When the hinge is
    active the subgradients are 2(n - p), 2(p - a), 2(a - n) for anchor,
    positive, and negative; when the loss is zero all three are zero
    vectors.

    Returns:
        (loss, (g_anchor, g_positive, g_negative))
    """
    e_a = np.asarray(anchor, dtype=np.float64)
    e_p = np.asarray(positive, dtype=np.float64)
    e_n = np.asarray(negative, dtype=np.float64)
    if not (e_a.shape == e_p.shape == e_n.shape):
        raise ValueError("dimension mismatch between triplet embeddings")
    d_ap = e_a - e_p
    d_an = e_a - e_n
    raw = float(d_ap @ d_ap) - float(d_an @ d_an) + margin
    if raw > 0.0:
        return raw, (2.0 * (e_n - e_p), 2.0 * (e_p - e_a), 2.0 * (e_a - e_n))
    zero = np.zeros_like(e_a)
    return 0.0, (zero, zero.copy(), zero.copy())


class CropRef(NamedTuple):
    """Reference to one annotated leaf crop: which plant, which leaf, when."""

    plant_id: int
    leaf_id: int
    t: int


@dataclass(frozen=True)
class TripletSpec:
    """Anchor/positive/negative crop references for one training triplet."""

    anchor: CropRef
    positive: CropRef
    negative: CropRef

    def __post_init__(self):
        a, p, n = self.anchor, self.positive, self.negative
        if (a.plant_id, a.leaf_id) != (p.plant_id, p.leaf_id):
            raise ValueError("positive must show the same leaf as the anchor")
        if a.t == p.t:
            raise ValueError("positive must come from a different time than the anchor")
        if (n.plant_id, n.leaf_id) == (a.plant_id, a.leaf_id):
            raise ValueError("negative must show a different leaf than the anchor")


@dataclass(frozen=True)
class SamplingStrategy:
    """Which crops qualify as negatives; the window kind also needs delta_t."""

    kind: str
    delta_t: int | None = None

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown sampling strategy: {self.kind!r}")
        if self.kind == INTRA_PLANT_TEMPORAL_WINDOW:
            if self.delta_t is None or self.delta_t < 1:
                raise ValueError("temporal window strategy requires delta_t >= 1")
        elif self.delta_t is not None:
            raise ValueError(f"delta_t is only valid with {INTRA_PLANT_TEMPORAL_WINDOW}")


def check_count_and_seed(count: int, seed: int) -> None:
    """Raise ValueError unless the triplet count and the RNG seed are non-negative."""
    for name, value in (("count", count), ("seed", seed)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")


def sample_triplets(
    corpus: Mapping[int, Mapping[int, Iterable[int]]],
    strategy: SamplingStrategy,
    count: int,
    seed: int,
) -> list[TripletSpec]:
    """Draw training triplets uniformly from an annotated corpus.

    The anchor is drawn uniformly over all crops of leaves observed at
    two or more time points; the positive uniformly over the anchor
    leaf's other time points; the negative uniformly over every crop the
    strategy admits:

      cross_plant_flexible: any crop of a different (plant, leaf).
      intra_plant_full_cycle: same plant, different leaf, any time.
      intra_plant_temporal_window: same plant, different leaf, and
        |t_n - t_a| <= delta_t.

    Args:
        corpus: mapping plant_id -> {leaf_id -> time points at which the
            leaf is annotated, in any order, repeats ignored}.
        strategy: negative admission rule.
        count: number of triplets to draw.
        seed: RNG seed; equal seeds give byte-identical output.

    Raises:
        ValueError: on a negative count or seed, or "unsatisfiable triplet"
            when no anchor exists or no valid negative in 1000 attempts.
    """
    check_count_and_seed(count, seed)
    times_by_leaf = {
        (plant_id, leaf_id): sorted(set(int(t) for t in corpus[plant_id][leaf_id]))
        for plant_id in sorted(corpus)
        for leaf_id in sorted(corpus[plant_id])
    }

    crops = [(p, l, t) for (p, l), ts in times_by_leaf.items() for t in ts]
    anchors = [(p, l, t) for (p, l), ts in times_by_leaf.items() if len(ts) >= 2 for t in ts]
    if not anchors:
        raise ValueError("unsatisfiable triplet: no leaf observed at two or more time points")

    plant_arr = np.array([c[0] for c in crops])
    leaf_arr = np.array([c[1] for c in crops])
    t_arr = np.array([c[2] for c in crops])

    rng = np.random.default_rng(seed)
    triplets = []
    for _ in range(count):
        for attempt in range(_RETRY_LIMIT):
            a_plant, a_leaf, a_t = anchors[int(rng.integers(len(anchors)))]
            pos_times = [t for t in times_by_leaf[(a_plant, a_leaf)] if t != a_t]
            p_t = pos_times[int(rng.integers(len(pos_times)))]
            if strategy.kind == CROSS_PLANT_FLEXIBLE:
                mask = (plant_arr != a_plant) | (leaf_arr != a_leaf)
            elif strategy.kind == INTRA_PLANT_FULL_CYCLE:
                mask = (plant_arr == a_plant) & (leaf_arr != a_leaf)
            else:
                mask = (
                    (plant_arr == a_plant)
                    & (leaf_arr != a_leaf)
                    & (np.abs(t_arr - a_t) <= strategy.delta_t)
                )
            candidates = np.flatnonzero(mask)
            if candidates.size == 0:
                continue
            n_idx = int(candidates[int(rng.integers(candidates.size))])
            triplets.append(
                TripletSpec(
                    anchor=CropRef(a_plant, a_leaf, a_t),
                    positive=CropRef(a_plant, a_leaf, p_t),
                    negative=CropRef(int(plant_arr[n_idx]), int(leaf_arr[n_idx]), int(t_arr[n_idx])),
                )
            )
            break
        else:
            raise ValueError(
                f"unsatisfiable triplet: no valid negative within {_RETRY_LIMIT} attempts "
                f"(strategy {strategy.kind})"
            )
    return triplets
