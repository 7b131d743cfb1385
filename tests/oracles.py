"""Brute-force reference implementations used to cross-check the library.

Everything here favors obviousness over speed and deliberately shares no
code with the package: assignment totals come from enumerating
permutations, matching from ranking every injection, identity metrics
from enumerating every gt-to-pred bijection.
"""

import itertools
import math
from collections import defaultdict

import numpy as np


def min_assignment_total(cost) -> float:
    """Minimum assignment total by enumerating every injection of the
    smaller axis into the larger one."""
    c = np.asarray(cost, dtype=np.float64)
    rows, cols = c.shape
    if rows > cols:
        c = c.T
        rows, cols = cols, rows
    perms = np.array(list(itertools.permutations(range(cols), rows)))
    totals = c[np.arange(rows), perms].sum(axis=1)
    return float(totals.min())


def _iou(a, b) -> float:
    iw = min(a.u + a.w, b.u + b.w) - max(a.u, b.u)
    ih = min(a.v + a.h, b.v + b.h) - max(a.v, b.v)
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a.w * a.h + b.w * b.h - inter)


def _best_frame_matching(gt_rows, pred_rows, thr):
    """Best per-frame matching by exhaustive search.

    Ranks every injection by (number of pairs at IoU >= thr, summed IoU
    of those pairs) and returns the winner's [(gt_index, pred_index)].
    """
    n_gt, n_pred = len(gt_rows), len(pred_rows)
    if n_gt == 0 or n_pred == 0:
        return []
    overlaps = [[_iou(g.box, p.box) for p in pred_rows] for g in gt_rows]
    best_key = (-1, -math.inf)
    best_pairs = []
    small, large = min(n_gt, n_pred), max(n_gt, n_pred)
    for perm in itertools.permutations(range(large), small):
        if n_gt <= n_pred:
            pairs = [(i, perm[i]) for i in range(n_gt)]
        else:
            pairs = [(perm[j], j) for j in range(n_pred)]
        valid = [(i, j) for i, j in pairs if overlaps[i][j] >= thr]
        key = (len(valid), sum(overlaps[i][j] for i, j in valid))
        if key > best_key:
            best_key = key
            best_pairs = valid
    return best_pairs


def match_counts(gt, pred, thr=0.5):
    """Per-frame brute-force matching over whole sequences.

    Returns (tp_pairs, fn, fp) where tp_pairs maps frame -> list of
    (gt_id, pred_id).
    """
    gt_by_frame = defaultdict(list)
    for row in gt:
        gt_by_frame[row.frame].append(row)
    pred_by_frame = defaultdict(list)
    for row in pred:
        pred_by_frame[row.frame].append(row)
    frames = sorted(set(gt_by_frame) | set(pred_by_frame))
    tp_pairs = {}
    fn = fp = 0
    for frame in frames:
        g_rows = gt_by_frame.get(frame, [])
        p_rows = pred_by_frame.get(frame, [])
        pairs = _best_frame_matching(g_rows, p_rows, thr)
        tp_pairs[frame] = [(g_rows[i].leaf_id, p_rows[j].track_id) for i, j in pairs]
        fn += len(g_rows) - len(pairs)
        fp += len(p_rows) - len(pairs)
    return tp_pairs, fn, fp


def brute_mota(gt, pred, thr=0.5) -> float:
    """MOTA from brute-force matching and direct switch counting."""
    tp_pairs, fn, fp = match_counts(gt, pred, thr)
    last = {}
    idsw = 0
    for frame in sorted(tp_pairs):
        for gt_id, pred_id in tp_pairs[frame]:
            if gt_id in last and last[gt_id] != pred_id:
                idsw += 1
            last[gt_id] = pred_id
    total_gt = len(list(gt))
    return 1.0 - (fn + fp + idsw) / total_gt


def brute_idf1(gt, pred, thr=0.5) -> float:
    """IDF1 by enumerating every gt-to-pred identity bijection."""
    gt = list(gt)
    pred = list(pred)
    tp_pairs, _, _ = match_counts(gt, pred, thr)
    counts = defaultdict(int)
    for pairs in tp_pairs.values():
        for gt_id, pred_id in pairs:
            counts[(gt_id, pred_id)] += 1
    gt_ids = sorted({g for g, _ in counts})
    pred_ids = sorted({p for _, p in counts})
    best_idtp = 0
    if gt_ids and pred_ids:
        small = gt_ids if len(gt_ids) <= len(pred_ids) else pred_ids
        large = pred_ids if len(gt_ids) <= len(pred_ids) else gt_ids
        for perm in itertools.permutations(large, len(small)):
            if small is gt_ids:
                total = sum(counts.get((g, p), 0) for g, p in zip(small, perm))
            else:
                total = sum(counts.get((g, p), 0) for p, g in zip(small, perm))
            best_idtp = max(best_idtp, total)
    total_gt = len(gt)
    total_pred = len(pred)
    if total_gt == 0 and total_pred == 0:
        return 1.0
    return 2.0 * best_idtp / (total_gt + total_pred)


def prototype_update(prototype, total, embedding, alpha, mean_mode):
    """One matched track's (prototype, total) after absorbing embedding, row by row.

    EMA mode blends alpha * prototype + (1 - alpha) * embedding; mean mode
    adds embedding to the running total (None in EMA mode) and takes
    that.  The blend is then scaled to unit norm: x.x by np.vdot, kept
    as it is within 1e-12 of unit norm, divided by its norm otherwise.
    A blend of exactly zero (an opposite match) takes the embedding.
    The blends of unit vectors never leave the normal range, so no
    rescaling branch is needed here.
    """
    if mean_mode:
        total = total + embedding
        mix = total
    else:
        mix = alpha * prototype + (1.0 - alpha) * embedding
    square = float(np.vdot(mix, mix))
    if square == 0.0:
        return embedding.copy(), total
    norm = math.sqrt(square)
    if abs(norm - 1.0) <= 1e-12:
        return mix.copy(), total
    return mix / norm, total
