"""Detection and association quality metrics for identity-labeled box sequences.

All metrics run at a single localization threshold: a prediction counts
as a true positive only where a per-frame minimum-cost matching pairs it
with a ground-truth box at IoU >= iou_threshold.  match_frames builds that
table, with its counts, (gt, pred) pair counts and IDF1 bijection;
report_from_table reduces it to DetA, AssA, HOTA, MOTA, IDF1 and ID
switches.  Ground truth and predictions are both geometry.LeafBox
rows; a prediction's leaf_id is its track id.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, fields
from typing import Iterable, Mapping

import numpy as np

from .assignment import hungarian
from .geometry import LeafBox, iou_matrix

CELL_CORRECT = 1
CELL_FAILURE = 0
CELL_ABSENT = -1
CELL_IOU_MIN = 0.75  # a correct leaf-matrix cell also needs this overlap
IOU_THRESHOLD = 0.5  # default localization threshold of match_frames, evaluate and the CLI


@dataclass(frozen=True)
class MatchTable:
    """Per-frame localization outcomes of one tracker run, built whole by match_frames.

    matches maps frame -> [(gt_id, pred_id, iou)] for true positives;
    misses and false_alarms list the frame's unmatched gt and pred ids
    in input order; tp, fn and fp count them.  pair_counts maps each
    (gt_id, pred_id) to its true positives; bijection maps gt_id ->
    pred_id under the optimal IDF1 bijection, whose pairs hold idtp.
    """

    frames: list
    matches: dict
    misses: dict
    false_alarms: dict
    tp: int
    fn: int
    fp: int
    pair_counts: dict
    idtp: int
    bijection: dict


def _identity_bijection(counts: Mapping[tuple, int]) -> tuple[int, dict]:
    """(idtp, bijection): the gt -> pred bijection that maximizes the summed pair counts."""
    bijection: dict = {}
    idtp = 0
    gt_ids = sorted({g for g, _ in counts})
    pred_ids = sorted({p for _, p in counts})
    gt_index = {g: i for i, g in enumerate(gt_ids)}
    pred_index = {p: j for j, p in enumerate(pred_ids)}
    matrix = np.zeros((len(gt_ids), len(pred_ids)))
    for (g, p), c in counts.items():
        matrix[gt_index[g], pred_index[p]] = c
    for gi, pj in hungarian(-matrix).pairs:
        if matrix[gi, pj] > 0:
            bijection[gt_ids[gi]] = pred_ids[pj]
            idtp += int(matrix[gi, pj])
    return idtp, bijection


def match_by_iou(overlap: np.ndarray, threshold: float) -> list[tuple[int, int]]:
    """One-to-one (row, col) pairs of an IoU matrix, each with IoU >= threshold.

    The matching has as many pairs as possible and, among those, the
    least total (1 - IoU).  Pairs are sorted by row index.

    Rows and columns joined by pairs with IoU >= threshold form the
    connected components of a bipartite graph.  No pair can cross two
    components, so both the pair count and the total cost add up over
    components, and solving each component alone is exact.
    """
    n_rows = overlap.shape[0]
    edges = np.argwhere(overlap >= threshold).tolist()
    root = list(range(n_rows + overlap.shape[1]))  # rows, then columns offset by n_rows

    def find(node: int) -> int:
        while root[node] != node:
            root[node] = root[root[node]]
            node = root[node]
        return node

    for i, j in edges:
        root[find(i)] = find(n_rows + j)
    components: dict = {}
    for i in sorted({i for i, _ in edges}):
        components.setdefault(find(i), ([], []))[0].append(i)
    for j in sorted({j for _, j in edges}):
        components[find(n_rows + j)][1].append(j)

    pairs = []
    for rows, cols in components.values():
        if len(rows) == 1 and len(cols) == 1:
            pairs.append((rows[0], cols[0]))
            continue
        sub = overlap[np.ix_(rows, cols)]
        eligible = sub >= threshold
        # Pairs below threshold cost 1e6, which dwarfs any sum of real
        # costs, so the solver first maximizes the number of admissible
        # pairs and only then minimizes cost among them; the filter drops
        # the rest.
        cost = np.where(eligible, 1.0 - sub, 1.0e6)
        pairs += [(rows[a], cols[b]) for a, b in hungarian(cost).pairs if eligible[a, b]]
    return sorted(pairs)


def _group_by_frame(rows: Iterable[LeafBox], side: str) -> dict:
    """Rows grouped per frame in input order; a repeated (frame, leaf_id) raises."""
    by_frame: dict = defaultdict(list)
    seen: set = set()
    for row in rows:
        key = (row.frame, row.leaf_id)
        if key in seen:
            raise ValueError(f"duplicate {side} id {key[1]} in frame {row.frame}")
        seen.add(key)
        by_frame[row.frame].append(row)
    return by_frame


def check_iou_threshold(iou_threshold: float) -> None:
    """Raise ValueError unless iou_threshold lies in (0, 1]."""
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must lie in (0, 1], got {iou_threshold}")


def match_frames(
    gt: Iterable[LeafBox],
    pred: Iterable[LeafBox],
    iou_threshold: float = IOU_THRESHOLD,
) -> MatchTable:
    """Match ground truth against predictions frame by frame: the one MatchTable builder.

    Within each frame a minimum-cost assignment on (1 - IoU) runs over
    pairs with IoU >= iou_threshold; surviving pairs are true positives,
    leftover gt are misses, leftover predictions are false alarms.  Each
    side keeps its input order within a frame, and the solver breaks
    equal-IoU ties by it: of two equal predictions on one gt box, the
    first takes the match.

    Raises:
        ValueError: on a duplicated (frame, id) on either side, or an
            iou_threshold outside (0, 1].
    """
    pred_by_frame = _group_by_frame(pred, "prediction")
    check_iou_threshold(iou_threshold)
    gt_by_frame = _group_by_frame(gt, "ground-truth")
    frames = sorted(set(gt_by_frame) | set(pred_by_frame))
    matches, misses, false_alarms = {}, {}, {}
    for frame in frames:
        g_rows, p_rows = gt_by_frame.get(frame, []), pred_by_frame.get(frame, [])
        overlap = iou_matrix([r.box for r in g_rows], [r.box for r in p_rows])
        pairs = match_by_iou(overlap, iou_threshold)
        matched_g = {gi for gi, _ in pairs}
        matched_p = {pj for _, pj in pairs}
        matches[frame] = [(g_rows[gi].leaf_id, p_rows[pj].leaf_id, float(overlap[gi, pj])) for gi, pj in pairs]
        misses[frame] = [r.leaf_id for i, r in enumerate(g_rows) if i not in matched_g]
        false_alarms[frame] = [r.leaf_id for j, r in enumerate(p_rows) if j not in matched_p]
    pair_counts = Counter((g, p) for frame in frames for g, p, _ in matches[frame])
    tp = sum(len(rows) for rows in matches.values())
    fn = sum(len(ids) for ids in misses.values())
    fp = sum(len(ids) for ids in false_alarms.values())
    idtp, bijection = _identity_bijection(pair_counts)
    return MatchTable(frames, matches, misses, false_alarms, tp, fn, fp, pair_counts, idtp, bijection)


def _association_accuracy(table: MatchTable) -> float:
    """AssA under the majority-vote identity bijection.

    The bijection takes candidate pairs in order of descending match
    count; count ties prefer the earlier-established prediction id, then
    the pair whose first TP is earlier.  Two pairs that share an id never
    share that frame, so no id label decides the pick.  Each gt and each
    pred id is used at most once.  Each frame with at least
    one TP contributes the fraction of its TPs whose (gt, pred) pair
    agrees with the bijection; frames without TPs are skipped.  Returns
    0.0 when no TP exists at all.
    """
    established: dict = {}  # first frame of each prediction id, matched or not
    first_tp: dict = {}  # first frame of each (gt, pred) pair
    for frame in table.frames:
        for gt_id, pred_id, _ in table.matches[frame]:
            established.setdefault(pred_id, frame)
            first_tp.setdefault((gt_id, pred_id), frame)
        for pred_id in table.false_alarms[frame]:
            established.setdefault(pred_id, frame)
    ranked = sorted(
        table.pair_counts.items(),
        key=lambda item: (-item[1], established[item[0][1]], first_tp[item[0]]),
    )
    bijection: dict = {}
    used_preds: set = set()
    for (gt_id, pred_id), _ in ranked:
        if gt_id in bijection or pred_id in used_preds:
            continue
        bijection[gt_id] = pred_id
        used_preds.add(pred_id)
    ratios = []
    for frame in table.frames:
        rows = table.matches[frame]
        if rows:
            agree = sum(1 for gt_id, pred_id, _ in rows if bijection.get(gt_id) == pred_id)
            ratios.append(agree / len(rows))
    return sum(ratios) / len(ratios) if ratios else 0.0


@dataclass(frozen=True)
class MetricReport:
    """All five metrics plus the underlying counts for one evaluation."""

    hota: float
    deta: float
    assa: float
    mota: float
    idf1: float
    tp: int
    fp: int
    fn: int
    idsw: int
    idtp: int
    idfp: int
    idfn: int


def report_from_table(table: MatchTable) -> MetricReport:
    """Every metric of one matched table; MOTA is unclamped and may go negative.

    An identity switch is a TP whose prediction id differs from its gt's
    most recent prior TP, so a clean gap does not count.

    Raises:
        ValueError: on empty ground truth, checked before any division.
    """
    tp, fp, fn, idtp = table.tp, table.fp, table.fn, table.idtp
    total_gt = tp + fn
    if total_gt == 0:
        raise ValueError("empty ground truth")
    assa = _association_accuracy(table)
    idsw = 0
    last_pred: dict = {}
    for frame in table.frames:
        for gt_id, pred_id, _ in table.matches[frame]:
            if gt_id in last_pred and last_pred[gt_id] != pred_id:
                idsw += 1
            last_pred[gt_id] = pred_id
    deta = tp / (tp + fp + fn)
    idfp = tp + fp - idtp
    idfn = total_gt - idtp
    return MetricReport(
        hota=math.sqrt(deta * assa),
        deta=deta,
        assa=assa,
        mota=1.0 - (fn + fp + idsw) / total_gt,
        idf1=2.0 * idtp / (2.0 * idtp + idfp + idfn),
        tp=tp,
        fp=fp,
        fn=fn,
        idsw=idsw,
        idtp=idtp,
        idfp=idfp,
        idfn=idfn,
    )


def evaluate(
    gt: Iterable[LeafBox],
    pred: Iterable[LeafBox],
    iou_threshold: float = IOU_THRESHOLD,
) -> MetricReport:
    """Match one sequence and compute every metric."""
    return report_from_table(match_frames(gt, pred, iou_threshold))


@dataclass
class LeafAccuracyMatrix:
    """Per-leaf, per-frame tracking outcome grid.

    cells[i, j] is CELL_CORRECT, CELL_FAILURE, or CELL_ABSENT for leaf
    leaf_ids[i] at frames[j].
    """

    leaf_ids: list[int]
    frames: list[int]
    cells: np.ndarray


def leaf_accuracy_matrix(table: MatchTable) -> LeafAccuracyMatrix:
    """Grade every annotated leaf-frame cell of a matched sequence.

    A cell is correct when its TP match carries the leaf's persistent
    identity (the idf1 bijection) and overlaps at IoU >= CELL_IOU_MIN;
    any other annotated cell is a failure; unannotated cells are absent.
    """
    frames = list(table.frames)
    leaf_ids = sorted(
        {gt_id for frame in frames for gt_id, _, _ in table.matches[frame]}
        | {gt_id for frame in frames for gt_id in table.misses[frame]}
    )
    row_of = {leaf: i for i, leaf in enumerate(leaf_ids)}
    cells = np.full((len(leaf_ids), len(frames)), CELL_ABSENT, dtype=np.int8)
    for j, frame in enumerate(frames):
        for gt_id in table.misses[frame]:
            cells[row_of[gt_id], j] = CELL_FAILURE
        for gt_id, pred_id, overlap in table.matches[frame]:
            correct = table.bijection.get(gt_id) == pred_id and overlap >= CELL_IOU_MIN
            cells[row_of[gt_id], j] = CELL_CORRECT if correct else CELL_FAILURE
    return LeafAccuracyMatrix(leaf_ids=leaf_ids, frames=frames, cells=cells)


def daily_accuracy(matrix: LeafAccuracyMatrix) -> dict[int, float]:
    """Fraction of graded leaves correct per frame.

    Frames where every leaf is absent have no defined value and are left
    out of the result.
    """
    out: dict[int, float] = {}
    for j, frame in enumerate(matrix.frames):
        column = matrix.cells[:, j]
        graded = int(np.sum(column != CELL_ABSENT))
        if graded:
            out[frame] = int(np.sum(column == CELL_CORRECT)) / graded
    return out


def format_report(report: MetricReport) -> str:
    """Human-readable report: metric values as percent, two decimals."""
    lines = [
        f"HOTA  {report.hota * 100.0:6.2f}",
        f"DetA  {report.deta * 100.0:6.2f}",
        f"AssA  {report.assa * 100.0:6.2f}",
        f"MOTA  {report.mota * 100.0:6.2f}",
        f"IDF1  {report.idf1 * 100.0:6.2f}",
        f"TP={report.tp} FP={report.fp} FN={report.fn} IDSW={report.idsw}",
        f"IDTP={report.idtp} IDFP={report.idfp} IDFN={report.idfn}",
    ]
    return "\n".join(lines)


def format_report_machine(report: MetricReport) -> str:
    """Line-oriented key=value report with raw fractions at full precision."""
    return "\n".join(f"{f.name}={getattr(report, f.name)!r}" for f in fields(report))
