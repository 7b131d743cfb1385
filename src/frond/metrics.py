"""Detection and association quality metrics for identity-labeled box sequences.

All metrics run at a single localization threshold: a prediction counts
as a true positive only where a per-frame minimum-cost matching pairs it
with a ground-truth box at IoU >= iou_threshold.  match_runs builds that
table for many tracker runs from one per-frame IoU matrix (match_frames is
its one-run case); report_from_table is the one reduction of it to DetA,
AssA, HOTA, MOTA, IDF1 and ID switches.  A table counts its (gt, pred)
identity pairs and solves its IDF1 bijection once, for AssA, IDF1 and the
leaf matrix.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .assignment import hungarian
from .geometry import BBox, iou_matrix
from .tracker import TrackedBox

CELL_CORRECT = 1
CELL_FAILURE = 0
CELL_ABSENT = -1
CELL_IOU_MIN = 0.75  # a correct leaf-matrix cell also needs this overlap
IOU_THRESHOLD = 0.5  # default localization threshold of match_frames, evaluate and the CLI


@dataclass(frozen=True)
class GtAnnotation:
    """Ground-truth box for one leaf in one frame."""

    frame: int
    leaf_id: int
    box: BBox

    def __post_init__(self):
        if self.leaf_id < 1:
            raise ValueError(f"leaf ids start at 1, got {self.leaf_id}")


@dataclass
class MatchTable:
    """Per-frame localization outcomes.

    matches maps frame -> [(gt_id, pred_id, iou)] for true positives;
    misses and false_alarms list the frame's unmatched gt and pred ids.
    The identity pair counts and the IDF1 bijection are worked out on
    first use and kept, so a table must not change once it is scored.
    """

    frames: list
    matches: dict
    misses: dict
    false_alarms: dict

    @property
    def tp(self) -> int:
        return sum(len(rows) for rows in self.matches.values())

    @property
    def fn(self) -> int:
        return sum(len(ids) for ids in self.misses.values())

    @property
    def fp(self) -> int:
        return sum(len(ids) for ids in self.false_alarms.values())

    @cached_property
    def _pair_counts(self) -> dict:
        """Number of true positives per (gt_id, pred_id) pair."""
        counts: dict = defaultdict(int)
        for frame in self.frames:
            for gt_id, pred_id, _ in self.matches[frame]:
                counts[(gt_id, pred_id)] += 1
        return counts

    @cached_property
    def _idf1(self) -> tuple[int, dict]:
        """(idtp, bijection) under the optimal identity bijection.

        The bijection maximizes the summed per-pair TP counts (minimum-cost
        assignment on negated counts).
        """
        counts = self._pair_counts
        bijection: dict = {}
        idtp = 0
        if counts:
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


def _group_by_frame(rows: Iterable, id_field: str, side: str) -> dict:
    """Rows grouped per frame in input order; a repeated (frame, id) raises."""
    by_frame: dict = defaultdict(list)
    seen: set = set()
    for row in rows:
        key = (row.frame, getattr(row, id_field))
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
    gt: Iterable[GtAnnotation],
    pred: Iterable[TrackedBox],
    iou_threshold: float = IOU_THRESHOLD,
) -> MatchTable:
    """Match ground truth against predictions frame by frame.

    Within each frame a minimum-cost assignment on (1 - IoU) runs over
    pairs with IoU >= iou_threshold; surviving pairs are true positives,
    leftover gt are misses, leftover predictions are false alarms.

    Raises:
        ValueError: on a duplicated (frame, id) on either side, or an
            iou_threshold outside (0, 1].
    """
    pred_by_frame = _group_by_frame(pred, "track_id", "prediction")
    run = {f: [(r.track_id, j) for j, r in enumerate(rows)] for f, rows in pred_by_frame.items()}
    return next(match_runs(gt, pred_by_frame, [run], iou_threshold))


def match_runs(
    gt: Iterable[GtAnnotation],
    frames: Mapping[int, Sequence],
    runs: Iterable[Mapping[int, Sequence[tuple[int, int]]]],
    iou_threshold: float = IOU_THRESHOLD,
) -> Iterator[MatchTable]:
    """One MatchTable per tracker run over frames.

    frames maps frame -> detections, the input of every run; each run
    maps frame -> [(track_id, detection index)], the predictions it made
    there (a frame left out or mapped to [] has none).  Ground truth is
    grouped, and its IoU against each frame's detections worked out,
    once; each run takes its columns by its detection indices.  This is
    the one place a MatchTable is built.

    Raises:
        ValueError: as match_frames does.
    """
    check_iou_threshold(iou_threshold)
    gt_by_frame = _group_by_frame(gt, "leaf_id", "ground-truth")
    overlaps = {}
    for frame in set(gt_by_frame) | set(frames):
        g_rows = gt_by_frame.get(frame, [])
        boxes = [det.box for det in frames.get(frame, [])]
        overlaps[frame] = ([r.leaf_id for r in g_rows], iou_matrix([r.box for r in g_rows], boxes))
    for run in runs:
        predicted = {f for f, rows in run.items() if rows}
        table = MatchTable(sorted(set(gt_by_frame) | predicted), {}, {}, {})
        for frame in table.frames:
            gt_ids, all_columns = overlaps[frame]
            rows = run.get(frame, [])
            overlap = all_columns[:, [j for _, j in rows]]
            pairs = match_by_iou(overlap, iou_threshold)
            matched_g = {gi for gi, _ in pairs}
            matched_p = {pj for _, pj in pairs}
            table.matches[frame] = [(gt_ids[gi], rows[pj][0], float(overlap[gi, pj])) for gi, pj in pairs]
            table.misses[frame] = sorted(g for i, g in enumerate(gt_ids) if i not in matched_g)
            table.false_alarms[frame] = sorted(t for j, (t, _) in enumerate(rows) if j not in matched_p)
        yield table


def _association_accuracy(table: MatchTable) -> float:
    """AssA under the majority-vote identity bijection.

    The bijection takes candidate pairs in order of descending match
    count; count ties prefer the earlier-established prediction id.  Each
    gt and each pred id is used at most once.  Each frame with at least
    one TP contributes the fraction of its TPs whose (gt, pred) pair
    agrees with the bijection; frames without TPs are skipped.  Returns
    0.0 when no TP exists at all.
    """
    established: dict = {}  # first frame of each prediction id, matched or not
    for frame in table.frames:
        for _, pred_id, _ in table.matches[frame]:
            established.setdefault(pred_id, frame)
        for pred_id in table.false_alarms[frame]:
            established.setdefault(pred_id, frame)
    ranked = sorted(
        table._pair_counts.items(),
        key=lambda item: (-item[1], established[item[0][1]], item[0][0], item[0][1]),
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
    tp, fp, fn = table.tp, table.fp, table.fn
    total_gt = tp + fn
    if total_gt == 0:
        raise ValueError("empty ground truth")
    assa = _association_accuracy(table)
    idtp, _ = table._idf1
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
    gt: Iterable[GtAnnotation],
    pred: Iterable[TrackedBox],
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
    _, bijection = table._idf1
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
            correct = bijection.get(gt_id) == pred_id and overlap >= CELL_IOU_MIN
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
