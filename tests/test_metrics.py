"""Detection matching and the HOTA / MOTA / IDF1 metric family."""

import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from frond.geometry import BBox, LeafBox
from frond.metrics import (
    CELL_ABSENT,
    CELL_CORRECT,
    CELL_FAILURE,
    daily_accuracy,
    evaluate,
    format_report,
    format_report_machine,
    leaf_accuracy_matrix,
    match_by_iou,
    match_frames,
    report_from_table,
)
from frond.tracker import Detection, TrackerParams, run_sequence, tracked_boxes
from oracles import _best_frame_matching, _iou, brute_idf1, brute_mota, match_counts


def g(frame, leaf, u=0.0, v=0.0, w=10.0, h=10.0):
    return LeafBox(frame, leaf, BBox(u, v, w, h))


def p(frame, tid, u=0.0, v=0.0, w=10.0, h=10.0):
    return LeafBox(frame, tid, BBox(u, v, w, h))


def perfect(n_frames, n_objects, id_of=lambda leaf: leaf):
    """One gt/pred pair per object per frame, identical boxes."""
    gt, pred = [], []
    for f in range(1, n_frames + 1):
        for leaf in range(1, n_objects + 1):
            gt.append(g(f, leaf, u=100.0 * leaf))
            pred.append(p(f, id_of(leaf), u=100.0 * leaf))
    return gt, pred


def random_scene(rng, n_frames=6, n_objects=3):
    """Jittered predictions with drops, id noise, and false alarms."""
    gt, pred = [], []
    next_fake = 50
    for f in range(1, n_frames + 1):
        used_ids = set()
        for leaf in range(1, n_objects + 1):
            if rng.uniform() < 0.15:
                continue
            box = BBox(120.0 * leaf + rng.uniform(-1, 1), rng.uniform(-1, 1), 20.0, 20.0)
            gt.append(LeafBox(f, leaf, box))
            if rng.uniform() < 0.2:
                continue
            du, dv = rng.uniform(-6, 6, size=2)
            tid = leaf if rng.uniform() < 0.75 else int(rng.integers(1, n_objects + 3))
            if tid in used_ids:
                continue
            used_ids.add(tid)
            pred.append(LeafBox(f, tid, BBox(box.u + du, box.v + dv, 20.0, 20.0)))
        for _ in range(int(rng.integers(0, 2))):
            next_fake += 1
            pred.append(p(f, next_fake, u=3000.0 + rng.uniform(0, 500), v=0.0))
    return gt, pred


def clustered_scene(rng, n_frames=4):
    """Frames in which several gt boxes overlap several predictions.

    Each frame has two clusters 1000 px apart.  Inside a cluster, boxes
    of about 20 px sit 3-9 px apart, so the pairs at IoU >= 0.5 form
    components with several rows and columns, chains among them.  At
    most five boxes a side keep the brute-force oracle cheap.
    """
    gt, pred = [], []
    for f in range(1, n_frames + 1):
        leaf = tid = 0
        for origin, most in ((0.0, 3), (1000.0, 2)):
            steps = rng.uniform(3.0, 9.0, size=int(rng.integers(1, most + 1)))
            lefts = origin + np.cumsum(steps)
            for u in lefts:
                leaf += 1
                box = BBox(u, rng.uniform(-2, 2), *rng.uniform(18.0, 22.0, size=2))
                gt.append(LeafBox(f, leaf, box))
            n_pred = int(rng.integers(1, most + 1))
            for u in rng.uniform(lefts[0] - 4.0, lefts[-1] + 4.0, size=n_pred):
                tid += 1
                box = BBox(u, rng.uniform(-2, 2), *rng.uniform(18.0, 22.0, size=2))
                pred.append(LeafBox(f, tid, box))
    return gt, pred


@st.composite
def slotted_scene(draw):
    """At most 3 frames and 4 boxes a side per frame, each frame with one
    best matching.

    Every gt box has its own slot, 100 px from the next.  A prediction
    sits in a slot at offset 0, 2 or 6 px (IoU 1, 2/3 or 1/4 with a gt
    there), at most one per (slot, offset), so no two matchings of a
    frame tie and the brute-force oracle pairs the same ids.
    """
    gt, pred = [], []
    for frame in range(1, draw(st.integers(1, 3)) + 1):
        leaves = draw(st.lists(st.integers(1, 4), unique=True, max_size=4))
        for leaf, slot in zip(leaves, draw(st.permutations(range(4)))):
            gt.append(g(frame, leaf, u=100.0 * slot))
        places = st.tuples(st.integers(0, 3), st.sampled_from([0.0, 2.0, 6.0]))
        spots = draw(st.lists(places, unique=True, max_size=4))
        tids = draw(st.lists(st.integers(1, 5), unique=True, min_size=len(spots), max_size=len(spots)))
        for tid, (slot, du) in zip(tids, spots):
            pred.append(p(frame, tid, u=100.0 * slot + du))
    assume(gt)
    return gt, pred


@st.composite
def labeled_scene(draw):
    """2-7 frames of up to 3 leaves and 4 tracks on 6 places 100 px apart.

    A gt box and a prediction on the same place have IoU 1, and on
    different places 0, so every frame has one best matching and it
    reads no id.
    """
    gt, pred = [], []
    for frame in range(1, draw(st.integers(2, 7)) + 1):
        for side, rows, top in ((g, gt, 3), (p, pred, 4)):
            ids = draw(st.lists(st.integers(1, top), unique=True, max_size=top))
            for row_id, place in zip(ids, draw(st.permutations(range(6)))):
                rows.append(side(frame, row_id, u=100.0 * place))
    assume(gt)
    return gt, pred


def relabeled(rows, labels):
    """Each row with its id mapped through labels, in its place."""
    return [LeafBox(r.frame, labels[r.leaf_id], r.box) for r in rows]


def component_kinds(g_rows, p_rows, thr=0.5):
    """Kinds of the components of a frame's pairs with IoU >= thr that
    have at least two rows and two columns: "block" when every pair
    inside is eligible, "chain" otherwise."""
    eligible = [[_iou(a.box, b.box) >= thr for b in p_rows] for a in g_rows]
    kinds = []
    seen: set = set()
    for start in range(len(g_rows)):
        if start in seen or not any(eligible[start]):
            continue
        rows, cols, todo = {start}, set(), [start]
        while todo:
            i = todo.pop()
            for j in range(len(p_rows)):
                if eligible[i][j] and j not in cols:
                    cols.add(j)
                    reached = {b for b in range(len(g_rows)) if eligible[b][j]} - rows
                    rows |= reached
                    todo += reached
        seen |= rows
        if len(rows) >= 2 and len(cols) >= 2:
            full = all(eligible[i][j] for i in rows for j in cols)
            kinds.append("block" if full else "chain")
    return kinds


class TestMatchFrames:
    def test_identical_boxes_are_tp(self):
        table = match_frames([g(1, 1)], [p(1, 7)])
        assert table.matches[1] == [(1, 7, 1.0)]
        assert (table.tp, table.fn, table.fp) == (1, 0, 0)

    def test_iou_exactly_at_threshold_counts(self):
        table = match_frames([g(1, 1)], [p(1, 1, w=10.0, h=5.0)])
        assert table.tp == 1
        assert table.matches[1][0][2] == pytest.approx(0.5, abs=1e-12)

    def test_iou_below_threshold_rejected(self):
        table = match_frames([g(1, 1)], [p(1, 1, w=10.0, h=4.9)])
        assert (table.tp, table.fn, table.fp) == (0, 1, 1)
        assert table.misses[1] == [1]
        assert table.false_alarms[1] == [1]

    def test_prefers_more_matches_over_greedy_overlap(self):
        # Greedy max IoU would give gt 1 the 0.9 partner and leave gt 2
        # unmatched; the optimal pairing keeps both gts matched.
        gt = [g(1, 1), g(1, 2, v=1.0)]
        pred = [p(1, 1, h=9.0), p(1, 2, v=-3.0)]
        table = match_frames(gt, pred)
        assert {(a, b) for a, b, _ in table.matches[1]} == {(1, 2), (2, 1)}

    def test_prefers_higher_total_iou_among_full_matchings(self):
        gt = [g(1, 1), g(1, 2, u=1.0)]
        pred = [p(1, 1), p(1, 2, u=1.0)]
        table = match_frames(gt, pred)
        assert {(a, b) for a, b, _ in table.matches[1]} == {(1, 1), (2, 2)}

    def test_iou_exactly_at_threshold_counts_inside_a_component(self):
        # Row 1 reaches column 1 only, so the 2 x 2 component is solved;
        # the pair (0, 0) at exactly 0.5 is kept.
        overlap = np.array([[0.5, 0.9], [0.0, 0.9]])
        assert match_by_iou(overlap, 0.5) == [(0, 0), (1, 1)]

    def test_duplicate_gt_row_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            match_frames([g(1, 1), g(1, 1, u=50.0)], [])

    def test_duplicate_pred_row_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            match_frames([], [p(1, 1), p(1, 1, u=50.0)])

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            match_frames([g(1, 1)], [p(1, 1)], iou_threshold=0.0)
        with pytest.raises(ValueError):
            match_frames([g(1, 1)], [p(1, 1)], iou_threshold=1.5)

    def test_duplicate_prediction_is_named_before_a_bad_threshold(self):
        # The predictions are grouped first; match_frames then checks the threshold.
        with pytest.raises(ValueError) as err:
            match_frames([g(1, 1)], [p(1, 1), p(1, 1, u=50.0)], iou_threshold=0.0)
        assert str(err.value) == "duplicate prediction id 1 in frame 1"

    def test_equal_iou_ties_break_as_tracked_boxes_order_them(self):
        # Frame 1 holds two equal boxes on the gt box, founding tracks 1
        # and 2; the matching takes the first column, so track 1 scores the
        # TP there and the switch to track 2 in frame 2 counts.
        gt = [g(1, 1), g(2, 1)]
        box = BBox(0.0, 0.0, 10.0, 10.0)
        a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        frames = {1: [Detection(box, 0.9, a), Detection(box, 0.9, b)], 2: [Detection(box, 0.9, b)]}
        results = run_sequence(frames, TrackerParams())
        table = match_frames(gt, tracked_boxes(results))
        assert table.matches[1] == [(1, 1, 1.0)]
        assert report_from_table(table).idsw == 1

    def test_frames_with_gt_only_or_clutter_only(self):
        # Frame 1 has gt and predictions, frame 2 gt only (a (1, 0) IoU
        # table), frame 3 clutter only (a (0, 1) table).
        gt = [g(1, 1), g(1, 2, u=30.0), g(2, 1)]
        table = match_frames(gt, [p(1, 1), p(1, 2, u=30.0), p(3, 3, u=500.0)])
        assert table.frames == [1, 2, 3]
        assert table.misses[2] == [1]
        assert table.tp == 2 and table.fp == 1

    @pytest.mark.parametrize("leaf_id", [0, -3])
    def test_gt_leaf_ids_start_at_one(self, leaf_id):
        with pytest.raises(ValueError) as err:
            g(1, leaf_id)
        assert str(err.value) == f"leaf ids start at 1, got {leaf_id}"

    def test_counts_agree_with_brute_force(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            gt, pred = random_scene(rng)
            table = match_frames(gt, pred)
            _, fn, fp = match_counts(gt, pred)
            assert (table.fn, table.fp) == (fn, fp)

    # Below 0.5, two weak pairs can sum to less IoU than one strong pair,
    # so a matcher that maximized total IoU alone would lose pairs there.
    @pytest.mark.parametrize("thr", [0.3, 0.5])
    def test_clustered_frames_agree_with_brute_force(self, thr):
        rng = np.random.default_rng(59)
        kinds: Counter = Counter()
        for _ in range(40):
            gt, pred = clustered_scene(rng)
            table = match_frames(gt, pred, iou_threshold=thr)
            for frame in table.frames:
                g_rows = [r for r in gt if r.frame == frame]
                p_rows = [r for r in pred if r.frame == frame]
                best = _best_frame_matching(g_rows, p_rows, thr)
                got = table.matches[frame]
                assert len(got) == len(best)
                assert sum(iou for _, _, iou in got) == pytest.approx(
                    sum(_iou(g_rows[i].box, p_rows[j].box) for i, j in best), abs=1e-9
                )
                kinds.update(component_kinds(g_rows, p_rows, thr))
        # The scenes must exercise components the matcher cannot pair directly.
        assert kinds["block"] >= 5 and kinds["chain"] >= 5


class TestDetA:
    def test_eight_of_ten(self):
        gt = [g(f, 1) for f in range(1, 10)]
        pred = [p(f, 1) for f in range(1, 9)] + [p(9, 1, u=500.0)]
        table = match_frames(gt, pred)
        assert (table.tp, table.fn, table.fp) == (8, 1, 1)
        assert report_from_table(table).deta == pytest.approx(0.8, abs=1e-12)

    def test_empty_pred_is_zero(self):
        table = match_frames([g(f, 1) for f in range(1, 5)], [])
        assert report_from_table(table).deta == 0.0

    def test_invariant_under_id_relabeling(self):
        gt, pred = perfect(6, 2)
        shuffled = [LeafBox(r.frame, r.leaf_id + 40, r.box) for r in pred]
        deta = report_from_table(match_frames(gt, pred)).deta
        assert report_from_table(match_frames(gt, shuffled)).deta == deta

    def test_dropping_a_tp_lowers_it(self):
        gt, pred = perfect(5, 1)
        damaged = [r for r in pred if r.frame != 3]
        assert report_from_table(match_frames(gt, damaged)).deta == pytest.approx(0.8, abs=1e-12)


class TestAssA:
    def test_single_object_late_switch(self):
        # Pred id 1 on frames 1-8, id 2 on 9-10: majority id agrees on
        # eight of ten TP frames.
        gt = [g(f, 1) for f in range(1, 11)]
        pred = [p(f, 1) for f in range(1, 9)] + [p(f, 2) for f in (9, 10)]
        assert report_from_table(match_frames(gt, pred)).assa == pytest.approx(0.8, abs=1e-12)

    def test_halfway_swap(self):
        gt, pred = [], []
        for f in range(1, 11):
            gt += [g(f, 1, u=0.0), g(f, 2, u=100.0)]
            if f <= 5:
                pred += [p(f, 1, u=0.0), p(f, 2, u=100.0)]
            else:
                pred += [p(f, 2, u=0.0), p(f, 1, u=100.0)]
        assert report_from_table(match_frames(gt, pred)).assa == pytest.approx(0.5, abs=1e-12)

    def test_perfect_is_one(self):
        gt, pred = perfect(7, 3)
        assert report_from_table(match_frames(gt, pred)).assa == 1.0

    def test_no_tp_is_zero(self):
        table = match_frames([g(1, 1)], [p(1, 1, u=900.0)])
        assert report_from_table(table).assa == 0.0

    @pytest.mark.parametrize("a, b", [(1, 2), (2, 1)])
    def test_tied_pairs_are_picked_by_first_tp_not_by_label(self, a, b):
        # Leaf 1 is matched by track a in frames 1-2 and by b in 3-4, leaf 2
        # by b in 5-6, and b is a false alarm in frame 1: every pair counts
        # 2 TPs and both tracks are established in frame 1.  The pair (1, a)
        # has the first TP, so the bijection is {1: a, 2: b} for either labeling.
        gt = [g(f, 1) for f in (1, 2, 3, 4)] + [g(f, 2) for f in (5, 6)]
        pred = [p(1, a), p(1, b, u=500.0), p(2, a)] + [p(f, b) for f in (3, 4, 5, 6)]
        report = evaluate(gt, pred)
        assert report.assa == pytest.approx(4 / 6, abs=1e-12)
        assert report.hota == pytest.approx(math.sqrt(6 / 7 * 4 / 6), abs=1e-12)
        assert (round(report.idf1, 3), report.idsw) == (0.615, 1)


class TestHota:
    def test_geometric_mean_identity(self):
        rng = np.random.default_rng(47)
        for _ in range(25):
            gt, pred = random_scene(rng)
            table = match_frames(gt, pred)
            report = report_from_table(table)
            assert report.hota == pytest.approx(math.sqrt(report.deta * report.assa), abs=1e-12)
            assert 0.0 <= report.hota <= 1.0

    def test_known_fixture(self):
        gt = [g(f, 1) for f in range(1, 11)]
        pred = [p(f, 1) for f in range(1, 9)] + [p(f, 2) for f in (9, 10)]
        table = match_frames(gt, pred)
        assert report_from_table(table).hota == pytest.approx(math.sqrt(1.0 * 0.8), abs=1e-12)


class TestMota:
    def test_fn_fp_switch_fixture(self):
        gt = [g(f, 1) for f in range(1, 11)]
        pred = [p(f, 1) for f in range(1, 5)]
        pred.append(p(5, 9, u=400.0, v=400.0))
        pred += [p(f, 2) for f in range(6, 11)]
        table = match_frames(gt, pred)
        assert (table.tp, table.fn, table.fp) == (9, 1, 1)
        report = report_from_table(table)
        assert report.idsw == 1
        assert report.mota == pytest.approx(0.7, abs=1e-12)

    def test_switch_counted_across_gap_only_on_change(self):
        gt = [g(f, 1) for f in range(1, 11)]
        same = [p(f, 1) for f in range(1, 5)] + [p(f, 1) for f in range(7, 11)]
        other = [p(f, 1) for f in range(1, 5)] + [p(f, 2) for f in range(7, 11)]
        assert report_from_table(match_frames(gt, same)).idsw == 0
        assert report_from_table(match_frames(gt, other)).idsw == 1

    def test_unclamped_below_zero(self):
        gt = [g(1, 1)]
        pred = [p(1, k, u=900.0 + 20.0 * k) for k in range(1, 4)]
        assert report_from_table(match_frames(gt, pred)).mota == pytest.approx(-3.0, abs=1e-12)

    def test_empty_gt_rejected(self):
        # The check runs before any division, so a fully empty table
        # raises this error, not ZeroDivisionError.
        for pred in ([], [p(1, 1)]):
            with pytest.raises(ValueError, match="^empty ground truth$"):
                report_from_table(match_frames([], pred))

    def test_empty_pred(self):
        assert report_from_table(match_frames([g(f, 1) for f in range(1, 5)], [])).mota == 0.0


class TestIdf1:
    def test_half_and_half(self):
        gt = [g(f, 1) for f in range(1, 11)]
        pred = [p(f, 1) for f in range(1, 6)] + [p(f, 2) for f in range(6, 11)]
        assert report_from_table(match_frames(gt, pred)).idf1 == pytest.approx(0.5, abs=1e-12)

    def test_perfect_is_one(self):
        gt, pred = perfect(6, 3, id_of=lambda leaf: 7 * leaf + 1)
        assert report_from_table(match_frames(gt, pred)).idf1 == 1.0

    def test_empty_pred_is_zero(self):
        assert report_from_table(match_frames([g(1, 1)], [])).idf1 == 0.0

    def test_bijection_holds_only_pairs_with_a_true_positive(self):
        # Pair counts {(1, 10): 5, (2, 10): 1, (1, 11): 1}: the optimal
        # assignment pairs gt 2 with pred 11 through a zero cell, which
        # the bijection leaves out.
        gt = [g(f, 1) for f in range(1, 7)] + [g(6, 2, u=100.0)]
        pred = [p(f, 10) for f in range(1, 6)] + [p(6, 11), p(6, 10, u=100.0)]
        table = match_frames(gt, pred)
        assert table.pair_counts == {(1, 10): 5, (2, 10): 1, (1, 11): 1}
        assert table.bijection == {1: 10}
        assert table.idtp == 5

    def test_matches_exhaustive_bijection_search(self):
        rng = np.random.default_rng(61)
        for _ in range(30):
            gt, pred = random_scene(rng)
            table = match_frames(gt, pred)
            assert report_from_table(table).idf1 == brute_idf1(gt, pred)
            tp_pairs, _, _ = match_counts(gt, pred)
            assert table.pair_counts == Counter(pair for pairs in tp_pairs.values() for pair in pairs)
            assert len(set(table.bijection.values())) == len(table.bijection)
            assert sum(table.pair_counts[pair] for pair in table.bijection.items()) == table.idtp
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.idtp = 0


class TestEvaluate:
    def test_perfect_report_all_ones(self):
        gt, pred = perfect(6, 3, id_of=lambda leaf: 100 - leaf)
        report = evaluate(gt, pred)
        assert (report.hota, report.deta, report.assa) == (1.0, 1.0, 1.0)
        assert (report.mota, report.idf1) == (1.0, 1.0)
        assert (report.fp, report.fn, report.idsw) == (0, 0, 0)

    def test_alternating_ids_split_the_metrics(self):
        gt = [g(f, 1) for f in range(1, 11)]
        pred = [p(f, 1 if f % 2 else 2) for f in range(1, 11)]
        report = evaluate(gt, pred)
        assert report.deta == 1.0
        assert report.assa == pytest.approx(0.5, abs=1e-12)
        assert report.idf1 == pytest.approx(0.5, abs=1e-12)
        assert report.idsw == 9
        assert report.mota == pytest.approx(0.1, abs=1e-12)

    def test_mota_matches_brute_force(self):
        rng = np.random.default_rng(79)
        for _ in range(30):
            gt, pred = random_scene(rng)
            if not gt:
                continue
            assert evaluate(gt, pred).mota == brute_mota(gt, pred)

    def test_empty_gt_rejected(self):
        with pytest.raises(ValueError, match="empty ground truth"):
            evaluate([], [p(1, 1)])


class TestRelabeling:
    @settings(max_examples=300, deadline=None)
    @example(
        scene=(
            [g(f, 1) for f in (1, 2, 3, 4)] + [g(f, 2) for f in (5, 6)],
            [p(1, 1), p(1, 2, u=500.0), p(2, 1)] + [p(f, 2) for f in (3, 4, 5, 6)],
        ),
        gt_labels=[1, 2, 3],
        track_labels=[2, 1, 3, 4],
    )
    @given(
        labeled_scene(),
        st.lists(st.integers(1, 20), unique=True, min_size=3, max_size=3),
        st.lists(st.integers(1, 20), unique=True, min_size=4, max_size=4),
    )
    def test_property_report_ignores_id_labels(self, scene, gt_labels, track_labels):
        # A leaf id and a track id are labels: mapping each side's ids
        # through a bijection, every row kept in its place, changes no field.
        gt, pred = scene
        renamed_gt = relabeled(gt, dict(zip(range(1, 4), gt_labels)))
        renamed_pred = relabeled(pred, dict(zip(range(1, 5), track_labels)))
        assert evaluate(renamed_gt, renamed_pred) == evaluate(gt, pred)


class TestReportCounts:
    @settings(max_examples=200, deadline=None)
    @given(slotted_scene())
    def test_property_counts_add_up(self, scene):
        gt, pred = scene
        report = report_from_table(match_frames(gt, pred))
        assert report.tp + report.fn == len(gt)
        assert report.tp + report.fp == len(pred)
        assert report.idtp + report.idfp == report.tp + report.fp
        assert report.idtp + report.idfn == report.tp + report.fn
        assert report.idtp <= report.tp
        tp_pairs, _, _ = match_counts(gt, pred)
        last: dict = {}
        switches = 0
        for frame in sorted(tp_pairs):
            for gt_id, pred_id in tp_pairs[frame]:
                if gt_id in last and last[gt_id] != pred_id:
                    switches += 1
                last[gt_id] = pred_id
        assert report.idsw == switches


class TestLeafMatrix:
    def test_cell_states(self):
        # Leaf 1 correct everywhere; leaf 2 fails frame 2 on loose
        # localization and is unannotated on frame 3.
        gt = [g(1, 1), g(2, 1), g(3, 1), g(1, 2, u=100.0), g(2, 2, u=100.0)]
        pred = [
            p(1, 1),
            p(2, 1),
            p(3, 1),
            p(1, 2, u=100.0),
            p(2, 2, u=100.0, v=2.0),
        ]
        matrix = leaf_accuracy_matrix(match_frames(gt, pred))
        assert matrix.leaf_ids == [1, 2]
        assert matrix.frames == [1, 2, 3]
        expected = np.array(
            [
                [CELL_CORRECT, CELL_CORRECT, CELL_CORRECT],
                [CELL_CORRECT, CELL_FAILURE, CELL_ABSENT],
            ],
            dtype=np.int8,
        )
        assert np.array_equal(matrix.cells, expected)

    def test_iou_min_boundary(self):
        gt = [g(1, 1), g(2, 1)]
        pred = [p(1, 1, h=7.5), p(2, 1, h=7.4)]
        matrix = leaf_accuracy_matrix(match_frames(gt, pred))
        assert matrix.cells[0, 0] == CELL_CORRECT
        assert matrix.cells[0, 1] == CELL_FAILURE

    def test_wrong_identity_is_failure_even_with_perfect_box(self):
        gt = [g(f, 1) for f in range(1, 11)]
        pred = [p(f, 1) for f in range(1, 10)] + [p(10, 2)]
        matrix = leaf_accuracy_matrix(match_frames(gt, pred))
        assert list(matrix.cells[0, :9]) == [CELL_CORRECT] * 9
        assert matrix.cells[0, 9] == CELL_FAILURE

    def test_daily_accuracy_fractions(self):
        gt = [g(1, 1), g(1, 2, u=100.0), g(2, 1), g(2, 2, u=100.0), g(3, 1)]
        pred = [
            p(1, 1),
            p(1, 2, u=100.0),
            p(2, 1),
            p(2, 2, u=100.0, v=2.0),
            p(3, 1),
            p(4, 8, u=700.0),
        ]
        daily = daily_accuracy(leaf_accuracy_matrix(match_frames(gt, pred)))
        assert daily == {1: 1.0, 2: 0.5, 3: 1.0}


class TestReportFormats:
    def fixture_report(self):
        gt = [g(f, 1) for f in range(1, 11)]
        pred = [p(f, 1) for f in range(1, 9)] + [p(f, 2) for f in (9, 10)]
        return evaluate(gt, pred)

    def test_human_format(self):
        text = format_report(self.fixture_report())
        lines = text.splitlines()
        assert lines[0].startswith("HOTA")
        assert "DetA  100.00" in text
        assert "AssA   80.00" in text
        assert "TP=10 FP=0 FN=0 IDSW=1" in text

    def test_machine_format_round_trips(self):
        report = self.fixture_report()
        values = dict(line.split("=", 1) for line in format_report_machine(report).splitlines())
        assert float(values["hota"]) == report.hota
        assert float(values["assa"]) == report.assa
        assert int(values["idsw"]) == 1
