"""Synthetic rosette scenarios and the IoU-only reference tracker."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frond.geometry import BBox
from frond.simulator import (
    CLUTTER_MIN_SIDE,
    MAX_FRAME_SIDE,
    ScenarioConfig,
    _logistic_area,
    baseline_iou_tracker,
    generate,
)
from frond.tracker import Detection


def clean_cfg(**overrides):
    base = dict(n_frames=12, n_leaves=3, embedding_dim=32, seed=5)
    base.update(overrides)
    return ScenarioConfig(**base)


def gt_boxes_by_key(gt):
    return {(row.frame, row.leaf_id): row.box for row in gt}


class TestLogisticArea:
    def test_reference_value(self):
        # 400 / (1 + exp(-0.5 * 2)), evaluated separately and pinned.
        assert _logistic_area(400.0, 0.5, 10.0, 12) == pytest.approx(
            292.4234314520019, abs=1e-9
        )

    def test_midpoint_is_half_capacity(self):
        assert _logistic_area(300.0, 0.3, 8.0, 8) == 150.0

    def test_monotone_growth(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            area_max = rng.uniform(100.0, 4000.0)
            rate = rng.uniform(0.05, 1.0)
            midpoint = rng.uniform(2.0, 20.0)
            values = [_logistic_area(area_max, rate, midpoint, f) for f in range(1, 30)]
            assert all(a < b for a, b in zip(values, values[1:]))
            assert values[-1] < area_max

    def test_saturates_at_capacity(self):
        assert _logistic_area(500.0, 0.5, 10.0, 200) == pytest.approx(500.0, abs=1e-9)


# Every refused config with its exact message, pinning which check reports it.
REJECTED = [
    (dict(n_frames=0, n_leaves=2), "scenario needs at least one frame and one leaf"),
    (dict(n_frames=5, n_leaves=0), "scenario needs at least one frame and one leaf"),
    (dict(n_frames=5, n_leaves=2, frame_width=16),
     "frame sides must lie in [32, 1000000000], got 16x512"),
    (dict(n_frames=5, n_leaves=2, occlusion_prob=1.5),
     "occlusion_prob must lie in [0, 1], got 1.5"),
    (dict(n_frames=5, n_leaves=2, miss_prob=-0.1), "miss_prob must lie in [0, 1], got -0.1"),
    (dict(n_frames=5, n_leaves=2, fp_rate=-1.0), "fp_rate must lie in [0, 1111.11], got -1.0"),
    (dict(n_frames=5, n_leaves=2, box_jitter_std=-0.5),
     "box_jitter_std must lie in [0, 512], got -0.5"),
    (dict(n_frames=5, n_leaves=2, conf_lo=0.8, conf_hi=0.4), "need 0 <= conf_lo <= conf_hi <= 1"),
    (dict(n_frames=5, n_leaves=2, conf_hi=1.2), "need 0 <= conf_lo <= conf_hi <= 1"),
    (dict(n_frames=5, n_leaves=2, embedding_dim=1), "embedding_dim must be at least 2, got 1"),
    (dict(n_frames=5, n_leaves=2, latent_similarity=1.0), "latent_similarity must lie in [0, 1)"),
    (dict(n_frames=5, n_leaves=2, birth_window=5), "birth_window must lie in [0, n_frames)"),
    (dict(n_frames=5, n_leaves=2, rotation_events=((0, 1.0),)), "bad rotation event (0, 1.0)"),
    (dict(n_frames=5, n_leaves=2, occlusion_windows=((3, 1, 2),)),
     "occlusion window names unknown leaf 3"),
    (dict(n_frames=5, n_leaves=2, occlusion_windows=((1, 4, 2),)),
     "bad occlusion window (1, 4, 2)"),
    (dict(n_frames=5, n_leaves=2, occlusion_windows=((1, 1, 9),)),
     "bad occlusion window (1, 1, 9)"),
    # A NaN or infinite angle fails the finite-sum check.
    (dict(n_frames=5, n_leaves=2, rotation_events=((1, math.inf),)),
     "rotation event angles must have a finite sum"),
    (dict(n_frames=5, n_leaves=2, rotation_events=((1, math.nan),)),
     "rotation event angles must have a finite sum"),
]

KNOBS = (
    "occlusion_prob", "miss_prob", "death_prob", "fp_rate", "box_jitter_std",
    "embedding_noise_std", "embedding_drift_rate",
)


def interval(name, value, width, height, n_frames):
    """The label, the checked quantity and the top of a knob's closed interval [0, top]."""
    if name == "embedding_drift_rate":
        return "embedding_drift_rate * n_frames", value * n_frames, 1e306
    top = {
        "fp_rate": width * height / (CLUTTER_MIN_SIDE * min(width, height)) ** 2,
        "box_jitter_std": max(width, height),
        "embedding_noise_std": 1e306,
    }.get(name, 1.0)
    return name, value, top


@st.composite
def knob_settings(draw):
    """A knob, frame sides, n_frames and a value: special floats, the
    interval's ends and their float neighbours, or any float."""
    name = draw(st.sampled_from(KNOBS))
    width, height = (draw(st.integers(32, MAX_FRAME_SIDE)) for _ in range(2))
    n_frames = draw(st.integers(1, 50))
    _, _, top = interval(name, 1.0, width, height, n_frames)
    if name == "embedding_drift_rate":
        top /= n_frames
    edges = [top, math.nextafter(top, -math.inf), math.nextafter(top, math.inf), 5e-324, -5e-324]
    value = draw(
        st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0] + edges)
        | st.floats(-2.0 * top, 2.0 * top)
        | st.floats()
    )
    return name, value, width, height, n_frames


class TestConfigValidation:
    def test_accepts_defaults(self):
        ScenarioConfig(n_frames=5, n_leaves=2)

    @pytest.mark.parametrize(
        "kwargs, message", REJECTED, ids=[f"kwargs{i}" for i in range(len(REJECTED))]
    )
    def test_rejects(self, kwargs, message):
        with pytest.raises(ValueError) as err:
            ScenarioConfig(**kwargs)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "name", ["fp_rate", "box_jitter_std", "embedding_noise_std", "embedding_drift_rate"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_with_exact_message(self, name, value):
        with pytest.raises(ValueError) as err:
            ScenarioConfig(n_frames=5, n_leaves=2, **{name: value})
        interval = {
            "fp_rate": "fp_rate must lie in [0, 1111.11]",
            "box_jitter_std": "box_jitter_std must lie in [0, 512]",
            "embedding_noise_std": "embedding_noise_std must lie in [0, 1e+306]",
            "embedding_drift_rate": "embedding_drift_rate * n_frames must lie in [0, 1e+306]",
        }[name]
        assert str(err.value) == f"{interval}, got {value}"

    @settings(max_examples=500, deadline=None)
    @given(knob_settings())
    def test_knob_accepted_exactly_inside_its_interval(self, setting):
        name, value, width, height, n_frames = setting
        label, quantity, top = interval(name, value, width, height, n_frames)
        fields = dict(frame_width=width, frame_height=height, **{name: value})
        if 0.0 <= quantity <= top:
            ScenarioConfig(n_frames=n_frames, n_leaves=2, **fields)
            return
        with pytest.raises(ValueError) as err:
            ScenarioConfig(n_frames=n_frames, n_leaves=2, **fields)
        assert str(err.value) == f"{label} must lie in [0, {top:g}], got {quantity}"

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.sampled_from([-1, 0, 31, 32, 33, MAX_FRAME_SIDE, MAX_FRAME_SIDE + 1])
            | st.integers(-10, 2 * MAX_FRAME_SIDE),
            min_size=2,
            max_size=2,
        )
    )
    def test_frame_sides_accepted_exactly_inside_the_interval(self, sides):
        width, height = sides
        if 32 <= width <= MAX_FRAME_SIDE and 32 <= height <= MAX_FRAME_SIDE:
            ScenarioConfig(n_frames=5, n_leaves=2, frame_width=width, frame_height=height)
            return
        with pytest.raises(ValueError) as err:
            ScenarioConfig(n_frames=5, n_leaves=2, frame_width=width, frame_height=height)
        assert str(err.value) == f"frame sides must lie in [32, 1000000000], got {width}x{height}"

    @pytest.mark.parametrize("value", [math.nextafter(600.0, math.inf), 1e300])
    def test_rejects_jitter_beyond_the_frame_with_exact_message(self, value):
        with pytest.raises(ValueError) as err:
            ScenarioConfig(
                n_frames=5, n_leaves=2, frame_width=600, frame_height=400, box_jitter_std=value
            )
        assert str(err.value) == f"box_jitter_std must lie in [0, 600], got {value}"

    def test_frame_sides_are_bounded_with_exact_message(self):
        ScenarioConfig(n_frames=5, n_leaves=2, frame_width=MAX_FRAME_SIDE, frame_height=32)
        for width, height in ((MAX_FRAME_SIDE + 1, 512), (512, 10**20)):
            with pytest.raises(ValueError) as err:
                ScenarioConfig(n_frames=5, n_leaves=2, frame_width=width, frame_height=height)
            expected = f"frame sides must lie in [32, 1000000000], got {width}x{height}"
            assert str(err.value) == expected

    def test_fp_rate_is_bounded_by_what_the_frame_holds(self):
        # Checked at the validator only: a rate near the bound draws millions of boxes.
        most = 600 * 400 / (CLUTTER_MIN_SIDE * 400) ** 2
        ScenarioConfig(n_frames=5, n_leaves=2, frame_width=600, frame_height=400, fp_rate=most)
        for value in (math.nextafter(most, math.inf), 1e9, 1e300):
            with pytest.raises(ValueError) as err:
                ScenarioConfig(
                    n_frames=5, n_leaves=2, frame_width=600, frame_height=400, fp_rate=value
                )
            assert str(err.value) == f"fp_rate must lie in [0, 1666.67], got {value}"

    def test_embedding_noise_and_total_drift_are_bounded(self):
        # Past the bound a raw embedding entry, latent + drift + noise, can overflow.
        ScenarioConfig(
            n_frames=4, n_leaves=2, embedding_noise_std=1e306, embedding_drift_rate=2.5e305
        )
        noise = math.nextafter(1e306, math.inf)
        drift = "embedding_drift_rate * n_frames must lie in [0, 1e+306]"
        for fields, message in (
            (dict(embedding_noise_std=noise),
             f"embedding_noise_std must lie in [0, 1e+306], got {noise}"),
            (dict(embedding_drift_rate=math.nextafter(2.5e305, math.inf)),
             f"{drift}, got {math.nextafter(2.5e305, math.inf) * 4}"),
            (dict(embedding_drift_rate=3.6e307), f"{drift}, got {3.6e307 * 4}"),
        ):
            with pytest.raises(ValueError) as err:
                ScenarioConfig(n_frames=4, n_leaves=2, **fields)
            assert str(err.value) == message

    def test_rotation_angles_need_a_finite_sum(self):
        # Each angle is finite, but from frame 2 on generate would rotate by inf.
        events = ((1, 9e307), (2, 9e307))
        with pytest.raises(ValueError) as err:
            ScenarioConfig(n_frames=5, n_leaves=2, rotation_events=events)
        assert str(err.value) == "rotation event angles must have a finite sum"
        ScenarioConfig(n_frames=5, n_leaves=2, rotation_events=events[:1])

    def test_rejects_negative_drift_with_exact_message(self):
        with pytest.raises(ValueError) as err:
            ScenarioConfig(n_frames=5, n_leaves=2, embedding_drift_rate=-0.1)
        expected = f"embedding_drift_rate * n_frames must lie in [0, 1e+306], got {-0.1 * 5}"
        assert str(err.value) == expected

    def test_rejects_negative_seed_with_exact_message(self):
        # numpy's generator refuses it, so it would fail only once generate runs.
        with pytest.raises(ValueError) as err:
            ScenarioConfig(n_frames=5, n_leaves=2, seed=-1)
        assert str(err.value) == "seed must be non-negative, got -1"


class TestGenerate:
    def test_deterministic_for_equal_seeds(self):
        cfg = clean_cfg(
            n_frames=15,
            occlusion_prob=0.1,
            miss_prob=0.1,
            fp_rate=0.8,
            box_jitter_std=1.0,
            conf_lo=0.5,
            conf_hi=0.95,
            embedding_noise_std=0.05,
            embedding_drift_rate=0.01,
            latent_similarity=0.3,
            birth_window=4,
            death_prob=0.5,
            rotation_events=((8, 0.7),),
            seed=77,
        )
        gt_a, det_a, map_a = generate(cfg)
        gt_b, det_b, map_b = generate(cfg)
        assert gt_a == gt_b
        assert map_a == map_b
        assert sorted(det_a) == sorted(det_b)
        for frame in det_a:
            assert len(det_a[frame]) == len(det_b[frame])
            for x, y in zip(det_a[frame], det_b[frame]):
                assert x.box == y.box
                assert x.confidence == y.confidence
                assert np.array_equal(x.embedding, y.embedding)

    def test_seed_changes_output(self):
        gt_a, _, _ = generate(clean_cfg(seed=1))
        gt_b, _, _ = generate(clean_cfg(seed=2))
        assert gt_a != gt_b

    def test_every_frame_key_present(self):
        cfg = clean_cfg(n_leaves=1, occlusion_windows=((1, 1, 12),))
        gt, det, truth_map = generate(cfg)
        assert sorted(det) == list(range(1, 13))
        assert all(det[f] == [] for f in det)
        assert gt == [] and truth_map == {}

    def test_truth_map_covers_exactly_real_detections(self):
        cfg = clean_cfg(n_frames=20, fp_rate=2.0, seed=9)
        gt, det, truth_map = generate(cfg)
        by_frame = {}
        for (frame, idx), leaf in truth_map.items():
            by_frame.setdefault(frame, {})[idx] = leaf
        spurious = 0
        for frame in det:
            rows_at = [row for row in gt if row.frame == frame]
            mapped = by_frame.get(frame, {})
            # Real detections come first, one per annotated leaf.
            assert sorted(mapped) == list(range(len(rows_at)))
            assert sorted(mapped.values()) == sorted(row.leaf_id for row in rows_at)
            spurious += len(det[frame]) - len(mapped)
        assert spurious > 0

    def test_noise_free_boxes_match_annotations(self):
        gt, det, truth_map = generate(clean_cfg())
        boxes = gt_boxes_by_key(gt)
        for (frame, idx), leaf in truth_map.items():
            truth = boxes[(frame, leaf)]
            observed = det[frame][idx].box
            assert observed.u == truth.u and observed.v == truth.v
            # Detector boxes never shrink below a 2-pixel side.
            assert observed.w == max(truth.w, 2.0)
            assert observed.h == max(truth.h, 2.0)

    def test_jitter_moves_boxes_and_respects_floor(self):
        gt, det, truth_map = generate(clean_cfg(box_jitter_std=3.0, seed=21))
        boxes = gt_boxes_by_key(gt)
        moved = 0
        for (frame, idx), leaf in truth_map.items():
            observed = det[frame][idx].box
            assert observed.w >= 2.0 and observed.h >= 2.0
            if observed.u != boxes[(frame, leaf)].u:
                moved += 1
        assert moved > 0

    def test_confidence_bounds(self):
        _, det, _ = generate(clean_cfg(conf_lo=0.55, conf_hi=0.9, fp_rate=1.0))
        values = [d.confidence for rows in det.values() for d in rows]
        assert values and all(0.55 <= c <= 0.9 for c in values)

    def test_occlusion_window_is_inclusive(self):
        cfg = clean_cfg(n_leaves=2, occlusion_windows=((1, 5, 8),))
        gt, _, truth_map = generate(cfg)
        frames_with_leaf1 = {row.frame for row in gt if row.leaf_id == 1}
        assert frames_with_leaf1 == set(range(1, 13)) - {5, 6, 7, 8}
        assert all(leaf != 1 or frame not in (5, 6, 7, 8) for (frame, _), leaf in truth_map.items())

    def test_rotation_event_moves_leaves_without_resizing(self):
        still = clean_cfg(n_frames=20)
        turned = clean_cfg(n_frames=20, rotation_events=((11, math.pi / 2.0),))
        gt_still = gt_boxes_by_key(generate(still)[0])
        gt_turned = gt_boxes_by_key(generate(turned)[0])
        assert set(gt_still) == set(gt_turned)
        for key in gt_still:
            frame, _ = key
            a, b = gt_still[key], gt_turned[key]
            assert a.w == b.w and a.h == b.h
            if frame < 11:
                assert a == b
            else:
                assert (a.u, a.v) != (b.u, b.v)

    def test_embeddings_constant_without_noise_or_drift(self):
        _, det, truth_map = generate(clean_cfg())
        per_leaf = {}
        for (frame, idx), leaf in truth_map.items():
            per_leaf.setdefault(leaf, []).append(det[frame][idx].embedding)
        for vectors in per_leaf.values():
            assert abs(np.linalg.norm(vectors[0]) - 1.0) <= 1e-9
            for v in vectors[1:]:
                assert np.array_equal(v, vectors[0])

    def test_latent_similarity_controls_cross_leaf_cosine(self):
        def mean_cross_cos(similarity):
            cfg = clean_cfg(n_leaves=6, latent_similarity=similarity, seed=13)
            _, det, truth_map = generate(cfg)
            latent = {}
            for (frame, idx), leaf in truth_map.items():
                latent.setdefault(leaf, det[frame][idx].embedding)
            leaves = sorted(latent)
            pairs = [
                float(latent[a] @ latent[b])
                for i, a in enumerate(leaves)
                for b in leaves[i + 1 :]
            ]
            return sum(pairs) / len(pairs)

        assert mean_cross_cos(0.9) > 0.6
        assert abs(mean_cross_cos(0.0)) < 0.4

    def test_drift_rotates_embeddings_over_time(self):
        cfg = clean_cfg(n_frames=30, n_leaves=1, embedding_drift_rate=0.02)
        _, det, truth_map = generate(cfg)
        series = [det[frame][idx].embedding for (frame, idx) in sorted(truth_map)]
        near = float(series[0] @ series[1])
        far = float(series[0] @ series[-1])
        assert far < near <= 1.0
        assert far < 0.9999

    def test_birth_window_staggers_appearances(self):
        cfg = clean_cfg(n_frames=14, n_leaves=30, birth_window=10, seed=3)
        gt, _, _ = generate(cfg)
        per_frame = {f: sum(1 for row in gt if row.frame == f) for f in range(1, 15)}
        assert per_frame[1] < 30
        assert per_frame[11] == 30
        assert per_frame[14] == 30

    def test_death_prob_one_empties_final_frame(self):
        cfg = clean_cfg(n_frames=18, death_prob=1.0)
        gt, det, _ = generate(cfg)
        assert all(row.frame < 18 for row in gt)
        assert det[18] == []

    def test_leaf_is_gone_on_its_death_frame(self):
        # Every leaf is born at frame 1 and, with death_prob 1 on a two-frame
        # scene, dies at frame 2: it shows on frame 1 only.
        cfg = ScenarioConfig(n_frames=2, n_leaves=3, death_prob=1.0, birth_window=0, seed=0)
        gt, det, _ = generate(cfg)
        assert [(row.frame, row.leaf_id) for row in gt] == [(1, 1), (1, 2), (1, 3)]
        assert det[2] == []

    def test_every_box_holds_python_floats(self):
        cfg = clean_cfg(n_frames=6, box_jitter_std=1.0, fp_rate=2.0, seed=3)
        gt, det, _ = generate(cfg)
        boxes = [row.box for row in gt] + [d.box for rows in det.values() for d in rows]
        assert boxes
        for box in boxes:
            assert all(type(x) is float for x in (box.u, box.v, box.w, box.h)), box

    def test_false_positive_boxes_stay_inside_frame(self):
        cfg = clean_cfg(n_frames=25, fp_rate=2.0, frame_width=200, frame_height=160)
        gt, det, truth_map = generate(cfg)
        for frame, rows in det.items():
            real = {idx for (f, idx) in truth_map if f == frame}
            for idx, d in enumerate(rows):
                if idx in real:
                    continue
                assert d.box.u >= 0.0 and d.box.v >= 0.0
                assert d.box.u + d.box.w <= 200.0
                assert d.box.v + d.box.h <= 160.0


class TestBaselineTracker:
    @staticmethod
    def det_at(u, dim=4):
        e = np.zeros(dim)
        e[0] = 1.0
        return Detection(BBox(u, 0.0, 10.0, 10.0), 1.0, e)

    def test_static_boxes_keep_ids(self):
        frames = {f: [self.det_at(0.0), self.det_at(50.0)] for f in range(1, 6)}
        results = baseline_iou_tracker(frames, 0.5)
        for r in results:
            assert sorted(tid for tid, _, _ in r.assignments) == [1, 2]
        assert results[0].new_track_ids == [1, 2]
        assert all(r.new_track_ids == [] for r in results[1:])
        assert all(r.pruned_track_ids == [] for r in results)

    def test_jump_beyond_gate_becomes_new_track(self):
        frames = {1: [self.det_at(0.0)], 2: [self.det_at(0.0)], 3: [self.det_at(100.0)]}
        results = baseline_iou_tracker(frames, 0.5)
        assert results[2].new_track_ids == [2]
        assert results[2].pruned_track_ids == [1]

    def test_single_missed_frame_loses_identity(self):
        frames = {1: [self.det_at(0.0)], 2: [], 3: [self.det_at(0.0)]}
        results = baseline_iou_tracker(frames, 0.5)
        assert results[1].pruned_track_ids == [1]
        assert [tid for tid, _, _ in results[2].assignments] == [2]

    def test_gate_validation(self):
        for value in (0.0, 1.5):
            with pytest.raises(ValueError) as err:
                baseline_iou_tracker({1: []}, value)
            assert str(err.value) == f"iou_threshold must lie in (0, 1], got {value}"

    # Small frames crowd the leaves and the clutter, so IoU components interleave rows.
    @settings(max_examples=100, deadline=None)
    @given(
        n_frames=st.integers(1, 8),
        n_leaves=st.integers(1, 6),
        side=st.sampled_from([64, 128, 256]),
        fp_rate=st.sampled_from([0.0, 1.0, 3.0]),
        jitter=st.sampled_from([0.0, 2.0, 8.0]),
        miss_prob=st.sampled_from([0.0, 0.3]),
        iou_threshold=st.sampled_from([0.1, 0.3, 0.5, 1.0]),
        seed=st.integers(0, 2**16),
    )
    def test_property_output_ascends_by_track_id(
        self, n_frames, n_leaves, side, fp_rate, jitter, miss_prob, iou_threshold, seed
    ):
        cfg = ScenarioConfig(
            n_frames=n_frames, n_leaves=n_leaves, frame_width=side, frame_height=side,
            fp_rate=fp_rate, box_jitter_std=jitter, miss_prob=miss_prob, embedding_dim=4, seed=seed,
        )
        _, frames, _ = generate(cfg)
        for result in baseline_iou_tracker(frames, iou_threshold):
            labels = [track_id for track_id, _, _ in result.assignments]
            for ids in (labels, result.new_track_ids, result.pruned_track_ids):
                assert all(a < b for a, b in zip(ids, ids[1:]))

    def test_partial_overlap_matches_at_loose_gate(self):
        frames = {1: [self.det_at(0.0)], 2: [self.det_at(4.0)]}
        # IoU of the shifted box is 6/14; it survives a 0.3 gate but
        # not a 0.5 gate.
        loose = baseline_iou_tracker(frames, 0.3)
        tight = baseline_iou_tracker(frames, 0.5)
        assert [tid for tid, _, _ in loose[1].assignments] == [1]
        assert [tid for tid, _, _ in tight[1].assignments] == [2]
