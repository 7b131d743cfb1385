"""Memory bank lifecycle: matching, prototype updates, aging, pruning."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from frond.embedding import normalize
from frond.geometry import BBox
from frond.simulator import ScenarioConfig, generate
from frond.tracker import Detection, MemoryBank, TrackerParams, run_grid, run_sequence, step, tracked_boxes
from oracles import prototype_update


def axis(dim: int, index: int, sign: float = 1.0) -> np.ndarray:
    v = np.zeros(dim)
    v[index] = sign
    return v


def det(embedding, conf: float = 1.0, u: float = 0.0) -> Detection:
    return Detection(BBox(u, 0.0, 10.0, 10.0), conf, np.asarray(embedding, dtype=float))


# Small integer components in 3-d make equal similarities, and so solver
# ties and gate-boundary pairs, common.
EMBEDDINGS = st.lists(st.integers(-2, 2), min_size=3, max_size=3).filter(any)


@st.composite
def step_inputs(draw):
    """A live bank (ages within tau_a, ids ascending), a frame of detections, params."""
    tau_a = draw(st.integers(0, 3))
    params = TrackerParams(
        tau_s=draw(st.sampled_from([-1.0, 0.0, 0.3, 0.5, 1.0])),
        tau_a=tau_a,
        conf_min=draw(st.sampled_from([0.0, 0.5, 1.0])),
        ema_mode=draw(st.sampled_from(["ema", "mean"])),
    )
    track_ids, rows, ages = [], [], []
    next_id = 1
    for _ in range(draw(st.integers(0, 5))):
        rows.append(normalize(draw(EMBEDDINGS)))
        track_ids.append(next_id)
        ages.append(draw(st.integers(0, tau_a)))
        next_id += draw(st.integers(1, 3))
    prototypes = np.array(rows).reshape(-1, 3)
    bank = MemoryBank(
        prototypes=prototypes,
        track_ids=np.array(track_ids, dtype=np.int64),
        ages=np.array(ages, dtype=np.int64),
        sums=prototypes.copy() if params.ema_mode == "mean" else None,
        next_id=next_id,
    )
    confidences = st.sampled_from([0.2, 0.5, 0.9])
    detections = [
        Detection(BBox(10.0 * k, 0.0, 5.0, 5.0), draw(confidences), np.array(e, dtype=float))
        for k, e in enumerate(draw(st.lists(EMBEDDINGS, max_size=6)))
    ]
    return bank, detections, params


@st.composite
def frame_sequences(draw):
    """A short run of frames of detections, and params, for a bank from empty."""
    params = TrackerParams(
        tau_s=draw(st.sampled_from([-1.0, 0.0, 0.3, 0.5])),
        tau_a=draw(st.integers(0, 2)),
        ema_mode=draw(st.sampled_from(["ema", "mean"])),
    )
    frame = st.lists(st.tuples(EMBEDDINGS, st.sampled_from([0.2, 0.9])), max_size=5)
    frames = [
        [
            Detection(BBox(10.0 * k, 0.0, 5.0, 5.0), conf, np.array(e, dtype=float))
            for k, (e, conf) in enumerate(rows)
        ]
        for rows in draw(st.lists(frame, min_size=1, max_size=6))
    ]
    return frames, params


@st.composite
def grid_inputs(draw):
    """Frames of detections keyed from 1, and a grid of params for them.

    The tau_s values straddle the similarities the small-integer
    embeddings make (0.5, 0.7071, 0.8, 0.8165 and the like); the few
    tau_a values and mean mode, which ignores alpha, put rows in shared
    groups.
    """
    frames, _ = draw(frame_sequences())
    row = st.builds(
        TrackerParams,
        tau_s=st.sampled_from([-1.0, 0.0, 0.3, 0.5, 0.6, 0.7, 0.75, 0.8, 0.9, 1.0]),
        tau_a=st.integers(1, 2),
        alpha=st.sampled_from([0.0, 0.5, 1.0]),
        ema_mode=st.sampled_from(["ema", "mean"]),
    )
    return dict(enumerate(frames, start=1)), draw(st.lists(row, min_size=1, max_size=8))


# Frame 2's detection has similarity 0.6 to track 1: gates at 0.5 match it and
# gates at 0.7 found track 2 instead, in either mode.
FORKING_FRAMES = {1: [det(axis(2, 0))], 2: [det([0.6, 0.8])], 3: [det([0.6, 0.8])]}
FORKING_GRID = [
    TrackerParams(tau_s=0.5),
    TrackerParams(tau_s=0.7),
    TrackerParams(tau_s=0.5, alpha=0.2, ema_mode="mean"),
    TrackerParams(tau_s=0.7, alpha=0.8, ema_mode="mean"),
]


class TestParams:
    def test_defaults(self):
        params = TrackerParams()
        assert (params.tau_s, params.tau_a, params.alpha, params.conf_min, params.ema_mode) == (
            0.4,
            5,
            0.5,
            0.5,
            "ema",
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            TrackerParams(tau_s=1.5)
        with pytest.raises(ValueError):
            TrackerParams(tau_a=-1)
        with pytest.raises(ValueError):
            TrackerParams(alpha=1.2)
        with pytest.raises(ValueError):
            TrackerParams(conf_min=-0.1)
        with pytest.raises(ValueError):
            TrackerParams(ema_mode="median")

    def test_conf_min_above_one_allowed(self):
        # A threshold no detection can reach is a legal way to disable tracking.
        assert TrackerParams(conf_min=1.1).conf_min == 1.1

    def test_conf_min_infinity_allowed(self):
        assert TrackerParams(conf_min=math.inf).conf_min == math.inf

    def test_conf_min_nan_rejected_with_exact_message(self):
        # NaN fails every comparison, so it would drop every detection.
        with pytest.raises(ValueError) as err:
            TrackerParams(conf_min=math.nan)
        assert str(err.value) == "conf_min must be non-negative, got nan"

    @pytest.mark.parametrize("tau_a", [math.inf, math.nan])
    def test_non_finite_tau_a_rejected_with_exact_message(self, tau_a):
        with pytest.raises(ValueError) as err:
            TrackerParams(tau_a=tau_a)
        assert str(err.value) == f"tau_a must be a non-negative integer, got {tau_a}"


class TestDetection:
    def test_embedding_normalized_at_construction(self):
        d = det([3.0, 4.0])
        assert d.embedding == pytest.approx([0.6, 0.8], abs=1e-12)

    def test_confidence_range_enforced(self):
        with pytest.raises(ValueError):
            det([1.0, 0.0], conf=1.5)
        with pytest.raises(ValueError):
            det([1.0, 0.0], conf=-0.1)

    @pytest.mark.parametrize("conf", [math.nan, math.inf, -math.inf])
    def test_non_finite_confidence_rejected_with_exact_message(self, conf):
        with pytest.raises(ValueError) as err:
            det([1.0, 0.0], conf=conf)
        assert str(err.value) == f"confidence must lie in [0, 1], got {conf!r}"


class TestFirstStep:
    """The first step on an empty bank: every kept detection founds a track."""

    def test_confidence_filter(self):
        params = TrackerParams()
        bank = MemoryBank()
        result = step(bank, [det(axis(4, 0), conf=0.9), det(axis(4, 1), conf=0.3)], params, 1)
        assert bank.track_ids.tolist() == [1]
        assert result.new_track_ids == [1]
        assert [(tid, j) for tid, j, _ in result.assignments] == [(1, 0)]

    def test_exact_threshold_kept(self):
        bank = MemoryBank()
        step(bank, [det(axis(4, 0), conf=0.5)], TrackerParams(), 1)
        assert bank.track_ids.tolist() == [1]

    def test_ids_follow_detection_order(self):
        dets = [det(axis(8, k), u=20.0 * k) for k in range(5)]
        bank = MemoryBank()
        result = step(bank, dets, TrackerParams(), 1)
        assert bank.track_ids.tolist() == [1, 2, 3, 4, 5]
        assert result.new_track_ids == [1, 2, 3, 4, 5]
        assert [j for _, j, _ in result.assignments] == [0, 1, 2, 3, 4]

    def test_prototypes_are_the_embeddings(self):
        dets = [det([3.0, 4.0])]
        bank = MemoryBank()
        step(bank, dets, TrackerParams(), 1)
        assert bank.prototypes[0] == pytest.approx([0.6, 0.8], abs=1e-12)
        assert bank.ages[0] == 0

    def test_disable_with_high_conf_min(self):
        bank = MemoryBank()
        result = step(bank, [det(axis(4, 0))], TrackerParams(conf_min=1.1), 1)
        assert bank.track_ids.tolist() == []
        assert result.assignments == []

    @pytest.mark.parametrize("mode", ["ema", "mean"])
    def test_new_track_does_not_share_the_detection_embedding(self, mode):
        # alpha=0.5 EMA and the two-sample mean both give (0.6, 1.8) normalized.
        params = TrackerParams(tau_s=-1.0, ema_mode=mode)
        first = det([3.0, 4.0])
        bank = MemoryBank()
        step(bank, [first], params, 1)
        first.embedding[:] = [1.0, 0.0]
        assert bank.prototypes[0] == pytest.approx([0.6, 0.8], abs=1e-12)
        step(bank, [det([0.0, 1.0])], params, 2)
        assert bank.prototypes[0] == pytest.approx(normalize(np.array([0.6, 1.8])), abs=1e-12)


class TestStep:
    def test_identical_embedding_is_fixed_point(self):
        params = TrackerParams()
        e = np.array([3.0, 4.0])
        bank = MemoryBank()
        step(bank, [det(e)], params, 1)
        before = bank.prototypes[0].copy()
        result = step(bank, [det(e)], params, frame=2)
        assert [(tid, j) for tid, j, _ in result.assignments] == [(1, 0)]
        assert bank.ages[0] == 0
        assert np.array_equal(bank.prototypes[0], before)

    @pytest.mark.parametrize("ema_mode", ["ema", "mean"])
    def test_arrays_read_before_a_step_keep_their_values(self, ema_mode):
        # Track 1 matches and track 2 ages, yet no array the bank held
        # before the step is written: a step replaces them.
        params = TrackerParams(tau_s=-1.0, ema_mode=ema_mode)
        bank = MemoryBank()
        step(bank, [det(axis(3, 0)), det(axis(3, 1), u=20.0)], params, 1)
        held = [bank.prototypes[0], bank.ages, bank.track_ids] + ([bank.sums] if ema_mode == "mean" else [])
        copies = [a.copy() for a in held]
        result = step(bank, [det([0.6, 0.0, 0.8])], params, frame=2)
        assert [(tid, j) for tid, j, _ in result.assignments] == [(1, 0)]
        assert bank.ages.tolist() == [0, 1]
        assert not np.array_equal(bank.prototypes[0], copies[0])
        assert all(np.array_equal(a, c) for a, c in zip(held, copies))

    def test_ema_blend_is_renormalized(self):
        # alpha=0.5 blend of (1,0) and (0,1) is (0.5, 0.5); stored
        # prototype is its unit version (sqrt(1/2), sqrt(1/2)).
        params = TrackerParams(tau_s=-1.0)
        bank = MemoryBank()
        step(bank, [det(axis(2, 0))], params, 1)
        step(bank, [det(axis(2, 1))], params, frame=2)
        assert bank.prototypes[0] == pytest.approx([0.707107, 0.707107], abs=1e-6)
        assert abs(np.linalg.norm(bank.prototypes[0]) - 1.0) <= 1e-9

    def test_alpha_one_freezes_prototype(self):
        params = TrackerParams(alpha=1.0, tau_s=-1.0)
        bank = MemoryBank()
        step(bank, [det(axis(2, 0))], params, 1)
        before = bank.prototypes[0].copy()
        step(bank, [det([0.6, 0.8])], params, frame=2)
        assert np.array_equal(bank.prototypes[0], before)

    def test_alpha_zero_takes_latest_embedding(self):
        params = TrackerParams(alpha=0.0, tau_s=-1.0)
        bank = MemoryBank()
        step(bank, [det(axis(2, 0))], params, 1)
        step(bank, [det([0.6, 0.8])], params, frame=2)
        assert np.array_equal(bank.prototypes[0], np.array([0.6, 0.8]))

    def test_mean_mode_uses_uniform_history(self):
        params = TrackerParams(tau_s=-1.0, ema_mode="mean")
        bank = MemoryBank()
        step(bank, [det(axis(2, 0))], params, 1)
        step(bank, [det(axis(2, 0))], params, frame=2)
        step(bank, [det(axis(2, 1))], params, frame=3)
        # History (1,0), (1,0), (0,1): normalized mean is (2,1)/sqrt(5).
        expected = np.array([2.0, 1.0]) / np.sqrt(5.0)
        assert bank.prototypes[0] == pytest.approx(expected, abs=1e-12)

    def test_ema_prototypes_are_the_blend_bit_for_bit(self):
        # Replays a noisy seeded scene: after every frame each matched
        # prototype must equal normalize(alpha * old + (1 - alpha) * e)
        # exactly, and each new one the founding embedding.
        cfg = ScenarioConfig(
            n_frames=20,
            n_leaves=6,
            miss_prob=0.1,
            fp_rate=0.5,
            conf_lo=0.4,
            embedding_dim=16,
            embedding_noise_std=0.1,
            embedding_drift_rate=0.02,
            seed=5,
        )
        _, frames, _ = generate(cfg)
        params = TrackerParams(alpha=0.7)
        bank = MemoryBank()
        matched = 0
        for frame in sorted(frames):
            before = {tid: p.copy() for tid, p in zip(bank.track_ids.tolist(), bank.prototypes)}
            result = step(bank, frames[frame], params, frame)
            after = dict(zip(bank.track_ids.tolist(), bank.prototypes))
            for track_id, j, _ in result.assignments:
                e = frames[frame][j].embedding
                if track_id in result.new_track_ids:
                    expected = e
                else:
                    expected = normalize(params.alpha * before[track_id] + (1.0 - params.alpha) * e)
                    matched += 1
                assert np.array_equal(after[track_id], expected)
        assert matched > 50

    def test_mean_prototypes_are_the_normalized_sum_bit_for_bit(self):
        # The same scene in mean mode: after every frame each track's sum
        # must equal its absorbed embeddings added in order, exactly, and
        # each matched prototype normalize(sum).
        cfg = ScenarioConfig(
            n_frames=20,
            n_leaves=6,
            miss_prob=0.1,
            fp_rate=0.5,
            conf_lo=0.4,
            embedding_dim=16,
            embedding_noise_std=0.1,
            embedding_drift_rate=0.02,
            seed=5,
        )
        _, frames, _ = generate(cfg)
        params = TrackerParams(ema_mode="mean")
        bank = MemoryBank()
        sums = {}
        matched = 0
        for frame in sorted(frames):
            result = step(bank, frames[frame], params, frame)
            after = dict(zip(bank.track_ids.tolist(), zip(bank.prototypes, bank.sums)))
            for track_id, j, _ in result.assignments:
                e = frames[frame][j].embedding
                if track_id in result.new_track_ids:
                    sums[track_id] = e
                    expected = e
                else:
                    sums[track_id] = sums[track_id] + e
                    expected = normalize(sums[track_id])
                    matched += 1
                assert np.array_equal(after[track_id][0], expected)
                assert np.array_equal(after[track_id][1], sums[track_id])
        assert matched > 50

    @pytest.mark.parametrize("ema_mode", ["ema", "mean"])
    def test_opposite_match_takes_the_detection_embedding(self, ema_mode):
        # At tau_s = -1 a detection opposite to the prototype still matches;
        # the blend (alpha = 0.5) or the running sum cancels to zero.
        params = TrackerParams(tau_s=-1.0, ema_mode=ema_mode)
        bank = MemoryBank()
        step(bank, [det(axis(3, 0))], params, 1)
        result = step(bank, [det(axis(3, 0, sign=-1.0))], params, frame=2)
        assert [(tid, j) for tid, j, _ in result.assignments] == [(1, 0)]
        assert np.array_equal(bank.prototypes[0], axis(3, 0, sign=-1.0))

    def test_gated_detection_founds_new_track(self):
        params = TrackerParams()
        bank = MemoryBank()
        step(bank, [det(axis(2, 0))], params, 1)
        # Similarity to the prototype is 0.2, below tau_s = 0.4.
        far = det([0.2, np.sqrt(1.0 - 0.04)])
        result = step(bank, [far], params, frame=2)
        assert result.new_track_ids == [2]
        assert [(tid, j) for tid, j, _ in result.assignments] == [(2, 0)]
        assert bank.track_ids.tolist() == [1, 2]
        assert bank.ages[0] == 1

    def test_age_increments_and_prunes_after_tau_a(self):
        params = TrackerParams(tau_a=5)
        bank = MemoryBank()
        step(bank, [det(axis(2, 0))], params, 1)
        for empty_frame in range(2, 7):
            result = step(bank, [], params, frame=empty_frame)
            assert result.pruned_track_ids == []
            assert bank.ages[0] == empty_frame - 1
        result = step(bank, [], params, frame=7)
        assert result.pruned_track_ids == [1]
        assert bank.track_ids.tolist() == []

    def test_reappearance_within_tau_a_keeps_id(self):
        params = TrackerParams(tau_a=5)
        e = axis(4, 0)
        bank = MemoryBank()
        step(bank, [det(e)], params, 1)
        for f in range(2, 7):
            step(bank, [], params, frame=f)
        result = step(bank, [det(e)], params, frame=7)
        assert [(tid, j) for tid, j, _ in result.assignments] == [(1, 0)]
        assert result.new_track_ids == []
        assert bank.ages[0] == 0

    def test_tau_a_zero_prunes_on_first_miss(self):
        params = TrackerParams(tau_a=0)
        bank = MemoryBank()
        step(bank, [det(axis(2, 0))], params, 1)
        result = step(bank, [], params, frame=2)
        assert result.pruned_track_ids == [1]

    def test_ids_never_reused(self):
        params = TrackerParams(tau_a=0)
        bank = MemoryBank()
        step(bank, [det(axis(2, 0))], params, 1)
        step(bank, [], params, frame=2)
        result = step(bank, [det(axis(2, 1))], params, frame=3)
        assert result.new_track_ids == [2]
        assert bank.next_id == 3

    def test_dimension_mismatch_rejected(self):
        params = TrackerParams()
        bank = MemoryBank()
        step(bank, [det(axis(4, 0))], params, 1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            step(bank, [det(axis(8, 0))], params, frame=2)

    @pytest.mark.parametrize("founded, other", [("ema", "mean"), ("mean", "ema")])
    def test_mode_mismatch_rejected(self, founded, other):
        bank = MemoryBank()
        step(bank, [det(axis(4, 0))], TrackerParams(ema_mode=founded), 1)
        prototypes = bank.prototypes.copy()
        for frame in ([det(axis(4, 0))], []):
            with pytest.raises(ValueError) as err:
                step(bank, frame, TrackerParams(ema_mode=other), 2)
            assert str(err.value) == f"mode mismatch: ema_mode is {other!r}, bank uses {founded!r}"
        assert np.array_equal(bank.prototypes, prototypes)
        assert bank.ages.tolist() == [0]

    def test_unfounded_bank_takes_either_mode(self):
        # A frame with no kept detection founds nothing, so it fixes no mode.
        bank = MemoryBank()
        step(bank, [det(axis(4, 0), conf=0.1)], TrackerParams(ema_mode="mean"), 1)
        step(bank, [det(axis(4, 0))], TrackerParams(ema_mode="ema"), 2)
        assert bank.track_ids.tolist() == [1]
        assert bank.sums is None

    def test_each_surviving_detection_labeled_once(self):
        rng = np.random.default_rng(19)
        params = TrackerParams(conf_min=0.5)
        bank = MemoryBank()
        for frame in range(1, 8):
            dets = [
                Detection(
                    BBox(30.0 * k, 0.0, 10.0, 10.0),
                    float(rng.uniform(0.0, 1.0)),
                    rng.normal(size=16),
                )
                for k in range(int(rng.integers(0, 6)))
            ]
            result = step(bank, dets, params, frame)
            surviving = [j for j, d in enumerate(dets) if d.confidence >= params.conf_min]
            labeled = sorted(j for _, j, _ in result.assignments)
            assert labeled == surviving

    @settings(max_examples=300, deadline=None)
    @given(step_inputs())
    def test_property_step_accounts_for_every_track_and_detection(self, inputs):
        bank, detections, params = inputs
        before = dict(zip(bank.track_ids.tolist(), bank.ages.tolist()))
        first_new_id = bank.next_id
        result = step(bank, detections, params, frame=1)

        kept = [j for j, d in enumerate(detections) if d.confidence >= params.conf_min]
        assert sorted(j for _, j, _ in result.assignments) == kept
        labels = [track_id for track_id, _, _ in result.assignments]
        assert all(a < b for a, b in zip(labels, labels[1:]))
        labelled = set(labels)
        # A pruned track leaves the bank, so the age step gave it is read
        # from the survivors only; pruning is then checked against it.
        age_now = {tid: 0 if tid in labelled else age + 1 for tid, age in before.items()}
        after = dict(zip(bank.track_ids.tolist(), bank.ages.tolist()))
        for track_id, age in age_now.items():
            if track_id not in result.pruned_track_ids:
                assert after[track_id] == age
        assert result.pruned_track_ids == sorted(
            track_id for track_id, age in age_now.items() if age > params.tau_a
        )
        assert result.new_track_ids == list(range(first_new_id, bank.next_id))
        survivors = [tid for tid in before if tid not in result.pruned_track_ids]
        assert bank.track_ids.tolist() == survivors + result.new_track_ids
        det_of_new = {tid: j for tid, j, _ in result.assignments if tid in result.new_track_ids}
        assert [det_of_new[tid] for tid in result.new_track_ids] == sorted(det_of_new.values())

    @settings(max_examples=200, deadline=None)
    @given(frame_sequences())
    def test_property_bank_rows_stay_consistent(self, inputs):
        frames, params = inputs
        bank = MemoryBank()
        absorbed = {}
        for frame, detections in enumerate(frames, start=1):
            result = step(bank, detections, params, frame)
            for track_id, j, _ in result.assignments:
                e = detections[j].embedding
                if track_id in result.new_track_ids:
                    absorbed[track_id] = e
                else:
                    absorbed[track_id] = absorbed[track_id] + e
            n = len(bank.track_ids)
            assert np.all(np.diff(bank.track_ids) > 0)
            assert bank.prototypes.shape[0] == len(bank.ages) == n
            assert np.all(np.abs(np.linalg.norm(bank.prototypes, axis=1) - 1.0) <= 1e-12)
            assert (bank.sums is not None) == (params.ema_mode == "mean")
            if bank.sums is not None:
                assert bank.sums.shape == bank.prototypes.shape
                for track_id, row in zip(bank.track_ids.tolist(), bank.sums):
                    assert np.array_equal(row, absorbed[track_id])

    @settings(max_examples=200, deadline=None)
    @example(
        inputs=([[det(axis(3, 0))], [det(axis(3, 0, sign=-1.0))]], TrackerParams(tau_s=-1.0)),
        alpha=0.5, noise=0.0, seed=0, mirrored=False,
    )
    @example(
        inputs=([[det(axis(3, 1))]], TrackerParams(tau_s=-1.0, ema_mode="mean")),
        alpha=0.5, noise=0.0, seed=0, mirrored=True,
    )
    @given(
        frame_sequences(),
        st.sampled_from([0.0, 0.3, 0.5, 1.0]),
        st.sampled_from([0.0, 0.1]),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_property_bank_equals_row_by_row_reference(self, inputs, alpha, noise, seed, mirrored):
        # Every prototype, and in mean mode every sum, must equal the
        # reference update's bytes after every frame.  tau_s = -1 admits
        # opposite matches, whose blend (alpha 0.5) or sum cancels to zero
        # when noise is 0; mirrored follows each frame with its negation.
        frames, params = inputs
        if mirrored:
            frames = [
                f
                for dets in frames
                for f in (dets, [Detection(d.box, d.confidence, -d.embedding) for d in dets])
            ]
        params = TrackerParams(tau_s=params.tau_s, tau_a=params.tau_a, alpha=alpha, ema_mode=params.ema_mode)
        mean_mode = params.ema_mode == "mean"
        rng = np.random.default_rng(seed)
        for detections in frames:
            for d in detections:
                d.embedding = normalize(d.embedding + noise * rng.normal(size=3))
        bank = MemoryBank()
        reference = {}
        for frame, detections in enumerate(frames, start=1):
            result = step(bank, detections, params, frame)
            for track_id, j, _ in result.assignments:
                e = detections[j].embedding
                if track_id in result.new_track_ids:
                    reference[track_id] = (e, e if mean_mode else None)
                else:
                    reference[track_id] = prototype_update(*reference[track_id], e, alpha, mean_mode)
            for track_id in result.pruned_track_ids:
                del reference[track_id]
            assert bank.track_ids.tolist() == sorted(reference)
            for row, track_id in enumerate(bank.track_ids.tolist()):
                prototype, total = reference[track_id]
                assert bank.prototypes[row].tobytes() == prototype.tobytes()
                if mean_mode:
                    assert bank.sums[row].tobytes() == total.tobytes()

    def test_matching_ignores_detection_order(self):
        params = TrackerParams(tau_s=-1.0)
        e1, e2, e3 = axis(8, 0), axis(8, 1), axis(8, 2)
        bank_a = MemoryBank()
        step(bank_a, [det(e1), det(e2), det(e3)], params, 1)
        bank_b = MemoryBank()
        step(bank_b, [det(e1), det(e2), det(e3)], params, 1)
        forward = step(bank_a, [det(e1, u=1.0), det(e2, u=2.0), det(e3, u=3.0)], params, 2)
        reversed_ = step(bank_b, [det(e3, u=3.0), det(e2, u=2.0), det(e1, u=1.0)], params, 2)
        by_track_fwd = {tid: box.u for tid, _, box in forward.assignments}
        by_track_rev = {tid: box.u for tid, _, box in reversed_.assignments}
        assert by_track_fwd == by_track_rev


class TestRunSequence:
    def test_deterministic(self):
        rng = np.random.default_rng(23)
        frames = {
            f: [det(rng.normal(size=8), conf=float(rng.uniform(0.4, 1.0)), u=15.0 * k) for k in range(3)]
            for f in range(1, 10)
        }
        params = TrackerParams()
        first = run_sequence(frames, params)
        second = run_sequence(frames, params)
        assert [r.assignments for r in first] == [r.assignments for r in second]

    def test_frames_processed_in_ascending_order(self):
        e = axis(2, 0)
        frames = {3: [det(e)], 1: [det(e)], 2: [det(e)]}
        results = run_sequence(frames, TrackerParams())
        assert [r.frame for r in results] == [1, 2, 3]
        assert all([(1, 0)] == [(tid, j) for tid, j, _ in r.assignments] for r in results)

    def test_error_carries_frame_context(self):
        frames = {1: [det(axis(4, 0))], 2: [det(axis(6, 0))]}
        with pytest.raises(ValueError, match="frame 2"):
            run_sequence(frames, TrackerParams())

    def test_tracked_boxes_flattening(self):
        frames = {1: [det(axis(2, 0), u=5.0)], 2: [det(axis(2, 0), u=6.0)]}
        rows = tracked_boxes(run_sequence(frames, TrackerParams()))
        assert [(r.frame, r.leaf_id, r.box.u) for r in rows] == [(1, 1, 5.0), (2, 1, 6.0)]


class TestRunGrid:
    @settings(max_examples=300, deadline=None)
    @example(inputs=(FORKING_FRAMES, FORKING_GRID))
    @given(grid_inputs())
    def test_property_every_row_equals_run_sequence(self, inputs):
        # The step loop is a reference that does not go through run_grid.
        frames, grid = inputs
        rows = run_grid(frames, grid)
        assert len(rows) == len(grid)
        for params, results in zip(grid, rows):
            bank = MemoryBank()
            stepped = [step(bank, frames[frame], params, frame) for frame in sorted(frames)]
            assert results == run_sequence(frames, params) == stepped

    def test_rows_fork_where_the_gate_splits_them(self):
        loose, strict, loose_mean, strict_mean = run_grid(FORKING_FRAMES, FORKING_GRID)
        for a, b in ((loose, strict), (loose_mean, strict_mean)):
            assert a[0] is b[0]
            assert [[tid for tid, _, _ in r.assignments] for r in (a[1], b[1])] == [[1], [2]]
            assert [r.new_track_ids for r in (a[1], b[1])] == [[], [2]]
            assert a[2].assignments[0][0] == 1 and b[2].assignments[0][0] == 2

    def test_mean_rows_that_differ_only_in_alpha_share_every_result(self):
        frames = dict(enumerate(([det(axis(3, k % 3), u=5.0 * k)] for k in range(6)), start=1))
        grid = [TrackerParams(alpha=0.1, ema_mode="mean"), TrackerParams(alpha=0.9, ema_mode="mean")]
        first, second = run_grid(frames, grid)
        assert len(first) == 6 and all(a is b for a, b in zip(first, second))

    def test_error_carries_frame_context(self):
        frames = {1: [det(axis(4, 0))], 2: [det(axis(6, 0))]}
        with pytest.raises(ValueError, match="^frame 2: dimension mismatch"):
            run_grid(frames, [TrackerParams(), TrackerParams(tau_s=0.9)])

    def test_empty_grid_runs_nothing(self):
        assert run_grid({1: [det(axis(2, 0))]}, []) == []
