"""Acceptance gate: ten end-to-end criteria, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict
lines alongside the pytest outcomes.
"""

import math
import time

import numpy as np
import pytest

from frond.assignment import hungarian
from frond.embedding import (
    CROSS_PLANT_FLEXIBLE,
    INTRA_PLANT_FULL_CYCLE,
    INTRA_PLANT_TEMPORAL_WINDOW,
    SamplingStrategy,
    normalize,
    sample_triplets,
    triplet_margin_loss,
)
from frond.fileio import (
    read_detections,
    read_gt,
    read_results,
    write_detections,
    write_gt,
    write_results,
    write_truth_map,
)
from frond.geometry import BBox, LeafBox
from frond.metrics import evaluate
from frond.simulator import ScenarioConfig, baseline_iou_tracker, generate
from frond.tracker import Detection, TrackerParams, run_sequence, tracked_boxes
from oracles import brute_idf1, brute_mota, min_assignment_total


def _verdict(number, description, ok):
    print(f"criterion {number:2d} [{description}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} failed: {description}"


def _pairs_are_a_matching(pairs, shape):
    rows = [i for i, _ in pairs]
    cols = [j for _, j in pairs]
    return (
        len(pairs) == min(shape)
        and len(set(rows)) == len(rows)
        and len(set(cols)) == len(cols)
        and all(0 <= i < shape[0] and 0 <= j < shape[1] for i, j in pairs)
    )


def _tracking_fixtures():
    """Hand-built gt/pred pairs with pinned metric values."""
    box = lambda u=0.0: BBox(u, 0.0, 10.0, 10.0)
    gt10 = [LeafBox(f, 1, box()) for f in range(1, 11)]

    deta_gt = [LeafBox(f, 1, box()) for f in range(1, 10)]
    deta_pred = [LeafBox(f, 1, box()) for f in range(1, 9)]
    deta_pred.append(LeafBox(9, 1, box(500.0)))

    mota_pred = [LeafBox(f, 1, box()) for f in range(1, 5)]
    mota_pred.append(LeafBox(5, 9, BBox(400.0, 400.0, 10.0, 10.0)))
    mota_pred += [LeafBox(f, 2, box()) for f in range(6, 11)]

    idf1_pred = [LeafBox(f, 1, box()) for f in range(1, 6)]
    idf1_pred += [LeafBox(f, 2, box()) for f in range(6, 11)]

    assa_pred = [LeafBox(f, 1, box()) for f in range(1, 9)]
    assa_pred += [LeafBox(f, 2, box()) for f in (9, 10)]

    return (deta_gt, deta_pred), (gt10, mota_pred), (gt10, idf1_pred), (gt10, assa_pred)


def _random_tracking_scene(rng):
    """Small scene with continuous jitter so matchings have no ties."""
    n_objects = int(rng.integers(1, 5))
    n_frames = int(rng.integers(2, 11))
    gt, pred = [], []
    fake = 50
    for f in range(1, n_frames + 1):
        used = set()
        for obj in range(1, n_objects + 1):
            if rng.uniform() < 0.15:
                continue
            box = BBox(150.0 * obj + rng.uniform(-1, 1), rng.uniform(-1, 1), 20.0, 20.0)
            gt.append(LeafBox(f, obj, box))
            if rng.uniform() < 0.2:
                continue
            tid = obj if rng.uniform() < 0.75 else int(rng.integers(1, n_objects + 3))
            if tid in used:
                continue
            used.add(tid)
            du, dv = rng.uniform(-8, 8, size=2)
            pred.append(LeafBox(f, tid, BBox(box.u + du, box.v + dv, 20.0, 20.0)))
        for _ in range(int(rng.integers(0, 2))):
            fake += 1
            pred.append(LeafBox(f, fake, BBox(4000.0 + rng.uniform(0, 500), 0.0, 20.0, 20.0)))
    return gt, pred


def test_criterion_01_assignment_optimality():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    checked = 0
    worst = 0.0
    ok = True
    shapes = [(2, 5), (3, 7), (5, 3), (4, 6), (5, 7), (7, 5), (2, 7), (6, 4)]
    for trial in range(1000):
        if trial < 600:
            n = int(rng.integers(2, 8))
            cost = rng.uniform(-5.0, 5.0, size=(n, n))
        elif trial < 800:
            cost = rng.integers(0, 20, size=(4, 4)).astype(float)
        else:
            cost = rng.uniform(-5.0, 5.0, size=shapes[trial % len(shapes)])
        result = hungarian(cost)
        if not _pairs_are_a_matching(result.pairs, cost.shape):
            ok = False
            break
        total = sum(cost[i, j] for i, j in result.pairs)
        gap = abs(total - min_assignment_total(cost))
        worst = max(worst, gap)
        if gap > 1e-9:
            ok = False
            break
        checked += 1
    elapsed = time.perf_counter() - start
    ok = ok and checked == 1000 and elapsed < 10.0
    _verdict(1, f"assignment optimal on 1000 matrices in {elapsed:.2f}s, worst gap {worst:.2e}", ok)


def test_criterion_02_metric_fixtures():
    (deta_gt, deta_pred), (gt_m, mota_pred), (gt_i, idf1_pred), (gt_a, assa_pred) = (
        _tracking_fixtures()
    )
    r_deta = evaluate(deta_gt, deta_pred)
    r_mota = evaluate(gt_m, mota_pred)
    r_idf1 = evaluate(gt_i, idf1_pred)
    r_assa = evaluate(gt_a, assa_pred)
    ok = (
        abs(r_deta.deta - 0.8) <= 1e-12
        and abs(r_mota.mota - 0.7) <= 1e-12
        and (r_mota.fn, r_mota.fp, r_mota.idsw) == (1, 1, 1)
        and abs(r_idf1.idf1 - 0.5) <= 1e-12
        and abs(r_assa.assa - 0.8) <= 1e-12
        and all(
            abs(r.hota - math.sqrt(r.deta * r.assa)) <= 1e-12
            for r in (r_deta, r_mota, r_idf1, r_assa)
        )
    )
    _verdict(
        2,
        f"fixtures DetA={r_deta.deta:.3f} MOTA={r_mota.mota:.3f} "
        f"IDF1={r_idf1.idf1:.3f} AssA={r_assa.assa:.3f}",
        ok,
    )


def test_criterion_03_metrics_match_brute_force():
    ok = True
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        gt, pred = _random_tracking_scene(rng)
        if not gt:
            continue
        report = evaluate(gt, pred)
        if report.mota != brute_mota(gt, pred) or report.idf1 != brute_idf1(gt, pred):
            ok = False
            break
    _verdict(3, "MOTA and IDF1 equal exhaustive-search values on 20 random scenes", ok)


def test_criterion_04_clean_scenario_is_perfect():
    cfg = ScenarioConfig(n_frames=31, n_leaves=8, seed=2)
    gt, det, _ = generate(cfg)
    start = time.perf_counter()
    rows = tracked_boxes(run_sequence(det, TrackerParams()))
    elapsed = time.perf_counter() - start
    report = evaluate(gt, rows)
    values = (report.hota, report.deta, report.assa, report.mota, report.idf1)
    ok = values == (1.0, 1.0, 1.0, 1.0, 1.0) and elapsed < 1.0
    _verdict(4, f"clean 8-leaf/31-frame run scores 1.0 everywhere in {elapsed:.3f}s", ok)


def test_criterion_05_occlusion_survival_bounded_by_age():
    short = ScenarioConfig(n_frames=40, n_leaves=3, occlusion_windows=((1, 10, 14),), seed=0)
    long = ScenarioConfig(n_frames=40, n_leaves=3, occlusion_windows=((1, 10, 15),), seed=0)

    def idf1_of(cfg):
        gt, det, _ = generate(cfg)
        return evaluate(gt, tracked_boxes(run_sequence(det, TrackerParams()))).idf1

    kept = idf1_of(short)
    lost = idf1_of(long)
    ok = kept == 1.0 and lost < 1.0
    _verdict(5, f"tau_a=5 survives 5-frame gap (IDF1={kept:.3f}) not 6 (IDF1={lost:.3f})", ok)


def test_criterion_06_rotation_beats_iou_baseline():
    cfg = ScenarioConfig(n_frames=31, n_leaves=6, rotation_events=((16, math.pi / 2),), seed=0)
    gt, det, _ = generate(cfg)
    ours = evaluate(gt, tracked_boxes(run_sequence(det, TrackerParams()))).idf1
    theirs = evaluate(gt, tracked_boxes(baseline_iou_tracker(det, 0.5))).idf1
    ok = ours == 1.0 and theirs < 0.8
    _verdict(6, f"90-degree turn: appearance IDF1={ours:.3f}, IoU baseline IDF1={theirs:.3f}", ok)


def test_criterion_07_threshold_sweep_shape():
    cfg = ScenarioConfig(
        n_frames=31,
        n_leaves=6,
        latent_similarity=0.2,
        embedding_noise_std=0.0663,
        miss_prob=0.25,
        fp_rate=1.5,
        box_jitter_std=1.0,
        conf_lo=0.6,
        conf_hi=1.0,
        embedding_drift_rate=0.02,
        seed=7,
    )
    gt, det, _ = generate(cfg)

    def hota_at(tau_s, mode="ema"):
        params = TrackerParams(tau_s=tau_s, ema_mode=mode)
        return evaluate(gt, tracked_boxes(run_sequence(det, params))).hota

    h = {tau: hota_at(tau) for tau in (0.2, 0.4, 0.6, 0.8)}
    mean04 = hota_at(0.4, "mean")
    ok = h[0.4] >= h[0.2] and h[0.4] > h[0.8] and h[0.4] >= mean04
    _verdict(
        7,
        "noisy sweep peaks at tau_s=0.4: "
        + " ".join(f"{tau}->{value:.3f}" for tau, value in sorted(h.items()))
        + f", mean mode {mean04:.3f}",
        ok,
    )


def test_criterion_08_triplet_gradients():
    rng = np.random.default_rng(808)
    step_size = 1e-6
    worst = 0.0
    checked = 0
    for dim in (8, 128):
        while checked < (50 if dim == 8 else 100):
            a, p, n = (normalize(rng.normal(size=dim)) for _ in range(3))
            d_ap = float(np.sum((a - p) ** 2))
            d_an = float(np.sum((a - n) ** 2))
            if abs(d_ap - d_an + 0.3) < 1e-3:
                continue
            checked += 1
            _, grads = triplet_margin_loss(a, p, n)
            for which, vector, grad in (("a", a, grads[0]), ("p", p, grads[1]), ("n", n, grads[2])):
                numeric = np.zeros(dim)
                for k in range(dim):
                    bump = np.zeros(dim)
                    bump[k] = step_size
                    args_hi = {"a": a, "p": p, "n": n}
                    args_lo = {"a": a, "p": p, "n": n}
                    args_hi[which] = vector + bump
                    args_lo[which] = vector - bump
                    hi, _ = triplet_margin_loss(args_hi["a"], args_hi["p"], args_hi["n"])
                    lo, _ = triplet_margin_loss(args_lo["a"], args_lo["p"], args_lo["n"])
                    numeric[k] = (hi - lo) / (2.0 * step_size)
                scale = max(1.0, float(np.max(np.abs(grad))))
                worst = max(worst, float(np.max(np.abs(grad - numeric))) / scale)
    ok = worst < 1e-4
    _verdict(8, f"analytic triplet gradients within {worst:.2e} of central differences", ok)


def test_criterion_09_sampling_constraints_hold():
    corpus = {
        plant: {
            leaf: list(range(1, 13))
            for leaf in range(1, 5 + plant % 3)
        }
        for plant in range(5)
    }
    for plant in corpus:
        corpus[plant][99] = [4]  # single sighting: never an anchor
    strategies = [
        SamplingStrategy(CROSS_PLANT_FLEXIBLE),
        SamplingStrategy(INTRA_PLANT_FULL_CYCLE),
        SamplingStrategy(INTRA_PLANT_TEMPORAL_WINDOW, delta_t=2),
    ]
    violations = 0
    for strategy in strategies:
        triplets = sample_triplets(corpus, strategy, 10_000, seed=99)
        if len(triplets) != 10_000:
            violations += 1
        for t in triplets:
            anchor_times = corpus[t.anchor.plant_id][t.anchor.leaf_id]
            good = (
                t.positive.plant_id == t.anchor.plant_id
                and t.positive.leaf_id == t.anchor.leaf_id
                and t.positive.t != t.anchor.t
                and t.anchor.t in anchor_times
                and t.positive.t in anchor_times
                and len(anchor_times) >= 2
                and t.negative.t in corpus[t.negative.plant_id][t.negative.leaf_id]
                and (t.negative.plant_id, t.negative.leaf_id)
                != (t.anchor.plant_id, t.anchor.leaf_id)
            )
            if strategy.kind != CROSS_PLANT_FLEXIBLE:
                good = good and t.negative.plant_id == t.anchor.plant_id
            if strategy.kind == INTRA_PLANT_TEMPORAL_WINDOW:
                good = good and abs(t.negative.t - t.anchor.t) <= 2
            if not good:
                violations += 1
    _verdict(9, f"30000 sampled triplets, {violations} constraint violations", violations == 0)


def test_criterion_10_determinism_and_round_trips(tmp_path):
    cfg = ScenarioConfig(
        n_frames=12,
        n_leaves=4,
        miss_prob=0.1,
        fp_rate=0.5,
        box_jitter_std=1.0,
        conf_lo=0.6,
        conf_hi=0.95,
        embedding_noise_std=0.05,
        embedding_dim=16,
        seed=31,
    )
    byte_sets = []
    for run in ("a", "b"):
        gt, det, truth_map = generate(cfg)
        base = tmp_path / run
        base.mkdir()
        write_detections(det, base / "det.txt")
        write_gt(gt, base / "gt.txt")
        write_truth_map(truth_map, base / "truth.txt")
        results = run_sequence(det, TrackerParams())
        write_results(tracked_boxes(results), base / "res.txt")
        byte_sets.append(
            tuple((base / name).read_bytes() for name in ("det.txt", "gt.txt", "truth.txt", "res.txt"))
        )
    deterministic = byte_sets[0] == byte_sets[1]

    corpus = {0: {1: [1, 2, 3], 2: [1, 3]}, 1: {1: [2, 4]}}
    strategy = SamplingStrategy(CROSS_PLANT_FLEXIBLE)
    same_seed = sample_triplets(corpus, strategy, 200, seed=5) == sample_triplets(
        corpus, strategy, 200, seed=5
    )

    base = tmp_path / "a"
    gt, det, _ = generate(cfg)
    det_rt = read_detections(base / "det.txt")
    det_ok = sorted(det_rt) == sorted(f for f in det if det[f]) and all(
        x.box == y.box and x.confidence == y.confidence and np.array_equal(x.embedding, y.embedding)
        for f in det_rt
        for x, y in zip(det[f], det_rt[f])
    )
    gt_ok = read_gt(base / "gt.txt") == sorted(gt, key=lambda r: (r.frame, r.leaf_id))
    results_rows = tracked_boxes(run_sequence(det, TrackerParams()))
    res_ok = read_results(base / "res.txt") == results_rows
    ok = deterministic and same_seed and det_ok and gt_ok and res_ok
    _verdict(10, "seeded reruns byte-identical; all formats round-trip exactly", ok)
