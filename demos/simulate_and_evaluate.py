"""Generate a synthetic rosette, track it, and score the result.

The scenario includes a 90-degree rotation event halfway through, which
is exactly the situation where appearance matching earns its keep: an
IoU-only tracker loses every identity when the plant turns.
"""

import math

from frond.metrics import evaluate, format_report
from frond.simulator import ScenarioConfig, baseline_iou_tracker, generate
from frond.tracker import TrackerParams, run_sequence, tracked_boxes


def main():
    cfg = ScenarioConfig(
        n_frames=31,
        n_leaves=6,
        rotation_events=((16, math.pi / 2),),
        embedding_noise_std=0.04,
        box_jitter_std=0.8,
        conf_lo=0.7,
        conf_hi=1.0,
        seed=0,
    )
    gt, det, truth_map = generate(cfg)
    n_det = sum(len(rows) for rows in det.values())
    print(f"scenario: {cfg.n_leaves} leaves, {cfg.n_frames} frames, "
          f"{len(gt)} gt boxes, {n_det} detections")
    print(f"rotation of {math.degrees(cfg.rotation_events[0][1]):.0f} degrees "
          f"at frame {cfg.rotation_events[0][0]}")
    print()

    ours = tracked_boxes(run_sequence(det, TrackerParams()))
    print("appearance tracker:")
    print(format_report(evaluate(gt, ours)))
    print()

    base = tracked_boxes(baseline_iou_tracker(det, 0.5))
    print("IoU-only baseline (one frame of memory):")
    print(format_report(evaluate(gt, base)))
    print()
    print("the baseline keeps localizing fine (DetA) but identity")
    print("association collapses at the rotation (AssA, IDF1, IDSW).")


if __name__ == "__main__":
    main()
