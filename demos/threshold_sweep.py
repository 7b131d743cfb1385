"""Sweep the similarity gate on a noisy scenario and tabulate HOTA.

Embedding noise is tuned so the expected same-leaf cosine similarity
sits near 0.8: a gate at 0.8 then rejects about half of the genuine
matches, while a very low gate lets stale tracks grab clutter.  The
default tau_s=0.4 sits in the comfortable middle.
"""

from frond.metrics import evaluate
from frond.simulator import ScenarioConfig, generate
from frond.tracker import TrackerParams, run_grid, tracked_boxes


def main():
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
    n_det = sum(len(rows) for rows in det.values())
    print(f"noisy scenario: {len(gt)} gt boxes, {n_det} detections "
          f"(misses, clutter, drift, jitter all on)")
    print()

    # One run_grid call tracks all eight rows: rows of one mode share a bank
    # until a frame's gate decisions split them.
    grid = [TrackerParams(tau_s=t, ema_mode=m) for t in (0.2, 0.4, 0.6, 0.8) for m in ("ema", "mean")]
    print("tau_s  mode  HOTA   DetA   AssA   MOTA    IDF1")
    for params, results in zip(grid, run_grid(det, grid)):
        r = evaluate(gt, tracked_boxes(results))
        print(f"{params.tau_s:4.1f}  {params.ema_mode:5s} {r.hota:.3f}  {r.deta:.3f}  "
              f"{r.assa:.3f}  {r.mota:+.3f}  {r.idf1:.3f}")
    print()
    print("a 0.8 gate sits at the mean same-leaf similarity, so half the")
    print("true matches are rejected and tracks fragment; 0.4 keeps them.")


if __name__ == "__main__":
    main()
