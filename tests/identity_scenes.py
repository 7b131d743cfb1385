"""Scenes in which the appearance tracker makes identity errors, built in memory.

Both sets are cohort-shaped, like the bench's paper-scale plants: 8
leaves over 31 frames of a 2048 x 2048 image, clutter at fp_rate 2.0, a
5 % miss rate, 1-pixel box jitter and a quarter turn of the rosette at
frame 16, for seeds 0-9.  They differ in how alike the leaves look:

similar  latent_similarity=0.9 with embedding noise 0.07, so leaf
         embeddings overlap and the appearance tracker switches ids.
bench    the bench's embedding noise 0.05 with distinct leaves, where
         appearance keeps every id and the motion-only baseline, which
         forgets a leaf after one missed frame or a large move, does not.
"""

from __future__ import annotations

import math
from functools import lru_cache

from frond.simulator import ScenarioConfig, generate

SEEDS = tuple(range(10))
COHORT = {
    "n_frames": 31,
    "n_leaves": 8,
    "frame_width": 2048,
    "frame_height": 2048,
    "fp_rate": 2.0,
    "miss_prob": 0.05,
    "box_jitter_std": 1.0,
    "rotation_events": ((16, math.pi / 2.0),),
}
SETS = {
    "similar": {"latent_similarity": 0.9, "embedding_noise_std": 0.07},
    "bench": {"embedding_noise_std": 0.05},
}


@lru_cache(maxsize=None)
def scene(name: str, seed: int):
    """(gt, detections, truth_map) of one set member, generated once per session."""
    return generate(ScenarioConfig(seed=seed, **COHORT, **SETS[name]))
