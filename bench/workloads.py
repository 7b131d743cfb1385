"""The benchmark's three workloads and the CLI commands each one runs.

Every workload is a closed loop with one client: its commands run one
after another, each as a fresh `python -m frond.cli` process, and a pass
is the workload's whole command sequence.  All scenes use the same noise
settings (2048x2048 frame, fp_rate=2.0, miss_prob=0.05,
embedding_noise_std=0.05, box_jitter_std=1.0); scene seeds derive from
the benchmark's --seed, so the same seed gives the same inputs.

Why each workload exists (see README.md for the layer-to-metric
predictions):

cohort  Daily paper-scale use: many plants of 8 leaves x 31 frames, each
        run simulate -> track -> eval, then one triplet draw over the gt
        corpus.  Interpreter start, imports and file I/O dominate; the
        solver is a small share, so a solver gain should barely show here
        while import and I/O changes should.
stress  Three plants of 150 leaves x 20 frames, each through simulate ->
        track -> eval.  The O(n^3) solver dominates and a pass writes and
        reads about 24 MB of detection files, so solver, IoU-matching and
        bulk-parsing work shows here.  Splitting the 60 frames over three
        plants gives three timing samples and three layouts per pass; one
        60-frame plant gave a single sample, whose spread over seeds was
        too wide to bound.
sweep   Eight mid plants of 40 leaves x 30 frames with det.txt and
        gt.txt built in set-up, then one `frond sweep` per plant over a
        tau_s grid x {ema, mean}.  Each sweep reads once and runs the
        tracker and metrics many times on mid-size matrices; the `mean`
        prototype path and gates other than 0.4 run only here.  The
        solver's work on one 40 x 60 plant varies by a spread of 0.13
        from seed to seed, and that plant gave one sample per pass;
        eight shorter plants average the scene cost over 240 frames and
        give eight samples per pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from frond.simulator import ScenarioConfig

NOISE = {
    "frame_width": 2048,
    "frame_height": 2048,
    "fp_rate": 2.0,
    "miss_prob": 0.05,
    "embedding_noise_std": 0.05,
    "box_jitter_std": 1.0,
}
EVAL_IOU = 0.5
SWEEP_TAU_S = (0.3, 0.4, 0.5)
SWEEP_MODES = ("ema", "mean")
TRIPLET_STRATEGY = "cross_plant_flexible"


@dataclass(frozen=True)
class Workload:
    """Scene sizes and command shape of one workload.

    sweep=False runs simulate -> track -> eval per plant (plus a triplet
    draw when triplets > 0); sweep=True builds det.txt and gt.txt in
    set-up and runs one `frond sweep` per plant.
    """

    name: str
    plants: int
    leaves: int
    frames: int
    rotation_frame: int | None
    sweep: bool = False
    triplets: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cohort",
            plants=8,
            leaves=8,
            frames=31,
            rotation_frame=16,
            triplets=1000,
        ),
        Workload(
            "stress",
            plants=3,
            leaves=150,
            frames=20,
            rotation_frame=None,
        ),
        Workload(
            "sweep",
            plants=8,
            leaves=40,
            frames=30,
            rotation_frame=15,
            sweep=True,
        ),
    )
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation: kind is the subcommand, scene the plant it serves."""

    kind: str
    argv: tuple[str, ...]
    scene: int | None = None


@dataclass(frozen=True)
class Unit:
    """Commands whose summed wall time forms one timing sample.

    A pass runs every unit once; frames is the number of scene frames
    the unit carries through its commands.
    """

    kind: str
    commands: tuple[Command, ...]
    frames: int


def scene_configs(workload: Workload, seed: int) -> list[ScenarioConfig]:
    rotation = ()
    if workload.rotation_frame is not None:
        rotation = ((workload.rotation_frame, math.pi / 2.0),)
    return [
        ScenarioConfig(
            n_frames=workload.frames,
            n_leaves=workload.leaves,
            rotation_events=rotation,
            seed=seed * 1000 + plant,
            **NOISE,
        )
        for plant in range(workload.plants)
    ]


def config_text(cfg: ScenarioConfig) -> str:
    """The key=value scenario file `frond simulate` reads for cfg."""
    keys = ("n_frames", "n_leaves", "seed", *NOISE)
    lines = [f"{key}={getattr(cfg, key)!r}" for key in keys]
    if cfg.rotation_events:
        events = ",".join(f"{frame}:{angle!r}" for frame, angle in cfg.rotation_events)
        lines.append(f"rotation_events={events}")
    return "\n".join(lines) + "\n"


def plant_dir(workdir: Path, plant: int) -> Path:
    return workdir / f"plant{plant:02d}"


def units(workload: Workload, workdir: Path, seed: int) -> list[Unit]:
    """The workload's pass: every command, grouped into timing units."""
    if workload.sweep:
        out = []
        for plant in range(workload.plants):
            d = plant_dir(workdir, plant)
            argv = (
                "sweep",
                "--detections", str(d / "det.txt"),
                "--gt", str(d / "gt.txt"),
                "--tau-s", ",".join(repr(t) for t in SWEEP_TAU_S),
                "--ema-mode", ",".join(SWEEP_MODES),
                "--iou", repr(EVAL_IOU),
                "--out", str(d / "sweep.csv"),
            )
            out.append(Unit("sweep", (Command("sweep", argv, plant),), workload.frames))
        return out
    out = []
    for plant in range(workload.plants):
        d = plant_dir(workdir, plant)
        commands = (
            Command("simulate", ("simulate", "--config", str(d / "scene.cfg"), "--out-dir", str(d)), plant),
            Command("track", ("track", "--detections", str(d / "det.txt"), "--out", str(d / "results.txt")), plant),
            Command(
                "eval",
                (
                    "eval",
                    "--gt", str(d / "gt.txt"),
                    "--results", str(d / "results.txt"),
                    "--iou", repr(EVAL_IOU),
                    "--machine",
                    "--leaf-matrix", str(d / "leaf.csv"),
                ),
                plant,
            ),
        )
        out.append(Unit("plant", commands, workload.frames))
    if workload.triplets:
        argv = (
            "triplets",
            "--gt-corpus", *(str(plant_dir(workdir, p) / "gt.txt") for p in range(workload.plants)),
            "--strategy", TRIPLET_STRATEGY,
            "--count", str(workload.triplets),
            "--seed", str(seed),
            "--out", str(workdir / "triplets.txt"),
        )
        out.append(Unit("triplets", (Command("triplets", argv),), 0))
    return out
