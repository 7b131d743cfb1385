"""Output invariants that any correct run keeps, and output hashes.

A command fails when it exits non-zero or when one of its outputs
breaks an invariant below.  The sha256 of every output (results files,
`--machine` reports, leaf-matrix CSVs and sweep tables among them) is
compared with the one recorded in golden.json; a changed hash is
reported, not counted as a failure.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from frond import fileio
from frond.metrics import evaluate
from frond.tracker import TrackerParams, run_sequence, tracked_boxes

from workloads import EVAL_IOU, SWEEP_MODES, SWEEP_TAU_S, Command, plant_dir

GOLDEN = Path(__file__).resolve().parent / "golden.json"
_SWEEP_HEADER = "tau_s,alpha,mode,hota,deta,assa,mota,idf1"


@dataclass
class Scene:
    """One plant as the library builds it in memory, plus lazily derived references."""

    gt: list
    det: dict
    truth_map: dict
    _references: dict = field(default_factory=dict, repr=False)

    def reference_rows(self, params: TrackerParams = TrackerParams()) -> list:
        """run_sequence on the in-memory scene: what the CLI must track with params."""
        if params not in self._references:
            self._references[params] = tracked_boxes(run_sequence(self.det, params))
        return self._references[params]


def _box_key(box) -> tuple:
    return (box.u, box.v, box.w, box.h)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


_OUTPUTS = {
    "simulate": ("det.txt", "gt.txt", "truth_map.txt"),
    "track": ("results.txt",),
    "eval": ("leaf.csv",),
    "sweep": ("sweep.csv",),
}


def output_hashes(command: Command, stdout: str, workdir: Path) -> dict[str, str]:
    """sha256 of every output of command, keyed by its path under the work directory.

    An eval's `--machine` report is its standard output, keyed eval.out.
    """
    if command.kind == "triplets":
        return {"triplets.txt": sha256((workdir / "triplets.txt").read_bytes())}
    rel = plant_dir(Path(), command.scene)
    out = {f"{rel}/{name}": sha256((workdir / rel / name).read_bytes()) for name in _OUTPUTS[command.kind]}
    if command.kind == "eval":
        out[f"{rel}/eval.out"] = sha256(stdout.encode())
    return out


def verify(command: Command, stdout: str, workdir: Path, scenes: list[Scene], triplets: int):
    """Check command's outputs; returns (errors, quality).

    quality is a list of (hota, idf1) pairs the command reported; it is
    empty for commands that do not evaluate.
    """
    try:
        return _CHECKS[command.kind](command, stdout, workdir, scenes, triplets)
    except (OSError, ValueError, KeyError, IndexError) as err:
        return [f"{command.kind}: {type(err).__name__}: {err}"], []


def _check_simulate(command, stdout, workdir, scenes, triplets):
    scene = scenes[command.scene]
    d = plant_dir(workdir, command.scene)
    errors = []
    det = fileio.read_detections(d / "det.txt")
    expected = {f: rows for f, rows in scene.det.items() if rows}
    if sorted(det) != sorted(expected):
        errors.append("simulate: det.txt frames differ from generate()")
    else:
        for frame, rows in expected.items():
            got = det[frame]
            if len(got) != len(rows) or any(
                _box_key(a.box) != _box_key(b.box)
                or a.confidence != b.confidence
                or not np.array_equal(a.embedding, b.embedding)
                for a, b in zip(got, rows)
            ):
                errors.append(f"simulate: det.txt frame {frame} differs from generate()")
                break
    if fileio.read_gt(d / "gt.txt") != sorted(scene.gt, key=lambda r: (r.frame, r.leaf_id)):
        errors.append("simulate: gt.txt differs from generate()")
    if fileio.read_truth_map(d / "truth_map.txt") != scene.truth_map:
        errors.append("simulate: truth_map.txt differs from generate()")
    return errors, []


def _check_track(command, stdout, workdir, scenes, triplets):
    scene = scenes[command.scene]
    rows = fileio.read_results(plant_dir(workdir, command.scene) / "results.txt")
    errors = []
    boxes = {frame: {_box_key(d.box) for d in dets} for frame, dets in scene.det.items()}
    foreign = [r for r in rows if _box_key(r.box) not in boxes.get(r.frame, ())]
    if foreign:
        r = foreign[0]
        errors.append(f"track: {len(foreign)} result boxes are no input detection, first at frame {r.frame}")
    if rows != scene.reference_rows():
        errors.append("track: results differ from run_sequence on the in-memory scene")
    return errors, []


def _parse_report(stdout: str) -> dict:
    report = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            report[key] = float(value) if "." in value or "e" in value else int(value)
    return report


def _quality_errors(where: str, r: dict) -> list[str]:
    errors = []
    if r["hota"] != math.sqrt(r["deta"] * r["assa"]):
        errors.append(f"{where}: hota != sqrt(deta*assa)")
    for key in ("hota", "deta", "assa", "idf1"):
        if not 0.0 <= r[key] <= 1.0:
            errors.append(f"{where}: {key}={r[key]} outside [0, 1]")
    return errors


def _check_eval(command, stdout, workdir, scenes, triplets):
    d = plant_dir(workdir, command.scene)
    report = _parse_report(stdout)
    gt = fileio.read_gt(d / "gt.txt")
    results = fileio.read_results(d / "results.txt")
    errors = _quality_errors("eval", report)
    if report["tp"] + report["fn"] != len(gt):
        errors.append(f"eval: tp+fn={report['tp'] + report['fn']} but |gt|={len(gt)}")
    if report["tp"] + report["fp"] != len(results):
        errors.append(f"eval: tp+fp={report['tp'] + report['fp']} but |results|={len(results)}")
    lines = (d / "leaf.csv").read_text().splitlines()
    frames = lines[0].split(",")[1:]
    leaf_ids = sorted({r.leaf_id for r in gt})
    if [int(line.split(",", 1)[0]) for line in lines[1:]] != leaf_ids:
        errors.append("eval: leaf.csv rows are not the gt leaf ids")
    if any(
        len(cells := line.split(",")[1:]) != len(frames) or set(cells) - {"", "0", "1"}
        for line in lines[1:]
    ):
        errors.append("eval: leaf.csv has a malformed row")
    return errors, [(report["hota"], report["idf1"])]


def _check_triplets(command, stdout, workdir, scenes, triplets):
    rows = fileio.read_triplets(workdir / "triplets.txt")
    crops = {(p, r.leaf_id, r.frame) for p, scene in enumerate(scenes) for r in scene.gt}
    errors = []
    if len(rows) != triplets:
        errors.append(f"triplets: wrote {len(rows)}, asked for {triplets}")
    if any(ref not in crops for t in rows for ref in (t.anchor, t.positive, t.negative)):
        errors.append("triplets: a crop reference names no annotated crop")
    return errors, []


def _check_sweep(command, stdout, workdir, scenes, triplets):
    scene = scenes[command.scene]
    lines = (plant_dir(workdir, command.scene) / "sweep.csv").read_text().splitlines()
    errors = []
    if lines[0] != _SWEEP_HEADER:
        errors.append(f"sweep: header {lines[0]!r}")
    grid = [(t, m) for t in SWEEP_TAU_S for m in SWEEP_MODES]
    rows = [line.split(",") for line in lines[1:]]
    if [(float(r[0]), r[2]) for r in rows] != grid:
        errors.append("sweep: rows do not follow the tau_s x mode grid")
    quality = []
    keys = _SWEEP_HEADER.split(",")
    for r in rows:
        values = dict(zip(keys[3:], map(float, r[3:])))
        errors += _quality_errors("sweep", values)
        quality.append((values["hota"], values["idf1"]))
        params = TrackerParams(tau_s=float(r[0]), alpha=float(r[1]), ema_mode=r[2])
        ref = evaluate(scene.gt, scene.reference_rows(params), EVAL_IOU)
        if [repr(getattr(ref, k)) for k in keys[3:]] != r[3:]:
            errors.append(f"sweep: row {r[:3]} differs from the in-memory pipeline")
    return errors, quality


_CHECKS = {
    "simulate": _check_simulate,
    "track": _check_track,
    "eval": _check_eval,
    "triplets": _check_triplets,
    "sweep": _check_sweep,
}


def golden_status(key: str, hashes: dict[str, str]) -> dict:
    """Compare this run's hashes with golden.json's entry for key (workload/seed)."""
    recorded = json.loads(GOLDEN.read_text()).get(key) if GOLDEN.is_file() else None
    if recorded is None:
        return {"status": "unrecorded", "files": len(hashes)}
    changed = sorted(name for name, digest in hashes.items() if recorded.get(name) != digest)
    missing = sorted(set(recorded) - set(hashes))
    status = "match" if not changed and not missing else "changed"
    return {"status": status, "files": len(hashes), "changed": changed, "missing": missing}


def record_golden(key: str, hashes: dict[str, str]) -> None:
    table = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    table[key] = dict(sorted(hashes.items()))
    GOLDEN.write_text(json.dumps(dict(sorted(table.items())), indent=1) + "\n")
