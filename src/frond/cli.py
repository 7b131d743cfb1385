"""Command-line front end: simulate, track, eval, triplets, sweep.

Exit codes: 0 success, 1 runtime or data error, 2 usage error (bad
flags, bad combinations, missing input files).
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before the imports below load numpy: the largest
# matrix the CLI builds is about 160 x 150, so extra BLAS threads only spin.
# A value the caller exported wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import re
import sys
from collections import defaultdict
from contextlib import contextmanager
from itertools import product
from pathlib import Path

from . import fileio, metrics
from .embedding import STRATEGY_KINDS, SamplingStrategy, check_count_and_seed, sample_triplets
from .metrics import IOU_THRESHOLD, format_report, format_report_machine, leaf_accuracy_matrix
from .simulator import generate
from .tracker import TrackerParams, run_grid, run_sequence, tracked_boxes

_SWEEP_COLUMNS = ("tau_s", "alpha", "mode", "hota", "deta", "assa", "mota", "idf1")


class _UsageError(Exception):
    """Bad invocation that argparse cannot catch; maps to exit code 2."""


def _require_file(path: str) -> str:
    if not Path(path).is_file():
        raise _UsageError(f"no such file: {path}")
    return path


@contextmanager
def _usage(prefix: str = ""):
    """Re-raise a library ValueError from the block as a usage error."""
    try:
        yield
    except ValueError as err:
        raise _UsageError(f"{prefix}{err}") from None


def _cmd_simulate(args) -> int:
    config = fileio.read_scenario_config(_require_file(args.config))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    gt, det, truth_map = generate(config)
    fileio.write_detections(det, out_dir / "det.txt", config.embedding_dim)
    fileio.write_gt(gt, out_dir / "gt.txt")
    fileio.write_truth_map(truth_map, out_dir / "truth_map.txt")
    n_det = sum(len(rows) for rows in det.values())
    print(f"wrote {len(gt)} gt boxes, {n_det} detections to {out_dir}")
    return 0


def _cmd_track(args) -> int:
    frames = fileio.read_detections(_require_file(args.detections))
    if args.params is not None:
        params = fileio.read_tracker_params(_require_file(args.params))
    else:
        params = TrackerParams()
    results = run_sequence(frames, params)
    fileio.write_results(tracked_boxes(results), args.out)
    created = sum(len(r.new_track_ids) for r in results)
    pruned = sum(len(r.pruned_track_ids) for r in results)
    print(f"tracks created: {created}")
    print(f"tracks pruned: {pruned}")
    return 0


def _cmd_eval(args) -> int:
    with _usage():
        metrics.check_iou_threshold(args.iou)
    gt = fileio.read_gt(_require_file(args.gt))
    pred = fileio.read_results(_require_file(args.results))
    table = metrics.match_frames(gt, pred, args.iou)
    report = metrics.report_from_table(table)
    if args.machine:
        print(format_report_machine(report))
    else:
        print(format_report(report))
    if args.leaf_matrix is not None:
        fileio.write_leaf_matrix_csv(leaf_accuracy_matrix(table), args.leaf_matrix)
    return 0


def _cmd_triplets(args) -> int:
    with _usage("triplets strategy: "):
        strategy = SamplingStrategy(args.strategy, args.delta_t)
    with _usage():
        check_count_and_seed(args.count, args.seed)
    corpus = {}
    for plant_id, path in enumerate(args.gt_corpus):
        times = defaultdict(set)
        for row in fileio.read_gt(_require_file(path)):
            times[row.leaf_id].add(row.frame)
        corpus[plant_id] = times
    triplets = sample_triplets(corpus, strategy, args.count, args.seed)
    fileio.write_triplets(triplets, args.out)
    print(f"wrote {len(triplets)} triplets to {args.out}")
    return 0


def _flag_value(kind):
    """An argparse type that reads by the --params rule; kind's name keeps argparse's message."""

    def convert(raw: str):
        return fileio.read_value(kind, raw)

    convert.__name__ = kind.__name__
    return convert


def _grid_axis(raw: str, flag: str, kind=float) -> list:
    try:
        values = [fileio.read_value(kind, part.strip()) for part in raw.split(",") if part.strip() != ""]
    except ValueError:
        raise _UsageError(f"{flag} expects a comma-separated {kind.__name__} list, got {raw!r}") from None
    if not values:
        raise _UsageError("sweep grid must be non-empty on every axis")
    return values


def _cmd_sweep(args) -> int:
    axes = (
        _grid_axis(args.tau_s, "--tau-s"),
        _grid_axis(args.alpha, "--alpha"),
        _grid_axis(args.ema_mode, "--ema-mode", str),
    )
    with _usage("sweep grid: "):
        grid = [TrackerParams(tau_s=t, alpha=a, ema_mode=m) for t, a, m in product(*axes)]
    with _usage():
        metrics.check_iou_threshold(args.iou)
    frames = fileio.read_detections(_require_file(args.detections))
    gt = fileio.read_gt(_require_file(args.gt))
    runs = ({res.frame: res.assignments for res in results} for results in run_grid(frames, grid))
    lines = [",".join(_SWEEP_COLUMNS)]
    # match_runs yields one table object per distinct run, and keeps each alive
    # while it runs, so a table's id keys its scores.
    scores: dict = {}
    for params, table in zip(grid, metrics.match_runs(gt, frames, runs, args.iou)):
        if id(table) not in scores:
            report = metrics.report_from_table(table)
            scores[id(table)] = [repr(getattr(report, name)) for name in _SWEEP_COLUMNS[3:]]
        lines.append(",".join([repr(params.tau_s), repr(params.alpha), params.ema_mode, *scores[id(table)]]))
    if args.out is not None:
        fileio.write_lines(args.out, lines)
    else:
        print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frond", description="leaf tracking, evaluation, and simulation toolkit"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    simulate = commands.add_parser("simulate", help="synthesize a scenario to files")
    simulate.add_argument("--config", required=True, help="scenario config (key=value lines)")
    simulate.add_argument("--out-dir", required=True, help="directory for det/gt/truth_map files")
    simulate.set_defaults(func=_cmd_simulate)

    track = commands.add_parser("track", help="run the tracker over a detection file")
    track.add_argument("--detections", required=True)
    track.add_argument("--params", default=None, help="tracker config; defaults when omitted")
    track.add_argument("--out", required=True, help="results file to write")
    track.set_defaults(func=_cmd_track)

    evaluate_cmd = commands.add_parser("eval", help="score a results file against ground truth")
    evaluate_cmd.add_argument("--gt", required=True)
    evaluate_cmd.add_argument("--results", required=True)
    evaluate_cmd.add_argument("--iou", type=_flag_value(float), default=IOU_THRESHOLD)
    evaluate_cmd.add_argument("--machine", action="store_true", help="key=value output")
    evaluate_cmd.add_argument("--leaf-matrix", default=None, help="write per-leaf heatmap CSV here")
    evaluate_cmd.set_defaults(func=_cmd_eval)

    triplets = commands.add_parser("triplets", help="sample training triplets from gt files")
    triplets.add_argument("--gt-corpus", nargs="+", required=True, help="one gt file per plant")
    triplets.add_argument("--strategy", choices=STRATEGY_KINDS, required=True)
    triplets.add_argument("--delta-t", type=_flag_value(int), default=None)
    triplets.add_argument("--count", type=_flag_value(int), required=True)
    triplets.add_argument("--seed", type=_flag_value(int), default=0)
    triplets.add_argument("--out", required=True)
    triplets.set_defaults(func=_cmd_triplets)

    sweep = commands.add_parser("sweep", help="grid-run the tracker and tabulate metrics")
    sweep.add_argument("--detections", required=True)
    sweep.add_argument("--gt", required=True)
    # Read -1,0.4 as a value, not a flag: no sweep option starts with -<digit>.
    sweep._negative_number_matcher = re.compile(r"^-\.?\d")
    defaults = TrackerParams()
    sweep.add_argument("--tau-s", default=str(defaults.tau_s), help="comma-separated similarity gates")
    sweep.add_argument("--alpha", default=str(defaults.alpha), help="comma-separated EMA weights")
    sweep.add_argument("--ema-mode", default=defaults.ema_mode, help="comma-separated: ema, mean")
    sweep.add_argument("--iou", type=_flag_value(float), default=IOU_THRESHOLD)
    sweep.add_argument("--out", default=None, help="CSV path; stdout when omitted")
    sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
