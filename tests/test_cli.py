"""End-to-end command behavior through main(argv)."""

import io
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import frond.metrics
from frond.assignment import hungarian
from frond.cli import main
from frond.fileio import (
    read_detections,
    read_gt,
    read_results,
    read_scenario_config,
    read_triplets,
    read_truth_map,
    write_gt,
    write_results,
)
from frond.geometry import BBox
from frond.metrics import GtAnnotation, evaluate, format_report_machine
from frond.simulator import MAX_FRAME_SIDE, ScenarioConfig, generate
from frond.tracker import TrackedBox, TrackerParams, run_sequence, tracked_boxes
from test_fileio import _config_text, tracker_params

CLEAN_SCENARIO = (
    "n_frames=10\n"
    "n_leaves=3\n"
    "frame_width=256\n"
    "frame_height=256\n"
    "embedding_dim=16\n"
    "seed=2\n"
)


def write_plant_gt(path, n_leaves=3, n_frames=8, origin=0.0):
    rows = [
        GtAnnotation(f, leaf, BBox(origin + 40.0 * leaf, 10.0, 12.0, 12.0))
        for f in range(1, n_frames + 1)
        for leaf in range(1, n_leaves + 1)
    ]
    write_gt(rows, path)


@pytest.fixture
def pipeline(tmp_path):
    """Simulated scenario plus tracked results, all via the CLI."""
    config = tmp_path / "scene.cfg"
    config.write_text(CLEAN_SCENARIO)
    out_dir = tmp_path / "sim"
    assert main(["simulate", "--config", str(config), "--out-dir", str(out_dir)]) == 0
    results = tmp_path / "results.txt"
    code = main(
        ["track", "--detections", str(out_dir / "det.txt"), "--out", str(results)]
    )
    assert code == 0
    return out_dir, results


class TestSimulate:
    def test_writes_expected_files(self, tmp_path, capsys):
        config = tmp_path / "scene.cfg"
        config.write_text(CLEAN_SCENARIO)
        out_dir = tmp_path / "nested" / "sim"
        assert main(["simulate", "--config", str(config), "--out-dir", str(out_dir)]) == 0
        for name in ("det.txt", "gt.txt", "truth_map.txt"):
            assert (out_dir / name).is_file()
        assert "gt boxes" in capsys.readouterr().out

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        code = main(
            ["simulate", "--config", str(tmp_path / "nope.cfg"), "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert "no such file" in capsys.readouterr().err

    def test_bad_config_value_is_data_error(self, tmp_path, capsys):
        config = tmp_path / "scene.cfg"
        config.write_text("n_frames=0\nn_leaves=2\n")
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_non_finite_config_value_names_path_and_key(self, tmp_path, capsys):
        config = tmp_path / "scene.cfg"
        config.write_text(CLEAN_SCENARIO + "fp_rate=nan\n")
        out_dir = tmp_path / "sim"
        assert main(["simulate", "--config", str(config), "--out-dir", str(out_dir)]) == 1
        expected = f"error: {config}: fp_rate must lie in [0, 1111.11], got nan\n"
        assert capsys.readouterr().err == expected
        assert not out_dir.exists()

    def test_frame_beyond_the_side_bound_is_data_error(self, tmp_path, capsys):
        # At 1e20 every leaf box would round to zero area and score no true positive.
        config = tmp_path / "scene.cfg"
        config.write_text(CLEAN_SCENARIO.replace("frame_width=256", f"frame_width={10**20}"))
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "sim")]) == 1
        expected = f"error: {config}: frame sides must lie in [32, 1000000000], got {10**20}x256\n"
        assert capsys.readouterr().err == expected
        # The same interval refuses a side below its floor.
        config.write_text(CLEAN_SCENARIO.replace("frame_width=256", "frame_width=16"))
        assert main(["simulate", "--config", str(config), "--out-dir", str(tmp_path / "sim")]) == 1
        expected = f"error: {config}: frame sides must lie in [32, 1000000000], got 16x256\n"
        assert capsys.readouterr().err == expected


class TestTrack:
    def test_reports_created_and_pruned(self, pipeline, capsys, tmp_path):
        out_dir, _ = pipeline
        results = tmp_path / "again.txt"
        code = main(
            ["track", "--detections", str(out_dir / "det.txt"), "--out", str(results)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "tracks created: 3" in out
        assert "tracks pruned: 0" in out

    def test_conf_min_above_one_tracks_nothing(self, pipeline, tmp_path, capsys):
        out_dir, _ = pipeline
        params = tmp_path / "params.cfg"
        params.write_text("conf_min=1.1\n")
        results = tmp_path / "empty.txt"
        code = main(
            [
                "track",
                "--detections",
                str(out_dir / "det.txt"),
                "--params",
                str(params),
                "--out",
                str(results),
            ]
        )
        assert code == 0
        assert "tracks created: 0" in capsys.readouterr().out
        assert read_results(results) == []

    def test_malformed_detections_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "det.txt"
        bad.write_text("1,-1,0.0,0.0,5.0,5.0,0.9,1.0,0.0\n")
        assert main(["track", "--detections", str(bad), "--out", str(tmp_path / "r.txt")]) == 1
        assert "missing #dim header" in capsys.readouterr().err

    # The noise draws are finite but their squared norm overflows;
    # normalize rescales the vector without a numpy warning.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_finite_embedding_noise_tracks(self, tmp_path, capsys):
        config = tmp_path / "scene.cfg"
        config.write_text("n_frames=3\nn_leaves=2\nembedding_dim=4\nembedding_noise_std=1e300\n")
        out_dir = tmp_path / "sim"
        assert main(["simulate", "--config", str(config), "--out-dir", str(out_dir)]) == 0
        det_path = out_dir / "det.txt"
        assert main(["track", "--detections", str(det_path), "--out", str(tmp_path / "r.txt")]) == 0
        embeddings = np.load(out_dir / "det.npy")
        assert embeddings.shape == (6, 4)
        assert np.linalg.norm(embeddings, axis=1) == pytest.approx(1.0, abs=1e-12)

    def test_missing_detections_is_usage_error(self, tmp_path):
        code = main(
            ["track", "--detections", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "r.txt")]
        )
        assert code == 2

    def test_missing_sidecar_is_data_error(self, pipeline, tmp_path, capsys):
        out_dir, _ = pipeline
        (out_dir / "det.npy").unlink()
        det_path = out_dir / "det.txt"
        code = main(["track", "--detections", str(det_path), "--out", str(tmp_path / "r.txt")])
        assert code == 1
        assert f"error: {out_dir / 'det.npy'}: missing embedding sidecar" in capsys.readouterr().err

    def test_occluded_frames_track_as_in_memory(self, tmp_path):
        # Both leaves are hidden in frames 5-12, so those frames hold no
        # detection; the tracks must age through them as run_sequence does.
        config = tmp_path / "scene.cfg"
        config.write_text("n_frames=20\nn_leaves=2\nocclusion_windows=1:5:12,2:5:12\n")
        out_dir = tmp_path / "sim"
        assert main(["simulate", "--config", str(config), "--out-dir", str(out_dir)]) == 0
        results = tmp_path / "results.txt"
        assert main(["track", "--detections", str(out_dir / "det.txt"), "--out", str(results)]) == 0
        _, det, _ = generate(read_scenario_config(config))
        assert read_results(results) == tracked_boxes(run_sequence(det, TrackerParams()))

    @pytest.mark.parametrize("setting", ["miss_prob=1.0", "occlusion_prob=1.0"])
    def test_scene_without_detections_tracks(self, tmp_path, capsys, setting):
        config = tmp_path / "scene.cfg"
        config.write_text(f"n_frames=4\nn_leaves=2\nembedding_dim=8\n{setting}\n")
        out_dir = tmp_path / "sim"
        assert main(["simulate", "--config", str(config), "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "det.txt").read_text() == "#dim=8;empty=1,2,3,4\n"
        assert np.load(out_dir / "det.npy").shape == (0, 8)
        results = tmp_path / "results.txt"
        assert main(["track", "--detections", str(out_dir / "det.txt"), "--out", str(results)]) == 0
        assert results.read_text() == ""
        # Missed leaves are still in the ground truth; hidden ones are not.
        capsys.readouterr()
        code = main(["eval", "--gt", str(out_dir / "gt.txt"), "--results", str(results)])
        hidden = setting == "occlusion_prob=1.0"
        expected = (1, "error: empty ground truth\n") if hidden else (0, "")
        assert (code, capsys.readouterr().err) == expected


class TestEval:
    def test_box_beyond_the_corner_bound_is_data_error(self, tmp_path, capsys):
        # w * h would overflow in iou_matrix and score the identical pair as a miss.
        gt, results = tmp_path / "gt.txt", tmp_path / "results.txt"
        gt.write_text("1,1,0.0,0.0,1e200,1e200\n")
        results.write_text("1,1,0.0,0.0,1e200,1e200,1.0\n")
        assert main(["eval", "--gt", str(gt), "--results", str(results)]) == 1
        assert capsys.readouterr().err == (
            f"error: {gt}:1: box corners must lie in [-1e+150, 1e+150], "
            "got (0.0, 0.0) to (1e+200, 1e+200)\n"
        )

    def test_iou_outside_unit_interval_is_usage_error(self, pipeline, capsys):
        out_dir, results = pipeline
        capsys.readouterr()
        code = main(
            ["eval", "--gt", str(out_dir / "gt.txt"), "--results", str(results), "--iou", "0"]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: iou_threshold must lie in (0, 1], got 0.0\n"

    def test_perfect_pipeline_scores_hundred(self, pipeline, capsys):
        out_dir, results = pipeline
        code = main(["eval", "--gt", str(out_dir / "gt.txt"), "--results", str(results)])
        assert code == 0
        out = capsys.readouterr().out
        assert "HOTA  100.00" in out
        assert "MOTA  100.00" in out
        assert "TP=30 FP=0 FN=0 IDSW=0" in out

    def test_machine_output_parses(self, pipeline, capsys):
        out_dir, results = pipeline
        code = main(
            ["eval", "--gt", str(out_dir / "gt.txt"), "--results", str(results), "--machine"]
        )
        assert code == 0
        values = dict(
            line.split("=", 1) for line in capsys.readouterr().out.strip().splitlines()
        )
        assert float(values["hota"]) == 1.0
        assert float(values["idf1"]) == 1.0
        assert int(values["tp"]) == 30

    def test_leaf_matrix_written(self, pipeline, tmp_path, capsys):
        out_dir, results = pipeline
        matrix = tmp_path / "matrix.csv"
        code = main(
            [
                "eval",
                "--gt",
                str(out_dir / "gt.txt"),
                "--results",
                str(results),
                "--leaf-matrix",
                str(matrix),
            ]
        )
        assert code == 0
        lines = matrix.read_text().splitlines()
        assert lines[0] == "leaf_id," + ",".join(str(f) for f in range(1, 11))
        assert len(lines) == 4

    def test_leaf_matrix_reuses_the_reports_bijection(self, tmp_path, monkeypatch):
        # Well-separated boxes: every IoU component is one gt by one
        # prediction, so match_frames never calls the solver and each
        # solve counted here is an IDF1 bijection.
        gt = tmp_path / "gt.txt"
        write_plant_gt(gt)
        res = tmp_path / "res.txt"
        write_results([TrackedBox(r.frame, r.leaf_id, r.box) for r in read_gt(gt)], res)
        solves = []

        def counted(cost):
            solves.append(np.shape(cost))
            return hungarian(cost)

        monkeypatch.setattr(frond.metrics, "hungarian", counted)
        matrix = tmp_path / "matrix.csv"
        argv = ["eval", "--gt", str(gt), "--results", str(res), "--leaf-matrix", str(matrix)]
        assert main(argv) == 0
        assert solves == [(3, 3)]
        assert matrix.read_text().splitlines()[1] == "1," + ",".join(["1"] * 8)

    def test_empty_gt_is_data_error(self, tmp_path, capsys):
        gt = tmp_path / "gt.txt"
        gt.write_text("")
        res = tmp_path / "res.txt"
        res.write_text("1,1,0.0,0.0,5.0,5.0,1.0\n")
        assert main(["eval", "--gt", str(gt), "--results", str(res)]) == 1
        assert "empty ground truth" in capsys.readouterr().err

    def test_scene_with_every_detection_missed_scores_zero(self, tmp_path, capsys):
        config = tmp_path / "scene.cfg"
        config.write_text("n_frames=4\nn_leaves=2\nembedding_dim=8\nmiss_prob=1.0\n")
        out_dir = tmp_path / "sim"
        assert main(["simulate", "--config", str(config), "--out-dir", str(out_dir)]) == 0
        results = tmp_path / "results.txt"
        assert main(["track", "--detections", str(out_dir / "det.txt"), "--out", str(results)]) == 0
        capsys.readouterr()
        assert main(["eval", "--gt", str(out_dir / "gt.txt"), "--results", str(results), "--machine"]) == 0
        assert "tp=0\n" in capsys.readouterr().out
        # Each gt frame scores against a (n_gt, 0) IoU table.
        assert main(["sweep", "--detections", str(out_dir / "det.txt"), "--gt", str(out_dir / "gt.txt")]) == 0

    # The largest jitter the validator accepts still scores without a numpy warning.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_jitter_at_the_frame_bound_scores(self, tmp_path, capsys):
        config = tmp_path / "scene.cfg"
        config.write_text(
            "n_frames=3\nn_leaves=2\nembedding_dim=4\nframe_width=64\nbox_jitter_std=512\n"
        )
        out_dir = tmp_path / "sim"
        assert main(["simulate", "--config", str(config), "--out-dir", str(out_dir)]) == 0
        results = tmp_path / "results.txt"
        assert main(["track", "--detections", str(out_dir / "det.txt"), "--out", str(results)]) == 0
        capsys.readouterr()
        assert main(["eval", "--gt", str(out_dir / "gt.txt"), "--results", str(results)]) == 0
        assert "HOTA" in capsys.readouterr().out


class TestTriplets:
    def test_samples_across_plants(self, tmp_path, capsys):
        plant_a = tmp_path / "a.txt"
        plant_b = tmp_path / "b.txt"
        write_plant_gt(plant_a)
        write_plant_gt(plant_b, origin=500.0)
        out = tmp_path / "tri.txt"
        code = main(
            [
                "triplets",
                "--gt-corpus",
                str(plant_a),
                str(plant_b),
                "--strategy",
                "cross_plant_flexible",
                "--count",
                "25",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = read_triplets(out)
        assert len(rows) == 25
        assert {t.anchor.plant_id for t in rows} <= {0, 1}
        anchor_keys = [(t.anchor.plant_id, t.anchor.leaf_id) for t in rows]
        negative_keys = [(t.negative.plant_id, t.negative.leaf_id) for t in rows]
        assert all(a != n for a, n in zip(anchor_keys, negative_keys))
        # The flexible strategy roams the whole corpus, so with two
        # plants some negatives land on the other one.
        assert any(t.negative.plant_id != t.anchor.plant_id for t in rows)
        assert "wrote 25 triplets" in capsys.readouterr().out

    def test_window_strategy_respects_delta_t(self, tmp_path):
        plant = tmp_path / "a.txt"
        write_plant_gt(plant, n_frames=20)
        out = tmp_path / "tri.txt"
        code = main(
            [
                "triplets",
                "--gt-corpus",
                str(plant),
                "--strategy",
                "intra_plant_temporal_window",
                "--delta-t",
                "3",
                "--count",
                "40",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = read_triplets(out)
        assert len(rows) == 40
        assert all(abs(t.negative.t - t.anchor.t) <= 3 for t in rows)

    def test_window_without_delta_t_is_usage_error(self, tmp_path, capsys):
        plant = tmp_path / "a.txt"
        write_plant_gt(plant)
        code = main(
            [
                "triplets",
                "--gt-corpus",
                str(plant),
                "--strategy",
                "intra_plant_temporal_window",
                "--count",
                "5",
                "--out",
                str(tmp_path / "t.txt"),
            ]
        )
        assert code == 2
        assert "requires delta_t" in capsys.readouterr().err

    def test_strategy_is_checked_before_any_corpus_file(self, tmp_path, capsys):
        code = main(
            [
                "triplets",
                "--gt-corpus",
                str(tmp_path / "missing.txt"),
                "--strategy",
                "intra_plant_temporal_window",
                "--delta-t",
                "0",
                "--count",
                "5",
                "--out",
                str(tmp_path / "t.txt"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "delta_t" in err
        assert "no such file" not in err

    # The corpus file does not exist: the value must be refused before it is opened.
    @pytest.mark.parametrize("flag, message", [
        ("--count", "count must be non-negative, got -1"),
        ("--seed", "seed must be non-negative, got -1"),
    ])
    def test_negative_count_or_seed_is_checked_before_any_corpus_file(
        self, tmp_path, capsys, flag, message
    ):
        argv = {"--count": "5", "--seed": "0", flag: "-1"}
        code = main(
            [
                "triplets",
                "--gt-corpus",
                str(tmp_path / "missing.txt"),
                "--strategy",
                "cross_plant_flexible",
                *[part for pair in argv.items() for part in pair],
                "--out",
                str(tmp_path / "t.txt"),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "t.txt").exists()

    def test_delta_t_with_other_strategy_is_usage_error(self, tmp_path, capsys):
        plant = tmp_path / "a.txt"
        write_plant_gt(plant)
        code = main(
            [
                "triplets",
                "--gt-corpus",
                str(plant),
                "--strategy",
                "cross_plant_flexible",
                "--delta-t",
                "3",
                "--count",
                "5",
                "--out",
                str(tmp_path / "t.txt"),
            ]
        )
        assert code == 2
        assert "only valid with" in capsys.readouterr().err

    def test_unsatisfiable_corpus_is_data_error(self, tmp_path, capsys):
        # One plant with one leaf: no admissible negative exists.
        plant = tmp_path / "a.txt"
        write_plant_gt(plant, n_leaves=1)
        code = main(
            [
                "triplets",
                "--gt-corpus",
                str(plant),
                "--strategy",
                "cross_plant_flexible",
                "--count",
                "5",
                "--out",
                str(tmp_path / "t.txt"),
            ]
        )
        assert code == 1
        assert "unsatisfiable triplet" in capsys.readouterr().err

    def test_unknown_strategy_is_argparse_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "triplets",
                    "--gt-corpus",
                    str(tmp_path / "a.txt"),
                    "--strategy",
                    "round_robin",
                    "--count",
                    "5",
                    "--out",
                    str(tmp_path / "t.txt"),
                ]
            )
        assert exc.value.code == 2


class TestSweep:
    def test_iou_outside_unit_interval_is_usage_error(self, pipeline, capsys):
        out_dir, _ = pipeline
        capsys.readouterr()
        code = main(
            [
                "sweep",
                "--detections",
                str(out_dir / "det.txt"),
                "--gt",
                str(out_dir / "gt.txt"),
                "--iou",
                "1.5",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: iou_threshold must lie in (0, 1], got 1.5\n"

    def test_single_cell_matches_eval(self, pipeline, tmp_path, capsys):
        out_dir, results = pipeline
        code = main(
            [
                "eval",
                "--gt",
                str(out_dir / "gt.txt"),
                "--results",
                str(results),
                "--machine",
            ]
        )
        assert code == 0
        reference = dict(
            line.split("=", 1) for line in capsys.readouterr().out.strip().splitlines()
        )
        code = main(
            [
                "sweep",
                "--detections",
                str(out_dir / "det.txt"),
                "--gt",
                str(out_dir / "gt.txt"),
            ]
        )
        assert code == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        assert header == "tau_s,alpha,mode,hota,deta,assa,mota,idf1"
        cells = row.split(",")
        assert cells[:3] == ["0.4", "0.5", "ema"]
        assert cells[3] == reference["hota"]
        assert cells[6] == reference["mota"]

    def test_every_cell_equals_the_library_pipeline(self, tmp_path):
        # A noisy scene, so that the cells differ in every metric but DetA.
        config = tmp_path / "scene.cfg"
        config.write_text(
            "n_frames=12\nn_leaves=4\nframe_width=256\nframe_height=256\nembedding_dim=8\n"
            "embedding_noise_std=0.5\nmiss_prob=0.1\nfp_rate=0.5\nrotation_events=6:1.0\nseed=3\n"
        )
        out_dir = tmp_path / "sim"
        assert main(["simulate", "--config", str(config), "--out-dir", str(out_dir)]) == 0
        out = tmp_path / "sweep.csv"
        grid = dict(tau_s=(-0.2, 0.3, 0.7), alpha=(0.2, 0.9), ema_mode=("ema", "mean"))
        code = main(
            [
                "sweep",
                "--detections",
                str(out_dir / "det.txt"),
                "--gt",
                str(out_dir / "gt.txt"),
                "--tau-s=" + ",".join(map(repr, grid["tau_s"])),
                "--alpha=" + ",".join(map(repr, grid["alpha"])),
                "--ema-mode=" + ",".join(grid["ema_mode"]),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        gt, frames, _ = generate(read_scenario_config(config))
        expected = ["tau_s,alpha,mode,hota,deta,assa,mota,idf1"]
        for tau_s, alpha, mode in product(*grid.values()):
            params = TrackerParams(tau_s=tau_s, alpha=alpha, ema_mode=mode)
            report = evaluate(gt, tracked_boxes(run_sequence(frames, params)))
            scores = [repr(getattr(report, name)) for name in ("hota", "deta", "assa", "mota", "idf1")]
            expected.append(",".join([repr(tau_s), repr(alpha), mode, *scores]))
        assert out.read_text().splitlines() == expected
        assert len({row.split(",", 3)[3] for row in expected[1:]}) > 6

    def test_grid_order(self, pipeline, tmp_path):
        out_dir, _ = pipeline
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--detections",
                str(out_dir / "det.txt"),
                "--gt",
                str(out_dir / "gt.txt"),
                "--tau-s",
                "0.3,0.5",
                "--alpha",
                "0.2,0.8",
                "--ema-mode",
                "ema,mean",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = [line.split(",")[:3] for line in out.read_text().splitlines()[1:]]
        expected = [
            [repr(t), repr(a), m]
            for t in (0.3, 0.5)
            for a in (0.2, 0.8)
            for m in ("ema", "mean")
        ]
        assert rows == expected

    def test_spaces_around_list_parts_are_ignored_on_every_axis(self, pipeline, tmp_path):
        out_dir, _ = pipeline
        outputs = []
        for tau_s, mode in (("0.3,0.4", "ema,mean"), ("0.3, 0.4", " ema , mean")):
            out = tmp_path / "sweep.csv"
            code = main(
                [
                    "sweep",
                    "--detections",
                    str(out_dir / "det.txt"),
                    "--gt",
                    str(out_dir / "gt.txt"),
                    "--tau-s",
                    tau_s,
                    "--ema-mode",
                    mode,
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            outputs.append(out.read_text())
        assert outputs[1] == outputs[0]
        assert [row.split(",")[2] for row in outputs[0].splitlines()[1:]] == ["ema", "mean"] * 2

    def test_bad_float_list_is_usage_error(self, pipeline, capsys):
        out_dir, _ = pipeline
        code = main(
            [
                "sweep",
                "--detections",
                str(out_dir / "det.txt"),
                "--gt",
                str(out_dir / "gt.txt"),
                "--tau-s",
                "0.4,high",
            ]
        )
        assert code == 2
        assert "comma-separated float list" in capsys.readouterr().err

    def test_bad_mode_is_usage_error(self, pipeline, capsys):
        out_dir, _ = pipeline
        code = main(
            [
                "sweep",
                "--detections",
                str(out_dir / "det.txt"),
                "--gt",
                str(out_dir / "gt.txt"),
                "--ema-mode",
                "median",
            ]
        )
        assert code == 2
        assert "ema" in capsys.readouterr().err

    # The inputs do not exist: the grid must be refused before either is opened.
    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--tau-s", "1.5", "tau_s"),
            ("--alpha", "2", "alpha"),
            ("--ema-mode", "median", "ema_mode"),
        ],
    )
    def test_bad_grid_value_is_usage_error_before_any_read(
        self, tmp_path, capsys, flag, value, field
    ):
        code = main(
            [
                "sweep",
                "--detections",
                str(tmp_path / "nope-det.txt"),
                "--gt",
                str(tmp_path / "nope-gt.txt"),
                flag,
                value,
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: sweep grid: {field} ")
        assert "no such file" not in err

    # The inputs do not exist: an empty axis must be refused before either is opened.
    @pytest.mark.parametrize("flag, value", [("--tau-s", ","), ("--alpha", ""), ("--ema-mode", " , ")])
    def test_empty_grid_axis_is_usage_error_before_any_read(self, tmp_path, capsys, flag, value):
        code = main(
            [
                "sweep",
                "--detections",
                str(tmp_path / "nope-det.txt"),
                "--gt",
                str(tmp_path / "nope-gt.txt"),
                f"{flag}={value}",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: sweep grid must be non-empty on every axis\n"

    def test_axes_are_judged_in_flag_order(self, tmp_path, capsys):
        # --tau-s is empty and --alpha is not a float: the first axis is reported.
        code = main(
            [
                "sweep",
                "--detections",
                str(tmp_path / "nope-det.txt"),
                "--gt",
                str(tmp_path / "nope-gt.txt"),
                "--tau-s=,",
                "--alpha=x",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err == "error: sweep grid must be non-empty on every axis\n"

    # Finite embeddings whose squared norm overflows: single-row and batched
    # prototype normalization warn nothing, at tau_s = -1 too.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_finite_embedding_drift_sweeps(self, tmp_path, capsys):
        config = tmp_path / "scene.cfg"
        config.write_text("n_frames=4\nn_leaves=3\nembedding_dim=8\nembedding_drift_rate=1e300\n")
        out_dir = tmp_path / "sim"
        assert main(["simulate", "--config", str(config), "--out-dir", str(out_dir)]) == 0
        det, gt = str(out_dir / "det.txt"), str(out_dir / "gt.txt")
        assert main(["track", "--detections", det, "--out", str(tmp_path / "r.txt")]) == 0
        sweep = ["sweep", "--detections", det, "--gt", gt, "--tau-s=-1,0.4", "--ema-mode", "ema,mean"]
        assert main(sweep) == 0

    # A sweep axis reads each value by the rule a --params file uses.
    @pytest.mark.parametrize(
        "flag, value, kind",
        [
            ("--tau-s", "0_1", "float"),
            ("--tau-s", "\uff10.\uff14", "float"),
            ("--alpha", "0_5", "float"),
            ("--ema-mode", "\uff45ma", "str"),
        ],
    )
    def test_value_a_params_file_refuses_is_usage_error(self, pipeline, capsys, flag, value, kind):
        out_dir, _ = pipeline
        capsys.readouterr()
        inputs = ["--detections", str(out_dir / "det.txt"), "--gt", str(out_dir / "gt.txt")]
        assert main(["sweep", *inputs, flag, value]) == 2
        expected = f"error: {flag} expects a comma-separated {kind} list, got {value!r}\n"
        assert capsys.readouterr().err == expected

    def test_negative_first_value_reads_with_or_without_equals(self, pipeline, tmp_path):
        out_dir, _ = pipeline
        inputs = ["sweep", "--detections", str(out_dir / "det.txt"), "--gt", str(out_dir / "gt.txt")]
        outputs = []
        for name, tau_s in (("spaced.csv", ["--tau-s", "-1,0.4"]), ("equals.csv", ["--tau-s=-1,0.4"])):
            assert main([*inputs, *tau_s, "--out", str(tmp_path / name)]) == 0
            outputs.append((tmp_path / name).read_text())
        assert outputs[0] == outputs[1]
        assert [row.split(",")[0] for row in outputs[0].splitlines()[1:]] == ["-1.0", "0.4"]

    def test_value_that_looks_like_a_flag_is_still_refused(self, tmp_path):
        inputs = ["--detections", str(tmp_path / "det.txt"), "--gt", str(tmp_path / "gt.txt")]
        with pytest.raises(SystemExit) as exc:
            main(["sweep", *inputs, "--alpha", "-x"])
        assert exc.value.code == 2


class TestParserContract:
    def test_no_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["prune"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["track", "--out", "r.txt"])
        assert exc.value.code == 2


_UNIT = st.floats(0.0, 1.0)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def tiny_scenes(draw):
    """ScenarioConfig fields for scenes small enough to run the CLI on per example.

    Sizes are bounded (n_frames <= 6, n_leaves <= 4, fp_rate <= 3,
    embedding_dim <= 8); every other field spans what the validator accepts.
    """
    n_frames = draw(st.integers(1, 6))
    n_leaves = draw(st.integers(1, 4))
    frame_width = draw(st.integers(32, MAX_FRAME_SIDE))
    frame_height = draw(st.integers(32, MAX_FRAME_SIDE))
    conf_lo, conf_hi = sorted(draw(st.lists(_UNIT, min_size=2, max_size=2)))
    windows = st.tuples(st.integers(1, n_leaves), st.integers(1, n_frames), st.integers(1, n_frames))
    return dict(
        n_frames=n_frames,
        n_leaves=n_leaves,
        frame_width=frame_width,
        frame_height=frame_height,
        occlusion_prob=draw(_UNIT),
        rotation_events=tuple(draw(st.lists(st.tuples(st.integers(1, 8), _FINITE), max_size=3))),
        occlusion_windows=tuple(
            (leaf, min(a, b), max(a, b)) for leaf, a, b in draw(st.lists(windows, max_size=3))
        ),
        miss_prob=draw(_UNIT),
        fp_rate=draw(st.floats(0.0, 3.0)),
        box_jitter_std=draw(st.floats(0.0, max(frame_width, frame_height))),
        conf_lo=conf_lo,
        conf_hi=conf_hi,
        embedding_dim=draw(st.integers(2, 8)),
        embedding_noise_std=draw(st.floats(0.0, 1e306)),
        embedding_drift_rate=draw(st.floats(0.0, 1e306 / n_frames)),
        latent_similarity=draw(st.floats(0.0, 1.0, exclude_max=True)),
        birth_window=draw(st.integers(0, n_frames - 1)),
        death_prob=draw(_UNIT),
        seed=draw(st.integers(0, 2**64)),
    )


class TestValidatorCliAgreement:
    """Every config the validators accept simulates, tracks, evaluates and sweeps.

    The one data error is a scene whose ground truth came out empty: eval
    and sweep refuse it with `error: empty ground truth`.  What each
    command writes or prints equals the library path on the same scene.
    """

    @settings(max_examples=100, deadline=None)
    @given(tiny_scenes(), tracker_params)
    def test_accepted_configs_run_through_every_command(self, scene_fields, params):
        try:
            scene = ScenarioConfig(**scene_fields)
        except ValueError:
            reject()
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            tmp = Path(tmp)
            (tmp / "scene.cfg").write_text(_config_text(scene))
            (tmp / "tracker.cfg").write_text(_config_text(params))
            sim, det, gt = tmp / "sim", str(tmp / "sim" / "det.txt"), str(tmp / "sim" / "gt.txt")
            results = str(tmp / "results.txt")
            run = [
                ["simulate", "--config", str(tmp / "scene.cfg"), "--out-dir", str(sim)],
                ["track", "--detections", det, "--params", str(tmp / "tracker.cfg"), "--out", results],
                ["eval", "--gt", gt, "--results", results, "--machine", "--leaf-matrix",
                 str(tmp / "matrix.csv")],
                ["sweep", "--detections", det, "--gt", gt, f"--tau-s={params.tau_s!r}",
                 f"--alpha={params.alpha!r}", f"--ema-mode={params.ema_mode}"],
            ]
            stdout = {}
            for argv in run:
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(argv)
                stdout[argv[0]] = out.getvalue()
                if argv[0] in ("eval", "sweep") and not (sim / "gt.txt").read_text():
                    assert (code, err.getvalue()) == (1, "error: empty ground truth\n")
                else:
                    assert (code, err.getvalue()) == (0, "")

            gt_rows, frames, truth_map = generate(scene)
            assert read_gt(gt) == gt_rows
            assert read_truth_map(sim / "truth_map.txt") == truth_map
            read = read_detections(det)
            assert list(read) == list(frames)
            for frame, rows in frames.items():
                assert [(d.box, d.confidence, d.embedding.tobytes()) for d in read[frame]] == [
                    (d.box, d.confidence, d.embedding.tobytes()) for d in rows
                ]
            tracked = tracked_boxes(run_sequence(frames, params))
            assert read_results(results) == tracked
            if gt_rows:
                report = evaluate(gt_rows, tracked)
                assert stdout["eval"] == format_report_machine(report) + "\n"
                cell = TrackerParams(tau_s=params.tau_s, alpha=params.alpha, ema_mode=params.ema_mode)
                report = evaluate(gt_rows, tracked_boxes(run_sequence(frames, cell)))
                scores = [repr(getattr(report, name)) for name in ("hota", "deta", "assa", "mota", "idf1")]
                row = ",".join([repr(cell.tau_s), repr(cell.alpha), cell.ema_mode, *scores])
                assert stdout["sweep"].splitlines()[1:] == [row]
