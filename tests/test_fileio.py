"""File formats: round-trips, validation messages, byte determinism."""

import codecs
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from frond.embedding import CropRef, TripletSpec
from frond.fileio import (
    _read_config,
    read_detections,
    read_gt,
    read_results,
    read_scenario_config,
    read_tracker_params,
    read_triplets,
    read_truth_map,
    write_detections,
    write_gt,
    write_leaf_matrix_csv,
    write_results,
    write_triplets,
    write_truth_map,
)
from frond.geometry import BBox, LeafBox
from frond.metrics import leaf_accuracy_matrix, match_frames
from frond.simulator import CLUTTER_MIN_SIDE, ScenarioConfig
from frond.tracker import Detection, TrackerParams, run_sequence, tracked_boxes
from test_geometry import accepted_boxes
from test_package import run_python


def sample_frames(rng, n_frames=3, per_frame=2, dim=6):
    frames = {}
    for f in range(1, n_frames + 1):
        frames[f] = [
            Detection(
                BBox(*rng.uniform(1.0, 40.0, size=2), *rng.uniform(3.0, 30.0, size=2)),
                float(rng.uniform(0.0, 1.0)),
                rng.normal(size=dim),
            )
            for _ in range(per_frame)
        ]
    return frames


def error_message(reader, path, text):
    """Write text to path, read it back with reader and return the error."""
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        reader(path)
    return str(err.value)


def line_setting(text, message):
    """The number of the line of text that sets the key message names ("malformed value for KEY: ...")."""
    key = message.removeprefix("malformed value for ").split(":")[0]
    return next(i for i, line in enumerate(text.splitlines(), start=1) if line.startswith(f"{key}="))


def write_detection_pair(path, text, dim=2):
    """Write a detection file and its sidecar from lines that end in dim embedding components.

    The header and each data line's box columns go to path, and the
    components to the .npy sidecar, one row per data line.  A line too
    short to hold a box row and an embedding goes to path whole, with the
    embedding (1, 0, ..., 0).
    """
    header, *lines = text.splitlines()
    box_lines, embeddings = [header], []
    for line in lines:
        fields = line.split(",")
        if len(fields) < 7 + dim:
            box_lines.append(line)
            embeddings.append(np.eye(dim)[0])
        else:
            box_lines.append(",".join(fields[:-dim]))
            embeddings.append([float(token) for token in fields[-dim:]])
    path.write_text("\n".join(box_lines) + "\n")
    embeddings = np.array(embeddings, dtype=np.float64).reshape(len(lines), dim)
    np.save(path.with_suffix(".npy"), embeddings)


def detection_error(path, text):
    """Write a detection pair as write_detection_pair does, read it back and return the error."""
    write_detection_pair(path, text)
    with pytest.raises(ValueError) as err:
        read_detections(path)
    return str(err.value)


ONE_ROW = "#dim=2\n1,-1,0.0,0.0,5.0,5.0,0.9\n"


class TestDetectionsFile:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        frames = sample_frames(rng)
        path = tmp_path / "det.txt"
        write_detections(frames, path)
        loaded = read_detections(path)
        assert sorted(loaded) == sorted(frames)
        for f in frames:
            assert len(loaded[f]) == len(frames[f])
            for a, b in zip(frames[f], loaded[f]):
                assert a.box == b.box
                assert a.confidence == b.confidence
                assert np.array_equal(a.embedding, b.embedding)

    def test_header_and_raw_track_column(self, tmp_path):
        path = tmp_path / "det.txt"
        write_detections({1: [Detection(BBox(0, 0, 5, 5), 0.5, np.ones(4))]}, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "#dim=4"
        assert lines[1].split(",")[1] == "-1"

    def test_embeddings_go_to_one_float64_sidecar(self, tmp_path):
        frames = sample_frames(np.random.default_rng(5), n_frames=2, per_frame=3, dim=4)
        path = tmp_path / "det.txt"
        write_detections(frames, path)
        embeddings = np.load(tmp_path / "det.npy", allow_pickle=False)
        assert embeddings.dtype == np.float64 and embeddings.flags.c_contiguous
        expected = [det.embedding for f in sorted(frames) for det in frames[f]]
        assert np.array_equal(embeddings, np.array(expected))
        assert all(len(line.split(",")) == 7 for line in path.read_text().splitlines()[1:])

    def test_embeddings_normalized_on_load(self, tmp_path):
        path = tmp_path / "det.txt"
        write_detection_pair(path, "#dim=2\n1,-1,0.0,0.0,5.0,5.0,0.9,3.0,4.0\n")
        loaded = read_detections(path)
        assert loaded[1][0].embedding == pytest.approx([0.6, 0.8], abs=1e-12)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "det.txt"
        path.write_text("1,-1,0.0,0.0,5.0,5.0,0.9,1.0,0.0\n")
        with pytest.raises(ValueError, match=r"det\.txt:1: missing #dim header"):
            read_detections(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "det.txt"
        path.write_text("")
        with pytest.raises(ValueError, match="missing #dim header"):
            read_detections(path)

    @pytest.mark.parametrize(
        "header",
        [
            "  #dim=2  ",
            "#dim=2 ",
            "\t#dim=2",
            "#dim=\u0662",  # an Arabic-Indic two
            "#dim=+2",
            "#dim=2x",
            "#dim=",
        ],
    )
    def test_header_must_match_exactly(self, tmp_path, header):
        path = tmp_path / "det.txt"
        got = error_message(read_detections, path, f"{header}\n1,-1,0.0,0.0,5.0,5.0,0.9,1.0,0.0\n")
        assert got == f"{path}:1: missing #dim header, got {header!r}"

    def test_header_dimension_zero_message(self, tmp_path):
        path = tmp_path / "det.txt"
        got = error_message(read_detections, path, "#dim=0\n")
        assert got == f"{path}:1: embedding dimension must be at least 1"

    def test_width_one_file_reads_with_its_sidecar(self, tmp_path):
        path = tmp_path / "det.txt"
        write_detection_pair(path, "#dim=1\n1,-1,0.0,0.0,5.0,5.0,0.9,-3.0\n", dim=1)
        assert np.load(tmp_path / "det.npy").shape == (1, 1)
        (detection,) = read_detections(path)[1]
        assert detection.embedding.tolist() == [-1.0]

    def test_field_count_names_line(self, tmp_path):
        path = tmp_path / "det.txt"
        write_detection_pair(path, "#dim=2\n1,-1,0.0,0.0,5.0,5.0,0.9,1.0,0.0\n1,-1,0.0,0.0,5.0\n")
        with pytest.raises(ValueError, match=r"det\.txt:3: expected 7 fields, got 5"):
            read_detections(path)

    def test_v1_row_rejected_by_field_count(self, tmp_path):
        # A line of the old format, embedding components inline, with a
        # sidecar that would fit it: there is no second parse path.
        path = tmp_path / "det.txt"
        np.save(tmp_path / "det.npy", np.array([[1.0, 0.0]]))
        got = error_message(read_detections, path, "#dim=2\n1,-1,0.0,0.0,5.0,5.0,0.9,1.0,0.0\n")
        assert got == f"{path}:2: expected 7 fields, got 9"

    def test_malformed_float_names_line_and_token(self, tmp_path):
        path = tmp_path / "det.txt"
        write_detection_pair(path, "#dim=2\n1,-1,0.0,zero,5.0,5.0,0.9,1.0,0.0\n")
        with pytest.raises(ValueError, match=r"det\.txt:2: malformed y: 'zero'"):
            read_detections(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "det.txt"
        write_detection_pair(path, "#dim=2\n1,-1,0.0,0.0,5.0,5.0,nan,1.0,0.0\n")
        with pytest.raises(ValueError, match="non-finite confidence"):
            read_detections(path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,-1,0.0,zero,5.0,5.0,0.9,1.0,0.0", "malformed y: 'zero'"),
            ("1,-1,0.0,0.0,5.0,5.0,nan,1.0,0.0", "non-finite confidence: 'nan'"),
            ("1,-1,inf,0.0,5.0,5.0,0.9,1.0,0.0", "non-finite x: 'inf'"),
            ("1,-1,-inf,zero,5.0,5.0,0.9,1.0,0.0", "non-finite x: '-inf'"),
            # The last two components are the sidecar row.
            ("1,-1,0.0,0.0,5.0,5.0,0.9,1.0,inf", "non-finite embedding value"),
            ("1,-1,0.0,0.0,5.0,5.0,0.9,1.0,-inf", "non-finite embedding value"),
            ("1,-1,0.0,0.0,5.0,5.0,0.9,1.0,nan", "non-finite embedding value"),
        ],
    )
    def test_bad_float_message_is_exact(self, tmp_path, row, message):
        path = tmp_path / "det.txt"
        got = detection_error(path, f"#dim=2\n{row}\n")
        assert got == f"{path}:2: {message}"

    def test_zero_embedding_names_line(self, tmp_path):
        path = tmp_path / "det.txt"
        got = detection_error(
            path, "#dim=2\n1,-1,0.0,0.0,5.0,5.0,0.9,1.0,0.0\n1,-1,0.0,0.0,5.0,5.0,0.9,0.0,0.0\n"
        )
        assert got == f"{path}:3: cannot normalize a zero vector"

    def test_first_bad_line_is_reported(self, tmp_path):
        path = tmp_path / "det.txt"
        got = detection_error(
            path,
            "#dim=2\n"
            "1,-1,0.0,0.0,5.0,5.0,0.9,1.0,nan\n"
            "1,-1,0.0,0.0,5.0,5.0,0.9,1.0,0.0\n"
            "2,-1,zero,0.0,5.0,5.0,0.9,1.0,0.0\n",
        )
        assert got == f"{path}:2: non-finite embedding value"

    def test_missing_sidecar_is_named(self, tmp_path):
        path = tmp_path / "det.txt"
        got = error_message(read_detections, path, ONE_ROW)
        assert got == f"{tmp_path / 'det.npy'}: missing embedding sidecar of {path}"

    @pytest.mark.parametrize(
        "embeddings, message",
        [
            (np.zeros((2, 2)), "expected embeddings of shape (1, 2) for {path}, got (2, 2)"),
            (np.zeros((1, 3)), "expected embeddings of shape (1, 2) for {path}, got (1, 3)"),
            (np.zeros(2), "expected embeddings of shape (1, 2) for {path}, got (2,)"),
            (np.ones((1, 2), dtype=np.float32), "embeddings must be a float64 array, got float32"),
            (np.ones((1, 2), dtype=np.int64), "embeddings must be a float64 array, got int64"),
            (np.zeros((0, 2)), "expected embeddings of shape (1, 2) for {path}, got (0, 2)"),
        ],
    )
    def test_sidecar_shape_and_dtype_message_is_exact(self, tmp_path, embeddings, message):
        path = tmp_path / "det.txt"
        np.save(tmp_path / "det.npy", embeddings)
        got = error_message(read_detections, path, ONE_ROW)
        assert got == f"{tmp_path / 'det.npy'}: " + message.format(path=path)

    @pytest.mark.parametrize("appended", ["", "oops"])
    def test_bad_line_appended_to_a_written_file_is_named(self, tmp_path, appended):
        # The sidecar holds one row fewer than the text has lines, but the
        # bad line is reported, not the row count.
        path = tmp_path / "det.txt"
        write_detections(sample_frames(np.random.default_rng(5), dim=4), path)
        with open(path, "a") as handle:
            handle.write(appended + "\n")
        with pytest.raises(ValueError) as err:
            read_detections(path)
        assert str(err.value) == f"{path}:8: expected 7 fields, got 1"

    def test_short_sidecar_reports_a_bad_row_first(self, tmp_path):
        path = tmp_path / "det.txt"
        path.write_text("#dim=2\n1,-1,0.0,0.0,5.0,5.0,0.9\n1,-1,9.0,0.0,5.0,5.0,0.9\n")
        np.save(tmp_path / "det.npy", np.zeros((1, 2)))
        with pytest.raises(ValueError) as err:
            read_detections(path)
        assert str(err.value) == f"{path}:2: cannot normalize a zero vector"

    def test_object_sidecar_refused_without_unpickling(self, tmp_path):
        path = tmp_path / "det.txt"
        np.save(tmp_path / "det.npy", np.array([[1.0, object()]], dtype=object), allow_pickle=True)
        got = error_message(read_detections, path, ONE_ROW)
        assert got.startswith(f"{tmp_path / 'det.npy'}: ")
        assert "allow_pickle=False" in got

    def test_sidecar_that_is_not_npy_is_named(self, tmp_path):
        path = tmp_path / "det.txt"
        (tmp_path / "det.npy").write_bytes(b"")
        got = error_message(read_detections, path, ONE_ROW)
        assert got.startswith(f"{tmp_path / 'det.npy'}: ")

    def test_npz_sidecar_refused(self, tmp_path):
        path = tmp_path / "det.txt"
        with open(tmp_path / "det.npy", "wb") as handle:
            np.savez(handle, embeddings=np.ones((1, 2)))
        got = error_message(read_detections, path, ONE_ROW)
        assert got == f"{tmp_path / 'det.npy'}: expected one .npy array, got NpzFile"

    def test_decreasing_frames_rejected(self, tmp_path):
        path = tmp_path / "det.txt"
        write_detection_pair(
            path, "#dim=2\n2,-1,0.0,0.0,5.0,5.0,0.9,1.0,0.0\n1,-1,0.0,0.0,5.0,5.0,0.9,1.0,0.0\n"
        )
        with pytest.raises(ValueError, match=r"det\.txt:3: frames must be non-decreasing"):
            read_detections(path)

    def test_frame_zero_rejected(self, tmp_path):
        path = tmp_path / "det.txt"
        write_detection_pair(path, "#dim=2\n0,-1,0.0,0.0,5.0,5.0,0.9,1.0,0.0\n")
        with pytest.raises(ValueError, match="frame indices start at 1"):
            read_detections(path)

    def test_bad_confidence_wrapped_with_line(self, tmp_path):
        path = tmp_path / "det.txt"
        write_detection_pair(path, "#dim=2\n1,-1,0.0,0.0,5.0,5.0,1.4,1.0,0.0\n")
        with pytest.raises(ValueError, match=r"det\.txt:2: "):
            read_detections(path)

    def test_write_rejects_mixed_dims(self, tmp_path):
        frames = {
            1: [Detection(BBox(0, 0, 5, 5), 0.5, np.ones(4))],
            2: [Detection(BBox(0, 0, 5, 5), 0.5, np.ones(8))],
        }
        with pytest.raises(ValueError, match="mixed embedding dimensions"):
            write_detections(frames, tmp_path / "det.txt")

    def test_write_rejects_dim_that_disagrees(self, tmp_path):
        frames = {1: [Detection(BBox(0, 0, 5, 5), 0.5, np.ones(4))]}
        with pytest.raises(ValueError, match=r"mixed embedding dimensions: \[4, 8\]"):
            write_detections(frames, tmp_path / "det.txt", 8)

    def test_write_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError, match="empty detection sequence"):
            write_detections({}, tmp_path / "det.txt")

    def test_write_refuses_path_that_is_its_own_sidecar(self, tmp_path):
        frames = {1: [Detection(BBox(0, 0, 5, 5), 0.5, np.ones(4))]}
        path = tmp_path / "det.npy"
        with pytest.raises(ValueError, match="sidecar would overwrite the detection file"):
            write_detections(frames, path)
        assert not path.exists()

    def test_empty_frames_round_trip(self, tmp_path):
        det = Detection(BBox(0, 0, 5, 5), 0.5, np.ones(4))
        frames = {2: [], 3: [det], 5: [], 7: [det, det], 9: []}
        path = tmp_path / "det.txt"
        write_detections(frames, path)
        assert path.read_text().splitlines()[0] == "#dim=4;empty=2,5,9"
        loaded = read_detections(path)
        assert list(loaded) == [2, 3, 5, 7, 9]
        assert [len(loaded[f]) for f in loaded] == [0, 1, 0, 2, 0]

    def test_all_empty_scene_needs_and_keeps_dim(self, tmp_path):
        path = tmp_path / "det.txt"
        write_detections({1: [], 2: []}, path, 4)
        assert path.read_text() == "#dim=4;empty=1,2\n"
        assert np.load(tmp_path / "det.npy").shape == (0, 4)
        assert read_detections(path) == {1: [], 2: []}

    @pytest.mark.parametrize(
        "header, message",
        [
            ("#dim=2;empty=", "missing #dim header, got '#dim=2;empty='"),
            ("#dim=2;empty=1,", "missing #dim header, got '#dim=2;empty=1,'"),
            ("#dim=2;empty=+1", "missing #dim header, got '#dim=2;empty=+1'"),
            ("#dim=2;empty=\u0663", "missing #dim header, got '#dim=2;empty=\u0663'"),
            ("#dim=2;empty=3,2", "empty frames must be strictly ascending"),
            ("#dim=2;empty=2,2", "empty frames must be strictly ascending"),
            ("#dim=2;empty=0,2", "frame indices start at 1, got 0"),
        ],
    )
    def test_empty_frame_header_message_is_exact(self, tmp_path, header, message):
        path = tmp_path / "det.txt"
        got = error_message(read_detections, path, f"{header}\n")
        assert got == f"{path}:1: {message}"

    def test_row_in_a_frame_listed_empty_rejected(self, tmp_path):
        path = tmp_path / "det.txt"
        got = detection_error(
            path,
            "#dim=2;empty=1,3\n2,-1,0.0,0.0,5.0,5.0,0.9,1.0,0.0\n3,-1,0.0,0.0,5.0,5.0,0.9,1.0,0.0\n",
        )
        assert got == f"{path}:3: frame 3 is listed as empty in the header"

    @pytest.mark.parametrize(
        "row, message",
        [
            ("", "expected 7 fields, got 1"),
            ("one,-1,0.0,0.0,5.0,5.0,0.9,1.0,0.0", "malformed frame: 'one'"),
            ("1,raw,0.0,0.0,5.0,5.0,0.9,1.0,0.0", "malformed track id: 'raw'"),
            ("1,-1,0.0,0.0,0.0,5.0,0.9,1.0,0.0",
             "box extent must be positive, got w=0.0, h=5.0"),
            ("1,-1,0.0,0.0,5.0,5.0,1.4,1.0,0.0", "confidence must lie in [0, 1], got 1.4"),
            # int() and float() forgive digit separators, padding and
            # non-ASCII digits; the columns do not.
            ("1_0,-1,0.0,0.0,5.0,5.0,0.9,1.0,0.0", "malformed frame: '1_0'"),
            (" 1,-1,0.0,0.0,5.0,5.0,0.9,1.0,0.0", "malformed frame: ' 1'"),
            # Two defects on one line: the earlier check wins.
            ("0,raw,zero,0.0,5.0,5.0,0.9,1.0,0.0", "frame indices start at 1, got 0"),
            ("1,-1,0.0,0.0,-5.0,5.0,nan,1.0,0.0", "non-finite confidence: 'nan'"),
        ],
    )
    def test_error_message_is_exact(self, tmp_path, row, message):
        path = tmp_path / "det.txt"
        got = detection_error(path, f"#dim=2\n{row}\n")
        assert got == f"{path}:2: {message}"


@st.composite
def detection_frames(draw):
    """Frame -> detection lists over 1-d positions, with gaps and empty frames."""
    keys = draw(st.lists(st.integers(1, 12), min_size=1, max_size=8, unique=True))
    frames = {}
    for frame in sorted(keys):
        leaves = draw(st.lists(st.integers(0, 3), max_size=4))
        frames[frame] = [
            Detection(
                BBox(10.0 * leaf, 0.0, 5.0, 5.0),
                draw(st.sampled_from([0.3, 0.9])),
                np.eye(4)[leaf] + draw(st.floats(-0.5, 0.5)) * np.eye(4)[(leaf + 1) % 4],
            )
            for leaf in leaves
        ]
    return frames


class TestDetectionsRoundTripTracks:
    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        detection_frames(),
        st.sampled_from([TrackerParams(), TrackerParams(tau_a=1, ema_mode="mean")]),
    )
    def test_run_sequence_sees_the_same_scene(self, tmp_path, frames, params):
        path = tmp_path / "det.txt"
        write_detections(frames, path, 4)
        expected = run_sequence(frames, params)
        got = run_sequence(read_detections(path), params)
        assert tracked_boxes(got) == tracked_boxes(expected)
        assert [(r.frame, r.new_track_ids, r.pruned_track_ids) for r in got] == [
            (r.frame, r.new_track_ids, r.pruned_track_ids) for r in expected
        ]


class TestGtFile:
    def test_round_trip_and_sorting(self, tmp_path):
        rows = [
            LeafBox(2, 1, BBox(1.5, 2.25, 8.0, 9.0)),
            LeafBox(1, 2, BBox(0.1, 0.2, 3.0, 4.0)),
            LeafBox(1, 1, BBox(5.0, 6.0, 7.0, 8.0)),
        ]
        path = tmp_path / "gt.txt"
        write_gt(rows, path)
        loaded = read_gt(path)
        assert loaded == sorted(rows, key=lambda r: (r.frame, r.leaf_id))

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("1,1,0.0,0.0,5.0,5.0\n1,1,9.0,9.0,5.0,5.0\n")
        with pytest.raises(ValueError, match=r"gt\.txt:2: duplicate \(frame, leaf_id\)"):
            read_gt(path)

    def test_field_count(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("1,1,0.0,0.0,5.0\n")
        with pytest.raises(ValueError, match="expected 6 fields, got 5"):
            read_gt(path)

    def test_leaf_id_zero_rejected_with_line(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("1,0,0.0,0.0,5.0,5.0\n")
        with pytest.raises(ValueError, match=r"gt\.txt:1: "):
            read_gt(path)

    @pytest.mark.parametrize(
        "text, lineno, message",
        [
            ("1,1,0.0,0.0,5.0\n", 1, "expected 6 fields, got 5"),
            ("1,1,0.0,0.0,5.0,5.0,1.0\n", 1, "expected 6 fields, got 7"),
            ("1,1,0.0,0.0,5.0,5.0\n\n", 2, "expected 6 fields, got 1"),
            ("one,1,0.0,0.0,5.0,5.0\n", 1, "malformed frame: 'one'"),
            ("1.0,1,0.0,0.0,5.0,5.0\n", 1, "malformed frame: '1.0'"),
            ("0,1,0.0,0.0,5.0,5.0\n", 1, "frame indices start at 1, got 0"),
            ("-2,1,0.0,0.0,5.0,5.0\n", 1, "frame indices start at 1, got -2"),
            ("1,leaf,0.0,0.0,5.0,5.0\n", 1, "malformed leaf id: 'leaf'"),
            ("1,1,0.0,0.0,5.0,5.0\n1,1,9.0,9.0,5.0,5.0\n", 2,
             "duplicate (frame, leaf_id) = (1, 1)"),
            ("1,1,zero,0.0,5.0,5.0\n", 1, "malformed x: 'zero'"),
            ("1,1,0.0,nan,5.0,5.0\n", 1, "non-finite y: 'nan'"),
            ("1,1,0.0,0.0,inf,5.0\n", 1, "non-finite w: 'inf'"),
            ("1,1,0.0,0.0,5.0,-inf\n", 1, "non-finite h: '-inf'"),
            ("1,1,0.0,0.0,0.0,5.0\n", 1, "box extent must be positive, got w=0.0, h=5.0"),
            ("1,1,0.0,0.0,5.0,-1.0\n", 1, "box extent must be positive, got w=5.0, h=-1.0"),
            ("1,0,0.0,0.0,5.0,5.0\n", 1, "leaf ids start at 1, got 0"),
            ("1_0,1,0.0,0.0,5.0,5.0\n", 1, "malformed frame: '1_0'"),
            (" 2,1,0.0,0.0,5.0,5.0\n", 1, "malformed frame: ' 2'"),
            ("1,1 ,0.0,0.0,5.0,5.0\n", 1, "malformed leaf id: '1 '"),
            ("1,1,0.0,0.0,5.0,5.0\n1,2,0.0,1_0.0,5.0,5.0\n", 2, "malformed y: '1_0.0'"),
            ("1,1,0.0,0.0,5.0,\t5.0\n", 1, "malformed h: '\\t5.0'"),
            ("1,1,0.0,0.0,5.0,5.0\u00a0\n", 1, "malformed h: '5.0\\xa0'"),
            # Two defects on one line: the earlier check wins.
            ("0,leaf,0.0,0.0,5.0,5.0\n", 1, "frame indices start at 1, got 0"),
            ("1,1,0.0,0.0,5.0,5.0\n1,1,zero,0.0,5.0,5.0\n", 2,
             "duplicate (frame, leaf_id) = (1, 1)"),
            ("1,1,-inf,zero,5.0,5.0\n", 1, "non-finite x: '-inf'"),
            ("1,0,0.0,0.0,0.0,5.0\n", 1, "leaf ids start at 1, got 0"),
            ("0,leaf,0.0,0.0,5.0, 5.0\n", 1, "malformed h: ' 5.0'"),
            ("1 1,0.0,0.0,5.0,5.0\n", 1, "expected 6 fields, got 5"),
        ],
    )
    def test_error_message_is_exact(self, tmp_path, text, lineno, message):
        path = tmp_path / "gt.txt"
        assert error_message(read_gt, path, text) == f"{path}:{lineno}: {message}"


class TestResultsFile:
    def test_round_trip(self, tmp_path):
        rows = [
            LeafBox(1, 2, BBox(0.25, 0.5, 10.0, 12.0)),
            LeafBox(1, 1, BBox(30.0, 0.5, 10.0, 12.0)),
            LeafBox(2, 1, BBox(30.5, 0.75, 10.0, 12.0)),
        ]
        path = tmp_path / "res.txt"
        write_results(rows, path)
        assert read_results(path) == sorted(rows, key=lambda r: (r.frame, r.leaf_id))

    def test_confidence_column_is_literal_one(self, tmp_path):
        path = tmp_path / "res.txt"
        write_results([LeafBox(1, 1, BBox(0, 0, 5, 5))], path)
        assert path.read_text() == "1,1,0.0,0.0,5.0,5.0,1.0\n"

    def test_confidence_column_is_ignored_on_read(self, tmp_path):
        path = tmp_path / "res.txt"
        path.write_text("1,1,0.0,0.0,5.0,5.0,-7.5\n")
        assert read_results(path) == [LeafBox(1, 1, BBox(0.0, 0.0, 5.0, 5.0))]

    def test_tracked_boxes_of_a_run_write_the_hand_built_bytes(self, tmp_path):
        e = np.zeros(4)
        e[0] = 1.0
        frames = {
            1: [Detection(BBox(0, 0, 10, 10), 1.0, e)],
            2: [Detection(BBox(1, 0, 10, 10), 1.0, e)],
        }
        results = run_sequence(frames, TrackerParams())
        path_a = tmp_path / "a.txt"
        path_b = tmp_path / "b.txt"
        write_results(tracked_boxes(results), path_a)
        write_results(
            [LeafBox(1, 1, BBox(0, 0, 10, 10)), LeafBox(2, 1, BBox(1, 0, 10, 10))],
            path_b,
        )
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_track_id_zero_rejected(self, tmp_path):
        path = tmp_path / "res.txt"
        path.write_text("1,0,0.0,0.0,5.0,5.0,1.0\n")
        with pytest.raises(ValueError, match="track ids start at 1"):
            read_results(path)

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "res.txt"
        path.write_text("1,1,0.0,0.0,5.0,5.0,1.0\n1,1,9.0,9.0,5.0,5.0,1.0\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_results(path)

    @pytest.mark.parametrize(
        "text, lineno, message",
        [
            ("1,1,0.0,0.0,5.0,5.0\n", 1, "expected 7 fields, got 6"),
            ("1,1,0.0,0.0,5.0,5.0,1.0\n\n", 2, "expected 7 fields, got 1"),
            ("one,1,0.0,0.0,5.0,5.0,1.0\n", 1, "malformed frame: 'one'"),
            ("0,1,0.0,0.0,5.0,5.0,1.0\n", 1, "frame indices start at 1, got 0"),
            ("1,track,0.0,0.0,5.0,5.0,1.0\n", 1, "malformed track id: 'track'"),
            ("1,0,0.0,0.0,5.0,5.0,1.0\n", 1, "track ids start at 1, got 0"),
            ("1,-1,0.0,0.0,5.0,5.0,1.0\n", 1, "track ids start at 1, got -1"),
            ("1,1,0.0,0.0,5.0,5.0,1.0\n1,1,9.0,9.0,5.0,5.0,1.0\n", 2,
             "duplicate (frame, track_id) = (1, 1)"),
            ("1,1,zero,0.0,5.0,5.0,1.0\n", 1, "malformed x: 'zero'"),
            ("1,1,0.0,0.0,5.0,inf,1.0\n", 1, "non-finite h: 'inf'"),
            ("1,1,0.0,0.0,5.0,5.0,high\n", 1, "malformed confidence: 'high'"),
            ("1,1,0.0,0.0,5.0,5.0,nan\n", 1, "non-finite confidence: 'nan'"),
            ("1,1,0.0,0.0,5.0,0.0,1.0\n", 1, "box extent must be positive, got w=5.0, h=0.0"),
            ("1,1_0,0.0,0.0,5.0,5.0,1.0\n", 1, "malformed track id: '1_0'"),
            ("1, 1,0.0,0.0,5.0,5.0,1.0\n", 1, "malformed track id: ' 1'"),
            ("1,1,0.0,0.0,5.0,5.0,1.0 \n", 1, "malformed confidence: '1.0 '"),
            ("1,1,0.0,0.0,5.0,5.0,1_0.0\n", 1, "malformed confidence: '1_0.0'"),
            # Two defects on one line: the earlier check wins, and every
            # float, confidence included, is checked before the box.
            ("1,0,zero,0.0,5.0,5.0,1.0\n", 1, "track ids start at 1, got 0"),
            ("1,1,0.0,0.0,-5.0,5.0,nan\n", 1, "non-finite confidence: 'nan'"),
        ],
    )
    def test_error_message_is_exact(self, tmp_path, text, lineno, message):
        path = tmp_path / "res.txt"
        assert error_message(read_results, path, text) == f"{path}:{lineno}: {message}"


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestBoxColumns:
    """Detections, ground truth and results write the same frame,id,x,y,w,h columns."""

    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        st.integers(1, 10**9),
        st.integers(1, 10**9),
        accepted_boxes(),
        st.floats(0.0, 1.0),
    )
    def test_every_format_writes_the_same_box_columns(self, tmp_path, frame, row_id, box, conf):
        write_gt([LeafBox(frame, row_id, box)], tmp_path / "gt.txt")
        write_results([LeafBox(frame, row_id, box)], tmp_path / "res.txt")
        write_detections({frame: [Detection(box, conf, np.ones(2))]}, tmp_path / "det.txt")

        def fields(name, index=0):
            return (tmp_path / name).read_text().splitlines()[index].split(",")

        gt, res, det = fields("gt.txt"), fields("res.txt"), fields("det.txt", 1)
        assert res[:6] == gt
        assert res[6:] == ["1.0"]
        assert det[0] == gt[0]
        assert det[1] == "-1"
        assert det[2:6] == gt[2:]
        assert det[6:] == [repr(conf)]


class TestTruthMapFile:
    def test_round_trip(self, tmp_path):
        mapping = {(1, 0): 3, (1, 1): 1, (4, 0): 2}
        path = tmp_path / "map.txt"
        write_truth_map(mapping, path)
        assert read_truth_map(path) == mapping
        assert path.read_text() == "1,0,3\n1,1,1\n4,0,2\n"

    def test_field_count(self, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("1,0\n")
        with pytest.raises(ValueError, match="expected 3 fields"):
            read_truth_map(path)

    @pytest.mark.parametrize(
        "text, lineno, message",
        [
            ("1,0\n", 1, "expected 3 fields, got 2"),
            ("1,0,3\n1,1,1,1\n", 2, "expected 3 fields, got 4"),
            ("a,0,1\n", 1, "malformed frame: 'a'"),
            ("1,b,1\n", 1, "malformed detection index: 'b'"),
            ("1,0,c\n", 1, "malformed leaf id: 'c'"),
            ("1,0,3\n1,0,4\n", 2, "duplicate (frame, det_index)"),
            ("1,-1,3\n", 1, "detection indices start at 0, got -1"),
            ("1,0,0\n", 1, "leaf ids start at 1, got 0"),
            ("1,0,3\n1,1,-7\n", 2, "leaf ids start at 1, got -7"),
            ("1,-1,-7\n", 1, "detection indices start at 0, got -1"),
            ("1,-1,c\n", 1, "detection indices start at 0, got -1"),
            ("1,0,3\n1,0,-7\n", 2, "leaf ids start at 1, got -7"),
            ("-3,0,2\n", 1, "frame indices start at 1, got -3"),
            ("1,0,3\n-1,b,c\n", 2, "frame indices start at 1, got -1"),
            ("0,0,3\n", 1, "frame indices start at 1, got 0"),
            ("1_0,0,2\n", 1, "malformed frame: '1_0'"),
            ("1,0,3\n1,\t1,2\n", 2, "malformed detection index: '\\t1'"),
            ("1,0,2 \n", 1, "malformed leaf id: '2 '"),
            ("1,0,\u0662\n", 1, "malformed leaf id: '\u0662'"),
        ],
    )
    def test_error_message_is_exact(self, tmp_path, text, lineno, message):
        path = tmp_path / "map.txt"
        assert error_message(read_truth_map, path, text) == f"{path}:{lineno}: {message}"


class TestTripletsFile:
    def test_round_trip(self, tmp_path):
        rows = [
            TripletSpec(
                anchor=CropRef(0, 2, 5),
                positive=CropRef(0, 2, 9),
                negative=CropRef(1, 4, 5),
            ),
            TripletSpec(
                anchor=CropRef(2, 1, 3),
                positive=CropRef(2, 1, 2),
                negative=CropRef(2, 7, 3),
            ),
        ]
        path = tmp_path / "tri.txt"
        write_triplets(rows, path)
        assert read_triplets(path) == rows
        assert path.read_text().splitlines()[0] == "0,2,5,9,1,4,5"

    def test_constraint_violation_names_line(self, tmp_path):
        path = tmp_path / "tri.txt"
        path.write_text("0,2,5,5,1,4,5\n")
        with pytest.raises(ValueError, match=r"tri\.txt:1: "):
            read_triplets(path)

    def test_same_leaf_negative_rejected(self, tmp_path):
        path = tmp_path / "tri.txt"
        path.write_text("0,2,5,9,0,2,3\n")
        with pytest.raises(ValueError, match=r"tri\.txt:1: "):
            read_triplets(path)

    @pytest.mark.parametrize(
        "text, lineno, message",
        [
            ("0,2,5,9,1,4\n", 1, "expected 7 fields, got 6"),
            ("0,2,5,9,1,4,5\n0,2,5,9,1,4,5,6\n", 2, "expected 7 fields, got 8"),
            ("0,2,5,x,1,4,5\n", 1, "malformed triplet field: 'x'"),
            ("0,2,5,9,1,4,1_5\n", 1, "malformed triplet field: '1_5'"),
            ("0,2,5,9,1,4,5\n0, 2,5,9,1,4,5\n", 2, "malformed triplet field: ' 2'"),
            ("0,2,5,9\t,1,4,5\n", 1, "malformed triplet field: '9\\t'"),
            ("0,2,5,5,1,4,5\n", 1, "positive must come from a different time than the anchor"),
            ("0,2,5,9,0,2,3\n", 1, "negative must show a different leaf than the anchor"),
        ],
    )
    def test_error_message_is_exact(self, tmp_path, text, lineno, message):
        path = tmp_path / "tri.txt"
        assert error_message(read_triplets, path, text) == f"{path}:{lineno}: {message}"


class TestTrackerParamsFile:
    def test_defaults_from_empty_file(self, tmp_path):
        path = tmp_path / "params.cfg"
        path.write_text("")
        assert read_tracker_params(path) == TrackerParams()

    def test_overrides_comments_and_blanks(self, tmp_path):
        path = tmp_path / "params.cfg"
        path.write_text(
            "# tracker settings\n\ntau_s = 0.55\nalpha=0.9\nema_mode = mean\n"
        )
        params = read_tracker_params(path)
        assert params == TrackerParams(tau_s=0.55, alpha=0.9, ema_mode="mean")

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "params.cfg"
        path.write_text("tau_x=1\n")
        with pytest.raises(ValueError, match="unknown config key: tau_x"):
            read_tracker_params(path)

    def test_malformed_value_names_key(self, tmp_path):
        path = tmp_path / "params.cfg"
        path.write_text("alpha=fast\n")
        with pytest.raises(ValueError, match="malformed value for alpha: 'fast'"):
            read_tracker_params(path)

    def test_duplicate_key(self, tmp_path):
        path = tmp_path / "params.cfg"
        path.write_text("alpha=0.5\nalpha=0.6\n")
        with pytest.raises(ValueError, match="duplicate key 'alpha'"):
            read_tracker_params(path)

    def test_missing_equals(self, tmp_path):
        path = tmp_path / "params.cfg"
        path.write_text("alpha 0.5\n")
        with pytest.raises(ValueError, match="expected key=value"):
            read_tracker_params(path)

    def test_semantic_error_carries_path(self, tmp_path):
        path = tmp_path / "params.cfg"
        path.write_text("alpha=1.5\n")
        with pytest.raises(ValueError, match=r"params\.cfg: "):
            read_tracker_params(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("tau_a=1_0\n", "malformed value for tau_a: '1_0'"),
            ("tau_s=0.4\ntau_a=\u0665\n", "malformed value for tau_a: '\u0665'"),
            ("alpha=0. 5\n", "malformed value for alpha: '0. 5'"),
            ("conf_min=0.\t5\n", "malformed value for conf_min: '0.\\t5'"),
        ],
    )
    def test_strict_value_message_is_exact(self, tmp_path, text, message):
        path = tmp_path / "params.cfg"
        lineno = line_setting(text, message)
        assert error_message(read_tracker_params, path, text) == f"{path}:{lineno}: {message}"


class TestScenarioConfigFile:
    def test_full_parse(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text(
            "n_frames=31\n"
            "n_leaves=8\n"
            "frame_width=256\n"
            "frame_height=256\n"
            "miss_prob=0.05\n"
            "fp_rate=0.4\n"
            "box_jitter_std=1.5\n"
            "conf_lo=0.6\n"
            "conf_hi=0.95\n"
            "embedding_dim=64\n"
            "embedding_noise_std=0.07\n"
            "latent_similarity=0.2\n"
            "rotation_events=16:1.5708,24:-0.3\n"
            "occlusion_windows=1:5:8,2:10:12\n"
            "seed=11\n"
        )
        cfg = read_scenario_config(path)
        assert cfg == ScenarioConfig(
            n_frames=31,
            n_leaves=8,
            frame_width=256,
            frame_height=256,
            miss_prob=0.05,
            fp_rate=0.4,
            box_jitter_std=1.5,
            conf_lo=0.6,
            conf_hi=0.95,
            embedding_dim=64,
            embedding_noise_std=0.07,
            latent_similarity=0.2,
            rotation_events=((16, 1.5708), (24, -0.3)),
            occlusion_windows=((1, 5, 8), (2, 10, 12)),
            seed=11,
        )

    def test_minimal(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text("n_frames=5\nn_leaves=2\n")
        cfg = read_scenario_config(path)
        assert (cfg.n_frames, cfg.n_leaves, cfg.embedding_dim) == (5, 2, 128)

    def test_missing_required(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text("n_frames=5\n")
        with pytest.raises(ValueError, match="missing required key: n_leaves"):
            read_scenario_config(path)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text("n_frames=5\nn_leaves=2\nwind_speed=3\n")
        with pytest.raises(ValueError, match="unknown config key: wind_speed"):
            read_scenario_config(path)

    def test_malformed_rotation_event(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text("n_frames=5\nn_leaves=2\nrotation_events=16\n")
        with pytest.raises(ValueError, match="malformed value for rotation_events"):
            read_scenario_config(path)

    def test_malformed_occlusion_window(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text("n_frames=5\nn_leaves=2\nocclusion_windows=1:2\n")
        with pytest.raises(ValueError, match="malformed value for occlusion_windows"):
            read_scenario_config(path)

    def test_semantic_error_carries_path(self, tmp_path):
        path = tmp_path / "scene.cfg"
        path.write_text("n_frames=0\nn_leaves=2\n")
        with pytest.raises(ValueError, match=r"scene\.cfg: "):
            read_scenario_config(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("n_frames=\u0665\nn_leaves=2\n", "malformed value for n_frames: '\u0665'"),
            ("n_frames=5\nn_leaves=2\nseed=1_1\n", "malformed value for seed: '1_1'"),
            (
                "n_frames=5\nn_leaves=2\nrotation_events=1_0:0.5\n",
                "malformed value for rotation_events: '1_0'",
            ),
            (
                "n_frames=5\nn_leaves=2\nrotation_events=2:0.5, 3:0.1\n",
                "malformed value for rotation_events: ' 3'",
            ),
            (
                "n_frames=5\nn_leaves=2\nocclusion_windows=1:2:\u0663\n",
                "malformed value for occlusion_windows: '\u0663'",
            ),
        ],
    )
    def test_strict_value_message_is_exact(self, tmp_path, text, message):
        path = tmp_path / "scene.cfg"
        lineno = line_setting(text, message)
        assert error_message(read_scenario_config, path, text) == f"{path}:{lineno}: {message}"

    @pytest.mark.parametrize(
        "text, message",
        [
            # An entry with the wrong number of pieces is reported whole,
            # a bad piece alone.
            ("rotation_events=1:2:3\n", "malformed value for rotation_events: '1:2:3'"),
            ("rotation_events=1:0.5,\n", "malformed value for rotation_events: ''"),
            ("rotation_events=1.5:0.5\n", "malformed value for rotation_events: '1.5'"),
            ("occlusion_windows=1:2:x\n", "malformed value for occlusion_windows: 'x'"),
        ],
    )
    def test_tuple_field_message_is_exact(self, tmp_path, text, message):
        path = tmp_path / "scene.cfg"
        got = error_message(read_scenario_config, path, "n_frames=5\nn_leaves=2\n" + text)
        assert got == f"{path}:3: {message}"


class TestConfigReaderIsOnePass:
    """Each config line is checked and converted where it is read, so a line error names its line."""

    @pytest.mark.parametrize(
        "reader, text, message",
        [
            # Line 2 is bad in its value, line 3 in its form: line 2 is reported.
            (read_tracker_params, "tau_s=0.4\nalpha=fast\ntau_s 0.4\n", "2: malformed value for alpha: 'fast'"),
            (read_tracker_params, "tau_s=0.4\ntau_x=1\n", "2: unknown config key: tau_x"),
            (read_tracker_params, "\n# tracker\nalpha=fast\n", "3: malformed value for alpha: 'fast'"),
            (read_scenario_config, "n_frames=5\nwind=3\nn_leaves=2\n", "2: unknown config key: wind"),
            (read_scenario_config, "n_frames=5\nseed=1_1\nn_leaves=2\n", "2: malformed value for seed: '1_1'"),
            (read_scenario_config, "n_frames=x\nn_leaves=2\nwind=3\n", "1: malformed value for n_frames: 'x'"),
            # A repeated unknown key is unknown at its first line, not a duplicate at its second.
            (read_tracker_params, "wind=1\nwind=2\n", "1: unknown config key: wind"),
            (read_scenario_config, "n_frames=5\nwind=1\nwind=2\n", "2: unknown config key: wind"),
            (read_tracker_params, "alpha=0.5\nalpha=0.6\n", "2: duplicate key 'alpha'"),
        ],
    )
    def test_line_error_names_its_line(self, tmp_path, reader, text, message):
        path = tmp_path / "a.cfg"
        assert error_message(reader, path, text) == f"{path}:{message}"

    @pytest.mark.parametrize(
        "reader, text, message",
        [
            (read_scenario_config, "n_frames=5\n", "missing required key: n_leaves"),
            (read_tracker_params, "tau_s=1.5\n", "tau_s must lie in [-1, 1], got 1.5"),
        ],
    )
    def test_whole_file_error_names_no_line(self, tmp_path, reader, text, message):
        path = tmp_path / "a.cfg"
        assert error_message(reader, path, text) == f"{path}: {message}"


class TestUtf8:
    @pytest.mark.parametrize(
        "reader",
        [
            read_detections,
            read_gt,
            read_results,
            read_truth_map,
            read_triplets,
            read_tracker_params,
            read_scenario_config,
        ],
    )
    def test_bad_byte_names_file_and_line(self, tmp_path, reader):
        path = tmp_path / "input.txt"
        path.write_bytes(b"# first line\n\xff\n")
        with pytest.raises(ValueError) as err:
            reader(path)
        assert str(err.value) == f"{path}:2: not UTF-8 text"

    @pytest.mark.parametrize(
        "data, lineno",
        [
            (b"\xff", 1),
            (b"tau_s=0.4\r\nalpha=0.5\r\n# caf\xc3\xa9 \xe9\n", 3),
            (b"tau_s=0.4\ralpha=0.5\n\xc3", 3),
        ],
    )
    def test_line_is_counted_as_the_readers_count_it(self, tmp_path, data, lineno):
        path = tmp_path / "params.cfg"
        path.write_bytes(data)
        with pytest.raises(ValueError) as err:
            read_tracker_params(path)
        assert str(err.value) == f"{path}:{lineno}: not UTF-8 text"

    @pytest.mark.parametrize(
        "reader, text",
        [
            (read_tracker_params, "tau_s=0.3\nalpha=0.25\n"),
            (read_scenario_config, "n_frames=4\nn_leaves=2\nseed=7\n"),
            (read_gt, "1,1,0.0,0.0,5.0,5.0\n2,1,1.0,0.0,5.0,5.0\n"),
        ],
    )
    def test_leading_byte_order_mark_is_dropped(self, tmp_path, reader, text):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_text(text)
        marked.write_bytes(codecs.BOM_UTF8 + text.encode("utf-8"))
        assert reader(marked) == reader(plain)

    def test_bad_byte_after_a_mark_names_its_line(self, tmp_path):
        path = tmp_path / "params.cfg"
        path.write_bytes(codecs.BOM_UTF8 + b"tau_s=0.3\nalpha=0.5\n\xff\n")
        with pytest.raises(ValueError) as err:
            read_tracker_params(path)
        assert str(err.value) == f"{path}:3: not UTF-8 text"

    @pytest.mark.parametrize(
        "reader, data, message",
        [
            (read_tracker_params, codecs.BOM_UTF8 * 2 + b"tau_s=0.3\n", "1: unknown config key: \ufefftau_s"),
            (read_tracker_params, b"tau_s=0.3\n" + codecs.BOM_UTF8 + b"alpha=0.5\n", "2: unknown config key: \ufeffalpha"),
            (read_gt, b"1,1,0,0,5,5\n" + codecs.BOM_UTF8 + b"2,1,0,0,5,5\n", "2: malformed frame: '\\ufeff2'"),
        ],
    )
    def test_a_mark_anywhere_else_is_refused(self, tmp_path, reader, data, message):
        path = tmp_path / "input.txt"
        path.write_bytes(data)
        with pytest.raises(ValueError) as err:
            reader(path)
        assert str(err.value) == f"{path}:{message}"

    def test_utf8_text_reads_under_an_ascii_locale(self, tmp_path):
        # Without UTF-8 mode and locale coercion, the C locale's text encoding is ASCII.
        path = tmp_path / "params.cfg"
        path.write_bytes("# caf\u00e9 \u2013 settings\ntau_s=0.3\n".encode("utf-8"))
        code = f"from frond.fileio import read_tracker_params; print(read_tracker_params({str(path)!r}).tau_s)"
        assert run_python(code, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0") == "0.3\n"


def _config_text(config) -> str:
    """Every field of a config dataclass as one key=value line.

    Numbers are written with repr, strings as they are, and tuple fields as
    comma-separated entries of colon-joined pieces.
    """
    lines = []
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if isinstance(value, tuple):
            text = ",".join(":".join(map(repr, entry)) for entry in value)
        elif isinstance(value, str):
            text = value
        else:
            text = repr(value)
        lines.append(f"{f.name}={text}")
    return "\n".join(lines) + "\n"


_UNIT = st.floats(0.0, 1.0)
_NON_NEGATIVE = st.floats(0.0, 1e12)


@st.composite
def scenario_configs(draw):
    """ScenarioConfigs that the validator accepts, every field drawn."""
    n_frames = draw(st.integers(1, 60))
    n_leaves = draw(st.integers(1, 12))
    conf_lo, conf_hi = sorted(draw(st.lists(_UNIT, min_size=2, max_size=2)))
    windows = st.tuples(st.integers(1, n_leaves), st.integers(1, n_frames), st.integers(1, n_frames))
    frame_width = draw(st.integers(32, 4096))
    frame_height = draw(st.integers(32, 4096))
    smallest_clutter = CLUTTER_MIN_SIDE * min(frame_width, frame_height)
    # Any finite angles, as long as their magnitudes have the finite sum the validator requires.
    rotation_events = st.lists(st.tuples(st.integers(1, 10**6), _FINITE), max_size=4).filter(
        lambda events: math.isfinite(sum(abs(angle) for _, angle in events))
    )
    return ScenarioConfig(
        n_frames=n_frames,
        n_leaves=n_leaves,
        frame_width=frame_width,
        frame_height=frame_height,
        occlusion_prob=draw(_UNIT),
        rotation_events=tuple(draw(rotation_events)),
        occlusion_windows=tuple(
            (leaf, min(a, b), max(a, b)) for leaf, a, b in draw(st.lists(windows, max_size=4))
        ),
        miss_prob=draw(_UNIT),
        fp_rate=draw(st.floats(0.0, frame_width * frame_height / smallest_clutter**2)),
        box_jitter_std=draw(st.floats(0.0, max(frame_width, frame_height))),
        conf_lo=conf_lo,
        conf_hi=conf_hi,
        embedding_dim=draw(st.integers(2, 1024)),
        embedding_noise_std=draw(_NON_NEGATIVE),
        embedding_drift_rate=draw(_NON_NEGATIVE),
        latent_similarity=draw(st.floats(0.0, 1.0, exclude_max=True)),
        birth_window=draw(st.integers(0, n_frames - 1)),
        death_prob=draw(_UNIT),
        seed=draw(st.integers(0, 2**70)),
    )


tracker_params = st.builds(
    TrackerParams,
    tau_s=st.floats(-1.0, 1.0),
    tau_a=st.integers(0, 10**9),
    alpha=_UNIT,
    conf_min=st.floats(min_value=0.0, allow_nan=False),
    ema_mode=st.sampled_from(("ema", "mean")),
)


class TestConfigRoundTrip:
    # The one file is rewritten by every example, so sharing tmp_path is safe.
    @settings(
        max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(st.one_of(scenario_configs(), tracker_params))
    def test_every_field_reads_back_equal(self, tmp_path, config):
        path = tmp_path / "config.cfg"
        path.write_text(_config_text(config))
        assert _read_config(path, type(config)) == config


class TestLeafMatrixCsv:
    def test_exact_text(self, tmp_path):
        gt = [
            LeafBox(1, 1, BBox(0, 0, 10, 10)),
            LeafBox(2, 1, BBox(0, 0, 10, 10)),
            LeafBox(1, 2, BBox(100, 0, 10, 10)),
        ]
        pred = [
            LeafBox(1, 1, BBox(0, 0, 10, 10)),
            LeafBox(2, 1, BBox(0, 2, 10, 10)),
            LeafBox(1, 2, BBox(100, 0, 10, 10)),
        ]
        path = tmp_path / "matrix.csv"
        write_leaf_matrix_csv(leaf_accuracy_matrix(match_frames(gt, pred)), path)
        assert path.read_text() == "leaf_id,1,2\n1,1,0\n2,1,\n"


class TestWriteDiscipline:
    def test_byte_determinism_and_line_endings(self, tmp_path):
        rng = np.random.default_rng(29)
        frames = sample_frames(rng)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        write_detections(frames, a)
        write_detections(frames, b)
        data = a.read_bytes()
        assert data == b.read_bytes()
        assert a.with_suffix(".npy").read_bytes() == b.with_suffix(".npy").read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")

    def test_floats_use_shortest_repr(self, tmp_path):
        path = tmp_path / "gt.txt"
        write_gt([LeafBox(1, 1, BBox(0.1, 0.25, 10.0, 7.5))], path)
        assert path.read_text() == "1,1,0.1,0.25,10.0,7.5\n"

    # Each writer is handed its rows out of frame order, the bad frame last.
    @pytest.mark.parametrize(
        "write, frame",
        [
            (lambda path: write_gt([LeafBox(2, 1, BBox(0, 0, 5, 5)), LeafBox(0, 1, BBox(0, 0, 5, 5))], path), 0),
            (lambda path: write_results([LeafBox(2, 1, BBox(0, 0, 5, 5)), LeafBox(0, 2, BBox(0, 0, 5, 5))], path), 0),
            (lambda path: write_detections({1: [Detection(BBox(0, 0, 5, 5), 0.5, np.ones(2))], 0: []}, path), 0),
            (lambda path: write_detections({1: [], -2: []}, path, 2), -2),
            (lambda path: write_truth_map({(2, 0): 1, (0, 0): 1}, path), 0),
        ],
        ids=["gt", "results", "detections", "detections-empty-frame", "truth-map"],
    )
    def test_frame_below_one_is_refused_before_any_write(self, tmp_path, write, frame):
        # What a writer refuses is what its reader would refuse, so nothing unreadable is written.
        with pytest.raises(ValueError) as err:
            write(tmp_path / "out.txt")
        assert str(err.value) == f"frame indices start at 1, got {frame}"
        assert list(tmp_path.iterdir()) == []
