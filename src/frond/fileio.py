"""File formats: detections, ground truth, tracker results, truth maps,
triplet lists, key-value configs, and the per-leaf accuracy CSV.

Every format is line-oriented text except the detection embeddings, which
go to a binary `.npy` sidecar beside the detection file.  Floats are
written with shortest round-trip formatting, text files end with a
trailing newline, and line endings are always LF, so equal inputs produce
byte-identical files.  Every comma-separated format is read through one
row loop, so a bad line is reported the same way in each of them.
"""

from __future__ import annotations

import dataclasses
import math
import re
from pathlib import Path
from typing import Iterable, Mapping, get_args, get_origin, get_type_hints

import numpy as np

from .embedding import CropRef, TripletSpec
from .geometry import BBox
from .metrics import CELL_ABSENT, CELL_CORRECT, GtAnnotation, LeafAccuracyMatrix
from .simulator import ScenarioConfig
from .tracker import Detection, FrameResult, TrackedBox, TrackerParams, tracked_boxes

_HEADER_RE = re.compile(r"#dim=([0-9]+)(?:;empty=([0-9]+(?:,[0-9]+)*))?")
_GT_FIELDS = ("frame", "leaf id", "x", "y", "w", "h")
_RESULT_FIELDS = ("frame", "track id", "x", "y", "w", "h", "confidence")
_TRUTH_MAP_FIELDS = ("frame", "detection index", "leaf id")
_TRIPLET_FIELDS = ("triplet field",) * 7


def _fmt(value: float) -> str:
    return repr(float(value))


def _malformed(token: str, path, lineno: int, what: str) -> ValueError:
    return ValueError(f"{path}:{lineno}: malformed {what}: {token!r}")


def _parse_int(token: str, path, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise _malformed(token, path, lineno, what) from None


def _parse_float(token: str, path, lineno: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise _malformed(token, path, lineno, what) from None
    if not math.isfinite(value):
        raise ValueError(f"{path}:{lineno}: non-finite {what}: {token!r}")
    return value


def _strict(text: str) -> bool:
    """False if text holds what int() and float() forgive but frond never writes.

    That is a digit separator `_`, a space or tab, or any non-ASCII character
    (Unicode spaces and digits).  Lines come from splitlines(), so no other
    ASCII whitespace can occur.
    """
    return text.isascii() and "_" not in text and " " not in text and "\t" not in text


def _rows(path, lines: list[str], names: tuple[str, ...], first_lineno: int = 1):
    """Yield (lineno, fields) for each comma-separated line.

    A line must have one field per name, and no field may hold what
    _strict rejects; the first such field is reported as malformed.  The
    strict check runs once per line, not per field.
    """
    for lineno, line in enumerate(lines, start=first_lineno):
        fields = line.split(",")
        if len(fields) != len(names):
            raise ValueError(f"{path}:{lineno}: expected {len(names)} fields, got {len(fields)}")
        if not _strict(line):
            token, what = next((t, w) for t, w in zip(fields, names) if not _strict(t))
            raise _malformed(token, path, lineno, what)
        yield lineno, fields


def _frame(token: str, path, lineno: int) -> int:
    frame = _parse_int(token, path, lineno, "frame")
    if frame < 1:
        raise ValueError(f"{path}:{lineno}: frame indices start at 1, got {frame}")
    return frame


def _floats(tokens: list[str], names, path, lineno: int) -> list[float]:
    """Convert float fields in one pass; a bad line is parsed again for its message."""
    try:
        values = [float(token) for token in tokens]
        valid = all(map(math.isfinite, values))
    except ValueError:
        valid = False
    if not valid:
        # Parse the line again field by field; this raises naming the
        # first bad field and its token.
        for token, what in zip(tokens, names):
            _parse_float(token, path, lineno, what)
    return values


def _write_lines(path, lines: list[str]) -> None:
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n" if lines else "")


# ---------------------------------------------------------------------------
# detections: "#dim=D" or "#dim=D;empty=F1,F2,..." header, then
# frame,track_id,x,y,w,h,conf; the embeddings are one (rows, D) float64
# array in the .npy sidecar, row i belonging to data line i + 2
# ---------------------------------------------------------------------------

def _sidecar(path) -> Path:
    return Path(path).with_suffix(".npy")


def _read_embeddings(path, rows: int, dim: int) -> np.ndarray:
    """The sidecar of the detection file at path, checked to be a (rows, dim) float64 array."""
    sidecar = _sidecar(path)
    try:
        with open(sidecar, "rb") as handle:
            embeddings = np.load(handle, allow_pickle=False)
    except FileNotFoundError:
        raise ValueError(f"{sidecar}: missing embedding sidecar of {path}") from None
    except (ValueError, EOFError) as err:
        raise ValueError(f"{sidecar}: {err}") from None
    if not isinstance(embeddings, np.ndarray):
        raise ValueError(f"{sidecar}: expected one .npy array, got {type(embeddings).__name__}")
    if embeddings.dtype != np.float64:
        raise ValueError(f"{sidecar}: embeddings must be a float64 array, got {embeddings.dtype}")
    if embeddings.shape != (rows, dim):
        raise ValueError(
            f"{sidecar}: expected embeddings of shape {(rows, dim)} for {path}, "
            f"got {embeddings.shape}"
        )
    return embeddings


def read_detections(path) -> dict[int, list[Detection]]:
    """Read a detection file and its embedding sidecar into frame -> detection list.

    Frames the header lists as empty read back with an empty list, so the
    keys are exactly those of the mapping that was written.  Embeddings
    are L2-normalized on load.  Raw (untracked) rows carry track id -1;
    the id column is validated but otherwise ignored.

    Raises:
        ValueError: naming the offending line on any malformed field,
            a missing header, or decreasing frame indices, and naming the
            sidecar when it is missing or not a (rows, D) float64 array.
    """
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}:1: missing #dim header")
    header = _HEADER_RE.fullmatch(lines[0])
    if not header:
        raise ValueError(f"{path}:1: missing #dim header, got {lines[0]!r}")
    dim = int(header.group(1))
    if dim < 1:
        raise ValueError(f"{path}:1: embedding dimension must be at least 1")
    frames: dict[int, list[Detection]] = {}
    last_frame = 0
    for token in header.group(2).split(",") if header.group(2) else ():
        frame = _frame(token, path, 1)
        if frame <= last_frame:
            raise ValueError(f"{path}:1: empty frames must be strictly ascending")
        last_frame = frame
        frames[frame] = []
    empty = set(frames)
    embeddings = _read_embeddings(path, len(lines) - 1, dim)
    last_frame = 1
    for lineno, fields in _rows(path, lines[1:], _RESULT_FIELDS, first_lineno=2):
        frame = _frame(fields[0], path, lineno)
        if frame < last_frame:
            raise ValueError(f"{path}:{lineno}: frames must be non-decreasing")
        if frame in empty:
            raise ValueError(f"{path}:{lineno}: frame {frame} is listed as empty in the header")
        last_frame = frame
        _parse_int(fields[1], path, lineno, "track id")
        x, y, w, h, conf = _floats(fields[2:], _RESULT_FIELDS[2:], path, lineno)
        try:
            detection = Detection(BBox(x, y, w, h), conf, embeddings[lineno - 2])
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {err}") from None
        frames.setdefault(frame, []).append(detection)
    return dict(sorted(frames.items()))


def write_detections(frames: Mapping[int, list[Detection]], path, dim: int | None = None) -> None:
    """Write box rows to path and the embeddings to its .npy sidecar; raw rows get track id -1.

    Frames whose detection list is empty are listed in the header, so they
    read back.  dim is the embedding dimension; it may be omitted when a
    detection carries one, and must match it otherwise.
    """
    sidecar = _sidecar(path)
    if sidecar == Path(path):
        raise ValueError(f"{path}: the embedding sidecar would overwrite the detection file")
    dims = {det.embedding.shape[0] for dets in frames.values() for det in dets}
    if dim is not None:
        dims.add(dim)
    if len(dims) > 1:
        raise ValueError(f"mixed embedding dimensions: {sorted(dims)}")
    if not dims:
        raise ValueError("empty detection sequence: embedding dimension unknown")
    (dim,) = dims
    empty = [str(frame) for frame in sorted(frames) if not frames[frame]]
    lines = [f"#dim={dim};empty={','.join(empty)}" if empty else f"#dim={dim}"]
    embeddings = []
    for frame in sorted(frames):
        for det in frames[frame]:
            box = det.box
            values = [_fmt(box.u), _fmt(box.v), _fmt(box.w), _fmt(box.h), _fmt(det.confidence)]
            lines.append(f"{frame},-1," + ",".join(values))
            embeddings.append(det.embedding)
    _write_lines(path, lines)
    array = np.array(embeddings, dtype=np.float64).reshape(len(embeddings), dim)
    np.save(sidecar, array, allow_pickle=False)


# ---------------------------------------------------------------------------
# ground truth: frame,leaf_id,x,y,w,h
# ---------------------------------------------------------------------------

def read_gt(path) -> list[GtAnnotation]:
    """Read ground-truth annotations; (frame, leaf_id) must be unique."""
    rows = []
    seen = set()
    for lineno, fields in _rows(path, Path(path).read_text().splitlines(), _GT_FIELDS):
        frame = _frame(fields[0], path, lineno)
        leaf_id = _parse_int(fields[1], path, lineno, "leaf id")
        if (frame, leaf_id) in seen:
            raise ValueError(f"{path}:{lineno}: duplicate (frame, leaf_id) = ({frame}, {leaf_id})")
        seen.add((frame, leaf_id))
        box = _floats(fields[2:], _GT_FIELDS[2:], path, lineno)
        try:
            rows.append(GtAnnotation(frame, leaf_id, BBox(*box)))
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {err}") from None
    return rows


def write_gt(annotations: Iterable[GtAnnotation], path) -> None:
    rows = sorted(annotations, key=lambda r: (r.frame, r.leaf_id))
    lines = [
        f"{r.frame},{r.leaf_id},{_fmt(r.box.u)},{_fmt(r.box.v)},{_fmt(r.box.w)},{_fmt(r.box.h)}"
        for r in rows
    ]
    _write_lines(path, lines)


# ---------------------------------------------------------------------------
# results: frame,track_id,x,y,w,h,1.0  sorted by (frame, track_id)
# ---------------------------------------------------------------------------

def read_results(path) -> list[TrackedBox]:
    """Read a tracker results file into evaluation rows.

    The seventh (confidence) column must be a finite float and is then
    ignored; `write_results` always writes it as `1.0`.
    """
    rows = []
    seen = set()
    for lineno, fields in _rows(path, Path(path).read_text().splitlines(), _RESULT_FIELDS):
        frame = _frame(fields[0], path, lineno)
        track_id = _parse_int(fields[1], path, lineno, "track id")
        if track_id < 1:
            raise ValueError(f"{path}:{lineno}: track ids start at 1, got {track_id}")
        if (frame, track_id) in seen:
            raise ValueError(f"{path}:{lineno}: duplicate (frame, track_id) = ({frame}, {track_id})")
        seen.add((frame, track_id))
        values = _floats(fields[2:], _RESULT_FIELDS[2:], path, lineno)
        try:
            rows.append(TrackedBox(frame, track_id, BBox(*values[:4])))
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {err}") from None
    return rows


def write_results(results, path) -> None:
    """Write tracker output (frame results or evaluation rows) as a results file."""
    rows = list(results)
    if rows and isinstance(rows[0], FrameResult):
        rows = tracked_boxes(rows)
    rows = sorted(rows, key=lambda r: (r.frame, r.track_id))
    lines = [
        f"{r.frame},{r.track_id},{_fmt(r.box.u)},{_fmt(r.box.v)},{_fmt(r.box.w)},{_fmt(r.box.h)},1.0"
        for r in rows
    ]
    _write_lines(path, lines)


# ---------------------------------------------------------------------------
# truth map: frame,det_index,leaf_id
# ---------------------------------------------------------------------------

def read_truth_map(path) -> dict[tuple[int, int], int]:
    """Read a (frame, det_index) -> leaf_id map; frames start at 1, as in every other format."""
    out: dict[tuple[int, int], int] = {}
    for lineno, fields in _rows(path, Path(path).read_text().splitlines(), _TRUTH_MAP_FIELDS):
        frame = _frame(fields[0], path, lineno)
        det_index = _parse_int(fields[1], path, lineno, "detection index")
        if det_index < 0:
            raise ValueError(f"{path}:{lineno}: detection indices start at 0, got {det_index}")
        leaf_id = _parse_int(fields[2], path, lineno, "leaf id")
        if leaf_id < 1:
            raise ValueError(f"{path}:{lineno}: leaf ids start at 1, got {leaf_id}")
        if (frame, det_index) in out:
            raise ValueError(f"{path}:{lineno}: duplicate (frame, det_index)")
        out[(frame, det_index)] = leaf_id
    return out


def write_truth_map(truth_map: Mapping[tuple[int, int], int], path) -> None:
    lines = [
        f"{frame},{det_index},{leaf_id}"
        for (frame, det_index), leaf_id in sorted(truth_map.items())
    ]
    _write_lines(path, lines)


# ---------------------------------------------------------------------------
# triplets: plant,leaf,t_a,t_p,neg_plant,neg_leaf,t_n
# ---------------------------------------------------------------------------

def read_triplets(path) -> list[TripletSpec]:
    rows = []
    for lineno, fields in _rows(path, Path(path).read_text().splitlines(), _TRIPLET_FIELDS):
        plant, leaf, t_a, t_p, neg_plant, neg_leaf, t_n = (
            _parse_int(token, path, lineno, "triplet field") for token in fields
        )
        try:
            rows.append(
                TripletSpec(
                    anchor=CropRef(plant, leaf, t_a),
                    positive=CropRef(plant, leaf, t_p),
                    negative=CropRef(neg_plant, neg_leaf, t_n),
                )
            )
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {err}") from None
    return rows


def write_triplets(triplets: Iterable[TripletSpec], path) -> None:
    lines = [
        f"{t.anchor.plant_id},{t.anchor.leaf_id},{t.anchor.t},{t.positive.t},"
        f"{t.negative.plant_id},{t.negative.leaf_id},{t.negative.t}"
        for t in triplets
    ]
    _write_lines(path, lines)


# ---------------------------------------------------------------------------
# key=value configs
# ---------------------------------------------------------------------------

def _read_kv(path) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in values:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value.strip()
    return values


def _cast(kind, raw: str, key: str, path):
    """raw converted by kind; a value that _strict rejects is malformed too.

    A tuple[tuple[...], ...] kind reads comma-separated entries of
    colon-joined pieces, each piece converted by its own type; an empty
    value is the empty tuple.
    """
    if get_origin(kind) is tuple:
        piece_kinds = get_args(get_args(kind)[0])
        entries = []
        for part in raw.split(",") if raw else ():
            pieces = part.split(":")
            if len(pieces) != len(piece_kinds):
                raise ValueError(f"{path}: malformed value for {key}: {part!r}")
            entries.append(tuple(_cast(k, p, key, path) for k, p in zip(piece_kinds, pieces)))
        return tuple(entries)
    try:
        if _strict(raw):
            return kind(raw)
    except ValueError:
        pass
    raise ValueError(f"{path}: malformed value for {key}: {raw!r}")


def _read_config(path, cls):
    """Read a key=value file into the dataclass cls, whose fields are the schema.

    The keys are the field names, the required keys are the fields with no
    default, and each value is converted by the field's annotated type.
    """
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kinds = get_type_hints(cls)
    kwargs = {}
    for key, raw in _read_kv(path).items():
        if key not in fields:
            raise ValueError(f"{path}: unknown config key: {key}")
        kwargs[key] = _cast(kinds[key], raw, key, path)
    for name, f in fields.items():
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        if required and name not in kwargs:
            raise ValueError(f"{path}: missing required key: {name}")
    try:
        return cls(**kwargs)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def read_tracker_params(path) -> TrackerParams:
    """Read tracker parameters; unknown keys are an error, missing keys default."""
    return _read_config(path, TrackerParams)


def read_scenario_config(path) -> ScenarioConfig:
    """Read a scenario config; n_frames and n_leaves are required."""
    return _read_config(path, ScenarioConfig)


# ---------------------------------------------------------------------------
# per-leaf accuracy heatmap CSV
# ---------------------------------------------------------------------------

def write_leaf_matrix_csv(matrix: LeafAccuracyMatrix, path) -> None:
    """One row per leaf, one column per frame; 1 correct, 0 failure, empty absent."""
    lines = ["leaf_id," + ",".join(str(frame) for frame in matrix.frames)]
    for i, leaf_id in enumerate(matrix.leaf_ids):
        cells = []
        for value in matrix.cells[i]:
            if value == CELL_ABSENT:
                cells.append("")
            elif value == CELL_CORRECT:
                cells.append("1")
            else:
                cells.append("0")
        lines.append(f"{leaf_id}," + ",".join(cells))
    _write_lines(path, lines)
