"""File formats: detections, ground truth, tracker results, truth maps,
triplet lists, key-value configs, and the per-leaf accuracy CSV.

Every format is line-oriented text except the detection embeddings, which
go to a binary `.npy` sidecar beside the detection file.  Floats are
written with shortest round-trip formatting, text files end with a
trailing newline, and line endings are always LF, so equal inputs produce
byte-identical files.  Every text file is read as UTF-8, whatever the
host's locale.  A bad line is named as `path:lineno: message`:
comma-separated rows get the prefix in the one row loop they share, the
detection header and the key=value reader's one loop add it themselves,
and the parse helpers say only what is wrong.
Detections, ground truth and results share the frame,id,x,y,w,h columns,
which one formatter writes; ground truth and results are read by one
reader into geometry.LeafBox rows, a result's track id as its leaf_id.
"""

from __future__ import annotations

import codecs
import dataclasses
import math
import re
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Mapping, get_args, get_origin, get_type_hints

import numpy as np

from .embedding import CropRef, TripletSpec
from .geometry import BBox, LeafBox
from .metrics import CELL_ABSENT, CELL_CORRECT, CELL_FAILURE, LeafAccuracyMatrix
from .simulator import ScenarioConfig
from .tracker import Detection, TrackerParams

_HEADER_RE = re.compile(r"#dim=([0-9]+)(?:;empty=([0-9]+(?:,[0-9]+)*))?")
_GT_FIELDS = ("frame", "leaf id", "x", "y", "w", "h")
_RESULT_FIELDS = ("frame", "track id", "x", "y", "w", "h", "confidence")
_TRUTH_MAP_FIELDS = ("frame", "detection index", "leaf id")
_TRIPLET_FIELDS = ("triplet field",) * 7
_CELL_TEXT = {CELL_CORRECT: "1", CELL_FAILURE: "0", CELL_ABSENT: ""}


def _fmt(value: float) -> str:
    return repr(float(value))


def _malformed(token: str, what: str) -> ValueError:
    return ValueError(f"malformed {what}: {token!r}")


def _parse_int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise _malformed(token, what) from None


def _parse_float(token: str, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise _malformed(token, what) from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite {what}: {token!r}")
    return value


def _strict(text: str) -> bool:
    """False if text holds what int() and float() forgive but frond never writes.

    That is a digit separator `_`, a space or tab, or any non-ASCII character
    (Unicode spaces and digits).  Lines come from splitlines(), so no other
    ASCII whitespace can occur.
    """
    return text.isascii() and "_" not in text and " " not in text and "\t" not in text


def _lines(path) -> list[str]:
    """The lines of the file at path, decoded as UTF-8 in one call; a bad byte names its line.

    One leading byte-order mark is dropped; a U+FEFF anywhere else stays in its line.
    """
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8").splitlines()
    except UnicodeDecodeError as err:
        # The lines before the bad byte, counted as splitlines() counts them, and its own.
        lineno = len((data[: err.start].decode("utf-8") + "?").splitlines())
        raise ValueError(f"{path}:{lineno}: not UTF-8 text") from None


def _rows(path, lines: list[str], names: tuple[str, ...], parse, first_lineno: int = 1) -> list:
    """parse(fields) for each comma-separated line, in order.

    A line must have one field per name, and no field may hold what
    _strict rejects; the first such field is reported as malformed.  The
    strict check runs once per line, not per field.  A ValueError from
    these checks or from parse is raised again as `path:lineno: message`.
    """
    out = []
    for lineno, line in enumerate(lines, start=first_lineno):
        fields = line.split(",")
        try:
            if len(fields) != len(names):
                raise ValueError(f"expected {len(names)} fields, got {len(fields)}")
            if not _strict(line):
                raise _malformed(*next((t, w) for t, w in zip(fields, names) if not _strict(t)))
            out.append(parse(fields))
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {err}") from None
    return out


def _frame(token: str) -> int:
    return _check_frame(_parse_int(token, "frame"))


def _check_frame(frame: int) -> int:
    """frame, unless it is below 1: the readers' rule, which each writer checks on its lowest frame."""
    if frame < 1:
        raise ValueError(f"frame indices start at 1, got {frame}")
    return frame


def _floats(tokens: list[str], names) -> list[float]:
    return [_parse_float(token, what) for token, what in zip(tokens, names)]


def _box_line(frame: int, row_id: int, box: BBox, tail: str = "") -> str:
    """The frame,id,x,y,w,h columns that detections, ground truth and results share."""
    return f"{frame},{row_id},{_fmt(box.u)},{_fmt(box.v)},{_fmt(box.w)},{_fmt(box.h)}{tail}"


def _read_boxes(path, names: tuple[str, ...]) -> list[LeafBox]:
    """Read frame,id,x,y,w,h[,...] lines into LeafBox(frame, id, box) rows.

    names[1] names the id column: ids start at 1 and (frame, id) must be
    unique.  Every float column is checked, extra ones too, before the box
    is built from the first four.
    """
    what = names[1]
    seen = set()

    def parse(fields):
        frame = _frame(fields[0])
        row_id = _parse_int(fields[1], what)
        if row_id < 1:
            raise ValueError(f"{what}s start at 1, got {row_id}")
        if (frame, row_id) in seen:
            raise ValueError(f"duplicate (frame, {what.replace(' ', '_')}) = ({frame}, {row_id})")
        seen.add((frame, row_id))
        return LeafBox(frame, row_id, BBox(*_floats(fields[2:], names[2:])[:4]))

    return _rows(path, _lines(path), names, parse)


def write_lines(path, lines: list[str]) -> None:
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n" if lines else "")


# ---------------------------------------------------------------------------
# detections: "#dim=D" or "#dim=D;empty=F1,F2,..." header, then
# frame,track_id,x,y,w,h,conf; the embeddings are one (rows, D) float64
# array in the .npy sidecar, row i belonging to data line i + 2
# ---------------------------------------------------------------------------

def _sidecar(path) -> Path:
    return Path(path).with_suffix(".npy")


def _shape_error(path, rows: int, dim: int, shape: tuple) -> ValueError:
    return ValueError(f"{_sidecar(path)}: expected embeddings of shape {(rows, dim)} for {path}, got {shape}")


def _read_embeddings(path, rows: int, dim: int) -> np.ndarray:
    """The sidecar of the detection file at path, checked to be an (n, dim) float64 array, n <= rows.

    A sidecar with fewer than rows rows is left to the caller, which
    reports it once every line of the detection file has been checked.
    """
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
    if embeddings.ndim != 2 or embeddings.shape[1] != dim or len(embeddings) > rows:
        raise _shape_error(path, rows, dim, embeddings.shape)
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
            A sidecar with too few rows is reported after every line.
    """
    lines = _lines(path)
    frames: dict[int, list[Detection]] = {}
    try:
        if not lines:
            raise ValueError("missing #dim header")
        header = _HEADER_RE.fullmatch(lines[0])
        if not header:
            raise ValueError(f"missing #dim header, got {lines[0]!r}")
        dim = int(header.group(1))
        if dim < 1:
            raise ValueError("embedding dimension must be at least 1")
        for token in header.group(2).split(",") if header.group(2) else ():
            frame = _frame(token)
            if frame <= next(reversed(frames), 0):
                raise ValueError("empty frames must be strictly ascending")
            frames[frame] = []
    except ValueError as err:
        raise ValueError(f"{path}:1: {err}") from None
    empty = set(frames)
    embeddings = _read_embeddings(path, len(lines) - 1, dim)
    # Lines past a short sidecar are checked against unit stand-in rows.
    embedding_rows = chain(embeddings, repeat(np.ones(dim)))
    last_frame = 1

    def parse(fields):
        nonlocal last_frame
        frame = _frame(fields[0])
        if frame < last_frame:
            raise ValueError("frames must be non-decreasing")
        if frame in empty:
            raise ValueError(f"frame {frame} is listed as empty in the header")
        last_frame = frame
        _parse_int(fields[1], "track id")
        x, y, w, h, conf = _floats(fields[2:], _RESULT_FIELDS[2:])
        return frame, Detection(BBox(x, y, w, h), conf, next(embedding_rows))

    rows = _rows(path, lines[1:], _RESULT_FIELDS, parse, first_lineno=2)
    if len(embeddings) < len(rows):
        raise _shape_error(path, len(rows), dim, embeddings.shape)
    for frame, detection in rows:
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
    order = sorted(frames)
    if order:
        _check_frame(order[0])
    empty = [str(frame) for frame in order if not frames[frame]]
    lines = [f"#dim={dim};empty={','.join(empty)}" if empty else f"#dim={dim}"]
    embeddings = []
    for frame in order:
        for det in frames[frame]:
            lines.append(_box_line(frame, -1, det.box, f",{_fmt(det.confidence)}"))
            embeddings.append(det.embedding)
    write_lines(path, lines)
    array = np.array(embeddings, dtype=np.float64).reshape(len(embeddings), dim)
    np.save(sidecar, array, allow_pickle=False)


# ---------------------------------------------------------------------------
# ground truth: frame,leaf_id,x,y,w,h
# ---------------------------------------------------------------------------

def read_gt(path) -> list[LeafBox]:
    """Read ground-truth annotations; leaf ids start at 1 and (frame, leaf_id) is unique."""
    return _read_boxes(path, _GT_FIELDS)


def write_gt(annotations: Iterable[LeafBox], path) -> None:
    rows = sorted(annotations, key=lambda r: (r.frame, r.leaf_id))
    if rows:
        _check_frame(rows[0].frame)
    write_lines(path, [_box_line(r.frame, r.leaf_id, r.box) for r in rows])


# ---------------------------------------------------------------------------
# results: frame,track_id,x,y,w,h,1.0  sorted by (frame, track_id)
# ---------------------------------------------------------------------------

def read_results(path) -> list[LeafBox]:
    """Read a tracker results file into evaluation rows, each track id as leaf_id.

    The seventh (confidence) column must be a finite float and is then
    ignored; `write_results` always writes it as `1.0`.
    """
    return _read_boxes(path, _RESULT_FIELDS)


def write_results(rows: Iterable[LeafBox], path) -> None:
    """Write evaluation rows, e.g. tracked_boxes(run_sequence(...)), as a results file."""
    rows = sorted(rows, key=lambda r: (r.frame, r.leaf_id))
    if rows:
        _check_frame(rows[0].frame)
    write_lines(path, [_box_line(r.frame, r.leaf_id, r.box, ",1.0") for r in rows])


# ---------------------------------------------------------------------------
# truth map: frame,det_index,leaf_id
# ---------------------------------------------------------------------------

def read_truth_map(path) -> dict[tuple[int, int], int]:
    """Read a (frame, det_index) -> leaf_id map; frames start at 1, as in every other format."""
    seen = set()

    def parse(fields):
        frame = _frame(fields[0])
        det_index = _parse_int(fields[1], "detection index")
        if det_index < 0:
            raise ValueError(f"detection indices start at 0, got {det_index}")
        leaf_id = _parse_int(fields[2], "leaf id")
        if leaf_id < 1:
            raise ValueError(f"leaf ids start at 1, got {leaf_id}")
        if (frame, det_index) in seen:
            raise ValueError("duplicate (frame, det_index)")
        seen.add((frame, det_index))
        return (frame, det_index), leaf_id

    return dict(_rows(path, _lines(path), _TRUTH_MAP_FIELDS, parse))


def write_truth_map(truth_map: Mapping[tuple[int, int], int], path) -> None:
    rows = sorted(truth_map.items())
    if rows:
        _check_frame(rows[0][0][0])
    write_lines(path, [f"{frame},{det_index},{leaf_id}" for (frame, det_index), leaf_id in rows])


# ---------------------------------------------------------------------------
# triplets: plant,leaf,t_a,t_p,neg_plant,neg_leaf,t_n
# ---------------------------------------------------------------------------

def read_triplets(path) -> list[TripletSpec]:
    def parse(fields):
        plant, leaf, t_a, t_p, neg_plant, neg_leaf, t_n = (
            _parse_int(token, "triplet field") for token in fields
        )
        return TripletSpec(
            anchor=CropRef(plant, leaf, t_a),
            positive=CropRef(plant, leaf, t_p),
            negative=CropRef(neg_plant, neg_leaf, t_n),
        )

    return _rows(path, _lines(path), _TRIPLET_FIELDS, parse)


def write_triplets(triplets: Iterable[TripletSpec], path) -> None:
    lines = [
        f"{t.anchor.plant_id},{t.anchor.leaf_id},{t.anchor.t},{t.positive.t},"
        f"{t.negative.plant_id},{t.negative.leaf_id},{t.negative.t}"
        for t in triplets
    ]
    write_lines(path, lines)


# ---------------------------------------------------------------------------
# key=value configs
# ---------------------------------------------------------------------------

def read_value(kind, raw: str):
    """raw, a config value or a sweep-axis value, converted by kind; ValueError on what _strict rejects."""
    if not _strict(raw):
        raise ValueError(f"malformed value: {raw!r}")
    return kind(raw)


def _cast(kind, raw: str, key: str):
    """raw converted by read_value, or by each piece's kind for a tuple kind.

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
                raise ValueError(f"malformed value for {key}: {part!r}")
            entries.append(tuple(_cast(k, p, key) for k, p in zip(piece_kinds, pieces)))
        return tuple(entries)
    try:
        return read_value(kind, raw)
    except ValueError:
        raise ValueError(f"malformed value for {key}: {raw!r}") from None


def _read_config(path, cls):
    """Read a key=value file into the dataclass cls, whose fields are the schema.

    The keys are the field names, the required keys are the fields with no
    default, and each value is converted by the field's annotated type.
    Each line is checked and converted where it is read, so the first bad
    line is the one reported, as `path:lineno: message`; a missing required
    key and a value cls refuses concern the whole file, as `path: message`.
    """
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kinds = get_type_hints(cls)
    kwargs = {}
    for lineno, raw in enumerate(_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        try:
            if not eq:
                raise ValueError(f"expected key=value, got {raw!r}")
            if key in kwargs:
                raise ValueError(f"duplicate key {key!r}")
            if key not in fields:
                raise ValueError(f"unknown config key: {key}")
            kwargs[key] = _cast(kinds[key], value, key)
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {err}") from None
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
    for leaf_id, row in zip(matrix.leaf_ids, matrix.cells.tolist()):
        lines.append(f"{leaf_id}," + ",".join(_CELL_TEXT[value] for value in row))
    write_lines(path, lines)
