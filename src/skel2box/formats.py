"""Annotation file formats: JTA-style skeleton dumps, COCO JSON, MOT CSV.

All emitters are deterministic: records are written in canonical order
(video, frame, pedestrian / descending score) with shortest round-trip
number formatting, so identical inputs produce byte-identical files.

The emitted COCO documents are standard COCO detection ground truth plus
two extension keys per annotation, ``pedestrian_id`` and ``distance_m``,
which COCO tooling ignores but which let this package round-trip identity
and distance information. ``distance_m`` is omitted when unknown; parsing
a document without it yields an infinite distance, which the distance
operations of :mod:`skel2box.sanitize` refuse rather than bin or prune.
"""

from __future__ import annotations

import json
import math
import os
import re
import signal
import sys
from contextlib import suppress
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, cycle, repeat
from operator import attrgetter, itemgetter, mod, mul
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence, TextIO

from . import DEFAULT_JOINTS_PER_SKELETON
from .errors import IncompleteSkeleton, InvalidArgument, JoinError, MixedVideos, ParseError
from .geometry import AnnotatedBox, BBox, SkeletonInstance, check_distance, sort_key

PEDESTRIAN_CATEGORY_ID = 1

# One JTA record: [frame, pedestrian, joint, x2d, y2d, x3d, y3d, z3d, occluded, self_occluded]
_JTA_ARITY = 10
_JTA_NAMES = ("frame", "pedestrian_id", "joint_id", *(f"field {i}" for i in range(3, 8)),
              "occluded", "self_occluded")  # Each field's name in its errors.

# Characters per block when parse_jta streams a dump, or parse_detections coco_results.
_JTA_BLOCK = 1 << 19
# The smallest dump whose pieces go to worker processes: below it, starting
# them costs about what they save (see README, Joint dumps).
_JTA_POOL_FROM = 3 << 20
# What follows a record's closing ``]`` or ``}`` in an array: JSON whitespace,
# then the comma before the next record.
_RECORD_SPACE = re.compile(r"[ \t\n\r]*,")

# Confidence clamping slack: values this far outside [0, 1] are treated as
# float noise, anything worse is an error.
_SCORE_SLACK = 1e-9

_FLOAT_MAX = sys.float_info.max

# The most frames a frame table may hold over all its videos; JTA has 460,800.
MAX_FRAMES = 1_000_000


@dataclass(frozen=True, slots=True)
class Detection:
    """One detector proposal: box plus confidence score in [0, 1]."""

    video_id: str
    frame_id: int
    box: BBox
    score: float


@dataclass(frozen=True)
class DatasetManifest:
    """Provenance record emitted alongside ground truth.

    Raises:
        InvalidArgument: a value that :func:`parse_coco_gt` refuses in ``info``,
            worded as there but unlocated. ``videos`` is kept as it reads back.
        ParseError: the videos hold more than ``MAX_FRAMES`` frames in all.
    """

    dataset_id: str
    image_w: float
    image_h: float
    videos: tuple[tuple[str, int], ...]
    alpha_used: Optional[float] = None
    distance_limit_m: Optional[float] = None

    def __post_init__(self) -> None:
        at = _Argument()
        _image_size(self.image_w, "image_w", at)
        _image_size(self.image_h, "image_h", at)
        object.__setattr__(self, "videos", _video_table(self.videos, at))
        for what in ("alpha_used", "distance_limit_m"):
            if getattr(self, what) is not None:
                _require_finite(getattr(self, what), what, at)
        _require_str(self.dataset_id, "dataset_id", at)


@dataclass(frozen=True, slots=True)
class FrameRef:
    """One COCO image entry resolved to (video, frame)."""

    image_id: int
    video_id: str
    frame_id: int


@dataclass(frozen=True)
class CocoGroundTruth:
    """Parsed COCO ground truth: annotations, manifest, the frame table, and the
    count of annotations dropped for their category."""

    annotations: tuple[AnnotatedBox, ...]
    manifest: DatasetManifest
    images: tuple[FrameRef, ...]
    skipped_count: int = 0

    def frame_by_image_id(self) -> dict[int, tuple[str, int]]:
        return {ref.image_id: (ref.video_id, ref.frame_id) for ref in self.images}

    def image_id_by_frame(self) -> dict[tuple[str, int], int]:
        return {(ref.video_id, ref.frame_id): ref.image_id for ref in self.images}


def _detection_order(det: Detection) -> tuple[str, int, float]:
    return (det.video_id, det.frame_id, -det.score)


def json_number(value: float) -> Any:
    """Integral floats emit as JSON ints so re-emission is byte-stable."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def _numbers(*values: float) -> str:
    """Finite ``values`` as JSON numbers, comma-separated, as json.dumps writes each json_number."""
    return ",".join(map(repr, map(json_number, values)))


def load_json(source: str, *, strict: bool = True) -> Any:
    """The value of a JSON document; the package's one JSON reader. Unless
    ``strict``, a document that does not parse gives None."""
    try:
        return json.loads(source)
    # JSONDecodeError, an integer over the digit limit, or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        if not strict:
            return None
        if type(exc) is ValueError:  # The digit limit, worded differently by each interpreter
            problem = f"an integer has more than {sys.get_int_max_str_digits()} digits"
        elif isinstance(exc, RecursionError):  # Likewise, and apart for arrays and objects
            problem = "maximum recursion depth exceeded by nested arrays or objects"
        else:
            problem = str(exc)
        raise ParseError(f"malformed JSON: {problem}") from exc


def _require_finite(value: Any, what: str, location: str) -> float:
    return _floats([value], what, location)[0]


def _require_str(value: Any, what: str, location: str) -> str:
    if not isinstance(value, str):
        _refuse(location, ParseError, f"{what} must be a string, got {value!r}")
    return value


def csv_rows(source: str, fewest: int, most: int, header: Sequence[str] = ()) -> tuple[list, list]:
    """The line numbers and values of each line of ``source`` that is not blank:
    ``fewest`` to ``most`` comma-separated numbers, none quoted, all read before
    a reader checks one. Lines split as :meth:`str.splitlines` splits and are
    located as ``line N``, 1-based. A given ``header`` must be the first line.
    """
    arity = str(fewest) if fewest == most else f"{fewest}-{most}"
    lines = enumerate(source.splitlines(), start=1)
    if header:
        expected = ",".join(header)
        _, first = next(lines, (1, None))
        if first is None:
            raise ParseError(f"empty file, expected header {expected}")
        if tuple(field.strip() for field in first.split(",")) != tuple(header):
            raise ParseError(f"bad header {first!r}, expected {expected}", location="line 1")
    numbers, rows = [], []
    for line_no, line in lines:
        if not (line := line.strip()):
            continue
        fields = line.split(",")
        if not fewest <= len(fields) <= most:
            raise ParseError(f"expected {arity} fields, got {len(fields)}", f"line {line_no}")
        try:
            rows.append([*map(float, fields)])
        except ValueError as exc:
            raise ParseError(f"non-numeric field: {exc}", location=f"line {line_no}") from exc
        numbers.append(line_no)
    return numbers, rows


def csv_row(*values: float) -> str:
    """One CSV line of finite ``values``, each spelled as the JSON writers spell
    it (integral values without a decimal point); the package's one CSV writer."""
    return _numbers(*values) + "\n"


# One function per kind of value checks a column of them, and one rule per kind
# of record checks a list of them: each gives what it checked, or refuses it
# through _refuse, which gives None, or given ``at``, raises the located error.

class _Argument(str):
    """The place of a value that the caller passed in, not one read from a file:
    a rule refuses it as InvalidArgument; ``_Argument()`` locates nothing."""


def _refuse(at: Optional[str], error: type, message: str) -> None:
    """None, the verdict of a rule that refuses a column; given ``at``, the one
    record refused, raises ``error(message)`` located there instead, or
    InvalidArgument if ``at`` is an :class:`_Argument`."""
    if type(at) is _Argument:
        raise InvalidArgument(message, location=str(at) or None)
    if at:
        raise error(message, location=at)


def _ints(column: Sequence, what: str, at: Optional[str] = None) -> Optional[Sequence]:
    """``column`` as ints: integers, booleans and integral floats."""
    kinds = {*map(type, column)}  # v % 1 is 0 for an integral v, NaN for one not finite.
    if kinds - {int, float, bool} or kinds != {int} and any(map(mod, column, repeat(1))):
        return _refuse(at, ParseError, f"{what} must be an integer, got {column[0]!r}")
    return column if kinds == {int} else [*map(int, column)]


def _floats(column: Sequence, what: str, at: Optional[str] = None) -> Optional[Sequence]:
    """``column`` as floats: ints and floats within float range, not NaN."""
    kinds = {*map(type, column)}
    finite = kinds == {float} and math.isfinite(sum(column))  # Else each value is checked.
    if kinds - {int, float} or not finite and not all(map(_FLOAT_MAX.__ge__, map(abs, column))):
        return _refuse(at, ParseError, f"{what} must be a finite number, got {column[0]!r}")
    return [*map(float, column)] if int in kinds else column


def _frames(column: Sequence, at: Optional[str] = None) -> Optional[Sequence]:
    """``column`` as frame numbers: integers of at least 1."""
    if (frames := _ints(column, "frame", at)) is not None and min(frames) < 1:
        message = f"frame must be at least 1 (frames are 1-based), got {frames[0]}"
        return _refuse(at, ParseError, message)
    return frames


def _box_fields(*columns: Sequence, at: Optional[str] = None) -> Optional[list]:
    """The ``x``, ``y``, ``w`` and ``h`` columns of boxes as floats: finite numbers, ``w``
    and ``h`` positive, and ``w * h`` within float range, as the area that the emitters write."""
    _, _, ws, hs = columns = [_floats(values, "box field", at) for values in columns]
    if None in columns:
        return None
    if min(ws) <= 0 or min(hs) <= 0:
        problem = "width and height must be positive"
    elif max(map(mul, ws, hs)) > _FLOAT_MAX:
        problem = "width times height must be finite"
    else:
        return columns
    return _refuse(at, ParseError, f"box {problem}, got {ws[0]!r} and {hs[0]!r}")


def _boxes(column: Sequence, at: Optional[str] = None) -> Optional[list]:
    """The BBox of each array ``[x, y, w, h]`` whose fields pass :func:`_box_fields`."""
    if {*map(type, column)} - {list} or {*map(len, column)} - {4}:
        return _refuse(at, ParseError, f"bbox must be [x, y, w, h], got {column[0]!r}")
    columns = _box_fields(*zip(*column), at=at)
    return None if columns is None else [*map(BBox, *columns)]


def _scores(column: Sequence, at: Optional[str] = None) -> Optional[Sequence]:
    """``column`` as scores: finite and in [0, 1], or within ``_SCORE_SLACK`` of it and clamped."""
    if (scores := _floats(column, "score", at)) is None:
        return None
    low, high = min(scores), max(scores)
    if low < -_SCORE_SLACK or high > 1.0 + _SCORE_SLACK:
        return _refuse(at, ParseError, f"score {scores[0]!r} outside [0, 1]")
    if low < 0 or high > 1:
        scores = [*map(min, map(max, scores, repeat(0.0)), repeat(1.0))]
    return scores


def _checked(rule: Callable, records: list, locate: Callable, *args: Any) -> Any:
    """What ``rule`` gives of ``records``; if it refuses them, the error of the first refused, at
    ``locate(N)`` for record N, found by runs of 1,000 records, then each of the first refused."""
    if (checked := rule(records, *args)) is not None:
        return checked
    for start in range(0, len(records), 1000):
        if rule(run := records[start : start + 1000], *args) is None:
            for idx, record in enumerate(run, start):
                rule([record], *args, at=locate(idx))
    raise AssertionError(f"{rule.__name__} refuses none of the records")


def _written(records: list, checks: tuple, at: Optional[str] = None) -> Optional[list]:
    """The rows that a writer writes of ``records``, as its reader reads them back: each
    ``(check, *names)`` of ``checks``, in the reader's order, passes the columns of the
    named attributes through the reader's value function; None if one refuses them, or
    given ``at``, raises."""
    if not records:
        return []
    columns: list = []
    for check, *names in checks:
        checked = check(*([*map(attrgetter(name), records)] for name in names), at=at)
        if checked is None:
            return None
        columns += checked if len(names) > 1 else [checked]
    return [*zip(*columns)]


def _writable(records: list, checks: tuple) -> list:
    """The rows of :func:`_written`, or InvalidArgument for the first of ``records`` that
    it refuses, located at ``annotation (v, f, p)`` or ``detection (v, f)``."""
    key = _ANNOTATION if records and isinstance(records[0], AnnotatedBox) else _DETECTION
    return _checked(_written, records, lambda i: _Argument(key.format(records[i])), checks)


# How the writers' errors name a record.
_ANNOTATION = "annotation ({0.video_id}, {0.frame_id}, {0.pedestrian_id})"
_DETECTION = "detection ({0.video_id}, {0.frame_id})"

# What each writer writes: (its reader's value function, *attributes), in the reader's order.
_BOX = (_box_fields, "box.x", "box.y", "box.w", "box.h")
_COCO_WRITES = (_BOX, (partial(_ints, what="pedestrian_id"), "pedestrian_id"))
_MOT_WRITES = ((_frames, "frame_id"), (partial(_ints, what="id"), "pedestrian_id"), _BOX)
_DETECTION_WRITES = (_BOX, (_scores, "score"))


def _image_size(value: Any, what: str, location: str) -> float:
    """An image width or height: finite and at least 0, where 0 means unknown."""
    size = _require_finite(value, what, location)
    if size < 0:
        _refuse(location, ParseError, f"{what} must be at least 0, got {size!r}")
    return size


# ---------------------------------------------------------------------------
# JTA skeleton dumps
# ---------------------------------------------------------------------------

def _jta_rows(records: list, at: Optional[str] = None) -> Optional[list]:
    """``records``, ids and flags as ints and coordinates as floats, or None if one breaks
    the JTA record rule, checked by column in field order; given ``at``, raises instead."""
    if {*map(type, records)} - {list} or {*map(len, records)} - {_JTA_ARITY}:
        message = f"expected an array of {_JTA_ARITY} fields, got {records[0]!r}"
        return _refuse(at, ParseError, message)
    columns = [*zip(*records)]
    for i, column in enumerate(columns):
        # A frame is at least 1, a coordinate is a float, and an id or flag is an int.
        check = partial(_floats if 3 <= i < 8 else _ints, what=_JTA_NAMES[i]) if i else _frames
        if (column := check(column, at=at)) is None:
            return None
        columns[i] = column
        # Pedestrian and joint ids start at 0, and flags are 0 or 1, once both are integers.
        if i == 2 and min(min(columns[1]), min(column)) < 0:
            return _refuse(at, ParseError, "pedestrian and joint ids must be non-negative")
        if i == 9 and any(min(flags) < 0 or max(flags) > 1 for flags in columns[8:]):
            return _refuse(at, ParseError, "occlusion flags must be 0 or 1")
    # A respelled column is a list, and one left as it was a tuple.
    return [*zip(*columns)] if list in map(type, columns) else records


def _jta_columns(rows: list, joint_ids: tuple) -> Optional[tuple]:
    """A group of records' five coordinate columns, each an ``array('d')`` in joint-id
    order, if it holds ``joint_ids``: 8 bytes a value, and as many to pickle."""
    from array import array

    rows.sort(key=itemgetter(2))
    _, _, ids, *columns, _, _ = zip(*rows)
    return tuple(array("d", column) for column in columns) if ids == joint_ids else None


def _jta_pieces(blocks: Iterable[str], close: str = "]") -> Iterator[str]:
    """The text of each piece of the array that ``blocks`` spell: what was read
    up to the last separator of records (a record's ``close``, JSON whitespace and
    a comma) wholly inside the newest block, bracketed, as a JSON array of its
    records. The last piece is "" if it holds no record, so that ``[...,]`` does not parse."""
    head, tail = "", ""
    for block in blocks:
        start = len(tail)
        tail += block
        at = len(tail)
        while (at := tail.rfind(close, start, at)) >= 0:
            if after := _RECORD_SPACE.match(tail, at + 1):
                after = after.end()  # A Match would keep the text before the cut alive.
                piece, head, tail = head + tail[: at + 1] + "]", "[", tail[after:]
                yield piece
                break
    # Compiled here, on the JTA path only: at import it cost other readers 0.1 MB of peak RSS.
    yield "" if re.fullmatch(r"[ \t\n\r]*\][ \t\n\r]*", tail) else head + tail


def _blocks(source: str | TextIO) -> Iterator[str]:
    """The text of ``source``, a string or a seekable text stream, in ``_JTA_BLOCK`` blocks."""
    if isinstance(source, str):
        return (source[i : i + _JTA_BLOCK] for i in range(0, len(source), _JTA_BLOCK))
    source.seek(0)
    return iter(partial(source.read, _JTA_BLOCK), "")


def _whole_array(source: str | TextIO, what: str, rule: Callable, *args: Any) -> Any:
    """What ``rule`` gives of the records, each at ``record N``, of the JSON array in ``source``
    read whole, so that a stream's UnicodeDecodeError has its offset in the file as ``start``."""
    if not isinstance(source, str):
        source.seek(0)
        source = source.read()
    if not isinstance(records := load_json(source), list):
        raise ParseError(f"expected a top-level JSON array of {what} records")
    return _checked(rule, records, "record {}".format, *args)


def _jta_groups(records: list, joint_ids: tuple) -> Optional[tuple]:
    """``(keys, whole, rest)`` of parsed records grouped by (frame, pedestrian): the keys
    of the complete groups in order, their five columns laid end to end as five arrays,
    and ``(key, records)`` of every other group; None if they break the rule."""
    from array import array

    if (records := _jta_rows(records)) is None:
        return None
    groups: dict[tuple[int, int], list] = {}
    for rec in records:
        groups.setdefault((rec[0], rec[1]), []).append(rec)
    keys, whole, rest = [], [array("d") for _ in range(5)], []
    for key, rows in groups.items():
        if len(rows) == len(joint_ids) and (columns := _jta_columns(rows, joint_ids)):
            keys.append(key)
            for piece_column, column in zip(whole, columns):
                piece_column += column
        else:
            rest.append((key, rows))
    return keys, whole, rest


def _jta_workers(size: int) -> int:
    """Processes to parse a dump of ``size`` characters (bytes, for a stream) on; 1 is this one."""
    import threading

    if size < _JTA_POOL_FROM or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cores or 1, math.ceil(size / _JTA_BLOCK))


def _serve(function: Callable[[str], Any], conn: Any) -> None:
    """A worker: sends back ``function`` of each piece; Ctrl-C is for its parent."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    with suppress(EOFError):
        while True:
            conn.send(function(conn.recv()))


def _receive(worker: tuple) -> Any:
    """What a ``(process, pipe)`` worker sends next; ChildProcessError if it ends first."""
    proc, conn = worker
    with suppress(EOFError):
        return conn.recv()
    proc.join()
    raise ChildProcessError(f"a process parsing the dump ended with exit code {proc.exitcode}")


def _map_pieces(function: Callable[[str], Any], pieces: Iterator[str], workers: int) -> Iterator:
    """``function`` of each of ``pieces``, in order, here or on ``workers`` forked
    processes, one piece each at a time: with two, a worker sending a result and
    this process sending it a piece could wait for each other forever."""
    if workers == 1:
        yield from map(function, pieces)
        return
    import multiprocessing

    context, ring, busy = multiprocessing.get_context("fork"), [], []
    try:
        for _ in range(workers):
            conn, child = context.Pipe()
            ring.append((context.Process(target=_serve, args=(function, child), daemon=True), conn))
            ring[-1][0].start()
            child.close()  # Then the worker holds its end alone, and its death ends the pipe.
        for piece, worker in zip(pieces, cycle(ring)):
            if len(busy) == workers:
                yield _receive(busy.pop(0))
            with suppress(BrokenPipeError):  # _receive reports the dead worker.
                worker[1].send(piece)
            busy.append(worker)
        while busy:
            yield _receive(busy.pop(0))
    finally:
        # Each worker has pipes of its own, so killing one leaves no lock held.
        for proc, _ in ring:
            proc.kill()
            proc.join()


def _stream_jta(
    blocks: Iterable[str], video_id: str, joint_ids: tuple, workers: int
) -> Optional[list]:
    """The skeletons of a dump read block by block, its pieces' groups joined. A bad
    group is counted and read past, so that a later piece's error comes first; the
    least bad key then raises. None for a piece's error, which the whole read words."""
    joints = len(joint_ids)
    split: dict[tuple[int, int], list] = {}
    done: dict[tuple[int, int], SkeletonInstance] = {}
    count: dict[tuple[int, int], int] = {}  # Each key's rows over the whole dump

    def parse(piece: str) -> Optional[tuple]:
        records = load_json(piece, strict=False)  # None, too, if the piece is not JSON
        return _jta_groups(records, joint_ids) if type(records) is list else None

    results = _map_pieces(parse, _jta_pieces(blocks), workers)
    try:
        for groups in results:
            if groups is None:
                return None
            keys, whole, rest = groups  # Each complete group's columns, cut at their size
            cut = ([c[i * joints : (i + 1) * joints] for i in range(len(keys))] for c in whole)
            for key, group in chain(zip(keys, zip(*cut)), rest):
                n = count[key] = count.get(key, 0) + (len(group) if type(group) is list else joints)
                if type(group) is list and n <= joints:
                    split.setdefault(key, []).extend(group)
                    group = n == joints and _jta_columns(split.pop(key), joint_ids)
                if n == joints and group:
                    done[key] = SkeletonInstance(video_id, *key, *group)
    except UnicodeDecodeError:
        return None
    finally:
        results.close()
    # A key is bad if it has too few rows or too many, or as many but not each joint id once.
    if bad := [key for key, n in count.items() if n != joints or key not in done]:
        key = min(bad)
        problem = f"expected {joints} joints, got {count[key]}"
        if count[key] == joints:
            problem = f"joint ids do not cover 0..{joints - 1}"
        raise IncompleteSkeleton(problem, frame_id=key[0], pedestrian_id=key[1])
    return [done[key] for key in sorted(done)]


def parse_jta(
    source: str | TextIO,
    video_id: str,
    joints_per_skeleton: int = DEFAULT_JOINTS_PER_SKELETON,
) -> list[SkeletonInstance]:
    """Parse a JTA-style dump: a JSON array of per-joint records.

    Each record is ``[frame, pedestrian, joint, x2d, y2d, x3d, y3d, z3d,
    occluded, self_occluded]``. Frames are 1-based, as in the manifests;
    pedestrian and joint ids start at 0.

    Records are grouped by (frame, pedestrian) into skeletons, whose joint
    columns are in joint-id order; output is sorted by (frame, pedestrian),
    so record order in the file does not matter. The occlusion flags are
    checked but not kept.

    ``source`` is the text of the dump or a seekable text stream of it. It
    is read in blocks, cut after each block's last record that a comma
    follows within it and parsed piece by piece, by a forked worker per
    usable core if the dump is large, so the whole record array never
    exists (README, Joint dumps). Each piece's records pass one rule,
    :func:`_jta_rows`, and the stream words group errors. It refuses only a
    dump that is not JSON, not an array, or holds a bad record, and a refused
    piece's records are the whole array's, so the whole read then always raises.

    Raises:
        ParseError: malformed JSON, wrong record arity, or bad field values,
            located as ``record N`` (0-based index in the array).
        IncompleteSkeleton: a pedestrian's records do not cover exactly the
            joint ids 0..joints_per_skeleton-1.
        UnicodeDecodeError: a stream that is not UTF-8 text, raised by the
            whole read, so its ``start`` is the offset in the file.
    """
    joint_ids = tuple(range(joints_per_skeleton))
    size = len(source) if isinstance(source, str) else source.seek(0, os.SEEK_END)
    skeletons = _stream_jta(_blocks(source), video_id, joint_ids, _jta_workers(size))
    if skeletons is not None:
        return skeletons

    # The stream refused the dump: read it whole to word its first error.
    _whole_array(source, "joint", _jta_rows)
    raise AssertionError("_jta_rows refuses none of the records")


# ---------------------------------------------------------------------------
# COCO ground truth
# ---------------------------------------------------------------------------

def coco_file_name(video_id: str, frame_id: int) -> str:
    return f"{video_id}/{frame_id:06d}.jpg"


def emit_coco(annotations: Sequence[AnnotatedBox], manifest: DatasetManifest) -> str:
    """Serialize annotations as a COCO detection ground-truth document.

    Images cover every frame of every video in the manifest (frames are
    1-based); image and annotation ids are assigned sequentially from 1 in
    (video, frame[, pedestrian]) order, so the output is deterministic.

    Raises:
        JoinError: an annotation's video/frame is not in the manifest.
        InvalidArgument: a known (not infinite) distance not a finite number, as
            :func:`parse_coco_gt` words it, or not positive, both unlocated; else,
            at the first annotation ``(v, f, p)`` in written order with one, a
            box field that is not finite, a width or height that is not
            positive, an area beyond float range or an id not an integer.
    """
    spans, first = {}, 1  # Each video's first image id and frame count, by name
    for video_id, count in sorted(manifest.videos):
        spans[video_id], first = (first, count), first + count
    ordered = sorted(annotations, key=sort_key)
    image_ids = []
    for ann in ordered:
        first, count = spans.get(ann.video_id, (0, 0))
        # Found as a dict key would be: the hash of the frame is in 1..count and equal to it.
        if (frame := hash(ann.frame_id)) not in range(1, count + 1) or frame != ann.frame_id:
            raise JoinError(f"{_ANNOTATION.format(ann)} is outside the manifest")
        image_ids.append(first + frame - 1)
    known = [ann.distance_m for ann in ordered if ann.distance_m != math.inf]
    for distance in _checked(_floats, known, lambda _: _Argument(), "distance_m"):
        check_distance(distance)
    rows = _writable(ordered, _COCO_WRITES)
    # Each value written has passed its reader's rule, so the text is strict JSON.
    size = f'"width":{_numbers(manifest.image_w)},"height":{_numbers(manifest.image_h)}'
    # JSON escapes per character and the name rule adds none to escape, so ids are escaped once.
    images = (
        f'{{"id":{first + frame - 1},{size},"file_name":"{coco_file_name(escaped, frame)}"}}'
        for name, (first, count) in spans.items() for escaped in [json.dumps(name)[1:-1]]
        for frame in range(1, count + 1)
    )
    records = (
        f'{{"id":{n},"image_id":{image_id},"category_id":{PEDESTRIAN_CATEGORY_ID},'
        f'"bbox":[{_numbers(x, y, w, h)}],"area":{_numbers(w * h)},"iscrowd":0,'
        f'"pedestrian_id":{pid}'
        + ("}" if ann.distance_m == math.inf else f',"distance_m":{_numbers(ann.distance_m)}}}')
        for n, (ann, image_id, (x, y, w, h, pid)) in enumerate(zip(ordered, image_ids, rows), 1)
    )
    info = {"dataset_id": manifest.dataset_id, "image_w": json_number(manifest.image_w),
            "image_h": json_number(manifest.image_h), "videos": manifest.videos,
            **{what: json_number(value) for what in ("alpha_used", "distance_limit_m")
               if (value := getattr(manifest, what)) is not None}}
    return (f'{{"info":{json.dumps(info, separators=(",", ":"), allow_nan=False)},'
            f'"images":[{",".join(images)}],"annotations":[{",".join(records)}],'
            f'"categories":[{{"id":{PEDESTRIAN_CATEGORY_ID},"name":"pedestrian"}}]}}')


def _parse_file_name(file_name: Any, location: str) -> tuple[str, int]:
    head, _, tail = _require_str(file_name, "file_name", location).rpartition("/")
    stem = tail.rsplit(".", 1)[0]
    # isdigit() would also pass digits such as "²" that int() rejects.
    if not stem.removeprefix("-").isdecimal():
        raise ParseError(
            f"cannot extract a frame number from file_name {file_name!r}", location=location
        )
    return head, _frames([int(stem)], location)[0]


def _info_value(info: dict, key: str, default: Any, check: Callable[..., Any]) -> Any:
    """``info[key]`` passed through ``check``, or ``default`` when it is absent or null."""
    value = info.get(key)
    if value is None:
        return default
    return check(value, key, f"info.{key}")


def _video_table(videos: Any, location: str) -> tuple[tuple[str, int], ...]:
    """A table of videos: an array of ``[name, frame count]`` pairs, each name a
    string given once and each count an integer of at least 1, and at most
    ``MAX_FRAMES`` frames in all (else a ParseError without a location)."""
    if not isinstance(videos, (list, tuple)):
        message = f"expected an array of [video, frame count] pairs, got {videos!r}"
        _refuse(location, ParseError, message)
    counts: dict[str, int] = {}
    total = 0
    for idx, entry in enumerate(videos):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            message = f"entry {idx} must be [video, frame count], got {entry!r}"
            _refuse(location, ParseError, message)
        name, count = entry[0], _ints([entry[1]], f"entry {idx} frame count", location)[0]
        if not isinstance(name, str) or count < 1:
            message = f"entry {idx} must be [name, frame count >= 1], got {[name, count]!r}"
            _refuse(location, ParseError, message)
        if name in counts:
            _refuse(location, ParseError, f"entry {idx} repeats video {name!r}")
        counts[name] = count
        if (total := total + count) > MAX_FRAMES:
            raise ParseError(f"video {name!r} puts the frame table over {MAX_FRAMES} frames")
    return tuple(counts.items())


def _manifest_videos(videos: Any, images: Sequence[FrameRef]) -> tuple[tuple[str, int], ...]:
    """The ``info.videos`` table (:func:`_video_table`), which claims one image per
    frame: every image lies in a claimed frame, no two images share one, and the
    counts add up to the number of images."""
    loc = "info.videos"
    counts = dict(_video_table(videos, loc))
    seen: set[tuple[str, int]] = set()
    for idx, ref in enumerate(images):
        key = (ref.video_id, ref.frame_id)
        if key in seen or ref.frame_id > counts.get(ref.video_id, 0):
            where = "the frame of an earlier image" if key in seen else "outside info.videos"
            raise ParseError(f"{ref.video_id}/{ref.frame_id} is {where}", location=f"image {idx}")
        seen.add(key)
    total = sum(counts.values())
    if total != len(images):
        raise ParseError(
            f"claims {total} frames, but the document holds {len(images)} images", location=loc
        )
    return tuple(counts.items())


def _pedestrians(
    categories: Sequence, what: str, at: Optional[str], *columns: Sequence
) -> Optional[Sequence]:
    """``columns`` cut to the records whose category in ``categories`` is the pedestrian
    one, or None if a category is not an integer. Other categories go unchecked."""
    if (categories := _ints(categories, what, at)) is None:
        return None
    if {*categories} != {PEDESTRIAN_CATEGORY_ID}:
        keep = [*map(PEDESTRIAN_CATEGORY_ID.__eq__, categories)]
        return [[*compress(column, keep)] for column in columns]
    return columns


def _coco_records(records: list, frame_of: Mapping[int, tuple[str, int]], what: str,
                  at: Optional[str], *columns: Sequence) -> Optional[Sequence]:
    """``records``, their image ids and ``columns`` cut to the pedestrians, or None if one fails
    the first checks of both COCO record rules: an object, an integer ``image_id`` that
    ``frame_of`` holds (else a JoinError naming ``what``), and ``category_id``, 1 if absent."""
    if {*map(type, records)} - {dict}:
        return _refuse(at, ParseError, f"expected an object, got {records[0]!r}")
    image_ids = _ints([*map(dict.get, records, repeat("image_id"))], "image_id", at)
    if image_ids is None:
        return None
    if not frame_of.keys() >= {*image_ids}:
        return _refuse(at, JoinError, f"{what} references unknown image id {image_ids[0]}")
    categories = [*map(dict.get, records, repeat("category_id"), repeat(PEDESTRIAN_CATEGORY_ID))]
    return _pedestrians(categories, "category_id", at, records, image_ids, *columns)


def _coco_annotations(
    anns: list, frame_of: Mapping[int, tuple[str, int]], at: Optional[str] = None
) -> Optional[list]:
    """``anns`` as AnnotatedBoxes, or None if one breaks the COCO annotation rule,
    checked by column in field order; given ``at``, raises instead."""
    # Each annotation's 1-based index in the document goes along, as its fallback pedestrian id.
    if (kept := _coco_records(anns, frame_of, "annotation", at, range(1, len(anns) + 1))) is None:
        return None
    anns, image_ids, numbers = kept
    if not anns:
        return []
    if (boxes := _boxes([*map(dict.get, anns, repeat("bbox"))], at)) is None:
        return None
    pedestrian_ids = [*map(dict.get, anns, repeat("pedestrian_id"))]
    if None in pedestrian_ids:  # Absent, it is the annotation id, else the 1-based index.
        pedestrian_ids = [a.get("pedestrian_id", a.get("id", i)) for i, a in zip(numbers, anns)]
    if (ids := _ints(pedestrian_ids, "pedestrian_id", at)) is None:
        return None
    distances = _floats([a["distance_m"] for a in anns if "distance_m" in a], "distance_m", at)
    if distances is None or distances and min(distances) <= 0:
        if at:
            check_distance(distances[0], at)
        return None
    if len(distances) < len(anns):  # An absent distance is unknown: infinite.
        distances = [*map(float, map(dict.get, anns, repeat("distance_m"), repeat(math.inf)))]
    videos, frames = zip(*map(frame_of.__getitem__, image_ids))
    return [*map(AnnotatedBox, videos, frames, ids, boxes, distances)]


def parse_coco_gt(source: str) -> CocoGroundTruth:
    """Parse a COCO ground-truth document (ours or foreign).

    Frames are recovered from image ``file_name`` entries of the form
    ``<video>/<frame>.jpg``. Only annotations of the pedestrian category
    are kept, as are those without ``category_id``; those of another are
    dropped unchecked beyond their image and category, and counted in
    ``skipped_count``. Annotations missing the ``pedestrian_id`` /
    ``distance_m`` extension keys fall back to the COCO annotation id and an
    infinite distance respectively. An absent or null ``info`` value takes
    its default (0 for the image size, "" for ``dataset_id``, unset
    otherwise). A given ``info.videos`` must claim one image per frame.

    Raises:
        ParseError: malformed JSON or a malformed part of the document,
            located as ``images`` or ``annotations`` (not an array),
            ``image N`` (also an image outside ``info.videos`` or on the
            frame of an earlier image), ``annotation N`` or ``info.<key>``.
        JoinError: ``annotation N`` references an unknown image id.
        InvalidArgument: the ``distance_m`` of ``annotation N`` is not positive.
    """
    doc = load_json(source)
    if not isinstance(doc, dict) or "images" not in doc or "annotations" not in doc:
        raise ParseError("expected a COCO document with 'images' and 'annotations'")
    for key in ("images", "annotations"):
        if not isinstance(doc[key], list):
            raise ParseError(f"expected an array, got {type(doc[key]).__name__}", location=key)

    images: list[FrameRef] = []
    frame_of: dict[int, tuple[str, int]] = {}
    for idx, img in enumerate(doc["images"]):
        loc = f"image {idx}"
        if not isinstance(img, dict):
            raise ParseError(f"expected an object, got {img!r}", location=loc)
        image_id = _ints([img.get("id")], "image id", loc)[0]
        video_id, frame_id = _parse_file_name(img.get("file_name", ""), loc)
        if image_id in frame_of:
            raise ParseError(f"duplicate image id {image_id}", location=loc)
        frame_of[image_id] = (video_id, frame_id)
        images.append(FrameRef(image_id=image_id, video_id=video_id, frame_id=frame_id))

    annotations = _checked(_coco_annotations, doc["annotations"], "annotation {}".format, frame_of)
    annotations.sort(key=sort_key)

    info = doc.get("info")
    info = info if isinstance(info, dict) else {}
    if "videos" in info:
        manifest = DatasetManifest(
            image_w=_info_value(info, "image_w", 0.0, _image_size),
            image_h=_info_value(info, "image_h", 0.0, _image_size),
            videos=_manifest_videos(info["videos"], images),
            alpha_used=_info_value(info, "alpha_used", None, _require_finite),
            distance_limit_m=_info_value(info, "distance_limit_m", None, _require_finite),
            dataset_id=_info_value(info, "dataset_id", "", _require_str),
        )
    else:
        # Foreign document: reconstruct what the images table supports.
        first = doc["images"][0] if doc["images"] else {}
        manifest = manifest_for_annotations(
            images,
            image_w=_image_size(first.get("width", 0), "width", "image 0"),
            image_h=_image_size(first.get("height", 0), "height", "image 0"),
            dataset_id=_info_value(info, "dataset_id", "", _require_str),
        )
    images.sort(key=attrgetter("video_id", "frame_id"))

    return CocoGroundTruth(
        annotations=tuple(annotations), manifest=manifest, images=tuple(images),
        skipped_count=len(doc["annotations"]) - len(annotations),
    )


# ---------------------------------------------------------------------------
# MOT ground truth
# ---------------------------------------------------------------------------

def _one_video(records: Iterable[Any]) -> None:
    """Raise MixedVideos unless the records come from at most one video."""
    videos = {r.video_id for r in records}
    if len(videos) > 1:
        raise MixedVideos(f"MOT files hold one video, got {sorted(videos)}")


def emit_mot(annotations: Sequence[AnnotatedBox]) -> str:
    """Serialize annotations as MOT ground-truth CSV (single video per file).

    Rows are ``frame,id,bb_left,bb_top,bb_width,bb_height,conf,class,visibility``
    with conf = class = visibility = 1, sorted by (frame, id).

    Raises:
        MixedVideos: annotations span more than one video.
        InvalidArgument: at the first annotation ``(v, f, p)`` in written
            order with one, a frame not an integer of at least 1, an id not an
            integer, a box field that is not finite, a width or height that is
            not positive, or an area beyond float range.
    """
    _one_video(annotations)
    rows = _writable(sorted(annotations, key=sort_key), _MOT_WRITES)
    return "".join(csv_row(*row, 1, 1, 1) for row in rows)


def parse_mot_gt(source: str, video_id: str) -> tuple[list[AnnotatedBox], int]:
    """Parse MOT ground-truth CSV for one video.

    Only class-1 (pedestrian) rows become annotations; rows of other classes
    are counted and reported, never silently dropped. MOT files carry no
    camera distance, so parsed annotations get an infinite distance.

    Returns:
        (annotations sorted by (frame, id), skipped non-pedestrian row count)
    """
    lines, rows = csv_rows(source, 9, 9)
    annotations = _checked(_mot_rows, rows, lambda i: f"line {lines[i]}", video_id)
    annotations.sort(key=sort_key)
    return annotations, len(rows) - len(annotations)


def _mot_rows(rows: list, video_id: str, at: Optional[str] = None) -> Optional[list]:
    """The pedestrians of MOT ground-truth ``rows``, or None if one breaks the MOT
    row rule, checked by column in field order; given ``at``, raises instead."""
    if not rows:
        return []
    frames, ids, _, _, _, _, _, classes, _ = zip(*rows)
    if (frames := _frames(frames, at)) is None or (ids := _ints(ids, "id", at)) is None:
        return None
    if (kept := _pedestrians(classes, "class", at, rows, frames, ids)) is None:
        return None
    rows, frames, ids = kept
    if not rows:
        return []
    if (boxes := _boxes([*map(itemgetter(slice(2, 6)), rows)], at)) is None:
        return None
    return [*map(AnnotatedBox, repeat(video_id), frames, ids, boxes, repeat(math.inf))]


# ---------------------------------------------------------------------------
# Detections
# ---------------------------------------------------------------------------

def parse_detections(
    source: str | TextIO,
    fmt: str,
    *,
    video_id: Optional[str] = None,
    frame_of_image: Optional[Mapping[int, tuple[str, int]]] = None,
) -> list[Detection]:
    """Parse detector output in ``coco_results`` or ``mot_det`` format.

    ``coco_results`` needs ``frame_of_image`` (image id -> (video, frame),
    from the ground-truth document) to resolve frames; ``mot_det`` needs the
    ``video_id`` the file belongs to, and keeps to the frames of a given index.
    All records are returned regardless of score; the confidence floor is an
    evaluation concern. Output is sorted by (video, frame, descending score).

    ``source`` is the text, or for ``coco_results`` also a seekable text stream;
    either is streamed as :func:`parse_jta` streams a dump (README, COCO records).

    Raises:
        ParseError: malformed records, or a score outside [0, 1] beyond
            clamping slack.
        JoinError: a coco_results record references an unknown image id, or
            a mot_det line a frame that ``frame_of_image`` does not hold.
    """
    if fmt == "coco_results":
        if frame_of_image is None:
            raise ParseError("coco_results parsing needs an image-id index from the ground truth")
        if (detections := _stream_detections(_blocks(source), frame_of_image)) is None:
            detections = _whole_array(source, "detection", _coco_detections, frame_of_image)
    elif fmt == "mot_det":
        if video_id is None:
            raise ParseError("mot_det parsing needs the video id")
        known = None if frame_of_image is None else {*frame_of_image.values()}
        lines, rows = csv_rows(source, 7, 10)
        detections = _checked(_mot_detections, rows, lambda i: f"line {lines[i]}", video_id, known)
    else:
        raise ParseError(f"unknown detection format {fmt!r}")
    detections.sort(key=_detection_order)
    return detections


def _stream_detections(blocks: Iterable[str], frame_of: Mapping) -> Optional[list]:
    """The detections of the ``coco_results`` array that ``blocks`` spell, piece by piece;
    None if a piece does not parse, :func:`_coco_detections` refuses a record, or a block
    does not decode."""
    detections: list = []
    with suppress(UnicodeDecodeError):
        for piece in _jta_pieces(blocks, "}"):
            records = load_json(piece, strict=False)
            if type(records) is not list or (part := _coco_detections(records, frame_of)) is None:
                return None
            detections += part
        return detections
    return None


def _coco_detections(
    records: list, frame_of: Mapping[int, tuple[str, int]], at: Optional[str] = None
) -> Optional[list]:
    """The pedestrians of ``records``, or None if one breaks the ``coco_results`` record
    rule, checked by column in field order; given ``at``, raises instead."""
    if (kept := _coco_records(records, frame_of, "detection", at)) is None:
        return None
    records, image_ids = kept
    if not records:
        return []
    boxes = _boxes([*map(dict.get, records, repeat("bbox"))], at)
    if boxes is None or (scores := _scores([*map(dict.get, records, repeat("score"))], at)) is None:
        return None
    videos, frames = zip(*map(frame_of.__getitem__, image_ids))
    return [*map(Detection, videos, frames, boxes, scores)]


def _mot_detections(
    rows: list, video_id: str, known: Optional[set], at: Optional[str] = None
) -> Optional[list]:
    """The detections of ``mot_det`` ``rows``, or None if one breaks the ``mot_det`` row rule
    (on a frame of ``known``, if given), checked by column in field order; given ``at``, raises."""
    if not rows:
        return []
    if (frames := _frames([*map(itemgetter(0), rows)], at)) is None:
        return None
    if known is not None and not known.issuperset(zip(repeat(video_id), frames)):
        message = f"detection on ({video_id}, {frames[0]}) has no ground-truth frame"
        return _refuse(at, JoinError, message)
    boxes = _boxes([*map(itemgetter(slice(2, 6)), rows)], at)
    if boxes is None or (scores := _scores([*map(itemgetter(6), rows)], at)) is None:
        return None
    return [*map(Detection, repeat(video_id), frames, boxes, scores)]


def emit_detections(
    detections: Sequence[Detection],
    fmt: str,
    *,
    image_id_of_frame: Optional[Mapping[tuple[str, int], int]] = None,
) -> str:
    """Serialize detections in ``coco_results`` or ``mot_det`` format.

    Output order matches what :func:`parse_detections` produces, so
    emit/parse pairs are identity and re-emission is byte-identical.

    Raises:
        JoinError: a ``coco_results`` detection's frame is not in ``image_id_of_frame``.
        InvalidArgument: at the first detection ``(v, f)`` in written order
            with one, a ``coco_results`` image id not an integer; else, at the
            first with one, a ``mot_det`` frame not an integer of at least 1, a
            box field that is not finite, a width or height that is not
            positive, an area beyond float range, or a score outside [0, 1]
            beyond the readers' slack.
    """
    ordered = sorted(detections, key=_detection_order)
    if fmt == "coco_results":
        if image_id_of_frame is None:
            raise ParseError("coco_results emission needs an image-id index")
        keys = [(det.video_id, det.frame_id) for det in ordered]
        for key in keys:
            if key not in image_id_of_frame:
                raise JoinError(f"detection frame {key} is not in the image index")
        ids = [*map(image_id_of_frame.__getitem__, keys)]
        ids = _checked(_ints, ids, lambda i: _Argument(_DETECTION.format(ordered[i])), "image_id")
        records = (
            f'{{"image_id":{image_id},"category_id":{PEDESTRIAN_CATEGORY_ID},'
            f'"bbox":[{_numbers(x, y, w, h)}],"score":{_numbers(score)}}}'
            for image_id, (x, y, w, h, score) in zip(ids, _writable(ordered, _DETECTION_WRITES))
        )
        return "[" + ",".join(records) + "]"
    if fmt == "mot_det":
        _one_video(ordered)
        rows = _writable(ordered, ((_frames, "frame_id"), *_DETECTION_WRITES))
        return "".join(csv_row(f, -1, x, y, w, h, s, -1, -1, -1) for f, x, y, w, h, s in rows)
    raise ParseError(f"unknown detection format {fmt!r}")


def manifest_for_annotations(
    annotations: Iterable[Any],
    dataset_id: str,
    image_w: float,
    image_h: float,
    alpha_used: Optional[float] = None,
) -> DatasetManifest:
    """Build a manifest covering every frame referenced by the records.

    ``annotations`` may be any records that carry ``video_id`` and ``frame_id``.
    """
    counts: dict[str, int] = {}
    for a in annotations:
        counts[a.video_id] = max(counts.get(a.video_id, 0), a.frame_id)
    return DatasetManifest(
        dataset_id=dataset_id,
        image_w=image_w,
        image_h=image_h,
        videos=tuple(sorted(counts.items())),
        alpha_used=alpha_used,
    )
