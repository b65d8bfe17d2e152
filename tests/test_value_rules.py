"""One rule per kind of value, checked by one function.

Every reader or operation that takes a frame number, a box or a camera
distance refuses a bad one with the same message; only the location differs,
and it is the one that reader gives its records (``record N``, ``line N``,
``image N``, ``annotation N``). The COCO emitter and the distance operations
take no file, so their distance errors carry no location.
"""

import json
import math
import random
import sys
from operator import attrgetter

import pytest

from skel2box import (
    AnnotatedBox,
    BBox,
    DatasetManifest,
    Detection,
    InvalidArgument,
    ParseError,
    derive_distance_limit,
    distance_histogram,
    emit_coco,
    emit_detections,
    emit_mot,
    manifest_for_annotations,
    parse_coco_gt,
    parse_detections,
    parse_jta,
    parse_mot_gt,
    prune_by_distance,
)


def jta_frame(frame):
    records = [[frame, 1, j, 100.0 + j, 200.0 + j, 0.0, 0.0, 10.0, 0, 0] for j in range(22)]
    parse_jta(json.dumps(records), "v")


def coco_gt(annotations, file_name="v/1.jpg"):
    doc = {"images": [{"id": 1, "file_name": file_name}], "annotations": annotations}
    parse_coco_gt(json.dumps(doc))


def csv_box(box):
    return ",".join(repr(v) for v in box)


FRAME_READERS = {
    "jta": (jta_frame, "record 0"),
    "mot_gt": (
        lambda frame: parse_mot_gt(f"1,1,10,20,30,40,1,1,1\n{frame},1,10,20,30,40,1,1,1\n", "v"),
        "line 2",
    ),
    "mot_det": (
        lambda frame: parse_detections(f"{frame},-1,10,20,30,40,0.9\n", "mot_det", video_id="v"),
        "line 1",
    ),
    "coco_file_name": (lambda frame: coco_gt([], file_name=f"v/{frame}.jpg"), "image 0"),
}

BOX_READERS = {
    "coco_gt": (lambda box: coco_gt([{"id": 1, "image_id": 1, "bbox": box}]), "annotation 0"),
    "coco_results": (
        lambda box: parse_detections(
            json.dumps([{"image_id": 1, "bbox": box, "score": 0.5}]),
            "coco_results",
            frame_of_image={1: ("v", 1)},
        ),
        "record 0",
    ),
    "mot_gt": (lambda box: parse_mot_gt(f"1,1,{csv_box(box)},1,1,1\n", "v"), "line 1"),
    "mot_det": (
        lambda box: parse_detections(f"1,-1,{csv_box(box)},0.9\n", "mot_det", video_id="v"),
        "line 1",
    ),
}


def at(distance):
    """A usable annotation, then one at ``distance``."""
    return [AnnotatedBox("v", 1, i, BBox(0, 0, 10, 20), d) for i, d in enumerate((5.0, distance))]


def emitted(annotations):
    return emit_coco(annotations, manifest_for_annotations(annotations, "d", 0, 0))


DISTANCE_OPERATIONS = {
    "histogram": (lambda distance: distance_histogram(at(distance), 1.0), None),
    "distance_limit": (lambda distance: derive_distance_limit(at(distance), 10.0), None),
    "prune": (lambda distance: prune_by_distance(at(distance), 40.0), None),
}

DISTANCE_READERS = {
    **DISTANCE_OPERATIONS,
    "coco_gt": (
        lambda distance: coco_gt(
            [{"id": 1, "image_id": 1, "bbox": [0, 0, 10, 20], "distance_m": distance}]
        ),
        "annotation 0",
    ),
    "emit_coco": (lambda distance: emitted(at(distance)), None),
}

RULES = {
    "frame": (FRAME_READERS, {
        "0": (0, "frame must be at least 1 (frames are 1-based), got 0"),
        "-1": (-1, "frame must be at least 1 (frames are 1-based), got -1"),
    }),
    "box": (BOX_READERS, {
        "nan": ([math.nan, 20.0, 30.0, 40.0], "box field must be a finite number, got nan"),
        "zero_width": (
            [10.0, 20.0, 0.0, 40.0], "box width and height must be positive, got 0.0 and 40.0"
        ),
        "area_overflow": (
            [10.0, 20.0, 1e200, 1e200],
            "box width times height must be finite, got 1e+200 and 1e+200",
        ),
    }),
    "distance": (DISTANCE_READERS, {
        "0": (0.0, "distance must be finite and positive, got 0.0"),
        "negative": (-1.0, "distance must be finite and positive, got -1.0"),
    }),
    # An unknown distance is written as no distance_m at all, and read back
    # as infinite, so only the operations that need a distance refuse it.
    "unknown_distance": (DISTANCE_OPERATIONS, {
        "inf": (math.inf, "distance must be finite and positive, got inf"),
    }),
}

CASES = [
    pytest.param(read, value, message, location, id=f"{kind}-{value_id}-{reader}")
    for kind, (readers, values) in RULES.items()
    for reader, (read, location) in readers.items()
    for value_id, (value, message) in values.items()
]


@pytest.mark.parametrize("read, value, message, location", CASES)
def test_every_reader_gives_the_one_message(read, value, message, location):
    with pytest.raises((ParseError, InvalidArgument)) as exc_info:
        read(value)
    assert exc_info.value.location == location
    assert str(exc_info.value) == (message if location is None else f"{message} ({location})")


def test_every_distance_the_emitter_writes_parses_back():
    rng = random.Random(11)
    distances = [5e-324, 0.1, 1.0, 40.0, 1e300, sys.float_info.max] + [
        math.ldexp(0.5 + rng.random() / 2, rng.randint(-1073, 1024)) for _ in range(500)
    ]
    annotations = [
        AnnotatedBox("v", 1, i, BBox(0, 0, 10, 20), d) for i, d in enumerate(distances)
    ]
    parsed = parse_coco_gt(emitted(annotations)).annotations
    assert [a.distance_m for a in parsed] == distances


# Every writer writes a value as its reader reads it back, and refuses, as
# InvalidArgument at the record's key, a value that its reader refuses.


def annotation(kind, value):
    fields = {"frame": 1, "id": 1, "box": [10, 20, 30, 40], "distance": 12.5, kind: value}
    box = BBox(*fields["box"])
    return AnnotatedBox("v", fields["frame"], fields["id"], box, fields["distance"])


def detection(kind, value):
    fields = {"frame": 1, "box": [10, 20, 30, 40], "score": 0.5, kind: value}
    return Detection("v", fields["frame"], BBox(*fields["box"]), fields["score"])


# Each writer: the kinds of value it writes, how it makes a record of one,
# writes and reads records, the name its reader gives an id, and the key
# that locates a record.
WRITERS = {
    "emit_coco": (
        "box id distance",
        annotation,
        lambda anns: emit_coco(anns, manifest_for_annotations(anns, "d", 0, 0)),
        lambda text: parse_coco_gt(text).annotations,
        "pedestrian_id",
        "annotation (v, {0.frame_id}, {0.pedestrian_id})",
    ),
    "emit_mot": (
        "frame box id",
        annotation,
        emit_mot,
        lambda text: parse_mot_gt(text, "v")[0],
        "id",
        "annotation (v, {0.frame_id}, {0.pedestrian_id})",
    ),
    "coco_results": (
        "box score",
        detection,
        lambda dets: emit_detections(dets, "coco_results", image_id_of_frame={("v", 1): 1}),
        lambda text: parse_detections(text, "coco_results", frame_of_image={1: ("v", 1)}),
        None,
        "detection (v, {0.frame_id})",
    ),
    "mot_det": (
        "frame box score",
        detection,
        lambda dets: emit_detections(dets, "mot_det"),
        lambda text: parse_detections(text, "mot_det", video_id="v"),
        None,
        "detection (v, {0.frame_id})",
    ),
}

# The value each kind is read back as, from its record.
READ_BACK = {
    "frame": attrgetter("frame_id"),
    "id": attrgetter("pedestrian_id"),
    "box": attrgetter("box"),
    "score": attrgetter("score"),
    "distance": attrgetter("distance_m"),
}

# The values that a reader refuses, with its message; "{}" is the reader's name for an id.
REFUSED = {
    "frame": RULES["frame"][1],
    "box": RULES["box"][1],
    "id": {
        "1.5": (1.5, "{} must be an integer, got 1.5"),
        "nan": (math.nan, "{} must be an integer, got nan"),
    },
    "score": {
        "1.5": (1.5, "score 1.5 outside [0, 1]"),
        "-0.5": (-0.5, "score -0.5 outside [0, 1]"),
        "past_slack": (1 + 2e-9, "score 1.000000002 outside [0, 1]"),
        "nan": (math.nan, "score must be a finite number, got nan"),
    },
}

# The values that a reader takes, with what it reads them as.
HALF_MAX = sys.float_info.max / 2
ACCEPTED = {
    "frame": {"2": (2, 2), "2.0": (2.0, 2), "true": (True, 1)},
    "box": {
        "ints": ([10, 20, 30, 40], BBox(10.0, 20.0, 30.0, 40.0)),
        "largest_area": ([0, 0, 2.0, HALF_MAX], BBox(0.0, 0.0, 2.0, HALF_MAX)),
        "smallest": ([-0.0, 0.5, 5e-324, 1e-300], BBox(0.0, 0.5, 5e-324, 1e-300)),
        "big_ints": ([0, 0, 10**20, 10**20], BBox(0.0, 0.0, 1e20, 1e20)),
    },
    "id": {"7": (7, 7), "7.0": (7.0, 7), "true": (True, 1), "negative": (-3, -3)},
    "score": {
        "0.75": (0.75, 0.75),
        "1": (1, 1.0),
        "slack_above": (1 + 5e-10, 1.0),
        "slack_below": (-5e-10, 0.0),
    },
    "distance": {"12": (12, 12.0), "unknown": (math.inf, math.inf)},
}


def writer_cases(table):
    return [
        pytest.param(writer, kind, value, outcome, id=f"{kind}-{value_id}-{writer}")
        for writer, (kinds, *_) in WRITERS.items()
        for kind in kinds.split()
        for value_id, (value, outcome) in table.get(kind, {}).items()
    ]


@pytest.mark.parametrize("writer, kind, value, message", writer_cases(REFUSED))
def test_a_writer_refuses_what_its_reader_refuses(writer, kind, value, message):
    _, make, write, _, id_name, key = WRITERS[writer]
    records = [make(kind, value)]
    with pytest.raises(InvalidArgument) as exc_info:
        write(records)
    location = key.format(records[0])
    message = message.format(id_name)
    assert (str(exc_info.value), exc_info.value.location) == (f"{message} ({location})", location)


@pytest.mark.parametrize("writer, kind, value, expected", writer_cases(ACCEPTED))
def test_a_writer_writes_what_its_reader_reads_back(writer, kind, value, expected):
    _, make, write, read, _, _ = WRITERS[writer]
    text = write([make(kind, value)])
    (record,) = read(text)
    assert READ_BACK[kind](record) == expected
    assert write([record]) == text


MANIFEST = {"dataset_id": "d", "image_w": 0, "image_h": 0, "videos": (("v", 1),)}


@pytest.mark.parametrize(
    "key, value, spelled, message",
    [
        ("videos", (("v", 0),), [["v", 0]],
         "entry 0 must be [name, frame count >= 1], got ['v', 0]"),
        ("videos", (("v", 1), ("v", 1)), [["v", 1], ["v", 1]], "entry 1 repeats video 'v'"),
        ("videos", ((3, 1),), [[3, 1]], "entry 0 must be [name, frame count >= 1], got [3, 1]"),
        ("videos", (("v", 1.5),), [["v", 1.5]], "entry 0 frame count must be an integer, got 1.5"),
        ("videos", "v", "v", "expected an array of [video, frame count] pairs, got 'v'"),
        ("videos", (("v",),), None, "entry 0 must be [video, frame count], got ('v',)"),
        ("dataset_id", 3, 3, "dataset_id must be a string, got 3"),
        # The reader takes a null dataset_id as absent, so it is written as a string or not at all.
        ("dataset_id", None, None, "dataset_id must be a string, got None"),
    ],
    ids=[
        "zero_count", "repeated_video", "int_name", "float_count", "not_an_array",
        "short_entry", "int_dataset_id", "null_dataset_id",
    ],
)
def test_a_manifest_refuses_what_the_reader_refuses_in_info(key, value, spelled, message):
    with pytest.raises(InvalidArgument) as exc_info:
        DatasetManifest(**{**MANIFEST, key: value})
    assert (str(exc_info.value), exc_info.value.location) == (message, None)
    if spelled is not None:
        info = {**MANIFEST, "videos": [["v", 1]], key: spelled}
        doc = {"info": info, "images": [{"id": 1, "file_name": "v/000001.jpg"}], "annotations": []}
        with pytest.raises(ParseError) as exc_info:
            parse_coco_gt(json.dumps(doc))
        assert str(exc_info.value) == f"{message} (info.{key})"


@pytest.mark.parametrize(
    "videos, read",
    [((("v", 2.0),), (("v", 2),)), ((("v", True),), (("v", 1),)), ([["v", 2]], (("v", 2),))],
    ids=["float_count", "true_count", "lists"],
)
def test_a_manifest_keeps_its_table_as_the_reader_reads_it(videos, read):
    manifest = DatasetManifest(**{**MANIFEST, "videos": videos})
    assert manifest.videos == read
    text = emit_coco([], manifest)
    assert parse_coco_gt(text).manifest == manifest
    assert emit_coco([], parse_coco_gt(text).manifest) == text
