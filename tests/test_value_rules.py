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

import pytest

from skel2box import (
    AnnotatedBox,
    BBox,
    InvalidArgument,
    ParseError,
    derive_distance_limit,
    distance_histogram,
    emit_coco,
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
