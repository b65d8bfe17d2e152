"""One rule per kind of value, checked by one function.

Every reader or operation that takes a frame number, a box or a camera
distance refuses a bad one with the same message; only the location differs,
and it is the one that reader gives its records (``record N``, ``line N``,
``image N``, ``annotation N``). The COCO emitter and the distance operations
take no file, so their distance errors carry no location.
"""

import inspect
import json
import math
import random
import sys
from array import array
from dataclasses import fields
from operator import attrgetter

import pytest

import skel2box
from skel2box import (
    SETTING_RANGES,
    AnnotatedBox,
    BBox,
    DatasetManifest,
    Detection,
    InvalidArgument,
    ParseError,
    SkeletonInstance,
    clamp_to_image,
    derive_distance_limit,
    distance_histogram,
    emit_coco,
    emit_detections,
    emit_mot,
    evaluate,
    manifest_for_annotations,
    match_frame,
    pad_box,
    parse_coco_gt,
    parse_detections,
    parse_jta,
    parse_mot_gt,
    pr_curve,
    prune_by_distance,
    synthesize_annotations,
)
from skel2box import cli
from skel2box.sanitize import check_bin_width, check_height_floor
from skel2box.cli import PipelineConfig


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


# Each setting of the pipeline has one rule, skel2box.check_setting. The command
# line runs it on every setting, from its flag or from --config, and so does each
# library function that takes the setting. Both give the same verdict in the same
# words; only the class differs, InvalidConfig or InvalidArgument.

SMALLEST = 5e-324
BIGGEST = sys.float_info.max
BEYOND_FLOAT = 10**400

# Each setting's values at and around the ends of its range, with the words that
# refuse them, or None where the value is accepted.
RANGE_CASES = {
    "image_w": {
        "0": (0, "image dimensions must be positive"),
        "-0.0": (-0.0, "image dimensions must be positive"),
        "smallest": (SMALLEST, None),
        "biggest": (BIGGEST, None),
    },
    "joints_per_skeleton": {
        "0": (0, "joints_per_skeleton must be positive"),
        "-1": (-1, "joints_per_skeleton must be positive"),
        "1": (1, None),
        "22": (22, None),
        "-0.0": (-0.0, "joints_per_skeleton must be an integer, got -0.0"),
        "2.5": (2.5, "joints_per_skeleton must be an integer, got 2.5"),
    },
    "alpha": {
        "0": (0, None),
        "-0.0": (-0.0, None),
        "below_0": (-SMALLEST, "alpha must be at least 0"),
        "biggest": (BIGGEST, None),
    },
    "distance_limit_m": {
        "0": (0, "distance_limit_m must be positive"),
        "-0.0": (-0.0, "distance_limit_m must be positive"),
        "smallest": (SMALLEST, None),
        "biggest": (BIGGEST, None),
    },
    "score_floor": {
        "0": (0, None),
        "-0.0": (-0.0, None),
        "below_0": (-SMALLEST, "score_floor must lie in [0, 1)"),
        "below_1": (math.nextafter(1.0, 0.0), None),
        "1": (1, "score_floor must lie in [0, 1)"),
    },
    "iou_thr": {
        "0": (0, "iou_thr must lie in (0, 1]"),
        "-0.0": (-0.0, "iou_thr must lie in (0, 1]"),
        "smallest": (SMALLEST, None),
        "1": (1, None),
        "above_1": (math.nextafter(1.0, 2.0), "iou_thr must lie in (0, 1]"),
    },
}
RANGE_CASES["image_h"] = RANGE_CASES["image_w"]


def number_words(name, value):
    if name == "joints_per_skeleton" and type(value) is not int:
        return f"{name} must be an integer, got {value!r}"
    return f"{name} must be a finite number, got {value!r}"


SETTING_CASES = {
    name: {
        **{
            value_id: (value, number_words(name, value))
            for value_id, value in [
                ("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf), ("true", True),
                ("beyond_float", BEYOND_FLOAT),
            ]
        },
        **RANGE_CASES[name],
    }
    for name in SETTING_RANGES
}

SKELETON = SkeletonInstance(
    "v", 1, 1, array("d", [100.0, 120.0]), array("d", [200.0, 250.0]),
    array("d", [0.0, 0.0]), array("d", [0.0, 0.0]), array("d", [10.0, 10.0]),
)
GT = AnnotatedBox("v", 1, 1, BBox(100, 200, 20, 50), 10.0)

# Each library function that takes a setting, called with a usable input.
LIBRARY = {
    "image_w": {
        "clamp_to_image": lambda v: clamp_to_image(GT.box, v, 1080),
        "synthesize_annotations": lambda v: synthesize_annotations([SKELETON], 100, v, 1080),
    },
    "image_h": {
        "clamp_to_image": lambda v: clamp_to_image(GT.box, 1920, v),
        "synthesize_annotations": lambda v: synthesize_annotations([SKELETON], 100, 1920, v),
    },
    "joints_per_skeleton": {"parse_jta": lambda v: parse_jta("[]", "v", v)},
    "alpha": {
        "pad_box": lambda v: pad_box(GT.box, 10.0, v),
        "synthesize_annotations": lambda v: synthesize_annotations([SKELETON], v, 1920, 1080),
    },
    "distance_limit_m": {"prune_by_distance": lambda v: prune_by_distance([GT], v)},
    "score_floor": {
        "pr_curve": lambda v: pr_curve([], 1, v),
        "evaluate": lambda v: evaluate([], [GT], score_floor=v),
    },
    "iou_thr": {
        "match_frame": lambda v: match_frame([], [GT.box], v),
        "evaluate": lambda v: evaluate([], [GT], iou_thr=v),
    },
}

# The subcommand that reads each setting, and its flag.
COMMAND_OF = {
    "image_w": ("synthesize", "--image-w"),
    "image_h": ("synthesize", "--image-h"),
    "joints_per_skeleton": ("synthesize", "--joints-per-skeleton"),
    "alpha": ("synthesize", "--alpha"),
    "distance_limit_m": ("prune", "--distance-limit"),
    "score_floor": ("evaluate", "--score-floor"),
    "iou_thr": ("evaluate", "--iou-thr"),
}


def command_argv(tmp_path, command, joints=22):
    """A run of ``command`` on small inputs that writes ``out.json``."""
    records = [[1, 1, j, 100.0 + j, 200.0 + 2 * j, 0.0, 0.0, 10.0, 0, 0] for j in range(joints)]
    (jta := tmp_path / "clip.json").write_text(json.dumps(records))
    (gt := tmp_path / "gt.json").write_text(emitted([GT]))
    (det := tmp_path / "det.txt").write_text("1,-1,100,200,20,50,0.9\n")
    out = tmp_path / "out.json"
    return {
        "synthesize": ["synthesize", "--jta", jta, "--out-coco", out],
        "prune": ["prune", "--gt", gt, "--out", out],
        "evaluate": ["evaluate", "--gt", gt, "--det", det, "--det-format", "mot_det",
                     "--video-id", "v", "--out", out],
    }[command]


def run_cli(tmp_path, capsys, argv):
    """Exit code, stdout and stderr of a command, and whether it wrote ``out.json``."""
    code = cli.run([str(a) for a in argv])
    captured = capsys.readouterr()
    written = (tmp_path / "out.json").exists()
    (tmp_path / "out.json").unlink(missing_ok=True)
    return code, captured.out, captured.err, written


def flag_text(name, value):
    """``value`` as its flag spells it, or None if the flag cannot carry it."""
    if type(value) is bool:
        return None
    text = repr(value)
    try:
        parsed = (int if name == "joints_per_skeleton" else float)(text)
    except ValueError:
        return None
    return text if parsed == value or (math.isnan(parsed) and math.isnan(value)) else None


SETTING_PARAMS = [
    pytest.param(name, value, words, id=f"{name}-{value_id}")
    for name, cases in SETTING_CASES.items()
    for value_id, (value, words) in cases.items()
]


@pytest.mark.parametrize("name, value, words", SETTING_PARAMS)
def test_every_library_function_keeps_the_setting_rule(name, value, words):
    for function, call in LIBRARY[name].items():
        if words is None:
            call(value)
            continue
        with pytest.raises(InvalidArgument) as exc_info:
            call(value)
        assert (str(exc_info.value), exc_info.value.location) == (words, None), function


@pytest.mark.parametrize("name, value, words", SETTING_PARAMS)
def test_the_command_line_keeps_the_setting_rule(tmp_path, capsys, name, value, words):
    command, flag = COMMAND_OF[name]
    joints = value if name == "joints_per_skeleton" and words is None else 22
    argv = command_argv(tmp_path, command, joints)
    if command == "synthesize" and name != "alpha":
        argv += ["--alpha", "100"]
    (config := tmp_path / "config.json").write_text(json.dumps({name: value}))
    runs = {"--config": run_cli(tmp_path, capsys, argv + ["--config", config])}
    if (text := flag_text(name, value)) is not None:
        # "--flag=-inf": argparse takes a separate "-inf" for an option.
        runs[flag] = run_cli(tmp_path, capsys, argv + [f"{flag}={text}"])
    for source, (code, out, err, written) in runs.items():
        if words is None:
            assert (code, err, written) == (0, "", True), source
        else:
            assert (code, out, err, written) == (2, "", f"error: {words}\n", False), source


def test_a_config_file_names_its_first_bad_field(tmp_path, capsys):
    (config := tmp_path / "config.json").write_text('{"iou_thr": NaN, "image_w": 0}')
    argv = command_argv(tmp_path, "synthesize") + ["--alpha", "100", "--config", config]
    code, out, err, written = run_cli(tmp_path, capsys, argv)
    assert (code, out, err, written) == (2, "", "error: image dimensions must be positive\n", False)


def test_the_settings_are_the_config_fields_in_order():
    assert tuple(SETTING_RANGES) == tuple(field.name for field in fields(PipelineConfig))


# These record an image size in a manifest, which the COCO reader takes as 0 when
# it is unknown; they clamp nothing.
RECORDING = {("image_w", "manifest_for_annotations"), ("image_h", "manifest_for_annotations")}


def test_every_library_function_that_takes_a_setting_is_in_the_table():
    parameter_of = {**{name: name for name in SETTING_RANGES}, "limit_m": "distance_limit_m"}
    taking = {
        (parameter_of[parameter], name)
        for name in skel2box.__all__
        if inspect.isfunction(function := getattr(skel2box, name))
        for parameter in inspect.signature(function).parameters
        if parameter in parameter_of
    }
    assert taking - RECORDING == {(name, f) for name, calls in LIBRARY.items() for f in calls}


# The knobs of histogram and distance-limit keep words of their own, and stay out of
# SETTING_RANGES, which holds the PipelineConfig fields; they take its number rule.
KNOB_WORDS = {
    "bin_width_m": "bin width must be positive, got {!r}",
    "h_min_px": "height floor must be non-negative, got {!r}",
}
KNOB_RANGES = {
    "bin_width_m": {"0": (0, False), "-0.0": (-0.0, False), "0.5": (0.5, True),
                    "biggest": (BIGGEST, True)},
    "h_min_px": {"0": (0, True), "-0.0": (-0.0, True), "below_0": (-SMALLEST, False),
                 "biggest": (BIGGEST, True)},
}
KNOB_PARAMS = [
    pytest.param(name, value, accepted, id=f"{name}-{value_id}")
    for name, cases in KNOB_RANGES.items()
    for value_id, (value, accepted) in [
        ("nan", (math.nan, False)), ("inf", (math.inf, False)), ("-inf", (-math.inf, False)),
        ("true", (True, False)), ("beyond_float", (BEYOND_FLOAT, False)), *cases.items(),
    ]
]
# Each library function that takes the knob, and each subcommand flag that sets it.
KNOB_LIBRARY = {
    "bin_width_m": {
        "check_bin_width": check_bin_width,
        "distance_histogram": lambda v: distance_histogram([GT], v),
        "derive_distance_limit": lambda v: derive_distance_limit([GT], 25.0, v),
    },
    "h_min_px": {
        "check_height_floor": check_height_floor,
        "derive_distance_limit": lambda v: derive_distance_limit([GT], v),
    },
}
KNOB_FLAGS = {
    "bin_width_m": [("histogram", "--bin-width"), ("distance-limit", "--bin-width")],
    "h_min_px": [("distance-limit", "--h-min")],
}


@pytest.mark.parametrize("name, value, accepted", KNOB_PARAMS)
def test_every_library_function_keeps_the_knob_rule(name, value, accepted):
    for function, call in KNOB_LIBRARY[name].items():
        if accepted:
            call(value)
            continue
        with pytest.raises(InvalidArgument) as exc_info:
            call(value)
        words = KNOB_WORDS[name].format(value)
        assert (str(exc_info.value), exc_info.value.location) == (words, None), function


@pytest.mark.parametrize(
    "name, value, accepted", [p for p in KNOB_PARAMS if flag_text(*p.values[:2]) is not None]
)
def test_the_command_line_keeps_the_knob_rule(tmp_path, capsys, name, value, accepted):
    text = flag_text(name, value)
    (gt := tmp_path / "gt.json").write_text(emitted([GT]))
    for command, flag in KNOB_FLAGS[name]:
        argv = [command, "--gt", gt, "--out", tmp_path / "out.json"]
        argv += ["--h-min", "25"] if command == "distance-limit" else []
        code, out, err, written = run_cli(tmp_path, capsys, argv + [f"{flag}={text}"])
        if accepted:
            assert (code, err, written) == (0, "", True), command
        else:
            words = KNOB_WORDS[name].format(float(text))
            assert (code, out, err, written) == (2, "", f"error: {flag}: {words}\n", False), command
