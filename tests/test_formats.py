import copy
import dataclasses
import json
import math
import multiprocessing
import os
import pickle
import random
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from array import array
from fractions import Fraction
from functools import partial
from operator import attrgetter

import pytest

from skel2box import (
    AnnotatedBox,
    BBox,
    DatasetManifest,
    Detection,
    FrameRef,
    IncompleteSkeleton,
    InvalidArgument,
    JoinError,
    MatchOutcome,
    MixedVideos,
    ParseError,
    SkeletonInstance,
    emit_coco,
    emit_detections,
    emit_mot,
    load_calibration_samples,
    manifest_for_annotations,
    parse_coco_gt,
    parse_detections,
    parse_jta,
    parse_mot_gt,
)
from skel2box import formats
from skel2box.formats import MAX_FRAMES, coco_file_name, csv_row, json_number
from test_value_rules import RULES, csv_box


def jta_records(frame, ped, n_joints=22, base=(100.0, 200.0), z=10.0):
    rows = []
    for j in range(n_joints):
        rows.append([frame, ped, j, base[0] + j, base[1] + 2 * j, 0.0, 0.0, z, 0, 0])
    return rows


# Record 2 of jta_records(1, 1), in the spelling parse_jta normalises to.
JTA_RECORD = [1, 1, 2, 102.0, 204.0, 0.0, 0.0, 10.0, 0, 0]


def with_field(field, value, *more):
    """JTA_RECORD with ``field`` set to ``value``, and each further (field, value) pair."""
    record = list(JTA_RECORD)
    for field, value in [(field, value), *zip(more[::2], more[1::2])]:
        record[field] = value
    return record


# A mutated record 2 and its outcome: either the canonical record it must
# parse exactly like, or the error message it must fail with.
JTA_RECORD_CASES = {
    "bool id": (with_field(1, True), JTA_RECORD),
    "bool flag": (with_field(8, True), with_field(8, 1)),
    "float id": (with_field(0, 1.0), JTA_RECORD),
    "int coordinate": (with_field(3, 102), JTA_RECORD),
    "-0.0 as pedestrian": (with_field(1, -0.0), with_field(1, 0)),
    "1e300 as frame": (with_field(0, 1e300), with_field(0, int(1e300))),
    "1.0 as a flag": (with_field(9, 1.0), with_field(9, 1)),
    "NaN": (with_field(3, math.nan), "field 3 must be a finite number, got nan"),
    "Infinity": (with_field(4, math.inf), "field 4 must be a finite number, got inf"),
    "-Infinity": (with_field(7, -math.inf), "field 7 must be a finite number, got -inf"),
    "null": (with_field(5, None), "field 5 must be a finite number, got None"),
    "string coordinate": (with_field(6, "x"), "field 6 must be a finite number, got 'x'"),
    "int beyond float range": (
        with_field(3, 10**400), f"field 3 must be a finite number, got {10**400}"
    ),
    "string id": (with_field(0, "1"), "frame must be an integer, got '1'"),
    "1.5 as an id": (with_field(2, 1.5), "joint_id must be an integer, got 1.5"),
    "bool coordinate": (with_field(3, True), "field 3 must be a finite number, got True"),
    "negative frame": (
        with_field(0, -1), "frame must be at least 1 (frames are 1-based), got -1"
    ),
    "negative id": (with_field(1, -1), "pedestrian and joint ids must be non-negative"),
    "flag 2": (with_field(9, 2), "occlusion flags must be 0 or 1"),
    "arity 9": (
        JTA_RECORD[:9],
        "expected an array of 10 fields, got [1, 1, 2, 102.0, 204.0, 0.0, 0.0, 10.0, 0]",
    ),
    "arity 11": (
        JTA_RECORD + [0],
        "expected an array of 10 fields, got [1, 1, 2, 102.0, 204.0, 0.0, 0.0, 10.0, 0, 0, 0]",
    ),
    "not a list": ({"frame": 1}, "expected an array of 10 fields, got {'frame': 1}"),
    # Two bad fields: the error is the first check's in field order.
    "negative pedestrian, joint 1.5": (
        with_field(1, -1, 2, 1.5), "joint_id must be an integer, got 1.5"
    ),
    "frame 0, pedestrian 'x'": (
        with_field(0, 0, 1, "x"), "frame must be at least 1 (frames are 1-based), got 0"
    ),
    "flag 2, NaN coordinate": (
        with_field(9, 2, 3, math.nan), "field 3 must be a finite number, got nan"
    ),
    "occluded 2, self_occluded 1.5": (
        with_field(8, 2, 9, 1.5), "self_occluded must be an integer, got 1.5"
    ),
}


def make_ann(video="v", frame=1, ped=1, box=None, distance=10.0):
    box = box or BBox(10.0, 20.0, 30.0, 40.0)
    return AnnotatedBox(video, frame, ped, box, distance)


class TestParseJta:
    def test_groups_by_frame_and_pedestrian(self):
        source = json.dumps(jta_records(1, 7))
        skeletons = parse_jta(source, "vid3")
        assert len(skeletons) == 1
        skeleton = skeletons[0]
        assert (skeleton.video_id, skeleton.frame_id, skeleton.pedestrian_id) == ("vid3", 1, 7)
        assert skeleton.x_px == array("d", (100.0 + j for j in range(22)))
        assert skeleton.joints[3] == (103.0, 206.0, 0.0, 0.0, 10.0)

    def test_parsed_skeletons_hash_by_their_key(self):
        text = jta_dump((1, 1), (1, 2), (2, 1))
        first, again = parse_jta(text, "v"), parse_jta(text, "v")
        assert first == again and first[0] is not again[0]
        assert [*map(hash, first)] == [*map(hash, again)]
        assert len({*first, *again}) == 3
        key = first[0].video_id, first[0].frame_id, first[0].pedestrian_id
        assert hash(first[0]) == hash(dataclasses.replace(first[0], x_px=again[1].x_px))
        assert hash(first[0]) == hash(SkeletonInstance(*key, *[()] * 5))

    def test_a_parsed_skeleton_keeps_fewer_than_2000_bytes(self):
        # 22 joints of five coordinates: 880 bytes as doubles, about 3,900
        # as tuples of float objects.
        text = jta_dump(*((frame, ped) for frame in range(1, 11) for ped in range(10)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            skeletons = parse_jta(text, "v")
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(skeletons) == 100
        assert kept < 2000 * len(skeletons)

    def test_incomplete_skeleton(self):
        source = json.dumps(jta_records(1, 7)[:21])
        with pytest.raises(IncompleteSkeleton) as exc_info:
            parse_jta(source, "v")
        assert exc_info.value.frame_id == 1
        assert exc_info.value.pedestrian_id == 7

    def test_duplicate_joint_detected(self):
        rows = jta_records(1, 7)
        rows[5][2] = 4
        with pytest.raises(IncompleteSkeleton):
            parse_jta(json.dumps(rows), "v")

    def test_joint_id_out_of_range(self):
        rows = jta_records(1, 7)
        rows[21][2] = 22
        with pytest.raises(IncompleteSkeleton):
            parse_jta(json.dumps(rows), "v")

    def test_shuffled_records_equal_sorted(self):
        rows = jta_records(1, 1) + jta_records(1, 2) + jta_records(2, 1)
        shuffled = list(rows)
        random.Random(4).shuffle(shuffled)
        assert parse_jta(json.dumps(shuffled), "v") == parse_jta(json.dumps(rows), "v")

    def test_output_sorted(self):
        rows = jta_records(2, 1) + jta_records(1, 5) + jta_records(1, 2)
        keys = [(s.frame_id, s.pedestrian_id) for s in parse_jta(json.dumps(rows), "v")]
        assert keys == [(1, 2), (1, 5), (2, 1)]

    def test_custom_joint_count(self):
        source = json.dumps(jta_records(1, 1, n_joints=15))
        skeletons = parse_jta(source, "v", joints_per_skeleton=15)
        assert len(skeletons[0].joints) == 15

    def test_no_joint_count_builds_no_skeleton(self):
        with pytest.raises(IncompleteSkeleton, match=r"^expected 0 joints, got 1 \(frame 1, pe"):
            parse_jta(json.dumps(jta_records(1, 1, n_joints=1)), "v", joints_per_skeleton=0)

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            parse_jta("[1, 2", "v")

    def test_top_level_not_array(self):
        with pytest.raises(ParseError):
            parse_jta('{"a": 1}', "v")

    def test_wrong_arity_names_record(self):
        rows = jta_records(1, 1)
        rows[3] = rows[3][:9]
        with pytest.raises(ParseError) as exc_info:
            parse_jta(json.dumps(rows), "v")
        assert "record 3" in str(exc_info.value)

    def test_non_integer_frame(self):
        rows = jta_records(1, 1)
        rows[0][0] = 1.5
        with pytest.raises(ParseError):
            parse_jta(json.dumps(rows), "v")

    def test_negative_ids(self):
        rows = jta_records(1, 1)
        rows[0][1] = -1
        with pytest.raises(ParseError):
            parse_jta(json.dumps(rows), "v")

    def test_bad_occlusion_flag(self):
        rows = jta_records(1, 1)
        rows[0][8] = 2
        with pytest.raises(ParseError):
            parse_jta(json.dumps(rows), "v")

    def test_non_finite_coordinate(self):
        rows = jta_records(1, 1)
        rows[0][3] = None
        with pytest.raises(ParseError):
            parse_jta(json.dumps(rows), "v")

    @pytest.mark.parametrize(
        "record, outcome", JTA_RECORD_CASES.values(), ids=JTA_RECORD_CASES.keys()
    )
    def test_fast_and_field_checks_agree(self, monkeypatch, tmp_path, record, outcome):
        rows = jta_records(1, 1)
        rows[2] = record
        if isinstance(outcome, list):
            # The group of the record as it normalises, so that the dump is valid.
            rows, want = jta_records(*outcome[:2]), jta_records(*outcome[:2])
            rows[2], want[2] = record, outcome
            path = tmp_path / "dump.json"
            path.write_text(json.dumps(rows), encoding="utf-8")
            got = TestStreamedJta.streamed(monkeypatch, path, formats._JTA_BLOCK)
            # repr tells 1 from True and 102 from 102.0, which == does not.
            assert got == (repr(parse_jta(json.dumps(want), "v")), False)
        else:
            with pytest.raises(ParseError) as exc_info:
                parse_jta(json.dumps(rows), "v")
            assert str(exc_info.value) == f"{outcome} (record 2)"
            assert exc_info.value.location == "record 2"

    def test_first_bad_record_is_in_record_order(self):
        rows = jta_records(1, 1)
        rows[7][0] = 0
        rows[5][3] = math.nan
        with pytest.raises(ParseError) as exc_info:
            parse_jta(json.dumps(rows), "v")
        assert str(exc_info.value) == "field 3 must be a finite number, got nan (record 5)"
        assert exc_info.value.location == "record 5"

    @pytest.mark.parametrize("frame", [0, 0.0, False])
    def test_frame_zero_rejected(self, frame):
        rows = jta_records(1, 1) + jta_records(0, 1)
        rows[22][0] = frame
        with pytest.raises(ParseError) as exc_info:
            parse_jta(json.dumps(rows), "v")
        assert str(exc_info.value) == (
            "frame must be at least 1 (frames are 1-based), got 0 (record 22)"
        )


def jta_dump(*groups, edit=None):
    """The text of a dump of ``jta_records`` groups, ``edit`` applied to its records."""
    rows = [row for frame, ped in groups for row in jta_records(frame, ped)]
    if edit:
        edit(rows)
    return json.dumps(rows)


def shuffled(rows):
    random.Random(8).shuffle(rows)


def set_field(index, field, value):
    """An edit that sets ``field`` of record ``index`` to ``value``."""
    def edit(rows):
        rows[index][field] = value
    return edit


def respell(spell, fields):
    """An edit that spells ``fields`` of every record as ``spell`` of its value."""
    def edit(rows):
        for row in rows:
            for field in fields:
                row[field] = spell(row[field])
    return edit


def booleans(rows):
    """An edit to pedestrians 0 and 1: their ids and flags as booleans, some true."""
    for index, row in enumerate(rows):
        row[1], row[8], row[9] = bool(row[1]), index % 3 == 0, index % 5 == 0


def canonical(text):
    """The dump ``text`` respelled with JSON integer ids and flags and float coordinates."""
    return json.dumps([
        [*map(int, rec[:3]), *map(float, rec[3:8]), *map(int, rec[8:])]
        for rec in json.loads(text)
    ])


# Dumps that parse_jta streams, and whether the stream must hand each over to
# the whole-document code.
STREAM_CASES = {
    "records split across blocks": (jta_dump((1, 1), (1, 2), (2, 1)), False),
    "shuffled, so groups span blocks": (jta_dump((1, 1), (1, 2), (2, 1), edit=shuffled), False),
    "newline between records": (jta_dump((1, 1), (2, 1)).replace("], [", "],\n["), False),
    "space before the comma": (jta_dump((1, 1), (2, 1)).replace("], [", "] ,["), False),
    "newlines around the comma": (jta_dump((1, 1), (2, 1)).replace("], [", "]\n,\n["), False),
    "whitespace longer than a block": (
        jta_dump((1, 1), (2, 1)).replace("], [", "]" + " " * 400 + "\t,\r\n["), False
    ),
    "empty array": ("[]", False),
    "'],' inside a string": (jta_dump((1, 1), (2, 1), edit=set_field(30, 5, "x], [y")), True),
    "'] ,' inside a string": (jta_dump((1, 1), (2, 1), edit=set_field(30, 5, "x] \t, [y")), True),
    "nested array": (jta_dump((1, 1), (2, 1), edit=set_field(30, 4, [1.0, [2.0]])), True),
    "data after the array": (jta_dump((1, 1), (2, 1)) + ", [1]", True),
    "top-level object": ('{"records": ' + jta_dump((1, 1)) + ', "more": [1]}', True),
    "a joint of a group again after it was built": (
        jta_dump((1, 1), (2, 1), edit=lambda rows: rows.append(list(rows[0]))), False
    ),
    "a whole group again after it was built": (jta_dump((1, 1), (2, 1), (1, 1)), False),
    "missing joint": (jta_dump((1, 1), (2, 1), edit=lambda rows: rows.pop(30)), False),
    "integral-float id late in the file": (
        jta_dump((1, 1), (2, 1), (3, 1), edit=set_field(-1, 0, 3.0)), False
    ),
    "every value a float": (
        jta_dump((1, 1), (1, 2), (2, 1), edit=respell(float, range(10))), False
    ),
    "booleans as flags and ids": (jta_dump((1, 0), (1, 1), (2, 1), edit=booleans), False),
    "integer coordinates": (
        jta_dump((1, 1), (1, 2), (2, 1), edit=respell(int, range(3, 8))), False
    ),
    "NaN late in the file": (jta_dump((1, 1), (2, 1), edit=set_field(-1, 7, math.nan)), True),
    "an integer coordinate beyond float range late in the file": (
        jta_dump((1, 1), (2, 1), edit=set_field(-1, 4, 10**400)), True
    ),
}

# The cases whose groups do not join, which the stream words itself, and their errors.
GROUP_ERRORS = {
    "a joint of a group again after it was built": (
        "IncompleteSkeleton", "expected 22 joints, got 23 (frame 1, pedestrian 1)",
        "frame 1, pedestrian 1",
    ),
    "a whole group again after it was built": (
        "IncompleteSkeleton", "expected 22 joints, got 44 (frame 1, pedestrian 1)",
        "frame 1, pedestrian 1",
    ),
    "missing joint": (
        "IncompleteSkeleton", "expected 22 joints, got 21 (frame 2, pedestrian 1)",
        "frame 2, pedestrian 1",
    ),
}


def drop(index):
    """An edit that removes record ``index``."""
    return lambda rows: rows.pop(index)


def both(*edits):
    """An edit that applies each of ``edits`` in turn."""
    def edit(rows):
        for each in edits:
            each(rows)
    return edit


def json_error(text):
    """The error of ``text``, which does not parse, as parse_jta words it."""
    with pytest.raises(json.JSONDecodeError) as exc_info:
        json.loads(text)
    return "ParseError", f"malformed JSON: {exc_info.value}", None


# Dumps with a bad group and another error, and the error that wins: a piece
# that does not parse or holds a bad record, wherever it is, else the least
# bad (frame, pedestrian), wherever its records are.
GROUP_PRECEDENCE = {
    "a missing joint early, NaN late": (
        jta_dump((1, 1), (2, 1), (3, 1), edit=both(drop(5), set_field(-1, 7, math.nan))),
        ("ParseError", "field 7 must be a finite number, got nan (record 64)", "record 64"),
    ),
    "a missing joint early, a syntax error late": (
        jta_dump((1, 1), (2, 1), (3, 1), edit=drop(5))[:-1], None
    ),
    "a joint repeated late": (
        jta_dump((1, 1), (2, 1), (3, 1), edit=lambda rows: rows.append(list(rows[0]))),
        GROUP_ERRORS["a joint of a group again after it was built"],
    ),
    "wrong joint ids early, a smaller incomplete key later": (
        jta_dump((2, 1), (1, 2), (3, 1), edit=both(set_field(0, 2, 1), drop(30))),
        ("IncompleteSkeleton", "expected 22 joints, got 21 (frame 1, pedestrian 2)",
         "frame 1, pedestrian 2"),
    ),
    "wrong joint ids on the least key": (
        jta_dump((2, 1), (1, 2), (3, 1), edit=both(set_field(22, 2, 1), drop(50))),
        ("IncompleteSkeleton", "joint ids do not cover 0..21 (frame 1, pedestrian 2)",
         "frame 1, pedestrian 2"),
    ),
}

# The cases that respell a valid dump, each of which parses as its canonical spelling.
RESPELLED = [
    "integral-float id late in the file", "every value a float", "booleans as flags and ids",
    "integer coordinates",
]


def distinct_records(frame, ped):
    """``jta_records`` of (frame, pedestrian) with coordinates of their own."""
    return jta_records(frame, ped, base=(100.0 + frame, 200.0 + ped), z=10.0 + frame + ped / 8)


# Orders of a dump's records, each an edit in place; the skeletons must not change.
RECORD_ORDERS = {
    "run order": lambda rows: None,
    "reversed": list.reverse,
    "sorted by joint id, so every group spans pieces": lambda rows: rows.sort(key=lambda r: r[2]),
    "shuffled": shuffled,
}


def jta_outcome(parse):
    """The repr of the skeletons or detections ``parse()`` returns, which tells 1
    from 1.0 and True, or the class, message and location of the error it raises."""
    try:
        return repr(parse())
    except (ParseError, JoinError) as exc:
        return type(exc).__name__, str(exc), exc.location


class TestStreamedJta:
    """A dump read from a file in small blocks parses exactly as its whole text does."""

    @staticmethod
    def streamed(monkeypatch, path, block):
        """The outcome of parse_jta on ``path`` read ``block`` characters at a
        time, and whether it handed the dump over to the whole-document code."""
        whole_reads = []
        load_json = formats.load_json

        def spy(source, **kwargs):
            if not kwargs:
                whole_reads.append(len(source))
            return load_json(source, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(formats, "load_json", spy)
            patch.setattr(formats, "_JTA_BLOCK", block)
            with path.open(encoding="utf-8") as dump:
                outcome = jta_outcome(lambda: parse_jta(dump, "v"))
        return outcome, bool(whole_reads)

    @pytest.mark.parametrize("block", [1, 7, 300])
    @pytest.mark.parametrize("case", STREAM_CASES)
    def test_equals_the_whole_text(self, monkeypatch, tmp_path, case, block):
        text, falls_back = STREAM_CASES[case]
        path = tmp_path / "dump.json"
        path.write_text(text, encoding="utf-8")
        outcome, fell_back = self.streamed(monkeypatch, path, block)
        whole = jta_outcome(lambda: parse_jta(text, "v"))
        assert outcome == whole == GROUP_ERRORS.get(case, whole)
        assert fell_back == falls_back

    def test_separator_split_across_blocks_is_no_cut(self):
        text = json.dumps(jta_records(1, 1)[:2])
        bracket = text.index("], [")
        assert list(formats._jta_pieces([text[: bracket + 1], text[bracket + 1 :]])) == [text]
        k = bracket + 5
        assert list(formats._jta_pieces([text[:k], text[k:]])) == [
            text[: bracket + 1] + "]", "[" + text[bracket + 2 :]
        ]

    def test_pieces_hold_no_text_before_their_cut(self):
        # Blocks are sliced on demand, so each is traced from when the
        # generator asks for it. While a piece is held, the generator keeps
        # that piece, its newest block and what follows the cut, and no
        # copy of the text the piece was cut from.
        rng = random.Random(4)
        text = json.dumps([
            [frame, ped, j, rng.uniform(0, 1920), rng.uniform(0, 1080),
             rng.uniform(-5, 5), rng.uniform(-2, 2), rng.uniform(3, 90), 0, 0]
            for frame in range(1, 60) for ped in range(20) for j in range(22)
        ])
        assert 2_700_000 < len(text) < 3_300_000
        block = 1 << 20
        tracemalloc.start()
        try:
            pieces = formats._jta_pieces(text[i : i + block] for i in range(0, len(text), block))
            next(pieces)
            piece = next(pieces)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        pieces.close()
        assert len(piece) > block - 200
        assert held < 2.5 * len(piece)

    def test_record_nested_past_the_recursion_limit_is_read_whole(self, monkeypatch, tmp_path):
        deep = "[" * 100000 + "]" * 100000
        text = jta_dump((1, 1), (2, 1)).replace("], [", f"], {deep}, [", 1)
        path = tmp_path / "dump.json"
        path.write_text(text, encoding="utf-8")
        outcome, fell_back = self.streamed(monkeypatch, path, 4096)
        assert fell_back
        assert outcome == jta_outcome(lambda: parse_jta(text, "v"))
        assert outcome[1].startswith("malformed JSON: maximum recursion depth exceeded")

    def test_the_whole_read_never_returns(self, monkeypatch):
        # Were the stream to refuse a valid dump, the whole read would find no
        # error to word, and must say so rather than return None.
        monkeypatch.setattr(formats, "_jta_groups", lambda records, joint_ids: None)
        with pytest.raises(AssertionError, match="^_jta_rows refuses none of the records$"):
            parse_jta(jta_dump((1, 1), (2, 1)), "v")

    def test_a_piece_gives_its_complete_groups_end_to_end(self):
        # Two groups whole in the piece, and one that another piece completes.
        records = [*distinct_records(1, 1), *distinct_records(2, 5)[:9], *distinct_records(1, 2)]
        records.reverse()
        keys, whole, rest = formats._jta_groups(records, tuple(range(22)))
        assert keys == [(1, 2), (1, 1)]
        assert [(type(c), c.typecode, len(c)) for c in whole] == [(array, "d", 2 * 22)] * 5
        assert whole[0] == array("d", [101.0 + j for j in range(22)] * 2)
        assert whole[4] == array("d", [11.25] * 22 + [11.125] * 22)
        assert [(key, len(rows)) for key, rows in rest] == [((2, 5), 9)]

    def test_string_source_is_streamed_too(self, monkeypatch):
        text, _ = STREAM_CASES["records split across blocks"]
        whole = parse_jta(text, "v")
        monkeypatch.setattr(formats, "_JTA_BLOCK", 5)
        assert repr(parse_jta(text, "v")) == repr(whole)

    @pytest.mark.parametrize("case", RESPELLED)
    def test_respelled_dump_parses_as_canonical(self, case):
        text, _ = STREAM_CASES[case]
        assert canonical(text) != text
        assert repr(parse_jta(text, "v")) == repr(parse_jta(canonical(text), "v"))

    @pytest.mark.parametrize(
        "separator, spell",
        [("], [", int), ("] , [", int), ("]\n,\n[", int), ("], [", float)],
        ids=["plain", "spaced", "newlines", "float-spelled"],
    )
    def test_streaming_holds_little_beyond_its_skeletons(
        self, monkeypatch, tmp_path, separator, spell
    ):
        # About 2 MB in 64 KiB blocks: 30 blocks, as a 30 MB dump has in the
        # default 1 MiB blocks. The skeletons keep 5 of each record's 10 values,
        # so the stream's peak is measured beyond the skeletons it returns.
        # ``spell`` writes the ids and flags.
        rng = random.Random(3)
        rows = []
        for frame in range(1, 40):
            for ped in range(20):
                rows += [
                    [spell(frame), spell(ped), spell(j), rng.uniform(0, 1920),
                     rng.uniform(0, 1080), rng.uniform(-5, 5), rng.uniform(-2, 2),
                     rng.uniform(3, 90), spell(0), spell(0)]
                    for j in range(22)
                ]
        text = json.dumps(rows).replace("], [", separator)
        del rows
        assert 1_800_000 < len(text) < 2_200_000
        path = tmp_path / "dump.json"
        path.write_text(text, encoding="utf-8")
        tracemalloc.start()
        try:
            json.loads(text)
            loads_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            monkeypatch.setattr(formats, "_JTA_BLOCK", 1 << 16)
            with path.open(encoding="utf-8") as dump:
                skeletons = parse_jta(dump, "v")
            kept, stream_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(skeletons) == 39 * 20
        assert stream_peak - kept < loads_peak / 4


class TestPooledJta:
    """The pieces of a dump parse alike in this process and on worker
    processes, and no worker outlives parse_jta."""

    @staticmethod
    def pooled(monkeypatch, path, block, workers, started):
        """The outcome and hand-over flag of parse_jta on ``path`` read
        ``block`` characters at a time, its pieces sent to ``workers``
        processes; ``started`` gets each worker process it starts."""
        start = multiprocessing.context.ForkProcess.start

        def counted(process):
            started.append(process)
            start(process)

        with monkeypatch.context() as patch:
            patch.setattr(multiprocessing.context.ForkProcess, "start", counted)
            patch.setattr(formats, "_jta_workers", lambda size: workers)
            outcome, fell_back = TestStreamedJta.streamed(monkeypatch, path, block)
        assert multiprocessing.active_children() == []
        return outcome, fell_back

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", STREAM_CASES)
    def test_in_process_and_pooled_agree(self, monkeypatch, tmp_path, case, workers):
        text, falls_back = STREAM_CASES[case]
        path = tmp_path / "dump.json"
        path.write_text(text, encoding="utf-8")
        started = []
        # 1500-character pieces hold some groups whole and split others.
        outcome, fell_back = self.pooled(monkeypatch, path, 1500, workers, started)
        whole = jta_outcome(lambda: parse_jta(text, "v"))
        assert outcome == whole == GROUP_ERRORS.get(case, whole)
        assert fell_back == falls_back
        assert len(started) == (0 if workers == 1 else workers)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("block", [1, 7, 300])
    @pytest.mark.parametrize("case", GROUP_PRECEDENCE)
    def test_a_bad_group_is_worded_last(self, monkeypatch, tmp_path, case, block, workers):
        text, outcome = GROUP_PRECEDENCE[case]
        outcome = outcome or json_error(text)
        path = tmp_path / "dump.json"
        path.write_text(text, encoding="utf-8")
        assert self.pooled(monkeypatch, path, block, workers, [])[0] == outcome
        assert jta_outcome(lambda: parse_jta(text, "v")) == outcome

    @pytest.mark.parametrize(
        "case", ["records split across blocks", "shuffled, so groups span blocks"]
    )
    def test_columns_are_arrays_of_doubles_here_and_from_workers(self, monkeypatch, tmp_path, case):
        # Groups whole in a piece are built by the process that parsed it,
        # and groups split across pieces by the parent.
        path = tmp_path / "dump.json"
        path.write_text(STREAM_CASES[case][0], encoding="utf-8")
        parses = []
        for workers in (1, 2):
            with monkeypatch.context() as patch:
                patch.setattr(formats, "_jta_workers", lambda size: workers)
                patch.setattr(formats, "_JTA_BLOCK", 1500)
                with path.open(encoding="utf-8") as dump:
                    parses.append(parse_jta(dump, "v"))
        assert multiprocessing.active_children() == []
        assert parses[0] == parses[1] and len(parses[0]) == 3
        for skeleton in parses[0] + parses[1]:
            for name in ("x_px", "y_px", "x3d_m", "y3d_m", "z3d_m"):
                column = getattr(skeleton, name)
                assert (type(column), column.typecode, len(column)) == (array, "d", 22)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_columns_have_no_spare_capacity(self, monkeypatch, workers):
        # A column unpickled on its own grows as it is read and keeps spare
        # doubles; one cut from its piece's columns is allocated at its size.
        text = jta_dump(*((frame, ped) for frame in range(1, 9) for ped in range(3)))
        monkeypatch.setattr(formats, "_jta_workers", lambda size: workers)
        monkeypatch.setattr(formats, "_JTA_BLOCK", 4096)
        skeletons = parse_jta(text, "v")
        assert multiprocessing.active_children() == [] and len(skeletons) == 24
        empty = sys.getsizeof(array("d"))
        for skeleton in skeletons:
            for column in (skeleton.x_px, skeleton.y_px, skeleton.x3d_m, skeleton.y3d_m,
                           skeleton.z3d_m):
                assert sys.getsizeof(column) == empty + 8 * len(column)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("block", [1, 7, 300])
    @pytest.mark.parametrize("order", RECORD_ORDERS)
    def test_record_order_does_not_matter(self, monkeypatch, tmp_path, order, block, workers):
        groups = [(frame, ped) for frame in range(1, 14) for ped in range(7)]
        rows = [row for group in groups for row in distinct_records(*group)]
        assert len(rows) == 2002
        expected = repr(parse_jta(json.dumps(rows), "v"))
        RECORD_ORDERS[order](rows)
        path = tmp_path / "dump.json"
        path.write_text(json.dumps(rows), encoding="utf-8")
        assert self.pooled(monkeypatch, path, block, workers, []) == (expected, False)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("block", [1, 7, 300])
    @pytest.mark.parametrize("comma", [",]", " , ]"])
    def test_a_trailing_comma_is_malformed_json(self, monkeypatch, tmp_path, comma, block, workers):
        # The stream cuts at the last "]," and must not read what is left as "[]".
        text = jta_dump((1, 1), (2, 1))[:-1] + comma
        with pytest.raises(json.JSONDecodeError) as whole:
            json.loads(text)
        path = tmp_path / "dump.json"
        path.write_text(text, encoding="utf-8")
        outcome, fell_back = self.pooled(monkeypatch, path, block, workers, [])
        assert outcome == ("ParseError", f"malformed JSON: {whole.value}", None)
        assert fell_back
        assert jta_outcome(lambda: parse_jta(text, "v")) == outcome

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("block", [1, 7, 300])
    def test_a_spaced_empty_array_is_no_skeleton(self, monkeypatch, tmp_path, block, workers):
        text = " [ ] "  # It ends as a last piece without records does, but was never cut.
        path = tmp_path / "dump.json"
        path.write_text(text, encoding="utf-8")
        assert self.pooled(monkeypatch, path, block, workers, []) == ("[]", False)
        assert parse_jta(text, "v") == []

    def test_no_worker_outlives_an_error(self, monkeypatch, tmp_path):
        # A byte that is not UTF-8, past the 8 KiB that a text file decodes
        # at a time, stops the read while pieces are with the workers.
        text = jta_dump(*((frame, 1) for frame in range(1, 31))).encode("utf-8")
        assert len(text) > 3 * 8192
        path = tmp_path / "dump.json"
        path.write_bytes(text[:-100] + b"\xff" + text[-99:])
        started = []
        with pytest.raises(UnicodeDecodeError) as exc_info:
            self.pooled(monkeypatch, path, 7, 2, started)
        assert exc_info.value.start == len(text) - 100
        assert len(started) == 2
        assert multiprocessing.active_children() == []

    @staticmethod
    def run_apart(script, *args):
        """The exit code, stdout and stderr of ``script`` run on ``args`` by a
        new Python in a session of its own, which gets SIGINT if the script's
        first line of stdout asks for it. No process of the session is left."""
        proc = subprocess.Popen(
            [sys.executable, "-c", script, *map(str, args)], start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            first = proc.stdout.readline()
            if first == "interrupt me\n":
                time.sleep(0.1)
                os.killpg(proc.pid, signal.SIGINT)
            out, err = proc.communicate(timeout=20)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)
        return proc.returncode, first + out, err

    def test_an_interrupt_ends_a_pooled_parse(self, tmp_path):
        # The workers ignore the interrupt, which the parse's process handles
        # alone, with one traceback.
        path = tmp_path / "dump.json"
        path.write_text(jta_dump(*((frame, 1) for frame in range(1, 31))), encoding="utf-8")
        script = (
            "import sys, time\n"
            "from skel2box import formats\n"
            "parse = formats._jta_groups\n"
            "def slow(piece, joint_ids):\n"
            "    time.sleep(0.02)\n"
            "    return parse(piece, joint_ids)\n"
            "formats._jta_groups, formats._jta_workers = slow, lambda size: 2\n"
            "formats._JTA_BLOCK = 1024\n"
            "print('interrupt me', flush=True)\n"
            "formats.parse_jta(open(sys.argv[1], encoding='utf-8'), 'v')\n"
        )
        code, _, err = self.run_apart(script, path)
        assert code == -signal.SIGINT
        assert err.count("Traceback") == 1 and err.endswith("KeyboardInterrupt\n")

    def test_a_killed_worker_ends_the_job(self, tmp_path):
        # A worker killed from outside, as by the out-of-memory killer, on its
        # second piece: synthesize exits 2 at once and writes nothing.
        path = tmp_path / "dump.json"
        path.write_text(jta_dump(*((frame, 1) for frame in range(1, 31))), encoding="utf-8")
        out = tmp_path / "gt.json"
        script = (
            "import os, signal, sys\n"
            "from skel2box import cli, formats\n"
            "parse, calls = formats._jta_groups, []\n"
            "def dying(piece, joint_ids):\n"
            "    calls.append(piece)\n"
            "    if len(calls) == 2:\n"
            "        os.kill(os.getpid(), signal.SIGKILL)\n"
            "    return parse(piece, joint_ids)\n"
            "formats._jta_groups, formats._jta_workers = dying, lambda size: 2\n"
            "formats._JTA_BLOCK = 1024\n"
            "sys.exit(cli.run(sys.argv[1:]))\n"
        )
        code, stdout, err = self.run_apart(
            script, "synthesize", "--jta", path, "--alpha", 100, "--out-coco", out
        )
        assert (code, stdout) == (2, "")
        assert err == "error: a process parsing the dump ended with exit code -9\n"
        assert not out.exists()

    def test_a_small_dump_starts_no_worker(self, monkeypatch, tmp_path):
        path = tmp_path / "dump.json"
        path.write_text(STREAM_CASES["records split across blocks"][0], encoding="utf-8")
        with monkeypatch.context() as patch:
            patch.setattr(multiprocessing.context.ForkProcess, "start", pytest.fail)
            _, fell_back = TestStreamedJta.streamed(monkeypatch, path, 7)
        assert not fell_back


class TestJtaWorkers:
    """The worker count, checked without starting a process."""

    LARGE = 64 * formats._JTA_BLOCK

    @pytest.fixture(autouse=True)
    def fork(self, monkeypatch):
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"), raising=False)
        monkeypatch.setattr(formats, "_JTA_POOL_FROM", 4 * formats._JTA_BLOCK)

    def test_one_per_usable_core(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert formats._jta_workers(self.LARGE) == 3

    @pytest.mark.parametrize("cpus, workers", [(4096, 64), (16, 16), (None, 1)])
    def test_cpu_count_without_affinity(self, monkeypatch, cpus, workers):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert formats._jta_workers(self.LARGE) == workers

    @pytest.mark.parametrize(
        "size, workers", [(1, 1), (4 * formats._JTA_BLOCK - 1, 1), (4 * formats._JTA_BLOCK, 4),
                          (4 * formats._JTA_BLOCK + 1, 5)]
    )
    def test_no_more_than_the_pieces_of_a_large_dump(self, monkeypatch, size, workers):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        assert formats._jta_workers(size) == workers

    def test_one_where_processes_cannot_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        assert formats._jta_workers(self.LARGE) == 1

    def test_one_where_another_thread_runs(self, monkeypatch):
        # A thread of the caller's might hold a lock that a forked worker would wait on forever.
        monkeypatch.setattr(threading, "active_count", lambda: 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        assert formats._jta_workers(self.LARGE) == 1


class TestFrameTable:
    def test_most_frames_accepted(self):
        assert MAX_FRAMES == 1_000_000
        manifest = DatasetManifest("d", 0, 0, (("a", MAX_FRAMES - 1), ("b", 1)))
        assert sum(count for _, count in manifest.videos) == MAX_FRAMES

    @pytest.mark.parametrize(
        "videos, video",
        [((("a", MAX_FRAMES + 1),), "a"), ((("a", MAX_FRAMES), ("b", 1), ("c", 1)), "b")],
        ids=["one_video", "sum_of_videos"],
    )
    def test_larger_table_names_the_video(self, videos, video):
        with pytest.raises(ParseError) as exc_info:
            DatasetManifest("d", 0, 0, videos)
        assert str(exc_info.value) == (
            f"video {video!r} puts the frame table over 1000000 frames"
        )

    def test_checked_before_any_image_is_built(self):
        refs = [FrameRef(1, "v", 20_000_000)]
        with pytest.raises(ParseError, match="^video 'v' puts the frame table over"):
            manifest_for_annotations(refs, dataset_id="d", image_w=0, image_h=0)
        doc = {"images": [{"id": 1, "file_name": "v/20000000.jpg"}], "annotations": []}
        with pytest.raises(ParseError, match="^video 'v' puts the frame table over"):
            parse_coco_gt(json.dumps(doc))


class TestManifestValues:
    """A manifest holds only what parse_coco_gt takes in ``info``, so emit_coco can write it."""

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("image_w", math.inf, "image_w must be a finite number, got inf"),
            ("image_h", math.nan, "image_h must be a finite number, got nan"),
            ("image_w", -1, "image_w must be at least 0, got -1.0"),
            ("image_h", -0.5, "image_h must be at least 0, got -0.5"),
            ("image_w", True, "image_w must be a finite number, got True"),
            ("alpha_used", math.nan, "alpha_used must be a finite number, got nan"),
            ("alpha_used", "100", "alpha_used must be a finite number, got '100'"),
            ("distance_limit_m", -math.inf, "distance_limit_m must be a finite number, got -inf"),
        ],
    )
    def test_refused_as_the_reader_words_it(self, key, value, message):
        fields = {"dataset_id": "d", "image_w": 0, "image_h": 0, "videos": (("v", 1),)}
        with pytest.raises(InvalidArgument) as exc_info:
            DatasetManifest(**{**fields, key: value})
        assert (str(exc_info.value), exc_info.value.location) == (message, None)
        # The reader checks info first, so its errors keep their location.
        info = {**fields, "videos": [["v", 1]], key: value}
        doc = {"info": info, "images": [{"id": 1, "file_name": "v/000001.jpg"}], "annotations": []}
        with pytest.raises(ParseError) as exc_info:
            parse_coco_gt(json.dumps(doc))
        assert str(exc_info.value) == f"{message} (info.{key})"

    def test_a_size_is_required_and_the_rest_optional(self):
        with pytest.raises(InvalidArgument, match="^image_h must be a finite number, got None$"):
            DatasetManifest("d", 0, None, (("v", 1),))
        manifest = DatasetManifest("d", 0, 1e300, (("v", 1),), distance_limit_m=-40)
        assert (manifest.alpha_used, manifest.distance_limit_m) == (None, -40)
        with pytest.raises(InvalidArgument, match="^alpha_used must be a finite number"):
            dataclasses.replace(manifest, alpha_used=math.inf)


class TestEmitCoco:
    def test_field_mapping(self):
        manifest = DatasetManifest("d", 1920, 1080, (("v", 3),))
        doc = json.loads(emit_coco([make_ann(frame=3)], manifest))
        assert doc["categories"] == [{"id": 1, "name": "pedestrian"}]
        assert len(doc["images"]) == 3
        assert doc["images"][2]["file_name"] == "v/000003.jpg"
        assert doc["images"][0]["width"] == 1920
        (entry,) = doc["annotations"]
        assert entry["bbox"] == [10, 20, 30, 40]
        assert entry["area"] == 1200
        assert entry["image_id"] == 3
        assert entry["id"] == 1
        assert entry["category_id"] == 1
        assert entry["iscrowd"] == 0
        assert entry["pedestrian_id"] == 1
        assert entry["distance_m"] == 10

    def test_empty_annotations_valid_document(self):
        manifest = DatasetManifest("d", 1920, 1080, (("v", 2),))
        doc = json.loads(emit_coco([], manifest))
        assert doc["annotations"] == []
        assert len(doc["images"]) == 2

    def test_ids_sequential_in_sorted_order(self):
        manifest = DatasetManifest("d", 100, 100, (("a", 2), ("b", 1)))
        annotations = [
            make_ann("b", 1, 4),
            make_ann("a", 2, 9),
            make_ann("a", 1, 3),
        ]
        doc = json.loads(emit_coco(annotations, manifest))
        assert [a["id"] for a in doc["annotations"]] == [1, 2, 3]
        assert [a["pedestrian_id"] for a in doc["annotations"]] == [3, 9, 4]

    def test_unknown_video(self):
        manifest = DatasetManifest("d", 100, 100, (("a", 2),))
        with pytest.raises(JoinError, match=r"^annotation \(b, 1, 1\) is outside the manifest$"):
            emit_coco([make_ann("b", 1, 1)], manifest)
        with pytest.raises(JoinError, match=r"^annotation \(a, 3, 1\) is outside the manifest$"):
            emit_coco([make_ann("a", 3, 1)], manifest)

    def test_non_finite_values_rejected(self):
        ann = make_ann(box=BBox(math.nan, 20.0, 30.0, 40.0))
        with pytest.raises(InvalidArgument) as exc_info:
            emit_coco([ann], manifest_for_annotations([ann], "ds", 100.0, 100.0))
        assert str(exc_info.value) == (
            "box field must be a finite number, got nan (annotation (v, 1, 1))"
        )
        assert exc_info.value.location == "annotation (v, 1, 1)"

    def test_area_beyond_float_range_rejected(self):
        # The first annotation in written order that cannot be written is named.
        anns = [
            make_ann(ped=2, box=BBox(0, 0, 1e200, 1e200)),
            make_ann(frame=2, box=BBox(0, 0, math.inf, 1)),
        ]
        with pytest.raises(InvalidArgument) as exc_info:
            emit_coco(anns, manifest_for_annotations(anns, "ds", 0, 0))
        assert str(exc_info.value) == (
            "box width times height must be finite, got 1e+200 and 1e+200 (annotation (v, 1, 2))"
        )
        # A distance error is raised as it was, whatever box comes after it.
        anns = [make_ann(distance=0.0), make_ann(frame=2, box=BBox(0, 0, 1e200, 1e200))]
        with pytest.raises(InvalidArgument) as exc_info:
            emit_coco(anns, manifest_for_annotations(anns, "ds", 0, 0))
        assert str(exc_info.value) == "distance must be finite and positive, got 0.0"

    @pytest.mark.parametrize("distance", [True, "5", None, math.nan, -math.inf])
    def test_distance_not_a_number_rejected_as_read(self, distance):
        # parse_coco_gt refuses each of these distance_m values, so emit_coco may not write one.
        ann = make_ann(distance=distance)
        with pytest.raises(InvalidArgument) as exc_info:
            emit_coco([ann], DatasetManifest("d", 100, 100, (("v", 1),)))
        assert str(exc_info.value) == f"distance_m must be a finite number, got {distance!r}"
        assert exc_info.value.location is None

    def test_join_error_comes_before_every_distance_error(self):
        # The annotation outside the manifest is named, though two bad distances come first.
        anns = [make_ann(distance=True), make_ann(distance=0.0, frame=2), make_ann("w")]
        with pytest.raises(JoinError, match=r"^annotation \(w, 1, 1\) is outside the manifest$"):
            emit_coco(anns, DatasetManifest("d", 100, 100, (("v", 2),)))

    def test_unknown_distance_omitted(self):
        manifest = DatasetManifest("d", 100, 100, (("v", 1),))
        doc = json.loads(emit_coco([make_ann(distance=math.inf)], manifest))
        assert "distance_m" not in doc["annotations"][0]

    def test_manifest_echoed_in_info(self):
        manifest = DatasetManifest(
            "d", 1920, 1080, (("v", 1),), alpha_used=120.5, distance_limit_m=40.0
        )
        info = json.loads(emit_coco([], manifest))["info"]
        assert info["alpha_used"] == 120.5
        assert info["distance_limit_m"] == 40
        assert info["videos"] == [["v", 1]]


# Video ids that JSON must escape, that are not ASCII, empty or hold a slash, and
# box values whose spelling is easy to get wrong: huge, negative zero, subnormal,
# integral, repeating.
AWKWARD_VIDEOS = ('a"b', "c\\d", "e\x01f", "é", "视频", "\ud800", "😀", "", "a/b")
AWKWARD_NUMBERS = (1e16, -0.0, 5e-324, 2.0, 1 / 3)


def as_json_number(value):
    """How the writers spell a number: an integral float as an int."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


def dumped(reference):
    return json.dumps(reference, separators=(",", ":"))


class TestWrittenText:
    """The COCO writers write exactly what json.dumps writes of each document,
    which the tests build as dicts."""

    # Three videos listed out of order, so that image ids run on across them in sorted order.
    VIDEOS = (("视频", 2), ('a"b', 3), ("c\\d", 1))

    def frame_table(self):
        """(video, frame) -> image id: frames of sorted videos numbered from 1."""
        frames = [(v, f) for v, n in sorted(self.VIDEOS) for f in range(1, n + 1)]
        return {frame: image_id for image_id, frame in enumerate(frames, 1)}

    def annotations(self):
        """Annotations on frames of all three videos, out of order, with each of the
        awkward numbers in their boxes, and known and unknown distances."""
        a, b, c, d, e = AWKWARD_NUMBERS
        return [
            AnnotatedBox("视频", 2, 1, BBox(a, b, c, d), 12.5),
            AnnotatedBox('a"b', 3, 4, BBox(e, a, d, e), math.inf),
            AnnotatedBox('a"b', 1, 2, BBox(b, c, a, c), 7),
            AnnotatedBox("c\\d", 1, 9, BBox(d, e, e, a), 1e16),
            AnnotatedBox("视频", 1, 3, BBox(c, d, d, d), math.inf),
            AnnotatedBox('a"b', 1, 1, BBox(-1.5, 0, 1e16, e), e),
        ]

    def test_coco_document(self):
        manifest = DatasetManifest(
            'set "é"\\', 1920.5, 1080, self.VIDEOS, alpha_used=174.0, distance_limit_m=1 / 3
        )
        table = self.frame_table()
        images = [
            {"id": image_id, "width": 1920.5, "height": 1080, "file_name": f"{v}/{f:06d}.jpg"}
            for (v, f), image_id in table.items()
        ]
        records = []
        order = attrgetter("video_id", "frame_id", "pedestrian_id")
        for ann in sorted(self.annotations(), key=order):
            box = ann.box
            record = {
                "id": len(records) + 1,
                "image_id": table[ann.video_id, ann.frame_id],
                "category_id": 1,
                "bbox": [as_json_number(v) for v in (box.x, box.y, box.w, box.h)],
                "area": as_json_number(box.w * box.h),
                "iscrowd": 0,
                "pedestrian_id": ann.pedestrian_id,
            }
            if ann.distance_m != math.inf:
                record["distance_m"] = as_json_number(ann.distance_m)
            records.append(record)
        info = {
            "dataset_id": 'set "é"\\', "image_w": 1920.5, "image_h": 1080,
            "videos": [list(video) for video in self.VIDEOS], "alpha_used": 174,
            "distance_limit_m": 1 / 3,
        }
        reference = {
            "info": info, "images": images, "annotations": records,
            "categories": [{"id": 1, "name": "pedestrian"}],
        }
        text = emit_coco(self.annotations(), manifest)
        assert text == dumped(reference)
        written = [image["file_name"] for image in json.loads(text)["images"]]
        assert written == [coco_file_name(v, f) for v, f in table]

    @pytest.mark.parametrize("video", AWKWARD_VIDEOS)
    def test_coco_file_names_of_awkward_videos(self, video):
        text = emit_coco([make_ann(video, 2)], DatasetManifest("d", 0, 0, ((video, 2),)))
        reference = {
            "info": {"dataset_id": "d", "image_w": 0, "image_h": 0, "videos": [[video, 2]]},
            "images": [{"id": f, "width": 0, "height": 0, "file_name": f"{video}/{f:06d}.jpg"}
                       for f in (1, 2)],
            "annotations": [{"id": 1, "image_id": 2, "category_id": 1, "bbox": [10, 20, 30, 40],
                             "area": 1200, "iscrowd": 0, "pedestrian_id": 1, "distance_m": 10}],
            "categories": [{"id": 1, "name": "pedestrian"}],
        }
        assert text == dumped(reference)
        doc = json.loads(text)
        assert doc["info"]["videos"] == [[video, 2]]
        assert [image["file_name"] for image in doc["images"]] == [
            coco_file_name(video, 1), coco_file_name(video, 2)
        ]

    def test_coco_results(self):
        table = self.frame_table()
        scores = (1 / 3, 1.0, 0.0, 0.5, 5e-324)
        dets = [
            Detection(ann.video_id, ann.frame_id, ann.box, score)
            for ann, score in zip(self.annotations(), scores * 2)
        ]
        reference = [
            {
                "image_id": table[det.video_id, det.frame_id],
                "category_id": 1,
                "bbox": [as_json_number(v) for v in (det.box.x, det.box.y, det.box.w, det.box.h)],
                "score": as_json_number(det.score),
            }
            for det in sorted(dets, key=lambda d: (d.video_id, d.frame_id, -d.score))
        ]
        assert emit_detections(dets, "coco_results", image_id_of_frame=table) == dumped(reference)


class TestManifestCheck:
    """emit_coco writes an annotation only on a frame that its manifest holds."""

    MANIFEST = DatasetManifest("d", 100, 100, (("v", 3), ("u", 2)))

    @pytest.mark.parametrize(
        "video, frame",
        # 2**61 + 1 hashes to 2, a frame of v: a dict key must also be equal to be found.
        [("v", 1.5), ("v", 0), ("v", math.nan), ("v", 4), ("w", 1), ("v", 2**61 + 1)],
    )
    def test_outside_manifest(self, video, frame):
        with pytest.raises(JoinError) as exc_info:
            emit_coco([make_ann(video, frame, 7)], self.MANIFEST)
        assert type(exc_info.value) is JoinError
        assert str(exc_info.value) == f"annotation ({video}, {frame}, 7) is outside the manifest"

    @pytest.mark.parametrize("frame", [True, 1.0, Fraction(1)])
    def test_frame_one_spelled_otherwise(self, frame):
        text = emit_coco([make_ann("v", frame)], self.MANIFEST)
        assert text == emit_coco([make_ann("v", 1)], self.MANIFEST)
        assert json.loads(text)["annotations"][0]["image_id"] == 3  # After u's two frames.


def random_annotations(rng, n, videos=("cam_a", "cam_b", "cam_c")):
    annotations = []
    keys = set()
    while len(annotations) < n:
        key = (rng.choice(videos), rng.randint(1, 40), rng.randint(0, 500))
        if key in keys:
            continue
        keys.add(key)
        box = BBox(
            rng.uniform(0, 1800),
            rng.uniform(0, 1000),
            rng.uniform(0.5, 120),
            rng.uniform(0.5, 300),
        )
        annotations.append(AnnotatedBox(key[0], key[1], key[2], box, rng.uniform(1, 99)))
    annotations.sort(key=lambda a: (a.video_id, a.frame_id, a.pedestrian_id))
    return annotations


class TestCocoRoundTrip:
    def test_identity_and_byte_stability(self):
        rng = random.Random(77)
        annotations = random_annotations(rng, 200)
        manifest = manifest_for_annotations(annotations, "rt", 1920, 1080, alpha_used=100.0)
        doc = emit_coco(annotations, manifest)
        parsed = parse_coco_gt(doc)
        assert parsed.manifest == manifest
        assert len(parsed.annotations) == len(annotations)
        for got, want in zip(parsed.annotations, annotations):
            assert got.video_id == want.video_id
            assert got.frame_id == want.frame_id
            assert got.pedestrian_id == want.pedestrian_id
            assert got.box == want.box
            assert got.distance_m == want.distance_m
        assert emit_coco(parsed.annotations, parsed.manifest) == doc

    def test_frame_table_join_helpers(self):
        annotations = [make_ann("v", 2, 1)]
        manifest = DatasetManifest("d", 100, 100, (("v", 2),))
        parsed = parse_coco_gt(emit_coco(annotations, manifest))
        by_id = parsed.frame_by_image_id()
        by_frame = parsed.image_id_by_frame()
        assert by_id[by_frame[("v", 2)]] == ("v", 2)
        assert len(parsed.images) == 2


class TestParseCocoForeign:
    def test_plain_coco_without_extensions(self):
        doc = {
            "images": [{"id": 10, "width": 640, "height": 480, "file_name": "seq/000004.jpg"}],
            "annotations": [
                {"id": 3, "image_id": 10, "category_id": 1, "bbox": [1, 2, 3, 4]}
            ],
            "categories": [{"id": 1, "name": "person"}],
        }
        parsed = parse_coco_gt(json.dumps(doc))
        (ann,) = parsed.annotations
        assert ann.video_id == "seq"
        assert ann.frame_id == 4
        assert ann.pedestrian_id == 3
        assert ann.distance_m == math.inf
        assert parsed.manifest.videos == (("seq", 4),)
        assert parsed.manifest.image_w == 640.0

    def test_missing_sections(self):
        with pytest.raises(ParseError):
            parse_coco_gt('{"images": []}')
        with pytest.raises(ParseError):
            parse_coco_gt("[]")
        with pytest.raises(ParseError):
            parse_coco_gt("{broken")

    def test_bad_file_name(self):
        doc = {"images": [{"id": 1, "file_name": "nodigits.jpg"}], "annotations": []}
        with pytest.raises(ParseError):
            parse_coco_gt(json.dumps(doc))

    def test_duplicate_image_id(self):
        doc = {
            "images": [
                {"id": 1, "file_name": "v/000001.jpg"},
                {"id": 1, "file_name": "v/000002.jpg"},
            ],
            "annotations": [],
        }
        with pytest.raises(ParseError):
            parse_coco_gt(json.dumps(doc))

    def test_annotation_with_unknown_image(self):
        doc = {
            "images": [{"id": 1, "file_name": "v/000001.jpg"}],
            "annotations": [{"id": 1, "image_id": 2, "bbox": [0, 0, 1, 1]}],
        }
        with pytest.raises(JoinError) as exc_info:
            parse_coco_gt(json.dumps(doc))
        assert str(exc_info.value) == "annotation references unknown image id 2 (annotation 0)"
        assert exc_info.value.location == "annotation 0"

    def test_bad_bbox(self):
        base = {"images": [{"id": 1, "file_name": "v/000001.jpg"}]}
        for bbox in ([0, 0, 1], [0, 0, 0, 1], [0, 0, 1, -2], "x"):
            doc = dict(base, annotations=[{"id": 1, "image_id": 1, "bbox": bbox}])
            with pytest.raises(ParseError):
                parse_coco_gt(json.dumps(doc))

    def test_annotations_of_other_categories_are_counted(self):
        doc = {
            "images": [{"id": 1, "file_name": "v/000001.jpg"}],
            "annotations": [
                {"id": 1, "image_id": 1, "category_id": 3, "bbox": [0, 0, 1, 1]},
                {"id": 2, "image_id": 1, "bbox": [0, 0, 1, 1]},
                {"id": 3, "image_id": 1, "category_id": 2, "bbox": "unchecked"},
            ],
        }
        parsed = parse_coco_gt(json.dumps(doc))
        assert [a.pedestrian_id for a in parsed.annotations] == [2]
        assert parsed.skipped_count == 2
        assert parse_coco_gt(emit_coco(parsed.annotations, parsed.manifest)).skipped_count == 0

    def test_bad_distance(self):
        doc = {
            "images": [{"id": 1, "file_name": "v/000001.jpg"}],
            "annotations": [
                {"id": 1, "image_id": 1, "bbox": [0, 0, 1, 1], "distance_m": -3}
            ],
        }
        with pytest.raises(InvalidArgument) as exc_info:
            parse_coco_gt(json.dumps(doc))
        assert str(exc_info.value) == (
            "distance must be finite and positive, got -3.0 (annotation 0)"
        )

    @pytest.mark.parametrize(
        "doc, location",
        [
            ({"images": [1], "annotations": []}, "image 0"),
            ({"images": [], "annotations": ["x"]}, "annotation 0"),
            ({"images": [], "annotations": [], "info": {"videos": 5}}, "info.videos"),
            ({"images": 5, "annotations": []}, "images"),
            ({"images": "ab", "annotations": []}, "images"),
            ({"images": [], "annotations": {"a": 1}}, "annotations"),
            ({"images": [], "annotations": [], "info": {"videos": [["v"]]}}, "info.videos"),
            ({"images": [], "annotations": [], "info": {"videos": ["ab"]}}, "info.videos"),
            ({"images": [], "annotations": [], "info": {"videos": [["v", "x"]]}}, "info.videos"),
            ({"images": [], "annotations": [], "info": {"videos": [], "image_w": "x"}},
             "info.image_w"),
            ({"images": [], "annotations": [], "info": {"videos": [], "image_h": [1]}},
             "info.image_h"),
            ({"images": [], "annotations": [], "info": {"videos": [], "alpha_used": "a"}},
             "info.alpha_used"),
            ({"images": [], "annotations": [], "info": {"videos": [], "distance_limit_m": {}}},
             "info.distance_limit_m"),
            ({"images": [{"id": 1, "file_name": "v/000001.jpg", "width": "w"}],
              "annotations": []}, "image 0"),
            ({"images": [], "annotations": [], "info": {"videos": [["v", -3]]}}, "info.videos"),
            ({"images": [], "annotations": [], "info": {"videos": [["v", 0]]}}, "info.videos"),
            ({"images": [], "annotations": [], "info": {"videos": [[7, 1]]}}, "info.videos"),
            # Located in file order, not in the sorted frame table.
            ({"images": [{"id": 1, "file_name": "v/000005.jpg"},
                         {"id": 2, "file_name": "v/000001.jpg"}],
              "annotations": [], "info": {"videos": [["v", 1]]}}, "image 0"),
            ({"images": [{"id": 1, "file_name": "w/000001.jpg"}],
              "annotations": [], "info": {"videos": [["v", 1]]}}, "image 0"),
            ({"images": [{"id": 1, "file_name": "v/000000.jpg"}],
              "annotations": [], "info": {"videos": [["v", 1]]}}, "image 0"),
            ({"images": [], "annotations": [], "info": {"videos": [], "dataset_id": {"a": 1}}},
             "info.dataset_id"),
            ({"images": [], "annotations": [], "info": {"dataset_id": 7}}, "info.dataset_id"),
            ({"images": [{"id": 1, "file_name": "v/000000.jpg"}], "annotations": []}, "image 0"),
            ({"images": [{"id": 1, "file_name": "v/\u00b2.jpg"}], "annotations": []}, "image 0"),
            ({"images": [], "annotations": [], "info": {"videos": [["v", 3], ["v", 1]]}},
             "info.videos"),
            # info.videos claims one image per frame.
            ({"images": [], "annotations": [], "info": {"videos": [["v", 100000]]}},
             "info.videos"),
            ({"images": [{"id": 1, "file_name": "v/000002.jpg"}],
              "annotations": [], "info": {"videos": [["v", 2]]}}, "info.videos"),
            ({"images": [{"id": 1, "file_name": "v/000001.jpg"},
                         {"id": 2, "file_name": "v/000001.png"}],
              "annotations": [], "info": {"videos": [["v", 2]]}}, "image 1"),
        ],
    )
    def test_malformed_parts_are_located(self, doc, location):
        with pytest.raises(ParseError) as info:
            parse_coco_gt(json.dumps(doc))
        assert info.value.location == location

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"images": [{"id": 1, "file_name": "v/1.jpg", "width": -5, "height": -7}],
              "annotations": []}, "width must be at least 0, got -5.0 (image 0)"),
            ({"images": [{"id": 1, "file_name": "v/1.jpg", "height": -7}],
              "annotations": []}, "height must be at least 0, got -7.0 (image 0)"),
            ({"images": [], "annotations": [], "info": {"videos": [], "image_w": -3}},
             "image_w must be at least 0, got -3.0 (info.image_w)"),
            ({"images": [], "annotations": [], "info": {"videos": [], "image_h": -0.5}},
             "image_h must be at least 0, got -0.5 (info.image_h)"),
        ],
        ids=["foreign_width", "foreign_height", "info_image_w", "info_image_h"],
    )
    def test_negative_image_size_is_refused(self, doc, message):
        with pytest.raises(ParseError) as exc_info:
            parse_coco_gt(json.dumps(doc))
        assert str(exc_info.value) == message

    @pytest.mark.parametrize(
        "doc",
        [
            {"images": [{"id": 1, "file_name": "v/1.jpg", "width": 0, "height": 0}],
             "annotations": []},
            {"images": [{"id": 1, "file_name": "v/1.jpg"}], "annotations": [],
             "info": {"videos": [["v", 1]], "image_w": 0, "image_h": None}},
        ],
        ids=["foreign", "info"],
    )
    def test_image_size_zero_means_unknown(self, doc):
        manifest = parse_coco_gt(json.dumps(doc)).manifest
        assert (manifest.image_w, manifest.image_h) == (0.0, 0.0)

    @pytest.mark.parametrize("info", [{"videos": []}, {}, {"videos": [], "dataset_id": None},
                                      {"dataset_id": None}])
    def test_absent_or_null_dataset_id_is_empty(self, info):
        doc = {"images": [], "annotations": [], "info": info}
        assert parse_coco_gt(json.dumps(doc)).manifest.dataset_id == ""

    def test_non_finite_info_number(self):
        text = '{"images": [], "annotations": [], "info": {"videos": [], "alpha_used": NaN}}'
        with pytest.raises(ParseError, match=r"\(info\.alpha_used\)"):
            parse_coco_gt(text)


class TestMot:
    @pytest.mark.parametrize("values", [
        *((v,) for v in (0, 7, -3, 0.0, -0.0, 2.0, 1e16, 2.0**53 + 2, 5e-324, 1 / 3, 1e300, -1.5)),
        (3, -1, 0.5, -0.0, 1e16, 40.0, 1 / 3, 5e-324, -1, 2**53),
    ])
    def test_csv_numbers_are_spelled_as_json_numbers(self, values):
        assert csv_row(*values) == ",".join(json.dumps(json_number(v)) for v in values) + "\n"

    @pytest.mark.parametrize("field", ["x", "y", "w", "h"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_emit_non_finite_box_rejected(self, field, value):
        box = dataclasses.replace(BBox(0.0, 0.0, 1.0, 1.0), **{field: value})
        anns = [make_ann(frame=2, ped=1, box=box), make_ann(frame=1, ped=9, box=box), make_ann()]
        with pytest.raises(InvalidArgument) as exc_info:
            emit_mot(anns)
        assert str(exc_info.value) == (
            f"box field must be a finite number, got {value!r} (annotation (v, 1, 9))"
        )
        assert exc_info.value.location == "annotation (v, 1, 9)"

    def test_field_mapping(self):
        ann = make_ann("v", 3, 5)
        assert emit_mot([ann]) == "3,5,10,20,30,40,1,1,1\n"

    def test_empty(self):
        assert emit_mot([]) == ""
        assert parse_mot_gt("", "v") == ([], 0)

    def test_rows_sorted(self):
        annotations = [make_ann("v", 2, 1), make_ann("v", 1, 9), make_ann("v", 1, 2)]
        lines = emit_mot(annotations).splitlines()
        assert [line.split(",")[:2] for line in lines] == [["1", "2"], ["1", "9"], ["2", "1"]]

    def test_mixed_videos_rejected(self):
        with pytest.raises(MixedVideos):
            emit_mot([make_ann("a"), make_ann("b")])

    def test_round_trip(self):
        rng = random.Random(31)
        annotations = random_annotations(rng, 150, videos=("only",))
        text = emit_mot(annotations)
        parsed, skipped = parse_mot_gt(text, "only")
        assert skipped == 0
        assert len(parsed) == len(annotations)
        for got, want in zip(parsed, annotations):
            assert (got.video_id, got.frame_id, got.pedestrian_id) == (
                want.video_id,
                want.frame_id,
                want.pedestrian_id,
            )
            assert got.box == want.box
        assert emit_mot(parsed) == text

    def test_non_pedestrian_rows_counted(self):
        text = "1,1,10,20,30,40,1,1,1\n1,2,10,20,30,40,1,7,1\n2,3,10,20,30,40,1,1,1\n"
        parsed, skipped = parse_mot_gt(text, "v")
        assert len(parsed) == 2
        assert skipped == 1

    def test_blank_lines_ignored(self):
        parsed, _ = parse_mot_gt("\n1,1,10,20,30,40,1,1,1\n\n", "v")
        assert len(parsed) == 1

    def test_wrong_field_count(self):
        with pytest.raises(ParseError) as exc_info:
            parse_mot_gt("1,1,10,20,30,40,1,1\n", "v")
        assert "line 1" in str(exc_info.value)

    def test_non_numeric(self):
        with pytest.raises(ParseError):
            parse_mot_gt("1,1,x,20,30,40,1,1,1\n", "v")

    def test_non_positive_box(self):
        with pytest.raises(ParseError):
            parse_mot_gt("1,1,10,20,0,40,1,1,1\n", "v")

    @pytest.mark.parametrize(
        "row, value",
        [("2,1,nan,20,30,40,1,1,1", "nan"), ("2,1,10,inf,30,40,1,1,1", "inf"),
         ("2,1,10,20,30,-inf,1,1,1", "-inf")],
    )
    def test_non_finite_box(self, row, value):
        with pytest.raises(ParseError) as exc_info:
            parse_mot_gt(f"1,1,10,20,30,40,1,1,1\n{row}\n", "v")
        assert str(exc_info.value) == f"box field must be a finite number, got {value} (line 2)"

    @pytest.mark.parametrize("frame", ["0", "-2", "-1.0"])
    @pytest.mark.parametrize(
        "parse, row",
        [
            (lambda text: parse_mot_gt(text, "v"), "{},1,10,20,30,40,1,1,1"),
            (lambda text: parse_mot_gt(text, "v"), "{},1,10,20,30,40,0,3,1"),
            (lambda text: parse_detections(text, "mot_det", video_id="v"),
             "{},-1,10,20,30,40,0.9,-1,-1,-1"),
        ],
        ids=["gt", "gt_other_class", "det"],
    )
    def test_frame_below_one_is_located(self, parse, row, frame):
        good = row.format(1)
        with pytest.raises(ParseError) as exc_info:
            parse(f"{good}\n{row.format(frame)}\n")
        assert exc_info.value.location == "line 2"
        assert "frames are 1-based" in str(exc_info.value)


class TestDetections:
    def test_mot_det_field_mapping(self):
        (det,) = parse_detections("1,-1,10,20,30,40,0.9,-1,-1,-1\n", "mot_det", video_id="v")
        assert det == Detection("v", 1, BBox(10, 20, 30, 40), 0.9)

    def test_mot_det_short_rows(self):
        (det,) = parse_detections("1,-1,10,20,30,40,0.5\n", "mot_det", video_id="v")
        assert det.score == 0.5

    def test_empty_files(self):
        assert parse_detections("", "mot_det", video_id="v") == []
        assert parse_detections("[]", "coco_results", frame_of_image={}) == []

    def test_sorted_by_frame_then_score(self):
        text = "2,-1,0,0,10,10,0.5,-1,-1,-1\n1,-1,0,0,10,10,0.2,-1,-1,-1\n1,-1,0,0,10,10,0.9,-1,-1,-1\n"
        dets = parse_detections(text, "mot_det", video_id="v")
        assert [(d.frame_id, d.score) for d in dets] == [(1, 0.9), (1, 0.2), (2, 0.5)]

    def test_score_clamping(self):
        (det,) = parse_detections(
            f"1,-1,0,0,10,10,{1 + 1e-10!r},-1,-1,-1\n", "mot_det", video_id="v"
        )
        assert det.score == 1.0
        (det,) = parse_detections(f"1,-1,0,0,10,10,{-1e-10!r},-1,-1,-1\n", "mot_det", video_id="v")
        assert det.score == 0.0

    def test_score_out_of_range(self):
        with pytest.raises(ParseError, match=r"^score 1.1 outside \[0, 1\] \(line 1\)$"):
            parse_detections("1,-1,0,0,10,10,1.1,-1,-1,-1\n", "mot_det", video_id="v")
        with pytest.raises(ParseError, match=r"^score -0.2 outside \[0, 1\] \(line 1\)$"):
            parse_detections("1,-1,0,0,10,10,-0.2,-1,-1,-1\n", "mot_det", video_id="v")

    def test_unknown_format(self):
        with pytest.raises(ParseError):
            parse_detections("", "voc")

    def test_score_beyond_float_range(self):
        text = '[{"image_id": 1, "bbox": [0, 0, 10, 10], "score": 1' + "0" * 400 + "}]"
        with pytest.raises(ParseError) as exc_info:
            parse_detections(text, "coco_results", frame_of_image={1: ("v", 1)})
        assert exc_info.value.location == "record 0"
        assert str(exc_info.value).startswith("score must be a finite number")

    def test_missing_context(self):
        with pytest.raises(ParseError):
            parse_detections("", "mot_det")
        with pytest.raises(ParseError):
            parse_detections("[]", "coco_results")

    def test_coco_results_round_trip(self):
        rng = random.Random(13)
        frame_of_image = {i: ("v", i) for i in range(1, 21)}
        image_id_of_frame = {frame: i for i, frame in frame_of_image.items()}
        detections = []
        for _ in range(100):
            detections.append(
                Detection(
                    "v",
                    rng.randint(1, 20),
                    BBox(
                        rng.uniform(0, 1800),
                        rng.uniform(0, 1000),
                        rng.uniform(1, 100),
                        rng.uniform(1, 200),
                    ),
                    rng.choice([0.02, 0.3, 0.55, 0.9, 1.0]),
                )
            )
        text = emit_detections(detections, "coco_results", image_id_of_frame=image_id_of_frame)
        parsed = parse_detections(text, "coco_results", frame_of_image=frame_of_image)
        expected = sorted(detections, key=lambda d: (d.video_id, d.frame_id, -d.score))
        assert parsed == expected
        assert (
            emit_detections(parsed, "coco_results", image_id_of_frame=image_id_of_frame) == text
        )

    def test_mot_det_round_trip(self):
        detections = [
            Detection("v", 1, BBox(0.5, 1.25, 10, 20), 0.75),
            Detection("v", 2, BBox(3, 4, 5, 6), 1.0),
        ]
        text = emit_detections(detections, "mot_det")
        assert parse_detections(text, "mot_det", video_id="v") == detections

    def test_coco_results_unknown_image(self):
        with pytest.raises(JoinError):
            parse_detections(
                '[{"image_id": 99, "category_id": 1, "bbox": [0, 0, 1, 1], "score": 0.5}]',
                "coco_results",
                frame_of_image={1: ("v", 1)},
            )

    @pytest.mark.parametrize(
        "text, error, message, location",
        [
            ('{"image_id": 1}', ParseError,
             "expected a top-level JSON array of detection records", None),
            ('[{"image_id": 1, "bbox": [0, 0, 1, 1], "score": 0.5}, [1]]', ParseError,
             "expected an object, got [1] (record 1)", "record 1"),
            ('[{"image_id": 99, "bbox": [0, 0, 1, 1], "score": 0.5}]', JoinError,
             "detection references unknown image id 99 (record 0)", "record 0"),
        ],
        ids=["not_an_array", "record_not_an_object", "unknown_image"],
    )
    def test_coco_results_document_errors(self, text, error, message, location):
        with pytest.raises(error) as exc_info:
            parse_detections(text, "coco_results", frame_of_image={1: ("v", 1)})
        assert (str(exc_info.value), exc_info.value.location) == (message, location)

    def test_coco_results_other_category_skipped(self):
        text = '[{"image_id": 1, "category_id": 2, "bbox": [0, 0, 1, 1], "score": 0.5}]'
        assert parse_detections(text, "coco_results", frame_of_image={1: ("v", 1)}) == []

    def test_emit_coco_results_non_finite_rejected(self):
        detections = [Detection("v", 1, BBox(0, 0, 1, 1), math.nan)]
        with pytest.raises(InvalidArgument) as exc_info:
            emit_detections(detections, "coco_results", image_id_of_frame={("v", 1): 1})
        assert str(exc_info.value) == "score must be a finite number, got nan (detection (v, 1))"
        assert exc_info.value.location == "detection (v, 1)"

    @pytest.mark.parametrize("image_id", [1.5, "1", None, math.inf])
    def test_emit_coco_results_image_id_not_an_integer_rejected(self, image_id):
        # parse_detections refuses each of these image ids, so no detection may be written with one.
        detections = [Detection("v", f, BBox(0, 0, 1, 1), 0.5) for f in (2, 1)]
        index = {("v", 1): 1, ("v", 2): image_id}
        with pytest.raises(InvalidArgument) as exc_info:
            emit_detections(detections, "coco_results", image_id_of_frame=index)
        assert str(exc_info.value) == (
            f"image_id must be an integer, got {image_id!r} (detection (v, 2))"
        )
        assert exc_info.value.location == "detection (v, 2)"

    def test_emit_coco_results_image_id_checked_before_boxes(self):
        detections = [Detection("v", 1, BBox(0, 0, math.nan, 1), 0.5)]
        with pytest.raises(InvalidArgument, match=r"^image_id must be an integer, got 1\.5 "):
            emit_detections(detections, "coco_results", image_id_of_frame={("v", 1): 1.5})

    def test_emit_coco_results_integral_image_ids_written_as_integers(self):
        detections = [Detection("v", f, BBox(0, 0, 1, 1), 0.5) for f in (1, 2)]
        text = emit_detections(
            detections, "coco_results", image_id_of_frame={("v", 1): 7.0, ("v", 2): True}
        )
        # repr tells 7 from 7.0 and 1 from True, which == does not.
        assert repr([record["image_id"] for record in json.loads(text)]) == "[7, 1]"

    @pytest.mark.parametrize(
        "box, score, message",
        [
            (BBox(0, 0, math.nan, 1), 0.5, "box field must be a finite number, got nan"),
            (BBox(-math.inf, 0, 1, 1), 0.5, "box field must be a finite number, got -inf"),
            (BBox(0, 0, 1, 1), math.inf, "score must be a finite number, got inf"),
        ],
        ids=["nan_width", "infinite_x", "infinite_score"],
    )
    def test_emit_mot_det_non_finite_rejected(self, box, score, message):
        # Detections are written by descending score, so the first one named is frame 2's.
        detections = [Detection("v", 3, box, score), Detection("v", 2, box, score)]
        with pytest.raises(InvalidArgument) as exc_info:
            emit_detections([Detection("v", 1, BBox(0, 0, 1, 1), 0.5), *detections], "mot_det")
        assert str(exc_info.value) == f"{message} (detection (v, 2))"

    @pytest.mark.parametrize(
        "fmt, index, error, message",
        [
            ("coco_results", None, ParseError, "coco_results emission needs an image-id index"),
            ("coco_results", {("v", 2): 1}, JoinError,
             "detection frame ('v', 1) is not in the image index"),
            ("voc", None, ParseError, "unknown detection format 'voc'"),
        ],
        ids=["no_index", "frame_not_in_index", "unknown_format"],
    )
    def test_emit_detections_errors(self, fmt, index, error, message):
        detections = [Detection("v", 1, BBox(0, 0, 1, 1), 0.5)]
        with pytest.raises(error) as exc_info:
            emit_detections(detections, fmt, image_id_of_frame=index)
        assert (type(exc_info.value), str(exc_info.value)) == (error, message)

    def test_emit_mot_det_mixed_videos(self):
        detections = [Detection("a", 1, BBox(0, 0, 1, 1), 0.5), Detection("b", 1, BBox(0, 0, 1, 1), 0.5)]
        with pytest.raises(MixedVideos):
            emit_detections(detections, "mot_det")

    def test_mot_det_frame_outside_the_index_is_located(self):
        text = "1,-1,1,1,10,10,0.9\n7,-1,1,1,10,10,0.8\n"
        with pytest.raises(JoinError) as exc_info:
            parse_detections(text, "mot_det", video_id="v", frame_of_image={1: ("v", 1)})
        assert str(exc_info.value) == "detection on (v, 7) has no ground-truth frame (line 2)"
        assert exc_info.value.location == "line 2"
        # Without an index every frame is taken; evaluate() then checks the frames itself.
        assert len(parse_detections(text, "mot_det", video_id="v")) == 2


class TestWrittenBoxSizes:
    """The writers refuse a box size that the readers refuse: not positive."""

    WRITERS = {
        "coco": lambda anns: emit_coco(anns, manifest_for_annotations(anns, "d", 0, 0)),
        "mot": emit_mot,
        "coco_results": lambda dets: emit_detections(
            dets, "coco_results", image_id_of_frame={("v", 1): 1, ("v", 2): 2, ("v", 3): 3}
        ),
        "mot_det": partial(emit_detections, fmt="mot_det"),
    }

    @staticmethod
    def records(writer, *boxes):
        """One record per box, on frames 1, 2, ..., in the writer's kind."""
        if writer.startswith("coco_") or writer.endswith("_det"):
            return [Detection("v", frame, box, 0.5) for frame, box in enumerate(boxes, 1)]
        return [make_ann(frame=frame, ped=9, box=box) for frame, box in enumerate(boxes, 1)]

    @pytest.mark.parametrize("w, h", [(0, 1), (1.0, 0.0), (-1, 1), (1, -0.5), (-0.0, 2.5)])
    @pytest.mark.parametrize("writer", WRITERS)
    def test_refused_and_located(self, writer, w, h):
        records = self.records(writer, BBox(0, 0, 1, 1), BBox(0, 0, w, h))
        at = "detection (v, 2)" if isinstance(records[0], Detection) else "annotation (v, 2, 9)"
        with pytest.raises(InvalidArgument) as exc_info:
            self.WRITERS[writer](records)
        message = f"box width and height must be positive, got {float(w)!r} and {float(h)!r}"
        assert (str(exc_info.value), exc_info.value.location) == (f"{message} ({at})", at)

    @pytest.mark.parametrize("writer", WRITERS)
    def test_first_refused_record_wins_and_a_field_not_finite_first(self, writer):
        # As in the readers: the first record refused, and a field that is not
        # finite before its size.
        boxes = BBox(0, 0, 1, 1), BBox(math.inf, 0, 0, 1), BBox(0, 0, -1, 1)
        with pytest.raises(InvalidArgument, match=r"^box field must be a finite number, got inf"):
            self.WRITERS[writer](self.records(writer, *boxes))
        boxes = BBox(0, 0, 1, 1), BBox(0, 0, 0, 1), BBox(0, math.nan, 1, 1)
        with pytest.raises(InvalidArgument, match=r"^box width and height must be positive, got 0.0 and 1.0 "):
            self.WRITERS[writer](self.records(writer, *boxes))
        boxes = BBox(0, 0, 1, 1), BBox(0, 0, math.nan, 1), BBox(0, 0, 0, 1)
        with pytest.raises(InvalidArgument, match=r"^box field must be a finite number, got nan"):
            self.WRITERS[writer](self.records(writer, *boxes))

    @pytest.mark.parametrize("writer", WRITERS)
    def test_positive_sizes_pass(self, writer):
        assert self.WRITERS[writer](self.records(writer, BBox(0, 0, 1e-300, 5e-324)))
        assert self.WRITERS[writer]([]) is not None


ABSENT = object()


def with_key(record, key, value):
    """``record`` with ``key`` set to ``value``, or without it for ``ABSENT``."""
    record = dict(record)
    if value is ABSENT:
        del record[key]
    else:
        record[key] = value
    return record


# One annotation as emit_coco writes it, on image 1 of a one-image document.
COCO_ANNOTATION = {
    "id": 4, "image_id": 1, "category_id": 1, "bbox": [10, 20.5, 30, 40.25], "area": 1211.5,
    "iscrowd": 0, "pedestrian_id": 7, "distance_m": 12.5,
}
# One coco_results record on image 1.
COCO_RESULT = {"image_id": 1, "category_id": 1, "bbox": [10, 20.5, 30, 40.25], "score": 0.75}


def bbox_cases(record):
    return {
        "int and float bbox values": (record, None),
        "bool bbox value": (
            with_key(record, "bbox", [10, True, 30, 40]),
            "box field must be a finite number, got True",
        ),
        "NaN bbox value": (
            with_key(record, "bbox", [10, 20, math.nan, 40]),
            "box field must be a finite number, got nan",
        ),
        "1e309 spelled as an int": (
            with_key(record, "bbox", [10, 10**309, 30, 40]),
            f"box field must be a finite number, got {10**309}",
        ),
        "zero width": (
            with_key(record, "bbox", [10, 20, 0, 40]),
            "box width and height must be positive, got 0.0 and 40.0",
        ),
        "area beyond float range": (
            with_key(record, "bbox", [10, 20, 1e200, 1e200]),
            "box width times height must be finite, got 1e+200 and 1e+200",
        ),
        "largest area": (with_key(record, "bbox", [10, 20, 2.0, sys.float_info.max / 2]), None),
        "three bbox values": (
            with_key(record, "bbox", [10, 20, 30]), "bbox must be [x, y, w, h], got [10, 20, 30]"
        ),
    }


# A one-record variant and its outcome: None if it parses, else the message it fails with.
COCO_ANNOTATION_CASES = {
    **bbox_cases(COCO_ANNOTATION),
    "image_id 1.0": (with_key(COCO_ANNOTATION, "image_id", 1.0), None),
    "image_id true": (with_key(COCO_ANNOTATION, "image_id", True), None),
    "image_id 1.5": (
        with_key(COCO_ANNOTATION, "image_id", 1.5), "image_id must be an integer, got 1.5"
    ),
    "unknown image_id": (
        with_key(COCO_ANNOTATION, "image_id", 2), "annotation references unknown image id 2"
    ),
    "pedestrian_id 1.0": (with_key(COCO_ANNOTATION, "pedestrian_id", 1.0), None),
    "pedestrian_id true": (with_key(COCO_ANNOTATION, "pedestrian_id", True), None),
    "pedestrian_id 1.5": (
        with_key(COCO_ANNOTATION, "pedestrian_id", 1.5), "pedestrian_id must be an integer, got 1.5"
    ),
    "pedestrian_id null": (
        with_key(COCO_ANNOTATION, "pedestrian_id", None),
        "pedestrian_id must be an integer, got None",
    ),
    "no pedestrian_id, with id": (with_key(COCO_ANNOTATION, "pedestrian_id", ABSENT), None),
    "no pedestrian_id, no id": (
        with_key(with_key(COCO_ANNOTATION, "pedestrian_id", ABSENT), "id", ABSENT), None
    ),
    "no pedestrian_id, id 1.5": (
        with_key(with_key(COCO_ANNOTATION, "pedestrian_id", ABSENT), "id", 1.5),
        "pedestrian_id must be an integer, got 1.5",
    ),
    "distance_m absent": (with_key(COCO_ANNOTATION, "distance_m", ABSENT), None),
    "distance_m as an int": (with_key(COCO_ANNOTATION, "distance_m", 12), None),
    "distance_m null": (
        with_key(COCO_ANNOTATION, "distance_m", None),
        "distance_m must be a finite number, got None",
    ),
    "distance_m 0": (
        with_key(COCO_ANNOTATION, "distance_m", 0), "distance must be finite and positive, got 0.0"
    ),
    "distance_m Infinity": (
        with_key(COCO_ANNOTATION, "distance_m", math.inf),
        "distance_m must be a finite number, got inf",
    ),
    "no category_id": (with_key(COCO_ANNOTATION, "category_id", ABSENT), None),
    "category_id 1.0": (with_key(COCO_ANNOTATION, "category_id", 1.0), None),
    "category_id 1.5": (
        with_key(COCO_ANNOTATION, "category_id", 1.5), "category_id must be an integer, got 1.5"
    ),
    "category_id null": (
        with_key(COCO_ANNOTATION, "category_id", None), "category_id must be an integer, got None"
    ),
    "category_id 3 with a bad bbox": (
        with_key(with_key(COCO_ANNOTATION, "category_id", 3), "bbox", "x"), None
    ),
    "category_id 3 on an unknown image": (
        with_key(with_key(COCO_ANNOTATION, "category_id", 3), "image_id", 2),
        "annotation references unknown image id 2",
    ),
    "not an object": ([COCO_ANNOTATION], f"expected an object, got {[COCO_ANNOTATION]!r}"),
    # Two bad keys: the error is the first check's: image, category, bbox, pedestrian_id,
    # distance_m.
    "unknown image_id, bad bbox": (
        with_key(with_key(COCO_ANNOTATION, "image_id", 2), "bbox", "x"),
        "annotation references unknown image id 2",
    ),
    "category_id 1.5, bad bbox": (
        with_key(with_key(COCO_ANNOTATION, "category_id", 1.5), "bbox", "x"),
        "category_id must be an integer, got 1.5",
    ),
    "bad bbox, pedestrian_id 1.5": (
        with_key(with_key(COCO_ANNOTATION, "bbox", "x"), "pedestrian_id", 1.5),
        "bbox must be [x, y, w, h], got 'x'",
    ),
    "pedestrian_id 1.5, distance_m 0": (
        with_key(with_key(COCO_ANNOTATION, "pedestrian_id", 1.5), "distance_m", 0),
        "pedestrian_id must be an integer, got 1.5",
    ),
}

COCO_RESULT_CASES = {
    **bbox_cases(COCO_RESULT),
    "image_id 1.0": (with_key(COCO_RESULT, "image_id", 1.0), None),
    "image_id true": (with_key(COCO_RESULT, "image_id", True), None),
    "image_id 1.5": (
        with_key(COCO_RESULT, "image_id", 1.5), "image_id must be an integer, got 1.5"
    ),
    "unknown image_id": (
        with_key(COCO_RESULT, "image_id", 2), "detection references unknown image id 2"
    ),
    "category_id 1.0": (with_key(COCO_RESULT, "category_id", 1.0), None),
    "category_id true": (with_key(COCO_RESULT, "category_id", True), None),
    "category_id 1.5": (
        with_key(COCO_RESULT, "category_id", 1.5), "category_id must be an integer, got 1.5"
    ),
    "no category_id": (with_key(COCO_RESULT, "category_id", ABSENT), None),
    "category_id null": (
        with_key(COCO_RESULT, "category_id", None), "category_id must be an integer, got None"
    ),
    "category_id 2 with a bad bbox": (
        with_key(with_key(COCO_RESULT, "category_id", 2), "bbox", "x"), None
    ),
    "category_id 2 on an unknown image": (
        with_key(with_key(COCO_RESULT, "category_id", 2), "image_id", 2),
        "detection references unknown image id 2",
    ),
    "score 1 + 1e-10": (with_key(COCO_RESULT, "score", 1 + 1e-10), None),
    "score -1e-10": (with_key(COCO_RESULT, "score", -1e-10), None),
    "score -0.0": (with_key(COCO_RESULT, "score", -0.0), None),
    "score as an int": (with_key(COCO_RESULT, "score", 1), None),
    "score 1.1": (with_key(COCO_RESULT, "score", 1.1), "score 1.1 outside [0, 1]"),
    "score -0.2": (with_key(COCO_RESULT, "score", -0.2), "score -0.2 outside [0, 1]"),
    "score NaN": (
        with_key(COCO_RESULT, "score", math.nan), "score must be a finite number, got nan"
    ),
    "score null": (with_key(COCO_RESULT, "score", None), "score must be a finite number, got None"),
    "not an object": ("x", "expected an object, got 'x'"),
    # Two bad keys: the error is the first check's, image, category, bbox, score.
    "category_id 1.5, bad bbox": (
        with_key(with_key(COCO_RESULT, "category_id", 1.5), "bbox", "x"),
        "category_id must be an integer, got 1.5",
    ),
    "bad bbox, score 2": (
        with_key(with_key(COCO_RESULT, "bbox", "x"), "score", 2.0),
        "bbox must be [x, y, w, h], got 'x'",
    ),
}

FRAME_OF = {1: ("v", 3)}


def reference_annotation(ann, idx):
    """The annotations of one record the reader accepts, built independently of it."""
    if int(ann.get("category_id", 1)) != 1:
        return []
    video, frame = FRAME_OF[int(ann["image_id"])]
    x, y, w, h = map(float, ann["bbox"])
    pedestrian_id = int(ann.get("pedestrian_id", ann.get("id", idx + 1)))
    return [AnnotatedBox(
        video, frame, pedestrian_id, BBox(x, y, w, h), float(ann.get("distance_m", math.inf))
    )]


def reference_detections(rec, frame_of=FRAME_OF):
    """The detections of one record the reader accepts, built independently of it."""
    if int(rec.get("category_id", 1)) != 1:
        return []
    video, frame = frame_of[int(rec["image_id"])]
    x, y, w, h = map(float, rec["bbox"])
    return [Detection(video, frame, BBox(x, y, w, h), min(max(float(rec["score"]), 0.0), 1.0))]


def coco_document(annotations):
    images = [{"id": 1, "file_name": "v/000003.jpg"}]
    return json.dumps({"images": images, "annotations": annotations})


class TestCocoRecordRules:
    """Each COCO reader checks its records a column at a time, by one rule, which
    given a location also words the error of a record that it refuses. Without
    the location the rule must refuse exactly the records that it words, and
    build what the per-record reference in this test builds."""

    @staticmethod
    def outcome(rule, record):
        """(what the rule gives, whether the rule given a location raises)."""
        try:
            rule([record], FRAME_OF, at="record 0")
        except (ParseError, JoinError, InvalidArgument):
            return rule([record], FRAME_OF), True
        return rule([record], FRAME_OF), False

    @pytest.mark.parametrize(
        "record, message", COCO_ANNOTATION_CASES.values(), ids=COCO_ANNOTATION_CASES.keys()
    )
    def test_annotation_rule_and_wording_agree(self, record, message):
        built, worded = self.outcome(formats._coco_annotations, record)
        assert (built is None, worded) == (message is not None,) * 2
        text = coco_document([record])
        if message is None:
            want = reference_annotation(record, 0)
            # repr tells 1 from True and 1.0, which == does not.
            assert repr(built) == repr(want)
            assert repr(list(parse_coco_gt(text).annotations)) == repr(want)
        else:
            with pytest.raises((ParseError, JoinError, InvalidArgument)) as exc_info:
                parse_coco_gt(text)
            assert str(exc_info.value) == f"{message} (annotation 0)"
            assert exc_info.value.location == "annotation 0"

    @pytest.mark.parametrize(
        "record, message", COCO_RESULT_CASES.values(), ids=COCO_RESULT_CASES.keys()
    )
    def test_detection_rule_and_wording_agree(self, record, message):
        built, worded = self.outcome(formats._coco_detections, record)
        assert (built is None, worded) == (message is not None,) * 2
        text = json.dumps([record])
        if message is None:
            want = reference_detections(record)
            assert repr(built) == repr(want)
            parsed = parse_detections(text, "coco_results", frame_of_image=FRAME_OF)
            assert repr(parsed) == repr(want)
        else:
            with pytest.raises((ParseError, JoinError)) as exc_info:
                parse_detections(text, "coco_results", frame_of_image=FRAME_OF)
            assert str(exc_info.value) == f"{message} (record 0)"
            assert exc_info.value.location == "record 0"

    def test_first_error_is_in_record_order(self):
        # Record 1's image id is checked before record 0's distance, in any column order.
        annotations = [
            with_key(COCO_ANNOTATION, "distance_m", 0),
            with_key(COCO_ANNOTATION, "image_id", 2),
        ]
        with pytest.raises(InvalidArgument, match=r"\(annotation 0\)$"):
            parse_coco_gt(coco_document(annotations))
        records = [with_key(COCO_RESULT, "score", 2.0), with_key(COCO_RESULT, "image_id", 2)]
        with pytest.raises(ParseError, match=r"^score 2.0 outside \[0, 1\] \(record 0\)$"):
            parse_detections(json.dumps(records), "coco_results", frame_of_image=FRAME_OF)

    def test_mixed_records_parse_as_each_alone(self):
        variants = [r for r, message in COCO_ANNOTATION_CASES.values() if message is None]
        want = sorted(
            (a for idx, r in enumerate(variants) for a in reference_annotation(r, idx)),
            key=lambda a: (a.video_id, a.frame_id, a.pedestrian_id),
        )
        assert repr(list(parse_coco_gt(coco_document(variants)).annotations)) == repr(want)
        variants = [r for r, message in COCO_RESULT_CASES.values() if message is None]
        want = [d for r in variants for d in reference_detections(r)]
        want.sort(key=lambda d: -d.score)
        parsed = parse_detections(json.dumps(variants), "coco_results", frame_of_image=FRAME_OF)
        assert repr(parsed) == repr(want)


def results_text(records, separator=", "):
    """A coco_results array of ``records``, each written by json.dumps."""
    return "[" + separator.join(map(json.dumps, records)) + "]"


# Twelve records over five images, tied and distinct scores, then each case's
# text and whether the stream hands it to the whole read: None where that
# depends on the blocks, as a cut after a record's last ``}, `` splits it.
RESULT_FRAMES = {i: ("v", i) for i in range(1, 6)}
RESULTS = [
    with_key(with_key(COCO_RESULT, "image_id", 1 + i % 5), "score", [0.75, 0.5, 1][i % 3])
    for i in range(12)
]
RESULT_STREAM_CASES = {
    "whitespace and newlines between records": (results_text(RESULTS, " \n\t,\r\n  "), False),
    "no records": ("[]", False),
    "no records, spaced": (" \n[ \n]\n", False),
    "a byte order mark": ("\ufeff" + results_text(RESULTS), True),
    "a comma after the last record": (results_text(RESULTS)[:-1] + ",]", True),
    "truncated": (results_text(RESULTS)[:-30], True),
    "a NaN score": (results_text([*RESULTS[:7], with_key(COCO_RESULT, "score", math.nan),
                                  *RESULTS[7:]]), True),
    "an unknown image id in the last record": (
        results_text([*RESULTS, with_key(COCO_RESULT, "image_id", 6)]), True),
    "a category-3 record": (
        results_text([*RESULTS[:5], with_key(COCO_RESULT, "category_id", 3), *RESULTS[5:]]),
        False),
    "a valid record with a nested object": (
        results_text([*RESULTS, {"extra": {"a": {"b": 1}, "c": 2}, **COCO_RESULT}]), None),
    "a valid record with a string holding },": (
        results_text([*RESULTS, {"note": "a}, b},c", **COCO_RESULT}]), None),
}


class TestStreamedResults:
    """A coco_results array read in small blocks, from its text or from a file,
    parses exactly as the whole read of it does, error for error."""

    @staticmethod
    def parsed(monkeypatch, source, block):
        """The outcome of parse_detections on ``source`` read ``block`` characters at
        a time, and whether it handed the array over to the whole read."""
        whole_reads = []
        load_json = formats.load_json

        def spy(text, **kwargs):
            if not kwargs:
                whole_reads.append(len(text))
            return load_json(text, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(formats, "load_json", spy)
            patch.setattr(formats, "_JTA_BLOCK", block)
            outcome = jta_outcome(
                lambda: parse_detections(source, "coco_results", frame_of_image=RESULT_FRAMES)
            )
        return outcome, bool(whole_reads)

    @pytest.mark.parametrize("from_file", [False, True], ids=["text", "stream"])
    @pytest.mark.parametrize("block", [1, 7, 300])
    @pytest.mark.parametrize("case", RESULT_STREAM_CASES)
    def test_equals_the_whole_read(self, monkeypatch, tmp_path, case, block, from_file):
        text, falls_back = RESULT_STREAM_CASES[case]
        with monkeypatch.context() as patch:
            patch.setattr(formats, "_stream_detections", lambda blocks, frame_of: None)
            whole = jta_outcome(
                lambda: parse_detections(text, "coco_results", frame_of_image=RESULT_FRAMES)
            )
        if from_file:
            path = tmp_path / "det.json"
            path.write_text(text, encoding="utf-8")
            with path.open(encoding="utf-8") as stream:
                outcome, fell_back = self.parsed(monkeypatch, stream, block)
        else:
            outcome, fell_back = self.parsed(monkeypatch, text, block)
        assert outcome == whole
        assert fell_back == falls_back or falls_back is None
        # Only the cases whose text is not a valid array of valid records raise.
        assert isinstance(whole, tuple) == (falls_back is True)

    @pytest.mark.parametrize(
        "case", ["a valid record with a nested object", "a valid record with a string holding },"]
    )
    def test_a_record_that_a_cut_splits_is_read_whole(self, monkeypatch, case):
        # In one block, the last "}, " is inside the last record, so the cut splits it.
        text, _ = RESULT_STREAM_CASES[case]
        outcome, fell_back = self.parsed(monkeypatch, text, len(text))
        want = [d for r in [*RESULTS, COCO_RESULT] for d in reference_detections(r, RESULT_FRAMES)]
        want.sort(key=lambda d: (d.frame_id, -d.score))
        assert fell_back and outcome == repr(want)

    def test_pieces_are_cut_after_a_records_brace(self):
        text, _ = RESULT_STREAM_CASES["whitespace and newlines between records"]
        blocks = (text[i : i + 300] for i in range(0, len(text), 300))
        pieces = [*map(json.loads, formats._jta_pieces(blocks, "}"))]
        assert len(pieces) > 2 and [record for piece in pieces for record in piece] == RESULTS

    def test_stream_holds_little_beyond_its_detections(self):
        # About 1.1 MB of text in 64 KiB blocks. Beyond the detections that it
        # returns, the stream holds one block's records and the sort's keys; the
        # whole read holds every record's dict (3.5 times as much when written).
        rng = random.Random(5)
        records = [
            {"image_id": rng.randint(1, 5), "category_id": 1,
             "bbox": [rng.uniform(0, 1800), rng.uniform(0, 1000), rng.uniform(1, 90),
                      rng.uniform(1, 200)], "score": rng.random()}
            for _ in range(8000)
        ]
        text = json.dumps(records)
        del records
        assert 900_000 < len(text) < 1_300_000
        peaks = []
        tracemalloc.start()
        try:
            for stream in (True, False):
                tracemalloc.reset_peak()
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(formats, "_JTA_BLOCK", 1 << 16)
                    if not stream:
                        patch.setattr(formats, "_stream_detections", lambda blocks, frame_of: None)
                    detections = parse_detections(
                        text, "coco_results", frame_of_image=RESULT_FRAMES
                    )
                    kept, peak = tracemalloc.get_traced_memory()
                peaks.append(peak - kept)
                del detections
        finally:
            tracemalloc.stop()
        assert peaks[0] < peaks[1] / 2


def csv_record(line, fewest, most):
    return formats.csv_rows(line, fewest, most)[1][0]


FRAME_VALUES = [value for value, _ in RULES["frame"][1].values()]
BOX_VALUES = [box for box, _ in RULES["box"][1].values()]
SCORE_VALUES = [2, -0.2, 1 + 1e-10, -1e-10, math.nan, math.inf]
# Per record rule: the arguments after the records, a good record, and one-record
# variants, good and bad: JTA_RECORD_CASES, and the frame, box and score values
# that tests/test_value_rules.py feeds the readers, in MOT and mot_det rows.
RULE_CASES = {
    "jta": (formats._jta_rows, (), JTA_RECORD, [record for record, _ in JTA_RECORD_CASES.values()]),
    "mot": (formats._mot_rows, ("v",), csv_record("1,7,10,20,30,40,1,1,1", 9, 9), [
        *(csv_record(f"{frame},7,10,20,30,40,1,1,1", 9, 9) for frame in FRAME_VALUES),
        *(csv_record(f"1,7,{csv_box(box)},1,1,1", 9, 9) for box in BOX_VALUES),
        *(csv_record(f"1,7,{csv_box(box)},1,2,1", 9, 9) for box in BOX_VALUES),
        csv_record("1,7.5,10,20,30,40,1,1,1", 9, 9),
        csv_record("1,7,10,20,30,40,1,1.5,1", 9, 9),
    ]),
    **{
        f"mot_det{name}": (formats._mot_detections, ("v", known), [1, -1, 10, 20, 30, 40, 0.5], [
            *(csv_record(f"{frame},-1,10,20,30,40,0.5", 7, 10) for frame in FRAME_VALUES),
            *(csv_record(f"1,-1,{csv_box(box)},0.5", 7, 10) for box in BOX_VALUES),
            *(csv_record(f"1,-1,10,20,30,40,{score!r}", 7, 10) for score in SCORE_VALUES),
            csv_record("7,-1,10,20,30,40,0.5", 7, 10),
        ])
        for name, known in [("", None), (", frames known", {("v", 1)})]
    },
}


@pytest.mark.parametrize(
    "rule, args, good, record",
    [
        pytest.param(rule, args, good, record, id=f"{name}-{idx}")
        for name, (rule, args, good, records) in RULE_CASES.items()
        for idx, record in enumerate(records)
    ],
)
def test_record_rule_refuses_what_it_words(rule, args, good, record):
    # Without a location a rule gives None, and raises nothing, exactly when,
    # given one, it raises: the records it refuses are the ones it words. A
    # message is formatted without a location too, so the rule also runs on
    # a good record then the variant, where the first value is not the bad one.
    refused = rule([record], *args) is None
    assert (rule([good, record], *args) is None) == refused
    try:
        rule([record], *args, at="record 0")
    except (ParseError, JoinError):
        assert refused
    else:
        assert not refused


# Per reader: a good record, a bad one, the bad one's error, and how a record is located.
RUN_CASES = {
    "parse_jta": (
        JTA_RECORD, with_field(3, None), "field 3 must be a finite number, got None", "record"
    ),
    "parse_coco_gt": (
        COCO_ANNOTATION, with_key(COCO_ANNOTATION, "bbox", [1, 2, 3]),
        "bbox must be [x, y, w, h], got [1, 2, 3]", "annotation",
    ),
    "parse_detections": (
        COCO_RESULT, with_key(COCO_RESULT, "score", 2.0), "score 2.0 outside [0, 1]", "record"
    ),
    "parse_mot_gt": (
        "1,7,10,20,30,40,1,1,1", "1,7,10,20,nan,40,1,1,1",
        "box field must be a finite number, got nan", "line",
    ),
    "mot_det": ("1,-1,10,20,30,40,0.5", "1,-1,10,20,30,40,2", "score 2.0 outside [0, 1]", "line"),
}


@pytest.mark.parametrize("bad", [999, 1000, 1001, 2499])
@pytest.mark.parametrize("reader", RUN_CASES)
def test_first_bad_record_is_located_across_runs(reader, bad):
    # A reader whose rule refuses a document runs the rule on runs of 1,000
    # records, then on each record of the first run it refuses. The last
    # record is bad too, so a later run that is refused must not matter.
    # A CSV file has a blank line after each row, so row N is on line 2N + 1.
    good, wrong, message, where = RUN_CASES[reader]
    records = [good] * 2500
    records[bad] = records[-1] = wrong
    parse = {
        "parse_jta": lambda: parse_jta(json.dumps(records), "v"),
        "parse_coco_gt": lambda: parse_coco_gt(coco_document(records)),
        "parse_detections": lambda: parse_detections(
            json.dumps(records), "coco_results", frame_of_image=FRAME_OF
        ),
        "parse_mot_gt": lambda: parse_mot_gt("\n\n".join(records), "v"),
        "mot_det": lambda: parse_detections("\n\n".join(records), "mot_det", video_id="v"),
    }[reader]
    with pytest.raises(ParseError) as exc_info:
        parse()
    at = f"{where} {2 * bad + 1 if where == 'line' else bad}"
    assert str(exc_info.value) == f"{message} ({at})"
    assert exc_info.value.location == at


def bad_frame_dump(early, late):
    groups = ((1, ped) for ped in range(20))
    return jta_dump(*groups, edit=set_field(1, 0, early))[:-1] + late + "]"  # Frame 0 is bad.


def csv_lines(first, rest, late, header=()):
    return "".join(f"{row}\n" for row in (*header, first, *[rest] * 5)) + late


def pooled_jta(workers):
    def parse(monkeypatch, tmp_path, text):
        path = tmp_path / "dump.json"
        path.write_text(text, encoding="utf-8")
        return TestPooledJta.pooled(monkeypatch, path, 1500, workers, [])[0]

    return parse


def in_text(parse):
    return lambda monkeypatch, tmp_path, text: jta_outcome(lambda: parse(text))


# Per reader: its text with an early record good (1) or bad (0) and a late part
# good ("") or unparsable ("x"), and how to read it. Each early value is as long
# as the good one, so a JSON error is at the same character either way.
PRECEDENCE_CASES = {
    "jta streamed": (bad_frame_dump, pooled_jta(1)),
    "jta streamed, 2 workers": (bad_frame_dump, pooled_jta(2)),
    "jta read whole": (bad_frame_dump, in_text(lambda text: parse_jta(text, "v"))),
    "coco_gt": (
        lambda early, late: coco_document(
            [with_key(COCO_ANNOTATION, "bbox", [10, 20, 30, early])] * 5
        )[:-1] + late + "}",
        in_text(parse_coco_gt),
    ),
    "coco_results": (
        lambda early, late: json.dumps(
            [with_key(COCO_RESULT, "score", 1.5 - early)] + [COCO_RESULT] * 5
        )[:-1] + late + "]",
        in_text(lambda text: parse_detections(text, "coco_results", frame_of_image=FRAME_OF)),
    ),
    "mot": (
        lambda early, late: csv_lines(f"{early},7,10,20,30,40,1,1,1", "2,7,1,2,3,4,1,1,1", late),
        in_text(lambda text: parse_mot_gt(text, "v")),
    ),
    "mot_det": (
        lambda early, late: csv_lines(f"{early},-1,10,20,30,40,0.5", "2,-1,10,20,30,40,0.5", late),
        in_text(lambda text: parse_detections(text, "mot_det", video_id="v")),
    ),
    "calibration": (
        lambda early, late: csv_lines(
            f"{early},10,110", "1,10,110", late, header=["h_s_px,z_m,h_true_px"]
        ),
        in_text(load_calibration_samples),
    ),
}


@pytest.mark.parametrize("reader", PRECEDENCE_CASES)
def test_unparsable_input_is_the_error_before_any_bad_record(monkeypatch, tmp_path, reader):
    # Every reader parses its whole input before it checks a record: JSON
    # errors, and CSV lines that do not split into numbers, come first.
    make, outcome = PRECEDENCE_CASES[reader]
    read = partial(outcome, monkeypatch, tmp_path)
    assert isinstance(read(make(1, "")), str)
    bad_record = read(make(0, ""))
    parse_failure = read(make(1, "x"))
    assert isinstance(bad_record, tuple) and isinstance(parse_failure, tuple)
    assert bad_record != parse_failure
    assert read(make(0, "x")) == parse_failure


SLOTTED_RECORDS = {
    "BBox": (BBox(1.0, 2.5, 3.0, 4.0), "BBox(x=1.0, y=2.5, w=3.0, h=4.0)"),
    "AnnotatedBox": (
        AnnotatedBox("v", 3, 7, BBox(1.0, 2.5, 3.0, 4.0), 12.5),
        "AnnotatedBox(video_id='v', frame_id=3, pedestrian_id=7, "
        "box=BBox(x=1.0, y=2.5, w=3.0, h=4.0), distance_m=12.5)",
    ),
    "Detection": (
        Detection("v", 3, BBox(1.0, 2.5, 3.0, 4.0), 0.75),
        "Detection(video_id='v', frame_id=3, box=BBox(x=1.0, y=2.5, w=3.0, h=4.0), score=0.75)",
    ),
    "FrameRef": (FrameRef(9, "v", 3), "FrameRef(image_id=9, video_id='v', frame_id=3)"),
    "MatchOutcome": (
        MatchOutcome(2, 5, 0.625),
        "MatchOutcome(detection_index=2, matched_gt=5, iou_at_match=0.625)",
    ),
}


@pytest.mark.parametrize("value, text", SLOTTED_RECORDS.values(), ids=SLOTTED_RECORDS.keys())
def test_slotted_record_types_behave_as_frozen_dataclasses(value, text):
    cls = type(value)
    names = [field.name for field in dataclasses.fields(cls)]
    assert cls.__slots__ == tuple(names) and not hasattr(value, "__dict__")
    twin = cls(*(getattr(value, name) for name in names))
    assert twin == value and twin is not value and hash(twin) == hash(value)
    assert repr(value) == text
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, names[0], 0)
    # A name that is no field is refused too, with the TypeError of the frozen
    # __setattr__ of a class that slots=True rebuilt (as for SkeletonInstance).
    with pytest.raises(TypeError):
        setattr(value, "other", 0)
    changed = dataclasses.replace(value, **{names[-1]: None})
    assert getattr(changed, names[-1]) is None and changed != value
    assert dataclasses.replace(value) == value
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert (back, repr(back), type(back)) == (value, text, cls)
    assert copy.deepcopy(value) == value and repr(copy.deepcopy(value)) == text
