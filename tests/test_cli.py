import errno
import gc
import hashlib
import json
import os
import random
import re
import resource
import stat
import subprocess
import sys

import pytest

from skel2box import (
    AnnotatedBox,
    BBox,
    CalibrationResult,
    MixConfig,
    cli,
    emit_coco,
    emit_detections,
    emit_mot,
    formats,
    manifest_for_annotations,
    parse_coco_gt,
    parse_mot_gt,
    parse_plan,
    plan_finetune,
    plan_mixed_batches,
)
from skel2box.errors import ParseError
from test_formats import GROUP_ERRORS, STREAM_CASES

SAMPLES_CSV = "h_s_px,z_m,h_true_px\n50,10,60\n100,5,120\n80,20,85\n40,25,44\n"
# A JSON integer beyond float range, far below the 4300-digit limit.
BEYOND_FLOAT = "1" + "0" * 400


def run_cli(capsys, *args):
    code = cli.run([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def summary_of(capsys, *args):
    code, out, err = run_cli(capsys, *args)
    assert code == 0, err
    assert out.count("\n") == 1
    return json.loads(out)


def jta_file(tmp_path, skeletons, name="clip.json", joints=22):
    """Write a joint dump; skeletons are (frame, ped, x, y, w, h, z) tuples."""
    records = []
    for frame, ped, x, y, w, h, z in skeletons:
        for j in range(joints):
            if j == 0:
                px, py = x, y
            elif j == 1:
                px, py = x + w, y + h
            else:
                px, py = x + w / 2, y + h / 2
            records.append([frame, ped, j, px, py, 0.0, 0.0, z, 0, 0])
    path = tmp_path / name
    path.write_text(json.dumps(records))
    return path


def annotation(video, frame, ped, x, y, w, h, dist):
    box = BBox(x, y, w, h)
    return AnnotatedBox(video, frame, ped, box, dist)


def two_category_file(tmp_path):
    """A foreign COCO file: one image holding a person and a car (category 3)."""
    doc = {
        "images": [{"id": 1, "file_name": "v/000001.jpg", "width": 200, "height": 100}],
        "annotations": [
            {"id": 1, "image_id": 1, "category_id": 1, "bbox": [10, 10, 20, 40]},
            {"id": 2, "image_id": 1, "category_id": 3, "bbox": [50, 50, 30, 20]},
        ],
    }
    path = tmp_path / "two.json"
    path.write_text(json.dumps(doc))
    return path


def coco_file(tmp_path, annotations, name="gt.json", dataset_id="ds"):
    manifest = manifest_for_annotations(
        annotations, dataset_id=dataset_id, image_w=1920.0, image_h=1080.0
    )
    path = tmp_path / name
    path.write_text(emit_coco(annotations, manifest))
    return path


class TestCalibrate:
    def test_fit_and_write(self, tmp_path, capsys):
        samples = tmp_path / "samples.csv"
        samples.write_text(SAMPLES_CSV)
        out = tmp_path / "alpha.json"
        summary = summary_of(capsys, "calibrate", "--samples", samples, "--out", out)
        assert summary["command"] == "calibrate"
        assert abs(summary["alpha"] - 100.0) <= 1e-9 * 100.0
        assert summary["n_samples"] == 4
        result = CalibrationResult.from_json(out.read_text())
        assert result.alpha == summary["alpha"]

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "calibrate", "--samples", tmp_path / "nope.csv")
        assert code == 2
        assert "nope.csv" in err

    def test_malformed_row(self, tmp_path, capsys):
        samples = tmp_path / "samples.csv"
        samples.write_text("h_s_px,z_m,h_true_px\n50,abc,60\n")
        code, _, err = run_cli(capsys, "calibrate", "--samples", samples)
        assert code == 2
        assert "line 2" in err
        assert str(samples) in err

    # 1/z_m**2 is infinite (z*z underflows) or 0 (z*z overflows).
    @pytest.mark.parametrize("z_m", ["1e-200", "1e-160", "1e200"])
    def test_distance_without_a_finite_fit_weight_leaves_no_output(self, tmp_path, capsys, z_m):
        samples = tmp_path / "samples.csv"
        samples.write_text(f"h_s_px,z_m,h_true_px\n50,10,60\n50,{z_m},60\n")
        out = tmp_path / "alpha.json"
        code, stdout, err = run_cli(capsys, "calibrate", "--samples", samples, "--out", out)
        assert (code, stdout) == (2, "")
        assert err.startswith(f"error: {samples}: z_m ") and err.endswith("(line 3)\n")
        assert not out.exists()


    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty file, expected header h_s_px,z_m,h_true_px"),
            ("h_s_px,z_m,h_true_px\n50,1e-154,60\n50,1e-154,60\n",
             "the samples give no finite fit: intermediate overflow in fsum"),
            ("h_s_px,z_m,h_true_px\n1,1e-100,1e308\n",
             "the samples give no finite fit: CalibrationResult(alpha=inf, n_samples=1, "
             "rmse_px=inf, max_abs_residual_px=inf)"),
            # Longer than the csv module's field limit of 131072 characters.
            ("h_s_px,z_m,h_true_px\n" + "5" * 200000 + ",1,1\n",
             "h_s_px must be finite and positive, got inf (line 2)"),
        ],
        ids=["empty_file", "weights_overflow", "alpha_inf", "long_field"],
    )
    def test_bad_samples_leave_no_output(self, tmp_path, capsys, text, message):
        samples = tmp_path / "samples.csv"
        samples.write_text(text)
        out = tmp_path / "alpha.json"
        code, stdout, err = run_cli(capsys, "calibrate", "--samples", samples, "--out", out)
        assert (code, stdout, err) == (2, "", f"error: {samples}: {message}\n")
        assert not out.exists()


class TestSynthesize:
    @pytest.mark.parametrize(
        "fields, args",
        [
            # math.fsum of the z3d column overflows.
            ({7: lambda joint: 1e308}, ["--alpha", 174]),
            # A distance of about 1e-320 pads the box to infinity.
            (dict.fromkeys((5, 6, 7), lambda joint: 1e-320), ["--alpha", 174]),
            # A hull about 2e-4 px high, padded by 1e307 px, is too wide.
            ({4: lambda joint: 200.0 + joint * 1e-5}, ["--alpha", 1e308]),
            # A hull 2e308 px wide.
            ({3: lambda joint: (-1e308, 1e308, 0.0)[min(joint, 2)]}, ["--alpha", 174]),
            # A hull 2e308 px high.
            ({4: lambda joint: (-1e308, 1e308, 0.0)[min(joint, 2)]}, ["--alpha", 174]),
            # Width and height are finite, their product is not.
            ({}, ["--alpha", 1e307, "--no-clamp"]),
        ],
        ids=["distance overflows", "subnormal distance", "flat skeleton, huge alpha",
             "hull beyond float range", "hull 2e308 px high", "area overflows"],
    )
    def test_box_beyond_float_range_is_skipped(self, tmp_path, capsys, fields, args):
        # Pedestrian 1's fields are set, per joint id, to the values ``fields`` gives.
        jta = jta_file(tmp_path, [(1, 0, 100.0, 200.0, 20.0, 50.0, 10.0),
                                  (1, 1, 500.0, 200.0, 50.0, 120.0, 10.0)])
        records = json.loads(jta.read_text())
        for record in records:
            if record[1] == 1:
                for field, value in fields.items():
                    record[field] = value(record[2])
        jta.write_text(json.dumps(records))
        out_coco, out_mot = tmp_path / "gt.json", tmp_path / "gt.txt"
        summary = summary_of(
            capsys, "synthesize", "--jta", jta, *args, "--out-coco", out_coco, "--out-mot", out_mot
        )
        assert summary["n_skipped"] >= 1
        assert summary["n_annotations"] + summary["n_skipped"] == 2
        gt = parse_coco_gt(out_coco.read_text())
        assert len(gt.annotations) == summary["n_annotations"]
        assert len(parse_mot_gt(out_mot.read_text(), "clip")[0]) == summary["n_annotations"]

    def test_single_skeleton(self, tmp_path, capsys):
        jta = jta_file(tmp_path, [(3, 7, 100.0, 200.0, 20.0, 50.0, 10.0)])
        out_coco = tmp_path / "gt.json"
        out_mot = tmp_path / "gt.txt"
        summary = summary_of(
            capsys,
            "synthesize", "--jta", jta, "--alpha", 100,
            "--out-coco", out_coco, "--out-mot", out_mot,
        )
        assert summary["n_annotations"] == 1
        assert summary["n_skipped"] == 0
        assert summary["video_id"] == "clip"
        gt = parse_coco_gt(out_coco.read_text())
        assert len(gt.images) == 3  # frames 1..3 even without annotations
        ann = gt.annotations[0]
        assert ann.box == BBox(98.0, 195.0, 24.0, 60.0)
        assert ann.distance_m == 10.0
        assert ann.pedestrian_id == 7
        assert out_mot.read_text() == "3,7,98,195,24,60,1,1,1\n"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_counts_of_skeletons_and_records(self, monkeypatch, tmp_path, capsys, workers):
        # 40 frames of 3 pedestrians, the third beyond the image's right edge.
        jta = jta_file(tmp_path, [(f, p, 100.0 + 3000.0 * (p == 2), 200.0, 20.0, 50.0, 10.0)
                                  for f in range(1, 41) for p in range(3)])
        monkeypatch.setattr(formats, "_jta_workers", lambda size: workers)
        monkeypatch.setattr(formats, "_JTA_BLOCK", 4096)
        summary = summary_of(
            capsys, "synthesize", "--jta", jta, "--alpha", 100, "--out-coco", tmp_path / "gt.json"
        )
        assert (summary["n_skeletons"], summary["n_skipped"]) == (120, 40)
        assert summary["n_records"] == 22 * summary["n_skeletons"]
        assert summary["n_annotations"] + summary["n_skipped"] == summary["n_skeletons"]

    def test_alpha_file(self, tmp_path, capsys):
        samples = tmp_path / "samples.csv"
        samples.write_text(SAMPLES_CSV)
        alpha_out = tmp_path / "alpha.json"
        summary_of(capsys, "calibrate", "--samples", samples, "--out", alpha_out)
        jta = jta_file(tmp_path, [(1, 1, 100.0, 200.0, 20.0, 50.0, 10.0)])
        summary = summary_of(
            capsys,
            "synthesize", "--jta", jta, "--alpha-file", alpha_out,
            "--out-coco", tmp_path / "gt.json",
        )
        assert abs(summary["alpha"] - 100.0) <= 1e-9 * 100.0

    def test_alpha_required(self, tmp_path, capsys):
        jta = jta_file(tmp_path, [(1, 1, 100.0, 200.0, 20.0, 50.0, 10.0)])
        code, _, err = run_cli(
            capsys, "synthesize", "--jta", jta, "--out-coco", tmp_path / "gt.json"
        )
        assert code == 1
        assert "alpha" in err

    def test_no_clamp(self, tmp_path, capsys):
        # Near skeleton at the left border: pad pushes x below zero
        jta = jta_file(tmp_path, [(1, 1, 0.0, 100.0, 20.0, 50.0, 1.0)])
        clamped = tmp_path / "clamped.json"
        free = tmp_path / "free.json"
        summary_of(capsys, "synthesize", "--jta", jta, "--alpha", 100, "--out-coco", clamped)
        summary_of(
            capsys,
            "synthesize", "--jta", jta, "--alpha", 100, "--out-coco", free, "--no-clamp",
        )
        box_clamped = parse_coco_gt(clamped.read_text()).annotations[0].box
        box_free = parse_coco_gt(free.read_text()).annotations[0].box
        assert box_free.x < 0 <= box_clamped.x
        assert box_free != box_clamped

    def test_rerun_byte_identical(self, tmp_path, capsys):
        jta = jta_file(tmp_path, [(1, 2, 50.0, 60.0, 30.0, 90.0, 12.5)])
        out = tmp_path / "gt.json"
        summary_of(capsys, "synthesize", "--jta", jta, "--alpha", 80, "--out-coco", out)
        first = out.read_bytes()
        summary_of(capsys, "synthesize", "--jta", jta, "--alpha", 80, "--out-coco", out)
        assert out.read_bytes() == first

    def test_bad_input_leaves_no_output(self, tmp_path, capsys):
        jta = tmp_path / "broken.json"
        jta.write_text("[[1, 2, 0")
        out = tmp_path / "gt.json"
        code, _, err = run_cli(
            capsys, "synthesize", "--jta", jta, "--alpha", 100, "--out-coco", out
        )
        assert code == 2
        assert not out.exists()

    def test_frame_zero_leaves_no_output(self, tmp_path, capsys):
        jta = jta_file(tmp_path, [(0, 1, 100.0, 200.0, 20.0, 50.0, 10.0)])
        out = tmp_path / "gt.json"
        code, _, err = run_cli(
            capsys, "synthesize", "--jta", jta, "--alpha", 100, "--out-coco", out
        )
        assert code == 2
        assert "frames are 1-based" in err and "(record 0)" in err
        assert not out.exists()


class TestAllOrNothing:
    """A command's files are written all together or not at all."""

    def synthesize(self, monkeypatch, tmp_path, capsys, mot):
        """Run synthesize in ``tmp_path`` onto a ``gt.json`` that holds earlier bytes."""
        jta_file(tmp_path, [(1, 1, 10.0, 20.0, 30.0, 60.0, 10.0)])
        (tmp_path / "gt.json").write_text("earlier")
        (tmp_path / "taken").mkdir()
        monkeypatch.chdir(tmp_path)
        return run_cli(
            capsys, "synthesize", "--jta", "clip.json", "--alpha", 100,
            "--out-coco", "gt.json", "--out-mot", mot,
        )

    def assert_untouched(self, tmp_path):
        assert (tmp_path / "gt.json").read_text() == "earlier"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["clip.json", "gt.json", "taken"]
        assert list((tmp_path / "taken").iterdir()) == []

    @pytest.mark.parametrize(
        "mot, code", [("nodir/gt.txt", errno.ENOENT), ("taken", errno.EISDIR), ("", errno.ENOENT)],
        ids=["missing directory", "existing directory", "empty path"],
    )
    def test_failed_output_replaces_no_other(self, monkeypatch, tmp_path, capsys, mot, code):
        result = self.synthesize(monkeypatch, tmp_path, capsys, mot)
        assert result == (2, "", f"error: [Errno {code}] {os.strerror(code)}: {mot!r}\n")
        self.assert_untouched(tmp_path)

    def test_failed_text_removes_the_written_ones(self, monkeypatch, tmp_path, capsys):
        # The COCO text is already in its temporary file when the MOT text fails.
        def fail(annotations):
            raise ParseError("no MOT text")

        monkeypatch.setattr(formats, "emit_mot", fail)
        result = self.synthesize(monkeypatch, tmp_path, capsys, "gt.txt")
        assert result == (2, "", "error: no MOT text\n")
        self.assert_untouched(tmp_path)

    def test_output_not_asked_for_is_never_made(self, monkeypatch, tmp_path, capsys):
        def fail(annotations):
            raise AssertionError("the MOT text was made")

        monkeypatch.setattr(formats, "emit_mot", fail)
        jta = jta_file(tmp_path, [(1, 1, 10.0, 20.0, 30.0, 60.0, 10.0)])
        out = tmp_path / "gt.json"
        summary = summary_of(capsys, "synthesize", "--jta", jta, "--alpha", 100, "--out-coco", out)
        assert summary["out_mot"] is None
        assert parse_coco_gt(out.read_text()).annotations


def golden_jta_records():
    """A seeded 6-frame dump with every kind of skeleton ``synthesize`` meets.

    Per frame, pedestrian ``ped % 6`` picks the kind: 0-1 plain, 2 off the
    image, 3 a single point (degenerate hull), 4 at the camera (distance 0),
    5 at the left border with ``-0.0`` and ``0.0`` screen x. About a tenth of
    the records are written the non-canonical way (integer coordinates,
    ``true`` flags, ``3.0`` ids), and the record order is shuffled.
    """
    rng = random.Random(6)
    records = []
    for frame in range(1, 7):
        for ped in range(12):
            kind = ped % 6
            cx, cy = rng.uniform(60, 1860), rng.uniform(150, 930)
            z = rng.uniform(2.0, 70.0)
            if kind == 2:
                cx += 5000.0
            for joint in range(22):
                x, y = cx + rng.uniform(-30, 30), cy + rng.uniform(-120, 120)
                x3, y3, z3 = rng.uniform(-1, 1), rng.uniform(-1, 1), z
                if kind == 3:
                    x, y = cx, cy
                elif kind == 4:
                    x3, y3, z3 = 0.0, -0.0, 0.0
                elif kind == 5:
                    x = (-0.0, 0.0)[joint % 2] if joint < 4 else rng.uniform(1, 60)
                record = [frame, ped, joint, x, y, x3, y3, z3, rng.randint(0, 1), 0]
                if rng.random() < 0.1:
                    field = rng.choice([0, 2, 3, 4, 8])
                    if field in (0, 2):
                        record[field] = float(record[field])
                    elif field == 8:
                        record[8] = record[8] == 1
                    else:
                        record[field] = round(record[field])
                records.append(record)
    rng.shuffle(records)
    return records


class TestSynthesizeGolden:
    # sha256 of the outputs as written before skeletons were stored as joint
    # columns; any change to ingest or synthesis that moves a byte fails here.
    COCO_SHA256 = "45121c7205a1b26c9e250b59da1867d3a86a7abdf06eb7c0942466c1be57283b"
    MOT_SHA256 = "a96c89a65f679077da9441e585248d78b786dc56764d40804d2c3c4758f7ca62"

    def test_output_bytes_are_pinned(self, tmp_path, capsys):
        jta = tmp_path / "golden.json"
        jta.write_text(json.dumps(golden_jta_records()))
        out_coco, out_mot = tmp_path / "gt.json", tmp_path / "gt.txt"
        summary = summary_of(
            capsys,
            "synthesize", "--jta", jta, "--alpha", 174,
            "--out-coco", out_coco, "--out-mot", out_mot,
        )
        assert (summary["n_annotations"], summary["n_skipped"]) == (37, 35)
        assert hashlib.sha256(out_coco.read_bytes()).hexdigest() == self.COCO_SHA256
        assert hashlib.sha256(out_mot.read_bytes()).hexdigest() == self.MOT_SHA256


class TestStreamedJoints:
    """synthesize reads the dump as a stream; what the stream hands over to
    the whole-document code ends exactly as a whole read does."""

    @pytest.mark.parametrize("case", STREAM_CASES)
    def test_small_blocks_end_as_the_whole_text(self, monkeypatch, tmp_path, capsys, case):
        jta = tmp_path / "dump.json"
        jta.write_text(STREAM_CASES[case][0], encoding="utf-8")
        out = tmp_path / "gt.json"

        def synthesize():
            code, stdout, err = run_cli(
                capsys, "synthesize", "--jta", jta, "--alpha", 100, "--out-coco", out
            )
            summary = json.loads(stdout) if stdout else None
            if summary:
                del summary["peak_rss_mb"]
            written = out.read_bytes() if out.exists() else None
            out.unlink(missing_ok=True)
            return code, summary, err, written

        whole = synthesize()
        monkeypatch.setattr(formats, "_JTA_BLOCK", 7)
        assert synthesize() == whole
        code, summary, err, written = whole
        if code:
            assert (code, summary, written) == (2, None, None)
            assert err.startswith(f"error: {jta}: ")
        if case in GROUP_ERRORS:
            assert err == f"error: {jta}: {GROUP_ERRORS[case][1]}\n"

    def test_non_utf8_byte_past_the_first_block_is_located(self, tmp_path, capsys):
        rows = [[f, p, j, 100.0 + j, 200.0 + j, 0.5, 0.5, 10.0, 0, 0]
                for f in range(1, 301) for p in range(8) for j in range(22)]
        text = json.dumps(rows).encode("utf-8")
        assert len(text) > 1.5 * 2**20
        at = text.index(b" ", 3 * 2**19)
        jta = tmp_path / "dump.json"
        jta.write_bytes(text[:at] + b"\xff" + text[at + 1:])
        out = tmp_path / "gt.json"
        code, stdout, err = run_cli(
            capsys, "synthesize", "--jta", jta, "--alpha", 100, "--out-coco", out
        )
        assert (code, stdout) == (2, "")
        assert err == f"error: {jta}: not UTF-8 text (invalid start byte) (byte {at})\n"
        assert not out.exists()


class TestHistogramAndPrune:
    def test_histogram_csv(self, tmp_path, capsys):
        anns = [
            annotation("v", 1, 1, 0, 0, 10, 20, 1.0),
            annotation("v", 1, 2, 5, 5, 10, 20, 1.5),
            annotation("v", 2, 1, 0, 0, 10, 20, 2.5),
        ]
        gt = coco_file(tmp_path, anns)
        out = tmp_path / "hist.csv"
        summary = summary_of(capsys, "histogram", "--gt", gt, "--out", out)
        assert summary["n_annotations"] == 3
        assert out.read_text() == "bin_lower_m,count\n0,0\n1,2\n2,1\n"

    def test_prune_default_limit(self, tmp_path, capsys):
        anns = [
            annotation("v", 1, 1, 0, 0, 10, 20, 39.0),
            annotation("v", 1, 2, 5, 5, 10, 20, 40.0),
            annotation("v", 1, 3, 9, 9, 10, 20, 41.0),
        ]
        gt = coco_file(tmp_path, anns)
        out = tmp_path / "pruned.json"
        summary = summary_of(capsys, "prune", "--gt", gt, "--out", out)
        assert summary["kept"] == 2
        assert summary["pruned"] == 1
        assert summary["distance_limit_m"] == 40.0
        pruned = parse_coco_gt(out.read_text())
        assert [a.pedestrian_id for a in pruned.annotations] == [1, 2]
        assert pruned.manifest.distance_limit_m == 40.0

    def test_box_area_beyond_float_range_leaves_no_output(self, tmp_path, capsys):
        gt = coco_file(tmp_path, [annotation("v", 1, 1, 0, 0, 10, 20, 39.0)])
        doc = json.loads(gt.read_text())
        doc["annotations"][0]["bbox"] = [10, 20, 1e200, 1e200]
        gt.write_text(json.dumps(doc))
        out = tmp_path / "pruned.json"
        code, stdout, err = run_cli(capsys, "prune", "--gt", gt, "--out", out)
        message = "box width times height must be finite, got 1e+200 and 1e+200 (annotation 0)"
        assert (code, stdout, err) == (2, "", f"error: {gt}: {message}\n")
        assert not out.exists()

    def test_limit_flag_beats_config_file(self, tmp_path, capsys):
        anns = [
            annotation("v", 1, 1, 0, 0, 10, 20, 39.0),
            annotation("v", 1, 2, 5, 5, 10, 20, 40.0),
            annotation("v", 1, 3, 9, 9, 10, 20, 41.0),
        ]
        gt = coco_file(tmp_path, anns)
        config = tmp_path / "config.json"
        config.write_text('{"distance_limit_m": 100.0}')
        out = tmp_path / "pruned.json"
        from_file = summary_of(capsys, "prune", "--gt", gt, "--out", out, "--config", config)
        assert from_file["kept"] == 3
        from_flag = summary_of(
            capsys,
            "prune", "--gt", gt, "--out", out, "--config", config,
            "--distance-limit", 39.5,
        )
        assert from_flag["kept"] == 1

    def test_unknown_config_key(self, tmp_path, capsys):
        gt = coco_file(tmp_path, [annotation("v", 1, 1, 0, 0, 10, 20, 5.0)])
        config = tmp_path / "config.json"
        config.write_text('{"distance_limit": 10}')
        code, _, err = run_cli(
            capsys, "prune", "--gt", gt, "--out", tmp_path / "o.json", "--config", config
        )
        assert code == 2
        assert "distance_limit" in err

    def test_config_file_must_hold_an_object(self, tmp_path, capsys):
        gt = coco_file(tmp_path, [annotation("v", 1, 1, 0, 0, 10, 20, 5.0)])
        config = tmp_path / "config.json"
        config.write_text('[{"distance_limit_m": 10}]')
        out = tmp_path / "o.json"
        code, _, err = run_cli(capsys, "prune", "--gt", gt, "--out", out, "--config", config)
        assert (code, err) == (2, f"error: {config}: config file must hold a JSON object\n")
        assert not out.exists()

    def test_malformed_config_file(self, tmp_path, capsys):
        gt = coco_file(tmp_path, [annotation("v", 1, 1, 0, 0, 10, 20, 5.0)])
        config = tmp_path / "config.json"
        config.write_text("{broken")
        code, _, err = run_cli(
            capsys, "prune", "--gt", gt, "--out", tmp_path / "o.json", "--config", config
        )
        assert code == 2
        assert str(config) in err


class TestDistanceLimit:
    def test_derives_crossing_bin(self, tmp_path, capsys):
        anns = [
            annotation("v", 1, 1, 0, 0, 50, 130.0, 10.0),
            annotation("v", 1, 2, 0, 0, 30, 65.0, 20.0),
            annotation("v", 1, 3, 0, 0, 20, 40.0, 30.0),
            annotation("v", 1, 4, 0, 0, 15, 30.0, 40.0),
        ]
        gt = coco_file(tmp_path, anns)
        out = tmp_path / "limit.json"
        summary = summary_of(
            capsys,
            "distance-limit", "--gt", gt, "--h-min", 50,
            "--min-bin-count", 1, "--out", out,
        )
        assert summary["distance_limit_m"] == 30.0
        assert json.loads(out.read_text()) == {"distance_limit_m": 30.0}


class TestDistanceFlagsAndData:
    """A bad flag is named before any file is read; bad data names the file."""

    @pytest.mark.parametrize(
        "args, message",
        [
            (("histogram", "--bin-width", 0),
             "--bin-width: bin width must be positive, got 0.0"),
            (("distance-limit", "--h-min", 10, "--bin-width", "nan"),
             "--bin-width: bin width must be positive, got nan"),
            (("distance-limit", "--h-min", -1),
             "--h-min: height floor must be non-negative, got -1.0"),
        ],
        ids=["histogram_bin_width", "distance_limit_bin_width", "distance_limit_h_min"],
    )
    def test_bad_flag_is_named_before_the_file_is_read(self, tmp_path, capsys, args, message):
        out = tmp_path / "out.csv"
        missing = tmp_path / "missing.json"
        code, stdout, err = run_cli(capsys, *args, "--gt", missing, "--out", out)
        assert (code, stdout, err) == (2, "", f"error: {message}\n")
        assert not out.exists()

    def test_histogram_of_too_many_bins_leaves_no_output(self, tmp_path, capsys):
        gt = coco_file(tmp_path, [annotation("v", 1, 1, 0, 0, 10, 20, 1e12)])
        out = tmp_path / "hist.csv"
        code, stdout, err = run_cli(capsys, "histogram", "--gt", gt, "--out", out)
        assert (code, stdout) == (2, "")
        assert err == f"error: {gt}: distance 1000000000000.0 m is past 1000000 bins of 1.0 m\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "args", [("histogram",), ("distance-limit", "--h-min", 10), ("prune",)]
    )
    def test_annotation_without_a_finite_distance_names_the_file(self, tmp_path, capsys, args):
        # A foreign annotation without distance_m is infinitely far: refused,
        # not binned, and not pruned into an empty dataset.
        gt = tmp_path / "gt.json"
        gt.write_text(json.dumps({
            "images": [{"id": 1, "file_name": "v/000001.jpg"}],
            "annotations": [{"id": 1, "image_id": 1, "bbox": [0, 0, 10, 20]}],
        }))
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, *args, "--gt", gt, "--out", out)
        message = "distance must be finite and positive, got inf"
        assert (code, stdout, err) == (2, "", f"error: {gt}: {message}\n")
        assert not out.exists()

    def test_bin_index_beyond_float_range_leaves_no_output(self, tmp_path, capsys):
        gt = coco_file(tmp_path, [annotation("v", 1, 1, 0, 0, 10, 20, 5e6)])
        out = tmp_path / "limit.json"
        code, stdout, err = run_cli(
            capsys,
            "distance-limit", "--gt", gt, "--h-min", 10, "--bin-width", "1e-310", "--out", out,
        )
        assert (code, stdout) == (2, "")
        assert err == f"error: {gt}: distance 5000000.0 m is past 1000000 bins of 1e-310 m\n"
        assert not out.exists()

    def test_distance_limit_of_no_annotations_names_the_file(self, tmp_path, capsys):
        gt = coco_file(tmp_path, [])
        code, _, err = run_cli(capsys, "distance-limit", "--gt", gt, "--h-min", 10)
        assert (code, err) == (
            2, f"error: {gt}: cannot derive a distance limit from zero annotations\n"
        )


class TestFrameTable:
    """An input whose frame table would pass formats.MAX_FRAMES is refused
    before any frame is built, also in a process limited to 600 MB of
    address space (``ulimit -v 600000``)."""

    FRAME = 20_000_000

    def write_input(self, tmp_path, kind):
        if kind == "prune":
            gt = tmp_path / "gt.json"
            doc = {"images": [{"id": 1, "file_name": f"v/{self.FRAME}.jpg"}], "annotations": []}
            gt.write_text(json.dumps(doc))
            return gt, ("prune", "--gt", gt)
        if kind == "convert":
            mot = tmp_path / "gt.txt"
            mot.write_text(f"{self.FRAME},1,1,1,2,2,1,1,1\n")
            return mot, ("convert", "--in", mot, "--from", "mot", "--to", "coco", "--video-id=v")
        jta = jta_file(tmp_path, [(self.FRAME, 1, 100, 100, 50, 100, 10.0)], name="v.json")
        return jta, ("synthesize", "--jta", jta, "--alpha", 100)

    @pytest.mark.parametrize("kind", ["prune", "convert", "synthesize"])
    def test_larger_table_leaves_no_output(self, tmp_path, kind):
        source, args = self.write_input(tmp_path, kind)
        out = tmp_path / "out.json"
        out_flag = "--out-coco" if kind == "synthesize" else "--out"
        limit = 600_000 * 1024

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        proc = subprocess.run(
            [sys.executable, "-m", "skel2box.cli", *map(str, args), out_flag, str(out)],
            capture_output=True,
            text=True,
            preexec_fn=limit_address_space,
        )
        message = "video 'v' puts the frame table over 1000000 frames"
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error: {source}: {message}\n"
        assert not out.exists()

    def test_mot_to_mot_builds_no_table(self, tmp_path, capsys):
        mot = tmp_path / "gt.txt"
        mot.write_text(f"{self.FRAME},1,1,1,2,2,1,1,1\n")
        out = tmp_path / "out.txt"
        summary_of(
            capsys,
            "convert", "--in", mot, "--from", "mot", "--to", "mot", "--video-id", "v",
            "--out", out,
        )
        assert out.read_text() == mot.read_text()


class TestConvert:
    def test_coco_to_mot_to_coco(self, tmp_path, capsys):
        anns = [
            annotation("v", 1, 1, 10, 20, 30, 40, 5.0),
            annotation("v", 2, 1, 12, 22, 30, 40, 6.0),
            annotation("v", 2, 3, 50, 60, 20, 80, 7.0),
        ]
        gt = coco_file(tmp_path, anns)
        mot = tmp_path / "gt.txt"
        summary = summary_of(
            capsys, "convert", "--in", gt, "--from", "coco", "--to", "mot", "--out", mot
        )
        assert summary["n_annotations"] == 3
        assert mot.read_text() == emit_mot(anns)
        back = tmp_path / "back.json"
        summary_of(
            capsys,
            "convert", "--in", mot, "--from", "mot", "--to", "coco", "--out", back,
            "--video-id", "v", "--dataset-id", "ds",
        )
        parsed = parse_coco_gt(back.read_text())
        assert [(a.video_id, a.frame_id, a.pedestrian_id, a.box) for a in parsed.annotations] == [
            (a.video_id, a.frame_id, a.pedestrian_id, a.box) for a in anns
        ]

    def test_non_finite_mot_box_leaves_no_output(self, tmp_path, capsys):
        mot = tmp_path / "gt.txt"
        mot.write_text("1,1,10,20,30,40,1,1,1\n2,1,nan,20,30,40,1,1,1\n")
        out = tmp_path / "o.json"
        code, _, err = run_cli(
            capsys,
            "convert", "--in", mot, "--from", "mot", "--to", "coco",
            "--video-id", "v", "--out", out,
        )
        assert code == 2
        assert "box field must be a finite number, got nan (line 2)" in err
        assert not out.exists()

    def test_box_area_beyond_float_range_leaves_no_output(self, tmp_path, capsys):
        # Its area would be written as JSON, which cannot hold infinity.
        mot = tmp_path / "big.txt"
        mot.write_text("1,1,10,20,1e200,1e200,1,1,1\n")
        out = tmp_path / "big.json"
        code, stdout, err = run_cli(
            capsys,
            "convert", "--in", mot, "--from", "mot", "--to", "coco",
            "--video-id", "v", "--out", out,
        )
        message = "box width times height must be finite, got 1e+200 and 1e+200 (line 1)"
        assert (code, stdout, err) == (2, "", f"error: {mot}: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "row, to_fmt", [("0,1,10,20,30,40,1,1,1", "coco"), ("-2,1,10,20,30,40,1,1,1", "mot")]
    )
    def test_mot_frame_below_one_leaves_no_output(self, tmp_path, capsys, row, to_fmt):
        mot = tmp_path / "gt.txt"
        mot.write_text(f"{row}\n")
        out = tmp_path / "o.out"
        code, _, err = run_cli(
            capsys,
            "convert", "--in", mot, "--from", "mot", "--to", to_fmt,
            "--video-id", "v", "--out", out,
        )
        assert code == 2
        assert err.startswith(f"error: {mot}: frame must be at least 1") and "(line 1)" in err
        assert not out.exists()

    def test_mot_input_requires_video_id(self, tmp_path, capsys):
        mot = tmp_path / "gt.txt"
        mot.write_text("1,1,10,20,30,40,1,1,1\n")
        code, _, err = run_cli(
            capsys,
            "convert", "--in", mot, "--from", "mot", "--to", "coco",
            "--out", tmp_path / "o.json",
        )
        assert code == 1
        assert "--video-id" in err

    def test_multi_video_mot_output_needs_selector(self, tmp_path, capsys):
        anns = [
            annotation("a", 1, 1, 10, 20, 30, 40, 5.0),
            annotation("b", 1, 1, 10, 20, 30, 40, 5.0),
        ]
        gt = coco_file(tmp_path, anns)
        code, _, err = run_cli(
            capsys,
            "convert", "--in", gt, "--from", "coco", "--to", "mot",
            "--out", tmp_path / "o.txt",
        )
        assert code == 2
        out = tmp_path / "only_a.txt"
        summary = summary_of(
            capsys,
            "convert", "--in", gt, "--from", "coco", "--to", "mot", "--out", out,
            "--video-id", "a",
        )
        assert summary["n_annotations"] == 1
        assert out.read_text() == emit_mot(anns[:1])

    def test_video_id_must_name_an_input_video(self, tmp_path, capsys):
        gt = coco_file(tmp_path, [annotation("a", 1, 1, 10, 20, 30, 40, 5.0)])
        out = tmp_path / "o.txt"
        code, stdout, err = run_cli(
            capsys,
            "convert", "--in", gt, "--from", "coco", "--to", "mot", "--out", out,
            "--video-id", "b",
        )
        assert (code, stdout) == (2, "")
        assert err == f"error: {gt}: holds videos ['a'], not 'b'\n"
        assert not out.exists()

    def test_coco_annotations_of_other_categories_are_dropped(self, tmp_path, capsys):
        out = tmp_path / "two.txt"
        summary = summary_of(
            capsys,
            "convert", "--in", two_category_file(tmp_path), "--from", "coco", "--to", "mot",
            "--video-id", "v", "--out", out,
        )
        assert summary["n_annotations"] == 1
        assert out.read_text() == "1,1,10,10,20,40,1,1,1\n"

    def test_coco_annotations_of_other_categories_are_counted(self, tmp_path, capsys):
        # As --from mot counts rows of other classes.
        summary = summary_of(
            capsys,
            "convert", "--in", two_category_file(tmp_path), "--from", "coco", "--to", "coco",
            "--out", tmp_path / "one.json",
        )
        assert (summary["n_annotations"], summary["n_skipped"]) == (1, 1)


class TestEvaluate:
    def make_pair(self, tmp_path):
        anns = [
            annotation("v", 1, 1, 10, 20, 30, 40, 5.0),
            annotation("v", 1, 2, 100, 120, 30, 40, 6.0),
            annotation("v", 2, 1, 12, 22, 30, 40, 7.0),
        ]
        gt_path = coco_file(tmp_path, anns)
        gt = parse_coco_gt(gt_path.read_text())
        from skel2box import Detection

        dets = [Detection(a.video_id, a.frame_id, a.box, 1.0) for a in anns]
        det_path = tmp_path / "det.json"
        det_path.write_text(
            emit_detections(dets, "coco_results", image_id_of_frame=gt.image_id_by_frame())
        )
        return gt_path, det_path

    def test_ground_truth_of_other_categories_is_not_counted(self, tmp_path, capsys):
        det = tmp_path / "det.json"
        det.write_text('[{"image_id": 1, "bbox": [10, 10, 20, 40], "score": 0.9}]')
        gt = two_category_file(tmp_path)
        summary = summary_of(capsys, "evaluate", "--gt", gt, "--det", det)
        assert (summary["ap_allpoint"], summary["n_gt"], summary["n_det"]) == (1.0, 1, 1)

    def test_perfect_detections(self, tmp_path, capsys):
        gt_path, det_path = self.make_pair(tmp_path)
        out = tmp_path / "report.json"
        summary = summary_of(
            capsys, "evaluate", "--gt", gt_path, "--det", det_path, "--out", out
        )
        assert summary["ap_allpoint"] == 1.0
        assert summary["ap_101point"] == 1.0
        assert summary["n_gt"] == 3
        assert summary["n_det"] == 3
        report = json.loads(out.read_text())
        assert set(report) == {"ap_allpoint", "ap_101point", "n_gt", "n_det", "pr"}

    @pytest.mark.parametrize("flags, dropped", [((), 3), (("--score-floor", "0.5"), 5)])
    def test_summary_counts_detections_below_the_floor(self, tmp_path, capsys, flags, dropped):
        gt_path, _ = self.make_pair(tmp_path)
        det = tmp_path / "det.json"
        # The floor is strict: a score equal to it is dropped too.
        scores = [1.0, 0.5, 0.05000000000000001, 0.05, 0.01, 0.0]
        det.write_text(json.dumps(
            [{"image_id": 1, "bbox": [10, 20, 30, 40], "score": score} for score in scores]
        ))
        out = tmp_path / "report.json"
        summary = summary_of(
            capsys, "evaluate", "--gt", gt_path, "--det", det, "--out", out, *flags
        )
        assert (summary["n_det"], summary["n_floor_dropped"]) == (6, dropped)
        report = json.loads(out.read_text())
        assert set(report) == {"ap_allpoint", "ap_101point", "n_gt", "n_det", "pr"}

    def test_non_utf8_byte_past_the_first_block_is_located(self, tmp_path, capsys):
        gt = coco_file(tmp_path, [annotation("v", 1, 1, 10, 20, 30, 40, 5.0)])
        record = {"image_id": 1, "bbox": [10, 20, 30, 40], "score": 0.5}
        text = json.dumps([record] * 20000).encode("utf-8")
        assert len(text) > 2 * 2**19
        at = text.index(b" ", 3 * 2**18)
        det = tmp_path / "det.json"
        det.write_bytes(text[:at] + b"\xff" + text[at + 1:])
        out = tmp_path / "report.json"
        code, stdout, err = run_cli(capsys, "evaluate", "--gt", gt, "--det", det, "--out", out)
        assert (code, stdout) == (2, "")
        assert err == f"error: {det}: not UTF-8 text (invalid start byte) (byte {at})\n"
        assert not out.exists()

    def test_detections_from_a_pipe_are_read_whole(self, tmp_path):
        # A pipe cannot be read again, so the stream's reader does not take it.
        gt_path, det_path = self.make_pair(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "skel2box.cli", "evaluate", "--gt", str(gt_path),
             "--det", "/dev/stdin"],
            input=det_path.read_text(), capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        summary = json.loads(proc.stdout)
        assert (summary["ap_allpoint"], summary["n_det"], summary["n_matched"]) == (1.0, 3, 3)

    def test_mot_det_frame_without_ground_truth_names_file_and_line(self, tmp_path, capsys):
        gt = coco_file(tmp_path, [annotation("v", 1, 1, 10, 20, 30, 40, 5.0)])
        det = tmp_path / "det.txt"
        det.write_text("1,-1,1,1,10,10,0.9\n7,-1,1,1,10,10,0.8\n")
        out = tmp_path / "report.json"
        code, stdout, err = run_cli(
            capsys, "evaluate", "--gt", gt, "--det", det, "--det-format", "mot_det",
            "--video-id", "v", "--out", out,
        )
        assert (code, stdout) == (2, "")
        assert err == f"error: {det}: detection on (v, 7) has no ground-truth frame (line 2)\n"
        assert not out.exists()

    def test_mot_det_without_video_id_is_a_usage_error_before_any_read(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        code, stdout, err = run_cli(
            capsys, "evaluate", "--gt", missing, "--det", missing, "--det-format", "mot_det"
        )
        assert (code, stdout) == (1, "")
        assert err == "usage error: --video-id is required with --det-format mot_det\n"

    def test_mot_det_requires_video_id(self, tmp_path, capsys):
        gt_path, _ = self.make_pair(tmp_path)
        det = tmp_path / "det.txt"
        det.write_text("1,-1,10,20,30,40,1.0\n")
        code, _, err = run_cli(
            capsys,
            "evaluate", "--gt", gt_path, "--det", det, "--det-format", "mot_det",
        )
        assert code == 1
        assert "--video-id" in err


def own_detections(gt, path, image_id=int):
    """Each annotation of the COCO document ``gt`` as a coco_results detection of
    score 0.9, its image id spelled by ``image_id``, written to ``path``."""
    detections = [{"image_id": image_id(a["image_id"]), "bbox": a["bbox"], "score": 0.9}
                  for a in gt["annotations"]]
    path.write_text(json.dumps(detections))
    return path


class TestEvaluateOwnBoxes:
    """A written document's own boxes, as detections, score what they must. The
    inputs are those of the console-script checks of CI that these replace;
    there a person-and-car document's check is
    TestEvaluate::test_ground_truth_of_other_categories_is_not_counted."""

    @pytest.fixture(scope="class")
    def dumps(self, tmp_path_factory):
        """small.json, 20 skeletons, and pooled.json, written from clean.json: 600
        frames of 8 pedestrians, over 3 MiB, so that its pieces may go to workers."""
        work = tmp_path_factory.mktemp("dumps")
        rows = [[f, p, j, 100.0 + j, 200.0 + 2 * j, 0.5, 0.5, 10.0, 0, 0]
                for f in range(1, 601) for p in range(8) for j in range(22)]
        (work / "small.json").write_text(json.dumps(rows[:440]))
        (work / "clean.json").write_text(json.dumps(rows))
        assert (work / "clean.json").stat().st_size > 3 * 2**20
        argv = ["synthesize", "--jta", work / "clean.json", "--alpha", 100,
                "--out-coco", work / "pooled.json"]
        assert cli.run([str(a) for a in argv]) == 0
        return work

    def test_odd_video_id(self, dumps, tmp_path, capsys):
        odd = tmp_path / "odd.json"
        summary_of(capsys, "synthesize", "--jta", dumps / "small.json", "--alpha", 100,
                   "--video-id", 'a"b\\c é', "--out-coco", odd)
        gt = json.loads(odd.read_text(encoding="utf-8"))
        assert [video for video, _ in gt["info"]["videos"]] == ['a"b\\c é'], gt["info"]
        assert gt["images"][0]["file_name"] == 'a"b\\c é/000001.jpg', gt["images"][0]
        det = own_detections(gt, tmp_path / "odd_det.json")
        summary = summary_of(capsys, "evaluate", "--gt", odd, "--det", det)
        assert summary["ap_allpoint"] == 1.0, summary

    def test_no_detections_score_zero(self, dumps, tmp_path, capsys):
        gt = tmp_path / "small_gt.json"
        summary_of(capsys, "synthesize", "--jta", dumps / "small.json", "--alpha", 100,
                   "--out-coco", gt)
        empty = tmp_path / "empty.json"
        empty.write_text("[]\n")
        out = tmp_path / "empty_report.json"
        summary = summary_of(capsys, "evaluate", "--gt", gt, "--det", empty, "--out", out)
        report = json.loads(out.read_text())
        assert (summary["ap_allpoint"], summary["ap_101point"], summary["n_det"]) == (0.0, 0.0, 0)
        assert (report["pr"], report["ap_allpoint"], report["ap_101point"]) == ([], 0, 0), report

    def test_pooled_dump(self, dumps, tmp_path, capsys):
        gt = json.loads((dumps / "pooled.json").read_text())
        det = own_detections(gt, tmp_path / "pooled_det.json")
        summary = summary_of(capsys, "evaluate", "--gt", dumps / "pooled.json", "--det", det)
        assert summary["ap_allpoint"] == 1.0, summary

    def test_respelled_as_a_foreign_document(self, dumps, tmp_path, capsys):
        # Float image ids and no category_id in the detections; no info,
        # pedestrian_id or distance_m in the ground truth.
        gt = json.loads((dumps / "pooled.json").read_text())
        det = own_detections(gt, tmp_path / "pooled_det.json")
        pooled = summary_of(capsys, "evaluate", "--gt", dumps / "pooled.json", "--det", det)
        del gt["info"]
        for a in gt["annotations"]:
            del a["pedestrian_id"], a["distance_m"]
        respelled = tmp_path / "respelled.json"
        respelled.write_text(json.dumps(gt))
        det = own_detections(gt, tmp_path / "respelled_det.json", float)
        summary = summary_of(capsys, "evaluate", "--gt", respelled, "--det", det)
        assert summary["ap_allpoint"] == 1.0, summary
        assert [summary[k] for k in ("n_gt", "n_det")] == [pooled[k] for k in ("n_gt", "n_det")]


def json_reader_argv(tmp_path, kind, bad, out):
    """A command line that reads ``bad`` as the JSON input ``kind`` and writes ``out``."""
    gt = coco_file(tmp_path, [annotation("v", 1, 1, 10, 20, 30, 40, 5.0)])
    jta = jta_file(tmp_path, [(1, 1, 100.0, 200.0, 20.0, 50.0, 10.0)])
    det = tmp_path / "det.json"
    det.write_text("[]")
    return {
        "config": ("prune", "--gt", gt, "--out", out, "--config", bad),
        "alpha_file": ("synthesize", "--jta", jta, "--alpha-file", bad, "--out-coco", out),
        "jta": ("synthesize", "--jta", bad, "--alpha", 100, "--out-coco", out),
        "coco_gt": ("prune", "--gt", bad, "--out", out),
        "evaluate_gt": ("evaluate", "--gt", bad, "--det", det, "--out", out),
        "detections": ("evaluate", "--gt", gt, "--det", bad, "--out", out),
    }[kind]


class TestMalformedInput:
    @pytest.mark.parametrize(
        "doc, location",
        [
            ('{"images": [1], "annotations": []}', "(image 0)"),
            ('{"images": [], "annotations": ["x"]}', "(annotation 0)"),
            ('{"images": [], "annotations": [], "info": {"videos": 5}}', "(info.videos)"),
            ('{"images": [{"id": 1, "file_name": "v/000001.jpg"}], "annotations": [],'
             ' "info": {"videos": [["v", -3]]}}', "(info.videos)"),
            ('{"images": [{"id": 1, "file_name": "v/000005.jpg"}], "annotations": [],'
             ' "info": {"videos": [["v", 1]]}}', "(image 0)"),
            ('{"images": [], "annotations": [], "info": {"videos": [[7, 1]]}}', "(info.videos)"),
            ('{"images": [], "annotations": [], "info": {"videos": [], "dataset_id": {"a": 1}}}',
             "(info.dataset_id)"),
            ('{"images": [], "annotations": [], "info": {"dataset_id": 7}}', "(info.dataset_id)"),
            ('{"images": [{"id": 1, "file_name": "v/000000.jpg"}], "annotations": []}', "(image 0)"),
            ('{"images": [], "annotations": [], "info": {"videos": [["v", 3], ["v", 1]]}}',
             "(info.videos)"),
            ('{"images": [{"id": 1, "file_name": 7}], "annotations": []}', "(image 0)"),
            pytest.param('{"images": [], "annotations": [], "info": {"videos": [["v", 100000]]}}',
                         "(info.videos)", id="frames claimed without images"),
            pytest.param('{"images": [{"id": 1, "file_name": "v/1.jpg"}, {"id": 2, "file_name":'
                         ' "v/1.jpg"}], "annotations": [], "info": {"videos": [["v", 2]]}}',
                         "(image 1)", id="two images of one frame"),
            ('{"images": [{"id": 1, "file_name": 7.0}], "annotations": []}', "(image 0)"),
            *[
                pytest.param(
                    '{"images": [{"id": 1, "file_name": "v/000001.jpg"}], "annotations":'
                    f' [{{"image_id": 1, "bbox": [{bbox}]}}]}}', "(annotation 0)",
                    id=f"bbox {field} beyond float range",
                )
                for field, bbox in enumerate(
                    ",".join(BEYOND_FLOAT if i == field else "5" for i in range(4))
                    for field in range(4)
                )
            ],
            pytest.param(
                '{"images": [{"id": 1, "file_name": "v/000001.jpg"}], "annotations": [{"image_id":'
                f' 1, "bbox": [1, 2, 3, 4], "distance_m": {BEYOND_FLOAT}}}]}}', "(annotation 0)",
                id="distance_m beyond float range",
            ),
            *[
                pytest.param(
                    f'{{"images": [], "annotations": [], "info": {{"videos": [], "{key}":'
                    f' {BEYOND_FLOAT}}}}}', f"(info.{key})",
                    id=f"info.{key} beyond float range",
                )
                for key in ["image_w", "image_h", "alpha_used", "distance_limit_m"]
            ],
            *[
                pytest.param(
                    f'{{"images": [{{"id": 1, "file_name": "v/000001.jpg", "{key}":'
                    f' {BEYOND_FLOAT}}}], "annotations": []}}', "(image 0)",
                    id=f"image {key} beyond float range",
                )
                for key in ["width", "height"]
            ],
        ],
    )
    def test_malformed_coco_parts_leave_no_output(self, tmp_path, capsys, doc, location):
        gt = tmp_path / "gt.json"
        gt.write_text(doc)
        out = tmp_path / "o.json"
        code, _, err = run_cli(capsys, "prune", "--gt", gt, "--out", out)
        assert code == 2
        assert err.startswith(f"error: {gt}: ") and location in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind", ["config", "alpha_file", "samples", "jta", "coco_gt", "mot_gt", "detections"]
    )
    def test_invalid_utf8_is_located(self, tmp_path, capsys, kind):
        gt = coco_file(tmp_path, [annotation("v", 1, 1, 10, 20, 30, 40, 5.0)])
        jta = jta_file(tmp_path, [(1, 1, 100.0, 200.0, 20.0, 50.0, 10.0)])
        bad = tmp_path / "bad.in"
        # Past the first 8 KiB, so the offset is counted from the start of the file.
        bad.write_bytes(b"[" + b" " * 9000 + b"\xff]")
        out = tmp_path / "o.json"
        argv = {
            "config": ("prune", "--gt", gt, "--out", out, "--config", bad),
            "alpha_file": ("synthesize", "--jta", jta, "--alpha-file", bad, "--out-coco", out),
            "samples": ("calibrate", "--samples", bad, "--out", out),
            "jta": ("synthesize", "--jta", bad, "--alpha", 100, "--out-coco", out),
            "coco_gt": ("prune", "--gt", bad, "--out", out),
            "mot_gt": ("convert", "--in", bad, "--from", "mot", "--to", "coco",
                       "--video-id", "v", "--out", out),
            "detections": ("evaluate", "--gt", gt, "--det", bad, "--out", out),
        }[kind]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err == f"error: {bad}: not UTF-8 text (invalid start byte) (byte 9001)\n"
        assert not out.exists()


    @pytest.mark.parametrize("kind", ["config", "alpha_file", "jta", "coco_gt", "detections"])
    def test_malformed_json_is_located(self, tmp_path, capsys, kind):
        bad = tmp_path / "bad.json"
        bad.write_text('{"a": [1, 2')
        out = tmp_path / "o.json"
        code, stdout, err = run_cli(capsys, *json_reader_argv(tmp_path, kind, bad, out))
        assert code == 2
        assert stdout == ""
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
        assert "(char 11)" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind", ["config", "alpha_file", "jta", "coco_gt", "evaluate_gt", "detections"]
    )
    def test_overlong_integer_is_located(self, tmp_path, capsys, kind):
        # Past the interpreter's 4300-digit limit on int() of a string.
        bad = tmp_path / "bad.json"
        bad.write_text('{"a": ' + "9" * 5000 + "}")
        out = tmp_path / "o.json"
        code, stdout, err = run_cli(capsys, *json_reader_argv(tmp_path, kind, bad, out))
        assert (code, stdout) == (2, "")
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
        assert "4300 digits" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind", ["config", "alpha_file", "jta", "coco_gt", "evaluate_gt", "detections"]
    )
    def test_nesting_past_the_recursion_limit_is_malformed_json(self, tmp_path, capsys, kind):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100000 + "]" * 100000)
        out = tmp_path / "o.json"
        code, stdout, err = run_cli(capsys, *json_reader_argv(tmp_path, kind, bad, out))
        assert (code, stdout) == (2, "")
        assert err.startswith(f"error: {bad}: malformed JSON: maximum recursion depth exceeded")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text", ["[" * 100000 + "]" * 100000, '{"a":' * 100000 + "1" + "}" * 100000],
        ids=["arrays", "objects"],
    )
    def test_nesting_past_the_recursion_limit_is_worded_by_the_package(
        self, tmp_path, capsys, text
    ):
        # The interpreter names the kind of value it was decoding; the package does not.
        bad = tmp_path / "deep.json"
        bad.write_text(text)
        out = tmp_path / "o.json"
        result = run_cli(capsys, *json_reader_argv(tmp_path, "coco_gt", bad, out))
        problem = "maximum recursion depth exceeded by nested arrays or objects"
        assert result == (2, "", f"error: {bad}: malformed JSON: {problem}\n")
        assert not out.exists()


class TestPlans:
    def test_plan_batches_matches_library(self, tmp_path, capsys):
        out = tmp_path / "plan.json"
        summary = summary_of(
            capsys,
            "plan-batches", "--n-synthetic", 40, "--n-real", 6, "--batch-size", 9,
            "--seed", 7, "--epochs", 2, "--out", out,
        )
        assert summary["batches_per_epoch"] == 6
        assert summary["ratio"] == [2, 1]
        expected = plan_mixed_batches(
            MixConfig(n_synthetic=40, n_real=6, batch_size=9, seed=7, epochs=2)
        )
        assert parse_plan(out.read_text()) == expected

    def test_plan_batches_deterministic_bytes(self, tmp_path, capsys):
        args = (
            "plan-batches", "--n-synthetic", 24, "--n-real", 4, "--batch-size", 6,
            "--seed", 3,
        )
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        summary_of(capsys, *args, "--out", first)
        summary_of(capsys, *args, "--out", second)
        assert first.read_bytes() == second.read_bytes()

    def test_bad_ratio_string(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "plan-batches", "--n-synthetic", 24, "--n-real", 4, "--batch-size", 6,
            "--ratio", "2:1", "--out", tmp_path / "p.json",
        )
        assert code == 1

    @pytest.mark.parametrize("ratio, code", [("1,1", 0), ("a,1", 1), ("1", 1)])
    def test_ratio_flag(self, tmp_path, capsys, ratio, code):
        out = tmp_path / "p.json"
        result = run_cli(
            capsys,
            "plan-batches", "--n-synthetic", 24, "--n-real", 4, "--batch-size", 6,
            "--ratio", ratio, "--out", out,
        )
        assert result[0] == code
        if code == 0:
            assert json.loads(result[1])["ratio"] == [1, 1]
        else:
            assert "argument --ratio" in result[2]
        assert out.exists() == (code == 0)

    def test_indivisible_batch(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "plan-batches", "--n-synthetic", 24, "--n-real", 4, "--batch-size", 10,
            "--out", tmp_path / "p.json",
        )
        assert code == 2
        assert "divisible" in err

    def test_plan_finetune(self, tmp_path, capsys):
        out = tmp_path / "plan.json"
        summary = summary_of(
            capsys, "plan-finetune", "--phase1-epochs", 3, "--phase2-epochs", 2, "--out", out
        )
        assert summary["phase1_epochs"] == 3
        assert parse_plan(out.read_text()) == plan_finetune(3, 2)


COMMANDS = [
    "calibrate", "synthesize", "histogram", "prune", "distance-limit",
    "convert", "evaluate", "plan-batches", "plan-finetune",
]
# The flags of the PipelineConfig fields each subcommand reads; a subcommand
# that reads none takes no --config either.
SETTINGS = {
    "synthesize": ["--image-w", "--image-h", "--joints-per-skeleton", "--alpha"],
    "convert": ["--image-w", "--image-h"],
    "prune": ["--distance-limit"],
    "evaluate": ["--score-floor", "--iou-thr"],
}
SETTING_FLAGS = [
    "--config", "--image-w", "--image-h", "--joints-per-skeleton", "--alpha",
    "--distance-limit", "--score-floor", "--iou-thr",
]
ACCEPTED = [(c, f) for c, flags in SETTINGS.items() for f in ["--config", *flags]]
REMOVED = [(c, f) for c in COMMANDS for f in SETTING_FLAGS if (c, f) not in ACCEPTED]
VALID_SETTING = {
    "--image-w": "1920", "--image-h": "1080", "--joints-per-skeleton": "22", "--alpha": "100",
    "--distance-limit": "40", "--score-floor": "0.05", "--iou-thr": "0.5",
}
# The summary line of each command_argv run without its peak_rss_mb; OUT stands
# for the output path. cli.run puts the output keys after the handler's own.
SUMMARY_LINES = {
    "calibrate": '{"command": "calibrate", "alpha": 100.0, "n_samples": 4, "rmse_px": 0.0, '
                 '"max_abs_residual_px": 0.0, "out": OUT}',
    "synthesize": '{"command": "synthesize", "video_id": "clip", "alpha": 100.0, '
                  '"n_records": 22, "n_skeletons": 1, "n_annotations": 1, "n_skipped": 0, '
                  '"n_skipped_by_cause": {"hull": 0, "distance": 0, "off_image": 0, '
                  '"float_range": 0}, "out_coco": OUT, "out_mot": null}',
    "histogram": '{"command": "histogram", "n_annotations": 1, "bin_width_m": 1.0, "n_bins": 6, '
                 '"out": OUT}',
    "prune": '{"command": "prune", "distance_limit_m": 40.0, "kept": 1, "pruned": 0, "out": OUT}',
    "distance-limit": '{"command": "distance-limit", "h_min_px": 10.0, "distance_limit_m": 5.0, '
                      '"out": OUT}',
    "convert": '{"command": "convert", "from": "mot", "to": "coco", "n_annotations": 1, '
               '"n_skipped": 0, "out": OUT}',
    "evaluate": '{"command": "evaluate", "ap_allpoint": 1.0, "ap_101point": 1.0, "n_gt": 1, '
                '"n_det": 1, "n_matched": 1, "n_floor_dropped": 0, "out": OUT}',
    "plan-batches": '{"command": "plan-batches", "epochs": 1, "batches_per_epoch": 3, '
                    '"batch_size": 3, "ratio": [2, 1], "out": OUT}',
    "plan-finetune": '{"command": "plan-finetune", "phase1_epochs": 1, "phase2_epochs": 1, '
                     '"out": OUT}',
}
# PipelineConfig field -> (a subcommand that reads it, its flag)
FIELDS = {
    "image_w": ("synthesize", "--image-w"),
    "image_h": ("synthesize", "--image-h"),
    "joints_per_skeleton": ("synthesize", "--joints-per-skeleton"),
    "alpha": ("synthesize", "--alpha"),
    "distance_limit_m": ("prune", "--distance-limit"),
    "score_floor": ("evaluate", "--score-floor"),
    "iou_thr": ("evaluate", "--iou-thr"),
}


def command_argv(tmp_path, command, out, alpha=True):
    """A run of ``command`` that succeeds and writes ``out``.

    ``synthesize`` gets ``--alpha 100`` unless ``alpha`` is false.
    """
    gt = coco_file(tmp_path, [annotation("v", 1, 1, 10, 20, 30, 40, 5.0)])
    samples = tmp_path / "samples.csv"
    samples.write_text(SAMPLES_CSV)
    jta = jta_file(tmp_path, [(1, 1, 100.0, 200.0, 20.0, 50.0, 10.0)])
    mot = tmp_path / "gt.txt"
    mot.write_text("1,1,10,20,30,40,1,1,1\n")
    det = tmp_path / "det.txt"
    det.write_text("1,-1,10,20,30,40,1.0\n")
    return {
        "calibrate": ("calibrate", "--samples", samples, "--out", out),
        "synthesize": ("synthesize", "--jta", jta, "--out-coco", out)
        + (("--alpha", 100) if alpha else ()),
        "histogram": ("histogram", "--gt", gt, "--out", out),
        "prune": ("prune", "--gt", gt, "--out", out),
        "distance-limit": ("distance-limit", "--gt", gt, "--h-min", 10,
                           "--min-bin-count", 1, "--out", out),
        "convert": ("convert", "--in", mot, "--from", "mot", "--to", "coco",
                    "--video-id", "v", "--out", out),
        "evaluate": ("evaluate", "--gt", gt, "--det", det, "--det-format", "mot_det",
                     "--video-id", "v", "--out", out),
        "plan-batches": ("plan-batches", "--n-synthetic", 6, "--n-real", 3,
                         "--batch-size", 3, "--out", out),
        "plan-finetune": ("plan-finetune", "--phase1-epochs", 1, "--phase2-epochs", 1,
                          "--out", out),
    }[command]


class TestSettings:
    @pytest.mark.parametrize("command, flag", ACCEPTED)
    def test_subcommand_takes_the_settings_it_reads(self, tmp_path, capsys, command, flag):
        config = tmp_path / "config.json"
        config.write_text("{}")
        out = tmp_path / "out.file"
        value = config if flag == "--config" else VALID_SETTING[flag]
        summary = summary_of(capsys, *command_argv(tmp_path, command, out), flag, value)
        assert summary["command"] == command
        assert out.exists()

    @pytest.mark.parametrize("command, flag", REMOVED)
    def test_subcommand_rejects_settings_it_does_not_read(self, tmp_path, capsys, command, flag):
        config = tmp_path / "config.json"
        config.write_text("{}")
        out = tmp_path / "out.file"
        value = config if flag == "--config" else VALID_SETTING[flag]
        code, stdout, err = run_cli(capsys, *command_argv(tmp_path, command, out), flag, value)
        assert code == 1
        assert stdout == ""
        assert f"unrecognized arguments: {flag} {value}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            (field, value)
            for field in FIELDS
            for value in ["Infinity", "NaN", '"wide"', "null", "true", BEYOND_FLOAT]
            if (field, value) != ("alpha", "null")
        ],
        ids=lambda value: "beyond float range" if value == BEYOND_FLOAT else None,
    )
    def test_bad_config_value_names_the_field(self, tmp_path, capsys, field, value):
        command, _ = FIELDS[field]
        config = tmp_path / "config.json"
        config.write_text(f'{{"{field}": {value}}}')
        out = tmp_path / "out.file"
        argv = command_argv(tmp_path, command, out, alpha=field != "alpha")
        code, stdout, err = run_cli(capsys, *argv, "--config", config)
        assert code == 2
        assert stdout == ""
        assert err.startswith(f"error: {field} must be ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value",
        [(field, value) for field in FIELDS if field != "joints_per_skeleton"
         for value in ["inf", "nan"]],
    )
    def test_non_finite_flag_names_the_field(self, tmp_path, capsys, field, value):
        command, flag = FIELDS[field]
        out = tmp_path / "out.file"
        code, stdout, err = run_cli(capsys, *command_argv(tmp_path, command, out), flag, value)
        assert code == 2
        assert stdout == ""
        assert err == f"error: {field} must be a finite number, got {float(value)!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("image_w", "0", "image dimensions must be positive"),
            ("joints_per_skeleton", "0", "joints_per_skeleton must be positive"),
            ("distance_limit_m", "0", "distance_limit_m must be positive"),
            ("score_floor", "1", "score_floor must lie in [0, 1)"),
            ("iou_thr", "0", "iou_thr must lie in (0, 1]"),
        ],
    )
    def test_flag_out_of_range_names_the_rule(self, tmp_path, capsys, field, value, message):
        command, flag = FIELDS[field]
        out = tmp_path / "out.file"
        code, stdout, err = run_cli(capsys, *command_argv(tmp_path, command, out), flag, value)
        assert (code, stdout, err) == (2, "", f"error: {message}\n")
        assert not out.exists()

    def test_null_config_alpha_is_unset(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"alpha": null}')
        out = tmp_path / "out.json"
        argv = command_argv(tmp_path, "synthesize", out, alpha=False)
        code, _, err = run_cli(capsys, *argv, "--config", config)
        assert code == 1
        assert "an alpha value is required" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-5", "NaN"])
    def test_alpha_file_follows_the_alpha_flag_rule(self, tmp_path, capsys, value):
        alpha_file = tmp_path / "alpha.json"
        alpha_file.write_text(
            f'{{"alpha": {value}, "n_samples": 1, "rmse_px": 0, "max_abs_residual_px": 0}}'
        )
        out = tmp_path / "out.json"
        argv = command_argv(tmp_path, "synthesize", out, alpha=False)
        by_flag = run_cli(capsys, *argv, "--alpha", value)
        by_file = run_cli(capsys, *argv, "--alpha-file", alpha_file)
        assert by_file == by_flag
        assert by_flag[0] == 2 and by_flag[2].startswith("error: alpha must be ")
        assert not out.exists()


    @pytest.mark.parametrize("value, shown", [('"3.5"', "'3.5'"), ("true", "True")])
    def test_alpha_file_value_must_be_a_number(self, tmp_path, capsys, value, shown):
        alpha_file = tmp_path / "alpha.json"
        alpha_file.write_text(
            f'{{"alpha": {value}, "n_samples": 1, "rmse_px": 0, "max_abs_residual_px": 0}}'
        )
        out = tmp_path / "out.json"
        argv = command_argv(tmp_path, "synthesize", out, alpha=False)
        code, _, err = run_cli(capsys, *argv, "--alpha-file", alpha_file)
        assert code == 2
        assert err == f"error: {alpha_file}: alpha must be a number in float range, got {shown}\n"
        assert not out.exists()


class TestInfrastructure:
    def test_no_arguments(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
        assert "usage" in err

    def test_unknown_subcommand(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 1

    def test_unknown_flag(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "calibrate", "--samples", tmp_path / "s.csv", "--bogus"
        )
        assert code == 1

    def test_output_dir_missing(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "plan-finetune", "--phase1-epochs", 1, "--phase2-epochs", 1,
            "--out", tmp_path / "no" / "such" / "dir" / "p.json",
        )
        assert code == 2

    def test_output_file_mode_follows_umask(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        previous = os.umask(0o027)
        try:
            summary_of(
                capsys, "plan-finetune", "--phase1-epochs", 1, "--phase2-epochs", 1, "--out", out
            )
        finally:
            os.umask(previous)
        assert stat.S_IMODE(out.stat().st_mode) == 0o640

    @pytest.mark.parametrize(
        "out, code", [("missing/gt.json", errno.ENOENT), ("isdir.json", errno.EISDIR)]
    )
    def test_write_error_names_the_path_as_given(self, monkeypatch, tmp_path, capsys, out, code):
        # Not the random name of the temporary file, so the message is the same on every run.
        jta_file(tmp_path, [(1, 1, 10.0, 20.0, 30.0, 60.0, 10.0)])
        (tmp_path / "isdir.json").mkdir()
        monkeypatch.chdir(tmp_path)
        result = run_cli(
            capsys, "synthesize", "--jta", "clip.json", "--alpha", 100, "--out-coco", out
        )
        assert result == (2, "", f"error: [Errno {code}] {os.strerror(code)}: {out!r}\n")
        assert sorted(path.name for path in tmp_path.iterdir()) == ["clip.json", "isdir.json"]
        assert list((tmp_path / "isdir.json").iterdir()) == []

    def test_empty_out_path_is_refused_before_anything_is_written(
        self, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.chdir(tmp_path)
        result = run_cli(
            capsys, "plan-finetune", "--phase1-epochs", 1, "--phase2-epochs", 1, "--out", ""
        )
        assert result == (2, "", f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: ''\n")
        assert list(tmp_path.iterdir()) == []

    def test_out_path_ending_in_a_separator_is_refused_as_open_refuses_it(
        self, monkeypatch, tmp_path, capsys
    ):
        # Path("newname/") is "newname", which would be written as a file.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(IsADirectoryError) as exc_info:
            open("newname/", "w")
        result = run_cli(
            capsys, "plan-finetune", "--phase1-epochs", 1, "--phase2-epochs", 1, "--out", "newname/"
        )
        assert result == (2, "", f"error: {exc_info.value}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mot", ["gt", "./gt", "sub/../gt", "link"])
    def test_two_outputs_on_one_file_are_a_usage_error(self, monkeypatch, tmp_path, capsys, mot):
        jta_file(tmp_path, [(1, 1, 10.0, 20.0, 30.0, 60.0, 10.0)])
        (tmp_path / "sub").mkdir()
        (tmp_path / "link").symlink_to("gt")
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        result = run_cli(
            capsys, "synthesize", "--jta", "clip.json", "--alpha", 100,
            "--out-coco", "gt", "--out-mot", mot,
        )
        assert result == (1, "", f"usage error: two outputs are one file: 'gt' and {mot!r}\n")
        assert sorted(tmp_path.iterdir()) == before and not (tmp_path / "gt").exists()

    def test_out_naming_a_directory_leaves_no_temporary_file(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.mkdir()
        code, stdout, err = run_cli(
            capsys, "plan-finetune", "--phase1-epochs", 1, "--phase2-epochs", 1, "--out", target
        )
        assert (code, stdout) == (2, "")
        assert err.startswith("error: ") and str(target) in err
        assert [path.name for path in tmp_path.iterdir()] == ["taken"]
        assert list(target.iterdir()) == []

    @pytest.mark.parametrize("command", COMMANDS)
    def test_summary_ends_with_the_peak_rss(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        summary = summary_of(capsys, *command_argv(tmp_path, command, out))
        after_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        assert list(summary)[-1] == "peak_rss_mb"
        assert 0 < summary["peak_rss_mb"] <= round(after_mb, 1)
        assert b"peak_rss" not in out.read_bytes()

    @pytest.mark.parametrize("command", COMMANDS)
    def test_summary_line_is_pinned(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, *command_argv(tmp_path, command, out))
        assert (code, err) == (0, "")
        line, peak = stdout.rsplit(', "peak_rss_mb": ', 1)
        assert re.fullmatch(r"[0-9]+\.[0-9]\}\n", peak)
        assert line + "}" == SUMMARY_LINES[command].replace("OUT", json.dumps(str(out)))

    def test_peak_rss_counts_the_workers(self, tmp_path):
        # Each worker that parses pieces of the dump holds 64 MiB, more than
        # its parent ever does, so only a worker can reach that peak.
        jta = jta_file(tmp_path, [(f, 1, 10.0, 20.0, 30.0, 60.0, 10.0) for f in range(1, 41)])
        script = (
            "import resource, sys\n"
            "from skel2box import cli, formats\n"
            "parse, ballast = formats._jta_groups, []\n"
            "def heavy(piece, joint_ids):\n"
            "    ballast[:] = ballast or [b'x' * (64 << 20)]\n"
            "    return parse(piece, joint_ids)\n"
            "formats._jta_groups, formats._jta_workers = heavy, lambda size: 2\n"
            "formats._JTA_BLOCK = 4096\n"
            "code = cli.run(sys.argv[1:])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)\n"
            "sys.exit(code)\n"
        )
        out = tmp_path / "gt.json"
        # A process's peak RSS starts from that of the process that started
        # it, so the job is started by a small one, not by this one.
        starter = "import subprocess, sys; sys.exit(subprocess.call(sys.argv[1:]))"
        proc = subprocess.run(
            [sys.executable, "-c", starter, sys.executable, "-c", script, "synthesize",
             "--jta", str(jta), "--alpha", "100", "--out-coco", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        summary, parent_mb = proc.stdout.splitlines()
        assert float(parent_mb) < 64 <= json.loads(summary)["peak_rss_mb"]
        assert b"peak_rss" not in out.read_bytes()

    @pytest.mark.parametrize(
        "argv", [[], ["--help"], ["frobnicate"], *([c, "--help"] for c in COMMANDS)]
    )
    def test_parser_of_one_subcommand_says_what_all_nine_say(self, capsys, monkeypatch, argv):
        def outcome():
            try:
                code = cli.run(argv)
            except SystemExit as exc:
                code = f"exit {exc.code}"
            return code, *capsys.readouterr()

        named_only = outcome()
        build = cli._build_parser
        monkeypatch.setattr(cli, "_build_parser", lambda _: build(COMMANDS))
        assert outcome() == named_only

    @pytest.mark.parametrize("collecting", [True, False])
    @pytest.mark.parametrize("ending", [0, 1, 2, "help"])
    def test_run_leaves_the_collector_as_it_found_it(self, tmp_path, capsys, collecting, ending):
        finetune = ("plan-finetune", "--phase1-epochs", 1, "--phase2-epochs", 1, "--out")
        argv = {
            0: (*finetune, tmp_path / "p.json"),
            1: ("frobnicate",),
            2: (*finetune, tmp_path / "no" / "p.json"),
            "help": ("evaluate", "--help"),
        }[ending]
        was_collecting = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            if ending == "help":
                with pytest.raises(SystemExit):
                    run_cli(capsys, *argv)
            else:
                assert run_cli(capsys, *argv)[0] == ending
            assert gc.isenabled() == collecting
        finally:
            (gc.enable if was_collecting else gc.disable)()

    def test_evaluate_leaves_no_cycles_that_grow_with_its_input(self, tmp_path, capsys):
        # run() turns the collector off because the data it parses hold no
        # reference cycles: one collection after it frees as much for 200
        # frames as for 2.
        def freed(frames):
            anns = [annotation("v", f, p, 10.0 + 40 * p, 20, 30, 40, 5.0)
                    for f in range(1, frames + 1) for p in range(5)]
            gt = coco_file(tmp_path, anns, name=f"gt{frames}.json")
            dets = [formats.Detection(a.video_id, a.frame_id, a.box, 0.9) for a in anns]
            frame_ids = parse_coco_gt(gt.read_text()).image_id_by_frame()
            det = tmp_path / f"det{frames}.json"
            det.write_text(emit_detections(dets, "coco_results", image_id_of_frame=frame_ids))
            gc.collect()
            gc.disable()
            try:
                assert summary_of(capsys, "evaluate", "--gt", gt, "--det", det)["n_det"] > 0
                return gc.collect()
            finally:
                gc.enable()

        freed(2)  # The first run may import modules and fill caches.
        assert freed(2) == freed(200)

    def test_module_entry_point(self, tmp_path):
        samples = tmp_path / "samples.csv"
        samples.write_text(SAMPLES_CSV)
        proc = subprocess.run(
            [sys.executable, "-m", "skel2box.cli", "calibrate", "--samples", str(samples)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert abs(json.loads(proc.stdout)["alpha"] - 100.0) <= 1e-6
