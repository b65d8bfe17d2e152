"""End-to-end acceptance checks, one test per contract criterion.

Each test records a single ``ACCEPTANCE n <label>: PASS|FAIL`` line (echoed
in the terminal summary by conftest) and then asserts, so a red suite always
names the criterion that broke.
"""

import json
import random
import time

from skel2box import (
    BBox,
    CalibrationSample,
    Detection,
    MixConfig,
    cli,
    evaluate,
    fit_alpha,
    iou,
    match_frame,
    pad_box,
    parse_coco_gt,
    parse_mot_gt,
    plan_mixed_batches,
    pr_curve,
    prune_by_distance,
    serialize_plan,
    emit_coco,
    emit_detections,
    emit_mot,
    manifest_for_annotations,
)
from skel2box.evaluation import MatchOutcome
from skel2box.geometry import AnnotatedBox, camera_distance, skeleton_enclosing_box
from reference_eval import ref_evaluate
from test_geometry import random_skeleton


RESULTS = []


def check(criterion, label, ok):
    line = f"ACCEPTANCE {criterion} {label}: {'PASS' if ok else 'FAIL'}"
    RESULTS.append(line)
    print(line)
    return ok


def annotation(video, frame, ped, x, y, w, h, dist):
    box = BBox(x, y, w, h)
    return AnnotatedBox(video, frame, ped, box, dist)


class TestAcceptance:
    def test_1_alpha_recovery(self):
        start = time.perf_counter()
        z_values = [5.0, 8.0, 10.0, 16.0, 20.0, 25.0, 32.0, 40.0]
        worst_rel = 0.0
        for alpha_true in (50.0, 120.0, 400.0):
            samples = [
                CalibrationSample(h_s, z, h_s + alpha_true / z)
                for h_s, z in zip((60, 80, 100, 120, 150, 180, 220, 260), z_values)
            ]
            fitted = fit_alpha(samples).alpha
            worst_rel = max(worst_rel, abs(fitted - alpha_true) / alpha_true)

        rng = random.Random(11)
        noisy = [
            CalibrationSample(h_s, z, h_s + 400.0 / z + rng.gauss(0.0, 2.0))
            for h_s, z in (
                (rng.uniform(50, 300), rng.uniform(5, 40)) for _ in range(10000)
            )
        ]
        noisy_alpha = fit_alpha(noisy).alpha
        noisy_rel = abs(noisy_alpha - 400.0) / 400.0
        elapsed = time.perf_counter() - start

        ok = worst_rel <= 1e-9 and noisy_rel <= 0.02 and elapsed < 1.0
        assert check(1, "alpha recovery", ok), (worst_rel, noisy_rel, elapsed)

    def test_2_synthesis_invariants(self):
        start = time.perf_counter()
        rng = random.Random(22)
        alpha = 380.0
        failures = []
        for i in range(10000):
            skeleton = random_skeleton(rng, span=rng.uniform(20.0, 400.0))
            hull = skeleton_enclosing_box(skeleton)
            z = camera_distance(skeleton)
            near = pad_box(hull, z, alpha)
            far = pad_box(hull, z * rng.uniform(1.5, 3.0), alpha)
            if abs(near.h - (hull.h + alpha / z)) > 1e-9 * near.h:
                failures.append((i, "height rule"))
            if abs(near.aspect - hull.aspect) > 1e-9 * hull.aspect:
                failures.append((i, "aspect drift"))
            cx, cy = hull.x + hull.w / 2, hull.y + hull.h / 2
            if abs((near.x + near.w / 2) - cx) > 1e-9 * max(1.0, abs(cx)):
                failures.append((i, "center drift"))
            if abs((near.y + near.h / 2) - cy) > 1e-9 * max(1.0, abs(cy)):
                failures.append((i, "center drift"))
            slack = 1e-9 * max(1.0, hull.h)
            if not (
                near.x <= hull.x + slack
                and near.y <= hull.y + slack
                and near.x2 >= hull.x2 - slack
                and near.y2 >= hull.y2 - slack
            ):
                failures.append((i, "hull not contained"))
            if not near.h > far.h > hull.h:
                failures.append((i, "padding not monotone in distance"))
        elapsed = time.perf_counter() - start

        ok = not failures and elapsed < 5.0
        assert check(2, "box synthesis invariants", ok), (failures[:5], elapsed)

    def test_3_distance_pruning(self):
        anns = [
            annotation("v", 1, 1, 0, 0, 10, 20, 39.0),
            annotation("v", 1, 2, 5, 5, 10, 20, 40.0),
            annotation("v", 1, 3, 9, 9, 10, 20, 41.0),
        ]
        kept, pruned = prune_by_distance(anns, limit_m=40.0)
        ok = [a.distance_m for a in kept] == [39.0, 40.0] and pruned == 1
        assert check(3, "prune keeps the limit-distance box", ok)

    def test_4_evaluation_matches_reference(self):
        rng = random.Random(44)
        scores = [0.02, 0.05, 0.0500001, 0.1, 0.25, 0.5, 0.5, 0.75, 0.9, 1.0]

        def int_box(r):
            return BBox(
                float(r.randrange(0, 60)),
                float(r.randrange(0, 60)),
                float(r.randrange(1, 40)),
                float(r.randrange(1, 40)),
            )

        mismatches = 0
        for case in range(1000):
            frames = [("v", f) for f in range(1, rng.randrange(2, 5))]
            gts = [
                annotation("v", f, i, b.x, b.y, b.w, b.h, 5.0)
                for (_, f) in frames
                for i, b in enumerate(int_box(rng) for _ in range(rng.randrange(0, 5)))
            ]
            dets = [
                Detection("v", rng.choice(frames)[1], int_box(rng), rng.choice(scores))
                for _ in range(rng.randrange(0, 8))
            ]
            got = evaluate(dets, gts, frames=frames)
            want = ref_evaluate(dets, gts, frames, 0.5, 0.05)
            if (
                got.ap_allpoint != want["ap_allpoint"]
                or got.ap_101point != want["ap_101point"]
                or got.n_gt != want["n_gt"]
                or got.n_det != want["n_det"]
                or list(got.pr.points) != want["points"]
            ):
                mismatches += 1

        # Envelope fixture: TP@0.9, FP@0.6, FP@0.6, TP@0.6 over two GT boxes
        gts = [annotation("v", 1, 1, 0, 0, 10, 10, 5.0), annotation("v", 1, 2, 50, 50, 10, 10, 5.0)]
        dets = [
            Detection("v", 1, BBox(0, 0, 10, 10), 0.9),
            Detection("v", 1, BBox(100, 100, 10, 10), 0.6),
            Detection("v", 1, BBox(200, 200, 10, 10), 0.6),
            Detection("v", 1, BBox(50, 50, 10, 10), 0.6),
        ]
        report = evaluate(dets, gts)
        ok = mismatches == 0 and abs(report.ap_allpoint - 0.75) <= 1e-12
        assert check(4, "evaluation equals reference", ok), (mismatches, report.ap_allpoint)

    def test_5_score_floor_and_iou_threshold(self):
        floor_points = pr_curve(
            [
                (0.0500001, MatchOutcome(0, 0, 1.0)),
                (0.05, MatchOutcome(1, 1, 1.0)),
                (0.02, MatchOutcome(2, 2, 1.0)),
            ],
            n_gt=3,
        )
        used_scores = {threshold for threshold, _, _ in floor_points.points}
        floor_ok = used_scores == {0.0500001}

        below = iou(BBox(0, 0, 7499.5, 1), BBox(2500.5, 0, 7499.5, 1))
        at = iou(BBox(0, 0, 1.5, 1), BBox(0.5, 0, 1.5, 1))
        below_match = match_frame(
            [Detection("v", 1, BBox(0, 0, 7499.5, 1), 1.0)], [BBox(2500.5, 0, 7499.5, 1)]
        )[0]
        at_match = match_frame(
            [Detection("v", 1, BBox(0, 0, 1.5, 1), 1.0)], [BBox(0.5, 0, 1.5, 1)]
        )[0]
        iou_ok = below == 0.4999 and at == 0.5 and not below_match.is_tp and at_match.is_tp

        ok = floor_ok and iou_ok
        assert check(5, "strict floor and match threshold", ok), (used_scores, below, at)

    def test_6_mixed_batch_composition(self):
        config = MixConfig(n_synthetic=96, n_real=10, batch_size=12, ratio=(2, 1), seed=6, epochs=3)
        plan = plan_mixed_batches(config)
        composition_ok = all(
            len(batch) == 12
            and sum(1 for d, _ in batch if d == "syn") == 8
            and sum(1 for d, _ in batch if d == "real") == 4
            for epoch in plan.epochs
            for batch in epoch
        )
        unique_ok = all(
            len({i for b in epoch for d, i in b if d == "syn"})
            == sum(1 for b in epoch for d, _ in b if d == "syn")
            for epoch in plan.epochs
        )
        balance_ok = True
        for epoch in plan.epochs:
            counts = {}
            for batch in epoch:
                for d, i in batch:
                    if d == "real":
                        counts[i] = counts.get(i, 0) + 1
            balance_ok = balance_ok and max(counts.values()) - min(counts.values()) <= 1
        bytes_ok = serialize_plan(plan) == serialize_plan(plan_mixed_batches(config))

        ok = composition_ok and unique_ok and balance_ok and bytes_ok
        assert check(6, "mixed batches are 2/3 + 1/3 and reproducible", ok)

    def test_7_round_trips(self):
        rng = random.Random(77)
        anns = []
        seen = set()
        while len(anns) < 1000:
            key = (f"v{rng.randrange(3)}", rng.randrange(1, 200), rng.randrange(1, 60))
            if key in seen:
                continue
            seen.add(key)
            anns.append(
                annotation(
                    *key,
                    round(rng.uniform(0, 1800), 2),
                    round(rng.uniform(0, 1000), 2),
                    round(rng.uniform(5, 120), 2),
                    round(rng.uniform(10, 300), 2),
                    round(rng.uniform(1, 80), 3),
                )
            )
        anns.sort(key=lambda a: (a.video_id, a.frame_id, a.pedestrian_id))
        manifest = manifest_for_annotations(anns, dataset_id="rt", image_w=1920.0, image_h=1080.0)

        coco_once = emit_coco(anns, manifest)
        coco_parsed = parse_coco_gt(coco_once)
        coco_ok = (
            emit_coco(coco_parsed.annotations, coco_parsed.manifest) == coco_once
            and list(coco_parsed.annotations) == anns
        )

        single = [a for a in anns if a.video_id == "v0"]
        mot_once = emit_mot(single)
        mot_parsed, skipped = parse_mot_gt(mot_once, "v0")
        mot_ok = emit_mot(mot_parsed) == mot_once and skipped == 0

        ok = coco_ok and mot_ok
        assert check(7, "format round trips are byte identical", ok)

    def test_8_cli_pipeline(self, tmp_path, capsys):
        start = time.perf_counter()
        rng = random.Random(88)

        samples = tmp_path / "samples.csv"
        rows = ["h_s_px,z_m,h_true_px"]
        for _ in range(50):
            h_s = rng.uniform(60, 260)
            z = rng.choice([5.0, 8.0, 10.0, 16.0, 20.0, 25.0, 32.0, 40.0])
            rows.append(f"{h_s!r},{z!r},{(h_s + 400.0 / z)!r}")
        samples.write_text("\n".join(rows) + "\n")

        records = []
        beyond_limit = 0
        for i in range(100):
            frame, ped = i // 10 + 1, i % 10
            z = rng.uniform(5.0, 60.0)
            beyond_limit += z > 40.0
            x0 = rng.uniform(300.0, 1400.0)
            y0 = rng.uniform(300.0, 700.0)
            w, h = rng.uniform(20.0, 80.0), rng.uniform(60.0, 200.0)
            for j in range(22):
                fx = rng.uniform(0.0, 1.0) if j > 1 else float(j)
                fy = rng.uniform(0.0, 1.0) if j > 1 else float(j)
                records.append(
                    [frame, ped, j, x0 + fx * w, y0 + fy * h, 0.0, 0.0, z, 0, 0]
                )
        jta = tmp_path / "walk.json"
        jta.write_text(json.dumps(records))

        alpha_path = tmp_path / "alpha.json"
        gt_path = tmp_path / "gt.json"
        pruned_path = tmp_path / "pruned.json"
        mot_path = tmp_path / "pruned.txt"
        report_path = tmp_path / "report.json"

        steps = [
            ["calibrate", "--samples", str(samples), "--out", str(alpha_path)],
            [
                "synthesize", "--jta", str(jta), "--alpha-file", str(alpha_path),
                "--out-coco", str(gt_path),
            ],
            ["prune", "--gt", str(gt_path), "--out", str(pruned_path)],
            [
                "convert", "--in", str(pruned_path), "--from", "coco", "--to", "mot",
                "--out", str(mot_path),
            ],
        ]
        codes = [cli.run(step) for step in steps]

        pruned = parse_coco_gt(pruned_path.read_text())
        dets = [Detection(a.video_id, a.frame_id, a.box, 1.0) for a in pruned.annotations]
        det_path = tmp_path / "det.json"
        det_path.write_text(
            emit_detections(dets, "coco_results", image_id_of_frame=pruned.image_id_by_frame())
        )
        codes.append(
            cli.run(
                [
                    "evaluate", "--gt", str(pruned_path), "--det", str(det_path),
                    "--out", str(report_path),
                ]
            )
        )
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        summaries = [json.loads(l) for l in lines]
        report = json.loads(report_path.read_text())
        elapsed = time.perf_counter() - start

        ok = (
            codes == [0, 0, 0, 0, 0]
            and len(summaries) == 5
            and beyond_limit > 0
            and summaries[2]["pruned"] == beyond_limit
            and summaries[2]["kept"] == 100 - beyond_limit
            and report["ap_allpoint"] == 1.0
            and report["ap_101point"] == 1.0
            and report["n_gt"] == 100 - beyond_limit
            and elapsed < 10.0
        )
        assert check(8, "command-line pipeline reaches AP 1.0", ok), (codes, report, elapsed)
