import json
import math
import random
import sys
import weakref

import pytest

from reference_eval import ref_evaluate, ref_match
from skel2box import (
    AnnotatedBox,
    BBox,
    Detection,
    EvalReport,
    InvalidArgument,
    JoinError,
    MatchOutcome,
    PRCurve,
    average_precision,
    evaluate,
    evaluation,
    iou,
    match_frame,
    pr_curve,
)

SCORE_POOL = [0.02, 0.05, 0.0500001, 0.1, 0.25, 0.5, 0.5, 0.75, 0.9, 1.0]


def det(box, score, video="v", frame=1):
    return Detection(video, frame, box, score)


def gt_ann(box, video="v", frame=1, ped=0):
    return AnnotatedBox(video, frame, ped, box, 10.0)


def int_box(rng):
    return BBox(
        float(rng.randint(0, 40)),
        float(rng.randint(0, 40)),
        float(rng.randint(1, 20)),
        float(rng.randint(1, 20)),
    )


def crowded_frame(rng):
    """One crowded frame: (detections, ground-truth boxes, exact ties).

    20-60 ground-truth boxes on float coordinates, some of them exact twins.
    Some come in mirrored pairs on a 1/8 px grid, shifted by the same amount
    left and right of a detection, so both reach exactly the same IoU with
    it; ``ties`` lists (detection index, lower, higher ground-truth index).
    20-60 detections: the tie makers, jittered and exact copies of ground
    truth, then false positives; scores come from a small pool, so many tie.
    """
    gts, makers, ties = [], [], []
    n_gt = rng.randint(20, 60)
    while len(gts) < n_gt:
        kind = rng.random()
        if kind < 0.15:
            w8, h8 = rng.randint(64, 960), rng.randint(160, 2400)
            x8, y8 = rng.randint(0, 14000), rng.randint(0, 8000)
            s8 = rng.randint(1, w8 // 4)
            pair = [BBox((x8 - s8) / 8, y8 / 8, w8 / 8, h8 / 8),
                    BBox((x8 + s8) / 8, y8 / 8, w8 / 8, h8 / 8)]
            rng.shuffle(pair)
            maker = BBox(x8 / 8, y8 / 8, w8 / 8, h8 / 8)
            assert iou(maker, pair[0]) == iou(maker, pair[1])
            makers.append((maker, len(gts)))
            gts += pair
        else:
            box = BBox(rng.uniform(0, 1800), rng.uniform(0, 1000),
                       rng.uniform(8, 120), rng.uniform(20, 300))
            gts += [box, box] if kind < 0.3 else [box]
    dets = []
    for maker, lower in makers:
        ties.append((len(dets), lower, lower + 1))
        dets.append(det(maker, rng.choice(SCORE_POOL)))
    for box in gts:
        roll = rng.random()
        if roll < 0.5:
            jittered = BBox(box.x + rng.gauss(0, 0.1 * box.w), box.y + rng.gauss(0, 0.1 * box.h),
                            box.w * rng.uniform(0.8, 1.25), box.h * rng.uniform(0.8, 1.25))
            dets.append(det(jittered, rng.choice(SCORE_POOL)))
        elif roll < 0.65:
            dets.append(det(box, rng.choice(SCORE_POOL)))
    n_det = rng.randint(max(20, len(makers)), 60)
    while len(dets) < n_det:
        box = BBox(rng.uniform(0, 1800), rng.uniform(0, 1000),
                   rng.uniform(8, 120), rng.uniform(20, 300))
        dets.append(det(box, rng.random()))
    return dets[:n_det], gts[:n_gt], ties


def far_frame(rng):
    """A crowded frame moved right by 1e15, where floats are 1/8 apart: the
    1/8 px grid of the ties stays exact, while most ``x + w`` round."""
    dets, gts, ties = crowded_frame(rng)
    dets = [det(BBox(d.box.x + 1e15, d.box.y, d.box.w, d.box.h), d.score) for d in dets]
    return dets, [BBox(b.x + 1e15, b.y, b.w, b.h) for b in gts], ties


def window_edge_frame(rng):
    """A crowded frame plus the cases at the edges of the x-window that
    ``match_frame`` scans for each detection: detections that start exactly
    where a box ends, the widest box far left of every detection, a wide box
    that reaches in from far left with a detection as wide, and a tie whose
    higher ground-truth index has the lower ``x``."""
    dets, gts, ties = crowded_frame(rng)
    for box in rng.sample(gts, 5):
        dets.append(det(BBox(box.x2, box.y, box.w, box.h), rng.choice(SCORE_POOL)))
    gts.append(BBox(-3e6, 500.0, 2e6, 40.0))
    dets.append(det(BBox(-1e6, 500.0, 30.0, 40.0), 0.9))  # starts where the widest ends
    gts.append(BBox(-1e6, 100.0, 1e6 + 60.5, 50.0))
    dets.append(det(BBox(-1e6 + 3, 100.0, 1e6 + 50, 48.0), rng.choice(SCORE_POOL)))
    w8, s8 = rng.randint(64, 960), rng.randint(1, 16)
    x8, y8 = rng.randint(0, 14000), rng.randint(0, 8000)
    ties.append((len(dets), len(gts), len(gts) + 1))
    gts += [BBox((x8 + s8) / 8, y8 / 8, w8 / 8, 30.0), BBox((x8 - s8) / 8, y8 / 8, w8 / 8, 30.0)]
    dets.append(det(BBox(x8 / 8, y8 / 8, w8 / 8, 30.0), 1.0))
    return dets, gts, ties


class TestIou:
    def test_identity(self):
        box = BBox(3, 4, 10, 12)
        assert iou(box, box) == 1.0

    def test_disjoint(self):
        assert iou(BBox(0, 0, 10, 10), BBox(50, 50, 10, 10)) == 0.0

    def test_touching_edges(self):
        assert iou(BBox(0, 0, 10, 10), BBox(10, 0, 10, 10)) == 0.0

    def test_hand_value(self):
        assert iou(BBox(0, 0, 10, 10), BBox(5, 0, 10, 10)) == 50 / 150

    def test_symmetric(self):
        a, b = BBox(0, 0, 7, 9), BBox(3, 2, 11, 5)
        assert iou(a, b) == iou(b, a)

    def test_zero_area_rejected(self):
        with pytest.raises(InvalidArgument):
            iou(BBox(0, 0, 0, 10), BBox(0, 0, 10, 10))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", range(8))
    def test_field_not_finite_rejected(self, field, value):
        fields = [0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0]
        fields[field] = value
        with pytest.raises(InvalidArgument) as exc_info:
            iou(BBox(*fields[:4]), BBox(*fields[4:]))
        assert str(exc_info.value) == f"box field must be a finite number, got {value!r}"

    def test_exact_threshold_values(self):
        # intersection 4999, union 10000: IoU exactly 0.4999
        below = iou(BBox(0, 0, 7499.5, 1), BBox(2500.5, 0, 7499.5, 1))
        assert below == 0.4999
        # intersection 1, union 2: IoU exactly 0.5
        at = iou(BBox(0, 0, 1.5, 1), BBox(0.5, 0, 1.5, 1))
        assert at == 0.5


class TestMatchFrame:
    def test_perfect_single_match(self):
        box = BBox(0, 0, 10, 10)
        (outcome,) = match_frame([det(box, 0.9)], [box])
        assert outcome == MatchOutcome(0, 0, 1.0)

    def test_duplicate_detection_is_fp(self):
        box = BBox(0, 0, 10, 10)
        outcomes = match_frame([det(box, 0.9), det(box, 0.8)], [box])
        assert outcomes[0].matched_gt == 0
        assert outcomes[1].matched_gt is None

    def test_score_order_decides_who_wins(self):
        box = BBox(0, 0, 10, 10)
        outcomes = match_frame([det(box, 0.8), det(box, 0.9)], [box])
        assert outcomes[0].matched_gt is None
        assert outcomes[1].matched_gt == 0

    def test_ties_broken_by_input_order(self):
        box = BBox(0, 0, 10, 10)
        outcomes = match_frame([det(box, 0.9), det(box, 0.9)], [box])
        assert outcomes[0].matched_gt == 0
        assert outcomes[1].matched_gt is None

    def test_highest_iou_wins_then_lowest_index(self):
        gt_boxes = [BBox(0, 0, 10, 10), BBox(2, 0, 10, 10)]
        (outcome,) = match_frame([det(BBox(2, 0, 10, 10), 0.9)], gt_boxes)
        assert outcome.matched_gt == 1
        twins = [BBox(0, 0, 10, 10), BBox(0, 0, 10, 10)]
        (outcome,) = match_frame([det(BBox(0, 0, 10, 10), 0.9)], twins)
        assert outcome.matched_gt == 0

    @pytest.mark.parametrize("field, value", [
        ("x", math.nan), ("y", -math.inf), ("w", math.inf), ("h", math.nan),
    ])
    def test_ground_truth_field_not_finite_is_refused_as_iou_refuses_it(self, field, value):
        # Unrefused, a NaN x took the detection at IoU 1.0 and an infinite width matched
        # nothing; iou refuses both, so the matcher does, once per call.
        box = BBox(0, 0, 10, 10)
        gts = [BBox(50, 0, 10, 10), BBox(**{**dict(x=0, y=0, w=10, h=10), field: value})]
        words = f"^box field must be a finite number, got {value!r}$"
        with pytest.raises(InvalidArgument, match=words):
            iou(box, gts[1])
        with pytest.raises(InvalidArgument, match=words):
            match_frame([det(box, 0.9)], gts)
        assert match_frame([], gts) == []

    @pytest.mark.parametrize("field, value", [
        ("x", math.nan), ("y", -math.inf), ("w", math.inf), ("h", math.nan),
    ])
    def test_detection_field_not_finite_is_refused_as_iou_refuses_it(self, field, value):
        # Unrefused, a NaN x or an infinite w left the detection unmatched.
        gt = BBox(0, 0, 10, 10)
        box = BBox(**{**dict(x=0, y=0, w=10, h=10), field: value})
        words = f"^box field must be a finite number, got {value!r}$"
        with pytest.raises(InvalidArgument, match=words):
            iou(box, gt)
        with pytest.raises(InvalidArgument, match=words):
            match_frame([det(box, 0.9)], [gt])
        # Finiteness comes first, as in iou, also when the box has no area.
        flat = BBox(**{**dict(x=0, y=0, w=0, h=0), field: value})
        with pytest.raises(InvalidArgument, match=words):
            iou(flat, gt)
        with pytest.raises(InvalidArgument, match=words):
            match_frame([det(flat, 0.9)], [gt])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_detection_field_not_finite_passes_once_all_ground_truth_is_matched(self, value):
        # As a box without area: a detection processed with no ground truth left
        # is compared with none, so it is not checked.
        gt = BBox(0, 0, 10, 10)
        dets = [det(gt, 0.9), det(BBox(value, 0, 10, 10), 0.1), det(BBox(0, 0, value, 10), 0.2)]
        want = [MatchOutcome(0, 0, 1.0), MatchOutcome(1), MatchOutcome(2)]
        assert match_frame(dets, [gt]) == want
        assert match_frame(dets[1:], []) == [MatchOutcome(0), MatchOutcome(1)]

    def test_huge_finite_detection_is_scored(self):
        # Finite detection fields whose sums overflow are legal, as for ground truth.
        huge = det(BBox(sys.float_info.max, sys.float_info.max, sys.float_info.max, 1.0), 0.9)
        outcomes = match_frame([huge, det(BBox(0, 0, 10, 10), 0.5)], [BBox(0, 0, 10, 10)])
        assert outcomes == [MatchOutcome(0), MatchOutcome(1, 0, 1.0)]

    def test_huge_finite_ground_truth_is_scored(self):
        # Finite fields whose sum overflows are legal: each field is checked, not a sum.
        huge = BBox(sys.float_info.max, sys.float_info.max, sys.float_info.max, 1.0)
        (outcome,) = match_frame([det(BBox(0, 0, 10, 10), 0.9)], [huge, BBox(0, 0, 10, 10)])
        assert outcome == MatchOutcome(0, 1, 1.0)

    def test_nan_score_refused(self):
        # Unrefused, the NaN breaks the sort: the 0.5 detection took the ground
        # truth, which the 0.9 detection takes when the NaN is left out.
        gt = BBox(0, 0, 10, 10)
        dets = [det(gt, 0.5), det(BBox(50, 50, 10, 10), math.nan), det(gt, 0.9)]
        assert [o.matched_gt for o in match_frame(dets[::2], [gt])] == [None, 0]
        with pytest.raises(InvalidArgument, match="^detection score must not be NaN$"):
            match_frame(dets, [gt])

    def test_iou_threshold_boundary(self):
        gt_boxes = [BBox(0, 0, 7499.5, 1)]
        (outcome,) = match_frame([det(BBox(2500.5, 0, 7499.5, 1), 0.9)], gt_boxes)
        assert outcome.matched_gt is None
        (outcome,) = match_frame([det(BBox(0, 0, 1.5, 1), 0.9)], [BBox(0.5, 0, 1.5, 1)])
        assert outcome.matched_gt == 0
        assert outcome.iou_at_match == 0.5

    def test_empty_inputs(self):
        assert match_frame([], [BBox(0, 0, 1, 1)]) == []
        (outcome,) = match_frame([det(BBox(0, 0, 1, 1), 0.5)], [])
        assert outcome.matched_gt is None

    def test_matches_brute_force_on_small_instances(self):
        rng = random.Random(2024)
        for _ in range(1200):
            gts = [int_box(rng) for _ in range(rng.randint(0, 4))]
            dets = [det(int_box(rng), rng.choice(SCORE_POOL)) for _ in range(rng.randint(0, 4))]
            outcomes = match_frame(dets, gts)
            assert [o.matched_gt for o in outcomes] == ref_match(dets, gts, 0.5)

    def test_matches_brute_force_on_crowded_frames(self):
        rng = random.Random(2025)
        tied_matches = 0
        reversed_ties = 0
        for make in [crowded_frame] * 120 + [far_frame, window_edge_frame] * 30:
            dets, gts, ties = make(rng)
            iou_thr = rng.choice([0.3, 0.5, 0.5, 0.75])
            outcomes = match_frame(dets, gts, iou_thr)
            assert [o.detection_index for o in outcomes] == list(range(len(dets)))
            assert [o.matched_gt for o in outcomes] == ref_match(dets, gts, iou_thr)
            for o in outcomes:
                if o.is_tp:
                    expected = iou(dets[o.detection_index].box, gts[o.matched_gt])
                    assert o.iou_at_match.hex() == expected.hex()
            tied_matches += sum(
                outcomes[d].matched_gt == lower for d, lower, _ in ties if lower < len(gts) - 1
            )
            reversed_ties += sum(
                outcomes[d].matched_gt == lower and gts[higher].x < gts[lower].x
                for d, lower, higher in ties if higher < len(gts)
            )
        assert tied_matches > 0 and reversed_ties > 0

    @pytest.mark.parametrize(
        "dets, gts",
        [
            ([det(BBox(0, 0, 0, 10), 0.9)], [BBox(0, 0, 10, 10)]),
            (
                [det(BBox(0, 0, 10, 10), 0.9), det(BBox(0, 0, 10, 0), 0.5)],
                [BBox(0, 0, 10, 10), BBox(50, 50, 10, 10)],
            ),
            ([det(BBox(0, 0, 10, 10), 0.9)], [BBox(0, 0, 10, 10), BBox(5, 5, -1, 4)]),
            ([det(BBox(80, 80, 5, 5), 0.1)], [BBox(0, 0, 0, 0)]),
        ],
    )
    def test_zero_area_rejected_while_ground_truth_is_unmatched(self, dets, gts):
        with pytest.raises(InvalidArgument, match="positive area"):
            match_frame(dets, gts)

    def test_zero_area_accepted_when_no_ground_truth_is_left(self):
        box = BBox(0, 0, 10, 10)
        outcomes = match_frame([det(box, 0.9), det(BBox(0, 0, 0, 10), 0.1)], [box])
        assert [o.matched_gt for o in outcomes] == [0, None]
        (outcome,) = match_frame([det(BBox(0, 0, 10, 0), 0.5)], [])
        assert outcome.matched_gt is None
        assert match_frame([], [BBox(0, 0, 0, 0)]) == []


class TestPrCurve:
    def test_all_true_positives(self):
        scored = [(0.9, MatchOutcome(0, 0, 1.0)), (0.8, MatchOutcome(1, 1, 1.0))]
        curve = pr_curve(scored, n_gt=2)
        assert curve.points[-1] == (0.8, 1.0, 1.0)

    def test_floor_is_strict(self):
        assert pr_curve([(0.04, MatchOutcome(0, 0, 1.0))], n_gt=1).points == ()
        assert pr_curve([(0.05, MatchOutcome(0, 0, 1.0))], n_gt=1).points == ()
        kept = pr_curve([(0.0500001, MatchOutcome(0, 0, 1.0))], n_gt=1)
        assert kept.points == ((0.0500001, 1.0, 1.0),)

    def test_hand_enumerated_table(self):
        scored = [
            (0.9, MatchOutcome(0, 0, 1.0)),
            (0.8, MatchOutcome(1, None, None)),
            (0.7, MatchOutcome(2, 1, 1.0)),
            (0.6, MatchOutcome(3, None, None)),
            (0.5, MatchOutcome(4, 2, 1.0)),
        ]
        curve = pr_curve(scored, n_gt=4)
        assert curve.points == (
            (0.9, 1.0, 0.25),
            (0.8, 1 / 2, 0.25),
            (0.7, 2 / 3, 0.5),
            (0.6, 2 / 4, 0.5),
            (0.5, 3 / 5, 0.75),
        )

    def test_ties_collapse_to_one_point(self):
        scored = [
            (0.9, MatchOutcome(0, 0, 1.0)),
            (0.6, MatchOutcome(1, None, None)),
            (0.6, MatchOutcome(2, 1, 1.0)),
        ]
        curve = pr_curve(scored, n_gt=2)
        assert curve.points == ((0.9, 1.0, 0.5), (0.6, 2 / 3, 1.0))

    def test_zero_gt_empty_curve(self):
        assert pr_curve([(0.9, MatchOutcome(0, None, None))], n_gt=0).points == ()

    def test_recall_non_decreasing(self):
        rng = random.Random(9)
        scored = [
            (rng.choice(SCORE_POOL), MatchOutcome(i, i if rng.random() < 0.5 else None, 1.0))
            for i in range(200)
        ]
        curve = pr_curve(scored, n_gt=150)
        recalls = [r for _, _, r in curve.points]
        assert recalls == sorted(recalls)
        thresholds = [t for t, _, _ in curve.points]
        assert thresholds == sorted(thresholds, reverse=True)

    def test_negative_n_gt(self):
        with pytest.raises(InvalidArgument):
            pr_curve([], n_gt=-1)

    def test_more_true_positives_than_ground_truth_are_refused(self):
        # Two outcomes matched to box 0 of one ground-truth box: a recall of 2.
        scored = [(0.9, MatchOutcome(0, 0, 1.0)), (0.8, MatchOutcome(1, 0, 1.0))]
        message = r"^2 true positives above the floor, more than n_gt 1$"
        with pytest.raises(InvalidArgument, match=message):
            pr_curve(scored, n_gt=1)
        # Below the floor, the second is discarded before it is counted.
        scored[1] = (0.05, scored[1][1])
        assert pr_curve(scored, n_gt=1).points == ((0.9, 1.0, 1.0),)

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("floor", [0.0, 0.05, 0.3])
    def test_points_count_true_and_false_positives(self, seed, floor):
        # Tied scores, some of them at a floor; each point counts the kept
        # outcomes scored at or above its threshold.
        rng = random.Random(seed)
        n_gt = rng.randint(1, 40)
        scored = [
            (rng.choice([*SCORE_POOL, 0.3]) if rng.random() < 0.7 else rng.random(),
             MatchOutcome(i, 0 if rng.random() < 0.5 else None))
            for i in range(rng.randint(0, 60))
        ]
        kept = [(score, outcome.is_tp) for score, outcome in scored if score > floor]
        n_gt = max(n_gt, sum(hit for _, hit in kept))  # No recall above 1, which pr_curve refuses.
        expected = []
        for threshold in sorted({score for score, _ in kept}, reverse=True):
            tp = sum(hit for score, hit in kept if score >= threshold)
            fp = sum(not hit for score, hit in kept if score >= threshold)
            expected.append((threshold, tp / (tp + fp), tp / n_gt))
        assert pr_curve(scored, n_gt, floor).points == tuple(expected)


def random_curves(seed):
    """A curve from ``pr_curve``, of at most ``n_gt`` true positives, and one
    of ``seed`` arbitrary points with recall in any order."""
    rng = random.Random(seed)
    n_gt = rng.randint(1, 300)
    scored = []
    hits = 0
    for i in range(rng.randint(0, 2 * n_gt)):
        score = rng.random() if rng.random() < 0.5 else rng.choice(SCORE_POOL)
        hit = rng.random() < 0.6 and hits < n_gt
        hits += hit
        scored.append((score, MatchOutcome(i, 0 if hit else None)))
    swept = pr_curve(scored, n_gt=n_gt, score_floor=rng.choice([0.0, 0.3]))
    points = tuple(
        (0.5, rng.random(), rng.choice([rng.random(), i / 100, 1.0])) for i in range(seed)
    )
    return swept, PRCurve(points=points, n_gt=1)


class TestAveragePrecision:
    def test_perfect_curve(self):
        curve = PRCurve(points=((0.9, 1.0, 1.0),), n_gt=3)
        assert average_precision(curve, "allpoint") == 1.0
        assert average_precision(curve, "101point") == 1.0

    def test_empty_curve(self):
        curve = PRCurve(points=(), n_gt=5)
        assert average_precision(curve, "allpoint") == 0.0
        assert average_precision(curve, "101point") == 0.0

    def test_envelope_hand_integration(self):
        curve = PRCurve(points=((0.9, 1.0, 0.5), (0.6, 0.5, 1.0)), n_gt=2)
        assert abs(average_precision(curve, "allpoint") - 0.75) <= 1e-12

    def test_envelope_monotonic_repair(self):
        # precision dips then recovers: the envelope uses the later maximum
        curve = PRCurve(points=((0.9, 1.0, 0.25), (0.8, 0.5, 0.25), (0.7, 0.75, 1.0)), n_gt=4)
        assert average_precision(curve, "allpoint") == pytest.approx(
            0.25 * 1.0 + 0.75 * 0.75
        )

    def test_unknown_scheme(self):
        with pytest.raises(InvalidArgument):
            average_precision(PRCurve(points=(), n_gt=0), "11point")

    def test_101point_close_to_allpoint_on_dense_curves(self):
        rng = random.Random(17)
        n_gt = 400
        scored = []
        for i in range(n_gt):
            scored.append((0.1 + 0.8 * i / n_gt, MatchOutcome(i, i, 1.0)))
            if rng.random() < 0.4:
                scored.append((0.1 + 0.8 * i / n_gt + 1e-6, MatchOutcome(1000 + i, None, None)))
        curve = pr_curve(scored, n_gt=n_gt)
        assert len({r for _, _, r in curve.points}) >= 100
        dense = average_precision(curve, "allpoint")
        sampled = average_precision(curve, "101point")
        assert abs(dense - sampled) <= 0.01

    @pytest.mark.parametrize("seed", range(40))
    def test_101point_sweep_equals_the_rescan(self, seed):
        # The 101-point AP as it was computed before the sweep: the envelope
        # rescanned for each recall sample.
        def rescanned(curve):
            running, env = 0.0, []
            for _, precision, recall in reversed(curve.points):
                running = max(running, precision)
                env.append((recall, running))
            env.reverse()
            samples = []
            for i in range(101):
                beyond = [p for rec, p in env if rec >= i / 100]
                samples.append(max(beyond) if beyond else 0.0)
            return math.fsum(samples) / 101

        for curve in random_curves(seed):
            assert average_precision(curve, "101point") == rescanned(curve)

    @pytest.mark.parametrize("seed", range(40))
    def test_allpoint_sum_equals_the_rescan(self, seed):
        # Each point's envelope rescanned from that point to the end, and the
        # steps in recall from 0 summed, weighted by it.
        def rescanned(curve):
            steps = []
            for i, (_, _, recall) in enumerate(curve.points):
                highest = max([0.0, *(p for _, p, _ in reversed(curve.points[i:]))])
                previous = curve.points[i - 1][2] if i else 0.0
                steps.append((recall - previous) * highest)
            return math.fsum(steps)

        for curve in random_curves(seed):
            assert average_precision(curve, "allpoint") == rescanned(curve)

    @pytest.mark.parametrize(
        "points",
        [
            [(0.9, 1.0, math.inf)],
            [(0.9, 1.0, -math.inf)],
            # Summed, their steps once raised a bare ValueError from math.fsum.
            [(0.9, 1.0, math.inf), (0.8, 1.0, -math.inf)],
            [(0.9, math.nan, 0.5)],
            [(0.9, 1.0, math.nan)],
            [(0.9, 1.5, 0.5)],
            [(0.9, 0.5, 1.0000001)],
            [(0.9, -0.0001, 0.5)],
        ],
        ids=["inf_recall", "minus_inf_recall", "infinite_recalls_of_both_signs", "nan_precision",
             "nan_recall", "precision_above_1", "recall_above_1", "negative_precision"],
    )
    @pytest.mark.parametrize("scheme", ["allpoint", "101point"])
    def test_point_outside_the_unit_square_is_refused(self, points, scheme):
        curve = PRCurve(points=((0.95, 1.0, 0.25), *points), n_gt=4)
        with pytest.raises(InvalidArgument, match=r"is outside \[0, 1\]$"):
            average_precision(curve, scheme)

    def test_curve_on_the_unit_square_edges_is_scored(self):
        curve = PRCurve(points=((0.9, 0.0, 0.0), (0.8, 1.0, 0.0), (0.7, 1.0, 1.0)), n_gt=2)
        assert average_precision(curve, "allpoint") == 1.0
        assert average_precision(curve, "101point") == 1.0


def random_instance(rng, max_frames=20):
    frames = [("v", f) for f in range(1, rng.randint(1, max_frames) + 1)]
    ground_truth = []
    detections = []
    for video, frame in frames:
        for ped in range(rng.randint(0, 4)):
            ground_truth.append(gt_ann(int_box(rng), video, frame, ped))
        for _ in range(rng.randint(0, 4)):
            detections.append(det(int_box(rng), rng.choice(SCORE_POOL), video, frame))
    return detections, ground_truth, frames


class TestEvaluate:
    def test_perfect_detector(self):
        boxes = [BBox(0, 0, 10, 10), BBox(30, 0, 5, 20)]
        ground_truth = [gt_ann(b, ped=i) for i, b in enumerate(boxes)]
        detections = [det(b, 1.0) for b in boxes]
        report = evaluate(detections, ground_truth)
        assert report.ap_allpoint == 1.0
        assert report.ap_101point == 1.0
        assert report.n_gt == 2
        assert report.n_det == 2

    def test_no_detections(self):
        report = evaluate([], [gt_ann(BBox(0, 0, 10, 10))])
        assert report.ap_allpoint == 0.0
        assert report.n_det == 0
        assert report.n_gt == 1

    def test_join_error_for_unknown_frame(self):
        with pytest.raises(JoinError):
            evaluate([det(BBox(0, 0, 1, 1), 0.9, frame=99)], [gt_ann(BBox(0, 0, 1, 1))])

    def test_frames_argument_allows_empty_frames(self):
        ground_truth = [gt_ann(BBox(0, 0, 10, 10), frame=1)]
        fp = det(BBox(0, 0, 10, 10), 0.9, frame=2)
        tp = det(BBox(0, 0, 10, 10), 1.0, frame=1)
        report = evaluate([tp, fp], ground_truth, frames=[("v", 1), ("v", 2)])
        assert report.ap_allpoint == 1.0
        assert report.pr.points[-1][1] == 0.5

    def test_duplicate_detection_never_raises_ap(self):
        rng = random.Random(33)
        for _ in range(50):
            detections, ground_truth, frames = random_instance(rng, max_frames=5)
            matched = [
                d
                for d in detections
                if any(
                    g.video_id == d.video_id and g.frame_id == d.frame_id
                    for g in ground_truth
                )
            ]
            if not matched:
                continue
            base = evaluate(detections, ground_truth, frames=frames)
            dup = matched[0]
            extra = detections + [det(dup.box, dup.score, dup.video_id, dup.frame_id)]
            more = evaluate(extra, ground_truth, frames=frames)
            assert more.ap_allpoint <= base.ap_allpoint + 1e-12

    def test_raising_floor_only_removes_detections(self):
        rng = random.Random(34)
        detections, ground_truth, frames = random_instance(rng)
        low = evaluate(detections, ground_truth, score_floor=0.05, frames=frames)
        high = evaluate(detections, ground_truth, score_floor=0.5, frames=frames)
        kept_low = {t for t, _, _ in low.pr.points}
        kept_high = {t for t, _, _ in high.pr.points}
        assert kept_high <= kept_low
        assert all(t > 0.5 for t in kept_high)

    def test_matches_reference_on_randomized_instances(self):
        rng = random.Random(4242)
        for _ in range(300):
            detections, ground_truth, frames = random_instance(rng)
            report = evaluate(detections, ground_truth, frames=frames)
            expected = ref_evaluate(detections, ground_truth, frames, 0.5, 0.05)
            assert report.ap_allpoint == expected["ap_allpoint"]
            assert report.ap_101point == expected["ap_101point"]
            assert list(report.pr.points) == expected["points"]
            assert report.n_gt == expected["n_gt"]
            assert report.n_det == expected["n_det"]

    def test_matched_counts_every_true_positive(self):
        # Both boxes matched, one of them below the floor, and one detection unmatched.
        boxes = [BBox(0, 0, 10, 10), BBox(30, 0, 5, 20)]
        ground_truth = [gt_ann(b, ped=i) for i, b in enumerate(boxes)]
        detections = [det(boxes[0], 0.9), det(boxes[1], 0.01), det(BBox(100, 100, 5, 5), 0.8)]
        report = evaluate(detections, ground_truth)
        assert (report.n_det, report.n_matched) == (3, 2)
        assert "n_matched" not in json.loads(report.to_json())

    def test_floor_dropped_counts_scores_at_or_below_the_floor(self):
        box = BBox(0, 0, 10, 10)
        scores = [1.0, 0.5, 0.05000000000000001, 0.05, 0.01, 0.0]
        detections = [det(box, score) for score in scores]
        for floor, dropped in [(0.05, 3), (0.5, 5), (0.0, 1)]:
            report = evaluate(detections, [gt_ann(box)], score_floor=floor)
            assert (report.n_det, report.n_floor_dropped) == (6, dropped)
            assert "n_floor_dropped" not in json.loads(report.to_json())
        assert [d.score for d in detections] == scores  # The caller's list is left as it was.

    @pytest.mark.skipif(
        sys.version_info < (3, 11), reason="before 3.11, a caller's stack holds each argument"
    )
    def test_each_frame_is_freed_before_the_sweep(self, monkeypatch):
        # Given the only reference to the detections, evaluate has let every frame's
        # go by the time it pools the outcomes.
        class Weak(Detection):  # Unlike Detection, weak-referenceable
            pass

        refs = []

        def detections():
            made = [Weak("v", frame, BBox(0, 0, 10, 10), s) for frame in (1, 2, 3)
                    for s in (0.9, 0.02)]
            refs.extend(map(weakref.ref, made))
            return made

        alive = []

        def sweep(scored_outcomes, n_gt, score_floor):
            alive.append(sum(ref() is not None for ref in refs))
            return pr_curve(scored_outcomes, n_gt, score_floor)

        monkeypatch.setattr(evaluation, "pr_curve", sweep)
        ground_truth = [gt_ann(BBox(0, 0, 10, 10), frame=frame) for frame in (1, 2, 3)]
        report = evaluate(detections(), ground_truth)
        assert (len(refs), alive, report.ap_allpoint, report.n_floor_dropped) == (6, [0], 1.0, 3)

    def test_report_json_rejects_non_finite(self):
        report = EvalReport(math.nan, 0.0, 1, 1, PRCurve(points=(), n_gt=1))
        with pytest.raises(ValueError):
            report.to_json()

    def test_report_json_layout(self):
        report = evaluate([det(BBox(0, 0, 10, 10), 1.0)], [gt_ann(BBox(0, 0, 10, 10))])
        doc = json.loads(report.to_json())
        assert set(doc) == {"ap_allpoint", "ap_101point", "n_gt", "n_det", "pr"}
        assert doc["pr"] == [[1, 1, 1]]
        assert doc["ap_allpoint"] == 1
