import math
import random

import pytest

from skel2box import (
    BBox,
    InvalidArgument,
    SkeletonInstance,
    SynthesisResult,
    camera_distance,
    clamp_to_image,
    emit_coco,
    manifest_for_annotations,
    pad_box,
    skeleton_enclosing_box,
    synthesize_annotations,
)


def skeleton_of(joints, video_id="v", frame_id=1, pedestrian_id=1):
    """A skeleton from (x_px, y_px, x3d_m, y3d_m, z3d_m) joints in joint-id order."""
    columns = tuple(zip(*joints)) or ((),) * 5
    return SkeletonInstance(video_id, frame_id, pedestrian_id, *columns)


def make_skeleton(points_2d, z=10.0, video_id="v", frame_id=1, pedestrian_id=1):
    joints = [(x, y, 0.0, 0.0, z) for x, y in points_2d]
    return skeleton_of(joints, video_id, frame_id, pedestrian_id)


def random_skeleton(rng, n_joints=22, span=100.0):
    pts = [(rng.uniform(0, span), rng.uniform(0, span)) for _ in range(n_joints)]
    # force nonzero extent on both axes
    pts[0] = (0.0, 0.0)
    pts[1] = (span, span)
    joints = [
        (x, y, rng.uniform(-5, 5), rng.uniform(-2, 2), rng.uniform(5, 40)) for x, y in pts
    ]
    return skeleton_of(joints)


class TestSkeletonEnclosingBox:
    def test_two_joint_hull(self):
        box = skeleton_enclosing_box(make_skeleton([(10, 20), (30, 80)]))
        assert box == BBox(10, 20, 20, 60)

    def test_single_point_is_degenerate(self):
        assert skeleton_enclosing_box(make_skeleton([(5, 5), (5, 5), (5, 5)])) is None

    def test_axis_collapse_is_degenerate(self):
        assert skeleton_enclosing_box(make_skeleton([(5, 0), (5, 10)])) is None
        assert skeleton_enclosing_box(make_skeleton([(0, 7), (10, 7)])) is None

    @pytest.mark.parametrize(
        "points", [[(-1e308, 0), (1e308, 10)], [(0, -1e308), (10, 1e308)]], ids=["wide", "high"]
    )
    def test_hull_beyond_float_range_is_degenerate(self, points):
        assert skeleton_enclosing_box(make_skeleton(points)) is None

    def test_no_joints(self):
        assert skeleton_enclosing_box(skeleton_of([])) is None

    def test_matches_brute_force_min_max(self):
        rng = random.Random(101)
        for _ in range(300):
            skeleton = random_skeleton(rng)
            box = skeleton_enclosing_box(skeleton)
            xs = [j[0] for j in skeleton.joints]
            ys = [j[1] for j in skeleton.joints]
            assert box.x == min(xs)
            assert box.y == min(ys)
            assert box.x2 == max(xs)
            assert box.y2 == max(ys)


class TestCameraDistance:
    def test_constant_position(self):
        skeleton = make_skeleton([(0, 0), (1, 1)], z=10.0)
        assert camera_distance(skeleton) == 10.0

    def test_mean_of_symmetric_pair(self):
        joints = [(0, 0, 0.0, 0.0, 9.0), (1, 1, 0.0, 0.0, 11.0)]
        assert camera_distance(skeleton_of(joints)) == 10.0

    def test_matches_independent_mean_then_norm(self):
        rng = random.Random(7)
        for _ in range(200):
            skeleton = random_skeleton(rng)
            n = len(skeleton.joints)
            mx = sum(j[2] for j in skeleton.joints) / n
            my = sum(j[3] for j in skeleton.joints) / n
            mz = sum(j[4] for j in skeleton.joints) / n
            expected = math.sqrt(mx * mx + my * my + mz * mz)
            assert camera_distance(skeleton) == pytest.approx(expected, rel=1e-12)

    def test_no_joints(self):
        # As skeleton_enclosing_box, and not a division by zero.
        assert camera_distance(skeleton_of([])) is None

    def test_zero_norm_rejected(self):
        joints = [(0, 0, 0.0, 0.0, 0.0), (1, 1, 0.0, 0.0, 0.0)]
        assert camera_distance(skeleton_of(joints)) is None

    def test_non_finite_rejected(self):
        joints = [(0, 0, 0.0, 0.0, math.inf), (1, 1, 0.0, 0.0, 1.0)]
        assert camera_distance(skeleton_of(joints)) is None


class TestPadBox:
    def test_hand_example(self):
        out = pad_box(BBox(100, 200, 20, 50), z=10, alpha=100)
        assert out.h == 60
        assert out.w == 24
        assert out.x + out.w / 2 == 110
        assert out.y + out.h / 2 == 225

    def test_zero_alpha_is_identity(self):
        box = BBox(3.5, 4.25, 17.0, 41.0)
        assert pad_box(box, z=12.0, alpha=0.0) == box

    def test_huge_distance_padding_vanishes(self):
        box = BBox(0, 0, 20, 50)
        out = pad_box(box, z=1e12, alpha=1e3)
        assert out.h - box.h < 1e-9

    def test_preconditions(self):
        box = BBox(0, 0, 10, 20)
        with pytest.raises(InvalidArgument):
            pad_box(box, z=0.0, alpha=100)
        with pytest.raises(InvalidArgument):
            pad_box(box, z=-5.0, alpha=100)
        with pytest.raises(InvalidArgument):
            pad_box(box, z=10.0, alpha=-1.0)
        with pytest.raises(InvalidArgument):
            pad_box(BBox(0, 0, 10, 0), z=10.0, alpha=100)

    def test_aspect_containment_monotonicity(self):
        rng = random.Random(23)
        for _ in range(500):
            box = BBox(
                rng.uniform(-200, 1800),
                rng.uniform(-200, 900),
                rng.uniform(1, 400),
                rng.uniform(1, 900),
            )
            alpha = rng.uniform(10, 1000)
            z1 = rng.uniform(5, 40)
            z2 = z1 * rng.uniform(1.01, 3.0)
            near = pad_box(box, z1, alpha)
            far = pad_box(box, z2, alpha)
            for padded in (near, far):
                assert padded.aspect == pytest.approx(box.aspect, rel=1e-9)
                assert padded.x <= box.x + 1e-9
                assert padded.y <= box.y + 1e-9
                assert padded.x2 >= box.x2 - 1e-9
                assert padded.y2 >= box.y2 - 1e-9
            assert near.h > far.h > box.h


class TestClampToImage:
    def test_partial_overlap(self):
        assert clamp_to_image(BBox(-10, -10, 40, 40), 1920, 1080) == BBox(0, 0, 30, 30)

    def test_inside_unchanged(self):
        box = BBox(10, 10, 100, 100)
        assert clamp_to_image(box, 1920, 1080) is box

    def test_fully_outside(self):
        assert clamp_to_image(BBox(2000, 50, 40, 40), 1920, 1080) is None
        assert clamp_to_image(BBox(-50, -50, 40, 40), 1920, 1080) is None

    def test_touching_border_only(self):
        assert clamp_to_image(BBox(1920, 0, 40, 40), 1920, 1080) is None

    def test_bad_image_dims(self):
        with pytest.raises(InvalidArgument):
            clamp_to_image(BBox(0, 0, 10, 10), 0, 1080)


class TestSynthesizeAnnotations:
    def test_empty_input(self):
        result = synthesize_annotations([], alpha=100, image_w=1920, image_h=1080)
        assert result.annotations == ()
        assert result.skipped_count == 0

    def test_matches_manual_composition(self):
        skeleton = make_skeleton([(100, 200), (120, 250)], z=10.0)
        result = synthesize_annotations([skeleton], alpha=100, image_w=1920, image_h=1080)
        assert result.skipped_count == 0
        (ann,) = result.annotations
        skeleton_box = skeleton_enclosing_box(skeleton)
        z = camera_distance(skeleton)
        expected = clamp_to_image(pad_box(skeleton_box, z, 100), 1920, 1080)
        assert ann.box == expected
        assert ann.distance_m == z
        assert (ann.video_id, ann.frame_id, ann.pedestrian_id) == ("v", 1, 1)

    def test_degenerate_skipped_and_counted(self):
        good = make_skeleton([(100, 200), (120, 250)], pedestrian_id=1)
        bad = make_skeleton([(5, 5), (5, 5)], pedestrian_id=2)
        result = synthesize_annotations([good, bad], alpha=100, image_w=1920, image_h=1080)
        assert len(result.annotations) == 1
        assert result.skipped_count == 1

    @pytest.mark.parametrize(
        "alpha, image_w, image_h, message",
        [
            (math.nan, 1920, 1080, "alpha must be finite and non-negative, got nan"),
            (100, 0, 1080, "image dimensions must be positive, got 0x1080"),
            (100, 1920, 0, "image dimensions must be positive, got 1920x0"),
        ],
    )
    def test_bad_arguments_rejected(self, alpha, image_w, image_h, message):
        skeleton = make_skeleton([(100, 200), (120, 250)])
        with pytest.raises(InvalidArgument) as exc_info:
            synthesize_annotations([skeleton], alpha=alpha, image_w=image_w, image_h=image_h)
        assert str(exc_info.value) == message

    def test_off_screen_skipped(self):
        off = make_skeleton([(-500, -500), (-400, -300)])
        result = synthesize_annotations([off], alpha=10, image_w=1920, image_h=1080)
        assert result.annotations == ()
        assert result.skipped_count == 1

    @pytest.mark.parametrize(
        "skeleton, alpha, clamp, cause",
        [
            (make_skeleton([(5, 5), (5, 5)]), 100, True, "hull"),
            (make_skeleton([(100, 200), (120, 250)], z=0.0), 100, True, "distance"),
            (make_skeleton([(-500, -500), (-400, -300)]), 10, True, "off_image"),
            (make_skeleton([(100, 200), (120, 250)], z=1e-300), 1e10, False, "float_range"),
        ],
    )
    def test_skip_counted_under_its_cause(self, skeleton, alpha, clamp, cause):
        good = make_skeleton([(100, 200), (120, 250)], pedestrian_id=2)
        result = synthesize_annotations([skeleton, good], alpha, 1920, 1080, clamp=clamp)
        assert len(result.annotations) == 1
        assert result.skipped_count == 1
        counts = dict.fromkeys(("hull", "distance", "off_image", "float_range"), 0)
        assert result.skipped_by_cause == tuple({**counts, cause: 1}.items())

    def test_skip_counts_default_for_positional_construction(self):
        assert SynthesisResult((), 0).skipped_by_cause == ()

    def test_no_clamp_keeps_out_of_frame_boxes(self):
        off = make_skeleton([(-500, -500), (-400, -300)])
        result = synthesize_annotations([off], alpha=10, image_w=1920, image_h=1080, clamp=False)
        assert len(result.annotations) == 1

    def test_unclamped_aspect_matches_skeleton_box(self):
        skeleton = make_skeleton([(500, 300), (600, 700)], z=8.0)
        result = synthesize_annotations([skeleton], alpha=200, image_w=1920, image_h=1080)
        (ann,) = result.annotations
        hull = skeleton_enclosing_box(skeleton)
        assert ann.box.aspect == pytest.approx(hull.aspect, rel=1e-9)

    def test_permutation_invariance_bitwise(self):
        rng = random.Random(55)
        skeletons = []
        for frame in range(1, 11):
            for ped in range(3):
                pts = [(rng.uniform(0, 1800), rng.uniform(0, 1000)) for _ in range(22)]
                joints = [(x, y, rng.uniform(-3, 3), 0.0, rng.uniform(5, 40)) for x, y in pts]
                skeletons.append(skeleton_of(joints, frame_id=frame, pedestrian_id=ped))
        forward = synthesize_annotations(skeletons, 100, 1920, 1080)
        shuffled = list(skeletons)
        rng.shuffle(shuffled)
        backward = synthesize_annotations(shuffled, 100, 1920, 1080)
        assert forward == backward
        manifest = manifest_for_annotations(forward.annotations, "d", 1920, 1080)
        assert emit_coco(forward.annotations, manifest) == emit_coco(
            backward.annotations, manifest
        )

