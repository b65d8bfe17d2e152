import math
import random

import pytest

from skel2box import (
    AnnotatedBox,
    BBox,
    EmptyInput,
    InvalidArgument,
    derive_distance_limit,
    distance_histogram,
    prune_by_distance,
)
from skel2box.sanitize import DEFAULT_DISTANCE_LIMIT_M, MAX_HISTOGRAM_BINS


def ann(distance, height=100.0, ped=0):
    box = BBox(0, 0, height / 2, height)
    return AnnotatedBox("v", 1, ped, box, distance)


class TestDistanceHistogram:
    def test_direct_binning(self):
        hist = distance_histogram([ann(1.0), ann(1.5), ann(2.5)], bin_width_m=1.0)
        assert hist.counts == (0, 2, 1)

    def test_empty_input(self):
        hist = distance_histogram([], bin_width_m=1.0)
        assert hist.counts == ()

    def test_totals_match_independent_recount(self):
        rng = random.Random(19)
        annotations = [ann(rng.uniform(0.1, 80)) for _ in range(1000)]
        width = 2.5
        hist = distance_histogram(annotations, bin_width_m=width)
        assert sum(hist.counts) == 1000
        recount = {}
        for a in annotations:
            k = int(a.distance_m // width)
            recount[k] = recount.get(k, 0) + 1
        for k, count in enumerate(hist.counts):
            assert count == recount.get(k, 0)

    def test_non_positive_width(self):
        with pytest.raises(InvalidArgument):
            distance_histogram([ann(1.0)], bin_width_m=0.0)

    def test_non_finite_distance(self):
        with pytest.raises(InvalidArgument):
            distance_histogram([ann(math.inf)], bin_width_m=1.0)

    @pytest.mark.parametrize("distance", [1e12, 1e300])
    def test_too_many_bins_refused(self, distance):
        with pytest.raises(InvalidArgument) as exc_info:
            distance_histogram([ann(1.0), ann(distance)], bin_width_m=1.0)
        assert str(exc_info.value) == f"distance {distance!r} m is past 1000000 bins of 1.0 m"

    def test_bins_beyond_float_range_refused(self):
        # 10 // 1e-310 is infinite: refused, not an OverflowError.
        with pytest.raises(InvalidArgument, match="^distance 10.0 m is past 1000000 bins"):
            distance_histogram([ann(10.0)], bin_width_m=1e-310)

    @pytest.mark.parametrize("distance", [-1.0, -5.0])
    def test_negative_distance_refused(self, distance):
        # Not counted in a bin at a negative list index, nor an IndexError.
        with pytest.raises(InvalidArgument) as exc_info:
            distance_histogram([ann(distance), ann(3.0)], bin_width_m=1.0)
        assert str(exc_info.value) == f"distance must be finite and positive, got {distance!r}"

    def test_near_zero_distance_is_the_first_bin(self):
        # Zero itself is refused (tests/test_value_rules.py), as no camera distance is 0.
        assert distance_histogram([ann(5e-324), ann(1.0)], bin_width_m=1.0).counts == (1, 1)

    def test_most_bins_accepted(self):
        assert MAX_HISTOGRAM_BINS == 1_000_000
        hist = distance_histogram([ann(0.5), ann(999_999.5)], bin_width_m=1.0)
        assert len(hist.counts) == MAX_HISTOGRAM_BINS
        assert (hist.counts[0], hist.counts[-1], sum(hist.counts)) == (1, 1, 2)

    def test_csv_export(self):
        hist = distance_histogram([ann(0.5), ann(2.25), ann(2.5)], bin_width_m=1.0)
        assert hist.to_csv() == "bin_lower_m,count\n0,1\n1,0\n2,2\n"

    def test_csv_fractional_edges(self):
        hist = distance_histogram([ann(0.6)], bin_width_m=0.5)
        assert hist.to_csv() == "bin_lower_m,count\n0,0\n0.5,1\n"


class TestPruneByDistance:
    def test_boundary_semantics(self):
        annotations = [ann(39.0, ped=1), ann(40.0, ped=2), ann(41.0, ped=3)]
        kept, pruned = prune_by_distance(annotations)
        assert [a.pedestrian_id for a in kept] == [1, 2]
        assert pruned == 1

    def test_default_limit_is_40(self):
        assert DEFAULT_DISTANCE_LIMIT_M == 40.0

    def test_empty_input(self):
        assert prune_by_distance([]) == ([], 0)

    def test_order_preserved(self):
        annotations = [ann(5.0, ped=3), ann(1.0, ped=1), ann(9.0, ped=2)]
        kept, _ = prune_by_distance(annotations, limit_m=10.0)
        assert [a.pedestrian_id for a in kept] == [3, 1, 2]

    def test_idempotent(self):
        rng = random.Random(5)
        annotations = [ann(rng.uniform(1, 80), ped=i) for i in range(200)]
        once, _ = prune_by_distance(annotations, limit_m=40.0)
        twice, pruned_again = prune_by_distance(once, limit_m=40.0)
        assert twice == once
        assert pruned_again == 0

    def test_monotone_in_limit(self):
        rng = random.Random(6)
        annotations = [ann(rng.uniform(1, 80)) for _ in range(200)]
        kept_counts = [
            len(prune_by_distance(annotations, limit_m=limit)[0])
            for limit in (10.0, 20.0, 40.0, 80.0)
        ]
        assert kept_counts == sorted(kept_counts)

    def test_unknown_distance_refused(self):
        # Not pruned as "farther than any limit", which would empty the dataset.
        with pytest.raises(InvalidArgument, match="^distance must be finite and positive"):
            prune_by_distance([ann(5.0), ann(math.inf)], limit_m=40.0)

    def test_bad_limit(self):
        with pytest.raises(InvalidArgument):
            prune_by_distance([], limit_m=0.0)
        with pytest.raises(InvalidArgument):
            prune_by_distance([], limit_m=math.inf)


def inverse_height_annotations(alpha=400.0, z_lo=5, z_hi=80, per_bin=12):
    """Mesh-box heights follow h(z) = 900/z + alpha/z = 1300/z exactly."""
    annotations = []
    for k in range(z_lo, z_hi):
        for i in range(per_bin):
            z = k + (i + 0.5) / per_bin
            h_s = 900.0 / z
            annotations.append(ann(z, height=h_s + alpha / z, ped=len(annotations)))
    return annotations


class TestDeriveDistanceLimit:
    def test_analytic_crossing(self):
        # median height per 1 m bin ~ 1300/(k+0.5); crosses 25 px at z = 52
        limit = derive_distance_limit(inverse_height_annotations(), h_min_px=25.0)
        assert 51.0 <= limit <= 53.0

    def test_floor_above_all_heights_returns_first_bin(self):
        limit = derive_distance_limit(inverse_height_annotations(), h_min_px=10_000.0)
        assert limit == 5.0

    def test_zero_floor_returns_max_distance(self):
        annotations = inverse_height_annotations()
        limit = derive_distance_limit(annotations, h_min_px=0.0)
        assert limit == max(a.distance_m for a in annotations)

    def test_sparse_bins_skipped(self):
        # 60 m bin holds a single tiny box: too few samples to trust
        annotations = inverse_height_annotations(z_hi=40) + [ann(60.2, height=1.0)]
        limit = derive_distance_limit(annotations, h_min_px=5.0, min_bin_count=10)
        assert limit == max(a.distance_m for a in annotations)
        limit_all = derive_distance_limit(annotations, h_min_px=5.0, min_bin_count=1)
        assert limit_all == 60.0

    def test_monotone_in_height_floor(self):
        annotations = inverse_height_annotations()
        limits = [
            derive_distance_limit(annotations, h_min_px=h) for h in (10.0, 20.0, 40.0, 80.0)
        ]
        assert limits == sorted(limits, reverse=True)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            derive_distance_limit([], h_min_px=25.0)

    def test_bad_bin_width(self):
        with pytest.raises(InvalidArgument):
            derive_distance_limit([ann(5.0)], h_min_px=25.0, bin_width_m=-1.0)

    @pytest.mark.parametrize(
        "distance, width",
        [(2e6, 1.0), (5e6, 1e-310)],
        ids=["past_the_bins", "bin_index_beyond_float_range"],
    )
    def test_shares_the_histogram_bin_bound(self, distance, width):
        with pytest.raises(InvalidArgument) as exc_info:
            derive_distance_limit([ann(distance)], h_min_px=25.0, bin_width_m=width)
        assert str(exc_info.value) == (
            f"distance {distance!r} m is past {MAX_HISTOGRAM_BINS} bins of {width!r} m"
        )

    def test_negative_floor(self):
        with pytest.raises(InvalidArgument):
            derive_distance_limit([ann(5.0)], h_min_px=-1.0)
