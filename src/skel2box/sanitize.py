"""Distance analysis and pruning of synthesized annotations.

Human annotators of real surveillance footage stop labeling pedestrians
beyond a certain camera distance, so synthetic ground truth must be pruned
to match. This module bins annotations by distance, prunes beyond a limit
(40 m by default), and can derive a limit from the minimum box height seen
in human annotations.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Sequence

from . import DEFAULT_DISTANCE_LIMIT_M, check_setting, is_finite_number
from .errors import EmptyInput, InvalidArgument
from .formats import csv_row
from .geometry import AnnotatedBox, check_distance

MAX_HISTOGRAM_BINS = 1_000_000


@dataclass(frozen=True)
class DistanceHistogram:
    """Counts of annotations per distance bin; bin k covers [k*w, (k+1)*w)."""

    bin_width_m: float
    counts: tuple[int, ...]

    def to_csv(self) -> str:
        rows = (csv_row(k * self.bin_width_m, count) for k, count in enumerate(self.counts))
        return "bin_lower_m,count\n" + "".join(rows)


# These two keep their own words, and stay out of SETTING_RANGES, which holds the
# PipelineConfig fields; they share its number rule, is_finite_number.

def check_bin_width(bin_width_m: float) -> None:
    """Raise InvalidArgument unless ``bin_width_m`` is a finite number and positive."""
    if not (is_finite_number(bin_width_m) and bin_width_m > 0):
        raise InvalidArgument(f"bin width must be positive, got {bin_width_m!r}")


def check_height_floor(h_min_px: float) -> None:
    """Raise InvalidArgument unless ``h_min_px`` is a finite number and non-negative."""
    if not (is_finite_number(h_min_px) and h_min_px >= 0):
        raise InvalidArgument(f"height floor must be non-negative, got {h_min_px!r}")


def _bin_of(annotation: AnnotatedBox, bin_width_m: float) -> int:
    """The distance bin of ``annotation``, which must be below ``MAX_HISTOGRAM_BINS``."""
    k = check_distance(annotation.distance_m) // bin_width_m
    if k >= MAX_HISTOGRAM_BINS:  # also when the quotient is infinite
        d, w = annotation.distance_m, bin_width_m
        raise InvalidArgument(f"distance {d!r} m is past {MAX_HISTOGRAM_BINS} bins of {w!r} m")
    return int(k)


def distance_histogram(
    annotations: Sequence[AnnotatedBox], bin_width_m: float
) -> DistanceHistogram:
    """Histogram of pedestrian-camera distances in at most ``MAX_HISTOGRAM_BINS`` bins."""
    check_bin_width(bin_width_m)
    if not annotations:
        return DistanceHistogram(bin_width_m=bin_width_m, counts=())
    bins = [_bin_of(a, bin_width_m) for a in annotations]
    counts = [0] * (max(bins) + 1)
    for k in bins:
        counts[k] += 1
    return DistanceHistogram(bin_width_m=bin_width_m, counts=tuple(counts))


def prune_by_distance(
    annotations: Sequence[AnnotatedBox],
    limit_m: float = DEFAULT_DISTANCE_LIMIT_M,
) -> tuple[list[AnnotatedBox], int]:
    """Drop annotations farther than ``limit_m`` from the camera.

    The boundary is inclusive: a pedestrian at exactly the limit is kept, since only those
    strictly farther are pruned. Input order is preserved. An annotation of unknown (infinite)
    distance is refused, not kept or dropped, as the histogram and :func:`derive_distance_limit`
    refuse it. A ``limit_m`` outside the range of ``distance_limit_m`` raises InvalidArgument.

    Returns:
        (kept annotations, pruned count)
    """
    check_setting("distance_limit_m", limit_m, InvalidArgument)
    kept = [a for a in annotations if check_distance(a.distance_m) <= limit_m]
    return kept, len(annotations) - len(kept)


def derive_distance_limit(
    annotations: Sequence[AnnotatedBox],
    h_min_px: float,
    bin_width_m: float = 1.0,
    min_bin_count: int = 10,
) -> float:
    """Distance at which boxes shrink below the human-annotation height floor.

    Annotations are binned by distance as :func:`distance_histogram` bins
    them, within the same ``MAX_HISTOGRAM_BINS``; the limit is the lower edge
    of the nearest bin whose median box height falls below ``h_min_px``. The
    median is used rather than the minimum because it is robust to outlier poses.
    Bins holding fewer than ``min_bin_count`` annotations are skipped as
    unreliable. When no bin qualifies the maximum observed distance is
    returned: every annotation is above the floor, so nothing constrains
    the limit.
    """
    if not annotations:
        raise EmptyInput("cannot derive a distance limit from zero annotations")
    check_bin_width(bin_width_m)
    check_height_floor(h_min_px)

    heights_by_bin: dict[int, list[float]] = {}
    for a in annotations:
        heights_by_bin.setdefault(_bin_of(a, bin_width_m), []).append(a.box.h)

    for k in sorted(heights_by_bin):
        heights = heights_by_bin[k]
        if len(heights) < min_bin_count:
            continue
        if statistics.median(heights) < h_min_px:
            return k * bin_width_m
    return max(a.distance_m for a in annotations)
