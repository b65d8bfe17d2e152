"""Distance-aware synthesis of full-body boxes from skeleton joints.

A skeleton's joints always lie under the skin surface, so the minimum box
enclosing them undersizes the pedestrian. The full-body ("mesh") box is
derived by padding the skeleton box height with ``alpha / z`` pixels, where
``z`` is the pedestrian's distance from the camera and ``alpha`` is a
camera-dependent constant (see :mod:`skel2box.calibration` for how it is
fitted), then scaling the width so the aspect ratio is unchanged.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, fields
from itertools import repeat
from operator import attrgetter
from typing import Iterable, Optional, Sequence

from . import check_setting
from .errors import InvalidArgument


@dataclass(frozen=True, slots=True)
class SkeletonInstance:
    """One pedestrian in one frame, identified by (video, frame, pedestrian).

    The joints are stored as columns, one per coordinate, each in joint-id
    order: the screen position ``x_px``/``y_px`` and the camera-space
    position ``x3d_m``/``y3d_m``/``z3d_m`` in metres. ``parse_jta`` gives
    each column as an ``array('d')``; the constructor keeps what it is
    given. Equality compares the columns, and the hash is that of the
    (video, frame, pedestrian) key alone, since an array is unhashable.
    """

    video_id: str
    frame_id: int
    pedestrian_id: int
    x_px: Sequence[float] = field(hash=False)
    y_px: Sequence[float] = field(hash=False)
    x3d_m: Sequence[float] = field(hash=False)
    y3d_m: Sequence[float] = field(hash=False)
    z3d_m: Sequence[float] = field(hash=False)

    @property
    def joints(self) -> tuple[tuple[float, float, float, float, float], ...]:
        """One ``(x_px, y_px, x3d_m, y3d_m, z3d_m)`` tuple per joint, in joint-id order."""
        return tuple(zip(self.x_px, self.y_px, self.x3d_m, self.y3d_m, self.z3d_m))


@dataclass(frozen=True, slots=True)
class BBox:
    """Axis-aligned box: top-left corner (x, y) plus width and height, in pixels."""

    x: float
    y: float
    w: float
    h: float

    @property
    def x2(self) -> float:
        return self.x + self.w

    @property
    def y2(self) -> float:
        return self.y + self.h

    @property
    def area(self) -> float:
        return self.w * self.h

    @property
    def aspect(self) -> float:
        return self.w / self.h


@dataclass(frozen=True, slots=True)
class AnnotatedBox:
    """Synthesized ground truth for one pedestrian in one frame.

    ``box`` is the padded full-body box (clamped to the image unless clamping
    was disabled); ``distance_m`` is the pedestrian-camera distance used for
    the padding and later for distance-based pruning.
    """

    video_id: str
    frame_id: int
    pedestrian_id: int
    box: BBox
    distance_m: float


@dataclass(frozen=True)
class SynthesisResult:
    """Annotations produced by :func:`synthesize_annotations`, the skip count, and
    ``(cause, count)`` of each skip cause, which add up to it."""

    annotations: tuple[AnnotatedBox, ...]
    skipped_count: int
    skipped_by_cause: tuple[tuple[str, int], ...] = ()


def from_columns(cls: type, *columns: Sequence) -> list:
    """One ``cls`` per row of ``columns``, a column per field in field order, equal to
    ``cls(*row)`` and as frozen, for a frozen slotted dataclass without ``__post_init__``:
    each slot's ``__set__`` is mapped over its column, at half the constructor's cost."""
    names = [f.name for f in fields(cls)]
    if len(columns) != len(names) or len({*map(len, columns)}) > 1:
        raise InvalidArgument(f"{cls.__name__} needs {len(names)} columns of one length")
    records = [*map(object.__new__, repeat(cls, len(columns[0])))]
    for name, column in zip(names, columns):
        deque(map(getattr(cls, name).__set__, records, column), 0)
    return records


def skeleton_enclosing_box(skeleton: SkeletonInstance) -> Optional[BBox]:
    """Minimum axis-aligned box enclosing all joint screen positions.

    Occluded joints are included: excluding them would shrink boxes for
    partially hidden pedestrians. Returns None for a skeleton with no joints,
    or a hull whose width or height is zero or beyond float range.
    """
    xs, ys = skeleton.x_px, skeleton.y_px
    if not xs:
        return None
    x1, x2 = min(xs), max(xs)
    y1, y2 = min(ys), max(ys)
    if not (0 < x2 - x1 < math.inf and 0 < y2 - y1 < math.inf):
        return None
    return BBox(x1, y1, x2 - x1, y2 - y1)


def camera_distance(skeleton: SkeletonInstance) -> Optional[float]:
    """Distance of the pedestrian's center of mass from the camera.

    The center of mass is the unweighted mean of the joints' camera-space
    positions; the distance is its Euclidean norm. Returns None for a
    skeleton with no joints, when a column's sum is beyond float range, or
    when the norm is zero or not finite.
    """
    if not (n := len(skeleton.z3d_m)):
        return None
    columns = (skeleton.x3d_m, skeleton.y3d_m, skeleton.z3d_m)
    try:
        dist = math.hypot(*(math.fsum(column) / n for column in columns))
    except OverflowError:
        return None
    return dist if math.isfinite(dist) and dist > 0 else None


def check_distance(z: float, location: Optional[str] = None) -> float:
    """``z``, if it is a camera distance: finite and positive, as
    :func:`camera_distance` gives them. The package's one distance rule."""
    if not (math.isfinite(z) and z > 0):
        raise InvalidArgument(f"distance must be finite and positive, got {z!r}", location=location)
    return z


def pad_box(skeleton_box: BBox, z: float, alpha: float) -> BBox:
    """Grow a skeleton box into a full-body box.

    The height gains ``alpha / z`` pixels; the width is rescaled so the aspect ratio is
    preserved. Growth is symmetric about the box center, keeping the box centered on the body.
    A bad ``z``, a box not finite or without extent, or a bad ``alpha`` raises InvalidArgument.
    """
    check_distance(z)
    for value in (skeleton_box.x, skeleton_box.y, skeleton_box.w, skeleton_box.h):
        if not math.isfinite(value):
            raise InvalidArgument(f"box field must be a finite number, got {value!r}")
    if skeleton_box.w <= 0 or skeleton_box.h <= 0:
        raise InvalidArgument(f"skeleton box must have positive extent, got {skeleton_box}")
    check_setting("alpha", alpha, InvalidArgument)

    pad = alpha / z
    h_m = skeleton_box.h + pad
    if h_m == skeleton_box.h:
        # Padding vanished (alpha == 0 or z huge): exact identity.
        return skeleton_box
    w_m = h_m * (skeleton_box.w / skeleton_box.h)
    dx = (w_m - skeleton_box.w) / 2.0
    dy = (h_m - skeleton_box.h) / 2.0
    return BBox(skeleton_box.x - dx, skeleton_box.y - dy, w_m, h_m)


def clamp_to_image(box: BBox, image_w: float, image_h: float) -> Optional[BBox]:
    """Intersect a box with the image rectangle [0, image_w] x [0, image_h].

    Returns None for a zero-area intersection. A size outside its range raises InvalidArgument.
    """
    check_setting("image_w", image_w, InvalidArgument)
    check_setting("image_h", image_h, InvalidArgument)
    if box.x >= 0 and box.y >= 0 and box.x2 <= image_w and box.y2 <= image_h:
        return box
    x1 = max(box.x, 0.0)
    y1 = max(box.y, 0.0)
    x2 = min(box.x2, float(image_w))
    y2 = min(box.y2, float(image_h))
    if x2 - x1 <= 0 or y2 - y1 <= 0:
        return None
    return BBox(x1, y1, x2 - x1, y2 - y1)


def synthesize_annotations(
    skeletons: Iterable[SkeletonInstance],
    alpha: float,
    image_w: float,
    image_h: float,
    clamp: bool = True,
) -> SynthesisResult:
    """Run the full box-synthesis pipeline over a batch of skeletons.

    Each skeleton goes through enclosing box -> camera distance -> padding ->
    (optional) clamping. Degenerate skeletons, distances that are not
    positive and finite, boxes that fall entirely outside the image, and
    boxes whose corner, size or area is beyond float range are skipped and
    counted by cause rather than aborting the batch: large synthetic dumps
    contain edge cases and batch jobs must complete.

    Output is sorted by (video_id, frame_id, pedestrian_id), so the result is independent of
    input order. An ``alpha``, or with ``clamp`` a size, outside its range raises InvalidArgument.
    """
    check_setting("alpha", alpha, InvalidArgument)
    if clamp:
        check_setting("image_w", image_w, InvalidArgument)
        check_setting("image_h", image_h, InvalidArgument)

    kept: list[AnnotatedBox] = []
    # A skip counts under its first cause: no hull, no camera distance, a box
    # clamped away, or a box beyond float range.
    skipped = dict.fromkeys(("hull", "distance", "off_image", "float_range"), 0)
    for skeleton in skeletons:
        skeleton_box = skeleton_enclosing_box(skeleton)
        z = None if skeleton_box is None else camera_distance(skeleton)
        box = None if z is None else pad_box(skeleton_box, z, alpha)
        if clamp and box is not None:
            box = clamp_to_image(box, image_w, image_h)
        if box is None or not all(map(math.isfinite, (box.x, box.y, box.w, box.h, box.area))):
            skipped["hull" if skeleton_box is None else "distance" if z is None
                    else "off_image" if box is None else "float_range"] += 1
            continue
        kept.append(
            AnnotatedBox(
                video_id=skeleton.video_id,
                frame_id=skeleton.frame_id,
                pedestrian_id=skeleton.pedestrian_id,
                box=box,
                distance_m=z,
            )
        )
    kept.sort(key=sort_key)
    return SynthesisResult(tuple(kept), sum(skipped.values()), tuple(skipped.items()))


sort_key = attrgetter("video_id", "frame_id", "pedestrian_id")  # Canonical, used by all emitters.

