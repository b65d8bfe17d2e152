"""Detection scoring: IoU matching, precision-recall curves, average precision.

Protocol: one IoU threshold (0.5), a strict confidence floor (scores must
exceed 0.05), greedy score-ordered matching, and AP under two interpolation
schemes. "allpoint" integrates the precision envelope exactly over recall;
"101point" averages the envelope sampled at recall 0, 0.01, ..., 1.00.

All sums go through math.fsum, so results are bitwise reproducible and
independent of accumulation order.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from . import DEFAULT_IOU_THRESHOLD, DEFAULT_SCORE_FLOOR
from .errors import InvalidArgument, JoinError
from .formats import Detection, json_number
from .geometry import AnnotatedBox, BBox


@dataclass(frozen=True, slots=True)
class MatchOutcome:
    """Result of matching one detection within its frame."""

    detection_index: int
    matched_gt: Optional[int] = None
    iou_at_match: Optional[float] = None

    @property
    def is_tp(self) -> bool:
        return self.matched_gt is not None


@dataclass(frozen=True)
class PRCurve:
    """Precision-recall points at descending score thresholds.

    Each point is (score_threshold, precision, recall); recall is
    non-decreasing along the list.
    """

    points: tuple[tuple[float, float, float], ...]
    n_gt: int


@dataclass(frozen=True)
class EvalReport:
    ap_allpoint: float
    ap_101point: float
    n_gt: int
    n_det: int
    pr: PRCurve
    n_matched: int = 0  # Detections that match_frame matched; not in to_json's report.

    def to_json(self) -> str:
        doc = {
            "ap_allpoint": json_number(self.ap_allpoint),
            "ap_101point": json_number(self.ap_101point),
            "n_gt": self.n_gt,
            "n_det": self.n_det,
            "pr": [
                [json_number(t), json_number(p), json_number(r)] for t, p, r in self.pr.points
            ],
        }
        return json.dumps(doc, separators=(",", ":"), allow_nan=False)


def iou(a: BBox, b: BBox) -> float:
    """Intersection over union of two axis-aligned boxes."""
    if a.w <= 0 or a.h <= 0 or b.w <= 0 or b.h <= 0:
        raise InvalidArgument("iou needs boxes with positive area")
    inter_w = min(a.x2, b.x2) - max(a.x, b.x)
    inter_h = min(a.y2, b.y2) - max(a.y, b.y)
    if inter_w <= 0 or inter_h <= 0:
        return 0.0
    inter = inter_w * inter_h
    return inter / (a.area + b.area - inter)


def match_frame(
    detections: Sequence[Detection],
    gts: Sequence[BBox],
    iou_thr: float = DEFAULT_IOU_THRESHOLD,
) -> list[MatchOutcome]:
    """Greedily match one frame's detections against its ground-truth boxes.

    Detections are processed in descending score, ties broken by input
    order. Each detection takes the still-unmatched ground truth with the
    highest IoU, provided that IoU reaches ``iou_thr``; lower-index ground
    truth wins IoU ties. Outcomes are returned in detection input order.

    Cost: at most D·G box pairs for D detections and G ground-truth boxes,
    far fewer in practice. With ground truth sorted by ``x``, a detection
    spanning ``[dx1, dx2)`` scans only the unmatched boxes whose ``x`` lies
    in ``[dx1 - widest, dx2)``, as no other box overlaps it in x. Each IoU
    is computed with the same float expressions as :func:`iou`, so every
    ``iou_at_match`` equals ``iou(det.box, gt)``.

    Raises:
        InvalidArgument: a detection is processed while some ground truth
            is unmatched, and that detection or an unmatched ground-truth
            box has no positive area (the condition :func:`iou` rejects).
    """
    # The first detection processed scans every ground-truth box.
    if detections and any(b.w <= 0 or b.h <= 0 for b in gts):
        raise InvalidArgument("iou needs boxes with positive area")
    order = sorted(range(len(detections)), key=[-d.score for d in detections].__getitem__)
    corners = sorted(
        ((b.x, b.y, b.x + b.w, b.y + b.h, b.w * b.h, i) for i, b in enumerate(gts)),
        key=itemgetter(0),
    )
    lefts = [c[0] for c in corners]
    # A NaN x leaves ``lefts`` unsorted, so then every box is scanned.
    windowed = not math.isnan(sum(lefts))
    widest = max((b.w for b in gts), default=0.0)
    matched = [False] * len(gts)
    unmatched = len(gts)
    outcomes: list = [None] * len(detections)  # Every slot is filled below.
    for det_index in order:
        best_gt = -1
        best_iou = 0.0
        if unmatched:
            box = detections[det_index].box
            if box.w <= 0 or box.h <= 0:
                raise InvalidArgument("iou needs boxes with positive area")
            dx1, dy1, dx2, dy2, darea = box.x, box.y, box.x + box.w, box.y + box.h, box.w * box.h
            window = corners
            if windowed:
                # One ulp of slack below dx1 - widest, for its rounding.
                start = bisect_left(lefts, math.nextafter(dx1 - widest, -math.inf))
                window = corners[start:bisect_left(lefts, dx2, start)]
            for gx1, gy1, gx2, gy2, garea, gt_index in window:
                if matched[gt_index]:
                    continue
                # min(a.x2, b.x2) - max(a.x, b.x) of iou(), operands in the same order
                inter_w = (gx2 if gx2 < dx2 else dx2) - (gx1 if gx1 > dx1 else dx1)
                if inter_w <= 0:
                    continue
                inter_h = (gy2 if gy2 < dy2 else dy2) - (gy1 if gy1 > dy1 else dy1)
                if inter_h <= 0:
                    continue
                inter = inter_w * inter_h
                overlap = inter / (darea + garea - inter)
                # The window is in x order, so the lower index wins a tie explicitly.
                if overlap >= iou_thr and (
                    overlap > best_iou or (overlap == best_iou and gt_index < best_gt)
                ):
                    best_gt = gt_index
                    best_iou = overlap
        if best_gt >= 0:
            matched[best_gt] = True
            unmatched -= 1
            outcomes[det_index] = MatchOutcome(det_index, best_gt, best_iou)
        else:
            outcomes[det_index] = MatchOutcome(det_index)
    return outcomes


def pr_curve(
    scored_outcomes: Sequence[tuple[float, MatchOutcome]],
    n_gt: int,
    score_floor: float = DEFAULT_SCORE_FLOOR,
) -> PRCurve:
    """Pool per-frame outcomes into one precision-recall curve.

    Outcomes whose score does not exceed ``score_floor`` are discarded (the
    floor is strict). One point is emitted per distinct score, at the end of
    its run, so ties collapse into a single threshold. A recall above 1 raises InvalidArgument.
    """
    if n_gt < 0:
        raise InvalidArgument("n_gt must be non-negative")
    if n_gt == 0:
        return PRCurve(points=(), n_gt=0)
    kept = [pair for pair in scored_outcomes if pair[0] > score_floor]
    kept.sort(key=itemgetter(0), reverse=True)
    points = []
    tp = 0
    # n outcomes read so far, tp of them true: precision tp / n, false positives n - tp.
    for n, (score, outcome) in enumerate(kept, 1):
        tp += outcome.is_tp
        if n == len(kept) or kept[n][0] != score:
            points.append((score, tp / n, tp / n_gt))
    if tp > n_gt:
        raise InvalidArgument(f"{tp} true positives above the floor, more than n_gt {n_gt}")
    return PRCurve(points=tuple(points), n_gt=n_gt)


def average_precision(pr: PRCurve, scheme: str = "allpoint") -> float:
    """Area under the interpolated precision-recall curve.

    ``allpoint`` integrates the precision envelope exactly over recall;
    ``101point`` samples the envelope at recall 0, 0.01, ..., 1.00 and
    averages. An empty curve scores 0. A point whose precision or recall is
    NaN or outside [0, 1] raises InvalidArgument.

    The envelope's precision never rises along the list, so the sample at
    ``r`` is that of the first point reaching ``r``: one sweep finds all 101.
    """
    if scheme not in ("allpoint", "101point"):
        raise InvalidArgument(f"unknown AP scheme {scheme!r}")
    # Each point's recall, and its envelope: the highest precision at it or after it.
    recalls, env, highest = [recall for _, _, recall in pr.points], [], 0.0
    for _, precision, recall in reversed(pr.points):
        if not (0.0 <= precision <= 1.0 and 0.0 <= recall <= 1.0):
            raise InvalidArgument(f"precision {precision!r} or recall {recall!r} is outside [0, 1]")
        env.append(highest := max(highest, precision))
    env.reverse()
    if scheme == "allpoint":
        return math.fsum((r - q) * p for q, r, p in zip([0.0, *recalls], recalls, env))
    samples = []
    k = 0
    for i in range(101):
        r = i / 100
        while k < len(env) and recalls[k] < r:
            k += 1
        samples.append(env[k] if k < len(env) else 0.0)
    return math.fsum(samples) / 101


def evaluate(
    detections: Sequence[Detection],
    ground_truth: Sequence[AnnotatedBox],
    iou_thr: float = DEFAULT_IOU_THRESHOLD,
    score_floor: float = DEFAULT_SCORE_FLOOR,
    frames: Optional[Iterable[tuple[str, int]]] = None,
) -> EvalReport:
    """Score detections against ground truth over all frames.

    ``frames`` is the set of known (video, frame) pairs; it defaults to the
    frames carrying ground truth. Detections on frames outside that set
    raise JoinError; frames with ground truth but no detections still count
    toward n_gt. n_det counts all input detections, before the score floor.
    """
    gt_by_frame: dict[tuple[str, int], list[BBox]] = {key: [] for key in frames or ()}
    for ann in ground_truth:
        gt_by_frame.setdefault((ann.video_id, ann.frame_id), []).append(ann.box)

    det_by_frame: dict[tuple[str, int], list[Detection]] = {}
    for det in detections:
        key = (det.video_id, det.frame_id)
        if key not in gt_by_frame:
            raise JoinError(
                f"detection on ({det.video_id}, {det.frame_id}) has no ground-truth frame"
            )
        det_by_frame.setdefault(key, []).append(det)

    scored: list[tuple[float, MatchOutcome]] = []
    for key in sorted(det_by_frame):
        frame_dets = det_by_frame[key]
        outcomes = match_frame(frame_dets, gt_by_frame[key], iou_thr)
        scored.extend(zip([d.score for d in frame_dets], outcomes))

    n_gt = len(ground_truth)
    pr = pr_curve(scored, n_gt, score_floor)
    return EvalReport(
        ap_allpoint=average_precision(pr, "allpoint"),
        ap_101point=average_precision(pr, "101point"),
        n_gt=n_gt,
        n_det=len(detections),
        pr=pr,
        n_matched=sum(outcome.is_tp for _, outcome in scored),
    )
