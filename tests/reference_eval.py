"""Independent reference evaluator used as an oracle by the tests.

Implements the same conventions as skel2box.evaluation (greedy score-ordered
matching, strict score floor, envelope AP) with deliberately different code
structure: explicit corner arithmetic, quadratic suffix scans, dict grouping.
Used only for comparison; never imported by the package.
"""

import math


def ref_iou(a, b):
    ax1, ay1, ax2, ay2 = a.x, a.y, a.x + a.w, a.y + a.h
    bx1, by1, bx2, by2 = b.x, b.y, b.x + b.w, b.y + b.h
    ix1 = ax1 if ax1 > bx1 else bx1
    iy1 = ay1 if ay1 > by1 else by1
    ix2 = ax2 if ax2 < bx2 else bx2
    iy2 = ay2 if ay2 < by2 else by2
    if ix2 - ix1 <= 0 or iy2 - iy1 <= 0:
        return 0.0
    inter = (ix2 - ix1) * (iy2 - iy1)
    union = (ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter
    return inter / union


def ref_match(detections, gt_boxes, iou_thr):
    """Matched ground-truth index per detection (input order), or None."""
    processing_order = sorted(range(len(detections)), key=lambda i: (-detections[i].score, i))
    used = [False] * len(gt_boxes)
    matched = [None] * len(detections)
    for det_index in processing_order:
        best_gt = -1
        best_iou = -1.0
        for gt_index in range(len(gt_boxes)):
            if used[gt_index]:
                continue
            value = ref_iou(detections[det_index].box, gt_boxes[gt_index])
            if value >= iou_thr and value > best_iou:
                best_gt = gt_index
                best_iou = value
        if best_gt >= 0:
            used[best_gt] = True
            matched[det_index] = best_gt
    return matched


def ref_pr_points(scored_flags, n_gt, score_floor):
    """(threshold, precision, recall) per distinct score, descending."""
    if n_gt == 0:
        return []
    rows = [(s, flag) for s, flag in scored_flags if s > score_floor]
    rows.sort(key=lambda row: -row[0])
    points = []
    tp = fp = 0
    for i, (score, flag) in enumerate(rows):
        if flag:
            tp += 1
        else:
            fp += 1
        if i == len(rows) - 1 or rows[i + 1][0] != score:
            points.append((score, tp / (tp + fp), tp / n_gt))
    return points


def ref_ap_allpoint(points):
    if not points:
        return 0.0
    n = len(points)
    terms = []
    previous_recall = 0.0
    for i in range(n):
        recall = points[i][2]
        envelope = max(points[j][1] for j in range(i, n))
        terms.append((recall - previous_recall) * envelope)
        previous_recall = recall
    return math.fsum(terms)


def ref_ap_101point(points):
    if not points:
        return 0.0
    n = len(points)
    samples = []
    for i in range(101):
        r = i / 100
        reachable = [points[j][1] for j in range(n) if points[j][2] >= r]
        if reachable:
            best = reachable[0]
            for value in reachable[1:]:
                if value > best:
                    best = value
            samples.append(best)
        else:
            samples.append(0.0)
    return math.fsum(samples) / 101


def ref_evaluate(detections, ground_truth, frames, iou_thr, score_floor):
    """Full pipeline mirror; returns a plain dict."""
    gt_boxes = {}
    for key in frames:
        gt_boxes[key] = []
    for ann in ground_truth:
        gt_boxes.setdefault((ann.video_id, ann.frame_id), []).append(ann.box)
    dets_by_frame = {}
    for det in detections:
        key = (det.video_id, det.frame_id)
        if key not in gt_boxes:
            raise KeyError(key)
        dets_by_frame.setdefault(key, []).append(det)

    scored_flags = []
    for key in sorted(dets_by_frame):
        frame_dets = dets_by_frame[key]
        matched = ref_match(frame_dets, gt_boxes[key], iou_thr)
        for det, gt in zip(frame_dets, matched):
            scored_flags.append((det.score, gt is not None))

    points = ref_pr_points(scored_flags, len(ground_truth), score_floor)
    return {
        "ap_allpoint": ref_ap_allpoint(points),
        "ap_101point": ref_ap_101point(points),
        "n_gt": len(ground_truth),
        "n_det": len(detections),
        "points": points,
    }
