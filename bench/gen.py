"""Seeded input generator for the benchmark.

Everything here is a pure function of the seed and the size arguments, and
only the files it writes reach the program under test. Pedestrians walk on a
ground plane in front of a pinhole camera shaped like the JTA camera (1920x1080,
f = 1158 px, mounted 3 m high and pitched 12 degrees down); each one is a
22-joint skeleton in JTA joint order, at 3-90 m from the camera.

Two shares are reported for every generated set, because the program's
off-image skip and its 40 m prune must both fire on a sizeable part of the
input:

* ``offimage_share``: skeletons whose padded box misses the image entirely
  (``synthesize`` skips them);
* ``far_share``: kept pedestrians farther than 40 m (``prune`` drops them).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

IMAGE_W, IMAGE_H = 1920.0, 1080.0
FOCAL_PX = 1158.0
CAM_HEIGHT_M = 3.0
PITCH = math.radians(12.0)
FPS = 30.0
Z_MIN_M, Z_MAX_M = 3.0, 90.0
PRUNE_LIMIT_M = 40.0
# Padding constant in px*m: the ~0.15 m of body the joints miss, times the focal length.
ALPHA = 174.0

# Per joint, in JTA order: lateral offset and height as shares of body height,
# and the forward swing amplitude (legs and arms swing in opposition).
_TEMPLATE = (
    (0.00, 0.97, 0.00),  # head_top
    (0.00, 0.91, 0.00),  # head_center
    (0.00, 0.84, 0.00),  # neck
    (-0.03, 0.82, 0.00),  # right_clavicle
    (-0.11, 0.81, 0.00),  # right_shoulder
    (-0.13, 0.63, -0.06),  # right_elbow
    (-0.13, 0.48, -0.12),  # right_wrist
    (0.03, 0.82, 0.00),  # left_clavicle
    (0.11, 0.81, 0.00),  # left_shoulder
    (0.13, 0.63, 0.06),  # left_elbow
    (0.13, 0.48, 0.12),  # left_wrist
    (0.00, 0.78, 0.00),  # spine0
    (0.00, 0.72, 0.00),  # spine1
    (0.00, 0.66, 0.00),  # spine2
    (0.00, 0.60, 0.00),  # spine3
    (0.00, 0.54, 0.00),  # spine4
    (-0.06, 0.52, 0.00),  # right_hip
    (-0.06, 0.29, 0.10),  # right_knee
    (-0.06, 0.05, 0.20),  # right_ankle
    (0.06, 0.52, 0.00),  # left_hip
    (0.06, 0.29, -0.10),  # left_knee
    (0.06, 0.05, -0.20),  # left_ankle
)


@dataclass(frozen=True)
class Pose:
    """One pedestrian in one frame, as the generator knows it."""

    frame: int
    ped: int
    joints: tuple[tuple[float, float, float, float, float], ...]  # x2d, y2d, x3d, y3d, z3d
    distance_m: float
    box: tuple[float, float, float, float] | None  # clamped padded box, None if off-image


@dataclass(frozen=True)
class Shares:
    skeletons: int
    offimage: int
    kept: int
    far: int

    @property
    def offimage_share(self) -> float:
        return self.offimage / self.skeletons

    @property
    def far_share(self) -> float:
        return self.far / self.kept if self.kept else 0.0


def _reflect(z: float) -> float:
    while not Z_MIN_M <= z <= Z_MAX_M:
        z = 2 * Z_MIN_M - z if z < Z_MIN_M else 2 * Z_MAX_M - z
    return z


def _padded_clamped_box(joints, dist: float) -> tuple[float, float, float, float] | None:
    """The program's box rule, redone here to know which skeletons fall off-image."""
    xs = [j[0] for j in joints]
    ys = [j[1] for j in joints]
    x1, y1, w, h = min(xs), min(ys), max(xs) - min(xs), max(ys) - min(ys)
    h_pad = h + ALPHA / dist
    w_pad = h_pad * w / h
    bx1 = x1 - (w_pad - w) / 2
    by1 = y1 - (h_pad - h) / 2
    cx1, cy1 = max(bx1, 0.0), max(by1, 0.0)
    cx2, cy2 = min(bx1 + w_pad, IMAGE_W), min(by1 + h_pad, IMAGE_H)
    if cx2 - cx1 <= 0 or cy2 - cy1 <= 0:
        return None
    return (cx1, cy1, cx2 - cx1, cy2 - cy1)


def _walk(walker: dict, frames: int) -> list[tuple]:
    """(joints, distance, box) of one walker in each frame."""
    cos_p, sin_p = math.cos(PITCH), math.sin(PITCH)
    ux, uz = math.cos(walker["heading"]), math.sin(walker["heading"])
    height = walker["height"]
    track = []
    for frame in range(1, frames + 1):
        t = (frame - 1) / FPS
        gz = _reflect(walker["z0"] + walker["speed"] * uz * t)
        gx = walker["lateral"] * walker["z0"] + walker["speed"] * ux * t
        swing = math.sin(walker["phase"] + 2 * math.pi * 0.9 * walker["speed"] * t)
        joints = []
        for lateral, up, amp in _TEMPLATE:
            fwd = amp * height * swing
            lat = lateral * height
            x = gx + lat * uz + fwd * ux
            z = gz - lat * ux + fwd * uz
            y_down = CAM_HEIGHT_M - up * height
            yc = y_down * cos_p - z * sin_p
            zc = y_down * sin_p + z * cos_p
            joints.append((FOCAL_PX * x / zc + IMAGE_W / 2, FOCAL_PX * yc / zc + IMAGE_H / 2, x, yc, zc))
        dist = math.hypot(*(sum(j[k] for j in joints) / len(joints) for k in (2, 3, 4)))
        track.append((tuple(joints), dist, _padded_clamped_box(joints, dist)))
    return track


def simulate(
    rng: random.Random, frames: int, peds: int, spread: float, in_view: bool = False
) -> list[Pose]:
    """Walk ``peds`` pedestrians for ``frames`` frames; poses in (frame, ped) order.

    ``spread`` is the lateral start range as a multiple of depth; the image
    covers about 0.83, so larger values put more pedestrians off-image.
    Depth, heading and lateral start are stratified across the walkers, so
    the work an input makes varies little from seed to seed. With
    ``in_view`` a walker is drawn again, at the same depth, until it stays
    on the image in every frame.
    """

    def strata() -> list[float]:
        values = [(i + rng.random()) / peds for i in range(peds)]
        rng.shuffle(values)
        return values

    log_near, log_far = math.log(Z_MIN_M + 0.5), math.log(Z_MAX_M - 2.0)
    tracks = []
    for u_depth, u_heading, u_lateral in zip(strata(), strata(), strata()):
        while True:
            walker = dict(
                height=rng.gauss(1.72, 0.08),
                z0=math.exp(log_near + u_depth * (log_far - log_near)),
                heading=2 * math.pi * u_heading,
                speed=rng.uniform(0.8, 1.8),
                phase=rng.uniform(0.0, 2 * math.pi),
                lateral=spread * (2 * u_lateral - 1),
            )
            track = _walk(walker, frames)
            if not in_view or all(box is not None for _, _, box in track):
                break
            u_heading, u_lateral = rng.random(), rng.random()
        tracks.append(track)
    return [
        Pose(frame, ped, *tracks[ped - 1][frame - 1])
        for frame in range(1, frames + 1)
        for ped in range(1, peds + 1)
    ]


def shares(poses: list[Pose]) -> Shares:
    kept = [p for p in poses if p.box is not None]
    return Shares(
        skeletons=len(poses),
        offimage=len(poses) - len(kept),
        kept=len(kept),
        far=sum(1 for p in kept if p.distance_m > PRUNE_LIMIT_M),
    )


def jta_text(rng: random.Random, poses: list[Pose]) -> str:
    """JTA dump: one [frame, ped, joint, x2d, y2d, x3d, y3d, z3d, occluded, self_occluded] per joint."""
    records = []
    for p in poses:
        for joint_id, (x2d, y2d, x3d, y3d, z3d) in enumerate(p.joints):
            records.append(
                [p.frame, p.ped, joint_id, x2d, y2d, x3d, y3d, z3d,
                 int(rng.random() < 0.2), int(rng.random() < 0.1)]
            )
    return json.dumps(records)


def _image_ids(videos: list[tuple[str, int]]) -> dict[tuple[str, int], int]:
    ids = {}
    for video, frames in sorted(videos):
        for frame in range(1, frames + 1):
            ids[(video, frame)] = len(ids) + 1
    return ids


def coco_text(videos: dict[str, tuple[int, list[Pose]]]) -> str:
    """COCO ground truth with ``pedestrian_id`` and ``distance_m`` per annotation.

    Image ids run from 1 over (video, frame) in sorted order, the same
    numbering the program gives every document it writes, so detections made
    against this file also fit the program's pruned copy of it.
    """
    image_ids = _image_ids([(v, n) for v, (n, _) in videos.items()])
    images = [
        {"id": i, "width": 1920, "height": 1080, "file_name": f"{v}/{f:06d}.jpg"}
        for (v, f), i in image_ids.items()
    ]
    annotations = []
    for video, (_, poses) in sorted(videos.items()):
        for p in poses:
            if p.box is None:
                continue
            x, y, w, h = p.box
            annotations.append(
                {
                    "id": len(annotations) + 1,
                    "image_id": image_ids[(video, p.frame)],
                    "category_id": 1,
                    "bbox": [x, y, w, h],
                    "area": w * h,
                    "iscrowd": 0,
                    "pedestrian_id": p.ped,
                    "distance_m": p.distance_m,
                }
            )
    doc = {
        "info": {
            "dataset_id": "bench",
            "image_w": 1920,
            "image_h": 1080,
            "videos": [[v, n] for v, (n, _) in sorted(videos.items())],
        },
        "images": images,
        "annotations": annotations,
        "categories": [{"id": 1, "name": "pedestrian"}],
    }
    return json.dumps(doc, separators=(",", ":"))


def detections_text(
    rng: random.Random,
    videos: dict[str, tuple[int, list[Pose]]],
    found: float,
    fp_per_frame: int,
    max_distance_m: float = math.inf,
) -> str:
    """``coco_results`` detections: jittered hits on ground truth plus false positives.

    Hit scores spread over (0.03, 1) and false-positive scores over [0, 0.2),
    so a share of both falls at or below the 0.05 score floor.
    """
    image_ids = _image_ids([(v, n) for v, (n, _) in videos.items()])
    sizes = []
    records = []
    for video, (frames, poses) in sorted(videos.items()):
        for p in poses:
            if p.box is None or p.distance_m > max_distance_m:
                continue
            x, y, w, h = p.box
            sizes.append((w, h))
            if rng.random() >= found:
                continue
            scale = math.exp(rng.gauss(0.0, 0.05))
            records.append(
                {
                    "image_id": image_ids[(video, p.frame)],
                    "category_id": 1,
                    "bbox": [x + rng.gauss(0.0, 0.05) * w, y + rng.gauss(0.0, 0.05) * h,
                             w * scale, h * scale],
                    "score": round(rng.uniform(0.03, 1.0), 4),
                }
            )
        for frame in range(1, frames + 1):
            for _ in range(fp_per_frame):
                w, h = rng.choice(sizes) if sizes else (40.0, 100.0)
                records.append(
                    {
                        "image_id": image_ids[(video, frame)],
                        "category_id": 1,
                        "bbox": [rng.uniform(0.0, IMAGE_W - w), rng.uniform(0.0, IMAGE_H - h), w, h],
                        "score": round(rng.uniform(0.0, 0.2), 4),
                    }
                )
    rng.shuffle(records)
    return json.dumps(records)


def calibration_csv(rng: random.Random, rows: int) -> str:
    """Measured heights that follow the padding model, with noise that keeps h_true > h_s."""
    lines = ["h_s_px,z_m,h_true_px"]
    for _ in range(rows):
        z = rng.uniform(4.0, 60.0)
        h_s = rng.uniform(0.85, 0.95) * 1.72 * FOCAL_PX / z
        h_true = h_s + ALPHA / z + rng.gauss(0.0, 0.5)
        lines.append(f"{h_s!r},{z!r},{max(h_true, h_s + 0.01)!r}")
    return "\n".join(lines) + "\n"


# Sizes per workload; the smoke test passes smaller ones.
SIZES = {
    "build": dict(frames=300, peds=30),
    "score": dict(frames=150, peds=80, fp_per_frame=40),
    "curate": dict(videos=3, frames=120, peds=25, fp_per_frame=5, calibration_rows=200),
}


def generate(workload: str, seed: int, out_dir: Path, sizes: dict | None = None) -> dict:
    """Write the inputs of one workload into ``out_dir``; return their description.

    The description holds the input paths, the generated skeleton count and
    the off-image and far shares.
    """
    size = SIZES[workload] if sizes is None else sizes
    rng = random.Random(f"skel2box-bench/{workload}/{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    info: dict = {}
    if workload == "build":
        poses = simulate(rng, size["frames"], size["peds"], spread=1.4)
        path = out_dir / "seq.json"
        path.write_text(jta_text(rng, poses), encoding="utf-8")
        info.update(jta=str(path), shares=shares(poses))
    elif workload == "score":
        poses = simulate(rng, size["frames"], size["peds"], spread=0.75, in_view=True)
        videos = {"crowd": (size["frames"], poses)}
        gt, det = out_dir / "gt.json", out_dir / "det.json"
        gt.write_text(coco_text(videos), encoding="utf-8")
        det.write_text(detections_text(rng, videos, 0.85, size["fp_per_frame"]), encoding="utf-8")
        info.update(gt=str(gt), det=str(det), shares=shares(poses))
    elif workload == "curate":
        videos = {
            f"seq_{v:02d}": (
                size["frames"],
                simulate(rng, size["frames"], size["peds"], spread=1.0, in_view=True),
            )
            for v in range(1, size["videos"] + 1)
        }
        gt, det, csv_path = out_dir / "gt.json", out_dir / "det.json", out_dir / "heights.csv"
        gt.write_text(coco_text(videos), encoding="utf-8")
        det.write_text(
            detections_text(rng, videos, 0.9, size["fp_per_frame"], max_distance_m=PRUNE_LIMIT_M),
            encoding="utf-8",
        )
        csv_path.write_text(calibration_csv(rng, size["calibration_rows"]), encoding="utf-8")
        info.update(
            gt=str(gt), det=str(det), samples=str(csv_path), videos=sorted(videos),
            shares=shares([p for _, poses in videos.values() for p in poses]),
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return info
