"""skel2box: detection ground truth from skeletal pose annotations.

Turns per-joint pedestrian skeletons into distance-aware bounding boxes,
calibrates the padding constant from measured heights, prunes far-away
annotations, converts between COCO and MOT files, scores detections with
precision-recall and average precision, and lays out deterministic
training schedules that mix synthetic and real data.

Importing the package loads none of its modules: each name of ``__all__``
is imported from its module when it is first used (PEP 562).
"""

import importlib
import sys

__version__ = "0.1.0"

# Defaults, the number rule and the rule of each setting, which the library modules
# and the command line share. They live here, which every import of the package runs,
# so the command line can check its settings without loading the modules that use them.
DEFAULT_JOINTS_PER_SKELETON = 22
DEFAULT_DISTANCE_LIMIT_M = 40.0
DEFAULT_IOU_THRESHOLD = 0.5
DEFAULT_SCORE_FLOOR = 0.05
DEFAULT_RATIO = (2, 1)


def is_finite_number(value: object) -> bool:
    """True for an ``int`` or ``float`` within float range: not a bool, NaN or infinity."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


# Each setting, in PipelineConfig's field order: the test of its range, and the words refusing it.
SETTING_RANGES = {
    "image_w": (lambda v: v > 0, "image dimensions must be positive"),
    "image_h": (lambda v: v > 0, "image dimensions must be positive"),
    "joints_per_skeleton": (lambda v: v > 0, "joints_per_skeleton must be positive"),
    "alpha": (lambda v: v >= 0, "alpha must be at least 0"),
    "distance_limit_m": (lambda v: v > 0, "distance_limit_m must be positive"),
    "score_floor": (lambda v: 0 <= v < 1, "score_floor must lie in [0, 1)"),
    "iou_thr": (lambda v: 0 < v <= 1, "iou_thr must lie in (0, 1]"),
}


def check_setting(name: str, value: object, error: type[Exception]) -> object:
    """``value``, if it keeps the rule of the setting ``name``; else raises ``error``."""
    if name == "joints_per_skeleton" and type(value) is not int:
        raise error(f"{name} must be an integer, got {value!r}")
    if not is_finite_number(value):
        raise error(f"{name} must be a finite number, got {value!r}")
    in_range, words = SETTING_RANGES[name]
    if not in_range(value):
        raise error(words)
    return value


_NAMES_BY_MODULE = {
    "calibration": "CalibrationResult CalibrationSample fit_alpha load_calibration_samples",
    "errors": (
        "EmptyInput IncompleteSkeleton InvalidArgument InvalidConfig JoinError MixedVideos "
        "ParseError Skel2BoxError"
    ),
    "evaluation": (
        "EvalReport MatchOutcome PRCurve average_precision evaluate iou match_frame pr_curve"
    ),
    "formats": (
        "CocoGroundTruth DatasetManifest Detection FrameRef emit_coco emit_detections emit_mot "
        "manifest_for_annotations parse_coco_gt parse_detections parse_jta parse_mot_gt"
    ),
    "geometry": (
        "AnnotatedBox BBox SkeletonInstance SynthesisResult camera_distance clamp_to_image "
        "pad_box skeleton_enclosing_box synthesize_annotations"
    ),
    "sanitize": "DistanceHistogram derive_distance_limit distance_histogram prune_by_distance",
    "training_plan": (
        "BatchPlan FineTunePlan MixConfig parse_plan plan_finetune plan_mixed_batches "
        "serialize_plan"
    ),
}
_MODULE_OF = {name: module for module, names in _NAMES_BY_MODULE.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MODULE_OF.keys())
