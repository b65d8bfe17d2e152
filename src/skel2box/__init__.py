"""skel2box: detection ground truth from skeletal pose annotations.

Turns per-joint pedestrian skeletons into distance-aware bounding boxes,
calibrates the padding constant from measured heights, prunes far-away
annotations, converts between COCO and MOT files, scores detections with
precision-recall and average precision, and lays out deterministic
training schedules that mix synthetic and real data.
"""

from .calibration import (
    CalibrationResult,
    CalibrationSample,
    fit_alpha,
    load_calibration_samples,
)
from .errors import (
    EmptyInput,
    IncompleteSkeleton,
    InvalidArgument,
    InvalidConfig,
    JoinError,
    MixedVideos,
    ParseError,
    Skel2BoxError,
)
from .evaluation import (
    EvalReport,
    MatchOutcome,
    PRCurve,
    average_precision,
    evaluate,
    iou,
    match_frame,
    pr_curve,
)
from .formats import (
    CocoGroundTruth,
    DatasetManifest,
    Detection,
    FrameRef,
    emit_coco,
    emit_detections,
    emit_mot,
    manifest_for_annotations,
    parse_coco_gt,
    parse_detections,
    parse_jta,
    parse_mot_gt,
)
from .geometry import (
    AnnotatedBox,
    BBox,
    SkeletonInstance,
    SynthesisResult,
    camera_distance,
    clamp_to_image,
    pad_box,
    skeleton_enclosing_box,
    synthesize_annotations,
)
from .sanitize import (
    DistanceHistogram,
    derive_distance_limit,
    distance_histogram,
    prune_by_distance,
)
from .training_plan import (
    BatchPlan,
    FineTunePlan,
    MixConfig,
    parse_plan,
    plan_finetune,
    plan_mixed_batches,
    serialize_plan,
)

__version__ = "0.1.0"

__all__ = [
    "AnnotatedBox",
    "BBox",
    "BatchPlan",
    "CalibrationResult",
    "CalibrationSample",
    "CocoGroundTruth",
    "DatasetManifest",
    "Detection",
    "DistanceHistogram",
    "EmptyInput",
    "EvalReport",
    "FineTunePlan",
    "FrameRef",
    "IncompleteSkeleton",
    "InvalidArgument",
    "InvalidConfig",
    "JoinError",
    "MatchOutcome",
    "MixConfig",
    "MixedVideos",
    "PRCurve",
    "ParseError",
    "Skel2BoxError",
    "SkeletonInstance",
    "SynthesisResult",
    "average_precision",
    "camera_distance",
    "clamp_to_image",
    "derive_distance_limit",
    "distance_histogram",
    "emit_coco",
    "emit_detections",
    "emit_mot",
    "evaluate",
    "fit_alpha",
    "iou",
    "load_calibration_samples",
    "manifest_for_annotations",
    "match_frame",
    "pad_box",
    "parse_coco_gt",
    "parse_detections",
    "parse_jta",
    "parse_mot_gt",
    "parse_plan",
    "plan_finetune",
    "plan_mixed_batches",
    "pr_curve",
    "prune_by_distance",
    "serialize_plan",
    "skeleton_enclosing_box",
    "synthesize_annotations",
]
