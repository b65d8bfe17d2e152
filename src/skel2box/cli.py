"""Command-line front door for the annotation pipeline.

Subcommands: calibrate, synthesize, histogram, prune, distance-limit,
convert, evaluate, plan-batches, plan-finetune. Every run prints a one-line
JSON summary on stdout. A handler returns its summary and its outputs, each
text not yet made, and ``run`` writes a command's files all together or not
at all: a run that fails before its renames leaves no file and replaces
none. Each handler imports the package modules it calls, so a run loads
only those, and ``--help`` none but ``errors``.

Exit codes: 0 success, 1 usage error, 2 data error (parse or validation
failures, reported on stderr with file and record locations).
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import gc
import json
import os
import resource
import sys
import tempfile
from contextlib import contextmanager, suppress
from functools import partial
from pathlib import Path
from typing import Any, Callable, Optional, Sequence, TypeVar

from . import (
    DEFAULT_DISTANCE_LIMIT_M,
    DEFAULT_IOU_THRESHOLD,
    DEFAULT_JOINTS_PER_SKELETON,
    DEFAULT_RATIO,
    DEFAULT_SCORE_FLOOR,
    SETTING_RANGES,
    check_setting,
)
from .errors import InvalidConfig, JoinError, MixedVideos, ParseError, Skel2BoxError

DEFAULT_IMAGE_W = 1920.0
DEFAULT_IMAGE_H = 1080.0

_T = TypeVar("_T")
# Summary key of each output -> (its path, or None when not asked for; the maker of its text)
_Outputs = dict[str, tuple[Optional[str], Callable[[], str]]]


@dataclasses.dataclass(frozen=True)
class PipelineConfig:
    """Numeric settings of the pipeline; each subcommand reads a few.

    Resolution order: command-line flag, then (for ``alpha``) the
    ``--alpha-file`` calibration, then the JSON config file, then the
    defaults below.
    """

    image_w: float = DEFAULT_IMAGE_W
    image_h: float = DEFAULT_IMAGE_H
    joints_per_skeleton: int = DEFAULT_JOINTS_PER_SKELETON
    alpha: Optional[float] = None
    distance_limit_m: float = DEFAULT_DISTANCE_LIMIT_M
    score_floor: float = DEFAULT_SCORE_FLOOR
    iou_thr: float = DEFAULT_IOU_THRESHOLD

    def validate(self) -> "PipelineConfig":
        """Check each field, whatever its source, in field order; an unset alpha passes."""
        for name in SETTING_RANGES:
            if not (name == "alpha" and self.alpha is None):
                check_setting(name, getattr(self, name), InvalidConfig)
        return self


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting the process."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(f"{message}\n{self.format_usage()}".rstrip())


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    values: dict[str, Any] = {}
    config_path = getattr(args, "config", None)
    if config_path:
        from . import formats
        doc = _parse_file(config_path, formats.load_json)
        if not isinstance(doc, dict):
            raise InvalidConfig(f"{config_path}: config file must hold a JSON object")
        unknown = sorted(set(doc) - SETTING_RANGES.keys())
        if unknown:
            raise InvalidConfig(f"{config_path}: unknown config keys {unknown}")
        values.update(doc)
    alpha_file = getattr(args, "alpha_file", None)
    if alpha_file and args.alpha is None:
        from . import calibration
        values["alpha"] = _parse_file(alpha_file, calibration.CalibrationResult.from_json).alpha
    for field in SETTING_RANGES:
        flag_value = getattr(args, field, None)
        if flag_value is not None:
            values[field] = flag_value
    return PipelineConfig(**values).validate()


def _write_outputs(outputs: _Outputs) -> None:
    """Write every output whose path is given, all or none. Each text is made
    in turn and written to a temporary file beside its target, and no target
    is replaced until all are written; a failure removes every temporary file.
    Before anything is written, a target that is empty, a directory or ends in
    a separator is refused as ``open`` refuses it, and two on one file as a
    usage error. A file ends with a newline, written apart so the text is never
    copied, and gets the mode a plain ``open`` gives, not the 0o600 of mkstemp."""
    given = [(path, make) for path, make in outputs.values() if path is not None]
    if taken := [p for p, _ in given if not p or p.endswith(os.sep) or os.path.isdir(p)]:
        code = errno.EISDIR if taken[0] else errno.ENOENT  # As open("") refuses "".
        raise OSError(code, os.strerror(code), taken[0])
    files = [os.path.realpath(path) for path, _ in given]
    if twice := [path for (path, _), file in zip(given, files) if files.count(file) > 1]:
        raise _UsageError(f"two outputs are one file: {twice[0]!r} and {twice[1]!r}")
    os.umask(umask := os.umask(0))  # Read the umask, and put it back.
    temporaries: list[str] = []
    try:
        for path, make in given:
            target = Path(path)
            fd, tmp_name = tempfile.mkstemp(dir=str(target.parent), prefix=target.name + ".")
            temporaries.append(tmp_name)
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                os.chmod(tmp_name, 0o666 & ~umask)
                text = make()
                fh.write(text)
                if not text.endswith("\n"):
                    fh.write("\n")
                del text
        for tmp_name, (path, _) in zip(temporaries, given):
            os.replace(tmp_name, Path(path))
    except BaseException as exc:
        for tmp_name in temporaries:
            with suppress(OSError):
                os.unlink(tmp_name)
        if isinstance(exc, OSError):  # Named by the path as given, not by mkstemp's random name.
            raise type(exc)(exc.errno, exc.strerror, path) from exc
        raise


@contextmanager
def _reading(source: str):
    """Prefix data errors with the file or flag they came from. Input files are
    read as UTF-8 inside it, and a byte that does not decode is a data error
    located by its offset in the file."""
    try:
        yield
    except UnicodeDecodeError as exc:
        where = f"byte {exc.start}"
        raise ParseError(f"{source}: not UTF-8 text ({exc.reason})", location=where) from None
    except Skel2BoxError as exc:
        exc.args = (f"{source}: {exc}",)
        raise


def _parse_file(
    path: str, parse: Callable[..., _T], *args: Any, stream: bool = False, **kwargs: Any
) -> _T:
    """``parse`` of the text of ``path``, or with ``stream`` of the file, unless it is a pipe."""
    with _reading(path), Path(path).open(encoding="utf-8") as file:
        return parse(file if stream and file.seekable() else file.read(), *args, **kwargs)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_calibrate(args: argparse.Namespace, config: PipelineConfig) -> tuple[dict, _Outputs]:
    from . import calibration
    samples = _parse_file(args.samples, calibration.load_calibration_samples)
    with _reading(args.samples):
        result = calibration.fit_alpha(samples)
    return dataclasses.asdict(result), {"out": (args.out, result.to_json)}


def _cmd_synthesize(args: argparse.Namespace, config: PipelineConfig) -> tuple[dict, _Outputs]:
    from . import formats, geometry
    if config.alpha is None:
        raise _UsageError("an alpha value is required (--alpha, --alpha-file, or config file)")
    video_id = args.video_id or Path(args.jta).stem
    # A stream, so that parse_jta never holds the whole text.
    with _reading(args.jta), Path(args.jta).open(encoding="utf-8") as dump:
        skeletons = formats.parse_jta(dump, video_id, config.joints_per_skeleton)
    result = geometry.synthesize_annotations(
        skeletons,
        alpha=config.alpha,
        image_w=config.image_w,
        image_h=config.image_h,
        clamp=not args.no_clamp,
    )
    with _reading(args.jta):
        manifest = formats.manifest_for_annotations(
            skeletons,
            dataset_id=args.dataset_id or video_id,
            image_w=config.image_w,
            image_h=config.image_h,
            alpha_used=config.alpha,
        )
    return {
        "video_id": video_id,
        "alpha": config.alpha,
        # Every record of a dump that parses belongs to a complete skeleton.
        "n_records": len(skeletons) * config.joints_per_skeleton,
        "n_skeletons": len(skeletons),
        "n_annotations": len(result.annotations),
        "n_skipped": result.skipped_count,
        "n_skipped_by_cause": dict(result.skipped_by_cause),
    }, {
        "out_coco": (args.out_coco, partial(formats.emit_coco, result.annotations, manifest)),
        "out_mot": (args.out_mot, partial(formats.emit_mot, result.annotations)),
    }


def _cmd_histogram(args: argparse.Namespace, config: PipelineConfig) -> tuple[dict, _Outputs]:
    from . import formats, sanitize
    with _reading("--bin-width"):
        sanitize.check_bin_width(args.bin_width)
    gt = _parse_file(args.gt, formats.parse_coco_gt, stream=True)
    with _reading(args.gt):
        hist = sanitize.distance_histogram(gt.annotations, bin_width_m=args.bin_width)
    return {
        "n_annotations": len(gt.annotations),
        "bin_width_m": args.bin_width,
        "n_bins": len(hist.counts),
    }, {"out": (args.out, hist.to_csv)}


def _cmd_prune(args: argparse.Namespace, config: PipelineConfig) -> tuple[dict, _Outputs]:
    from . import formats, sanitize
    gt = _parse_file(args.gt, formats.parse_coco_gt, stream=True)
    with _reading(args.gt):
        kept, pruned = sanitize.prune_by_distance(gt.annotations, limit_m=config.distance_limit_m)
    manifest = dataclasses.replace(gt.manifest, distance_limit_m=config.distance_limit_m)
    summary = {"distance_limit_m": config.distance_limit_m, "kept": len(kept), "pruned": pruned}
    return summary, {"out": (args.out, partial(formats.emit_coco, kept, manifest))}


def _cmd_distance_limit(args: argparse.Namespace, config: PipelineConfig) -> tuple[dict, _Outputs]:
    from . import formats, sanitize
    with _reading("--bin-width"):
        sanitize.check_bin_width(args.bin_width)
    with _reading("--h-min"):
        sanitize.check_height_floor(args.h_min)
    gt = _parse_file(args.gt, formats.parse_coco_gt, stream=True)
    with _reading(args.gt):
        limit = sanitize.derive_distance_limit(
            gt.annotations,
            h_min_px=args.h_min,
            bin_width_m=args.bin_width,
            min_bin_count=args.min_bin_count,
        )
    summary = {"h_min_px": args.h_min, "distance_limit_m": limit}
    return summary, {"out": (args.out, partial(json.dumps, {"distance_limit_m": limit}))}


def _cmd_convert(args: argparse.Namespace, config: PipelineConfig) -> tuple[dict, _Outputs]:
    from . import formats
    if args.from_fmt == "coco":
        gt = _parse_file(args.infile, formats.parse_coco_gt, stream=True)
        annotations, manifest, skipped = list(gt.annotations), gt.manifest, gt.skipped_count
        if args.to_fmt == "mot" and args.video_id:
            videos = sorted(name for name, _ in manifest.videos)
            if args.video_id not in videos:
                raise JoinError(f"{args.infile}: holds videos {videos}, not {args.video_id!r}")
            annotations = [a for a in annotations if a.video_id == args.video_id]
    else:
        if not args.video_id:
            raise _UsageError("--video-id is required when converting from MOT input")
        annotations, skipped = _parse_file(args.infile, formats.parse_mot_gt, args.video_id)
    if args.to_fmt == "coco":
        if args.from_fmt == "mot":
            with _reading(args.infile):
                manifest = formats.manifest_for_annotations(
                    annotations,
                    dataset_id=args.dataset_id or args.video_id,
                    image_w=config.image_w,
                    image_h=config.image_h,
                )
        text = partial(formats.emit_coco, annotations, manifest)
    else:
        videos = sorted({a.video_id for a in annotations})
        if len(videos) > 1:
            raise MixedVideos(f"{args.infile}: holds videos {videos}; pick one with --video-id")
        text = partial(formats.emit_mot, annotations)
    return {
        "from": args.from_fmt,
        "to": args.to_fmt,
        "n_annotations": len(annotations),
        "n_skipped": skipped,
    }, {"out": (args.out, text)}


def _cmd_evaluate(args: argparse.Namespace, config: PipelineConfig) -> tuple[dict, _Outputs]:
    from . import evaluation, formats
    if args.det_format == "mot_det" and not args.video_id:
        raise _UsageError("--video-id is required with --det-format mot_det")
    gt = _parse_file(args.gt, formats.parse_coco_gt, stream=True)
    # Unnamed here, so that evaluate frees each frame's detections once matched.
    report = evaluation.evaluate(
        _parse_file(
            args.det, formats.parse_detections, args.det_format, video_id=args.video_id,
            stream=args.det_format == "coco_results", frame_of_image=gt.frame_by_image_id()),
        gt.annotations,
        iou_thr=config.iou_thr,
        score_floor=config.score_floor,
        frames=[(ref.video_id, ref.frame_id) for ref in gt.images],
    )
    return {
        "ap_allpoint": report.ap_allpoint,
        "ap_101point": report.ap_101point,
        "n_gt": report.n_gt,
        "n_det": report.n_det,
        "n_matched": report.n_matched,
        "n_floor_dropped": report.n_floor_dropped,
    }, {"out": (args.out, report.to_json)}


def _cmd_plan_batches(args: argparse.Namespace, config: PipelineConfig) -> tuple[dict, _Outputs]:
    from . import training_plan
    fields = dataclasses.fields(training_plan.MixConfig)
    mix = training_plan.MixConfig(**{field.name: getattr(args, field.name) for field in fields})
    plan = training_plan.plan_mixed_batches(mix)
    return {
        "epochs": mix.epochs,
        "batches_per_epoch": len(plan.epochs[0]) if plan.epochs else 0,
        "batch_size": mix.batch_size,
        "ratio": list(mix.ratio),
    }, {"out": (args.out, partial(training_plan.serialize_plan, plan))}


def _cmd_plan_finetune(args: argparse.Namespace, config: PipelineConfig) -> tuple[dict, _Outputs]:
    from . import training_plan
    plan = training_plan.plan_finetune(args.phase1_epochs, args.phase2_epochs)
    summary = {"phase1_epochs": plan.phase1_epochs, "phase2_epochs": plan.phase2_epochs}
    return summary, {"out": (args.out, partial(training_plan.serialize_plan, plan))}


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def _ratio(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"ratio must look like '2,1', got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _build_parser(argv: Sequence[str]) -> _Parser:
    """The parser of the command line ``argv``. Every subcommand is listed,
    but only those that ``argv`` names get their arguments, as no other is
    parsed."""
    parser = _Parser(prog="skel2box", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler: Callable, help: str, *settings: str) -> Optional[_Parser]:
        """Subcommand ``name``, or None unless ``argv`` names it. With ``settings``, the
        PipelineConfig fields it reads, it takes ``--config`` and one flag per field: the
        field name dashed, ``distance_limit_m`` without its unit (``--distance-limit``)."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        if name not in argv:
            return None
        if settings:
            p.add_argument("--config", help="JSON file with PipelineConfig overrides")
        for field in settings:
            flag = "--" + field.removesuffix("_m").replace("_", "-")
            p.add_argument(flag, dest=field, type=int if field == "joints_per_skeleton" else float)
        return p

    if p := add("calibrate", _cmd_calibrate, "fit alpha from height samples"):
        p.add_argument("--samples", required=True, help="CSV of h_s_px,z_m,h_true_px rows")
        p.add_argument("--out", help="where to write the calibration JSON")

    if p := add(
        "synthesize", _cmd_synthesize, "skeletons to detection boxes",
        "image_w", "image_h", "joints_per_skeleton", "alpha",
    ):
        p.add_argument("--jta", required=True, help="JTA-style JSON joint dump")
        p.add_argument("--video-id", help="video id (default: input file stem)")
        p.add_argument("--alpha-file", help="calibration JSON produced by 'calibrate'")
        p.add_argument("--dataset-id", help="dataset id stored in the output manifest")
        p.add_argument("--out-coco", required=True, help="COCO ground-truth output path")
        p.add_argument("--out-mot", help="optional MOT ground-truth output path")
        p.add_argument("--no-clamp", action="store_true", help="keep boxes beyond image borders")

    if p := add("histogram", _cmd_histogram, "distance histogram CSV"):
        p.add_argument("--gt", required=True, help="COCO ground-truth input")
        p.add_argument("--out", required=True, help="CSV output path")
        p.add_argument("--bin-width", type=float, default=1.0)

    if p := add("prune", _cmd_prune, "drop annotations beyond a distance", "distance_limit_m"):
        p.add_argument("--gt", required=True, help="COCO ground-truth input")
        p.add_argument("--out", required=True, help="pruned COCO output path")

    if p := add("distance-limit", _cmd_distance_limit, "derive a distance limit from box heights"):
        p.add_argument("--gt", required=True, help="COCO ground-truth input")
        p.add_argument("--h-min", type=float, required=True, help="minimum usable box height (px)")
        p.add_argument("--bin-width", type=float, default=1.0)
        p.add_argument("--min-bin-count", type=int, default=10)
        p.add_argument("--out", help="optional JSON output path")

    # The image size is read for MOT input only: a COCO input carries its own.
    if p := add("convert", _cmd_convert, "convert between COCO and MOT", "image_w", "image_h"):
        p.add_argument("--in", dest="infile", required=True, help="input annotation file")
        p.add_argument("--from", dest="from_fmt", required=True, choices=["coco", "mot"])
        p.add_argument("--to", dest="to_fmt", required=True, choices=["coco", "mot"])
        p.add_argument("--out", required=True)
        p.add_argument("--video-id", help="video id for MOT input, or selector for MOT output")
        p.add_argument("--dataset-id", help="dataset id for COCO output built from MOT input")

    if p := add("evaluate", _cmd_evaluate, "score detections against GT", "score_floor", "iou_thr"):
        p.add_argument("--gt", required=True, help="COCO ground-truth input")
        p.add_argument("--det", required=True, help="detection file")
        p.add_argument(
            "--det-format", choices=["coco_results", "mot_det"], default="coco_results"
        )
        p.add_argument("--video-id", help="video id; required for --det-format mot_det")
        p.add_argument("--out", help="optional JSON report path")

    if p := add("plan-batches", _cmd_plan_batches, "mixed-batch training plan"):
        p.add_argument("--n-synthetic", type=int, required=True)
        p.add_argument("--n-real", type=int, required=True)
        p.add_argument("--batch-size", type=int, required=True)
        p.add_argument("--ratio", type=_ratio, default=DEFAULT_RATIO)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--epochs", type=int, default=1)
        p.add_argument("--out", required=True)

    if p := add("plan-finetune", _cmd_plan_finetune, "two-phase fine-tune plan"):
        p.add_argument("--phase1-epochs", type=int, required=True)
        p.add_argument("--phase2-epochs", type=int, required=True)
        p.add_argument("--out", required=True)

    return parser


def run(argv: Sequence[str]) -> int:
    """Execute one subcommand; returns the process exit code.

    The cyclic collector is off for the run, then left as it was found: the
    data a run parses hold no reference cycles, yet their objects set off
    hundreds of collector passes, a tenth of an ``evaluate`` run.
    """
    argv = list(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = _build_parser(argv).parse_args(argv)
        config = _resolve_config(args)
        summary, outputs = args.handler(args, config)
        _write_outputs(outputs)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (Skel2BoxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()
    # Also the largest child, such as a worker parsing a joint dump, all ended by now.
    scopes = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    peak_rss_mb = round(max(resource.getrusage(s).ru_maxrss for s in scopes) / 1024, 1)
    paths = {key: path for key, (path, _) in outputs.items()}
    print(json.dumps({"command": args.command, **summary, **paths, "peak_rss_mb": peak_rss_mb}))
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
