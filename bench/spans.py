"""Outside-in tracing of the layers a workload goes through.

The tracer replaces each layer's public function with a wrapper, as a module
attribute. ``cli`` reaches the layers as ``formats.parse_jta``,
``evaluation.evaluate`` and so on, and ``evaluation.evaluate`` reaches
``match_frame``, ``pr_curve`` and ``average_precision`` as module globals,
so every call, down to the per-frame matcher, passes through a wrapper
without a change to the program. Per-record and per-pair functions
(``skeleton_enclosing_box``, ``camera_distance``, ``pad_box``,
``clamp_to_image``, ``iou``) are not wrapped: wrapping them would cost more
than they do. Their work is counted from the argument and result sizes of
the layer that calls them.

A span is (name, start, end, parent, job). Spans stay in memory; counts are
derived after each job, outside its timing. A layer's self time is its span
minus its child spans, so per job the self times add up to the root span,
``cli.run``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass
from typing import Callable

# Derive a layer's counts from its bound arguments and its result.
Counter = Callable[[dict, object], dict]


@dataclass(frozen=True)
class Layer:
    """One wrapped public function.

    ``workloads`` are those the layer must be reached on (the name guard
    enforces it); ``moves`` is the end-to-end metric it should move there.
    """

    module: str
    name: str
    workloads: tuple[str, ...]
    moves: tuple[str, ...] = ("wall_s",)
    counts: tuple[str, ...] = ()
    counter: Counter | None = None

    @property
    def key(self) -> str:
        return f"{self.module}.{self.name}"


def _records(args, result):
    return {"records": sum(len(s.joints) for s in result), "skeletons": len(result)}


def _synthesis(args, result):
    return {"kept": len(result.annotations), "skipped": result.skipped_count}


def _text_bytes(args, result):
    return {"bytes": len(result.encode("utf-8"))}


def _annotations(args, result):
    return {"annotations": len(result.annotations)}


def _detections(args, result):
    return {"detections": len(result)}


def _matches(args, result):
    return {
        "calls": 1,
        "pairs": len(args["detections"]) * len(args["gts"]),
        "matched": sum(1 for o in result if o.is_tp),
    }


def _floor(args, result):
    floor = args["score_floor"]
    return {"floor_dropped": sum(1 for score, _ in args["scored_outcomes"] if not score > floor)}


def _pruned(args, result):
    return {"pruned": result[1]}


LAYERS = (
    Layer("formats", "parse_jta", ("build",), ("wall_s", "peak_rss_mb"),
          ("records", "skeletons"), _records),
    Layer("geometry", "synthesize_annotations", ("build",), counts=("kept", "skipped"),
          counter=_synthesis),
    Layer("formats", "emit_coco", ("build", "curate"), counts=("bytes",), counter=_text_bytes),
    Layer("formats", "emit_mot", ("build", "curate"), counts=("bytes",), counter=_text_bytes),
    Layer("formats", "parse_coco_gt", ("curate", "score"), counts=("annotations",),
          counter=_annotations),
    Layer("formats", "parse_mot_gt", ("curate",)),
    Layer("formats", "parse_detections", ("curate", "score"), counts=("detections",),
          counter=_detections),
    Layer("evaluation", "evaluate", ("score",)),
    Layer("evaluation", "match_frame", ("score",), counts=("calls", "pairs", "matched"),
          counter=_matches),
    Layer("evaluation", "pr_curve", ("score",), counter=_floor),
    Layer("evaluation", "average_precision", ("score",)),
    Layer("sanitize", "prune_by_distance", ("curate",), counts=("pruned",), counter=_pruned),
    Layer("sanitize", "distance_histogram", ("curate",)),
    Layer("sanitize", "derive_distance_limit", ("curate",)),
    Layer("calibration", "fit_alpha", ("curate",)),
    Layer("calibration", "load_calibration_samples", ("curate",)),
    Layer("training_plan", "plan_mixed_batches", ("curate",)),
    Layer("training_plan", "serialize_plan", ("curate",), counts=("bytes",), counter=_text_bytes),
)
ROOT_SPAN = "cli.run"


# Counts where less is better; for every other count more work done is better.
_FEWER_IS_BETTER = ("bytes", "pairs", "skipped", "pruned")


def metric_catalog() -> list[dict]:
    """Every per-layer metric the traced run reports: name, unit, better."""
    catalog = []
    for layer in LAYERS:
        catalog.append({"name": f"{layer.key}.self_s", "unit": "s", "better": "lower"})
        for count in layer.counts:
            catalog.append({
                "name": f"{layer.key}.{count}",
                "unit": "bytes" if count == "bytes" else "count",
                "better": "lower" if count in _FEWER_IS_BETTER else "higher",
            })
    catalog += [
        {"name": "geometry.kept_ratio", "unit": "ratio", "better": "higher"},
        {"name": "evaluation.match_ratio", "unit": "ratio", "better": "higher"},
        {"name": "evaluation.floor_dropped", "unit": "count", "better": "lower"},
        {"name": "cli.run.self_s", "unit": "s", "better": "lower"},
        {"name": "cli.jobs", "unit": "count", "better": "higher"},
        {"name": "cli.cpu_s", "unit": "s", "better": "lower"},
        {"name": "trace.wall_s", "unit": "s", "better": "lower"},
        {"name": "trace.untraced_wall_s", "unit": "s", "better": "lower"},
        {"name": "trace.overhead_s", "unit": "s", "better": "lower"},
    ]
    return catalog


class NameGuardError(Exception):
    """A wrapped layer is missing, or was never reached where it must be."""


class Tracer:
    """Wraps the layers while installed; records spans and deferred counts."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.spans: list[list] = []  # [name, start, end, parent index, job]
        self.counts: dict[str, dict[str, int]] = {}
        self._stack: list[int] = []
        self._pending: list[tuple[Layer, inspect.Signature, tuple, dict, object]] = []
        self._originals: list[tuple[object, str, Callable, Callable]] = []
        self._job = -1

    # -- wrapping ---------------------------------------------------------

    def install(self) -> None:
        for layer in self.layers:
            module = importlib.import_module(f"skel2box.{layer.module}")
            original = getattr(module, layer.name, None)
            if not callable(original):
                self.uninstall()
                raise NameGuardError(
                    f"skel2box.{layer.key} is missing; the benchmark wraps it as a layer"
                )
            wrapper = self._wrap(layer, original)
            setattr(module, layer.name, wrapper)
            self._originals.append((module, layer.name, original, wrapper))

    def uninstall(self) -> None:
        while self._originals:
            module, name, original, wrapper = self._originals.pop()
            if getattr(module, name) is not wrapper:
                raise NameGuardError(f"{module.__name__}.{name} was replaced while traced")
            setattr(module, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(layer.key)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if layer.counter is not None:
                self._pending.append((layer, signature, args, kwargs, result))
            return result

        return wrapper

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._job])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    # -- jobs ---------------------------------------------------------------

    def run_job(self, job: int, call: Callable[[], int]) -> int:
        """Run one job under a ``cli.run`` root span, then derive its counts."""
        self._job = job
        index = self._open(ROOT_SPAN)
        try:
            return call()
        finally:
            self._close(index)
            self._job = -1
            self._drain()

    def _drain(self) -> None:
        for layer, signature, args, kwargs, result in self._pending:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            totals = self.counts.setdefault(layer.key, {})
            for name, value in layer.counter(bound.arguments, result).items():
                totals[name] = totals.get(name, 0) + value
        self._pending.clear()

    # -- results ------------------------------------------------------------

    def _span_self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_times(self) -> dict[str, float]:
        """Self time per span name, summed over all spans."""
        totals: dict[str, float] = {}
        for span, own in zip(self.spans, self._span_self_times()):
            totals[span[0]] = totals.get(span[0], 0.0) + own
        return totals

    def check_self_times_add_up(self) -> None:
        """Per job, the self times of its spans must sum to its root span."""
        per_job: dict[int, float] = {}
        for span, own in zip(self.spans, self._span_self_times()):
            per_job[span[4]] = per_job.get(span[4], 0.0) + own
        for name, start, end, parent, job in self.spans:
            if parent < 0 and abs(per_job[job] - (end - start)) > 1e-9 + 1e-9 * (end - start):
                raise AssertionError(
                    f"job {job}: self times sum to {per_job[job]}, its wall is {end - start}"
                )

    def guard_reached(self, workload: str) -> None:
        """Fail loudly if a layer assigned to ``workload`` was never called."""
        called = {span[0] for span in self.spans}
        missing = [l.key for l in self.layers if workload in l.workloads and l.key not in called]
        if missing:
            raise NameGuardError(
                f"layers {missing} were never reached on workload {workload!r}; "
                "a rename or a changed call path would drop them from the trace"
            )
