"""The three job scripts, how to run them, and the checks on their outputs.

A workload is a fixed list of ``skel2box`` command lines over generated
inputs. The same list runs as child processes (what a user pays, measured
with tracing off) or in-process through ``cli.run`` (for the traced run).
Every output is checked the same way whichever way it was written.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from skel2box import calibration, cli, evaluation, formats, sanitize, training_plan
from skel2box.errors import Skel2BoxError

ROOT = Path(__file__).resolve().parent.parent
# The console-script entry point, spelled out so the benchmark needs no install.
ENTRY = "import sys; from skel2box.cli import main; main()"
# Interpreter start plus the standard-library modules skel2box imports, without
# skel2box: the part of every job's start-up that no change to the program moves.
INTERPRETER_START = (
    "import argparse, contextlib, csv, dataclasses, hashlib, io, json, logging, math, "
    "pathlib, random, statistics, tempfile, typing"
)


@dataclass(frozen=True)
class Output:
    """A file a job writes, and how to re-parse it.

    ``kind`` is one of coco, mot, calibration, histogram, limit, report, plan.
    ``video`` names the video of a MOT file; ``gt`` and ``det`` are the
    inputs an evaluation report scored.
    """

    path: str
    kind: str
    video: str = ""
    gt: str = ""
    det: str = ""


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    outputs: tuple[Output, ...]


@dataclass
class JobResult:
    job: Job
    exit_code: int
    wall_s: float
    stdout: str
    stderr: str
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0


def job_script(workload: str, inputs: dict, out_dir: Path, seed: int) -> list[Job]:
    """The command lines of one pass over a workload, in order."""
    out = lambda name: str(out_dir / name)  # noqa: E731
    if workload == "build":
        return [
            Job(
                ("synthesize", "--jta", inputs["jta"], "--alpha", "174",
                 "--out-coco", out("gt.json"), "--out-mot", out("gt.txt")),
                (Output(out("gt.json"), "coco"), Output(out("gt.txt"), "mot", video="seq")),
            )
        ]
    if workload == "score":
        return [
            Job(
                ("evaluate", "--gt", inputs["gt"], "--det", inputs["det"], "--out", out("report.json")),
                (Output(out("report.json"), "report", gt=inputs["gt"], det=inputs["det"]),),
            )
        ]
    if workload == "curate":
        gt = inputs["gt"]
        pruned = out("gt_40m.json")
        jobs = [
            Job(("calibrate", "--samples", inputs["samples"], "--out", out("alpha.json")),
                (Output(out("alpha.json"), "calibration"),)),
            Job(("histogram", "--gt", gt, "--out", out("hist.csv")),
                (Output(out("hist.csv"), "histogram"),)),
            Job(("distance-limit", "--gt", gt, "--h-min", "25", "--out", out("limit.json")),
                (Output(out("limit.json"), "limit"),)),
            Job(("prune", "--gt", gt, "--out", pruned), (Output(pruned, "coco"),)),
        ]
        for video in inputs["videos"]:
            mot, back = out(f"{video}.txt"), out(f"{video}.json")
            jobs.append(Job(("convert", "--in", pruned, "--from", "coco", "--to", "mot",
                             "--video-id", video, "--out", mot),
                            (Output(mot, "mot", video=video),)))
            jobs.append(Job(("convert", "--in", mot, "--from", "mot", "--to", "coco",
                             "--video-id", video, "--out", back),
                            (Output(back, "coco"),)))
        jobs += [
            Job(("evaluate", "--gt", pruned, "--det", inputs["det"], "--out", out("report.json")),
                (Output(out("report.json"), "report", gt=pruned, det=inputs["det"]),)),
            Job(("plan-batches", "--n-synthetic", "20000", "--n-real", "3000", "--batch-size", "12",
                 "--seed", str(seed), "--epochs", "10", "--out", out("mix.json")),
                (Output(out("mix.json"), "plan"),)),
            Job(("plan-finetune", "--phase1-epochs", "30", "--phase2-epochs", "10",
                 "--out", out("finetune.json")),
                (Output(out("finetune.json"), "plan"),)),
        ]
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Running jobs
# ---------------------------------------------------------------------------

def child_env() -> dict:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


class Launcher:
    """Runs jobs as child processes through ``launcher.py``; a context manager.

    Each job runs to completion before the next starts, so a pass over the
    job script is a closed loop with one client.
    """

    def __init__(self, log_dir: Path):
        self.log_dir = log_dir
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(), text=True,
        )

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def _spawn(self, argv: list[str]) -> tuple[dict, str, str]:
        out_path, err_path = self.log_dir / "job.out", self.log_dir / "job.err"
        request = {"argv": argv, "stdout": str(out_path), "stderr": str(err_path)}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the job launcher exited early")
        return (json.loads(line), out_path.read_text(encoding="utf-8", errors="replace"),
                err_path.read_text(encoding="utf-8", errors="replace"))

    def run(self, job: Job) -> JobResult:
        reply, stdout, stderr = self._spawn([sys.executable, "-c", ENTRY, *job.argv])
        return JobResult(job, reply["exit_code"], reply["wall_s"], stdout, stderr,
                         cpu_s=reply["cpu_s"], peak_rss_mb=reply["peak_rss_mb"])

    def interpreter_start(self) -> float:
        """Wall time of a process that runs ``INTERPRETER_START`` and exits."""
        reply, _, stderr = self._spawn([sys.executable, "-c", INTERPRETER_START])
        if reply["exit_code"] != 0:
            raise RuntimeError(f"the interpreter start-up probe exited {reply['exit_code']}: {stderr}")
        return reply["wall_s"]

    def run_pass(self, jobs: list[Job]) -> tuple[float, list[JobResult]]:
        """One pass over the job script; returns its wall time and the results."""
        start = time.perf_counter()
        results = [self.run(job) for job in jobs]
        return time.perf_counter() - start, results


def run_pass_inprocess(jobs: list[Job], on_job=None) -> tuple[float, list[JobResult]]:
    """One pass through ``cli.run`` in this process.

    ``on_job(index, call)`` wraps each job; the tracer uses it to open the
    job's root span. stdout and stderr are captured so the summaries can be
    checked like a child's.
    """
    results = []
    start = time.perf_counter()
    for index, job in enumerate(jobs):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            call = lambda: cli.run(list(job.argv))  # noqa: E731
            code = on_job(index, call) if on_job else call()
        results.append(JobResult(job, code, time.perf_counter() - t0, out.getvalue(), err.getvalue()))
    return time.perf_counter() - start, results


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

class CheckFailed(Exception):
    pass


def _reference_evaluate():
    spec = importlib.util.spec_from_file_location("reference_eval", ROOT / "tests" / "reference_eval.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ref_evaluate


def _same(what: str, got: str, want: str) -> None:
    if got != want:
        raise CheckFailed(f"{what}: re-emitted text differs from the file")


def check_output(output: Output) -> None:
    """Re-parse one output and require a byte-identical re-emission.

    An evaluation report must also carry exactly the AP values of the
    independent reference evaluator in ``tests/reference_eval.py``.
    """
    text = Path(output.path).read_text(encoding="utf-8")
    name = Path(output.path).name
    if output.kind == "coco":
        gt = formats.parse_coco_gt(text)
        _same(name, formats.emit_coco(gt.annotations, gt.manifest) + "\n", text)
    elif output.kind == "mot":
        annotations, _ = formats.parse_mot_gt(text, output.video)
        _same(name, formats.emit_mot(annotations), text)
    elif output.kind == "calibration":
        _same(name, calibration.CalibrationResult.from_json(text).to_json() + "\n", text)
    elif output.kind == "histogram":
        rows = [line.split(",") for line in text.splitlines()[1:]]
        hist = sanitize.DistanceHistogram(bin_width_m=1.0, counts=tuple(int(c) for _, c in rows))
        _same(name, hist.to_csv(), text)
    elif output.kind == "limit":
        _same(name, json.dumps(json.loads(text)) + "\n", text)
    elif output.kind == "plan":
        _same(name, training_plan.serialize_plan(training_plan.parse_plan(text)) + "\n", text)
    elif output.kind == "report":
        report = json.loads(text)
        _same(name, json.dumps(report, separators=(",", ":")) + "\n", text)
        gt = formats.parse_coco_gt(Path(output.gt).read_text(encoding="utf-8"))
        dets = formats.parse_detections(
            Path(output.det).read_text(encoding="utf-8"), "coco_results",
            frame_of_image=gt.frame_by_image_id(),
        )
        frames = [(ref.video_id, ref.frame_id) for ref in gt.images]
        ref = _reference_evaluate()(
            dets, gt.annotations, frames,
            evaluation.DEFAULT_IOU_THRESHOLD, evaluation.DEFAULT_SCORE_FLOOR,
        )
        for key in ("ap_allpoint", "ap_101point", "n_gt", "n_det"):
            if report[key] != ref[key]:
                raise CheckFailed(f"{name}: {key} is {report[key]!r}, reference gives {ref[key]!r}")
    else:
        raise ValueError(f"unknown output kind {output.kind!r}")


def outputs_digest(jobs: list[Job]) -> str:
    """sha256 over every output of a pass, by file name and content."""
    digest = hashlib.sha256()
    for job in jobs:
        for output in job.outputs:
            digest.update(Path(output.path).name.encode() + b"\0")
            digest.update(Path(output.path).read_bytes())
    return digest.hexdigest()


@dataclass
class Checker:
    """Checks every pass of one workload; counts jobs attempted and failed.

    ``skeletons`` is how many skeletons the generator wrote, which
    ``synthesize`` must account for. The first pass that succeeds is checked in full and fixes the digest;
    any later pass must reproduce that digest, which implies it passes the
    same checks.
    """

    skeletons: int
    digest: str = ""
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check_pass(self, results: list[JobResult]) -> None:
        self.attempted += len(results)
        full = not self.digest
        failed = 0
        for result in results:
            try:
                self._check_job(result)
                if full:
                    for output in result.job.outputs:
                        check_output(output)
            except (CheckFailed, Skel2BoxError, OSError, ValueError, KeyError, IndexError) as exc:
                failed += 1
                self.problems.append(f"{result.job.argv[0]}: {exc}")
        self.failed += failed
        if failed:
            return
        digest = outputs_digest([r.job for r in results])
        if full:
            self.digest = digest
        elif digest != self.digest:
            self.failed += len(results)
            self.problems.append(f"outputs digest {digest} differs from {self.digest}")

    def _check_job(self, result: JobResult) -> None:
        if result.exit_code != 0:
            raise CheckFailed(f"exit code {result.exit_code}: {result.stderr.strip()[-300:]}")
        summary = json.loads(result.stdout.strip().splitlines()[-1])
        if summary.get("command") == "synthesize":
            total = summary["n_annotations"] + summary["n_skipped"]
            if total != self.skeletons:
                raise CheckFailed(
                    f"n_annotations + n_skipped = {total}, generated {self.skeletons} skeletons"
                )

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
