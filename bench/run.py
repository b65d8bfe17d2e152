"""skel2box benchmark: three workloads of real CLI jobs over seeded inputs.

    python3 bench/run.py --workload build|score|curate --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it needs ``src/skel2box`` and
``tests/reference_eval.py`` there and writes only under ``.bench_work/``.

``--trace 0`` measures what a user pays: each job of the workload runs as a
``skel2box`` child process, one at a time, in a closed loop with one client,
for ``--seconds``. Before each pass it times two CLI processes that do no
work (``skel2box --help``: interpreter start, ``import skel2box``, parser
build) and two processes that only start the interpreter and import the
standard-library modules skel2box uses (``workloads.INTERPRETER_START``).
It reports

* ``wall_s``: median wall time of a pass over the job script,
* ``setup_s``: median wall time of a no-op CLI process,
* ``peak_rss_mb``: median over passes of the highest child peak RSS.

``wall_s`` and ``setup_s`` are given at a nominal host speed: the raw
median times ``NOMINAL_START_S`` over the median interpreter start-up time
of the same run. On the 2-vCPU VM this was tuned on, the host's speed
drifted by a fifth or more over minutes and the jobs' run medians tracked
the start-up time of the same run (see README.md). The start-up probe does
not load skel2box, so a change to the program moves a rescaled time by the
same share as the raw one. The raw medians are printed before the result.

``--trace 1`` runs the job script in-process through ``cli.run`` with every
layer wrapped (see ``spans.py``), alternating with untraced in-process passes
and one child-process pass per round for CPU time, and reports the per-layer
metrics.

Every job's exit code and outputs are checked. The last line of stdout is
one JSON object: ``correct``, ``attempted`` and ``failed`` (jobs; their ratio
is the error rate) and ``metrics``. A failed check exits 1.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("build", "score", "curate")
END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
MIN_PASSES = 3
SETUP_PER_PASS = 2
# Interpreter start-up time the rescaled times assume.
NOMINAL_START_S = 0.1


def _spread(name: str, values: list[float], unit: str) -> str:
    return (f"{name} {statistics.median(values):.6g} {unit} (median of {len(values)}, "
            f"min {min(values):.6g}, max {max(values):.6g})")


def measure_setup(workloads, launcher, runs: int) -> list[float]:
    """Wall times of ``runs`` CLI processes that do no work (``skel2box --help``)."""
    walls = []
    for _ in range(runs):
        result = launcher.run(workloads.Job(("--help",), ()))
        if result.exit_code != 0:
            raise RuntimeError(f"skel2box --help exited {result.exit_code}: {result.stderr}")
        walls.append(result.wall_s)
    return walls


def untraced(workloads, launcher, jobs, checker, seconds: float) -> dict[str, float]:
    walls, rss, setup, start_up = [], [], [], []
    start, lap = time.perf_counter(), 0.0
    # Start a pass only if one more, as long as the last, still ends within the run.
    while len(walls) < MIN_PASSES or time.perf_counter() - start + lap <= seconds:
        lap_start = time.perf_counter()
        setup += measure_setup(workloads, launcher, SETUP_PER_PASS)
        start_up += [launcher.interpreter_start() for _ in range(SETUP_PER_PASS)]
        wall, results = launcher.run_pass(jobs)
        checker.check_pass(results)
        if checker.failed:
            return {}
        walls.append(wall)
        rss.append(max(r.peak_rss_mb for r in results))
        lap = time.perf_counter() - lap_start
    print(_spread("raw wall_s", walls, "s"))
    print(_spread("raw setup_s", setup, "s"))
    print(_spread("interpreter start", start_up, "s"))
    print(_spread("peak_rss_mb", rss, "MB"))
    speed = NOMINAL_START_S / statistics.median(start_up)
    return {
        "wall_s": statistics.median(walls) * speed,
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup) * speed,
    }


def _traced_pass(workloads, spans, jobs):
    tracer = spans.Tracer()
    with tracer:
        wall, results = workloads.run_pass_inprocess(jobs, tracer.run_job)
    return wall, results, tracer


def _layer_samples(spans, tracer, samples: dict, counts: dict) -> None:
    own = tracer.self_times()
    for layer in spans.LAYERS:
        samples.setdefault(f"{layer.key}.self_s", []).append(own.get(layer.key, 0.0))
        for name in layer.counts:
            counts[f"{layer.key}.{name}"] = tracer.counts.get(layer.key, {}).get(name, 0)
    samples.setdefault("cli.run.self_s", []).append(own[spans.ROOT_SPAN])
    counts["evaluation.floor_dropped"] = (
        tracer.counts.get("evaluation.pr_curve", {}).get("floor_dropped", 0))


def traced(workloads, spans, launcher, jobs, checker, seconds: float, workload: str) -> dict:
    """Rounds of one child pass (CPU time), then a traced and an untraced in-process pass."""
    samples: dict[str, list[float]] = {}
    counts: dict[str, int] = {}
    start, lap = time.perf_counter(), 0.0
    rounds = 0
    while rounds < MIN_PASSES or time.perf_counter() - start + lap <= seconds:
        lap_start = time.perf_counter()
        _, results = launcher.run_pass(jobs)
        checker.check_pass(results)
        samples.setdefault("cli.cpu_s", []).append(sum(r.cpu_s for r in results))
        for tracing in (True, False) if rounds % 2 == 0 else (False, True):
            if tracing:
                wall, results, tracer = _traced_pass(workloads, spans, jobs)
            else:
                wall, results = workloads.run_pass_inprocess(jobs)
            checker.check_pass(results)
            if checker.failed:
                return {}
            if tracing:
                tracer.check_self_times_add_up()
                tracer.guard_reached(workload)
                _layer_samples(spans, tracer, samples, counts)
            samples.setdefault("trace.wall_s" if tracing else "trace.untraced_wall_s", []).append(wall)
        rounds += 1
        lap = time.perf_counter() - lap_start

    metrics: dict[str, float] = {name: statistics.median(v) for name, v in samples.items()}
    metrics.update(counts)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    metrics["cli.jobs"] = len(jobs)
    kept = counts["geometry.synthesize_annotations.kept"]
    seen = kept + counts["geometry.synthesize_annotations.skipped"]
    metrics["geometry.kept_ratio"] = kept / seen if seen else 0.0
    pairs = counts["evaluation.match_frame.pairs"]
    metrics["evaluation.match_ratio"] = (
        counts["evaluation.match_frame.matched"] / pairs if pairs else 0.0)

    for layer in spans.LAYERS:
        print(f"{layer.key}.self_s {metrics[layer.key + '.self_s']:.6g} s"
              f" (should move {'/'.join(layer.moves)} on {'/'.join(layer.workloads)})")
    print(f"cli.run.self_s {metrics['cli.run.self_s']:.6g} s (should move wall_s/setup_s on curate)")
    print(f"tracing overhead {metrics['trace.overhead_s']:.6g} s per pass "
          f"(traced {metrics['trace.wall_s']:.6g} s, untraced "
          f"{metrics['trace.untraced_wall_s']:.6g} s, median of {rounds})")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = (ROOT / "src" / "skel2box" / "cli.py", ROOT / "tests" / "reference_eval.py")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: run from a skel2box source checkout; missing {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import gen
    import spans
    import workloads

    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=base))
    try:
        inputs = gen.generate(args.workload, args.seed, work / "in")
        (work / "out").mkdir()
        jobs = workloads.job_script(args.workload, inputs, work / "out", args.seed)
        shares = inputs["shares"]
        print(f"workload {args.workload} seed {args.seed}: {shares.skeletons} skeletons, "
              f"off-image share {shares.offimage_share:.4f}, "
              f"beyond {gen.PRUNE_LIMIT_M:g} m share {shares.far_share:.4f}")
        checker = workloads.Checker(shares.skeletons)
        with workloads.Launcher(work) as launcher:
            measure_setup(workloads, launcher, 1)  # fills the bytecode cache
            if args.trace:
                values = traced(workloads, spans, launcher, jobs, checker, args.seconds,
                                args.workload)
                units = {m["name"]: m["unit"] for m in spans.metric_catalog()}
            else:
                values = untraced(workloads, launcher, jobs, checker, args.seconds)
                units = END_TO_END_UNITS
    except spans.NameGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass

    for problem in checker.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    correct = checker.failed == 0
    print(f"error_rate {checker.error_rate:.6g} ({checker.failed} failed of {checker.attempted} jobs)")
    print(f"outputs sha256 {checker.digest or '-'}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
