"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py

Covers generator determinism per seed, the output checks, the tracer's
name guard and the metric names against BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "build": dict(frames=6, peds=8),
    "score": dict(frames=4, peds=12, fp_per_frame=3),
    "curate": dict(videos=2, frames=8, peds=12, fp_per_frame=2, calibration_rows=20),
}


def _setup(tmp_path, workload, seed=5):
    inputs = gen.generate(workload, seed, tmp_path / "in", TINY[workload])
    (tmp_path / "out").mkdir()
    jobs = workloads.job_script(workload, inputs, tmp_path / "out", seed)
    return inputs, jobs, workloads.Checker(inputs["shares"].skeletons)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generator_gives_the_same_bytes_for_the_same_seed(tmp_path, workload):
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        gen.generate(workload, seed, tmp_path / name, TINY[workload])
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files
    read = lambda d, f: (tmp_path / d / f).read_bytes()  # noqa: E731
    assert all(read("a", f) == read("b", f) for f in files)
    assert any(read("a", f) != read("c", f) for f in files)


def test_skip_and_prune_fire_on_a_sizeable_share(tmp_path):
    build = gen.generate("build", 1, tmp_path / "build")["shares"]
    curate = gen.generate("curate", 1, tmp_path / "curate")["shares"]
    assert 0.15 < build.offimage_share < 0.6
    assert 0.15 < curate.far_share < 0.6


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_child_and_inprocess_passes_pass_the_checks_with_one_digest(tmp_path, workload):
    _, jobs, checker = _setup(tmp_path, workload)
    with workloads.Launcher(tmp_path) as launcher:
        _, results = launcher.run_pass(jobs)
    checker.check_pass(results)
    _, results = workloads.run_pass_inprocess(jobs)
    checker.check_pass(results)
    assert checker.problems == []
    assert (checker.attempted, checker.failed) == (2 * len(jobs), 0)
    assert checker.digest


def test_a_changed_output_fails_the_checks(tmp_path):
    _, jobs, checker = _setup(tmp_path, "curate")
    _, results = workloads.run_pass_inprocess(jobs)
    checker.check_pass(results)
    assert checker.failed == 0
    coco = next(o for j in jobs for o in j.outputs if o.kind == "coco")
    text = Path(coco.path).read_text(encoding="utf-8")
    Path(coco.path).write_text(text.replace(",", ", ", 1), encoding="utf-8")
    with pytest.raises(workloads.CheckFailed):
        workloads.check_output(coco)
    checker.check_pass(results)  # same results, but the digest no longer matches
    assert checker.failed == len(jobs)


def test_a_report_that_disagrees_with_the_reference_fails(tmp_path):
    _, jobs, _ = _setup(tmp_path, "score")
    workloads.run_pass_inprocess(jobs)
    report = jobs[0].outputs[0]
    doc = json.loads(Path(report.path).read_text(encoding="utf-8"))
    doc["ap_allpoint"] = doc["ap_allpoint"] / 2
    Path(report.path).write_text(json.dumps(doc, separators=(",", ":")) + "\n", encoding="utf-8")
    with pytest.raises(workloads.CheckFailed, match="ap_allpoint"):
        workloads.check_output(report)


def test_failed_jobs_and_wrong_skeleton_counts_count_as_errors(tmp_path):
    _, jobs, checker = _setup(tmp_path, "build")
    broken = workloads.Job(("evaluate", "--gt", str(tmp_path / "missing.json"),
                            "--det", str(tmp_path / "missing.json")), ())
    _, results = workloads.run_pass_inprocess([broken])
    checker.check_pass(results)
    assert (checker.attempted, checker.failed) == (1, 1)
    miscounted = workloads.Checker(checker.skeletons + 1)
    _, results = workloads.run_pass_inprocess(jobs)
    miscounted.check_pass(results)
    assert miscounted.failed == 1 and "n_annotations" in miscounted.problems[0]


def test_name_guard_rejects_a_missing_layer_and_restores_the_rest():
    from skel2box import formats

    original = formats.parse_jta
    layers = spans.LAYERS + (spans.Layer("formats", "parse_jta_renamed", ("build",)),)
    with pytest.raises(spans.NameGuardError, match="parse_jta_renamed"):
        spans.Tracer(layers).install()
    assert formats.parse_jta is original


def test_name_guard_rejects_a_layer_never_reached(tmp_path):
    _, jobs, _ = _setup(tmp_path, "build")
    tracer = spans.Tracer()
    with tracer:
        workloads.run_pass_inprocess(jobs, tracer.run_job)
    tracer.check_self_times_add_up()
    tracer.guard_reached("build")
    with pytest.raises(spans.NameGuardError, match="match_frame"):
        tracer.guard_reached("score")


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["per_layer"] == spans.metric_catalog()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

    _, jobs, checker = _setup(tmp_path, "curate")
    with workloads.Launcher(tmp_path) as launcher:
        traced = run.traced(workloads, spans, launcher, jobs, checker, 0, "curate")
        samples = run.untraced(workloads, launcher, jobs, checker, 0)
    assert checker.failed == 0
    assert set(traced) == {m["name"] for m in spec["per_layer"]}
    assert set(samples) == set(run.END_TO_END_UNITS)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "build", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
