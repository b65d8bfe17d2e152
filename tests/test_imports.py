"""What the package namespace holds, and what each way in imports.

``import skel2box`` loads none of its modules: a name is imported from its
module on first use. The command line imports only the modules the
subcommand it runs calls, so a short job does not pay for the others.
Planning takes SHA-256 from the interpreter's lean module, not from
``hashlib``, whose OpenSSL costs about 3 MB of peak memory.
"""

import ast
import importlib
import subprocess
import sys

import pytest

import skel2box
from test_cli import command_argv

EXPORTED = {
    "AnnotatedBox", "BBox", "BatchPlan", "CalibrationResult", "CalibrationSample",
    "CocoGroundTruth", "DatasetManifest", "Detection", "DistanceHistogram", "EmptyInput",
    "EvalReport", "FineTunePlan", "FrameRef", "IncompleteSkeleton", "InvalidArgument",
    "InvalidConfig", "JoinError", "MatchOutcome", "MixConfig", "MixedVideos", "PRCurve",
    "ParseError", "Skel2BoxError", "SkeletonInstance", "SynthesisResult",
    "average_precision", "camera_distance", "clamp_to_image", "derive_distance_limit",
    "distance_histogram", "emit_coco", "emit_detections", "emit_mot", "evaluate",
    "fit_alpha", "iou", "load_calibration_samples", "manifest_for_annotations",
    "match_frame", "pad_box", "parse_coco_gt", "parse_detections", "parse_jta",
    "parse_mot_gt", "parse_plan", "plan_finetune", "plan_mixed_batches", "pr_curve",
    "prune_by_distance", "serialize_plan", "skeleton_enclosing_box",
    "synthesize_annotations",
}


class TestNamespace:
    def test_all_is_the_pinned_set(self):
        assert set(skel2box.__all__) == EXPORTED
        assert len(skel2box.__all__) == len(EXPORTED)

    @pytest.mark.parametrize("name", sorted(EXPORTED))
    def test_name_is_its_defining_module_attribute(self, name):
        value = getattr(skel2box, name)
        assert value.__module__.startswith("skel2box.")
        assert getattr(importlib.import_module(value.__module__), name) is value

    def test_dir_lists_every_name_before_use(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import skel2box; print(dir(skel2box))"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert EXPORTED <= set(ast.literal_eval(proc.stdout))

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from skel2box import *", namespace)
        assert set(namespace) - {"__builtins__"} == EXPORTED

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="'skel2box' has no attribute 'no_such_name'"):
            skel2box.no_such_name  # noqa: B018


# Runs a command line, then prints the modules it loaded, even when the
# command exits (``--help`` does).
PROBE = """
import sys
from skel2box.cli import main
try:
    main()
finally:
    print(sorted(sys.modules))
"""


def loaded_modules(*args):
    """The sorted names in ``sys.modules`` after a fresh interpreter runs
    ``skel2box`` with ``args``."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *map(str, args)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


class TestImportsPerPath:
    def test_package_import_loads_no_module(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, skel2box; print(sorted(sys.modules))"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = ast.literal_eval(proc.stdout)
        assert [name for name in loaded if name.split(".")[0] == "skel2box"] == ["skel2box"]

    def test_help_loads_only_the_command_line(self):
        loaded = [name for name in loaded_modules("--help") if name.split(".")[0] == "skel2box"]
        assert loaded == ["skel2box", "skel2box.cli", "skel2box.errors"]

    @pytest.mark.parametrize(
        "command, used, unused",
        [
            (
                "plan-finetune", "training_plan",
                {"evaluation", "sanitize", "calibration", "formats", "geometry"},
            ),
            ("evaluate", "evaluation", {"sanitize", "calibration", "training_plan"}),
        ],
    )
    def test_subcommand_loads_only_what_it_runs(self, tmp_path, command, used, unused):
        loaded = loaded_modules(*command_argv(tmp_path, command, tmp_path / "out"))
        assert f"skel2box.{used}" in loaded
        assert {f"skel2box.{name}" for name in unused}.isdisjoint(loaded)

    @pytest.mark.parametrize("command", ["plan-batches", "plan-finetune"])
    def test_planning_loads_no_openssl(self, tmp_path, command):
        loaded = loaded_modules(*command_argv(tmp_path, command, tmp_path / "out"))
        assert "skel2box.training_plan" in loaded
        assert {"hashlib", "_hashlib"}.isdisjoint(loaded)

    def test_plan_bytes_are_the_same_through_hashlib(self):
        # With both names of the lean module refused, the planner falls back to
        # hashlib; its digest, and so the plan, must be the same.
        script = """
import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from skel2box import MixConfig, plan_mixed_batches, serialize_plan
text = serialize_plan(plan_mixed_batches(MixConfig(2000, 300, 12, seed=9, epochs=3)))
assert "_hashlib" in sys.modules
import hashlib
print(hashlib.sha256(text.encode()).hexdigest())
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        # The pinned digest of test_mixed_plan_bytes_are_pinned[two_to_one].
        assert proc.stdout.split() == [
            "80cc181a8e1ad23c1c6c7c0d92e7d9d5df528b78049f4889d8d701834fc5b46a"
        ]
