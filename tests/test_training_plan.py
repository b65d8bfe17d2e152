import hashlib
import json
from collections import Counter

import pytest

from skel2box import (
    BatchPlan,
    FineTunePlan,
    InvalidConfig,
    MixConfig,
    ParseError,
    Skel2BoxError,
    cli,
    parse_plan,
    plan_finetune,
    plan_mixed_batches,
    serialize_plan,
)


GOOD_MIX = {"n_synthetic": 4, "n_real": 2, "batch_size": 3, "ratio": [2, 1], "seed": 0, "epochs": 1}


def finetune_doc(epochs1, epochs2, second="real"):
    """A finetune plan document whose config and phases agree, with phase 2 on ``second``."""
    phases = [("syn", epochs1), (second, epochs2)]
    return {
        "kind": "finetune",
        "config": {"phase1_epochs": epochs1, "phase2_epochs": epochs2},
        "phases": [
            {"dataset": dataset, "epochs": epochs, "all_weights_unfrozen": True}
            for dataset, epochs in phases
        ],
    }


def entries(plan, domain=None):
    out = []
    for epoch in plan.epochs:
        for batch in epoch:
            for d, i in batch:
                if domain is None or d == domain:
                    out.append((d, i))
    return out


class TestPlanMixedBatches:
    def test_two_to_one_composition(self):
        config = MixConfig(n_synthetic=100, n_real=20, batch_size=12, seed=5, epochs=3)
        plan = plan_mixed_batches(config)
        assert len(plan.epochs) == 3
        for epoch in plan.epochs:
            assert len(epoch) == 100 // 8
            for batch in epoch:
                assert len(batch) == 12
                assert sum(1 for d, _ in batch if d == "syn") == 8
                assert sum(1 for d, _ in batch if d == "real") == 4

    def test_synthetic_indices_unique_per_epoch(self):
        config = MixConfig(n_synthetic=101, n_real=7, batch_size=12, seed=1, epochs=4)
        plan = plan_mixed_batches(config)
        for epoch in plan.epochs:
            syn = [i for batch in epoch for d, i in batch if d == "syn"]
            assert len(syn) == len(set(syn))
            assert len(syn) > 101 - 8  # dropped tail smaller than one batch share
            assert all(0 <= i < 101 for i in syn)

    def test_real_occurrences_balanced_within_epoch(self):
        config = MixConfig(n_synthetic=100, n_real=7, batch_size=12, seed=2, epochs=3)
        plan = plan_mixed_batches(config)
        for epoch in plan.epochs:
            counts = Counter(i for batch in epoch for d, i in batch if d == "real")
            assert all(0 <= i < 7 for i in counts)
            assert max(counts.values()) - min(counts.values()) <= 1

    def test_exact_oversampling_counts(self):
        # 20 synthetic / 4 per batch = 5 batches; 10 real slots over 5 samples
        config = MixConfig(n_synthetic=20, n_real=5, batch_size=6, seed=0, epochs=1)
        plan = plan_mixed_batches(config)
        syn_counts = Counter(i for _, i in entries(plan, "syn"))
        real_counts = Counter(i for _, i in entries(plan, "real"))
        assert syn_counts == {i: 1 for i in range(20)}
        assert real_counts == {i: 2 for i in range(5)}

    def test_synthetic_only_ratio(self):
        config = MixConfig(n_synthetic=24, n_real=0, batch_size=6, ratio=(1, 0), seed=3)
        plan = plan_mixed_batches(config)
        flat = entries(plan)
        assert all(d == "syn" for d, _ in flat)
        assert sorted(i for _, i in flat) == list(range(24))

    def test_real_only_ratio(self):
        config = MixConfig(n_synthetic=0, n_real=10, batch_size=5, ratio=(0, 1), seed=3)
        plan = plan_mixed_batches(config)
        flat = entries(plan)
        assert all(d == "real" for d, _ in flat)
        assert sorted(i for _, i in flat) == list(range(10))

    def test_epochs_reshuffle(self):
        config = MixConfig(n_synthetic=60, n_real=8, batch_size=9, seed=9, epochs=2)
        plan = plan_mixed_batches(config)
        first = [i for batch in plan.epochs[0] for d, i in batch if d == "syn"]
        second = [i for batch in plan.epochs[1] for d, i in batch if d == "syn"]
        assert sorted(first) == sorted(second)
        assert first != second

    def test_deterministic_for_identical_config(self):
        config = MixConfig(n_synthetic=50, n_real=9, batch_size=12, seed=123, epochs=2)
        a = plan_mixed_batches(config)
        b = plan_mixed_batches(config)
        assert a == b
        assert serialize_plan(a) == serialize_plan(b)

    def test_each_index_has_one_entry_tuple(self):
        # 8 batches of 4 synthetic and 2 real entries use every index in each epoch.
        config = MixConfig(n_synthetic=32, n_real=4, batch_size=6, seed=4, epochs=2)
        first, second = (
            {entry: entry for batch in epoch for entry in batch}
            for epoch in plan_mixed_batches(config).epochs
        )
        assert len(first) == 36 and first.keys() == second.keys()
        assert all(first[entry] is second[entry] for entry in first)

    @pytest.mark.parametrize(
        "unused, used",
        [
            (MixConfig(10**12, 8, 4, ratio=(0, 1)), MixConfig(0, 8, 4, ratio=(0, 1))),
            (MixConfig(8, 10**12, 4, ratio=(1, 0)), MixConfig(8, 0, 4, ratio=(1, 0))),
        ],
        ids=["synthetic", "real"],
    )
    def test_dataset_without_slots_builds_nothing(self, unused, used):
        assert plan_mixed_batches(unused).epochs == plan_mixed_batches(used).epochs

    def test_seed_changes_plan(self):
        base = MixConfig(n_synthetic=50, n_real=9, batch_size=12, seed=1)
        other = MixConfig(n_synthetic=50, n_real=9, batch_size=12, seed=2)
        assert plan_mixed_batches(base) != plan_mixed_batches(other)

    def test_invalid_configs(self):
        with pytest.raises(InvalidConfig):
            plan_mixed_batches(MixConfig(10, 5, batch_size=10))  # 10 % 3 != 0
        with pytest.raises(InvalidConfig):
            plan_mixed_batches(MixConfig(10, 5, batch_size=12, ratio=(0, 0)))
        with pytest.raises(InvalidConfig):
            plan_mixed_batches(MixConfig(10, 5, batch_size=12, ratio=(-1, 2)))
        with pytest.raises(InvalidConfig):
            plan_mixed_batches(MixConfig(10, 5, batch_size=12, epochs=0))
        with pytest.raises(InvalidConfig):
            plan_mixed_batches(MixConfig(4, 5, batch_size=12))  # cannot fill 8 syn slots
        with pytest.raises(InvalidConfig):
            plan_mixed_batches(MixConfig(100, 0, batch_size=12))  # real side empty
        with pytest.raises(InvalidConfig):
            plan_mixed_batches(MixConfig(-1, 5, batch_size=12))


    @pytest.mark.parametrize(
        "config, message",
        [
            (MixConfig(10, 5, batch_size=12, ratio=(1, 1, 1)),
             "ratio must be a pair of integers, got (1, 1, 1)"),
            (MixConfig(0, 2, batch_size=3, ratio=(0, 1)),
             "real dataset (2) cannot fill one batch (3 real slots)"),
        ],
        ids=["three_part_ratio", "real_only_too_few"],
    )
    def test_invalid_config_names_the_rule(self, config, message):
        with pytest.raises(InvalidConfig) as exc_info:
            plan_mixed_batches(config)
        assert str(exc_info.value) == message


class TestPlanFinetune:
    def test_direct_construction(self):
        assert plan_finetune(3, 2) == FineTunePlan(phase1_epochs=3, phase2_epochs=2)

    def test_minimal_plan(self):
        plan = plan_finetune(1, 1)
        assert (plan.phase1_epochs, plan.phase2_epochs) == (1, 1)

    def test_zero_epochs_rejected(self):
        with pytest.raises(InvalidConfig):
            plan_finetune(0, 1)
        with pytest.raises(InvalidConfig):
            plan_finetune(3, 0)


class TestSerialization:
    def test_mixed_schema(self):
        config = MixConfig(n_synthetic=8, n_real=4, batch_size=3, ratio=(2, 1), seed=7)
        doc = json.loads(serialize_plan(plan_mixed_batches(config)))
        assert doc["kind"] == "mixed"
        assert doc["config"] == {
            "n_synthetic": 8,
            "n_real": 4,
            "batch_size": 3,
            "ratio": [2, 1],
            "seed": 7,
            "epochs": 1,
        }
        assert len(doc["epochs"]) == 1
        for entry in doc["epochs"][0]:
            assert entry[0] in ("syn", "real")
            assert isinstance(entry[1], int)
        assert len(doc["epochs"][0]) % 3 == 0

    def test_finetune_schema(self):
        doc = json.loads(serialize_plan(plan_finetune(3, 2)))
        assert doc["kind"] == "finetune"
        assert doc["config"] == {"phase1_epochs": 3, "phase2_epochs": 2}
        assert doc["phases"][0] == {
            "dataset": "syn",
            "epochs": 3,
            "all_weights_unfrozen": True,
        }
        assert doc["phases"][1]["dataset"] == "real"

    @pytest.mark.parametrize(
        "epochs, text",
        [((), "[]"), (((),), "[[]]"), (((), ()), "[[],[]]")],
        ids=["no_epoch", "one_empty_epoch", "two_empty_epochs"],
    )
    def test_caller_built_epochs_document(self, epochs, text):
        plan = BatchPlan(config=MixConfig(8, 4, 3), epochs=epochs)
        assert serialize_plan(plan) == (
            '{"config":{"n_synthetic":8,"n_real":4,"batch_size":3,"ratio":[2,1],"seed":0,'
            '"epochs":1},"kind":"mixed","epochs":' + text + "}"
        )

    def test_one_and_two_epoch_documents(self):
        head = '{"config":{"n_synthetic":4,"n_real":2,"batch_size":3,"ratio":[2,1],"seed":5,'
        first = '[["syn",1],["syn",3],["real",1],["syn",2],["syn",0],["real",0]]'
        second = '[["syn",3],["syn",2],["real",0],["syn",1],["syn",0],["real",1]]'
        one = serialize_plan(plan_mixed_batches(MixConfig(4, 2, 3, seed=5)))
        two = serialize_plan(plan_mixed_batches(MixConfig(4, 2, 3, seed=5, epochs=2)))
        assert one == head + '"epochs":1},"kind":"mixed","epochs":[' + first + "]}"
        assert two == head + '"epochs":2},"kind":"mixed","epochs":[' + first + "," + second + "]}"

    def test_mixed_round_trip(self):
        config = MixConfig(n_synthetic=40, n_real=6, batch_size=9, ratio=(2, 1), seed=77, epochs=2)
        plan = plan_mixed_batches(config)
        assert parse_plan(serialize_plan(plan)) == plan

    def test_finetune_round_trip(self):
        plan = plan_finetune(5, 1)
        assert parse_plan(serialize_plan(plan)) == plan

    def test_byte_identical_for_identical_config(self):
        config = MixConfig(n_synthetic=40, n_real=6, batch_size=9, seed=8, epochs=2)
        assert serialize_plan(plan_mixed_batches(config)) == serialize_plan(
            plan_mixed_batches(config)
        )

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_plan("{broken")
        with pytest.raises(ParseError):
            parse_plan('{"kind": "mixed"}')
        with pytest.raises(ParseError):
            parse_plan('{"kind": "other", "config": {}}')
        with pytest.raises(ParseError):
            parse_plan('{"kind": "finetune", "config": {}, "phases": []}')
        good_cfg = '{"n_synthetic": 4, "n_real": 2, "batch_size": 3, "ratio": [2, 1], "seed": 0, "epochs": 1}'
        with pytest.raises(ParseError):
            parse_plan(f'{{"kind": "mixed", "config": {good_cfg}, "epochs": [[["syn", 0]]]}}')
        with pytest.raises(ParseError):
            parse_plan(
                f'{{"kind": "mixed", "config": {good_cfg}, '
                '"epochs": [[["syn", 0], ["bad", 1], ["real", 0]]]}'
            )

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "finetune", "config": {},
             "phases": [{"dataset": "syn"}, {"dataset": "real", "epochs": 1}]},
            {"kind": "finetune", "config": {},
             "phases": [{"dataset": "syn", "epochs": "x"}, {"dataset": "real", "epochs": 1}]},
            {"kind": "finetune", "config": {},
             "phases": [{"dataset": "syn", "epochs": 1}, {"dataset": "real", "epochs": None}]},
            {"kind": "finetune", "config": {},
             "phases": [{"dataset": "syn", "epochs": float("inf")},
                        {"dataset": "real", "epochs": 1}]},
            {"kind": "mixed", "config": {**GOOD_MIX, "batch_size": 0}, "epochs": [[]]},
            {"kind": "mixed", "config": {**GOOD_MIX, "ratio": [0, 0]}, "epochs": [[]]},
            {"kind": "mixed", "config": {**GOOD_MIX, "n_real": float("inf")}, "epochs": []},
            {"kind": "mixed", "config": GOOD_MIX, "epochs": 5},
            finetune_doc(-3, 1),
            finetune_doc(2.5, 1),
            finetune_doc(True, 1),
            finetune_doc(1, 1, second="syn"),
            {"kind": "mixed", "config": {**GOOD_MIX, "seed": 2.7}, "epochs": []},
            {"kind": "mixed", "config": {**GOOD_MIX, "n_synthetic": "4"}, "epochs": []},
            {"kind": "mixed", "config": {**GOOD_MIX, "n_real": True}, "epochs": []},
            {"kind": "mixed", "config": GOOD_MIX,
             "epochs": [[["syn", True], ["syn", 1], ["real", 0]]]},
        ],
        ids=[
            "phase_without_epochs", "phase_epochs_text", "phase_epochs_null", "phase_epochs_inf",
            "batch_size_0", "ratio_0_0", "n_real_inf", "epochs_not_array",
            "epochs_negative", "epochs_fraction", "epochs_bool", "two_phases_on_syn",
            "seed_fraction", "n_synthetic_text", "n_real_bool", "entry_index_bool",
        ],
    )
    def test_malformed_plans_raise_package_errors(self, doc):
        with pytest.raises(Skel2BoxError):
            parse_plan(json.dumps(doc))

    @pytest.mark.parametrize(
        "epochs, match",
        [
            ([[["syn", -5], ["syn", 1], ["real", 0], ["syn", 2], ["syn", 3], ["real", 1]]],
             r"^bad plan entry \['syn', -5\] at 0 in epoch 0: expected \['syn', i\], "
             r"i in range\(4\) and not used before in the epoch$"),
            ([[["syn", 0], ["syn", 1], ["real", 0], ["syn", 2], ["syn", 99], ["real", 1]]],
             r"^bad plan entry \['syn', 99\] at 4 in epoch 0"),
            ([[["syn", 0], ["syn", 1], ["real", 2], ["syn", 2], ["syn", 3], ["real", 1]]],
             r"^bad plan entry \['real', 2\] at 2 in epoch 0: expected \['real', i\], "
             r"i in range\(2\)$"),
            ([[["syn", 0], ["syn", 1], ["real", 0], ["syn", 1], ["syn", 3], ["real", 1]]],
             r"^bad plan entry \['syn', 1\] at 3 in epoch 0"),
            ([[["syn", 0], ["real", 0], ["syn", 1], ["syn", 2], ["syn", 3], ["real", 1]]],
             r"^bad plan entry \['real', 0\] at 1 in epoch 0: expected \['syn', i\]"),
            ([[["syn", 0], ["syn", 1], ["real", 0]]],
             r"^epoch 0 must hold 2 batches of 3 entries$"),
            ([[["syn", 0], ["syn", 1], ["real", 0], ["syn", 2], ["syn", 3], ["real", 1]]] * 2,
             r"^epochs must be an array of 1 epochs$"),
            ([], r"^epochs must be an array of 1 epochs$"),
        ],
        ids=["syn_negative", "syn_beyond_set", "real_beyond_set", "syn_repeated",
             "real_in_syn_slot", "short_epoch", "two_epochs", "no_epochs"],
    )
    def test_mixed_entries_are_checked_against_the_config(self, epochs, match):
        doc = {"kind": "mixed", "config": GOOD_MIX, "epochs": epochs}
        with pytest.raises(ParseError, match=match):
            parse_plan(json.dumps(doc))

    @pytest.mark.parametrize(
        "config, error, match",
        [
            ({key: value for key, value in GOOD_MIX.items() if key != "seed"}, ParseError,
             r"^mixed-plan config must hold the keys "),
            ({**GOOD_MIX, "ratio": [1, 1, 1]}, InvalidConfig, r"^ratio must be a pair"),
            ({**GOOD_MIX, "ratio": [0, 1], "n_real": 2}, InvalidConfig,
             r"^real dataset \(2\) cannot fill one batch \(3 real slots\)$"),
        ],
        ids=["lacks_a_key", "three_part_ratio", "real_only_too_few"],
    )
    def test_mixed_config_is_checked_by_its_planner(self, config, error, match):
        doc = {"kind": "mixed", "config": config, "epochs": []}
        with pytest.raises(error, match=match):
            parse_plan(json.dumps(doc))

    def test_claimed_dataset_size_builds_nothing(self):
        config = {**GOOD_MIX, "n_real": 10**9, "n_synthetic": 10**9, "batch_size": 3}
        doc = {"kind": "mixed", "config": config, "epochs": [[]]}
        with pytest.raises(ParseError, match=r"^epoch 0 must hold 500000000 batches of 3 "):
            parse_plan(json.dumps(doc))

    def test_overlong_integer_is_a_parse_error(self):
        # Past the interpreter's 4300-digit limit on int() of a string.
        with pytest.raises(ParseError, match="^malformed JSON: "):
            parse_plan('{"kind": "mixed", "config": {"seed": ' + "9" * 5000 + "}}")

    @pytest.mark.parametrize(
        "config, digest",
        [
            (MixConfig(2000, 300, 12, seed=9, epochs=3),
             "80cc181a8e1ad23c1c6c7c0d92e7d9d5df528b78049f4889d8d701834fc5b46a"),
            (MixConfig(50, 0, 5, ratio=(1, 0), seed=3, epochs=2),
             "6e374a942bb31f34339dbb449e1ed705eabf221f10dbf87cd31dff147d560783"),
            (MixConfig(0, 40, 4, ratio=(0, 1), seed=3, epochs=2),
             "bd0539ece67a91d08bd0bede0c4331b0520b9274b4fe17548552f759404157b0"),
        ],
        ids=["two_to_one", "synthetic_only", "real_only"],
    )
    def test_mixed_plan_bytes_are_pinned(self, config, digest):
        text = serialize_plan(plan_mixed_batches(config))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_curate_plan_file_is_pinned(self, tmp_path, capsys):
        # The plan file of the benchmark's curate workload: the serialized text
        # and the newline that ends every written file.
        out = tmp_path / "mix.json"
        args = ["plan-batches", "--n-synthetic", "20000", "--n-real", "3000",
                "--batch-size", "12", "--seed", "9", "--epochs", "10", "--out", str(out)]
        assert cli.run(args) == 0, capsys.readouterr().err
        digest = "106c2b19da7aa4bcff8b90d498291759cde21b1cda671c0787a86f1add98549a"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "entry", [("syn", True), ("syn", 1.0), ("val", 0)], ids=["bool", "float", "val"]
    )
    def test_serialize_refuses_entries_that_would_not_parse(self, entry):
        plan = BatchPlan(MixConfig(4, 2, 3), epochs=(((("syn", 0), entry, ("real", 0)),),))
        with pytest.raises(InvalidConfig) as exc_info:
            serialize_plan(plan)
        message = f"plan entries must be ('syn' or 'real', int), got {entry!r}"
        assert str(exc_info.value) == message

    def test_serialize_rejects_foreign_objects(self):
        with pytest.raises(InvalidConfig):
            serialize_plan("not a plan")
