"""Deterministic training schedules for mixing synthetic and real data.

Two strategies are covered: mixed batches holding a fixed synthetic:real
ratio (default 2:1), and a two-phase fine-tune (all epochs on synthetic
data, then all epochs on real data, all weights unfrozen in both). Plans
are pure data, a pure function of their config, and serialize to JSON for
consumption by any trainer.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import asdict, dataclass, fields
from typing import Iterator, Union

from . import DEFAULT_RATIO
from .errors import InvalidConfig, ParseError

try:  # hashlib loads OpenSSL, about 3 MB of peak memory, for the same digest.
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

SYNTHETIC = "syn"
REAL = "real"

Entry = tuple[str, int]
Batch = tuple[Entry, ...]
Epoch = tuple[Batch, ...]


@dataclass(frozen=True)
class MixConfig:
    """Inputs that fully determine a mixed-batch plan."""

    n_synthetic: int
    n_real: int
    batch_size: int
    ratio: tuple[int, int] = DEFAULT_RATIO
    seed: int = 0
    epochs: int = 1


@dataclass(frozen=True)
class BatchPlan:
    config: MixConfig
    epochs: tuple[Epoch, ...]


@dataclass(frozen=True)
class FineTunePlan:
    """``phase1_epochs`` on synthetic data, then ``phase2_epochs`` on real
    data, all weights unfrozen in both phases."""

    phase1_epochs: int
    phase2_epochs: int


def _permutation(n: int, *tokens: object) -> list[int]:
    """Seeded permutation of range(n); the seed is derived from the tokens."""
    digest = sha256("/".join(str(t) for t in tokens).encode()).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    indices = list(range(n))
    rng.shuffle(indices)
    return indices


def _validate_mix_config(config: MixConfig) -> tuple[int, int, int]:
    """``(synthetic slots, real slots, batches)`` of each epoch of ``config``."""
    ratio = config.ratio
    if type(ratio) is not tuple or len(ratio) != 2:
        raise InvalidConfig(f"ratio must be a pair of integers, got {ratio!r}")
    counts = (config.n_synthetic, config.n_real, config.batch_size, config.seed, config.epochs)
    if any(type(value) is not int for value in (*counts, *ratio)):
        raise InvalidConfig(f"sizes, seed, epochs and ratio parts must be integers, got {config}")
    syn_parts, real_parts = ratio
    if syn_parts < 0 or real_parts < 0 or syn_parts + real_parts == 0:
        raise InvalidConfig("ratio parts must be non-negative with at least one positive")
    if config.n_synthetic < 0 or config.n_real < 0:
        raise InvalidConfig("dataset sizes must be non-negative")
    if config.batch_size <= 0:
        raise InvalidConfig("batch_size must be positive")
    if config.batch_size % (syn_parts + real_parts) != 0:
        raise InvalidConfig(
            f"batch_size {config.batch_size} is not divisible by "
            f"ratio total {syn_parts + real_parts}"
        )
    if config.epochs <= 0:
        raise InvalidConfig("epochs must be positive")
    per_part = config.batch_size // (syn_parts + real_parts)
    syn_per_batch = per_part * syn_parts
    real_per_batch = per_part * real_parts
    if syn_per_batch > 0 and config.n_synthetic < syn_per_batch:
        raise InvalidConfig(
            f"synthetic dataset ({config.n_synthetic}) cannot fill one batch "
            f"({syn_per_batch} synthetic slots)"
        )
    if real_per_batch > 0 and config.n_real <= 0:
        raise InvalidConfig("real parts are positive but the real dataset is empty")
    if syn_per_batch > 0:
        n_batches = config.n_synthetic // syn_per_batch
    else:
        n_batches = config.n_real // real_per_batch
    if n_batches == 0:
        raise InvalidConfig(
            f"real dataset ({config.n_real}) cannot fill one batch ({real_per_batch} real slots)"
        )
    return syn_per_batch, real_per_batch, n_batches


def _wraparound(n: int, seed: int, epoch: int) -> Iterator[int]:
    """Dataset indices, reshuffled each time the set is exhausted.

    Consuming whole permutations back to back keeps occurrence counts of any
    two indices within 1 of each other at every point in the stream.
    """
    return itertools.chain.from_iterable(
        _permutation(n, seed, REAL, epoch, chunk) for chunk in itertools.count()
    )


def plan_mixed_batches(config: MixConfig) -> BatchPlan:
    """Lay out every batch of every epoch for ratio-mixed training.

    Per epoch, synthetic indices form a fresh seeded permutation consumed in
    order; the epoch ends when the remaining synthetic samples cannot fill a
    batch (partial batches are dropped). Real indices come from an
    independent reshuffled-wraparound stream, reset each epoch, so the
    smaller real set is oversampled evenly. With no synthetic parts the real
    permutation drives the epoch instead.
    """
    syn_per_batch, real_per_batch, n_batches = _validate_mix_config(config)
    # One entry tuple per index of a dataset in use, shared by every batch of every epoch.
    syn_entries = [(SYNTHETIC, i) for i in range(config.n_synthetic)] if syn_per_batch else []
    real_entries = [(REAL, i) for i in range(config.n_real)] if real_per_batch else []

    epochs: list[Epoch] = []
    for epoch in range(config.epochs):
        syn_order = _permutation(len(syn_entries), config.seed, SYNTHETIC, epoch)
        real_order = _wraparound(len(real_entries), config.seed, epoch)
        syn_stream = map(syn_entries.__getitem__, syn_order)
        real_stream = map(real_entries.__getitem__, real_order)
        epochs.append(tuple(
            (*itertools.islice(syn_stream, syn_per_batch),
             *itertools.islice(real_stream, real_per_batch))
            for _ in range(n_batches)
        ))
    return BatchPlan(config=config, epochs=tuple(epochs))


def plan_finetune(phase1_epochs: int, phase2_epochs: int) -> FineTunePlan:
    """Two-step schedule: synthetic epochs first, then real, nothing frozen."""
    epochs = (phase1_epochs, phase2_epochs)
    if not all(type(n) is int and n >= 1 for n in epochs):
        raise InvalidConfig(f"both phases need an integer of at least 1 epoch, got {epochs}")
    return FineTunePlan(phase1_epochs, phase2_epochs)


def _entry_text(entry: Entry) -> str:
    """``entry`` as JSON text such as ``["syn",12]``."""
    domain, index = entry
    if domain not in (SYNTHETIC, REAL) or type(index) is not int:
        raise InvalidConfig(f"plan entries must be ({SYNTHETIC!r} or {REAL!r}, int), got {entry!r}")
    return f'["{domain}",{index}]'


def _plan_doc(plan: object) -> dict:
    """The document :func:`serialize_plan` writes for a finetune ``plan``."""
    if isinstance(plan, FineTunePlan):
        phases = ((SYNTHETIC, plan.phase1_epochs), (REAL, plan.phase2_epochs))
        return {
            "config": asdict(plan),
            "kind": "finetune",
            "phases": [
                {"dataset": dataset, "epochs": epochs, "all_weights_unfrozen": True}
                for dataset, epochs in phases
            ],
        }
    raise InvalidConfig(f"cannot serialize {type(plan).__name__}")


def serialize_plan(plan: Union[BatchPlan, FineTunePlan]) -> str:
    """Serialize a plan as deterministic JSON with its config echoed back.

    Mixed plans list each epoch as a flat run of [domain, index] entries;
    batch boundaries are implicit because every batch holds exactly
    config.batch_size entries. Entries are written straight to text, one
    string per epoch; an entry that is not (SYNTHETIC or REAL, int) raises
    InvalidConfig, since it would not parse back.
    """
    if not isinstance(plan, BatchPlan):
        return json.dumps(_plan_doc(plan), separators=(",", ":"))
    config = json.dumps(asdict(plan.config), separators=(",", ":"))
    epochs = "],[".join(
        ",".join(map(_entry_text, itertools.chain.from_iterable(epoch))) for epoch in plan.epochs
    )
    outer = ("[[", epochs, "]]") if plan.epochs else ("[]",)
    return "".join(('{"config":', config, ',"kind":"mixed","epochs":', *outer, "}"))


def parse_plan(source: str) -> Union[BatchPlan, FineTunePlan]:
    """Inverse of serialize_plan: parse(serialize(p)) == p.

    A finetune document must be the one :func:`serialize_plan` writes for the
    plan :func:`plan_finetune` builds from its config. A mixed config holds
    the six :class:`MixConfig` fields, checked as :func:`plan_mixed_batches`
    checks them. Its entries are checked against it in one pass, with no
    permutation built: ``config.epochs`` epochs of the planner's batch count,
    each batch its synthetic slots then its real slots, each index within its
    dataset, and no synthetic index twice in one epoch.

    Raises:
        ParseError: malformed JSON or a malformed part of the plan.
        InvalidConfig: a config that breaks the rules of its planner.
    """
    from .formats import load_json  # Here, so that planning loads no module it does not use.
    doc = load_json(source)
    if not isinstance(doc, dict) or "kind" not in doc or "config" not in doc:
        raise ParseError("expected a plan document with 'kind' and 'config'")
    kind = doc["kind"]
    cfg = doc["config"]
    if kind == "finetune":
        try:
            plan = plan_finetune(cfg["phase1_epochs"], cfg["phase2_epochs"])
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad finetune-plan config: {exc}") from exc
        expected = _plan_doc(plan)
        if json.dumps(doc, sort_keys=True) != json.dumps(expected, sort_keys=True):
            raise ParseError(f"finetune plan is not the one its config gives: {expected}")
        return plan
    if kind == "mixed":
        keys = [field.name for field in fields(MixConfig)]
        if not isinstance(cfg, dict) or set(cfg) != set(keys):
            raise ParseError(f"mixed-plan config must hold the keys {keys}, got {cfg!r}")
        ratio = cfg["ratio"]
        config = MixConfig(**{**cfg, "ratio": tuple(ratio) if type(ratio) is list else ratio})
        syn_per_batch, real_per_batch, n_batches = _validate_mix_config(config)
        flat_epochs = doc.get("epochs", [])
        if not isinstance(flat_epochs, list) or len(flat_epochs) != config.epochs:
            raise ParseError(f"epochs must be an array of {config.epochs} epochs")
        slots = (SYNTHETIC,) * syn_per_batch + (REAL,) * real_per_batch
        sizes = {SYNTHETIC: config.n_synthetic, REAL: config.n_real}
        epochs: list[Epoch] = []
        for e_idx, flat in enumerate(flat_epochs):
            if not isinstance(flat, list) or len(flat) != n_batches * config.batch_size:
                raise ParseError(
                    f"epoch {e_idx} must hold {n_batches} batches of {config.batch_size} entries"
                )
            entries: list[Entry] = []
            synthetic: set[int] = set()
            for position, entry in enumerate(flat):
                domain = slots[position % config.batch_size]
                if (
                    not isinstance(entry, list)
                    or len(entry) != 2
                    or entry[0] != domain
                    or type(entry[1]) is not int
                    or not 0 <= entry[1] < sizes[domain]
                    or (domain == SYNTHETIC and entry[1] in synthetic)
                ):
                    raise ParseError(
                        f"bad plan entry {entry!r} at {position} in epoch {e_idx}: expected "
                        f"[{domain!r}, i], i in range({sizes[domain]})"
                        + (" and not used before in the epoch" if domain == SYNTHETIC else "")
                    )
                if domain == SYNTHETIC:
                    synthetic.add(entry[1])
                entries.append((domain, entry[1]))
            batches = tuple(
                tuple(entries[i : i + config.batch_size])
                for i in range(0, len(entries), config.batch_size)
            )
            epochs.append(batches)
        return BatchPlan(config=config, epochs=tuple(epochs))
    raise ParseError(f"unknown plan kind {kind!r}")
