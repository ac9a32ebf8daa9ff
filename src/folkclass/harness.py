"""Experiment orchestration: seeded size sweeps with run averaging.

The labeled corpus is split once per experiment by a stable content hash of
the resource id (default 40% test), so the test partition is identical for
every size and run.  For each training-set size, `runs` seeded random
labeled subsets are drawn (seed = base + run index), a classifier is
trained per subset, and per-run plus mean accuracy are reported.  Reports
embed the fully resolved configuration and all seeds, so a report can be
reproduced bit for bit.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InsufficientDataError
from .folksonomy import Folksonomy
from .labels import CategoryAssignment, check_level, label_map
from .representation import RepresentationScheme, Selection, Weighting
from .svm import LabeledDataset, TrainConfig, train
from .committees import MarginTable, combine, predict_committee_batch
from .vectors import build_vocabulary
from .weighting import Member, member_name, parse_member, vectorize

__all__ = [
    "ExperimentSpec", "hash_split", "run_experiment", "run_topk_sweep",
    "SWEEP_KEYS", "sweep_from_config",
    "parse_flat_config", "format_flat_config",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """What to represent, how to train, and the sweep protocol."""

    member: Member = field(
        default_factory=lambda: RepresentationScheme(Weighting.WEIGHTED, Selection.FTA))
    train: TrainConfig = field(default_factory=TrainConfig)
    sizes: tuple[int, ...] = (50,)
    runs: int = 6
    base_seed: int = 0
    level: str = "top"
    committee: tuple[Member, ...] | None = None
    test_fraction: float = 0.4
    min_df_fraction: float = 0.0

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        check_level(self.level)
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if not self.sizes or any(s < 1 for s in self.sizes):
            raise ValueError(f"sizes must be positive, got {self.sizes}")
        if self.committee is not None and len(self.committee) == 0:
            raise ValueError("committee member list must not be empty")


def hash_split(resources: Iterable[str], test_fraction: float,
               ) -> tuple[list[str], list[str]]:
    """Deterministic (train, test) partition keyed on a hash of the id."""
    train_part, test_part = [], []
    cut = int(test_fraction * 10 ** 6)
    for r in sorted(resources):
        bucket = int.from_bytes(hashlib.sha256(r.encode()).digest()[:8], "big") % 10 ** 6
        (test_part if bucket < cut else train_part).append(r)
    return train_part, test_part


_MAX_SAMPLE_RETRIES = 100


def _sample_covering(pool: Sequence[str], size: int, label_of: dict[str, str],
                     categories: Sequence[str], rng: np.random.Generator,
                     ) -> tuple[list[str], int]:
    """Random subset of `size` resources containing every category at least once."""
    if size < len(categories):
        raise InsufficientDataError(
            f"size {size} cannot cover all {len(categories)} categories")
    for retry in range(_MAX_SAMPLE_RETRIES):
        chosen = [pool[i] for i in rng.choice(len(pool), size=size, replace=False)]
        if {label_of[r] for r in chosen} == set(categories):
            return chosen, retry
    raise InsufficientDataError(
        f"could not draw a size-{size} subset covering all categories")


def run_experiment(spec: ExperimentSpec, f: Folksonomy,
                   labels: Iterable[CategoryAssignment]) -> dict:
    """Training-size sweep with seeded run averaging on a fixed test partition."""
    label_of = label_map(labels, spec.level)
    pool = sorted(r for r in label_of if r in f.resource_tag_weights)
    if not pool:
        raise InsufficientDataError("no labeled annotated resources")
    categories = sorted({label_of[r] for r in pool})
    cat_id = {c: i for i, c in enumerate(categories)}
    train_pool, test_pool = hash_split(pool, spec.test_fraction)
    if not test_pool:
        raise InsufficientDataError("the test partition is empty")
    for size in spec.sizes:
        if size > len(train_pool):
            raise InsufficientDataError(
                f"size {size} exceeds the {len(train_pool)} resources "
                "available for training")

    members = list(spec.committee) if spec.committee else [spec.member]
    vocab = build_vocabulary(
        (list(f.resource_tag_weights[r]) for r in train_pool),
        spec.min_df_fraction)

    vectors = {member_name(m): vectorize(f, m, vocab, pool) for m in members}
    test_labels = [cat_id[label_of[r]] for r in test_pool]

    results = []
    for size in spec.sizes:
        run_rows = []
        for run in range(spec.runs):
            seed = spec.base_seed + run
            rng = np.random.default_rng(seed)
            chosen, retries = _sample_covering(
                train_pool, size, label_of, categories, rng)
            cfg = replace(spec.train, seed=seed)
            fitted = []
            for m in members:
                vs = vectors[member_name(m)]
                ds = LabeledDataset(
                    [(vs[r], cat_id[label_of[r]]) for r in chosen],
                    categories, len(vocab))
                fitted.append((train(ds, cfg), vs))
            if spec.committee:
                tables = [MarginTable(
                    tuple(test_pool), tuple(categories),
                    model.margins_batch([vs[r] for r in test_pool]))
                    for model, vs in fitted]
                summed, _ = combine(tables, normalize=True)
                predicted = [cat_id[c] for c in predict_committee_batch(summed)]
            else:
                # one member decides by its own rule: one-vs-one votes
                # pairwise, which a committee of one would not
                [(model, vs)] = fitted
                predicted = model.predict_batch([vs[r] for r in test_pool]).tolist()
            correct = sum(1 for p, cid in zip(predicted, test_labels) if p == cid)
            accuracy = correct / len(test_pool)
            run_rows.append({"run": run, "seed": seed, "accuracy": accuracy,
                             "resampled": retries})
        results.append({
            "size": size,
            "runs": run_rows,
            "mean_accuracy": sum(r["accuracy"] for r in run_rows) / len(run_rows),
        })

    return {
        "meta": {
            "kind": "experiment",
            "member": member_name(spec.member),
            "committee": [member_name(m) for m in spec.committee]
            if spec.committee else None,
            "train": spec.train.record(),
            "sizes": list(spec.sizes),
            "runs": spec.runs,
            "base_seed": spec.base_seed,
            "level": spec.level,
            "partition": {"policy": "sha256-bucket", "test_fraction": spec.test_fraction},
            "min_df_fraction": spec.min_df_fraction,
        },
        "data": {
            "n_labeled": len(pool),
            "n_train_pool": len(train_pool),
            "n_test": len(test_pool),
            "categories": categories,
            "vocabulary_size": len(vocab),
        },
        "results": results,
    }


_TREND_TOLERANCE = 0.02


def run_topk_sweep(spec: ExperimentSpec, f: Folksonomy,
                   labels: Iterable[CategoryAssignment],
                   k_values: Sequence[int]) -> dict:
    """Accuracy table over top-K cutoffs of the count-weighted scheme, plus FTA.

    Each size row carries a flag telling whether mean accuracy is
    non-decreasing (within a small tolerance) as K grows toward the full
    tag set.
    """
    if any(k < 1 for k in k_values):
        raise ValueError(f"k values must be >= 1, got {list(k_values)}")
    labels = list(labels)
    rows = []
    for k in sorted(k_values):
        member = RepresentationScheme(Weighting.WEIGHTED, Selection.TOP_K, k)
        report = run_experiment(replace(spec, member=member, committee=None), f, labels)
        rows.append({"k": k, "results": report["results"]})
    fta_report = run_experiment(
        replace(spec, member=RepresentationScheme(Weighting.WEIGHTED, Selection.FTA),
                committee=None),
        f, labels)
    trend = []
    for i, size in enumerate(spec.sizes):
        curve = [row["results"][i]["mean_accuracy"] for row in rows]
        curve.append(fta_report["results"][i]["mean_accuracy"])
        non_decreasing = all(b >= a - _TREND_TOLERANCE
                             for a, b in zip(curve, curve[1:]))
        trend.append({"size": size, "non_decreasing": non_decreasing})
    return {
        "meta": {"kind": "topk-sweep", "k_values": sorted(k_values),
                 "trend_tolerance": _TREND_TOLERANCE,
                 "base": fta_report["meta"]},
        "data": fta_report["data"],
        "results": {"topk": rows, "fta": fta_report["results"],
                    "accuracy_trend": trend},
    }


def _list_of(parse):
    return lambda value: tuple(parse(v.strip()) for v in value.split(","))


# Each sweep config key, the field it sets and the value parser: an
# ExperimentSpec field, a "train." one of its TrainConfig, or the mode and
# top-K cutoffs that pick the sweep.  A key left out keeps its default.
SWEEP_KEYS = {
    "member": ("member", parse_member),
    "sizes": ("sizes", _list_of(int)),
    "runs": ("runs", int),
    "base_seed": ("base_seed", int),
    "level": ("level", str),
    "penalty": ("train.penalty", float),
    "epochs": ("train.epochs", int),
    "svm_scheme": ("train.scheme", str),
    "test_fraction": ("test_fraction", float),
    "min_df": ("min_df_fraction", float),
    "mode": ("mode", str),
    "k_values": ("k_values", _list_of(int)),
    "committee": ("committee", _list_of(parse_member)),
}


def sweep_from_config(config: Mapping[str, str],
                      ) -> tuple[ExperimentSpec, tuple[int, ...] | None]:
    """The spec and top-K cutoffs (None in experiment mode) a sweep config sets.

    Unknown keys, a value its key's parser rejects, a mode other than
    experiment or topk, and k_values outside topk mode raise ValueError
    naming them.
    """
    unknown = sorted(set(config) - set(SWEEP_KEYS))
    if unknown:
        raise ValueError(f"unknown config key(s) {', '.join(unknown)}; "
                         f"accepted keys: {', '.join(SWEEP_KEYS)}")
    fields = {}
    for key, value in config.items():
        name, parse = SWEEP_KEYS[key]
        try:
            fields[name] = parse(value)
        except ValueError as exc:
            raise ValueError(f"{key} = {value}: {exc}") from exc
    mode = fields.pop("mode", "experiment")
    if mode not in ("experiment", "topk"):
        raise ValueError(f"mode = {mode}: expected experiment or topk")
    k_values = fields.pop("k_values", (1, 5, 10))
    if "k_values" in config and mode != "topk":
        raise ValueError(f"k_values = {config['k_values']} needs mode = topk")
    train_fields = {name.removeprefix("train."): fields.pop(name)
                    for name in list(fields) if name.startswith("train.")}
    spec = ExperimentSpec(train=TrainConfig(**train_fields), **fields)
    return spec, k_values if mode == "topk" else None


def parse_flat_config(lines: Iterable[str]) -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment, blanks are skipped."""
    out: dict[str, str] = {}
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"expected 'key = value', got {raw.rstrip()!r}")
        out[key.strip()] = value.strip()
    return out


def format_flat_config(config: Mapping[str, str]) -> str:
    """`key = value` lines; ValueError for an entry that would not read back."""
    lines = [f"{key} = {value}\n" for key, value in config.items()]
    for line, entry in zip(lines, config.items()):
        if ("#" in line or len(line.splitlines()) != 1
                or parse_flat_config([line]) != dict([entry])):
            raise ValueError(f"config entry {line.strip()!r} would not read back")
    return "".join(lines)
