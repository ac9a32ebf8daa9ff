"""Folksonomy analytics and tag-based resource classification toolkit.

The names below are imported from their submodule on first use (PEP 562),
so that `import folkclass` and the counting-only CLI subcommands do not
load numpy.
"""

import importlib

# Each package-level name and the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(
        ("Bookmark", "Folksonomy", "IngestReport", "TagFrequencies",
         "corpus_statistics", "filter_popular", "ingest_bookmarks", "novelty_ratios",
         "parse_bookmark_lines", "strip_reading_state"), "folksonomy"),
    **dict.fromkeys(("CategoryAssignment", "prune_small_categories"), "labels"),
    **dict.fromkeys(("FeatureVector", "Vocabulary", "build_vocabulary"), "vectors"),
    **dict.fromkeys(
        ("RepresentationScheme", "Selection", "TextPipelineConfig", "Weighting",
         "represent_resource", "represent_text", "tag_vocabulary", "top_k_tags"),
        "representation"),
    **dict.fromkeys(
        ("InverseFrequencyKind", "correlate_weightings", "inverse_frequency",
         "pearson", "spearman", "weight_resource"), "weighting"),
    **dict.fromkeys(
        ("LabeledDataset", "LinearModel", "OneVsOneModel", "TrainConfig",
         "evaluate_accuracy", "objective_value", "self_train_2step", "train",
         "train_binary", "train_native", "train_one_vs_all", "train_one_vs_one"),
        "svm"),
    **dict.fromkeys(
        ("MarginTable", "combine", "normalize_margins", "predict_committee",
         "predict_committee_batch"), "committees"),
    **dict.fromkeys(
        ("UserProfile", "UserSplit", "all_profiles", "descriptiveness", "orphan",
         "rank_users", "split_by_assignments", "tpp", "trr", "user_profile"),
        "behavior"),
    **dict.fromkeys(("RegimeConfig", "generate", "generate_bookmarks"), "generator"),
    **dict.fromkeys(
        ("ExperimentSpec", "hash_split", "run_experiment", "run_topk_sweep"),
        "harness"),
}

# Every submodule, reachable as an attribute of the package.
_SUBMODULES = ("behavior", "choices", "cli", "committees", "errors", "folksonomy",
               "generator", "harness", "labels", "porter", "representation", "svm",
               "vectors", "weighting")

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
