"""Command-line entry point.

Subcommands: ingest | stats | represent | weight | train | eval |
committee | behavior | gen | sweep.  Exit codes: 0 success, 1 runtime
error (diagnostic on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable, Sequence
from pathlib import Path

import numpy as np

from . import behavior as behavior_mod
from . import svm
from .committees import (MarginTable, combine, predict_committee_batch,
                         read_margin_lines, write_margin_lines)
from .errors import ToolkitError
from .folksonomy import (DEFAULT_READING_STATE_TAGS, Folksonomy, bookmark_to_line,
                         corpus_statistics, ingest_bookmarks, label_map,
                         novelty_ratios, parse_bookmark_lines,
                         parse_category_lines, strip_reading_state)
from .generator import REGIMES, RegimeConfig, generate_bookmarks
from .harness import (ExperimentSpec, parse_flat_config, run_experiment,
                      run_topk_sweep)
from .representation import RepresentationScheme, load_stopwords, tag_vocabulary
from .svm import LabeledDataset, TrainConfig
from .vectors import FeatureVector, read_vector_lines, write_vector_lines
from .weighting import (InverseFrequencyKind, correlate_weightings, parse_member,
                        vectorize)

__all__ = ["main"]


def _read_lines(path: str) -> list[str]:
    return Path(path).read_text(encoding="utf-8").splitlines()


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _write_json(doc: dict, path: str | None) -> None:
    _write_output(json.dumps(doc, indent=2) + "\n", path)


def _write_tsv(lines: Iterable[str], path: str | None) -> None:
    _write_output("".join(line + "\n" for line in lines), path)


def _load_folksonomy(args) -> Folksonomy:
    stream = parse_bookmark_lines(_read_lines(args.bookmarks))
    if args.strip_reading_state:
        blocked = DEFAULT_READING_STATE_TAGS
        if args.blocked_tags:
            blocked = load_stopwords(_read_lines(args.blocked_tags))
        stream = strip_reading_state(stream, blocked)
    return ingest_bookmarks(stream)


def _mean_novelty_by_rank(f: Folksonomy, allow_synthetic: bool) -> list[dict]:
    by_rank: dict[int, list[float]] = {}
    for r in sorted(f.resource_bookmarks):
        for rank, ratio in novelty_ratios(f, r, allow_synthetic_order=allow_synthetic):
            by_rank.setdefault(rank, []).append(ratio)
    return [{"rank": rank, "mean_ratio": sum(v) / len(v), "n_resources": len(v)}
            for rank, v in sorted(by_rank.items())]


def _cmd_ingest(args) -> int:
    f = _load_folksonomy(args)
    _write_json({"meta": {"kind": "ingest"}, "report": f.report.as_dict()}, args.output)
    return 0


def _cmd_stats(args) -> int:
    f = _load_folksonomy(args)
    report = corpus_statistics(f)
    if args.novelty:
        report["novelty_by_rank"] = _mean_novelty_by_rank(
            f, args.allow_synthetic_order)
    _write_json(report, args.output)
    return 0


def _cmd_vectors(args) -> int:   # represent and weight
    f = _load_folksonomy(args)
    if args.correlate:
        _write_json({"meta": {"kind": "correlation"},
                     "correlation": correlate_weightings(f)}, args.output)
        return 0
    member = (RepresentationScheme.parse(args.scheme) if args.command == "represent"
              else InverseFrequencyKind(args.kind))
    vocab = tag_vocabulary(f, args.min_df)
    vectors = vectorize(f, member, vocab, sorted(f.resource_tag_weights))
    _write_tsv(write_vector_lines(vectors), args.output)
    if args.vocab_out:
        _write_json({"n_documents": vocab.n_documents,
                     "doc_frequency": vocab.doc_frequency}, args.vocab_out)
    return 0


def _labeled_dataset(vectors: dict[str, FeatureVector], labels_path: str,
                     level: str, categories: Sequence[str] = (),
                     ) -> tuple[LabeledDataset, list[str]]:
    label_of = label_map(parse_category_lines(_read_lines(labels_path)), level)
    used = sorted(r for r in vectors if r in label_of)
    if not used:
        raise ToolkitError("no overlap between vectors and labels")
    categories = list(categories or sorted({label_of[r] for r in used}))
    cat_id = {c: i for i, c in enumerate(categories)}
    for r in used:
        if label_of[r] not in cat_id:
            raise ToolkitError(f"label {label_of[r]!r} of {r!r} is not a model category")
    dim = max((fv.dim for fv in vectors.values()), default=0)
    ds = LabeledDataset([(vectors[r], cat_id[label_of[r]]) for r in used],
                        categories, dim)
    return ds, used


def _cmd_train(args) -> int:
    vectors = read_vector_lines(_read_lines(args.vectors))
    ds, _ = _labeled_dataset(vectors, args.labels, args.level)
    cfg = TrainConfig(penalty=args.penalty, epochs=args.epochs,
                      seed=args.seed if args.seed is not None else 0,
                      scheme=args.scheme)
    report: dict = {"meta": {"kind": "train", "config": dict(cfg.__dict__),
                             "n_instances": len(ds),
                             "categories": ds.categories}}
    if args.self_train:
        unlabeled: list[FeatureVector] = []
        if args.unlabeled_vectors:
            extra = read_vector_lines(_read_lines(args.unlabeled_vectors),
                                      dim=ds.n_features)
            unlabeled = [extra[k] for k in sorted(extra)]
        result = svm.self_train_2step(ds, unlabeled, cfg)
        model = result.model
        report["pseudo_label_counts"] = result.pseudo_label_counts
    else:
        model = svm.train(ds, cfg)
    Path(args.model_out).write_text(svm.model_to_json(model), encoding="utf-8")
    _write_json(report, args.output)
    return 0


def _cmd_eval(args) -> int:
    model = svm.model_from_json(Path(args.model).read_text(encoding="utf-8"))
    vectors = read_vector_lines(_read_lines(args.vectors))
    ds, used = _labeled_dataset(vectors, args.labels, args.level, model.categories)
    accuracy = svm.evaluate_accuracy(model, ds)
    if args.margins_out:
        table = MarginTable(tuple(used), model.categories,
                            np.array([model.margins(fv) for fv, _ in ds.instances]))
        _write_tsv(write_margin_lines(table), args.margins_out)
    _write_json({"meta": {"kind": "eval", "model_meta": model.meta},
                 "n_instances": len(ds), "accuracy": accuracy}, args.output)
    return 0


def _cmd_committee(args) -> int:
    if len(args.margins) < 2:
        raise ToolkitError("committee needs at least 2 margin files")
    tables = [read_margin_lines(_read_lines(p)) for p in args.margins]
    summed, report = combine(tables, normalize=not args.no_normalize)
    predictions = [{"instance": inst, "category": category}
                   for inst, category in zip(summed.instances,
                                             predict_committee_batch(summed))]
    _write_json({
        "meta": {"kind": "committee", "members": list(args.margins),
                 "normalization": report},
        "predictions": predictions,
        "scores": [
            {"instance": inst,
             "scores": {c: float(s) for c, s in zip(summed.categories, row)}}
            for inst, row in zip(summed.instances, summed.scores)
        ],
    }, args.output)
    return 0


def _cmd_behavior(args) -> int:
    f = _load_folksonomy(args)
    profiles = behavior_mod.all_profiles(f)
    if args.measure is None:
        _write_tsv(behavior_mod.profile_lines(profiles), args.output)
        return 0
    ranked = behavior_mod.rank_users(profiles, args.measure)
    split = behavior_mod.split_by_assignments(ranked, args.percent, args.measure)
    _write_json({
        "meta": {"kind": "behavior-split", "measure": args.measure,
                 "percent": args.percent,
                 "ranking_direction": behavior_mod.RANKING_DIRECTION},
        "categorizers": list(split.categorizers),
        "describers": list(split.describers),
        "categorizer_fraction": split.categorizer_fraction,
        "describer_fraction": split.describer_fraction,
    }, args.output)
    return 0


def _cmd_gen(args) -> int:
    cfg = RegimeConfig(
        regime=args.regime, n_users=args.users, n_resources=args.resources,
        bookmarks_per_user=tuple(args.bookmarks_per_user),
        tags_per_bookmark=tuple(args.tags_per_bookmark),
        pool_size=args.pool, acceptance=args.acceptance,
        zipf_exponent=args.zipf,
        seed=args.seed if args.seed is not None else 0)
    lines = [bookmark_to_line(b) for b in generate_bookmarks(cfg)]
    _write_tsv(lines, args.output)
    return 0


SWEEP_KEYS = ("member", "sizes", "runs", "base_seed", "level", "penalty", "epochs",
              "svm_scheme", "test_fraction", "min_df", "mode", "k_values",
              "committee")


def _cmd_sweep(args) -> int:
    config = parse_flat_config(_read_lines(args.config))
    unknown = sorted(set(config) - set(SWEEP_KEYS))
    if unknown:
        raise ToolkitError(
            f"{args.config}: unknown config key(s) {', '.join(unknown)}; "
            f"accepted keys: {', '.join(SWEEP_KEYS)}")
    f = _load_folksonomy(args)
    labels = list(parse_category_lines(_read_lines(args.labels)))
    train_cfg = TrainConfig(
        penalty=float(config.get("penalty", "1.0")),
        epochs=int(config.get("epochs", "100")),
        scheme=config.get("svm_scheme", "native"),
    )
    committee = None
    if "committee" in config:
        committee = tuple(parse_member(m.strip())
                          for m in config["committee"].split(","))
    spec = ExperimentSpec(
        member=parse_member(config.get("member", "weighted-fta")),
        train=train_cfg,
        sizes=tuple(int(s) for s in config.get("sizes", "50").split(",")),
        runs=int(config.get("runs", "6")),
        base_seed=args.seed if args.seed is not None
        else int(config.get("base_seed", "0")),
        level=config.get("level", "top"),
        committee=committee,
        test_fraction=float(config.get("test_fraction", "0.4")),
        min_df_fraction=float(config.get("min_df", "0.0")),
    )
    if config.get("mode", "experiment") == "topk":
        k_values = [int(k) for k in config.get("k_values", "1,5,10").split(",")]
        report = run_topk_sweep(spec, f, labels, k_values)
    else:
        report = run_experiment(spec, f, labels)
    _write_json(report, args.output)
    return 0


def _add_bookmark_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bookmarks", required=True,
                   help="line-delimited bookmark records (JSON per line)")
    p.add_argument("--strip-reading-state", action="store_true",
                   help="drop reading-state tags before ingestion")
    p.add_argument("--blocked-tags", default=None,
                   help="file with one blocked tag per line "
                        "(default: read, currently-reading, to-read)")


def _add_seed_arg(p: argparse.ArgumentParser) -> None:
    # SUPPRESS keeps a pre-subcommand --seed from being clobbered by the default
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="seed for this command (same as the global --seed)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="folkclass",
        description="Folksonomy analytics and tag-based resource classification")
    parser.add_argument("--seed", type=int, default=None,
                        help="global seed override")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="ingest bookmarks and report counts")
    _add_bookmark_args(p)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("stats", help="corpus-level distribution statistics")
    _add_bookmark_args(p)
    p.add_argument("--novelty", action="store_true",
                   help="include mean tag novelty per bookmark rank")
    p.add_argument("--allow-synthetic-order", action="store_true",
                   help="allow novelty statistics over stream-position ordering")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("represent", help="tag-based resource vectors")
    _add_bookmark_args(p)
    p.add_argument("--scheme", required=True,
                   help="e.g. ranks-top10, fractions-fta, weighted-top5")
    p.add_argument("--min-df", type=float, default=0.0)
    p.add_argument("--vocab-out", default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_vectors, correlate=False)

    p = sub.add_parser("weight", help="inverse-frequency weighted vectors")
    _add_bookmark_args(p)
    p.add_argument("--kind", choices=[k.value for k in InverseFrequencyKind],
                   default="irf")
    p.add_argument("--min-df", type=float, default=0.0)
    p.add_argument("--correlate", action="store_true",
                   help="emit correlations between the weighting functions instead")
    p.add_argument("--vocab-out", default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_vectors)

    p = sub.add_parser("train", help="train a multiclass linear classifier")
    p.add_argument("--vectors", required=True)
    p.add_argument("--labels", required=True,
                   help="resource<TAB>top<TAB>second lines")
    p.add_argument("--level", choices=["top", "second"], default="top")
    p.add_argument("--scheme", choices=list(svm.SCHEMES), default="native")
    p.add_argument("--penalty", type=float, default=1.0)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--self-train", action="store_true")
    p.add_argument("--unlabeled-vectors", default=None)
    p.add_argument("--model-out", required=True)
    _add_seed_arg(p)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="accuracy of a model on labeled vectors")
    p.add_argument("--model", required=True)
    p.add_argument("--vectors", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--level", choices=["top", "second"], default="top")
    p.add_argument("--margins-out", default=None,
                   help="write per-instance margins for committee use")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("committee", help="combine margin files")
    p.add_argument("margins", nargs="+", help="two or more margin files")
    p.add_argument("--no-normalize", action="store_true",
                   help="sum raw margins without per-classifier normalization")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_committee)

    p = sub.add_parser("behavior", help="user tagging-motivation measures")
    _add_bookmark_args(p)
    p.add_argument("--measure", choices=list(behavior_mod.MEASURES), default=None)
    p.add_argument("--percent", type=float, default=50.0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_behavior)

    p = sub.add_parser("gen", help="generate a synthetic bookmark stream")
    p.add_argument("--regime", choices=list(REGIMES), required=True)
    p.add_argument("--users", type=int, default=50)
    p.add_argument("--resources", type=int, default=25)
    p.add_argument("--pool", type=int, default=200)
    p.add_argument("--acceptance", type=float, default=0.5)
    p.add_argument("--zipf", type=float, default=1.0)
    p.add_argument("--bookmarks-per-user", type=int, nargs=2, default=[5, 10],
                   metavar=("LO", "HI"))
    p.add_argument("--tags-per-bookmark", type=int, nargs=2, default=[1, 5],
                   metavar=("LO", "HI"))
    _add_seed_arg(p)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("sweep", help="run a configured experiment sweep")
    _add_bookmark_args(p)
    p.add_argument("--labels", required=True)
    p.add_argument("--config", required=True, help="flat key = value file")
    _add_seed_arg(p)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "unlabeled_vectors", None) and not args.self_train:
        parser.error("--unlabeled-vectors needs --self-train")
    if getattr(args, "blocked_tags", None) and not args.strip_reading_state:
        parser.error("--blocked-tags needs --strip-reading-state")
    try:
        return args.func(args)
    except (ToolkitError, ValueError, OSError) as exc:
        print(f"folkclass: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
