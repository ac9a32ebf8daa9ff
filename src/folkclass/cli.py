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
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING

from .choices import (DEFAULT_READING_STATE_TAGS, INVERSE_FREQUENCY_KINDS, LEVELS,
                      MEASURES, REGIMES, SCHEMES)
from .errors import ToolkitError

# Every other folkclass module is imported inside the handlers that compute
# with it, so that a process loads only what its subcommand runs (README).
if TYPE_CHECKING:
    from .folksonomy import Folksonomy
    from .svm import LabeledDataset
    from .vectors import FeatureVector

__all__ = ["main"]


def _read_lines(path: str) -> list[str]:
    # "\n" only: str.splitlines() would also split at U+0085, U+2028 and
    # U+2029, which bookmark_to_line writes raw inside a tag
    return Path(path).read_text(encoding="utf-8").split("\n")


@contextmanager
def _reading(path: str):
    """A malformed-input error raised inside names the file at `path` first,
    as `{path}: {reason}`; an OSError already holds the path."""
    try:
        yield
    except ValueError as exc:
        raise ToolkitError(f"{path}: {exc}") from exc


def _config(cls, args):
    """`cls` from the options the user set; an unset option keeps its default.
    A dataclass and a `records.Record` both list their fields in `__match_args__`."""
    fields = cls.__match_args__
    return cls(**{name: tuple(value) if isinstance(value, list) else value
                  for name, value in vars(args).items() if name in fields})


def _scheme(text: str):    # --scheme: a typo is a usage error, before any input is read
    from .representation import RepresentationScheme
    try:
        return RepresentationScheme.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


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
    from .folksonomy import ingest_bookmarks, parse_bookmark_lines, strip_reading_state

    blocked = DEFAULT_READING_STATE_TAGS
    if args.blocked_tags:     # main() has checked --strip-reading-state
        from .representation import load_stopwords
        with _reading(args.blocked_tags):
            blocked = load_stopwords(_read_lines(args.blocked_tags))
    with _reading(args.bookmarks):
        stream = parse_bookmark_lines(_read_lines(args.bookmarks))
        if args.strip_reading_state:
            stream = strip_reading_state(stream, blocked)
        return ingest_bookmarks(stream)


def _cmd_ingest(args) -> int:
    f = _load_folksonomy(args)
    _write_json({"meta": {"kind": "ingest"}, "report": f.report.as_dict()}, args.output)
    return 0


def _cmd_stats(args) -> int:
    from .folksonomy import corpus_statistics, novelty_ratios

    f = _load_folksonomy(args)
    report = corpus_statistics(f)
    if args.novelty:    # the mean novelty ratio at each bookmark rank
        by_rank: dict[int, list[float]] = {}
        for r in sorted(f.resource_bookmarks):
            for rank, ratio in novelty_ratios(f, r, args.allow_synthetic_order):
                by_rank.setdefault(rank, []).append(ratio)
        report["novelty_by_rank"] = [
            {"rank": rank, "mean_ratio": sum(v) / len(v), "n_resources": len(v)}
            for rank, v in sorted(by_rank.items())]
    _write_json(report, args.output)
    return 0


def _cmd_vectors(args) -> int:   # represent and weight
    from .representation import tag_vocabulary
    from .vectors import write_vector_lines
    from .weighting import InverseFrequencyKind, correlate_weightings, vectorize

    f = _load_folksonomy(args)
    if getattr(args, "correlate", False):    # weight only
        _write_json({"meta": {"kind": "correlation"},
                     "correlation": correlate_weightings(f)}, args.output)
        return 0
    member = args.scheme if args.command == "represent" else InverseFrequencyKind(args.kind)
    vocab = tag_vocabulary(f, args.min_df)
    vectors = vectorize(f, member, vocab, sorted(f.resource_tag_weights))
    _write_tsv(write_vector_lines(vectors), args.output)
    if args.vocab_out:
        _write_json({"n_documents": vocab.n_documents,
                     "doc_frequency": vocab.doc_frequency}, args.vocab_out)
    return 0


def _labeled_dataset(vectors: dict[str, FeatureVector], args,
                     categories: Sequence[str] = (),
                     ) -> tuple[LabeledDataset, list[str]]:
    """The dataset of the `vectors` (read from `args.vectors`) that
    `args.labels` labels at `args.level`, and their resource ids in order;
    its categories are the model's (`args.model`) if given, else the labels'."""
    from .labels import label_map, parse_category_lines
    from .svm import LabeledDataset

    with _reading(args.labels):
        label_of = label_map(parse_category_lines(_read_lines(args.labels)), args.level)
    used = sorted(r for r in vectors if r in label_of)
    if not used:
        raise ToolkitError(f"no overlap between vectors {args.vectors} "
                           f"and labels {args.labels}")
    source = args.model if categories else f"{args.labels} at level {args.level}"
    categories = list(categories or sorted({label_of[r] for r in used}))
    if len(categories) < 2:
        raise ToolkitError(f"{source}: need at least 2 categories, got {len(categories)}")
    cat_id = {c: i for i, c in enumerate(categories)}
    for r in used:
        if label_of[r] not in cat_id:
            raise ToolkitError(f"label {label_of[r]!r} of {r!r} is not a model category")
    dim = max((fv.dim for fv in vectors.values()), default=0)
    ds = LabeledDataset([(vectors[r], cat_id[label_of[r]]) for r in used],
                        categories, dim)
    return ds, used


def _cmd_train(args) -> int:
    from . import svm
    from .vectors import read_vector_lines

    with _reading(args.vectors):
        vectors = read_vector_lines(_read_lines(args.vectors))
    ds, _ = _labeled_dataset(vectors, args)
    cfg = _config(svm.TrainConfig, args)
    report: dict = {"meta": {"kind": "train", "config": cfg.record(),
                             "n_instances": len(ds),
                             "categories": ds.categories}}
    if args.self_train:
        extra: dict[str, FeatureVector] = {}
        if args.unlabeled_vectors:
            with _reading(args.unlabeled_vectors):
                extra = read_vector_lines(_read_lines(args.unlabeled_vectors),
                                          dim=ds.n_features)
        names = sorted(extra)
        try:
            result = svm.self_train_2step(ds, [extra[r] for r in names], cfg)
        except svm._VectorError as err:   # the step-1 model's margins; name the resource
            raise ToolkitError(f"{args.unlabeled_vectors}: resource {names[err.vector]!r} "
                               f"has {err.fault} under the step-1 model") from None
        model = result.model
        report["pseudo_label_counts"] = result.pseudo_label_counts
    else:
        model = svm.train(ds, cfg)
    Path(args.model_out).write_text(svm.model_to_json(model), encoding="utf-8")
    _write_json(report, args.output)
    return 0


def _cmd_eval(args) -> int:
    from . import svm
    from .committees import MarginTable, write_margin_lines
    from .vectors import read_vector_lines

    with _reading(args.model):
        model = svm.model_from_json(Path(args.model).read_text(encoding="utf-8"))
    with _reading(args.vectors):
        vectors = read_vector_lines(_read_lines(args.vectors))
    ds, used = _labeled_dataset(vectors, args, model.categories)
    try:
        accuracy, margins = svm._evaluate(model, ds)
    except svm._VectorError as err:   # svm finds it; name the files and the resource
        raise ToolkitError(f"{args.model} on {args.vectors}: resource "
                           f"{used[err.vector]!r} has {err.fault}") from None
    if args.margins_out:
        _write_tsv(write_margin_lines(MarginTable(tuple(used), model.categories,
                                                  margins.tolist())), args.margins_out)
    _write_json({"meta": {"kind": "eval", "model_meta": model.meta},
                 "n_instances": len(ds), "accuracy": accuracy}, args.output)
    return 0


def _cmd_committee(args) -> int:
    from .committees import (_MemberError, combine, predict_committee_batch,
                             read_margin_lines)

    if len(args.margins) < 2:
        raise ToolkitError("committee needs at least 2 margin files")
    tables = []
    for path in args.margins:
        with _reading(path):
            tables.append(read_margin_lines(_read_lines(path)))
    try:
        summed, report = combine(tables, normalize=not args.no_normalize)
    except _MemberError as err:   # combine finds it; name the files
        raise ToolkitError(err.naming(args.margins)) from None
    predictions = [{"instance": inst, "category": category} for inst, category
                   in zip(summed.instances, predict_committee_batch(summed))]
    _write_json({
        "meta": {"kind": "committee", "members": list(args.margins),
                 "normalization": report},
        "predictions": predictions,
        "scores": [{"instance": inst, "scores": dict(zip(summed.categories, row))}
                   for inst, row in zip(summed.instances, summed.scores)],
    }, args.output)
    return 0


def _cmd_behavior(args) -> int:
    from . import behavior

    f = _load_folksonomy(args)
    profiles = behavior.all_profiles(f)
    if args.measure is None:
        _write_tsv(behavior.profile_lines(profiles), args.output)
        return 0
    ranked = behavior.rank_users(profiles, args.measure)
    split = behavior.split_by_assignments(ranked, args.percent, args.measure)
    _write_json({
        "meta": {"kind": "behavior-split", "measure": args.measure,
                 "percent": args.percent,
                 "ranking_direction": behavior.RANKING_DIRECTION},
        "categorizers": list(split.categorizers),
        "describers": list(split.describers),
        "categorizer_fraction": split.categorizer_fraction,
        "describer_fraction": split.describer_fraction,
    }, args.output)
    return 0


def _cmd_gen(args) -> int:
    from .folksonomy import bookmark_to_line
    from .generator import RegimeConfig, generate_bookmarks

    lines = [bookmark_to_line(b) for b in generate_bookmarks(_config(RegimeConfig, args))]
    _write_tsv(lines, args.output)
    return 0


def _cmd_sweep(args) -> int:
    from .harness import (parse_flat_config, run_experiment, run_topk_sweep,
                          sweep_from_config)
    from .labels import parse_category_lines

    with _reading(args.config):
        spec, k_values = sweep_from_config(parse_flat_config(_read_lines(args.config)))
    if "seed" in args:
        from dataclasses import replace
        spec = replace(spec, base_seed=args.seed)
    f = _load_folksonomy(args)
    with _reading(args.labels):
        labels = list(parse_category_lines(_read_lines(args.labels)))
    if k_values is None:
        report = run_experiment(spec, f, labels)
    else:
        report = run_topk_sweep(spec, f, labels, k_values)
    _write_json(report, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    # Shared options are defined once, as parents.  An option feeding a config
    # class defaults to SUPPRESS: left unset, it is absent and the class's
    # default applies, and a --seed before the subcommand survives.
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                      help="seed override, before or after the subcommand")
    bookmarks = argparse.ArgumentParser(add_help=False)
    bookmarks.add_argument("--bookmarks", required=True,
                           help="line-delimited bookmark records (JSON per line)")
    bookmarks.add_argument("--strip-reading-state", action="store_true",
                           help="drop reading-state tags before ingestion")
    bookmarks.add_argument("--blocked-tags", default=None,
                           help="file with one blocked tag per line (default: "
                                f"{', '.join(sorted(DEFAULT_READING_STATE_TAGS))})")
    labels = argparse.ArgumentParser(add_help=False)
    labels.add_argument("--labels", required=True,
                        help="resource<TAB>top<TAB>second lines")
    labeled_vectors = argparse.ArgumentParser(add_help=False)
    labeled_vectors.add_argument("--vectors", required=True)
    labeled_vectors.add_argument("--level", choices=LEVELS, default="top")
    vocabulary = argparse.ArgumentParser(add_help=False)
    vocabulary.add_argument("--min-df", type=float, default=0.0)
    vocabulary.add_argument("--vocab-out", default=None)

    parser = argparse.ArgumentParser(
        prog="folkclass", parents=[seed],
        description="Folksonomy analytics and tag-based resource classification")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *parents, **kwargs):
        p = sub.add_parser(name, help=help, parents=parents, **kwargs)
        p.add_argument("-o", "--output", default=None)
        p.set_defaults(func=func, takes_seed=seed in parents)
        return p

    command("ingest", _cmd_ingest, "ingest bookmarks and report counts", bookmarks)

    p = command("stats", _cmd_stats, "corpus-level distribution statistics", bookmarks)
    p.add_argument("--novelty", action="store_true",
                   help="include mean tag novelty per bookmark rank")
    p.add_argument("--allow-synthetic-order", action="store_true",
                   help="allow novelty statistics over stream-position ordering")

    p = command("represent", _cmd_vectors, "tag-based resource vectors",
                bookmarks, vocabulary)
    p.add_argument("--scheme", required=True, type=_scheme,
                   help="e.g. ranks-top10, fractions-fta, weighted-top5")

    p = command("weight", _cmd_vectors, "inverse-frequency weighted vectors",
                bookmarks, vocabulary)
    p.add_argument("--kind", choices=INVERSE_FREQUENCY_KINDS, default="irf")
    p.add_argument("--correlate", action="store_true",
                   help="emit correlations between the weighting functions instead")

    p = command("train", _cmd_train, "train a multiclass linear classifier",
                labeled_vectors, labels, seed)
    p.add_argument("--scheme", choices=SCHEMES, default=argparse.SUPPRESS)
    p.add_argument("--penalty", type=float, default=argparse.SUPPRESS)
    p.add_argument("--epochs", type=int, default=argparse.SUPPRESS)
    p.add_argument("--self-train", action="store_true")
    p.add_argument("--unlabeled-vectors", default=None)
    p.add_argument("--model-out", required=True)

    p = command("eval", _cmd_eval, "accuracy of a model on labeled vectors",
                labeled_vectors, labels)
    p.add_argument("--model", required=True)
    p.add_argument("--margins-out", default=None,
                   help="write per-instance margins for committee use")

    p = command("committee", _cmd_committee, "combine margin files")
    p.add_argument("margins", nargs="+", help="two or more margin files")
    p.add_argument("--no-normalize", action="store_true",
                   help="sum raw margins without per-classifier normalization")

    p = command("behavior", _cmd_behavior, "user tagging-motivation measures", bookmarks)
    p.add_argument("--measure", choices=MEASURES, default=None)
    p.add_argument("--percent", type=float, default=50.0)

    p = command("gen", _cmd_gen, "generate a synthetic bookmark stream", seed,
                argument_default=argparse.SUPPRESS)
    p.add_argument("--regime", choices=REGIMES, required=True)
    p.add_argument("--users", dest="n_users", type=int)
    p.add_argument("--resources", dest="n_resources", type=int)
    p.add_argument("--pool", dest="pool_size", type=int)
    p.add_argument("--acceptance", type=float)
    p.add_argument("--zipf", dest="zipf_exponent", type=float)
    p.add_argument("--bookmarks-per-user", type=int, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--tags-per-bookmark", type=int, nargs=2, metavar=("LO", "HI"))

    p = command("sweep", _cmd_sweep, "run a configured experiment sweep",
                bookmarks, labels, seed)
    p.add_argument("--config", required=True, help="flat key = value file")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "seed" in args and not args.takes_seed:
        parser.error(f"--seed does not apply to {args.command}")
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
