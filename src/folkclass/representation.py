"""Tag-based and text-based resource representations.

Seven tag schemes come from crossing four weightings (ranks, fractions,
unweighted, weighted) with two tag selections (top-K, full tagging
activity), minus rank weighting on the full set, which is only defined for
a top list.  Text goes through tokenize / lowercase / stopword / optional
stemming and is weighted tf * ln(|D|/df).
"""

from __future__ import annotations

import enum
import re
from collections.abc import Callable, Iterable
from operator import itemgetter
from typing import NamedTuple

from .errors import UnknownResourceError
from .folksonomy import Folksonomy
from .records import Record
from .vectors import FeatureVector, Vocabulary, build_vocabulary

__all__ = [
    "Weighting", "Selection", "RepresentationScheme", "TextPipelineConfig",
    "represent_resource", "represent_text", "tokenize",
    "load_stopwords", "tag_vocabulary", "build_vocabulary",
]


class Weighting(enum.Enum):
    RANKS = "ranks"
    FRACTIONS = "fractions"
    UNWEIGHTED = "unweighted"
    WEIGHTED = "weighted"


class Selection(enum.Enum):
    TOP_K = "topk"
    FTA = "fta"


class RepresentationScheme(Record):
    """One of the seven tag representations: weighting x selection (+ K)."""

    __slots__ = ("weighting", "selection", "k")

    def __init__(self, weighting: Weighting, selection: Selection, k: int = 10):
        if weighting is Weighting.RANKS and selection is not Selection.TOP_K:
            raise ValueError("rank weighting is only defined on a top-K list")
        if selection is Selection.TOP_K and k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        object.__setattr__(self, "weighting", weighting)
        object.__setattr__(self, "selection", selection)
        object.__setattr__(self, "k", k)

    @property
    def name(self) -> str:
        sel = f"top{self.k}" if self.selection is Selection.TOP_K else "fta"
        return f"{self.weighting.value}-{sel}"

    @staticmethod
    def parse(text: str) -> "RepresentationScheme":
        """Parse names like `weighted-fta`, `ranks-top10`, `fractions-top5`."""
        weighting_part, _, selection_part = text.partition("-")
        weighting = Weighting(weighting_part)
        if selection_part == "fta":
            return RepresentationScheme(weighting, Selection.FTA)
        m = re.fullmatch(r"top(\d+)", selection_part)
        if not m:
            raise ValueError(f"cannot parse representation scheme {text!r}")
        return RepresentationScheme(weighting, Selection.TOP_K, int(m.group(1)))


def _ordered(pairs: Iterable[tuple]) -> list[tuple]:
    """(key, weight) pairs by weight descending, then key ascending.

    Sorting by key and then, stably, by weight orders them with no per-item
    key function; Python's sort stays stable with reverse=True.
    """
    return sorted(sorted(pairs), key=itemgetter(1), reverse=True)


def represent_resource(f: Folksonomy, resource: str,
                       scheme: RepresentationScheme,
                       vocab: Vocabulary) -> FeatureVector:
    """Sparse vector for one resource under the given scheme.

    Rank/weight values are computed on the resource's own tag ordering
    before vocabulary filtering, so out-of-vocabulary tags leave holes
    rather than shifting weights.  A batch of one through the vectorizer
    pass that `weighting.vectorize` runs.
    """
    return _vectors(f, scheme, vocab, [resource])[resource]


def _vectors(f: Folksonomy, scheme: RepresentationScheme, vocab: Vocabulary,
             resources: Iterable[str],
             ixf: Callable[[str], float] | None = None) -> dict[str, FeatureVector]:
    """The vectorizer pass: every tag vector is built here, once.

    Each resource's tags are ordered once, by (-w, tag), and that is the
    entry order of its vector.  `ixf`, when given, maps a tag to the tf-ixf
    multiplier of its weighted value; it is evaluated once per distinct
    in-vocabulary tag the resources carry, and an entry it zeroes is
    dropped.  An unknown id raises before any vector is built.
    """
    resources = list(resources)
    for r in resources:
        if r not in f.all_resource_ids:
            raise UnknownResourceError(r)
    token_to_id, dim, k = vocab.token_to_id, len(vocab), scheme.k
    tag_weights = f.resource_tag_weights
    if ixf is not None:
        own = dict.fromkeys(t for r in resources for t in tag_weights.get(r, ())
                            if t in token_to_id)
        factor = {token_to_id[t]: ixf(t) for t in own}
    out: dict[str, FeatureVector] = {}
    for r in resources:
        weights = tag_weights.get(r)
        if not weights:     # logging is imported only to warn, as it costs start-up time
            import logging
            logging.getLogger(__name__).warning(
                "resource %r has no annotated bookmarks; empty vector", r)
            out[r] = FeatureVector({}, dim)
            continue
        if scheme.selection is Selection.FTA:
            # vocabulary ids follow token order, so (-w, id) is (-w, tag)
            selected = _ordered([(token_to_id[t], w) for t, w in weights.items()
                                 if t in token_to_id])
        else:
            # an out-of-vocabulary tag still takes its rank slot
            top = _ordered(weights.items())[:k]
            if scheme.weighting is Weighting.RANKS:
                out[r] = FeatureVector({token_to_id[t]: (k - rank + 1) / k
                                        for rank, (t, _) in enumerate(top, 1)
                                        if t in token_to_id}, dim)
                continue
            selected = [(token_to_id[t], w) for t, w in top if t in token_to_id]
        if scheme.weighting is Weighting.FRACTIONS:
            p = f.resource_annotators[r]
            entries = {i: w / p for i, w in selected}
        elif scheme.weighting is Weighting.UNWEIGHTED:
            entries = {i: 1.0 for i, _ in selected}
        elif ixf is None:
            entries = {i: float(w) for i, w in selected}
        else:
            entries = {i: v for i, w in selected if (v := float(w) * factor[i]) != 0.0}
        out[r] = FeatureVector(entries, dim)
    return out


def tag_vocabulary(f: Folksonomy, min_df_fraction: float = 0.0) -> Vocabulary:
    """Vocabulary over the distinct tag sets of annotated resources."""
    documents = [list(w) for w in f.resource_tag_weights.values()]
    return build_vocabulary(documents, min_df_fraction)


_TOKEN_SPLIT = re.compile(r"[^0-9a-zA-Z]+")


class TextPipelineConfig(NamedTuple):
    stopwords: frozenset[str] = frozenset()
    stem: bool = False


def load_stopwords(lines: Iterable[str]) -> frozenset[str]:
    """One token per line; blank lines and surrounding whitespace ignored."""
    return frozenset(t for t in (line.strip() for line in lines) if t)


def tokenize(text: str, pipeline: TextPipelineConfig) -> list[str]:
    """Split on non-alphanumeric boundaries, lowercase, then filter per the pipeline."""
    tokens = [t.lower() for t in _TOKEN_SPLIT.split(text) if t]
    if pipeline.stopwords:
        tokens = [t for t in tokens if t not in pipeline.stopwords]
    if pipeline.stem:     # porter is imported only to stem, as it costs start-up time
        from .porter import stem
        tokens = [stem(t) for t in tokens]
    return tokens


def represent_text(text: str, vocab: Vocabulary,
                   pipeline: TextPipelineConfig) -> FeatureVector:
    """tf * idf vector of the pipeline's surviving tokens; unknown tokens dropped."""
    counts: dict[str, int] = {}
    for token in tokenize(text, pipeline):
        counts[token] = counts.get(token, 0) + 1
    entries = [
        (vocab.id_of(t), n * vocab.idf(t))
        for t, n in counts.items() if t in vocab
    ]
    return FeatureVector.from_items(entries, len(vocab))
