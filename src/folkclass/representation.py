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
from collections import Counter
from collections.abc import Callable, Iterable
from itertools import islice
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
        weighting, _, selection = text.partition("-")
        names = [w.value for w in Weighting]
        m = re.fullmatch(r"fta|top(\d+)", selection)
        if not m or weighting not in names or (weighting == Weighting.RANKS.value and not m[1]):
            raise ValueError(f"cannot parse representation scheme {text!r}: expected "
                             "<weighting>-fta or <weighting>-top<K> (K >= 1), <weighting> "
                             f"one of {', '.join(names)}, and ranks only with top<K>")
        if not m[1]:
            return RepresentationScheme(Weighting(weighting), Selection.FTA)
        return RepresentationScheme(Weighting(weighting), Selection.TOP_K, int(m[1]))


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

    Each resource's tags are read, with no sort, in the (-w, tag) order
    that ingest stored, and that is the entry order of its vector.  `ixf`,
    when given, maps a tag to the tf-ixf multiplier of its weighted value;
    it is evaluated once per distinct in-vocabulary tag the resources carry,
    and an entry it zeroes is dropped.  An unknown id raises before any
    vector is built.
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
        factor = {t: ixf(t) for t in own}
    out: dict[str, FeatureVector] = {}
    for r in resources:
        weights = tag_weights.get(r)
        if not weights:     # logging is imported only to warn, as it costs start-up time
            import logging
            logging.getLogger(__name__).warning(
                "resource %r has no annotated bookmarks; empty vector", r)
            out[r] = FeatureVector({}, dim)
            continue
        # top-K is the first K stored tags; an out-of-vocabulary one keeps its rank slot
        stored = (weights.items() if scheme.selection is Selection.FTA
                  else islice(weights.items(), k))
        if scheme.weighting is Weighting.RANKS:
            entries = {token_to_id[t]: (k - rank + 1) / k
                       for rank, (t, _) in enumerate(stored, 1) if t in token_to_id}
        elif scheme.weighting is Weighting.FRACTIONS:
            p = f.resource_annotators[r]
            entries = {token_to_id[t]: w / p for t, w in stored if t in token_to_id}
        elif scheme.weighting is Weighting.UNWEIGHTED:
            entries = {token_to_id[t]: 1.0 for t, _ in stored if t in token_to_id}
        elif ixf is None:
            entries = {token_to_id[t]: float(w) for t, w in stored if t in token_to_id}
        else:
            entries = {token_to_id[t]: v for t, w in stored
                       if t in token_to_id and (v := float(w) * factor[t]) != 0.0}
        out[r] = FeatureVector(entries, dim)
    return out


def tag_vocabulary(f: Folksonomy, min_df_fraction: float = 0.0) -> Vocabulary:
    """Vocabulary over the distinct tag sets of annotated resources."""
    return build_vocabulary(f.resource_tag_weights.values(), min_df_fraction)


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
    counts = Counter(tokenize(text, pipeline))
    entries = [(vocab.id_of(t), n * vocab.idf(t)) for t, n in counts.items() if t in vocab]
    return FeatureVector.from_items(entries, len(vocab))
