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
from itertools import islice, repeat
from operator import mul, truediv
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
    _, ids, values = _pass(f, scheme, vocab, [resource])
    return _vector(zip(ids, values), len(vocab))


def _pass(f: Folksonomy, scheme: RepresentationScheme, vocab: Vocabulary,
          resources: list[str], ixf: Callable[[list[str]], list[float]] | None = None,
          ) -> tuple[list[int], list[int], list[float]]:
    """The vectorizer pass, in columns: every tag vector is built from it.

    For each resource in turn, the number of stored tags the scheme selects
    (every tag, or the first K); and for each of those tags, in the (-w,
    tag) order that ingest stored, read with no sort, its feature id and
    its value.  The id is -1 for a tag that is no entry: one out of the
    vocabulary, or one whose tf-ixf value is 0.  So a vector's entries are
    its tags with an id, in that order, and an out-of-vocabulary tag still
    takes its top-K rank slot.  `ixf`, when given, maps a list of tags to
    the tf-ixf multipliers of their weighted values; it is called once, on
    the distinct in-vocabulary tags the resources carry.  An unknown id
    raises before any column is built.
    """
    for r in resources:
        if r not in f.all_resource_ids:
            raise UnknownResourceError(r)
    token_to_id, tag_weights = vocab.token_to_id, f.resource_tag_weights
    weighting = scheme.weighting
    top = scheme.k if scheme.selection is Selection.TOP_K else None
    id_of = token_to_id.get
    if ixf is not None:
        own = list(dict.fromkeys(t for r in resources for t in tag_weights.get(r, ())
                                 if t in token_to_id))
        factor = dict(zip(own, ixf(own)))
        if 0.0 in factor.values():      # w * x is 0 where x is, as a weight w is a count >= 1
            id_of = {t: token_to_id[t] if x else -1 for t, x in factor.items()}.get
    counts: list[int] = []
    ids: list[int] = []
    values: list[float] = []
    for r in resources:
        weights = tag_weights.get(r)
        if not weights:     # logging is imported only to warn, as it costs start-up time
            import logging
            logging.getLogger(__name__).warning(
                "resource %r has no annotated bookmarks; empty vector", r)
            counts.append(0)
            continue
        n = len(ids)
        ids.extend(map(id_of, weights if top is None else islice(weights, top), repeat(-1)))
        n = len(ids) - n
        counts.append(n)
        if weighting is Weighting.RANKS:        # (K - rank + 1) / K at ranks 1..n
            values.extend(map(truediv, range(top, top - n, -1), repeat(top)))
        elif weighting is Weighting.UNWEIGHTED:
            values.extend(repeat(1.0, n))
        else:
            ws = weights.values() if top is None else islice(weights.values(), top)
            if weighting is Weighting.FRACTIONS:
                values.extend(map(truediv, ws, repeat(f.resource_annotators[r])))
            elif ixf is None:
                values.extend(map(float, ws))
            else:                               # w * x is float(w) * x; 0.0 where id is -1
                values.extend(map(mul, ws, map(factor.get, weights, repeat(0.0))))
    return counts, ids, values


def _vectors(resources: list[str], dim: int, counts: list[int], ids: list[int],
             values: list[float]) -> dict[str, FeatureVector]:
    """Each resource's vector of width `dim` from its `_pass` columns."""
    pairs = zip(ids, values)
    return {r: _vector(islice(pairs, n), dim) for r, n in zip(resources, counts)}


def _vector(pairs: Iterable[tuple[int, float]], dim: int) -> FeatureVector:
    """The vector of one resource's `_pass` (id, value) pairs: those with an id."""
    entries = dict(pairs)
    entries.pop(-1, None)       # every tag with no entry, as one key
    return FeatureVector._of(entries, dim)


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
