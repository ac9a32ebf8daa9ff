"""Tag-based and text-based resource representations.

Seven tag schemes come from crossing four weightings (ranks, fractions,
unweighted, weighted) with two tag selections (top-K, full tagging
activity), minus rank weighting on the full set, which is only defined for
a top list.  Text goes through tokenize / lowercase / stopword / optional
stemming and is weighted tf * ln(|D|/df).
"""

from __future__ import annotations

import enum
import logging
import re
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from . import porter
from .errors import UnknownResourceError
from .folksonomy import Folksonomy
from .vectors import FeatureVector, Vocabulary, build_vocabulary

__all__ = [
    "Weighting", "Selection", "RepresentationScheme", "TextPipelineConfig",
    "top_k_tags", "represent_resource", "represent_text", "tokenize",
    "load_stopwords", "tag_vocabulary", "build_vocabulary",
]

logger = logging.getLogger(__name__)


class Weighting(enum.Enum):
    RANKS = "ranks"
    FRACTIONS = "fractions"
    UNWEIGHTED = "unweighted"
    WEIGHTED = "weighted"


class Selection(enum.Enum):
    TOP_K = "topk"
    FTA = "fta"


@dataclass(frozen=True)
class RepresentationScheme:
    """One of the seven tag representations: weighting x selection (+ K)."""

    weighting: Weighting
    selection: Selection
    k: int = 10

    def __post_init__(self):
        if self.weighting is Weighting.RANKS and self.selection is not Selection.TOP_K:
            raise ValueError("rank weighting is only defined on a top-K list")
        if self.selection is Selection.TOP_K and self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")

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


def top_k_tags(weights: Mapping[str, int], k: int) -> list[tuple[str, int]]:
    """Best-weighted tags: count descending, ties lexicographic ascending."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ordered = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))
    return ordered[:k]


def represent_resource(f: Folksonomy, resource: str,
                       scheme: RepresentationScheme,
                       vocab: Vocabulary) -> FeatureVector:
    """Sparse vector for one resource under the given scheme.

    Rank/weight values are computed on the resource's own tag ordering
    before vocabulary filtering, so out-of-vocabulary tags leave holes
    rather than shifting weights.
    """
    if resource not in f.all_resource_ids:
        raise UnknownResourceError(resource)
    weights = f.resource_tag_weights.get(resource)
    if not weights:
        logger.warning("resource %r has no annotated bookmarks; empty vector", resource)
        return FeatureVector({}, len(vocab))
    p = f.resource_annotators[resource]

    if scheme.selection is Selection.TOP_K:
        selected = top_k_tags(weights, scheme.k)
    else:
        selected = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))

    entries: list[tuple[int, float]] = []
    for rank, (tag, w) in enumerate(selected, 1):
        if tag not in vocab:
            continue
        if scheme.weighting is Weighting.RANKS:
            value = (scheme.k - rank + 1) / scheme.k
        elif scheme.weighting is Weighting.FRACTIONS:
            value = w / p
        elif scheme.weighting is Weighting.UNWEIGHTED:
            value = 1.0
        else:
            value = float(w)
        entries.append((vocab.id_of(tag), value))
    return FeatureVector.from_items(entries, len(vocab))


def tag_vocabulary(f: Folksonomy, min_df_fraction: float = 0.0) -> Vocabulary:
    """Vocabulary over the distinct tag sets of annotated resources."""
    documents = [list(w) for w in f.resource_tag_weights.values()]
    return build_vocabulary(documents, min_df_fraction)


_TOKEN_SPLIT = re.compile(r"[^0-9a-zA-Z]+")


@dataclass(frozen=True)
class TextPipelineConfig:
    stopwords: frozenset[str] = field(default_factory=frozenset)
    stem: bool = False


def load_stopwords(lines: Iterable[str]) -> frozenset[str]:
    """One token per line; blank lines and surrounding whitespace ignored."""
    return frozenset(t for t in (line.strip() for line in lines) if t)


def tokenize(text: str, pipeline: TextPipelineConfig) -> list[str]:
    """Split on non-alphanumeric boundaries, lowercase, then filter per the pipeline."""
    tokens = [t.lower() for t in _TOKEN_SPLIT.split(text) if t]
    if pipeline.stopwords:
        tokens = [t for t in tokens if t not in pipeline.stopwords]
    if pipeline.stem:
        tokens = [porter.stem(t) for t in tokens]
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
