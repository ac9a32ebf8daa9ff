"""Reference per-resource vectorizers for the vectorize property tests.

These are the bodies `represent_resource` and `weight_resource` had before
both became a batch of one through the shared vectorizer pass, kept
verbatim: one lambda-keyed sort and one inverse-frequency call per
(resource, tag), and a second vector build for tf-ixf.  `vectorize` must
reproduce them entry by entry, in entry order and bit for bit.
"""

import logging

from folkclass.errors import UnknownResourceError
from folkclass.folksonomy import Folksonomy
from folkclass.representation import RepresentationScheme, Selection, Weighting
from folkclass.vectors import FeatureVector, Vocabulary
from folkclass.weighting import InverseFrequencyKind, inverse_frequency

logger = logging.getLogger(__name__)


def top_k_tags(weights, k: int) -> list[tuple[str, int]]:
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ordered = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))
    return ordered[:k]


def represent_resource(f: Folksonomy, resource: str,
                       scheme: RepresentationScheme,
                       vocab: Vocabulary) -> FeatureVector:
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


def weight_resource(f: Folksonomy, resource: str,
                    kind: InverseFrequencyKind,
                    vocab: Vocabulary) -> FeatureVector:
    base = represent_resource(
        f, resource, RepresentationScheme(Weighting.WEIGHTED, Selection.FTA), vocab)
    entries = [
        (fid, w * inverse_frequency(vocab.id_to_token[fid], f, kind))
        for fid, w in base.entries.items()
    ]
    return FeatureVector.from_items(entries, len(vocab))


def vectorize(f: Folksonomy, member, vocab: Vocabulary, resources) -> dict[str, FeatureVector]:
    """The per-resource dispatch `weighting.vectorize` made."""
    if isinstance(member, RepresentationScheme):
        return {r: represent_resource(f, r, member, vocab) for r in resources}
    return {r: weight_resource(f, r, member, vocab) for r in resources}
