"""Inverse-frequency tag weighting and correlation between weighting functions.

The three inverse frequencies transplant the idf idea onto the three
folksonomy dimensions: ln(|R|/rf), ln(|U|/uf), ln(|B|/bf), with totals
counting annotated entities only.  Natural log throughout; every downstream
ranking decision is base-invariant.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable, Iterable, Sequence
from operator import attrgetter

from .errors import DegenerateInputError, UnknownTagError
from .folksonomy import Folksonomy
from .representation import RepresentationScheme, Selection, Weighting, _vectors
from .vectors import FeatureVector, Vocabulary

__all__ = [
    "InverseFrequencyKind", "inverse_frequency", "weight_resource",
    "Member", "parse_member", "member_name", "vectorize",
    "pearson", "spearman", "fractional_ranks", "correlate_weightings",
]


class InverseFrequencyKind(enum.Enum):   # values: choices.INVERSE_FREQUENCY_KINDS
    IRF = "irf"
    IUF = "iuf"
    IBF = "ibf"
    NONE = "none"   # plain tag frequency


def inverse_frequency(tag: str, f: Folksonomy, kind: InverseFrequencyKind) -> float:
    """Inverse frequency of a tag over the chosen dimension; NONE is 1."""
    return _inverse_frequencies(f, kind)(tag)


def _inverse_frequencies(f: Folksonomy, kind: InverseFrequencyKind) -> Callable[[str], float]:
    """`inverse_frequency` over `kind` as a function of the tag; reads the total once."""
    if kind is InverseFrequencyKind.NONE:
        return lambda tag: 1.0
    total, count = {InverseFrequencyKind.IRF: (f.n_resources, attrgetter("rf")),
                    InverseFrequencyKind.IUF: (f.n_users, attrgetter("uf")),
                    InverseFrequencyKind.IBF: (f.n_bookmarks, attrgetter("bf"))}[kind]

    def ixf(tag: str) -> float:
        try:
            return math.log(total / count(f.tag_frequencies[tag]))
        except KeyError:
            raise UnknownTagError(tag) from None
    return ixf


def weight_resource(f: Folksonomy, resource: str,
                    kind: InverseFrequencyKind,
                    vocab: Vocabulary) -> FeatureVector:
    """tf * ixf vector: per-resource annotator count times inverse frequency.

    A tag saturating its dimension gets weight 0 and is dropped; with
    kind=NONE this equals the weighted full-tagging-activity representation.
    A batch of one through `vectorize`.
    """
    return vectorize(f, kind, vocab, [resource])[resource]


Member = RepresentationScheme | InverseFrequencyKind   # tag representation or tf-ixf

_WEIGHTED_FTA = RepresentationScheme(Weighting.WEIGHTED, Selection.FTA)   # tf-ixf's tf


def parse_member(text: str) -> Member:
    """`tf` or `tf-<kind>` (e.g. `tf-irf`) is tf-ixf; other names are schemes."""
    if text == "tf":
        return InverseFrequencyKind.NONE
    if text.startswith("tf-"):
        return InverseFrequencyKind(text[3:])
    return RepresentationScheme.parse(text)


def member_name(member: Member) -> str:
    """The name `parse_member` reads back."""
    if isinstance(member, RepresentationScheme):
        return member.name
    return "tf" if member is InverseFrequencyKind.NONE else f"tf-{member.value}"


def vectorize(f: Folksonomy, member: Member, vocab: Vocabulary,
              resources: Iterable[str]) -> dict[str, FeatureVector]:
    """Vector of each resource under `member`, keyed in the given order.

    One vectorizer pass per call, the only code that turns tags into
    vectors: its cost grows with the resources' non-zeros plus their
    distinct tags (each tag's inverse frequency is computed once), not with
    the vocabulary.  Entries are in (-w, tag) order, the order in which
    margins and SGD steps sum them, and each value comes from the same
    expression whatever the batch: so a vector, and every score summed from
    it, is the same byte for byte however the resources are batched.
    """
    if isinstance(member, RepresentationScheme):
        return _vectors(f, member, vocab, resources)
    ixf = None if member is InverseFrequencyKind.NONE else _inverse_frequencies(f, member)
    return _vectors(f, _WEIGHTED_FTA, vocab, resources, ixf)


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Product-moment correlation coefficient."""
    n = len(xs)
    if n != len(ys):
        raise ValueError(f"length mismatch: {n} vs {len(ys)}")
    if n < 2:
        raise DegenerateInputError("need at least 2 points")
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    dx = [x - mx for x in xs]
    dy = [y - my for y in ys]
    vx = math.fsum(d * d for d in dx)
    vy = math.fsum(d * d for d in dy)
    if vx == 0.0 or vy == 0.0:
        raise DegenerateInputError("zero variance input")
    return math.fsum(a * b for a, b in zip(dx, dy)) / math.sqrt(vx * vy)


def fractional_ranks(xs: Sequence[float]) -> list[float]:
    """1-based ranks with ties given the average of their positions."""
    order = sorted(range(len(xs)), key=lambda i: xs[i])
    ranks = [0.0] * len(xs)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and xs[order[j + 1]] == xs[order[i]]:
            j += 1
        mean_rank = (i + j) / 2 + 1
        for pos in range(i, j + 1):
            ranks[order[pos]] = mean_rank
        i = j + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Rank correlation: pearson over fractional ranks."""
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    return pearson(fractional_ranks(xs), fractional_ranks(ys))


_PAIRS = [
    (InverseFrequencyKind.IRF, InverseFrequencyKind.IUF),
    (InverseFrequencyKind.IRF, InverseFrequencyKind.IBF),
    (InverseFrequencyKind.IUF, InverseFrequencyKind.IBF),
]


def correlate_weightings(f: Folksonomy) -> dict:
    """Pearson r and Spearman rho between the three inverse frequencies.

    Computed over the per-tag value sequences for every tag in the corpus,
    in sorted tag order.
    """
    tags = sorted(f.tag_frequencies)
    if len(tags) < 2:
        raise DegenerateInputError("need at least 2 tags to correlate weightings")
    series = {
        kind: list(map(_inverse_frequencies(f, kind), tags))
        for kind in (InverseFrequencyKind.IRF, InverseFrequencyKind.IUF,
                     InverseFrequencyKind.IBF)
    }
    report = {}
    for a, b in _PAIRS:
        report[f"{a.value}-{b.value}"] = {
            "r": pearson(series[a], series[b]),
            "rho": spearman(series[a], series[b]),
        }
    return report
