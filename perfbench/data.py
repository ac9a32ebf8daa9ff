"""Seeded inputs that the benchmark builds for folkclass.

Nothing here calls into folkclass except the `Bookmark` and
`CategoryAssignment` record types, so building inputs is benchmark set-up,
not program work.  The same seed always gives the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LabeledCorpusConfig:
    """A k-category corpus whose tags carry a noisy category signal.

    Each bookmark tag is, with probability `p_signal`, a Zipf draw from the
    resource's own category's signal tags; with probability `p_confuse` a
    signal tag of a random other category; otherwise a Zipf draw from a
    shared noise vocabulary.
    """

    n_resources: int
    k: int
    n_users: int
    signal_tags: int          # per category
    noise_pool: int
    bookmarks_per_resource: tuple[int, int]
    tags_per_bookmark: tuple[int, int]
    p_signal: float
    p_confuse: float
    noise_zipf: float = 1.0


def _zipf_cdf(n: int, exponent: float) -> np.ndarray:
    p = np.arange(1, n + 1, dtype=float) ** -exponent
    cdf = np.cumsum(p)
    return cdf / cdf[-1]


def labeled_corpus(cfg: LabeledCorpusConfig, seed: int):
    """Return (bookmarks, labels) for the configured corpus.

    Bookmarks carry an explicit per-resource order, so novelty statistics
    may be computed on them.
    """
    from folkclass.folksonomy import Bookmark, CategoryAssignment

    rng = np.random.default_rng(seed)
    noise_cdf = _zipf_cdf(cfg.noise_pool, cfg.noise_zipf)
    signal_cdf = _zipf_cdf(cfg.signal_tags, 1.0)
    # balanced categories, so class sizes do not vary with the seed
    cats = rng.permutation(np.arange(cfg.n_resources) % cfg.k)
    bookmarks, labels = [], []
    for r, cat in enumerate(cats):
        cat = int(cat)
        resource = f"res{r:05d}"
        labels.append(CategoryAssignment(resource, f"cat{cat}"))
        lo, hi = cfg.bookmarks_per_resource
        n_marks = int(rng.integers(lo, hi + 1))
        users = rng.choice(cfg.n_users, size=n_marks, replace=False)
        lo, hi = cfg.tags_per_bookmark
        sizes = rng.integers(lo, hi + 1, size=n_marks)
        n_draws = int(sizes.sum())
        kind = rng.random(n_draws)
        other = (cat + rng.integers(1, cfg.k, size=n_draws)) % cfg.k
        sig = np.searchsorted(signal_cdf, rng.random(n_draws), side="right")
        noise = np.searchsorted(noise_cdf, rng.random(n_draws), side="right")
        tags = [
            f"c{cat}s{s}" if u < cfg.p_signal
            else f"c{o}s{s}" if u < cfg.p_signal + cfg.p_confuse
            else f"n{z}"
            for u, o, s, z in zip(kind.tolist(), other.tolist(),
                                  sig.tolist(), noise.tolist())
        ]
        start = 0
        for order, (user, size) in enumerate(zip(users.tolist(), sizes.tolist())):
            chunk = tuple(dict.fromkeys(tags[start:start + size]))
            start += size
            bookmarks.append(Bookmark(f"user{user:05d}", resource, chunk, order))
    return bookmarks, labels


# Plain English words, many with suffixes the Porter stemmer rewrites.
_WORDS = """
analysis analyses analyzing classification classifiers classified computing
computation computational connections connected connecting generalization
generalizations learning learners learned network networks networked running
runner runs retrieval retrieving retrieved relational relations relating
conditional conditionally rational rationality operational operations operating
hopeful hopefulness goodness effective effectiveness sensitivity sensible
electrical electricity formality formalize formalized activate activation
adjustable adjustment dependent dependence adoption controlling controlled
agreed agreement feudalism hopping hoping tanned falling filing sized
probability probabilistic statistics statistical statistically tagging tagged
tags bookmarking bookmarks social socially resources resourceful categories
categorizing categorizers describing describers descriptions descriptive
vocabulary vocabularies ranking ranked rankings weighting weighted weights
similarity similarities committee committees margins marginal experiments
experimental evaluation evaluating evaluated semantic semantics annotations
annotating annotated users usefulness organizational organizing motivation
motivations personal personalization recommendation recommendations
""".split()

STOPWORDS = frozenset("""
a an and are as at be by for from has in is it its of on or that the this to
was were will with
""".split())


def descriptions(resources: list[str], top_tags: dict[str, list[str]],
                 seed: int) -> dict[str, str]:
    """One short description per resource: 6 words, 2 stopwords, its tags."""
    rng = np.random.default_rng(seed)
    stop = sorted(STOPWORDS)
    out = {}
    for r in resources:
        picks = rng.integers(len(_WORDS), size=6).tolist()
        fillers = rng.integers(len(stop), size=2).tolist()
        text = [_WORDS[i] for i in picks] + [stop[i] for i in fillers]
        text += top_tags.get(r, [])
        order = rng.permutation(len(text)).tolist()
        out[r] = " ".join(text[i] for i in order).capitalize() + "."
    return out


def stratified_split(label_of: dict[str, str], test_fraction: float, seed: int,
                     ) -> tuple[dict[str, str], dict[str, str]]:
    """(train, test) label maps; every category with 2+ resources is in both."""
    rng = np.random.default_rng(seed)
    train, test = {}, {}
    for cat in sorted(set(label_of.values())):
        members = sorted(r for r, c in label_of.items() if c == cat)
        order = rng.permutation(len(members)).tolist()
        n_test = min(max(1, round(test_fraction * len(members))), len(members) - 1)
        for pos, i in enumerate(order):
            (test if pos < n_test else train)[members[i]] = cat
    return train, test
