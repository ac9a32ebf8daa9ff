"""Seeded synthetic bookmark generation under three tag-suggestion regimes.

Every tag draw first decides whether a system suggestion is taken (one
uniform draw, consumed in every regime so that streams from different
regimes coincide when the acceptance probability is 0):

* resource-based  -- suggestions come from the resource's existing tag
                     multiset, so later bookmarks repeat earlier tags
* personomy-based -- suggestions come from the user's own prior tags, so
                     personal vocabularies stay small
* none            -- no suggestion source; every tag comes from the user's
                     preference distribution

A user's preference distribution is a power law over a per-user random
permutation of the global tag pool.  A preference draw is an inverse-CDF
search: one uniform draw located in the power law's cumulative sum, which
is built once per call the way `Generator.choice(p=...)` builds it.  It
reproduces `choice` draw for draw, so seeded corpora are unchanged, and
costs a binary search per draw instead of a pass over the pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .choices import REGIMES
from .folksonomy import Bookmark, Folksonomy, ingest_bookmarks

__all__ = ["REGIMES", "RegimeConfig", "generate_bookmarks", "generate"]

_MAX_DRAWS_PER_TAG = 100


@dataclass(frozen=True)
class RegimeConfig:
    regime: str
    n_users: int = 50
    n_resources: int = 25
    bookmarks_per_user: tuple[int, int] = (5, 10)
    tags_per_bookmark: tuple[int, int] = (1, 5)
    pool_size: int = 200
    acceptance: float = 0.5
    zipf_exponent: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}; expected one of {REGIMES}")
        for name in ("n_users", "n_resources", "pool_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("bookmarks_per_user", "tags_per_bookmark"):
            lo, hi = getattr(self, name)
            if not 1 <= lo <= hi:
                raise ValueError(f"{name} range must satisfy 1 <= lo <= hi, got ({lo}, {hi})")
        if not 0.0 <= self.acceptance <= 1.0:
            raise ValueError(f"acceptance must be in [0, 1], got {self.acceptance}")
        if not np.isfinite(self.zipf_exponent):
            raise ValueError(f"zipf_exponent must be finite, got {self.zipf_exponent}")
        if self.tags_per_bookmark[1] > self.pool_size:
            raise ValueError(
                f"tag pool of {self.pool_size} cannot supply up to "
                f"{self.tags_per_bookmark[1]} distinct tags per bookmark")


def generate_bookmarks(cfg: RegimeConfig) -> list[Bookmark]:
    """Deterministic bookmark stream for the configured regime and seed."""
    rng = np.random.default_rng(cfg.seed)
    pool = [f"tag{i:05d}" for i in range(cfg.pool_size)]
    ranks = np.arange(1, cfg.pool_size + 1, dtype=float)
    preference = ranks ** -cfg.zipf_exponent
    preference /= preference.sum()
    # Built as Generator.choice(p=preference) builds it, so draws match choice's.
    cdf = preference.cumsum()
    cdf /= cdf[-1]

    resource_tags: dict[str, list[str]] = {}     # multiset of tags per resource
    resource_next_order: dict[str, int] = {}
    bookmarks: list[Bookmark] = []

    for u in range(cfg.n_users):
        user = f"user{u:05d}"
        permutation = rng.permutation(cfg.pool_size)
        personomy: list[str] = []
        lo, hi = cfg.bookmarks_per_user
        n_marks = min(int(rng.integers(lo, hi + 1)), cfg.n_resources)
        resources = rng.choice(cfg.n_resources, size=n_marks, replace=False)
        for r in resources:
            resource = f"res{int(r):05d}"
            lo_t, hi_t = cfg.tags_per_bookmark
            n_tags = int(rng.integers(lo_t, hi_t + 1))
            if cfg.regime == "resource-based":
                suggestions = resource_tags.get(resource, [])
            elif cfg.regime == "personomy-based":
                suggestions = personomy
            else:
                suggestions = []
            tags: list[str] = []
            attempts = 0
            while len(tags) < n_tags and attempts < _MAX_DRAWS_PER_TAG * n_tags:
                attempts += 1
                accepted = rng.random() < cfg.acceptance and len(suggestions) > 0
                if accepted:
                    tag = suggestions[int(rng.integers(len(suggestions)))]
                else:
                    rank = int(cdf.searchsorted(rng.random(), side="right"))
                    tag = pool[permutation[rank]]
                if tag not in tags:
                    tags.append(tag)
            order = resource_next_order.get(resource, 0)
            resource_next_order[resource] = order + 1
            bookmarks.append(Bookmark(user=user, resource=resource,
                                      tags=tuple(tags), order=order))
            resource_tags.setdefault(resource, []).extend(tags)
            personomy.extend(tags)
    return bookmarks


def generate(cfg: RegimeConfig) -> Folksonomy:
    return ingest_bookmarks(generate_bookmarks(cfg))
