"""Tagging-motivation measures, user ranking, splits and tag descriptiveness.

Three per-user measures locate a user between the Categorizer end (small
reusable vocabulary, terse bookmarks) and the Describer end (many tags,
rarely reused):

* tags-per-post      -- total tag assignments / annotated resources
* tag-resource ratio -- distinct tags / annotated resources
* orphan ratio       -- fraction of the user's tags used on at most
                        ceil(max_tag_resource_count / 100) of their resources

All measures read only the user's own bookmarks, so a profile computed on
an isolated personomy equals the one computed inside the full corpus.
`user_profile` computes the three measures and the counts behind them in
one walk over those bookmarks; `tpp`, `trr` and `orphan` read its fields.
Low values sit at the Categorizer end; that direction is recorded in every
report because it is a convention, not a fact.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from typing import NamedTuple

from .choices import MEASURES
from .errors import DegenerateInputError
from .folksonomy import Folksonomy
from .vectors import FeatureVector

__all__ = [
    "UserProfile", "UserSplit", "MEASURES", "RANKING_DIRECTION",
    "tpp", "trr", "orphan", "user_profile", "all_profiles", "rank_users",
    "split_by_assignments", "descriptiveness", "DescriptivenessResult",
    "profile_lines",
]

RANKING_DIRECTION = "ascending: low verbosity/diversity ranks first (Categorizer end)"


class UserProfile(NamedTuple):
    user: str
    tpp: float
    trr: float
    orphan: float
    n_resources: int
    n_distinct_tags: int
    n_assignments: int

    def measure(self, name: str) -> float:
        if name not in MEASURES:
            raise ValueError(f"unknown measure {name!r}; expected one of {MEASURES}")
        return getattr(self, name)


class UserSplit(NamedTuple):
    measure: str
    percent: float
    categorizers: tuple[str, ...]
    describers: tuple[str, ...]
    categorizer_fraction: float
    describer_fraction: float


def tpp(f: Folksonomy, user: str) -> float:
    """Tag assignments per annotated resource (verbosity); always >= 1."""
    return user_profile(f, user).tpp


def trr(f: Folksonomy, user: str) -> float:
    """Distinct tags over annotated resources (vocabulary size vs activity)."""
    return user_profile(f, user).trr


def orphan(f: Folksonomy, user: str) -> float:
    """Fraction of the user's tags that are seldom used by that user.

    A tag is seldom used when it appears on at most
    n = ceil(|R(t_max)| / 100) of the user's resources, t_max being the
    user's most frequent tag.
    """
    return user_profile(f, user).orphan


def user_profile(f: Folksonomy, user: str) -> UserProfile:
    """Every measure and count of `user`, from one walk over their bookmarks."""
    marks = f.user_bookmarks.get(user)
    if not marks:
        raise DegenerateInputError(f"user {user!r} has no annotated bookmarks")
    resources_per_tag = Counter(t for b in marks for t in b.tags)
    n_assignments = resources_per_tag.total()
    n = math.ceil(max(resources_per_tag.values()) / 100)
    orphans = sum(1 for c in resources_per_tag.values() if c <= n)
    return UserProfile(
        user=user,
        tpp=n_assignments / len(marks),
        trr=len(resources_per_tag) / len(marks),
        orphan=orphans / len(resources_per_tag),
        n_resources=len(marks),
        n_distinct_tags=len(resources_per_tag),
        n_assignments=n_assignments,
    )


def all_profiles(f: Folksonomy) -> list[UserProfile]:
    return [user_profile(f, u) for u in sorted(f.user_bookmarks)]


def rank_users(profiles: Iterable[UserProfile], measure: str) -> list[UserProfile]:
    """Ascending by measure (Categorizer end first), ties by user id."""
    profiles = list(profiles)
    if not profiles:
        raise ValueError("need at least one profile")
    return sorted(profiles, key=lambda p: (p.measure(measure), p.user))


def split_by_assignments(ranked: Sequence[UserProfile], percent: float,
                         measure: str = "") -> UserSplit:
    """Split a ranked user list so each side holds >= percent% of assignments.

    Whole users are accumulated from the Categorizer end until their
    cumulative assignment mass first reaches the target, and symmetrically
    from the Describer end.  The boundary user is included, so the achieved
    fraction can exceed the target and the two sides can share users around
    the middle; at 100% both sides are all users.
    """
    if not 0.0 < percent <= 100.0:
        raise ValueError(f"percent must be in (0, 100], got {percent}")
    total = sum(p.n_assignments for p in ranked)
    if total <= 0:
        raise DegenerateInputError("no tag assignments to split")
    target = percent / 100.0 * total

    def walk(side: Sequence[UserProfile]) -> tuple[tuple[str, ...], float]:
        acc = 0
        chosen: list[str] = []
        for p in side:
            chosen.append(p.user)
            acc += p.n_assignments
            if acc >= target:
                break
        return tuple(chosen), acc / total

    categorizers, cat_fraction = walk(ranked)
    describers, desc_fraction = walk(list(reversed(ranked)))
    return UserSplit(measure=measure, percent=percent,
                     categorizers=categorizers, describers=describers,
                     categorizer_fraction=cat_fraction,
                     describer_fraction=desc_fraction)


class DescriptivenessResult(NamedTuple):
    similarity: float
    n_resources: int
    zero_vector_resources: tuple[str, ...]


def _cosine(a: FeatureVector, b: FeatureVector) -> float:
    na, nb = a.norm(), b.norm()
    if na == 0.0 or nb == 0.0:
        return 0.0
    return a.dot(b.entries) / (na * nb)


def descriptiveness(tag_vectors: Mapping[str, FeatureVector],
                    reference_vectors: Mapping[str, FeatureVector],
                    ) -> DescriptivenessResult:
    """Mean cosine similarity between tag and reference vectors per resource.

    Resources where either vector is empty contribute similarity 0 and stay
    in the denominator; they are listed so callers can exclude them
    deliberately.
    """
    if set(tag_vectors) != set(reference_vectors):
        raise ValueError("tag and reference vectors must cover the same resources")
    if not tag_vectors:
        raise ValueError("empty resource set")
    zero: list[str] = []
    sims = []
    for r in sorted(tag_vectors):
        t, ref = tag_vectors[r], reference_vectors[r]
        if len(t) == 0 or len(ref) == 0:
            zero.append(r)
            sims.append(0.0)
        else:
            sims.append(_cosine(t, ref))
    return DescriptivenessResult(similarity=sum(sims) / len(sims),
                                 n_resources=len(sims),
                                 zero_vector_resources=tuple(zero))


def profile_lines(profiles: Iterable[UserProfile]) -> Iterable[str]:
    """Serialize as `user<TAB>tpp<TAB>trr<TAB>orphan<TAB>assignments`."""
    for p in profiles:
        yield f"{p.user}\t{p.tpp!r}\t{p.trr!r}\t{p.orphan!r}\t{p.n_assignments}"

