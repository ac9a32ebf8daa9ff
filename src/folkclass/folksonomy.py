"""Bookmark ingestion, indexing and corpus statistics.

A bookmark is one user's annotation of one resource with an ordered tag
list.  A folksonomy is the immutable index built over a bookmark stream:
per-resource tag weights (number of annotating users per tag), per-tag
frequencies over the three dimensions (resources, users, bookmarks), and
annotated-only totals.  Tags are opaque byte strings: no case folding, no
stemming, no merging.
"""

from __future__ import annotations

import json
import logging
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from .errors import MalformedRecordError, SyntheticOrderError, UnknownResourceError

__all__ = [
    "Bookmark", "TagFrequencies", "IngestReport", "Folksonomy",
    "CategoryAssignment", "LEVELS", "check_level", "label_map",
    "DEFAULT_READING_STATE_TAGS",
    "parse_bookmark_lines", "bookmark_to_line", "strip_reading_state",
    "ingest_bookmarks", "filter_popular", "prune_small_categories",
    "novelty_ratios", "corpus_statistics",
    "parse_category_lines",
]

logger = logging.getLogger(__name__)

DEFAULT_READING_STATE_TAGS = frozenset({"read", "currently-reading", "to-read"})

LEVELS = ("top", "second")     # the category levels of a CategoryAssignment


def check_level(level: str) -> None:
    """Raise ValueError unless `level` is one of LEVELS."""
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}, got {level!r}")


@dataclass(frozen=True)
class Bookmark:
    """One user's annotation of one resource (the user x resource x tags triple)."""

    user: str
    resource: str
    tags: tuple[str, ...]
    order: int | None = None
    synthetic_order: bool = False

    @property
    def annotated(self) -> bool:
        return len(self.tags) > 0


@dataclass(frozen=True)
class TagFrequencies:
    """Occurrence counts of one tag over the three folksonomy dimensions."""

    rf: int  # resources the tag appears in
    uf: int  # users who ever used it
    bf: int  # bookmarks containing it


@dataclass(frozen=True)
class IngestReport:
    total_users: int
    annotated_users: int
    total_resources: int
    annotated_resources: int
    total_bookmarks: int
    annotated_bookmarks: int
    distinct_tags: int
    duplicate_pairs_dropped: int
    duplicate_tags_collapsed: int

    def as_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass(frozen=True)
class Folksonomy:
    """Immutable bookmark index.  Build with ingest_bookmarks; share freely.

    All totals and frequencies count annotated entities only: a bookmark
    with no tags is retained in `bookmarks` but contributes nothing to the
    statistics.
    """

    bookmarks: tuple[Bookmark, ...]
    resource_tag_weights: dict[str, dict[str, int]]   # resource -> tag -> w_t
    resource_annotators: dict[str, int]               # resource -> p (annotated bookmarks)
    tag_frequencies: dict[str, TagFrequencies]
    n_resources: int   # |R|, annotated
    n_users: int       # |U|, annotated
    n_bookmarks: int   # |B|, annotated
    report: IngestReport
    all_resource_ids: frozenset[str] = frozenset()
    user_bookmarks: dict[str, tuple[Bookmark, ...]] = field(repr=False, default_factory=dict)
    resource_bookmarks: dict[str, tuple[Bookmark, ...]] = field(repr=False, default_factory=dict)

    def tags_of(self, resource: str) -> dict[str, int]:
        try:
            return self.resource_tag_weights[resource]
        except KeyError:
            raise UnknownResourceError(resource) from None


@dataclass(frozen=True)
class CategoryAssignment:
    """Expert label for a resource: top-level category and optional second level."""

    resource: str
    top: str
    second: str | None = None

    def at_level(self, level: str) -> str | None:
        """The category at `level` (one of LEVELS); None if there is none."""
        check_level(level)
        return self.top if level == "top" else self.second


def label_map(labels: Iterable[CategoryAssignment], level: str) -> dict[str, str]:
    """Resource -> category at `level`, for every assignment that has one."""
    out = {}
    for a in labels:
        category = a.at_level(level)
        if category is not None:
            out[a.resource] = category
    return out


def parse_bookmark_lines(lines: Iterable[str]) -> Iterator[Bookmark]:
    """Parse line-delimited bookmark records.

    One JSON object per line with fields user (string), resource (string),
    tags (array of strings) and order (optional integer).  Raises
    MalformedRecordError carrying the 1-based line number.
    """
    for line_number, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise MalformedRecordError(line_number, f"invalid JSON ({exc.msg})") from exc
        if not isinstance(record, dict):
            raise MalformedRecordError(line_number, "record is not an object")
        try:
            user = record["user"]
            resource = record["resource"]
            tags = record["tags"]
        except KeyError as exc:
            raise MalformedRecordError(line_number, f"missing field {exc}") from exc
        if not isinstance(user, str) or not isinstance(resource, str):
            raise MalformedRecordError(line_number, "user and resource must be strings")
        if not isinstance(tags, list) or not all(isinstance(t, str) for t in tags):
            raise MalformedRecordError(line_number, "tags must be an array of strings")
        order = record.get("order")
        if order is not None and (not isinstance(order, int) or order < 0):
            raise MalformedRecordError(line_number, "order must be a non-negative integer")
        yield Bookmark(user=user, resource=resource, tags=tuple(tags), order=order)


def bookmark_to_line(b: Bookmark) -> str:
    record: dict = {"user": b.user, "resource": b.resource, "tags": list(b.tags)}
    if b.order is not None and not b.synthetic_order:
        record["order"] = b.order
    return json.dumps(record, ensure_ascii=False, sort_keys=True)


def strip_reading_state(stream: Iterable[Bookmark],
                        blocked: frozenset[str] | set[str] = DEFAULT_READING_STATE_TAGS,
                        ) -> Iterator[Bookmark]:
    """Drop automatically attached reading-state tags before ingestion.

    A bookmark whose tags are all blocked becomes unannotated but is kept.
    """
    blocked = frozenset(blocked)
    for b in stream:
        if blocked and any(t in blocked for t in b.tags):
            yield Bookmark(b.user, b.resource,
                           tuple(t for t in b.tags if t not in blocked),
                           b.order, b.synthetic_order)
        else:
            yield b


def ingest_bookmarks(stream: Iterable[Bookmark]) -> Folksonomy:
    """Index a bookmark stream into an immutable Folksonomy.

    Duplicate (user, resource) pairs keep the first bookmark seen; duplicate
    tags within one bookmark collapse to a single occurrence (w_t counts
    annotating users, not repetitions).  Bookmarks without an explicit order
    get one assigned by stream position within their resource and are
    flagged as synthetically ordered.
    """
    seen_pairs: set[tuple[str, str]] = set()
    kept: list[Bookmark] = []
    arrival_counter: dict[str, int] = {}
    duplicate_pairs = 0
    duplicate_tags = 0

    for b in stream:
        key = (b.user, b.resource)
        if key in seen_pairs:
            duplicate_pairs += 1
            continue
        seen_pairs.add(key)
        deduped = tuple(dict.fromkeys(b.tags))
        duplicate_tags += len(b.tags) - len(deduped)
        if b.order is None:
            order = arrival_counter.get(b.resource, 0)
            synthetic = True
        else:
            order, synthetic = b.order, b.synthetic_order
        arrival_counter[b.resource] = arrival_counter.get(b.resource, 0) + 1
        kept.append(Bookmark(b.user, b.resource, deduped, order, synthetic))

    if duplicate_pairs:
        logger.warning("dropped %d duplicate (user, resource) bookmarks", duplicate_pairs)

    resource_tag_weights: dict[str, dict[str, int]] = {}
    resource_annotators: dict[str, int] = {}
    tag_rf: dict[str, set[str]] = {}
    tag_uf: dict[str, set[str]] = {}
    tag_bf: dict[str, int] = {}
    user_bookmarks: dict[str, list[Bookmark]] = {}
    resource_bookmarks: dict[str, list[Bookmark]] = {}
    annotated_users: set[str] = set()
    annotated_resources: set[str] = set()
    all_users: set[str] = set()
    all_resources: set[str] = set()
    n_annotated_bookmarks = 0

    for b in kept:
        all_users.add(b.user)
        all_resources.add(b.resource)
        if not b.annotated:
            continue
        n_annotated_bookmarks += 1
        annotated_users.add(b.user)
        annotated_resources.add(b.resource)
        user_bookmarks.setdefault(b.user, []).append(b)
        resource_bookmarks.setdefault(b.resource, []).append(b)
        weights = resource_tag_weights.setdefault(b.resource, {})
        resource_annotators[b.resource] = resource_annotators.get(b.resource, 0) + 1
        for tag in b.tags:
            weights[tag] = weights.get(tag, 0) + 1
            tag_rf.setdefault(tag, set()).add(b.resource)
            tag_uf.setdefault(tag, set()).add(b.user)
            tag_bf[tag] = tag_bf.get(tag, 0) + 1

    frequencies = {
        tag: TagFrequencies(rf=len(tag_rf[tag]), uf=len(tag_uf[tag]), bf=tag_bf[tag])
        for tag in tag_bf
    }
    report = IngestReport(
        total_users=len(all_users),
        annotated_users=len(annotated_users),
        total_resources=len(all_resources),
        annotated_resources=len(annotated_resources),
        total_bookmarks=len(kept),
        annotated_bookmarks=n_annotated_bookmarks,
        distinct_tags=len(frequencies),
        duplicate_pairs_dropped=duplicate_pairs,
        duplicate_tags_collapsed=duplicate_tags,
    )
    return Folksonomy(
        bookmarks=tuple(kept),
        resource_tag_weights=resource_tag_weights,
        resource_annotators=resource_annotators,
        tag_frequencies=frequencies,
        n_resources=len(annotated_resources),
        n_users=len(annotated_users),
        n_bookmarks=n_annotated_bookmarks,
        report=report,
        all_resource_ids=frozenset(all_resources),
        user_bookmarks={u: tuple(bs) for u, bs in user_bookmarks.items()},
        resource_bookmarks={r: tuple(bs) for r, bs in resource_bookmarks.items()},
    )


def filter_popular(f: Folksonomy, min_users: int) -> set[str]:
    """Resources with at least min_users annotated bookmarks."""
    if min_users < 1:
        raise ValueError(f"min_users must be >= 1, got {min_users}")
    return {r for r, p in f.resource_annotators.items() if p >= min_users}


def prune_small_categories(labels: Iterable[CategoryAssignment],
                           level: str,
                           min_resources: int,
                           ) -> tuple[list[CategoryAssignment], dict]:
    """Drop categories at the given level with fewer than min_resources resources.

    Resources under a dropped category are removed with it.  Returns the
    surviving assignments plus a removal report.
    """
    check_level(level)
    if min_resources < 1:
        raise ValueError(f"min_resources must be >= 1, got {min_resources}")
    labels = list(labels)
    counts: dict[str, int] = {}
    for a in labels:
        category = a.at_level(level)
        if category is not None:
            counts[category] = counts.get(category, 0) + 1
    dropped = {c for c, n in counts.items() if n < min_resources}
    kept, removed = [], []
    for a in labels:
        if a.at_level(level) in dropped:
            removed.append(a.resource)
        else:
            kept.append(a)
    report = {
        "level": level,
        "min_resources": min_resources,
        "dropped_categories": sorted(dropped),
        "removed_resources": removed,
    }
    return kept, report


def novelty_ratios(f: Folksonomy, resource: str,
                   allow_synthetic_order: bool = False,
                   ) -> list[tuple[int, float]]:
    """Per-bookmark ratio of tags unseen in the resource's earlier bookmarks.

    Bookmarks are walked in order-value order; the first annotated bookmark
    has ratio 1.0 by convention.  Unannotated bookmarks are skipped and do
    not consume a rank.
    """
    if resource not in f.resource_bookmarks:
        if resource in f.all_resource_ids:
            return []
        raise UnknownResourceError(resource)
    marks = sorted(f.resource_bookmarks[resource], key=lambda b: b.order)
    if any(b.synthetic_order for b in marks) and not allow_synthetic_order:
        raise SyntheticOrderError(
            f"resource {resource!r} has synthetically ordered bookmarks; "
            "novelty statistics need real ordering "
            "(pass allow_synthetic_order=True / --allow-synthetic-order to override)")
    seen: set[str] = set()
    ratios: list[tuple[int, float]] = []
    rank = 0
    for b in marks:
        if not b.annotated:
            continue
        rank += 1
        new = sum(1 for t in b.tags if t not in seen)
        ratios.append((rank, new / len(b.tags)))
        seen.update(b.tags)
    return ratios


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def corpus_statistics(f: Folksonomy) -> dict:
    """Corpus-level distribution statistics over annotated data.

    Emits average distinct-tag counts per resource/user/bookmark, raw
    (rank percent, usage percent) pairs per dimension, average relative
    within-resource usage by tag rank, and the percentage of tags in each
    frequency-relation bucket.  Binning is left to plotting.
    """
    tags_per_resource = [len(w) for w in f.resource_tag_weights.values()]
    user_vocab = {
        u: len({t for b in bs for t in b.tags})
        for u, bs in f.user_bookmarks.items()
    }
    tags_per_bookmark = [len(b.tags) for b in f.bookmarks if b.annotated]

    def usage_curve(count_of: dict[str, int], total: int) -> list[tuple[float, float]]:
        ranked = sorted(count_of.values(), reverse=True)
        n = len(ranked)
        return [(100.0 * (i + 1) / n, 100.0 * c / total) for i, c in enumerate(ranked)]

    freqs = f.tag_frequencies
    usage = {
        "resources": usage_curve({t: q.rf for t, q in freqs.items()}, f.n_resources)
        if f.n_resources else [],
        "users": usage_curve({t: q.uf for t, q in freqs.items()}, f.n_users)
        if f.n_users else [],
        "bookmarks": usage_curve({t: q.bf for t, q in freqs.items()}, f.n_bookmarks)
        if f.n_bookmarks else [],
    }

    # mean w_t(rank)/w_t(rank 1) across resources having a tag at that rank
    by_rank: list[list[float]] = []
    for weights in f.resource_tag_weights.values():
        ordered = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))
        top = ordered[0][1]
        for i, (_, w) in enumerate(ordered):
            if i == len(by_rank):
                by_rank.append([])
            by_rank[i].append(w / top)
    relative_usage = [{"rank": i + 1, "mean_relative_usage": _mean(vals), "n_resources": len(vals)}
                      for i, vals in enumerate(by_rank)]

    n_tags = len(freqs)

    def pct(count: int) -> float:
        return 100.0 * count / n_tags if n_tags else 0.0

    buckets = {
        "bookmarks_vs_users": {
            "gt": pct(sum(1 for q in freqs.values() if q.bf > q.uf)),
            "eq": pct(sum(1 for q in freqs.values() if q.bf == q.uf)),
        },
        "resources_vs_users": {
            "gt": pct(sum(1 for q in freqs.values() if q.rf > q.uf)),
            "eq": pct(sum(1 for q in freqs.values() if q.rf == q.uf)),
            "lt": pct(sum(1 for q in freqs.values() if q.rf < q.uf)),
        },
        "bookmarks_vs_resources": {
            "gt": pct(sum(1 for q in freqs.values() if q.bf > q.rf)),
            "eq": pct(sum(1 for q in freqs.values() if q.bf == q.rf)),
        },
    }

    return {
        "ingest": f.report.as_dict(),
        "totals": {"resources": f.n_resources, "users": f.n_users,
                   "bookmarks": f.n_bookmarks, "tags": n_tags},
        "mean_distinct_tags": {
            "per_resource": _mean(tags_per_resource),
            "per_user": _mean(list(user_vocab.values())),
            "per_bookmark": _mean(tags_per_bookmark),
        },
        "tag_usage_curves": usage,
        "within_resource_relative_usage": relative_usage,
        "tag_relation_buckets": buckets,
    }


def parse_category_lines(lines: Iterable[str]) -> Iterator[CategoryAssignment]:
    """Parse `resource<TAB>top<TAB>second` lines; the second level may be empty."""
    for line_number, line in enumerate(lines, 1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) not in (2, 3) or not parts[0] or not parts[1]:
            raise MalformedRecordError(
                line_number, "expected resource<TAB>top[<TAB>second]")
        second = parts[2] if len(parts) == 3 and parts[2] else None
        yield CategoryAssignment(resource=parts[0], top=parts[1], second=second)

