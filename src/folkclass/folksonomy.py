"""Bookmark ingestion, indexing and corpus statistics.

A bookmark is one user's annotation of one resource with an ordered tag
list.  A folksonomy is the immutable index built over a bookmark stream
in one pass: per-resource tag weights (number of annotating users per
tag), per-tag frequencies over the three dimensions (resources, users,
bookmarks), and the ingest report, which owns the annotated-only totals.
Tags are opaque byte strings: no case folding, no stemming, no merging.
"""

from __future__ import annotations

import json
import math
from collections import Counter, defaultdict
from collections.abc import Iterable, Iterator
from itertools import chain, repeat
from operator import attrgetter, itemgetter
from typing import NamedTuple

from .choices import DEFAULT_READING_STATE_TAGS
from .errors import MalformedRecordError, SyntheticOrderError, UnknownResourceError

__all__ = [
    "Bookmark", "TagFrequencies", "IngestReport", "Folksonomy",
    "parse_bookmark_lines", "bookmark_to_line", "strip_reading_state",
    "ingest_bookmarks", "filter_popular", "novelty_ratios", "corpus_statistics",
]


# The records here are named tuples: a parse builds a Bookmark per line, and a
# named tuple costs a fraction of a frozen dataclass to build, and to define
# at import.
class Bookmark(NamedTuple):
    """One user's annotation of one resource (the user x resource x tags triple)."""

    user: str
    resource: str
    tags: tuple[str, ...]
    order: int | None = None
    synthetic_order: bool = False

    @property
    def annotated(self) -> bool:
        return len(self.tags) > 0


class TagFrequencies(NamedTuple):
    """Occurrence counts of one tag over the three folksonomy dimensions."""

    rf: int  # resources the tag appears in
    uf: int  # users who ever used it
    bf: int  # bookmarks containing it


class IngestReport(NamedTuple):
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
        return self._asdict()


class Folksonomy(NamedTuple):
    """Immutable bookmark index.  Build with ingest_bookmarks; share freely.

    Stores the kept bookmarks, the index over them (tag weights and
    frequencies, resource ids, annotated bookmarks by user and by resource)
    and the ingest report.  Each count has one owner: `n_resources`,
    `n_users` and `n_bookmarks` read the report, and `resource_annotators`
    is counted from `resource_bookmarks` when the index is built.  All
    totals and frequencies count annotated entities only: a bookmark with
    no tags is retained in `bookmarks` but contributes nothing to the
    statistics.  Tag rankings read the (-w, tag) order ingest stores; a
    Folksonomy built otherwise carries no order guarantee.
    """

    bookmarks: tuple[Bookmark, ...]
    resource_tag_weights: dict[str, dict[str, int]]   # resource -> tag -> w_t, by (-w, tag)
    tag_frequencies: dict[str, TagFrequencies]
    report: IngestReport
    all_resource_ids: frozenset[str]
    user_bookmarks: dict[str, tuple[Bookmark, ...]]
    resource_bookmarks: dict[str, tuple[Bookmark, ...]]
    resource_annotators: dict[str, int]   # resource -> p, its annotated bookmarks

    @property
    def n_resources(self) -> int:   # |R|, annotated
        return self.report.annotated_resources

    @property
    def n_users(self) -> int:   # |U|, annotated
        return self.report.annotated_users

    @property
    def n_bookmarks(self) -> int:   # |B|, annotated
        return self.report.annotated_bookmarks

    def tags_of(self, resource: str) -> dict[str, int]:
        try:
            return self.resource_tag_weights[resource]
        except KeyError:
            raise UnknownResourceError(resource) from None


_decode = json.JSONDecoder().raw_decode
_encode = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode


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
        if line[0] == "\ufeff":    # raw_decode would say "Expecting value"
            raise MalformedRecordError(
                line_number, "invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))")
        try:
            record, end = _decode(line)
        except json.JSONDecodeError as exc:
            raise MalformedRecordError(line_number, f"invalid JSON ({exc.msg})") from exc
        if end < len(line):
            raise MalformedRecordError(line_number, "invalid JSON (Extra data)")
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
        if not isinstance(tags, list) or not all(map(isinstance, tags, repeat(str))):
            raise MalformedRecordError(line_number, "tags must be an array of strings")
        order = record.get("order")
        if order is not None and (not isinstance(order, int) or order < 0):
            raise MalformedRecordError(line_number, "order must be a non-negative integer")
        yield Bookmark(user, resource, tuple(tags), order)


def bookmark_to_line(b: Bookmark) -> str:
    record: dict = {"user": b.user, "resource": b.resource, "tags": list(b.tags)}
    if b.order is not None and not b.synthetic_order:
        record["order"] = b.order
    return _encode(record)


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
    """Index a bookmark stream into an immutable Folksonomy, in one pass.

    Duplicate (user, resource) pairs keep the first bookmark seen; duplicate
    tags within one bookmark collapse to a single occurrence (w_t counts
    annotating users, not repetitions).  Bookmarks without an explicit order
    get one assigned by stream position within their resource and are
    flagged as synthetically ordered.  A bookmark is rebuilt only to collapse
    its tags or take that order; the tags are counted over the kept ones.
    Each resource's weights are stored by weight descending, then tag: the
    one place that decides the (-w, tag) order tag rankings read.
    """
    kept: list[Bookmark] = []
    users_of: dict[str, set[str]] = {}   # resource -> users of its kept bookmarks
    user_bookmarks: defaultdict[str, list[Bookmark]] = defaultdict(list)
    resource_bookmarks: defaultdict[str, list[Bookmark]] = defaultdict(list)
    duplicate_pairs = 0
    duplicate_tags = 0

    for b in stream:
        users = users_of.setdefault(b.resource, set())
        if b.user in users:
            duplicate_pairs += 1
            continue
        arrival = len(users)
        users.add(b.user)
        tags = tuple(dict.fromkeys(b.tags))
        duplicate_tags += len(b.tags) - len(tags)
        if b.order is None:
            b = Bookmark(b.user, b.resource, tags, arrival, True)
        elif len(tags) < len(b.tags):
            b = Bookmark(b.user, b.resource, tags, b.order, b.synthetic_order)
        kept.append(b)
        if tags:
            user_bookmarks[b.user].append(b)
            resource_bookmarks[b.resource].append(b)

    if duplicate_pairs:     # logging is imported only to warn, as it costs start-up time
        import logging
        logging.getLogger(__name__).warning(
            "dropped %d duplicate (user, resource) bookmarks", duplicate_pairs)

    tags_of = attrgetter("tags")
    # by tag, then stably by weight: (-w, tag) with no per-item key function
    resource_tag_weights = {
        r: dict(sorted(sorted(Counter(chain.from_iterable(map(tags_of, bs))).items()),
                       key=itemgetter(1), reverse=True))
        for r, bs in resource_bookmarks.items()}
    tag_rf = Counter(chain.from_iterable(resource_tag_weights.values()))
    tag_uf = Counter(chain.from_iterable(set(chain.from_iterable(map(tags_of, bs)))
                                         for bs in user_bookmarks.values()))
    # in the order of each tag's first bookmark, as the stream gave them
    frequencies = {tag: TagFrequencies(tag_rf[tag], tag_uf[tag], bf)
                   for tag, bf in Counter(chain.from_iterable(map(tags_of, kept))).items()}
    report = IngestReport(
        total_users=len(set().union(*users_of.values())),
        annotated_users=len(user_bookmarks),
        total_resources=len(users_of),
        annotated_resources=len(resource_bookmarks),
        total_bookmarks=len(kept),
        annotated_bookmarks=sum(map(len, resource_bookmarks.values())),
        distinct_tags=len(frequencies),
        duplicate_pairs_dropped=duplicate_pairs,
        duplicate_tags_collapsed=duplicate_tags,
    )
    return Folksonomy(
        bookmarks=tuple(kept),
        resource_tag_weights=resource_tag_weights,
        tag_frequencies=frequencies,
        report=report,
        all_resource_ids=frozenset(users_of),
        user_bookmarks={u: tuple(bs) for u, bs in user_bookmarks.items()},
        resource_bookmarks={r: tuple(bs) for r, bs in resource_bookmarks.items()},
        resource_annotators={r: len(bs) for r, bs in resource_bookmarks.items()},
    )


def __getattr__(name: str):
    if name == "CategoryAssignment":    # its home before labels.py; perfbench reads it here
        from .labels import CategoryAssignment
        return CategoryAssignment
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def filter_popular(f: Folksonomy, min_users: int) -> set[str]:
    """Resources with at least min_users annotated bookmarks."""
    if min_users < 1:
        raise ValueError(f"min_users must be >= 1, got {min_users}")
    return {r for r, p in f.resource_annotators.items() if p >= min_users}


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


def _mean(values: list[float]) -> float:    # fsum: the same whatever order resources came in
    return math.fsum(values) / len(values) if values else 0.0


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
    for weights in f.resource_tag_weights.values():     # each in (-w, tag) order
        top = next(iter(weights.values()))
        for i, w in enumerate(weights.values()):
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
