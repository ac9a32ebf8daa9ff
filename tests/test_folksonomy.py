import builtins
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from folkclass.cli import _read_lines
from folkclass.errors import MalformedRecordError, SyntheticOrderError, UnknownResourceError
from folkclass.folksonomy import (Bookmark, corpus_statistics, filter_popular,
                                  ingest_bookmarks, novelty_ratios,
                                  parse_bookmark_lines, strip_reading_state,
                                  bookmark_to_line)
from folkclass.labels import (CategoryAssignment, label_map, parse_category_lines,
                              prune_small_categories)
from folkclass.representation import tag_vocabulary
from folkclass.weighting import parse_member, vectorize

from conftest import brute_force_frequencies, random_bookmarks


class TestIngest:
    def test_resource_weights_count_annotating_users(self, two_bookmark_folksonomy):
        f = two_bookmark_folksonomy
        assert f.tags_of("r1") == {"a": 1, "b": 2}
        assert f.resource_annotators["r1"] == 2

    def test_duplicate_tags_within_bookmark_collapse(self):
        f = ingest_bookmarks([Bookmark("u1", "r1", ("a", "a", "b"))])
        assert f.bookmarks[0].tags == ("a", "b")
        assert f.report.duplicate_tags_collapsed == 1

    def test_duplicate_user_resource_pair_keeps_first(self):
        f = ingest_bookmarks([
            Bookmark("u1", "r1", ("a",)),
            Bookmark("u1", "r1", ("b",)),
        ])
        assert f.tags_of("r1") == {"a": 1}
        assert f.report.duplicate_pairs_dropped == 1

    def test_empty_stream_is_valid(self):
        f = ingest_bookmarks([])
        assert f.n_resources == f.n_users == f.n_bookmarks == 0

    def test_unannotated_bookmarks_kept_but_not_counted(self):
        f = ingest_bookmarks([
            Bookmark("u1", "r1", ()),
            Bookmark("u2", "r1", ("a",)),
        ])
        assert len(f.bookmarks) == 2
        assert f.n_bookmarks == 1
        assert f.report.total_bookmarks == 2
        assert f.report.annotated_bookmarks == 1
        assert f.report.annotated_users == 1
        assert f.report.total_users == 2

    def test_frequency_dominance_on_random_corpus(self):
        rng = np.random.default_rng(42)
        stream = random_bookmarks(rng, n_bookmarks=1000)
        f = ingest_bookmarks(stream)
        oracle = brute_force_frequencies(stream)
        assert set(oracle) == set(f.tag_frequencies)
        for tag, q in f.tag_frequencies.items():
            assert q.bf >= q.uf and q.bf >= q.rf
            assert (q.rf, q.uf, q.bf) == oracle[tag]

    def test_ingestion_idempotence(self):
        rng = np.random.default_rng(3)
        stream = random_bookmarks(rng, n_bookmarks=300)
        f1 = ingest_bookmarks(stream)
        f2 = ingest_bookmarks(stream)
        assert f1.resource_tag_weights == f2.resource_tag_weights
        assert f1.tag_frequencies == f2.tag_frequencies
        assert f1.bookmarks == f2.bookmarks

    def test_weight_conservation(self):
        rng = np.random.default_rng(5)
        stream = random_bookmarks(rng, n_bookmarks=400)
        f = ingest_bookmarks(stream)
        for r, weights in f.resource_tag_weights.items():
            assignments = sum(len(b.tags) for b in f.resource_bookmarks[r])
            assert sum(weights.values()) == assignments
            assert all(w <= f.resource_annotators[r] for w in weights.values())


def recount(stream):
    """Independent recount of everything ingest derives from a raw stream:
    each kept bookmark as (user, resource, tags, order, synthetic_order),
    the report fields, and p per annotated resource."""
    kept, collapsed = [], 0
    for b in stream:
        if any((k[0], k[1]) == (b.user, b.resource) for k in kept):
            continue
        tags = tuple(t for i, t in enumerate(b.tags) if t not in b.tags[:i])
        collapsed += len(b.tags) - len(tags)
        earlier = sum(1 for k in kept if k[1] == b.resource)
        kept.append((b.user, b.resource, tags)
                    + ((earlier, True) if b.order is None else (b.order, b.synthetic_order)))
    annotated = [k for k in kept if k[2]]
    report = {
        "total_users": len({k[0] for k in kept}),
        "annotated_users": len({k[0] for k in annotated}),
        "total_resources": len({k[1] for k in kept}),
        "annotated_resources": len({k[1] for k in annotated}),
        "total_bookmarks": len(kept),
        "annotated_bookmarks": len(annotated),
        "distinct_tags": len({t for k in annotated for t in k[2]}),
        "duplicate_pairs_dropped": len(stream) - len(kept),
        "duplicate_tags_collapsed": collapsed,
    }
    annotators = {r: sum(1 for k in annotated if k[1] == r) for _, r, *_ in annotated}
    return kept, report, annotators


_NAMES = st.sampled_from(["a", "b", "c", "d"])
_STREAMS = st.lists(
    st.builds(Bookmark, _NAMES, _NAMES,
              st.lists(st.sampled_from(["t0", "t1", "t2", "t3", "t4"]), max_size=5)
              .map(tuple),
              st.none() | st.integers(0, 9), st.booleans()),
    max_size=30)


@settings(max_examples=300, deadline=None)
@given(_STREAMS)
def test_ingest_matches_independent_recount(stream):
    """Duplicate pairs, repeated tags, empty tag lists, explicit and missing
    orders: every count ingest keeps or derives equals a brute-force one."""
    f = ingest_bookmarks(stream)
    kept, report, annotators = recount(stream)
    assert f.report.as_dict() == report
    assert (f.n_resources, f.n_users, f.n_bookmarks) == (
        report["annotated_resources"], report["annotated_users"],
        report["annotated_bookmarks"])
    assert f.resource_annotators == annotators
    assert f.all_resource_ids == {k[1] for k in kept}
    assert [(b.user, b.resource, b.tags, b.order, b.synthetic_order)
            for b in f.bookmarks] == kept
    assert {t: (q.rf, q.uf, q.bf) for t, q in f.tag_frequencies.items()} == \
        brute_force_frequencies(stream)


class TestBookmarkParsing:
    def test_round_trip(self):
        b = Bookmark("u1", "r1", ("a", "b"), order=3)
        [parsed] = parse_bookmark_lines([bookmark_to_line(b)])
        assert parsed == b

    # any Unicode text, U+0085, U+2028 and U+2029 included
    @given(st.lists(st.builds(Bookmark, st.text(max_size=6), st.text(max_size=6),
                              st.lists(st.text(max_size=6), max_size=4).map(tuple),
                              st.none() | st.integers(0, 10 ** 9),
                              synthetic_order=st.just(False)),
                    max_size=5))
    @example([Bookmark("u", "r", ("a\u2028b", "c\u0085", "\u2029"))])
    def test_file_round_trip_through_the_cli_line_reader(self, marks):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "bookmarks.jsonl"
            path.write_text("".join(bookmark_to_line(b) + "\n" for b in marks),
                            encoding="utf-8")
            assert list(parse_bookmark_lines(_read_lines(str(path)))) == marks

    def test_malformed_json_reports_line_number(self):
        lines = ['{"user": "u", "resource": "r", "tags": []}', "{broken"]
        with pytest.raises(MalformedRecordError) as err:
            list(parse_bookmark_lines(lines))
        assert err.value.line_number == 2

    def test_missing_field_rejected(self):
        with pytest.raises(MalformedRecordError):
            list(parse_bookmark_lines(['{"user": "u", "tags": []}']))

    def test_non_string_tags_rejected(self):
        with pytest.raises(MalformedRecordError):
            list(parse_bookmark_lines(['{"user":"u","resource":"r","tags":[1]}']))


class TestStripReadingState:
    def test_blocked_tags_removed(self):
        [b] = strip_reading_state([Bookmark("u", "r", ("read", "fantasy"))])
        assert b.tags == ("fantasy",)

    def test_bookmark_can_become_unannotated(self):
        [b] = strip_reading_state([Bookmark("u", "r", ("read",))])
        assert b.tags == ()
        assert not b.annotated

    def test_empty_blocked_set_is_identity(self):
        marks = [Bookmark("u", "r", ("read", "to-read"))]
        assert list(strip_reading_state(marks, frozenset())) == marks

    def test_default_blocked_set(self):
        [b] = strip_reading_state(
            [Bookmark("u", "r", ("to-read", "currently-reading", "scifi"))])
        assert b.tags == ("scifi",)


class TestFilterPopular:
    def _corpus(self, p):
        return ingest_bookmarks(
            [Bookmark(f"u{i}", "r1", ("a",)) for i in range(p)])

    def test_threshold_inclusive(self):
        assert filter_popular(self._corpus(100), 100) == {"r1"}

    def test_below_threshold_excluded(self):
        assert filter_popular(self._corpus(99), 100) == set()

    def test_min_one_returns_all_annotated(self):
        f = ingest_bookmarks([
            Bookmark("u1", "r1", ("a",)),
            Bookmark("u1", "r2", ()),
        ])
        assert filter_popular(f, 1) == {"r1"}

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            filter_popular(self._corpus(1), 0)


class TestPruneSmallCategories:
    def _labels(self, sizes):
        out = []
        for cat, n in sizes.items():
            for i in range(n):
                out.append(CategoryAssignment(f"{cat}-{i}", cat))
        return out

    def test_boundary_kept(self):
        kept, report = prune_small_categories(self._labels({"c": 5}), "top", 5)
        assert len(kept) == 5 and report["dropped_categories"] == []

    def test_below_boundary_dropped_with_resources(self):
        kept, report = prune_small_categories(
            self._labels({"big": 6, "small": 4}), "top", 5)
        assert {a.top for a in kept} == {"big"}
        assert report["dropped_categories"] == ["small"]
        assert len(report["removed_resources"]) == 4

    def test_min_one_is_identity(self):
        labels = self._labels({"a": 1, "b": 2})
        kept, _ = prune_small_categories(labels, "top", 1)
        assert kept == labels

    def test_second_level(self):
        labels = [CategoryAssignment("r1", "t", "s1"),
                  CategoryAssignment("r2", "t", "s2"),
                  CategoryAssignment("r3", "t", "s2")]
        kept, _ = prune_small_categories(labels, "second", 2)
        assert [a.resource for a in kept] == ["r2", "r3"]


class TestLabelMap:
    LABELS = [CategoryAssignment("r1", "t1", "s1"),
              CategoryAssignment("r2", "t2"),
              CategoryAssignment("r3", "t1", "s3")]

    def test_top_level(self):
        assert label_map(self.LABELS, "top") == {"r1": "t1", "r2": "t2", "r3": "t1"}

    def test_second_level_skips_empty(self):
        assert label_map(self.LABELS, "second") == {"r1": "s1", "r3": "s3"}

    def test_at_level(self):
        assert [a.at_level("second") for a in self.LABELS] == ["s1", None, "s3"]

    @pytest.mark.parametrize("level", ["Top", "SECOND", "third", ""])
    def test_unknown_level_rejected(self, level):
        with pytest.raises(ValueError, match="level"):
            label_map([CategoryAssignment("r", "top1", "sec1")], level)


# one (user, resource) pair per bookmark, drawn with many users per resource
# and few tags so weights tie; the draw is then shuffled into line order
_TIED_STREAMS = st.lists(
    st.tuples(st.sampled_from([f"u{i}" for i in range(8)]), st.sampled_from(["r0", "r1", "r2"]),
              st.lists(st.sampled_from(["b", "a", "B", "é", "a1", "z"]), max_size=4)),
    max_size=24, unique_by=lambda m: m[:2]).flatmap(st.permutations)


@settings(max_examples=300, deadline=None)
@given(_TIED_STREAMS)
def test_ingest_stores_each_resources_tags_by_minus_w_then_tag(marks):
    """The (-w, tag) order is stored at ingest: weight descending, then tag,
    whatever the line order; the weights are a recount of the stream, and
    the vectorizer reads that order without sorting."""
    f = ingest_bookmarks(Bookmark(u, r, tuple(tags)) for u, r, tags in marks)
    recount: dict[str, dict[str, int]] = {}
    for _, r, tags in marks:
        for t in set(tags):
            recount.setdefault(r, {})[t] = recount.get(r, {}).get(t, 0) + 1
    assert f.resource_tag_weights == recount
    for r, weights in recount.items():
        assert list(f.resource_tag_weights[r].items()) == sorted(
            weights.items(), key=lambda kv: (-kv[1], kv[0]))

    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return real_sorted(*args, **kwargs)

    real_sorted = builtins.sorted
    vocab = tag_vocabulary(f)
    members = ["ranks-top2", "fractions-top3", "unweighted-fta", "weighted-fta",
               "tf", "tf-irf", "tf-iuf", "tf-ibf"]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(builtins, "sorted", spy)
        for name in members:
            vectorize(f, parse_member(name), vocab, list(f.all_resource_ids))
    assert calls == []


class TestNovelty:
    def _ordered(self, tag_lists):
        return ingest_bookmarks([
            Bookmark(f"u{i}", "r1", tuple(tags), order=i)
            for i, tags in enumerate(tag_lists)
        ])

    def test_worked_example(self):
        f = self._ordered([("tag1", "tag2"), ("tag2", "tag3")])
        assert novelty_ratios(f, "r1") == [(1, 1.0), (2, 0.5)]

    def test_subset_gives_zero(self):
        f = self._ordered([("a", "b"), ("a",)])
        assert novelty_ratios(f, "r1")[1] == (2, 0.0)

    def test_disjoint_gives_one(self):
        f = self._ordered([("a",), ("b", "c")])
        assert novelty_ratios(f, "r1")[1] == (2, 1.0)

    def test_synthetic_order_refused_without_flag(self):
        f = ingest_bookmarks([Bookmark("u1", "r1", ("a",)),
                              Bookmark("u2", "r1", ("b",))])
        with pytest.raises(SyntheticOrderError):
            novelty_ratios(f, "r1")
        assert novelty_ratios(f, "r1", allow_synthetic_order=True) == [
            (1, 1.0), (2, 1.0)]

    def test_unknown_resource(self):
        f = self._ordered([("a",)])
        with pytest.raises(UnknownResourceError):
            novelty_ratios(f, "nope")

    def test_unannotated_bookmarks_skipped(self):
        f = ingest_bookmarks([
            Bookmark("u1", "r1", ("a",), order=0),
            Bookmark("u2", "r1", (), order=1),
            Bookmark("u3", "r1", ("a", "b"), order=2),
        ])
        assert novelty_ratios(f, "r1") == [(1, 1.0), (2, 0.5)]

    @given(st.lists(st.lists(st.sampled_from("abcdef"), min_size=1, max_size=4,
                             unique=True),
                    min_size=1, max_size=8))
    def test_ratios_in_unit_interval(self, tag_lists):
        f = self._ordered(tag_lists)
        ratios = novelty_ratios(f, "r1")
        assert ratios[0] == (1, 1.0)
        assert all(0.0 <= x <= 1.0 for _, x in ratios)


class TestCorpusStatistics:
    def test_single_bookmark_averages(self):
        f = ingest_bookmarks([Bookmark("u1", "r1", ("a", "b"))])
        stats = corpus_statistics(f)
        m = stats["mean_distinct_tags"]
        assert m["per_resource"] == m["per_user"] == m["per_bookmark"] == 2.0

    def test_single_use_tag_lands_in_equality_buckets(self):
        f = ingest_bookmarks([
            Bookmark("u1", "r1", ("a",)),
            Bookmark("u2", "r2", ("a",)),
        ])
        buckets = corpus_statistics(f)["tag_relation_buckets"]
        # one tag: bf=2, uf=2, rf=2 -> all equality buckets
        assert buckets["bookmarks_vs_users"]["eq"] == 100.0
        assert buckets["bookmarks_vs_resources"]["eq"] == 100.0

    def test_bucket_families_partition(self):
        rng = np.random.default_rng(11)
        f = ingest_bookmarks(random_bookmarks(rng, n_bookmarks=500))
        buckets = corpus_statistics(f)["tag_relation_buckets"]
        for family in buckets.values():
            assert sum(family.values()) == pytest.approx(100.0)

    def test_empty_folksonomy_statistics(self):
        stats = corpus_statistics(ingest_bookmarks([]))
        assert stats["totals"] == {"resources": 0, "users": 0,
                                   "bookmarks": 0, "tags": 0}
        assert stats["tag_usage_curves"] == {"resources": [], "users": [],
                                             "bookmarks": []}

    def test_statistics_do_not_depend_on_stream_order(self):
        """Rank-2 relative usages 1/3, 1/2 and 2/3: summed in arrival order,
        their float sum is not the same reversed."""
        marks = [Bookmark("u1", "r1", ("b", "a")), Bookmark("u2", "r1", ("a",)),
                 Bookmark("u3", "r1", ("a",)), Bookmark("u1", "r2", ("g", "c", "d")),
                 Bookmark("u2", "r2", ("c",)), Bookmark("u3", "r3", ("f", "e")),
                 Bookmark("u1", "r3", ("e", "b", "f")), Bookmark("u2", "r3", ("b", "e"))]
        forward = corpus_statistics(ingest_bookmarks(marks))
        assert forward == corpus_statistics(ingest_bookmarks(marks[::-1]))
        assert forward["within_resource_relative_usage"][1] == {
            "rank": 2, "mean_relative_usage": 0.5, "n_resources": 3}

    def test_usage_curves_cover_all_tags(self):
        rng = np.random.default_rng(17)
        f = ingest_bookmarks(random_bookmarks(rng, n_bookmarks=300))
        stats = corpus_statistics(f)
        n_tags = stats["totals"]["tags"]
        for curve in stats["tag_usage_curves"].values():
            assert len(curve) == n_tags
            assert all(0 < pct <= 100.0 for _, pct in curve)


class TestCategoryParsing:
    def test_round_trip_with_and_without_second(self):
        lines = ["r1\ttop1\tsub1", "r2\ttop2\t"]
        parsed = list(parse_category_lines(lines))
        assert parsed == [CategoryAssignment("r1", "top1", "sub1"),
                          CategoryAssignment("r2", "top2", None)]

    def test_malformed_line(self):
        with pytest.raises(MalformedRecordError):
            list(parse_category_lines(["justonefield"]))
