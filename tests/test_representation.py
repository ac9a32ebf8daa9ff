import logging

import pytest
from hypothesis import given
import hypothesis.strategies as st

from folkclass.errors import UnknownResourceError
from folkclass.folksonomy import Bookmark, ingest_bookmarks
from folkclass.representation import (RepresentationScheme, Selection, Weighting,
                                      represent_resource, tag_vocabulary)

from conftest import WEIGHTING_TABLE_COUNTS, weighting_table_folksonomy


def scheme(name):
    return RepresentationScheme.parse(name)


def top_k_tags(weights, k):
    """The (tag, count) pairs `represent_resource` selects, in entry order, for
    a resource whose tags carry the counts `weights`: user j tags it with
    every tag counted more than j times."""
    f = ingest_bookmarks(
        Bookmark(f"u{j}", "res", tuple(t for t, count in weights.items() if count > j))
        for j in range(max(weights.values())))
    vocab = tag_vocabulary(f)
    fv = represent_resource(f, "res", scheme(f"weighted-top{k}"), vocab)
    return [(vocab.id_to_token[i], int(w)) for i, w in fv.entries.items()]


class TestTopKTags:
    def test_top_two(self):
        assert top_k_tags({"a": 50, "b": 30, "c": 20}, 2) == [("a", 50), ("b", 30)]

    def test_lexicographic_tie_break(self):
        assert top_k_tags({"b": 5, "a": 5}, 1) == [("a", 5)]

    def test_k_larger_than_tag_count(self):
        assert top_k_tags({"a": 2, "b": 1}, 10) == [("a", 2), ("b", 1)]

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError, match=r"^k must be >= 1, got 0$"):
            scheme("weighted-top0")

    @given(st.dictionaries(st.sampled_from("abcdefgh"),
                           st.integers(1, 50), min_size=1),
           st.integers(1, 8))
    def test_nested_as_k_grows(self, weights, k):
        smaller = top_k_tags(weights, k)
        larger = top_k_tags(weights, k + 1)
        assert larger[:len(smaller)] == smaller


class TestWeightingTable:
    """The four weighting rows on the 100-annotator fixture resource."""

    @pytest.fixture()
    def setup(self):
        f = weighting_table_folksonomy()
        vocab = tag_vocabulary(f)
        return f, vocab

    def _weights_by_tag(self, setup, scheme_name):
        f, vocab = setup
        fv = represent_resource(f, "res", scheme(scheme_name), vocab)
        return {vocab.id_to_token[fid]: w for fid, w in fv.entries.items()}

    def test_ranks_top10(self, setup):
        got = self._weights_by_tag(setup, "ranks-top10")
        expected = {f"t{i:02d}": (10 - i + 1) / 10 for i in range(1, 11)}
        assert got == expected
        assert got["t01"] == 1.0 and got["t02"] == 0.9 and got["t03"] == 0.8
        assert got["t10"] == 0.1

    def test_fractions_fta(self, setup):
        got = self._weights_by_tag(setup, "fractions-fta")
        assert got["t01"] == 0.5 and got["t02"] == 0.3 and got["t03"] == 0.2
        assert got["t10"] == 0.01 and got["t12"] == 0.01

    def test_unweighted_fta_all_ones(self, setup):
        got = self._weights_by_tag(setup, "unweighted-fta")
        assert set(got.values()) == {1.0}
        assert len(got) == len(WEIGHTING_TABLE_COUNTS)

    def test_weighted_fta_raw_counts(self, setup):
        got = self._weights_by_tag(setup, "weighted-fta")
        assert got == {t: float(c) for t, c in WEIGHTING_TABLE_COUNTS.items()}

    def test_topk_is_restriction_of_fta(self, setup):
        f, vocab = setup
        fta = represent_resource(f, "res", scheme("weighted-fta"), vocab)
        topk = represent_resource(f, "res", scheme("weighted-top5"), vocab)
        assert len(topk) == 5
        assert all(fta.entries[fid] == w for fid, w in topk.entries.items())

    def test_fta_schemes_share_support(self, setup):
        f, vocab = setup
        supports = {
            name: set(represent_resource(f, "res", scheme(name), vocab).entries)
            for name in ("fractions-fta", "unweighted-fta", "weighted-fta")
        }
        assert len(set(map(frozenset, supports.values()))) == 1


class TestSchemeValidation:
    def test_ranks_requires_topk(self):
        with pytest.raises(ValueError):
            RepresentationScheme(Weighting.RANKS, Selection.FTA)

    def test_parse_names(self):
        s = scheme("fractions-top7")
        assert s.weighting is Weighting.FRACTIONS and s.k == 7
        assert scheme("weighted-fta").selection is Selection.FTA

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            scheme("weighted-bottom3")

    def test_generalized_rank_weights(self):
        f = weighting_table_folksonomy()
        vocab = tag_vocabulary(f)
        fv = represent_resource(f, "res", scheme("ranks-top4"), vocab)
        got = sorted(fv.entries.values(), reverse=True)
        assert got == [1.0, 0.75, 0.5, 0.25]


class TestRepresentResource:
    def test_unknown_resource_raises(self):
        f = ingest_bookmarks([Bookmark("u", "r", ("a",))])
        with pytest.raises(UnknownResourceError):
            represent_resource(f, "nope", scheme("weighted-fta"), tag_vocabulary(f))

    def test_unannotated_resource_gives_empty_vector(self, caplog):
        f = ingest_bookmarks([Bookmark("u1", "r1", ("a",)),
                              Bookmark("u2", "r2", ())])
        with caplog.at_level(logging.WARNING):
            fv = represent_resource(f, "r2", scheme("weighted-fta"), tag_vocabulary(f))
        assert len(fv) == 0
        assert "no annotated bookmarks" in caplog.text

    def test_fraction_weights_in_unit_interval(self):
        f = ingest_bookmarks([
            Bookmark("u1", "r1", ("a", "b")),
            Bookmark("u2", "r1", ("a",)),
            Bookmark("u3", "r1", ("a", "c")),
        ])
        vocab = tag_vocabulary(f)
        fv = represent_resource(f, "r1", scheme("fractions-fta"), vocab)
        assert all(0.0 < w <= 1.0 for w in fv.entries.values())
        assert max(fv.entries.values()) == 3 / 3

    def test_deterministic_under_ties(self):
        marks = [Bookmark(f"u{i}", "r1", ("x", "y", "z")) for i in range(3)]
        f = ingest_bookmarks(marks)
        vocab = tag_vocabulary(f)
        a = represent_resource(f, "r1", scheme("ranks-top10"), vocab)
        b = represent_resource(f, "r1", scheme("ranks-top10"), vocab)
        assert a == b
        # ties resolve lexicographically: x outranks y outranks z
        by_tag = {vocab.id_to_token[fid]: w for fid, w in a.entries.items()}
        assert by_tag["x"] > by_tag["y"] > by_tag["z"]

    def test_out_of_vocabulary_tags_leave_holes(self):
        from folkclass.vectors import build_vocabulary
        f = ingest_bookmarks([
            Bookmark("u1", "r1", ("a", "b")),
            Bookmark("u2", "r1", ("a",)),
        ])
        # vocabulary that only knows "b": rank-1 tag "a" drops out, "b" keeps rank 2
        vocab_b = build_vocabulary([["b"]], 0.0)
        fv = represent_resource(f, "r1", scheme("ranks-top10"), vocab_b)
        assert fv.entries == {vocab_b.id_of("b"): 0.9}
