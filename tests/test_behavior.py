import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from folkclass.behavior import (all_profiles, descriptiveness, orphan,
                                rank_users, split_by_assignments, tpp, trr,
                                user_profile)
from folkclass.errors import DegenerateInputError
from folkclass.folksonomy import Bookmark, ingest_bookmarks
from folkclass.vectors import FeatureVector

from conftest import random_bookmarks


def user_with(tag_lists, user="u"):
    return ingest_bookmarks([
        Bookmark(user, f"r{i}", tuple(tags)) for i, tags in enumerate(tag_lists)
    ])


class TestTpp:
    def test_hand_computed_two(self):
        f = user_with([["a", "b"], ["c", "d", "e"], ["f"]])
        assert tpp(f, "u") == 6 / 3 == 2.0

    def test_minimum_one(self):
        f = user_with([["a"], ["a"], ["b"]])
        assert tpp(f, "u") == 1.0

    def test_four_tags_each(self):
        f = user_with([[f"t{i}{j}" for j in range(4)] for i in range(5)])
        assert tpp(f, "u") == 4.0

    def test_no_annotated_bookmarks_rejected(self):
        f = ingest_bookmarks([Bookmark("u", "r", ())])
        with pytest.raises(DegenerateInputError):
            tpp(f, "u")


class TestTrr:
    def test_five_tags_ten_resources(self):
        lists = [[f"t{i % 5}"] for i in range(10)]
        f = user_with(lists)
        assert trr(f, "u") == 5 / 10

    def test_single_reused_tag(self):
        f = user_with([["same"]] * 7)
        assert trr(f, "u") == 1 / 7

    def test_all_unique_tags_equals_tpp(self):
        lists = [[f"a{i}", f"b{i}"] for i in range(6)]
        f = user_with(lists)
        assert trr(f, "u") == tpp(f, "u") == 2.0


class TestOrphan:
    def test_max_tag_on_150_resources(self):
        # top tag on 150 resources -> n = 2; tags on <= 2 resources are orphans
        lists = [["top"] for _ in range(150)]
        lists[0] = ["top", "a"]                  # a: 1 resource -> orphan
        lists[1] = ["top", "b"]; lists[2] = ["top", "b"]   # b: 2 -> orphan
        lists[3] = ["top", "c"]; lists[4] = ["top", "c"]; lists[5] = ["top", "c"]
        f = user_with(lists)                      # c: 3 -> not an orphan
        assert orphan(f, "u") == 2 / 4

    def test_max_tag_at_or_below_100_gives_n_one(self):
        lists = [["top"] for _ in range(40)]
        lists[0] = ["top", "once"]
        lists[1] = ["top", "twice"]; lists[2] = ["top", "twice"]
        f = user_with(lists)
        # n = 1: only single-use tags are orphans
        assert orphan(f, "u") == 1 / 3

    def test_single_tag_user_is_fully_orphaned(self):
        f = user_with([["lonely"]])
        assert orphan(f, "u") == 1.0

    def test_heavily_reused_single_tag_user(self):
        f = user_with([["same"]] * 50)
        # the tag is its own maximum with |R(t)| = 50 <= n*100, so n = 1 < 50
        assert orphan(f, "u") == 0.0


class TestProfilesAndRanking:
    def test_profile_fields(self):
        f = user_with([["a", "b"], ["a"]])
        p = user_profile(f, "u")
        assert (p.tpp, p.trr, p.n_assignments, p.n_resources,
                p.n_distinct_tags) == (1.5, 1.0, 3, 2, 2)

    def test_low_tpp_ranks_first(self):
        f = ingest_bookmarks([
            Bookmark("terse", "r1", ("a",)),
            Bookmark("verbose", "r2", ("a", "b", "c")),
        ])
        ranked = rank_users(all_profiles(f), "tpp")
        assert [p.user for p in ranked] == ["terse", "verbose"]

    def test_ties_resolved_by_user_id(self):
        f = ingest_bookmarks([
            Bookmark("zed", "r1", ("a",)),
            Bookmark("abe", "r2", ("b",)),
        ])
        ranked = rank_users(all_profiles(f), "tpp")
        assert [p.user for p in ranked] == ["abe", "zed"]

    def test_input_order_irrelevant(self):
        f = ingest_bookmarks([
            Bookmark("u1", "r1", ("a",)),
            Bookmark("u2", "r2", ("a", "b")),
        ])
        profiles = all_profiles(f)
        assert rank_users(profiles, "trr") == rank_users(profiles[::-1], "trr")

    def test_unknown_measure(self):
        f = user_with([["a"]])
        with pytest.raises(ValueError):
            rank_users(all_profiles(f), "charisma")

    def test_measures_invariant_to_bookmark_order(self):
        rng = np.random.default_rng(2)
        stream = [b for b in random_bookmarks(rng, n_bookmarks=200) if b.tags]
        forward = ingest_bookmarks(stream)
        backward = ingest_bookmarks(stream[::-1])
        # reversed streams resolve duplicate pairs differently and assign
        # different synthetic orders; compare users whose annotation content
        # (resource, tag set) agrees, since the measures ignore ordering
        content = lambda marks: sorted((b.resource, frozenset(b.tags)) for b in marks)
        for u in forward.user_bookmarks:
            if content(forward.user_bookmarks[u]) != content(
                    backward.user_bookmarks.get(u, ())):
                continue
            assert user_profile(forward, u).tpp == user_profile(backward, u).tpp
            assert user_profile(forward, u).orphan == user_profile(backward, u).orphan

    def test_personomy_locality(self):
        rng = np.random.default_rng(6)
        stream = random_bookmarks(rng, n_bookmarks=300)
        full = ingest_bookmarks(stream)
        for u in list(full.user_bookmarks)[:10]:
            isolated = ingest_bookmarks(list(full.user_bookmarks[u]))
            got = user_profile(isolated, u)
            expected = user_profile(full, u)
            assert (got.tpp, got.trr, got.orphan) == \
                (expected.tpp, expected.trr, expected.orphan)


class TestSplit:
    def _profiles(self, assignment_counts):
        marks = []
        for i, count in enumerate(assignment_counts):
            tags = tuple(f"t{i}_{j}" for j in range(count))
            marks.append(Bookmark(f"u{i}", f"r{i}", tags))
        f = ingest_bookmarks(marks)
        return rank_users(all_profiles(f), "tpp")

    def test_hundred_percent_takes_everyone(self):
        ranked = self._profiles([3, 2, 1])
        split = split_by_assignments(ranked, 100.0)
        assert set(split.categorizers) == set(split.describers) == \
            {p.user for p in ranked}

    def test_boundary_user_included(self):
        # Categorizer end holds users with 60% then 40% of assignments
        ranked = self._profiles([6, 4])
        ranked = sorted(ranked, key=lambda p: -p.n_assignments)
        split = split_by_assignments(ranked, 50.0)
        assert split.categorizers == (ranked[0].user,)
        assert split.categorizer_fraction == 0.6

    def test_achieved_mass_reaches_target(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            f = ingest_bookmarks(random_bookmarks(rng, n_bookmarks=150))
            ranked = rank_users(all_profiles(f), "trr")
            total = sum(p.n_assignments for p in ranked)
            for percent in range(10, 101, 10):
                split = split_by_assignments(ranked, float(percent))
                by_user = {p.user: p.n_assignments for p in ranked}
                cat_mass = sum(by_user[u] for u in split.categorizers)
                desc_mass = sum(by_user[u] for u in split.describers)
                assert cat_mass / total >= percent / 100.0
                assert desc_mass / total >= percent / 100.0
                assert split.categorizer_fraction == pytest.approx(cat_mass / total)

    def test_categorizer_sets_nest(self):
        rng = np.random.default_rng(20)
        f = ingest_bookmarks(random_bookmarks(rng, n_bookmarks=200))
        ranked = rank_users(all_profiles(f), "orphan")
        previous: tuple = ()
        for percent in range(10, 101, 10):
            split = split_by_assignments(ranked, float(percent))
            assert split.categorizers[:len(previous)] == previous
            previous = split.categorizers

    def test_percent_out_of_range(self):
        ranked = self._profiles([1, 1])
        for bad in (0.0, -5.0, 100.5):
            with pytest.raises(ValueError):
                split_by_assignments(ranked, bad)


class TestDescriptiveness:
    def _fv(self, entries, dim=4):
        return FeatureVector(entries, dim)

    def test_identical_vectors_give_one(self):
        vecs = {"r1": self._fv({0: 2.0}), "r2": self._fv({1: 5.0, 2: 1.0})}
        result = descriptiveness(vecs, vecs)
        assert result.similarity == pytest.approx(1.0)

    def test_disjoint_supports_give_zero(self):
        tags = {"r1": self._fv({0: 1.0})}
        refs = {"r1": self._fv({1: 1.0})}
        assert descriptiveness(tags, refs).similarity == 0.0

    def test_mean_of_one_and_zero_is_half(self):
        tags = {"r1": self._fv({0: 3.0}), "r2": self._fv({0: 1.0})}
        refs = {"r1": self._fv({0: 1.0}), "r2": self._fv({1: 1.0})}
        assert descriptiveness(tags, refs).similarity == pytest.approx(0.5)

    def test_zero_vectors_counted_and_flagged(self):
        tags = {"r1": self._fv({0: 1.0}), "r2": self._fv({})}
        refs = {"r1": self._fv({0: 1.0}), "r2": self._fv({1: 1.0})}
        result = descriptiveness(tags, refs)
        assert result.similarity == pytest.approx(0.5)
        assert result.zero_vector_resources == ("r2",)

    def test_empty_resource_set_rejected(self):
        with pytest.raises(ValueError):
            descriptiveness({}, {})

    def test_mismatched_resource_sets_rejected(self):
        with pytest.raises(ValueError):
            descriptiveness({"r1": self._fv({0: 1.0})}, {})

    def test_scale_invariance(self):
        tags = {"r1": self._fv({0: 1.0, 1: 2.0})}
        refs = {"r1": self._fv({0: 3.0, 1: 1.0})}
        scaled = {"r1": self._fv({0: 250.0, 1: 500.0})}
        assert descriptiveness(tags, refs).similarity == \
            pytest.approx(descriptiveness(scaled, refs).similarity)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.sampled_from([f"t{i}" for i in range(10)]),
                         min_size=1, max_size=6, unique=True),
                min_size=1, max_size=15),
       st.integers(0, 300))
def test_measure_invariants_on_random_users(tag_lists, extra):
    # `extra` bookmarks of one tag lift the orphan threshold up to 4
    tag_lists = tag_lists + [["t0"]] * extra
    f = user_with(tag_lists)
    p = user_profile(f, "u")
    assert p.tpp >= 1.0
    assert p.trr <= p.tpp
    assert 0.0 <= p.orphan <= 1.0
    # each field against its definition, by brute force over the tag lists
    vocab = {t for tags in tag_lists for t in tags}
    resources_with = {t: sum(1 for tags in tag_lists if t in tags) for t in vocab}
    threshold = math.ceil(max(resources_with.values()) / 100)
    assignments = sum(len(tags) for tags in tag_lists)
    assert (p.n_resources, p.n_distinct_tags, p.n_assignments) == (
        len(tag_lists), len(vocab), assignments)
    assert p.tpp == assignments / len(tag_lists) == tpp(f, "u")
    assert p.trr == len(vocab) / len(tag_lists) == trr(f, "u")
    assert p.orphan == orphan(f, "u") == sum(
        1 for c in resources_with.values() if c <= threshold) / len(vocab)
