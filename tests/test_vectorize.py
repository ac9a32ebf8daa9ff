"""The one vectorizer pass against the per-resource construction it replaced
(tests/vectorize_oracle.py): equal entry by entry, in entry order and bit
for bit, for all seven schemes and all four inverse-frequency kinds.  The
harness's pool batch, built from the same pass, and its row selections
equal the compressed sparse rows of those vectors byte for byte.
"""

import logging

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from folkclass.errors import UnknownResourceError
from folkclass.folksonomy import Bookmark, ingest_bookmarks
from folkclass.representation import (RepresentationScheme, Selection, Weighting,
                                      tag_vocabulary)
from folkclass.svm import _columns_csr, _csr, _take
from folkclass.vectors import build_vocabulary
from folkclass.weighting import InverseFrequencyKind, _member_pass, vectorize, weight_resource

import vectorize_oracle as oracle

# few tags, so weights tie often; case, digits and non-ASCII letters make
# lexicographic order differ from any "natural" one
TAGS = ["a", "ab", "B", "b", "t10", "t2", "Z", "é", "ä", "z"]
USERS = [f"u{i}" for i in range(6)]
RESOURCES = [f"r{i}" for i in range(8)]


def schemes(k: int) -> list[RepresentationScheme]:
    """The seven tag representations, top-K ones at the given K."""
    return [RepresentationScheme(w, s, k)
            for w in Weighting for s in Selection
            if not (w is Weighting.RANKS and s is Selection.FTA)]


MEMBERS = st.one_of(
    st.integers(1, 12).flatmap(lambda k: st.sampled_from(schemes(k))),
    st.sampled_from(list(InverseFrequencyKind)))


def entries(vectors) -> dict:
    """Each vector's entries in entry order, values as float.hex, and its width."""
    return {r: ([(fid, w.hex()) for fid, w in fv.entries.items()], fv.dim)
            for r, fv in vectors.items()}


def assert_same(f, member, vocab, resources):
    got = vectorize(f, member, vocab, resources)
    want = oracle.vectorize(f, member, vocab, resources)
    assert list(got) == list(want)
    assert entries(got) == entries(want)


@st.composite
def folksonomies(draw):
    """Bookmarks over a small tag pool; empty tag tuples make unannotated
    bookmarks, and a resource with only those is unannotated."""
    marks = draw(st.lists(st.builds(
        Bookmark, st.sampled_from(USERS), st.sampled_from(RESOURCES),
        st.lists(st.sampled_from(TAGS), max_size=5).map(tuple)), min_size=1, max_size=40))
    return ingest_bookmarks(marks)


def test_all_schemes_and_kinds_are_covered():
    assert len(schemes(10)) == 7 and len(InverseFrequencyKind) == 4


@settings(max_examples=300, deadline=None)
@given(f=folksonomies(), member=MEMBERS,
       min_df=st.sampled_from([0.0, 0.2, 0.5]), data=st.data())
def test_vectorize_equals_per_resource_oracle(f, member, min_df, data):
    vocab = tag_vocabulary(f, min_df)
    resources = data.draw(st.lists(st.sampled_from(sorted(f.all_resource_ids)),
                                   unique=True))
    assert_same(f, member, vocab, resources)


def _corpus():
    """r0 ties at a top-2 cutoff (a:3, then b, c, d at 2), r1 has one tag,
    r2 ranks a tag only it carries ("Rare" sorts before "a") first, and r3,
    r4 have only unannotated bookmarks."""
    marks = [Bookmark("u0", "r0", ("a", "b", "c", "d")),
             Bookmark("u1", "r0", ("a", "d", "c", "b")),
             Bookmark("u2", "r0", ("a", "e")),
             Bookmark("u0", "r1", ("b",)),
             Bookmark("u1", "r2", ("Rare", "a")),
             Bookmark("u0", "r3", ()),
             Bookmark("u2", "r4", ())]
    return ingest_bookmarks(marks)


@pytest.mark.parametrize("k", [1, 2, 3, 10])
@pytest.mark.parametrize("min_df", [0.0, 0.5])
def test_top_k_cutoffs_holes_and_unannotated_resources(k, min_df):
    f = _corpus()
    vocab = tag_vocabulary(f, min_df)
    resources = ["r4", "r0", "r1", "r2", "r3"]
    for member in [*schemes(k), *InverseFrequencyKind]:
        assert_same(f, member, vocab, resources)


def assert_pool_batch_is_csr(f, member, vocab, resources, rows):
    """The pool batch of `resources`, and its rows at `rows`, are `_csr` of
    `vectorize`'s vectors: same arrays, same dtypes, same bytes."""
    pool = _columns_csr(*_member_pass(f, member, vocab, resources))
    vectors = vectorize(f, member, vocab, resources)
    rows = np.array(rows, np.intp)
    for got, want in [(pool, _csr(list(vectors.values()))),
                      (_take(pool, rows), _csr([vectors[resources[i]] for i in rows.tolist()]))]:
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("k", [1, 2, 3, 10])
@pytest.mark.parametrize("min_df", [0.0, 0.5])
def test_pool_batch_rows_are_the_vectors_rows(k, min_df):
    """All 11 members, over out-of-vocabulary tags (min_df 0.5 and r2's
    "Rare"), top-K holes and the unannotated r3 and r4, with rows taken
    repeated, reordered and not at all."""
    f = _corpus()
    vocab = build_vocabulary([list(f.resource_tag_weights[r]) for r in ("r0", "r1")], min_df)
    resources = ["r4", "r0", "r1", "r2", "r3"]
    members = [*schemes(k), *InverseFrequencyKind]
    assert len(members) == 11
    for member in members:
        for rows in ([], [0], [2, 2, 4, 1, 3, 0], [3, 4]):
            assert_pool_batch_is_csr(f, member, vocab, resources, rows)


@settings(max_examples=200, deadline=None)
@given(f=folksonomies(), member=MEMBERS, min_df=st.sampled_from([0.0, 0.2, 0.5]),
       data=st.data())
def test_pool_batch_equals_csr_of_vectorize(f, member, min_df, data):
    everything = sorted(f.all_resource_ids)
    known = data.draw(st.lists(st.sampled_from(everything), unique=True))
    vocab = build_vocabulary([list(f.resource_tag_weights.get(r, ())) for r in known], min_df)
    resources = data.draw(st.lists(st.sampled_from(everything), unique=True, min_size=1))
    rows = data.draw(st.lists(st.integers(0, len(resources) - 1)))
    assert_pool_batch_is_csr(f, member, vocab, resources, rows)


class TestEmptyVectorsAndUnknownIds:
    def test_each_unannotated_resource_warns_once_by_name(self, caplog):
        f = _corpus()
        vocab = tag_vocabulary(f)
        with caplog.at_level(logging.WARNING, logger="folkclass.representation"):
            vs = vectorize(f, InverseFrequencyKind.IRF, vocab,
                           ["r0", "r3", "r1", "r4", "r2"])
        warnings = [rec.getMessage() for rec in caplog.records
                    if rec.levelno == logging.WARNING]
        assert warnings == [
            "resource 'r3' has no annotated bookmarks; empty vector",
            "resource 'r4' has no annotated bookmarks; empty vector"]
        assert len(vs["r3"]) == len(vs["r4"]) == 0 and len(vs["r0"]) > 0

    @pytest.mark.parametrize("member", [RepresentationScheme.parse("weighted-fta"),
                                        InverseFrequencyKind.IBF])
    def test_first_unknown_id_in_given_order_is_named(self, member):
        f = _corpus()
        vocab = tag_vocabulary(f)
        with pytest.raises(UnknownResourceError) as err:
            vectorize(f, member, vocab, ["r0", "zz-missing", "r1", "aa-missing"])
        assert err.value.args == ("zz-missing",)


class CountingMapping(dict):
    """A dict that records every key read through `[]`."""

    def __init__(self, *args):
        super().__init__(*args)
        self.reads = []

    def __getitem__(self, key):
        self.reads.append(key)
        return super().__getitem__(key)


class TestCostGuard:
    """Inverse frequencies are looked up for the given resources' own
    in-vocabulary tags, once each, not for the whole vocabulary."""

    def _setup(self):
        f = _corpus()
        counting = CountingMapping(f.tag_frequencies)
        f = f._replace(tag_frequencies=counting)
        unseen = [f"never-seen-{i}" for i in range(50)]
        vocab = build_vocabulary([list(w) for w in f.resource_tag_weights.values()]
                                 + [unseen])
        return f, counting, vocab

    @pytest.mark.parametrize("kind", [InverseFrequencyKind.IRF, InverseFrequencyKind.IUF,
                                      InverseFrequencyKind.IBF])
    def test_vectorize_reads_each_own_tag_once(self, kind):
        f, counting, vocab = self._setup()
        vs = vectorize(f, kind, vocab, ["r0", "r1", "r2", "r3"])
        # r0 shares a with r2 and b with r1; each is read once
        assert sorted(counting.reads) == ["Rare", "a", "b", "c", "d", "e"]
        assert len(vocab) > 50 and list(vs) == ["r0", "r1", "r2", "r3"]

    def test_weight_resource_reads_only_its_tags(self):
        f, counting, vocab = self._setup()
        weight_resource(f, "r0", InverseFrequencyKind.IRF, vocab)
        assert sorted(counting.reads) == ["a", "b", "c", "d", "e"]

    def test_plain_tf_reads_no_frequencies(self):
        f, counting, vocab = self._setup()
        vectorize(f, InverseFrequencyKind.NONE, vocab, sorted(f.all_resource_ids))
        assert counting.reads == []
