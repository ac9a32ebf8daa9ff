import math

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

from folkclass.errors import DegenerateInputError, UnknownTagError
from folkclass.folksonomy import Bookmark, ingest_bookmarks
from folkclass.generator import RegimeConfig, generate
from folkclass.representation import (RepresentationScheme, represent_resource,
                                      tag_vocabulary)
from folkclass.weighting import (InverseFrequencyKind, correlate_weightings,
                                 fractional_ranks, inverse_frequency, member_name,
                                 parse_member, pearson, spearman, weight_resource)

from conftest import brute_force_frequencies, random_bookmarks

IRF = InverseFrequencyKind.IRF
IUF = InverseFrequencyKind.IUF
IBF = InverseFrequencyKind.IBF
NONE = InverseFrequencyKind.NONE


def pearson_oracle(xs, ys):
    """Direct textbook evaluation, kept independent of the implementation."""
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    den = math.sqrt(sum((x - mx) ** 2 for x in xs)) * \
        math.sqrt(sum((y - my) ** 2 for y in ys))
    return num / den


class TestInverseFrequency:
    def test_saturating_tag_is_zero(self):
        f = ingest_bookmarks([Bookmark("u1", "r1", ("a",)),
                              Bookmark("u1", "r2", ("a",))])
        assert inverse_frequency("a", f, IRF) == 0.0

    def test_hand_evaluated_log_ratio(self):
        # |R| = 100 resources, tag on 10 of them -> ln(10)
        marks = [Bookmark(f"u{i}", f"r{i}", ("a",) if i < 10 else ("b",))
                 for i in range(100)]
        f = ingest_bookmarks(marks)
        assert inverse_frequency("a", f, IRF) == pytest.approx(math.log(10))

    def test_single_bookmark_corpus_ibf_zero(self):
        f = ingest_bookmarks([Bookmark("u1", "r1", ("only",))])
        assert inverse_frequency("only", f, IBF) == 0.0

    def test_none_kind_is_one(self):
        f = ingest_bookmarks([Bookmark("u1", "r1", ("a",))])
        assert inverse_frequency("a", f, NONE) == 1.0

    def test_unknown_tag(self):
        f = ingest_bookmarks([Bookmark("u1", "r1", ("a",))])
        with pytest.raises(UnknownTagError):
            inverse_frequency("nope", f, IRF)

    def test_nonnegative_and_zero_iff_saturating(self):
        rng = np.random.default_rng(8)
        f = ingest_bookmarks(random_bookmarks(rng, n_bookmarks=400))
        for tag, q in f.tag_frequencies.items():
            for kind, count, total in ((IRF, q.rf, f.n_resources),
                                       (IUF, q.uf, f.n_users),
                                       (IBF, q.bf, f.n_bookmarks)):
                value = inverse_frequency(tag, f, kind)
                assert value >= 0.0
                assert (value == 0.0) == (count == total)


class TestWeightResource:
    def test_none_equals_weighted_fta_exactly(self):
        rng = np.random.default_rng(21)
        f = ingest_bookmarks(random_bookmarks(rng, n_bookmarks=300))
        vocab = tag_vocabulary(f)
        fta = RepresentationScheme.parse("weighted-fta")
        for r in f.resource_tag_weights:
            assert weight_resource(f, r, NONE, vocab) == \
                represent_resource(f, r, fta, vocab)

    def test_weights_are_count_times_log_ratio(self):
        marks = [Bookmark(f"u{i}", f"r{i}", ("a",) if i < 2 else ("b",))
                 for i in range(6)]
        f = ingest_bookmarks(marks)
        vocab = tag_vocabulary(f)
        fv = weight_resource(f, "r0", IRF, vocab)
        assert fv.entries == {vocab.id_of("a"): pytest.approx(1 * math.log(6 / 2))}

    def test_saturating_tag_absent_from_vector(self):
        f = ingest_bookmarks([
            Bookmark("u1", "r1", ("everywhere", "rare")),
            Bookmark("u2", "r2", ("everywhere",)),
        ])
        vocab = tag_vocabulary(f)
        fv = weight_resource(f, "r1", IRF, vocab)
        assert set(fv.entries) == {vocab.id_of("rare")}

    def test_log_base_change_preserves_ranking(self):
        rng = np.random.default_rng(31)
        f = ingest_bookmarks(random_bookmarks(rng, n_bookmarks=200))
        vocab = tag_vocabulary(f)
        scale = 1.0 / math.log(2)   # natural log -> log2
        for r in list(f.resource_tag_weights)[:10]:
            fv = weight_resource(f, r, IRF, vocab)
            natural = sorted(fv.entries, key=lambda fid: (-fv.entries[fid], fid))
            rescaled = {fid: w * scale for fid, w in fv.entries.items()}
            base2 = sorted(rescaled, key=lambda fid: (-rescaled[fid], fid))
            assert natural == base2


class TestMembers:
    @pytest.mark.parametrize("name", ["tf", "tf-irf", "tf-iuf", "tf-ibf",
                                      "weighted-fta", "fractions-top5", "ranks-top10"])
    def test_name_round_trip(self, name):
        assert member_name(parse_member(name)) == name

    def test_kinds_and_schemes(self):
        assert parse_member("tf") is InverseFrequencyKind.NONE
        assert parse_member("tf-none") is InverseFrequencyKind.NONE
        assert parse_member("tf-irf") is IRF
        assert parse_member("ranks-top10") == RepresentationScheme.parse("ranks-top10")

    @pytest.mark.parametrize("name", ["tf-", "tf-xyz", "bogus-fta"])
    def test_unknown_names_rejected(self, name):
        with pytest.raises(ValueError):
            parse_member(name)


class TestPearson:
    def test_perfect_linear(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert pearson(xs, [2 * x + 1 for x in xs]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        xs = [1.0, 2.0, 5.0]
        assert pearson(xs, [-x for x in xs]) == pytest.approx(-1.0)

    def test_hand_computed_half(self):
        assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)

    def test_zero_variance_raises(self):
        with pytest.raises(DegenerateInputError):
            pearson([1, 1, 1], [1, 2, 3])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 21))
            xs = rng.normal(size=n).tolist()
            ys = rng.normal(size=n).tolist()
            assert pearson(xs, ys) == pytest.approx(pearson_oracle(xs, ys), abs=1e-12)


class TestSpearman:
    def test_monotone_transform_gives_one(self):
        xs = [0.3, 2.0, -1.0, 7.5]
        ys = [math.exp(x) for x in xs]
        assert spearman(xs, ys) == pytest.approx(1.0, abs=1e-12)

    def test_reversal_gives_minus_one(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert spearman(xs, list(reversed(xs))) == pytest.approx(-1.0, abs=1e-12)

    def test_tied_ranks_averaged(self):
        assert fractional_ranks([1.0, 1.0, 2.0]) == [1.5, 1.5, 3.0]

    def test_matches_rank_then_pearson_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(3, 15))
            xs = rng.integers(0, 5, size=n).astype(float).tolist()
            ys = rng.integers(0, 5, size=n).astype(float).tolist()
            try:
                got = spearman(xs, ys)
            except DegenerateInputError:
                assert len(set(xs)) == 1 or len(set(ys)) == 1
                continue
            expected = pearson_oracle(fractional_ranks(xs), fractional_ranks(ys))
            assert got == pytest.approx(expected, abs=1e-12)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=20, unique=True))
    def test_strictly_monotone_invariance(self, xs):
        ys = [3.0 * x + 7.0 for x in xs]
        # float rounding can merge nearly equal inputs; the transform must
        # stay injective on the realized values for ranks to be preserved
        if len(set(ys)) < len(ys):
            return
        assert spearman(xs, ys) == pytest.approx(1.0, abs=1e-12)


class TestCorrelateWeightings:
    def test_one_bookmark_per_resource_makes_irf_ibf_identical(self):
        # every user posts their own resource: rf == bf per tag and |R| == |B|
        rng = np.random.default_rng(4)
        marks = []
        for i in range(40):
            n = int(rng.integers(1, 4))
            tags = tuple(f"t{rng.integers(12)}" for _ in range(n))
            marks.append(Bookmark(f"u{i}", f"r{i}", tags))
        f = ingest_bookmarks(marks)
        report = correlate_weightings(f)
        assert report["irf-ibf"]["r"] == pytest.approx(1.0)
        assert report["irf-ibf"]["rho"] == pytest.approx(1.0)

    def test_personomy_reuse_decouples_iuf(self):
        f = generate(RegimeConfig(regime="personomy-based", n_users=60,
                                  n_resources=40, bookmarks_per_user=(5, 10),
                                  tags_per_bookmark=(1, 4), pool_size=150,
                                  acceptance=0.85, seed=12))
        report = correlate_weightings(f)
        assert report["iuf-ibf"]["r"] < report["irf-ibf"]["r"]
        # oracle: recompute each series from brute-force frequencies
        oracle = brute_force_frequencies(f.bookmarks)
        tags = sorted(f.tag_frequencies)
        irf = [math.log(f.n_resources / oracle[t][0]) for t in tags]
        iuf = [math.log(f.n_users / oracle[t][1]) for t in tags]
        ibf = [math.log(f.n_bookmarks / oracle[t][2]) for t in tags]
        assert report["irf-ibf"]["r"] == pytest.approx(pearson_oracle(irf, ibf))
        assert report["iuf-ibf"]["r"] == pytest.approx(pearson_oracle(iuf, ibf))

    def test_two_tag_corpus_coefficients_are_degenerate_or_unit(self):
        f = ingest_bookmarks([
            Bookmark("u1", "r1", ("a", "b")),
            Bookmark("u2", "r1", ("a",)),
            Bookmark("u2", "r2", ("b",)),
        ])
        try:
            report = correlate_weightings(f)
        except DegenerateInputError:
            return
        for pair in report.values():
            assert abs(pair["r"]) == pytest.approx(1.0)

    def test_fewer_than_two_tags_raises(self):
        f = ingest_bookmarks([Bookmark("u1", "r1", ("only",))])
        with pytest.raises(DegenerateInputError):
            correlate_weightings(f)

    def test_frequency_inequalities_imply_bound(self):
        # the literal invariant lives on the frequencies: bf >= max(rf, uf)
        rng = np.random.default_rng(77)
        f = ingest_bookmarks(random_bookmarks(rng, n_bookmarks=500))
        for q in f.tag_frequencies.values():
            assert q.bf >= q.rf and q.bf >= q.uf
