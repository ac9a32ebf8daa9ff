from bisect import bisect_right

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from folkclass.folksonomy import ingest_bookmarks, novelty_ratios
from folkclass.generator import REGIMES, RegimeConfig, generate, generate_bookmarks

from conftest import brute_force_frequencies


SMALL = dict(n_users=40, n_resources=20, bookmarks_per_user=(4, 8),
             tags_per_bookmark=(1, 4), pool_size=120)


class TestConfig:
    def test_unknown_regime(self):
        with pytest.raises(ValueError):
            RegimeConfig(regime="telepathic")

    def test_pool_too_small_for_bookmark(self):
        with pytest.raises(ValueError):
            RegimeConfig(regime="none", pool_size=3, tags_per_bookmark=(1, 5))

    def test_bad_acceptance(self):
        with pytest.raises(ValueError):
            RegimeConfig(regime="none", acceptance=1.5)

    @pytest.mark.parametrize("exponent", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_zipf_exponent_named(self, exponent):
        with pytest.raises(ValueError, match="zipf_exponent must be finite"):
            RegimeConfig(regime="none", zipf_exponent=exponent)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            RegimeConfig(regime="none", bookmarks_per_user=(5, 2))


class TestDeterminism:
    def test_same_seed_same_stream(self):
        cfg = RegimeConfig(regime="resource-based", seed=7, **SMALL)
        assert generate_bookmarks(cfg) == generate_bookmarks(cfg)

    def test_different_seeds_differ(self):
        a = generate_bookmarks(RegimeConfig(regime="none", seed=1, **SMALL))
        b = generate_bookmarks(RegimeConfig(regime="none", seed=2, **SMALL))
        assert a != b

    def test_zero_acceptance_makes_regimes_identical(self):
        streams = [
            generate_bookmarks(RegimeConfig(regime=r, acceptance=0.0, seed=5, **SMALL))
            for r in REGIMES
        ]
        assert streams[0] == streams[1] == streams[2]


class TestGeneratedCorpora:
    def test_folksonomy_invariants_hold(self):
        f = generate(RegimeConfig(regime="personomy-based", seed=3,
                                  acceptance=0.7, **SMALL))
        oracle = brute_force_frequencies(f.bookmarks)
        for tag, q in f.tag_frequencies.items():
            assert q.bf >= q.uf and q.bf >= q.rf
            assert (q.rf, q.uf, q.bf) == oracle[tag]
        assert f.report.duplicate_pairs_dropped == 0

    def test_orders_follow_generation_sequence(self):
        stream = generate_bookmarks(RegimeConfig(regime="none", seed=9, **SMALL))
        next_order: dict[str, int] = {}
        for b in stream:
            assert b.order == next_order.get(b.resource, 0)
            next_order[b.resource] = b.order + 1

    def test_every_bookmark_annotated(self):
        stream = generate_bookmarks(RegimeConfig(regime="resource-based",
                                                 acceptance=0.9, seed=2, **SMALL))
        assert all(b.tags for b in stream)

    def test_novelty_computable_without_flag(self):
        f = generate(RegimeConfig(regime="none", seed=4, **SMALL))
        some_resource = next(iter(f.resource_bookmarks))
        ratios = novelty_ratios(f, some_resource)
        assert ratios[0] == (1, 1.0)

    def test_personomy_regime_shrinks_user_vocabulary(self):
        base = dict(n_users=60, n_resources=30, bookmarks_per_user=(6, 10),
                    tags_per_bookmark=(2, 5), pool_size=300, acceptance=0.8,
                    seed=14)
        def mean_vocab(f):
            sizes = [len({t for b in bs for t in b.tags})
                     for bs in f.user_bookmarks.values()]
            return sum(sizes) / len(sizes)
        personomy = generate(RegimeConfig(regime="personomy-based", **base))
        none = generate(RegimeConfig(regime="none", **base))
        assert mean_vocab(personomy) < mean_vocab(none)

    def test_resource_regime_lowers_novelty(self):
        base = dict(n_users=60, n_resources=30, bookmarks_per_user=(6, 10),
                    tags_per_bookmark=(2, 5), pool_size=300, acceptance=0.8,
                    seed=15)
        def mean_novelty(f):
            values = [ratio
                      for r in f.resource_bookmarks
                      for rank, ratio in novelty_ratios(f, r) if rank > 1]
            return sum(values) / len(values)
        res = generate(RegimeConfig(regime="resource-based", **base))
        none = generate(RegimeConfig(regime="none", **base))
        assert mean_novelty(res) < mean_novelty(none)


class TestPreferenceDraw:
    """The generator's inverse-CDF search is `Generator.choice(p=...)` draw for draw."""

    @settings(max_examples=60, deadline=None)
    @given(pool_size=st.integers(1, 5000), exponent=st.floats(0.3, 2.0),
           seed=st.integers(0, 2**64 - 1))
    def test_cdf_search_equals_choice(self, pool_size, exponent, seed):
        preference = np.arange(1, pool_size + 1, dtype=float) ** -exponent
        preference /= preference.sum()
        cdf = preference.cumsum()
        cdf /= cdf[-1]
        cdf = cdf.tolist()
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(40):
            searched = bisect_right(cdf, rng_a.random())
            assert searched == int(rng_b.choice(pool_size, p=preference))
        assert rng_a.random() == rng_b.random()
