import math

import pytest
from hypothesis import given
import hypothesis.strategies as st

from folkclass.errors import MalformedRecordError
from folkclass.porter import stem
from folkclass.representation import (TextPipelineConfig, load_stopwords,
                                      represent_text, tokenize)
from folkclass.vectors import (FeatureVector, build_vocabulary,
                               read_vector_lines, write_vector_lines)


class TestFeatureVector:
    def test_zero_weights_dropped(self):
        fv = FeatureVector.from_items([(0, 0.0), (1, 2.0)], 4)
        assert fv.entries == {1: 2.0}

    def test_stored_zero_weight_rejected(self):
        with pytest.raises(ValueError):
            FeatureVector({0: 0.0}, 4)

    def test_out_of_range_id_rejected(self):
        with pytest.raises(ValueError):
            FeatureVector({5: 1.0}, 4)

    def test_equal_on_entries_and_dim(self):
        a = FeatureVector({0: 1.0, 2: 2.0}, 4)
        assert a == FeatureVector({2: 2.0, 0: 1.0}, 4)
        assert a != FeatureVector({0: 1.0, 2: 2.5}, 4)
        assert a != FeatureVector({0: 1.0}, 4)
        assert a != FeatureVector({0: 1.0, 2: 2.0}, 5)
        assert a != (a.entries, a.dim)     # only a FeatureVector equals one

    def test_dot_and_norm(self):
        a = FeatureVector({0: 1.0, 2: 2.0}, 4)
        b = FeatureVector({2: 3.0, 3: 1.0}, 4)
        assert a.dot(b.entries) == 6.0
        assert a.norm() == pytest.approx(math.sqrt(5.0))


class TestVocabulary:
    def test_half_percent_pruning(self):
        docs = [["common"] for _ in range(1000)]
        for i in range(4):
            docs[i] = ["common", "rare4"]
        for i in range(5):
            docs[500 + i] = ["common", "kept5"]
        vocab = build_vocabulary(docs, 0.005)
        assert "rare4" not in vocab
        assert "kept5" in vocab and "common" in vocab

    def test_zero_fraction_keeps_all(self):
        vocab = build_vocabulary([["a"], ["b"]], 0.0)
        assert len(vocab) == 2

    def test_everywhere_token_kept_with_full_df(self):
        vocab = build_vocabulary([["x", "a"], ["x"], ["x", "b"]], 0.5)
        assert vocab.doc_frequency["x"] == 3

    def test_ids_dense_and_lexicographic(self):
        vocab = build_vocabulary([["b", "a"], ["c"]], 0.0)
        assert vocab.id_to_token == ["a", "b", "c"]
        assert [vocab.id_of(t) for t in "abc"] == [0, 1, 2]

    def test_empty_corpus(self):
        assert len(build_vocabulary([], 0.0)) == 0

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            build_vocabulary([["a"]], 1.0)

    @given(st.lists(st.lists(st.sampled_from(["a", "B", "b", "é", "t10", "t2"]), max_size=8),
                    max_size=12),
           st.sampled_from([0.0, 0.2, 0.5, 0.9]), st.booleans())
    def test_equals_a_per_document_loop(self, docs, min_df, lazily):
        """Repeated tokens in a document count once; a generator of
        documents counts as the list does."""
        df: dict[str, int] = {}
        for doc in docs:
            for token in set(doc):
                df[token] = df.get(token, 0) + 1
        kept = sorted(t for t, n in df.items() if n >= math.ceil(min_df * len(docs)))
        vocab = build_vocabulary((list(d) for d in docs) if lazily else docs, min_df)
        assert vocab.id_to_token == kept
        assert vocab.token_to_id == {t: i for i, t in enumerate(kept)}
        assert vocab.doc_frequency == {t: df[t] for t in kept}
        assert type(vocab.doc_frequency) is dict
        assert vocab.n_documents == len(docs)


class TestTextPipeline:
    def test_tokenize_non_alphanumeric_boundaries(self):
        cfg = TextPipelineConfig()
        assert tokenize("Web 2.0, re-use!", cfg) == ["web", "2", "0", "re", "use"]

    def test_stopwords_dropped(self):
        cfg = TextPipelineConfig(stopwords=frozenset({"the", "a"}))
        assert tokenize("the cat a hat", cfg) == ["cat", "hat"]

    def test_stemming_gated_by_config(self):
        plain = TextPipelineConfig()
        stemmed = TextPipelineConfig(stem=True)
        assert tokenize("running", plain) == ["running"]
        assert tokenize("running", stemmed) == ["run"]

    def test_load_stopwords(self):
        assert load_stopwords(["the\n", "", "  of \n"]) == frozenset({"the", "of"})

    def test_tfidf_weight_hand_computed(self):
        # tf=2, |D|=100, df=10 -> 2 * ln(10)
        docs = [["term"] if i < 10 else [f"f{i}"] for i in range(100)]
        vocab = build_vocabulary(docs, 0.0)
        fv = represent_text("term term", vocab, TextPipelineConfig())
        assert fv.entries == {vocab.id_of("term"): pytest.approx(2 * math.log(10))}

    def test_everywhere_token_excluded(self):
        vocab = build_vocabulary([["x", "a"], ["x", "b"]], 0.0)
        fv = represent_text("x", vocab, TextPipelineConfig())
        assert len(fv) == 0

    def test_empty_text(self):
        vocab = build_vocabulary([["a"], ["b"]], 0.0)
        assert len(represent_text("", vocab, TextPipelineConfig())) == 0

    def test_unknown_tokens_dropped(self):
        vocab = build_vocabulary([["a"], ["b"]], 0.0)
        fv = represent_text("a mystery", vocab, TextPipelineConfig())
        assert set(fv.entries) == {vocab.id_of("a")}

    def test_support_equals_invocab_lowercase_tokens_without_filters(self):
        docs = [["alpha"], ["beta"], ["gamma"], ["delta"]]
        vocab = build_vocabulary(docs, 0.0)
        cfg = TextPipelineConfig(stopwords=frozenset(), stem=False)
        fv = represent_text("Alpha BETA unknown", vocab, cfg)
        assert set(fv.entries) == {vocab.id_of("alpha"), vocab.id_of("beta")}


CANONICAL_STEMS = [
    ("caresses", "caress"), ("flies", "fli"), ("dies", "di"), ("mules", "mule"),
    ("denied", "deni"), ("agreed", "agre"), ("owned", "own"), ("humbled", "humbl"),
    ("sized", "size"), ("meetings", "meet"), ("stating", "state"),
    ("itemization", "item"), ("sensational", "sensat"), ("traditional", "tradit"),
    ("reference", "refer"), ("colonizer", "colon"), ("plotted", "plot"),
    ("relational", "relat"), ("conditional", "condit"), ("rational", "ration"),
    ("oscillators", "oscil"), ("hopping", "hop"), ("falling", "fall"),
    ("hissing", "hiss"), ("filing", "file"), ("happy", "happi"), ("sky", "sky"),
    ("controlling", "control"), ("generalization", "gener"), ("roll", "roll"),
    ("probate", "probat"), ("rate", "rate"), ("cease", "ceas"), ("feed", "feed"),
    ("bled", "bled"), ("sing", "sing"),
]


class TestPorterStemmer:
    @pytest.mark.parametrize("word,expected", CANONICAL_STEMS)
    def test_canonical_pairs(self, word, expected):
        assert stem(word) == expected

    def test_short_words_untouched(self):
        assert stem("as") == "as"
        assert stem("is") == "is"

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=12))
    def test_never_longer_and_idempotent_prefixish(self, word):
        out = stem(word)
        assert len(out) <= len(word)

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", max_size=14))
    def test_memoized_stem_equals_uncached(self, word):
        first = stem(word)               # computed here or cached earlier
        assert first == stem(word) == stem.__wrapped__(word)


class TestVectorLines:
    def test_round_trip_full_precision(self):
        vectors = {
            "r1": FeatureVector({0: 0.1 + 0.2, 3: 1.0 / 3.0}, 5),
            "r2": FeatureVector({}, 5),
        }
        lines = list(write_vector_lines(vectors))
        back = read_vector_lines(lines, dim=5)
        assert back == vectors

    def test_dim_inferred(self):
        back = read_vector_lines(["r1\t7:2.5"])
        assert back["r1"].dim == 8


# keys and labels: no whitespace or line-breaking characters
_TOKEN = st.text(st.characters(codec="ascii", categories=("L", "N", "P", "S")),
                 min_size=1, max_size=8)
_WEIGHT = st.floats(allow_nan=False, allow_infinity=False).filter(lambda w: w != 0.0)


class TestVectorLineCodec:
    @given(st.dictionaries(
        _TOKEN, st.dictionaries(st.integers(0, 49), _WEIGHT, max_size=6), max_size=6))
    def test_round_trip(self, raw):
        vectors = {key: FeatureVector(entries, 50) for key, entries in raw.items()}
        assert read_vector_lines(list(write_vector_lines(vectors)), 50) == vectors

    def test_bad_value_names_line(self):
        with pytest.raises(MalformedRecordError) as err:
            read_vector_lines(["r1\t0:1.0 1:x"])
        assert err.value.line_number == 1
        assert "1:x" in str(err.value)
        assert isinstance(err.value, ValueError)

    def test_line_without_tab_names_line(self):
        with pytest.raises(MalformedRecordError) as err:
            read_vector_lines(["r1\t0:1.0", "", "r3 0:1.0"])
        assert err.value.line_number == 3

    @pytest.mark.parametrize("pair", ["2.5", "x:1.0", ":1.0", "0:"])
    def test_bad_pair_rejected(self, pair):
        with pytest.raises(MalformedRecordError, match="line 2"):
            read_vector_lines(["r1\t0:1.0", f"r2\t{pair}"])

    def test_repeated_id_names_line(self):
        with pytest.raises(MalformedRecordError, match="line 1"):
            read_vector_lines(["r1\t0:1.0 0:2.0"])

    def test_negative_id_names_line(self):
        with pytest.raises(MalformedRecordError) as err:
            read_vector_lines(["r1\t0:1.0", "r2\t1:1.0 -3:2.0"])
        assert err.value.line_number == 2
        assert "negative feature id -3" in str(err.value)

    def test_id_outside_given_dim_names_line(self):
        with pytest.raises(MalformedRecordError) as err:
            read_vector_lines(["r1\t0:1.0", "", "r3\t4:1.0 5:1.0"], 5)
        assert err.value.line_number == 3
        assert "feature id 5 outside dimensionality 5" in str(err.value)

    def test_blank_lines_skipped(self):
        back = read_vector_lines(["", "r1\t0:1.0", "   ", "r2\t"], 2)
        assert back == {"r1": FeatureVector({0: 1.0}, 2), "r2": FeatureVector({}, 2)}
