"""The batched margin/predict pass and the sparse SGD step against the
per-instance loop and the dense step they replaced (tests/svm_oracle.py).
Margins and predictions are equal byte for byte; training is equal within
rounding where no score lands on a hinge, and within a stated objective
gate where scores do.
"""

from dataclasses import replace
from itertools import product

import hypothesis.extra.numpy as npst
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from folkclass import svm
from folkclass.svm import (SCHEMES, LabeledDataset, LinearModel, OneVsOneModel,
                           TrainConfig, objective_value, train_binary)
from folkclass.vectors import FeatureVector

from conftest import constant_one_vs_one
from svm_oracle import (dense_binary_hinge_grad, dense_native_hinge_grad, dense_sgd,
                        looped_predictions, stacked_margins)

# tie-prone values (signed zeros, small integers) mixed with arbitrary floats
VALUES = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.0, 0.5]),
                   st.floats(-1e6, 1e6))


def linear_models(data, rows: int, d: int, categories) -> LinearModel:
    return LinearModel(
        weights=data.draw(npst.arrays(np.float64, (rows, d), elements=VALUES)),
        biases=data.draw(npst.arrays(np.float64, (rows,), elements=VALUES)),
        categories=categories)


def vector_batches(data, d: int) -> list[FeatureVector]:
    """0-6 vectors of mixed lengths, empty ones included, entries in drawn order."""
    entries = st.lists(st.tuples(st.integers(0, d - 1), VALUES.filter(bool)),
                       max_size=2 * d, unique_by=lambda e: e[0])
    return [FeatureVector(dict(e), d) for e in data.draw(st.lists(entries, max_size=6))]


def one_vs_one_models(data, k: int, d: int) -> OneVsOneModel:
    """All pairs in order, or any non-empty list of pairs, repeats allowed."""
    categories = tuple(f"c{i}" for i in range(k))
    every = [(a, b) for a in range(k) for b in range(a + 1, k)]
    pair = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)).filter(
        lambda p: p[0] != p[1])
    pairs = tuple(data.draw(st.just(every) | st.lists(pair, min_size=1, max_size=6)))
    rows = linear_models(data, len(pairs), d, tuple(f"{a}:{b}" for a, b in pairs))
    return OneVsOneModel(categories, pairs, rows.weights, rows.biases)


def assert_batch_matches_loop(model, fvs) -> None:
    margins = model.margins_batch(fvs)
    assert margins.shape == (len(fvs), model.k)
    assert margins.tobytes() == stacked_margins(model, fvs).tobytes()
    assert model.predict_batch(fvs).tolist() == looped_predictions(model, fvs)


class TestBatchMatchesLoop:
    @given(st.integers(1, 4), st.integers(1, 6), st.data())
    def test_linear(self, k, d, data):
        model = linear_models(data, k, d, tuple(f"c{i}" for i in range(k)))
        assert_batch_matches_loop(model, vector_batches(data, d))

    @given(st.integers(2, 4), st.integers(1, 6), st.data())
    def test_one_vs_one(self, k, d, data):
        model = one_vs_one_models(data, k, d)
        assert_batch_matches_loop(model, vector_batches(data, d))

    @pytest.mark.parametrize("model", [
        LinearModel(np.ones((3, 2)), np.array([-0.0, 0.0, 1.0]), ("a", "b", "c")),
        constant_one_vs_one([1.0, -1.0, 1.0], n_features=2)], ids=["linear", "one-vs-one"])
    def test_empty_batch_and_empty_vectors(self, model):
        assert model.margins_batch([]).shape == (0, 3)
        assert model.predict_batch([]).shape == (0,)
        empty = [FeatureVector({}, 2)] * 3
        assert_batch_matches_loop(model, empty)

    def test_signed_zero_bias_survives_padding(self):
        # a row with no entries keeps its bias as is; a -0.0 sum must stay -0.0
        model = LinearModel(np.array([[0.0, 1.0]]), np.array([-0.0]), ("a",))
        fvs = [FeatureVector({}, 2), FeatureVector({0: 3.0, 1: 2.0}, 2)]
        margins = model.margins_batch(fvs)
        assert np.signbit(margins[0, 0]) and margins[1, 0] == 2.0
        assert margins.tobytes() == stacked_margins(model, fvs).tobytes()

    def test_every_sign_pattern_of_four_way_votes(self):
        # pair margins in {-1, 0, +1}: vote ties, summed-margin ties and full ties
        fvs = [FeatureVector({0: 1.0}, 1)]
        k, pairs = 4, tuple((a, b) for a in range(4) for b in range(a + 1, 4))
        categories = tuple(f"c{i}" for i in range(k))
        for signed in product([-1.0, 0.0, 1.0], repeat=len(pairs)):
            model = OneVsOneModel(categories, pairs, np.zeros((len(pairs), 1)),
                                  np.array(signed))
            assert_batch_matches_loop(model, fvs)

    def test_many_vectors_of_mixed_lengths(self):
        rng = np.random.default_rng(3)
        d = 300
        model = LinearModel(rng.normal(size=(8, d)), rng.normal(size=8),
                            tuple(f"c{i}" for i in range(8)))
        fvs = [FeatureVector({int(f): float(rng.integers(1, 4))
                              for f in rng.choice(d, int(rng.integers(0, 120)), replace=False)},
                             d) for _ in range(700)]
        assert_batch_matches_loop(model, fvs)

    @pytest.mark.parametrize("kind", ["linear", "one-vs-one"])
    def test_one_long_vector_among_short_empty_and_tied_ones(self, kind):
        # the position loop runs 3000 passes, the last ones over the two long
        # rows alone; the short rows include empty ones and tied lengths
        rng = np.random.default_rng(11)
        d = 4000
        model = (LinearModel(rng.normal(size=(5, d)), rng.normal(size=5),
                             tuple(f"c{i}" for i in range(5))) if kind == "linear"
                 else OneVsOneModel(("a", "b", "c"), ((0, 1), (0, 2), (1, 2)),
                                    rng.normal(size=(3, d)), rng.normal(size=3)))
        long = FeatureVector({int(f): float(rng.normal())
                              for f in rng.permutation(d)[:3000]}, d)
        short = [FeatureVector({int(f): float(rng.integers(1, 4))
                                for f in rng.choice(d, size, replace=False)}, d)
                 for size in (3, 1, 3, 0, 2, 3, 1, 0)]
        fvs = [short[0], FeatureVector({}, d), long, *short[1:], long, FeatureVector({}, d)]
        assert_batch_matches_loop(model, fvs)
        for fv, row in zip(fvs, model.margins_batch(fvs)):
            assert model.margins(fv).tobytes() == row.tobytes()

    def test_integer_weights_give_float_margins(self):
        model = LinearModel(np.array([[1, -2, 3], [0, 4, -1]]), np.array([5, -7]), ("a", "b"))
        fvs = [FeatureVector({2: 0.5, 0: 2.0}, 3), FeatureVector({}, 3),
               FeatureVector({1: 1.0}, 3)]
        margins = model.margins_batch(fvs)
        assert margins.dtype == np.float64
        assert margins.tolist() == [[8.5, -7.5], [5.0, -7.0], [3.0, -3.0]]
        assert_batch_matches_loop(model, fvs)


class TestSinglesAreBatchesOfOne:
    @pytest.mark.parametrize("signed", [[-5.0, 0.1, 0.1], [2.0, -1.0, 1.0], [1.0, -1.0, 1.0]])
    def test_vote_tie_fixtures(self, signed):
        model = constant_one_vs_one(signed)
        x = FeatureVector({0: 1.0}, 1)
        assert model.margins(x).tobytes() == model.margins_batch([x])[0].tobytes()
        assert model.predict(x) == model.predict_batch([x])[0]
        positive = model.models[0]
        assert positive.margins(x).tobytes() == positive.margins_batch([x])[0].tobytes()
        assert positive.predict(x) == positive.predict_batch([x])[0]


class TestIdsOutsideTheModel:
    def batch(self):
        return [FeatureVector({0: 1.0}, 9), FeatureVector({}, 9),
                FeatureVector({1: 2.0, 7: 1.0, 8: 1.0}, 9)]

    def test_linear_names_batch_position_and_id(self):
        model = LinearModel(np.ones((2, 3)), np.zeros(2), ("a", "b"))
        with pytest.raises(ValueError, match=r"vector 2: feature id 7 outside "
                                             r"the model's 3 features"):
            model.margins_batch(self.batch())
        with pytest.raises(ValueError, match="vector 2: feature id 7"):
            model.predict_batch(self.batch())

    def test_one_vs_one_names_batch_position_and_id(self):
        model = constant_one_vs_one([1.0, 1.0, 1.0], n_features=3)
        with pytest.raises(ValueError, match="vector 2: feature id 7 outside"):
            model.margins_batch(self.batch())
        with pytest.raises(ValueError, match="vector 0: feature id 7"):
            model.predict(FeatureVector({7: 1.0}, 9))


# --- the dataset's flattened instances ---

def looped_arrays(ds: LabeledDataset) -> tuple[np.ndarray, np.ndarray]:
    """The per-entry dense fill that `to_arrays` replaced."""
    X = np.zeros((len(ds), ds.n_features + 1))
    y = np.zeros(len(ds), dtype=np.int64)
    for row, (fv, cid) in enumerate(ds.instances):
        for fid, w in fv.entries.items():
            X[row, fid] = w
        X[row, ds.n_features] = 1.0
        y[row] = cid
    return X, y


class TestLabeledDataset:
    @given(st.integers(1, 6), st.data())
    def test_arrays_match_the_instances(self, d, data):
        fvs = vector_batches(data, d)
        labels = data.draw(st.lists(st.integers(0, 2), min_size=len(fvs), max_size=len(fvs)))
        ds = LabeledDataset(list(zip(fvs, labels)), ["a", "b", "c"], d)
        assert ds.labels.tolist() == labels
        assert ds.category_counts() == [labels.count(c) for c in range(3)]
        rows, y = svm._sparse_rows(ds)
        assert y.tolist() == labels
        for i, (fv, (cols, vals)) in enumerate(zip(fvs, rows, strict=True)):
            lo, hi = ds.starts[i], ds.starts[i + 1]
            values = np.array(list(fv.entries.values()), dtype=float)
            assert ds.cols[lo:hi].tolist() == list(fv.entries)
            assert ds.vals[lo:hi].tobytes() == values.tobytes()
            assert cols.tolist() == [*fv.entries, d]
            assert vals.tobytes() == np.append(values, 1.0).tobytes()
        X, y = ds.to_arrays()
        X_loop, y_loop = looped_arrays(ds)
        assert X.tobytes() == X_loop.tobytes() and y.tobytes() == y_loop.tobytes()

    def test_first_instance_at_fault_is_named(self):
        ok, wide = FeatureVector({0: 1.0}, 5), FeatureVector({1: 1.0, 3: 1.0, 4: 2.0}, 5)
        with pytest.raises(ValueError, match=r"^category id 2 outside 0\.\.1$"):
            LabeledDataset([(ok, 0), (ok, 2), (ok, -1)], ["a", "b"], 3)
        with pytest.raises(ValueError, match=r"^instance 1: feature id 4 outside 0\.\.2$"):
            LabeledDataset([(ok, 0), (wide, 1), (wide, 0)], ["a", "b"], 3)
        with pytest.raises(ValueError, match=r"^category id -1 outside"):   # checked first
            LabeledDataset([(wide, 0), (ok, -1)], ["a", "b"], 3)

    def test_empty_dataset(self):
        ds = LabeledDataset([], ["a", "b"], 2)
        assert ds.category_counts() == [0, 0]
        assert svm._sparse_rows(ds)[0] == []
        X, y = ds.to_arrays()
        assert X.shape == (0, 3) and y.shape == (0,)


# --- training: the sparse step against the dense one ---

def tag_count_dataset(seed: int, k: int, n: int = 30, d: int = 6) -> LabeledDataset:
    """Small integer tag counts over a shared pool of d tags."""
    rng = np.random.default_rng(seed)
    instances = []
    for i in range(n):
        cid = i % k
        tags = {int(t) for t in rng.choice(d, int(rng.integers(1, 5)), replace=False)}
        tags.add(cid)                                   # one tag leans to the category
        instances.append((FeatureVector({t: float(rng.integers(1, 4)) for t in sorted(tags)},
                                        d), cid))
    return LabeledDataset(instances, [f"c{m}" for m in range(k)], d)


def gaussian_dataset(seed: int, k: int, n: int = 30, d: int = 6) -> LabeledDataset:
    """Gaussian values on random columns: no score lands exactly on a hinge."""
    rng = np.random.default_rng(seed)
    instances = [(FeatureVector({int(t): float(rng.normal())
                                 for t in rng.choice(d, int(rng.integers(1, d + 1)),
                                                     replace=False)}, d), i % k)
                 for i in range(n)]
    return LabeledDataset(instances, [f"c{m}" for m in range(k)], d)


def counting_ties(grad, gaps_of):
    """Wrap a dense hinge derivative; count steps with an exactly-zero hinge gap."""
    ties = [0]

    def loss_grad(i, scores):
        ties[0] += bool((gaps_of(i, scores) == 0.0).any())
        return grad(i, scores)
    return loss_grad, ties


def binary_oracle(X, ydec, cfg):
    grad, ties = counting_ties(dense_binary_hinge_grad(ydec),
                               lambda i, s: 1.0 - ydec[i] * s)
    return dense_sgd(X, 1, grad, cfg), ties[0]


def linear(W: np.ndarray, categories) -> LinearModel:
    return LinearModel(W[:, :-1], W[:, -1], tuple(categories))


def dense_model(ds: LabeledDataset, cfg: TrainConfig):
    """The dense step's model of `cfg.scheme` on `ds`, and how many of its steps
    met an exactly-zero hinge gap."""
    X, y = ds.to_arrays()
    if cfg.scheme == "native":
        grad, ties = counting_ties(
            dense_native_hinge_grad(y),
            lambda i, s: np.delete(2.0 - (s[y[i]] - s), y[i]))
        return linear(dense_sgd(X, ds.k, grad, cfg), ds.categories), ties[0]
    if cfg.scheme == "one-vs-all":
        rows, ties = zip(*(binary_oracle(X, np.where(y == m, 1.0, -1.0), cfg)
                           for m in range(ds.k)))
        return linear(np.vstack(rows), ds.categories), sum(ties)
    pairs = tuple((a, b) for a in range(ds.k) for b in range(a + 1, ds.k))
    rows, all_ties = [], 0
    for a, b in pairs:
        mask = (y == a) | (y == b)
        w, ties = binary_oracle(X[mask], np.where(y[mask] == b, 1.0, -1.0), cfg)
        rows.append(w)
        all_ties += ties
    W = np.vstack(rows)
    return OneVsOneModel(tuple(ds.categories), pairs, W[:, :-1], W[:, -1]), all_ties


def linear_parts(model) -> tuple[LinearModel, ...]:
    return model.models if isinstance(model, OneVsOneModel) else (model,)


def parameters(model) -> np.ndarray:
    return np.vstack([m.augmented() for m in linear_parts(model)])


def assert_close_to_dense(model, expected) -> None:
    """Every weight and bias within 1e-12 of the largest one's magnitude."""
    got, want = parameters(model), parameters(expected)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# (data seed, config, whether the dense run meets exactly-zero hinge gaps):
# with C = 1/n the step size is 1/t, and integer counts land scores on the
# margin exactly, where the last rounding bit decides whether a step is taken
CASES = [pytest.param(7, TrainConfig(epochs=6, seed=7, penalty=1 / 30), True, id="ties"),
         pytest.param(1, TrainConfig(epochs=6, seed=0), False, id="default"),
         pytest.param(2, TrainConfig(epochs=9, seed=2, penalty=40.0), False, id="large-C")]
CATEGORIES = {"native": 3, "one-vs-all": 3, "one-vs-one": 4}


class TestTrainingMatchesDenseStep:
    """Gaussian features: the sparse step takes the dense step's path and
    differs only in rounding.  The tie premise is checked on the dense run
    of the case's tag counts, where test_objective_gate_on_tag_counts holds."""

    @staticmethod
    def check(scheme: str, k: int, seed: int, cfg: TrainConfig, tied: bool) -> None:
        cfg = replace(cfg, scheme=scheme)
        ds = gaussian_dataset(seed, k)
        assert_close_to_dense(svm.train(ds, cfg), dense_model(ds, cfg)[0])
        assert dense_model(tag_count_dataset(seed, k), cfg)[1] or not tied

    @pytest.mark.parametrize("seed,cfg,tied", CASES)
    def test_native(self, seed, cfg, tied):
        self.check("native", 3, seed, cfg, tied)

    @pytest.mark.parametrize("seed,cfg,tied", CASES)
    def test_one_vs_all(self, seed, cfg, tied):
        self.check("one-vs-all", 3, seed, cfg, tied)

    @pytest.mark.parametrize("seed,cfg,tied", CASES)
    def test_one_vs_one(self, seed, cfg, tied):
        self.check("one-vs-one", 4, seed, cfg, tied)

    @pytest.mark.parametrize("seed,cfg,tied", CASES)
    def test_binary(self, seed, cfg, tied):
        cfg = replace(cfg, scheme="one-vs-one")
        ds = gaussian_dataset(seed, 2)
        assert_close_to_dense(train_binary(ds, cfg), dense_model(ds, cfg)[0].models[0])
        assert dense_model(tag_count_dataset(seed, 2), cfg)[1] or not tied


@pytest.mark.parametrize("scheme", SCHEMES)
def test_objective_gate_on_tag_counts(scheme):
    """On integer tag counts a score can land exactly on a hinge, where the
    last rounding bit decides whether a step is taken, so the sparse and the
    dense runs can part ways.  Over 30 seeds of each case, the trained
    objective stays within 1% of the dense run's on average and within 10%
    in every run."""
    ratios = []
    for case in CASES:
        _, cfg, _ = case.values
        for seed in range(30):
            ds = tag_count_dataset(seed, CATEGORIES[scheme])
            run = replace(cfg, seed=seed, scheme=scheme)
            ratios.append(objective_value(svm.train(ds, run), ds, run)
                          / objective_value(dense_model(ds, run)[0], ds, run))
    assert np.mean(ratios) <= 1.01 and max(ratios) <= 1.10, (np.mean(ratios), max(ratios))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_unused_columns_change_nothing(scheme):
    """A step touches only the instance's columns: 50 000 more features leave
    every trained column and bias byte-equal, and the new columns zero."""
    ds, cfg = tag_count_dataset(7, 3), TrainConfig(epochs=4, seed=3, scheme=scheme)
    wide = LabeledDataset(ds.instances, ds.categories, ds.n_features + 50_000)
    for narrow, widened in zip(linear_parts(svm.train(ds, cfg)),
                               linear_parts(svm.train(wide, cfg)), strict=True):
        d = narrow.n_features
        assert widened.weights[:, :d].tobytes() == narrow.weights.tobytes()
        assert widened.biases.tobytes() == narrow.biases.tobytes()
        assert not widened.weights[:, d:].any()


def test_training_never_builds_the_dense_matrix(monkeypatch):
    ds, cfg = tag_count_dataset(7, 3), TrainConfig(epochs=4, seed=3)
    unlabeled = [fv for fv, _ in tag_count_dataset(8, 3).instances]

    def model_documents() -> list[str]:
        models = [svm.train(ds, replace(cfg, scheme=scheme)) for scheme in svm.SCHEMES]
        models.append(train_binary(tag_count_dataset(7, 2), cfg))
        models.append(svm.self_train_2step(ds, unlabeled, cfg).model)
        return [svm.model_to_json(m) for m in models]

    expected = model_documents()

    def refuse(self):
        raise AssertionError("training built the dense matrix")
    monkeypatch.setattr(LabeledDataset, "to_arrays", refuse)
    assert model_documents() == expected
