import json
import re

import hypothesis.extra.numpy as npst
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from folkclass.svm import (LabeledDataset, LinearModel, OneVsOneModel,
                           TrainConfig, binary_gradient, binary_objective,
                           evaluate_accuracy, model_from_json, model_to_json,
                           native_gradient, native_objective, objective_value,
                           self_train_2step, train, train_binary, train_native,
                           train_one_vs_all, train_one_vs_one)
from folkclass.vectors import FeatureVector

from conftest import (constant_one_vs_one, gaussian_blobs,
                      multiclass_perceptron_separable)

MEANS_3 = [(0.0, 8.0), (8.0, -4.0), (-8.0, -4.0)]


def fv(*coords):
    return FeatureVector({i: float(c) for i, c in enumerate(coords) if c != 0.0},
                         len(coords))


@pytest.fixture
def blobs3():
    instances = gaussian_blobs(7, MEANS_3, per_class=67)
    return LabeledDataset(instances, ["alpha", "beta", "gamma"], 2)


@pytest.fixture
def blobs2():
    instances = gaussian_blobs(11, [(0.0, 5.0), (5.0, 0.0)], per_class=40)
    return LabeledDataset(instances, ["neg", "pos"], 2)


class TestTrainConfig:
    @pytest.mark.parametrize("penalty", [float("nan"), float("inf"), 0.0, -1.0])
    def test_penalty_outside_finite_positives_named(self, penalty):
        with pytest.raises(ValueError, match="penalty must be finite and > 0"):
            TrainConfig(penalty=penalty)


class TestDataset:
    def test_single_category_rejected(self):
        with pytest.raises(ValueError):
            LabeledDataset([(fv(1.0), 0)], ["only"], 1)

    def test_out_of_range_category(self):
        with pytest.raises(ValueError):
            LabeledDataset([(fv(1.0), 5)], ["a", "b"], 1)

    def test_feature_id_outside_width_rejected(self):
        wide = FeatureVector({0: 1.0, 5: 3.0}, 6)
        with pytest.raises(ValueError, match=r"instance 1: feature id 5 outside 0\.\.1"):
            LabeledDataset([(fv(1.0, 0.0), 0), (wide, 1)], ["a", "b"], 2)

    def test_bias_column_appended(self):
        ds = LabeledDataset([(fv(2.0, 0.0), 0), (fv(0.0, 3.0), 1)], ["a", "b"], 2)
        X, y = ds.to_arrays()
        assert X.shape == (2, 3)
        assert (X[:, 2] == 1.0).all()
        assert list(y) == [0, 1]


class TestTrainNative:
    def test_separable_blobs_99_percent(self, blobs3):
        assert multiclass_perceptron_separable(blobs3.instances, 3)
        model = train_native(blobs3, TrainConfig(epochs=100, seed=0))
        assert evaluate_accuracy(model, blobs3) >= 0.99

    def test_two_class_reduces_to_sign_comparison(self, blobs2):
        model = train_native(blobs2, TrainConfig(epochs=30, seed=1))
        for x, _ in blobs2.instances:
            margins = model.margins(x)
            assert model.predict(x) == (1 if margins[1] > margins[0] else 0)

    def test_duplicated_instances_same_predictions(self, blobs3):
        cfg = TrainConfig(epochs=60, seed=3)
        base = train_native(blobs3, cfg)
        doubled = LabeledDataset(blobs3.instances * 2, blobs3.categories, 2)
        dup = train_native(doubled, cfg)
        for x, _ in blobs3.instances:
            assert base.predict(x) == dup.predict(x)

    def test_empty_category_named_in_error(self):
        ds = LabeledDataset([(fv(1.0), 0), (fv(2.0), 0)], ["used", "empty"], 1)
        with pytest.raises(ValueError, match="empty"):
            train_native(ds, TrainConfig(epochs=1))

    def test_bit_reproducible(self, blobs3):
        cfg = TrainConfig(epochs=20, seed=9)
        a = train_native(blobs3, cfg)
        b = train_native(blobs3, cfg)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)

    def test_objective_non_increasing_across_doubling_budgets(self, blobs3):
        previous = None
        for epochs in (5, 10, 20, 40, 80):
            cfg = TrainConfig(epochs=epochs, seed=2)
            obj = objective_value(train_native(blobs3, cfg), blobs3, cfg)
            if previous is not None:
                assert obj <= previous + 1e-6
            previous = obj


class TestTrainBinary:
    def test_symmetric_pair_classified(self):
        ds = LabeledDataset([(fv(-1.0, -1.0), 0), (fv(1.0, 1.0), 1)],
                            ["neg", "pos"], 2)
        model = train_binary(ds, TrainConfig(epochs=50, seed=0))
        assert evaluate_accuracy(model, ds) == 1.0

    def test_separable_toy_perfect(self, blobs2):
        assert multiclass_perceptron_separable(blobs2.instances, 2)
        model = train_binary(blobs2, TrainConfig(epochs=50, seed=0))
        assert evaluate_accuracy(model, blobs2) == 1.0

    def test_all_same_label_rejected(self):
        ds = LabeledDataset([(fv(1.0), 1), (fv(2.0), 1)], ["a", "b"], 1)
        with pytest.raises(ValueError):
            train_binary(ds, TrainConfig(epochs=1))

    def test_requires_two_categories(self, blobs3):
        with pytest.raises(ValueError):
            train_binary(blobs3, TrainConfig(epochs=1))

    def test_signed_margin_is_positive_row(self, blobs2):
        model = train_binary(blobs2, TrainConfig(epochs=30, seed=4))
        x = blobs2.instances[0][0]
        margins = model.margins(x)
        assert margins[0] == -margins[1]


class TestPredictMargins:
    def test_zero_vector_returns_biases(self):
        model = LinearModel(weights=np.array([[1.0, 2.0], [3.0, 4.0]]),
                            biases=np.array([0.5, -0.25]),
                            categories=("a", "b"))
        margins = model.margins(FeatureVector({}, 2))
        assert list(margins) == [0.5, -0.25]

    def test_dominant_row_wins(self):
        model = LinearModel(weights=np.array([[1.0, 1.0], [2.0, 2.0]]),
                            biases=np.zeros(2), categories=("a", "b"))
        x = fv(1.0, 1.0)
        assert model.margins(x)[1] > 0
        assert model.predict(x) == 1

    def test_hand_computed_dot_products(self):
        model = LinearModel(weights=np.array([[2.0, -1.0], [0.5, 3.0]]),
                            biases=np.array([1.0, -2.0]),
                            categories=("a", "b"))
        x = fv(3.0, 4.0)
        # by hand: 2*3 - 1*4 + 1 = 3 ; 0.5*3 + 3*4 - 2 = 11.5
        assert list(model.margins(x)) == [3.0, 11.5]

    def test_unknown_feature_ids_rejected(self):
        model = LinearModel(weights=np.array([[1.0], [2.0]]),
                            biases=np.zeros(2), categories=("a", "b"))
        x = FeatureVector({0: 1.0, 9: 100.0}, 10)
        with pytest.raises(ValueError, match=r"vector 0: feature id 9 outside the model's 1"):
            model.margins(x)

    def test_argmax_invariant_to_positive_scaling(self, blobs3):
        model = train_native(blobs3, TrainConfig(epochs=20, seed=5))
        scaled = LinearModel(weights=3.5 * model.weights,
                             biases=3.5 * model.biases,
                             categories=model.categories)
        for x, _ in blobs3.instances[:20]:
            assert model.predict(x) == scaled.predict(x)

    def test_tie_breaks_to_lowest_id(self):
        model = LinearModel(weights=np.zeros((3, 1)), biases=np.zeros(3),
                            categories=("a", "b", "c"))
        assert model.predict(fv(1.0)) == 0


class TestOneVsAll:
    def test_two_class_matches_binary_predictions(self, blobs2):
        cfg = TrainConfig(epochs=50, seed=0, scheme="one-vs-all")
        composite = train_one_vs_all(blobs2, cfg)
        single = train_binary(blobs2, TrainConfig(epochs=50, seed=0))
        for x, _ in blobs2.instances:
            assert composite.predict(x) == single.predict(x)

    def test_three_class_accuracy(self, blobs3):
        model = train_one_vs_all(blobs3, TrainConfig(epochs=100, seed=0))
        assert evaluate_accuracy(model, blobs3) >= 0.95

    def test_one_row_per_category(self, blobs3):
        model = train_one_vs_all(blobs3, TrainConfig(epochs=5, seed=0))
        assert model.weights.shape[0] == 3

    @pytest.mark.parametrize("d", [3, 4])
    def test_rows_equal_separate_binary_trainings(self, d):
        # Integer tag counts make hinge gaps of exactly 0 common at
        # hinge_exponent=1, so the last rounding bit of a score decides the
        # step: any change in how a row is scored shows up in the weights.
        for seed in range(40):
            rng = np.random.default_rng(seed)
            instances = []
            for i in range(30):
                counts = rng.poisson(1.0, d)
                counts[i % 3] += rng.integers(0, 3)
                instances.append((FeatureVector(
                    {j: float(c) for j, c in enumerate(counts) if c}, d), i % 3))
            ds = LabeledDataset(instances, ["a", "b", "c"], d)
            cfg = TrainConfig(epochs=10, seed=seed)
            model = train_one_vs_all(ds, cfg)
            for m, category in enumerate(ds.categories):
                rest_vs_m = LabeledDataset(
                    [(x, int(cid == m)) for x, cid in ds.instances],
                    ["rest", category], d)
                single = train_binary(rest_vs_m, cfg)
                assert np.array_equal(model.weights[m], single.weights[1]), (seed, m)
                assert model.biases[m] == single.biases[1], (seed, m)

    def test_single_category_dataset_impossible(self):
        with pytest.raises(ValueError):
            LabeledDataset([(fv(1.0), 0)], ["only"], 1)


class TestOneVsOne:
    def test_three_classes_three_submodels(self, blobs3):
        model = train_one_vs_one(blobs3, TrainConfig(epochs=5, seed=0))
        assert len(model.models) == 3
        assert model.pairs == ((0, 1), (0, 2), (1, 2))

    def test_four_classes_six_pairs_enumerated(self):
        instances = gaussian_blobs(13, [(0, 9), (9, 0), (-9, 0), (0, -9)],
                                   per_class=10)
        ds = LabeledDataset(instances, ["a", "b", "c", "d"], 2)
        model = train_one_vs_one(ds, TrainConfig(epochs=5, seed=0))
        assert model.pairs == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        assert len(model.models) == 6

    def test_submodel_count_formula(self):
        for k in (2, 3, 4, 5):
            means = [(10 * np.cos(2 * np.pi * i / k),
                      10 * np.sin(2 * np.pi * i / k)) for i in range(k)]
            ds = LabeledDataset(gaussian_blobs(17, means, per_class=6),
                                [f"c{i}" for i in range(k)], 2)
            model = train_one_vs_one(ds, TrainConfig(epochs=2, seed=0))
            assert len(model.models) == k * (k - 1) // 2

    def test_unanimous_votes_win(self, blobs3):
        model = train_one_vs_one(blobs3, TrainConfig(epochs=100, seed=0))
        assert evaluate_accuracy(model, blobs3) >= 0.95

    def test_margins_are_summed_signed_margins(self, blobs3):
        model = train_one_vs_one(blobs3, TrainConfig(epochs=5, seed=0))
        x = blobs3.instances[0][0]
        expected = np.zeros(3)
        for (a, b), sub in zip(model.pairs, model.models):
            s = sub.margins(x)[1]
            expected[b] += s
            expected[a] -= s
        assert np.allclose(model.margins(x), expected)

    def test_votes_outrank_summed_margins(self):
        model = constant_one_vs_one([-5.0, 0.1, 0.1])
        x = fv(1.0)
        assert int(np.argmax(model.margins(x))) == 0
        assert model.predict(x) == 2       # two pairwise wins against one

    def test_vote_tie_broken_by_summed_margins(self):
        model = constant_one_vs_one([2.0, -1.0, 1.0])
        assert list(model.margins(fv(1.0))) == [-1.0, 1.0, 0.0]
        assert model.predict(fv(1.0)) == 1

    def test_full_tie_goes_to_lowest_id(self):
        model = constant_one_vs_one([1.0, -1.0, 1.0])
        assert list(model.margins(fv(1.0))) == [0.0, 0.0, 0.0]
        assert model.predict(fv(1.0)) == 0


class TestSelfTraining:
    def test_empty_unlabeled_equals_supervised_exactly(self, blobs3):
        cfg = TrainConfig(epochs=40, seed=6)
        result = self_train_2step(blobs3, [], cfg)
        supervised = train(blobs3, cfg)
        for x, _ in blobs3.instances:
            assert result.model.predict(x) == supervised.predict(x)
        assert np.array_equal(result.model.weights, supervised.weights)
        assert sum(result.pseudo_label_counts.values()) == 0

    def test_pseudo_labels_reproduce_step1_predictions(self, blobs3):
        cfg = TrainConfig(epochs=40, seed=6)
        step1 = train(blobs3, cfg)
        unlabeled = [x for x, _ in blobs3.instances]
        result = self_train_2step(blobs3, unlabeled, cfg)
        expected = {c: 0 for c in blobs3.categories}
        for x in unlabeled:
            expected[blobs3.categories[step1.predict(x)]] += 1
        assert result.pseudo_label_counts == expected

    def test_correct_pseudo_labels_do_not_hurt(self):
        labeled = LabeledDataset(gaussian_blobs(19, MEANS_3, per_class=8),
                                 ["a", "b", "c"], 2)
        extra = gaussian_blobs(23, MEANS_3, per_class=30)
        cfg = TrainConfig(epochs=60, seed=1)
        step1 = train(labeled, cfg)
        step1_acc = evaluate_accuracy(step1, labeled)
        result = self_train_2step(labeled, [x for x, _ in extra], cfg)
        # sanity: the pseudo-labels really were all correct on this toy
        assert all(step1.predict(x) == cid for x, cid in extra)
        assert evaluate_accuracy(result.model, labeled) >= step1_acc

    def test_works_with_composite_schemes(self, blobs3):
        cfg = TrainConfig(epochs=20, seed=2, scheme="one-vs-one")
        result = self_train_2step(blobs3, [], cfg)
        assert isinstance(result.model, OneVsOneModel)


class TestEvaluateAccuracy:
    def test_memorized_single_instance(self):
        ds = LabeledDataset([(fv(1.0, 0.0), 0), (fv(0.0, 1.0), 1)], ["a", "b"], 2)
        model = train_native(ds, TrainConfig(epochs=60, seed=0))
        single = LabeledDataset([ds.instances[0]], ["a", "b"], 2)
        assert evaluate_accuracy(model, single) == 1.0

    def test_constant_predictor_on_balanced_set(self):
        model = LinearModel(weights=np.zeros((4, 1)),
                            biases=np.array([1.0, 0.0, 0.0, 0.0]),
                            categories=("a", "b", "c", "d"))
        ds = LabeledDataset([(fv(1.0), cid) for cid in range(4) for _ in range(5)],
                            ["a", "b", "c", "d"], 1)
        assert evaluate_accuracy(model, ds) == 1 / 4

    def test_hand_scored_three_of_five(self):
        model = LinearModel(weights=np.array([[1.0], [-1.0]]),
                            biases=np.zeros(2), categories=("a", "b"))
        # predictions: +x -> a, -x -> b
        ds = LabeledDataset([
            (fv(1.0), 0),    # correct
            (fv(2.0), 0),    # correct
            (fv(-1.0), 1),   # correct
            (fv(-2.0), 0),   # wrong
            (fv(3.0), 1),    # wrong
        ], ["a", "b"], 1)
        assert evaluate_accuracy(model, ds) == 0.6

    def test_empty_test_set_rejected(self, blobs2):
        model = train_binary(blobs2, TrainConfig(epochs=5, seed=0))
        with pytest.raises(ValueError):
            evaluate_accuracy(model, LabeledDataset([], ["a", "b"], 2))

    def test_matches_brute_force_comparison(self, blobs3):
        model = train_native(blobs3, TrainConfig(epochs=30, seed=8))
        acc = evaluate_accuracy(model, blobs3)
        brute = np.mean([model.predict(x) == cid for x, cid in blobs3.instances])
        assert acc == brute
        assert 0.0 <= acc <= 1.0


class TestObjective:
    def test_zero_weights_closed_form(self, blobs3):
        k, n = 3, len(blobs3)
        model = LinearModel(weights=np.zeros((k, 2)), biases=np.zeros(k),
                            categories=tuple(blobs3.categories))
        for C in (0.5, 1.0, 7.0):
            cfg = TrainConfig(penalty=C, epochs=1)
            assert objective_value(model, blobs3, cfg) == C * n * (k - 1) * 2.0

    def test_doubling_penalty_doubles_loss_term(self, blobs3):
        model = train_native(blobs3, TrainConfig(epochs=10, seed=0))
        reg = 0.5 * float((model.augmented() ** 2).sum())
        obj1 = objective_value(model, blobs3, TrainConfig(penalty=1.0, epochs=1))
        obj2 = objective_value(model, blobs3, TrainConfig(penalty=2.0, epochs=1))
        assert obj2 - reg == pytest.approx(2.0 * (obj1 - reg))

    def test_finite_difference_directional_derivative(self):
        rng = np.random.default_rng(123)
        checked = 0
        while checked < 20:
            n, d, k = 12, 5, 4
            X = np.hstack([rng.normal(size=(n, d)), np.ones((n, 1))])
            y = rng.integers(0, k, size=n)
            W = rng.normal(size=(k, d + 1))
            C = float(rng.uniform(0.3, 3.0))
            scores = X @ W.T
            gaps = 2.0 - (scores[np.arange(n), y][:, None] - scores)
            gaps[np.arange(n), y] = np.inf   # own category has no hinge term
            if np.abs(gaps).min() < 1e-5:
                continue   # too close to a hinge kink to differentiate
            checked += 1
            V = rng.normal(size=W.shape)
            V /= np.linalg.norm(V)
            h = 1e-6
            fd = (native_objective(W + h * V, X, y, C)
                  - native_objective(W - h * V, X, y, C)) / (2 * h)
            analytic = float((native_gradient(W, X, y, C) * V).sum())
            assert abs(fd - analytic) / max(1.0, abs(analytic)) < 1e-4

    def test_binary_finite_difference(self):
        rng = np.random.default_rng(321)
        checked = 0
        while checked < 10:
            n, d = 15, 6
            X = np.hstack([rng.normal(size=(n, d)), np.ones((n, 1))])
            ydec = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            w = rng.normal(size=d + 1)
            C = float(rng.uniform(0.3, 3.0))
            if np.abs(1.0 - ydec * (X @ w)).min() < 1e-5:
                continue
            checked += 1
            v = rng.normal(size=w.shape)
            v /= np.linalg.norm(v)
            h = 1e-6
            fd = (binary_objective(w + h * v, X, ydec, C)
                  - binary_objective(w - h * v, X, ydec, C)) / (2 * h)
            analytic = float(binary_gradient(w, X, ydec, C) @ v)
            assert abs(fd - analytic) / max(1.0, abs(analytic)) < 1e-4

    def test_composite_scheme_objectives(self, blobs3):
        cfg_ova = TrainConfig(epochs=10, seed=0, scheme="one-vs-all")
        cfg_ovo = TrainConfig(epochs=10, seed=0, scheme="one-vs-one")
        ova = train_one_vs_all(blobs3, cfg_ova)
        ovo = train_one_vs_one(blobs3, cfg_ovo)
        assert objective_value(ova, blobs3, cfg_ova) > 0
        assert objective_value(ovo, blobs3, cfg_ovo) > 0


class TestSerialization:
    def test_linear_round_trip(self, blobs3):
        model = train_native(blobs3, TrainConfig(epochs=10, seed=0))
        back = model_from_json(model_to_json(model))
        assert back.categories == model.categories
        for x, _ in blobs3.instances[:10]:
            assert np.array_equal(back.margins(x), model.margins(x))

    def test_one_vs_one_round_trip(self, blobs3):
        model = train_one_vs_one(blobs3, TrainConfig(epochs=5, seed=0))
        back = model_from_json(model_to_json(model))
        assert isinstance(back, OneVsOneModel)
        assert back.pairs == model.pairs
        for x, _ in blobs3.instances[:10]:
            assert back.predict(x) == model.predict(x)

    @given(st.integers(2, 4), st.integers(1, 6), st.booleans(), st.data())
    def test_read_back_model_scores_bit_identically(self, k, d, one_vs_one, data):
        finite = st.floats(-1e6, 1e6)

        def linear(categories):
            rows = len(categories)
            return LinearModel(
                weights=data.draw(npst.arrays(np.float64, (rows, d), elements=finite)),
                biases=data.draw(npst.arrays(np.float64, (rows,), elements=finite)),
                categories=categories)

        categories = tuple(f"c{i}" for i in range(k))
        if one_vs_one:
            pairs = tuple((a, b) for a in range(k) for b in range(a + 1, k))
            rows = linear(tuple(f"{a}:{b}" for a, b in pairs))
            model = OneVsOneModel(categories, pairs, rows.weights, rows.biases)
        else:
            model = linear(categories)
        back = model_from_json(model_to_json(model))
        assert type(back) is type(model) and back.categories == model.categories
        for entries in data.draw(st.lists(st.dictionaries(
                st.integers(0, d - 1), finite.filter(bool)), min_size=1, max_size=4)):
            x = FeatureVector(entries, d)
            assert back.margins(x).tobytes() == model.margins(x).tobytes()
            assert back.predict(x) == model.predict(x)

    def test_squared_hinge_model_still_loads(self):
        doc = {"format": "folkclass-model/1", "kind": "linear", "categories": ["a", "b"],
               "weights": [[0.0], [1.0]], "biases": [0.0, 0.0],
               "meta": {"scheme": "native", "hinge_exponent": 2}}
        model = model_from_json(json.dumps(doc))
        assert model.predict(fv(1.0)) == 1
        assert model_to_json(model) == json.dumps(doc)

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            model_from_json('{"format": "other/9"}')

    def test_missing_kind_named(self):
        with pytest.raises(ValueError, match="no 'kind'"):
            model_from_json('{"format": "folkclass-model/1"}')

    def test_unknown_kind_named(self):
        with pytest.raises(ValueError, match="'two-step'"):
            model_from_json('{"format": "folkclass-model/1", "kind": "two-step"}')


class TestModelDocumentValidation:
    LINEAR = {"format": "folkclass-model/1", "kind": "linear",
              "categories": ["a", "b"], "weights": [[0.0], [1.0]], "biases": [0.0, 0.0]}
    ONE_VS_ONE = {"format": "folkclass-model/1", "kind": "one-vs-one",
                  "categories": ["a", "b", "c"], "pairs": [[0, 1], [0, 2], [1, 2]],
                  "sub_models": [{"categories": [x, y], "weights": [[-1.0], [1.0]],
                                  "biases": [0.0, 0.0]}
                                 for x, y in (("a", "b"), ("a", "c"), ("b", "c"))]}

    def _doc(self, drop=(), **extra):
        doc = {k: v for k, v in self.LINEAR.items() if k not in drop}
        return json.dumps({**doc, **extra})

    def test_complete_document_loads(self):
        assert model_from_json(self._doc()).categories == ("a", "b")

    @pytest.mark.parametrize("text", ["[]", "3", '"model"', "null"])
    def test_non_object_rejected(self, text):
        with pytest.raises(ValueError, match="not a JSON object"):
            model_from_json(text)

    @pytest.mark.parametrize("key", ["weights", "biases", "categories"])
    def test_missing_linear_key_named(self, key):
        with pytest.raises(ValueError, match=f"no '{key}'"):
            model_from_json(self._doc(drop=(key,)))

    def test_every_missing_key_named(self):
        with pytest.raises(ValueError, match="no 'weights', 'biases'"):
            model_from_json(self._doc(drop=("weights", "biases")))

    def test_missing_one_vs_one_keys_named(self):
        text = json.dumps({"format": "folkclass-model/1", "kind": "one-vs-one",
                           "categories": ["a", "b"]})
        with pytest.raises(ValueError, match="no 'pairs', 'sub_models'"):
            model_from_json(text)

    def test_sub_model_checked(self):
        text = json.dumps({"format": "folkclass-model/1", "kind": "one-vs-one",
                           "categories": ["a", "b"], "pairs": [[0, 1]],
                           "sub_models": [{"categories": ["a", "b"],
                                           "weights": [[0.0], [1.0]]}]})
        with pytest.raises(ValueError, match="no 'biases'"):
            model_from_json(text)

    def test_complete_one_vs_one_document_loads(self):
        model = model_from_json(json.dumps(self.ONE_VS_ONE))
        assert model.pairs == ((0, 1), (0, 2), (1, 2))

    @pytest.mark.parametrize("field,value", [
        ("categories", 5), ("categories", ["a", 1]), ("categories", "ab"),
        ("weights", [0.0, 1.0]), ("weights", [[0.0]]), ("weights", [[0.0], [1.0, 2.0]]),
        ("weights", {"a": 1}), ("biases", [0.0]), ("biases", [[0.0], [0.0]]),
        ("biases", 0.0)],
        ids=["categories-int", "categories-mixed", "categories-str", "weights-1d",
             "weights-rows", "weights-ragged", "weights-object", "biases-length",
             "biases-2d", "biases-scalar"])
    def test_linear_field_named(self, field, value):
        with pytest.raises(ValueError, match=f"'{field}' is not"):
            model_from_json(self._doc(**{field: value}))

    @pytest.mark.parametrize("pairs", [[[0, 1], [0], [1, 2]], [[0, 1], [0, 2], [1, 1]],
                                       [[0, 1], [0, 3], [1, 2]], [[0, 1], [0, -1], [1, 2]],
                                       [[0, 1], [0, True], [1, 2]], [[0, 1], "02", [1, 2]]],
                             ids=["one-id", "not-distinct", "out-of-range", "negative",
                                  "bool", "string"])
    def test_bad_pair_entry_named(self, pairs):
        with pytest.raises(ValueError, match="'pairs' entry .* is not two distinct ids"):
            model_from_json(json.dumps({**self.ONE_VS_ONE, "pairs": pairs}))

    @pytest.mark.parametrize("pairs,culprit", [
        ([[0, 1], [0, 1], [1, 0]], "entry 1 [0, 1] repeats entry 0 [0, 1]"),
        ([[0, 1], [0, 2], [2, 0]], "entry 2 [2, 0] repeats entry 1 [0, 2]")],
        ids=["same-order", "swapped"])
    def test_repeated_pair_entry_named(self, pairs, culprit):
        names = self.ONE_VS_ONE["categories"]
        subs = [{"categories": [names[a], names[b]], "weights": [[-1.0], [1.0]],
                 "biases": [0.0, 0.0]} for a, b in pairs]
        with pytest.raises(ValueError, match=re.escape(f"'pairs' {culprit}")):
            model_from_json(json.dumps({**self.ONE_VS_ONE, "pairs": pairs,
                                        "sub_models": subs}))

    def test_pairs_not_a_list(self):
        with pytest.raises(ValueError, match="'pairs' is not a list"):
            model_from_json(json.dumps({**self.ONE_VS_ONE, "pairs": 3}))

    def test_sub_model_count_must_match_pairs(self):
        doc = {**self.ONE_VS_ONE, "sub_models": self.ONE_VS_ONE["sub_models"][:2]}
        with pytest.raises(ValueError, match="'sub_models' is not a list of 3 models"):
            model_from_json(json.dumps(doc))

    def test_one_vs_one_categories_checked(self):
        with pytest.raises(ValueError, match="'categories' is not a list of strings"):
            model_from_json(json.dumps({**self.ONE_VS_ONE, "categories": 3}))

    def test_sub_model_categories_must_match_pair(self):
        doc = {**self.ONE_VS_ONE, "pairs": [[0, 1], [1, 2], [0, 2]]}
        with pytest.raises(ValueError, match=r"do not match pair \[1, 2\]"):
            model_from_json(json.dumps(doc))

    def test_sub_model_dimensionalities_must_agree(self):
        subs = [dict(m) for m in self.ONE_VS_ONE["sub_models"]]
        subs[2]["weights"] = [[0.0, 0.0], [1.0, 1.0]]
        with pytest.raises(ValueError, match="differ in feature dimensionality"):
            model_from_json(json.dumps({**self.ONE_VS_ONE, "sub_models": subs}))


class TestConfigValidation:
    def test_bad_penalty(self):
        with pytest.raises(ValueError):
            TrainConfig(penalty=0.0)

    def test_bad_scheme(self):
        with pytest.raises(ValueError):
            TrainConfig(scheme="nonsense")

    def test_record_echoes_the_fields_then_the_plain_hinge(self):
        assert list(TrainConfig(seed=3).record().items()) == [
            ("penalty", 1.0), ("epochs", 100), ("seed", 3), ("scheme", "native"),
            ("hinge_exponent", 1)]
