import string

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given

from folkclass import harness, svm
from folkclass.errors import InsufficientDataError
from folkclass.folksonomy import Bookmark, ingest_bookmarks
from folkclass.labels import CategoryAssignment
from folkclass.harness import (ExperimentSpec, hash_split, parse_flat_config,
                               format_flat_config, run_experiment, run_topk_sweep)
from folkclass.representation import RepresentationScheme
from folkclass.svm import TrainConfig
from folkclass.weighting import InverseFrequencyKind

from conftest import constant_one_vs_one


def labeled_corpus(seed=0, n_resources=60, k=3):
    """Synthetic corpus whose tags fully determine the category."""
    rng = np.random.default_rng(seed)
    marks, labels = [], []
    for r in range(n_resources):
        cat = r % k
        resource = f"r{r:03d}"
        labels.append(CategoryAssignment(resource, f"cat{cat}", f"sub{2 * cat + r % 2}"))
        for _ in range(int(rng.integers(2, 6))):
            user = f"u{rng.integers(40)}"
            tags = [f"sig{cat}_{rng.integers(3)}"]
            if rng.random() < 0.5:
                tags.append(f"noise{rng.integers(20)}")
            marks.append(Bookmark(user, resource, tuple(tags)))
    return ingest_bookmarks(marks), labels


def quick_spec(**overrides):
    defaults = dict(
        train=TrainConfig(epochs=30, seed=0),
        sizes=(12,),
        runs=2,
        base_seed=0,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestHashSplit:
    def test_deterministic_and_disjoint(self):
        resources = [f"r{i}" for i in range(200)]
        a_train, a_test = hash_split(resources, 0.4)
        b_train, b_test = hash_split(list(reversed(resources)), 0.4)
        assert a_train == b_train and a_test == b_test
        assert not set(a_train) & set(a_test)
        assert len(a_train) + len(a_test) == 200

    def test_fraction_roughly_respected(self):
        resources = [f"r{i}" for i in range(2000)]
        _, test = hash_split(resources, 0.4)
        assert 0.3 < len(test) / 2000 < 0.5


class TestRunExperiment:
    def test_single_run_mean_equals_run_accuracy(self):
        f, labels = labeled_corpus()
        report = run_experiment(quick_spec(runs=1), f, labels)
        [size_row] = report["results"]
        assert size_row["mean_accuracy"] == size_row["runs"][0]["accuracy"]

    def test_report_reproducible(self):
        f, labels = labeled_corpus()
        spec = quick_spec()
        assert run_experiment(spec, f, labels) == run_experiment(spec, f, labels)

    def test_runs_use_distinct_seeds(self):
        f, labels = labeled_corpus()
        report = run_experiment(quick_spec(runs=3, base_seed=5), f, labels)
        seeds = [r["seed"] for r in report["results"][0]["runs"]]
        assert seeds == [5, 6, 7]

    def test_more_data_does_not_hurt_memorizing_regime(self):
        f, labels = labeled_corpus(seed=1, n_resources=80)
        report = run_experiment(
            quick_spec(sizes=(6, 30), runs=3,
                       train=TrainConfig(epochs=40, seed=0)),
            f, labels)
        small, large = report["results"]
        assert large["mean_accuracy"] >= small["mean_accuracy"] - 0.02

    def test_insufficient_data_names_size(self):
        f, labels = labeled_corpus(n_resources=30)
        with pytest.raises(InsufficientDataError, match="9999"):
            run_experiment(quick_spec(sizes=(9999,)), f, labels)

    @pytest.mark.parametrize("committee", [
        None, (RepresentationScheme.parse("weighted-fta"), InverseFrequencyKind.IRF)])
    def test_empty_test_partition_rejected(self, committee):
        f, labels = labeled_corpus(n_resources=9)
        assert hash_split([a.resource for a in labels], 0.05)[1] == []
        spec = quick_spec(sizes=(3,), test_fraction=0.05, committee=committee)
        with pytest.raises(InsufficientDataError, match="test partition is empty"):
            run_experiment(spec, f, labels)

    def test_partition_counts_add_up(self):
        f, labels = labeled_corpus()
        report = run_experiment(quick_spec(), f, labels)
        data = report["data"]
        assert data["n_train_pool"] + data["n_test"] == data["n_labeled"]

    def test_second_level_labels(self):
        f, labels = labeled_corpus()
        report = run_experiment(quick_spec(level="second", sizes=(18,)), f, labels)
        assert len(report["data"]["categories"]) == 6

    def test_inverse_frequency_member(self):
        f, labels = labeled_corpus()
        report = run_experiment(
            quick_spec(member=InverseFrequencyKind.IRF), f, labels)
        assert report["meta"]["member"] == "tf-irf"
        assert 0.0 <= report["results"][0]["mean_accuracy"] <= 1.0

    def test_committee_of_two_members(self):
        f, labels = labeled_corpus()
        committee = (RepresentationScheme.parse("weighted-fta"),
                     InverseFrequencyKind.IRF)
        report = run_experiment(quick_spec(committee=committee), f, labels)
        assert report["meta"]["committee"] == ["weighted-fta", "tf-irf"]
        assert 0.0 <= report["results"][0]["mean_accuracy"] <= 1.0

    def test_single_one_vs_one_member_decides_by_votes(self, monkeypatch):
        # every test instance gets two pairwise votes for cat2, while the
        # summed pairwise margins favour cat0
        monkeypatch.setattr(harness, "train", lambda ds, cfg: constant_one_vs_one(
            [-5.0, 0.1, 0.1], n_features=ds.n_features))
        f, labels = labeled_corpus()
        _, test = hash_split([a.resource for a in labels], 0.4)
        top = {a.resource: a.top for a in labels}
        share = {c: sum(top[r] == c for r in test) / len(test)
                 for c in ("cat0", "cat2")}
        member = RepresentationScheme.parse("weighted-fta")
        single = run_experiment(quick_spec(member=member), f, labels)
        of_one = run_experiment(quick_spec(committee=(member,)), f, labels)
        assert single["results"][0]["mean_accuracy"] == share["cat2"]
        assert of_one["results"][0]["mean_accuracy"] == share["cat0"]

    def test_accuracy_high_on_separable_tags(self):
        f, labels = labeled_corpus(seed=2)
        report = run_experiment(
            quick_spec(sizes=(24,), runs=2, train=TrainConfig(epochs=60, seed=0)),
            f, labels)
        assert report["results"][0]["mean_accuracy"] >= 0.9

    @pytest.mark.parametrize("committee", [
        None, (RepresentationScheme.parse("weighted-fta"), InverseFrequencyKind.IRF)])
    def test_each_members_test_pool_flattened_once(self, monkeypatch, committee):
        """One vectorizer pass per member flattens its whole pool into one
        batch; every training and test set is a row selection of it, so no
        vector is flattened again."""
        passes, flattened = [], []
        member_pass, csr = harness._member_pass, svm._csr

        def counted_pass(f, member, vocab, resources):
            passes.append((member, len(resources)))
            return member_pass(f, member, vocab, resources)

        def counted_csr(fvs):
            flattened.append(len(fvs))
            return csr(fvs)

        monkeypatch.setattr(harness, "_member_pass", counted_pass)
        monkeypatch.setattr(svm, "_csr", counted_csr)
        f, labels = labeled_corpus()
        spec = quick_spec(sizes=(6, 9), runs=3, committee=committee)
        report = run_experiment(spec, f, labels)
        n_pool = report["data"]["n_labeled"]
        assert n_pool > report["data"]["n_test"] > 9
        assert passes == [(m, n_pool) for m in committee or [spec.member]]
        assert flattened == []


class TestTopkSweep:
    def test_saturated_k_equals_fta_exactly(self):
        f, labels = labeled_corpus()
        max_tags = max(len(w) for w in f.resource_tag_weights.values())
        spec = quick_spec()
        report = run_topk_sweep(spec, f, labels, [max_tags])
        [k_row] = report["results"]["topk"]
        assert k_row["results"] == report["results"]["fta"]

    def test_zero_k_rejected(self):
        f, labels = labeled_corpus()
        with pytest.raises(ValueError):
            run_topk_sweep(quick_spec(), f, labels, [0])

    def test_rows_cover_requested_ks(self):
        f, labels = labeled_corpus()
        report = run_topk_sweep(quick_spec(), f, labels, [1, 2])
        assert [row["k"] for row in report["results"]["topk"]] == [1, 2]

    def test_informative_tail_tags_flag_non_decreasing_trend(self):
        # five popular noise tags outrank the one-user category signature,
        # so small K sees only noise and FTA sees the signal
        marks, labels = [], []
        noise = tuple(f"noise{i}" for i in range(5))
        for r in range(40):
            cat = r % 2
            resource = f"r{r:03d}"
            labels.append(CategoryAssignment(resource, f"cat{cat}"))
            for j in range(3):
                marks.append(Bookmark(f"u{r}_{j}", resource, noise))
            marks.append(Bookmark(f"sig_u{r}", resource, (f"sig{cat}",)))
        f = ingest_bookmarks(marks)
        report = run_topk_sweep(
            quick_spec(sizes=(10,), runs=2, train=TrainConfig(epochs=40, seed=0)),
            f, labels, [1, 5])
        assert report["results"]["accuracy_trend"][0]["non_decreasing"] is True
        k1 = report["results"]["topk"][0]["results"][0]["mean_accuracy"]
        fta = report["results"]["fta"][0]["mean_accuracy"]
        assert fta > k1


class TestSpecValidation:
    def test_bad_runs(self):
        with pytest.raises(ValueError):
            quick_spec(runs=0)

    def test_bad_level(self):
        with pytest.raises(ValueError):
            quick_spec(level="third")

    def test_bad_test_fraction(self):
        with pytest.raises(ValueError):
            quick_spec(test_fraction=1.0)

    def test_empty_committee(self):
        with pytest.raises(ValueError):
            quick_spec(committee=())


class TestFlatConfig:
    def test_parse_basics(self):
        lines = ["# comment", "", "sizes = 10,20", "penalty=2.5  # inline"]
        assert parse_flat_config(lines) == {"sizes": "10,20", "penalty": "2.5"}

    def test_round_trip(self):
        config = {"mode": "experiment", "runs": "6"}
        assert parse_flat_config(format_flat_config(config).splitlines()) == config

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError):
            parse_flat_config(["just words"])

    @pytest.mark.parametrize("config", [
        {"k": "a#b"}, {"a=b": "v"}, {"k": " v"}, {"k": "v "}, {" k": "v"},
        {"#k": "v"}, {"k": "a\nb"}, {"k": "a\rb"}, {"k": "a\u2028b"}])
    def test_entry_that_reads_back_otherwise_rejected(self, config):
        with pytest.raises(ValueError):
            format_flat_config(config)

    @given(st.dictionaries(st.text(max_size=6), st.text(max_size=6), max_size=4))
    def test_accepted_config_reads_back_equal(self, config):
        try:
            text = format_flat_config(config)
        except ValueError:
            return
        assert parse_flat_config(text.splitlines()) == config
        assert parse_flat_config(text.split("\n")) == config

    @given(st.dictionaries(
        st.text(string.ascii_lowercase + "_", min_size=1, max_size=8),
        st.text(string.ascii_letters + string.digits + " "
                + string.punctuation.replace("#", ""), max_size=8)
        .filter(lambda v: v == v.strip()), max_size=4))
    def test_plain_config_accepted(self, config):
        assert parse_flat_config(format_flat_config(config).splitlines()) == config
