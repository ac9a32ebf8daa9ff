import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import folkclass
from folkclass import svm
from folkclass.choices import SCHEMES
from folkclass.cli import build_parser, main
from folkclass.folksonomy import Bookmark, bookmark_to_line, ingest_bookmarks
from folkclass.generator import RegimeConfig, generate_bookmarks
from folkclass.harness import (SWEEP_KEYS, ExperimentSpec, format_flat_config,
                               run_experiment)
from folkclass.labels import parse_category_lines
from folkclass.vectors import read_vector_lines

from test_harness import labeled_corpus


@pytest.fixture
def two_bookmark_file(tmp_path):
    path = tmp_path / "bookmarks.jsonl"
    path.write_text(
        '{"user": "u1", "resource": "r1", "tags": ["a", "b"]}\n'
        '{"user": "u2", "resource": "r1", "tags": ["b"]}\n')
    return path


def run(argv):
    return main([str(a) for a in argv])


class TestStats:
    def test_two_bookmark_fixture(self, two_bookmark_file, tmp_path, capsys):
        out = tmp_path / "stats.json"
        assert run(["stats", "--bookmarks", two_bookmark_file, "-o", out]) == 0
        report = json.loads(out.read_text())
        assert report["totals"] == {"resources": 1, "users": 2,
                                    "bookmarks": 2, "tags": 2}
        assert report["mean_distinct_tags"]["per_resource"] == 2.0
        assert report["mean_distinct_tags"]["per_bookmark"] == 1.5

    def test_novelty_needs_flag_for_synthetic_order(self, two_bookmark_file, capsys):
        assert run(["stats", "--bookmarks", two_bookmark_file, "--novelty"]) == 1
        assert "synthetic" in capsys.readouterr().err
        assert run(["stats", "--bookmarks", two_bookmark_file, "--novelty",
                    "--allow-synthetic-order"]) == 0


class TestIngest:
    def test_report_shape(self, two_bookmark_file, capsys):
        assert run(["ingest", "--bookmarks", two_bookmark_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["report"]["annotated_bookmarks"] == 2

    def test_strip_reading_state(self, tmp_path, capsys):
        path = tmp_path / "b.jsonl"
        path.write_text('{"user": "u", "resource": "r", "tags": ["read", "x"]}\n')
        assert run(["ingest", "--bookmarks", path, "--strip-reading-state"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["report"]["distinct_tags"] == 1

    def test_missing_file_is_runtime_error(self, capsys):
        assert run(["ingest", "--bookmarks", "no-such-file"]) == 1
        assert "error" in capsys.readouterr().err


class TestRepresentAndWeight:
    def test_represent_writes_vectors(self, two_bookmark_file, tmp_path):
        out = tmp_path / "vectors.tsv"
        assert run(["represent", "--bookmarks", two_bookmark_file,
                    "--scheme", "weighted-fta", "-o", out]) == 0
        line = out.read_text().strip()
        assert line.startswith("r1\t")
        assert "0:1.0" in line and "1:2.0" in line

    def test_weight_correlate_report(self, tmp_path, capsys):
        path = tmp_path / "b.jsonl"
        path.write_text(
            '{"user": "u1", "resource": "r1", "tags": ["a", "b"]}\n'
            '{"user": "u2", "resource": "r2", "tags": ["b", "c"]}\n'
            '{"user": "u1", "resource": "r3", "tags": ["c"]}\n')
        assert run(["weight", "--bookmarks", path, "--correlate"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report["correlation"]) == {"irf-iuf", "irf-ibf", "iuf-ibf"}

    def test_weight_correlate_degenerate_corpus_is_runtime_error(
            self, two_bookmark_file, capsys):
        # a single-resource corpus has constant inverse resource frequency
        assert run(["weight", "--bookmarks", two_bookmark_file,
                    "--correlate"]) == 1
        assert "zero variance" in capsys.readouterr().err

    def test_vocab_out(self, two_bookmark_file, tmp_path):
        vocab_path = tmp_path / "vocab.json"
        out = tmp_path / "v.tsv"
        assert run(["weight", "--bookmarks", two_bookmark_file, "--kind", "none",
                    "--vocab-out", vocab_path, "-o", out]) == 0
        vocab = json.loads(vocab_path.read_text())
        assert vocab == {"n_documents": 1, "doc_frequency": {"a": 1, "b": 1}}


class TestCommitteeCommand:
    def test_worked_example(self, tmp_path, capsys):
        a = tmp_path / "a.margins"
        b = tmp_path / "b.margins"
        a.write_text("res\t1:1.2 2:1.1 3:0.6\n")
        b.write_text("res\t1:0.5 2:1.0 3:1.2\n")
        assert run(["committee", a, b, "--no-normalize"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["predictions"] == [{"instance": "res", "category": "2"}]
        scores = report["scores"][0]["scores"]
        assert scores["1"] == pytest.approx(1.7)
        assert scores["2"] == pytest.approx(2.1)
        assert scores["3"] == pytest.approx(1.8)

    def test_single_file_rejected(self, tmp_path, capsys):
        a = tmp_path / "a.margins"
        a.write_text("res\tc0:1.0\n")
        assert run(["committee", a]) == 1

    @pytest.mark.parametrize("text,reason", [
        ("res\ta:1.0 c:0.5\n", "categories ('a', 'c') differ from ('a', 'b') in {first}"),
        ("other\ta:1.0 b:0.5\n", "instance ids differ from those in {first}")],
        ids=["categories", "instances"])
    def test_mismatched_member_names_both_files(self, tmp_path, capsys, text, reason):
        """The third file is named by its path, against the first one's."""
        a, b, c = (tmp_path / f"{name}.margins" for name in "abc")
        a.write_text("res\ta:1.0 b:0.5\n")
        b.write_text("res\ta:0.5 b:1.0\n")
        c.write_text(text)
        assert run(["committee", a, b, c]) == 1
        err = capsys.readouterr().err
        assert err == f"folkclass: error: {c}: {reason.format(first=a)}\n"


class TestGen:
    def test_byte_identical_output(self, tmp_path):
        out1, out2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        args = ["gen", "--regime", "none", "--seed", "7",
                "--users", "10", "--resources", "8", "--pool", "30"]
        assert run(args + ["-o", out1]) == 0
        assert run(args + ["-o", out2]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_global_and_subcommand_seed_agree(self, tmp_path):
        out1, out2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        tail = ["--regime", "none", "--users", "10", "--resources", "8",
                "--pool", "30"]
        assert run(["--seed", "7", "gen"] + tail + ["-o", out1]) == 0
        assert run(["gen", "--seed", "7"] + tail + ["-o", out2]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_generated_stream_ingestable(self, tmp_path, capsys):
        out = tmp_path / "gen.jsonl"
        assert run(["gen", "--regime", "resource-based", "--users", "10",
                    "--resources", "8", "--pool", "30", "-o", out]) == 0
        assert run(["ingest", "--bookmarks", out]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["report"]["annotated_bookmarks"] > 0


class TestTrainEvalPipeline:
    def test_full_round_trip(self, tmp_path, capsys):
        f, labels = labeled_corpus(seed=4, n_resources=30)
        bookmarks = tmp_path / "bookmarks.jsonl"
        bookmarks.write_text("".join(bookmark_to_line(b) + "\n"
                                     for b in f.bookmarks))
        labels_path = tmp_path / "labels.tsv"
        labels_path.write_text("".join(
            f"{a.resource}\t{a.top}\t{a.second}\n" for a in labels))

        vectors = tmp_path / "vectors.tsv"
        assert run(["represent", "--bookmarks", bookmarks,
                    "--scheme", "weighted-fta", "-o", vectors]) == 0

        model = tmp_path / "model.json"
        assert run(["train", "--vectors", vectors, "--labels", labels_path,
                    "--scheme", "native", "--epochs", "40",
                    "--model-out", model]) == 0
        capsys.readouterr()

        margins = tmp_path / "eval.margins"
        assert run(["eval", "--model", model, "--vectors", vectors,
                    "--labels", labels_path, "--margins-out", margins]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["accuracy"] >= 0.9
        assert margins.read_text().count("\n") == report["n_instances"]

        # margins from two models combine through the committee command
        assert run(["committee", margins, margins]) == 0
        committee_report = json.loads(capsys.readouterr().out)
        assert len(committee_report["predictions"]) == report["n_instances"]

    def test_self_train_reports_pseudo_counts(self, tmp_path, capsys):
        f, labels = labeled_corpus(seed=5, n_resources=24)
        bookmarks = tmp_path / "bookmarks.jsonl"
        bookmarks.write_text("".join(bookmark_to_line(b) + "\n"
                                     for b in f.bookmarks))
        labels_path = tmp_path / "labels.tsv"
        labels_path.write_text("".join(
            f"{a.resource}\t{a.top}\t\n" for a in labels))
        vectors = tmp_path / "vectors.tsv"
        assert run(["represent", "--bookmarks", bookmarks,
                    "--scheme", "weighted-fta", "-o", vectors]) == 0
        model = tmp_path / "model.json"
        assert run(["train", "--vectors", vectors, "--labels", labels_path,
                    "--self-train", "--unlabeled-vectors", vectors,
                    "--epochs", "30", "--model-out", model]) == 0
        report = json.loads(capsys.readouterr().out)
        assert sum(report["pseudo_label_counts"].values()) == 24


class TestSweepCommand:
    def test_experiment_from_config(self, tmp_path, capsys):
        f, labels = labeled_corpus(seed=6, n_resources=40)
        bookmarks = tmp_path / "bookmarks.jsonl"
        bookmarks.write_text("".join(bookmark_to_line(b) + "\n"
                                     for b in f.bookmarks))
        labels_path = tmp_path / "labels.tsv"
        labels_path.write_text("".join(
            f"{a.resource}\t{a.top}\t{a.second}\n" for a in labels))
        config = tmp_path / "sweep.conf"
        config.write_text(format_flat_config({
            "member": "weighted-fta", "sizes": "9", "runs": "2",
            "epochs": "25", "base_seed": "3",
        }))
        out = tmp_path / "report.json"
        assert run(["sweep", "--bookmarks", bookmarks, "--labels", labels_path,
                    "--config", config, "-o", out]) == 0
        report = json.loads(out.read_text())
        assert report["meta"]["runs"] == 2
        assert report["results"][0]["size"] == 9


    def test_unknown_config_keys_rejected_by_name(self, tmp_path, capsys):
        f, labels = labeled_corpus(seed=6, n_resources=40)
        bookmarks = tmp_path / "bookmarks.jsonl"
        bookmarks.write_text("".join(bookmark_to_line(b) + "\n"
                                     for b in f.bookmarks))
        labels_path = tmp_path / "labels.tsv"
        labels_path.write_text("".join(f"{a.resource}\t{a.top}\n" for a in labels))
        config = tmp_path / "sweep.conf"
        config.write_text(format_flat_config({
            "sizes": "9", "runs": "1", "epoch": "3", "svm_schem": "one-vs-one"}))
        out = tmp_path / "report.json"
        assert run(["sweep", "--bookmarks", bookmarks, "--labels", labels_path,
                    "--config", config, "-o", out]) == 1
        err = capsys.readouterr().err
        assert "epoch, svm_schem" in err
        assert not out.exists()


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            run(["frobnicate"])
        assert err.value.code == 2

    def test_unknown_flag_is_usage_error(self, two_bookmark_file):
        with pytest.raises(SystemExit) as err:
            run(["ingest", "--bookmarks", two_bookmark_file, "--bogus"])
        assert err.value.code == 2

    def test_model_without_kind_is_runtime_error(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text('{"format": "folkclass-model/1"}')
        assert run(["eval", "--model", model, "--vectors", tmp_path / "v.tsv",
                    "--labels", tmp_path / "l.tsv"]) == 1
        assert "kind" in capsys.readouterr().err

    def test_malformed_input_is_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{nope\n")
        assert run(["ingest", "--bookmarks", bad]) == 1
        assert "line 1" in capsys.readouterr().err


def write_corpus(tmp_path, seed=4, n_resources=30):
    """Bookmark, label and vector files of a small labeled corpus."""
    f, labels = labeled_corpus(seed=seed, n_resources=n_resources)
    bookmarks = tmp_path / "bookmarks.jsonl"
    bookmarks.write_text("".join(bookmark_to_line(b) + "\n" for b in f.bookmarks))
    labels_path = tmp_path / "labels.tsv"
    labels_path.write_text("".join(f"{a.resource}\t{a.top}\n" for a in labels))
    vectors = tmp_path / "vectors.tsv"
    assert run(["represent", "--bookmarks", bookmarks,
                "--scheme", "weighted-fta", "-o", vectors]) == 0
    return bookmarks, labels, labels_path, vectors


class TestEvalCategories:
    def _train(self, tmp_path, capsys):
        _, labels, labels_path, vectors = write_corpus(tmp_path)
        model = tmp_path / "model.json"
        assert run(["train", "--vectors", vectors, "--labels", labels_path,
                    "--epochs", "20", "--model-out", model]) == 0
        capsys.readouterr()
        return labels, vectors, model

    def test_test_labels_may_lack_a_category(self, tmp_path, capsys):
        labels, vectors, model = self._train(tmp_path, capsys)
        partial = tmp_path / "partial.tsv"
        kept = [a for a in labels if a.top != "cat0"]
        partial.write_text("".join(f"{a.resource}\t{a.top}\n" for a in kept))
        margins = tmp_path / "eval.margins"
        assert run(["eval", "--model", model, "--vectors", vectors,
                    "--labels", partial, "--margins-out", margins]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_instances"] == len(kept)
        first = margins.read_text().splitlines()[0]
        assert [p.rpartition(":")[0] for p in first.split("\t")[1].split()] == [
            "cat0", "cat1", "cat2"]

    def test_label_outside_model_named(self, tmp_path, capsys):
        labels, vectors, model = self._train(tmp_path, capsys)
        renamed = tmp_path / "renamed.tsv"
        renamed.write_text("".join(
            f"{a.resource}\t{'cat9' if a.top == 'cat2' else a.top}\n" for a in labels))
        assert run(["eval", "--model", model, "--vectors", vectors,
                    "--labels", renamed]) == 1
        err = capsys.readouterr().err
        assert "'cat9'" in err and "Traceback" not in err


class TestEvalScoresOnce:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_accuracy_and_margins_come_from_one_margin_pass(self, tmp_path, capsys,
                                                            monkeypatch, scheme):
        _, _, labels_path, vectors = write_corpus(tmp_path)
        model = tmp_path / "m.json"
        assert run(["train", "--vectors", vectors, "--labels", labels_path,
                    "--scheme", scheme, "--epochs", 5, "--model-out", model]) == 0
        passes, flattened = [], []      # rows per margin pass, vectors per _csr call
        row_margins, csr = svm.LinearModel._row_margins, svm._csr

        def counted(self, batch):
            passes.append(len(batch[0]) - 1)
            return row_margins(self, batch)

        def counted_csr(fvs):
            flattened.append(len(fvs))
            return csr(fvs)

        monkeypatch.setattr(svm.LinearModel, "_row_margins", counted)
        monkeypatch.setattr(svm, "_csr", counted_csr)
        capsys.readouterr()
        margins = tmp_path / "eval.margins"
        assert run(["eval", "--model", model, "--vectors", vectors,
                    "--labels", labels_path, "--margins-out", margins]) == 0
        report = json.loads(capsys.readouterr().out)
        assert passes == [report["n_instances"]]
        assert flattened == [report["n_instances"]]   # the dataset's flattening is scored
        assert margins.read_text().count("\n") == report["n_instances"]


class TestMalformedFiles:
    @pytest.mark.parametrize("doc", ["[]", '{"format": "folkclass-model/1", '
                                           '"kind": "linear", "biases": [0, 0], '
                                           '"categories": ["a", "b"]}'])
    def test_bad_model_document_is_runtime_error(self, tmp_path, capsys, doc):
        _, _, labels_path, vectors = write_corpus(tmp_path)
        model = tmp_path / "model.json"
        model.write_text(doc)
        assert run(["eval", "--model", model, "--vectors", vectors,
                    "--labels", labels_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("folkclass: error: ") and err.count("\n") == 1

    def test_bad_vectors_file_names_line(self, tmp_path, capsys):
        _, _, labels_path, _ = write_corpus(tmp_path)
        vectors = tmp_path / "bad.tsv"
        vectors.write_text("r000\t0:1.0\nr001\t0:1.0 1:x\n")
        assert run(["train", "--vectors", vectors, "--labels", labels_path,
                    "--model-out", tmp_path / "m.json"]) == 1
        err = capsys.readouterr().err
        assert err == f"folkclass: error: {vectors}: line 2: expected label:value, got '1:x'\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_vector_weight_names_line(self, tmp_path, capsys, value):
        _, _, labels_path, _ = write_corpus(tmp_path)
        vectors = tmp_path / "bad.tsv"
        vectors.write_text(f"r000\t0:1.0\nr001\t0:1.0 1:{value}\n")
        model = tmp_path / "m.json"
        assert run(["train", "--vectors", vectors, "--labels", labels_path,
                    "--model-out", model]) == 1
        err = capsys.readouterr().err
        assert err == f"folkclass: error: {vectors}: line 2: non-finite value in '1:{value}'\n"
        assert not model.exists()

    def test_non_finite_margin_names_line(self, tmp_path, capsys):
        good = tmp_path / "a.margins"
        good.write_text("i0\ta:1.0 b:0.0\ni1\ta:0.5 b:0.5\n")
        bad = tmp_path / "b.margins"
        bad.write_text("i0\ta:1.0 b:0.0\ni1\ta:inf b:0.0\n")
        assert run(["committee", good, bad]) == 1
        err = capsys.readouterr().err
        assert err == f"folkclass: error: {bad}: line 2: non-finite value in 'a:inf'\n"

    @pytest.mark.parametrize("kind,text,reason", [
        ("bookmarks", '{"user": "u1"}\n', "line 1: missing field 'resource'"),
        ("labels", "r000\n", "line 1: expected resource<TAB>top[<TAB>second]"),
        ("vectors", "r000\tB:x\n", "line 1: expected label:value, got 'B:x'"),
        ("margins", "r000\tB:x\n", "line 1: expected label:value, got 'B:x'"),
        ("model", "{", "Expecting property name enclosed in double quotes: "
                       "line 1 column 2 (char 1)"),
        ("blocked-tags", "\xff", "'utf-8' codec can't decode byte 0xff in position 0: "
                                  "invalid start byte")],
        ids=["bookmarks", "labels", "vectors", "margins", "model", "blocked-tags"])
    def test_malformed_file_named(self, tmp_path, capsys, kind, text, reason):
        """Which of two files of one kind is malformed shows in the message."""
        bookmarks, _, labels_path, vectors = write_corpus(tmp_path)
        model, margins = tmp_path / "m.json", tmp_path / "a.margins"
        assert run(["train", "--vectors", vectors, "--labels", labels_path,
                    "--model-out", model]) == 0
        assert run(["eval", "--model", model, "--vectors", vectors,
                    "--labels", labels_path, "--margins-out", margins]) == 0
        bad = tmp_path / "bad"
        bad.write_bytes(text.encode("latin-1"))
        argv = {"bookmarks": ["ingest", "--bookmarks", bad],
                "labels": ["train", "--vectors", vectors, "--labels", bad,
                           "--model-out", tmp_path / "m2.json"],
                "vectors": ["eval", "--model", model, "--vectors", bad,
                            "--labels", labels_path],
                "margins": ["committee", margins, bad],
                "model": ["eval", "--model", bad, "--vectors", vectors,
                          "--labels", labels_path],
                "blocked-tags": ["ingest", "--bookmarks", bookmarks,
                                 "--strip-reading-state", "--blocked-tags", bad]}[kind]
        capsys.readouterr()
        assert run(argv) == 1
        assert capsys.readouterr().err == f"folkclass: error: {bad}: {reason}\n"

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_no_overlap_names_both_files(self, tmp_path, capsys, command):
        vectors, labels = tmp_path / "v.tsv", tmp_path / "labels.tsv"
        vectors.write_text("r0\t0:1.0\nr1\t0:2.0\n")
        labels.write_text("s0\tcat0\ns1\tcat1\n")
        model = tmp_path / "m.json"
        if command == "eval":
            model.write_text(json.dumps(_LINEAR))
        argv = {"train": ["train", "--model-out", model],
                "eval": ["eval", "--model", model]}[command]
        assert run(argv + ["--vectors", vectors, "--labels", labels]) == 1
        assert capsys.readouterr().err == (
            f"folkclass: error: no overlap between vectors {vectors} and labels {labels}\n")

    def test_bad_margin_file_names_line(self, tmp_path, capsys):
        good = tmp_path / "a.margins"
        good.write_text("i0\ta:1.0 b:0.0\n")
        bad = tmp_path / "b.margins"
        bad.write_text("i0\ta:1.0 b:0.0\ni1 a:1.0\n")
        assert run(["committee", good, bad]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_margin_line_without_categories_names_file_and_line(self, tmp_path, capsys):
        first, second = tmp_path / "a.margins", tmp_path / "b.margins"
        first.write_text("i0\t\ni1\t\n")
        second.write_text("i0\t\ni1\t\n")
        assert run(["committee", first, second]) == 1
        assert capsys.readouterr().err == (
            f"folkclass: error: {first}: line 1: lists no category:score pair\n")


class TestOneCategoryNamesItsSource:
    """Fewer than two categories is an error of the file they came from."""

    @pytest.mark.parametrize("level", ["top", "second"])
    def test_train_names_the_labels_file(self, tmp_path, capsys, level):
        _, labels, _, vectors = write_corpus(tmp_path)
        one = tmp_path / "one.tsv"
        one.write_text("".join(f"{a.resource}\t{a.top}\tonly\n" if level == "second"
                               else f"{a.resource}\tcat0\n" for a in labels))
        model = tmp_path / "m.json"
        capsys.readouterr()
        assert run(["train", "--vectors", vectors, "--labels", one, "--level", level,
                    "--model-out", model]) == 1
        assert capsys.readouterr().err == (f"folkclass: error: {one} at level {level}: "
                                           f"need at least 2 categories, got 1\n")
        assert not model.exists()

    def test_eval_names_the_model_file(self, tmp_path, capsys):
        _, _, labels_path, vectors = write_corpus(tmp_path)
        model = tmp_path / "m.json"
        model.write_text(json.dumps({**_LINEAR, "categories": ["cat0"],
                                     "weights": [[0.0]], "biases": [0.0]}))
        capsys.readouterr()
        assert run(["eval", "--model", model, "--vectors", vectors,
                    "--labels", labels_path]) == 1
        assert capsys.readouterr().err == (
            f"folkclass: error: {model}: need at least 2 categories, got 1\n")


class TestNonFiniteSettingsRejected:
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_train_penalty(self, tmp_path, capsys, value):
        _, _, labels_path, vectors = write_corpus(tmp_path)
        model = tmp_path / "m.json"
        capsys.readouterr()
        assert run(["train", "--vectors", vectors, "--labels", labels_path,
                    "--penalty", value, "--model-out", model]) == 1
        assert capsys.readouterr().err == (
            f"folkclass: error: penalty must be finite and > 0, got {value}\n")
        assert not model.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_gen_zipf(self, tmp_path, capsys, value):
        out = tmp_path / "bookmarks.jsonl"
        assert run(["gen", "--regime", "none", "--zipf", value, "-o", out]) == 1
        assert capsys.readouterr().err == (
            f"folkclass: error: zipf_exponent must be finite, got {value}\n")
        assert not out.exists()


_LINEAR = {"format": "folkclass-model/1", "kind": "linear",
           "categories": ["cat0", "cat1"], "weights": [[0.0], [1.0]],
           "biases": [0.0, 0.0]}
_PAIRWISE = {"format": "folkclass-model/1", "kind": "one-vs-one",
             "categories": ["cat0", "cat1", "cat2"], "pairs": [[0, 1], [0, 2], [1, 2]],
             "sub_models": [{"categories": [a, b], "weights": [[-1.0], [1.0]],
                             "biases": [0.0, 0.0]}
                            for a, b in (("cat0", "cat1"), ("cat0", "cat2"),
                                         ("cat1", "cat2"))]}


class TestModelDocumentShapes:
    @pytest.mark.parametrize("doc,field", [
        ({**_LINEAR, "categories": 5}, "categories"),
        ({**_LINEAR, "weights": [0.0, 1.0]}, "weights"),
        ({**_LINEAR, "weights": [[0.0]]}, "weights"),
        ({**_LINEAR, "biases": [0.0]}, "biases"),
        ({**_PAIRWISE, "pairs": [[0, 1], [0], [1, 2]]}, "pairs"),
        ({**_PAIRWISE, "pairs": [[0, 1], [2, 2], [1, 2]]}, "pairs"),
        ({**_PAIRWISE, "pairs": [[0, 1], [0, 7], [1, 2]]}, "pairs"),
        ({**_PAIRWISE, "sub_models": _PAIRWISE["sub_models"][:2]}, "sub_models"),
        ({**_PAIRWISE, "pairs": [], "sub_models": []}, "pairs"),
    ], ids=["categories-int", "weights-1d", "weights-rows", "biases-length",
            "pair-one-id", "pair-not-distinct", "pair-out-of-range",
            "sub-model-count", "no-pairs"])
    def test_bad_field_named_without_traceback(self, tmp_path, capsys, doc, field):
        _, _, labels_path, vectors = write_corpus(tmp_path)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        assert run(["eval", "--model", model, "--vectors", vectors,
                    "--labels", labels_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("folkclass: error: ") and err.count("\n") == 1
        assert f"'{field}'" in err and "Traceback" not in err


class TestOneVsOneSubModelsChecked:
    def test_sub_model_rows_not_negations_named(self, tmp_path, capsys):
        _, _, labels_path, vectors = write_corpus(tmp_path)
        subs = [dict(m) for m in _PAIRWISE["sub_models"]]
        subs[1] = {**subs[1], "weights": [[0.0], [1.0]]}
        model = tmp_path / "model.json"
        model.write_text(json.dumps({**_PAIRWISE, "sub_models": subs}))
        assert run(["eval", "--model", model, "--vectors", vectors,
                    "--labels", labels_path]) == 1
        err = capsys.readouterr().err
        assert err == (f"folkclass: error: {model}: one-vs-one sub-model 1 (pair [0, 2]): "
                       "row 0 is not the negation of row 1\n")

    def test_sub_model_biases_not_negations_named(self, tmp_path, capsys):
        _, _, labels_path, vectors = write_corpus(tmp_path)
        subs = [dict(m) for m in _PAIRWISE["sub_models"]]
        subs[2] = {**subs[2], "biases": [0.5, 0.5]}
        model = tmp_path / "model.json"
        model.write_text(json.dumps({**_PAIRWISE, "sub_models": subs}))
        assert run(["eval", "--model", model, "--vectors", vectors,
                    "--labels", labels_path]) == 1
        assert "sub-model 2 (pair [1, 2])" in capsys.readouterr().err

    def test_trained_model_round_trips_through_the_pair_matrix(self, tmp_path):
        _, _, labels_path, vectors = write_corpus(tmp_path)
        model = tmp_path / "m.json"
        assert run(["train", "--vectors", vectors, "--labels", labels_path,
                    "--scheme", "one-vs-one", "--epochs", 5, "--model-out", model]) == 0
        text = model.read_text()
        assert svm.model_to_json(svm.model_from_json(text)) == text


class TestFeatureIdsChecked:
    def test_negative_id_names_line(self, tmp_path, capsys):
        _, _, labels_path, _ = write_corpus(tmp_path)
        vectors = tmp_path / "bad.tsv"
        vectors.write_text("r000\t0:1.0\nr001\t-3:1.0\n")
        assert run(["train", "--vectors", vectors, "--labels", labels_path,
                    "--model-out", tmp_path / "m.json"]) == 1
        err = capsys.readouterr().err
        assert err == f"folkclass: error: {vectors}: line 2: negative feature id -3\n"

    def test_unlabeled_id_outside_training_vocabulary_names_line(self, tmp_path, capsys):
        _, _, labels_path, vectors = write_corpus(tmp_path)
        unlabeled = tmp_path / "unlabeled.tsv"
        unlabeled.write_text("u0\t0:1.0\n\nu2\t99999:1.0\n")
        model = tmp_path / "m.json"
        assert run(["train", "--vectors", vectors, "--labels", labels_path,
                    "--self-train", "--unlabeled-vectors", unlabeled,
                    "--model-out", model]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"folkclass: error: {unlabeled}: line 3: feature id 99999 "
                              "outside dimensionality ") and err.count("\n") == 1
        assert not model.exists()

    @pytest.mark.parametrize("scheme", ["native", "one-vs-one"])
    def test_eval_id_outside_model_names_resource(self, tmp_path, capsys, scheme):
        _, _, labels_path, vectors = write_corpus(tmp_path)
        model = tmp_path / "m.json"
        assert run(["train", "--vectors", vectors, "--labels", labels_path,
                    "--scheme", scheme, "--epochs", 5, "--model-out", model]) == 0
        first, *rest = vectors.read_text().splitlines()
        wide = tmp_path / "wide.tsv"
        wide.write_text("\n".join([first + " 99999:1.0", *rest]) + "\n")
        capsys.readouterr()
        assert run(["eval", "--model", model, "--vectors", wide,
                    "--labels", labels_path]) == 1
        err = capsys.readouterr().err
        resource = first.split("\t")[0]
        assert err.startswith("folkclass: error: ") and err.count("\n") == 1
        assert f"resource {resource!r} has feature id 99999" in err


class TestIgnoredOptionsRejected:
    def test_unlabeled_vectors_need_self_train(self, tmp_path, capsys):
        _, _, labels_path, vectors = write_corpus(tmp_path)
        model = tmp_path / "model.json"
        with pytest.raises(SystemExit) as err:
            run(["train", "--vectors", vectors, "--labels", labels_path,
                 "--unlabeled-vectors", vectors, "--model-out", model])
        assert err.value.code == 2
        assert "--self-train" in capsys.readouterr().err
        assert not model.exists()

    def test_blocked_tags_need_strip_reading_state(self, two_bookmark_file,
                                                   tmp_path, capsys):
        blocked = tmp_path / "blocked.txt"
        blocked.write_text("a\n")
        with pytest.raises(SystemExit) as err:
            run(["ingest", "--bookmarks", two_bookmark_file, "--blocked-tags", blocked])
        assert err.value.code == 2
        assert "--strip-reading-state" in capsys.readouterr().err

    def test_blocked_tags_with_strip_reading_state(self, two_bookmark_file,
                                                   tmp_path, capsys):
        blocked = tmp_path / "blocked.txt"
        blocked.write_text("a\n")
        assert run(["ingest", "--bookmarks", two_bookmark_file,
                    "--strip-reading-state", "--blocked-tags", blocked]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["report"]["distinct_tags"] == 1

    @pytest.mark.parametrize("argv", [["ingest", "--bookmarks", "b.jsonl"],
                                      ["committee", "a.margins", "b.margins"]],
                             ids=["ingest", "committee"])
    def test_global_seed_on_seedless_command(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            run(["--seed", "3", *argv])
        assert err.value.code == 2
        assert f"--seed does not apply to {argv[0]}" in capsys.readouterr().err


def write_sweep_inputs(tmp_path, config):
    f, labels = labeled_corpus(seed=6, n_resources=40)
    bookmarks = tmp_path / "bookmarks.jsonl"
    bookmarks.write_text("".join(bookmark_to_line(b) + "\n" for b in f.bookmarks))
    labels_path = tmp_path / "labels.tsv"
    labels_path.write_text("".join(f"{a.resource}\t{a.top}\n" for a in labels))
    conf = tmp_path / "sweep.conf"
    conf.write_text(format_flat_config(config))
    return ["sweep", "--bookmarks", bookmarks, "--labels", labels_path,
            "--config", conf]


class TestSweepConfigTyposRejected:
    @pytest.mark.parametrize("config,named", [
        ({"mode": "top-k"}, "mode = top-k"),
        ({"k_values": "1,5"}, "k_values = 1,5"),
        ({"mode": "experiment", "k_values": "2"}, "k_values = 2"),
        ({"epochs": "x"}, "epochs = x: invalid literal for int()"),
        ({"penalty": "nan"}, "penalty must be finite and > 0, got nan"),
    ])
    def test_rejected_by_key_and_value(self, tmp_path, capsys, config, named):
        out = tmp_path / "report.json"
        argv = write_sweep_inputs(tmp_path, {"sizes": "9", "runs": "1", **config})
        assert run(argv + ["-o", out]) == 1
        err = capsys.readouterr().err
        assert named in err and "sweep.conf" in err
        assert not out.exists()

    def test_topk_mode_takes_k_values(self, tmp_path):
        out = tmp_path / "report.json"
        argv = write_sweep_inputs(tmp_path, {
            "mode": "topk", "k_values": "5,1", "sizes": "9", "runs": "1",
            "epochs": "5"})
        assert run(argv + ["-o", out]) == 0
        report = json.loads(out.read_text())
        assert report["meta"]["kind"] == "topk-sweep"
        assert report["meta"]["k_values"] == [1, 5]


# Option strings of every subcommand (and the global ones), as in `--help`.
CLI_SURFACE = {
    None: {"-h", "--help", "--seed"},
    "ingest": {"--bookmarks", "--strip-reading-state", "--blocked-tags"},
    "stats": {"--bookmarks", "--strip-reading-state", "--blocked-tags",
              "--novelty", "--allow-synthetic-order"},
    "represent": {"--bookmarks", "--strip-reading-state", "--blocked-tags",
                  "--scheme", "--min-df", "--vocab-out"},
    "weight": {"--bookmarks", "--strip-reading-state", "--blocked-tags",
               "--kind", "--min-df", "--correlate", "--vocab-out"},
    "train": {"--vectors", "--labels", "--level", "--scheme", "--penalty",
              "--epochs", "--self-train", "--unlabeled-vectors", "--model-out",
              "--seed"},
    "eval": {"--model", "--vectors", "--labels", "--level", "--margins-out"},
    "committee": {"--no-normalize"},
    "behavior": {"--bookmarks", "--strip-reading-state", "--blocked-tags",
                 "--measure", "--percent"},
    "gen": {"--regime", "--users", "--resources", "--pool", "--acceptance",
            "--zipf", "--bookmarks-per-user", "--tags-per-bookmark", "--seed"},
    "sweep": {"--bookmarks", "--strip-reading-state", "--blocked-tags",
              "--labels", "--config", "--seed"},
}


class TestCliSurface:
    @pytest.mark.parametrize("command", list(CLI_SURFACE), ids=str)
    def test_help_lists_exactly_the_options(self, command, capsys):
        with pytest.raises(SystemExit) as err:
            run([command, "--help"] if command else ["--help"])
        assert err.value.code == 0
        options = set(re.findall(r"(?<![\w-])(--?[a-z][a-z-]*)", capsys.readouterr().out))
        expected = CLI_SURFACE[command]
        if command:
            expected = expected | {"-h", "--help", "-o", "--output"}
        assert options == expected


class TestDefaultsAreTheLibrarys:
    def test_gen_without_sizing_options(self, tmp_path):
        out = tmp_path / "gen.jsonl"
        assert run(["gen", "--regime", "none", "-o", out]) == 0
        expected = [bookmark_to_line(b)
                    for b in generate_bookmarks(RegimeConfig("none"))]
        assert out.read_text(encoding="utf-8").splitlines() == expected

    def test_train_without_optimizer_options(self, tmp_path):
        _, _, labels_path, vectors = write_corpus(tmp_path)
        model = tmp_path / "model.json"
        assert run(["train", "--vectors", vectors, "--labels", labels_path,
                    "--model-out", model, "-o", tmp_path / "train.json"]) == 0
        fvs = read_vector_lines(vectors.read_text().splitlines())
        label_of = {a.resource: a.top
                    for a in parse_category_lines(labels_path.read_text().splitlines())}
        used = sorted(r for r in fvs if r in label_of)
        categories = sorted({label_of[r] for r in used})
        ds = svm.LabeledDataset(
            [(fvs[r], categories.index(label_of[r])) for r in used], categories,
            max(fv.dim for fv in fvs.values()))
        assert model.read_text() == svm.model_to_json(svm.train(ds, svm.TrainConfig()))

    def test_sweep_with_only_the_sizing_keys(self, tmp_path):
        out = tmp_path / "report.json"
        argv = write_sweep_inputs(tmp_path, {"sizes": "9", "runs": "1", "epochs": "5"})
        assert run(argv + ["-o", out]) == 0
        f, _ = labeled_corpus(seed=6, n_resources=40)
        labels = parse_category_lines((tmp_path / "labels.tsv").read_text().splitlines())
        spec = ExperimentSpec(train=svm.TrainConfig(epochs=5), sizes=(9,), runs=1)
        expected = run_experiment(spec, f, labels)
        assert out.read_text() == json.dumps(expected, indent=2) + "\n"

    def test_global_seed_sets_the_sweep_base_seed(self, tmp_path):
        out = tmp_path / "report.json"
        argv = write_sweep_inputs(tmp_path, {"sizes": "9", "runs": "1", "epochs": "5",
                                             "base_seed": "3"})
        assert run(["--seed", "8"] + argv + ["-o", out]) == 0
        assert json.loads(out.read_text())["meta"]["base_seed"] == 8

    def test_every_training_field_is_settable_from_train_and_sweep(self):
        parser = build_parser()
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction))
        train_dests = {a.dest for a in commands.choices["train"]._actions}
        sweep_fields = {name.removeprefix("train.") for name, _ in SWEEP_KEYS.values()}
        fields = {f.name for f in dataclasses.fields(svm.TrainConfig)}
        assert fields <= train_dests   # seed: the --seed shared with the top level
        assert fields <= sweep_fields | {"seed"} and "base_seed" in SWEEP_KEYS


class TestLineBreaksInsideRecords:
    def test_bookmark_file_with_unicode_line_separators(self, tmp_path, capsys):
        marks = [Bookmark("u1", "r1", ("a\u2028b", "c\u0085d")),
                 Bookmark("u2", "r1", ("a\u2028b", "e\u2029"))]
        path = tmp_path / "bookmarks.jsonl"
        path.write_text("".join(bookmark_to_line(b) + "\n" for b in marks),
                        encoding="utf-8")
        assert run(["ingest", "--bookmarks", path]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report == ingest_bookmarks(marks).report.as_dict()
        assert report["distinct_tags"] == 3


# Runs `folkclass.cli.main` on argv, then reports its exit code, whether
# numpy was loaded, and the folkclass modules that were.
_MAIN_THEN_REPORT_MODULES = """
import json, sys
from folkclass.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, "numpy" in sys.modules,
                  sorted(m for m in sys.modules if m.startswith("folkclass."))]),
      file=sys.stderr)
"""

# The folkclass modules each subcommand's process loads beyond cli, choices
# and errors, and whether it loads numpy: the README's table.
_LOADS = {
    "--help": ((), False),
    "ingest": (("folksonomy",), False),
    "stats": (("folksonomy",), False),
    "behavior": (("folksonomy", "behavior", "vectors"), False),
    "represent": (("folksonomy", "representation", "porter", "vectors", "weighting"), False),
    "weight": (("folksonomy", "representation", "porter", "vectors", "weighting"), False),
    "gen": (("folksonomy", "generator"), True),
    "train": (("labels", "vectors", "svm"), True),
    "eval": (("labels", "vectors", "svm", "committees"), True),
    "committee": (("vectors", "committees"), True),
}


def assert_loads_only_its_modules(argv):
    src = Path(folkclass.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _MAIN_THEN_REPORT_MODULES, *map(str, argv)],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)})
    modules, numpy = _LOADS[argv[0]]
    expected = sorted(f"folkclass.{m}" for m in ("cli", "choices", "errors", *modules))
    assert json.loads(proc.stderr.splitlines()[-1]) == [0, numpy, expected], proc.stderr


class TestNumpyFreeStartup:
    """Each subcommand's process loads only the modules it computes with."""

    @pytest.mark.parametrize("argv", [
        ["ingest"], ["stats", "--novelty", "--allow-synthetic-order"],
        ["behavior", "--measure", "tpp"], ["represent", "--scheme", "weighted-fta"],
        ["weight"], ["--help"],
    ], ids=lambda argv: argv[0])
    def test_counting_subcommands_do_not_import_numpy(self, argv, two_bookmark_file,
                                                      tmp_path):
        if argv != ["--help"]:
            argv = argv + ["--bookmarks", str(two_bookmark_file),
                           "-o", str(tmp_path / "out")]
        assert_loads_only_its_modules(argv)

    @pytest.mark.parametrize("command", ["gen", "train", "eval", "committee"])
    def test_numeric_subcommands_load_only_their_modules(self, command, tmp_path):
        _, _, labels, vectors = write_corpus(tmp_path)
        model, margins = tmp_path / "model.json", tmp_path / "margins.tsv"
        assert run(["train", "--vectors", vectors, "--labels", labels, "--epochs", 2,
                    "--model-out", model, "-o", tmp_path / "train.json"]) == 0
        assert run(["eval", "--model", model, "--vectors", vectors, "--labels", labels,
                    "--margins-out", margins, "-o", tmp_path / "eval.json"]) == 0
        out = ["-o", tmp_path / "out"]
        assert_loads_only_its_modules({
            "gen": ["gen", "--regime", "none", "--users", 5, "--resources", 5, *out],
            "train": ["train", "--vectors", vectors, "--labels", labels, "--epochs", 2,
                      "--model-out", tmp_path / "m2.json", *out],
            "eval": ["eval", "--model", model, "--vectors", vectors, "--labels", labels,
                     "--margins-out", tmp_path / "m2.tsv", *out],
            "committee": ["committee", margins, margins, *out],
        }[command])
