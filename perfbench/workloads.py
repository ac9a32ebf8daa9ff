"""The three benchmark workloads: corpus, sweep and cli-pipeline.

Each workload builds its inputs in its constructor (benchmark set-up),
runs its job in `job` (the timed part), verifies the job's outputs in
`check`, and runs and verifies one traced pass in `traced`.  Every call
into folkclass goes through `Tracer.span(layer, metric)`; the package
itself is not touched.  Exact counts of the work done go into `counts`.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import numpy as np

from folkclass import behavior, committees, folksonomy, generator, harness
from folkclass import representation, svm, vectors, weighting

import data
from tracing import Tracer

SCHEMES = ("native", "one-vs-all", "one-vs-one")

CLI_TIMEOUT_S = 120


class Workload:
    counts: dict[str, float]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def traced(self, tr: Tracer, reference) -> float:
        """Run the job traced, check it, and return the traced job's seconds."""
        start = perf_counter()
        out = self.job(tr)
        seconds = perf_counter() - start
        self.check(out, tr)
        return seconds

    def close(self) -> None:
        pass


# --- corpus ---------------------------------------------------------------

class Corpus(Workload):
    """Analytics path with no training: generate, ingest, represent, weight."""

    def __init__(self, root: Path, seed: int, smoke: bool):
        self.cfg = generator.RegimeConfig(
            regime="resource-based",
            n_users=60 if smoke else 300, n_resources=30 if smoke else 150,
            pool_size=200 if smoke else 5000, acceptance=0.8,
            bookmarks_per_user=(8, 12), tags_per_bookmark=(2, 5), seed=seed)
        self.seeds = {"generator": seed, "descriptions": seed + 1}
        # descriptions mix in generator-namespace tags, so text and tags overlap
        rng = np.random.default_rng(seed + 1)
        ids = [f"res{r:05d}" for r in range(self.cfg.n_resources)]
        tags = {r: [f"tag{t:05d}" for t in rng.integers(self.cfg.pool_size, size=2).tolist()]
                for r in ids}
        self.descriptions = data.descriptions(ids, tags, seed + 1)
        self.pipeline = representation.TextPipelineConfig(
            stopwords=data.STOPWORDS, stem=True)
        self.schemes = [representation.RepresentationScheme.parse(s)
                        for s in ("weighted-fta", "ranks-top10")]
        self.kinds = [weighting.InverseFrequencyKind(k) for k in ("irf", "iuf", "ibf")]
        self.counts = {}

    def job(self, tr: Tracer) -> dict:
        with tr.span("generator", "gen_s"):
            marks = generator.generate_bookmarks(self.cfg)
        with tr.span("folksonomy", "serialize_s", len(marks)):
            lines = [folksonomy.bookmark_to_line(b) for b in marks]
        with tr.span("folksonomy", "parse_s"):
            parsed = list(folksonomy.parse_bookmark_lines(lines))
        with tr.span("folksonomy", "ingest_s"):
            f = folksonomy.ingest_bookmarks(parsed)
        with tr.span("folksonomy", "stats_s"):
            folksonomy.corpus_statistics(f)
        resources = sorted(f.resource_tag_weights)
        with tr.span("folksonomy", "novelty_s", len(resources)):
            for r in resources:
                folksonomy.novelty_ratios(f, r)
        with tr.span("vectors", "vocab_s"):
            vocab = representation.tag_vocabulary(f)
        represented = {}
        for scheme in self.schemes:
            with tr.span("representation", "represent_s", len(resources)):
                represented[scheme.name] = {
                    r: representation.represent_resource(f, r, scheme, vocab)
                    for r in resources}
        weighted = {}
        for kind in self.kinds:
            with tr.span("weighting", "weight_s", len(resources)):
                weighted[kind.value] = {
                    r: weighting.weight_resource(f, r, kind, vocab) for r in resources}
        with tr.span("weighting", "correlate_s"):
            weighting.correlate_weightings(f)
        written = {"weighted-fta": represented["weighted-fta"], "tf-irf": weighted["irf"]}
        vector_lines, read_back = {}, {}
        for key, vs in written.items():
            with tr.span("vectors", "write_s", len(vs)):
                vector_lines[key] = list(vectors.write_vector_lines(vs))
            with tr.span("vectors", "read_s"):
                read_back[key] = vectors.read_vector_lines(vector_lines[key], len(vocab))
        with tr.span("behavior", "profiles_s"):
            profiles = behavior.all_profiles(f)
        with tr.span("behavior", "split_s", 2):
            behavior.split_by_assignments(behavior.rank_users(profiles, "tpp"), 50.0, "tpp")
        described = [r for r in resources if r in self.descriptions]
        with tr.span("representation", "text_s", len(described)):
            tokens = [representation.tokenize(self.descriptions[r], self.pipeline)
                      for r in described]
        with tr.span("vectors", "vocab_s"):
            text_vocab = vectors.build_vocabulary(tokens)
        with tr.span("representation", "text_s", len(described)):
            for r in described:
                representation.represent_text(self.descriptions[r], text_vocab, self.pipeline)

        self.counts = {
            "folksonomy.bookmarks": len(marks),
            "generator.assignments": sum(len(b.tags) for b in marks),
            "folksonomy.distinct_tags": f.report.distinct_tags,
            "vectors.vocab_size": len(vocab),
            "vectors.nnz": sum(len(fv) for vs in written.values() for fv in vs.values()),
        }
        return {"marks": marks, "lines": lines, "parsed": parsed, "f": f,
                "written": written, "vector_lines": vector_lines, "read_back": read_back}

    def check(self, out: dict, tr: Tracer) -> float:
        """Recount ingest totals; round-trip bookmark and vector lines.

        Returns the share of records (bookmarks and vectors) reproduced
        exactly, which this workload reports as its `accuracy`.
        """
        marks, parsed, f = out["marks"], out["parsed"], out["f"]
        expected, assignments = _recount(marks)
        tr.check("ingest_totals", lambda: f.report.as_dict() == expected)
        tr.check("ingest_assignments", lambda: assignments == sum(
            sum(w.values()) for w in f.resource_tag_weights.values()))
        exact = sum(1 for a, b, line in zip(marks, parsed, out["lines"])
                    if a == b and folksonomy.bookmark_to_line(b) == line)
        tr.check("bookmark_roundtrip",
                 lambda: exact == len(marks) == len(parsed))
        records = len(marks)
        for key, vs in out["written"].items():
            back = out["read_back"][key]
            rewritten = list(vectors.write_vector_lines(back))
            same = sum(1 for (r, fv), line, new in
                       zip(vs.items(), out["vector_lines"][key], rewritten)
                       if back.get(r) == fv and line == new)
            tr.check(f"vector_roundtrip.{key}", lambda: same == len(vs) == len(back))
            exact += same
            records += len(vs)
        return exact / records


def _recount(marks) -> tuple[dict, int]:
    """Ingest totals and tag assignments, recounted from a raw bookmark list."""
    seen, users, resources, ann_users, ann_resources, tags = (set() for _ in range(6))
    kept = annotated = duplicates = collapsed = assignments = 0
    for b in marks:
        if (b.user, b.resource) in seen:
            duplicates += 1
            continue
        seen.add((b.user, b.resource))
        kept += 1
        users.add(b.user)
        resources.add(b.resource)
        distinct = set(b.tags)
        collapsed += len(b.tags) - len(distinct)
        if distinct:
            annotated += 1
            ann_users.add(b.user)
            ann_resources.add(b.resource)
            tags |= distinct
            assignments += len(distinct)
    totals = {"total_users": len(users), "annotated_users": len(ann_users),
              "total_resources": len(resources),
              "annotated_resources": len(ann_resources),
              "total_bookmarks": kept, "annotated_bookmarks": annotated,
              "distinct_tags": len(tags), "duplicate_pairs_dropped": duplicates,
              "duplicate_tags_collapsed": collapsed}
    return totals, assignments


# --- sweep ----------------------------------------------------------------

def _sample_covering(pool, size, label_of, categories, rng):
    """The harness's covering draw, replayed: same rng calls, same result."""
    for retry in range(100):
        chosen = [pool[i] for i in rng.choice(len(pool), size=size, replace=False)]
        if {label_of[r] for r in chosen} == set(categories):
            return chosen, retry
    raise RuntimeError(f"no size-{size} sample covers every category")


def _sgd_steps(model, ds: svm.LabeledDataset, epochs: int) -> int:
    """Steps = epochs x instances x binary problems, per the model's scheme."""
    counts = ds.category_counts()
    scheme = model.meta["scheme"]
    if scheme == "native":
        return epochs * len(ds)
    if scheme == "one-vs-all":
        return epochs * len(ds) * ds.k
    return epochs * sum(counts[a] + counts[b]
                        for a in range(ds.k) for b in range(a + 1, ds.k))


def _model_floats(model) -> int:
    parts = model.models if isinstance(model, svm.OneVsOneModel) else (model,)
    return sum(m.weights.size + m.biases.size for m in parts)


class Sweep(Workload):
    """The paper's experiment: committee size sweeps under three SVM schemes."""

    def __init__(self, root: Path, seed: int, smoke: bool):
        cfg = data.LabeledCorpusConfig(
            n_resources=120 if smoke else 500, k=3 if smoke else 8,
            n_users=200 if smoke else 500, signal_tags=40,
            noise_pool=500 if smoke else 30000,
            bookmarks_per_resource=(3, 8), tags_per_bookmark=(2, 6),
            p_signal=0.3, p_confuse=0.08, noise_zipf=0.9)
        marks, self.labels = data.labeled_corpus(cfg, seed)
        self.f = folksonomy.ingest_bookmarks(marks)
        members = (representation.RepresentationScheme.parse("weighted-fta"),
                   weighting.InverseFrequencyKind.IRF)
        self.specs = {
            scheme: harness.ExperimentSpec(
                committee=members,
                train=svm.TrainConfig(epochs=2 if smoke else 5, scheme=scheme),
                sizes=(12, 24) if smoke else (60, 240), runs=1, base_seed=seed)
            for scheme in SCHEMES}
        self.seeds = {"corpus": seed, "base_seed": seed}
        self.counts = {}

    def job(self, tr: Tracer) -> dict:
        self.counts = {}
        reports = {}
        for scheme in SCHEMES:
            start = perf_counter()
            with tr.span("harness", f"sweep_s.{scheme}"):
                reports[scheme] = harness.run_experiment(self.specs[scheme], self.f, self.labels)
            self.counts[f"harness.sweep_s.{scheme}"] = perf_counter() - start
        rows = [row for rep in reports.values() for res in rep["results"] for row in res["runs"]]
        self.counts["harness.sample_accept_ratio"] = (
            len(rows) / sum(1 + row["resampled"] for row in rows))
        self.counts["folksonomy.bookmarks"] = len(self.f.bookmarks)
        self.counts["folksonomy.distinct_tags"] = self.f.report.distinct_tags
        self.counts["vectors.vocab_size"] = reports["native"]["data"]["vocabulary_size"]
        return reports

    def check(self, reports: dict, tr: Tracer) -> float:
        """Check each report's shape and arithmetic; return mean run accuracy.

        The bit-for-bit replay of every run is the traced pass's check.
        """
        accuracies = []
        for scheme, report in reports.items():
            spec, counts = self.specs[scheme], report["data"]
            rows = [row for res in report["results"] for row in res["runs"]]
            tr.check(f"report_shape.{scheme}", lambda: [
                (res["size"], len(res["runs"])) for res in report["results"]]
                == [(size, spec.runs) for size in spec.sizes]
                and counts["n_labeled"] == len(self.labels)
                == counts["n_train_pool"] + counts["n_test"])
            tr.check(f"report_accuracy.{scheme}", lambda: all(
                abs(row["accuracy"] * counts["n_test"]
                    - round(row["accuracy"] * counts["n_test"])) < 1e-6
                for row in rows) and all(
                res["mean_accuracy"] == sum(r["accuracy"] for r in res["runs"]) / spec.runs
                for res in report["results"]))
            accuracies += [row["accuracy"] for row in rows]
        return sum(accuracies) / len(accuracies)

    def traced(self, tr: Tracer, reference: dict) -> float:
        """Replay every run through public calls and compare with the reports."""
        start = perf_counter()
        replays = {scheme: self._replay(tr, scheme) for scheme in SCHEMES}
        seconds = perf_counter() - start
        totals = {"svm.margin_evals": 0, "svm.model_floats": 0}
        for scheme, (rows, counts) in replays.items():
            self._compare(tr, scheme, reference[scheme], rows)
            for key in totals:
                totals[key] += counts.pop(key)
            self.counts.update(counts)
        self.counts.update(totals)
        return seconds

    @staticmethod
    def _compare(tr: Tracer, scheme: str, report: dict, rows: list[tuple]) -> None:
        for size, run, accuracy, retries in rows:
            def same():
                res = next(r for r in report["results"] if r["size"] == size)
                row = res["runs"][run]
                return row["accuracy"] == accuracy and row["resampled"] == retries
            tr.check(f"replay_accuracy.{scheme}.{size}.{run}", same)

    def _replay(self, tr: Tracer, scheme: str) -> tuple[list[tuple], dict]:
        """`run_experiment`'s protocol, one public call at a time.

        Returns (size, run, accuracy, resampled) per run, and exact counts.
        """
        spec, f = self.specs[scheme], self.f
        label_of = {a.resource: a.top for a in self.labels}
        pool = sorted(r for r in label_of if r in f.resource_tag_weights)
        categories = sorted({label_of[r] for r in pool})
        cat_id = {c: i for i, c in enumerate(categories)}
        with tr.span("harness", "split_s"):
            train_pool, test_pool = harness.hash_split(pool, spec.test_fraction)
        with tr.span("vectors", "vocab_s"):
            vocab = vectors.build_vocabulary(
                (list(f.resource_tag_weights[r]) for r in train_pool), spec.min_df_fraction)
        fta, kind = spec.committee
        with tr.span("representation", "represent_s", len(pool)):
            by_fta = {r: representation.represent_resource(f, r, fta, vocab) for r in pool}
        with tr.span("weighting", "weight_s", len(pool)):
            by_irf = {r: weighting.weight_resource(f, r, kind, vocab) for r in pool}
        test_ids = [cat_id[label_of[r]] for r in test_pool]
        rows, accuracies = [], []
        steps = margin_evals = floats = 0
        for size in spec.sizes:
            for run in range(spec.runs):
                seed = spec.base_seed + run
                chosen, retries = _sample_covering(
                    train_pool, size, label_of, categories, np.random.default_rng(seed))
                cfg = replace(spec.train, seed=seed)
                tables = []
                for vs in (by_fta, by_irf):
                    with tr.span("svm", "dataset_s"):
                        ds = svm.LabeledDataset(
                            [(vs[r], cat_id[label_of[r]]) for r in chosen],
                            categories, len(vocab))
                    with tr.span("svm", "to_arrays_s"):   # train builds it again
                        ds.to_arrays()
                    with tr.span("svm", f"train_s.{scheme}"):
                        model = svm.train(ds, cfg)
                    with tr.span("svm", "margins_s", len(test_pool)):
                        scores = np.array([model.margins(vs[r]) for r in test_pool])
                    tr.check("margins_finite", lambda: np.isfinite(scores).all())
                    with tr.span("committees", "combine_s"):
                        tables.append(committees.MarginTable(
                            tuple(test_pool), tuple(categories), scores))
                    steps += _sgd_steps(model, ds, cfg.epochs)
                    margin_evals += len(test_pool)
                    floats += _model_floats(model)
                with tr.span("committees", "combine_s"):
                    summed, _ = committees.combine(tables, normalize=True)
                with tr.span("committees", "predict_s"):
                    predicted = committees.predict_committee_batch(summed)
                correct = sum(1 for p, cid in zip(predicted, test_ids) if cat_id[p] == cid)
                rows.append((size, run, correct / len(test_pool), retries))
                accuracies.append(correct / len(test_pool))
        return rows, {
            f"svm.sgd_steps.{scheme}": steps,
            f"svm.accuracy.{scheme}": sum(accuracies) / len(accuracies),
            "svm.margin_evals": margin_evals,
            "svm.model_floats": floats,
            "vectors.nnz": sum(len(by_fta[r]) + len(by_irf[r]) for r in pool),
        }


# --- cli-pipeline ---------------------------------------------------------

def _run_process(argv: list[str], cwd: Path, env: dict, stderr_path: Path,
                 ) -> tuple[int, float]:
    """Run one process to completion; return its exit code and peak RSS in MB."""
    with open(os.devnull, "wb") as out, open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)   # reaped here, not by Popen
    return proc.returncode, usage.ru_maxrss / 1024


def _label_lines(labels: dict[str, str]) -> str:
    return "".join(f"{r}\t{c}\n" for r, c in sorted(labels.items()))


class CliPipeline(Workload):
    """A chain of `python -m folkclass.cli` processes sharing files."""

    def __init__(self, root: Path, seed: int, smoke: bool):
        self.root = root
        self.work = root / ".perfbench" / "work" / f"cli-{seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        inputs = self.work / "inputs"
        inputs.mkdir(parents=True)
        (self.work / "logs").mkdir()
        cfg = data.LabeledCorpusConfig(
            n_resources=60 if smoke else 400, k=3 if smoke else 4,
            n_users=100 if smoke else 400, signal_tags=20,
            noise_pool=300 if smoke else 3000,
            bookmarks_per_resource=(3, 8), tags_per_bookmark=(2, 5),
            p_signal=0.3, p_confuse=0.1)
        marks, labels = data.labeled_corpus(cfg, seed + 1)
        self.labeled = inputs / "labeled.jsonl"
        self.labeled.write_text("".join(
            json.dumps({"user": b.user, "resource": b.resource,
                        "tags": list(b.tags), "order": b.order}) + "\n"
            for b in marks), encoding="utf-8")
        train, self.test_labels = data.stratified_split(
            {a.resource: a.top for a in labels}, 0.4, seed + 2)
        self.train_file, self.test_file = inputs / "train.tsv", inputs / "test.tsv"
        self.train_file.write_text(_label_lines(train), encoding="utf-8")
        self.test_file.write_text(_label_lines(self.test_labels), encoding="utf-8")
        self.gen_args = ["--regime", "resource-based",
                         "--users", "40" if smoke else "400",
                         "--resources", "20" if smoke else "200",
                         "--pool", "100" if smoke else "2000", "--acceptance", "0.5",
                         "--bookmarks-per-user", "5", "10",
                         "--tags-per-bookmark", "1", "5", "--seed", str(seed)]
        self.epochs = "2" if smoke else "10"
        self.seeds = {"gen": seed, "labeled_corpus": seed + 1, "split": seed + 2,
                      "train": seed}
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.corrupt_margins = False
        self.passes = 0
        self.peak_rss = 0.0
        self.counts = {}

    def peak_rss_mb(self) -> float:
        return self.peak_rss

    def _cli(self, tr: Tracer, name: str, args: list) -> None:
        err = self.work / "logs" / f"{name}.err"
        with tr.span("cli", f"{name}_s"):
            code, rss = _run_process([sys.executable, "-m", "folkclass.cli", *map(str, args)],
                                     self.root, self.env, err)
        self.peak_rss = max(self.peak_rss, rss)
        if code != 0:
            message = err.read_text(encoding="utf-8", errors="replace").strip()[-300:]
            tr.fail(f"folkclass {name} exited {code}: {message}")

    def job(self, tr: Tracer) -> Path:
        out = self.work / f"pass{self.passes}"
        self.passes += 1
        out.mkdir()
        gen = out / "gen.jsonl"
        steps = [
            ("gen", ["gen", *self.gen_args, "-o", gen]),
            ("ingest", ["ingest", "--bookmarks", gen, "-o", out / "ingest.json"]),
            ("stats", ["stats", "--bookmarks", gen, "--novelty", "-o", out / "stats.json"]),
            ("behavior", ["behavior", "--bookmarks", gen, "--measure", "tpp",
                          "-o", out / "behavior.json"]),
            ("represent", ["represent", "--bookmarks", self.labeled,
                           "--scheme", "weighted-fta", "-o", out / "fta.vec"]),
            ("weight", ["weight", "--bookmarks", self.labeled, "--kind", "irf",
                        "-o", out / "irf.vec"]),
        ]
        for model, scheme, vec in (("native", "native", "fta"), ("ovo", "one-vs-one", "irf")):
            steps.append(("train", [
                "train", "--vectors", out / f"{vec}.vec", "--labels", self.train_file,
                "--scheme", scheme, "--epochs", self.epochs, "--seed", self.seeds["train"],
                "--model-out", out / f"{model}.model", "-o", out / f"train_{model}.json"]))
        for model, vec in (("native", "fta"), ("ovo", "irf")):
            steps.append(("eval", [
                "eval", "--model", out / f"{model}.model", "--vectors", out / f"{vec}.vec",
                "--labels", self.test_file, "--margins-out", out / f"{model}.margins",
                "-o", out / f"eval_{model}.json"]))
        for name, args in steps:
            self._cli(tr, name, args)
        if self.corrupt_margins:
            (out / "native.margins").write_text("res00000\tcat0:not-a-number\n")
        self._cli(tr, "committee", ["committee", out / "native.margins",
                                    out / "ovo.margins", "-o", out / "committee.json"])
        self.counts = {
            "cli.processes": len(steps) + 1,
            "cli.bytes_written": sum(p.stat().st_size for p in out.iterdir()),
        }
        return out

    def traced(self, tr: Tracer, reference) -> float:
        self._cli(tr, "startup", ["--help"])
        return super().traced(tr, reference)

    def check(self, out: Path, tr: Tracer) -> float:
        """Recompute eval and committee in-process from the same files.

        Returns the committee's accuracy on the test labels.
        """
        for model, vec in (("native", "fta"), ("ovo", "irf")):
            tr.check(f"eval_accuracy.{model}", lambda: self._accuracy(
                tr, out / f"{model}.model", out / f"{vec}.vec")
                == json.loads((out / f"eval_{model}.json").read_text())["accuracy"])
        predictions: list[dict] = []

        def committee_matches():
            with tr.span("committees", "io_s", 2):
                tables = [committees.read_margin_lines(
                    (out / f"{m}.margins").read_text(encoding="utf-8").splitlines())
                    for m in ("native", "ovo")]
            with tr.span("committees", "combine_s"):
                summed, _ = committees.combine(tables, normalize=True)
            with tr.span("committees", "predict_s"):
                expected = committees.predict_committee_batch(summed)
            predictions.extend(json.loads((out / "committee.json").read_text())["predictions"])
            return [(p["instance"], p["category"]) for p in predictions] \
                == list(zip(summed.instances, expected))

        tr.check("committee_predictions", committee_matches)
        shutil.rmtree(out)
        if not predictions:
            return 0.0
        correct = sum(1 for p in predictions if self.test_labels[p["instance"]] == p["category"])
        return correct / len(predictions)

    def _accuracy(self, tr: Tracer, model_path: Path, vector_path: Path) -> float:
        """`folkclass eval`'s accuracy, recomputed from its input files."""
        with tr.span("svm", "model_io_s"):
            model = svm.model_from_json(model_path.read_text(encoding="utf-8"))
        with tr.span("vectors", "read_s"):
            vs = vectors.read_vector_lines(vector_path.read_text(encoding="utf-8").splitlines())
        used = sorted(r for r in vs if r in self.test_labels)
        categories = sorted({self.test_labels[r] for r in used})
        cat_id = {c: i for i, c in enumerate(categories)}
        ds = svm.LabeledDataset([(vs[r], cat_id[self.test_labels[r]]) for r in used],
                                categories, max(fv.dim for fv in vs.values()))
        with tr.span("svm", "margins_s", len(ds)):
            accuracy = svm.evaluate_accuracy(model, ds)
        self.counts["svm.margin_evals"] = self.counts.get("svm.margin_evals", 0) + len(ds)
        return accuracy

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


WORKLOADS = {"corpus": Corpus, "sweep": Sweep, "cli-pipeline": CliPipeline}
