#!/usr/bin/env python3
"""Training-size sweep on a synthetic labeled corpus.

Builds a corpus whose tags carry the category signal plus noise, then runs
the seeded experiment protocol (6 runs per size, fixed hash-split test
partition) for several representations and prints the accuracy table.

Usage:
  python scripts/run_size_sweep.py
  python scripts/run_size_sweep.py --sizes 12 24 48 --runs 6 --epochs 80
"""

import argparse

import numpy as np

from folkclass.folksonomy import Bookmark, ingest_bookmarks
from folkclass.labels import CategoryAssignment
from folkclass.harness import ExperimentSpec, run_experiment
from folkclass.svm import SCHEMES, TrainConfig
from folkclass.weighting import parse_member


def synthetic_labeled_corpus(seed, n_resources, k=4, noise_tags=30):
    rng = np.random.default_rng(seed)
    marks, labels = [], []
    for r in range(n_resources):
        cat = r % k
        resource = f"r{r:04d}"
        labels.append(CategoryAssignment(resource, f"cat{cat}"))
        for _ in range(int(rng.integers(3, 8))):
            user = f"u{rng.integers(120)}"
            tags = [f"sig{cat}_{rng.integers(4)}"]
            while rng.random() < 0.4:
                tags.append(f"noise{rng.integers(noise_tags)}")
            marks.append(Bookmark(user, resource, tuple(tags)))
    return ingest_bookmarks(marks), labels


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--resources", type=int, default=160)
    parser.add_argument("--sizes", type=int, nargs="+", default=[8, 16, 32, 64])
    parser.add_argument("--runs", type=int, default=6)
    parser.add_argument("--epochs", type=int, default=60)
    parser.add_argument("--svm-scheme", choices=list(SCHEMES), default="native")
    args = parser.parse_args()

    f, labels = synthetic_labeled_corpus(args.seed, args.resources)
    members = [parse_member(name) for name in
               ("weighted-fta", "fractions-fta", "ranks-top10", "tf-irf")]
    header = "representation" + "".join(f"{s:>9d}" for s in args.sizes)
    print(header)
    for member in members:
        spec = ExperimentSpec(
            member=member,
            train=TrainConfig(epochs=args.epochs, scheme=args.svm_scheme),
            sizes=tuple(args.sizes), runs=args.runs, base_seed=args.seed)
        report = run_experiment(spec, f, labels)
        name = report["meta"]["member"]
        row = "".join(f"{r['mean_accuracy']:9.3f}" for r in report["results"])
        print(f"{name:14s}{row}")
    print(f"\n(test partition: {report['data']['n_test']} resources, "
          f"{args.runs} runs per size, seeds {args.seed}..{args.seed + args.runs - 1})")


if __name__ == "__main__":
    main()
