#!/usr/bin/env python3
"""Compare the three tag-suggestion regimes over a seed ensemble.

For each regime and seed, generates a synthetic folksonomy and reports the
mean tag-novelty ratio (ranks beyond the first bookmark), the mean distinct
tags per user, and the mean distinct tags per resource.

Usage:
  python scripts/run_regime_comparison.py --seeds 10
  python scripts/run_regime_comparison.py --acceptance 0.9 --pool 1000
"""

import argparse

from folkclass.folksonomy import corpus_statistics, novelty_ratios
from folkclass.generator import REGIMES, RegimeConfig, generate


def mean_novelty(f):
    values = [ratio for r in f.resource_bookmarks
              for rank, ratio in novelty_ratios(f, r) if rank > 1]
    return sum(values) / len(values) if values else float("nan")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10,
                        help="number of seeds per regime (default: 10)")
    parser.add_argument("--users", type=int, default=100)
    parser.add_argument("--resources", type=int, default=50)
    parser.add_argument("--pool", type=int, default=500)
    parser.add_argument("--acceptance", type=float, default=0.8)
    args = parser.parse_args()

    print(f"{'regime':18s} {'novelty':>9s} {'tags/user':>10s} {'tags/resource':>14s}")
    for regime in REGIMES:
        novelty, user_vocab, resource_vocab = [], [], []
        for seed in range(args.seeds):
            f = generate(RegimeConfig(
                regime=regime, n_users=args.users, n_resources=args.resources,
                bookmarks_per_user=(8, 12), tags_per_bookmark=(2, 5),
                pool_size=args.pool, acceptance=args.acceptance, seed=seed))
            novelty.append(mean_novelty(f))
            means = corpus_statistics(f)["mean_distinct_tags"]
            user_vocab.append(means["per_user"])
            resource_vocab.append(means["per_resource"])
        n = args.seeds
        print(f"{regime:18s} {sum(novelty)/n:9.4f} {sum(user_vocab)/n:10.2f} "
              f"{sum(resource_vocab)/n:14.2f}")


if __name__ == "__main__":
    main()
