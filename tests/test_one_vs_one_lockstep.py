"""One-vs-one's lockstep pass over the pair matrix against the per-pair
trainer it replaced (tests/svm_oracle.py): the model documents are equal byte
for byte, and the derived `.models` view gives the old sub-models.
"""

import json
import tracemalloc
from unittest.mock import patch

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from folkclass import svm
from folkclass.svm import LabeledDataset, TrainConfig, model_to_json, train_one_vs_one
from folkclass.vectors import FeatureVector

from svm_oracle import linear_to_doc, per_pair_document, per_pair_sub_models


@st.composite
def datasets(draw) -> LabeledDataset:
    """2-6 categories of 1-12 instances each, in a drawn order, so pairs have
    different sizes and finish at different steps.  Features are small
    integer counts, where scores land exactly on the hinge, or Gaussian."""
    counts = draw(st.lists(st.integers(1, 12), min_size=2, max_size=6))
    labels = draw(st.permutations([c for c, n in enumerate(counts) for _ in range(n)]))
    d = draw(st.integers(1, 8))
    integer = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    instances = []
    for cid in labels:
        ids = rng.choice(d, int(rng.integers(0, d + 1)), replace=False).tolist()
        values = (rng.integers(1, 4, len(ids)).astype(float) if integer
                  else rng.normal(size=len(ids)))
        instances.append((FeatureVector(dict(zip(ids, values.tolist())), d), cid))
    return LabeledDataset(instances, [f"c{m}" for m in range(len(counts))], d)


configs = st.builds(TrainConfig, penalty=st.sampled_from([1.0, 1 / 30, 0.37, 25.0]),
                    epochs=st.integers(1, 3), seed=st.integers(0, 3),
                    scheme=st.just("one-vs-one"))


@settings(max_examples=200, deadline=None)
@given(datasets(), configs, st.booleans())
def test_lockstep_documents_equal_the_per_pair_trainer(ds, cfg, one_step_blocks):
    with patch.object(svm, "_LOCKSTEP_ENTRIES", 1 if one_step_blocks else
                      svm._LOCKSTEP_ENTRIES):
        model = train_one_vs_one(ds, cfg)
    assert model_to_json(model) == per_pair_document(ds, cfg)
    assert ([json.dumps(linear_to_doc(m)) for m in model.models]
            == [json.dumps(linear_to_doc(m)) for m in per_pair_sub_models(ds, cfg)])


@pytest.mark.parametrize("keep", [range(8), (1, 3), (1, 5, 0)],
                         ids=["k8", "k2", "k3-unbalanced"])
def test_unbalanced_tag_counts_at_one_over_n(keep):
    """Integer counts with C = 1/30 put scores on the hinge up to rounding; 8
    categories of 2-20 instances run 28 pairs over blocks of many steps.  The
    cuts keep some categories: at k = 2 the one pair takes every step in
    `_sgd`, and at k = 3 the longest pair (37 instances, the next 22) takes
    60 of its 148 steps there, resumed where the lockstep stopped."""
    rng = np.random.default_rng(5)
    counts = [2, 20, 5, 11, 3, 17, 8, 13]
    labels = rng.permutation([c for c, n in enumerate(counts) for _ in range(n)]).tolist()
    d = 12
    instances = [(FeatureVector({int(f): float(rng.integers(1, 4))
                                 for f in rng.choice(d, int(rng.integers(1, 6)), replace=False)},
                                d), cid) for cid in labels]
    keep = list(keep)
    ds = LabeledDataset([(fv, keep.index(cid)) for fv, cid in instances if cid in keep],
                        [f"c{m}" for m in keep], d)
    for seed in range(3):
        cfg = TrainConfig(penalty=1 / 30, epochs=4, seed=seed, scheme="one-vs-one")
        assert model_to_json(train_one_vs_one(ds, cfg)) == per_pair_document(ds, cfg)


def test_memory_is_bounded_by_a_block():
    """k = 12, n = 1200, L = 20: each instance sits in 11 pairs, so the pair
    rows hold 13200 * 21 entries, which per-entry arrays built up front
    would keep for the whole pass (about 12 MB).  A block gathers its own,
    so beyond V and U training holds what is O(block) or O(pair rows)."""
    k, n, length, d = 12, 1200, 20, 1000
    rng = np.random.default_rng(0)
    instances = [(FeatureVector(dict(zip(rng.choice(d, length, replace=False).tolist(),
                                         rng.integers(1, 4, length).astype(float).tolist())),
                                d), i % k) for i in range(n)]
    ds = LabeledDataset(instances, [f"c{m}" for m in range(k)], d)
    tracemalloc.start()
    try:
        train_one_vs_one(ds, TrainConfig(epochs=1, scheme="one-vs-one"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    V_and_U = 2 * (k * (k - 1) // 2) * (d + 1) * 8
    assert peak - V_and_U < 4 * 2 ** 20
