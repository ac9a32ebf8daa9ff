import numpy as np
import pytest

from folkclass.folksonomy import Bookmark, ingest_bookmarks
from folkclass.svm import OneVsOneModel
from folkclass.vectors import FeatureVector


def random_bookmarks(rng, n_users=30, n_resources=20, n_bookmarks=200,
                     pool=40, max_tags=6, p_empty=0.1):
    """Random raw bookmark stream; may contain duplicate (user, resource) pairs
    and duplicate tags within a bookmark, so ingestion rules get exercised."""
    marks = []
    for _ in range(n_bookmarks):
        user = f"u{rng.integers(n_users)}"
        resource = f"r{rng.integers(n_resources)}"
        if rng.random() < p_empty:
            tags = ()
        else:
            n_tags = int(rng.integers(1, max_tags + 1))
            tags = tuple(f"t{rng.integers(pool)}" for _ in range(n_tags))
        marks.append(Bookmark(user, resource, tags))
    return marks


def brute_force_frequencies(stream):
    """Independent recount of rf/uf/bf from a raw stream.

    Applies the ingestion rules (first (user, resource) bookmark kept,
    duplicate tags collapsed, unannotated bookmarks ignored) with separate
    set-based bookkeeping.
    """
    seen = set()
    tag_resources, tag_users, tag_bookmarks = {}, {}, {}
    for b in stream:
        if (b.user, b.resource) in seen:
            continue
        seen.add((b.user, b.resource))
        tags = set(b.tags)
        if not tags:
            continue
        for t in tags:
            tag_resources.setdefault(t, set()).add(b.resource)
            tag_users.setdefault(t, set()).add(b.user)
            tag_bookmarks[t] = tag_bookmarks.get(t, 0) + 1
    return {
        t: (len(tag_resources[t]), len(tag_users[t]), tag_bookmarks[t])
        for t in tag_bookmarks
    }


def gaussian_blobs(seed, means, per_class, scale=1.0):
    """Seeded 2-D point clouds, one blob per class, as sparse vectors."""
    rng = np.random.default_rng(seed)
    instances = []
    for cid, mu in enumerate(means):
        for _ in range(per_class):
            x = rng.normal(mu, scale)
            instances.append((FeatureVector({0: float(x[0]), 1: float(x[1])}, 2), cid))
    return instances


def multiclass_perceptron_separable(instances, k, max_epochs=500):
    """Independent linear-separability oracle: multiclass perceptron.

    Returns True iff the perceptron reaches zero training errors within the
    epoch budget, which certifies linear separability.
    """
    d = 2
    W = np.zeros((k, d + 1))
    X = []
    for fv, _ in instances:
        x = np.zeros(d + 1)
        for fid, w in fv.entries.items():
            x[fid] = w
        x[d] = 1.0
        X.append(x)
    y = [cid for _, cid in instances]
    for _ in range(max_epochs):
        errors = 0
        for x, yi in zip(X, y):
            pred = int(np.argmax(W @ x))
            if pred != yi:
                errors += 1
                W[yi] += x
                W[pred] -= x
        if errors == 0:
            return True
    return False


@pytest.fixture
def two_bookmark_folksonomy():
    return ingest_bookmarks([
        Bookmark("u1", "r1", ("a", "b")),
        Bookmark("u2", "r1", ("b",)),
    ])


WEIGHTING_TABLE_COUNTS = {
    "t01": 50, "t02": 30, "t03": 20, "t04": 15, "t05": 10, "t06": 8,
    "t07": 5, "t08": 3, "t09": 2, "t10": 1, "t11": 1, "t12": 1,
}


def weighting_table_folksonomy():
    """Resource annotated by 100 users with top tag counts 50/30/20.

    Tag names sort lexicographically in rank order, so count ties at the
    tail resolve deterministically.  Each tag's count is spread over
    consecutive users (wrapping at 100), which guarantees every user's
    bookmark carries at least one tag.
    """
    user_tags = {f"u{i:03d}": [] for i in range(100)}
    cursor = 0
    for tag, count in WEIGHTING_TABLE_COUNTS.items():
        for _ in range(count):
            user_tags[f"u{cursor % 100:03d}"].append(tag)
            cursor += 1
    marks = [Bookmark(u, "res", tuple(tags)) for u, tags in user_tags.items()]
    f = ingest_bookmarks(marks)
    assert f.resource_annotators["res"] == 100
    assert f.tags_of("res") == WEIGHTING_TABLE_COUNTS
    return f


def constant_one_vs_one(signed, n_features=1):
    """Three-category one-vs-one model whose pairwise margins ignore the input.

    `signed` gives the margin of pairs (0,1), (0,2), (1,2): positive means the
    second category of the pair wins its vote.
    """
    return OneVsOneModel(categories=("cat0", "cat1", "cat2"), pairs=((0, 1), (0, 2), (1, 2)),
                         weights=np.zeros((3, n_features)), biases=np.array(signed, dtype=float))
