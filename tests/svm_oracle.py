"""Reference margin, predict and training code for svm's oracle tests.

These are the per-instance margin loop, the one-vs-one pair loop and the
dense SGD step that `folkclass.svm` ran before its batched margin pass and
sparse-column update, kept verbatim (as functions over a model instead of
methods), and the per-pair one-vs-one trainer (one sparse SGD pass per pair,
each pair a two-row model [-w, w]) that ran before its lockstep pass over
the pair matrix.  The margin and predict paths and the one-vs-one model
documents must reproduce them byte for byte; training must match the dense
step within the tolerances its tests state.
"""

import json
from itertools import chain

import numpy as np

from folkclass.svm import (MODEL_FORMAT, LabeledDataset, LinearModel, OneVsOneModel,
                           TrainConfig, _check_no_empty_category, _model_meta, _sparse_rows)
from folkclass.vectors import FeatureVector


# --- margins and predictions, one vector at a time ---

def loop_margins(model: LinearModel, fv: FeatureVector) -> np.ndarray:
    out = model.biases.astype(float).copy()
    for fid, w in fv.entries.items():
        if fid < model.weights.shape[1]:
            out += w * model.weights[:, fid]
    return out


def loop_predict(model: LinearModel, fv: FeatureVector) -> int:
    return int(np.argmax(loop_margins(model, fv)))


def _positive_rows(model: OneVsOneModel) -> LinearModel:
    return LinearModel(weights=np.vstack([m.weights[1] for m in model.models]),
                       biases=np.array([m.biases[1] for m in model.models]),
                       categories=tuple(f"{a}:{b}" for a, b in model.pairs))


def loop_pairwise(model: OneVsOneModel, fv: FeatureVector) -> tuple[np.ndarray, np.ndarray]:
    """Signed margin of every pair, and their per-category sums."""
    signed = loop_margins(_positive_rows(model), fv)
    sums = np.zeros(model.k)
    for (a, b), s in zip(model.pairs, signed):
        sums[b] += s
        sums[a] -= s
    return signed, sums


def loop_pairwise_margins(model: OneVsOneModel, fv: FeatureVector) -> np.ndarray:
    return loop_pairwise(model, fv)[1]


def loop_pairwise_predict(model: OneVsOneModel, fv: FeatureVector) -> int:
    signed, sums = loop_pairwise(model, fv)
    winners = [b if s > 0 else a for (a, b), s in zip(model.pairs, signed)]
    votes = np.bincount(winners, minlength=model.k)
    return max(range(model.k), key=lambda c: (votes[c], sums[c], -c))


def stacked_margins(model, fvs) -> np.ndarray:
    """The loop's margins of a batch, stacked to (n, k)."""
    one = loop_margins if isinstance(model, LinearModel) else loop_pairwise_margins
    return np.array([one(model, fv) for fv in fvs]).reshape(len(fvs), model.k)


def looped_predictions(model, fvs) -> list[int]:
    one = loop_predict if isinstance(model, LinearModel) else loop_pairwise_predict
    return [one(model, fv) for fv in fvs]


# --- the dense SGD step ---

def dense_sgd(X: np.ndarray, rows: int, loss_grad, cfg: TrainConfig) -> np.ndarray:
    """Tail-averaged stochastic subgradient descent over a (rows, d+1) matrix W.

    Minimizes 0.5*||W||^2 + C * sum_i loss_i(W x_i).  `loss_grad(i, scores)`
    returns the derivative of instance i's loss with respect to its scores
    W x_i; rows whose derivative is zero only take the regularizer step.
    """
    n, dim = X.shape
    lam = 1.0 / (cfg.penalty * n)
    W = np.zeros((rows, dim))
    W_sum = np.zeros((rows, dim))
    rng = np.random.default_rng(cfg.seed)
    total = cfg.epochs * n
    tail_start = total - (total // 2)   # average the final half of the iterates
    t = 0
    for _ in range(cfg.epochs):
        for i in rng.permutation(n):
            t += 1
            x = X[i]
            g = loss_grad(i, W @ x)
            eta = 1.0 / (lam * t)
            W *= 1.0 - 1.0 / t
            nz = g.nonzero()[0]
            if nz.size:
                W[nz] -= np.outer(eta * g[nz], x)
            if t >= tail_start:
                W_sum += W
    return W_sum / (total - tail_start + 1)


def dense_native_hinge_grad(y: np.ndarray):
    """Score derivative of sum_{m != y_i} max(0, 2 - (s_{y_i} - s_m)) over k rows."""
    def loss_grad(i: int, scores: np.ndarray) -> np.ndarray:
        yi = y[i]
        gaps = 2.0 - (scores[yi] - scores)
        gaps[yi] = 0.0
        g = (gaps > 0.0).astype(float)
        g[yi] = -g.sum()
        return g
    return loss_grad


def dense_binary_hinge_grad(ydec: np.ndarray):
    """Score derivative of max(0, 1 - y_i*s) for one row, with y_i in {-1, +1}."""
    def loss_grad(i: int, scores: np.ndarray) -> np.ndarray:
        yi = ydec[i]
        return -yi * (1.0 - yi * scores > 0.0).astype(float)
    return loss_grad


# --- one-vs-one, one sparse SGD pass per pair ---

def _sgd(rows: list[tuple[np.ndarray, np.ndarray]], dim: int, outputs: int,
         loss_grad, cfg: TrainConfig) -> np.ndarray:
    n = len(rows)
    scale = cfg.penalty * n             # 1 / lambda
    V, U = np.zeros((2, outputs, dim))
    rng = np.random.default_rng(cfg.seed)
    total = cfg.epochs * n
    tail_start = total - (total // 2)   # average the final half of the iterates
    G = np.zeros(total + 1)
    G[tail_start:] = np.cumsum(1.0 / np.arange(tail_start, total + 1))
    order = chain.from_iterable(rng.permutation(n).tolist() for _ in range(cfg.epochs))
    for t, i in enumerate(order, 1):
        cols, vals = rows[i]
        Vc = V.take(cols, axis=1)
        coefs = loss_grad(i, Vc.dot(vals) / (t - 1 or 1))   # V_0 = 0
        for r, g in coefs:
            step = (scale * g) * vals
            V[r][cols] = Vc[r] - step
            if t > tail_start:
                U[r][cols] += G[t - 1] * step
    return (U + G[total] * V) / (total - tail_start + 1)


def _binary_hinge_grad(ydec: np.ndarray):
    """Score derivative of max(0, 1 - y_i*s) for one row, with y_i in {-1, +1}."""
    ys = ydec.tolist()

    def loss_grad(i: int, scores: np.ndarray) -> tuple[tuple[int, float], ...]:
        yi = ys[i]
        return ((0, -yi),) if 1.0 - yi * scores.item() > 0.0 else ()
    return loss_grad


def _linear_model(W: np.ndarray, categories, cfg: TrainConfig, scheme: str) -> LinearModel:
    return LinearModel(weights=W[:, :-1], biases=W[:, -1],
                       categories=tuple(categories), meta=_model_meta(cfg, scheme))


def per_pair_sub_models(dataset: LabeledDataset, cfg: TrainConfig) -> list[LinearModel]:
    """Every pair's model, trained by a pass of its own, w kept as rows [-w, w]."""
    _check_no_empty_category(dataset)
    rows, y = _sparse_rows(dataset)
    pairs = [(a, b) for a in range(dataset.k) for b in range(a + 1, dataset.k)]
    models = []
    for a, b in pairs:
        mask = (y == a) | (y == b)
        w = _sgd([rows[i] for i in np.flatnonzero(mask)], dataset.n_features + 1, 1,
                 _binary_hinge_grad(np.where(y[mask] == b, 1.0, -1.0)), cfg)
        pair = (dataset.categories[a], dataset.categories[b])
        models.append(_linear_model(np.vstack([-w, w]), pair, cfg, "binary"))
    return models


def linear_to_doc(model: LinearModel) -> dict:
    return {"categories": list(model.categories),
            "weights": model.weights.tolist(),
            "biases": model.biases.tolist(),
            "meta": model.meta}


def per_pair_document(dataset: LabeledDataset, cfg: TrainConfig) -> str:
    """The one-vs-one model file the per-pair trainer wrote."""
    k = dataset.k
    return json.dumps({
        "format": MODEL_FORMAT,
        "kind": "one-vs-one",
        "categories": list(dataset.categories),
        "pairs": [[a, b] for a in range(k) for b in range(a + 1, k)],
        "sub_models": [linear_to_doc(m) for m in per_pair_sub_models(dataset, cfg)],
        "meta": _model_meta(cfg, "one-vs-one"),
    })
