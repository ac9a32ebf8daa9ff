"""Reference margin, predict and training code for svm's oracle tests.

These are the per-instance margin loop, the one-vs-one pair loop and the
dense SGD step that `folkclass.svm` ran before its batched margin pass and
sparse-column update, kept verbatim (as functions over a model instead of
methods).  The margin and predict paths must reproduce them byte for byte;
training must match the dense step within the tolerances its tests state.
"""

import numpy as np

from folkclass.svm import LinearModel, OneVsOneModel, TrainConfig
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
