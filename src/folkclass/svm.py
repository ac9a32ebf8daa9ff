"""Sparse linear multiclass classification.

Trains linear category separators by stochastic subgradient descent on the
primal hinge objectives, with step size 1/(lambda*t), lambda = 1/(C*l), and
tail iterate averaging.  The bias is realized as a constant appended
feature, so it takes part in the regularizer.  Three multiclass schemes:

* native     -- joint objective 0.5*sum_m ||w_m||^2
                + C * sum_i sum_{m != y_i} max(0, 2 - (s_{y_i} - s_m))
* one-vs-all -- k binary hyperplanes, decision argmax_m (w_m.x + b_m)
* one-vs-one -- k(k-1)/2 pairwise hyperplanes, decision by majority vote,
                ties by summed signed margins, then lowest category id

Native and one-vs-all train their k rows in one `_sgd` pass over a (k, d+1)
weight matrix, each scheme supplying only its hinge derivative with respect
to the row scores.  One-vs-one trains its P = k(k-1)/2 pairs as the rows of
one (P, d+1) pair matrix: a lockstep pass takes step t of every pair that has
one, up to the second-longest pair's last step, and `_sgd` takes the longest
pair's remaining steps (every step at k = 2, so binary training is `_sgd` on
one pair).  Each pair keeps the order, C and tail average it would have
alone: its caller draws every problem's plan from `_schedule` and hands it to
the loops, and `_tail_average` finishes every trainer.  Training reads
instances only as sparse rows, and a step costs what the instance's
non-zeros cost: the weights are kept in the Pegasos scaled form and the tail
average lazily, so no step touches a column the instance does not hold.

A batch of vectors is flattened in one place, `_csr`, into compressed
sparse rows: row offsets, then every entry's column and value in entry
order.  A `LabeledDataset` holds its instances that way, and so does a
scored batch.  Margins are plain float arrays of length k; prediction is
argmax with lowest-id tie-break.  Both come from one batched pass over a
batch of vectors (a single vector is a batch of one), which sums each row
exactly as a loop over the vector's entries would: bias first, then every
entry in entry order.  One-vs-one scores every pair in that same pass, then
sums its signed margins per category in pair order and counts each
category's wins.  Training is deterministic under a fixed seed.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import chain
from operator import itemgetter

import numpy as np

from .choices import SCHEMES
from .vectors import FeatureVector

__all__ = [
    "TrainConfig", "LabeledDataset", "LinearModel", "OneVsOneModel",
    "train", "train_native", "train_binary", "train_one_vs_all",
    "train_one_vs_one", "self_train_2step", "SelfTrainResult",
    "evaluate_accuracy",
    "objective_value", "native_objective", "native_gradient",
    "binary_objective", "binary_gradient",
    "model_to_json", "model_from_json",
]

MODEL_FORMAT = "folkclass-model/1"
MODEL_KINDS = ("linear", "one-vs-one")
_HINGE_EXPONENT = 1   # the only loss is the plain hinge; echoed for format stability
_LOCKSTEP_ENTRIES = 1 << 14      # bound on a one-vs-one lockstep block's gathered entries
_Batch = tuple[np.ndarray, np.ndarray, np.ndarray]   # `_csr`'s starts, cols and vals


class _FeatureOutOfWidth(ValueError):
    """A scored vector holds a feature id at or above the model's width.

    `vector` is its index in the scored batch, so that a caller that knows
    the vectors' names can name the culprit.
    """

    def __init__(self, vector: int, feature: int, width: int):
        super().__init__(f"vector {vector}: feature id {feature} "
                         f"outside the model's {width} features")
        self.vector = vector


@dataclass(frozen=True)
class TrainConfig:
    penalty: float = 1.0       # C
    epochs: int = 100
    seed: int = 0
    scheme: str = "native"

    def __post_init__(self):
        if not (self.penalty > 0 and np.isfinite(self.penalty)):
            raise ValueError(f"penalty must be finite and > 0, got {self.penalty}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")

    def record(self) -> dict:
        """The config as reports echo it: its fields, then the hinge exponent."""
        return {**asdict(self), "hinge_exponent": _HINGE_EXPONENT}


def _csr(fvs: Sequence[FeatureVector]) -> _Batch:
    """A batch of vectors as compressed sparse rows: row i's entries are
    cols[starts[i]:starts[i+1]] and vals[starts[i]:starts[i+1]], in entry order."""
    entries = [fv.entries for fv in fvs]
    starts = np.cumsum(np.fromiter(chain((0,), map(len, entries)), np.intp, len(entries) + 1))
    cols = np.fromiter(chain.from_iterable(entries), np.intp, starts[-1])
    vals = np.fromiter(chain.from_iterable(e.values() for e in entries), float, starts[-1])
    return starts, cols, vals


class LabeledDataset:
    """Instances (sparse vector, category id) over dense ids 0..k-1, also held
    flattened: the vectors as the `_csr` arrays `starts`, `cols` and `vals`,
    the category ids as the array `labels`.  Every other view reads those."""

    def __init__(self, instances: Sequence[tuple[FeatureVector, int]],
                 categories: Sequence[str], n_features: int):
        if len(categories) < 2:
            raise ValueError(f"need at least 2 categories, got {len(categories)}")
        self.instances = list(instances)
        self.categories = list(categories)
        self.n_features = n_features
        self.starts, self.cols, self.vals = _csr(list(map(itemgetter(0), self.instances)))
        self.labels = np.fromiter(map(itemgetter(1), self.instances), np.int64, len(self))
        bad = (self.labels < 0) | (self.labels >= self.k)
        if bad.any():
            raise ValueError(f"category id {self.labels[bad.argmax()]} outside 0..{self.k - 1}")
        if self.cols.size and self.cols.max() >= n_features:   # name the first wide instance
            i = np.searchsorted(self.starts, np.argmax(self.cols >= n_features), "right") - 1
            top = self.cols[self.starts[i]:self.starts[i + 1]].max()
            raise ValueError(f"instance {i}: feature id {top} outside 0..{n_features - 1}")

    def __len__(self) -> int:
        return len(self.instances)

    @property
    def k(self) -> int:
        return len(self.categories)

    def category_counts(self) -> list[int]:
        return np.bincount(self.labels, minlength=self.k).tolist()

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense (n, d+1) matrix with a trailing all-ones bias column, and labels.

        The exact objectives use it; training does not build it."""
        n, d = len(self), self.n_features
        X = np.zeros((n, d + 1))
        X[np.repeat(np.arange(n), np.diff(self.starts)), self.cols] = self.vals
        X[:, d] = 1.0
        return X, self.labels.copy()


class Model:
    """What both model kinds share.  A kind is a frozen dataclass with
    `categories` and a (rows, d) `weights` matrix with its `biases`, and
    supplies `_row_margins` and `_scores`."""

    def __post_init__(self):
        if not (np.isfinite(self.weights).all() and np.isfinite(self.biases).all()):
            raise ValueError("model has non-finite parameters")

    @property
    def k(self) -> int:
        return len(self.categories)

    @property
    def n_features(self) -> int:
        """Width of the feature space; a vector with an id at or above it is an error."""
        return self.weights.shape[1]

    def predict_batch(self, fvs: Sequence[FeatureVector]) -> np.ndarray:
        """Category id of every vector, by the kind's decision rule."""
        return self._scores(_csr(fvs))[1]

    def margins_batch(self, fvs: Sequence[FeatureVector]) -> np.ndarray:
        """Margins of every vector, shape (n, k)."""
        return self._row_margins(_csr(fvs))

    def margins(self, fv: FeatureVector) -> np.ndarray:
        return self.margins_batch([fv])[0]

    def predict(self, fv: FeatureVector) -> int:
        return int(self.predict_batch([fv])[0])


@dataclass(frozen=True)
class LinearModel(Model):
    """Per-category weight vectors and biases; margins are w_m.x + b_m."""

    weights: np.ndarray            # (k, d)
    biases: np.ndarray             # (k,)
    categories: tuple[str, ...]
    meta: dict = field(default_factory=dict)

    def augmented(self) -> np.ndarray:
        """Weights with the bias as a trailing column, the trained parameterization."""
        return np.hstack([self.weights, self.biases[:, None]])

    @cached_property
    def _columns(self) -> np.ndarray:
        """(d, k): each feature's column of weights, contiguous, as float64."""
        return np.ascontiguousarray(self.weights.T, dtype=float)

    def _row_margins(self, batch: _Batch) -> np.ndarray:
        """Margins of every row of a `_csr` batch, shape (n, k): the margin pass.

        Each row is summed strictly left to right: the bias, then
        w * weights[:, fid] for each entry in the vector's entry order.  The
        rows go longest first, so pass j adds every row's j-th term to a
        prefix of them; a row whose entries have run out is left alone.
        """
        starts, cols, vals = batch
        if cols.size and cols.max() >= self.n_features:
            at = np.argmax(cols >= self.n_features)
            raise _FeatureOutOfWidth(int(np.searchsorted(starts, at, "right") - 1), cols[at],
                                     self.n_features)
        lengths = np.diff(starts)
        order = np.argsort(-lengths, kind="stable")
        heads = starts[:-1][order]
        longer = len(lengths) - np.cumsum(np.bincount(lengths))    # rows with a (j+1)-th entry
        sums = np.tile(self.biases.astype(float), (len(lengths), 1))
        for j, m in enumerate(longer[:-1].tolist()):
            at = heads[:m] + j
            sums[:m] += self._columns[cols[at]] * vals[at, None]
        return sums[np.argsort(order)]

    def _scores(self, batch: _Batch) -> tuple[np.ndarray, np.ndarray]:
        """The margins of a `_csr` batch, and the argmax margin of every row
        (lowest id on ties), from one margin pass."""
        margins = self._row_margins(batch)
        return margins, np.argmax(margins, axis=1)


@dataclass(frozen=True)
class OneVsOneModel(Model):
    """Pairwise hyperplanes as one pair matrix; predicts the category with
    most pairwise wins.

    Row p of `weights` and `biases` is pair p = (a, b)'s hyperplane w, whose
    signed margin s = w.x + b is positive where b wins the pair and negative
    where a does.  A category's margin is the sum of its pairs' signed
    margins, added pair by pair in pair order as `sums[b] += s; sums[a] -= s`.
    """

    categories: tuple[str, ...]
    pairs: tuple[tuple[int, int], ...]
    weights: np.ndarray            # (P, d)
    biases: np.ndarray             # (P,)
    meta: dict = field(default_factory=dict)

    @cached_property
    def _pair_rows(self) -> LinearModel:
        """The pair matrix, uncopied, as a P-row model: one pass scores all pairs."""
        return LinearModel(weights=self.weights, biases=self.biases,
                           categories=tuple(f"{a}:{b}" for a, b in self.pairs))

    @property
    def models(self) -> tuple[LinearModel, ...]:
        """Each pair as a two-row binary model [-w, w] over its two categories,
        derived from the pair matrix: the sub-models model files hold."""
        meta = {**self.meta, "scheme": "binary"}
        return tuple(LinearModel(weights=np.vstack([-w, w]), biases=np.array([-bias, bias]),
                                 categories=(self.categories[a], self.categories[b]),
                                 meta=meta)
                     for (a, b), w, bias in zip(self.pairs, self.weights, self.biases))

    def _row_margins(self, batch: _Batch) -> np.ndarray:
        """Per-category summed signed margins over all pairs, (n, k)."""
        return self._tally(self._pair_rows._row_margins(batch))

    def _tally(self, signed: np.ndarray) -> np.ndarray:
        """Per-category sums of (n, P) signed margins, pair by pair in pair order."""
        sums = np.zeros((len(signed), self.k))
        for (a, b), s in zip(self.pairs, signed.T):
            sums[:, b] += s
            sums[:, a] -= s
        return sums

    def _scores(self, batch: _Batch) -> tuple[np.ndarray, np.ndarray]:
        """The margins of a `_csr` batch, and every row's most pairwise wins (b
        wins pair (a, b) where its signed margin is > 0, else a), ties by summed
        signed margins, then lowest id, from one pass over the pairs."""
        signed = self._pair_rows._row_margins(batch)
        sums = self._tally(signed)
        n = len(signed)
        first, second = np.array(self.pairs, dtype=np.intp).T
        winners = np.where(signed > 0.0, second, first) + self.k * np.arange(n)[:, None]
        votes = np.bincount(winners.ravel(), minlength=n * self.k).reshape(n, self.k)
        best = votes == votes.max(axis=1, keepdims=True)
        best &= sums == np.where(best, sums, -np.inf).max(axis=1, keepdims=True)
        return sums, np.argmax(best, axis=1)


def _check_no_empty_category(dataset: LabeledDataset) -> None:
    for cid, count in enumerate(dataset.category_counts()):
        if count == 0:
            raise ValueError(
                f"category {dataset.categories[cid]!r} has no training instances")


def _biased(dataset: LabeledDataset) -> tuple[_Batch, list[tuple[np.ndarray, np.ndarray]]]:
    """The dataset's rows, bias column d (value 1) last: as one `_csr` batch and as views of it."""
    ends = dataset.starts[1:]
    starts = dataset.starts + np.arange(len(dataset) + 1)
    cols = np.insert(dataset.cols, ends, dataset.n_features)
    vals = np.insert(dataset.vals, ends, 1.0)
    bounds = starts.tolist()
    return (starts, cols, vals), [(cols[lo:hi], vals[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _sparse_rows(dataset: LabeledDataset) -> tuple[list[tuple[np.ndarray, np.ndarray]],
                                                   np.ndarray]:
    """Per instance, its non-zero columns (bias column d last) and values; and the labels."""
    return _biased(dataset)[1], dataset.labels


def _schedule(n: int, cfg: TrainConfig) -> tuple[np.ndarray, int, np.ndarray]:
    """The step schedule of a problem over n instances.

    Returns the instance of each step t = 1..epochs*n (a fresh permutation
    from `default_rng(cfg.seed)` per epoch), the step `tail` whose iterate
    starts the tail average, and G with G[t] = 1/tail + ... + 1/t from the
    tail on and 0 before it.
    """
    rng = np.random.default_rng(cfg.seed)
    order = np.concatenate([rng.permutation(n) for _ in range(cfg.epochs)])
    total = len(order)
    tail = total - (total // 2)   # average the final half of the iterates
    G = np.zeros(total + 1)
    G[tail:] = np.cumsum(1.0 / np.arange(tail, total + 1))
    return order, tail, G


def _sgd(rows: list[tuple[np.ndarray, np.ndarray]], plan: tuple[np.ndarray, int, np.ndarray],
         loss_grad, cfg: TrainConfig, V: np.ndarray, U: np.ndarray, first: int = 0) -> None:
    """Steps first+1..end of tail-averaged stochastic subgradient descent over
    an (outputs, dim) matrix W, on V and U in place.

    Minimizes 0.5*||W||^2 + C * sum_i loss_i(W x_i), x_i holding `rows[i]`'s
    values at its columns and zero elsewhere, in the steps of `plan`, the
    `_schedule` of len(rows) instances.  `loss_grad(i, scores)` returns the
    non-zero entries of the derivative of instance i's loss with respect to
    its scores W x_i, as (row, value) pairs.  V and U hold the state after
    step `first`: zeros to start, or what another loop left.  `_tail_average`
    turns them into W.

    A step costs what x_i's non-zeros cost.  The shrink is exact in the
    scaled form W_t = V_t / t (Pegasos): V_t = V_{t-1} - (C*n)*g*x_i.  The
    tail average is lazy (averaged SGD): with G from `_schedule`, U + G[t]*V
    stays sum_{tail <= s <= t} V_s/s when each change D to V at step t also
    adds -G[t-1]*D to U.
    """
    scale = cfg.penalty * len(rows)     # 1 / lambda
    order, tail, G = plan
    for t, i in enumerate(order[first:].tolist(), first + 1):
        cols, vals = rows[i]
        Vc = V.take(cols, axis=1)
        coefs = loss_grad(i, Vc.dot(vals) / (t - 1 or 1))   # V_0 = 0
        for r, g in coefs:
            step = (scale * g) * vals
            V[r][cols] = Vc[r] - step
            if t > tail:
                U[r][cols] += G[t - 1] * step


def _tail_average(V: np.ndarray, U: np.ndarray,
                  plans: Sequence[tuple[np.ndarray, int, np.ndarray]]) -> np.ndarray:
    """W from `_sgd`'s V and U, row r trained on plans[r]: (U + G[-1]*V) / (end -
    tail + 1), computed in V."""
    V *= np.array([G[-1] for _, _, G in plans])[:, None]
    V += U
    V /= np.array([len(order) - tail + 1 for order, tail, _ in plans])[:, None]
    return V


def _train_pairs(batch: _Batch, rows: list[tuple[np.ndarray, np.ndarray]], y: np.ndarray,
                 pairs: Sequence[tuple[int, int]], dim: int, cfg: TrainConfig) -> np.ndarray:
    """Every pair's binary problem, trained into one row of a (P, dim) matrix.

    Pair (a, b) minimizes 0.5*||w||^2 + C * sum_i max(0, 1 - y_i w.x_i) over
    the n_p instances of a and b, y_i = +1 for b, and takes exactly the steps
    `_sgd` takes on them alone: its `_schedule(n_p)`, 1/lambda = C*n_p and a
    step only where the hinge is violated.  Only the loop order across pairs
    changes.  Up to the last step of the second-longest pair, step t is one
    lockstep: every pair with a t-th step takes it, in one gather, score and
    update over the concatenated columns of those pairs' instances.  The
    longest pair's steps after that (every step when k = 2) are `_sgd`'s,
    resumed at the step the lockstep reached.  The lockstep's entry arrays
    are built in blocks of steps of at most about `_LOCKSTEP_ENTRIES` entries.

    The lockstep sums a pair's score in another order than `_sgd`'s dot
    product, so the two sums can differ in their last bits.  Only the hinge
    test reads the score, and a score whose distance from the hinge is
    within a bound on both sums' rounding is rescored by that dot product.
    So every step is `_sgd`'s, and the weights are the same byte for byte.
    """
    P = len(pairs)
    members = [np.flatnonzero((y == a) | (y == b)) for a, b in pairs]
    signs = [np.where(y[m] == b, 1.0, -1.0) for m, (_, b) in zip(members, pairs)]
    schedules = {n: _schedule(n, cfg) for n in {len(m) for m in members}}
    plans = [schedules[len(m)] for m in members]            # (order, tail, G) per pair
    totals = [len(order) for order, _, _ in plans]
    V, U = np.zeros((2, P, dim))
    longest = max(range(P), key=totals.__getitem__)
    shared = max((n for p, n in enumerate(totals) if p != longest), default=0)
    if shared:
        scale = cfg.penalty * np.array([len(m) for m in members], dtype=float)
        _lockstep(batch, rows, members, signs, plans, scale, shared, V, U)
    _sgd([rows[i] for i in members[longest]], plans[longest], _pair_hinge_grad(signs[longest]),
         cfg, V[longest:longest + 1], U[longest:longest + 1], first=shared)
    return _tail_average(V, U, plans)


def _lockstep(batch: _Batch, rows: list[tuple[np.ndarray, np.ndarray]], members: list[np.ndarray],
              signs: list[np.ndarray], plans: list[tuple[np.ndarray, int, np.ndarray]],
              scale: np.ndarray, steps: int, V: np.ndarray, U: np.ndarray) -> None:
    """Steps 1..`steps` of `_train_pairs`: in step t, every pair with a t-th step.

    A pair row is one pair's member instance; its entries are the instance's
    non-zeros, each with its flat index into V (row p, the entry's column),
    its value times y, and `_sgd`'s step on it, (C*n_p*g) * x with g = -y.
    A slot is one pair's step on one pair row.  A block of steps lays its
    slots' entries out step by step, so a step gathers its V entries at once,
    sums each slot's signed score and writes the steps of the violated slots.
    U is only read at the end, so a block adds its tail steps' G[t-1] * step
    to U after its last step, each element's terms in step order.

    A rescore bound: a sum of L products V_j x_j, in any order, is within
    2u * L * sum_j |V_j x_j| of the exact sum (u = eps/2), so two sums are
    within twice that, and |V_j| <= (t-1) * C*n_p * max|x|.  A score whose
    distance from the hinge exceeds 4u * ((L+2) * (t-1) * C*n_p * max|x| *
    sum|x| + (t-1)) decides the hinge test as any other sum would.
    """
    P, dim = V.shape
    offsets, all_cols, all_vals = batch    # `rows` are its rows
    lengths = np.diff(offsets)
    # the pair rows, pair by pair, and their entries
    row_inst = np.concatenate(members)
    row_pair = np.repeat(np.arange(P), [len(m) for m in members])
    row_sign = np.concatenate(signs)
    row_len = lengths[row_inst]
    row_entries = np.concatenate([[0], np.cumsum(row_len)])
    source = np.arange(row_entries[-1]) + np.repeat(offsets[row_inst] - row_entries[:-1],
                                                    row_len)
    pair_flat = np.repeat(row_pair * dim, row_len) + all_cols[source]
    pair_signed = np.repeat(row_sign, row_len) * all_vals[source]
    pair_step = np.repeat(scale[row_pair] * -row_sign, row_len) * all_vals[source]
    del source
    # per pair row, the rescore bound's 4u * (L+2) * C*n_p * max|x| * sum|x|
    row_bound = (2 * np.finfo(float).eps * (row_len + 2) * np.abs(all_vals).max()
                 * np.add.reduceat(np.abs(all_vals), offsets[:-1])[row_inst]
                 * scale[row_pair])
    first_row = np.concatenate([[0], np.cumsum([len(m) for m in members])])
    Vflat, Uflat = V.reshape(-1), U.reshape(-1)
    block = max(1, _LOCKSTEP_ENTRIES // (P * int(lengths.mean() + 1)))
    for t0 in range(1, steps + 1, block):
        B = min(block, steps + 1 - t0)
        table = np.full((B, P), -1)
        gain = np.zeros((B, P))
        for p, (order, _, G) in enumerate(plans):
            local = order[t0 - 1:t0 - 1 + B]
            table[:len(local), p] = first_row[p] + local
            gain[:len(local), p] = G[t0 - 1:t0 - 1 + len(local)]
        # slots in step-major order, then their entries
        live = np.flatnonzero(table >= 0)
        slot_row, slot_step = table.flat[live], live // P
        slot_bounds = np.searchsorted(slot_step, np.arange(B + 1))
        slot_len = row_len[slot_row]
        prior = np.arange(t0 - 1, t0 - 1 + B)                          # t - 1
        step_tol = (2 * np.finfo(float).eps * np.maximum(prior, 1) + prior
                    * np.maximum.reduceat(row_bound[slot_row], slot_bounds[:-1])).tolist()
        slot_entries = np.concatenate([[0], np.cumsum(slot_len)])
        at = np.arange(slot_entries[-1]) + np.repeat(
            row_entries[slot_row] - slot_entries[:-1], slot_len)
        flat, signed, step = pair_flat[at], pair_signed[at], pair_step[at]
        seg = np.repeat(np.arange(len(live)) - slot_bounds[slot_step], slot_len)
        first = slot_entries[:-1] - slot_entries[slot_bounds[slot_step]]   # within its step
        taken = np.zeros(len(at), dtype=bool)
        step_bounds = slot_entries[slot_bounds].tolist()
        slot_bounds = slot_bounds.tolist()
        for t, s0, s1, e0, e1, tol in zip(range(t0, t0 + B), slot_bounds, slot_bounds[1:],
                                          step_bounds, step_bounds[1:], step_tol):
            den = t - 1 or 1                                          # V_0 = 0
            cols = flat[e0:e1]
            Vc = Vflat.take(cols)
            gap = np.add.reduceat(Vc * signed[e0:e1], first[s0:s1]) - den   # y*V.x - (t-1)
            violated = gap < 0.0
            dist = np.abs(gap)
            if np.minimum.reduce(dist) <= tol:
                for s in (dist <= tol).nonzero()[0].tolist():
                    r = slot_row[s0 + s]
                    icols, ivals = rows[row_inst[r]]
                    p = row_pair[r]
                    score = (V[p:p + 1].take(icols, axis=1).dot(ivals) / den).item()
                    violated[s] = 1.0 - row_sign[r] * score > 0.0
            on = taken[e0:e1] = violated.take(seg[e0:e1])
            Vflat[cols] = Vc - step[e0:e1] * on
        G_before = np.repeat(gain.flat[live], slot_len)               # G[t-1]
        taken &= G_before > 0.0
        np.add.at(Uflat, flat[taken], G_before[taken] * step[taken])


def _native_hinge_grad(y: np.ndarray):
    """Score derivative of sum_{m != y_i} max(0, 2 - (s_{y_i} - s_m)) over k rows."""
    ys = y.tolist()

    def loss_grad(i: int, scores: np.ndarray) -> list[tuple[int, float]]:
        yi, s = ys[i], scores.tolist()
        violated = [(m, 1.0) for m, sm in enumerate(s)
                    if m != yi and 2.0 - (s[yi] - sm) > 0.0]
        return [(yi, -float(len(violated))), *violated] if violated else []
    return loss_grad


def _one_vs_all_hinge_grad(y: np.ndarray, k: int):
    """Score derivative of sum_m max(0, 1 - y_im*s_m), y_im = 1 if m == y_i else -1."""
    signs = np.where(y[:, None] == np.arange(k), 1.0, -1.0).tolist()

    def loss_grad(i: int, scores: np.ndarray) -> list[tuple[int, float]]:
        return [(m, -ym) for m, (ym, s) in enumerate(zip(signs[i], scores.tolist()))
                if 1.0 - ym * s > 0.0]
    return loss_grad


def _pair_hinge_grad(signs: np.ndarray):
    """Score derivative of max(0, 1 - y_i*s) on one row, y_i = signs[i] in {-1, +1}."""
    ys = signs.tolist()

    def loss_grad(i: int, scores: np.ndarray) -> tuple[tuple[int, float], ...]:
        yi = ys[i]
        return ((0, -yi),) if 1.0 - yi * scores.item() > 0.0 else ()
    return loss_grad


def _model_meta(cfg: TrainConfig, scheme: str) -> dict:
    return {"scheme": scheme, "penalty": cfg.penalty, "epochs": cfg.epochs,
            "seed": cfg.seed, "hinge_exponent": _HINGE_EXPONENT}


def _train_linear(dataset: LabeledDataset, cfg: TrainConfig, scheme: str,
                  hinge_grad) -> LinearModel:
    """One `_sgd` pass over all instances into k rows, the loss `hinge_grad(y)`'s."""
    _check_no_empty_category(dataset)
    rows, y = _sparse_rows(dataset)
    plan = _schedule(len(rows), cfg)
    V, U = np.zeros((2, dataset.k, dataset.n_features + 1))
    _sgd(rows, plan, hinge_grad(y), cfg, V, U)
    W = _tail_average(V, U, [plan] * dataset.k)
    return LinearModel(weights=W[:, :-1], biases=W[:, -1],
                       categories=tuple(dataset.categories), meta=_model_meta(cfg, scheme))


def train_native(dataset: LabeledDataset, cfg: TrainConfig) -> LinearModel:
    """Joint multiclass training over all k categories at once."""
    return _train_linear(dataset, cfg, "native", _native_hinge_grad)


def train_binary(dataset: LabeledDataset, cfg: TrainConfig) -> LinearModel:
    """Single-hyperplane training, category id 1 positive: one-vs-one's only pair."""
    if dataset.k != 2:
        raise ValueError(f"binary training needs exactly 2 categories, got {dataset.k}")
    return train_one_vs_one(dataset, cfg).models[0]


def train_one_vs_all(dataset: LabeledDataset, cfg: TrainConfig) -> LinearModel:
    """k binary problems (category m against the rest) trained in one k-row pass,
    since they share instances, C and the seeded order; decision by argmax margin."""
    return _train_linear(dataset, cfg, "one-vs-all",
                         lambda y: _one_vs_all_hinge_grad(y, dataset.k))


def train_one_vs_one(dataset: LabeledDataset, cfg: TrainConfig) -> OneVsOneModel:
    """k(k-1)/2 pairwise problems on pair-restricted instances, trained in one
    lockstep pass into the rows of one pair matrix."""
    _check_no_empty_category(dataset)
    pairs = tuple((a, b) for a in range(dataset.k) for b in range(a + 1, dataset.k))
    W = _train_pairs(*_biased(dataset), dataset.labels, pairs, dataset.n_features + 1, cfg)
    return OneVsOneModel(categories=tuple(dataset.categories), pairs=pairs,
                         weights=W[:, :-1], biases=W[:, -1],
                         meta=_model_meta(cfg, "one-vs-one"))


def train(dataset: LabeledDataset, cfg: TrainConfig) -> Model:
    if cfg.scheme == "native":
        return train_native(dataset, cfg)
    if cfg.scheme == "one-vs-all":
        return train_one_vs_all(dataset, cfg)
    return train_one_vs_one(dataset, cfg)


@dataclass(frozen=True)
class SelfTrainResult:
    model: Model
    pseudo_label_counts: dict[str, int]


def self_train_2step(labeled: LabeledDataset,
                     unlabeled: Sequence[FeatureVector],
                     cfg: TrainConfig) -> SelfTrainResult:
    """Two-step semi-supervised training.

    Step 1 trains on the labeled set, step 2 labels every unlabeled vector
    with that model's predictions, step 3 retrains the same scheme on the
    union.  With no unlabeled data the returned model is the supervised one.
    """
    first = train(labeled, cfg)
    pseudo = first.predict_batch(unlabeled)
    counts = dict(zip(labeled.categories, np.bincount(pseudo, minlength=labeled.k).tolist()))
    union = LabeledDataset(labeled.instances + list(zip(unlabeled, pseudo.tolist())),
                           labeled.categories, labeled.n_features)
    final = train(union, cfg)
    return SelfTrainResult(model=final, pseudo_label_counts=counts)


def evaluate_accuracy(model: Model, test: LabeledDataset) -> float:
    """Fraction of correct predictions; every instance weighs the same."""
    return _evaluate(model, test)[0]


def _evaluate(model: Model, test: LabeledDataset) -> tuple[float, np.ndarray]:
    """Accuracy and the (n, k) margins of the test set, from one scoring pass."""
    if len(test) == 0:
        raise ValueError("empty test set")
    margins, predicted = model._scores((test.starts, test.cols, test.vals))
    return int(np.count_nonzero(predicted == test.labels)) / len(test), margins


# --- exact primal objectives and their (sub)gradients, on augmented arrays ---

def native_objective(W: np.ndarray, X: np.ndarray, y: np.ndarray,
                     C: float) -> float:
    """0.5*||W||^2 + C * sum_i sum_{m != y_i} max(0, 2 - (s_{y_i} - s_m))."""
    scores = X @ W.T
    idx = np.arange(len(y))
    gaps = 2.0 - (scores[idx, y][:, None] - scores)
    gaps[idx, y] = 0.0
    hinge = np.maximum(gaps, 0.0)
    return 0.5 * float((W * W).sum()) + C * float(hinge.sum())


def native_gradient(W: np.ndarray, X: np.ndarray, y: np.ndarray,
                    C: float) -> np.ndarray:
    """Gradient of native_objective; a subgradient at hinge kinks."""
    scores = X @ W.T
    idx = np.arange(len(y))
    gaps = 2.0 - (scores[idx, y][:, None] - scores)
    gaps[idx, y] = 0.0
    coef = (gaps > 0.0).astype(float)        # (n, k)
    G = coef.T @ X                           # rows m: sum_i coef_im x_i
    onehot = np.zeros_like(coef)
    onehot[idx, y] = coef.sum(axis=1)
    G -= onehot.T @ X                        # rows y_i: -sum_m coef_im x_i
    return W + C * G


def binary_objective(w: np.ndarray, X: np.ndarray, ydec: np.ndarray,
                     C: float) -> float:
    """0.5*||w||^2 + C * sum_i max(0, 1 - y_i w.x_i) with y in {-1, +1}."""
    hinge = np.maximum(0.0, 1.0 - ydec * (X @ w))
    return 0.5 * float(w @ w) + C * float(hinge.sum())


def binary_gradient(w: np.ndarray, X: np.ndarray, ydec: np.ndarray,
                    C: float) -> np.ndarray:
    gaps = 1.0 - ydec * (X @ w)
    coef = (gaps > 0.0).astype(float)
    return w - C * ((coef * ydec) @ X)


def objective_value(model: Model, dataset: LabeledDataset, cfg: TrainConfig) -> float:
    """Exact primal objective of the configured scheme at the model's weights.

    The bias column is part of the weight vector (appended-feature
    parameterization), so it is included in the regularizer.
    """
    X, y = dataset.to_arrays()
    C = cfg.penalty
    if cfg.scheme != "one-vs-one" and not isinstance(model, LinearModel):
        raise TypeError(f"{cfg.scheme} objective needs a LinearModel")
    if cfg.scheme == "native":
        return native_objective(model.augmented(), X, y, C)
    if cfg.scheme == "one-vs-all":
        total = 0.0
        for m in range(model.k):
            ydec = np.where(y == m, 1.0, -1.0)
            total += binary_objective(model.augmented()[m], X, ydec, C)
        return total
    if not isinstance(model, OneVsOneModel):
        raise TypeError("one-vs-one objective needs a OneVsOneModel")
    total = 0.0
    for (a, b), w in zip(model.pairs, np.hstack([model.weights, model.biases[:, None]])):
        mask = (y == a) | (y == b)
        ydec = np.where(y[mask] == b, 1.0, -1.0)
        total += binary_objective(w, X[mask], ydec, C)
    return total


# --- serialization ---

def _linear_to_doc(model: LinearModel) -> dict:
    return {"categories": list(model.categories),
            "weights": model.weights.tolist(),
            "biases": model.biases.tolist(),
            "meta": model.meta}


def _require_keys(doc, keys: Sequence[str], what: str) -> None:
    """Raise ValueError unless `doc` is a JSON object holding every key."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} is not a JSON object")
    missing = [repr(key) for key in keys if key not in doc]
    if missing:
        raise ValueError(f"{what} has no {', '.join(missing)}")


def _categories_from_doc(doc: dict, what: str) -> tuple[str, ...]:
    categories = doc["categories"]
    if not (isinstance(categories, list) and all(isinstance(c, str) for c in categories)):
        raise ValueError(f"{what} 'categories' is not a list of strings")
    return tuple(categories)


def _floats_from_doc(doc: dict, key: str, ndim: int, rows: int, shape: str) -> np.ndarray:
    """`doc[key]` as a float array of `ndim` dimensions and `rows` rows."""
    try:
        values = np.array(doc[key], dtype=float)
    except (TypeError, ValueError):
        values = None
    if values is None or values.ndim != ndim or len(values) != rows:
        raise ValueError(f"linear model {key!r} is not {shape}")
    return values


def _linear_from_doc(doc: dict) -> LinearModel:
    _require_keys(doc, ("weights", "biases", "categories"), "linear model")
    categories = _categories_from_doc(doc, "linear model")
    k = len(categories)
    weights = _floats_from_doc(doc, "weights", 2, k, f"a 2-D list of {k} rows")
    biases = _floats_from_doc(doc, "biases", 1, k, f"a list of {k} numbers")
    return LinearModel(weights=weights, biases=biases, categories=categories,
                       meta=doc.get("meta", {}))


def _one_vs_one_from_doc(doc: dict) -> OneVsOneModel:
    _require_keys(doc, ("categories", "pairs", "sub_models"), "one-vs-one model")
    categories = _categories_from_doc(doc, "one-vs-one model")
    pairs, sub_docs = doc["pairs"], doc["sub_models"]
    if not (isinstance(pairs, list) and pairs):
        raise ValueError("one-vs-one model 'pairs' is not a list of one or more pairs")
    seen: dict[frozenset[int], int] = {}
    for i, pair in enumerate(pairs):
        if not (isinstance(pair, list) and len(pair) == 2 and pair[0] != pair[1]
                and all(type(c) is int and 0 <= c < len(categories) for c in pair)):
            raise ValueError(f"one-vs-one model 'pairs' entry {pair!r} is not two "
                             f"distinct ids in 0..{len(categories) - 1}")
        first = seen.setdefault(frozenset(pair), i)
        if first != i:   # a repeated pair would vote twice
            raise ValueError(f"one-vs-one model 'pairs' entry {i} {pair!r} repeats "
                             f"entry {first} {pairs[first]!r}")
    if not (isinstance(sub_docs, list) and len(sub_docs) == len(pairs)):
        raise ValueError(f"one-vs-one model 'sub_models' is not a list of "
                         f"{len(pairs)} models, one per pair")
    models = tuple(_linear_from_doc(s) for s in sub_docs)
    for i, ((a, b), m) in enumerate(zip(pairs, models)):
        if m.categories != (categories[a], categories[b]):
            raise ValueError(f"one-vs-one sub-model categories {list(m.categories)} "
                             f"do not match pair {[a, b]}")
        if m.n_features != models[0].n_features:
            raise ValueError("one-vs-one sub-models differ in feature dimensionality")
        if not (np.array_equal(m.weights[0], -m.weights[1]) and m.biases[0] == -m.biases[1]):
            raise ValueError(f"one-vs-one sub-model {i} (pair {[a, b]}): row 0 is not "
                             f"the negation of row 1")
    return OneVsOneModel(categories=categories,
                         pairs=tuple((a, b) for a, b in pairs),
                         weights=np.vstack([m.weights[1] for m in models]),
                         biases=np.array([m.biases[1] for m in models]),
                         meta=doc.get("meta", {}))


def model_to_json(model: Model) -> str:
    if isinstance(model, LinearModel):
        doc = {"format": MODEL_FORMAT, "kind": "linear", **_linear_to_doc(model)}
    else:
        doc = {
            "format": MODEL_FORMAT,
            "kind": "one-vs-one",
            "categories": list(model.categories),
            "pairs": [list(p) for p in model.pairs],
            "sub_models": [_linear_to_doc(m) for m in model.models],
            "meta": model.meta,
        }
    return json.dumps(doc)


def model_from_json(text: str) -> Model:
    doc = json.loads(text)
    _require_keys(doc, (), "model document")
    if doc.get("format") != MODEL_FORMAT:
        raise ValueError(f"unsupported model format {doc.get('format')!r}")
    _require_keys(doc, ("kind",), "model")
    if doc["kind"] not in MODEL_KINDS:
        raise ValueError(
            f"unknown model kind {doc['kind']!r}; expected one of {MODEL_KINDS}")
    if doc["kind"] == "linear":
        return _linear_from_doc(doc)
    return _one_vs_one_from_doc(doc)
