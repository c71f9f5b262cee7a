"""Node-level predictor and the two-part training objective.

The predictor is one spectral graph convolution (no bias) feeding a fully
connected ReLU layer and a linear task head. The objective couples the
supervised loss on training nodes with a graph term that scores every sampled
edge by its source node's reward: edges leaving nodes the predictor got
wrong are pushed toward lower probability, edges leaving well-predicted
nodes toward higher. Rewards enter as constants, so the graph term trains
only the edge distribution (feature weighting and temperature), never the
predictor weights.

``graph_loss`` weights whatever per-edge scores and rewards it is given. The
trainer passes the training draw's scores, the only draw that is scored: one
per cell of its (N, k) target grid, row-major as its edges, each its log p
less its row's off-diagonal logsumexp, so one edge gains only at its
row-mates' expense (``graphgen.kernel_edge_scores``), with rewards less
each node's running mean reward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .graphgen import SampledGraph
from .numerics import Tensor

__all__ = [
    "GcnModel",
    "LossBreakdown",
    "gcn_forward",
    "huber_loss",
    "cross_entropy_loss",
    "null_epsilon",
    "reward",
    "graph_loss",
    "total_loss",
]

# error at which the Huber loss turns from quadratic to linear
HUBER_DELTA = 1.0


@dataclass
class GcnModel:
    """Conv weights (no bias), one hidden FC layer, and a linear head."""

    w1: Tensor  # (M, hidden1)
    w2: Tensor  # (hidden1, hidden2)
    b2: Tensor  # (hidden2,)
    w3: Tensor  # (hidden2, n_out)
    b3: Tensor  # (n_out,): one output for regression, one per class otherwise

    @classmethod
    def init(cls, n_features: int, rng: np.random.Generator,
             hidden1: int = 512, hidden2: int = 128, n_out: int = 1,
             head_bias: float = 0.0) -> "GcnModel":
        w1 = rng.uniform(-1.0, 1.0, (n_features, hidden1)) / np.sqrt(n_features)
        w2 = rng.uniform(-1.0, 1.0, (hidden1, hidden2)) / np.sqrt(hidden1)
        w3 = rng.uniform(-1.0, 1.0, (hidden2, n_out)) / np.sqrt(hidden2)
        return cls(
            w1=Tensor(w1, requires_grad=True),
            w2=Tensor(w2, requires_grad=True),
            b2=Tensor(np.zeros(hidden2), requires_grad=True),
            w3=Tensor(w3, requires_grad=True),
            b3=Tensor(np.full(n_out, head_bias, dtype=np.float64), requires_grad=True),
        )

    @property
    def n_features(self) -> int:
        return self.w1.shape[0]

    def params(self) -> list:
        return [self.w1, self.w2, self.b2, self.w3, self.b3]


def gcn_forward(a_hat, x, model: GcnModel) -> Tensor:
    """ReLU(Â X W1) -> ReLU(· W2 + b2) -> · W3 + b3.

    Â is the CSR matrix that ``graphgen.symmetrize`` builds (a graph's
    ``a_hat``); X is a plain array. Neither is trained, so the product Â X
    is folded before touching the tape. A one-output head is regression's
    (a classifier has at least two classes), and its output is squeezed to
    shape (N,).
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if a_hat.shape != (n, n):
        raise nm.ShapeError(f"gcn_forward: adjacency {a_hat.shape} does not match "
                            f"{n} node rows")
    if x.shape[1] != model.n_features:
        raise nm.ShapeError(f"gcn_forward: features {x.shape} do not match model "
                            f"input width {model.n_features}")
    h1 = nm.dense(a_hat @ x, model.w1, relu=True)
    h2 = nm.dense(h1, model.w2, model.b2, relu=True)
    out = nm.dense(h2, model.w3, model.b3)
    if model.b3.shape == (1,):
        return nm.reshape(out, (n,))
    return out


def huber_loss(pred: Tensor, y, mask) -> Tensor:
    """Mean Huber loss over masked nodes, as one tape op: quadratic inside
    |e| <= ``HUBER_DELTA``, linear outside. The backward takes each node's
    branch as the forward found it: e inside, ``HUBER_DELTA`` sign(e)
    outside, over the masked count, and zero on unmasked rows. Both branches
    meet with equal value and slope at the boundary."""
    mask = np.asarray(mask, dtype=bool)
    y = np.asarray(y, dtype=float)
    if pred.ndim != 1 or y.shape != pred.shape or mask.shape != pred.shape:
        raise nm.ShapeError(f"huber_loss: predictions {pred.shape}, targets {y.shape} "
                            f"and mask {mask.shape} must be one (N,) shape")
    if not mask.any():
        raise ValueError("huber_loss: empty mask")
    rows = np.flatnonzero(mask)
    err = pred.values[rows] - y[rows]
    small = np.abs(err) <= HUBER_DELTA
    loss = np.where(small, err * err * 0.5, (np.abs(err) - 0.5 * HUBER_DELTA) * HUBER_DELTA)

    def bwd(g):
        g = g / len(rows)
        grad = np.zeros(pred.shape)
        grad[rows] = np.where(small, 2.0 * err * (g * 0.5), (g * HUBER_DELTA) * np.sign(err))
        return (grad,)

    return nm.record_op("huber_loss", np.mean(loss), (pred,), bwd)


def cross_entropy_loss(logits: Tensor, classes, mask) -> Tensor:
    """Mean negative log-probability of the true class over masked nodes, as
    one tape op. The backward is (softmax - onehot) over the masked count on
    the masked rows, and zero elsewhere."""
    mask = np.asarray(mask, dtype=bool)
    classes = np.asarray(classes, dtype=np.intp)
    if logits.ndim != 2 or classes.shape != mask.shape or mask.shape != logits.shape[:1]:
        raise nm.ShapeError(f"cross_entropy_loss: logits {logits.shape}, classes "
                            f"{classes.shape} and mask {mask.shape} do not conform")
    if not mask.any():
        raise ValueError("cross_entropy_loss: empty mask")
    rows = np.flatnonzero(mask)
    picks = (np.arange(len(rows)), classes[rows])
    log_probs = nm.log_softmax_rows(logits.values[rows])

    def bwd(g):
        g = -g / len(rows)
        grad_rows = np.zeros(log_probs.shape)
        grad_rows[picks] = g
        grad_rows -= np.exp(log_probs) * g
        grad = np.zeros(logits.shape)
        grad[rows] = grad_rows
        return (grad,)

    return nm.record_op("cross_entropy_loss", -np.mean(log_probs[picks]), (logits,), bwd)


def null_epsilon(train_labels, task: str = "regression", n_classes: int = 4) -> float:
    """Reward threshold of the label-blind null model.

    Regression: the mean absolute error of always predicting the training
    mean. Classification: the chance error rate 1 - 1/n_classes. A
    prediction exactly as wrong as the null model earns reward 0.
    """
    train_labels = np.asarray(train_labels)
    if train_labels.size == 0:
        raise ValueError("null_epsilon: no training labels")
    if task == "regression":
        return float(np.mean(np.abs(train_labels - train_labels.mean())))
    if task == "classification":
        return 1.0 - 1.0 / n_classes
    raise ValueError(f"unknown task {task!r}")


def reward(y, pred, epsilon: float, task: str = "regression") -> np.ndarray:
    """Per-node reward ρ: positive where the predictor does worse than the
    null model, negative where it does better. Plain arrays in and out; no
    gradient flows through predictions here by design."""
    y = np.asarray(y)
    pred = np.asarray(pred)
    if task == "regression":
        return np.abs(y - pred) - epsilon
    if task == "classification":
        return (y != pred).astype(np.float64) - epsilon
    raise ValueError(f"unknown task {task!r}")


def graph_loss(graph: SampledGraph, rewards, train_mask) -> Tensor:
    """Sum of ρ_source * log p over sampled edges whose source node is in the
    training split, as one tape op. A summed (not averaged) objective: its
    gradient w.r.t. each retained log p_ij is exactly ρ_i."""
    rewards = np.asarray(rewards, dtype=float)
    train_mask = np.asarray(train_mask, dtype=bool)
    src = graph.edges[:, 0]
    coeff = rewards[src] * train_mask[src]
    return nm.record_op("graph_loss", np.sum(graph.log_probs.values * coeff),
                        (graph.log_probs,), lambda g: (g * coeff,))


@dataclass
class LossBreakdown:
    """One optimization step's objective, split into its parts."""

    total: Tensor
    l_gcn: float
    l_graph: float
    reward_mean: float | None = None
    reward_min: float | None = None
    reward_max: float | None = None

    @property
    def total_value(self) -> float:
        return float(self.total.values)


def total_loss(l_gcn: Tensor, l_graph: Tensor, rewards=None) -> LossBreakdown:
    """Combine the supervised and graph terms: total = L_GCN + L_graph, as
    one tape op that passes its gradient to both."""
    total = nm.record_op("total_loss", l_gcn.values + l_graph.values, (l_gcn, l_graph),
                         lambda g: (g, g))
    stats = {}
    if rewards is not None:
        rewards = np.asarray(rewards, dtype=float)
        stats = {"reward_mean": float(rewards.mean()),
                 "reward_min": float(rewards.min()),
                 "reward_max": float(rewards.max())}
    return LossBreakdown(total=total, l_gcn=float(l_gcn.values),
                         l_graph=float(l_graph.values), **stats)
