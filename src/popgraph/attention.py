"""Global phenotype attention: a small MLP scores every phenotype per
subject, scores are averaged over the population and min-max rescaled into a
single weight vector, and that vector gates the phenotype matrix columnwise.

The weight vector is global: one value per phenotype column, shared by all
subjects. Aggregation stays inside the gradient tape, so the scorer trains
end to end through the edge distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numerics as nm
from .numerics import Tensor

__all__ = [
    "AttentionMlp",
    "attention_forward",
    "aggregate_attention",
    "weight_phenotypes",
    "rank_phenotypes",
]


@dataclass
class AttentionMlp:
    """One-hidden-layer scorer: n_phenotypes -> 2 * n_phenotypes (ReLU) ->
    n_phenotypes (sigmoid)."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    @classmethod
    def init(cls, n_phenotypes: int, rng: np.random.Generator) -> "AttentionMlp":
        hidden = 2 * n_phenotypes
        lim1 = 1.0 / np.sqrt(n_phenotypes)
        lim2 = 1.0 / np.sqrt(hidden)
        w1 = rng.uniform(-lim1, lim1, (n_phenotypes, hidden))
        w2 = rng.uniform(-lim2, lim2, (hidden, n_phenotypes))
        return cls(
            w1=Tensor(w1, requires_grad=True),
            b1=Tensor(np.zeros(hidden), requires_grad=True),
            w2=Tensor(w2, requires_grad=True),
            b2=Tensor(np.zeros(n_phenotypes), requires_grad=True),
        )

    @property
    def n_phenotypes(self) -> int:
        return self.w1.shape[0]


def attention_forward(phenotypes, mlp: AttentionMlp) -> Tensor:
    """Per-subject sigmoid scores, shape (N, n_phenotypes)."""
    phenotypes = nm.as_tensor(phenotypes)
    if phenotypes.ndim != 2 or phenotypes.shape[1] != mlp.n_phenotypes:
        raise nm.ShapeError(
            f"attention_forward: phenotype matrix {phenotypes.shape} does not match "
            f"scorer input width {mlp.n_phenotypes}")
    h = nm.dense(phenotypes, mlp.w1, mlp.b1, relu=True)
    return nm.sigmoid(nm.dense(h, mlp.w2, mlp.b2))


def aggregate_attention(scores: Tensor) -> Tensor:
    """Column means of the score matrix, min-max rescaled to [0, 1], as one
    tape op.

    If every column mean is identical the vector degenerates to all 0.5
    (constant, no gradient). Otherwise the rescale is differentiated exactly,
    holding the argmin/argmax positions of the current iterate fixed. The
    backward chains through the quotient, its denominator hi - lo, its
    numerator means - lo, then hi and lo into the means, then the mean.
    """
    scores = nm.as_tensor(scores)
    if scores.ndim != 2:
        raise nm.ShapeError(f"aggregate_attention: expected 2-D scores, got {scores.shape}")
    means = np.mean(scores.values, axis=0)
    if means.max() == means.min():
        return Tensor(np.full(scores.shape[1], 0.5))
    lo_at, hi_at = int(means.argmin()), int(means.argmax())
    num = means - means[lo_at]
    den = means[hi_at] - means[lo_at]

    def bwd(g):
        g_means = g / den
        g_hi = np.sum(-g * num / (den * den))
        g_lo = -g_hi + np.sum(-g_means)
        g_means[hi_at] += g_hi
        g_means[lo_at] += g_lo
        return (np.broadcast_to(g_means / scores.shape[0], scores.shape).copy(),)

    return nm.record_op("aggregate_attention", num / den, (scores,), bwd)


def weight_phenotypes(a, phenotypes) -> Tensor:
    """Row i of the result is a ⊙ phenotypes[i] (columnwise gating)."""
    return nm.mul_rowvec(phenotypes, a)


def rank_phenotypes(weights, names, kinds) -> list:
    """Rows {rank, name, kind, weight} in descending weight order; ties keep
    the original column order."""
    weights = np.asarray(weights, dtype=float)
    if not len(weights) == len(names) == len(kinds):
        raise ValueError("attention weights and column metadata lengths differ")
    order = np.argsort(-weights, kind="stable")
    return [
        {"rank": r + 1, "name": names[j], "kind": kinds[j], "weight": float(weights[j])}
        for r, j in enumerate(order)
    ]
