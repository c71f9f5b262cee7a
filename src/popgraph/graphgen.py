"""Graph construction over weighted phenotypes.

Edge scores follow the exponential kernel log p_ij = -t * d(f_i, f_j)^2.
Sparse graphs are drawn with the Gumbel-Top-k trick: each row's log scores
get i.i.d. Gumbel(0,1) noise and the k largest perturbed entries win. Only
a scored draw (the training draw) keeps per-edge scores: each edge's
noise-free first-pick log-probability, so gradients reach the feature
weighting and the temperature while the noise acts as a constant. Every
other draw only selects edges.

No N x N array is built. ``pairwise_distance`` and ``edge_probabilities``
return row-block operators, and the sampler walks them a block of rows at a
time: distances, kernel, Gumbel noise, the diagonal mask and a partial top-k.
The normalized adjacency of a draw is a ``scipy.sparse`` CSR matrix, built
on first use.

Static kNN and uniform-random graphs cover the non-adaptive baselines.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import numerics as nm
from .dataio import write_json
from .numerics import Tensor

__all__ = [
    "PairwiseDistances",
    "EdgeScores",
    "SampledGraph",
    "pairwise_distance",
    "edge_probabilities",
    "topk_desc",
    "gumbel_topk_sample",
    "knn_static_graph",
    "random_graph",
    "symmetrize",
    "homophily_score",
    "export_graph",
    "GRAPH_FORMATS",
]

_BALL_MARGIN = 1e-3


class PairwiseDistances:
    """The (N, N) distance matrix of the rows of ``features`` as a row-block
    operator: ``rows(r0, r1)`` computes rows r0..r1-1 (zero on each row's own
    column) without gradient. Gradients reach ``features`` through the
    sampled edges' scores (``numerics.kernel_edge_scores``)."""

    def __init__(self, features: Tensor, metric: str):
        self.features = features
        self.metric = metric
        self.shape = (features.shape[0], features.shape[0])
        self._kernel = nm.block_distance(metric, features.values)

    def rows(self, r0: int, r1: int) -> np.ndarray:
        return self._kernel.rows(np.arange(r0, r1))


class EdgeScores:
    """log p = -t * d^2 over a ``PairwiseDistances`` operator, by row blocks."""

    def __init__(self, distances: PairwiseDistances, t: Tensor):
        self._kernel = distances._kernel
        self.features = distances.features
        self.metric = distances.metric
        self.t = t
        self.shape = distances.shape

    def rows(self, r0: int, r1: int) -> np.ndarray:
        sq = self._kernel.forward(np.arange(r0, r1))[0]
        return np.multiply(sq, -float(self.t.values), out=sq)


def pairwise_distance(features, metric: str) -> PairwiseDistances:
    """All-pairs distances of the rows of ``features``, as a row-block operator.

    euclidean and cosine apply directly; hyperbolic first rescales all rows
    radially so the largest norm reaches 1 - 1e-3 (on the tape, before any
    blocking), then measures Poincare distance inside the unit ball.
    """
    f = features if isinstance(features, Tensor) else Tensor(features)
    if f.ndim != 2 or f.shape[0] < 2:
        raise nm.ShapeError(f"pairwise_distance: need at least 2 rows, got {f.shape}")
    if metric == "hyperbolic":
        norms = nm.sqrt(nm.tsum(nm.square(f), axis=1))
        if float(norms.values.max()) > 0.0:
            top_t = nm.reshape(nm.gather_rows(norms, np.array([int(norms.values.argmax())])), ())
            f = f * ((1.0 - _BALL_MARGIN) / top_t)
    return PairwiseDistances(f, metric)


def edge_probabilities(distances, t):
    """log p_ij = -t * d_ij^2. Callers keep t positive by passing t = exp(tau).

    A ``PairwiseDistances`` operator gives an ``EdgeScores`` operator; a dense
    distance matrix gives the dense score Tensor. The zero diagonal of the
    distances makes log p_ii = 0 (p_ii = 1) until the sampler masks it out.
    """
    t = t if isinstance(t, Tensor) else Tensor(float(t))
    if t.shape != ():
        raise nm.ShapeError(f"edge_probabilities: t must be scalar, got {t.shape}")
    if isinstance(distances, PairwiseDistances):
        return EdgeScores(distances, t)
    d = distances if isinstance(distances, Tensor) else Tensor(distances)
    return -(nm.square(d) * t)


def topk_desc(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries of each row of a 2-D array,
    descending, ties broken toward the lower index.

    A partial partition finds each row's k winners and a lexsort orders them;
    rows whose ties straddle the k-th place fall back to a stable sort.
    """
    n = values.shape[1]
    rows = np.arange(values.shape[0])[:, None]
    part = np.argpartition(values, n - k, axis=1)[:, n - k:]
    picked = values[rows, part]
    top = part[rows, np.lexsort((part, -picked), axis=1)]
    straddle = (values >= picked.min(axis=1)[:, None]).sum(axis=1) > k
    if straddle.any():
        top[straddle] = np.argsort(-values[straddle], axis=1, kind="stable")[:, :k]
    return top


@dataclass
class SampledGraph:
    """One draw of a sparse directed graph plus everything needed to train
    on it."""

    edges: np.ndarray         # (N*k, 2) directed (src, dst), grouped by source
    log_probs: Tensor | None  # (N*k,) noise-free per-edge score, on the tape;
                              # None when the draw is not scored
    n_nodes: int
    noise: np.ndarray | None = None  # the replay noise passed in, if any

    @functools.cached_property
    def a_hat(self) -> sp.csr_array:
        """Symmetrized normalized adjacency, built on first use."""
        return symmetrize(self.edges, self.n_nodes)


def gumbel_topk_sample(log_p, k: int, rng: np.random.Generator | None = None,
                       noise: np.ndarray | None = None,
                       normalize: bool = False) -> SampledGraph:
    """Draw k out-edges per node from the scores.

    ``log_p`` is an ``EdgeScores`` operator, walked a block of rows at a
    time, or a dense score matrix, taken as one block. Noise comes from
    ``rng`` through ``numerics.gumbel_fill``, one block of rows after
    another into one reused buffer: the uniforms of one (N, N)
    ``Generator.gumbel`` draw, transformed with the vectorised log, so
    within a few ULP of it. Pass ``noise`` to replay a draw (``gumbel_fill``
    of an (N, N) array gives the generator's), or zeros to degenerate to
    deterministic top-k. The diagonal is masked, so self-edges never occur
    and every node ends with exactly k out-edges.

    A dense score matrix's draw carries each edge's raw log p, gathered on
    the tape. An operator's draw is scored only with ``normalize``: each
    edge's first-pick log-probability, log p_ij - logsumexp_{l != i} log
    p_il, from ``numerics.kernel_edge_scores``. Without it the draw only
    selects edges and its ``log_probs`` is None. Gumbel-Top-k ignores a
    per-row constant, so the same noise picks the same edges either way.
    """
    blocked = isinstance(log_p, EdgeScores)
    lp = log_p if blocked or isinstance(log_p, Tensor) else Tensor(log_p)
    n = lp.shape[0]
    if len(lp.shape) != 2 or lp.shape[1] != n:
        raise nm.ShapeError(f"gumbel_topk_sample: score matrix must be square, got {lp.shape}")
    if not 1 <= k < n:
        raise ValueError(f"k={k} out-edges per node impossible with {n} nodes")
    if normalize and not blocked:
        raise ValueError("gumbel_topk_sample: normalize needs an EdgeScores operator")
    if noise is None:
        if rng is None:
            raise ValueError("provide an rng (or explicit noise) to sample")
    else:
        noise = np.asarray(noise, dtype=np.float64)
        if noise.shape != (n, n):
            raise nm.ShapeError(f"noise shape {noise.shape} does not match ({n}, {n})")

    targets = np.empty((n, k), dtype=np.intp)
    if normalize:
        raw, row_lse = np.empty((n, k)), np.empty(n)
    step = nm.rows_per_block(n) if blocked else n
    buffer = np.empty((min(step, n), n))
    for r0, r1 in nm.row_blocks(n, step):
        rows = np.arange(r0, r1)
        scores = lp.rows(r0, r1) if blocked else lp.values
        perturbed = buffer[:r1 - r0]
        if noise is None:
            nm.gumbel_fill(rng, perturbed)
        else:
            perturbed[:] = noise[r0:r1]
        perturbed += scores
        nm.fill_block_diagonal(perturbed, rows, -np.inf)
        targets[r0:r1] = topk_desc(perturbed, k)
        if normalize:
            raw[r0:r1] = scores[np.arange(r1 - r0)[:, None], targets[r0:r1]]
            row_lse[r0:r1] = nm.offdiag_logsumexp(scores, rows)
    sources = np.repeat(np.arange(n), k)
    edges = np.column_stack([sources, targets.reshape(-1)])

    log_probs = None if blocked else nm.gather_rows(nm.reshape(lp, (n * n,)),
                                                    edges[:, 0] * n + edges[:, 1])
    if normalize:
        log_probs = nm.kernel_edge_scores(lp.features, lp.t, lp.metric, edges,
                                          raw.reshape(-1), row_lse)
    return SampledGraph(edges=edges, log_probs=log_probs, n_nodes=n, noise=noise)


def knn_static_graph(features, k: int, metric: str = "cosine") -> np.ndarray:
    """Deterministic k-nearest-neighbor edges (ascending distance, ties to
    the lower index). Returns an (N*k, 2) directed edge array."""
    f = features if isinstance(features, Tensor) else Tensor(features)
    n = f.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"k={k} neighbors impossible with {n} nodes")
    with nm.no_grad():
        d = pairwise_distance(f, metric)
    targets = np.empty((n, k), dtype=np.intp)
    for r0, r1 in nm.row_blocks(n, nm.rows_per_block(n)):
        block = d.rows(r0, r1)
        nm.fill_block_diagonal(block, np.arange(r0, r1), np.inf)
        targets[r0:r1] = topk_desc(-block, k)
    sources = np.repeat(np.arange(n), k)
    return np.column_stack([sources, targets.reshape(-1)])


def random_graph(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """k distinct uniform out-edges per node, never to itself."""
    if not 1 <= k < n:
        raise ValueError(f"k={k} out-edges per node impossible with {n} nodes")
    targets = np.empty((n, k), dtype=np.intp)
    for i in range(n):
        targets[i] = rng.choice(n - 1, size=k, replace=False)
    targets += targets >= np.arange(n)[:, None]
    return np.column_stack([np.repeat(np.arange(n), k), targets.reshape(-1)])


def symmetrize(edges: np.ndarray, n: int) -> sp.csr_array:
    """Union the edges with their reverses, add self-loops, and normalize:
    A_hat = D^(-1/2) (A + I) D^(-1/2), as an (N, N) CSR matrix."""
    edges = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    if edges.size and np.any(edges[:, 0] == edges[:, 1]):
        raise ValueError("symmetrize: input contains self-edges")
    loops = np.arange(n)
    keys = np.unique(np.concatenate([edges[:, 0] * n + edges[:, 1],
                                     edges[:, 1] * n + edges[:, 0], loops * (n + 1)]))
    rows, cols = np.divmod(keys, n)
    degree = np.bincount(rows, minlength=n)
    inv_sqrt_deg = 1.0 / np.sqrt(degree.astype(np.float64))
    indptr = np.concatenate([[0], np.cumsum(degree)])
    return sp.csr_array((inv_sqrt_deg[rows] * inv_sqrt_deg[cols], cols, indptr),
                        shape=(n, n))


def _unique_undirected(edges: np.ndarray) -> np.ndarray:
    edges = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    return np.unique(np.column_stack([lo, hi]), axis=0)


def homophily_score(edges: np.ndarray, labels: np.ndarray, mode: str) -> float:
    """How alike are connected nodes?

    regression: mean |y_i - y_j| over unique undirected edges (lower is more
    homophilous). classification: fraction of edges joining same-class nodes
    (higher is more homophilous).
    """
    pairs = _unique_undirected(edges)
    if pairs.size == 0:
        raise ValueError("homophily_score: empty edge set")
    labels = np.asarray(labels)
    yi = labels[pairs[:, 0]]
    yj = labels[pairs[:, 1]]
    if mode == "regression":
        return float(np.mean(np.abs(yi - yj)))
    if mode == "classification":
        return float(np.mean(yi == yj))
    raise ValueError(f"unknown homophily mode {mode!r}")


GRAPH_FORMATS = ("dot", "json")


def _age_color(age: float, lo: float, hi: float) -> str:
    u = 0.0 if hi == lo else (age - lo) / (hi - lo)
    r = round(255 * u)
    b = round(255 * (1.0 - u))
    return f"#{r:02x}00{b:02x}"


def export_graph(edges, labels, path, stamp: str, fmt: str) -> None:
    """Write a graph to disk, stamped with the config hash ``stamp``.

    dot: one node statement per subject, filled with a blue-to-red ramp over
    the label range, one directed edge statement per edge, then a
    ``// config_hash=<stamp>`` line.
    json: {config_hash, nodes: [{id, age}], edges: [{src, dst}]}.
    """
    edges = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    labels = np.asarray(labels, dtype=float)
    n = len(labels)

    if fmt == "dot":
        lo, hi = float(labels.min()), float(labels.max())
        lines = ["digraph population {"]
        for i in range(n):
            color = _age_color(labels[i], lo, hi)
            lines.append(f'  n{i} [label="{labels[i]:.1f}", style=filled, '
                         f'fillcolor="{color}"];')
        for (i, j) in edges:
            lines.append(f"  n{i} -> n{j};")
        lines += ["}", f"// config_hash={stamp}"]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    elif fmt == "json":
        write_json(path, {
            "config_hash": stamp,
            "nodes": [{"id": int(i), "age": float(labels[i])} for i in range(n)],
            "edges": [{"src": int(i), "dst": int(j)} for (i, j) in edges],
        })
    else:
        raise ValueError(f"unknown export format {fmt!r}; expected dot or json")
