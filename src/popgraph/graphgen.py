"""Graph construction over weighted phenotypes.

Edge scores follow the exponential kernel log p_ij = -t * d(f_i, f_j)^2.
Sparse graphs are drawn with the Gumbel-Top-k trick: each row's log scores
get i.i.d. Gumbel(0,1) noise and the k largest perturbed entries win. Only
a scored draw (the training draw) keeps per-edge scores: each edge's
noise-free first-pick log-probability, so gradients reach the feature
weighting and the temperature while the noise acts as a constant. Every
other draw only selects edges.

No N x N array is built. ``pairwise_distance``, the one constructor of a
distance kernel, returns the metric's ``numerics.BlockDistance`` and
``edge_probabilities`` an ``EdgeScores`` operator over it, the sampler's
only input; every draw walks them a block of rows at a time: distances,
kernel, Gumbel noise, the diagonal mask and a partial top-k. The training
draw's scores back through that same kernel. The normalized adjacency of a
draw is a ``scipy.sparse`` CSR matrix, built on first use.

Static kNN and uniform-random graphs cover the non-adaptive baselines. A kNN
graph is a draw with no noise at t = 1, through the same block pass.
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


class EdgeScores:
    """log p = -t * d^2 over a distance kernel, by row blocks."""

    def __init__(self, kernel: nm.BlockDistance, t: Tensor):
        self.kernel = kernel
        self.t = t
        self.shape = kernel.shape

    def rows(self, r0: int, r1: int) -> np.ndarray:
        sq = self.kernel.forward(np.arange(r0, r1))[0]
        return np.multiply(sq, -float(self.t.values), out=sq)


def pairwise_distance(features, metric: str) -> nm.BlockDistance:
    """All-pairs distances of the rows of the 2-D ``features`` (a Tensor; an
    array is taken as a constant): the metric's ``numerics.BLOCK_METRICS``
    kernel, the one constructor of a distance kernel. The hyperbolic kernel
    puts the rows inside the unit ball itself (see ``numerics._Poincare``).
    """
    f = nm.as_tensor(features)
    if f.ndim != 2 or f.shape[0] < 2:
        raise nm.ShapeError(f"pairwise_distance: features must be 2-D with at least 2 "
                            f"rows, got {f.shape}")
    if metric not in nm.BLOCK_METRICS:
        raise ValueError(f"unknown distance metric {metric!r}; expected one of "
                         f"{tuple(nm.BLOCK_METRICS)}")
    return nm.BLOCK_METRICS[metric](f)


def edge_probabilities(distances: nm.BlockDistance, t) -> EdgeScores:
    """log p_ij = -t * d_ij^2 over a distance kernel, as an ``EdgeScores``
    operator. Callers keep t positive by passing t = exp(tau). The zero
    diagonal of the distances makes log p_ii = 0 (p_ii = 1) until the
    sampler masks it out.
    """
    t = nm.as_tensor(t)
    if t.shape != ():
        raise nm.ShapeError(f"edge_probabilities: t must be scalar, got {t.shape}")
    return EdgeScores(distances, t)


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


def gumbel_topk_sample(log_p: EdgeScores, k: int, rng: np.random.Generator | None = None,
                       noise: np.ndarray | None = None) -> SampledGraph:
    """Draw k out-edges per node from the scores.

    ``log_p`` is an ``EdgeScores`` operator, walked a block of rows at a
    time. Noise comes from ``rng`` through ``numerics.gumbel_fill``, one
    block of rows after another into a reused buffer, or into two while a
    ``numerics.BlockHelper`` draws the next block's ahead: the uniforms of
    one (N, N) ``Generator.gumbel`` draw, transformed with the vectorised
    log, so within a few ULP of it. Pass ``noise`` to replay a draw
    (``gumbel_fill`` of an (N, N) array gives the generator's); its rows are
    copied into the same buffers on the same schedule. With neither, the
    draw has no noise: each row's k best scores, ties to the lower index,
    ranked in place in the score block, with no noise buffer and no helper
    job. At t = 1 over a distance kernel that is the kNN graph. The diagonal
    is masked, so self-edges never occur and every node ends with exactly k
    out-edges.

    A draw is scored exactly when the tape would record it
    (``numerics.records`` of the kernel's features and t): each edge's
    first-pick log-probability, log p_ij - logsumexp_{l != i} log p_il, from
    ``numerics.kernel_edge_scores``. Any other draw only selects edges and
    its ``log_probs`` is None. Gumbel-Top-k ignores a per-row constant, so
    the same noise picks the same edges either way.
    """
    n = log_p.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"k={k} out-edges per node impossible with {n} nodes")
    if noise is not None:
        noise = np.asarray(noise, dtype=np.float64)
        if noise.shape != (n, n):
            raise nm.ShapeError(f"noise shape {noise.shape} does not match ({n}, {n})")
    noise_free = rng is None and noise is None

    targets = np.empty((n, k), dtype=np.intp)
    scored = nm.records(log_p.kernel.features, log_p.t)
    if scored:
        raw, row_lse = np.empty((n, k)), np.empty(n)
    step = nm.rows_per_block(n)
    blocks = list(nm.row_blocks(n, step))
    with nm.BlockHelper(0 if noise_free else len(blocks)) as helper:
        # with the helper, block b + 1's noise is drawn while block b is scored
        buffers = [] if noise_free else [np.empty((min(step, n), n))
                                         for _ in range(1 + helper.lag)]

        def block_noise(b):
            r0, r1 = blocks[b]
            out = buffers[b % len(buffers)][:r1 - r0]
            if noise is None:
                return nm.gumbel_fill(rng, out)
            out[:] = noise[r0:r1]
            return out

        def block_lse(scores, rows):
            row_lse[rows] = nm.offdiag_logsumexp(scores, rows)

        fills = [helper.submit(block_noise, b) for b in range(helper.lag)]
        for b, (r0, r1) in enumerate(blocks):
            if not noise_free and b + helper.lag < len(blocks):
                fills.append(helper.submit(block_noise, b + helper.lag))
            rows = np.arange(r0, r1)
            scores = log_p.rows(r0, r1)
            if noise_free:
                # ranked in place: masking the diagonal moves no edge's score
                # and offdiag_logsumexp masks it anyway
                perturbed = scores
            else:
                perturbed = fills[b].result()
                perturbed += scores
            nm.fill_block_diagonal(perturbed, rows, -np.inf)
            targets[r0:r1] = topk_desc(perturbed, k)
            if scored:
                raw[r0:r1] = scores[np.arange(r1 - r0)[:, None], targets[r0:r1]]
                helper.submit(block_lse, scores, rows)
    sources = np.repeat(np.arange(n), k)
    edges = np.column_stack([sources, targets.reshape(-1)])
    log_probs = None
    if scored:
        log_probs = nm.kernel_edge_scores(log_p.kernel, log_p.t, edges, raw.reshape(-1),
                                          row_lse)
    return SampledGraph(edges=edges, log_probs=log_probs, n_nodes=n, noise=noise)


def knn_static_graph(features, k: int, metric: str = "cosine") -> np.ndarray:
    """Deterministic k-nearest-neighbor edges: a noise-free draw at t = 1,
    which ranks each row's negated squared distances, ties to the lower
    index. Returns an (N*k, 2) directed edge array."""
    with nm.no_grad():
        return gumbel_topk_sample(edge_probabilities(pairwise_distance(features, metric), 1.0),
                                  k).edges


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
