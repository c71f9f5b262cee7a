"""Graph construction over weighted phenotypes.

Edge scores follow the exponential kernel log p_ij = -t * d(f_i, f_j)^2.
Sparse graphs are drawn with the Gumbel-Top-k trick: each row's log scores
get i.i.d. Gumbel(0,1) noise and the k largest perturbed entries win. Only
a scored draw (the training draw) keeps per-edge scores: each edge's
noise-free first-pick log-probability, so gradients reach the feature
weighting and the temperature while the noise acts as a constant. Every
other draw only selects edges.

No N x N array is built. Each distance metric is one ``BlockDistance``
kernel (``BLOCK_METRICS``) that maps the raw features to squared distances
a block of rows at a time and pulls gradients back to those features; the
hyperbolic kernel puts the rows inside the unit ball itself.
``pairwise_distance``, the one constructor of a kernel, returns the
metric's kernel and ``edge_probabilities`` an ``EdgeScores`` operator over
it, the sampler's only input; every draw walks them a block of rows at a
time: distances, kernel, Gumbel noise from the draw's generator (none
without one), the diagonal mask and a threshold top-k (``topk_desc``).
``gumbel_topk_samples`` makes several draws in one such pass, each block's
scores computed once and shared by every draw, each draw's noise from its
own generator; ``gumbel_topk_sample`` is its one-draw case. On a pass of
enough blocks one helper thread, shared by every pass, takes part of each
block's work (``BlockHelper``). The training draw's scores are one tape op
over the draw's own (N, k) grid of targets, ``kernel_edge_scores``, whose
backward walks that same kernel again. The normalized adjacency of a draw
is a ``scipy.sparse`` CSR matrix, built on first use.

Static kNN and uniform-random graphs cover the non-adaptive baselines. A kNN
graph is a draw with no noise at t = 1, through the same block pass; a
random graph draws every node's targets by Floyd's rule from one
``integers`` call (``random_graph``).
"""

from __future__ import annotations

import functools
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import numerics as nm
from .dataio import write_json
from .numerics import Tensor

__all__ = [
    "BlockDistance",
    "kernel_edge_scores",
    "EdgeScores",
    "SampledGraph",
    "pairwise_distance",
    "edge_probabilities",
    "topk_desc",
    "gumbel_topk_sample",
    "gumbel_topk_samples",
    "knn_static_graph",
    "random_graph",
    "symmetrize",
    "homophily_score",
    "export_graph",
    "GRAPH_FORMATS",
]


# ---------------------------------------------------------------------------
# row-blocked pairwise distances and the kernel edge scores built on them
# ---------------------------------------------------------------------------

# entries of one (rows x N) block: 2 MB of float64, so the few block-sized
# temporaries of a pass stay near L2 and no N x N array is ever made
BLOCK_ENTRIES = 1 << 18


# the hyperbolic kernel scales its rows so the largest norm is 1 - BALL_MARGIN
BALL_MARGIN = 1e-3

# a pass over at least this many blocks hands part of each block to the
# helper thread; on a 2-block pass (N = 600) the hand-offs measured slower
HELPER_MIN_BLOCKS = 3

# the helper: one thread, started on first use, shared by every pass
_HELPER = ThreadPoolExecutor(max_workers=1, thread_name_prefix="popgraph-helper")


class BlockHelper:
    """The helper-thread jobs of one pass over ``n_blocks`` row blocks.

    ``submit(fn, *args)`` runs fn(*args) and returns a ``Future`` of its
    value. On a pass of at least ``HELPER_MIN_BLOCKS`` blocks it runs on the
    module's one helper thread, one job at a time in submission order, while
    the caller goes on with its own part of the pass; ``lag`` is 1. On a
    shorter pass it runs at once on the calling thread, which returns a
    finished Future or raises fn's exception, and ``lag`` is 0. A job works
    in place on arrays the caller allocated and does not allocate
    block-sized arrays: a thread's own malloc arena would keep those
    resident. Leaving the ``with`` block waits for every job, so none
    outlives the pass, whether it returns or raises; on a normal exit a
    job's exception is raised there.
    """

    def __init__(self, n_blocks: int):
        self.lag = int(n_blocks >= HELPER_MIN_BLOCKS)
        self._jobs = []

    def submit(self, fn, *args):
        if not self.lag:
            job = Future()
            job.set_result(fn(*args))
            return job
        job = _HELPER.submit(fn, *args)
        self._jobs.append(job)
        return job

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        if self._jobs:
            wait(self._jobs)
            if exc_type is None:
                for job in self._jobs:
                    job.result()
        return False


def rows_per_block(n: int) -> int:
    """Rows per block for blocks that span all N columns."""
    return max(1, BLOCK_ENTRIES // n)


def row_blocks(n: int, rows: int):
    """(r0, r1) bounds of consecutive row blocks covering range(n)."""
    for r0 in range(0, n, rows):
        yield r0, min(r0 + rows, n)


def fill_block_diagonal(block: np.ndarray, rows: np.ndarray, value: float) -> None:
    """Set each row's own column, (i, rows[i]), of the block of ``rows`` to value."""
    block[np.arange(len(rows)), rows] = value


def gumbel_fill(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill a C-contiguous float64 array with Gumbel(0, 1) noise and return it.

    The same uniforms and formula as ``Generator.gumbel(0, 1, out.shape)``,
    -log(-log(1 - U)), but with numpy's vectorised log in place of a scalar
    libm call per variate, so each value g agrees to a few ULP of
    max(|g|, 1) and the generator ends in the same state. A uniform of
    exactly 0 would give +inf; like ``Generator.gumbel`` those entries are
    redrawn from ``rng``, though after the whole fill rather than in stream
    order.
    """
    rng.random(out=out)
    if not out.all():
        flat = out.reshape(-1)
        zero = np.flatnonzero(flat == 0.0)
        while zero.size:
            flat[zero] = rng.random(zero.size)
            zero = zero[flat[zero] == 0.0]
    np.subtract(1.0, out, out=out)
    np.log(out, out=out)
    np.negative(out, out=out)
    np.log(out, out=out)
    return np.negative(out, out=out)


def offdiag_logsumexp(scores: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Each row's logsumexp over all columns but its own, for the block of
    ``rows``. Works in place: ``scores`` is left holding exp(score - row max),
    zero on the own columns."""
    fill_block_diagonal(scores, rows, -np.inf)
    top = scores.max(axis=1)
    scores -= top[:, None]
    np.exp(scores, out=scores)
    return top + np.log(scores.sum(axis=1))


def _sqdist_block(v, r, rows) -> np.ndarray:
    """max(|v_i|^2 + |v_j|^2 - 2 v_i.v_j, 0) for the block's rows i, from v
    and the squared row norms r."""
    s = (-2.0 * v[rows]) @ v.T
    # r_i + r_j is rounded before it is added, as one (rows, N) sum would be,
    # but 16 rows at a time, so the temporary stays small
    for c0 in range(0, len(rows), 16):
        s[c0:c0 + 16] += r[rows[c0:c0 + 16], None] + r
    return np.maximum(s, 0.0, out=s)


def _sqdist_pullback(v, rows, g, scale, acc) -> None:
    """Add the pullback of scale * g through s_ij = |v_i - v_j|^2 for the
    block's rows i; scale multiplies the (N, d) products, so g is read as it
    is and no scaled (rows, N) copy of it is made."""
    vi = v[rows]
    acc += (2.0 * scale) * (g.sum(axis=0)[:, None] * v - g.T @ vi)
    acc[rows] += (2.0 * scale) * (g.sum(axis=1)[:, None] * vi - g @ v)


class BlockDistance:
    """The squared distances between the rows of ``features`` under one
    metric, as a row-block kernel: the one object a graph draw builds, walks
    and differentiates. ``features`` is the tape parent its gradients reach
    and ``shape`` is (N, N).

    A block is a set of rows: an ascending array of distinct row indices.
    Each metric gives ``forward(rows)``, the block's (len(rows), N) squared
    distances, zero on the own columns, as a fresh array the caller may
    overwrite, and what its pullback needs; and ``pullback(rows, saved, g,
    scale, acc)``, which adds the block's vector-Jacobian product with
    scale * g (zero on the own columns) through the squared distances into
    ``accumulator()``, which ``finish`` turns into d/d(features). A row in no
    block adds nothing. ``pullback`` may overwrite ``saved``. Here the
    accumulator is d/d(features) itself; a metric that needs another
    overrides ``accumulator`` and ``finish``.
    """

    def __init__(self, features: Tensor):
        self.features = features
        self.shape = (features.shape[0], features.shape[0])
        self.v = features.values

    def accumulator(self):
        return np.zeros_like(self.v)

    def finish(self, acc):
        return acc


class _Euclidean(BlockDistance):
    """|v_i - v_j|^2: no square root on the kernel's path."""

    def __init__(self, features):
        super().__init__(features)
        self.r = np.sum(self.v * self.v, axis=1)

    def forward(self, rows):
        s = _sqdist_block(self.v, self.r, rows)
        fill_block_diagonal(s, rows, 0.0)
        return s, None

    def pullback(self, rows, saved, g, scale, acc):
        _sqdist_pullback(self.v, rows, g, scale, acc)


class _Cosine(BlockDistance):
    """(1 - cos(v_i, v_j))^2; a zero row is at distance 1 from every other
    row and gets zero gradient."""

    def __init__(self, features):
        super().__init__(features)
        v = self.v
        norms = np.sqrt(np.sum(v * v, axis=1))
        self.nonzero = norms > 0.0
        self.safe = np.where(self.nonzero, norms, 1.0)
        self.v = self.u = v / self.safe[:, None]

    def forward(self, rows):
        d = 1.0 - self.u[rows] @ self.u.T
        fill_block_diagonal(d, rows, 0.0)
        return d * d, d

    def pullback(self, rows, d, g, scale, acc):
        # through d^2, then d; acc collects d(loss)/du
        d *= g
        d *= 2.0 * scale
        u = self.u
        acc -= d.T @ u[rows]
        acc[rows] -= d @ u

    def finish(self, acc):
        u = self.u
        gf = (acc - u * np.sum(acc * u, axis=1)[:, None]) / self.safe[:, None]
        gf[~self.nonzero] = 0.0
        return gf


class _Poincare(BlockDistance):
    """arcosh(1 + 2|u_i - u_j|^2 / ((1 - |u_i|^2)(1 - |u_j|^2)))^2 over the
    rows u = c v, put inside the unit ball: c = (1 - ``BALL_MARGIN``) / (the
    largest row norm), and no rescale when every row is zero. Zero
    subgradient at coincident points."""

    def __init__(self, features):
        super().__init__(features)
        norms = np.sqrt(np.sum(self.v * self.v, axis=1))
        self.at = int(norms.argmax())
        self.top = norms[self.at]
        if self.top > 0.0:
            self.v = self.v * ((1.0 - BALL_MARGIN) / self.top)
        self.r = np.sum(self.v * self.v, axis=1)
        self.b = 1.0 - self.r

    def forward(self, rows):
        a = _sqdist_block(self.v, self.r, rows)
        b = np.outer(self.b[rows], self.b)
        # arcosh(1 + q) = log1p(q + r) with r = sqrt(q (q + 2)): no scalar
        # libm loop as in np.arccosh, and no rounding of 1 + q
        q = np.multiply(a, 2.0)
        q /= b
        r = q + 2.0
        r *= q
        np.sqrt(r, out=r)
        d = np.log1p(np.add(q, r, out=q), out=q)
        fill_block_diagonal(d, rows, 0.0)
        return d * d, (d, a, b, r)

    def accumulator(self):
        # d(loss)/du through |u_i - u_j|^2, and d(loss)/d(1 - |u_i|^2)
        return np.zeros_like(self.v), np.zeros_like(self.b)

    def pullback(self, rows, saved, g, scale, acc):
        d, a, b, r = saved
        d *= g
        d *= 2.0 * scale
        gv, db = acc
        # d arcosh(1 + q) / dq = 1 / r; zero subgradient where points coincide
        w = np.divide(d, r, out=np.zeros_like(d), where=r > 1e-12)
        gb = w * (-2.0 * a / (b * b))
        _sqdist_pullback(self.v, rows, w * (2.0 / b), 1.0, gv)
        db += gb.T @ self.b[rows]
        db[rows] += gb @ self.b

    def finish(self, acc):
        gv, db = acc
        g = gv - 2.0 * db[:, None] * self.v
        if self.top == 0.0:
            return g
        # back through u = c v: g c, plus the chain through c into the
        # largest-norm row alone, d|v_at|/dv_at = v_at / |v_at|
        v, at, top = self.features.values, self.at, self.top
        g_top = -np.sum(g * v) * (1.0 - BALL_MARGIN) / (top * top)
        grad = g * ((1.0 - BALL_MARGIN) / top)
        grad[at] += 2.0 * v[at] * (g_top / (2.0 * top))
        return grad


BLOCK_METRICS = {"euclidean": _Euclidean, "cosine": _Cosine, "hyperbolic": _Poincare}


def kernel_edge_scores(dist: BlockDistance, t: Tensor, targets, raw, row_lse) -> Tensor:
    """Record the first-pick log-probability under log p = -t d^2 over the
    kernel ``dist`` of each edge of the draw's (N, k) grid ``targets``, k
    distinct targets per row and none the row itself: log p_ij -
    logsumexp_{l != i} log p_il (Plackett-Luce), as (N*k,) scores in the
    row-major order of the draw's edges. The sampler's own pass over
    ``dist`` already has their (N, k) ``raw`` log p and the (N,)
    off-diagonal ``row_lse`` of every row, so the forward only subtracts.

    The backward recomputes blocks through ``dist`` itself, so gradients reach
    ``dist.features`` and no N x N array outlives a block. It visits only the
    rows with at least one edge of nonzero upstream gradient, in blocks of
    consecutive such rows. Every other row's gradient block is exactly zero:
    its normalizer weight, the sum of its edges' gradients, is zero and no
    edge gradient lands in it. Each block's gradient is built in one pass,
    in place in a (rows, N) buffer reused across blocks. On a pass of enough
    blocks a ``BlockHelper`` builds it, and its product with the squared
    distances, on the helper thread, into one of two buffers, while the
    caller computes the next block's distances and pulls the previous block
    back; the caller adds every block's share in block order.
    """
    n, k = targets.shape
    step = rows_per_block(n)
    tv = float(t.values)

    def bwd(g):
        g_rows = np.bincount(np.repeat(np.arange(n), k), weights=g, minlength=n)
        g = g.reshape(n, k)
        live = np.flatnonzero(g.any(axis=1))
        acc = dist.accumulator()
        g_t = 0.0

        def block_grad(g_s, sq, rows):
            # d(loss)/d(log p) of the block: -g_rows times the first-pick
            # softmax, plus each edge's own gradient (a row's targets are
            # distinct, so one add per entry); returns its dot with sq
            np.multiply(sq, -tv, out=g_s)
            g_s -= row_lse[rows, None]
            fill_block_diagonal(g_s, rows, -np.inf)
            np.exp(g_s, out=g_s)
            g_s *= -g_rows[rows, None]
            g_s[np.arange(len(rows))[:, None], targets[rows]] += g[rows]
            return np.dot(g_s.reshape(-1), sq.reshape(-1))

        def pull_back(rows, saved, g_s, job):
            dot = job.result()  # g_s is complete once its job is
            dist.pullback(rows, saved, g_s, -tv, acc)
            return dot

        blocks = [live[c0:c0 + step] for c0 in range(0, len(live), step)]
        pending = []
        with BlockHelper(len(blocks)) as helper:
            buffers = [np.empty((min(step, len(live)), n)) for _ in range(1 + helper.lag)]
            for b, rows in enumerate(blocks):
                sq, saved = dist.forward(rows)
                g_s = buffers[b % len(buffers)][:len(rows)]
                job = helper.submit(block_grad, g_s, sq, rows)
                sq = None  # free the block before the pullback's temporaries
                pending.append((rows, saved, g_s, job))
                if len(pending) > helper.lag:
                    g_t -= pull_back(*pending.pop(0))
            for block in pending:
                g_t -= pull_back(*block)
        return dist.finish(acc), np.array(g_t)

    return nm.record_op("kernel_edge_scores", (raw - row_lse[:, None]).reshape(-1),
                        (dist.features, t), bwd)


# ---------------------------------------------------------------------------
# the graph draw over a kernel, and the baseline graphs
# ---------------------------------------------------------------------------


class EdgeScores:
    """log p = -t * d^2 over a distance kernel, by row blocks."""

    def __init__(self, kernel: BlockDistance, t: Tensor):
        self.kernel = kernel
        self.t = t
        self.shape = kernel.shape

    def rows(self, r0: int, r1: int) -> np.ndarray:
        sq = self.kernel.forward(np.arange(r0, r1))[0]
        return np.multiply(sq, -float(self.t.values), out=sq)


def pairwise_distance(features, metric: str) -> BlockDistance:
    """All-pairs distances of the rows of the 2-D ``features`` (a Tensor; an
    array is taken as a constant): the metric's ``BLOCK_METRICS`` kernel,
    the one constructor of a distance kernel. The hyperbolic kernel puts the
    rows inside the unit ball itself (see ``_Poincare``).
    """
    f = nm.as_tensor(features)
    if f.ndim != 2 or f.shape[0] < 2:
        raise nm.ShapeError(f"pairwise_distance: features must be 2-D with at least 2 "
                            f"rows, got {f.shape}")
    if metric not in BLOCK_METRICS:
        raise ValueError(f"unknown distance metric {metric!r}; expected one of "
                         f"{tuple(BLOCK_METRICS)}")
    return BLOCK_METRICS[metric](f)


def edge_probabilities(distances: BlockDistance, t) -> EdgeScores:
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
    descending, ties broken toward the lower index: the first k columns of
    a stable argsort of -values. A NaN entry is a ValueError.

    Each row is cut into max(16, k) chunks of equal width (the last takes
    the rest; one column each on a row narrower than that). The row's k-th
    largest chunk maximum is at most its k-th largest entry, so every top-k
    entry, and every entry tied with the k-th, is at or above it. Those
    candidates, at least k per row and usually a few, are ordered by one
    lexsort of (row, -value, column), which gives the stable argsort's
    answer; only ties as wide as the row make them the whole block.
    """
    r, n = values.shape
    chunks = min(n, max(16, k))
    maxima = np.maximum.reduceat(values, np.arange(chunks) * (n // chunks), axis=1)
    # a chunk holding NaN has a NaN maximum, which sorts last
    part = np.partition(maxima, (chunks - k, chunks - 1), axis=1)
    if np.isnan(part[:, -1]).any():
        raise ValueError("topk_desc: values hold NaN, which has no rank")
    row, col = np.divmod(np.flatnonzero(values >= part[:, chunks - k, None]), n)
    order = np.lexsort((col, -values[row, col], row))
    return col[order[np.searchsorted(row, np.arange(r))[:, None] + np.arange(k)]]


@dataclass
class SampledGraph:
    """One draw of a sparse directed graph plus everything needed to train
    on it."""

    edges: np.ndarray         # (N*k, 2) directed (src, dst), grouped by source
    log_probs: Tensor | None  # (N*k,) noise-free per-edge score, on the tape;
                              # None when the draw is not scored
    n_nodes: int
    # no draw keeps its noise; read by the benchmark's per-draw byte count
    noise = None

    @functools.cached_property
    def a_hat(self) -> sp.csr_array:
        """Symmetrized normalized adjacency, built on first use."""
        return symmetrize(self.edges, self.n_nodes)


def gumbel_topk_sample(log_p: EdgeScores, k: int,
                       rng: np.random.Generator | None = None) -> SampledGraph:
    """Draw k out-edges per node from the scores: the one-draw pass of
    ``gumbel_topk_samples``, its noise drawn from ``rng`` itself, as
    ``gumbel_fill`` of one (N, N) array would draw it. Without ``rng`` the
    draw has no noise: each row's k best scores, ties to the lower index,
    ranked in place in the score block, with no noise buffer and no helper
    job. At t = 1 over a distance kernel that is the kNN graph.

    A draw is scored exactly when the tape would record it
    (``numerics.records`` of the kernel's features and t): each edge's
    first-pick log-probability, log p_ij - logsumexp_{l != i} log p_il, from
    ``kernel_edge_scores``. Any other draw only selects edges and its
    ``log_probs`` is None. Gumbel-Top-k ignores a per-row constant, so the
    same noise picks the same edges either way.
    """
    return gumbel_topk_samples(log_p, k, [rng])[0]


def gumbel_topk_samples(log_p: EdgeScores, k: int, rngs) -> list[SampledGraph]:
    """One draw of k out-edges per node over one ``EdgeScores`` for each
    generator of ``rngs``, in one pass over its row blocks, as a list of
    ``SampledGraph``: draw s is the draw of ``gumbel_topk_sample(log_p, k,
    rng=rngs[s])``, and leaves ``rngs[s]`` where that call would.

    Each block's scores are computed once and serve every draw: per draw the
    block's Gumbel noise is filled from its own generator, the scores added,
    the diagonal masked and a threshold top-k taken, so self-edges never
    occur and every node ends with exactly k out-edges. Jobs run
    block-major, (block b, draw s). Noise comes from ``gumbel_fill`` into a
    reused buffer, or into two while a ``BlockHelper`` fills the next job's
    ahead (only on a pass of at least ``HELPER_MIN_BLOCKS`` blocks).
    ``[None]`` is the one noise-free draw; None among more generators is a
    ValueError, and no generators give no draws.

    Only a one-draw pass is scored (see ``gumbel_topk_sample``); a scored
    pass of more draws is a ValueError.
    """
    n, count = log_p.shape[0], len(rngs)
    if not 1 <= k < n:
        raise ValueError(f"k={k} out-edges per node impossible with {n} nodes")
    noise_free = None in rngs
    if noise_free and count > 1:
        raise ValueError(f"gumbel_topk_samples: only a one-draw pass is noise-free, "
                         f"got None among {count} generators")
    scored = nm.records(log_p.kernel.features, log_p.t)
    if scored and count > 1:
        raise ValueError(f"gumbel_topk_samples: only a one-draw pass is scored, "
                         f"got {count} draws with gradients on")

    targets = np.empty((count, n, k), dtype=np.intp)
    if scored:
        raw, row_lse = np.empty((n, k)), np.empty(n)
    step = rows_per_block(n)
    blocks = list(row_blocks(n, step))
    jobs = len(blocks) * count
    with BlockHelper(0 if noise_free else len(blocks)) as helper:
        # with the helper, job j + 1's noise is filled while job j is ranked
        buffers = [] if noise_free else [np.empty((min(step, n), n))
                                         for _ in range(1 + helper.lag)]

        def job_noise(j):
            b, s = divmod(j, count)
            r0, r1 = blocks[b]
            return gumbel_fill(rngs[s], buffers[j % len(buffers)][:r1 - r0])

        def block_lse(scores, rows):
            row_lse[rows] = offdiag_logsumexp(scores, rows)

        fills = [helper.submit(job_noise, j) for j in range(helper.lag)]
        for j in range(jobs):
            b, s = divmod(j, count)
            if not noise_free and j + helper.lag < jobs:
                fills.append(helper.submit(job_noise, j + helper.lag))
            r0, r1 = blocks[b]
            if s == 0:
                rows = np.arange(r0, r1)
                scores = log_p.rows(r0, r1)
            if noise_free:
                # ranked in place: masking the diagonal moves no edge's score
                # and offdiag_logsumexp masks it anyway
                perturbed = scores
            else:
                perturbed = fills[j].result()
                perturbed += scores
            fill_block_diagonal(perturbed, rows, -np.inf)
            targets[s, r0:r1] = topk_desc(perturbed, k)
            if scored:
                raw[r0:r1] = scores[np.arange(r1 - r0)[:, None], targets[0, r0:r1]]
                helper.submit(block_lse, scores, rows)
    sources = np.repeat(np.arange(n), k)
    graphs = [SampledGraph(edges=np.column_stack([sources, t.reshape(-1)]), log_probs=None,
                           n_nodes=n) for t in targets]
    if scored:
        graphs[0].log_probs = kernel_edge_scores(log_p.kernel, log_p.t, targets[0], raw,
                                                 row_lse)
    return graphs


def knn_static_graph(features, k: int, metric: str = "cosine") -> np.ndarray:
    """Deterministic k-nearest-neighbor edges: a noise-free draw at t = 1,
    which ranks each row's negated squared distances, ties to the lower
    index. Returns an (N*k, 2) directed edge array."""
    with nm.no_grad():
        return gumbel_topk_sample(edge_probabilities(pairwise_distance(features, metric), 1.0),
                                  k).edges


def random_graph(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """k distinct uniform out-edges per node, never to itself, as an (N*k, 2)
    edge array grouped by source.

    Floyd's rule (Bentley and Floyd, CACM 1987) over each node's n - 1
    others, every node at once from one ``rng.integers`` call of an (n, k)
    array whose column c is uniform on [0, n - k + c). For c = 1 .. k - 1, a
    row whose column c repeats one of its earlier columns takes
    n - k + c - 1 there instead, a value no earlier column can hold. Each
    node's targets are a uniform k-subset, but in Floyd's order, not a
    uniform order; ``symmetrize`` and ``homophily_score`` read them as a
    set. ``rng`` ends where that one call leaves it.
    """
    if not 1 <= k < n:
        raise ValueError(f"k={k} out-edges per node impossible with {n} nodes")
    targets = rng.integers(0, np.arange(n - k, n), size=(n, k), dtype=np.intp)
    for c in range(1, k):
        repeat = (targets[:, :c] == targets[:, c, None]).any(axis=1)
        targets[repeat, c] = n - k + c - 1
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
