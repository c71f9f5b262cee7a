"""Dense float64 tensors with a reverse-mode gradient tape.

The tape holds the pipeline's stages, not their arithmetic: the attention
scorer's and the GCN's layers (``dense``, ``sigmoid``), the phenotype
gating (``mul_rowvec``), the temperature (``exp``), the row-blocked kernel
edge scores, and one op per loss term. Every op checks its output for
NaN/Inf and raises instead of propagating garbage.

``record_op`` is the one way onto the tape. Each primitive here records
through it, and so does each op of another module (the attention min-max,
each loss term and their sum): its forward and its closed-form backward as
one op. ``log_softmax_rows`` is plain numpy, off the tape, for the
cross-entropy loss and the logistic baseline.

Each distance metric is one ``BlockDistance`` kernel (``BLOCK_METRICS``)
that maps the raw features to squared distances a block of rows at a time
and pulls gradients back to those features; the hyperbolic kernel puts the
rows inside the unit ball itself. ``graphgen.pairwise_distance`` is the one
constructor.

The tape is thread-local: one training run owns one tape. Independent runs
may execute on separate threads without sharing state.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "as_tensor",
    "NumericsError",
    "ShapeError",
    "NonFiniteError",
    "no_grad",
    "records",
    "backward",
    "reset_tape",
    "gather_rows",
    "dense",
    "mul_rowvec",
    "record_op",
    "log_softmax_rows",
    "BLOCK_ENTRIES",
    "HELPER_MIN_BLOCKS",
    "BlockHelper",
    "rows_per_block",
    "row_blocks",
    "fill_block_diagonal",
    "gumbel_fill",
    "offdiag_logsumexp",
    "BALL_MARGIN",
    "BlockDistance",
    "kernel_edge_scores",
]


class NumericsError(Exception):
    """Base error for tensor-engine contract violations."""


class ShapeError(NumericsError):
    """Operand shapes do not conform for a primitive."""


class NonFiniteError(NumericsError):
    """A computation produced NaN or Inf."""


_TLS = threading.local()


def _ops() -> list:
    ops = getattr(_TLS, "ops", None)
    if ops is None:
        ops = _TLS.ops = []
    return ops


def _grad_enabled() -> bool:
    return getattr(_TLS, "grad_enabled", True)


def _tape_epoch() -> int:
    return getattr(_TLS, "epoch", 0)


class no_grad:
    """Context manager that disables tape recording (inference passes)."""

    def __enter__(self):
        self._prev = _grad_enabled()
        _TLS.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _TLS.grad_enabled = self._prev
        return False


def records(*tensors: Tensor) -> bool:
    """Whether an op over ``tensors`` goes on the tape, and so whether a
    graph draw over them is scored: gradients on and one requires grad."""
    return _grad_enabled() and any(t.requires_grad for t in tensors)


def reset_tape() -> None:
    """Drop all recorded operations without running backward."""
    _ops().clear()
    _TLS.epoch = _tape_epoch() + 1


class Tensor:
    """A dense float64 array plus an optional accumulated gradient."""

    __slots__ = ("values", "requires_grad", "grad", "_from_op", "_epoch")

    def __init__(self, values, requires_grad: bool = False):
        v = np.asarray(values, dtype=np.float64)
        if not np.all(np.isfinite(v)):
            raise NonFiniteError("tensor initialized with non-finite values")
        self.values = v
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(v) if requires_grad else None
        self._from_op = False
        self._epoch = _tape_epoch()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    def zero_grad(self) -> None:
        if self.requires_grad:
            self.grad = np.zeros_like(self.values)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def as_tensor(x) -> Tensor:
    """``x`` itself if it is a Tensor, else a constant Tensor of its values."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def record_op(name: str, out_values: np.ndarray, parents: Sequence[Tensor],
              backward_fn: Callable) -> Tensor:
    """Record one primitive on the tape and return its output tensor.

    ``backward_fn(g)`` must return one gradient array (or None) per parent,
    each shaped like that parent's values.
    """
    out_values = np.asarray(out_values, dtype=np.float64)
    if not np.all(np.isfinite(out_values)):
        raise NonFiniteError(f"{name}: result contains non-finite values")
    out = Tensor.__new__(Tensor)
    out.values = out_values
    track = records(*parents)
    out.requires_grad = track
    out.grad = None
    out._from_op = track
    out._epoch = _tape_epoch()
    if track:
        _ops().append((out, tuple(parents), backward_fn))
    return out


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(tensor) into every requires-grad tensor.

    Walks the thread-local tape in exact reverse order of the forward pass,
    then consumes it. Contributions add, so a tensor used twice receives the
    sum of both paths.

    Each tensor owns its ``grad``, so an op's backward may overwrite its
    upstream ``g`` in place. A first contribution that is fresh (a float64
    ndarray of the parent's shape that owns its data and is not ``g``)
    becomes the parent's gradient as it is; any other, such as
    ``total_loss``'s ``g`` or ``reshape``'s view of it, is copied. So no backward may return
    an array that it also keeps.
    """
    if loss.shape != ():
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise NumericsError("loss does not depend on any requires-grad tensor")
    ops = _ops()
    if loss._from_op and (loss._epoch != _tape_epoch() or not ops):
        raise NumericsError("tape already consumed; run a new forward pass before backward")
    loss.grad = np.ones(())
    for out, parents, backward_fn in reversed(ops):
        g = out.grad
        if g is None or not g.any():
            continue
        contributions = backward_fn(g)
        for parent, contribution in zip(parents, contributions):
            if contribution is None or not parent.requires_grad:
                continue
            if parent.grad is not None:
                parent.grad += contribution
            elif (isinstance(contribution, np.ndarray) and contribution is not g
                  and contribution.dtype == np.float64 and contribution.flags.owndata
                  and contribution.shape == parent.shape):
                parent.grad = contribution
            else:
                parent.grad = np.array(contribution, dtype=np.float64)
    ops.clear()
    _TLS.epoch = _tape_epoch() + 1


# ---------------------------------------------------------------------------
# layers and elementwise primitives
# ---------------------------------------------------------------------------


def dense(x, w, b=None, relu: bool = False) -> Tensor:
    """One layer as one op: x (n, m) @ w (m, h), plus b (h,) on every row if
    given, then ReLU if ``relu``, in one (n, h) array. The pre-activation is
    checked for non-finite values before the ReLU overwrites it in place. The
    backward masks its ``g`` in place and returns d/dx only when ``x``
    requires grad, so a constant input costs no (n, m) product."""
    x, w = as_tensor(x), as_tensor(w)
    parents = (x, w) if b is None else (x, w, as_tensor(b))
    if (x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]
            or b is not None and parents[2].shape != (w.shape[1],)):
        raise ShapeError("dense: shapes " + ", ".join(str(p.shape) for p in parents)
                         + " do not conform to x (n, m), w (m, h), b (h,)")
    xv, wv = x.values, w.values
    out = xv @ wv
    if b is not None:
        out += parents[2].values

    def bwd(g):
        if relu:
            np.multiply(g, out > 0.0, out=g)
        grads = (g @ wv.T if x.requires_grad else None, xv.T @ g)
        return grads if b is None else grads + (g.sum(axis=0),)

    result = record_op("dense", out, parents, bwd)
    if relu:
        np.maximum(out, 0.0, out=out)
    return result


def mul_rowvec(matrix, vec) -> Tensor:
    """matrix (n, m) * vec (m,) broadcast over rows (per-column scaling)."""
    matrix, vec = as_tensor(matrix), as_tensor(vec)
    if matrix.ndim != 2 or vec.ndim != 1 or matrix.shape[1] != vec.shape[0]:
        raise ShapeError(f"mul_rowvec: shapes {matrix.shape} and {vec.shape} do not conform")
    mv, vv = matrix.values, vec.values
    return record_op("mul_rowvec", mv * vv[None, :], (matrix, vec),
                     lambda g: (g * vv[None, :], (g * mv).sum(axis=0)))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-a.values))
    return record_op("sigmoid", s, (a,), lambda g: (g * s * (1.0 - s),))


def exp(a) -> Tensor:
    a = as_tensor(a)
    with np.errstate(over="ignore"):
        out = np.exp(a.values)
    return record_op("exp", out, (a,), lambda g: (g * out,))


# ---------------------------------------------------------------------------
# shape / indexing primitives
# ---------------------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    old = a.shape
    out = np.reshape(a.values, shape)
    return record_op("reshape", out, (a,), lambda g: (g.reshape(old),))


def gather_rows(a, indices) -> Tensor:
    """Select rows (2-D) or elements (1-D) by integer index, with repeats."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows: indices must be 1-D, got shape {idx.shape}")
    if a.ndim not in (1, 2):
        raise ShapeError(f"gather_rows: operand must be 1-D or 2-D, got {a.shape}")
    shape = a.shape

    def bwd(g):
        z = np.zeros(shape)
        np.add.at(z, idx, g)
        return (z,)

    return record_op("gather_rows", a.values[idx], (a,), bwd)


def log_softmax_rows(values: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of an (n, c) array, off the tape."""
    shifted = values - values.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


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


class _Done:
    """A job already run on the calling thread, read like its Future."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def result(self):
        return self.value


class BlockHelper:
    """The helper-thread jobs of one pass over ``n_blocks`` row blocks.

    ``submit(fn, *args)`` runs fn(*args) and returns a handle whose
    ``result()`` is fn's value. On a pass of at least ``HELPER_MIN_BLOCKS``
    blocks it runs on the module's one helper thread, one job at a time in
    submission order, while the caller goes on with its own part of the
    pass; ``lag`` is 1. On a shorter pass it runs at once on the calling
    thread and ``lag`` is 0. A job works in place on
    arrays the caller allocated and does not allocate block-sized arrays: a
    thread's own malloc arena would keep those resident. Leaving the ``with``
    block waits for every job, so none outlives the pass, whether it returns
    or raises; on a normal exit a job's exception is raised there.
    """

    def __init__(self, n_blocks: int):
        self.lag = int(n_blocks >= HELPER_MIN_BLOCKS)
        self._jobs = []

    def submit(self, fn, *args):
        if not self.lag:
            return _Done(fn(*args))
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
        z = 1.0 + 2.0 * a / b
        d = np.arccosh(np.maximum(z, 1.0))
        fill_block_diagonal(d, rows, 0.0)
        return d * d, (d, a, b, z)

    def accumulator(self):
        # d(loss)/du through |u_i - u_j|^2, and d(loss)/d(1 - |u_i|^2)
        return np.zeros_like(self.v), np.zeros_like(self.b)

    def pullback(self, rows, saved, g, scale, acc):
        d, a, b, z = saved
        d *= g
        d *= 2.0 * scale
        gv, db = acc
        zsq = np.maximum(z * z - 1.0, 0.0)
        w = np.where(zsq > 1e-24, d / np.sqrt(np.where(zsq > 0, zsq, 1.0)), 0.0)
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


def _edge_blocks(live: np.ndarray, src: np.ndarray, step: int):
    """Cut the ascending row set ``live`` into blocks of ``step`` rows and
    give each edge, by its source (a member of ``live``), to its block.
    Yields (rows, the block's edge indices, each such edge's row position
    within the block)."""
    pos = np.searchsorted(live, src)
    order = np.argsort(pos, kind="stable")
    cuts = np.searchsorted(pos, np.arange(0, len(live) + step, step), sorter=order)
    for b, c0 in enumerate(range(0, len(live), step)):
        sel = order[cuts[b]:cuts[b + 1]]
        yield live[c0:c0 + step], sel, pos[sel] - c0


def kernel_edge_scores(dist: BlockDistance, t, edges, raw, row_lse) -> Tensor:
    """Record each (src, dst) edge's first-pick log-probability under log p =
    -t d^2 over the kernel ``dist``: log p_e - logsumexp_{l != src} log
    p_src,l (Plackett-Luce). The sampler's own pass over ``dist`` already has
    each edge's ``raw`` log p and the (N,) off-diagonal ``row_lse`` of every
    row, so the forward only subtracts.

    The backward recomputes blocks through ``dist`` itself, so gradients reach
    ``dist.features`` and no N x N array outlives a block. It visits only the
    source rows with at least one edge of nonzero upstream gradient, in
    blocks that are sets of such rows. Every other row's gradient block is
    exactly zero: its normalizer weight, the sum of its edges' gradients, is
    zero and no edge gradient lands in it. Each block's gradient is built in
    one pass, in place in a (rows, N) buffer reused across blocks. On a pass
    of enough blocks a ``BlockHelper`` builds it, and its product with the
    squared distances, on the helper thread, into one of two buffers, while
    the caller computes the next block's distances and pulls the previous
    block back; the caller adds every block's share in block order.
    """
    t = as_tensor(t)
    n = dist.shape[0]
    if t.shape != ():
        raise ShapeError(f"kernel_edge_scores: t must be scalar, got {t.shape}")
    edges = np.asarray(edges, dtype=np.intp)
    if edges.ndim != 2 or edges.shape[1] != 2 or np.any((edges < 0) | (edges >= n)):
        raise ShapeError(f"kernel_edge_scores: edges must be (E, 2) node indices "
                         f"below {n}")
    src, dst = edges[:, 0], edges[:, 1]
    if np.any(src == dst):
        raise ValueError("kernel_edge_scores: edges contain self-edges")
    if np.shape(raw) != (len(src),) or np.shape(row_lse) != (n,):
        raise ShapeError("kernel_edge_scores: need one raw score per edge and one "
                         "row logsumexp per row")
    step = rows_per_block(n)
    tv = float(t.values)

    def bwd(g):
        g_rows = np.bincount(src, weights=g, minlength=n)
        live_edges = np.flatnonzero(g)
        live = np.unique(src[live_edges])
        acc = dist.accumulator()
        g_t = 0.0

        def block_grad(g_s, sq, rows, sel, pos):
            # d(loss)/d(log p) of the block: -g_rows times the first-pick
            # softmax, plus each edge's own gradient; returns its dot with sq
            np.multiply(sq, -tv, out=g_s)
            g_s -= row_lse[rows, None]
            fill_block_diagonal(g_s, rows, -np.inf)
            np.exp(g_s, out=g_s)
            g_s *= -g_rows[rows, None]
            np.add.at(g_s.reshape(-1), pos * n + dst[sel], g[sel])
            return np.dot(g_s.reshape(-1), sq.reshape(-1))

        def pull_back(rows, saved, g_s, job):
            dot = job.result()  # g_s is complete once its job is
            dist.pullback(rows, saved, g_s, -tv, acc)
            return dot

        blocks = list(_edge_blocks(live, src[live_edges], step))
        pending = []
        with BlockHelper(len(blocks)) as helper:
            buffers = [np.empty((min(step, len(live)), n)) for _ in range(1 + helper.lag)]
            for b, (rows, sel, pos) in enumerate(blocks):
                sq, saved = dist.forward(rows)
                g_s = buffers[b % len(buffers)][:len(rows)]
                job = helper.submit(block_grad, g_s, sq, rows, live_edges[sel], pos)
                sq = None  # free the block before the pullback's temporaries
                pending.append((rows, saved, g_s, job))
                if len(pending) > helper.lag:
                    g_t -= pull_back(*pending.pop(0))
            for block in pending:
                g_t -= pull_back(*block)
        return dist.finish(acc), np.array(g_t)

    return record_op("kernel_edge_scores", raw - row_lse[src], (dist.features, t), bwd)
