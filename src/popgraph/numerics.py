"""Dense float64 tensors with a reverse-mode gradient tape.

Covers exactly what the pipeline needs: affine layers, graph convolutions,
row-blocked pairwise-distance kernels, and scalar losses. Broadcasting is
limited to scalar-vs-tensor so shape mistakes fail loudly. Every primitive
checks its output for NaN/Inf and raises instead of propagating garbage.

The tape is thread-local: one training run owns one tape. Independent runs
may execute on separate threads without sharing state.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "NumericsError",
    "ShapeError",
    "NonFiniteError",
    "no_grad",
    "backward",
    "reset_tape",
    "gather_rows",
    "masked_select",
    "add_rowvec",
    "mul_rowvec",
    "log_softmax_rows",
    "take_per_row",
    "BLOCK_ENTRIES",
    "rows_per_block",
    "row_blocks",
    "fill_block_diagonal",
    "gumbel_fill",
    "offdiag_logsumexp",
    "block_distance",
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

    @property
    def size(self) -> int:
        return self.values.size

    def zero_grad(self) -> None:
        if self.requires_grad:
            self.grad = np.zeros_like(self.values)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # operators
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def mean(self, axis=None):
        return mean(self, axis=axis)

    def sum(self, axis=None):
        return tsum(self, axis=axis)


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _apply(name: str, out_values: np.ndarray, parents: Sequence[Tensor],
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
    track = _grad_enabled() and any(p.requires_grad for p in parents)
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
            if parent.grad is None:
                # a copy: ``add`` hands the same array to both parents
                parent.grad = np.array(contribution, dtype=np.float64)
            else:
                parent.grad += contribution
    ops.clear()
    _TLS.epoch = _tape_epoch() + 1


# ---------------------------------------------------------------------------
# elementwise / arithmetic primitives
# ---------------------------------------------------------------------------


def _binary_shapes(name: str, a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape and a.shape != () and b.shape != ():
        raise ShapeError(f"{name}: shapes {a.shape} and {b.shape} do not conform "
                         "(equal shapes or scalar broadcast only)")


def _reduce_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    # reduce a full-shape gradient back to a scalar operand
    if shape == () and g.shape != ():
        return np.sum(g)
    return g


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_shapes("add", a, b)
    return _apply("add", a.values + b.values, (a, b),
                  lambda g: (_reduce_to(g, a.shape), _reduce_to(g, b.shape)))


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_shapes("sub", a, b)
    return _apply("sub", a.values - b.values, (a, b),
                  lambda g: (_reduce_to(g, a.shape), _reduce_to(-g, b.shape)))


def neg(a) -> Tensor:
    a = _as_tensor(a)
    return _apply("neg", -a.values, (a,), lambda g: (-g,))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_shapes("mul", a, b)
    av, bv = a.values, b.values
    return _apply("mul", av * bv, (a, b),
                  lambda g: (_reduce_to(g * bv, a.shape), _reduce_to(g * av, b.shape)))


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _binary_shapes("div", a, b)
    av, bv = a.values, b.values
    with np.errstate(divide="ignore", invalid="ignore"):
        out = av / bv
    return _apply("div", out, (a, b),
                  lambda g: (_reduce_to(g / bv, a.shape),
                             _reduce_to(-g * av / (bv * bv), b.shape)))


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul: unsupported ranks {a.shape} @ {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    av, bv = a.values, b.values
    return _apply("matmul", av @ bv, (a, b), lambda g: (g @ bv.T, av.T @ g))


def add_rowvec(matrix, vec) -> Tensor:
    """matrix (n, m) + vec (m,) broadcast over rows (bias add)."""
    matrix, vec = _as_tensor(matrix), _as_tensor(vec)
    if matrix.ndim != 2 or vec.ndim != 1 or matrix.shape[1] != vec.shape[0]:
        raise ShapeError(f"add_rowvec: shapes {matrix.shape} and {vec.shape} do not conform")
    return _apply("add_rowvec", matrix.values + vec.values[None, :], (matrix, vec),
                  lambda g: (g, g.sum(axis=0)))


def mul_rowvec(matrix, vec) -> Tensor:
    """matrix (n, m) * vec (m,) broadcast over rows (per-column scaling)."""
    matrix, vec = _as_tensor(matrix), _as_tensor(vec)
    if matrix.ndim != 2 or vec.ndim != 1 or matrix.shape[1] != vec.shape[0]:
        raise ShapeError(f"mul_rowvec: shapes {matrix.shape} and {vec.shape} do not conform")
    mv, vv = matrix.values, vec.values
    return _apply("mul_rowvec", mv * vv[None, :], (matrix, vec),
                  lambda g: (g * vv[None, :], (g * mv).sum(axis=0)))


def relu(a) -> Tensor:
    a = _as_tensor(a)
    av = a.values
    return _apply("relu", np.maximum(av, 0.0), (a,), lambda g: (g * (av > 0),))


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-a.values))
    return _apply("sigmoid", s, (a,), lambda g: (g * s * (1.0 - s),))


def exp(a) -> Tensor:
    a = _as_tensor(a)
    with np.errstate(over="ignore"):
        out = np.exp(a.values)
    return _apply("exp", out, (a,), lambda g: (g * out,))


def square(a) -> Tensor:
    a = _as_tensor(a)
    av = a.values
    return _apply("square", av * av, (a,), lambda g: (2.0 * av * g,))


def sqrt(a) -> Tensor:
    a = _as_tensor(a)
    with np.errstate(invalid="ignore"):
        out = np.sqrt(a.values)
    # subgradient 0 at exactly zero; avoids Inf on zeroed diagonals
    return _apply("sqrt", out, (a,),
                  lambda g: (np.where(out > 0, g / (2.0 * np.where(out > 0, out, 1.0)), 0.0),))


def absolute(a) -> Tensor:
    a = _as_tensor(a)
    av = a.values
    return _apply("abs", np.abs(av), (a,), lambda g: (g * np.sign(av),))


# ---------------------------------------------------------------------------
# shape / indexing primitives
# ---------------------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = _as_tensor(a)
    old = a.shape
    out = np.reshape(a.values, shape)
    return _apply("reshape", out, (a,), lambda g: (g.reshape(old),))


def gather_rows(a, indices) -> Tensor:
    """Select rows (2-D) or elements (1-D) by integer index, with repeats."""
    a = _as_tensor(a)
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

    return _apply("gather_rows", a.values[idx], (a,), bwd)


def masked_select(a, mask) -> Tensor:
    """Keep rows (2-D) or elements (1-D) where mask is True."""
    a = _as_tensor(a)
    m = np.asarray(mask, dtype=bool)
    if a.ndim not in (1, 2) or m.shape != (a.shape[0],):
        raise ShapeError(f"masked_select: mask shape {m.shape} does not match operand {a.shape}")
    shape = a.shape

    def bwd(g):
        z = np.zeros(shape)
        z[m] = g
        return (z,)

    return _apply("masked_select", a.values[m], (a,), bwd)


def take_per_row(matrix, cols) -> Tensor:
    """out[i] = matrix[i, cols[i]] (per-row element pick)."""
    matrix = _as_tensor(matrix)
    c = np.asarray(cols, dtype=np.intp)
    if matrix.ndim != 2 or c.shape != (matrix.shape[0],):
        raise ShapeError(f"take_per_row: shapes {matrix.shape} and {c.shape} do not conform")
    n = matrix.shape[0]
    shape = matrix.shape

    def bwd(g):
        z = np.zeros(shape)
        np.add.at(z, (np.arange(n), c), g)
        return (z,)

    return _apply("take_per_row", matrix.values[np.arange(n), c], (matrix,), bwd)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def tsum(a, axis=None) -> Tensor:
    a = _as_tensor(a)
    shape = a.shape

    if axis is None:
        return _apply("sum", np.sum(a.values), (a,),
                      lambda g: (np.broadcast_to(g, shape).copy(),))

    def bwd(g):
        return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

    return _apply("sum", np.sum(a.values, axis=axis), (a,), bwd)


def mean(a, axis=None) -> Tensor:
    a = _as_tensor(a)
    shape = a.shape

    if axis is None:
        n = a.size
        return _apply("mean", np.mean(a.values), (a,),
                      lambda g: (np.broadcast_to(g / n, shape).copy(),))

    n = shape[axis]

    def bwd(g):
        return (np.broadcast_to(np.expand_dims(g / n, axis), shape).copy(),)

    return _apply("mean", np.mean(a.values, axis=axis), (a,), bwd)


def log_softmax_rows(logits) -> Tensor:
    """Row-wise log-softmax of an (n, c) matrix."""
    logits = _as_tensor(logits)
    if logits.ndim != 2:
        raise ShapeError(f"log_softmax_rows: operand must be 2-D, got {logits.shape}")
    v = logits.values
    shifted = v - v.max(axis=1, keepdims=True)
    out = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    def bwd(g):
        softmax = np.exp(out)
        return (g - softmax * g.sum(axis=1, keepdims=True),)

    return _apply("log_softmax_rows", out, (logits,), bwd)


# ---------------------------------------------------------------------------
# row-blocked pairwise distances and the kernel edge scores built on them
# ---------------------------------------------------------------------------

# entries of one (rows x N) block: 2 MB of float64, so the few block-sized
# temporaries of a pass stay near L2 and no N x N array is ever made
BLOCK_ENTRIES = 1 << 18


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
    ``rows``; masks the own column of ``scores`` to -inf in place."""
    fill_block_diagonal(scores, rows, -np.inf)
    top = scores.max(axis=1)
    return top + np.log(np.exp(scores - top[:, None]).sum(axis=1))


def _sqdist_block(v, r, rows) -> np.ndarray:
    """max(|v_i|^2 + |v_j|^2 - 2 v_i.v_j, 0) for the block's rows i, from v
    and the squared row norms r."""
    s = (-2.0 * v[rows]) @ v.T
    s += r[rows, None] + r
    return np.maximum(s, 0.0, out=s)


def _sqdist_pullback(v, rows, g, scale, acc) -> None:
    """Add the pullback of scale * g through s_ij = |v_i - v_j|^2 for the
    block's rows i; scale multiplies the (N, d) products, so g is read as it
    is and no scaled (rows, N) copy of it is made."""
    vi = v[rows]
    acc += (2.0 * scale) * (g.sum(axis=0)[:, None] * v - g.T @ vi)
    acc[rows] += (2.0 * scale) * (g.sum(axis=1)[:, None] * vi - g @ v)


class _BlockDistance:
    """Distances from a block of rows to every row under one metric.

    A block is a set of rows: an ascending array of distinct row indices.
    The sampler and the kNN graph hand over contiguous ranges; the backward
    of ``kernel_edge_scores`` hands over only the rows that carry gradient.
    ``forward(rows)`` returns the (len(rows), N) block of squared distances,
    zero on each row's own column, as a fresh array the caller may
    overwrite, and what its pullback needs; ``pullback(rows, saved, g,
    scale, acc)`` adds the block's vector-Jacobian product with scale * g
    (zero on the own columns) through the squared distances into
    ``accumulator()``, which ``finish`` turns into d/dv. A row in no block
    adds exactly what a zero row of g would: nothing. ``pullback`` may
    overwrite ``saved``. ``rows(rows)`` gives the distances themselves.

    This base serves metrics that compute d and then d^2: a subclass gives
    ``distances(rows)`` -> (d, saved) and ``distance_pullback``, the same
    product through d.
    """

    def forward(self, rows):
        d, saved = self.distances(rows)
        return d * d, (d, saved)

    def pullback(self, rows, saved, g, scale, acc):
        d, inner = saved
        d *= g
        d *= 2.0 * scale
        self.distance_pullback(rows, inner, d, acc)

    def rows(self, rows):
        return self.distances(rows)[0]

    def accumulator(self):
        return np.zeros_like(self.v)

    def finish(self, acc):
        return acc


class _Euclidean(_BlockDistance):
    """|v_i - v_j|, kept squared: no square root on the kernel's path."""

    def __init__(self, v):
        self.v = v
        self.r = np.sum(v * v, axis=1)

    def forward(self, rows):
        s = _sqdist_block(self.v, self.r, rows)
        fill_block_diagonal(s, rows, 0.0)
        return s, None

    def pullback(self, rows, saved, g, scale, acc):
        _sqdist_pullback(self.v, rows, g, scale, acc)

    def rows(self, rows):
        return np.sqrt(self.forward(rows)[0])


class _Cosine(_BlockDistance):
    """1 - cos(v_i, v_j); a zero row is at distance 1 from every other row
    and gets zero gradient."""

    def __init__(self, v):
        norms = np.sqrt(np.sum(v * v, axis=1))
        self.nonzero = norms > 0.0
        self.safe = np.where(self.nonzero, norms, 1.0)
        self.v = self.u = v / self.safe[:, None]

    def distances(self, rows):
        d = 1.0 - self.u[rows] @ self.u.T
        fill_block_diagonal(d, rows, 0.0)
        return d, None

    def distance_pullback(self, rows, saved, g, acc):
        # acc collects d(loss)/du
        u = self.u
        acc -= g.T @ u[rows]
        acc[rows] -= g @ u

    def finish(self, acc):
        u = self.u
        gf = (acc - u * np.sum(acc * u, axis=1)[:, None]) / self.safe[:, None]
        gf[~self.nonzero] = 0.0
        return gf


class _Poincare(_BlockDistance):
    """arcosh(1 + 2|v_i - v_j|^2 / ((1 - |v_i|^2)(1 - |v_j|^2))) for rows
    strictly inside the unit ball; zero subgradient at coincident points."""

    def __init__(self, v):
        self.v = v
        self.r = np.sum(v * v, axis=1)
        if np.any(self.r >= 1.0):
            raise NumericsError("poincare distance: rows must lie strictly inside "
                                "the unit ball; rescale inputs first")
        self.b = 1.0 - self.r

    def distances(self, rows):
        a = _sqdist_block(self.v, self.r, rows)
        b = np.outer(self.b[rows], self.b)
        z = 1.0 + 2.0 * a / b
        d = np.arccosh(np.maximum(z, 1.0))
        fill_block_diagonal(d, rows, 0.0)
        return d, (a, b, z)

    def accumulator(self):
        # d(loss)/dv through |v_i - v_j|^2, and d(loss)/d(1 - |v_i|^2)
        return np.zeros_like(self.v), np.zeros_like(self.b)

    def distance_pullback(self, rows, saved, g, acc):
        a, b, z = saved
        gv, db = acc
        zsq = np.maximum(z * z - 1.0, 0.0)
        w = np.where(zsq > 1e-24, g / np.sqrt(np.where(zsq > 0, zsq, 1.0)), 0.0)
        gb = w * (-2.0 * a / (b * b))
        _sqdist_pullback(self.v, rows, w * (2.0 / b), 1.0, gv)
        db += gb.T @ self.b[rows]
        db[rows] += gb @ self.b

    def finish(self, acc):
        gv, db = acc
        return gv - 2.0 * db[:, None] * self.v


BLOCK_METRICS = {"euclidean": _Euclidean, "cosine": _Cosine, "hyperbolic": _Poincare}


def block_distance(metric: str, v: np.ndarray):
    """Row-block distance kernel of one metric over the rows of v: ``rows(rows)``
    gives the (len(rows), N) block of a set of rows, zero on each row's own
    column."""
    if metric not in BLOCK_METRICS:
        raise ValueError(f"unknown distance metric {metric!r}; expected one of "
                         f"{tuple(BLOCK_METRICS)}")
    return BLOCK_METRICS[metric](v)


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


def kernel_edge_scores(features, t, metric: str, edges, raw, row_lse) -> Tensor:
    """Record each (src, dst) edge's first-pick log-probability under log p =
    -t d(f_src, f_dst)^2: log p_e - logsumexp_{l != src} log p_src,l
    (Plackett-Luce). The sampler's own pass over the blocks already has each
    edge's ``raw`` log p and the (N,) off-diagonal ``row_lse`` of every row,
    so the forward only subtracts.

    The backward recomputes the distances block by block of source rows, so
    no N x N array outlives a block, and only the source rows with at least
    one edge of nonzero upstream gradient, in blocks that are sets of such
    rows. Every other row's gradient block is exactly zero: its normalizer
    weight, the sum of its edges' gradients, is zero and no edge gradient
    lands in it. Each block's gradient is built in one pass, in place in one
    (rows, N) buffer reused across blocks.
    """
    f, t = _as_tensor(features), _as_tensor(t)
    if f.ndim != 2 or f.shape[0] < 2:
        raise ShapeError(f"kernel_edge_scores: features must be 2-D with at least "
                         f"2 rows, got {f.shape}")
    n = f.shape[0]
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
    dist = block_distance(metric, f.values)
    tv = float(t.values)

    def bwd(g):
        g_rows = np.bincount(src, weights=g, minlength=n)
        live_edges = np.flatnonzero(g)
        live = np.unique(src[live_edges])
        acc = dist.accumulator()
        g_t = 0.0
        buffer = np.empty((min(step, len(live)), n))
        for rows, sel, pos in _edge_blocks(live, src[live_edges], step):
            sel = live_edges[sel]
            sq, saved = dist.forward(rows)
            # d(loss)/d(log p) of the block: -g_rows times the first-pick
            # softmax, plus each edge's own gradient
            g_s = buffer[:len(rows)]
            np.multiply(sq, -tv, out=g_s)
            g_s -= row_lse[rows, None]
            fill_block_diagonal(g_s, rows, -np.inf)
            np.exp(g_s, out=g_s)
            g_s *= -g_rows[rows, None]
            np.add.at(g_s.reshape(-1), pos * n + dst[sel], g[sel])
            g_t -= np.dot(g_s.reshape(-1), sq.reshape(-1))
            sq = None  # free the block before the pullback's temporaries
            dist.pullback(rows, saved, g_s, -tv, acc)
        return dist.finish(acc), np.array(g_t)

    return _apply("kernel_edge_scores", raw - row_lse[src], (f, t), bwd)
