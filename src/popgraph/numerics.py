"""Dense float64 tensors with a reverse-mode gradient tape.

The tape holds the pipeline's stages, not their arithmetic: the attention
scorer's and the GCN's layers (``dense``, ``sigmoid``), the phenotype
gating (``mul_rowvec``), the temperature (``exp``), the regression head's
one output column as a vector (``reshape``), the graph draw's edge scores,
and one op per loss term. The pipeline runs every primitive here; an op
only tests need lives in the tests. Every op checks its output for NaN/Inf
and raises instead of propagating garbage.

``record_op`` is the one way onto the tape. Each primitive here records
through it, and so does each op of another module (the edge scores, the
attention min-max, each loss term and their sum): its forward and its
closed-form backward as one op. ``log_softmax_rows`` is plain numpy, off
the tape, for the cross-entropy loss and the logistic baseline.

The tape is thread-local: one training run owns one tape. Independent runs
may execute on separate threads without sharing state.
"""

from __future__ import annotations

import threading
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
    "dense",
    "mul_rowvec",
    "record_op",
    "log_softmax_rows",
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
# shape primitives
# ---------------------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    old = a.shape
    out = np.reshape(a.values, shape)
    return record_op("reshape", out, (a,), lambda g: (g.reshape(old),))


def log_softmax_rows(values: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of an (n, c) array, off the tape."""
    shifted = values - values.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
