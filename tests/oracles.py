"""Independent oracles shared by module and acceptance tests.

Everything here is deliberately brute force: enumerations and direct
formulas that are slow but obviously correct, for checking the fast paths.
"""

import math
from dataclasses import dataclass, field
from itertools import permutations
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import minimize
from scipy.special import log_softmax, logsumexp

from popgraph import graphgen
from popgraph import numerics as nm
from popgraph.graphgen import pairwise_distance


def softmax(values: np.ndarray) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    e = np.exp(v - v.max())
    return e / e.sum()


def plackett_luce_set_probs(weights, k: int) -> dict:
    """Probability of each unordered size-k subset under sequential sampling
    without replacement, by summing over all orderings."""
    w = np.asarray(weights, dtype=float)
    out = {}
    for perm in permutations(range(len(w)), k):
        p = 1.0
        remaining = w.sum()
        for j in perm:
            p *= w[j] / remaining
            remaining -= w[j]
        key = frozenset(perm)
        out[key] = out.get(key, 0.0) + p
    return out


def empirical_topk_sets(log_p_row: np.ndarray, self_index: int, k: int,
                        n_draws: int, seed: int, topk_fn) -> dict:
    """Frequency of each unordered selected set when Gumbel noise perturbs one
    row's log scores, using the production top-k selection rule."""
    rng = np.random.default_rng(seed)
    perturbed = log_p_row[None, :] + rng.gumbel(0.0, 1.0, (n_draws, len(log_p_row)))
    perturbed[:, self_index] = -np.inf
    picks = np.sort(topk_fn(perturbed, k), axis=1)
    sets, counts = np.unique(picks, axis=0, return_counts=True)
    return {frozenset(int(v) for v in row): c / n_draws
            for row, c in zip(sets, counts)}


def total_variation(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(key, 0.0) - q.get(key, 0.0)) for key in keys)


def rank_auc(scores: np.ndarray, positives: np.ndarray) -> float:
    """Probability a random positive outscores a random negative, ties at
    half credit, by direct pairwise comparison."""
    pos = np.asarray(scores)[np.asarray(positives, dtype=bool)]
    neg = np.asarray(scores)[~np.asarray(positives, dtype=bool)]
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("need both positive and negative examples")
    wins = 0.0
    for a in pos:
        for b in neg:
            if a > b:
                wins += 1.0
            elif a == b:
                wins += 0.5
    return wins / (len(pos) * len(neg))


# ---------------------------------------------------------------------------
# noise floor for the planted synthetic mechanism
#
# With t uniform on [0,1], the planted column shapes have exact moments:
#   E[t] = 1/2       E[t^2] = 1/3
#   E[sin(pi t/2)] = 2/pi    E[sin^2] = 1/2    E[t sin(pi t/2)] = 4/pi^2
# The best linear predictor of t from noisy columns follows from these, and
# its mean absolute error integrates in closed form against the Gaussian
# noise. Constants are frozen here and cross-checked by quadrature in the
# data tests.
# ---------------------------------------------------------------------------

E_LIN, E_LIN2 = 0.5, 1.0 / 3.0
E_SAT = 2.0 / math.pi
E_SAT2 = 0.5
E_LINSAT = 4.0 / math.pi ** 2

MOMENTS = {
    ("linear", "linear"): E_LIN2,
    ("linear", "saturating"): E_LINSAT,
    ("saturating", "linear"): E_LINSAT,
    ("saturating", "saturating"): E_SAT2,
}
MEANS = {"linear": E_LIN, "saturating": E_SAT}


def blp_mae_floor(shapes, signs, noise_std, age_range):
    """Mean absolute error of the best linear predictor of age from the
    planted columns, by exact moments plus Gauss-Legendre quadrature."""
    k = len(shapes)
    signs = np.asarray(signs, dtype=float)
    mu = np.array([MEANS[s] for s in shapes]) * signs
    cov = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            cov[i, j] = signs[i] * signs[j] * (
                MOMENTS[(shapes[i], shapes[j])] - MEANS[shapes[i]] * MEANS[shapes[j]])
    cov += noise_std ** 2 * np.eye(k)
    b = np.array([signs[j] * (MOMENTS[("linear", shapes[j])] - E_LIN * MEANS[shapes[j]])
                  for j in range(k)])
    w = np.linalg.solve(cov, b)
    s0 = noise_std * float(np.linalg.norm(w))

    x, wq = np.polynomial.legendre.leggauss(96)
    t = 0.5 * (x + 1.0)
    wq = 0.5 * wq
    shape_vals = np.stack([np.sin(0.5 * np.pi * t) if s == "saturating" else t
                           for s in shapes])
    m = (t - E_LIN) - w @ (signs[:, None] * shape_vals - mu[:, None])
    if s0 == 0.0:
        folded = np.abs(m)
    else:
        folded = (s0 * math.sqrt(2.0 / math.pi) * np.exp(-m * m / (2.0 * s0 * s0))
                  + m * np.array([math.erf(v / (s0 * math.sqrt(2.0))) for v in m]))
    lo, hi = age_range
    return (hi - lo) * float(np.sum(wq * folded))


# ---------------------------------------------------------------------------
# dense reference for the row-blocked graph path
#
# The whole (N, N) matrices, built the way the dense pipeline built them:
# distances, kernel, one Gumbel perturbation, a full stable sort per row and
# a dense normalized adjacency.
# ---------------------------------------------------------------------------


def dense_distances(v: np.ndarray, metric: str) -> np.ndarray:
    """All-pairs distances of the rows of v, zero diagonal; hyperbolic
    rescales so the largest row norm is 1 - 1e-3 first, as the kernel
    ``pairwise_distance`` builds does."""
    v = np.asarray(v, dtype=float)
    r = np.sum(v * v, axis=1)
    if metric == "euclidean":
        d = np.sqrt(np.maximum(r[:, None] + r[None, :] - 2.0 * (v @ v.T), 0.0))
    elif metric == "cosine":
        norms = np.sqrt(r)
        u = v / np.where(norms > 0.0, norms, 1.0)[:, None]
        d = 1.0 - u @ u.T
    elif metric == "hyperbolic":
        top = np.sqrt(r).max()
        if top > 0.0:
            v = v * ((1.0 - 1e-3) / top)
            r = np.sum(v * v, axis=1)
        a = np.maximum(r[:, None] + r[None, :] - 2.0 * (v @ v.T), 0.0)
        d = np.arccosh(np.maximum(1.0 + 2.0 * a / np.outer(1.0 - r, 1.0 - r), 1.0))
    else:
        raise ValueError(metric)
    np.fill_diagonal(d, 0.0)
    return d


def kernel_distances(kernel: graphgen.BlockDistance) -> np.ndarray:
    """All rows of a distance kernel's plain distances: the square root of
    its squared-distance ``forward`` over every row."""
    return np.sqrt(kernel.forward(np.arange(kernel.shape[0]))[0])


def dense_edge_forward(v: np.ndarray, t: float, metric: str, targets: np.ndarray):
    """(raw, row_lse) that a sampler's block pass hands
    ``graphgen.kernel_edge_scores`` with the (N, k) grid ``targets``: the
    (N, k) log p = -t d^2 of row i's edge to each targets[i, c] and each
    row's logsumexp over every column but its own, from the dense distances."""
    log_p = -float(t) * dense_distances(v, metric) ** 2
    np.fill_diagonal(log_p, -np.inf)
    return np.take_along_axis(log_p, targets, axis=1), logsumexp(log_p, axis=1)


def dense_kernel_edge_grads(v: np.ndarray, t: float, metric: str, targets: np.ndarray,
                            g: np.ndarray, block_rows: int):
    """(d/dv, d/dt) of sum_e g_e * kernel_edge_scores(pairwise_distance(v,
    metric), t, targets, ...)_e over the (N, k) grid ``targets``, with the
    (N*k,) gradients ``g`` in its row-major order: the backward as first
    written. Every row's block is recomputed, whether or not any of its edges
    carries gradient, in consecutive blocks of ``block_rows`` rows. A block's
    d/d(log p) is built densely: a bincount scatter of the edge gradients,
    less each row's summed gradient times its first-pick softmax (logsumexp
    taken here, not from the forward)."""
    n, k = targets.shape
    dist = pairwise_distance(v, metric)
    src, dst = np.repeat(np.arange(n), k), targets.reshape(-1)
    g_rows = np.bincount(src, weights=g, minlength=n)
    acc = dist.accumulator()
    g_t = 0.0
    for r0 in range(0, n, block_rows):
        r1 = min(r0 + block_rows, n)
        rows = np.arange(r0, r1)
        sq, saved = dist.forward(rows)
        sel = (src >= r0) & (src < r1)
        g_s = np.bincount((src[sel] - r0) * n + dst[sel], weights=g[sel],
                          minlength=(r1 - r0) * n).reshape(r1 - r0, n)
        scores = -t * sq
        scores[rows - r0, rows] = -np.inf
        g_s -= g_rows[r0:r1, None] * np.exp(scores - logsumexp(scores, axis=1)[:, None])
        g_t -= np.sum(g_s * sq)
        dist.pullback(rows, saved, g_s, -t, acc)
    return dist.finish(acc), g_t


class FixedKernel(graphgen.BlockDistance):
    """A fixed (N, N) matrix M read as a distance kernel's squared
    distances: ``forward(rows)`` gives M's rows, and the pullback adds
    nothing, so a scored draw over it back-propagates to the temperature
    only. ``edge_probabilities(FixedKernel(-S), 1.0)`` scores exactly the
    matrix S: the sampler then draws from S as it would from a distance
    kernel's scores."""

    def __init__(self, matrix):
        super().__init__(nm.Tensor(matrix))

    def forward(self, rows):
        return self.v[rows], None

    def pullback(self, rows, saved, g, scale, acc):
        pass


def dense_symmetrize(edges: np.ndarray, n: int) -> np.ndarray:
    """D^(-1/2) (A + I) D^(-1/2) of the undirected union of the edges."""
    a = np.zeros((n, n))
    a[edges[:, 0], edges[:, 1]] = 1.0
    a[edges[:, 1], edges[:, 0]] = 1.0
    np.fill_diagonal(a, 1.0)
    inv_sqrt_deg = 1.0 / np.sqrt(a.sum(axis=1))
    return a * np.outer(inv_sqrt_deg, inv_sqrt_deg)


def dense_draw(v: np.ndarray, t: float, metric: str, k: int, noise: np.ndarray):
    """(edges, first-pick log p per edge, dense A_hat) of one Gumbel-Top-k
    draw with the given (N, N) noise."""
    log_p = -t * dense_distances(v, metric) ** 2
    n = log_p.shape[0]
    perturbed = log_p + noise
    np.fill_diagonal(perturbed, -np.inf)
    targets = np.argsort(-perturbed, axis=1, kind="stable")[:, :k]
    edges = np.column_stack([np.repeat(np.arange(n), k), targets.reshape(-1)])
    masked = log_p.copy()
    np.fill_diagonal(masked, -np.inf)
    top = masked.max(axis=1)
    row_lse = top + np.log(np.exp(masked - top[:, None]).sum(axis=1))
    first_pick = log_p[edges[:, 0], edges[:, 1]] - row_lse[edges[:, 0]]
    return edges, first_pick, dense_symmetrize(edges, n)


def edge_set(graph) -> set:
    """A sampled graph's directed edges as a set of (src, dst) int pairs."""
    return {(int(i), int(j)) for i, j in graph.edges}


# ---------------------------------------------------------------------------
# multinomial logistic optimum
# ---------------------------------------------------------------------------


def logistic_optimum(x: np.ndarray, classes: np.ndarray, n_classes: int):
    """(weights, bias) minimizing the unregularized mean softmax
    cross-entropy, found by L-BFGS-B with an analytic gradient, run until
    the loss stops falling in floating point."""
    n, m = x.shape
    design = np.column_stack([x, np.ones(n)])
    onehot = np.eye(n_classes)[classes]

    def loss_and_grad(flat):
        log_p = log_softmax(design @ flat.reshape(m + 1, n_classes), axis=1)
        grad = design.T @ (np.exp(log_p) - onehot) / n
        return -np.sum(onehot * log_p) / n, grad.ravel()

    result = minimize(loss_and_grad, np.zeros((m + 1) * n_classes), jac=True,
                      method="L-BFGS-B",
                      options={"gtol": 1e-12, "ftol": 0.0, "maxcor": 50,
                               "maxiter": 100_000, "maxfun": 100_000})
    wb = result.x.reshape(m + 1, n_classes)
    return wb[:-1], wb[-1]


# ---------------------------------------------------------------------------
# finite-difference gradient checking and tape inspection
# ---------------------------------------------------------------------------


def tape_size() -> int:
    """Operations recorded on this thread's tape."""
    return len(nm._ops())


def weighted_sum(x, w) -> nm.Tensor:
    """sum(w * x) as one tape op, the scalar loss of a gradient check: its
    backward is g * w. ``w`` is a constant broadcast to x's shape."""
    x = nm.as_tensor(x)
    w = np.broadcast_to(np.asarray(w, dtype=np.float64), x.shape)
    return nm.record_op("weighted_sum", np.sum(x.values * w), (x,), lambda g: (g * w,))


def concat(tensors: Sequence, axis: int = 0) -> nm.Tensor:
    """Tape-recorded concatenation, for building test inputs out of
    separately differentiated parts."""
    parts = [nm.as_tensor(t) for t in tensors]
    if not parts:
        raise nm.ShapeError("concat: no operands")
    nd = parts[0].ndim
    for p in parts[1:]:
        if p.ndim != nd:
            raise nm.ShapeError(f"concat: rank mismatch {parts[0].shape} vs {p.shape}")
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        return tuple(np.take(g, np.arange(offsets[i], offsets[i + 1]), axis=axis)
                     for i in range(len(parts)))

    return nm.record_op("concat", np.concatenate([p.values for p in parts], axis=axis),
                        tuple(parts), bwd)


@dataclass
class GradCheckReport:
    """Comparison of analytic gradients against central finite differences."""

    max_rel_error: float
    worst_param: int
    worst_element: int
    per_param: list = field(default_factory=list)
    tolerance: float = 1e-4
    passed: bool = False
    suspected_nondifferentiable: bool = False

    def summary(self) -> str:
        status = "OK" if self.passed else "FAIL"
        note = " (non-differentiable point suspected)" if self.suspected_nondifferentiable else ""
        return (f"grad_check {status}: max rel error {self.max_rel_error:.3e} "
                f"at param {self.worst_param}[{self.worst_element}] "
                f"(tolerance {self.tolerance:.1e}){note}")


def grad_check(build_loss: Callable[[], nm.Tensor], params: Sequence[nm.Tensor],
               h: float = 1e-5, tolerance: float = 1e-4) -> GradCheckReport:
    """Compare analytic gradients of ``build_loss()`` with finite differences.

    ``build_loss`` must rebuild the loss from scratch on each call and be
    deterministic given the current parameter values (freeze any sampling
    before checking). Each difference quotient's losses are built with the
    tape on, as the analytic one is, so a graph draw inside is scored alike;
    what they record is dropped. Relative error uses a floor tied to the
    largest gradient magnitude so that dead units with ~0 gradient are judged
    against finite-difference noise, not against zero.
    """
    nm.reset_tape()
    for p in params:
        p.zero_grad()
    loss = build_loss()
    nm.backward(loss)
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.values)
                for p in params]

    def value() -> float:
        out = float(build_loss().values)
        nm.reset_tape()
        return out

    numeric = []
    for p in params:
        flat = p.values.reshape(-1)
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = value()
            flat[i] = orig - h
            lo = value()
            flat[i] = orig
            fd[i] = (hi - lo) / (2.0 * h)
        numeric.append(fd.reshape(p.values.shape))

    scale = max(max((np.max(np.abs(a)) for a in analytic), default=0.0),
                max((np.max(np.abs(n)) for n in numeric), default=0.0))
    floor = max(1e-6 * scale, 1e-8)

    max_rel = 0.0
    worst_param = worst_element = 0
    per_param = []
    for k, (a, n) in enumerate(zip(analytic, numeric)):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        rel = np.abs(a - n) / denom
        pmax = float(rel.max()) if rel.size else 0.0
        per_param.append(pmax)
        if pmax > max_rel:
            max_rel = pmax
            worst_param = k
            worst_element = int(rel.argmax())

    return GradCheckReport(
        max_rel_error=max_rel,
        worst_param=worst_param,
        worst_element=worst_element,
        per_param=per_param,
        tolerance=tolerance,
        passed=max_rel <= tolerance,
        suspected_nondifferentiable=max_rel > 0.5,
    )
