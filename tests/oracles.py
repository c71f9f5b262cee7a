"""Independent oracles shared by module and acceptance tests.

Everything here is deliberately brute force: enumerations and direct
formulas that are slow but obviously correct, for checking the fast paths.
"""

import math
from itertools import permutations

import numpy as np


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
    rescales so the largest row norm is 1 - 1e-3 first."""
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
