"""Reference models to beat: ridge / multinomial-logistic fits on raw
features, and the GCN on a fixed cosine kNN graph (no graph learning).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .graphgen import knn_static_graph
from .trainer import TrainConfig, run_experiment, softmax_rows

__all__ = [
    "LinearModel",
    "linear_fit",
    "static_gcn_experiment",
    "FEATURE_SOURCES",
]

FEATURE_SOURCES = ("node_features", "phenotypes")


@dataclass
class LinearModel:
    weights: np.ndarray  # (M,) for regression, (M, C) for logistic
    bias: np.ndarray     # () or (C,)
    task: str = "regression"

    @property
    def n_features(self) -> int:
        return self.weights.shape[0]

    def _check(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.n_features:
            raise ValueError(f"expected (n, {self.n_features}) features, got {x.shape}")
        return x

    def predict(self, x) -> np.ndarray:
        """Ages for regression, class indices for logistic."""
        x = self._check(x)
        if self.task == "regression":
            return x @ self.weights + self.bias
        return self.predict_proba(x).argmax(axis=1)

    def predict_proba(self, x) -> np.ndarray:
        if self.task != "logistic":
            raise ValueError("probabilities only exist for the logistic task")
        return softmax_rows(self._check(x) @ self.weights + self.bias)


def _ridge_fit(x: np.ndarray, y: np.ndarray, ridge: float) -> LinearModel:
    # center so the intercept stays unpenalized; lam -> inf then collapses
    # predictions onto the train mean
    x_mean = x.mean(axis=0)
    y_mean = y.mean()
    xc = x - x_mean
    yc = y - y_mean
    gram = xc.T @ xc + ridge * np.eye(x.shape[1])
    try:
        w = np.linalg.solve(gram, xc.T @ yc)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular normal equations; use ridge > 0") from exc
    if ridge == 0.0:
        # solve() tolerates some numerically singular systems; catch those too
        residual = gram @ w - xc.T @ yc
        scale = max(float(np.linalg.norm(xc.T @ yc)), 1.0)
        if float(np.linalg.norm(residual)) > 1e-6 * scale:
            raise ValueError("singular normal equations; use ridge > 0")
    bias = np.asarray(y_mean - x_mean @ w)
    return LinearModel(weights=w, bias=bias, task="regression")


def _log_softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _softmax_loss(design: np.ndarray, wb: np.ndarray, onehot: np.ndarray):
    """Mean cross-entropy of the scores ``design @ wb``, and the probabilities."""
    log_p = _log_softmax(design @ wb)
    return -float(np.sum(onehot * log_p)) / len(design), np.exp(log_p)


def _logistic_fit(x: np.ndarray, classes: np.ndarray, n_classes: int,
                  tol: float, max_iter: int) -> LinearModel:
    n, m = x.shape
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), classes] = 1.0
    design = np.column_stack([x, np.ones(n)])
    eye = np.eye(n_classes)

    wb = np.zeros((m + 1, n_classes))
    loss, probs = _softmax_loss(design, wb, onehot)
    grad = design.T @ (probs - onehot) / n
    steps = 0
    while steps < max_iter and np.linalg.norm(grad) > tol:
        # Hessian in the row-major order of wb, the mean over rows of
        # x x^T (x) (diag p - p p^T), as two GEMMs with z = x (x) p
        z = (design[:, :, None] * probs[:, None, :]).reshape(n, wb.size)
        diag = (z.T @ design).reshape(m + 1, n_classes, m + 1, 1) * eye[:, None, :]
        hess = (diag.reshape(wb.size, wb.size) - z.T @ z) / n
        # lstsq: adding one vector to every class's column leaves the softmax
        # unchanged, so the Hessian is singular along that direction
        step = np.linalg.lstsq(hess, grad.ravel(), rcond=None)[0].reshape(wb.shape)
        slope = float(np.sum(grad * step))
        alpha = 1.0
        for _ in range(40):  # halve the step until the loss falls (Armijo)
            trial = wb - alpha * step
            trial_loss, trial_probs = _softmax_loss(design, trial, onehot)
            if trial_loss <= loss - 1e-4 * alpha * slope:
                break
            alpha *= 0.5
        else:
            break  # no step lowers the loss in floating point
        wb, loss, probs = trial, trial_loss, trial_probs
        grad = design.T @ (probs - onehot) / n
        steps += 1
    grad_norm = float(np.linalg.norm(grad))
    if grad_norm > tol:
        warnings.warn(f"logistic fit stopped after {steps} Newton iterations "
                      f"at gradient norm {grad_norm:.3g} above tolerance {tol}",
                      stacklevel=2)
    return LinearModel(weights=wb[:-1], bias=wb[-1], task="logistic")


def linear_fit(x_train, y_train, ridge: float = 1e-3, task: str = "regression",
               n_classes: int | None = None, tol: float = 1e-6,
               max_iter: int = 100) -> LinearModel:
    """Closed-form ridge regression, or unregularized multinomial logistic
    regression by damped Newton (IRLS) steps.

    Each logistic step solves the softmax Hessian system by least squares
    and halves the step until the mean cross-entropy falls. The fit stops
    once the gradient norm is at most ``tol``; ``max_iter`` counts Newton
    steps, and running out of them warns. The intercept is never penalized.
    ``ridge`` only applies to regression.
    """
    x = np.asarray(x_train, dtype=float)
    y = np.asarray(y_train)
    if x.ndim != 2:
        raise ValueError(f"expected 2-d features, got shape {x.shape}")
    if x.shape[0] < 2:
        raise ValueError("need at least 2 training rows")
    if x.shape[0] != len(y):
        raise ValueError("features and labels disagree on row count")
    if ridge < 0:
        raise ValueError("ridge must be nonnegative")
    if task == "regression":
        return _ridge_fit(x, y.astype(float), ridge)
    if task == "logistic":
        classes = y.astype(np.intp)
        if n_classes is None:
            n_classes = int(classes.max()) + 1
        if classes.min() < 0 or classes.max() >= n_classes:
            raise ValueError("class labels out of range")
        return _logistic_fit(x, classes, n_classes, tol, max_iter)
    raise ValueError(f"unknown task {task!r}")


def static_gcn_experiment(dataset, feature_source: str, config: TrainConfig,
                          k: int = 5, metric: str = "cosine"):
    """GCN on a kNN graph built once from raw features or phenotypes.

    Same training loop and evaluation as the adaptive pipeline, with the
    sampler replaced by the fixed graph and the edge loss switched off.
    Returns (TrainResult, MetricsRecord).
    """
    if feature_source == "node_features":
        source = dataset.X
    elif feature_source == "phenotypes":
        source = dataset.phenotype_matrix()
    else:
        raise ValueError(f"unknown feature_source {feature_source!r}; "
                         f"expected one of {FEATURE_SOURCES}")
    edges = knn_static_graph(source, k, metric=metric)
    return run_experiment(dataset, config, fixed_edges=edges,
                          extra={"experiment": "static",
                                 "feature_source": feature_source,
                                 "graph_metric": metric, "graph_k": k})
