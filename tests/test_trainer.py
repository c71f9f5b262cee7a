"""Optimizer arithmetic, the training loop's contracts (determinism, early
stopping, split isolation), stochastic inference, and the evaluation metrics.
"""

import copy
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import popgraph
import popgraph.graphgen as graphgen
import popgraph.numerics as nm
from oracles import rank_auc, tensors
from popgraph.attention import AttentionMlp, aggregate_attention, attention_forward, weight_phenotypes
from popgraph.dataio import SyntheticConfig, generate_synthetic, make_class_labels, normalize_minmax, split
from popgraph.gcn import GcnModel, gcn_forward, graph_loss, huber_loss, null_epsilon, reward, total_loss
from popgraph.graphgen import edge_probabilities, gumbel_topk_sample, pairwise_distance
from popgraph.numerics import Tensor
from popgraph.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    HOMOPHILY_STREAM,
    INFERENCE_STREAM,
    STATIC_RANDOM_STREAM,
    WEIGHT_DECAY,
    AdamW,
    MetricsRecord,
    TrainConfig,
    TrainingError,
    evaluate_classification,
    evaluate_regression,
    infer,
    load_run,
    run_experiment,
    sample_trained_edges,
    save_history_csv,
    save_metrics_json,
    save_run,
    stream_rng,
    train,
)
from popgraph.trainer import _auc_one_vs_rest, _draw_graph, _named_tensors


def tiny_dataset(seed=0, n=48, task="regression"):
    cfg = SyntheticConfig(n_subjects=n, n_nonimaging=4, n_imaging=4,
                          n_node_features=6, n_relevant_nonimaging=2,
                          n_relevant_imaging=2, noise_std=0.3)
    ds = generate_synthetic(cfg, seed=seed)
    split(ds, seed=seed)
    normalize_minmax(ds)
    if task == "classification":
        classes, _ = make_class_labels(ds.y, ds.masks.train, n_classes=3)
        ds.class_labels = classes
    return ds


def tiny_config(**overrides):
    base = dict(epochs=5, patience=0, k=3, gcn_hidden1=8, gcn_hidden2=4,
                inference_samples=2, seed=3)
    base.update(overrides)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------


def test_adamw_two_steps_match_hand_computation():
    lr, b1, b2, eps, wd = 0.1, 0.9, 0.999, 1e-8, 0.01
    assert (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, WEIGHT_DECAY) == (b1, b2, eps, wd)

    # step 1, g = 0.5
    m1 = 0.1 * 0.5
    v1 = 0.001 * 0.25
    p1 = 1.0 * (1 - lr * wd) - lr * (m1 / 0.1) / (math.sqrt(v1 / 0.001) + eps)
    # step 2, g = -0.25
    m2 = b1 * m1 + 0.1 * (-0.25)
    v2 = b2 * v1 + 0.001 * 0.0625
    p2 = p1 * (1 - lr * wd) - lr * (m2 / (1 - b1 ** 2)) / (
        math.sqrt(v2 / (1 - b2 ** 2)) + eps)

    p = Tensor(1.0, requires_grad=True)
    opt = AdamW([p], lr=lr)
    p.grad = np.array(0.5)
    opt.step()
    assert abs(float(p.values) - p1) < 1e-12
    p.grad = np.array(-0.25)
    opt.step()
    assert abs(float(p.values) - p2) < 1e-12


def test_adamw_zero_grad_without_decay_is_fixed_point(monkeypatch):
    monkeypatch.setattr(popgraph.trainer, "WEIGHT_DECAY", 0.0)
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = AdamW([p], lr=0.05)
    before = p.values.copy()
    for _ in range(3):
        opt.step()  # grad stays at its initial zeros
    assert np.array_equal(p.values, before)


def test_adamw_decay_only_shrinks_parameters():
    p = Tensor(np.array([4.0]), requires_grad=True)
    opt = AdamW([p], lr=0.1)
    opt.step()
    assert np.allclose(p.values, 4.0 * (1 - 0.1 * WEIGHT_DECAY))
    opt.step()
    assert np.allclose(p.values, 4.0 * (1 - 0.1 * WEIGHT_DECAY) ** 2)


def test_adamw_first_step_on_matrix_matches_formula():
    """Step 1 from zero moments, elementwise on a matrix parameter."""
    rng = np.random.default_rng(0)
    values = rng.normal(size=(3, 2))
    grad = rng.normal(size=(3, 2))
    p = Tensor(values.copy(), requires_grad=True)
    p.grad = grad.copy()
    opt = AdamW([p], lr=0.01)
    opt.step()
    m_hat = (1.0 - ADAM_BETA1) * grad / (1.0 - ADAM_BETA1)
    v_hat = (1.0 - ADAM_BETA2) * grad * grad / (1.0 - ADAM_BETA2)
    expect = values * (1.0 - 0.01 * WEIGHT_DECAY) - 0.01 * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    assert np.allclose(p.values, expect, rtol=1e-14, atol=0.0)


# ---------------------------------------------------------------------------
# training loop contracts
# ---------------------------------------------------------------------------


def test_train_smoke_history_and_result():
    ds = tiny_dataset()
    result = train(ds, tiny_config())
    assert len(result.history) == 5
    for row in result.history:
        assert set(row) == {"epoch", "L_total", "L_gcn", "L_graph", "val_metric"}
        assert math.isfinite(row["L_total"])
        assert abs(row["L_total"] - (row["L_gcn"] + row["L_graph"])) < 1e-9
    assert result.attention_vector.shape == (8,)
    assert np.all(result.attention_vector >= 0) and np.all(result.attention_vector <= 1)
    assert result.tau is not None and np.isfinite(result.tau.values)
    assert result.epsilon > 0


def test_train_is_bit_identical_across_runs():
    ds1 = tiny_dataset(seed=1)
    ds2 = tiny_dataset(seed=1)
    r1 = train(ds1, tiny_config(seed=7))
    r2 = train(ds2, tiny_config(seed=7))
    assert r1.history == r2.history
    for a, b in zip(tensors(r1.model), tensors(r2.model)):
        assert np.array_equal(a.values, b.values)
    assert np.array_equal(r1.attention_vector, r2.attention_vector)
    assert r1.tau.values == r2.tau.values


def test_train_patience_zero_keeps_final_parameters():
    ds = tiny_dataset()
    result = train(ds, tiny_config(epochs=4, patience=0))
    assert len(result.history) == 4
    assert result.best_epoch == 3
    assert result.best_val == result.history[-1]["val_metric"]


def test_train_with_patience_reports_best_validation():
    ds = tiny_dataset()
    result = train(ds, tiny_config(epochs=8, patience=2))
    vals = [row["val_metric"] for row in result.history]
    assert result.best_val == min(vals)
    assert result.history[result.best_epoch]["val_metric"] == result.best_val
    # runs at most patience+1 epochs past the best before stopping
    assert len(result.history) <= min(8, result.best_epoch + 1 + 2 + 1)


def test_train_ignores_val_and_test_labels_for_updates():
    ds1 = tiny_dataset(seed=2)
    ds2 = tiny_dataset(seed=2)
    outside = ~ds2.masks.train
    ds2.y = ds2.y.copy()
    ds2.y[outside] += 37.0  # wreck the labels the optimizer must never see
    cfg = tiny_config(epochs=4, patience=0)
    r1 = train(ds1, cfg)
    r2 = train(ds2, cfg)
    for key in ("L_total", "L_gcn", "L_graph"):
        assert [row[key] for row in r1.history] == [row[key] for row in r2.history]
    for a, b in zip(tensors(r1.model), tensors(r2.model)):
        assert np.array_equal(a.values, b.values)


def test_train_random_metric_skips_attention_and_edge_loss():
    ds = tiny_dataset()
    result = train(ds, tiny_config(distance_metric="random"))
    assert result.attention is None
    assert result.tau is None
    assert all(row["L_graph"] == 0.0 for row in result.history)


def test_train_fixed_edges_skips_sampling():
    ds = tiny_dataset()
    rng = np.random.default_rng(0)
    from popgraph.graphgen import random_graph
    edges = random_graph(ds.n_subjects, 3, rng)
    result = train(ds, tiny_config(), fixed_edges=edges)
    assert result.attention is None and result.tau is None
    assert all(row["L_graph"] == 0.0 for row in result.history)
    assert np.array_equal(result.fixed_edges, edges)


def test_train_ones_attention_trains_temperature_only():
    ds = tiny_dataset()
    result = train(ds, tiny_config(attention_mode="ones", epochs=3))
    assert result.attention is None
    assert result.attention_vector is None
    assert result.tau is not None


def test_train_lam_zero_ones_attention_descends():
    ds = tiny_dataset(n=60)
    cfg = tiny_config(attention_mode="ones", epochs=10, patience=0)
    result = train(ds, cfg)
    assert result.history[-1]["L_gcn"] < result.history[0]["L_gcn"]


@pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
def test_train_aborts_with_epoch_on_divergence():
    """Epoch 0's step explodes the weights; epoch 1's forward is the first
    to see them."""
    ds = tiny_dataset()
    with pytest.raises(TrainingError) as err:
        train(ds, tiny_config(learning_rate=1e150, epochs=3))
    assert err.value.epoch == 1
    assert "epoch 1" in str(err.value)


@pytest.mark.parametrize("regime", ["learned", "random", "fixed"])
def test_train_draws_one_graph_per_epoch_with_grad(monkeypatch, regime):
    import popgraph.trainer as trainer_module
    from popgraph.graphgen import knn_static_graph
    real = trainer_module._draw_graph
    grad_enabled = []

    def counted(*args, **kwargs):
        grad_enabled.append(nm._grad_enabled())
        return real(*args, **kwargs)

    monkeypatch.setattr(trainer_module, "_draw_graph", counted)
    ds = tiny_dataset()
    fixed = knn_static_graph(ds.phenotype_matrix(), 3) if regime == "fixed" else None
    metric = "random" if regime == "random" else "euclidean"
    result = train(ds, tiny_config(epochs=6, distance_metric=metric), fixed_edges=fixed)
    assert len(result.history) == 6
    assert grad_enabled == [True] * 6


def test_only_the_training_draw_is_scored(monkeypatch):
    """run_experiment scores one draw per history row, always with grad: its
    inference and homophily draws select edges and score none."""
    real = graphgen.kernel_edge_scores
    grad_enabled = []

    def counted(*args, **kwargs):
        grad_enabled.append(nm._grad_enabled())
        return real(*args, **kwargs)

    monkeypatch.setattr(graphgen, "kernel_edge_scores", counted)
    result, _ = run_experiment(tiny_dataset(), tiny_config(epochs=7, inference_samples=5))
    assert len(result.history) == 7
    assert grad_enabled == [True] * 7


# the ops an adaptive euclidean regression step records: the scorer's two
# layers, the min-max, the gating, t = exp(tau), the edge scores, the GCN's
# three layers and its squeeze, and the three loss ops
ADAPTIVE_STEP_OPS = {"dense": 5, "sigmoid": 1, "aggregate_attention": 1, "mul_rowvec": 1,
                     "exp": 1, "kernel_edge_scores": 1, "reshape": 1, "huber_loss": 1,
                     "graph_loss": 1, "total_loss": 1}


@pytest.mark.parametrize("regime, expected", [
    ("euclidean", ADAPTIVE_STEP_OPS),
    ("hyperbolic", ADAPTIVE_STEP_OPS),
    ("static", {"dense": 3, "reshape": 1, "huber_loss": 1, "total_loss": 1}),
])
def test_a_training_step_records_one_op_per_stage(monkeypatch, regime, expected):
    """The tape at a step's backward holds exactly these ops, by name: 14 for
    adaptive regression, hyperbolic too (its kernel rescales its rows within
    the edge-score op), and 6 for a static graph."""
    from collections import Counter
    from popgraph.graphgen import knn_static_graph

    names = {}
    record = nm.record_op

    def named(name, *args):
        out = record(name, *args)
        names[id(out)] = (name, out)  # holding out keeps its id unique
        return out

    on_tape = []
    backward = nm.backward

    def counted(loss):
        on_tape.append(Counter(names[id(out)][0] for out, _, _ in nm._ops()))
        return backward(loss)

    monkeypatch.setattr(nm, "record_op", named)
    monkeypatch.setattr(nm, "backward", counted)
    ds = tiny_dataset()
    fixed = knn_static_graph(ds.phenotype_matrix(), 3) if regime == "static" else None
    metric = "euclidean" if regime == "static" else regime
    train(ds, tiny_config(epochs=1, distance_metric=metric), fixed_edges=fixed)
    assert on_tape == [Counter(expected)]


def test_run_experiment_builds_one_distance_kernel_per_draw(monkeypatch):
    """One kernel per pass over it: each of E epochs builds one with grad,
    which its scored draw both walks and differentiates; the one pass that
    makes all S inference draws and the homophily draw each build one
    without: E + 2."""
    real = graphgen.BlockDistance.__init__
    grad_enabled = []

    def counted(*args, **kwargs):
        grad_enabled.append(nm._grad_enabled())
        return real(*args, **kwargs)

    monkeypatch.setattr(graphgen.BlockDistance, "__init__", counted)
    result, _ = run_experiment(tiny_dataset(), tiny_config(epochs=7, inference_samples=5))
    assert len(result.history) == 7
    assert len(grad_enabled) == 7 + 2
    assert grad_enabled.count(True) == 7


@pytest.mark.filterwarnings("ignore:overflow encountered in matmul:RuntimeWarning")
def test_run_experiment_reports_a_diverged_last_step_with_its_epoch():
    """With patience 0 no training forward sees the last step's parameters;
    inference is the first to, and the failure names that epoch."""
    with pytest.raises(TrainingError) as err:
        run_experiment(tiny_dataset(), tiny_config(learning_rate=1e150, epochs=1))
    assert err.value.epoch == 0
    assert "epoch 0" in str(err.value)


def test_train_restores_the_parameters_its_best_validation_measured():
    """Early stopping on a fixed graph: the restored model scores exactly the
    best validation metric, the one its history row holds."""
    from popgraph.graphgen import knn_static_graph
    from popgraph.trainer import _val_metric
    ds = tiny_dataset()
    edges = knn_static_graph(ds.phenotype_matrix(), 3)
    result = train(ds, tiny_config(epochs=40, patience=3, learning_rate=0.05),
                   fixed_edges=edges)
    assert result.best_epoch < len(result.history) - 1
    with nm.no_grad():
        graph, = _draw_graph(result, ds.phenotype_matrix(), [np.random.default_rng(0)])
        preds = gcn_forward(graph.a_hat, ds.X, result.model).values
    assert _val_metric(preds, ds.y, ds.masks.val, "regression") == result.best_val
    assert result.history[result.best_epoch]["val_metric"] == result.best_val


def test_train_classification_smoke():
    ds = tiny_dataset(task="classification")
    result = train(ds, tiny_config(task="classification", n_classes=3))
    assert all(0.0 <= row["val_metric"] <= 1.0 for row in result.history)
    assert result.model.w3.shape[1] == 3
    # uniform-over-classes null reward offset
    assert abs(result.epsilon - (1 - 1 / 3)) < 1e-12


def test_train_classification_requires_class_labels():
    ds = tiny_dataset()  # regression dataset, no bins
    with pytest.raises(ValueError, match="class labels"):
        train(ds, tiny_config(task="classification"))


def test_train_config_validation():
    with pytest.raises(ValueError, match="task"):
        TrainConfig(task="ranking")
    with pytest.raises(ValueError, match="distance_metric"):
        TrainConfig(distance_metric="manhattan")
    with pytest.raises(ValueError, match="attention_mode"):
        TrainConfig(attention_mode="softmax")
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError, match="inference_samples must be at least 1"):
        TrainConfig(inference_samples=0)
    for rate in ("x", float("nan"), float("inf"), True, None):
        with pytest.raises(ValueError, match="learning_rate must be a finite number"):
            TrainConfig(learning_rate=rate)
    with pytest.raises(ValueError, match="learning_rate must be above 0"):
        TrainConfig(learning_rate=0.0)


# ---------------------------------------------------------------------------
# gradient wiring: one hand-built epoch with frozen selection noise, each
# draw's from its own copy of one generator state
# ---------------------------------------------------------------------------


def build_frozen_loss(ds, mlp, tau, model, noise_rng, k=3):
    phen = ds.phenotype_matrix()
    a = aggregate_attention(attention_forward(phen, mlp))
    f = weight_phenotypes(a, Tensor(phen))
    d = pairwise_distance(f, "euclidean")
    log_p = edge_probabilities(d, nm.exp(tau))
    graph = gumbel_topk_sample(log_p, k, rng=copy.deepcopy(noise_rng))
    preds = gcn_forward(graph.a_hat, ds.X, model)
    l_gcn = huber_loss(preds, ds.y, ds.masks.train)
    eps = null_epsilon(ds.y[ds.masks.train])
    rho = reward(ds.y, preds.values, eps)
    l_graph = graph_loss(graph, rho, ds.masks.train)
    return total_loss(l_gcn, l_graph, rewards=rho), rho, graph.edges


def test_edge_loss_reaches_scorer_and_temperature():
    ds = tiny_dataset(n=24)
    rng = np.random.default_rng(5)
    phen = ds.phenotype_matrix()
    mlp = AttentionMlp.init(phen.shape[1], rng)
    model = GcnModel.init(ds.X.shape[1], rng, hidden1=8, hidden2=4)
    tau = Tensor(0.0, requires_grad=True)

    breakdown, _, _ = build_frozen_loss(ds, mlp, tau, model, rng)
    nm.backward(breakdown.total)
    assert tau.grad is not None and float(np.abs(tau.grad)) > 0
    assert any(np.abs(p.grad).max() > 0 for p in tensors(mlp))
    assert all(np.abs(p.grad).max() > 0 for p in (model.w1, model.w3))


def small_step_on_frozen_draw(seed, step=1e-5):
    """One hand-built epoch from ``default_rng(seed)``, one gradient step of
    size ``step``, and a rebuild from the same selection noise and the old
    rewards: the pure first-order objective the step was taken against.
    Returns the first draw's edges, the redraw's, and the objective before
    and after."""
    ds = tiny_dataset(n=24)
    rng = np.random.default_rng(seed)
    phen = ds.phenotype_matrix()
    mlp = AttentionMlp.init(phen.shape[1], rng)
    model = GcnModel.init(ds.X.shape[1], rng, hidden1=8, hidden2=4,
                          head_bias=float(ds.y[ds.masks.train].mean()))
    tau = Tensor(0.0, requires_grad=True)
    params = tensors(mlp, model, tau)

    breakdown, rho0, edges0 = build_frozen_loss(ds, mlp, tau, model, rng)
    nm.backward(breakdown.total)
    for p in params:
        if p.grad is not None:
            p.values = p.values - step * p.grad

    a = aggregate_attention(attention_forward(phen, mlp))
    d = pairwise_distance(weight_phenotypes(a, Tensor(phen)), "euclidean")
    graph = gumbel_topk_sample(edge_probabilities(d, nm.exp(tau)), 3, rng=copy.deepcopy(rng))
    preds = gcn_forward(graph.a_hat, ds.X, model)
    l_gcn = huber_loss(preds, ds.y, ds.masks.train)
    l_graph = graph_loss(graph, rho0, ds.masks.train)
    after = total_loss(l_gcn, l_graph).total_value
    nm.reset_tape()
    return edges0, graph.edges, breakdown.total_value, after


def test_one_small_step_descends_frozen_objective():
    """A small gradient step lowers the objective of the first draw's edges
    and rewards, for two generators. The step keeps the redraw on the first
    draw's edges, which is checked first: a step that swaps a drawn edge for
    a dropped candidate (generator 211 at a step of 1e-4 does) leaves the
    objective the gradient was taken against."""
    for seed in (11, 211):
        edges0, edges, before, after = small_step_on_frozen_draw(seed)
        assert np.array_equal(edges, edges0), seed
        assert after < before, seed


def test_edge_normalizer_keeps_the_drawn_edges():
    """Scoring a draw leaves its edges alone: a draw under ``no_grad``
    scores nothing and picks the edges the scored draw picks from the same
    noise, and the scored draw's values are each edge's log p less its source
    row's off-diagonal logsumexp."""
    ds = tiny_dataset(n=24)
    rng = np.random.default_rng(7)
    phen = ds.phenotype_matrix()
    mlp = AttentionMlp.init(phen.shape[1], rng)
    tau = Tensor(1.5, requires_grad=True)
    k = 3
    a = aggregate_attention(attention_forward(phen, mlp))
    scores = edge_probabilities(pairwise_distance(weight_phenotypes(a, Tensor(phen)),
                                                  "euclidean"), nm.exp(tau))
    with nm.no_grad():
        unscored = gumbel_topk_sample(scores, k, rng=copy.deepcopy(rng))
    scored = gumbel_topk_sample(scores, k, rng=copy.deepcopy(rng))
    nm.reset_tape()
    assert unscored.log_probs is None
    assert np.array_equal(unscored.edges, scored.edges)

    log_p = scores.rows(0, 24)
    src, dst = scored.edges[:, 0], scored.edges[:, 1]
    raw = log_p[src, dst]
    np.fill_diagonal(log_p, -np.inf)
    row_lse = np.log(np.exp(log_p).sum(axis=1))
    assert np.allclose(scored.log_probs.values, raw - row_lse[src], atol=1e-12)
    # first-pick probabilities of a row's k distinct picks sum below one
    picked = np.exp(scored.log_probs.values).reshape(24, k).sum(axis=1)
    assert np.all(picked < 1.0)


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------


def with_config(result, **changes):
    """``result`` with its config's ``changes`` and no cached fixed graph."""
    return dataclasses.replace(result, config=dataclasses.replace(result.config, **changes))


def test_infer_deterministic_given_rng_seed():
    ds = tiny_dataset()
    result = train(ds, tiny_config(inference_samples=4))
    a = infer(result, ds)
    b = infer(result, ds)
    assert np.array_equal(a.predictions, b.predictions)
    # another seed's config draws its graphs from another inference stream
    c = infer(with_config(result, seed=4), ds)
    assert not np.array_equal(a.predictions, c.predictions)


@pytest.mark.parametrize("metric", ["euclidean", "random"])
@pytest.mark.parametrize("task", ["regression", "classification"])
def test_infer_averages_the_sequential_draws_of_its_stream(task, metric, monkeypatch):
    """infer's one pass gives exactly the mean, summed in draw order, of
    one-graph ``_draw_graph`` calls, one from each of the four children the
    inference stream spawns; here over 3 row blocks, so the helper takes
    part."""
    monkeypatch.setattr(graphgen, "BLOCK_ENTRIES", 16 * 48)
    ds = tiny_dataset(task=task)
    result = train(ds, tiny_config(task=task, n_classes=3, distance_metric=metric,
                                   inference_samples=4))
    acc = None
    with nm.no_grad():
        for child in stream_rng(result.config.seed, INFERENCE_STREAM).spawn(4):
            graph, = _draw_graph(result, ds.phenotype_matrix(), [child])
            out = gcn_forward(graph.a_hat, ds.X, result.model).values
            out = np.exp(nm.log_softmax_rows(out)) if task == "classification" else out
            acc = out if acc is None else acc + out
    got = infer(result, ds)
    if task == "classification":
        assert np.array_equal(got.probabilities, acc / 4)
    else:
        assert np.array_equal(got.predictions, acc / 4)


def test_infer_fixed_graph_ignores_sample_count():
    ds = tiny_dataset()
    from popgraph.graphgen import knn_static_graph
    edges = knn_static_graph(ds.phenotype_matrix(), 3)
    result = train(ds, tiny_config(inference_samples=1), fixed_edges=edges)
    one = infer(result, ds)
    # the mean of 8 copies of one forward rounds away from that forward
    many = infer(with_config(result, inference_samples=8), ds)
    assert np.array_equal(one.predictions, many.predictions)


def test_fixed_graph_run_symmetrizes_once(monkeypatch):
    import popgraph.graphgen as graphgen_module
    import popgraph.trainer as trainer_module
    from popgraph.graphgen import knn_static_graph
    real = graphgen_module.symmetrize
    calls = []

    def counted(edges, n):
        calls.append(n)
        return real(edges, n)

    for module in (graphgen_module, trainer_module):
        monkeypatch.setattr(module, "symmetrize", counted, raising=False)
    ds = tiny_dataset()
    edges = knn_static_graph(ds.phenotype_matrix(), 3)
    run_experiment(ds, tiny_config(inference_samples=4), fixed_edges=edges)
    assert calls == [ds.n_subjects]


def test_infer_classification_outputs_probabilities():
    ds = tiny_dataset(task="classification")
    result = train(ds, tiny_config(task="classification", n_classes=3,
                                   inference_samples=3))
    out = infer(result, ds)
    assert out.probabilities.shape == (ds.n_subjects, 3)
    assert np.allclose(out.probabilities.sum(axis=1), 1.0)
    assert np.array_equal(out.predictions, out.probabilities.argmax(axis=1))


def test_infer_rejects_nonpositive_sample_count():
    ds = tiny_dataset()
    result = train(ds, tiny_config())
    # infer reads its sample count from the run's config, which refuses 0
    with pytest.raises(ValueError, match="inference_samples must be at least 1"):
        infer(with_config(result, inference_samples=0), ds)


def test_sample_trained_edges_shapes_and_paths():
    ds = tiny_dataset()
    result = train(ds, tiny_config())
    edges = sample_trained_edges(result, ds)
    assert edges.shape == (ds.n_subjects * 3, 2)
    assert np.array_equal(edges, sample_trained_edges(result, ds))
    nm.reset_tape()
    with nm.no_grad():
        drawn, = _draw_graph(result, ds.phenotype_matrix(),
                             [stream_rng(result.config.seed, HOMOPHILY_STREAM)])
    assert np.array_equal(edges, drawn.edges)
    assert drawn.log_probs is None and not nm._ops()

    fixed = train(ds, tiny_config(), fixed_edges=edges)
    assert np.array_equal(sample_trained_edges(fixed, ds), edges)


def test_derived_streams_never_replay_a_master_seed():
    """Under the old XOR scheme seed 0's inference stream was master seed
    0x5EED0001's stream; no derived stream may replay a master seed's, and
    no child that an inference stream spawns for ``infer``'s draws may
    replay a master seed's stream, another child's or a tag's stream."""
    def first_draws(rng):
        return tuple(rng.integers(0, 2**63, 4).tolist())

    tags = (INFERENCE_STREAM, HOMOPHILY_STREAM, STATIC_RANDOM_STREAM)
    derived = {first_draws(stream_rng(seed, tag)) for seed in range(8) for tag in tags}
    assert len(derived) == 8 * len(tags)
    children = {first_draws(child) for seed in range(8)
                for child in stream_rng(seed, INFERENCE_STREAM).spawn(8)}
    assert len(children) == 8 * 8
    masters = set(range(64)) | set(tags) | {seed ^ tag for seed in range(8) for tag in tags}
    master_draws = {first_draws(np.random.default_rng(s)) for s in masters}
    assert not derived & master_draws
    assert not children & (master_draws | derived)


# ---------------------------------------------------------------------------
# evaluation metrics
# ---------------------------------------------------------------------------


def test_evaluate_regression_hand_example():
    pred = np.array([1.0, 2.0, 3.0, 9.0])
    y = np.array([1.0, 1.0, 5.0, 9.0])
    mask = np.array([True, True, True, False])
    out = evaluate_regression(pred, y, mask)
    assert abs(out["mae"] - 1.0) < 1e-12
    expected_r = np.corrcoef(pred[:3], y[:3])[0, 1]
    assert abs(out["pearson_r"] - expected_r) < 1e-12


def test_evaluate_regression_constant_prediction_has_no_r():
    out = evaluate_regression(np.full(5, 2.0), np.arange(5.0), np.ones(5, bool))
    assert out["pearson_r"] is None
    assert out["mae"] == np.mean(np.abs(2.0 - np.arange(5.0)))


def test_evaluate_regression_null_model_ties_reward_threshold():
    rng = np.random.default_rng(9)
    y = rng.uniform(40.0, 90.0, 200)
    mask = np.zeros(200, bool)
    mask[:150] = True
    pred = np.full(200, y[mask].mean())
    mae = evaluate_regression(pred, y, mask)["mae"]
    eps = null_epsilon(y[mask])
    assert abs(mae - eps) < 1e-9


def test_evaluate_regression_exact_fits_give_r_of_exactly_one():
    """An exactly affine prediction of these ages rounds r past +-1 unless
    it is clipped; every exact fit must give +-1 and validate."""
    y = np.array([77.7, 49.3, 69.9, 63.1, 70.0])
    mask = np.ones(5, bool)
    for pred, expected in ((y, 1.0), (-y, -1.0), (2.0 * y + 3.0, 1.0),
                           (-(2.0 * y + 3.0), -1.0)):
        r = evaluate_regression(pred, y, mask)["pearson_r"]
        assert r == expected
        MetricsRecord(task="regression", seed=0, config_hash="", pearson_r=r).validate()


def test_evaluate_regression_empty_mask():
    with pytest.raises(ValueError):
        evaluate_regression(np.ones(3), np.ones(3), np.zeros(3, bool))


def test_evaluate_classification_hand_example():
    probs = np.array([
        [0.7, 0.2, 0.1],
        [0.1, 0.8, 0.1],
        [0.2, 0.3, 0.5],
        [0.5, 0.4, 0.1],
    ])
    truth = np.array([0, 1, 2, 1])
    out = evaluate_classification(probs, truth, np.ones(4, bool))
    assert abs(out["accuracy"] - 0.75) < 1e-12
    # predictions are [0, 1, 2, 0], so class 0 has one false positive and
    # class 1 one false negative: F1 = 2/3, 2/3, 1
    assert abs(out["macro_f1"] - (2.0 / 3.0 + 2.0 / 3.0 + 1.0) / 3.0) < 1e-12
    expected_auc = np.mean([rank_auc(probs[:, c], truth == c) for c in range(3)])
    assert abs(out["macro_auc"] - expected_auc) < 1e-12


def test_evaluate_classification_auc_matches_bruteforce_with_ties():
    rng = np.random.default_rng(3)
    n, c = 40, 4
    raw = rng.integers(0, 5, (n, c)).astype(float) + 0.25  # coarse grid forces ties
    probs = raw / raw.sum(axis=1, keepdims=True)
    truth = rng.integers(0, c, n)
    while len(np.unique(truth)) < c:
        truth = rng.integers(0, c, n)
    out = evaluate_classification(probs, truth, np.ones(n, bool))
    expected = np.mean([rank_auc(probs[:, j], truth == j) for j in range(c)])
    assert abs(out["macro_auc"] - expected) < 1e-12


@pytest.mark.parametrize("seed, levels", [(0, 1), (1, 2), (2, 3), (3, 50)])
def test_auc_one_vs_rest_equals_pairwise_count(seed, levels):
    """The Mann-Whitney count agrees bit for bit with comparing every
    (positive, negative) pair, ties (few score levels) at half credit."""
    rng = np.random.default_rng(seed)
    for n in (2, 7, 60):
        scores = rng.integers(0, levels, n) / levels
        positive = np.zeros(n, bool)
        positive[rng.permutation(n)[:rng.integers(1, n)]] = True
        assert _auc_one_vs_rest(scores, positive) == rank_auc(scores, positive)


def test_import_leaves_scipy_stats_unloaded():
    """scipy.stats costs most of a run's start-up, and nothing needs it."""
    src = str(Path(popgraph.__file__).resolve().parents[1])
    code = "import sys, popgraph.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_evaluate_classification_absent_class():
    probs = np.array([
        [0.6, 0.3, 0.1],
        [0.2, 0.7, 0.1],
        [0.3, 0.6, 0.1],
    ])
    truth = np.array([0, 1, 1])  # class 2 never appears
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = evaluate_classification(probs, truth, np.ones(3, bool))
    assert any("absent" in str(w.message) for w in caught)
    # AUC averages the two present classes only
    expected = np.mean([rank_auc(probs[:, 0], truth == 0),
                        rank_auc(probs[:, 1], truth == 1)])
    assert abs(out["macro_auc"] - expected) < 1e-12
    # F1 still divides by all three classes
    assert abs(out["macro_f1"] - (1.0 + 1.0 + 0.0) / 3.0) < 1e-12


def test_one_class_mask_writes_null_auc_as_strict_json(tmp_path):
    """No class in the mask has both positives and negatives: the AUC is
    undefined, None, and metrics.json stays valid JSON (no bare NaN)."""
    probs = np.array([[0.6, 0.4], [0.2, 0.8], [0.7, 0.3]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = evaluate_classification(probs, np.array([1, 1, 1]), np.ones(3, bool))
    assert out["macro_auc"] is None
    record = MetricsRecord(task="classification", seed=0, config_hash="ff00", **out)
    path = tmp_path / "metrics.json"
    save_metrics_json(record, path)

    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    payload = json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)
    assert payload["macro_auc"] is None and payload["accuracy"] == 1.0 / 3.0
    # any NaN that still reached the writer is refused, not written
    record.extra["probe"] = float("nan")
    with pytest.raises(ValueError, match="JSON compliant"):
        save_metrics_json(record, tmp_path / "nan.json")


def test_evaluate_classification_rejects_unnormalized_rows():
    for probs in (np.array([[0.5, 0.6], [0.5, 0.5]]),
                  np.array([[np.nan, np.nan], [0.5, 0.5]])):
        with pytest.raises(ValueError, match="sum to 1"):
            evaluate_classification(probs, np.array([0, 1]), np.ones(2, bool))


# ---------------------------------------------------------------------------
# records and exports
# ---------------------------------------------------------------------------


def test_history_csv_round_trip(tmp_path):
    history = [
        {"epoch": 0, "L_total": 1.5, "L_gcn": 1.0, "L_graph": 0.5, "val_metric": 3.25},
        {"epoch": 1, "L_total": 1.25, "L_gcn": 0.75, "L_graph": 0.5, "val_metric": 3.0},
    ]
    path = tmp_path / "history.csv"
    save_history_csv(history, path, "ab12")
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert lines[0] == "# config_hash=ab12"
    assert lines[1] == "epoch,L_total,L_gcn,L_graph,val_metric"
    assert lines[2].split(",") == ["0", "1.5", "1.0", "0.5", "3.25"]
    assert len(lines) == 4


def test_metrics_json_is_byte_identical_and_excludes_timing(tmp_path):
    a = MetricsRecord(task="regression", seed=1, config_hash="ff00", mae=2.5,
                      pearson_r=0.9, best_epoch=12, epsilon=8.4)
    b = MetricsRecord(task="regression", seed=1, config_hash="ff00", mae=2.5,
                      pearson_r=0.9, best_epoch=12, epsilon=8.4)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_metrics_json(a, pa)
    save_metrics_json(b, pb)
    assert pa.read_bytes() == pb.read_bytes()
    payload = json.loads(pa.read_text(encoding="utf-8"))
    # the record's fields and nothing else: no wall-clock time
    assert set(payload) == {f.name for f in dataclasses.fields(MetricsRecord)}
    assert payload["config_hash"] == "ff00"


def test_metrics_record_validation():
    with pytest.raises(ValueError, match="MAE"):
        MetricsRecord(task="regression", seed=0, config_hash="", mae=-1.0).validate()
    with pytest.raises(ValueError, match="Pearson"):
        MetricsRecord(task="regression", seed=0, config_hash="", pearson_r=1.5).validate()
    for r in (np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0)):
        with pytest.raises(ValueError, match="Pearson"):
            MetricsRecord(task="regression", seed=0, config_hash="", pearson_r=r).validate()
    with pytest.raises(ValueError, match="accuracy"):
        MetricsRecord(task="classification", seed=0, config_hash="", accuracy=1.2).validate()


GCN_TENSORS = ["gcn.w1", "gcn.w2", "gcn.b2", "gcn.w3", "gcn.b3"]
ATTENTION_TENSORS = ["attention.w1", "attention.b1", "attention.w2", "attention.b2"]


@pytest.mark.parametrize("task, overrides, fixed, names", [
    ("regression", {}, False, GCN_TENSORS + ATTENTION_TENSORS + ["log_temperature"]),
    ("classification", {}, False, GCN_TENSORS + ATTENTION_TENSORS + ["log_temperature"]),
    ("regression", {"attention_mode": "ones"}, False, GCN_TENSORS + ["log_temperature"]),
    ("regression", {"distance_metric": "random"}, False, GCN_TENSORS),
    ("regression", {}, True, GCN_TENSORS),
], ids=["regression", "classification", "ones", "random", "fixed"])
def test_run_checkpoint_round_trip(tmp_path, task, overrides, fixed, names):
    """Each run kind saves exactly the tensors it trains, by name, and the
    loaded run predicts what the trained one does."""
    ds = tiny_dataset(task=task)
    from popgraph.graphgen import knn_static_graph
    edges = knn_static_graph(ds.phenotype_matrix(), 3) if fixed else None
    result = train(ds, tiny_config(task=task, n_classes=3, **overrides), fixed_edges=edges)
    path = tmp_path / "run.json"
    save_run(result, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    assert payload["format_version"] == 3
    assert list(payload["tensors"]) == sorted(names)
    loaded = load_run(path, ds)
    assert loaded.model.b3.shape == ((3,) if task == "classification" else (1,))
    assert loaded.config == result.config
    assert loaded.epsilon == result.epsilon
    assert loaded.best_epoch == result.best_epoch
    for a, b in zip(_named_tensors(loaded.model, loaded.attention, loaded.tau).values(),
                    _named_tensors(result.model, result.attention, result.tau).values(),
                    strict=True):
        assert np.array_equal(a.values, b.values)
    if result.attention_vector is not None:
        assert np.array_equal(loaded.attention_vector, result.attention_vector)
    # identical stochastic predictions through the restored parameters
    a = infer(result, ds)
    b = infer(loaded, ds)
    assert np.array_equal(a.predictions, b.predictions)
    if task == "classification":
        assert np.array_equal(a.probabilities, b.probabilities)


def test_run_checkpoint_keeps_fixed_edges(tmp_path):
    ds = tiny_dataset()
    from popgraph.graphgen import knn_static_graph
    edges = knn_static_graph(ds.phenotype_matrix(), 3)
    result = train(ds, tiny_config(), fixed_edges=edges)
    path = tmp_path / "run.json"
    save_run(result, path)
    loaded = load_run(path, ds)
    assert np.array_equal(loaded.fixed_edges, edges)
    assert loaded.attention is None and loaded.tau is None


def test_run_checkpoint_rejects_unknown_version(tmp_path):
    ds = tiny_dataset()
    result = train(ds, tiny_config(epochs=2))
    path = tmp_path / "run.json"
    save_run(result, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["format_version"] = 99
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError, match="version"):
        load_run(path, ds)


def test_run_checkpoint_rejects_version_2(tmp_path):
    """A version-2 checkpoint stores its tensors under ``gcn``, ``attention``
    and ``log_temperature``; it fails on its version, not on those keys."""
    ds = tiny_dataset()
    result = train(ds, tiny_config(epochs=2))
    path = tmp_path / "run.json"
    save_run(result, path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["format_version"] = 2
    tensors = payload.pop("tensors")
    for part in ("gcn", "attention"):
        payload[part] = {name.split(".")[1]: entry for name, entry in tensors.items()
                         if name.startswith(part + ".")}
    payload["log_temperature"] = tensors["log_temperature"]["values"][0]
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(ValueError, match="unsupported format version 2"):
        load_run(path, ds)


def test_run_experiment_fills_record():
    ds = tiny_dataset()
    result, record = run_experiment(ds, tiny_config())
    assert record.task == "regression"
    assert record.mae is not None and record.mae >= 0
    assert record.homophily is not None and record.homophily > 0
    assert record.extra["n_epochs_run"] == len(result.history)
    assert len(record.config_hash) == 64

    # pure function of (dataset, config): records agree exactly
    _, again = run_experiment(ds, tiny_config())
    assert record.to_json_dict() == again.to_json_dict()
