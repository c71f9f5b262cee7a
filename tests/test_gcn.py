import math
import tracemalloc

import numpy as np
import pytest

from oracles import FixedKernel, grad_check, tape_size
from popgraph import numerics as nm
from popgraph.gcn import (
    HUBER_DELTA,
    GcnModel,
    cross_entropy_loss,
    gcn_forward,
    graph_loss,
    huber_loss,
    null_epsilon,
    reward,
    total_loss,
)
from popgraph.graphgen import (
    SampledGraph,
    edge_probabilities,
    gumbel_topk_sample,
    random_graph,
    symmetrize,
)
from popgraph.numerics import Tensor, backward


def tiny_model(n_features=4, n_out=1, seed=0, head_bias=0.0):
    return GcnModel.init(n_features, np.random.default_rng(seed),
                         hidden1=8, hidden2=5, n_out=n_out, head_bias=head_bias)


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_identity_adjacency_reduces_to_mlp(rng):
    model = tiny_model()
    x = rng.uniform(size=(6, 4))
    with nm.no_grad():
        preds = gcn_forward(np.eye(6), x, model).values

    h1 = np.maximum(x @ model.w1.values, 0.0)
    h2 = np.maximum(h1 @ model.w2.values + model.b2.values, 0.0)
    manual = (h2 @ model.w3.values + model.b3.values).reshape(-1)
    assert np.allclose(preds, manual, atol=1e-12)


def test_zero_weights_yield_head_bias(rng):
    model = tiny_model(head_bias=3.25)
    for p in (model.w1, model.w2, model.b2, model.w3):
        p.values[:] = 0.0
    with nm.no_grad():
        preds = gcn_forward(np.eye(5), rng.uniform(size=(5, 4)), model).values
    assert np.allclose(preds, 3.25)


def test_permutation_equivariance(rng):
    n = 8
    a_hat = symmetrize(random_graph(n, 2, np.random.default_rng(1)), n)
    x = rng.uniform(size=(n, 4))
    model = tiny_model(seed=3)
    perm = np.random.default_rng(2).permutation(n)

    with nm.no_grad():
        base = gcn_forward(a_hat, x, model).values
        permuted = gcn_forward(a_hat[perm][:, perm], x[perm], model).values
    assert np.allclose(permuted, base[perm], atol=1e-12)


def test_forward_shapes_and_errors(rng):
    model = tiny_model(n_out=4)
    with nm.no_grad():
        out = gcn_forward(np.eye(3), rng.uniform(size=(3, 4)), model)
    assert out.shape == (3, 4)
    with pytest.raises(nm.ShapeError):
        gcn_forward(np.eye(4), rng.uniform(size=(3, 4)), model)
    with pytest.raises(nm.ShapeError):
        gcn_forward(np.eye(3), rng.uniform(size=(3, 9)), model)


def test_forward_gradients_match_fd(rng):
    model = tiny_model(seed=7)
    n = 5
    a_hat = symmetrize(random_graph(n, 2, np.random.default_rng(4)), n)
    x = rng.uniform(size=(n, 4))
    y = rng.uniform(47, 81, n)
    mask = np.array([True, True, False, True, False])

    def loss():
        return huber_loss(gcn_forward(a_hat, x, model), y, mask)

    report = grad_check(loss, model.params())
    assert report.passed, report.summary()


def test_training_step_holds_few_layer_arrays():
    """At N = 2000 with widths 512/128 one (N, 512) float64 layer array is
    7.8 MiB: a forward, its Huber loss and the backward must peak below 3.5
    of them."""
    n, rng = 2000, np.random.default_rng(8)
    a_hat = symmetrize(random_graph(n, 5, rng), n)
    x = rng.uniform(size=(n, 30))
    y = rng.uniform(47, 81, n)
    model = GcnModel.init(30, rng, hidden1=512, hidden2=128)
    bound = 3.5 * n * 512 * 8
    nm.reset_tape()
    tracemalloc.start()
    try:
        backward(huber_loss(gcn_forward(a_hat, x, model), y, np.arange(n) % 2 == 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound, f"peaked at {peak / (n * 512 * 8):.2f} (N, 512) arrays"
    assert all(np.all(np.isfinite(p.grad)) for p in model.params())


# ---------------------------------------------------------------------------
# supervised losses
# ---------------------------------------------------------------------------


def test_huber_values():
    y = np.zeros(1)
    mask = np.ones(1, dtype=bool)
    assert float(huber_loss(Tensor(np.zeros(1)), y, mask).values) == 0.0
    assert abs(float(huber_loss(Tensor(np.array([0.5])), y, mask).values) - 0.125) < 1e-12
    assert abs(float(huber_loss(Tensor(np.array([3.0])), y, mask).values) - 2.5) < 1e-12


def test_huber_smooth_at_the_boundary():
    y = np.zeros(1)
    mask = np.ones(1, dtype=bool)
    below = float(huber_loss(Tensor(np.array([1.0 - 1e-7])), y, mask).values)
    above = float(huber_loss(Tensor(np.array([1.0 + 1e-7])), y, mask).values)
    assert abs(above - below) < 1e-6

    grads = []
    for e in (1.0 - 1e-7, 1.0 + 1e-7):
        p = Tensor(np.array([e]), requires_grad=True)
        backward(huber_loss(p, y, mask))
        grads.append(p.grad[0])
    assert abs(grads[0] - grads[1]) < 1e-6


def test_huber_gradient_matches_fd_on_both_branches():
    """Masked errors on both sides of HUBER_DELTA, each at least 0.05 from
    the kink; masked-out rows get exactly zero gradient."""
    y = np.array([60.0, 50.0, 70.0, 55.0, 65.0, 58.0])
    err = np.array([0.3, -0.8, 1.6, -2.5, 0.95, 7.0])
    mask = np.array([True, True, True, True, False, False])
    assert np.all(np.abs(np.abs(err) - HUBER_DELTA) >= 0.05)
    assert np.any(np.abs(err[mask]) < HUBER_DELTA) and np.any(np.abs(err[mask]) > HUBER_DELTA)
    pred = Tensor(y + err, requires_grad=True)

    report = grad_check(lambda: huber_loss(pred, y, mask), [pred])
    assert report.passed, report.summary()
    assert np.all(pred.grad[~mask] == 0.0)


def test_huber_empty_mask():
    with pytest.raises(ValueError, match="mask"):
        huber_loss(Tensor(np.zeros(2)), np.zeros(2), np.zeros(2, dtype=bool))


def test_cross_entropy_uniform_is_log4():
    logits = Tensor(np.zeros((3, 4)))
    loss = cross_entropy_loss(logits, np.array([0, 1, 2]), np.ones(3, dtype=bool))
    assert abs(float(loss.values) - math.log(4.0)) < 1e-12


def test_cross_entropy_margin_beats_uniform():
    logits = np.zeros((3, 4))
    classes = np.array([0, 1, 2])
    logits[np.arange(3), classes] = 2.0
    loss = cross_entropy_loss(Tensor(logits), classes, np.ones(3, dtype=bool))
    assert float(loss.values) < math.log(4.0)


def test_cross_entropy_gradient_matches_fd(rng):
    logits = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    classes = np.array([3, 0, 1, 2, 2])
    mask = np.array([True, False, True, True, True])

    report = grad_check(lambda: cross_entropy_loss(logits, classes, mask), [logits])
    assert report.passed, report.summary()


def test_cross_entropy_empty_mask():
    with pytest.raises(ValueError, match="mask"):
        cross_entropy_loss(Tensor(np.zeros((2, 4))), np.zeros(2, dtype=int),
                           np.zeros(2, dtype=bool))


# ---------------------------------------------------------------------------
# null model and reward
# ---------------------------------------------------------------------------


def test_null_epsilon_values():
    assert null_epsilon(np.array([50.0, 60.0])) == 5.0
    assert null_epsilon(np.array([7.0, 7.0, 7.0])) == 0.0
    assert null_epsilon(np.zeros(3), task="classification", n_classes=4) == 0.75
    with pytest.raises(ValueError):
        null_epsilon(np.array([]))


def test_null_epsilon_uniform_ages_near_range_over_4():
    ages = np.random.default_rng(0).uniform(47, 81, 20_000)
    assert abs(null_epsilon(ages) - 8.5) < 0.15


def test_regression_reward():
    y = np.array([60.0, 70.0])
    pred = np.array([54.0, 70.0])
    rho = reward(y, pred, epsilon=6.0)
    assert rho[0] == 0.0          # exactly as wrong as the null model
    assert rho[1] == -6.0         # perfect prediction


def test_classification_reward_and_chance_level():
    y = np.array([2, 2])
    pred = np.array([2, 0])
    rho = reward(y, pred, epsilon=0.75, task="classification")
    assert rho[0] == -0.75 and rho[1] == 0.25

    # enumerate a uniform-random predictor over 4 classes: expected reward 0
    total = 0.0
    for true_class in range(4):
        for guess in range(4):
            total += reward(np.array([true_class]), np.array([guess]),
                            0.75, "classification")[0]
    assert abs(total / 16.0) < 1e-15


# ---------------------------------------------------------------------------
# graph loss
# ---------------------------------------------------------------------------


def sample_tiny_graph(n=5, k=2, seed=0, tau_value=0.0):
    """A scored draw over fixed squared distances, and its log-temperature."""
    rng = np.random.default_rng(seed)
    tau = Tensor(tau_value, requires_grad=True)
    d = rng.uniform(0.2, 1.5, size=(n, n))
    d[np.diag_indices(n)] = 0.0
    lp = edge_probabilities(FixedKernel(d * d), nm.exp(tau))
    graph = gumbel_topk_sample(lp, k=k, rng=rng)
    return graph, tau


def test_graph_loss_zero_rewards_kill_gradient():
    graph, tau = sample_tiny_graph()
    loss = graph_loss(graph, np.zeros(5), np.ones(5, dtype=bool))
    assert float(loss.values) == 0.0
    backward(loss)
    assert tau.grad == 0.0


def test_graph_loss_single_edge_signs():
    edges = np.array([[0, 1], [1, 0]])
    lp = Tensor(np.full(2, -2.0), requires_grad=True)
    graph = SampledGraph(edges, lp, 2)
    loss = graph_loss(graph, np.array([-1.0, 0.0]), np.array([True, False]))
    assert float(loss.values) == 2.0
    backward(loss)
    # d(loss)/d(logp_01) = rho_0 = -1: raising p lowers the loss
    assert lp.grad[0] == -1.0

    lp2 = Tensor(np.full(2, -2.0), requires_grad=True)
    graph2 = SampledGraph(edges, lp2, 2)
    loss2 = graph_loss(graph2, np.array([1.0, 0.0]), np.array([True, False]))
    assert float(loss2.values) == -2.0
    backward(loss2)
    assert lp2.grad[0] == 1.0


def test_graph_loss_gradient_is_reward_per_edge(rng):
    n, k = 6, 2
    fixed = edge_probabilities(FixedKernel(-rng.normal(size=(n, n))), 1.0)
    edges = gumbel_topk_sample(fixed, k=k, rng=np.random.default_rng(9)).edges
    lp = Tensor(rng.normal(size=n * k) - 1.0, requires_grad=True)
    graph = SampledGraph(edges, lp, n)
    rho = rng.normal(size=n)
    train = np.array([True, True, False, True, False, True])

    backward(graph_loss(graph, rho, train))
    expected = np.zeros(n * k)
    for e, (i, _) in enumerate(graph.edges):
        if train[i]:
            expected[e] = rho[i]
    assert np.allclose(lp.grad, expected, atol=1e-15)


def test_graph_loss_ignores_non_train_sources(rng):
    graph, _ = sample_tiny_graph()
    rho = rng.normal(size=5)
    none_train = graph_loss(graph, rho, np.zeros(5, dtype=bool))
    assert float(none_train.values) == 0.0


def test_graph_loss_excludes_gcn_parameters(rng):
    """Rewards are constants: the graph term must not reach predictor weights."""
    model = tiny_model(seed=11)
    n = 5
    a_hat = symmetrize(random_graph(n, 2, np.random.default_rng(0)), n)
    x = rng.uniform(size=(n, 4))
    y = rng.uniform(47, 81, n)
    train = np.ones(n, dtype=bool)

    with nm.no_grad():
        preds = gcn_forward(a_hat, x, model).values
    rho = reward(y, preds, epsilon=null_epsilon(y))

    graph, tau = sample_tiny_graph(n=n, seed=3)
    loss = graph_loss(graph, rho, train)
    backward(loss)
    assert tau.grad != 0.0
    assert all(p.grad is None or not p.grad.any() for p in model.params())


def test_each_loss_term_is_one_tape_op(rng):
    mask = np.array([True, False, True, True, False])
    pred = Tensor(rng.normal(size=5), requires_grad=True)
    logits = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    graph, _ = sample_tiny_graph()
    for build in (lambda: huber_loss(pred, np.zeros(5), mask),
                  lambda: cross_entropy_loss(logits, np.arange(5) % 4, mask),
                  lambda: graph_loss(graph, rng.normal(size=5), mask)):
        before = tape_size()
        build()
        assert tape_size() == before + 1


# ---------------------------------------------------------------------------
# combined loss
# ---------------------------------------------------------------------------


def test_total_loss_values_and_breakdown():
    out = total_loss(Tensor(2.0), Tensor(0.5))
    assert out.total_value == 2.5
    assert out.l_gcn == 2.0 and out.l_graph == 0.5

    rewards = np.array([-1.0, 0.5, 2.0])
    with_stats = total_loss(Tensor(1.0), Tensor(1.0), rewards=rewards)
    assert with_stats.reward_mean == pytest.approx(0.5)
    assert with_stats.reward_min == -1.0 and with_stats.reward_max == 2.0


def test_total_loss_additivity_exact():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b = rng.normal(size=2)
        out = total_loss(Tensor(a), Tensor(b))
        assert out.total_value == a + b
