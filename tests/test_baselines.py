"""Ridge and logistic fits against closed-form facts, plus the static-graph
GCN's equivalence with the trainer run on the same frozen graph.
"""

import warnings

import numpy as np
import pytest

from scipy.special import softmax

from oracles import blp_mae_floor, logistic_optimum
from popgraph import baselines
from popgraph.baselines import LinearModel, linear_fit, static_gcn_experiment
from popgraph.dataio import (
    SyntheticConfig,
    generate_synthetic,
    make_class_labels,
    normalize_minmax,
    split,
)
from popgraph.graphgen import knn_static_graph, random_graph
from popgraph.trainer import STATIC_RANDOM_STREAM, TrainConfig, run_experiment, stream_rng


# ---------------------------------------------------------------------------
# ridge regression
# ---------------------------------------------------------------------------


def test_huge_ridge_collapses_to_train_mean(monkeypatch):
    monkeypatch.setattr(baselines, "RIDGE", 1e12)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(50, 3))
    y = rng.normal(size=50) + 5.0
    model = linear_fit(x, y)
    assert np.all(np.abs(model.weights) < 1e-9)
    assert np.allclose(model.predict(x), y.mean(), atol=1e-6)


def test_rank_deficient_features_fit():
    x = np.ones((10, 2))
    x[:, 1] = x[:, 0]  # rank 1
    y = np.arange(10.0)
    model = linear_fit(x, y)  # the ridge makes the solve go through
    assert np.all(np.isfinite(model.weights))


def test_normal_equations_residual_is_tiny():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(200, 8))
    y = x @ rng.normal(size=8) + rng.normal(scale=0.5, size=200)
    model = linear_fit(x, y)
    xc = x - x.mean(axis=0)
    yc = y - y.mean()
    rhs = xc.T @ yc
    residual = (xc.T @ xc + baselines.RIDGE * np.eye(8)) @ model.weights - rhs
    assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(rhs)


def test_held_out_mae_near_analytic_noise_floor():
    cfg = SyntheticConfig(n_subjects=2000, n_nonimaging=20, n_imaging=2,
                          n_node_features=3, n_relevant_nonimaging=10,
                          n_relevant_imaging=0, noise_std=0.3)
    ds = generate_synthetic(cfg, seed=5)
    masks = split(ds, seed=5)
    cols = ds.nonimaging[:, :10]
    model = linear_fit(cols[masks.train], ds.y[masks.train])
    mae = float(np.mean(np.abs(model.predict(cols[masks.test]) - ds.y[masks.test])))

    shapes = [ds.meta["column_shapes"][f"q{j:02d}"]["shape"] for j in range(10)]
    signs = [ds.meta["column_shapes"][f"q{j:02d}"]["sign"] for j in range(10)]
    floor = blp_mae_floor(shapes, signs, cfg.noise_std, cfg.age_range)
    assert 0.85 * floor <= mae <= 1.15 * floor, (mae, floor)


# ---------------------------------------------------------------------------
# multinomial logistic
# ---------------------------------------------------------------------------


def blob_data(seed=0, n_per=60, spread=0.6):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 2.0]])
    x = np.concatenate([c + spread * rng.normal(size=(n_per, 2)) for c in centers])
    y = np.repeat(np.arange(3), n_per)
    return x, y


def test_logistic_separates_gaussian_blobs():
    x, y = blob_data()
    model = linear_fit(x, y, task="logistic", n_classes=3)
    assert model.weights.shape == (2, 3)
    assert float(np.mean(model.predict(x) == y)) >= 0.9
    probs = model.predict_proba(x)
    assert np.allclose(probs.sum(axis=1), 1.0)


def test_logistic_stationarity_matches_class_frequencies(monkeypatch):
    # at a zero gradient the intercept rows force mean predicted probability
    # per class to equal its empirical frequency
    monkeypatch.setattr(baselines, "LOGISTIC_TOL", 1e-8)
    x, y = blob_data(seed=3, n_per=40)
    model = linear_fit(x, y, task="logistic", n_classes=3)
    probs = model.predict_proba(x)
    freq = np.bincount(y, minlength=3) / len(y)
    assert np.allclose(probs.mean(axis=0), freq, atol=1e-7)


def test_logistic_warns_without_convergence(monkeypatch):
    monkeypatch.setattr(baselines, "LOGISTIC_MAX_ITER", 2)
    x, y = blob_data(seed=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        linear_fit(x, y, task="logistic", n_classes=3)
    assert any("iterations" in str(w.message) for w in caught)


def four_class_train_split(seed):
    """Train rows (450 x 30) of a 4-class quantile-binned population shaped
    like the ablation benchmark's."""
    cfg = SyntheticConfig(n_subjects=600, n_nonimaging=20, n_imaging=20,
                          n_node_features=30, n_relevant_nonimaging=10,
                          n_relevant_imaging=10, noise_std=0.3)
    ds = generate_synthetic(cfg, seed=seed)
    masks = split(ds, seed=seed)
    normalize_minmax(ds)
    classes, _ = make_class_labels(ds.y, masks.train, 4)
    return ds.X[masks.train], classes[masks.train]


@pytest.mark.parametrize("seed", [1, 4])
def test_logistic_newton_reaches_tolerance_within_step_cap(seed):
    x, y = four_class_train_split(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = linear_fit(x, y, task="logistic", n_classes=4)
    design = np.column_stack([x, np.ones(len(x))])
    grad = design.T @ (model.predict_proba(x) - np.eye(4)[y]) / len(x)
    assert np.linalg.norm(grad) <= 1e-6


@pytest.mark.parametrize("seed", [1, 4])
def test_logistic_probabilities_match_lbfgs_optimum(seed, monkeypatch):
    # at tol 1e-6 the probabilities can still sit 1e-4 off the optimum along
    # the flattest direction, so fit tighter for an exact comparison
    monkeypatch.setattr(baselines, "LOGISTIC_TOL", 1e-8)
    x, y = four_class_train_split(seed)
    weights, bias = logistic_optimum(x, y, 4)
    model = linear_fit(x, y, task="logistic", n_classes=4)
    expected = softmax(x @ weights + bias, axis=1)
    assert np.abs(model.predict_proba(x) - expected).max() <= 1e-6


def test_logistic_single_newton_step_warns(monkeypatch):
    monkeypatch.setattr(baselines, "LOGISTIC_MAX_ITER", 1)
    x, y = four_class_train_split(1)
    with pytest.warns(UserWarning, match="logistic fit stopped after 1 Newton"):
        linear_fit(x, y, task="logistic", n_classes=4)


def test_linear_fit_input_validation():
    with pytest.raises(ValueError, match="2 training rows"):
        linear_fit(np.ones((1, 2)), np.ones(1))
    with pytest.raises(ValueError, match="row count"):
        linear_fit(np.ones((4, 2)), np.ones(3))
    with pytest.raises(ValueError, match="task"):
        linear_fit(np.ones((4, 2)), np.ones(4), task="poisson")
    with pytest.raises(ValueError, match="out of range"):
        linear_fit(np.ones((4, 2)), np.array([0, 1, 2, 5]), task="logistic", n_classes=3)


def test_predict_checks_feature_width():
    model = LinearModel(weights=np.ones(3), bias=np.asarray(0.0))
    with pytest.raises(ValueError, match=r"\(n, 3\)"):
        model.predict(np.ones((5, 4)))
    with pytest.raises(ValueError, match="logistic"):
        model.predict_proba(np.ones((5, 3)))


# ---------------------------------------------------------------------------
# static-graph GCN
# ---------------------------------------------------------------------------


def static_dataset(seed=0):
    cfg = SyntheticConfig(n_subjects=48, n_nonimaging=4, n_imaging=4,
                          n_node_features=6, n_relevant_nonimaging=2,
                          n_relevant_imaging=2, noise_std=0.3)
    ds = generate_synthetic(cfg, seed=seed)
    split(ds, seed=seed)
    normalize_minmax(ds)
    return ds


def static_config():
    return TrainConfig(epochs=4, patience=0, k=3, gcn_hidden1=8, gcn_hidden2=4,
                       inference_samples=2, seed=3)


def test_static_experiment_is_deterministic():
    ds = static_dataset()
    _, rec1 = static_gcn_experiment(ds, "phenotypes", static_config(), k=3)
    _, rec2 = static_gcn_experiment(ds, "phenotypes", static_config(), k=3)
    assert rec1.to_json_dict() == rec2.to_json_dict()


def test_static_experiment_matches_trainer_on_same_graph():
    ds = static_dataset(seed=4)
    cfg = static_config()
    result_a, rec_a = static_gcn_experiment(ds, "phenotypes", cfg, k=3)
    edges = knn_static_graph(ds.phenotype_matrix(), 3, metric="cosine")
    result_b, rec_b = run_experiment(ds, cfg, fixed_edges=edges)
    assert result_a.history == result_b.history
    assert rec_a.mae == rec_b.mae
    assert rec_a.pearson_r == rec_b.pearson_r
    assert rec_a.homophily == rec_b.homophily
    assert rec_a.config_hash == rec_b.config_hash


def test_static_random_graph_is_the_seeds_uniform_draw():
    """``metric="random"`` trains on k uniform out-edges per node from the
    run's own static random stream, whatever the feature source."""
    ds = static_dataset(seed=4)
    cfg = static_config()
    result_a, rec_a = static_gcn_experiment(ds, "phenotypes", cfg, k=3, metric="random")
    edges = random_graph(ds.n_subjects, 3, stream_rng(cfg.seed, STATIC_RANDOM_STREAM))
    result_b, rec_b = run_experiment(ds, cfg, fixed_edges=edges)
    assert np.array_equal(result_a.fixed_edges, edges)
    assert result_a.history == result_b.history
    assert (rec_a.mae, rec_a.homophily) == (rec_b.mae, rec_b.homophily)
    assert rec_a.extra == rec_b.extra
    result_x, _ = static_gcn_experiment(ds, "node_features", cfg, k=3, metric="random")
    assert np.array_equal(result_x.fixed_edges, edges)


def test_static_feature_sources_build_different_graphs():
    ds = static_dataset(seed=2)
    from_x = knn_static_graph(ds.X, 3)
    from_phen = knn_static_graph(ds.phenotype_matrix(), 3)
    assert not np.array_equal(from_x, from_phen)


def test_static_experiment_rejects_unknown_source():
    ds = static_dataset()
    with pytest.raises(ValueError, match="feature_source"):
        static_gcn_experiment(ds, "pixels", static_config())


def test_static_experiment_turns_off_edge_loss():
    ds = static_dataset()
    result, _ = static_gcn_experiment(ds, "node_features", static_config(), k=3)
    assert all(row["L_graph"] == 0.0 for row in result.history)
