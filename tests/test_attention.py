import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import grad_check, kernel_distances, tensors, weighted_sum
from popgraph import numerics as nm
from popgraph.attention import (
    AttentionMlp,
    aggregate_attention,
    attention_forward,
    rank_phenotypes,
    weight_phenotypes,
)
from popgraph.cli import _attention_files
from popgraph.graphgen import pairwise_distance
from popgraph.numerics import Tensor, backward


def make_mlp(n_phen, seed=0):
    return AttentionMlp.init(n_phen, np.random.default_rng(seed))


def test_zero_parameters_give_half_scores():
    mlp = make_mlp(4)
    for p in tensors(mlp):
        p.values[:] = 0.0
    scores = attention_forward(np.zeros((3, 4)), mlp)
    assert np.allclose(scores.values, 0.5)


def test_large_bias_saturates_column(rng):
    mlp = make_mlp(5)
    for p in tensors(mlp):
        p.values[:] = 0.0
    mlp.b2.values[3] = 10.0
    scores = attention_forward(rng.uniform(size=(1, 5)), mlp)
    assert scores.values[0, 3] > 0.99


def test_forward_rejects_width_mismatch():
    mlp = make_mlp(4)
    with pytest.raises(nm.ShapeError):
        attention_forward(np.zeros((3, 6)), mlp)


def test_mean_score_gradient_matches_fd(rng):
    mlp = make_mlp(3, seed=2)
    phen = rng.uniform(size=(6, 3))
    report = grad_check(lambda: weighted_sum(attention_forward(phen, mlp), 1.0 / phen.size),
                        tensors(mlp))
    assert report.passed, report.summary()


def test_aggregate_two_subjects():
    scores = Tensor(np.array([[0.2, 0.8], [0.4, 0.6]]))
    a = aggregate_attention(scores)
    assert np.allclose(a.values, [0.0, 1.0])


def test_aggregate_three_columns():
    scores = Tensor(np.array([[0.2, 0.5, 0.8]]))
    a = aggregate_attention(scores)
    assert np.allclose(a.values, [0.0, 0.5, 1.0])


def test_aggregate_degenerate_all_equal():
    a = aggregate_attention(Tensor(np.full((4, 3), 0.37)))
    assert np.allclose(a.values, 0.5)
    assert not a.requires_grad


def test_aggregate_gradient_matches_fd(rng):
    """The min-max rescale differentiates exactly, including through the
    gathered extremes."""
    raw = Tensor(rng.uniform(size=(4, 5)), requires_grad=True)
    coeffs = rng.normal(size=5)

    def loss():
        return weighted_sum(aggregate_attention(nm.sigmoid(raw)), coeffs)

    report = grad_check(loss, [raw])
    assert report.passed, report.summary()


@pytest.mark.parametrize("offsets, lo, hi", [
    ((-2.0, 2.0, 0.0, 0.5, -0.5), 0, 1),
    ((0.0, 0.5, 2.0, -2.0, -0.5), 3, 2),
    ((2.0, 0.0, 0.5, -0.5, -2.0), 4, 0),
], ids=["lo-first-hi-next", "hi-then-lo", "hi-first-lo-last"])
def test_aggregate_gradient_through_placed_extremes(offsets, lo, hi):
    """The chain through the fixed argmin and argmax columns, with them
    adjacent (either order), the argmin column first, or the extremes at
    both ends."""
    rng = np.random.default_rng(6)
    raw = Tensor(rng.uniform(size=(4, 5)) * 0.2 + np.array(offsets), requires_grad=True)
    coeffs = rng.normal(size=5)
    means = nm.sigmoid(raw).values.mean(axis=0)
    assert (means.argmin(), means.argmax()) == (lo, hi)

    report = grad_check(lambda: weighted_sum(aggregate_attention(nm.sigmoid(raw)), coeffs),
                        [raw])
    assert report.passed, report.summary()


def test_end_to_end_scorer_gradient_through_aggregation(rng):
    mlp = make_mlp(4, seed=5)
    phen = rng.uniform(size=(7, 4))
    coeffs = rng.normal(size=4)

    def loss():
        a = aggregate_attention(attention_forward(phen, mlp))
        return weighted_sum(a, coeffs)

    report = grad_check(loss, tensors(mlp))
    assert report.passed, report.summary()


def test_weight_phenotypes_identity_zero_and_mask():
    phen = Tensor(np.array([[0.5, 0.9], [0.1, 0.3]]))
    assert np.allclose(weight_phenotypes(np.ones(2), phen).values, phen.values)

    collapsed = weight_phenotypes(np.zeros(2), phen)
    assert np.all(collapsed.values == 0.0)
    # collapse mode: zero weights erase all geometry, every distance is zero
    assert np.all(kernel_distances(pairwise_distance(collapsed, "euclidean")) == 0.0)

    masked = weight_phenotypes(np.array([1.0, 0.0]), Tensor(np.array([[0.5, 0.9]])))
    assert np.allclose(masked.values, [[0.5, 0.0]])


def test_weight_phenotypes_length_mismatch():
    with pytest.raises(nm.ShapeError):
        weight_phenotypes(np.ones(3), Tensor(np.zeros((2, 2))))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_weight_phenotypes_linear_in_a(seed):
    rng = np.random.default_rng(seed)
    phen = Tensor(rng.uniform(size=(4, 3)))
    a1 = rng.normal(size=3)
    a2 = rng.normal(size=3)
    lhs = weight_phenotypes(a1 + a2, phen).values
    rhs = weight_phenotypes(a1, phen).values + weight_phenotypes(a2, phen).values
    assert np.allclose(lhs, rhs, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 8), m=st.integers(2, 6), seed=st.integers(0, 10_000))
def test_aggregate_range_invariant(n, m, seed):
    scores = np.random.default_rng(seed).uniform(size=(n, m))
    a = aggregate_attention(Tensor(scores)).values
    assert np.all(a >= 0.0) and np.all(a <= 1.0)
    if np.ptp(scores.mean(axis=0)) > 0:
        assert a.min() == 0.0 and a.max() == 1.0


def test_rank_phenotypes_order_and_ties():
    ranked = rank_phenotypes(np.array([0.1, 0.9, 0.5]),
                             ["a", "b", "c"], ["non-imaging"] * 3)
    assert [row["name"] for row in ranked] == ["b", "c", "a"]
    assert [row["rank"] for row in ranked] == [1, 2, 3]

    tied = rank_phenotypes(np.array([0.4, 0.4, 0.4]),
                           ["a", "b", "c"], ["imaging"] * 3)
    assert [row["name"] for row in tied] == ["a", "b", "c"]


def test_ranking_csv_and_json_exports(tmp_path):
    kinds = {"q00": "non-imaging", "s00": "imaging", "f00": "feature"}
    dataset = SimpleNamespace(phenotype_names=["q00", "s00"], column_kinds=lambda: kinds)
    _attention_files(np.array([0.25, 1.0]), dataset, tmp_path, "abc123")
    lines = (tmp_path / "attention.csv").read_text().strip().splitlines()
    assert lines[0] == "# config_hash=abc123"
    assert lines[1] == "rank,name,kind,weight"
    assert lines[2].startswith("1,s00,imaging,")
    assert lines[3].startswith("2,q00,non-imaging,")

    payload = json.loads((tmp_path / "attention.json").read_text())
    assert payload["config_hash"] == "abc123"
    assert payload["weights"] == {"q00": 0.25, "s00": 1.0}
    assert [row["name"] for row in payload["ranking"]] == ["s00", "q00"]


def test_vector_metadata_length_check():
    with pytest.raises(ValueError):
        rank_phenotypes(np.ones(3), ["a"], ["imaging"])


def test_aggregation_stays_on_tape(rng):
    """Scores feed the weight vector which feeds a loss; backward must reach
    the scorer parameters with nonzero gradient."""
    mlp = make_mlp(4, seed=8)
    phen = rng.uniform(size=(9, 4))
    a = aggregate_attention(attention_forward(phen, mlp))
    loss = weighted_sum(a, rng.normal(size=4))
    backward(loss)
    assert max(float(np.abs(p.grad).max()) for p in tensors(mlp)) > 0.0
