import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    dense_draw,
    dense_symmetrize,
    edge_set,
    empirical_topk_sets,
    grad_check,
    plackett_luce_set_probs,
    softmax,
    total_variation,
)
from popgraph import numerics as nm
from popgraph.graphgen import (
    SampledGraph,
    edge_probabilities,
    export_graph,
    gumbel_topk_sample,
    homophily_score,
    knn_static_graph,
    pairwise_distance,
    random_graph,
    symmetrize,
    topk_desc,
)
from popgraph.numerics import Tensor

RNG = np.random.default_rng(2024)


def dense(operator) -> np.ndarray:
    """All rows of a row-block operator as one array."""
    return operator.rows(0, operator.shape[0])


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def test_euclidean_3_4_5():
    d = dense(pairwise_distance(np.array([[0.0, 0.0], [3.0, 4.0]]), "euclidean"))
    assert abs(d[0, 1] - 5.0) < 1e-12
    assert d[0, 0] == 0.0


def test_cosine_orthogonal_and_identical():
    d = dense(pairwise_distance(np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]]), "cosine"))
    assert abs(d[0, 1] - 1.0) < 1e-12
    assert abs(d[0, 2]) < 1e-12  # same direction, different length


def test_hyperbolic_coincident_rows():
    d = dense(pairwise_distance(np.array([[0.3, 0.1], [0.3, 0.1], [0.0, 0.5]]), "hyperbolic"))
    assert d[0, 1] == 0.0
    assert d[0, 2] > 0.0


def test_hyperbolic_rescales_large_inputs():
    f = np.array([[10.0, 0.0], [0.0, 10.0], [5.0, 5.0]])
    d = dense(pairwise_distance(f, "hyperbolic"))
    assert np.all(np.isfinite(d))
    assert np.all(d >= 0.0)


def test_unknown_metric():
    with pytest.raises(ValueError, match="metric"):
        pairwise_distance(np.eye(3), "manhattan")


@pytest.mark.parametrize("metric", ["euclidean", "cosine", "hyperbolic"])
def test_distance_gradients_match_fd(metric):
    # k = n - 1 draws every off-diagonal pair, so the weighted sum of the
    # drawn first-pick scores reaches every distance
    f = Tensor(RNG.uniform(0.1, 1.0, size=(5, 3)), requires_grad=True)
    w = Tensor(RNG.normal(size=20))

    def loss():
        lp = edge_probabilities(pairwise_distance(f, metric), 1.0)
        graph = gumbel_topk_sample(lp, 4, noise=np.zeros((5, 5)), normalize=True)
        return (graph.log_probs * w).sum()

    report = grad_check(loss, [f])
    assert report.passed, f"{metric}: {report.summary()}"


@pytest.mark.parametrize("metric", ["euclidean", "cosine", "hyperbolic"])
def test_distances_symmetric_zero_diagonal(metric):
    d = dense(pairwise_distance(RNG.uniform(size=(6, 4)), metric))
    assert np.allclose(d, d.T, atol=1e-12)
    assert np.allclose(np.diag(d), 0.0)
    assert np.all(np.isfinite(d))


# ---------------------------------------------------------------------------
# edge kernel
# ---------------------------------------------------------------------------


def test_kernel_zero_distance_gives_certain_edge():
    lp = edge_probabilities(np.zeros((2, 2)), 3.7)
    assert np.all(lp.values == 0.0)  # p = 1


def test_kernel_unit_values():
    lp = edge_probabilities(np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0)
    assert abs(np.exp(lp.values[0, 1]) - math.exp(-1.0)) < 1e-12


def test_kernel_doubling_t_squares_p():
    d = RNG.uniform(0.0, 2.0, size=(4, 4))
    p1 = np.exp(edge_probabilities(d, 0.8).values)
    p2 = np.exp(edge_probabilities(d, 1.6).values)
    assert np.allclose(p2, p1 ** 2, atol=1e-12)


def test_kernel_monotone_in_distance():
    d = np.array([[0.0, 0.5, 1.0, 2.0]])
    p = np.exp(edge_probabilities(d, 1.3).values[0])
    assert np.all(np.diff(p) < 0.0)
    assert p[0] == 1.0


def test_kernel_gradient_through_temperature():
    tau = Tensor(0.4, requires_grad=True)
    d = Tensor(RNG.uniform(0.1, 1.5, size=(4, 4)))

    def loss():
        return edge_probabilities(d, nm.exp(tau)).sum()

    report = grad_check(loss, [tau])
    assert report.passed, report.summary()


def test_kernel_nonpositive_log():
    d = pairwise_distance(RNG.uniform(size=(5, 3)), "euclidean")
    lp = dense(edge_probabilities(d, math.exp(0.0)))
    assert np.all(lp <= 0.0)


# ---------------------------------------------------------------------------
# Gumbel-Top-k sampler
# ---------------------------------------------------------------------------


def test_sampler_forced_exhaustion():
    lp = Tensor(RNG.normal(size=(3, 3)))
    g = gumbel_topk_sample(lp, k=2, rng=np.random.default_rng(0))
    assert edge_set(g) == {(i, j) for i in range(3) for j in range(3) if i != j}


def test_sampler_retains_noise_free_scores():
    lp = Tensor(RNG.normal(size=(6, 6)) - 1.0)
    g = gumbel_topk_sample(lp, k=2, rng=np.random.default_rng(1))
    expected = lp.values[g.edges[:, 0], g.edges[:, 1]]
    assert np.array_equal(g.log_probs.values, expected)


def test_sampler_replay_with_frozen_noise():
    # the generator's noise, drawn again as one (N, N) array, replays the draw
    lp = Tensor(RNG.normal(size=(7, 7)))
    g1 = gumbel_topk_sample(lp, k=3, rng=np.random.default_rng(5))
    g2 = gumbel_topk_sample(lp, k=3, noise=nm.gumbel_fill(np.random.default_rng(5),
                                                          np.empty((7, 7))))
    assert np.array_equal(g1.edges, g2.edges)


def test_sampler_zero_noise_recovers_knn():
    f = RNG.uniform(size=(9, 4))
    d = pairwise_distance(f, "euclidean")
    lp = edge_probabilities(d, 1.0)
    g = gumbel_topk_sample(lp, k=3, noise=np.zeros((9, 9)))
    knn = knn_static_graph(f, k=3, metric="euclidean")
    assert edge_set(g) == {(int(i), int(j)) for i, j in knn}


def test_sampler_rejects_bad_k():
    lp = Tensor(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        gumbel_topk_sample(lp, k=4, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        gumbel_topk_sample(lp, k=0, rng=np.random.default_rng(0))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(3, 12), seed=st.integers(0, 10_000))
def test_sampler_out_degree_always_k(n, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, n))
    lp = Tensor(rng.normal(size=(n, n)))
    g = gumbel_topk_sample(lp, k=k, rng=rng)
    counts = np.bincount(g.edges[:, 0], minlength=n)
    assert np.all(counts == k)
    assert np.all(g.edges[:, 0] != g.edges[:, 1])


def test_sampler_marginal_uniform_row():
    """Equal scores, k=1: every neighbor should win 1/3 of the time."""
    lp_row = np.zeros(4)
    freqs = empirical_topk_sets(lp_row, self_index=0, k=1,
                                n_draws=200_000, seed=3, topk_fn=topk_desc)
    for j in (1, 2, 3):
        assert abs(freqs[frozenset([j])] - 1.0 / 3.0) <= 0.01


def test_sampler_k1_marginal_is_softmax():
    lp_row = np.array([0.0, -0.3, -1.2, 0.7])
    freqs = empirical_topk_sets(lp_row, self_index=2, k=1,
                                n_draws=200_000, seed=11, topk_fn=topk_desc)
    masked = lp_row.copy()[[0, 1, 3]]
    probs = softmax(masked)
    expect = {frozenset([0]): probs[0], frozenset([1]): probs[1],
              frozenset([3]): probs[2]}
    assert total_variation(freqs, expect) <= 0.01


def test_sampler_k2_sets_match_plackett_luce():
    lp_row = np.array([-0.1, -0.9, 0.4, -0.4])
    self_index = 1
    freqs = empirical_topk_sets(lp_row, self_index, k=2,
                                n_draws=200_000, seed=17, topk_fn=topk_desc)
    others = [j for j in range(4) if j != self_index]
    weights = np.exp(lp_row[others])
    raw = plackett_luce_set_probs(weights, 2)
    expect = {frozenset(others[i] for i in key): p for key, p in raw.items()}
    assert total_variation(freqs, expect) <= 0.01


@pytest.mark.parametrize("n", [2, 3, 5, 8, 17])
def test_topk_desc_breaks_ties_like_a_stable_sort(n):
    """Small integers make ties everywhere, across the k-th place too; half
    the rows carry a -inf diagonal entry as the sampler's mask does; k runs
    up to n - 1."""
    rng = np.random.default_rng(n)
    values = rng.integers(0, 3, size=(400, n)).astype(float)
    rows = np.arange(200)
    values[rows, rows % n] = -np.inf
    straddled = 0
    for k in range(1, n):
        expect = np.argsort(-values, axis=1, kind="stable")[:, :k]
        assert np.array_equal(topk_desc(values, k), expect), f"n={n} k={k}"
        kth = np.take_along_axis(values, expect[:, -1:], axis=1)
        straddled += int(np.sum(np.count_nonzero(values >= kth, axis=1) > k))
    assert n == 2 or straddled > 0


@pytest.mark.parametrize("metric", ["euclidean", "cosine", "hyperbolic"])
@pytest.mark.parametrize("rows_per_block", [1, 4, 37])
def test_blocked_draw_matches_dense_reference(metric, rows_per_block, monkeypatch):
    """Blocks of 1 row, of 4 rows (the last one ragged) and one block: the
    same noise picks the same edges as a dense draw with a full stable sort,
    with the same first-pick log p and the same normalized adjacency; the
    generator's block-by-block noise is one (N, N) ``gumbel_fill``."""
    n, k, t = 37, 5, 2.5
    v = RNG.normal(size=(n, 6))
    v[7] = v[3]  # coincident points, d = 0
    if metric == "cosine":
        v[11] = 0.0  # distance 1 to every other row
    monkeypatch.setattr(nm, "BLOCK_ENTRIES", rows_per_block * n)
    noise = nm.gumbel_fill(np.random.default_rng(8), np.empty((n, n)))
    edges, first_pick, a_hat = dense_draw(v, t, metric, k, noise)

    lp = edge_probabilities(pairwise_distance(v, metric), t)
    g = gumbel_topk_sample(lp, k, noise=noise, normalize=True)
    assert np.array_equal(g.edges, edges)
    assert np.max(np.abs(g.log_probs.values - first_pick)) <= 1e-12
    assert np.array_equal(g.a_hat.toarray(), a_hat)
    drawn = gumbel_topk_sample(lp, k, rng=np.random.default_rng(8))
    assert np.array_equal(drawn.edges, edges)
    assert drawn.log_probs is None


def test_draw_holds_no_n_by_n_array():
    """At N = 3000 one N x N float64 array is 72 MB: neither a no-grad draw
    nor a training draw's forward and backward may allocate that much."""
    n = 3000
    bound = n * n * 8
    phen = RNG.uniform(size=(n, 40))
    tracemalloc.start()
    try:
        with nm.no_grad():
            lp = edge_probabilities(pairwise_distance(phen, "euclidean"), 10.0)
            g = gumbel_topk_sample(lp, 5, rng=np.random.default_rng(0))
            assert g.a_hat.nnz <= n * 11
        _, nograd_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        f = Tensor(phen, requires_grad=True)
        tau = Tensor(np.log(10.0), requires_grad=True)
        lp = edge_probabilities(pairwise_distance(f, "euclidean"), nm.exp(tau))
        g = gumbel_topk_sample(lp, 5, rng=np.random.default_rng(1), normalize=True)
        nm.backward((g.log_probs * Tensor(RNG.normal(size=n * 5))).sum())
        _, train_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert nograd_peak < bound, f"no-grad draw peaked at {nograd_peak / 2**20:.1f} MiB"
    assert train_peak < bound, f"training draw peaked at {train_peak / 2**20:.1f} MiB"
    assert np.all(np.isfinite(f.grad)) and tau.grad != 0.0


# ---------------------------------------------------------------------------
# static graphs
# ---------------------------------------------------------------------------


def test_knn_collinear_and_midpoint_tie():
    nearer = knn_static_graph(np.array([[0.0], [1.0], [2.5]]), 1, "euclidean")
    assert (1, 0) in {tuple(e) for e in nearer}

    tie = knn_static_graph(np.array([[0.0], [1.0], [2.0]]), 1, "euclidean")
    assert (1, 0) in {tuple(e) for e in tie}  # exact midpoint, lower index wins


def test_knn_complete_when_k_is_n_minus_1():
    edges = knn_static_graph(RNG.uniform(size=(5, 2)), 4, "euclidean")
    assert {tuple(e) for e in edges} == {(i, j) for i in range(5)
                                         for j in range(5) if i != j}


def test_knn_duplicate_rows_are_mutual():
    f = np.array([[0.5, 0.5], [0.5, 0.5], [9.0, 9.0]])
    edges = {tuple(e) for e in knn_static_graph(f, 1, "euclidean")}
    assert (0, 1) in edges and (1, 0) in edges


def test_random_graph_degrees_and_variation():
    edges = random_graph(10, 3, np.random.default_rng(0))
    counts = np.bincount(edges[:, 0], minlength=10)
    assert np.all(counts == 3)
    assert np.all(edges[:, 0] != edges[:, 1])

    again = random_graph(10, 3, np.random.default_rng(0))
    assert np.array_equal(edges, again)
    other = random_graph(10, 3, np.random.default_rng(1))
    assert not np.array_equal(edges, other)


def test_random_graph_draws_one_choice_per_row_in_order():
    # a seed keeps giving the edges of one rng.choice per row, row by row
    for n, k, seed in [(2, 1, 0), (10, 3, 5), (600, 5, 1), (40, 39, 2)]:
        rng = np.random.default_rng(seed)
        expected = []
        for i in range(n):
            picks = rng.choice(n - 1, size=k, replace=False)
            expected += [(i, int(j + (j >= i))) for j in picks]
        edges = random_graph(n, k, np.random.default_rng(seed))
        assert edges.dtype == np.intp
        assert edges.tolist() == [list(e) for e in expected]


def test_random_graph_complete_exhaustion():
    edges = random_graph(3, 2, np.random.default_rng(4))
    assert {tuple(e) for e in edges} == {(i, j) for i in range(3)
                                         for j in range(3) if i != j}


# ---------------------------------------------------------------------------
# symmetrize
# ---------------------------------------------------------------------------


def test_symmetrize_empty_is_identity():
    assert np.array_equal(symmetrize(np.empty((0, 2)), 3).toarray(), np.eye(3))


def test_symmetrize_single_pair_closed_form():
    a_hat = symmetrize(np.array([[0, 1]]), 2).toarray()
    assert np.allclose(a_hat, [[0.5, 0.5], [0.5, 0.5]])


def test_symmetrize_rejects_self_edges():
    with pytest.raises(ValueError, match="self-edges"):
        symmetrize(np.array([[1, 1]]), 3)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(3, 10), seed=st.integers(0, 10_000))
def test_symmetrize_bounds_and_flip_invariance(n, seed):
    # entries stay in [0, 1] and the spectrum in [-1, 1]; row sums can
    # exceed 1 when a hub meets low-degree neighbors, so they are not checked
    rng = np.random.default_rng(seed)
    edges = random_graph(n, 2, rng)
    a_hat = symmetrize(edges, n).toarray()
    assert np.allclose(a_hat, a_hat.T)
    assert np.all(a_hat >= 0.0) and np.all(a_hat <= 1.0)
    assert np.max(np.abs(np.linalg.eigvalsh(a_hat))) <= 1.0 + 1e-12

    flipped = edges[:, ::-1]
    assert np.allclose(symmetrize(flipped, n).toarray(), a_hat)


def test_symmetrize_regular_graph_row_sums_are_one():
    # ring: every node and neighbor has equal degree, so rows sum to 1
    n = 6
    ring = np.array([(i, (i + 1) % n) for i in range(n)])
    sums = symmetrize(ring, n).toarray().sum(axis=1)
    assert np.allclose(sums, 1.0)


# ---------------------------------------------------------------------------
# homophily
# ---------------------------------------------------------------------------


def test_homophily_degenerate_labels():
    edges = np.array([[0, 1], [1, 2]])
    same = np.array([5.0, 5.0, 5.0])
    assert homophily_score(edges, same, "regression") == 0.0
    assert homophily_score(edges, same, "classification") == 1.0


def test_homophily_two_nodes():
    assert homophily_score(np.array([[0, 1]]), np.array([50.0, 60.0]),
                           "regression") == 10.0


def test_homophily_ring_beats_random_on_sorted_ages():
    n = 40
    ages = np.sort(RNG.uniform(47, 81, n))
    ring = np.array([(i, (i + 1) % n) for i in range(n)])
    rand = random_graph(n, 2, np.random.default_rng(8))
    assert (homophily_score(ring, ages, "regression")
            < homophily_score(rand, ages, "regression"))


def test_homophily_errors():
    with pytest.raises(ValueError, match="empty"):
        homophily_score(np.empty((0, 2)), np.array([1.0]), "regression")
    with pytest.raises(ValueError, match="mode"):
        homophily_score(np.array([[0, 1]]), np.array([1.0, 2.0]), "nope")


def test_homophily_counts_undirected_pairs_once():
    edges = np.array([[0, 1], [1, 0], [0, 1]])
    assert homophily_score(edges, np.array([1.0, 3.0]), "regression") == 2.0


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def test_export_dot_statements(tmp_path):
    path = tmp_path / "g.dot"
    export_graph(np.array([[0, 1]]), np.array([47.0, 81.0]), path, "ab12", "dot")
    text = path.read_text()
    assert text.count("[label=") == 2
    assert text.count("->") == 1
    assert '"#0000ff"' in text  # youngest is pure blue
    assert '"#ff0000"' in text  # oldest is pure red
    assert text.endswith("}\n// config_hash=ab12\n")


def test_export_json_round_trip(tmp_path):
    edges = random_graph(6, 2, np.random.default_rng(2))
    path = tmp_path / "g.json"
    export_graph(edges, RNG.uniform(47, 81, 6), path, "ab12", "json")
    payload = json.loads(path.read_text())
    back = {(e["src"], e["dst"]) for e in payload["edges"]}
    assert back == {tuple(map(int, e)) for e in edges}
    assert payload["config_hash"] == "ab12"


def test_export_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="format"):
        export_graph(np.array([[0, 1]]), np.array([1.0, 2.0]),
                     tmp_path / "g.x", "ab12", "gexf")
