import itertools
import json
import math
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    FixedKernel,
    dense_draw,
    edge_set,
    empirical_topk_sets,
    grad_check,
    kernel_distances,
    plackett_luce_set_probs,
    softmax,
    tape_size,
    total_variation,
    weighted_sum,
)
from popgraph import graphgen
from popgraph import numerics as nm
from popgraph.graphgen import (
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


def dense(scores) -> np.ndarray:
    """All rows of an ``EdgeScores`` operator as one array."""
    return scores.rows(0, scores.shape[0])


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def test_euclidean_3_4_5():
    d = kernel_distances(pairwise_distance(np.array([[0.0, 0.0], [3.0, 4.0]]), "euclidean"))
    assert abs(d[0, 1] - 5.0) < 1e-12
    assert d[0, 0] == 0.0


def test_cosine_orthogonal_and_identical():
    f = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0]])
    d = kernel_distances(pairwise_distance(f, "cosine"))
    assert abs(d[0, 1] - 1.0) < 1e-12
    assert abs(d[0, 2]) < 1e-12  # same direction, different length


def test_hyperbolic_coincident_rows():
    f = np.array([[0.3, 0.1], [0.3, 0.1], [0.0, 0.5]])
    d = kernel_distances(pairwise_distance(f, "hyperbolic"))
    assert d[0, 1] == 0.0
    assert d[0, 2] > 0.0


def test_hyperbolic_rescales_large_inputs():
    f = np.array([[10.0, 0.0], [0.0, 10.0], [5.0, 5.0]])
    d = kernel_distances(pairwise_distance(f, "hyperbolic"))
    assert np.all(np.isfinite(d))
    assert np.all(d >= 0.0)


def test_unknown_metric():
    with pytest.raises(ValueError, match="metric"):
        pairwise_distance(np.eye(3), "manhattan")


@pytest.mark.parametrize("metric", ["euclidean", "cosine", "hyperbolic"])
def test_distance_gradients_match_fd(metric, rng):
    # k = n - 1 draws every off-diagonal pair, so the weighted sum of the
    # drawn first-pick scores reaches every distance
    f = Tensor(rng.uniform(0.1, 1.0, size=(5, 3)), requires_grad=True)
    w = rng.normal(size=20)

    def loss():
        lp = edge_probabilities(pairwise_distance(f, metric), 1.0)
        graph = gumbel_topk_sample(lp, 4)
        return weighted_sum(graph.log_probs, w)

    report = grad_check(loss, [f])
    assert report.passed, f"{metric}: {report.summary()}"


@pytest.mark.parametrize("metric", ["euclidean", "cosine", "hyperbolic"])
def test_distances_symmetric_zero_diagonal(metric, rng):
    d = kernel_distances(pairwise_distance(rng.uniform(size=(6, 4)), metric))
    assert np.allclose(d, d.T, atol=1e-12)
    assert np.allclose(np.diag(d), 0.0)
    assert np.all(np.isfinite(d))


# ---------------------------------------------------------------------------
# edge kernel
# ---------------------------------------------------------------------------


def test_kernel_zero_distance_gives_certain_edge():
    lp = dense(edge_probabilities(FixedKernel(np.zeros((2, 2))), 3.7))
    assert np.all(lp == 0.0)  # p = 1


def test_kernel_unit_values():
    lp = dense(edge_probabilities(FixedKernel(np.array([[0.0, 1.0], [1.0, 0.0]])), 1.0))
    assert abs(np.exp(lp[0, 1]) - math.exp(-1.0)) < 1e-12


def test_kernel_doubling_t_squares_p(rng):
    d = FixedKernel(rng.uniform(0.0, 2.0, size=(4, 4)) ** 2)
    p1 = np.exp(dense(edge_probabilities(d, 0.8)))
    p2 = np.exp(dense(edge_probabilities(d, 1.6)))
    assert np.allclose(p2, p1 ** 2, atol=1e-12)


def test_kernel_monotone_in_distance():
    d = pairwise_distance(np.array([[0.0], [0.5], [1.0], [2.0]]), "euclidean")
    p = np.exp(dense(edge_probabilities(d, 1.3))[0])
    assert np.all(np.diff(p) < 0.0)
    assert p[0] == 1.0


def test_kernel_gradient_through_temperature(rng):
    # k = n - 1 draws every off-diagonal pair, so the weighted sum of the
    # drawn first-pick scores reaches every kernel entry
    tau = Tensor(0.4, requires_grad=True)
    d = FixedKernel(rng.uniform(0.1, 1.5, size=(4, 4)) ** 2)
    w = rng.normal(size=12)

    def loss():
        lp = edge_probabilities(d, nm.exp(tau))
        return weighted_sum(gumbel_topk_sample(lp, 3).log_probs, w)

    report = grad_check(loss, [tau])
    assert report.passed, report.summary()


def test_kernel_nonpositive_log(rng):
    d = pairwise_distance(rng.uniform(size=(5, 3)), "euclidean")
    lp = dense(edge_probabilities(d, math.exp(0.0)))
    assert np.all(lp <= 0.0)


# ---------------------------------------------------------------------------
# Gumbel-Top-k sampler
# ---------------------------------------------------------------------------


def fixed_scores(matrix):
    """The operator that scores exactly ``matrix``."""
    return edge_probabilities(FixedKernel(-matrix), 1.0)


def test_sampler_forced_exhaustion(rng):
    lp = fixed_scores(rng.normal(size=(3, 3)))
    g = gumbel_topk_sample(lp, k=2, rng=np.random.default_rng(0))
    assert edge_set(g) == {(i, j) for i in range(3) for j in range(3) if i != j}


def test_sampler_retains_noise_free_scores(rng):
    # each edge scores its first-pick log-probability under the scores
    # alone: the noise that picked it does not enter
    s = rng.normal(size=(6, 6)) - 1.0
    lp = edge_probabilities(FixedKernel(-s), Tensor(1.0, requires_grad=True))
    g = gumbel_topk_sample(lp, k=2, rng=np.random.default_rng(1))
    masked = s.copy()
    np.fill_diagonal(masked, -np.inf)
    row_lse = np.log(np.exp(masked).sum(axis=1))
    expected = s[g.edges[:, 0], g.edges[:, 1]] - row_lse[g.edges[:, 0]]
    assert np.max(np.abs(g.log_probs.values - expected)) <= 1e-12


def test_sampler_replay_with_frozen_noise(rng, monkeypatch):
    # the generator's noise, filled block by block (here 2 rows at a time),
    # is the noise of one (N, N) fill from a generator seeded alike
    monkeypatch.setattr(graphgen, "BLOCK_ENTRIES", 2 * 7)
    v = rng.normal(size=(7, 3))
    lp = edge_probabilities(pairwise_distance(v, "euclidean"), 1.5)
    g = gumbel_topk_sample(lp, k=3, rng=np.random.default_rng(5))
    noise = graphgen.gumbel_fill(np.random.default_rng(5), np.empty((7, 7)))
    assert np.array_equal(g.edges, dense_draw(v, 1.5, "euclidean", 3, noise)[0])


def test_sampler_zero_noise_recovers_knn(rng):
    """At t = 1 without noise the sampler picks the kNN graph's edges in
    its order, ties included, for every metric: both rank the same negated
    squared-distance blocks. Rows 2 and 6 coincide; for cosine, row 4 is
    zero, at distance 1 from every other row."""
    for metric in ("euclidean", "cosine", "hyperbolic"):
        f = rng.uniform(size=(9, 4))
        f[6] = f[2]
        if metric == "cosine":
            f[4] = 0.0
        lp = edge_probabilities(pairwise_distance(f, metric), 1.0)
        g = gumbel_topk_sample(lp, k=3)
        knn = knn_static_graph(f, k=3, metric=metric)
        assert np.array_equal(g.edges, knn), metric


@pytest.mark.parametrize("metric", ["euclidean", "cosine", "hyperbolic"])
@pytest.mark.parametrize("rows_per_block", [4, 37])
def test_noise_free_draw_is_a_zero_noise_replay(metric, rows_per_block, rng, monkeypatch):
    """A draw without rng picks the edges of a dense draw over zero noise,
    and scores them alike, in ten blocks and in one. Rows 3 and 7 coincide;
    for cosine, row 11 is zero, at distance 1 from every other row: ties
    both break toward the lower index."""
    monkeypatch.setattr(graphgen, "BLOCK_ENTRIES", rows_per_block * 37)
    v = rng.normal(size=(37, 6))
    v[7] = v[3]
    if metric == "cosine":
        v[11] = 0.0
    lp = edge_probabilities(pairwise_distance(v, metric), Tensor(2.5, requires_grad=True))
    edges, first_pick, _ = dense_draw(v, 2.5, metric, 5, np.zeros((37, 37)))
    free = gumbel_topk_sample(lp, 5)
    assert np.array_equal(free.edges, edges)
    assert np.max(np.abs(free.log_probs.values - first_pick)) <= 1e-12
    assert free.noise is None
    nm.reset_tape()


def test_noise_free_draw_gives_no_helper_job_and_no_noise_buffer(rng, monkeypatch):
    """At N = 2000 a pass has 16 blocks, enough for the helper, yet a
    noise-free draw hands it nothing, scored or not, and neither does a kNN
    graph. The draw ranks each score block in place: it peaks below three
    blocks (the score block and the temporaries of its making), where a
    draw with noise adds its two noise buffers."""
    jobs = _count_helper_jobs(monkeypatch)
    n = 2000
    block = graphgen.rows_per_block(n) * n * 8
    phen = rng.uniform(size=(n, 40))
    with nm.no_grad():
        lp = edge_probabilities(pairwise_distance(phen, "euclidean"), 1.0)
        tracemalloc.start()
        try:
            free = gumbel_topk_sample(lp, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 3 * block, f"noise-free draw peaked at {peak / block:.2f} blocks"
    assert np.array_equal(free.edges, knn_static_graph(phen, 5, "euclidean"))
    scored = gumbel_topk_sample(edge_probabilities(pairwise_distance(phen, "euclidean"),
                                                   Tensor(1.0, requires_grad=True)), 5)
    assert scored.log_probs is not None and np.array_equal(scored.edges, free.edges)
    nm.reset_tape()
    assert jobs == []
    with nm.no_grad():
        gumbel_topk_sample(lp, 5, rng=np.random.default_rng(0))
    assert len(jobs) > 0


def test_draw_is_scored_exactly_when_the_tape_records_it(rng):
    """The same draw is scored, on the tape, with gradients on and t or the
    features trainable. Under ``no_grad``, or with constant features and t,
    it picks the same edges, scores none and leaves the tape empty."""
    f = rng.uniform(size=(8, 3))
    tau = Tensor(0.3, requires_grad=True)

    def draw(features, t):
        lp = edge_probabilities(pairwise_distance(features, "euclidean"), t)
        return gumbel_topk_sample(lp, 2, rng=np.random.default_rng(3))

    nm.reset_tape()
    scored = draw(f, nm.exp(tau))
    assert scored.log_probs.requires_grad
    assert tape_size() == 2  # exp(tau) and the edge scores
    assert draw(Tensor(f, requires_grad=True), 1.0).log_probs.requires_grad
    nm.reset_tape()
    with nm.no_grad():
        quiet = draw(f, nm.exp(tau))
    constant = draw(f, Tensor(float(np.exp(0.3))))
    for g in (quiet, constant):
        assert g.log_probs is None
        assert np.array_equal(g.edges, scored.edges)
    assert tape_size() == 0


def test_sampler_rejects_bad_k():
    lp = fixed_scores(np.zeros((4, 4)))
    with pytest.raises(ValueError):
        gumbel_topk_sample(lp, k=4, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        gumbel_topk_sample(lp, k=0, rng=np.random.default_rng(0))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(3, 12), seed=st.integers(0, 10_000))
def test_sampler_out_degree_always_k(n, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, n))
    lp = fixed_scores(rng.normal(size=(n, n)))
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


@pytest.mark.parametrize("n", [600, 2000, 20_000])
@pytest.mark.parametrize("noise", [True, False])
def test_topk_desc_matches_a_stable_sort_on_sampler_blocks(n, noise, rng):
    """At the sampler's block shape for N, on Gumbel-perturbed and on
    noise-free scores with the diagonal masked, at the sampler's k and at
    larger k."""
    rows = graphgen.rows_per_block(n)
    values = -rng.uniform(0.0, 5.0, size=(rows, n))
    if noise:
        values += graphgen.gumbel_fill(rng, np.empty((rows, n)))
    graphgen.fill_block_diagonal(values, np.arange(rows), -np.inf)
    order = np.argsort(-values, axis=1, kind="stable")
    for k in (1, 5, 40):
        assert np.array_equal(topk_desc(values, k), order[:, :k]), k


@pytest.mark.parametrize("levels", [4, 100, 1])
def test_topk_desc_ranks_heavy_ties_like_a_stable_sort(levels, rng):
    """A 131 x 2000 block of integers below ``levels``, whose ties straddle
    the k-th place in most rows: at 4 each row has hundreds of candidates,
    at 1 the block is all equal, so every entry is a candidate, and at 100
    the candidates stay few; the one lexsort ranks them all. Then the same
    block with every third row made of distinct values."""
    ties = rng.integers(0, levels, size=(131, 2000)).astype(float)
    expect = np.argsort(-ties, axis=1, kind="stable")[:, :5]
    assert np.array_equal(topk_desc(ties, 5), expect)
    kth = np.take_along_axis(ties, expect[:, -1:], axis=1)
    assert np.mean(np.count_nonzero(ties >= kth, axis=1) > 5) > 0.5
    mixed = ties.copy()
    mixed[::3] = rng.normal(size=(44, 2000))
    expect = np.argsort(-mixed, axis=1, kind="stable")[:, :5]
    assert np.array_equal(topk_desc(mixed, 5), expect)


def test_topk_desc_refuses_nan(rng):
    values = rng.normal(size=(6, 300))
    values[4, 17] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        topk_desc(values, 5)


@pytest.mark.parametrize("metric", ["euclidean", "cosine", "hyperbolic"])
@pytest.mark.parametrize("rows_per_block", [1, 4, 37])
def test_blocked_draw_matches_dense_reference(metric, rows_per_block, monkeypatch, rng):
    """Blocks of 1 row, of 4 rows (the last one ragged) and one block: the
    same noise picks the same edges as a dense draw with a full stable sort,
    with the same first-pick log p and the same normalized adjacency; the
    generator's block-by-block noise is one (N, N) ``gumbel_fill``. A draw
    of three or more blocks fills its noise rows on the helper thread."""
    jobs = _count_helper_jobs(monkeypatch)
    n, k, t = 37, 5, 2.5
    v = rng.normal(size=(n, 6))
    v[7] = v[3]  # coincident points, d = 0
    if metric == "cosine":
        v[11] = 0.0  # distance 1 to every other row
    monkeypatch.setattr(graphgen, "BLOCK_ENTRIES", rows_per_block * n)
    noise = graphgen.gumbel_fill(np.random.default_rng(8), np.empty((n, n)))
    edges, first_pick, a_hat = dense_draw(v, t, metric, k, noise)

    lp = edge_probabilities(pairwise_distance(v, metric), Tensor(t, requires_grad=True))
    g = gumbel_topk_sample(lp, k, rng=np.random.default_rng(8))
    assert bool(jobs) == (rows_per_block < n)
    assert np.array_equal(g.edges, edges)
    assert np.max(np.abs(g.log_probs.values - first_pick)) <= 1e-12
    assert np.array_equal(g.a_hat.toarray(), a_hat)
    nm.reset_tape()
    with nm.no_grad():
        drawn = gumbel_topk_sample(lp, k, rng=np.random.default_rng(8))
    assert np.array_equal(drawn.edges, edges)
    assert drawn.log_probs is None


@pytest.mark.parametrize("metric", ["euclidean", "cosine", "hyperbolic"])
def test_training_draw_backs_through_the_kernel_it_walked(metric, monkeypatch, rng):
    """The scored draw hands ``kernel_edge_scores`` the very kernel its
    ``EdgeScores`` walked, and the backward recomputes its blocks through
    that object: no second kernel is built for the gradient."""
    f = Tensor(rng.uniform(-0.4, 0.4, size=(12, 3)), requires_grad=True)
    lp = edge_probabilities(pairwise_distance(f, metric), 1.5)
    scored = []
    real = graphgen.kernel_edge_scores

    def captured(dist, *args):
        scored.append(dist)
        return real(dist, *args)

    monkeypatch.setattr(graphgen, "kernel_edge_scores", captured)
    g = gumbel_topk_sample(lp, 3, rng=np.random.default_rng(0))
    assert scored == [lp.kernel] and scored[0] is lp.kernel

    blocks = []
    forward = lp.kernel.forward

    def counted_forward(rows):
        blocks.append(rows)
        return forward(rows)

    lp.kernel.forward = counted_forward
    monkeypatch.setattr(graphgen, "BLOCK_METRICS", {})  # a second build would fail
    nm.backward(weighted_sum(g.log_probs, rng.normal(size=36)))
    assert np.array_equal(np.concatenate(blocks), np.arange(12))
    assert np.all(np.isfinite(f.grad)) and np.any(f.grad != 0.0)


def _training_draw(metric, n=37, seed=5, features=None):
    """A scored draw from a generator and its backward: edges, scores, the
    feature and temperature gradients and the generator's end state. The
    features are uniform on [-0.4, 0.4] unless given."""
    rng = np.random.default_rng(seed)
    if features is None:
        features = np.random.default_rng(1).uniform(-0.4, 0.4, size=(n, 6))
    f = Tensor(features, requires_grad=True)
    tau = Tensor(np.log(2.5), requires_grad=True)
    lp = edge_probabilities(pairwise_distance(f, metric), nm.exp(tau))
    g = gumbel_topk_sample(lp, 5, rng=rng)
    weights = np.random.default_rng(2).normal(size=n * 5)
    weights[g.edges[:, 0] % 3 == 0] = 0.0  # rows the backward skips
    nm.backward(weighted_sum(g.log_probs, weights))
    return g.edges, g.log_probs.values, f.grad, tau.grad, rng.bit_generator.state


@pytest.mark.parametrize("metric", ["euclidean", "cosine", "hyperbolic"])
@pytest.mark.parametrize("rows_per_block", [1, 4])
def test_helper_thread_changes_no_bit(metric, rows_per_block, monkeypatch):
    """The same training draw and backward with the helper thread and with
    the helper off (every pass below the block-count threshold): equal to the
    last bit, and the generator ends in the same state. Hyperbolic also draws
    from all-zero features, which its kernel leaves unscaled: no
    step of that draw or its backward may warn."""
    monkeypatch.setattr(graphgen, "BLOCK_ENTRIES", rows_per_block * 37)
    inputs = [None] + ([np.zeros((37, 6))] if metric == "hyperbolic" else [])
    threaded = [_training_draw(metric, features=f) for f in inputs]
    monkeypatch.setattr(graphgen, "HELPER_MIN_BLOCKS", 10**9)
    inline = [_training_draw(metric, features=f) for f in inputs]
    for one, other in zip(threaded, inline):
        for a, b in zip(one[:4], other[:4]):
            assert np.array_equal(a, b)
        assert one[4] == other[4]


def test_concurrent_draws_share_the_helper(monkeypatch):
    """Four threads draw and back-propagate at once through the one helper
    thread, with a short switch interval: each gets exactly the result of
    the same draw run alone with the helper off."""
    monkeypatch.setattr(graphgen, "BLOCK_ENTRIES", 4 * 37)
    metrics = ["euclidean", "cosine", "hyperbolic", "euclidean"]
    results = [None] * len(metrics)

    def worker(i):
        results[i] = [_training_draw(metrics[i], seed=i) for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(metrics))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    monkeypatch.setattr(graphgen, "HELPER_MIN_BLOCKS", 10**9)
    for i, metric in enumerate(metrics):
        alone = _training_draw(metric, seed=i)
        for repeat in results[i]:
            assert all(np.array_equal(a, b) for a, b in zip(repeat[:4], alone[:4]))
            assert repeat[4] == alone[4]


def _count_helper_jobs(monkeypatch):
    jobs = []
    submit = graphgen._HELPER.submit

    def counted(*args):
        jobs.append(submit(*args))
        return jobs[-1]

    monkeypatch.setattr(graphgen._HELPER, "submit", counted)
    return jobs


def test_short_pass_runs_on_the_calling_thread(monkeypatch):
    """A 2-block draw and backward hand the helper nothing; a 3-block one
    does."""
    jobs = _count_helper_jobs(monkeypatch)
    monkeypatch.setattr(graphgen, "BLOCK_ENTRIES", 19 * 37)
    _training_draw("euclidean")
    assert jobs == []
    monkeypatch.setattr(graphgen, "BLOCK_ENTRIES", 13 * 37)
    _training_draw("euclidean")
    assert len(jobs) > 0


def test_draw_that_raises_leaves_no_helper_job(monkeypatch, rng):
    """topk_desc fails on the second block while the helper is still drawing
    (slowly) the third block's noise: the draw waits for that job before it
    raises, so nothing touches the generator after the call."""
    import popgraph.graphgen as graphgen

    jobs = _count_helper_jobs(monkeypatch)
    monkeypatch.setattr(graphgen, "BLOCK_ENTRIES", 4 * 37)
    fill = graphgen.gumbel_fill

    def slow_fill(rng, out):
        time.sleep(0.05)
        return fill(rng, out)

    calls = []

    def failing_topk(values, k):
        calls.append(k)
        if len(calls) == 2:
            raise RuntimeError("second block")
        return topk_desc(values, k)

    monkeypatch.setattr(graphgen, "gumbel_fill", slow_fill)
    monkeypatch.setattr(graphgen, "topk_desc", failing_topk)
    lp = edge_probabilities(pairwise_distance(rng.normal(size=(37, 4)), "euclidean"),
                            Tensor(1.0, requires_grad=True))
    with pytest.raises(RuntimeError, match="second block"):
        gumbel_topk_sample(lp, 3, rng=np.random.default_rng(0))
    assert len(jobs) >= 3 and all(job.done() for job in jobs)


@pytest.mark.parametrize("metric", ["euclidean", "cosine", "hyperbolic"])
@pytest.mark.parametrize("rows_per_block", [37, 19, 13])
def test_multi_draw_pass_matches_sequential_draws(metric, rows_per_block, monkeypatch, rng):
    """A pass of S draws walks the kernel once and gives, draw for draw, the
    edges of S one-draw calls from one generator, over 1, 2 and 3 row blocks
    (the helper on only in the last), and leaves the generator where those
    calls leave it. Each drawn graph has exactly k distinct out-edges per
    node and no self-edge."""
    jobs = _count_helper_jobs(monkeypatch)
    monkeypatch.setattr(graphgen, "BLOCK_ENTRIES", rows_per_block * 37)
    n, k, count = 37, 4, 5
    lp = edge_probabilities(pairwise_distance(rng.uniform(-0.4, 0.4, size=(n, 6)), metric), 2.5)
    sequential = np.random.default_rng([7, 1])
    expected = [gumbel_topk_sample(lp, k, rng=sequential).edges for _ in range(count)]
    jobs.clear()
    forward, walked = lp.kernel.forward, []
    lp.kernel.forward = lambda rows: walked.append(rows) or forward(rows)
    together = np.random.default_rng([7, 1])
    graphs = graphgen.gumbel_topk_samples(lp, k, together, count)
    assert np.array_equal(np.concatenate(walked), np.arange(n))  # each block scored once
    assert (len(jobs) > 0) == (rows_per_block == 13)
    assert len(graphs) == count
    for graph, edges in zip(graphs, expected):
        assert np.array_equal(graph.edges, edges)
        assert graph.log_probs is None and graph.n_nodes == n
        src, dst = graph.edges.T
        assert np.array_equal(src, np.repeat(np.arange(n), k)) and np.all(src != dst)
        assert all(len(set(dst[i * k:(i + 1) * k])) == k for i in range(n))
    assert together.bit_generator.state == sequential.bit_generator.state
    assert together.random() == sequential.random()


def test_multi_draw_pass_refuses_what_it_cannot_replay_or_score(rng):
    """More than one draw needs a PCG64 generator (one draw takes any), and
    only a one-draw pass is scored."""
    features = rng.uniform(size=(9, 3))
    lp = edge_probabilities(pairwise_distance(features, "euclidean"), 1.0)
    mt = np.random.Generator(np.random.MT19937(0))
    with pytest.raises(TypeError, match="MT19937"):
        graphgen.gumbel_topk_samples(lp, 2, mt, 3)
    assert len(graphgen.gumbel_topk_samples(lp, 2, mt, 1)) == 1
    with pytest.raises(ValueError, match="at least 1"):
        graphgen.gumbel_topk_samples(lp, 2, np.random.default_rng(0), 0)
    scored = edge_probabilities(pairwise_distance(Tensor(features, requires_grad=True),
                                                  "euclidean"), 1.0)
    with pytest.raises(ValueError, match="one-draw pass is scored"):
        graphgen.gumbel_topk_samples(scored, 2, np.random.default_rng(0), 2)
    assert graphgen.gumbel_topk_samples(scored, 2, np.random.default_rng(0), 1)[0].log_probs \
        is not None


def test_draw_holds_no_n_by_n_array(rng):
    """At N = 3000 one N x N float64 array is 72 MB: neither a no-grad draw
    nor a training draw's forward and backward may allocate that much."""
    n = 3000
    bound = n * n * 8
    phen = rng.uniform(size=(n, 40))
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
        g = gumbel_topk_sample(lp, 5, rng=np.random.default_rng(1))
        nm.backward(weighted_sum(g.log_probs, rng.normal(size=n * 5)))
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


def test_knn_complete_when_k_is_n_minus_1(rng):
    edges = knn_static_graph(rng.uniform(size=(5, 2)), 4, "euclidean")
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


@pytest.mark.parametrize("n,k,seed", [(6, 3, 0), (5, 4, 1)])
def test_random_graph_row_is_a_uniform_subset(n, k, seed):
    """20,000 seeded draws of node 2's targets hit every k-subset of the
    other nodes, with a chi-square below its 1e-4 tail bound."""
    import scipy.stats

    others = [j for j in range(n) if j != 2]
    subsets = {frozenset(c): 0 for c in itertools.combinations(others, k)}
    rng = np.random.default_rng(seed)
    draws = 20_000
    for _ in range(draws):
        subsets[frozenset(random_graph(n, k, rng)[2 * k:3 * k, 1].tolist())] += 1
    counts = np.array(list(subsets.values()))
    assert counts.min() > 0
    expect = draws / len(counts)
    chi2 = float(np.sum((counts - expect) ** 2 / expect))
    assert chi2 < scipy.stats.chi2.ppf(1 - 1e-4, max(len(counts) - 1, 1))


@pytest.mark.parametrize("n,k", [(2, 1), (10, 3), (600, 5), (2000, 5), (40, 39)])
def test_random_graph_makes_one_integers_call_of_k_distinct_targets(n, k):
    """Each node gets k distinct targets other than itself, the same seed
    gives the same edges, and the generator ends where one ``integers``
    call over the (n, k) bounds leaves it."""
    rng = np.random.default_rng(n + k)
    edges = random_graph(n, k, rng)
    assert edges.dtype == np.intp and edges.shape == (n * k, 2)
    assert np.array_equal(edges[:, 0], np.repeat(np.arange(n), k))
    targets = np.sort(edges[:, 1].reshape(n, k), axis=1)
    assert np.all(targets[:, 1:] > targets[:, :-1])
    assert np.all(edges[:, 0] != edges[:, 1])
    assert targets.min() >= 0 and targets.max() < n
    assert np.array_equal(edges, random_graph(n, k, np.random.default_rng(n + k)))
    ref = np.random.default_rng(n + k)
    ref.integers(0, np.arange(n - k, n), size=(n, k), dtype=np.intp)
    assert rng.bit_generator.state == ref.bit_generator.state


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


def test_homophily_ring_beats_random_on_sorted_ages(rng):
    n = 40
    ages = np.sort(rng.uniform(47, 81, n))
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


def test_export_json_round_trip(tmp_path, rng):
    edges = random_graph(6, 2, np.random.default_rng(2))
    path = tmp_path / "g.json"
    export_graph(edges, rng.uniform(47, 81, 6), path, "ab12", "json")
    payload = json.loads(path.read_text())
    back = {(e["src"], e["dst"]) for e in payload["edges"]}
    assert back == {tuple(map(int, e)) for e in edges}
    assert payload["config_hash"] == "ab12"


def test_export_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="format"):
        export_graph(np.array([[0, 1]]), np.array([1.0, 2.0]),
                     tmp_path / "g.x", "ab12", "gexf")
