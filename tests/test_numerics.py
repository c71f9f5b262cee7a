import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (GradCheckReport, concat, dense_edge_forward, dense_kernel_edge_grads,
                     gather_rows, grad_check, kernel_distances, tape_size, weighted_sum)
from popgraph import graphgen
from popgraph import numerics as nm
from popgraph.gcn import total_loss
from popgraph.graphgen import pairwise_distance
from popgraph.numerics import (
    NonFiniteError,
    NumericsError,
    ShapeError,
    Tensor,
    backward,
    no_grad,
    reset_tape,
)


def _weights(*shape):
    """Fixed weights of a weighted-sum loss, drawn from their own generator
    so that they move none of the test's own inputs."""
    return np.random.default_rng(77).normal(size=shape)


def _check(build_loss, params, tol=1e-4):
    report = grad_check(build_loss, params, h=1e-5, tolerance=tol)
    assert report.passed, report.summary()
    return report


# ---------------------------------------------------------------------------
# primitives vs central finite differences
# ---------------------------------------------------------------------------


def test_matmul_grads(rng):
    a = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(5, 2)), requires_grad=True)

    _check(lambda: weighted_sum(nm.dense(a, b), _weights(3, 2)), [a, b])


def test_rowvec_grads(rng):
    m = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    v = Tensor(rng.normal(size=(3,)), requires_grad=True)

    _check(lambda: weighted_sum(nm.dense(m, w, v), _weights(4, 3)), [m, w, v])
    _check(lambda: weighted_sum(nm.mul_rowvec(m, v), _weights(4, 3)), [m, v])


def test_unary_grads(rng):
    # keep values away from the relu kink
    a = Tensor(rng.uniform(0.5, 2.0, size=(3, 3)), requires_grad=True)
    b = Tensor(rng.uniform(-2.0, -0.5, size=(3, 3)), requires_grad=True)
    eye = np.eye(3)
    w = _weights(6, 3)

    _check(lambda: weighted_sum(concat([nm.dense(a, eye, relu=True),
                                        nm.dense(b, eye, relu=True)]), w), [a, b])
    _check(lambda: weighted_sum(concat([nm.sigmoid(a), nm.sigmoid(b)]), w), [a, b])
    _check(lambda: weighted_sum(concat([nm.exp(a), nm.exp(b)]), w), [a, b])


def test_concat_reshape_grads(rng):
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)

    def loss():
        return weighted_sum(nm.reshape(concat([a, b], axis=0), (3, 6)), _weights(3, 6))

    _check(loss, [a, b])


def test_gather_rows_accumulates_repeats():
    """A row gathered twice must receive both gradient contributions."""
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
    out = gather_rows(a, np.array([0, 0, 1]))
    backward(weighted_sum(out, 1.0))
    assert np.allclose(a.grad, [[2.0, 2.0], [1.0, 1.0]])


def test_gather_rows_fd(rng):
    a = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    idx = np.array([4, 0, 0, 2])
    _check(lambda: weighted_sum(gather_rows(a, idx), _weights(4, 3)), [a])


@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("relu", [True, False])
@pytest.mark.parametrize("x_records", [True, False])
def test_dense_grads_fd(bias, relu, x_records):
    rng = np.random.default_rng(13)
    x = Tensor(rng.normal(size=(5, 3)), requires_grad=x_records)
    w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=4), requires_grad=True) if bias else None
    pre = x.values @ w.values + (b.values if bias else 0.0)
    assert np.min(np.abs(pre)) > 0.05 and np.any(pre < 0.0)  # off the ReLU kink
    params = [p for p in (x, w, b) if p is not None and p.requires_grad]

    _check(lambda: weighted_sum(nm.dense(x, w, b, relu=relu), _weights(5, 4)), params)
    if not x_records:
        assert x.grad is None


def test_dense_checks_the_preactivation():
    """x @ w = -inf must raise, though the ReLU would have made it 0."""
    x = Tensor(np.array([[1e308, 1e308]]))
    w = Tensor(np.array([[-10.0], [-10.0]]), requires_grad=True)
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="dense"):
        nm.dense(x, w, relu=True)
    reset_tape()


def test_backward_gives_each_tensor_its_own_grad():
    """Gradients that ``total_loss`` passes through to two parents, that
    ``reshape`` views, and that two ``dense`` ops receiving one ``g`` then
    mask in place: none may share memory with another tensor's, and all
    must match finite differences."""
    rng = np.random.default_rng(11)
    # positive throughout, so neither ReLU masks its gradient to zero
    x = Tensor(rng.uniform(0.5, 1.0, size=(3, 4)), requires_grad=True)
    w1, w2 = (Tensor(rng.uniform(0.1, 1.0, size=(12, 1)), requires_grad=True)
              for _ in range(2))
    b = Tensor(rng.uniform(0.1, 1.0, size=1), requires_grad=True)
    params = [x, w1, w2, b]
    inner = []

    def loss():
        flat = nm.reshape(x, (4, 3))
        row = nm.reshape(flat, (1, 12))
        p = nm.dense(row, w1, b, relu=True)
        q = nm.dense(row, w2, relu=True)
        p0, q0 = nm.reshape(p, ()), nm.reshape(q, ())
        total = total_loss(p0, q0).total
        inner[:] = [flat, row, p, q, p0, q0, total]
        return total

    _check(loss, params)
    reset_tape()
    for p in params:
        p.zero_grad()
    backward(loss())
    grads = [t.grad for t in inner + params]
    assert all(g is not None for g in grads)
    for i, gi in enumerate(grads):
        for gj in grads[i + 1:]:
            assert not np.shares_memory(gi, gj)


def _brute_offdiag_logsumexp(v):
    n = v.shape[0]
    return np.array([np.log(sum(np.exp(v[i, j]) for j in range(n) if j != i))
                     for i in range(n)])


def _all_targets(n):
    """The (n, n - 1) target grid of every off-diagonal pair: row i holds
    every node but i, ascending."""
    return np.array([[j for j in range(n) if j != i] for i in range(n)])


@pytest.mark.parametrize("block_rows", [1, 3, 7, 256])
def test_offdiag_logsumexp_rows_values_and_fd(block_rows, monkeypatch, rng):
    """The first-pick normalizer: each row's logsumexp over every column but
    its own, in blocks of 1, 3 (a ragged last block), 7 and 256 rows of 7.
    The diagonal carries the row maximum, so leaking it in would show."""
    v = rng.normal(size=(7, 7))
    np.fill_diagonal(v, 5.0)
    out = np.concatenate([graphgen.offdiag_logsumexp(v[r0:r1].copy(), np.arange(r0, r1))
                          for r0, r1 in graphgen.row_blocks(7, block_rows)])
    assert np.allclose(out, _brute_offdiag_logsumexp(v), atol=1e-12)

    # on the tape: the normalized scores of all n - 1 candidates of a row
    # are a log-softmax over them, and finite differences agree
    monkeypatch.setattr(graphgen, "BLOCK_ENTRIES", block_rows * 7)
    f = Tensor(rng.normal(size=(7, 3)), requires_grad=True)
    t = Tensor(0.8, requires_grad=True)
    targets = _all_targets(7)
    raw, row_lse = dense_edge_forward(f.values, t.values, "euclidean", targets)
    scores = graphgen.kernel_edge_scores(pairwise_distance(f, "euclidean"), t, targets, raw,
                                         row_lse).values
    assert np.allclose(np.exp(scores).reshape(7, 6).sum(axis=1), 1.0, atol=1e-12)
    dense = np.zeros((7, 7))
    np.put_along_axis(dense, targets, raw, axis=1)
    np.fill_diagonal(dense, 5.0)
    assert np.allclose(scores, (raw - _brute_offdiag_logsumexp(dense)[:, None]).reshape(-1),
                       atol=1e-12)
    weights = rng.normal(size=raw.size)
    _check(lambda: weighted_sum(_edge_scores(f, t, "euclidean", targets), weights), [f, t])


def test_offdiag_logsumexp_rows_rejects_bad_operands():
    with pytest.raises(ShapeError, match="2-D"):
        pairwise_distance(Tensor(np.zeros(3)), "euclidean")
    with pytest.raises(ShapeError, match="at least 2"):
        pairwise_distance(Tensor(np.zeros((1, 1))), "euclidean")
    with pytest.raises(ValueError, match="metric"):
        pairwise_distance(Tensor(np.zeros((3, 3))), "manhattan")


def _edge_scores(f, t, metric, targets):
    """kernel_edge_scores over the (N, k) grid ``targets`` with the forward a
    sampler's block pass would hand it, taken from the dense oracle at the
    current values of f and t."""
    raw, row_lse = dense_edge_forward(f.values, t.values, metric, targets)
    return graphgen.kernel_edge_scores(pairwise_distance(f, metric), t, targets, raw, row_lse)


# source rows whose every edge gets zero weight, by id prefix
DEAD_ROWS = {"": (), "dead-block-": (4, 5, 6, 7), "part-dead-": (1, 6)}

# The kernel tests' ids carry "True-", the first-pick law they check, so each
# case keeps the name under which its earlier results were recorded.
METRICS = [pytest.param(metric, id=f"True-{metric}")
           for metric in ("euclidean", "cosine", "hyperbolic")]


@pytest.mark.parametrize("metric, block_rows, dead", [
    pytest.param(metric, block_rows, dead, id=f"{prefix}True-{block_rows}-{metric}")
    for prefix, dead in DEAD_ROWS.items()
    for metric in ("euclidean", "cosine", "hyperbolic")
    for block_rows in (1, 4, 10)])
def test_kernel_edge_scores_fd(metric, block_rows, dead, monkeypatch, rng):
    """Finite differences of the fused blocked primitive over 10 rows, in
    blocks of one row, of four (a ragged last block) and of all rows. Rows
    2 and 5 coincide (d = 0). Row 8 has the one largest norm, the row the
    hyperbolic kernel's rescale differentiates through: a tie at the
    largest norm, as rows 2 and 5 would make, is a kink. Row 9 is zero; its cosine distances are 1 by
    convention, a kink that finite differences cannot see through, so it is
    held out of the check and must get exactly zero cosine gradient. Each
    row has 5 distinct targets, in no order. Every edge out of a ``dead`` row
    has zero weight, so the backward skips that row: rows 4-7 are the whole
    second block of four, and rows 1 and 6 leave two blocks partly live."""
    monkeypatch.setattr(graphgen, "BLOCK_ENTRIES", block_rows * 10)
    v = rng.uniform(-0.4, 0.4, size=(9, 3))
    v[5] = v[2]
    v[8] = 0.5
    f = Tensor(v, requires_grad=True)
    zero_row = Tensor(np.zeros((1, 3)), requires_grad=True)
    t = Tensor(1.7, requires_grad=True)
    targets = np.argsort(rng.random((10, 10)) + 2.0 * np.eye(10), axis=1)[:, :5]
    weights = rng.normal(size=(10, 5))
    weights[list(dead)] = 0.0

    def loss():
        rows = concat([f, zero_row], axis=0)
        return weighted_sum(_edge_scores(rows, t, metric, targets), weights.reshape(-1))

    _check(loss, [f, t])
    reset_tape()
    zero_row.zero_grad()
    backward(loss())
    if metric == "cosine":
        assert np.all(zero_row.grad == 0.0)


@pytest.mark.parametrize("metric", METRICS)
def test_kernel_edge_scores_backward_skips_dead_rows(metric, monkeypatch, rng):
    """Building the scores hands the block kernel no block: the forward comes
    from the sampler's pass. The backward hands it each row that has an edge
    with nonzero gradient exactly once, in blocks of at most rows_per_block
    rows, and no other row; with no gradient at all it computes no block."""
    monkeypatch.setattr(graphgen, "BLOCK_ENTRIES", 3 * 12)
    kernel = graphgen.BLOCK_METRICS[metric]
    forward = kernel.forward
    handed = []

    def counting_forward(self, rows):
        handed.append(np.array(rows))
        return forward(self, rows)

    monkeypatch.setattr(kernel, "forward", counting_forward)
    f = Tensor(rng.uniform(-0.4, 0.4, size=(12, 3)), requires_grad=True)
    t = Tensor(1.3, requires_grad=True)
    targets = _all_targets(12)
    live = np.array([0, 2, 3, 7, 8, 11])
    weights = np.where(np.isin(np.arange(12), live)[:, None], rng.normal(size=(12, 11)), 0.0)
    weights[7, :10] = 0.0  # row 7 keeps one live edge

    scores = _edge_scores(f, t, metric, targets)
    assert handed == []
    backward(weighted_sum(scores, weights.reshape(-1)))
    assert max(len(rows) for rows in handed) == 3
    assert np.array_equal(np.concatenate(handed), live)

    f.zero_grad()
    t.zero_grad()
    scores = _edge_scores(f, t, metric, targets)
    handed.clear()
    backward(weighted_sum(scores, np.zeros(targets.size)))
    assert handed == []
    assert np.all(f.grad == 0.0) and t.grad == 0.0


@pytest.mark.parametrize("metric, dropout", [
    pytest.param(metric, dropout, id=f"{prefix}True-{metric}")
    for prefix, dropout in (("", 0.0), ("part-live-", 0.5))
    for metric in ("euclidean", "cosine", "hyperbolic")])
def test_kernel_edge_scores_backward_matches_dense_reference(metric, dropout, monkeypatch):
    """Against the backward as first written (oracles.dense_kernel_edge_grads:
    every row's block, a dense scatter) at N = 300 in blocks of 64 rows, with
    k = 5 edges per row and zero gradient on every edge out of about a
    quarter of the rows, as graph_loss gives the non-training sources. With
    ``dropout``, each edge of the other rows also gets zero gradient with
    that probability, so live rows add exact zeros at some targets."""
    rng = np.random.default_rng(7)
    n, k, block_rows = 300, 5, 64
    monkeypatch.setattr(graphgen, "BLOCK_ENTRIES", block_rows * n)
    v = rng.uniform(-0.3, 0.3, size=(n, 8))
    targets = np.argsort(rng.random((n, n)) + 2.0 * np.eye(n), axis=1)[:, :k]
    g = np.where(rng.random(n)[:, None] < 0.75, rng.normal(size=(n, k)), 0.0)
    g[rng.random((n, k)) < dropout] = 0.0
    g = g.reshape(-1)
    f = Tensor(v, requires_grad=True)
    t = Tensor(10.0, requires_grad=True)

    backward(weighted_sum(_edge_scores(f, t, metric, targets), g))
    grad_f, grad_t = dense_kernel_edge_grads(v, 10.0, metric, targets, g, block_rows)
    assert np.max(np.abs(f.grad - grad_f)) <= 1e-12 * np.max(np.abs(grad_f))
    assert abs(t.grad - grad_t) <= 1e-12 * abs(grad_t)


# ---------------------------------------------------------------------------
# Gumbel noise
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed, shape", [(0, (1,)), (1, (7, 7)), (2, (3, 1001)),
                                         (3, (512, 400))])
def test_gumbel_fill_matches_generator_gumbel(seed, shape):
    """The uniforms and formula of Generator.gumbel with a vectorised log:
    within 4 ULP, counted at max(|g|, 1) because near g = 0 the last log's
    argument is near 1, where an ULP of the inner log is an absolute error,
    and the generator ends in the same state."""
    reference = np.random.default_rng(seed)
    expect = reference.gumbel(0.0, 1.0, shape)
    rng = np.random.default_rng(seed)
    got = graphgen.gumbel_fill(rng, np.empty(shape))
    assert np.all(np.abs(got - expect) <= 4 * np.spacing(np.maximum(np.abs(expect), 1.0)))
    assert rng.bit_generator.state == reference.bit_generator.state


class _ZeroUniforms:
    """A generator whose first fill has exact zeros in every third entry and
    whose first redraw gives one more zero."""

    def __init__(self):
        self.inner = np.random.default_rng(0)
        self.calls = 0

    def random(self, size=None, out=None):
        u = self.inner.random(size, out=out)
        if self.calls == 0:
            u.reshape(-1)[::3] = 0.0
        elif self.calls == 1:
            u[0] = 0.0
        self.calls += 1
        return u


def test_gumbel_fill_redraws_zero_uniforms():
    rng = _ZeroUniforms()
    noise = graphgen.gumbel_fill(rng, np.empty((4, 5)))
    assert np.all(np.isfinite(noise))
    assert rng.calls == 3


# ---------------------------------------------------------------------------
# row-blocked distance kernels vs brute-force loops
# ---------------------------------------------------------------------------


def _dense(metric, v):
    return kernel_distances(pairwise_distance(v, metric))


def _pair_loss(f, metric, w):
    """sum_e w_e * (first-pick log p_e at t = 1) over every off-diagonal pair,
    which reaches every distance."""
    return weighted_sum(_edge_scores(f, Tensor(1.0), metric, _all_targets(f.shape[0])), w)


def _brute_sqdist(v):
    n = v.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = np.sum((v[i] - v[j]) ** 2)
    return out


def test_pairwise_sqdist_values_and_grad(rng):
    v = rng.normal(size=(6, 4))
    f = Tensor(v, requires_grad=True)
    d = _dense("euclidean", v)
    assert np.allclose(d * d, _brute_sqdist(v), atol=1e-12)
    assert np.allclose(np.diag(d), 0.0)

    w = rng.normal(size=30)
    _check(lambda: _pair_loss(f, "euclidean", w), [f])


def test_sqdist_block_rounds_like_one_norm_sum(rng):
    """The squared norms are added 16 rows at a time, with the same two
    roundings per entry as adding the whole (rows, N) sum r_i + r_j: equal
    to the last bit over ragged chunks and an unsorted row set."""
    v = rng.normal(size=(50, 7))
    r = np.sum(v * v, axis=1)
    rows = np.concatenate([np.arange(3, 40), [45, 41, 49]])
    expected = np.maximum((-2.0 * v[rows]) @ v.T + (r[rows, None] + r), 0.0)
    assert np.array_equal(graphgen._sqdist_block(v, r, rows), expected)


def test_pairwise_cosine_values_and_grad(rng):
    v = rng.normal(size=(5, 3))
    f = Tensor(v, requires_grad=True)
    d = _dense("cosine", v)

    for i in range(5):
        for j in range(5):
            if i == j:
                assert d[i, j] == 0.0
            else:
                expect = 1.0 - v[i] @ v[j] / (np.linalg.norm(v[i]) * np.linalg.norm(v[j]))
                assert abs(d[i, j] - expect) < 1e-12

    w = rng.normal(size=20)
    _check(lambda: _pair_loss(f, "cosine", w), [f])


def test_pairwise_cosine_zero_row():
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    f = Tensor(v, requires_grad=True)
    d = _dense("cosine", v)
    assert d[0, 1] == 1.0 and d[0, 2] == 1.0
    backward(_pair_loss(f, "cosine", np.ones(6)))
    assert np.all(f.grad[0] == 0.0)
    assert np.all(np.isfinite(f.grad))


def _brute_poincare(v):
    """Poincare distances of the rows once scaled so the largest norm is
    1 - BALL_MARGIN."""
    v = v * ((1.0 - graphgen.BALL_MARGIN) / max(np.sqrt(np.sum(row ** 2)) for row in v))
    n = v.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            num = 2.0 * np.sum((v[i] - v[j]) ** 2)
            den = (1.0 - np.sum(v[i] ** 2)) * (1.0 - np.sum(v[j] ** 2))
            out[i, j] = np.arccosh(1.0 + num / den)
    return out


def test_pairwise_poincare_values_and_grad(rng):
    v = rng.uniform(-0.4, 0.4, size=(5, 3))
    f = Tensor(v, requires_grad=True)
    assert np.allclose(_dense("hyperbolic", v), _brute_poincare(v), atol=1e-12)

    w = rng.normal(size=20)
    _check(lambda: _pair_loss(f, "hyperbolic", w), [f])


# ---------------------------------------------------------------------------
# tape mechanics
# ---------------------------------------------------------------------------


def test_shared_subexpression_accumulates():
    x = Tensor([[2.0]], requires_grad=True)
    y = weighted_sum(concat([nm.dense(x, x), x]), 1.0)  # dy/dx = 2x + 1 = 5
    backward(y)
    assert np.allclose(x.grad, 5.0)


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        backward(nm.exp(x))


def test_double_backward_raises():
    x = Tensor(3.0, requires_grad=True)
    y = nm.exp(x)
    backward(y)
    with pytest.raises(NumericsError):
        backward(y)


def test_no_grad_records_nothing():
    reset_tape()
    x = Tensor(np.ones((3, 3)), requires_grad=True)
    with no_grad():
        y = weighted_sum(nm.dense(x, x, relu=True), 1.0)
    assert tape_size() == 0
    assert not y.requires_grad
    reset_tape()


def test_constant_only_graph_not_recorded():
    reset_tape()
    a = Tensor(np.ones((2, 4)))
    b = nm.exp(nm.mul_rowvec(a, np.full(4, 2.0)))
    assert not b.requires_grad
    assert tape_size() == 0


def test_nonfinite_forward_raises():
    with pytest.raises(NonFiniteError):
        Tensor([1.0, np.nan])
    with pytest.raises(NonFiniteError, match="exp"):
        nm.exp(Tensor(np.array([1000.0])))
    with pytest.raises(NonFiniteError, match="probe"):
        nm.record_op("probe", np.array([0.0, np.inf]), (), lambda g: ())
    reset_tape()


def test_shape_errors_name_the_problem():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((3, 2)))
    with pytest.raises(ShapeError, match="mul_rowvec"):
        nm.mul_rowvec(a, Tensor(np.ones(2)))
    with pytest.raises(ShapeError, match="dense"):
        nm.dense(b, b)
    with pytest.raises(ShapeError, match="dense"):
        nm.dense(a, Tensor(np.ones(3)))
    with pytest.raises(ShapeError, match="dense"):
        nm.dense(a, b, Tensor(np.ones(3)))


def test_grad_check_report_fields(rng):
    a = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    report = grad_check(lambda: weighted_sum(nm.exp(a), _weights(2, 2)), [a])
    assert isinstance(report, GradCheckReport)
    assert report.passed and report.max_rel_error <= report.tolerance
    assert len(report.per_param) == 1
    assert not report.suspected_nondifferentiable
    assert "OK" in report.summary()


def test_grad_check_flags_kink():
    """relu at zero: central differences see slope 1/2, the subgradient says 0."""
    a = Tensor(np.zeros((1, 3)), requires_grad=True)
    report = grad_check(lambda: weighted_sum(nm.dense(a, np.eye(3), relu=True), 1.0), [a],
                        h=1e-5)
    assert not report.passed
    assert report.suspected_nondifferentiable


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------


finite_rows = st.integers(min_value=2, max_value=6)
finite_cols = st.integers(min_value=1, max_value=5)


@settings(max_examples=30, deadline=None)
@given(n=finite_rows, m=finite_cols, seed=st.integers(0, 2**31 - 1))
def test_sqdist_symmetric_nonnegative(n, m, seed):
    v = np.random.default_rng(seed).normal(size=(n, m))
    d = _dense("euclidean", v) ** 2
    assert np.allclose(d, d.T)
    assert np.all(d >= 0.0)
    assert np.allclose(np.diag(d), 0.0)


@settings(max_examples=30, deadline=None)
@given(n=finite_rows, m=finite_cols, seed=st.integers(0, 2**31 - 1))
def test_cosine_range(n, m, seed):
    v = np.random.default_rng(seed).normal(size=(n, m))
    d = _dense("cosine", v)
    assert np.all(d >= -1e-12)
    assert np.all(d <= 2.0 + 1e-12)
    assert np.allclose(d, d.T)


@settings(max_examples=30, deadline=None)
@given(n=finite_rows, seed=st.integers(0, 2**31 - 1))
def test_log_softmax_normalizes(n, seed):
    v = np.random.default_rng(seed).normal(size=(n, 4)) * 5.0
    out = nm.log_softmax_rows(v)
    assert np.allclose(np.exp(out).sum(axis=1), 1.0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_sigmoid_bounds(seed):
    # beyond |x| ~ 37 float64 rounds sigmoid to exactly 0 or 1
    v = np.clip(np.random.default_rng(seed).normal(size=8) * 10.0, -30.0, 30.0)
    s = nm.sigmoid(Tensor(v)).values
    assert np.all(s > 0.0) and np.all(s < 1.0)
