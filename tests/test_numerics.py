import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (GradCheckReport, concat, dense_edge_forward, dense_kernel_edge_grads,
                     grad_check, tape_size)
from popgraph import numerics as nm
from popgraph.numerics import (
    NonFiniteError,
    NumericsError,
    ShapeError,
    Tensor,
    backward,
    no_grad,
    reset_tape,
)

RNG = np.random.default_rng(1234)


def _check(build_loss, params, tol=1e-4):
    report = grad_check(build_loss, params, h=1e-5, tolerance=tol)
    assert report.passed, report.summary()
    return report


# ---------------------------------------------------------------------------
# primitives vs central finite differences
# ---------------------------------------------------------------------------


def test_add_sub_mul_div_grads():
    a = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(RNG.normal(size=(3, 4)) + 2.0, requires_grad=True)

    def loss():
        return nm.square((a + b) * (a - b) / b).mean()

    _check(loss, [a, b])


def test_scalar_broadcast_grads():
    a = Tensor(RNG.normal(size=(4,)), requires_grad=True)
    c = Tensor(1.7, requires_grad=True)

    def loss():
        return nm.square((a * c + c) / 3.0).sum()

    _check(loss, [a, c])


def test_matmul_grads():
    a = Tensor(RNG.normal(size=(3, 5)), requires_grad=True)
    b = Tensor(RNG.normal(size=(5, 2)), requires_grad=True)

    _check(lambda: nm.square(a @ b).sum(), [a, b])


def test_rowvec_grads():
    m = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
    v = Tensor(RNG.normal(size=(3,)), requires_grad=True)

    _check(lambda: nm.square(nm.add_rowvec(m, v)).sum(), [m, v])
    _check(lambda: nm.square(nm.mul_rowvec(m, v)).sum(), [m, v])


def test_unary_grads():
    # keep values away from kinks of relu/abs and the sqrt origin
    a = Tensor(RNG.uniform(0.5, 2.0, size=(3, 3)), requires_grad=True)
    b = Tensor(RNG.uniform(-2.0, -0.5, size=(3, 3)), requires_grad=True)

    _check(lambda: nm.relu(a).sum() + nm.relu(b).sum(), [a, b])
    _check(lambda: nm.sigmoid(a).sum() + nm.sigmoid(b).sum(), [a, b])
    _check(lambda: nm.exp(a).mean() + nm.exp(b).mean(), [a, b])
    _check(lambda: nm.sqrt(a).sum(), [a])
    _check(lambda: nm.absolute(a).sum() + nm.absolute(b).sum(), [a, b])
    _check(lambda: (-a).sum(), [a])


def test_reduction_grads():
    a = Tensor(RNG.normal(size=(4, 5)), requires_grad=True)

    _check(lambda: nm.square(a.mean()), [a])
    _check(lambda: nm.square(a.sum(axis=0)).sum(), [a])
    _check(lambda: nm.square(a.mean(axis=1)).sum(), [a])


def test_concat_reshape_grads():
    a = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)

    def loss():
        return nm.square(nm.reshape(concat([a, b], axis=0), (3, 6))).sum()

    _check(loss, [a, b])


def test_gather_rows_accumulates_repeats():
    """A row gathered twice must receive both gradient contributions."""
    a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
    out = nm.gather_rows(a, np.array([0, 0, 1]))
    backward(out.sum())
    assert np.allclose(a.grad, [[2.0, 2.0], [1.0, 1.0]])


def test_gather_rows_fd():
    a = Tensor(RNG.normal(size=(5, 3)), requires_grad=True)
    idx = np.array([4, 0, 0, 2])
    _check(lambda: nm.square(nm.gather_rows(a, idx)).sum(), [a])


def test_masked_select_and_take_per_row_fd():
    a = Tensor(RNG.normal(size=(5, 3)), requires_grad=True)
    mask = np.array([True, False, True, True, False])
    cols = np.array([2, 0, 1, 1, 0])

    _check(lambda: nm.square(nm.masked_select(a, mask)).sum(), [a])
    _check(lambda: nm.square(nm.take_per_row(a, cols)).sum(), [a])


def test_log_softmax_rows_fd():
    a = Tensor(RNG.normal(size=(4, 6)), requires_grad=True)
    _check(lambda: nm.take_per_row(nm.log_softmax_rows(a), np.array([0, 5, 2, 2])).sum(), [a])


def _brute_offdiag_logsumexp(v):
    n = v.shape[0]
    return np.array([np.log(sum(np.exp(v[i, j]) for j in range(n) if j != i))
                     for i in range(n)])


def _all_pairs(n):
    """Every off-diagonal (src, dst) pair, grouped by source."""
    return np.array([(i, j) for i in range(n) for j in range(n) if j != i])


@pytest.mark.parametrize("block_rows", [1, 3, 7, 256])
def test_offdiag_logsumexp_rows_values_and_fd(block_rows, monkeypatch):
    """The first-pick normalizer: each row's logsumexp over every column but
    its own, in blocks of 1, 3 (a ragged last block), 7 and 256 rows of 7.
    The diagonal carries the row maximum, so leaking it in would show."""
    v = RNG.normal(size=(7, 7))
    np.fill_diagonal(v, 5.0)
    out = np.concatenate([nm.offdiag_logsumexp(v[r0:r1].copy(), np.arange(r0, r1))
                          for r0, r1 in nm.row_blocks(7, block_rows)])
    assert np.allclose(out, _brute_offdiag_logsumexp(v), atol=1e-12)

    # on the tape: the normalized scores of all n - 1 candidates of a row
    # are a log-softmax over them, and finite differences agree
    monkeypatch.setattr(nm, "BLOCK_ENTRIES", block_rows * 7)
    f = Tensor(RNG.normal(size=(7, 3)), requires_grad=True)
    t = Tensor(0.8, requires_grad=True)
    edges = _all_pairs(7)
    raw, row_lse = dense_edge_forward(f.values, t.values, "euclidean", edges)
    scores = nm.kernel_edge_scores(f, t, "euclidean", edges, raw, row_lse).values
    assert np.allclose(np.exp(scores).reshape(7, 6).sum(axis=1), 1.0, atol=1e-12)
    dense = np.zeros((7, 7))
    dense[edges[:, 0], edges[:, 1]] = raw
    np.fill_diagonal(dense, 5.0)
    assert np.allclose(scores, raw - _brute_offdiag_logsumexp(dense)[edges[:, 0]],
                       atol=1e-12)
    weights = Tensor(RNG.normal(size=len(edges)))
    _check(lambda: (_edge_scores(f, t, "euclidean", edges) * weights).sum(), [f, t])


def test_offdiag_logsumexp_rows_rejects_bad_operands():
    edges = np.array([[0, 1]])
    forward = (np.zeros(1), np.zeros(3))
    with pytest.raises(ShapeError, match="2-D"):
        nm.kernel_edge_scores(Tensor(np.zeros(3)), Tensor(1.0), "euclidean", edges,
                              *forward)
    with pytest.raises(ShapeError, match="at least 2"):
        nm.kernel_edge_scores(Tensor(np.zeros((1, 1))), Tensor(1.0), "euclidean",
                              edges, *forward)
    with pytest.raises(ValueError, match="self-edges"):
        nm.kernel_edge_scores(Tensor(np.zeros((3, 3))), Tensor(1.0), "euclidean",
                              np.array([[1, 1]]), *forward)
    with pytest.raises(ValueError, match="metric"):
        nm.kernel_edge_scores(Tensor(np.zeros((3, 3))), Tensor(1.0), "manhattan",
                              edges, *forward)
    with pytest.raises(ShapeError, match="per edge"):
        nm.kernel_edge_scores(Tensor(np.zeros((3, 3))), Tensor(1.0), "euclidean",
                              edges, np.zeros(2), np.zeros(3))
    with pytest.raises(ShapeError, match="per row"):
        nm.kernel_edge_scores(Tensor(np.zeros((3, 3))), Tensor(1.0), "euclidean",
                              edges, np.zeros(1), np.zeros(2))


def _edge_scores(f, t, metric, edges):
    """kernel_edge_scores with the forward a sampler's block pass would hand
    it, taken from the dense oracle at the current values of f and t."""
    raw, row_lse = dense_edge_forward(f.values, t.values, metric, edges)
    return nm.kernel_edge_scores(f, t, metric, edges, raw, row_lse)


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
def test_kernel_edge_scores_fd(metric, block_rows, dead, monkeypatch):
    """Finite differences of the fused blocked primitive over 10 rows, in
    blocks of one row, of four (a ragged last block) and of all rows. Rows
    2 and 5 coincide (d = 0). Row 9 is zero; its cosine distances are 1 by
    convention, a kink that finite differences cannot see through, so it is
    held out of the check and must get exactly zero cosine gradient. Every
    edge out of a ``dead`` source row has zero weight, so the backward skips
    that row: rows 4-7 are the whole second block of four, and rows 1 and 6
    leave two blocks partly live."""
    monkeypatch.setattr(nm, "BLOCK_ENTRIES", block_rows * 10)
    v = RNG.uniform(-0.4, 0.4, size=(9, 3))
    v[5] = v[2]
    f = Tensor(v, requires_grad=True)
    zero_row = Tensor(np.zeros((1, 3)), requires_grad=True)
    t = Tensor(1.7, requires_grad=True)
    edges = _all_pairs(10)[RNG.permutation(90)[:50]]  # ungrouped, both directions
    weights = RNG.normal(size=50)
    weights[np.isin(edges[:, 0], dead)] = 0.0
    weights = Tensor(weights)

    def loss():
        rows = concat([f, zero_row], axis=0)
        return (_edge_scores(rows, t, metric, edges) * weights).sum()

    _check(loss, [f, t])
    reset_tape()
    zero_row.zero_grad()
    backward(loss())
    if metric == "cosine":
        assert np.all(zero_row.grad == 0.0)


@pytest.mark.parametrize("metric", METRICS)
def test_kernel_edge_scores_backward_skips_dead_rows(metric, monkeypatch):
    """Building the scores hands the block kernel no block: the forward comes
    from the sampler's pass. The backward hands it each source row that has
    an edge with nonzero gradient exactly once, in blocks of at most
    rows_per_block rows, and no other row; with no gradient at all it
    computes no block."""
    monkeypatch.setattr(nm, "BLOCK_ENTRIES", 3 * 12)
    kernel = nm.BLOCK_METRICS[metric]
    forward = kernel.forward
    handed = []

    def counting_forward(self, rows):
        handed.append(np.array(rows))
        return forward(self, rows)

    monkeypatch.setattr(kernel, "forward", counting_forward)
    f = Tensor(RNG.uniform(-0.4, 0.4, size=(12, 3)), requires_grad=True)
    t = Tensor(1.3, requires_grad=True)
    edges = _all_pairs(12)
    live = np.array([0, 2, 3, 7, 8, 11])
    weights = np.where(np.isin(edges[:, 0], live), RNG.normal(size=len(edges)), 0.0)
    weights[np.flatnonzero(edges[:, 0] == 7)[:10]] = 0.0  # row 7 keeps one live edge

    scores = _edge_scores(f, t, metric, edges)
    assert handed == []
    backward((scores * Tensor(weights)).sum())
    assert max(len(rows) for rows in handed) == 3
    assert np.array_equal(np.concatenate(handed), live)

    f.zero_grad()
    t.zero_grad()
    scores = _edge_scores(f, t, metric, edges)
    handed.clear()
    backward((scores * Tensor(np.zeros(len(edges)))).sum())
    assert handed == []
    assert np.all(f.grad == 0.0) and t.grad == 0.0


@pytest.mark.parametrize("metric", METRICS)
def test_kernel_edge_scores_backward_matches_dense_reference(metric, monkeypatch):
    """Against the backward as first written (oracles.dense_kernel_edge_grads:
    every row's block, a dense scatter) at N = 300 in blocks of 64 rows, with
    k = 5 edges per row and zero gradient on every edge out of about a
    quarter of the rows, as graph_loss gives the non-training sources."""
    rng = np.random.default_rng(7)
    n, k, block_rows = 300, 5, 64
    monkeypatch.setattr(nm, "BLOCK_ENTRIES", block_rows * n)
    v = rng.uniform(-0.3, 0.3, size=(n, 8))
    targets = np.argsort(rng.random((n, n)) + 2.0 * np.eye(n), axis=1)[:, :k]
    edges = np.column_stack([np.repeat(np.arange(n), k), targets.reshape(-1)])
    g = np.where(rng.random(n)[edges[:, 0]] < 0.75, rng.normal(size=n * k), 0.0)
    f = Tensor(v, requires_grad=True)
    t = Tensor(10.0, requires_grad=True)

    backward((_edge_scores(f, t, metric, edges) * Tensor(g)).sum())
    grad_f, grad_t = dense_kernel_edge_grads(v, 10.0, metric, edges, g, block_rows)
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
    got = nm.gumbel_fill(rng, np.empty(shape))
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
    noise = nm.gumbel_fill(rng, np.empty((4, 5)))
    assert np.all(np.isfinite(noise))
    assert rng.calls == 3


# ---------------------------------------------------------------------------
# row-blocked distance kernels vs brute-force loops
# ---------------------------------------------------------------------------


def _dense(metric, v):
    return nm.block_distance(metric, v).rows(np.arange(v.shape[0]))


def _pair_loss(f, metric, w):
    """sum_e w_e * (first-pick log p_e at t = 1) over every off-diagonal pair,
    which reaches every distance."""
    return (_edge_scores(f, Tensor(1.0), metric, _all_pairs(f.shape[0])) * Tensor(w)).sum()


def _brute_sqdist(v):
    n = v.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = np.sum((v[i] - v[j]) ** 2)
    return out


def test_pairwise_sqdist_values_and_grad():
    v = RNG.normal(size=(6, 4))
    f = Tensor(v, requires_grad=True)
    d = _dense("euclidean", v)
    assert np.allclose(d * d, _brute_sqdist(v), atol=1e-12)
    assert np.allclose(np.diag(d), 0.0)

    w = RNG.normal(size=30)
    _check(lambda: _pair_loss(f, "euclidean", w), [f])


def test_pairwise_cosine_values_and_grad():
    v = RNG.normal(size=(5, 3))
    f = Tensor(v, requires_grad=True)
    d = _dense("cosine", v)

    for i in range(5):
        for j in range(5):
            if i == j:
                assert d[i, j] == 0.0
            else:
                expect = 1.0 - v[i] @ v[j] / (np.linalg.norm(v[i]) * np.linalg.norm(v[j]))
                assert abs(d[i, j] - expect) < 1e-12

    w = RNG.normal(size=20)
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


def test_pairwise_poincare_values_and_grad():
    v = RNG.uniform(-0.4, 0.4, size=(5, 3))
    f = Tensor(v, requires_grad=True)
    assert np.allclose(_dense("hyperbolic", v), _brute_poincare(v), atol=1e-12)

    w = RNG.normal(size=20)
    _check(lambda: _pair_loss(f, "hyperbolic", w), [f])


def test_pairwise_poincare_rejects_outside_ball():
    with pytest.raises(NumericsError):
        nm.block_distance("hyperbolic", np.array([[0.9, 0.9], [0.1, 0.1]]))


# ---------------------------------------------------------------------------
# tape mechanics
# ---------------------------------------------------------------------------


def test_shared_subexpression_accumulates():
    x = Tensor(2.0, requires_grad=True)
    y = x * x + x  # dy/dx = 2x + 1 = 5
    backward(y)
    assert np.allclose(x.grad, 5.0)


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        backward(x * 2.0)


def test_double_backward_raises():
    x = Tensor(3.0, requires_grad=True)
    y = nm.square(x)
    backward(y)
    with pytest.raises(NumericsError):
        backward(y)


def test_no_grad_records_nothing():
    reset_tape()
    x = Tensor(np.ones((3, 3)), requires_grad=True)
    with no_grad():
        y = nm.relu(x @ x).sum()
    assert tape_size() == 0
    assert not y.requires_grad
    reset_tape()


def test_constant_only_graph_not_recorded():
    reset_tape()
    a = Tensor(np.ones(4))
    b = a * 2.0 + 1.0
    assert not b.requires_grad
    assert tape_size() == 0


def test_nonfinite_forward_raises():
    with pytest.raises(NonFiniteError):
        Tensor([1.0, np.nan])
    with pytest.raises(NonFiniteError):
        nm.sqrt(Tensor(np.array([-1.0])))
    with pytest.raises(NonFiniteError):
        Tensor(np.array([1.0])) / Tensor(np.array([0.0]))
    reset_tape()


def test_shape_errors_name_the_problem():
    a = Tensor(np.ones((2, 3)))
    b = Tensor(np.ones((3, 2)))
    with pytest.raises(ShapeError, match="add"):
        a + b
    with pytest.raises(ShapeError, match="matmul"):
        b @ b
    with pytest.raises(ShapeError, match="matmul"):
        a @ Tensor(np.ones(3))
    with pytest.raises(ShapeError, match="add_rowvec"):
        nm.add_rowvec(a, Tensor(np.ones(2)))


def test_grad_check_report_fields():
    a = Tensor(RNG.normal(size=(2, 2)), requires_grad=True)
    report = grad_check(lambda: nm.square(a).sum(), [a])
    assert isinstance(report, GradCheckReport)
    assert report.passed and report.max_rel_error <= report.tolerance
    assert len(report.per_param) == 1
    assert not report.suspected_nondifferentiable
    assert "OK" in report.summary()


def test_grad_check_flags_kink():
    """relu at zero: central differences see slope 1/2, the subgradient says 0."""
    a = Tensor(np.zeros(3), requires_grad=True)
    report = grad_check(lambda: nm.relu(a).sum(), [a], h=1e-5)
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
    out = nm.log_softmax_rows(Tensor(v)).values
    assert np.allclose(np.exp(out).sum(axis=1), 1.0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_sigmoid_bounds(seed):
    # beyond |x| ~ 37 float64 rounds sigmoid to exactly 0 or 1
    v = np.clip(np.random.default_rng(seed).normal(size=8) * 10.0, -30.0, 30.0)
    s = nm.sigmoid(Tensor(v)).values
    assert np.all(s > 0.0) and np.all(s < 1.0)
