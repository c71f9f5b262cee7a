"""Spans recorded around the calls into popgraph's public functions.

Nothing here touches the program's source: each function is replaced, in the
module that defines it and in every popgraph module that imported it by name,
with a wrapper that records a span (name, start, end, parent, run id) in
memory. Self time is a span's duration minus the durations of its child
spans; children run on the parent's thread, one after another, so they never
overlap. Only the traced run (``--trace 1``) installs these wrappers.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import sys
import threading
import time

NO_GRAD = "numerics.no_grad"

# (module, attribute) of every traced function; the span name is
# "<module>.<attribute>"
TRACED = (
    ("numerics", "backward"),
    ("dataio", "generate_synthetic"),
    ("dataio", "load_csv"),
    ("dataio", "split"),
    ("dataio", "normalize_minmax"),
    ("dataio", "make_class_labels"),
    ("attention", "attention_forward"),
    ("attention", "aggregate_attention"),
    ("attention", "weight_phenotypes"),
    ("graphgen", "pairwise_distance"),
    ("graphgen", "edge_probabilities"),
    ("graphgen", "gumbel_topk_sample"),
    ("graphgen", "symmetrize"),
    ("graphgen", "knn_static_graph"),
    ("graphgen", "random_graph"),
    ("graphgen", "homophily_score"),
    ("gcn", "gcn_forward"),
    ("gcn", "huber_loss"),
    ("gcn", "cross_entropy_loss"),
    ("gcn", "graph_loss"),
    ("gcn", "total_loss"),
    ("trainer", "train"),
    ("trainer", "infer"),
    ("trainer", "run_experiment"),
    ("trainer", "sample_trained_edges"),
    ("baselines", "linear_fit"),
    ("baselines", "static_gcn_experiment"),
    ("cli", "main"),
    ("cli", "build_dataset"),
    ("cli", "_ablate_cell"),
)


def replace_everywhere(original, replacement) -> None:
    """Point every popgraph module attribute that holds ``original`` at
    ``replacement``, so callers that imported the name directly see it too."""
    for name, module in list(sys.modules.items()):
        if name == "popgraph" or name.startswith("popgraph."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def _array_bytes(value, n_nodes: int) -> int:
    """Bytes of ``value`` if it is a dense array with at least N*N entries."""
    values = getattr(value, "values", value)
    size = getattr(values, "size", 0)
    if hasattr(values, "nnz") or size < n_nodes * n_nodes:
        return 0
    return int(values.nbytes)


class Span:
    __slots__ = ("sid", "name", "run", "parent", "thread", "nograd", "start",
                 "end", "info")

    def __init__(self, sid, name, run, parent, thread, nograd):
        self.sid, self.name, self.run, self.parent = sid, name, run, parent
        self.thread, self.nograd = thread, nograd
        self.start = self.end = 0.0
        self.info = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder; ``run`` is the closed-loop operation index
    shared by every span the operation causes, on any thread."""

    def __init__(self):
        self.spans = []
        self.run = 0
        self.dense_bytes_per_draw = 0
        self._ids = itertools.count(1)
        self._tls = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(next(self._ids), name, self.run,
                    stack[-1].sid if stack else 0, threading.get_ident(),
                    name == NO_GRAD or any(s.nograd for s in stack))
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, name: str, fn, pre=None, post=None):
        """``pre(span, args, kwargs)`` and ``post(span, result, args)`` run
        outside the timed interval."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            if pre is not None:
                pre(span, args, kwargs)
                span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if post is not None:
                post(span, result, args)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def install(self, pg) -> None:
        hooks = {
            "numerics.backward": (self._count_tape, None),
            "gcn.gcn_forward": (_count_flops, None),
            # a draw is distance -> kernel -> sampler on one thread
            "graphgen.pairwise_distance": (None, self._draw_starts),
            "graphgen.edge_probabilities": (None, self._add_dense_bytes),
            "graphgen.gumbel_topk_sample": (None, self._draw_bytes),
            "trainer.train": (None, _count_epochs),
            "baselines.linear_fit": (self._fit_start, self._fit_end),
            "cli._ablate_cell": (_cell_method, None),
        }
        for module_name, attr in TRACED:
            module = getattr(pg, module_name)
            name = f"{module_name}.{attr}"
            original = getattr(module, attr)
            pre, post = hooks.get(name, (None, None))
            replace_everywhere(original, self.wrap(name, original, pre, post))

        step = pg.trainer.AdamW.step
        pg.trainer.AdamW.step = self.wrap("trainer.AdamW.step", step)

        tracer = self
        base = pg.numerics.no_grad

        class traced_no_grad(base):
            def __enter__(self):
                self._span = tracer.open(NO_GRAD)
                return super().__enter__()

            def __exit__(self, *exc):
                out = super().__exit__(*exc)
                tracer.close(self._span)
                return out

        replace_everywhere(base, traced_no_grad)
        # tape_size is only read here; fall back to the tape itself if the
        # helper ever leaves numerics
        self._tape_size = getattr(pg.numerics, "tape_size", None) or (
            lambda: len(pg.numerics._ops()))
        # logistic fits report hitting max_iter through warnings.warn; count
        # those per thread without touching the process-wide warning filters
        pg.baselines.warnings = _WarnCounter(pg.baselines.warnings, self._tls)

    def _count_tape(self, span, args, kwargs) -> None:
        span.info["tape_ops"] = self._tape_size()

    def _draw_starts(self, span, result, args) -> None:
        self._tls.dense = _array_bytes(result, args[0].shape[0])

    def _add_dense_bytes(self, span, result, args) -> None:
        self._tls.dense += _array_bytes(result, args[0].shape[0])

    def _draw_bytes(self, span, graph, args) -> None:
        if not self.dense_bytes_per_draw:
            self.dense_bytes_per_draw = self._tls.dense + sum(
                _array_bytes(array, graph.n_nodes) for array in (graph.noise, graph.a_hat))

    def _fit_start(self, span, args, kwargs) -> None:
        span.info["logistic"] = kwargs.get("task", args[3] if len(args) > 3
                                           else "regression") == "logistic"
        self._tls.warned = 0

    def _fit_end(self, span, result, args) -> None:
        span.info["warned"] = self._tls.warned > 0

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.sid, "name": s.name, "run": s.run,
                                     "parent": s.parent, "thread": s.thread,
                                     "start": s.start, "end": s.end,
                                     **s.info}) + "\n")

    def self_times(self) -> dict:
        """span id -> self time in seconds."""
        child_total = {}
        for s in self.spans:
            child_total[s.parent] = child_total.get(s.parent, 0.0) + s.duration
        return {s.sid: s.duration - child_total.get(s.sid, 0.0) for s in self.spans}


class _WarnCounter:
    """Stands in for the ``warnings`` module inside popgraph.baselines."""

    def __init__(self, real, tls):
        self._real, self._tls = real, tls

    def __getattr__(self, name):
        return getattr(self._real, name)

    def warn(self, message, category=None, stacklevel=1, **kwargs):
        if str(message).startswith("logistic fit stopped"):
            self._tls.warned = getattr(self._tls, "warned", 0) + 1
        return self._real.warn(message, category, stacklevel + 1, **kwargs)


def _count_flops(span, args, kwargs) -> None:
    """Multiply-add flops of one forward: propagation A_hat X (nonzeros of a
    sparse A_hat, every entry of a dense one) and the three weight layers."""
    a_hat, x, model = args[0], args[1], args[2]
    a_hat = getattr(a_hat, "values", a_hat)
    x = getattr(x, "values", x)
    n, m = x.shape
    entries = a_hat.nnz if hasattr(a_hat, "nnz") else a_hat.size
    h1, h2, out = model.w1.shape[1], model.w2.shape[1], model.w3.shape[1]
    span.info["flops"] = 2 * (entries * m + n * m * h1 + n * h1 * h2 + n * h2 * out)


def _count_epochs(span, result, args) -> None:
    span.info["epochs"] = len(result.history)


def _cell_method(span, args, kwargs) -> None:
    span.info["method"] = args[2][2]  # cell = (subset, metric, method, seed)


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, as numpy's default."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)


def tail(values) -> tuple:
    """(value, label): the highest ladder percentile with at least ten
    samples beyond it, or the maximum when there are too few samples."""
    n = len(values)
    best = None
    for q in TAIL_LADDER:
        if n * (100 - q) / 100 >= 10:
            best = q
    if best is None:
        return max(values), "max"
    return percentile(values, best), f"p{best:g}"


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


# counts that must repeat exactly between two runs of one seed
EXACT_COUNTS = ("numerics.tape_ops", "graphgen.draws_grad", "graphgen.draws_nograd",
                "graphgen.dense_bytes_per_draw", "gcn.forward_flops",
                "baselines.logistic_unconverged_ratio", "cli.unique_cell_ratio")

CELL_METHODS = ("adaptive", "static", "random", "linear")


def layer_metrics(tracer: Tracer, op_seconds: list, import_s: float,
                  unique_cell_ratio: float, workers: int) -> dict:
    """Per-layer metrics of one traced run: name -> (value, unit).

    Times are median self time per call in ms, except where a layer is
    called once per epoch (then per call is per epoch). A layer made of
    several functions sums their per-call medians. Layers a workload never
    calls read 0.
    """
    self_s = tracer.self_times()
    by_name, children = {}, {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
        children.setdefault(s.parent, []).append(s)

    def ms(*names) -> float:
        return 1000.0 * sum(_median([self_s[s.sid] for s in by_name.get(name, [])])
                            for name in names)

    n_ops = len(op_seconds)
    draws = by_name.get("graphgen.gumbel_topk_sample", [])
    trains = by_name.get("trainer.train", [])
    per_epoch_self = [self_s[s.sid] / s.info["epochs"] for s in trains
                      if s.info.get("epochs")]
    train_ids = {s.sid for s in trains}
    val_draws = [s.duration for s in by_name.get(NO_GRAD, [])
                 if s.parent in train_ids
                 and any(c.name == "gcn.gcn_forward" for c in children.get(s.sid, []))]
    backward = by_name.get("numerics.backward", [])
    fits = by_name.get("baselines.linear_fit", [])
    logistic = [s for s in fits if s.info.get("logistic")]
    cells = by_name.get("cli._ablate_cell", [])

    out = {
        "graphgen.sampler_ms": (ms("graphgen.gumbel_topk_sample"), "ms"),
        "graphgen.distance_ms": (ms("graphgen.pairwise_distance"), "ms"),
        "graphgen.kernel_ms": (ms("graphgen.edge_probabilities"), "ms"),
        "graphgen.symmetrize_ms": (ms("graphgen.symmetrize"), "ms"),
        "graphgen.knn_ms": (ms("graphgen.knn_static_graph"), "ms"),
        "graphgen.random_graph_ms": (ms("graphgen.random_graph"), "ms"),
        "graphgen.draws_grad": (sum(not s.nograd for s in draws) / n_ops, "count"),
        "graphgen.draws_nograd": (sum(s.nograd for s in draws) / n_ops, "count"),
        "graphgen.dense_bytes_per_draw": (tracer.dense_bytes_per_draw, "bytes"),
        "numerics.backward_ms": (ms("numerics.backward"), "ms"),
        "numerics.tape_ops": (sum(s.info["tape_ops"] for s in backward)
                              / len(backward) if backward else 0.0, "count"),
        "attention.ms": (ms("attention.attention_forward", "attention.aggregate_attention",
                            "attention.weight_phenotypes"), "ms"),
        "gcn.forward_ms": (ms("gcn.gcn_forward"), "ms"),
        "gcn.loss_ms": (ms("gcn.huber_loss", "gcn.cross_entropy_loss", "gcn.graph_loss",
                           "gcn.total_loss"), "ms"),
        "gcn.forward_flops": (_median([s.info["flops"]
                                       for s in by_name.get("gcn.gcn_forward", [])]),
                              "flops"),
        "trainer.optimizer_ms": (ms("trainer.AdamW.step"), "ms"),
        "trainer.val_ms": (1000.0 * _median(val_draws), "ms"),
        "trainer.self_ms": (1000.0 * _median(per_epoch_self), "ms"),
        "baselines.linear_fit_ms": (ms("baselines.linear_fit"), "ms"),
        "baselines.logistic_unconverged_ratio": (
            sum(s.info["warned"] for s in logistic) / len(logistic) if logistic else 0.0,
            "ratio"),
    }
    for method in CELL_METHODS:
        times = [1000.0 * s.duration for s in cells if s.info["method"] == method]
        out[f"cli.cell_ms.{method}.p50"] = (_median(times), "ms")
        out[f"cli.cell_ms.{method}.tail"] = (tail(times)[0] if times else 0.0, "ms")
    out["cli.unique_cell_ratio"] = (unique_cell_ratio, "ratio")
    busy = [sum(s.duration for s in cells if s.run == run) / (workers * seconds)
            for run, seconds in enumerate(op_seconds)] if cells else []
    out["cli.worker_busy_share"] = (_median(busy), "ratio")
    out["dataio.import_ms"] = (1000.0 * import_s, "ms")
    out["dataio.generate_ms"] = (ms("dataio.generate_synthetic"), "ms")
    out["dataio.load_csv_ms"] = (ms("dataio.load_csv"), "ms")
    out["dataio.split_normalize_ms"] = (ms("dataio.split", "dataio.normalize_minmax",
                                           "dataio.make_class_labels"), "ms")
    return out
