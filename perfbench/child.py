"""One fresh interpreter of a benchmark run; run.py starts it.

    python3 perfbench/child.py prepare|setup|workload '<json parameters>'

prepare  writes the seeded inputs a workload reads from disk.
setup    times process start -> import popgraph -> dataset ready, then exits.
workload does the same set-up, then runs the workload's operation in a closed
         loop (the next starts only after the previous returns) for the given
         seconds, checking every output on the way.

The result goes to <run_dir>/<mode>.json. popgraph is imported from the
checkout's own src/ directory; the program's console output goes to stderr.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import tracing
import workloads

MODULES = ("numerics", "dataio", "attention", "graphgen", "gcn", "trainer",
           "baselines", "cli")


class Probe:
    """Epoch boundaries, inference times and output checks, taken at the
    program's public boundaries in every run, traced or not. A training run
    or inference call that raises or yields non-finite output counts as
    failed; malformed output is recorded as a problem."""

    def __init__(self, pg):
        self.pg = pg
        self.epoch_s, self.infer_s, self.problems = [], [], []
        self.attempted = self.failed = 0
        self._lock = threading.Lock()
        self._tls = threading.local()

    def count(self, attempted: int, failed: int) -> None:
        with self._lock:
            self.attempted += attempted
            self.failed += failed

    def problem(self, message: str) -> None:
        with self._lock:
            self.problems.append(message)

    def install(self) -> None:
        nm, trainer, graphgen = self.pg.numerics, self.pg.trainer, self.pg.graphgen
        self._wrap(nm.reset_tape, self._reset_tape)
        self._wrap(trainer.train, self._train)
        self._wrap(trainer.infer, self._infer)
        self._wrap(trainer.run_experiment, self._run_experiment)
        self._wrap(graphgen.gumbel_topk_sample, self._edges_checked(
            "gumbel_topk_sample", lambda a, kw: (a[0].shape[0], _arg(a, kw, 1, "k")),
            lambda graph: graph.edges))
        self._wrap(graphgen.knn_static_graph, self._edges_checked(
            "knn_static_graph", lambda a, kw: (a[0].shape[0], _arg(a, kw, 1, "k"))))
        self._wrap(graphgen.random_graph, self._edges_checked(
            "random_graph", lambda a, kw: (a[0], _arg(a, kw, 1, "k"))))

    @staticmethod
    def _wrap(original, make):
        tracing.replace_everywhere(original, make(original))

    def _reset_tape(self, fn):
        # the trainer resets the tape once at the top of every epoch
        def reset_tape():
            marks = getattr(self._tls, "marks", None)
            if marks is not None:
                marks.append(time.perf_counter())
            return fn()
        return reset_tape

    def _train(self, fn):
        def train(*args, **kwargs):
            self._tls.marks = marks = []
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.count(1, 1)
                raise
            finally:
                self._tls.marks = None
            marks.append(time.perf_counter())
            with self._lock:
                self.epoch_s.extend(b - a for a, b in zip(marks, marks[1:]))
            finite = all(_finite(row["L_total"]) and _finite(row["val_metric"])
                         for row in result.history)
            self.count(1, 0 if finite else 1)
            if not finite:
                self.problem("training history holds a non-finite loss")
            return result
        return train

    def _infer(self, fn):
        def infer(*args, **kwargs):
            started = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                self.count(1, 1)
                raise
            elapsed = time.perf_counter() - started
            np = self.pg.np
            ok = bool(np.all(np.isfinite(out.predictions)))
            if out.probabilities is not None:
                p = out.probabilities
                ok = ok and bool(np.all(np.isfinite(p)) and np.all(p >= 0.0)
                                 and np.all(np.abs(p.sum(axis=1) - 1.0) <= 1e-9))
            with self._lock:
                self.infer_s.append(elapsed)
            self.count(1, 0 if ok else 1)
            if not ok:
                self.problem("inference output is non-finite or a probability "
                             "row does not sum to 1")
            return out
        return infer

    def _run_experiment(self, fn):
        def run_experiment(*args, **kwargs):
            result, record = fn(*args, **kwargs)
            try:
                record.validate()
            except ValueError as exc:
                self.problem(f"MetricsRecord.validate: {exc}")
            return result, record
        return run_experiment

    def _edges_checked(self, where, sizes, edges_of=lambda out: out):
        def make(fn):
            def checked(*args, **kwargs):
                out = fn(*args, **kwargs)
                n, k = sizes(args, kwargs)
                if not _k_out_edges(self.pg.np, edges_of(out), n, k):
                    self.problem(f"{where}: not exactly {k} distinct out-edges per "
                                 f"node without self-edges")
                return out
            return checked
        return make


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _finite(value) -> bool:
    return value == value and abs(value) != float("inf")


def _k_out_edges(np, edges, n: int, k: int) -> bool:
    e = np.asarray(edges)
    return bool(e.shape == (n * k, 2) and e.dtype.kind in "iu"
                and np.all((e >= 0) & (e < n))
                and not np.any(e[:, 0] == e[:, 1])
                and np.all(np.bincount(e[:, 0], minlength=n) == k)
                and np.unique(e[:, 0] * n + e[:, 1]).size == n * k)


def _median(values):
    return statistics.median(values) if values else 0.0


def _import_popgraph(root: Path):
    sys.path.insert(0, str(root / "src"))
    import numpy
    import popgraph
    import popgraph.cli  # noqa: F401 - pulls in every module, scipy.stats too
    if Path(popgraph.__file__).resolve().parent != (root / "src" / "popgraph").resolve():
        raise RuntimeError(f"popgraph imported from {popgraph.__file__}, not {root}/src")
    pg = SimpleNamespace(np=numpy, **{m: sys.modules[f"popgraph.{m}"] for m in MODULES})
    return pg


def main() -> int:
    mode, params = sys.argv[1], json.loads(sys.argv[2])
    root, run_dir = Path(params["root"]), Path(params["run_dir"])
    name, seed = params["workload"], params["seed"]

    started = time.perf_counter()
    pg = _import_popgraph(root)
    import_s = time.perf_counter() - started

    if mode == "prepare":
        workloads.prepare(pg, name, seed, run_dir)
        result = {}
    else:
        probe = tracer = None
        if mode == "workload":
            probe = Probe(pg)
            probe.install()
            if params["trace"]:
                tracer = tracing.Tracer()
                tracer.install(pg)
        dataset = workloads.setup(pg, name, seed, run_dir)
        setup_s = time.monotonic() - params["spawned_at"]
        result = {"setup_s": setup_s}
        if mode == "workload":
            result.update(_measure(pg, params, run_dir, dataset, probe, tracer, import_s))
    with open(run_dir / f"{mode}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _measure(pg, params, run_dir, dataset, probe, tracer, import_s) -> dict:
    name, seed = params["workload"], params["seed"]
    op_s, ops = [], []
    loop_started = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.run = len(op_s)
        started = time.perf_counter()
        try:
            ops.append(workloads.run_op(pg, name, seed, run_dir, dataset, len(op_s)))
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            traceback.print_exc()
            probe.count(1, 1)
            probe.problem("operation raised")
        op_s.append(time.perf_counter() - started)
        if time.perf_counter() - loop_started + max(op_s) > params["seconds"]:
            break

    problems = list(probe.problems)
    for op in ops:
        probe.count(op["cells"], op["cell_failures"])
        problems += op["problems"]
    if any(op["quality"] != ops[0]["quality"] for op in ops):
        problems.append("operations on one seed disagree on quality")
    attempted, failed = probe.attempted, probe.failed

    epoch_ms = [1000.0 * s for s in probe.epoch_s]
    tail_ms, tail_label = tracing.tail(epoch_ms) if epoch_ms else (0.0, "max")
    ratios = ops[0]["ratios"] if ops else {"test_error": 0.0, "graph_label_gap": 0.0}
    metrics = {
        "run_s": (_median(op_s), "s", len(op_s), ""),
        "epoch_ms.p50": (_median(epoch_ms), "ms", len(epoch_ms), ""),
        "epoch_ms.tail": (tail_ms, "ms", len(epoch_ms), tail_label),
        "infer_s": (_median(probe.infer_s), "s", len(probe.infer_s), ""),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB", 1, "ru_maxrss"),
        "test_error": (ratios["test_error"], "ratio", 1, "vs null model"),
        "graph_label_gap": (ratios["graph_label_gap"], "ratio", 1, "vs null model"),
        "success_rate": ((attempted - failed) / attempted if attempted else 0.0,
                         "fraction", attempted, f"{failed} failed"),
    }
    out = {"metrics": metrics, "attempted": attempted, "failed": failed,
           "problems": problems, "quality": ops[0]["quality"] if ops else {},
           "env": {"numpy": pg.np.__version__,
                   "scipy": sys.modules["scipy"].__version__}}
    if tracer is not None:
        unique = _median([op["unique_cell_ratio"] for op in ops])
        layers = tracing.layer_metrics(tracer, op_s, import_s, unique,
                                       workloads.ABLATE_WORKERS)
        out["layers"] = layers
        out["counts"] = {k: layers[k][0] for k in tracing.EXACT_COUNTS}
        tracer.write(Path(params["trace_path"]))
    return out


if __name__ == "__main__":
    sys.exit(main())
