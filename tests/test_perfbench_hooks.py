"""The names the benchmark harness hooks must exist in the program, and
take the calls it makes in the forms it makes them.

``perfbench/tracing.py`` and ``perfbench/child.py`` wrap popgraph functions
by name and read some of their arguments by position; ``perfbench/
workloads.py`` calls a few directly. A rename, deletion or signature trim
there would break only a benchmark run, so these tests read the harness's
own list of hooked names (without changing the harness), check each one
against the package, and bind each call form the harness relies on.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from popgraph import baselines, cli, graphgen, numerics, trainer
from popgraph.numerics import Tensor

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist_in_popgraph():
    tracing = _load_tracing()
    missing = [f"{module}.{attr}" for module, attr in tracing.TRACED
               if not callable(getattr(importlib.import_module(f"popgraph.{module}"),
                                       attr, None))]
    assert not missing, f"perfbench traces names popgraph lacks: {missing}"


def test_directly_hooked_names_exist():
    assert callable(trainer.AdamW.step)
    for name in ("no_grad", "reset_tape", "_ops"):
        assert callable(getattr(numerics, name, None)), name


def test_drawn_graph_exposes_what_the_harness_reads():
    rng = np.random.default_rng(0)
    distances = graphgen.pairwise_distance(Tensor(rng.normal(size=(6, 3))), "euclidean")
    scores = graphgen.edge_probabilities(distances, Tensor(1.0))
    assert distances.shape == scores.shape == (6, 6)
    # the harness counts any object with a ``values`` or ``size`` of N*N or
    # more entries as a dense array; the kernel must not read as one
    assert not hasattr(distances, "values") and not hasattr(distances, "size")
    graph = graphgen.gumbel_topk_sample(scores, 2, rng=rng)
    assert graph.edges.shape == (12, 2)
    assert graph.noise is None and graph.n_nodes == 6
    assert graph.a_hat.shape == (6, 6)


def _bound(fn, *args, **kwargs):
    return dict(inspect.signature(fn).bind(*args, **kwargs).arguments)


def test_harness_call_forms_bind():
    # workloads.py: the static-n2000 and adaptive-n2000 runs
    assert _bound(baselines.static_gcn_experiment, "ds", "phenotypes", "cfg",
                  k=5, metric="cosine") == {
        "dataset": "ds", "feature_source": "phenotypes", "config": "cfg",
        "k": 5, "metric": "cosine"}
    assert _bound(trainer.run_experiment, "ds", "cfg") == {"dataset": "ds", "config": "cfg"}
    # tracing.py reads the ablation cell as _ablate_cell's third positional
    # argument, (subset, metric, method, seed)
    assert _bound(cli._ablate_cell, "datasets", "config", "cell")["cell"] == "cell"
    # child.py reads k as the second positional argument or as k=
    for fn, first, rest in ((graphgen.gumbel_topk_sample, "scores", {"rng": None}),
                            (graphgen.knn_static_graph, "features", {"metric": "cosine"}),
                            (graphgen.random_graph, 10, {"rng": None})):
        assert list(inspect.signature(fn).parameters)[1] == "k", fn.__name__
        assert _bound(fn, first, 3, **rest)["k"] == 3
        assert _bound(fn, first, k=3, **rest)["k"] == 3


def test_linear_cells_pass_the_task_as_the_harness_reads_it(tmp_path, monkeypatch):
    """tracing.py reads ``linear_fit``'s task as ``kwargs["task"]`` or
    ``args[3]``, and ``args[3]`` is not the task, so ``_linear_cell`` must
    pass the task by keyword: the harness's own reader must see each linear
    cell's fit as logistic exactly when the run classifies."""
    tracer, calls = _load_tracing().Tracer(), []
    real = cli.linear_fit

    def hooked(*args, **kwargs):
        span = SimpleNamespace(info={})
        tracer._fit_start(span, args, kwargs)
        calls.append(span.info["logistic"])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "linear_fit", hooked)
    for task in ("regression", "classification"):
        config = cli.ExperimentConfig.from_dict({
            "task": task,
            "dataset": {"synthetic": {"n_subjects": 40, "n_nonimaging": 4, "n_imaging": 4,
                                      "n_node_features": 6, "n_relevant_nonimaging": 2,
                                      "n_relevant_imaging": 2}},
            "out_dir": str(tmp_path / task)})
        cli._linear_cell(cli.build_dataset(config), config, 0)
    assert calls == [False, True]
    assert list(inspect.signature(baselines.linear_fit).parameters)[2] == "task"


def test_ablation_cells_reach_the_traced_hook_positionally(tmp_path, monkeypatch):
    """tracing.py's hook takes ``args[2][2]`` as the cell's method, so
    ``cmd_ablate`` must pass each cell as the third positional argument."""
    real, seen = cli._ablate_cell, []

    def hooked(*args, **kwargs):
        seen.append(args[2][2])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "_ablate_cell", hooked)
    config = cli.ExperimentConfig.from_dict({
        "dataset": {"synthetic": {"n_subjects": 40, "n_nonimaging": 4, "n_imaging": 4,
                                  "n_node_features": 6, "n_relevant_nonimaging": 2,
                                  "n_relevant_imaging": 2}},
        "train": {"epochs": 2, "patience": 0, "k": 3, "gcn_hidden1": 8, "gcn_hidden2": 4,
                  "inference_samples": 1},
        "ablation": {"distance_metrics": ["cosine"], "methods": ["static", "linear"]},
        "out_dir": str(tmp_path / "ablate")})
    assert cli.cmd_ablate(config) == 0
    assert sorted(seen) == ["linear", "static"]
