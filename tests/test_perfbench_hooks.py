"""The names the benchmark harness hooks must exist in the program.

``perfbench/tracing.py`` and ``perfbench/child.py`` wrap popgraph functions
by name. A rename or deletion there would break only a traced benchmark run,
so this test reads the harness's own list of hooked names (without changing
the harness) and checks each one against the package.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from popgraph import graphgen, numerics, trainer
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
    graph = graphgen.gumbel_topk_sample(scores, 2, rng=rng)
    assert graph.edges.shape == (12, 2)
    assert graph.noise is None and graph.n_nodes == 6
    assert graph.a_hat.shape == (6, 6)
