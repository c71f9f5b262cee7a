"""The benchmark's three workloads: the inputs each makes from the seed, its
set-up, and one closed-loop operation with its output checks.

adaptive-n2000  run_experiment with the learned euclidean Gumbel-Top-k graph
                at N = 2000: the dense N x N path (distance, kernel, Gumbel
                draw, full-row argsort, dense A_hat and their backward)
                dominates, and every N x N float64 array (32 MB) overflows L2.
static-n2000    static_gcn_experiment on a cosine kNN graph built once, same
                population and widths: the sampler is bypassed, so the GCN
                propagation, matmul backward and AdamW do the work.
ablate-cls      `popgraph ablate` over {cosine, hyperbolic} x {adaptive,
                static, random, linear} on a 4-class CSV population at
                N = 600: cache-resident arrays put per-op tape overhead ahead
                of FLOPs, and the logistic baseline and random_graph's Python
                loop run. One worker: with two, a cell's epochs slowed by
                whatever the other worker ran at the time.

Every operation uses patience 0, so it always runs its full epoch count and a
change that learns faster cannot shorten it.
"""

from __future__ import annotations

import csv
import json
import shutil

# the acceptance fixture's population shape; N and noise vary per workload
POPULATION = {"n_nonimaging": 20, "n_imaging": 20, "n_node_features": 30,
              "n_relevant_nonimaging": 10, "n_relevant_imaging": 10}

WORKLOADS = {
    "adaptive-n2000": {"kind": "adaptive", "n": 2000, "noise_std": 0.5, "epochs": 10},
    "static-n2000": {"kind": "static", "n": 2000, "noise_std": 0.5, "epochs": 100},
    "ablate-cls": {"kind": "ablate", "n": 600, "noise_std": 0.3, "epochs": 20},
}

K = 5
N_CLASSES = 4
ABLATE_WORKERS = 1
ABLATE_METRICS = ["cosine", "hyperbolic"]
ABLATE_METHODS = ["adaptive", "static", "random", "linear"]
ABLATE_CELLS = len(ABLATE_METRICS) * len(ABLATE_METHODS)


def _population(pg, spec: dict, seed: int):
    cfg = pg.dataio.SyntheticConfig(n_subjects=spec["n"], noise_std=spec["noise_std"],
                                    **POPULATION)
    return pg.dataio.generate_synthetic(cfg, seed=seed)


def prepare(pg, name: str, seed: int, run_dir) -> None:
    """Write the inputs a workload reads from disk (ablate-cls only): the
    seeded population as CSV and the experiment config that names it."""
    spec = WORKLOADS[name]
    if spec["kind"] != "ablate":
        return
    ds = _population(pg, spec, seed)
    csv_path = run_dir / "population.csv"
    pg.dataio.save_csv(ds, csv_path)
    schema = pg.dataio.csv_schema_for(ds)
    config = {
        "task": "classification",
        "dataset": {"source": "csv", "seed": seed, "csv_path": str(csv_path),
                    "label_column": schema.label_column, "kinds": schema.kinds},
        "train": {"epochs": spec["epochs"], "patience": 0, "k": K,
                  "gcn_hidden1": 64, "gcn_hidden2": 32, "n_classes": N_CLASSES},
        "ablation": {"phenotype_subsets": ["both"], "distance_metrics": ABLATE_METRICS,
                     "methods": ABLATE_METHODS},
        "out_dir": str(run_dir / "ablation"),
        "seeds": [seed],
        "workers": ABLATE_WORKERS,
    }
    (run_dir / "experiment.json").write_text(json.dumps(config, indent=2),
                                             encoding="utf-8")


def setup(pg, name: str, seed: int, run_dir):
    """Population generated or loaded, split, normalized (and class-binned):
    everything a user waits for before the first epoch."""
    spec = WORKLOADS[name]
    if spec["kind"] == "ablate":
        return pg.cli.build_dataset(pg.cli.load_config(run_dir / "experiment.json"))
    ds = _population(pg, spec, seed)
    pg.dataio.split(ds, seed=seed)
    pg.dataio.normalize_minmax(ds)
    return ds


def run_op(pg, name: str, seed: int, run_dir, dataset, index: int) -> dict:
    """One user operation. Returns its quality figures (exact for a seed),
    the ablation cells it ran and failed, and any malformed output found."""
    spec = WORKLOADS[name]
    if spec["kind"] == "ablate":
        return _ablate(pg, run_dir, index)
    cfg = pg.trainer.TrainConfig(task="regression", epochs=spec["epochs"], patience=0,
                                 k=K, distance_metric="euclidean", gcn_hidden1=512,
                                 gcn_hidden2=128, inference_samples=8, seed=seed)
    if spec["kind"] == "adaptive":
        _, record = pg.trainer.run_experiment(dataset, cfg)
    else:
        _, record = pg.baselines.static_gcn_experiment(dataset, "phenotypes", cfg,
                                                       k=K, metric="cosine")
    record.validate()
    quality = {"test_mae": record.mae, "graph_homophily": record.homophily,
               "null_mae": record.epsilon}
    # errors relative to the label-blind null model (MetricsRecord.epsilon)
    ratios = {"test_error": record.mae / record.epsilon,
              "graph_label_gap": record.homophily / record.epsilon}
    return {"quality": quality, "ratios": ratios, "cells": 0, "cell_failures": 0,
            "unique_cell_ratio": 0.0, "problems": []}


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def _read_cells(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _ablate(pg, run_dir, index: int) -> dict:
    out = run_dir / f"ablation-{index}"
    pg.cli.main(["ablate", "--config", str(run_dir / "experiment.json"),
                 "--out", str(out)])
    with open(out / "aggregate.json", encoding="utf-8") as fh:
        aggregate = json.load(fh)
    cells = _read_cells(out / "cells.csv")
    shutil.rmtree(out)

    problems = []
    failures = len(aggregate["failures"])
    keys = {(row["metric"], row["method"]) for row in cells}
    if len(cells) + failures != ABLATE_CELLS or len(keys) != len(cells):
        problems.append(f"cells.csv has {len(cells)} rows for {ABLATE_CELLS} cells "
                        f"with {failures} failures")
    adaptive = [float(row["accuracy"]) for row in cells if row["method"] == "adaptive"]
    accuracy = [float(row["accuracy"]) for row in cells]
    same_class = [float(row["homophily"]) for row in cells if row["homophily"]]
    if not all(0.0 <= v <= 1.0 for v in accuracy + same_class):
        problems.append("a cell's accuracy or homophily lies outside [0, 1]")
    # a cell's result without its metric name: random-graph and linear cells
    # ignore the metric, so they repeat across metrics
    results = {tuple(v for k, v in row.items() if k != "metric") for row in cells}
    quality = {"test_accuracy": _mean(adaptive), "all_cells_accuracy": _mean(accuracy),
               "graph_same_class": _mean(same_class)}
    # every cell's error relative to the null model's error rate, 1 - 1/C
    chance_error = 1.0 - 1.0 / N_CLASSES
    ratios = {"test_error": _mean([(1.0 - a) / chance_error for a in accuracy]),
              "graph_label_gap": _mean([(1.0 - h) / chance_error for h in same_class])}
    return {"quality": quality, "ratios": ratios, "cells": ABLATE_CELLS,
            "cell_failures": failures,
            "unique_cell_ratio": len(results) / len(cells) if cells else 0.0,
            "problems": problems}
