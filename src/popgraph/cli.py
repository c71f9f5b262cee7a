"""Command-line orchestration: dataset generation, multi-seed training,
ablation grids over phenotype subsets / distance metrics / methods, and
artifact export (attention rankings, graph files).

One JSON config file drives everything; flags only override its keys. Each
artifact is written once, already stamped with the experiment config hash
(README lists which hash each file carries), and re-running a command with
the same config and seeds reproduces the metrics byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .attention import rank_phenotypes
from .baselines import linear_fit, static_gcn_experiment
from .dataio import (
    PHENOTYPE_SUBSETS,
    CsvSchema,
    PopulationDataset,
    SyntheticConfig,
    check_fields,
    config_hash,
    generate_synthetic,
    load_csv,
    make_class_labels,
    normalize_minmax,
    read_json,
    restrict_phenotypes,
    save_csv,
    spec,
    split,
    write_csv,
    write_json,
)
from .graphgen import GRAPH_FORMATS, export_graph, homophily_score, knn_static_graph
from .trainer import (
    DISTANCE_METRICS,
    METRIC_FIELDS,
    TASKS,
    InferenceResult,
    MetricsRecord,
    TrainConfig,
    load_run,
    run_experiment,
    sample_trained_edges,
    save_history_csv,
    save_metrics_json,
    save_run,
    score_test_split,
)

__all__ = [
    "ExperimentConfig",
    "DatasetBlock",
    "AblationBlock",
    "CliError",
    "load_config",
    "build_dataset",
    "cmd_generate",
    "cmd_train",
    "cmd_ablate",
    "cmd_export",
    "main",
]

ABLATION_METHODS = ("adaptive", "static", "random", "linear")
# methods whose result reads neither the distance metric nor the phenotype
# subset: the linear fit of the node features, and the random graph, which
# always trains with distance_metric="random"
METRIC_FREE_METHODS = ("random", "linear")
EXPORT_TARGETS = ("attention", "graph-static", "graph-learned")


class CliError(Exception):
    """User-facing failure: bad config, missing file, empty grid."""


def _from_dict(cls, payload: dict, where: str):
    """``cls(**payload)``, refusing a payload that is not a JSON object and
    keys that are not fields of ``cls``. Absent keys take the field
    defaults; ``cls.__post_init__`` checks and coerces the values."""
    if not isinstance(payload, dict):
        raise CliError(f"{where} must be a JSON object, got {payload!r}")
    unknown = set(payload) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise CliError(f"unknown {where} keys: {sorted(unknown)}")
    return cls(**payload)


@dataclass
class DatasetBlock:
    source: str = spec(str, "synthetic", choices=("synthetic", "csv"))
    seed: int = spec(int, 0, least=0)
    split_fractions: tuple = spec(tuple, (0.75, 0.05, 0.20))
    synthetic: SyntheticConfig = field(default_factory=SyntheticConfig)
    csv_path: str | None = spec(str, None)
    label_column: str = spec(str, "age")
    kinds: dict = spec(dict, {})

    def __post_init__(self) -> None:
        check_fields(self, CliError)
        if not isinstance(self.synthetic, SyntheticConfig):
            self.synthetic = _from_dict(SyntheticConfig, self.synthetic, "synthetic")
        if self.source == "csv" and not self.csv_path:
            raise CliError("csv dataset needs csv_path")
        if len(self.split_fractions) != 3:
            raise CliError("split_fractions must have exactly 3 entries")


@dataclass
class AblationBlock:
    phenotype_subsets: list = spec(list, ["both"], each=str, choices=PHENOTYPE_SUBSETS)
    distance_metrics: list = spec(list, ["euclidean"], each=str, choices=DISTANCE_METRICS)
    methods: list = spec(list, ["adaptive"], each=str, choices=ABLATION_METHODS)

    def __post_init__(self) -> None:
        check_fields(self, CliError)


_TRAIN_KEYS = {f.name for f in dataclasses.fields(TrainConfig)} - {"task", "seed"}


@dataclass
class ExperimentConfig:
    task: str = spec(str, "regression", choices=TASKS)
    dataset: DatasetBlock = field(default_factory=DatasetBlock)
    train: dict = spec(dict, {})  # TrainConfig fields but task and seed
    ablation: AblationBlock = field(default_factory=AblationBlock)
    out_dir: str = spec(str, "runs/experiment")
    seeds: list = spec(list, [0], each=int, least=0)
    workers: int = spec(int, 1, least=1)

    def __post_init__(self) -> None:
        check_fields(self, CliError)
        if not isinstance(self.dataset, DatasetBlock):
            self.dataset = _from_dict(DatasetBlock, self.dataset, "dataset")
        if not isinstance(self.ablation, AblationBlock):
            self.ablation = _from_dict(AblationBlock, self.ablation, "ablation")
        if not self.out_dir:
            raise CliError("out_dir is empty")
        if not self.seeds:
            raise CliError("seeds list is empty")
        unknown = set(self.train) - _TRAIN_KEYS
        if unknown:
            raise CliError(f"unknown train keys: {sorted(unknown)}")
        try:
            for seed in self.seeds:
                self.train_config(seed)
        except (TypeError, ValueError) as exc:
            raise CliError(f"bad train block: {exc}") from exc

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @property
    def experiment_hash(self) -> str:
        return config_hash(self.to_dict())

    def train_config(self, seed: int, **overrides) -> TrainConfig:
        return TrainConfig(task=self.task, seed=seed, **{**self.train, **overrides})

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        return _from_dict(cls, payload, "config")


def load_config(path) -> ExperimentConfig:
    try:
        payload = read_json(path)
    except OSError as exc:
        raise CliError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise CliError(f"bad config: {exc}") from exc
    try:
        return ExperimentConfig.from_dict(payload)
    except (CliError, TypeError, ValueError) as exc:
        raise CliError(f"bad config {path}: {exc}") from exc


def save_config(config: ExperimentConfig, path) -> None:
    write_json(path, {"config_hash": config.experiment_hash,
                      "experiment": config.to_dict()})


def _load_run_dir_config(run_dir: Path) -> ExperimentConfig:
    path = run_dir / "config.json"
    if not path.exists():
        raise CliError(f"{run_dir} has no config.json; not a run directory?")
    payload = read_json(path)
    experiment = payload.get("experiment") if isinstance(payload, dict) else None
    if not isinstance(experiment, dict):
        raise CliError(f"{path} holds no experiment block; not a run directory?")
    try:
        return ExperimentConfig.from_dict(experiment)
    except (CliError, TypeError, ValueError) as exc:
        raise CliError(f"bad config {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# dataset assembly
# ---------------------------------------------------------------------------


def build_dataset(config: ExperimentConfig) -> PopulationDataset:
    """Generate or load, then split, normalize, and (for classification) bin.

    Deterministic in the dataset block alone: training seeds never touch the
    data, so every seed of a run sees the same subjects and splits.
    """
    block = config.dataset
    if block.source == "synthetic":
        ds = generate_synthetic(block.synthetic, seed=block.seed)
    else:
        schema = CsvSchema(label_column=block.label_column, kinds=dict(block.kinds))
        ds = load_csv(block.csv_path, schema)
    split(ds, fractions=tuple(block.split_fractions), seed=block.seed)
    normalize_minmax(ds)
    if config.task == "classification":
        n_classes = config.train_config(config.seeds[0]).n_classes
        ds.class_labels, _ = make_class_labels(ds.y, ds.masks.train, n_classes)
    return ds


# ---------------------------------------------------------------------------
# shared output helpers
# ---------------------------------------------------------------------------


def _write_graph(edges, labels, stem: Path, stamp: str) -> None:
    for fmt in GRAPH_FORMATS:
        export_graph(edges, labels, stem.with_suffix(f".{fmt}"), stamp, fmt)


def _attention_files(weights, dataset, out_dir: Path, stamp: str) -> None:
    names, kinds = dataset.phenotype_names, dataset.column_kinds()
    ranking = rank_phenotypes(weights, names, [kinds[name] for name in names])
    write_csv(out_dir / "attention.csv", stamp, ["rank", "name", "kind", "weight"],
              [[row["rank"], row["name"], row["kind"], repr(row["weight"])]
               for row in ranking])
    write_json(out_dir / "attention.json", {
        "config_hash": stamp,
        "weights": {name: float(w) for name, w in zip(names, weights)},
        "ranking": ranking,
    })


def aggregate_records(records: list) -> dict:
    """Per-metric mean/std/median over seeds, ignoring missing values."""
    out = {}
    for name in METRIC_FIELDS:
        values = [v for v in (getattr(r, name) for r in records) if v is not None]
        if values:
            out[name] = {
                "mean": float(np.mean(values)),
                "std": float(np.std(values)),
                "median": float(np.median(values)),
                "n": len(values),
            }
    return out


def _run_pool(items, worker, n_workers: int):
    """Map worker over items, catching per-item failures. Returns
    [(item, result_or_None, error_or_None)] in input order."""
    def guarded(item):
        try:
            return item, worker(item), None
        except Exception as exc:  # noqa: BLE001 - isolate sub-run failures
            return item, None, f"{type(exc).__name__}: {exc}"

    if n_workers <= 1 or len(items) <= 1:
        return [guarded(item) for item in items]
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(guarded, items))


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def cmd_generate(config: ExperimentConfig) -> Path:
    """Write dataset.csv plus metadata.json (seed, relevance flags, hash and
    the column kinds, a ``dataset.kinds`` block that reloads every column)."""
    block = config.dataset
    if block.source != "synthetic":
        raise CliError("generate only makes sense for synthetic dataset blocks")
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ds = generate_synthetic(block.synthetic, seed=block.seed)
    try:
        save_csv(ds, out / "dataset.csv")
    except OSError as exc:
        raise CliError(f"cannot write dataset: {exc}") from exc
    metadata = {
        "config_hash": config.experiment_hash,
        "seed": block.seed,
        "n_subjects": ds.n_subjects,
        "label_column": ds.label_column,
        "relevant": {name: bool(flag) for name, flag
                     in zip(ds.phenotype_names, ds.relevant)},
        "kinds": ds.column_kinds(),
        "synthetic": block.synthetic.to_dict(),
    }
    write_json(out / "metadata.json", metadata)
    return out


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _train_one_seed(dataset, config: ExperimentConfig, seed: int,
                    out: Path) -> MetricsRecord:
    train_cfg = config.train_config(seed)
    result, record = run_experiment(dataset, train_cfg)
    seed_dir = out / f"seed_{seed}"
    seed_dir.mkdir(parents=True, exist_ok=True)
    stamp = config.experiment_hash

    save_metrics_json(record, seed_dir / "metrics.json")
    save_history_csv(result.history, seed_dir / "history.csv", stamp)
    save_run(result, seed_dir / "checkpoint.json")
    if result.attention_vector is not None:
        _attention_files(result.attention_vector, dataset, seed_dir, stamp)
    edges = sample_trained_edges(result, dataset)
    _write_graph(edges, dataset.y, seed_dir / "graph_learned", stamp)
    return record


def cmd_train(config: ExperimentConfig) -> int:
    """One full run per seed, then a seed-aggregate JSON. Failed seeds leave
    the other runs' artifacts in place and flip the exit status."""
    dataset = build_dataset(config)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_config(config, out / "config.json")

    rows = _run_pool(config.seeds,
                     lambda seed: _train_one_seed(dataset, config, seed, out),
                     config.workers)
    records = {seed: record for seed, record, err in rows if err is None}
    failures = {seed: err for seed, _, err in rows if err is not None}

    aggregate = {
        "config_hash": config.experiment_hash,
        "task": config.task,
        "seeds": list(config.seeds),
        "n_seeds": len(config.seeds),
        "per_seed": {str(seed): rec.to_json_dict() for seed, rec in records.items()},
        "aggregate": aggregate_records(list(records.values())),
        "failures": {str(seed): err for seed, err in failures.items()},
    }
    write_json(out / "aggregate.json", aggregate)

    for name, stats in aggregate["aggregate"].items():
        print(f"{name}: {stats['mean']:.4f} +/- {stats['std']:.4f} "
              f"(median {stats['median']:.4f}, n={stats['n']})")
    for seed, err in failures.items():
        print(f"seed {seed} failed: {err}", file=sys.stderr)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------


def _linear_cell(dataset, config: ExperimentConfig, seed: int) -> MetricsRecord:
    train = dataset.require_masks().train
    record = MetricsRecord(task=config.task, seed=seed,
                           config_hash=config.experiment_hash)
    if config.task == "regression":
        model = linear_fit(dataset.X[train], dataset.y[train])
        out = InferenceResult(predictions=model.predict(dataset.X))
    else:
        n_classes = config.train_config(seed).n_classes
        model = linear_fit(dataset.X[train], dataset.class_labels[train],
                           task="logistic", n_classes=n_classes)
        probabilities = model.predict_proba(dataset.X)
        out = InferenceResult(predictions=probabilities.argmax(axis=1),
                              probabilities=probabilities)
    score_test_split(record, out, dataset)
    record.validate()
    return record


def _ablate_cell(datasets: dict, config: ExperimentConfig, cell) -> MetricsRecord:
    subset, metric, method, seed = cell
    dataset = datasets[subset]
    if method == "linear":
        return _linear_cell(dataset, config, seed)
    if method in ("adaptive", "random"):
        cfg = config.train_config(
            seed, distance_metric=metric if method == "adaptive" else "random")
        return run_experiment(dataset, cfg)[1]
    if method == "static":
        cfg = config.train_config(seed)
        return static_gcn_experiment(dataset, "phenotypes", cfg, k=cfg.k, metric=metric)[1]
    raise ValueError(f"unknown method {method!r}")


_CELL_COLUMNS = ("subset", "metric", "method", "seed") + METRIC_FIELDS


def _run_key(cell) -> tuple:
    """The run a cell needs, without the axes that run never reads:
    metric-free methods drop subset and metric, an adaptive cell under the
    random metric is the random method's run, and a static cell under the
    random metric (a graph drawn from the seed alone) drops the subset. A
    dropped subset is None, which ``cmd_ablate`` maps to the full dataset."""
    subset, metric, method, seed = cell
    if method == "adaptive" and metric == "random":
        method = "random"
    if method in METRIC_FREE_METHODS:
        return (None, None, method, seed)
    if metric == "random":
        return (None, metric, method, seed)
    return cell


def cmd_ablate(config: ExperimentConfig) -> int:
    """Cross-product {phenotype subset} x {distance metric} x {method}, one
    row per cell per seed, plus an aggregate table sorted by headline metric.
    Each distinct run happens once (``_run_key``): a shared run is copied to
    every row it stands for, and its failure counts against each row."""
    block = config.ablation
    cells = [(subset, metric, method, seed)
             for subset in block.phenotype_subsets
             for metric in block.distance_metrics
             for method in block.methods
             for seed in config.seeds]
    if not cells:
        raise CliError("ablation grid is empty; list at least one subset, "
                       "metric, and method")
    full = build_dataset(config)
    datasets = {None: full, **{subset: restrict_phenotypes(full, subset)
                               for subset in block.phenotype_subsets}}
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_config(config, out / "config.json")

    keys = list(dict.fromkeys(_run_key(cell) for cell in cells))
    runs = {key: (record, err) for key, record, err in _run_pool(
        keys, lambda key: _ablate_cell(datasets, config, key), config.workers)}
    failures = {}
    by_cell = {}
    csv_rows = []
    for cell in cells:
        subset, metric, method, seed = cell
        record, err = runs[_run_key(cell)]
        if err is not None:
            failures[f"{subset}/{metric}/{method}/seed_{seed}"] = err
            continue
        by_cell.setdefault((subset, metric, method), []).append(record)
        csv_rows.append([subset, metric, method, seed]
                        + [getattr(record, name) for name in METRIC_FIELDS])

    stamp = config.experiment_hash
    write_csv(out / "cells.csv", stamp, _CELL_COLUMNS,
              [["" if v is None else v for v in row] for row in csv_rows])

    headline = "mae" if config.task == "regression" else "accuracy"
    aggregated = []
    for (subset, metric, method), records in by_cell.items():
        stats = aggregate_records(records)
        aggregated.append({"subset": subset, "metric": metric, "method": method,
                           "n_seeds": len(records), **{
                               f"{name}_{stat}": round(values[stat], 12)
                               for name, values in stats.items()
                               for stat in ("mean", "std", "median")}})
    missing = [row for row in aggregated if f"{headline}_mean" not in row]
    present = [row for row in aggregated if f"{headline}_mean" in row]
    present.sort(key=lambda row: row[f"{headline}_mean"],
                 reverse=(headline == "accuracy"))
    aggregated = present + missing

    # the key columns, then every stat column in order of first appearance
    columns = list(dict.fromkeys(["subset", "metric", "method", "n_seeds"]
                                 + [key for row in aggregated for key in row]))
    write_csv(out / "aggregate.csv", stamp, columns,
              [[row.get(col, "") for col in columns] for row in aggregated])
    write_json(out / "aggregate.json", {"config_hash": stamp, "task": config.task,
                                        "table": aggregated, "failures": failures})

    for row in aggregated:
        label = f"{row['subset']}/{row['metric']}/{row['method']}"
        value = row.get(f"{headline}_mean")
        shown = "n/a" if value is None else f"{value:.4f}"
        print(f"{label}: {headline} {shown}")
    for key, err in failures.items():
        print(f"{key} failed: {err}", file=sys.stderr)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def cmd_export(run_dir, what: str, seed: int | None = None) -> Path:
    """Re-derive artifacts from a finished run: attention ranking, or graph
    files (learned sample / static cosine) with their homophily printed."""
    if what not in EXPORT_TARGETS:
        raise CliError(f"unknown export target {what!r}; expected one of "
                       f"{EXPORT_TARGETS}")
    run_dir = Path(run_dir)
    config = _load_run_dir_config(run_dir)
    seed = config.seeds[0] if seed is None else seed
    seed_dir = run_dir / f"seed_{seed}"
    checkpoint = seed_dir / "checkpoint.json"
    if not checkpoint.exists():
        raise CliError(f"missing checkpoint {checkpoint}")
    dataset = build_dataset(config)
    result = load_run(checkpoint, dataset)
    stamp = config.experiment_hash
    export_dir = seed_dir / "export"
    export_dir.mkdir(parents=True, exist_ok=True)

    if what == "attention":
        if result.attention_vector is None:
            raise CliError("this run has no attention scorer (static, random, "
                           "or ones-mode graph)")
        _attention_files(result.attention_vector, dataset, export_dir, stamp)
        return export_dir

    mode = config.task
    labels = dataset.y if mode == "regression" else dataset.class_labels
    if what == "graph-learned":
        edges = sample_trained_edges(result, dataset)
        stem = export_dir / "graph_learned"
    else:
        edges = knn_static_graph(dataset.phenotype_matrix(),
                                 result.config.k, metric="cosine")
        stem = export_dir / "graph_static"
    _write_graph(edges, dataset.y, stem, stamp)
    score = homophily_score(edges, labels, mode=mode)
    print(f"homophily[{what}] = {score:.6f}")
    return export_dir


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parse_seeds(text: str) -> list:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise CliError(f"bad --seeds value {text!r}: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="popgraph",
        description="population-graph learning experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (("generate", "write a synthetic dataset to CSV"),
                       ("train", "train once per seed and aggregate"),
                       ("ablate", "run a subset x metric x method grid")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", help="override the config's out_dir")
        if name != "generate":
            p.add_argument("--seeds", help="override seeds, e.g. 0,1,2")
            p.add_argument("--workers", type=int, help="parallel sub-runs")

    p = sub.add_parser("export", help="emit attention/graph artifacts for a run")
    p.add_argument("--run", required=True, help="run directory from `train`")
    p.add_argument("--what", required=True, choices=EXPORT_TARGETS)
    p.add_argument("--seed", type=int, help="which seed's checkpoint (default: first)")
    return parser


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    """Replace the config's out_dir, seeds and workers with the flags given,
    through the same checks a config file's values pass."""
    for flag, name in (("out", "out_dir"), ("seeds", "seeds"), ("workers", "workers")):
        value = getattr(args, flag, None)
        if value is None:
            continue
        if flag == "seeds":
            value = _parse_seeds(value)
        try:
            config = dataclasses.replace(config, **{name: value})
        except CliError as exc:
            raise CliError(f"--{flag} override: {exc}") from exc
    return config


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "export":
            cmd_export(args.run, args.what, args.seed)
            return 0
        config = _apply_overrides(load_config(args.config), args)
        if args.command == "generate":
            out = cmd_generate(config)
            print(f"dataset written to {out}")
            return 0
        if args.command == "train":
            return cmd_train(config)
        return cmd_ablate(config)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
