"""Config round-trips, command outputs, multi-seed aggregation, grid
ablations, exports, and exit codes, all on miniature datasets.
"""

import dataclasses
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from popgraph import graphgen
from popgraph.cli import (
    AblationBlock,
    CliError,
    DatasetBlock,
    ExperimentConfig,
    build_dataset,
    cmd_ablate,
    cmd_export,
    cmd_generate,
    cmd_train,
    load_config,
    main,
)
from popgraph.dataio import (CsvSchema, SyntheticConfig, config_hash,
                             generate_synthetic, load_csv, restrict_phenotypes)
from popgraph.trainer import (INFERENCE_STREAM, METRIC_FIELDS, RUN_FORMAT_VERSION, TrainConfig,
                              evaluate_classification, evaluate_regression, stream_rng)


def experiment_dict(out_dir, **overrides):
    base = {
        "task": "regression",
        "dataset": {
            "source": "synthetic",
            "seed": 1,
            "split_fractions": [0.75, 0.05, 0.2],
            "synthetic": {
                "n_subjects": 40, "n_nonimaging": 4, "n_imaging": 4,
                "n_node_features": 6, "n_relevant_nonimaging": 2,
                "n_relevant_imaging": 2, "noise_std": 0.3,
                "age_range": [47.0, 81.0],
            },
        },
        "train": {"epochs": 3, "patience": 0, "k": 3, "gcn_hidden1": 8,
                  "gcn_hidden2": 4, "inference_samples": 2},
        "ablation": {"phenotype_subsets": ["both"],
                     "distance_metrics": ["euclidean"],
                     "methods": ["adaptive"]},
        "out_dir": str(out_dir),
        "seeds": [0],
        "workers": 1,
    }
    base.update(overrides)
    return base


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------


def test_config_round_trips_losslessly(tmp_path):
    payload = experiment_dict(tmp_path / "run")
    path = write_config(tmp_path, payload)
    config = load_config(path)
    again = ExperimentConfig.from_dict(config.to_dict())
    assert again.to_dict() == config.to_dict()
    assert again.experiment_hash == config.experiment_hash


def test_config_hash_ignores_key_order(tmp_path):
    payload = experiment_dict(tmp_path / "run")
    reordered = dict(reversed(list(payload.items())))
    reordered["dataset"] = dict(reversed(list(payload["dataset"].items())))
    a = load_config(write_config(tmp_path, payload, "a.json"))
    b = load_config(write_config(tmp_path, reordered, "b.json"))
    assert a.experiment_hash == b.experiment_hash


def test_config_rejects_unknown_keys(tmp_path):
    bad = experiment_dict(tmp_path / "run")
    bad["learning_rate"] = 0.1  # belongs inside "train"
    with pytest.raises(CliError, match="unknown config keys"):
        ExperimentConfig.from_dict(bad)
    for key in ("momentum", "lam"):
        bad = experiment_dict(tmp_path / "run")
        bad["train"][key] = 0.9
        with pytest.raises(CliError, match="unknown train keys"):
            ExperimentConfig.from_dict(bad)
    bad = experiment_dict(tmp_path / "run")
    bad["dataset"]["fraction"] = 0.5
    with pytest.raises(CliError, match="unknown dataset keys"):
        ExperimentConfig.from_dict(bad)


def test_config_validation_errors(tmp_path, capsys):
    """Each bad value fails when the config loads, naming its field: a value
    of the wrong JSON kind is checked before anything coerces it, and a
    float or string count is not truncated or parsed. ``train`` exits 2 and
    writes no run directory."""
    for mutate, pattern in [
        (lambda d: d.update(seeds=[]), "seeds"),
        (lambda d: d.update(seeds=[1, 1]), "duplicate"),
        (lambda d: d.update(seeds=[0, -1]), r"seeds\[1\] must be at least 0"),
        (lambda d: d.update(task="survival"), "task"),
        (lambda d: d.update(task=5), "task must be a JSON string, got 5"),
        (lambda d: d.update(workers=0), "workers"),
        (lambda d: d["dataset"].update(source="csv"), "csv_path"),
        (lambda d: d["ablation"].update(methods=["boosting"]), "method"),
        (lambda d: d["ablation"].update(distance_metrics=["manhattan"]), "metric"),
        (lambda d: d["ablation"].update(phenotype_subsets=["genes"]), "subset"),
        (lambda d: d["dataset"].update(split_fractions=5), "split_fractions must be a JSON list"),
        (lambda d: d["ablation"].update(methods=5), "methods must be a JSON list"),
        (lambda d: d.update(seeds=5), "seeds must be a JSON list"),
        (lambda d: d["dataset"].update(seed="abc"), "seed must be an integer, got 'abc'"),
        (lambda d: d.update(seeds=["x"]), r"seeds\[0\] must be an integer, got 'x'"),
        (lambda d: d.update(workers="two"), "workers must be an integer, got 'two'"),
        (lambda d: d["dataset"].update(kinds=[1, 2]), "kinds must be a JSON object"),
        (lambda d: d.update(train=[1]), "train must be a JSON object"),
        (lambda d: d.update(seeds=[1.7]), r"seeds\[0\] must be an integer, got 1.7"),
        (lambda d: d.update(workers=2.9), "workers must be an integer, got 2.9"),
        (lambda d: d["dataset"].update(seed=3.9), "seed must be an integer, got 3.9"),
        (lambda d: d.update(dataset=5), "dataset must be a JSON object"),
        (lambda d: d.update(out_dir=5), "out_dir must be a JSON string"),
        (lambda d: d["dataset"].update(source="csv", csv_path=5),
         "csv_path must be a JSON string or null"),
        (lambda d: d["dataset"].update(label_column=5), "label_column must be a JSON string"),
    ]:
        payload = experiment_dict(tmp_path / "run")
        mutate(payload)
        with pytest.raises(CliError, match=pattern):
            ExperimentConfig.from_dict(payload)
        path = write_config(tmp_path, payload)
        assert main(["train", "--config", str(path)]) == 2, pattern
        assert re.search(pattern, capsys.readouterr().err), pattern
        assert not (tmp_path / "run").exists(), pattern


CONFIG_CLASSES = (TrainConfig, SyntheticConfig, DatasetBlock, AblationBlock, ExperimentConfig)


def test_every_config_field_declares_its_kind():
    """Each field is checked at load: it declares its JSON kind through
    ``dataio.spec``, or it holds a nested config that checks its own."""
    for cls in CONFIG_CLASSES:
        for f in dataclasses.fields(cls):
            nested = f.default_factory in CONFIG_CLASSES
            assert "kind" in f.metadata or nested, f"{cls.__name__}.{f.name}"


def test_default_config_hashes_are_pinned():
    """Run directories and checkpoints stamped by earlier versions stay
    comparable: the default configs hash as they always have."""
    assert ExperimentConfig().experiment_hash == (
        "97852b72d676e01820105750608443a83950801df5bf8686d54249f1f27e2a2e")
    assert config_hash(TrainConfig().to_dict()) == (
        "b04370d650980fbe311c0bc49772c524a197dcda3133f4d4a2de25c79bc15174")
    assert config_hash(SyntheticConfig().to_dict()) == (
        "d4c025b4953bc711a18b83b4441766a195463647e02c7eaaf9f301071aabc590")


def test_train_config_carries_overrides(tmp_path):
    config = ExperimentConfig.from_dict(experiment_dict(tmp_path / "run"))
    cfg = config.train_config(7)
    assert cfg.seed == 7
    assert cfg.task == "regression"
    assert cfg.epochs == 3 and cfg.k == 3
    assert config.train_config(7, k=4).k == 4


def test_load_config_bad_paths(tmp_path):
    with pytest.raises(CliError, match="cannot read"):
        load_config(tmp_path / "absent.json")
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    with pytest.raises(CliError, match="not valid JSON"):
        load_config(broken)


# ---------------------------------------------------------------------------
# phenotype subsets
# ---------------------------------------------------------------------------


def test_restrict_phenotypes_blocks():
    config = ExperimentConfig.from_dict(experiment_dict("unused"))
    ds = build_dataset(config)
    assert ds.n_phenotypes == 8

    non = restrict_phenotypes(ds, "non-imaging")
    assert non.n_phenotypes == 4
    assert non.phenotype_names == ds.nonimaging_names
    assert len(non.relevant) == 4 and non.relevant.sum() == 2

    img = restrict_phenotypes(ds, "imaging")
    assert img.n_phenotypes == 4
    assert img.phenotype_names == ds.imaging_names
    assert img.phenotype_matrix().shape == (40, 4)

    assert restrict_phenotypes(ds, "both") is ds
    with pytest.raises(ValueError, match="subset"):
        restrict_phenotypes(ds, "genetics")


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


def test_cmd_generate_writes_dataset_and_metadata(tmp_path):
    config = ExperimentConfig.from_dict(experiment_dict(tmp_path / "data"))
    out = cmd_generate(config)
    metadata = json.loads((out / "metadata.json").read_text(encoding="utf-8"))
    assert metadata["config_hash"] == config.experiment_hash
    assert metadata["n_subjects"] == 40
    assert sum(metadata["relevant"].values()) == 4

    # the kinds reload every column, the two feature-only ones included
    schema = CsvSchema(label_column=metadata["label_column"],
                       kinds=metadata["kinds"])
    back = load_csv(out / "dataset.csv", schema)
    ds = generate_synthetic(config.dataset.synthetic, seed=config.dataset.seed)
    assert back.n_phenotypes == 8 and back.X.shape == (40, 6)
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.nonimaging, ds.nonimaging)
    assert np.array_equal(back.y, ds.y)
    assert metadata["kinds"] == ds.column_kinds()


def test_cmd_generate_seeds_change_file_contents(tmp_path):
    digests = []
    for seed in (1, 2):
        payload = experiment_dict(tmp_path / f"data{seed}")
        payload["dataset"]["seed"] = seed
        out = cmd_generate(ExperimentConfig.from_dict(payload))
        digests.append(hashlib.sha256((out / "dataset.csv").read_bytes()).hexdigest())
    assert digests[0] != digests[1]


def test_cmd_generate_rejects_csv_source(tmp_path):
    payload = experiment_dict(tmp_path / "data")
    payload["dataset"]["source"] = "csv"
    payload["dataset"]["csv_path"] = "whatever.csv"
    with pytest.raises(CliError, match="synthetic"):
        cmd_generate(ExperimentConfig.from_dict(payload))


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_cmd_train_single_seed_artifacts(tmp_path):
    config = ExperimentConfig.from_dict(experiment_dict(tmp_path / "run"))
    assert cmd_train(config) == 0
    out = tmp_path / "run"
    for name in ("config.json", "aggregate.json"):
        assert (out / name).exists()
    seed_dir = out / "seed_0"
    for name in ("metrics.json", "history.csv", "checkpoint.json",
                 "attention.csv", "attention.json",
                 "graph_learned.dot", "graph_learned.json"):
        assert (seed_dir / name).exists(), name

    aggregate = json.loads((out / "aggregate.json").read_text(encoding="utf-8"))
    metrics = json.loads((seed_dir / "metrics.json").read_text(encoding="utf-8"))
    assert aggregate["per_seed"]["0"] == metrics
    assert aggregate["aggregate"]["mae"]["mean"] == metrics["mae"]
    assert aggregate["aggregate"]["mae"]["std"] == 0.0
    assert aggregate["failures"] == {}

    # every artifact carries the config hash
    stamp = config.experiment_hash
    assert aggregate["config_hash"] == stamp
    assert stamp in (seed_dir / "history.csv").read_text(encoding="utf-8")
    assert stamp in (seed_dir / "attention.csv").read_text(encoding="utf-8")
    assert stamp in (seed_dir / "graph_learned.dot").read_text(encoding="utf-8")
    graph = json.loads((seed_dir / "graph_learned.json").read_text(encoding="utf-8"))
    assert graph["config_hash"] == stamp
    attention = json.loads((seed_dir / "attention.json").read_text(encoding="utf-8"))
    assert attention["config_hash"] == stamp
    assert len(attention["ranking"]) == 8

    history = (seed_dir / "history.csv").read_text(encoding="utf-8").splitlines()
    assert history[1] == "epoch,L_total,L_gcn,L_graph,val_metric"
    assert len(history) == 2 + 3  # comment + header + one row per epoch


def test_cmd_train_multi_seed_aggregation(tmp_path):
    payload = experiment_dict(tmp_path / "run", seeds=[0, 1, 2], workers=2)
    config = ExperimentConfig.from_dict(payload)
    assert cmd_train(config) == 0
    aggregate = json.loads((tmp_path / "run" / "aggregate.json").read_text(encoding="utf-8"))
    assert sorted(aggregate["per_seed"]) == ["0", "1", "2"]
    maes = [aggregate["per_seed"][s]["mae"] for s in ("0", "1", "2")]
    assert aggregate["aggregate"]["mae"]["mean"] == pytest.approx(np.mean(maes))
    assert aggregate["aggregate"]["mae"]["median"] == pytest.approx(np.median(maes))
    assert aggregate["aggregate"]["mae"]["n"] == 3
    assert len(set(maes)) == 3  # different seeds, different runs


def test_cmd_train_rerun_is_byte_identical(tmp_path):
    config = ExperimentConfig.from_dict(experiment_dict(tmp_path / "run"))
    assert cmd_train(config) == 0
    watched = [
        tmp_path / "run" / "aggregate.json",
        tmp_path / "run" / "seed_0" / "metrics.json",
        tmp_path / "run" / "seed_0" / "checkpoint.json",
        tmp_path / "run" / "seed_0" / "history.csv",
        tmp_path / "run" / "seed_0" / "attention.csv",
        tmp_path / "run" / "seed_0" / "graph_learned.json",
    ]
    before = [p.read_bytes() for p in watched]
    assert cmd_train(ExperimentConfig.from_dict(experiment_dict(tmp_path / "run"))) == 0
    after = [p.read_bytes() for p in watched]
    assert before == after


def test_two_workers_share_the_helper_thread_safely(tmp_path, monkeypatch):
    """At N = 800 every draw spans 3 row blocks, so both seeds' passes hand
    jobs to the one helper thread; run at once by two workers, they write
    the files one worker writes. Only the stamp lines differ: the
    experiment hash covers ``workers`` and ``out_dir``."""
    submitted = []
    submit = graphgen._HELPER.submit

    def counted(*args):
        submitted.append(args[0])
        return submit(*args)

    monkeypatch.setattr(graphgen._HELPER, "submit", counted)
    runs = [tmp_path / "run1", tmp_path / "run2"]
    for workers, run in enumerate(runs, start=1):
        payload = experiment_dict(run, seeds=[0, 1], workers=workers)
        payload["dataset"]["synthetic"]["n_subjects"] = 800
        payload["train"].update(gcn_hidden1=16, gcn_hidden2=8)
        submitted.clear()
        assert cmd_train(ExperimentConfig.from_dict(payload)) == 0
        assert submitted
    for seed in ("seed_0", "seed_1"):
        one, two = (run / seed for run in runs)
        for name in ("metrics.json", "checkpoint.json"):
            assert (one / name).read_bytes() == (two / name).read_bytes(), (seed, name)
        rows = [(run / "history.csv").read_text(encoding="utf-8").splitlines()[1:]
                for run in (one, two)]
        assert rows[0] == rows[1] and len(rows[0]) == 1 + 3


def test_cmd_train_partial_failure_keeps_other_seeds(tmp_path, monkeypatch):
    import popgraph.cli as cli_module
    real = cli_module.run_experiment

    def sabotaged(dataset, cfg, fixed_edges=None):
        if cfg.seed == 1:
            raise RuntimeError("sabotaged seed")
        return real(dataset, cfg, fixed_edges=fixed_edges)

    monkeypatch.setattr(cli_module, "run_experiment", sabotaged)
    payload = experiment_dict(tmp_path / "run", seeds=[0, 1])
    assert cmd_train(ExperimentConfig.from_dict(payload)) == 1
    out = tmp_path / "run"
    assert (out / "seed_0" / "metrics.json").exists()
    assert not (out / "seed_1" / "metrics.json").exists()
    aggregate = json.loads((out / "aggregate.json").read_text(encoding="utf-8"))
    assert "1" in aggregate["failures"]
    assert "sabotaged" in aggregate["failures"]["1"]
    assert sorted(aggregate["per_seed"]) == ["0"]


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("field, items", [
    ("phenotype_subsets", ["both", "imaging", "both"]),
    ("distance_metrics", ["cosine", "cosine"]),
    ("methods", ["static", "linear", "linear"]),
])
def test_ablate_rejects_a_repeated_list_entry(tmp_path, capsys, field, items):
    """A repeated entry in an ablation list would run its cells twice and
    count each seed twice in the table: ``ablate`` exits 2, naming the
    field and the entry, before the output directory exists."""
    payload = experiment_dict(tmp_path / "ablate", seeds=[0, 1])
    payload["ablation"][field] = items
    path = write_config(tmp_path, payload)
    assert main(["ablate", "--config", str(path)]) == 2
    assert f"duplicate {field}: {items[-1]}" in capsys.readouterr().err
    assert not (tmp_path / "ablate").exists()


def test_cmd_ablate_grid_and_table(tmp_path):
    payload = experiment_dict(
        tmp_path / "ablate",
        ablation={"phenotype_subsets": ["both"],
                  "distance_metrics": ["euclidean", "random"],
                  "methods": ["adaptive", "linear"]})
    config = ExperimentConfig.from_dict(payload)
    assert cmd_ablate(config) == 0
    out = tmp_path / "ablate"

    cells = (out / "cells.csv").read_text(encoding="utf-8").splitlines()
    assert cells[1].startswith("subset,metric,method,seed")
    assert len(cells) == 2 + 4  # comment + header + 2 metrics x 2 methods

    table = json.loads((out / "aggregate.json").read_text(encoding="utf-8"))["table"]
    assert len(table) == 4
    maes = [row["mae_mean"] for row in table]
    assert maes == sorted(maes)
    linear_rows = [row for row in table if row["method"] == "linear"]
    assert len(linear_rows) == 2
    assert linear_rows[0]["mae_mean"] == linear_rows[1]["mae_mean"]


def test_cmd_ablate_subsets_and_static(tmp_path):
    payload = experiment_dict(
        tmp_path / "ablate",
        ablation={"phenotype_subsets": ["non-imaging", "imaging"],
                  "distance_metrics": ["cosine"],
                  "methods": ["static"]})
    config = ExperimentConfig.from_dict(payload)
    assert cmd_ablate(config) == 0
    table = json.loads((tmp_path / "ablate" / "aggregate.json").read_text(
        encoding="utf-8"))["table"]
    assert {row["subset"] for row in table} == {"non-imaging", "imaging"}
    assert all(row["method"] == "static" for row in table)


def test_main_ablate_refuses_a_subset_without_phenotypes(tmp_path, capsys):
    """A CSV whose kinds name only imaging and feature-only columns, ablated
    over its non-imaging block, exits 2 before any run directory is made."""
    rows = [f"{i / 40},{(i * 7 % 40) / 40},{50 + i}" for i in range(40)]
    csv_path = tmp_path / "pop.csv"
    csv_path.write_text("\n".join(["s,f,age", *rows]) + "\n", encoding="utf-8")
    payload = experiment_dict(tmp_path / "run",
                              ablation={"phenotype_subsets": ["non-imaging"],
                                        "distance_metrics": ["cosine"],
                                        "methods": ["static"]})
    payload["dataset"].update(source="csv", csv_path=str(csv_path),
                              kinds={"s": "imaging", "f": "feature"})
    path = write_config(tmp_path, payload)
    assert main(["ablate", "--config", str(path)]) == 2
    assert ("error: subset 'non-imaging' leaves no phenotype columns"
            in capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


def test_cells_csv_carries_every_metric_field(tmp_path):
    """``METRIC_FIELDS`` is every score the evaluators return plus the
    graph's homophily, and ``cells.csv`` has a column for each."""
    mask = np.ones(4, dtype=bool)
    scores = {**evaluate_regression([1.0, 2.0, 3.0, 5.0], [1.0, 2.0, 4.0, 4.0], mask),
              **evaluate_classification(np.full((4, 2), 0.5), [0, 1, 0, 1], mask)}
    assert METRIC_FIELDS == (*scores, "homophily")
    payload = experiment_dict(tmp_path / "ablate",
                              ablation={"phenotype_subsets": ["both"],
                                        "distance_metrics": ["euclidean"],
                                        "methods": ["linear"]})
    assert cmd_ablate(ExperimentConfig.from_dict(payload)) == 0
    header = (tmp_path / "ablate" / "cells.csv").read_text(encoding="utf-8").splitlines()[1]
    assert header.split(",") == ["subset", "metric", "method", "seed", *METRIC_FIELDS]


def read_cells(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


METRIC_FREE_GRID = {"phenotype_subsets": ["both", "imaging"],
                    "distance_metrics": ["cosine", "hyperbolic"],
                    "methods": ["static", "random", "linear"]}


def test_cmd_ablate_runs_metric_free_cells_once(tmp_path, monkeypatch):
    import popgraph.cli as cli_module
    real_fit, real_run = cli_module.linear_fit, cli_module.run_experiment
    real_static = cli_module.static_gcn_experiment
    calls = {"linear": 0, "random": 0, "static": 0}

    def counted_fit(*args, **kwargs):
        calls["linear"] += 1
        return real_fit(*args, **kwargs)

    def counted_run(dataset, cfg):
        calls[cfg.distance_metric] += 1
        return real_run(dataset, cfg)

    def counted_static(*args, **kwargs):
        calls["static"] += 1
        return real_static(*args, **kwargs)

    monkeypatch.setattr(cli_module, "linear_fit", counted_fit)
    monkeypatch.setattr(cli_module, "run_experiment", counted_run)
    monkeypatch.setattr(cli_module, "static_gcn_experiment", counted_static)
    payload = experiment_dict(tmp_path / "ablate", seeds=[0, 1],
                              ablation=METRIC_FREE_GRID)
    assert cmd_ablate(ExperimentConfig.from_dict(payload)) == 0
    # once per seed for the metric-free methods, per (subset, metric) for static
    assert calls == {"linear": 2, "random": 2, "static": 8}

    cells = read_cells(tmp_path / "ablate" / "cells.csv")
    assert len(cells) == 2 * 2 * 3 * 2
    for method in ("random", "linear"):
        for seed in ("0", "1"):
            rows = [{k: v for k, v in row.items() if k not in ("subset", "metric")}
                    for row in cells if row["method"] == method and row["seed"] == seed]
            assert len(rows) == 4 and all(row == rows[0] for row in rows)


def test_cmd_ablate_runs_random_metric_cells_once(tmp_path, monkeypatch):
    """Under the random metric an adaptive cell is the random method's run,
    and a static cell's graph ignores the phenotype subset."""
    import popgraph.cli as cli_module
    real_run, real_static = cli_module.run_experiment, cli_module.static_gcn_experiment
    calls = {"random": 0, "static": 0}

    def counted_run(dataset, cfg):
        calls[cfg.distance_metric] += 1
        return real_run(dataset, cfg)

    def counted_static(dataset, feature_source, cfg, k, metric):
        assert (feature_source, k, metric) == ("phenotypes", cfg.k, "random")
        calls["static"] += 1
        return real_static(dataset, feature_source, cfg, k=k, metric=metric)

    monkeypatch.setattr(cli_module, "run_experiment", counted_run)
    monkeypatch.setattr(cli_module, "static_gcn_experiment", counted_static)
    payload = experiment_dict(
        tmp_path / "ablate",
        ablation={"phenotype_subsets": ["non-imaging", "imaging"],
                  "distance_metrics": ["random"],
                  "methods": ["adaptive", "static", "random"]})
    assert cmd_ablate(ExperimentConfig.from_dict(payload)) == 0
    assert calls == {"random": 1, "static": 1}

    cells = read_cells(tmp_path / "ablate" / "cells.csv")
    assert len(cells) == 2 * 3
    for method in ("static", "random"):
        rows = [{k: v for k, v in row.items() if k != "subset"} for row in cells
                if row["method"] == method]
        assert len(rows) == 2 and rows[0] == rows[1]
    results = {row["method"]: {k: v for k, v in row.items() if k != "method"}
               for row in cells if row["subset"] == "imaging"}
    assert results["adaptive"] == results["random"]


def test_cmd_ablate_shared_failure_counts_once_per_row(tmp_path, monkeypatch):
    import popgraph.cli as cli_module

    def broken_fit(*args, **kwargs):
        raise RuntimeError("sabotaged fit")

    monkeypatch.setattr(cli_module, "linear_fit", broken_fit)
    payload = experiment_dict(tmp_path / "ablate", ablation=METRIC_FREE_GRID)
    assert cmd_ablate(ExperimentConfig.from_dict(payload)) == 1
    out = tmp_path / "ablate"
    failures = json.loads((out / "aggregate.json").read_text(encoding="utf-8"))["failures"]
    assert sorted(failures) == ["both/cosine/linear/seed_0",
                                "both/hyperbolic/linear/seed_0",
                                "imaging/cosine/linear/seed_0",
                                "imaging/hyperbolic/linear/seed_0"]
    assert all("sabotaged" in err for err in failures.values())
    assert len(read_cells(out / "cells.csv")) + len(failures) == 2 * 2 * 3


def test_cmd_ablate_empty_grid(tmp_path):
    payload = experiment_dict(tmp_path / "ablate",
                              ablation={"phenotype_subsets": ["both"],
                                        "distance_metrics": [],
                                        "methods": ["adaptive"]})
    config = ExperimentConfig.from_dict(payload)
    with pytest.raises(CliError, match="empty"):
        cmd_ablate(config)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def trained_run(tmp_path, **overrides):
    config = ExperimentConfig.from_dict(experiment_dict(tmp_path / "run", **overrides))
    assert cmd_train(config) == 0
    return tmp_path / "run"


def test_cmd_train_draws_the_trained_graph_once(tmp_path, monkeypatch):
    """One seed draws a graph per epoch, one per inference sample (all in one
    pass, one generator each: the children its inference stream spawns), and
    one trained graph that gives both its homophily and its graph files;
    those files match the graph that export draws afresh from the
    checkpoint."""
    import popgraph.trainer as trainer_module
    calls, states = [], []
    draw, draws = trainer_module.gumbel_topk_sample, trainer_module.gumbel_topk_samples

    def counted_draws(log_p, k, rngs):
        calls.append(len(rngs))
        states.extend(rng.bit_generator.state for rng in rngs)
        return draws(log_p, k, rngs)

    monkeypatch.setattr(trainer_module, "gumbel_topk_sample",
                        lambda *args, **kwargs: calls.append(1) or draw(*args, **kwargs))
    monkeypatch.setattr(trainer_module, "gumbel_topk_samples", counted_draws)
    run_dir = trained_run(tmp_path)
    train_block = experiment_dict(tmp_path)["train"]
    samples = train_block["inference_samples"]
    assert calls == [1] * train_block["epochs"] + [samples, 1]
    children = stream_rng(0, INFERENCE_STREAM).spawn(samples)
    assert states == [child.bit_generator.state for child in children]

    cmd_export(run_dir, "graph-learned")
    seed_dir = run_dir / "seed_0"
    for name in ("graph_learned.dot", "graph_learned.json"):
        assert (seed_dir / name).read_bytes() == (seed_dir / "export" / name).read_bytes()


def test_cmd_export_attention(tmp_path):
    run_dir = trained_run(tmp_path)
    export_dir = cmd_export(run_dir, "attention")
    lines = (export_dir / "attention.csv").read_text(encoding="utf-8").splitlines()
    assert lines[1] == "rank,name,kind,weight"
    assert len(lines) == 2 + 8  # comment + header + Q+S rows


def test_cmd_export_graphs_print_homophily(tmp_path, capsys):
    run_dir = trained_run(tmp_path)
    cmd_export(run_dir, "graph-learned")
    cmd_export(run_dir, "graph-static")
    printed = capsys.readouterr().out
    assert "homophily[graph-learned]" in printed
    assert "homophily[graph-static]" in printed
    dot = (run_dir / "seed_0" / "export" / "graph_static.dot").read_text(encoding="utf-8")
    assert dot.startswith("digraph")
    assert dot.count("{") == dot.count("}")


def test_cmd_export_missing_checkpoint(tmp_path):
    run_dir = trained_run(tmp_path)
    with pytest.raises(CliError, match="checkpoint"):
        cmd_export(run_dir, "attention", seed=99)
    with pytest.raises(CliError, match="export target"):
        cmd_export(run_dir, "weights")


def test_cmd_export_random_run_has_no_attention(tmp_path):
    run_dir = trained_run(tmp_path, train={"epochs": 2, "patience": 0, "k": 3,
                                           "gcn_hidden1": 8, "gcn_hidden2": 4,
                                           "inference_samples": 2,
                                           "distance_metric": "random"})
    with pytest.raises(CliError, match="attention"):
        cmd_export(run_dir, "attention")


def test_every_artifact_carries_the_experiment_hash(tmp_path):
    """Each CSV opens with the experiment hash and ends its lines in a bare
    newline; each graph file carries the hash in its own syntax."""
    train = ExperimentConfig.from_dict(experiment_dict(tmp_path / "run"))
    ablate = ExperimentConfig.from_dict(experiment_dict(
        tmp_path / "ablate", ablation={"phenotype_subsets": ["both"],
                                       "distance_metrics": ["euclidean"],
                                       "methods": ["adaptive", "linear"]}))
    assert cmd_train(train) == 0
    assert cmd_ablate(ablate) == 0
    for what in ("attention", "graph-learned", "graph-static"):
        cmd_export(tmp_path / "run", what)

    expected_csvs = (
        (train, {"seed_0/history.csv", "seed_0/attention.csv",
                 "seed_0/export/attention.csv"}),
        (ablate, {"cells.csv", "aggregate.csv"}),
    )
    for config, names in expected_csvs:
        out = Path(config.out_dir)
        found = {p.relative_to(out).as_posix() for p in out.rglob("*.csv")}
        assert found == names
        for name in names:
            data = (out / name).read_bytes()
            assert data.startswith(f"# config_hash={config.experiment_hash}\n".encode())
            assert b"\r" not in data, name

    stamp = train.experiment_hash
    seed_dir = tmp_path / "run" / "seed_0"
    for stem in ("graph_learned", "export/graph_learned", "export/graph_static"):
        graph = json.loads((seed_dir / f"{stem}.json").read_text(encoding="utf-8"))
        assert graph["config_hash"] == stamp
        dot = (seed_dir / f"{stem}.dot").read_text(encoding="utf-8")
        assert dot.endswith(f"}}\n// config_hash={stamp}\n")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def test_main_generate_train_export_cycle(tmp_path, capsys):
    path = write_config(tmp_path, experiment_dict(tmp_path / "cycle"))
    assert main(["generate", "--config", str(path), "--out",
                 str(tmp_path / "data")]) == 0
    assert (tmp_path / "data" / "dataset.csv").exists()

    assert main(["train", "--config", str(path), "--seeds", "0,1",
                 "--workers", "2"]) == 0
    out = tmp_path / "cycle"
    assert (out / "seed_0" / "metrics.json").exists()
    assert (out / "seed_1" / "metrics.json").exists()

    assert main(["export", "--run", str(out), "--what", "graph-learned"]) == 0
    assert "homophily" in capsys.readouterr().out


def test_main_reports_config_errors(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "nope.json")]) == 2
    assert "error:" in capsys.readouterr().err

    bad = write_config(tmp_path, {"task": "nonsense"})
    assert main(["train", "--config", str(bad)]) == 2


@pytest.mark.parametrize("train_key, value", [
    ("k", 0), ("epochs", 0), ("distance_metric", "manhattan"),
    ("gcn_hidden1", 0), ("gcn_hidden2", 0), ("patience", -1), ("n_classes", 1),
    ("inference_samples", 1.5), ("epochs", 3.0), ("k", True), ("learning_rate", "x"),
    ("learning_rate", float("nan")), ("learning_rate", float("inf")),
    ("learning_rate", True), ("learning_rate", None)])
def test_main_rejects_bad_train_block_before_writing(tmp_path, capsys,
                                                      train_key, value):
    """A bad train value fails when the config loads, naming the key, not
    once per seed after the run directory is written. Widths below 1,
    negative patience, fewer than 2 classes and non-integer counts are bad
    values too, not a degenerate model or a TypeError in every seed, and a
    learning rate must be a finite number, not NaN, infinity or a bool."""
    payload = experiment_dict(tmp_path / "run")
    payload["train"][train_key] = value
    path = write_config(tmp_path, payload)
    assert main(["train", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "bad train block" in err and train_key in err
    assert not (tmp_path / "run").exists()


def test_main_field_error_names_the_config_file(tmp_path, capsys):
    """A field error in a config file names that file as well as the field."""
    payload = experiment_dict(tmp_path / "run")
    payload["train"]["k"] = 0
    path = write_config(tmp_path, payload, name="k0.json")
    assert main(["train", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "k0.json" in err and "k must be" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key, value", [
    ("n_subjects", "800"), ("n_subjects", 60.5), ("age_range", [81, "x"]),
    ("noise_std", float("nan")), ("noise_std", -1), ("age_range", 5)],
    ids=["count-string", "count-float", "age-range-string", "noise-nan", "noise-negative",
         "age-range-number"])
def test_main_rejects_bad_synthetic_block_before_writing(tmp_path, capsys, key, value):
    """A bad synthetic value fails when the config loads, naming the field:
    not a TypeError traceback, a non-finite tensor in every seed or numpy's
    ``scale < 0``, and before any run or dataset directory is written."""
    payload = experiment_dict(tmp_path / "run")
    payload["dataset"]["synthetic"][key] = value
    path = write_config(tmp_path, payload)
    for command in ("train", "ablate", "generate"):
        assert main([command, "--config", str(path)]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err, (command, err)
        assert not (tmp_path / "run").exists(), command


@pytest.mark.parametrize("command", ["train", "ablate"])
@pytest.mark.parametrize("broken", ["one_class", "missing_csv", "negative_fraction",
                                    "nonfinite_csv", "bad_kind", "repeated_column",
                                    "label_kind", "no_phenotype"])
def test_main_dataset_failure_leaves_no_run_directory(tmp_path, capsys,
                                                      command, broken):
    payload = experiment_dict(tmp_path / "run")
    if broken == "one_class":
        payload["task"] = "classification"
        payload["train"]["n_classes"] = 1
    elif broken == "missing_csv":
        payload["dataset"].update(source="csv", csv_path=str(tmp_path / "absent.csv"))
    elif broken == "negative_fraction":
        payload["dataset"]["split_fractions"] = [1.2, -0.1, -0.1]
    else:
        # enough rows to split; the one nan cell, the misspelled kind, the
        # repeated header column, the label given a kind or the kind map
        # without a phenotype is the only fault
        rows = [f"{i / 40},{50 + i}" for i in range(40)]
        if broken == "nonfinite_csv":
            rows[7] = "nan,57"
        header = "a,age"
        if broken == "repeated_column":
            header = "a,a,age"
            rows = [f"0.5,{row}" for row in rows]
        csv_path = tmp_path / "pop.csv"
        csv_path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
        kind = {"bad_kind": "imagin", "no_phenotype": "feature"}.get(broken, "non-imaging")
        kinds = {"a": kind, "age": "imaging"} if broken == "label_kind" else {"a": kind}
        payload["dataset"].update(source="csv", csv_path=str(csv_path), kinds=kinds)
    path = write_config(tmp_path, payload)
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    cause = {"negative_fraction": "val fraction -0.1", "nonfinite_csv": "row 9, column 'a'",
             "bad_kind": "column 'a' unknown kind 'imagin'",
             "repeated_column": "pop.csv: header repeats column 'a'",
             "label_kind": "pop.csv: kind map gives the label column 'age' a kind",
             "no_phenotype": "pop.csv: kind map names no non-imaging or imaging column"}
    assert cause.get(broken, "") in err
    assert not (tmp_path / "run").exists()


def _tensors(edit):
    """A checkpoint edit that applies ``edit`` to its ``tensors`` object."""
    return lambda run: edit(run["tensors"])


def _drop_attention(tensors):
    for name in [n for n in tensors if n.startswith("attention.")]:
        del tensors[name]


def _narrow_attention(tensors, p=5):
    """Replace the scorer with one of p inputs: the test run has 8 phenotypes."""
    for name, shape in (("w1", [p, 2 * p]), ("b1", [2 * p]), ("w2", [2 * p, p]), ("b2", [p])):
        tensors[f"attention.{name}"] = {"shape": shape,
                                        "values": [0.1] * int(np.prod(shape))}


@pytest.mark.parametrize("edit, named", [
    (_tensors(lambda t: t.pop("gcn.b3")), "gcn.b3 missing"),
    (_tensors(lambda t: t.update({"gcn.extra": t["gcn.b3"]})), "gcn.extra unknown"),
    (_tensors(lambda t: t["gcn.w2"].update(shape=[4, 8])),
     "gcn.w2 shape [4, 8], expected [8, 4]"),
    (_tensors(lambda t: t["gcn.b2"]["values"].pop()), "gcn.b2 must hold 4 finite values"),
    (lambda run: run["config"].update(gcn_hidden2=5), "gcn.w2 shape [8, 4], expected [8, 5]"),
    (_tensors(lambda t: t.pop("attention.w1")), "attention.w1 missing"),
    (_tensors(lambda t: t["attention.b1"].update(shape=[15])),
     "attention.b1 shape [15], expected [16]"),
    (_tensors(_drop_attention), "attention.w1 missing"),
    (_tensors(lambda t: t.update(log_temperature=None)),
     "log_temperature shape None, expected []"),
    (_tensors(lambda t: t["log_temperature"].update(values=[float("nan")])),
     "log_temperature must hold 1 finite values"),
    (lambda run: run.update(tensors=5), "gcn.w1 missing"),
    (_tensors(lambda t: t.update({"gcn.w1": 5})), "gcn.w1 shape None, expected [6, 8]"),
    (_tensors(lambda t: t["gcn.w1"].pop("shape")), "gcn.w1 shape None, expected [6, 8]"),
    (_tensors(lambda t: t["gcn.w1"]["values"].__setitem__(3, float("nan"))),
     "gcn.w1 must hold 48 finite values"),
    (_tensors(lambda t: t["gcn.w1"].update(shape=[7, 8], values=[0.1] * 56)),
     "gcn.w1 shape [7, 8], expected [6, 8]"),
    (_tensors(_narrow_attention), "attention.w1 shape [5, 10], expected [8, 16]"),
    (_tensors(lambda t: t["gcn.b3"].update(values=["0.5"])),
     "gcn.b3 must hold 1 finite values"),
    (lambda run: run.update(fixed_edges=[[0, 99999]]),
     "fixed_edges must be [src, dst] pairs of distinct nodes below 40"),
    (lambda run: run.update(fixed_edges=[[0, 0]]),
     "fixed_edges must be [src, dst] pairs of distinct nodes below 40"),
    (lambda run: run.update(fixed_edges=[[0, 1.0]]),
     "fixed_edges must be [src, dst] pairs of distinct nodes below 40"),
    (lambda run: run.update(fixed_edges=[[0, 1]]), "attention.b1 unknown"),
    (lambda run: run.update(epsilon="oops"), "epsilon 'oops' must be a finite number"),
    (lambda run: run.update(best_epoch="x"), "best_epoch 'x' must be a non-negative integer"),
    (lambda run: run.update(best_val=None), "best_val None must be a finite number"),
], ids=["missing", "unknown", "shape", "values", "config-width", "attention-missing",
        "attention-shape", "attention-null", "temperature-null", "temperature-nan",
        "tensors-not-object", "entry-not-object", "entry-without-shape", "nan-value",
        "wider-features", "narrower-attention", "string-value", "edge-off-population",
        "self-edge", "float-node", "edges-on-adaptive-run", "epsilon-string",
        "best-epoch-string", "best-val-null"])
def test_main_export_rejects_checkpoint_entries_off_the_config(tmp_path, capsys,
                                                                edit, named):
    """Every tensor is read against the layout the run's config and dataset
    call for, and fixed edges against the population: a damaged entry exits
    2 naming the file and the entry, before anything is exported."""
    run_dir = trained_run(tmp_path)
    path = run_dir / "seed_0" / "checkpoint.json"
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert main(["export", "--run", str(run_dir), "--what", "attention"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err and str(path) in err
    assert not (run_dir / "seed_0" / "export").exists()


def _truncate(path):
    text = path.read_text(encoding="utf-8")
    path.write_text(text[:len(text) // 2], encoding="utf-8")


def _rewriting(edit):
    """A damage that replaces a JSON file's payload with ``edit(payload)``."""
    def damage(path):
        payload = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps(edit(payload)), encoding="utf-8")
    return damage


def _with_config(**changes):
    return _rewriting(lambda run: {**run, "config": {**run["config"], **changes}})


def _with_experiment(edit):
    """A run ``config.json`` damage that replaces its experiment block."""
    return _rewriting(lambda run: {**run, "experiment": edit(run["experiment"])})


CHECKPOINT = "seed_0/checkpoint.json"


@pytest.mark.parametrize("where, damage, named", [
    (CHECKPOINT, _rewriting(lambda run: {"format_version": RUN_FORMAT_VERSION}),
     "missing key 'config'"),
    (CHECKPOINT, _rewriting(lambda run: [run]), "must hold a JSON object"),
    (CHECKPOINT, _truncate, "not valid JSON"),
    ("config.json", _truncate, "not valid JSON"),
    (CHECKPOINT, _with_config(lam=1.0), "unexpected keyword argument 'lam'"),
    (CHECKPOINT, _with_config(k=0), "k must be at least 1"),
    ("config.json", _with_experiment(lambda e: {**e, "train": {**e["train"], "k": 0}}),
     "k must be at least 1"),
    ("config.json", _with_experiment(lambda e: {**e, "extra": 1}),
     "unknown config keys: ['extra']"),
], ids=["no-config", "not-object", "truncated-checkpoint", "truncated-config",
        "unknown-config-key", "bad-config-value", "run-config-bad-value",
        "run-config-unknown-key"])
def test_main_export_names_a_damaged_run_file(tmp_path, capsys, where, damage, named):
    run_dir = trained_run(tmp_path)
    damage(run_dir / where)
    assert main(["export", "--run", str(run_dir), "--what", "graph-learned"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert str(run_dir / where) in err


@pytest.mark.parametrize("payload", [{"config_hash": "0"}, []])
def test_main_export_rejects_config_without_experiment(tmp_path, capsys, payload):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "config.json").write_text(json.dumps(payload), encoding="utf-8")
    assert main(["export", "--run", str(run_dir), "--what", "attention"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "config.json" in err


def test_main_seed_override_rejects_garbage(tmp_path, capsys):
    path = write_config(tmp_path, experiment_dict(tmp_path / "run"))
    assert main(["train", "--config", str(path), "--seeds", "zero"]) == 2
    assert "seeds" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--workers", "0"), ("--seeds", ""), ("--out", "")])
def test_main_rejects_falsy_overrides(tmp_path, capsys, flag, value):
    """A falsy override is still an override: it must be checked, not
    silently replaced by the config's value."""
    path = write_config(tmp_path, experiment_dict(tmp_path / "run"))
    assert main(["train", "--config", str(path), flag, value]) == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_main_rejects_duplicate_seed_override(tmp_path, capsys):
    """The config file's duplicate-seed check holds for --seeds too: two
    runs of one seed would write the same seed directory."""
    path = write_config(tmp_path, experiment_dict(tmp_path / "run"))
    assert main(["train", "--config", str(path), "--seeds", "0,0", "--workers", "2"]) == 2
    assert "duplicate seeds" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
