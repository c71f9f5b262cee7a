"""End-to-end training: joint optimization of the phenotype scorer, the GCN,
and the kernel temperature, with one graph draw per epoch, early stopping
on validation, stochastic-inference averaging, and evaluation metrics.

A run's graph is its fixed edges, uniform random edges (``distance_metric=
"random"``) or a Gumbel-Top-k draw over weighted phenotypes. ``_draw_graph``
alone decides which; every training, inference and homophily draw goes
through it, with one generator per graph. Training and homophily ask it
for one graph, inference for all of its ``inference_samples`` graphs at
once, one from each child spawned off the inference stream, which a sampled
run draws in one pass over the kernel. An epoch's validation metric is read
off its training forward.

One call to train() owns one RNG stream (seeded from the config), so two runs
with the same config produce bit-identical histories.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, asdict

import numpy as np

from . import numerics as nm
from .attention import AttentionMlp, aggregate_attention, attention_forward, weight_phenotypes
from .dataio import (PopulationDataset, _finite_number, check_fields, config_hash,
                     read_json, spec, write_csv, write_json)
from .gcn import (
    GcnModel,
    cross_entropy_loss,
    gcn_forward,
    graph_loss,
    huber_loss,
    null_epsilon,
    reward,
    total_loss,
)
from .graphgen import (
    BLOCK_METRICS,
    SampledGraph,
    edge_probabilities,
    gumbel_topk_sample,
    gumbel_topk_samples,
    homophily_score,
    pairwise_distance,
    random_graph,
)
from .numerics import Tensor

__all__ = [
    "TASKS",
    "DISTANCE_METRICS",
    "TrainConfig",
    "TrainResult",
    "TrainingError",
    "MetricsRecord",
    "METRIC_FIELDS",
    "AdamW",
    "train",
    "infer",
    "InferenceResult",
    "attention_weights",
    "stream_rng",
    "sample_trained_edges",
    "evaluate_regression",
    "evaluate_classification",
    "run_experiment",
    "score_test_split",
    "save_history_csv",
    "save_metrics_json",
    "save_run",
    "load_run",
]

RUN_FORMAT_VERSION = 3

TASKS = ("regression", "classification")

# a run's graph: a Gumbel-Top-k draw under a block distance, or uniform edges
DISTANCE_METRICS = (*BLOCK_METRICS, "random")

# tags of the random streams a run derives from its master seed (stream_rng)
INFERENCE_STREAM = 0x5EED0001
HOMOPHILY_STREAM = 0x5EED0002
STATIC_RANDOM_STREAM = 0x5EED0003  # the edges of baselines' static random graph

# log of the kernel temperature t at the first epoch. At t = 1 the kernel over
# hundreds of candidates is nearly flat and a draw is little better than random
# edges; Adam moves log t by about one learning rate per step, so the start has
# to be sharp already.
INITIAL_LOG_TEMPERATURE = float(np.log(10.0))

# momentum of the per-node running mean of rewards that baselines the edge
# objective
REWARD_BASELINE_MOMENTUM = 0.95

# AdamW's moment decay rates, denominator guard and decoupled weight decay,
# the defaults of Loshchilov & Hutter (arXiv:1711.05101)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS, WEIGHT_DECAY = 0.9, 0.999, 1e-8, 0.01


class TrainingError(RuntimeError):
    """Training aborted; carries the failing epoch and last loss breakdown."""

    def __init__(self, message, epoch=None, breakdown=None):
        super().__init__(message)
        self.epoch = epoch
        self.breakdown = breakdown


@dataclass
class TrainConfig:
    task: str = spec(str, "regression", choices=TASKS)
    learning_rate: float = spec(float, 0.005)
    epochs: int = spec(int, 300, least=1)
    patience: int = spec(int, 30, least=0)  # 0 disables early stopping
    k: int = spec(int, 5, least=1)
    distance_metric: str = spec(str, "euclidean", choices=DISTANCE_METRICS)
    inference_samples: int = spec(int, 8, least=1)
    seed: int = spec(int, 0, least=0)
    n_classes: int = spec(int, 4, least=2)
    gcn_hidden1: int = spec(int, 512, least=1)
    gcn_hidden2: int = spec(int, 128, least=1)
    attention_mode: str = spec(str, "learned", choices=("learned", "ones"))

    def __post_init__(self) -> None:
        check_fields(self)
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be above 0, got {self.learning_rate!r}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrainResult:
    model: GcnModel
    attention: AttentionMlp | None
    tau: Tensor | None
    attention_vector: np.ndarray | None
    history: list
    best_epoch: int
    best_val: float
    epsilon: float
    config: TrainConfig
    fixed_edges: np.ndarray | None = None
    # the graph a fixed run draws every time, built on its first draw
    _fixed_graph: SampledGraph | None = field(default=None, init=False, repr=False,
                                              compare=False)
    # the edges of the trained-graph draw, kept from sample_trained_edges' first call
    _trained_edges: np.ndarray | None = field(default=None, init=False, repr=False,
                                              compare=False)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


class AdamW:
    """Decoupled-weight-decay Adam over a fixed parameter list, with the
    ``ADAM_*`` and ``WEIGHT_DECAY`` constants. Holds the first and second
    moments; decay applies uniformly to every parameter it manages."""

    def __init__(self, params, lr: float):
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self._m = [np.zeros_like(p.values) for p in self.params]
        self._v = [np.zeros_like(p.values) for p in self.params]

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        """One update; ``t`` counts steps from 1."""
        self.t += 1
        lr = self.lr
        for i, p in enumerate(self.params):
            grad = p.grad
            m = self._m[i] = ADAM_BETA1 * self._m[i] + (1.0 - ADAM_BETA1) * grad
            v = self._v[i] = ADAM_BETA2 * self._v[i] + (1.0 - ADAM_BETA2) * grad * grad
            m_hat = m / (1.0 - ADAM_BETA1 ** self.t)
            v_hat = v / (1.0 - ADAM_BETA2 ** self.t)
            p.values = (p.values * (1.0 - lr * WEIGHT_DECAY)
                        - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS))


# ---------------------------------------------------------------------------
# graph construction shared by training and inference
# ---------------------------------------------------------------------------


def stream_rng(seed: int, stream: int) -> np.random.Generator:
    """The generator of one random stream derived from a run's master seed.

    Seeding with the pair [seed, stream] keeps each derived stream apart
    from the others and from every master-seed stream default_rng(s) with s
    below 2**32 (numpy splits a larger s into 32-bit words, so s = seed +
    stream * 2**32 would replay it).
    """
    return np.random.default_rng([seed, stream])


def attention_weights(mlp: AttentionMlp, phenotypes) -> np.ndarray:
    """The scorer's aggregated attention vector over ``phenotypes``, one
    weight per column, computed without recording on the tape."""
    with nm.no_grad():
        return aggregate_attention(attention_forward(phenotypes, mlp)).values


def _draw_graph(result: TrainResult, phenotypes: np.ndarray, rngs) -> list[SampledGraph]:
    """One draw of the graph a run trains and predicts on from each generator
    of ``rngs``, as a list of ``SampledGraph``.

    A fixed run's draw is the same graph every time, built on the first draw,
    so its A_hat is symmetrized once per run, and it gives one graph however
    many generators it gets. Under ``distance_metric="random"`` each graph
    gives every node k fresh uniform out-edges, one ``random_graph`` call per
    generator. Any other run takes Gumbel-Top-k draws over phenotypes
    weighted by the attention vector (or by ones), all in one pass over one
    kernel: one draw through ``gumbel_topk_sample``, more through
    ``gumbel_topk_samples``, draw s from ``rngs[s]``. Only the training draw
    runs with gradients on, so only it is scored: its ``log_probs`` are
    first-pick log-probabilities (see ``gumbel_topk_sample``). Inference,
    homophily and export draws run under ``no_grad``, select edges and score
    none.
    """
    config = result.config
    n = phenotypes.shape[0]
    if result.fixed_edges is not None:
        if result._fixed_graph is None:
            result._fixed_graph = SampledGraph(result.fixed_edges, None, n)
        return [result._fixed_graph]
    if config.distance_metric == "random":
        return [SampledGraph(random_graph(n, config.k, rng), None, n) for rng in rngs]
    if config.attention_mode == "ones":
        a = Tensor(np.ones(phenotypes.shape[1]))
    else:
        a = aggregate_attention(attention_forward(phenotypes, result.attention))
    d = pairwise_distance(weight_phenotypes(a, Tensor(phenotypes)), config.distance_metric)
    scores = edge_probabilities(d, nm.exp(result.tau))
    if len(rngs) == 1:
        # one draw, the training draw among them, goes through the entry
        # point that perfbench and bench/scale.py time and check as the sampler
        return [gumbel_topk_sample(scores, config.k, rng=rngs[0])]
    return gumbel_topk_samples(scores, config.k, rngs)


def _targets(dataset: PopulationDataset, task: str):
    if task == "classification":
        if dataset.class_labels is None:
            raise ValueError("classification training needs class labels; "
                             "bin the dataset first")
        return dataset.class_labels
    return dataset.y


def _predicted(preds_values, task: str):
    if task == "classification":
        return preds_values.argmax(axis=1)
    return preds_values


def _val_metric(preds_values, targets, mask, task: str) -> float:
    if task == "classification":
        return float(np.mean(preds_values.argmax(axis=1)[mask] == targets[mask]))
    return float(np.mean(np.abs(preds_values[mask] - targets[mask])))


def _improved(candidate: float, best: float, task: str) -> bool:
    return candidate > best if task == "classification" else candidate < best


def _init_params(dataset: PopulationDataset, config: TrainConfig, fixed_edges,
                 rng: np.random.Generator, head_bias: float = 0.0):
    """A run's trained tensors, drawn from ``rng``: (GCN, attention scorer or
    None, log temperature or None). Only a sampled graph has a temperature,
    and only learned attention a scorer. The scorer is drawn before the GCN,
    so its starting values do not depend on the GCN widths."""
    mlp = tau = None
    if fixed_edges is None and config.distance_metric != "random":
        if config.attention_mode == "learned":
            mlp = AttentionMlp.init(dataset.n_phenotypes, rng)
        tau = Tensor(INITIAL_LOG_TEMPERATURE, requires_grad=True)
    model = GcnModel.init(
        dataset.X.shape[1], rng, hidden1=config.gcn_hidden1, hidden2=config.gcn_hidden2,
        n_out=config.n_classes if config.task == "classification" else 1,
        head_bias=head_bias)
    return model, mlp, tau


def _named_tensors(model: GcnModel, mlp: AttentionMlp | None, tau: Tensor | None) -> dict:
    """Each trained tensor by its checkpoint name, in optimizer order:
    ``gcn.w1`` ... ``gcn.b3``, ``attention.w1`` ... ``attention.b2``,
    ``log_temperature``."""
    named = {f"{prefix}.{name}": p for prefix, part in (("gcn", model), ("attention", mlp))
             if part is not None for name, p in vars(part).items() if isinstance(p, Tensor)}
    return named if tau is None else {**named, "log_temperature": tau}


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


def train(dataset: PopulationDataset, config: TrainConfig,
          fixed_edges: np.ndarray | None = None) -> TrainResult:
    """Optimize scorer, predictor, and temperature jointly.

    Per epoch: resample the graph, run the predictor, combine the supervised
    loss (train nodes) with the reward-weighted edge loss (train-sourced
    edges), and take one AdamW step. The edge loss scores each sampled edge
    by its first-pick log-probability (see ``gumbel_topk_sample``) and
    weights it by its source node's reward less that node's running mean
    reward (momentum ``REWARD_BASELINE_MOMENTUM``, started from the first
    epoch's rewards, so the first epoch's edge loss is zero). The
    temperature starts at exp(``INITIAL_LOG_TEMPERATURE``) = 10. The
    validation metric is read off the same forward, before the step, so a
    history row's losses and ``val_metric`` share one set of parameters. The
    best epoch's parameters (from before its step) are restored at the end
    unless patience is 0, in which case the final step's parameters stand;
    an early stop ends the run before stepping.

    ``fixed_edges`` freezes the graph to a precomputed edge set: no sampling,
    no edge loss, identical wiring otherwise (the static-graph baseline).
    """
    masks = dataset.require_masks()
    targets = _targets(dataset, config.task)
    train_mask, val_mask = masks.train, masks.val
    rng = np.random.default_rng(config.seed)
    phenotypes = dataset.phenotype_matrix()
    head_bias = float(targets[train_mask].mean()) if config.task == "regression" else 0.0
    model, mlp, tau = _init_params(dataset, config, fixed_edges, rng, head_bias)
    epsilon = null_epsilon(targets[train_mask], task=config.task,
                           n_classes=config.n_classes)
    optimizer = AdamW(_named_tensors(model, mlp, tau).values(), lr=config.learning_rate)
    result = TrainResult(
        model=model, attention=mlp, tau=tau, attention_vector=None, history=[],
        best_epoch=-1, best_val=np.inf if config.task == "regression" else -np.inf,
        epsilon=epsilon, config=config, fixed_edges=fixed_edges)

    best_snapshot = None
    stale = 0
    breakdown = None
    reward_baseline = None

    for epoch in range(config.epochs):
        try:
            nm.reset_tape()
            optimizer.zero_grad()
            graph = _draw_graph(result, phenotypes, [rng])[0]
            preds = gcn_forward(graph.a_hat, dataset.X, model)
            val_metric = _val_metric(preds.values, targets, val_mask, config.task)
            if config.task == "regression":
                l_gcn = huber_loss(preds, targets, train_mask)
            else:
                l_gcn = cross_entropy_loss(preds, targets, train_mask)

            if graph.log_probs is not None:
                rho = reward(targets, _predicted(preds.values, config.task),
                             epsilon, config.task)
                if reward_baseline is None:
                    reward_baseline = rho.copy()
                l_graph = graph_loss(graph, rho - reward_baseline, train_mask)
                reward_baseline = (REWARD_BASELINE_MOMENTUM * reward_baseline
                                   + (1.0 - REWARD_BASELINE_MOMENTUM) * rho)
                breakdown = total_loss(l_gcn, l_graph, rewards=rho[train_mask])
            else:
                breakdown = total_loss(l_gcn, Tensor(0.0))
        except nm.NonFiniteError as exc:
            raise TrainingError(f"training aborted at epoch {epoch}: {exc}",
                                epoch=epoch, breakdown=breakdown) from exc

        result.history.append({
            "epoch": epoch,
            "L_total": breakdown.total_value,
            "L_gcn": breakdown.l_gcn,
            "L_graph": breakdown.l_graph,
            "val_metric": val_metric,
        })

        if _improved(val_metric, result.best_val, config.task):
            result.best_val = val_metric
            result.best_epoch = epoch
            best_snapshot = [p.values.copy() for p in optimizer.params]
            stale = 0
        else:
            stale += 1
            if config.patience > 0 and stale > config.patience:
                break

        nm.backward(breakdown.total)
        optimizer.step()

    if config.patience > 0 and best_snapshot is not None:
        for p, saved in zip(optimizer.params, best_snapshot):
            p.values = saved
    else:
        result.best_epoch = result.history[-1]["epoch"]
        result.best_val = result.history[-1]["val_metric"]
    if mlp is not None:
        result.attention_vector = attention_weights(mlp, phenotypes)
    return result


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------


@dataclass
class InferenceResult:
    predictions: np.ndarray               # (N,) ages or class indices
    probabilities: np.ndarray | None = None  # (N, C) for classification


def infer(result: TrainResult, dataset: PopulationDataset) -> InferenceResult:
    """Average predictions over the run's ``inference_samples`` graphs, draw
    s from child s that its ``INFERENCE_STREAM`` spawns, so every call for a
    run predicts the same.

    A sampled graph's draws come from one ``_draw_graph`` call, so one pass
    over the kernel draws them all. The forwards are summed in draw order.
    Regression averages raw outputs; classification averages per-class
    probabilities and then takes the argmax. A fixed graph is one draw, so it
    gets one forward whatever ``inference_samples`` says.
    """
    config = result.config
    phenotypes = dataset.phenotype_matrix()
    rngs = stream_rng(config.seed, INFERENCE_STREAM).spawn(config.inference_samples)
    acc = None
    with nm.no_grad():
        graphs = _draw_graph(result, phenotypes, rngs)
        for graph in graphs:
            out = gcn_forward(graph.a_hat, dataset.X, result.model).values
            if config.task == "classification":
                out = np.exp(nm.log_softmax_rows(out))
            acc = out if acc is None else acc + out
    mean = acc / len(graphs)
    if config.task == "classification":
        return InferenceResult(predictions=mean.argmax(axis=1), probabilities=mean)
    return InferenceResult(predictions=mean)


def sample_trained_edges(result: TrainResult, dataset: PopulationDataset):
    """One graph draw at the trained parameters (for homophily measurement
    and export), from the run's ``HOMOPHILY_STREAM``. The first call draws
    it and ``result`` keeps its edges, so every later call returns them."""
    if result._trained_edges is None:
        rng = stream_rng(result.config.seed, HOMOPHILY_STREAM)
        with nm.no_grad():
            result._trained_edges = _draw_graph(result, dataset.phenotype_matrix(),
                                                [rng])[0].edges
    return result._trained_edges


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate_regression(pred, y, mask) -> dict:
    """MAE and Pearson r over the masked nodes. r is None (undefined), not 0,
    when either side has zero variance or the mask holds a single node, and
    is clipped to [-1, 1], which rounding can pass by an ULP."""
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("evaluate_regression: empty mask")
    p = np.asarray(pred, dtype=float)[mask]
    t = np.asarray(y, dtype=float)[mask]
    mae = float(np.mean(np.abs(p - t)))
    r = None
    if p.size >= 2:
        sp = p - p.mean()
        st = t - t.mean()
        denom = np.sqrt(np.sum(sp * sp) * np.sum(st * st))
        if denom > 0.0:
            r = float(np.clip(np.sum(sp * st) / denom, -1.0, 1.0))
    return {"mae": mae, "pearson_r": r}


def _auc_one_vs_rest(scores: np.ndarray, positive: np.ndarray) -> float:
    """Mann-Whitney AUC: the share of (positive, negative) pairs whose
    positive scores higher, a tie counting one half."""
    negatives = np.sort(scores[~positive])
    pos = scores[positive]
    below = np.searchsorted(negatives, pos, "left")
    not_above = np.searchsorted(negatives, pos, "right")
    # a win adds 2 and a tie 1 to below + not_above, so the sum is 2U
    return float((below + not_above).sum()) / (2.0 * pos.size * negatives.size)


def evaluate_classification(probabilities, classes, mask) -> dict:
    """Accuracy, macro one-vs-rest AUC, and macro F1 over masked nodes.

    A class absent from the mask is skipped in the AUC average (with a
    warning) but still drags the F1 average down as a zero, so both follow
    their usual conventions. The AUC is None (undefined) when no class in
    the mask has both positives and negatives.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("evaluate_classification: empty mask")
    probs = np.asarray(probabilities, dtype=float)[mask]
    truth = np.asarray(classes, dtype=np.intp)[mask]
    row_sums = probs.sum(axis=1)
    if not np.all(np.abs(row_sums - 1.0) <= 1e-6):  # a NaN row fails too
        raise ValueError("probability rows must be finite and sum to 1")
    n_classes = probs.shape[1]
    predicted = probs.argmax(axis=1)

    accuracy = float(np.mean(predicted == truth))

    aucs = []
    for c in range(n_classes):
        positive = truth == c
        if positive.all() or not positive.any():
            warnings.warn(f"class {c} absent from mask; skipped in macro-AUC",
                          stacklevel=2)
            continue
        aucs.append(_auc_one_vs_rest(probs[:, c], positive))
    macro_auc = float(np.mean(aucs)) if aucs else None

    f1_total = 0.0
    for c in range(n_classes):
        tp = float(np.sum((predicted == c) & (truth == c)))
        fp = float(np.sum((predicted == c) & (truth != c)))
        fn = float(np.sum((predicted != c) & (truth == c)))
        if 2 * tp + fp + fn > 0:
            f1_total += 2 * tp / (2 * tp + fp + fn)
    macro_f1 = f1_total / n_classes

    return {"accuracy": accuracy, "macro_auc": macro_auc, "macro_f1": macro_f1}


# ---------------------------------------------------------------------------
# records and exports
# ---------------------------------------------------------------------------


# the score fields of a MetricsRecord: what evaluate_regression and
# evaluate_classification return, then the trained graph's homophily
METRIC_FIELDS = ("mae", "pearson_r", "accuracy", "macro_auc", "macro_f1", "homophily")


@dataclass
class MetricsRecord:
    """Everything one run reports, all of it a pure function of (dataset,
    config), so identical configs yield byte-identical files."""

    task: str
    seed: int
    config_hash: str
    mae: float | None = None
    pearson_r: float | None = None
    accuracy: float | None = None
    macro_auc: float | None = None
    macro_f1: float | None = None
    homophily: float | None = None
    best_epoch: int | None = None
    epsilon: float | None = None
    extra: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.mae is not None and self.mae < 0:
            raise ValueError("MAE must be nonnegative")
        if self.pearson_r is not None and not -1.0 <= self.pearson_r <= 1.0:
            raise ValueError("Pearson r out of range")
        for name in ("accuracy", "macro_auc", "macro_f1"):
            v = getattr(self, name)
            if v is not None and not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} out of [0, 1]")

    def to_json_dict(self) -> dict:
        return asdict(self)


def score_test_split(record: MetricsRecord, out: InferenceResult,
                     dataset: PopulationDataset) -> None:
    """Score ``out`` on the test split: MAE and Pearson r for a regression
    record, accuracy, macro-AUC and macro-F1 for a classification one."""
    test = dataset.require_masks().test
    if record.task == "regression":
        scores = evaluate_regression(out.predictions, dataset.y, test)
    else:
        scores = evaluate_classification(out.probabilities, dataset.class_labels, test)
    for name, value in scores.items():
        setattr(record, name, value)


def run_experiment(dataset: PopulationDataset, config: TrainConfig,
                   fixed_edges: np.ndarray | None = None):
    """Train, run averaged inference, and score the test split.

    This is the one evaluation path every experiment goes through, adaptive
    or static, so results stay comparable. Sub-streams for inference and the
    homophily sample are derived from the config seed, making the whole
    record a pure function of (dataset, config). Returns
    (TrainResult, MetricsRecord). A last step that diverged (no forward
    sees it before inference) is a TrainingError at the last epoch.
    """
    result = train(dataset, config, fixed_edges=fixed_edges)
    try:
        out = infer(result, dataset)
    except nm.NonFiniteError as exc:
        epoch = result.history[-1]["epoch"]
        raise TrainingError(f"training aborted at epoch {epoch}: inference at the "
                            f"trained parameters failed: {exc}", epoch=epoch) from exc

    record = MetricsRecord(task=config.task, seed=config.seed,
                           config_hash=config_hash(config.to_dict()),
                           best_epoch=result.best_epoch, epsilon=result.epsilon)
    score_test_split(record, out, dataset)
    record.homophily = homophily_score(sample_trained_edges(result, dataset),
                                       _targets(dataset, config.task), mode=config.task)
    record.extra["n_epochs_run"] = len(result.history)
    record.validate()
    return result, record


def save_history_csv(history: list, path, stamp: str) -> None:
    write_csv(path, stamp, list(history[0]),
              [[repr(value) for value in row.values()] for row in history])


def save_metrics_json(record: MetricsRecord, path) -> None:
    record.validate()
    write_json(path, record.to_json_dict())


def save_run(result: TrainResult, path) -> None:
    """Checkpoint a whole trained run: its config, each trained tensor by
    name (``_named_tensors``) as {shape, values}, and the frozen edge list
    if there was one."""
    payload = {
        "format_version": RUN_FORMAT_VERSION,
        "config": result.config.to_dict(),
        "config_hash": config_hash(result.config.to_dict()),
        "epsilon": result.epsilon,
        "best_epoch": result.best_epoch,
        "best_val": result.best_val,
        "tensors": {name: {"shape": list(p.shape), "values": p.values.reshape(-1).tolist()}
                    for name, p in _named_tensors(result.model, result.attention,
                                                  result.tau).items()},
        "fixed_edges": None if result.fixed_edges is None
        else result.fixed_edges.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def load_run(path, dataset: PopulationDataset) -> TrainResult:
    """Rebuild a TrainResult from a checkpoint, read against ``dataset``: the
    tensors its config and fixed edges call for are built as ``train`` builds
    them (``_init_params``) and take the stored values. A name missing or
    unknown, a shape off the built one (``gcn.w2 shape [8, 4], expected [8,
    5]``), values that are not that many finite numbers, fixed edges that are
    not [src, dst] pairs of distinct nodes, an ``epsilon`` or ``best_val``
    that is not a finite number or a ``best_epoch`` that is not a
    non-negative integer is a ValueError naming the file and the entry. The
    history is not stored (it lives in the history CSV)."""
    where = f"run checkpoint {path}"
    payload = read_json(path)
    if not isinstance(payload, dict):
        raise ValueError(f"{where} must hold a JSON object")
    version = payload.get("format_version")
    if version != RUN_FORMAT_VERSION:
        raise ValueError(f"{where}: unsupported format version {version!r}")
    for key in ("config", "epsilon", "best_epoch", "best_val", "tensors", "fixed_edges"):
        if key not in payload:
            raise ValueError(f"{where}: missing key {key!r}")
    for key, kind, ok in (("epsilon", "a finite number", _finite_number),
                          ("best_val", "a finite number", _finite_number),
                          ("best_epoch", "a non-negative integer",
                           lambda v: type(v) is int and v >= 0)):
        if not ok(payload[key]):
            raise ValueError(f"{where}: {key} {payload[key]!r} must be {kind}")
    try:
        config = TrainConfig(**payload["config"])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: bad config: {exc}") from exc
    fixed_edges, n = payload["fixed_edges"], dataset.n_subjects
    if fixed_edges is not None:
        if not (isinstance(fixed_edges, list) and all(
                isinstance(e, list) and len(e) == 2 and e[0] != e[1]
                and all(type(v) is int and 0 <= v < n for v in e) for e in fixed_edges)):
            raise ValueError(f"{where}: fixed_edges must be [src, dst] pairs of "
                             f"distinct nodes below {n}")
        fixed_edges = np.array(fixed_edges, dtype=np.intp).reshape(-1, 2)
    model, mlp, tau = _init_params(dataset, config, fixed_edges, np.random.default_rng(0))
    named = _named_tensors(model, mlp, tau)
    stored = payload["tensors"] if isinstance(payload["tensors"], dict) else {}
    for name in [*named, *stored]:
        if (name in named) != (name in stored):
            raise ValueError(f"{where}: {name} {'unknown' if name in stored else 'missing'}")
    for name, p in named.items():
        entry = stored[name] if isinstance(stored[name], dict) else {}
        if entry.get("shape") != list(p.shape):
            raise ValueError(f"{where}: {name} shape {entry.get('shape')}, "
                             f"expected {list(p.shape)}")
        values = entry.get("values")
        if not (isinstance(values, list) and len(values) == p.values.size
                and all(map(_finite_number, values))):
            raise ValueError(f"{where}: {name} must hold {p.values.size} finite values")
        p.values = np.array(values, dtype=np.float64).reshape(p.shape)
    return TrainResult(
        model=model, attention=mlp, tau=tau, attention_vector=None if mlp is None
        else attention_weights(mlp, dataset.phenotype_matrix()),
        history=[], best_epoch=payload["best_epoch"], best_val=payload["best_val"],
        epsilon=payload["epsilon"], config=config, fixed_edges=fixed_edges)
