"""Population datasets: synthetic generation, CSV ingestion, normalization,
splits, and class binning.

A dataset couples a node-feature matrix X (one row per subject) with a set of
phenotype columns. Non-imaging phenotypes live in their own matrix; imaging
phenotypes ARE columns of X, referenced by index, so the containment holds by
construction rather than by convention.

Synthetic data plants known-relevant columns (monotone transforms of age) so
that feature-selection quality can be scored against ground truth.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field, fields, asdict
from pathlib import Path

import numpy as np

__all__ = [
    "KIND_NONIMAGING",
    "KIND_IMAGING",
    "KIND_FEATURE",
    "SplitMasks",
    "SyntheticConfig",
    "CsvSchema",
    "PopulationDataset",
    "spec",
    "check_fields",
    "config_hash",
    "read_json",
    "write_json",
    "write_csv",
    "generate_synthetic",
    "load_csv",
    "save_csv",
    "csv_schema_for",
    "normalize_minmax",
    "split",
    "make_class_labels",
]

KIND_NONIMAGING = "non-imaging"
KIND_IMAGING = "imaging"
KIND_FEATURE = "feature"  # node-feature-only column, not a phenotype
COLUMN_KINDS = (KIND_NONIMAGING, KIND_IMAGING, KIND_FEATURE)


def config_hash(mapping) -> str:
    """sha256 of the canonical JSON form of a config mapping."""
    canonical = json.dumps(mapping, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def read_json(path):
    """The JSON value held in ``path``; invalid JSON is a ValueError naming it."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path} is not valid JSON: {exc}") from exc


def write_json(path, payload) -> None:
    """Write ``payload`` as indented, key-sorted JSON with a final newline.
    A NaN or infinity, which JSON cannot hold, is a ValueError."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def write_csv(path, stamp: str, header, rows) -> None:
    """Write a ``# config_hash=<stamp>`` line, the header, then the rows,
    every line ending in a bare newline."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# config_hash={stamp}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


@dataclass
class SplitMasks:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def check(self, n: int) -> None:
        total = self.train.astype(int) + self.val.astype(int) + self.test.astype(int)
        if self.train.shape != (n,) or not np.all(total == 1):
            raise ValueError("split masks must partition the subject set exactly")


def _finite_number(value) -> bool:
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


# the JSON kind each Python type stands for in ``spec``, as messages name it,
# and the test a value of that kind passes (a bool is not a number)
_KINDS = {
    int: ("an integer", lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool)),
    float: ("a finite number", _finite_number),
    str: ("a JSON string", lambda v: isinstance(v, str)),
    list: ("a JSON list", lambda v: isinstance(v, (list, tuple))),
    tuple: ("a JSON list", lambda v: isinstance(v, (list, tuple))),
    dict: ("a JSON object", lambda v: isinstance(v, dict)),
}


def spec(kind: type, default, least=None, choices=None, each=None):
    """A config dataclass field of the JSON kind of ``kind`` (a key of
    ``_KINDS``), checked by ``check_fields``. ``least`` and ``choices`` bound
    a scalar value, or each item of a list whose items are of kind ``each``.
    A None default admits null as a value too."""
    meta = {"kind": kind, "least": least, "choices": choices, "each": each}
    if isinstance(default, (list, dict)):
        return field(default_factory=lambda: kind(default), metadata=meta)
    return field(default=default, metadata=meta)


def check_fields(obj, error=ValueError) -> None:
    """Raise ``error`` naming the first field of the config dataclass ``obj``
    (or list item, as ``name[i]``) that is off its ``spec``, or the first
    repeated item of a list field, and copy each list, tuple and dict value
    into its kind. A field without a ``spec`` holds a nested config, which
    checks itself."""
    def check(name, value, kind, least=None, choices=None, suffix=""):
        what, test = _KINDS[kind]
        if not test(value):
            raise error(f"{name} must be {what}{suffix}, got {value!r}")
        if least is not None and value < least:
            raise error(f"{name} must be at least {least}")
        if choices is not None and value not in choices:
            raise error(f"{name} must be one of {list(choices)}, got {value!r}")

    for f in fields(obj):
        meta, value = f.metadata, getattr(obj, f.name)
        if "kind" not in meta or (value is None and f.default is None):
            continue
        kind, each = meta["kind"], meta["each"]
        if each is None:
            check(f.name, value, kind, meta["least"], meta["choices"],
                  " or null" if f.default is None else "")
        else:
            check(f.name, value, kind)
            for i, item in enumerate(value):
                check(f"{f.name}[{i}]", item, each, meta["least"], meta["choices"])
                if kind is list and item in value[:i]:
                    raise error(f"duplicate {f.name}: {item}")
        if kind in (list, tuple, dict):
            setattr(obj, f.name, kind(value))


@dataclass
class SyntheticConfig:
    """Shape of a generated population.

    n_nonimaging (Q) phenotypes are never node features; n_imaging (S)
    phenotypes double as the first S node-feature columns; the remaining
    n_node_features - S feature columns are pure noise.
    """

    n_subjects: int = spec(int, 800, least=20)
    n_nonimaging: int = spec(int, 20, least=0)
    n_imaging: int = spec(int, 20, least=0)
    n_node_features: int = spec(int, 30, least=0)
    n_relevant_nonimaging: int = spec(int, 10, least=0)
    n_relevant_imaging: int = spec(int, 10, least=0)
    noise_std: float = spec(float, 0.1, least=0)
    age_range: tuple = spec(tuple, (47.0, 81.0), each=float)

    def __post_init__(self) -> None:
        check_fields(self)
        if self.n_relevant_nonimaging > self.n_nonimaging:
            raise ValueError("n_relevant_nonimaging exceeds n_nonimaging")
        if self.n_relevant_imaging > self.n_imaging:
            raise ValueError("n_relevant_imaging exceeds n_imaging")
        if self.n_relevant_nonimaging + self.n_relevant_imaging == 0:
            raise ValueError("no relevant columns: nothing carries signal")
        if self.n_node_features < self.n_imaging:
            raise ValueError("n_node_features must cover the imaging columns")
        if len(self.age_range) != 2 or not self.age_range[1] > self.age_range[0]:
            raise ValueError(f"age_range must be two increasing numbers, "
                             f"got {list(self.age_range)!r}")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["age_range"] = list(self.age_range)
        return d


@dataclass
class CsvSchema:
    """Column roles for a phenotype table: label column plus a kind per column."""

    label_column: str
    kinds: dict = field(default_factory=dict)  # column name -> KIND_*


@dataclass
class PopulationDataset:
    X: np.ndarray                      # (N, M) node features
    nonimaging: np.ndarray             # (N, Q)
    imaging_cols: list                 # S indices into X columns
    nonimaging_names: list
    imaging_names: list
    feature_names: list                # M names for X columns
    y: np.ndarray                      # (N,) label in years
    relevant: np.ndarray | None = None  # (Q+S,) planted flags
    masks: SplitMasks | None = None
    class_labels: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    @property
    def n_subjects(self) -> int:
        return self.X.shape[0]

    @property
    def n_nonimaging(self) -> int:
        return self.nonimaging.shape[1]

    @property
    def n_imaging(self) -> int:
        return len(self.imaging_cols)

    @property
    def n_phenotypes(self) -> int:
        return self.n_nonimaging + self.n_imaging

    @property
    def phenotype_names(self) -> list:
        return list(self.nonimaging_names) + list(self.imaging_names)

    def phenotype_matrix(self) -> np.ndarray:
        """(N, Q+S) matrix: non-imaging columns first, then imaging."""
        return np.concatenate([self.nonimaging, self.X[:, self.imaging_cols]], axis=1)

    def require_masks(self) -> SplitMasks:
        if self.masks is None:
            raise ValueError("dataset has no split masks; call split() first")
        return self.masks


_SHAPES = {
    "linear": lambda t: t,
    "saturating": lambda t: np.sin(0.5 * np.pi * t),
}


def generate_synthetic(config: SyntheticConfig, seed: int) -> PopulationDataset:
    """Generate a population with planted relevant phenotypes.

    Ages are uniform over the configured range. Each relevant column is a
    randomly signed monotone transform of age (alternating linear and
    saturating shapes) plus Gaussian noise; every other column is
    age-independent standard normal. Bit-identical for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    n = config.n_subjects
    lo, hi = config.age_range

    ages = rng.uniform(lo, hi, n)
    t = (ages - lo) / (hi - lo)

    shape_table = {}

    def planted_column(name: str, k: int) -> np.ndarray:
        shape = "linear" if k % 2 == 0 else "saturating"
        sign = float(rng.choice([-1.0, 1.0]))
        shape_table[name] = {"shape": shape, "sign": sign}
        return sign * _SHAPES[shape](t) + rng.normal(0.0, config.noise_std, n)

    nonimaging = np.empty((n, config.n_nonimaging))
    nonimaging_names = [f"q{j:02d}" for j in range(config.n_nonimaging)]
    for j in range(config.n_nonimaging):
        if j < config.n_relevant_nonimaging:
            nonimaging[:, j] = planted_column(nonimaging_names[j], j)
        else:
            nonimaging[:, j] = rng.normal(0.0, 1.0, n)

    X = np.empty((n, config.n_node_features))
    imaging_names = [f"s{j:02d}" for j in range(config.n_imaging)]
    for j in range(config.n_imaging):
        if j < config.n_relevant_imaging:
            X[:, j] = planted_column(imaging_names[j], j)
        else:
            X[:, j] = rng.normal(0.0, 1.0, n)
    n_extra = config.n_node_features - config.n_imaging
    feature_names = imaging_names + [f"f{j:02d}" for j in range(n_extra)]
    for j in range(n_extra):
        X[:, config.n_imaging + j] = rng.normal(0.0, 1.0, n)

    relevant = np.zeros(config.n_nonimaging + config.n_imaging, dtype=bool)
    relevant[: config.n_relevant_nonimaging] = True
    relevant[config.n_nonimaging: config.n_nonimaging + config.n_relevant_imaging] = True

    cfg = config.to_dict()
    return PopulationDataset(
        X=X,
        nonimaging=nonimaging,
        imaging_cols=list(range(config.n_imaging)),
        nonimaging_names=nonimaging_names,
        imaging_names=imaging_names,
        feature_names=feature_names,
        y=ages,
        relevant=relevant,
        meta={
            "source": "synthetic",
            "seed": int(seed),
            "config": cfg,
            "config_hash": config_hash(cfg),
            "label_column": "age",
            "column_shapes": shape_table,
        },
    )


def save_csv(dataset: PopulationDataset, path) -> None:
    """Write `id,<columns>,<label>`; column order is non-imaging, imaging,
    then feature-only columns."""
    label = dataset.meta.get("label_column", "age")
    extra_idx = [i for i in range(dataset.X.shape[1]) if i not in dataset.imaging_cols]
    names = (list(dataset.nonimaging_names) + list(dataset.imaging_names)
             + [dataset.feature_names[i] for i in extra_idx])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + names + [label])
        for i in range(dataset.n_subjects):
            row = [str(i)]
            row += [repr(float(v)) for v in dataset.nonimaging[i]]
            row += [repr(float(dataset.X[i, c])) for c in dataset.imaging_cols]
            row += [repr(float(dataset.X[i, c])) for c in extra_idx]
            row.append(repr(float(dataset.y[i])))
            writer.writerow(row)


def csv_schema_for(dataset: PopulationDataset) -> CsvSchema:
    """Schema that reloads a save_csv export of this dataset."""
    extra_idx = [i for i in range(dataset.X.shape[1]) if i not in dataset.imaging_cols]
    kinds = {**dict.fromkeys(dataset.nonimaging_names, KIND_NONIMAGING),
             **dict.fromkeys(dataset.imaging_names, KIND_IMAGING),
             **{dataset.feature_names[i]: KIND_FEATURE for i in extra_idx}}
    return CsvSchema(label_column=dataset.meta.get("label_column", "age"), kinds=kinds)


def load_csv(path, schema: CsvSchema) -> PopulationDataset:
    """Load a phenotype table. Rows missing any mapped cell or the label are
    dropped (count recorded in meta['n_dropped']); non-numeric and non-finite
    cells (nan, inf) are an error naming the row and column. Every header
    error names the file: a repeated or missing schema column, or a kind
    given to the label column."""
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        rows = list(reader)

    col_pos = {name: i for i, name in enumerate(header)}
    for name in [*schema.kinds, schema.label_column]:
        if header.count(name) > 1:
            raise ValueError(f"{path}: header repeats column {name!r}")
    for name, kind in schema.kinds.items():
        if name not in col_pos:
            raise ValueError(f"{path}: kind map names unknown column {name!r}")
        if name == schema.label_column:
            raise ValueError(f"{path}: kind map gives the label column {name!r} a kind; "
                             "the label cannot be an input")
        if kind not in COLUMN_KINDS:
            raise ValueError(f"{path}: kind map gives column {name!r} unknown kind {kind!r}; "
                             f"expected one of {list(COLUMN_KINDS)}")
    if schema.label_column not in col_pos:
        raise ValueError(f"{path}: label column {schema.label_column!r} not in header")

    nonimaging_names = [n for n in header if schema.kinds.get(n) == KIND_NONIMAGING]
    imaging_names = [n for n in header if schema.kinds.get(n) == KIND_IMAGING]
    extra_names = [n for n in header if schema.kinds.get(n) == KIND_FEATURE]
    needed = nonimaging_names + imaging_names + extra_names + [schema.label_column]

    parsed = []
    n_dropped = 0
    for r, row in enumerate(rows):
        cells = {name: row[col_pos[name]].strip() if col_pos[name] < len(row) else ""
                 for name in needed}
        if any(cells[name] == "" for name in needed):
            n_dropped += 1
            continue
        values = {}
        for name in needed:
            try:
                values[name] = float(cells[name])
            except ValueError:
                raise ValueError(
                    f"{path}: row {r + 2}, column {name!r}: "
                    f"non-numeric cell {cells[name]!r}") from None
            if not math.isfinite(values[name]):
                raise ValueError(f"{path}: row {r + 2}, column {name!r}: "
                                 f"non-finite cell {cells[name]!r}")
        parsed.append(values)

    if not parsed:
        raise ValueError(f"{path}: no usable rows after dropping incomplete ones")

    n = len(parsed)
    nonimaging = np.array([[row[c] for c in nonimaging_names] for row in parsed])
    nonimaging = nonimaging.reshape(n, len(nonimaging_names))
    feature_names = imaging_names + extra_names
    X = np.array([[row[c] for c in feature_names] for row in parsed])
    X = X.reshape(n, len(feature_names))
    y = np.array([row[schema.label_column] for row in parsed])

    return PopulationDataset(
        X=X,
        nonimaging=nonimaging,
        imaging_cols=list(range(len(imaging_names))),
        nonimaging_names=nonimaging_names,
        imaging_names=imaging_names,
        feature_names=feature_names,
        y=y,
        meta={
            "source": str(path),
            "label_column": schema.label_column,
            "n_dropped": n_dropped,
        },
    )


def normalize_minmax(dataset: PopulationDataset) -> PopulationDataset:
    """Min-max normalize every phenotype and node-feature column in place.

    Statistics come from the training split only; val/test values are clamped
    to [0, 1]. A column constant on the training split maps to 0.5 everywhere.
    Labels are untouched. Idempotent.
    """
    masks = dataset.require_masks()
    train = masks.train
    if not train.any():
        raise ValueError("training split is empty")

    def norm_inplace(mat: np.ndarray) -> None:
        for j in range(mat.shape[1]):
            col = mat[:, j]
            lo = col[train].min()
            hi = col[train].max()
            if hi == lo:
                mat[:, j] = 0.5
            else:
                mat[:, j] = np.clip((col - lo) / (hi - lo), 0.0, 1.0)

    norm_inplace(dataset.nonimaging)
    norm_inplace(dataset.X)
    return dataset


def split(dataset: PopulationDataset, fractions=(0.75, 0.05, 0.20),
          seed: int = 0) -> SplitMasks:
    """Random train/val/test partition with largest-remainder sizing.

    Sizes are the floors of fraction*N, with leftover slots handed to the
    largest fractional remainders (ties broken by position). Raises if
    there are not three fractions, if one is not a finite, nonnegative
    number, or if any split comes out empty.
    """
    names = ("train", "val", "test")
    if len(fractions) != len(names):
        raise ValueError(f"fractions must be three entries (train, val, test), got {fractions}")
    for name, f in zip(names, fractions):
        if not (_finite_number(f) and f >= 0.0):
            raise ValueError(f"{name} fraction {f!r} in {fractions} must be a finite, "
                             "nonnegative number")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions sum to {sum(fractions)}, expected 1")
    n = dataset.n_subjects
    quotas = [f * n for f in fractions]
    sizes = [int(np.floor(q)) for q in quotas]
    remainders = [q - s for q, s in zip(quotas, sizes)]
    for _ in range(n - sum(sizes)):
        k = int(np.argmax(remainders))
        sizes[k] += 1
        remainders[k] = -1.0
    for name, size in zip(names, sizes):
        if size == 0:
            raise ValueError(f"{name} split is empty for N={n} and fractions {fractions}")

    order = np.random.default_rng(seed).permutation(n)
    masks = []
    start = 0
    for size in sizes:
        m = np.zeros(n, dtype=bool)
        m[order[start:start + size]] = True
        masks.append(m)
        start += size
    out = SplitMasks(*masks)
    out.check(n)
    dataset.masks = out
    return out


def make_class_labels(labels: np.ndarray, train_mask: np.ndarray,
                      n_classes: int = 4):
    """Bin labels into n_classes by train-quantile edges.

    Edges sit at the i/n_classes empirical quantiles of the training labels,
    so training bins are balanced (within one subject when values are
    distinct). Values outside the training range fall into the end bins.
    Returns (classes, edges).
    """
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    train_labels = labels[train_mask]
    if train_labels.size < n_classes:
        raise ValueError("fewer training labels than classes")
    if np.ptp(train_labels) == 0.0:
        raise ValueError("training labels are constant; cannot bin")

    edges = np.quantile(train_labels, [i / n_classes for i in range(1, n_classes)])
    classes = np.searchsorted(edges, labels, side="left").astype(np.int64)

    counts = np.bincount(classes[train_mask], minlength=n_classes)
    if np.any(counts == 0):
        raise ValueError(
            f"tied labels leave an empty training bin (counts {counts.tolist()}); "
            f"try fewer than {n_classes} classes")
    return classes, edges
