
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popgraph.dataio import (
    KIND_FEATURE,
    KIND_IMAGING,
    KIND_NONIMAGING,
    CsvSchema,
    SyntheticConfig,
    config_hash,
    csv_schema_for,
    generate_synthetic,
    load_csv,
    make_class_labels,
    normalize_minmax,
    save_csv,
    split,
)


def small_config(**overrides):
    base = dict(n_subjects=60, n_nonimaging=4, n_imaging=3, n_node_features=5,
                n_relevant_nonimaging=2, n_relevant_imaging=1, noise_std=0.1)
    base.update(overrides)
    return SyntheticConfig(**base)


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------


def test_generator_deterministic():
    a = generate_synthetic(small_config(), seed=7)
    b = generate_synthetic(small_config(), seed=7)
    assert np.array_equal(a.X, b.X)
    assert np.array_equal(a.nonimaging, b.nonimaging)
    assert np.array_equal(a.y, b.y)
    assert a.meta["config_hash"] == b.meta["config_hash"]


def test_generator_shapes_and_flags():
    cfg = small_config()
    ds = generate_synthetic(cfg, seed=1)
    assert ds.X.shape == (60, 5)
    assert ds.nonimaging.shape == (60, 4)
    assert ds.n_phenotypes == 7
    assert ds.relevant.tolist() == [True, True, False, False, True, False, False]
    assert np.all(ds.y >= 47.0) and np.all(ds.y <= 81.0)


def test_imaging_columns_live_inside_node_features():
    ds = generate_synthetic(small_config(), seed=3)
    phen = ds.phenotype_matrix()
    for k, col in enumerate(ds.imaging_cols):
        assert np.array_equal(phen[:, ds.n_nonimaging + k], ds.X[:, col])


def test_noiseless_linear_column_is_monotone_in_age():
    cfg = small_config(n_nonimaging=1, n_relevant_nonimaging=1,
                       n_imaging=1, n_relevant_imaging=0, n_node_features=1,
                       noise_std=0.0)
    ds = generate_synthetic(cfg, seed=11)
    sign = ds.meta["column_shapes"]["q00"]["sign"]
    order = np.argsort(ds.y)
    col = ds.nonimaging[order, 0] * sign
    assert np.all(np.diff(col) > 0.0)


def test_generator_rejects_bad_configs():
    """A bad shape fails when the config is built, naming its field."""
    for overrides, pattern in [
        ({"n_subjects": 10}, "n_subjects must be at least 20"),
        ({"n_relevant_nonimaging": 99}, "n_relevant_nonimaging exceeds"),
        ({"n_relevant_nonimaging": 0, "n_relevant_imaging": 0}, "no relevant columns"),
        ({"n_node_features": 2}, "n_node_features"),
        ({"noise_std": -0.5}, "noise_std must be at least 0"),
        ({"age_range": (81.0, 47.0)}, "age_range must be two increasing numbers"),
        ({"age_range": (47.0, 60.0, 81.0)}, "age_range must be two increasing numbers"),
        ({"age_range": (47.0, "x")}, r"age_range\[1\] must be a finite number"),
    ]:
        with pytest.raises(ValueError, match=pattern):
            small_config(**overrides)


def test_relevance_correlation_separation():
    """Planted columns carry signal; noise columns do not."""
    cfg = SyntheticConfig(n_subjects=800, noise_std=0.5)
    for seed in (0, 1, 2):
        ds = generate_synthetic(cfg, seed=seed)
        phen = ds.phenotype_matrix()
        for j in range(ds.n_phenotypes):
            r = abs(np.corrcoef(phen[:, j], ds.y)[0, 1])
            if ds.relevant[j]:
                assert r >= 0.3, f"seed {seed} col {j}: relevant but |r|={r:.3f}"
            else:
                assert r <= 0.1, f"seed {seed} col {j}: noise but |r|={r:.3f}"


# ---------------------------------------------------------------------------
# noise floor: the frozen moment constants and the best-linear-predictor MAE
# oracle live in oracles.py; here they get cross-checked by quadrature
# ---------------------------------------------------------------------------

from oracles import E_LIN, E_LIN2, E_LINSAT, E_SAT, E_SAT2, blp_mae_floor


def test_frozen_moments_match_quadrature():
    x, w = np.polynomial.legendre.leggauss(96)
    t = 0.5 * (x + 1.0)
    w = 0.5 * w
    sat = np.sin(0.5 * np.pi * t)
    assert abs(np.sum(w * sat) - E_SAT) < 1e-12
    assert abs(np.sum(w * sat * sat) - E_SAT2) < 1e-12
    assert abs(np.sum(w * t * sat) - E_LINSAT) < 1e-12
    assert abs(np.sum(w * t) - E_LIN) < 1e-12
    assert abs(np.sum(w * t * t) - E_LIN2) < 1e-12


def test_ols_on_relevant_columns_hits_noise_floor():
    cfg = SyntheticConfig(n_subjects=1000, n_nonimaging=20, n_imaging=2,
                          n_node_features=3, n_relevant_nonimaging=10,
                          n_relevant_imaging=0, noise_std=0.3)
    ds = generate_synthetic(cfg, seed=5)
    cols = ds.nonimaging[:, :10]
    design = np.column_stack([np.ones(len(ds.y)), cols])
    coef, *_ = np.linalg.lstsq(design, ds.y, rcond=None)
    mae = float(np.mean(np.abs(design @ coef - ds.y)))

    shapes = [ds.meta["column_shapes"][f"q{j:02d}"]["shape"] for j in range(10)]
    signs = [ds.meta["column_shapes"][f"q{j:02d}"]["sign"] for j in range(10)]
    floor = blp_mae_floor(shapes, signs, cfg.noise_std, cfg.age_range)
    assert 0.85 * floor <= mae <= 1.15 * floor, (mae, floor)


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def test_csv_round_trip(tmp_path):
    ds = generate_synthetic(small_config(), seed=9)
    path = tmp_path / "pop.csv"
    save_csv(ds, path)
    back = load_csv(path, csv_schema_for(ds))
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.nonimaging, ds.nonimaging)
    assert np.array_equal(back.y, ds.y)
    assert back.imaging_cols == ds.imaging_cols
    assert back.meta["n_dropped"] == 0


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_csv_drops_incomplete_rows(tmp_path):
    path = _write(tmp_path / "t.csv",
                  "id,a,b,age\n1,0.1,0.2,50\n2,,0.4,51\n3,0.5,0.6,52\n"
                  "4,0.7,0.8,53\n5,0.9,1.0,54\n")
    schema = CsvSchema("age", {"a": KIND_NONIMAGING, "b": KIND_IMAGING})
    ds = load_csv(path, schema)
    assert ds.n_subjects == 4
    assert ds.meta["n_dropped"] == 1


def test_csv_non_numeric_cell_names_location(tmp_path):
    schema = CsvSchema("age", {"a": KIND_NONIMAGING})
    for body, where in [("1,0.1,50\n2,oops,51\n", r"row 3.*'a'.*non-numeric"),
                        ("1,0.1,50\n2,nan,51\n", r"row 3.*'a'.*non-finite"),
                        ("1,0.1,50\n2,0.2,inf\n", r"row 3.*'age'.*non-finite"),
                        ("1,-inf,50\n", r"row 2.*'a'.*non-finite")]:
        path = _write(tmp_path / "t.csv", "id,a,age\n" + body)
        with pytest.raises(ValueError, match=where):
            load_csv(path, schema)


def test_csv_unknown_kind_map_column(tmp_path):
    path = _write(tmp_path / "t.csv", "id,a,age\n1,0.1,50\n")
    with pytest.raises(ValueError, match=r"t\.csv: kind map names unknown column 'nope'"):
        load_csv(path, CsvSchema("age", {"nope": KIND_NONIMAGING}))
    with pytest.raises(ValueError, match=r"t\.csv: label column 'years' not in header"):
        load_csv(path, CsvSchema("years", {"a": KIND_NONIMAGING}))
    # the label is never an input, whatever kind the map gives it
    for kind in (KIND_IMAGING, KIND_NONIMAGING, "imagin"):
        with pytest.raises(ValueError, match=r"t\.csv: kind map gives the label column 'age'"):
            load_csv(path, CsvSchema("age", {"a": KIND_NONIMAGING, "age": kind}))
    with pytest.raises(ValueError, match="column 'a' unknown kind 'imagin'"):
        load_csv(path, CsvSchema("age", {"a": "imagin"}))


def test_csv_repeated_schema_column(tmp_path):
    path = _write(tmp_path / "t.csv", "id,q00,q00,s00,age\n1,0.1,0.2,0.3,50\n")
    with pytest.raises(ValueError, match=r"t\.csv: header repeats column 'q00'"):
        load_csv(path, CsvSchema("age", {"q00": KIND_NONIMAGING, "s00": KIND_IMAGING}))
    path = _write(tmp_path / "t.csv", "id,a,age,age\n1,0.1,50,51\n")
    with pytest.raises(ValueError, match="repeats column 'age'"):
        load_csv(path, CsvSchema("age", {"a": KIND_NONIMAGING}))
    # a repeated column the schema does not read is left alone
    path = _write(tmp_path / "t.csv", "id,id,a,age\n1,1,0.1,50\n2,2,0.2,51\n")
    assert load_csv(path, CsvSchema("age", {"a": KIND_NONIMAGING})).n_subjects == 2


def test_csv_zero_usable_rows(tmp_path):
    path = _write(tmp_path / "t.csv", "id,a,age\n1,,50\n2,,51\n")
    with pytest.raises(ValueError, match="no usable rows"):
        load_csv(path, CsvSchema("age", {"a": KIND_NONIMAGING}))


def test_csv_feature_kind_round_trip(tmp_path):
    path = _write(tmp_path / "t.csv",
                  "id,a,s,f,age\n1,0.1,0.2,0.3,50\n2,0.4,0.5,0.6,51\n")
    schema = CsvSchema("age", {"a": KIND_NONIMAGING, "s": KIND_IMAGING,
                               "f": KIND_FEATURE})
    ds = load_csv(path, schema)
    assert ds.X.shape == (2, 2)
    assert ds.nonimaging.shape == (2, 1)
    assert ds.n_imaging == 1


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def _tiny_dataset(nonimaging, y, train, val, test):
    from popgraph.dataio import PopulationDataset, SplitMasks
    n = len(y)
    ds = PopulationDataset(
        X=np.zeros((n, 1)), nonimaging=np.asarray(nonimaging, dtype=float),
        imaging_cols=[0], nonimaging_names=["a"], imaging_names=["s0"],
        feature_names=["s0"], y=np.asarray(y, dtype=float))
    ds.masks = SplitMasks(np.asarray(train), np.asarray(val), np.asarray(test))
    return ds


def test_normalize_basic_constant_and_clamp():
    ds = _tiny_dataset(
        nonimaging=np.array([[2.0, 3.0], [4.0, 3.0], [6.0, 3.0], [8.0, 3.0]]),
        y=[50, 51, 52, 53],
        train=[True, True, True, False],
        val=[False, False, False, False],
        test=[False, False, False, True])
    normalize_minmax(ds)
    assert np.allclose(ds.nonimaging[:3, 0], [0.0, 0.5, 1.0])
    assert ds.nonimaging[3, 0] == 1.0  # 8 clamps to the train max
    assert np.all(ds.nonimaging[:, 1] == 0.5)


def test_normalize_idempotent():
    ds = generate_synthetic(small_config(), seed=2)
    split(ds, seed=0)
    normalize_minmax(ds)
    x1 = ds.X.copy()
    q1 = ds.nonimaging.copy()
    normalize_minmax(ds)
    assert np.array_equal(ds.X, x1)
    assert np.array_equal(ds.nonimaging, q1)


def test_normalize_requires_masks():
    ds = generate_synthetic(small_config(), seed=2)
    with pytest.raises(ValueError, match="masks"):
        normalize_minmax(ds)


def test_normalize_bounds_on_train():
    ds = generate_synthetic(small_config(n_subjects=100), seed=4)
    split(ds, seed=1)
    normalize_minmax(ds)
    tr = ds.masks.train
    assert ds.nonimaging[tr].min() >= 0.0 and ds.nonimaging[tr].max() <= 1.0
    assert ds.X.min() >= 0.0 and ds.X.max() <= 1.0  # clamped everywhere


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------


def test_split_sizes_100():
    ds = generate_synthetic(small_config(n_subjects=100), seed=0)
    masks = split(ds, (0.75, 0.05, 0.20), seed=3)
    assert masks.train.sum() == 75
    assert masks.val.sum() == 5
    assert masks.test.sum() == 20


def test_split_deterministic():
    ds = generate_synthetic(small_config(), seed=0)
    a = split(ds, seed=42)
    b = split(ds, seed=42)
    assert np.array_equal(a.train, b.train)
    assert np.array_equal(a.val, b.val)
    assert np.array_equal(a.test, b.test)


def test_split_empty_val_raises():
    ds = generate_synthetic(small_config(n_subjects=20), seed=0)
    ds.X = ds.X[:10]
    ds.nonimaging = ds.nonimaging[:10]
    ds.y = ds.y[:10]
    with pytest.raises(ValueError, match="val"):
        split(ds, (0.75, 0.05, 0.20), seed=0)


def test_split_bad_fractions():
    ds = generate_synthetic(small_config(), seed=0)
    with pytest.raises(ValueError, match="fractions"):
        split(ds, (0.5, 0.2, 0.2), seed=0)
    # sums to 1 but would train on every subject and leave val and test empty
    with pytest.raises(ValueError, match="val fraction -0.1"):
        split(ds, (1.2, -0.1, -0.1), seed=0)
    with pytest.raises(ValueError, match="train fraction nan"):
        split(ds, (float("nan"), 0.5, 0.5), seed=0)
    with pytest.raises(ValueError, match="test fraction inf"):
        split(ds, (0.5, 0.5, float("inf")), seed=0)
    with pytest.raises(ValueError, match="train fraction '0.5'"):
        split(ds, ("0.5", 0.25, 0.25), seed=0)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(30, 300), seed=st.integers(0, 10_000))
def test_split_partitions_exactly(n, seed):
    ds = generate_synthetic(small_config(n_subjects=n), seed=1)
    masks = split(ds, seed=seed)
    combined = masks.train.astype(int) + masks.val.astype(int) + masks.test.astype(int)
    assert np.all(combined == 1)


# ---------------------------------------------------------------------------
# class binning
# ---------------------------------------------------------------------------


def test_class_edges_on_uniform_ages():
    ds = generate_synthetic(SyntheticConfig(n_subjects=4000), seed=0)
    split(ds, seed=0)
    classes, edges = make_class_labels(ds.y, ds.masks.train, n_classes=4)
    assert np.allclose(edges, [55.5, 64.0, 72.5], atol=1.0)
    counts = np.bincount(classes[ds.masks.train], minlength=4)
    assert counts.max() - counts.min() <= 1


def test_class_median_split():
    labels = np.array([1.0, 2.0, 3.0, 4.0])
    train = np.ones(4, dtype=bool)
    classes, edges = make_class_labels(labels, train, n_classes=2)
    assert classes.tolist() == [0, 0, 1, 1]
    assert edges[0] == 2.5


def test_class_out_of_range_goes_to_end_bins():
    labels = np.array([10.0, 20.0, 30.0, 40.0, 5.0, 99.0])
    train = np.array([True, True, True, True, False, False])
    classes, _ = make_class_labels(labels, train, n_classes=2)
    assert classes[4] == 0
    assert classes[5] == 1


def test_class_ties_raise():
    labels = np.array([1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0])
    with pytest.raises(ValueError, match="fewer"):
        make_class_labels(labels, np.ones(8, dtype=bool), n_classes=4)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(8, 200), n_classes=st.integers(2, 5), seed=st.integers(0, 9999))
def test_class_train_bins_balanced(n, n_classes, seed):
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n, dtype=float) + rng.uniform(0, 0.4, n))
    classes, _ = make_class_labels(labels, np.ones(n, dtype=bool), n_classes)
    counts = np.bincount(classes, minlength=n_classes)
    assert counts.max() - counts.min() <= 1


# ---------------------------------------------------------------------------
# config hashing
# ---------------------------------------------------------------------------


def test_config_hash_key_order_invariant():
    assert config_hash({"a": 1, "b": [2, 3]}) == config_hash({"b": [2, 3], "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})
