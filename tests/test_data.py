import json
from itertools import product

import numpy as np
import pytest

from sensopt.data import (
    Dataset,
    FeatureKind,
    FeatureMeta,
    SyntheticSpec,
    fit_scaler,
    format_value,
    generate_synthetic,
    load_csv,
    quantile_domain,
    save_csv,
    save_ground_truth,
    split,
)
from sensopt.errors import ConfigError, DataError
from sensopt.sensitivity import FeatureAssignment


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def test_load_csv_mixed_columns(tmp_path):
    p = write(tmp_path, "age,color,y\n1.5,red,0\n2.5,blue,1\n3.5,red,1\n")
    ds = load_csv(p, ["y"])
    assert ds.n_samples == 3 and ds.n_features == 2 and ds.n_labels == 1
    assert np.array_equal(ds.X[:, 0], [1.5, 2.5, 3.5])
    # text column coded by first appearance
    assert np.array_equal(ds.X[:, 1], [0.0, 1.0, 0.0])
    assert ds.features[0].kind is FeatureKind.CONTINUOUS
    assert ds.features[1].kind is FeatureKind.CATEGORICAL
    assert ds.features[1].raw_categories == ["red", "blue"]
    assert np.array_equal(ds.features[1].domain, [0.0, 1.0])
    assert np.array_equal(ds.Y[:, 0], [0.0, 1.0, 1.0])


def test_quantile_domain():
    col = np.arange(101, dtype=np.float64)
    assert np.array_equal(quantile_domain(col), [0.0, 25.0, 50.0, 75.0, 100.0])
    assert np.array_equal(quantile_domain(np.full(8, 3.0)), [3.0])


def test_load_csv_continuous_domain_is_quantiles(tmp_path):
    rows = "\n".join(f"{v},0" for v in range(11))
    p = write(tmp_path, "x,y\n" + rows + "\n")
    ds = load_csv(p, ["y"])
    assert np.array_equal(ds.features[0].domain, [0.0, 2.5, 5.0, 7.5, 10.0])


def test_load_csv_errors(tmp_path):
    with pytest.raises(DataError, match="no such file"):
        load_csv(tmp_path / "nope.csv", ["y"])
    with pytest.raises(DataError, match="empty file"):
        load_csv(write(tmp_path, "", "a.csv"), ["y"])
    with pytest.raises(DataError, match="no data rows"):
        load_csv(write(tmp_path, "x,y\n", "b.csv"), ["y"])
    with pytest.raises(DataError, match=r"label columns not found: \['z'\]"):
        load_csv(write(tmp_path, "x,y\n1,0\n", "c.csv"), ["z"])
    with pytest.raises(DataError, match="row 3 has 1 cells"):
        load_csv(write(tmp_path, "x,y\n1,0\n1\n", "d.csv"), ["y"])
    with pytest.raises(DataError, match="row 2, column 'x'"):
        load_csv(write(tmp_path, "x,y\n,0\n", "e.csv"), ["y"])
    with pytest.raises(DataError, match="non-binary label '2' at row 3"):
        load_csv(write(tmp_path, "x,y\n1,0\n1,2\n", "f.csv"), ["y"])
    with pytest.raises(DataError, match="no feature columns"):
        load_csv(write(tmp_path, "y\n0\n", "g.csv"), ["y"])


def test_load_csv_rejects_bytes_that_are_not_utf8(tmp_path):
    p = tmp_path / "latin.csv"
    p.write_bytes(b"\xff\xfe,b,label0\n1,2,0\n")
    with pytest.raises(DataError, match="not UTF-8") as err:
        load_csv(p, ["label0"])
    assert str(p) in str(err.value)


def test_load_csv_rejects_a_field_past_the_size_limit(tmp_path):
    p = write(tmp_path, "a,b,label0\n" + "x" * 200_000 + ",1,0\n")
    with pytest.raises(DataError, match="line 2: field larger") as err:
        load_csv(p, ["label0"])
    assert str(p) in str(err.value)


def test_load_csv_rejects_repeated_header_names(tmp_path):
    # the second label0 would otherwise be trained on as a feature
    p = write(tmp_path, "a,label0,label0\n1,0,1\n2,1,0\n")
    with pytest.raises(DataError, match=r"repeats column names: \['label0'\]"):
        load_csv(p, ["label0"])


def test_save_csv_round_trip(tmp_path):
    p = write(tmp_path, "age,color,y\n1.5,red,0\n2.5,blue,1\n3.5,red,1\n")
    ds = load_csv(p, ["y"])
    out = tmp_path / "copy.csv"
    save_csv(ds, out)
    again = load_csv(out, ["y"])
    assert np.array_equal(ds.X, again.X)
    assert np.array_equal(ds.Y, again.Y)
    assert again.features[1].raw_categories == ["red", "blue"]


def test_save_csv_writes_scaled_categories_by_domain_position(tmp_path):
    # scaled codes 0, 0.5, 1, 0.5 are categories a, b, c, b: rounding them
    # to an index would write a, a, b, a
    p = write(tmp_path, "c,y\na,0\nb,1\nc,0\nb,1\n")
    ds = load_csv(p, ["y"])
    scaled = fit_scaler(ds).transform(ds)
    assert scaled.X[:, 0].tolist() == [0.0, 0.5, 1.0, 0.5]
    out = tmp_path / "scaled.csv"
    save_csv(scaled, out)
    assert out.read_text().splitlines() == ["c,y", "a,0", "b,1", "c,0", "b,1"]
    meta = scaled.features[0]
    assert [format_value(meta, v) for v in scaled.X[:, 0]] == ["a", "b", "c", "b"]


def test_format_value():
    meta = FeatureMeta("c", FeatureKind.CATEGORICAL, np.array([0.0, 1.0]),
                       raw_categories=["red", "blue"])
    assert format_value(meta, 1.0) == "blue"
    assert format_value(meta, 1.0 + 1e-10) == "blue"
    cont = FeatureMeta("x", FeatureKind.CONTINUOUS, np.array([0.0, 1.0]))
    assert format_value(cont, 0.25) == "0.25"


def test_dataset_validation():
    metas = [FeatureMeta("f0", FeatureKind.CATEGORICAL, np.array([0.0, 1.0]))]
    with pytest.raises(DataError):
        Dataset(np.array([[2.0]]), np.array([[0.0]]), metas, ["y"])
    with pytest.raises(DataError):
        Dataset(np.array([[1.0]]), np.array([[0.5]]), metas, ["y"])
    ds = Dataset(np.array([[1.0]]), np.array([[1.0]]), metas, ["y"])
    assert [list(d) for d in ds.value_domains] == [[0.0, 1.0]]


def make_dataset(m=10, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(m, 2))
    Y = rng.integers(0, 2, size=(m, 1)).astype(np.float64)
    metas = [FeatureMeta(f"f{j}", FeatureKind.CONTINUOUS, quantile_domain(X[:, j]))
             for j in range(2)]
    return Dataset(X, Y, metas, ["y"])


def test_split_sizes_and_partition():
    ds = make_dataset(m=10)
    train, test, train_idx, test_idx = split(ds, test_fraction=0.1, seed=3)
    assert train.n_samples == 9 and test.n_samples == 1
    assert sorted(list(train_idx) + list(test_idx)) == list(range(10))
    assert np.array_equal(train.X, ds.X[train_idx])
    assert train.features is ds.features  # metadata shared, not copied

    t2 = split(ds, test_fraction=0.1, seed=3)
    assert np.array_equal(t2[3], test_idx)
    t3 = split(ds, test_fraction=0.1, seed=4)
    assert not np.array_equal(t3[3], test_idx) or True  # seeds may collide on m=10
    with pytest.raises(ConfigError):
        split(ds, test_fraction=0.0)
    with pytest.raises(ConfigError):
        split(ds, test_fraction=0.01)  # rounds to zero test rows


def test_split_stratified_keeps_group_proportions():
    X = np.zeros((40, 1))
    Y = np.vstack([np.zeros((20, 1)), np.ones((20, 1))])
    metas = [FeatureMeta("f0", FeatureKind.CONTINUOUS, np.array([0.0]))]
    ds = Dataset(X, Y, metas, ["y"])
    train, test, _, test_idx = split(ds, test_fraction=0.25, seed=0, stratify=True)
    assert test.n_samples == 10
    assert test.Y.sum() == 5  # five positives, five negatives held out


def test_scaler_maps_train_to_unit_box():
    ds = make_dataset(m=30, seed=1)
    scaler = fit_scaler(ds)
    scaled = scaler.transform(ds)
    assert scaled.X.min() >= 0.0 and scaled.X.max() <= 1.0
    assert scaled.X.min(axis=0).tolist() == [0.0, 0.0]
    assert scaled.X.max(axis=0).tolist() == [1.0, 1.0]


def test_scaler_names_a_column_that_overflows():
    # a test row far outside a narrow training range, and a training range
    # wider than the largest float, both leave float64 when scaled
    metas = [FeatureMeta("big", FeatureKind.CONTINUOUS, np.array([0.0, 1.0]))]
    narrow = Dataset(np.array([[0.0], [0.5]]), np.zeros((2, 1)), metas, ["y"])
    far = Dataset(np.array([[1e308]]), np.zeros((1, 1)), metas, ["y"])
    with pytest.raises(DataError, match="column 'big' overflows"):
        fit_scaler(narrow).transform(far)
    wide = Dataset(np.array([[-1e308], [1e308]]), np.zeros((2, 1)), metas, ["y"])
    with pytest.raises(DataError, match="column 'big' overflows"):
        fit_scaler(wide)


def test_scaler_constant_column_and_domains():
    X = np.column_stack([np.full(6, 7.0), np.arange(6, dtype=np.float64)])
    metas = [
        FeatureMeta("c", FeatureKind.CATEGORICAL, np.array([7.0]),
                    raw_categories=["only"]),
        FeatureMeta("x", FeatureKind.CONTINUOUS, quantile_domain(X[:, 1])),
    ]
    ds = Dataset(X, np.zeros((6, 1)), metas, ["y"])
    scaler = fit_scaler(ds)
    scaled = scaler.transform(ds)
    assert np.all(scaled.X[:, 0] == 0.0)
    # candidate grids live in scaled space and inside the observed columns
    for j in range(2):
        dom = scaled.features[j].domain
        assert np.array_equal(dom, scaler.domains[j])
        assert np.all((dom >= 0.0) & (dom <= 1.0))
    assert np.array_equal(scaler.domains[1],
                          quantile_domain(scaled.X[:, 1]))


def test_synthetic_deterministic():
    spec = SyntheticSpec(n_features=4, n_samples=50, seed=12)
    d1, t1 = generate_synthetic(spec)
    d2, t2 = generate_synthetic(SyntheticSpec(n_features=4, n_samples=50, seed=12))
    assert np.array_equal(d1.X, d2.X)
    assert np.array_equal(d1.Y, d2.Y)
    assert t1.planted.key == t2.planted.key
    d3, _ = generate_synthetic(SyntheticSpec(n_features=4, n_samples=50, seed=13))
    assert not np.array_equal(d1.Y, d3.Y)


def test_synthetic_default_plant_is_full_arity():
    spec = SyntheticSpec(n_features=5, n_samples=10, seed=1)
    _, truth = generate_synthetic(spec)
    assert sorted(truth.planted.indices) == list(range(5))
    for _, v in truth.planted:
        assert v in (0.0, 1.0, 2.0)


def test_synthetic_noiseless_labels_are_row_deterministic():
    spec = SyntheticSpec(n_features=2, n_samples=80, values_per_feature=2,
                         label_count=2, noise_level=0.0, seed=5)
    ds, _ = generate_synthetic(spec)
    seen = {}
    for r in range(ds.n_samples):
        key = tuple(ds.X[r])
        labels = tuple(ds.Y[r])
        assert seen.setdefault(key, labels) == labels


def test_synthetic_planted_minimizes_every_label():
    spec = SyntheticSpec(n_features=3, n_samples=5, seed=9)
    _, truth = generate_synthetic(spec)
    planted_codes = np.zeros(3)
    for j, v in truth.planted:
        planted_codes[j] = v
    base = truth.noiseless_probabilities(planted_codes)
    for codes in product(range(3), repeat=3):
        codes = np.array(codes, dtype=np.float64)
        if tuple(codes) == tuple(planted_codes):
            continue
        p = truth.noiseless_probabilities(codes)
        assert np.all(p > base)


def test_synthetic_interactions_add_to_far_rows():
    planted = FeatureAssignment.of((0, 0.0), (1, 0.0))
    spec = SyntheticSpec(n_features=2, n_samples=5, label_count=1,
                         planted_assignment=planted,
                         interaction_terms=((0, 1, 2.0),), seed=2)
    _, truth = generate_synthetic(spec)
    near = truth.noiseless_logits(np.array([0.0, 0.0]))
    off_one = truth.noiseless_logits(np.array([2.0, 0.0]))
    off_both = truth.noiseless_logits(np.array([2.0, 2.0]))
    # the pair term only fires when both features sit away from the plant
    assert abs((off_one - near)[0] - truth.weights[0] * 0.5) < 1e-12
    assert off_both[0] - near[0] > truth.weights[0] + 1.0


def test_synthetic_positive_rates_moderate():
    spec = SyntheticSpec(n_features=6, n_samples=2000, seed=3)
    ds, _ = generate_synthetic(spec)
    rates = ds.Y.mean(axis=0)
    assert np.all(rates >= 0.1) and np.all(rates <= 0.5)


def test_synthetic_spec_validation():
    with pytest.raises(ConfigError):
        SyntheticSpec(n_features=0, n_samples=5).validate()
    with pytest.raises(ConfigError):
        SyntheticSpec(n_features=2, n_samples=5, values_per_feature=1).validate()
    with pytest.raises(ConfigError):
        SyntheticSpec(n_features=2, n_samples=5, noise_level=-0.1).validate()
    with pytest.raises(ConfigError):
        SyntheticSpec(n_features=2, n_samples=5,
                      planted_assignment=FeatureAssignment.of((5, 0.0))).validate()
    with pytest.raises(ConfigError):
        SyntheticSpec(n_features=2, n_samples=5,
                      planted_assignment=FeatureAssignment.of((0, 9.0))).validate()
    with pytest.raises(ConfigError):
        SyntheticSpec(n_features=2, n_samples=5,
                      interaction_terms=((0, 1, -1.0),)).validate()


def test_save_ground_truth(tmp_path):
    spec = SyntheticSpec(n_features=2, n_samples=5, seed=4)
    _, truth = generate_synthetic(spec)
    p = tmp_path / "truth.json"
    save_ground_truth(truth, p)
    doc = json.loads(p.read_text())
    assert doc["schema_version"] == 1
    assert doc["planted_assignment"] == [[j, v] for j, v in truth.planted]
    assert doc["weights"] == [3.0, 3.5, 4.0]
