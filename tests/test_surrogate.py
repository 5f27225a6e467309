import numpy as np
import pytest

from sensopt.errors import ConfigError, DataError, ShapeError
from sensopt.nn import (
    LossKind,
    ModelKind,
    TrainConfig,
    build_model,
    forward,
    save_model,
)
from sensopt.sensitivity import (
    FeatureAssignment,
    ReferenceSet,
    clone_and_fix,
    sensitivity_from_predictions,
)
from sensopt.surrogate import (
    build_distillation_set,
    encode,
    evaluate_surrogate,
    load_surrogate,
    predict_sensitivity,
    r_squared,
    save_surrogate,
    split_holdout,
    train_surrogate,
)


def make_reference(seed=0, k=60, n=4, values=3):
    rng = np.random.default_rng(seed)
    domains = [np.linspace(0.0, 1.0, values) for _ in range(n)]
    X = rng.choice(domains[0], size=(k, n))
    return ReferenceSet(X, domains=domains)


def make_classifier(n=4, labels=2, seed=1):
    return build_model(n, labels, ModelKind.CLASSIFIER, [8], seed=seed)


def test_encode_empty_assignment_is_means_and_zero_mask():
    T = ReferenceSet(np.array([[0.0, 2.0], [2.0, 4.0]]))
    enc = encode(FeatureAssignment.empty(), T)
    assert np.array_equal(enc.values, [1.0, 3.0])
    assert np.array_equal(enc.mask, [0.0, 0.0])
    assert np.array_equal(enc.stacked, [1.0, 3.0, 0.0, 0.0])


def test_encode_partial_and_full():
    T = ReferenceSet(np.array([[0.0, 2.0], [2.0, 4.0]]))
    enc = encode(FeatureAssignment.of((1, 7.0)), T)
    assert np.array_equal(enc.values, [1.0, 7.0])
    assert np.array_equal(enc.mask, [0.0, 1.0])
    full = encode(FeatureAssignment.of((0, 5.0), (1, 6.0)), T)
    assert np.array_equal(full.values, [5.0, 6.0])
    assert np.array_equal(full.mask, [1.0, 1.0])


def test_encode_validates_indices():
    T = ReferenceSet(np.zeros((2, 2)))
    with pytest.raises(IndexError):
        encode(FeatureAssignment.of((4, 0.0)), T)


def test_distillation_set_shapes_and_arity():
    T = make_reference()
    M = make_classifier()
    dset = build_distillation_set(M, T, n_samples=40, max_arity=3, seed=5)
    assert dset.inputs.shape == (40, 8)
    assert dset.targets.shape == (40, 2)
    assert dset.n_features == 4 and dset.n_labels == 2
    arities = {len(a) for a in dset.assignments}
    assert arities <= {1, 2, 3}
    # values must come from the declared domains
    for a in dset.assignments:
        for j, v in a:
            assert np.any(np.abs(T.domains[j] - v) <= 1e-12)


def test_distillation_targets_replay_from_oracle():
    T = make_reference(seed=3)
    M = make_classifier(seed=2)
    dset = build_distillation_set(M, T, n_samples=25, max_arity=4, seed=9)
    ref = forward(M, T.features)
    for i, a in enumerate(dset.assignments):
        want = sensitivity_from_predictions(forward(M, clone_and_fix(T, a)), ref)
        assert np.all(np.abs(dset.targets[i] - want) <= 1e-12)


def test_distillation_deterministic_given_seed():
    T = make_reference(seed=1)
    M = make_classifier(seed=4)
    a = build_distillation_set(M, T, n_samples=15, max_arity=2, seed=7)
    b = build_distillation_set(M, T, n_samples=15, max_arity=2, seed=7)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.targets, b.targets)
    c = build_distillation_set(M, T, n_samples=15, max_arity=2, seed=8)
    assert not np.array_equal(a.inputs, c.inputs)


def test_distillation_full_arity_sample_hits_zero_target():
    # n=1 forces every sample to be the full assignment: target exactly 0
    rng = np.random.default_rng(0)
    T = ReferenceSet(rng.normal(size=(30, 1)), domains=[np.array([0.0, 1.0])])
    M = make_classifier(n=1, seed=0)
    dset = build_distillation_set(M, T, n_samples=5, max_arity=1, seed=1)
    assert np.all(dset.targets == 0.0)


def test_distillation_requires_domains():
    T = ReferenceSet(np.zeros((5, 2)) + np.arange(5)[:, None])
    M = make_classifier(n=2, seed=1)
    with pytest.raises(ConfigError):
        build_distillation_set(M, T, n_samples=3, max_arity=1, seed=0)


def test_split_holdout_sizes_and_content():
    T = make_reference()
    M = make_classifier()
    dset = build_distillation_set(M, T, n_samples=50, max_arity=2, seed=3)
    head, tail = split_holdout(dset, 0.2)
    assert head.n_samples == 40 and tail.n_samples == 10
    assert np.array_equal(np.vstack([head.inputs, tail.inputs]), dset.inputs)
    with pytest.raises(ConfigError):
        split_holdout(dset, 1.5)


def test_train_surrogate_preconditions():
    T = make_reference()
    M = make_classifier()
    dset = build_distillation_set(M, T, n_samples=20, max_arity=2, seed=0)
    with pytest.raises(ConfigError):
        train_surrogate(dset, TrainConfig(loss=LossKind.MSE, hidden_dims=[16]))
    with pytest.raises(ConfigError):
        train_surrogate(dset, TrainConfig(loss=LossKind.BCE,
                                          hidden_dims=[16, 8]))


def test_train_surrogate_fits_constant_targets():
    T = make_reference(seed=2)
    M = make_classifier(seed=3)
    dset = build_distillation_set(M, T, n_samples=40, max_arity=2, seed=1)
    dset.targets[:] = 0.37
    cfg = TrainConfig(learning_rate=0.05, epochs=500, batch_size=8, seed=0,
                      loss=LossKind.MSE, hidden_dims=[8, 4])
    model, _ = train_surrogate(dset, cfg)
    preds = forward(model, dset.inputs)
    assert np.all(np.abs(preds - 0.37) < 0.05)


def test_predict_sensitivity_pure_and_encoding_determined():
    T = make_reference(seed=4)
    M = make_classifier(seed=5)
    dset = build_distillation_set(M, T, n_samples=60, max_arity=3, seed=2)
    cfg = TrainConfig(epochs=60, batch_size=16, seed=0, loss=LossKind.MSE,
                      hidden_dims=[16, 8])
    surrogate, _ = train_surrogate(dset, cfg)
    a = FeatureAssignment.of((0, 0.5), (2, 1.0))
    s1 = predict_sensitivity(surrogate, a, T)
    s2 = predict_sensitivity(surrogate, a, T)
    assert np.array_equal(s1, s2)
    assert s1.shape == (2,)
    # same pairs in a different declaration order encode identically
    b = FeatureAssignment.of((2, 1.0), (0, 0.5))
    assert np.array_equal(predict_sensitivity(surrogate, b, T), s1)


def test_predict_sensitivity_shape_check():
    T = make_reference()
    wrong = build_model(6, 2, ModelKind.REGRESSOR, [4, 4], seed=0)
    with pytest.raises(ShapeError):
        predict_sensitivity(wrong, FeatureAssignment.empty(), T)


def test_r_squared_reference_points():
    t = np.array([[0.0], [2.0]])
    assert r_squared(np.array([[0.0], [2.0]]), t) == 1.0
    assert r_squared(np.array([[1.0], [1.0]]), t) == 0.0
    assert r_squared(np.array([[2.0], [0.0]]), t) == -3.0
    with pytest.raises(ShapeError):
        r_squared(np.zeros((2, 1)), np.zeros((3, 1)))


def test_r_squared_constant_targets():
    t = np.full((4, 2), 0.5)
    assert r_squared(t.copy(), t) == 1.0
    assert r_squared(t + 0.1, t) == 0.0


def test_surrogate_save_load_round_trip(tmp_path):
    T = make_reference(seed=6)
    M = make_classifier(seed=7)
    dset = build_distillation_set(M, T, n_samples=30, max_arity=2, seed=4)
    surrogate, _ = train_surrogate(dset, TrainConfig(
        epochs=30, batch_size=8, seed=1, loss=LossKind.MSE, hidden_dims=[8, 4]))
    path = tmp_path / "ds.json"
    save_surrogate(surrogate, path, n_features=4)
    loaded, meta = load_surrogate(path)
    assert meta["n_features"] == 4
    assert meta["n_labels"] == 2
    assert meta["encoding_version"] == 1
    assert evaluate_surrogate(loaded, dset) == evaluate_surrogate(surrogate, dset)


@pytest.mark.parametrize("meta", [
    {"n_labels": 2, "encoding_version": 1},  # n_features missing
    {"n_features": 3, "n_labels": 2, "encoding_version": 1},  # width is 8
    {"n_features": 4, "n_labels": 3, "encoding_version": 1},  # 2 outputs
])
def test_surrogate_load_rejects_bad_meta_as_data_error(tmp_path, meta):
    path = tmp_path / "ds.json"
    save_model(build_model(8, 2, ModelKind.REGRESSOR, [4, 4], seed=0), path,
               meta=meta)
    with pytest.raises(DataError) as err:
        load_surrogate(path)
    assert str(path) in str(err.value)


def test_surrogate_save_rejects_width_mismatch(tmp_path):
    model = build_model(8, 2, ModelKind.REGRESSOR, [4, 4], seed=0)
    with pytest.raises(ShapeError):
        save_surrogate(model, tmp_path / "bad.json", n_features=3)


def test_surrogate_load_rejects_newer_encoding(tmp_path):
    model = build_model(8, 2, ModelKind.REGRESSOR, [4, 4], seed=0)
    path = tmp_path / "ds.json"
    save_surrogate(model, path, n_features=4)
    text = path.read_text().replace('"encoding_version": 1',
                                    '"encoding_version": 2')
    path.write_text(text)
    with pytest.raises(ConfigError):
        load_surrogate(path)
