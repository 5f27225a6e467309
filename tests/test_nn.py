import json
import math

import numpy as np
import pytest

from sensopt.errors import ConfigError, DataError, ShapeError, TrainingDivergedError
from sensopt.nn import (
    Activation,
    Layer,
    LayerSpec,
    LossKind,
    MLPModel,
    ModelKind,
    TrainConfig,
    bce_loss,
    build_model,
    forward,
    grad_check,
    load_model,
    loss_gradients,
    mse_loss,
    save_model,
    train,
)
from sensopt.nn import _sigmoid


def tiny_classifier():
    # 2 -> 2 (relu) -> 1 (sigmoid), hand-set weights
    l1 = Layer(np.array([[0.5, -1.0], [0.25, 0.75]]), np.array([0.1, -0.2]),
               Activation.RELU)
    l2 = Layer(np.array([[1.5], [-0.5]]), np.array([0.05]), Activation.SIGMOID)
    return MLPModel([l1, l2], ModelKind.CLASSIFIER)


def hand_forward(x):
    # scalar-by-scalar evaluation of tiny_classifier, no numpy
    z0 = x[0] * 0.5 + x[1] * 0.25 + 0.1
    z1 = x[0] * -1.0 + x[1] * 0.75 - 0.2
    a0, a1 = max(z0, 0.0), max(z1, 0.0)
    z = a0 * 1.5 + a1 * -0.5 + 0.05
    return 1.0 / (1.0 + math.exp(-z))


def test_forward_zero_weights_gives_half():
    l = Layer(np.zeros((3, 2)), np.zeros(2), Activation.SIGMOID)
    model = MLPModel([l], ModelKind.CLASSIFIER)
    out = forward(model, np.random.default_rng(0).normal(size=(7, 3)))
    assert np.all(out == 0.5)


def test_forward_identity_layer_passthrough():
    l = Layer(np.eye(3), np.zeros(3), Activation.IDENTITY)
    model = MLPModel([l], ModelKind.REGRESSOR)
    x = np.array([[1.0, 2.0, 3.0]])
    assert np.array_equal(forward(model, x), x)


def test_forward_matches_hand_evaluation():
    model = tiny_classifier()
    xs = [(2.0, -1.0), (0.0, 0.0), (-3.0, 4.0), (1.5, 2.5)]
    got = forward(model, np.array(xs))
    want = [hand_forward(x) for x in xs]
    assert np.allclose(got[:, 0], want, atol=1e-12)


def test_forward_shape_error():
    with pytest.raises(ShapeError):
        forward(tiny_classifier(), np.zeros((4, 3)))


def test_classifier_outputs_in_open_unit_interval():
    rng = np.random.default_rng(3)
    model = build_model(5, 3, ModelKind.CLASSIFIER, [8], seed=1)
    out = forward(model, rng.normal(size=(50, 5)))
    assert np.all(out > 0.0) and np.all(out < 1.0)


def test_classifier_requires_layers_and_sigmoid():
    with pytest.raises(ConfigError):
        MLPModel([], ModelKind.CLASSIFIER)
    l = Layer(np.zeros((2, 1)), np.zeros(1), Activation.RELU)
    with pytest.raises(ConfigError):
        MLPModel([l], ModelKind.CLASSIFIER)


def test_layer_dims_must_chain():
    l1 = Layer(np.zeros((2, 3)), np.zeros(3), Activation.RELU)
    l2 = Layer(np.zeros((4, 1)), np.zeros(1), Activation.SIGMOID)
    with pytest.raises(ShapeError):
        MLPModel([l1, l2], ModelKind.CLASSIFIER)


def test_layer_spec_validates_dims():
    with pytest.raises(ConfigError):
        LayerSpec(0, 3, Activation.RELU)


def test_bce_all_half_is_ln2():
    rng = np.random.default_rng(5)
    for _ in range(5):
        y = (rng.random((6, 3)) < 0.5).astype(float)
        p = np.full((6, 3), 0.5)
        assert abs(bce_loss(p, y) - math.log(2.0)) < 1e-15


def test_bce_perfect_prediction_is_clamp_bounded():
    y = np.array([[1.0, 0.0], [0.0, 1.0]])
    # p == y hits the clamp; the loss is -ln(1 - 1e-7) per element
    assert bce_loss(y, y) < 2e-7


def test_bce_derived_value():
    p = np.array([[0.8, 0.3]])
    y = np.array([[1.0, 0.0]])
    want = -(math.log(0.8) + math.log(0.7)) / 2.0
    assert abs(bce_loss(p, y) - want) < 1e-12


def test_bce_rejects_bad_shapes_and_targets():
    with pytest.raises(ShapeError):
        bce_loss(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        bce_loss(np.full((1, 2), 0.5), np.array([[0.0, 2.0]]))


def test_bce_nonnegative_random():
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = rng.uniform(0.01, 0.99, size=(5, 4))
        y = (rng.random((5, 4)) < 0.5).astype(float)
        assert bce_loss(p, y) >= 0.0


def test_mse_values():
    a = np.array([[1.0, 2.0]])
    assert mse_loss(a, a) == 0.0
    assert mse_loss(np.array([[1.0, 2.0]]), np.array([[0.0, 0.0]])) == 2.5


def test_mse_matches_scalar_computation():
    rng = np.random.default_rng(2)
    p = rng.normal(size=(4, 3))
    y = rng.normal(size=(4, 3))
    want = sum((p[i, j] - y[i, j]) ** 2 for i in range(4) for j in range(3)) / 12.0
    assert abs(mse_loss(p, y) - want) < 1e-12


def test_train_zero_learning_rate_is_noop():
    model = build_model(3, 2, ModelKind.CLASSIFIER, [4], seed=9)
    before = [l.weights.copy() for l in model.layers]
    rng = np.random.default_rng(0)
    X = rng.normal(size=(10, 3))
    Y = (rng.random((10, 2)) < 0.5).astype(float)
    _, report = train(model, X, Y, TrainConfig(learning_rate=0.0, epochs=1,
                                               batch_size=5, seed=0))
    assert len(report.epoch_losses) == 1
    for layer, w in zip(model.layers, before):
        assert np.array_equal(layer.weights, w)


def test_train_reduces_loss_on_separable_data():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(80, 2))
    y = (X[:, 0] + X[:, 1] > 0).astype(float)[:, None]
    model = build_model(2, 1, ModelKind.CLASSIFIER, [8], seed=0)
    _, report = train(model, X, y, TrainConfig(learning_rate=0.1, epochs=500,
                                               batch_size=16, seed=0))
    assert len(report.epoch_losses) == 500
    assert report.epoch_losses[-1] < report.epoch_losses[0]
    assert all(np.isfinite(v) and v >= 0.0 for v in report.epoch_losses)


def test_train_deterministic_given_seed():
    rng = np.random.default_rng(13)
    X = rng.normal(size=(30, 3))
    Y = (rng.random((30, 2)) < 0.4).astype(float)

    def run():
        m = build_model(3, 2, ModelKind.CLASSIFIER, [6], seed=4)
        m, _ = train(m, X, Y, TrainConfig(epochs=20, batch_size=8, seed=21))
        return m

    a, b = run(), run()
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.weights, lb.weights)
        assert np.array_equal(la.biases, lb.biases)


def test_train_divergence_names_epoch():
    # MSE regressor with an absurd step size blows up immediately
    rng = np.random.default_rng(1)
    X = rng.normal(size=(16, 2)) * 10.0
    Y = rng.normal(size=(16, 1)) * 10.0
    model = build_model(2, 1, ModelKind.REGRESSOR, [4], seed=0)
    cfg = TrainConfig(learning_rate=1e12, epochs=50, batch_size=4, seed=0,
                      loss=LossKind.MSE)
    with pytest.raises(TrainingDivergedError) as err:
        train(model, X, Y, cfg)
    assert "epoch" in str(err.value)
    assert err.value.epoch >= 0


def test_train_updates_the_layers_own_arrays():
    # training runs on one flat parameter vector; the model's arrays are
    # updated in place and share no memory with it or with each other
    rng = np.random.default_rng(2)
    X = rng.normal(size=(12, 3))
    Y = (rng.random((12, 2)) < 0.5).astype(float)
    model = build_model(3, 2, ModelKind.CLASSIFIER, [4, 3], seed=1)
    arrays = [a for l in model.layers for a in (l.weights, l.biases)]
    before = [a.copy() for a in arrays]
    train(model, X, Y, TrainConfig(epochs=2, batch_size=5, seed=0))
    after = [a for l in model.layers for a in (l.weights, l.biases)]
    assert all(a is b for a, b in zip(arrays, after))
    assert not any(np.array_equal(a, b) for a, b in zip(after, before))
    assert all(a.base is None for a in after)
    snapshot = [a.copy() for a in after]
    forward(model, X)
    assert all(np.array_equal(a, b) for a, b in zip(after, snapshot))


def test_bce_training_needs_a_sigmoid_output():
    rng = np.random.default_rng(0)
    model = build_model(2, 1, ModelKind.REGRESSOR, [3], seed=0)
    with pytest.raises(ConfigError, match="sigmoid output"):
        train(model, rng.normal(size=(4, 2)), np.zeros((4, 1)),
              TrainConfig(batch_size=2, loss=LossKind.BCE))


def test_sigmoid_equals_the_two_sided_form():
    # 1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) below, bit for bit,
    # including the infinities, signed zeros, subnormals and saturation
    rng = np.random.default_rng(4)
    special = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-300, -1e-300,
               36.7, -36.7, 709.8, -709.8, 745.2, -745.2, 1e308, -1e308]
    for scale in (1.0, 30.0, 800.0):
        z = np.concatenate([special, rng.normal(size=500) * scale])
        pos = z >= 0
        want = np.empty_like(z)
        with np.errstate(over="ignore"):
            want[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
            want[~pos] = np.exp(z[~pos]) / (1.0 + np.exp(z[~pos]))
            got = _sigmoid(z.copy(), np.empty_like(z))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=-0.1).validate()
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0).validate()
    rng = np.random.default_rng(0)
    model = build_model(2, 1, ModelKind.CLASSIFIER, [3], seed=0)
    with pytest.raises(ConfigError):
        train(model, rng.normal(size=(4, 2)),
              np.zeros((4, 1)), TrainConfig(batch_size=5))


def test_grad_check_small_nets():
    rng = np.random.default_rng(0)
    for seed in range(5):
        model = build_model(3, 2, ModelKind.CLASSIFIER, [4], seed=seed)
        X = rng.normal(size=(6, 3))
        Y = (rng.random((6, 2)) < 0.5).astype(float)
        assert grad_check(model, X, Y) < 1e-4


def test_grad_check_regressor():
    rng = np.random.default_rng(8)
    model = build_model(2, 2, ModelKind.REGRESSOR, [3], seed=2)
    X = rng.normal(size=(5, 2))
    Y = rng.normal(size=(5, 2))
    assert grad_check(model, X, Y) < 1e-4


def test_grad_check_detects_fault_injection():
    rng = np.random.default_rng(4)
    model = build_model(2, 1, ModelKind.CLASSIFIER, [3], seed=1)
    X = rng.normal(size=(6, 2))
    Y = (rng.random((6, 1)) < 0.5).astype(float)
    scaled = [(2.0 * dW, 2.0 * db) for dW, db in loss_gradients(model, X, Y)]
    assert grad_check(model, X, Y, analytic=scaled) > 0.1


def test_build_model_glorot_bounds_and_seed():
    model = build_model(4, 2, ModelKind.CLASSIFIER, [8, 5], seed=3)
    dims = [(4, 8), (8, 5), (5, 2)]
    for layer, (fi, fo) in zip(model.layers, dims):
        assert layer.weights.shape == (fi, fo)
        limit = math.sqrt(6.0 / (fi + fo))
        assert np.all(np.abs(layer.weights) <= limit)
        assert np.all(layer.biases == 0.0)
    again = build_model(4, 2, ModelKind.CLASSIFIER, [8, 5], seed=3)
    for a, b in zip(model.layers, again.layers):
        assert np.array_equal(a.weights, b.weights)


def test_save_load_round_trip_bit_exact(tmp_path):
    model = build_model(3, 2, ModelKind.CLASSIFIER, [5], seed=6)
    path = tmp_path / "model.json"
    save_model(model, path, meta={"note": "fixture"})
    loaded, meta = load_model(path)
    assert meta == {"note": "fixture"}
    assert loaded.kind is model.kind
    for a, b in zip(model.layers, loaded.layers):
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)
        assert a.activation is b.activation
    x = np.random.default_rng(0).normal(size=(9, 3))
    assert np.array_equal(forward(model, x), forward(loaded, x))


@pytest.mark.parametrize("text,missing", [
    ('{"format_version": 1, "kind": "regressor"}', "layers"),
    ('{"format_version": 1, "layers": []}', "kind"),
    ('{"format_version": 1, "kind": "regressor", "layers": '
     '[{"input_dim": 1, "output_dim": 1, "activation": "identity", '
     '"biases": [0.0]}]}', "weights"),
])
def test_load_names_missing_field_and_file(tmp_path, text, missing):
    path = tmp_path / "m.json"
    path.write_text(text)
    with pytest.raises(DataError) as err:
        load_model(path)
    assert str(path) in str(err.value) and repr(missing) in str(err.value)


def test_load_rejects_meta_that_is_not_an_object(tmp_path):
    path = tmp_path / "m.json"
    save_model(build_model(2, 1, ModelKind.REGRESSOR, [2], seed=0), path)
    path.write_text(path.read_text().replace('"meta": {}', '"meta": []'))
    with pytest.raises(DataError):
        load_model(path)


@pytest.mark.parametrize("layer", [
    # layer 0 has 2 outputs, this layer takes 3 inputs
    {"input_dim": 3, "output_dim": 1, "activation": "sigmoid",
     "weights": [[0.0], [0.0], [0.0]], "biases": [0.0]},
    # a classifier's last activation must be sigmoid
    {"input_dim": 2, "output_dim": 1, "activation": "relu",
     "weights": [[0.0], [0.0]], "biases": [0.0]},
], ids=["layers-do-not-chain", "classifier-ends-in-relu"])
def test_load_rejects_a_model_that_cannot_be_built(tmp_path, layer):
    path = tmp_path / "m.json"
    save_model(build_model(2, 1, ModelKind.CLASSIFIER, [2], seed=0), path)
    doc = json.loads(path.read_text())
    doc["layers"][1] = layer
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError) as err:
        load_model(path)
    assert str(path) in str(err.value)


def test_load_rejects_unknown_format_version(tmp_path):
    model = build_model(2, 1, ModelKind.REGRESSOR, [2], seed=0)
    path = tmp_path / "m.json"
    save_model(model, path)
    text = path.read_text().replace('"format_version": 1', '"format_version": 99')
    path.write_text(text)
    with pytest.raises(ConfigError):
        load_model(path)
