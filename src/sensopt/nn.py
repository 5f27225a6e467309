"""Minimal dense feed-forward networks with backpropagation.

Two flavours share one representation: a sigmoid-output multi-label
classifier and a linear-output regressor. Everything is plain numpy,
trained with seeded mini-batch SGD so results are bit-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ShapeError, TrainingDivergedError

FORMAT_VERSION = 1

# Probabilities are clamped to [BCE_EPS, 1 - BCE_EPS] inside bce_loss only;
# forward outputs are never altered.
BCE_EPS = 1e-7


class Activation(Enum):
    RELU = "relu"
    SIGMOID = "sigmoid"
    IDENTITY = "identity"


class ModelKind(Enum):
    CLASSIFIER = "classifier"
    REGRESSOR = "regressor"


class LossKind(Enum):
    BCE = "bce"
    MSE = "mse"


@dataclass(frozen=True)
class LayerSpec:
    input_dim: int
    output_dim: int
    activation: Activation

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 1:
            raise ConfigError(
                f"layer dims must be >= 1, got {self.input_dim}x{self.output_dim}"
            )


@dataclass
class Layer:
    weights: np.ndarray  # (input_dim, output_dim)
    biases: np.ndarray  # (output_dim,)
    activation: Activation

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.biases = np.asarray(self.biases, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ShapeError(f"layer weights must be 2-D, got {self.weights.shape}")
        if self.biases.shape != (self.weights.shape[1],):
            raise ShapeError(
                f"bias shape {self.biases.shape} does not match "
                f"output dim {self.weights.shape[1]}"
            )

    @property
    def input_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def output_dim(self) -> int:
        return self.weights.shape[1]


@dataclass
class MLPModel:
    """A stack of dense layers. An empty regressor acts as the identity map."""

    layers: list[Layer]
    kind: ModelKind

    def __post_init__(self):
        if not self.layers:
            if self.kind is ModelKind.CLASSIFIER:
                raise ConfigError("a classifier needs at least one sigmoid layer")
            return
        for a, b in zip(self.layers, self.layers[1:]):
            if a.output_dim != b.input_dim:
                raise ShapeError(
                    f"layer dims do not chain: {a.output_dim} -> {b.input_dim}"
                )
        final = self.layers[-1].activation
        if self.kind is ModelKind.CLASSIFIER and final is not Activation.SIGMOID:
            raise ConfigError("classifier final activation must be sigmoid")
        if self.kind is ModelKind.REGRESSOR and final is not Activation.IDENTITY:
            raise ConfigError("regressor final activation must be identity")

    @property
    def n_inputs(self) -> int | None:
        return self.layers[0].input_dim if self.layers else None

    @property
    def n_outputs(self) -> int | None:
        return self.layers[-1].output_dim if self.layers else None


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 300
    batch_size: int = 16
    seed: int = 0
    loss: LossKind = LossKind.BCE
    hidden_dims: list[int] = field(default_factory=lambda: [64])

    def validate(self):
        # learning_rate 0 is allowed: "train is a no-op" is a tested contract.
        if not np.isfinite(self.learning_rate) or self.learning_rate < 0:
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if any(h < 1 for h in self.hidden_dims):
            raise ConfigError(f"hidden dims must be >= 1, got {self.hidden_dims}")


@dataclass
class TrainReport:
    epoch_losses: list[float]


def check_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 array or raise."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _activate(z: np.ndarray, act: Activation) -> np.ndarray:
    if act is Activation.RELU:
        return np.maximum(z, 0.0)
    if act is Activation.SIGMOID:
        return _sigmoid(z)
    return z


def _activation_grad(z: np.ndarray, a: np.ndarray, act: Activation) -> np.ndarray:
    if act is Activation.RELU:
        return (z > 0).astype(np.float64)
    if act is Activation.SIGMOID:
        return a * (1.0 - a)
    return np.ones_like(z)


def _forward_pass(model: MLPModel, X: np.ndarray):
    """Return (pre-activations, activations); activations[0] is X."""
    zs = []
    acts = [X]
    a = X
    for layer in model.layers:
        z = a @ layer.weights + layer.biases
        a = _activate(z, layer.activation)
        zs.append(z)
        acts.append(a)
    return zs, acts


def forward(model: MLPModel, inputs) -> np.ndarray:
    """Run the network on a batch of rows.

    Classifier outputs are sigmoid probabilities, strictly inside (0, 1)
    for inputs of sane magnitude (float64 saturates only past |z| ~ 700).
    """
    X = check_matrix(inputs, "inputs")
    if not model.layers:
        return X.copy()
    if X.shape[1] != model.n_inputs:
        raise ShapeError(
            f"input has {X.shape[1]} columns, model expects {model.n_inputs}"
        )
    _, acts = _forward_pass(model, X)
    out = acts[-1]
    if not np.isfinite(out).all():
        raise ArithmeticError("forward pass produced non-finite values")
    return out


def bce_loss(predictions, targets) -> float:
    """Mean binary cross-entropy over all elements, clamped for finiteness."""
    p = check_matrix(predictions, "predictions")
    y = check_matrix(targets, "targets")
    if p.shape != y.shape:
        raise ShapeError(f"shape mismatch: {p.shape} vs {y.shape}")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("bce targets must be binary (0 or 1)")
    return _raw_loss(p, y, LossKind.BCE)


def mse_loss(predictions, targets) -> float:
    """Mean squared element-wise difference."""
    p = check_matrix(predictions, "predictions")
    y = check_matrix(targets, "targets")
    if p.shape != y.shape:
        raise ShapeError(f"shape mismatch: {p.shape} vs {y.shape}")
    return _raw_loss(p, y, LossKind.MSE)


def _raw_loss(P, Y, loss: LossKind) -> float:
    """Loss without finiteness validation; a diverged run must yield a
    non-finite number here rather than a shape/value error."""
    if loss is LossKind.BCE:
        pc = np.clip(P, BCE_EPS, 1.0 - BCE_EPS)
        terms = Y * np.log(pc) + (1.0 - Y) * np.log(1.0 - pc)
        return float(-np.mean(terms))
    d = P - Y
    return float(np.mean(d * d))


def _backward(model: MLPModel, X, Y, loss: LossKind):
    """One forward/backward sweep; returns (loss value, per-layer grads)."""
    zs, acts = _forward_pass(model, X)
    P = acts[-1]
    value = _raw_loss(P, Y, loss)
    n_elem = P.size

    if loss is LossKind.BCE:
        if model.layers[-1].activation is not Activation.SIGMOID:
            raise ConfigError("bce loss requires a sigmoid output layer")
        # d(loss)/dz for sigmoid+BCE collapses to (p - y) / N.
        delta = (P - Y) / n_elem
    else:
        dP = 2.0 * (P - Y) / n_elem
        delta = dP * _activation_grad(zs[-1], P, model.layers[-1].activation)

    grads = [None] * len(model.layers)
    for k in range(len(model.layers) - 1, -1, -1):
        a_prev = acts[k]
        grads[k] = (a_prev.T @ delta, delta.sum(axis=0))
        if k > 0:
            delta = (delta @ model.layers[k].weights.T) * _activation_grad(
                zs[k - 1], acts[k], model.layers[k - 1].activation
            )
    return value, grads


def loss_gradients(model: MLPModel, X, Y, loss: LossKind | None = None):
    """Analytic gradients of the loss w.r.t. every weight and bias.

    Returns a list of (dW, db) pairs, one per layer. The loss defaults to
    BCE for classifiers and MSE for regressors.
    """
    X = check_matrix(X, "X")
    Y = check_matrix(Y, "Y")
    if X.shape[0] != Y.shape[0]:
        raise ShapeError(f"X has {X.shape[0]} rows, Y has {Y.shape[0]}")
    if loss is None:
        loss = LossKind.BCE if model.kind is ModelKind.CLASSIFIER else LossKind.MSE
    if not model.layers:
        return []
    _, grads = _backward(model, X, Y, loss)
    return grads


def train(model: MLPModel, X, Y, cfg: TrainConfig):
    """Mini-batch SGD, in place. Returns (model, TrainReport).

    Deterministic given cfg.seed: the seed drives epoch shuffling only
    (initialization is seeded in build_model).
    """
    cfg.validate()
    if not model.layers:
        raise ConfigError("cannot train a model with no layers")
    X = check_matrix(X, "X")
    Y = check_matrix(Y, "Y")
    m = X.shape[0]
    if X.shape[0] != Y.shape[0]:
        raise ShapeError(f"X has {X.shape[0]} rows, Y has {Y.shape[0]}")
    if model.layers and X.shape[1] != model.n_inputs:
        raise ShapeError(
            f"X has {X.shape[1]} columns, model expects {model.n_inputs}"
        )
    if model.layers and Y.shape[1] != model.n_outputs:
        raise ShapeError(
            f"Y has {Y.shape[1]} columns, model outputs {model.n_outputs}"
        )
    if cfg.batch_size > m:
        raise ConfigError(f"batch_size {cfg.batch_size} exceeds sample count {m}")
    if cfg.loss is LossKind.BCE and not np.all((Y == 0.0) | (Y == 1.0)):
        raise ValueError("bce training targets must be binary")

    rng = np.random.default_rng(cfg.seed)
    epoch_losses = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(m)
        total = 0.0
        for start in range(0, m, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            with np.errstate(all="ignore"):
                value, grads = _backward(model, X[idx], Y[idx], cfg.loss)
            if not np.isfinite(value):
                raise TrainingDivergedError(epoch, value)
            total += value * len(idx)
            for layer, (dW, db) in zip(model.layers, grads):
                layer.weights -= cfg.learning_rate * dW
                layer.biases -= cfg.learning_rate * db
        mean_loss = total / m
        if not np.isfinite(mean_loss) or not all(
            np.isfinite(l.weights).all() and np.isfinite(l.biases).all()
            for l in model.layers
        ):
            raise TrainingDivergedError(epoch, mean_loss)
        epoch_losses.append(float(mean_loss))
    return model, TrainReport(epoch_losses)


def grad_check(model: MLPModel, X, Y, step: float = 1e-5, analytic=None) -> float:
    """Max relative error between analytic and central-difference gradients.

    Intended for small models (<= a few hundred parameters). `analytic`
    lets callers substitute their own gradients (e.g. fault injection);
    by default the model's own backprop is checked.
    """
    X = check_matrix(X, "X")
    Y = check_matrix(Y, "Y")
    if not model.layers:
        return 0.0
    loss_fn = bce_loss if model.kind is ModelKind.CLASSIFIER else mse_loss
    if analytic is None:
        analytic = loss_gradients(model, X, Y)

    worst = 0.0
    for layer, (dW, db) in zip(model.layers, analytic):
        for arr, grad in ((layer.weights, dW), (layer.biases, db)):
            flat = arr.reshape(-1)
            gflat = np.asarray(grad, dtype=np.float64).reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                hi = loss_fn(forward(model, X), Y)
                flat[i] = orig - step
                lo = loss_fn(forward(model, X), Y)
                flat[i] = orig
                numeric = (hi - lo) / (2.0 * step)
                ga = gflat[i]
                err = abs(ga - numeric) / max(1.0, abs(ga), abs(numeric))
                worst = max(worst, err)
    return worst


def build_model(
    n_inputs: int,
    n_outputs: int,
    kind: ModelKind,
    hidden_dims,
    seed: int = 0,
) -> MLPModel:
    """Glorot-uniform initialized network, deterministic given seed."""
    if n_inputs < 1 or n_outputs < 1:
        raise ConfigError(f"model dims must be >= 1, got {n_inputs}->{n_outputs}")
    final = Activation.SIGMOID if kind is ModelKind.CLASSIFIER else Activation.IDENTITY
    dims = [n_inputs, *hidden_dims, n_outputs]
    specs = [
        LayerSpec(dims[i], dims[i + 1],
                  Activation.RELU if i < len(dims) - 2 else final)
        for i in range(len(dims) - 1)
    ]
    rng = np.random.default_rng(seed)
    layers = []
    for spec in specs:
        limit = np.sqrt(6.0 / (spec.input_dim + spec.output_dim))
        w = rng.uniform(-limit, limit, size=(spec.input_dim, spec.output_dim))
        layers.append(Layer(w, np.zeros(spec.output_dim), spec.activation))
    return MLPModel(layers, kind)


def save_model(model: MLPModel, path, meta: dict | None = None):
    """Write a versioned JSON snapshot; round-trips bit-exactly."""
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": model.kind.value,
        "layers": [
            {
                "input_dim": l.input_dim,
                "output_dim": l.output_dim,
                "activation": l.activation.value,
                "weights": [[float(v) for v in row] for row in l.weights],
                "biases": [float(v) for v in l.biases],
            }
            for l in model.layers
        ],
        "meta": meta or {},
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_model(path):
    """Read a snapshot written by save_model. Returns (model, meta).

    A file that is not JSON, or lacks or garbles a field, raises DataError
    naming it; an unsupported format_version raises ConfigError."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except ValueError as e:
        raise DataError(f"{path}: not a readable model file ({e})") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path}: not a readable model file (no JSON object)")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ConfigError(
            f"unsupported model format_version {doc.get('format_version')!r}"
        )
    try:
        layers = [
            Layer(
                np.asarray(spec["weights"], dtype=np.float64).reshape(
                    spec["input_dim"], spec["output_dim"]
                ),
                np.asarray(spec["biases"], dtype=np.float64),
                Activation(spec["activation"]),
            )
            for spec in doc["layers"]
        ]
        kind = ModelKind(doc["kind"])
    except KeyError as e:
        raise DataError(f"{path}: model file lacks field {e.args[0]!r}") from None
    except (TypeError, ValueError) as e:
        raise DataError(f"{path}: malformed model file ({e})") from None
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise DataError(f"{path}: malformed model file (meta is not an object)")
    return MLPModel(layers, kind), meta
