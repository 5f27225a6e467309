"""Minimal dense feed-forward networks with backpropagation.

Two flavours share one representation: a sigmoid-output multi-label
classifier and a linear-output regressor. Everything is plain numpy,
trained with seeded mini-batch SGD so results are bit-reproducible.

Training runs one SGD step (`_SGDStep`), the only backward pass, over a
flat parameter vector and buffers allocated once per call. Its contract is
bit identity with the textbook loop: per batch, run forward, take the
clamped mean loss, backpropagate, then subtract learning_rate * grad from
each array. Every weight, bias and per-epoch loss comes out with the same
bits, so model.json does not depend on how the step is organised. One
branch-free sigmoid (`_sigmoid`) is shared by `forward`, training and
the sensitivity kernel.
"""

from __future__ import annotations

import json
import math
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
    """A non-empty stack of dense layers."""

    layers: list[Layer]
    kind: ModelKind

    def __post_init__(self):
        if not self.layers:
            raise ConfigError("a model needs at least one layer")
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
    def n_inputs(self) -> int:
        return self.layers[0].input_dim

    @property
    def n_outputs(self) -> int:
        return self.layers[-1].output_dim


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


def _sigmoid(z: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the logistic function of z into `out` (not z) and return it;
    z is overwritten as workspace.

    Branch-free: with e = exp(-|z|) the result is exp(min(z, 0)) / (1 + e),
    whose numerator is 1 where z >= 0 and e elsewhere. That is bit for bit
    the two-sided form 1 / (1 + exp(-z)) for z >= 0 and
    exp(z) / (1 + exp(z)) below, on every input but NaN (+-inf and +-0
    included), and it needs no mask or temporary array.
    """
    np.abs(z, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.add(out, 1.0, out=out)
    np.minimum(z, 0.0, out=z)
    np.exp(z, out=z)
    return np.divide(z, out, out=out)


def _activate(z: np.ndarray, act: Activation,
              out: np.ndarray | None = None) -> np.ndarray:
    """Apply `act` to the pre-activation z in z's memory where it can: ReLU
    and identity return z itself; sigmoid writes into `out` (a new array
    when None) and overwrites z."""
    if act is Activation.RELU:
        return np.maximum(z, 0.0, out=z)
    if act is Activation.SIGMOID:
        return _sigmoid(z, np.empty_like(z) if out is None else out)
    return z


def forward(model: MLPModel, inputs) -> np.ndarray:
    """Run the network on a batch of rows.

    Classifier outputs are sigmoid probabilities, strictly inside (0, 1)
    for inputs of sane magnitude (float64 saturates only past |z| ~ 700).
    """
    X = check_matrix(inputs, "inputs")
    if X.shape[1] != model.n_inputs:
        raise ShapeError(
            f"input has {X.shape[1]} columns, model expects {model.n_inputs}"
        )
    a = X
    for layer in model.layers:
        z = a @ layer.weights
        z += layer.biases
        a = _activate(z, layer.activation)
    if not np.isfinite(a).all():
        raise ArithmeticError("forward pass produced non-finite values")
    return a


def bce_loss(predictions, targets) -> float:
    """Mean binary cross-entropy over all elements, clamped for finiteness."""
    p = check_matrix(predictions, "predictions")
    y = check_matrix(targets, "targets")
    if p.shape != y.shape:
        raise ShapeError(f"shape mismatch: {p.shape} vs {y.shape}")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("bce targets must be binary (0 or 1)")
    return float(np.mean(_loss_terms(p, y, LossKind.BCE)))


def mse_loss(predictions, targets) -> float:
    """Mean squared element-wise difference."""
    p = check_matrix(predictions, "predictions")
    y = check_matrix(targets, "targets")
    if p.shape != y.shape:
        raise ShapeError(f"shape mismatch: {p.shape} vs {y.shape}")
    return float(np.mean(_loss_terms(p, y, LossKind.MSE)))


def _loss_terms(P, Y, loss: LossKind) -> np.ndarray:
    """Per-element loss terms, whose mean is the loss. No finiteness
    validation: a diverged run must yield a non-finite number here rather
    than a shape/value error. BCE's terms are the negated log-likelihoods
    -(y log p + (1 - y) log(1 - p)) with p clamped; for y in {0, 1} each
    log-likelihood is strictly negative, so no sum of them cancels to a
    signed zero and their mean is bit for bit minus the log-likelihoods'
    mean."""
    if loss is LossKind.BCE:
        pc = np.clip(P, BCE_EPS, 1.0 - BCE_EPS)
        return -(Y * np.log(pc) + (1.0 - Y) * np.log(1.0 - pc))
    d = P - Y
    return d * d


def _check_training_data(model: MLPModel, X, Y) -> tuple:
    """(X, Y) as finite float64 matrices matching the model's dimensions."""
    X = check_matrix(X, "X")
    Y = check_matrix(Y, "Y")
    if X.shape[0] != Y.shape[0]:
        raise ShapeError(f"X has {X.shape[0]} rows, Y has {Y.shape[0]}")
    if X.shape[1] != model.n_inputs:
        raise ShapeError(
            f"X has {X.shape[1]} columns, model expects {model.n_inputs}"
        )
    if Y.shape[1] != model.n_outputs:
        raise ShapeError(
            f"Y has {Y.shape[1]} columns, model outputs {model.n_outputs}"
        )
    return X, Y


class _SGDStep:
    """The gradient of one batch's loss, the only backward pass.

    Every weight and bias is held in one flat vector `theta` (layer by
    layer, W then b) and the gradient in one flat `grad` of the same
    layout, so an update is two calls whatever the depth. Each batch size
    gets its own buffers for every layer's pre-activation (which ReLU
    overwrites in place, and which sigmoid uses as workspace), sigmoid
    output, delta and ReLU mask, and every result is written into them, so
    a step allocates no arrays. The output layer is written into the P the
    caller passes. The arithmetic is the textbook one, operation for
    operation: delta = (P - Y) / N for sigmoid with BCE,
    2 (P - Y) / N times the output's derivative for MSE, dW = a_prev.T @
    delta, db = delta summed over rows, and delta @ W.T times the previous
    layer's derivative ((a > 0) for ReLU, which equals (z > 0); a (1 - a)
    for sigmoid; nothing for identity).
    """

    def __init__(self, model: MLPModel, loss: LossKind):
        final = model.layers[-1].activation
        if loss is LossKind.BCE and final is not Activation.SIGMOID:
            raise ConfigError("bce loss requires a sigmoid output layer")
        self.loss = loss
        self.activations = [layer.activation for layer in model.layers]
        self.theta = np.concatenate([p.ravel() for layer in model.layers
                                     for p in (layer.weights, layer.biases)])
        self.grad = np.empty_like(self.theta)
        self.params = _layer_views(self.theta, model)
        self.grads = _layer_views(self.grad, model)
        self._buffers = {}

    def _buffers_for(self, size: int) -> list:
        if size not in self._buffers:
            self._buffers[size] = [
                (np.empty((size, W.shape[1])), np.empty((size, W.shape[1])),
                 np.empty((size, W.shape[1])),
                 np.empty((size, W.shape[1]), dtype=bool))
                for W, _ in self.params]
        return self._buffers[size]

    def gradient(self, X, Y, P):
        """Run the batch X forward, writing the output layer into P, and
        backpropagate the loss against Y into `grad`."""
        buffers = self._buffers_for(X.shape[0])
        last = len(self.params) - 1
        acts = [X]
        for k, (W, b) in enumerate(self.params):
            z, out, _, _ = buffers[k]
            act = self.activations[k]
            if k == last:
                out = P
                if act is not Activation.SIGMOID:
                    z = P
            np.matmul(acts[k], W, out=z)
            z += b
            acts.append(_activate(z, act, out))

        delta = buffers[last][2]
        np.subtract(P, Y, out=delta)
        if self.loss is LossKind.MSE:
            np.multiply(delta, 2.0, out=delta)
        np.divide(delta, P.size, out=delta)
        if self.loss is LossKind.MSE and self.activations[last] is Activation.SIGMOID:
            _times_sigmoid_grad(delta, P, buffers[last][0])
        for k in range(last, -1, -1):
            delta = buffers[k][2]
            dW, db = self.grads[k]
            np.matmul(acts[k].T, delta, out=dW)
            np.add.reduce(delta, axis=0, out=db)
            if k:
                work, _, below, mask = buffers[k - 1]
                np.matmul(delta, self.params[k][0].T, out=below)
                act = self.activations[k - 1]
                if act is Activation.RELU:
                    np.greater(acts[k], 0.0, out=mask)
                    np.multiply(below, mask, out=below)
                elif act is Activation.SIGMOID:
                    _times_sigmoid_grad(below, acts[k], work)

    def write_back(self, model: MLPModel):
        """Copy theta into the model's own weight and bias arrays."""
        for layer, (W, b) in zip(model.layers, self.params):
            layer.weights[...] = W
            layer.biases[...] = b


def _layer_views(flat: np.ndarray, model: MLPModel) -> list:
    """(W, b) views of a flat parameter-shaped vector, one pair per layer."""
    views, lo = [], 0
    for layer in model.layers:
        n_in, n_out = layer.weights.shape
        W = flat[lo:lo + n_in * n_out].reshape(n_in, n_out)
        lo += n_in * n_out
        views.append((W, flat[lo:lo + n_out]))
        lo += n_out
    return views


def _times_sigmoid_grad(delta, a, work):
    """delta *= a * (1 - a), the sigmoid's derivative at output a."""
    np.subtract(1.0, a, out=work)
    np.multiply(a, work, out=work)
    np.multiply(delta, work, out=delta)


def loss_gradients(model: MLPModel, X, Y, loss: LossKind | None = None):
    """Analytic gradients of the loss w.r.t. every weight and bias, from
    one SGD step over the whole of (X, Y).

    Returns a list of (dW, db) pairs, one per layer. The loss defaults to
    BCE for classifiers and MSE for regressors.
    """
    X, Y = _check_training_data(model, X, Y)
    if loss is None:
        loss = LossKind.BCE if model.kind is ModelKind.CLASSIFIER else LossKind.MSE
    step = _SGDStep(model, loss)
    with np.errstate(all="ignore"):
        step.gradient(X, Y, np.empty(Y.shape))
    return step.grads


def train(model: MLPModel, X, Y, cfg: TrainConfig):
    """Mini-batch SGD, in place. Returns (model, TrainReport).

    Deterministic given cfg.seed: the seed drives epoch shuffling only
    (initialization is seeded in build_model). Each epoch gathers X and Y
    in its shuffled order once, so a batch is a contiguous slice, and runs
    one `_SGDStep` per batch followed by theta -= learning_rate * grad.
    Every weight, bias and loss equals, bit for bit, the textbook loop that
    takes each batch forward, computes its mean loss, backpropagates and
    then updates each array (tests/test_properties.py holds train to one).

    The loss curve (`epoch_losses`, train_metrics.json's `loss_curve`) is
    computed once per epoch from the batch outputs, which the step writes
    into one epoch-long array: each batch's mean loss under the weights it
    ran with, weighted by its rows, in batch order.
    Divergence is therefore found at the end of an epoch. It is reported as
    that epoch with the loss of its first batch whose loss is not finite,
    or with the epoch's mean loss when only the weights went non-finite;
    either way the weights have by then taken the rest of the epoch's steps.
    """
    cfg.validate()
    X, Y = _check_training_data(model, X, Y)
    m, size = X.shape[0], cfg.batch_size
    if size > m:
        raise ConfigError(f"batch_size {size} exceeds sample count {m}")
    if cfg.loss is LossKind.BCE and not np.all((Y == 0.0) | (Y == 1.0)):
        raise ValueError("bce training targets must be binary")

    step = _SGDStep(model, cfg.loss)
    rng = np.random.default_rng(cfg.seed)
    # C-ordered whatever the inputs' order, like the rows X[order] gathers.
    Xe, Ye, Pe = np.empty(X.shape), np.empty(Y.shape), np.empty(Y.shape)
    starts = range(0, m, size)
    epoch_losses = []
    try:
        with np.errstate(all="ignore"):
            for epoch in range(cfg.epochs):
                order = rng.permutation(m)
                # order is a permutation, so "clip" never clips; it spares
                # the temporary copy that mode "raise" makes of `out`.
                np.take(X, order, axis=0, out=Xe, mode="clip")
                np.take(Y, order, axis=0, out=Ye, mode="clip")
                for lo in starts:
                    step.gradient(Xe[lo:lo + size], Ye[lo:lo + size],
                                  Pe[lo:lo + size])
                    step.grad *= cfg.learning_rate
                    step.theta -= step.grad
                terms = _loss_terms(Pe, Ye, cfg.loss)
                total = 0.0
                for lo in starts:
                    # np.mean's arithmetic: the block's pairwise sum / size
                    block = terms[lo:lo + size]
                    value = float(np.add.reduce(block, axis=None) / block.size)
                    if not math.isfinite(value):
                        raise TrainingDivergedError(epoch, value)
                    total += value * block.shape[0]
                mean_loss = total / m
                if not math.isfinite(mean_loss) or not np.isfinite(step.theta).all():
                    raise TrainingDivergedError(epoch, mean_loss)
                epoch_losses.append(mean_loss)
    finally:
        step.write_back(model)
    return model, TrainReport(epoch_losses)


def grad_check(model: MLPModel, X, Y, step: float = 1e-5, analytic=None) -> float:
    """Max relative error between analytic and central-difference gradients.

    Intended for small models (<= a few hundred parameters). `analytic`
    lets callers substitute their own gradients (e.g. fault injection);
    by default the model's own backprop is checked.
    """
    X = check_matrix(X, "X")
    Y = check_matrix(Y, "Y")
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

    A file that is not JSON, lacks or garbles a field, or describes no
    valid model (layers that do not chain, a wrong final activation)
    raises DataError naming it; an unsupported format_version raises
    ConfigError."""
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
        model = MLPModel(layers, ModelKind(doc["kind"]))
    except KeyError as e:
        raise DataError(f"{path}: model file lacks field {e.args[0]!r}") from None
    except (TypeError, ValueError) as e:
        raise DataError(f"{path}: malformed model file ({e})") from None
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise DataError(f"{path}: malformed model file (meta is not an object)")
    return model, meta
