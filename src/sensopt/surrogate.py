"""Distilled sensitivity surrogate.

Scoring an assignment against the classifier and reference set is exact but
costs a forward pass over the whole reference set. The surrogate is a small
regression network trained on sampled assignments and their exact scores:
its 2L outputs are the per-label lambda, then the per-label upsilon. Once
distilled it answers for a whole batch of assignments in one forward pass.

An assignment over n features is encoded as a length-2n vector: the first n
slots hold feature values (reference column means where unassigned), the
last n are a 0/1 mask marking which slots are actually fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .nn import (
    Layer,
    LossKind,
    MLPModel,
    ModelKind,
    TrainConfig,
    build_model,
    check_matrix,
    forward,
    load_model,
    save_model,
    train,
)
from .sensitivity import (
    FeatureAssignment,
    ReferenceSet,
    SensitivityKernel,
    _check_values,
    group_by_subset,
)

# 2: the outputs are lambda then upsilon, 2L wide; 1 predicted upsilon alone.
ENCODING_VERSION = 2


def encode(assignment: FeatureAssignment,
           reference: ReferenceSet) -> np.ndarray:
    """The 2n input row the surrogate consumes: each feature's assigned
    value, or the reference column mean where unassigned, then the 0/1
    mask of the assigned features."""
    return encode_all([assignment], reference)[0]


def encode_all(assignments: list, reference: ReferenceSet) -> np.ndarray:
    """(c, 2n): `encode` of each assignment, written one feature subset at
    a time, whose values are checked as the kernel checks a batch."""
    n = reference.n_features
    rows = np.zeros((len(assignments), 2 * n))
    rows[:, :n] = reference.column_means
    for subset, (at, values) in group_by_subset(assignments).items():
        _check_values(reference, subset, values)
        rows[np.ix_(at, subset)] = values
        rows[np.ix_(at, [n + j for j in subset])] = 1.0
    return rows


@dataclass
class DistillationSet:
    """Sampled assignments with their exact scores."""

    inputs: np.ndarray  # (S, 2n) encodings
    targets: np.ndarray  # (S, L) per-label sensitivities (upsilon)
    assignments: tuple  # the FeatureAssignments behind each row
    lambdas: np.ndarray  # (S, L) per-label mean predictions (lambda)

    @property
    def scores(self) -> np.ndarray:
        """(S, 2, L): each row's lambda and upsilon, the surrogate's outputs
        in `ScoreCache.lambda_upsilon`'s layout."""
        return np.stack((self.lambdas, self.targets), axis=1)

    @property
    def n_features(self) -> int:
        return self.inputs.shape[1] // 2

    @property
    def n_labels(self) -> int:
        return self.targets.shape[1]

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]


def build_distillation_set(model: MLPModel, reference: ReferenceSet,
                           n_samples: int,
                           max_arity: int | None = None,
                           seed: int = 0) -> DistillationSet:
    """Sample assignments and label them with exact sensitivity scores.

    Arity is uniform on [1, max_arity], the feature subset uniform without
    replacement, and each value uniform over that feature's candidate
    domain. max_arity defaults to min(n, 8). Each draw is written straight
    into its `encode` row; the kernel checks the values when it labels
    them.
    """
    domains = reference.grid
    if n_samples < 1:
        raise ConfigError(f"n_samples must be >= 1, got {n_samples}")
    n = reference.n_features
    if max_arity is None:
        max_arity = min(n, 8)
    if not 1 <= max_arity <= n:
        raise ConfigError(f"max_arity must be in [1, {n}], got {max_arity}")

    rng = np.random.default_rng(seed)
    inputs = np.zeros((n_samples, 2 * n))
    inputs[:, :n] = reference.column_means
    assignments = []
    for row in inputs:
        arity = int(rng.integers(1, max_arity + 1))
        subset = rng.choice(n, size=arity, replace=False).tolist()
        values = [float(domains[j][rng.integers(len(domains[j]))])
                  for j in subset]
        row[subset] = values
        row[[n + j for j in subset]] = 1.0
        assignments.append(FeatureAssignment(tuple(zip(subset, values))))
    # Labelled after every draw, one kernel batch per feature subset.
    lambdas, targets = SensitivityKernel(model, reference).score_assignments(
        assignments)
    return DistillationSet(inputs, targets, tuple(assignments), lambdas)


def split_holdout(dset: DistillationSet, holdout_fraction: float = 0.2):
    """Tail split for evaluation; rows were sampled i.i.d. so the tail is fair."""
    if not 0.0 < holdout_fraction < 1.0:
        raise ConfigError(f"holdout_fraction must be in (0,1), got {holdout_fraction}")
    cut = dset.n_samples - int(round(dset.n_samples * holdout_fraction))
    if cut < 1 or cut >= dset.n_samples:
        raise ConfigError("holdout split leaves an empty side")
    head, tail = (DistillationSet(dset.inputs[part], dset.targets[part],
                                  dset.assignments[part], dset.lambdas[part])
                  for part in (slice(None, cut), slice(cut, None)))
    return head, tail


def train_surrogate(dset: DistillationSet, cfg: TrainConfig):
    """Fit the regression net to each row's lambda then upsilon, every
    column standardized on `dset`; the scaling is then folded into the
    output layer, so the returned net predicts the scores themselves. Needs
    at least two hidden layers and MSE loss."""
    if len(cfg.hidden_dims) < 2:
        raise ConfigError("surrogate needs at least two hidden layers")
    if cfg.loss is not LossKind.MSE:
        raise ConfigError("surrogate training uses squared error")
    Y = dset.scores.reshape(dset.n_samples, 2 * dset.n_labels)
    mean, scale = Y.mean(axis=0), Y.std(axis=0)
    scale[np.ptp(Y, axis=0) == 0.0] = 1.0  # a constant column is only centred
    model = build_model(2 * dset.n_features, 2 * dset.n_labels,
                        ModelKind.REGRESSOR, cfg.hidden_dims, seed=cfg.seed)
    model, losses = train(model, dset.inputs, (Y - mean) / scale, cfg)
    last = model.layers[-1]
    model.layers[-1] = Layer(last.weights * scale, last.biases * scale + mean,
                             last.activation)
    return model, losses


def predict_scores(surrogate: MLPModel, assignments: list,
                   reference: ReferenceSet) -> np.ndarray:
    """(c, 2, L): the surrogate's lambda and upsilon rows for each
    assignment, from one `encode_all` and one forward pass, unclamped."""
    x = encode_all(assignments, reference)
    if surrogate.n_inputs != x.shape[1]:
        raise ShapeError(
            f"surrogate expects {surrogate.n_inputs} inputs, encoding has {x.shape[1]}"
        )
    return forward(surrogate, x).reshape(len(x), 2, -1)


def predict_sensitivity(surrogate: MLPModel, assignment: FeatureAssignment,
                        reference: ReferenceSet) -> np.ndarray:
    """Surrogate's per-label sensitivity estimate, reported unclamped."""
    return predict_scores(surrogate, [assignment], reference)[0, 1]


def r_squared(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Variance-weighted R^2 pooled over all labels."""
    predictions = check_matrix(predictions, "predictions")
    targets = check_matrix(targets, "targets")
    if predictions.shape != targets.shape:
        raise ShapeError(f"shape mismatch {predictions.shape} vs {targets.shape}")
    ss_res = float(np.sum((targets - predictions) ** 2))
    ss_tot = float(np.sum((targets - targets.mean(axis=0)) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


def evaluate_surrogate(surrogate: MLPModel, dset: DistillationSet) -> tuple:
    """(lambda R^2, upsilon R^2) of the surrogate's outputs on `dset`, each
    pooled over the labels."""
    predicted = forward(surrogate, dset.inputs).reshape(-1, 2, dset.n_labels)
    return (r_squared(predicted[:, 0], dset.lambdas),
            r_squared(predicted[:, 1], dset.targets))


def save_surrogate(surrogate: MLPModel, path, n_features: int,
                   model_sha256: str | None = None):
    """The surrogate with its encoding's meta and `model_sha256`, the
    sha256 of the classifier file it was distilled from."""
    if surrogate.n_inputs != 2 * n_features:
        raise ShapeError(
            f"surrogate input width {surrogate.n_inputs} != 2*{n_features}"
        )
    if surrogate.n_outputs % 2:
        raise ShapeError(f"surrogate output width {surrogate.n_outputs} is "
                         "not two per label")
    save_model(surrogate, path, meta={
        "n_features": n_features,
        "n_labels": surrogate.n_outputs // 2,
        "encoding_version": ENCODING_VERSION,
        "model_sha256": model_sha256,
    })


def load_surrogate(path):
    """Returns (model, meta); refuses encodings newer than this code and,
    with DataError, an older encoding or a file whose meta is missing or
    disagrees with it."""
    model, meta = load_model(path)
    for key in ("n_features", "n_labels", "encoding_version"):
        if key not in meta:
            raise DataError(f"{path}: surrogate file missing meta field {key!r}")
    if meta["encoding_version"] > ENCODING_VERSION:
        raise ConfigError(
            f"unsupported encoding version {meta['encoding_version']}"
        )
    if meta["encoding_version"] < ENCODING_VERSION:
        raise DataError(
            f"{path}: encoding version {meta['encoding_version']} predicts "
            f"upsilon alone, and this version also needs lambda (rerun distill)")
    if model.n_inputs != 2 * meta["n_features"]:
        raise DataError(
            f"{path}: stored input width disagrees with n_features meta")
    if model.n_outputs != 2 * meta["n_labels"]:
        raise DataError(
            f"{path}: stored output width disagrees with n_labels meta")
    return model, meta
