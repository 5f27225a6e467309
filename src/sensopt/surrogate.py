"""Distilled sensitivity surrogate.

Scoring an assignment against the classifier and reference set is exact but
costs a forward pass over the whole reference set. The surrogate is a small
regression network trained on sampled (assignment, sensitivity) pairs; once
distilled it answers in a single forward pass over one encoded row.

An assignment over n features is encoded as a length-2n vector: the first n
slots hold feature values (reference column means where unassigned), the
last n are a 0/1 mask marking which slots are actually fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .nn import (
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
    validate_assignment,
)

ENCODING_VERSION = 1


def encode(assignment: FeatureAssignment,
           reference: ReferenceSet) -> np.ndarray:
    """The 2n input row the surrogate consumes: each feature's assigned
    value, or the reference column mean where unassigned, then the 0/1
    mask of the assigned features."""
    validate_assignment(assignment, reference)
    n = reference.n_features
    row = np.zeros(2 * n)
    row[:n] = reference.column_means
    for j, v in assignment:
        row[j] = v
        row[n + j] = 1.0
    return row


@dataclass
class DistillationSet:
    """Sampled assignments with their exact sensitivity targets."""

    inputs: np.ndarray  # (S, 2n) encodings
    targets: np.ndarray  # (S, L) per-label sensitivities
    assignments: tuple  # the FeatureAssignments behind each row

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
    domain. max_arity defaults to min(n, 8).
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
    assignments = []
    for s in range(n_samples):
        arity = int(rng.integers(1, max_arity + 1))
        subset = rng.choice(n, size=arity, replace=False)
        pairs = []
        for j in subset:
            domain = domains[int(j)]
            pairs.append((int(j), float(domain[rng.integers(len(domain))])))
        a = FeatureAssignment(tuple(pairs))
        assignments.append(a)
        inputs[s] = encode(a, reference)
    # Labelled after every draw, one kernel batch per feature subset.
    _, targets = SensitivityKernel(model, reference).score_assignments(assignments)
    return DistillationSet(inputs, targets, tuple(assignments))


def split_holdout(dset: DistillationSet, holdout_fraction: float = 0.2):
    """Tail split for evaluation; rows were sampled i.i.d. so the tail is fair."""
    if not 0.0 < holdout_fraction < 1.0:
        raise ConfigError(f"holdout_fraction must be in (0,1), got {holdout_fraction}")
    cut = dset.n_samples - int(round(dset.n_samples * holdout_fraction))
    if cut < 1 or cut >= dset.n_samples:
        raise ConfigError("holdout split leaves an empty side")
    head = DistillationSet(dset.inputs[:cut], dset.targets[:cut],
                           dset.assignments[:cut])
    tail = DistillationSet(dset.inputs[cut:], dset.targets[cut:],
                           dset.assignments[cut:])
    return head, tail


def train_surrogate(dset: DistillationSet, cfg: TrainConfig):
    """Fit the regression net. Needs at least two hidden layers and MSE loss."""
    if len(cfg.hidden_dims) < 2:
        raise ConfigError("surrogate needs at least two hidden layers")
    if cfg.loss is not LossKind.MSE:
        raise ConfigError("surrogate training uses squared error")
    model = build_model(2 * dset.n_features, dset.n_labels, ModelKind.REGRESSOR,
                        cfg.hidden_dims, seed=cfg.seed)
    return train(model, dset.inputs, dset.targets, cfg)


def predict_sensitivity(surrogate: MLPModel, assignment: FeatureAssignment,
                        reference: ReferenceSet) -> np.ndarray:
    """Surrogate's per-label sensitivity estimate, reported unclamped."""
    x = encode(assignment, reference)
    if surrogate.n_inputs != x.shape[0]:
        raise ShapeError(
            f"surrogate expects {surrogate.n_inputs} inputs, encoding has {x.shape[0]}"
        )
    return forward(surrogate, x[None, :])[0]


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


def evaluate_surrogate(surrogate: MLPModel, dset: DistillationSet) -> float:
    return r_squared(forward(surrogate, dset.inputs), dset.targets)


def save_surrogate(surrogate: MLPModel, path, n_features: int,
                   model_sha256: str | None = None):
    """The surrogate with its encoding's meta and `model_sha256`, the
    sha256 of the classifier file it was distilled from."""
    if surrogate.n_inputs != 2 * n_features:
        raise ShapeError(
            f"surrogate input width {surrogate.n_inputs} != 2*{n_features}"
        )
    save_model(surrogate, path, meta={
        "n_features": n_features,
        "n_labels": surrogate.n_outputs,
        "encoding_version": ENCODING_VERSION,
        "model_sha256": model_sha256,
    })


def load_surrogate(path):
    """Returns (model, meta); refuses encodings newer than this code and,
    with DataError, a file whose meta is missing or disagrees with it."""
    model, meta = load_model(path)
    for key in ("n_features", "n_labels", "encoding_version"):
        if key not in meta:
            raise DataError(f"{path}: surrogate file missing meta field {key!r}")
    if meta["encoding_version"] > ENCODING_VERSION:
        raise ConfigError(
            f"unsupported encoding version {meta['encoding_version']}"
        )
    if model.n_inputs != 2 * meta["n_features"]:
        raise DataError(
            f"{path}: stored input width disagrees with n_features meta")
    if model.n_outputs != meta["n_labels"]:
        raise DataError(
            f"{path}: stored output width disagrees with n_labels meta")
    return model, meta
