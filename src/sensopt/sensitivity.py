"""Variance-ratio sensitivity of feature-value fixings.

The score for an assignment is, per output label, the covariance between
the model's predictions on a clone of the reference set with the assigned
columns overwritten and its predictions on the untouched reference set,
divided by the variance of the latter. Fixing nothing scores exactly 1,
fixing every column scores exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateReferenceError, DomainError, ShapeError
from .nn import check_matrix

DEGENERATE_VAR = 1e-12


@dataclass(frozen=True)
class FeatureAssignment:
    """An ordered set of (feature index, value) fixings; indices distinct."""

    pairs: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        norm = tuple((int(j), float(v)) for j, v in self.pairs)
        object.__setattr__(self, "pairs", norm)
        seen = set()
        for j, _ in norm:
            if j < 0:
                raise IndexError(f"feature index {j} is negative")
            if j in seen:
                raise ValueError(f"feature {j} assigned twice")
            seen.add(j)

    @classmethod
    def empty(cls) -> "FeatureAssignment":
        return cls(())

    @classmethod
    def of(cls, *pairs) -> "FeatureAssignment":
        return cls(tuple(pairs))

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    @property
    def indices(self) -> frozenset:
        return frozenset(j for j, _ in self.pairs)

    def extend(self, feature: int, value: float) -> "FeatureAssignment":
        return FeatureAssignment(self.pairs + ((feature, value),))

    @property
    def key(self) -> tuple:
        """Canonical sort key: pairs ordered by feature index (tie-break rule)."""
        return tuple(sorted(self.pairs))


@dataclass
class ReferenceSet:
    """Frozen empirical distribution the sensitivity score averages over."""

    features: np.ndarray  # (k, n)
    domains: list[np.ndarray] | None = None  # per-feature candidate values, optional

    def __post_init__(self):
        self.features = check_matrix(self.features, "reference features")
        if self.features.shape[0] < 2:
            raise ValueError(
                f"reference set needs >= 2 rows, got {self.features.shape[0]}"
            )
        if self.domains is not None:
            if len(self.domains) != self.features.shape[1]:
                raise ValueError(
                    f"{len(self.domains)} domains for {self.features.shape[1]} features"
                )
            self.domains = [np.asarray(d, dtype=np.float64) for d in self.domains]

    @classmethod
    def from_dataset(cls, dataset):
        """Build from any object exposing .X and .features[i].domain."""
        return cls(
            np.array(dataset.X, dtype=np.float64),
            [np.asarray(f.domain, dtype=np.float64) for f in dataset.features],
        )

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    @cached_property
    def column_means(self) -> np.ndarray:
        return self.features.mean(axis=0)

    @cached_property
    def domain_sets(self) -> list:
        """Per-feature set of the exact domain values, for fast membership."""
        return [frozenset(dom.tolist()) for dom in self.domains]


def validate_assignment(a: FeatureAssignment, T: ReferenceSet):
    """Check indices fit T's width and values lie in declared domains
    (within 1e-12 of a domain entry)."""
    n = T.n_features
    for j, v in a:
        if j >= n:
            raise IndexError(f"feature index {j} out of range for {n} features")
        if T.domains is not None and v not in T.domain_sets[j]:
            dom = T.domains[j]
            if not np.any(np.abs(dom - v) <= 1e-12):
                raise DomainError(
                    f"value {v!r} not in declared domain of feature {j}"
                )


def clone_and_fix(T: ReferenceSet, a: FeatureAssignment) -> np.ndarray:
    """Copy of the reference features with the assigned columns overwritten."""
    validate_assignment(a, T)
    out = T.features.copy()
    for j, v in a:
        out[:, j] = v
    return out


def _check_reference_variance(var: np.ndarray):
    for label, v in enumerate(var):
        if v < DEGENERATE_VAR:
            raise DegenerateReferenceError(label, float(v))


def reference_moments(ref: np.ndarray) -> tuple:
    """(centred reference predictions, per-label population variance), the
    half of the score that is the same for every assignment."""
    ct = ref - ref.mean(axis=0)
    var = (ct * ct).mean(axis=0)
    _check_reference_variance(var)
    return ct, var


def sensitivity_from_predictions(fixed: np.ndarray,
                                 ref: np.ndarray) -> np.ndarray:
    """Per-label cov(fixed, ref)/var(ref) over matched rows, population form."""
    return sensitivity_from_moments(fixed, *reference_moments(ref))


def sensitivity_from_moments(fixed: np.ndarray, ct: np.ndarray,
                             var: np.ndarray) -> np.ndarray:
    """sensitivity_from_predictions against precomputed reference_moments."""
    if fixed.shape != ct.shape:
        raise ShapeError(
            f"prediction shapes differ: {fixed.shape} vs {ct.shape}"
        )
    cc = fixed - fixed.mean(axis=0)
    cov = (cc * ct).mean(axis=0)
    # A constant column has zero covariance by definition; bypass the tiny
    # residue float centering would leave.
    constant = (fixed.max(axis=0) - fixed.min(axis=0)) == 0.0
    cov[constant] = 0.0
    return cov / var
