"""Variance-ratio sensitivity of feature-value fixings.

The score for an assignment is, per output label, the covariance between
the model's predictions on a clone of the reference set with the assigned
columns overwritten and its predictions on the untouched reference set,
divided by the variance of the latter. Fixing nothing scores exactly 1,
fixing every column scores exactly 0. `SensitivityKernel` is the one
scoring path; `clone_and_fix` and `sensitivity_from_predictions` are the
naive form it is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DegenerateReferenceError, DomainError, ShapeError
from .nn import Activation, MLPModel, _activate, check_matrix, forward

DEGENERATE_VAR = 1e-12

# Least number of forwarded rows a kernel chunk may hold, so a batch over few
# groups runs in a few large chunks rather than many small ones.
CHUNK_ROW_FLOOR = 1024


@dataclass(frozen=True)
class FeatureAssignment:
    """A set of (feature index, value) fixings with distinct indices, held
    in feature order whatever order they were given in, so equal sets are
    equal assignments."""

    pairs: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        norm = tuple(sorted((int(j), float(v)) for j, v in self.pairs))
        object.__setattr__(self, "pairs", norm)
        if norm and norm[0][0] < 0:
            raise IndexError(f"feature index {norm[0][0]} is negative")
        for (a, _), (b, _) in zip(norm, norm[1:]):
            if a == b:
                raise ValueError(f"feature {a} assigned twice")

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
        """The pairs, already in feature order: the tie-break rule's key."""
        return self.pairs


@dataclass
class ReferenceSet:
    """Frozen empirical distribution the sensitivity score averages over.

    `domains`, when given, is the candidate grid: the values every search,
    baseline and distillation sample draws from, and the only values the
    scoring kernel accepts. Each feature's domain must be non-empty and
    finite."""

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
                raise ConfigError(
                    f"{len(self.domains)} domains for {self.features.shape[1]} features"
                )
            self.domains = [np.asarray(d, dtype=np.float64) for d in self.domains]
            for j, dom in enumerate(self.domains):
                if dom.size == 0:
                    raise ConfigError(f"feature {j} has an empty value domain")
                if not np.all(np.isfinite(dom)):
                    raise ConfigError(f"feature {j} has non-finite candidate values")

    @property
    def grid(self) -> list:
        """`domains`, for a caller that enumerates or samples candidates;
        ConfigError when none were declared."""
        if self.domains is None:
            raise ConfigError("reference set needs value domains to "
                              "enumerate or sample assignments")
        return self.domains

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

    @cached_property
    def distinct_values(self) -> list:
        """Per-feature sorted distinct reference values; their counts decide
        whether the scoring kernel groups rows."""
        return [np.unique(col) for col in self.features.T]

    @cached_property
    def value_codes(self) -> np.ndarray:
        """(n, k) index of each reference cell into its column's
        `distinct_values`, one contiguous row per feature; computed the
        first time the scoring kernel groups rows."""
        return np.stack([np.searchsorted(values, col) for values, col
                         in zip(self.distinct_values, self.features.T)])


def group_by_subset(assignments) -> dict:
    """Feature subset -> (positions in `assignments`, (c, |J|) value rows)
    of the assignments that fix it, subsets in order of first use."""
    groups: dict = {}
    for i, a in enumerate(assignments):
        subset, values = zip(*a.pairs) if a.pairs else ((), ())
        rows, batch = groups.setdefault(subset, ([], []))
        rows.append(i)
        batch.append(values)
    return {subset: (rows, np.array(batch, dtype=np.float64)
                     .reshape(len(rows), len(subset)))
            for subset, (rows, batch) in groups.items()}


def kernel_batch(subset, values) -> tuple:
    """A kernel batch as it is scored and keyed: the subset as a tuple of
    ints and the values as a (c, |J|) float64 array."""
    subset = tuple(map(int, subset))
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != len(subset):
        raise ShapeError(f"values of shape {values.shape} for "
                         f"{len(subset)} fixed features")
    return subset, values


def _check_pair(T: ReferenceSet, j: int, v: float):
    """Index within T's width and value within 1e-12 of a domain entry."""
    n = T.n_features
    if j >= n:
        raise IndexError(f"feature index {j} out of range for {n} features")
    if T.domains is not None and v not in T.domain_sets[j]:
        if not np.any(np.abs(T.domains[j] - v) <= 1e-12):
            raise DomainError(
                f"value {v!r} not in declared domain of feature {j}"
            )


def validate_assignment(a: FeatureAssignment, T: ReferenceSet):
    """Check indices fit T's width and values lie in declared domains
    (within 1e-12 of a domain entry)."""
    for j, v in a:
        _check_pair(T, j, v)


def _check_values(T: ReferenceSet, subset: tuple, values: np.ndarray):
    """validate_assignment for every row of a (c, |J|) batch fixing
    `subset`, which must hold increasing indices; each distinct value of a
    column is checked once."""
    if any(a >= b for a, b in zip(subset, subset[1:])) or min(subset, default=0) < 0:
        raise ValueError(f"feature subset {subset} is not increasing and "
                         "non-negative")
    for i, j in enumerate(subset):
        for v in set(values[:, i].tolist()):
            _check_pair(T, j, v)


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


def sensitivity_from_predictions(fixed: np.ndarray,
                                 ref: np.ndarray) -> np.ndarray:
    """Per-label cov(fixed, ref)/var(ref) over matched rows, population form.

    The naive form over whole prediction matrices; the commands score
    through `SensitivityKernel`, and tests hold it to this within 1e-12."""
    if fixed.shape != ref.shape:
        raise ShapeError(
            f"prediction shapes differ: {fixed.shape} vs {ref.shape}"
        )
    ct = ref - ref.mean(axis=0)
    var = (ct * ct).mean(axis=0)
    _check_reference_variance(var)
    cc = fixed - fixed.mean(axis=0)
    cov = (cc * ct).mean(axis=0)
    # A constant column has zero covariance by definition; bypass the tiny
    # residue float centering would leave.
    constant = (fixed.max(axis=0) - fixed.min(axis=0)) == 0.0
    cov[constant] = 0.0
    return cov / var


class SensitivityKernel:
    """Lambda and upsilon of one model on one reference, scored one feature
    subset J at a time over a batch of value rows V (c x |J|).

    With the columns in J fixed, a clone row's prediction depends only on
    its free columns, so per J the kernel groups the reference rows by
    their free-column values (one row U per pattern, with counts), sums the
    centred reference predictions per group (S) and forms the free part of
    the first layer, P = U @ W1 + b1 with W1's rows for J zeroed.
    Each value row then costs Q = sum over J of V[:, j] * W1[j]
    (elementwise, no gemm), z = P + Q and the later layers as stacked
    (c, u, h) @ W matmuls; lambda = sum(cnt * f) / k,
    cov = sum((f - lambda) * S) / k, and cov is 0 for a label whose
    predictions are equal in every group. upsilon = cov / var. Rows are
    grouped only when the free columns cannot form k distinct patterns
    (the product of their distinct-value counts is below k); otherwise
    every row is its own group. Grouping never sorts: a row's pattern is
    the mixed-radix number of its free columns' `ReferenceSet.value_codes`,
    counted in a dense table. A batch is cut into chunks of at most
    max(k, CHUNK_ROW_FLOOR) forwarded rows. P (k rows), every layer's
    pre-activation and each sigmoid's output (nn's branch-free sigmoid;
    chunk-sized) are written into scratch arrays that the kernel keeps, so
    no (k, h) array is allocated per subset or chunk; the rest of J's state
    is dropped after its batch.

    Numerics contract: an assignment's (lambda, upsilon) bits are a
    function of the model, the reference and the assignment only, never of
    the batch it is scored in, the batch's size, the call order or the
    command. Every switch (grouping, chunk size) depends on J and the
    reference alone; Q is elementwise and the stacked matmul runs one gemm
    per value row, so no summation order depends on the batch. The
    variance is the kernel's own covariance at J = {}, so fixing nothing
    scores exactly 1, and fixing every column leaves one group, which
    scores exactly 0. Against the naive clone-and-forward path
    (`sensitivity_from_predictions`) the numbers agree to rounding only.
    """

    def __init__(self, model: MLPModel, reference: ReferenceSet):
        if model.n_inputs != reference.n_features:
            raise ShapeError(
                f"reference has {reference.n_features} columns, model "
                f"expects {model.n_inputs}"
            )
        self.model = model
        self.reference = reference
        self._moments = None
        self._scratch = None

    def _buffers(self) -> list:
        """Flat scratch arrays: one of k rows for P, and one of a chunk's
        max(k, CHUNK_ROW_FLOOR) rows per layer's pre-activation and for a
        sigmoid's output. Allocated on first use and reused by every batch,
        so scoring does not fault in fresh pages for each subset and
        chunk."""
        if self._scratch is None:
            k = self.reference.features.shape[0]
            rows = max(k, CHUNK_ROW_FLOOR)
            layers = self.model.layers
            self._scratch = [np.empty(k * layers[0].output_dim)]
            self._scratch += [np.empty(rows * layer.output_dim)
                              for layer in layers]
            self._scratch.append(np.empty(rows * max(
                (layer.output_dim for layer in layers
                 if layer.activation is Activation.SIGMOID), default=0)))
        return self._scratch

    def _reference_moments(self) -> tuple:
        """(centred reference predictions, per-label variance), computed on
        first use; raises DegenerateReferenceError on a flat label."""
        if self._moments is None:
            ref = forward(self.model, self.reference.features)
            ct = ref - ref.mean(axis=0)
            _, var = self._lambda_cov((), np.empty((1, 0)), ct)
            _check_reference_variance(var[0])
            self._moments = ct, var[0]
        return self._moments

    def lambdas(self, subset, values) -> np.ndarray:
        """(c, L) lambda of the assignments fixing `subset` (increasing
        feature indices) to each row of `values`."""
        return self._lambda_cov(subset, values, None)[0]

    def scores(self, subset, values) -> tuple:
        """(lambda, upsilon), each (c, L), for the same batch."""
        ct, var = self._reference_moments()
        lam, cov = self._lambda_cov(subset, values, ct)
        return lam, cov / var

    def score_assignments(self, assignments, upsilon: bool = True) -> tuple:
        """(lambda, upsilon or None) rows in the order of `assignments`, one
        batch per feature subset."""
        lam = np.empty((len(assignments), self.model.n_outputs))
        ups = np.empty_like(lam) if upsilon else None
        for subset, (rows, values) in group_by_subset(assignments).items():
            if upsilon:
                lam[rows], ups[rows] = self.scores(subset, values)
            else:
                lam[rows] = self.lambdas(subset, values)
        return lam, ups

    def _lambda_cov(self, subset, values, ct) -> tuple:
        T = self.reference
        subset, values = kernel_batch(subset, values)
        _check_values(T, subset, values)
        k = T.features.shape[0]
        free = [j for j in range(T.n_features) if j not in subset]
        first = self.model.layers[0]

        # Per-J state: one reference row per free-column pattern (U), the
        # patterns' counts, the per-group sums S of the centred reference
        # predictions, and P, the first layer over the free columns (the
        # rows of W1 for J are zeroed, so U's fixed columns add nothing).
        counts, S = None, ct
        space = _pattern_space([len(T.distinct_values[j]) for j in free], k)
        if space < k:
            U, inverse, counts = _patterns(T, free, space)
            if ct is not None:
                S = np.stack([np.bincount(inverse, weights=col,
                                          minlength=len(U))
                              for col in ct.T], axis=1)
        else:
            U = T.features
        W_free = first.weights.copy()
        W_free[list(subset)] = 0.0
        scratch = self._buffers()
        u, h = U.shape[0], first.output_dim
        P = np.matmul(U, W_free, out=scratch[0][:u * h].reshape(u, h))
        P += first.biases
        if S is not None:
            S = np.ascontiguousarray(S.T)  # (L, u)
        W_fixed = first.weights[list(subset)]  # (|J|, h)

        c = values.shape[0]
        lam = np.empty((c, self.model.n_outputs))
        cov = None if S is None else np.empty_like(lam)
        step = max(k, CHUNK_ROW_FLOOR) // u
        for lo in range(0, c, step):
            V = values[lo:lo + step]
            m = len(V)
            Q = np.zeros((m, h))  # no gemm
            for i, w in enumerate(W_fixed):
                Q += V[:, i, None] * w
            z = np.add(P, Q[:, None, :], out=_view(scratch[1], m, u, h))
            a = _activate_in_place(z, first.activation, scratch[-1])
            for layer, buffer in zip(self.model.layers[1:], scratch[2:-1]):
                z = np.matmul(a, layer.weights,
                              out=_view(buffer, m, u, layer.output_dim))
                z += layer.biases
                a = _activate_in_place(z, layer.activation, scratch[-1])
            if not np.isfinite(a).all():
                raise ArithmeticError("forward pass produced non-finite values")
            f = np.ascontiguousarray(a.transpose(0, 2, 1))  # (m, L, u)
            mass = f if counts is None else f * counts
            chunk_lam = mass.sum(axis=2) / k
            lam[lo:lo + step] = chunk_lam
            if S is not None:
                chunk_cov = ((f - chunk_lam[:, :, None]) * S).sum(axis=2) / k
                chunk_cov[f.max(axis=2) == f.min(axis=2)] = 0.0
                cov[lo:lo + step] = chunk_cov
        return lam, cov


def _view(buffer: np.ndarray, *shape) -> np.ndarray:
    """The leading part of a flat scratch buffer as a C-contiguous array."""
    return buffer[:math.prod(shape)].reshape(shape)


def _activate_in_place(z: np.ndarray, act: Activation,
                       spare: np.ndarray) -> np.ndarray:
    """nn's activation of z, bit for bit, in z's memory; a sigmoid, which
    needs a second array, writes into the leading part of `spare`."""
    out = _view(spare, *z.shape) if act is Activation.SIGMOID else None
    return _activate(z, act, out)


def _patterns(T: ReferenceSet, free: list, space: int) -> tuple:
    """One row U per distinct pattern of the `free` columns (in increasing
    code order), each reference row's group and the group counts. A row's
    code is the mixed-radix number of its free columns' value codes, below
    `space`, the product of their distinct-value counts; the nonzero slots
    of a dense count table over the codes are the groups, so nothing is
    sorted. U's free columns are decoded from the slots and its other
    columns are 0 (the kernel zeroes their weights)."""
    code = np.zeros(T.features.shape[0], dtype=np.intp)
    for j in free:
        code *= len(T.distinct_values[j])
        code += T.value_codes[j]
    table = np.bincount(code, minlength=space)
    slots = np.flatnonzero(table)
    group = np.empty(space, dtype=np.intp)
    group[slots] = np.arange(len(slots))
    U = np.zeros((len(slots), T.n_features))
    counts = table[slots].astype(np.float64)
    for j in reversed(free):
        values = T.distinct_values[j]
        slots, digit = np.divmod(slots, len(values))
        U[:, j] = values[digit]
    return U, group[code], counts


def _pattern_space(distinct_counts, k: int) -> int:
    """The number of patterns columns with these distinct-value counts can
    form (their product), or k once it reaches k; below k, a pattern must
    repeat over k rows."""
    product = 1
    for d in distinct_counts:
        product *= int(d)
        if product >= k:
            return k
    return product
