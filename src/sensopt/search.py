"""Beam search over feature-value assignments.

Candidates are scored by gamma = omega * (1 - lambda) + (1 - omega) * upsilon
per label, averaged over the objective's labels (lambda is the mean predicted
probability with the assignment enforced, upsilon the sensitivity score; the
maximize direction uses lambda instead of 1 - lambda). Each stage extends
every surviving assignment by one (feature, value) pair, then keeps the best
`zeta`. Ties always break on the lexicographic assignment key, so runs are
bit-for-bit reproducible.
"""

from __future__ import annotations

import os
import tempfile
import zipfile
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from pathlib import Path

import numpy as np

from .data import format_assignment, write_table
from .errors import ConfigError, ShapeError
from .nn import MLPModel
from .sensitivity import FeatureAssignment, ReferenceSet, SensitivityKernel
from .surrogate import predict_sensitivity


class Direction(Enum):
    """Which way mean lambda should move; the value is `search.direction`."""

    MINIMIZE_LABELS = "minimize"
    MAXIMIZE_LABELS = "maximize"

    def rank(self, mean_lambda):
        """Mean lambda (a float or an array) as a rank: lower is better."""
        return mean_lambda if self is Direction.MINIMIZE_LABELS else -mean_lambda


@dataclass(frozen=True)
class Objective:
    direction: Direction = Direction.MINIMIZE_LABELS
    label_subset: tuple | None = None  # None means every label

    def label_indices(self, n_labels: int) -> np.ndarray:
        if self.label_subset is None:
            return np.arange(n_labels)
        idx = np.asarray(self.label_subset, dtype=int)
        if idx.size == 0:
            raise ConfigError("label_subset must be non-empty")
        if len(set(idx.tolist())) != idx.size:
            raise ConfigError("label_subset has repeated indices")
        if np.any(idx < 0) or np.any(idx >= n_labels):
            raise ConfigError(
                f"label_subset {idx.tolist()} out of range for {n_labels} labels"
            )
        return idx

    def collapse(self, per_label: np.ndarray) -> float:
        """Mean over the objective's labels."""
        return float(self.collapse_rows(per_label[None, :])[0])

    def collapse_rows(self, per_label: np.ndarray) -> np.ndarray:
        """`collapse` of each row of a (c, L) array, bit for bit."""
        return per_label[:, self.label_indices(per_label.shape[1])].mean(axis=1)


@dataclass
class SearchConfig:
    omega: float = 0.6
    zeta: int = 5
    max_depth: int | None = None  # None means number of features

    def validate(self, n_features: int):
        if not 0.0 <= self.omega <= 1.0:
            raise ConfigError(f"omega must be in [0,1], got {self.omega}")
        if self.zeta < 1:
            raise ConfigError(f"zeta must be >= 1, got {self.zeta}")
        depth = self.depth(n_features)
        if depth < 0 or depth > n_features:
            raise ConfigError(
                f"max_depth must be in [0, {n_features}], got {depth}"
            )

    def depth(self, n_features: int) -> int:
        return n_features if self.max_depth is None else self.max_depth


@dataclass
class Candidate:
    assignment: FeatureAssignment
    gamma: float
    lambda_per_label: np.ndarray
    upsilon_per_label: np.ndarray

    @property
    def key(self) -> tuple:
        return self.assignment.key

    def rank(self) -> tuple:
        """The beam's order: higher gamma first, then the smaller key."""
        return (-self.gamma, self.key)

    def mean_lambda(self, objective: Objective) -> float:
        return objective.collapse(self.lambda_per_label)


def gamma_per_label(lambda_per_label: np.ndarray,
                    upsilon_per_label: np.ndarray, omega: float,
                    objective: Objective) -> np.ndarray:
    """Per-label blend of lambda (or 1 - lambda) and upsilon."""
    lam = np.asarray(lambda_per_label, dtype=np.float64)
    ups = np.asarray(upsilon_per_label, dtype=np.float64)
    if lam.shape != ups.shape:
        raise ShapeError(f"lambda shape {lam.shape} != upsilon shape {ups.shape}")
    if objective.direction is Direction.MINIMIZE_LABELS:
        return omega * (1.0 - lam) + (1.0 - omega) * ups
    return omega * lam + (1.0 - omega) * ups


def gamma_from(lambda_per_label: np.ndarray, upsilon_per_label: np.ndarray,
               omega: float, objective: Objective) -> float:
    """Collapse per-label scores into the scalar selection score."""
    return objective.collapse(gamma_per_label(lambda_per_label,
                                              upsilon_per_label, omega,
                                              objective))


def lambda_of(M: MLPModel, T: ReferenceSet, a: FeatureAssignment) -> np.ndarray:
    """Per-label mean prediction over the reference set with `a` enforced."""
    return SensitivityKernel(M, T).score_assignments([a], upsilon=False)[0][0]


# The members of a ScoreCache store, in order: the fingerprint, each key's
# arity, the keys' feature indices and values end to end, then the lambda
# and upsilon rows.
STORE_ARRAYS = ("fingerprint", "arity", "features", "values", "lambda",
                "upsilon")


class ScoreCache:
    """Lambda and upsilon of one model on one reference, computed once per
    distinct assignment through one `SensitivityKernel`; upsilon comes from
    `surrogate` when one is given, else from the kernel.

    The cache is where a search's model, reference (with its candidate
    grid) and surrogate are given. Neither score depends on omega or the
    objective, so every search over the same inputs can share one cache
    and re-blend gamma from it. The reference's centred predictions and
    variance are computed on the first oracle score, so a degenerate
    reference raises there, and a cache with a surrogate never computes
    them. By the kernel's contract a cached score has the bits a fresh one
    would have, and so does one that `save` wrote and `load` read back.
    """

    def __init__(self, model: MLPModel, reference: ReferenceSet,
                 surrogate: MLPModel | None = None):
        if surrogate is not None:
            if surrogate.n_inputs != 2 * reference.n_features:
                raise ShapeError(
                    f"surrogate input width {surrogate.n_inputs} does not "
                    f"match {reference.n_features} features"
                )
            if surrogate.n_outputs != model.n_outputs:
                raise ShapeError(
                    f"surrogate predicts {surrogate.n_outputs} labels, "
                    f"model {model.n_outputs}"
                )
        self.model = model
        self.reference = reference
        self.surrogate = surrogate
        self.kernel = SensitivityKernel(model, reference)
        self._scores: dict = {}
        self.scored = 0  # assignments scored here, not read by `load`

    def save(self, path, fingerprint: str):
        """Write every score to `path` as one npz: `fingerprint`, each key's
        arity, feature indices and values, and the lambda and upsilon rows.
        Its zip entries carry no timestamp, so equal scores give equal
        bytes, and it replaces `path` whole through a temporary file."""
        if self.surrogate is not None:
            raise ValueError("a cache with a surrogate holds no oracle upsilon")
        keys, scores = list(self._scores), list(self._scores.values())
        lam, ups = ((np.stack(col) for col in zip(*scores)) if scores
                    else [np.empty((0, self.model.n_outputs))] * 2)
        arrays = (np.array(fingerprint),
                  np.array([len(k) for k in keys], dtype=np.int64),
                  np.array([j for k in keys for j, _ in k], dtype=np.int64),
                  np.array([v for k in keys for _, v in k], dtype=np.float64),
                  lam, ups)
        path = Path(path)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
        try:
            with os.fdopen(fd, "wb") as fh, zipfile.ZipFile(fh, "w") as store:
                for name, array in zip(STORE_ARRAYS, arrays):
                    with store.open(zipfile.ZipInfo(name + ".npy"), "w") as member:
                        np.lib.format.write_array(member, array,
                                                  allow_pickle=False)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    def load(self, path, fingerprint: str) -> bool:
        """Add the scores `save` wrote to `path` under the same
        `fingerprint`; whether it did. A store that is missing, unreadable,
        inconsistent or written under another fingerprint is ignored, and so
        is every store when the cache has a surrogate, since a stored
        upsilon is the kernel's."""
        if self.surrogate is not None:
            return False
        try:
            with zipfile.ZipFile(path) as store:
                arrays = []
                for name in STORE_ARRAYS:
                    with store.open(name + ".npy") as member:
                        arrays.append(np.lib.format.read_array(
                            member, allow_pickle=False))
        except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile):
            return False
        stored_for, arity, features, values, lam, ups = arrays
        rows = (arity.size, self.model.n_outputs)
        if (stored_for.tolist() != fingerprint
                or (arity.dtype, features.dtype, values.dtype, lam.dtype,
                    ups.dtype) != (np.int64, np.int64, np.float64,
                                   np.float64, np.float64)
                or arity.ndim != 1 or (arity < 0).any()
                or features.shape != values.shape
                or features.shape != (arity.sum(),)
                or lam.shape != rows or ups.shape != rows):
            return False
        lam.flags.writeable = False
        ups.flags.writeable = False
        pairs = list(zip(features.tolist(), values.tolist()))
        ends = list(accumulate(arity.tolist()))
        for i, (start, end) in enumerate(zip([0, *ends], ends)):
            self._scores.setdefault(tuple(pairs[start:end]), (lam[i], ups[i]))
        return True

    def lambda_upsilon(self, assignments: list) -> list:
        """(lambda, upsilon) per label for each assignment, all read-only
        arrays; the ones not seen before are scored in one kernel call."""
        # Only assignments that passed validation are stored, and validity
        # depends on the key alone, so a hit needs no second check.
        misses = {}
        for a in assignments:
            if a.key not in self._scores:
                misses.setdefault(a.key, a)
        if misses:
            todo = list(misses.values())
            lam, ups = self.kernel.score_assignments(
                todo, upsilon=self.surrogate is None)
            if ups is None:
                ups = np.array([predict_sensitivity(self.surrogate, a,
                                                    self.reference)
                                for a in todo])
            lam.flags.writeable = False
            ups.flags.writeable = False
            self.scored += len(todo)
            for i, key in enumerate(misses):
                self._scores[key] = (lam[i], ups[i])
        return [self._scores[a.key] for a in assignments]


@dataclass
class Scorer:
    """Turns assignments into Candidates: lambda and upsilon come from
    `cache` (so from its surrogate, when it has one), gamma from `config`'s
    omega and `objective`. Scorers with any omega or objective may share
    one cache.
    """

    cache: ScoreCache
    config: SearchConfig
    objective: Objective

    def score(self, assignment: FeatureAssignment) -> Candidate:
        return self.score_all([assignment])[0]

    def score_all(self, assignments: list) -> list:
        """One Candidate per assignment, in order; gamma is blended for the
        whole batch at once, with the bits `gamma_from` gives each row."""
        scores = self.cache.lambda_upsilon(assignments)
        if not scores:
            return []
        lam, ups = (np.stack(arrays) for arrays in zip(*scores))
        gammas = self.objective.collapse_rows(
            gamma_per_label(lam, ups, self.config.omega, self.objective))
        return [Candidate(a, gamma, *score)
                for a, gamma, score in zip(assignments, gammas.tolist(), scores)]


def expand(beam: list, scorer: Scorer) -> list:
    """Every one-pair extension of every beam member, scored. No dedup here:
    the same assignment reached through different parents appears once per
    parent; prune collapses them. Fully-assigned members contribute nothing.
    The values tried are the reference's candidate grid.
    """
    if beam:
        arity = len(beam[0].assignment)
        if any(len(c.assignment) != arity for c in beam):
            raise ConfigError("beam members must share one arity")
    children = []
    for cand in beam:
        taken = cand.assignment.indices
        for j, domain in enumerate(scorer.cache.reference.grid):
            if j in taken:
                continue
            for v in domain:
                children.append(cand.assignment.extend(j, float(v)))
    return scorer.score_all(children)


def prune(candidates: list, zeta: int) -> list:
    """Keep the `zeta` best by gamma, ties to the lexicographically smaller
    assignment; result sorted best-first. Duplicate assignments (same
    canonical key) are collapsed before cutting so each beam slot holds a
    distinct assignment."""
    if zeta < 1:
        raise ConfigError(f"zeta must be >= 1, got {zeta}")
    unique = {}
    for c in candidates:
        unique.setdefault(c.key, c)
    return sorted(unique.values(), key=Candidate.rank)[:zeta]


@dataclass
class StageRecord:
    stage: int
    candidates: list
    best_gamma: float  # running maximum over every candidate scored so far
    best_mean_lambda: float  # direction-best mean lambda within this stage


def _stage_best_lambda(candidates: list, objective: Objective) -> float:
    return min((c.mean_lambda(objective) for c in candidates),
               key=objective.direction.rank)


def run_search(cache: ScoreCache, config: SearchConfig, objective: Objective):
    """Beam search from the empty assignment over `cache`'s model, reference
    and surrogate. Returns (SN, stages): SN is the final beam plus the
    best candidate seen at any stage, and stages one StageRecord per depth
    from 0. A shared `cache` reuses the scores of earlier searches."""
    n_features = cache.reference.n_features
    config.validate(n_features)
    scorer = Scorer(cache, config, objective)

    empty = scorer.score(FeatureAssignment.empty())
    best = empty
    beam = [empty]
    stages = [StageRecord(0, beam, best.gamma,
                          _stage_best_lambda(beam, objective))]
    for depth in range(1, config.depth(n_features) + 1):
        scored = expand(beam, scorer)
        # The incumbent comes first, so a tie keeps it.
        best = min([best, *scored], key=Candidate.rank)
        beam = prune(scored, config.zeta)
        stages.append(StageRecord(depth, beam, best.gamma,
                                  _stage_best_lambda(beam, objective)))

    selected = {c.key: c for c in beam}
    selected.setdefault(best.key, best)
    sn = sorted(selected.values(), key=Candidate.rank)
    return sn, stages


def top_feature_report(cache: ScoreCache, config: SearchConfig,
                       objective: Objective, k: int):
    """Rank every single-pair assignment of the reference's candidate grid
    (the empty assignment's `expand`) by `Candidate.rank`. Returns (the
    empty assignment's Candidate, the k best single-pair Candidates).

    A pair whose gamma is below the empty one's scores below the do-nothing
    baseline. A `cache` shared with run_search makes every pair a lookup."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    config.validate(cache.reference.n_features)
    scorer = Scorer(cache, config, objective)
    empty = scorer.score(FeatureAssignment.empty())
    return empty, sorted(expand([empty], scorer), key=Candidate.rank)[:k]


def write_trace_csv(stages: list, path, objective: Objective, features: list):
    """Stage-by-stage candidate table, one row per surviving candidate of
    each StageRecord; `features` are the data's FeatureMetas."""
    write_table(path, ["stage", "candidate_rank", "gamma", "mean_lambda",
                       "assignment"],
                [[record.stage, rank, repr(c.gamma),
                  repr(c.mean_lambda(objective)),
                  format_assignment(c.assignment, features)]
                 for record in stages
                 for rank, c in enumerate(record.candidates, start=1)])
