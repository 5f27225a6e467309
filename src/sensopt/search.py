"""Beam search over feature-value assignments.

Candidates are scored by gamma = omega * (1 - lambda) + (1 - omega) * upsilon
per label, averaged over the objective's labels (lambda is the mean predicted
probability with the assignment enforced, upsilon the sensitivity score; the
maximize direction uses lambda instead of 1 - lambda). Each stage extends
every surviving assignment by one (feature, value) pair, ranks the children
by their predicted scores (a surrogate's, or the exact ones without one),
keeps the best `zeta` and scores those exactly. Ties always break on the
lexicographic assignment key, so runs are bit-for-bit reproducible.
"""

from __future__ import annotations

import os
import tempfile
import zipfile
from dataclasses import dataclass
from enum import Enum
from itertools import compress
from pathlib import Path

import numpy as np

from .data import format_assignment, write_table
from .errors import ConfigError, ShapeError
from .nn import MLPModel
from .sensitivity import (FeatureAssignment, ReferenceSet, SensitivityKernel,
                          group_by_subset, kernel_batch)
from .surrogate import predict_scores


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


def to_candidates(assignments: list, scores: np.ndarray, omega: float,
                  objective: Objective) -> list:
    """One Candidate per assignment from its (2, L) lambda and upsilon rows
    in `scores`; gamma is blended for the whole batch at once, with the
    bits `gamma_from` gives each row."""
    lam, ups = scores[:, 0], scores[:, 1]
    gammas = objective.collapse_rows(gamma_per_label(lam, ups, omega,
                                                     objective))
    return [Candidate(*row) for row in zip(assignments, gammas.tolist(),
                                           lam, ups)]


def gamma_rank_correlation(assignments: list, predicted: np.ndarray,
                           exact: np.ndarray, omega: float,
                           objective: Objective) -> float | None:
    """Spearman's rho between the `Candidate.rank` orders that two (c, 2, L)
    score arrays, predicted and exact, give `assignments`; None for fewer
    than two assignments."""
    n = len(assignments)
    if n < 2:
        return None
    ranks = []
    for scores in (predicted, exact):
        ranked = to_candidates(assignments, scores, omega, objective)
        order = sorted(range(n), key=lambda i: ranked[i].rank())
        rank = np.empty(n)
        rank[order] = np.arange(n)
        ranks.append(rank)
    d = ranks[0] - ranks[1]
    return 1.0 - 6.0 * float(d @ d) / (n * (n * n - 1))


def lambda_of(M: MLPModel, T: ReferenceSet, a: FeatureAssignment) -> np.ndarray:
    """Per-label mean prediction over the reference set with `a` enforced."""
    return SensitivityKernel(M, T).score_assignments([a], upsilon=False)[0][0]


# The members of a ScoreCache store, in order: the fingerprint, one row of
# feature flags and a row count per subset, the subsets' value rows end to
# end, and the lambda and upsilon rows.
STORE_ARRAYS = ("fingerprint", "subsets", "rows", "values", "lambda",
                "upsilon")


def _keys(values: np.ndarray) -> list:
    """Each row's raw float64 bytes, from one void view of the batch."""
    if not values.shape[1]:
        return [b""] * len(values)
    return np.ascontiguousarray(values).view(
        np.dtype((np.void, 8 * values.shape[1]))).ravel().tolist()


class ScoreCache:
    """Lambda and upsilon of one model on one reference, computed once per
    distinct assignment through one `SensitivityKernel`. `predict` gives
    the `surrogate`'s estimates of both, when one is given, and is never
    kept; every other score is the kernel's.

    The cache holds a search's model, reference (with its candidate grid)
    and surrogate. Neither score depends on omega or the objective, so the
    searches and baselines over the same inputs share one cache. Scores are
    kept per feature subset, each value row under its raw float64 bytes.
    `scores` takes the kernel's batch, sends it only the rows the cache
    lacks and keeps them; `lambdas` reads the rows the cache holds and
    scores the lambda of the rest without keeping it, so lambdas alone
    never compute the reference variance (a degenerate reference raises at
    the first upsilon). By the kernel's contract a cached score, and one
    that `save` wrote and `load` read back, has the bits a fresh one would
    have.
    """

    def __init__(self, model: MLPModel, reference: ReferenceSet,
                 surrogate: MLPModel | None = None):
        if surrogate is not None:
            if surrogate.n_inputs != 2 * reference.n_features:
                raise ShapeError(
                    f"surrogate input width {surrogate.n_inputs} does not "
                    f"match {reference.n_features} features"
                )
            if surrogate.n_outputs != 2 * model.n_outputs:
                raise ShapeError(
                    f"surrogate gives {surrogate.n_outputs} outputs, not a "
                    f"lambda and an upsilon for each of the model's "
                    f"{model.n_outputs} labels"
                )
        self.model = model
        self.reference = reference
        self.surrogate = surrogate
        self.kernel = SensitivityKernel(model, reference)
        # feature subset -> {a value row's bytes: its (2, L) lambda, upsilon}
        self._scores: dict = {}
        self.scored = 0  # rows scored and kept here, not read by `load`

    def save(self, path, fingerprint: str):
        """Write every score to `path` as one npz of the `STORE_ARRAYS`. Its
        zip entries carry no timestamp, so equal scores give equal bytes,
        and it replaces `path` whole through a temporary file."""
        flags = np.zeros((len(self._scores), self.reference.n_features),
                         dtype=bool)
        for row, subset in zip(flags, self._scores):
            row[list(subset)] = True
        held = self._scores.values()
        scores = np.array([s for rows in held for s in rows.values()])
        scores = scores.reshape(len(scores), 2, self.model.n_outputs)
        arrays = (np.array(fingerprint), flags,
                  np.array([len(rows) for rows in held], dtype=np.int64),
                  np.frombuffer(b"".join(k for rows in held for k in rows)),
                  scores[:, 0], scores[:, 1])
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
        inconsistent or written under another fingerprint is ignored. A row
        the cache holds keeps its scores."""
        try:
            with zipfile.ZipFile(path) as store:
                arrays = []
                for name in STORE_ARRAYS:
                    with store.open(name + ".npy") as member:
                        arrays.append(np.lib.format.read_array(
                            member, allow_pickle=False))
        except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile):
            return False
        stored_for, flags, counts, values, lam, ups = arrays
        if (stored_for.tolist() != fingerprint
                or (flags.dtype, counts.dtype, values.dtype, lam.dtype,
                    ups.dtype) != (bool, np.int64, np.float64, np.float64,
                                   np.float64)
                or counts.ndim != 1 or (counts < 0).any()
                or flags.shape != (counts.size, self.reference.n_features)
                or values.shape != (counts @ flags.sum(axis=1),)
                or lam.shape != (counts.sum(), self.model.n_outputs)
                or ups.shape != lam.shape):
            return False
        scores = np.stack((lam, ups), axis=1)
        scores.flags.writeable = False
        start = first = 0
        for row, n_rows in zip(flags, counts.tolist()):
            subset = tuple(np.flatnonzero(row).tolist())
            end = start + n_rows * len(subset)
            keys = _keys(values[start:end].reshape(n_rows, len(subset)))
            self._scores[subset] = {**dict(zip(keys, scores[first:])),
                                    **self._scores.get(subset, {})}
            start, first = end, first + n_rows
        return True

    def lambdas(self, subset, values) -> np.ndarray:
        """(c, L) read-only lambda of the assignments fixing `subset`
        (increasing feature indices) to each row of `values`."""
        subset, values = kernel_batch(subset, values)
        held = self._scores.get(subset, {})
        keys = _keys(values)
        hit = [key in held for key in keys]
        lam = np.empty((len(keys), self.model.n_outputs))
        if any(hit):
            lam[hit] = [held[key][0] for key in compress(keys, hit)]
        if not all(hit):
            miss = np.logical_not(hit)
            lam[miss] = self.kernel.lambdas(subset, values[miss])
        lam.flags.writeable = False
        return lam

    def scores(self, subset, values) -> tuple:
        """(lambda, upsilon), each (c, L) and read-only, for that batch."""
        subset, values = kernel_batch(subset, values)
        scores = np.array(self._fill(subset, values)).reshape(
            len(values), 2, self.model.n_outputs)
        scores.flags.writeable = False
        return scores[:, 0], scores[:, 1]

    def lambda_upsilon(self, assignments: list) -> np.ndarray:
        """(c, 2, L) read-only: each assignment's lambda and upsilon rows,
        from one `scores` batch per feature subset."""
        rows = [None] * len(assignments)
        for subset, (at, values) in group_by_subset(assignments).items():
            held = self._fill(subset, values)
            for i, row in zip(at, held):
                rows[i] = row
        out = np.array(rows).reshape(len(rows), 2, self.model.n_outputs)
        out.flags.writeable = False
        return out

    def predict(self, assignments: list) -> np.ndarray:
        """(c, 2, L) read-only: each assignment's predicted lambda and
        upsilon rows. With a surrogate they are its estimates, from one
        encoded batch and one forward pass, and are not kept; without one
        they are `lambda_upsilon`'s exact rows."""
        if self.surrogate is None:
            return self.lambda_upsilon(assignments)
        out = predict_scores(self.surrogate, assignments, self.reference)
        out.flags.writeable = False
        return out

    def _fill(self, subset: tuple, values: np.ndarray) -> list:
        """Each row's read-only (2, L) lambda and upsilon in a
        `kernel_batch`, once the rows the cache lacks are scored and kept."""
        # Only rows that passed the kernel's validation are stored, and
        # validity depends on the row alone, so a hit needs no check.
        keys = _keys(values)
        held = self._scores.setdefault(subset, {})
        # equal keys are equal rows, so one of each is scored
        new = list({k: i for i, k in enumerate(keys)
                    if k not in held}.values())
        if new:
            lam, ups = self.kernel.scores(subset, values[new])
            scores = np.concatenate((lam, ups), axis=1).reshape(
                len(new), 2, -1)
            scores.flags.writeable = False
            held.update(zip([keys[i] for i in new], scores))
            self.scored += len(new)
        return [held[k] for k in keys]


@dataclass
class Scorer:
    """Turns assignments into Candidates: lambda and upsilon come from
    `cache`, exact in `score` and `score_all` and predicted (by its
    surrogate, when it has one) in `predict_all`; gamma comes from
    `config`'s omega and `objective`. Scorers with any omega or objective
    may share one cache.
    """

    cache: ScoreCache
    config: SearchConfig
    objective: Objective

    def score(self, assignment: FeatureAssignment) -> Candidate:
        return self.score_all([assignment])[0]

    def score_all(self, assignments: list) -> list:
        """One exactly scored Candidate per assignment, in order."""
        return to_candidates(assignments,
                             self.cache.lambda_upsilon(assignments),
                             self.config.omega, self.objective)

    def predict_all(self, assignments: list) -> list:
        """One Candidate per assignment, in order, from `cache.predict`."""
        return to_candidates(assignments, self.cache.predict(assignments),
                             self.config.omega, self.objective)

    def rescore(self, candidates: list) -> list:
        """`candidates` scored exactly and sorted by `Candidate.rank`."""
        return sorted(self.score_all([c.assignment for c in candidates]),
                      key=Candidate.rank)


def expand(beam: list, scorer: Scorer) -> list:
    """Every one-pair extension of every beam member, with predicted scores
    (`Scorer.predict_all`), so exact without a surrogate. No dedup here:
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
    return scorer.predict_all(children)


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
    best_gamma: float  # running maximum over every exact candidate so far
    best_mean_lambda: float  # direction-best mean lambda within this stage


def _stage_best_lambda(candidates: list, objective: Objective) -> float:
    return min((c.mean_lambda(objective) for c in candidates),
               key=objective.direction.rank)


def run_search(cache: ScoreCache, config: SearchConfig, objective: Objective):
    """Beam search from the empty assignment over `cache`'s model, reference
    and surrogate. Each stage ranks `expand`'s children by their predicted
    scores, keeps the best `zeta` and scores only those exactly, so a
    surrogate shapes the path alone: every Candidate returned is exact.
    Returns (SN, stages): SN is the final beam plus the best candidate seen
    at any stage, and stages one StageRecord per depth from 0. A shared
    `cache` reuses the scores of earlier searches."""
    n_features = cache.reference.n_features
    config.validate(n_features)
    scorer = Scorer(cache, config, objective)

    empty = scorer.score(FeatureAssignment.empty())
    best = empty
    beam = [empty]
    stages = [StageRecord(0, beam, best.gamma,
                          _stage_best_lambda(beam, objective))]
    for depth in range(1, config.depth(n_features) + 1):
        beam = scorer.rescore(prune(expand(beam, scorer), config.zeta))
        # The incumbent comes first, so a tie keeps it.
        best = min([best, *beam], key=Candidate.rank)
        stages.append(StageRecord(depth, beam, best.gamma,
                                  _stage_best_lambda(beam, objective)))

    selected = {c.key: c for c in beam}
    selected.setdefault(best.key, best)
    sn = sorted(selected.values(), key=Candidate.rank)
    return sn, stages


def top_feature_report(cache: ScoreCache, config: SearchConfig,
                       objective: Objective, k: int):
    """Rank every single-pair assignment of the reference's candidate grid
    (the empty assignment's `expand`) by `Candidate.rank` of its predicted
    scores, then score the k best exactly and rank them again. Returns (the
    empty assignment's Candidate, those k single-pair Candidates), all
    exact.

    A pair whose gamma is below the empty one's scores below the do-nothing
    baseline. A `cache` shared with run_search makes every pair a lookup."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    config.validate(cache.reference.n_features)
    scorer = Scorer(cache, config, objective)
    empty = scorer.score(FeatureAssignment.empty())
    return empty, scorer.rescore(
        sorted(expand([empty], scorer), key=Candidate.rank)[:k])


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
