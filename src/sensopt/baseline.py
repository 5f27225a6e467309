"""Exact reference optimizers.

Two baselines: full enumeration over every assignment up to a given arity
(the correctness oracle, budget-guarded because the count grows like a
product of domain sizes), and the sequential per-feature greedy that fixes
one feature at a time by its marginal effect. The greedy is cheap and exact
for additive responses but misses interactions; tests rely on both facts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, groupby, product

import numpy as np

from .errors import BudgetExceededError, ConfigError
from .sensitivity import FeatureAssignment
# lambda_of is unused here, but bench/tracing.py counts calls to it through
# this module's name for it, so the name must stay bound.
from .search import Candidate, Objective, ScoreCache, Scorer, lambda_of

DEFAULT_BUDGET = 10**6


@dataclass
class BaselineStage:
    stage: int
    assignment: FeatureAssignment
    mean_lambda: float


@dataclass
class BaselineResult:
    method: str
    best_assignment: FeatureAssignment
    best_objective: float  # mean lambda over the objective's labels
    evaluations: int
    stage_trace: list


def enumeration_size(value_domains, max_arity: int) -> int:
    """Number of assignments with arity <= max_arity, empty one included.

    Exact polynomial-coefficient count: the arity-r total is the sum over
    r-subsets of the product of their domain sizes.
    """
    counts = [1]  # counts[r] = assignments of arity r over features seen so far
    for dom in value_domains:
        size = len(dom)
        nxt = counts + [0]
        for r in range(len(counts), 0, -1):
            nxt[r] += counts[r - 1] * size
        counts = nxt
    return sum(counts[: max_arity + 1])


def enumerate_assignments(value_domains, max_arity: int):
    """Yield every assignment of arity 0..max_arity, deterministic order:
    arity ascending, feature subsets lexicographic, values in domain order."""
    domains = [np.asarray(dom, dtype=np.float64) for dom in value_domains]
    n = len(domains)
    for arity in range(max_arity + 1):
        for subset in combinations(range(n), arity):
            for values in product(*(domains[j] for j in subset)):
                yield FeatureAssignment(
                    tuple((j, float(v)) for j, v in zip(subset, values))
                )


def brute_force(cache: ScoreCache, objective: Objective,
                max_arity: int | None = None,
                budget: int = DEFAULT_BUDGET) -> BaselineResult:
    """Exhaustive argmin/argmax of mean lambda over all assignments of the
    cache's candidate grid with arity <= max_arity, one `cache.lambdas`
    batch per feature subset. Refuses up front when the enumeration exceeds
    `budget`."""
    domains = cache.reference.grid
    if max_arity is None:
        max_arity = len(domains)
    if not 0 <= max_arity <= len(domains):
        raise ConfigError(f"max_arity must be in [0, {len(domains)}]")
    size = enumeration_size(domains, max_arity)
    if size > budget:
        raise BudgetExceededError(size, budget)

    rank = objective.direction.rank

    def by_rank(best):
        value, key = best
        return rank(value), key

    evaluations = 0
    stage_best = []  # per arity, (value, key) of its best assignment
    for arity in range(max_arity + 1):
        subset_best = []
        for subset in combinations(range(len(domains)), arity):
            # One batch per subset: every value row, in domain order.
            combos = list(product(*(domains[j] for j in subset)))
            rows = np.array(combos, dtype=np.float64).reshape(len(combos), arity)
            values = objective.collapse_rows(cache.lambdas(subset, rows))
            evaluations += len(values)
            # The least rank over the whole batch, then keys only for the
            # rows that tie on it.
            ranks = rank(values)
            ties = np.flatnonzero(ranks == ranks.min())
            subset_best.append((float(values[ties[0]]),
                                min(tuple(zip(subset, rows[i].tolist()))
                                    for i in ties)))
        stage_best.append(min(subset_best, key=by_rank))
    value, key = min(stage_best, key=by_rank)
    trace = [BaselineStage(arity, FeatureAssignment(k), v)
             for arity, (v, k) in enumerate(stage_best)]
    return BaselineResult("brute_force", FeatureAssignment(key), value,
                          evaluations, trace)


def sequential_dp(cache: ScoreCache, objective: Objective,
                  feature_order=None) -> BaselineResult:
    """Fix features one at a time, each at the cache's candidate value that
    best moves the mean prediction given everything already fixed. Always
    commits a value per feature, so interactions it never looked ahead to
    are lost. A step's candidates share one feature subset, so each step is
    one `cache.lambdas` batch.

    Costs exactly sum of domain sizes plus one evaluation."""
    domains = cache.reference.grid
    n = len(domains)
    if feature_order is None:
        feature_order = list(range(n))
    if sorted(feature_order) != list(range(n)):
        raise ConfigError("feature_order must be a permutation of all features")

    current = FeatureAssignment.empty()
    value = objective.collapse(cache.lambdas((), np.empty((1, 0)))[0])
    evaluations = 1
    trace = [BaselineStage(0, current, value)]
    for step, j in enumerate(feature_order, start=1):
        cands = [current.extend(j, float(v)) for v in domains[j]]
        lam = cache.lambdas([i for i, _ in cands[0]],
                            [[v for _, v in c] for c in cands])
        evaluations += len(cands)
        current, value = min(
            zip(cands, objective.collapse_rows(lam).tolist()),
            key=lambda cv: (objective.direction.rank(cv[1]), cv[0].key))
        trace.append(BaselineStage(step, current, value))
    return BaselineResult("sequential", current, value, evaluations, trace)


def exhaustive_gamma_by_depth(scorer: Scorer, max_depth: int,
                              budget: int = DEFAULT_BUDGET) -> list:
    """Best candidate by gamma at every arity 0..max_depth of the scorer's
    candidate grid, scored exactly like the beam search (same Scorer, same
    tie-break); the oracle that a wide-enough beam must match depth for
    depth."""
    domains = scorer.cache.reference.grid
    if not 0 <= max_depth <= len(domains):
        raise ConfigError(f"max_depth must be in [0, {len(domains)}]")
    size = enumeration_size(domains, max_depth)
    if size > budget:
        raise BudgetExceededError(size, budget)
    # The enumeration runs arity by arity, so each group is one arity.
    scored = (scorer.score(a) for a in enumerate_assignments(domains, max_depth))
    return [min(group, key=Candidate.rank)
            for _, group in groupby(scored, key=lambda c: len(c.assignment))]
