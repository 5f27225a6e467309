"""Exact reference optimizers.

Two baselines: full enumeration over every assignment up to a given arity
(the correctness oracle, budget-guarded because the count grows like a
product of domain sizes), and the sequential per-feature greedy that fixes
one feature at a time by its marginal effect. The greedy is cheap and exact
for additive responses but misses interactions; tests rely on both facts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .errors import BudgetExceededError, ConfigError
from .nn import MLPModel
from .sensitivity import FeatureAssignment, ReferenceSet, SensitivityKernel
from .search import Direction, Objective, Scorer, lambda_of

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


def _improves(value: float, key: tuple, best_value: float | None,
              best_key: tuple | None, direction: Direction) -> bool:
    if best_value is None:
        return True
    if value != best_value:
        return direction.better(value, best_value)
    return key < best_key


def brute_force(M: MLPModel, T: ReferenceSet, objective: Objective,
                max_arity: int | None = None,
                budget: int = DEFAULT_BUDGET) -> BaselineResult:
    """Exhaustive argmin/argmax of mean lambda over all assignments of T's
    candidate grid with arity <= max_arity. Refuses up front when the
    enumeration exceeds `budget`."""
    domains = T.grid
    if max_arity is None:
        max_arity = len(domains)
    if not 0 <= max_arity <= len(domains):
        raise ConfigError(f"max_arity must be in [0, {len(domains)}]")
    size = enumeration_size(domains, max_arity)
    if size > budget:
        raise BudgetExceededError(size, budget)

    kernel = SensitivityKernel(M, T)
    evaluations = 0
    unset = (None, None, None)
    stage_best = {}  # arity -> (value, key, assignment)
    for arity in range(max_arity + 1):
        for subset in combinations(range(len(domains)), arity):
            # One batch per subset: every value row, in domain order.
            combos = list(product(*(domains[j] for j in subset)))
            rows = np.array(combos, dtype=np.float64).reshape(len(combos), arity)
            values = objective.collapse_rows(kernel.lambdas(subset, rows))
            evaluations += len(values)
            value = objective.direction.best(values.tolist())
            key = min(tuple(zip(subset, rows[i].tolist()))
                      for i in np.flatnonzero(values == value))
            prev = stage_best.get(arity, unset)
            if _improves(value, key, prev[0], prev[1], objective.direction):
                stage_best[arity] = (value, key, FeatureAssignment(key))
    # Same (value, key) order, so the best per-arity best is the overall best.
    best = unset
    for cand in stage_best.values():
        if _improves(cand[0], cand[1], best[0], best[1], objective.direction):
            best = cand
    trace = [BaselineStage(arity, stage_best[arity][2], stage_best[arity][0])
             for arity in sorted(stage_best)]
    return BaselineResult("brute_force", best[2], best[0], evaluations, trace)


def sequential_dp(M: MLPModel, T: ReferenceSet, objective: Objective,
                  feature_order=None) -> BaselineResult:
    """Fix features one at a time, each at T's candidate value that
    best moves the mean prediction given everything already fixed. Always
    commits a value per feature, so interactions it never looked ahead to
    are lost.

    Costs exactly sum of domain sizes plus one evaluation."""
    domains = T.grid
    n = len(domains)
    if feature_order is None:
        feature_order = list(range(n))
    if sorted(feature_order) != list(range(n)):
        raise ConfigError("feature_order must be a permutation of all features")

    kernel = SensitivityKernel(M, T)
    current = FeatureAssignment.empty()
    value = objective.collapse(lambda_of(M, T, current))
    evaluations = 1
    trace = [BaselineStage(0, current, value)]
    for step, j in enumerate(feature_order, start=1):
        cands = [current.extend(j, float(v)) for v in domains[j]]
        lam, _ = kernel.score_assignments(cands, upsilon=False)
        evaluations += len(cands)
        best = None
        best_value = None
        for cand, cand_value in zip(cands, objective.collapse_rows(lam).tolist()):
            if _improves(cand_value, cand.key, best_value,
                         None if best is None else best.key,
                         objective.direction):
                best_value, best = cand_value, cand
        current = best
        value = best_value
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
    best = {}
    for a in enumerate_assignments(domains, max_depth):
        c = scorer.score(a)
        arity = len(a)
        prev = best.get(arity)
        if prev is None or (-c.gamma, c.key) < (-prev.gamma, prev.key):
            best[arity] = c
    return [best[arity] for arity in sorted(best)]
