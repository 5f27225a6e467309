import numpy as np
import pytest

from sensopt.baseline import (
    BaselineResult,
    brute_force,
    enumerate_assignments,
    enumeration_size,
    exhaustive_gamma_by_depth,
    sequential_dp,
)
from sensopt.errors import BudgetExceededError, ConfigError
from sensopt.nn import Activation, Layer, MLPModel, ModelKind, build_model, forward
from sensopt.search import (
    Direction,
    Objective,
    ScoreCache,
    Scorer,
    SearchConfig,
    lambda_of,
    run_search,
)
from sensopt.sensitivity import FeatureAssignment, ReferenceSet

MIN = Objective(Direction.MINIMIZE_LABELS)
MAX = Objective(Direction.MAXIMIZE_LABELS)


def linear_classifier(weights, bias):
    W = np.asarray(weights, dtype=np.float64).reshape(len(weights), 1)
    return MLPModel([Layer(W, np.array([bias]), Activation.SIGMOID)],
                    ModelKind.CLASSIFIER)


def xor_regressor():
    # exact interaction detector on two binary features:
    # f(1,1)=1.0, f(1,0)=0.0, f(0,*)=0.45
    l1 = Layer(np.array([[1.0, 1.0], [1.0, 0.0]]), np.array([-1.5, -0.5]),
               Activation.RELU)
    l2 = Layer(np.array([[2.0], [-0.9]]), np.array([0.45]), Activation.IDENTITY)
    return MLPModel([l1, l2], ModelKind.REGRESSOR)


def corners_reference():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    return ReferenceSet(X, domains=[np.array([0.0, 1.0])] * 2)


def domain_reference(domains, k=20, seed=0):
    rng = np.random.default_rng(seed)
    X = np.column_stack([rng.choice(d, size=k) for d in domains])
    return ReferenceSet(X, domains=list(domains))


def test_enumeration_size_examples():
    assert enumeration_size([np.zeros(3)], 1) == 4
    mixed = [np.zeros(2), np.zeros(3), np.zeros(4)]
    assert enumeration_size(mixed, 0) == 1
    assert enumeration_size(mixed, 1) == 1 + 9
    assert enumeration_size(mixed, 2) == 1 + 9 + 26
    assert enumeration_size(mixed, 3) == 1 + 9 + 26 + 24


def test_enumeration_size_matches_generator():
    domains = [np.array([0.0, 1.0]), np.array([0.0, 0.5, 1.0]), np.array([2.0])]
    for arity in range(4):
        want = enumeration_size(domains, arity)
        assert len(list(enumerate_assignments(domains, arity))) == want


def test_enumerate_assignments_order():
    domains = [np.array([0.0, 1.0]), np.array([5.0, 6.0])]
    got = [a.key for a in enumerate_assignments(domains, 2)]
    assert got == [
        (),
        ((0, 0.0),), ((0, 1.0),),
        ((1, 5.0),), ((1, 6.0),),
        ((0, 0.0), (1, 5.0)), ((0, 0.0), (1, 6.0)),
        ((0, 1.0), (1, 5.0)), ((0, 1.0), (1, 6.0)),
    ]


def test_brute_force_single_feature():
    M = linear_classifier([2.0], 0.0)
    domains = [np.array([-1.0, 0.0, 1.0])]
    T = domain_reference(domains, k=9, seed=1)
    res = brute_force(ScoreCache(M, T), MIN)
    assert res.evaluations == 4  # empty plus the three values
    assert res.best_assignment.key == (((0, -1.0)),)
    want = forward(M, np.array([[-1.0]]))[0, 0]
    assert res.best_objective == want
    assert res.method == "brute_force"

    res_max = brute_force(ScoreCache(M, T), MAX)
    assert res_max.best_assignment.key == ((0, 1.0),)


def test_brute_force_monotone_model_hits_known_corner():
    M = linear_classifier([2.0, -3.0, 1.0], 0.2)
    domains = [np.array([0.0, 1.0])] * 3
    T = domain_reference(domains, k=12, seed=2)
    res = brute_force(ScoreCache(M, T), MIN)
    assert res.best_assignment.key == ((0, 0.0), (1, 1.0), (2, 0.0))
    want = forward(M, np.array([[0.0, 1.0, 0.0]]))[0, 0]
    assert res.best_objective == want
    assert res.evaluations == 27  # (1 + 2)^3


def test_brute_force_stage_trace_covers_every_arity():
    M = linear_classifier([1.0, -1.0], 0.0)
    domains = [np.array([0.0, 1.0])] * 2
    T = domain_reference(domains, k=8, seed=3)
    res = brute_force(ScoreCache(M, T), MIN)
    assert [s.stage for s in res.stage_trace] == [0, 1, 2]
    values = [s.mean_lambda for s in res.stage_trace]
    assert values == sorted(values, reverse=True)  # deeper fixes only help here
    assert res.stage_trace[0].assignment == FeatureAssignment.empty()


def test_brute_force_arity_zero_and_budget():
    M = linear_classifier([1.0], 0.0)
    domains = [np.array([0.0, 1.0, 2.0])]
    T = domain_reference(domains, k=5, seed=4)
    res = brute_force(ScoreCache(M, T), MIN, max_arity=0)
    assert res.evaluations == 1
    assert res.best_assignment == FeatureAssignment.empty()

    with pytest.raises(BudgetExceededError) as err:
        brute_force(ScoreCache(M, T), MIN, budget=3)
    assert err.value.size == 4
    assert err.value.budget == 3

    with pytest.raises(ConfigError):
        brute_force(ScoreCache(M, T), MIN, max_arity=2)


def test_sequential_matches_brute_force_when_separable():
    # in a single-layer net each feature shifts every row's logit by the same
    # amount, so per-feature greedy choices are jointly optimal
    M = linear_classifier([2.0, -3.0, 1.0], 0.2)
    domains = [np.array([0.0, 0.5, 1.0])] * 3
    T = domain_reference(domains, k=15, seed=5)
    seq = sequential_dp(ScoreCache(M, T), MIN)
    brute = brute_force(ScoreCache(M, T), MIN)
    assert seq.best_assignment == brute.best_assignment
    assert seq.best_objective == brute.best_objective
    assert seq.evaluations == 3 + 3 + 3 + 1
    assert seq.method == "sequential"


def test_sequential_trace_and_order_control():
    M = linear_classifier([1.0, -2.0], 0.0)
    domains = [np.array([0.0, 1.0]), np.array([0.0, 1.0, 2.0])]
    T = domain_reference(domains, k=10, seed=6)
    res = sequential_dp(ScoreCache(M, T), MIN)
    assert [len(s.assignment) for s in res.stage_trace] == [0, 1, 2]
    assert res.evaluations == 2 + 3 + 1

    rev = sequential_dp(ScoreCache(M, T), MIN, feature_order=[1, 0])
    assert rev.best_assignment.key == res.best_assignment.key  # separable
    assert [sorted(s.assignment.indices) for s in rev.stage_trace] == \
        [[], [1], [0, 1]]

    with pytest.raises(ConfigError):
        sequential_dp(ScoreCache(M, T), MIN, feature_order=[0, 0])
    with pytest.raises(ConfigError):
        sequential_dp(ScoreCache(M, T), MIN, feature_order=[0])


def test_sequential_misses_interaction_brute_force_does_not():
    M = xor_regressor()
    T = corners_reference()
    seq = sequential_dp(ScoreCache(M, T), MIN)
    brute = brute_force(ScoreCache(M, T), MIN)
    # greedy fixes x0=0 first (0.45 beats 0.5) and never reaches the (1,0)
    # corner where the prediction is exactly 0
    assert seq.best_assignment.key == ((0, 0.0), (1, 0.0))
    assert seq.best_objective == 0.45
    assert brute.best_assignment.key == ((0, 1.0), (1, 0.0))
    assert brute.best_objective == 0.0
    assert brute.best_objective < seq.best_objective


def test_brute_force_lower_bounds_other_methods():
    rng = np.random.default_rng(7)
    domains = [np.array([0.0, 0.5, 1.0])] * 3
    T = domain_reference(domains, k=20, seed=8)
    M = build_model(3, 2, ModelKind.CLASSIFIER, [8], seed=9)
    brute = brute_force(ScoreCache(M, T), MIN)
    seq = sequential_dp(ScoreCache(M, T), MIN)
    assert brute.best_objective <= seq.best_objective

    cfg = SearchConfig(zeta=2)
    sn, _ = run_search(ScoreCache(M, T), cfg, MIN)
    for c in sn:
        assert brute.best_objective <= c.mean_lambda(MIN)


def test_exhaustive_gamma_by_depth_guards():
    domains = [np.array([0.0, 1.0])] * 3
    T = domain_reference(domains, k=10, seed=10)
    M = build_model(3, 2, ModelKind.CLASSIFIER, [8], seed=11)
    scorer = Scorer(ScoreCache(M, T), SearchConfig(), MIN)
    best = exhaustive_gamma_by_depth(scorer, max_depth=2)
    assert [len(c.assignment) for c in best] == [0, 1, 2]
    assert best[0].assignment == FeatureAssignment.empty()

    # depth-1 entry is the plain argmax over single fixes, key tie-break
    singles = [scorer.score(FeatureAssignment.of((j, float(v))))
               for j in range(3) for v in domains[j]]
    want = min(singles, key=lambda c: (-c.gamma, c.key))
    assert best[1].gamma == want.gamma
    assert best[1].assignment.key == want.assignment.key

    with pytest.raises(BudgetExceededError):
        exhaustive_gamma_by_depth(scorer, max_depth=3, budget=5)
    with pytest.raises(ConfigError):
        exhaustive_gamma_by_depth(scorer, max_depth=4)
