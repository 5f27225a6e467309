import itertools

import numpy as np
import pytest

from sensopt.errors import DegenerateReferenceError, DomainError
from sensopt.nn import Activation, Layer, MLPModel, ModelKind, build_model, forward
from sensopt.search import Direction, Objective, ScoreCache, Scorer, SearchConfig
from sensopt.sensitivity import (
    FeatureAssignment,
    ReferenceSet,
    clone_and_fix,
    sensitivity_from_predictions,
)


def linear_model(coeffs) -> MLPModel:
    """Regressor computing f(x) = sum_j coeffs[j] * x_j (single output)."""
    w = np.asarray(coeffs, dtype=np.float64)[:, None]
    return MLPModel([Layer(w, np.zeros(1), Activation.IDENTITY)],
                    ModelKind.REGRESSOR)


def upsilon(model, T, a, ref=None):
    """Per-label sensitivity of `a` from the two scoring primitives."""
    if ref is None:
        ref = forward(model, T.features)
    return sensitivity_from_predictions(forward(model, clone_and_fix(T, a)), ref)


def factorial_reference(levels, n):
    """Full factorial grid: empirical cross-covariances are exactly zero."""
    grid = np.array(list(itertools.product(levels, repeat=n)), dtype=np.float64)
    return ReferenceSet(grid)


def test_assignment_normalization_and_validation():
    a = FeatureAssignment.of((2, 1.0), (0, 3.0))
    assert a.key == ((0, 3.0), (2, 1.0))
    assert len(a) == 2
    assert a.indices == frozenset({0, 2})
    # one canonical form: pairs in feature order, whatever the given order
    assert a == FeatureAssignment.of((0, 3.0), (2, 1.0))
    assert hash(a) == hash(FeatureAssignment.of((0, 3.0), (2, 1.0)))
    assert a.pairs == ((0, 3.0), (2, 1.0))
    with pytest.raises(ValueError):
        FeatureAssignment.of((1, 0.0), (1, 2.0))
    with pytest.raises(IndexError):
        FeatureAssignment.of((-1, 0.0))


def test_assignment_extend_keeps_original():
    a = FeatureAssignment.of((0, 1.0))
    b = a.extend(1, 2.0)
    assert len(a) == 1 and len(b) == 2
    with pytest.raises(ValueError):
        a.extend(0, 5.0)


def test_reference_set_needs_two_rows():
    with pytest.raises(ValueError):
        ReferenceSet(np.zeros((1, 3)))


def test_clone_and_fix_empty_is_identity():
    T = ReferenceSet(np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = clone_and_fix(T, FeatureAssignment.empty())
    assert np.array_equal(out, T.features)
    assert out is not T.features


def test_clone_and_fix_substitution():
    T = ReferenceSet(np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = clone_and_fix(T, FeatureAssignment.of((0, 9.0)))
    assert np.array_equal(out, [[9.0, 2.0], [9.0, 4.0]])
    # input untouched
    assert np.array_equal(T.features, [[1.0, 2.0], [3.0, 4.0]])


def test_clone_and_fix_full_assignment_makes_identical_rows():
    T = ReferenceSet(np.arange(12, dtype=np.float64).reshape(4, 3))
    out = clone_and_fix(T, FeatureAssignment.of((0, 1.0), (1, 2.0), (2, 3.0)))
    assert np.all(out == out[0])


def test_clone_and_fix_validates_indices_and_domains():
    T = ReferenceSet(np.zeros((3, 2)), domains=[np.array([0.0, 1.0])] * 2)
    with pytest.raises(IndexError):
        clone_and_fix(T, FeatureAssignment.of((5, 0.0)))
    with pytest.raises(DomainError):
        clone_and_fix(T, FeatureAssignment.of((0, 0.5)))


def test_domain_check_keeps_its_tolerance():
    T = ReferenceSet(np.zeros((3, 2)),
                     domains=[np.array([0.0, 0.1]), np.array([1.0])])
    near = 0.1 + 1e-13
    assert near != 0.1
    out = clone_and_fix(T, FeatureAssignment.of((0, near)))
    assert np.all(out[:, 0] == near)  # the given value, not the domain entry
    with pytest.raises(DomainError):
        clone_and_fix(T, FeatureAssignment.of((0, 0.1 + 1e-9)))
    with pytest.raises(IndexError):
        clone_and_fix(T, FeatureAssignment.of((2, 1.0)))


def test_sensitivity_empty_assignment_is_one():
    rng = np.random.default_rng(0)
    model = build_model(4, 3, ModelKind.CLASSIFIER, [8], seed=1)
    T = ReferenceSet(rng.normal(size=(50, 4)))
    score = upsilon(model, T, FeatureAssignment.empty())
    assert np.all(np.abs(score - 1.0) <= 1e-12)


def test_sensitivity_full_assignment_is_zero():
    rng = np.random.default_rng(2)
    model = build_model(3, 2, ModelKind.CLASSIFIER, [6], seed=3)
    T = ReferenceSet(rng.normal(size=(40, 3)))
    full = FeatureAssignment.of((0, 0.5), (1, -1.0), (2, 2.0))
    assert np.all(upsilon(model, T, full) == 0.0)


def test_sensitivity_additive_sobol_identity():
    # For f(x) = sum a_j x_j with independent features, fixing feature q
    # removes exactly its variance share: 1 - a_q^2 Var(x_q) / Var(f).
    rng = np.random.default_rng(7)
    coeffs = np.array([0.9, -0.6, 0.3, 1.2])
    sigmas = np.array([1.0, 0.5, 2.0, 1.5])
    k = 10_000
    X = rng.normal(size=(k, 4)) * sigmas
    T = ReferenceSet(X)
    model = linear_model(coeffs)
    var_f = float(np.sum(coeffs**2 * sigmas**2))
    for q in range(4):
        got = upsilon(model, T, FeatureAssignment.of((q, 0.7))).mean()
        want = 1.0 - coeffs[q] ** 2 * sigmas[q] ** 2 / var_f
        assert abs(got - want) < 0.05


def test_sensitivity_monotone_refinement_on_additive_model():
    # On a full factorial reference the additive decomposition is exact, so
    # fixing a superset of features can never increase the score.
    coeffs = [0.8, -0.5, 0.3, 1.1]
    model = linear_model(coeffs)
    T = factorial_reference([0.0, 1.0, 2.0], 4)
    ref = forward(model, T.features)
    scores = {}
    for r in range(5):
        for subset in itertools.combinations(range(4), r):
            a = FeatureAssignment(tuple((j, 1.0) for j in subset))
            scores[subset] = upsilon(model, T, a, ref).mean()
    for subset, value in scores.items():
        for bigger, bigger_value in scores.items():
            if set(subset) < set(bigger):
                assert bigger_value <= value + 1e-6


def test_sensitivity_row_order_invariance():
    rng = np.random.default_rng(5)
    model = build_model(3, 2, ModelKind.CLASSIFIER, [5], seed=0)
    X = rng.normal(size=(30, 3))
    a = FeatureAssignment.of((1, 0.25))
    base = upsilon(model, ReferenceSet(X), a)
    perm = rng.permutation(30)
    shuffled = upsilon(model, ReferenceSet(X[perm]), a)
    assert np.all(np.abs(base - shuffled) <= 1e-12)


def test_sensitivity_degenerate_variance_names_label():
    # zero-weight classifier predicts 0.5 everywhere: zero variance
    l = Layer(np.zeros((2, 2)), np.zeros(2), Activation.SIGMOID)
    model = MLPModel([l], ModelKind.CLASSIFIER)
    T = ReferenceSet(np.random.default_rng(0).normal(size=(10, 2)))
    cfg = SearchConfig()
    scorer = Scorer(ScoreCache(model, T), cfg,
                    Objective(Direction.MINIMIZE_LABELS))
    with pytest.raises(DegenerateReferenceError) as err:
        scorer.score(FeatureAssignment.empty())
    assert err.value.label == 0
    assert "label" in str(err.value)


def test_sensitivity_dead_feature_invariance():
    # zero coefficient on feature 3: fixing it cannot move predictions
    model = linear_model([0.7, -0.4, 1.1, 0.0])
    rng = np.random.default_rng(11)
    T = ReferenceSet(rng.normal(size=(200, 4)))
    cfg = SearchConfig()
    scorer = Scorer(ScoreCache(model, T), cfg,
                    Objective(Direction.MINIMIZE_LABELS))
    base = FeatureAssignment.of((0, 0.3))
    base_score = scorer.score(base).upsilon_per_label
    for v in (-2.0, 0.0, 5.0):
        got = scorer.score(base.extend(3, v)).upsilon_per_label
        assert np.all(np.abs(got - base_score) <= 1e-9)
