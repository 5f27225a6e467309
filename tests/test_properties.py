"""Property tests: the two scoring composites agree with each other.

`lambda_of` (the baselines' path) and `Scorer.score` (the search's path)
both go through forward(M, clone_and_fix(T, a)), and distillation labels
through sensitivity_from_predictions, so their numbers must match bit for
bit. Examples are derandomized so the suite stays deterministic.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sensopt.baseline import brute_force
from sensopt.nn import ModelKind, build_model
from sensopt.search import (
    Direction,
    Objective,
    Scorer,
    SearchConfig,
    lambda_of,
    run_search,
)
from sensopt.sensitivity import FeatureAssignment, ReferenceSet
from sensopt.surrogate import build_distillation_set

PROPERTY = settings(derandomize=True, max_examples=15, deadline=None)
MIN = Objective(Direction.MINIMIZE_LABELS)


@st.composite
def problems(draw):
    """A small random classifier, a reference set with value domains, and
    one assignment drawn from those domains."""
    n = draw(st.integers(1, 4))
    labels = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    domains = [np.sort(rng.uniform(-1.0, 1.0, size=draw(st.integers(1, 3))))
               for _ in range(n)]
    reference = ReferenceSet(rng.normal(size=(draw(st.integers(4, 20)), n)),
                             domains=domains)
    model = build_model(n, labels, ModelKind.CLASSIFIER,
                        [draw(st.integers(2, 6))], seed=seed)
    picks = draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))
    assignment = FeatureAssignment(tuple(
        (j, float(domains[j][p % len(domains[j])]))
        for j, p in enumerate(picks) if p >= 0))
    return model, reference, assignment


def scorer(model, reference):
    cfg = SearchConfig(value_domains=reference.domains)
    return Scorer(model, reference, cfg, MIN)


@PROPERTY
@given(problems())
def test_lambda_of_equals_scorer_lambda(problem):
    model, reference, a = problem
    assert np.array_equal(lambda_of(model, reference, a),
                          scorer(model, reference).score(a).lambda_per_label)


@PROPERTY
@given(problems(), st.integers(0, 2**16))
def test_distillation_targets_equal_scorer_upsilon(problem, seed):
    model, reference, _ = problem
    dset = build_distillation_set(model, reference, n_samples=6, seed=seed)
    score = scorer(model, reference).score
    for target, a in zip(dset.targets, dset.assignments):
        assert np.array_equal(target, score(a).upsilon_per_label)


@PROPERTY
@given(problems(), st.floats(0.0, 1.0), st.integers(1, 4))
def test_brute_force_bounds_every_beam_candidate(problem, omega, zeta):
    model, reference, _ = problem
    exact = brute_force(model, reference, reference.domains, MIN)
    best_at = {s.stage: s.mean_lambda for s in exact.stage_trace}
    cfg = SearchConfig(value_domains=reference.domains, omega=omega, zeta=zeta)
    sn, trace = run_search(model, reference, cfg, MIN)
    for c in sn + [c for stage in trace.stages for c in stage.candidates]:
        assert best_at[len(c.assignment)] <= c.mean_lambda(MIN)
