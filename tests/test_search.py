import numpy as np
import pytest

from sensopt.baseline import exhaustive_gamma_by_depth
from sensopt.data import FeatureKind, FeatureMeta, format_assignment
from sensopt.errors import ConfigError, ShapeError
from sensopt.nn import Activation, Layer, MLPModel, ModelKind, build_model, forward
from sensopt.search import (
    Candidate,
    Direction,
    Objective,
    ScoreCache,
    Scorer,
    SearchConfig,
    expand,
    gamma_from,
    lambda_of,
    prune,
    run_search,
    top_feature_report,
    write_trace_csv,
)
from sensopt.sensitivity import (
    FeatureAssignment,
    ReferenceSet,
    clone_and_fix,
    sensitivity_from_predictions,
)

MIN = Objective(Direction.MINIMIZE_LABELS)
MAX = Objective(Direction.MAXIMIZE_LABELS)


def make_setup(n=3, values=2, k=20, labels=2, seed=0):
    rng = np.random.default_rng(seed)
    domains = [np.linspace(0.0, 1.0, values) for _ in range(n)]
    X = rng.choice(domains[0], size=(k, n))
    T = ReferenceSet(X, domains=domains)
    M = build_model(n, labels, ModelKind.CLASSIFIER, [8], seed=seed + 1)
    return M, T


def constant_classifier(n, labels):
    return MLPModel(
        [Layer(np.zeros((n, labels)), np.zeros(labels), Activation.SIGMOID)],
        ModelKind.CLASSIFIER,
    )


def constant_regressor(n_inputs, labels, value=0.0):
    l1 = Layer(np.zeros((n_inputs, 4)), np.zeros(4), Activation.RELU)
    l2 = Layer(np.zeros((4, 4)), np.zeros(4), Activation.RELU)
    l3 = Layer(np.zeros((4, labels)), np.full(labels, value), Activation.IDENTITY)
    return MLPModel([l1, l2, l3], ModelKind.REGRESSOR)


def test_gamma_from_derived_value():
    lam = np.array([0.2, 0.4, 0.6])
    ups = np.ones(3)
    got = gamma_from(lam, ups, 0.6, MIN)
    assert abs(got - 0.76) < 1e-12


def test_gamma_from_boundary_weights():
    rng = np.random.default_rng(1)
    lam = rng.uniform(0.05, 0.95, size=4)
    ups = rng.uniform(0.0, 1.0, size=4)
    assert abs(gamma_from(lam, ups, 1.0, MIN) - np.mean(1.0 - lam)) < 1e-15
    assert abs(gamma_from(lam, ups, 1.0, MAX) - np.mean(lam)) < 1e-15
    assert abs(gamma_from(lam, ups, 0.0, MIN) - np.mean(ups)) < 1e-15


def test_gamma_from_label_subset():
    lam = np.array([0.2, 0.4, 0.6])
    ups = np.ones(3)
    only_first = Objective(Direction.MINIMIZE_LABELS, (0,))
    assert abs(gamma_from(lam, ups, 0.6, only_first) - 0.88) < 1e-12


def test_objective_validation():
    with pytest.raises(ConfigError):
        Objective(Direction.MINIMIZE_LABELS, ()).label_indices(3)
    with pytest.raises(ConfigError):
        Objective(Direction.MINIMIZE_LABELS, (0, 0)).label_indices(3)
    with pytest.raises(ConfigError):
        Objective(Direction.MINIMIZE_LABELS, (5,)).label_indices(3)


def test_lambda_of_reference_cases():
    M, T = make_setup(seed=3)
    empty = lambda_of(M, T, FeatureAssignment.empty())
    assert np.all(np.abs(empty - forward(M, T.features).mean(axis=0)) <= 1e-12)

    full = FeatureAssignment.of((0, 0.0), (1, 1.0), (2, 0.0))
    got = lambda_of(M, T, full)
    row = np.array([[0.0, 1.0, 0.0]])
    assert np.all(np.abs(got - forward(M, row)[0]) <= 1e-12)


def test_lambda_of_constant_model():
    T = ReferenceSet(np.random.default_rng(0).normal(size=(15, 3)))
    M = constant_classifier(3, 2)
    for a in [FeatureAssignment.empty(), FeatureAssignment.of((1, 0.3))]:
        assert np.all(lambda_of(M, T, a) == 0.5)


def test_score_candidate_gamma_recomputable():
    M, T = make_setup(seed=5)
    for omega in (0.0, 0.3, 0.6, 1.0):
        c = Scorer(ScoreCache(M, T), SearchConfig(omega=omega), MIN).score(
            FeatureAssignment.of((0, 1.0)))
        again = gamma_from(c.lambda_per_label, c.upsilon_per_label, omega, MIN)
        assert abs(c.gamma - again) <= 1e-12
        assert np.all(c.lambda_per_label > 0.0)
        assert np.all(c.lambda_per_label < 1.0)


def make_scorer(M, T, omega=0.6, zeta=5, objective=MIN, max_depth=None):
    cfg = SearchConfig(omega=omega, zeta=zeta, max_depth=max_depth)
    return cfg, Scorer(ScoreCache(M, T), cfg, objective)


def test_expand_counts():
    M, T = make_setup(n=2, values=2, seed=7)
    cfg, scorer = make_scorer(M, T)
    empty = scorer.score(FeatureAssignment.empty())
    out = expand([empty], scorer)
    assert len(out) == 4
    assert all(len(c.assignment) == 1 for c in out)

    full = scorer.score(FeatureAssignment.of((0, 0.0), (1, 1.0)))
    assert expand([full], scorer) == []

    with pytest.raises(ConfigError):
        expand([empty, out[0]], scorer)


def test_expand_scores_match_independent_calls():
    M, T = make_setup(seed=11)
    cfg, scorer = make_scorer(M, T, omega=0.4)
    beam = prune(expand([scorer.score(FeatureAssignment.empty())], scorer), 3)
    for c in expand(beam, scorer):
        again = Scorer(ScoreCache(M, T), SearchConfig(omega=0.4),
                       MIN).score(c.assignment)
        assert c.gamma == again.gamma
        assert np.array_equal(c.lambda_per_label, again.lambda_per_label)


def fake_candidate(pairs, gamma):
    a = FeatureAssignment(tuple(pairs))
    return Candidate(a, gamma, np.array([0.5]), np.array([0.5]))


def test_prune_orders_and_cuts():
    c1 = fake_candidate([(0, 0.0)], 0.3)
    c2 = fake_candidate([(1, 0.0)], 0.9)
    c3 = fake_candidate([(2, 0.0)], 0.6)
    got = prune([c1, c2, c3], 2)
    assert [c.gamma for c in got] == [0.9, 0.6]
    assert len(prune([c1, c2, c3], 10)) == 3
    assert prune([c1, c2, c3], 1)[0] is c2


def test_prune_tie_breaks_lexicographically():
    a = fake_candidate([(1, 0.5)], 0.7)
    b = fake_candidate([(0, 9.0)], 0.7)
    got = prune([a, b], 1)
    assert got[0].assignment.key == ((0, 9.0),)
    # deterministic regardless of input order
    assert prune([b, a], 1)[0].assignment.key == ((0, 9.0),)


def test_prune_collapses_duplicate_assignments():
    a = fake_candidate([(0, 1.0), (1, 0.0)], 0.5)
    b = fake_candidate([(1, 0.0), (0, 1.0)], 0.5)  # same assignment, other order
    got = prune([a, b], 5)
    assert len(got) == 1


def test_run_search_depth_zero():
    M, T = make_setup(seed=13)
    cfg = SearchConfig(max_depth=0)
    sn, trace = run_search(ScoreCache(M, T), cfg, MIN)
    assert len(sn) == 1
    assert sn[0].assignment == FeatureAssignment.empty()
    assert len(trace) == 1


def test_run_search_trace_shape_and_monotone_best():
    M, T = make_setup(n=4, values=3, seed=17)
    cfg = SearchConfig(zeta=3)
    sn, trace = run_search(ScoreCache(M, T), cfg, MIN)
    assert len(trace) == 5
    for s, record in enumerate(trace):
        assert record.stage == s
        assert len(record.candidates) <= 3
        assert all(len(c.assignment) == s for c in record.candidates)
    bests = [r.best_gamma for r in trace]
    assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))
    # SN holds the final beam plus the running best
    assert len(sn) <= 4
    assert sn[0].gamma == bests[-1]


def test_run_search_returns_running_best_from_early_stage():
    # with omega=0 and minimize, gamma is the sensitivity itself; the empty
    # assignment scores exactly 1, above every proper fixing
    M, T = make_setup(n=3, values=2, seed=19)
    cfg = SearchConfig(omega=0.0, zeta=2)
    sn, trace = run_search(ScoreCache(M, T), cfg, MIN)
    assert sn[0].assignment == FeatureAssignment.empty()
    assert abs(sn[0].gamma - 1.0) <= 1e-12
    assert all(len(c.assignment) in (0, 3) for c in sn)


def test_run_search_deterministic():
    M, T = make_setup(n=4, values=2, seed=23)
    cfg = SearchConfig(zeta=4)
    sn1, tr1 = run_search(ScoreCache(M, T), cfg, MIN)
    sn2, tr2 = run_search(ScoreCache(M, T), cfg, MIN)
    assert [c.assignment.key for c in sn1] == [c.assignment.key for c in sn2]
    assert [c.gamma for c in sn1] == [c.gamma for c in sn2]
    for r1, r2 in zip(tr1, tr2):
        assert [c.gamma for c in r1.candidates] == [c.gamma for c in r2.candidates]
        assert r1.best_gamma == r2.best_gamma
        assert r1.best_mean_lambda == r2.best_mean_lambda


def test_wide_beam_matches_exhaustive_per_depth():
    # distinct assignment counts per arity for n=3, 2 values: 1, 6, 12, 8;
    # zeta=12 keeps everything, so each stage's best must equal enumeration
    M, T = make_setup(n=3, values=2, k=16, seed=29)
    cfg = SearchConfig(zeta=12)
    sn, trace = run_search(ScoreCache(M, T), cfg, MIN)
    scorer = Scorer(ScoreCache(M, T), cfg, MIN)
    oracle = exhaustive_gamma_by_depth(scorer, max_depth=3)
    for depth, best in enumerate(oracle):
        stage_best = trace[depth].candidates[0]
        assert stage_best.gamma == best.gamma
        assert stage_best.assignment.key == best.assignment.key


def test_omega_one_matches_pure_lambda_argmin():
    M, T = make_setup(n=3, values=3, seed=31)
    cfg = SearchConfig(omega=1.0, zeta=1, max_depth=1)
    sn, trace = run_search(ScoreCache(M, T), cfg, MIN)
    winner = trace[1].candidates[0]

    best_key, best_lam = None, None
    for j, dom in enumerate(T.domains):
        for v in dom:
            a = FeatureAssignment.of((j, float(v)))
            lam = float(lambda_of(M, T, a).mean())
            if best_lam is None or lam < best_lam or (lam == best_lam
                                                      and a.key < best_key):
                best_key, best_lam = a.key, lam
    assert winner.assignment.key == best_key


def test_search_config_validation():
    M, T = make_setup()
    with pytest.raises(ConfigError):
        SearchConfig(omega=1.5).validate(3)
    with pytest.raises(ConfigError):
        SearchConfig(zeta=0).validate(3)
    with pytest.raises(ConfigError):
        SearchConfig(max_depth=9).validate(3)
    with pytest.raises(ConfigError):
        ReferenceSet(T.features[:, :2], domains=[np.array([0.0]), np.array([])])
    with pytest.raises(ConfigError):
        ReferenceSet(T.features, domains=[[], [0.0], [0.0]])


def test_top_feature_report_matches_scan():
    M, T = make_setup(n=3, values=3, seed=37)
    cfg = SearchConfig()
    _, top = top_feature_report(ScoreCache(M, T), cfg, MIN, k=1)
    _, scan = top_feature_report(ScoreCache(M, T), cfg, MIN, k=100)
    assert len(scan) == 9  # k past the total returns every pair
    assert top[0].assignment.pairs == scan[0].assignment.pairs
    gammas = [e.gamma for e in scan]
    assert gammas == sorted(gammas, reverse=True)
    with pytest.raises(ConfigError):
        top_feature_report(ScoreCache(M, T), cfg, MIN, k=0)


def test_top_feature_report_dead_model_equal_contributions():
    # constant classifier and constant surrogate: every pair scores the same
    n = 3
    T = ReferenceSet(np.random.default_rng(2).normal(size=(12, n)),
                     domains=[np.array([0.0, 1.0])] * n)
    M = constant_classifier(n, 2)
    ds = constant_regressor(2 * n, 2, value=0.0)
    cfg = SearchConfig()
    empty, report = top_feature_report(ScoreCache(M, T, ds), cfg, MIN, k=50)
    deltas = np.array([c.gamma - empty.gamma for c in report])
    assert np.all(np.abs(deltas) <= 1e-9)


def test_surrogate_mode_uses_surrogate_scores():
    n = 3
    M, T = make_setup(n=n, seed=43)
    ds = constant_regressor(2 * n, 2, value=0.25)
    cfg = SearchConfig(omega=0.6)
    c = Scorer(ScoreCache(M, T, ds), cfg, MIN).score(
        FeatureAssignment.of((0, 1.0)))
    assert np.all(c.upsilon_per_label == 0.25)
    want = gamma_from(c.lambda_per_label, np.full(2, 0.25), 0.6, MIN)
    assert c.gamma == want


def test_upsilon_comes_from_the_surrogate_exactly_when_one_is_given():
    M, T = make_setup(n=3, seed=43)
    a = FeatureAssignment.of((0, 1.0))
    cfg = SearchConfig()
    oracle = sensitivity_from_predictions(forward(M, clone_and_fix(T, a)),
                                          forward(M, T.features))
    plain = Scorer(ScoreCache(M, T), cfg, MIN).score(a)
    assert np.all(np.abs(plain.upsilon_per_label - oracle) <= 1e-12)
    ds = constant_regressor(6, 2, value=0.25)
    distilled = Scorer(ScoreCache(M, T, ds), cfg, MIN).score(a)
    assert np.array_equal(distilled.upsilon_per_label, np.full(2, 0.25))
    assert not np.array_equal(oracle, np.full(2, 0.25))
    # lambda is the classifier's either way
    assert np.array_equal(distilled.lambda_per_label, plain.lambda_per_label)


def test_score_cache_refuses_a_surrogate_of_another_label_count():
    M, T = make_setup(n=3, labels=2, seed=47)
    with pytest.raises(ShapeError):
        ScoreCache(M, T, constant_regressor(6, 3))


def test_format_assignment():
    features = [FeatureMeta("alpha", FeatureKind.CONTINUOUS, [0.0, 0.5, 1.0]),
                FeatureMeta("beta", FeatureKind.CATEGORICAL, [0.0, 0.5, 1.0],
                            raw_categories=["lo", "mid", "hi"])]
    # continuous values as the repr of the scaled value, categories as text
    a = FeatureAssignment.of((1, 0.5), (0, 1.0))
    assert format_assignment(a, features) == "alpha=1.0;beta=mid"
    assert format_assignment(FeatureAssignment.of((1, 1.0)), features) == "beta=hi"
    assert format_assignment(FeatureAssignment.of((0, 0.1)), features) == "alpha=0.1"
    assert format_assignment(FeatureAssignment.empty(), features) == ""


def test_write_trace_csv(tmp_path):
    M, T = make_setup(n=3, values=2, seed=47)
    cfg = SearchConfig(zeta=2)
    _, trace = run_search(ScoreCache(M, T), cfg, MIN)
    path = tmp_path / "trace.csv"
    features = [FeatureMeta(f"f{j}", FeatureKind.CONTINUOUS, domain)
                for j, domain in enumerate(T.domains)]
    write_trace_csv(trace, path, MIN, features)
    lines = path.read_text().splitlines()
    assert lines[0] == "# schema_version=1"
    assert lines[1] == "stage,candidate_rank,gamma,mean_lambda,assignment"
    stages = [int(ln.split(",")[0]) for ln in lines[2:]]
    assert min(stages) == 0 and max(stages) == 3
    ranks = [int(ln.split(",")[1]) for ln in lines[2:] if ln.split(",")[0] == "1"]
    assert ranks == [1, 2]
