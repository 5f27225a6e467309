"""End-to-end quality gates.

One test per release criterion; `pytest -v tests/test_acceptance.py` prints a
single pass/fail line for each. These intentionally re-derive every expected
value from an independent construction (analytic identities, exhaustive
enumeration, hand-built networks) rather than trusting package internals.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sensopt.baseline import brute_force, exhaustive_gamma_by_depth, sequential_dp
from sensopt.cli import main
from sensopt.data import SyntheticSpec, generate_synthetic, save_csv
from sensopt.nn import (
    Activation,
    Layer,
    LossKind,
    MLPModel,
    ModelKind,
    TrainConfig,
    build_model,
    forward,
    grad_check,
    train,
)
from sensopt.search import (
    Direction,
    Objective,
    ScoreCache,
    Scorer,
    SearchConfig,
    gamma_from,
    run_search,
)
from sensopt.sensitivity import (
    FeatureAssignment,
    ReferenceSet,
    clone_and_fix,
    sensitivity_from_predictions,
)
from sensopt.surrogate import (
    build_distillation_set,
    evaluate_surrogate,
    split_holdout,
    train_surrogate,
)

MIN = Objective(Direction.MINIMIZE_LABELS)
MAX = Objective(Direction.MAXIMIZE_LABELS)


def scaled_synthetic(spec):
    """Synthetic data with codes mapped onto the unit interval."""
    ds, truth = generate_synthetic(spec)
    scale = spec.values_per_feature - 1
    X = ds.X / scale
    domains = [np.arange(spec.values_per_feature) / scale] * spec.n_features
    return X, ds.Y, domains, truth


def fit_classifier(X, Y, hidden, epochs, seed):
    model = build_model(X.shape[1], Y.shape[1], ModelKind.CLASSIFIER, hidden,
                        seed=seed)
    model, _ = train(model, X, Y, TrainConfig(epochs=epochs, seed=seed + 1))
    return model


def test_additive_model_matches_variance_identity():
    # For a logistic model that is additive in its inputs, fixing feature q
    # removes exactly that feature's share of the prediction variance, so
    # the sensitivity must land on 1 - a_q^2 Var(x_q) / Var(sum a x),
    # whatever value q is pinned to. Tolerance 0.05 at 10,000 rows.
    rng = np.random.default_rng(42)
    n, k = 6, 10_000
    a = np.array([0.5, -0.4, 0.3, 0.6, -0.2, 0.45])
    X = rng.uniform(-0.5, 0.5, size=(k, n))
    model = MLPModel(
        [Layer(a.reshape(n, 1), np.array([0.1]), Activation.SIGMOID)],
        ModelKind.CLASSIFIER,
    )
    domains = [np.array([-0.5, 0.0, 0.5])] * n
    reference = ReferenceSet(X, domains=domains)
    ref_preds = forward(model, X)
    var_z = (X @ a).var()
    for q in range(n):
        expected = 1.0 - (a[q] ** 2) * X[:, q].var() / var_z
        for v in domains[q]:
            fixed = forward(
                model, clone_and_fix(reference, FeatureAssignment.of((q, float(v))))
            )
            got = sensitivity_from_predictions(fixed, ref_preds)[0]
            assert abs(got - expected) <= 0.05, (q, v, got, expected)


def test_sensitivity_boundaries_are_exact():
    # fixing nothing keeps all variance, fixing everything removes it all;
    # both ends must hold to 1e-12 for any trained model and reference
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(10, 40))
        labels = int(rng.integers(1, 4))
        X = rng.uniform(size=(k, n))
        Y = rng.integers(0, 2, size=(k, labels)).astype(np.float64)
        model = build_model(n, labels, ModelKind.CLASSIFIER,
                            [int(rng.integers(3, 12))], seed=trial)
        model, _ = train(model, X, Y, TrainConfig(epochs=20, batch_size=8,
                                                  seed=trial))
        reference = ReferenceSet(X)
        ref_preds = forward(model, X)

        empty = sensitivity_from_predictions(ref_preds, ref_preds)
        assert np.all(np.abs(empty - 1.0) <= 1e-12)

        full = FeatureAssignment.of(*((j, float(X[0, j])) for j in range(n)))
        fixed = forward(model, clone_and_fix(reference, full))
        assert np.all(np.abs(sensitivity_from_predictions(fixed, ref_preds))
                      <= 1e-12)


def test_wide_beam_equals_exhaustive_at_every_depth():
    # a beam wide enough to hold every distinct candidate must reproduce the
    # exhaustive per-depth optimum bit for bit (5 features x 3 values;
    # distinct counts per depth are 1, 15, 90, 270, 405, 243, so 500 covers
    # every stage)
    X, Y, domains, _ = scaled_synthetic(
        SyntheticSpec(n_features=5, n_samples=90, label_count=2, seed=11)
    )
    model = fit_classifier(X, Y, [16], epochs=100, seed=3)
    reference = ReferenceSet(X, domains=domains)
    cfg = SearchConfig(omega=0.6, zeta=500)
    _, trace = run_search(ScoreCache(model, reference), cfg, MIN)
    oracle = exhaustive_gamma_by_depth(
        Scorer(ScoreCache(model, reference), cfg, MIN), max_depth=5)
    for depth, best in enumerate(oracle):
        stage_best = trace[depth].candidates[0]
        assert stage_best.gamma == best.gamma
        assert stage_best.assignment.key == best.assignment.key


def test_search_recovers_planted_optimum_across_seeds():
    # default search settings (omega 0.6, beam width 5) against the global
    # optimum from full enumeration: mean prediction within 0.05 on at
    # least 8 of 10 seeded datasets (8 features x 3 values, noisy labels)
    hits = 0
    gaps = []
    for seed in range(10):
        spec = SyntheticSpec(n_features=8, n_samples=300, label_count=2,
                             noise_level=0.1, seed=100 + seed)
        X, Y, domains, _ = scaled_synthetic(spec)
        model = fit_classifier(X, Y, [32], epochs=150, seed=seed)
        reference = ReferenceSet(X, domains=domains)
        brute = brute_force(ScoreCache(model, reference), MIN)
        cfg = SearchConfig(omega=0.6, zeta=5)
        sn, _ = run_search(ScoreCache(model, reference), cfg, MIN)
        best = min(c.mean_lambda(MIN) for c in sn)
        gap = best - brute.best_objective
        assert gap >= 0.0  # enumeration is a superset of anything the beam saw
        gaps.append(gap)
        if gap <= 0.05:
            hits += 1
    assert hits >= 8, gaps


def test_analytic_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    for trial in range(5):
        n = int(rng.integers(2, 5))
        labels = int(rng.integers(1, 3))
        kind = ModelKind.CLASSIFIER if trial % 2 == 0 else ModelKind.REGRESSOR
        model = build_model(n, labels, kind, [int(rng.integers(3, 8))],
                            seed=trial + 50)
        X = rng.normal(size=(6, n))
        if kind is ModelKind.CLASSIFIER:
            Y = rng.integers(0, 2, size=(6, labels)).astype(np.float64)
        else:
            Y = rng.normal(size=(6, labels))
        assert grad_check(model, X, Y) < 1e-4


def test_distilled_surrogate_tracks_oracle_on_holdout():
    # fit the sensitivity surrogate on 4/5 of a 5,000-sample oracle table
    # and require R^2 >= 0.8 on the untouched fifth
    spec = SyntheticSpec(n_features=6, n_samples=400, label_count=2,
                         noise_level=0.1, seed=21)
    X, Y, domains, _ = scaled_synthetic(spec)
    model = fit_classifier(X, Y, [32], epochs=150, seed=5)
    reference = ReferenceSet(X, domains=domains)
    dset = build_distillation_set(model, reference, n_samples=5000, seed=7)
    head, tail = split_holdout(dset, 0.2)
    assert tail.n_samples == 1000
    surrogate, _ = train_surrogate(
        head, TrainConfig(epochs=300, loss=LossKind.MSE, hidden_dims=[64, 32],
                          seed=8)
    )
    r2 = evaluate_surrogate(surrogate, tail)
    assert r2 >= 0.8, r2


def test_interaction_model_defeats_greedy_but_not_search():
    # hand-built two-feature interaction: f(1,1)=1, f(1,0)=0, f(0,*)=0.45.
    # Fixing one feature at a time commits to x0=0 (0.45 beats 0.5) and can
    # never reach the true minimum at (1,0); the beam keeps both branches
    l1 = Layer(np.array([[1.0, 1.0], [1.0, 0.0]]), np.array([-1.5, -0.5]),
               Activation.RELU)
    l2 = Layer(np.array([[2.0], [-0.9]]), np.array([0.45]), Activation.IDENTITY)
    model = MLPModel([l1, l2], ModelKind.REGRESSOR)
    corners = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    domains = [np.array([0.0, 1.0])] * 2
    reference = ReferenceSet(corners, domains=domains)

    greedy = sequential_dp(ScoreCache(model, reference), MIN)
    brute = brute_force(ScoreCache(model, reference), MIN)
    assert brute.best_objective == 0.0
    assert greedy.best_objective > brute.best_objective  # strictly worse

    cfg = SearchConfig(omega=0.6, zeta=5)
    sn, _ = run_search(ScoreCache(model, reference), cfg, MIN)
    best = min(c.mean_lambda(MIN) for c in sn)
    assert abs(best - brute.best_objective) <= 0.01


def pipeline_workspace(root, seed=11):
    ds, _ = generate_synthetic(
        SyntheticSpec(n_features=3, n_samples=60, label_count=2,
                      values_per_feature=2, seed=7)
    )
    save_csv(ds, root / "data.csv")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps({
        "seed": seed,
        "data": {"csv": "data.csv", "labels": ["label0", "label1"]},
        "model": {"hidden_dims": [8], "epochs": 60},
        "search": {"zeta": 3},
    }))
    return cfg_path


def test_cli_rerun_outputs_are_byte_identical(tmp_path):
    cfg_path = pipeline_workspace(tmp_path)
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert main(["optimize", "--config", str(cfg_path)]) == 0
    names = ["model.json", "train_metrics.json", "split_manifest.json",
             "trace.csv", "optimize_report.json", "top_features.csv"]
    first = {n: (tmp_path / "out" / n).read_bytes() for n in names}
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert main(["optimize", "--config", str(cfg_path)]) == 0
    for n in names:
        assert (tmp_path / "out" / n).read_bytes() == first[n], n


def test_blas_thread_count_does_not_change_artifacts(tmp_path):
    # each run is its own process, since BLAS reads its thread count when
    # numpy loads; 1,080 reference rows make the first-layer gemm over the
    # reference large enough for BLAS to split it across threads
    ds, _ = generate_synthetic(
        SyntheticSpec(n_features=5, n_samples=1200, label_count=2, seed=5))
    save_csv(ds, tmp_path / "data.csv")
    src = str(Path(__file__).resolve().parent.parent / "src")
    script = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "from sensopt.cli import main; "
              "sys.exit(max(main([c, '--config', sys.argv[2]]) "
              "for c in ('train', 'optimize', 'baseline')))")
    outputs = []
    for threads in ("1", "2"):
        cfg_path = tmp_path / f"config{threads}.json"
        cfg_path.write_text(json.dumps({
            "out_dir": f"out{threads}",
            "data": {"csv": "data.csv", "labels": ["label0", "label1"]},
            "model": {"hidden_dims": [64], "epochs": 2},
            "baseline": {"max_arity": 2},
        }))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-c", script, src, str(cfg_path)],
                       env=env, check=True, timeout=120)
        out = tmp_path / f"out{threads}"
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert len(outputs[0]) == 11
    assert outputs[0] == outputs[1]


def test_omega_sweep_grid_and_blend_boundaries(tmp_path):
    cfg_path = pipeline_workspace(tmp_path)
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert main(["sweep-omega", "--config", str(cfg_path)]) == 0
    lines = [ln for ln in
             (tmp_path / "out" / "sweep_omega.csv").read_text().splitlines()
             if ln and not ln.startswith("#")]
    assert len(lines) - 1 == 9  # header plus the 0.1..0.9 grid
    assert [ln.split(",")[0] for ln in lines[1:]] == \
        [repr(round(0.1 * i, 1)) for i in range(1, 10)]

    # at the blend boundaries the score collapses to its two ingredients
    rng = np.random.default_rng(3)
    X = rng.uniform(size=(25, 3))
    model = build_model(3, 2, ModelKind.CLASSIFIER, [6], seed=9)
    reference = ReferenceSet(X, domains=[np.array([0.0, 1.0])] * 3)
    a = FeatureAssignment.of((1, 1.0))
    for objective in (MIN, MAX):
        c1 = Scorer(ScoreCache(model, reference), SearchConfig(omega=1.0),
                    objective).score(a)
        lam = c1.lambda_per_label.mean()
        want = 1.0 - lam if objective is MIN else lam
        assert abs(c1.gamma - want) <= 1e-12
        c0 = Scorer(ScoreCache(model, reference), SearchConfig(omega=0.0),
                    objective).score(a)
        assert abs(c0.gamma - c0.upsilon_per_label.mean()) <= 1e-12
        assert abs(c1.gamma - gamma_from(c1.lambda_per_label,
                                         c1.upsilon_per_label, 1.0,
                                         objective)) <= 1e-12
