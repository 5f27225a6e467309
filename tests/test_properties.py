"""Property tests: the scoring composites agree with each other.

`lambda_of` (the baselines' path), `Scorer.score` (the search's path) and
distillation labelling all score through `SensitivityKernel`, whose bits
depend on the assignment alone, never on the batch it is scored in, so
their numbers must match bit for bit; so must a Scorer whose score cache
was filled by another search and a fresh one. A search, top-features
report and sweep steered by a random surrogate report only scores
bit-equal to an oracle cache's. The kernel agrees with the
naive clone-and-forward oracle to 1e-12 and keeps the exact boundary
scores. Brute force and the sequential greedy pick what the ranking rule
picks over assignments scored one at a time, exact ties included.
References are drawn both continuous (every row its own group) and
categorical (rows grouped by their free columns). The kernel's dense-table
grouping equals the sorting `np.unique` grouping written out here, a batch
cut into several chunks keeps each row's bits, and `Scorer.score_all`'s
batched gamma equals `gamma_from` per candidate. `train` equals, bit for
bit, a textbook SGD loop written out here, divergence included. Loading a
config either succeeds or raises ConfigError, whatever JSON value a field
holds; `save_csv` then `load_csv` gives back the dataset, `load_csv` equals
a per-cell parse written out here on edge cells, and no CSV bytes make
`train` exit 1. `generate_synthetic`, and `GroundTruth`'s logits on one
batch, equal bit for bit the per-row generator written out here, and
`save_csv`'s bytes equal a per-cell writer's, scaled categories included.
The seven commands, run in turn through `cli.main` on tiny drawn CSVs and
configs, exit 0, 2, 3 or 4, rewrite the same bytes in a fresh directory,
never report a mean lambda beyond brute force's best, and write the
`compare.csv` the two traces give. The reference that `train` writes and
the later commands load equals `prepare_data`'s training split bit for bit.
Examples are derandomized so the suite stays deterministic.
"""

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sensopt import cli
from sensopt.baseline import (
    brute_force,
    enumerate_assignments,
    enumeration_size,
    sequential_dp,
)
from sensopt.data import (
    Dataset,
    FeatureKind,
    FeatureMeta,
    SCHEMA_VERSION,
    SyntheticSpec,
    _parse_float,
    fit_scaler,
    format_assignment,
    format_value,
    generate_synthetic,
    load_csv,
    quantile_domain,
    save_csv,
)
from sensopt.errors import (
    ConfigError,
    DataError,
    DegenerateReferenceError,
    TrainingDivergedError,
)
from sensopt.nn import (
    Activation,
    Layer,
    LossKind,
    MLPModel,
    ModelKind,
    TrainConfig,
    build_model,
    forward,
    train,
)
from sensopt.search import (
    Direction,
    Objective,
    ScoreCache,
    Scorer,
    SearchConfig,
    gamma_from,
    lambda_of,
    run_search,
    top_feature_report,
)
from sensopt.sensitivity import (
    CHUNK_ROW_FLOOR,
    FeatureAssignment,
    ReferenceSet,
    SensitivityKernel,
    _pattern_space,
    _patterns,
    clone_and_fix,
    sensitivity_from_predictions,
)
from sensopt.surrogate import build_distillation_set

PROPERTY = settings(derandomize=True, max_examples=15, deadline=None)
MIN = Objective(Direction.MINIMIZE_LABELS)
MAX = Objective(Direction.MAXIMIZE_LABELS)


@st.composite
def problems(draw):
    """A small random classifier (ReLU, sigmoid or identity hidden layers),
    a reference set with value domains, and one assignment drawn from those
    domains. A categorical reference draws its rows from the domains, so
    fixing columns leaves repeated rows."""
    n = draw(st.integers(1, 4))
    labels = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    domains = [np.sort(rng.uniform(-1.0, 1.0, size=draw(st.integers(1, 3))))
               for _ in range(n)]
    k = draw(st.integers(4, 20))
    if draw(st.booleans()):
        rows = np.stack([rng.choice(dom, size=k) for dom in domains], axis=1)
    else:
        rows = rng.normal(size=(k, n))
    reference = ReferenceSet(rows, domains=domains)
    built = build_model(n, labels, ModelKind.CLASSIFIER,
                        draw(st.lists(st.integers(1, 6), min_size=1, max_size=2)),
                        seed=seed)
    model = MLPModel([Layer(layer.weights, layer.biases,
                            draw(st.sampled_from(list(Activation))))
                      for layer in built.layers[:-1]] + built.layers[-1:],
                     ModelKind.CLASSIFIER)
    # upsilon is undefined where a label's reference predictions are flat
    assume(forward(model, rows).var(axis=0).min() >= 1e-9)
    picks = draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))
    assignment = FeatureAssignment(tuple(
        (j, float(domains[j][p % len(domains[j])]))
        for j, p in enumerate(picks) if p >= 0))
    return model, reference, assignment


def scorer(model, reference):
    cfg = SearchConfig()
    return Scorer(ScoreCache(model, reference), cfg, MIN)


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
    exact = brute_force(ScoreCache(model, reference), MIN)
    best_at = {s.stage: s.mean_lambda for s in exact.stage_trace}
    cfg = SearchConfig(omega=omega, zeta=zeta)
    sn, trace = run_search(ScoreCache(model, reference), cfg, MIN)
    for c in sn + [c for stage in trace for c in stage.candidates]:
        assert best_at[len(c.assignment)] <= c.mean_lambda(MIN)


@PROPERTY
@given(problems(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
       st.sampled_from([MIN, MAX]), st.integers(1, 3), st.integers(1, 4),
       st.data())
def test_surrogate_search_reports_only_exact_scores(problem, omegas, objective,
                                                    zeta, k, data):
    model, reference, _ = problem
    n, labels = reference.n_features, model.n_outputs
    surrogate = build_model(
        2 * n, 2 * labels, ModelKind.REGRESSOR,
        data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=2)),
        seed=data.draw(st.integers(0, 2**16)))
    cache = ScoreCache(model, reference, surrogate)
    oracle = ScoreCache(model, reference)

    def assert_exact(candidates, omega):
        for c in candidates:
            (lam, ups), = oracle.lambda_upsilon([c.assignment])
            assert c.lambda_per_label.tobytes() == lam.tobytes()
            assert c.upsilon_per_label.tobytes() == ups.tobytes()
            assert c.gamma == gamma_from(lam, ups, omega, objective)

    cfg = SearchConfig(omega=omegas[0], zeta=zeta)
    sn, stages = run_search(cache, cfg, objective)
    assert_exact(sn + [c for stage in stages for c in stage.candidates],
                 cfg.omega)
    empty, best = top_feature_report(cache, cfg, objective, k)
    assert_exact([empty, *best], cfg.omega)
    # a sweep: one search per omega over the one surrogate cache
    for omega in omegas:
        sn, _ = run_search(cache, replace(cfg, omega=omega), objective)
        assert_exact(sn, omega)


@PROPERTY
@given(problems(), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
       st.sampled_from([MIN, MAX]), st.integers(1, 3))
def test_warm_cache_scores_equal_fresh_scores(problem, omega, warm_omega,
                                              objective, zeta):
    model, reference, a = problem
    cfg = SearchConfig(omega=omega, zeta=zeta)
    cache = ScoreCache(model, reference)
    run_search(cache, replace(cfg, omega=warm_omega), MIN)
    Scorer(cache, replace(cfg, omega=warm_omega), MIN).score(a)
    warm = Scorer(cache, cfg, objective).score(a)
    fresh = Scorer(ScoreCache(model, reference), cfg, objective).score(a)
    assert warm.assignment == a
    assert np.array_equal(warm.lambda_per_label, fresh.lambda_per_label)
    assert np.array_equal(warm.upsilon_per_label, fresh.upsilon_per_label)
    assert warm.gamma == fresh.gamma


def ranked_best(model, reference, objective, assignments):
    """(mean lambda, key) of the best assignment, each scored alone: the
    least `Direction.rank`, then the smaller key."""
    scored = [(objective.collapse(lambda_of(model, reference, a)), a.key)
              for a in assignments]
    return min(scored, key=lambda vk: (objective.direction.rank(vk[0]), vk[1]))


@PROPERTY
@given(problems(), st.sampled_from([MIN, MAX]), st.data())
def test_baselines_pick_what_the_ranking_rule_picks(problem, objective, data):
    model, reference, _ = problem
    # A feature with no first-layer weights ties every value it can take.
    first, *rest = model.layers
    weights = first.weights.copy()
    weights[data.draw(st.integers(0, reference.n_features - 1))] = 0.0
    model = MLPModel([Layer(weights, first.biases, first.activation), *rest],
                     model.kind)
    grid = reference.grid
    cache = ScoreCache(model, reference)
    if data.draw(st.booleans(), label="search warms the cache"):
        # a flat label has no upsilon, and the search then stores nothing
        with contextlib.suppress(DegenerateReferenceError):
            run_search(cache, SearchConfig(), objective)

    exact = brute_force(cache, objective)
    everything = list(enumerate_assignments(grid, len(grid)))
    for stage in exact.stage_trace:
        assert (stage.mean_lambda, stage.assignment.key) == ranked_best(
            model, reference, objective,
            [a for a in everything if len(a) == stage.stage])
    assert (exact.best_objective, exact.best_assignment.key) == ranked_best(
        model, reference, objective, everything)

    greedy = sequential_dp(cache, objective)
    for before, stage in zip(greedy.stage_trace, greedy.stage_trace[1:]):
        j = stage.stage - 1
        assert (stage.mean_lambda, stage.assignment.key) == ranked_best(
            model, reference, objective,
            [before.assignment.extend(j, float(v)) for v in grid[j]])


def value_rows(reference, subset):
    """Every combination of domain values over `subset`, in domain order."""
    combos = list(itertools.product(*(reference.domains[j] for j in subset)))
    return np.array(combos).reshape(len(combos), len(subset))


@PROPERTY
@given(problems(), st.integers(1, 4), st.data())
def test_kernel_bits_do_not_depend_on_the_batch(problem, repeats, data):
    model, reference, a = problem
    subset = tuple(sorted(a.indices))
    rows = np.tile(value_rows(reference, subset), (repeats, 1))
    kernel = SensitivityKernel(model, reference)
    try:
        lam, ups = kernel.scores(subset, rows)
    except DegenerateReferenceError:
        assume(False)
    picks = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1))
    # a fresh kernel, another batch size and order, and each row alone
    sub_lam, sub_ups = SensitivityKernel(model, reference).scores(subset,
                                                                  rows[picks])
    assert np.array_equal(sub_lam, lam[picks])
    assert np.array_equal(sub_ups, ups[picks])
    for i in picks:
        one_lam, one_ups = kernel.scores(subset, rows[i:i + 1])
        assert np.array_equal(one_lam[0], lam[i])
        assert np.array_equal(one_ups[0], ups[i])
    assert np.array_equal(kernel.lambdas(subset, rows), lam)


@PROPERTY
@given(problems())
def test_kernel_agrees_with_the_naive_oracle(problem):
    model, reference, a = problem
    ref = forward(model, reference.features)
    fixed = forward(model, clone_and_fix(reference, a))
    try:
        want = sensitivity_from_predictions(fixed, ref)
    except DegenerateReferenceError:
        with pytest.raises(DegenerateReferenceError):
            SensitivityKernel(model, reference).score_assignments([a])
        return
    lam, ups = SensitivityKernel(model, reference).score_assignments([a])
    assert np.all(np.abs(lam[0] - fixed.mean(axis=0)) <= 1e-12)
    assert np.all(np.abs(ups[0] - want) <= 1e-12)


@PROPERTY
@given(problems())
def test_upsilon_is_exact_at_the_boundaries(problem):
    model, reference, _ = problem
    full = FeatureAssignment(tuple((j, float(dom[-1]))
                                   for j, dom in enumerate(reference.domains)))
    kernel = SensitivityKernel(model, reference)
    try:
        _, ups = kernel.score_assignments([FeatureAssignment.empty(), full])
    except DegenerateReferenceError:
        assume(False)
    assert np.all(ups[0] == 1.0)
    assert np.all(ups[1] == 0.0)


def unique_patterns(T, free):
    """The sorting reference for `_patterns`: each row's mixed-radix code
    over the `free` columns, found with `searchsorted`, then grouped by
    `np.unique`. Returns U, each row's group and the group counts."""
    code = np.zeros(T.features.shape[0], dtype=np.int64)
    for j in free:
        values = T.distinct_values[j]
        code = code * len(values) + np.searchsorted(values, T.features[:, j])
    _, first, inverse, counts = np.unique(code, return_index=True,
                                          return_inverse=True,
                                          return_counts=True)
    return T.features[first], inverse.reshape(-1), counts.astype(np.float64)


@st.composite
def categorical_references(draw):
    """A categorical reference with one single-valued column and a set of
    free columns whose distinct-value product is below k, in half the
    examples exactly k - 1. Each column's values are drawn unsorted, so
    code order is not row or draw order."""
    n = draw(st.integers(1, 5))
    sizes = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    sizes[draw(st.integers(0, n - 1))] = 1
    free = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
    product = math.prod(sizes[j] for j in free)
    k = product + 1 if draw(st.booleans()) else draw(st.integers(product + 1, 40))
    k = max(k, 2, max(sizes))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    columns = []
    for d in sizes:
        codes = np.arange(k) % d  # every value appears
        rng.shuffle(codes)
        columns.append(rng.uniform(-1.0, 1.0, size=d)[codes])
    return ReferenceSet(np.column_stack(columns)), free, product


@PROPERTY
@given(categorical_references())
def test_dense_table_grouping_equals_unique_grouping(case):
    reference, free, product = case
    k = reference.features.shape[0]
    space = _pattern_space([len(reference.distinct_values[j]) for j in free], k)
    assert space == product < k
    U, inverse, counts = _patterns(reference, free, space)
    want_U, want_inverse, want_counts = unique_patterns(reference, free)
    assert U[:, free].tobytes() == want_U[:, free].tobytes()
    assert np.array_equal(inverse, want_inverse)
    assert counts.tobytes() == want_counts.tobytes()


@PROPERTY
@given(problems(), st.integers(1, 300))
def test_kernel_bits_hold_across_chunks(problem, extra):
    # every column fixed leaves one group, so a batch of more than
    # CHUNK_ROW_FLOOR value rows needs at least two chunks
    model, reference, _ = problem
    subset = tuple(range(reference.n_features))
    rng = np.random.default_rng(extra)
    rows = np.stack([rng.choice(dom, size=CHUNK_ROW_FLOOR + extra)
                     for dom in reference.domains], axis=1)
    kernel = SensitivityKernel(model, reference)
    lam, ups = kernel.scores(subset, rows)
    alone = {}
    for row, row_lam, row_ups in zip(rows, lam, ups):
        key = row.tobytes()
        if key not in alone:
            alone[key] = kernel.scores(subset, row[None, :])
        assert alone[key][0][0].tobytes() == row_lam.tobytes()
        assert alone[key][1][0].tobytes() == row_ups.tobytes()


@PROPERTY
@given(problems(), st.floats(0.0, 1.0), st.sampled_from(list(Direction)),
       st.data())
def test_batched_gamma_equals_gamma_from(problem, omega, direction, data):
    model, reference, a = problem
    labels = data.draw(st.none() | st.lists(
        st.integers(0, model.n_outputs - 1), min_size=1, unique=True))
    objective = Objective(direction, None if labels is None else tuple(labels))
    cfg = SearchConfig(omega=omega)
    pairs = [FeatureAssignment.of((j, float(v)))
             for j, dom in enumerate(reference.domains) for v in dom]
    for c in Scorer(ScoreCache(model, reference), cfg, objective).score_all(
            [FeatureAssignment.empty(), a] + pairs):
        want = gamma_from(c.lambda_per_label, c.upsilon_per_label, omega,
                          objective)
        assert np.float64(c.gamma).tobytes() == np.float64(want).tobytes()


@PROPERTY
@given(st.lists(st.integers(1, 4), max_size=5), st.data())
def test_enumeration_count_is_enumeration_size(sizes, data):
    domains = [np.arange(float(d)) for d in sizes]
    arity = data.draw(st.integers(0, len(sizes)))
    assert (len(list(enumerate_assignments(domains, arity)))
            == enumeration_size(domains, arity))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=5)


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("config")
    (root / "d.csv").write_text("a,y\n1,0\n2,1\n3,0\n")
    return root


@PROPERTY
@given(st.sampled_from(sorted(cli.FIELDS)), JSON_VALUES)
def test_load_config_accepts_or_raises_config_error(config_dir, field, value):
    raw = {"data": {"csv": "d.csv", "labels": ["y"]}}
    section, _, key = field.rpartition(".")
    (raw.setdefault(section, {}) if section else raw)[key] = value
    path = config_dir / "config.json"
    path.write_text(json.dumps(raw))
    try:
        cli.load_config(path)
    except ConfigError:
        pass


def test_sweep_omega_file_equals_one_uncached_search_per_omega(tmp_path):
    ds, _ = generate_synthetic(SyntheticSpec(n_features=3, n_samples=60,
                                             label_count=2, seed=5))
    save_csv(ds, tmp_path / "data.csv")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 3, "data": {"csv": "data.csv", "labels": ["label0", "label1"]},
        "model": {"hidden_dims": [8], "epochs": 20},
        "search": {"zeta": 2}, "sweep": {"grid": [0.1, 0.5, 0.9]}}))
    assert cli.main(["train", "--config", str(config)]) == 0
    assert cli.main(["sweep-omega", "--config", str(config)]) == 0

    cfg = cli.load_config(config)
    features, cache = cli._load_search_inputs(cfg)
    sc = cli._search_config(cfg, cache.reference.n_features)
    text = io.StringIO(newline="")
    text.write(f"# schema_version={SCHEMA_VERSION}\n")
    writer = csv.writer(text)
    writer.writerow(["omega", "best_mean_lambda", "best_gamma", "assignment"])
    for omega in cfg["sweep"]["grid"]:
        sn, _ = run_search(ScoreCache(cache.model, cache.reference),
                           replace(sc, omega=omega), MIN)
        by_lambda = min(sn, key=lambda c: c.mean_lambda(MIN))
        writer.writerow([repr(omega), repr(by_lambda.mean_lambda(MIN)),
                         repr(sn[0].gamma),
                         format_assignment(by_lambda.assignment, features)])
    written = (tmp_path / "out" / cli.SWEEP_FILE).read_bytes()
    assert written == text.getvalue().encode("utf-8")


class FixedRows:
    """A kernel stand-in that returns each assignment's given rows, once."""

    def __init__(self, assignments, lam, ups):
        self.rows = {a.key: (lam[i], ups[i]) for i, a in enumerate(assignments)}

    def scores(self, subset, values):
        rows = [self.rows.pop(tuple(zip(subset, row)), None)
                for row in values.tolist()]
        assert None not in rows, "scored twice"
        return tuple(np.stack(column) for column in zip(*rows))


BITS = st.integers(0, 2**64 - 1)
STORE_KEYS = st.lists(
    st.dictionaries(st.integers(0, 5), st.floats(allow_nan=False), max_size=4),
    max_size=12).map(lambda dicts: list(
        {a.key: a for a in [FeatureAssignment.empty()]
         + [FeatureAssignment(tuple(d.items())) for d in dicts]}.values()))


@PROPERTY
@given(STORE_KEYS, st.integers(1, 3), st.data())
def test_score_store_round_trip_keeps_every_key_and_bit(config_dir, keys,
                                                        n_labels, data):
    model = build_model(6, n_labels, ModelKind.CLASSIFIER, [2], seed=0)
    reference = ReferenceSet(np.arange(12.0).reshape(2, 6))
    lam, ups = (np.array(data.draw(st.lists(
        st.lists(BITS, min_size=n_labels, max_size=n_labels),
        min_size=len(keys), max_size=len(keys))), dtype=np.uint64)
        .reshape(len(keys), n_labels).view(np.float64) for _ in range(2))
    cache = ScoreCache(model, reference)
    cache.kernel = FixedRows(keys, lam, ups)
    cache.lambda_upsilon(keys)
    path = config_dir / cli.SCORES_FILE
    cache.save(path, "a" * 64)

    assert not ScoreCache(model, reference).load(path, "b" * 64)
    loaded = ScoreCache(model, reference)
    assert loaded.load(path, "a" * 64)
    loaded.kernel = None  # every lookup below must be a hit
    for i, (got_lam, got_ups) in enumerate(loaded.lambda_upsilon(keys)):
        assert got_lam.tobytes() == lam[i].tobytes(), keys[i]
        assert got_ups.tobytes() == ups[i].tobytes(), keys[i]
    assert loaded.scored == 0
    written = path.read_bytes()
    loaded.save(path, "a" * 64)
    assert path.read_bytes() == written


def textbook_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def textbook_train(model, X, Y, cfg):
    """Per batch: forward, mean loss, backpropagation, then each array's
    update. Returns (weights, biases, epoch losses), or ("diverged", epoch,
    loss) where the batch loss or the epoch's weights stop being finite."""
    Ws = [layer.weights.copy() for layer in model.layers]
    bs = [layer.biases.copy() for layer in model.layers]
    acts = [layer.activation for layer in model.layers]
    m = X.shape[0]
    rng = np.random.default_rng(cfg.seed)
    losses = []
    with np.errstate(all="ignore"):
        for epoch in range(cfg.epochs):
            order = rng.permutation(m)
            total = 0.0
            for start in range(0, m, cfg.batch_size):
                idx = order[start:start + cfg.batch_size]
                a, inputs, slopes = X[idx], [], []
                for W, b, act in zip(Ws, bs, acts):
                    inputs.append(a)
                    z = a @ W + b
                    if act is Activation.RELU:
                        a = np.maximum(z, 0.0)
                        slopes.append((z > 0).astype(np.float64))
                    elif act is Activation.SIGMOID:
                        a = textbook_sigmoid(z)
                        slopes.append(a * (1.0 - a))
                    else:
                        a = z
                        slopes.append(np.ones_like(z))
                P, T = a, Y[idx]
                if cfg.loss is LossKind.BCE:
                    pc = np.clip(P, 1e-7, 1.0 - 1e-7)
                    value = float(-np.mean(T * np.log(pc)
                                           + (1.0 - T) * np.log(1.0 - pc)))
                    delta = (P - T) / P.size
                else:
                    value = float(np.mean((P - T) * (P - T)))
                    delta = 2.0 * (P - T) / P.size * slopes[-1]
                if not np.isfinite(value):
                    return "diverged", epoch, value
                total += value * len(idx)
                grads = [None] * len(Ws)
                for k in range(len(Ws) - 1, -1, -1):
                    grads[k] = (inputs[k].T @ delta, delta.sum(axis=0))
                    if k:
                        delta = (delta @ Ws[k].T) * slopes[k - 1]
                for W, b, (dW, db) in zip(Ws, bs, grads):
                    W -= cfg.learning_rate * dW
                    b -= cfg.learning_rate * db
            mean = total / m
            if not np.isfinite(mean) or not all(
                    np.isfinite(W).all() and np.isfinite(b).all()
                    for W, b in zip(Ws, bs)):
                return "diverged", epoch, mean
            losses.append(mean)
    return Ws, bs, losses


@st.composite
def training_runs(draw, rates=st.sampled_from([0.0, 0.05, 0.5, 2.0])):
    """A model of 1-3 hidden layers with drawn activations, data to fit and
    a config whose batch size may leave a short last batch."""
    kind, loss = draw(st.sampled_from([
        (ModelKind.CLASSIFIER, LossKind.BCE),
        (ModelKind.CLASSIFIER, LossKind.MSE),
        (ModelKind.REGRESSOR, LossKind.MSE)]))
    n, labels = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    hidden = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    batch = draw(st.integers(1, 6))
    m = max(2, batch * draw(st.integers(1, 4)) + draw(st.integers(0, batch - 1)))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    built = build_model(n, labels, kind, hidden, seed=seed)
    model = MLPModel([Layer(layer.weights, layer.biases,
                            draw(st.sampled_from(list(Activation))))
                      for layer in built.layers[:-1]] + built.layers[-1:], kind)
    X = rng.normal(size=(m, n)) * draw(st.sampled_from([1.0, 10.0]))
    if kind is ModelKind.CLASSIFIER:
        Y = (rng.random((m, labels)) < 0.5).astype(np.float64)
    else:
        Y = rng.normal(size=(m, labels))
    cfg = TrainConfig(learning_rate=draw(rates), epochs=draw(st.integers(1, 4)),
                      batch_size=batch, seed=seed, loss=loss,
                      hidden_dims=hidden)
    return model, X, Y, cfg


@settings(PROPERTY, max_examples=40)
@given(training_runs())
def test_train_equals_the_textbook_loop_bit_for_bit(run):
    model, X, Y, cfg = run
    want = textbook_train(model, X, Y, cfg)
    assume(want[0] != "diverged")
    _, epoch_losses = train(model, X, Y, cfg)
    Ws, bs, losses = want
    for layer, W, b in zip(model.layers, Ws, bs):
        assert layer.weights.tobytes() == W.tobytes()
        assert layer.biases.tobytes() == b.tobytes()
    assert np.array(epoch_losses).tobytes() == np.array(losses).tobytes()


@PROPERTY
@given(training_runs(rates=st.sampled_from([1e6, 1e12, 1e300])))
def test_train_diverges_where_the_textbook_loop_does(run):
    model, X, Y, cfg = run
    want = textbook_train(model, X, Y, cfg)
    assume(want[0] == "diverged")
    with pytest.raises(TrainingDivergedError) as err:
        train(model, X, Y, cfg)
    assert err.value.epoch == want[1]
    assert np.array(err.value.loss).tobytes() == np.array(want[2]).tobytes()


def category_text():
    """Text a categorical cell can hold: never empty and never a finite
    number, so a categorical column cannot load as a continuous one."""
    return st.text(st.characters(codec="utf-8"), min_size=1).filter(
        lambda s: _parse_float(s) is None)


@st.composite
def datasets(draw):
    """Continuous columns of any finite floats and categorical columns of
    non-numeric text, with distinct names and 1-3 binary labels."""
    n, labels = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    m = draw(st.integers(1, 8))
    names = draw(st.lists(st.text(st.characters(codec="utf-8")),
                          min_size=n + labels, max_size=n + labels, unique=True))
    columns, features = [], []
    for name in names[:n]:
        if draw(st.booleans()):
            col = np.array(draw(st.lists(
                st.floats(allow_nan=False, allow_infinity=False),
                min_size=m, max_size=m)))
            features.append(FeatureMeta(name, FeatureKind.CONTINUOUS,
                                        quantile_domain(col)))
        else:
            texts = draw(st.lists(category_text(), min_size=1, max_size=4,
                                  unique=True))
            col = np.array(draw(st.lists(st.integers(0, len(texts) - 1),
                                         min_size=m, max_size=m)), dtype=float)
            features.append(FeatureMeta(name, FeatureKind.CATEGORICAL,
                                        np.arange(float(len(texts))),
                                        raw_categories=texts))
        columns.append(col)
    Y = np.array(draw(st.lists(st.lists(st.sampled_from([0.0, 1.0]),
                                        min_size=labels, max_size=labels),
                               min_size=m, max_size=m)))
    return Dataset(np.column_stack(columns), Y, features, names[n:])


def cell_texts(dataset):
    return [[meta.raw_categories[int(v)] if meta.raw_categories else v
             for v, meta in zip(row, dataset.features)] for row in dataset.X]


@PROPERTY
@given(datasets())
def test_save_csv_then_load_csv_gives_the_dataset_back(config_dir, dataset):
    path = config_dir / "round_trip.csv"
    save_csv(dataset, path)
    again = load_csv(path, dataset.label_names)
    assert [f.name for f in again.features] == [f.name for f in dataset.features]
    assert again.label_names == dataset.label_names
    assert again.Y.tobytes() == dataset.Y.tobytes()
    assert [f.kind for f in again.features] == [f.kind for f in dataset.features]
    continuous = [j for j, f in enumerate(dataset.features)
                  if f.kind is FeatureKind.CONTINUOUS]
    assert again.X[:, continuous].tobytes() == dataset.X[:, continuous].tobytes()
    assert cell_texts(again) == cell_texts(dataset)


CSV_CELLS = st.sampled_from([
    b"0", b"1", b"0.5", b"-2", b"1e308", b"-1e308", b"nan", b"inf", b"a", b"",
    b"\x00", b"\xff", b"\xc3", b"\xe9t\xe9", b'"', b'"x,y"', b"\r", b"y",
    b"x" * 140_000])


@settings(PROPERTY, max_examples=40)
@given(st.lists(st.sampled_from([b"a", b"b", b"y", b"\xff\xfe", b""]),
                max_size=4),
       st.lists(st.lists(CSV_CELLS, max_size=5), max_size=6))
def test_no_csv_bytes_make_train_exit_1(config_dir, header, rows):
    # invalid UTF-8, NUL, ragged rows, repeated names and huge fields all
    # exit 3 (or train, or fail on the split or the numbers), never with a
    # traceback
    (config_dir / "fuzz.csv").write_bytes(
        b"\n".join(b",".join(cells) for cells in [header, *rows]))
    config = config_dir / "fuzz.json"
    config.write_text(json.dumps({
        "data": {"csv": "fuzz.csv", "labels": ["y"], "test_fraction": 0.3},
        "model": {"hidden_dims": [2], "epochs": 2, "batch_size": 1}}))
    assert cli.main(["train", "--config", str(config)]) in (0, 2, 3, 4)


EDGE_CELLS = ["1", " 2.5", "1_000", "nan", "inf", "-inf", "1e400", "0x10",
              "abc", "١"]


def load_csv_per_cell(path, header, body, label):
    """What `load_csv` makes of well-formed rows, one `_parse_float` per
    cell: the labels, then (kind, domain, values, categories) per feature
    column; a non-binary label raises DataError naming the first bad cell."""
    c = header.index(label)
    Y = []
    for r, row in enumerate(body, start=2):
        v = _parse_float(row[c])
        if v is None or v not in (0.0, 1.0):
            raise DataError(f"{path}: non-binary label {row[c]!r} at row {r}, "
                            f"column {label!r}")
        Y.append(v)
    columns = []
    for c in range(len(header) - 1):
        cells = [row[c] for row in body]
        parsed = [_parse_float(s) for s in cells]
        if all(v is not None for v in parsed):
            col = np.array(parsed)
            columns.append((FeatureKind.CONTINUOUS, quantile_domain(col), col,
                            None))
        else:
            codes = {}
            for s in cells:
                codes.setdefault(s, float(len(codes)))
            columns.append((FeatureKind.CATEGORICAL,
                            np.arange(float(len(codes))),
                            np.array([codes[s] for s in cells]), list(codes)))
    return np.array(Y), columns


@settings(PROPERTY, max_examples=40)
@given(st.integers(1, 3), st.integers(1, 6), st.booleans(), st.data())
def test_load_csv_equals_the_per_cell_parse(config_dir, n, m, bad_labels, data):
    features = st.sampled_from(EDGE_CELLS)
    labels = st.sampled_from(["0", "1", "١"]
                             + (EDGE_CELLS if bad_labels else []))
    header = [f"f{j}" for j in range(n)] + ["y"]
    body = [data.draw(st.lists(features, min_size=n, max_size=n))
            + [data.draw(labels)] for _ in range(m)]
    path = config_dir / "edge_cells.csv"
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header] + body)
    try:
        Y, columns = load_csv_per_cell(path, header, body, "y")
    except DataError as want:
        with pytest.raises(DataError) as got:
            load_csv(path, ["y"])
        assert str(got.value) == str(want)
        return
    dataset = load_csv(path, ["y"])
    assert dataset.Y[:, 0].tobytes() == Y.tobytes()
    for j, (kind, domain, values, categories) in enumerate(columns):
        meta = dataset.features[j]
        assert meta.kind is kind
        assert meta.domain.tobytes() == domain.tobytes()
        assert dataset.X[:, j].tobytes() == values.tobytes()
        assert meta.raw_categories == categories


def textbook_mismatch(spec, planted, codes):
    scale = spec.values_per_feature - 1
    gaps = [abs(codes[j] - v) / scale for j, v in planted]
    return float(np.mean(gaps)) if gaps else 0.0


def textbook_logits(spec, planted, weights, biases, codes):
    """One row's per-label logits, one feature and one term at a time."""
    scale = spec.values_per_feature - 1
    mismatch = textbook_mismatch(spec, planted, codes)
    plant = dict(planted.pairs)
    inter = 0.0
    for a, b, w in spec.interaction_terms:
        ga = abs(codes[a] - plant[a]) / scale if a in plant else 0.0
        gb = abs(codes[b] - plant[b]) / scale if b in plant else 0.0
        inter += w * ga * gb
    return biases + weights * mismatch + inter


def textbook_uniform(seed, tag, label, codes):
    key = f"{seed}|{tag}|{label}|" + ",".join(str(int(c)) for c in codes)
    h = hashlib.sha256(key.encode()).digest()
    return (int.from_bytes(h[:8], "big") + 0.5) / 2.0**64


def textbook_synthetic(spec):
    """`generate_synthetic` written out per row and per cell: the planted
    assignment, weights and biases, then X and Y."""
    rng = np.random.default_rng(spec.seed)
    K, n, m, L = (spec.values_per_feature, spec.n_features, spec.n_samples,
                  spec.label_count)
    planted = spec.planted_assignment
    if planted is None:
        planted = FeatureAssignment(
            tuple((j, float(c)) for j, c in enumerate(rng.integers(0, K, size=n))))
    weights = 3.0 + 0.5 * np.arange(L)
    biases = -2.2 - 0.2 * np.arange(L)
    X = rng.integers(0, K, size=(m, n)).astype(np.float64)
    Y = np.zeros((m, L))
    for r in range(m):
        logits = textbook_logits(spec, planted, weights, biases, X[r])
        for l in range(L):
            z = logits[l]
            if spec.noise_level > 0:
                u = textbook_uniform(spec.seed, "noise", l, X[r])
                z = z + spec.noise_level * NormalDist().inv_cdf(u)
            p = 1.0 / (1.0 + math.exp(-z))
            Y[r, l] = 1.0 if textbook_uniform(spec.seed, "label", l, X[r]) < p else 0.0
    return planted, weights, biases, X, Y


@st.composite
def synthetic_specs(draw):
    """Specs with 2-5 values per feature, no, light or heavy noise, a full
    (default), partial or empty plant and interaction terms; up to 12
    features, so the mean's pairwise sum runs past its 8-way unrolling."""
    n, K = draw(st.integers(1, 12)), draw(st.integers(2, 5))
    plant = draw(st.none() | st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, K - 1)),
        max_size=n, unique_by=lambda pair: pair[0]))
    terms = draw(st.lists(st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1),
        st.sampled_from([0.0, 0.25, 1.5, 2])), max_size=3))
    return SyntheticSpec(
        n_features=n, n_samples=draw(st.integers(1, 25)),
        label_count=draw(st.integers(1, 3)),
        planted_assignment=None if plant is None else FeatureAssignment(
            tuple((j, float(v)) for j, v in sorted(plant))),
        interaction_terms=tuple(terms),
        noise_level=draw(st.sampled_from([0.0, 0.1, 0.7])),
        seed=draw(st.integers(0, 2**32)), values_per_feature=K)


@settings(PROPERTY, max_examples=60)
@given(synthetic_specs())
def test_generate_synthetic_equals_the_per_row_loop_bit_for_bit(spec):
    planted, weights, biases, X, Y = textbook_synthetic(spec)
    dataset, truth = generate_synthetic(spec)
    assert truth.planted == planted
    assert dataset.X.tobytes() == X.tobytes()
    assert dataset.Y.tobytes() == Y.tobytes()
    # one batch, and each row on its own, give the textbook row's bits
    batch = truth.noiseless_logits(X)
    assert batch.shape == (spec.n_samples, spec.label_count)
    mismatch = truth.mismatch(X)
    for r, row in enumerate(X):
        want = textbook_logits(spec, planted, weights, biases, row)
        assert batch[r].tobytes() == want.tobytes()
        assert truth.noiseless_logits(row).tobytes() == want.tobytes()
        gap = textbook_mismatch(spec, planted, row)
        assert mismatch[r] == truth.mismatch(row) == gap


def save_csv_per_cell(dataset, path):
    """`save_csv` written out one cell at a time: category text through
    `format_value`, other features as `repr`, labels as integers."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in dataset.features] + dataset.label_names)
        for x, y in zip(dataset.X, dataset.Y):
            cells = [format_value(meta, v)
                     if meta.kind is FeatureKind.CATEGORICAL and meta.raw_categories
                     else repr(float(v))
                     for meta, v in zip(dataset.features, x)]
            writer.writerow(cells + [str(int(v)) for v in y])


@PROPERTY
@given(datasets(), st.booleans())
def test_save_csv_equals_the_per_cell_writer(config_dir, dataset, scale):
    # scaled, a categorical column holds codes in [0, 1], not integers
    if scale:
        try:
            dataset = fit_scaler(dataset).transform(dataset)
        except DataError:
            pass
    save_csv(dataset, config_dir / "columns.csv")
    save_csv_per_cell(dataset, config_dir / "cells.csv")
    assert ((config_dir / "columns.csv").read_bytes()
            == (config_dir / "cells.csv").read_bytes())


CHAIN = [["train"], ["distill"], ["optimize", "--mode", "surrogate"],
         ["optimize"], ["baseline"], ["compare"], ["sweep-omega"]]


@st.composite
def chain_inputs(draw):
    """A tiny CSV (2-4 features of 2-3 values each, categorical or numeric
    cells, 1-2 labels, 20-60 rows) and a small config for every command."""
    n = draw(st.integers(2, 4))
    labels = draw(st.integers(1, 2))
    m = draw(st.integers(20, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    columns = []
    for _ in range(n):
        cells = draw(st.sampled_from([["lo", "mid", "hi"], ["0", "1.5", "4"]]))
        cells = cells[:draw(st.integers(2, 3))]
        columns.append([cells[i] for i in rng.integers(0, len(cells), size=m)])
    columns += [[str(v) for v in rng.integers(0, 2, size=m)]
                for _ in range(labels)]
    header = [f"f{j}" for j in range(n)] + [f"y{l}" for l in range(labels)]
    text = "".join(",".join(row) + "\n" for row in [header, *zip(*columns)])
    config = {
        "seed": draw(st.integers(0, 100)),
        "data": {"csv": "data.csv", "labels": header[n:]},
        "model": {"hidden_dims": [draw(st.integers(2, 6))],
                  "epochs": draw(st.integers(1, 20)), "batch_size": 8},
        "surrogate": {"hidden_dims": draw(st.sampled_from([[4, 4], [6, 3]])),
                      "epochs": draw(st.integers(1, 20)), "batch_size": 4,
                      "n_samples": draw(st.integers(10, 40))},
        "search": {"zeta": draw(st.integers(1, 3)), "top_k": 3,
                   "direction": draw(st.sampled_from(["minimize", "maximize"]))},
        "baseline": {"max_arity": n},
        "sweep": {"grid": draw(st.lists(st.sampled_from([0.0, 0.3, 0.6, 1.0]),
                                        min_size=1, max_size=2))},
    }
    return text, config


def run_chain(directory, text, config) -> tuple:
    """Every command in turn through `cli.main`: the exit codes and the
    bytes of each file written to out_dir."""
    (directory / "data.csv").write_text(text)
    path = directory / "config.json"
    path.write_text(json.dumps(config))
    codes = [cli.main(args + ["--config", str(path)]) for args in CHAIN]
    out = directory / "out"
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} \
        if out.is_dir() else {}
    return codes, files


def csv_table(data: bytes) -> list:
    lines = [ln for ln in data.decode().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


@settings(PROPERTY, max_examples=8)
@given(chain_inputs())
def test_command_chain_is_reproducible_and_bounded_by_brute_force(
        config_dir, inputs):
    text, config = inputs
    runs = []
    for _ in range(2):
        with tempfile.TemporaryDirectory(dir=config_dir) as directory:
            runs.append(run_chain(Path(directory), text, config))
    (codes, files), again = runs
    assert set(codes) <= {0, 2, 3, 4}
    assert again == (codes, files)
    if set(codes) != {0}:
        return

    rank = Direction(config["search"]["direction"]).rank
    report = json.loads(files["baseline_report.json"])
    best = report["brute_force"]["best_mean_lambda"]
    optimize = json.loads(files["optimize_report.json"])
    found = [float(row["mean_lambda"]) for row in csv_table(files["trace.csv"])]
    found += [c["mean_lambda"] for c in optimize["selected"]]
    found += [float(row["best_mean_lambda"])
              for row in csv_table(files["sweep_omega.csv"])]
    assert all(rank(value) >= rank(best) for value in found)

    best_of: dict = {}
    for name in ("trace.csv", "baseline_trace.csv"):
        for row in csv_table(files[name]):
            key = (int(row["stage"]), row.get("method", "beam"))
            kept = best_of.get(key)
            if kept is None or rank(float(row["mean_lambda"])) < rank(float(kept)):
                best_of[key] = row["mean_lambda"]
    assert [[row["stage"], row["method"], row["mean_lambda"]]
            for row in csv_table(files["compare.csv"])] == \
        [[str(stage), method, best_of[(stage, method)]]
         for stage, method in sorted(best_of)]

    # one text per assignment: a categorical value is its category's text
    # in every file, and brute force's best reads as its own trace row
    categories = {f["name"]: f["raw_categories"]
                  for f in json.loads(files["reference.json"])["features"]
                  if f["kind"] == "categorical"}
    texts = [row["assignment"]
             for name in ("trace.csv", "baseline_trace.csv", "sweep_omega.csv")
             for row in csv_table(files[name])]
    texts += [report[method]["best_assignment_text"]
              for method in ("brute_force", "sequential")]
    for text in texts:
        for name, _, value in (pair.partition("=") for pair in text.split(";")
                               if pair):
            assert name not in categories or value in categories[name], text
    brute = report["brute_force"]
    rows = {int(row["stage"]): row["assignment"]
            for row in csv_table(files["baseline_trace.csv"])
            if row["method"] == "brute_force"}
    assert rows[len(brute["best_assignment"])] == brute["best_assignment_text"]


@settings(PROPERTY, max_examples=8)
@given(chain_inputs())
def test_reference_written_by_train_equals_prepare_data(config_dir, inputs):
    text, config = inputs
    with tempfile.TemporaryDirectory(dir=config_dir) as directory:
        directory = Path(directory)
        (directory / "data.csv").write_text(text)
        path = directory / "config.json"
        path.write_text(json.dumps(config))
        assume(cli.main(["train", "--config", str(path)]) == 0)
        cfg = cli.load_config(path)
        train_set = cli.prepare_data(cfg)[0]
        _, reference, features = cli._load_inputs(cfg)
        doc = json.loads((directory / "out" / "reference.json").read_text())
    assert reference.features.shape == train_set.X.shape
    assert reference.features.tobytes() == train_set.X.tobytes()
    assert [(f.name, f.kind, f.domain.tobytes(), f.raw_categories)
            for f in features] == \
        [(f.name, f.kind, f.domain.tobytes(), f.raw_categories)
         for f in train_set.features]
    assert doc["label_names"] == train_set.label_names
