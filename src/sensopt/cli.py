"""Command-line pipeline: train, distill, optimize, baseline, compare, sweep.

All commands read one JSON config (see README for the schema) plus a few
override flags. Every random draw is derived from the single global seed and
a purpose tag, outputs carry no timestamps, and floats are written with
their shortest round-trip form, so a rerun with the same config produces
byte-identical files.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .baseline import BaselineResult, brute_force, sequential_dp
from .data import (
    FeatureKind,
    FeatureMeta,
    csv_feature_names,
    fit_scaler,
    format_assignment,
    format_value,
    load_csv,
    split,
    write_json,
    write_table,
)
from .errors import (
    BudgetExceededError,
    ConfigError,
    DataError,
    DegenerateReferenceError,
    TrainingDivergedError,
)
from .nn import (
    LossKind,
    ModelKind,
    TrainConfig,
    bce_loss,
    build_model,
    forward,
    load_model,
    save_model,
    train,
)
from .search import (
    Direction,
    Objective,
    ScoreCache,
    SearchConfig,
    gamma_per_label,
    run_search,
    top_feature_report,
    write_trace_csv,
)
from .sensitivity import ReferenceSet
from .surrogate import (
    build_distillation_set,
    evaluate_surrogate,
    load_surrogate,
    save_surrogate,
    split_holdout,
    train_surrogate,
)

MODEL_FILE = "model.json"
SURROGATE_FILE = "surrogate.json"
TRAIN_METRICS_FILE = "train_metrics.json"
SPLIT_MANIFEST_FILE = "split_manifest.json"
DISTILL_REPORT_FILE = "distill_report.json"
OPTIMIZE_REPORT_FILE = "optimize_report.json"
TRACE_FILE = "trace.csv"
TOP_FEATURES_FILE = "top_features.csv"
BASELINE_REPORT_FILE = "baseline_report.json"
BASELINE_TRACE_FILE = "baseline_trace.csv"
COMPARE_FILE = "compare.csv"
SWEEP_FILE = "sweep_omega.csv"
REFERENCE_FILE = "reference.npy"
REFERENCE_META_FILE = "reference.json"

DEFAULT_SWEEP_GRID = [round(0.1 * i, 1) for i in range(1, 10)]


# Converters: each checks one config value and returns it in the form the
# commands read, or raises ValueError saying what the value must be.

def _number(kind: type, lo=-sys.float_info.max, hi=sys.float_info.max):
    """An int or float in [lo, hi]; never a boolean, a string, an infinity,
    NaN or, for int, a fractional value."""
    what = "an integer" if kind is int else "a finite number"
    if lo > -sys.float_info.max:
        what += f" >= {lo}" if hi == sys.float_info.max else f" in [{lo}, {hi}]"

    def convert(value):
        if kind is int and isinstance(value, float) and value.is_integer():
            value = int(value)  # 3.0 counts as 3; inf and NaN stay floats
        if (isinstance(value, bool)
                or not isinstance(value, int if kind is int else (int, float))
                or not lo <= value <= hi):
            raise ValueError(what)
        return kind(value)
    return convert


def _typed(kind: type, what: str):
    def convert(value):
        if not isinstance(value, kind):
            raise ValueError(what)
        return value
    return convert


def _choice(*names, to=str):
    def convert(value):
        if not isinstance(value, str) or value not in names:
            raise ValueError("one of " + ", ".join(names))
        return to(value)
    return convert


def _list(item, min_len: int = 0):
    def convert(value):
        if not isinstance(value, list) or len(value) < min_len:
            raise ValueError("a non-empty list" if min_len else "a list")
        try:
            return [item(v) for v in value]
        except ValueError as e:
            raise ValueError(f"a list of items each {e}") from None
    return convert


def _optional(convert):
    return lambda value: None if value is None else convert(value)


_INT, _FLOAT = _number(int), _number(float)
_COUNT, _RATE = _number(int, 1), _number(float, 0)
_STRING = _typed(str, "a string")


def _fraction(value):
    """A finite number strictly between 0 and 1."""
    value = _FLOAT(value)
    if not 0.0 < value < 1.0:
        raise ValueError("a number in (0, 1)")
    return value


# Every config field, "section.key" or a top-level key, with its default and
# its converter. A key not listed here is an error.
FIELDS = {
    "seed": (0, _INT),
    "out_dir": ("out", _STRING),
    "data.csv": (None, _STRING),
    "data.labels": (None, _list(_STRING, min_len=1)),
    "data.test_fraction": (0.1, _fraction),
    "data.stratify": (False, _typed(bool, "true or false")),
    "model.hidden_dims": ([64], _list(_COUNT)),
    "model.learning_rate": (0.05, _RATE),
    "model.epochs": (300, _COUNT),
    "model.batch_size": (16, _COUNT),
    "surrogate.hidden_dims": ([64, 32], _list(_COUNT)),
    "surrogate.learning_rate": (0.05, _RATE),
    "surrogate.epochs": (300, _COUNT),
    "surrogate.batch_size": (16, _COUNT),
    "surrogate.n_samples": (5000, _COUNT),
    # The upper bound of either max_arity is the data's feature count,
    # checked by the command once the data is loaded.
    "surrogate.max_arity": (None, _optional(_COUNT)),
    "surrogate.holdout_fraction": (0.2, _fraction),
    "search.omega": (0.6, _number(float, 0, 1)),
    "search.zeta": (5, _COUNT),
    "search.max_depth": (None, _optional(_number(int, 0))),
    "search.mode": ("oracle", _choice("oracle", "surrogate")),
    "search.direction": ("minimize", _choice(*(d.value for d in Direction), to=Direction)),
    "search.label_subset": (None, _optional(_list(_number(int, 0), min_len=1))),
    "search.top_k": (10, _COUNT),
    "baseline.budget": (10**6, _INT),
    "baseline.max_arity": (None, _optional(_number(int, 0))),
    "sweep.grid": (DEFAULT_SWEEP_GRID, _list(_number(float, 0, 1))),
}
SECTIONS = {path.partition(".")[0] for path in FIELDS if "." in path}


def derive_seed(global_seed: int, tag: str) -> int:
    """Stable per-purpose seed: hash of the global seed and a tag string."""
    digest = hashlib.sha256(f"{global_seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _merge(base, override: dict):
    """`override` over `base`, keeping a non-object `base` for the key check."""
    if not isinstance(base, dict):
        return base
    out = dict(base)
    for k, v in override.items():
        out[k] = _merge(out.get(k, {}), v) if isinstance(v, dict) else v
    return out


def load_config(path, overrides: dict | None = None) -> dict:
    """The nested config: every FIELDS entry, given or defaulted, converted
    and checked after `overrides` (the command-line flags) are merged."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        raise ConfigError(f"{p}: invalid JSON at line {e.lineno}: {e.msg}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"{p}: not UTF-8 text ({e.reason})") from None
    except OSError as e:
        raise ConfigError(f"{p}: cannot read config ({e.strerror})") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{p}: top level must be an object")
    doc = _merge(raw, overrides or {})
    for name, value in doc.items():
        if name in SECTIONS and isinstance(value, dict):
            unknown = [f"{name}.{k}" for k in value if f"{name}.{k}" not in FIELDS]
        elif name in SECTIONS:
            raise ConfigError(f"{name} must be an object")
        else:
            unknown = [name] if name not in FIELDS or "." in name else []
        if unknown:
            raise ConfigError(f"unknown config key {unknown[0]!r}")

    cfg: dict = {"_base_dir": str(p.parent)}
    for path, (default, convert) in FIELDS.items():
        section, _, key = path.rpartition(".")
        given = doc.get(section, {}) if section else doc
        value = given.get(key, default)
        try:
            value = convert(value)
        except ValueError as e:
            raise ConfigError(f"{path} must be {e}, got {value!r}") from None
        (cfg.setdefault(section, {}) if section else cfg)[key] = value

    csv_path = _data_path(cfg)
    if not csv_path.is_file():
        raise ConfigError(f"data.csv is not a file: {csv_path}")
    subset, n_labels = cfg["search"]["label_subset"], len(cfg["data"]["labels"])
    if subset is not None and (max(subset) >= n_labels
                               or len(set(subset)) < len(subset)):
        raise ConfigError(f"search.label_subset must hold distinct indices "
                          f"below len(data.labels) = {n_labels}, got {subset}")
    return cfg


def _data_path(cfg: dict) -> Path:
    return Path(cfg["_base_dir"], cfg["data"]["csv"])


def _out_path(cfg: dict) -> Path:
    """out_dir, relative to the config file; nothing is created, so a
    command that fails while reading leaves no directory behind."""
    return Path(cfg["_base_dir"], cfg["out_dir"])


def _check_out_dir(cfg: dict):
    """ConfigError unless out_dir could be created: its nearest existing
    ancestor, or out_dir itself, must be a directory. Nothing is created."""
    p = _out_path(cfg)
    nearest = next(a for a in (p, *p.parents) if a.exists())
    if not nearest.is_dir():
        raise ConfigError(f"out_dir {p} is not a usable directory "
                          f"({nearest} is not a directory)")


def _out_dir(cfg: dict) -> Path:
    """out_dir, created if missing; called by a command once it has
    something to write."""
    p = _out_path(cfg)
    try:
        p.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise ConfigError(f"out_dir {p} is not a usable directory "
                          f"({e.strerror})") from None
    return p


def prepare_data(cfg: dict):
    """Load, split, and scale; everything downstream sees model-space data.

    Returns (train_scaled, test_scaled, train_idx, test_idx)."""
    dataset = load_csv(_data_path(cfg), cfg["data"]["labels"])
    train_set, test_set, train_idx, test_idx = split(
        dataset,
        test_fraction=cfg["data"]["test_fraction"],
        seed=derive_seed(cfg["seed"], "split"),
        stratify=cfg["data"]["stratify"],
    )
    scaler = fit_scaler(train_set)
    return (scaler.transform(train_set), scaler.transform(test_set),
            train_idx, test_idx)


def _read_data(cfg: dict) -> bytes:
    path = _data_path(cfg)
    try:
        return path.read_bytes()
    except OSError as e:
        raise DataError(f"{path}: cannot read data ({e.strerror})") from None


def _fingerprint(cfg: dict, data: bytes) -> str:
    """sha256 of every config value `prepare_data` reads, then the CSV's
    bytes. It holds no path and no time, so equal inputs give equal
    fingerprints wherever and whenever they are read."""
    settings = {"seed": cfg["seed"], "data.labels": cfg["data"]["labels"],
                "data.test_fraction": cfg["data"]["test_fraction"],
                "data.stratify": cfg["data"]["stratify"]}
    head = json.dumps(settings, sort_keys=True).encode() + b"\n"
    return hashlib.sha256(head + data).hexdigest()


def _train_config(section: dict, loss: LossKind, seed: int) -> TrainConfig:
    return TrainConfig(
        learning_rate=section["learning_rate"],
        epochs=section["epochs"],
        batch_size=section["batch_size"],
        seed=seed,
        loss=loss,
        hidden_dims=section["hidden_dims"],
    )


def _objective(cfg: dict) -> Objective:
    subset = cfg["search"]["label_subset"]
    return Objective(cfg["search"]["direction"],
                     None if subset is None else tuple(subset))


def _search_config(cfg: dict, n_features: int) -> SearchConfig:
    section = cfg["search"]
    sc = SearchConfig(
        omega=section["omega"],
        zeta=section["zeta"],
        max_depth=section["max_depth"],
    )
    sc.validate(n_features)
    return sc


def _artifact_path(cfg: dict, name: str) -> Path:
    path = _out_path(cfg) / name
    if not path.exists():
        raise DataError(f"missing input: {path} (run the earlier stage first)")
    return path


def _accuracy(probabilities: np.ndarray, targets: np.ndarray) -> np.ndarray:
    return ((probabilities >= 0.5) == (targets >= 0.5)).mean(axis=0)


def cmd_train(cfg: dict) -> int:
    _check_out_dir(cfg)
    # hashed before the parse: a CSV edited in between gives a fingerprint
    # that no later read matches, never a stale reference that passes
    fingerprint = _fingerprint(cfg, _read_data(cfg))
    train_set, test_set, train_idx, test_idx = prepare_data(cfg)
    _check_batch_size(cfg, "model", train_set.n_samples)
    seed = cfg["seed"]
    model = build_model(train_set.n_features, train_set.n_labels,
                        ModelKind.CLASSIFIER, cfg["model"]["hidden_dims"],
                        seed=derive_seed(seed, "init-classifier"))
    tc = _train_config(cfg["model"], LossKind.BCE,
                       derive_seed(seed, "train-classifier"))
    model, losses = train(model, train_set.X, train_set.Y, tc)

    out = _out_dir(cfg)
    save_model(model, out / MODEL_FILE, meta={
        "feature_names": [f.name for f in train_set.features],
        "label_names": train_set.label_names,
    })
    test_preds = forward(model, test_set.X)
    train_preds = forward(model, train_set.X)
    write_json(out / TRAIN_METRICS_FILE, {
        "labels": train_set.label_names,
        "epochs": tc.epochs,
        "loss_curve": losses,
        "final_train_loss": losses[-1],
        "test_loss": float(bce_loss(test_preds, test_set.Y)),
        "train_accuracy_per_label": _accuracy(train_preds, train_set.Y),
        "test_accuracy_per_label": _accuracy(test_preds, test_set.Y),
        "train_positive_rate": train_set.Y.mean(axis=0),
        "test_positive_rate": test_set.Y.mean(axis=0),
    })
    write_json(out / SPLIT_MANIFEST_FILE, {
        "seed": seed,
        "test_fraction": cfg["data"]["test_fraction"],
        "train_rows": [int(i) for i in train_idx],
        "test_rows": [int(i) for i in test_idx],
    })
    np.save(out / REFERENCE_FILE, train_set.X)
    write_json(out / REFERENCE_META_FILE, {
        "fingerprint": fingerprint,
        "label_names": train_set.label_names,
        "features": [{"name": f.name, "kind": f.kind.value, "domain": f.domain,
                      "raw_categories": f.raw_categories}
                     for f in train_set.features],
    })
    return 0


def cmd_distill(cfg: dict) -> int:
    section = cfg["surrogate"]
    # the surrogate trains on the sample's head, whose size the config fixes
    n_samples = section["n_samples"]
    _check_batch_size(cfg, "surrogate",
                      n_samples - round(n_samples * section["holdout_fraction"]))
    model, reference, _ = _load_inputs(cfg, "surrogate")
    seed = cfg["seed"]

    dset = build_distillation_set(
        model, reference,
        n_samples=section["n_samples"],
        max_arity=section["max_arity"],
        seed=derive_seed(seed, "distill-sample"),
    )
    head, tail = split_holdout(dset, section["holdout_fraction"])
    tc = _train_config(section, LossKind.MSE, derive_seed(seed, "train-surrogate"))
    surrogate, losses = train_surrogate(head, tc)

    out = _out_dir(cfg)
    save_surrogate(surrogate, out / SURROGATE_FILE, reference.n_features,
                   model_sha256=_model_sha256(cfg))
    write_json(out / DISTILL_REPORT_FILE, {
        "n_samples": dset.n_samples,
        "train_samples": head.n_samples,
        "holdout_samples": tail.n_samples,
        "final_train_loss": losses[-1],
        "r_squared_train": evaluate_surrogate(surrogate, head),
        "r_squared_holdout": evaluate_surrogate(surrogate, tail),
    })
    return 0


def _load_model(cfg: dict, feature_names: list):
    """The trained classifier, refused if it was trained on other columns
    or its network's widths disagree with the data."""
    model, meta = load_model(_artifact_path(cfg, MODEL_FILE))
    labels = cfg["data"]["labels"]
    trained = (meta.get("feature_names"), meta.get("label_names"))
    if trained != (feature_names, labels):
        raise DataError(
            f"{MODEL_FILE} was trained on features {trained[0]} and labels "
            f"{trained[1]}, but the data gives features {feature_names} and "
            f"labels {labels} (rerun train)")
    if (model.n_inputs, model.n_outputs) != (len(feature_names), len(labels)):
        raise DataError(
            f"{MODEL_FILE} takes {model.n_inputs} inputs and gives "
            f"{model.n_outputs} outputs, but the data gives "
            f"{len(feature_names)} features and {len(labels)} labels "
            f"(rerun train)")
    return model


def _model_sha256(cfg: dict) -> str:
    """sha256 of model.json's bytes; a surrogate carries the one it was
    distilled from. Training is deterministic, so retraining with the same
    config keeps it."""
    return hashlib.sha256(_artifact_path(cfg, MODEL_FILE).read_bytes()).hexdigest()


def _check_batch_size(cfg: dict, section: str, n_rows: int):
    """`section.batch_size` against the rows it trains on; called before
    the command trains or writes anything."""
    size = cfg[section]["batch_size"]
    if size > n_rows:
        raise ConfigError(f"{section}.batch_size must be at most the number "
                          f"of rows it trains on, {n_rows}, got {size}")


def _check_max_arity(cfg: dict, section: str, n_features: int):
    """The part of `section.max_arity`'s range that depends on the data;
    called before the command reads or writes an artifact."""
    if (cfg[section]["max_arity"] or 0) > n_features:
        raise ConfigError(f"{section}.max_arity must be at most the number "
                          f"of features, {n_features}")


def _load_reference(cfg: dict, fingerprint: str, feature_names: list):
    """The reference and feature metas that train prepared, refused if they
    were prepared from other data or settings or disagree with the header.
    Returns (ReferenceSet, feature metas)."""
    path = _artifact_path(cfg, REFERENCE_META_FILE)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        written_for, labels = doc["fingerprint"], doc["label_names"]
        features = [FeatureMeta(f["name"], FeatureKind(f["kind"]), f["domain"],
                                f["raw_categories"]) for f in doc["features"]]
        if not all(np.isfinite(f.domain).all() for f in features):
            raise ValueError("a domain holds a non-finite value")
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise DataError(f"{path}: not a readable reference ({e!r}; "
                        f"rerun train)") from None
    if written_for != fingerprint:
        raise DataError(f"{path} was prepared from other data or settings: "
                        f"the bytes of data.csv, data.labels, "
                        f"data.test_fraction, data.stratify or seed changed "
                        f"since (rerun train)")
    names = [f.name for f in features]
    if (names, labels) != (feature_names, cfg["data"]["labels"]):
        raise DataError(f"{path} names features {names} and labels {labels}, "
                        f"but the data gives {feature_names} and "
                        f"{cfg['data']['labels']} (rerun train)")
    matrix_path = _artifact_path(cfg, REFERENCE_FILE)
    try:
        with matrix_path.open("rb") as fh:
            X = np.load(fh, allow_pickle=False)
    except (OSError, ValueError, EOFError) as e:
        raise DataError(f"{matrix_path}: not a readable matrix ({e}; "
                        f"rerun train)") from None
    if (not isinstance(X, np.ndarray) or X.dtype != np.float64 or X.ndim != 2
            or X.shape[0] < 2 or X.shape[1] != len(names)
            or not np.isfinite(X).all()):
        raise DataError(f"{matrix_path} does not hold a finite float64 matrix "
                        f"of 2 or more rows and {len(names)} columns "
                        f"(rerun train)")
    return ReferenceSet(X, [f.domain for f in features]), features


def _load_inputs(cfg: dict, arity_section: str | None = None):
    """What every command after train reads, checked in this order: the
    data's header, `arity_section`'s max_arity against it, the model, and
    the reference train prepared. Only the CSV's header is parsed.
    Returns (model, ReferenceSet, feature metas)."""
    data = _read_data(cfg)
    feature_names = csv_feature_names(_data_path(cfg), data,
                                      cfg["data"]["labels"])
    if arity_section is not None:
        _check_max_arity(cfg, arity_section, len(feature_names))
    model = _load_model(cfg, feature_names)
    reference, features = _load_reference(cfg, _fingerprint(cfg, data),
                                          feature_names)
    return model, reference, features


def _load_search_inputs(cfg: dict):
    """The feature metas and a ScoreCache over the model, the reference
    and, in surrogate mode, the surrogate (refused if it was distilled for
    other data or from another model.json)."""
    model, reference, features = _load_inputs(cfg)
    n_labels = len(cfg["data"]["labels"])
    surrogate = None
    if cfg["search"]["mode"] == "surrogate":
        surrogate, meta = load_surrogate(_artifact_path(cfg, SURROGATE_FILE))
        distilled = (meta["n_features"], meta["n_labels"])
        if distilled != (reference.n_features, n_labels):
            raise DataError(
                f"{SURROGATE_FILE} was distilled for {distilled[0]} features "
                f"and {distilled[1]} labels, but the data gives "
                f"{reference.n_features} features and {n_labels} "
                f"labels (rerun distill)")
        if meta.get("model_sha256") != _model_sha256(cfg):
            raise DataError(f"{SURROGATE_FILE} was not distilled from the "
                            f"{MODEL_FILE} now in out_dir: its model_sha256 "
                            f"meta is {meta.get('model_sha256')!r} "
                            f"(rerun distill)")
    return features, ScoreCache(model, reference, surrogate)


def _candidate_doc(c, objective: Objective, omega: float, features) -> dict:
    return {
        "assignment": [[j, v] for j, v in c.assignment],
        "assignment_text": format_assignment(c.assignment, features),
        "gamma": float(c.gamma),
        "gamma_per_label": gamma_per_label(c.lambda_per_label,
                                           c.upsilon_per_label, omega,
                                           objective),
        "lambda_per_label": c.lambda_per_label,
        "upsilon_per_label": c.upsilon_per_label,
        "mean_lambda": c.mean_lambda(objective),
    }


def cmd_optimize(cfg: dict) -> int:
    features, cache = _load_search_inputs(cfg)
    n_features = cache.reference.n_features
    sc = _search_config(cfg, n_features)
    objective = _objective(cfg)
    sn, stages = run_search(cache, sc, objective)

    out = _out_dir(cfg)
    write_trace_csv(stages, out / TRACE_FILE, objective, features)
    write_json(out / OPTIMIZE_REPORT_FILE, {
        "omega": sc.omega,
        "zeta": sc.zeta,
        "max_depth": sc.depth(n_features),
        "mode": cfg["search"]["mode"],
        "direction": cfg["search"]["direction"].value,
        "labels": cfg["data"]["labels"],
        "selected": [
            _candidate_doc(c, objective, sc.omega, features)
            for c in sn
        ],
    })

    empty, best = top_feature_report(cache, sc, objective,
                                     k=cfg["search"]["top_k"])
    rows = []
    for rank, c in enumerate(best, start=1):
        (j, v), = c.assignment
        rows.append([rank, features[j].name, format_value(features[j], v),
                     repr(c.gamma), repr(c.gamma - empty.gamma),
                     repr(c.mean_lambda(objective))])
    write_table(out / TOP_FEATURES_FILE, ["rank", "feature", "value", "gamma",
                                          "gamma_delta", "mean_lambda"], rows)
    return 0


def _baseline_rows(result: BaselineResult, features) -> list:
    return [[stage.stage, 1, "", repr(stage.mean_lambda),
             format_assignment(stage.assignment, features), result.method]
            for stage in result.stage_trace]


def _baseline_doc(result: BaselineResult, features) -> dict:
    return {
        "best_assignment": [[j, v] for j, v in result.best_assignment],
        "best_assignment_text": format_assignment(result.best_assignment,
                                                  features),
        "best_mean_lambda": result.best_objective,
        "evaluations": result.evaluations,
    }


def cmd_baseline(cfg: dict) -> int:
    # Brute force and the sequential greedy read no surrogate, whatever
    # search.mode says.
    model, reference, features = _load_inputs(cfg, "baseline")
    objective = _objective(cfg)
    section = cfg["baseline"]

    report: dict = {}
    rows = []
    try:
        brute = brute_force(model, reference, objective,
                            max_arity=section["max_arity"],
                            budget=section["budget"])
        report["brute_force"] = _baseline_doc(brute, features)
        rows += _baseline_rows(brute, features)
    except BudgetExceededError as e:
        report["brute_force"] = {
            "skipped": True,
            "enumeration_size": e.size,
            "budget": e.budget,
        }

    seq = sequential_dp(model, reference, objective)
    report["sequential"] = _baseline_doc(seq, features)
    rows += _baseline_rows(seq, features)

    out = _out_dir(cfg)
    write_json(out / BASELINE_REPORT_FILE, report)
    write_table(out / BASELINE_TRACE_FILE, ["stage", "candidate_rank", "gamma",
                                            "mean_lambda", "assignment",
                                            "method"], rows)
    return 0


def _read_trace(path: Path) -> list:
    """(stage, method, mean_lambda text, its value) per data row; trace.csv
    has no method column, as its rows are the beam's. DataError names the
    file when it is missing, not UTF-8 or lacks a readable field."""
    if not path.exists():
        raise DataError(f"missing input: {path} (run the earlier stage first)")
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            lines = [ln for ln in fh if not ln.startswith("#")]
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: not UTF-8 text ({e.reason})") from None
    except OSError as e:
        raise DataError(f"{path}: cannot read trace ({e.strerror})") from None
    try:
        rows = [(int(row["stage"]), row.get("method", "beam"),
                 row["mean_lambda"], float(row["mean_lambda"]))
                for row in csv.DictReader(lines)]
    except KeyError as e:
        raise DataError(f"{path}: no {e.args[0]!r} column") from None
    except (TypeError, ValueError, csv.Error) as e:
        raise DataError(f"{path}: unreadable trace row ({e})") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    return rows


def cmd_compare(cfg: dict) -> int:
    """Per-stage, per-method best mean lambda, values copied verbatim from
    the source traces."""
    rank = cfg["search"]["direction"].rank
    values: dict = {}  # (stage, method) -> (text, value) pairs, file order
    for name in (TRACE_FILE, BASELINE_TRACE_FILE):
        for stage, method, text, value in _read_trace(_out_path(cfg) / name):
            values.setdefault((stage, method), []).append((text, value))

    write_table(_out_dir(cfg) / COMPARE_FILE, ["stage", "method", "mean_lambda"],
                [[stage, method, min(values[(stage, method)],
                                     key=lambda tv: rank(tv[1]))[0]]
                 for stage, method in sorted(values)])
    return 0


def cmd_sweep_omega(cfg: dict) -> int:
    features, cache = _load_search_inputs(cfg)
    objective = _objective(cfg)
    sc = _search_config(cfg, cache.reference.n_features)

    rows = []
    for omega in cfg["sweep"]["grid"]:
        sn, _ = run_search(cache, replace(sc, omega=omega), objective)
        by_lambda = min(sn, key=lambda c: (
            objective.direction.rank(c.mean_lambda(objective)), c.key))
        rows.append([repr(omega), repr(by_lambda.mean_lambda(objective)),
                     repr(sn[0].gamma),
                     format_assignment(by_lambda.assignment, features)])
    write_table(_out_dir(cfg) / SWEEP_FILE,
                ["omega", "best_mean_lambda", "best_gamma", "assignment"], rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sensopt",
        description="Train a multi-label classifier, score feature-value "
                    "sensitivities, and search for the best assignments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("train", "fit the classifier and write model + metrics"),
        ("distill", "sample sensitivities and fit the surrogate"),
        ("optimize", "beam-search assignments, write SN report and traces"),
        ("baseline", "run exhaustive and sequential-greedy baselines"),
        ("compare", "merge search and baseline traces per stage"),
        ("sweep-omega", "rerun the search across a grid of omega weights"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--omega", type=float)
        p.add_argument("--zeta", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--mode", help="oracle or surrogate")
        p.add_argument("--labels", help="comma-separated label column names")
        p.add_argument("--out", help="output directory")
    return parser


def _overrides(args) -> dict:
    out: dict = {"search": {}, "data": {}}
    for flag in ("omega", "zeta", "mode"):
        if getattr(args, flag) is not None:
            out["search"][flag] = getattr(args, flag)
    if args.seed is not None:
        out["seed"] = args.seed
    if args.labels is not None:
        out["data"]["labels"] = [s for s in args.labels.split(",") if s]
    if args.out is not None:
        out["out_dir"] = args.out
    return out


COMMANDS = {
    "train": cmd_train,
    "distill": cmd_distill,
    "optimize": cmd_optimize,
    "baseline": cmd_baseline,
    "compare": cmd_compare,
    "sweep-omega": cmd_sweep_omega,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, _overrides(args))
        return COMMANDS[args.command](cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except (TrainingDivergedError, DegenerateReferenceError, ArithmeticError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
