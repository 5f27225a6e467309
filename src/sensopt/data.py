"""Dataset ingestion, encoding, splitting, and synthetic generation.

CSV columns that parse fully as numbers become continuous features with a
five-point quantile grid; anything else becomes a categorical feature with
integer codes in first-appearance order. The synthetic generator plants a
known optimal assignment so searches can be validated against ground truth.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from statistics import NormalDist

import numpy as np

from .errors import ConfigError, DataError
from .nn import check_matrix
from .sensitivity import FeatureAssignment

QUANTILE_POINTS = (0.0, 0.25, 0.5, 0.75, 1.0)

# Carried by every JSON report and every CSV table the pipeline writes.
SCHEMA_VERSION = 1

_STD_NORMAL = NormalDist()


class FeatureKind(Enum):
    CATEGORICAL = "categorical"
    CONTINUOUS = "continuous"


@dataclass
class FeatureMeta:
    name: str
    kind: FeatureKind
    domain: np.ndarray  # candidate values, sorted ascending, no duplicates
    raw_categories: list[str] | None = None  # original text labels, code order

    def __post_init__(self):
        self.domain = np.asarray(self.domain, dtype=np.float64)
        if self.domain.size == 0:
            raise DataError(f"feature {self.name!r} has an empty domain")
        if np.any(np.diff(self.domain) <= 0):
            raise DataError(
                f"feature {self.name!r} domain must be strictly ascending"
            )


@dataclass
class Dataset:
    X: np.ndarray  # (m, n)
    Y: np.ndarray  # (m, L), binary
    features: list[FeatureMeta]
    label_names: list[str]

    def __post_init__(self):
        self.X = check_matrix(self.X, "X")
        self.Y = check_matrix(self.Y, "Y")
        if self.X.shape[0] != self.Y.shape[0]:
            raise DataError(
                f"X has {self.X.shape[0]} rows but Y has {self.Y.shape[0]}"
            )
        if len(self.features) != self.X.shape[1]:
            raise DataError(
                f"{len(self.features)} feature metas for {self.X.shape[1]} columns"
            )
        if len(self.label_names) != self.Y.shape[1]:
            raise DataError(
                f"{len(self.label_names)} label names for {self.Y.shape[1]} columns"
            )
        if not np.all((self.Y == 0.0) | (self.Y == 1.0)):
            raise DataError("Y entries must be 0 or 1")
        for j, meta in enumerate(self.features):
            if meta.kind is FeatureKind.CATEGORICAL:
                col = np.unique(self.X[:, j])
                if not np.all(np.isin(col, meta.domain)):
                    raise DataError(
                        f"column {meta.name!r} has values outside its domain"
                    )

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    @property
    def n_labels(self) -> int:
        return self.Y.shape[1]

    @property
    def value_domains(self) -> list[np.ndarray]:
        return [f.domain for f in self.features]


def _parse_float(text: str) -> float | None:
    try:
        v = float(text)
    except ValueError:
        return None
    return v if math.isfinite(v) else None


def _parse_column(cells) -> np.ndarray | None:
    """The cells as floats, or None unless every one is a finite number
    (the rule `_parse_float` applies to one cell)."""
    try:
        col = np.array(list(map(float, cells)), dtype=np.float64)
    except ValueError:
        return None
    return col if np.isfinite(col).all() else None


def quantile_domain(values: np.ndarray, points=QUANTILE_POINTS) -> np.ndarray:
    """Deduplicated quantile grid (min, quartiles, max by default)."""
    return np.unique(np.quantile(values, points))


def _header_columns(p: Path, header: list[str], label_columns: list[str]):
    """(label column indices, feature column indices) of a header row; a
    repeated name, a missing label column or no feature left raises
    DataError naming the file."""
    repeated = sorted({name for i, name in enumerate(header)
                       if name in header[:i]})
    if repeated:
        raise DataError(f"{p}: header repeats column names: {repeated}")

    missing = [c for c in label_columns if c not in header]
    if missing:
        raise DataError(f"{p}: label columns not found: {missing}")
    label_idx = [header.index(c) for c in label_columns]
    feature_idx = [i for i in range(len(header)) if i not in label_idx]
    if not feature_idx:
        raise DataError(f"{p}: no feature columns left after labels")
    return label_idx, feature_idx


def csv_feature_names(path, data: bytes, label_columns: list[str]) -> list[str]:
    """The feature names of a CSV's header row, given the file's bytes,
    checked by the rules `load_csv` applies to its header; the body is not
    parsed."""
    p = Path(path)
    try:
        reader = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
        header = next(reader, None)
    except UnicodeDecodeError as e:
        raise DataError(f"{p}: not UTF-8 text ({e.reason})") from None
    except csv.Error as e:
        raise DataError(f"{p}: unreadable CSV header: {e}") from None
    if header is None:
        raise DataError(f"{p}: empty file, header row required")
    _, feature_idx = _header_columns(p, header, label_columns)
    return [header[i] for i in feature_idx]


def load_csv(path, label_columns: list[str]) -> Dataset:
    """Read a UTF-8 comma-separated file with a header row.

    `label_columns` name the binary target columns; every other column
    becomes a feature. Bytes that are not UTF-8, a field past the csv
    module's size limit, repeated header names, missing cells, ragged rows
    and non-binary labels are rejected with the offending location.
    """
    p = Path(path)
    if not p.exists():
        raise DataError(f"no such file: {p}")
    with p.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            rows = list(reader)
        except UnicodeDecodeError as e:
            raise DataError(f"{p}: not UTF-8 text ({e.reason})") from None
        except csv.Error as e:
            raise DataError(f"{p}: unreadable CSV at line {reader.line_num}: "
                            f"{e}") from None
    if not rows:
        raise DataError(f"{p}: empty file, header row required")
    header = rows[0]
    body = rows[1:]
    if not body:
        raise DataError(f"{p}: no data rows")
    label_idx, feature_idx = _header_columns(p, header, label_columns)

    width = len(header)
    for r, row in enumerate(body, start=2):
        if len(row) != width or "" in row:
            if len(row) != width:
                raise DataError(
                    f"{p}: row {r} has {len(row)} cells, header has {width}"
                )
            c = row.index("")
            raise DataError(f"{p}: missing cell at row {r}, column {header[c]!r}")
    columns = list(zip(*body))

    m = len(body)
    Y = np.zeros((m, len(label_idx)))
    for li, c in enumerate(label_idx):
        col = _parse_column(columns[c])
        if col is None or not np.all((col == 0.0) | (col == 1.0)):
            for r, cell in enumerate(columns[c], start=2):
                v = _parse_float(cell)
                if v is None or v not in (0.0, 1.0):
                    raise DataError(
                        f"{p}: non-binary label {cell!r} at row {r}, "
                        f"column {header[c]!r}"
                    )
        Y[:, li] = col

    X = np.zeros((m, len(feature_idx)))
    features = []
    for fi, c in enumerate(feature_idx):
        cells = columns[c]
        col = _parse_column(cells)
        if col is not None:
            meta = FeatureMeta(header[c], FeatureKind.CONTINUOUS, quantile_domain(col))
        else:
            codes = {}
            col = np.empty(m)
            for r, s in enumerate(cells):
                if s not in codes:
                    codes[s] = len(codes)
                col[r] = codes[s]
            meta = FeatureMeta(
                header[c],
                FeatureKind.CATEGORICAL,
                np.arange(len(codes), dtype=np.float64),
                raw_categories=list(codes),
            )
        X[:, fi] = col
        features.append(meta)

    return Dataset(X, Y, features, list(label_columns))


def format_value(meta: FeatureMeta, value: float) -> str:
    """Display form of a model-space value: category text when known."""
    if meta.kind is FeatureKind.CATEGORICAL and meta.raw_categories is not None:
        hits = np.nonzero(np.abs(meta.domain - value) <= 1e-9)[0]
        if hits.size:
            return meta.raw_categories[int(hits[0])]
    return repr(float(value))


def format_assignment(a: FeatureAssignment, features: list[FeatureMeta]) -> str:
    """The one text form of an assignment in every artifact: `name=value`
    pairs in feature order, joined by `;`, each value as `format_value`
    prints it."""
    return ";".join(f"{features[j].name}={format_value(features[j], v)}"
                    for j, v in a)


def _to_jsonable(x):
    if isinstance(x, dict):
        return {k: _to_jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_to_jsonable(v) for v in x]
    if isinstance(x, (np.ndarray, np.floating, np.integer)):
        return x.tolist()
    return x


def write_json(path, obj: dict):
    """A JSON report: `schema_version` first, keys sorted, numpy values as
    plain lists and numbers."""
    obj = {"schema_version": SCHEMA_VERSION, **_to_jsonable(obj)}
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def write_table(path, header: list, rows):
    """A CSV table after the `# schema_version=` comment line."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(f"# schema_version={SCHEMA_VERSION}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def save_csv(dataset: Dataset, path):
    """Export with categorical cells written as their original text, found
    by each value's position in the feature's domain (as `format_value`
    finds it), so scaled codes keep their category."""
    columns = []
    for meta, col in zip(dataset.features, dataset.X.T):
        if meta.kind is FeatureKind.CATEGORICAL and meta.raw_categories:
            values, inverse = np.unique(col, return_inverse=True)
            texts = [format_value(meta, v) for v in values]
            columns.append([texts[i] for i in inverse.tolist()])
        else:
            columns.append(list(map(repr, col.tolist())))
    for col in dataset.Y.T.astype(np.int64).tolist():
        columns.append(list(map(str, col)))
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in dataset.features] + dataset.label_names)
        writer.writerows(zip(*columns))


def split(dataset: Dataset, test_fraction: float = 0.10, seed: int = 0,
          stratify: bool = False):
    """Seeded shuffle-then-cut partition. Returns (train, test).

    Metadata objects are shared between the two halves. With `stratify`,
    rows are grouped by their full label combination and each group is cut
    proportionally.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test_fraction must be in (0,1), got {test_fraction}")
    m = dataset.n_samples
    rng = np.random.default_rng(seed)
    if stratify:
        test_rows = []
        train_rows = []
        groups = {}
        for r in range(m):
            groups.setdefault(tuple(dataset.Y[r]), []).append(r)
        for key in sorted(groups):
            rows = np.array(groups[key])
            perm = rows[rng.permutation(len(rows))]
            cut = int(round(len(rows) * test_fraction))
            test_rows.extend(perm[:cut])
            train_rows.extend(perm[cut:])
        test_idx = np.array(test_rows, dtype=int)
        train_idx = np.array(train_rows, dtype=int)
    else:
        perm = rng.permutation(m)
        cut = int(round(m * test_fraction))
        test_idx, train_idx = perm[:cut], perm[cut:]
    if len(test_idx) < 1 or len(train_idx) < 2:
        raise ConfigError(
            f"degenerate split: {len(train_idx)} train / {len(test_idx)} test rows"
        )
    train = Dataset(dataset.X[train_idx], dataset.Y[train_idx],
                    dataset.features, dataset.label_names)
    test = Dataset(dataset.X[test_idx], dataset.Y[test_idx],
                   dataset.features, dataset.label_names)
    return train, test, train_idx, test_idx


@dataclass
class Scaler:
    """Per-feature min-max map to [0,1], fitted on the training split.

    Also carries the model-space candidate grids: scaled codes for
    categorical features, scaled training-column quantiles for continuous.
    """

    mins: np.ndarray
    maxs: np.ndarray
    domains: list[np.ndarray]

    def _scale_column(self, j: int, col: np.ndarray, name: str) -> np.ndarray:
        """Column j mapped by the training range; a value that overflows
        float64 on the way (a huge cell, or a range wider than the largest
        float) raises DataError naming the column."""
        with np.errstate(over="ignore", invalid="ignore"):
            span = self.maxs[j] - self.mins[j]
            if span == 0.0:
                return np.zeros_like(col)
            scaled = (col - self.mins[j]) / span
        if not np.isfinite(scaled).all():
            raise DataError(
                f"column {name!r} overflows when scaled to its training range "
                f"[{float(self.mins[j])!r}, {float(self.maxs[j])!r}]"
            )
        return scaled

    def transform(self, dataset: Dataset) -> Dataset:
        X = np.column_stack(
            [self._scale_column(j, dataset.X[:, j], meta.name)
             for j, meta in enumerate(dataset.features)]
        )
        metas = [
            replace(meta, domain=self.domains[j])
            for j, meta in enumerate(dataset.features)
        ]
        return Dataset(X, dataset.Y.copy(), metas, dataset.label_names)


def fit_scaler(train: Dataset) -> Scaler:
    mins = train.X.min(axis=0)
    maxs = train.X.max(axis=0)
    scaler = Scaler(mins, maxs, [])
    for j, meta in enumerate(train.features):
        if meta.kind is FeatureKind.CATEGORICAL:
            dom = scaler._scale_column(j, meta.domain, meta.name)
        else:
            dom = quantile_domain(scaler._scale_column(j, train.X[:, j],
                                                       meta.name))
        scaler.domains.append(np.unique(dom))
    return scaler


@dataclass
class SyntheticSpec:
    n_features: int
    n_samples: int
    label_count: int = 3
    planted_assignment: FeatureAssignment | None = None  # default: seeded full plant
    interaction_terms: tuple = ()  # (feature_a, feature_b, weight >= 0)
    noise_level: float = 0.0
    seed: int = 0
    values_per_feature: int = 3

    def validate(self):
        if self.n_features < 1 or self.n_samples < 1 or self.label_count < 1:
            raise ConfigError("n_features, n_samples, label_count must be >= 1")
        if self.values_per_feature < 2:
            raise ConfigError("values_per_feature must be >= 2")
        if self.noise_level < 0:
            raise ConfigError("noise_level must be >= 0")
        if self.planted_assignment is not None:
            for j, v in self.planted_assignment:
                if j >= self.n_features:
                    raise ConfigError(f"planted feature {j} out of range")
                if not 0 <= v <= self.values_per_feature - 1:
                    raise ConfigError(f"planted value {v} outside code range")
        for a, b, w in self.interaction_terms:
            if w < 0:
                raise ConfigError("interaction weights must be >= 0")
            if a >= self.n_features or b >= self.n_features:
                raise ConfigError("interaction feature index out of range")


@dataclass
class GroundTruth:
    """Generating parameters; the oracle behind planted-optimum tests."""

    spec: SyntheticSpec
    planted: FeatureAssignment
    weights: np.ndarray  # per-label slope on the mismatch distance
    biases: np.ndarray  # per-label intercept

    def mismatch(self, codes: np.ndarray) -> float | np.ndarray:
        """Mean normalized |code - planted| over planted features, along
        the last axis: a float for one row, an (m,) array for (m, n)."""
        codes = np.asarray(codes, dtype=np.float64)
        scale = self.spec.values_per_feature - 1
        columns = [j for j, _ in self.planted]
        values = [v for _, v in self.planted]
        # take keeps the gaps C-ordered, so numpy sums each row pairwise
        # as it sums one row alone; a fancy index would give an F-ordered
        # batch, summed column by column with other bits
        gaps = np.abs(codes.take(columns, axis=-1) - values) / scale
        return gaps.sum(axis=-1) / max(len(columns), 1)

    def noiseless_logits(self, codes: np.ndarray) -> np.ndarray:
        """Per-label logits along the last axis: (L,) for one row, (m, L)
        for an (m, n) batch."""
        codes = np.asarray(codes, dtype=np.float64)
        scale = self.spec.values_per_feature - 1
        planted = dict(self.planted.pairs)
        inter = np.zeros(codes.shape[:-1])
        for a, b, w in self.spec.interaction_terms:
            ga = np.abs(codes[..., a] - planted[a]) / scale if a in planted else 0.0
            gb = np.abs(codes[..., b] - planted[b]) / scale if b in planted else 0.0
            inter = inter + w * ga * gb
        return (self.biases + self.weights * self.mismatch(codes)[..., None]
                + inter[..., None])

    def noiseless_probabilities(self, codes: np.ndarray) -> np.ndarray:
        z = self.noiseless_logits(codes)
        return 1.0 / (1.0 + np.exp(-z))

    def to_doc(self) -> dict:
        return {
            "planted_assignment": [[j, v] for j, v in self.planted],
            "weights": [float(w) for w in self.weights],
            "biases": [float(b) for b in self.biases],
            "interaction_terms": [list(t) for t in self.spec.interaction_terms],
            "noise_level": self.spec.noise_level,
            "n_features": self.spec.n_features,
            "n_samples": self.spec.n_samples,
            "label_count": self.spec.label_count,
            "values_per_feature": self.spec.values_per_feature,
            "seed": self.spec.seed,
        }


def _row_uniform(seed: int, tag: str, label: int, row_key: str) -> float:
    """Uniform in (0,1), a pure function of (seed, tag, label, row values);
    `row_key` is the row's integer codes joined by commas."""
    key = f"{seed}|{tag}|{label}|{row_key}"
    h = hashlib.sha256(key.encode()).digest()
    return (int.from_bytes(h[:8], "big") + 0.5) / 2.0**64


def generate_synthetic(spec: SyntheticSpec):
    """Draw a dataset whose labels get likelier the farther a row sits from
    a planted assignment; that assignment therefore minimizes every label's
    probability. Returns (Dataset, GroundTruth).

    Label draws use per-row hashes, so at noise_level=0 the labels are a
    deterministic function of the feature row (two equal rows always get
    equal labels).
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    K = spec.values_per_feature
    n, m, L = spec.n_features, spec.n_samples, spec.label_count

    planted = spec.planted_assignment
    if planted is None:
        planted = FeatureAssignment(
            tuple((j, float(c)) for j, c in enumerate(rng.integers(0, K, size=n)))
        )
    weights = 3.0 + 0.5 * np.arange(L)
    biases = -2.2 - 0.2 * np.arange(L)
    truth = GroundTruth(spec, planted, weights, biases)

    codes = rng.integers(0, K, size=(m, n))
    X = codes.astype(np.float64)
    Y = np.zeros((m, L))
    for r, logits in enumerate(truth.noiseless_logits(X).tolist()):
        key = ",".join(map(str, codes[r].tolist()))
        for l, z in enumerate(logits):
            if spec.noise_level > 0:
                u = _row_uniform(spec.seed, "noise", l, key)
                z = z + spec.noise_level * _STD_NORMAL.inv_cdf(u)
            p = 1.0 / (1.0 + math.exp(-z))
            Y[r, l] = 1.0 if _row_uniform(spec.seed, "label", l, key) < p else 0.0

    features = [
        FeatureMeta(f"f{j}", FeatureKind.CATEGORICAL, np.arange(K, dtype=np.float64))
        for j in range(n)
    ]
    label_names = [f"label{l}" for l in range(L)]
    return Dataset(X, Y, features, label_names), truth


def save_ground_truth(truth: GroundTruth, path):
    """Sidecar JSON recording the generator so tests can replay it."""
    write_json(path, truth.to_doc())
