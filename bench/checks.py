"""Output checks computed apart from the program.

Everything here is plain numpy over the artifacts' bytes: the CSV is parsed,
split and scaled again by the README's rules, the classifier is run from the
weights in model.json, and the sensitivity is recomputed as cov/var. Each
check is a property the method must have, not a copy of an earlier output,
and raises CheckError naming what broke.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from workloads import VALUES_PER_FEATURE

QUANTILES = (0.0, 0.25, 0.5, 0.75, 1.0)
TOLERANCE = 1e-9  # independent recompute vs reported value
ARITHMETIC = 1e-12  # the same formula applied to the reported numbers


class CheckError(AssertionError):
    pass


def require(condition: bool, message: str):
    if not condition:
        raise CheckError(message)


def as_json(data: bytes) -> dict:
    return json.loads(data.decode("utf-8"))


def csv_rows(data: bytes) -> list:
    lines = [ln for ln in data.decode("utf-8").splitlines()
             if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def arity(assignment_text: str) -> int:
    return len([p for p in assignment_text.split(";") if p])


class Reference:
    """The train split in model space, rebuilt from the CSV."""

    def __init__(self, csv_bytes: bytes, labels: list, split_manifest: dict):
        rows = list(csv.reader(io.StringIO(csv_bytes.decode("utf-8"))))
        header, body = rows[0], rows[1:]
        columns = [i for i, name in enumerate(header) if name not in labels]
        self.feature_names = [header[i] for i in columns]
        train = np.asarray(split_manifest["train_rows"], dtype=int)
        self.features = np.empty((len(train), len(columns)))
        self.domains = []
        for j, c in enumerate(columns):
            cells = [row[c] for row in body]
            try:
                raw = np.array([float(s) for s in cells])
                numeric = bool(np.isfinite(raw).all())
            except ValueError:
                numeric = False
            if not numeric:
                codes: dict = {}
                raw = np.array([codes.setdefault(s, len(codes)) for s in cells],
                               dtype=np.float64)
            col = raw[train]
            lo, span = col.min(), col.max() - col.min()
            scale = (lambda v: np.zeros_like(v)) if span == 0.0 \
                else (lambda v: (v - lo) / span)
            self.features[:, j] = scale(col)
            grid = (np.quantile(self.features[:, j], QUANTILES) if numeric
                    else scale(np.arange(len(codes), dtype=np.float64)))
            self.domains.append(np.unique(grid))

    def fixed(self, pairs) -> np.ndarray:
        out = self.features.copy()
        for j, v in pairs:
            out[:, int(j)] = v
        return out


def forward(model_doc: dict, X: np.ndarray) -> np.ndarray:
    a = X
    for layer in model_doc["layers"]:
        z = a @ np.asarray(layer["weights"]) + np.asarray(layer["biases"])
        act = layer["activation"]
        if act == "relu":
            a = np.maximum(z, 0.0)
        elif act == "sigmoid":
            a = 1.0 / (1.0 + np.exp(-z))
        else:
            a = z
    return a


def cov_over_var(fixed: np.ndarray, ref: np.ndarray) -> np.ndarray:
    rc = ref - ref.mean(axis=0)
    fc = fixed - fixed.mean(axis=0)
    return (fc * rc).mean(axis=0) / (rc * rc).mean(axis=0)


def check_loss_decreases(train_metrics: dict):
    curve = train_metrics["loss_curve"]
    require(curve[-1] < curve[0],
            f"training loss ends at {curve[-1]!r}, not below its start {curve[0]!r}")


def check_lambda(report: dict, ref: Reference, model_doc: dict):
    for c in report["selected"]:
        lam = forward(model_doc, ref.fixed(c["assignment"])).mean(axis=0)
        err = np.abs(lam - np.asarray(c["lambda_per_label"])).max()
        require(err <= TOLERANCE,
                f"{report['mode']} lambda of {c['assignment_text']!r} is off "
                f"by {err:.3e} from an independent forward pass")


def check_upsilon(report: dict, ref: Reference, model_doc: dict):
    base = forward(model_doc, ref.features)
    for c in report["selected"]:
        ups = cov_over_var(forward(model_doc, ref.fixed(c["assignment"])), base)
        err = np.abs(ups - np.asarray(c["upsilon_per_label"])).max()
        require(err <= TOLERANCE,
                f"upsilon of {c['assignment_text']!r} is off by {err:.3e} "
                "from a cov/var recompute")


def check_empty_scores_one(trace_rows: list, omega: float):
    """Stage 0 holds the empty assignment; its gamma implies upsilon 1."""
    row = next(r for r in trace_rows if r["stage"] == "0")
    implied = (float(row["gamma"]) - omega * (1.0 - float(row["mean_lambda"]))) \
        / (1.0 - omega)
    require(abs(implied - 1.0) <= ARITHMETIC,
            f"the empty assignment scores {implied!r}, not 1")


def check_gamma(report: dict):
    omega = report["omega"]
    for c in report["selected"]:
        lam = np.asarray(c["lambda_per_label"])
        ups = np.asarray(c["upsilon_per_label"])
        per_label = omega * (1.0 - lam) + (1.0 - omega) * ups
        err = np.abs(per_label - np.asarray(c["gamma_per_label"])).max()
        require(err <= ARITHMETIC,
                f"gamma_per_label of {c['assignment_text']!r} is off by {err:.3e} "
                "from omega*(1-lambda)+(1-omega)*upsilon")
        require(abs(per_label.mean() - c["gamma"]) <= ARITHMETIC,
                f"gamma of {c['assignment_text']!r} is not its per-label mean")


def brute_force_by_arity(baseline_trace_rows: list) -> dict:
    return {int(r["stage"]): float(r["mean_lambda"])
            for r in baseline_trace_rows if r["method"] == "brute_force"}


def check_brute_force_bound(bests: dict, rows: list, source: str):
    """Brute force's best mean lambda at each arity bounds every other
    method's candidate of that arity (the workloads minimize)."""
    for r in rows:
        a = arity(r["assignment"])
        if a in bests:
            require(bests[a] <= float(r["mean_lambda"]),
                    f"{source}: {r['assignment']!r} (mean lambda "
                    f"{r['mean_lambda']}) beats brute force's {bests[a]!r} "
                    f"at arity {a}")


def check_random_assignments(bests: dict, baseline_report: dict, ref: Reference,
                             model_doc: dict, seed: int, samples: int = 64):
    best = baseline_report["brute_force"]
    lam = forward(model_doc, ref.fixed(best["best_assignment"])).mean()
    require(abs(lam - best["best_mean_lambda"]) <= TOLERANCE,
            f"brute force's best mean lambda {best['best_mean_lambda']!r} is "
            f"off from an independent forward pass ({lam!r})")
    rng = np.random.default_rng(seed)
    n = len(ref.domains)
    max_arity = max(bests)
    for _ in range(samples):
        a = int(rng.integers(1, max_arity + 1))
        pairs = [(int(j), float(rng.choice(ref.domains[int(j)])))
                 for j in rng.choice(n, size=a, replace=False)]
        value = forward(model_doc, ref.fixed(pairs)).mean()
        require(value >= bests[a] - TOLERANCE,
                f"sampled assignment {pairs} (mean lambda {value!r}) beats "
                f"brute force's {bests[a]!r} at arity {a}")


def check_evaluations(baseline_report: dict, brute_force: int, sequential: int):
    got = baseline_report["brute_force"]["evaluations"]
    require(got == brute_force,
            f"brute force reports {got} evaluations, closed form gives {brute_force}")
    got = baseline_report["sequential"]["evaluations"]
    require(got == sequential,
            f"sequential reports {got} evaluations, closed form gives {sequential}")


def check_domains(ref: Reference, values_per_feature: int):
    sizes = sorted({len(d) for d in ref.domains})
    require(sizes == [values_per_feature],
            f"candidate domains have sizes {sizes}, the workload plants "
            f"{values_per_feature} values per feature")


def check_holdout_r2(distill_report: dict, minimum: float):
    r2 = distill_report["r_squared_holdout"]
    require(r2 >= minimum, f"surrogate holdout R^2 {r2!r} is below {minimum}")


def run_checks(workload, csv_bytes: bytes, artifacts: dict, seed: int) -> list:
    """Every check on one round's artifacts ({command label: {file: bytes}}).
    Returns the failure messages; empty means the outputs are correct."""
    train = artifacts["train"]
    model_doc = as_json(train["model.json"])
    ref = Reference(csv_bytes, workload.labels,
                    as_json(train["split_manifest.json"]))
    baseline_report = as_json(artifacts["baseline"]["baseline_report.json"])
    baseline_rows = csv_rows(artifacts["baseline"]["baseline_trace.csv"])
    bests = brute_force_by_arity(baseline_rows)

    checks = [
        lambda: check_domains(ref, VALUES_PER_FEATURE),
        lambda: check_loss_decreases(as_json(train["train_metrics.json"])),
        lambda: check_evaluations(baseline_report,
                                  workload.brute_force_scorings(),
                                  workload.single_pair_scorings()),
        lambda: check_random_assignments(bests, baseline_report, ref,
                                         model_doc, seed),
        lambda: check_brute_force_bound(
            bests, [r for r in baseline_rows if r["method"] == "sequential"],
            "sequential"),
        lambda: check_brute_force_bound(
            bests, [{"assignment": r["assignment"],
                     "mean_lambda": r["best_mean_lambda"]}
                    for r in csv_rows(artifacts["sweep"]["sweep_omega.csv"])],
            "sweep"),
    ]
    for label in ("optimize", "optimize_surrogate"):
        files = artifacts[label]
        report = as_json(files["optimize_report.json"])
        trace = csv_rows(files["trace.csv"])
        checks += [
            lambda report=report: check_lambda(report, ref, model_doc),
            lambda report=report: check_gamma(report),
            lambda trace=trace, label=label: check_brute_force_bound(
                bests, trace, f"{label} beam"),
        ]
    oracle = as_json(artifacts["optimize"]["optimize_report.json"])
    checks += [
        lambda: check_upsilon(oracle, ref, model_doc),
        lambda: check_empty_scores_one(
            csv_rows(artifacts["optimize"]["trace.csv"]), oracle["omega"]),
    ]
    if workload.min_holdout_r2 is not None:
        checks.append(lambda: check_holdout_r2(
            as_json(artifacts["distill"]["distill_report.json"]),
            workload.min_holdout_r2))

    failures = []
    for check in checks:
        try:
            check()
        except CheckError as e:
            failures.append(str(e))
    return failures
