"""Each output check must reject a report altered to break its property.

    python3 -m pytest bench/test_checks.py

Runs one real round on a tiny workload, confirms every check passes on it,
then feeds the checks one altered artifact at a time.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from workloads import VALUES_PER_FEATURE, Workload  # noqa: E402

TINY = Workload(
    "tiny", n_features=4, n_samples=160, label_count=2, categorical=True,
    config={"model": {"hidden_dims": [8], "epochs": 40},
            "surrogate": {"hidden_dims": [8, 4], "epochs": 10, "n_samples": 80},
            "search": {"zeta": 3, "max_depth": 4}, "baseline": {"max_arity": 4},
            "sweep": {"grid": [0.3, 0.7]}})
SEED = 5


@pytest.fixture(scope="module")
def round_(tmp_path_factory):
    import sensopt
    from sensopt import cli
    directory = tmp_path_factory.mktemp("tiny")
    config = TINY.write_inputs(sensopt, SEED, directory)
    result = run.run_round(cli, config)
    assert result["failed"] == 0
    return (directory / "data.csv").read_bytes(), result["artifacts"]


def failures(round_, label=None, name=None, edit=None):
    csv_bytes, artifacts = round_
    artifacts = copy.deepcopy(artifacts)
    if edit is not None:
        artifacts[label][name] = edit(artifacts[label][name])
    return checks.run_checks(TINY, csv_bytes, artifacts, SEED)


def edit_json(change):
    def edit(data: bytes) -> bytes:
        doc = json.loads(data)
        change(doc)
        return json.dumps(doc).encode()
    return edit


def edit_csv(change):
    def edit(data: bytes) -> bytes:
        rows = checks.csv_rows(data)
        change(rows)
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
        return out.getvalue().encode()
    return edit


def shift_lambda(doc):
    """Move lambda and keep gamma consistent, so only lambda is wrong."""
    c = doc["selected"][0]
    c["lambda_per_label"][0] += 1e-6
    omega = doc["omega"]
    c["gamma_per_label"] = [omega * (1 - lam) + (1 - omega) * ups for lam, ups
                            in zip(c["lambda_per_label"], c["upsilon_per_label"])]
    c["gamma"] = sum(c["gamma_per_label"]) / len(c["gamma_per_label"])


def shift_upsilon(doc):
    c = doc["selected"][0]
    c["upsilon_per_label"][1] += 1e-6
    omega = doc["omega"]
    c["gamma_per_label"] = [omega * (1 - lam) + (1 - omega) * ups for lam, ups
                            in zip(c["lambda_per_label"], c["upsilon_per_label"])]
    c["gamma"] = sum(c["gamma_per_label"]) / len(c["gamma_per_label"])


def shift_gamma(doc):
    doc["selected"][0]["gamma_per_label"][0] += 1e-6


def shift_empty_gamma(rows):
    rows[0]["gamma"] = repr(float(rows[0]["gamma"]) + 1e-6)


def worsen_brute_force(rows):
    """Brute force's arity-1 optimum above every arity-1 candidate."""
    for r in rows:
        if r["method"] == "brute_force" and r["stage"] == "1":
            r["mean_lambda"] = "1.0"


def test_unaltered_round_passes(round_):
    assert failures(round_) == []


@pytest.mark.parametrize("label, name, edit, expected", [
    ("optimize", "optimize_report.json", edit_json(shift_lambda),
     "oracle lambda"),
    ("optimize_surrogate", "optimize_report.json", edit_json(shift_lambda),
     "surrogate lambda"),
    ("optimize", "optimize_report.json", edit_json(shift_upsilon),
     "cov/var recompute"),
    ("optimize", "optimize_report.json", edit_json(shift_gamma),
     "omega*(1-lambda)"),
    ("optimize", "trace.csv", edit_csv(shift_empty_gamma),
     "empty assignment"),
    ("baseline", "baseline_trace.csv", edit_csv(worsen_brute_force),
     "optimize beam"),
    ("baseline", "baseline_report.json",
     edit_json(lambda d: d["brute_force"].update(best_mean_lambda=0.0)),
     "brute force's best mean lambda"),
    ("baseline", "baseline_report.json",
     edit_json(lambda d: d["brute_force"].update(
         evaluations=d["brute_force"]["evaluations"] + 1)),
     "brute force reports"),
    ("baseline", "baseline_report.json",
     edit_json(lambda d: d["sequential"].update(
         evaluations=d["sequential"]["evaluations"] - 1)),
     "sequential reports"),
    ("train", "train_metrics.json",
     edit_json(lambda d: d["loss_curve"].reverse()),
     "training loss"),
])
def test_altered_report_fails_its_check(round_, label, name, edit, expected):
    found = failures(round_, label, name, edit)
    assert any(expected in message for message in found), found


def test_sampled_assignment_beating_brute_force_fails(round_):
    csv_bytes, artifacts = round_
    ref = checks.Reference(csv_bytes, TINY.labels, checks.as_json(
        artifacts["train"]["split_manifest.json"]))
    model_doc = checks.as_json(artifacts["train"]["model.json"])
    report = checks.as_json(artifacts["baseline"]["baseline_report.json"])
    bests = checks.brute_force_by_arity(
        checks.csv_rows(artifacts["baseline"]["baseline_trace.csv"]))
    checks.check_random_assignments(bests, report, ref, model_doc, SEED)
    worse = {a: 1.0 for a in bests}
    with pytest.raises(checks.CheckError, match="beats brute force"):
        checks.check_random_assignments(worse, report, ref, model_doc, SEED)


def test_holdout_r2_gate():
    checks.check_holdout_r2({"r_squared_holdout": 0.8}, 0.8)
    with pytest.raises(checks.CheckError, match="below 0.8"):
        checks.check_holdout_r2({"r_squared_holdout": 0.79}, 0.8)


def test_domain_size_mismatch_fails(round_):
    csv_bytes, artifacts = round_
    ref = checks.Reference(csv_bytes, TINY.labels, checks.as_json(
        artifacts["train"]["split_manifest.json"]))
    checks.check_domains(ref, VALUES_PER_FEATURE)
    with pytest.raises(checks.CheckError, match="plants 4 values"):
        checks.check_domains(ref, 4)
