import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sensopt import cli
from sensopt.baseline import enumeration_size
from sensopt.cli import (
    DEFAULT_SWEEP_GRID,
    derive_seed,
    load_config,
    main,
    prepare_data,
)
from sensopt.data import SyntheticSpec, generate_synthetic, save_csv
from sensopt.errors import ConfigError


def read_csv_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    ds, _ = generate_synthetic(
        SyntheticSpec(n_features=3, n_samples=60, label_count=2,
                      values_per_feature=2, seed=7)
    )
    save_csv(ds, root / "data.csv")
    config = {
        "seed": 11,
        "data": {"csv": "data.csv", "labels": ["label0", "label1"]},
        "model": {"hidden_dims": [8], "epochs": 60},
        "surrogate": {"hidden_dims": [16, 8], "epochs": 80, "n_samples": 200},
        "search": {"zeta": 3},
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config))
    for command in ["train", "distill", "optimize", "baseline", "compare",
                    "sweep-omega"]:
        assert main([command, "--config", str(cfg_path)]) == 0
    return root, cfg_path


def test_train_artifacts(workspace):
    root, cfg_path = workspace
    out = root / "out"
    model_doc = json.loads((out / "model.json").read_text())
    assert model_doc["meta"]["label_names"] == ["label0", "label1"]
    assert model_doc["meta"]["feature_names"] == ["f0", "f1", "f2"]

    metrics = json.loads((out / "train_metrics.json").read_text())
    assert metrics["schema_version"] == 1
    assert metrics["labels"] == ["label0", "label1"]
    assert len(metrics["loss_curve"]) == 60
    # noiseless labels are a function of the inputs, so the fit beats chance
    assert metrics["final_train_loss"] < math.log(2.0)
    assert len(metrics["test_accuracy_per_label"]) == 2

    manifest = json.loads((out / "split_manifest.json").read_text())
    assert len(manifest["test_rows"]) == 6  # round(60 * 0.1)
    assert sorted(manifest["train_rows"] + manifest["test_rows"]) == list(range(60))


def test_distill_artifacts(workspace):
    root, _ = workspace
    report = json.loads((root / "out" / "distill_report.json").read_text())
    assert report["n_samples"] == 200
    assert report["train_samples"] == 160 and report["holdout_samples"] == 40
    assert -1.0 <= report["r_squared_holdout"] <= 1.0


def test_optimize_report_and_trace(workspace):
    root, cfg_path = workspace
    out = root / "out"
    report = json.loads((out / "optimize_report.json").read_text())
    assert report["omega"] == 0.6 and report["zeta"] == 3  # defaults recorded
    assert report["max_depth"] == 3 and report["mode"] == "oracle"
    assert report["selected"]
    top = report["selected"][0]
    assert len(top["gamma_per_label"]) == 2
    assert top["gamma"] == pytest.approx(np.mean(top["gamma_per_label"]))
    assert all(report["selected"][i]["gamma"] >= report["selected"][i + 1]["gamma"]
               for i in range(len(report["selected"]) - 1))

    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "# schema_version=1"
    rows = read_csv_rows(out / "trace.csv")
    stages = sorted({int(r["stage"]) for r in rows})
    assert stages == [0, 1, 2, 3]
    for s in stages[1:]:
        ranks = [int(r["candidate_rank"]) for r in rows if int(r["stage"]) == s]
        assert ranks == list(range(1, len(ranks) + 1))
        assert len(ranks) <= 3


def test_top_features_table(workspace):
    root, cfg_path = workspace
    rows = read_csv_rows(root / "out" / "top_features.csv")
    cfg = load_config(cfg_path)
    train_set, _, _, _ = prepare_data(cfg)
    total_pairs = sum(len(d) for d in train_set.value_domains)
    assert len(rows) == min(10, total_pairs)
    assert [int(r["rank"]) for r in rows] == list(range(1, len(rows) + 1))
    gammas = [float(r["gamma"]) for r in rows]
    assert gammas == sorted(gammas, reverse=True)
    assert all(r["feature"] in ("f0", "f1", "f2") for r in rows)


def test_baseline_report_counts(workspace):
    root, cfg_path = workspace
    report = json.loads((root / "out" / "baseline_report.json").read_text())
    cfg = load_config(cfg_path)
    train_set, _, _, _ = prepare_data(cfg)
    domains = train_set.value_domains
    assert report["brute_force"]["evaluations"] == enumeration_size(domains, 3)
    assert report["sequential"]["evaluations"] == sum(len(d) for d in domains) + 1
    assert report["brute_force"]["best_mean_lambda"] <= \
        report["sequential"]["best_mean_lambda"]

    rows = read_csv_rows(root / "out" / "baseline_trace.csv")
    methods = {r["method"] for r in rows}
    assert methods == {"brute_force", "sequential"}
    assert all(r["gamma"] == "" for r in rows)  # baselines never score gamma


def test_compare_merges_traces(workspace):
    root, _ = workspace
    out = root / "out"
    rows = read_csv_rows(out / "compare.csv")
    seen = [(int(r["stage"]), r["method"]) for r in rows]
    assert seen == sorted(seen)
    assert len(seen) == len(set(seen))
    assert {m for _, m in seen} == {"beam", "brute_force", "sequential"}

    source_values = {r["mean_lambda"] for r in read_csv_rows(out / "trace.csv")}
    source_values |= {r["mean_lambda"]
                      for r in read_csv_rows(out / "baseline_trace.csv")}
    assert all(r["mean_lambda"] in source_values for r in rows)

    # the beam line at the final stage can never beat brute force
    final = {r["method"]: float(r["mean_lambda"])
             for r in rows if int(r["stage"]) == 3}
    assert final["brute_force"] <= final["beam"]
    assert final["brute_force"] <= final["sequential"]


def test_sweep_grid(workspace):
    root, _ = workspace
    rows = read_csv_rows(root / "out" / "sweep_omega.csv")
    assert [r["omega"] for r in rows] == [repr(float(w)) for w in DEFAULT_SWEEP_GRID]
    assert len(rows) == 9
    for r in rows:
        float(r["best_mean_lambda"])
        float(r["best_gamma"])
        assert r["assignment"]


def test_rerun_is_byte_identical(workspace):
    root, cfg_path = workspace
    out = root / "out"
    names = ["model.json", "train_metrics.json", "split_manifest.json",
             "trace.csv", "optimize_report.json", "top_features.csv"]
    before = {n: (out / n).read_bytes() for n in names}
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert main(["optimize", "--config", str(cfg_path)]) == 0
    for n in names:
        assert (out / n).read_bytes() == before[n], n


def test_surrogate_mode_flag(workspace):
    # --out moves the whole artifact chain, so rebuild it there
    root, cfg_path = workspace
    for command in ["train", "distill", "optimize"]:
        assert main([command, "--config", str(cfg_path), "--mode", "surrogate",
                     "--out", "out_sur"]) == 0
    report = json.loads((root / "out_sur" / "optimize_report.json").read_text())
    assert report["mode"] == "surrogate"


def test_flag_overrides_recorded(workspace):
    root, cfg_path = workspace
    flags = ["--omega", "0.9", "--zeta", "2", "--out", "out_flags"]
    assert main(["train", "--config", str(cfg_path)] + flags) == 0
    assert main(["optimize", "--config", str(cfg_path)] + flags) == 0
    report = json.loads((root / "out_flags" / "optimize_report.json").read_text())
    assert report["omega"] == 0.9 and report["zeta"] == 2
    rows = read_csv_rows(root / "out_flags" / "trace.csv")
    for s in range(1, 4):
        assert len([r for r in rows if int(r["stage"]) == s]) <= 2


def test_labels_flag_narrows_targets(workspace):
    root, cfg_path = workspace
    assert main(["train", "--config", str(cfg_path), "--labels", "label1",
                 "--out", "out_one"]) == 0
    metrics = json.loads((root / "out_one" / "train_metrics.json").read_text())
    assert metrics["labels"] == ["label1"]


def test_config_errors_exit_2(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "none.json")]) == 2

    (tmp_path / "bad.json").write_text("{nope")
    assert main(["train", "--config", str(tmp_path / "bad.json")]) == 2

    (tmp_path / "nolabels.json").write_text(json.dumps({"data": {"csv": "d.csv"}}))
    assert main(["train", "--config", str(tmp_path / "nolabels.json")]) == 2

    (tmp_path / "d.csv").write_text("a,y\n1,0\n2,1\n3,0\n")
    ok = {"data": {"csv": "d.csv", "labels": ["y"]}}
    (tmp_path / "ok.json").write_text(json.dumps(ok))
    assert main(["train", "--config", str(tmp_path / "ok.json"),
                 "--omega", "1.5"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err

    with pytest.raises(ConfigError):
        load_config(tmp_path / "ok.json", {"search": {"mode": "psychic"}})
    # a flag for a section the file gives as a non-object must not hide it
    (tmp_path / "flat.json").write_text(json.dumps({**ok, "search": 5}))
    with pytest.raises(ConfigError, match="search must be an object"):
        load_config(tmp_path / "flat.json", {"search": {"omega": 0.5}})


@pytest.mark.parametrize("section,key", [
    ("search", "omega"), ("search", "zeta"), ("data", "test_fraction"),
    ("model", "epochs"),
])
def test_non_numeric_config_value_exits_2(tmp_path, capsys, section, key):
    (tmp_path / "d.csv").write_text("a,y\n1,0\n2,1\n3,0\n")
    cfg = {"data": {"csv": "d.csv", "labels": ["y"]}}
    cfg.setdefault(section, {})[key] = "abc"
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    assert main(["train", "--config", str(tmp_path / "c.json")]) == 2
    err = capsys.readouterr().err
    assert f"{section}.{key}" in err and "Traceback" not in err


@pytest.mark.parametrize("extra,name", [
    ({"serach": {"omega": 0.3}}, "serach"),
    ({"search": {"omgea": 0.3}}, "search.omgea"),
])
def test_unknown_config_key_exits_2(tmp_path, capsys, extra, name):
    (tmp_path / "d.csv").write_text("a,y\n1,0\n2,1\n3,0\n")
    cfg = {"data": {"csv": "d.csv", "labels": ["y"]}, **extra}
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    assert main(["train", "--config", str(tmp_path / "c.json")]) == 2
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("command", ["distill", "optimize", "baseline",
                                     "sweep-omega"])
def test_model_trained_on_other_labels_exits_3(workspace, capsys, command):
    # with one label named, label1 would be read as a fourth feature
    root, cfg_path = workspace
    assert main([command, "--config", str(cfg_path), "--labels", "label0"]) == 3
    err = capsys.readouterr().err
    assert "['label0', 'label1']" in err and "['f0', 'f1', 'f2', 'label1']" in err


@pytest.mark.parametrize("value", ["false", 1])
def test_non_boolean_stratify_exits_2(tmp_path, capsys, value):
    (tmp_path / "d.csv").write_text("a,y\n1,0\n2,1\n3,0\n")
    cfg = {"data": {"csv": "d.csv", "labels": ["y"], "stratify": value}}
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    assert main(["train", "--config", str(tmp_path / "c.json")]) == 2
    err = capsys.readouterr().err
    assert "data.stratify" in err and "Traceback" not in err


@pytest.mark.parametrize("name,flags", [
    ("model.json", []),
    ("surrogate.json", ["--mode", "surrogate"]),
    ("reference.npy", []),
    ("reference.json", []),
])
def test_corrupt_artifact_exits_3(tmp_path, capsys, name, flags):
    ds, _ = generate_synthetic(SyntheticSpec(n_features=2, n_samples=30,
                                             label_count=1, seed=1))
    save_csv(ds, tmp_path / "data.csv")
    cfg = {"data": {"csv": "data.csv", "labels": ["label0"]},
           "model": {"hidden_dims": [4], "epochs": 5},
           "surrogate": {"hidden_dims": [4, 4], "epochs": 5, "n_samples": 20}}
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(p)]) == 0
    assert main(["distill", "--config", str(p)]) == 0
    (tmp_path / "out" / name).write_text("{not json")
    assert main(["optimize", "--config", str(p)] + flags) == 3
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err


@pytest.mark.parametrize("name,flags", [
    ("model.json", []),
    ("surrogate.json", ["--mode", "surrogate"]),
])
def test_artifact_that_describes_no_usable_model_exits_3(tmp_path, capsys,
                                                         name, flags):
    # well-formed JSON: a model whose layers do not chain, and a surrogate
    # with more outputs than its meta's n_labels
    ds, _ = generate_synthetic(SyntheticSpec(n_features=2, n_samples=30,
                                             label_count=1, seed=1))
    save_csv(ds, tmp_path / "data.csv")
    cfg = {"data": {"csv": "data.csv", "labels": ["label0"]},
           "model": {"hidden_dims": [4], "epochs": 5},
           "surrogate": {"hidden_dims": [4, 4], "epochs": 5, "n_samples": 20}}
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(p)]) == 0
    assert main(["distill", "--config", str(p)]) == 0
    path = tmp_path / "out" / name
    doc = json.loads(path.read_text())
    last = doc["layers"][-1]
    if name == "model.json":
        last["input_dim"] = 3
        last["weights"] = [[0.0]] * 3
    else:
        last["output_dim"] = 3
        last["weights"] = [[0.0] * 3 for _ in last["weights"]]
        last["biases"] = [0.0] * 3
    path.write_text(json.dumps(doc))
    assert main(["optimize", "--config", str(p)] + flags) == 3
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err


@pytest.mark.parametrize("name,flags", [
    ("model.json", []),
    ("surrogate.json", ["--mode", "surrogate"]),
])
def test_artifact_with_no_layers_exits_3(tmp_path, capsys, name, flags):
    ds, _ = generate_synthetic(SyntheticSpec(n_features=2, n_samples=30,
                                             label_count=1, seed=1))
    save_csv(ds, tmp_path / "data.csv")
    cfg = {"data": {"csv": "data.csv", "labels": ["label0"]},
           "model": {"hidden_dims": [4], "epochs": 5},
           "surrogate": {"hidden_dims": [4, 4], "epochs": 5, "n_samples": 20}}
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(p)]) == 0
    assert main(["distill", "--config", str(p)]) == 0
    path = tmp_path / "out" / name
    doc = json.loads(path.read_text())
    doc["layers"] = []
    path.write_text(json.dumps(doc))
    assert main(["optimize", "--config", str(p)] + flags) == 3
    err = capsys.readouterr().err
    assert name in err and "malformed model file" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("edit", ["inputs", "outputs"])
def test_model_whose_widths_disagree_with_the_data_exits_3(tmp_path, capsys,
                                                           edit):
    # the meta still names the data's columns; only the network changed:
    # 3 inputs used to end in a traceback, 3 outputs in a mean lambda over
    # a phantom third label
    ds, _ = generate_synthetic(SyntheticSpec(n_features=2, n_samples=30,
                                             label_count=2, seed=1))
    save_csv(ds, tmp_path / "data.csv")
    cfg = {"data": {"csv": "data.csv", "labels": ["label0", "label1"]},
           "model": {"hidden_dims": [4], "epochs": 5}}
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(p)]) == 0
    path = tmp_path / "out" / "model.json"
    doc = json.loads(path.read_text())
    if edit == "inputs":
        first = doc["layers"][0]
        first["input_dim"] = 3
        first["weights"] = [[0.0] * first["output_dim"]] * 3
    else:
        last = doc["layers"][-1]
        last["output_dim"] = 3
        last["weights"] = [[0.0] * 3 for _ in last["weights"]]
        last["biases"] = [0.0] * 3
    path.write_text(json.dumps(doc))
    assert main(["baseline", "--config", str(p)]) == 3
    err = capsys.readouterr().err
    assert "model.json" in err and "rerun train" in err
    assert "Traceback" not in err


def test_missing_artifact_exits_3(tmp_path, capsys):
    ds, _ = generate_synthetic(SyntheticSpec(n_features=2, n_samples=30,
                                             label_count=1, seed=1))
    save_csv(ds, tmp_path / "data.csv")
    cfg = {"data": {"csv": "data.csv", "labels": ["label0"]}}
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    assert main(["optimize", "--config", str(p)]) == 3
    assert main(["compare", "--config", str(p)]) == 3
    assert "run the earlier stage first" in capsys.readouterr().err


def test_failed_read_leaves_no_out_dir(tmp_path, capsys):
    ds, _ = generate_synthetic(SyntheticSpec(n_features=2, n_samples=30,
                                             label_count=1, seed=1))
    save_csv(ds, tmp_path / "data.csv")
    p = tmp_path / "config.json"
    p.write_text(json.dumps({"data": {"csv": "data.csv", "labels": ["label0"]}}))
    for command in ("optimize", "compare"):
        assert main([command, "--config", str(p)]) == 3
        assert not (tmp_path / "out").exists()


TRACE_HEADER = "# schema_version=1\nstage,candidate_rank,gamma,mean_lambda,assignment\n"


@pytest.mark.parametrize("case,command,code,name", [
    ("config-not-utf8", "train", 2, "bad.json"),
    ("config-is-dir", "train", 2, "bad.json"),
    ("out-dir-is-file", "train", 2, "out"),
    ("model-is-dir", "optimize", 3, "model.json"),
    ("trace-not-utf8", "compare", 3, "trace.csv"),
    ("stage-not-int", "compare", 3, "trace.csv"),
    ("lambda-not-number", "compare", 3, "trace.csv"),
    ("no-lambda-column", "compare", 3, "trace.csv"),
    ("no-stage-column", "compare", 3, "trace.csv"),
])
def test_bad_outside_input_exits_without_traceback(tmp_path, capsys,
                                                   monkeypatch, case,
                                                   command, code, name):
    ds, _ = generate_synthetic(SyntheticSpec(n_features=2, n_samples=30,
                                             label_count=1, seed=1))
    save_csv(ds, tmp_path / "data.csv")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "data": {"csv": "data.csv", "labels": ["label0"]},
        "model": {"hidden_dims": [4], "epochs": 5}}))
    out = tmp_path / "out"
    traces = {
        "trace-not-utf8": TRACE_HEADER.encode() + b"0,1,0.5,\xff,\n",
        "stage-not-int": (TRACE_HEADER + "one,1,0.5,0.25,\n").encode(),
        "lambda-not-number": (TRACE_HEADER + "0,1,0.5,low,\n").encode(),
        "no-lambda-column": b"stage,candidate_rank,gamma,assignment\n0,1,0.5,\n",
        "no-stage-column": b"candidate_rank,gamma,mean_lambda,assignment\n1,0.5,0.25,\n",
    }
    if case == "config-not-utf8":
        config = tmp_path / "bad.json"
        config.write_bytes(b'{"seed": "\xff"}')
    elif case == "config-is-dir":
        config = tmp_path / "bad.json"
        config.mkdir()
    elif case == "out-dir-is-file":
        out.write_text("")

        def train(*args, **kwargs):
            raise AssertionError("trained before checking out_dir")
        monkeypatch.setattr(cli, "train", train)
    elif case == "model-is-dir":
        (out / "model.json").mkdir(parents=True)
    else:
        out.mkdir()
        (out / "trace.csv").write_bytes(traces[case])
        (out / "baseline_trace.csv").write_text(
            TRACE_HEADER.replace("assignment", "assignment,method")
            + "0,1,,0.25,,brute_force\n")
    assert main([command, "--config", str(config)]) == code
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err


@pytest.mark.parametrize("edit,flags,code", [
    ("one-cell", [], 3),
    ("none", ["--seed", "12"], 3),
    ("same-bytes", [], 0),
])
def test_chain_built_from_other_data_or_settings_exits_3(tmp_path, capsys,
                                                         edit, flags, code):
    # the reference train prepared is fingerprinted by the CSV's bytes and
    # the split settings, so an edited cell or another seed is refused
    # rather than silently re-split; rewriting equal bytes is not an edit
    ds, _ = generate_synthetic(SyntheticSpec(n_features=2, n_samples=30,
                                             label_count=1, seed=1))
    data = tmp_path / "data.csv"
    save_csv(ds, data)
    cfg = {"seed": 11, "data": {"csv": "data.csv", "labels": ["label0"]},
           "model": {"hidden_dims": [4], "epochs": 5},
           "surrogate": {"hidden_dims": [4, 4], "epochs": 5, "n_samples": 20},
           "sweep": {"grid": [0.5]}}
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(p)]) == 0
    assert main(["distill", "--config", str(p)]) == 0
    header, first, *rest = data.read_bytes().splitlines(keepends=True)
    if edit == "one-cell":
        cells = first.split(b",")
        cells[0] = b"1.0" if cells[0] != b"1.0" else b"2.0"
        first = b",".join(cells)
    data.write_bytes(header + first + b"".join(rest))
    capsys.readouterr()
    commands = ["optimize"] if flags else ["distill", "optimize", "baseline",
                                           "sweep-omega"]
    for command in commands:
        assert main([command, "--config", str(p)] + flags) == code, command
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code:
            assert "reference.json" in err and "rerun train" in err, err


def test_degenerate_reference_exits_4(tmp_path):
    rows = ["a,b,y"] + [f"1.0,2.0,{r % 2}" for r in range(12)]
    (tmp_path / "flat.csv").write_text("\n".join(rows) + "\n")
    cfg = {"data": {"csv": "flat.csv", "labels": ["y"]},
           "model": {"epochs": 5, "hidden_dims": [4], "batch_size": 4}}
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(p)]) == 0
    # every reference row is identical, so prediction variance is zero
    assert main(["optimize", "--config", str(p)]) == 4


@pytest.mark.parametrize("command,fragment,name", [
    ("train", '"data": {"csv": 5, "labels": ["y"]}', "data.csv"),
    ("train", '"out_dir": 5', "out_dir"),
    ("train", '"model": {"epochs": 2.7}', "model.epochs"),
    ("train", '"seed": 1.5', "seed"),
    ("train", '"model": {"epochs": 1e400}', "model.epochs"),
    ("optimize", '"search": {"zeta": true}', "search.zeta"),
    ("optimize", '"search": {"label_subset": [0.5]}', "search.label_subset"),
    ("optimize", '"search": {"label_subset": []}', "search.label_subset"),
    ("optimize", '"search": {"label_subset": [1]}', "search.label_subset"),
    ("optimize", '"search": {"top_k": 0}', "search.top_k"),
    ("sweep-omega", '"sweep": {"grid": [0.5, 1.5]}', "sweep.grid"),
    ("train", '"data": {"csv": "d.csv", "labels": ["y"], "test_fraction": 5}',
     "data.test_fraction"),
    ("train", '"model": {"hidden_dims": [0]}', "model.hidden_dims"),
    ("train", '"model": {"learning_rate": -0.1}', "model.learning_rate"),
    ("train", '"model": {"epochs": 0}', "model.epochs"),
    ("train", '"model": {"batch_size": 0}', "model.batch_size"),
    ("distill", '"surrogate": {"hidden_dims": [4, 0]}', "surrogate.hidden_dims"),
    ("distill", '"surrogate": {"learning_rate": -1}', "surrogate.learning_rate"),
    ("distill", '"surrogate": {"epochs": 0}', "surrogate.epochs"),
    ("distill", '"surrogate": {"batch_size": -3}', "surrogate.batch_size"),
    ("distill", '"surrogate": {"n_samples": 0}', "surrogate.n_samples"),
    ("distill", '"surrogate": {"max_arity": 0}', "surrogate.max_arity"),
    # the data's feature count bounds max_arity; a split needs 2+ train rows
    ("distill", '"data": {"csv": "d.csv", "labels": ["y"], "test_fraction": 0.4}, '
     '"surrogate": {"max_arity": 99}', "surrogate.max_arity"),
    ("distill", '"surrogate": {"holdout_fraction": 1}',
     "surrogate.holdout_fraction"),
    ("optimize", '"search": {"max_depth": -1}', "search.max_depth"),
    ("baseline", '"baseline": {"max_arity": -1}', "baseline.max_arity"),
    # the data's feature count bounds max_arity; a split needs 2+ train rows
    ("baseline", '"data": {"csv": "d.csv", "labels": ["y"], "test_fraction": 0.4}, '
     '"baseline": {"max_arity": 99}', "baseline.max_arity"),
    # a batch larger than the rows it trains on: 2 train rows, and the
    # sample's 8-row head, checked before anything is loaded or sampled
    ("train", '"data": {"csv": "d.csv", "labels": ["y"], "test_fraction": 0.4}, '
     '"model": {"batch_size": 3}', "model.batch_size"),
    ("distill", '"surrogate": {"n_samples": 10}', "surrogate.batch_size"),
])
def test_bad_config_value_exits_2_before_any_output(tmp_path, capsys, command,
                                                    fragment, name):
    # a bad value stops the command at load, before it writes anything
    (tmp_path / "d.csv").write_text("a,y\n1,0\n2,1\n3,0\n")
    text = '{"data": {"csv": "d.csv", "labels": ["y"]}, ' + fragment + "}"
    (tmp_path / "c.json").write_text(text)
    assert main([command, "--config", str(tmp_path / "c.json")]) == 2
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_label_subset_is_checked_against_the_labels_flag(tmp_path, capsys):
    (tmp_path / "d.csv").write_text("a,y,z\n1,0,1\n2,1,0\n3,0,1\n")
    cfg = {"data": {"csv": "d.csv", "labels": ["y", "z"]},
           "search": {"label_subset": [1]}}
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    assert load_config(tmp_path / "c.json")["search"]["label_subset"] == [1]
    assert main(["optimize", "--config", str(tmp_path / "c.json"),
                 "--labels", "y"]) == 2
    assert "search.label_subset" in capsys.readouterr().err


def test_baseline_in_surrogate_mode_needs_no_surrogate(tmp_path):
    ds, _ = generate_synthetic(SyntheticSpec(n_features=3, n_samples=40,
                                             label_count=1, seed=2))
    save_csv(ds, tmp_path / "data.csv")
    cfg = {"data": {"csv": "data.csv", "labels": ["label0"]},
           "model": {"hidden_dims": [4], "epochs": 5}}
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(p)]) == 0
    assert main(["baseline", "--config", str(p), "--mode", "surrogate"]) == 0
    assert not (tmp_path / "out" / "surrogate.json").exists()


def test_surrogate_distilled_for_other_features_exits_3(tmp_path, capsys):
    cfg = {"data": {"csv": "data.csv", "labels": ["label0"]},
           "model": {"hidden_dims": [4], "epochs": 5},
           "surrogate": {"hidden_dims": [4, 4], "epochs": 5, "n_samples": 20}}
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    for n_features, commands in [(3, ["train", "distill"]), (4, ["train"])]:
        ds, _ = generate_synthetic(SyntheticSpec(
            n_features=n_features, n_samples=30, label_count=1, seed=1))
        save_csv(ds, tmp_path / "data.csv")
        for command in commands:
            assert main([command, "--config", str(p)]) == 0
    assert main(["optimize", "--config", str(p), "--mode", "surrogate"]) == 3
    err = capsys.readouterr().err
    assert "surrogate.json" in err and "rerun distill" in err
    assert "Traceback" not in err


def test_surrogate_distilled_from_another_model_exits_3(tmp_path, capsys):
    ds, _ = generate_synthetic(SyntheticSpec(n_features=3, n_samples=30,
                                             label_count=1, seed=1))
    save_csv(ds, tmp_path / "data.csv")
    cfg = {"data": {"csv": "data.csv", "labels": ["label0"]},
           "model": {"hidden_dims": [4], "epochs": 5},
           "surrogate": {"hidden_dims": [4, 4], "epochs": 5, "n_samples": 20},
           "sweep": {"grid": [0.5]}}
    p = tmp_path / "config.json"

    def run(model, *args):
        p.write_text(json.dumps({**cfg, "model": model}))
        return main([*args, "--config", str(p)])

    assert run(cfg["model"], "train") == 0
    assert run(cfg["model"], "distill") == 0
    # the same config trains the same bytes, so the surrogate stays valid
    assert run(cfg["model"], "train") == 0
    assert run(cfg["model"], "optimize", "--mode", "surrogate") == 0
    capsys.readouterr()
    for model in ({"hidden_dims": [5], "epochs": 5},
                  {"hidden_dims": [4], "epochs": 6}):
        assert run(model, "train") == 0
        for command in ("optimize", "sweep-omega"):
            assert run(model, command, "--mode", "surrogate") == 3
            err = capsys.readouterr().err
            assert "surrogate.json" in err and "rerun distill" in err, err
            assert "Traceback" not in err
        assert run(model, "optimize") == 0  # the oracle reads no surrogate

    # a surrogate that names no model is refused as malformed
    assert run(cfg["model"], "train") == 0
    surrogate = tmp_path / "out" / "surrogate.json"
    doc = json.loads(surrogate.read_text())
    del doc["meta"]["model_sha256"]
    surrogate.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(cfg["model"], "optimize", "--mode", "surrogate") == 3
    err = capsys.readouterr().err
    assert "model_sha256" in err and "rerun distill" in err, err


def test_import_pulls_in_only_stdlib_and_numpy():
    # `import sensopt` is timed by the benchmark's setup_s; keep it light
    src = str(Path(__file__).resolve().parent.parent / "src")
    probe = ("import json, sys; sys.path.insert(0, sys.argv[1]); {}"
             "print(json.dumps(sorted(sys.modules)))")

    def loaded(statement):
        done = subprocess.run([sys.executable, "-c", probe.format(statement),
                               src], capture_output=True, text=True,
                              check=True, timeout=60)
        return set(json.loads(done.stdout))

    new = loaded("import sensopt, sensopt.cli; ") - loaded("")
    allowed = set(sys.stdlib_module_names) | {"numpy", "sensopt"}
    assert "sensopt.cli" in new
    assert sorted({m.partition(".")[0] for m in new} - allowed) == []


def test_derive_seed_is_stable_and_tag_sensitive():
    assert derive_seed(0, "split") == derive_seed(0, "split")
    assert derive_seed(0, "split") != derive_seed(1, "split")
    assert derive_seed(0, "split") != derive_seed(0, "train-classifier")
