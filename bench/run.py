"""Benchmark of the sensopt pipeline through its CLI entry point.

    python3 bench/run.py --workload pipeline --seed 1 --seconds 38 --trace 0

Generates the workload's data from --seed, then runs rounds of the seven
CLI commands (sensopt.cli.main, in this process, one BLAS thread) until
--seconds are used, and reports the median of each metric over the rounds.
Each time is scaled by a fixed probe timed before and after it, so that
host-speed drift cancels (see README.md). Every round's artifacts must hash the same, and the first round's pass the
independent checks in checks.py. With --trace 1 it runs a plain round, a
round with every public function of the program wrapped, and a plain round
again, and reports the per-layer metrics instead. The last line of stdout
is the result JSON.
"""

from __future__ import annotations

import os

# Fixed here, not taken from the caller: with two threads OpenBLAS saves
# little wall time for twice the CPU time on a two-core host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from checks import run_checks
from tracing import Tracer
from workloads import COMMANDS, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
SETUP_REPEATS = 5
MIN_ROUNDS = 2

# Exercises every command once on a tiny input before anything is timed.
WARMUP = Workload(
    "warmup", n_features=3, n_samples=80, label_count=2, categorical=False,
    config={"model": {"hidden_dims": [8], "epochs": 5},
            "surrogate": {"hidden_dims": [8, 4], "epochs": 5, "n_samples": 50},
            "search": {"zeta": 5, "max_depth": 2}, "baseline": {"max_arity": 3},
            "sweep": {"grid": [0.5]}})

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import sensopt; "
                "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """A module imports once per process, so each repeat times it in a
    fresh interpreter (interpreter start-up itself is not counted)."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True,
                          timeout=60)
    return float(done.stdout)


# The probe: a fixed numpy loop of the kind the program runs (copy a block,
# fix a column, matmul, ReLU, column mean). Interference from other tenants
# slows it and the program alike, so each command's time is divided by the
# probe's time around it and given in seconds of a host on which the probe
# takes PROBE_REFERENCE_S (the reference machine when uncontended).
PROBE_ROWS = np.random.default_rng(0).random((1000, 16))
PROBE_WEIGHTS = np.random.default_rng(1).random((16, 32))
PROBE_REFERENCE_S = 0.0075


def probe() -> float:
    t = time.perf_counter()
    for _ in range(100):
        x = PROBE_ROWS.copy()
        x[:, 3] = 0.5
        np.maximum(x @ PROBE_WEIGHTS, 0.0).mean(axis=0)
    return time.perf_counter() - t


def scaled(seconds: float, before: float, after: float) -> float:
    """Wall seconds scaled to the reference host by the probes around them."""
    return seconds * 2 * PROBE_REFERENCE_S / (before + after)


def run_round(cli, config: Path, tracer: Tracer | None = None) -> dict:
    """Every command once, in order, with a probe before the first and after
    each one. Returns scaled and wall times, probes, artifacts and failures."""
    out = config.parent / "out"
    shutil.rmtree(out, ignore_errors=True)
    wall_times, artifacts, failed = {}, {}, 0
    wall = time.perf_counter()
    probes = [probe()]
    for label, args, files, _ in COMMANDS:
        t = time.perf_counter()
        try:
            code = cli.main(args + ["--config", str(config)])
        except SystemExit as e:
            code = e.code
        except Exception:
            traceback.print_exc()
            code = 1
        wall_times[label] = time.perf_counter() - t
        if tracer is not None:
            tracer.end_command()
        if code != 0:
            print(f"{label} exited {code}", file=sys.stderr)
            failed += 1
        artifacts[label] = {name: (out / name).read_bytes()
                            for name in files if (out / name).exists()}
        probes.append(probe())
    times = {label: scaled(wall_times[label], probes[i], probes[i + 1])
             for i, (label, *_) in enumerate(COMMANDS)}
    times["total"] = sum(times.values())
    digest = hashlib.sha256()
    for label in sorted(artifacts):
        for name, data in sorted(artifacts[label].items()):
            digest.update(f"{label}/{name}\0".encode() + data)
    return {"times": times, "wall_times": wall_times, "probes": probes,
            "wall": time.perf_counter() - wall, "artifacts": artifacts,
            "failed": failed, "sha256": digest.hexdigest()}


def end_to_end(spec: list, workload: Workload, setup: list, rounds: list) -> dict:
    scorings = workload.scorings()
    labels = {metric: label for label, _, _, metric in COMMANDS if metric}
    per_round = []
    for r in rounds:
        t = r["times"]
        values = {metric: t[label] for metric, label in labels.items()}
        values["total_s"] = t["total"]
        values["assignments_per_s"] = (sum(scorings.values())
                                       / sum(values[m] for m in scorings))
        per_round.append(values)
    values = {name: statistics.median(v[name] for v in per_round)
              for name in per_round[0]}
    values["setup_s"] = statistics.median(setup)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec}


def run_checks_safely(workload, csv_bytes, first_round, seed) -> list:
    try:
        return run_checks(workload, csv_bytes, first_round["artifacts"], seed)
    except (KeyError, ValueError, StopIteration) as e:
        return [f"artifacts missing or malformed: {e!r}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sensopt" / "__init__.py").is_file():
        print(f"no sensopt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sensopt
    from sensopt import cli
    if SRC not in Path(sensopt.__file__).resolve().parents:
        print(f"sensopt imported from {sensopt.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = BENCH / "work"
    shutil.rmtree(work, ignore_errors=True)
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    run_round(cli, WARMUP.write_inputs(sensopt, args.seed, work / "warmup"))

    directory = work / workload.name
    setup = []
    for _ in range(SETUP_REPEATS):
        before = probe()
        t = time.perf_counter()
        config = workload.write_inputs(sensopt, args.seed, directory)
        seconds = time.perf_counter() - t + import_seconds()
        setup.append(scaled(seconds, before, probe()))
    csv_bytes = (directory / "data.csv").read_bytes()

    start = time.perf_counter()
    rounds = [run_round(cli, config)]
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            workload.write_inputs(sensopt, args.seed, directory)
            rounds.append(run_round(cli, config, tracer))
        finally:
            tracer.uninstall()
        tracer.save(results / f"{workload.name}-seed{args.seed}-spans.npz")
        # A plain round on each side of the traced one, so that drift and
        # the first round's warm-up do not land on the overhead alone.
        rounds.append(run_round(cli, config))
        plain = (rounds[0]["times"]["total"] + rounds[2]["times"]["total"]) / 2
        metrics = tracer.metrics(spec["per_layer"],
                                 rounds[1]["times"]["total"] - plain)
    else:
        # Whole rounds only; stop before one that would overrun --seconds.
        while len(rounds) < MIN_ROUNDS or (time.perf_counter() - start
                                           + rounds[-1]["wall"]
                                           <= args.seconds):
            rounds.append(run_round(cli, config))
            # Only the first round's artifacts are checked; later rounds
            # keep their hash, so the benchmark's memory stays flat.
            del rounds[-1]["artifacts"]
        metrics = end_to_end(spec["end_to_end"], workload, setup, rounds)

    failures = run_checks_safely(workload, csv_bytes, rounds[0], args.seed)
    digests = {r["sha256"] for r in rounds}
    if len(digests) != 1:
        failures.append(f"artifacts differ between rounds: {sorted(digests)}")
    attempted = len(rounds) * len(COMMANDS)
    failed = sum(r["failed"] for r in rounds)
    result = {"correct": not failures, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {"workload": workload.name, "seed": args.seed,
              "trace": args.trace, "artifacts_sha256": sorted(digests),
              "round_times": [r["times"] for r in rounds],
              "round_wall_times": [r["wall_times"] for r in rounds],
              "round_probes": [r["probes"] for r in rounds],
              "setup_s": setup, "check_failures": failures, **result}
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n")
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"rounds {len(rounds)}, artifacts sha256 {sorted(digests)[0]}")
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
