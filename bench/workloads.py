"""The benchmark's seeded synthetic workloads and the work each one does.

Every workload runs the same round of CLI commands; what differs is the
data shape and the config, which decide which layer dominates. The seed
given on the command line drives both the generated data and the
pipeline's own global seed, so one seed always gives one set of inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb
from pathlib import Path

# Every workload plants 3 values per feature and 10% label noise.
VALUES_PER_FEATURE = 3
NOISE_LEVEL = 0.1

# One round, in order: (label, CLI arguments, files it writes, metric).
# The surrogate search runs before the oracle one so that `compare`, which
# reads the latest trace.csv, merges the oracle beam with the baselines.
SEARCH_FILES = ("optimize_report.json", "trace.csv", "top_features.csv")
COMMANDS = (
    ("train", ["train"],
     ("model.json", "train_metrics.json", "split_manifest.json"), "train_s"),
    ("distill", ["distill"],
     ("surrogate.json", "distill_report.json"), "distill_s"),
    ("optimize_surrogate", ["optimize", "--mode", "surrogate"],
     SEARCH_FILES, "optimize_surrogate_s"),
    ("optimize", ["optimize"], SEARCH_FILES, "optimize_s"),
    ("baseline", ["baseline"],
     ("baseline_report.json", "baseline_trace.csv"), "baseline_s"),
    ("compare", ["compare"], ("compare.csv",), None),
    ("sweep", ["sweep-omega"], ("sweep_omega.csv",), "sweep_s"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    n_features: int
    n_samples: int
    label_count: int
    # Text cells load as categorical features (one code per value); numeric
    # cells load as continuous features with a quantile grid.
    categorical: bool
    # Config sections besides "seed" and "data". The search's zeta and
    # max_depth, baseline's max_arity and the sweep's grid are always given,
    # so the logical counts below never rest on the CLI's defaults.
    config: dict
    min_holdout_r2: float | None = None

    @property
    def labels(self) -> list:
        return [f"label{i}" for i in range(self.label_count)]

    # Logical assignment counts. They follow from the workload's shape
    # alone, never from the program's counters, so a cache that skips
    # scorings raises assignments_per_s instead of lowering it.

    def beam_scorings(self) -> int:
        """The empty assignment plus every expansion the beam scores."""
        n, k = self.n_features, VALUES_PER_FEATURE
        zeta, depth = self.config["search"]["zeta"], self.config["search"]["max_depth"]
        total, width = 1, 1
        for d in range(1, depth + 1):
            total += width * (n - d + 1) * k
            # One member alone has (n-d+1)*k distinct extensions; when that
            # reaches zeta the next stage starts from a full beam.
            if d < depth and (n - d + 1) * k < zeta:
                raise ValueError(f"{self.name}: beam width after stage {d} "
                                 "is not fixed by the workload's shape")
            width = zeta
        return total

    def single_pair_scorings(self) -> int:
        """Empty plus every single pair: top features and sequential."""
        return 1 + self.n_features * VALUES_PER_FEATURE

    def brute_force_scorings(self) -> int:
        n, k = self.n_features, VALUES_PER_FEATURE
        arity = self.config["baseline"]["max_arity"]
        return sum(comb(n, r) * k**r for r in range(arity + 1))

    def scorings(self) -> dict:
        """Logical assignments per scoring command."""
        optimize = self.beam_scorings() + self.single_pair_scorings()
        return {
            "optimize_surrogate_s": optimize,
            "optimize_s": optimize,
            "baseline_s": self.brute_force_scorings() + self.single_pair_scorings(),
            "sweep_s": len(self.config["sweep"]["grid"]) * self.beam_scorings(),
        }

    def write_inputs(self, sensopt, seed: int, directory: Path) -> Path:
        """Generate the data through the library, write CSV and config."""
        spec = sensopt.SyntheticSpec(
            n_features=self.n_features, n_samples=self.n_samples,
            label_count=self.label_count, noise_level=NOISE_LEVEL,
            values_per_feature=VALUES_PER_FEATURE, seed=seed)
        dataset, _ = sensopt.data.generate_synthetic(spec)
        if self.categorical:
            for meta in dataset.features:
                meta.raw_categories = [f"v{c}" for c in range(VALUES_PER_FEATURE)]
        directory.mkdir(parents=True, exist_ok=True)
        sensopt.save_csv(dataset, directory / "data.csv")
        config = {"seed": seed,
                  "data": {"csv": "data.csv", "labels": self.labels},
                  **self.config}
        path = directory / "config.json"
        path.write_text(json.dumps(config, indent=2), encoding="utf-8")
        return path


WORKLOADS = {
    # Full brute force over (3+1)^7 = 16,384 assignments of a 270-row
    # reference: per-assignment overhead dominates and brute force never
    # scores an assignment twice. zeta stays at 5: with 7 features the beam
    # must fill from 2 features x 3 values at its last stage.
    "exhaustive": Workload(
        "exhaustive", n_features=7, n_samples=300, label_count=2,
        categorical=True,
        config={"model": {"epochs": 500},
                "surrogate": {"n_samples": 1500, "epochs": 30},
                "search": {"zeta": 5, "max_depth": 7},
                "baseline": {"max_arity": 7},
                "sweep": {"grid": [0.1, 0.3, 0.5, 0.7, 0.9]}}),
    # SGD, oracle sampling and a nine-point omega sweep that re-scores the
    # same assignments at every omega.
    "pipeline": Workload(
        "pipeline", n_features=10, n_samples=2000, label_count=2,
        categorical=False,
        config={"model": {"epochs": 100},
                "surrogate": {"n_samples": 500, "epochs": 40},
                "search": {"zeta": 5, "max_depth": 2},
                "baseline": {"max_arity": 2},
                "sweep": {"grid": [round(0.1 * i, 1) for i in range(1, 10)]}},
        min_holdout_r2=0.8),
    # A wide, long reference: the first-layer matmul dominates scoring.
    "wide": Workload(
        "wide", n_features=40, n_samples=3000, label_count=3,
        categorical=False,
        config={"model": {"epochs": 50},
                "surrogate": {"n_samples": 200, "epochs": 20},
                "search": {"zeta": 2, "max_depth": 2},
                "baseline": {"max_arity": 1},
                "sweep": {"grid": [0.6]}}),
}
