"""The benchmark must run on the program as it stands.

bench/tracing.py resolves its (module, function) table when it installs,
so a rename under src/ would crash `bench/run.py --trace 1`, and a change
to what the CLI writes could fail bench/checks.py. These tests make the
same install, and one traced round of the warm-up workload, fail here
first.
"""

import importlib.util
import os
import sys
from pathlib import Path

import pytest

import sensopt
import sensopt.cli  # noqa: F401  imports every sensopt module

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"
# Set by bench/run.py when it is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# bench/run.py imports its siblings as top-level modules.
BENCH_MODULES = ("run", "checks", "tracing", "workloads")


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench_run(monkeypatch):
    """bench/run.py as a module; the environment and sys.modules restored."""
    env = {var: os.environ.get(var) for var in THREAD_VARS}
    saved = {name: sys.modules.pop(name) for name in BENCH_MODULES
             if name in sys.modules}
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules["run"] = module
        spec.loader.exec_module(module)
        yield module
    finally:
        for name in BENCH_MODULES:
            sys.modules.pop(name, None)
        sys.modules.update(saved)
        for var, value in env.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def sensopt_modules() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name == "sensopt" or name.startswith("sensopt.")}


def test_tracer_patches_every_wrapped_name_and_restores_it():
    tracing = load_tracing()
    before = {name: dict(vars(m)) for name, m in sensopt_modules().items()}
    search = sys.modules["sensopt.search"]
    score = search.Scorer.__dict__["score"]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = tracer.patches
        for module, attr, *_ in tracing.WRAPPED:
            original = before[f"sensopt.{module}"][attr]
            assert any(a == attr and o is original for _, a, o in patched), \
                f"sensopt.{module}.{attr} was not wrapped"
        assert any(owner is search.Scorer and attr == "score"
                   for owner, attr, _ in patched)
        assert any(owner is sys.modules["sensopt.baseline"]
                   and attr == "lambda_of" for owner, attr, _ in patched)
    finally:
        tracer.uninstall()

    assert search.Scorer.__dict__["score"] is score
    for name, module in sensopt_modules().items():
        for attr, value in before[name].items():
            assert vars(module)[attr] is value, f"{name}.{attr} not restored"


def test_one_traced_benchmark_round_passes_its_checks(bench_run, tmp_path):
    seed = 3
    config = bench_run.WARMUP.write_inputs(sensopt, seed, tmp_path)
    tracer = bench_run.Tracer()
    tracer.install()
    try:
        result = bench_run.run_round(sensopt.cli, config, tracer)
    finally:
        tracer.uninstall()
    assert result["failed"] == 0
    assert bench_run.run_checks(bench_run.WARMUP,
                                (tmp_path / "data.csv").read_bytes(),
                                result["artifacts"], seed) == []
