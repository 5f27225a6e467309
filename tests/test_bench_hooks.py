"""The benchmark's per-layer tracer must find every name it wraps.

bench/tracing.py resolves its (module, function) table when it installs,
so a rename under src/ would crash `bench/run.py --trace 1`. This test
makes the same install fail here first.
"""

import importlib.util
import sys
from pathlib import Path

import sensopt.cli  # noqa: F401  imports every sensopt module

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
