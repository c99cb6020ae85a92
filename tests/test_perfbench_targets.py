"""The benchmark's tracer patches package functions by name; every name it
lists must resolve the way `Tracer.install` resolves it, or a traced run
(`perfbench/run.py --trace 1`) breaks."""

import importlib.util
import sys
from pathlib import Path

import pytest

import dunklkit  # noqa: F401  (imports every submodule the tracer looks up)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module              # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("target", tracing.TARGETS, ids=lambda t: f"{t.module}.{t.path}")
def test_trace_target_resolves(target):
    owner = sys.modules[f"dunklkit.{target.module}"]
    head, _, attr = target.path.rpartition(".")
    if head:
        cls = getattr(owner, head)
        raw = cls.__dict__[attr]                 # defined on the class itself
        assert callable(raw) or isinstance(raw, property)
    else:
        assert callable(getattr(owner, attr))

