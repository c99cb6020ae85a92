"""The benchmark's tracer patches package functions by name; every name it
lists must resolve the way `Tracer.install` resolves it, or a traced run
(`perfbench/run.py --trace 1`) breaks.  Its kernel-size hook must see the
kernel arrays each transform applies, or `spectral.kernel_bytes` misreads."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
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


@pytest.mark.parametrize("mode", ["rank1", "radial"])
def test_kernel_built_sizes_the_kernels_the_transform_applies(mode):
    # `spectral.kernel_bytes` reads the 2-D arrays held by the transform
    # itself: the parity blocks of a rank-1 transform must apply those same
    # forward arrays, not copies and not arrays held only by the blocks.  A
    # built transform holds no inverse: each block derives one on its first
    # `from_coords`, after the tracer has sized the kernels
    grid = dict(resolution=64, xi_resolution=64)
    if mode == "rank1":
        tr = dunklkit.rank1_workbench(0.5, **grid).transform
        blocks = [tr.even, tr.odd]
    else:
        tr = dunklkit.radial_workbench(3, 0.0, **grid).transform
        blocks = [tr]
    kernels = [b._fwd for b in blocks]
    held = [v for v in vars(tr).values() if isinstance(v, np.ndarray) and v.ndim == 2]
    assert len(held) == len(kernels) and all(any(a is b for b in held) for a in kernels)
    tracer = tracing.Tracer()
    tracing._kernel_built(tracer, None, (tr,), None)
    assert tracer.extra["kernel_bytes"] == sum(a.nbytes for a in kernels) > 0
    assert all(b._inv is None for b in blocks)
    tr.from_coords(np.zeros(tr.coord_xi.size))
    assert all(b._inv.shape == b._fwd.shape[::-1] for b in blocks)
