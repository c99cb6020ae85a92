"""Span and count recording around dunklkit's public functions, from outside.

`Tracer.install()` replaces each traced function or method with a wrapper
that records a span (name, start, end, parent, op) on entry and exit.  A
module-level function is replaced in every dunklkit module that holds it
(for example `weighted_lp_norm` is bound in `dunklkit.measure`,
`dunklkit.workbench`, `dunklkit.cli` and the package root), and a method is
replaced on its class.  The package itself is not modified on disk and has
no tracing code.

While a window is open the tracer keeps the span records (written out by
`dump`), per-name counts and total durations, and per group (one layer's
role, e.g. "measure.build") the self time (duration minus the time covered
by direct child spans) and the count and total of spans outermost in their
group, so nested calls within a group are not counted twice.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class Target:
    module: str                       # dunklkit submodule holding the object
    path: str                         # "func" or "Class.method"
    group: str                        # layer group, e.g. "measure.build"
    when: Optional[Callable] = None   # (args, kwargs) -> bool: record a span at all
    label: Optional[Callable] = None  # (args, kwargs) -> sub-label for per-tag stats


def _with_power_builds(args, kwargs):
    extra = args[1] if len(args) > 1 else kwargs.get("extra")
    return extra != 0.0


def _theorem(args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    return spec.theorem


TARGETS = [
    # measure: rule builds and norms
    Target("measure", "rank1_quadrature", "measure.build"),
    Target("measure", "radial_quadrature", "measure.build"),
    Target("measure", "build_quadrature", "measure.build"),
    Target("measure", "WeightedQuadrature.with_power", "measure.build", when=_with_power_builds),
    Target("measure", "WeightedQuadrature.refined", "measure.build"),
    Target("measure", "weighted_lp_norm", "measure.norm"),
    # functions: evaluation, exact calculus, corpus generation
    Target("functions", "TestFunction.value", "functions.value"),
    Target("functions", "TestFunction.value_reduced", "functions.value"),
    Target("functions", "TestFunction.derivative", "functions.calculus"),
    Target("functions", "TestFunction.apply_dunkl", "functions.calculus"),
    Target("functions", "TestFunction.laplacian", "functions.calculus"),
    Target("functions", "TestFunction.dilate", "functions.calculus"),
    Target("functions", "generate_corpus", "functions.corpus"),
    # spectral: kernel builds, applies, multipliers
    Target("spectral", "DunklTransformRank1.__init__", "spectral.build"),
    Target("spectral", "RadialDunklTransform.__init__", "spectral.build"),
    Target("spectral", "DunklTransformRank1.forward", "spectral.forward"),
    Target("spectral", "RadialDunklTransform.forward", "spectral.forward"),
    Target("spectral", "DunklTransformRank1.inverse", "spectral.inverse"),
    Target("spectral", "RadialDunklTransform.inverse", "spectral.inverse"),
    Target("spectral", "DunklTransformRank1.calibration_report", "spectral.calibration"),
    Target("spectral", "RadialDunklTransform.calibration_report", "spectral.calibration"),
    Target("spectral", "SpectralField.scaled", "spectral.multiplier"),
    Target("spectral", "fractional_laplacian", "spectral.multiplier"),
    Target("spectral", "riesz_potential", "spectral.multiplier"),
    Target("spectral", "sobolev_norm", "spectral.multiplier"),
    Target("spectral", "homogeneous_norm", "spectral.multiplier"),
    Target("spectral", "littlewood_paley_project", "spectral.multiplier"),
    Target("spectral", "square_function_l2_ratio", "spectral.multiplier"),
    # workbench: spectral cache, norm router, construction
    Target("workbench", "Workbench.spectral", "workbench.spectral"),
    Target("workbench", "Workbench.transform", "workbench.transform"),
    Target("workbench", "Workbench.norm", "workbench.norm"),
    Target("workbench", "Workbench.grad_norm", "workbench.norm"),
    Target("workbench", "Workbench.lap_norm", "workbench.norm"),
    Target("workbench", "Workbench.frac_norm", "workbench.norm"),
    Target("workbench", "Workbench.frac_values", "workbench.norm"),
    Target("workbench", "radial_workbench", "workbench.build"),
    Target("workbench", "rank1_workbench", "workbench.build"),
    # inequalities
    Target("inequalities", "evaluate_sides", "inequalities.evaluate_sides", label=_theorem),
    Target("inequalities", "verify_corpus", "inequalities.verify_corpus"),
    Target("inequalities", "admissible", "inequalities.admissible"),
    Target("inequalities", "trudinger_lhs", "inequalities.trudinger"),
    # extremal: the simplex search; its objective is wrapped per call
    Target("extremal", "rayleigh_maximize", "extremal.rayleigh"),
    Target("extremal", "nelder_mead", "extremal.simplex"),
    # waveeq
    Target("waveeq", "solve_nonlinear", "waveeq.solve"),
    Target("waveeq", "solve_linear", "waveeq.solve"),
    Target("waveeq", "WaveConfig.build_transform", "waveeq.build_transform"),
    # dunkl
    Target("dunkl", "integration_by_parts_residual", "dunkl.ibp"),
]


class Tracer:
    """In-memory span recorder with per-name aggregates for one window."""

    def __init__(self):
        self.window_open = False
        self.op = None                    # identifier of the operation in progress
        self.spans = []                   # [name, start, end, parent index, op]
        self.stack = []                   # open frames
        self.count = defaultdict(int)
        self.total = defaultdict(float)
        self.group_count = defaultdict(int)
        self.group_total = defaultdict(float)
        self.group_self = defaultdict(float)
        self.group_depth = defaultdict(int)
        self.durations = defaultdict(list)   # per labelled name, for medians
        self.extra = defaultdict(float)      # computed sizes and returned counts
        self.spectral_hits = 0
        self.objective_in_box = 0
        self._kernel_cost = weakref.WeakKeyDictionary()

    # -- recording ----------------------------------------------------------

    def _enter(self, name: str, group: str):
        parent = self.stack[-1]["index"] if self.stack else None
        index = None
        if self.window_open:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.op])
        frame = {"name": name, "group": group, "index": index, "child": 0.0,
                 "children": set(), "outer": self.group_depth[group] == 0}
        if self.stack:
            self.stack[-1]["children"].add(group)
        self.group_depth[group] += 1
        self.stack.append(frame)
        frame["start"] = time.perf_counter()
        return frame

    def _exit(self, frame: dict) -> float:
        end = time.perf_counter()
        dur = end - frame["start"]
        self.stack.pop()
        self.group_depth[frame["group"]] -= 1
        if self.stack:
            self.stack[-1]["child"] += dur
        if self.window_open:
            name, group = frame["name"], frame["group"]
            if frame["index"] is not None:
                rec = self.spans[frame["index"]]
                rec[1], rec[2] = frame["start"], end
            self.count[name] += 1
            self.total[name] += dur
            self.group_self[group] += dur - frame["child"]
            if frame["outer"]:
                self.group_count[group] += 1
                self.group_total[group] += dur
        return dur

    def _wrap(self, fn: Callable, name: str, target: Target) -> Callable:
        tracer = self
        after = _AFTER.get(target.path)
        before = _BEFORE.get(target.path)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if target.when is not None and not target.when(args, kwargs):
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(tracer, args, kwargs)
            frame = tracer._enter(name, target.group)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = tracer._exit(frame)
            if tracer.window_open:
                if target.label is not None:
                    tracer.durations[f"{name}.{target.label(args, kwargs)}"].append(dur)
                if after is not None:
                    after(tracer, frame, args, result)
            return result
        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Replace every target in every dunklkit module that binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "dunklkit" or n.startswith("dunklkit."))]
        for target in TARGETS:
            owner = sys.modules[f"dunklkit.{target.module}"]
            head, _, attr = target.path.rpartition(".")
            name = f"{target.module}.{target.path}"
            if head:
                cls = getattr(owner, head)
                raw = cls.__dict__[attr]
                if isinstance(raw, property):
                    new = property(self._wrap(raw.fget, name, target))
                else:
                    new = self._wrap(raw, name, target)
                for key, val in list(cls.__dict__.items()):   # aliases such as __call__
                    if val is raw:
                        setattr(cls, key, new)
            else:
                raw = getattr(owner, attr)
                new = self._wrap(raw, name, target)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is raw:
                            setattr(mod, key, new)

    # -- output ----------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)

    def layer_metrics(self, theorem_tags) -> dict:
        """Per-layer metrics over the window (README.md defines each one);
        `theorem_tags` names the evaluate_sides_s.<Theorem> medians."""
        c, t, x = self.count, self.total, self.extra
        gc, gt, gs = self.group_count, self.group_total, self.group_self

        def ratio(num, den):
            return num / den if den else 0.0

        def median(values):
            return statistics.median(values) if values else 0.0

        solve_s = gt["waveeq.solve"]
        build_s = t["waveeq.WaveConfig.build_transform"]
        out = {
            "measure.quad_builds": gc["measure.build"],
            "measure.quad_build_s": gt["measure.build"],
            "measure.norm_calls": c["measure.weighted_lp_norm"],
            "measure.norm_self_s": gs["measure.norm"],
            "functions.value_calls": gc["functions.value"],
            "functions.value_s": gt["functions.value"],
            "functions.calculus_ops": gc["functions.calculus"],
            "functions.calculus_s": gt["functions.calculus"],
            "functions.corpus_s": gt["functions.corpus"],
            "spectral.kernel_builds": gc["spectral.build"],
            "spectral.kernel_build_s": gt["spectral.build"],
            "spectral.forward_calls": gc["spectral.forward"],
            "spectral.forward_s": gt["spectral.forward"],
            "spectral.inverse_calls": gc["spectral.inverse"],
            "spectral.inverse_s": gt["spectral.inverse"],
            "spectral.multiplier_s": gt["spectral.multiplier"],
            "spectral.kernel_bytes": x["kernel_bytes"],
            "spectral.apply_flops": x["apply_flops"],
            "spectral.apply_bytes": x["apply_bytes"],
            "workbench.spectral_calls": c["workbench.Workbench.spectral"],
            "workbench.spectral_hit_ratio": ratio(self.spectral_hits,
                                                  c["workbench.Workbench.spectral"]),
            "workbench.norm_self_s": gs["workbench.norm"],
            "workbench.build_s": gt["workbench.build"],
            "inequalities.evaluate_sides_calls": c["inequalities.evaluate_sides"],
            "inequalities.admissible_s": t["inequalities.admissible"],
            "extremal.objective_evals": c["extremal.objective"],
            "extremal.in_box_ratio": ratio(self.objective_in_box, c["extremal.objective"]),
            "extremal.simplex_self_s": gs["extremal.simplex"],
            "waveeq.solve_s": solve_s,
            "waveeq.transform_build_s": build_s,
            "waveeq.picard_iters": int(x["picard_iters"]),
            "waveeq.per_iter_s": ratio(solve_s - build_s, x["picard_iters"]),
            "waveeq.spectral_bytes": x["wave_bytes"],
            "dunkl.ibp_calls": c["dunkl.integration_by_parts_residual"],
            "dunkl.ibp_s": t["dunkl.integration_by_parts_residual"],
        }
        for tag in theorem_tags:
            out[f"inequalities.evaluate_sides_s.{tag}"] = median(
                self.durations[f"inequalities.evaluate_sides.{tag}"])
        return out


# ---------------------------------------------------------------------------
# per-target hooks


def _kernel_built(tracer: Tracer, frame, args, result) -> None:
    """Computed kernel size: the 2-D arrays the transform object holds."""
    mats = [v for v in vars(args[0]).values() if isinstance(v, np.ndarray) and v.ndim == 2]
    tracer.extra["kernel_bytes"] += sum(m.nbytes for m in mats)
    if mats:
        big = max(mats, key=lambda m: m.size)
        tracer._kernel_cost[args[0]] = (big.size, big.itemsize)


def _kernel_applied(tracer: Tracer, frame, args, result) -> None:
    """Computed matvec cost from the kernel shape: 2·m·n real flops (×4 for a
    complex kernel) and m·n·itemsize kernel bytes streamed."""
    size, itemsize = tracer._kernel_cost.get(args[0], (0, 8))
    tracer.extra["apply_flops"] += 2.0 * size * (4 if itemsize == 16 else 1)
    tracer.extra["apply_bytes"] += float(size * itemsize)


def _spectral_lookup(tracer: Tracer, frame, args, result) -> None:
    if "spectral.forward" not in frame["children"]:
        tracer.spectral_hits += 1


def _solved(tracer: Tracer, frame, args, result) -> None:
    tracer.extra["picard_iters"] += result.iterations
    tracer.extra["wave_bytes"] += sum(v.nbytes for v in vars(result).values()
                                      if isinstance(v, np.ndarray) and v.ndim == 2)


def _wrap_objective(tracer: Tracer, args, kwargs):
    """nelder_mead(fun, ...): count each objective evaluation as a span and
    note whether it reached evaluate_sides (an in-box point)."""
    fun = args[0]

    def objective(x):
        frame = tracer._enter("extremal.objective", "extremal.objective")
        try:
            return fun(x)
        finally:
            tracer._exit(frame)
            if tracer.window_open and "inequalities.evaluate_sides" in frame["children"]:
                tracer.objective_in_box += 1
    return (objective,) + tuple(args[1:]), kwargs


_AFTER = {
    "DunklTransformRank1.__init__": _kernel_built,
    "RadialDunklTransform.__init__": _kernel_built,
    "DunklTransformRank1.forward": _kernel_applied,
    "RadialDunklTransform.forward": _kernel_applied,
    "DunklTransformRank1.inverse": _kernel_applied,
    "RadialDunklTransform.inverse": _kernel_applied,
    "Workbench.spectral": _spectral_lookup,
    "solve_nonlinear": _solved,
}
_BEFORE = {"nelder_mead": _wrap_objective}
