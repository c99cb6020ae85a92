"""Sharp-constant evaluation and extremal search over parametric trial families.

The sharpness probes maximize a constant-free inequality ratio with a
derivative-free simplex search (reflect / expand / contract / shrink) over a
box of family parameters.  The acceptance bar is approach, not attainment:
true extremizers generally sit outside the families, and box-boundary hits
are reported as exactly that diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .functions import InversePower, RadialBump, RadialPG, TestFunction
from .inequalities import InequalitySpec, evaluate_sides
from .workbench import Workbench

__all__ = [
    "TrialFamily",
    "power_gaussian_family",
    "inverse_power_family",
    "bump_scale_family",
    "OptimizationResult",
    "nelder_mead",
    "rayleigh_maximize",
    "RecomputationError",
]


class RecomputationError(RuntimeError):
    """The search's best ratio differs from a fresh evaluation at its point."""


# ---------------------------------------------------------------------------
# trial families


@dataclass(frozen=True)
class TrialFamily:
    """Parametric extremizer candidates over a box (every point is in-class)."""

    tag: str
    box: Dict[str, Tuple[float, float]]
    maker: Callable[[Dict[str, float]], TestFunction]

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(self.box)

    def make(self, values: Sequence[float]) -> TestFunction:
        return self.maker(dict(zip(self.names, values)))

    def inside(self, values: Sequence[float]) -> bool:
        return all(lo <= v <= hi for v, (lo, hi) in zip(values, self.box.values()))

    @property
    def heavy_tails(self) -> bool:
        """Whether the box midpoint's member has heavy tails (it needs the wide rule)."""
        return self.make([0.5 * (a + b) for a, b in self.box.values()]).heavy_tails


def power_gaussian_family(beta_box: Tuple[float, float] = (-0.47, 1.5),
                          scale_box: Tuple[float, float] = (0.4, 2.5)) -> TrialFamily:
    """f(r) = r^β e^{-s r²/2}: the Hardy/Rellich near-extremizer family.

    For β ∈ (-1/2, 0] the member is not pointwise vanishing at 0 but lies in
    the energy-space closure of such functions (cut off at ε; the L² error of
    the weighted terms scales like ε^{β+1/2}), so it is marked class-ok for
    the origin-singular theorems.
    """

    def maker(p: Dict[str, float]) -> TestFunction:
        beta, s = p["beta"], p["scale"]
        return TestFunction(f"PowerGaussian(beta={beta:.6g},s={s:.6g})", "PowerGaussian",
                            "radial", dict(p), (RadialPG(beta, (1.0,), s),),
                            in_origin_closure=beta > -0.5)
    return TrialFamily("PowerGaussian", {"beta": beta_box, "scale": scale_box}, maker)


def inverse_power_family(beta_box: Tuple[float, float] = (0.26, 4.0)) -> TrialFamily:
    """f(r) = (1+r²)^{-β}: heavy-tailed Hardy near-extremizers.

    The lower box edge keeps every norm normalizable (β > 1/4 at Λ = 3);
    pushing β to the edge approaches the sharp fractional-Hardy ratio.
    """

    def maker(p: Dict[str, float]) -> TestFunction:
        beta = p["beta"]
        return TestFunction(f"InversePower(beta={beta:.6g})", "InversePower", "radial",
                            dict(p), (InversePower(beta),))
    return TrialFamily("InversePower", {"beta": beta_box}, maker)


def bump_scale_family(scale_box: Tuple[float, float] = (1.0, 6.0)) -> TrialFamily:
    """Dilates of a fixed smooth bump."""

    def maker(p: Dict[str, float]) -> TestFunction:
        R = p["scale"]
        return TestFunction(f"BumpScale(R={R:.6g})", "BumpScale", "radial", dict(p),
                            (RadialBump(R),))
    return TrialFamily("BumpScale", {"scale": scale_box}, maker)


# ---------------------------------------------------------------------------
# simplex search


def _argsort(v: list) -> list:
    """The indices that sort `v`: stable on ties, NaN last."""
    return sorted(range(len(v)), key=lambda i: (v[i] != v[i], v[i]))


def nelder_mead(fun: Callable[[np.ndarray], float], x0: np.ndarray, step: np.ndarray,
                tol: float = 1e-4, max_iter: int = 200):
    """Minimize `fun` with the reflect(1)/expand(2)/contract(1/2)/shrink(1/2)
    simplex; converged when the simplex diameter drops below `tol`.

    Returns (x_best, f_best, n_eval, converged).  No gradients anywhere.
    The bookkeeping runs on Python floats, each step the IEEE operation
    numpy runs on vertex arrays (its mean sums the vertices in order), and
    vertices order by a stable sort with NaN last, so tied vertices keep
    their order on every host; `fun` gets each vertex as an array.
    """
    n = len(x0)
    pts = [[float(v) for v in x0]]
    for i in range(n):
        p = pts[0].copy()
        p[i] += float(step[i])
        pts.append(p)
    vals = [fun(np.array(p)) for p in pts]
    n_eval = n + 1
    converged = False

    for _ in range(max_iter):
        order = _argsort(vals)
        pts = [pts[i] for i in order]
        vals = [vals[i] for i in order]
        best = pts[0]
        diam = max(abs(a - b) for p in pts[1:] for a, b in zip(p, best))
        if diam < tol:
            converged = True
            break
        centroid = best
        for p in pts[1:-1]:
            centroid = [c + a for c, a in zip(centroid, p)]
        centroid = [c / n for c in centroid]
        worst = pts[-1]
        xr = [c + (c - w) for c, w in zip(centroid, worst)]
        fr = fun(np.array(xr)); n_eval += 1
        if fr < vals[0]:
            xe = [c + 2.0 * (c - w) for c, w in zip(centroid, worst)]
            fe = fun(np.array(xe)); n_eval += 1
            if fe < fr:
                pts[-1], vals[-1] = xe, fe
            else:
                pts[-1], vals[-1] = xr, fr
        elif fr < vals[-2]:
            pts[-1], vals[-1] = xr, fr
        else:
            xc = [c + 0.5 * (w - c) for c, w in zip(centroid, worst)]
            fc = fun(np.array(xc)); n_eval += 1
            if fc < vals[-1]:
                pts[-1], vals[-1] = xc, fc
            else:
                for i in range(1, n + 1):
                    pts[i] = [b + 0.5 * (a - b) for a, b in zip(pts[i], best)]
                    vals[i] = fun(np.array(pts[i]))
                n_eval += n
    i = _argsort(vals)[0]
    return np.array(pts[i]), vals[i], n_eval, converged


@dataclass
class OptimizationResult:
    best_params: Dict[str, float]
    best_ratio: float
    trace: List[float]           # best-so-far ratio per evaluation (nondecreasing)
    converged: bool
    boundary_hit: bool
    evaluations: int
    restarts: int
    ceiling: float | None = None

    @property
    def gap(self) -> float | None:
        if self.ceiling is None:
            return None
        return (self.ceiling - self.best_ratio) / self.ceiling

    def to_dict(self) -> dict:
        return {
            "best_params": dict(self.best_params),
            "best_ratio": self.best_ratio,
            "converged": self.converged,
            "boundary_hit": self.boundary_hit,
            "evaluations": self.evaluations,
            "restarts": self.restarts,
            "ceiling": self.ceiling,
            "gap": self.gap,
        }


def rayleigh_maximize(spec: InequalitySpec, family: TrialFamily, wb: Workbench,
                      max_iter: int = 120, tol: float = 1e-4, restarts: int = 3,
                      seed: int = 0, ceiling: float | None = None) -> OptimizationResult:
    """Maximize the constant-free evaluate_sides ratio over the family box.

    Multi-restart from seeded points, deterministic given (seed, config);
    infeasible (outside-box) proposals are rejected with +inf, never clipped.
    Box-boundary proximity of the winner is reported as a diagnostic.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be ≥ 1, got {restarts}")
    if family.heavy_tails and wb.quad.rmax < 1e12:
        raise ValueError(
            "heavy-tailed trial families need a wide geometric quadrature "
            "(rmax ≥ 1e12, e.g. radial_workbench(..., rmax=1e30, resolution=3000)); "
            f"got rmax={wb.quad.rmax:g}")
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in family.box.values()])
    hi = np.array([b[1] for b in family.box.values()])
    trace: List[float] = []
    state = {"best": -math.inf, "evals": 0}

    def objective(x: np.ndarray) -> float:
        state["evals"] += 1
        if not family.inside(x):
            trace.append(state["best"])
            return math.inf
        rec = evaluate_sides(spec, family.make(x), wb)
        if rec.ratio > state["best"]:
            state["best"] = rec.ratio
        trace.append(state["best"])
        return -rec.ratio

    best_x, best_f = None, math.inf
    degenerate = bool(np.all(hi == lo))
    n_restarts = 1 if degenerate else restarts
    converged_any = False
    for r in range(n_restarts):
        x0 = lo + (hi - lo) * (0.5 if r == 0 else rng.uniform(0.15, 0.85, size=lo.size))
        if degenerate:
            rec = evaluate_sides(spec, family.make(lo), wb)
            best_x, best_f = lo.copy(), -rec.ratio
            state["best"] = rec.ratio
            trace.append(rec.ratio)
            converged_any = True
            state["evals"] += 1
            break
        step = 0.2 * (hi - lo)
        x, fx, _, conv = nelder_mead(objective, x0, step, tol=tol, max_iter=max_iter)
        converged_any = converged_any or conv
        if fx < best_f:
            best_x, best_f = x, fx

    # recomputation check: the reported ratio is the ratio at the reported point
    rec = evaluate_sides(spec, family.make(best_x), wb)
    if not abs(-best_f - rec.ratio) <= 1e-9 * max(1.0, abs(rec.ratio)):
        raise RecomputationError(f"recomputation check failed: search reported ratio "
                                 f"{-best_f!r}, recomputed {rec.ratio!r} at {best_x.tolist()}")
    span = np.where(hi > lo, hi - lo, 1.0)
    boundary = bool(np.any((best_x - lo) / span < 1e-3) or np.any((hi - best_x) / span < 1e-3))
    return OptimizationResult(
        best_params=dict(zip(family.names, (float(v) for v in best_x))),
        best_ratio=float(rec.ratio), trace=trace, converged=converged_any,
        boundary_hit=boundary and not degenerate, evaluations=state["evals"],
        restarts=n_restarts, ceiling=ceiling)
