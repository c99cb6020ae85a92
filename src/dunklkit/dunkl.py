"""Dunkl operators T_i, the Dunkl gradient and the Dunkl Laplacian.

    T_i f(x) = ∂_i f(x) + Σ_{α∈R₊} k_α α_i (f(x) - f(σ_α x)) / ⟨α, x⟩

Two application paths:

* exact, on `Polynomial` — the difference quotient is exact polynomial
  division (degree drops by exactly one on homogeneous input);
* numerical, on callables — central differences for ∂_i plus exact
  evaluation of the reflection differences; the removable singularity near a
  hyperplane (|⟨α,x⟩| < h) is replaced by a symmetrized directional
  derivative at the midpoint.

At k ≡ 0 everything collapses to classical calculus.
"""

from __future__ import annotations

import warnings
from typing import List

import numpy as np

from .polynomial import Polynomial
from .rootsys import RootSystem, reflection_matrix

__all__ = [
    "dunkl_apply_poly",
    "dunkl_gradient_poly",
    "dunkl_laplacian_poly",
    "dunkl_derivative_num",
    "dunkl_gradient_num",
    "dunkl_laplacian_num",
    "integration_by_parts_residual",
]


# ---------------------------------------------------------------------------
# exact path on polynomials


def dunkl_apply_poly(rs: RootSystem, i: int, f: Polynomial) -> Polynomial:
    """T_i f for a polynomial f, exactly (i is 0-based)."""
    if not 0 <= i < rs.dim:
        raise IndexError(f"coordinate index {i} out of range for N={rs.dim}")
    out = f.partial(i)
    for alpha, k in zip(rs.positive_roots, rs.multiplicities):
        if k == 0.0:
            continue
        diff = f - f.compose_linear(reflection_matrix(alpha))
        out = out + diff.divide_linear(alpha).scale(k * alpha[i])
    return out


def dunkl_gradient_poly(rs: RootSystem, f: Polynomial) -> List[Polynomial]:
    return [dunkl_apply_poly(rs, i, f) for i in range(rs.dim)]


def dunkl_laplacian_poly(rs: RootSystem, f: Polynomial) -> Polynomial:
    """Δ_k f = Σ_i T_i² f, exactly."""
    out = Polynomial.zero(rs.dim)
    for i in range(rs.dim):
        out = out + dunkl_apply_poly(rs, i, dunkl_apply_poly(rs, i, f))
    return out


# ---------------------------------------------------------------------------
# numerical path on callables


def _as_points(x: np.ndarray, dim: int) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 and dim == 1:
        return x.reshape(1, 1), True
    if x.ndim == 1 and x.shape[0] == dim:
        return x.reshape(1, dim), True
    return x.reshape(-1, dim), False


def _default_step(x: np.ndarray) -> np.ndarray:
    # balances truncation against double-precision rounding
    return 1e-5 * (1.0 + np.linalg.norm(x, axis=-1))


def dunkl_derivative_num(rs: RootSystem, f, i: int, x: np.ndarray,
                         h: float | np.ndarray | None = None) -> np.ndarray:
    """T_i f(x) numerically; f is a callable on batches (M, N) → (M,)."""
    pts, single = _as_points(x, rs.dim)
    hv = _default_step(pts) if h is None else np.broadcast_to(np.asarray(h, float), (pts.shape[0],)).copy()

    step = np.zeros_like(pts)
    step[:, i] = hv
    out = (_eval(f, pts + step, rs.dim) - _eval(f, pts - step, rs.dim)) / (2.0 * hv)

    fx = _eval(f, pts, rs.dim)
    for alpha, k in zip(rs.positive_roots, rs.multiplicities):
        if k == 0.0:
            continue
        s = pts @ alpha
        xr = pts - np.outer(2.0 * s / (alpha @ alpha), alpha)
        with np.errstate(divide="ignore", invalid="ignore"):
            quot = (fx - _eval(f, xr, rs.dim)) / s
        near = np.abs(s) < hv
        if np.any(near):
            mid = 0.5 * (pts[near] + xr[near])
            tau = 0.5 * hv[near]
            da = (_eval(f, mid + tau[:, None] * alpha, rs.dim)
                  - _eval(f, mid - tau[:, None] * alpha, rs.dim)) / (2.0 * tau)
            quot[near] = da
        out = out + k * alpha[i] * quot
    if np.any(~np.isfinite(out)):
        raise FloatingPointError("NaN/inf from evaluator in Dunkl derivative")
    return float(out[0]) if single else out.reshape(np.asarray(x).shape[:-1] if np.asarray(x).ndim > 1 else out.shape)


def _eval(func, pts: np.ndarray, dim: int) -> np.ndarray:
    vals = func(pts[:, 0]) if dim == 1 else func(pts)
    return np.asarray(vals, dtype=float).reshape(pts.shape[0])


def dunkl_gradient_num(rs: RootSystem, f, x: np.ndarray,
                       h: float | None = None) -> np.ndarray:
    """∇_k f(x) = (T_1 f, ..., T_N f)(x), numerically (order-2 in h)."""
    pts, single = _as_points(x, rs.dim)
    cols = [dunkl_derivative_num(rs, f, i, pts, h) for i in range(rs.dim)]
    g = np.column_stack([np.atleast_1d(c) for c in cols])
    return g[0] if single else g


def dunkl_laplacian_num(rs: RootSystem, f, x: np.ndarray, h: float = 2e-3) -> np.ndarray:
    """Δ_k f(x) by nesting the numerical T_i twice (step h each level).

    Truncation error O(h²): about 1e-5 of max|Δ_k f| at the default step,
    below 1e-6 at h = 5e-4; use the exact hooks of the structured test
    functions when tighter accuracy is needed.
    """
    pts, single = _as_points(x, rs.dim)
    total = np.zeros(pts.shape[0])
    for i in range(rs.dim):
        def ti(y, _i=i):
            yy = y.reshape(-1, rs.dim) if rs.dim > 1 else y.reshape(-1, 1)
            return np.atleast_1d(dunkl_derivative_num(rs, f, _i, yy, h))
        total = total + np.atleast_1d(dunkl_derivative_num(rs, ti, i, pts, h))
    return float(total[0]) if single else total


# ---------------------------------------------------------------------------
# integration by parts


def integration_by_parts_residual(rs: RootSystem, f, g, quad, i: int) -> float:
    """|∫ T_i(f) g dμ_k + ∫ f T_i(g) dμ_k| against a rank-1 quadrature `quad`.

    For smooth rapidly decaying pairs this is a quadrature-level zero.  A
    warning is emitted when the integrand at the outermost nodes exceeds
    1e-8 times the integral scale (truncation suspect).
    """
    if quad.kind != "rank1":
        raise ValueError("integration by parts needs a rank-1 (full-line) quadrature")
    nodes = quad.nodes.reshape(-1, 1)
    tif = np.atleast_1d(dunkl_derivative_num(rs, f, i, nodes))
    tig = np.atleast_1d(dunkl_derivative_num(rs, g, i, nodes))
    fv = _eval(f, nodes, rs.dim)
    gv = _eval(g, nodes, rs.dim)
    term = tif * gv + fv * tig
    total = float(np.sum(quad.weights * term))
    scale = float(np.sum(quad.weights * (np.abs(tif * gv) + np.abs(fv * tig)))) + 1e-300
    edge = np.abs(quad.nodes) >= 0.98 * quad.rmax
    if np.any(edge):
        boundary = float(np.max(np.abs(term[edge]) * quad.weights[edge]))
        if boundary > 1e-8 * scale:
            warnings.warn("integration-by-parts integrand not negligible at the "
                          "truncation boundary; increase rmax", RuntimeWarning)
    return abs(total)
