"""Quadrature against dμ_k = w_k dx, weighted L^p norms, Macdonald-Mehta.

Two quadrature kinds, both built from one half-axis rule:

* "rank1"  — signed nodes on [-R, R] for N=1 with the |√2 x|^{2k} weight
  folded in.  A Gauss-Jacobi panel at the origin integrates the |x|^{2k}
  factor exactly; geometric Gauss-Legendre panels cover the rest.
* "radial" — radii on (0, R] carrying d · r^{Λ-1} with Λ = N + 2γ and d the
  μ_k surface constant; the rule for radial integrands in any dimension.

`with_power(extra)` gives the rule whose weights absorb an additional
|x|^extra exactly (the origin panel's Jacobi exponent shifts), which is how
weighted norms ‖|x|^a f‖_p stay accurate down to the integrability edge.
A rule is built once per parameter tuple and kept in a bounded cache (256
rules), so repeated norms reuse it; every rule is read-only.  The σ-free
panel layout has its own cache, so a new origin exponent builds only its
core, the Gauss-Jacobi rule for (1 + t)^σ: scipy's Golub-Welsch steps for
`roots_jacobi(n, 0, σ)`, run directly (`_jacobi_core`), give its bits.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np
from scipy import special as sps
from scipy.linalg import lapack

from .functions import TestFunction, as_members, corpus_values
from .rootsys import RootSystem, weight as rs_weight

__all__ = [
    "WeightedQuadrature",
    "QuadratureError",
    "QuadratureInputError",
    "NonIntegrableWeightError",
    "build_quadrature",
    "radial_quadrature",
    "rank1_quadrature",
    "weighted_lp_norm",
    "macdonald_mehta",
    "exact_macdonald_mehta",
    "surface_constant",
]


class QuadratureError(ValueError):
    pass


class QuadratureInputError(QuadratureError):
    """A rule parameter outside its domain (resolution < 16, rmax ≤ 0 or not
    finite, k < 0, N + 2γ ≤ 0, a non-finite origin exponent): bad input, not
    a numerical failure."""


class NonIntegrableWeightError(QuadratureError):
    """The requested power weight is not integrable at the origin for this f."""


# Gauss-Legendre rule of every outer panel
_TL, _WL = sps.roots_legendre(16)


def _half_axis_rule(sigma: float, rmax: float, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights on (0, rmax] for integrals ∫ g(r) r^sigma dr.

    Layout: a Gauss-Jacobi core on (0, r0] (exact in the r^sigma factor),
    geometric Gauss-Legendre panels up to r_mid (so that |f|^p kinks of
    origin-concentrated integrands land in panels narrow at their own
    scale), then uniform width-capped panels to rmax (bounding the phase
    per panel for oscillatory transform kernels).  For rmax > 100 the rule
    is purely geometric: that regime serves slow power tails, never
    oscillatory kernels.  Only the core and the outer weights' x^sigma
    depend on sigma; the rest is `_half_axis_layout`.
    """
    if resolution < 16:
        raise QuadratureInputError("resolution must be ≥ 16")
    if not 0.0 < rmax < math.inf:
        raise QuadratureInputError(f"rmax must be positive and finite, got {rmax!r}")
    if sigma <= -1.0:
        raise NonIntegrableWeightError(f"r^{sigma:g} is not integrable at 0")
    if not math.isfinite(sigma):
        raise QuadratureInputError(f"the origin exponent must be finite, got {sigma!r}")
    r0, n_jac, x, base = _half_axis_layout(rmax, resolution)
    tj, wj = _jacobi_core(n_jac, sigma)
    return (np.concatenate([r0 * (1.0 + tj) / 2.0, x.ravel()]),
            np.concatenate([wj * (r0 / 2.0) ** (sigma + 1.0), (base * x ** sigma).ravel()]))


def _jacobi_core(n: int, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """`sps.roots_jacobi(n, 0.0, sigma)`, bit for bit, for finite sigma > -1.

    scipy's steps without its dispatch: the Jacobi matrix of (α, β) = (0, σ)
    with α = 0 folded in (adding a zero is exact), its eigenvalues by
    `dsterf` (what `eigvals_banded` runs on one band), one Newton step, and
    log-normalized weights scaled to sum to μ₀ = 2^{σ+1} B(1, σ+1).  σ = 0
    (Legendre) and σ > 1000 (log-space μ₀) take other branches there.
    """
    if sigma == 0.0 or sigma > 1000.0:
        return sps.roots_jacobi(n, 0.0, sigma)
    b = sigma
    k = np.arange(n, dtype=float)
    s = 2.0 * k + b
    diag = b * b / (s * (s + 2.0))
    diag[0] = b / (2.0 + b)
    k1, s1 = k[1:], s[1:]
    off = 2.0 / s1 * np.sqrt(k1 * (k1 + b) / (s1 + 1.0))
    off[1:] *= np.sqrt(k1[1:] * (k1[1:] + b) / (s1[1:] - 1.0))
    x, info = lapack.dsterf(diag, off, overwrite_d=1, overwrite_e=1)
    if info:
        raise QuadratureError(f"Gauss-Jacobi eigenvalues did not converge (σ = {sigma!r})")
    dy = 0.5 * (n + b + 1) * sps.eval_jacobi(n - 1, 1.0, b + 1, x)
    x -= sps.eval_jacobi(n, 0.0, b, x) / dy
    fm = sps.eval_jacobi(n - 1, 0.0, b, x)
    log_fm, log_dy = np.log(np.abs(fm)), np.log(np.abs(dy))
    fm /= np.exp((log_fm.max() + log_fm.min()) / 2.0)
    dy /= np.exp((log_dy.max() + log_dy.min()) / 2.0)
    w = 1.0 / (fm * dy)
    w *= 2.0 ** (b + 1.0) * sps.beta(1.0, b + 1.0) / w.sum()
    return x, w


@functools.lru_cache(maxsize=64)
def _half_axis_layout(rmax: float, resolution: int) -> tuple:
    """The sigma-free part of `_half_axis_rule`: core width r0, core size,
    outer panel nodes x (panels × 16) and their Legendre weights times the
    panel half-widths; the arrays are shared, so read-only."""
    r0 = min(0.02, rmax / 64.0)
    n_jac = max(12, min(28, resolution // 8))
    n_panels = max(4, (resolution - n_jac) // _TL.size)

    if rmax > 100.0:
        r_mid, n_geom, n_uni = rmax, n_panels, 0
    else:
        r_mid, n_geom = min(1.0, rmax / 8.0), max(4, n_panels // 3)
        n_uni = max(4, n_panels - n_geom)
    # geometric edges as running products a *= q: their rounding sets the rule
    q = (r_mid / r0) ** (1.0 / n_geom)
    edges = [r0]
    for _ in range(n_geom):
        edges.append(edges[-1] * q)
    uni = np.linspace(r_mid, rmax, n_uni + 1)
    lo, hi = np.concatenate([edges[:-1], uni[:-1]]), np.concatenate([edges[1:], uni[1:]])
    mid, half = 0.5 * (lo + hi)[:, None], 0.5 * (hi - lo)[:, None]
    x, base = mid + half * _TL, _WL * half
    x.flags.writeable = base.flags.writeable = False
    return r0, n_jac, x, base


@dataclass(frozen=True)
class WeightedQuadrature:
    """Nodes and weights approximating ∫ · dμ_k (weights include w_k)."""

    kind: str                 # "rank1" | "radial"
    nodes: np.ndarray
    weights: np.ndarray
    rmax: float
    recipe: Mapping = field(default_factory=dict, repr=False)

    def __post_init__(self):
        # rules are shared (the axis-rule cache), so nobody may write into one
        self.nodes.flags.writeable = self.weights.flags.writeable = False
        object.__setattr__(self, "recipe", MappingProxyType(dict(self.recipe)))

    @property
    def npoints(self) -> int:
        return self.nodes.shape[0]

    def integrate(self, f) -> float | complex:
        vals = f(self.nodes) if callable(f) else np.asarray(f)
        return np.sum(self.weights * vals)

    def with_power(self, extra: float) -> "WeightedQuadrature":
        """Rule whose weights carry an additional |x|^extra factor, exactly."""
        if extra == 0.0:
            return self
        r = self.recipe
        sigma = r["sigma"] + extra
        if sigma <= -1.0:
            raise NonIntegrableWeightError(
                f"power weight |x|^{extra:g} makes the origin exponent {sigma:g} ≤ -1")
        return _axis_quadrature(self.kind, sigma, r["const"], self.rmax, r["resolution"])

    def refined(self, factor: int = 2) -> "WeightedQuadrature":
        """Same rule at `factor`× the resolution (convergence studies)."""
        r = self.recipe
        return _axis_quadrature(self.kind, r["sigma"], r["const"], self.rmax,
                                int(r["resolution"] * factor))


# typed: a hit is the very rule a fresh build from these argument types gives
@functools.lru_cache(maxsize=256, typed=True)
def _axis_quadrature(kind: str, sigma: float, const: float, rmax: float,
                     resolution: int) -> WeightedQuadrature:
    """The half-axis rule for r^sigma times `const`, mirrored onto the full
    line for kind "rank1"; its recipe holds the build parameters.  Built
    once per argument tuple: the bounded cache hands every caller the same
    read-only rule."""
    n, w = _half_axis_rule(sigma, rmax, resolution)
    w = w * const
    if kind == "rank1":
        n = np.concatenate([-n[::-1], n])
        w = np.concatenate([w[::-1], w])
    return WeightedQuadrature(kind, n, w, rmax,
                              {"sigma": sigma, "const": const, "resolution": resolution})


def rank1_quadrature(k: float, rmax: float, resolution: int) -> WeightedQuadrature:
    """Full-line rule for N=1 with weight w_k(x) = 2^k |x|^{2k} folded in."""
    if k < 0:
        raise QuadratureInputError("multiplicity k must be ≥ 0")
    return _axis_quadrature("rank1", 2.0 * k, 2.0 ** k, rmax, resolution)


def radial_quadrature(N: int, gamma: float, rmax: float, resolution: int,
                      surface_const: float | None = None) -> WeightedQuadrature:
    """Radial rule: ∫ f(|x|) dμ_k = d ∫_0^∞ f(r) r^{Λ-1} dr, Λ = N + 2γ."""
    lam = N + 2.0 * gamma
    if lam <= 0:
        raise QuadratureInputError("N + 2γ must be positive")
    d = surface_constant(N, gamma) if surface_const is None else float(surface_const)
    return _axis_quadrature("radial", lam - 1.0, d, rmax, resolution)


def build_quadrature(rs: RootSystem, scheme: str = "TensorGaussLike", *,
                     rmax: float, resolution: int,
                     surface_const: float | None = None) -> WeightedQuadrature:
    """Quadrature for a concrete root system.

    TensorGaussLike: exact-weight composite rule for N=1.  PolarProduct:
    radial rule against r^{Λ-1} dr times the μ_k surface constant (radial
    integrands); the constant is closed-form where surface_constant_for has
    one and numeric for N = 2 only.
    """
    if scheme == "PolarProduct":
        d = surface_const if surface_const is not None else surface_constant_for(rs)
        return radial_quadrature(rs.dim, rs.gamma, rmax, resolution, surface_const=d)
    if scheme != "TensorGaussLike":
        raise QuadratureError(f"unknown scheme {scheme!r}")
    if rs.dim == 1:
        k = float(rs.multiplicities[0]) if rs.num_positive else 0.0
        return rank1_quadrature(k, rmax, resolution)
    raise QuadratureError("TensorGaussLike is implemented for N = 1; "
                          "use PolarProduct for radial integrands in higher N")


# ---------------------------------------------------------------------------
# surface constants and Macdonald-Mehta


def surface_constant(N: int, gamma: float) -> float:
    """μ_k surface constant convention for the abstract radial mode.

    d = 2 π^{N/2} / Γ(N/2 + γ): the Euclidean sphere area at γ = 0.  For a
    concrete root system use surface_constant_for; all norm ratios computed
    by this package are invariant under this constant.
    """
    return 2.0 * np.pi ** (N / 2.0) / sps.gamma(N / 2.0 + gamma)


def surface_constant_for(rs: RootSystem) -> float:
    """Exact ∫_{S^{N-1}} w_k dω for catalog systems; numeric for N = 2 only."""
    lam = rs.dim + 2.0 * rs.gamma
    mm = exact_macdonald_mehta(rs)
    if mm is not None:
        return mm / (2.0 ** (lam / 2.0 - 1.0) * sps.gamma(lam / 2.0))
    if rs.dim == 2:
        return _sphere_constant_2d(rs)
    raise QuadratureError("surface constant: numeric sphere rule implemented for N = 2 only")


def _sphere_constant_2d(rs: RootSystem, n: int = 48) -> float:
    """∫_0^{2π} w_k(cosθ, sinθ) dθ with Gauss-Jacobi panels split at the
    hyperplane zeros, so the |⟨α,ω⟩|^{2k} endpoint factors integrate exactly."""
    phis = np.arctan2(rs.positive_roots[:, 1], rs.positive_roots[:, 0])
    zeros = []
    for phi, k in zip(phis, rs.multiplicities):
        if k > 0:
            zeros.append(((phi + np.pi / 2) % (2 * np.pi), float(k)))
            zeros.append(((phi + 3 * np.pi / 2) % (2 * np.pi), float(k)))
    zeros.sort()
    angles = np.array([z[0] for z in zeros])
    ks = np.array([z[1] for z in zeros])
    total = 0.0
    m = len(zeros)
    for i in range(m):
        a, ka = angles[i], ks[i]
        b = angles[(i + 1) % m] if i + 1 < m else angles[0] + 2 * np.pi
        kb = ks[(i + 1) % m]
        t, w = sps.roots_jacobi(n, 2.0 * kb, 2.0 * ka)   # (b-θ)^{2kb} (θ-a)^{2ka}
        theta = a + (b - a) * (t + 1.0) / 2.0
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        sing = (theta - a) ** (2.0 * ka) * (b - theta) ** (2.0 * kb)
        g = rs_weight(rs, pts) / sing
        total += ((b - a) / 2.0) ** (2.0 * ka + 2.0 * kb + 1.0) * np.sum(w * g)
    return float(total)


def exact_macdonald_mehta(rs: RootSystem) -> float | None:
    """Closed-form M_k = ∫ e^{-|x|²/2} dμ_k where available, else None.

    Rank-1: 2^{2k+1/2} Γ(k+1/2).  ProductZ2N: product of rank-1 factors.
    k ≡ 0: (2π)^{N/2}.
    """
    if np.all(rs.multiplicities == 0.0):
        return float((2.0 * np.pi) ** (rs.dim / 2.0))
    if rs.family == "Rank1Z2":
        k = float(rs.multiplicities[0])
        return float(2.0 ** (2.0 * k + 0.5) * sps.gamma(k + 0.5))
    if rs.family == "ProductZ2N":
        out = 1.0
        for k in rs.multiplicities:
            out *= 2.0 ** (2.0 * k + 0.5) * sps.gamma(k + 0.5)
        return float(out)
    return None


def macdonald_mehta(quad: WeightedQuadrature) -> float:
    """∫ e^{-|x|²/2} dμ_k by quadrature (rmax should cover the Gaussian mass)."""
    if quad.rmax < 8.0:
        import warnings
        warnings.warn("Macdonald-Mehta truncation: rmax < 8 may clip Gaussian mass",
                      RuntimeWarning)
    return float(quad.integrate(lambda r: np.exp(-0.5 * r * r)))


# ---------------------------------------------------------------------------
# weighted L^p norms


def weighted_lp_norm(f, p: float, a: float, quad: WeightedQuadrature):
    """(∫ |x|^{ap} |f|^p dμ_k)^{1/p}; 0 < p < 1 computed as a quasi-norm.

    `f` is one function (the norm is a float) or a list or tuple of them
    (one norm per member, an (m,) array).  A function is a TestFunction,
    whose factorable origin power is folded into the rule exactly and whose
    inner support hole, if any, licenses a pointwise power, or a bare
    callable (assumed regular at the origin).  With a = 0, `f` may also be
    samples on quad.nodes: one row (n,) or a matrix (m, n), one member per
    row.  Members that share an origin power share one rule and one
    weighted reduction over their stacked values.  Raises
    NonIntegrableWeightError when |x|^{ap}|f|^p is not integrable at 0.
    """
    if p <= 0:
        raise QuadratureError("p must be positive")
    fs, one = as_members(f)
    if a != 0.0 and any(isinstance(g, np.ndarray) for g in fs):
        raise QuadratureError("samples on quad.nodes take no power weight (a must be 0)")
    groups: dict = {}
    for i, g in enumerate(fs):
        groups.setdefault(float(getattr(g, "origin_factor_power", 0.0)), []).append(i)
    roots = [0.0] * len(fs)
    for power, idx in groups.items():
        sums = _power_sums([fs[i] for i in idx], power, p, a, quad).tolist()
        for i, v in zip(idx, sums):
            roots[i] = v ** (1.0 / p)               # Python's pow, as for a single float
    return roots[0] if one else np.array(roots)


def _power_sums(fs: list, power: float, p: float, a: float,
                quad: WeightedQuadrature) -> np.ndarray:
    """∫ |x|^{ap} |f|^p dμ_k for functions of one origin power, one per row."""
    extra = p * (a + power)
    if quad.recipe["sigma"] + extra > -1.0:
        q = quad.with_power(extra)
        return (q.weights * _abs_rows(fs, q.nodes, power) ** p).sum(axis=-1)
    # origin exponent invalid but the function vanishes identically near 0:
    # apply the power pointwise and mask the hole.
    if any(getattr(g, "support_inner", 0.0) <= 0.0 for g in fs):
        raise NonIntegrableWeightError(
            f"|x|^({a:g}·{p:g}) |f|^{p:g} is not integrable at the origin "
            f"(origin order {power:g}, dimension power {1.0 + quad.recipe['sigma']:g})")
    vals = _abs_rows(fs, quad.nodes, 0.0)
    contrib = np.zeros_like(vals)
    live = vals != 0.0
    contrib[live] = (np.abs(quad.nodes) ** (a * p) * vals ** p)[live]
    return (quad.weights * contrib).sum(axis=-1)


def _abs_rows(fs: list, x: np.ndarray, power: float) -> np.ndarray:
    """|f(x)| / |x|^power for each function, shape (m, n)."""
    if all(isinstance(g, TestFunction) for g in fs):
        return np.abs(corpus_values(fs, x, power))
    # bare callables and samples: regular at the origin, so power is 0
    return np.abs(np.array([np.broadcast_to(g(x) if callable(g) else g, x.shape[:1])
                            for g in fs]))
