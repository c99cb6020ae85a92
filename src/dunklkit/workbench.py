"""Workbench: quadratures + transform + norm evaluators for one (N, γ) setting.

`radial_workbench`/`rank1_workbench` are the one place where a setting and a
grid become quadrature rules and a transform (the wave solver's included).

Two modes:

* radial  — abstract dimension Λ = N + 2γ; radial quadratures and the
  radial transform.  The Dunkl gradient of a radial function is |f'(r)| and
  the Dunkl Laplacian is the Bessel operator in dimension Λ, so the exact
  carrier hooks apply.
* rank1   — the full line with multiplicity k (N = 1, γ = k); exact Dunkl
  operator hooks via PolyGauss1D.

Norm router:

* ‖|x|^a f‖_p            → weighted quadrature with exact power folding
* ‖|x|^a ∇_k f‖_p        → exact derivative / Dunkl hooks
* ‖|x|^a Δ_k^j f‖_p      → exact Laplacian hooks
* ‖(-Δ_k)^{s/2} f‖₂      → transform domain (Plancherel)
* ‖(-Δ_k)^{s/2} f‖_p, p≠2 → synthesize back to the physical grid

For s = 1 on heavy-tailed carriers the identity ‖(-Δ_k)^{1/2}f‖₂ = ‖∇_k f‖₂
is used with the analytic derivative: near-extremal inverse powers have
r^{-1-ε} tails that no truncated oscillatory quadrature resolves, while the
1-D non-oscillatory integrals are handled by the wide geometric rule.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from .functions import TestFunction
from .measure import (WeightedQuadrature, radial_quadrature, rank1_quadrature,
                      weighted_lp_norm)
from .spectral import (DunklTransformRank1, RadialDunklTransform, SpectralField,
                       homogeneous_norm)

__all__ = ["Workbench", "radial_workbench", "rank1_workbench"]


@dataclass
class Workbench:
    mode: str                  # "radial" | "rank1"
    N: int
    gamma: float
    quad: WeightedQuadrature
    xi_quad: WeightedQuadrature
    _transform: object = None
    # spectral fields, each alive exactly as long as its function
    _fields: weakref.WeakKeyDictionary = field(default_factory=weakref.WeakKeyDictionary,
                                               repr=False)

    @property
    def transform(self):
        """Dense transform, built on first spectral use (kernel ~ O(M²))."""
        if self._transform is None:
            if self.mode == "radial":
                self._transform = RadialDunklTransform(self.lam, self.quad, self.xi_quad)
            else:
                self._transform = DunklTransformRank1(self.gamma, self.quad, self.xi_quad)
        return self._transform

    @property
    def lam(self) -> float:
        return self.N + 2.0 * self.gamma

    @property
    def k(self) -> float:
        if self.mode != "rank1":
            raise AttributeError("k is a rank-1 parameter")
        return self.gamma

    # -- spectral cache ---------------------------------------------------

    def spectral(self, f: TestFunction) -> SpectralField:
        fld = self._fields.get(f)
        return fld if fld is not None else self.spectral_many([f])[0]

    def has_spectral(self, f: TestFunction) -> bool:
        return f in self._fields

    def spectral_many(self, fs) -> list:
        """Fields of several functions: the uncached ones go through one
        batched forward, each column cached as its function's field.  A
        one-column batch is the 1-D apply bit for bit; a wider one is a
        matmul, whose sums may round differently (about 1e-15 relative)."""
        todo = [f for f in fs if f not in self._fields]
        if todo:
            batch = self.transform.forward(np.stack(
                [np.asarray(f.value(self.quad.nodes), dtype=float) for f in todo], axis=1))
            for j, f in enumerate(todo):
                self._fields[f] = SpectralField(batch.quad, batch.values[:, j].copy())
        return [self._fields[f] for f in fs]

    # -- norms --------------------------------------------------------------

    def norm(self, f, p: float, a: float = 0.0) -> float:
        return weighted_lp_norm(f, p, a, self.quad)

    def grad_norm(self, f: TestFunction, p: float, a: float = 0.0) -> float:
        """‖|x|^a |∇_k f|‖_p via the exact derivative/Dunkl hook."""
        if self.mode == "radial":
            g = f.derivative()
        else:
            g = f.apply_dunkl(self.k)
        return weighted_lp_norm(g, p, a, self.quad)

    def lap_norm(self, f: TestFunction, j: int, p: float, a: float = 0.0) -> float:
        """‖|x|^a Δ_k^j f‖_p; Δ_k applied exactly j times."""
        g = f
        for _ in range(j):
            g = g.laplacian(self.lam if self.mode == "radial" else self.k)
        return weighted_lp_norm(g, p, a, self.quad)

    def frac_norm(self, f: TestFunction, s: float, p: float = 2.0, a: float = 0.0) -> float:
        """‖|x|^a (-Δ_k)^{s/2} f‖_p."""
        if s == 0.0:
            return self.norm(f, p, a)
        if p == 2.0 and a == 0.0:
            if f.heavy_tails and s == 1.0:
                return self.grad_norm(f, 2.0)       # L² gradient identity
            return homogeneous_norm(self.spectral(f), s)
        if a != 0.0:
            raise NotImplementedError("power weights on fractional norms are not needed "
                                      "by any encoded theorem")
        vals = self.frac_values(f, s)
        return weighted_lp_norm(lambda x: vals, p, 0.0, self.quad)

    def frac_values(self, f: TestFunction, s: float) -> np.ndarray:
        """(-Δ_k)^{s/2} f synthesized on the physical grid (real part)."""
        fld = self.spectral(f)
        g = fld.scaled(fld.abs_xi ** s)
        return np.real(self.transform.inverse(g))


def radial_workbench(N: int, gamma: float, rmax: float = 16.0, resolution: int = 640,
                     xi_max: float = 30.0, xi_resolution: int = 640,
                     surface_const: float | None = None) -> Workbench:
    q = radial_quadrature(N, gamma, rmax, resolution, surface_const=surface_const)
    qx = radial_quadrature(N, gamma, xi_max, xi_resolution, surface_const=surface_const)
    return Workbench("radial", N, gamma, q, qx)


def rank1_workbench(k: float, rmax: float = 16.0, resolution: int = 640,
                    xi_max: float = 26.0, xi_resolution: int = 640) -> Workbench:
    q = rank1_quadrature(k, rmax, resolution)
    qx = rank1_quadrature(k, xi_max, xi_resolution)
    return Workbench("rank1", 1, k, q, qx)
