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

Norm router.  Every norm takes one function (and returns a float) or a
corpus, a list or tuple of functions (and returns one value per member, an
(m,) array): the members' values are one matrix and each norm one weighted
reduction over it, with the spectral fields of a corpus stacked as one
batch.

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
from dataclasses import dataclass, field, replace

import numpy as np

from .functions import as_members, corpus_values
from .measure import (WeightedQuadrature, radial_quadrature, rank1_quadrature,
                      weighted_lp_norm)
from .spectral import DunklTransformRank1, RadialDunklTransform, homogeneous_norm

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
        """Dense transform, built on first spectral use: its forward kernels
        (~ O(M²)) at construction, in row blocks, and each inverse kernel on
        the first inverse apply, which the Plancherel norms never make."""
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

    def spectral(self, f):
        """The field of one function, or the fields of a corpus as one batch
        (n_ξ, m).  Uncached members go through one batched forward, each
        column cached as its member's field for as long as the member lives
        (a matmul: a wider batch may round differently, about 1e-15)."""
        fs, one = as_members(f)
        todo = [g for g in fs if g not in self._fields]
        if todo:
            todo = list(dict.fromkeys(todo))
            vals = corpus_values(todo, self.quad.nodes)
            batch = self.transform.forward(np.ascontiguousarray(vals.T))
            for j, g in enumerate(todo):
                self._fields[g] = replace(batch, values=batch.values[:, j].copy())
        if one:
            return self._fields[f]
        cols = np.array([self._fields[g].values for g in fs]).T
        return replace(self._fields[fs[0]], values=cols)

    # -- norms --------------------------------------------------------------

    def norm(self, f, p: float, a: float = 0.0):
        return weighted_lp_norm(f, p, a, self.quad)

    def grad_norm(self, f, p: float, a: float = 0.0):
        """‖|x|^a |∇_k f|‖_p via the exact derivative/Dunkl hook."""
        if self.mode == "radial":
            g = _each(f, lambda h: h.derivative())
        else:
            g = _each(f, lambda h: h.apply_dunkl(self.k))
        return weighted_lp_norm(g, p, a, self.quad)

    def lap_norm(self, f, j: int, p: float, a: float = 0.0):
        """‖|x|^a Δ_k^j f‖_p; Δ_k applied exactly j times."""
        c = self.lam if self.mode == "radial" else self.k
        g = f
        for _ in range(j):
            g = _each(g, lambda h: h.laplacian(c))
        return weighted_lp_norm(g, p, a, self.quad)

    def frac_norm(self, f, s: float, p: float = 2.0):
        """‖(-Δ_k)^{s/2} f‖_p."""
        if s == 0.0:
            return self.norm(f, p)
        if p != 2.0:                                 # synthesized on the physical grid
            return weighted_lp_norm(self.frac_values(f, s), p, 0.0, self.quad)
        fs, one = as_members(f)
        groups: dict = {}
        for i, g in enumerate(fs):
            groups.setdefault(s == 1.0 and g.heavy_tails, []).append(i)
        out = [0.0] * len(fs)
        for heavy, idx in groups.items():
            gs = [fs[i] for i in idx]
            vals = (self.grad_norm(gs, 2.0) if heavy                # L² gradient identity
                    else homogeneous_norm(self.spectral(gs), s))    # Plancherel
            for i, v in zip(idx, vals.tolist()):
                out[i] = v
        return out[0] if one else np.array(out)

    def frac_values(self, f, s: float) -> np.ndarray:
        """(-Δ_k)^{s/2} f synthesized on the physical grid: shape (n,) for one
        function, (m, n) for a corpus."""
        fld = self.spectral(f)
        return self.transform.inverse(fld.scaled(fld.xi ** s)).T


def _each(f, op):
    """op applied to one function, or to each member of a corpus."""
    return [op(g) for g in f] if isinstance(f, (list, tuple)) else op(f)


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
