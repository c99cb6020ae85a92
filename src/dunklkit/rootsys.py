"""Root systems, reflection groups, multiplicity functions and the weight w_k.

A root system here is a finite set R of nonzero vectors with R ∩ ℝα = {±α}
and σ_α(R) = R for every α ∈ R, where σ_α is the orthogonal reflection in the
hyperplane α⊥.  All roots are normalized to |α|² = 2 at construction.  A
multiplicity function k: R → [0, ∞) invariant under the generated group G
defines the weight

    w_k(x) = ∏_{α ∈ R₊} |⟨α, x⟩|^{2 k_α},

a homogeneous function of degree 2γ with γ = Σ_{α ∈ R₊} k_α.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "RootSystem",
    "ReflectionGroup",
    "RootSystemError",
    "GroupClosureError",
    "FAMILIES",
    "build_root_system",
    "reflect",
    "reflection_matrix",
    "generate_group",
    "weight",
]

FAMILIES = ("Rank1Z2", "ProductZ2N", "SymmetricGroupA", "DihedralI2m")

_MATCH_TOL = 1e-12   # per-coordinate tolerance for root set equality
_GROUP_TOL = 1e-10   # per-entry dedup tolerance for group closure


class RootSystemError(ValueError):
    """Invalid root system input (normalization, closure, multiplicities)."""


class GroupClosureError(RuntimeError):
    """Group closure exceeded the configured element cap."""


def reflect(alpha: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Reflection of point(s) x in the hyperplane orthogonal to alpha.

    sigma_alpha(x) = x - 2 <alpha, x> alpha / <alpha, alpha>.  Total function;
    works on a single point (N,) or a batch (..., N).
    """
    alpha = np.asarray(alpha, dtype=float)
    x = np.asarray(x, dtype=float)
    s = 2.0 * (x @ alpha) / (alpha @ alpha)
    return x - np.multiply.outer(s, alpha) if x.ndim > 1 else x - s * alpha


def reflection_matrix(alpha: np.ndarray) -> np.ndarray:
    alpha = np.asarray(alpha, dtype=float)
    n = alpha.size
    return np.eye(n) - 2.0 * np.outer(alpha, alpha) / (alpha @ alpha)


@dataclass(frozen=True)
class ReflectionGroup:
    """Finite reflection group as a stack of orthogonal matrices."""

    elements: np.ndarray  # (order, N, N)

    @property
    def order(self) -> int:
        return self.elements.shape[0]


@dataclass(frozen=True)
class RootSystem:
    """Positive subsystem R₊ with per-root multiplicities (G-invariant).

    The full system is R = R₊ ∪ (−R₊).  Every stored root has |α|² = 2.
    Immutable after construction; all operations are pure.
    """

    dim: int
    positive_roots: np.ndarray   # (m, N)
    multiplicities: np.ndarray   # (m,)
    family: str | None = None

    def __post_init__(self):
        pr = np.atleast_2d(np.asarray(self.positive_roots, dtype=float))
        mult = np.asarray(self.multiplicities, dtype=float)
        if pr.shape[1] != self.dim:
            raise RootSystemError(f"roots have dimension {pr.shape[1]}, expected {self.dim}")
        if mult.shape != (pr.shape[0],):
            raise RootSystemError("one multiplicity per positive root required")
        if np.any(mult < 0):
            raise RootSystemError("negative multiplicity")
        # normalize |alpha|^2 = 2 (multiplicities untouched)
        norms2 = np.sum(pr * pr, axis=1)
        if np.any(norms2 <= 0):
            raise RootSystemError("zero root")
        pr = pr * np.sqrt(2.0 / norms2)[:, None]
        object.__setattr__(self, "positive_roots", pr)
        object.__setattr__(self, "multiplicities", mult)

    @property
    def roots(self) -> np.ndarray:
        return np.vstack([self.positive_roots, -self.positive_roots])

    @property
    def num_positive(self) -> int:
        return self.positive_roots.shape[0]

    @property
    def gamma(self) -> float:
        return float(np.sum(self.multiplicities))

    def validate(self) -> None:
        """Check negation/reflection closure and G-invariance of k."""
        pr = self.positive_roots
        # R ∩ ℝα = {±α}: no two positive roots parallel
        for i in range(self.num_positive):
            for j in range(i + 1, self.num_positive):
                c = abs(pr[i] @ pr[j]) / 2.0
                if c > 1.0 - 1e-9:
                    raise RootSystemError("parallel roots: R ∩ ℝα must be {±α}")
        allr = self.roots
        for a in pr:
            img = reflect(a, allr)
            for v in img:
                if not _in_rows(v, allr, _MATCH_TOL):
                    raise RootSystemError("root set not closed under its reflections")
        grp = generate_group(self)
        for g in grp.elements:
            for a, k in zip(pr, self.multiplicities):
                ga = g @ a
                kk = self._mult_of(ga)
                if kk is None or abs(kk - k) > 1e-12:
                    raise RootSystemError("multiplicity function is not G-invariant")

    def _mult_of(self, v: np.ndarray) -> float | None:
        for a, k in zip(self.positive_roots, self.multiplicities):
            if np.max(np.abs(v - a)) < 1e-9 or np.max(np.abs(v + a)) < 1e-9:
                return float(k)
        return None


def _in_rows(v: np.ndarray, rows: np.ndarray, tol: float) -> bool:
    return bool(np.any(np.all(np.abs(rows - v) <= tol, axis=1)))


def build_root_system(family: str, dim: int, multiplicities: Iterable[float],
                      m: int | None = None) -> RootSystem:
    """Catalog constructor for the four supported families.

    Rank1Z2:         N=1, R₊ = {√2}, one multiplicity.
    ProductZ2N:      R₊ = {√2 e_i}, one multiplicity per axis (each axis is
                     its own orbit under sign flips).
    SymmetricGroupA: R₊ = {e_i − e_j, i<j} in ℝ^N (already |α|²=2), a single
                     orbit, one multiplicity.
    DihedralI2m:     m positive roots in the plane at angles πj/m; one orbit
                     for odd m, two alternating orbits for even m.  Requires
                     the keyword `m`.
    """
    mult = [float(v) for v in multiplicities]
    if any(v < 0 for v in mult):
        raise RootSystemError("negative multiplicity")

    if family == "Rank1Z2":
        if dim != 1:
            raise RootSystemError("Rank1Z2 requires N=1")
        if len(mult) != 1:
            raise RootSystemError("Rank1Z2 takes one multiplicity")
        pr = np.array([[np.sqrt(2.0)]])
        per_root = np.array(mult)
    elif family == "ProductZ2N":
        if dim < 1:
            raise RootSystemError("ProductZ2N requires N≥1")
        if len(mult) != dim:
            raise RootSystemError(f"ProductZ2N in N={dim} takes {dim} multiplicities")
        pr = np.sqrt(2.0) * np.eye(dim)
        per_root = np.array(mult)
    elif family == "SymmetricGroupA":
        if dim < 2:
            raise RootSystemError("SymmetricGroupA requires N≥2")
        if len(mult) != 1:
            raise RootSystemError("SymmetricGroupA takes one multiplicity")
        rows = []
        for i in range(dim):
            for j in range(i + 1, dim):
                v = np.zeros(dim)
                v[i], v[j] = 1.0, -1.0
                rows.append(v)
        pr = np.array(rows)
        per_root = np.full(len(rows), mult[0])
    elif family == "DihedralI2m":
        if dim != 2:
            raise RootSystemError("DihedralI2m lives in N=2")
        if m is None or m < 1:
            raise RootSystemError("DihedralI2m requires m ≥ 1")
        n_orbits = 1 if m % 2 == 1 else 2
        if len(mult) != n_orbits:
            raise RootSystemError(f"DihedralI2m with m={m} takes {n_orbits} multiplicities")
        ang = np.pi * np.arange(m) / m
        pr = np.sqrt(2.0) * np.column_stack([np.cos(ang), np.sin(ang)])
        per_root = np.array([mult[j % n_orbits] for j in range(m)])
    else:
        raise RootSystemError(f"unsupported family {family!r}")

    rs = RootSystem(dim=dim, positive_roots=pr, multiplicities=per_root, family=family)
    rs.validate()
    return rs


def generate_group(rs: RootSystem, cap: int = 100_000) -> ReflectionGroup:
    """Closure of the generating reflections under composition.

    Deduplication uses per-entry tolerance 1e-10 (orthogonal matrices built
    from exact reflections accumulate only rounding noise).  Raises
    GroupClosureError beyond `cap` elements, which signals malformed input.
    """
    n = rs.dim
    gens = [reflection_matrix(a) for a in rs.positive_roots]

    def key(mat: np.ndarray) -> bytes:
        return np.round(mat / _GROUP_TOL).astype(np.int64).tobytes()

    elements = {key(np.eye(n)): np.eye(n)}
    frontier = [np.eye(n)]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = s @ g
                kh = key(h)
                if kh not in elements:
                    if len(elements) >= cap:
                        raise GroupClosureError(
                            f"group closure exceeded cap={cap}; malformed root system?")
                    elements[kh] = h
                    nxt.append(h)
        frontier = nxt
    return ReflectionGroup(elements=np.array(list(elements.values())))


def weight(rs: RootSystem, x: np.ndarray) -> np.ndarray:
    """w_k(x) = ∏_{α∈R₊} |⟨α,x⟩|^{2k_α}; zero only on hyperplanes with k_α>0.

    Vectorized over a batch (..., N); scalar in, scalar out for N=1 floats.
    """
    x = np.asarray(x, dtype=float)
    scalar1d = rs.dim == 1 and x.ndim == 0
    pts = np.atleast_1d(x).reshape(-1, rs.dim) if x.ndim <= 1 and rs.dim == 1 else x.reshape(-1, rs.dim)
    dots = pts @ rs.positive_roots.T          # (M, m)
    w = np.prod(np.abs(dots) ** (2.0 * rs.multiplicities), axis=1)
    if scalar1d:
        return float(w[0])
    out_shape = x.shape[:-1] if (x.ndim > 1 or rs.dim > 1) else x.shape
    return w.reshape(out_shape)
