"""Exact multivariate polynomial arithmetic on multi-index coefficient maps.

This is the exact carrier for Dunkl operators: the reflection-difference
quotient (f - f∘σ_α)/⟨α,x⟩ is an exact polynomial division because the
numerator vanishes on the hyperplane ⟨α,x⟩ = 0.  Coefficients are doubles;
with test degrees ≤ 12 the division is well conditioned and rounding stays
below 1e-9.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

__all__ = ["Polynomial", "PolynomialDivisionError"]

MultiIndex = Tuple[int, ...]


class PolynomialDivisionError(AssertionError):
    """Nonzero remainder in a division that must be exact (implementation bug)."""


class Polynomial:
    """Polynomial over ℝ^N as a map multi-index → coefficient (canonical form)."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Dict[MultiIndex, float] | None = None):
        self.dim = dim
        self.terms: Dict[MultiIndex, float] = {}
        if terms:
            for e, c in terms.items():
                if c != 0.0:
                    self.terms[tuple(int(v) for v in e)] = float(c)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "Polynomial":
        return cls(dim)

    @classmethod
    def constant(cls, dim: int, c: float) -> "Polynomial":
        return cls(dim, {(0,) * dim: c})

    @classmethod
    def monomial(cls, exponents: MultiIndex) -> "Polynomial":
        return cls(len(exponents), {tuple(exponents): 1.0})

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0.0) + c
        return Polynomial(self.dim, out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0.0) - c
        return Polynomial(self.dim, out)

    def scale(self, c: float) -> "Polynomial":
        return Polynomial(self.dim, {e: c * v for e, v in self.terms.items()})

    def __mul__(self, other):
        if np.isscalar(other):
            return self.scale(float(other))
        out: Dict[MultiIndex, float] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0.0) + c1 * c2
        return Polynomial(self.dim, out)

    __rmul__ = __mul__

    def power(self, n: int) -> "Polynomial":
        out = Polynomial.constant(self.dim, 1.0)
        for _ in range(n):
            out = out * self
        return out

    # -- calculus and structure ----------------------------------------------

    def partial(self, i: int) -> "Polynomial":
        out: Dict[MultiIndex, float] = {}
        for e, c in self.terms.items():
            if e[i] > 0:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = out.get(tuple(e2), 0.0) + c * e[i]
        return Polynomial(self.dim, out)

    @property
    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def compose_linear(self, mat: np.ndarray) -> "Polynomial":
        """Substitute x ↦ M x, expanding exactly."""
        mat = np.asarray(mat, dtype=float)
        lin = [Polynomial(self.dim, {tuple(int(j == l) for l in range(self.dim)): mat[i, j]
                                     for j in range(self.dim) if mat[i, j] != 0.0})
               for i in range(self.dim)]
        out = Polynomial.zero(self.dim)
        for e, c in self.terms.items():
            t = Polynomial.constant(self.dim, c)
            for i, p in enumerate(e):
                if p:
                    t = t * lin[i].power(p)
            out = out + t
        return out

    def divide_linear(self, alpha: np.ndarray) -> "Polynomial":
        """Exact division by the linear form ⟨α, x⟩.

        Synthetic division in the pivot variable (largest |α_j|).  The final
        remainder must vanish; a relative remainder above 1e-9 raises
        PolynomialDivisionError (the caller guarantees divisibility).
        """
        alpha = np.asarray(alpha, dtype=float)
        j = int(np.argmax(np.abs(alpha)))
        aj = alpha[j]
        scale = self.max_abs_coeff()
        if scale == 0.0:
            return Polynomial.zero(self.dim)
        work = dict(self.terms)
        quot: Dict[MultiIndex, float] = {}
        while True:
            cand = [(e, c) for e, c in work.items() if e[j] > 0]
            if not cand:
                break
            e, c = max(cand, key=lambda t: (t[0][j], t[0]))
            eq = list(e)
            eq[j] -= 1
            eq = tuple(eq)
            q = c / aj
            quot[eq] = quot.get(eq, 0.0) + q
            # subtract q * x^eq * <alpha, x>; cancel the led term exactly
            work.pop(e)
            for l, al in enumerate(alpha):
                if al == 0.0 or l == j:
                    continue
                e2 = list(eq)
                e2[l] += 1
                e2 = tuple(e2)
                r = work.get(e2, 0.0) - q * al
                if r == 0.0:
                    work.pop(e2, None)
                else:
                    work[e2] = r
        rem = max((abs(c) for c in work.values()), default=0.0)
        if rem > 1e-9 * scale:
            raise PolynomialDivisionError(
                f"nonzero remainder {rem:.3e} (rel {rem / scale:.3e}) dividing by linear form")
        return Polynomial(self.dim, quot)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Evaluate at a point (N,) or batch (..., N)."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = x[None, :] if single else x.reshape(-1, self.dim)
        out = np.zeros(pts.shape[0])
        for e, c in self.terms.items():
            t = np.full(pts.shape[0], c)
            for i, p in enumerate(e):
                if p:
                    t = t * pts[:, i] ** p
            out += t
        if single:
            return float(out[0])
        return out.reshape(x.shape[:-1])

    # -- misc -----------------------------------------------------------------

    def allclose(self, other: "Polynomial", tol: float = 1e-10) -> bool:
        keys = set(self.terms) | set(other.terms)
        return all(abs(self.terms.get(e, 0.0) - other.terms.get(e, 0.0)) <= tol for e in keys)
