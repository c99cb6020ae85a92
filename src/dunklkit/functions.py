"""Structured test functions with exact Dunkl calculus, and corpus generation.

The workhorse carriers:

* RadialPG — radial profiles r^β q(r²) e^{-s r²/2}.  The class is closed
  under d/dr and under the radial Dunkl Laplacian Δ_k = d²/dr² +
  (Λ-1)/r d/dr (radial functions are G-invariant, so the reflection
  differences vanish and Δ_k acts as the classical Bessel operator in
  dimension Λ = N + 2γ).  Weighted L² norms have Γ-function closed forms.
* PolyGauss1D — rank-1 profiles p(x) e^{-s x²/2}, closed under the rank-1
  Dunkl operator T f = f' + k (f(x) - f(-x))/x since the Gaussian factor is
  reflection invariant.

Bump and inverse-power carriers cover compact support, annuli (needed under
negative power weights) and heavy tails (extremal trial families); d/dr
(once) and dilation act on their values, and they have no exact Dunkl hook
(FunctionClassError).  A TestFunction is the sum of its `components`
(carriers of either kind, all with the same calculus interface).  Every carrier states its behaviour at
the origin and its tails (`min_power`, `support_inner`, `heavy_tails`), and
the TestFunction reads what the norm and inequality machinery consumes off
its carriers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence

import numpy as np
from scipy import special as sps

__all__ = [
    "RadialPG",
    "PolyGauss1D",
    "RadialBump",
    "AnnularBump",
    "InversePower",
    "TestFunction",
    "as_members",
    "corpus_values",
    "generate_corpus",
    "band_profile",
    "CORPUS_FAMILIES",
    "FunctionClassError",
    "CorpusError",
]

CORPUS_FAMILIES = ("Gaussian", "DilatedGaussian", "HermiteGaussian",
                   "RadialBump", "AnnularBump", "SeededSuperposition")


class FunctionClassError(ValueError):
    """A function outside the class an operation needs: a carrier with no
    exact hook for it, or a member a theorem or workbench does not take."""


class CorpusError(ValueError):
    """A corpus count below 1, or a family list that is empty or unknown."""


# ---------------------------------------------------------------------------
# exact carriers


def _padded(rows: list, ndim: int) -> np.ndarray:
    """Per-carrier tuples zero-padded to one length, as a (K, W, 1, ...) array
    whose columns broadcast over an x of `ndim` dimensions."""
    W = max(map(len, rows))
    M = np.array([r + (0.0,) * (W - len(r)) for r in rows])
    return M.reshape(M.shape + (1,) * ndim)


def _horner(C: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Σ_d C[:, d] t^d for each row of a padded coefficient matrix (ascending):
    one Horner pass, broadcasting to shape (K,) + t.shape."""
    q = C[:, -1]
    for d in range(C.shape[1] - 2, -1, -1):
        q = q * t
        q += C[:, d]
    return q


class _PolyGauss:
    """Shared by the polynomial × Gaussian carriers: frozen dataclasses with
    fields `coeffs` (ascending) and `s`.  Each class evaluates a list of its
    carriers at once (`rows`); one carrier is the one-row case."""

    support_inner = 0.0
    heavy_tails = False

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        # `lead`: the index of the first nonzero coefficient (0 for a zero polynomial)
        object.__setattr__(self, "lead", next((m for m, c in enumerate(coeffs) if c != 0.0), 0))
        if self.s <= 0:
            raise ValueError("Gaussian scale s must be positive")

    def value(self, x: np.ndarray) -> np.ndarray:
        return self.value_reduced(x, 0.0)

    def value_reduced(self, x: np.ndarray, power: float) -> np.ndarray:
        """f(x) / |x|^power, evaluated stably (requires power ≤ min_power)."""
        return self.rows([self], x, power)[0]


@dataclass(frozen=True)
class RadialPG(_PolyGauss):
    """r^beta * q(r^2) * exp(-s r^2 / 2) with q given by ascending coeffs."""

    beta: float
    coeffs: tuple
    s: float

    @property
    def min_power(self) -> float:
        """Vanishing order at the origin: f ~ r^{beta + 2*lead}."""
        return self.beta + 2 * self.lead

    @staticmethod
    def rows(carriers: list, r, power: float) -> np.ndarray:
        """f(r) / r^power of each carrier, shape (K,) + r.shape: r^(β+2·lead-power)
        q(r²) e^{-s r²/2} with the q's as one padded coefficient matrix."""
        r = np.asarray(r, dtype=float)
        u = r * r
        leads = [c.lead for c in carriers]
        expo = [c.beta + 2 * m0 - power for c, m0 in zip(carriers, leads)]
        # columns: -s/2, the power of r, then q's coefficients from the lead on
        M = _padded([(-0.5 * c.s, e) + c.coeffs[m0:]
                     for c, m0, e in zip(carriers, leads, expo)], r.ndim)
        q = _horner(M[:, 2:], u)
        if any(expo):
            q = r ** M[:, 1] * q
        return q * np.exp(M[:, 0] * u)

    def derivative(self) -> "RadialPG":
        c = self.coeffs
        n = len(c)
        d = [0.0] * (n + 1)
        for m in range(n):
            d[m] += (self.beta + 2 * m) * c[m]
            d[m + 1] += -self.s * c[m]
        return RadialPG(self.beta - 1.0, tuple(d), self.s)

    def laplacian(self, lam: float) -> "RadialPG":
        """Radial Dunkl Laplacian in dimension Λ: f'' + (Λ-1) f'/r."""
        b, s = self.beta, self.s
        c = self.coeffs
        n = len(c)
        d = [0.0] * (n + 2)
        for m in range(n):
            d[m] += (b * (b + lam - 2.0) + 2.0 * (2.0 * b + lam) * m + 4.0 * m * (m - 1.0)) * c[m]
            d[m + 1] += -s * ((2.0 * b + lam) + 4.0 * m) * c[m]
            d[m + 2] += s * s * c[m]
        return RadialPG(b - 2.0, tuple(d), s)

    def dilate(self, lam: float) -> "RadialPG":
        c = [ (lam ** self.beta) * (lam ** (2 * m)) * cm for m, cm in enumerate(self.coeffs)]
        return RadialPG(self.beta, tuple(c), self.s * lam * lam)

    def weighted_l2_exact(self, a: float, lam: float, surface_const: float = 1.0) -> float:
        """∫ r^{2a} f(r)² dμ = d ∫_0^∞ r^{2a} f² r^{Λ-1} dr, closed form."""
        g = np.polynomial.polynomial.polymul(self.coeffs, self.coeffs)
        out = 0.0
        for m, gm in enumerate(g):
            if gm == 0.0:
                continue
            arg = a + self.beta + m + lam / 2.0
            if arg <= 0:
                raise ValueError("non-integrable origin exponent in exact norm")
            out += gm * sps.gamma(arg) / (2.0 * self.s ** arg)
        return surface_const * out


@dataclass(frozen=True)
class PolyGauss1D(_PolyGauss):
    """p(x) * exp(-s x^2 / 2) on the line, p by ascending coefficients."""

    coeffs: tuple
    s: float

    @property
    def min_power(self) -> float:
        return float(self.lead)

    @staticmethod
    def rows(carriers: list, x, power: float) -> np.ndarray:
        """f(x) / x^power of each carrier (an integer power), shape (K,) + x.shape:
        x^(lead-power) p̃(x) e^{-s x²/2} with the p̃ as one padded coefficient matrix."""
        x = np.asarray(x, dtype=float)
        red = int(round(power))
        if red != power:
            raise ValueError("rank-1 reduction power must be an integer")
        leads = [c.lead for c in carriers]
        # columns: -s/2, the power of x, then p̃'s coefficients from the lead on
        M = _padded([(-0.5 * c.s, m0 - red) + c.coeffs[m0:]
                     for c, m0 in zip(carriers, leads)], x.ndim)
        p = _horner(M[:, 2:], x)
        if any(m0 != red for m0 in leads):
            p = p * x ** M[:, 1]
        return p * np.exp(M[:, 0] * x * x)

    def derivative(self) -> "PolyGauss1D":
        c = self.coeffs
        n = len(c)
        d = [0.0] * (n + 1)
        for m in range(n):
            if m >= 1:
                d[m - 1] += m * c[m]
            d[m + 1] += -self.s * c[m]
        return PolyGauss1D(tuple(d), self.s)

    def dunkl_apply(self, k: float) -> "PolyGauss1D":
        """T f = f' + k (f(x)-f(-x))/x; exact on this class."""
        der = self.derivative()
        if k == 0.0:
            return der
        c = self.coeffs
        d = list(der.coeffs) + [0.0] * max(0, len(c) - len(der.coeffs))
        for m in range(1, len(c), 2):
            d[m - 1] += k * 2.0 * c[m]
        return PolyGauss1D(tuple(d), self.s)

    def laplacian(self, k: float) -> "PolyGauss1D":
        return self.dunkl_apply(k).dunkl_apply(k)

    def dilate(self, lam: float) -> "PolyGauss1D":
        c = [(lam ** m) * cm for m, cm in enumerate(self.coeffs)]
        return PolyGauss1D(tuple(c), self.s * lam * lam)

    def weighted_l2_exact(self, a: float, k: float) -> float:
        """∫ |x|^{2a} f(x)² dμ_k with w_k = 2^k |x|^{2k}, closed form."""
        g = np.polynomial.polynomial.polymul(self.coeffs, self.coeffs)
        out = 0.0
        for n, gn in enumerate(g):
            if gn == 0.0 or n % 2 == 1:
                continue
            arg = (n + 1) / 2.0 + a + k
            if arg <= 0:
                raise ValueError("non-integrable origin exponent in exact norm")
            out += gn * sps.gamma(arg) / self.s ** arg
        return (2.0 ** k) * out


# ---------------------------------------------------------------------------
# bump and heavy-tail carriers (value/derivative callables)


def _mollifier(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    inside = np.abs(t) < 1.0
    out = np.zeros_like(t)
    ti = t[inside]
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - ti * ti))
    return out


def _mollifier_prime(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    inside = np.abs(t) < 1.0
    out = np.zeros_like(t)
    ti = t[inside]
    d = 1.0 - ti * ti
    out[inside] = np.exp(1.0 - 1.0 / d) * (-2.0 * ti / (d * d))
    return out


class _Profile:
    """Shared by the carriers known through `value` and `derivative_values`:
    no factorable origin power; d/dr and dilation act on values."""

    min_power = 0.0
    support_inner = 0.0       # the profile vanishes identically on [0, support_inner)
    heavy_tails = False

    @staticmethod
    def rows(carriers: list, r, power: float) -> np.ndarray:
        """The carriers' values stacked as rows, shape (K,) + r.shape (a
        profile factors no origin power: `power` must be 0)."""
        if power != 0.0:
            raise ValueError("a profile carrier has no origin power to reduce by")
        return np.array([c.value(np.asarray(r, float)) for c in carriers], dtype=float)

    def derivative(self) -> "_Profile":
        return _ProfileDerivative(self)

    def dilate(self, lam: float) -> "_Profile":
        return _ProfileDilate(self, lam)

    def dunkl_apply(self, k: float):
        raise FunctionClassError(
            f"{type(self).__name__}: no exact Dunkl-operator hook for this carrier")

    laplacian = dunkl_apply


@dataclass(frozen=True)
class _ProfileDerivative(_Profile):
    """d/dr of a profile carrier."""

    base: _Profile

    support_inner = property(lambda self: self.base.support_inner)
    heavy_tails = property(lambda self: self.base.heavy_tails)

    def value(self, r):
        return self.base.derivative_values(r)

    def derivative_values(self, r):
        raise FunctionClassError(
            f"{type(self.base).__name__}: a profile carrier has no second derivative")


@dataclass(frozen=True)
class _ProfileDilate(_Profile):
    """r ↦ base(λ r)."""

    base: _Profile
    lam: float

    support_inner = property(lambda self: self.base.support_inner / self.lam)
    heavy_tails = property(lambda self: self.base.heavy_tails)

    def value(self, r):
        return self.base.value(self.lam * np.asarray(r, float))

    def derivative_values(self, r):
        return self.lam * self.base.derivative_values(self.lam * np.asarray(r, float))


@dataclass(frozen=True)
class RadialBump(_Profile):
    """Smooth bump supported on [0, R); equals 1 at the origin."""

    R: float

    def value(self, r):
        return _mollifier(np.asarray(r, float) / self.R)

    def derivative_values(self, r):
        return _mollifier_prime(np.asarray(r, float) / self.R) / self.R


@dataclass(frozen=True)
class AnnularBump(_Profile):
    """Smooth bump supported on (r_in, r_out); vanishes identically near 0."""

    r_in: float
    r_out: float

    support_inner = property(lambda self: self.r_in)

    def _t(self, r):
        return (2.0 * np.asarray(r, float) - (self.r_in + self.r_out)) / (self.r_out - self.r_in)

    def value(self, r):
        return _mollifier(self._t(r))

    def derivative_values(self, r):
        return _mollifier_prime(self._t(r)) * 2.0 / (self.r_out - self.r_in)


@dataclass(frozen=True)
class InversePower(_Profile):
    """(1 + (r/scale)²)^{-beta}: heavy-tailed extremal trial profile."""

    beta: float
    scale: float = 1.0
    heavy_tails = True

    def value(self, r):
        t = np.asarray(r, float) / self.scale
        return (1.0 + t * t) ** (-self.beta)

    def derivative_values(self, r):
        t = np.asarray(r, float) / self.scale
        return (-2.0 * self.beta / self.scale) * t * (1.0 + t * t) ** (-self.beta - 1.0)


# ---------------------------------------------------------------------------
# wrapper


@dataclass(eq=False)
class TestFunction:
    """A corpus member: the sum of its carriers.  Compared and hashed by
    identity (fids repeat across corpora).

    Origin and tail data are read off the carriers: origin_factor_power is
    the exactly factorable power r^β (folded into quadrature weights);
    support_inner > 0, a hole around the origin, licenses pointwise power
    weights; heavy_tails asks for the wide geometric rule.  Only
    in_origin_closure, a claim about the function's class, is stated.
    """

    __test__ = False          # not a pytest collection target

    fid: str
    family: str
    mode: str                      # "radial" | "rank1"
    params: dict = field(default_factory=dict)
    components: tuple = ()         # summed carriers: RadialPG / PolyGauss1D, or one profile
    # member of the energy-space closure of functions vanishing near 0
    # (e.g. r^β with β > -1/2: the ε-cutoff error vanishes like ε^{2β+1})
    in_origin_closure: bool = False

    # -- origin and tails, read off the carriers ---------------------------

    @property
    def origin_factor_power(self) -> float:
        return min(c.min_power for c in self.components)

    @property
    def support_inner(self) -> float:
        return min(c.support_inner for c in self.components)

    @property
    def vanishes_at_origin(self) -> bool:
        return self.support_inner > 0 or self.origin_factor_power > 0

    @property
    def heavy_tails(self) -> bool:
        return any(c.heavy_tails for c in self.components)

    @property
    def is_radial(self) -> bool:
        """Radial mode, or a rank-1 sum with no odd coefficient."""
        return self.mode == "radial" or not any(
            c for pc in self.components for c in getattr(pc, "coeffs", ())[1::2])

    # -- evaluation -------------------------------------------------------

    def value(self, x):
        return corpus_values([self], x)[0]

    __call__ = value

    def value_reduced(self, x, power: float):
        """f(x) / |x|^power (power ≤ origin_factor_power)."""
        return corpus_values([self], x, power)[0]

    def derivative(self) -> "TestFunction":
        """d/dr of the radial profile (or d/dx in rank-1)."""
        return self._rewrap(tuple(c.derivative() for c in self.components), "'")

    def apply_dunkl(self, k: float) -> "TestFunction":
        if self.mode != "rank1":
            raise ValueError("apply_dunkl is the rank-1 operator; use laplacian for radial mode")
        return self._rewrap(tuple(c.dunkl_apply(k) for c in self.components), "~T")

    def laplacian(self, lam_or_k: float) -> "TestFunction":
        return self._rewrap(tuple(c.laplacian(lam_or_k) for c in self.components), "~lap")

    def dilate(self, lam: float) -> "TestFunction":
        """f ↦ f(λ·), exact on every carrier."""
        return self._rewrap(tuple(c.dilate(lam) for c in self.components), f"~dil{lam:g}")

    def _rewrap(self, comps: tuple, suffix: str) -> "TestFunction":
        return TestFunction(self.fid + suffix, self.family, self.mode, self.params, comps,
                            self.in_origin_closure)

    def to_dict(self) -> dict:
        return {
            "id": self.fid,
            "family": self.family,
            "mode": self.mode,
            "params": {k: (v if isinstance(v, (int, float)) else list(v))
                       for k, v in self.params.items()},
            "is_radial": self.is_radial,
            "vanishes_at_origin": self.vanishes_at_origin,
        }


def as_members(f) -> tuple[list, bool]:
    """(members, single): a list or tuple of functions, or a matrix of
    sample rows, as a list; one function (or one row) as a one-member
    corpus."""
    if isinstance(f, (list, tuple)) or (isinstance(f, np.ndarray) and f.ndim == 2):
        return list(f), False
    return [f], True


def corpus_values(fs: Sequence[TestFunction], x, power: float = 0.0) -> np.ndarray:
    """f(x) / |x|^power for every member of a corpus, shape (m,) + x.shape.

    The carriers of one class are evaluated together (`rows`: one padded
    Horner pass, one exp and one power for all polynomial × Gaussian
    carriers); a member's row is the sum of its carriers' rows, in order.
    A single function is the one-member corpus.
    """
    x = np.asarray(x, dtype=float)
    comps = [c for f in fs for c in f.components]
    by_class: dict = {}
    for j, c in enumerate(comps):
        by_class.setdefault(type(c), []).append(j)
    if len(by_class) == 1 and len(comps) == len(fs):    # one carrier each, of one class
        return type(comps[0]).rows(comps, x, power)
    rows = [None] * len(comps)
    for cls, js in by_class.items():
        for j, row in zip(js, cls.rows([comps[j] for j in js], x, power)):
            rows[j] = row
    out, j = [], 0
    for f in fs:                  # a member's carriers are consecutive rows, summed in order
        k = len(f.components)
        v = rows[j]
        for row in rows[j + 1:j + k]:
            v = v + row
        out.append(v)
        j += k
    return np.array(out)


# ---------------------------------------------------------------------------
# constructors


def _even_carrier(mode: str, q: tuple, s: float):
    """q(r²) e^{-s r²/2} as the carrier of `mode` (q by ascending coefficients)."""
    if mode == "radial":
        return RadialPG(0.0, q, s)
    return PolyGauss1D(tuple(v for c in q for v in (0.0, c))[1:], s)


def gaussian(mode: str = "radial", s: float = 1.0, fid: str = "Gaussian-0") -> TestFunction:
    return TestFunction(fid, "Gaussian", mode, {"s": s}, (_even_carrier(mode, (1.0,), s),))


def band_profile(lo: float, hi: float) -> Callable[[np.ndarray], np.ndarray]:
    """Smooth bump in the spectral variable, supported on [lo, hi]."""
    if not 0 < lo < hi:
        raise ValueError("need 0 < lo < hi")

    def prof(rho):
        t = (2.0 * np.asarray(rho, float) - (lo + hi)) / (hi - lo)
        return _mollifier(t)
    return prof


def generate_corpus(seed: int, count: int, families: Sequence[str],
                    constraints: dict | None = None, mode: str = "radial") -> List[TestFunction]:
    """Deterministic seeded corpus; respects {vanish_at_origin, radial}.

    Families with no natural vanishing (Gaussians) receive an r² (rank-1: x²)
    prefactor under the vanish_at_origin constraint; this is recorded in the
    member's params.
    """
    if count < 1:
        raise CorpusError(f"corpus count must be ≥ 1, got {count}")
    families = list(families)
    if not families:
        raise CorpusError("empty corpus family list")
    unknown = [f for f in families if f not in CORPUS_FAMILIES]
    if unknown:
        raise CorpusError(f"unknown corpus families {unknown}; "
                          f"expected names from {list(CORPUS_FAMILIES)}")
    constraints = constraints or {}
    vanish = bool(constraints.get("vanish_at_origin", False))
    radial_only = bool(constraints.get("radial", False))

    rng = np.random.default_rng(seed)
    out: List[TestFunction] = []
    for i in range(count):
        fam = families[i % len(families)]
        fid = f"{fam}-{i:02d}"
        if fam in ("Gaussian", "DilatedGaussian"):
            s = 1.0 if fam == "Gaussian" else float(rng.uniform(0.35, 2.6))
            params = {"s": s, "vanish_prefactor": int(vanish)}
            comps = (_even_carrier(mode, (0.0, 1.0) if vanish else (1.0,), s),)
            out.append(TestFunction(fid, fam, mode, params, comps))
        elif fam == "HermiteGaussian":
            s = float(rng.uniform(0.6, 1.8))
            if mode == "radial":
                deg = int(rng.integers(1, 4))
                c = rng.uniform(-1.0, 1.0, size=deg + 1)
                c[deg] = np.sign(c[deg]) * (0.5 + abs(c[deg]))
                if vanish:
                    c = np.concatenate([[0.0] * int(rng.integers(1, 3)), c])
                comps = (RadialPG(0.0, tuple(c), s),)
            else:
                deg = int(rng.integers(2, 7))
                c = rng.uniform(-1.0, 1.0, size=deg + 1)
                c[deg] = np.sign(c[deg]) * (0.5 + abs(c[deg]))
                if radial_only:
                    c[1::2] = 0.0
                if vanish:
                    c = np.concatenate([[0.0, 0.0], c])
                comps = (PolyGauss1D(tuple(c), s),)
            out.append(TestFunction(fid, fam, mode, {"s": s, "coeffs": [float(v) for v in c]},
                                    comps))
        elif fam == "RadialBump":
            R = float(rng.uniform(2.0, 5.0))
            if vanish:
                # no radial bump vanishes at the origin; substitute an annulus
                r_in = float(rng.uniform(0.4, 1.0))
                out.append(_annular(fid, r_in, r_in + R, mode))
            else:
                out.append(TestFunction(fid, fam, mode, {"R": R}, (RadialBump(R),)))
        elif fam == "AnnularBump":
            r_in = float(rng.uniform(0.4, 1.0))
            width = float(rng.uniform(1.0, 2.5))
            out.append(_annular(fid, r_in, r_in + width, mode))
        elif fam == "SeededSuperposition":
            ncomp = int(rng.integers(2, 4))
            comps = []
            amps = []
            for _ in range(ncomp):
                s = float(rng.uniform(0.4, 2.2))
                amp = float(rng.uniform(0.5, 1.5)) * (1.0 if rng.uniform() < 0.5 else -1.0)
                amps.append((amp, s))
                comps.append(_even_carrier(mode, (0.0, amp) if vanish else (amp,), s))
            out.append(TestFunction(fid, fam, mode, {"components": amps}, tuple(comps)))
    return out


def _annular(fid: str, r_in: float, r_out: float, mode: str) -> TestFunction:
    return TestFunction(fid, "AnnularBump", mode, {"r_in": r_in, "r_out": r_out},
                        (AnnularBump(r_in, r_out),))
