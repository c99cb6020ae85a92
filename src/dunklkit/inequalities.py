"""Functional inequalities as checkable specs: admissibility + LHS/RHS.

Every theorem is encoded as a parameter record with

* an admissibility predicate that evaluates each hypothesis and reports a
  residual per condition (0 residual on a strict inequality = rejection);
  admissible() checks the shared N ≥ 1, γ ≥ 0 once and passes Λ to the rest;
* constant-free evaluators: lhs is the left display norm, rhs the product of
  right-hand norms with the theorem's powers.  Empirical constants are
  reported as sup (or inf) ratios; closed-form sharp constants exist for the
  fractional Hardy and classical Rellich inequalities and act as ceilings.
  The CKN sides ‖|x|^c f‖_r and G^δ ‖|x|^b f‖_q^{1-δ}, G the norm of the
  gradient side, come from one formula.

Throughout, Λ = N + 2γ and ‖|x|^a f‖_p denotes the weighted L^p(μ_k) norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

import numpy as np
from scipy import special as sps

from .functions import FunctionClassError, TestFunction, as_members, corpus_values
from .measure import WeightedQuadrature
from .workbench import Workbench

__all__ = [
    "InequalitySpec",
    "Condition",
    "AdmissibilityReport",
    "VerificationRecord",
    "CorpusVerification",
    "AdmissibilityError",
    "FunctionClassError",
    "DegenerateFunctionError",
    "SeriesCapError",
    "WorkbenchMismatchError",
    "admissible",
    "check_admissible",
    "check_workbench",
    "evaluate_sides",
    "verify_corpus",
    "trudinger_lhs",
    "largest_admissible_a",
    "fractional_hardy_constant",
    "make_spec",
    "weighted_rellich_spec",
    "uncertainty_spec",
    "sobolev_spec",
    "gn1_spec",
    "ckn1_spec",
    "ckn2_spec",
    "ckn_fractional_spec",
]


class AdmissibilityError(ValueError):
    pass


class DegenerateFunctionError(ValueError):
    pass


class SeriesCapError(RuntimeError):
    pass


class WorkbenchMismatchError(ValueError):
    """The workbench's Λ = N + 2γ differs from that of the spec parameters."""


EQ_TOL = 1e-9          # equality-condition tolerance
NONSTRICT_SLACK = -1e-12
VIOLATION_RTOL = 1e-4  # a record violates a known ceiling when ratio > bound (1 + this)
A_HI, A_ITERS = 8.0, 40  # largest_admissible_a: bisection on [0, A_HI], A_ITERS halvings


@dataclass(frozen=True)
class Condition:
    cid: str
    statement: str
    ok: bool
    residual: float


@dataclass(frozen=True)
class AdmissibilityReport:
    conditions: tuple

    @property
    def admissible(self) -> bool:
        return all(c.ok for c in self.conditions)

    @property
    def failed(self) -> tuple:
        return tuple(c for c in self.conditions if not c.ok)


@dataclass(frozen=True)
class VerificationRecord:
    function_id: str
    lhs: float
    rhs: float
    ratio: float


@dataclass(frozen=True)
class CorpusVerification:
    records: tuple
    direction: str                    # "upper": lhs ≤ C rhs; "lower": lhs ≥ c rhs
    known_bound: float | None
    violations: tuple
    empirical_constant: float         # sup ratio (upper) / inf ratio (lower)


def _strict(cid, statement, slack) -> Condition:
    return Condition(cid, statement, bool(slack > 0.0), float(slack))


def _nonstrict(cid, statement, slack) -> Condition:
    return Condition(cid, statement, bool(slack >= NONSTRICT_SLACK), float(slack))


def _eq(cid, statement, diff) -> Condition:
    return Condition(cid, statement, bool(abs(diff) <= EQ_TOL), float(abs(diff)))


def fractional_hardy_constant(N: int, gamma: float, s: float) -> float:
    """Sharp constant C(s) = 2^s Γ((Λ/2+s)/2) / Γ((Λ/2-s)/2), 0 ≤ s < Λ/2."""
    lam = N + 2.0 * gamma
    if not 0.0 <= s < lam / 2.0:
        raise ValueError(f"need 0 ≤ s < Λ/2 = {lam / 2.0:g}")
    return float(2.0 ** s * sps.gamma((lam / 2.0 + s) / 2.0) / sps.gamma((lam / 2.0 - s) / 2.0))


# ---------------------------------------------------------------------------
# theorem registry


@dataclass(frozen=True)
class TheoremDef:
    tag: str
    params: tuple
    direction: str
    # (params, Λ) -> the hypotheses past the shared N ≥ 1 and γ ≥ 0
    conditions: Callable[[dict, float], List[Condition]]
    # (params, corpus, workbench) -> (lhs, rhs), one value per member each
    evaluate: Callable[[dict, list, Workbench], tuple]
    known_bound: Callable[[dict], float | None] = lambda P: None
    requires_vanishing: bool = False
    # name -> fn(P): a parameter that the others fix; make_spec fills it in
    derived: Dict[str, Callable[[dict], float]] = field(default_factory=dict)


def _lam(P: dict) -> float:
    return P["N"] + 2.0 * P["gamma"]


# The derived parameters: a `*_formula` condition and the table's `derived`
# entry call one function, so a value that make_spec fills in has residual 0.


def _sobolev_q(P):
    lam = _lam(P)
    return P["p"] * lam / (lam - P["p"])


def _balanced_p(gap):
    """P -> 2Λ/(Λ-2+2t), t = gap(P) the weight gap of a Hardy/Rellich display."""
    def p(P):
        lam = _lam(P)
        return 2.0 * lam / (lam - 2.0 + 2.0 * gap(P))
    return p


def _higher_rellich_shift(P):
    return P["a"] + 2.0 * (P["j"] - 1.0) + 1.0


_weighted_hardy_p = _balanced_p(lambda P: P["b"] - P["a"])
_weighted_rellich_p = _balanced_p(lambda P: P["b"] - P["a"] - 1.0)
_higher_rellich_p = _balanced_p(lambda P: P["b"] - _higher_rellich_shift(P))
_wgn2_p = _balanced_p(lambda P: P["a"] - 1.0)


def _ckn_c(x):
    """P -> c = δx + b(1-δ), the weight power of a CKN left side; x = x(P)."""
    return lambda P: P["delta"] * x(P) + P["b"] * (1.0 - P["delta"])


_ckn1_c = _ckn_c(lambda P: -1.0)      # δ·(-1.0) is -δ exactly
_ckn2_c = _ckn_c(lambda P: P["a"])
_ckn3_c = _ckn_c(lambda P: P["a"] - 1.0)
_classical_c = _ckn_c(lambda P: P["d"])   # b(1-δ) is (1-δ)b exactly


def _delta_interval(P: dict, hi: float) -> Condition:
    lo = max(0.0, (P["r"] - P["q"]) / P["r"])
    up = min(1.0, hi)
    slack = min(P["delta"] - lo, up - P["delta"])
    return _nonstrict("delta_range", "δ ∈ [0,1] ∩ [(r-q)/r, ·]", slack)


def _c_sobolev(P, lam):
    return [
        _nonstrict("p_low", "p ≥ 1", P["p"] - 1.0),
        _strict("p_high", "p < Λ", lam - P["p"]),
        _eq("q_formula", "q = pΛ/(Λ-p)", P["q"] - _sobolev_q(P)),
    ]


def _e_sobolev(P, f, wb):
    return wb.norm(f, P["q"]), wb.grad_norm(f, P["p"])


def _c_hardy_lp(P, lam):
    return [
        _strict("p_low", "p > 1", P["p"] - 1.0),
        _strict("p_high", "p < Λ/(1+2γ)", lam / (1.0 + 2.0 * P["gamma"]) - P["p"]),
    ]


def _e_hardy_lp(P, f, wb):
    return wb.norm(f, P["p"], -1.0), wb.grad_norm(f, P["p"])


def _c_weighted_hardy(P, lam):
    return [
        _nonstrict("weight_low", "a ≤ b", P["b"] - P["a"]),
        _nonstrict("weight_high", "b ≤ a+1", P["a"] + 1.0 - P["b"]),
        _eq("p_formula", "p = 2Λ/(Λ-2+2(b-a))", P["p"] - _weighted_hardy_p(P)),
        _strict("a_bound", "a < (Λ-2)/2", (lam - 2.0) / 2.0 - P["a"]),
    ]


def _e_weighted_hardy(P, f, wb):
    return wb.norm(f, P["p"], -P["b"]), wb.grad_norm(f, 2.0, -P["a"])


def _c_classical_rellich(P, lam):
    return [_strict("lambda_ne_2", "Λ ≠ 2", abs(lam - 2.0))]


def _e_classical_rellich(P, f, wb):
    return wb.norm(f, 2.0, -2.0), wb.lap_norm(f, 1, 2.0)


def _b_classical_rellich(P):
    lam = _lam(P)
    if abs(lam - 4.0) < 1e-12:
        return None          # vacuous: sharp constant degenerates to 0
    return 4.0 / (lam * abs(lam - 4.0))


def _c_weighted_rellich(P, lam):
    return [
        _nonstrict("weight_low", "a+1 ≤ b", P["b"] - P["a"] - 1.0),
        _nonstrict("weight_high", "b ≤ a+2", P["a"] + 2.0 - P["b"]),
        _eq("p_formula", "p = 2Λ/(Λ-2+2(b-(a+1)))", P["p"] - _weighted_rellich_p(P)),
        _strict("a_bound", "a+1 < (Λ-2)/2", (lam - 2.0) / 2.0 - P["a"] - 1.0),
    ]


def _e_weighted_rellich(P, f, wb):
    return wb.norm(f, P["p"], -P["b"]), wb.lap_norm(f, 1, 2.0, -P["a"])


def _c_higher_rellich(P, lam):
    j = P["j"]
    A = _higher_rellich_shift(P)
    return [
        _eq("j_integer", "j ∈ ℕ", j - round(j)),
        _nonstrict("j_low", "j ≥ 1", j - 1.0),
        _nonstrict("weight_low", "a+2(j-1)+1 ≤ b", P["b"] - A),
        _nonstrict("weight_high", "b ≤ a+2(j-1)+2", A + 1.0 - P["b"]),
        _eq("p_formula", "p = 2Λ/(Λ-2+2(b-(a+2(j-1)+1)))", P["p"] - _higher_rellich_p(P)),
        _strict("a_bound", "a+2(j-1)+1 < (Λ-2)/2", (lam - 2.0) / 2.0 - A),
    ]


def _e_higher_rellich(P, f, wb):
    return wb.norm(f, P["p"], -P["b"]), wb.lap_norm(f, int(round(P["j"])), 2.0, -P["a"])


def _c_uncertainty(P, lam):
    return _c_hardy_lp(P, lam) + [
        _eq("conjugate", "1/p + 1/q = 1", 1.0 / P["p"] + 1.0 / P["q"] - 1.0),
    ]


def _e_uncertainty(P, f, wb):
    lhs = wb.grad_norm(f, P["p"]) * wb.norm(f, P["q"], 1.0)
    return lhs, wb.norm(f, 2.0) ** 2


def _c_gn1(P, lam):
    return [
        _nonstrict("p_low", "p ≥ 1", P["p"] - 1.0),
        _nonstrict("q_low", "q ≥ 1", P["q"] - 1.0),
        _nonstrict("r_low", "r ≥ 1", P["r"] - 1.0),
        _strict("r_high", "r < Λ", lam - P["r"]),
        _nonstrict("theta_range", "θ ∈ [0,1]", min(P["theta"], 1.0 - P["theta"])),
        _eq("balance", "θ(1/Λ + 1/p - 1/r) = 1/p - 1/q",
            P["theta"] * (1.0 / lam + 1.0 / P["p"] - 1.0 / P["r"])
            - (1.0 / P["p"] - 1.0 / P["q"])),
    ]


def _e_gn1(P, f, wb):
    th = P["theta"]
    return wb.norm(f, P["q"]), wb.grad_norm(f, P["r"]) ** th * wb.norm(f, P["p"]) ** (1.0 - th)


def _c_gn2(P, lam):
    return [
        _strict("p_low", "p > 1", P["p"] - 1.0),
        _nonstrict("s_low", "s ≥ 0", P["s"]),
        _nonstrict("s_high", "s ≤ Λ/p", lam / P["p"] - P["s"]),
        _nonstrict("theta_range", "θ ∈ [0,1]", min(P["theta"], 1.0 - P["theta"])),
    ]


def _e_gn2(P, f, wb):
    th, s, p = P["theta"], P["s"], P["p"]
    lhs = wb.frac_norm(f, s * (1.0 - th), p)
    rhs = wb.frac_norm(f, s, p) ** (1.0 - th) * wb.norm(f, p) ** th
    return lhs, rhs


def _c_wgn1(P, lam):
    return [
        _strict("p_low", "p > 1", P["p"] - 1.0),
        _strict("p_high", "p < Λ/(2+2γ)", lam / (2.0 + 2.0 * P["gamma"]) - P["p"]),
        _nonstrict("s_low", "s ≥ 2", P["s"] - 2.0),
        _nonstrict("s_high", "s ≤ Λ/p", lam / P["p"] - P["s"]),
        _eq("q_formula", "q = pΛ/(Λ-p)", P["q"] - _sobolev_q(P)),
    ]


def _e_wgn1(P, f, wb):
    s = P["s"]
    lhs = wb.norm(f, P["q"], -1.0)
    rhs = wb.frac_norm(f, s, P["p"]) ** (2.0 / s) * wb.norm(f, P["p"]) ** (1.0 - 2.0 / s)
    return lhs, rhs


def _c_wgn2(P, lam):
    return [
        # the chain through the weighted Rellich inequality needs 1 < (Λ-2)/2
        _strict("lambda_gt_4", "Λ > 4", lam - 4.0),
        _nonstrict("a_low", "a ≥ 1", P["a"] - 1.0),
        _nonstrict("a_high", "a ≤ 2", 2.0 - P["a"]),
        _nonstrict("s_low", "s ≥ 2", P["s"] - 2.0),
        _nonstrict("s_high", "s ≤ Λ/2", lam / 2.0 - P["s"]),
        _eq("p_formula", "p = 2Λ/(Λ-2+2(a-1))", P["p"] - _wgn2_p(P)),
    ]


def _e_wgn2(P, f, wb):
    s = P["s"]
    lhs = wb.norm(f, P["p"], -P["a"])
    rhs = wb.frac_norm(f, s, 2.0) ** (2.0 / s) * wb.norm(f, 2.0) ** (1.0 - 2.0 / s)
    return lhs, rhs


def _c_wgn3(P, lam):
    return [
        _nonstrict("a_low", "a ≥ 0", P["a"]),
        _nonstrict("a_le_s", "a ≤ s", P["s"] - P["a"]),
        _nonstrict("s_high", "s ≤ Λ/2", lam / 2.0 - P["s"]),
    ]


def _e_wgn3(P, f, wb):
    a, s = P["a"], P["s"]
    lhs = wb.norm(f, 2.0, -a)
    if s == 0.0:
        return lhs, wb.norm(f, 2.0)
    rhs = wb.frac_norm(f, s, 2.0) ** (a / s) * wb.norm(f, 2.0) ** (1.0 - a / s)
    return lhs, rhs


def _c_frac_hardy(P, lam):
    return [
        _nonstrict("s_low", "s ≥ 0", P["s"]),
        _strict("s_high", "s < Λ/2", lam / 2.0 - P["s"]),
    ]


def _e_frac_hardy(P, f, wb):
    return wb.norm(f, 2.0, -P["s"]), wb.frac_norm(f, P["s"], 2.0)


def _b_frac_hardy(P):
    return 1.0 / fractional_hardy_constant(int(P["N"]), P["gamma"], P["s"])


def _c_trudinger(P, lam):
    return [
        _strict("p_low", "p > 1", P["p"] - 1.0),
        _strict("p_finite", "p < ∞", math.inf if np.isfinite(P["p"]) else 0.0),
        _strict("a_pos", "a > 0", P["a"]),
    ]


def _e_trudinger(P, fs, wb):
    lam = wb.lam
    p, a = P["p"], P["a"]
    c = wb.frac_norm(fs, lam / p, p)
    if np.any(c == 0.0):
        raise DegenerateFunctionError("zero critical-derivative norm")
    lhs = trudinger_lhs(corpus_values(fs, wb.quad.nodes) / c[:, None], a, p, wb.quad)
    rhs = (wb.norm(fs, p) / c) ** p
    return lhs, rhs


def _ckn_sides(P, f, wb, c, grad, *args):
    """‖|x|^c f‖_r and G^δ ‖|x|^b f‖_q^{1-δ}, G = grad(f, *args) the norm of
    the gradient side; the left side is evaluated first."""
    d = P["delta"]
    lhs = wb.norm(f, P["r"], c)
    return lhs, grad(f, *args) ** d * wb.norm(f, P["q"], P["b"]) ** (1.0 - d)


def _c_ckn1(P, lam):
    return _c_hardy_lp(P, lam) + [
        _strict("q_low", "q > 1", P["q"] - 1.0),
        _strict("r_pos", "r > 0", P["r"]),
        _nonstrict("pq_ge_r", "p + q ≥ r", P["p"] + P["q"] - P["r"]),
        _delta_interval(P, P["p"] / P["r"]),
        _eq("balance", "δr/p + (1-δ)r/q = 1",
            P["delta"] * P["r"] / P["p"] + (1.0 - P["delta"]) * P["r"] / P["q"] - 1.0),
        _eq("c_formula", "c = -δ + b(1-δ)", P["c"] - _ckn1_c(P)),
    ]


def _e_ckn1(P, f, wb):
    return _ckn_sides(P, f, wb, P["c"], wb.grad_norm, P["p"])


def _c_ckn2(P, lam):
    L = 2.0 * lam / (lam - 2.0) if lam > 2.0 else math.inf
    return [
        _strict("lambda_gt_2", "Λ > 2", lam - 2.0),
        _strict("q_low", "q > 1", P["q"] - 1.0),
        _strict("r_pos", "r > 0", P["r"]),
        _nonstrict("sob_q_ge_r", "2Λ/(Λ-2) + q ≥ r", L + P["q"] - P["r"]),
        _delta_interval(P, L / P["r"]),
        _strict("a_bound", "Λ-2+2a > 0", lam - 2.0 + 2.0 * P["a"]),
        _eq("balance", "δr(Λ-2)/(2Λ) + (1-δ)r/q = 1",
            P["delta"] * P["r"] * (lam - 2.0) / (2.0 * lam)
            + (1.0 - P["delta"]) * P["r"] / P["q"] - 1.0),
        _eq("c_formula", "c = δa + b(1-δ)", P["c"] - _ckn2_c(P)),
    ]


def _e_ckn2(P, f, wb):
    return _ckn_sides(P, f, wb, P["c"], wb.grad_norm, 2.0, P["a"])


def _c_ckn3(P, lam):
    return [
        _strict("q_low", "q > 1", P["q"] - 1.0),
        _strict("r_pos", "r > 0", P["r"]),
        _nonstrict("twoq_ge_r", "2 + q ≥ r", 2.0 + P["q"] - P["r"]),
        _delta_interval(P, 2.0 / P["r"]),
        _eq("balance", "δr/2 + (1-δ)r/q = 1",
            P["delta"] * P["r"] / 2.0 + (1.0 - P["delta"]) * P["r"] / P["q"] - 1.0),
        _eq("c_formula", "c = δ(a-1) + b(1-δ)", P["c"] - _ckn3_c(P)),
        _strict("a_low", "a > 1 - Λ/2", P["a"] - (1.0 - lam / 2.0)),
        _nonstrict("a_high", "a ≤ 1", 1.0 - P["a"]),
    ]


def _e_ckn3(P, f, wb):
    return _ckn_sides(P, f, wb, P["c"], wb.frac_norm, 1.0 - P["a"], 2.0)


def _b_ckn3(P):
    return 1.0 / fractional_hardy_constant(int(P["N"]), P["gamma"], 1.0 - P["a"]) ** P["delta"]


def _c_classical_ckn(P, lam):
    N, c = P["N"], _classical_c(P)
    conds = [
        _eq("classical_setting", "γ = 0 (classical Lebesgue case)", P["gamma"]),
        _nonstrict("p_low", "p ≥ 1", P["p"] - 1.0),
        _nonstrict("q_low", "q ≥ 1", P["q"] - 1.0),
        _strict("r_pos", "r > 0", P["r"]),
        _nonstrict("delta_range", "0 ≤ δ ≤ 1", min(P["delta"], 1.0 - P["delta"])),
        _strict("clas_CKN0", "1/p+a/N, 1/q+b/N, 1/r+c/N > 0",
                min(1.0 / P["p"] + P["a"] / N,
                    1.0 / P["q"] + P["b"] / N,
                    1.0 / P["r"] + c / N)),
        _eq("clas_CKN2", "1/r+c/N = δ(1/p+(a-1)/N) + (1-δ)(1/q+b/N)",
            (1.0 / P["r"] + c / N)
            - (P["delta"] * (1.0 / P["p"] + (P["a"] - 1.0) / N)
               + (1.0 - P["delta"]) * (1.0 / P["q"] + P["b"] / N))),
    ]
    if P["delta"] > 0:
        conds.append(_nonstrict("clas_CKN3", "a - d ≥ 0 if δ > 0", P["a"] - P["d"]))
        critical = abs((1.0 / P["r"] + c / N) - (1.0 / P["p"] + (P["a"] - 1.0) / N)) <= EQ_TOL
        if critical:
            conds.append(_nonstrict("clas_CKN4", "a - d ≤ 1 in the critical case",
                                    1.0 - (P["a"] - P["d"])))
    return conds


def _e_classical_ckn(P, f, wb):
    return _ckn_sides(P, f, wb, _classical_c(P), wb.grad_norm, P["p"], P["a"])


THEOREMS: Dict[str, TheoremDef] = {t.tag: t for t in [
    TheoremDef("Sobolev", ("N", "gamma", "p", "q"), "upper", _c_sobolev, _e_sobolev,
               derived={"q": _sobolev_q}),
    TheoremDef("Hardy_Lp", ("N", "gamma", "p"), "upper", _c_hardy_lp, _e_hardy_lp),
    TheoremDef("WeightedHardy", ("N", "gamma", "a", "b", "p"), "upper",
               _c_weighted_hardy, _e_weighted_hardy, derived={"p": _weighted_hardy_p}),
    TheoremDef("ClassicalRellich", ("N", "gamma"), "upper", _c_classical_rellich,
               _e_classical_rellich, _b_classical_rellich, requires_vanishing=True),
    TheoremDef("WeightedRellich", ("N", "gamma", "a", "b", "p"), "upper",
               _c_weighted_rellich, _e_weighted_rellich, derived={"p": _weighted_rellich_p}),
    TheoremDef("HigherRellich", ("N", "gamma", "a", "b", "p", "j"), "upper",
               _c_higher_rellich, _e_higher_rellich, derived={"p": _higher_rellich_p}),
    TheoremDef("Uncertainty", ("N", "gamma", "p", "q"), "lower", _c_uncertainty,
               _e_uncertainty, derived={"q": lambda P: P["p"] / (P["p"] - 1.0)}),
    TheoremDef("GN_I", ("N", "gamma", "p", "q", "r", "theta"), "upper", _c_gn1, _e_gn1,
               derived={"theta": lambda P: (1.0 / P["p"] - 1.0 / P["q"])
                        / (1.0 / _lam(P) + 1.0 / P["p"] - 1.0 / P["r"])}),
    TheoremDef("GN_II", ("N", "gamma", "p", "s", "theta"), "upper", _c_gn2, _e_gn2),
    TheoremDef("WeightedGN_I", ("N", "gamma", "p", "q", "s"), "upper", _c_wgn1, _e_wgn1,
               derived={"q": _sobolev_q}),
    TheoremDef("WeightedGN_II", ("N", "gamma", "a", "p", "s"), "upper", _c_wgn2, _e_wgn2,
               requires_vanishing=True, derived={"p": _wgn2_p}),
    TheoremDef("WeightedGN_III", ("N", "gamma", "a", "s"), "upper", _c_wgn3, _e_wgn3),
    TheoremDef("FractionalHardy", ("N", "gamma", "s"), "upper", _c_frac_hardy,
               _e_frac_hardy, _b_frac_hardy),
    TheoremDef("Trudinger", ("N", "gamma", "p", "a"), "upper", _c_trudinger, _e_trudinger),
    TheoremDef("CKN_I", ("N", "gamma", "p", "q", "r", "b", "c", "delta"), "upper",
               _c_ckn1, _e_ckn1, derived={
                   "r": lambda P: 1.0 / (P["delta"] / P["p"] + (1.0 - P["delta"]) / P["q"]),
                   "c": _ckn1_c}),
    TheoremDef("CKN_II", ("N", "gamma", "q", "r", "a", "b", "c", "delta"), "upper",
               _c_ckn2, _e_ckn2, derived={
                   "r": lambda P: 1.0 / (P["delta"] * (_lam(P) - 2.0) / (2.0 * _lam(P))
                                         + (1.0 - P["delta"]) / P["q"]),
                   "c": _ckn2_c}),
    TheoremDef("CKN_fractional", ("N", "gamma", "q", "r", "a", "b", "c", "delta"), "upper",
               _c_ckn3, _e_ckn3, _b_ckn3, derived={
                   "r": lambda P: 1.0 / (P["delta"] / 2.0 + (1.0 - P["delta"]) / P["q"]),
                   "c": _ckn3_c}),
    TheoremDef("ClassicalCKN_1_1", ("N", "gamma", "p", "q", "r", "a", "b", "d", "delta"),
               "upper", _c_classical_ckn, _e_classical_ckn),
]}


@dataclass(frozen=True)
class InequalitySpec:
    """One theorem instance: tag + parameter map (N, γ always included)."""

    theorem: str
    params: dict

    def __post_init__(self):
        if self.theorem not in THEOREMS:
            raise AdmissibilityError(f"unknown theorem tag {self.theorem!r}")
        want = set(THEOREMS[self.theorem].params)
        got = set(self.params)
        if got != want:
            missing, extra = want - got, got - want
            msg = []
            if missing:
                msg.append(f"missing {sorted(missing)}")
            if extra:
                msg.append(f"extraneous {sorted(extra)}")
            raise AdmissibilityError(f"{self.theorem}: " + ", ".join(msg))
        object.__setattr__(self, "params", {k: float(v) for k, v in self.params.items()})

    def to_dict(self) -> dict:
        return {"theorem": self.theorem, "params": dict(self.params)}


def make_spec(theorem: str, **params) -> InequalitySpec:
    """The spec of `theorem` at `params`.  A derived parameter left out (one
    the theorem's balance fixes: Sobolev's q, GN_I's θ, the CKN r and c, ...)
    is computed from the rest, and raises AdmissibilityError at its formula's
    pole; a given one is kept, and admissible() reports it when it is off."""
    thm = THEOREMS.get(theorem)
    missing = [name for name in thm.derived if name not in params] if thm else ()
    if missing and set(thm.params) - set(thm.derived) <= set(params):
        P = {k: float(v) for k, v in params.items()}
        for name in missing:
            try:
                params[name] = thm.derived[name](P)
            except ZeroDivisionError:
                raise AdmissibilityError(f"{theorem}: {name} is not defined here "
                                         f"(failed condition: defined)") from None
    return InequalitySpec(theorem, params)


# the benchmark's constructors; they go once it calls make_spec


def sobolev_spec(N, gamma, p):
    return make_spec("Sobolev", N=N, gamma=gamma, p=p)


def weighted_rellich_spec(N, gamma, a, b):
    return make_spec("WeightedRellich", N=N, gamma=gamma, a=a, b=b)


def uncertainty_spec(N, gamma, p):
    return make_spec("Uncertainty", N=N, gamma=gamma, p=p)


def gn1_spec(N, gamma, p, q, r):
    return make_spec("GN_I", N=N, gamma=gamma, p=p, q=q, r=r)


def ckn1_spec(N, gamma, p, q, b, delta):
    return make_spec("CKN_I", N=N, gamma=gamma, p=p, q=q, b=b, delta=delta)


def ckn2_spec(N, gamma, q, a, b, delta):
    return make_spec("CKN_II", N=N, gamma=gamma, q=q, a=a, b=b, delta=delta)


def ckn_fractional_spec(N, gamma, q, a, b, delta):
    return make_spec("CKN_fractional", N=N, gamma=gamma, q=q, a=a, b=b, delta=delta)


# ---------------------------------------------------------------------------
# operations


def admissible(spec: InequalitySpec) -> AdmissibilityReport:
    """Evaluate every hypothesis of the theorem at the spec's parameters: the
    shared N ≥ 1 and γ ≥ 0 first, then the theorem's own at Λ = N + 2γ."""
    P = spec.params
    try:
        conditions = [_strict("dimension", "N ≥ 1", P["N"] - 0.0),
                      _nonstrict("gamma_nonneg", "γ ≥ 0", P["gamma"]),
                      *THEOREMS[spec.theorem].conditions(P, _lam(P))]
    except ZeroDivisionError:    # a formula's pole: Sobolev's q = pΛ/(Λ-p) at p = Λ, say
        conditions = [Condition("defined", "no formula divides by zero", False, 0.0)]
    return AdmissibilityReport(tuple(conditions))


def check_admissible(spec: InequalitySpec) -> None:
    """Raise AdmissibilityError, naming the failed conditions, on an inadmissible spec."""
    rep = admissible(spec)
    if not rep.admissible:
        failed = ", ".join(c.cid for c in rep.failed)
        raise AdmissibilityError(f"{spec.theorem}: inadmissible parameters ({failed})")


def check_workbench(spec: InequalitySpec, wb: Workbench) -> None:
    """Raise WorkbenchMismatchError unless wb's Λ is the spec's N + 2γ."""
    lam = _lam(spec.params)
    if abs(lam - wb.lam) > 1e-9:
        raise WorkbenchMismatchError(f"the workbench's Λ = {wb.lam:g} does not match "
                                     f"the spec's Λ = N + 2γ = {lam:g}")


def evaluate_sides(spec: InequalitySpec, f, wb: Workbench):
    """Constant-free lhs/rhs evaluation for one function (a record), or for
    a corpus, a list or tuple of functions (a tuple of records, one per
    member, from one evaluation of each norm over the whole corpus).

    Raises AdmissibilityError on an inadmissible spec, FunctionClassError on
    a class mismatch or when f has another mode than wb,
    WorkbenchMismatchError when wb has another Λ than the spec,
    DegenerateFunctionError when rhs = 0 or a side or the ratio is not
    finite.  For a corpus, the error raised is the one that the first
    failing member raises alone.
    """
    fs, one = as_members(f)
    check_admissible(spec)
    check_workbench(spec, wb)
    # the members before the first one outside the class are evaluated first
    errors = (_class_error(spec, g, wb) for g in fs)
    cut, err = next(((j, e) for j, e in enumerate(errors) if e), (len(fs), None))
    records = _sides(THEOREMS[spec.theorem], spec.params, fs[:cut], wb) if cut else ()
    if err is not None:
        raise err
    return records[0] if one else records


def _class_error(spec: InequalitySpec, f: TestFunction,
                 wb: Workbench) -> FunctionClassError | None:
    if f.mode != wb.mode:
        return FunctionClassError(f"{f.fid} is a {f.mode} function; the workbench is {wb.mode}")
    if THEOREMS[spec.theorem].requires_vanishing and not (
            f.vanishes_at_origin or f.in_origin_closure):
        return FunctionClassError(
            f"{spec.theorem} requires functions vanishing at the origin; {f.fid} does not")
    return None


def _sides(thm: TheoremDef, P: dict, fs: list, wb: Workbench) -> tuple:
    """The records of the members of fs, all of one class, in one evaluation."""
    try:
        lhs, rhs = thm.evaluate(P, fs, wb)
    except (ValueError, ArithmeticError, RuntimeError):
        if len(fs) > 1:                # raise what the first failing member raises alone
            for f in fs:
                _sides(thm, P, [f], wb)
        raise
    records = []
    for f, left, right in zip(fs, _per_member(lhs, len(fs)), _per_member(rhs, len(fs))):
        if right == 0.0 or not math.isfinite(right):
            raise DegenerateFunctionError(f"{f.fid}: degenerate rhs = {right}")
        ratio = left / right
        if not (math.isfinite(left) and math.isfinite(ratio)):
            raise DegenerateFunctionError(f"{f.fid}: non-finite lhs = {left} or ratio = {ratio}")
        records.append(VerificationRecord(f.fid, left, right, ratio))
    return tuple(records)


def _per_member(side, m: int) -> list:
    """An evaluated side as m floats; a scalar side holds for every member."""
    return side.tolist() if isinstance(side, np.ndarray) else [side] * m


def verify_corpus(spec: InequalitySpec, corpus: Sequence[TestFunction],
                  wb: Workbench) -> CorpusVerification:
    """Evaluate a spec across a corpus; flag known-bound violations.

    With a closed-form sharp constant the bound acts as a ceiling (upper
    direction): a record violates when ratio > bound (1 + VIOLATION_RTOL).
    Without one, the sup (or inf) ratio is reported as the empirical
    constant estimate.

    The corpus is evaluated as one (evaluate_sides on the whole corpus):
    admissibility is checked once, each norm is one reduction over the
    members' stacked values, and the members' spectral fields come from one
    batched forward; a spec with no fractional side builds no transform.
    """
    if not corpus:
        raise ValueError("empty corpus")
    thm = THEOREMS[spec.theorem]
    records = evaluate_sides(spec, list(corpus), wb)
    bound = thm.known_bound(spec.params)
    violations = ()
    if bound is not None and thm.direction == "upper":
        violations = tuple(r for r in records if r.ratio > bound * (1.0 + VIOLATION_RTOL))
    ratios = [r.ratio for r in records]
    empirical = max(ratios) if thm.direction == "upper" else min(ratios)
    return CorpusVerification(records, thm.direction, bound, violations, float(empirical))


def trudinger_lhs(f, a: float, p: float, quad: WeightedQuadrature):
    """∫ (exp(a|f|^{p'}) - Σ_{0≤j<p-1} (a|f|^{p'})^j / j!) dμ_k.

    `f` is the samples of one function on quad.nodes, shape (n,) (the
    integral is a float), or the samples of m functions as rows (m, n) (one
    integral per row).  The caller normalizes f so the critical-derivative
    norm is ≤ 1.  With z = a|f|^{p'} and j0 = max(1, ⌈p-1⌉), the integrand is
    the series tail Σ_{j≥j0} z^j/j! = e^z P(j0, z), P the regularized lower
    incomplete gamma function (DLMF 8.4.10).  A z above 700, where exp
    overflows, raises SeriesCapError.
    """
    if a <= 0 or p <= 1:
        raise ValueError("need a > 0 and p > 1")
    vals = np.abs(np.asarray(f, dtype=float))
    z = a * np.atleast_2d(vals) ** (p / (p - 1.0))
    if np.any(z > 700.0):
        raise SeriesCapError("exponential overflow: a|f|^{p'} exceeds 700")
    j0 = max(1, math.ceil(p - 1.0 - 1e-12))
    integrals = np.sum(quad.weights * (np.exp(z) * sps.gammainc(j0, z)), axis=-1)
    return float(integrals[0]) if vals.ndim == 1 else integrals


def largest_admissible_a(corpus: Sequence[TestFunction], p: float, wb: Workbench,
                         ratio_bound: float) -> float:
    """Bisection for the largest a with max_f lhs(a)/‖f‖_p^p ≤ ratio_bound."""
    corpus = list(corpus)
    c = wb.frac_norm(corpus, wb.lam / p, p)
    vals = corpus_values(corpus, wb.quad.nodes) / c[:, None]
    base = (wb.norm(corpus, p) / c) ** p

    def admissible_at(a: float) -> bool:
        try:
            worst = np.max(trudinger_lhs(vals, a, p, wb.quad) / base)
        except SeriesCapError:
            return False
        return worst <= ratio_bound

    lo, hi = 0.0, A_HI
    if admissible_at(A_HI):
        return A_HI
    for _ in range(A_ITERS):
        mid = 0.5 * (lo + hi)
        if admissible_at(mid):
            lo = mid
        else:
            hi = mid
    return lo
