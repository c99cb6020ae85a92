import dataclasses
import functools
import gc
import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import dunklkit as dk
from dunklkit.functions import CORPUS_FAMILIES, generate_corpus
from dunklkit.inequalities import (VIOLATION_RTOL, AdmissibilityError,
                                   DegenerateFunctionError, FunctionClassError,
                                   InequalitySpec, SeriesCapError, THEOREMS,
                                   WorkbenchMismatchError, admissible, evaluate_sides,
                                   fractional_hardy_constant, largest_admissible_a,
                                   trudinger_lhs, verify_corpus)


def test_theorem_tags_complete():
    expected = {"ClassicalCKN_1_1", "CKN_I", "CKN_II", "CKN_fractional", "Hardy_Lp",
                "WeightedHardy", "ClassicalRellich", "WeightedRellich", "HigherRellich",
                "Uncertainty", "GN_I", "GN_II", "WeightedGN_I", "WeightedGN_II",
                "WeightedGN_III", "FractionalHardy", "Trudinger", "Sobolev"}
    assert set(THEOREMS) == expected


def test_spec_parameter_validation():
    with pytest.raises(AdmissibilityError):
        InequalitySpec("NoSuchTheorem", {})
    with pytest.raises(AdmissibilityError):
        dk.make_spec("FractionalHardy", N=3, gamma=0.0)                 # missing s
    with pytest.raises(AdmissibilityError):
        dk.make_spec("FractionalHardy", N=3, gamma=0.0, s=1.0, junk=2)  # extraneous
    # a missing parameter that a derived one needs is named, not a KeyError
    with pytest.raises(AdmissibilityError, match=r"missing \['c', 'delta', 'r'\]"):
        dk.make_spec("CKN_I", N=3, gamma=0.0, p=2.0, q=2.0, b=0.0)
    with pytest.raises(AdmissibilityError, match=r"missing \['b', 'c'\]"):
        dk.make_spec("CKN_I", N=3, gamma=0.0, p=2.0, q=2.0, r=2.0, delta=0.5)


def test_make_spec_keeps_a_given_derived_parameter():
    # a derived parameter left out is filled in; one given is kept, and an
    # inconsistent one is reported by admissible(), as for any other spec
    filled = dk.make_spec("Sobolev", N=3, gamma=0.0, p=2.0)
    assert filled.params["q"] == 6.0 and admissible(filled).admissible
    given = dk.make_spec("Sobolev", N=3, gamma=0.0, p=2.0, q=5.0)
    assert given.params["q"] == 5.0
    assert [c.cid for c in admissible(given).failed] == ["q_formula"]
    partial = dk.make_spec("CKN_I", N=3, gamma=0.5, p=1.5, q=2.5, b=0.3, delta=0.5, r=2.0)
    assert partial.params["r"] == 2.0
    assert partial.params["c"] == dk.ckn1_spec(3, 0.5, p=1.5, q=2.5, b=0.3, delta=0.5).params["c"]
    assert {c.cid for c in admissible(partial).failed} == {"balance"}


# The derived parameters of the benchmark's verify-sweep constructor specs and
# of the tests' derived specs, as float.hex of the values the constructors
# that computed them inline gave.
DERIVED_HEX = [
    (dk.sobolev_spec(3, 0.0, 2.0), {"q": "0x1.8000000000000p+2"}),
    (dk.gn1_spec(3, 0.5, p=2.0, q=3.0, r=2.0), {"theta": "0x1.5555555555556p-1"}),
    (dk.ckn1_spec(3, 0.5, p=1.5, q=2.5, b=0.3, delta=0.5),
     {"r": "0x1.e000000000000p+0", "c": "-0x1.6666666666666p-2"}),
    (dk.ckn2_spec(5, 0.0, q=2.0, a=0.5, b=0.4, delta=0.5),
     {"r": "0x1.4000000000000p+1", "c": "0x1.ccccccccccccdp-2"}),
    (dk.ckn_fractional_spec(3, 0.0, q=2.0, a=0.5, b=0.3, delta=0.5),
     {"r": "0x1.0000000000000p+1", "c": "-0x1.999999999999ap-4"}),
    (dk.uncertainty_spec(3, 0.0, 2.0), {"q": "0x1.0000000000000p+1"}),
    (dk.weighted_rellich_spec(3, 1.0, a=0.2, b=1.7), {"p": "0x1.4000000000000p+1"}),
    (dk.sobolev_spec(1, 0.5, 1.5), {"q": "0x1.8000000000000p+2"}),
    (dk.make_spec("WeightedGN_I", N=9, gamma=0.0, p=1.5, s=2.0), {"q": "0x1.ccccccccccccdp+0"}),
    (dk.make_spec("WeightedGN_II", N=9, gamma=0.0, a=1.5, s=2.5), {"p": "0x1.2000000000000p+1"}),
    (dk.make_spec("HigherRellich", N=11, gamma=0.0, a=0.0, b=3.5, j=2),
     {"p": "0x1.199999999999ap+1"}),
    (dk.make_spec("WeightedHardy", N=3, gamma=0.5, a=0.25, b=0.75),
     {"p": "0x1.5555555555555p+1"}),
    (dk.gn1_spec(3, 0.0, p=2.0, q=5.0, r=2.0), {"theta": "0x1.ccccccccccccep-1"}),
]


@pytest.mark.parametrize("spec, want", DERIVED_HEX,
                         ids=[f"{i:02d}.{s.theorem}" for i, (s, _) in enumerate(DERIVED_HEX)])
def test_derived_parameters_are_pinned_bit_for_bit(spec, want):
    assert {name: spec.params[name].hex() for name in want} == want
    assert set(want) == set(THEOREMS[spec.theorem].derived)
    # the formula residuals of the filled-in values are exactly zero
    formulas = [c for c in admissible(spec).conditions if c.cid.endswith("_formula")]
    assert all(c.residual == 0.0 for c in formulas)


def test_classical_ckn_intro_point_rejected_with_zero_residual():
    # p = q = r, b = -N/p: the inequality escapes the classical range
    spec = dk.make_spec("ClassicalCKN_1_1", N=3, gamma=0.0, p=2, q=2, r=2,
                        a=0.0, b=-1.5, d=-1.0, delta=0.5)
    rep = admissible(spec)
    assert not rep.admissible
    failed = {c.cid: c for c in rep.failed}
    assert set(failed) == {"clas_CKN0"}
    assert failed["clas_CKN0"].residual == 0.0


def test_ckn1_accepts_the_same_point():
    spec = dk.make_spec("CKN_I", N=3, gamma=0.0, p=2, q=2, r=2, b=-1.5,
                        c=-1.25, delta=0.5)
    assert admissible(spec).admissible


def test_gn1_theta_formula_special_case():
    # p = r = 2 forces θ = (N+2γ)(q-2)/(2q)
    N, g, q = 3, 0.5, 3.0
    lam = N + 2 * g
    spec = dk.gn1_spec(N, g, p=2.0, q=q, r=2.0)
    assert spec.params["theta"] == pytest.approx(lam * (q - 2) / (2 * q))
    assert admissible(spec).admissible


def test_admissibility_rejections():
    # Hardy_Lp outside 1 < p < Λ/(1+2γ)
    bad = dk.make_spec("Hardy_Lp", N=3, gamma=0.0, p=4.0)
    assert not admissible(bad).admissible
    # WeightedRellich wrong p
    bad2 = dk.make_spec("WeightedRellich", N=5, gamma=0.0, a=0.0, b=2.0, p=2.3)
    assert not admissible(bad2).admissible
    # WeightedGN_II needs Λ > 4
    bad3 = dk.make_spec("WeightedGN_II", N=3, gamma=0.0, a=1.5, s=2.0)
    assert not admissible(bad3).admissible
    # CKN_I balance violated
    bad4 = dk.make_spec("CKN_I", N=3, gamma=0.0, p=2, q=2, r=1.7, b=0.0,
                        c=-0.5, delta=0.5)
    assert not admissible(bad4).admissible


@pytest.mark.parametrize("spec, failed", [
    (dk.make_spec("Hardy_Lp", N=3, gamma=0.0, p=4.0), ["p_high"]),
    (dk.make_spec("WeightedGN_II", N=3, gamma=0.0, a=1.5, s=2.0), ["lambda_gt_4", "s_high"]),
    (dk.make_spec("CKN_I", N=3, gamma=0.0, p=2, q=2, r=1.7, b=0.0, c=-0.5, delta=1.5),
     ["delta_range", "balance", "c_formula"]),
], ids=["Hardy_Lp", "WeightedGN_II", "CKN_I"])
def test_inadmissible_spec_is_refused_naming_its_failed_conditions(spec, failed, wb_radial3):
    # evaluate_sides (one member) and verify_corpus (a corpus) raise before any
    # norm, and the message lists every failed condition id
    assert [c.cid for c in admissible(spec).failed] == failed
    want = f"{spec.theorem}: inadmissible parameters ({', '.join(failed)})"
    corpus = generate_corpus(7, 3, ["Gaussian", "HermiteGaussian"])
    for run in (lambda: evaluate_sides(spec, corpus[0], wb_radial3),
                lambda: verify_corpus(spec, corpus, wb_radial3)):
        with pytest.raises(AdmissibilityError) as info:
            run()
        assert str(info.value) == want


def test_uncertainty_gaussian_value(wb_rank1_k05):
    # Gaussian moments give exactly 1/2 at N = 1, k = 0 (evaluator arithmetic;
    # the theorem's own p-range is empty there)
    wb0 = dk.rank1_workbench(0.0)
    g = generate_corpus(1, 1, ["Gaussian"], mode="rank1")[0]
    spec = dk.make_spec("Uncertainty", N=1, gamma=0.0, p=2.0, q=2.0)
    rec = evaluate_sides(spec, g, wb0, enforce_hypotheses=False)
    assert rec.ratio == pytest.approx(0.5, rel=1e-8)


def test_uncertainty_admissible_case(wb_radial3):
    g = generate_corpus(1, 1, ["Gaussian"], mode="radial")[0]
    spec = dk.uncertainty_spec(3, 0.0, 2.0)
    rec = evaluate_sides(spec, g, wb_radial3)
    # dimension-Λ Gaussian moments: ratio = Λ/2
    assert rec.ratio == pytest.approx(1.5, rel=1e-8)


def test_fractional_hardy_constant_values():
    assert fractional_hardy_constant(3, 0.0, 0.0) == pytest.approx(1.0)
    assert fractional_hardy_constant(3, 0.0, 1.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        fractional_hardy_constant(3, 0.0, 1.6)


def test_fractional_hardy_gaussian_ratio(wb_radial3):
    g = generate_corpus(1, 1, ["Gaussian"], mode="radial")[0]
    spec = dk.make_spec("FractionalHardy", N=3, gamma=0.0, s=1.0)
    rec = evaluate_sides(spec, g, wb_radial3)
    # Γ moments: ratio² = Γ(1/2)/Γ(5/2) = 4/3
    assert rec.ratio == pytest.approx(2.0 / np.sqrt(3.0), rel=1e-8)
    assert rec.ratio <= 2.0


def test_classical_rellich_corpus(wb_radial5):
    corpus = generate_corpus(11, 10, ["HermiteGaussian", "SeededSuperposition"],
                             {"vanish_at_origin": True}, mode="radial")
    spec = dk.make_spec("ClassicalRellich", N=5, gamma=0.0)
    res = verify_corpus(spec, corpus, wb_radial5)
    assert res.known_bound == pytest.approx(4.0 / 5.0)
    assert not res.violations
    assert res.empirical_constant <= 0.8


def test_class_gate(wb_radial5):
    g = generate_corpus(1, 1, ["Gaussian"], mode="radial")[0]
    spec = dk.make_spec("ClassicalRellich", N=5, gamma=0.0)
    with pytest.raises(FunctionClassError):
        evaluate_sides(spec, g, wb_radial5)


def test_degenerate_function_rejected(wb_radial3):
    zero = generate_corpus(1, 1, ["Gaussian"], mode="radial")[0]
    zero = zero._rewrap((zero.components[0].__class__(0.0, (0.0,), 1.0),), "~zero")
    spec = dk.make_spec("FractionalHardy", N=3, gamma=0.0, s=1.0)
    with pytest.raises(DegenerateFunctionError):
        evaluate_sides(spec, zero, wb_radial3)


def test_nonfinite_lhs_rejected(wb_radial3, monkeypatch):
    # a NaN side must not reach verify_corpus, where it would make the
    # empirical constant depend on corpus order
    thm = THEOREMS["FractionalHardy"]
    monkeypatch.setitem(THEOREMS, "FractionalHardy",
                        dataclasses.replace(thm, evaluate=lambda P, f, wb: (float("nan"), 1.0)))
    g = generate_corpus(1, 1, ["Gaussian"], mode="radial")[0]
    spec = dk.make_spec("FractionalHardy", N=3, gamma=0.0, s=1.0)
    with pytest.raises(DegenerateFunctionError):
        evaluate_sides(spec, g, wb_radial3)


def test_weighted_rellich_reduces_to_classical(wb_radial5):
    # a=0, b=2 gives p=2 and the classical Rellich record
    corpus = generate_corpus(13, 4, ["HermiteGaussian"], {"vanish_at_origin": True},
                             mode="radial")
    wspec = dk.weighted_rellich_spec(5, 0.0, a=0.0, b=2.0)
    assert wspec.params["p"] == pytest.approx(2.0)
    cspec = dk.make_spec("ClassicalRellich", N=5, gamma=0.0)
    for f in corpus:
        rw = evaluate_sides(wspec, f, wb_radial5)
        rc = evaluate_sides(cspec, f, wb_radial5)
        assert rw.ratio == pytest.approx(rc.ratio, rel=1e-10)


def test_higher_rellich_j2(wb_radial5=None):
    # j=2 at Λ=11 (richer admissible window), vanish-at-origin corpus
    wb = dk.radial_workbench(11, 0.0)
    spec = dk.make_spec("HigherRellich", N=11, gamma=0.0, a=0.0, b=3.5, j=2)
    assert admissible(spec).admissible
    corpus = generate_corpus(3, 4, ["HermiteGaussian"], {"vanish_at_origin": True},
                             mode="radial")
    res = verify_corpus(spec, corpus, wb)
    assert np.isfinite(res.empirical_constant) and res.empirical_constant > 0


def test_sobolev_and_hardy(wb_radial3):
    corpus = generate_corpus(19, 4, ["Gaussian", "HermiteGaussian"], mode="radial")
    res = verify_corpus(dk.sobolev_spec(3, 0.0, 2.0), corpus, wb_radial3)
    assert res.empirical_constant > 0
    res2 = verify_corpus(dk.make_spec("Hardy_Lp", N=3, gamma=0.0, p=1.5),
                         corpus, wb_radial3)
    assert res2.empirical_constant > 0


def test_gn2_and_weighted_gn(wb_radial3):
    corpus = generate_corpus(23, 3, ["Gaussian", "DilatedGaussian"], mode="radial")
    gn2 = dk.make_spec("GN_II", N=3, gamma=0.0, p=2.0, s=1.5, theta=0.4)
    res = verify_corpus(gn2, corpus, wb_radial3)
    assert res.empirical_constant > 0
    wgn3 = dk.make_spec("WeightedGN_III", N=3, gamma=0.0, a=0.5, s=1.0)
    res3 = verify_corpus(wgn3, corpus, wb_radial3)
    assert res3.empirical_constant > 0
    # a = s reduces WeightedGN_III to the fractional Hardy ratio
    wgn_eq = dk.make_spec("WeightedGN_III", N=3, gamma=0.0, a=1.0, s=1.0)
    fh = dk.make_spec("FractionalHardy", N=3, gamma=0.0, s=1.0)
    f = corpus[0]
    assert evaluate_sides(wgn_eq, f, wb_radial3).ratio == pytest.approx(
        evaluate_sides(fh, f, wb_radial3).ratio, rel=1e-10)


def test_wgn1_wgn2(wb_radial5=None):
    wb = dk.radial_workbench(9, 0.0)
    corpus = generate_corpus(29, 3, ["HermiteGaussian"], {"vanish_at_origin": True},
                             mode="radial")
    wgn1 = dk.make_spec("WeightedGN_I", N=9, gamma=0.0, p=1.5, s=2.0)
    assert admissible(wgn1).admissible
    assert verify_corpus(wgn1, corpus, wb).empirical_constant > 0
    wgn2 = dk.make_spec("WeightedGN_II", N=9, gamma=0.0, a=1.5, s=2.5)
    assert admissible(wgn2).admissible
    assert verify_corpus(wgn2, corpus, wb).empirical_constant > 0


@pytest.mark.parametrize("mode", ["radial", "rank1"])
def test_wgn3_at_s0_compares_a_norm_with_itself(mode):
    # a = s = 0 runs the s = 0 branch of WeightedGN_III: both sides are the
    # unweighted L² norm, so every ratio is 1 exactly
    N, gamma, wb = ((3, 0.0, dk.radial_workbench(3, 0.0)) if mode == "radial"
                    else (1, 0.5, dk.rank1_workbench(0.5)))
    spec = dk.make_spec("WeightedGN_III", N=N, gamma=gamma, a=0.0, s=0.0)
    assert admissible(spec).admissible
    corpus = generate_corpus(5, 12, list(CORPUS_FAMILIES), mode=mode)
    records = verify_corpus(spec, corpus, wb).records
    assert len(records) == 12 and all(r.ratio == 1.0 for r in records)


@functools.lru_cache(maxsize=None)
def _radial_workbench(N, gamma):
    return dk.radial_workbench(N, gamma)


@settings(derandomize=True, deadline=None, max_examples=12)
@given(seed=st.integers(0, 2 ** 16),
       setting=st.sampled_from([(3, 0.0, 0.0), (3, 0.0, -0.5), (3, 0.5, 0.25), (5, 0.0, 0.5)]))
def test_weighted_hardy_stays_below_its_sharp_constant(seed, setting):
    # b = a+1 gives p = 2, and on radial f the display is the one-dimensional
    # weighted Hardy inequality with sharp constant 2/(Λ-2-2a)
    N, gamma, a = setting
    spec = dk.make_spec("WeightedHardy", N=N, gamma=gamma, a=a, b=a + 1.0)
    assert spec.params["p"] == 2.0 and admissible(spec).admissible
    corpus = generate_corpus(seed, 6, list(CORPUS_FAMILIES), mode="radial")
    res = verify_corpus(spec, corpus, _radial_workbench(N, gamma))
    ceiling = 2.0 / (N + 2.0 * gamma - 2.0 - 2.0 * a) * (1.0 + VIOLATION_RTOL)
    assert all(0.0 < r.ratio <= ceiling for r in res.records), (res.records, ceiling)


@pytest.mark.parametrize("N, seed", [(3, 11), (5, 12)])
def test_classical_ckn_at_the_hardy_point_is_hardy_bit_for_bit(N, seed):
    # p = q = r = 2, a = b = 0, d = -1, δ = 1 gives c = -1: the classical CKN
    # display is Hardy's at p = 2, and its gradient side has the power 1
    ckn = dk.make_spec("ClassicalCKN_1_1", N=N, gamma=0.0, p=2.0, q=2.0, r=2.0,
                       a=0.0, b=0.0, d=-1.0, delta=1.0)
    hardy = dk.make_spec("Hardy_Lp", N=N, gamma=0.0, p=2.0)
    assert admissible(ckn).admissible and admissible(hardy).admissible
    corpus = generate_corpus(seed, 8, list(CORPUS_FAMILIES), mode="radial")
    wb = _radial_workbench(N, 0.0)
    assert verify_corpus(ckn, corpus, wb).records == verify_corpus(hardy, corpus, wb).records


def test_ckn_fractional_known_bound(wb_radial3):
    spec = dk.ckn_fractional_spec(3, 0.0, q=2.0, a=0.5, b=0.3, delta=0.5)
    corpus = generate_corpus(31, 6, ["Gaussian", "DilatedGaussian", "HermiteGaussian"],
                             mode="radial")
    res = verify_corpus(spec, corpus, wb_radial3)
    expect = 1.0 / fractional_hardy_constant(3, 0.0, 0.5) ** 0.5
    assert res.known_bound == pytest.approx(expect)
    assert not res.violations


def test_trudinger_basics(wb_radial3):
    g = generate_corpus(1, 1, ["Gaussian"], mode="radial")[0]
    vals = g.value(wb_radial3.quad.nodes)
    a = 0.4
    lhs = trudinger_lhs(vals, a, 2.0, wb_radial3.quad)
    direct = float(np.sum(wb_radial3.quad.weights * (np.exp(a * vals ** 2) - 1.0)))
    assert lhs == pytest.approx(direct, rel=1e-12)
    assert trudinger_lhs(np.zeros_like(vals), 1.0, 2.0, wb_radial3.quad) == 0.0
    # small-amplitude leading order for non-integer p (first kept term j0 = 2)
    eps, p = 1e-5, 2.5
    pp = p / (p - 1.0)
    z = a * (eps * np.abs(vals)) ** pp
    lead = float(np.sum(wb_radial3.quad.weights * z ** 2 / 2.0))
    assert trudinger_lhs(eps * vals, a, p, wb_radial3.quad) == pytest.approx(lead, rel=1e-6)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(p=st.floats(1.0, 8.0, exclude_min=True), a=st.floats(0.05, 5.0),
       log_z=st.floats(-12.0, math.log10(700.0)))
@example(p=2.5, a=1.0, log_z=math.log10(40.0))     # the old series/exp switch
@example(p=7.3, a=0.4, log_z=0.5)
def test_trudinger_lhs_is_the_series_tail(p, a, log_z):
    # one node of unit weight: the integral is the integrand Σ_{j≥j0} z^j/j! at
    # one z, against mpmath's z^{j0}/j0! ₁F₁(1; j0+1; z) at the z the function
    # forms (an ulp of z moves e^z by z ulps near z = 700)
    pp = p / (p - 1.0)
    f = np.array([(10.0 ** log_z / a) ** (1.0 / pp)])
    z = float((a * np.abs(f) ** pp)[0])
    assume(0.0 < z <= 700.0)
    j0 = max(1, math.ceil(p - 1.0 - 1e-12))
    with mpmath.workdps(40):
        zm = mpmath.mpf(z)
        tail = float(zm ** j0 / mpmath.factorial(j0) * mpmath.hyp1f1(1, j0 + 1, zm))
    lhs = trudinger_lhs(f, a, p, SimpleNamespace(weights=np.array([1.0])))
    assert lhs == pytest.approx(tail, rel=1e-13, abs=0.0)


def test_trudinger_lhs_just_above_p_one():
    # p - 1 = 1e-13 < 1e-12: the sum Σ_{0≤j<p-1} still holds j = 0, so the tail
    # starts at j0 = 1 (e^z - 1), and z = 0 gives 0, not gammainc(0, 0) = NaN
    quad = SimpleNamespace(weights=np.array([1.0, 1.0]))
    lhs = trudinger_lhs(np.array([0.0, 1.0]), 0.5, 1.0 + 1e-13, quad)
    assert lhs == pytest.approx(math.expm1(0.5), rel=1e-13, abs=0.0)


def test_trudinger_evaluate_monotone_in_a(wb_radial3):
    g = generate_corpus(1, 1, ["Gaussian"], mode="radial")[0]
    r1 = evaluate_sides(dk.make_spec("Trudinger", N=3, gamma=0.0, p=2.0, a=0.3),
                        g, wb_radial3)
    r2 = evaluate_sides(dk.make_spec("Trudinger", N=3, gamma=0.0, p=2.0, a=0.6),
                        g, wb_radial3)
    assert r2.ratio > r1.ratio > 0


def test_trudinger_overflow_guard(wb_radial3):
    g = generate_corpus(1, 1, ["Gaussian"], mode="radial")[0]
    with pytest.raises(SeriesCapError):
        trudinger_lhs(50.0 * g.value(wb_radial3.quad.nodes), 1.0, 2.0, wb_radial3.quad)


def test_largest_admissible_a_bisection(wb_radial3):
    corpus = generate_corpus(21, 3, ["Gaussian", "DilatedGaussian"], mode="radial")
    a_star = largest_admissible_a(corpus, 2.0, wb_radial3, ratio_bound=2.0)
    assert a_star > 0
    # the reported a keeps the corpus below the bound
    lam = wb_radial3.lam
    for f in corpus:
        c = wb_radial3.frac_norm(f, lam / 2.0, 2.0)
        vals = f.value(wb_radial3.quad.nodes) / c
        lhs = trudinger_lhs(vals, a_star, 2.0, wb_radial3.quad)
        assert lhs / (wb_radial3.norm(f, 2.0) / c) ** 2 <= 2.0 * (1 + 1e-9)


def test_empty_corpus_rejected(wb_radial3):
    spec = dk.make_spec("FractionalHardy", N=3, gamma=0.0, s=1.0)
    with pytest.raises(ValueError):
        verify_corpus(spec, [], wb_radial3)


def test_workbench_mismatch_rejected(wb_radial3):
    spec = dk.make_spec("FractionalHardy", N=5, gamma=0.0, s=1.0)
    g = generate_corpus(1, 1, ["Gaussian"], mode="radial")[0]
    with pytest.raises(ValueError):
        evaluate_sides(spec, g, wb_radial3)


def test_workbench_mismatch_has_package_type(wb_radial3):
    spec = dk.make_spec("FractionalHardy", N=3, gamma=0.5, s=1.0)
    g = generate_corpus(1, 1, ["Gaussian"], mode="radial")[0]
    with pytest.raises(WorkbenchMismatchError, match="does not match"):
        evaluate_sides(spec, g, wb_radial3)
    assert issubclass(WorkbenchMismatchError, ValueError)


@pytest.mark.parametrize("wb_mode, corpus_mode", [("radial", "rank1"), ("rank1", "radial")])
def test_function_of_another_mode_rejected(wb_mode, corpus_mode):
    # the sides would be finite but meaningless: a rank-1 function on a radial
    # rule reads only its r > 0 half, a radial one on the line is even
    if wb_mode == "radial":
        wb, spec = dk.radial_workbench(3, 0.0, resolution=64, xi_resolution=64), \
            dk.make_spec("FractionalHardy", N=3, gamma=0.0, s=1.0)
    else:
        wb, spec = dk.rank1_workbench(0.5, resolution=64, xi_resolution=64), \
            dk.make_spec("FractionalHardy", N=1, gamma=0.5, s=0.5)
    corpus = generate_corpus(3, 2, ["HermiteGaussian", "SeededSuperposition"], mode=corpus_mode)
    with pytest.raises(FunctionClassError, match="workbench is"):
        evaluate_sides(spec, corpus[0], wb)
    with pytest.raises(FunctionClassError, match="workbench is"):
        verify_corpus(spec, corpus, wb)
    for f in corpus:              # the gate is not a hypothesis check
        with pytest.raises(FunctionClassError):
            evaluate_sides(spec, f, wb, enforce_hypotheses=False)


def _small_radial3():
    return dk.radial_workbench(3, 0.0, resolution=64, xi_resolution=64)


def test_spec_without_fractional_side_builds_no_transform():
    wb = _small_radial3()
    corpus = generate_corpus(5, 6, ["Gaussian", "HermiteGaussian"], mode="radial")
    verify_corpus(dk.make_spec("Hardy_Lp", N=3, gamma=0.0, p=2.0), corpus, wb)
    assert wb._transform is None and len(wb._fields) == 0


def test_batched_fields_live_as_long_as_their_functions():
    wb = _small_radial3()
    corpus = generate_corpus(5, 6, ["Gaussian", "HermiteGaussian"], mode="radial")
    verify_corpus(dk.make_spec("FractionalHardy", N=3, gamma=0.0, s=1.0), corpus, wb)
    assert len(wb._fields) == 6
    del corpus
    gc.collect()
    assert len(wb._fields) == 0


@pytest.mark.parametrize("mode", ["radial", "rank1"])
def test_corpus_is_transformed_in_one_batch(mode, monkeypatch):
    if mode == "radial":
        wb, specs = _small_radial3(), [dk.make_spec("FractionalHardy", N=3, gamma=0.0, s=1.0),
                                       dk.sobolev_spec(3, 0.0, 2.0)]
    else:
        wb, specs = dk.rank1_workbench(0.5, resolution=64, xi_resolution=64), \
            [dk.make_spec("FractionalHardy", N=1, gamma=0.5, s=0.5),
             dk.sobolev_spec(1, 0.5, 1.5)]
    tr, shapes = wb.transform, []
    forward = tr.forward
    monkeypatch.setattr(tr, "forward", lambda v: shapes.append(np.shape(v)) or forward(v))
    corpus = generate_corpus(7, 12, ["Gaussian", "DilatedGaussian", "HermiteGaussian",
                                     "SeededSuperposition"], mode=mode)
    n = wb.quad.npoints
    first = verify_corpus(specs[0], corpus, wb)
    assert shapes == [(n, 12)]           # the whole corpus in one forward
    verify_corpus(specs[1], corpus, wb)
    assert len(shapes) == 1              # every field is cached already
    # a one-column batch is the 1-D apply bit for bit; a wider one is a
    # matmul, which may round differently
    fresh = dk.Workbench(wb.mode, wb.N, wb.gamma, wb.quad, wb.xi_quad, tr)
    assert np.array_equal(fresh.spectral(corpus[0]).values,
                          forward(corpus[0].value(wb.quad.nodes)).values)
    for f, rec in zip(corpus, first.records):
        want = evaluate_sides(specs[0], f, fresh)
        assert rec.ratio == pytest.approx(want.ratio, rel=1e-13, abs=0.0)


def _raised(evaluate):
    with pytest.raises(Exception) as info:
        evaluate()
    return info.type, str(info.value)


def _member(fid, beta, coeffs, s=1.0):
    comp = dk.RadialPG(beta, coeffs, s)
    return dk.TestFunction(fid, "HermiteGaussian", "radial", {}, (comp,))


@pytest.mark.parametrize("spec, bad", [
    # r^{-1.3}: |x|^{-1.5} |f|^{1.5} r² is not integrable at the origin
    (dk.make_spec("Hardy_Lp", N=3, gamma=0.0, p=1.5), {"nonintegrable": 1, "zero": 4}),
    (dk.make_spec("Hardy_Lp", N=3, gamma=0.0, p=1.5), {"zero": 1, "nonintegrable": 4}),
    (dk.make_spec("FractionalHardy", N=3, gamma=0.0, s=1.0), {"zero": 0, "nonintegrable": 3}),
    (dk.make_spec("Trudinger", N=3, gamma=0.0, p=2.0, a=0.3), {"zero": 5}),
    # a member outside the Rellich class after a degenerate one, and before one
    (dk.make_spec("ClassicalRellich", N=5, gamma=0.0), {"zero": 2, "nonvanishing": 3}),
    (dk.make_spec("ClassicalRellich", N=5, gamma=0.0), {"nonvanishing": 1, "zero": 3}),
], ids=["nonintegrable-first", "degenerate-first", "fractional", "trudinger",
        "class-after-degenerate", "class-first"])
def test_corpus_raises_what_its_first_failing_member_raises(spec, bad):
    # the corpus is evaluated as arrays, so its norms see every member at
    # once; the error must still be the one, with the message, that the
    # first failing member raises when the members are evaluated one by one
    wb = dk.radial_workbench(int(spec.params["N"]), 0.0, resolution=160, xi_resolution=160)
    corpus = [_member(f"ok-{j}", 0.0, (0.0, 1.0, 0.3 * j), 1.0 + 0.1 * j) for j in range(6)]
    for kind, j in bad.items():
        corpus[j] = {"zero": _member(f"zero-{j}", 2.0, (0.0,)),        # r² · 0
                     "nonintegrable": _member(f"rpow-{j}", -1.3, (1.0,)),
                     "nonvanishing": _member(f"gauss-{j}", 0.0, (1.0,))}[kind]
    want = None
    for f in corpus:
        try:
            evaluate_sides(spec, f, wb)
        except Exception as exc:             # noqa: BLE001 - compared below
            want = (type(exc), str(exc))
            break
    assert want is not None and want[0] is not AssertionError
    assert _raised(lambda: verify_corpus(spec, corpus, wb)) == want
    assert _raised(lambda: evaluate_sides(spec, corpus, wb)) == want
