import math

import numpy as np
import pytest
from scipy import special as sps

from dunklkit.functions import CorpusError, RadialPG, TestFunction, generate_corpus
from dunklkit.measure import (NonIntegrableWeightError, QuadratureError, QuadratureInputError,
                              _axis_quadrature, _half_axis_rule, build_quadrature,
                              exact_macdonald_mehta, macdonald_mehta,
                              radial_quadrature, rank1_quadrature, surface_constant,
                              weighted_lp_norm)
from dunklkit.rootsys import build_root_system
from oracles import half_axis_rule_loop


def test_classical_gauss_integral():
    q = rank1_quadrature(0.0, 12.0, 420)
    assert q.integrate(lambda x: np.exp(-x * x)) == pytest.approx(np.sqrt(np.pi), abs=1e-10)


def test_macdonald_mehta_rank1_closed_form():
    for k in (0.25, 0.5, 1.5):
        rs = build_root_system("Rank1Z2", 1, [k])
        q = build_quadrature(rs, "TensorGaussLike", rmax=14.0, resolution=420)
        exact = 2.0 ** (2 * k + 0.5) * sps.gamma(k + 0.5)
        assert macdonald_mehta(q) == pytest.approx(exact, rel=1e-8)
        assert exact_macdonald_mehta(rs) == pytest.approx(exact)


def test_macdonald_mehta_k0_and_product():
    rs0 = build_root_system("ProductZ2N", 2, [0.0, 0.0])
    assert exact_macdonald_mehta(rs0) == pytest.approx(2 * np.pi)
    rs = build_root_system("ProductZ2N", 2, [0.3, 0.8])
    # separability: product of rank-1 values
    expect = np.prod([2.0 ** (2 * k + 0.5) * sps.gamma(k + 0.5) for k in (0.3, 0.8)])
    assert exact_macdonald_mehta(rs) == pytest.approx(expect)


def test_tensor_gauss_like_is_rank1_only():
    # a 2-D root system has no TensorGaussLike rule; its radial rule still builds
    rs = build_root_system("ProductZ2N", 2, [0.3, 0.8])
    with pytest.raises(QuadratureError, match="PolarProduct"):
        build_quadrature(rs, "TensorGaussLike", rmax=10.0, resolution=140)
    q = build_quadrature(rs, "PolarProduct", rmax=10.0, resolution=140)
    assert q.kind == "radial"
    assert macdonald_mehta(q) == pytest.approx(exact_macdonald_mehta(rs), rel=1e-10)


def test_radial_rule_matches_closed_form():
    # ∫ e^{-r²/2} dμ over the radial rule = d · 2^{Λ/2-1} Γ(Λ/2)
    for N, g in ((3, 0.0), (5, 0.0), (3, 0.7)):
        lam = N + 2 * g
        q = radial_quadrature(N, g, 14.0, 420)
        expect = surface_constant(N, g) * 2.0 ** (lam / 2 - 1) * sps.gamma(lam / 2)
        assert macdonald_mehta(q) == pytest.approx(expect, rel=1e-10)


def test_gaussian_l2_norm():
    q = rank1_quadrature(0.0, 12.0, 420)
    val = weighted_lp_norm(lambda x: np.exp(-0.5 * x * x), 2.0, 0.0, q)
    assert val == pytest.approx(np.pi ** 0.25, rel=1e-10)


def test_norm_of_samples_is_the_norm_of_their_callable():
    # samples on the rule's nodes: one row is one norm, a matrix one per row;
    # they take no power weight, since a weighted rule has other nodes
    q = radial_quadrature(3, 0.0, 10.0, 200)
    rows = np.array([np.exp(-0.5 * c * q.nodes ** 2) for c in (0.5, 1.0, 2.0)])
    want = [weighted_lp_norm(lambda x, c=c: np.exp(-0.5 * c * x * x), 3.0, 0.0, q)
            for c in (0.5, 1.0, 2.0)]
    assert weighted_lp_norm(rows[1], 3.0, 0.0, q) == want[1]
    assert weighted_lp_norm(rows, 3.0, 0.0, q).tolist() == want
    with pytest.raises(QuadratureError, match="no power weight"):
        weighted_lp_norm(rows, 3.0, 1.0, q)


def test_zero_function():
    q = radial_quadrature(3, 0.0, 10.0, 200)
    assert weighted_lp_norm(lambda r: 0.0 * r, 2.0, 1.7, q) == 0.0


def test_norm_dilation_law():
    # ||f(λ·)||_p = λ^{-(N+2γ)/p} ||f||_p for a = 0
    for mode, lam_dim in (("radial", 3 + 2 * 0.4), ("rank1", 1 + 2 * 0.7)):
        if mode == "radial":
            q = radial_quadrature(3, 0.4, 30.0, 1600)
        else:
            q = rank1_quadrature(0.7, 30.0, 1600)
        f = generate_corpus(3, 1, ["HermiteGaussian"], mode=mode)[0]
        for p in (1.0, 2.0, 3.5):
            base = weighted_lp_norm(f, p, 0.0, q)
            for lam in (1 / 3, 2.0, 7.0):
                scaled = weighted_lp_norm(f.dilate(lam), p, 0.0, q)
                assert scaled == pytest.approx(lam ** (-lam_dim / p) * base, rel=1e-6)


def test_hoelder_sanity():
    q = radial_quadrature(3, 0.0, 16.0, 480)
    corpus = generate_corpus(11, 6, ["Gaussian", "DilatedGaussian", "HermiteGaussian"],
                             mode="radial")
    for f, g in zip(corpus[:3], corpus[3:]):
        prod = weighted_lp_norm(lambda r: f.value(r) * g.value(r), 1.0, 0.0, q)
        for p in (1.5, 2.0, 3.0):
            pe = p / (p - 1.0)
            assert prod <= weighted_lp_norm(f, p, 0.0, q) * weighted_lp_norm(g, pe, 0.0, q) * (1 + 1e-12)


def test_quadrature_exactness_poly_gaussian():
    # polynomial × Gaussian integrates to its Γ closed form
    lam = 5.0
    q = radial_quadrature(5, 0.0, 16.0, 480)
    f = RadialPG(0.0, (1.0, -0.5, 0.25), 1.3)
    exact = f.weighted_l2_exact(0.7, lam, surface_const=q.recipe["const"])
    got = weighted_lp_norm(
        lambda r: np.abs(f.value(r)), 2.0, 0.7, q) ** 2
    assert got == pytest.approx(exact, rel=1e-8)


def test_resolution_doubling_improves():
    # oscillatory smooth integrand, coarse enough that the rule is not
    # already at the floor
    q = radial_quadrature(3, 0.6, 12.0, 160)

    def f(r):
        return np.cos(9.0 * r) * np.exp(-0.125 * r * r)
    ref = radial_quadrature(3, 0.6, 12.0, 2560).integrate(f)
    e1 = abs(q.integrate(f) - ref)
    e2 = abs(q.refined().integrate(f) - ref)
    assert e1 >= 10.0 * e2 or e2 < 1e-14


def test_refined_is_the_rule_at_higher_resolution():
    for build in (lambda res: rank1_quadrature(0.7, 12.0, res),
                  lambda res: radial_quadrature(3, 0.6, 12.0, res)):
        fine, want = build(160).refined(), build(320)
        np.testing.assert_array_equal(fine.nodes, want.nodes)
        np.testing.assert_array_equal(fine.weights, want.weights)
        # a power-weighted rule keeps its power weight
        np.testing.assert_array_equal(build(160).with_power(1.5).refined().weights,
                                      want.with_power(1.5).weights)


def test_half_axis_rule_is_the_panel_loop_bit_for_bit():
    # rmax > 100: purely geometric; rmax ≤ 8: r_mid = rmax/8 (and r0 = rmax/64
    # below 1.28); σ down to the integrability edge; resolution from its floor
    for sigma in (-0.999, -0.9, -0.5, 0.0, 0.5, 1.0, 2.0, 2.4, 6.0):
        for rmax in (0.5, 1.0, 1.28, 5.0, 8.0, 12.0, 30.0, 100.0, 100.5, 1e3, 1e12, 1e30):
            for resolution in (16, 17, 160, 420, 1000, 3000):
                got = _half_axis_rule(sigma, rmax, resolution)
                want = half_axis_rule_loop(sigma, rmax, resolution)
                for g, w in zip(got, want):
                    assert np.array_equal(g, w), (sigma, rmax, resolution)


def test_rules_are_built_once_and_read_only():
    q = radial_quadrature(3, 0.5, 14.0, 420)
    assert q.with_power(1.7) is q.with_power(1.7)
    assert radial_quadrature(3, 0.5, 14.0, 420) is q
    # the power weight survives refinement, and both routes share one rule
    assert q.with_power(1.5).refined() is q.refined().with_power(1.5)
    assert not np.array_equal(q.with_power(1.5).refined().weights, q.refined().weights)
    for rule in (q, q.with_power(-0.8), rank1_quadrature(0.5, 12.0, 160)):
        for arr in (rule.nodes, rule.weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        with pytest.raises(TypeError):
            rule.recipe["resolution"] = 32
    assert _axis_quadrature.cache_info().maxsize == 256
    for i in range(300):
        radial_quadrature(3, 0.0, 10.0 + i, 64)
    assert _axis_quadrature.cache_info().currsize == 256


def test_bad_rule_requests_raise_every_time():
    q = radial_quadrature(3, 0.0, 14.0, 420)
    for _ in range(3):                                      # exceptions are not cached
        with pytest.raises(NonIntegrableWeightError):
            q.with_power(-4.5)
        with pytest.raises(NonIntegrableWeightError):
            _axis_quadrature("radial", -1.2, 1.0, 14.0, 420)
        with pytest.raises(QuadratureError):
            radial_quadrature(3, 0.0, 14.0, 8)
        with pytest.raises(QuadratureError):
            rank1_quadrature(0.5, 0.0, 160)


def test_rule_input_errors_are_their_own_type():
    # bad parameters are input errors; a non-integrable weight is not
    for build in (lambda: radial_quadrature(3, 0.0, 14.0, 8),
                  lambda: rank1_quadrature(0.5, 0.0, 160),
                  lambda: rank1_quadrature(-0.5, 14.0, 160),
                  lambda: radial_quadrature(1, -0.5, 14.0, 160),
                  # Λ past LAMBDA_MAX = 100: 1 + 2k = 100.2, N + 2γ = 101
                  lambda: rank1_quadrature(49.6, 14.0, 160),
                  lambda: radial_quadrature(1, 50.0, 14.0, 160)):
        with pytest.raises(QuadratureInputError):
            build()
    with pytest.raises(NonIntegrableWeightError) as info:
        radial_quadrature(3, 0.0, 14.0, 420).with_power(-4.5)
    assert not isinstance(info.value, QuadratureInputError)


@pytest.mark.parametrize("build", [
    lambda: radial_quadrature(3, 0.0, math.nan, 640),
    lambda: radial_quadrature(3, 0.0, math.inf, 640),
    lambda: rank1_quadrature(0.5, math.nan, 640),
    lambda: radial_quadrature(3, 0.0, 16.0, 640).with_power(math.nan),
    lambda: radial_quadrature(3, 0.0, 16.0, 640).with_power(math.inf),
], ids=["rmax=nan", "rmax=inf", "rank1-rmax=nan", "sigma=nan", "sigma=inf"])
def test_non_finite_rule_inputs_are_input_errors(build):
    # a NaN or infinite rmax used to give a rule with NaN and inf nodes; the
    # origin exponent reaches the rule builder through with_power
    for _ in range(2):                                      # refusals are not cached
        with pytest.raises(QuadratureInputError):
            build()


def test_quasi_norm_small_p():
    q = radial_quadrature(3, 0.0, 14.0, 420)
    f = generate_corpus(1, 1, ["Gaussian"], mode="radial")[0]
    v = weighted_lp_norm(f, 0.7, 0.0, q)
    assert np.isfinite(v) and v > 0


def test_nonintegrable_rejection():
    q = radial_quadrature(3, 0.0, 14.0, 420)
    f = generate_corpus(1, 1, ["Gaussian"], mode="radial")[0]   # no vanishing
    with pytest.raises(NonIntegrableWeightError):
        weighted_lp_norm(f, 2.0, -1.6, q)                       # -3.2 + 3 < 0


def test_annular_member_allows_deep_negative_powers():
    q = radial_quadrature(3, 0.0, 14.0, 420)
    f = generate_corpus(4, 1, ["AnnularBump"], mode="radial")[0]
    v = weighted_lp_norm(f, 2.0, -4.0, q)
    assert np.isfinite(v) and v > 0


def test_with_power_is_exact_for_singular_weights():
    # against the Γ closed form with a weight power that makes the origin hot
    q = radial_quadrature(5, 0.0, 16.0, 480)
    f = RadialPG(-0.4, (1.0,), 1.0)
    exact = f.weighted_l2_exact(-1.9, 5.0, surface_const=q.recipe["const"])
    got = weighted_lp_norm(TestFunction("r^-0.4", "PowerGaussian", "radial", {}, (f,)),
                           2.0, -1.9, q) ** 2
    assert got == pytest.approx(exact, rel=1e-9)


def test_corpus_determinism_and_constraints():
    a = generate_corpus(1, 5, ["Gaussian"], mode="radial")
    b = generate_corpus(1, 5, ["Gaussian"], mode="radial")
    assert [f.params for f in a] == [f.params for f in b]
    c = generate_corpus(9, 8, ["HermiteGaussian", "AnnularBump"],
                        {"vanish_at_origin": True}, mode="radial")
    assert all(f.vanishes_at_origin for f in c)
    with pytest.raises(CorpusError, match="count must be ≥ 1, got 0"):
        generate_corpus(1, 0, ["Gaussian"])
    with pytest.raises(CorpusError, match="empty corpus family list"):
        generate_corpus(1, 3, [])
    with pytest.raises(CorpusError, match=r"unknown corpus families \['NoSuchFamily'\]"):
        generate_corpus(1, 3, ["NoSuchFamily"])


def test_surface_constant_dihedral():
    from dunklkit.measure import surface_constant_for
    # I2(3), k=1/2: the product of the three |⟨α,ω⟩| factors reduces to
    # 2^{3/2}|cos 3θ|/4, whose circle integral gives d = 2√2 exactly
    rs = build_root_system("DihedralI2m", 2, [0.5], m=3)
    assert surface_constant_for(rs) == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-13)
    # non-integer multiplicities: fine-Simpson cross-check
    rs2 = build_root_system("DihedralI2m", 2, [0.3, 0.8], m=4)
    from dunklkit.rootsys import weight as rs_weight
    from scipy.integrate import simpson
    t = np.linspace(0.0, 2 * np.pi, 400001)
    ref = simpson(rs_weight(rs2, np.column_stack([np.cos(t), np.sin(t)])), x=t)
    assert surface_constant_for(rs2) == pytest.approx(ref, rel=1e-7)
