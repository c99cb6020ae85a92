import gc

import numpy as np
import pytest

import dunklkit as dk
from dunklkit.dunkl import dunkl_laplacian_num
from dunklkit.functions import (AnnularBump, FunctionClassError, PolyGauss1D, RadialBump,
                                RadialPG, TestFunction, band_profile, generate_corpus)
from dunklkit.inequalities import THEOREMS, VIOLATION_RTOL


def test_radial_pg_value_and_derivative():
    f = RadialPG(0.0, (1.0,), 1.0)       # e^{-r²/2}
    r = np.linspace(0.01, 4, 50)
    np.testing.assert_allclose(f.value(r), np.exp(-0.5 * r * r))
    d = f.derivative()
    np.testing.assert_allclose(d.value(r), -r * np.exp(-0.5 * r * r), rtol=1e-13)


def test_radial_pg_laplacian_gaussian():
    # Δ e^{-s r²/2} = (s² r² - sΛ) e^{-s r²/2} in dimension Λ
    s, lam = 1.3, 4.2
    f = RadialPG(0.0, (1.0,), s)
    g = f.laplacian(lam)
    r = np.linspace(0.05, 5, 40)
    np.testing.assert_allclose(g.value(r), (s * s * r * r - s * lam) * f.value(r), rtol=1e-12)


def test_radial_pg_laplacian_matches_finite_differences():
    lam = 5.0
    f = RadialPG(0.3, (0.5, -1.0, 0.25), 0.9)
    g = f.laplacian(lam)
    r = np.linspace(0.4, 3.0, 15)
    h = 1e-5
    fd = (f.value(r + h) - 2 * f.value(r) + f.value(r - h)) / h ** 2 \
        + (lam - 1) / r * (f.value(r + h) - f.value(r - h)) / (2 * h)
    np.testing.assert_allclose(g.value(r), fd, rtol=1e-5)


def test_radial_pg_dilate():
    f = RadialPG(0.5, (1.0, 2.0), 1.1)
    r = np.linspace(0.1, 3, 20)
    np.testing.assert_allclose(f.dilate(2.5).value(r), f.value(2.5 * r), rtol=1e-13)


def test_radial_pg_exact_norm():
    # ∫ r^{2a} f² r^{Λ-1} dr against direct quadrature
    f = RadialPG(0.0, (1.0, -0.7), 1.4)
    lam = 3.0
    from scipy.integrate import quad
    ref = quad(lambda r: r ** 1.0 * f.value(r) ** 2 * r ** (lam - 1), 0, 20, limit=200)[0]
    assert f.weighted_l2_exact(0.5, lam) == pytest.approx(ref, rel=1e-10)


def test_polygauss_dunkl_apply():
    # T f = f' + k (f(x)-f(-x))/x on x e^{-x²/2}: T = (1+2k - x²(1)) e^...
    k = 0.6
    f = PolyGauss1D((0.0, 1.0), 1.0)
    tf = f.dunkl_apply(k)
    x = np.linspace(-3, 3, 31)
    expect = (1.0 + 2 * k - x * x) * np.exp(-0.5 * x * x)
    np.testing.assert_allclose(tf.value(x), expect, rtol=1e-12, atol=1e-14)


def test_polygauss_exact_norm():
    f = PolyGauss1D((1.0, 0.5), 0.8)
    k = 0.4
    from scipy.integrate import quad
    ref = 2 ** k * quad(lambda x: np.abs(x) ** (2 * 0.3 + 2 * k) * f.value(x) ** 2,
                        -24, 24, limit=400)[0]
    assert f.weighted_l2_exact(0.3, k) == pytest.approx(ref, rel=1e-9)


def test_bumps():
    b = RadialBump(3.0)
    assert b.value(np.array([0.0]))[0] == pytest.approx(1.0)
    assert b.value(np.array([3.1]))[0] == 0.0
    a = AnnularBump(1.0, 2.5)
    assert a.value(np.array([0.5]))[0] == 0.0
    assert a.value(np.array([1.75]))[0] == pytest.approx(1.0)
    # derivative consistency by finite differences
    r = np.linspace(1.1, 2.4, 17)
    h = 1e-6
    fd = (a.value(r + h) - a.value(r - h)) / (2 * h)
    np.testing.assert_allclose(a.derivative_values(r), fd, rtol=1e-6, atol=1e-9)


def test_profile_carrier_has_no_second_derivative():
    # d/dr acts on a bump's values once; a second d/dr is outside its class
    r = np.linspace(0.0, 2.5, 7)
    first = RadialBump(2.0).derivative()
    for second in (lambda: first.derivative().value(r),
                   lambda: first.dilate(2.0).derivative_values(r)):
        with pytest.raises(FunctionClassError, match="no second derivative"):
            second()


def test_testfunction_reduced_values():
    f = generate_corpus(9, 1, ["HermiteGaussian"], {"vanish_at_origin": True},
                        mode="radial")[0]
    assert f.origin_factor_power >= 2
    r = np.linspace(0.01, 2, 10)
    np.testing.assert_allclose(f.value_reduced(r, 2.0) * r ** 2,
                               f.value(r), rtol=1e-12)


def test_corpus_superposition_hooks():
    f = generate_corpus(4, 1, ["SeededSuperposition"], mode="radial")[0]
    lam = 3.0
    g = f.laplacian(lam)
    r = np.linspace(0.3, 2.5, 9)
    h = 1e-5
    fd = (f.value(r + h) - 2 * f.value(r) + f.value(r - h)) / h ** 2 \
        + (lam - 1) / r * (f.value(r + h) - f.value(r - h)) / (2 * h)
    np.testing.assert_allclose(g.value(r), fd, rtol=1e-4, atol=1e-8)


def test_corpus_rank1_radial_constraint():
    corpus = generate_corpus(5, 6, ["HermiteGaussian"], {"radial": True}, mode="rank1")
    x = np.linspace(0.1, 2, 7)
    for f in corpus:
        assert f.is_radial
        np.testing.assert_allclose(f.value(x), f.value(-x), rtol=1e-12)


def test_hand_built_annulus_takes_deep_negative_powers():
    # the inner support hole is read off the carrier, so |x|^{-4} is applied
    # pointwise: d ∫ r^{-8} f² r² dr over the annulus, d = 4π at Λ = 3
    from scipy.integrate import quad
    from dunklkit.measure import radial_quadrature, weighted_lp_norm
    bump = AnnularBump(0.6, 2.0)
    f = TestFunction("annulus", "AnnularBump", "radial", {}, (bump,))
    assert f.support_inner == 0.6 and f.vanishes_at_origin
    assert f.dilate(2.0).support_inner == 0.3 and f.derivative().support_inner == 0.6
    ref = 4 * np.pi * quad(lambda r: r ** -6.0 * bump.value(r) ** 2, 0.6, 2.0, limit=200)[0]
    got = weighted_lp_norm(f, 2.0, -4.0, radial_quadrature(3, 0.0, 14.0, 420))
    assert got == pytest.approx(np.sqrt(ref), rel=1e-6)


def test_hand_built_vanishing_member_is_in_the_rellich_class():
    import dunklkit as dk
    f = TestFunction("r2-gauss", "HermiteGaussian", "radial", {},
                     (RadialPG(0.0, (0.0, 1.0), 1.0),))        # r² e^{-r²/2}
    assert f.vanishes_at_origin and f.origin_factor_power == 2.0
    rec = dk.evaluate_sides(dk.make_spec("ClassicalRellich", N=5, gamma=0.0), f,
                            dk.radial_workbench(5, 0.0))
    ceiling = THEOREMS["ClassicalRellich"].known_bound({"N": 5.0, "gamma": 0.0})
    assert ceiling == 0.8 and 0 < rec.ratio <= ceiling * (1 + VIOLATION_RTOL)


@pytest.mark.parametrize("k", [0.0, 0.5, 1.3])
def test_rank1_laplacian_hook_matches_the_numerical_dunkl_laplacian(k):
    # Δ_k = T², T f = f' + k (f(x) - f(-x))/x, on a carrier with odd and even
    # parts; the nested difference quotient at h = 5e-4 sits below its 1e-6
    # relative floor (h = 2e-3 reads 1.1e-5 here: truncation, not the hook)
    rs = dk.build_root_system("Rank1Z2", 1, [k])
    f = PolyGauss1D((0.3, -1.0, 0.5, 0.8), 1.1)
    x = np.array([-2.1, -1.3, -0.4, 0.35, 0.9, 1.7, 2.6])
    exact = f.laplacian(k).value(x)
    num = dunkl_laplacian_num(rs, f.value, x, h=5e-4)
    assert np.max(np.abs(num - exact)) <= 1e-6 * np.max(np.abs(exact))


def test_rank1_lap_norm_goes_through_the_laplacian_hook(wb_rank1_k05):
    # ‖Δ_k^j f‖₂ on a rank-1 workbench is the closed-form L²(μ_k) norm of the
    # hook's Δ_k^j f
    f = PolyGauss1D((0.3, -1.0, 0.5, 0.8), 1.1)
    member = TestFunction("pg", "HermiteGaussian", "rank1", {}, (f,))
    g = f
    for j in (1, 2):
        g = g.laplacian(0.5)
        want = np.sqrt(g.weighted_l2_exact(0.0, 0.5))
        assert wb_rank1_k05.lap_norm(member, j, 2.0) == pytest.approx(want, rel=1e-12)


def test_band_profile_support():
    prof = band_profile(1.0, 4.0)
    rho = np.array([0.5, 0.9, 2.5, 4.1, 6.0])
    v = prof(rho)
    assert v[0] == 0.0 and v[3] == 0.0 and v[4] == 0.0
    assert v[2] > 0.5


def test_spectral_cache_per_function():
    from dunklkit.workbench import radial_workbench
    wb = radial_workbench(3, 0.0, resolution=64, xi_resolution=64)
    a = generate_corpus(1, 2, ["Gaussian", "DilatedGaussian"], mode="radial")
    b = generate_corpus(1, 2, ["Gaussian", "DilatedGaussian"], mode="radial")
    assert [f.fid for f in a] == [f.fid for f in b]
    fields = [wb.spectral(f) for f in a + b]
    assert len(wb._fields) == 4
    assert all(wb.spectral(f) is fld for f, fld in zip(a + b, fields))
    del a, b
    gc.collect()
    assert len(wb._fields) == 0          # a cached field lives as long as its function


def test_to_dict_serializable():
    import json
    f = generate_corpus(2, 3, ["HermiteGaussian"], mode="radial")[1]
    json.dumps(f.to_dict())
