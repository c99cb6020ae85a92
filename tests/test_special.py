import numpy as np
import pytest
from scipy import special as sps

from dunklkit.measure import radial_quadrature, rank1_quadrature
from dunklkit.special import normalized_bessel_j
from dunklkit.spectral import DunklTransformRank1, RadialDunklTransform
from oracles import normalized_bessel_j_jv

# closed forms (-1/2, 1/2, 3/2, 5/2 spherical; 0, 1 Cephes) and generic orders (jv)
ORDERS = [-0.5, 0.0, 0.5, 1.0, 1.5, 2.5, 0.3, 0.85, 2.0]
# the origin, both sides of the 1e-4 series seam, the spherical-Bessel
# recurrence switch at z = n, and out to 600 (the largest ξx of any grid)
POINTS = np.concatenate([[0.0, 5e-5, 9.999e-5, 1e-4, 1.0001e-4, 2e-4, -3.0],
                         np.arange(0.25, 6.0, 0.25), np.geomspace(1e-3, 600.0, 40)])


@pytest.mark.parametrize("nu", ORDERS)
def test_normalized_bessel_j_against_mpmath(nu):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        ref = np.array([1.0 if z == 0 else float(
            mp.gamma(nu + 1) * (2 / mp.mpf(abs(z))) ** nu * mp.besselj(nu, abs(z)))
            for z in POINTS])
    got = normalized_bessel_j(nu, POINTS)
    assert np.max(np.abs(got - ref)) <= 1e-14
    assert float(normalized_bessel_j(nu, 0.0)) == 1.0


@pytest.mark.parametrize("nu", [1.5, 2.5, 3.5])
def test_half_integer_orders_up_to_z_equal_n_against_mpmath(nu):
    # the power series below z = n, spherical_jn above it, both sides of the switch
    mp = pytest.importorskip("mpmath")
    n = nu - 0.5
    z = np.concatenate([np.geomspace(1.0001e-4, n, 60),
                        n * (1.0 + np.array([-1e-6, -1e-12, 1e-12, 1e-6])), [n + 0.5, 2 * n]])
    with mp.workdps(30):
        ref = np.array([float(mp.gamma(nu + 1) * (2 / mp.mpf(x)) ** nu * mp.besselj(nu, x))
                        for x in z])
    assert np.max(np.abs(normalized_bessel_j(nu, z) - ref)) <= 1e-14


def test_closed_form_orders_bypass_jv(monkeypatch):
    def no_jv(*args):
        raise AssertionError("jv called")
    spherical_jn, smallest = sps.spherical_jn, {}

    def recording_spherical_jn(n, z):
        smallest[n] = min(smallest.get(n, np.inf), np.min(z))
        return spherical_jn(n, z)
    monkeypatch.setattr(sps, "jv", no_jv)
    monkeypatch.setattr(sps, "spherical_jn", recording_spherical_jn)
    z = np.linspace(0.0, 50.0, 101)
    for nu in (-0.5, 0.0, 0.5, 1.0, 1.5, 2.5, 3.5, 7.5):
        normalized_bessel_j(nu, z)
    # spherical_jn itself runs jv at z ≤ n
    assert set(smallest) == {0, 1, 2, 3, 7}
    assert all(z_min > n for n, z_min in smallest.items())
    with pytest.raises(AssertionError, match="jv called"):
        normalized_bessel_j(0.85, z)


@pytest.mark.parametrize("k", [0.0, 0.5, 1.0, 0.85])
def test_rank1_blocks_match_jv_reference(k):
    xq, xiq = rank1_quadrature(k, 16.0, 320), rank1_quadrature(k, 26.0, 320)
    tr = DunklTransformRank1(k, xq, xiq)
    h = xq.npoints // 2
    rho, r = xiq.nodes[h:], xq.nodes[h:]
    z = np.outer(rho, r)
    even = normalized_bessel_j_jv(k - 0.5, z)
    odd = z / (2.0 * k + 1.0) * normalized_bessel_j_jv(k + 0.5, z)
    # both blocks carry 2w/M: the transform folds samples into ½(f(r) ± f(-r))
    w_r, w_inv = 2.0 * xq.weights[h:] / tr.M, 2.0 * xiq.weights[h:] / tr.M
    # 1e-14 on the Bessel factors: the odd entries scale j_{k+1/2} by z/(2k+1)
    # (up to 416 here), and with it the reference's own jv error (at k = 0,
    # 2.4e-14 against mpmath at z = 14.1, where sin z is exact to 1e-16)
    scale = np.maximum(1.0, z / (2.0 * k + 1.0))
    tr.from_coords(np.zeros(tr.coord_xi.size))    # derives the inverse kernels
    for block, ker, w, tol in [(tr._fwd_even, even, w_r, 1.0), (tr._fwd_odd, odd, w_r, scale),
                               (tr.even._inv, even.T, w_inv, 1.0),
                               (tr.odd._inv, odd.T, w_inv, scale.T)]:
        assert np.all(np.abs(block - ker * w) <= 1e-14 * tol * w)


@pytest.mark.parametrize("N, gamma", [(1, 0.0), (2, 0.0), (3, 0.0), (3, 0.3), (5, 0.0)],
                         ids=["lam1", "lam2", "lam3", "lam3.6", "lam5"])
def test_radial_kernel_matches_jv_reference(N, gamma):
    xq = radial_quadrature(N, gamma, 16.0, 320, surface_const=1.0)
    xiq = radial_quadrature(N, gamma, 30.0, 320, surface_const=1.0)
    tr = RadialDunklTransform(N + 2.0 * gamma, xq, xiq)
    ker = normalized_bessel_j_jv(tr.nu, np.outer(xiq.nodes, xq.nodes))
    w = (xq.weights / tr.M)[None, :]
    assert np.all(np.abs(tr._fwd - ker * w) <= 1e-14 * w)
