import numpy as np
import pytest

from dunklkit.dunkl import (dunkl_apply_poly, dunkl_gradient_num, dunkl_gradient_poly,
                            dunkl_laplacian_num, dunkl_laplacian_poly,
                            integration_by_parts_residual)
from dunklkit.functions import PolyGauss1D
from dunklkit.measure import build_quadrature
from dunklkit.polynomial import Polynomial
from dunklkit.rootsys import build_root_system


def rand_poly(rng, dim, deg=6, terms=8):
    out = {}
    for _ in range(terms):
        e = tuple(int(v) for v in rng.integers(0, deg + 1, size=dim))
        if sum(e) <= deg:
            out[e] = float(rng.uniform(-2, 2))
    return Polynomial(dim, out)


def test_rank1_symbolic_examples(rs_rank1_k05):
    k = 0.5
    x2 = Polynomial.monomial((2,))
    x1 = Polynomial.monomial((1,))
    assert dunkl_apply_poly(rs_rank1_k05, 0, x2).allclose(Polynomial(1, {(1,): 2.0}), tol=1e-14)
    assert dunkl_apply_poly(rs_rank1_k05, 0, x1).allclose(
        Polynomial(1, {(0,): 1.0 + 2.0 * k}), tol=1e-14)
    assert dunkl_laplacian_poly(rs_rank1_k05, x2).allclose(
        Polynomial(1, {(0,): 2.0 * (1.0 + 2.0 * k)}), tol=1e-14)


def test_k0_collapse_to_partial():
    rs0 = build_root_system("ProductZ2N", 2, [0.0, 0.0])
    rng = np.random.default_rng(2)
    for _ in range(5):
        f = rand_poly(rng, 2)
        for i in range(2):
            assert dunkl_apply_poly(rs0, i, f).allclose(f.partial(i), tol=1e-12)


def test_linearity_exact():
    rs = build_root_system("ProductZ2N", 2, [0.4, 0.9])
    rng = np.random.default_rng(5)
    f = rand_poly(rng, 2)
    g = rand_poly(rng, 2)
    left = dunkl_apply_poly(rs, 0, f.scale(2.5) + g)
    right = dunkl_apply_poly(rs, 0, f).scale(2.5) + dunkl_apply_poly(rs, 0, g)
    assert left.allclose(right, tol=1e-11)


def test_commutativity_degree6():
    rng = np.random.default_rng(7)
    systems = [build_root_system("ProductZ2N", 2, [0.3, 1.1]),
               build_root_system("SymmetricGroupA", 3, [0.8]),
               build_root_system("DihedralI2m", 2, [0.4, 0.7], m=4)]
    for rs in systems:
        for _ in range(4):
            f = rand_poly(rng, rs.dim)
            for i in range(rs.dim):
                for j in range(i + 1, rs.dim):
                    a = dunkl_apply_poly(rs, i, dunkl_apply_poly(rs, j, f))
                    b = dunkl_apply_poly(rs, j, dunkl_apply_poly(rs, i, f))
                    assert (a - b).max_abs_coeff() <= 1e-10


def test_degree_drops_by_one_on_homogeneous():
    rs = build_root_system("SymmetricGroupA", 3, [0.5])
    f = Polynomial(3, {(2, 1, 0): 1.0, (0, 3, 0): -2.0, (1, 1, 1): 0.5})
    assert dunkl_apply_poly(rs, 1, f).degree == f.degree - 1


def test_product_laplacian_of_r2():
    rs = build_root_system("ProductZ2N", 3, [0.2, 0.5, 0.9])
    r2 = Polynomial(3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0})
    lap = dunkl_laplacian_poly(rs, r2)
    lam = 3 + 2 * rs.gamma
    assert lap.allclose(Polynomial(3, {(0, 0, 0): 2.0 * lam}), tol=1e-12)


def test_gradient_num_radial_function():
    rs = build_root_system("ProductZ2N", 2, [0.3, 0.6])

    def f(X):
        return np.exp(-0.5 * np.sum(np.atleast_2d(X) ** 2, axis=-1))
    x = np.array([0.7, -1.2])
    g = dunkl_gradient_num(rs, f, x)
    np.testing.assert_allclose(g, -x * f(x), atol=1e-9)


def test_gradient_num_second_order_in_h():
    rs = build_root_system("ProductZ2N", 2, [0.3, 0.6])
    p = Polynomial(2, {(2, 1): 1.0, (0, 3): 0.5, (1, 0): -1.0})

    def f(X):
        return p.evaluate(np.atleast_2d(X))
    x = np.array([0.8, 0.4])
    exact = np.array([q.evaluate(x) for q in dunkl_gradient_poly(rs, p)])
    errs = []
    for h in (1e-2, 1e-3):
        errs.append(np.max(np.abs(dunkl_gradient_num(rs, f, x, h=h) - exact)))
    order = np.log10(errs[0] / errs[1])
    assert 1.8 <= order <= 2.2


def test_gradient_num_near_hyperplane():
    rs = build_root_system("ProductZ2N", 2, [0.5, 0.5])
    p = Polynomial(2, {(2, 0): 1.0, (1, 1): 1.0})

    def f(X):
        return p.evaluate(np.atleast_2d(X))
    x = np.array([1e-9, 0.9])          # on the first hyperplane, f not even
    exact = np.array([q.evaluate(x) for q in dunkl_gradient_poly(rs, p)])
    g = dunkl_gradient_num(rs, f, x, h=1e-5)
    np.testing.assert_allclose(g, exact, atol=1e-6)


def test_k0_gradient_matches_classical():
    rs0 = build_root_system("ProductZ2N", 2, [0.0, 0.0])

    def f(X):
        X = np.atleast_2d(X)
        return np.sin(X[:, 0]) * np.exp(-X[:, 1] ** 2)
    x = np.array([0.4, 0.2])
    g = dunkl_gradient_num(rs0, f, x)
    exact = np.array([np.cos(0.4) * np.exp(-0.04), np.sin(0.4) * (-0.4) * np.exp(-0.04)])
    np.testing.assert_allclose(g, exact, atol=1e-8)


def test_laplacian_num_matches_poly():
    rs = build_root_system("ProductZ2N", 2, [0.4, 0.8])
    p = Polynomial(2, {(2, 0): 1.0, (0, 2): 2.0, (1, 1): -0.5})

    def f(X):
        return p.evaluate(np.atleast_2d(X))
    x = np.array([0.6, -0.3])
    exact = dunkl_laplacian_poly(rs, p).evaluate(x)
    num = dunkl_laplacian_num(rs, f, x)
    assert abs(num - exact) < 1e-4 * max(1.0, abs(exact))


def test_integration_by_parts(rs_rank1_k05):
    quad = build_quadrature(rs_rank1_k05, "TensorGaussLike", rmax=14.0, resolution=420)
    gauss = PolyGauss1D((1.0,), 1.0)
    odd = PolyGauss1D((0.0, 1.0), 1.2)
    assert integration_by_parts_residual(rs_rank1_k05, gauss.value, gauss.value, quad, 0) < 1e-6
    assert integration_by_parts_residual(rs_rank1_k05, odd.value, gauss.value, quad, 0) < 1e-6
    rs0 = build_root_system("Rank1Z2", 1, [0.0])
    quad0 = build_quadrature(rs0, "TensorGaussLike", rmax=14.0, resolution=420)
    assert integration_by_parts_residual(rs0, odd.value, gauss.value, quad0, 0) < 1e-8


def test_integration_by_parts_needs_a_rank1_rule(rs_rank1_k05):
    # a radial rule holds radii only, so T_i's reflection differences are lost
    gauss = PolyGauss1D((1.0,), 1.0)
    quad = build_quadrature(rs_rank1_k05, "PolarProduct", rmax=14.0, resolution=420)
    with pytest.raises(ValueError, match="rank-1"):
        integration_by_parts_residual(rs_rank1_k05, gauss.value, gauss.value, quad, 0)
