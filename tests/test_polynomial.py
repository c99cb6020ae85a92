import numpy as np
import pytest

from dunklkit.polynomial import Polynomial, PolynomialDivisionError


def test_arithmetic_and_eval():
    p = Polynomial(2, {(1, 0): 2.0, (0, 2): -1.0})
    q = Polynomial(2, {(0, 0): 3.0})
    r = p * q + p
    x = np.array([[1.0, 2.0], [0.5, -1.0]])
    np.testing.assert_allclose(r.evaluate(x), 4 * p.evaluate(x))
    assert (2.0 * p).evaluate(np.array([1.0, 1.0])) == pytest.approx(2.0 * p.evaluate(np.array([1.0, 1.0])))


def test_partial_and_degree():
    p = Polynomial(2, {(3, 1): 2.0})
    dp = p.partial(0)
    assert dp.terms == {(2, 1): 6.0}
    assert p.degree == 4 and dp.degree == 3
    assert Polynomial.zero(2).degree == -1


def test_compose_linear_matches_pointwise():
    rng = np.random.default_rng(3)
    M = rng.normal(size=(2, 2))
    p = Polynomial(2, {(2, 1): 1.5, (0, 3): -0.5, (1, 0): 2.0})
    comp = p.compose_linear(M)
    x = rng.normal(size=(20, 2))
    np.testing.assert_allclose(comp.evaluate(x), p.evaluate(x @ M.T), rtol=1e-12)


def test_divide_linear_exact():
    # (x+y) * q recovered exactly
    alpha = np.array([1.0, 1.0])
    lin = Polynomial(2, {(1, 0): 1.0, (0, 1): 1.0})
    q = Polynomial(2, {(2, 0): 2.0, (1, 1): -1.0, (0, 0): 3.0})
    prod = lin * q
    back = prod.divide_linear(alpha)
    assert back.allclose(q, tol=1e-12)


def test_divide_linear_nonzero_remainder_raises():
    alpha = np.array([1.0, 1.0])
    p = Polynomial(2, {(1, 0): 1.0})     # x is not divisible by (x+y)
    with pytest.raises(PolynomialDivisionError):
        p.divide_linear(alpha)
