import numpy as np
import pytest

from dunklkit.rootsys import (FAMILIES, GroupClosureError, RootSystem, RootSystemError,
                              build_root_system, generate_group, reflect,
                              reflection_matrix, weight)


def test_catalog_validates_and_orders():
    cases = [
        (("Rank1Z2", 1, [0.5]), {}, 2),
        (("ProductZ2N", 2, [0.3, 0.7]), {}, 4),
        (("ProductZ2N", 3, [0.1, 0.2, 0.3]), {}, 8),
        (("SymmetricGroupA", 3, [0.4]), {}, 6),
        (("DihedralI2m", 2, [0.5]), {"m": 3}, 6),
        (("DihedralI2m", 2, [0.5, 1.5]), {"m": 4}, 8),
    ]
    for args, kw, order in cases:
        rs = build_root_system(*args, **kw)
        rs.validate()
        assert generate_group(rs).order == order
        # all roots normalized to squared length 2
        assert np.allclose(np.sum(rs.positive_roots ** 2, axis=1), 2.0, atol=1e-14)


def test_symmetric_group_positive_root_count():
    rs = build_root_system("SymmetricGroupA", 3, [0.4])
    assert rs.num_positive == 3
    rs2 = build_root_system("ProductZ2N", 2, [0.2, 0.2])
    assert rs2.num_positive == 2


def test_symmetric_group_a1_lives_in_n2():
    # A₁: the one root e1 - e2 in N = 2; N = 1 holds no root of the family
    rs = build_root_system("SymmetricGroupA", 2, [0.4])
    rs.validate()
    assert rs.num_positive == 1 and generate_group(rs).order == 2
    with pytest.raises(RootSystemError, match="N≥2"):
        build_root_system("SymmetricGroupA", 1, [0.4])


def test_reflect_examples():
    # sqrt(2) e1 in R^2 flips the first coordinate
    alpha = np.array([np.sqrt(2.0), 0.0])
    assert np.allclose(reflect(alpha, np.array([1.0, 1.0])), [-1.0, 1.0])
    # alpha=(1,1) (|alpha|^2=2): (1,0) -> (0,-1)
    assert np.allclose(reflect(np.array([1.0, 1.0]), np.array([1.0, 0.0])), [0.0, -1.0])


def test_reflect_is_involution():
    rng = np.random.default_rng(0)
    for _ in range(10):
        alpha = rng.normal(size=3)
        x = rng.normal(size=3)
        assert np.allclose(reflect(alpha, reflect(alpha, x)), x, atol=1e-13)


def test_weight_examples():
    rs0 = build_root_system("Rank1Z2", 1, [0.0])
    assert weight(rs0, np.array([0.3])) == pytest.approx(1.0)
    rs1 = build_root_system("Rank1Z2", 1, [1.0])
    assert weight(rs1, np.array([2.0])) == pytest.approx(8.0)    # |sqrt(2)*2|^2


def test_weight_homogeneity_and_invariance():
    rng = np.random.default_rng(1)
    for rs in [build_root_system("ProductZ2N", 2, [0.3, 0.7]),
               build_root_system("SymmetricGroupA", 3, [0.6]),
               build_root_system("DihedralI2m", 2, [0.4], m=3)]:
        g = rs.gamma
        x = rng.normal(size=(5, rs.dim))
        w = weight(rs, x)
        for lam in (0.5, 2.0, 10.0):
            np.testing.assert_allclose(weight(rs, lam * x), lam ** (2 * g) * w, rtol=1e-10)
        for mat in generate_group(rs).elements:
            np.testing.assert_allclose(weight(rs, x @ mat.T), w, rtol=1e-10)


def test_gamma_examples():
    assert build_root_system("Rank1Z2", 1, [0.0]).gamma == 0.0
    assert build_root_system("Rank1Z2", 1, [0.8]).gamma == pytest.approx(0.8)
    assert build_root_system("ProductZ2N", 3, [1.0, 1.0, 1.0]).gamma == pytest.approx(3.0)


def test_construction_errors():
    with pytest.raises(RootSystemError):
        build_root_system("Rank1Z2", 2, [0.5])
    with pytest.raises(RootSystemError):
        build_root_system("ProductZ2N", 2, [0.5])          # wrong count
    with pytest.raises(RootSystemError):
        build_root_system("Rank1Z2", 1, [-0.1])            # negative multiplicity
    with pytest.raises(RootSystemError):
        build_root_system("Frobnitz", 2, [0.5])
    with pytest.raises(RootSystemError):
        build_root_system("DihedralI2m", 2, [0.5])         # missing m


def test_group_closure_cap():
    rs = build_root_system("SymmetricGroupA", 4, [0.3])
    with pytest.raises(GroupClosureError):
        generate_group(rs, cap=5)


def test_user_supplied_roots_must_validate():
    # not closed under its own reflections
    bad = RootSystem(dim=2, positive_roots=np.array([[1.0, 1.0], [1.3, 0.1]]),
                     multiplicities=np.array([0.5, 0.5]))
    with pytest.raises(RootSystemError):
        bad.validate()


def test_arbitrary_norm_input_rescaled():
    rs = RootSystem(dim=1, positive_roots=np.array([[5.0]]), multiplicities=np.array([0.7]))
    assert rs.positive_roots[0, 0] == pytest.approx(np.sqrt(2.0))


def test_reflection_matrix_orthogonal():
    alpha = np.array([1.0, 1.0]) / np.sqrt(2) * np.sqrt(2)
    M = reflection_matrix(alpha)
    np.testing.assert_allclose(M @ M, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(M @ M.T, np.eye(2), atol=1e-14)


def test_families_constant():
    assert set(FAMILIES) == {"Rank1Z2", "ProductZ2N", "SymmetricGroupA", "DihedralI2m"}
