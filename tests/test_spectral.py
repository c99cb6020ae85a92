from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special as sps

import dunklkit as dk
from dunklkit import spectral
from dunklkit.functions import band_profile, generate_corpus
from dunklkit.special import normalized_bessel_j
from dunklkit.spectral import (DyadicPartition, LowFrequencyError, SpectralField,
                               classical_fourier_reference, fractional_laplacian,
                               homogeneous_norm, littlewood_paley_project, rank1_kernel,
                               riesz_potential, sobolev_norm, square_function_l2_ratio)


def band_poly_profile(q=8, s=1.0):
    def prof(rho):
        v = rho ** (2 * q) * np.exp(-0.5 * s * rho * rho)
        peak = (2 * q / s) ** q * np.exp(-q)
        return v / peak
    return prof


def test_kernel_reduces_to_exponential_at_k0():
    z = np.linspace(-20, 20, 101)
    np.testing.assert_allclose(rank1_kernel(0.0, z), np.exp(-1j * z), atol=1e-12)


def test_gaussian_is_fixed_point_all_k():
    for k in (0.0, 0.5, 1.5):
        wb = dk.rank1_workbench(k)
        g = generate_corpus(1, 1, ["Gaussian"], mode="rank1")[0]
        full = wb.transform.to_full(wb.spectral(g).values)
        np.testing.assert_allclose(full, np.exp(-0.5 * wb.xi_quad.nodes ** 2), atol=1e-7)


def test_k0_matches_fourier_reference():
    wb = dk.rank1_workbench(0.0)
    corpus = generate_corpus(12, 4, ["HermiteGaussian", "SeededSuperposition"],
                             mode="rank1")
    for f in corpus:
        ref = classical_fourier_reference(f.value, wb.xi_quad.nodes, wb.quad.rmax)
        got = wb.transform.to_full(wb.spectral(f).values)
        assert np.max(np.abs(got - ref)) < 1e-7


def test_plancherel_across_k():
    corpus = generate_corpus(8, 10, ["Gaussian", "DilatedGaussian", "HermiteGaussian",
                                     "SeededSuperposition"], mode="rank1")
    for k in (0.0, 0.3, 0.5, 1.0, 2.5):
        wb = dk.rank1_workbench(k)
        for f in corpus:
            rel = abs(wb.spectral(f).l2() / wb.norm(f, 2.0) - 1.0)
            assert rel < 1e-6


def test_hermitian_symmetry():
    wb = dk.rank1_workbench(0.7)
    f = generate_corpus(3, 3, ["HermiteGaussian"], mode="rank1")[2]
    fld = wb.spectral(f)
    assert fld.values.dtype == np.float64           # a real function has real coordinates
    full = wb.transform.to_full(fld.values)
    mirrored = full[::-1]                           # grid is symmetric by construction
    np.testing.assert_allclose(full, np.conj(mirrored), atol=1e-12)


def test_round_trip():
    for k in (0.0, 0.5, 1.5):
        wb = dk.rank1_workbench(k)
        f = generate_corpus(6, 2, ["HermiteGaussian"], mode="rank1")[1]
        back = wb.transform.inverse(wb.spectral(f))
        ref = f.value(wb.quad.nodes)
        assert np.max(np.abs(back.real - ref)) < 1e-6 * max(1.0, np.max(np.abs(ref)))


def test_zero_field_inverse():
    wb = dk.rank1_workbench(0.5)
    zero = wb.transform.forward(np.zeros(wb.quad.npoints))
    assert np.all(wb.transform.inverse(zero) == 0.0)


def test_derivative_intertwining():
    # D_k(T f)(ξ) = iξ D_k(f)(ξ)
    k = 0.8
    wb = dk.rank1_workbench(k)
    f = generate_corpus(2, 1, ["HermiteGaussian"], mode="rank1")[0]
    tf = f.apply_dunkl(k)
    full = wb.transform.to_full
    lhs = full(wb.transform.forward(tf.value(wb.quad.nodes)).values)
    rhs = 1j * wb.xi_quad.nodes * full(wb.spectral(f).values)
    assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_radial_gaussian_fixed_point_and_cross_paths(wb_radial3):
    g = generate_corpus(1, 1, ["Gaussian"], mode="radial")[0]
    fld = wb_radial3.spectral(g)
    np.testing.assert_allclose(fld.values, np.exp(-0.5 * wb_radial3.xi_quad.nodes ** 2),
                               atol=1e-8)
    # N=1, γ=k, even f: radial path agrees with the rank-1 path (both vs exact)
    k = 0.7
    wbr = dk.radial_workbench(1, k)
    fr = generate_corpus(1, 1, ["Gaussian"], mode="radial")[0]
    np.testing.assert_allclose(wbr.spectral(fr).values,
                               np.exp(-0.5 * wbr.xi_quad.nodes ** 2), atol=1e-7)


def test_radial_n3_sine_kernel():
    # N=3, γ=0: classical radial Fourier transform with the sine kernel
    wb = dk.radial_workbench(3, 0.0)
    f = generate_corpus(4, 2, ["DilatedGaussian"], mode="radial")[1]
    rho = wb.xi_quad.nodes
    r = wb.quad.nodes
    w_plain = wb.quad.weights / wb.quad.recipe["const"] / r ** 2   # bare dr weights
    vals = f.value(r)
    ref = np.array([np.sum(w_plain * vals * np.sin(p * r) * r) / p for p in rho])
    ref = ref * np.sqrt(2.0 / np.pi)
    got = wb.spectral(f).values.real
    assert np.max(np.abs(got - ref)) < 1e-9


def test_fractional_laplacian_identity_and_semigroup(wb_radial3):
    f = generate_corpus(5, 1, ["HermiteGaussian"], mode="radial")[0]
    fld = wb_radial3.spectral(f)
    same = fractional_laplacian(fld, 0.0)
    assert same is fld
    a = fractional_laplacian(fractional_laplacian(fld, 0.7), 1.1)
    b = fractional_laplacian(fld, 1.8)
    assert np.max(np.abs(a.values - b.values)) <= 1e-8 * np.max(np.abs(b.values) + 1e-300)


def test_fractional_s2_matches_exact_laplacian(wb_radial3):
    f = generate_corpus(5, 3, ["HermiteGaussian"], mode="radial")[2]
    vals = wb_radial3.frac_values(f, 2.0)
    exact = -f.laplacian(wb_radial3.lam).value(wb_radial3.quad.nodes)
    assert np.max(np.abs(vals - exact)) < 1e-5 * max(1.0, np.max(np.abs(exact)))


def test_multipliers_commute():
    wb = dk.radial_workbench(3, 0.0)
    F = wb.transform.forward(wb.transform.synthesize(band_poly_profile()))
    a = riesz_potential(fractional_laplacian(F, 1.3), 0.6)
    b = fractional_laplacian(riesz_potential(F, 0.6), 1.3)
    assert np.max(np.abs(a.values - b.values)) < 1e-10 * np.max(np.abs(F.values))


def test_sobolev_norm(wb_radial3):
    f = generate_corpus(7, 2, ["DilatedGaussian"], mode="radial")[0]
    fld = wb_radial3.spectral(f)
    # s = 0 is Plancherel
    assert sobolev_norm(fld, 0.0) == pytest.approx(wb_radial3.norm(f, 2.0), rel=1e-6)
    # monotone in s
    assert sobolev_norm(fld, 0.5) <= sobolev_norm(fld, 1.0) <= sobolev_norm(fld, 2.0)
    # s=1 identity with the gradient
    h1 = np.sqrt(wb_radial3.norm(f, 2.0) ** 2 + wb_radial3.grad_norm(f, 2.0) ** 2)
    assert sobolev_norm(fld, 1.0) == pytest.approx(h1, rel=1e-5)


def test_partition_of_unity():
    part = DyadicPartition(-6, 6)
    t = np.geomspace(2.0 ** -6, 2.0 ** 6, 2001)
    assert np.max(np.abs(part.partition_sum(t) - 1.0)) < 1e-8


def test_projection_sum_reconstructs(wb_radial3):
    part = DyadicPartition(-6, 6)
    tr = wb_radial3.transform
    F = tr.forward(tr.synthesize(band_profile(1.0, 4.0)))
    fphys = tr.inverse(F)
    total = np.zeros_like(fphys)
    for j in part.j_range:
        _, pj = littlewood_paley_project(tr, F, j, part)
        total = total + pj
    assert np.max(np.abs(total - fphys)) < 1e-6 * np.max(np.abs(fphys))


def test_projection_annulus_concentration(wb_radial3):
    part = DyadicPartition(-6, 6)
    tr = wb_radial3.transform
    # synthetic band-limited field with spectrum in [1.1, 3.6] ⊂ [2^0, 2^2]
    F = SpectralField(tr.coord_xi, tr.coord_weights, band_profile(1.1, 3.6)(tr.coord_xi))
    total = F.l2()
    far = littlewood_paley_project(tr, F, 4, part)[0].l2()
    assert far < 1e-10 * total
    # the three neighboring projections recover the field
    near = sum(littlewood_paley_project(tr, F, j, part)[0].values for j in (0, 1, 2))
    assert np.max(np.abs(near - F.values)) < 1e-10 * np.max(np.abs(F.values))
    with pytest.raises(ValueError):
        littlewood_paley_project(tr, F, 99, part)


def test_square_function_ratio_bounded(wb_radial3):
    part = DyadicPartition(-8, 8)
    corpus = generate_corpus(17, 10, ["Gaussian", "DilatedGaussian", "HermiteGaussian"],
                             mode="radial")
    ratios = [square_function_l2_ratio(wb_radial3.spectral(f), s, part)
              for s in (0.5, 1.0, 2.0) for f in corpus]
    assert max(ratios) / min(ratios) < 4.0


def test_riesz_inversion_and_gate(wb_radial3):
    tr = wb_radial3.transform
    u = tr.synthesize(band_poly_profile())
    F1 = tr.forward(u)
    for s in (0.5, 1.0):
        G = fractional_laplacian(F1, s)
        g = np.real(tr.inverse(G))
        H = riesz_potential(tr.forward(g), s)
        back = np.real(tr.inverse(H))
        assert np.max(np.abs(back - np.real(u))) < 1e-6 * np.max(np.abs(u))
    lowpass = tr.forward(np.exp(-0.5 * wb_radial3.quad.nodes ** 2))
    with pytest.raises(LowFrequencyError):
        riesz_potential(lowpass, 1.0)


def test_riesz_hls_spot_check(wb_radial3):
    # ‖I_s f‖_q ≤ C ‖f‖_p with 1/p - 1/q = s/Λ at p = 2 (finite, one member)
    lam = wb_radial3.lam
    s = 0.5
    q = 1.0 / (0.5 - s / lam)
    tr = wb_radial3.transform
    u = np.real(tr.synthesize(band_poly_profile()))
    F = tr.forward(u)
    out = np.real(tr.inverse(riesz_potential(F, s)))
    from dunklkit.measure import weighted_lp_norm
    nq = weighted_lp_norm(lambda r: out, q, 0.0, wb_radial3.quad)
    np_ = weighted_lp_norm(lambda r: u, 2.0, 0.0, wb_radial3.quad)
    assert np.isfinite(nq / np_) and nq / np_ > 0


def test_homogeneous_norm_matches_gradient(wb_radial3):
    f = generate_corpus(3, 1, ["DilatedGaussian"], mode="radial")[0]
    fld = wb_radial3.spectral(f)
    assert homogeneous_norm(fld, 1.0) == pytest.approx(wb_radial3.grad_norm(f, 2.0),
                                                       rel=1e-7)


def test_riesz_small_s_approaches_identity(wb_radial3):
    tr = wb_radial3.transform
    u = tr.synthesize(band_poly_profile())
    F = tr.forward(u)
    for s, tol in ((1e-3, 5e-3), (1e-5, 5e-5)):
        out = riesz_potential(F, s)
        dev = np.max(np.abs(out.values - F.values)) / np.max(np.abs(F.values))
        assert dev < tol


def test_calibration_report(wb_radial3):
    rep = wb_radial3.transform.calibration_report()
    assert rep["plancherel_relative_deviation"] < 1e-10
    assert rep["gaussian_fixed_point_error"] < 1e-10
    rep1 = dk.rank1_workbench(0.3).transform.calibration_report()
    assert rep1["round_trip_error"] < 1e-9


def test_batch_apply_matches_columns():
    # both transforms expose x_quad/xi_quad and apply to column batches (n, m)
    transforms = [
        dk.DunklTransformRank1(0.5, dk.rank1_quadrature(0.5, 10.0, 80),
                               dk.rank1_quadrature(0.5, 12.0, 90)),
        dk.RadialDunklTransform(3.0, dk.radial_quadrature(3, 0.0, 10.0, 80),
                                dk.radial_quadrature(3, 0.0, 12.0, 90)),
    ]
    for tr in transforms:
        x = tr.x_quad.nodes
        batch = np.column_stack([np.exp(-0.5 * s * x * x) for s in (0.7, 1.0, 1.6)])
        fwd = tr.forward(batch).values
        assert fwd.shape == (tr.xi_quad.nodes.size, 3)
        for j in range(3):
            np.testing.assert_allclose(fwd[:, j], tr.forward(batch[:, j]).values,
                                       rtol=0, atol=1e-13)
        back = tr.inverse(fwd)
        assert back.shape == (x.size, 3)
        for j in range(3):
            np.testing.assert_allclose(back[:, j], tr.inverse(fwd[:, j]), rtol=0, atol=1e-13)


@pytest.mark.parametrize("square", [True, False], ids=["m=n_xi", "m=3"])
def test_batched_multipliers_act_per_column(square):
    # a batch (n_ξ, m) is scaled along ξ column by column; with m = n_ξ a
    # multiplier along the batch axis would broadcast and be wrong
    wb = dk.radial_workbench(3, 0, resolution=64, xi_resolution=64)
    tr = wb.transform
    n_xi = tr.coord_xi.size
    m = n_xi if square else 3
    vals = np.random.default_rng(3).standard_normal((n_xi, m))
    vals[tr.coord_xi < 0.125] = 0.0               # passes the Riesz low-frequency gate
    field = lambda v: SpectralField(tr.coord_xi, tr.coord_weights, v)
    batch, part = field(vals), DyadicPartition()
    for op in (lambda f: fractional_laplacian(f, 1.5), lambda f: riesz_potential(f, 0.5),
               lambda f: littlewood_paley_project(tr, f, 1, part)[0]):
        got = op(batch).values
        assert got.shape == (n_xi, m)
        for j in range(m):
            assert np.array_equal(got[:, j], op(field(vals[:, j])).values)
    for norm in (SpectralField.l2, lambda f: sobolev_norm(f, 1.0),
                 lambda f: square_function_l2_ratio(f, 1.0, part)):
        with pytest.raises(ValueError, match="batch"):
            norm(batch)
    # the Plancherel norm of a batch is one norm per column
    got = homogeneous_norm(batch, 1.0)
    assert got.shape == (m,)
    for j in range(m):
        assert got[j] == pytest.approx(homogeneous_norm(field(vals[:, j]), 1.0), rel=1e-14)


@pytest.mark.parametrize("k", [0.0, 0.5, 1.0, 2.3])
def test_rank1_blocks_match_dense_kernel(k):
    # the real half-line blocks against the dense full-line transform built
    # from the public kernel, on unequal grids, for real/complex (n,)/(n, m)
    # input: forward through to_full, and inverse(c) against the dense
    # inverse of to_full(c)
    xq, xiq = dk.rank1_quadrature(k, 11.0, 96), dk.rank1_quadrature(k, 15.0, 130)
    tr = dk.DunklTransformRank1(k, xq, xiq)
    ker = rank1_kernel(k, np.outer(xiq.nodes, xq.nodes))
    dense_fwd = ker * (xq.weights / tr.M)
    dense_inv = ker.conj().T * (xiq.weights / tr.M)
    rng = np.random.default_rng(7)

    def inputs(n):
        for shape in ((n,), (n, 3)):
            yield rng.standard_normal(shape)
            yield rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    for n, apply in ((xq.npoints, lambda v: (tr.to_full(tr.forward(v).values), dense_fwd @ v)),
                     (xiq.npoints, lambda c: (tr.inverse(c), dense_inv @ tr.to_full(c)))):
        for v in inputs(n):
            got, want = apply(v)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # coordinates: Σ w·|c|² is the L²(μ_k) norm of the full-grid values, and
    # a field's norms read it, for real and complex c
    for c in inputs(xiq.npoints):
        if c.ndim == 2:
            got = homogeneous_norm(SpectralField(tr.coord_xi, tr.coord_weights, c), 0.0)
            np.testing.assert_allclose(got ** 2, xiq.weights @ np.abs(tr.to_full(c)) ** 2,
                                       rtol=1e-13)


def _whole_kernel_coords(tr, vals):
    """`to_coords` as one product with each whole forward kernel."""
    if isinstance(tr, dk.RadialDunklTransform):
        return tr._fwd @ vals
    h = vals.shape[0] // 2
    pos, neg = vals[h:], vals[h - 1::-1]
    return np.concatenate([tr._fwd_even @ (0.5 * (pos + neg)), tr._fwd_odd @ (0.5 * (pos - neg))])


@pytest.mark.parametrize("mode", ["radial", "rank1"])
def test_zero_tail_forward_matches_the_whole_kernel(mode, wb_radial3, wb_rank1_k05):
    # compactly supported batches end in zero rows and multiply fewer kernel
    # columns: the same coordinates up to rounding; any other batch is the
    # very product with the whole kernel
    wb = wb_radial3 if mode == "radial" else wb_rank1_k05
    tr, x = wb.transform, wb.quad.nodes

    def batch(families, seed):
        cols = [f(x) for f in generate_corpus(seed, 4, families, mode=mode)]
        if mode == "rank1":
            cols.append(x * cols[0])                        # an odd member
        return np.column_stack(cols)

    for families in (["RadialBump"], ["AnnularBump"], ["RadialBump", "AnnularBump"]):
        for seed in range(3):
            v = batch(families, seed)
            assert not v[-1].any()
            for vals in (v, v[:, 0], v + 1j * v[:, ::-1]):
                got, want = tr.to_coords(vals), _whole_kernel_coords(tr, vals)
                assert got.shape == want.shape
                err = np.linalg.norm(got - want, axis=0)   # per column
                assert np.all(err <= 1e-15 * np.linalg.norm(want, axis=0)), (families, seed)
    v = np.column_stack([batch(["RadialBump"], 0), batch(["Gaussian", "HermiteGaussian"], 1)])
    assert v[-1].any()
    for vals in (v, v[:, -1]):
        assert np.array_equal(tr.to_coords(vals), _whole_kernel_coords(tr, vals))
    for shape in ((x.size,), (x.size, 3), (x.size, 0)):
        got = tr.to_coords(np.zeros(shape))
        assert got.shape == (tr.coord_xi.size,) + shape[1:] and not got.any()


@pytest.mark.parametrize("mode", ["radial", "rank1"])
def test_real_corpus_stays_in_real_coordinates(mode, wb_radial3, wb_rank1_k05, monkeypatch):
    # a field holds the transform's real coordinates at coord_xi with
    # coord_weights, and frac_values sends real coordinates back
    wb = wb_radial3 if mode == "radial" else wb_rank1_k05
    tr, corpus = wb.transform, generate_corpus(5, 4, ["Gaussian", "HermiteGaussian"], mode=mode)
    fld = wb.spectral(corpus)
    assert fld.values.dtype == np.float64 and fld.values.shape == (tr.coord_xi.size, 4)
    assert np.array_equal(fld.xi, tr.coord_xi) and np.array_equal(fld.weights, tr.coord_weights)
    seen, inverse = [], tr.inverse
    monkeypatch.setattr(tr, "inverse", lambda c: seen.append(c.values.dtype) or inverse(c))
    vals = wb.frac_values(corpus, 1.0)
    assert seen == [np.float64] and vals.shape == (4, wb.quad.npoints)


def test_rank1_transform_rejects_unmirrored_rule():
    q = dk.rank1_quadrature(0.5, 10.0, 80)
    shifted = dk.WeightedQuadrature("rank1", q.nodes + 0.01, q.weights, q.rmax, q.recipe)
    with pytest.raises(ValueError, match="mirrored"):
        dk.DunklTransformRank1(0.5, shifted, q)


def test_rank1_workbench_takes_rmax():
    assert dk.rank1_workbench(0.5, rmax=12.0).quad.rmax == 12.0


# ---------------------------------------------------------------------------
# kernels: forward built in row blocks, inverse derived on first use


def _whole_grid_kernels(tr):
    """(block, its forward kernel, the inverse built directly): the Bessel
    kernel evaluated on the whole grid at once, with the x weights folded in
    going forward and the ξ weights coming back."""
    xq, xiq = tr.x_quad, tr.xi_quad
    if isinstance(tr, dk.RadialDunklTransform):
        ker = normalized_bessel_j(tr.nu, np.outer(xiq.nodes, xq.nodes))
        m_rho = float(xiq.recipe["const"] * 2.0 ** (tr.lam / 2.0 - 1.0) * sps.gamma(tr.lam / 2.0))
        return [(tr, ker * (xq.weights / tr.M), ker.T * (xiq.weights / m_rho))]
    h, hxi, k = xq.npoints // 2, xiq.npoints // 2, tr.k
    z = np.outer(xiq.nodes[hxi:], xq.nodes[h:])
    w_in, w_out = 2.0 * xq.weights[h:] / tr.M, 2.0 * xiq.weights[hxi:] / tr.M
    even = normalized_bessel_j(k - 0.5, z)
    odd = z / (2.0 * k + 1.0) * normalized_bessel_j(k + 0.5, z)
    return [(tr.even, even * w_in, even.T * w_out), (tr.odd, odd * w_in, odd.T * w_out)]


def _derived_inverse_within_4_ulp(block, direct) -> bool:
    """Every entry of the inverse kernel a block derives on its first
    from_coords is within 4 ulp (relative) of the directly built one."""
    block.from_coords(np.zeros(block.coord_xi.size))
    return bool(np.all(np.abs(block._inv - direct) <= 4.0 * np.finfo(float).eps * np.abs(direct)))


def _shipped_transforms():
    """The transforms the benchmark builds: the five verify-sweep workbenches
    (the first is also sharp-probe's default N = 3 workbench) and the three
    wave-picard grids (the README wave grid)."""
    yield from (dk.radial_workbench(N, g).transform for N, g in ((3, 0.0), (3, 0.5), (3, 1.0),
                                                                 (5, 0.0)))
    yield dk.rank1_workbench(0.5).transform
    grid = dict(x_max=16.0, nx=280, xi_max=20.0, nxi=280)
    yield from (dk.WaveConfig(b=1.0, m=1.0, mode="rank1", k=k, **grid).build_transform()
                for k in (0.5, 1.0))
    yield dk.WaveConfig(b=1.0, m=1.0, mode="radial", N=3, gamma=0.0, **grid).build_transform()


def test_shipped_kernels_are_the_whole_grid_kernels():
    # the row-blocked forward kernels are the whole-grid products bit for bit;
    # each derived inverse entry is within 4 ulp of the directly built one
    for tr in _shipped_transforms():
        for block, fwd, inv in _whole_grid_kernels(tr):
            assert np.array_equal(block._fwd, fwd)
            assert _derived_inverse_within_4_ulp(block, inv)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(mode=st.sampled_from(["radial", "rank1"]),
       k=st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.05, 3.0),
       N=st.integers(1, 6), gamma=st.sampled_from([0.0, 0.5]) | st.floats(0.0, 2.0),
       res=st.integers(16, 200), xi_res=st.integers(16, 200),
       rmax=st.floats(2.0, 40.0), xi_max=st.floats(2.0, 60.0), entries=st.integers(1, 5000))
def test_row_blocked_kernels_are_the_whole_grid_kernels(mode, k, N, gamma, res, xi_res,
                                                        rmax, xi_max, entries):
    # a small row block splits the build into many blocks (one row each at
    # entries below a row's length), which must not change a single entry
    with mock.patch.object(spectral, "_BLOCK_ENTRIES", entries):
        if mode == "radial":
            tr = dk.radial_workbench(N, gamma, rmax, res, xi_max, xi_res).transform
        else:
            tr = dk.rank1_workbench(k, rmax, res, xi_max, xi_res).transform
    for block, fwd, inv in _whole_grid_kernels(tr):
        assert np.array_equal(block._fwd, fwd)
        assert _derived_inverse_within_4_ulp(block, inv)


def test_verify_corpus_derives_no_inverse():
    # the README verify run goes forward only (Plancherel norms), so no
    # block holds an inverse kernel after it
    wb = dk.radial_workbench(3, 0.0)
    spec = dk.make_spec("FractionalHardy", N=3, gamma=0.0, s=1.0)
    corpus = generate_corpus(7, 20, ["Gaussian", "DilatedGaussian", "HermiteGaussian"],
                             mode="radial")
    assert dk.verify_corpus(spec, corpus, wb).records
    assert wb.transform._inv is None


@pytest.mark.parametrize("mode", ["radial", "rank1"])
def test_a_second_inverse_reuses_the_derived_kernel(mode):
    grid = dict(resolution=64, xi_resolution=64)
    tr = (dk.radial_workbench(3, 0.0, **grid) if mode == "radial"
          else dk.rank1_workbench(0.5, **grid)).transform
    blocks = [tr] if mode == "radial" else [tr.even, tr.odd]
    c = np.random.default_rng(3).standard_normal((tr.coord_xi.size, 2))
    first = tr.from_coords(c)
    kernels = [b._inv for b in blocks]
    assert np.array_equal(tr.from_coords(c), first)
    assert all(b._inv is a for b, a in zip(blocks, kernels))
