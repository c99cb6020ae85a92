"""Property tests over generated inputs: exact weighted norms through the
shared quadrature builder, Plancherel / round trip of both transforms,
the rank-1 parity blocks against the full rank-1 transform bit for bit,
causality and linearity of the wave solver's blocked Duhamel scan and its
agreement with the serial sweep, the two-level linear modes against the
full-grid closed forms, the mode propagator against mpmath, dilation of
every test-function carrier, of weighted norms and of the benchmark's
verify-sweep ratios, batched `verify_corpus` against per-member
evaluation, the cached rule layout against the panel-by-panel rule, the
direct Gauss-Jacobi core against `scipy.special.roots_jacobi` bit for bit,
the equality conditions of the derived parameters `make_spec` fills in, and
the shared hypotheses N ≥ 1 and γ ≥ 0 first among every theorem's conditions."""

import importlib.util
import math
import sys
from functools import lru_cache
from pathlib import Path
from unittest import mock

import pytest

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st
from scipy import special as sps

import dunklkit as dk
from dunklkit import inequalities
from dunklkit.extremal import bump_scale_family
from dunklkit.functions import CORPUS_FAMILIES, corpus_values, generate_corpus
from dunklkit.measure import (_half_axis_layout, _half_axis_rule, _jacobi_core,
                              radial_quadrature, rank1_quadrature, weighted_lp_norm)
from dunklkit.waveeq import (_block_size, _carry, _linear_modes, _propagator,
                             linear_mode_solution)
from oracles import carrier_values_loop, duhamel, duhamel_serial, half_axis_rule_loop

PROPERTY = settings(derandomize=True, deadline=None, max_examples=25)
EXACT_FAMILIES = ["Gaussian", "DilatedGaussian", "HermiteGaussian"]
# verify-sweep's families without the bumps, whose pointwise round trip
# misses 1e-6 on the default ξ range
SPECTRAL_FAMILIES = ["Gaussian", "DilatedGaussian", "HermiteGaussian", "SeededSuperposition"]
SEEDS = st.integers(0, 2 ** 16)
POWERS = st.floats(-0.45, 2.0)       # |x|^{2a} stays integrable for every Λ ≥ 1


def _check_exact_norms(corpus, quad, a, exact):
    for f in corpus:
        (comp,) = f.components
        got = weighted_lp_norm(f, 2.0, a, quad) ** 2
        want = exact(comp)
        assert abs(got / want - 1.0) < 1e-8, (f.fid, got, want)


@PROPERTY
@given(N=st.integers(1, 6), gamma=st.floats(0.0, 2.0), a=POWERS, seed=SEEDS)
def test_radial_norms_match_closed_forms(N, gamma, a, seed):
    quad = radial_quadrature(N, gamma, 16.0, 640)
    lam = N + 2.0 * gamma
    _check_exact_norms(generate_corpus(seed, 3, EXACT_FAMILIES, mode="radial"), quad, a,
                       lambda c: c.weighted_l2_exact(a, lam, surface_const=quad.recipe["const"]))


@PROPERTY
@given(k=st.floats(0.0, 2.5), a=POWERS, seed=SEEDS)
def test_rank1_norms_match_closed_forms(k, a, seed):
    quad = rank1_quadrature(k, 16.0, 640)
    _check_exact_norms(generate_corpus(seed, 3, EXACT_FAMILIES, mode="rank1"), quad, a,
                       lambda c: c.weighted_l2_exact(a, k))


# the README and benchmark grids: default, sharp-probe's wide rule, selftest, tiny
RULE_GRIDS = [(16.0, 640), (1e30, 3000), (14.0, 420), (16.0, 200)]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(sigma=st.floats(-0.999, 8.0), grid=st.sampled_from(RULE_GRIDS))
def test_cached_rule_layout_is_the_panel_rule_bit_for_bit(sigma, grid):
    # a rule built on the cached sigma-free layout, cold or warm, is the
    # panel-by-panel rule; the shared layout cannot be written into
    want = half_axis_rule_loop(sigma, *grid)
    _half_axis_layout.cache_clear()
    for _ in ("cold", "warm"):
        for got, ref in zip(_half_axis_rule(sigma, *grid), want):
            assert np.array_equal(got, ref), (sigma, grid)
    _, _, x, base = _half_axis_layout(*grid)
    assert not (x.flags.writeable or base.flags.writeable)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(n=st.integers(12, 28),
       sigma=st.one_of(st.floats(-1.0, 30.0, exclude_min=True),
                       st.floats(-1.0, 1e3, exclude_min=True)))
@example(n=28, sigma=0.0)                                   # Legendre: scipy's own branch
@example(n=12, sigma=-0.0)
@example(n=20, sigma=math.nextafter(-1.0, 0.0))             # the integrability edge
@example(n=16, sigma=1e3)
@example(n=16, sigma=1000.5)                                # log-space μ₀: scipy's own branch
def test_jacobi_core_is_scipy_roots_jacobi_bit_for_bit(n, sigma):
    with np.errstate(divide="ignore"):      # scipy's discarded k = 1 branch, at the edge
        want = sps.roots_jacobi(n, 0.0, sigma)
    for got, ref in zip(_jacobi_core(n, sigma), want):
        assert got.dtype == ref.dtype and np.array_equal(got, ref), (n, sigma)


@lru_cache(maxsize=None)
def _workbench(setting):
    """Default workbench of a setting: ("rank1", k) or ("radial", N, γ)."""
    if setting[0] == "rank1":
        return dk.rank1_workbench(setting[1])
    return dk.radial_workbench(setting[1], setting[2])


SETTINGS = [("rank1", 0.0), ("rank1", 0.5), ("rank1", 1.5),
            ("radial", 3, 0.0), ("radial", 1, 0.7), ("radial", 5, 0.5)]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(setting=st.sampled_from(SETTINGS), family=st.sampled_from(SPECTRAL_FAMILIES),
       seed=SEEDS)
def test_plancherel_and_round_trip(setting, family, seed):
    wb = _workbench(setting)
    (f,) = generate_corpus(seed, 1, [family], mode=setting[0])
    fld = wb.spectral(f)
    assert abs(fld.l2() / wb.norm(f, 2.0) - 1.0) < 1e-6
    vals = f.value(wb.quad.nodes)
    back = wb.transform.inverse(fld)
    assert np.max(np.abs(back - vals)) < 1e-6 * np.max(np.abs(vals))


@PROPERTY
@given(k=st.sampled_from([0.0, 0.3, 0.5, 0.85, 1.0, 2.5]), rmax=st.floats(4.0, 12.0),
       res=st.tuples(st.integers(16, 48), st.integers(16, 48)),
       width=st.sampled_from([(), (3,)]), seed=SEEDS)
def test_rank1_parity_blocks_are_the_full_transform_bit_for_bit(k, rmax, res, width, seed):
    # samples of one parity reach the coordinates of that parity's block, and
    # coordinates of one parity come back as that block's r > 0 samples, with
    # the same rounding as the full transform
    tr = dk.DunklTransformRank1(k, rank1_quadrature(k, rmax, res[0]),
                                rank1_quadrature(k, 1.3 * rmax, res[1]))
    h, hxi = tr.x_quad.npoints // 2, tr.coord_xi.size // 2
    rng = np.random.default_rng(seed)
    half, c = rng.standard_normal((h,) + width), rng.standard_normal((hxi,) + width)
    zeros = np.zeros_like(c)
    for block, sign, rows in ((tr.even, 1.0, slice(None, hxi)), (tr.odd, -1.0, slice(hxi, None))):
        v = np.concatenate([sign * half[::-1], half])
        assert np.array_equal(block.to_coords(v[h:]), tr.to_coords(v)[rows])
        full = np.concatenate([c, zeros] if sign > 0 else [zeros, c])
        assert np.array_equal(block.from_coords(c), tr.from_coords(full)[h:])
        assert np.array_equal(block.coord_xi, tr.coord_xi[rows])
        assert np.array_equal(block.coord_weights, tr.coord_weights[rows])


@settings(derandomize=True, deadline=None, max_examples=10)
@given(k=st.floats(0.0, 2.0), shift=st.floats(-2.0, 2.0), odd=st.floats(-1.0, 1.0))
def test_rank1_wave_spectrum_is_conjugate_symmetric(k, shift, odd):
    # real data: U and ∂_t U are real coordinates, so on the mirrored ξ grid
    # their full spectrum obeys U(t, -ξ) = conj U(t, ξ)
    cfg = dk.WaveConfig(b=1.0, m=1.0, epsilon=0.05, p=1.5, k=k, nx=48, nxi=56,
                        x_max=10.0, xi_max=12.0, t_final=1.0, dt=0.05)
    sol = dk.solve_nonlinear(cfg, lambda x: (1.0 + odd * x) * np.exp(-(x - shift) ** 2), None)
    tr = cfg.build_transform()
    xi = tr.xi_quad.nodes
    assert np.array_equal(sol.xi, tr.coord_xi) and np.array_equal(xi[::-1], -xi)
    for U in (sol.U, sol.dtU):
        assert U.dtype == np.float64 and U.shape == (sol.times.size, xi.size)
        full = tr.to_full(U.T).T
        assert np.array_equal(full[:, ::-1], np.conj(full))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(b=st.floats(0.1, 30.0), m=st.floats(0.0, 3.0), dt=st.floats(0.005, 0.2),
       i0=st.integers(1, 39), alpha=st.floats(-3.0, 3.0), seed=SEEDS)
def test_duhamel_is_causal_and_linear(b, m, dt, i0, alpha, seed):
    # rows < i0 of both Duhamel parts see only F[:i0], bit for bit, and the
    # parts are linear in F
    nt = 40
    seam = np.sqrt(max(0.25 * b * b - m, 0.0))
    xi = np.array([0.0, 0.5, 2.0, 9.0, seam, seam + 1e-9])
    A = _propagator(b, m, xi, dt * np.arange(_block_size(nt) + 1))
    rng = np.random.default_rng(seed)
    F, G = rng.standard_normal((2, nt, xi.size))
    late = F.copy()
    late[i0:] = G[i0:]
    for a, c in zip(duhamel(A, dt, F), duhamel(A, dt, late)):
        assert np.array_equal(a[:i0], c[:i0])
    for f, g, h in zip(duhamel(A, dt, F), duhamel(A, dt, G), duhamel(A, dt, alpha * F + G)):
        scale = np.max(np.abs(alpha * f) + np.abs(g))
        assert np.max(np.abs(h - (alpha * f + g))) <= 1e-13 * scale


def _seam_modes(b, m):
    # ξ on the critical seam D = 0 and 1e-9 either side of it, where it exists
    seam = np.sqrt(max(0.25 * b * b - m, 0.0))
    xi = np.array([0.0, 0.5, 2.0, 6.0, seam - 1e-9, seam, seam + 1e-9])
    return xi[xi >= 0.0]


# nt = q(q + a) + r has ⌈√nt⌉ = q steps per block: whole blocks (r = 0), one
# row past them (r = 1) or one row short (r = -1).  The full-grid closed form
# is finite at every b·T (the D > 0 envelope is folded in), so b·T is not
# capped: it reaches about 300
@settings(derandomize=True, deadline=None, max_examples=40)
@given(b=st.floats(0.1, 30.0), m=st.floats(0.0, 3.0), dt=st.floats(0.005, 0.05),
       q=st.integers(2, 14), shape=st.sampled_from([(-1, 0), (-1, 1), (0, 0), (0, -1)]),
       seed=SEEDS)
def test_two_level_linear_modes_match_full_grid_closed_form(b, m, dt, q, shape, seed):
    nt = q * (q + shape[0]) + shape[1]
    assert _block_size(nt) == q
    xi = _seam_modes(b, m)
    U0, U1 = np.random.default_rng(seed).standard_normal((2, xi.size))
    U, dtU = _carry(*_linear_modes(b, m, xi, dt, nt, U0, U1), slice(0, nt))
    a11, a12, a21, a22 = _propagator(b, m, xi, dt * np.arange(nt))
    for got, want in zip((U, dtU), (a11 * U0 + a12 * U1, a21 * U0 + a22 * U1)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


# nt < B (one short block), k whole blocks, and k blocks and one row
@settings(derandomize=True, deadline=None, max_examples=40)
@given(b=st.floats(0.1, 30.0), m=st.floats(0.0, 3.0), dt=st.floats(0.005, 0.2),
       B=st.integers(2, 12), k=st.integers(1, 6),
       shape=st.sampled_from(["short", "whole", "whole+1"]), seed=SEEDS)
def test_blocked_duhamel_matches_serial_sweep(b, m, dt, B, k, shape, seed):
    nt = {"short": B - 1, "whole": k * B, "whole+1": k * B + 1}[shape]
    xi = _seam_modes(b, m)
    F = np.random.default_rng(seed).standard_normal((nt, xi.size))
    A = _propagator(b, m, xi, dt * np.arange(B + 1))
    got = duhamel(A, dt, F)
    want = duhamel_serial(b, [a[1] for a in A], dt, F)
    kernels = _propagator(b, m, xi, dt * np.arange(nt))[1::2]
    for K, g, w in zip(kernels, got, want):
        scale = np.array([dt * np.sum(np.abs(K[i::-1] * F[: i + 1]), axis=0) for i in range(nt)])
        assert np.all(np.abs(g - w) <= 1e-13 * scale)


# The propagator against 50-digit mpmath for b·t up to 2000, far past
# b·t/2 ≈ 709 where e^{-bt/2} underflows and cosh(√D t/2) overflows, with ξ at
# 10^-e·max(seam, 1) from the seam D = 0 on either side of it.  Near the seam
# the modes are ill-conditioned in D (one ulp of m + ξ² moves z = Dt²/4 by
# about (bt/2)²·eps), so the reference takes the q = m + ξ² and D the solver
# forms.  An entry c1·eC + c2·eS is measured against its amplitude
# |c1|·env + |c2|·env·min(t, 2/√|D|), env = e^{λt} with λ = λ+ for D > 0 and
# -b/2 otherwise: rounding λt and √|D|t/2 costs eps·(|λ|t + √|D|t/2 + 1) of
# it, plus the smallest normal double where the entry is subnormal
@settings(derandomize=True, deadline=None, max_examples=300)
@given(b=st.floats(0.1, 30.0), m=st.floats(0.0, 3.0), bt=st.floats(0.0, 2000.0),
       e=st.floats(0.0, 12.0), side=st.sampled_from([-1.0, 1.0]))
def test_propagator_is_finite_and_matches_mpmath(b, m, bt, e, side):
    mp = pytest.importorskip("mpmath")
    t = bt / b
    seam = np.sqrt(max(0.25 * b * b - m, 0.0))
    xi = max(seam + side * 10.0 ** -e * max(seam, 1.0), 0.0)
    got = [a.item() for a in _propagator(b, m, xi, t)]
    assert all(np.isfinite(got))
    q = m + xi * xi
    D = b * b - 4.0 * q
    s = np.sqrt(abs(D))
    lam = -2.0 * q / (b + s) if D > 0 else -0.5 * b
    with mp.workdps(50):
        B, T = mp.mpf(b), mp.mpf(t)
        r = mp.sqrt(mp.mpf(D) * T * T / 4)
        env = mp.exp(-B * T / 2)
        eC = mp.re(env * mp.cosh(r))
        eS = mp.re(env * T * mp.sinh(r) / r) if r != 0 else env * T
        want = [eC + B / 2 * eS, eS, -mp.mpf(q) * eS, eC - B / 2 * eS]
        env = mp.exp(mp.mpf(lam) * T)
        sig = env * (min(t, 2.0 / s) if s > 0 else t)
        amp = [env + B / 2 * sig, sig, q * sig, env + B / 2 * sig]
        bound = 4.0 * np.finfo(float).eps * (abs(lam) * t + 0.5 * s * t + 1.0)
        for g, w, a in zip(got, want, amp):
            assert abs(g - w) <= bound * a + np.finfo(float).tiny, (g, w)


def test_overdamped_mode_past_the_envelope_underflow_matches_mpmath():
    # b·t/2 = 750: e^{-bt/2} alone underflows, the mode is e^{λ+ t}·O(1) ≈ 0.19
    got = linear_mode_solution(30.0, 1.0, 0.0, 50.0, 1.0, 0.0)
    assert got == pytest.approx(0.18873555235714237, rel=1e-14)


# ---------------------------------------------------------------------------
# dilation: f.dilate(λ) is r ↦ f(λr), and its derivative is λ f'(λr)

DILATIONS = st.floats(0.3, 3.0)
TRIAL_FAMILIES = [dk.power_gaussian_family(), dk.inverse_power_family(), bump_scale_family()]


def _check_dilation(f, lam, x):
    want = f.value(lam * x)
    np.testing.assert_allclose(f.dilate(lam).value(x), want, rtol=1e-10,
                               atol=1e-13 * np.max(np.abs(want)))
    want = lam * f.derivative().value(lam * x)
    np.testing.assert_allclose(f.dilate(lam).derivative().value(x), want, rtol=1e-10,
                               atol=1e-13 * np.max(np.abs(want)))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(mode=st.sampled_from(["radial", "rank1"]), family=st.sampled_from(CORPUS_FAMILIES),
       vanish=st.booleans(), seed=SEEDS, lam=DILATIONS)
def test_corpus_dilation(mode, family, vanish, seed, lam):
    (f,) = generate_corpus(seed, 1, [family], {"vanish_at_origin": vanish}, mode=mode)
    x = np.linspace(0.02, 6.0, 150) if mode == "radial" else np.linspace(-6.0, 6.0, 151)
    _check_dilation(f, lam, x)


@PROPERTY
@given(index=st.sampled_from(range(len(TRIAL_FAMILIES))),
       u=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2), lam=DILATIONS)
def test_trial_family_dilation(index, u, lam):
    fam = TRIAL_FAMILIES[index]
    f = fam.make([lo + t * (hi - lo) for t, (lo, hi) in zip(u, fam.box.values())])
    _check_dilation(f, lam, np.linspace(0.02, 8.0, 200))


# fine enough that the bumps' steep edges integrate to ~1e-9 at every dilate
FINE_QUADS = {"radial": radial_quadrature(3, 0.5, 16.0, 2400),
              "rank1": rank1_quadrature(0.5, 16.0, 2400)}


@settings(derandomize=True, deadline=None, max_examples=60)
@given(mode=st.sampled_from(["radial", "rank1"]), family=st.sampled_from(CORPUS_FAMILIES),
       vanish=st.booleans(), seed=SEEDS, lam=st.floats(0.5, 2.0), p=st.sampled_from([2.0, 4.0]),
       u=st.floats(0.0, 1.0))
def test_weighted_norm_dilation(mode, family, vanish, seed, lam, p, u):
    """‖|x|^a f(λ·)‖_p = λ^{-(a+Λ/p)} ‖|x|^a f‖_p; annuli down to a = -4,
    which only their inner support hole (divided by λ under dilate) admits."""
    quad = FINE_QUADS[mode]
    dim = 1.0 + quad.recipe["sigma"]
    (f,) = generate_corpus(seed, 1, [family], {"vanish_at_origin": vanish}, mode=mode)
    lo = -4.0 if f.support_inner > 0 else -0.5 * dim / p
    a = lo + u * (1.0 - lo)
    got = weighted_lp_norm(f.dilate(lam), p, a, quad)
    want = lam ** -(a + dim / p) * weighted_lp_norm(f, p, a, quad)
    assert abs(got / want - 1.0) < 1e-7, (f.fid, lam, p, a)


def _verify_specs():
    """The benchmark's verify-sweep specs: (spec, workbench key, vanishing)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module              # dataclasses look their module up
    spec.loader.exec_module(module)
    return module.verify_specs(), module.CORPUS_FAMILIES


VERIFY_SPECS, VERIFY_FAMILIES = _verify_specs()


@pytest.mark.parametrize("index", range(len(VERIFY_SPECS)),
                         ids=[f"{i:02d}.{s.theorem}" for i, (s, _, _) in enumerate(VERIFY_SPECS)])
@settings(derandomize=True, deadline=None, max_examples=3)
@given(seed=SEEDS, lam=st.floats(0.7, 1.4))
def test_verify_sweep_ratio_dilation_invariance(index, seed, lam):
    spec, key, vanishing = VERIFY_SPECS[index]
    setting = ("rank1", 0.5) if key == "rank1" else ("radial", *key)
    wb = _workbench(setting)
    for f in generate_corpus(seed, len(VERIFY_FAMILIES), VERIFY_FAMILIES,
                             {"vanish_at_origin": vanishing}, mode=setting[0]):
        want = dk.evaluate_sides(spec, f, wb).ratio
        got = dk.evaluate_sides(spec, f.dilate(lam), wb).ratio
        assert abs(got / want - 1.0) < 1e-3, (f.fid, lam, got, want)


@PROPERTY
@given(seed=SEEDS, count=st.integers(1, 12), vanishing=st.booleans(),
       mode=st.sampled_from(["radial", "rank1"]), derived=st.integers(0, 1))
def test_corpus_values_match_carrier_loop(seed, count, vanishing, mode, derived):
    # the padded coefficient matrix gives each member the sum of its carriers'
    # values from the scalar Horner loop, at the member's own origin power
    # and at the corpus's smallest one
    corpus = generate_corpus(seed, count, list(CORPUS_FAMILIES),
                             {"vanish_at_origin": vanishing}, mode=mode)
    corpus = [f for f in corpus if mode == "radial" or not f.family.endswith("Bump")]
    assume(corpus)
    for _ in range(derived):            # raise the degree and move the origin power
        corpus = [f.derivative() for f in corpus]
    x = np.linspace(-3.0, 3.0, 41) if mode == "rank1" else np.geomspace(1e-3, 9.0, 41)
    low = min(f.origin_factor_power for f in corpus)
    for power in ({f.origin_factor_power for f in corpus} | {low}):
        members = [f for f in corpus if f.origin_factor_power >= power]
        got = corpus_values(members, x, power)
        for f, row in zip(members, got):
            want = 0.0
            for c in f.components:
                want = want + carrier_values_loop(c, x, power)
            np.testing.assert_allclose(row, want, rtol=1e-15, atol=0.0, err_msg=f.fid)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(seed=SEEDS, count=st.integers(1, 12),
       families=st.lists(st.sampled_from(CORPUS_FAMILIES), min_size=1, unique=True),
       mode=st.sampled_from(["radial", "rank1"]), radial=st.booleans(), vanish=st.booleans())
def test_corpus_members_satisfy_their_constraints(seed, count, families, mode, radial, vanish):
    # generate_corpus builds each constraint into the members it draws: the
    # radial one zeroes a rank-1 member's odd coefficients, the vanishing one
    # gives it an origin factor or an annulus
    corpus = generate_corpus(seed, count, families,
                             {"radial": radial, "vanish_at_origin": vanish}, mode=mode)
    assert len(corpus) == count
    for f in corpus:
        assert f.is_radial or not radial, f.fid
        assert f.vanishes_at_origin or not vanish, f.fid


def _first_error(evaluate):
    """(type, message) of what evaluate() raises, or None."""
    try:
        evaluate()
    except Exception as exc:               # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)
    return None


@PROPERTY
@given(seed=SEEDS, count=st.integers(1, 12))
def test_verify_corpus_batch_matches_per_member_evaluation(seed, count):
    # verify_corpus evaluates a corpus as arrays: one value matrix and one
    # reduction per norm, its fields from one batched forward.  Each record
    # must match evaluate_sides on that member alone, on a workbench with an
    # empty field cache (same kernel), for every spec at every width: over
    # the verify families, and over all corpus families (bumps and annuli
    # included) the members that pass alone.  Where a member fails alone (a
    # profile carrier has no Laplacian or rank-1 Dunkl hook), the whole
    # corpus raises what the first failing member raises.
    corpora = {(families, mode, vanishing):
               generate_corpus(seed, count, list(families), {"vanish_at_origin": vanishing},
                               mode=mode)
               for families in (tuple(VERIFY_FAMILIES), CORPUS_FAMILIES)
               for mode, vanishing in (("radial", False), ("radial", True), ("rank1", False))}
    fresh = {}
    for spec, key, vanishing in VERIFY_SPECS:
        setting = ("rank1", 0.5) if key == "rank1" else ("radial", *key)
        wb = _workbench(setting)
        if setting not in fresh:
            fresh[setting] = dk.Workbench(wb.mode, wb.N, wb.gamma, wb.quad, wb.xi_quad,
                                          wb.transform)
        for families in (tuple(VERIFY_FAMILIES), CORPUS_FAMILIES):
            corpus = corpora[families, setting[0], vanishing]
            alone = [_first_error(lambda f=f: dk.evaluate_sides(spec, f, fresh[setting]))
                     for f in corpus]
            failed = [e for e in alone if e is not None]
            if families == tuple(VERIFY_FAMILIES):
                assert not failed, (spec.theorem, failed)
            if failed:
                assert _first_error(lambda: dk.verify_corpus(spec, corpus, wb)) == failed[0]
            passing = [f for f, e in zip(corpus, alone) if e is None]
            if not passing:
                continue
            for f, rec in zip(passing, dk.verify_corpus(spec, passing, wb).records):
                want = dk.evaluate_sides(spec, f, fresh[setting])
                for got, ref in ((rec.lhs, want.lhs), (rec.rhs, want.rhs),
                                 (rec.ratio, want.ratio)):
                    assert abs(got - ref) <= 1e-13 * abs(ref), (spec.theorem, f.fid, got, ref)


# ---------------------------------------------------------------------------
# derived parameters: make_spec's filled-in value satisfies the theorem's equalities

DIM, GAMMA = st.integers(1, 6), st.floats(0.0, 2.0)
EXPONENT, WEIGHT, DELTA = st.floats(1.0, 10.0), st.floats(-2.0, 3.0), st.floats(0.0, 1.0)
# each theorem with derived parameters: strategies for the others but N and γ
GIVEN = {
    "Sobolev": dict(p=EXPONENT),
    "WeightedHardy": dict(a=WEIGHT, b=WEIGHT),
    "WeightedRellich": dict(a=WEIGHT, b=WEIGHT),
    "HigherRellich": dict(a=WEIGHT, b=WEIGHT, j=st.integers(1, 3)),
    "Uncertainty": dict(p=st.floats(1.05, 10.0)),
    "GN_I": dict(p=EXPONENT, q=EXPONENT, r=EXPONENT),
    "WeightedGN_I": dict(p=EXPONENT, s=st.floats(2.0, 6.0)),
    "WeightedGN_II": dict(a=st.floats(1.0, 2.0), s=st.floats(2.0, 4.0)),
    "CKN_I": dict(p=EXPONENT, q=EXPONENT, b=WEIGHT, delta=DELTA),
    "CKN_II": dict(q=EXPONENT, a=WEIGHT, b=WEIGHT, delta=DELTA),
    "CKN_fractional": dict(q=EXPONENT, a=WEIGHT, b=WEIGHT, delta=DELTA),
}


def test_every_derived_table_has_strategies():
    assert set(GIVEN) == {tag for tag, thm in inequalities.THEOREMS.items() if thm.derived}
    for tag, given in GIVEN.items():
        thm = inequalities.THEOREMS[tag]
        assert set(thm.params) == {"N", "gamma"} | set(given) | set(thm.derived), tag


def _equality_conditions(spec):
    """The spec's admissibility conditions that `_eq` builds."""
    eq_ids = []
    real = inequalities._eq

    def recording(cid, statement, diff):
        eq_ids.append(cid)
        return real(cid, statement, diff)
    with mock.patch.object(inequalities, "_eq", recording):
        conditions = inequalities.admissible(spec).conditions
    return [c for c in conditions if c.cid in eq_ids]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(tag=st.sampled_from(sorted(GIVEN)), N=DIM, gamma=GAMMA, data=st.data())
def test_derived_parameters_satisfy_their_equalities(tag, N, gamma, data):
    # a `*_formula` condition reads the function that filled the value in, so
    # its residual is exactly 0; a balance or conjugate condition holds to EQ_TOL
    drawn = {k: data.draw(strategy, label=k) for k, strategy in GIVEN[tag].items()}
    try:
        spec = dk.make_spec(tag, N=N, gamma=gamma, **drawn)
    except inequalities.AdmissibilityError:
        assume(False)                     # the derived parameter is undefined here
    assert set(spec.params) == set(inequalities.THEOREMS[tag].params)
    conditions = _equality_conditions(spec)
    assert conditions, tag
    for c in conditions:
        if c.cid.endswith("_formula"):
            assert c.residual == 0.0, (tag, spec.params, c)
        assert c.ok, (tag, spec.params, c)


# ---------------------------------------------------------------------------
# the shared hypotheses: admissible() states N ≥ 1 and γ ≥ 0 first, for every theorem


@pytest.mark.parametrize("tag", sorted(inequalities.THEOREMS))
@PROPERTY
@given(N=st.integers(0, 6), gamma=st.one_of(st.floats(-2.0, -0.01), st.floats(0.0, 2.0)),
       data=st.data())
def test_shared_hypotheses_come_first_and_fail_off_their_range(tag, N, gamma, data):
    assume(N == 0 or gamma < 0.0)
    params = {k: data.draw(st.floats(0.25, 8.0), label=k)
              for k in inequalities.THEOREMS[tag].params[2:]}
    rep = inequalities.admissible(dk.InequalitySpec(tag, {"N": N, "gamma": gamma, **params}))
    ids = [c.cid for c in rep.conditions]
    assume(ids != ["defined"])            # a formula's pole replaces every condition
    assert ids[:2] == ["dimension", "gamma_nonneg"], (tag, ids)
    assert [c.ok for c in rep.conditions[:2]] == [N >= 1, gamma >= 0.0], (tag, rep.conditions)
    assert not rep.admissible
