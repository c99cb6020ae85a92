"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -v tests/test_acceptance.py`; the per-criterion lines are
echoed in the terminal summary (and immediately with -s).
"""

import time

import numpy as np
import pytest

import dunklkit as dk
from conftest import report
from dunklkit.functions import generate_corpus
from dunklkit.inequalities import admissible, evaluate_sides, verify_corpus
from dunklkit.polynomial import Polynomial
from dunklkit.spectral import (DyadicPartition, classical_fourier_reference,
                               fractional_laplacian, riesz_potential,
                               square_function_l2_ratio)
from dunklkit.waveeq import WaveConfig, linear_mode_solution, solve_linear, solve_nonlinear
from oracles import rk4_modes


def test_acceptance_01_fractional_hardy_ceiling():
    """Sharp fractional Hardy ceiling: corpus ratios ≤ 2, probe ≥ 1.9."""
    t0 = time.monotonic()
    wb = dk.radial_workbench(3, 0.0)
    corpus = generate_corpus(7, 20, ["Gaussian", "DilatedGaussian", "HermiteGaussian"],
                             mode="radial")
    spec = dk.make_spec("FractionalHardy", N=3, gamma=0.0, s=1.0)
    res = verify_corpus(spec, corpus, wb)
    ceiling = 2.0
    assert res.known_bound == pytest.approx(ceiling)
    sup = res.empirical_constant
    ok_corpus = sup <= ceiling * (1 + 1e-3) and not res.violations

    wb_wide = dk.radial_workbench(3, 0.0, rmax=1e30, resolution=3000)
    probe = dk.rayleigh_maximize(spec, dk.inverse_power_family(), wb_wide, seed=7,
                                 ceiling=ceiling)
    ok_probe = probe.best_ratio >= 1.9 and probe.best_ratio <= ceiling * (1 + 1e-3)
    elapsed = time.monotonic() - t0
    report(1, ok_corpus and ok_probe and elapsed < 120.0,
           f"sup ratio {sup:.6f} ≤ 2+1e-3, probe {probe.best_ratio:.4f} ≥ 1.9, "
           f"{elapsed:.1f}s < 120s")
    assert ok_corpus and ok_probe
    assert elapsed < 120.0


def test_acceptance_02_rellich_sharp_constant():
    """Rellich N=5: squared ratios ≤ 16/25 + 1e-3, probe within 20%."""
    t0 = time.monotonic()
    wb = dk.radial_workbench(5, 0.0)
    corpus = generate_corpus(11, 10, ["HermiteGaussian", "SeededSuperposition"],
                             {"vanish_at_origin": True}, mode="radial")
    spec = dk.make_spec("ClassicalRellich", N=5, gamma=0.0)
    res = verify_corpus(spec, corpus, wb)
    sq = [r.ratio ** 2 for r in res.records]
    ok_corpus = max(sq) <= 16.0 / 25.0 + 1e-3 and not res.violations

    probe = dk.rayleigh_maximize(spec, dk.power_gaussian_family(), wb, seed=3,
                                 ceiling=4.0 / 5.0)
    ok_probe = probe.best_ratio ** 2 >= 0.8 * (16.0 / 25.0)
    elapsed = time.monotonic() - t0
    report(2, ok_corpus and ok_probe and elapsed < 120.0,
           f"max squared ratio {max(sq):.4f} ≤ 0.641, probe squared "
           f"{probe.best_ratio ** 2:.4f} ≥ 0.512, {elapsed:.1f}s < 120s")
    assert ok_corpus and ok_probe
    assert elapsed < 120.0


def test_acceptance_03_transform_fidelity():
    """Plancherel 1e-6 and k=0 Fourier agreement 1e-7 across k values."""
    t0 = time.monotonic()
    corpus = generate_corpus(8, 10, ["Gaussian", "DilatedGaussian", "HermiteGaussian",
                                     "SeededSuperposition"], mode="rank1")
    worst_pl = 0.0
    worst_f = 0.0
    for k in (0.0, 0.3, 0.5, 1.0, 2.5):
        wb = dk.rank1_workbench(k)
        for f in corpus:
            worst_pl = max(worst_pl, abs(wb.spectral(f).l2() / wb.norm(f, 2.0) - 1.0))
        if k == 0.0:
            for f in corpus:
                ref = classical_fourier_reference(f.value, wb.xi_quad.nodes, wb.quad.rmax)
                full = wb.transform.to_full(wb.spectral(f).values)
                worst_f = max(worst_f, float(np.max(np.abs(full - ref))))
    elapsed = time.monotonic() - t0
    ok = worst_pl < 1e-6 and worst_f < 1e-7 and elapsed < 60.0
    report(3, ok, f"Plancherel {worst_pl:.2e} < 1e-6, Fourier {worst_f:.2e} < 1e-7, "
                  f"{elapsed:.1f}s < 60s")
    assert worst_pl < 1e-6
    assert worst_f < 1e-7
    assert elapsed < 60.0


def test_acceptance_04_dunkl_exactness():
    """Symbolic Laplacian identities to 1e-12; commutativity to 1e-10."""
    k = 0.85
    rs1 = dk.build_root_system("Rank1Z2", 1, [k])
    lap = dk.dunkl_laplacian_poly(rs1, Polynomial.monomial((2,)))
    err1 = abs(lap.terms.get((0,), 0.0) - 2.0 * (1.0 + 2.0 * k))
    extra1 = max((abs(c) for e, c in lap.terms.items() if e != (0,)), default=0.0)

    rs3 = dk.build_root_system("ProductZ2N", 3, [0.2, 0.5, 0.9])
    r2 = Polynomial(3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 2): 1.0})
    lap2 = dk.dunkl_laplacian_poly(rs3, r2)
    lam = 3 + 2 * rs3.gamma
    err2 = abs(lap2.terms.get((0, 0, 0), 0.0) - 2.0 * lam)
    extra2 = max((abs(c) for e, c in lap2.terms.items() if e != (0, 0, 0)), default=0.0)

    rng = np.random.default_rng(17)
    worst_comm = 0.0
    for rs in (rs3, dk.build_root_system("SymmetricGroupA", 3, [0.7])):
        for _ in range(5):
            terms = {}
            for _ in range(8):
                e = tuple(int(v) for v in rng.integers(0, 4, size=3))
                if sum(e) <= 6:
                    terms[e] = float(rng.uniform(-2, 2))
            f = Polynomial(3, terms)
            for i in range(3):
                for j in range(i + 1, 3):
                    a = dk.dunkl_apply_poly(rs, i, dk.dunkl_apply_poly(rs, j, f))
                    b = dk.dunkl_apply_poly(rs, j, dk.dunkl_apply_poly(rs, i, f))
                    worst_comm = max(worst_comm, (a - b).max_abs_coeff())
    ok = max(err1, extra1, err2, extra2) <= 1e-12 and worst_comm <= 1e-10
    report(4, ok, f"Δ identities {max(err1, err2):.1e} ≤ 1e-12, "
                  f"commutator {worst_comm:.1e} ≤ 1e-10")
    assert max(err1, extra1, err2, extra2) <= 1e-12
    assert worst_comm <= 1e-10


def test_acceptance_05_mode_oracle_equivalence():
    """Closed forms vs RK4 over 100 draws (all signs of D); seam 1e-6."""
    rng = np.random.default_rng(123)
    t_grid = np.arange(0.0, 5.0 + 1e-9, 0.5)
    draws = []
    for _ in range(34):                      # D > 0
        b = rng.uniform(2.5, 4.0); m = rng.uniform(0.2, 0.8)
        draws.append((b, m, rng.uniform(0.0, 0.4)))
    for _ in range(33):                      # D < 0
        b = rng.uniform(0.3, 1.5); m = rng.uniform(1.0, 3.0)
        draws.append((b, m, rng.uniform(0.5, 3.0)))
    for _ in range(33):                      # D = 0 exactly
        b = rng.uniform(2.0, 4.0); m = rng.uniform(0.1, b * b / 4 - 0.05)
        draws.append((b, m, float(np.sqrt(b * b / 4 - m))))
    worst = 0.0
    signs = {1: 0, -1: 0, 0: 0}
    for b, m, xi in draws:
        D = b * b - 4 * (m + xi * xi)
        signs[int(np.sign(D)) if abs(D) > 1e-9 else 0] += 1
        u0 = float(rng.uniform(-1, 1)); u1 = float(rng.uniform(-1, 1))
        ref = rk4_modes(b, m, xi, u0, u1, t_grid)
        got = linear_mode_solution(b, m, xi, t_grid, u0, u1)
        worst = max(worst, float(np.max(np.abs(np.real(got) - ref[:, 0]))))
    assert min(signs.values()) > 0           # all three regimes covered

    b, m = 2.0, 0.9
    seam = 0.0
    for t in (1.0, 5.0):
        up = linear_mode_solution(b, m, np.sqrt((b * b - 1e-8) / 4 - m), t, 1.0, 0.5)
        um = linear_mode_solution(b, m, np.sqrt((b * b + 1e-8) / 4 - m), t, 1.0, 0.5)
        seam = max(seam, abs(up - um))
    ok = worst < 1e-8 and seam < 1e-6
    report(5, ok, f"RK4 max error {worst:.2e} < 1e-8 over 100 draws, "
                  f"seam {seam:.2e} < 1e-6")
    assert worst < 1e-8
    assert seam < 1e-6


def test_acceptance_06_linear_decay():
    """Fitted δ > 0 for (1,1), (2,1), (3,1); δ = 0.5 ± 5% at b=m=1."""
    deltas = {}
    for b, m in ((1.0, 1.0), (2.0, 1.0), (3.0, 1.0)):
        cfg = WaveConfig(b=b, m=m, k=0.5, nx=300, nxi=300, x_max=16.0, xi_max=20.0)
        sol = solve_linear(cfg, lambda x: np.exp(-0.5 * x * x), None)
        deltas[(b, m)] = sol.delta_fit
    ok = all(d > 0 for d in deltas.values()) and abs(deltas[(1.0, 1.0)] - 0.5) <= 0.025
    report(6, ok, "δ_fit " + ", ".join(f"({b:g},{m:g})→{d:.4f}"
                                       for (b, m), d in deltas.items())
           + " (b=1: 0.5 ± 5%)")
    assert all(d > 0 for d in deltas.values())
    assert abs(deltas[(1.0, 1.0)] - 0.5) <= 0.025


def test_acceptance_07_nonlinear_contraction():
    """Picard differences geometric at ε=1e-2; factors ∝ ε² within 25%."""
    factors = {}
    geometric_ok = True
    for eps in (1e-2, 5e-3, 2.5e-3):
        cfg = WaveConfig(b=1.0, m=1.0, k=0.5, p=3.0, epsilon=eps, nx=280, nxi=280,
                         x_max=16.0, xi_max=20.0, t_final=10.0, dt=0.01)
        sol = solve_nonlinear(cfg, lambda x: np.exp(-0.5 * x * x), None)
        if eps == 1e-2:
            diffs = sol.diff_xnorms
            geometric_ok = all(d2 < 0.1 * d1 for d1, d2 in zip(diffs, diffs[1:]))
        factors[eps] = sol.contraction_factors[0]
    scaled = {eps: factors[eps] / eps ** 2 for eps in factors}
    base = scaled[1e-2]
    spread_ok = all(abs(v / base - 1.0) <= 0.25 for v in scaled.values())
    report(7, geometric_ok and spread_ok,
           f"factors {factors[1e-2]:.3e}/{factors[5e-3]:.3e}/{factors[2.5e-3]:.3e}, "
           f"factor/ε² spread {max(abs(v / base - 1) for v in scaled.values()):.2%} ≤ 25%")
    assert geometric_ok
    assert spread_ok


def test_acceptance_08_dilation_invariance():
    """Balanced ratios invariant under λ ∈ {1/2, 3} within 1e-5."""
    wb4 = dk.radial_workbench(3, 0.5, rmax=24.0, resolution=700, xi_max=34.0,
                              xi_resolution=700)
    wb5 = dk.radial_workbench(5, 0.0, rmax=24.0, resolution=700, xi_max=34.0,
                              xi_resolution=700)
    wb3 = dk.radial_workbench(3, 0.0, rmax=24.0, resolution=700, xi_max=34.0,
                              xi_resolution=700)
    wb31 = dk.radial_workbench(3, 1.0, rmax=24.0, resolution=700, xi_max=34.0,
                               xi_resolution=700)
    setups = [
        ("GN_I", dk.gn1_spec(3, 0.5, p=2.0, q=3.0, r=2.0), wb4, False),
        ("CKN_I", dk.ckn1_spec(3, 0.5, p=1.5, q=2.5, b=0.3, delta=0.5), wb4, False),
        ("CKN_II", dk.ckn2_spec(5, 0.0, q=2.0, a=0.5, b=0.4, delta=0.5), wb5, False),
        ("CKN_fractional", dk.ckn_fractional_spec(3, 0.0, q=2.0, a=0.5, b=0.3,
                                                  delta=0.5), wb3, False),
        ("WeightedRellich", dk.weighted_rellich_spec(3, 1.0, a=0.2, b=1.7), wb31, True),
    ]
    worst = {}
    for name, spec, wb, vanish in setups:
        assert admissible(spec).admissible
        corpus = generate_corpus(5, 3, ["Gaussian", "HermiteGaussian"],
                                 {"vanish_at_origin": vanish}, mode="radial")
        dev = 0.0
        for f in corpus:
            r0 = evaluate_sides(spec, f, wb).ratio
            for lam in (0.5, 3.0):
                r1 = evaluate_sides(spec, f.dilate(lam), wb).ratio
                dev = max(dev, abs(r1 / r0 - 1.0))
        worst[name] = dev
    ok = all(v <= 1e-5 for v in worst.values())
    report(8, ok, "max per-record deviation " + ", ".join(
        f"{k}={v:.1e}" for k, v in worst.items()) + " (≤ 1e-5)")
    assert ok, worst


def test_acceptance_09_admissibility_fidelity():
    """Intro CKN point: rejected classically (residual exactly 0), CKN_I ok."""
    classical = dk.make_spec("ClassicalCKN_1_1", N=3, gamma=0.0, p=2, q=2, r=2,
                             a=0.0, b=-1.5, d=-1.0, delta=0.5)
    rep = admissible(classical)
    failed = {c.cid: c for c in rep.failed}
    ok1 = (not rep.admissible) and set(failed) == {"clas_CKN0"} \
        and failed["clas_CKN0"].residual == 0.0
    ckn1 = dk.make_spec("CKN_I", N=3, gamma=0.0, p=2, q=2, r=2, b=-1.5,
                        c=-1.25, delta=0.5)
    ok2 = admissible(ckn1).admissible
    report(9, ok1 and ok2, "classical predicate rejects with clas_CKN0 residual "
                           "exactly 0; CKN_I accepts the same point")
    assert ok1 and ok2


def test_acceptance_10_littlewood_paley_equivalence():
    """Square-function / fractional-Laplacian L² ratios: spread < 4."""
    wb = dk.radial_workbench(3, 0.0)
    part = DyadicPartition(-8, 8)
    corpus = generate_corpus(17, 10, ["Gaussian", "DilatedGaussian", "HermiteGaussian"],
                             mode="radial")
    ratios = [square_function_l2_ratio(wb.spectral(f), s, part)
              for s in (0.5, 1.0, 2.0) for f in corpus]
    c1, c2 = min(ratios), max(ratios)
    ok = 0 < c1 <= c2 and c2 / c1 < 4.0
    report(10, ok, f"ratios in [{c1:.4f}, {c2:.4f}], spread {c2 / c1:.3f} < 4")
    assert ok


def test_acceptance_11_riesz_inversion():
    """I_s ∘ (-Δ)^{s/2} round trip within 1e-6 on band-limited members."""
    wb = dk.radial_workbench(3, 0.0)
    tr = wb.transform
    worst = 0.0
    for q, s_gauss in ((6, 1.0), (8, 1.0), (8, 0.6)):
        def prof(rho, q=q, s=s_gauss):
            v = rho ** (2 * q) * np.exp(-0.5 * s * rho * rho)
            return v / ((2 * q / s) ** q * np.exp(-q))
        u = np.real(tr.synthesize(prof))
        for s in (0.5, 1.0):
            F = tr.forward(u)
            G = fractional_laplacian(F, s)
            g = np.real(tr.inverse(G))
            H = riesz_potential(tr.forward(g), s)
            back = np.real(tr.inverse(H))
            worst = max(worst, float(np.max(np.abs(back - u)) / np.max(np.abs(u))))
    ok = worst < 1e-6
    report(11, ok, f"round-trip relative error {worst:.2e} < 1e-6 for s ∈ {{0.5, 1}}")
    assert ok
