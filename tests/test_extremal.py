import dataclasses

import numpy as np
import pytest

import dunklkit as dk
from dunklkit import extremal
from dunklkit.extremal import (bump_scale_family, inverse_power_family, nelder_mead,
                               power_gaussian_family, rayleigh_maximize,
                               rellich_sharp_constant)
from dunklkit.inequalities import fractional_hardy_constant


def test_sharp_constant_values():
    assert fractional_hardy_constant(3, 0.0, 0.0) == pytest.approx(1.0)
    # Γ(5/4) = Γ(1/4)/4 gives C(1) = 1/2 (classical (N-2)/2 at N = 3)
    assert fractional_hardy_constant(3, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert rellich_sharp_constant(5, 0.0) == pytest.approx(25.0 / 16.0)
    assert rellich_sharp_constant(4, 0.0) == 0.0
    with pytest.raises(ValueError):
        rellich_sharp_constant(2, 0.0)
    with pytest.raises(ValueError):
        fractional_hardy_constant(3, 0.0, 2.0)


def test_gamma_recurrence_identity():
    # C(2)² equals the Rellich constant (two applications of Γ(u+1) = uΓ(u))
    for N, g in ((5, 0.0), (6, 0.3), (3, 1.2)):
        c2 = fractional_hardy_constant(N, g, 2.0)
        assert c2 ** 2 == pytest.approx(rellich_sharp_constant(N, g), rel=1e-10)


def test_nelder_mead_quadratic():
    def f(x):
        return float(np.sum((x - np.array([1.0, -2.0])) ** 2))
    x, fx, n_eval, conv = nelder_mead(f, np.zeros(2), np.array([0.5, 0.5]),
                                      tol=1e-8, max_iter=500)
    assert conv and fx < 1e-12
    np.testing.assert_allclose(x, [1.0, -2.0], atol=1e-5)


def test_inverse_power_matches_beta_integral_formula():
    # Λ = 3, s = 1: ratio² = 4/3 + 2/(3β) (Beta-integral evaluation)
    wb = dk.radial_workbench(3, 0.0, rmax=1e30, resolution=3000)
    spec = dk.make_spec("FractionalHardy", N=3, gamma=0.0, s=1.0)
    fam = inverse_power_family()
    for beta in (1.0, 0.5):
        rec = dk.evaluate_sides(spec, fam.make([beta]), wb)
        assert rec.ratio == pytest.approx(np.sqrt(4.0 / 3.0 + 2.0 / (3.0 * beta)),
                                          rel=1e-6)


def test_rayleigh_maximize_fractional_hardy():
    wb = dk.radial_workbench(3, 0.0, rmax=1e30, resolution=3000)
    spec = dk.make_spec("FractionalHardy", N=3, gamma=0.0, s=1.0)
    res = rayleigh_maximize(spec, inverse_power_family(), wb, seed=7, ceiling=2.0)
    assert res.best_ratio >= 1.9
    assert res.best_ratio <= 2.0 * (1 + 1e-3)
    assert res.boundary_hit            # extremizer escapes the family
    assert res.gap == pytest.approx((2.0 - res.best_ratio) / 2.0)


def test_heavy_tail_guard():
    wb = dk.radial_workbench(3, 0.0)   # narrow rule
    spec = dk.make_spec("FractionalHardy", N=3, gamma=0.0, s=1.0)
    with pytest.raises(ValueError):
        rayleigh_maximize(spec, inverse_power_family(), wb, seed=1)


def test_rayleigh_maximize_rellich(wb_radial5):
    spec = dk.make_spec("ClassicalRellich", N=5, gamma=0.0)
    res = rayleigh_maximize(spec, power_gaussian_family(), wb_radial5, seed=3,
                            ceiling=4.0 / 5.0)
    assert res.best_ratio ** 2 >= 0.8 * 16.0 / 25.0
    assert res.best_ratio <= (4.0 / 5.0) * (1 + 1e-3)


def test_trace_monotone_and_deterministic(wb_radial5):
    spec = dk.make_spec("ClassicalRellich", N=5, gamma=0.0)
    fam = power_gaussian_family()
    r1 = rayleigh_maximize(spec, fam, wb_radial5, seed=11, max_iter=40, restarts=2)
    r2 = rayleigh_maximize(spec, fam, wb_radial5, seed=11, max_iter=40, restarts=2)
    assert r1.trace == r2.trace and r1.best_params == r2.best_params
    assert all(b >= a for a, b in zip(r1.trace, r1.trace[1:]))


def test_degenerate_box_single_evaluation(wb_radial5):
    spec = dk.make_spec("ClassicalRellich", N=5, gamma=0.0)
    fam = power_gaussian_family(beta_box=(0.5, 0.5), scale_box=(1.0, 1.0))
    res = rayleigh_maximize(spec, fam, wb_radial5, seed=0)
    assert res.converged and res.evaluations == 1 and not res.boundary_hit
    rec = dk.evaluate_sides(spec, fam.make([0.5, 1.0]), wb_radial5)
    assert res.best_ratio == pytest.approx(rec.ratio)


def test_recomputation_mismatch_raises(wb_radial5, monkeypatch):
    # an evaluator whose ratio drifts between calls fails the final check
    real = extremal.evaluate_sides
    calls = []

    def drifting(spec, f, wb):
        calls.append(f.fid)
        rec = real(spec, f, wb)
        return dataclasses.replace(rec, ratio=rec.ratio * (1.0 + 1e-6 * len(calls)))
    monkeypatch.setattr(extremal, "evaluate_sides", drifting)
    spec = dk.make_spec("ClassicalRellich", N=5, gamma=0.0)
    fam = power_gaussian_family(beta_box=(0.5, 0.5), scale_box=(1.0, 1.0))
    with pytest.raises(extremal.RecomputationError, match="recomputation check failed"):
        rayleigh_maximize(spec, fam, wb_radial5, seed=0)
    assert len(calls) == 2


def test_bump_scale_family_evaluates(wb_radial3):
    spec = dk.make_spec("Hardy_Lp", N=3, gamma=0.0, p=2.0)
    fam = bump_scale_family(scale_box=(1.5, 4.0))
    res = rayleigh_maximize(spec, fam, wb_radial3, seed=5, max_iter=30, restarts=1)
    assert np.isfinite(res.best_ratio) and res.best_ratio > 0


@pytest.mark.parametrize("restarts", [0, -1])
def test_no_restart_is_refused_before_any_evaluation(wb_radial5, monkeypatch, restarts):
    calls = []
    monkeypatch.setattr(extremal, "evaluate_sides", lambda *a: calls.append(a))
    spec = dk.make_spec("ClassicalRellich", N=5, gamma=0.0)
    with pytest.raises(ValueError, match="restarts must be ≥ 1"):
        rayleigh_maximize(spec, power_gaussian_family(), wb_radial5, restarts=restarts)
    assert calls == []
