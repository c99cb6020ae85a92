import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dunklkit as dk
from dunklkit import extremal
from dunklkit.extremal import (bump_scale_family, inverse_power_family, nelder_mead,
                               power_gaussian_family, rayleigh_maximize)
from dunklkit.inequalities import THEOREMS, admissible, fractional_hardy_constant
from oracles import nelder_mead_numpy


def _rellich_ceiling(N, gamma):
    """The classical Rellich ratio's ceiling 1/√(Λ²(Λ-4)²/16)."""
    return THEOREMS["ClassicalRellich"].known_bound({"N": float(N), "gamma": gamma})


def test_gap_is_none_without_a_ceiling():
    result = dk.OptimizationResult({"beta": 1.0}, 0.8, [0.8], True, False, 1, 1)
    assert result.gap is None and result.to_dict()["gap"] is None
    assert dataclasses.replace(result, ceiling=1.0).gap == pytest.approx(0.2)


def test_sharp_constant_values():
    assert fractional_hardy_constant(3, 0.0, 0.0) == pytest.approx(1.0)
    # Γ(5/4) = Γ(1/4)/4 gives C(1) = 1/2 (classical (N-2)/2 at N = 3)
    assert fractional_hardy_constant(3, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)
    # the Rellich constant Λ²(Λ-4)²/16 is 25/16 at Λ = 5 and degenerates to 0
    # at Λ = 4, where the inequality is vacuous; Λ = 2 is excluded
    assert _rellich_ceiling(5, 0.0) == pytest.approx(1.0 / math.sqrt(25.0 / 16.0))
    assert _rellich_ceiling(4, 0.0) is None
    rejected = admissible(dk.make_spec("ClassicalRellich", N=2, gamma=0.0)).failed
    assert [c.cid for c in rejected] == ["lambda_ne_2"]
    with pytest.raises(ValueError):
        fractional_hardy_constant(3, 0.0, 2.0)


def test_gamma_recurrence_identity():
    # C(2)² equals the Rellich constant (two applications of Γ(u+1) = uΓ(u))
    for N, g in ((5, 0.0), (6, 0.3), (3, 1.2)):
        c2 = fractional_hardy_constant(N, g, 2.0)
        assert 1.0 / c2 == pytest.approx(_rellich_ceiling(N, g), rel=1e-10)


def test_nelder_mead_quadratic():
    def f(x):
        return float(np.sum((x - np.array([1.0, -2.0])) ** 2))
    x, fx, n_eval, conv = nelder_mead(f, np.zeros(2), np.array([0.5, 0.5]),
                                      tol=1e-8, max_iter=500)
    assert conv and fx < 1e-12
    np.testing.assert_allclose(x, [1.0, -2.0], atol=1e-5)


def _simplex_objective(seed: int, d: int, shape: str):
    """A quadratic bowl in d parameters, +inf outside a box (as rayleigh_maximize
    rejects proposals), optionally with plateaus ("rounded") or constant
    ("flat") so that vertices tie exactly, or NaN on a half-space ("nan")."""
    rng = np.random.default_rng(seed)
    centre, scale, box = rng.uniform(-1.0, 1.0, d), rng.uniform(0.2, 3.0, d), rng.uniform(0.3, 2.0)

    def f(x):
        if np.any(np.abs(x) > box):
            return math.inf
        v = float(np.sum(scale * (x - centre) ** 2))
        if shape == "nan" and x[0] > centre[0]:
            return math.nan
        return {"smooth": v, "rounded": round(v, 1), "flat": 1.0, "nan": v}[shape]
    return f, rng.uniform(-1.0, 1.0, d), rng.uniform(0.05, 0.6, d)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(seed=st.integers(0, 2 ** 16), d=st.integers(1, 3),
       shape=st.sampled_from(["smooth", "rounded", "flat", "nan"]),
       tol=st.sampled_from([1e-2, 1e-4, 1e-9]), max_iter=st.integers(1, 200))
def test_nelder_mead_is_the_array_simplex_bit_for_bit(seed, d, shape, tol, max_iter):
    f, x0, step = _simplex_objective(seed, d, shape)
    got = nelder_mead(f, x0, step, tol=tol, max_iter=max_iter)
    want = nelder_mead_numpy(f, x0, step, tol=tol, max_iter=max_iter)
    assert got[0].dtype == want[0].dtype and got[0].tobytes() == want[0].tobytes()
    assert got[1] == want[1] or (math.isnan(got[1]) and math.isnan(want[1]))
    assert got[2:] == want[2:]                    # n_eval, converged


def test_nelder_mead_orders_tied_vertices_stably():
    # ties keep their order and NaN goes last, so a search over three or more
    # parameters takes one path on every host (numpy's default argsort need
    # not be stable from four values on)
    nan = math.nan
    assert extremal._argsort([1.0, 1.0, 0.0, 0.0]) == [2, 3, 0, 1]
    assert extremal._argsort([nan, 0.0, -0.0, math.inf, nan, -math.inf]) == [5, 1, 2, 3, 0, 4]

    # four vertices valued [1, 1, 0, 0]: the worst vertex picked decides every later step
    def f(x):
        return 0.0 if x[1] + x[2] > 0.5 else 1.0
    for max_iter in (1, 5, 50):
        got = nelder_mead(f, np.zeros(3), np.ones(3), max_iter=max_iter)
        want = nelder_mead_numpy(f, np.zeros(3), np.ones(3), max_iter=max_iter)
        assert got[0].tobytes() == want[0].tobytes() and got[1:] == want[1:]


@pytest.mark.parametrize("case", ["InversePower", "PowerGaussian", "BumpScale"])
def test_rayleigh_maximize_is_unchanged_by_the_float_simplex(case, wb_radial3, wb_radial5,
                                                              monkeypatch):
    # the benchmark's three sharp probes: the whole result, trace included
    hardy = dk.make_spec("FractionalHardy", N=3, gamma=0.0, s=1.0)
    spec, family, wb = {
        "InversePower": (hardy, inverse_power_family(),
                         dk.radial_workbench(3, 0.0, rmax=1e30, resolution=3000)),
        "PowerGaussian": (dk.make_spec("ClassicalRellich", N=5, gamma=0.0),
                          power_gaussian_family(), wb_radial5),
        "BumpScale": (hardy, bump_scale_family(), wb_radial3),
    }[case]
    for seed in range(4):
        got = rayleigh_maximize(spec, family, wb, seed=seed)
        with monkeypatch.context() as m:
            m.setattr(extremal, "nelder_mead", nelder_mead_numpy)
            want = rayleigh_maximize(spec, family, wb, seed=seed)
        assert got == want, (case, seed)


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
