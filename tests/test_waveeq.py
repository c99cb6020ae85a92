import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import dunklkit
from dunklkit import waveeq
from dunklkit.waveeq import (DELTA_FACTOR, PicardDivergenceError, WaveConfig, WaveConfigError,
                             _block_size, _propagator, _traces, decay_rate_fit,
                             linear_mode_solution, mode_time_derivative, solve_linear,
                             solve_nonlinear, x_norm)


from oracles import duhamel, picard_full, rk4_modes


def test_initial_conditions():
    u0, u1 = 0.37, -1.2
    assert linear_mode_solution(1.7, 0.9, 0.8, 0.0, u0, u1) == pytest.approx(u0)
    assert mode_time_derivative(1.7, 0.9, 0.8, 0.0, u0, u1) == pytest.approx(u1)
    # derivative consistency by finite differences
    h = 1e-6
    fd = (linear_mode_solution(1.7, 0.9, 0.8, h, u0, u1)
          - linear_mode_solution(1.7, 0.9, 0.8, 0.0, u0, u1)) / h
    assert fd == pytest.approx(u1, abs=1e-5)


def test_critical_case_closed_form():
    # D = 0 at b=2, m=1, ξ=0: U = e^{-t}(1+t) for (U0,U1) = (1,0)
    for t in (0.5, 1.0, 3.0, 7.0):
        assert linear_mode_solution(2.0, 1.0, 0.0, t, 1.0, 0.0) == pytest.approx(
            np.exp(-t) * (1 + t), rel=1e-13)


def test_modes_match_rk4_oracle():
    rng = np.random.default_rng(42)
    t_grid = np.arange(0.0, 5.0 + 1e-9, 0.5)
    xs, bs, ms, U0, U1 = [], [], [], [], []
    # overdamped, underdamped, and exactly critical draws
    for _ in range(8):
        b = rng.uniform(2.5, 4.0); m = rng.uniform(0.2, 0.8)
        xs.append(rng.uniform(0.0, 0.4)); bs.append(b); ms.append(m)
    for _ in range(8):
        b = rng.uniform(0.3, 1.5); m = rng.uniform(1.0, 3.0)
        xs.append(rng.uniform(0.5, 3.0)); bs.append(b); ms.append(m)
    for _ in range(6):
        b = rng.uniform(2.0, 4.0); m = rng.uniform(0.1, b * b / 4 - 0.05)
        xs.append(np.sqrt(b * b / 4 - m)); bs.append(b); ms.append(m)
    worst = 0.0
    for b, m, xi in zip(bs, ms, xs):
        u0 = rng.uniform(-1, 1); u1 = rng.uniform(-1, 1)
        ref = rk4_modes(b, m, np.array([xi]), [u0], [u1], t_grid)
        got = linear_mode_solution(b, m, xi, t_grid, u0, u1)
        worst = max(worst, np.max(np.abs(got.real - ref[:, 0])))
    assert worst < 1e-8


def test_seam_continuity():
    b, m = 2.0, 0.9
    xi_plus = np.sqrt((b * b - 1e-8) / 4.0 - m)
    xi_minus = np.sqrt((b * b + 1e-8) / 4.0 - m)
    for t in (1.0, 5.0):
        up = linear_mode_solution(b, m, xi_plus, t, 1.0, 0.5)
        um = linear_mode_solution(b, m, xi_minus, t, 1.0, 0.5)
        assert abs(up - um) < 1e-6


def test_config_validation():
    with pytest.raises(WaveConfigError):
        WaveConfig(b=-1.0, m=1.0).validate()
    with pytest.raises(WaveConfigError):
        WaveConfig(b=1.0, m=1.0, p=0.5).validate()
    with pytest.raises(WaveConfigError):
        # Λ = 5: p must stay ≤ 5/3
        WaveConfig(b=1.0, m=1.0, p=3.0, mode="radial", N=5).validate()
    WaveConfig(b=1.0, m=1.0, p=3.0, k=0.5).validate()   # Λ = 2: any p > 1


def test_zero_data_zero_solution():
    cfg = WaveConfig(b=1.0, m=1.0, nx=200, nxi=200, t_final=2.0, dt=0.05)
    sol = solve_linear(cfg, None, None)
    assert np.max(np.abs(sol.U)) == 0.0
    assert np.max(sol.h1_trace) == 0.0
    assert np.isnan(sol.delta_fit)


def test_zero_data_nonlinear_solve_converges_at_once():
    # zero data have no decay rate (delta_fit NaN); the X-norm weight then
    # takes the floor rate, and the first Picard difference, 0, is at the
    # stopping floor: one step, converged, not divergence
    cfg = WaveConfig(b=1.0, m=1.0, k=0.5, p=3.0, nx=80, nxi=80, t_final=2.0, dt=0.05)
    sol = solve_nonlinear(cfg, None, None)
    assert (sol.iterations, sol.converged, sol.diff_xnorms) == (1, True, [0.0])
    assert not np.any(sol.U) and np.isnan(sol.delta_fit) and sol.x_norm == 0.0


def test_zero_velocity_on_unequal_grids():
    # zero data lives on the spectral grid, which may differ from the physical one
    cfg = WaveConfig(b=1.0, m=1.0, k=0.5, nx=100, nxi=120, t_final=1.0, dt=0.1)
    sol = solve_linear(cfg, lambda x: np.exp(-0.5 * x * x), None)
    assert sol.U.shape == (11, sol.xi.size) and sol.snapshots.shape[1] == sol.x_nodes.size
    assert sol.xi.size != sol.x_nodes.size


def test_linear_k0_matches_fft_solver():
    # independent classical Fourier-spectral solver on a periodic grid,
    # modes solved by the characteristic roots (underdamped everywhere here)
    cfg = WaveConfig(b=1.2, m=0.8, k=0.0, x_max=20.0, nx=420, xi_max=22.0, nxi=420,
                     t_final=4.0, dt=0.5)

    def u0(x):
        return np.exp(-0.5 * x ** 2)
    sol = solve_linear(cfg, u0, None)

    L = 28.0
    n = 2048
    xs = np.linspace(-L, L, n, endpoint=False)
    k_fft = 2 * np.pi * np.fft.fftfreq(n, d=2 * L / n)
    U0 = np.fft.fft(u0(xs))
    disc = np.sqrt((cfg.b ** 2 - 4.0 * (cfg.m + k_fft ** 2)).astype(complex))
    r1 = (-cfg.b + disc) / 2.0
    r2 = (-cfg.b - disc) / 2.0
    for t in (1.0, 3.0):
        c1 = (0.0 - r2 * U0) / (r1 - r2)       # U1 = 0
        c2 = (r1 * U0 - 0.0) / (r1 - r2)
        Ut = c1 * np.exp(r1 * t) + c2 * np.exp(r2 * t)
        i_snap = list(sol.times[sol.snapshot_indices]).index(t)
        ours = sol.snapshots[i_snap]
        mask = np.abs(sol.x_nodes) < 6.0
        # exact trigonometric synthesis of the periodic reference at our nodes
        # (the FFT grid starts at -L, hence the phase shift)
        ref = np.real(np.exp(1j * np.outer(sol.x_nodes[mask] + L, k_fft)) @ Ut) / n
        assert np.max(np.abs(ours[mask] - ref)) < 1e-6


def test_decay_fit_pure_modes():
    # pure decaying mode at the double root: δ → 1 within 5%
    t = np.arange(0.0, 10.0, 0.01)
    u = np.abs(linear_mode_solution(2.0, 1.0, 0.0, t, 1.0, -1.0))  # = e^{-t}
    du = np.abs(mode_time_derivative(2.0, 1.0, 0.0, t, 1.0, -1.0))
    delta, resid = decay_rate_fit(t, u + du, (2.0, 8.0))
    assert abs(delta - 1.0) < 0.05
    assert resid < 1e-3


def test_decay_fit_rejects_nonpositive():
    t = np.arange(0.0, 5.0, 0.1)
    with pytest.raises(ValueError):
        decay_rate_fit(t, np.zeros_like(t), (1.0, 4.0))


def test_linear_decay_rates():
    for b, m, expect, tol in ((1.0, 1.0, 0.5, 0.025), (2.0, 1.0, None, None),
                              (3.0, 1.0, None, None)):
        cfg = WaveConfig(b=b, m=m, k=0.5, nx=300, nxi=300, x_max=16.0, xi_max=20.0)
        sol = solve_linear(cfg, lambda x: np.exp(-0.5 * x * x), None)
        assert sol.delta_fit > 0
        if expect is not None:
            assert abs(sol.delta_fit - expect) <= tol


def test_x_norm_properties():
    t = np.arange(0.0, 10.0, 0.01)
    zero = np.zeros_like(t)
    assert x_norm(t, zero, zero, 0.5) == 0.0
    # over-claimed rate inflates with the horizon: e^{δt} dominance
    trace = np.exp(-0.5 * t)
    small = x_norm(t[:500], trace[:500], zero[:500], 0.8)
    big = x_norm(t, trace, zero, 0.8)
    assert big > small
    with pytest.raises(ValueError):
        x_norm(t, trace, zero, -0.1)


def test_nonlinear_disabled_equals_linear():
    cfg = WaveConfig(b=1.0, m=1.0, k=0.5, p=3.0, epsilon=1e-2, nx=240, nxi=240,
                     x_max=14.0, xi_max=18.0, t_final=4.0, dt=0.02)

    def u0(x):
        return np.exp(-0.5 * x * x)
    sol = solve_nonlinear(cfg, u0, None, nonlinearity=lambda u: 0.0 * u)
    assert sol.iterations == 1 and sol.converged
    lin = solve_linear(cfg, u0, None)
    np.testing.assert_allclose(sol.U, cfg.epsilon * lin.U, atol=1e-14)


def test_nonlinear_contraction_small_epsilon():
    cfg = WaveConfig(b=1.0, m=1.0, k=0.5, p=3.0, epsilon=1e-2, nx=240, nxi=240,
                     x_max=14.0, xi_max=18.0, t_final=6.0, dt=0.02)
    sol = solve_nonlinear(cfg, lambda x: np.exp(-0.5 * x * x), None)
    assert sol.converged and sol.iterations <= 6
    assert all(f < 0.1 for f in sol.contraction_factors[:1])
    assert sol.delta_fit > 0
    # the summary's X-norm weighs the traces with δ = DELTA_FACTOR × the fitted rate
    assert sol.x_norm == x_norm(sol.times, sol.h1_trace, sol.dt_trace,
                                DELTA_FACTOR * sol.delta_fit)


def test_overflowing_picard_iteration_diverges():
    # ε = 1e8 on the README grid: the third iterate overflows, and its
    # infinite difference is divergence, not a difference below the floor
    # (and the overflow on the way there warns nothing: a warning turned into
    # an error would be raised instead of the divergence)
    cfg = WaveConfig(b=1.0, m=1.0, k=0.5, p=3.0, epsilon=1e8, nx=280, nxi=280,
                     x_max=16.0, xi_max=20.0, t_final=10.0, dt=0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PicardDivergenceError) as info:
            solve_nonlinear(cfg, lambda x: np.exp(-0.5 * x * x), None)
    diffs = info.value.diffs
    assert len(diffs) == 3 and all(map(math.isfinite, diffs[:2])) and diffs[2] == math.inf
    assert info.value.epsilon == 1e8 and info.value.overflow


def test_nonlinearity_checks():
    cfg = WaveConfig(b=1.0, m=1.0, k=0.0, p=2.0, epsilon=1e-2, nx=200, nxi=200,
                     t_final=2.0, dt=0.05)
    with pytest.raises(WaveConfigError):
        solve_nonlinear(cfg, lambda x: np.exp(-x * x), None,
                        nonlinearity=lambda u: u + 1.0)       # f(0) ≠ 0
    with pytest.raises(WaveConfigError):
        solve_nonlinear(cfg, lambda x: np.exp(-x * x), None,
                        nonlinearity=lambda u: np.sign(u) * np.abs(u) ** 0.2)


@pytest.mark.parametrize("scale, passes", [(1.0 - 1e-9, True), (1.0 + 1e-9, False)],
                         ids=["under", "over"])
def test_nonlinearity_growth_bound_is_50(scale, passes):
    # c·u|u| at p = 2: the growth ratio is c on a same-sign sample pair and
    # at most c on the others, so the sampled ratio is c to rounding
    f = lambda u: 50.0 * scale * u * np.abs(u)
    if passes:
        waveeq._check_nonlinearity(f, 2.0)
    else:
        with pytest.raises(WaveConfigError, match="Lipschitz-growth"):
            waveeq._check_nonlinearity(f, 2.0)


def test_radial_mode_solver_runs():
    cfg = WaveConfig(b=1.0, m=1.0, mode="radial", N=3, gamma=0.0, nx=240, nxi=240,
                     x_max=14.0, xi_max=18.0, t_final=4.0, dt=0.02)
    sol = solve_linear(cfg, lambda r: np.exp(-0.5 * r * r), None)
    assert sol.delta_fit > 0


def test_duhamel_matches_direct_trapezoid():
    # the blocked per-mode scan against the O(nt²) trapezoid sum of K(t_i - s) F(s)
    # over [0, t_i], for the mode kernels K = e^{-bt/2} S and ∂_t K (the second
    # column of the propagator), with ξ on the critical seam D = 0 and 1e-9
    # either side of it where it exists
    rng = np.random.default_rng(3)
    nt, dt = 60, 0.05
    for b, m in [(1.0, 1.0), (5.0, 0.1), (2.0, 0.0), (30.0, 1.0), (0.2, 3.0)]:
        seam = np.sqrt(max(0.25 * b * b - m, 0.0))
        xi = np.concatenate([[0.0, 0.3, 1.7, 6.0], seam + np.array([-1e-9, 0.0, 1e-9])])
        xi = xi[xi >= 0.0]
        kernels = _propagator(b, m, xi, dt * np.arange(nt))[1::2]
        F = rng.standard_normal(kernels[0].shape)   # real: the solver's spectral coordinates
        got = duhamel(_propagator(b, m, xi, dt * np.arange(_block_size(nt) + 1)), dt, F)
        for K, G in zip(kernels, got):
            direct, scale = np.zeros_like(F), np.zeros_like(F)
            for i in range(1, nt):
                terms = K[i::-1] * F[: i + 1]
                direct[i] = np.trapezoid(terms, dx=dt, axis=0)
                scale[i] = dt * np.sum(np.abs(terms), axis=0)
            assert np.all(np.abs(G - direct) <= 1e-13 * scale), (b, m)


def test_closed_forms_run_on_block_starts_and_offsets_only(monkeypatch):
    # on the README wave grid no closed-form evaluation covers the full
    # (nt, n_ξ) grid: only the nb block starts and the B + 1 in-block offsets
    sizes = []
    inner = waveeq._enveloped_cs

    def recording(b, q, t):
        sizes.append(np.size(t) * np.size(q))
        return inner(b, q, t)
    monkeypatch.setattr(waveeq, "_enveloped_cs", recording)
    cfg = WaveConfig(b=1.0, m=1.0, epsilon=0.01, p=3.0, mode="rank1", k=0.5, x_max=16.0,
                     nx=280, xi_max=20.0, nxi=280, t_final=10.0, dt=0.01)
    sol = solve_nonlinear(cfg, lambda x: np.exp(-0.5 * x * x), None)
    assert sol.converged
    nt, n_xi = sol.times.size, cfg.build_transform().coord_xi.size
    B = _block_size(nt)
    nb = -(-nt // B)
    assert sizes and max(sizes) <= (B + nb + 2) * n_xi


@pytest.mark.parametrize("mode", ["rank1", "radial"])
def test_reported_traces_are_those_of_the_final_iterate(mode):
    # the traces the last Picard step computed are the solution's, bit for bit
    cfg = WaveConfig(b=1.0, m=1.0, epsilon=0.05, p=1.5, mode=mode, k=0.5, N=3, x_max=12.0,
                     nx=80, xi_max=14.0, nxi=80, t_final=2.0, dt=0.05)
    sol = solve_nonlinear(cfg, lambda x: np.exp(-x * x), None)
    assert sol.iterations > 1
    h1, dt2 = _traces(sol.U, sol.dtU, cfg.build_transform())
    assert np.array_equal(sol.h1_trace, h1) and np.array_equal(sol.dt_trace, dt2)


@pytest.mark.parametrize("mode", ["rank1", "radial"])
def test_linear_solution_matches_full_grid_modes(mode):
    # the real-coordinate solver, mapped to the full ξ grid by to_full, against
    # the closed-form modes applied to the complex transform on that grid
    cfg = WaveConfig(b=1.0, m=1.5, mode=mode, k=0.7, N=3, gamma=0.5, x_max=10.0, nx=60,
                     xi_max=12.0, nxi=70, t_final=2.0, dt=0.05)
    u0 = lambda x: (1.0 + 0.3 * x) * np.exp(-(x - 0.4) ** 2)
    u1 = lambda x: x * np.exp(-0.5 * x * x)
    sol = solve_linear(cfg, u0, u1)
    tr = cfg.build_transform()
    U0, U1 = (tr.to_full(tr.forward(u).values) for u in (u0, u1))
    t, xi = sol.times, np.abs(tr.xi_quad.nodes)
    U, dtU = tr.to_full(sol.U.T).T, tr.to_full(sol.dtU.T).T
    for got, want in ((U, linear_mode_solution(1.0, 1.5, xi, t, U0, U1)),
                      (dtU, mode_time_derivative(1.0, 1.5, xi, t, U0, U1))):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    snaps = tr.inverse(sol.U[sol.snapshot_indices].T).T     # the rows the snapshots sample
    assert np.max(np.abs(sol.snapshots - snaps)) <= 1e-13 * np.max(np.abs(snaps))
    w = tr.xi_quad.weights
    np.testing.assert_allclose(sol.h1_trace, np.sqrt(np.abs(U) ** 2 @ (w * (1 + xi ** 2))),
                               rtol=1e-12)
    np.testing.assert_allclose(sol.dt_trace, np.sqrt(np.abs(dtU) ** 2 @ w), rtol=1e-12)


def _loaded_after_import(*modules):
    """Which of `modules` a fresh interpreter holds after `import dunklkit`."""
    src = str(Path(dunklkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = f"import sys, dunklkit; print([m for m in {list(modules)} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    return out.stdout.strip()


def test_import_leaves_scipy_signal_out():
    # scipy.signal costs a large share of the import time and is not used
    assert _loaded_after_import("scipy.signal") == "[]"


def test_import_leaves_scipy_integrate_and_optimize_out():
    # only the k = 0 selftest oracle integrates (simpson); scipy.integrate would
    # load scipy.optimize and scipy.sparse with it at every import
    assert _loaded_after_import("scipy.integrate", "scipy.optimize") == "[]"


def _gauss(x):
    return np.exp(-0.5 * x * x)


# (u0, u1, nonlinearity): even data qualify for the even block, odd and mixed
# data do not
PARITY_CASES = {
    "even": (_gauss, None, None),
    "even, f=|u|^3": (_gauss, None, lambda u: np.abs(u) ** 3),
    "even, u1 even": (_gauss, lambda x: 0.5 * x * x * _gauss(x), None),
    "odd": (lambda x: x * _gauss(x), None, None),
    "mixed": (lambda x: np.exp(-0.5 * (x - 1.0) ** 2), None, None),
}


def _close(got, want):
    # the H¹ and L² traces sum 268 squares where the full loop sums 536 with
    # zeros in the odd half, so BLAS may round their last bit differently
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-15 * np.max(np.abs(want), initial=0.0)


# T = 2 (nt = 101) is one chunk of Picard rows; T = 10.24 (nt = 513, blocks of
# 23 rows) is a chunk of 276 rows and a partial one of 237
@pytest.mark.parametrize("k", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("case, t_final",
                         [(case, 2.0) for case in PARITY_CASES]
                         + [(case, 10.24) for case in PARITY_CASES],
                         ids=list(PARITY_CASES) + [f"{case}, nt=513" for case in PARITY_CASES])
@pytest.mark.parametrize("p", [3.0, None])
def test_solvers_match_the_full_coordinate_loop(k, case, t_final, p):
    u0, u1, f = PARITY_CASES[case]
    cfg = WaveConfig(b=1.0, m=1.0, epsilon=0.05, p=p, mode="rank1", k=k, x_max=12.0,
                     nx=80, xi_max=14.0, nxi=80, t_final=t_final, dt=0.02)
    assert [(r.start, r.stop) for r in waveeq._chunks(cfg.times.size)] == (
        [(0, 101)] if t_final == 2.0 else [(0, 276), (276, 513)])
    sol = (solve_linear(cfg, u0, u1) if p is None
           else solve_nonlinear(cfg, u0, u1, nonlinearity=f))
    want = picard_full(cfg, u0, u1, f)
    for name in ("times", "xi", "U", "dtU", "x_nodes", "snapshot_indices", "snapshots"):
        assert np.array_equal(getattr(sol, name), getattr(want, name)), name
    for name in ("h1_trace", "dt_trace", "diff_xnorms", "contraction_factors"):
        _close(getattr(sol, name), getattr(want, name))
    assert (sol.iterations, sol.converged) == (want.iterations, want.converged)
    assert p is None or sol.iterations > 1
    np.testing.assert_allclose([sol.delta_fit, sol.fit_residual],
                               [want.delta_fit, want.fit_residual], rtol=1e-13, atol=1e-16)


def test_even_data_picard_loop_runs_on_the_even_block(monkeypatch):
    # the full transform maps the data in; every Picard step, and the
    # snapshots, run on the even block alone
    cfg = WaveConfig(b=1.0, m=1.0, epsilon=0.05, p=3.0, mode="rank1", k=0.5, x_max=12.0,
                     nx=80, xi_max=14.0, nxi=80, t_final=2.0, dt=0.02)
    tr = cfg.build_transform()
    calls = []
    for name in ("to_coords", "from_coords"):
        def spy(v, name=name, inner=getattr(tr, name)):
            calls.append((name, np.shape(v)))
            return inner(v)
        monkeypatch.setattr(tr, name, spy, raising=False)
    monkeypatch.setattr(WaveConfig, "build_transform", lambda self: tr)
    _, u1, _ = PARITY_CASES["even, u1 even"]
    sol = solve_nonlinear(cfg, _gauss, u1)
    assert sol.iterations > 1 and sol.U.shape[1] == tr.coord_xi.size
    n_x = tr.x_quad.npoints
    assert sorted(calls) == [("to_coords", (n_x,)), ("to_coords", (n_x,))]
    assert not np.any(sol.U[:, tr.coord_xi.size // 2:])


def test_even_solve_derives_no_odd_inverse(monkeypatch):
    # the README solve: even data never apply the odd block's inverse, so it
    # is never derived (574,592 B on this grid); odd and mixed data run on the
    # whole transform and derive both
    built = []
    build = WaveConfig.build_transform
    monkeypatch.setattr(WaveConfig, "build_transform",
                        lambda self: built.append(build(self)) or built[-1])
    cfg = WaveConfig(b=1.0, m=1.0, epsilon=1e-2, p=3.0, mode="rank1", k=0.5, x_max=16.0,
                     nx=280, xi_max=20.0, nxi=280, t_final=10.0, dt=0.01)
    for case, odd_inverse in (("even", False), ("odd", True), ("mixed", True)):
        u0, u1, _ = PARITY_CASES[case]
        sol = solve_nonlinear(cfg, u0, u1)
        tr = built[-1]
        assert sol.iterations > 1 and tr.even._inv is not None, case
        assert (tr.odd._inv is not None) == odd_inverse, case
    assert len(built) == 3 and tr.odd._inv.nbytes == 574592


def test_picard_loop_memory_is_one_workspace_block():
    # the README solve (rank-1 k = ½, even data: 1001 × 268 coordinates).  The
    # loop holds one workspace of seven (nt, n) arrays and otherwise arrays of
    # a chunk of rows; with whole (nt, n) temporaries in every Picard step the
    # peak was 12.6 such arrays, with the workspace 10.9
    cfg = WaveConfig(b=1.0, m=1.0, epsilon=1e-2, p=3.0, mode="rank1", k=0.5, x_max=16.0,
                     nx=280, xi_max=20.0, nxi=280, t_final=10.0, dt=0.01)
    tracemalloc.start()
    try:
        sol = solve_nonlinear(cfg, _gauss, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    one = sol.times.size * (sol.xi.size // 2) * 8
    assert (sol.times.size, sol.xi.size // 2) == (1001, 268)
    assert peak < 11.5 * one
    # the outputs own their memory: no workspace outlives the solve
    for U in (sol.U, sol.dtU):
        assert (U if U.base is None else U.base).nbytes == U.nbytes


@pytest.mark.parametrize("mode", ["rank1", "radial"])
def test_build_transform_is_the_workbench_transform(mode):
    cfg = WaveConfig(b=1.0, m=1.0, mode=mode, k=0.5, N=3, gamma=0.5,
                     x_max=12.0, nx=100, xi_max=16.0, nxi=120)
    grid = dict(rmax=12.0, resolution=100, xi_max=16.0, xi_resolution=120)
    wb = (dunklkit.rank1_workbench(0.5, **grid) if mode == "rank1"
          else dunklkit.radial_workbench(3, 0.5, **grid))
    tr = cfg.build_transform()
    assert type(tr) is type(wb.transform)
    # the forward kernels: rank-1 even/odd half-line blocks, radial _fwd
    names = ["_fwd_even", "_fwd_odd"] if mode == "rank1" else ["_fwd"]
    for name in names + ["coord_xi", "coord_weights"]:
        assert np.array_equal(getattr(tr, name), getattr(wb.transform, name))
    # and the inverse kernels each block derives on its first from_coords
    blocks = [(t.even, t.odd) if mode == "rank1" else (t,) for t in (tr, wb.transform)]
    for t in (tr, wb.transform):
        t.from_coords(np.zeros(t.coord_xi.size))
    for a, b in zip(*blocks):
        assert a._inv is not None and np.array_equal(a._inv, b._inv)
