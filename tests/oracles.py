"""Independent numerical oracles shared by the test modules."""

import math

import numpy as np
from scipy import special as sps

from dunklkit import waveeq


def rk4_modes(b, m, xi, u0, u1, t_grid, h=1e-3):
    """Classic fixed-step RK4 on U'' + bU' + (m+ξ²)U = 0, vectorized over modes.

    Returns U at the requested t_grid points (which must be multiples of h).
    Independent of the closed-form mode solutions it is used to check.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    c = m + xi ** 2
    u = np.broadcast_to(np.asarray(u0, dtype=float), xi.shape).copy()
    v = np.broadcast_to(np.asarray(u1, dtype=float), xi.shape).copy()
    t_grid = np.asarray(t_grid, dtype=float)
    out = np.empty((len(t_grid), len(xi)))
    idx = 0
    n = int(round(t_grid[-1] / h))
    t = 0.0
    for step in range(n + 1):
        while idx < len(t_grid) and abs(t - t_grid[idx]) < h / 2:
            out[idx] = u
            idx += 1
        if step == n:
            break
        k1u, k1v = v, -b * v - c * u
        u2, v2 = u + h / 2 * k1u, v + h / 2 * k1v
        k2u, k2v = v2, -b * v2 - c * u2
        u3, v3 = u + h / 2 * k2u, v + h / 2 * k2v
        k3u, k3v = v3, -b * v3 - c * u3
        u4, v4 = u + h * k3u, v + h * k3v
        k4u, k4v = v4, -b * v4 - c * u4
        u = u + h / 6 * (k1u + 2 * k2u + 2 * k3u + k4u)
        v = v + h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        t += h
    return out


def duhamel_serial(b, a_dt, dt, F):
    """Row-by-row form of `waveeq._duhamel`: the trapezoid sums
    P_i = Σ w_j e^{-b(t_i-t_j)/2} C(t_i - t_j) F_j and Q_i (the same with S),
    advanced one step at a time by the fixed map read off the propagator
    entries `a_dt` = (a11, a12, a21, a22) at t = dt: e^{-bt/2}(C, S, C') =
    ((a11 + a22)/2, a12, a21 + (b²/4) a12); returns the (U, ∂_t U) Duhamel parts.
    """
    a11, a12, a21, a22 = a_dt
    c, s = 0.5 * (a11 + a22), a12
    d = a21 + 0.25 * b * b * s
    P, Q = np.empty_like(F), np.empty_like(F)
    P[0], Q[0] = 0.5 * F[0], 0.0
    for i in range(1, F.shape[0]):
        P[i] = c * P[i - 1] + d * Q[i - 1] + F[i]
        Q[i] = s * P[i - 1] + c * Q[i - 1]
    return dt * Q, dt * (P - 0.5 * b * Q - 0.5 * F)


def duhamel(A, dt, F):
    """The (U, ∂_t U) Duhamel parts of F (nt, n_ξ) by the in-place scan
    `waveeq._duhamel`, on fresh arrays: G = w dt F padded with zero rows to
    whole blocks, and the ∂_t U part less the (dt/2) F the scan leaves in it."""
    nt, n = F.shape
    B = A[0].shape[0] - 1
    G, U, V = np.zeros((3, B * -(-nt // B), n))
    np.multiply(dt, F, out=G[:nt])
    G[0] *= 0.5
    waveeq._duhamel(A, G, U, V)
    return U[:nt], V[:nt] - (0.5 * dt) * F


def picard_full(config, u0, u1, nonlinearity=None):
    """`waveeq.solve_nonlinear` with both parity blocks in every Picard step:
    the loop on the transform's full real coordinates, whatever the parity
    of the data, built from the transform's public maps and the solver's
    helpers, on whole (nt, n_ξ) arrays.  Only the transform applies run per
    `waveeq._chunks` range of rows, as in the solver: a BLAS product over
    fewer columns may round its last columns differently (OpenBLAS's
    SkylakeX kernels do).  With `config.p` None, `waveeq.solve_linear` the
    same way."""
    tr, times = config.build_transform(), config.times
    scale = 1.0 if config.p is None else config.epsilon
    A, starts = waveeq._linear_modes(
        config.b, config.m, tr.coord_xi, config.dt, times.size,
        scale * waveeq._spectral_data(tr, u0), scale * waveeq._spectral_data(tr, u1))
    Phi, dtPhi = waveeq._carry(A, starts, slice(0, times.size))
    traces = waveeq._traces(Phi, dtPhi, tr)
    if config.p is None:
        return waveeq._solution(config, tr, times, Phi, dtPhi, traces)
    if nonlinearity is None:
        def nonlinearity(u):
            return np.abs(u) ** (config.p - 1.0) * u
    delta_lin, _ = waveeq._safe_fit(times, traces[0] + traces[1], waveeq._fit_window(config))
    delta_used = config.delta_factor * max(delta_lin if math.isfinite(delta_lin) else 0.0, 1e-6)
    xw = (1.0 + times) ** (-0.5) * np.exp(delta_used * times)
    U, dtU, diffs = Phi, dtPhi, []
    for _ in range(config.max_picard):
        F = np.concatenate([tr.to_coords(nonlinearity(tr.from_coords(U[r].T))).T
                            for r in waveeq._chunks(times.size)])
        dU, ddtU = duhamel(A, config.dt, F)
        U_new, dtU_new = Phi + dU, dtPhi + ddtU
        dH, dV = waveeq._traces(U_new - U, dtU_new - dtU, tr)
        diffs.append(float(np.max(xw * (dH + dV))))
        U, dtU = U_new, dtU_new
        traces = waveeq._traces(U, dtU, tr)
        floor = config.picard_tol * (float(np.max(xw * (traces[0] + traces[1]))) + 1e-300)
        if diffs[-1] <= floor:
            break
    factors = [d1 / d0 for d0, d1 in zip(diffs, diffs[1:]) if d1 > floor]
    return waveeq._solution(config, tr, times, U, dtU, traces, iterations=len(diffs),
                            diff_xnorms=diffs, contraction_factors=factors,
                            converged=diffs[-1] <= floor)


def half_axis_rule_loop(sigma, rmax, resolution):
    """Panel-by-panel form of `measure._half_axis_rule` (valid inputs only).

    Lays the Gauss-Jacobi core and then one Gauss-Legendre panel at a time,
    the geometric edges by running products, so the vectorized rule can be
    checked against it bit for bit.
    """
    r0 = min(0.02, rmax / 64.0)
    n_jac = max(12, min(28, resolution // 8))
    n_per = 16
    n_panels = max(4, (resolution - n_jac) // n_per)

    tj, wj = sps.roots_jacobi(n_jac, 0.0, sigma)
    nodes = [r0 * (1.0 + tj) / 2.0]
    weights = [wj * (r0 / 2.0) ** (sigma + 1.0)]
    tl, wl = sps.roots_legendre(n_per)

    def add_panel(a, b):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        x = mid + half * tl
        nodes.append(x)
        weights.append(wl * half * x ** sigma)

    if rmax > 100.0:
        q = (rmax / r0) ** (1.0 / n_panels)
        a = r0
        for _ in range(n_panels):
            add_panel(a, a * q)
            a *= q
    else:
        r_mid = min(1.0, rmax / 8.0)
        n_geom = max(4, n_panels // 3)
        q = (r_mid / r0) ** (1.0 / n_geom)
        a = r0
        for _ in range(n_geom):
            add_panel(a, a * q)
            a *= q
        edges = np.linspace(r_mid, rmax, max(4, n_panels - n_geom) + 1)
        for a, b in zip(edges[:-1], edges[1:]):
            add_panel(a, b)
    return np.concatenate(nodes), np.concatenate(weights)


def normalized_bessel_j_jv(nu, z):
    """j_nu(z) = Γ(nu+1) (2/z)^nu J_nu(z) by the general `jv` at every order,
    with the series 1 - z²/(4(nu+1)) + z⁴/(32(nu+1)(nu+2)) for |z| < 1e-4:
    the reference for the order-dependent fast paths of `normalized_bessel_j`."""
    az = np.abs(np.asarray(z, dtype=float))
    out = np.empty_like(az)
    small = az < 1e-4
    z2 = az[small] ** 2
    c1 = 1.0 / (4.0 * (nu + 1.0))
    c2 = 1.0 / (32.0 * (nu + 1.0) * (nu + 2.0))
    out[small] = 1.0 - c1 * z2 + c2 * z2 * z2
    zl = az[~small]
    out[~small] = sps.gamma(nu + 1.0) * (2.0 / zl) ** nu * sps.jv(nu, zl)
    return out


def carrier_values_loop(carrier, x, power):
    """A carrier's f(x)/|x|^power one carrier at a time, by the scalar Horner
    loop for the polynomial × Gaussian carriers (profiles use their own
    value_reduced), so the padded-matrix evaluation can be checked against it."""
    x = np.asarray(x, dtype=float)
    if not hasattr(carrier, "coeffs"):
        return carrier.value_reduced(x, power)
    m0 = carrier.lead
    t = x * x if hasattr(carrier, "beta") else x
    q = np.zeros_like(x)
    for c in reversed(carrier.coeffs[m0:]):
        q = q * t + c
    if hasattr(carrier, "beta"):
        return x ** (carrier.beta + 2 * m0 - power) * q * np.exp(-0.5 * carrier.s * t)
    return q * x ** (m0 - int(round(power))) * np.exp(-0.5 * carrier.s * x * x)


def nelder_mead_numpy(fun, x0, step, tol=1e-4, max_iter=200):
    """Minimize `fun` with the reflect(1)/expand(2)/contract(1/2)/shrink(1/2)
    simplex; converged when the simplex diameter drops below `tol`.

    Returns (x_best, f_best, n_eval, converged).  The array form of
    `extremal.nelder_mead` (vertices as numpy arrays, a stable `np.argsort`,
    `np.mean`), so the float bookkeeping can be checked against it bit for
    bit.  numpy's default argsort orders ties as the stable one does for up
    to three values, every trial family's vertex count, but not beyond on
    every host.
    """
    n = len(x0)
    pts = [np.asarray(x0, dtype=float)]
    for i in range(n):
        p = pts[0].copy()
        p[i] += step[i]
        pts.append(p)
    vals = [fun(p) for p in pts]
    n_eval = n + 1
    converged = False

    for _ in range(max_iter):
        order = np.argsort(vals, kind="stable")
        pts = [pts[i] for i in order]
        vals = [vals[i] for i in order]
        diam = max(np.max(np.abs(p - pts[0])) for p in pts[1:])
        if diam < tol:
            converged = True
            break
        centroid = np.mean(pts[:-1], axis=0)
        xr = centroid + (centroid - pts[-1])
        fr = fun(xr); n_eval += 1
        if fr < vals[0]:
            xe = centroid + 2.0 * (centroid - pts[-1])
            fe = fun(xe); n_eval += 1
            if fe < fr:
                pts[-1], vals[-1] = xe, fe
            else:
                pts[-1], vals[-1] = xr, fr
        elif fr < vals[-2]:
            pts[-1], vals[-1] = xr, fr
        else:
            xc = centroid + 0.5 * (pts[-1] - centroid)
            fc = fun(xc); n_eval += 1
            if fc < vals[-1]:
                pts[-1], vals[-1] = xc, fc
            else:
                for i in range(1, n + 1):
                    pts[i] = pts[0] + 0.5 * (pts[i] - pts[0])
                    vals[i] = fun(pts[i])
                n_eval += n
    order = np.argsort(vals, kind="stable")
    return pts[order[0]], vals[order[0]], n_eval, converged
