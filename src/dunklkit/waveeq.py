"""Damped wave equation for the Dunkl Laplacian: linear closed forms,
decay-rate fits, and the nonlinear Duhamel fixed point.

Per spectral mode ξ the problem  ∂²_t U + b ∂_t U + (m + |ξ|²) U = 0  is a
damped oscillator with discriminant D = b² - 4(m + |ξ|²), solved by the mode
propagator  (U, ∂_t U)(t) = A(t)·(U₀, U₁):

    A(t) = [[eC + (b/2) eS,  eS], [-(m + |ξ|²) eS,  eC - (b/2) eS]],

eC = e^{-bt/2} cosh(√D t/2) and eS = e^{-bt/2} sinh(√D t/2)/(√D/2), read as
cos/sin for D < 0 and as power series in z = D t²/4 near the seam D = 0, so
A is continuous across it.  For D > 0 the envelope is folded in,
eC = ½(e^{λ+ t} + e^{λ- t}) and eS = (e^{λ+ t} - e^{λ- t})/√D with
λ± = (-b ± √D)/2, so A is finite at every b·t.  Every closed form in this
module comes from _enveloped_cs through _propagator.

The time grid is two-level, blocks of B = ⌈√nt⌉ steps: A runs only at the
block starts and at the in-block offsets j·dt, j = 0..B, and the semigroup
property carries each block's start state through the block by A(τ).

The nonlinear problem is solved by Picard iteration on the Duhamel map
u ↦ φ + ∫₀ᵗ T(f(u(s)))(t-s) ds with f(u) = |u|^{p-1}u applied pointwise in
physical space (pseudo-spectral) and the time integral by the trapezoid rule
on the stored grid.  The Duhamel kernels are the second column of A, so the
trapezoid sums are an exact O(nt·n_ξ) linear scan by A(dt), run blockwise
(_duhamel).  Both solvers run in the transform's real spectral coordinates
and report U, ∂_t U in them: a Picard step is a real inverse, a real
forward and one scan.

Memory: solve_nonlinear allocates one float64 workspace block per solve,
seven (nt, n_ξ) arrays: the source G = w dt F, the linear solution
(Φ, ∂_t Φ) and two (U, ∂_t U) pairs.  A step reads the current iterate and
the scan writes the other pair in place.  The inverse, f, forward, the
update U = Φ + dU and the norm traces run per chunk of rows, so a step
allocates nothing of size (nt, n_ξ).  It is one block because whole-array
temporaries, about a dozen per step, freed and allocated anew, kept glibc
trimming the heap and faulting its pages back in on every solve (about
40 MB on the README grid); one block of the same size each solve is
recycled instead.  Other allocators keep the saved allocations but need
not see that saving.

In rank 1 the Dunkl transform of an even function is the transform's
`even` block, the Hankel transform of order k - ½, and its odd coordinates
are 0.  When both data have exactly zero odd coordinates, the solve runs on
`tr.even` alone, on the r > 0 samples (mirrored for the snapshots): f(u) of
an even u is even for every pointwise f, so odd coordinates stay exactly 0.
Odd data stay odd only under an odd f, which a user-supplied f need not be,
so odd and mixed data run on the whole transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Sequence

import numpy as np

from .workbench import radial_workbench, rank1_workbench

__all__ = [
    "WaveConfig",
    "WaveSolution",
    "WaveConfigError",
    "PicardDivergenceError",
    "linear_mode_solution",
    "mode_time_derivative",
    "solve_linear",
    "solve_nonlinear",
    "decay_rate_fit",
    "x_norm",
]


class WaveConfigError(ValueError):
    pass


class PicardDivergenceError(RuntimeError):
    """Growing Picard differences, or an iterate that overflowed (`overflow`)."""

    def __init__(self, epsilon: float, diffs: Sequence[float], overflow: bool = False):
        super().__init__(f"Picard iteration diverging at epsilon={epsilon:g}; "
                         f"X-norm differences {list(diffs)}")
        self.epsilon, self.diffs, self.overflow = epsilon, list(diffs), overflow


# ---------------------------------------------------------------------------
# the mode propagator

_SEAM = 1e-6


def _enveloped_cs(b: float, q: np.ndarray, t):
    """eC = e^{-bt/2} C and eS = e^{-bt/2} S on the (t, ξ) grid for the mode
    stiffness q = m + ξ², with the envelope folded in where D > 0 so that no
    factor overflows."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    T, Q = np.broadcast_arrays(t[:, None], q[None, :])
    D = b * b - 4.0 * Q
    z = 0.25 * T * T * D
    eC, eS = np.empty_like(z), np.empty_like(z)
    pos, neg = z > _SEAM, z < -_SEAM
    mid = ~(pos | neg)
    # D > 0: e^{-bt/2}(C, S) = (e^{λ+ t} ± e^{λ- t})(½, 1/√D), λ+ free of cancellation
    s, tp = np.sqrt(D[pos]), T[pos]
    grow, em = np.exp(-2.0 * Q[pos] / (b + s) * tp), np.expm1(-s * tp)
    eC[pos], eS[pos] = grow * (1.0 + 0.5 * em), -grow * em / s
    sn, tn = np.sqrt(-z[neg]), T[neg]
    env = np.exp(-0.5 * b * tn)
    eC[neg], eS[neg] = env * np.cos(sn), env * tn * np.sin(sn) / sn
    zm, tm = z[mid], T[mid]
    env = np.exp(-0.5 * b * tm)
    eC[mid] = env * (1.0 + zm / 2.0 + zm * zm / 24.0 + zm ** 3 / 720.0)
    eS[mid] = env * tm * (1.0 + zm / 6.0 + zm * zm / 120.0 + zm ** 3 / 5040.0)
    return eC, eS


def _propagator(b: float, m: float, xi, t):
    """The entries (a11, a12, a21, a22) of the mode propagator A(t) on the
    (t, ξ) grid: (U, ∂_t U)(s + t) = A(t)·(U, ∂_t U)(s)."""
    q = m + np.atleast_1d(np.asarray(xi, dtype=float)) ** 2
    eC, eS = _enveloped_cs(b, q, t)
    return eC + 0.5 * b * eS, eS, -q * eS, eC - 0.5 * b * eS


def _modes(A, U0, U1):
    """(U, ∂_t U) = A·(U0, U1); U0 and U1 broadcast against the ξ axis."""
    a11, a12, a21, a22 = A
    return a11 * U0 + a12 * U1, a21 * U0 + a22 * U1


def _pointwise(xi, t, out):
    if np.isscalar(xi) and np.isscalar(t):
        return complex(out.ravel()[0]) if np.iscomplexobj(out) else float(out.ravel()[0])
    return np.squeeze(out)


def linear_mode_solution(b: float, m: float, xi, t, U0, U1):
    """Exact mode solution; broadcasts over arrays of ξ and t.

    Total and finite for t ≥ 0; |D| below the seam is routed through the
    series so the critical case never divides 0/0.
    """
    U, _ = _modes(_propagator(b, m, xi, t), np.asarray(U0), np.asarray(U1))
    return _pointwise(xi, t, U)


def mode_time_derivative(b: float, m: float, xi, t, U0, U1):
    """∂_t of the exact mode solution."""
    _, dtU = _modes(_propagator(b, m, xi, t), np.asarray(U0), np.asarray(U1))
    return _pointwise(xi, t, dtU)


# ---------------------------------------------------------------------------
# configuration


@dataclass
class WaveConfig:
    """Damping b, mass m, data amplitude ε, optional nonlinearity exponent p.

    mode "rank1" solves on the line with multiplicity k (Λ = 1+2k); mode
    "radial" solves for radial data in dimension Λ = N+2γ.
    """

    b: float
    m: float
    epsilon: float = 1.0
    p: float | None = None
    mode: str = "rank1"
    k: float = 0.0
    N: int = 1
    gamma: float = 0.0
    x_max: float = 18.0
    nx: int = 360
    xi_max: float = 24.0
    nxi: int = 360
    t_final: float = 10.0
    dt: float = 0.01
    fit_window: tuple | None = None
    n_snapshots: int = 9
    max_picard: int = 10
    picard_tol: float = 1e-13
    delta_factor: float = 0.9

    @property
    def lam(self) -> float:
        return 1.0 + 2.0 * self.k if self.mode == "rank1" else self.N + 2.0 * self.gamma

    @property
    def times(self) -> np.ndarray:
        """The time grid 0, dt, ..., about t_final."""
        return self.dt * np.arange(int(round(self.t_final / self.dt)) + 1)

    def validate(self) -> None:
        for name in ("b", "m", "epsilon", "dt", "t_final"):
            if getattr(self, name) <= 0:
                raise WaveConfigError(f"{name} must be positive")
        # the decay fit (and every number derived from it) needs two grid times
        times = self.times
        if times.size < 2:
            raise WaveConfigError(f"time grid T={self.t_final:g}, dt={self.dt:g} holds "
                                  "a single time")
        lo, hi = _fit_window(self)
        if np.count_nonzero((times >= lo) & (times <= hi)) < 2:
            raise WaveConfigError(f"fit window [{lo:g}, {hi:g}] holds fewer than two "
                                  f"grid times (dt={self.dt:g})")
        if self.mode not in ("rank1", "radial"):
            raise WaveConfigError("mode must be rank1 or radial")
        if self.max_picard < 1 or self.n_snapshots < 1:
            raise WaveConfigError("max_picard and n_snapshots must be at least 1")
        for name in ("picard_tol", "delta_factor"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) > 0):
                raise WaveConfigError(f"{name} must be positive and finite")
        if self.p is not None:
            if self.p <= 1:
                raise WaveConfigError("nonlinearity exponent p must be > 1")
            lam = self.lam
            if lam > 2.0 and self.p > lam / (lam - 2.0) + 1e-12:
                raise WaveConfigError(
                    f"p={self.p:g} outside 1 ≤ p ≤ Λ/(Λ-2) = {lam / (lam - 2.0):g}")

    def build_transform(self):
        """The transform of the workbench on this config's grids."""
        grid = dict(rmax=self.x_max, resolution=self.nx, xi_max=self.xi_max,
                    xi_resolution=self.nxi)
        if self.mode == "rank1":
            return rank1_workbench(self.k, **grid).transform
        return radial_workbench(self.N, self.gamma, **grid).transform


@dataclass
class WaveSolution:
    times: np.ndarray
    xi: np.ndarray
    U: np.ndarray                  # (nt, n_coord) real spectral coordinates at xi
    dtU: np.ndarray
    h1_trace: np.ndarray           # ‖u(t)‖_{H¹_D}
    dt_trace: np.ndarray           # ‖∂_t u(t)‖₂
    x_nodes: np.ndarray
    snapshot_indices: np.ndarray
    snapshots: np.ndarray          # (n_snap, nx) physical fields
    delta_fit: float
    fit_residual: float
    iterations: int = 0
    diff_xnorms: List[float] = field(default_factory=list)
    contraction_factors: List[float] = field(default_factory=list)
    converged: bool = True


# ---------------------------------------------------------------------------
# solvers


def _traces(U, dtU, tr):
    w = tr.coord_weights
    return np.sqrt((U * U) @ (w * (1.0 + tr.coord_xi ** 2))), np.sqrt((dtU * dtU) @ w)


def _spectral_data(tr, u) -> np.ndarray:
    if u is None:
        return np.zeros(tr.coord_xi.shape)
    return tr.to_coords(np.asarray(u(tr.x_quad.nodes) if callable(u) else u, dtype=float))


def _block_size(nt: int) -> int:
    """Steps per block of the two-level time grid, ⌈√nt⌉: the block starts
    and the in-block offsets then hold about √nt rows each."""
    return math.isqrt(nt - 1) + 1


def _chunks(nt: int) -> list:
    """The row ranges a Picard step works on: whole blocks of the time grid,
    the fewest that hold 256 rows (the last range may be shorter).  The
    transform applies stay BLAS products of 256 columns or more, and the
    step's temporaries a fraction of one (nt, n_ξ) array."""
    B = _block_size(nt)
    size = B * -(-256 // B)
    return [slice(r, min(r + size, nt)) for r in range(0, nt, size)]


def _linear_modes(b: float, m: float, xi, dt: float, nt: int, U0, U1):
    """The propagator A on the in-block offsets dt·(0..B) and the mode
    solution (U, ∂_t U) at the block starts dt·(0, B, 2B, ..), (nb, n_ξ)
    each: the closed forms run there only (_carry fills in the rows)."""
    B = _block_size(nt)
    starts = _modes(_propagator(b, m, xi, dt * np.arange(0, nt, B)), U0, U1)
    return _propagator(b, m, xi, dt * np.arange(B + 1)), starts


def _carry(A, starts, rows: slice):
    """The mode solution (U, ∂_t U) on the grid rows `rows`, a range that
    begins at a block start: row t_b + τ_j is A(τ_j)·(U, ∂_t U)(t_b), two
    products and one sum."""
    B = A[0].shape[0] - 1
    U_b, V_b = (s[rows.start // B:-(-rows.stop // B), None] for s in starts)
    return tuple((r0[:B] * U_b + r1[:B] * V_b).reshape(-1, U_b.shape[-1])[:rows.stop - rows.start]
                 for r0, r1 in (A[:2], A[2:]))


def _linear_stage(config: WaveConfig, u0, u1, scale: float = 1.0):
    """Transform, the block to solve on (tr.even for rank-1 data with zero
    odd coordinates, else tr), time grid, and the _linear_modes of the data
    scaled by `scale`, in the block's real coordinates."""
    tr = config.build_transform()
    times = config.times
    c0, c1 = _spectral_data(tr, u0), _spectral_data(tr, u1)
    h = c0.size // 2
    even = config.mode == "rank1" and not (np.any(c0[h:]) or np.any(c1[h:]))
    block, c0, c1 = (tr.even, c0[:h], c1[:h]) if even else (tr, c0, c1)
    A, starts = _linear_modes(config.b, config.m, block.coord_xi, config.dt, times.size,
                              scale * c0, scale * c1)
    return tr, block, times, A, starts


def _fit_window(config: WaveConfig) -> tuple:
    return config.fit_window or (0.2 * config.t_final, 0.8 * config.t_final)


def _coords_out(tr, U):
    """U (nt, n) on the coordinates of `tr`: U itself, or U on the rank-1 even
    block with the odd coordinates back, as exact zeros, in a new array."""
    if U.shape[1] == tr.coord_xi.size:
        return U
    out = np.zeros((U.shape[0], tr.coord_xi.size))
    out[:, :U.shape[1]] = U
    return out


def _solution(config: WaveConfig, tr, block, times, U, dtU, traces, **picard) -> WaveSolution:
    """Physical snapshots and the decay fit of (U, ∂_t U) (_coords_out
    arrays) solved on `block`, with `traces` their _traces on it; the snapshots
    run on `block` too (the rank-1 even block's r > 0 half, mirrored)."""
    h1, dt2 = traces
    idx = np.unique(np.linspace(0, times.size - 1, config.n_snapshots).astype(int))
    snaps = block.from_coords(U[idx].T[:block.coord_xi.size]).T
    if block is not tr:
        snaps = np.concatenate([snaps[:, ::-1], snaps], axis=1)
    delta, resid = _safe_fit(times, h1 + dt2, _fit_window(config))
    return WaveSolution(times, tr.coord_xi, U, dtU, h1, dt2, tr.x_quad.nodes, idx, snaps,
                        delta, resid, **picard)


def solve_linear(config: WaveConfig, u0, u1) -> WaveSolution:
    """Per-mode closed forms synthesized back to physical space.

    u0, u1 (real data) may be callables on the physical grid, sample arrays,
    or None (zero data).
    """
    config.validate()
    tr, block, times, A, starts = _linear_stage(config, u0, u1)
    U, dtU = _carry(A, starts, slice(0, times.size))
    return _solution(config, tr, block, times, _coords_out(tr, U), _coords_out(tr, dtU),
                     _traces(U, dtU, block))


def _safe_fit(times, trace, window):
    # degenerate (zero) solutions carry no decay rate
    try:
        return decay_rate_fit(times, trace, window)
    except ValueError:
        return float("nan"), float("nan")


def decay_rate_fit(times: np.ndarray, trace: np.ndarray, window) -> tuple:
    """Sign-flipped least-squares slope of log(trace) over the window."""
    t_lo, t_hi = window
    mask = (times >= t_lo) & (times <= t_hi)
    if not np.any(mask):
        raise ValueError("empty fit window")
    tr = trace[mask]
    if np.any(tr <= 0.0):
        raise ValueError("non-positive trace values in the fit window")
    t = times[mask]
    y = np.log(tr)
    coef = np.polyfit(t, y, 1)
    resid = float(np.sqrt(np.mean((np.polyval(coef, t) - y) ** 2)))
    return float(-coef[0]), resid


def x_norm(times: np.ndarray, h1_trace: np.ndarray, dt_trace: np.ndarray,
           delta: float) -> float:
    """max_t (1+t)^{-1/2} e^{δt} (‖u‖_{H¹_D} + ‖∂_t u‖₂) on the grid."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    w = (1.0 + times) ** (-0.5) * np.exp(delta * times)
    return float(np.max(w * (h1_trace + dt_trace)))


def _duhamel(A, G, U, V) -> None:
    """The Duhamel sums dt Σ'_{j≤i} K(t_i - t_j) F(t_j), with Σ' halving the
    j = 0 and j = i terms, for the kernel K = e^{-bt/2} S (into U) and its
    t-derivative (into V, plus (dt/2) F(t_i)), written in place; G holds
    w_j dt F(t_j), w_0 = ½ and w_j = 1 after, and A is the propagator on
    dt·(0..B).  G, U and V are (nb·B, n_ξ), whole blocks of rows; the rows of
    G past the time grid are 0.

    (K, ∂_t K) = (a12, a22) is the second column of A, so
    x_i = Σ_{j≤i} A(t_i - t_j)(0, w_j dt F_j) is (U part, ∂_t U part +
    (dt/2) F_i) and obeys x_i = A(dt) x_{i-1} + (0, w_i dt F_i).
    The scan runs in blocks of B steps:
    the block-end sums Σ_j A((B-1-j)dt)(0, w_j dt F_j), a carry of the state
    before each block by A(B·dt), then B steps that advance all blocks at
    once.  Every power of A(dt) is a closed form, so rounding grows over B
    steps, not nt; A's eigenvalues are the damped mode factors e^{λ± dt}, so
    the scan is stable.  Row i reads G[:i+1] only."""
    a11, a12, a21, a22 = A
    B = a11.shape[0] - 1
    G, U, V = (x.reshape(-1, B, x.shape[1]) for x in (G, U, V))
    nb, _, n = G.shape
    end_u = np.einsum("kjn,jn->kn", G, a12[B - 1::-1])
    end_v = np.einsum("kjn,jn->kn", G, a22[B - 1::-1])
    u, v = np.zeros((nb, n)), np.zeros((nb, n))
    for k in range(1, nb):
        u[k] = a11[B] * u[k - 1] + a12[B] * v[k - 1] + end_u[k - 1]
        v[k] = a21[B] * u[k - 1] + a22[B] * v[k - 1] + end_v[k - 1]
    for j in range(B):
        u, v = a11[1] * u + a12[1] * v, a21[1] * u + a22[1] * v + G[:, j]
        U[:, j], V[:, j] = u, v


def solve_nonlinear(config: WaveConfig, u0, u1,
                    nonlinearity: Callable[[np.ndarray], np.ndarray] | None = None,
                    check_nonlinearity: bool = True) -> WaveSolution:
    """Picard iteration on the Duhamel map starting from the linear solution.

    Data is scaled by config.epsilon.  The default nonlinearity |u|^{p-1} u
    is the canonical representative of the admissible class; a user-supplied
    f is accepted after a sampled zero-at-zero / Lipschitz-growth check.
    The iteration stops when the discrete X-norm of successive differences
    falls below tolerance; three consecutive growing differences, or a
    difference or tolerance that is not finite, raise PicardDivergenceError.
    """
    config.validate()
    if config.p is None:
        raise WaveConfigError("solve_nonlinear needs the nonlinearity exponent p")
    p = config.p
    if nonlinearity is None:
        def nonlinearity(u):
            return np.abs(u) ** (p - 1.0) * u
    elif check_nonlinearity:
        _check_nonlinearity(nonlinearity, p)

    eps, dt = config.epsilon, config.dt
    tr, block, times, A, starts = _linear_stage(config, u0, u1, eps)
    nt, n, B = times.size, block.coord_xi.size, A[0].shape[0] - 1
    # the workspace: the Duhamel source G, the linear solution (Φ, ∂_t Φ) and
    # two (U, ∂_t U) pairs, whole blocks of rows each; a step reads the
    # current iterate (Φ first) and writes the other pair
    work = np.empty((7, B * starts[0].shape[0], n))
    G, Phi, dtPhi, pairs = work[0], work[1], work[2], [work[3:5], work[5:7]]
    G[nt:] = 0.0
    chunks = _chunks(nt)

    h1_lin, dt_lin = np.empty(nt), np.empty(nt)
    for r in chunks:
        Phi[r], dtPhi[r] = _carry(A, starts, r)
        h1_lin[r], dt_lin[r] = _traces(Phi[r], dtPhi[r], block)
    delta_lin, _ = _safe_fit(times, h1_lin + dt_lin, _fit_window(config))
    if not math.isfinite(delta_lin):
        delta_lin = 0.0
    delta_used = config.delta_factor * max(delta_lin, 1e-6)
    xw = (1.0 + times) ** (-0.5) * np.exp(delta_used * times)

    U, dtU, h1_now, dt_now = Phi, dtPhi, h1_lin, dt_lin
    diffs: List[float] = []
    converged = False
    # an iterate that overflows is divergence, found from its differences, so
    # numpy's overflow warnings on the way there say nothing new
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.max_picard):
            U_new, dtU_new = pairs[0]
            for r in chunks:
                F = block.to_coords(nonlinearity(block.from_coords(U[r].T)))
                np.multiply(dt, F.T, out=G[r])
            G[0] *= 0.5
            _duhamel(A, G, U_new, dtU_new)
            diff, h1_now, dt_now = np.empty(nt), np.empty(nt), np.empty(nt)
            for r in chunks:
                # (dt/2) F: half of G, and G itself in row 0, where G holds it
                half = 0.5 * G[r]
                if r.start == 0:
                    half[0] = G[0]
                dtU_new[r] -= half
                U_new[r] += Phi[r]
                dtU_new[r] += dtPhi[r]
                dH, dV = _traces(U_new[r] - U[r], dtU_new[r] - dtU[r], block)
                diff[r] = dH + dV
                h1_now[r], dt_now[r] = _traces(U_new[r], dtU_new[r], block)
            U, dtU = U_new, dtU_new
            pairs.reverse()
            diffs.append(float(np.max(xw * diff)))
            floor = config.picard_tol * (float(np.max(xw * (h1_now + dt_now))) + 1e-300)
            # an iterate that overflowed leaves a difference or floor that is not finite
            overflow = not (math.isfinite(diffs[-1]) and math.isfinite(floor))
            if overflow or (len(diffs) >= 4 and diffs[-1] > diffs[-2] > diffs[-3] > diffs[-4]):
                raise PicardDivergenceError(eps, diffs, overflow)
            if diffs[-1] <= floor:
                converged = True
                break

    # the final iterate leaves the workspace, and the workspace goes, before
    # the outputs take its place
    final = [U[:nt].copy(), dtU[:nt].copy()]
    del work, G, Phi, dtPhi, pairs, U, dtU, U_new, dtU_new
    U, dtU = (_coords_out(tr, x) for x in final)
    # a difference at or below the stopping floor is rounding residue, and so is
    # its ratio to the one before
    factors = [d1 / d0 for d0, d1 in zip(diffs, diffs[1:]) if d1 > floor]
    return _solution(config, tr, block, times, U, dtU, (h1_now, dt_now), iterations=len(diffs),
                     diff_xnorms=diffs, contraction_factors=factors, converged=converged)


def _check_nonlinearity(f: Callable, p: float) -> None:
    """Sampled f(0)=0 and two-point Lipschitz-growth check."""
    z = f(np.zeros(3))
    if np.max(np.abs(z)) > 1e-14:
        raise WaveConfigError("nonlinearity must vanish at 0")
    rng = np.random.default_rng(0)
    a = rng.uniform(-1.0, 1.0, size=64)
    b = rng.uniform(-1.0, 1.0, size=64)
    growth = np.abs(f(a) - f(b)) / ((np.abs(a) ** (p - 1) + np.abs(b) ** (p - 1))
                                    * np.abs(a - b) + 1e-300)
    if np.max(growth) > 50.0:
        raise WaveConfigError("nonlinearity fails the sampled Lipschitz-growth bound")
