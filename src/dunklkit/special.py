"""Normalized Bessel functions and smooth cutoff profiles.

The normalized Bessel function

    j_nu(z) = Gamma(nu + 1) * (2/z)**nu * J_nu(z)

is an even entire function of z with j_nu(0) = 1.  It is the radial building
block of the rank-1 Dunkl kernel and of the radial transform kernel.

The order alone picks the evaluation away from the origin.  Half-integer
orders nu = n + 1/2 (n ≥ -1) use the spherical Bessel function,
J_{n+1/2}(z) = √(2z/π) j_n(z) (DLMF 10.47), so that
j_nu(z) = (2n+1)!! sph_j_n(z) / z^n, except at z ≤ n, where scipy's
sph_j_n itself falls back to the general J_nu and the power series
Σ (-z²/4)^m / (m! (nu+1)_m) takes over; cos z at nu = -1/2; orders 0 and 1
use the Cephes J0/J1.  Together they cover the rank-1 kernel at k = ½ and at
every integer k, and the radial kernel at Λ = N + 2γ = 2, 4 and at every odd
integer Λ.  Every other order goes through Γ(nu+1) (2/z)^nu J_nu(z) with the
general `jv`, which costs several times more per point.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sps

__all__ = ["normalized_bessel_j", "smoothstep", "smooth_cutoff"]


def normalized_bessel_j(nu: float, z: np.ndarray | float) -> np.ndarray:
    """Evaluate j_nu(z) = Gamma(nu+1) (2/z)^nu J_nu(z), elementwise.

    Even in z; the removable singularity at z = 0 is handled by the power
    series 1 - z^2/(4(nu+1)) + z^4/(32(nu+1)(nu+2)) for |z| < 1e-4, which is
    accurate to ~1e-25 there.
    """
    az = np.abs(np.asarray(z, dtype=float))
    small = az < 1e-4
    out = np.asarray(_away_from_origin(nu, np.where(small, 1.0, az)))
    if np.any(small):
        z2 = az[small] ** 2
        c1 = 1.0 / (4.0 * (nu + 1.0))
        c2 = 1.0 / (32.0 * (nu + 1.0) * (nu + 2.0))
        out[small] = 1.0 - c1 * z2 + c2 * z2 * z2
    return out


def _away_from_origin(nu: float, z: np.ndarray) -> np.ndarray:
    """j_nu(z) for z ≥ 1e-4, by the cheapest exact form for the order."""
    n = nu - 0.5
    if n == -1.0:
        return np.cos(z)
    if n >= 0.0 and float(n).is_integer():
        n = int(n)
        # at z ≤ n scipy's spherical_jn falls back to jv: the power series
        # takes those points while its summed term sizes, at most
        # e^{z²/4(ν+1)}, stay below e⁴ (rounding ≤ 1.2e-14), and a
        # placeholder above n keeps them out of spherical_jn
        series = z <= min(n, 4.0 * math.sqrt(nu + 1.0))
        if series.any():
            out = np.asarray(_away_from_origin(nu, np.where(series, n + 1.0, z)))
            out[series] = _power_series(nu, z[series])
            return out
        return math.prod(range(2 * n + 1, 0, -2)) * sps.spherical_jn(n, z) / z ** n
    if nu == 0.0:
        return sps.j0(z)
    if nu == 1.0:
        return 2.0 * sps.j1(z) / z
    return sps.gamma(nu + 1.0) * (2.0 / z) ** nu * sps.jv(nu, z)


def _power_series(nu: float, z: np.ndarray) -> np.ndarray:
    """j_nu(z) = Γ(nu+1) Σ_m (-z²/4)^m / (m! Γ(nu+m+1)), summed until the
    terms, which fall monotonically once past their peak, are below 1e-17."""
    w = -0.25 * z * z
    term, out = np.ones_like(z), np.ones_like(z)
    m = 0
    while np.max(np.abs(term)) > 1e-17:
        m += 1
        term = term * w / (m * (nu + m))
        out += term
    return out


def smoothstep(u: np.ndarray | float) -> np.ndarray:
    """C-infinity step: 0 for u <= 0, 1 for u >= 1, strictly monotone between.

    Built from the classic mollifier e^{-1/u}; used for dyadic partitions and
    bump test functions.
    """
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(u > 0.0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
        b = np.where(1.0 - u > 0.0, np.exp(-1.0 / np.maximum(1.0 - u, 1e-300)), 0.0)
    return a / (a + b)


def smooth_cutoff(t: np.ndarray | float) -> np.ndarray:
    """C-infinity cutoff chi: 1 for t <= 1, 0 for t >= 2, decreasing between."""
    t = np.asarray(t, dtype=float)
    return 1.0 - smoothstep(t - 1.0)
