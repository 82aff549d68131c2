"""Physicists' Hermite polynomials and L2-normalised Hermite functions.

psi_lam(y) = H_lam(y) e^{-y^2/2} / sqrt(2^lam lam! sqrt(pi)), the oscillator
eigenfunction of eigenvalue 2 lam + 1 and unit L2 norm, comes from the recurrence
psi_{k+1} = sqrt(2/(k+1)) y psi_k - sqrt(k/(k+1)) psi_{k-1} (Gil, Segura and
Temme, Numerical Methods for Special Functions, SIAM 2007).  The start
pi^{-1/4} e^{-y^2/2} is 0.0 from |y| = 38.6 on, so the Gaussian is spread over the
steps: start from pi^{-1/4}, multiply by g = e^{-y^2/(2 lam)} once per step, and
every 64 steps rescale both running terms by one power of two; no intermediate
overflows at any order, and a value costs O(lam) array steps.  Past the turning
point sqrt(2 lam + 1), |psi_lam| decays at least like e^{-(|y| - sqrt(2 lam + 1))^2/2}
times its value there (Sturm comparison).
"""

from __future__ import annotations

import math

import numpy as np


def _check_order(lam) -> int:
    if not isinstance(lam, (int, np.integer)) or isinstance(lam, bool):
        raise ValueError("lambda must be an integer")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    return int(lam)


def _psi(lam: int, y: np.ndarray) -> np.ndarray:
    """psi_lam on an array by the spread recurrence; lam is already checked."""
    c = math.pi ** -0.25
    if lam == 0:
        return c * np.exp(-0.5 * y * y)
    g = np.exp(-0.5 * y * y / lam)
    gy, gg = g * y, g * g
    prev, cur = np.full_like(y, c), (math.sqrt(2.0) * c) * gy
    shift = 0
    for k in range(1, lam):
        prev, cur = cur, math.sqrt(2.0 / (k + 1)) * gy * cur - math.sqrt(k / (k + 1)) * gg * prev
        if k % 64 == 0:
            e = np.frexp(np.maximum(np.abs(cur), np.abs(prev)))[1]
            prev, cur, shift = np.ldexp(prev, -e), np.ldexp(cur, -e), shift + e
    return np.ldexp(cur, shift)


def hermite_poly(lam: int, y):
    """H_lam(y) via H_{k+1} = 2y H_k - 2k H_{k-1}, H_0 = 1, H_1 = 2y; a value that
    overflows raises ValueError naming the order and the argument."""
    lam = _check_order(lam)
    y = np.asarray(y, dtype=float)
    h_prev, h = np.ones_like(y), (2.0 * y if lam else np.ones_like(y))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, lam):
            h, h_prev = 2.0 * y * h - 2.0 * k * h_prev, h
    bad = ~np.isfinite(h)
    if bad.any():
        raise ValueError(f"the Hermite polynomial of order {lam} is not finite at "
                         f"y = {float(y[bad].flat[0])!r}: the recurrence overflows")
    return float(h) if y.ndim == 0 else h


def hermite_function(lam: int, y):
    """psi_lam(y) = H_lam(y) exp(-y^2/2) / sqrt(2^lam lam! sqrt(pi))."""
    y = np.asarray(y, dtype=float)
    out = _psi(_check_order(lam), y)
    return float(out) if y.ndim == 0 else out

