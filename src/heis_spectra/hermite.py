"""Physicists' Hermite polynomials, Hermite functions, and the scaled variants.

F_lambda(y) = H_lambda(y) e^{-y^2/2} is the oscillator eigenfunction with
eigenvalue 2*lambda + 1.  Two rescalings appear downstream: the width
sqrt(2*pi*|n|) adapted to the rectangular lattices and 2*sqrt(pi*l*|n|) adapted
to the square ones.

The unnormalised recurrence overflows for large |y| well below MAX_ORDER (at
order 170 near |y| = 32); a value that is not finite raises ValueError naming
the order and the argument instead of being returned.
"""

from __future__ import annotations

import math

import numpy as np

# orders above this are refused outright; below it, overflow is caught per value
MAX_ORDER = 200


def _check_order(lam) -> int:
    if not isinstance(lam, (int, np.integer)) or isinstance(lam, bool):
        raise ValueError("lambda must be an integer")
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if lam > MAX_ORDER:
        raise ValueError(f"lambda = {lam} exceeds the overflow guard {MAX_ORDER}")
    return int(lam)


def _poly(lam: int, y: np.ndarray) -> np.ndarray:
    h_prev = np.ones_like(y)
    if lam == 0:
        return h_prev
    h = 2.0 * y
    for k in range(1, lam):
        h, h_prev = 2.0 * y * h - 2.0 * k * h_prev, h
    return h


def _function(lam, y: np.ndarray) -> np.ndarray:
    """F_lam on an array; where the recurrence overflows the entries are inf or nan."""
    lam = _check_order(lam)
    with np.errstate(over="ignore", invalid="ignore"):
        return _poly(lam, y) * np.exp(-0.5 * y * y)


def _finite(what: str, lam: int, y: np.ndarray, out: np.ndarray):
    bad = ~np.isfinite(out)
    if bad.any():
        raise ValueError(f"the Hermite {what} of order {lam} is not finite at "
                         f"y = {float(y[bad].flat[0])!r}: the recurrence overflows")
    return float(out) if y.ndim == 0 else out


def hermite_poly(lam: int, y):
    """H_lam(y) via H_{k+1} = 2y H_k - 2k H_{k-1}, H_0 = 1, H_1 = 2y."""
    lam = _check_order(lam)
    y = np.asarray(y, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _poly(lam, y)
    return _finite("polynomial", lam, y, out)


def hermite_function(lam: int, y):
    """F_lam(y) = H_lam(y) exp(-y^2/2)."""
    y = np.asarray(y, dtype=float)
    return _finite("function", lam, y, _function(lam, y))


def seed_scale(n: int, l, scaling: str) -> float:
    """The factor s with scaled_hermite(n, lam, l, scaling, x) = F_lam(s x)."""
    if n == 0:
        raise ValueError("n must be nonzero")
    if scaling == "plain":
        return math.sqrt(2.0 * math.pi * abs(n))
    if scaling == "sqrt2l":
        if not l > 0:
            raise ValueError("l must be positive")
        return 2.0 * math.sqrt(math.pi * l * abs(n))
    raise ValueError(f"unknown scaling {scaling!r}")


def scaled_hermite(n: int, lam: int, l, scaling: str, x):
    """Rescaled Hermite function used as the transform's line-function seed.

    scaling "plain":  F_lam(sqrt(2 pi |n|) x), the rectangular-lattice width.
    scaling "sqrt2l": F_lam(2 sqrt(pi l |n|) x); at l = 1/2 this degenerates to
    the plain scaling, which is exercised only as a test relation.
    """
    scale = seed_scale(n, l, scaling)
    x = np.asarray(x, dtype=float)
    out = hermite_function(lam, scale * x)
    return float(out) if x.ndim == 0 else out

