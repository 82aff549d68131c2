"""Schroedinger representation and Weil-Brezin (Zak-type) eigenfunctions.

The transform sends a line function g to the central frequency-n sector of a
lattice quotient:

    (W g)(p, q, s) = e^{2 pi i n s} Sum_k g(p + k + off) e^{2 pi i n (k + off) q},
    off = a/|n| + b/(L n),

for the rectangular lattice Z x LZ x Z.  The b-shift divides by the signed
frequency; only that convention makes the quarter-turn pullback formulas close.
Square-lattice quotients evaluate through the rescaling that carries their
lattice onto the rectangular one of width 2l.

The series is cut to a window k0 - K .. k0 + K about the smallest |p + k + off|,
with K the first K >= 2 at which both edge terms are below tol/10: tol is an
absolute bound on the tail.  A window may hold a (k x residue) matrix of seeds,
one column per offset, its edge rows judged by their largest seed: an invariant
combination Sum c^{a,b} f^{a,b} is one series over the N = L|n| residues r/N
(invariants.eigenfunction_combination), every residue's edge terms are under
tol/10, and its tail is at most about tol * Sum |c|.  The seeds depend on p
alone (Auslander and Tolimieri, Bull. AMS 1, 1979; Janssen, Philips J. Res. 43,
1988), so a window is built from one array evaluation of the seed and reused
while p repeats, and only the phases and the central character are formed per
point.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .group import LatticeSpec, PolarizedPoint, apply_symplectic, scaling_map
from .hermite import _function, seed_scale


class TruncationError(RuntimeError):
    """Raised when the series window grows without meeting the tail bound."""


@dataclass(frozen=True)
class WBIndex:
    """Sector label (n) and residue pair (a, b) for the width-l rectangular lattice.

    l is the width L of the covering lattice Z x LZ x Z; quotients built over the
    square lattice of parameter l' index through L = 2l'.
    """

    n: int
    a: int
    b: int
    l: int

    def __post_init__(self):
        if self.n == 0:
            raise ValueError("n must be nonzero")
        if self.l < 1:
            raise ValueError("l must be a positive integer")
        if not 0 <= self.a < abs(self.n):
            raise ValueError("a must lie in [0, |n|)")
        if not 0 <= self.b < self.l:
            raise ValueError("b must lie in [0, l)")

    @property
    def offset(self) -> float:
        return self.a / abs(self.n) + self.b / (self.l * self.n)


def schrodinger_act(beta: float, h: PolarizedPoint, g, x: float) -> complex:
    """(pi_beta(p,q,s) g)(x) = e^{2 pi i beta (s + q x)} g(x + p)."""
    if beta == 0:
        raise ValueError("beta must be nonzero")
    return np.exp(2j * math.pi * beta * (h.s + h.q * x)) * g(x + h.p)


_MAX_WINDOW = 100_000
# half-width of the first block of seeds; a block that ends before the window
# rule is met is doubled
_FIRST_BLOCK = 8


def _outer(ks, offs):  # k + off for every k and offset, k-major and flat
    return ks + offs if offs.size == 1 else np.add.outer(ks, offs).ravel()


def _series_window(values, n: int, p: float, offs, tol: float, what: str):
    """Seeds g(p + k + off) on the window k0 - K .. k0 + K for each offset off in offs.

    k0 = -round(p + m), m the mean of the first and last offset.  Each block of
    seeds is a (k x residue) matrix from one call of values; K is the first K >= 2
    at which the largest seed of each edge row is under tol/10, and a block that
    ends before that is doubled.  Edge sums that fail to shrink 61 unit steps of k
    running (a seed without decay), or a window wider than _MAX_WINDOW rows, raise
    TruncationError; a seed in the window that is not finite raises ValueError.
    Returns the exponents 2 pi i n (k + off), before the factor q, and the seeds,
    flat and k-major.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    thr = 0.1 * tol
    k0 = -round(p + float(offs[0] + offs[-1]) / 2)
    top = (_MAX_WINDOW - 1) // 2  # the widest half-width allowed
    B = _FIRST_BLOCK
    while True:
        ks = np.arange(k0 - B, k0 + B + 1)
        xs = _outer(p + ks, offs)
        seeds = values(xs)
        mags = np.abs(seeds)
        if offs.size > 1:
            mags = mags.reshape(-1, offs.size).max(axis=1)
        # edge terms for K = 2 .. B; fmax, like `or`, lets a nan edge close the window
        left, right = mags[B - 2::-1], mags[B + 2:]
        wide = np.fmax(left, right) >= thr
        K = 2 + int(wide.argmin())
        shut = not wide[K - 2]
        # 61 growing edge sums in a row need K >= 63
        if not shut or K >= 63:
            edge = left + right
            grew = edge[1:] >= edge[:-1]  # K = 3 .. B
            at = np.arange(grew.size)
            run = at - np.maximum.accumulate(np.where(grew, -1, at))
            stalled = np.flatnonzero(run > 60)
            if stalled.size and (not shut or 3 + stalled[0] <= K):
                raise TruncationError("series terms are not shrinking; seed lacks decay")
        if shut:
            break
        if B == top:
            raise TruncationError("window exceeded %d terms without decay" % _MAX_WINDOW)
        B = min(2 * B, top)
    rows = slice((B - K) * offs.size, (B + K + 1) * offs.size)
    xs, seeds = xs[rows], seeds[rows]
    bad = ~np.isfinite(seeds)
    if bad.any():
        raise ValueError(f"{what} is not finite at x = {float(xs[bad][0])!r}")
    return 2j * math.pi * n * _outer(ks[B - K:B + K + 1], offs), seeds.astype(complex)


def _series_value(n: int, window, pt: PolarizedPoint) -> complex:
    exponents, seeds = window
    phases = np.exp(exponents * pt.q)
    # ascending-k summation order for reproducible floating point
    total = np.sum(seeds * phases)
    return complex(np.exp(2j * math.pi * n * pt.s) * total)


def weil_brezin_eval(idx: WBIndex, g, pt: PolarizedPoint, tol: float = 1e-12) -> complex:
    """Truncated evaluation of the series with absolute tail bound below tol.

    The window is that of _series_window; g is called on one float at a time.
    """
    def values(xs):
        return np.array([complex(g(x)) for x in xs.tolist()], dtype=complex)

    window = _series_window(values, idx.n, pt.p, np.array([idx.offset]), tol, "the seed")
    return _series_value(idx.n, window, pt)


def _hermite_windows(n: int, width: int, lam: int, lattice: LatticeSpec, tol: float):
    """The map of a point onto the rectangular cover and the _series_window of the
    Hermite seed of order lam as a function of p and offsets."""
    if width != lattice.covering_width:
        raise ValueError(f"width {width} is not the covering width of {lattice}")
    if lattice.kind == "standard-rect":
        to_rect, scale = (lambda pt: pt), seed_scale(n, 1, "plain")
    else:
        to_rect = functools.partial(apply_symplectic, scaling_map(lattice.l))
        scale = seed_scale(n, lattice.l, "sqrt2l")
    seeds = lambda xs: _function(lam, scale * xs)
    what = f"the Hermite seed of order {lam}"
    return to_rect, lambda p, offs: _series_window(seeds, n, p, offs, tol, what)


def wb_eigenfunction_values(idx: WBIndex, lam: int, lattice: LatticeSpec, pts,
                            tol: float = 1e-12) -> list[complex]:
    """wb_eigenfunction at each point of pts.

    The seeds depend on the point's p alone, once carried onto the rectangular
    lattice, so consecutive points with the same p share one series window: a
    grid walked row by row in p builds one window per row.
    """
    to_rect, window_at = _hermite_windows(idx.n, idx.l, lam, lattice, tol)
    offs = np.array([idx.offset])
    out = []
    window = p = None
    for pt in pts:
        pt = to_rect(pt)
        if window is None or pt.p != p:
            p = pt.p
            window = window_at(p, offs)
        out.append(_series_value(idx.n, window, pt))
    return out


def wb_eigenfunction(idx: WBIndex, lam: int, lattice: LatticeSpec, pt: PolarizedPoint,
                     tol: float = 1e-12) -> complex:
    """Eigenfunction of the sub-Laplacian family on the given lattice quotient.

    Rectangular lattices seed the transform with the plain-scaled Hermite
    function; square lattices with the sqrt2l scaling, at the point carried onto
    their rectangular cover.
    """
    return wb_eigenfunction_values(idx, lam, lattice, (pt,), tol)[0]
