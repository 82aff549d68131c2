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
absolute bound on the tail.  The seeds depend on p alone (Auslander and
Tolimieri, Bull. AMS 1, 1979; Janssen, Philips J. Res. 43, 1988), so a window is
built from one array evaluation of the Hermite seed and reused while p repeats:
a grid walked row by row in p builds one window per row, and only the phases
e^{2 pi i n (k + off) q} and the central character are formed per point.
"""

from __future__ import annotations

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


def _series_window(values, n: int, p: float, off: float, tol: float, what: str):
    """Seeds g(p + k + off) on the series window k0 - K .. k0 + K, k0 = -round(p + off).

    K is the first K >= 2 at which both edge terms fall under tol/10.  values
    maps an array of arguments to the seeds there; it is called once per block
    of k, and a block that ends before the rule is met is doubled.  Edge sums
    that fail to shrink 61 times running (a seed without decay), or a window
    wider than _MAX_WINDOW terms, raise TruncationError; a window holding a seed
    that is not finite raises ValueError.  Returns the exponents
    2 pi i n (k + off) of the phases, before the factor q, and the seeds.
    """
    thr = 0.1 * tol
    k0 = -round(p + off)
    top = (_MAX_WINDOW - 1) // 2  # the widest half-width allowed
    B = _FIRST_BLOCK
    while True:
        ks = np.arange(k0 - B, k0 + B + 1)
        seeds = values(p + ks + off)
        mags = np.abs(seeds)
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
    ks, seeds = ks[B - K:B + K + 1], seeds[B - K:B + K + 1]
    bad = ~np.isfinite(seeds)
    if bad.any():
        raise ValueError(f"{what} is not finite at x = {p + int(ks[bad][0]) + off!r}")
    return 2j * math.pi * n * (ks + off), seeds.astype(complex)


def _series_value(n: int, window, pt: PolarizedPoint) -> complex:
    exponents, seeds = window
    phases = np.exp(exponents * pt.q)
    # ascending-k summation order for reproducible floating point
    total = np.sum(seeds * phases)
    return complex(np.exp(2j * math.pi * n * pt.s) * total)


def weil_brezin_eval(idx: WBIndex, g, pt: PolarizedPoint, tol: float = 1e-12) -> complex:
    """Truncated evaluation of the series with absolute tail bound below tol.

    The window is symmetric about the argmin of |p + k + off| and grows until
    both edge terms fall under tol/10; terms that stop shrinking (a seed
    without decay) raise TruncationError.  g is called on one float at a time.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    off = idx.offset

    def values(xs):
        return np.array([complex(g(x)) for x in xs.tolist()], dtype=complex)

    return _series_value(idx.n, _series_window(values, idx.n, pt.p, off, tol, "the seed"), pt)


def wb_eigenfunction_values(idx: WBIndex, lam: int, lattice: LatticeSpec, pts,
                            tol: float = 1e-12) -> list[complex]:
    """wb_eigenfunction at each point of pts.

    The seeds depend on the point's p alone, once carried onto the rectangular
    lattice, so consecutive points with the same p share one series window, and
    each window comes from one array evaluation of the Hermite seed.  A grid
    walked row by row in p thus builds one window per row.
    """
    if lattice.kind == "standard-rect":
        if idx.l != lattice.l:
            raise ValueError("idx.l must equal the rectangular lattice width")
        to_rect, l, scaling = None, 1, "plain"
    else:
        if idx.l != 2 * lattice.l:
            raise ValueError("idx.l must equal 2l for the square lattice of parameter l")
        to_rect, l, scaling = scaling_map(lattice.l), lattice.l, "sqrt2l"
    if tol <= 0:
        raise ValueError("tol must be positive")
    scale = seed_scale(idx.n, l, scaling)
    seeds = lambda xs: _function(lam, scale * xs)
    what = f"the Hermite seed of order {lam}"
    off = idx.offset
    out = []
    window = p = None
    for pt in pts:
        if to_rect is not None:
            pt = apply_symplectic(to_rect, pt)
        if window is None or pt.p != p:
            p = pt.p
            window = _series_window(seeds, idx.n, p, off, tol, what)
        out.append(_series_value(idx.n, window, pt))
    return out


def wb_eigenfunction(idx: WBIndex, lam: int, lattice: LatticeSpec, pt: PolarizedPoint,
                     tol: float = 1e-12) -> complex:
    """Eigenfunction of the sub-Laplacian family on the given lattice quotient.

    Rectangular lattices seed the transform with the plain-scaled Hermite
    function; square lattices seed with the sqrt2l scaling and evaluate at the
    rescaled point, which is where their quotient is carried onto the
    rectangular one.
    """
    return wb_eigenfunction_values(idx, lam, lattice, (pt,), tol)[0]
