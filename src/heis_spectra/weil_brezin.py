"""Schroedinger representation and Weil-Brezin (Zak-type) eigenfunctions.

The transform sends a line function g to the central frequency-n sector of a
lattice quotient:

    (W g)(p, q, s) = e^{2 pi i n s} Sum_k g(p + k + off) e^{2 pi i n (k + off) q},
    off = a/|n| + b/(L n),

for the rectangular lattice Z x LZ x Z.  The b-shift divides by the signed
frequency; only that convention makes the quarter-turn pullback formulas close.
Square-lattice quotients evaluate through the rescaling that carries their
lattice onto the rectangular one of width 2l.

tol is relative to the seed's largest value.  A Hermite seed psi_lam(scale x) keeps
every term with |scale (p + k + off)| <= sqrt(2 lam + 1) + sqrt(2 ln(10/tol)); past
the turning point its tail is Gaussian, so each dropped term is under tol/10 of
sup|psi_lam|.  A window may hold a (k x residue) matrix of seeds, one column per
offset: an invariant combination Sum c^{a,b} f^{a,b} is one series over the
N = L|n| residues r/N (invariants.eigenfunction_combination), with a tail of at
most about tol * sup|psi_lam| * Sum |c|.  The seeds depend on p alone (Auslander
and Tolimieri, Bull. AMS 1, 1979; Janssen, Philips J. Res. 43, 1988), so a window
is built from one array evaluation and reused while p repeats.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .group import LatticeSpec, PolarizedPoint, apply_symplectic, scaling_map
from .hermite import _check_order, _psi


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


# widest window of the generic path, in terms
_MAX_WINDOW = 100_000


def _outer(ks, offs):  # k + off for every k and offset, k-major and flat
    return np.add.outer(ks, offs).ravel()


def _window(n: int, ks, offs, xs, seeds, what: str):
    """The exponents 2 pi i n (k + off), before the factor q, and the complex seeds,
    flat and k-major; a seed that is not finite raises ValueError."""
    bad = ~np.isfinite(seeds)
    if bad.any():
        raise ValueError(f"{what} is not finite at x = {float(xs[bad][0])!r}")
    return 2j * math.pi * n * _outer(ks, offs), seeds.astype(complex)


def _series_window(lam: int, scale: float, n: int, p: float, offs, tol: float):
    """The window of seeds psi_lam(scale (p + k + off)), off in offs, from one Hermite
    call: every k with |scale (p + k + off)| <= sqrt(2 lam + 1) + sqrt(2 ln(10/tol))
    for some offset, so that every residue's dropped terms are under tol/10."""
    reach = (math.sqrt(2 * lam + 1) + math.sqrt(2 * math.log(max(10 / tol, 1.0)))) / scale
    ks = np.arange(math.ceil(-reach - p - float(offs.max())),
                   math.floor(reach - p - float(offs.min())) + 1)
    xs = _outer(p + ks, offs)
    return _window(n, ks, offs, xs, _psi(lam, scale * xs),
                   f"the Hermite seed of order {lam}")


def _series_value(n: int, window, pt: PolarizedPoint) -> complex:
    exponents, seeds = window
    phases = np.exp(exponents * pt.q)
    # ascending-k summation order for reproducible floating point
    total = np.sum(seeds * phases)
    return complex(np.exp(2j * math.pi * n * pt.s) * total)


def weil_brezin_eval(idx: WBIndex, g, pt: PolarizedPoint, tol: float = 1e-12) -> complex:
    """Truncated evaluation of the series for a seed g of unknown decay.

    g is called on one float at a time.  The window k0 - K .. k0 + K about the
    smallest |p + k + off| grows from K = 2 until both edge terms are at most
    tol/10 of the largest term seen; past _MAX_WINDOW terms it raises
    TruncationError.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    off = idx.offset
    k0 = -round(pt.p + off)
    seed = lambda k: complex(g(pt.p + k + off))
    K = 2
    terms = deque(seed(k) for k in range(k0 - K, k0 + K + 1))
    peak = max(map(abs, terms))
    while abs(terms[0]) > 0.1 * tol * peak or abs(terms[-1]) > 0.1 * tol * peak:
        if 2 * K + 3 > _MAX_WINDOW:
            raise TruncationError("window exceeded %d terms without decay" % _MAX_WINDOW)
        K += 1
        terms.appendleft(seed(k0 - K))
        terms.append(seed(k0 + K))
        peak = max(peak, abs(terms[0]), abs(terms[-1]))
    ks, offs = np.arange(k0 - K, k0 + K + 1), np.array([off])
    window = _window(idx.n, ks, offs, _outer(pt.p + ks, offs), np.array(terms), "the seed")
    return _series_value(idx.n, window, pt)


def _hermite_windows(n: int, width: int, lam: int, lattice: LatticeSpec, tol: float):
    """The map of a point onto the rectangular cover and the _series_window of the
    Hermite seed of order lam as a function of p and offsets."""
    if width != lattice.covering_width:
        raise ValueError(f"width {width} is not the covering width of {lattice}")
    lam = _check_order(lam)
    if not tol > 0:
        raise ValueError("tol must be positive")
    # psi_lam(scale x): scale is sqrt(2 pi |n|) on a rectangular lattice, and
    # 2 sqrt(pi l |n|) on a square one, read on its cover of width 2l
    if lattice.kind == "standard-rect":
        to_rect, scale = (lambda pt: pt), math.sqrt(2.0 * math.pi * abs(n))
    else:
        to_rect = functools.partial(apply_symplectic, scaling_map(lattice.l))
        scale = 2.0 * math.sqrt(math.pi * lattice.l * abs(n))
    return to_rect, lambda p, offs: _series_window(lam, scale, n, p, offs, tol)


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

    The transform's seed is the Hermite function psi_lam, rescaled to the
    lattice; square lattices are evaluated at the point carried onto their
    rectangular cover.
    """
    return wb_eigenfunction_values(idx, lam, lattice, (pt,), tol)[0]
