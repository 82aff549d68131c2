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
sup|psi_lam|.  An invariant combination Sum c^{a,b} f^{a,b}
(invariants.eigenfunction_combination) is one series over (1/N)Z on the smallest
window that keeps the per-residue rule: N = L|n|, the weight of residue r at each
m = r mod N, and the contiguous m with |scale (p + m/N)| within that reach, so
its tail is at most about tol * sup|psi_lam| * Sum |c| and a point costs one
Hermite call, one exp and one dot; K combinations at once, such as a sector's
whole basis (invariants.sector_basis_values), share those seeds and phases and
take one product.  Both one-point paths refuse, with ValueError, a p on the cover
that is not below 2^52 in magnitude (past it p + k is no longer exact), a value
that is not finite, and a point whose float phases may round past tol, by the
bound `_point_phase_error` on its p, q and s.

The uniform grid of `eigenfunction --grid g` (wb_eigenfunction_grid) has exact
phases instead.  On the cover its points are p = i/g, q = L j/g and s = m/g, so
every phase is a g-th root of unity with an integer exponent, reduced mod g in
Python ints for any n, and a row's q-sum is the length-g DFT of its seeds summed
by residue: the Zak transform (Auslander and Tolimieri, Bull. AMS 1, 1979;
Janssen, Philips J. Res. 43, 1988).  Its seeds' arguments are each one rounding
of a quotient of integers, its second s-period is its first bit for bit, and it
refuses only a seed that is not finite; wb_eigenfunction is its float oracle.
"""

from __future__ import annotations

import cmath
import math
import sys
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
# past 2^52 a float p + k is no longer exact, so a window's arguments drift
_MAX_P = 2.0**52


def _window(n: int, ks, off: float, xs, seeds, what: str):
    """The exponents 2 pi i n (k + off), before the factor q, and the complex seeds;
    a seed that is not finite raises ValueError."""
    bad = ~np.isfinite(seeds)
    if bad.any():
        raise ValueError(f"{what} is not finite at x = {float(xs[bad][0])!r}")
    return 2j * math.pi * n * (ks + off), seeds.astype(complex)


def _reach(lam: int, scale: float, p: float, tol: float) -> float:
    """R / scale with R = sqrt(2 lam + 1) + sqrt(2 ln(10/tol)): past |scale x| = R each
    term is under tol/10 of sup|psi_lam|.  A p on the cover that is not finite or
    not below 2^52 in magnitude raises ValueError."""
    if not abs(p) < _MAX_P:
        raise ValueError(f"p = {p!r} on the rectangular cover must be finite and below "
                         f"2^52 in magnitude")
    return (math.sqrt(2 * lam + 1) + math.sqrt(2 * math.log(max(10 / tol, 1.0)))) / scale


def _point_phase_error(n: int, p: float, q: float, s: float, reach: float) -> float:
    """A bound on the error the rounding of the phases puts into a value of the series
    at (p, q, s) on the rectangular cover, relative to the seed's largest value.

    A phase argument 2 pi n y is three roundings, off by up to 1.5 eps |2 pi n y|,
    and a value carries two of them: the factor's, at y = s, and a term's, at
    y = (k + off) q with |k + off| <= |p| + 1 + reach for the window's reach
    (`_reach`); the combination's series splits the same phase at s - q round(p)
    and (m/N) q, within the same bound.  So it is 3 eps 2 pi |n| max(|s|,
    (|p| + 1 + reach) |q|).
    """
    return 3.0 * sys.float_info.epsilon * 2 * math.pi * abs(n) * max(
        abs(s), (abs(p) + 1.0 + reach) * abs(q))


def _check_phases(n: int, p: float, q: float, s: float, reach: float, tol: float) -> None:
    """Refuse, with ValueError, a point whose phases may round past tol (`_point_phase_error`)."""
    error = _point_phase_error(n, p, q, s, reach)
    if error > tol:
        raise ValueError(f"the phases at p = {p!r}, q = {q!r}, s = {s!r} on the rectangular "
                         f"cover may round by {error:.3g}, past tol = {tol!r}")


def _finite(value: complex) -> complex:
    if not cmath.isfinite(value):
        raise ValueError(f"the series is not finite ({value!r}): a phase or a term overflows")
    return value


def _series_window(lam: int, scale: float, n: int, pt: PolarizedPoint, off: float, tol: float):
    """The window of seeds psi_lam(scale (p + k + off)) of one basis function at the
    point on the cover, from one Hermite call: every k with |scale (p + k + off)| <= R
    (`_reach`).  A point whose phases may round past tol raises ValueError."""
    p = pt.p
    reach = _reach(lam, scale, p, tol)
    _check_phases(n, p, pt.q, pt.s, reach, tol)
    ks = np.arange(math.ceil(-reach - p - off), math.floor(reach - p - off) + 1)
    xs = (p + ks) + off
    return _window(n, ks, off, xs, _psi(lam, scale * xs), f"the Hermite seed of order {lam}")


def _series_value(n: int, window, q: float, s: float) -> complex:
    exponents, seeds = window
    with np.errstate(all="ignore"):  # a phase that overflows is refused below
        phases = np.exp(exponents * q)
        # ascending-k summation order for reproducible floating point
        total = np.sum(seeds * phases)
        return _finite(complex(np.exp(2j * math.pi * n * s) * total))


def _residue_window(lam: int, scale: float, n: int, size: int, p: float, q: float, s: float,
                    tol: float):
    """The window of the series over (1/N)Z, N = size, that keeps the per-residue
    rule: the m with |scale (p + m/N)| <= R (`_reach`), their seeds
    psi_lam(scale (p + m/N)) from one Hermite call and their phases
    e^{2 pi i n q m/N} from one exp, and the factor e^{2 pi i n s}, with p's
    whole part moved into it.  A phase that overflows raises ValueError."""
    reach = _reach(lam, scale, p, tol)
    _check_phases(n, p, q, s, reach, tol)
    # p = j + f with j whole and f exact: the term m of p is the term m + jN of f,
    # of the same residue, with its phase times e^{-2 pi i n q j}
    j = round(p)
    f = p - j
    m0, m1 = math.ceil(size * (-reach - f)), math.floor(size * (reach - f))
    step, turn = 2 * math.pi * n * q / size, 2 * math.pi * n * (s - q * j)
    if not (math.isfinite(step * max(-m0, m1)) and math.isfinite(turn)):
        raise ValueError(f"the phases at q = {q!r}, s = {s!r} overflow")
    ms = np.arange(m0, m1 + 1)
    seeds = _psi(lam, (scale / size) * (ms + size * f))
    return ms, seeds, np.exp((1j * step) * ms), cmath.exp(1j * turn)


def _residue_series(lam: int, scale: float, n: int, weights, p: float, q: float, s: float,
                    tol: float) -> complex:
    """e^{2 pi i n s} Sum_m w_{m mod N} psi_lam(scale (p + m/N)) e^{2 pi i n q m/N},
    N = len(weights), on the window of `_residue_window`, by one dot.  A value that
    is not finite raises ValueError."""
    ms, seeds, phases, factor = _residue_window(lam, scale, n, len(weights), p, q, s, tol)
    return _finite(complex(np.dot(weights[ms % len(weights)] * seeds, phases)) * factor)


def _residue_sums(lam: int, scale: float, n: int, size: int, p: float, q: float, s: float,
                  tol: float) -> np.ndarray:
    """The N = size series of `_residue_series` whose weights are the unit vectors,
    as one array indexed by residue: the terms of the window summed by m mod N,
    two bincounts, in O(window + N) memory.  A value that is not finite raises
    ValueError."""
    ms, seeds, phases, factor = _residue_window(lam, scale, n, size, p, q, s, tol)
    terms = seeds * phases
    residues = ms % size
    values = np.empty(size, dtype=complex)
    values.real = np.bincount(residues, terms.real, size)
    values.imag = np.bincount(residues, terms.imag, size)
    values *= factor
    bad = ~np.isfinite(values)
    if bad.any():
        _finite(complex(values[bad][0]))
    return values


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
    ks = np.arange(k0 - K, k0 + K + 1)
    window = _window(idx.n, ks, off, (pt.p + ks) + off, np.array(terms), "the seed")
    return _series_value(idx.n, window, pt.q, pt.s)


def _hermite_seed(n: int, width: int, lam: int, lattice: LatticeSpec, tol: float):
    """(lam, cover, scale): the checked order, the map onto the rectangular cover
    (None on a rectangular lattice) and the scale of the seed psi_lam(scale x)."""
    if width != lattice.covering_width:
        raise ValueError(f"width {width} is not the covering width of {lattice}")
    lam = _check_order(lam)
    if not tol > 0:
        raise ValueError("tol must be positive")
    # psi_lam(scale x): scale is sqrt(2 pi |n|) on a rectangular lattice, and
    # 2 sqrt(pi l |n|) on a square one, read on its cover of width 2l
    if lattice.kind == "standard-rect":
        return lam, None, math.sqrt(2.0 * math.pi * abs(n))
    return lam, scaling_map(lattice.l), 2.0 * math.sqrt(math.pi * lattice.l * abs(n))


# values a block of grid rows holds at most, as cli._ROWS_AT_ONCE: its (rows, q, s)
# values
_GRID_BLOCK_VALUES = 1 << 16


def wb_eigenfunction_grid(idx: WBIndex, lam: int, lattice: LatticeSpec, g: int,
                          tol: float = 1e-12):
    """wb_eigenfunction on the uniform grid of `eigenfunction --grid g`, with exact
    phases, in blocks of p-rows.

    The grid is p = i sp/g for i < 2g, q = j sq/g for j < g and s = m/g for m < 2g,
    (sp, sq) = lattice.steps: two periods in p and s and one in q.  Returns an
    iterator that yields, for each i in turn, the complex array of shape (g, 2g) of
    the values at (p_i, q_j, s_m).  On the rectangular cover of width W the point
    is p = i/g, q = W j/g and s = m/g (the cover map of a square lattice takes
    i sqrt(2l)/g to i/g and shifts s by 0), so every phase is a g-th root of unity
    with an integer exponent (`_grid_rows`) and the second s-period is the first
    bit for bit.  A value differs from wb_eigenfunction's at its point by the float
    path's rounding: its phase error (`_point_phase_error`), the rounding of its
    seeds' arguments and of its sum, with a few eps of the grid's own.  A g that is
    not a positive integer raises ValueError before the iterator is returned; a row
    whose seeds are not finite raises its ValueError after the rows before it.
    """
    lam, _, scale = _hermite_seed(idx.n, idx.l, lam, lattice, tol)
    if not isinstance(g, (int, np.integer)) or isinstance(g, bool) or g < 1:
        raise ValueError(f"g must be a positive integer, not {g!r}")
    return _grid_rows(idx, lam, scale, int(g), tol)


def _root_of_unity(k: int, g: int) -> complex:
    """e^{2 pi i k/g} as i^quarter e^{i (pi/2) rest/g}, 4k = quarter g + rest, from the
    cosine and sine of an angle in [0, pi/4], both sqrt(1/2) at pi/4: +-1 and +-i
    are exact, and the root of g - k is the conjugate of the root of k."""
    quarter, rest = divmod(4 * k, g)
    angle = 0.5 * math.pi * min(rest, g - rest) / g
    cos, sin = (math.cos(angle), math.sin(angle)) if 2 * rest != g else (math.sqrt(0.5),) * 2
    return (1, 1j, -1, -1j)[quarter] * (complex(sin, cos) if 2 * rest > g else complex(cos, sin))


def _grid_rows(idx: WBIndex, lam: int, scale: float, g: int, tol: float):
    """The rows of wb_eigenfunction_grid, a block at a time.

    The term k of row i is the point u = i + k g of (1/g)Z, at
    x_u = u/g + off = (u W|n| + g (a W + sgn(n) b)) / (g W|n|), one rounding of a
    quotient of Python ints; so rows i and i + g share their seeds, and every row
    keeps the window rule, the u with |scale x_u| <= R (`_reach`), from one Hermite
    call.  The phase of the term at q = W j/g is e^{2 pi i n (k + off) q} = w^{r_k j},
    w = e^{2 pi i/g} and r_k = n W k + sgn(n) a W + b, and the factor e^{2 pi i n s}
    at s = m/g is w^{n m}; the exponents are reduced mod g in Python ints, exact
    for any n.  A row's q-sum is then the length-g DFT of its seeds summed by
    r_k mod g (the Zak transform; Auslander and Tolimieri, Bull. AMS 1, 1979;
    Janssen, Philips J. Res. 43, 1988): one bincount and one product with the g x g
    table of w^{(r j) mod g} for the whole grid.  The rows' values times the factor
    are made a block at a time.
    """
    n, width = idx.n, idx.l
    reach = _reach(lam, scale, 0.0, tol)
    roots = np.array([_root_of_unity(k, g) for k in range(g)])
    table = roots[np.multiply.outer(np.arange(g), np.arange(g)) % g]
    factor = roots[[n % g * m % g for m in range(g)]]
    step, shift = n * width % g, ((idx.a if n > 0 else -idx.a) * width + idx.b) % g
    # x_u = (u N + num) / (g N) with N = W|n|
    size, num = width * abs(n), g * (idx.a * width + (idx.b if n > 0 else -idx.b))
    us = range(math.ceil(g * (-reach - idx.offset)), math.floor(g * (reach - idx.offset)) + 1)
    xs = np.array([(u * size + num) / (g * size) for u in us], dtype=float)
    seeds = _psi(lam, scale * xs)
    # u = i0 + k0 g with 0 <= i0 < g: the term k0 of row i0 and k0 - 1 of row i0 + g
    ks, rows = np.divmod(np.arange(us.start, us.stop), g)
    residues = (step * ks + shift) % g
    cells = np.concatenate([rows * g + residues, (rows + g) * g + (residues - step) % g])
    folded = np.bincount(cells, np.concatenate([seeds, seeds]), 2 * g * g)
    bad = ~np.isfinite(seeds)
    stop = int(rows[bad].min()) if bad.any() else 2 * g
    values = folded.reshape(2 * g, g)[:stop] @ table
    block = max(1, _GRID_BLOCK_VALUES // (2 * g * g))
    for first in range(0, stop, block):
        out = np.empty((min(block, stop - first), g, 2 * g), dtype=complex)
        np.multiply(values[first:first + block, :, None], factor, out=out[:, :, :g])
        out[:, :, g:] = out[:, :, :g]
        yield from out
    if stop < 2 * g:  # _window raises: the row's seeds are not finite
        window = rows == stop
        _window(n, ks[window], idx.offset, xs[window], seeds[window],
                f"the Hermite seed of order {lam}")


def wb_eigenfunction(idx: WBIndex, lam: int, lattice: LatticeSpec, pt: PolarizedPoint,
                     tol: float = 1e-12) -> complex:
    """Eigenfunction of the sub-Laplacian family on the given lattice quotient.

    The transform's seed is the Hermite function psi_lam, rescaled to the
    lattice; square lattices are evaluated at the point carried onto their
    rectangular cover.
    """
    lam, cover, scale = _hermite_seed(idx.n, idx.l, lam, lattice, tol)
    if cover is not None:
        pt = apply_symplectic(cover, pt)
    window = _series_window(lam, scale, idx.n, pt, idx.offset, tol)
    return _series_value(idx.n, window, pt.q, pt.s)
