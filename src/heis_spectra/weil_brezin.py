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
take one product.  The seeds depend on p alone (Auslander and Tolimieri, Bull.
AMS 1, 1979; Janssen, Philips J. Res. 43, 1988), so a grid is
evaluated in blocks of p-rows of at most about 2^16 values (wb_eigenfunction_grid):
each row keeps its own window, and the rows of a block that share a window length
share one Hermite call, one exp of their (rows x q x k) phases and one pairwise
sum along k; the factor e^{2 pi i n s} is applied in real arithmetic.  Every value
equals the one-point series of wb_eigenfunction bit for bit, so grid files keep
their bytes.  Both one-point paths and the grid refuse, with ValueError, a p
on the cover that is not below 2^52 in magnitude (past it p + k is no longer
exact) and a value that is not finite.  All three also refuse a point whose
phases may round past tol, by the bound `_point_phase_error` on its p, q and s:
the one-point paths (wb_eigenfunction and invariants.eigenfunction_combination) at
their point, the grid once, at its largest |p|, |q| and |s| on the cover, and a
CLI grid once more, at p = 2, q = L and s = 2 (cli._phase_error).
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from collections import deque
from dataclasses import dataclass

import numpy as np

from .group import LatticeSpec, PolarizedPoint, apply_symplectic, scaling_map, symplectic_coords
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
    (|p| + 1 + reach) |q|), and at p = 2, q = L and s = 2 it is the bound of a
    grid of width L (cli._phase_error).
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
# values and each window length's (rows, q, k) phases
_GRID_BLOCK_VALUES = 1 << 16


def wb_eigenfunction_grid(idx: WBIndex, lam: int, lattice: LatticeSpec, ps, qs, ss,
                          tol: float = 1e-12):
    """wb_eigenfunction on the grid ps x qs x ss, in blocks of p-rows.

    Returns an iterator that yields, for each p of ps in turn, the complex array
    of shape (len(qs), len(ss)) of the values at (p, q, s).  A row carried onto
    the rectangular cover keeps one p, so its seeds are one window; the rows of a
    block that share a window length share one Hermite call, one exp of their
    phases and one sum, and every value equals wb_eigenfunction at its point bit
    for bit.  A grid whose phases may round past tol raises ValueError before the
    iterator is returned (`_check_phases` at its largest |p|, |q| and |s| on the
    cover); any other refused row raises its ValueError after the rows before it.
    """
    lam, cover, scale = _hermite_seed(idx.n, idx.l, lam, lattice, tol)
    ps = np.array([float(p) for p in ps])
    qs = np.array(qs, dtype=float).reshape(1, -1, 1)
    ss = np.array(ss, dtype=float).reshape(1, 1, -1)
    if not (qs.size and ss.size):
        raise ValueError("qs and ss must not be empty")
    # the bound grows with |p|, |q| and |s|, so it is largest at the corner of the
    # largest: of the p a row can take (a p not finite or not below 2^52 on the
    # cover is refused at its row), and of q and s, where one not finite on the
    # cover refuses every row
    with np.errstate(over="ignore", invalid="ignore"):
        taken = ps if cover is None else symplectic_coords(cover, ps, 0.0, 0.0)[0]
        corner = (np.abs(ps[np.abs(taken) < _MAX_P]).max(initial=0.0),
                  np.abs(qs).max(), np.abs(ss).max())
        if cover is not None:
            corner = symplectic_coords(cover, *corner)
    if all(map(math.isfinite, corner)):
        _check_phases(idx.n, *map(float, corner), _reach(lam, scale, 0.0, tol), tol)
    return _grid_rows(idx.n, lam, scale, cover, idx.offset, tol, iter(ps), qs, ss)


def _grid_windows(lam: int, scale: float, reach: float, off: float, p):
    """The seed windows of the grid rows p on the cover, one Hermite call per window
    length: a list of (rows, ks, seeds), rows an index array or, for one length, all
    rows, and the first row whose seeds are not finite, as (row, ks, xs, seeds), or
    None.  Row i keeps its own window, k from ceil(-R/scale - p_i - off) to
    floor(R/scale - p_i - off) as in `_series_window`."""
    start = np.ceil((-reach - p) - off)
    lengths = (np.floor((reach - p) - off) - start + 1).astype(int)
    by_length = dict.fromkeys(lengths.tolist())
    groups, refusal = [], None
    for length in by_length:
        rows = slice(None) if len(by_length) == 1 else np.flatnonzero(lengths == length)
        ks = start[rows, None] + np.arange(length)
        xs = (p[rows, None] + ks) + off
        seeds = _psi(lam, scale * xs)
        bad = ~np.isfinite(seeds).all(axis=1)
        if bad.any():
            i = int(bad.argmax())
            row = i if isinstance(rows, slice) else int(rows[i])
            if refusal is None or row < refusal[0]:
                refusal = row, ks[i], xs[i], seeds[i]
        groups.append((rows, ks, seeds))
    return groups, refusal


def _grid_values(turn: complex, off: float, q, factor, groups, shape):
    """The values, of the given (rows, q, s) shape, of grid rows on the cover from
    their windows (`_grid_windows`), q (rows or 1, q, 1) and the factor e^{2 pi i n s}:
    one exp of the phases and one sum over k along a contiguous last axis per
    window length, then the factor in real arithmetic.  Each array is laid out as
    that of one point (`_series_window`, `_series_value`) with more leading axes, so
    every float is the same."""
    total = np.empty(shape[:2], dtype=complex)
    for rows, ks, seeds in groups:
        phases = np.exp((q if len(q) == 1 else q[rows]) * (turn * (ks + off))[:, None, :])
        total[rows] = (seeds.astype(complex)[:, None, :] * phases).sum(axis=-1)
    # numpy's SIMD complex multiply fuses multiply-adds and can differ from the
    # scalar product in the last bit (8730 of 20000 random pairs on an X86_V3
    # build of numpy 2.4); these four real products and two sums match it
    fr, fi = factor.real, factor.imag
    tr, ti = total.real[..., None], total.imag[..., None]
    out = np.empty(shape, dtype=complex)
    np.multiply(fr, tr, out=out.real)
    out.real -= fi * ti
    np.multiply(fr, ti, out=out.imag)
    out.imag += fi * tr
    return out


def _grid_rows(n: int, lam: int, scale: float, cover, off: float, tol: float, ps, qs, ss):
    """The rows of wb_eigenfunction_grid, a block at a time."""
    reach = _reach(lam, scale, 0.0, tol)
    turn = 2j * math.pi * n
    # a row holds q x s values and at most q x (2 reach + 1) phases
    size = max(1, _GRID_BLOCK_VALUES // (qs.size * max(ss.size, math.floor(2 * reach) + 1)))
    flat = bool(np.isfinite(qs).all() and np.isfinite(ss).all())

    def block(p):
        """The rows of one block, then the refusal of its first refused row; its
        arrays are freed once its last row has been taken."""
        q, s = qs, ss
        if cover is None:
            finite = np.isfinite(p) & flat
        else:
            # the cover map has C = 0, so p' = Cq + Dp is the same at every q; a
            # coordinate that overflows on the way is refused below
            with np.errstate(over="ignore", invalid="ignore"):
                p, q, s = symplectic_coords(cover, p[:, None, None], q, s)
            p = p[:, 0, 0]
            finite = (np.isfinite(p) & np.isfinite(q).all(axis=(1, 2))
                      & np.isfinite(s).all(axis=(1, 2)))
        # a row's checks in the order of one point's: coordinates, p (`_reach`), seeds
        kept = finite & (np.abs(p) < _MAX_P)
        stop = p.size if kept.all() else int(kept.argmin())
        groups, refusal = _grid_windows(lam, scale, reach, off, p[:stop])
        if refusal is not None:  # the rows before it again, without it
            stop = refusal[0]
            groups = _grid_windows(lam, scale, reach, off, p[:stop])[0]
        if stop:
            with np.errstate(all="ignore"):  # a value that is not finite is refused below
                factor = turn * s[:stop]
                del s  # one (rows, q, s) array less at the block's peak
                np.exp(factor, out=factor)
                values = _grid_values(turn, off, q[:stop], factor, groups,
                                      (stop, qs.size, ss.size))
            bad = ~np.isfinite(values)
            row = int(bad.any(axis=(1, 2)).argmax()) if bad.any() else stop
            yield from values[:row]
            if row < stop:  # _finite raises at the first value that is not finite
                _finite(complex(values[row][bad[row]][0]))
        if refusal is not None:  # _window raises: the row's seeds are not finite
            _, ks, xs, seeds = refusal
            _window(n, ks, off, xs, seeds, f"the Hermite seed of order {lam}")
        if stop < p.size:
            if not finite[stop]:
                raise ValueError("coordinates must be finite")
            _reach(lam, scale, float(p[stop]), tol)

    while chunk := [float(p) for p in itertools.islice(ps, size)]:
        yield from block(np.array(chunk))


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
