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
every term with |scale x| <= sqrt(2 lam + 1) + sqrt(2 ln(10/tol)); past the turning
point its tail is Gaussian, so each dropped term is under tol/10 of sup|psi_lam|.

Every value at a float point is one series over (1/N)Z, N = L|n|, from one kernel
(`_zak_point`, `_terms`): the term m sits at x = p + m/N on the cover, with phase
e^{2 pi i (n s + sgn(n) q m/L)}, and m runs over c + dZ: d = N and c = aL + sgn(n) b
give one basis function (wb_eigenfunction, weil_brezin_eval), d = 1 every residue at
once, summed by m mod N (`_residue_sums`; invariants.sector_basis_values and
eigenfunction_combination).  The kernel reduces the point once, in Python ints from
`float.as_integer_ratio`: the term nearest x = 0 has its x = p + m/N as one rounding
of a quotient of integers, and the others x + u/e, so the seeds' arguments lose no
digits to |p|, and term u of the window has the phase e^{2 pi i (alpha + beta u)},
alpha and beta each one rounding of an exact rational in [0, 1).  A phase is then
within 2 pi eps (3 + 2|u|), about 2 pi eps (1 + window length), whatever p, q, s and
n are (the reduction of an argument by a long integer constant; Payne and Hanek,
SIGNUM Newsletter 18, 1983).  A basis function's value is then within
eps Sum_u [|psi_u| (2 pi (3 + 2|u|) + T) + 3 |psi'(y_u)| (|y_u| + |y_0|)] of the
exact series over its T window terms at y_u = scale x_u, plus the Hermite recurrence's
own rounding: a few eps max|f| near a seed centre.  A coordinate that is not finite, a
p on the cover that is not below 2^52 in magnitude, and a seed or a value that is not
finite raise ValueError.

The uniform grid of `eigenfunction --grid g` (wb_eigenfunction_grid) takes the same
exact phases a whole grid at a time.  On the cover its points are p = i/g,
q = L j/g and s = m/g, so every phase is a g-th root of unity with an integer
exponent, reduced mod g in Python ints for any n, and a row's q-sum is the
length-g DFT of its seeds summed by residue: the Zak transform (Auslander and
Tolimieri, Bull. AMS 1, 1979; Janssen, Philips J. Res. 43, 1988).  Its seeds'
arguments are each one rounding of a quotient of integers, its second s-period is
its first bit for bit, and it refuses only a seed that is not finite;
wb_eigenfunction is its float oracle.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .group import LatticeSpec, PolarizedPoint, standard_rect
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


def _basis_terms(idx: WBIndex) -> tuple[int, int]:
    """(c, N): the basis function of idx is the series over m in c + NZ, c = aL + sgn(n) b
    and N = L|n|, as k + off = m/N."""
    return idx.a * idx.l + (idx.b if idx.n > 0 else -idx.b), idx.l * abs(idx.n)


def schrodinger_act(beta: float, h: PolarizedPoint, g, x: float) -> complex:
    """(pi_beta(p,q,s) g)(x) = e^{2 pi i beta (s + q x)} g(x + p)."""
    if beta == 0:
        raise ValueError("beta must be nonzero")
    return np.exp(2j * math.pi * beta * (h.s + h.q * x)) * g(x + h.p)


# widest window of the generic path, in terms
_MAX_WINDOW = 100_000


@functools.lru_cache(maxsize=256)
def _radius(lam: int, tol: float) -> float:
    """R = sqrt(2 lam + 1) + sqrt(2 ln(10/tol)): past |scale x| = R each term is under
    tol/10 of sup|psi_lam|."""
    return math.sqrt(2 * lam + 1) + math.sqrt(2 * math.log(max(10 / tol, 1.0)))


@functools.lru_cache(maxsize=64)
def _root(l: int, bits: int) -> int:
    """floor(sqrt(2l) 2^bits), from math.isqrt."""
    return math.isqrt(2 * l << 2 * bits)


def _zak_point(n: int, lattice: LatticeSpec, c: int, d: int, pt, reach: float):
    """(x, e, alpha, beta, t mod e): the point reduced once for the series over m in
    c + dZ (d = 1 or N = L|n|) whose window keeps |x| <= reach.

    On the cover of width L the term m sits at x = p + m/N with the phase
    e^{2 pi i (n s + sgn(n) q m/L)}.  With p, q, s the quotients P/D of
    `float.as_integer_ratio`, x of the term t = round(-(p + c/N) N/d) nearest 0 is
    one rounding of a quotient of integers; the term u of the window,
    m = c + d (t + u), sits at x + u/e, e = N/d, with the phase
    e^{2 pi i (alpha + beta u)}, alpha = (n s + sgn(n) q (c + d t)/L) mod 1 and
    beta = (sgn(n) q d/L) mod 1 each one rounding of an exact rational.  A square
    lattice's cover map (p, q, s) -> (p/sqrt(2l), sqrt(2l) q, s) takes sqrt(2l) as
    floor(sqrt(2l) 2^B)/2^B (`_root`), B the multiple of 64 at least 64 bits past
    |n| (|q| + 1) (|p| + reach + 3), a bound on n q m/N over the window: so it moves
    a phase by under 2^-64 and x by under 2^-64 |p|/|n|.  A coordinate that is not
    finite, or a p on the cover not below 2^52 in magnitude, raises ValueError."""
    width = lattice.covering_width
    size = width * abs(n)
    try:  # + 0.0 makes an int or a numpy scalar a float, more cheaply than float()
        P, Dp = (pt.p + 0.0).as_integer_ratio()
        Q, Dq = (pt.q + 0.0).as_integer_ratio()
        S, Ds = (pt.s + 0.0).as_integer_ratio()
    except (OverflowError, ValueError):
        raise ValueError(f"coordinates must be finite, got ({pt.p!r}, {pt.q!r}, {pt.s!r})") \
            from None
    if lattice.kind == "scaled-square":
        bound = abs(n) * (abs(Q) // Dq + 1) * (abs(P) // Dp + math.ceil(reach) + 3)
        bits = 64 * (bound.bit_length() // 64 + 2)
        root = _root(lattice.l, bits)
        P, Dp = P * root, Dp * width << bits  # p sqrt(2l)/(2l)
        Q, Dq = Q * root, Dq << bits
    if not abs(P) < Dp << 52:
        raise ValueError(f"p = {pt.p!r} on the rectangular cover must be below 2^52 in "
                         f"magnitude")
    num, step = P * size + c * Dp, d * Dp  # (p + c/N) Dp N and the step of m, times Dp
    t = (step - 2 * num) // (2 * step)
    m, den = c + d * t, Dq * width
    if n < 0:
        Q = -Q
    whole = Ds * den
    alpha = (n * S * den + Q * m * Ds) % whole / whole
    e = size // d
    return (num + t * step) / (Dp * size), e, alpha, Q * d % den / den, t % e


def _terms(point, first: int, last: int, scale: float = 1.0):
    """(scale x, phases, factor): the seeds' arguments, times scale, of the terms
    u = first .. last of the window of point = `_zak_point(...)`, and their phases
    e^{2 pi i (alpha + beta u)} as e^{2 pi i beta u} times factor = e^{2 pi i alpha}.
    alpha and beta are within eps/2 and 2 pi is rounded once, so each phase times
    the factor is within 2 pi eps (3 + 2|u|) of the exact one, about
    2 pi eps (1 + window length), whatever p, q, s and n are."""
    x, e, alpha, beta, _ = point
    us = np.arange(first, last + 1)
    return (us * (scale / e) + scale * x, np.exp(us * (2j * math.pi * beta)),
            cmath.exp(2j * math.pi * alpha))


def _finite(value: complex) -> complex:
    if not cmath.isfinite(value):
        raise ValueError(f"the series is not finite ({value!r}): a term overflows")
    return value


def _check_seeds(xs, seeds, what: str) -> None:
    """A seed that is not finite raises ValueError, naming its argument."""
    bad = ~np.isfinite(seeds)
    if bad.any():
        raise ValueError(f"{what} is not finite at x = {float(xs[bad][0])!r}")


def _residue_sums(lam: int, scale: float, n: int, lattice: LatticeSpec, c: int, d: int, pt,
                  tol: float):
    """(sums, factor): the series of `_zak_point` over m in c + dZ, summed by
    (m - c)/d mod e, e = N/d, are sums times factor: for d = N the one basis function,
    for d = 1 and c = 0 the N series e^{2 pi i n s} Sum_{m = r mod N}
    psi_lam(scale (p + m/N)) e^{2 pi i n q m/N}, r = 0 .. N - 1.  The window keeps each
    term with |scale x| <= R (`_radius`), its seeds are one Hermite call, and its
    terms, contiguous in m, are laid from their first residue on rows of e and summed
    by column, in O(window + e) memory.  The caller checks that they are finite."""
    reach = _radius(lam, tol) / scale
    point = _zak_point(n, lattice, c, d, pt, reach)
    x, e, _, _, t = point
    first = math.ceil(e * (-reach - x))
    ys, phases, factor = _terms(point, first, math.floor(e * (reach - x)), scale)
    seeds = _psi(lam, ys)
    start = (t + first) % e
    folded = np.zeros(-(-(start + seeds.size) // e) * e, dtype=complex)
    np.multiply(seeds, phases, out=folded[start:start + seeds.size])
    return np.add.reduce(folded.reshape(-1, e)), factor


def weil_brezin_eval(idx: WBIndex, g, pt: PolarizedPoint, tol: float = 1e-12) -> complex:
    """Truncated evaluation of the series for a seed g of unknown decay.

    g is called on one float at a time.  The window u = -K .. K about the term nearest
    x = 0 (`_zak_point`) grows from K = 2 until both edge terms are at most tol/10 of
    the largest term seen; past _MAX_WINDOW terms it raises TruncationError.  A
    coordinate that is not finite, a p not below 2^52 in magnitude, and a seed or a
    value that is not finite raise ValueError, as in the Hermite paths.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    point = _zak_point(idx.n, standard_rect(idx.l), *_basis_terms(idx), pt, 0.0)
    seed = lambda u: complex(g(point[0] + u))
    K = 2
    terms = deque(seed(u) for u in range(-K, K + 1))
    peak = max(map(abs, terms))
    while abs(terms[0]) > 0.1 * tol * peak or abs(terms[-1]) > 0.1 * tol * peak:
        if 2 * K + 3 > _MAX_WINDOW:
            raise TruncationError("window exceeded %d terms without decay" % _MAX_WINDOW)
        K += 1
        terms.appendleft(seed(-K))
        terms.append(seed(K))
        peak = max(peak, abs(terms[0]), abs(terms[-1]))
    xs, phases, factor = _terms(point, -K, K)
    seeds = np.array(terms)
    _check_seeds(xs, seeds, "the seed")
    return _finite(complex(np.dot(seeds, phases)) * factor)


def _hermite_seed(n: int, width: int, lam: int, lattice: LatticeSpec, tol: float):
    """(lam, scale): the checked order and the scale of the seed psi_lam(scale x) on the
    rectangular cover."""
    if width != lattice.covering_width:
        raise ValueError(f"width {width} is not the covering width of {lattice}")
    lam = _check_order(lam)
    if not tol > 0:
        raise ValueError("tol must be positive")
    # psi_lam(scale x): scale is sqrt(2 pi |n|) on a rectangular lattice, and
    # 2 sqrt(pi l |n|) on a square one, read on its cover of width 2l
    if lattice.kind == "standard-rect":
        return lam, math.sqrt(2.0 * math.pi * abs(n))
    return lam, 2.0 * math.sqrt(math.pi * lattice.l * abs(n))


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
    bit for bit.  A value differs from wb_eigenfunction's at its point by the
    rounding of the point's coordinates, of the float path's phases and seeds'
    arguments and of its sum, with a few eps of the grid's own.  A g that is not a
    positive integer raises ValueError before the iterator is returned; a row whose
    seeds are not finite raises its ValueError after the rows before it.
    """
    lam, scale = _hermite_seed(idx.n, idx.l, lam, lattice, tol)
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
    keeps the window rule, the u with |scale x_u| <= R (`_radius`), from one Hermite
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
    reach = _radius(lam, tol) / scale
    roots = np.array([_root_of_unity(k, g) for k in range(g)])
    table = roots[np.multiply.outer(np.arange(g), np.arange(g)) % g]
    factor = roots[[n % g * m % g for m in range(g)]]
    # x_u = (u N + g c) / (g N): the basis function's terms m in c + NZ (`_basis_terms`)
    c, size = _basis_terms(idx)
    step, shift, num = n * width % g, (c if n > 0 else -c) % g, g * c
    us = range(math.ceil(g * (-reach - c / size)), math.floor(g * (reach - c / size)) + 1)
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
    if stop < 2 * g:  # the row's seeds are not finite
        window = rows == stop
        _check_seeds(xs[window], seeds[window], f"the Hermite seed of order {lam}")


def wb_eigenfunction(idx: WBIndex, lam: int, lattice: LatticeSpec, pt: PolarizedPoint,
                     tol: float = 1e-12) -> complex:
    """Eigenfunction of the sub-Laplacian family on the given lattice quotient.

    The transform's seed is the Hermite function psi_lam, rescaled to the
    lattice; square lattices are evaluated at the point carried onto their
    rectangular cover.  The value is the series of `_zak_point` over the terms
    m = aL + sgn(n) b mod N (`_residue_sums` with d = N).
    """
    lam, scale = _hermite_seed(idx.n, idx.l, lam, lattice, tol)
    sums, factor = _residue_sums(lam, scale, idx.n, lattice, *_basis_terms(idx), pt, tol)
    return _finite(complex(sums[0]) * factor)
