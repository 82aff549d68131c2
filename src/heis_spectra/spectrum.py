"""Dual lattices, torus characters, and the one counting core behind every
spectrum and count.

The spectrum of the operator family on a quotient splits into a torus sector
(characters of the abelianization, eigenvalues pi^2 (mu^2 + nu^2)) and an
oscillator sector (central frequency n != 0, eigenvalues
(pi |n| / 2)(2 lambda + 1 - alpha sgn n) with multiplicity the covering width
times |n| on a lattice, or the fixed-subspace dimension on a crystallographic
quotient).

Both sectors are keyed by integers.  An oscillator level (sgn, lambda) holds
the eigenvalues m * (pi/2) c, c = 2 lambda + 1 - alpha sgn, for m = 1..M; a
dual-lattice point (i, k) has the value pi^2 num / den with num = a i^2 + k^2.
Which eigenvalues lie <= t is decided against the same float expression the
lines carry, so a line's value is <= t exactly when it is counted.

The oscillator core counts a whole grid of samples t at once, by Dirichlet's
hyperbola split.  The pairs (m, lambda) with eigenvalue <= t lie under a
hyperbola; per sample, the levels lambda <= L = isqrt(t / pi) are counted level
by level (their tops M), and the levels above by rows m = 1, 2, ..., each row
holding the lambda in (L, Lambda(m)], so a sample costs about 4 sqrt(t / pi)
entries instead of t / pi levels.  Every multiplicity is affine in |n| on the
residue classes |n| mod 4 and depends on lambda only through lambda mod 4, so
it is tabulated once, and both parts reduce to the class sizes of each
(sample, sign, lambda mod 4, m mod 4): integers summed in int64, where the few
entries that could overflow (large tops, such as the lam = 0 level near
|alpha| = 1) are summed in Python ints.  The sizes times the table are taken
in float64 where a bound keeps them below 2^53, and in Python ints elsewhere.
The torus counts of a grid come from one array pass over its rows (i, kmax).

On a crystallographic quotient the rotation permutes the characters in orbits
of full size away from the origin, so torus multiplicities are point counts
divided by the index (tests/test_counting_core.py ranks the orbit projector).
enumerate_spectrum counts its (n, lambda) pairs with the same core before it makes
any line, and lists the lines as one sorted table of LINE records: the points of
_torus_rows grouped by num, and m = 1..M on every level with the multiplicities
of the class table.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .group import BieberbachSpec, LatticeSpec, PolarizedPoint
from .invariants import dim_phi_invariant, dim_psi_invariant


def torus_character(mu_nu: tuple[float, float], pt: PolarizedPoint) -> complex:
    """chi_{mu,nu}(p,q,s) = e^{2 pi i (mu p + nu q)}; kills the central direction."""
    mu, nu = mu_nu
    return complex(np.exp(2j * math.pi * (mu * pt.p + nu * pt.q)))


def dual_lattice(lattice: LatticeSpec) -> tuple[tuple[float, float], tuple[float, float]]:
    """Generators (mu, nu) of the dual of the projected (p,q) lattice: its steps
    are orthogonal, so the dual steps are their reciprocals."""
    sp, sq = lattice.steps
    return (1.0 / sp, 0.0), (0.0, 1.0 / sq)


def _torus_value(num: int, den: int) -> float:
    return math.pi**2 * num / den


def _oscillator_value(m: int, c: float) -> float:
    return (math.pi * m / 2.0) * c


def oscillator_eigenvalue(n: int, lam: int, alpha: float) -> float:
    if n == 0:
        raise ValueError("n must be nonzero")
    if not -1.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [-1, 1]")
    sgn = 1.0 if n > 0 else -1.0
    return _oscillator_value(abs(n), 2 * lam + 1 - alpha * sgn)


# enumerate_spectrum refuses a tmax with more (n, lambda) pairs and torus points
# than this: `spectrum --manifold nl --alpha 0.9999 --tmax 300` (1,910,769 lines
# of 56 bytes) peaks at 0.25 GB of resident memory in enumerate_spectrum, and so
# does the whole command in either format, which then holds the lines and one
# block's text, on a 2-core box with numpy 2.4.
# Near |alpha| = 1 the lam = 0 level holds about 2 tmax / (pi (1 - |alpha|)) lines.
MAX_SPECTRUM_LINES = 2_000_000
# _oscillator_sums refuses a grid with more entries than this, levels below the
# hyperbola split and rows above it, at most sum_s 4 sqrt(t_s / pi) + 4.  An
# entry costs about 0.5 us and, at the peak, 0.15 KB on a 2-core box with numpy
# 2.4, so the largest allowed count (one sample at t = 7.8e11) takes about 1 s
# and 0.3 GB.
MAX_COUNT_ENTRIES = 2 * 10**6
# _torus_top refuses a torus sector of more rows (i, kmax) than this before any
# is made; a spectrum lists them, at about 125 bytes a row.  The points grow as
# about (pi/4) rows^2, so a spectrum within MAX_SPECTRUM_LINES has fewer than
# 2000 rows; only a weyl count on a scaled square of large l gets near it.
MAX_TORUS_ROWS = 10**6
# _torus_points refuses a grid whose sectors have more rows i >= 0 than this in
# all; a row costs about 50 ns, so a pass at the limit takes about 1 s.  The pass
# holds _TORUS_ROWS_AT_ONCE rows at a time, about 40 bytes each.
MAX_TORUS_PASS = 2 * 10**7
_TORUS_ROWS_AT_ONCE = 1 << 16
# Below this every integer is a float, and a floor guess of a top is off by a
# step or two; tops and nums that may pass it are found in Python ints by
# _largest, since their float values repeat over runs of integers.
_FLOAT_INTS = 2.0**52
# Products bounded below this are taken in float64, where every term and partial
# sum is then an exact integer (the factor 2 below 2^53 covers the rounding of
# the bound itself); larger ones in Python ints.
_EXACT_FLOAT = 2.0**52


def _step(x: np.ndarray, fits) -> np.ndarray:
    """x stepped, in place, to the largest value at which fits holds, elementwise.

    fits(v, i) tells for the entries i (... for all) whether the values v pass;
    it holds up to some value and fails past it, and x starts within a few steps
    of that value.
    """
    up = fits(x + 1, ...).nonzero()[0]
    while up.size:
        x[up] += 1
        up = up[fits(x[up] + 1, up)]
    down = (~fits(x, ...)).nonzero()[0]
    while down.size:
        x[down] -= 1
        down = down[~fits(x[down], down)]
    return x


def _largest(fits, guess: int) -> int:
    """The largest integer n >= 0 at which fits(n) holds, in Python ints.

    fits holds at 0 and up to some n, and fails past it.  Steps of 1, 2, 4, ...
    from the guess bracket that n and halving closes the bracket, so a guess off
    by d costs about 2 log2(d) calls, also where a float expression of n repeats
    over long runs of integers.
    """
    top = high = guess
    step = 1
    while fits(high):
        top, high, step = high, high + step, 2 * step
    step = 1
    while not fits(top):
        high, top, step = top, max(top - step, 0), 2 * step
    while high - top > 1:
        mid = (top + high) // 2
        if fits(mid):
            top = mid
        else:
            high = mid
    return top


def _tops(c: np.ndarray, t: np.ndarray, wide: bool = False) -> np.ndarray:
    """The largest m >= 0 with _oscillator_value(m, c) <= t, elementwise (c > 0).

    That expression is monotone in m and 0 at m = 0.  The tops are int64, the
    floor guess stepped against it, or, when wide (tops that may pass
    _FLOAT_INTS), Python ints found by _largest.
    """
    guess = np.floor(t / (math.pi / 2.0 * c))
    if wide:
        return np.array([_largest(lambda m: _oscillator_value(m, cm) <= tm, int(g))
                         for cm, tm, g in zip(c.tolist(), t.tolist(), guess.tolist())],
                        dtype=object)
    return _step(guess.astype(np.int64), lambda m, i: _oscillator_value(m, c[i]) <= t[i])


# Entries kept by the caches of _class_table and _sectors: the program asks for a
# handful of manifolds, and of tuples of multiplicities (one per call site and
# manifold), so each table is built once.
_TABLES = 64


@functools.lru_cache(maxsize=_TABLES)
def _class_table(fs: tuple):
    """(f0, d, f0_float, d_float, f0_max, d_max) for the multiplicities fs, read-only.

    f0[bin, i] = f(sgn (j + 1), lam) and d = f(sgn (j + 5), lam) - f(sgn (j + 1), lam)
    at bin = 16 (sgn < 0) + 4 (lam mod 4) + j, for the classes j = 0..3 of m - 1
    mod 4 and f = fs[i], as Python ints, and in float64; so f(sgn m, lam) =
    f0 + d q at m = j + 1 + 4 q.  f0_max and d_max hold the largest |f0| and |d|
    of each bin over fs.
    """
    table = np.array([[[f(sgn * m, r) for f in fs] for m in range(1, 9)]
                      for sgn in (1, -1) for r in range(4)], dtype=object)
    f0 = table[:, :4].reshape(32, len(fs))
    d = (table[:, 4:] - table[:, :4]).reshape(32, len(fs))
    f0_float, d_float = f0.astype(float), d.astype(float)
    out = (f0, d, f0_float, d_float, np.abs(f0_float).max(axis=1), np.abs(d_float).max(axis=1))
    for array in out:
        array.flags.writeable = False
    return out


def _check_count(tgrid) -> None:
    """Refuse a grid whose split has more than MAX_COUNT_ENTRIES entries."""
    entries = float(np.sum(4.0 * np.sqrt(np.asarray(tgrid, dtype=float) / math.pi) + 4.0))
    if not entries <= MAX_COUNT_ENTRIES:
        raise ValueError(f"counting up to t = {max(tgrid)!r} would visit about {entries:.3g} "
                         f"(sample, level or row) entries, more than the limit of "
                         f"{MAX_COUNT_ENTRIES}")


def _level_terms(tops):
    """(kf, kd) per level and class j = 0..3 of m - 1 mod 4: kf = k, the number of
    m = j + 1, j + 5, ... <= top, and kd = k (k - 1) / 2, so the level's sum of f
    is sum_j kf f0 + kd d.  In the type of tops (int64 or Python ints)."""
    kf = (tops[:, None] + np.arange(3, -1, -1)) >> 2
    return kf, (kf * (kf - 1)) >> 1


def _row_terms(lam_top, split, q):
    """(kf, kd) per row m = j + 1 + 4 q and r = 0..3: kf is the number of lam = r
    mod 4 in (split, lam_top], and kd = kf q, so the row's sum of f is
    sum_r kf f0 + kd d.  In the type of lam_top."""
    r = np.arange(4)
    kf = ((lam_top[:, None] - r) >> 2) - ((split[:, None] - r) >> 2)
    return kf, kf * q[:, None]


def _split_level(t: np.ndarray) -> np.ndarray:
    """L = isqrt(t / pi) per sample: the levels lam <= L are counted one by one,
    and those above by rows.  Any L >= 0 gives the same counts; this one about
    balances the 2 (L + 2) levels against the about 2 t / (pi (L + 1)) rows."""
    return np.sqrt(t / math.pi).astype(np.int64)


def _split_parts(alpha: float, t: np.ndarray):
    """(parts, entries): the hyperbola split of each sample t[s] as parts
    (sample, keys, weight, terms, sources), the levels and the rows, and the
    number of entries per sample, at most 4 sqrt(t / pi) + 4.  Per entry: its
    sample; the keys 32 sample + bin of the four bins it adds to, bin =
    16 (sgn < 0) + 4 (lam mod 4) + (m - 1) mod 4; a float bound on the sum of its
    kf + kd; and terms(*sources), its (kf, kd) per key, with sources int64 or
    Python ints.

    Below the split, the levels lam = 0..L (_split_level) of both signs, with
    their tops, and level L + 1 with top 0.  Above it, per sign the rows
    m = 1..M, M the top of level L + 1, each with Lambda(m), the largest lam
    with _oscillator_value(m, (2 lam + 1) - alpha sgn) <= t.  That expression is
    monotone in lam and in m, so lam <= Lambda(m) exactly when m <= top(lam).
    """
    split = _split_level(t)
    # the levels lam = 0..L + 1 of both signs, sgn = 1 first
    sizes = 2 * split + 4
    sample, index = np.arange(t.size).repeat(sizes), _ranges(sizes)
    lam, neg = index >> 1, index & 1
    c, ts = (2 * lam + 1) - alpha * (1 - 2 * neg), t[sample]
    keys = (32 * sample + 16 * neg + 4 * (lam & 3))[:, None] + np.arange(4)
    parts = []
    if abs(alpha) == 1.0 or t.max() / (math.pi / 2.0 * (1.0 - abs(alpha))) >= _FLOAT_INTS:
        # at lam = 0, c = 0 holds no eigenvalue, and tops that may pass _FLOAT_INTS
        # are found in Python ints, as a part of their own; both get top 0 here
        aside = (c <= 0) | (ts >= _FLOAT_INTS * (math.pi / 2.0 * c))
        wide = aside & (c > 0)
        if wide.any():
            parts.append((sample[wide], keys[wide], np.full(wide.sum(), np.inf), _level_terms,
                          (_tops(c[wide], ts[wide], True),)))
        c, ts = np.where(aside, 1.0, c), np.where(aside, 0.0, ts)
    tops = _tops(c, ts)
    # the tops of level L + 1 are the row counts, and the rows count that level
    last = (sizes.cumsum()[:, None] - (2, 1)).ravel()
    rows = tops[last]
    tops[last] = 0
    size = tops / 4.0 + 1.0
    parts.append((sample, keys, size * (4.0 + 2.0 * size), _level_terms, (tops,)))
    owner, m = np.arange(2 * t.size).repeat(rows), _ranges(rows) + 1
    sample, neg, j, q = owner >> 1, owner & 1, (m - 1) & 3, (m - 1) >> 2
    shift, ts, L = alpha * (1 - 2 * neg), t[sample], split[sample]
    guess = np.floor((ts / (math.pi * m / 2.0) - 1.0 + shift) / 2.0).astype(np.int64)
    lam_top = _step(guess, lambda lam, i: _oscillator_value(m[i], (2 * lam + 1) - shift[i]) <= ts[i])
    keys = (32 * sample + 16 * neg + j)[:, None] + np.arange(0, 16, 4)
    parts.append((sample, keys, (lam_top - L + 4.0) * (q + 1.0), _row_terms, (lam_top, L, q)))
    return parts, sizes + rows[0::2] + rows[1::2]


def _oscillator_sums(fs, alpha: float, tgrid) -> list[list[int]]:
    """For each multiplicity f in fs, the sums of f(n, lam) over the pairs with
    oscillator eigenvalue in (0, t], one per t in tgrid.

    Contract on f: at fixed sign of n it is affine in |n| on each class of |n| mod 4
    and depends on lam only through lam mod 4.  Every multiplicity of the program
    is: w|n|, dim_phi_invariant, dim_psi_invariant and the parity of |n| + lam.  So
    f is tabulated once (`_class_table`, kept per tuple fs), and the sum at a
    sample is, over the 32 bins (sign, lam mod 4, m - 1 mod 4), F f0 + D d, where
    F and D sum the (kf, kd) of the entries of its hyperbola split
    (`_split_parts`).  F and D are summed in int64, except for the entries whose
    weight passes 2^62 over the sample's entry count, which are summed in Python
    ints, so no int64 sum overflows.  The products with the table are taken in
    float64 where F |f0| + D |d| stays below _EXACT_FLOAT, in Python ints
    elsewhere.  A grid past MAX_COUNT_ENTRIES raises ValueError before any
    counting.
    """
    _check_count(tgrid)
    if not -1.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [-1, 1]")
    t = np.asarray(tgrid, dtype=float)
    f0, d, f0_float, d_float, f0_max, d_max = _class_table(tuple(fs))
    parts, entries = _split_parts(alpha, t)
    F, D = np.zeros(32 * t.size, np.int64), np.zeros(32 * t.size, np.int64)
    wide_F, wide_D = np.zeros(32 * t.size, object), np.zeros(32 * t.size, object)
    exact = np.zeros(t.size, dtype=bool)
    for sample, keys, weight, terms, sources in parts:
        big = weight * entries[sample] >= 2.0**62
        if big.any():
            kf, kd = terms(*(source[big].astype(object) for source in sources))
            np.add.at(wide_F, keys[big].ravel(), kf.ravel())
            np.add.at(wide_D, keys[big].ravel(), kd.ravel())
            exact[sample[big]] = True
            keys, sources = keys[~big], [source[~big].astype(np.int64) for source in sources]
        kf, kd = terms(*sources)
        np.add.at(F, keys.ravel(), kf.ravel())
        np.add.at(D, keys.ravel(), kd.ravel())
    F, D = F.reshape(t.size, 32), D.reshape(t.size, 32)
    exact |= F @ f0_max + D @ d_max >= _EXACT_FLOAT
    totals = np.empty((t.size, len(fs)), dtype=object)
    fast = ~exact
    totals[fast] = (F[fast] @ f0_float + D[fast] @ d_float).astype(np.int64)
    wide_F, wide_D = wide_F.reshape(t.size, 32), wide_D.reshape(t.size, 32)
    for s in exact.nonzero()[0]:
        totals[s] = (F[s].astype(object) + wide_F[s]) @ f0 + (D[s].astype(object) + wide_D[s]) @ d
    return totals.T.tolist()


def _torus_top(lattice: LatticeSpec, t: float) -> tuple[int, int, int]:
    """(a, den, top): the point i g1 + k g2 of the dual lattice has the value
    _torus_value(a i^2 + k^2, den), and top is the largest num with value <= t.
    A sector with values past the largest float, or more than MAX_TORUS_ROWS
    rows, is refused."""
    # pi^2 (i^2 / P + k^2 / Q) with squared steps (P, Q), where P divides Q
    P, den = lattice.squared_steps
    a = den // P
    guess = t * den / math.pi**2
    if not guess < math.inf:
        raise ValueError(f"l is too large for the torus values up to t = {t!r}: "
                         f"pi^2 num / den passes the largest float")
    # the guess is off by about guess * 2^-52, and that same expression is
    # monotone in num and 0 at num = 0
    top = _largest(lambda num: _torus_value(num, den) <= t, int(guess))
    rows = 2 * math.isqrt(top // a) + 1
    if rows > MAX_TORUS_ROWS:
        raise ValueError(f"the torus sector up to t = {t!r} at l = {lattice.l} has "
                         f"{rows} rows of dual-lattice points, more than the "
                         f"limit of {MAX_TORUS_ROWS}")
    return a, den, top


def _torus_rows(lattice: LatticeSpec, t: float):
    """(a, den, rows): the points with value <= t are the (i, k) with |k| <= kmax,
    for (i, kmax) in rows (see _torus_top).  rows is an iterator, made one at a
    time; a sector past the limits is refused before it is returned."""
    a, den, top = _torus_top(lattice, t)
    imax = math.isqrt(top // a)
    return a, den, ((i, math.isqrt(top - a * i * i)) for i in range(-imax, imax + 1))


def _isqrt(x: np.ndarray) -> np.ndarray:
    """math.isqrt elementwise, for int64 x below _FLOAT_INTS: the float root is
    off by at most one, and is corrected against x."""
    r = np.sqrt(x).astype(np.int64)
    r -= r * r > x
    r += (r + 1) * (r + 1) <= x
    return r


def _torus_points(lattice: LatticeSpec, tgrid) -> list[int]:
    """The number of dual-lattice points with value <= t, the origin included, per
    t of the ascending grid.

    The sector of the largest t is refused first, as one sector by _torus_top.
    The tops of the samples whose guess t den / pi^2 lies below _FLOAT_INTS, a
    prefix of the grid, are then stepped as one array, and their points summed
    over the rows i >= 0, _TORUS_ROWS_AT_ONCE rows of all of them at a time,
    with kmax = isqrt(top - a i^2) in int64; the other samples take _torus_top
    and math.isqrt.  More than MAX_TORUS_PASS rows i >= 0 in all are refused
    before any row is made.
    """
    a, den, _ = _torus_top(lattice, tgrid[-1])
    t = np.asarray(tgrid, dtype=float)
    guess = t * den / math.pi**2
    k = int(np.searchsorted(guess, _FLOAT_INTS))
    small = t[:k]
    tops = _step(np.floor(guess[:k]).astype(np.int64),
                 lambda num, i: _torus_value(num, den) <= small[i])
    wide = [_torus_top(lattice, s)[2] for s in t[k:].tolist()]
    # a past every top leaves only the rows i = 0, whatever its value
    step = min(a, 2**62)
    sizes = _isqrt(tops // step) + 1
    wide_imax = [math.isqrt(top // a) for top in wide]
    ends, rows = sizes.cumsum(), int(sizes.sum())
    if rows + sum(wide_imax) + len(wide) > MAX_TORUS_PASS:
        raise ValueError(f"counting the torus sector up to t = {tgrid[-1]!r} at l = "
                         f"{lattice.l} would visit {rows + sum(wide_imax) + len(wide)} rows "
                         f"of dual-lattice points, more than the limit of {MAX_TORUS_PASS}")
    points = np.zeros(k, np.int64)
    for lo in range(0, rows, _TORUS_ROWS_AT_ONCE):
        row = np.arange(lo, min(lo + _TORUS_ROWS_AT_ONCE, rows))
        sample = ends.searchsorted(row, side="right")
        i = row - (ends - sizes)[sample]
        kmax = _isqrt(tops[sample] - step * i * i)
        np.add.at(points, sample, (2 * kmax + 1) * (2 - (i == 0)))
    return points.tolist() + [
        sum(2 * math.isqrt(top - a * i * i) + 1 for i in range(-imax, imax + 1))
        for top, imax in zip(wide, wide_imax)]


def _pair(n: int, lam: int) -> int:
    """The multiplicity 1 of every pair: its sums count the (n, lambda) pairs.  A
    module function, so _class_table keeps its one table."""
    return 1


@functools.lru_cache(maxsize=_TABLES)
def _sectors(manifold):
    """(f, lattice, orbits): f(n, lam) is the multiplicity of an oscillator
    eigenvalue on the manifold; its torus sector is that of the lattice, and
    orbits(points) the number of rotation orbits among that many nonzero points.
    Kept per manifold, so f is the same function, and its class table is reused."""
    if isinstance(manifold, LatticeSpec):
        width = manifold.covering_width
        return (lambda n, lam: width * abs(n)), manifold, (lambda points: points)
    dim = dim_phi_invariant if manifold.kind == "gamma-pi" else dim_psi_invariant
    index = manifold.index
    return ((lambda n, lam: dim(n, lam, manifold.l)), manifold.base_lattice,
            (lambda points: points // index))


LINE = np.dtype([("value", "f8"), ("multiplicity", "i8"), ("kind", "i8"), ("n", "i8"),
                 ("lam", "i8"), ("mu", "f8"), ("nu", "f8")])


def _ranges(sizes: np.ndarray) -> np.ndarray:
    """0, 1, ..., size - 1 for each of sizes, concatenated."""
    return np.arange(sizes.sum()) - (sizes.cumsum() - sizes).repeat(sizes)


def _torus_lines(lattice: LatticeSpec, orbits, a: int, den: int, rows: list) -> np.ndarray:
    """One line per num = a i^2 + k^2 of the points of rows (see _torus_rows), the
    origin's first.  Every num is at most the top of the i = 0 row, whose
    2 isqrt(top) + 1 points were counted, so num < (MAX_SPECTRUM_LINES / 2)^2."""
    i, kmax = (np.array(column, dtype=np.int64) for column in zip(*rows))
    size = 2 * kmax + 1
    k = _ranges(size) - np.repeat(kmax, size)
    nums = np.repeat([a * row * row for row in i.tolist()], size) + k * k
    nums, first, points = np.unique(nums, return_index=True, return_counts=True)
    mult = orbits(points)
    mult[0] = 1  # the origin
    (g1, _), (_, g2) = dual_lattice(lattice)
    lines = np.zeros(nums.size, dtype=LINE)
    lines["value"], lines["multiplicity"] = _torus_value(nums, den), mult
    lines["mu"], lines["nu"] = np.repeat(i, size)[first] * g1, k[first] * g2
    return lines


def _oscillator_lines(f, alpha: float, tmax: float) -> np.ndarray:
    """The lines m = 1..M of every level (sgn, lam) with an eigenvalue <= tmax, M its
    top, whose multiplicity f(sgn m, lam) = f0 + d (m - 1) // 4 of the class table is
    not 0.  c = 2 lam + 1 - alpha sgn >= 2 lam, so no level at or past tmax / pi + 1
    has one, and c <= 0 only at the |alpha| = 1 kernel, which is not counted."""
    index = np.arange(2 * (int(tmax / math.pi) + 2))
    lam, sgn = index // 2, 1 - 2 * (index % 2)
    c = (2 * lam + 1) - alpha * sgn
    keep = c > 0
    sgn, lam, c = sgn[keep], lam[keep], c[keep]
    tops = _tops(c, np.full(c.shape, tmax))
    f0, d = _class_table((f,))[:2]
    if np.abs(f0).max() + np.abs(d).max() * (int(tops.max()) // 4) >= 2**63:
        raise ValueError(f"the spectrum up to tmax = {tmax!r} has multiplicities past "
                         f"2^63, more than its integer columns hold")
    f0, d = f0[:, 0].astype(np.int64), d[:, 0].astype(np.int64)
    level, m = np.repeat(np.arange(tops.size), tops), _ranges(tops) + 1
    bins = (16 * (sgn < 0) + 4 * (lam % 4))[level] + (m - 1) % 4
    mult = f0[bins] + d[bins] * ((m - 1) // 4)
    keep = mult > 0
    level, m = level[keep], m[keep]
    lines = np.zeros(m.size, dtype=LINE)
    lines["value"], lines["multiplicity"] = _oscillator_value(m, c[level]), mult[keep]
    lines["kind"], lines["n"], lines["lam"] = 1, sgn[level] * m, lam[level]
    return lines


def _fewest_pairs(tmax: float) -> int:
    """2 (K - 1), K = floor(tmax / pi): pairs in (0, tmax] that need no counting.  Each
    sign has one at m = 1, of value at most pi (K - 1) <= tmax - pi, on K - 1 levels:
    lam = 0..K - 2, or lam = 1..K - 1 where lam = 0 is the |alpha| = 1 kernel."""
    return 2 * (int(tmax / math.pi) - 1)


def _at_least(count: int) -> str:
    """A line count as a refusal writes it: in full up to 2^53, and past it in e form
    to three significant digits, rounded down, so that "at least" stays true."""
    if count <= 2**53:
        return str(count)
    digits = str(count)
    return f"{digits[0]}.{digits[1:3]}e+{len(digits) - 1:02d}"


def enumerate_spectrum(manifold: LatticeSpec | BieberbachSpec, alpha: float,
                       tmax: float) -> np.ndarray:
    """All spectral lines with value <= tmax on a lattice or crystallographic
    quotient, one LINE record each, sorted by (value, kind, mu, nu, n, lam).

    Torus lines (kind 0, n = lam = 0) group the dual-lattice points of one value;
    their multiplicity is the number of rotation orbits (the point count on a
    lattice), the zero line, always first, has multiplicity 1, and (mu, nu) is the
    group's first point in the order of (i, k).  Oscillator lines (kind 1, mu = nu
    = 0.0) are kept per (n, lambda); zero oscillator values (the alpha = +-1
    kernels) and zero multiplicities are left out.  More than MAX_SPECTRUM_LINES
    (n, lambda) pairs and torus points raise ValueError before any line is made,
    a multiplicity past int64 after.
    """
    if not 0 < tmax < math.inf:
        raise ValueError("tmax must be positive and finite")
    if not -1.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [-1, 1]")
    f, lattice, orbits = _sectors(manifold)
    count = _fewest_pairs(tmax)
    if count <= MAX_SPECTRUM_LINES:  # then the split has at most about 4000 entries
        count = _oscillator_sums([_pair], alpha, [tmax])[0][0]
    if count <= MAX_SPECTRUM_LINES:
        a, den, rows = _torus_rows(lattice, tmax)
        rows = list(rows)
        count += sum(2 * kmax + 1 for _, kmax in rows)
    if count > MAX_SPECTRUM_LINES:
        raise ValueError(f"the spectrum up to tmax = {tmax!r} has at least {_at_least(count)} "
                         f"lines (oscillator pairs and torus points), more than the limit of "
                         f"{MAX_SPECTRUM_LINES}")
    lines = np.concatenate([_torus_lines(lattice, orbits, a, den, rows),
                            _oscillator_lines(f, alpha, tmax)])
    order = np.lexsort([lines[key] for key in ("lam", "n", "nu", "mu", "kind", "value")])
    # one field at a time, so the sort holds one column more than the table, not a
    # second table
    for name in LINE.names:
        lines[name] = lines[name][order]
    return lines
