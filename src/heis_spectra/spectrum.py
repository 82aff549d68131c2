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
Which eigenvalues lie <= t is decided once per level and sample (M) and once
per sample (the largest num), against the same float expression the lines
carry, so a line's value is <= t exactly when it is counted.

The oscillator core works on a whole grid of samples t at once: a chunk of
levels gives a (samples x levels) integer matrix of tops M.  Every
multiplicity is affine in |n| on the residue classes |n| mod 4 and depends on
lambda only through lambda mod 4, so it is tabulated once and the sums over a
chunk are matrix products of the class sizes, the class of each level and the
table.  Each
level's terms are bounded before the products are taken in float64, which
is exact below 2^53; the levels past that (the lambda = 0 level near
|alpha| = 1, with counts of 1e29 and more) are summed in Python ints, and
tops past 2^62 are stepped in Python ints too.  Chunks hold at most
_CHUNK_ENTRIES entries, so memory stays bounded at any t.

On a crystallographic quotient the rotation permutes the characters in orbits
of full size away from the origin, so torus multiplicities are point counts
divided by the index (tests/test_counting_core.py ranks the orbit projector).
enumerate_spectrum lists the lines as one sorted table of LINE records: the
points of _torus_rows grouped by num, and m = 1..M on each level of _level_tops
with the multiplicities of the class table.
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
    sgn = 1.0 if n > 0 else -1.0
    return _oscillator_value(abs(n), 2 * lam + 1 - alpha * sgn)


# enumerate_spectrum refuses a tmax with more (n, lambda) pairs and torus points
# than this: `spectrum --manifold nl --alpha 0.9999 --tmax 300` (1,910,769 lines
# of 56 bytes) peaks at 0.27 GB of resident memory in enumerate_spectrum, and at
# 0.46 GB (CSV) or 0.92 GB (JSON) with its text, on a 2-core box with numpy 2.4.
# Near |alpha| = 1 the lam = 0 level holds about 2 tmax / (pi (1 - |alpha|)) lines.
MAX_SPECTRUM_LINES = 2_000_000
# _oscillator_sums refuses a grid that would visit more (sample, level) entries
# than this, about sum_s 2 (floor(t_s / pi) + 2): an entry costs about 1e-7 s on
# a 2-core box with numpy 2.4, so the largest allowed count (one sample at
# t = 1.5e8) takes about 10 s.
MAX_COUNT_ENTRIES = 10**8
# _torus_rows refuses a torus sector of more rows (i, kmax) than this before it
# makes any: the rows come one at a time, about 0.5 us each, so a sector at the
# limit takes about 0.5 s on a 2-core box, once per weyl sample; a spectrum lists
# them, at about 125 bytes a row.  The points
# grow as about (pi/4) rows^2, so a spectrum within MAX_SPECTRUM_LINES has fewer
# than 2000 rows; only a weyl count on a scaled square of large l gets near it.
MAX_TORUS_ROWS = 10**6
# Levels are processed in chunks of about this many (sample, level) entries: a
# chunk's temporaries take 128 KB each at any t and stay in cache (chunks of
# 2^16 entries ran the benchmark's weyl commands about 40% slower).
_CHUNK_ENTRIES = 1 << 14
# Tops that may pass this are kept as Python ints.
_WIDE_TOP = 2.0**62
# Class sums bounded below this are taken in float64, where every term and
# partial sum is then an exact integer; larger ones, such as the lam = 0 level
# near |alpha| = 1, in Python ints.
_EXACT_FLOAT = 2.0**53


def _tops(c: np.ndarray, t: np.ndarray, wide: bool) -> np.ndarray:
    """tops[s, k]: the largest m >= 0 with _oscillator_value(m, c[k]) <= t[s].

    The floor guess is stepped against that same expression, which is monotone
    in m and 0 at m = 0.  Entries are int64, or Python ints when wide (tops that
    may pass _WIDE_TOP).
    """
    guess = np.floor(t[:, None] / (math.pi / 2.0 * c))
    top = np.frompyfunc(int, 1, 1)(guess) if wide else guess.astype(np.int64)
    rows, cols = np.nonzero(_oscillator_value(top + 1, c) <= t[:, None])
    while rows.size:
        top[rows, cols] += 1
        up = _oscillator_value(top[rows, cols] + 1, c[cols]) <= t[rows]
        rows, cols = rows[up], cols[up]
    rows, cols = np.nonzero(_oscillator_value(top, c) > t[:, None])
    while rows.size:
        top[rows, cols] -= 1
        down = _oscillator_value(top[rows, cols], c[cols]) > t[rows]
        rows, cols = rows[down], cols[down]
    return top


def _level_tops(alpha: float, tgrid, chunk: int = _CHUNK_ENTRIES):
    """Yield (sgn, lam, c, rows, tops) over the oscillator levels, a chunk at a time.

    The levels run through lam = 0, 1, ... with both signs each, so c grows from
    chunk to chunk.  sgn and lam are int64 arrays over the levels of the chunk,
    c = 2 lam + 1 - alpha sgn, rows are the indices of the samples at which some
    level of the chunk has an eigenvalue, and tops[i, k] is the largest m with
    _oscillator_value(m, c[k]) <= tgrid[rows[i]].  A chunk holds about chunk
    entries: the fewer samples reach its levels, the more levels it takes.  Every level with an eigenvalue
    <= max(tgrid) is included, and a few past it with tops 0.  Levels whose tops
    may pass _WIDE_TOP (c near 0, at lam = 0 for |alpha| near 1) come in a chunk
    of their own, with Python ints.  c <= 0 only at lam = 0 for |alpha| = 1: that
    kernel is not counted.
    """
    if not -1.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [-1, 1]")
    t = np.asarray(tgrid, dtype=float)
    tmax = float(t.max())
    # c >= 2 lam, so no level at or past tmax / pi + 1 has an eigenvalue <= tmax
    count = 2 * (int(tmax / math.pi) + 2)
    lo = 0
    while lo < count:
        # size the chunk by the samples that can reach its first level, pi lam
        active = max(1, int(np.count_nonzero(t >= math.pi * (lo // 2 - 1))))
        index = np.arange(lo, min(lo + max(2, chunk // active), count))
        lo = int(index[-1]) + 1
        lam, sgn = index // 2, 1 - 2 * (index % 2)
        c = (2 * lam + 1) - alpha * sgn
        keep = c > 0
        sgn, lam, c = sgn[keep], lam[keep], c[keep]
        cmin = c.min()
        rows = np.flatnonzero(_oscillator_value(1, cmin) <= t)
        if not rows.size:
            return
        if tmax / (math.pi / 2.0 * cmin) >= _WIDE_TOP:
            wide = tmax / (math.pi / 2.0 * c) >= _WIDE_TOP
            yield sgn[wide], lam[wide], c[wide], rows, _tops(c[wide], t[rows], True)
            sgn, lam, c = sgn[~wide], lam[~wide], c[~wide]
        yield sgn, lam, c, rows, _tops(c, t[rows], False)


# Entries kept by the caches of _class_table and _sectors: the program asks for a
# handful of manifolds, and of tuples of multiplicities (one per call site and
# manifold), so each table is built once.
_TABLES = 64


@functools.lru_cache(maxsize=_TABLES)
def _class_table(fs: tuple):
    """(f0, d, f0_float, d_float, size, slope) for the multiplicities fs, read-only.

    f0[code, j - 1, i] = f(sgn j, lam) and d = f(sgn (j + 4), lam) - f(sgn j, lam)
    for the level classes code = 4 (sgn < 0) + lam mod 4, the classes j = 1..4 of
    m mod 4 and f = fs[i], as Python ints, and in float64.  A class holds at most
    kmax terms, each at most |f0| + |d| (kmax - 1); size and slope bound these per
    code, the factors 2 covering the rounding of the bound itself.
    """
    table = np.array([[[f(sgn * m, r) for f in fs] for m in range(1, 9)]
                      for sgn in (1, -1) for r in range(4)], dtype=object)
    f0, d = table[:, :4], table[:, 4:] - table[:, :4]
    f0_float, d_float = f0.astype(float), d.astype(float)
    size = 2.0 * np.abs(f0_float).sum(axis=1).max(axis=1)
    slope = 2.0 * np.abs(d_float).sum(axis=1).max(axis=1) + 2.0
    out = (f0, d, f0_float, d_float, size, slope)
    for array in out:
        array.flags.writeable = False
    return out


def _class_sums(tops, classes, f0, d):
    """(samples x fs): over the levels of tops, the sums of k f0 + d k(k-1)/2 over
    the classes j = 1..4 of m mod 4, where k is the number of terms j, j + 4, ...
    <= top.  classes[k, code] is 1 where level k has that code, so the class sizes
    are first summed per code.  The integer arithmetic is in the type of tops
    (int64 or Python ints), the products in that of classes, f0 and d."""
    sums = 0
    for j in range(4):
        k = (tops + (3 - j)) >> 2
        sums = sums + (k @ classes) @ f0[:, j] + (((k * (k - 1)) >> 1) @ classes) @ d[:, j]
    return sums


def _oscillator_sums(fs, alpha: float, tgrid, chunk: int = _CHUNK_ENTRIES,
                     lattice: LatticeSpec | None = None) -> list[list[int]]:
    """For each multiplicity f in fs, the sums of f(n, lam) over the pairs with
    oscillator eigenvalue in (0, t], one per t in tgrid.

    Contract on f: at fixed sign of n it is affine in |n| on each class of |n| mod 4
    and depends on lam only through lam mod 4.  Every multiplicity of the program
    is: w|n|, dim_phi_invariant, dim_psi_invariant and the parity of |n| + lam.  So
    f is tabulated once, at sgn m for m = 1..8 and lam mod 4, and a level's sum is
    a closed form per class of m mod 4; over a chunk of levels these are products
    of the (samples x levels) class sizes, the (levels x 8) indicator of each
    level's sign and lam mod 4, and the table.  Each level's terms are bounded
    first: the levels whose sums could pass _EXACT_FLOAT together are summed in
    Python ints, the others in float64.  The table is kept per tuple fs
    (`_class_table`), so a caller that passes the same functions again reuses it.
    A grid past MAX_COUNT_ENTRIES raises ValueError before any counting, and then,
    for a caller that counts the torus sector of lattice too, a sector past the
    limits of `_torus_rows` at the largest t.
    """
    entries = sum(2.0 * (t // math.pi + 2) for t in tgrid)
    if not entries <= MAX_COUNT_ENTRIES:
        raise ValueError(f"counting up to t = {max(tgrid)!r} would visit about {entries:.3g} "
                         f"(sample, level) entries, more than the limit of {MAX_COUNT_ENTRIES}")
    if lattice is not None:
        _torus_rows(lattice, max(tgrid))
    f0, d, f0_float, d_float, size, slope = _class_table(tuple(fs))
    totals = [[0] * len(tgrid) for _ in fs]
    for sgn, lam, _, rows, tops in _level_tops(alpha, tgrid, chunk):
        code = 4 * (sgn < 0) + lam % 4
        kmax = np.asarray(tops.max(axis=0), dtype=float) / 4.0 + 1.0
        bound = kmax * size[code] + kmax * kmax * slope[code] / 2.0
        classes = (code[:, None] == np.arange(8)).astype(float)
        parts, fast = [], slice(None)
        if bound.sum() >= _EXACT_FLOAT:
            # take out the fewest levels, largest bounds first, that leave the rest below
            order = np.argsort(bound)[::-1]
            exact = order[np.cumsum(bound[order][::-1])[::-1] >= _EXACT_FLOAT]
            fast = np.setdiff1d(order, exact)
            parts.append(_class_sums(tops[:, exact].astype(object),
                                     classes[exact].astype(int).astype(object), f0, d))
        parts.append(_class_sums(tops[:, fast], classes[fast], f0_float, d_float).astype(np.int64))
        for part in parts:
            for total, column in zip(totals, part.T.tolist()):
                for i, v in zip(rows.tolist(), column):
                    total[i] += v
    return totals


def _torus_rows(lattice: LatticeSpec, t: float):
    """(a, den, rows): the point i g1 + k g2 of the dual lattice has the value
    _torus_value(a i^2 + k^2, den), and those with value <= t are the (i, k) with
    |k| <= kmax, for (i, kmax) in rows.  rows is an iterator, made one at a time; a
    sector past the limits is refused before it is returned."""
    # pi^2 (i^2 / P + k^2 / Q) with squared steps (P, Q), where P divides Q
    P, den = lattice.squared_steps
    a = den // P
    guess = t * den / math.pi**2
    if not guess < math.inf:
        raise ValueError(f"l is too large for the torus values up to t = {t!r}: "
                         f"pi^2 num / den passes the largest float")
    # top, the largest num with _torus_value(num, den) <= t: the guess is off by
    # about guess * 2^-52, so it is bracketed in doubling steps against that same
    # expression, which is monotone in num and 0 at num = 0, then bisected
    top = high = int(guess)
    step = 1
    while _torus_value(high, den) <= t:
        top, high, step = high, high + step, 2 * step
    step = 1
    while _torus_value(top, den) > t:
        high, top, step = top, max(top - step, 0), 2 * step
    while high - top > 1:
        mid = (top + high) // 2
        if _torus_value(mid, den) <= t:
            top = mid
        else:
            high = mid
    imax = math.isqrt(top // a)
    if 2 * imax + 1 > MAX_TORUS_ROWS:
        raise ValueError(f"the torus sector up to t = {t!r} at l = {lattice.l} has "
                         f"{2 * imax + 1} rows of dual-lattice points, more than the "
                         f"limit of {MAX_TORUS_ROWS}")
    return a, den, ((i, math.isqrt(top - a * i * i)) for i in range(-imax, imax + 1))


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


def _torus_points(lattice: LatticeSpec, t: float) -> int:
    """The number of dual-lattice points with value <= t, the origin included."""
    return sum(2 * kmax + 1 for _, kmax in _torus_rows(lattice, t)[2])


LINE = np.dtype([("value", "f8"), ("multiplicity", "i8"), ("kind", "i8"), ("n", "i8"),
                 ("lam", "i8"), ("mu", "f8"), ("nu", "f8")])


def _ranges(sizes: np.ndarray) -> np.ndarray:
    """0, 1, ..., size - 1 for each of sizes, concatenated."""
    return np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)


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


def _oscillator_lines(f, tmax: float, sgn, lam, c, _, tops) -> np.ndarray:
    """The lines m = 1..tops[0] of a chunk of _level_tops whose multiplicity
    f(sgn m, lam) = f0 + d (m - 1) // 4 of the class table is not 0."""
    f0, d = _class_table((f,))[:2]
    if np.abs(f0).max() + np.abs(d).max() * (int(tops.max()) // 4) >= 2**63:
        raise ValueError(f"the spectrum up to tmax = {tmax!r} has multiplicities past "
                         f"2^63, more than its integer columns hold")
    f0, d = f0[..., 0].astype(np.int64), d[..., 0].astype(np.int64)
    level, m = np.repeat(np.arange(tops.size), tops[0]), _ranges(tops[0]) + 1
    code, j = (4 * (sgn < 0) + lam % 4)[level], (m - 1) % 4
    mult = f0[code, j] + d[code, j] * ((m - 1) // 4)
    keep = mult > 0
    level, m = level[keep], m[keep]
    lines = np.zeros(m.size, dtype=LINE)
    lines["value"], lines["multiplicity"] = _oscillator_value(m, c[level]), mult[keep]
    lines["kind"], lines["n"], lines["lam"] = 1, sgn[level] * m, lam[level]
    return lines


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
    lines raise ValueError before any is made, a multiplicity past int64 after.
    """
    if not 0 < tmax < math.inf:
        raise ValueError("tmax must be positive and finite")
    if not -1.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [-1, 1]")
    f, lattice, orbits = _sectors(manifold)
    # count the (n, lambda) pairs and torus points before any line is made; each
    # lam below tmax / pi - 1 has a pair of each sign, and a lam = 0 level about
    # tmax / ((pi/2) c), so past _WIDE_TOP that estimate stands for the count
    estimate = 2 * (tmax / math.pi - 1) + sum(tmax / (math.pi / 2.0 * c)
                                              for c in (1 - alpha, 1 + alpha) if c > 0)
    levels, count = [], 0
    if estimate < _WIDE_TOP:
        for level in _level_tops(alpha, [tmax]):
            levels.append(level)
            count += sum(level[4][0].tolist())
            if count > MAX_SPECTRUM_LINES:
                break
        else:
            a, den, rows = _torus_rows(lattice, tmax)
            rows = list(rows)
            count += sum(2 * kmax + 1 for _, kmax in rows)
    if estimate >= _WIDE_TOP or count > MAX_SPECTRUM_LINES:
        found = f"at least {count}" if count else f"more than {_WIDE_TOP:.2g}"
        raise ValueError(f"the spectrum up to tmax = {tmax!r} has {found} lines (oscillator "
                         f"pairs and torus points), more than the limit of {MAX_SPECTRUM_LINES}")
    lines = np.concatenate([_torus_lines(lattice, orbits, a, den, rows),
                            *(_oscillator_lines(f, tmax, *level) for level in levels)])
    return lines[np.lexsort([lines[key] for key in ("lam", "n", "nu", "mu", "kind", "value")])]
