"""The series windows against scalar window loops.

`window_loop` sums the window rule's terms one psi_lam seed at a time; a basis
function must give its floats exactly, compared with ==.  The grid takes its
phases as exact roots of unity, so it is held to the float series within a
stated bound of that series' rounding (`oracle_bound`), and to a 50-digit
series where the float phases lose digits.  `reference_eval` is the per-seed loop that the windows
replaced, on the unnormalised seeds F_lam = H_lam e^{-y^2/2} with an absolute
tail bound.  The seeds are now psi_lam = F_lam / sqrt(2^lam lam! sqrt(pi)) and
tol is relative to sup|psi_lam|, so a basis function must equal that loop's
value times 1/sqrt(2^lam lam! sqrt(pi)) within 2e-12 sup|psi_lam|.  An invariant
combination is one series over all N residues of the sector; it is compared with
the per-(a, b) sum of reference series within a bound, and its invariance under
the generator is checked at N up to 128.  Up to lam = 2000 and |n| = 50 both are
compared with the same series on a window 20 rows wider.
"""

import functools
import itertools
import math
import tracemalloc
import warnings
from unittest import mock

import mpmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heis_spectra import weil_brezin
from heis_spectra.group import (
    PolarizedPoint,
    apply_symplectic,
    gamma_pi,
    gamma_pi_half,
    motion_apply,
    scaled_square,
    scaling_map,
    standard_rect,
)
from heis_spectra.hermite import hermite_function, hermite_poly
from heis_spectra.invariants import (
    CoefficientVector,
    _sector_index,
    eigenfunction_combination,
    phi_constraint_solve,
    psi_constraint_solve,
    sector_basis_values,
)
from heis_spectra.weil_brezin import (
    TruncationError,
    WBIndex,
    schrodinger_act,
    wb_eigenfunction,
    wb_eigenfunction_grid,
    weil_brezin_eval,
)

_MAX_WINDOW = 100_000


def reference_eval(idx, g, pt, tol=1e-12):
    """The scalar window loop: grow K until both edge terms are under tol/10."""
    n = idx.n
    off = idx.offset
    thr = 0.1 * tol
    cache = {}

    def seed(k):
        if k not in cache:
            cache[k] = complex(g(pt.p + k + off))
        return cache[k]

    k0 = -round(pt.p + off)
    K = 2
    stall = 0
    prev = abs(seed(k0 - K)) + abs(seed(k0 + K))
    while abs(seed(k0 - K)) >= thr or abs(seed(k0 + K)) >= thr:
        K += 1
        if 2 * K + 1 > _MAX_WINDOW:
            raise TruncationError("window exceeded %d terms without decay" % _MAX_WINDOW)
        cur = abs(seed(k0 - K)) + abs(seed(k0 + K))
        if cur >= prev:
            stall += 1
            if stall > 60:
                raise TruncationError("series terms are not shrinking; seed lacks decay")
        else:
            stall = 0
        prev = cur

    ks = np.arange(k0 - K, k0 + K + 1)
    vals = np.array([seed(int(k)) for k in ks], dtype=complex)
    phases = np.exp(2j * math.pi * n * (ks + off) * pt.q)
    total = np.sum(vals * phases)
    return complex(np.exp(2j * math.pi * n * pt.s) * total)


def unnormalised_seed(lam, scale):
    """x -> F_lam(scale x) = H_lam(y) e^{-y^2/2}, the seed before normalisation."""
    return lambda x: hermite_poly(lam, scale * x) * math.exp(-0.5 * (scale * x) ** 2)


def norm_factor(lam):
    return 1.0 / math.sqrt(2.0**lam * math.factorial(lam) * math.sqrt(math.pi))


@functools.cache
def sup_psi(lam):
    """max |psi_lam| on a grid of 40 points per oscillation length 2 pi / sqrt(2 lam + 1)."""
    turn = math.sqrt(2 * lam + 1)
    return float(np.max(np.abs(hermite_function(lam, np.arange(0.0, turn + 2.0,
                                                                0.05 * math.pi / turn)))))


def _cover(lattice, n, pt):
    """(scale, pt carried onto the rectangular cover): the seed is psi_lam(scale x),
    scale = sqrt(2 pi |n|) on a rectangular lattice and 2 sqrt(pi l |n|) on a square one."""
    if lattice.kind == "standard-rect":
        return math.sqrt(2.0 * math.pi * abs(n)), pt
    return (2.0 * math.sqrt(math.pi * lattice.l * abs(n)),
            apply_symplectic(scaling_map(lattice.l), pt))


def reference_eigenfunction(idx, lam, lattice, pt, tol=1e-12):
    """The loop's value on the unnormalised seed (absolute tail bound tol)."""
    scale, pt = _cover(lattice, idx.n, pt)
    return reference_eval(idx, unnormalised_seed(lam, scale), pt, tol)


coords = st.floats(-3.0, 3.0, allow_nan=False)
points = st.builds(PolarizedPoint, coords, coords, coords)


@st.composite
def eigenfunctions(draw):
    """(index, level, lattice) with 1 <= |n| <= 4, any residues, l <= 3, lam <= 20."""
    n = draw(st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]))
    l = draw(st.integers(1, 3))
    lattice = draw(st.sampled_from([standard_rect(l), scaled_square(l)]))
    width = lattice.covering_width
    idx = WBIndex(n, draw(st.integers(0, abs(n) - 1)), draw(st.integers(0, width - 1)), width)
    return idx, draw(st.integers(0, 20)), lattice


def window_ks(idx, lam, lattice, pt, tol=1e-12):
    """(scale, pt on the cover, the window rule's k): every k with
    |scale (p + k + off)| <= sqrt(2 lam + 1) + sqrt(2 ln(10/tol))."""
    scale, pt = _cover(lattice, idx.n, pt)
    reach = math.sqrt(2 * lam + 1) + math.sqrt(2 * math.log(10 / tol))
    ks = [k for k in range(-int(pt.p) - 200, -int(pt.p) + 200)
          if abs(scale * (pt.p + k + idx.offset)) <= reach]
    assert ks and ks[0] > -int(pt.p) - 200 and ks[-1] < -int(pt.p) + 199
    return scale, pt, ks


def window_loop(idx, lam, lattice, pt, tol=1e-12):
    """The series over the window rule, one psi_lam seed at a time."""
    scale, pt, ks = window_ks(idx, lam, lattice, pt, tol)
    off = idx.offset
    vals = np.array([hermite_function(lam, scale * (pt.p + k + off)) for k in ks], dtype=complex)
    phases = np.exp(2j * math.pi * idx.n * (np.array(ks) + off) * pt.q)
    return complex(np.exp(2j * math.pi * idx.n * pt.s) * np.sum(vals * phases))


def axis(size):
    return st.lists(coords, min_size=1, max_size=size)


def grid_points(lattice, g):
    """The points of wb_eigenfunction_grid(..., g) as eigenfunction --grid g writes
    them, flat in the order p, q, s of its rows."""
    sp, sq = lattice.steps
    return [PolarizedPoint(i * sp / g, j * sq / g, m / g)
            for i in range(2 * g) for j in range(g) for m in range(2 * g)]


def grid_array(idx, lam, lattice, g, tol=1e-12):
    """wb_eigenfunction_grid's rows as one (2g, g, 2g) array."""
    rows = list(wb_eigenfunction_grid(idx, lam, lattice, g, tol))
    assert len(rows) == 2 * g and all(row.shape == (g, 2 * g) for row in rows)
    return np.array(rows)


_EPS = np.finfo(float).eps


def oracle_bound(idx, lam, lattice, pt, g, tol=1e-12):
    """A bound on |grid - float series| at the grid point pt, from the float path's
    window on the cover: T seeds psi_lam(scale x), the sum S of their |.|, and
    reach = R/scale.

    - phases: the float path's `_point_phase_error` at its point on the cover,
      times S, and as much again, since on a square lattice the rounding of q on
      the way to the cover moves each phase as far;
    - seeds: each float argument x = p + k + off is off by at most
      eps (|p| + 1 + reach), and |psi_lam'| <= sqrt(2 lam + 2) pi^(-1/4);
    - sums: (T + g) eps S, for the float path's sum and the grid's fold and DFT.
    """
    scale, pt = _cover(lattice, idx.n, pt)
    reach = (math.sqrt(2 * lam + 1) + math.sqrt(2 * math.log(10 / tol))) / scale
    xs = pt.p + np.arange(-int(pt.p) - 200, -int(pt.p) + 200) + idx.offset
    xs = xs[np.abs(xs) <= reach]  # the window, which may be empty
    size = np.abs(hermite_function(lam, scale * xs)).sum()
    phase = weil_brezin._point_phase_error(idx.n, pt.p, pt.q, pt.s, reach)
    seeds = _EPS * (abs(pt.p) + 1 + reach) * scale * math.sqrt(2 * lam + 2) * math.pi**-0.25
    return size * (2 * phase + (xs.size + g) * _EPS) + xs.size * seeds


def _series_only(f, *args):
    """f(*args) with the one-point phase rule (`weil_brezin._check_phases`) switched
    off: the series' own floats, for the tests of its arithmetic and its tail at
    points where the rounding of its phases may pass tol."""
    with mock.patch.object(weil_brezin, "_check_phases", lambda *_: None):
        return f(*args)


def oracle_misses(idx, lam, lattice, g, grid, picks):
    """The flat indices among picks where the grid is farther than oracle_bound from
    the float series (wb_eigenfunction with its phase rule off)."""
    pts = grid_points(lattice, g)
    return [at for at in picks
            if abs(grid.flat[at] - _series_only(wb_eigenfunction, idx, lam, lattice, pts[at]))
            > oracle_bound(idx, lam, lattice, pts[at], g)]


@settings(max_examples=100, deadline=None, database=None)
@given(eigenfunctions(), axis(2), axis(3), axis(2))
def test_eigenfunction_bit_equal_to_scalar_loop(ef, ps, qs, ss):
    idx, lam, lattice = ef
    pts = [PolarizedPoint(p, q, s) for p in ps for q in qs for s in ss]
    for tol in (1e-12, 1e-10):
        want = [window_loop(idx, lam, lattice, pt, tol) for pt in pts]
        assert [wb_eigenfunction(idx, lam, lattice, pt, tol) for pt in pts] == want


@settings(max_examples=150, deadline=None, database=None)
@given(eigenfunctions(), st.lists(points, min_size=1, max_size=4))
def test_eigenfunction_is_the_normalised_unnormalised_loop(ef, pts):
    # new = old / sqrt(2^lam lam! sqrt(pi)) within the relative tail bound
    idx, lam, lattice = ef
    c = norm_factor(lam)
    want = [c * reference_eigenfunction(idx, lam, lattice, pt) for pt in pts]
    got = [wb_eigenfunction(idx, lam, lattice, pt) for pt in pts]
    assert max(abs(a - b) for a, b in zip(got, want)) <= 2e-12 * sup_psi(lam)


@st.composite
def grid_cases(draw):
    """(index, level, lattice, g) with |n| <= 60, any residues, l <= 4, lam <= 30 and
    g <= 8."""
    n = draw(st.integers(1, 60)) * draw(st.sampled_from([1, -1]))
    l = draw(st.integers(1, 4))
    lattice = draw(st.sampled_from([standard_rect(l), scaled_square(l)]))
    width = lattice.covering_width
    idx = WBIndex(n, draw(st.integers(0, abs(n) - 1)), draw(st.integers(0, width - 1)), width)
    return idx, draw(st.integers(0, 30)), lattice, draw(st.integers(1, 8))


@settings(max_examples=80, deadline=None, database=None)
@given(grid_cases(), st.data())
def test_the_exact_grid_is_the_float_series_within_its_rounding(case, data):
    # at up to 24 of its points the grid is the float series within oracle_bound; its
    # seeds are one Hermite call, which rows i and i + g share, and its second
    # s-period is the first bit for bit
    idx, lam, lattice, g = case
    psi, calls = weil_brezin._psi, []
    with mock.patch.object(weil_brezin, "_psi", lambda *args: calls.append(args) or psi(*args)):
        grid = grid_array(idx, lam, lattice, g)
    assert len(calls) == 1
    assert grid[:, :, g:].tobytes() == grid[:, :, :g].tobytes()
    picks = data.draw(st.lists(st.integers(0, grid.size - 1), min_size=1, max_size=24))
    assert oracle_misses(idx, lam, lattice, g, grid, picks) == []


@pytest.mark.parametrize("lattice,n,a,b,lam,g", [(standard_rect(2), 3, 1, 0, 2, 4),
                                                 (scaled_square(1), -2, 1, 0, 0, 3),
                                                 (standard_rect(3), 41, 5, 1, 6, 2)])
def test_an_offset_off_by_one_fails_the_oracle(lattice, n, a, b, lam, g):
    # the negative control of the comparison above: the grid of (n, a, b) is not the
    # float series of (n, a, b + 1) within oracle_bound at most of its points
    width = lattice.covering_width
    grid = grid_array(WBIndex(n, a, b, width), lam, lattice, g)
    assert oracle_misses(WBIndex(n, a, b, width), lam, lattice, g, grid, range(grid.size)) == []
    misses = oracle_misses(WBIndex(n, a, b + 1, width), lam, lattice, g, grid, range(grid.size))
    assert len(misses) > grid.size // 2


def exact_grid_value(idx, lam, lattice, g, i, j, m):
    """The series at the grid point (i, j, m) to 50 digits (mpmath), from its exact
    coordinates on the cover, p = i/g, q = W j/g and s = m/g, over every term with
    |scale x| <= sqrt(2 lam + 1) + 12, past which each is under 1e-31."""
    with mpmath.workdps(50):
        n, width, pi = idx.n, idx.l, mpmath.mp.pi
        p, q, s = mpmath.mpf(i) / g, mpmath.mpf(width * j) / g, mpmath.mpf(m) / g
        off = mpmath.mpf(idx.a) / abs(n) + mpmath.mpf(idx.b) / (width * n)
        scale = (mpmath.sqrt(2 * pi * abs(n)) if lattice.kind == "standard-rect"
                 else 2 * mpmath.sqrt(pi * lattice.l * abs(n)))
        reach = (math.sqrt(2 * lam + 1) + 12) / float(scale)
        total = mpmath.mpc(0)
        for k in range(math.floor(-reach - float(p + off)) - 1,
                       math.ceil(reach - float(p + off)) + 2):
            y = scale * (p + k + off)
            total += (mpmath.hermite(lam, y) * mpmath.exp(-y * y / 2)
                      * mpmath.expjpi(2 * n * (k + off) * q))
        norm = mpmath.sqrt(2**lam * mpmath.factorial(lam) * mpmath.sqrt(pi))
        return complex(total * mpmath.expjpi(2 * n * s) / norm)


@pytest.mark.parametrize("lattice,n,a,b,lam,g", [(standard_rect(1), 40, 7, 0, 0, 4),
                                                 (standard_rect(2), -53, 11, 1, 3, 6),
                                                 (scaled_square(1), 47, 20, 1, 2, 5),
                                                 (scaled_square(2), -60, 33, 3, 5, 8),
                                                 (standard_rect(3), 41, 0, 2, 1, 7)])
def test_the_exact_grid_against_a_50_digit_series(lattice, n, a, b, lam, g):
    # at |n| >= 40 and tol = 1e-15 the float phases may round past tol, so the
    # one-point path refuses these points; the grid takes them, and at its four
    # largest values of the second p- and s-periods it is within 1e-14 max|f| of
    # the 50-digit series, and closer to it than the float path (its rule off)
    idx, tol = WBIndex(n, a, b, lattice.covering_width), 1e-15
    grid = grid_array(idx, lam, lattice, g, tol)
    top = np.argsort(-np.abs(grid[g:, :, g:]).ravel(), kind="stable")[:4]
    pts = [(g + int(i), int(j), g + int(m))
           for i, j, m in zip(*np.unravel_index(top, (g, g, g)))]
    sp, sq = lattice.steps
    errors = []
    for i, j, m in pts:
        pt = PolarizedPoint(i * sp / g, j * sq / g, m / g)
        with pytest.raises(ValueError, match="may round by"):
            wb_eigenfunction(idx, lam, lattice, pt, tol)
        want = exact_grid_value(idx, lam, lattice, g, i, j, m)
        errors.append((abs(grid[i, j, m] - want),
                       abs(_series_only(wb_eigenfunction, idx, lam, lattice, pt, tol) - want)))
    exact, floats = np.max(errors, axis=0)
    assert exact <= 1e-14 * np.abs(grid).max()
    assert exact < floats


def test_rows_of_a_block_differ_in_window_length():
    # p a quarter apart on nl: windows of 7 and 6 terms; the grid's seeds are one
    # Hermite call at the 27 points u = i + 4k of (1/4)Z in the window, the terms
    # of rows 0..3, which rows 4..7 share, and each row is its own window's series
    idx, lattice = WBIndex(1, 0, 0, 1), standard_rect(1)
    pts = grid_points(lattice, 4)
    lengths = [len(window_ks(idx, 0, lattice, pts[32 * i])[2]) for i in range(8)]
    assert lengths == [7, 7, 6, 7] * 2
    psi, calls = weil_brezin._psi, []
    with mock.patch.object(weil_brezin, "_psi", lambda *args: calls.append(args) or psi(*args)):
        grid = grid_array(idx, 0, lattice, 4)
    assert [y.shape for _, y in calls] == [(27,)]
    for at, pt in enumerate(pts):
        assert abs(grid.flat[at] - window_loop(idx, 0, lattice, pt)) <= oracle_bound(
            idx, 0, lattice, pt, 4)


@settings(max_examples=40, deadline=None, database=None)
@given(grid_cases(), st.integers(1, 200))
def test_grid_blocks_give_the_same_bits_at_any_block_size(case, block):
    # blocks of a few values, so one grid spans many blocks: the bytes of every
    # value, the sign of a zero included, do not depend on the block
    idx, lam, lattice, g = case
    want = grid_array(idx, lam, lattice, g).tobytes()
    with mock.patch.object(weil_brezin, "_GRID_BLOCK_VALUES", block):
        assert grid_array(idx, lam, lattice, g).tobytes() == want


@pytest.mark.parametrize("block", [1 << 14, 1 << 16])
@pytest.mark.parametrize("lattice", [standard_rect(1), scaled_square(1)])
def test_grid_memory_is_set_by_the_block(block, lattice):
    # the grid of eigenfunction --grid 48: 4 * 48^3 values, 7.1 MB as complex, but
    # a block holds at most `block` values and the peak stays below 80 bytes for
    # each: its values, 16 bytes each, the block before, which the last row taken
    # holds, and the grid's (2g, g) q-sums and g x g table of roots
    g = 48
    idx = WBIndex(1, 0, 0, lattice.covering_width)
    with mock.patch.object(weil_brezin, "_GRID_BLOCK_VALUES", block):
        tracemalloc.start()
        try:
            for row in wb_eigenfunction_grid(idx, 2, lattice, g):
                assert row.shape == (g, 2 * g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 80 * block < 16 * 4 * g**3


@pytest.mark.parametrize("g", [1, 2, 3, 4, 5, 8, 12, 24, 79])
def test_the_roots_of_unity_keep_their_symmetries(g):
    # within 2 eps of e^(2 pi i k/g); +-1 and +-i exact, and the root of g - k the
    # conjugate of the root of k
    roots = np.array([weil_brezin._root_of_unity(k, g) for k in range(g)])
    with mpmath.workdps(30):
        exact = np.array([complex(mpmath.expjpi(mpmath.mpf(2 * k) / g)) for k in range(g)])
    assert np.abs(roots - exact).max() <= 2 * _EPS
    assert all(roots[-k % g] == roots[k].conjugate() for k in range(g))
    for quarter, unit in enumerate((1, 1j, -1, -1j)):
        if quarter * g % 4 == 0:
            assert roots[quarter * g // 4] == unit


def test_grid_refuses_a_size_that_is_not_a_positive_integer():
    idx, lattice = WBIndex(2, 1, 3, 4), scaled_square(2)
    for g in (0, -1, 1.5, 4.0, True, None):
        with pytest.raises(ValueError, match="positive integer"):
            wb_eigenfunction_grid(idx, 1, lattice, g)
    assert next(wb_eigenfunction_grid(idx, 1, lattice, np.int64(1))).shape == (1, 2)
    with pytest.raises(ValueError, match="covering width"):
        wb_eigenfunction_grid(idx, 1, standard_rect(2), 1)


@settings(max_examples=40, deadline=None, database=None)
@given(st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]), st.integers(1, 2), st.booleans(),
       st.integers(0, 20), points, st.data())
def test_combination_equals_per_index_sum(n, l, square, lam, pt, data):
    lattice = scaled_square(l) if square else standard_rect(2 * l)
    dim = 2 * l * abs(n)
    parts = st.floats(-2.0, 2.0, allow_nan=False)
    entries = np.array([complex(*data.draw(st.tuples(parts, parts))) for _ in range(dim)])
    coef = CoefficientVector(n, l, entries)
    norm = norm_factor(lam)
    want, scale = 0j, 0.0
    for a in range(abs(n)):
        for b in range(2 * l):
            c = entries[a * 2 * l + b]
            if c != 0:
                term = c * norm * reference_eigenfunction(WBIndex(n, a, b, 2 * l), lam,
                                                          lattice, pt)
                want += term
                scale += abs(term)
    # one series over all residues sums in another order and keeps every row some
    # residue needs, so it agrees within rounding and the tail bound
    got = eigenfunction_combination(coef, lam, lattice, pt)
    assert abs(got - want) <= 1e-13 * scale + 2e-12 * sup_psi(lam) * np.sum(np.abs(entries))


@settings(max_examples=40, deadline=None, database=None)
@given(st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]), st.integers(1, 2), st.booleans(),
       st.integers(0, 20), points)
def test_sector_basis_values_equal_the_basis_functions(n, l, square, lam, pt):
    # one window summed by residue; each value is the one-point series of its
    # basis function, within rounding and the tail bound as a combination with a
    # single unit coefficient
    lattice = scaled_square(l) if square else standard_rect(2 * l)
    got = sector_basis_values(n, lam, lattice, pt)
    want = np.array([wb_eigenfunction(WBIndex(n, a, b, 2 * l), lam, lattice, pt)
                     for a in range(abs(n)) for b in range(2 * l)])
    assert got.shape == want.shape == (2 * l * abs(n),) and got.dtype == complex
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want) + 2e-12 * sup_psi(lam))


@pytest.mark.parametrize("n,l,lattice,lam", [(2, 1, standard_rect(2), 3), (-3, 1, scaled_square(1), 0),
                                             (4, 2, standard_rect(4), 6), (-2, 2, scaled_square(2), 7),
                                             (1, 50, standard_rect(100), 2)])
def test_sector_basis_values_equal_the_combinations_of_unit_vectors(n, l, lattice, lam):
    # the same window's terms, summed by residue instead of by one dot per unit
    # vector: each value is a sum of at most 2 reach + 1 terms of modulus at most
    # sup|psi_lam| in another order, so they agree within 1e-13 sup|psi_lam|
    dim = 2 * l * abs(n)
    rng = np.random.default_rng(11)
    for pt in (PolarizedPoint(*rng.uniform(-2, 2, 3)) for _ in range(3)):
        got = sector_basis_values(n, lam, lattice, pt)
        want = [eigenfunction_combination(CoefficientVector(n, l, unit + 0j), lam, lattice, pt)
                for unit in np.eye(dim)]
        assert np.all(np.abs(got - want) <= 1e-13 * sup_psi(lam))


def test_sector_basis_values_hold_no_n_by_n_array():
    # N = 600 at n = 1: a weight matrix of the window by N took 75 MB; the sums by
    # residue hold the window and N values, about 0.4 MB
    pt = PolarizedPoint(0.3, -0.7, 0.2)
    tracemalloc.start()
    try:
        values = sector_basis_values(1, 3, standard_rect(600), pt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == (600,) and np.all(np.isfinite(values))
    assert peak < 1e6


@pytest.mark.parametrize("n,l,lattice", [(2, 1, standard_rect(2)), (-9, 2, scaled_square(2))])
def test_sector_basis_takes_one_window_per_point(monkeypatch, n, l, lattice):
    calls = []
    psi = weil_brezin._psi
    monkeypatch.setattr(weil_brezin, "_psi", lambda *args: calls.append(args) or psi(*args))
    rng = np.random.default_rng(8)
    for i in range(5):
        sector_basis_values(n, 3, lattice, PolarizedPoint(*rng.uniform(-2, 2, 3)))
        assert len(calls) == i + 1


def test_sector_basis_refuses_an_odd_width_and_a_zero_frequency():
    with pytest.raises(ValueError, match="odd covering width"):
        sector_basis_values(1, 0, standard_rect(1), PolarizedPoint(0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="n must be nonzero"):
        sector_basis_values(0, 0, standard_rect(2), PolarizedPoint(0.0, 0.0, 0.0))


@pytest.mark.parametrize("n,l,lattice", [(2, 1, standard_rect(2)), (-9, 2, scaled_square(2))])
def test_combination_builds_one_window_per_point(monkeypatch, n, l, lattice):
    calls = []
    psi = weil_brezin._psi

    def counted(*args):
        calls.append(args)
        return psi(*args)

    monkeypatch.setattr(weil_brezin, "_psi", counted)
    rng = np.random.default_rng(7)
    coef = CoefficientVector(n, l, rng.normal(size=2 * l * abs(n)) + 0j)
    for i in range(5):
        eigenfunction_combination(coef, 3, lattice, PolarizedPoint(*rng.uniform(-2, 2, 3)))
        assert len(calls) == i + 1


def test_every_residue_keeps_the_window_open(monkeypatch):
    # the combination's window over (1/N)Z keeps each m with |y| <= R, y = scale (p + m/N),
    # and each residue's first dropped term on either side lies past R, under tol/10
    # of sup|psi_lam|
    seen = []
    psi = weil_brezin._psi
    monkeypatch.setattr(weil_brezin, "_psi", lambda lam, y: seen.append(y) or psi(lam, y))
    cases = [(0, math.sqrt(2 * math.pi), 4), (6, 2.0, 36), (170, math.sqrt(2 * math.pi), 8),
             (2000, 30.0, 64)]
    for (lam, scale, N), tol in itertools.product(cases, (1e-12, 1e-6, 1e-3)):
        reach = math.sqrt(2 * lam + 1) + math.sqrt(2 * math.log(10 / tol))
        for p in np.random.default_rng(lam).uniform(-3.0, 3.0, size=5):
            seen.clear()
            weil_brezin._residue_series(lam, scale, 3, np.ones(N), p, 0.0, 0.0, tol)
            (ys,) = seen
            ms = np.round((ys / scale - p) * N).astype(int)
            assert np.array_equal(ms, np.arange(ms[0], ms[-1] + 1))
            assert np.allclose(ys, scale * (p + ms / N), rtol=0, atol=1e-13)
            assert np.all(np.abs(ys) <= reach)
            for dropped in (np.arange(ms[0] - N, ms[0]), np.arange(ms[-1] + 1, ms[-1] + N + 1)):
                y = scale * (p + dropped / N)  # the first dropped term of every residue
                assert np.all(np.abs(y) > reach)
                assert np.max(np.abs(hermite_function(lam, y))) < 0.1 * tol * sup_psi(lam)


@pytest.mark.parametrize("kind,l,m", [("gamma-pi", 2, 9), ("gamma-pi2", 3, 6),
                                      ("gamma-pi", 2, 16), ("gamma-pi2", 1, 32),
                                      ("gamma-pi", 4, 16), ("gamma-pi2", 2, 32)])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("lam", [0, 3, 7])
def test_invariant_combinations_are_invariant_at_large_n(kind, l, m, sign, lam):
    # sectors of N = 2l|n| = 36, 64 and 128 on both Bieberbach quotients
    n = sign * m
    spec = gamma_pi(l) if kind == "gamma-pi" else gamma_pi_half(l)
    solve = phi_constraint_solve if kind == "gamma-pi" else psi_constraint_solve
    basis = np.column_stack([v.entries for v in solve(n, lam, l)])
    rng = np.random.default_rng(1000 * l + 10 * n + lam)
    peak = np.max(np.abs(hermite_function(lam, np.linspace(-12, 12, 4801))))
    for _ in range(2):
        weights = rng.normal(size=basis.shape[1]) + 1j * rng.normal(size=basis.shape[1])
        coef = CoefficientVector(n, l, basis @ weights)
        scale = peak * np.sum(np.abs(coef.entries))
        for _ in range(3):
            pt = PolarizedPoint(*rng.uniform(-1.5, 1.5, 3))
            image = motion_apply(spec.generator, pt)
            got = eigenfunction_combination(coef, lam, spec.base_lattice, image)
            want = eigenfunction_combination(coef, lam, spec.base_lattice, pt)
            assert abs(got - want) <= 1e-9 * scale


def _slow_seed(x):
    return 1.0 / (1.0 + x * x)


def _complex_seed(x):
    return schrodinger_act(-2, PolarizedPoint(0.3, -0.7, 0.2),
                           lambda y: math.exp(-math.pi * (y - 0.2) ** 2), x)


def _shifted_seed(x):  # the largest term lies outside the first window K = 2
    return math.exp(-(x - 6.0) ** 2)


@pytest.mark.parametrize("g,tol", [
    (_slow_seed, 1e-3),  # window of about 100 terms
    (_slow_seed, 1e-6),
    (_complex_seed, 1e-12),
    (lambda x: math.exp(-abs(x)) * (2.0 + math.cos(7 * x)), 1e-12),
    (_shifted_seed, 1e-12),
])
def test_generic_seed_bit_equal(g, tol):
    # the window is the first K >= 2 at which both edge terms are at most tol/10
    # of the largest term seen, and the value is the loop's sum over it
    rng = np.random.default_rng(41)
    for n in (1, -3):
        idx = WBIndex(n, 1 % abs(n), 1, 2)
        for _ in range(5):
            pt = PolarizedPoint(*rng.uniform(-3, 3, size=3))
            calls = []
            got = weil_brezin_eval(idx, lambda x: calls.append(x) or g(x), pt, tol)
            ks = sorted({round(x - pt.p - idx.offset) for x in calls})
            K = (len(ks) - 1) // 2
            terms = {k: abs(g(pt.p + k + idx.offset)) for k in ks}
            k0 = ks[K]
            assert ks == list(range(k0 - K, k0 + K + 1)) and k0 == -round(pt.p + idx.offset)
            peak = max(terms[k] for k in range(k0 - 2, k0 + 3))
            for j in range(2, K + 1):
                peak = max(peak, terms[k0 - j], terms[k0 + j])
                if max(terms[k0 - j], terms[k0 + j]) <= 0.1 * tol * peak:
                    break
            assert j == K and max(terms[k0 - K], terms[k0 + K]) <= 0.1 * tol * peak
            phases = np.exp(2j * math.pi * n * (np.array(ks) + idx.offset) * pt.q)
            vals = np.array([complex(g(pt.p + k + idx.offset)) for k in ks])
            assert got == complex(np.exp(2j * math.pi * n * pt.s) * np.sum(vals * phases))
            # the old absolute rule cuts at the same place up to the threshold's scale
            if g is not _slow_seed:
                assert abs(got - reference_eval(idx, g, pt, tol)) <= tol * max(terms.values())


@pytest.mark.parametrize("g", [lambda x: 1.0, lambda x: abs(x), lambda x: 1.0 + math.cos(x)])
def test_seeds_without_decay_stall_like_the_loop(g):
    # the loop stopped such seeds by its stall count; the window now grows until
    # it passes the widest window, and raises the same error type
    idx = WBIndex(1, 0, 0, 1)
    pt = PolarizedPoint(0.4, 0.1, 0.0)
    with pytest.raises(TruncationError):
        reference_eval(idx, g, pt)
    with pytest.raises(TruncationError, match="window exceeded 100000 terms"):
        weil_brezin_eval(idx, g, pt)


def test_nonfinite_seed_raises():
    idx = WBIndex(1, 0, 0, 1)
    origin = PolarizedPoint(0.0, 0.0, 0.0)
    seed = lambda x: math.nan if x == 1.0 else math.exp(-x * x)
    with pytest.raises(ValueError, match=r"not finite at x = 1\.0"):
        weil_brezin_eval(idx, seed, origin)
    with pytest.raises(ValueError):
        wb_eigenfunction(idx, 0, standard_rect(1), PolarizedPoint(math.nan, 0.0, 0.0))


@pytest.mark.parametrize("lattice", [standard_rect(2), scaled_square(1)])
def test_a_combination_value_that_is_not_finite_is_refused(monkeypatch, lattice):
    # an infinite seed makes the series inf or nan: the combination and the sector's
    # basis refuse the value with ValueError instead of returning it (numpy's own
    # warnings on the way are silenced here; _psi's seeds are finite at finite points)
    psi = weil_brezin._psi

    def overflowing(lam, y):
        seeds = psi(lam, y)
        seeds[len(seeds) // 2] = math.inf
        return seeds

    monkeypatch.setattr(weil_brezin, "_psi", overflowing)
    pt = PolarizedPoint(0.3, 0.25, 0.1)
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="the series is not finite"):
            eigenfunction_combination(CoefficientVector(2, 1, np.ones(4) + 0j), 1, lattice, pt)
        with pytest.raises(ValueError, match="the series is not finite"):
            sector_basis_values(2, 1, lattice, pt)


def test_nonfinite_coefficients_are_refused():
    for bad in (math.nan, math.inf, complex(0.0, -math.inf)):
        entries = np.ones(4, dtype=complex)
        entries[2] = bad
        with pytest.raises(ValueError, match="coefficients must be finite"):
            CoefficientVector(2, 1, entries)


@pytest.mark.parametrize("lattice", [standard_rect(2), scaled_square(1)])
def test_an_overflowing_phase_is_refused(lattice):
    # q = 1e308 overflows the phases: a ValueError, not nan and a RuntimeWarning
    pt = PolarizedPoint(0.3, 1e308, 0.1)
    with pytest.raises(ValueError):
        wb_eigenfunction(WBIndex(2, 1, 1, 2), 1, lattice, pt)
    with pytest.raises(ValueError):
        eigenfunction_combination(CoefficientVector(2, 1, np.ones(4) + 0j), 1, lattice, pt)
    with pytest.raises(ValueError):
        sector_basis_values(2, 1, lattice, pt)


@pytest.mark.parametrize("lattice", [standard_rect(2), scaled_square(1)])
def test_a_point_whose_phases_carry_no_digits_is_refused(lattice):
    # at q = 1e300 the phase arguments 2 pi n y are about 1e300, where a float holds
    # no digit of the phase: both one-point paths refuse the point
    pt = PolarizedPoint(0.3, 1e300, 0.1)
    with pytest.raises(ValueError, match="may round by"):
        wb_eigenfunction(WBIndex(2, 1, 1, 2), 1, lattice, pt)
    with pytest.raises(ValueError, match="may round by"):
        eigenfunction_combination(CoefficientVector(2, 1, np.ones(4) + 0j), 1, lattice, pt)
    with pytest.raises(ValueError, match="may round by"):
        sector_basis_values(2, 1, lattice, pt)


@pytest.mark.parametrize("tol", [1e-12, 1e-8])
def test_the_phase_rule_refuses_where_its_bound_passes_tol(tol):
    # on the rectangular cover the bound is 3 eps 2 pi |n| max(|s|, (|p| + 1 + reach) |q|);
    # just under the q where it reaches tol the point is taken, just over it refused
    n, lam, p, s = -3, 2, 0.7, 0.1
    lattice = standard_rect(2)
    reach = weil_brezin._reach(lam, math.sqrt(2 * math.pi * abs(n)), p, tol)
    edge = tol / (3 * np.finfo(float).eps * 2 * math.pi * abs(n) * (abs(p) + 1 + reach))
    coef = CoefficientVector(n, 1, np.arange(6) + 1j)
    for f in (functools.partial(wb_eigenfunction, WBIndex(n, 2, 1, 2), lam, lattice),
              functools.partial(eigenfunction_combination, coef, lam, lattice),
              functools.partial(sector_basis_values, n, lam, lattice)):
        f(PolarizedPoint(p, 0.999 * edge, s), tol)
        with pytest.raises(ValueError, match="may round by"):
            f(PolarizedPoint(p, 1.001 * edge, s), tol)


def test_points_of_the_benchmark_range_are_taken_with_their_bits():
    # |p|, |q| <= 3, |s| <= 4, |n| <= 4, lam <= 6 and l <= 3, at the corners: the phase
    # rule takes every point, on both paths, and four pinned values keep their bits
    corners = [PolarizedPoint(p, q, s) for p in (-3.0, 3.0) for q in (-3.0, 3.0)
               for s in (-4.0, 4.0)]
    for l, square, n, lam in itertools.product((1, 2, 3), (False, True),
                                               (-4, -3, -1, 1, 2, 4), (0, 6)):
        lattice = scaled_square(l) if square else standard_rect(l)
        width = lattice.covering_width
        idx = WBIndex(n, abs(n) - 1, width - 1, width)
        coef = CoefficientVector(n, l, np.arange(2 * l * abs(n)) + 1j)
        combination_lattice = scaled_square(l) if square else standard_rect(2 * l)
        for pt in corners:
            wb_eigenfunction(idx, lam, lattice, pt)
            eigenfunction_combination(coef, lam, combination_lattice, pt)
    pinned = [
        (eigenfunction_combination(CoefficientVector(-4, 2, np.arange(16) + 1j), 6,
                                   scaled_square(2), PolarizedPoint(-3.0, 3.0, 4.0)),
         "(4.3490643198155965-0.07134054717179711j)"),
        (eigenfunction_combination(CoefficientVector(4, 1, np.arange(8) - 2j), 6,
                                   standard_rect(2), PolarizedPoint(3.0, -3.0, -4.0)),
         "(1.3228650412008605+0.14268109434370774j)"),
        (wb_eigenfunction(WBIndex(-4, 3, 3, 4), 6, scaled_square(2),
                          PolarizedPoint(3.0, -3.0, -4.0)),
         "(-0.2662441750338539-2.605144614196228e-16j)"),
        (wb_eigenfunction(WBIndex(4, 1, 2, 3), 6, standard_rect(3),
                          PolarizedPoint(-3.0, 3.0, 4.0)),
         "(0.21703012347079698-2.4054721087885303e-14j)")]
    for value, text in pinned:
        assert repr(value) == text


def test_a_grid_value_that_is_not_finite_is_refused():
    # the grid's phases are roots of unity, so its value is not finite only where a
    # seed is: with the seed at x = 5/4 (u = 5 of g = 4, the term k = 1 of row 1 and
    # k = 0 of row 5) made inf, the grid yields row 0, then refuses row 1 with
    # ValueError, and no RuntimeWarning; the one-point path refuses a far point by
    # its phase rule, and without the rule its series refuses the value as not finite
    idx, lattice = WBIndex(1, 0, 0, 1), standard_rect(1)
    for pt in (PolarizedPoint(0.0, 0.25, 1e308), PolarizedPoint(-20.0, 2e306, 0.1)):
        with pytest.raises(ValueError, match="may round by"):
            wb_eigenfunction(idx, 0, lattice, pt)
        with pytest.raises(ValueError, match="not finite"):
            _series_only(wb_eigenfunction, idx, 0, lattice, pt)
    psi = weil_brezin._psi

    def overflowing(lam, y):
        seeds = psi(lam, y)
        seeds[y == 1.25 * math.sqrt(2 * math.pi)] = math.inf
        return seeds

    with mock.patch.object(weil_brezin, "_psi", overflowing), warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = wb_eigenfunction_grid(idx, 0, lattice, 4)
        assert next(rows).shape == (4, 8)
        with pytest.raises(ValueError, match=r"not finite at x = 1\.25"):
            next(rows)


@pytest.mark.parametrize("lattice,p", [(standard_rect(2), 1e300), (scaled_square(1), -1e300),
                                       (standard_rect(2), 1e17), (scaled_square(1), 1e17),
                                       (standard_rect(2), -(2.0**52))])
def test_a_point_past_exact_shifts_is_refused(lattice, p):
    # past 2^52 on the cover p + k is no longer exact (1e17 on standard-rect(2) was
    # 0.85 off where |f| is about 0.75), and at 1e300 the window's integers pass
    # the int64 range; both paths refuse with ValueError
    pt = PolarizedPoint(p, 0.25, 0.1)
    coef = CoefficientVector(2, 1, np.arange(4) + 1j)
    with pytest.raises(ValueError, match="below 2\\^52"):
        wb_eigenfunction(WBIndex(2, 1, 1, 2), 2, lattice, pt)
    with pytest.raises(ValueError, match="below 2\\^52"):
        eigenfunction_combination(coef, 2, lattice, pt)
    with pytest.raises(ValueError, match="below 2\\^52"):
        sector_basis_values(2, 2, lattice, pt)


def test_a_far_point_keeps_its_short_window():
    # at p = 1e12 the combination's indices m lie near -N p and are reduced mod N at
    # once; n p q is whole, so both paths give f(0, q, s) up to the rounding of
    # phases near 2 pi n p q, about 4e-4 of |f| here; that is past tol, so both
    # refuse the point unless their phase rule is switched off
    n, p, q, s = 2, 1e12, 0.375, 0.1
    idx, lattice = WBIndex(n, 1, 1, 2), standard_rect(2)
    coef = CoefficientVector(n, 1, np.arange(4) + 1j)
    for f in (lambda pt: wb_eigenfunction(idx, 2, lattice, pt),
              lambda pt: eigenfunction_combination(coef, 2, lattice, pt)):
        want = f(PolarizedPoint(0.0, q, s))
        assert abs(_series_only(f, PolarizedPoint(p, q, s)) - want) < 1e-3 * abs(want)
        with pytest.raises(ValueError, match="may round by"):
            f(PolarizedPoint(p, q, s))


def widened_sum(n, lam, scale, pt, offs, weights, rows=20):
    """The series over every k within R of some offset and 20 rows more on each side,
    from the public Hermite function."""
    reach = (math.sqrt(2 * lam + 1) + math.sqrt(2 * math.log(1e13))) / scale
    ks = np.arange(math.ceil(-reach - pt.p - offs.max()) - rows,
                   math.floor(reach - pt.p - offs.min()) + rows + 1)
    x = np.add.outer(ks, offs)
    phases = np.exp(2j * math.pi * n * x * pt.q)
    terms = hermite_function(lam, scale * (pt.p + x)) * weights * phases
    return complex(np.exp(2j * math.pi * n * pt.s) * np.sum(terms))


@st.composite
def high_levels(draw):
    """(n, l, square lattice?, lam) with |n| <= 50, l <= 2 and lam up to 2000."""
    n = draw(st.integers(1, 50)) * draw(st.sampled_from([1, -1]))
    lam = draw(st.one_of(st.integers(0, 30), st.integers(0, 2000)))
    return n, draw(st.integers(1, 2)), draw(st.booleans()), lam


@settings(max_examples=40, deadline=None, database=None)
@given(high_levels(), points, st.data())
def test_basis_function_tail_against_a_wider_window(level, pt, data):
    n, l, square, lam = level
    lattice = scaled_square(l) if square else standard_rect(l)
    width = lattice.covering_width
    idx = WBIndex(n, data.draw(st.integers(0, abs(n) - 1)), data.draw(st.integers(0, width - 1)),
                  width)
    got = _series_only(wb_eigenfunction, idx, lam, lattice, pt)
    scale, rect = _cover(lattice, n, pt)
    want = widened_sum(n, lam, scale, rect, np.array([idx.offset]), 1.0)
    assert abs(got - want) <= 1e-12 * sup_psi(lam)


@settings(max_examples=30, deadline=None, database=None)
@given(high_levels(), points, st.data())
def test_combination_tail_against_a_wider_window(level, pt, data):
    n, l, square, lam = level
    lattice = scaled_square(l) if square else standard_rect(2 * l)
    dim = 2 * l * abs(n)
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    coef = CoefficientVector(n, l, rng.normal(size=dim) + 1j * rng.normal(size=dim))
    got = _series_only(eigenfunction_combination, coef, lam, lattice, pt)
    scale, rect = _cover(lattice, n, pt)
    weights = coef.entries[np.argsort(_sector_index(n, l))]  # c at residue k
    want = widened_sum(n, lam, scale, rect, np.arange(dim) / dim, weights)
    assert abs(got - want) <= 1e-12 * sup_psi(lam) * np.sum(np.abs(coef.entries))
