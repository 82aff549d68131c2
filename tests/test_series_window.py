"""The series windows against scalar window loops.

`window_loop` sums the window rule's terms one psi_lam seed at a time; a basis
function must give its floats exactly, compared with ==, and so must a row that
shares one window.  `reference_eval` is the per-seed loop that the windows
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
)
from heis_spectra.weil_brezin import (
    TruncationError,
    WBIndex,
    schrodinger_act,
    wb_eigenfunction,
    wb_eigenfunction_values,
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


def window_loop(idx, lam, lattice, pt, tol=1e-12):
    """The series over the window rule, one psi_lam seed at a time: every k with
    |scale (p + k + off)| <= sqrt(2 lam + 1) + sqrt(2 ln(10/tol))."""
    scale, pt = _cover(lattice, idx.n, pt)
    reach = math.sqrt(2 * lam + 1) + math.sqrt(2 * math.log(10 / tol))
    off = idx.offset
    ks = [k for k in range(-int(pt.p) - 200, -int(pt.p) + 200)
          if abs(scale * (pt.p + k + off)) <= reach]
    assert ks and ks[0] > -int(pt.p) - 200 and ks[-1] < -int(pt.p) + 199
    vals = np.array([hermite_function(lam, scale * (pt.p + k + off)) for k in ks], dtype=complex)
    phases = np.exp(2j * math.pi * idx.n * (np.array(ks) + off) * pt.q)
    return complex(np.exp(2j * math.pi * idx.n * pt.s) * np.sum(vals * phases))


@settings(max_examples=150, deadline=None, database=None)
@given(eigenfunctions(), st.lists(points, min_size=1, max_size=4))
def test_eigenfunction_bit_equal_to_scalar_loop(ef, pts):
    idx, lam, lattice = ef
    want = [window_loop(idx, lam, lattice, pt) for pt in pts]
    assert [wb_eigenfunction(idx, lam, lattice, pt) for pt in pts] == want
    assert wb_eigenfunction_values(idx, lam, lattice, pts) == want


@settings(max_examples=150, deadline=None, database=None)
@given(eigenfunctions(), st.lists(points, min_size=1, max_size=4))
def test_eigenfunction_is_the_normalised_unnormalised_loop(ef, pts):
    # new = old / sqrt(2^lam lam! sqrt(pi)) within the relative tail bound
    idx, lam, lattice = ef
    c = norm_factor(lam)
    want = [c * reference_eigenfunction(idx, lam, lattice, pt) for pt in pts]
    got = wb_eigenfunction_values(idx, lam, lattice, pts)
    assert max(abs(a - b) for a, b in zip(got, want)) <= 2e-12 * sup_psi(lam)


@settings(max_examples=60, deadline=None, database=None)
@given(eigenfunctions(), coords, st.lists(st.tuples(coords, coords), min_size=1, max_size=6))
def test_row_reuses_window_bit_equal(ef, p, qs):
    # points sharing p share one window; each value still equals its own loop
    idx, lam, lattice = ef
    pts = [PolarizedPoint(p, q, s) for q, s in qs]
    want = [window_loop(idx, lam, lattice, pt) for pt in pts]
    assert wb_eigenfunction_values(idx, lam, lattice, pts) == want


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


@pytest.mark.parametrize("n,l,lattice", [(2, 1, standard_rect(2)), (-9, 2, scaled_square(2))])
def test_combination_builds_one_window_per_point(monkeypatch, n, l, lattice):
    calls = []
    window = weil_brezin._series_window

    def counted(*args):
        calls.append(args)
        return window(*args)

    monkeypatch.setattr(weil_brezin, "_series_window", counted)
    rng = np.random.default_rng(7)
    coef = CoefficientVector(n, l, rng.normal(size=2 * l * abs(n)) + 0j)
    for i in range(5):
        eigenfunction_combination(coef, 3, lattice, PolarizedPoint(*rng.uniform(-2, 2, 3)))
        assert len(calls) == i + 1


def test_every_residue_keeps_the_window_open():
    # the window keeps each k that some residue needs, and each residue's first
    # dropped term on either side lies past R, under tol/10 of sup|psi_lam|
    cases = [(0, math.sqrt(2 * math.pi), 4), (6, 2.0, 36), (170, math.sqrt(2 * math.pi), 8),
             (2000, 30.0, 64)]
    for (lam, scale, N), tol in itertools.product(cases, (1e-12, 1e-6, 1e-3)):
        reach = math.sqrt(2 * lam + 1) + math.sqrt(2 * math.log(10 / tol))
        offs = np.arange(N) / N
        for p in np.random.default_rng(lam).uniform(-3.0, 3.0, size=5):
            exponents, seeds = weil_brezin._series_window(lam, scale, 3, p, offs, tol)
            ks = np.round((exponents[::N] / (2j * math.pi * 3)).real).astype(int)
            assert np.array_equal(ks, np.arange(ks[0], ks[-1] + 1))
            ys = scale * np.add.outer(p + ks, offs)
            assert np.array_equal(seeds.reshape(-1, N), hermite_function(lam, ys))
            assert np.min(np.abs(ys[0])) <= reach and np.min(np.abs(ys[-1])) <= reach
            for k in (ks[0] - 1, ks[-1] + 1):
                y = scale * (p + k + offs)
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
    got = wb_eigenfunction(idx, lam, lattice, pt)
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
    got = eigenfunction_combination(coef, lam, lattice, pt)
    scale, rect = _cover(lattice, n, pt)
    weights = coef.entries[np.argsort(_sector_index(n, l))]  # c at residue k
    want = widened_sum(n, lam, scale, rect, np.arange(dim) / dim, weights)
    assert abs(got - want) <= 1e-12 * sup_psi(lam) * np.sum(np.abs(coef.entries))
