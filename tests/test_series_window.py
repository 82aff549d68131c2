"""The block-evaluated series window against the scalar window loop it replaced.

The reference below is the per-seed loop that evaluated the Weil-Brezin series
one seed at a time.  For a single basis function the array window must pick the
same window and give the same floating-point value, compared with ==.  An
invariant combination is one series over all N residues of the sector, so it
is compared with the per-(a, b) sum of reference series within a bound, and its
invariance under the generator is checked at N up to 128.
"""

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
from heis_spectra.hermite import hermite_function, scaled_hermite
from heis_spectra.invariants import (
    CoefficientVector,
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


def reference_eigenfunction(idx, lam, lattice, pt, tol=1e-12):
    if lattice.kind == "standard-rect":
        return reference_eval(idx, lambda x: scaled_hermite(idx.n, lam, 1, "plain", x), pt, tol)
    seed = lambda x: scaled_hermite(idx.n, lam, lattice.l, "sqrt2l", x)
    return reference_eval(idx, seed, apply_symplectic(scaling_map(lattice.l), pt), tol)


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


@settings(max_examples=150, deadline=None, database=None)
@given(eigenfunctions(), st.lists(points, min_size=1, max_size=4))
def test_eigenfunction_bit_equal_to_scalar_loop(ef, pts):
    idx, lam, lattice = ef
    want = [reference_eigenfunction(idx, lam, lattice, pt) for pt in pts]
    assert [wb_eigenfunction(idx, lam, lattice, pt) for pt in pts] == want
    assert wb_eigenfunction_values(idx, lam, lattice, pts) == want


@settings(max_examples=60, deadline=None, database=None)
@given(eigenfunctions(), coords, st.lists(st.tuples(coords, coords), min_size=1, max_size=6))
def test_row_reuses_window_bit_equal(ef, p, qs):
    # points sharing p share one window; each value still equals its own loop
    idx, lam, lattice = ef
    pts = [PolarizedPoint(p, q, s) for q, s in qs]
    want = [reference_eigenfunction(idx, lam, lattice, pt) for pt in pts]
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
    want, scale = 0j, 0.0
    for a in range(abs(n)):
        for b in range(2 * l):
            c = entries[a * 2 * l + b]
            if c != 0:
                term = c * reference_eigenfunction(WBIndex(n, a, b, 2 * l), lam, lattice, pt)
                want += term
                scale += abs(term)
    # one series over all residues sums in another order and cuts its window by
    # the largest seed of each edge row, so it agrees within rounding and the tail
    got = eigenfunction_combination(coef, lam, lattice, pt)
    assert abs(got - want) <= 1e-13 * scale + 1e-12 * np.sum(np.abs(entries))


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
    # the seed vanishes at residues 0 and 1 (fractional part below 1/2) and decays
    # slowly at 2 and 3: the window closes only when the largest seed of each
    # edge row is under tol/10, and matches the per-offset windows' sum
    def g(x):
        return math.exp(-abs(x)) if x % 1 >= 0.5 else 0.0

    tol, pt = 1e-12, PolarizedPoint(0.3, 0.0, 0.0)
    values = lambda xs: np.array([complex(g(x)) for x in xs.tolist()])
    _, seeds = weil_brezin._series_window(values, 4, pt.p, np.arange(4) / 4, tol, "the seed")
    rows = np.abs(seeds).reshape(-1, 4).max(axis=1)
    assert max(rows[0], rows[-1]) < tol / 10 <= max(rows[1], rows[-2])
    want = sum(reference_eval(WBIndex(4, r, 0, 1), g, pt, tol) for r in range(4))
    assert abs(np.sum(seeds) - want) <= 4 * tol


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


@pytest.mark.parametrize("g,tol", [
    (_slow_seed, 1e-3),  # window of about 100 terms: several doubled blocks
    (_slow_seed, 1e-6),
    (_complex_seed, 1e-12),
    (lambda x: math.exp(-abs(x)) * (2.0 + math.cos(7 * x)), 1e-12),
])
def test_generic_seed_bit_equal(g, tol):
    rng = np.random.default_rng(41)
    for n in (1, -3):
        idx = WBIndex(n, 1 % abs(n), 1, 2)
        for _ in range(5):
            pt = PolarizedPoint(*rng.uniform(-3, 3, size=3))
            assert weil_brezin_eval(idx, g, pt, tol) == reference_eval(idx, g, pt, tol)


@pytest.mark.parametrize("g", [lambda x: 1.0, lambda x: abs(x), lambda x: 1.0 + math.cos(x)])
def test_seeds_without_decay_stall_like_the_loop(g):
    idx = WBIndex(1, 0, 0, 1)
    pt = PolarizedPoint(0.4, 0.1, 0.0)
    with pytest.raises(TruncationError) as want:
        reference_eval(idx, g, pt)
    with pytest.raises(TruncationError) as got:
        weil_brezin_eval(idx, g, pt)
    assert str(got.value) == str(want.value)


def test_stall_count_boundary():
    # flat edges grow (>=) from K = 3 on; the 61st growth in a row, at K = 63, stalls
    idx = WBIndex(1, 0, 0, 1)
    pt = PolarizedPoint(0.0, 0.2, 0.1)
    flat_to_62 = lambda x: 1.0 if abs(x) < 62.5 else 0.0
    assert weil_brezin_eval(idx, flat_to_62, pt) == reference_eval(idx, flat_to_62, pt)
    flat_to_63 = lambda x: 1.0 if abs(x) < 63.5 else 0.0
    with pytest.raises(TruncationError, match="not shrinking"):
        reference_eval(idx, flat_to_63, pt)
    with pytest.raises(TruncationError, match="not shrinking"):
        weil_brezin_eval(idx, flat_to_63, pt)


def test_stall_on_the_closing_edge():
    # edge sums grow 61 times up to K = 63, where both edges first fall under
    # tol/10 = 0.1: the stall is checked before the window closes
    def g(x):
        if abs(x) == 63:
            return 0.09
        return 0.1 * (1 + x / 1000) if 2 <= x <= 62 else 0.0

    idx = WBIndex(1, 0, 0, 1)
    pt = PolarizedPoint(0.0, 0.2, 0.1)
    for f in (reference_eval, weil_brezin_eval):
        with pytest.raises(TruncationError, match="not shrinking"):
            f(idx, g, pt, 1.0)


def test_nan_edge_keeps_the_window_open_while_the_other_is_wide():
    # a nan edge counts as small, as in `nan >= thr or ...`; the flat right
    # edge then stalls before the window closes
    g = lambda x: math.nan if x == -2.0 else (1.0 if x > 0 else math.exp(x))
    idx = WBIndex(1, 0, 0, 1)
    pt = PolarizedPoint(0.0, 0.0, 0.0)
    for f in (reference_eval, weil_brezin_eval):
        with pytest.raises(TruncationError, match="not shrinking"):
            f(idx, g, pt)


def test_nonfinite_seed_raises():
    idx = WBIndex(1, 0, 0, 1)
    origin = PolarizedPoint(0.0, 0.0, 0.0)
    seed = lambda x: math.nan if x == 1.0 else math.exp(-x * x)
    with pytest.raises(ValueError, match=r"not finite at x = 1\.0"):
        weil_brezin_eval(idx, seed, origin)
    with pytest.raises(ValueError, match="Hermite seed of order 170"):
        wb_eigenfunction(idx, 170, standard_rect(1), origin)
