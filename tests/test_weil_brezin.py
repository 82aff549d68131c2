import math

import numpy as np
import pytest

from heis_spectra.group import PolarizedPoint, polarized_mul, scaled_square, standard_rect
from heis_spectra.hermite import hermite_function
from heis_spectra.weil_brezin import (
    TruncationError,
    WBIndex,
    schrodinger_act,
    weil_brezin_eval,
    wb_eigenfunction,
)

# frozen theta values (30-digit oracle), times pi^{-1/4} = psi_0(0) for the
# normalised seeds: pi^{-1/4} theta_3(e^{-pi}) = 1/Gamma(3/4)
PI_MINUS_QUARTER = 0.751125544464942482861010433688
THETA_PI = 1.08643481121330801457531612151 * PI_MINUS_QUARTER
THETA_2PI = 1.00373488548773909104767959507 * PI_MINUS_QUARTER
E_MINUS_PI = 0.0432139182637722497744177371717 * PI_MINUS_QUARTER

ORIGIN = PolarizedPoint(0.0, 0.0, 0.0)


def _plain_seed(n, lam):
    # psi_lam(sqrt(2 pi |n|) x), the rectangular lattice's seed
    return lambda x: hermite_function(lam, math.sqrt(2 * math.pi * abs(n)) * x)


def test_index_validation():
    with pytest.raises(ValueError):
        WBIndex(0, 0, 0, 1)
    with pytest.raises(ValueError):
        WBIndex(2, 2, 0, 1)
    with pytest.raises(ValueError):
        WBIndex(2, -1, 0, 1)
    with pytest.raises(ValueError):
        WBIndex(2, 0, 1, 1)
    with pytest.raises(ValueError):
        WBIndex(2, 0, 0, 0)
    WBIndex(-3, 2, 3, 4)


def test_theta_sum_at_origin():
    val = weil_brezin_eval(WBIndex(1, 0, 0, 1), _plain_seed(1, 0), ORIGIN, tol=1e-14)
    assert abs(val - THETA_PI) < 1e-12
    assert abs(val - 1 / math.gamma(0.75)) < 1e-15


def test_central_periodicity():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.choice([-3, -1, 1, 2]))
        idx = WBIndex(n, int(rng.integers(0, abs(n))), int(rng.integers(0, 2)), 2)
        p, q, s = rng.uniform(-1, 1, size=3)
        a = weil_brezin_eval(idx, _plain_seed(n, 1), PolarizedPoint(p, q, s))
        b = weil_brezin_eval(idx, _plain_seed(n, 1), PolarizedPoint(p, q, s + 1.0))
        assert abs(a - b) < 1e-12


def test_translation_reindex():
    idx = WBIndex(1, 0, 0, 1)
    a = weil_brezin_eval(idx, _plain_seed(1, 0), PolarizedPoint(1.0, 0.0, 0.0))
    b = weil_brezin_eval(idx, _plain_seed(1, 0), ORIGIN)
    assert abs(a - b) < 1e-12


def test_truncation_error_for_nondecaying_seed():
    with pytest.raises(TruncationError):
        weil_brezin_eval(WBIndex(1, 0, 0, 1), lambda x: 1.0, ORIGIN)


def test_tol_validation():
    for tol in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="tol must be positive"):
            weil_brezin_eval(WBIndex(1, 0, 0, 1), _plain_seed(1, 0), ORIGIN, tol=tol)
        with pytest.raises(ValueError, match="tol must be positive"):
            wb_eigenfunction(WBIndex(1, 0, 0, 1), 0, standard_rect(1), ORIGIN, tol=tol)
    # a relative tol of 10 or more keeps only the oscillation range |y| <= sqrt(2 lam + 1)
    for tol in (10.0, 1e3, math.inf):
        val = wb_eigenfunction(WBIndex(1, 0, 0, 1), 0, standard_rect(1), ORIGIN, tol=tol)
        assert val == hermite_function(0, 0.0)


def test_eigenfunction_rect_origin():
    idx = WBIndex(1, 0, 0, 1)
    val = wb_eigenfunction(idx, 0, standard_rect(1), ORIGIN, tol=1e-14)
    assert abs(val - THETA_PI) < 1e-12
    assert abs(val.imag) < 1e-14


def test_eigenfunction_square_origin():
    # sqrt2l seed with l=1 is e^{-2 pi x^2}; the rescaling fixes the origin
    idx = WBIndex(1, 0, 0, 2)
    val = wb_eigenfunction(idx, 0, scaled_square(1), ORIGIN, tol=1e-14)
    assert abs(val - THETA_2PI) < 1e-12


def test_eigenfunction_lattice_consistency_checked():
    with pytest.raises(ValueError):
        wb_eigenfunction(WBIndex(1, 0, 0, 2), 0, standard_rect(1), ORIGIN)
    with pytest.raises(ValueError):
        wb_eigenfunction(WBIndex(1, 0, 0, 1), 0, scaled_square(1), ORIGIN)


@pytest.mark.parametrize("lattice", [standard_rect(1), standard_rect(2), scaled_square(1), scaled_square(2)])
def test_lattice_invariance(lattice):
    rng = np.random.default_rng(32)
    width = lattice.covering_width
    sp, sq = lattice.steps
    for _ in range(20):
        n = int(rng.choice([-2, -1, 1, 3]))
        idx = WBIndex(n, int(rng.integers(0, abs(n))), int(rng.integers(0, width)), width)
        lam = int(rng.integers(0, 3))
        pt = PolarizedPoint(*rng.uniform(-1, 1, size=3))
        i, j, k = (int(v) for v in rng.integers(-2, 3, size=3))
        gamma = PolarizedPoint(i * sp, j * sq, float(k))
        a = wb_eigenfunction(idx, lam, lattice, polarized_mul(gamma, pt))
        b = wb_eigenfunction(idx, lam, lattice, pt)
        assert abs(a - b) < 1e-8


def test_schrodinger_basics():
    g = _plain_seed(1, 0)
    assert abs(schrodinger_act(1.0, PolarizedPoint(0, 0, 0), g, 0.3) - g(0.3)) < 1e-15
    assert abs(schrodinger_act(1.0, PolarizedPoint(0, 0, 1.0), g, 0.3) - g(0.3)) < 1e-12
    assert abs(schrodinger_act(1.0, PolarizedPoint(1.0, 0, 0), g, 0.0) - E_MINUS_PI) < 1e-14
    with pytest.raises(ValueError):
        schrodinger_act(0.0, PolarizedPoint(0, 0, 0), g, 0.0)


def test_schrodinger_grid_unitarity():
    g = _plain_seed(1, 2)
    xs = np.arange(-8.0, 8.0, 0.01)
    h = PolarizedPoint(0.37, -1.2, 0.51)
    before = np.trapezoid([abs(g(x)) ** 2 for x in xs], xs)
    after = np.trapezoid([abs(schrodinger_act(2.0, h, g, x)) ** 2 for x in xs], xs)
    assert abs(after - before) < 1e-6 * max(1.0, before)


def test_intertwining():
    # R(h) o W = W o pi_n(h): 50 random (h, pt) across sectors and widths
    rng = np.random.default_rng(33)
    cases = []
    for width in (1, 2, 4):
        for n in (-3, -1, 1, 2):
            cases.append((n, width))
    for trial in range(50):
        n, width = cases[trial % len(cases)]
        idx = WBIndex(n, int(rng.integers(0, abs(n))), int(rng.integers(0, width)), width)
        lam = int(rng.integers(0, 4))
        g = _plain_seed(n, lam)
        h = PolarizedPoint(*rng.uniform(-1.5, 1.5, size=3))
        pt = PolarizedPoint(*rng.uniform(-1.5, 1.5, size=3))
        lhs = weil_brezin_eval(idx, g, polarized_mul(pt, h))
        rhs = weil_brezin_eval(idx, lambda x: schrodinger_act(n, h, g, x), pt)
        assert abs(lhs - rhs) < 1e-8
