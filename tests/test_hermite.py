import math
import warnings

import mpmath
import numpy as np
import pytest
from numpy.polynomial import hermite as nph
from scipy.integrate import quad

from heis_spectra.hermite import hermite_function, hermite_poly, scaled_hermite

# frozen oracle values (30-digit evaluation)
E_MINUS_HALF = 0.606530659712633423603799534991
E_MINUS_PI = 0.0432139182637722497744177371717
PI_MINUS_QUARTER = 0.751125544464942482861010433688


def mp_psi(lam, y):
    """psi_lam(y) = H_lam(y) e^{-y^2/2} / sqrt(2^lam lam! sqrt(pi)) in 40-digit arithmetic."""
    with mpmath.workdps(40):
        y = mpmath.mpf(y)
        norm = mpmath.sqrt(mpmath.mpf(2) ** lam * mpmath.factorial(lam) * mpmath.sqrt(mpmath.pi))
        return float(mpmath.hermite(lam, y) * mpmath.exp(-y * y / 2) / norm)


def test_low_order_values():
    assert hermite_poly(0, 17.3) == 1.0
    assert hermite_poly(1, 3.0) == 6.0
    assert hermite_poly(2, 1.0) == 2.0


def test_against_numpy_hermite_basis():
    rng = np.random.default_rng(21)
    for lam in range(31):
        coeffs = np.zeros(lam + 1)
        coeffs[lam] = 1.0
        y = rng.uniform(-4, 4, size=8)
        ref = nph.hermval(y, coeffs)
        got = hermite_poly(lam, y)
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-10)


def test_parity():
    rng = np.random.default_rng(22)
    y = rng.uniform(0, 5, size=50)
    for lam in range(13):
        assert np.allclose(hermite_poly(lam, -y), (-1.0) ** lam * hermite_poly(lam, y))
        assert np.allclose(hermite_function(lam, -y), (-1.0) ** lam * hermite_function(lam, y))


def test_function_values():
    assert abs(hermite_function(0, 0.0) - PI_MINUS_QUARTER) < 1e-16
    assert hermite_function(1, 0.0) == 0.0
    assert abs(hermite_function(0, 1.0) - PI_MINUS_QUARTER * E_MINUS_HALF) < 1e-16


def test_order_guard():
    for f in (hermite_poly, hermite_function):
        with pytest.raises(ValueError):
            f(-1, 0.0)
        with pytest.raises(ValueError):
            f(1.5, 0.0)
    # no order cap: H_201(0) = 0 exactly, and psi_5000 is finite and bounded
    assert hermite_poly(201, 0.0) == 0.0
    assert np.isfinite(hermite_poly(200, 1.0))
    vals = hermite_function(5000, np.linspace(-110.0, 110.0, 23))
    assert np.all(np.abs(vals) <= PI_MINUS_QUARTER)


@pytest.mark.parametrize("lam", [0, 1, 2, 7, 30, 99, 170, 200, 201, 500, 1000, 2000])
def test_against_mpmath(lam):
    # through the oscillation range and 8 past the turning point sqrt(2 lam + 1),
    # where the unspread start pi^{-1/4} e^{-y^2/2} would underflow from |y| = 38.6
    turn = math.sqrt(2 * lam + 1)
    ys = np.concatenate([np.linspace(-turn - 8.0, turn + 8.0, 41), [0.3, -1.7]])
    got = hermite_function(lam, ys)
    want = np.array([mp_psi(lam, y) for y in ys])
    assert np.max(np.abs(got - want)) < 1e-13
    assert np.array_equal(got, [hermite_function(lam, y) for y in ys])


def test_against_mpmath_at_the_high_order_probe():
    assert abs(hermite_function(2000, 62.0) - mp_psi(2000, 62.0)) < 1e-12
    assert abs(hermite_function(2000, 62.0)) > 0.2
    y = 16.0 * math.sqrt(2 * math.pi)
    assert abs(scaled_hermite(1, 170, 1, "plain", 16.0) - mp_psi(170, y)) < 1e-13


def test_oscillator_ode_by_finite_differences():
    # -psi'' + y^2 psi = (2 lam + 1) psi
    h = 1e-4
    for lam in range(7):
        for y in (-1.7, -0.3, 0.5, 1.9):
            f = hermite_function(lam, y)
            d2 = (hermite_function(lam, y + h) - 2 * f + hermite_function(lam, y - h)) / h**2
            assert abs(-d2 + y * y * f - (2 * lam + 1) * f) < 2e-4


@pytest.mark.parametrize("lam", [0, 3, 10, 40, 120, 170, 200])
def test_oscillator_ode_relative_residual(lam):
    # the step is a thousandth of the oscillation length 2 pi / sqrt(2 lam + 1); the
    # residual is measured against the size of the equation's terms on the stencil,
    # so it stays meaningful where psi is small and at high order
    turn = math.sqrt(2 * lam + 1)
    h = 2e-3 * math.pi / turn
    ys = np.random.default_rng(lam).uniform(-turn - 2.0, turn + 2.0, size=40)
    f = hermite_function(lam, ys)
    up, down = hermite_function(lam, ys + h), hermite_function(lam, ys - h)
    resid = np.abs(-(up - 2 * f + down) / h**2 + (ys * ys - turn * turn) * f)
    peak = np.maximum(np.abs(f), np.maximum(np.abs(up), np.abs(down)))
    size = (turn * turn + ys * ys) * peak
    assert np.max(resid / size) < 5e-5


@pytest.mark.parametrize("lam", [0, 1, 6, 45, 201, 700])
def test_unit_norm_by_trapezoid(lam):
    # psi^2 has spectral width 2 sqrt(2 lam + 1): the trapezoid rule with a smaller
    # step than pi / (sqrt(2 lam + 1) + 6) is exact to rounding
    turn = math.sqrt(2 * lam + 1)
    h = math.pi / (turn + 6.0)
    sq = hermite_function(lam, np.arange(-turn - 10.0, turn + 10.0, h)) ** 2
    assert abs(h * np.sum(sq) - 1.0) < 1e-13


def test_scaled_values():
    assert scaled_hermite(1, 0, 1, "plain", 0.0) == hermite_function(0, 0.0)
    assert scaled_hermite(1, 0, 1, "sqrt2l", 0.0) == hermite_function(0, 0.0)
    assert abs(scaled_hermite(1, 0, 1, "plain", 1.0) - PI_MINUS_QUARTER * E_MINUS_PI) < 1e-16


def test_sqrt2l_reduces_to_plain_at_half():
    rng = np.random.default_rng(23)
    x = rng.uniform(-2, 2, size=20)
    for n in (1, -2, 3):
        for lam in (0, 1, 4):
            a = scaled_hermite(n, lam, 0.5, "sqrt2l", x)
            b = scaled_hermite(n, lam, 1, "plain", x)
            assert np.allclose(a, b, rtol=1e-13, atol=1e-13)


def test_scaled_input_validation():
    with pytest.raises(ValueError):
        scaled_hermite(0, 0, 1, "plain", 0.0)
    with pytest.raises(ValueError):
        scaled_hermite(1, 0, 1, "other", 0.0)
    with pytest.raises(ValueError):
        scaled_hermite(1, 0, 0, "sqrt2l", 0.0)


@pytest.mark.parametrize("scaling,n,l", [("plain", 1, 1), ("plain", -2, 1), ("sqrt2l", 1, 1), ("sqrt2l", 2, 3)])
def test_scaled_oscillator_ode(scaling, n, l):
    # after y = scale*x the ODE reads -f'' + scale^4 x^2 f = (2 lam+1) scale^2 f
    scale2 = 2 * math.pi * abs(n) if scaling == "plain" else 4 * math.pi * l * abs(n)
    h = 1e-4
    for lam in (0, 1, 3):
        for x in (-0.4, 0.1, 0.55):
            f = scaled_hermite(n, lam, l, scaling, x)
            d2 = (scaled_hermite(n, lam, l, scaling, x + h) - 2 * f
                  + scaled_hermite(n, lam, l, scaling, x - h)) / h**2
            lhs = -d2 + scale2**2 * x * x * f
            rhs = (2 * lam + 1) * scale2 * f
            assert abs(lhs - rhs) < 1e-3 * max(1.0, abs(rhs))


def test_fourier_transform_phase():
    # (2 pi)^{-1/2} Int F_lam(x) e^{-i xi x} dx = e^{(3/2) pi i lam} F_lam(xi)
    for lam in range(7):
        for xi in (0.0, 0.3, -0.7, 1.1):
            re = quad(lambda x: hermite_function(lam, x) * math.cos(xi * x), -15, 15,
                      epsabs=1e-10, epsrel=1e-10, limit=200)[0]
            im = quad(lambda x: -hermite_function(lam, x) * math.sin(xi * x), -15, 15,
                      epsabs=1e-10, epsrel=1e-10, limit=200)[0]
            got = complex(re, im) / math.sqrt(2 * math.pi)
            want = np.exp(1.5j * math.pi * lam) * hermite_function(lam, xi)
            assert abs(got - want) < 1e-8


def test_overflow_raises_naming_order_and_argument():
    # the unnormalised polynomial overflows and raises, without a numpy warning first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"order 200 .*y = 25\.0"):
            hermite_poly(200, 25.0)
        with pytest.raises(ValueError, match=r"order 170 .*y = 40\.0"):
            hermite_poly(170, np.array([0.0, 1.0, 40.0]))
        with pytest.raises(ValueError, match=r"polynomial of order 200 .*y = 1000\.0"):
            hermite_poly(200, 1e3)


def test_high_orders_are_finite_where_the_unnormalised_recurrence_overflowed():
    # psi_lam stays in [-pi^{-1/4}, pi^{-1/4}] where H_lam passes the float maximum
    for lam, y in ((200, 25.0), (170, 40.0), (170, 16.0 * math.sqrt(2 * math.pi))):
        assert abs(hermite_function(lam, y) - mp_psi(lam, y)) < 1e-13
    assert np.all(np.isfinite(hermite_function(170, np.array([0.0, 1.0, 40.0]))))


def test_finite_values_unchanged_near_overflow():
    # a finite polynomial times an underflowed Gaussian is a finite zero
    assert hermite_function(10, 40.0) == 0.0
    y = np.linspace(-20.0, 20.0, 41)
    assert np.all(np.isfinite(hermite_function(170, y)))
    assert np.array_equal(hermite_function(170, y), [hermite_function(170, v) for v in y])
