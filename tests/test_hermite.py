import math

import numpy as np
import pytest
from numpy.polynomial import hermite as nph
from scipy.integrate import quad

from heis_spectra.hermite import hermite_function, hermite_poly, scaled_hermite

# frozen oracle values (30-digit evaluation)
E_MINUS_HALF = 0.606530659712633423603799534991
E_MINUS_PI = 0.0432139182637722497744177371717


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
    assert hermite_function(0, 0.0) == 1.0
    assert hermite_function(1, 0.0) == 0.0
    assert abs(hermite_function(0, 1.0) - E_MINUS_HALF) < 1e-14


def test_order_guard():
    with pytest.raises(ValueError):
        hermite_poly(201, 0.0)
    with pytest.raises(ValueError):
        hermite_poly(-1, 0.0)
    with pytest.raises(ValueError):
        hermite_poly(1.5, 0.0)
    assert np.isfinite(hermite_poly(200, 1.0))


def test_oscillator_ode_by_finite_differences():
    # -F'' + y^2 F = (2 lam + 1) F
    h = 1e-4
    for lam in range(7):
        for y in (-1.7, -0.3, 0.5, 1.9):
            f = hermite_function(lam, y)
            d2 = (hermite_function(lam, y + h) - 2 * f + hermite_function(lam, y - h)) / h**2
            assert abs(-d2 + y * y * f - (2 * lam + 1) * f) < 2e-4


def test_scaled_values():
    assert scaled_hermite(1, 0, 1, "plain", 0.0) == 1.0
    assert scaled_hermite(1, 0, 1, "sqrt2l", 0.0) == 1.0
    assert abs(scaled_hermite(1, 0, 1, "plain", 1.0) - E_MINUS_PI) < 1e-14


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
    # the recurrence overflows far below MAX_ORDER; inf * 0 used to give nan
    with pytest.raises(ValueError, match=r"order 200 .*y = 25\.0"):
        hermite_function(200, 25.0)
    with pytest.raises(ValueError, match=r"order 170 .*y = 40\.0"):
        hermite_function(170, np.array([0.0, 1.0, 40.0]))
    with pytest.raises(ValueError, match=r"polynomial of order 200 .*y = 1000\.0"):
        hermite_poly(200, 1e3)
    with pytest.raises(ValueError, match="order 170"):
        scaled_hermite(1, 170, 1, "plain", 16.0)


def test_finite_values_unchanged_near_overflow():
    # a finite polynomial times an underflowed Gaussian is a finite zero
    assert hermite_function(10, 40.0) == 0.0
    y = np.linspace(-20.0, 20.0, 41)
    assert np.all(np.isfinite(hermite_function(170, y)))
    assert np.array_equal(hermite_function(170, y), [hermite_function(170, v) for v in y])
