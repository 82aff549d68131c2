import math

import numpy as np
import pytest

from heis_spectra.group import PolarizedPoint, scaled_square, standard_rect
from heis_spectra.operator import apply_folland_stein, folland_stein_residual
from heis_spectra.spectrum import oscillator_eigenvalue, torus_character
from heis_spectra.weil_brezin import WBIndex, wb_eigenfunction


def test_constant_killed():
    res = folland_stein_residual(lambda pt: 1.0, 0.8, 0.0, PolarizedPoint(0.3, -1.2, 0.5))
    assert res == 0.0


def test_character_residual():
    f = lambda pt: torus_character((1, 0), pt)
    rng = np.random.default_rng(41)
    for _ in range(5):
        pt = PolarizedPoint(*rng.uniform(-1, 1, size=3))
        assert folland_stein_residual(f, 0.0, math.pi**2, pt, 1e-3) < 1e-4


def test_character_residual_alpha_independent():
    # S kills chi, so the eigenvalue has no alpha term
    f = lambda pt: torus_character((1, 1), pt)
    pt = PolarizedPoint(0.2, 0.4, -0.3)
    assert folland_stein_residual(f, 0.7, 2 * math.pi**2, pt, 1e-3) < 1e-3


def test_wb_eigenfunction_residual_rect():
    idx = WBIndex(1, 0, 0, 1)
    lat = standard_rect(1)
    f = lambda pt: wb_eigenfunction(idx, 0, lat, pt)
    rng = np.random.default_rng(42)
    for _ in range(10):
        pt = PolarizedPoint(*rng.uniform(-0.8, 0.8, size=3))
        assert folland_stein_residual(f, 0.0, math.pi / 2, pt, 1e-3) < 1e-3


def test_wb_eigenfunction_residual_square():
    idx = WBIndex(-1, 0, 1, 2)
    lat = scaled_square(1)
    f = lambda pt: wb_eigenfunction(idx, 1, lat, pt)
    E = oscillator_eigenvalue(-1, 1, 0.5)
    pt = PolarizedPoint(0.3, 0.2, 0.1)
    assert folland_stein_residual(f, 0.5, E, pt, 1e-3) < 1e-3


def test_second_order_convergence():
    # halving h should cut the residual by about 4 once discretization dominates
    f = lambda pt: torus_character((2, 1), pt)
    E = math.pi**2 * 5
    pt = PolarizedPoint(0.15, 0.35, 0.0)
    r2 = folland_stein_residual(f, 0.0, E, pt, 2e-3)
    r1 = folland_stein_residual(f, 0.0, E, pt, 1e-3)
    assert r2 / r1 == pytest.approx(4.0, rel=0.5)


def test_step_validation():
    with pytest.raises(ValueError):
        apply_folland_stein(lambda pt: 1.0, 0.0, PolarizedPoint(0, 0, 0), h=0.0)
