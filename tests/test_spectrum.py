import math
import sys
import tracemalloc

import numpy as np
import pytest

from heis_spectra import spectrum
from heis_spectra.group import PolarizedPoint, scaled_square, standard_rect
from heis_spectra.spectrum import (
    dual_lattice,
    enumerate_spectrum,
    oscillator_eigenvalue,
    torus_character,
)


def test_dual_generators():
    assert dual_lattice(standard_rect(1)) == ((1.0, 0.0), (0.0, 1.0))
    assert dual_lattice(standard_rect(2))[1] == (0.0, 0.5)
    (mu, _), (_, nu) = dual_lattice(scaled_square(1))
    assert abs(mu - 1 / math.sqrt(2)) < 1e-15 and abs(nu - 1 / math.sqrt(2)) < 1e-15


@pytest.mark.parametrize("l", [1, 2, 3, 7, 50, 12345])
def test_steps_and_torus_values_from_the_squared_steps(l):
    # (P, Q) = (1, l^2) or (2l, 2l); the steps and the dual lattice's (a, den)
    # are those each kind once spelled out
    for lattice, steps, a, den in ((standard_rect(l), (1.0, float(l)), l**2, l**2),
                                   (scaled_square(l), (math.sqrt(2.0 * l),) * 2, 1, 2 * l)):
        P, Q = lattice.squared_steps
        assert steps == lattice.steps == (math.sqrt(P), math.sqrt(Q))
        assert spectrum._torus_rows(lattice, 50.0)[:2] == (a, den)


@pytest.mark.parametrize("lattice, t", [
    (standard_rect(1), 50.0), (scaled_square(3), 1e4), (standard_rect(10**8), 1e6),
    (standard_rect(10**12), 1e3), (scaled_square(10**12), 0.01), (standard_rect(10**150), 1e6),
    (standard_rect(math.isqrt(int(sys.float_info.max))), 0.5)])
def test_torus_rows_hold_exactly_the_points_with_value_at_most_t(lattice, t):
    # past num = 2^53 many nums share one float value; each row's last point and
    # the next one straddle t in the float expression the lines carry
    a, den, rows = spectrum._torus_rows(lattice, t)
    rows = list(rows)
    imax = rows[-1][0]
    assert [i for i, _ in rows] == list(range(-imax, imax + 1))
    assert spectrum._torus_value(a * (imax + 1) ** 2, den) > t
    for i, kmax in rows:
        assert spectrum._torus_value(a * i * i + kmax * kmax, den) <= t
        assert spectrum._torus_value(a * i * i + (kmax + 1) ** 2, den) > t


def test_torus_rows_refuse_a_sector_past_the_limits_before_any_row():
    with pytest.raises(ValueError, match="28470501737 rows of dual-lattice points"):
        spectrum._torus_rows(scaled_square(10**20), 10.0)
    # pi^2 num / den overflows for num near t den / pi^2
    with pytest.raises(ValueError, match="passes the largest float"):
        spectrum._torus_rows(standard_rect(10**153), 1e3)
    with pytest.raises(ValueError, match="passes the largest float"):
        spectrum._torus_rows(standard_rect(math.isqrt(int(sys.float_info.max))), 10.0)
    # a scaled square has about 2 sqrt(2 l t) / pi rows: a sector just within the
    # limit is made, one just past it refused
    limit, lattice = spectrum.MAX_TORUS_ROWS, scaled_square(10**9)
    t = (math.pi * limit / 2) ** 2 / (2 * lattice.l)
    assert 0.97 * limit < len(list(spectrum._torus_rows(lattice, 0.98**2 * t)[2])) <= limit
    with pytest.raises(ValueError, match=f"more than the limit of {limit}"):
        spectrum._torus_rows(lattice, 1.02**2 * t)


@pytest.mark.parametrize("lattice, t", [
    (standard_rect(1), 50.0), (standard_rect(1), 0.1), (scaled_square(3), 1e4),
    (standard_rect(10**8), 1e6), (scaled_square(10**12), 0.01), (standard_rect(10**150), 1e6),
    # about 1e5 rows i >= 0 in all, more than one pass of _TORUS_ROWS_AT_ONCE
    (scaled_square(10**9), 5.0)])
def test_torus_points_sum_the_rows(lattice, t):
    # a grid of two samples, each counted as the sum over its own rows
    assert spectrum._torus_points(lattice, [t / 3, t]) == [
        sum(2 * kmax + 1 for _, kmax in spectrum._torus_rows(lattice, s)[2]) for s in (t / 3, t)]


def test_torus_points_are_counted_without_a_list_of_rows():
    # about 1e5 rows, which a list holds in about 12 MB; the array pass holds a few
    # int64 arrays over the 5e4 rows i >= 0, about 40 bytes a row
    lattice = scaled_square(10**9)
    t = (math.pi * 10**5 / 2) ** 2 / (2 * lattice.l)
    rows = list(spectrum._torus_rows(lattice, t)[2])
    assert 0.97e5 < len(rows) <= 1e5
    want = sum(2 * kmax + 1 for _, kmax in rows)
    del rows
    tracemalloc.start()
    try:
        got = spectrum._torus_points(lattice, [t])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [want] and peak < 3 << 20


def test_the_spectrum_is_sorted_one_field_at_a_time():
    # the peak is the two tables of the concatenation of torus and oscillator lines;
    # gathering the sorted table as whole 56-byte records put it at 2.15 tables
    tracemalloc.start()
    try:
        lines = enumerate_spectrum(standard_rect(1), 0.0, 6900)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lines.size == 40812 and peak < 2.08 * lines.nbytes


@pytest.mark.parametrize("lattice", [standard_rect(1), standard_rect(3), scaled_square(2)])
def test_dual_pairing_integrality(lattice):
    # mu*u + nu*v in Z for the projected lattice generators (u,v)
    sp, sq = lattice.steps
    lat_gens = [(sp, 0.0), (0.0, sq)]
    for mu, nu in dual_lattice(lattice):
        for u, v in lat_gens:
            pairing = mu * u + nu * v
            assert abs(pairing - round(pairing)) < 1e-10


def test_character_values():
    assert torus_character((0, 0), PolarizedPoint(3, -2, 7)) == 1.0
    val = torus_character((1, 0), PolarizedPoint(0.5, 1.7, -4.0))
    assert abs(val + 1.0) < 1e-14
    val = torus_character((1, 1), PolarizedPoint(0.25, 0.25, 0.0))
    assert abs(val + 1.0) < 1e-14


def test_oscillator_eigenvalue_formula():
    assert abs(oscillator_eigenvalue(1, 0, 0.0) - math.pi / 2) < 1e-15
    assert abs(oscillator_eigenvalue(-2, 1, 0.5) - math.pi * (3 + 0.5) / 1) < 1e-12
    # the alpha = 1 kernel line sits at exactly zero
    assert oscillator_eigenvalue(1, 0, 1.0) == 0.0
    with pytest.raises(ValueError):
        oscillator_eigenvalue(0, 0, 0.0)


def test_small_spectrum_rect1():
    lines = enumerate_spectrum(standard_rect(1), 0.0, math.pi)
    torus, osc = lines[lines["kind"] == 0], lines[lines["kind"] == 1]
    assert torus[["value", "multiplicity"]].tolist() == [(0.0, 1)]
    got = sorted((round(value, 12), n, lam, mult)
                 for value, mult, n, lam in osc[["value", "multiplicity", "n", "lam"]].tolist())
    want = sorted([
        (round(math.pi / 2, 12), 1, 0, 1),
        (round(math.pi / 2, 12), -1, 0, 1),
        (round(math.pi, 12), 2, 0, 2),
        (round(math.pi, 12), -2, 0, 2),
    ])
    assert got == want


def test_spectrum_sorted_and_deterministic():
    a = enumerate_spectrum(standard_rect(2), 0.3, 40.0)
    b = enumerate_spectrum(standard_rect(2), 0.3, 40.0)
    assert a.tolist() == b.tolist()
    values = a["value"].tolist()
    assert values == sorted(values)


def test_zero_value_oscillator_lines_excluded():
    lines = enumerate_spectrum(standard_rect(1), 1.0, 10.0)
    osc = lines[lines["kind"] == 1]
    assert (osc["value"] > 0).all()
    # (n=1, lam=1) at alpha=1 sits at pi and must be present
    (line,) = osc[(osc["n"] == 1) & (osc["lam"] == 1)]
    assert abs(line["value"] - math.pi) < 1e-12


def test_torus_grouping_multiplicity():
    # mu^2 + nu^2 = 50 has 12 integer representations
    t = math.pi**2 * 50 + 1.0
    lines = enumerate_spectrum(standard_rect(1), 0.0, t)
    (line,) = lines[(lines["kind"] == 0) & (abs(lines["value"] - math.pi**2 * 50) < 1e-9)]
    pts = sorted((i, k) for i in range(-8, 9) for k in range(-8, 9) if i * i + k * k == 50)
    assert (5, 5) in pts and (-1, -7) in pts
    # the line counts every point and writes the first of them in (i, k) order
    assert line["multiplicity"] == len(pts) == 12
    assert (line["mu"], line["nu"]) == pts[0] == (-7, -1)


def test_completeness_small_scale():
    # independent brute-force double loop, no grouping
    tmax = 20.0
    alpha = 0.0
    total = 0
    for i in range(-10, 11):
        for k in range(-10, 11):
            if math.pi**2 * (i * i + k * k) <= tmax:
                total += 1
    for n in range(-20, 21):
        if n == 0:
            continue
        for lam in range(0, 20):
            v = oscillator_eigenvalue(n, lam, alpha)
            if 0 < v <= tmax:
                total += abs(n)
    lines = enumerate_spectrum(standard_rect(1), alpha, tmax)
    assert lines["multiplicity"].sum() == total


def test_multiplicities_near_2_63_are_exact_and_past_it_refused():
    # the lam = 0 level at 1 - alpha = 2^-52 holds about 9.7e5 lines below
    # t = 3.4e-10, of multiplicity 2l|n| on the scaled square: up to about 7.8e18 at
    # l = 4e12, which int64 holds, and 7.8e21 at l = 4e15, which it does not
    alpha, t = 1 - 2**-52, 3.4e-10
    lines = enumerate_spectrum(scaled_square(4 * 10**12), alpha, t)
    osc = lines[lines["kind"] == 1]
    assert osc["multiplicity"].tolist() == [8 * 10**12 * abs(n) for n in osc["n"].tolist()]
    assert osc["multiplicity"].max() > 2**62
    with pytest.raises(ValueError, match=r"multiplicities past 2\^63"):
        enumerate_spectrum(scaled_square(4 * 10**15), alpha, t)


def test_tmax_validation():
    with pytest.raises(ValueError):
        enumerate_spectrum(standard_rect(1), 0.0, 0.0)
    with pytest.raises(ValueError):
        enumerate_spectrum(standard_rect(1), 0.0, -3.0)


def test_square_lattice_multiplicities_use_covering_width():
    lines = enumerate_spectrum(scaled_square(1), 0.0, math.pi + 0.01)
    osc = lines[lines["kind"] == 1]
    assert osc.size and (osc["multiplicity"] == 2 * abs(osc["n"])).all()
