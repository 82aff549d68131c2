import math
import time

import pytest
from scipy.integrate import quad
from scipy.special import polygamma

from heis_spectra import spectrum
from heis_spectra.group import gamma_pi, gamma_pi_half, scaled_square, standard_rect
from heis_spectra.spectrum import MAX_COUNT_ENTRIES, enumerate_spectrum
from heis_spectra.weyl import (
    CountingSeries,
    ParitySetCounts,
    counting_columns,
    counting_function,
    default_tgrid,
    oscillator_pair_sums,
    parity_counts,
    volume,
    weyl_constant,
    weyl_ratio,
    weyl_ratio_check,
)


def test_volume_examples():
    assert volume(standard_rect(1)) == 1.0
    assert volume(standard_rect(2)) == 2.0
    assert volume(scaled_square(1)) == 2.0
    assert volume(scaled_square(3)) == 6.0
    assert volume(gamma_pi(1)) == 1.0
    assert volume(gamma_pi(2)) == 2.0
    assert volume(gamma_pi_half(1)) == 0.5
    assert volume(gamma_pi_half(2)) == 1.0


def test_volume_rejects_other_types():
    with pytest.raises(TypeError):
        volume(42)


def test_constant_center_and_endpoints():
    # closed forms: A_0 = 1/2 and A_{+-1} = 1/6
    assert abs(weyl_constant(0.0).value - 0.5) < 1e-8
    assert abs(weyl_constant(1.0).value - 1.0 / 6.0) < 1e-8
    assert abs(weyl_constant(-1.0).value - 1.0 / 6.0) < 1e-8


def test_constant_quadrature_error_small():
    for a in (0.0, 0.5, 0.95, 1.0):
        assert weyl_constant(a).quadrature_error < 1e-10


@pytest.mark.parametrize("a", [0.1, 0.3, 0.55, 0.8, 0.95, 1.0])
def test_constant_symmetry(a):
    assert abs(weyl_constant(a).value - weyl_constant(-a).value) <= 1e-10


def test_constant_closed_values():
    # trigamma reflection gives A_{1/2} = 1 and A_{3/4} = 2 + sqrt(2)
    assert abs(weyl_constant(0.5).value - 1.0) < 1e-8
    assert abs(weyl_constant(0.75).value - (2.0 + math.sqrt(2.0))) < 1e-8


@pytest.mark.parametrize("a", [-0.9, -0.6, -0.3, 0.0, 0.3, 0.6, 0.9])
def test_constant_trigamma_route(a):
    # independent evaluation through the 1/sinh series
    assert abs(weyl_constant(a).value - _trigamma_oracle(a)) < 1e-8


def _trigamma_oracle(a):
    # the 1/sinh series summed by the trigamma function
    return (polygamma(1, (1 + a) / 2) + polygamma(1, (1 - a) / 2)) / (2 * math.pi**2)


@pytest.mark.parametrize("a", [0.999, -0.999, 0.9999, -0.9999])
def test_constant_near_endpoints(a):
    # the kernel decays like e^{-(1-|a|)x}; a cut-off integral loses 41% at 0.999
    oracle = _trigamma_oracle(a)
    assert abs(weyl_constant(a).value - oracle) <= 1e-12 * oracle


def _damped_kernel(x, a):
    # x/sinh(x) cosh(a x), grouped so neither factor overflows at large x
    if x < 1e-8:
        return 1.0 - (1.0 - 3.0 * a * a) * x * x / 6.0
    return x * (math.exp(-(1 - a) * x) + math.exp(-(1 + a) * x)) / (1.0 - math.exp(-2.0 * x))


@pytest.mark.parametrize("a", [-0.9, -0.5, 0.0, 0.2, 0.7, 0.9])
def test_constant_quadrature_oracle(a):
    # A_a = (2/pi^2) Int_0^inf x/sinh(x) cosh(a x) dx, integrated to infinity
    val, _ = quad(lambda x: _damped_kernel(x, a), 0.0, math.inf,
                  epsabs=1e-13, epsrel=1e-12, limit=500)
    assert abs(2.0 * val / math.pi**2 - weyl_constant(a).value) <= 1e-9 * weyl_constant(a).value


def test_endpoint_quadrature_oracle():
    # A_1 = (1/pi^2) Int_0^inf (x/sinh x)^2 dx
    val, _ = quad(lambda x: _damped_kernel(x, 0.0) ** 2, 0.0, math.inf,
                  epsabs=1e-13, epsrel=1e-12, limit=300)
    assert abs(val / math.pi**2 - weyl_constant(1.0).value) < 1e-12


def test_constant_rounding_bound():
    for a in (0.0, 0.3, 0.999, 0.9999, 1.0):
        w = weyl_constant(a)
        exact = 1.0 / 6.0 if a == 1.0 else _trigamma_oracle(a)
        assert abs(w.value - exact) <= w.quadrature_error + 1e-14 * exact


def test_constant_grows_toward_endpoints():
    # A is even and increases on [0, 1); the value at |alpha| = 1 is an
    # isolated drop because the kernel is removed from the count there
    samples = [weyl_constant(a).value for a in (0.0, 0.25, 0.5, 0.75, 0.9)]
    assert all(x < y for x, y in zip(samples, samples[1:]))
    assert weyl_constant(1.0).value < samples[0]


def test_constant_continuity():
    assert abs(weyl_constant(0.3).value - weyl_constant(0.3 + 1e-6).value) < 1e-4


def test_constant_domain():
    for bad in (1.5, -1.0000001):
        with pytest.raises(ValueError):
            weyl_constant(bad)


def test_parity_counts_small():
    pc = parity_counts(math.pi, 0.0)
    assert (pc.even_count, pc.odd_count) == (2, 2)


@pytest.mark.parametrize("t", [10.0, 100.0, 1000.0])
@pytest.mark.parametrize("a", [0.0, 0.5])
def test_parity_cancellation_bound(t, a):
    pc = parity_counts(t, a)
    assert abs(pc.even_count - pc.odd_count) <= 2 * (t / math.pi + 1)


def test_parity_counts_validation():
    with pytest.raises(ValueError):
        parity_counts(0.0, 0.0)
    with pytest.raises(ValueError):
        ParitySetCounts(1.0, 50, 0)


def test_pair_sums_example():
    assert oscillator_pair_sums(math.pi, 0.0, 1) == (4, 12)


def test_pair_sum_ratio_decreases():
    ratios = []
    for t in (50.0, 200.0, 800.0):
        ones, mults = oscillator_pair_sums(t, 0.0, 1)
        ratios.append(ones / mults)
    assert ratios[0] > ratios[1] > ratios[2]


@pytest.mark.parametrize("a", [0.0, 0.5])
@pytest.mark.parametrize("t", [50.0, 500.0])
def test_count_sandwich(t, a):
    # per-sign pair count F sits between the harmonic sum H and H - (floor(ct)+1)
    c = 2.0 / math.pi
    for sgn in (1, -1):
        factor0 = 1 - a * sgn
        F = sum(
            1
            for lam in range(int(math.floor(c * t)) + 1)
            for _ in range(int(math.floor(c * t / (2 * lam + factor0))))
        )
        H = sum(c * t / (2 * lam + factor0) for lam in range(int(math.floor(c * t)) + 1))
        assert H - (math.floor(c * t) + 1) <= F <= H
        # and F agrees with the enumerated admissible set
        pc = parity_counts(t, a)
        ones, _ = oscillator_pair_sums(t, a, 1)
        assert pc.even_count + pc.odd_count == ones


def test_counting_rect_example():
    series = counting_function(standard_rect(1), 0.0, [math.pi])
    assert series.oscillator == (6,)
    assert series.torus == (0,)
    assert series.counts == (6,)
    assert series.manifold == "standard-rect(l=1)"


def test_counting_below_bottom():
    series = counting_function(standard_rect(1), 0.0, [0.1])
    assert series.counts == (0,)


@pytest.mark.parametrize(
    "lattice,alpha,t",
    [(standard_rect(2), 0.3, 25.0), (scaled_square(1), 0.0, 18.0), (standard_rect(1), -0.5, 30.0)],
)
def test_counting_matches_enumeration(lattice, alpha, t):
    series = counting_function(lattice, alpha, [t])
    lines = enumerate_spectrum(lattice, alpha, t)
    lines = lines[lines["value"] > 0]
    assert series.oscillator == (lines["multiplicity"][lines["kind"] == 1].sum(),)
    assert series.torus == (lines["multiplicity"][lines["kind"] == 0].sum(),)


def test_counting_validation():
    with pytest.raises(ValueError):
        counting_function(standard_rect(1), 0.0, [2.0, 1.0])
    with pytest.raises(ValueError):
        counting_function(standard_rect(1), 0.0, [-1.0])
    with pytest.raises(ValueError):
        counting_function(standard_rect(1), 0.0, [1.0, math.inf])
    with pytest.raises(ValueError):
        counting_function(standard_rect(1), 1.5, [1.0])
    with pytest.raises(ValueError):
        CountingSeries("x", 0.0, (1.0, 2.0), (5, 4), (0, 0))


def test_counting_nondecreasing_on_default_grid():
    series = counting_function(gamma_pi(1), 0.25, default_tgrid(12))
    counts = series.counts
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_default_tgrid_shape():
    grid = default_tgrid()
    assert len(grid) == 20
    assert abs(grid[0] - math.pi / 2) < 1e-12
    assert abs(grid[-1] - 1e3) < 1e-9
    ratios = [b / a for a, b in zip(grid, grid[1:])]
    assert max(ratios) - min(ratios) < 1e-12


@pytest.mark.parametrize("n,t_lo,t_hi", [(2, 1e-150, 1e300), (3, 1e-300, 1e10),
                                         (2, 5e-324, 1.7976931348623157e308),
                                         (7, 5e-324, 1.7976931348623157e308),
                                         (40, 1e-200, 1e200), (1000, 1e-10, 1e300)])
def test_default_tgrid_stays_finite_where_the_ratio_overflows(n, t_lo, t_hi):
    # (t_hi / t_lo)^(1/(n-1)) was inf here, and so was every sample after the first
    assert (t_hi / t_lo) ** (1.0 / (n - 1)) == math.inf
    grid = default_tgrid(n, t_lo, t_hi)
    assert len(grid) == n and grid[0] == t_lo and grid[-1] == t_hi
    assert all(map(math.isfinite, grid)) and sorted(grid) == grid
    # still geometric: equal steps in log t, within rounding
    steps = [math.log(b) - math.log(a) for a, b in zip(grid, grid[1:])]
    assert max(steps) - min(steps) <= 1e-9 * max(steps)


@pytest.mark.parametrize("n,t_lo,t_hi", [(20, math.pi / 2, 1e3), (40, math.pi / 2, 3000.0),
                                         (25, 1e2, 1e6), (2, 1e-300, 1e-299),
                                         (5, 1e-150, 1e150), (3, 1.0, 1e308)])
def test_default_tgrid_keeps_its_finite_values(n, t_lo, t_hi):
    ratio = (t_hi / t_lo) ** (1.0 / (n - 1))
    assert default_tgrid(n, t_lo, t_hi) == [t_lo * ratio**i for i in range(n)]


@pytest.mark.parametrize("n", [1, 0, -3])
def test_default_tgrid_needs_two_samples(n):
    with pytest.raises(ValueError, match="at least two samples"):
        default_tgrid(n, 1.0, 2.0)


def test_weyl_ratio_is_the_check_columns():
    rows = weyl_ratio_check(gamma_pi(1), 0.25, [3.0, 40.0, 700.0])
    series = counting_function(gamma_pi(1), 0.25, [3.0, 40.0, 700.0])
    for (t, ratio, target, dev), count in zip(rows, series.counts):
        assert (ratio, dev) == weyl_ratio(count, t, target)
        assert (ratio, dev) == (count / t**2, abs(count / t**2 - target) / target)


@pytest.mark.parametrize("l", [1, 2])
@pytest.mark.parametrize("a", [0.0, 0.5])
@pytest.mark.parametrize("t", [10.0, 100.0])
def test_half_relation_exact(l, a, t):
    # oscillator count on the half quotient vs half the count on its cover
    n_half = counting_function(gamma_pi(l), a, [t]).oscillator[0]
    n_cover = counting_function(standard_rect(2 * l), a, [t]).oscillator[0]
    pc = parity_counts(t, a)
    assert abs(2 * n_half - n_cover) == 2 * abs(pc.even_count - pc.odd_count)


@pytest.mark.parametrize("l", [1, 2])
@pytest.mark.parametrize("a", [0.0, 0.5])
@pytest.mark.parametrize("t", [50.0, 200.0])
def test_quarter_sandwich(l, a, t):
    n_quarter = counting_function(gamma_pi_half(l), a, [t]).oscillator[0]
    n_cover = counting_function(scaled_square(l), a, [t]).oscillator[0]
    ones, mults = oscillator_pair_sums(t, a, l)
    r = ones / mults
    ratio = n_quarter / n_cover
    assert 0.25 - r <= ratio <= 0.25 + r


@pytest.mark.parametrize("family", [standard_rect, scaled_square, gamma_pi, gamma_pi_half])
@pytest.mark.parametrize("a", [-1.0, -0.45, 0.0, 0.7, 1.0])
def test_counting_columns_equal_the_separate_calls(family, a):
    # one pass over the levels gives what the public functions give one by one
    spec = family(2)
    tgrid = default_tgrid(15, math.pi / 2, 600.0)
    series, cover, parity, pairs = counting_columns(spec, a, tgrid)
    assert series == counting_function(spec, a, tgrid)
    lattice = spec if family in (standard_rect, scaled_square) else spec.base_lattice
    assert cover == counting_function(lattice, a, tgrid).oscillator
    assert parity == tuple(parity_counts(t, a) for t in tgrid)
    assert pairs == tuple(oscillator_pair_sums(t, a, 2) for t in tgrid)


def test_counting_columns_validation():
    with pytest.raises(ValueError):
        counting_columns(gamma_pi(1), 0.0, [10.0, 5.0])
    with pytest.raises(ValueError):
        counting_columns(gamma_pi(1), 1.5, [10.0])


def test_ratio_check_rect():
    rows = weyl_ratio_check(standard_rect(1), 0.0, [50.0, 400.0])
    assert all(abs(row[2] - 0.5) < 1e-8 for row in rows)
    assert rows[1][3] < rows[0][3]
    assert rows[1][3] < 0.1


def test_ratio_check_quotient():
    rows = weyl_ratio_check(gamma_pi(1), 0.0, [300.0])
    t, ratio, target, dev = rows[0]
    assert abs(target - 0.5) < 1e-8
    assert dev < 0.1


def test_ratio_check_refuses_a_t_whose_square_underflows():
    with pytest.raises(ValueError, match="t = 1e-200 is too small"):
        weyl_ratio_check(standard_rect(1), 0.0, [1e-200, 1.0])
    assert weyl_ratio_check(standard_rect(1), 0.0, [1.6e-162])[0][1] == 0.0


def _no_counting(*args):
    raise AssertionError("counting started")


def test_counting_refuses_past_its_limit_before_counting(monkeypatch):
    # one sample at t = 1e13 would visit about 7.1e6 entries of the hyperbola
    # split, and two at 5e11 about 3.2e6, 1.6e6 each
    monkeypatch.setattr(spectrum, "_split_parts", _no_counting)
    for call in (lambda: counting_function(standard_rect(1), 0.3, [1e13]),
                 lambda: counting_columns(gamma_pi(1), 0.3, [1.0, 1e13]),
                 lambda: parity_counts(1e13, 0.3),
                 lambda: oscillator_pair_sums(1e13, 0.3, 1),
                 lambda: counting_function(standard_rect(1), 0.3, [5e11, 5e11])):
        with pytest.raises(ValueError, match=f"more than the limit of {MAX_COUNT_ENTRIES}"):
            call()
    # the demo's grid to t = 1e10 and one sample at t = 7.5e11 reach the core
    for tgrid in (default_tgrid(25, 1e2, 1e10), [7.5e11]):
        with pytest.raises(AssertionError, match="counting started"):
            counting_function(standard_rect(1), 0.3, tgrid)


def test_counting_refuses_a_torus_sector_past_its_limit_before_counting(monkeypatch):
    # at l = 10^20 every count passes 2^53 and is taken in Python ints; the torus
    # sector of t = 1.5e8 has about 1.1e14 rows and is refused before any level
    monkeypatch.setattr(spectrum, "_split_parts", _no_counting)
    for call in (counting_function, counting_columns):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="rows of dual-lattice points"):
            call(scaled_square(10**20), 0.3, [1.0, 1.5e8])
        assert time.perf_counter() - start < 1.0
    # the count limit still comes first
    with pytest.raises(ValueError, match=f"more than the limit of {MAX_COUNT_ENTRIES}"):
        counting_function(standard_rect(1), 0.3, [1e308])
    # a grid whose torus rows pass the limit of the pass in all, each sector
    # within its own limit, is refused before any level: 60 samples of about
    # 4.5e5 rows i >= 0
    with pytest.raises(ValueError, match=f"rows of dual-lattice points, more than the "
                                         f"limit of {spectrum.MAX_TORUS_PASS}"):
        counting_function(scaled_square(10**12), 0.3, [1.0] * 59 + [1.1])


def test_bieberbach_spectrum_half_quotient():
    lines = enumerate_spectrum(gamma_pi(1), 0.0, 3.2)
    # the bottom oscillator pair (n = +-1, lam = 0) has no invariant vectors, so no
    # line of |n| = 1 is listed
    assert [(round(value, 12), mult, kind, n)
            for value, mult, kind, n in lines[["value", "multiplicity", "kind", "n"]].tolist()] == [
        (0.0, 1, 0, 0),
        (round(math.pi**2 / 4, 12), 1, 0, 0),
        (round(math.pi, 12), 3, 1, -2),
        (round(math.pi, 12), 3, 1, 2),
    ]


def test_bieberbach_spectrum_quarter_quotient():
    lines = enumerate_spectrum(gamma_pi_half(1), 0.0, 7.0)
    expected = [
        (0.0, 1, "torus"),
        (math.pi, 1, -2),
        (math.pi, 1, 2),
        (3 * math.pi / 2, 1, -3),
        (3 * math.pi / 2, 1, -1),
        (3 * math.pi / 2, 1, 1),
        (3 * math.pi / 2, 1, 3),
        (math.pi**2 / 2, 1, "torus"),
        (2 * math.pi, 3, -4),
        (2 * math.pi, 3, 4),
    ]
    assert len(lines) == len(expected)
    for (value, mult, kind, n), (want, want_mult, tag) in zip(
            lines[["value", "multiplicity", "kind", "n"]].tolist(), expected):
        assert abs(value - want) < 1e-12
        assert mult == want_mult
        assert (kind, n) == ((0, 0) if tag == "torus" else (1, tag))
    assert lines["multiplicity"].sum() == 14


@pytest.mark.parametrize("spec,a,t", [(gamma_pi(1), 0.0, 20.0), (gamma_pi_half(2), 0.4, 15.0)])
def test_bieberbach_spectrum_matches_counting(spec, a, t):
    lines = enumerate_spectrum(spec, a, t)
    series = counting_function(spec, a, [t])
    osc = lines["multiplicity"][lines["kind"] == 1].sum()
    tor = lines["multiplicity"][(lines["kind"] == 0) & (lines["value"] > 0)].sum()
    assert osc == series.oscillator[0]
    assert tor == series.torus[0]


def test_bieberbach_spectrum_validation():
    with pytest.raises(ValueError):
        enumerate_spectrum(gamma_pi(1), 0.0, 0.0)
