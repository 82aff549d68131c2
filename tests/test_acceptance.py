"""Top-level acceptance battery.

Each test covers one release criterion and prints a single pass/fail line;
run with `pytest tests/test_acceptance.py -s` to see the report.
"""

import functools
import math
import time

import numpy as np

from heis_spectra.group import (
    PolarizedPoint,
    UnitaryAutomorphism,
    apply_unitary,
    gamma_pi,
    gamma_pi_half,
    motion_apply,
    motion_power,
    phi_generator,
    polarized_mul,
    psi_generator,
    scaled_square,
    standard_rect,
    standard_mul,
    standard_to_polarized,
    torsion_witness,
    unitary_compose,
)
from heis_spectra.invariants import (
    character_values,
    dim_phi_invariant,
    dim_psi_invariant,
    fixed_subspace_dim,
    gauss_sum,
    gauss_sum_direct,
    phi_pullback_matrix,
    psi_pullback_matrix,
)
from heis_spectra.operator import folland_stein_residual
from heis_spectra.spectrum import oscillator_eigenvalue, torus_character
from heis_spectra.weil_brezin import WBIndex, schrodinger_act, weil_brezin_eval, wb_eigenfunction
from heis_spectra.weyl import counting_function, parity_counts, weyl_constant

SWEEP = [(n, lam, l)
         for l in (1, 2, 3)
         for n in range(-6, 7) if n != 0
         for lam in range(0, 9)]


def criterion(num, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:2d} ({label}): FAIL")
                raise
            print(f"criterion {num:2d} ({label}): PASS")
        return wrapper
    return deco


@criterion(1, "dimension theorems match the rank oracle")
def test_dimension_equivalence_sweep():
    start = time.monotonic()
    for n, lam, l in SWEEP:
        assert fixed_subspace_dim(phi_pullback_matrix(n, lam, l)) == dim_phi_invariant(n, lam, l)
        assert fixed_subspace_dim(psi_pullback_matrix(n, lam, l)) == dim_psi_invariant(n, lam, l)
    assert time.monotonic() - start < 60.0


@criterion(2, "character reconstruction of the quarter-turn dimension")
def test_character_reconstruction():
    for n, lam, l in SWEEP:
        M = psi_pullback_matrix(n, lam, l).matrix
        powers = sum(np.trace(np.linalg.matrix_power(M, m)) for m in range(4))
        avg = powers / 4.0
        assert abs(avg - dim_psi_invariant(n, lam, l)) < 1e-6
        closed = character_values([n], [lam], l)[0, 1]
        assert abs(np.trace(M) - closed) < 1e-9


@criterion(3, "pullback matrices reproduce the pointwise action")
def test_pullback_matrices_pointwise():
    rng = np.random.default_rng(301)
    cases = [(phi_generator(), phi_pullback_matrix, lambda l: standard_rect(2 * l)),
             (psi_generator(), psi_pullback_matrix, lambda l: scaled_square(l))]
    for gen, builder, lattice_of in cases:
        for l in (1, 2):
            lattice = lattice_of(l)
            for n in (-3, -2, -1, 1, 2, 3):
                for lam in range(0, 5):
                    M = builder(n, lam, l).matrix
                    idxs = [WBIndex(n, a, b, 2 * l)
                            for a in range(abs(n)) for b in range(2 * l)]
                    for _ in range(20):
                        pt = PolarizedPoint(*rng.uniform(-1, 1, size=3))
                        f_pt = np.array([wb_eigenfunction(i, lam, lattice, pt) for i in idxs])
                        f_gen = np.array([wb_eigenfunction(i, lam, lattice,
                                                           motion_apply(gen, pt))
                                          for i in idxs])
                        assert np.max(np.abs(f_gen - M.T @ f_pt)) < 1e-7


@criterion(4, "finite differences recover the eigenvalues")
def test_finite_difference_residuals():
    rng = np.random.default_rng(401)
    h = 1e-3
    for lattice, n, lam in [(standard_rect(1), 1, 0), (standard_rect(2), -2, 1),
                            (scaled_square(1), 1, 1)]:
        idx = WBIndex(n, 0, 0, lattice.covering_width)
        for alpha in (0.0, 0.5):
            f = lambda pt: wb_eigenfunction(idx, lam, lattice, pt)
            value = oscillator_eigenvalue(n, lam, alpha)
            for _ in range(5):
                pt = PolarizedPoint(*rng.uniform(-0.5, 0.5, size=3))
                assert folland_stein_residual(f, alpha, value, pt, h) < 1e-3
    for mu, nu in ((1.0, 0.0), (1.0, 1.0)):
        f = lambda pt: torus_character((mu, nu), pt)
        value = math.pi**2 * (mu**2 + nu**2)
        for alpha in (0.0, 0.7):
            for _ in range(5):
                pt = PolarizedPoint(*rng.uniform(-0.5, 0.5, size=3))
                assert folland_stein_residual(f, alpha, value, pt, h) < 1e-3


@criterion(5, "lattice transform intertwines the two group actions")
def test_intertwining_random():
    rng = np.random.default_rng(501)
    for _ in range(50):
        n = int(rng.choice([-3, -2, -1, 1, 2, 3]))
        width = int(rng.integers(1, 3))
        a = int(rng.integers(0, abs(n)))
        b = int(rng.integers(0, width))
        idx = WBIndex(n, a, b, width)
        c = float(rng.uniform(-0.5, 0.5))
        seed = lambda x: math.exp(-math.pi * (x - c) ** 2)
        h = PolarizedPoint(*rng.uniform(-1, 1, size=3))
        pt = PolarizedPoint(*rng.uniform(-1, 1, size=3))
        lhs = weil_brezin_eval(idx, seed, polarized_mul(pt, h))
        rhs = weil_brezin_eval(idx, lambda x: schrodinger_act(n, h, seed, x), pt)
        assert abs(lhs - rhs) < 1e-8


@criterion(6, "Gauss sums close and the moduli stay even")
def test_gauss_sums():
    for m in range(1, 401):
        assert abs(gauss_sum(m) - gauss_sum_direct(m)) < 1e-9
    for n, _lam, l in SWEEP:
        assert 2 * l * abs(n) % 4 in (0, 2)


@criterion(7, "half-quotient count cancellation stays bounded")
def test_weyl_cancellation():
    for t in (10.0, 100.0, 1000.0):
        n_half = counting_function(gamma_pi(1), 0.0, [t]).oscillator[0]
        n_cover = counting_function(standard_rect(2), 0.0, [t]).oscillator[0]
        assert abs(n_half - n_cover / 2.0) <= 2 * (t / math.pi + 1)
        pc = parity_counts(t, 0.0)
        assert abs(2 * n_half - n_cover) == 2 * abs(pc.even_count - pc.odd_count)


@criterion(8, "counting ratio approaches the Weyl constant")
def test_weyl_limit_trend():
    start = time.monotonic()
    series = counting_function(standard_rect(1), 0.0, [50.0, 400.0])
    ratios = [c / t**2 for c, t in zip(series.counts, series.t)]
    assert abs(ratios[1] - 0.5) < 0.05
    assert abs(ratios[1] - 0.5) < abs(ratios[0] - 0.5)
    assert time.monotonic() - start < 60.0


@criterion(9, "quadrature constant hits the closed values")
def test_weyl_constant_oracles():
    assert abs(weyl_constant(0.0).value - 0.5) <= 1e-8
    assert abs(weyl_constant(1.0).value - 1.0 / 6.0) <= 1e-8
    assert abs(weyl_constant(-1.0).value - 1.0 / 6.0) <= 1e-8
    for a in (0.2, 0.5, 0.8, 0.95):
        assert abs(weyl_constant(a).value - weyl_constant(-a).value) <= 1e-10


@criterion(10, "group layer identities and torsion certificates")
def test_group_layer():
    phi, psi = phi_generator(), psi_generator()
    for m in (motion_power(phi, 2), motion_power(psi, 4)):
        assert (m.translation.p, m.translation.q, m.translation.s) == (0.0, 0.0, 1.0)
        assert (m.rotation.A, m.rotation.B) == (1.0, 0.0)
    rng = np.random.default_rng(1010)
    spec2 = gamma_pi(1)
    for _ in range(100):
        xi, ee, t = (int(v) for v in rng.integers(-6, 7, size=3))
        g = PolarizedPoint(float(xi), float(2 * ee), float(t))
        assert abs(torsion_witness(g, spec2).s - (2 * t - xi * 2 * ee + 1)) <= 1e-9
    spec4 = gamma_pi_half(1)
    w0 = math.sqrt(2.0)
    for _ in range(100):
        a, b, t = (int(v) for v in rng.integers(-5, 6, size=3))
        g = PolarizedPoint(a * w0, b * w0, float(t))
        assert abs(torsion_witness(g, spec4).s - (4 * t + 2 * (a - b) ** 2 + 1)) <= 1e-8
    for _ in range(200):
        g, h, k = (PolarizedPoint(*rng.uniform(-3, 3, size=3)) for _ in range(3))
        lhs = polarized_mul(polarized_mul(g, h), k)
        rhs = polarized_mul(g, polarized_mul(h, k))
        assert max(abs(lhs.p - rhs.p), abs(lhs.q - rhs.q), abs(lhs.s - rhs.s)) <= 1e-12
        u = standard_to_polarized(standard_mul(_std(g), _std(h)))
        v = polarized_mul(standard_to_polarized(_std(g)), standard_to_polarized(_std(h)))
        assert max(abs(u.p - v.p), abs(u.q - v.q), abs(u.s - v.s)) <= 1e-12
    for _ in range(100):
        theta1, theta2 = rng.uniform(0, 2 * math.pi, size=2)
        u1 = UnitaryAutomorphism(math.cos(theta1), math.sin(theta1))
        u2 = UnitaryAutomorphism(math.cos(theta2), math.sin(theta2))
        g, h = (PolarizedPoint(*rng.uniform(-2, 2, size=3)) for _ in range(2))
        one = apply_unitary(u1, apply_unitary(u2, g))
        two = apply_unitary(unitary_compose(u1, u2), g)
        assert max(abs(one.p - two.p), abs(one.q - two.q), abs(one.s - two.s)) <= 1e-12
        gh = apply_unitary(u1, polarized_mul(g, h))
        hg = polarized_mul(apply_unitary(u1, g), apply_unitary(u1, h))
        assert max(abs(gh.p - hg.p), abs(gh.q - hg.q), abs(gh.s - hg.s)) <= 1e-12


def _std(g: PolarizedPoint):
    from heis_spectra.group import StandardPoint
    return StandardPoint(g.p, g.q, g.s)
