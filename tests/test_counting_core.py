"""The integer-keyed counting core against the routes it replaced.

Every spectrum, count and side column goes through one core in
heis_spectra.spectrum.  The independent routes live here as oracles: a
per-pair loop over (n, lambda) with the multiplicity of each pair, a 2-D loop
over dual-lattice points with no row bound, and the action of the generator on
the characters, whose orbit-averaging projector ranks the torus sector of a
crystallographic quotient.
"""

import bisect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heis_spectra.group import (
    LatticeSpec,
    PolarizedPoint,
    gamma_pi,
    gamma_pi_half,
    motion_apply,
    scaled_square,
    standard_rect,
)
from heis_spectra.invariants import dim_phi_invariant, dim_psi_invariant
from heis_spectra.spectrum import (
    DualLatticePoint,
    TorusOrigin,
    dual_lattice,
    enumerate_spectrum,
    oscillator_eigenvalue,
    torus_character,
)
from heis_spectra.weyl import counting_function, oscillator_pair_sums, parity_counts

FAMILIES = (standard_rect, scaled_square, gamma_pi, gamma_pi_half)


def _cover(manifold):
    """(lattice, index, multiplicity of the pair (n, lam))."""
    if isinstance(manifold, LatticeSpec):
        return manifold, 1, lambda n, lam: manifold.covering_width * abs(n)
    dim = dim_phi_invariant if manifold.kind == "gamma-pi" else dim_psi_invariant
    return manifold.base_lattice, manifold.index, lambda n, lam: dim(n, lam, manifold.l)


def _pairs(alpha, t):
    """Per-pair loop: every (n, lam) with oscillator eigenvalue in (0, t]."""
    out = []
    for sgn in (1, -1):
        lam = 0
        while oscillator_eigenvalue(sgn, lam, alpha) <= t:
            m = 1
            while 0 < oscillator_eigenvalue(sgn * m, lam, alpha) <= t:
                out.append((sgn * m, lam))
                m += 1
            lam += 1
    return out


def _form(lattice):
    """(a, den): the point i g1 + k g2 has the value pi^2 (a i^2 + k^2) / den."""
    return (lattice.l**2, lattice.l**2) if lattice.kind == "standard-rect" else (1, 2 * lattice.l)


def _torus_points(lattice, t):
    """2-D integer loop over a box that holds every point: (value, i, k) for the
    points with value <= t."""
    a, den = _form(lattice)
    r = math.isqrt(int(t * den / math.pi**2) + 2) + 1
    values = ((math.pi**2 * (a * i * i + k * k) / den, i, k)
              for i in range(-r, r + 1) for k in range(-r, r + 1))
    return [(v, i, k) for v, i, k in values if v <= t]


class _Atoms:
    """Oracle counts below any t <= tmax, from one per-pair and one 2-D loop."""

    def __init__(self, manifold, alpha, tmax):
        lattice, self.index, mult = _cover(manifold)
        self.osc = sorted((oscillator_eigenvalue(n, lam, alpha), mult(n, lam), n, lam)
                          for n, lam in _pairs(alpha, tmax))
        self.torus = sorted(v for v, i, k in _torus_points(lattice, tmax) if (i, k) != (0, 0))

    def counts(self, t):
        osc = sum(m for v, m, _, _ in self.osc if v <= t)
        return osc, bisect.bisect_right(self.torus, t) // self.index

    def pairs(self, t):
        return [(n, lam) for v, _, n, lam in self.osc if v <= t]


def _split(lines):
    osc = sum(ln.multiplicity for ln in lines if not isinstance(ln.origin, TorusOrigin))
    tor = sum(ln.multiplicity for ln in lines if isinstance(ln.origin, TorusOrigin) and ln.value > 0)
    return osc, tor


_ALPHA = st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-0.9, 0.9))


# |alpha| in (0.9, 1) is left out only for time: the lam = 0 level holds
# t / ((pi/2)(1 - |alpha|)) lines, and every one of them is a threshold here
@settings(max_examples=30, deadline=None)
@given(family=st.sampled_from(FAMILIES), l=st.integers(1, 4), alpha=_ALPHA)
def test_every_line_value_is_a_consistent_threshold(family, l, alpha):
    manifold = family(l)
    tmax = 60.0
    atoms = _Atoms(manifold, alpha, tmax)
    full = enumerate_spectrum(manifold, alpha, tmax)
    assert _split(full) == atoms.counts(tmax)
    for v in sorted({ln.value for ln in full if ln.value > 0}):
        lines = enumerate_spectrum(manifold, alpha, v)
        # the same lines, multiplicities included, as at tmax = 60
        assert lines == [ln for ln in full if ln.value <= v]
        series = counting_function(manifold, alpha, [v])
        assert (series.oscillator[0], series.torus[0]) == _split(lines) == atoms.counts(v)
        pairs = atoms.pairs(v)
        pc = parity_counts(v, alpha)
        even = sum(1 for n, lam in pairs if (abs(n) + lam) % 2 == 0)
        assert (pc.even_count, pc.odd_count) == (even, len(pairs) - even)
        assert oscillator_pair_sums(v, alpha, l) == (len(pairs), sum(2 * l * abs(n) for n, _ in pairs))


@pytest.mark.parametrize("manifold,point,mult,torus", [
    (scaled_square(1), (3, 4), 12, 80),
    (gamma_pi_half(1), (3, 4), 3, 20),
    (standard_rect(3), (0, 7), 2, 54),
    (standard_rect(1), (5, 12), 12, 528),
])
def test_a_line_is_whole_at_its_own_value(manifold, point, mult, torus):
    # at t equal to a torus eigenvalue every point of its line is counted and
    # no row of points is dropped
    lattice = _cover(manifold)[0]
    g1, g2 = dual_lattice(lattice)
    rep = DualLatticePoint(point[0] * g1.mu, point[1] * g2.nu)
    big = enumerate_spectrum(manifold, 0.0, 2000.0)
    (line,) = [ln for ln in big if isinstance(ln.origin, TorusOrigin) and rep in ln.origin.points]
    assert line.multiplicity == mult
    at_value = enumerate_spectrum(manifold, 0.0, line.value)
    assert at_value == [ln for ln in big if ln.value <= line.value]
    assert counting_function(manifold, 0.0, [line.value]).torus == (torus,)


@pytest.mark.parametrize("manifold,t", [
    (scaled_square(1), 123.37005501361693),
    (gamma_pi_half(1), 123.37005501361693),
    (standard_rect(3), 53.73451285037538),
    (standard_rect(1), math.nextafter(math.pi**2 * 5, 0.0)),
])
def test_a_threshold_just_below_a_line_leaves_it_out(manifold, t):
    # the first t are the per-point floats of pi^2 * 25/2 and pi^2 * 49/9 under
    # a tolerance grouping, the last is one ulp below pi^2 * 5, where t / pi^2
    # rounds up to 5; all lie below the eigenvalue, so its line is absent
    lines = enumerate_spectrum(manifold, 0.0, t)
    big = enumerate_spectrum(manifold, 0.0, 2 * t)
    assert lines == [ln for ln in big if ln.value <= t]
    series = counting_function(manifold, 0.0, [t])
    assert _split(lines) == (series.oscillator[0], series.torus[0])


def _generator_permutation(spec, t, rng):
    """The action chi -> chi o g on the characters of value <= t, as a permutation
    matrix; each image must be one of them with phase 1."""
    g1, g2 = dual_lattice(spec.base_lattice)
    chars = [DualLatticePoint(i * g1.mu, k * g2.nu) for _, i, k in _torus_points(spec.base_lattice, t)]
    xs = [PolarizedPoint(*rng.uniform(-3.0, 3.0, 3)) for _ in range(6)]
    table = np.array([[torus_character(c, x) for x in xs] for c in chars])
    moved = [motion_apply(spec.generator, x) for x in xs]
    perm = np.zeros((len(chars), len(chars)))
    for j, c in enumerate(chars):
        image = np.array([torus_character(c, y) for y in moved])
        hits = np.flatnonzero(np.max(np.abs(table - image), axis=1) < 1e-9)
        assert len(hits) == 1, c
        perm[hits[0], j] = 1.0
    return perm


@pytest.mark.parametrize("kind", [gamma_pi, gamma_pi_half])
@pytest.mark.parametrize("l", [1, 2, 3])
@pytest.mark.parametrize("t", [40.0, 150.0])
def test_torus_counts_are_exact_orbit_counts(kind, l, t):
    spec = kind(l)
    perm = _generator_permutation(spec, t, np.random.default_rng(7 * l))
    power, projector = np.eye(len(perm)), np.zeros_like(perm)
    for _ in range(spec.index):
        projector += power / spec.index
        power = perm @ power
    assert np.allclose(power, np.eye(len(perm)))
    # the invariant functions in the span: one per orbit, the constant included
    rank = np.linalg.matrix_rank(projector)
    assert rank == 1 + counting_function(spec, 0.0, [t]).torus[0]
    assert rank == sum(ln.multiplicity for ln in enumerate_spectrum(spec, 0.0, t)
                       if isinstance(ln.origin, TorusOrigin))
