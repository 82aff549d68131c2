"""Dual lattices, torus characters, and the one counting core behind every
spectrum and count.

The spectrum of the operator family on a quotient splits into a torus sector
(characters of the abelianization, eigenvalues pi^2 (mu^2 + nu^2)) and an
oscillator sector (central frequency n != 0, eigenvalues
(pi |n| / 2)(2 lambda + 1 - alpha sgn n) with multiplicity the covering width
times |n| on a lattice, or the fixed-subspace dimension on a crystallographic
quotient).

Both sectors are keyed by integers.  An oscillator level (sgn, lambda) holds
the eigenvalues m * (pi/2) c, c = 2 lambda + 1 - alpha sgn, for m = 1..M; a
dual-lattice point (i, k) has the value pi^2 num / den with num = a i^2 + k^2.
Which eigenvalues lie <= t is decided once per level (M) and once per sample
(the largest num), against the same float expression the lines carry, so a
line's value is <= t exactly when it is counted.  Every multiplicity is affine
in |n| on the residue classes |n| mod 4, so sums over a level are closed forms.
On a crystallographic quotient the rotation permutes the characters in orbits
of full size away from the origin, so torus multiplicities are point counts
divided by the index (tests/test_counting_core.py ranks the orbit projector).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .group import BieberbachSpec, LatticeSpec, PolarizedPoint
from .invariants import dim_phi_invariant, dim_psi_invariant


@dataclass(frozen=True)
class DualLatticePoint:
    mu: float
    nu: float


@dataclass(frozen=True)
class OscillatorOrigin:
    n: int
    lam: int


@dataclass(frozen=True)
class TorusOrigin:
    points: tuple[DualLatticePoint, ...]


@dataclass(frozen=True)
class SpectralLine:
    value: float
    multiplicity: int
    origin: TorusOrigin | OscillatorOrigin


def torus_character(mu_nu: DualLatticePoint, pt: PolarizedPoint) -> complex:
    """chi_{mu,nu}(p,q,s) = e^{2 pi i (mu p + nu q)}; kills the central direction."""
    return complex(np.exp(2j * math.pi * (mu_nu.mu * pt.p + mu_nu.nu * pt.q)))


def dual_lattice(lattice: LatticeSpec) -> tuple[DualLatticePoint, DualLatticePoint]:
    """Generators of the dual of the projected (p,q) lattice."""
    if lattice.kind == "standard-rect":
        return DualLatticePoint(1.0, 0.0), DualLatticePoint(0.0, 1.0 / lattice.l)
    w = 1.0 / math.sqrt(2.0 * lattice.l)
    return DualLatticePoint(w, 0.0), DualLatticePoint(0.0, w)


def _torus_value(num: int, den: int) -> float:
    return math.pi**2 * num / den


def _oscillator_value(m: int, c: float) -> float:
    return (math.pi * m / 2.0) * c


def oscillator_eigenvalue(n: int, lam: int, alpha: float) -> float:
    if n == 0:
        raise ValueError("n must be nonzero")
    sgn = 1.0 if n > 0 else -1.0
    return _oscillator_value(abs(n), 2 * lam + 1 - alpha * sgn)


def _levels(alpha: float, t: float):
    """Yield (sgn, lam, c, M) for every oscillator level with an eigenvalue in (0, t]:
    M >= 1 is the largest m with _oscillator_value(m, c) <= t.

    c <= 0 only at lam = 0 for |alpha| = 1: that kernel is not counted.
    """
    if not -1.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [-1, 1]")
    for sgn in (1, -1):
        for lam in itertools.count():
            c = 2 * lam + 1 - alpha * sgn
            if c <= 0:
                continue
            top = int(t / (math.pi / 2.0 * c))
            while _oscillator_value(top + 1, c) <= t:
                top += 1
            while top > 0 and _oscillator_value(top, c) > t:
                top -= 1
            if top == 0:
                break
            yield sgn, lam, c, top


def _level_sum(f, sgn: int, lam: int, top: int) -> int:
    """Sum of f(sgn m, lam) over 1 <= m <= top, for f affine in m on each class of
    m mod 4: the terms first, first + 4, ... of a class sum to k f0 + d k(k-1)/2."""
    total = 0
    for first in range(1, min(top, 4) + 1):
        k = (top - first) // 4 + 1
        f0 = f(sgn * first, lam)
        total += k * f0
        if k > 1:
            total += (f(sgn * (first + 4), lam) - f0) * (k * (k - 1) // 2)
    return total


def _oscillator_sum(f, alpha: float, t: float) -> int:
    """Sum of f(n, lam) over the pairs with oscillator eigenvalue in (0, t]; f must be
    affine in |n| on each class of |n| mod 4 at fixed sign and lam."""
    return sum(_level_sum(f, sgn, lam, top) for sgn, lam, _, top in _levels(alpha, t))


def _pair_count(alpha: float, t: float) -> int:
    """The number of pairs with oscillator eigenvalue in (0, t]."""
    return sum(top for _, _, _, top in _levels(alpha, t))


def _torus_rows(lattice: LatticeSpec, t: float):
    """(a, den, rows): the point i g1 + k g2 of the dual lattice has the value
    _torus_value(a i^2 + k^2, den), and those with value <= t are the (i, k) with
    |k| <= kmax, for (i, kmax) in rows."""
    if lattice.kind == "standard-rect":
        a, den = lattice.l**2, lattice.l**2
    else:
        a, den = 1, 2 * lattice.l
    top = int(t * den / math.pi**2)
    while _torus_value(top + 1, den) <= t:
        top += 1
    while _torus_value(top, den) > t:
        top -= 1
    imax = math.isqrt(top // a)
    return a, den, [(i, math.isqrt(top - a * i * i)) for i in range(-imax, imax + 1)]


def _sectors(manifold):
    """(f, lattice, orbits): f(n, lam) is the multiplicity of an oscillator
    eigenvalue on the manifold; its torus sector is that of the lattice, and
    orbits(points) the number of rotation orbits among that many nonzero points."""
    if isinstance(manifold, LatticeSpec):
        width = manifold.covering_width
        return (lambda n, lam: width * abs(n)), manifold, (lambda points: points)
    dim = dim_phi_invariant if manifold.kind == "gamma-pi" else dim_psi_invariant
    index = manifold.index
    return ((lambda n, lam: dim(n, lam, manifold.l)), manifold.base_lattice,
            (lambda points: points // index))


def _counts(manifold, alpha: float, t: float) -> tuple[int, int]:
    """(oscillator, torus): the positive eigenvalues <= t, with multiplicity."""
    f, lattice, orbits = _sectors(manifold)
    _, _, rows = _torus_rows(lattice, t)
    return _oscillator_sum(f, alpha, t), orbits(sum(2 * kmax + 1 for _, kmax in rows) - 1)


def _sort_key(line: SpectralLine):
    if isinstance(line.origin, TorusOrigin):
        p = line.origin.points[0]
        return (line.value, 0, p.mu, p.nu)
    return (line.value, 1, line.origin.n, line.origin.lam)


def enumerate_spectrum(manifold: LatticeSpec | BieberbachSpec, alpha: float,
                       tmax: float) -> list[SpectralLine]:
    """All spectral lines with value <= tmax on a lattice or crystallographic
    quotient, sorted ascending.

    Torus lines group the dual-lattice points of one value; their multiplicity
    is the number of rotation orbits (the point count on a lattice), and the zero
    line has multiplicity 1.  Oscillator lines are kept per (n, lambda) and never
    merged with torus lines; zero oscillator values (the alpha = +-1 kernels) and
    zero multiplicities are left out.
    """
    if not 0 < tmax < math.inf:
        raise ValueError("tmax must be positive and finite")
    f, lattice, orbits = _sectors(manifold)
    g1, g2 = dual_lattice(lattice)
    a, den, rows = _torus_rows(lattice, tmax)
    groups: dict[int, list[DualLatticePoint]] = {}
    for i, kmax in rows:
        for k in range(-kmax, kmax + 1):
            groups.setdefault(a * i * i + k * k, []).append(DualLatticePoint(i * g1.mu, k * g2.nu))
    lines = [SpectralLine(_torus_value(num, den), orbits(len(pts)) if num else 1,
                          TorusOrigin(tuple(pts)))
             for num, pts in groups.items()]
    for sgn, lam, c, top in _levels(alpha, tmax):
        for m in range(1, top + 1):
            mult = f(sgn * m, lam)
            if mult > 0:
                lines.append(SpectralLine(_oscillator_value(m, c), mult,
                                          OscillatorOrigin(sgn * m, lam)))
    lines.sort(key=_sort_key)
    return lines
