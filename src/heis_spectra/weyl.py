"""Eigenvalue counting functions, the Weyl constant, and the proof-side bounds.

Counting N(t) splits into the oscillator sector (frequencies n != 0) and the
torus sector (dual-lattice characters).  The limit N(t)/t^2 is A_alpha times
the quotient volume, with

    A_alpha = (1/pi^2) Int_R x/sinh(x) e^{-alpha x} dx = 1/(2 cos^2(pi alpha/2))
                                                              (|alpha| < 1)
    A_{+-1} = (1/2 pi^2) Int_R (x/sinh(x))^2 dx = 1/6.

The closed form follows from Sum_k 1/(k + x)^2 = pi^2/sin^2(pi x); the
integrals are kept as oracles in the tests.  Note A_alpha grows as
|alpha| -> 1 and the endpoint values are an isolated case: the kernel that
appears at |alpha| = 1 is excluded from the count.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .group import BieberbachSpec, LatticeSpec
from .invariants import dim_phi_invariant, dim_psi_invariant
from .spectrum import (
    OscillatorOrigin,
    SpectralLine,
    _sort_key,
    _torus_lines,
    oscillator_eigenvalue,
)


def volume(spec) -> float:
    """Lebesgue volume of a fundamental domain of the quotient."""
    if isinstance(spec, LatticeSpec):
        return float(spec.l if spec.kind == "standard-rect" else 2 * spec.l)
    if isinstance(spec, BieberbachSpec):
        return volume(spec.base_lattice) / spec.index
    raise TypeError("spec must be a LatticeSpec or BieberbachSpec")


@dataclass(frozen=True)
class WeylConstant:
    """A_alpha and a bound on the error of its floating-point value."""

    alpha: float
    value: float
    quadrature_error: float

    def __post_init__(self):
        if not self.value > 0:
            raise ValueError("the constant must be positive")


def weyl_constant(alpha: float) -> WeylConstant:
    """A_alpha in closed form: 1/(2 cos^2(pi alpha/2)), and 1/6 at |alpha| = 1.

    The cosine is taken as sin(pi (1 - |alpha|)/2), where 1 - |alpha| is exact
    near the endpoints, so the value stays accurate to a few ulps as alpha -> 1;
    quadrature_error bounds that rounding.
    """
    if not -1.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [-1, 1]")
    if abs(alpha) == 1.0:
        value = 1.0 / 6.0
    else:
        value = 0.5 / math.sin(0.5 * math.pi * (1.0 - abs(alpha))) ** 2
    return WeylConstant(alpha, value, 8 * sys.float_info.epsilon * value)


@dataclass(frozen=True)
class ParitySetCounts:
    t: float
    even_count: int
    odd_count: int

    def __post_init__(self):
        if abs(self.even_count - self.odd_count) > 2 * (self.t / math.pi + 1):
            raise ValueError("parity counts violate the cancellation bound")


def _admissible_pairs(t: float, alpha: float):
    """Yield (n, lam) over both signs with eigenvalue in (0, t]."""
    for sgn in (1, -1):
        factor0 = 1 - alpha * sgn
        lam = 0
        while (math.pi / 2.0) * (2 * lam + factor0) <= t:
            base = (math.pi / 2.0) * (2 * lam + factor0)
            if base > 0:
                for m in range(1, int(math.floor(t / base)) + 1):
                    yield sgn * m, lam
            lam += 1


def parity_counts(t: float, alpha: float) -> ParitySetCounts:
    """Exact sizes of the even / odd |n|+lambda admissible sets."""
    if t <= 0:
        raise ValueError("t must be positive")
    even = odd = 0
    for n, lam in _admissible_pairs(t, alpha):
        if (abs(n) + lam) % 2 == 0:
            even += 1
        else:
            odd += 1
    return ParitySetCounts(t, even, odd)


def oscillator_pair_sums(t: float, alpha: float, l: int) -> tuple[int, int]:
    """(number of admissible (n,lambda) pairs, their total 2l|n| multiplicity)."""
    if t <= 0:
        raise ValueError("t must be positive")
    ones = 0
    mults = 0
    for n, _lam in _admissible_pairs(t, alpha):
        ones += 1
        mults += 2 * l * abs(n)
    return ones, mults


@dataclass(frozen=True)
class CountingSeries:
    manifold: str
    alpha: float
    t: tuple[float, ...]
    oscillator: tuple[int, ...]
    torus: tuple[int, ...]
    torus_heuristic: bool

    def __post_init__(self):
        counts = self.counts
        if any(b < a for a, b in zip(counts, counts[1:])):
            raise ValueError("counts must be nondecreasing in t")

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(o + b for o, b in zip(self.oscillator, self.torus))


def manifold_tag(spec) -> str:
    return f"{spec.kind}(l={spec.l})"


def _torus_point_count(lattice: LatticeSpec, t: float) -> int:
    """Nonzero dual-lattice points with pi^2 (mu^2+nu^2) <= t."""
    if lattice.kind == "standard-rect":
        m1, m2 = 1.0, 1.0 / lattice.l
    else:
        m1 = m2 = 1.0 / math.sqrt(2.0 * lattice.l)
    imax = int(math.floor(math.sqrt(t) / (math.pi * m1)))
    kmax = int(math.floor(math.sqrt(t) / (math.pi * m2)))
    count = 0
    for i in range(-imax, imax + 1):
        for k in range(-kmax, kmax + 1):
            if (i, k) != (0, 0) and math.pi**2 * ((i * m1) ** 2 + (k * m2) ** 2) <= t:
                count += 1
    return count


def _oscillator_count(manifold, alpha: float, t: float) -> int:
    if isinstance(manifold, LatticeSpec):
        width = manifold.covering_width
        return sum(width * abs(n) for n, _ in _admissible_pairs(t, alpha))
    l = manifold.l
    if manifold.kind == "gamma-pi":
        return sum(dim_phi_invariant(n, lam, l) for n, lam in _admissible_pairs(t, alpha))
    return sum(dim_psi_invariant(n, lam, l) for n, lam in _admissible_pairs(t, alpha))


def _torus_count(manifold, t: float) -> int:
    if isinstance(manifold, LatticeSpec):
        return _torus_point_count(manifold, t)
    # character orbits under the generator's rotation: size 2 for the half-turn,
    # size 4 for the quarter-turn, away from the origin
    return _torus_point_count(manifold.base_lattice, t) // manifold.index


def counting_function(manifold, alpha: float, tgrid) -> CountingSeries:
    """Counts of positive eigenvalues <= t with multiplicity, per sample t.

    Zero eigenvalues (the |alpha| = 1 kernels and the constant character) are
    excluded.  For the crystallographic quotients the oscillator sector uses
    the closed-form fixed-subspace dimensions and the torus sector counts
    character orbits; the latter is tagged heuristic in outputs.
    """
    if not -1.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [-1, 1]")
    tgrid = list(tgrid)
    if not tgrid or any(t <= 0 for t in tgrid) or sorted(tgrid) != tgrid:
        raise ValueError("tgrid must be positive and sorted ascending")
    osc = tuple(_oscillator_count(manifold, alpha, t) for t in tgrid)
    torus = tuple(_torus_count(manifold, t) for t in tgrid)
    return CountingSeries(
        manifold_tag(manifold), alpha, tuple(float(t) for t in tgrid), osc, torus,
        torus_heuristic=isinstance(manifold, BieberbachSpec),
    )


def default_tgrid(n_samples: int = 20, t_lo: float = math.pi / 2, t_hi: float = 1e3):
    """Geometric grid used by the diagnostics when none is given."""
    ratio = (t_hi / t_lo) ** (1.0 / (n_samples - 1))
    return [t_lo * ratio**i for i in range(n_samples)]


def weyl_ratio_check(manifold, alpha: float, tgrid) -> list[tuple[float, float, float, float]]:
    """(t, N(t)/t^2, target, relative deviation) per sample."""
    series = counting_function(manifold, alpha, tgrid)
    target = weyl_constant(alpha).value * volume(manifold)
    out = []
    for t, count in zip(series.t, series.counts):
        ratio = count / t**2
        out.append((t, ratio, target, abs(ratio - target) / target))
    return out


def bieberbach_spectrum(spec: BieberbachSpec, alpha: float, tmax: float) -> list[SpectralLine]:
    """Spectral lines of a crystallographic quotient, multiplicities included.

    Oscillator lines carry the fixed-subspace dimension (zero-multiplicity
    lines are dropped); torus lines carry character-orbit counts.
    """
    if tmax <= 0:
        raise ValueError("tmax must be positive")
    l = spec.l
    dim = dim_phi_invariant if spec.kind == "gamma-pi" else dim_psi_invariant
    lines = []
    for n, lam in _admissible_pairs(tmax, alpha):
        mult = dim(n, lam, l)
        if mult > 0:
            lines.append(SpectralLine(oscillator_eigenvalue(n, lam, alpha), mult,
                                      OscillatorOrigin(n, lam)))
    for line in _torus_lines(spec.base_lattice, tmax):
        if line.value == 0.0:
            lines.append(line)
        else:
            mult = line.multiplicity // spec.index
            lines.append(SpectralLine(line.value, mult, line.origin))
    lines.sort(key=_sort_key)
    return lines
