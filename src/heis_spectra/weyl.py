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
from .spectrum import _oscillator_sums, _sectors, _torus_points


def volume(spec) -> float:
    """Lebesgue volume of a fundamental domain of the quotient: the covering width
    (the square lattice's rescaling onto its cover keeps volume) over the index."""
    if isinstance(spec, LatticeSpec):
        return float(spec.covering_width)
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


def _one(n: int, lam: int) -> int:
    return 1


def _even(n: int, lam: int) -> int:
    return (abs(n) + lam + 1) % 2


def _width(n: int, lam: int) -> int:
    """2|n|: the multiplicity 2l|n| of a pair, over l."""
    return 2 * abs(n)


def parity_counts(t: float, alpha: float) -> ParitySetCounts:
    """Exact sizes of the even / odd |n|+lambda admissible sets."""
    if t <= 0:
        raise ValueError("t must be positive")
    (even,), (pairs,) = _oscillator_sums([_even, _one], alpha, [t])
    return ParitySetCounts(t, even, pairs - even)


def oscillator_pair_sums(t: float, alpha: float, l: int) -> tuple[int, int]:
    """(number of admissible (n,lambda) pairs, their total 2l|n| multiplicity)."""
    if t <= 0:
        raise ValueError("t must be positive")
    (pairs,), (widths,) = _oscillator_sums([_one, _width], alpha, [t])
    return pairs, l * widths


@dataclass(frozen=True)
class CountingSeries:
    manifold: str
    alpha: float
    t: tuple[float, ...]
    oscillator: tuple[int, ...]
    torus: tuple[int, ...]

    def __post_init__(self):
        counts = self.counts
        if any(b < a for a, b in zip(counts, counts[1:])):
            raise ValueError("counts must be nondecreasing in t")

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(o + b for o, b in zip(self.oscillator, self.torus))


def manifold_tag(spec) -> str:
    return f"{spec.kind}(l={spec.l})"


def _checked_grid(tgrid) -> list[float]:
    tgrid = list(tgrid)
    if not tgrid or any(not 0 < t < math.inf for t in tgrid) or sorted(tgrid) != tgrid:
        raise ValueError("tgrid must be positive, finite and sorted ascending")
    return tgrid


def _ratio_grid(tgrid) -> list[float]:
    """The checked grid, refused where N(t)/t^2 is undefined: t * t underflows to 0
    below about t = 1.6e-162."""
    tgrid = _checked_grid(tgrid)
    if tgrid[0] * tgrid[0] == 0:
        raise ValueError(f"t = {tgrid[0]!r} is too small: t^2 underflows to 0, "
                         "so N(t)/t^2 is undefined")
    return tgrid


def _series(manifold, alpha: float, tgrid, oscillator) -> CountingSeries:
    _, lattice, orbits = _sectors(manifold)
    torus = tuple(orbits(_torus_points(lattice, t) - 1) for t in tgrid)
    return CountingSeries(manifold_tag(manifold), alpha, tuple(float(t) for t in tgrid),
                          tuple(oscillator), torus)


def counting_function(manifold, alpha: float, tgrid) -> CountingSeries:
    """Counts of positive eigenvalues <= t with multiplicity, per sample t.

    Zero eigenvalues (the |alpha| = 1 kernels and the constant character) are
    excluded.  The counts are exact: they sum the multiplicities of the lines
    enumerate_spectrum lists at tmax = t, fixed-subspace dimensions and rotation
    orbits of characters on the crystallographic quotients included.
    """
    tgrid = _checked_grid(tgrid)
    (osc,) = _oscillator_sums([_sectors(manifold)[0]], alpha, tgrid)
    return _series(manifold, alpha, tgrid, osc)


def counting_columns(manifold, alpha: float, tgrid):
    """(series, cover, parity, pairs): the columns of `weyl`, from one pass over the
    oscillator levels of the whole grid.

    series is counting_function(manifold, alpha, tgrid); per sample t, cover holds
    the oscillator count of the covering lattice (the manifold itself on a
    lattice), parity holds parity_counts(t, alpha) and pairs holds
    oscillator_pair_sums(t, alpha, manifold.l).
    """
    tgrid = _checked_grid(tgrid)
    f, lattice, _ = _sectors(manifold)
    osc, cover, even, pairs, widths = _oscillator_sums(
        [f, _sectors(lattice)[0], _even, _one, _width], alpha, tgrid)
    parity = tuple(ParitySetCounts(t, e, p - e) for t, e, p in zip(tgrid, even, pairs))
    return (_series(manifold, alpha, tgrid, osc), tuple(cover), parity,
            tuple((p, manifold.l * w) for p, w in zip(pairs, widths)))


def default_tgrid(n_samples: int = 20, t_lo: float = math.pi / 2, t_hi: float = 1e3):
    """Geometric grid used by the diagnostics when none is given."""
    ratio = (t_hi / t_lo) ** (1.0 / (n_samples - 1))
    return [t_lo * ratio**i for i in range(n_samples)]


def weyl_ratio_check(manifold, alpha: float, tgrid) -> list[tuple[float, float, float, float]]:
    """(t, N(t)/t^2, target, relative deviation) per sample."""
    series = counting_function(manifold, alpha, _ratio_grid(tgrid))
    target = weyl_constant(alpha).value * volume(manifold)
    out = []
    for t, count in zip(series.t, series.counts):
        ratio = count / t**2
        out.append((t, ratio, target, abs(ratio - target) / target))
    return out
