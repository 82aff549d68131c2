"""
A first look at the spectra
===========================

Enumerate the positive spectrum of L_alpha on the four quotients at a small
cutoff and print the lines with their origins.
"""

import math

from heis_spectra import (
    BieberbachSpec,
    enumerate_spectrum,
    gamma_pi,
    gamma_pi_half,
    scaled_square,
    standard_rect,
)

ALPHA = 0.0
TMAX = 10.0


def show(tag, manifold):
    print(f"\n{tag}  (alpha={ALPHA}, up to t={TMAX})")
    # a torus line counts rotation orbits; each has index points
    index = manifold.index if isinstance(manifold, BieberbachSpec) else 1
    lines = enumerate_spectrum(manifold, ALPHA, TMAX)
    for value, mult, kind, n, lam, mu, nu in lines[lines["value"] > 0].tolist():
        if kind:
            src = f"oscillator n={n:+d} lam={lam}"
        else:
            src = f"torus ({mu:+.4f}, {nu:+.4f}) x{mult * index}"
        print(f"  {value:10.6f}  mult {mult:2d}   {src}")


# the two lattice quotients: multiplicities grow linearly in |n|
show("standard-rect l=1", standard_rect(1))
show("scaled-square l=1", scaled_square(1))

# the crystallographic quotients thin the oscillator lines: the half turn
# keeps roughly half of each multiplicity, the quarter turn roughly a quarter,
# and the bottom pair n=+-1, lam=0 disappears entirely
show("gamma-pi l=1", gamma_pi(1))
show("gamma-pi-half l=1", gamma_pi_half(1))

# the lowest oscillator value itself
print(f"\nbottom oscillator value on the lattice quotients: {math.pi / 2:.6f}")
