"""
A first look at the spectra
===========================

Enumerate the positive spectrum of L_alpha on the four quotients at a small
cutoff and print the lines with their origins.
"""

import math

from heis_spectra import (
    enumerate_spectrum,
    gamma_pi,
    gamma_pi_half,
    scaled_square,
    standard_rect,
    OscillatorOrigin,
)

ALPHA = 0.0
TMAX = 10.0


def show(tag, lines):
    print(f"\n{tag}  (alpha={ALPHA}, up to t={TMAX})")
    for ln in lines:
        if ln.value <= 0:
            continue
        if isinstance(ln.origin, OscillatorOrigin):
            src = f"oscillator n={ln.origin.n:+d} lam={ln.origin.lam}"
        else:
            rep = ln.origin.points[0]
            src = f"torus ({rep.mu:+.4f}, {rep.nu:+.4f}) x{len(ln.origin.points)}"
        print(f"  {ln.value:10.6f}  mult {ln.multiplicity:2d}   {src}")


# the two lattice quotients: multiplicities grow linearly in |n|
show("standard-rect l=1", enumerate_spectrum(standard_rect(1), ALPHA, TMAX))
show("scaled-square l=1", enumerate_spectrum(scaled_square(1), ALPHA, TMAX))

# the crystallographic quotients thin the oscillator lines: the half turn
# keeps roughly half of each multiplicity, the quarter turn roughly a quarter,
# and the bottom pair n=+-1, lam=0 disappears entirely
show("gamma-pi l=1", enumerate_spectrum(gamma_pi(1), ALPHA, TMAX))
show("gamma-pi-half l=1", enumerate_spectrum(gamma_pi_half(1), ALPHA, TMAX))

# the lowest oscillator value itself
print(f"\nbottom oscillator value on the lattice quotients: {math.pi / 2:.6f}")
