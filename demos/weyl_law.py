"""
Counting eigenvalues against the Weyl law
=========================================

N(t)/t^2 approaches A_alpha times the volume of the quotient.  Watch the
ratio converge, and check the exact cancellation that ties the half quotient
to its double cover.
"""

import math

from heis_spectra import (
    counting_function,
    gamma_pi,
    parity_counts,
    standard_rect,
    volume,
    weyl_constant,
    weyl_ratio_check,
)

ALPHA = 0.25
A = weyl_constant(ALPHA)
print(f"A_{ALPHA} = {A.value:.12f}  (rounding bound {A.quadrature_error:.1e})")
print(f"A_0 = {weyl_constant(0.0).value:.12f}, endpoint A_1 = {weyl_constant(1.0).value:.12f}")

manifold = standard_rect(1)
print(f"\n{manifold.kind}(l={manifold.l}), volume {volume(manifold)}, alpha={ALPHA}")
print("        t      N(t)/t^2     target    deviation")
tgrid = [10.0 * 2**k for k in range(7)]
for t, ratio, target, dev in weyl_ratio_check(manifold, ALPHA, tgrid):
    print(f"{t:9.1f}  {ratio:12.6f} {target:10.6f} {dev:10.4%}")

# the half quotient counts exactly half the cover, up to the parity imbalance
# of the admissible index set
print("\nhalf-quotient cancellation at alpha=0:")
print("        t   N_half   N_cover/2   |diff|   |#even-#odd|")
for t in (10.0, 100.0, 1000.0):
    n_half = counting_function(gamma_pi(1), 0.0, [t]).oscillator[0]
    n_cover = counting_function(standard_rect(2), 0.0, [t]).oscillator[0]
    pc = parity_counts(t, 0.0)
    diff = abs(n_half - n_cover / 2)
    print(f"{t:9.1f} {n_half:8d} {n_cover / 2:10.1f} {diff:8.1f} {abs(pc.even_count - pc.odd_count):10d}")
    assert diff <= 2 * (t / math.pi + 1)
